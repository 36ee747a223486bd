//! The host grouping against a reference that shares no code with it: a
//! `BTreeMap` from key tuple to id, filled in row order. Both
//! `sequential::group_by_columns` and `parallel::par_group_by_columns` (at
//! 1, 2, 3 and 7 threads) must equal it in `gids`, `num_groups` and
//! `representatives`, on 1–4 key columns, over code spaces below and above
//! the row count and past `u64`, with keys at both ends of `i32`.

use ocelot_monet::parallel::par_group_by_columns;
use ocelot_monet::sequential::{group_by_columns, GroupResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// First-appearance ids and first rows, one row at a time.
fn reference(columns: &[Vec<i32>], rows: usize) -> GroupResult {
    let mut ids: BTreeMap<Vec<i32>, u32> = BTreeMap::new();
    let mut gids = Vec::new();
    let mut representatives = Vec::new();
    for row in 0..rows {
        let key: Vec<i32> = columns.iter().map(|column| column[row]).collect();
        let next = ids.len() as u32;
        let id = *ids.entry(key).or_insert_with(|| {
            representatives.push(row as u32);
            next
        });
        gids.push(id);
    }
    GroupResult { gids, num_groups: ids.len(), representatives }
}

fn check(columns: &[Vec<i32>], rows: usize) {
    let expected = reference(columns, rows);
    let slices: Vec<&[i32]> = columns.iter().map(Vec::as_slice).collect();
    assert_eq!(group_by_columns(&slices), expected, "sequential, {} columns", columns.len());
    for threads in [1, 2, 3, 7] {
        let parallel = par_group_by_columns(&slices, threads);
        assert_eq!(parallel, expected, "{threads} threads, {} columns", columns.len());
    }
}

/// A deterministic word stream for building keys.
fn words(seed: u32) -> impl FnMut() -> u32 {
    let mut state = seed as u64 | 1;
    move || {
        state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
        (state >> 33) as u32
    }
}

/// Key columns of one shape: 0 draws from a few adjacent values (small
/// code spaces, based at either end of `i32`), 1 from a handful of arbitrary
/// values, 2 from `{i32::MIN, 0, i32::MAX}` (every span is 2³²).
fn columns(shape: u32, count: usize, rows: usize, seed: u32) -> Vec<Vec<i32>> {
    let mut next = words(seed);
    (0..count)
        .map(|_| {
            let palette: Vec<i32> = match shape {
                0 => {
                    let width = 1 + next() % 4;
                    let base = match next() % 3 {
                        0 => i32::MIN,
                        1 => i32::MAX - (width as i32 - 1),
                        _ => next() as i32 / 2,
                    };
                    (0..width as i32).map(|digit| base + digit).collect()
                }
                1 => (0..1 + next() % 5).map(|_| next() as i32).collect(),
                _ => vec![i32::MIN, 0, i32::MAX],
            };
            (0..rows).map(|_| palette[next() as usize % palette.len()]).collect()
        })
        .collect()
}

/// `Π (maxᵢ − minᵢ + 1)`, or `None` past `u64`.
fn code_space(columns: &[Vec<i32>]) -> Option<u64> {
    columns.iter().try_fold(1u64, |space, column| {
        let (min, max) = (column.iter().min()?, column.iter().max()?);
        space.checked_mul((*max as i64 - *min as i64 + 1) as u64)
    })
}

proptest! {
    #[test]
    fn grouping_equals_a_plain_reference(
        shape in 0u32..3,
        count in 1usize..5,
        rows in 0usize..400,
        seed in any::<u32>()
    ) {
        check(&columns(shape, count, rows, seed), rows);
    }
}

/// Every code-space case the grouping distinguishes, each hit for sure.
#[test]
fn every_code_space_case_equals_the_reference() {
    let mut seen = [0usize; 3];
    for seed in 0..60u32 {
        for (shape, count, rows) in [(0, 1, 300), (0, 3, 5), (1, 2, 200), (2, 1, 100), (2, 4, 100)]
        {
            let columns = columns(shape, count, rows, seed);
            match code_space(&columns) {
                Some(space) if space <= rows as u64 => seen[0] += 1,
                Some(_) => seen[1] += 1,
                None => seen[2] += 1,
            }
            check(&columns, rows);
        }
    }
    assert!(seen.iter().all(|&cases| cases > 0), "indexed / hashed / overflowing: {seen:?}");
}

#[test]
fn empty_and_single_row_inputs() {
    for count in 1..5 {
        check(&vec![vec![]; count], 0);
        check(&vec![vec![i32::MIN]; count], 1);
        check(&vec![vec![i32::MAX]; count], 1);
    }
}
