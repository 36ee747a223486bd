//! Every host selection and join probe against a reference that shares no
//! code with it: `iter().filter()` over the rows (or candidates), and for
//! the joins a linear search of the build side. The operators keep rows by
//! predication — each candidate written at the cursor, the cursor advanced
//! by the predicate — so the cases are the ones a cursor can get wrong: no
//! row kept, every row, alternating rows, a random third, only the first
//! and only the last; values at both ends of `i32`, empty ranges, and for
//! floats NaN, ±0 and ±inf; empty columns, empty candidate lists and lists
//! that cover every row. Results must be equal bit for bit.

use ocelot_monet::sequential::*;
use ocelot_monet::MonetHashTable;
use ocelot_storage::{CmpOp, DenseKey, Oid};
use proptest::prelude::*;

const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

/// The rows `0..n` that `holds` keeps.
fn rows_where(n: usize, holds: impl Fn(usize) -> bool) -> Vec<Oid> {
    (0..n).filter(|&row| holds(row)).map(|row| row as Oid).collect()
}

/// The candidates whose row `holds` keeps.
fn candidates_where(candidates: &[Oid], holds: impl Fn(usize) -> bool) -> Vec<Oid> {
    candidates.iter().copied().filter(|&row| holds(row as usize)).collect()
}

/// The reference meaning of each comparison.
fn compare(op: CmpOp, left: i32, right: i32) -> bool {
    match op {
        CmpOp::Lt => left < right,
        CmpOp::Le => left <= right,
        CmpOp::Gt => left > right,
        CmpOp::Ge => left >= right,
        CmpOp::Eq => left == right,
        CmpOp::Ne => left != right,
    }
}

/// Candidate lists over `n` rows: none, every row, and `extra`.
fn candidate_lists(n: usize, extra: &[Vec<Oid>]) -> Vec<Vec<Oid>> {
    let mut lists = vec![Vec::new(), (0..n as Oid).collect()];
    lists.extend(extra.iter().cloned());
    lists
}

/// Every `i32` selection over `column` (and `right`, for the column
/// comparison) equals the reference, over the rows and over every list.
fn check_i32_selections(
    column: &[i32],
    right: &[i32],
    lists: &[Vec<Oid>],
    ranges: &[(i32, i32)],
    needles: &[i32],
    sets: &[Vec<i32>],
) {
    let n = column.len();
    for &(low, high) in ranges {
        let holds = |row: usize| low <= column[row] && column[row] <= high;
        let at = || format!("range [{low}, {high}] over {column:?}");
        assert_eq!(select_range_i32(column, low, high), rows_where(n, holds), "{}", at());
        for list in lists {
            let got = select_range_i32_cand(column, list, low, high);
            assert_eq!(got, candidates_where(list, holds), "{}, candidates {list:?}", at());
        }
    }
    for &needle in needles {
        let (eq, ne) = (|row: usize| column[row] == needle, |row: usize| column[row] != needle);
        let at = || format!("needle {needle} over {column:?}");
        assert_eq!(select_eq_i32(column, needle), rows_where(n, eq), "= {}", at());
        assert_eq!(select_ne_i32(column, needle), rows_where(n, ne), "!= {}", at());
        for list in lists {
            let (got_eq, got_ne) = (
                select_eq_i32_cand(column, list, needle),
                select_ne_i32_cand(column, list, needle),
            );
            assert_eq!(got_eq, candidates_where(list, eq), "= {}, candidates {list:?}", at());
            assert_eq!(got_ne, candidates_where(list, ne), "!= {}, candidates {list:?}", at());
        }
    }
    for set in sets {
        let holds = |row: usize| set.contains(&column[row]);
        let at = || format!("in {set:?} over {column:?}");
        assert_eq!(select_in_i32(column, set), rows_where(n, holds), "{}", at());
        for list in lists {
            let got = select_in_i32_cand(column, list, set);
            assert_eq!(got, candidates_where(list, holds), "{}, candidates {list:?}", at());
        }
    }
    for op in OPS {
        let holds = |row: usize| compare(op, column[row], right[row]);
        let at = || format!("{op:?} over {column:?} and {right:?}");
        assert_eq!(select_cmp_i32(column, right, op), rows_where(n, holds), "{}", at());
        for list in lists {
            let got = select_cmp_i32_cand(column, right, list, op);
            assert_eq!(got, candidates_where(list, holds), "{}, candidates {list:?}", at());
        }
    }
}

/// Both float range selections over `column` equal the reference.
fn check_f32_selections(column: &[f32], lists: &[Vec<Oid>], ranges: &[(f32, f32)]) {
    for &(low, high) in ranges {
        let holds = |row: usize| column[row] >= low && column[row] <= high;
        let at = || format!("range [{low}, {high}] over {column:?}");
        assert_eq!(
            select_range_f32(column, low, high),
            rows_where(column.len(), holds),
            "{}",
            at()
        );
        for list in lists {
            let got = select_range_f32_cand(column, list, low, high);
            assert_eq!(got, candidates_where(list, holds), "{}, candidates {list:?}", at());
        }
    }
}

/// Every join probe of `values` equals the reference: against the `listed`
/// rows of a dense key (every row when `None`), and through a hash table
/// over the listed rows' keys.
fn check_joins(values: &[i32], key: DenseKey, listed: Option<&[Oid]>) {
    let listed_rows: Vec<Oid> = listed.map_or_else(|| (0..key.rows as Oid).collect(), Vec::from);
    let listed_keys: Vec<i32> = listed_rows.iter().map(|&row| key.base + row as i32).collect();
    let position = |value: i32| listed_keys.iter().position(|&k| k == value).map(|p| p as Oid);
    let at =
        || format!("values {values:?}, base {} rows {}, listed {listed:?}", key.base, key.rows);

    let pairs: Vec<(Oid, Oid)> = (0..values.len())
        .filter_map(|row| position(values[row]).map(|p| (row as Oid, p)))
        .collect();
    let expected = pairs.iter().copied().unzip();
    assert_eq!(dense_join_i32(values, listed, key), expected, "dense join, {}", at());
    let table = MonetHashTable::build(&listed_keys);
    assert_eq!(pkfk_join_i32(values, &table), expected, "hash PK-FK join, {}", at());

    for keep in [true, false] {
        let kept = rows_where(values.len(), |row| position(values[row]).is_some() == keep);
        assert_eq!(
            dense_semi_join_i32(values, listed, key, keep),
            kept,
            "dense semi {keep}, {}",
            at()
        );
        let got = semi_join_table_i32(values, &table, keep);
        assert_eq!(got, kept, "hash semi {keep}, {}", at());
        let named = rows_where(listed_keys.len(), |p| values.contains(&listed_keys[p]) == keep);
        let got = dense_listed_semi_join_i32(values, listed, key, keep);
        assert_eq!(got, named, "listed semi {keep}, {}", at());
    }
}

/// The keep patterns a cursor can get wrong, over `n` rows.
fn keep_patterns(n: usize, seed: u32) -> Vec<Vec<bool>> {
    let mut next = words(seed);
    vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|row| row % 2 == 0).collect(),
        (0..n).map(|row| row % 2 == 1).collect(),
        (0..n).map(|_| next().is_multiple_of(3)).collect(),
        (0..n).map(|row| row + 1 == n).collect(),
        (0..n).map(|row| row == 0).collect(),
    ]
}

/// A deterministic word stream.
fn words(seed: u32) -> impl FnMut() -> u32 {
    let mut state = seed as u64 | 1;
    move || {
        state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
        (state >> 33) as u32
    }
}

/// The positions `keep` marks.
fn marked(keep: &[bool]) -> Vec<Oid> {
    rows_where(keep.len(), |row| keep[row])
}

#[test]
fn selections_keep_every_pattern_at_the_ends_of_i32() {
    for n in [1, 2, 3, 7, 64, 65, 1000] {
        for keep in keep_patterns(n, n as u32) {
            for (kept, dropped) in [(i32::MIN, i32::MAX), (i32::MAX, i32::MIN), (0, -1), (7, 8)] {
                let column: Vec<i32> =
                    keep.iter().map(|&k| if k { kept } else { dropped }).collect();
                let right: Vec<i32> = column.iter().map(|v| v.wrapping_add(1)).collect();
                let lists = candidate_lists(n, &[marked(&keep), rows_where(n, |row| row % 3 != 1)]);
                let ranges = [
                    (kept, kept),
                    (i32::MIN, i32::MAX),
                    (i32::MIN, kept),
                    (kept, i32::MAX),
                    (i32::MAX, i32::MIN),
                    (1, -1),
                ];
                let sets = [vec![], vec![kept], vec![dropped, kept], vec![kept, kept, 3]];
                check_i32_selections(&column, &right, &lists, &ranges, &[kept, dropped], &sets);
                check_i32_selections(&column, &column, &lists, &[], &[], &[]);
            }
        }
    }
}

#[test]
fn float_selections_keep_every_pattern_with_nan_zeros_and_infinities() {
    let specials = [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -1.5, f32::MAX];
    let ranges = [
        (-0.0, 0.0),
        (0.0, -0.0),
        (f32::NEG_INFINITY, f32::INFINITY),
        (f32::INFINITY, f32::INFINITY),
        (f32::NEG_INFINITY, f32::NEG_INFINITY),
        (f32::NAN, 1.0),
        (-1.0, f32::NAN),
        (2.0, 1.0),
        (-f32::MAX, f32::MAX),
    ];
    for n in [1, 2, 9, 100] {
        for keep in keep_patterns(n, 3 * n as u32) {
            for (i, &dropped) in specials.iter().enumerate() {
                let kept = specials[(i + 1) % specials.len()];
                let column: Vec<f32> =
                    keep.iter().map(|&k| if k { kept } else { dropped }).collect();
                let lists = candidate_lists(n, &[marked(&keep)]);
                check_f32_selections(&column, &lists, &ranges);
                check_f32_selections(&column, &lists, &[(kept, kept), (dropped, kept)]);
            }
        }
    }
}

#[test]
fn joins_keep_every_pattern() {
    for n in [1, 2, 3, 8, 100] {
        for keep in keep_patterns(n, 7 * n as u32) {
            for key in [
                DenseKey { base: 0, rows: 10 },
                DenseKey { base: -5, rows: 10 },
                DenseKey { base: i32::MAX - 9, rows: 10 },
                DenseKey { base: i32::MIN, rows: 10 },
            ] {
                // Kept rows name a listed row (rows 2, 5 and 9 are listed);
                // the others name an unlisted row, or no row at all.
                let listed: Vec<Oid> = vec![9, 2, 5];
                let misses = [key.base.wrapping_add(3), key.base.wrapping_sub(1), i32::MIN];
                let values: Vec<i32> = keep
                    .iter()
                    .enumerate()
                    .map(|(row, &k)| {
                        let listed_row = listed[row % listed.len()] as i32;
                        if k {
                            key.base + listed_row
                        } else {
                            misses[row % misses.len()]
                        }
                    })
                    .collect();
                check_joins(&values, key, Some(&listed));
                check_joins(&values, key, Some(&[]));
                check_joins(&values, key, None);
            }
        }
    }
}

#[test]
fn empty_inputs() {
    let lists = candidate_lists(0, &[]);
    check_i32_selections(&[], &[], &lists, &[(i32::MIN, i32::MAX), (1, 0)], &[0], &[vec![0]]);
    check_f32_selections(&[], &lists, &[(f32::NEG_INFINITY, f32::INFINITY)]);
    let key = DenseKey { base: 0, rows: 4 };
    check_joins(&[], key, None);
    check_joins(&[], key, Some(&[1, 3]));
    check_joins(&[0, 1, 2, 3], DenseKey { base: 0, rows: 0 }, None);
}

proptest! {
    #[test]
    fn random_columns_bounds_and_candidates_equal_the_reference(
        rows in 0usize..300,
        seed in any::<u32>(),
        low in -3i32..3,
        high in -3i32..3,
        base in -6i32..6
    ) {
        let mut next = words(seed);
        let palette = [i32::MIN, i32::MIN + 1, -2, -1, 0, 1, 2, i32::MAX - 1, i32::MAX];
        let mut column = || -> Vec<i32> {
            (0..rows).map(|_| palette[next() as usize % palette.len()]).collect()
        };
        let (left, right) = (column(), column());
        let mut next = words(seed ^ 0x9E37_79B9);
        let subset: Vec<Oid> = (0..rows as Oid).filter(|_| next().is_multiple_of(2)).collect();
        let lists = candidate_lists(rows, std::slice::from_ref(&subset));
        let ends = [(low, high), (i32::MIN, high), (low, i32::MAX), (high, low)];
        check_i32_selections(&left, &right, &lists, &ends, &[low, i32::MIN], &[vec![low, high]]);
        let floats: Vec<f32> = left.iter().map(|&v| v as f32 / 3.0).collect();
        check_f32_selections(&floats, &lists, &[(low as f32, high as f32)]);
        let values: Vec<i32> = left.iter().map(|&v| (v % 8).wrapping_add(base)).collect();
        let key = DenseKey { base, rows: 6 };
        let listed: Vec<Oid> = subset.iter().copied().filter(|&row| row < 6).rev().collect();
        check_joins(&values, key, Some(&listed));
        check_joins(&values, key, None);
    }
}
