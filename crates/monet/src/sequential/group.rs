//! Sequential group-by: assign a dense group ID to every tuple.
//!
//! MonetDB's grouping operator produces "a column that assigns a dense group
//! ID to each tuple" (paper §4.1.6). Any number of key columns is one pass
//! over the rows, through one table:
//!
//! * Each key column's `min` and `max` are read first. A row's **code** is
//!   `Σ (kᵢ − minᵢ)·strideᵢ` in `u64`, with `stride₀ = 1` and
//!   `strideᵢ₊₁ = strideᵢ·(maxᵢ − minᵢ + 1)` — the mixed-radix code Ocelot's
//!   dense grouping uses. The code space is `Π (maxᵢ − minᵢ + 1)`.
//! * When the code space is no larger than the row count, the table is
//!   indexed by the code itself: no collisions and no key compare.
//! * Otherwise the table is open-addressed over the codes, probed linearly
//!   from a multiplicative hash of the code ([`hash_u64`]) and doubled at
//!   half load.
//! * When the code space overflows `u64`, the same table hashes the key
//!   tuple and compares every key column at the group's representative row.
//!
//! On every path group ids follow first appearance and each group's
//! representative is its first row, so the result depends on the keys
//! only — never on which path ran.

use crate::hash_table::hash_u64;
use crate::slots::{filled, Slots};
use ocelot_storage::Oid;

/// Result of a grouping operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupResult {
    /// Dense group id per input row.
    pub gids: Vec<u32>,
    /// Number of distinct groups.
    pub num_groups: usize,
    /// For every group, the OID of the first row belonging to it (used to
    /// project the grouping key values into the result set).
    pub representatives: Vec<Oid>,
}

impl GroupResult {
    /// A grouping that puts every row into a single group (used for global
    /// aggregates expressed through the grouped code path).
    pub fn single_group(rows: usize) -> GroupResult {
        GroupResult {
            gids: vec![0; rows],
            num_groups: if rows == 0 { 0 } else { 1 },
            representatives: if rows == 0 { vec![] } else { vec![0] },
        }
    }
}

/// Groups the rows of one or more integer key columns of equal length. Ids
/// follow first appearance; representatives are first rows.
pub fn group_by_columns(columns: &[&[i32]]) -> GroupResult {
    let rows = columns.first().map_or(0, |column| column.len());
    let (gids, representatives) = filled(rows, |gids| group_into(columns, gids));
    GroupResult { gids, num_groups: representatives.len(), representatives }
}

/// Marks a table slot that holds no group.
const EMPTY: u32 = u32::MAX;

/// One key column's share of a row's code.
struct Digit<'a> {
    column: &'a [i32],
    min: i32,
    stride: u64,
}

/// Writes the group id of every row of `columns` into `gids` (which has one
/// slot per row) and returns the representatives, row ids relative to the
/// slices.
pub(crate) fn group_into(columns: &[&[i32]], gids: &mut Slots<'_, u32>) -> Vec<Oid> {
    let rows = gids.len();
    assert!(columns.iter().all(|c| c.len() == rows), "group_by_columns: length mismatch");
    let mut representatives = Vec::new();
    if rows == 0 {
        return representatives;
    }
    let mut digits = Vec::with_capacity(columns.len());
    let mut space = Some(1u64);
    for column in columns {
        let (min, max) =
            column.iter().fold((i32::MAX, i32::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let stride = space.unwrap_or(0);
        space = space.and_then(|s| s.checked_mul((max as i64 - min as i64 + 1) as u64));
        digits.push(Digit { column, min, stride });
    }
    let code = |row: usize| -> u64 {
        digits.iter().map(|d| (d.column[row] as i64 - d.min as i64) as u64 * d.stride).sum()
    };
    match space {
        Some(space) if space <= rows as u64 => {
            // A code is below the row count, so it fits the row's id slot:
            // add the digits up there column by column, then replace each
            // code by its group's id.
            match digits.first() {
                Some(d) => gids.extend(d.column.iter().map(|&k| k.wrapping_sub(d.min) as u32)),
                None => gids.extend(std::iter::repeat_n(0, rows)),
            }
            let codes = gids.written();
            for d in digits.iter().skip(1) {
                let stride = d.stride as u32;
                for (code, &k) in codes.iter_mut().zip(d.column) {
                    *code += k.wrapping_sub(d.min) as u32 * stride;
                }
            }
            let mut ids = vec![EMPTY; space as usize];
            for (row, code) in codes.iter_mut().enumerate() {
                let id = &mut ids[*code as usize];
                if *id == EMPTY {
                    *id = representatives.len() as u32;
                    representatives.push(row as Oid);
                }
                *code = *id;
            }
        }
        Some(_) => {
            let mut codes: Vec<u64> = Vec::new();
            let mut table = GroupTable::new();
            for row in 0..rows {
                let code = code(row);
                table.reserve(codes.len(), |gid| codes[gid as usize]);
                let gid =
                    table.find_or_insert(code, codes.len(), |gid| codes[gid as usize] == code);
                if gid as usize == codes.len() {
                    codes.push(code);
                    representatives.push(row as Oid);
                }
                gids.push(gid);
            }
        }
        None => {
            let tuple = |row: usize| -> u64 {
                columns.iter().fold(0, |acc, c| {
                    (acc ^ c[row] as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                })
            };
            let mut table = GroupTable::new();
            for row in 0..rows {
                let reps = &representatives;
                table.reserve(reps.len(), |gid| tuple(reps[gid as usize] as usize));
                let same =
                    |gid: u32| columns.iter().all(|c| c[reps[gid as usize] as usize] == c[row]);
                let gid = table.find_or_insert(tuple(row), reps.len(), same);
                if gid as usize == representatives.len() {
                    representatives.push(row as Oid);
                }
                gids.push(gid);
            }
        }
    }
    representatives
}

/// An open-addressed table of group ids: a key probes linearly from its
/// [`hash_u64`] slot, and the table doubles before it is half full.
struct GroupTable {
    slots: Vec<u32>,
    bits: u32,
}

impl GroupTable {
    fn new() -> Self {
        GroupTable { slots: vec![EMPTY; 2], bits: 1 }
    }

    /// Makes room for one more group beside `groups` at most half load,
    /// re-placing every group by `key(gid)` when the table doubles.
    #[inline]
    fn reserve(&mut self, groups: usize, key: impl Fn(u32) -> u64) {
        if 2 * (groups + 1) <= self.slots.len() {
            return;
        }
        self.bits += 1;
        self.slots = vec![EMPTY; 1 << self.bits];
        for gid in 0..groups as u32 {
            let slot = self.probe(key(gid), |_| false);
            self.slots[slot] = gid;
        }
    }

    /// The id of the group `same` recognises on `key`'s probe sequence, or
    /// `next` — stored in the first empty slot — when there is none.
    #[inline]
    fn find_or_insert(&mut self, key: u64, next: usize, same: impl Fn(u32) -> bool) -> u32 {
        let slot = self.probe(key, same);
        if self.slots[slot] == EMPTY {
            self.slots[slot] = next as u32;
        }
        self.slots[slot]
    }

    /// The first slot on `key`'s probe sequence that is empty or holds a
    /// group `same` recognises.
    #[inline]
    fn probe(&self, key: u64, same: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash_u64(key, self.bits);
        loop {
            let gid = self.slots[slot];
            if gid == EMPTY || same(gid) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_column_grouping() {
        let col = vec![5, 3, 5, 7, 3];
        let result = group_by_columns(&[&col]);
        assert_eq!(result.num_groups, 3);
        assert_eq!(result.gids, vec![0, 1, 0, 2, 1]);
        assert_eq!(result.representatives, vec![0, 1, 3]);
    }

    #[test]
    fn a_second_column_splits_groups() {
        let a = vec![1, 1, 2, 2];
        let b = vec![10, 20, 10, 10];
        let result = group_by_columns(&[&a, &b]);
        assert_eq!(result.num_groups, 3);
        assert_eq!(result.gids, vec![0, 1, 2, 2]);
    }

    #[test]
    fn multi_column_grouping_matches_pairwise_equality() {
        let a = vec![1, 1, 1, 2, 2, 1];
        let b = vec![7, 7, 8, 7, 7, 7];
        let result = group_by_columns(&[&a, &b]);
        for i in 0..a.len() {
            for j in 0..a.len() {
                let same_keys = a[i] == a[j] && b[i] == b[j];
                assert_eq!(same_keys, result.gids[i] == result.gids[j], "rows {i},{j}");
            }
        }
        assert_eq!(result.num_groups, 3);
    }

    #[test]
    fn every_path_numbers_by_first_appearance() {
        // Code space 3 of 6 rows (indexed), 2^32 (hashed codes) and 2^96
        // (hashed tuples): the same partition of the rows, the same ids.
        let small = [2, 0, 2, 1, 0, 1];
        let wide = small.map(|k| if k == 2 { i32::MAX } else { i32::MIN + k });
        let expected = vec![0, 1, 0, 2, 1, 2];
        assert_eq!(group_by_columns(&[&small]).gids, expected);
        assert_eq!(group_by_columns(&[&wide]).gids, expected);
        assert_eq!(group_by_columns(&[&wide, &wide, &wide]).gids, expected);
        assert_eq!(group_by_columns(&[&wide, &wide, &wide]).representatives, vec![0, 1, 3]);
    }

    #[test]
    fn representatives_point_to_first_occurrence() {
        let col = vec![4, 4, 9];
        let result = group_by_columns(&[&col]);
        assert_eq!(result.representatives, vec![0, 2]);
        assert_eq!(col[result.representatives[1] as usize], 9);
    }

    #[test]
    fn empty_and_single_group() {
        let empty = group_by_columns(&[&[]]);
        assert_eq!(empty.num_groups, 0);
        assert!(empty.gids.is_empty());
        assert!(group_by_columns(&[]).gids.is_empty());

        let single = GroupResult::single_group(4);
        assert_eq!(single.num_groups, 1);
        assert_eq!(single.gids, vec![0, 0, 0, 0]);
        assert_eq!(GroupResult::single_group(0).num_groups, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn columns_of_different_lengths_panic() {
        group_by_columns(&[&[1, 2], &[1]]);
    }
}
