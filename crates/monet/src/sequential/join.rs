//! Sequential join operators: PK-FK join, semi/anti join and their
//! positional forms on a dense key.
//!
//! A **dense key** column holds `base, base + 1, …` (`Bat::dense_base`), so a
//! value names its row by arithmetic — MonetDB's void head, which needs no
//! hash table. The relation on the dense side is the column's table
//! restricted to a list of its rows (`listed`; every row when `None`). A
//! positional join maps each value to the position of its row in that list
//! through an inverse map of the table's rows; a semi/anti join whose left
//! side is the dense one flags the rows the right values name and reads
//! the flags of the listed rows.
//!
//! The probes keep their rows by predication: each writes every probe row
//! at the output cursor and advances the cursor by whether the row is kept
//! (`Kept`), so no row costs a mispredict whatever fraction of them has a
//! partner. A positional probe first counts the rows it keeps (a sum of
//! predicates, no branch on them) and allocates each output once, at that
//! length. The hash semi/anti probe gives its output room for every probe
//! row instead: counting would walk every hash chain twice, which costs
//! more than the room, since room never written is never touched. The hash
//! PK-FK probe keeps its branch (see [`pkfk_join_i32`]).

use crate::hash_table::MonetHashTable;
use crate::slots::{kept_positions, Kept};
use ocelot_storage::{DenseKey, Oid};

/// How many of the positions `0..n` `keeps` holds for: a sum of the
/// predicates, with no branch on them.
fn kept_count(n: usize, keeps: impl Fn(usize) -> bool) -> usize {
    (0..n).map(|position| usize::from(keeps(position))).sum()
}

/// PK-FK join through a prebuilt hash table: for every foreign-key value the
/// OID of its (unique) primary-key partner. Rows without a partner are
/// dropped, and their positions are returned alongside the matches.
///
/// The one probe that keeps a branch per row: its chain walk branches on
/// the data anyway, and writing its pairs predicated measured up to a
/// quarter slower when few rows have a partner.
pub fn pkfk_join_i32(foreign_keys: &[i32], table: &MonetHashTable) -> (Vec<Oid>, Vec<Oid>) {
    let mut fk_oids = Vec::with_capacity(foreign_keys.len());
    let mut pk_oids = Vec::with_capacity(foreign_keys.len());
    for (row, key) in foreign_keys.iter().enumerate() {
        if let Some(pk_row) = table.find_first(*key) {
            fk_oids.push(row as Oid);
            pk_oids.push(pk_row);
        }
    }
    (fk_oids, pk_oids)
}

/// Semi join: the OIDs of left rows whose key occurs at least once in
/// `right` (SQL `EXISTS` / `IN`).
pub fn semi_join_i32(left: &[i32], right: &[i32]) -> Vec<Oid> {
    semi_join_table_i32(left, &MonetHashTable::build(right), true)
}

/// Anti join: the OIDs of left rows whose key does **not** occur in `right`
/// (SQL `NOT EXISTS` / `NOT IN`).
pub fn anti_join_i32(left: &[i32], right: &[i32]) -> Vec<Oid> {
    semi_join_table_i32(left, &MonetHashTable::build(right), false)
}

/// Semi (`keep_found`) or anti join through a prebuilt hash table of the
/// right keys: the OIDs of the left rows whose key the table holds, or
/// does not.
pub fn semi_join_table_i32(left: &[i32], table: &MonetHashTable, keep_found: bool) -> Vec<Oid> {
    kept_positions(left.iter().map(|&key| table.contains(key) == keep_found), left.len())
}

/// Where a value lands among the listed rows of a dense key: the position
/// of its row in the list, or the row itself when every row is listed.
/// Built once, it probes any slice of values.
pub struct DenseProbe {
    key: DenseKey,
    /// Position + 1 of every listed row, 0 for the others; `None` when
    /// every row is listed.
    inverse: Option<Vec<u32>>,
}

impl DenseProbe {
    /// The probe for the `listed` rows of `key` (every row when `None`).
    pub fn new(listed: Option<&[Oid]>, key: DenseKey) -> DenseProbe {
        let inverse = listed.map(|listed| {
            let mut inverse = vec![0u32; key.rows];
            for (position, &row) in listed.iter().enumerate() {
                inverse[row as usize] = position as u32 + 1;
            }
            inverse
        });
        DenseProbe { key, inverse }
    }

    #[inline]
    fn find(&self, value: i32) -> Option<Oid> {
        let row = self.key.row(value)?;
        match &self.inverse {
            Some(inverse) => inverse[row].checked_sub(1),
            None => Some(row as Oid),
        }
    }

    /// The `(value row, list position)` pairs of `values`, in value order.
    pub fn join(&self, values: &[i32]) -> (Vec<Oid>, Vec<Oid>) {
        let pairs = kept_count(values.len(), |row| self.find(values[row]).is_some());
        let (mut rows, mut positions) = (Kept::with_capacity(pairs), Kept::with_capacity(pairs));
        for (row, &value) in values.iter().enumerate() {
            let position = self.find(value);
            rows.keep(row as Oid, position.is_some());
            positions.keep(position.unwrap_or(0), position.is_some());
        }
        (rows.finish(), positions.finish())
    }

    /// The rows of `values` whose value names a listed row (`keep_found`)
    /// or does not.
    pub fn semi(&self, values: &[i32], keep_found: bool) -> Vec<Oid> {
        let keeps = |row: usize| self.find(values[row]).is_some() == keep_found;
        kept_positions((0..values.len()).map(keeps), kept_count(values.len(), keeps))
    }
}

/// Flags the rows of a dense key that some value names.
pub fn dense_flags(values: &[i32], key: DenseKey) -> Vec<bool> {
    let mut flags = vec![false; key.rows];
    for row in values.iter().filter_map(|value| key.row(*value)) {
        flags[row] = true;
    }
    flags
}

/// The positions in `listed` (in `flags`, when every row is listed) whose
/// row is flagged (`keep_found`) or is not.
pub fn flagged_positions(flags: &[bool], listed: Option<&[Oid]>, keep_found: bool) -> Vec<Oid> {
    let flagged = |position: usize| match listed {
        Some(listed) => flags[listed[position] as usize],
        None => flags[position],
    };
    let positions = listed.map_or(flags.len(), <[Oid]>::len);
    let keeps = |position| flagged(position) == keep_found;
    kept_positions((0..positions).map(keeps), kept_count(positions, keeps))
}

/// PK-FK join against a dense key: for every value that names one of the
/// `listed` rows (listed rows are distinct), `(value row, list position)`,
/// in value order — the pairs [`pkfk_join_i32`] returns against the listed
/// rows' keys, with no table.
pub fn dense_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
) -> (Vec<Oid>, Vec<Oid>) {
    DenseProbe::new(listed, key).join(values)
}

/// Semi (`keep_found`) or anti join of `values` against the `listed` rows
/// of a dense key: the value rows kept, ascending.
pub fn dense_semi_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
    keep_found: bool,
) -> Vec<Oid> {
    DenseProbe::new(listed, key).semi(values, keep_found)
}

/// Semi (`keep_found`) or anti join whose *left* side is the dense key: the
/// positions of the `listed` rows (the rows, when `None`) that some value
/// names — or that none does — ascending.
pub fn dense_listed_semi_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
    keep_found: bool,
) -> Vec<Oid> {
    flagged_positions(&dense_flags(values, key), listed, keep_found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkfk_join_aligns_with_foreign_keys() {
        let pk = vec![10, 20, 30];
        let table = MonetHashTable::build(&pk);
        let fk = vec![30, 10, 10, 99, 20];
        let (fk_oids, pk_oids) = pkfk_join_i32(&fk, &table);
        assert_eq!(fk_oids, vec![0, 1, 2, 4]);
        assert_eq!(pk_oids, vec![2, 0, 0, 1]);
    }

    #[test]
    fn semi_and_anti_join_partition_the_input() {
        let left = vec![1, 2, 3, 4, 5];
        let right = vec![2, 4, 6];
        let semi = semi_join_i32(&left, &right);
        let anti = anti_join_i32(&left, &right);
        assert_eq!(semi, vec![1, 3]);
        assert_eq!(anti, vec![0, 2, 4]);
        assert_eq!(semi.len() + anti.len(), left.len());
    }

    #[test]
    fn dense_joins_equal_the_hash_joins_over_the_listed_keys() {
        let key = DenseKey { base: -3, rows: 8 };
        let table_keys: Vec<i32> = (-3..5).collect();
        let values = vec![4, -3, 9, 0, 0, -4, 2, i32::MIN];
        for listed in [None, Some(vec![]), Some(vec![6, 0, 3, 7])] {
            let keys: Vec<i32> = match &listed {
                Some(rows) => rows.iter().map(|row| table_keys[*row as usize]).collect(),
                None => table_keys.clone(),
            };
            let listed = listed.as_deref();
            let expected = pkfk_join_i32(&values, &MonetHashTable::build(&keys));
            assert_eq!(dense_join_i32(&values, listed, key), expected);
            assert_eq!(
                dense_semi_join_i32(&values, listed, key, true),
                semi_join_i32(&values, &keys)
            );
            assert_eq!(
                dense_semi_join_i32(&values, listed, key, false),
                anti_join_i32(&values, &keys)
            );
            let listed_semi = dense_listed_semi_join_i32(&values, listed, key, true);
            assert_eq!(listed_semi, semi_join_i32(&keys, &values));
            let listed_anti = dense_listed_semi_join_i32(&values, listed, key, false);
            assert_eq!(listed_anti, anti_join_i32(&keys, &values));
        }
    }

    #[test]
    fn joins_with_empty_inputs() {
        let (l, r) = pkfk_join_i32(&[], &MonetHashTable::build(&[1, 2]));
        assert!(l.is_empty() && r.is_empty());
        let (l, r) = pkfk_join_i32(&[1, 2], &MonetHashTable::build(&[]));
        assert!(l.is_empty() && r.is_empty());
        assert!(semi_join_i32(&[1], &[]).is_empty());
        assert_eq!(anti_join_i32(&[1], &[]), vec![0]);
    }
}
