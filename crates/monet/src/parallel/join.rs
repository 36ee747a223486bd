//! Parallel joins: the hash table is built once (sequentially, like
//! MonetDB), the probe side is partitioned across threads. The positional
//! joins on a dense key build their inverse map or row flags the same way
//! and probe the same way.

use super::partition::{concat, run_partitions};
use crate::hash_table::MonetHashTable;
use crate::sequential::join::{dense_flags, flagged_positions, DenseProbe};
use ocelot_storage::{DenseKey, Oid};

/// Concatenates per-partition pair lists into one pair of lists.
fn concat_pairs(parts: Vec<(Vec<Oid>, Vec<Oid>)>) -> (Vec<Oid>, Vec<Oid>) {
    let (left, right): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    (concat(left), concat(right))
}

/// Parallel hash equi-join (build over `right`, parallel probe over `left`).
pub fn par_hash_join_i32(left: &[i32], right: &[i32], threads: usize) -> (Vec<Oid>, Vec<Oid>) {
    let table = MonetHashTable::build(right);
    let parts = run_partitions(left.len(), threads, |start, end| {
        let mut left_out = Vec::new();
        let mut right_out = Vec::new();
        for (offset, key) in left[start..end].iter().enumerate() {
            for right_row in table.probe(*key) {
                left_out.push((start + offset) as Oid);
                right_out.push(right_row);
            }
        }
        (left_out, right_out)
    });
    concat_pairs(parts)
}

/// Parallel PK-FK join through a prebuilt hash table.
pub fn par_pkfk_join_i32(
    foreign_keys: &[i32],
    table: &MonetHashTable,
    threads: usize,
) -> (Vec<Oid>, Vec<Oid>) {
    let parts = run_partitions(foreign_keys.len(), threads, |start, end| {
        let mut fk_oids = Vec::new();
        let mut pk_oids = Vec::new();
        for (offset, key) in foreign_keys[start..end].iter().enumerate() {
            if let Some(pk_row) = table.find_first(*key) {
                fk_oids.push((start + offset) as Oid);
                pk_oids.push(pk_row);
            }
        }
        (fk_oids, pk_oids)
    });
    concat_pairs(parts)
}

/// Parallel semi join (`EXISTS`).
pub fn par_semi_join_i32(left: &[i32], right: &[i32], threads: usize) -> Vec<Oid> {
    let table = MonetHashTable::build(right);
    concat(run_partitions(left.len(), threads, |start, end| {
        left[start..end]
            .iter()
            .enumerate()
            .filter(|(_, key)| table.contains(**key))
            .map(|(offset, _)| (start + offset) as Oid)
            .collect::<Vec<Oid>>()
    }))
}

/// Parallel anti join (`NOT EXISTS`).
pub fn par_anti_join_i32(left: &[i32], right: &[i32], threads: usize) -> Vec<Oid> {
    let table = MonetHashTable::build(right);
    concat(run_partitions(left.len(), threads, |start, end| {
        left[start..end]
            .iter()
            .enumerate()
            .filter(|(_, key)| !table.contains(**key))
            .map(|(offset, _)| (start + offset) as Oid)
            .collect::<Vec<Oid>>()
    }))
}

/// Parallel [`crate::sequential::dense_join_i32`].
pub fn par_dense_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
    threads: usize,
) -> (Vec<Oid>, Vec<Oid>) {
    let probe = DenseProbe::new(listed, key);
    concat_pairs(run_partitions(values.len(), threads, |start, end| {
        probe.join(&values[start..end], start)
    }))
}

/// Parallel [`crate::sequential::dense_semi_join_i32`].
pub fn par_dense_semi_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
    keep_found: bool,
    threads: usize,
) -> Vec<Oid> {
    let probe = DenseProbe::new(listed, key);
    concat(run_partitions(values.len(), threads, |start, end| {
        probe.semi(&values[start..end], start, keep_found)
    }))
}

/// Parallel [`crate::sequential::dense_listed_semi_join_i32`].
pub fn par_dense_listed_semi_join_i32(
    values: &[i32],
    listed: Option<&[Oid]>,
    key: DenseKey,
    keep_found: bool,
    threads: usize,
) -> Vec<Oid> {
    let flags = dense_flags(values, key);
    let positions = listed.map_or(key.rows, <[Oid]>::len);
    concat(run_partitions(positions, threads, |start, end| {
        flagged_positions(&flags, listed, start, end, keep_found)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    fn keys(n: usize, modulus: i32) -> Vec<i32> {
        (0..n).map(|i| ((i as i32) * 17 + 3) % modulus).collect()
    }

    #[test]
    fn hash_join_matches_sequential() {
        let left = keys(3_000, 100);
        let right = keys(500, 100);
        let (seq_l, seq_r) = sequential::hash_join_i32(&left, &right);
        for threads in [1, 2, 4] {
            let (par_l, par_r) = par_hash_join_i32(&left, &right, threads);
            let mut seq_pairs: Vec<(Oid, Oid)> =
                seq_l.iter().copied().zip(seq_r.iter().copied()).collect();
            let mut par_pairs: Vec<(Oid, Oid)> = par_l.into_iter().zip(par_r).collect();
            seq_pairs.sort_unstable();
            par_pairs.sort_unstable();
            assert_eq!(seq_pairs, par_pairs);
        }
    }

    #[test]
    fn pkfk_join_matches_sequential() {
        let pk: Vec<i32> = (0..200).collect();
        let table = MonetHashTable::build(&pk);
        let fk = keys(5_000, 200);
        let (seq_f, seq_p) = sequential::pkfk_join_i32(&fk, &table);
        let (par_f, par_p) = par_pkfk_join_i32(&fk, &table, 4);
        assert_eq!(seq_f, par_f);
        assert_eq!(seq_p, par_p);
    }

    #[test]
    fn semi_and_anti_match_sequential() {
        let left = keys(4_000, 300);
        let right = keys(100, 150);
        assert_eq!(par_semi_join_i32(&left, &right, 4), sequential::semi_join_i32(&left, &right));
        assert_eq!(par_anti_join_i32(&left, &right, 4), sequential::anti_join_i32(&left, &right));
    }

    #[test]
    fn dense_joins_match_sequential() {
        let key = DenseKey { base: 7, rows: 300 };
        let values = keys(4_000, 400);
        let listed: Vec<Oid> = (0..300).rev().step_by(3).collect();
        for listed in [None, Some(&listed[..])] {
            for threads in [1, 3] {
                let joined = par_dense_join_i32(&values, listed, key, threads);
                assert_eq!(joined, sequential::dense_join_i32(&values, listed, key));
                for keep in [true, false] {
                    assert_eq!(
                        par_dense_semi_join_i32(&values, listed, key, keep, threads),
                        sequential::dense_semi_join_i32(&values, listed, key, keep)
                    );
                    assert_eq!(
                        par_dense_listed_semi_join_i32(&values, listed, key, keep, threads),
                        sequential::dense_listed_semi_join_i32(&values, listed, key, keep)
                    );
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let (l, r) = par_hash_join_i32(&[], &[1], 4);
        assert!(l.is_empty() && r.is_empty());
        assert!(par_semi_join_i32(&[], &[1], 4).is_empty());
    }
}
