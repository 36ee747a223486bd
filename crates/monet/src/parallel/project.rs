//! Parallel fetch join: the OID list is partitioned; each thread fetches its
//! slice into its own range of the one output vector.

use super::partition::collect_partitions;
use ocelot_storage::Oid;

/// `column[oid]` for every OID, partition by partition.
fn par_fetch<T: Copy + Send + Sync>(column: &[T], oids: &[Oid], threads: usize) -> Vec<T> {
    collect_partitions(oids.len(), threads, |start, end| {
        oids[start..end].iter().map(|&oid| column[oid as usize])
    })
}

/// Parallel fetch of an integer column.
pub fn par_fetch_i32(column: &[i32], oids: &[Oid], threads: usize) -> Vec<i32> {
    par_fetch(column, oids, threads)
}

/// Parallel fetch of a float column.
pub fn par_fetch_f32(column: &[f32], oids: &[Oid], threads: usize) -> Vec<f32> {
    par_fetch(column, oids, threads)
}

/// Parallel fetch of an OID column.
pub fn par_fetch_oid(column: &[Oid], oids: &[Oid], threads: usize) -> Vec<Oid> {
    par_fetch(column, oids, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    #[test]
    fn matches_sequential_fetch() {
        let column: Vec<i32> = (0..10_000).map(|i| i * 3).collect();
        let oids: Vec<Oid> = (0..5_000).map(|i| ((i * 7) % 10_000) as Oid).collect();
        for threads in [1, 3, 8] {
            assert_eq!(
                par_fetch_i32(&column, &oids, threads),
                sequential::fetch_i32(&column, &oids)
            );
        }
    }

    #[test]
    fn float_and_oid_variants() {
        let reals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        let oids: Vec<Oid> = vec![999, 0, 500];
        assert_eq!(par_fetch_f32(&reals, &oids, 2), vec![249.75, 0.0, 125.0]);
        let col: Vec<Oid> = (0..100).rev().collect();
        assert_eq!(par_fetch_oid(&col, &[0, 99], 2), vec![99, 0]);
    }

    #[test]
    fn empty_oids() {
        assert!(par_fetch_i32(&[1, 2, 3], &[], 4).is_empty());
    }
}
