//! The pair shape: a join's probe side is partitioned, each partition runs
//! the sequential join over its slice, and the per-partition pair lists
//! are concatenated. Whatever the probe consults — a hash table, a dense
//! key's inverse map — is built once, before the partitions run.

use super::partition::{concat, offset, run_partitions};
use ocelot_storage::Oid;

/// Pair output: `join(start, end)` joins probe rows `start..end` and returns
/// `(probe OIDs relative to start, build OIDs)`; the probe OIDs become row
/// ids.
pub fn join_pairs(
    rows: usize,
    threads: usize,
    join: impl Fn(usize, usize) -> (Vec<Oid>, Vec<Oid>) + Sync,
) -> (Vec<Oid>, Vec<Oid>) {
    let (probe, build): (Vec<_>, Vec<_>) = run_partitions(rows, threads, |start, end| {
        let (mut probe, build) = join(start, end);
        offset(&mut probe, start);
        (probe, build)
    })
    .into_iter()
    .unzip();
    (concat(probe), concat(build))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::select_rows;
    use crate::sequential::{self, DenseProbe};
    use crate::MonetHashTable;
    use ocelot_storage::DenseKey;

    fn keys(n: usize, modulus: i32) -> Vec<i32> {
        (0..n).map(|i| ((i as i32) * 17 + 3) % modulus).collect()
    }

    /// [`join_pairs`] over `join` equals `join` over all the rows.
    fn check_pairs(rows: usize, join: impl Fn(usize, usize) -> (Vec<Oid>, Vec<Oid>) + Sync) {
        for threads in [1, 2, 3, 4] {
            assert_eq!(join_pairs(rows, threads, &join), join(0, rows), "threads={threads}");
        }
    }

    #[test]
    fn pkfk_join_matches_sequential() {
        let pk: Vec<i32> = (0..200).collect();
        let table = MonetHashTable::build(&pk);
        let fk = keys(5_000, 200);
        check_pairs(fk.len(), |s, e| sequential::pkfk_join_i32(&fk[s..e], &table));
    }

    #[test]
    fn semi_and_anti_match_sequential() {
        let (left, right) = (keys(4_000, 300), keys(100, 150));
        let table = MonetHashTable::build(&right);
        for (keep, whole) in [
            (true, sequential::semi_join_i32(&left, &right)),
            (false, sequential::anti_join_i32(&left, &right)),
        ] {
            let got = select_rows(left.len(), 4, |s, e| {
                sequential::semi_join_table_i32(&left[s..e], &table, keep)
            });
            assert_eq!(got, whole);
        }
    }

    #[test]
    fn dense_joins_match_sequential() {
        let key = DenseKey { base: 7, rows: 300 };
        let values = keys(4_000, 400);
        let listed: Vec<Oid> = (0..300).rev().step_by(3).collect();
        for listed in [None, Some(&listed[..])] {
            let probe = DenseProbe::new(listed, key);
            let joined = join_pairs(values.len(), 3, |s, e| probe.join(&values[s..e]));
            assert_eq!(joined, sequential::dense_join_i32(&values, listed, key));
            for keep in [true, false] {
                let kept = select_rows(values.len(), 3, |s, e| probe.semi(&values[s..e], keep));
                assert_eq!(kept, sequential::dense_semi_join_i32(&values, listed, key, keep));
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let (probe, build) = join_pairs(0, 4, |_, _| unreachable!());
        assert!(probe.is_empty() && build.is_empty());
    }
}
