//! The length-preserving shape — a fetch's, an arithmetic map's: each
//! partition runs the sequential operator over its slice, and the outputs
//! make up one vector.

use super::partition::{fill_partitions, partition_ranges};

/// Length-preserving output: `values(start, end)` yields the output rows
/// `start..end`. A single partition's vector is the output; several copy
/// theirs into their own ranges of one vector.
pub fn collect_partitions<T, F>(n: usize, threads: usize, values: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> Vec<T> + Sync,
{
    if partition_ranges(n, threads.max(1)).len() <= 1 {
        return values(0, n);
    }
    fill_partitions(n, threads, |start, end, slots| slots.extend(values(start, end))).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use ocelot_storage::Oid;

    #[test]
    fn matches_sequential_fetch() {
        let column: Vec<i32> = (0..10_000).map(|i| i * 3).collect();
        let oids: Vec<Oid> = (0..5_000).map(|i| ((i * 7) % 10_000) as Oid).collect();
        for threads in [1, 3, 8] {
            let fetched = collect_partitions(oids.len(), threads, |start, end| {
                sequential::fetch_i32(&column, &oids[start..end])
            });
            assert_eq!(fetched, sequential::fetch_i32(&column, &oids), "threads={threads}");
        }
    }

    #[test]
    fn float_and_oid_variants() {
        let reals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        let oids: Vec<Oid> = vec![999, 0, 500];
        let fetched =
            collect_partitions(3, 2, |start, end| sequential::fetch_f32(&reals, &oids[start..end]));
        assert_eq!(fetched, vec![249.75, 0.0, 125.0]);
        let col: Vec<Oid> = (0..100).rev().collect();
        let fetched = collect_partitions(2, 2, |start, end| {
            sequential::fetch_oid(&col, &[0, 99][start..end])
        });
        assert_eq!(fetched, vec![99, 0]);
    }

    #[test]
    fn empty_oids() {
        let fetched = collect_partitions(0, 4, |start, end| {
            sequential::fetch_i32(&[1, 2, 3], &Vec::<Oid>::new()[start..end])
        });
        assert!(fetched.is_empty());
    }
}
