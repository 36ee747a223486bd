//! The mitosis partitioning helper: split a row range into per-core slices,
//! run a worker per slice on scoped threads, and collect the partial results
//! in partition order.
//!
//! The merge copies nothing it does not have to. A single partition's
//! output always moves through untouched, so one thread is one call of the
//! worker over the whole input. Several partitions of a length-preserving
//! output write their own ranges of one vector (`fill_partitions`); a
//! variable-length output (a selection, a join) is one list per partition,
//! which [`concat()`] copies once into an exact-capacity vector.

use crate::slots::{filled, split_at_ranges, Slots};
use ocelot_storage::Oid;

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges of nearly
/// equal size.
pub fn partition_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let chunk = n.div_ceil(parts);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Runs `worker(start, end)` for every partition of `0..n` on up to
/// `threads` scoped threads and returns the results in partition order.
///
/// Partition order is what makes merging trivial: concatenating per-partition
/// OID lists yields a globally sorted candidate list, because partitions
/// cover disjoint, increasing row ranges.
pub fn run_partitions<R, F>(n: usize, threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    run_each(partition_ranges(n, threads.max(1)), |(start, end)| worker(start, end))
}

/// Builds an `n`-element output in one allocation: every partition's
/// `worker(start, end, slots)` writes rows `start..end` straight into its
/// own range of the vector, so the merge copies nothing. Returns the vector
/// and the workers' results in partition order.
pub(crate) fn fill_partitions<T, R, F>(n: usize, threads: usize, worker: F) -> (Vec<T>, Vec<R>)
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, &mut Slots<'_, T>) -> R + Sync,
{
    filled(n, |slots| {
        slots.split_fill(&partition_ranges(n, threads.max(1)), |pieces| {
            run_each(pieces, |(start, end, mut piece)| (worker(start, end, &mut piece), piece))
        })
    })
}

/// Runs `worker(start, values)` on every partition's range of `values`, in
/// place: `values` is split at the partitions of `0..values.len()` that
/// [`partition_ranges`] gives for `threads`.
pub(crate) fn update_partitions<T, F>(values: &mut [T], threads: usize, worker: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let ranges = partition_ranges(values.len(), threads.max(1));
    let pieces: Vec<_> = ranges.iter().zip(split_at_ranges(values, &ranges)).collect();
    run_each(pieces, |(&(start, _), piece)| worker(start, piece));
}

/// Concatenates per-partition lists in partition order. A single partition's
/// list moves through untouched; several are copied once into a vector of
/// exactly their total length.
pub fn concat<T: Copy>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in &parts {
        all.extend_from_slice(part);
    }
    all
}

/// Turns OIDs relative to a partition that starts at row `start` into row
/// ids.
pub(crate) fn offset(oids: &mut [Oid], start: usize) {
    if start > 0 {
        oids.iter_mut().for_each(|oid| *oid += start as Oid);
    }
}

/// Runs `worker` on every item, each on its own scoped thread (a single
/// item inline), and returns the results in item order. A worker's panic
/// is re-raised on the caller's thread with its own payload.
fn run_each<I, R, F>(items: Vec<I>, worker: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(worker).collect();
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> =
            items.into_iter().map(|item| scope.spawn(move || worker(item))).collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::collect_partitions;

    #[test]
    fn ranges_cover_input_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = partition_ranges(n, parts);
                let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                // Ranges are contiguous and ordered.
                let mut expected_start = 0;
                for (s, e) in &ranges {
                    assert_eq!(*s, expected_start);
                    assert!(e > s);
                    expected_start = *e;
                }
            }
        }
    }

    #[test]
    fn no_more_parts_than_rows() {
        assert_eq!(partition_ranges(3, 8).len(), 3);
        assert!(partition_ranges(0, 8).is_empty());
        assert!(partition_ranges(8, 0).is_empty());
    }

    #[test]
    fn run_partitions_returns_in_order() {
        let results = run_partitions(100, 4, |start, end| (start, end));
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].0, 0);
        assert_eq!(results.last().unwrap().1, 100);
        for window in results.windows(2) {
            assert_eq!(window[0].1, window[1].0);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let results = run_partitions(10, 1, |start, end| end - start);
        assert_eq!(results, vec![10]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_worker_panic_keeps_its_message() {
        run_partitions(100, 4, |start, _| {
            if start > 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn fill_partitions_writes_one_vector_in_partition_order() {
        for threads in [1, 2, 3, 7] {
            let (values, starts) = fill_partitions(10, threads, |start, end, slots| {
                slots.extend((start..end).map(|row| row as u32 * 10));
                start
            });
            assert_eq!(values, (0..10).map(|row| row * 10).collect::<Vec<u32>>());
            assert_eq!(
                starts,
                partition_ranges(10, threads).iter().map(|r| r.0).collect::<Vec<_>>()
            );
            let doubled =
                collect_partitions(10, threads, |start, end| (start..end).map(|i| 2 * i).collect());
            assert_eq!(doubled, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
        }
        assert!(collect_partitions(0, 4, |start, end| (start..end).collect::<Vec<_>>()).is_empty());
    }

    #[test]
    #[should_panic(expected = "unwritten")]
    fn a_partition_that_writes_too_little_panics() {
        collect_partitions(10, 2, |start, end| (start..end - 1).collect());
    }

    #[test]
    fn concat_moves_a_single_part_and_joins_several() {
        let single = vec![3u32, 1, 2];
        let address = single.as_ptr();
        let moved = concat(vec![single]);
        assert_eq!(moved.as_ptr(), address);
        let joined = concat(vec![vec![1u32, 2], vec![], vec![3]]);
        assert_eq!((joined.len(), joined.capacity()), (3, 3));
        assert_eq!(joined, vec![1, 2, 3]);
        assert!(concat::<u32>(vec![]).is_empty());
    }

    #[test]
    fn empty_input_yields_no_partitions() {
        let results: Vec<usize> = run_partitions(0, 4, |_, _| unreachable!());
        assert!(results.is_empty());
    }
}
