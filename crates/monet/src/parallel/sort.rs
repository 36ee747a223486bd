//! Parallel sorting: every partition is sorted by the sequential sort and
//! the sorted runs are merged — the quick/merge-sort combination MonetDB
//! uses, parallelised with the mitosis pattern.

use super::partition::{offset, run_partitions};
use ocelot_storage::Oid;
use std::cmp::Ordering;

/// Sorts `column` stably: `sort` (a sequential sort returning
/// `(sorted_values, order)`) sorts every partition, and the runs are merged
/// under `cmp`, the order `sort` sorts by. Returns the order; one partition
/// is `sort`'s own.
pub fn sort_runs<T: Copy + Send + Sync>(
    column: &[T],
    threads: usize,
    sort: impl Fn(&[T]) -> (Vec<T>, Vec<Oid>) + Sync,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<Oid> {
    let runs = run_partitions(column.len(), threads, |start, end| {
        let (values, mut order) = sort(&column[start..end]);
        offset(&mut order, start);
        (values, order)
    });
    merge_runs(runs, &cmp).1
}

/// Merges sorted runs pairwise. A tie takes the earlier run's row: the runs
/// cover increasing row ranges, so equal keys keep input order.
fn merge_runs<T: Copy>(
    mut runs: Vec<(Vec<T>, Vec<Oid>)>,
    cmp: &impl Fn(&T, &T) -> Ordering,
) -> (Vec<T>, Vec<Oid>) {
    while runs.len() > 1 {
        let mut next_round = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            next_round.push(match iter.next() {
                None => a,
                Some(b) => merge_two(a, b, cmp),
            });
        }
        runs = next_round;
    }
    runs.pop().unwrap_or_default()
}

/// Merges two sorted runs, `a`'s rows first among equal keys.
fn merge_two<T: Copy>(
    (a_values, a_order): (Vec<T>, Vec<Oid>),
    (b_values, b_order): (Vec<T>, Vec<Oid>),
    cmp: &impl Fn(&T, &T) -> Ordering,
) -> (Vec<T>, Vec<Oid>) {
    let len = a_values.len() + b_values.len();
    let (mut values, mut order) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let (mut i, mut j) = (0, 0);
    while i < a_values.len() && j < b_values.len() {
        if cmp(&a_values[i], &b_values[j]) != Ordering::Greater {
            values.push(a_values[i]);
            order.push(a_order[i]);
            i += 1;
        } else {
            values.push(b_values[j]);
            order.push(b_order[j]);
            j += 1;
        }
    }
    values.extend_from_slice(&a_values[i..]);
    values.extend_from_slice(&b_values[j..]);
    order.extend_from_slice(&a_order[i..]);
    order.extend_from_slice(&b_order[j..]);
    (values, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    fn sort_i32(column: &[i32], threads: usize) -> Vec<Oid> {
        sort_runs(column, threads, sequential::sort_i32, i32::cmp)
    }

    #[test]
    fn matches_sequential_values() {
        let column: Vec<i32> = (0..10_000).map(|i| ((i * 73 + 19) % 4001) - 2000).collect();
        let (seq_sorted, seq_order) = sequential::sort_i32(&column);
        for threads in [1, 2, 4, 5] {
            let order = sort_i32(&column, threads);
            assert_eq!(order, seq_order, "threads={threads}");
            let sorted: Vec<i32> = order.iter().map(|&oid| column[oid as usize]).collect();
            assert_eq!(sorted, seq_sorted, "threads={threads}");
        }
    }

    #[test]
    fn float_sort_matches_sequential() {
        let column: Vec<f32> =
            (0..5_000).map(|i| ((i * 31 + 7) % 999) as f32 * 0.25 - 50.0).collect();
        let order = sort_runs(&column, 4, sequential::sort_f32, f32::total_cmp);
        assert_eq!(order, sequential::sort_f32(&column).1);
    }

    #[test]
    fn both_directions_are_stable_and_order_floats_totally() {
        let ints = [3, 1, 3, 2, 1, 3];
        let floats = [0.0f32, -0.0, f32::NAN, 1.0, -f32::NAN, 0.0, f32::INFINITY, -0.0, 1.0];
        for threads in [1, 2, 4] {
            let desc = sort_runs(&ints, threads, sequential::sort_i32_desc, |a, b| b.cmp(a));
            assert_eq!(desc, vec![0, 2, 5, 3, 1, 4]);
            assert_eq!(sort_i32(&ints, threads), sequential::sort_i32(&ints).1);
            let asc = sort_runs(&floats, threads, sequential::sort_f32, f32::total_cmp);
            assert_eq!(asc, sequential::sort_f32(&floats).1);
            let desc =
                sort_runs(&floats, threads, sequential::sort_f32_desc, |a, b| b.total_cmp(a));
            assert_eq!(desc, sequential::sort_f32_desc(&floats).1);
        }
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let asc: Vec<i32> = (0..1000).collect();
        let desc: Vec<i32> = (0..1000).rev().collect();
        let ids: Vec<Oid> = (0..1000).collect();
        assert_eq!(sort_i32(&asc, 4), ids);
        assert_eq!(sort_i32(&desc, 4), ids.iter().rev().copied().collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny() {
        assert!(sort_i32(&[], 4).is_empty());
        assert_eq!(sort_i32(&[3], 4), vec![0]);
        assert_eq!(sort_i32(&[2, 1], 4), vec![1, 0]);
    }
}
