//! Parallel sorting: partitions are sorted independently in parallel and the
//! sorted runs are merged — the quick/merge-sort combination MonetDB uses,
//! parallelised with the mitosis pattern.

use super::partition::run_partitions;
use ocelot_storage::Oid;
use std::cmp::Ordering;

/// Merges sorted runs pairwise. A tie takes the earlier run's row: the runs
/// cover increasing row ranges, so equal keys keep input order.
fn merge_runs(mut runs: Vec<Vec<Oid>>, cmp: &impl Fn(Oid, Oid) -> Ordering) -> Vec<Oid> {
    while runs.len() > 1 {
        let mut next_round = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                None => next_round.push(a),
                Some(b) => {
                    let mut out = Vec::with_capacity(a.len() + b.len());
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() && j < b.len() {
                        if cmp(a[i], b[j]) != Ordering::Greater {
                            out.push(a[i]);
                            i += 1;
                        } else {
                            out.push(b[j]);
                            j += 1;
                        }
                    }
                    out.extend_from_slice(&a[i..]);
                    out.extend_from_slice(&b[j..]);
                    next_round.push(out);
                }
            }
        }
        runs = next_round;
    }
    runs.pop().unwrap_or_default()
}

/// Sorts `column` stably under `cmp`: every partition sorted stably on its
/// own thread, the runs merged. Returns `(sorted_values, order)`.
fn par_sort_by<T: Copy + Sync>(
    column: &[T],
    threads: usize,
    cmp: impl Fn(&T, &T) -> Ordering + Sync,
) -> (Vec<T>, Vec<Oid>) {
    let cmp = |a: Oid, b: Oid| cmp(&column[a as usize], &column[b as usize]);
    let runs = run_partitions(column.len(), threads, |start, end| {
        let mut order: Vec<Oid> = (start as u32..end as u32).collect();
        order.sort_by(|&a, &b| cmp(a, b));
        order
    });
    let order = merge_runs(runs, &cmp);
    (order.iter().map(|&oid| column[oid as usize]).collect(), order)
}

/// Parallel ascending sort of an integer column. Returns
/// `(sorted_values, order)` like the sequential variant, stable like it.
pub fn par_sort_i32(column: &[i32], threads: usize) -> (Vec<i32>, Vec<Oid>) {
    par_sort_by(column, threads, i32::cmp)
}

/// Parallel descending sort of an integer column (stable: equal keys keep
/// input order, as in the sequential variant).
pub fn par_sort_i32_desc(column: &[i32], threads: usize) -> (Vec<i32>, Vec<Oid>) {
    par_sort_by(column, threads, |a, b| b.cmp(a))
}

/// Parallel ascending sort of a float column (IEEE total order, stable).
pub fn par_sort_f32(column: &[f32], threads: usize) -> (Vec<f32>, Vec<Oid>) {
    par_sort_by(column, threads, f32::total_cmp)
}

/// Parallel descending sort of a float column (IEEE total order, stable).
pub fn par_sort_f32_desc(column: &[f32], threads: usize) -> (Vec<f32>, Vec<Oid>) {
    par_sort_by(column, threads, |a, b| b.total_cmp(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    #[test]
    fn matches_sequential_values() {
        let column: Vec<i32> = (0..10_000).map(|i| ((i * 73 + 19) % 4001) - 2000).collect();
        let (seq_sorted, _) = sequential::sort_i32(&column);
        for threads in [1, 2, 4, 5] {
            let (par_sorted, par_order) = par_sort_i32(&column, threads);
            assert_eq!(par_sorted, seq_sorted, "threads={threads}");
            // The order column is a valid permutation producing the sorted output.
            let mut check: Vec<bool> = vec![false; column.len()];
            for (pos, oid) in par_order.iter().enumerate() {
                assert_eq!(column[*oid as usize], par_sorted[pos]);
                assert!(!check[*oid as usize], "oid {oid} repeated");
                check[*oid as usize] = true;
            }
        }
    }

    #[test]
    fn float_sort_matches_sequential() {
        let column: Vec<f32> =
            (0..5_000).map(|i| ((i * 31 + 7) % 999) as f32 * 0.25 - 50.0).collect();
        let (seq_sorted, _) = sequential::sort_f32(&column);
        let (par_sorted, _) = par_sort_f32(&column, 4);
        assert_eq!(par_sorted, seq_sorted);
    }

    #[test]
    fn both_directions_are_stable_and_order_floats_totally() {
        let ints = [3, 1, 3, 2, 1, 3];
        let floats = [0.0f32, -0.0, f32::NAN, 1.0, -f32::NAN, 0.0, f32::INFINITY, -0.0, 1.0];
        for threads in [1, 2, 4] {
            assert_eq!(par_sort_i32_desc(&ints, threads).1, vec![0, 2, 5, 3, 1, 4]);
            assert_eq!(par_sort_i32(&ints, threads).1, sequential::sort_i32(&ints).1);
            assert_eq!(par_sort_f32(&floats, threads).1, sequential::sort_f32(&floats).1);
            assert_eq!(par_sort_f32_desc(&floats, threads).1, sequential::sort_f32_desc(&floats).1);
        }
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let asc: Vec<i32> = (0..1000).collect();
        let desc: Vec<i32> = (0..1000).rev().collect();
        assert_eq!(par_sort_i32(&asc, 4).0, asc);
        assert_eq!(par_sort_i32(&desc, 4).0, asc);
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(par_sort_i32(&[], 4), (vec![], vec![]));
        assert_eq!(par_sort_i32(&[3], 4), (vec![3], vec![0]));
        assert_eq!(par_sort_i32(&[2, 1], 4).0, vec![1, 2]);
    }
}
