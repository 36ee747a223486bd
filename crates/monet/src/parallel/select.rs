//! Parallel selection: each partition runs the sequential selection over
//! its slice (of the column, or of the candidate list), and the
//! per-partition candidate lists are concatenated — they are disjoint and
//! ordered, and a single partition's list moves through as is.

use super::partition::{concat, run_partitions};
use crate::sequential;
use ocelot_storage::{CmpOp, Oid};

/// Runs `select` over every partition's rows `start..end` of a column and
/// shifts the partition-relative OIDs it returns back to row ids.
fn select_partitions(
    rows: usize,
    threads: usize,
    select: impl Fn(usize, usize) -> Vec<Oid> + Sync,
) -> Vec<Oid> {
    concat(run_partitions(rows, threads, |start, end| {
        let mut local = select(start, end);
        if start > 0 {
            local.iter_mut().for_each(|oid| *oid += start as Oid);
        }
        local
    }))
}

/// Runs `select` over every partition of a candidate list (its OIDs are row
/// ids already).
fn select_candidates(
    candidates: &[Oid],
    threads: usize,
    select: impl Fn(&[Oid]) -> Vec<Oid> + Sync,
) -> Vec<Oid> {
    concat(run_partitions(candidates.len(), threads, |start, end| select(&candidates[start..end])))
}

/// Parallel inclusive range selection over an `i32` column.
pub fn par_select_range_i32(column: &[i32], low: i32, high: i32, threads: usize) -> Vec<Oid> {
    select_partitions(column.len(), threads, |start, end| {
        sequential::select_range_i32(&column[start..end], low, high)
    })
}

/// Parallel inclusive range selection over an `f32` column.
pub fn par_select_range_f32(column: &[f32], low: f32, high: f32, threads: usize) -> Vec<Oid> {
    select_partitions(column.len(), threads, |start, end| {
        sequential::select_range_f32(&column[start..end], low, high)
    })
}

/// Parallel equality selection over an `i32` column.
pub fn par_select_eq_i32(column: &[i32], needle: i32, threads: usize) -> Vec<Oid> {
    select_partitions(column.len(), threads, |start, end| {
        sequential::select_eq_i32(&column[start..end], needle)
    })
}

/// Parallel range selection restricted to a candidate list. The candidate
/// list (not the column) is partitioned, so the work scales with the number
/// of surviving rows.
pub fn par_select_range_i32_cand(
    column: &[i32],
    candidates: &[Oid],
    low: i32,
    high: i32,
    threads: usize,
) -> Vec<Oid> {
    select_candidates(candidates, threads, |cands| {
        sequential::select_range_i32_cand(column, cands, low, high)
    })
}

/// Parallel float range selection restricted to a candidate list.
pub fn par_select_range_f32_cand(
    column: &[f32],
    candidates: &[Oid],
    low: f32,
    high: f32,
    threads: usize,
) -> Vec<Oid> {
    select_candidates(candidates, threads, |cands| {
        sequential::select_range_f32_cand(column, cands, low, high)
    })
}

/// Parallel equality selection restricted to a candidate list.
pub fn par_select_eq_i32_cand(
    column: &[i32],
    candidates: &[Oid],
    needle: i32,
    threads: usize,
) -> Vec<Oid> {
    select_candidates(candidates, threads, |cands| {
        sequential::select_eq_i32_cand(column, cands, needle)
    })
}

/// Parallel column-vs-column selection `left <op> right`.
pub fn par_select_cmp_i32(left: &[i32], right: &[i32], op: CmpOp, threads: usize) -> Vec<Oid> {
    select_partitions(left.len().min(right.len()), threads, |start, end| {
        sequential::select_cmp_i32(&left[start..end], &right[start..end], op)
    })
}

/// Parallel column-vs-column selection restricted to a candidate list.
pub fn par_select_cmp_i32_cand(
    left: &[i32],
    right: &[i32],
    candidates: &[Oid],
    op: CmpOp,
    threads: usize,
) -> Vec<Oid> {
    select_candidates(candidates, threads, |cands| {
        sequential::select_cmp_i32_cand(left, right, cands, op)
    })
}

/// Parallel membership selection `value IN (values…)`.
pub fn par_select_in_i32(column: &[i32], values: &[i32], threads: usize) -> Vec<Oid> {
    select_partitions(column.len(), threads, |start, end| {
        sequential::select_in_i32(&column[start..end], values)
    })
}

/// Parallel membership selection restricted to a candidate list.
pub fn par_select_in_i32_cand(
    column: &[i32],
    candidates: &[Oid],
    values: &[i32],
    threads: usize,
) -> Vec<Oid> {
    select_candidates(candidates, threads, |cands| {
        sequential::select_in_i32_cand(column, cands, values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    fn column(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i * 37 + 11) % 1000) as i32).collect()
    }

    #[test]
    fn matches_sequential_range_selection() {
        let col = column(10_000);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                par_select_range_i32(&col, 100, 300, threads),
                sequential::select_range_i32(&col, 100, 300),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn matches_sequential_eq_selection() {
        let col = column(5_000);
        assert_eq!(par_select_eq_i32(&col, 11, 4), sequential::select_eq_i32(&col, 11));
    }

    #[test]
    fn matches_sequential_float_selection() {
        let col: Vec<f32> = (0..5_000).map(|i| (i % 97) as f32 * 0.5).collect();
        assert_eq!(
            par_select_range_f32(&col, 10.0, 20.0, 4),
            sequential::select_range_f32(&col, 10.0, 20.0)
        );
    }

    #[test]
    fn candidate_variants_match_sequential() {
        let col = column(5_000);
        let cands = sequential::select_range_i32(&col, 0, 500);
        assert_eq!(
            par_select_range_i32_cand(&col, &cands, 100, 300, 4),
            sequential::select_range_i32_cand(&col, &cands, 100, 300)
        );
        assert_eq!(
            par_select_eq_i32_cand(&col, &cands, 11, 4),
            sequential::select_eq_i32_cand(&col, &cands, 11)
        );
        let reals: Vec<f32> = col.iter().map(|v| *v as f32).collect();
        assert_eq!(
            par_select_range_f32_cand(&reals, &cands, 100.0, 300.0, 4),
            sequential::select_range_f32_cand(&reals, &cands, 100.0, 300.0)
        );
    }

    #[test]
    fn comparison_and_membership_match_sequential() {
        let left = column(5_000);
        let right: Vec<i32> = left.iter().rev().copied().collect();
        let cands = sequential::select_range_i32(&left, 0, 500);
        for threads in [1, 3, 4] {
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
                assert_eq!(
                    par_select_cmp_i32(&left, &right, op, threads),
                    sequential::select_cmp_i32(&left, &right, op)
                );
                assert_eq!(
                    par_select_cmp_i32_cand(&left, &right, &cands, op, threads),
                    sequential::select_cmp_i32_cand(&left, &right, &cands, op)
                );
            }
            let values = [11, 48, 999, -5];
            assert_eq!(
                par_select_in_i32(&left, &values, threads),
                sequential::select_in_i32(&left, &values)
            );
            assert_eq!(
                par_select_in_i32_cand(&left, &cands, &values, threads),
                sequential::select_in_i32_cand(&left, &cands, &values)
            );
        }
    }

    #[test]
    fn results_are_sorted_by_oid() {
        let col = column(20_000);
        let result = par_select_range_i32(&col, 0, 999, 8);
        assert!(result.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(result.len(), col.len());
    }

    #[test]
    fn empty_column_is_fine() {
        assert!(par_select_range_i32(&[], 0, 10, 4).is_empty());
    }
}
