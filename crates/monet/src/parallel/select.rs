//! The two selection shapes: each partition runs the sequential selection
//! over its slice — of the column, or of the candidate list — and the
//! per-partition candidate lists are concatenated. They are disjoint and
//! ordered, and a single partition's list moves through as is.

use super::partition::{concat, offset, run_partitions};
use ocelot_storage::Oid;

/// Row selection: `select(start, end)` selects from rows `start..end` and
/// returns OIDs relative to `start`, which become row ids.
pub fn select_rows(
    rows: usize,
    threads: usize,
    select: impl Fn(usize, usize) -> Vec<Oid> + Sync,
) -> Vec<Oid> {
    concat(run_partitions(rows, threads, |start, end| {
        let mut local = select(start, end);
        offset(&mut local, start);
        local
    }))
}

/// Candidate selection: `select` runs over every partition of a candidate
/// list, whose OIDs are row ids already.
pub fn select_candidates(
    candidates: &[Oid],
    threads: usize,
    select: impl Fn(&[Oid]) -> Vec<Oid> + Sync,
) -> Vec<Oid> {
    concat(run_partitions(candidates.len(), threads, |start, end| select(&candidates[start..end])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use ocelot_storage::CmpOp;

    fn column(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i * 37 + 11) % 1000) as i32).collect()
    }

    /// [`select_rows`] over `select` equals `select` over all the rows.
    fn check_rows(rows: usize, select: impl Fn(usize, usize) -> Vec<Oid> + Sync) {
        for threads in [1, 2, 4, 7] {
            assert_eq!(select_rows(rows, threads, &select), select(0, rows), "threads={threads}");
        }
    }

    /// [`select_candidates`] over `select` equals `select` over all of
    /// `candidates`.
    fn check_candidates(candidates: &[Oid], select: impl Fn(&[Oid]) -> Vec<Oid> + Sync) {
        for threads in [1, 3, 4] {
            let got = select_candidates(candidates, threads, &select);
            assert_eq!(got, select(candidates), "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_range_selection() {
        let col = column(10_000);
        check_rows(col.len(), |s, e| sequential::select_range_i32(&col[s..e], 100, 300));
    }

    #[test]
    fn matches_sequential_eq_selection() {
        let col = column(5_000);
        check_rows(col.len(), |s, e| sequential::select_eq_i32(&col[s..e], 11));
        check_rows(col.len(), |s, e| sequential::select_ne_i32(&col[s..e], 11));
    }

    #[test]
    fn matches_sequential_float_selection() {
        let col: Vec<f32> = (0..5_000).map(|i| (i % 97) as f32 * 0.5).collect();
        check_rows(col.len(), |s, e| sequential::select_range_f32(&col[s..e], 10.0, 20.0));
    }

    #[test]
    fn candidate_variants_match_sequential() {
        let col = column(5_000);
        let cands = sequential::select_range_i32(&col, 0, 500);
        check_candidates(&cands, |c| sequential::select_range_i32_cand(&col, c, 100, 300));
        check_candidates(&cands, |c| sequential::select_eq_i32_cand(&col, c, 11));
        let reals: Vec<f32> = col.iter().map(|v| *v as f32).collect();
        check_candidates(&cands, |c| sequential::select_range_f32_cand(&reals, c, 100.0, 300.0));
    }

    #[test]
    fn comparison_and_membership_match_sequential() {
        let left = column(5_000);
        let right: Vec<i32> = left.iter().rev().copied().collect();
        let cands = sequential::select_range_i32(&left, 0, 500);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            check_rows(left.len(), |s, e| {
                sequential::select_cmp_i32(&left[s..e], &right[s..e], op)
            });
            check_candidates(&cands, |c| sequential::select_cmp_i32_cand(&left, &right, c, op));
        }
        let values = [11, 48, 999, -5];
        check_rows(left.len(), |s, e| sequential::select_in_i32(&left[s..e], &values));
        check_candidates(&cands, |c| sequential::select_in_i32_cand(&left, c, &values));
    }

    #[test]
    fn results_are_sorted_by_oid() {
        let col = column(20_000);
        let result = select_rows(col.len(), 8, |start, end| {
            sequential::select_range_i32(&col[start..end], 0, 999)
        });
        assert!(result.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(result.len(), col.len());
    }

    #[test]
    fn empty_column_is_fine() {
        assert!(select_rows(0, 4, |_, _| unreachable!()).is_empty());
        assert!(select_candidates(&[], 4, |_| unreachable!()).is_empty());
    }
}
