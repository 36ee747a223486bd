//! Sequential selection: scan a column, or a candidate list, and return the
//! OIDs of the qualifying rows.
//!
//! Every selection is predicated: each candidate's OID is written at the
//! output cursor, and the cursor advances by the predicate (`slots::Kept`).
//! The loop has no branch on the data, so a selection at 50 % costs what
//! one at 1 % does instead of a mispredict every few rows. The output is
//! allocated once, with room for every row (or candidate) scanned; the
//! room no kept row reaches is never written. Predicates are computed
//! without short-circuiting: an integer range is one unsigned compare
//! (`in_range`), a float range ANDs its two compares (so NaN fails both
//! and is never kept), and a membership test ORs over the whole list.

use crate::slots::{kept_positions, Kept};
use ocelot_storage::{CmpOp, Oid};

/// Whether `low <= value <= high`, for `low <= high`: the offset from `low`
/// as an unsigned word is at most the range's width.
#[inline]
fn in_range(value: i32, low: i32, high: i32) -> bool {
    value.wrapping_sub(low) as u32 <= high.wrapping_sub(low) as u32
}

/// Whether `low <= value <= high` for a float (false for NaN).
#[inline]
fn in_range_f32(value: f32, low: f32, high: f32) -> bool {
    (value >= low) & (value <= high)
}

/// Whether `value` is one of `values`, comparing it with every one of them.
#[inline]
fn is_in(value: i32, values: &[i32]) -> bool {
    let mut found = false;
    for &candidate in values {
        found |= candidate == value;
    }
    found
}

/// The rows `holds` yields `true` for, with room for every row.
fn rows_where(holds: impl ExactSizeIterator<Item = bool>) -> Vec<Oid> {
    let rows = holds.len();
    kept_positions(holds, rows)
}

/// The candidates whose row `holds` is `true` for.
fn candidates_where(candidates: &[Oid], holds: impl Fn(usize) -> bool) -> Vec<Oid> {
    let mut out = Kept::with_capacity(candidates.len());
    for &row in candidates {
        out.keep(row, holds(row as usize));
    }
    out.finish()
}

/// Inclusive range selection over an `i32` column: rows with
/// `low <= value <= high`.
pub fn select_range_i32(column: &[i32], low: i32, high: i32) -> Vec<Oid> {
    if low > high {
        return Vec::new();
    }
    rows_where(column.iter().map(|&value| in_range(value, low, high)))
}

/// Inclusive range selection over an `f32` column.
pub fn select_range_f32(column: &[f32], low: f32, high: f32) -> Vec<Oid> {
    rows_where(column.iter().map(|&value| in_range_f32(value, low, high)))
}

/// Equality selection over an `i32` column.
pub fn select_eq_i32(column: &[i32], needle: i32) -> Vec<Oid> {
    rows_where(column.iter().map(|&value| value == needle))
}

/// Inequality (`!=`) selection over an `i32` column.
pub fn select_ne_i32(column: &[i32], needle: i32) -> Vec<Oid> {
    rows_where(column.iter().map(|&value| value != needle))
}

/// Range selection restricted to a candidate list (the second and later
/// predicates of a conjunction run over the survivors of the previous one).
pub fn select_range_i32_cand(column: &[i32], candidates: &[Oid], low: i32, high: i32) -> Vec<Oid> {
    if low > high {
        return Vec::new();
    }
    candidates_where(candidates, |row| in_range(column[row], low, high))
}

/// Range selection over an `f32` column restricted to a candidate list.
pub fn select_range_f32_cand(column: &[f32], candidates: &[Oid], low: f32, high: f32) -> Vec<Oid> {
    candidates_where(candidates, |row| in_range_f32(column[row], low, high))
}

/// Equality selection restricted to a candidate list.
pub fn select_eq_i32_cand(column: &[i32], candidates: &[Oid], needle: i32) -> Vec<Oid> {
    candidates_where(candidates, |row| column[row] == needle)
}

/// Inequality (`!=`) selection restricted to a candidate list.
pub fn select_ne_i32_cand(column: &[i32], candidates: &[Oid], needle: i32) -> Vec<Oid> {
    candidates_where(candidates, |row| column[row] != needle)
}

/// Column-vs-column selection: rows with `left[row] <op> right[row]`. The
/// comparison is chosen once per call; each arm's loop is compiled for its
/// own operator, with no `match` per row.
pub fn select_cmp_i32(left: &[i32], right: &[i32], op: CmpOp) -> Vec<Oid> {
    fn rows(left: &[i32], right: &[i32], holds: impl Fn(&i32, &i32) -> bool) -> Vec<Oid> {
        rows_where(left.iter().zip(right).map(|(l, r)| holds(l, r)))
    }
    match op {
        CmpOp::Lt => rows(left, right, i32::lt),
        CmpOp::Le => rows(left, right, i32::le),
        CmpOp::Gt => rows(left, right, i32::gt),
        CmpOp::Ge => rows(left, right, i32::ge),
        CmpOp::Eq => rows(left, right, i32::eq),
        CmpOp::Ne => rows(left, right, i32::ne),
    }
}

/// Column-vs-column selection restricted to a candidate list, the
/// comparison chosen once per call like [`select_cmp_i32`]'s.
pub fn select_cmp_i32_cand(left: &[i32], right: &[i32], candidates: &[Oid], op: CmpOp) -> Vec<Oid> {
    fn kept(l: &[i32], r: &[i32], cands: &[Oid], holds: impl Fn(&i32, &i32) -> bool) -> Vec<Oid> {
        candidates_where(cands, |row| holds(&l[row], &r[row]))
    }
    match op {
        CmpOp::Lt => kept(left, right, candidates, i32::lt),
        CmpOp::Le => kept(left, right, candidates, i32::le),
        CmpOp::Gt => kept(left, right, candidates, i32::gt),
        CmpOp::Ge => kept(left, right, candidates, i32::ge),
        CmpOp::Eq => kept(left, right, candidates, i32::eq),
        CmpOp::Ne => kept(left, right, candidates, i32::ne),
    }
}

/// Membership selection `value IN (values…)` over an `i32` column.
pub fn select_in_i32(column: &[i32], values: &[i32]) -> Vec<Oid> {
    rows_where(column.iter().map(|&value| is_in(value, values)))
}

/// Membership selection restricted to a candidate list.
pub fn select_in_i32_cand(column: &[i32], candidates: &[Oid], values: &[i32]) -> Vec<Oid> {
    candidates_where(candidates, |row| is_in(column[row], values))
}

/// Union of two sorted candidate lists (`value IN (a, b)` style predicates).
pub fn union_oids(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_selection_i32() {
        let col = vec![5, 1, 9, 3, 7, 3];
        assert_eq!(select_range_i32(&col, 3, 7), vec![0, 3, 4, 5]);
        assert_eq!(select_range_i32(&col, 100, 200), Vec::<Oid>::new());
        assert_eq!(select_range_i32(&col, i32::MIN, i32::MAX).len(), 6);
    }

    #[test]
    fn integer_ranges_at_the_ends_of_i32_and_empty_ranges() {
        let col = vec![i32::MIN, -1, 0, 1, i32::MAX, i32::MIN + 1, i32::MAX - 1];
        let all: Vec<Oid> = (0..col.len() as Oid).collect();
        for (low, high) in [(i32::MIN, i32::MAX), (i32::MIN, -1), (0, i32::MAX), (-1, 1), (1, -1)] {
            let expected: Vec<Oid> = all
                .iter()
                .copied()
                .filter(|&r| low <= col[r as usize] && col[r as usize] <= high)
                .collect();
            assert_eq!(select_range_i32(&col, low, high), expected, "[{low}, {high}]");
            assert_eq!(select_range_i32_cand(&col, &all, low, high), expected, "[{low}, {high}]");
        }
    }

    #[test]
    fn range_selection_f32() {
        let col = vec![0.5, 1.5, 2.5];
        assert_eq!(select_range_f32(&col, 1.0, 2.0), vec![1]);
        assert_eq!(select_range_f32(&col, 0.5, 2.5), vec![0, 1, 2]);
    }

    #[test]
    fn equality_selection() {
        let col = vec![2, 3, 2, 2];
        assert_eq!(select_eq_i32(&col, 2), vec![0, 2, 3]);
        assert_eq!(select_eq_i32(&col, 9), Vec::<Oid>::new());
        assert_eq!(select_ne_i32(&col, 2), vec![1]);
        assert_eq!(select_ne_i32(&col, 9), vec![0, 1, 2, 3]);
        assert!(select_ne_i32(&[], 2).is_empty());
    }

    #[test]
    fn candidate_restricted_selections() {
        let col = vec![5, 1, 9, 3, 7, 3];
        let cands = vec![0, 2, 3, 5];
        assert_eq!(select_range_i32_cand(&col, &cands, 3, 7), vec![0, 3, 5]);
        assert_eq!(select_eq_i32_cand(&col, &cands, 3), vec![3, 5]);
        assert_eq!(select_ne_i32_cand(&col, &cands, 3), vec![0, 2]);
        let reals = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        assert_eq!(select_range_f32_cand(&reals, &cands, 0.25, 0.65), vec![2, 3, 5]);
    }

    #[test]
    fn column_comparison_and_membership() {
        let left = vec![5, 1, 9, 3, 7, 3];
        let right = vec![5, 2, 8, 3, 9, -3];
        let cands = vec![0, 2, 3, 5];
        assert_eq!(select_cmp_i32(&left, &right, CmpOp::Lt), vec![1, 4]);
        assert_eq!(select_cmp_i32(&left, &right, CmpOp::Ne), vec![1, 2, 4, 5]);
        assert_eq!(select_cmp_i32_cand(&left, &right, &cands, CmpOp::Ge), vec![0, 2, 3, 5]);
        assert_eq!(select_cmp_i32_cand(&left, &right, &cands, CmpOp::Eq), vec![0, 3]);
        assert_eq!(select_in_i32(&left, &[3, 9, 4]), vec![2, 3, 5]);
        assert_eq!(select_in_i32(&left, &[]), Vec::<Oid>::new());
        assert_eq!(select_in_i32_cand(&left, &cands, &[3, 5]), vec![0, 3, 5]);
    }

    #[test]
    fn union_of_sorted_lists() {
        let a = vec![1, 3, 5, 7];
        let b = vec![2, 3, 6, 7, 9];
        assert_eq!(union_oids(&a, &b), vec![1, 2, 3, 5, 6, 7, 9]);
        assert_eq!(union_oids(&[], &b), b);
        assert_eq!(union_oids(&a, &[]), a);
    }

    #[test]
    fn empty_column() {
        assert!(select_range_i32(&[], 0, 10).is_empty());
        assert!(select_eq_i32(&[], 0).is_empty());
    }
}
