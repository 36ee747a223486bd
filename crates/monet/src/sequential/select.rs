//! Sequential selection: scan a column, return the OIDs of qualifying rows.
//!
//! An integer range is tested with one unsigned compare ([`in_range`]), so
//! the loop has one branch per row, taken as often as rows qualify, however
//! the compiler lays out the caller it is inlined into. Two compares may be
//! compiled as two branches, and the one on the lower bound alone
//! mispredicts on a selective range inside the domain.

use ocelot_storage::{CmpOp, Oid};

/// Whether `low <= value <= high`, for `low <= high`: the offset from `low`
/// as an unsigned word is at most the range's width.
#[inline]
fn in_range(value: i32, low: i32, high: i32) -> bool {
    value.wrapping_sub(low) as u32 <= high.wrapping_sub(low) as u32
}

/// Inclusive range selection over an `i32` column: rows with
/// `low <= value <= high`.
pub fn select_range_i32(column: &[i32], low: i32, high: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    if low > high {
        return out;
    }
    for (row, value) in column.iter().enumerate() {
        if in_range(*value, low, high) {
            out.push(row as Oid);
        }
    }
    out
}

/// Inclusive range selection over an `f32` column.
pub fn select_range_f32(column: &[f32], low: f32, high: f32) -> Vec<Oid> {
    let mut out = Vec::new();
    for (row, value) in column.iter().enumerate() {
        if *value >= low && *value <= high {
            out.push(row as Oid);
        }
    }
    out
}

/// Equality selection over an `i32` column.
pub fn select_eq_i32(column: &[i32], needle: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    for (row, value) in column.iter().enumerate() {
        if *value == needle {
            out.push(row as Oid);
        }
    }
    out
}

/// Inequality (`!=`) selection over an `i32` column.
pub fn select_ne_i32(column: &[i32], needle: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    for (row, value) in column.iter().enumerate() {
        if *value != needle {
            out.push(row as Oid);
        }
    }
    out
}

/// Range selection restricted to a candidate list (the second and later
/// predicates of a conjunction run over the survivors of the previous one).
pub fn select_range_i32_cand(column: &[i32], candidates: &[Oid], low: i32, high: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    if low > high {
        return out;
    }
    for &row in candidates {
        if in_range(column[row as usize], low, high) {
            out.push(row);
        }
    }
    out
}

/// Range selection over an `f32` column restricted to a candidate list.
pub fn select_range_f32_cand(column: &[f32], candidates: &[Oid], low: f32, high: f32) -> Vec<Oid> {
    let mut out = Vec::new();
    for &row in candidates {
        let value = column[row as usize];
        if value >= low && value <= high {
            out.push(row);
        }
    }
    out
}

/// Equality selection restricted to a candidate list.
pub fn select_eq_i32_cand(column: &[i32], candidates: &[Oid], needle: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    for &row in candidates {
        if column[row as usize] == needle {
            out.push(row);
        }
    }
    out
}

/// Inequality (`!=`) selection restricted to a candidate list.
pub fn select_ne_i32_cand(column: &[i32], candidates: &[Oid], needle: i32) -> Vec<Oid> {
    let mut out = Vec::new();
    for &row in candidates {
        if column[row as usize] != needle {
            out.push(row);
        }
    }
    out
}

/// Column-vs-column selection: rows with `left[row] <op> right[row]`.
pub fn select_cmp_i32(left: &[i32], right: &[i32], op: CmpOp) -> Vec<Oid> {
    let mut out = Vec::new();
    for (row, (l, r)) in left.iter().zip(right).enumerate() {
        if op.holds(*l, *r) {
            out.push(row as Oid);
        }
    }
    out
}

/// Column-vs-column selection restricted to a candidate list.
pub fn select_cmp_i32_cand(left: &[i32], right: &[i32], candidates: &[Oid], op: CmpOp) -> Vec<Oid> {
    let mut out = Vec::new();
    for &row in candidates {
        if op.holds(left[row as usize], right[row as usize]) {
            out.push(row);
        }
    }
    out
}

/// Membership selection `value IN (values…)` over an `i32` column.
pub fn select_in_i32(column: &[i32], values: &[i32]) -> Vec<Oid> {
    let mut out = Vec::new();
    for (row, value) in column.iter().enumerate() {
        if values.contains(value) {
            out.push(row as Oid);
        }
    }
    out
}

/// Membership selection restricted to a candidate list.
pub fn select_in_i32_cand(column: &[i32], candidates: &[Oid], values: &[i32]) -> Vec<Oid> {
    let mut out = Vec::new();
    for &row in candidates {
        if values.contains(&column[row as usize]) {
            out.push(row);
        }
    }
    out
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

/// Intersection of two sorted candidate lists (conjunction of independently
/// evaluated predicates).
pub fn intersect_oids(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
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
    fn union_and_intersection() {
        let a = vec![1, 3, 5, 7];
        let b = vec![2, 3, 6, 7, 9];
        assert_eq!(union_oids(&a, &b), vec![1, 2, 3, 5, 6, 7, 9]);
        assert_eq!(intersect_oids(&a, &b), vec![3, 7]);
        assert_eq!(union_oids(&[], &b), b);
        assert_eq!(intersect_oids(&a, &[]), Vec::<Oid>::new());
    }

    #[test]
    fn empty_column() {
        assert!(select_range_i32(&[], 0, 10).is_empty());
        assert!(select_eq_i32(&[], 0).is_empty());
    }
}
