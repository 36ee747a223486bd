//! Parallel arithmetic map operators: the input columns are partitioned and
//! every partition writes the map of its slice into its own range of the one
//! output vector.

use super::partition::collect_partitions;
use ocelot_storage::types::days_to_date;

/// `f` over every element of `a`, partition by partition.
fn map<A: Copy + Sync, T: Send>(a: &[A], threads: usize, f: impl Fn(A) -> T + Sync) -> Vec<T> {
    collect_partitions(a.len(), threads, |s, e| a[s..e].iter().map(|x| f(*x)))
}

/// `f` over every pair of elements of `a` and `b`, partition by partition.
fn zip_map(a: &[f32], b: &[f32], threads: usize, f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    collect_partitions(a.len(), threads, |s, e| {
        a[s..e].iter().zip(&b[s..e]).map(|(x, y)| f(*x, *y))
    })
}

/// Parallel element-wise `a * b`.
pub fn par_mul_f32(a: &[f32], b: &[f32], threads: usize) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "par_mul_f32: length mismatch");
    zip_map(a, b, threads, |x, y| x * y)
}

/// Parallel element-wise `a + b`.
pub fn par_add_f32(a: &[f32], b: &[f32], threads: usize) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "par_add_f32: length mismatch");
    zip_map(a, b, threads, |x, y| x + y)
}

/// Parallel element-wise `a - b`.
pub fn par_sub_f32(a: &[f32], b: &[f32], threads: usize) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "par_sub_f32: length mismatch");
    zip_map(a, b, threads, |x, y| x - y)
}

/// Parallel element-wise `constant - a`.
pub fn par_const_minus_f32(constant: f32, a: &[f32], threads: usize) -> Vec<f32> {
    map(a, threads, |x| constant - x)
}

/// Parallel element-wise `constant + a`.
pub fn par_const_plus_f32(constant: f32, a: &[f32], threads: usize) -> Vec<f32> {
    map(a, threads, |x| constant + x)
}

/// Parallel element-wise `a * constant`.
pub fn par_mul_const_f32(a: &[f32], constant: f32, threads: usize) -> Vec<f32> {
    map(a, threads, |x| x * constant)
}

/// Parallel cast from `i32` to `f32`.
pub fn par_cast_i32_f32(a: &[i32], threads: usize) -> Vec<f32> {
    map(a, threads, |x| x as f32)
}

/// Parallel year extraction from a day-number date column.
pub fn par_extract_year(days: &[i32], threads: usize) -> Vec<i32> {
    map(days, threads, |d| days_to_date(d).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;
    use ocelot_storage::types::date_to_days;

    #[test]
    fn maps_match_sequential() {
        let a: Vec<f32> = (0..5_000).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..5_000).map(|i| (i % 17) as f32).collect();
        assert_eq!(par_mul_f32(&a, &b, 4), sequential::mul_f32(&a, &b));
        assert_eq!(par_add_f32(&a, &b, 3), sequential::add_f32(&a, &b));
        assert_eq!(par_sub_f32(&a, &b, 2), sequential::sub_f32(&a, &b));
        assert_eq!(par_const_minus_f32(1.0, &a, 4), sequential::const_minus_f32(1.0, &a));
        assert_eq!(par_const_plus_f32(1.0, &a, 4), sequential::const_plus_f32(1.0, &a));
        assert_eq!(par_mul_const_f32(&a, 0.25, 3), sequential::mul_const_f32(&a, 0.25));
    }

    #[test]
    fn casts_and_years() {
        let ints: Vec<i32> = (0..1000).collect();
        assert_eq!(par_cast_i32_f32(&ints, 4), sequential::cast_i32_f32(&ints));
        let days: Vec<i32> =
            (0..1000).map(|i| date_to_days(1992 + (i % 7), 1 + (i % 12) as u32, 1)).collect();
        assert_eq!(par_extract_year(&days, 4), sequential::extract_year(&days));
    }

    #[test]
    fn empty_inputs() {
        assert!(par_mul_f32(&[], &[], 4).is_empty());
        assert!(par_extract_year(&[], 4).is_empty());
    }
}
