//! Sequential aggregation operators: ungrouped reductions and grouped
//! aggregates over a dense group-ID column.

/// Sum of a float column (accumulated in `f64`, returned as the four-byte
/// `f32` the engine's type system mandates).
pub fn sum_f32(values: &[f32]) -> f32 {
    sum_f64(values) as f32
}

/// [`sum_f32`]'s `f64` accumulation, before it rounds.
pub fn sum_f64(values: &[f32]) -> f64 {
    values.iter().map(|v| *v as f64).sum::<f64>()
}

/// Sum of an integer column, accumulated in `i64` to avoid overflow.
pub fn sum_i32(values: &[i32]) -> i64 {
    values.iter().map(|v| *v as i64).sum()
}

/// Minimum of an integer column (`None` for an empty column).
pub fn min_i32(values: &[i32]) -> Option<i32> {
    values.iter().copied().min()
}

/// Maximum of an integer column.
pub fn max_i32(values: &[i32]) -> Option<i32> {
    values.iter().copied().max()
}

/// Minimum of a float column.
pub fn min_f32(values: &[f32]) -> Option<f32> {
    values.iter().copied().reduce(f32::min)
}

/// Maximum of a float column.
pub fn max_f32(values: &[f32]) -> Option<f32> {
    values.iter().copied().reduce(f32::max)
}

/// Row count.
pub fn count(values_len: usize) -> i64 {
    values_len as i64
}

/// Per-group sums of a float column. `gids[i]` assigns row `i` to a dense
/// group in `0..num_groups`.
pub fn grouped_sum_f32(values: &[f32], gids: &[u32], num_groups: usize) -> Vec<f32> {
    grouped_sum_f64(values, gids, num_groups).into_iter().map(|s| s as f32).collect()
}

/// [`grouped_sum_f32`]'s `f64` accumulation, before it rounds.
pub fn grouped_sum_f64(values: &[f32], gids: &[u32], num_groups: usize) -> Vec<f64> {
    assert_eq!(values.len(), gids.len(), "grouped_sum_f32: length mismatch");
    let mut sums = vec![0.0f64; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        sums[*gid as usize] += *value as f64;
    }
    sums
}

/// Per-group row counts.
pub fn grouped_count(gids: &[u32], num_groups: usize) -> Vec<i64> {
    let mut counts = vec![0i64; num_groups];
    for gid in gids {
        counts[*gid as usize] += 1;
    }
    counts
}

/// Per-group sums of an integer column.
pub fn grouped_sum_i32(values: &[i32], gids: &[u32], num_groups: usize) -> Vec<i64> {
    assert_eq!(values.len(), gids.len(), "grouped_sum_i32: length mismatch");
    let mut sums = vec![0i64; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        sums[*gid as usize] += *value as i64;
    }
    sums
}

/// Per-group minima of a float column (`f32::INFINITY` for empty groups).
pub fn grouped_min_f32(values: &[f32], gids: &[u32], num_groups: usize) -> Vec<f32> {
    assert_eq!(values.len(), gids.len(), "grouped_min_f32: length mismatch");
    let mut mins = vec![f32::INFINITY; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        let slot = &mut mins[*gid as usize];
        if *value < *slot {
            *slot = *value;
        }
    }
    mins
}

/// Per-group maxima of a float column (`f32::NEG_INFINITY` for empty groups).
pub fn grouped_max_f32(values: &[f32], gids: &[u32], num_groups: usize) -> Vec<f32> {
    assert_eq!(values.len(), gids.len(), "grouped_max_f32: length mismatch");
    let mut maxs = vec![f32::NEG_INFINITY; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        let slot = &mut maxs[*gid as usize];
        if *value > *slot {
            *slot = *value;
        }
    }
    maxs
}

/// Per-group minima of an integer column (`i32::MAX` for empty groups).
pub fn grouped_min_i32(values: &[i32], gids: &[u32], num_groups: usize) -> Vec<i32> {
    assert_eq!(values.len(), gids.len(), "grouped_min_i32: length mismatch");
    let mut mins = vec![i32::MAX; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        let slot = &mut mins[*gid as usize];
        if *value < *slot {
            *slot = *value;
        }
    }
    mins
}

/// Per-group maxima of an integer column (`i32::MIN` for empty groups).
pub fn grouped_max_i32(values: &[i32], gids: &[u32], num_groups: usize) -> Vec<i32> {
    assert_eq!(values.len(), gids.len(), "grouped_max_i32: length mismatch");
    let mut maxs = vec![i32::MIN; num_groups];
    for (value, gid) in values.iter().zip(gids.iter()) {
        let slot = &mut maxs[*gid as usize];
        if *value > *slot {
            *slot = *value;
        }
    }
    maxs
}

/// Per-group averages of a float column (`0.0` for empty groups).
pub fn grouped_avg_f32(values: &[f32], gids: &[u32], num_groups: usize) -> Vec<f32> {
    averages(&grouped_sum_f64(values, gids, num_groups), &grouped_count(gids, num_groups))
}

/// Per-group averages from [`grouped_sum_f64`]'s sums and
/// [`grouped_count`]'s counts: the sum rounded to `f32` as
/// [`grouped_sum_f32`] returns it, divided by the count.
pub fn averages(sums: &[f64], counts: &[i64]) -> Vec<f32> {
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| if *c == 0 { 0.0 } else { (*s as f32 as f64 / *c as f64) as f32 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungrouped_reductions() {
        let ints = vec![3, -1, 7, 0];
        assert_eq!(sum_i32(&ints), 9);
        assert_eq!(min_i32(&ints), Some(-1));
        assert_eq!(max_i32(&ints), Some(7));
        assert_eq!(count(ints.len()), 4);

        let reals = vec![1.5f32, 2.5, -1.0];
        assert_eq!(sum_f32(&reals), 3.0);
        assert_eq!(min_f32(&reals), Some(-1.0));
        assert_eq!(max_f32(&reals), Some(2.5));
    }

    #[test]
    fn empty_reductions() {
        assert_eq!(sum_f32(&[]), 0.0);
        assert_eq!(min_i32(&[]), None);
        assert_eq!(max_f32(&[]), None);
        assert_eq!(count(0), 0);
    }

    #[test]
    fn grouped_aggregates() {
        let values = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let gids = vec![0u32, 1, 0, 1, 2];
        assert_eq!(grouped_sum_f32(&values, &gids, 3), vec![4.0, 6.0, 5.0]);
        assert_eq!(grouped_count(&gids, 3), vec![2, 2, 1]);
        assert_eq!(grouped_min_f32(&values, &gids, 3), vec![1.0, 2.0, 5.0]);
        assert_eq!(grouped_max_f32(&values, &gids, 3), vec![3.0, 4.0, 5.0]);
        assert_eq!(grouped_avg_f32(&values, &gids, 3), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn grouped_integer_aggregates() {
        let values = vec![5, -2, 8, 1];
        let gids = vec![1u32, 0, 1, 0];
        assert_eq!(grouped_sum_i32(&values, &gids, 2), vec![-1, 13]);
        assert_eq!(grouped_min_i32(&values, &gids, 2), vec![-2, 5]);
        assert_eq!(grouped_max_i32(&values, &gids, 2), vec![1, 8]);
    }

    #[test]
    fn empty_groups_get_identity_values() {
        let values: Vec<f32> = vec![1.0];
        let gids = vec![2u32];
        assert_eq!(grouped_sum_f32(&values, &gids, 4), vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(grouped_min_f32(&values, &gids, 4)[0], f32::INFINITY);
        assert_eq!(grouped_max_f32(&values, &gids, 4)[1], f32::NEG_INFINITY);
        assert_eq!(grouped_avg_f32(&values, &gids, 4)[3], 0.0);
    }

    #[test]
    fn float_sum_uses_double_accumulator() {
        // 10 million additions of 0.1 would drift badly in pure f32.
        let values = vec![0.1f32; 1_000_000];
        let total = sum_f32(&values);
        assert!((total - 100_000.0).abs() < 1.0, "got {total}");
    }
}
