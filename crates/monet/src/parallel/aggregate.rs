//! Parallel aggregation: every partition computes a private partial
//! aggregate, the partials are merged sequentially (there are at most
//! `threads` of them). This avoids all synchronisation — the hand-tuned
//! pattern the paper contrasts with Ocelot's atomic-based kernels (§5.2.4).

use super::partition::run_partitions;
use crate::sequential;

/// Parallel sum of a float column.
pub fn par_sum_f32(values: &[f32], threads: usize) -> f32 {
    let partials = run_partitions(values.len(), threads, |s, e| {
        values[s..e].iter().map(|v| *v as f64).sum::<f64>()
    });
    partials.into_iter().sum::<f64>() as f32
}

/// Parallel sum of an integer column.
pub fn par_sum_i32(values: &[i32], threads: usize) -> i64 {
    let partials = run_partitions(values.len(), threads, |s, e| sequential::sum_i32(&values[s..e]));
    partials.into_iter().sum()
}

/// Parallel minimum of an integer column.
pub fn par_min_i32(values: &[i32], threads: usize) -> Option<i32> {
    let partials = run_partitions(values.len(), threads, |s, e| sequential::min_i32(&values[s..e]));
    partials.into_iter().flatten().min()
}

/// Parallel maximum of an integer column.
pub fn par_max_i32(values: &[i32], threads: usize) -> Option<i32> {
    let partials = run_partitions(values.len(), threads, |s, e| sequential::max_i32(&values[s..e]));
    partials.into_iter().flatten().max()
}

/// Parallel minimum of a float column.
pub fn par_min_f32(values: &[f32], threads: usize) -> Option<f32> {
    let partials = run_partitions(values.len(), threads, |s, e| sequential::min_f32(&values[s..e]));
    partials.into_iter().flatten().reduce(f32::min)
}

/// Parallel maximum of a float column.
pub fn par_max_f32(values: &[f32], threads: usize) -> Option<f32> {
    let partials = run_partitions(values.len(), threads, |s, e| sequential::max_f32(&values[s..e]));
    partials.into_iter().flatten().reduce(f32::max)
}

/// Parallel per-group sums: each partition accumulates a private group
/// table, the tables are added element-wise.
pub fn par_grouped_sum_f32(
    values: &[f32],
    gids: &[u32],
    num_groups: usize,
    threads: usize,
) -> Vec<f32> {
    assert_eq!(values.len(), gids.len(), "par_grouped_sum_f32: length mismatch");
    let partials = run_partitions(values.len(), threads, |s, e| {
        let mut local = vec![0.0f64; num_groups];
        for (value, gid) in values[s..e].iter().zip(gids[s..e].iter()) {
            local[*gid as usize] += *value as f64;
        }
        local
    });
    let mut totals = vec![0.0f64; num_groups];
    for partial in partials {
        for (total, value) in totals.iter_mut().zip(partial) {
            *total += value;
        }
    }
    totals.into_iter().map(|v| v as f32).collect()
}

/// Parallel per-group counts.
pub fn par_grouped_count(gids: &[u32], num_groups: usize, threads: usize) -> Vec<i64> {
    let partials = run_partitions(gids.len(), threads, |s, e| {
        sequential::grouped_count(&gids[s..e], num_groups)
    });
    let mut totals = vec![0i64; num_groups];
    for partial in partials {
        for (total, value) in totals.iter_mut().zip(partial) {
            *total += value;
        }
    }
    totals
}

/// Parallel per-group minima of a float column.
pub fn par_grouped_min_f32(
    values: &[f32],
    gids: &[u32],
    num_groups: usize,
    threads: usize,
) -> Vec<f32> {
    let partials = run_partitions(values.len(), threads, |s, e| {
        sequential::grouped_min_f32(&values[s..e], &gids[s..e], num_groups)
    });
    let mut totals = vec![f32::INFINITY; num_groups];
    for partial in partials {
        for (total, value) in totals.iter_mut().zip(partial) {
            *total = total.min(value);
        }
    }
    totals
}

/// Parallel per-group maxima of a float column.
pub fn par_grouped_max_f32(
    values: &[f32],
    gids: &[u32],
    num_groups: usize,
    threads: usize,
) -> Vec<f32> {
    let partials = run_partitions(values.len(), threads, |s, e| {
        sequential::grouped_max_f32(&values[s..e], &gids[s..e], num_groups)
    });
    let mut totals = vec![f32::NEG_INFINITY; num_groups];
    for partial in partials {
        for (total, value) in totals.iter_mut().zip(partial) {
            *total = total.max(value);
        }
    }
    totals
}

/// Parallel per-group averages.
pub fn par_grouped_avg_f32(
    values: &[f32],
    gids: &[u32],
    num_groups: usize,
    threads: usize,
) -> Vec<f32> {
    let sums = par_grouped_sum_f32(values, gids, num_groups, threads);
    let counts = par_grouped_count(gids, num_groups, threads);
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| if *c == 0 { 0.0 } else { (*s as f64 / *c as f64) as f32 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 13 + 5) % 101) as f32 * 0.5).collect()
    }

    fn gids(n: usize, groups: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32 * 7 + 3) % groups).collect()
    }

    #[test]
    fn ungrouped_match_sequential() {
        let vals = values(10_000);
        let ints: Vec<i32> = (0..10_000).map(|i| (i % 997) - 200).collect();
        for threads in [1, 2, 4] {
            assert!((par_sum_f32(&vals, threads) - sequential::sum_f32(&vals)).abs() < 1e-3);
            assert_eq!(par_sum_i32(&ints, threads), sequential::sum_i32(&ints));
            assert_eq!(par_min_i32(&ints, threads), sequential::min_i32(&ints));
            assert_eq!(par_max_i32(&ints, threads), sequential::max_i32(&ints));
            assert_eq!(par_min_f32(&vals, threads), sequential::min_f32(&vals));
            assert_eq!(par_max_f32(&vals, threads), sequential::max_f32(&vals));
        }
    }

    #[test]
    fn grouped_match_sequential() {
        let vals = values(5_000);
        let ids = gids(5_000, 37);
        let seq_sum = sequential::grouped_sum_f32(&vals, &ids, 37);
        let par_sum = par_grouped_sum_f32(&vals, &ids, 37, 4);
        for (a, b) in seq_sum.iter().zip(par_sum.iter()) {
            assert!((a - b).abs() < 1e-2);
        }
        assert_eq!(par_grouped_count(&ids, 37, 4), sequential::grouped_count(&ids, 37));
        assert_eq!(
            par_grouped_min_f32(&vals, &ids, 37, 4),
            sequential::grouped_min_f32(&vals, &ids, 37)
        );
        assert_eq!(
            par_grouped_max_f32(&vals, &ids, 37, 4),
            sequential::grouped_max_f32(&vals, &ids, 37)
        );
    }

    #[test]
    fn grouped_avg() {
        let vals = vec![2.0f32, 4.0, 6.0, 8.0];
        let ids = vec![0u32, 0, 1, 1];
        assert_eq!(par_grouped_avg_f32(&vals, &ids, 2, 2), vec![3.0, 7.0]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(par_sum_f32(&[], 4), 0.0);
        assert_eq!(par_min_i32(&[], 4), None);
        assert_eq!(par_grouped_count(&[], 3, 4), vec![0, 0, 0]);
    }
}
