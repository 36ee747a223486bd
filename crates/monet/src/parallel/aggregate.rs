//! The reduction shape: every partition computes a private partial
//! aggregate and the partials are folded in partition order. This avoids
//! all synchronisation — the hand-tuned pattern the paper contrasts with
//! Ocelot's atomic-based kernels (§5.2.4).

use super::partition::run_partitions;

/// Reduction: `partial(start, end)` aggregates rows `start..end`; the
/// partials are folded in partition order, starting from the first. No
/// rows is one partial over the empty range, so one thread is always one
/// call of `partial` over all the rows.
pub fn reduce<R: Send>(
    rows: usize,
    threads: usize,
    partial: impl Fn(usize, usize) -> R + Sync,
    fold: impl Fn(R, R) -> R,
) -> R {
    run_partitions(rows, threads, &partial)
        .into_iter()
        .reduce(fold)
        .unwrap_or_else(|| partial(0, 0))
}

/// Folds two per-group partials group by group with `f`.
pub fn per_group<T: Copy>(f: impl Fn(T, T) -> T) -> impl Fn(Vec<T>, Vec<T>) -> Vec<T> {
    move |mut acc, partial| {
        acc.iter_mut().zip(partial).for_each(|(a, b)| *a = f(*a, b));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

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
        let min = |a: Option<f32>, b| a.into_iter().chain(b).reduce(f32::min);
        for threads in [1, 2, 4] {
            let sum =
                reduce(vals.len(), threads, |s, e| sequential::sum_f64(&vals[s..e]), |a, b| a + b);
            assert!((sum as f32 - sequential::sum_f32(&vals)).abs() < 1e-3);
            let int_sum =
                reduce(ints.len(), threads, |s, e| sequential::sum_i32(&ints[s..e]), |a, b| a + b);
            assert_eq!(int_sum, sequential::sum_i32(&ints));
            let least = reduce(vals.len(), threads, |s, e| sequential::min_f32(&vals[s..e]), min);
            assert_eq!(least, sequential::min_f32(&vals));
        }
    }

    #[test]
    fn grouped_match_sequential() {
        let (vals, ids) = (values(5_000), gids(5_000, 37));
        let sums = reduce(
            vals.len(),
            4,
            |s, e| sequential::grouped_sum_f64(&vals[s..e], &ids[s..e], 37),
            per_group(|a, b| a + b),
        );
        for (a, b) in sequential::grouped_sum_f32(&vals, &ids, 37).iter().zip(&sums) {
            assert!((a - *b as f32).abs() < 1e-2);
        }
        let counts = reduce(
            ids.len(),
            4,
            |s, e| sequential::grouped_count(&ids[s..e], 37),
            per_group(|a, b| a + b),
        );
        assert_eq!(counts, sequential::grouped_count(&ids, 37));
        let maxima = reduce(
            vals.len(),
            4,
            |s, e| sequential::grouped_max_f32(&vals[s..e], &ids[s..e], 37),
            per_group(f32::max),
        );
        assert_eq!(maxima, sequential::grouped_max_f32(&vals, &ids, 37));
    }

    #[test]
    fn grouped_avg() {
        let vals = [2.0f32, 4.0, 6.0, 8.0];
        let ids = [0u32, 0, 1, 1];
        let (sums, counts) = reduce(
            vals.len(),
            2,
            |s, e| {
                let (vals, ids) = (&vals[s..e], &ids[s..e]);
                (sequential::grouped_sum_f64(vals, ids, 2), sequential::grouped_count(ids, 2))
            },
            |(s, c), (ps, pc)| (per_group(|a, b| a + b)(s, ps), per_group(|a, b| a + b)(c, pc)),
        );
        assert_eq!(sequential::averages(&sums, &counts), vec![3.0, 7.0]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(reduce(0, 4, |s, e| sequential::sum_f64(&[][s..e]), |a, b| a + b), 0.0);
        let counts =
            reduce(0, 4, |_, _| sequential::grouped_count(&[], 3), per_group(|a, b| a + b));
        assert_eq!(counts, vec![0, 0, 0]);
    }
}
