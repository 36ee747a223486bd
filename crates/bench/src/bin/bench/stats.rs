//! The benchmark's own arithmetic: order statistics over latency samples,
//! and the minimal JSON writer the result line needs.

/// Median of `values` (mean of the two middle elements for even counts).
/// `NaN` for an empty slice, so a cell without samples can never pass as a
/// measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in milliseconds.
pub fn median_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|v| *v as f64 / 1e6).collect::<Vec<_>>())
}

/// Index of the `pct`-th percentile in an ascending slice of `n` samples
/// (nearest-rank: the smallest index with at least `pct` % of the samples
/// at or below it).
pub fn percentile_index(n: usize, pct: f64) -> usize {
    assert!(n > 0 && (0.0..=100.0).contains(&pct));
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples. A tail
/// percentile is only reported as such with at least ten samples beyond it.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - 1 - percentile_index(n, pct)
}

/// `pct`-th percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(ns: &[u64], pct: f64) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    sorted[percentile_index(sorted.len(), pct)] as f64 / 1e6
}

/// The percentile every latency cell is reported at: the lower decile.
///
/// On the shared sandbox interference is one-sided — a busy neighbour only
/// ever adds time, 15-35 % for seconds to minutes at a stretch — so the
/// median of a run follows the neighbour while the lower decile stays with
/// the program (README, "Steadiness": 19-20 % against 6 % run-to-run
/// range on the same samples). Nearest rank, so a cell with ten samples or
/// fewer reports its fastest.
pub const QUIET_PCT: f64 = 10.0;

/// Quiet-time latency of nanosecond samples, in milliseconds: their
/// [`QUIET_PCT`]-th percentile.
pub fn quiet_ms(ns: &[u64]) -> f64 {
    percentile_ms(ns, QUIET_PCT)
}

/// Geometric mean of positive values (`NaN` when empty or non-positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`: every digit Rust's shortest round-trip form
/// carries; non-finite values (which JSON cannot express) become `null`
/// so a broken measurement fails the reader instead of passing as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median_ms(&[1_000_000, 3_000_000, 2_000_000]), 2.0);
    }

    #[test]
    fn percentile_index_is_nearest_rank() {
        assert_eq!(percentile_index(100, 99.0), 98);
        assert_eq!(percentile_index(100, 50.0), 49);
        assert_eq!(percentile_index(4800, 99.0), 4751);
        assert_eq!(percentile_index(1, 99.0), 0);
        assert_eq!(percentile_index(10, 0.0), 0);
        assert_eq!(percentile_index(10, 100.0), 9);
        assert_eq!(percentile_ms(&[5_000_000, 1_000_000, 9_000_000, 7_000_000], 50.0), 5.0);
    }

    #[test]
    fn quiet_latency_is_the_lower_decile_and_the_fastest_of_few() {
        let ns: Vec<u64> = (1..=100).rev().map(|v| v * 1_000_000).collect();
        assert_eq!(quiet_ms(&ns), 10.0);
        assert_eq!(quiet_ms(&ns[..76]), 32.0); // 25..=100 ms: the 8th fastest
        assert_eq!(quiet_ms(&[5_000_000, 3_000_000, 4_000_000]), 3.0);
        assert!(quiet_ms(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 4800 samples: 48 beyond p99; 1000 leave exactly ten, 999 do not.
        assert_eq!(samples_beyond(4800, 99.0), 48);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        // 72 samples (3 passes x 24 cells): p80 leaves 14, p95 only 3.
        assert_eq!(samples_beyond(72, 80.0), 14);
        assert_eq!(samples_beyond(72, 95.0), 3);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 4.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn json_writer_escapes_and_keeps_digits() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd\te\u{1}"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(3.0), "3");
    }
}
