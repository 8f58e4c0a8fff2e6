//! Estimators: per-slice percentiles and the best-decile reduction
//! across slices.
//!
//! Interference on a small shared box is one-sided (it only ever makes
//! a slice slower) and lasts 0.1–3 s, so a whole-run mean or median
//! inherits it while the upper decile of equal slices does not. Every
//! timing metric is therefore computed per slice and reduced with
//! [`best_rate`] (90th percentile of rates) or [`best_time`] (10th
//! percentile of times).

/// The value at quantile `q` (0..=1) of `sorted`, nearest rank on
/// `(n - 1) * q`. `sorted` must be ascending and non-empty.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    v
}

/// Best-decile slice rate: the 90th percentile of per-slice rates.
pub fn best_rate(per_slice: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(per_slice), 0.90)
}

/// Best-decile slice time: the 10th percentile of per-slice times (or
/// per-slice latency percentiles).
pub fn best_time(per_slice: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(per_slice), 0.10)
}

/// Does a sample of `n` ops leave at least ten beyond percentile `pct`?
/// (The rule that picks each workload's `tail_pct`.)
pub fn tail_supported(n: usize, pct: f64) -> bool {
    (n as f64 * (1.0 - pct) + 1e-9).floor() >= 10.0
}

/// Median and tail (at `tail_pct`) of one slice's op latencies, in µs.
/// Sorts `ns` in place.
pub fn slice_percentiles_us(ns: &mut [u64], tail_pct: f64) -> (f64, f64) {
    ns.sort_unstable();
    (
        quantile_sorted(ns, 0.50) as f64 / 1e3,
        quantile_sorted(ns, tail_pct) as f64 / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [0, 1).
    fn unit(i: u64) -> f64 {
        let x = i
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn best_decile_ignores_a_slowed_third() {
        // 60 slices at a clean rate of 1000/s with ±0.5 % jitter; 30 %
        // of them (two contiguous bursts, as interference comes) run at
        // half speed. Mean and median are dragged; the best decile is
        // not.
        let clean = 1000.0;
        let rates: Vec<f64> = (0..60u64)
            .map(|i| {
                let jitter = 1.0 + (unit(i) - 0.5) * 0.01;
                let slowed = (10..19).contains(&i) || (40..49).contains(&i);
                clean * jitter * if slowed { 0.5 } else { 1.0 }
            })
            .collect();
        let est = best_rate(&rates);
        assert!(
            (est / clean - 1.0).abs() < 0.01,
            "best-decile rate {est} not within 1 % of {clean}"
        );
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean < 0.9 * clean, "the mean must show the disturbance");
        // Same for times: the slowed slices take twice as long.
        let times: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        let t = best_time(&times);
        assert!((t * clean - 1.0).abs() < 0.01, "best-decile time {t}");
    }

    #[test]
    fn quantiles_and_tail_rule() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&v, 0.5), 51);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(600, 0.95));
        assert!(tail_supported(120, 0.90));
        assert!(!tail_supported(120, 0.95));
        let mut ns = vec![3000u64, 1000, 2000, 5000, 4000];
        let (p50, tail) = slice_percentiles_us(&mut ns, 0.9);
        assert_eq!((p50, tail), (3.0, 5.0));
    }
}
