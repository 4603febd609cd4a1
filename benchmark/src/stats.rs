//! Order statistics: nearest-rank percentiles with the sample-count rule,
//! and the median/quartile summary `compare` and the driver judge runs by.

/// Samples that must lie beyond a reported percentile for it to mean
/// anything (choosing-metrics §1).
const SAMPLES_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending sample (`p` in 0..=1); 0 when
/// the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `p` that still has ten samples beyond
/// it in a sample of `n`; never below the median.
pub fn supported(n: usize, p: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    p.min(1.0 - SAMPLES_BEYOND / n as f64).max(0.5)
}

/// `percentile` at the level `supported` allows.
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, supported(sorted.len(), p))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method), which is what the driver computes. With
/// fewer than two values both equal the only value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Quartile distance over the median: the run-to-run spread a bound must
/// exceed for a pairing to be resolvable.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_level_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it.
        assert_eq!(supported(1000, 0.99), 0.99);
        // 500 samples support p98, not p99.
        assert!((supported(500, 0.99) - 0.98).abs() < 1e-12);
        // 200 samples support p95.
        assert_eq!(supported(200, 0.95), 0.95);
        // Tiny samples fall back to the median.
        assert_eq!(supported(12, 0.95), 0.5);
        assert_eq!(supported(0, 0.95), 0.5);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 0.99), 490.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[]), 0.0);
    }
}
