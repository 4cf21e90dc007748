//! Sample statistics: nearest-rank percentiles and the tail rule.
//!
//! A tail percentile is reported only when the sample holds at least
//! [`MIN_BEYOND`] values beyond it; below that its value is set by a
//! handful of samples and moves from run to run for no reason.

/// Samples a tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank percentile `p` in `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps decimal percentiles such as 99.9 from rounding
    // up a whole rank through binary floating point.
    let r = (p * n as f64 / 100.0 - 1e-6).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the percentile-`p` rank in `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// True when percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of p99.9, p99, p95, p90 and p50 that `n` samples support,
/// if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supported(n, p))
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one latency.
    pub fn push(&mut self, d: std::time::Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    /// Appends another sample.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Percentile `p` in ms (NaN for an empty sample).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.ms.is_empty() {
            return f64::NAN;
        }
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1,000 samples: p99 is the 990th value (index 989), 10 beyond.
        assert_eq!(rank(1_000, 99.0), 989);
        assert_eq!(beyond(1_000, 99.0), 10);
        assert!(supported(1_000, 99.0));
        // 999 samples: ceil(989.01) is still the 990th value, 9 beyond.
        assert_eq!(rank(999, 99.0), 989);
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supported(999, 99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut l = Latencies::default();
        for ms in [5u64, 1, 3] {
            l.push(std::time::Duration::from_millis(ms));
        }
        assert_eq!(l.len(), 3);
        assert!((l.percentile(50.0) - 3.0).abs() < 1e-9);
    }
}
