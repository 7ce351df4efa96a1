//! Batch and streaming descriptive statistics.
//!
//! The streaming accumulator ([`RunningStats`]) uses Welford's algorithm so
//! that long MD time series (millions of steps) can be summarized in one
//! pass without storing samples and without catastrophic cancellation.

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased (n-1) sample variance. Returns `NaN` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean, `s / sqrt(n)`, assuming independent samples.
///
/// For correlated series use [`crate::autocorr::effective_sample_size`]
/// to deflate `n` first.
pub fn std_error(xs: &[f64]) -> f64 {
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Linear-interpolated quantile of an **unsorted** slice, `q` in `[0, 1]`.
///
/// Copies and sorts internally; intended for analysis-time use, not inner
/// loops. Returns `NaN` for an empty slice or `q` outside `[0, 1]`. NaN
/// samples sort deterministically after every finite value (`total_cmp`
/// order) instead of poisoning the sort.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Single-pass streaming moments via Welford's algorithm.
///
/// Tracks count, mean, the M2 central-moment accumulator, min and max.
/// Numerically stable for long series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulate every element of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn mean_empty_is_nan() {
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_of_known_values() {
        // var([2,4,4,4,5,5,7,9]) with n-1 = 32/7
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_single_sample_is_nan() {
        assert!(variance(&[3.0]).is_nan());
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.0)
            .collect();
        let mut rs = RunningStats::new();
        rs.extend(&xs);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-10);
        assert_eq!(rs.count(), 100);
        assert_eq!(rs.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            rs.max(),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn std_error_scales_with_n() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let se = std_error(&xs);
        assert!((se - std_dev(&xs) / (8f64).sqrt()).abs() < 1e-15);
    }
}
