//! Log-bucketed histograms whose state is independent of recording order.
//!
//! The aggregation substrate for every latency/size distribution the
//! analysis layer reports. Design constraints, in priority order:
//!
//! 1. **Order-independent recording.** Span durations from several trace
//!    shards, recorded into one histogram, must give the same bytes
//!    whatever order the shards arrive in. Bucket counts are integers
//!    (addition commutes *and* associates exactly), and min/max are
//!    lattice operations — so the state is a pure function of the
//!    multiset of recorded values. No floating-point accumulator is
//!    stored: the sum is reconstructed from bucket counts at read time,
//!    in bucket-index order, so even it is permutation-invariant.
//! 2. **Exact-within-bucket quantiles.** Buckets are geometric with 8
//!    sub-buckets per power of two (relative width `2^(1/8) ≈ 1.09`), so
//!    any reported quantile lies within ~9% of the exact order statistic
//!    — and `quantile(1.0)` returns the exact maximum because estimates
//!    are clamped to the recorded `[min, max]`.
//! 3. **No transcendentals on the record path.** The bucket index is
//!    computed from the IEEE-754 exponent plus eight precomputed mantissa
//!    thresholds — integer compares only, bit-identical on every
//!    platform.

use std::collections::BTreeMap;

/// Sub-buckets per power of two. Relative bucket width is
/// `2^(1/SUB_BUCKETS) - 1 ≈ 9%`.
const SUB_BUCKETS: i64 = 8;

/// Mantissa thresholds `2^(k/8)` for `k = 1..=7`, used to pick the
/// sub-bucket of a normalized mantissa in `[1, 2)`.
const SUB_THRESHOLDS: [f64; 7] = [
    1.0905077326652577,       // 2^(1/8)
    1.189207115002721,        // 2^(2/8)
    1.2968395546510096,       // 2^(3/8)
    std::f64::consts::SQRT_2, // 2^(4/8)
    1.5422108254079407,       // 2^(5/8)
    1.681792830507429,        // 2^(6/8)
    1.8340080864093424,       // 2^(7/8)
];

/// Geometric midpoints `2^((k+0.5)/8)` for `k = 0..=7`: the
/// representative value reported for a sub-bucket.
const SUB_MIDPOINTS: [f64; 8] = [
    1.0442737824274138, // 2^(0.5/8)
    1.1387886347566916, // 2^(1.5/8)
    1.241857812073484,  // 2^(2.5/8)
    1.3542555469368927, // 2^(3.5/8)
    1.4768261459394993, // 2^(4.5/8)
    1.6104903319492543, // 2^(5.5/8)
    1.756551184299977,  // 2^(6.5/8)
    1.915832283924811,  // 2^(7.5/8)
];

/// Quantile summary reported by [`LogHistogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median (bucket-resolution).
    pub p50: f64,
    /// 95th percentile (bucket-resolution).
    pub p95: f64,
    /// 99th percentile (bucket-resolution).
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// A log-bucketed histogram over non-negative values.
///
/// Values `v <= 0` (and subnormals, below any realistic duration) land
/// in a dedicated zero bucket; NaN is ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Count per geometric bucket, keyed by `exponent * 8 + sub`.
    counts: BTreeMap<i64, u64>,
    /// Count of values `<= 0` or subnormal.
    zero: u64,
    /// Total observations.
    count: u64,
    /// Exact minimum (`+inf` when empty).
    min: f64,
    /// Exact maximum (`-inf` when empty).
    max: f64,
}

/// Bucket index of a positive normal `f64`: IEEE exponent times 8 plus
/// the sub-bucket its mantissa falls into.
fn bucket_index(v: f64) -> i64 {
    let bits = v.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    // Normalized mantissa in [1, 2).
    let mantissa = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let mut sub = 0i64;
    for t in SUB_THRESHOLDS {
        if mantissa >= t {
            sub += 1;
        }
    }
    exponent * SUB_BUCKETS + sub
}

/// Representative value (geometric midpoint) of bucket `idx`.
fn bucket_midpoint(idx: i64) -> f64 {
    let exponent = idx.div_euclid(SUB_BUCKETS);
    let sub = idx.rem_euclid(SUB_BUCKETS) as usize;
    // 2^exponent as an exact bit pattern (exponent is in normal range
    // because the index came from a normal f64).
    let pow2 = f64::from_bits(((exponent + 1023) as u64) << 52);
    pow2 * SUB_MIDPOINTS[sub]
}

// NOT derived: the derive would zero the min/max sentinels, silently
// pinning `min` at 0.0 for every histogram built through `or_default()`.
impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: BTreeMap::new(),
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. NaN is ignored; `v <= 0` and subnormals
    /// count in the zero bucket.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v >= f64::MIN_POSITIVE && v.is_finite() {
            *self.counts.entry(bucket_index(v)).or_insert(0) += 1;
        } else if v > 0.0 && !v.is_finite() {
            // +inf: park in the top bucket so ranks stay consistent.
            *self.counts.entry(i64::MAX).or_insert(0) += 1;
        } else {
            self.zero += 1;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Exact maximum (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The `q`-quantile under the nearest-rank definition (`q` clamped
    /// to `[0, 1]`): the representative of the bucket holding the
    /// `ceil(q·n)`-th smallest value, clamped to the exact `[min, max]`.
    /// The result is within one bucket width (~9% relative) of the exact
    /// order statistic; `quantile(0.0)` and `quantile(1.0)` are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = self.zero;
        if rank <= seen {
            // The rank falls among the non-positive values; min is exact
            // for rank 1 and bounds the rest from below.
            return self.min.min(0.0).max(self.min);
        }
        for (&idx, &n) in &self.counts {
            seen += n;
            if rank <= seen {
                let mid = if idx == i64::MAX {
                    f64::INFINITY
                } else {
                    bucket_midpoint(idx)
                };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50/p95/p99/max plus the count.
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_empty_histogram() {
        // Regression: a derived Default once zeroed the min/max
        // sentinels, pinning min at 0.0 for every `or_default()` fold.
        let mut h = LogHistogram::default();
        assert_eq!(h, LogHistogram::new());
        h.record(115.0);
        h.record(115.0);
        assert_eq!(h.min(), 115.0);
        assert_eq!(h.quantile(0.5), 115.0);
    }

    #[test]
    fn empty_histogram_reports_nan() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        assert!(h.min().is_nan() && h.max().is_nan());
    }

    #[test]
    fn single_value_is_exact_at_extremes() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        assert_eq!(h.quantile(0.0), 42.0);
        assert_eq!(h.quantile(1.0), 42.0);
        assert_eq!(h.summary().max, 42.0);
    }

    #[test]
    fn quantiles_track_order_statistics_within_bucket_width() {
        let mut h = LogHistogram::new();
        let mut values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!(
                (est / exact - 1.0).abs() < 0.10,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_and_negative_values_hit_the_zero_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        // Rank 1 falls in the zero bucket; the reported value is bounded
        // by the exact min.
        assert!(h.quantile(0.01) <= 0.0);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_matches_midpoints() {
        let mut last = i64::MIN;
        for i in 1..4000 {
            let v = i as f64 * 0.01;
            let idx = bucket_index(v);
            assert!(idx >= last, "index monotone in v");
            last = last.max(idx);
            let mid = bucket_midpoint(idx);
            assert!(
                (mid / v - 1.0).abs() < 0.095,
                "midpoint {mid} within a bucket of {v}"
            );
        }
    }

    #[test]
    fn infinity_lands_in_the_top_bucket() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }
}
