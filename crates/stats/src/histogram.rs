//! Fixed-width histograms with underflow/overflow tracking.
//!
//! Used for work distributions (§IV), network latency/jitter distributions
//! (T-imd), and queue-wait distributions in the grid simulator.

use serde::{Deserialize, Serialize};

/// A fixed-width 1-D histogram over `[lo, hi)` with `nbins` bins.
///
/// Observations outside the range are counted separately (they are *not*
/// clamped into edge bins), so the caller can detect a misjudged range.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total_in_range: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            width: (hi - lo) / nbins as f64,
            counts: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total_in_range: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            // Floating-point rounding can land exactly on len(); clamp.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
            self.total_in_range += 1;
        }
    }

    /// Record every element of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All in-range bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center x-value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range.
    pub fn total(&self) -> u64 {
        self.total_in_range + self.underflow + self.overflow
    }

    /// In-range observations.
    pub fn total_in_range(&self) -> u64 {
        self.total_in_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.99);
        h.record(5.0);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.total_in_range(), 3);
    }

    #[test]
    fn out_of_range_tracked_separately() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // upper edge is exclusive
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total_in_range(), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_center(9) - 9.5).abs() < 1e-12);
    }
}
