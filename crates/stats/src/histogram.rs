//! Fixed-width histograms over a range: WHAM's per-window sample
//! histograms.

use serde::{Deserialize, Serialize};

/// A fixed-width 1-D histogram over `[lo, hi)` with `nbins` bins.
///
/// Observations outside the range are not counted (they are *not*
/// clamped into edge bins), so [`total_in_range`](Self::total_in_range)
/// counts only what the bins hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    width: f64,
    counts: Vec<u64>,
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
            total_in_range: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo || x >= self.hi {
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        // Floating-point rounding can land exactly on len(); clamp.
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total_in_range += 1;
    }

    /// Record every element of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
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
    fn out_of_range_observations_are_not_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // upper edge is exclusive
        h.record(2.0);
        assert_eq!(h.total_in_range(), 0);
        assert!((0..4).all(|i| h.count(i) == 0), "no edge-bin clamping");
    }
}
