//! x/y series binning: scattered (x, y) samples aggregated per bin of a
//! uniform grid. Fig. 3's spacing-vs-z curve (`spice-pore`'s analysis)
//! bins each link's spacing by the z of its midpoint this way.

use crate::descriptive::RunningStats;

/// Per-bin aggregation of (x, y) samples over a uniform grid on `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    lo: f64,
    width: f64,
    bins: Vec<RunningStats>,
    /// Raw y-samples per bin, kept so nonlinear estimators (Jarzynski) can
    /// operate on the full per-bin sample, not just its moments.
    samples: Vec<Vec<f64>>,
}

impl BinnedSeries {
    /// New empty grid over `[lo, hi)` with `nbins` bins.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0 && hi > lo, "invalid binned-series grid");
        BinnedSeries {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: vec![RunningStats::new(); nbins],
            samples: vec![Vec::new(); nbins],
        }
    }

    /// Record an (x, y) pair; out-of-range x is ignored and reported back
    /// as `false`.
    pub fn record(&mut self, x: f64, y: f64) -> bool {
        let idx = (x - self.lo) / self.width;
        if idx < 0.0 {
            return false;
        }
        let idx = idx as usize;
        if idx >= self.bins.len() {
            return false;
        }
        self.bins[idx].push(y);
        self.samples[idx].push(y);
        true
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Center x of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Streaming stats of bin `i`.
    pub fn stats(&self, i: usize) -> &RunningStats {
        &self.bins[i]
    }

    /// Raw y-samples collected in bin `i`.
    pub fn samples(&self, i: usize) -> &[f64] {
        &self.samples[i]
    }

    /// Mean y per bin (NaN where empty), paired with bin centers.
    pub fn mean_curve(&self) -> Vec<(f64, f64)> {
        (0..self.nbins())
            .map(|i| (self.bin_center(i), self.bins[i].mean()))
            .collect()
    }

    /// Merge a compatible grid (same lo/width/nbins) into this one.
    ///
    /// # Panics
    /// Panics on grid mismatch.
    pub fn merge(&mut self, other: &BinnedSeries) {
        assert_eq!(self.lo, other.lo, "grid lo mismatch");
        assert_eq!(self.width, other.width, "grid width mismatch");
        assert_eq!(self.nbins(), other.nbins(), "grid size mismatch");
        for i in 0..self.nbins() {
            self.bins[i].merge(&other.bins[i]);
            self.samples[i].extend_from_slice(&other.samples[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_bins() {
        let mut b = BinnedSeries::new(0.0, 10.0, 10);
        assert!(b.record(0.1, 1.0));
        assert!(b.record(9.9, 2.0));
        assert!(!b.record(10.0, 3.0));
        assert!(!b.record(-0.5, 3.0));
        assert_eq!(b.stats(0).count(), 1);
        assert_eq!(b.stats(9).count(), 1);
        assert_eq!(b.samples(9), &[2.0]);
    }

    #[test]
    fn mean_curve_recovers_function() {
        let pairs: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let x = i as f64 / 100.0;
                (x, 2.0 * x)
            })
            .collect();
        let mut b = BinnedSeries::new(0.0, 10.0, 10);
        for &(x, y) in &pairs {
            b.record(x, y);
        }
        for (x, y) in b.mean_curve() {
            assert!((y - 2.0 * x).abs() < 0.1, "bin at {x} gave {y}");
        }
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = BinnedSeries::new(0.0, 1.0, 2);
        let mut b = BinnedSeries::new(0.0, 1.0, 2);
        a.record(0.25, 1.0);
        b.record(0.25, 3.0);
        a.merge(&b);
        assert_eq!(a.stats(0).count(), 2);
        assert!((a.stats(0).mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.samples(0), &[1.0, 3.0]);
    }
}
