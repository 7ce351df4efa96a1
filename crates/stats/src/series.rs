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

    /// Mean y per bin (NaN where empty), paired with bin centers.
    pub fn mean_curve(&self) -> Vec<(f64, f64)> {
        (0..self.nbins())
            .map(|i| (self.bin_center(i), self.bins[i].mean()))
            .collect()
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
        let means = b.mean_curve();
        assert_eq!(means[0].1, 1.0);
        assert_eq!(means[9].1, 2.0);
        assert!(means[1..9].iter().all(|&(_, y)| y.is_nan()));
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
}
