//! PMF assembly: from work-trajectory ensembles to Φ(s) curves.
//!
//! The Fig. 4 pipeline: interpolate each realization's accumulated work
//! onto a common displacement grid, apply the Jarzynski estimator per
//! grid point, and attach per-point sample statistics. The x-axis follows
//! the paper: "displacement of COM" — reported as the ensemble-mean COM
//! displacement at each guide position (for stiff springs the two nearly
//! coincide).

use crate::estimator::{cumulant_free_energy, jarzynski_free_energy, mean_work};
use serde::{Deserialize, Serialize};
use spice_smd::WorkTrajectory;

/// Estimator used for a PMF curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Estimator {
    /// Exponential average (exact in principle, biased for finite N).
    Jarzynski,
    /// Second-order cumulant (exact for Gaussian work).
    Cumulant,
    /// Mean work (upper bound; the "irreversible work" curve).
    MeanWork,
}

impl Estimator {
    /// Φ at one grid point from the works of the realizations that cover
    /// it (non-empty). The cumulant needs two samples and falls back to
    /// the single work value below that.
    pub fn free_energy(self, works: &[f64], kt: f64) -> f64 {
        match self {
            Estimator::Jarzynski => jarzynski_free_energy(works, kt),
            Estimator::Cumulant => {
                if works.len() >= 2 {
                    cumulant_free_energy(works, kt)
                } else {
                    works[0]
                }
            }
            Estimator::MeanWork => mean_work(works),
        }
    }
}

/// Guide displacement of point `k` of the uniform `npoints` grid over
/// `[0, span]`, in the pulling direction `sign`.
pub(crate) fn grid_point(sign: f64, span: f64, k: usize, npoints: usize) -> f64 {
    sign * span * k as f64 / (npoints - 1) as f64
}

/// One grid point of a PMF curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct PmfPoint {
    /// Guide displacement λ (Å).
    pub guide_disp: f64,
    /// Ensemble-mean COM displacement at this guide position (Å) — the
    /// Fig. 4 x-axis.
    pub com_disp: f64,
    /// Free-energy estimate Φ (kcal/mol), gauge Φ(0) = 0.
    pub phi: f64,
    /// Number of realizations contributing.
    pub n: usize,
    /// Mean work at this point (kcal/mol) — Φ plus dissipation.
    pub mean_work: f64,
}

/// A PMF curve over a displacement grid.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PmfCurve {
    /// Spring constant of the ensemble (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Pulling velocity of the ensemble (Å/ns).
    pub v_a_per_ns: f64,
    /// Estimator used.
    pub estimator: Estimator,
    /// Grid points ordered by displacement.
    pub points: Vec<PmfPoint>,
}

impl PmfCurve {
    /// Estimate the PMF from an ensemble of trajectories on a uniform
    /// grid of `npoints` over `[0, span]` of guide displacement.
    ///
    /// `kt` is the thermal energy (kcal/mol). Trajectories that do not
    /// cover a grid point simply do not contribute there.
    ///
    /// # Panics
    /// Panics on an empty ensemble or non-positive grid.
    pub fn estimate(
        trajectories: &[WorkTrajectory],
        span: f64,
        npoints: usize,
        kt: f64,
        estimator: Estimator,
    ) -> PmfCurve {
        assert!(!trajectories.is_empty(), "need at least one trajectory");
        assert!(span > 0.0 && npoints >= 2, "degenerate PMF grid");
        let kappa = trajectories[0].kappa_pn_per_a;
        let v = trajectories[0].v_a_per_ns;
        let sign = v.signum();
        let mut points = Vec::with_capacity(npoints);
        let mut works = Vec::with_capacity(trajectories.len());
        let mut coms = Vec::with_capacity(trajectories.len());
        // One forward walk per trajectory along the grid.
        let mut walks: Vec<_> = trajectories.iter().map(WorkTrajectory::walk).collect();
        for k in 0..npoints {
            let s = grid_point(sign, span, k, npoints);
            works.clear();
            coms.clear();
            for walk in &mut walks {
                if let Some((w, c)) = walk.at(s) {
                    works.push(w);
                    coms.push(c);
                }
            }
            if works.is_empty() {
                continue;
            }
            points.push(PmfPoint {
                guide_disp: s,
                com_disp: spice_stats::mean(&coms),
                phi: estimator.free_energy(&works, kt),
                n: works.len(),
                mean_work: mean_work(&works),
            });
        }
        // Gauge: Φ(0) = 0. Equilibration noise can leave a tiny non-zero
        // work at the first grid point; subtract it consistently from both
        // the free energy and the mean work so dissipation is unaffected.
        if let Some(first) = points.first().copied() {
            for p in &mut points {
                p.phi -= first.phi;
                p.mean_work -= first.mean_work;
                p.com_disp -= first.com_disp;
            }
        }
        PmfCurve {
            kappa_pn_per_a: kappa,
            v_a_per_ns: v,
            estimator,
            points,
        }
    }

    /// Φ interpolated at guide displacement `s`; `None` outside the grid.
    pub fn phi_at(&self, s: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let sign = self.v_a_per_ns.signum();
        let key = |p: &PmfPoint| p.guide_disp * sign;
        let target = s * sign;
        let last = self.points.last().expect("points non-empty: checked above");
        if target < key(&self.points[0]) - 1e-9 || target > key(last) + 1e-9 {
            return None;
        }
        let mut prev = &self.points[0];
        for cur in &self.points[1..] {
            if key(cur) >= target {
                let span = key(cur) - key(prev);
                if span <= 0.0 {
                    return Some(cur.phi);
                }
                let w = (target - key(prev)) / span;
                return Some(prev.phi * (1.0 - w) + cur.phi * w);
            }
            prev = cur;
        }
        Some(last.phi)
    }

    /// RMS deviation from another curve over their common grid (requires
    /// identical grids; use for same-sweep comparisons).
    pub fn rms_difference(&self, other: &PmfCurve) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for p in &self.points {
            if let Some(q) = other.phi_at(p.guide_disp) {
                sum += (p.phi - q) * (p.phi - q);
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            (sum / n as f64).sqrt()
        }
    }

    /// Stitch sub-trajectory PMF segments into one long profile: each
    /// segment's Φ is shifted so it starts where the previous ended
    /// (§IV-A's decomposition; free energy is a state function so offsets
    /// add).
    pub fn stitch(segments: &[PmfCurve]) -> PmfCurve {
        assert!(!segments.is_empty(), "nothing to stitch");
        let mut points = Vec::new();
        let mut offset_s = 0.0;
        let mut offset_phi = 0.0;
        for seg in segments {
            for p in &seg.points {
                points.push(PmfPoint {
                    guide_disp: offset_s + p.guide_disp,
                    com_disp: offset_s + p.com_disp,
                    phi: offset_phi + p.phi,
                    n: p.n,
                    mean_work: offset_phi + p.mean_work,
                });
            }
            if let Some(last) = seg.points.last() {
                offset_s += last.guide_disp;
                offset_phi += last.phi;
            }
        }
        PmfCurve {
            kappa_pn_per_a: segments[0].kappa_pn_per_a,
            v_a_per_ns: segments[0].v_a_per_ns,
            estimator: segments[0].estimator,
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_md::units::KT_300;
    use spice_smd::WorkSample;

    /// Synthetic ensemble: work = φ(s) + Gaussian(0, σ) per realization,
    /// with φ(s) = 2 s (linear PMF).
    fn synthetic_ensemble(n: usize, sigma: f64) -> Vec<WorkTrajectory> {
        let g = spice_md::rng::GaussianStream::new(42);
        (0..n)
            .map(|r| {
                // One noise draw per realization per point, correlated along
                // s like real accumulated work (use a running sum).
                let mut acc = 0.0;
                WorkTrajectory {
                    kappa_pn_per_a: 100.0,
                    v_a_per_ns: 12.5,
                    seed: r as u64,
                    samples: (0..=100)
                        .map(|i| {
                            let s = i as f64 * 0.1;
                            acc += sigma * g.sample(r as u64, i) * 0.1;
                            WorkSample {
                                t_ps: s,
                                guide_disp: s,
                                com_disp: s,
                                work: 2.0 * s + acc,
                                force: 2.0,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn recovers_linear_pmf() {
        let ens = synthetic_ensemble(64, 0.3);
        let pmf = PmfCurve::estimate(&ens, 10.0, 21, KT_300, Estimator::Jarzynski);
        assert_eq!(pmf.points.len(), 21);
        for p in &pmf.points {
            assert!(
                (p.phi - 2.0 * p.guide_disp).abs() < 0.35,
                "phi({}) = {} should be ~{}",
                p.guide_disp,
                p.phi,
                2.0 * p.guide_disp
            );
            assert_eq!(p.n, 64);
        }
    }

    #[test]
    fn gauge_starts_at_zero() {
        let ens = synthetic_ensemble(16, 0.2);
        let pmf = PmfCurve::estimate(&ens, 10.0, 11, KT_300, Estimator::Jarzynski);
        assert!(pmf.points[0].phi.abs() < 1e-9);
    }

    #[test]
    fn mean_work_estimator_upper_bounds_je() {
        let ens = synthetic_ensemble(64, 1.0);
        let je = PmfCurve::estimate(&ens, 10.0, 11, KT_300, Estimator::Jarzynski);
        let mw = PmfCurve::estimate(&ens, 10.0, 11, KT_300, Estimator::MeanWork);
        for (a, b) in je.points.iter().zip(&mw.points) {
            assert!(a.phi <= b.phi + 1e-9, "JE must not exceed mean work");
        }
    }

    #[test]
    fn phi_at_interpolates_and_bounds() {
        let ens = synthetic_ensemble(8, 0.0);
        let pmf = PmfCurve::estimate(&ens, 10.0, 11, KT_300, Estimator::Jarzynski);
        assert!((pmf.phi_at(5.0).unwrap() - 10.0).abs() < 1e-6);
        assert!((pmf.phi_at(5.5).unwrap() - 11.0).abs() < 1e-6);
        assert!(pmf.phi_at(11.0).is_none());
    }

    #[test]
    fn rms_difference_of_identical_curves_is_zero() {
        let ens = synthetic_ensemble(8, 0.0);
        let a = PmfCurve::estimate(&ens, 10.0, 11, KT_300, Estimator::Jarzynski);
        assert!(a.rms_difference(&a) < 1e-12);
    }

    #[test]
    fn stitch_concatenates_segments() {
        let ens = synthetic_ensemble(8, 0.0);
        let seg = PmfCurve::estimate(&ens, 5.0, 6, KT_300, Estimator::Jarzynski);
        let stitched = PmfCurve::stitch(&[seg.clone(), seg.clone()]);
        // Two 0..5 segments of slope 2 → continuous 0..10 with Φ(10) = 20.
        let last = stitched.points.last().unwrap();
        assert!((last.guide_disp - 10.0).abs() < 1e-9);
        assert!((last.phi - 20.0).abs() < 1e-6);
        // Monotone displacement.
        for w in stitched.points.windows(2) {
            assert!(w[1].guide_disp >= w[0].guide_disp - 1e-9);
        }
    }

    #[test]
    fn noisier_ensembles_deviate_more() {
        // Sanity: JE from high-noise ensembles deviates more from truth
        // (σ_stat mechanism of Fig. 4).
        let quiet = PmfCurve::estimate(
            &synthetic_ensemble(16, 0.1),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
        );
        let noisy = PmfCurve::estimate(
            &synthetic_ensemble(16, 3.0),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
        );
        let dev = |pmf: &PmfCurve| -> f64 {
            pmf.points
                .iter()
                .map(|p| (p.phi - 2.0 * p.guide_disp).abs())
                .fold(0.0, f64::max)
        };
        assert!(dev(&noisy) > dev(&quiet));
    }
}
