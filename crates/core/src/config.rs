//! Run-scale configuration.
//!
//! The paper's production pulls cover 10 Å at 12.5–100 Å/ns on a
//! 300,000-atom system. Our coarse-grained substitute is ~10³× cheaper
//! per step, so experiments keep the paper's *ratios* (the physics of
//! Fig. 4 depends on ratios, not absolute values) while scaling the
//! velocity grid up by a fixed factor to fit laptop wall-clock budgets.
//! DESIGN.md records this substitution.

use serde::{Deserialize, Serialize};
use spice_smd::PullProtocol;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// CI-friendly: seconds per experiment.
    Test,
    /// Bench/default: tens of seconds for the full Fig. 4 sweep.
    Bench,
    /// Overnight: closest to the paper's sampling.
    Paper,
}

impl Scale {
    /// Velocity multiplier applied to the paper's Å/ns grid. The
    /// coarse-grained beads relax in ~0.5 ps, so even the paper's true
    /// velocities are tractable here; Test/Bench scale up modestly to
    /// keep CI fast while staying far below the ballistic regime.
    pub fn velocity_factor(self) -> f64 {
        match self {
            Scale::Test => 8.0,
            Scale::Bench => 1.0,
            Scale::Paper => 1.0,
        }
    }

    /// Pull distance (Å) — the paper's 10 Å sub-trajectory, shortened for
    /// tests.
    pub fn pull_distance(self) -> f64 {
        match self {
            Scale::Test => 4.0,
            Scale::Bench => 10.0,
            Scale::Paper => 10.0,
        }
    }

    /// Realizations per (κ, v) cell.
    pub fn realizations(self) -> usize {
        match self {
            Scale::Test => 6,
            Scale::Bench => 24,
            Scale::Paper => 72,
        }
    }

    /// Equilibration steps before each pull.
    pub fn equilibration_steps(self) -> u64 {
        match self {
            Scale::Test => 300,
            Scale::Bench => 2_000,
            Scale::Paper => 5_000,
        }
    }

    /// Post-clone decorrelation steps when a cell amortizes equilibration
    /// via checkpoint/clone (`run_ensemble_batched`): each realization is
    /// forked from the shared equilibrated snapshot and held this many
    /// extra steps under its own noise stream before pulling. Sized at a
    /// few thermostat relaxation times (γ = 5 ps⁻¹, dt = 0.01 ps →
    /// 1/(γ·dt) = 20 steps) — long enough to wash out the correlated
    /// start, an order of magnitude shorter than full equilibration.
    pub fn decorrelation_steps(self) -> u64 {
        match self {
            Scale::Test => 60,
            Scale::Bench => 200,
            Scale::Paper => 500,
        }
    }

    /// DNA length (bases) of the model strand.
    pub fn dna_bases(self) -> usize {
        match self {
            Scale::Test => 8,
            Scale::Bench => 12,
            Scale::Paper => 16,
        }
    }

    /// PMF grid points over the pull distance.
    pub fn pmf_points(self) -> usize {
        match self {
            Scale::Test => 9,
            Scale::Bench => 21,
            Scale::Paper => 41,
        }
    }

    /// Bootstrap resamples for σ_stat.
    pub fn bootstrap_resamples(self) -> usize {
        match self {
            Scale::Test => 60,
            Scale::Bench => 200,
            Scale::Paper => 1_000,
        }
    }

    /// Minimum realizations per cell for the batched SoA engine
    /// (`spice_smd::run_ensemble_batched_traced`) over the cloned
    /// per-replica path: 1, since the batched engine pads its lanes to
    /// whole SIMD vectors and wins at every scale. [`run_cell`] batches
    /// every cell; this stays for callers that mirror its routing.
    ///
    /// [`run_cell`]: crate::pipeline::run_cell
    pub fn batch_min_realizations(self) -> usize {
        1
    }

    /// The pulling protocol for one paper-unit (κ [pN/Å], v [Å/ns]) cell
    /// at this scale: paper labels in, scaled velocities out.
    pub fn protocol(self, kappa_pn_per_a: f64, v_a_per_ns: f64) -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a,
            v_a_per_ns: v_a_per_ns * self.velocity_factor(),
            pull_distance: self.pull_distance(),
            dt_ps: 0.01,
            equilibration_steps: self.equilibration_steps(),
            sample_stride: 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_ratios_preserved() {
        // Whatever the factor, 100/12.5 must stay 8 — the paper's cost
        // normalization depends on it.
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let slow = scale.protocol(100.0, 12.5);
            let fast = scale.protocol(100.0, 100.0);
            assert!((fast.v_a_per_ns / slow.v_a_per_ns - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scales_are_ordered_by_cost() {
        let cost = |s: Scale| s.protocol(100.0, 12.5).pull_steps() * s.realizations() as u64;
        assert!(cost(Scale::Test) < cost(Scale::Bench));
        assert!(cost(Scale::Bench) < cost(Scale::Paper));
    }

    #[test]
    fn protocols_are_valid() {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            for &k in &PullProtocol::KAPPA_GRID {
                for &v in &PullProtocol::V_GRID {
                    scale.protocol(k, v).validate();
                }
            }
        }
    }
}
