//! Phase 1: pre-processing / priming (§II–III).
//!
//! "These initial simulations along with real-time interactive tools are
//! used to develop a qualitative understanding of the forces and the
//! DNA's response to forces. This qualitative understanding helps in
//! choosing the initial range of parameters over which we will try to
//! find the optimal value."
//!
//! The priming run relaxes the built system, then drags the strand a
//! short distance with a stiff probe spring and measures the force scale
//! the pore opposes with. The κ grid must bracket that scale (the spring
//! must dominate but not overwhelm it), and the v grid is bounded by the
//! strand's relaxation time.

use crate::config::Scale;
use crate::pipeline::pore_simulation;
use serde::{Deserialize, Serialize};
use spice_md::units;
use spice_smd::{run_pull, PullProtocol};
use spice_stats::rng::SeedSequence;

/// What priming learned.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PrimingResult {
    /// Peak spring force encountered while dragging (pN).
    pub peak_force_pn: f64,
    /// Mean |force| during the drag (pN).
    pub mean_force_pn: f64,
    /// Suggested κ search range (pN/Å): bracket the measured stiffness.
    pub kappa_range_pn_per_a: (f64, f64),
    /// Suggested v grid (paper labels, Å/ns).
    pub v_grid: Vec<f64>,
    /// Steps spent.
    pub steps: u64,
}

/// Run the priming phase.
// spice-lint: allow(U001) the paper's three-phase workflow (priming, batch, interactive); tests/phases_workflow.rs runs it end to end
pub fn run_priming(scale: Scale, master_seed: u64) -> PrimingResult {
    let seeds = SeedSequence::new(master_seed);
    let mut sim = pore_simulation(scale, seeds.stream(0));
    // Relax first (static visualization happens on this state).
    let relax = scale.equilibration_steps();
    sim.run(relax, &mut []).expect("priming relaxation");

    // Drag with a stiff probe at a moderate rate and watch the force.
    let probe = PullProtocol {
        kappa_pn_per_a: 500.0,
        v_a_per_ns: 50.0 * scale.velocity_factor(),
        pull_distance: scale.pull_distance() * 0.5,
        dt_ps: 0.01,
        equilibration_steps: scale.equilibration_steps() / 2,
        sample_stride: 10,
    };
    let outcome = run_pull(&mut sim, &probe, seeds.stream(1)).expect("priming drag");
    let forces_pn: Vec<f64> = outcome
        .trajectory
        .samples
        .iter()
        .map(|s| units::force_kcal_to_pn(s.force).abs())
        .collect();
    let peak = forces_pn.iter().cloned().fold(0.0, f64::max);
    let mean = spice_stats::mean(&forces_pn);

    // κ must overpower the opposing force over ~1 Å of slack but stay
    // within ~2 orders of magnitude: the paper's 10–1000 pN/Å bracket.
    let center = peak.max(1.0);
    let kappa_range = (center / 10.0, center * 10.0);

    PrimingResult {
        peak_force_pn: peak,
        mean_force_pn: mean,
        kappa_range_pn_per_a: kappa_range,
        v_grid: PullProtocol::V_GRID.to_vec(),
        steps: relax + outcome.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priming_measures_a_force_scale() {
        let r = run_priming(Scale::Test, 42);
        assert!(r.peak_force_pn > 0.0, "dragging must meet resistance");
        assert!(
            r.peak_force_pn < 5_000.0,
            "forces should be molecular-scale"
        );
        assert!(r.mean_force_pn <= r.peak_force_pn);
        assert!(r.steps > 0);
    }

    #[test]
    fn kappa_range_brackets_paper_grid() {
        let r = run_priming(Scale::Test, 43);
        let (lo, hi) = r.kappa_range_pn_per_a;
        assert!(lo < hi);
        // The paper's middle κ (100 pN/Å) should fall inside the bracket
        // the priming run suggests for this system.
        assert!(
            lo < 100.0 && 100.0 < hi,
            "paper's κ=100 must lie in the suggested range ({lo}, {hi})"
        );
    }

    #[test]
    fn v_grid_is_papers() {
        let r = run_priming(Scale::Test, 44);
        assert_eq!(r.v_grid, vec![12.5, 25.0, 50.0, 100.0]);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_priming(Scale::Test, 7), run_priming(Scale::Test, 7));
    }
}
