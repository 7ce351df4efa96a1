//! T-bidir — ablation/extension: bidirectional (Crooks/BAR) estimation
//! on the same infrastructure.
//!
//! §VI argues the SPICE grid infrastructure generalizes to "different
//! approaches" for free energies. Bidirectional pulling is the canonical
//! one: run half the ensemble forward, half backward, and combine with
//! the Bennett acceptance ratio. This experiment measures what the
//! upgrade buys: BAR's end-to-end ΔΦ versus one-sided JE versus the TI
//! reference, at matched total compute.

use crate::config::Scale;
use crate::pipeline::{pore_simulation, reference_profile};
use crate::report::Report;
use spice_jarzynski::crooks::{bar_free_energy, hysteresis};
use spice_jarzynski::jarzynski_free_energy;
use spice_md::units::KT_300;
use spice_md::MdError;
use spice_smd::{partition_outcomes, run_ensemble, shift_to_far_end, PullProtocol, WorkTrajectory};
use spice_stats::rng::SeedSequence;

/// Outcome of the bidirectional study.
#[derive(Debug, Clone, PartialEq)]
pub struct BidirResult {
    /// One-sided JE estimate of ΔΦ over the sub-trajectory (forward
    /// ensemble only, 2n realizations).
    pub je_forward: f64,
    /// BAR estimate (n forward + n reverse).
    pub bar: f64,
    /// TI reference ΔΦ.
    pub ti_reference: f64,
    /// Mean hysteresis (dissipated work) of the protocol pair.
    pub hysteresis: f64,
    /// Realizations per direction.
    pub n_per_direction: usize,
    /// Failed (dropped) realizations, forward and reverse. When every
    /// realization of a leg failed, the estimates that need it are NaN.
    pub n_failed: [usize; 2],
}

/// The final works of an ensemble's successful realizations, and how
/// many failed.
fn final_works(slots: Vec<Result<WorkTrajectory, MdError>>) -> (Vec<f64>, usize) {
    let (trajectories, failures) = partition_outcomes(slots);
    let works = trajectories.iter().map(|t| t.final_work()).collect();
    (works, failures.len())
}

/// Run the study at the paper-optimal (κ = 100, v = 12.5).
pub fn study(scale: Scale, master_seed: u64) -> BidirResult {
    let seeds = SeedSequence::new(master_seed);
    let protocol = scale.protocol(100.0, 12.5);
    let n = scale.realizations() / 2;
    let pore = |seed| pore_simulation(scale, seed);

    let forward = run_ensemble(pore, &protocol, 2 * n, seeds.child(1));
    // The reverse leg must start from *equilibrium in the end state*: the
    // strand is shifted there mechanically, so it gets substantially more
    // equilibration than a forward pull needs, then is pulled back at −v.
    let reverse_protocol = PullProtocol {
        v_a_per_ns: -protocol.v_a_per_ns,
        equilibration_steps: protocol.equilibration_steps * 5,
        ..protocol
    };
    let at_far_end = |seed| {
        let mut sim = pore(seed);
        shift_to_far_end(&mut sim, &protocol);
        sim
    };
    let reverse = run_ensemble(at_far_end, &reverse_protocol, n, seeds.child(2));

    let reference = reference_profile(scale, seeds.child(3));
    let ti_end = reference.last().map(|&(_, p)| p).unwrap_or(f64::NAN);
    estimate(n, forward, reverse, ti_end)
}

/// The study's estimates from its `2n` forward and `n` reverse slots and
/// the TI reference's end value. A leg whose every realization failed
/// leaves the estimates that need it NaN (JE needs the forward leg; BAR
/// and the hysteresis need both).
fn estimate(
    n: usize,
    forward: Vec<Result<WorkTrajectory, MdError>>,
    reverse: Vec<Result<WorkTrajectory, MdError>>,
    ti_reference: f64,
) -> BidirResult {
    let (forward, failed_forward) = final_works(forward);
    let (reverse, failed_reverse) = final_works(reverse);
    BidirResult {
        je_forward: jarzynski_free_energy(&forward, KT_300),
        bar: bar_free_energy(&forward[..n.min(forward.len())], &reverse, KT_300),
        ti_reference,
        hysteresis: hysteresis(&forward, &reverse),
        n_per_direction: n,
        n_failed: [failed_forward, failed_reverse],
    }
}

/// Run T-bidir.
pub fn run(scale: Scale, master_seed: u64) -> Report {
    report(&study(scale, master_seed))
}

/// Format a study.
fn report(s: &BidirResult) -> Report {
    let mut r = Report::new(
        "T-bidir",
        "Bidirectional (Crooks/BAR) extension vs one-sided SMD-JE (§VI)",
    );
    let [forward, reverse] = s.n_failed;
    let lost = match (
        forward == 2 * s.n_per_direction,
        reverse == s.n_per_direction,
    ) {
        (true, _) => " — every forward realization failed: no JE, BAR or hysteresis",
        (false, true) => " — every reverse realization failed: no BAR or hysteresis",
        (false, false) => "",
    };
    r.fact("realizations per direction", s.n_per_direction)
        .fact(
            "failed realizations",
            format!("{forward} forward, {reverse} reverse{lost}"),
        )
        .fact("ΔΦ, one-sided JE", format!("{:.2} kcal/mol", s.je_forward))
        .fact("ΔΦ, BAR", format!("{:.2} kcal/mol", s.bar))
        .fact(
            "ΔΦ, TI reference",
            format!("{:.2} kcal/mol", s.ti_reference),
        )
        .fact(
            "|bias| JE / BAR vs TI",
            format!(
                "{:.2} / {:.2} kcal/mol",
                (s.je_forward - s.ti_reference).abs(),
                (s.bar - s.ti_reference).abs()
            ),
        )
        .fact(
            "protocol hysteresis",
            format!("{:.2} kcal/mol", s.hysteresis),
        );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_smd::WorkSample;

    #[test]
    fn bidirectional_study_is_sane() {
        let s = study(Scale::Test, 4242);
        assert!(s.je_forward.is_finite());
        assert!(s.bar.is_finite());
        assert!(s.ti_reference.is_finite());
        // BAR must land between the one-sided bounds ⟨W_F⟩ and −⟨W_R⟩
        // (up to estimator noise); loosely: within the hysteresis band.
        assert!(
            (s.bar - s.ti_reference).abs() < 12.0,
            "BAR {} wildly off TI {}",
            s.bar,
            s.ti_reference
        );
        assert!(
            s.hysteresis > -1.0,
            "hysteresis {} must be ≥ ~0",
            s.hysteresis
        );
    }

    /// A leg whose every realization failed is a result, not a panic: the
    /// estimates that need it are NaN and the report says so.
    #[test]
    fn an_all_failed_leg_estimates_to_nan() {
        let failed = |n: usize| -> Vec<Result<WorkTrajectory, MdError>> {
            let e = || MdError::NumericalBlowup {
                step: 7,
                what: "non-finite state during pull".into(),
            };
            (0..n).map(|_| Err(e())).collect()
        };
        let s = estimate(3, failed(6), failed(3), 1.5);
        assert!(s.je_forward.is_nan() && s.bar.is_nan() && s.hysteresis.is_nan());
        assert_eq!((s.ti_reference, s.n_failed), (1.5, [6, 3]));
        let text = report(&s).render();
        assert!(
            text.contains("6 forward, 3 reverse — every forward"),
            "{text}"
        );

        let work = |w: f64| WorkSample {
            t_ps: 0.0,
            guide_disp: 0.0,
            com_disp: 0.0,
            work: w,
            force: 0.0,
        };
        let forward = (0..6).map(|i| {
            Ok(WorkTrajectory {
                kappa_pn_per_a: 100.0,
                v_a_per_ns: 12.5,
                seed: i,
                samples: vec![work(0.0), work(1.0 + i as f64)],
            })
        });
        let s = estimate(3, forward.collect(), failed(3), 1.5);
        assert!(s.je_forward.is_finite());
        assert!(s.bar.is_nan() && s.hysteresis.is_nan());
        assert_eq!(s.n_failed, [0, 3]);
        let text = report(&s).render();
        assert!(
            text.contains("0 forward, 3 reverse — every reverse"),
            "{text}"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(Scale::Test, 2);
        assert!(r.render().contains("BAR"));
    }
}
