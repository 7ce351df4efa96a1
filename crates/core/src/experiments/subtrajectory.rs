//! T-subtraj — §IV-A: "the further the center of mass of the SMD atoms
//! from its initial position, the greater the statistical and systematic
//! errors; hence when the PMF is required over a long trajectory, it is
//! advantageous to break up a single long trajectory into smaller
//! trajectories."
//!
//! Measured: (a) the per-point statistical error grows with displacement
//! along a single long pull; (b) segmenting the long pull into
//! sub-trajectories and stitching their PMFs bounds the error growth.

use crate::config::Scale;
use crate::pipeline::pore_simulation;
use crate::report::Report;
use spice_jarzynski::error::statistical::pmf_bootstrap_sigma;
use spice_jarzynski::pmf::{Estimator, PmfCurve};
use spice_md::units::KT_300;
use spice_md::MdError;
use spice_smd::{
    partition_outcomes, run_ensemble, segment_trajectory, PullProtocol, WorkTrajectory,
};
use spice_stats::rng::SeedSequence;

/// Outcome of the sub-trajectory study.
pub struct SubtrajStudy {
    /// Per-point (displacement, σ_stat) along the single long pull.
    pub sigma_vs_displacement: Vec<(f64, f64)>,
    /// σ at the far end of the long pull.
    pub sigma_far_long: f64,
    /// σ at the far end of the final stitched segment (same physical
    /// point, segmented estimation).
    pub sigma_far_segmented: f64,
    /// The stitched PMF.
    pub stitched: PmfCurve,
    /// The single-pull PMF.
    pub long: PmfCurve,
    /// Realizations that failed and were dropped from both estimates. When
    /// every one failed, the σs are NaN and both curves are empty.
    pub n_failed: usize,
}

/// Run the study.
pub fn study(scale: Scale, master_seed: u64) -> SubtrajStudy {
    let seeds = SeedSequence::new(master_seed);
    let long_span = scale.pull_distance() * 2.0;
    let protocol = PullProtocol {
        pull_distance: long_span,
        ..scale.protocol(100.0, 100.0)
    };
    let slots = run_ensemble(
        |seed| pore_simulation(scale, seed),
        &protocol,
        scale.realizations(),
        seeds.child(0),
    );
    estimate(scale, seeds, &protocol, slots)
}

/// The study's estimates from the long pulls' slots `slots`, run with
/// `protocol` on `seeds.child(0)`. With no surviving realization there is
/// nothing to estimate: NaN σs, empty curves and every realization
/// counted as failed. With one, the curves exist but the σs are NaN.
fn estimate(
    scale: Scale,
    seeds: SeedSequence,
    protocol: &PullProtocol,
    slots: Vec<Result<WorkTrajectory, MdError>>,
) -> SubtrajStudy {
    let (trajectories, failures) = partition_outcomes(slots);
    if trajectories.is_empty() {
        let empty = PmfCurve {
            kappa_pn_per_a: protocol.kappa_pn_per_a,
            v_a_per_ns: protocol.v_a_per_ns,
            estimator: Estimator::Jarzynski,
            points: Vec::new(),
        };
        return SubtrajStudy {
            sigma_vs_displacement: Vec::new(),
            sigma_far_long: f64::NAN,
            sigma_far_segmented: f64::NAN,
            stitched: empty.clone(),
            long: empty,
            n_failed: failures.len(),
        };
    }

    let long_span = protocol.pull_distance;
    let npts = scale.pmf_points();
    let long = PmfCurve::estimate(&trajectories, long_span, npts, KT_300, Estimator::Jarzynski);
    let sigmas = pmf_bootstrap_sigma(
        &trajectories,
        long_span,
        npts,
        KT_300,
        Estimator::Jarzynski,
        scale.bootstrap_resamples(),
        seeds.stream(7),
    );

    // Segment into paper-style sub-trajectories of half the span.
    let seg_len = long_span / 2.0;
    let seg_trajs: Vec<Vec<WorkTrajectory>> = {
        let mut per_segment: Vec<Vec<WorkTrajectory>> = vec![Vec::new(); 2];
        for t in &trajectories {
            for (i, seg) in segment_trajectory(t, seg_len)
                .into_iter()
                .enumerate()
                .take(2)
            {
                per_segment[i].push(seg);
            }
        }
        per_segment
    };
    let seg_curves: Vec<PmfCurve> = seg_trajs
        .iter()
        .map(|ts| PmfCurve::estimate(ts, seg_len, npts / 2 + 1, KT_300, Estimator::Jarzynski))
        .collect();
    let stitched = PmfCurve::stitch(&seg_curves);
    // σ at the far end of the *second* segment alone (its own origin is
    // re-zeroed, so error does not accumulate from the first half).
    let seg_sigmas = pmf_bootstrap_sigma(
        &seg_trajs[1],
        seg_len,
        npts / 2 + 1,
        KT_300,
        Estimator::Jarzynski,
        scale.bootstrap_resamples(),
        seeds.stream(8),
    );

    SubtrajStudy {
        sigma_far_long: sigmas.last().map(|&(_, s)| s).unwrap_or(f64::NAN),
        sigma_far_segmented: seg_sigmas.last().map(|&(_, s)| s).unwrap_or(f64::NAN),
        sigma_vs_displacement: sigmas,
        stitched,
        long,
        n_failed: failures.len(),
    }
}

/// Run T-subtraj and format.
pub fn run(scale: Scale, master_seed: u64) -> Report {
    report(&study(scale, master_seed))
}

/// Format a study.
fn report(s: &SubtrajStudy) -> Report {
    let mut r = Report::new(
        "T-subtraj",
        "Sub-trajectory decomposition bounds error growth (§IV-A)",
    );
    r.fact(
        "σ_stat at far end, single long pull",
        format!("{:.3}", s.sigma_far_long),
    )
    .fact(
        "σ_stat at far end, segmented",
        format!("{:.3}", s.sigma_far_segmented),
    )
    .fact(
        "stitched PMF end value",
        format!(
            "{:.3}",
            s.stitched.points.last().map(|p| p.phi).unwrap_or(f64::NAN)
        ),
    )
    .fact(
        "long-pull PMF end value",
        format!(
            "{:.3}",
            s.long.points.last().map(|p| p.phi).unwrap_or(f64::NAN)
        ),
    );
    if s.long.points.is_empty() {
        r.fact(
            "failed realizations",
            format!("all {} — no PMF or σ_stat to estimate", s.n_failed),
        );
    } else {
        r.fact("failed realizations", s.n_failed);
    }
    let pts: Vec<Vec<f64>> = s
        .sigma_vs_displacement
        .iter()
        .map(|&(d, sg)| vec![d, sg])
        .collect();
    r.series(
        "σ_stat vs displacement (single long pull)",
        vec!["displacement (Å)".into(), "σ_stat (kcal/mol)".into()],
        &pts,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_grows_along_the_pull() {
        let s = study(Scale::Test, 31);
        let sig = &s.sigma_vs_displacement;
        assert!(sig.len() >= 4);
        // Compare mean σ over the first vs last third.
        let third = sig.len() / 3;
        let early: f64 = sig[1..=third].iter().map(|&(_, v)| v).sum::<f64>() / third as f64;
        let late: f64 = sig[sig.len() - third..]
            .iter()
            .map(|&(_, v)| v)
            .sum::<f64>()
            / third as f64;
        assert!(
            late > early,
            "σ_stat must grow with displacement: early {early:.3} vs late {late:.3}"
        );
    }

    #[test]
    fn segmentation_reduces_far_end_error() {
        let s = study(Scale::Test, 33);
        assert!(
            s.sigma_far_segmented < s.sigma_far_long,
            "segment re-zeroing must bound error: {} vs {}",
            s.sigma_far_segmented,
            s.sigma_far_long
        );
    }

    /// A study whose every realization failed is a result, not a panic:
    /// NaN σs, empty curves, every realization counted as failed, and a
    /// report that says so.
    #[test]
    fn an_all_failed_study_estimates_to_nothing() {
        let n = Scale::Test.realizations();
        let failed = || MdError::NumericalBlowup {
            step: 7,
            what: "non-finite state during pull".into(),
        };
        let slots = (0..n).map(|_| Err(failed())).collect();
        let protocol = Scale::Test.protocol(100.0, 100.0);
        let s = estimate(Scale::Test, SeedSequence::new(3), &protocol, slots);
        assert!(s.sigma_far_long.is_nan() && s.sigma_far_segmented.is_nan());
        assert!(s.sigma_vs_displacement.is_empty());
        assert!(s.long.points.is_empty() && s.stitched.points.is_empty());
        assert_eq!(s.n_failed, n);
        let text = report(&s).render();
        assert!(
            text.contains("all 6 — no PMF or σ_stat to estimate"),
            "{text}"
        );
    }

    /// One surviving realization gives both PMFs but no σ to bootstrap:
    /// NaN far-end σs and an empty σ series, not a panic.
    #[test]
    fn a_study_with_one_survivor_estimates_without_sigma() {
        let n = Scale::Test.realizations();
        let protocol = PullProtocol {
            pull_distance: Scale::Test.pull_distance() * 2.0,
            ..Scale::Test.protocol(100.0, 100.0)
        };
        let mut slots: Vec<Result<WorkTrajectory, MdError>> = (1..n)
            .map(|_| {
                Err(MdError::NumericalBlowup {
                    step: 7,
                    what: "non-finite state during pull".into(),
                })
            })
            .collect();
        slots.push(Ok(crate::pipeline::tests::synthetic_trajectory(
            protocol.pull_distance,
            protocol.v_a_per_ns,
        )));
        let s = estimate(Scale::Test, SeedSequence::new(3), &protocol, slots);
        assert!(s.sigma_far_long.is_nan() && s.sigma_far_segmented.is_nan());
        assert!(s.sigma_vs_displacement.is_empty());
        assert!(!s.long.points.is_empty() && !s.stitched.points.is_empty());
        assert_eq!(s.n_failed, n - 1);
    }

    #[test]
    fn stitched_profile_spans_full_distance() {
        let s = study(Scale::Test, 33);
        let end = s.stitched.points.last().unwrap().guide_disp;
        let span = Scale::Test.pull_distance() * 2.0;
        assert!((end - span).abs() < 0.8, "stitched span {end} vs {span}");
    }
}
