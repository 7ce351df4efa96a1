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
    /// Realizations that failed and were dropped from both estimates.
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
    let (trajectories, failures) = partition_outcomes(run_ensemble(
        |seed| pore_simulation(scale, seed),
        &protocol,
        scale.realizations(),
        seeds.child(0),
    ));
    assert!(!trajectories.is_empty());

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
    let s = study(scale, master_seed);
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
    r.fact("failed realizations", s.n_failed);
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

    #[test]
    fn stitched_profile_spans_full_distance() {
        let s = study(Scale::Test, 33);
        let end = s.stitched.points.last().unwrap().guide_disp;
        let span = Scale::Test.pull_distance() * 2.0;
        assert!((end - span).abs() < 0.8, "stitched span {end} vs {span}");
    }
}
