//! Statistical error of the JE estimate, with the paper's cost
//! normalization.

use crate::pmf::{grid_point, Estimator};
use spice_smd::WorkTrajectory;
use spice_stats::rng::seed_stream;

/// Bootstrap standard error of the PMF at each grid point, resampling
/// whole *trajectories* (realizations are the independent unit, not
/// individual work samples).
///
/// Returns `(guide_disp, sigma)` per grid point. Deterministic under
/// `seed`. Each resample's curve is the Φ that
/// [`crate::pmf::PmfCurve::estimate`] gives for the drawn trajectories,
/// computed without copying them: every trajectory is interpolated onto
/// the grid once, into a table of work values, and a resample reads the
/// rows its draws pick. As in `PmfCurve::estimate`, a grid point no drawn
/// trajectory covers is left out of that resample's curve, and point
/// `j`'s σ is taken over the resamples whose curves have a `j`-th point;
/// the output grid is the first resample's.
///
/// Fewer than two trajectories give an empty σ curve: every resample of
/// one trajectory is that trajectory, so there is no spread to measure,
/// and [`pmf_sigma_scalar`] reads the empty curve as NaN.
///
/// # Panics
/// Panics on a degenerate grid, no resamples, or trajectories pulled in
/// different directions.
pub fn pmf_bootstrap_sigma(
    trajectories: &[WorkTrajectory],
    span: f64,
    npoints: usize,
    kt: f64,
    estimator: Estimator,
    resamples: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    if trajectories.len() < 2 {
        return Vec::new();
    }
    assert!(span > 0.0 && npoints >= 2, "degenerate PMF grid");
    let n = trajectories.len();
    // The grid runs in the pulling direction, which every resample's
    // first trajectory must agree on for one table to serve them all.
    let sign = trajectories[0].v_a_per_ns.signum();
    assert!(
        trajectories
            .iter()
            .all(|t| t.v_a_per_ns.signum().to_bits() == sign.to_bits()),
        "bootstrap ensemble mixes pulling directions"
    );
    let grid: Vec<f64> = (0..npoints)
        .map(|k| grid_point(sign, span, k, npoints))
        .collect();
    // works[t * npoints + k]: trajectory t's work at grid point k, from
    // one forward walk per trajectory.
    let works: Vec<Option<f64>> = trajectories
        .iter()
        .flat_map(|t| {
            let mut walk = t.walk();
            grid.iter().map(move |&s| walk.at(s).map(|(work, _)| work))
        })
        .collect();

    // Each resample's curve: up to `npoints` gauged Φ values, `len` of them.
    let mut phis = vec![0.0; resamples * npoints];
    let mut lens = Vec::with_capacity(resamples);
    let mut out_grid = Vec::with_capacity(npoints);
    let mut draws = Vec::with_capacity(n);
    let mut point_works = Vec::with_capacity(n);
    for r in 0..resamples {
        draws.clear();
        draws.extend((0..n).map(|k| (seed_stream(seed, (r * n + k) as u64) % n as u64) as usize));
        let curve = &mut phis[r * npoints..(r + 1) * npoints];
        let mut len = 0;
        for (k, &s) in grid.iter().enumerate() {
            point_works.clear();
            point_works.extend(draws.iter().filter_map(|&t| works[t * npoints + k]));
            if point_works.is_empty() {
                continue;
            }
            if r == 0 {
                out_grid.push(s);
            }
            curve[len] = estimator.free_energy(&point_works, kt);
            len += 1;
        }
        // Gauge: Φ(0) = 0 at the curve's first point.
        if let Some(&first) = curve[..len].first() {
            for phi in &mut curve[..len] {
                *phi -= first;
            }
        }
        lens.push(len);
    }
    assert!(!lens.is_empty(), "at least one replicate");
    let mut column = Vec::with_capacity(resamples);
    out_grid
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            column.clear();
            column.extend(
                lens.iter()
                    .enumerate()
                    .filter(|&(_, &len)| j < len)
                    .map(|(r, _)| phis[r * npoints + j]),
            );
            (s, spice_stats::std_dev(&column))
        })
        .collect()
}

/// Scalar statistical error of a curve: RMS of the per-point bootstrap
/// sigmas (excluding the pinned Φ(0) = 0 point).
pub fn pmf_sigma_scalar(sigmas: &[(f64, f64)]) -> f64 {
    let vals: Vec<f64> = sigmas.iter().skip(1).map(|&(_, s)| s * s).collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().sum::<f64>() / vals.len() as f64).sqrt()
}

/// The paper's §IV-C computational-cost normalization.
///
/// At fixed compute budget, the number of affordable samples scales with
/// pulling velocity: `n_affordable(v) = n_ref · v / v_ref`. A σ measured
/// from `n_used` samples is rescaled to the affordable count assuming
/// `σ ∝ 1/√n`:
///
/// `σ_norm = σ_measured · √(n_used / n_affordable)`
///
/// With `v_ref = 100 Å/ns` this reproduces the paper's "the statistical
/// error of the v = 12.5 set should be set to √8 of the v = 100 set".
pub fn cost_normalized_sigma(
    sigma_measured: f64,
    n_used: usize,
    v_a_per_ns: f64,
    v_ref_a_per_ns: f64,
    n_ref_budget: usize,
) -> f64 {
    assert!(
        v_a_per_ns > 0.0 && v_ref_a_per_ns > 0.0,
        "velocities must be positive"
    );
    assert!(n_used > 0 && n_ref_budget > 0);
    let n_affordable = n_ref_budget as f64 * v_a_per_ns / v_ref_a_per_ns;
    sigma_measured * (n_used as f64 / n_affordable).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::PmfCurve;
    use proptest::prelude::*;
    use spice_md::units::KT_300;
    use spice_smd::WorkSample;

    /// The clone-and-estimate bootstrap: each resample clones its drawn
    /// trajectories and runs `PmfCurve::estimate` on them. The oracle
    /// `pmf_bootstrap_sigma` must match bit for bit.
    fn cloned_bootstrap_sigma(
        trajectories: &[WorkTrajectory],
        span: f64,
        npoints: usize,
        kt: f64,
        estimator: Estimator,
        resamples: usize,
        seed: u64,
    ) -> Vec<(f64, f64)> {
        let n = trajectories.len();
        let mut replicate_phis: Vec<Vec<f64>> = Vec::with_capacity(resamples);
        let mut grid: Option<Vec<f64>> = None;
        let mut resample = Vec::with_capacity(n);
        for r in 0..resamples {
            resample.clear();
            for k in 0..n {
                let idx = (seed_stream(seed, (r * n + k) as u64) % n as u64) as usize;
                resample.push(trajectories[idx].clone());
            }
            let pmf = PmfCurve::estimate(&resample, span, npoints, kt, estimator);
            if grid.is_none() {
                grid = Some(pmf.points.iter().map(|p| p.guide_disp).collect());
            }
            replicate_phis.push(pmf.points.iter().map(|p| p.phi).collect());
        }
        let grid = grid.expect("at least one replicate");
        let mut out = Vec::with_capacity(grid.len());
        let mut column = Vec::with_capacity(resamples);
        for (j, &s) in grid.iter().enumerate() {
            column.clear();
            for rep in &replicate_phis {
                if j < rep.len() {
                    column.push(rep[j]);
                }
            }
            out.push((s, spice_stats::std_dev(&column)));
        }
        out
    }

    /// An ensemble whose trajectories start and end at different guide
    /// displacements (some past 0, all short of a 12 Å grid), pulled in
    /// direction `sign`, with random-walk work.
    fn ragged_ensemble(n: usize, sign: f64, seed: u64) -> Vec<WorkTrajectory> {
        let g = spice_md::rng::GaussianStream::new(seed);
        (0..n)
            .map(|r| {
                let draw = seed_stream(seed, r as u64);
                let start = if draw.is_multiple_of(4) { 0.3 } else { 0.0 };
                let len = 3 + (draw >> 8) as usize % 40;
                let mut acc = 0.0;
                WorkTrajectory {
                    kappa_pn_per_a: 100.0,
                    v_a_per_ns: sign * 12.5,
                    seed: r as u64,
                    samples: (0..len)
                        .map(|i| {
                            let s = start + i as f64 * 0.25;
                            acc += 1.5 * g.sample(r as u64, i as u64) * 0.25;
                            WorkSample {
                                t_ps: s,
                                guide_disp: sign * s,
                                com_disp: sign * s,
                                work: 1.5 * s + acc,
                                force: 1.5,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The table bootstrap reproduces the clone-and-estimate one bit
        /// for bit, for every estimator and ensemble size, on grids that
        /// run past some trajectories' ends (so resamples drop different
        /// points, and the first resample sets the output grid).
        #[test]
        fn table_bootstrap_matches_cloned_bitwise(
            seed in 0u64..u32::MAX as u64,
            span in 1.0f64..12.0,
            npoints in 2usize..24,
            resamples in 1usize..24,
        ) {
            let sign = if seed.is_multiple_of(2) { 1.0 } else { -1.0 };
            for n in [2usize, 6, 24, 72] {
                let ens = ragged_ensemble(n, sign, seed);
                for est in [Estimator::Jarzynski, Estimator::Cumulant, Estimator::MeanWork] {
                    let bits = |v: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                        v.into_iter().map(|(s, sd)| (s.to_bits(), sd.to_bits())).collect()
                    };
                    let want = cloned_bootstrap_sigma(&ens, span, npoints, KT_300, est, resamples, seed);
                    let got = pmf_bootstrap_sigma(&ens, span, npoints, KT_300, est, resamples, seed);
                    prop_assert_eq!(bits(got), bits(want), "n={} {:?}", n, est);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mixes pulling directions")]
    fn bootstrap_rejects_mixed_directions() {
        let mut ens = ragged_ensemble(4, 1.0, 3);
        ens[2].v_a_per_ns = -12.5;
        pmf_bootstrap_sigma(&ens, 5.0, 6, KT_300, Estimator::Jarzynski, 10, 1);
    }

    /// One trajectory, or none, has no spread to bootstrap: the σ curve
    /// is empty and its scalar NaN, not a panic.
    #[test]
    fn fewer_than_two_trajectories_give_no_sigma() {
        let one = ragged_ensemble(1, 1.0, 3);
        for ens in [&one[..], &[]] {
            let sigmas = pmf_bootstrap_sigma(ens, 5.0, 6, KT_300, Estimator::Jarzynski, 10, 1);
            assert!(sigmas.is_empty());
            assert!(pmf_sigma_scalar(&sigmas).is_nan());
        }
    }

    fn ensemble(n: usize, sigma: f64, seed: u64) -> Vec<WorkTrajectory> {
        let g = spice_md::rng::GaussianStream::new(seed);
        (0..n)
            .map(|r| {
                let mut acc = 0.0;
                WorkTrajectory {
                    kappa_pn_per_a: 100.0,
                    v_a_per_ns: 12.5,
                    seed: r as u64,
                    samples: (0..=50)
                        .map(|i| {
                            let s = i as f64 * 0.2;
                            acc += sigma * g.sample(r as u64, i) * 0.2;
                            WorkSample {
                                t_ps: s,
                                guide_disp: s,
                                com_disp: s,
                                work: 1.5 * s + acc,
                                force: 1.5,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn bootstrap_sigma_grows_with_noise() {
        let quiet = pmf_bootstrap_sigma(
            &ensemble(24, 0.2, 1),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            100,
            5,
        );
        let noisy = pmf_bootstrap_sigma(
            &ensemble(24, 2.0, 1),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            100,
            5,
        );
        let sq = pmf_sigma_scalar(&quiet);
        let sn = pmf_sigma_scalar(&noisy);
        assert!(sn > 2.0 * sq, "noisy σ {sn} should dwarf quiet σ {sq}");
    }

    #[test]
    fn bootstrap_sigma_shrinks_with_ensemble_size() {
        let small = pmf_sigma_scalar(&pmf_bootstrap_sigma(
            &ensemble(8, 1.0, 2),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            150,
            5,
        ));
        let large = pmf_sigma_scalar(&pmf_bootstrap_sigma(
            &ensemble(128, 1.0, 2),
            10.0,
            11,
            KT_300,
            Estimator::Jarzynski,
            150,
            5,
        ));
        assert!(
            large < small,
            "σ must shrink with more realizations: {small} → {large}"
        );
    }

    #[test]
    fn bootstrap_deterministic_under_seed() {
        let e = ensemble(12, 1.0, 3);
        let a = pmf_bootstrap_sigma(&e, 10.0, 6, KT_300, Estimator::Jarzynski, 50, 9);
        let b = pmf_bootstrap_sigma(&e, 10.0, 6, KT_300, Estimator::Jarzynski, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_normalization_reproduces_sqrt8() {
        // Same measured σ and same n_used: v = 12.5 penalized √8 relative
        // to v = 100 (§IV-C).
        let s_slow = cost_normalized_sigma(1.0, 32, 12.5, 100.0, 32);
        let s_fast = cost_normalized_sigma(1.0, 32, 100.0, 100.0, 32);
        assert!(((s_slow / s_fast) - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn normalization_is_identity_at_reference() {
        assert!((cost_normalized_sigma(0.7, 64, 100.0, 100.0, 64) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn sigma_scalar_skips_pinned_origin() {
        let sigmas = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)];
        assert!((pmf_sigma_scalar(&sigmas) - 2.0).abs() < 1e-12);
    }
}
