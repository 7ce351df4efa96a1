//! Reproducibility guarantees across the whole stack: identical seeds →
//! identical science, independent of thread scheduling. This is what lets
//! a federated campaign be audited after the fact.

mod common;

use spice::core::config::Scale;
use spice::core::pipeline::{reference_profile, run_cell, run_sweep, PmfCell};
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::run_des;
use spice::stats::rng::SeedSequence;

/// Everything a cell computes from its ensemble, as bits: Φ and the
/// mean-work curve with their COM axis, σ_stat (raw and normalized),
/// coverage, the realization counts and every trajectory's seed and
/// samples. (σ_sys needs the sweep's reference, so it is not here.)
fn cell_bits(cell: &PmfCell) -> Vec<u64> {
    let points = cell.curve.points.iter().chain(&cell.mean_work_curve.points);
    let curves = points.flat_map(|p| [p.com_disp, p.phi, p.mean_work]);
    let scores = [
        cell.sigma_stat_raw,
        cell.sigma_stat_norm,
        cell.coverage,
        cell.n_realizations as f64,
        cell.n_failed as f64,
    ];
    let samples = cell.trajectories.iter().flat_map(|t| {
        let samples = t.samples.iter();
        std::iter::once(t.seed as f64)
            .chain(samples.flat_map(|s| [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force]))
    });
    let bits = curves.chain(scores).chain(samples).map(f64::to_bits);
    std::iter::once(cell.trajectories.len() as u64)
        .chain(bits)
        .collect()
}

/// Every cell of a sweep is `run_cell` on the same seeds, bit for bit.
/// The sweep runs its cells and its reference's TI ladder as one lane
/// pool, each v column's three κ cells sharing lane chunks, the columns
/// and the ladder spread over the cores and the cells' master holds dealt
/// to them too, while `run_cell` runs one cell's lanes on its own layout
/// and `reference_profile` one ladder's: no bit may depend on which.
#[test]
fn sweep_cells_equal_run_cell() {
    for seed in [20050512, 7] {
        let sweep = run_sweep(Scale::Test, seed);
        let root = SeedSequence::new(seed);
        let alone = reference_profile(Scale::Test, root.child(999));
        let bits = |profile: &[(f64, f64)]| -> Vec<[u64; 2]> {
            profile
                .iter()
                .map(|&(s, phi)| [s.to_bits(), phi.to_bits()])
                .collect()
        };
        assert_eq!(
            bits(&sweep.reference),
            bits(&alone),
            "seed {seed}: the sweep's reference differs from reference_profile"
        );
        for (i, cell) in sweep.cells.iter().enumerate() {
            let (kappa, v) = (cell.kappa_pn_per_a, cell.v_label);
            let alone = run_cell(Scale::Test, kappa, v, root.child(i as u64));
            assert_eq!(
                cell_bits(cell),
                cell_bits(&alone),
                "seed {seed}: sweep cell (κ={kappa}, v={v}) differs from run_cell"
            );
        }
    }
}

/// A full PMF cell is reproducible end-to-end (estimation + bootstrap).
#[test]
fn pmf_cell_bitwise_reproducible() {
    let a = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(7));
    let b = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(7));
    assert_eq!(a.curve.points, b.curve.points);
    assert_eq!(a.sigma_stat_raw.to_bits(), b.sigma_stat_raw.to_bits());
    assert_eq!(a.sigma_stat_norm.to_bits(), b.sigma_stat_norm.to_bits());
}

/// FNV-1a over the bit patterns of `values`.
fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(common::FNV_OFFSET, |h, v| {
        common::fnv1a(h, &v.to_bits().to_le_bytes())
    })
}

/// Golden bits of one Test-scale cell: Φ, the mean-work curve and the raw
/// bootstrap σ. The pin above compares two runs of the same code, so a
/// change that moved the ensemble or the estimators in both would pass it;
/// this one would not. (Recorded on x86_64 with glibc: the MD step calls
/// no libm, but the strand builder and the estimators do.)
#[test]
fn pmf_cell_golden_bits() {
    let cell = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(7));
    let phi = bits_digest(cell.curve.points.iter().map(|p| p.phi));
    let mean_work = bits_digest(cell.mean_work_curve.points.iter().map(|p| p.phi));
    assert_eq!(
        (phi, mean_work, cell.sigma_stat_raw.to_bits()),
        (
            0x4603_9d8e_6fbd_0c9a,
            0xa425_0cb2_6262_3a31,
            0x3fe3_2296_04a4_c419
        ),
        "Test-scale cell (κ=100, v=100, seed 7) moved"
    );
}

/// Golden digest of a whole Test-scale sweep: every cell's Φ and
/// mean-work Φ, σ_stat (raw and cost-normalized), σ_sys, coverage and
/// realization counts, then the reference profile and the selection. The
/// cell pins above cover one `run_cell`; this one also covers how
/// `run_sweep` seeds, schedules and scores its twelve cells.
#[test]
fn sweep_golden_digest() {
    let sweep = run_sweep(Scale::Test, 20050512);
    let cells = sweep.cells.iter().flat_map(|c| {
        let curves = c.curve.points.iter().chain(&c.mean_work_curve.points);
        let scores = [
            c.sigma_stat_raw,
            c.sigma_stat_norm,
            c.sigma_sys,
            c.coverage,
            c.n_realizations as f64,
            c.n_failed as f64,
        ];
        curves.map(|p| p.phi).chain(scores)
    });
    let reference = sweep.reference.iter().flat_map(|&(s, phi)| [s, phi]);
    let s = &sweep.selection;
    let ranking = s.kappa_ranking.iter().flat_map(|&(k, score)| [k, score]);
    let selection = [
        s.kappa_pn_per_a,
        s.v_a_per_ns,
        s.score,
        f64::from(u8::from(s.converged)),
    ];
    let digest = bits_digest(cells.chain(reference).chain(selection).chain(ranking));
    assert_eq!(
        digest, 0x8a2d_84fd_1bb6_2a0b,
        "Test-scale sweep (seed 20050512) moved"
    );
}

/// Grid campaigns replay exactly under both executors.
#[test]
fn campaigns_replay_exactly() {
    let c = Campaign::paper_batch_phase(19);
    assert_eq!(c.run(), c.run());
    assert_eq!(run_des(&c), run_des(&c));
}

/// Different master seeds genuinely decorrelate the science.
#[test]
fn different_seeds_differ() {
    let a = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(1));
    let b = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(2));
    assert_ne!(a.curve.points, b.curve.points);
}
