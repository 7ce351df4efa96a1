//! Reproducibility guarantees across the whole stack: identical seeds →
//! identical science, independent of thread scheduling. This is what lets
//! a federated campaign be audited after the fact.

mod common;

use spice::core::config::Scale;
use spice::core::pipeline::{pore_simulation, run_cell};
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::run_des;
use spice::smd::run_ensemble;
use spice::stats::rng::SeedSequence;

/// The same ensemble executed on thread pools of different sizes must
/// produce bit-identical work values — the counter-based-RNG design goal.
#[test]
fn ensemble_identical_across_pool_sizes() {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let run_with = |threads: usize| -> Vec<f64> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            run_ensemble(
                |seed| pore_simulation(Scale::Test, seed),
                &protocol,
                6,
                SeedSequence::new(42),
            )
            .into_iter()
            .filter_map(Result::ok)
            .map(|t| t.final_work())
            .collect()
        })
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(
        serial, parallel,
        "work values must not depend on scheduling"
    );
    assert_eq!(serial.len(), 6);
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
