//! The telemetry layer's hard contract, property-tested: attaching a
//! live handle never changes the science. Positions, work values and DES
//! event order must be bit-identical with telemetry enabled vs disabled,
//! for arbitrary seeds — and the telemetry exports themselves must be
//! deterministic across reruns (the merge order is logical, never
//! scheduler-dependent).

use proptest::prelude::*;
use spice::core::config::Scale;
use spice::core::pipeline::{pore_simulation, run_cell, run_cell_traced};
use spice::gridsim::campaign::Campaign;
use spice::gridsim::resilience::{run_resilient, ResiliencePolicy};
use spice::stats::rng::SeedSequence;
use spice::telemetry::Telemetry;

/// Bit-pattern view of a position trajectory endpoint, so NaN-safe exact
/// comparison is explicit.
fn position_bits(sim: &spice::md::Simulation) -> Vec<[u64; 3]> {
    sim.system()
        .positions()
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// MD: the same simulation stepped with a live track attached (span
    /// per run, clock tick per step, Verlet-rebuild instants) lands on
    /// bitwise-identical coordinates, and its kernel counters publish.
    #[test]
    fn md_positions_bit_identical_under_telemetry(seed in 0u64..1_000_000) {
        let mut plain = pore_simulation(Scale::Test, seed);
        plain.run(120, &mut []).expect("plain run");

        let t = Telemetry::enabled();
        let mut traced = pore_simulation(Scale::Test, seed);
        traced.attach_telemetry(t.track("test.md", seed));
        traced.run(120, &mut []).expect("traced run");
        traced.kernel_counters().publish(&t);

        prop_assert_eq!(position_bits(&plain), position_bits(&traced));
        // And the handle actually recorded the run it watched.
        let snap = t.snapshot();
        prop_assert!(!snap.tracks.is_empty());
        prop_assert!(snap.metrics.iter().any(|(n, _)| n == "md.kernel_invocations"));
    }

    /// DES: a resilient campaign replays with identical failures, event
    /// order and accounting whether or not the engine traces every event.
    #[test]
    fn des_event_order_bit_identical_under_telemetry(
        seed in 0u64..1_000_000,
        policy_ix in 0u8..3,
    ) {
        let mut campaign = Campaign::paper_batch_phase(seed);
        for job in campaign.jobs.iter_mut().step_by(10) {
            job.coupled = true;
        }
        let policy = match policy_ix {
            0 => ResiliencePolicy::naive(),
            1 => ResiliencePolicy::retry_only(),
            _ => ResiliencePolicy::checkpoint_failover(),
        };
        let plain = run_resilient(&campaign, &policy, &Telemetry::disabled());
        let t = Telemetry::enabled();
        let traced = run_resilient(&campaign, &policy, &t);
        // `failures` is in event order; full struct equality covers it,
        // the per-job records and the CPU-hour accounting.
        prop_assert_eq!(&plain, &traced);
        let snap = t.snapshot();
        prop_assert!(snap.metrics.iter().any(|(n, _)| n == "grid.des_events"));
    }
}

proptest! {
    // The full-cell property is expensive (an entire clone-amortized
    // ensemble per case) — a few seeds suffice on top of the per-layer
    // properties above.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// SMD-JE: a whole sweep cell — shared equilibration, cloned
    /// realizations, estimation — yields bit-identical work values and
    /// PMF under telemetry.
    #[test]
    fn cell_work_values_bit_identical_under_telemetry(seed in 0u64..100_000) {
        let plain = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(seed));
        let t = Telemetry::enabled();
        let traced =
            run_cell_traced(Scale::Test, 100.0, 100.0, SeedSequence::new(seed), &t, 0);
        let works: Vec<u64> = plain
            .trajectories
            .iter()
            .map(|w| w.final_work().to_bits())
            .collect();
        let works_traced: Vec<u64> = traced
            .trajectories
            .iter()
            .map(|w| w.final_work().to_bits())
            .collect();
        prop_assert_eq!(works, works_traced);
        prop_assert_eq!(plain.curve.points, traced.curve.points);
        prop_assert_eq!(
            plain.sigma_stat_raw.to_bits(),
            traced.sigma_stat_raw.to_bits()
        );
    }
}

/// Export determinism: two identically-seeded traced runs emit the same
/// JSONL stream and Chrome trace byte-for-byte, however rayon scheduled
/// the realizations.
#[test]
fn telemetry_exports_are_deterministic_across_reruns() {
    let run = || {
        let t = Telemetry::enabled();
        run_cell_traced(Scale::Test, 100.0, 100.0, SeedSequence::new(11), &t, 0);
        let campaign = Campaign::paper_batch_phase(11);
        run_resilient(&campaign, &ResiliencePolicy::checkpoint_failover(), &t);
        (t.jsonl(), t.chrome_trace(), t.summary_tree())
    };
    let (jsonl_a, chrome_a, tree_a) = run();
    let (jsonl_b, chrome_b, tree_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "JSONL stream must replay exactly");
    assert_eq!(chrome_a, chrome_b, "Chrome trace must replay exactly");
    assert_eq!(tree_a, tree_b, "summary tree must replay exactly");
}
