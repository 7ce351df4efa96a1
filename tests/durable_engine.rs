//! Acceptance: the durable campaign engine (crash-safe checkpoint /
//! restore of the grid DES).
//!
//! The contract under test: a campaign killed at every K-th event and
//! restored from disk in a "fresh process" (fresh engine, fresh
//! telemetry handle — the old one dies with the process) must finish
//! with `ResilientResult` records, failure listings, and telemetry
//! export **bit-identical** to an uninterrupted run, across every
//! `DispatchPolicy` × `ResiliencePolicy` combination on the paper
//! workload.

mod common;

use common::TempDir;
use proptest::prelude::*;
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy, ResilientResult};
use spice::gridsim::trace::failure_listing;
use spice::gridsim::{run_resilient_durable, CrashPlan, DurabilityError, DurableConfig};
use spice::telemetry::Telemetry;
use std::path::Path;

const DISPATCHES: [DispatchPolicy; 3] = [
    DispatchPolicy::EarliestCompletion,
    DispatchPolicy::RoundRobin,
    DispatchPolicy::Random,
];

fn policies() -> [(&'static str, ResiliencePolicy); 3] {
    [
        ("naive", ResiliencePolicy::naive()),
        ("retry", ResiliencePolicy::retry_only()),
        ("ckpt", ResiliencePolicy::checkpoint_failover()),
    ]
}

/// Run the campaign under the durable engine, killing it at every
/// `stride`-th event and restoring from disk until it completes. Each
/// incarnation gets a **fresh** telemetry handle — simulated process
/// death takes the previous one with it, so whatever the survivor
/// exports must have been rebuilt from the snapshot plus live replay.
/// Returns the final result, the survivor's telemetry export, and how
/// many incarnations it took.
fn run_with_repeated_kills(
    campaign: &Campaign,
    policy: &ResiliencePolicy,
    dispatch: DispatchPolicy,
    dir: &Path,
    every_events: u64,
    stride: u64,
) -> (ResilientResult, String, u32) {
    let mut next_kill = stride;
    let mut incarnations = 0u32;
    loop {
        incarnations += 1;
        assert!(
            incarnations < 10_000,
            "crash/restore loop is not making progress"
        );
        let telemetry = Telemetry::enabled();
        let cfg = DurableConfig {
            every_events,
            crash: CrashPlan::KillAfterEvents(next_kill),
            ..DurableConfig::new(dir)
        };
        match run_resilient_durable(campaign, policy, dispatch, &telemetry, &cfg) {
            Ok(out) => return (out.result, telemetry.jsonl(), incarnations),
            Err(DurabilityError::InjectedCrash { .. }) => next_kill += stride,
            Err(e) => panic!("unexpected durability error: {e}"),
        }
    }
}

/// The headline acceptance matrix: every dispatch × resilience
/// combination on the SC05 outage workload, killed at every 211th
/// event with a 64-event checkpoint cadence.
#[test]
fn killed_every_kth_event_matches_uninterrupted_for_all_policy_combinations() {
    let campaign = Campaign::sc05_outage_phase(2005);
    for dispatch in DISPATCHES {
        for (tag, policy) in policies() {
            // Uninterrupted reference: the plain (non-durable) engine.
            let reference_telemetry = Telemetry::enabled();
            let reference =
                run_resilient_with_stats(&campaign, &policy, dispatch, &reference_telemetry).0;
            let reference_json = serde_json::to_string(&reference).unwrap();
            let reference_listing =
                failure_listing(&reference, &campaign.federation, &Telemetry::disabled());
            let reference_jsonl = reference_telemetry.jsonl();

            let dir = TempDir::new(&format!("durable_accept_{tag}"));
            let (survivor, survivor_jsonl, incarnations) =
                run_with_repeated_kills(&campaign, &policy, dispatch, dir.path(), 64, 211);

            assert!(
                incarnations > 1,
                "[{tag}/{dispatch:?}] the crash plan never fired — the test is vacuous"
            );
            assert_eq!(
                serde_json::to_string(&survivor).unwrap(),
                reference_json,
                "[{tag}/{dispatch:?}] restored records differ from uninterrupted"
            );
            assert_eq!(
                failure_listing(&survivor, &campaign.federation, &Telemetry::disabled()),
                reference_listing,
                "[{tag}/{dispatch:?}] restored failure listing differs"
            );
            assert_eq!(
                survivor_jsonl, reference_jsonl,
                "[{tag}/{dispatch:?}] restored telemetry export differs"
            );
        }
    }
}

/// Recovering from a *stale* generation — newer snapshots lost, an
/// older one intact — replays the missing interval forward and still
/// lands bit-identical to the uninterrupted run.
#[test]
fn stale_generation_restore_replays_forward_bit_identically() {
    let campaign = Campaign::sc05_outage_phase(7);
    let policy = ResiliencePolicy::checkpoint_failover();
    let dispatch = DispatchPolicy::EarliestCompletion;
    let reference = serde_json::to_string(
        &run_resilient_with_stats(&campaign, &policy, dispatch, &Telemetry::disabled()).0,
    )
    .unwrap();

    let dir = TempDir::new("durable_stale_gen");
    // After generation 3 is written (retain = 3 keeps 1, 2, 3), the two
    // newest generations vanish and the process dies: only generation 1
    // survives.
    let cfg = DurableConfig {
        every_events: 50,
        crash: CrashPlan::StaleGeneration {
            after_generation: 3,
            drop_newest: 2,
        },
        ..DurableConfig::new(dir.path())
    };
    let err = run_resilient_durable(&campaign, &policy, dispatch, &Telemetry::disabled(), &cfg)
        .unwrap_err();
    assert!(matches!(err, DurabilityError::InjectedCrash { .. }));

    let resume = DurableConfig {
        every_events: 50,
        ..DurableConfig::new(dir.path())
    };
    let out = run_resilient_durable(
        &campaign,
        &policy,
        dispatch,
        &Telemetry::disabled(),
        &resume,
    )
    .unwrap();
    assert_eq!(
        out.recovery.resumed_from,
        Some(1),
        "must resume from the stale surviving generation"
    );
    assert_eq!(out.recovery.resumed_events, 50);
    assert_eq!(serde_json::to_string(&out.result).unwrap(), reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Restore at a *random* event index on seeded synthetic workloads,
    /// with the dispatch and resilience policies varied, and finish:
    /// the serialized result must be byte-identical to the
    /// uninterrupted run. Kills below the first checkpoint cadence are
    /// deliberately in range — recovery then degrades to a fresh start,
    /// which must also converge to the same bytes.
    #[test]
    fn restore_at_any_event_index_is_bit_identical(
        seed in 0u64..1_000,
        kill in 1u64..400,
        policy_ix in 0usize..3,
        dispatch_ix in 0usize..3,
    ) {
        let campaign = Campaign::synthetic(24, 4, seed);
        let (_, policy) = policies()[policy_ix];
        let dispatch = DISPATCHES[dispatch_ix];
        let (reference, _) =
            run_resilient_with_stats(&campaign, &policy, dispatch, &Telemetry::disabled());
        let reference = serde_json::to_string(&reference).unwrap();

        let dir = TempDir::new("durable_prop");
        let cfg = DurableConfig {
            every_events: 16,
            crash: CrashPlan::KillAfterEvents(kill),
            ..DurableConfig::new(dir.path())
        };
        match run_resilient_durable(&campaign, &policy, dispatch, &Telemetry::disabled(), &cfg) {
            // Short campaign: it finished before the kill index — still
            // must match the plain engine.
            Ok(out) => {
                prop_assert_eq!(serde_json::to_string(&out.result).unwrap(), reference);
            }
            Err(DurabilityError::InjectedCrash { .. }) => {
                let resume = DurableConfig {
                    every_events: 16,
                    ..DurableConfig::new(dir.path())
                };
                let out = run_resilient_durable(
                    &campaign, &policy, dispatch, &Telemetry::disabled(), &resume,
                ).map_err(|e| TestCaseError::fail(format!("resume failed: {e}")))?;
                prop_assert_eq!(serde_json::to_string(&out.result).unwrap(), reference);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
}
