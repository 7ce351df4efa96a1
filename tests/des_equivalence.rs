//! The indexed DES engine's hard contract: it is the *same simulator*
//! as the seed engine, just faster. The frozen oracle in
//! `gridsim::reference` replays the pre-rework code verbatim; these
//! tests drive both engines over every policy combination on the paper
//! workloads and over randomized synthetic campaigns, and require
//! bit-identical results — records, failure log, goodput/badput
//! accounting, and serialized bytes.
//!
//! The engines intentionally differ in one dimension: the seed engine
//! keeps a redundant poke chain alive per submission, so it processes
//! (many) more wakeup events. Event-stream *diagnostics* — the
//! `grid.des_events` counter, `events_processed`, the event-queue peak,
//! and the campaign track's event-driven clock — therefore differ by
//! design (see DESIGN.md §13), and the tests pin the direction: the
//! indexed engine never processes more events than the seed, and
//! `engine_stats_are_pinned` holds the indexed engine's own counts to
//! exact values. Everything observable about the *simulation*
//! (start/finish times, failures, per-job telemetry tracks, site queue
//! peaks) must stay byte-equal.

use proptest::prelude::*;
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::reference::run_resilient_reference;
use spice::gridsim::resilience::{run_resilient_with_stats, EngineStats, ResiliencePolicy};
use spice::gridsim::trace::failure_listing;
use spice::telemetry::Telemetry;

const DISPATCHES: [DispatchPolicy; 3] = [
    DispatchPolicy::EarliestCompletion,
    DispatchPolicy::RoundRobin,
    DispatchPolicy::Random,
];

fn policies() -> [(&'static str, ResiliencePolicy); 4] {
    [
        ("none", ResiliencePolicy::none()),
        ("naive", ResiliencePolicy::naive()),
        ("retry_only", ResiliencePolicy::retry_only()),
        (
            "checkpoint_failover",
            ResiliencePolicy::checkpoint_failover(),
        ),
    ]
}

/// Mark a sprinkling of jobs steering-coupled so the gateway-drop and
/// connectivity-filter paths execute.
fn couple_some(c: &mut Campaign) {
    for job in c.jobs.iter_mut().step_by(7) {
        job.coupled = true;
    }
}

/// The engines replay the same site trajectories, so queue high-water
/// marks agree exactly; the indexed engine drops redundant wakeups, so
/// its event count is bounded by the seed's.
fn assert_stats_consistent(new_s: &EngineStats, old_s: &EngineStats) {
    assert_eq!(
        new_s.site_queue_peak, old_s.site_queue_peak,
        "site queue trajectories diverged"
    );
    assert!(
        new_s.events_processed <= old_s.events_processed,
        "indexed engine processed more events ({}) than the seed ({})",
        new_s.events_processed,
        old_s.events_processed
    );
}

/// Both engines, untraced; assert full equality including serialized
/// bytes (serde equality is stricter than PartialEq for f64 payloads:
/// it pins the exact decimal rendering too).
fn assert_engines_agree(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) {
    let off = Telemetry::disabled();
    let (new_r, new_s) = run_resilient_with_stats(campaign, policy, dispatch, &off);
    let (old_r, old_s) = run_resilient_reference(campaign, policy, dispatch, &off);
    assert_eq!(new_r, old_r, "replay diverged under {dispatch:?}");
    assert_stats_consistent(&new_s, &old_s);
    let new_json = serde_json::to_string(&new_r).expect("serialize indexed result");
    let old_json = serde_json::to_string(&old_r).expect("serialize reference result");
    assert_eq!(new_json, old_json, "serialized bytes diverged");
    assert_eq!(
        failure_listing(&new_r, &campaign.federation, &off),
        failure_listing(&old_r, &campaign.federation, &off)
    );
}

/// Every dispatch × resilience policy on the paper batch phase (with
/// coupled jobs) and on the SC05 outage history: bit-identical.
#[test]
fn indexed_engine_matches_seed_engine_on_paper_workloads() {
    for seed in [3u64, 11] {
        let mut batch = Campaign::paper_batch_phase(seed);
        couple_some(&mut batch);
        let mut outage = Campaign::sc05_outage_phase(seed);
        couple_some(&mut outage);
        for campaign in [&batch, &outage] {
            for (name, policy) in &policies() {
                for dispatch in DISPATCHES {
                    eprintln!("seed {seed} policy {name} dispatch {dispatch:?}");
                    assert_engines_agree(campaign, policy, dispatch);
                }
            }
        }
    }
}

/// A JSONL line that derives from the raw event *stream* rather than
/// the simulated trajectory: the campaign track (its clock ticks per
/// popped event) and the event-count diagnostics. Only these may differ
/// between the engines.
fn is_event_stream_line(line: &str) -> bool {
    line.contains("\"track\":\"grid.campaign\"")
        || line.contains("\"name\":\"grid.des_events\"")
        || line.contains("\"name\":\"grid.events_processed\"")
        || line.contains("\"name\":\"grid.event_queue_peak\"")
}

fn trajectory_lines(jsonl: &str) -> Vec<&str> {
    jsonl.lines().filter(|l| !is_event_stream_line(l)).collect()
}

/// Traced replays export byte-identical *trajectory* telemetry from
/// both engines: every per-job track (attempt spans, failures, retries,
/// checkpoint restores), every domain counter, and the site-queue-peak
/// gauge, in the same order. Only the event-stream diagnostics listed
/// in [`is_event_stream_line`] may differ, and the campaign-level
/// instants (outages) inside the campaign track still agree.
#[test]
fn traced_trajectory_telemetry_is_byte_identical_across_engines() {
    let mut campaign = Campaign::sc05_outage_phase(5);
    couple_some(&mut campaign);
    let policy = ResiliencePolicy::checkpoint_failover();
    for dispatch in DISPATCHES {
        let t_new = Telemetry::enabled();
        let (new_r, new_s) = run_resilient_with_stats(&campaign, &policy, dispatch, &t_new);
        let t_old = Telemetry::enabled();
        let (old_r, old_s) = run_resilient_reference(&campaign, &policy, dispatch, &t_old);
        assert_eq!(new_r, old_r);
        assert_stats_consistent(&new_s, &old_s);
        let new_jsonl = t_new.jsonl();
        let old_jsonl = t_old.jsonl();
        assert_eq!(
            trajectory_lines(&new_jsonl),
            trajectory_lines(&old_jsonl),
            "trajectory telemetry diverged"
        );
        // The campaign track still carries the same outage instants.
        let outages = |jsonl: &str| {
            jsonl
                .lines()
                .filter(|l| l.contains("\"name\":\"grid.outage\""))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            outages(&new_jsonl),
            outages(&old_jsonl),
            "outage instants diverged"
        );
        // And the event-stream diagnostics really are present in both.
        assert!(new_jsonl.contains("\"name\":\"grid.des_events\""));
        assert!(old_jsonl.contains("\"name\":\"grid.des_events\""));
    }
}

/// `(events_processed, event_queue_peak, site_queue_peak)` of one replay.
fn stats_of(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) -> [u64; 3] {
    let (_, s) = run_resilient_with_stats(campaign, policy, dispatch, &Telemetry::disabled());
    [
        s.events_processed,
        s.event_queue_peak as u64,
        s.site_queue_peak as u64,
    ]
}

/// The indexed engine's own event stream, pinned exactly. Benchmarks
/// divide wall time by `events_processed` and the durable runner's
/// snapshot cadence counts events, so a change that merged or dropped
/// wakeup markers would read as a per-event slowdown (or shift every
/// snapshot) while every trajectory test above still passed. The
/// `checkpoint_failover` × `EarliestCompletion` counts match
/// `BENCH_des_scale.json`'s `events_indexed` column.
#[test]
fn engine_stats_are_pinned() {
    let ckpt = ResiliencePolicy::checkpoint_failover();
    let greedy = DispatchPolicy::EarliestCompletion;
    assert_eq!(
        stats_of(&Campaign::paper_batch_phase(11), &ckpt, greedy),
        [330, 77, 18]
    );
    assert_eq!(
        stats_of(&Campaign::synthetic(1_000, 12, 11), &ckpt, greedy),
        [6_371, 1_015, 91]
    );
    assert_eq!(
        stats_of(&Campaign::synthetic(10_000, 12, 11), &ckpt, greedy),
        [102_356, 10_012, 1_102]
    );
    // Every dispatch × resilience policy on the 10³-job campaign, in
    // `DISPATCHES` × `policies()` order.
    let expected: [[[u64; 3]; 4]; 3] = [
        [
            [4_039, 1_012, 90],
            [7_586, 1_015, 92],
            [6_540, 1_015, 103],
            [6_371, 1_015, 91],
        ],
        [
            [4_145, 1_007, 137],
            [6_212, 1_009, 148],
            [5_360, 1_009, 149],
            [5_214, 1_009, 135],
        ],
        [
            [4_223, 1_008, 134],
            [6_678, 1_008, 127],
            [5_215, 1_008, 136],
            [5_188, 1_008, 136],
        ],
    ];
    let campaign = Campaign::synthetic(1_000, 12, 11);
    for (dispatch, row) in DISPATCHES.into_iter().zip(expected) {
        for ((name, policy), want) in policies().iter().zip(row) {
            assert_eq!(
                stats_of(&campaign, policy, dispatch),
                want,
                "{name} × {dispatch:?}"
            );
        }
    }
}

proptest! {
    // Each case replays a full campaign through two engines — a modest
    // case count covers a lot of event-space.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized synthetic campaigns (outages, coupled jobs,
    /// heavy-tailed runtimes, odd site topologies) replay identically
    /// through both engines under arbitrary policies.
    #[test]
    fn indexed_engine_matches_seed_engine_on_synthetic_campaigns(
        seed in 0u64..1_000_000,
        n_jobs in 1usize..60,
        n_sites in 1usize..9,
        policy_ix in 0usize..4,
        dispatch_ix in 0usize..3,
    ) {
        let campaign = Campaign::synthetic(n_jobs, n_sites, seed);
        let (_, policy) = &policies()[policy_ix];
        let dispatch = DISPATCHES[dispatch_ix];
        let off = Telemetry::disabled();
        let (new_r, new_s) = run_resilient_with_stats(&campaign, policy, dispatch, &off);
        let (old_r, old_s) = run_resilient_reference(&campaign, policy, dispatch, &off);
        prop_assert_eq!(&new_r, &old_r);
        prop_assert_eq!(new_s.site_queue_peak, old_s.site_queue_peak);
        prop_assert!(new_s.events_processed <= old_s.events_processed);
    }
}
