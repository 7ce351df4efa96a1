//! The indexed DES engine's own event stream, pinned exactly. The
//! replays' outputs — records, failure logs, telemetry — are pinned by
//! the golden digests of `tests/des_goldens.rs`, which were checked
//! against the seed engine before it was deleted; this file pins the
//! event counts a benchmark divides by.

mod common;

use common::{policies, DISPATCHES};
use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy};
use spice::telemetry::Telemetry;

/// `(events_processed, event_queue_peak, site_queue_peak)` of one replay.
fn stats_of(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) -> [u64; 3] {
    let (_, s) = run_resilient_with_stats(campaign, policy, dispatch, &Telemetry::disabled());
    [
        s.events_processed,
        s.event_queue_peak as u64,
        s.site_queue_peak as u64,
    ]
}

/// The engine's event stream, pinned exactly. Benchmarks divide wall
/// time by `events_processed` and the durable runner's snapshot cadence
/// counts events, so a change that merged or dropped wakeup markers
/// would read as a per-event slowdown (or shift every snapshot) while
/// every trajectory golden still passed. The `checkpoint_failover` ×
/// `EarliestCompletion` counts match `BENCH_des_scale.json`'s `events`
/// column.
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
