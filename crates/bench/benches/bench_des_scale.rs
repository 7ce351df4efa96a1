//! Federated-DES scale gate, machine-readable: replays the resilient
//! engine over campaigns from the paper's 72 jobs up to 10⁶ synthetic
//! jobs, records wall-clock, events/sec and ns/event per tier, and
//! writes `BENCH_des_scale.json`.
//!
//! The gate bounds the engine's own per-event cost, each tier timed as
//! the best of three rounds:
//!
//! * at most 3,000 ns/event at 10⁴ jobs: a regression bound about four
//!   times the 700–800 ns a 2-vCPU x86-64 VM reads;
//! * ns/event at 10⁵ jobs over ns/event at 10⁴ at most 2.0: the cost of
//!   an event must not grow with campaign size. It reads 0.9–1.35 on that
//!   VM; the engine read 2.33 before its width-indexed site queues and
//!   its agenda (DESIGN.md §13.2–13.3).
//!
//! Exits nonzero when either bound fails, so this bench is a CI check,
//! not just a report.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_des_scale          # full, up to 10⁶ jobs
//! cargo bench -p spice-bench --bench bench_des_scale -- smoke # CI: stop at 10⁵
//! ```

use spice_gridsim::campaign::Campaign;
use spice_gridsim::des::DispatchPolicy;
use spice_gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy};
use spice_telemetry::Telemetry;
use std::time::Instant;

/// Largest ns/event allowed at [`BASE_TIER`].
const NS_PER_EVENT_MAX: f64 = 3_000.0;
/// Largest ns/event of [`GROWTH_TIER`] over ns/event of [`BASE_TIER`].
const GROWTH_MAX: f64 = 2.0;
/// Campaign size whose ns/event is bounded.
const BASE_TIER: usize = 10_000;
/// Campaign size whose ns/event is compared with [`BASE_TIER`]'s.
const GROWTH_TIER: usize = 100_000;

struct Row {
    n_jobs: usize,
    n_sites: usize,
    events: u64,
    wall_s: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }
}

fn campaign_for(n_jobs: usize) -> Campaign {
    if n_jobs == 72 {
        // The paper's own production batch, not a synthetic lookalike.
        Campaign::paper_batch_phase(11)
    } else {
        Campaign::synthetic(n_jobs, 12, 11)
    }
}

/// Best-of-three wall-clock of one checkpoint + failover replay (one
/// round above [`GROWTH_TIER`], where a round takes seconds).
fn bench_tier(n_jobs: usize) -> Row {
    let campaign = campaign_for(n_jobs);
    let policy = ResiliencePolicy::checkpoint_failover();
    let off = Telemetry::disabled();
    let rounds = if n_jobs > GROWTH_TIER { 1 } else { 3 };
    let mut wall_s = f64::INFINITY;
    let mut events = 0;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let (result, stats) =
            run_resilient_with_stats(&campaign, &policy, DispatchPolicy::EarliestCompletion, &off);
        wall_s = wall_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(result);
        events = stats.events_processed;
    }
    let row = Row {
        n_jobs,
        n_sites: campaign.federation.sites.len(),
        events,
        wall_s,
    };
    eprintln!(
        "jobs {n_jobs:>7}: {events:>10} events {wall_s:>8.4}s ({:>10.0} ev/s, {:>6.0} ns/event)",
        row.events_per_sec(),
        row.ns_per_event()
    );
    row
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let tiers: &[usize] = if smoke {
        &[72, 1_000, 10_000, 100_000]
    } else {
        &[72, 1_000, 10_000, 100_000, 1_000_000]
    };
    let rows: Vec<Row> = tiers.iter().map(|&n| bench_tier(n)).collect();

    let ns_at = |n_jobs: usize| {
        rows.iter()
            .find(|r| r.n_jobs == n_jobs)
            .expect("both gate tiers always run")
            .ns_per_event()
    };
    let ns_base = ns_at(BASE_TIER);
    let growth = ns_at(GROWTH_TIER) / ns_base;
    let ns_ok = ns_base <= NS_PER_EVENT_MAX;
    let growth_ok = growth <= GROWTH_MAX;

    let row_json = |r: &Row| {
        format!(
            "    {{\"n_jobs\": {}, \"n_sites\": {}, \"events\": {}, \"wall_s\": {:.4}, \
             \"events_per_sec\": {:.1}, \"ns_per_event\": {:.1}}}",
            r.n_jobs,
            r.n_sites,
            r.events,
            r.wall_s,
            r.events_per_sec(),
            r.ns_per_event(),
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"des_scale\",\n  \"smoke\": {smoke},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"ns_per_event_10k\": {ns_base:.1},\n  \
         \"ns_per_event_max\": {NS_PER_EVENT_MAX:.1},\n  \
         \"growth_100k_over_10k\": {growth:.3},\n  \
         \"growth_max\": {GROWTH_MAX:.1},\n  \
         \"gate_ok\": {}\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
        ns_ok && growth_ok,
    );
    std::fs::write("BENCH_des_scale.json", &json).expect("write BENCH_des_scale.json");
    println!("{json}");

    if !ns_ok {
        eprintln!("FAIL: {ns_base:.0} ns/event at {BASE_TIER} jobs (bound: {NS_PER_EVENT_MAX:.0})");
    }
    if !growth_ok {
        eprintln!(
            "FAIL: ns/event grows {growth:.2}x from {BASE_TIER} to {GROWTH_TIER} jobs \
             (bound: {GROWTH_MAX:.1}x)"
        );
    }
    if !(ns_ok && growth_ok) {
        std::process::exit(1);
    }
}
