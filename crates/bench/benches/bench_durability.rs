//! Durable-engine overhead, machine-readable: runs the paper batch and
//! a 10⁴-job synthetic campaign with and without the checkpointing
//! layer (DESIGN.md §14), times a mid-campaign kill + cold restore,
//! records snapshot sizes, verifies every durable replay stays
//! bit-identical to the plain engine while timing it, and writes
//! `BENCH_durability.json`. Every timing is the median of `ROUNDS`
//! rounds.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_durability
//! ```
//!
//! There is no exit-code gate: the bit-identity asserts are the gate;
//! the timings are the report (EXPERIMENTS.md T-durable). CI diffs the
//! fresh JSON against the committed one with every timing ignored, so
//! event counts, snapshot counts and snapshot sizes must match exactly.

use spice_gridsim::campaign::Campaign;
use spice_gridsim::des::DispatchPolicy;
use spice_gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy};
use spice_gridsim::{run_resilient_durable, CrashPlan, DurabilityError, DurableConfig};
use spice_telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

struct Row {
    label: &'static str,
    n_jobs: usize,
    every_events: u64,
    events: u64,
    snapshots_written: u64,
    snapshot_bytes_max: u64,
    wall_plain_s: f64,
    wall_durable_s: f64,
    wall_recover_s: f64,
}

impl Row {
    fn overhead(&self) -> f64 {
        self.wall_durable_s / self.wall_plain_s - 1.0
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spice_bench_dur_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// Timed rounds per measurement.
const ROUNDS: usize = 5;

fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_unstable_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Median wall-clock seconds of `ROUNDS` calls of `run`, and the last
/// call's result.
fn time_median<R>(mut run: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(ROUNDS);
    let mut out = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        out = Some(run());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(secs), out.expect("at least one round"))
}

fn bench_case(label: &'static str, campaign: &Campaign, every_events: u64) -> Row {
    let policy = ResiliencePolicy::checkpoint_failover();
    let dispatch = DispatchPolicy::EarliestCompletion;
    let off = Telemetry::disabled();

    let (wall_plain, (plain, stats)) =
        time_median(|| run_resilient_with_stats(campaign, &policy, dispatch, &off));

    let dir = scratch_dir(label);
    let (wall_durable, outcome) = time_median(|| {
        // Fresh directory every round: leftover generations would turn
        // the next round into a (much cheaper) restore instead of a run.
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurableConfig {
            every_events,
            ..DurableConfig::new(&dir)
        };
        run_resilient_durable(campaign, &policy, dispatch, &off, &cfg)
            .expect("durable run without a crash plan cannot fail")
    });
    assert_eq!(
        outcome.result, plain,
        "{label}: durable replay diverged from the plain engine"
    );
    let snapshot_bytes_max = std::fs::read_dir(&dir)
        .expect("bench scratch dir readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);

    // Kill mid-campaign, then time the cold restart: recovery scan +
    // snapshot load + telemetry replay + the remaining half of the run.
    // Each round kills afresh, so every timed resume starts from the same
    // snapshot directory.
    let kill_at = stats.events_processed / 2;
    let crash_cfg = DurableConfig {
        every_events,
        crash: CrashPlan::KillAfterEvents(kill_at),
        ..DurableConfig::new(&dir)
    };
    let resume_cfg = DurableConfig {
        every_events,
        ..DurableConfig::new(&dir)
    };
    let mut recover_s = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let _ = std::fs::remove_dir_all(&dir);
        match run_resilient_durable(campaign, &policy, dispatch, &off, &crash_cfg) {
            Err(DurabilityError::InjectedCrash { .. }) => {}
            other => panic!("{label}: expected the injected kill, got {other:?}"),
        }
        let t0 = Instant::now();
        let resumed = run_resilient_durable(campaign, &policy, dispatch, &off, &resume_cfg)
            .expect("recovery run completes");
        recover_s.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            resumed.result, plain,
            "{label}: recovered replay diverged from the plain engine"
        );
        // A kill before the first checkpoint boundary legitimately
        // restarts from scratch; past it, recovery must use a snapshot.
        if kill_at >= every_events {
            assert!(
                resumed.recovery.resumed_from.is_some(),
                "{label}: recovery must resume from a snapshot, not restart"
            );
        }
    }
    let wall_recover = median(recover_s);
    let _ = std::fs::remove_dir_all(&dir);

    let row = Row {
        label,
        n_jobs: campaign.jobs.len(),
        every_events,
        events: stats.events_processed,
        snapshots_written: outcome.recovery.snapshots_written,
        snapshot_bytes_max,
        wall_plain_s: wall_plain,
        wall_durable_s: wall_durable,
        wall_recover_s: wall_recover,
    };
    eprintln!(
        "{label:>18}: {:>8} events, every {:>5}: plain {:>7.4}s, durable {:>7.4}s \
         ({:>5.1}% overhead, {} snapshots, max {} B), kill@half+recover {:>7.4}s",
        row.events,
        row.every_events,
        row.wall_plain_s,
        row.wall_durable_s,
        row.overhead() * 100.0,
        row.snapshots_written,
        row.snapshot_bytes_max,
        row.wall_recover_s,
    );
    row
}

fn main() {
    let paper = Campaign::sc05_outage_phase(2005);
    let synth = Campaign::synthetic(10_000, 12, 11);
    let rows = [
        bench_case("paper/64", &paper, 64),
        bench_case("paper/256", &paper, 256),
        bench_case("synthetic-10k/1k", &synth, 1_024),
        bench_case("synthetic-10k/8k", &synth, 8_192),
    ];

    let row_json = |r: &Row| {
        format!(
            "    {{\"label\": \"{}\", \"n_jobs\": {}, \"every_events\": {}, \
             \"events\": {}, \"snapshots_written\": {}, \"snapshot_bytes_max\": {}, \
             \"wall_s_plain\": {:.5}, \"wall_s_durable\": {:.5}, \
             \"wall_s_recover\": {:.5}, \"overhead\": {:.4}}}",
            r.label,
            r.n_jobs,
            r.every_events,
            r.events,
            r.snapshots_written,
            r.snapshot_bytes_max,
            r.wall_plain_s,
            r.wall_durable_s,
            r.wall_recover_s,
            r.overhead(),
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"durability\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("{json}");
}
