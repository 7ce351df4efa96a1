//! Telemetry overhead gate, machine-readable: proves the disabled
//! telemetry handle adds < 2% to the MD hot path and quantifies the cost
//! of a fully enabled handle, then writes `BENCH_telemetry.json` so CI
//! can enforce the "instrumentation is free unless you turn it on"
//! contract from DESIGN.md §12.
//!
//! Three arms:
//!
//! * **plain** — no telemetry anywhere (the default production path);
//! * **disabled** — a track of `Telemetry::disabled()` attached, i.e.
//!   the path an operation runs when its caller passes the disabled
//!   handle: one `Option` check per step;
//! * **enabled** — live handle with an attached track, its kernel
//!   counters published at the end of the run (what an ensemble
//!   realization does under an enabled handle).
//!
//! Every round times each arm once. The arm order rotates from round to
//! round, and each timed call follows an untimed call of the same arm,
//! so no arm always inherits another arm's cache and clock state. An
//! arm's overhead is the median over rounds of its throughput loss
//! against the plain arm of the same round: pairing within a round
//! keeps the host's slower and faster phases out of the overhead, which
//! unpaired best-of timings let in.
//!
//! The gate compares plain vs disabled. Exits nonzero when the gate
//! fails, so `cargo bench -p spice-bench --bench bench_telemetry` is a
//! CI check, not just a report.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_telemetry
//! ```

use spice_md::forces::{ForceField, LjParams, NonBonded, Restraint};
use spice_md::integrate::LangevinBaoab;
use spice_md::{Simulation, System, Topology, Vec3};
use spice_stats::descriptive::median;
use spice_telemetry::Telemetry;
use std::time::Instant;

/// Maximum tolerated slowdown of the disabled-telemetry path, percent.
const GATE_OVERHEAD_PCT: f64 = 2.0;

/// The same n-bead charged chain as `bench_md_engine`, so the numbers
/// here are directly comparable to `BENCH_md_engine.json`.
fn chain_parts(n: usize) -> (System, Topology) {
    let mut sys = System::new();
    let side = (n as f64).cbrt().ceil().max(2.0) as usize;
    for i in 0..n {
        let p = Vec3::new(
            (i % side) as f64 * 6.5,
            ((i / side) % side) as f64 * 6.5,
            (i / (side * side)) as f64 * 6.5,
        );
        sys.add_particle(p, 330.0, if i % 2 == 0 { -1.0 } else { 0.0 }, 1);
    }
    let mut topo = Topology::new();
    for i in 0..n - 1 {
        topo.add_harmonic_bond(i, i + 1, 6.5, 5.0);
    }
    topo.set_group("smd", (0..n).collect());
    (sys, topo)
}

fn chain_simulation(n: usize, seed: u64) -> Simulation {
    let (sys, topo) = chain_parts(n);
    let positions: Vec<Vec3> = sys.positions().to_vec();
    let mut ff = ForceField::new(topo).with_nonbonded(
        NonBonded::new(LjParams::wca(6.0, 0.5), 13.0, 1.0).with_debye_huckel(3.04, 78.0),
    );
    for (i, p) in positions.iter().enumerate() {
        ff = ff.with_restraint(Restraint::harmonic(i, *p, 0.5));
    }
    Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
        0.01,
    )
}

#[derive(Clone, Copy)]
enum Arm {
    Plain,
    Disabled,
    Enabled,
}

const ARMS: [Arm; 3] = [Arm::Plain, Arm::Disabled, Arm::Enabled];

/// Steps/sec through the full integration loop under one arm.
fn time_steps(n: usize, steps: u64, arm: Arm) -> f64 {
    let mut sim = chain_simulation(n, 1);
    // The handle outlives the run: the enabled arm publishes into it.
    let telemetry = match arm {
        Arm::Plain => None,
        Arm::Disabled => Some(Telemetry::disabled()),
        Arm::Enabled => Some(Telemetry::enabled()),
    };
    if let Some(t) = &telemetry {
        sim.attach_telemetry(t.track("bench.md", 0));
    }
    sim.run(50, &mut []).expect("warm-up");
    let t0 = Instant::now();
    sim.run(steps, &mut []).expect("timed run");
    let sps = steps as f64 / t0.elapsed().as_secs_f64();
    if let Some(t) = &telemetry {
        sim.kernel_counters().publish(t);
    }
    sps
}

/// Pure force-kernel throughput (no telemetry touches this loop at
/// all): evals/sec, for the cross-check against `BENCH_md_engine.json`.
fn time_force_evals(n: usize, iters: u64) -> f64 {
    let (mut sys, topo) = chain_parts(n);
    let mut ff = ForceField::new(topo).with_nonbonded(
        NonBonded::new(LjParams::wca(6.0, 0.5), 13.0, 1.0).with_debye_huckel(3.04, 78.0),
    );
    for _ in 0..100 {
        ff.evaluate(&mut sys);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        ff.evaluate(&mut sys);
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

/// Steps/sec of each arm (indexed as [`ARMS`]) in each of `rounds`
/// rounds, the arm order rotated by one every round and each timed call
/// preceded by an untimed call of the same arm.
fn paired_rounds(n: usize, steps: u64, rounds: usize) -> Vec<[f64; 3]> {
    (0..rounds)
        .map(|r| {
            let mut sps = [0.0; 3];
            for k in 0..ARMS.len() {
                let a = (r + k) % ARMS.len();
                time_steps(n, steps, ARMS[a]);
                sps[a] = time_steps(n, steps, ARMS[a]);
            }
            sps
        })
        .collect()
}

struct Row {
    n_beads: usize,
    rounds: usize,
    /// Median steps/sec of each arm, indexed as [`ARMS`].
    sps: [f64; 3],
    /// Median over rounds of the disabled arm's paired overhead (%).
    disabled_overhead_pct: f64,
    /// Median over rounds of the enabled arm's paired overhead (%).
    enabled_overhead_pct: f64,
}

impl Row {
    fn measure(n: usize, steps: u64, rounds: usize) -> Row {
        let per_round = paired_rounds(n, steps, rounds);
        let arm = |a: usize| median(&per_round.iter().map(|r| r[a]).collect::<Vec<_>>());
        let overhead = |a: usize| {
            let paired: Vec<f64> = per_round
                .iter()
                .map(|r| (1.0 - r[a] / r[0]) * 100.0)
                .collect();
            median(&paired)
        };
        Row {
            n_beads: n,
            rounds,
            sps: [arm(0), arm(1), arm(2)],
            disabled_overhead_pct: overhead(1),
            enabled_overhead_pct: overhead(2),
        }
    }
}

/// The committed 12-bead tiered kernel throughput, if the baseline
/// file is reachable from the current working directory.
fn baseline_evals_per_sec() -> Option<f64> {
    for path in ["crates/bench/BENCH_md_engine.json", "BENCH_md_engine.json"] {
        if let Ok(text) = std::fs::read_to_string(path) {
            // First kernel row is the 12-bead one.
            let key = "\"force_evals_per_sec_tiered\": ";
            if let Some(at) = text.find(key) {
                let rest = &text[at + key.len()..];
                let end = rest
                    .find(|c: char| c != '.' && !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                if let Ok(v) = rest[..end].parse::<f64>() {
                    return Some(v);
                }
            }
        }
    }
    None
}

fn main() {
    let mut rows = Vec::new();
    for &n in &[12usize, 256] {
        let (steps, rounds) = if n <= 64 { (100_000, 9) } else { (4_000, 7) };
        let row = Row::measure(n, steps, rounds);
        let [plain, disabled, enabled] = row.sps;
        eprintln!(
            "n={n}: median steps/sec over {rounds} rounds: plain {plain:.0}, \
             disabled-attached {disabled:.0} ({:+.2}% paired), enabled {enabled:.0} \
             ({:+.2}% paired)",
            row.disabled_overhead_pct, row.enabled_overhead_pct
        );
        rows.push(row);
    }

    let evals_12 = time_force_evals(12, 300_000);
    let baseline = baseline_evals_per_sec();
    let baseline_ratio = baseline.map(|b| evals_12 / b);

    // Gate: the disabled handle must be free (< 2% on every size).
    let overhead_ok = rows
        .iter()
        .all(|r| r.disabled_overhead_pct < GATE_OVERHEAD_PCT);

    let row_json = |r: &Row| {
        format!(
            "    {{\"n_beads\": {}, \"rounds\": {}, \"steps_per_sec_plain\": {:.1}, \
             \"steps_per_sec_disabled\": {:.1}, \"steps_per_sec_enabled\": {:.1}, \
             \"disabled_overhead_pct\": {:.3}, \"enabled_overhead_pct\": {:.3}}}",
            r.n_beads,
            r.rounds,
            r.sps[0],
            r.sps[1],
            r.sps[2],
            r.disabled_overhead_pct,
            r.enabled_overhead_pct,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"gate_overhead_pct_max\": {GATE_OVERHEAD_PCT:.1},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"force_evals_per_sec_12_bead\": {evals_12:.1},\n  \
         \"baseline_force_evals_per_sec_12_bead\": {},\n  \
         \"force_evals_vs_baseline_ratio\": {},\n  \
         \"overhead_ok\": {overhead_ok}\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
        baseline.map_or("null".to_string(), |b| format!("{b:.1}")),
        baseline_ratio.map_or("null".to_string(), |r| format!("{r:.3}")),
    );
    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    println!("{json}");

    if !overhead_ok {
        eprintln!("FAIL: disabled-telemetry overhead exceeds {GATE_OVERHEAD_PCT}%");
        std::process::exit(1);
    }
}
