//! MD substrate kernels, machine-readable: times the tiered pair kernel
//! and the clone-amortized ensemble against fully independent
//! equilibrations, both on the batched lane engine (`run_ensemble_batched`
//! against `run_ensemble`, so the ratio is clone amortization alone), then
//! writes `BENCH_md_engine.json` (force evals/sec, pairs/sec, integration
//! steps/sec, ensemble wall-clock) so CI and EXPERIMENTS.md can track
//! kernel performance.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_md_engine
//! ```

use spice_md::forces::{ForceField, LjParams, NonBonded, Restraint};
use spice_md::integrate::LangevinBaoab;
use spice_md::{Simulation, System, Topology, Vec3};
use spice_smd::{run_ensemble, run_ensemble_batched, PullProtocol};
use spice_stats::rng::SeedSequence;
use std::time::Instant;

/// Per-size kernel measurements.
struct KernelRow {
    n_beads: usize,
    evals_per_sec: f64,
    pairs_per_sec: f64,
    steps_per_sec: f64,
}

/// The fixed bench system: an n-bead charged chain (alternating −1/0
/// backbone pattern, matching the coarse-grained ssDNA bead charges),
/// bonded along the chain. The 12-bead instance mirrors the Bench-scale
/// strand (12 bases → 12 beads).
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

fn chain_nonbonded() -> NonBonded {
    NonBonded::new(LjParams::wca(6.0, 0.5), 13.0, 1.0).with_debye_huckel(3.04, 78.0)
}

/// Full simulation over the bench chain, every bead restrained to its
/// lattice site so ensembles stay bounded.
fn chain_simulation(n: usize, seed: u64) -> Simulation {
    let (sys, topo) = chain_parts(n);
    let positions: Vec<Vec3> = sys.positions().to_vec();
    let mut ff = ForceField::new(topo).with_nonbonded(chain_nonbonded());
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

/// Force-evaluation throughput (the kernel the tiered list rebuilt):
/// (evals/sec, pairs/sec).
fn time_force_evals(n: usize, iters: u64) -> (f64, f64) {
    let (mut sys, topo) = chain_parts(n);
    let mut ff = ForceField::new(topo).with_nonbonded(chain_nonbonded());
    for _ in 0..100 {
        ff.evaluate(&mut sys);
    }
    let pairs0 = ff.kernel_counters().pairs_evaluated;
    let t0 = Instant::now();
    for _ in 0..iters {
        ff.evaluate(&mut sys);
    }
    let dt = t0.elapsed().as_secs_f64();
    let pairs = ff.kernel_counters().pairs_evaluated - pairs0;
    (iters as f64 / dt, pairs as f64 / dt)
}

/// Full Langevin integration throughput: steps/sec.
fn time_steps(n: usize, steps: u64) -> f64 {
    let mut sim = chain_simulation(n, 1);
    sim.run(50, &mut []).expect("warm-up");
    let t0 = Instant::now();
    sim.run(steps, &mut []).expect("timed run");
    steps as f64 / t0.elapsed().as_secs_f64()
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    (spice_stats::mean(xs), spice_stats::variance(xs))
}

fn main() {
    // ---- Kernel throughput: the tiered pair kernel ------------------
    let mut rows = Vec::new();
    for &n in &[12usize, 256] {
        let (eval_iters, step_iters) = if n <= 64 {
            (1_000_000, 200_000)
        } else {
            (30_000, 5_000)
        };
        let (evals_per_sec, pairs_per_sec) = time_force_evals(n, eval_iters);
        let steps_per_sec = time_steps(n, step_iters);
        eprintln!(
            "n={n}: force evals/sec {evals_per_sec:.3e}, pairs/sec {pairs_per_sec:.3e}, \
             full steps/sec {steps_per_sec:.0}"
        );
        rows.push(KernelRow {
            n_beads: n,
            evals_per_sec,
            pairs_per_sec,
            steps_per_sec,
        });
    }

    // ---- Ensemble wall-clock: cloned vs independent -----------------
    // One fixed (κ, v) sweep cell over the 12-bead system, 24
    // realizations, equilibration-heavy (the regime clone amortization
    // targets: one shared 1500-step equilibration vs 24 independent
    // ones, 100-step post-clone decorrelation). Both arms step their
    // realizations as lanes of the batched engine.
    let n_real = 24;
    let protocol = PullProtocol {
        kappa_pn_per_a: 300.0,
        v_a_per_ns: 800.0,
        pull_distance: 2.0,
        dt_ps: 0.01,
        equilibration_steps: 1_500,
        sample_stride: 10,
    };
    let decorrelation_steps = 100;
    let factory = |seed: u64| chain_simulation(12, seed);

    let t0 = Instant::now();
    let indep: Vec<f64> = run_ensemble(factory, &protocol, n_real, SeedSequence::new(31))
        .into_iter()
        .map(|r| r.expect("independent realization").final_work())
        .collect();
    let wall_indep = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let cloned: Vec<f64> = run_ensemble_batched(
        factory,
        &protocol,
        n_real,
        SeedSequence::new(32),
        decorrelation_steps,
    )
    .into_iter()
    .map(|r| r.expect("cloned realization").final_work())
    .collect();
    let wall_cloned = t0.elapsed().as_secs_f64();

    let ensemble_speedup = wall_indep / wall_cloned;
    let (mi, vi) = mean_var(&indep);
    let (mc, vc) = mean_var(&cloned);
    // Statistical equivalence gate: means within 3 combined standard
    // errors, variances within the χ² scatter of n = 24 samples.
    let se = (vi / n_real as f64 + vc / n_real as f64).sqrt();
    let work_stats_ok = (mi - mc).abs() < 3.0 * se.max(0.05) && vc > vi / 6.25 && vc < vi * 6.25;
    eprintln!(
        "ensemble: independent {wall_indep:.2}s vs cloned {wall_cloned:.2}s \
         ({ensemble_speedup:.2}x); work mean {mi:.3} vs {mc:.3}, var {vi:.3} vs {vc:.3}"
    );

    // ---- Emit BENCH_md_engine.json ----------------------------------
    let row_json = |r: &KernelRow| {
        format!(
            "    {{\"n_beads\": {}, \
             \"force_evals_per_sec_tiered\": {:.1}, \
             \"pairs_per_sec_tiered\": {:.1}, \
             \"sim_steps_per_sec_tiered\": {:.1}}}",
            r.n_beads, r.evals_per_sec, r.pairs_per_sec, r.steps_per_sec,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"md_engine\",\n  \"kernel\": [\n{}\n  ],\n  \
         \"ensemble\": {{\n    \
         \"realizations\": {},\n    \"equilibration_steps\": {},\n    \
         \"decorrelation_steps\": {},\n    \"pull_steps\": {},\n    \
         \"wall_clock_independent_s\": {:.4},\n    \
         \"wall_clock_cloned_s\": {:.4},\n    \"speedup\": {:.3},\n    \
         \"work_mean_independent\": {:.6},\n    \"work_mean_cloned\": {:.6},\n    \
         \"work_var_independent\": {:.6},\n    \"work_var_cloned\": {:.6},\n    \
         \"work_stats_within_tolerance\": {}\n  }}\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
        n_real,
        protocol.equilibration_steps,
        decorrelation_steps,
        protocol.pull_steps(),
        wall_indep,
        wall_cloned,
        ensemble_speedup,
        mi,
        mc,
        vi,
        vc,
        work_stats_ok
    );
    std::fs::write("BENCH_md_engine.json", &json).expect("write BENCH_md_engine.json");
    println!("{json}");
}
