//! Batched SoA ensemble throughput, machine-readable: times
//! `run_ensemble_cloned` against `run_ensemble_batched` on two fixtures
//! (single restrained bead; 12-bead bonded/charged chain) at 64+
//! replicas and on the system the pipeline runs (the strand in the pore
//! with the protocol `run_cell` uses: the Bench-scale 12-base strand at
//! 24 replicas, and the Test-scale 8-base strand at 6 replicas, which
//! the batched engine pads to 8 lanes), spot-checks that the two paths
//! stay bit-identical, and writes `BENCH_ensemble_batch.json`.
//!
//! The batched arm steps its lanes in chunks of whole 8-lane vectors, one
//! chunk per core (up to the row's `workers`, the `smd.batch.chunks`
//! gauge), while the cloned arm steps its clones one after another on
//! one thread: every ratio counts cores as well as lanes. e2ebench's
//! `md.batch.speedup` times one batch on one thread, the lanes-only ratio.
//!
//! ```sh
//! cargo bench -p spice-bench --bench bench_ensemble_batch
//! ```
//!
//! Gate: the best ≥64-replica config must beat the cloned path by the
//! tier floor — ≥5× realizations/sec on AVX-512 (the committed-baseline
//! hardware), with lower floors on narrower ISAs where the lane sweep
//! simply has fewer f64 slots per vector (2.5× AVX2, 1.2× generic). The
//! pore rows report the speedup a Bench and a Test sweep cell get and
//! are outside the gate. The bit-identity assert has no floor anywhere: both paths must
//! produce the same f64 bits on every sample.

use spice_core::pipeline::pore_simulation;
use spice_core::Scale;
use spice_md::batch::simd_tier_name;
use spice_md::forces::nonbonded::{LjParams, NonBonded};
use spice_md::forces::Restraint;
use spice_md::integrate::LangevinBaoab;
use spice_md::MdError;
use spice_md::{ForceField, Simulation, System, Topology, Vec3};
use spice_smd::{
    run_ensemble_batched, run_ensemble_batched_traced, run_ensemble_cloned, PullProtocol,
    WorkTrajectory,
};
use spice_stats::rng::SeedSequence;
use spice_telemetry::Telemetry;
use std::time::Instant;

const BENCH_SEED: u64 = 20050512;
const DECORRELATION_STEPS: u64 = 60;

/// Single restrained bead: the minimal SMD system. Per-step work is
/// almost pure integrator + spring, so this row isolates the lane-sweep
/// win on the BAOAB kernel itself.
fn bead_factory(seed: u64) -> Simulation {
    let mut sys = System::new();
    sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
    let mut topo = Topology::new();
    topo.set_group("smd", vec![0]);
    let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), 0.5));
    Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
        0.01,
    )
}

/// 12-bead bonded, charged chain with WCA + Debye–Hückel non-bonded
/// terms — the standard-pore-sized workload where the shared tiered
/// pair list amortizes across all lanes.
fn chain_factory(seed: u64) -> Simulation {
    let mut sys = System::new();
    let mut topo = Topology::new();
    for i in 0..12usize {
        let f = i as f64;
        sys.add_particle(
            Vec3::new(
                f * 1.1 + 0.05 * (f * 0.7).sin(),
                0.2 * (f * 1.3).cos(),
                0.1 * f,
            ),
            15.0,
            if i % 3 == 0 { 0.0 } else { -1.0 },
            0,
        );
        if i > 0 {
            topo.add_harmonic_bond(i - 1, i, 1.1, 40.0);
        }
        if i > 1 {
            topo.add_angle(i - 2, i - 1, i, 2.6, 6.0);
        }
    }
    topo.set_group("smd", (0..12).collect());
    let anchor = sys.positions()[0];
    let ff = ForceField::new(topo)
        .with_nonbonded(
            NonBonded::new(LjParams::wca(1.0, 0.8), 4.0, 0.4).with_debye_huckel(3.0, 80.0),
        )
        .with_restraint(Restraint::harmonic(0, anchor, 5.0));
    Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
        0.01,
    )
}

/// The fixtures' protocol: stiff and fast, so a realization is short.
fn proto() -> PullProtocol {
    PullProtocol {
        kappa_pn_per_a: 300.0,
        v_a_per_ns: 2000.0,
        pull_distance: 4.0,
        dt_ps: 0.01,
        equilibration_steps: 200,
        sample_stride: 20,
    }
}

/// One benchmarked system: its replica factory and the protocol and
/// decorrelation hold its ensembles run.
struct Case {
    factory: Box<dyn Fn(u64) -> Simulation + Sync>,
    protocol: PullProtocol,
    decorrelation_steps: u64,
}

impl Case {
    fn fixture(factory: fn(u64) -> Simulation) -> Self {
        Case {
            factory: Box::new(factory),
            protocol: proto(),
            decorrelation_steps: DECORRELATION_STEPS,
        }
    }

    /// The strand in the pore as a `run_cell` at `scale` runs it:
    /// κ = 100 pN/Å on the v = 100 Å/ns column.
    fn pore(scale: Scale) -> Self {
        Case {
            factory: Box::new(move |seed| pore_simulation(scale, seed)),
            protocol: scale.protocol(100.0, 100.0),
            decorrelation_steps: scale.decorrelation_steps(),
        }
    }

    fn cloned(&self, replicas: usize) -> Vec<Result<WorkTrajectory, MdError>> {
        run_ensemble_cloned(
            &self.factory,
            &self.protocol,
            replicas,
            SeedSequence::new(BENCH_SEED),
            self.decorrelation_steps,
        )
    }

    fn batched(&self, replicas: usize) -> Vec<Result<WorkTrajectory, MdError>> {
        run_ensemble_batched(
            &self.factory,
            &self.protocol,
            replicas,
            SeedSequence::new(BENCH_SEED),
            self.decorrelation_steps,
        )
    }

    /// Threads the batched arm steps `replicas` lanes on: the
    /// `smd.batch.chunks` gauge of one traced run.
    fn workers(&self, replicas: usize) -> usize {
        let telemetry = Telemetry::enabled();
        run_ensemble_batched_traced(
            &self.factory,
            &self.protocol,
            replicas,
            SeedSequence::new(BENCH_SEED),
            self.decorrelation_steps,
            &telemetry,
            0,
        );
        telemetry.gauge("smd.batch.chunks").get() as usize
    }
}

/// Seconds one call of `run` takes.
fn timed(run: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    run();
    t0.elapsed().as_secs_f64()
}

struct Row {
    label: &'static str,
    replicas: usize,
    workers: usize,
    steps_per_realization: u64,
    wall_s_cloned: f64,
    wall_s_batched: f64,
}

impl Row {
    fn per_sec_cloned(&self) -> f64 {
        self.replicas as f64 / self.wall_s_cloned
    }
    fn per_sec_batched(&self) -> f64 {
        self.replicas as f64 / self.wall_s_batched
    }
    fn ratio(&self) -> f64 {
        self.wall_s_cloned / self.wall_s_batched
    }
}

/// Time `rounds` rounds of each arm, alternating cloned and batched round
/// by round so that a change of host speed lands on both arms alike, and
/// keep each arm's best. Each timed call follows an untimed call of the
/// same arm: timed straight after the other arm, the bead rows' ratios
/// spread more than twice as wide (EXPERIMENTS.md).
fn bench_case(label: &'static str, case: &Case, replicas: usize, rounds: u32) -> Row {
    let cloned = || {
        assert!(
            case.cloned(replicas).iter().all(Result::is_ok),
            "{label}: cloned realization failed"
        );
    };
    let batched = || {
        assert!(
            case.batched(replicas).iter().all(Result::is_ok),
            "{label}: batched realization failed"
        );
    };
    let (mut wall_s_cloned, mut wall_s_batched) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        cloned();
        wall_s_cloned = wall_s_cloned.min(timed(cloned));
        batched();
        wall_s_batched = wall_s_batched.min(timed(batched));
    }
    let p = &case.protocol;
    let row = Row {
        label,
        replicas,
        workers: case.workers(replicas),
        steps_per_realization: p.equilibration_steps + case.decorrelation_steps + p.pull_steps(),
        wall_s_cloned,
        wall_s_batched,
    };
    eprintln!(
        "{label:>10}: {replicas:>3} replicas × {} steps: cloned {:>8.2}/s, batched {:>8.2}/s \
         on {} worker(s) — {:.2}x",
        row.steps_per_realization,
        row.per_sec_cloned(),
        row.per_sec_batched(),
        row.workers,
        row.ratio(),
    );
    row
}

/// The contract the throughput comparison rests on: per-seed work
/// distributions from the two paths are the same bits.
fn assert_bit_identical(label: &str, case: &Case, n: usize) {
    let cloned = case.cloned(n);
    let batched = case.batched(n);
    assert_eq!(cloned.len(), batched.len());
    for (l, (c, b)) in cloned.iter().zip(&batched).enumerate() {
        let (c, b) = (
            c.as_ref().expect("cloned ok"),
            b.as_ref().expect("batched ok"),
        );
        assert_eq!(c.seed, b.seed, "{label}: replica {l} seed");
        assert_eq!(
            c.samples, b.samples,
            "{label}: replica {l}: work samples must be bit-identical"
        );
    }
}

fn main() {
    let tier = simd_tier_name();
    // The committed baseline is produced on AVX-512; narrower ISAs get
    // proportionally lower floors (8 → 4 → 1 f64 lanes per vector).
    let gate_ratio_min = match tier {
        "avx512" => 5.0,
        "avx2" => 2.5,
        _ => 1.2,
    };

    let bead = Case::fixture(bead_factory);
    let chain = Case::fixture(chain_factory);
    let pore = Case::pore(Scale::Bench);
    let test_pore = Case::pore(Scale::Test);
    assert_bit_identical("bead", &bead, 8);
    assert_bit_identical("chain", &chain, 8);
    assert_bit_identical("pore", &pore, 24);
    assert_bit_identical("test pore", &test_pore, 6);
    eprintln!("bit-identity spot checks passed (bead + chain, 8 replicas; pore, 24; test pore, 6)");

    let rows = [
        bench_case("bead/64", &bead, 64, 5),
        bench_case("bead/128", &bead, 128, 5),
        bench_case("chain12/64", &chain, 64, 5),
        bench_case("pore12/24", &pore, 24, 3),
        bench_case("pore8/6", &test_pore, 6, 7),
    ];

    let best = rows
        .iter()
        .filter(|r| r.replicas >= 64)
        .map(|r| r.ratio())
        .fold(0.0f64, f64::max);
    let gate_met = best >= gate_ratio_min;

    let row_json = |r: &Row| {
        format!(
            "    {{\"label\": \"{}\", \"replicas\": {}, \"workers\": {}, \
             \"steps_per_realization\": {}, \
             \"wall_s_cloned\": {:.5}, \"wall_s_batched\": {:.5}, \
             \"realizations_per_sec_cloned\": {:.1}, \"realizations_per_sec_batched\": {:.1}, \
             \"speedup_ratio\": {:.3}}}",
            r.label,
            r.replicas,
            r.workers,
            r.steps_per_realization,
            r.wall_s_cloned,
            r.wall_s_batched,
            r.per_sec_cloned(),
            r.per_sec_batched(),
            r.ratio(),
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"ensemble_batch\",\n  \"simd_tier\": \"{tier}\",\n  \
         \"gate_ratio_min\": {gate_ratio_min:.1},\n  \"rows\": [\n{}\n  ],\n  \
         \"best_ratio\": {best:.3},\n  \"bit_identical\": true,\n  \"gate_met\": {gate_met}\n}}\n",
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write("BENCH_ensemble_batch.json", &json).expect("write BENCH_ensemble_batch.json");
    println!("{json}");

    if !gate_met {
        eprintln!("FAIL: best ≥64-replica speedup {best:.2}x is below the {gate_ratio_min:.1}x {tier} floor");
        std::process::exit(1);
    }
}
