//! Batched ensembles: advance every cloned realization through one
//! vectorized force/integrate loop.
//!
//! [`run_ensemble_batched`] is a drop-in replacement for
//! [`run_ensemble_cloned`](crate::ensemble::run_ensemble_cloned): same
//! master equilibration, same seeds, same per-replica decorrelation and
//! pull — and *bit-identical* work trajectories (property-tested in
//! `tests/batch_equivalence.rs`). The difference is purely mechanical:
//! instead of R independent [`Simulation`]s stepped on separate rayon
//! tasks, the replicas become R lanes of [`BatchSim`]s whose SoA kernels
//! sweep all lanes per pair/particle (see `spice_md::batch`).
//!
//! Per-replica state the cloned path keeps inside `SmdSpring`/`pull_from`
//! locals — COM origin, trapezoid work accumulator, previous spring
//! force, sample buffer — lives here in per-lane vectors, updated with
//! the exact expressions the scalar path evaluates.
//!
//! Failure semantics mirror the cloned path slot-for-slot: a replica
//! whose state goes non-finite gets the same `MdError` in its result
//! slot (detected on the same step, with the same message) while the
//! remaining lanes continue unperturbed; the failed lane is excluded
//! from neighbor-list rebuilds from that point on. A lane that faults
//! (`BatchSim::lane_faulted`: a rebuild could not bin it, where its
//! cloned twin's cell list panics) gets the error the cloned path's
//! panic isolation gives that twin.
//!
//! The lanes run as *chunks*, one per worker thread: contiguous runs of
//! whole 8-lane vectors, as few as there are cores (`lane_chunks`). Each
//! chunk is its own [`BatchSim`] stepped through the hold and the pull
//! end to end, the first on the calling thread and the others on scoped
//! workers. Lanes never mix and each chunk's union pair list is a
//! superset of its own lanes' lists, so no bit, failure slot or error
//! text depends on the layout. Factory calls, restores, batch
//! construction and every telemetry record stay on the calling thread;
//! a worker owns only its chunk and hands back its slots and rebuild
//! count.
//!
//! Each batch runs on a lane stride padded to whole SIMD vectors
//! (`spice_md::batch::LANE_PAD`); its pad lanes copy its lane
//! `spice_md::batch::PAD_SOURCE` (the chunk's first lane) and never
//! reach a result, a span or the replica gauge.
//!
//! Batched runs require every replica's integrator to be BAOAB Langevin
//! (the only stochastic state the lane kernels replicate). When
//! `factory` produces anything else the call transparently falls back to
//! the cloned path.

use crate::ensemble::{equilibrate_master, run_ensemble_cloned_traced};
use crate::protocol::PullProtocol;
use crate::pulling::SmdSpring;
use crate::work::{WorkSample, WorkTrajectory};
#[cfg(feature = "audit")]
use spice_md::batch::PAD_SOURCE;
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat, LANE_PAD};
#[cfg(feature = "audit")]
use spice_md::checkpoint::Snapshot;
use spice_md::{MdError, Simulation};
use spice_stats::rng::SeedSequence;
use spice_telemetry::Telemetry;
use std::ops::Range;
use std::sync::OnceLock;

/// How often (in MD steps) the `audit` feature replays lanes against
/// scalar shadow simulations.
#[cfg(feature = "audit")]
const AUDIT_REPLAY_STRIDE: u64 = 64;

/// One result slot per realization.
type Slots = Vec<Result<WorkTrajectory, MdError>>;

/// [`run_ensemble_cloned`](crate::ensemble::run_ensemble_cloned) through
/// the batched SoA engine: one shared equilibration, then all `n`
/// realizations advanced in lockstep by vectorized loops, one lane chunk
/// per core.
///
/// Bit-identical to the cloned path for every seed (slot `i` carries the
/// same `WorkTrajectory` or the same error). Falls back to the cloned
/// path when the factory's integrator is not BAOAB Langevin.
/// e2ebench's `traced_cell` calls this untraced form.
pub fn run_ensemble_batched<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    run_ensemble_batched_traced(
        factory,
        protocol,
        n,
        seeds,
        decorrelation_steps,
        &Telemetry::disabled(),
        0,
    )
}

/// [`run_ensemble_batched`] with telemetry attached.
///
/// Emits the same `smd.equilibrate` span as the cloned path, one
/// `batch.realization` span per realization on its
/// `("smd.realization", i)` track, an `smd.batch.replicas` gauge (the
/// realizations, not the padded lane stride), an `smd.batch.chunks`
/// gauge (the lane chunks the realizations ran as, one per worker
/// thread), and an `smd.batch.rebuilds` counter: the pair-list rebuilds
/// of every chunk, summed, so it depends on the chunk count. Per-step MD
/// probes are not emitted — the batched loop has no per-replica force
/// evaluations to probe; replica-grain timing comes from the lane spans
/// instead.
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble_batched_traced<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
    telemetry: &Telemetry,
    track_key: u64,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    run_lane_chunks(
        factory,
        protocol,
        n,
        seeds,
        decorrelation_steps,
        telemetry,
        track_key,
        &lane_chunks(n, workers()),
    )
}

/// Threads a batched ensemble may step lanes on: the host's available
/// parallelism, read once per process (1 when it cannot be read).
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |w| w.get()))
}

/// The lane layout of `n` realizations on `workers` threads: as few
/// chunks as there are workers but at most one per [`LANE_PAD`]-lane
/// vector, each a whole number of vectors (the last one ends at `n`),
/// widest first and no two more than one vector apart. Fewest chunks
/// wins because a batch step carries a cost that does not scale with
/// lanes: 24 lanes on two workers run as `[16, 8]`, not `[8, 8, 8]`.
pub(crate) fn lane_chunks(n: usize, workers: usize) -> Vec<Range<usize>> {
    let vectors = n.div_ceil(LANE_PAD);
    let k = workers.max(1).min(vectors);
    let mut end = 0;
    (0..k)
        .map(|c| {
            let start = end;
            end = n.min(start + (vectors / k + usize::from(c < vectors % k)) * LANE_PAD);
            start..end
        })
        .collect()
}

/// [`run_ensemble_batched_traced`] on the lane layout `chunks`, a
/// partition of `0..n` into contiguous ranges: each chunk runs as its own
/// batch, the first on the calling thread and the others on scoped
/// workers. The slots do not depend on the layout.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lane_chunks<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
    telemetry: &Telemetry,
    track_key: u64,
    chunks: &[Range<usize>],
) -> Slots
where
    F: Fn(u64) -> Simulation + Sync,
{
    protocol.validate();
    if n == 0 {
        return Vec::new();
    }
    debug_assert!(
        chunks.first().map(|c| c.start) == Some(0)
            && chunks.last().map(|c| c.end) == Some(n)
            && chunks.windows(2).all(|w| w[0].end == w[1].start)
            && chunks.iter().all(|c| !c.is_empty()),
        "lane chunks {chunks:?} do not partition 0..{n}"
    );

    // One factory call per realization, exactly as the cloned path makes:
    // lane i's thermostat is whatever `factory(seeds.stream(i))` installs.
    // Any non-Langevin integrator defeats lane replication — fall back.
    // Each chunk's first-lane simulation is kept as that chunk's restore
    // template; the others are dropped as soon as their thermostat is read.
    let mut templates = Vec::with_capacity(chunks.len());
    let lanes: Option<Vec<LaneThermostat>> = (0..n)
        .map(|i| {
            let sim = factory(seeds.stream(i as u64));
            let lane = sim
                .langevin_params()
                .map(|(temperature, gamma, noise_seed)| LaneThermostat {
                    temperature,
                    gamma,
                    noise_seed,
                });
            if chunks.get(templates.len()).is_some_and(|c| c.start == i) {
                templates.push(sim);
            }
            lane
        })
        .collect();
    let Some(lanes) = lanes else {
        return run_ensemble_cloned_traced(
            factory,
            protocol,
            n,
            seeds,
            decorrelation_steps,
            telemetry,
            track_key,
        );
    };

    let snap = match equilibrate_master(&factory, protocol, n, seeds, telemetry, track_key) {
        Ok(snap) => snap,
        Err(slots) => return slots,
    };

    // The same `factory(seed) → restore` every clone performs. Restore is
    // deterministic and fails only with `MdError::Checkpoint`, so every
    // clone would fail the same way: each slot gets that error's text.
    if let Err(e) = templates.iter_mut().try_for_each(|t| snap.restore(t)) {
        let msg = match e {
            MdError::Checkpoint(msg) => msg,
            other => other.to_string(),
        };
        return (0..n)
            .map(|_| Err(MdError::Checkpoint(msg.clone())))
            .collect();
    }

    // Group resolution fails identically for every clone too; produce one
    // fresh (equal) error per slot.
    let template = &templates[0];
    let group = match template.force_field().topology().group("smd") {
        Ok(g) => g.to_vec(),
        Err(_) => {
            return (0..n)
                .map(|_| match template.force_field().topology().group("smd") {
                    Ok(_) => unreachable!("group lookup cannot succeed after failing"),
                    Err(e) => Err(e),
                })
                .collect();
        }
    };
    let masses = template.system().masses();

    // Anchor COM exactly as `anchor_and_hold` computes it. All lanes
    // restore to identical coordinates, so one value serves every lane.
    let probe = SmdSpring::new(group.clone(), masses, protocol.kappa(), 0.0, 0.0, 0.0);
    let com0 = probe.com_z(template.system().positions());
    let hold = SmdSpring::new(group, masses, protocol.kappa(), 0.0, com0, 0.0);

    let chunks: Vec<Chunk> = chunks
        .iter()
        .zip(templates)
        .map(|(range, template)| Chunk {
            first: range.start,
            batch: BatchSim::new(template, &lanes[range.start..range.end]),
            failed: (0..range.len()).map(|_| None).collect(),
            #[cfg(feature = "audit")]
            shadows: Shadows::new(&factory, seeds, range.clone(), &snap, &hold),
        })
        .collect();
    telemetry.set_gauge("smd.batch.replicas", n as f64);
    telemetry.set_gauge("smd.batch.chunks", chunks.len() as f64);
    // Keep each lane's realization span open for the whole batched run:
    // lanes advance in lockstep, so per-lane wall time is the batch's.
    let lane_spans: Vec<_> = (0..n)
        .map(|i| {
            telemetry
                .track("smd.realization", i as u64)
                .span("batch.realization")
        })
        .collect();

    let run = |chunk: Chunk| chunk.run(protocol, seeds, decorrelation_steps, &hold, com0);
    let mut chunks = chunks.into_iter();
    let own = chunks.next().expect("n > 0 lanes make at least one chunk");
    let ran: Vec<(Slots, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || run(chunk)))
            .collect();
        let own = run(own);
        std::iter::once(own)
            .chain(workers.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    });

    let mut results = Vec::with_capacity(n);
    let mut rebuilds = 0;
    for (slots, chunk_rebuilds) in ran {
        results.extend(slots);
        rebuilds += chunk_rebuilds;
    }
    telemetry.counter("smd.batch.rebuilds").add(rebuilds);
    drop(lane_spans);
    results
}

/// One lane chunk, built on the calling thread: its batch and its
/// failure slots, indexed by the chunk's own lanes.
struct Chunk {
    /// The realization index of the chunk's lane 0.
    first: usize,
    batch: BatchSim,
    failed: Vec<Option<MdError>>,
    #[cfg(feature = "audit")]
    shadows: Shadows,
}

impl Chunk {
    /// The decorrelation hold, then the pull: the chunk's slots in lane
    /// order, and its pair-list rebuild count.
    fn run(
        mut self,
        protocol: &PullProtocol,
        seeds: SeedSequence,
        decorrelation_steps: u64,
        hold: &SmdSpring,
        com0: f64,
    ) -> (Slots, u64) {
        // Post-clone decorrelation: held spring, per-lane noise streams. The
        // cloned path's `sim.run(steps)` health-checks every
        // `blowup_check_stride = 100` *global* steps.
        let mut hold_bias = batch_spring_bias(hold, self.batch.stride());
        self.batch.refresh_forces(&mut hold_bias);
        for _ in 0..decorrelation_steps {
            self.batch.step_once(&mut hold_bias);
            self.record_faults(seeds);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            if self.batch.step_count().is_multiple_of(100) {
                self.check_hold_blowup();
            }
        }
        drop(hold_bias);

        // Pull phase: guide moves at constant v from the shared anchor; each
        // lane integrates its own trapezoid work from its own COM excursion.
        let spring = SmdSpring::new(
            hold.group().to_vec(),
            self.batch.masses(),
            protocol.kappa(),
            protocol.velocity(),
            com0,
            self.batch.time_ps(),
        );
        #[cfg(feature = "audit")]
        self.shadows.set_bias(&spring, &self.failed);
        self.pull(&spring, protocol, seeds)
    }

    /// Fail every lane whose cloned twin panicked this step: the lanes
    /// that faulted and, under `audit`, those whose state went non-finite
    /// (the twin's per-step `md.finite_state` sanitizer panics on the step
    /// that produced it).
    fn record_faults(&mut self, seeds: SeedSequence) {
        for (l, slot) in self.failed.iter_mut().enumerate() {
            if slot.is_none()
                && (self.batch.lane_faulted(l)
                    || (cfg!(feature = "audit") && !self.batch.lane_is_finite(l)))
            {
                *slot = Some(panicked(self.first + l, seeds));
                self.batch.mark_dead(l);
            }
        }
    }

    /// The hold-phase health check `Simulation::run` performs every
    /// `blowup_check_stride` steps, applied per lane.
    fn check_hold_blowup(&mut self) {
        for (l, slot) in self.failed.iter_mut().enumerate() {
            if slot.is_none() && !self.batch.lane_is_finite(l) {
                *slot = Some(MdError::NumericalBlowup {
                    step: self.batch.step_count(),
                    what: "non-finite coordinate or velocity".into(),
                });
                self.batch.mark_dead(l);
            }
        }
    }

    /// The pull loop of `runner::pull_from`, fanned across lanes: one
    /// `step_once` per step for the whole batch, then per-lane work/sample
    /// updates with the scalar path's exact expressions and check order.
    /// Returns the chunk's slots in lane order and its rebuild count.
    fn pull(
        mut self,
        spring: &SmdSpring,
        protocol: &PullProtocol,
        seeds: SeedSequence,
    ) -> (Slots, u64) {
        let n = self.batch.n_lanes();
        let t0 = self.batch.time_ps();
        let dt = self.batch.dt();
        let v = protocol.velocity();
        let nsteps = protocol.pull_steps();
        let cap = (nsteps / protocol.sample_stride) as usize + 2;

        let mut com = vec![0.0; n];
        lanes_com_z(spring, |i| self.batch.pos_z_row(i), &mut com);
        let com_start = com.clone();
        let mut work = vec![0.0; n];
        let mut prev_force = vec![0.0; n];
        let mut samples: Vec<Vec<WorkSample>> = (0..n).map(|_| Vec::with_capacity(cap)).collect();
        for l in 0..n {
            prev_force[l] = spring.kappa() * (spring.guide_z(t0) - com[l]);
            samples[l].push(WorkSample {
                t_ps: 0.0,
                guide_disp: 0.0,
                com_disp: 0.0,
                work: 0.0,
                force: prev_force[l],
            });
        }

        let mut bias = batch_spring_bias(spring, self.batch.stride());
        self.batch.refresh_forces(&mut bias);
        for step in 1..=nsteps {
            self.batch.step_once(&mut bias);
            self.record_faults(seeds);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            let t = self.batch.time_ps();
            let guide = spring.guide_z(t);
            lanes_com_z(spring, |i| self.batch.pos_z_row(i), &mut com);
            // Work on every lane, failed ones included: their slots return
            // the error, never these values, and the sweep stays branch-free.
            for ((w, f), &c) in work.iter_mut().zip(&mut prev_force).zip(&com) {
                let force = spring.kappa() * (guide - c);
                // Trapezoid: dW = v · (F_prev + F)/2 · dt.
                *w += v * 0.5 * (*f + force) * dt;
                *f = force;
            }
            let sample = step % protocol.sample_stride == 0 || step == nsteps;
            for l in 0..n {
                if self.failed[l].is_some() {
                    continue;
                }
                // Under `audit`, the cloned path's per-step sanitizer panic is
                // caught per realization task; the per-lane analogue converts
                // the would-be panic into that slot's error so sibling lanes
                // survive, exactly as sibling tasks do.
                #[cfg(feature = "audit")]
                if !(work[l].is_finite() && prev_force[l].is_finite()) {
                    self.failed[l] = Some(panicked(self.first + l, seeds));
                    self.batch.mark_dead(l);
                    continue;
                }
                if sample {
                    samples[l].push(WorkSample {
                        t_ps: t - t0,
                        guide_disp: v * (t - t0),
                        com_disp: com[l] - com_start[l],
                        work: work[l],
                        force: prev_force[l],
                    });
                }
                if step % 200 == 0 && !self.batch.lane_is_finite(l) {
                    self.failed[l] = Some(MdError::NumericalBlowup {
                        step: self.batch.step_count(),
                        what: "non-finite state during pull".into(),
                    });
                    self.batch.mark_dead(l);
                }
            }
        }

        let slots = samples
            .into_iter()
            .zip(self.failed)
            .enumerate()
            .map(|(l, (samples, failed))| match failed {
                Some(e) => Err(e),
                None => Ok(WorkTrajectory {
                    kappa_pn_per_a: protocol.kappa_pn_per_a,
                    v_a_per_ns: protocol.v_a_per_ns,
                    seed: seeds.stream((self.first + l) as u64),
                    samples,
                }),
            })
            .collect();
        (slots, self.batch.rebuild_count())
    }
}

/// Build the batched bias closure for one spring over a lane stride of
/// `stride`: the exact per-lane replica of [`SmdSpring::apply`] (same COM
/// fold, same force split), swept across every lane, pad lanes included.
fn batch_spring_bias(
    spring: &SmdSpring,
    stride: usize,
) -> impl FnMut(f64, &mut LaneForces<'_>) + '_ {
    let mut f_com = vec![0.0; stride];
    move |t_ps: f64, lf: &mut LaneForces<'_>| {
        let guide = spring.guide_z(t_ps);
        lanes_com_z(spring, |i| lf.pos_z_row(i), &mut f_com);
        for f in f_com.iter_mut() {
            *f = -spring.kappa() * (*f - guide);
        }
        for (&i, &w) in spring.group().iter().zip(spring.mass_frac()) {
            for (fz, &f) in lf.force_z_row(i).iter_mut().zip(&f_com) {
                *fz += f * w;
            }
        }
    }
}

/// Every lane's COM of the spring's group, into `com`: the mass-fraction
/// fold of [`SmdSpring::com_z`] (iteration order and the `-0.0` seed of
/// `f64`'s `Sum` included), with lanes in the inner loop.
fn lanes_com_z<'a>(spring: &SmdSpring, z_row: impl Fn(usize) -> &'a [f64], com: &mut [f64]) {
    com.fill(-0.0);
    for (&i, &w) in spring.group().iter().zip(spring.mass_frac()) {
        for (c, &z) in com.iter_mut().zip(z_row(i)) {
            *c += w * z;
        }
    }
}

/// The error the cloned path's panic isolation gives realization `l`.
fn panicked(l: usize, seeds: SeedSequence) -> MdError {
    let seed = seeds.stream(l as u64);
    MdError::NumericalBlowup {
        step: 0,
        what: format!("cloned realization {l} (seed {seed}) panicked"),
    }
}

/// Scalar shadow replays for the `audit` feature, one set per lane chunk:
/// the chunk's first and last lanes are re-run as ordinary cloned
/// `Simulation`s in lockstep with its batch, and their full state is
/// compared bitwise every [`AUDIT_REPLAY_STRIDE`] steps. Any SoA-kernel
/// divergence — layout bug, reordered reduction, contracted FMA — trips
/// the sanitizer. On the same stride every pad lane must still be a
/// bitwise copy of the chunk's first lane, which catches a kernel that
/// leaks one lane's data into another.
#[cfg(feature = "audit")]
struct Shadows {
    /// `(chunk lane, its scalar twin)`.
    replays: Vec<(usize, Simulation)>,
}

#[cfg(feature = "audit")]
impl Shadows {
    /// Build the twins of the first and last of the realizations `lanes`
    /// on the calling thread (factory calls never leave it).
    fn new<F>(
        factory: &F,
        seeds: SeedSequence,
        lanes: Range<usize>,
        snap: &Snapshot,
        hold: &SmdSpring,
    ) -> Self
    where
        F: Fn(u64) -> Simulation + Sync,
    {
        let mut local = vec![0];
        if lanes.len() > 1 {
            local.push(lanes.len() - 1);
        }
        let replays = local
            .into_iter()
            .map(|l| {
                let mut sim = factory(seeds.stream((lanes.start + l) as u64));
                snap.restore(&mut sim)
                    .expect("audit shadow restore must succeed after batch restore did");
                sim.set_bias(Some(Box::new(hold.clone())));
                (l, sim)
            })
            .collect();
        Shadows { replays }
    }

    fn set_bias(&mut self, spring: &SmdSpring, failed: &[Option<MdError>]) {
        self.replays.retain(|(l, _)| failed[*l].is_none());
        for (_, sim) in &mut self.replays {
            // spice-lint: allow(P003) audit-only setup: one bias clone per ≤2 shadow lanes, once per pull, never the per-step kernel loop
            sim.set_bias(Some(Box::new(spring.clone())));
        }
    }

    fn step_and_check(&mut self, batch: &BatchSim, failed: &[Option<MdError>]) {
        if batch.step_count().is_multiple_of(AUDIT_REPLAY_STRIDE) && failed[PAD_SOURCE].is_none() {
            if let Some((p, i)) = batch.pad_divergence() {
                // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                panic!(
                    "spice-audit[smd.batch_pad_lanes]: pad lane {p} diverged from its \
                     source lane {PAD_SOURCE} at step {} particle {i}",
                    batch.step_count()
                );
            }
        }
        // A failed lane's garbage no longer has a meaningful twin.
        self.replays.retain(|(l, _)| failed[*l].is_none());
        for (l, sim) in &mut self.replays {
            sim.step_once();
            if sim.step_count() % AUDIT_REPLAY_STRIDE != 0 {
                continue;
            }
            for i in 0..sim.system().len() {
                let (bp, bv) = (batch.pos(i, *l), batch.vel(i, *l));
                let (sp, sv) = (sim.system().positions()[i], sim.system().velocities()[i]);
                if bp != sp || bv != sv {
                    // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                    panic!(
                        "spice-audit[smd.batch_lanes]: lane {l} diverged from scalar \
                         replay at step {} particle {i}: batch ({bp:?}, {bv:?}) vs \
                         scalar ({sp:?}, {sv:?})",
                        sim.step_count()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{run_ensemble_cloned, successes};
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::{LangevinBaoab, VelocityVerlet};
    use spice_md::{System, Topology, Vec3};
    use spice_pore::build::{PoreSystemBuilder, SmdSelection};
    use spice_pore::dna::DnaParams;

    fn factory(seed: u64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
        let mut topo = Topology::new();
        topo.set_group("smd", vec![0]);
        let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), 0.5));
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
            0.02,
        )
    }

    fn nve_factory(seed: u64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
        let mut topo = Topology::new();
        topo.set_group("smd", vec![0]);
        let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), 0.5));
        let _ = seed;
        Simulation::new(sys, ff, Box::new(VelocityVerlet), 0.02)
    }

    fn proto() -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a: 300.0,
            v_a_per_ns: 2000.0,
            pull_distance: 2.0,
            dt_ps: 0.02,
            equilibration_steps: 100,
            sample_stride: 10,
        }
    }

    #[test]
    fn batched_matches_cloned_bitwise() {
        let seeds = SeedSequence::new(11);
        let cloned = run_ensemble_cloned(factory, &proto(), 5, seeds, 40);
        let batched = run_ensemble_batched(factory, &proto(), 5, seeds, 40);
        assert_eq!(batched.len(), cloned.len());
        for (b, c) in batched.iter().zip(&cloned) {
            let (b, c) = (b.as_ref().unwrap(), c.as_ref().unwrap());
            assert_eq!(b.seed, c.seed);
            assert_eq!(b.samples, c.samples, "bitwise sample equality");
        }
    }

    #[test]
    fn batched_zero_realizations_is_empty() {
        assert!(run_ensemble_batched(factory, &proto(), 0, SeedSequence::new(1), 10).is_empty());
    }

    #[test]
    fn batched_realizations_diverge_by_seed() {
        let trajs = successes(run_ensemble_batched(
            factory,
            &proto(),
            5,
            SeedSequence::new(12),
            40,
        ));
        assert_eq!(trajs.len(), 5);
        let works: Vec<f64> = trajs.iter().map(|t| t.final_work()).collect();
        for i in 0..works.len() {
            for j in (i + 1)..works.len() {
                assert_ne!(works[i], works[j], "lanes must diverge by seed");
            }
        }
    }

    #[test]
    fn non_langevin_factory_falls_back_to_cloned() {
        let batched = run_ensemble_batched(nve_factory, &proto(), 3, SeedSequence::new(9), 20);
        let cloned = run_ensemble_cloned(nve_factory, &proto(), 3, SeedSequence::new(9), 20);
        let wb: Vec<f64> = successes(batched).iter().map(|t| t.final_work()).collect();
        let wc: Vec<f64> = successes(cloned).iter().map(|t| t.final_work()).collect();
        assert_eq!(wb, wc);
    }

    #[test]
    fn batched_is_deterministic() {
        let run = || {
            successes(run_ensemble_batched(
                factory,
                &proto(),
                4,
                SeedSequence::new(3),
                30,
            ))
            .iter()
            .map(|t| t.final_work())
            .collect::<Vec<f64>>()
        };
        let a = run();
        assert_eq!(a.len(), 4);
        assert_eq!(a, run());
    }

    #[test]
    fn lane_chunks_are_whole_vectors_within_one_vector_of_each_other() {
        for n in (1..=25usize).chain([72]) {
            let vectors = n.div_ceil(LANE_PAD);
            for workers in 1..=4 {
                let case = format!("n={n} workers={workers}");
                let chunks = lane_chunks(n, workers);
                assert_eq!(chunks.len(), workers.min(vectors), "{case}: chunk count");
                assert_eq!(chunks[0].start, 0, "{case}");
                assert_eq!(chunks[chunks.len() - 1].end, n, "{case}");
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{case}: contiguous");
                    assert_eq!(pair[0].len() % LANE_PAD, 0, "{case}: whole vectors");
                }
                let widths: Vec<usize> =
                    chunks.iter().map(|c| c.len().div_ceil(LANE_PAD)).collect();
                assert_eq!(widths.iter().sum::<usize>(), vectors, "{case}");
                assert!(
                    widths.windows(2).all(|w| w[0] >= w[1]),
                    "{case}: widest first"
                );
                assert!(
                    widths[0] - widths[widths.len() - 1] <= 1,
                    "{case}: {widths:?}"
                );
            }
        }
        assert_eq!(lane_chunks(24, 2), [0..16, 16..24]);
        assert_eq!(lane_chunks(24, 4), [0..8, 8..16, 16..24]);
        assert_eq!(lane_chunks(17, 2), [0..16, 16..17]);
        assert_eq!(lane_chunks(6, 2).len(), 1);
    }

    /// The Test-scale strand in the pore: pair, bonded and pore-field
    /// terms, so each chunk builds and rebuilds its own union pair list.
    fn test_pore(seed: u64) -> Simulation {
        PoreSystemBuilder::new()
            .dna(DnaParams {
                n_bases: 8,
                ..DnaParams::default()
            })
            .dna_start_z(46.0)
            .smd_selection(SmdSelection::WholeStrand)
            .build()
            .into_simulation(0.01, seed)
    }

    fn pore_proto() -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: 2000.0,
            pull_distance: 3.0,
            dt_ps: 0.01,
            equilibration_steps: 100,
            sample_stride: 20,
        }
    }

    fn sample_bits(t: &WorkTrajectory) -> Vec<[u64; 5]> {
        let bits =
            |s: &WorkSample| [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force].map(f64::to_bits);
        t.samples.iter().map(bits).collect()
    }

    /// Batched == cloned slot for slot on three layouts of each ensemble:
    /// one chunk, one vector per chunk, and the layout this host runs.
    /// 9, 17 and 25 lanes end in a partial vector; 16 and 24 do not.
    #[test]
    fn every_lane_layout_matches_the_cloned_path() {
        let (seeds, decorrelation) = (SeedSequence::new(20050512), 30);
        for n in [9, 16, 17, 24, 25] {
            let cloned = run_ensemble_cloned(test_pore, &pore_proto(), n, seeds, decorrelation);
            let layouts = [
                lane_chunks(n, 1),
                lane_chunks(n, n.div_ceil(LANE_PAD)),
                lane_chunks(n, workers()),
            ];
            for layout in layouts {
                let telemetry = Telemetry::enabled();
                let batched = run_lane_chunks(
                    test_pore,
                    &pore_proto(),
                    n,
                    seeds,
                    decorrelation,
                    &telemetry,
                    0,
                    &layout,
                );
                assert_eq!(batched.len(), n);
                for (slot, (b, c)) in batched.iter().zip(&cloned).enumerate() {
                    let case = format!("n={n} layout {layout:?} slot {slot}");
                    let (b, c) = (b.as_ref().expect(&case), c.as_ref().expect(&case));
                    assert_eq!(b.seed, c.seed, "{case}");
                    assert_eq!(sample_bits(b), sample_bits(c), "{case}");
                }
                assert_eq!(
                    telemetry.gauge("smd.batch.chunks").get(),
                    layout.len() as f64,
                    "n={n} layout {layout:?}"
                );
            }
        }
    }
}
