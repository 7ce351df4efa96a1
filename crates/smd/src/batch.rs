//! Batched ensembles: every realization of an `Ensemble` as a lane of
//! one vectorized force/integrate loop ([`BatchSim`], see
//! `spice_md::batch`). Every Langevin ensemble runs here — clones of one
//! equilibration ([`run_ensemble_batched`]), independent starts
//! ([`run_ensemble`](crate::run_ensemble)) and umbrella windows
//! ([`run_windows`](crate::run_windows)) — and every slot is the scalar
//! loop's (`Ensemble::run_scalar`) bit for bit, error text included. A
//! lane starts from the cloned template's state or its own simulation's
//! (`BatchSim::set_lane_state`), and its spring holds its own anchor; the
//! rest of the scalar path's per-realization state (COM origin, work
//! accumulator, previous force, samples) lives in per-lane vectors
//! updated with the same expressions.
//!
//! A lane that goes non-finite gets the scalar path's error on the same
//! step while the others go on, and leaves the neighbor-list rebuilds. A
//! lane that faults (`BatchSim::lane_faulted`: a rebuild could not bin
//! it, where its scalar twin's cell list panics) gets the error panic
//! isolation gives that twin.
//!
//! Lanes run as *chunks* of whole 8-lane vectors, as few as there are
//! cores (`lane_chunks`), each its own [`BatchSim`] stepped end to end,
//! the first on the calling thread and the others on scoped workers.
//! Lanes never mix and each chunk's union pair list is a superset of its
//! own lanes' lists, so no bit depends on the layout. Factory calls,
//! restores, batch construction and telemetry stay on the calling
//! thread; a worker hands back its chunk's slots and rebuild count. Each
//! batch's pad lanes (`spice_md::batch::LANE_PAD`) copy its first lane
//! and never reach a result, span or gauge. A realization that cannot be
//! a lane (one not on BAOAB Langevin, say) sends the whole ensemble to
//! the scalar loop.

use crate::ensemble::{trajectories, Ensemble, Runs};
use crate::protocol::PullProtocol;
use crate::pulling::SmdSpring;
use crate::runner::{anchor, spring_probe, Leg};
use crate::work::{WorkSample, WorkTrajectory};
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat, LANE_PAD, PAD_SOURCE};
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
/// same `WorkTrajectory` or the same error) when the factory builds the
/// same force field for every seed. Falls back to the cloned path when
/// the factory's integrator is not BAOAB Langevin or its simulations
/// differ in step count, dt, masses, charges or species.
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
/// Emits an `smd.equilibrate` span for the master hold, one
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
    let leg = Leg::pull(protocol, decorrelation_steps);
    let mut clones = Ensemble::new(&factory, leg, n, seeds);
    (clones.cloned, clones.telemetry, clones.track_key) = (true, telemetry.clone(), track_key);
    trajectories(clones.run())
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

impl<F: Fn(u64) -> Simulation + Sync> Ensemble<'_, F> {
    /// The ensemble's slots, its realizations stepped as lanes on this
    /// host's lane layout.
    pub(crate) fn run(&self) -> Runs {
        self.run_chunks(&lane_chunks(self.n, workers()))
    }

    /// [`run`](Self::run) on the lane layout `chunks`, a partition of
    /// `0..n` into contiguous ranges: each chunk runs as its own batch,
    /// the first on the calling thread and the others on scoped workers.
    /// The slots do not depend on the layout; they are
    /// [`run_scalar`](Self::run_scalar)'s, bit for bit.
    pub(crate) fn run_chunks(&self, chunks: &[Range<usize>]) -> Runs {
        let (n, seeds, telemetry) = (self.n, self.seeds, &self.telemetry);
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

        // One factory call per realization, exactly as the scalar loop makes:
        // lane i's thermostat is whatever `factory(seeds.stream(i))` installs.
        // A cloned ensemble keeps each chunk's first simulation as that
        // chunk's restore template and drops the others as soon as their
        // thermostat is read; own starts keep every one as its lane's start.
        // A realization that cannot be a lane sends the whole ensemble to the
        // scalar loop, which gives it the same slots: a non-Langevin
        // integrator, a model other than realization 0's (`same_model`), a
        // factory that panics (own starts, whose factory calls the scalar
        // loop isolates), a failed restore or a missing `"smd"` group.
        let own = !self.cloned;
        let mut sims: Vec<Simulation> = Vec::with_capacity(if own { n } else { chunks.len() });
        let lanes: Option<Vec<LaneThermostat>> = (0..n)
            .map(|i| {
                let seed = seeds.stream(i as u64);
                let sim = if own {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.factory)(seed)))
                        .ok()?
                } else {
                    (self.factory)(seed)
                };
                if !sims.first().is_none_or(|first| same_model(first, &sim)) {
                    return None;
                }
                let lane = sim
                    .langevin_params()
                    .map(|(temperature, gamma, noise_seed)| LaneThermostat {
                        temperature,
                        gamma,
                        noise_seed,
                    });
                if own || chunks.get(sims.len()).is_some_and(|c| c.start == i) {
                    sims.push(sim);
                }
                lane
            })
            .collect();
        let Some(lanes) = lanes else {
            return self.run_scalar();
        };
        let snap = match self.master() {
            Ok(snap) => snap,
            Err(slots) => return slots,
        };
        // The same `factory(seed) → restore` every clone performs, and the
        // group lookup every realization makes. Either failing sends the
        // ensemble to the scalar loop from this master's snapshot.
        let restored = snap
            .as_ref()
            .is_none_or(|snap| sims.iter_mut().all(|t| snap.restore(t).is_ok()));
        let probe = restored.then(|| spring_probe(&sims[0], self.leg.protocol.kappa()));
        let Some(Ok(probe)) = probe else {
            return self.scalar_from(snap.as_ref());
        };
        // Every realization's start COM and anchor, exactly as the scalar
        // `hold` computes them (window shifts included). Cloned lanes all
        // restore to the template's coordinates, so one pair serves them all.
        let starts: Vec<(f64, f64)> = if own {
            let shift = |(i, sim): (usize, &mut Simulation)| anchor(sim, &probe, self.offset(i));
            sims.iter_mut().enumerate().map(shift).collect()
        } else {
            vec![anchor(&mut sims[0], &probe, None); n]
        };

        let mut sims = sims.into_iter();
        let chunks: Vec<Chunk> = chunks
            .iter()
            .map(|range| {
                let mut next = || sims.next().expect("a start state per batch and lane");
                let mut batch = BatchSim::new(next(), &lanes[range.clone()]);
                if own {
                    for l in 1..range.len() {
                        batch.set_lane_state(l, next().system());
                    }
                }
                let lane = |l: usize| range.start + if l < range.len() { l } else { PAD_SOURCE };
                Chunk {
                    first: range.start,
                    anchors: (0..batch.stride()).map(|l| starts[lane(l)].1).collect(),
                    batch,
                    failed: (0..range.len()).map(|_| None).collect(),
                    #[cfg(feature = "audit")]
                    shadows: Shadows::new(self, range.clone(), snap.as_ref()),
                }
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

        let run = |chunk: Chunk| chunk.run(self, &probe);
        let mut chunks = chunks.into_iter();
        let own_chunk = chunks.next().expect("n > 0 lanes make at least one chunk");
        let ran: Vec<(Slots, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || run(chunk)))
                .collect();
            let own_chunk = run(own_chunk);
            std::iter::once(own_chunk)
                .chain(workers.into_iter().map(|worker| {
                    worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }))
                .collect()
        });

        let rebuilds = ran.iter().map(|&(_, rebuilds)| rebuilds).sum();
        telemetry.counter("smd.batch.rebuilds").add(rebuilds);
        drop(lane_spans);
        let slots = ran.into_iter().flat_map(|(slots, _)| slots);
        slots
            .zip(starts)
            .map(|(slot, (origin, _))| slot.map(|t| (origin, t)))
            .collect()
    }
}

/// Whether `sim` can be a lane of a batch built from `first`, which holds
/// one step count, dt and row of masses, charges and species (compared
/// bit for bit). Lanes also share a force field, which is not compared:
/// a factory must build the same one for every seed.
fn same_model(first: &Simulation, sim: &Simulation) -> bool {
    fn model(s: &Simulation) -> impl Iterator<Item = u64> + '_ {
        let sys = s.system();
        let shared = [s.step_count(), s.dt().to_bits(), sys.len() as u64];
        let rows = sys
            .masses()
            .iter()
            .chain(sys.charges())
            .map(|x| x.to_bits());
        let species = sys.species().iter().map(|&k| u64::from(k));
        shared.into_iter().chain(rows).chain(species)
    }
    model(first).eq(model(sim))
}

/// One lane chunk, built on the calling thread: its batch, each lane's
/// anchor (pad lanes too) and failure slot; `first` is its lane 0's
/// realization.
struct Chunk {
    first: usize,
    anchors: Vec<f64>,
    batch: BatchSim,
    failed: Vec<Option<MdError>>,
    #[cfg(feature = "audit")]
    shadows: Shadows,
}

impl Chunk {
    /// The hold, then the pull: the loop of `runner::run_leg`, fanned
    /// across lanes (one `step_once` per step for the whole batch, then
    /// per-lane updates with the scalar path's exact expressions and check
    /// order). Returns the chunk's slots in lane order and its pair-list
    /// rebuild count.
    fn run<F>(mut self, ens: &Ensemble<'_, F>, probe: &SmdSpring) -> (Slots, u64) {
        let (leg, seeds) = (&ens.leg, ens.seeds);
        // The hold: a static spring at each lane's anchor, per-lane noise
        // streams. The scalar `Simulation::run` health-checks every
        // `blowup_check_stride = 100` *global* steps.
        let mut spring = LaneSpring::new(probe.clone(), std::mem::take(&mut self.anchors));
        self.batch.refresh_forces(&mut |t, lf| spring.apply(t, lf));
        for _ in 0..leg.hold_steps {
            self.batch.step_once(&mut |t, lf| spring.apply(t, lf));
            self.record_faults(ens);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            if self.batch.step_count().is_multiple_of(100) {
                self.check_hold_blowup();
            }
        }

        // The pull: each guide moves at v from its lane's anchor.
        let protocol = &leg.protocol;
        let (v, t0, dt) = (protocol.velocity(), self.batch.time_ps(), self.batch.dt());
        let kappa = protocol.kappa();
        spring.spring = probe.guided(0.0, v, t0);
        #[cfg(feature = "audit")]
        self.shadows.set_bias(&spring, &self.failed);
        let n = self.batch.n_lanes();
        let nsteps = leg.pull_steps;

        // The refresh leaves every lane's COM and guide at t0 in `spring`.
        self.batch.refresh_forces(&mut |t, lf| spring.apply(t, lf));
        let com_start: Vec<f64> = match leg.absolute_com {
            true => vec![0.0; n],
            false => spring.com[..n].to_vec(),
        };
        let mut work = vec![0.0; n];
        let mut prev_force: Vec<f64> = (0..n)
            .map(|l| kappa * (spring.guide[l] - spring.com[l]))
            .collect();
        let mut samples: Vec<_> = prev_force.iter().map(|&f| leg.samples(f)).collect();

        for step in 1..=nsteps {
            self.batch.step_once(&mut |t, lf| spring.apply(t, lf));
            self.record_faults(ens);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            let t = self.batch.time_ps();
            // Work on every lane, failed ones included: their slots return
            // the error, never these values, and the sweep stays branch-free.
            let lanes = spring.com.iter().zip(&spring.guide);
            for ((w, f), (&c, &g)) in work.iter_mut().zip(&mut prev_force).zip(lanes) {
                let force = kappa * (g - c);
                // Trapezoid: dW = v · (F_prev + F)/2 · dt.
                *w += v * 0.5 * (*f + force) * dt;
                *f = force;
            }
            let sample = step % protocol.sample_stride == 0 || step == nsteps;
            for l in 0..n {
                if self.failed[l].is_some() {
                    continue;
                }
                // Under `audit`, the scalar path's per-step sanitizer panic is
                // caught per realization; the per-lane analogue converts the
                // would-be panic into that slot's error so sibling lanes
                // survive, exactly as sibling realizations do.
                #[cfg(feature = "audit")]
                if !(work[l].is_finite() && prev_force[l].is_finite()) {
                    self.failed[l] = Some(ens.panicked(self.first + l));
                    self.batch.mark_dead(l);
                    continue;
                }
                if sample {
                    samples[l].push(WorkSample {
                        t_ps: t - t0,
                        guide_disp: v * (t - t0),
                        com_disp: spring.com[l] - com_start[l],
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

    /// Fail every lane whose scalar twin panicked this step: the lanes
    /// that faulted and, under `audit`, those whose state went non-finite
    /// (the twin's per-step `md.finite_state` sanitizer panics on the step
    /// that produced it).
    fn record_faults<F>(&mut self, ens: &Ensemble<'_, F>) {
        for (l, slot) in self.failed.iter_mut().enumerate() {
            if slot.is_none()
                && (self.batch.lane_faulted(l)
                    || (cfg!(feature = "audit") && !self.batch.lane_is_finite(l)))
            {
                *slot = Some(ens.panicked(self.first + l));
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
}

/// The SMD spring on every lane of a batch: one [`SmdSpring`]'s group, κ,
/// v and start time, each lane's guide starting at its own anchor. Its
/// bias sweep is the exact per-lane replica of [`SmdSpring::apply`] (same
/// COM fold, same force split), pad lanes included, and it leaves the COM
/// and guide rows of the positions it saw for the pull's work update.
struct LaneSpring {
    spring: SmdSpring,
    anchors: Vec<f64>,
    com: Vec<f64>,
    guide: Vec<f64>,
    f_com: Vec<f64>,
}

impl LaneSpring {
    fn new(spring: SmdSpring, anchors: Vec<f64>) -> Self {
        let rows = || vec![0.0; anchors.len()];
        LaneSpring {
            com: rows(),
            guide: rows(),
            f_com: rows(),
            spring,
            anchors,
        }
    }

    fn apply(&mut self, t_ps: f64, lf: &mut LaneForces<'_>) {
        let disp = self.spring.guide_displacement(t_ps);
        for (g, &a) in self.guide.iter_mut().zip(&self.anchors) {
            *g = a + disp;
        }
        // The mass-fraction fold of `SmdSpring::com_z` (iteration order and
        // the `-0.0` seed of `f64`'s `Sum` included), lanes innermost.
        self.com.fill(-0.0);
        for (&i, &w) in self.spring.group().iter().zip(self.spring.mass_frac()) {
            for (c, &z) in self.com.iter_mut().zip(lf.pos_z_row(i)) {
                *c += w * z;
            }
        }
        let kappa = self.spring.kappa();
        for ((f, &c), &g) in self.f_com.iter_mut().zip(&self.com).zip(&self.guide) {
            *f = -kappa * (c - g);
        }
        for (&i, &w) in self.spring.group().iter().zip(self.spring.mass_frac()) {
            for (fz, &f) in lf.force_z_row(i).iter_mut().zip(&self.f_com) {
                *fz += f * w;
            }
        }
    }
}

/// Scalar shadow replays for the `audit` feature, one set per lane chunk:
/// the chunk's first and last lanes are re-run as ordinary `Simulation`s
/// started as the scalar loop starts them, in lockstep with the batch,
/// and their full state is compared bitwise every [`AUDIT_REPLAY_STRIDE`]
/// steps. Any SoA-kernel divergence — layout bug, reordered reduction,
/// contracted FMA, a lane started from the wrong state — trips the
/// sanitizer. On the same stride every pad lane must still be a bitwise
/// copy of the chunk's first lane, which catches a kernel that leaks one
/// lane's data into another.
#[cfg(feature = "audit")]
struct Shadows {
    /// `(chunk lane, its scalar twin)`.
    replays: Vec<(usize, Simulation)>,
}

#[cfg(feature = "audit")]
impl Shadows {
    /// Build the twins of the first and last of the realizations `lanes`
    /// on the calling thread (factory calls never leave it): restored from
    /// `snap` (cloned starts) or shifted as their window asks, then on the
    /// hold spring at their lane's anchor.
    fn new<F>(ens: &Ensemble<'_, F>, lanes: Range<usize>, snap: Option<&Snapshot>) -> Self
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
                let i = lanes.start + l;
                let mut sim = (ens.factory)(ens.seeds.stream(i as u64));
                if let Some(snap) = snap {
                    snap.restore(&mut sim)
                        .expect("audit shadow restore must succeed after batch restore did");
                }
                crate::runner::hold(&mut sim, ens.leg.protocol.kappa(), ens.offset(i), 0)
                    .expect("audit shadow anchor must resolve after the batch's did");
                (l, sim)
            })
            .collect();
        Shadows { replays }
    }

    fn set_bias(&mut self, spring: &LaneSpring, failed: &[Option<MdError>]) {
        self.replays.retain(|(l, _)| failed[*l].is_none());
        for (l, sim) in &mut self.replays {
            let twin =
                spring
                    .spring
                    .guided(spring.anchors[*l], spring.spring.velocity(), sim.time_ps());
            sim.set_bias(Some(Box::new(twin)));
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
    use crate::ensemble::run_ensemble_cloned;
    use crate::ensemble::tests::successes;
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::{LangevinBaoab, VelocityVerlet};
    use spice_md::{System, Topology, Vec3};
    use spice_pore::build::{PoreSystemBuilder, SmdSelection};
    use spice_pore::dna::DnaParams;
    use spice_telemetry::EventKind;

    type Factory = fn(u64) -> Simulation;

    /// `beads` restrained beads of `mass` on Langevin at `dt`, the first
    /// steered.
    fn beads(seed: u64, beads: usize, mass: f64, dt: f64) -> Simulation {
        let mut sys = System::new();
        let mut ff = ForceField::new({
            let mut topo = Topology::new();
            topo.set_group("smd", vec![0]);
            topo
        });
        for i in 0..beads {
            let at = Vec3::new(0.0, 0.0, 3.0 * i as f64);
            sys.add_particle(at, mass, 0.0, 0);
            ff = ff.with_restraint(Restraint::harmonic(i, at, 0.5));
        }
        let langevin = LangevinBaoab::new(300.0, 5.0, seed);
        Simulation::new(sys, ff, Box::new(langevin), dt)
    }

    fn factory(seed: u64) -> Simulation {
        beads(seed, 1, 50.0, 0.02)
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

    /// Every slot of `ensemble`, laid out three ways — one chunk, one
    /// vector per chunk, and the layout this host runs — equals the scalar
    /// loop's bit for bit (start COM, seed and samples, or error text) at
    /// each of `sizes` realizations. 9, 17 and 25 lanes end in a partial
    /// vector; 16 and 24 do not.
    fn assert_layouts_match_scalar(ensemble: Ensemble<'_, Factory>, sizes: &[usize]) {
        let Ensemble {
            factory,
            leg,
            seeds,
            cloned,
            offsets,
            ..
        } = ensemble;
        for &n in sizes {
            let mut ensemble = Ensemble {
                cloned,
                offsets,
                ..Ensemble::new(factory, leg, n, seeds)
            };
            let scalar = ensemble.run_scalar();
            let layouts = [
                lane_chunks(n, 1),
                lane_chunks(n, n.div_ceil(LANE_PAD)),
                lane_chunks(n, workers()),
            ];
            for layout in layouts {
                ensemble.telemetry = Telemetry::enabled();
                let lanes = ensemble.run_chunks(&layout);
                assert_eq!(lanes.len(), n);
                for (slot, (b, c)) in lanes.iter().zip(&scalar).enumerate() {
                    let case = format!(
                        "cloned={} offsets={} n={n} layout {layout:?} slot {slot}",
                        ensemble.cloned,
                        ensemble.offsets.is_some()
                    );
                    let (b, c) = (b.as_ref().expect(&case), c.as_ref().expect(&case));
                    assert_eq!(b.0.to_bits(), c.0.to_bits(), "{case}: start COM");
                    assert_eq!(b.1.seed, c.1.seed, "{case}");
                    assert_eq!(sample_bits(&b.1), sample_bits(&c.1), "{case}");
                }
                assert_eq!(
                    ensemble.telemetry.gauge("smd.batch.chunks").get(),
                    layout.len() as f64,
                    "n={n} layout {layout:?}"
                );
            }
        }
    }

    /// The Test pore ensemble of `leg` with seeds from 20050512.
    fn pore_ensemble(leg: Leg) -> Ensemble<'static, Factory> {
        const TEST_PORE: Factory = test_pore;
        Ensemble::new(&TEST_PORE, leg, 0, SeedSequence::new(20050512))
    }

    #[test]
    fn every_lane_layout_matches_the_cloned_path() {
        let clones = Ensemble {
            cloned: true,
            ..pore_ensemble(Leg::pull(&pore_proto(), 30))
        };
        assert_layouts_match_scalar(clones, &[9, 16, 17, 24, 25]);
    }

    /// Independent starts: each lane from its own factory simulation's
    /// velocities, anchored at its own COM.
    #[test]
    fn every_lane_layout_matches_independent_starts() {
        let leg = Leg::pull(&pore_proto(), pore_proto().equilibration_steps);
        assert_layouts_match_scalar(pore_ensemble(leg), &[9, 16, 17]);
    }

    /// A factory whose simulations differ by seed in dt or mass cannot be
    /// one batch: its ensembles, own starts and clones alike, run on the
    /// scalar loop and give its slots.
    #[test]
    fn simulations_that_differ_by_seed_run_on_the_scalar_loop() {
        fn seed_dt(seed: u64) -> Simulation {
            beads(seed, 1, 50.0, [0.02, 0.015][(seed % 2) as usize])
        }
        fn seed_mass(seed: u64) -> Simulation {
            beads(seed, 1, [50.0, 40.0][(seed % 2) as usize], 0.02)
        }
        let (n, seeds) = (9, SeedSequence::new(5));
        let parities: Vec<u64> = (0..n).map(|i| seeds.stream(i) % 2).collect();
        assert!(
            parities.contains(&0) && parities.contains(&1),
            "{parities:?}"
        );
        let cases: [(Factory, bool); 3] = [(seed_dt, false), (seed_dt, true), (seed_mass, false)];
        for (factory, cloned) in cases {
            let mut ensemble = Ensemble {
                cloned,
                ..Ensemble::new(&factory, Leg::pull(&proto(), 40), n as usize, seeds)
            };
            let scalar = ensemble.run_scalar();
            for layout in [lane_chunks(9, 1), lane_chunks(9, 2)] {
                ensemble.telemetry = Telemetry::enabled();
                let lanes = ensemble.run_chunks(&layout);
                let case = format!("cloned={cloned} layout {layout:?}");
                let chunks = ensemble.telemetry.gauge("smd.batch.chunks").get();
                assert_eq!(chunks, 0.0, "{case}: no batch ran");
                for (b, c) in lanes.iter().zip(&scalar) {
                    let (b, c) = (b.as_ref().expect(&case), c.as_ref().expect(&case));
                    assert_eq!(b.0.to_bits(), c.0.to_bits(), "{case}: start COM");
                    assert_eq!(sample_bits(&b.1), sample_bits(&c.1), "{case}");
                }
            }
        }
    }

    /// A cloned ensemble whose restores fail falls back after its one
    /// master hold: one `smd.equilibrate` span and the scalar loop's
    /// trace, counters and restore errors.
    #[test]
    fn a_failed_restore_falls_back_after_one_master_hold() {
        let seeds = SeedSequence::new(4);
        let master = seeds.child(u64::MAX).stream(0);
        // The master has one bead and every clone two, so no clone restores.
        let factory = |seed: u64| beads(seed, if seed == master { 1 } else { 2 }, 50.0, 0.02);
        let run = |lanes: bool| {
            let mut clones = Ensemble::new(&factory, Leg::pull(&proto(), 40), 5, seeds);
            (clones.cloned, clones.telemetry) = (true, Telemetry::enabled());
            let slots = if lanes {
                clones.run()
            } else {
                clones.run_scalar()
            };
            let errors: Vec<String> = slots
                .iter()
                .map(|s| s.as_ref().unwrap_err().to_string())
                .collect();
            (errors, clones.telemetry.snapshot())
        };
        let ((errors, trace), (scalar_errors, scalar_trace)) = (run(true), run(false));
        assert_eq!(errors, scalar_errors);
        assert!(errors[0].contains("snapshot has 1 particles"), "{errors:?}");
        let events = |trace: &spice_telemetry::Snapshot| -> Vec<_> {
            let tracks = trace.tracks.iter();
            let events =
                tracks.flat_map(|t| t.events.iter().map(|e| (t.name, t.key, e.kind, e.name)));
            events.collect()
        };
        let equilibrations = events(&trace)
            .iter()
            .filter(|&&(.., kind, name)| kind == EventKind::Enter && name == "smd.equilibrate")
            .count();
        assert_eq!(equilibrations, 1);
        assert_eq!(events(&trace), events(&scalar_trace));
        assert_eq!(trace.metrics, scalar_trace.metrics);
    }

    /// Umbrella windows: each lane also shifted by its own offset, with its
    /// spring anchored that far above its unshifted COM, and a guide that
    /// holds still while it samples.
    #[test]
    fn every_lane_layout_matches_shifted_windows() {
        let offsets: Vec<f64> = (0..17).map(|w| 0.25 * w as f64).collect();
        let leg = Leg {
            protocol: PullProtocol {
                v_a_per_ns: 0.0,
                sample_stride: 10,
                ..pore_proto()
            },
            hold_steps: 60,
            pull_steps: 90,
            absolute_com: true,
        };
        for n in [9, 17] {
            let windows = Ensemble {
                offsets: Some(&offsets[..n]),
                ..pore_ensemble(leg)
            };
            assert_layouts_match_scalar(windows, &[n]);
        }
    }
}
