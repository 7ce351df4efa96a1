//! Batched ensembles: advance every cloned realization through one
//! vectorized force/integrate loop.
//!
//! [`run_ensemble_batched`] is a drop-in replacement for
//! [`run_ensemble_cloned`](crate::ensemble::run_ensemble_cloned): same
//! master equilibration, same seeds, same per-replica decorrelation and
//! pull — and *bit-identical* work trajectories (property-tested in
//! `tests/batch_equivalence.rs`). The difference is purely mechanical:
//! instead of R independent [`Simulation`]s stepped on separate rayon
//! tasks, the replicas become R lanes of one [`BatchSim`] whose SoA
//! kernels sweep all lanes per pair/particle (see `spice_md::batch`).
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
//! The batch runs on a lane stride padded to whole SIMD vectors
//! (`spice_md::batch::LANE_PAD`); the pad lanes copy lane
//! `spice_md::batch::PAD_SOURCE` and never reach a result, a span or the
//! replica gauge.
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
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat};
#[cfg(feature = "audit")]
use spice_md::checkpoint::Snapshot;
use spice_md::{MdError, Simulation};
use spice_stats::rng::SeedSequence;
use spice_telemetry::Telemetry;

/// How often (in MD steps) the `audit` feature replays lanes against
/// scalar shadow simulations.
#[cfg(feature = "audit")]
const AUDIT_REPLAY_STRIDE: u64 = 64;

/// [`run_ensemble_cloned`](crate::ensemble::run_ensemble_cloned) through
/// the batched SoA engine: one shared equilibration, then all `n`
/// realizations advanced in lockstep by a single vectorized loop.
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
/// realizations, not the padded lane stride), and an
/// `smd.batch.rebuilds` counter for the shared pair list. Per-step MD
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
    protocol.validate();
    if n == 0 {
        return Vec::new();
    }

    // One factory call per realization, exactly as the cloned path makes:
    // lane i's thermostat is whatever `factory(seeds.stream(i))` installs.
    // Any non-Langevin integrator defeats lane replication — fall back.
    // Lane 0's simulation is kept as the restore template; the others are
    // dropped as soon as their thermostat is read.
    let mut template = None;
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
            if i == 0 {
                template = Some(sim);
            }
            lane
        })
        .collect();
    let (Some(lanes), Some(mut template)) = (lanes, template) else {
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

    // The same `factory(seed) → restore` every clone performs.
    if let Err(e) = snap.restore(&mut template) {
        // Every clone would hit the identical incompatibility; restore is
        // deterministic, so fail each remaining slot the same way.
        let msg = format!("{e}");
        return std::iter::once(Err(e))
            .chain((1..n).map(|_| Err(MdError::Checkpoint(msg.clone()))))
            .collect();
    }

    // Group resolution fails identically for every clone too; produce one
    // fresh (equal) error per slot.
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
    let masses = template.system().masses().to_vec();

    // Anchor COM exactly as `anchor_and_hold` computes it. All lanes
    // restore to identical coordinates, so one value serves every lane.
    let probe = SmdSpring::new(group.clone(), &masses, protocol.kappa(), 0.0, 0.0, 0.0);
    let com0 = probe.com_z(template.system().positions());
    let hold = SmdSpring::new(group.clone(), &masses, protocol.kappa(), 0.0, com0, 0.0);

    let mut batch = BatchSim::new(template, &lanes);
    telemetry.set_gauge("smd.batch.replicas", n as f64);
    // Keep each lane's realization span open for the whole batched run:
    // lanes advance in lockstep, so per-lane wall time is the batch's.
    let lane_spans: Vec<_> = (0..n)
        .map(|i| {
            telemetry
                .track("smd.realization", i as u64)
                .span("batch.realization")
        })
        .collect();

    let mut failed: Vec<Option<MdError>> = (0..n).map(|_| None).collect();
    #[cfg(feature = "audit")]
    let mut shadows = Shadows::new(&factory, seeds, n, &snap, &hold);

    // Post-clone decorrelation: held spring, per-lane noise streams. The
    // cloned path's `sim.run(steps)` health-checks every
    // `blowup_check_stride = 100` *global* steps.
    let mut hold_bias = batch_spring_bias(&hold, batch.stride());
    batch.refresh_forces(&mut hold_bias);
    for _ in 0..decorrelation_steps {
        batch.step_once(&mut hold_bias);
        record_faults(&mut batch, seeds, &mut failed);
        #[cfg(feature = "audit")]
        shadows.step_and_check(&batch, &failed);
        if batch.step_count().is_multiple_of(100) {
            check_hold_blowup(&mut batch, &mut failed);
        }
    }
    drop(hold_bias);

    // Pull phase: guide moves at constant v from the shared anchor; each
    // lane integrates its own trapezoid work from its own COM excursion.
    let spring = SmdSpring::new(
        group,
        &masses,
        protocol.kappa(),
        protocol.velocity(),
        com0,
        batch.time_ps(),
    );
    #[cfg(feature = "audit")]
    shadows.set_bias(&spring, &failed);
    #[cfg(feature = "audit")]
    let results = pull_lanes(&mut batch, &spring, protocol, seeds, failed, &mut shadows);
    #[cfg(not(feature = "audit"))]
    let results = pull_lanes(&mut batch, &spring, protocol, seeds, failed);

    telemetry
        .counter("smd.batch.rebuilds")
        .add(batch.rebuild_count());
    drop(lane_spans);
    results
}

/// Build the batched bias closure for one spring over a lane stride of
/// `stride`: the exact per-lane replica of [`SmdSpring::apply`] (same COM
/// fold, same force split), swept across every lane, pad lanes included.
fn batch_spring_bias(spring: &SmdSpring, stride: usize) -> impl FnMut(f64, &mut LaneForces<'_>) {
    let spring = spring.clone();
    let mut f_com = vec![0.0; stride];
    move |t_ps: f64, lf: &mut LaneForces<'_>| {
        let guide = spring.guide_z(t_ps);
        lanes_com_z(&spring, |i| lf.pos_z_row(i), &mut f_com);
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

/// Fail every lane whose cloned twin panicked this step: the lanes that
/// faulted and, under `audit`, those whose state went non-finite (the
/// twin's per-step `md.finite_state` sanitizer panics on the step that
/// produced it).
fn record_faults(batch: &mut BatchSim, seeds: SeedSequence, failed: &mut [Option<MdError>]) {
    for (l, slot) in failed.iter_mut().enumerate() {
        if slot.is_none()
            && (batch.lane_faulted(l) || (cfg!(feature = "audit") && !batch.lane_is_finite(l)))
        {
            *slot = Some(panicked(l, seeds));
            batch.mark_dead(l);
        }
    }
}

/// The hold-phase health check `Simulation::run` performs every
/// `blowup_check_stride` steps, applied per lane.
fn check_hold_blowup(batch: &mut BatchSim, failed: &mut [Option<MdError>]) {
    for (l, slot) in failed.iter_mut().enumerate() {
        if slot.is_none() && !batch.lane_is_finite(l) {
            *slot = Some(MdError::NumericalBlowup {
                step: batch.step_count(),
                what: "non-finite coordinate or velocity".into(),
            });
            batch.mark_dead(l);
        }
    }
}

/// The pull loop of `runner::pull_from`, fanned across lanes: one
/// `step_once` per step for the whole batch, then per-lane work/sample
/// updates with the scalar path's exact expressions and check order.
fn pull_lanes(
    batch: &mut BatchSim,
    spring: &SmdSpring,
    protocol: &PullProtocol,
    seeds: SeedSequence,
    mut failed: Vec<Option<MdError>>,
    #[cfg(feature = "audit")] shadows: &mut Shadows,
) -> Vec<Result<WorkTrajectory, MdError>> {
    let n = batch.n_lanes();
    let t0 = batch.time_ps();
    let dt = batch.dt();
    let v = protocol.velocity();
    let nsteps = protocol.pull_steps();
    let cap = (nsteps / protocol.sample_stride) as usize + 2;

    let mut com = vec![0.0; n];
    lanes_com_z(spring, |i| batch.pos_z_row(i), &mut com);
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

    let mut bias = batch_spring_bias(spring, batch.stride());
    batch.refresh_forces(&mut bias);
    for step in 1..=nsteps {
        batch.step_once(&mut bias);
        record_faults(batch, seeds, &mut failed);
        #[cfg(feature = "audit")]
        shadows.step_and_check(batch, &failed);
        let t = batch.time_ps();
        let guide = spring.guide_z(t);
        lanes_com_z(spring, |i| batch.pos_z_row(i), &mut com);
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
            if failed[l].is_some() {
                continue;
            }
            // Under `audit`, the cloned path's per-step sanitizer panic is
            // caught per realization task; the per-lane analogue converts
            // the would-be panic into that slot's error so sibling lanes
            // survive, exactly as sibling tasks do.
            #[cfg(feature = "audit")]
            if !(work[l].is_finite() && prev_force[l].is_finite()) {
                failed[l] = Some(panicked(l, seeds));
                batch.mark_dead(l);
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
            if step % 200 == 0 && !batch.lane_is_finite(l) {
                failed[l] = Some(MdError::NumericalBlowup {
                    step: batch.step_count(),
                    what: "non-finite state during pull".into(),
                });
                batch.mark_dead(l);
            }
        }
    }

    samples
        .into_iter()
        .enumerate()
        .map(|(l, s)| match failed[l].take() {
            Some(e) => Err(e),
            None => Ok(WorkTrajectory {
                kappa_pn_per_a: protocol.kappa_pn_per_a,
                v_a_per_ns: protocol.v_a_per_ns,
                seed: seeds.stream(l as u64),
                samples: s,
            }),
        })
        .collect()
}

/// Scalar shadow replays for the `audit` feature: the first and last
/// lanes are re-run as ordinary cloned `Simulation`s in lockstep with the
/// batch, and their full state is compared bitwise every
/// [`AUDIT_REPLAY_STRIDE`] steps. Any SoA-kernel divergence — layout bug,
/// reordered reduction, contracted FMA — trips the sanitizer. On the same
/// stride every pad lane must still be a bitwise copy of its source
/// lane, which catches a kernel that leaks one lane's data into another.
#[cfg(feature = "audit")]
struct Shadows {
    replays: Vec<(usize, Simulation)>,
}

#[cfg(feature = "audit")]
impl Shadows {
    fn new<F>(factory: &F, seeds: SeedSequence, n: usize, snap: &Snapshot, hold: &SmdSpring) -> Self
    where
        F: Fn(u64) -> Simulation + Sync,
    {
        let mut lanes = vec![0];
        if n > 1 {
            lanes.push(n - 1);
        }
        let replays = lanes
            .into_iter()
            .map(|l| {
                let mut sim = factory(seeds.stream(l as u64));
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
}
