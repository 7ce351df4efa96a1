//! Ensembles of pulling realizations, the in-process analogue of the
//! paper's "72 parallel MD simulations" (§III). Every ensemble is one
//! `Ensemble`: `Ensemble::run` steps its realizations as lanes of the
//! batched engine (`crate::batch`), `Ensemble::run_scalar` each as its
//! own [`Simulation`] — the bit-identity oracle of every lane layout and
//! the path for realizations that cannot be lanes.

use crate::protocol::PullProtocol;
use crate::runner::{hold, run_leg, Leg};
use crate::work::WorkTrajectory;
use spice_md::checkpoint::Snapshot;
use spice_md::{MdError, Simulation};
use spice_stats::rng::SeedSequence;
use spice_telemetry::{SpanGuard, Telemetry};

/// Per realization: its start COM (before any shift) and trajectory.
pub type Runs = Vec<Result<(f64, WorkTrajectory), MdError>>;

/// One ensemble: `n` realizations of `leg`, realization `i` built by
/// `factory(seeds.stream(i))`. Each starts from its factory simulation's
/// own state, its steered group shifted `offsets[i]` along z and its
/// spring anchored that far above its unshifted COM when `offsets` is
/// given; or, `cloned`, all from one master equilibration's snapshot.
/// Spans and gauges go to `telemetry`'s `track_key` tracks.
pub(crate) struct Ensemble<'a, F> {
    pub(crate) factory: &'a F,
    pub(crate) leg: Leg,
    pub(crate) n: usize,
    pub(crate) seeds: SeedSequence,
    pub(crate) cloned: bool,
    pub(crate) offsets: Option<&'a [f64]>,
    pub(crate) telemetry: Telemetry,
    pub(crate) track_key: u64,
}

impl<'a, F> Ensemble<'a, F> {
    /// An untraced ensemble of own starts without shifts.
    pub(crate) fn new(factory: &'a F, leg: Leg, n: usize, seeds: SeedSequence) -> Self {
        let (cloned, offsets, telemetry) = (false, None, Telemetry::disabled());
        Ensemble {
            factory,
            leg,
            n,
            seeds,
            cloned,
            offsets,
            telemetry,
            track_key: 0,
        }
    }

    /// Whether `other`'s realizations may be lanes of one batch with this
    /// ensemble's: the same factory and start kind, and the same leg but
    /// for κ. (Their simulations' models are compared when the lanes are
    /// built.)
    pub(crate) fn shares_lanes(&self, other: &Self) -> bool {
        let leg = |e: &Self| Leg {
            protocol: PullProtocol {
                kappa_pn_per_a: 0.0,
                ..e.leg.protocol
            },
            ..e.leg
        };
        std::ptr::eq(self.factory, other.factory)
            && self.cloned == other.cloned
            && leg(self) == leg(other)
    }

    /// Realization `i`'s window shift, if any.
    pub(crate) fn offset(&self, i: usize) -> Option<f64> {
        self.offsets.map(|offsets| offsets[i])
    }

    /// The error panic isolation gives realization `i`.
    pub(crate) fn panicked(&self, i: usize) -> MdError {
        let seed = self.seeds.stream(i as u64);
        let cloned = if self.cloned { "cloned " } else { "" };
        MdError::NumericalBlowup {
            step: 0,
            what: format!("{cloned}realization {i} (seed {seed}) panicked"),
        }
    }
}

impl<F: Fn(u64) -> Simulation + Sync> Ensemble<'_, F> {
    /// The scalar loop: a cloned ensemble's [`master`](Self::master)
    /// [equilibration](Self::equilibrate), then
    /// [`scalar_from`](Self::scalar_from) its snapshot.
    pub(crate) fn run_scalar(&self) -> Runs {
        match self.master().map(|m| self.equilibrate(m)).transpose() {
            Ok(snap) => self.scalar_from(snap.as_ref()),
            Err(slots) => slots,
        }
    }

    /// Each realization stepped as its own [`Simulation`] under panic
    /// isolation, one after another, restored from `snap` when given,
    /// with an `smd.realization` span and the simulation's `md.run` spans
    /// and `md.verlet_rebuild` instants on its `("smd.realization", i)`
    /// track. Kernel counters are *published* (totals added to the shared
    /// `md.*` counters), so they do not depend on the order realizations
    /// finish in.
    pub(crate) fn scalar_from(&self, snap: Option<&Snapshot>) -> Runs {
        let telemetry = &self.telemetry;
        (0..self.n)
            .map(|i| {
                let seed = self.seeds.stream(i as u64);
                // Panic isolation: a blown-up realization must not kill the
                // campaign (on the grid, one failed job doesn't either).
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let r_track = telemetry.track("smd.realization", i as u64);
                    let _span = r_track.span("smd.realization");
                    let mut sim = (self.factory)(seed);
                    if telemetry.is_enabled() {
                        sim.attach_telemetry(r_track.clone());
                    }
                    if let Some(snap) = snap {
                        // Fresh thermostat seed + restored state = divergent
                        // clone.
                        snap.restore(&mut sim)?;
                    }
                    let out = run_leg(&mut sim, &self.leg, seed, self.offset(i))
                        .map(|(origin, out)| (origin, out.trajectory));
                    if telemetry.is_enabled() {
                        sim.kernel_counters().publish(telemetry);
                    }
                    out
                }))
                .unwrap_or_else(|_| Err(self.panicked(i)))
            })
            .collect()
    }

    /// A cloned ensemble's master simulation (`None` otherwise), seeded
    /// off-stream so it can never collide with a realization seed (streams
    /// 0..n) or the pipeline's bootstrap stream (u64::MAX on the *parent*
    /// sequence): the factory call, under the `smd.equilibrate` span that
    /// [`equilibrate`](Self::equilibrate) closes.
    pub(crate) fn master(&self) -> Option<Master> {
        if self.n == 0 || !self.cloned {
            return None;
        }
        let ens_track = self.telemetry.track("smd.ensemble", self.track_key);
        let span = ens_track.span("smd.equilibrate");
        let mut sim = (self.factory)(self.seeds.child(u64::MAX).stream(0));
        if self.telemetry.is_enabled() {
            sim.attach_telemetry(ens_track);
        }
        Some(Master { sim, _span: span })
    }

    /// A cloned ensemble's shared equilibration: one hold of `master`,
    /// captured. If it fails, that one failure is every slot's result.
    pub(crate) fn equilibrate(&self, master: Master) -> Result<Snapshot, Runs> {
        let (mut sim, protocol) = (master.sim, &self.leg.protocol);
        if let Err(e) = hold(
            &mut sim,
            protocol.kappa(),
            None,
            protocol.equilibration_steps,
        ) {
            let msg = format!("shared equilibration failed: {e}");
            return Err((0..self.n)
                .map(|_| Err(MdError::Checkpoint(msg.clone())))
                .collect());
        }
        let snap = Snapshot::capture(&sim, "shared-equilibration");
        if self.telemetry.is_enabled() {
            sim.kernel_counters().publish(&self.telemetry);
        }
        Ok(snap)
    }
}

/// A cloned ensemble's master simulation before its hold, with its
/// `smd.equilibrate` span open.
pub(crate) struct Master {
    sim: Simulation,
    _span: SpanGuard,
}

/// The trajectories of `runs`, start COMs dropped.
pub(crate) fn trajectories(runs: Runs) -> Vec<Result<WorkTrajectory, MdError>> {
    runs.into_iter().map(|r| r.map(|(_, t)| t)).collect()
}

/// Run `n` independent realizations of `protocol`.
///
/// `factory(seed)` must build a fresh, independently seeded simulation
/// (including its own thermalization); realization `i` gets seed
/// `seeds.stream(i)`, holds `protocol.equilibration_steps` from its own
/// start state, then pulls. Slot `i` is bit-identical to
/// [`run_pull`](crate::runner::run_pull) on `factory(seeds.stream(i))`,
/// though Langevin realizations run as lanes, one lane chunk per core.
/// Lanes share the first simulation's force field, so the factory must
/// build the same one for every seed; simulations that differ in step
/// count, dt, masses, charges or species are stepped one by one instead.
///
/// Realizations that fail (numerical blow-up) are returned as errors in
/// the per-realization slot rather than aborting the ensemble — on the
/// grid, one failed job does not kill the campaign.
pub fn run_ensemble<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let leg = Leg::pull(protocol, protocol.equilibration_steps);
    trajectories(Ensemble::new(&factory, leg, n, seeds).run())
}

/// Run `n` realizations of `protocol`, amortizing equilibration via
/// checkpoint/clone (§III: "checkpoint and cloning of simulations ...
/// without perturbing the original simulation").
///
/// A master simulation runs the full `protocol.equilibration_steps` hold
/// once and is captured as a [`Snapshot`]; each realization is forked
/// from it with a fresh thermostat seed (`seeds.stream(i)`), so the
/// clones diverge at once (the Langevin noise is keyed on `(seed,
/// step)`), and holds `decorrelation_steps` more before its pull. That
/// saves `(n - 1) · equilibration_steps` minus `n · decorrelation_steps`.
/// With too few decorrelation steps the clones are *correlated* samples
/// of the start ensemble and the work variance is underestimated: choose
/// at least a few `1/(γ·dt)` steps (the tests below check mean *and*
/// spread against [`run_ensemble`]).
///
/// This steps each clone as its own [`Simulation`]: it is the oracle
/// [`run_ensemble_batched`](crate::batch::run_ensemble_batched) must
/// reproduce bit for bit. If the shared equilibration itself fails, every
/// slot carries that single failure.
pub fn run_ensemble_cloned<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let leg = Leg::pull(protocol, decorrelation_steps);
    let mut clones = Ensemble::new(&factory, leg, n, seeds);
    clones.cloned = true;
    trajectories(clones.run_scalar())
}

/// Split ensemble results into successful trajectories and the errors of
/// the failed realizations, preserving realization order within each
/// half. Callers that must account for attrition (the pipeline's PMF
/// cells, T-subtraj and T-bidir report it) use this.
pub fn partition_outcomes(
    results: Vec<Result<WorkTrajectory, MdError>>,
) -> (Vec<WorkTrajectory>, Vec<MdError>) {
    let mut oks = Vec::with_capacity(results.len());
    let mut errs = Vec::new();
    for r in results {
        match r {
            Ok(t) => oks.push(t),
            Err(e) => errs.push(e),
        }
    }
    (oks, errs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The successful realizations; the tests below expect no failures.
    pub(crate) fn successes(results: Vec<Result<WorkTrajectory, MdError>>) -> Vec<WorkTrajectory> {
        let (oks, errs) = partition_outcomes(results);
        assert!(errs.is_empty(), "failed realizations: {errs:?}");
        oks
    }
    use spice_md::forces::{ForceField, Restraint};
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
            Box::new(spice_md::integrate::LangevinBaoab::new(300.0, 5.0, seed)),
            0.02,
        )
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
    fn ensemble_returns_n_ordered_realizations() {
        let seeds = SeedSequence::new(7);
        let results = run_ensemble(factory, &proto(), 6, seeds);
        assert_eq!(results.len(), 6);
        let trajs = successes(results);
        assert_eq!(trajs.len(), 6);
        // Seeds recorded in order.
        for (i, t) in trajs.iter().enumerate() {
            assert_eq!(t.seed, seeds.stream(i as u64));
        }
    }

    #[test]
    fn realizations_are_independent() {
        let seeds = SeedSequence::new(8);
        let trajs = successes(run_ensemble(factory, &proto(), 4, seeds));
        let works: Vec<f64> = trajs.iter().map(|t| t.final_work()).collect();
        for i in 0..works.len() {
            for j in (i + 1)..works.len() {
                assert_ne!(works[i], works[j], "realizations must differ");
            }
        }
    }

    #[test]
    fn ensemble_is_deterministic_regardless_of_parallelism() {
        let a = successes(run_ensemble(factory, &proto(), 5, SeedSequence::new(3)));
        let b = successes(run_ensemble(factory, &proto(), 5, SeedSequence::new(3)));
        let wa: Vec<f64> = a.iter().map(|t| t.final_work()).collect();
        let wb: Vec<f64> = b.iter().map(|t| t.final_work()).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn cloned_ensemble_is_deterministic() {
        let run = || {
            successes(run_ensemble_cloned(
                factory,
                &proto(),
                5,
                SeedSequence::new(11),
                40,
            ))
            .iter()
            .map(|t| t.final_work())
            .collect::<Vec<f64>>()
        };
        let a = run();
        assert_eq!(a.len(), 5);
        assert_eq!(a, run());
    }

    #[test]
    fn cloned_realizations_diverge_by_seed() {
        let trajs = successes(run_ensemble_cloned(
            factory,
            &proto(),
            5,
            SeedSequence::new(12),
            40,
        ));
        assert_eq!(trajs.len(), 5);
        let seeds = SeedSequence::new(12);
        let works: Vec<f64> = trajs.iter().map(|t| t.final_work()).collect();
        for (i, t) in trajs.iter().enumerate() {
            assert_eq!(t.seed, seeds.stream(i as u64), "seed provenance");
            assert!(t.is_well_formed());
        }
        for i in 0..works.len() {
            for j in (i + 1)..works.len() {
                assert_ne!(works[i], works[j], "clones must diverge by seed");
            }
        }
    }

    #[test]
    fn cloned_zero_realizations_is_empty() {
        let out = run_ensemble_cloned(factory, &proto(), 0, SeedSequence::new(1), 10);
        assert!(out.is_empty());
    }

    #[test]
    fn cloned_work_distribution_matches_independent_ensemble() {
        // Statistical equivalence: for the harmonic test system, work
        // mean and spread from cloned starts (with decorrelation) must
        // agree with fully independent equilibrations within the
        // finite-sample scatter of n = 24 realizations.
        let n = 24;
        let indep = successes(run_ensemble(factory, &proto(), n, SeedSequence::new(21)));
        let cloned = successes(run_ensemble_cloned(
            factory,
            &proto(),
            n,
            SeedSequence::new(22),
            60, // ≳ a few thermostat relaxation times: 1/(γ·dt) = 10 steps
        ));
        assert_eq!(indep.len(), n);
        assert_eq!(cloned.len(), n);
        let wi: Vec<f64> = indep.iter().map(|t| t.final_work()).collect();
        let wc: Vec<f64> = cloned.iter().map(|t| t.final_work()).collect();
        let (mi, mc) = (spice_stats::mean(&wi), spice_stats::mean(&wc));
        let (si, sc) = (spice_stats::std_dev(&wi), spice_stats::std_dev(&wc));
        // Means within ~2 standard errors of each other.
        let se = (si * si / n as f64 + sc * sc / n as f64).sqrt();
        assert!(
            (mi - mc).abs() < 3.0 * se.max(0.05),
            "cloned mean {mc} vs independent mean {mi} (se {se})"
        );
        // Spreads within a factor ~2.5 (χ² scatter at n = 24 is ~±35%);
        // a collapsed spread would flag correlated starts.
        assert!(
            sc > si / 2.5 && sc < si * 2.5,
            "cloned spread {sc} vs independent spread {si}"
        );
    }
}
