//! Rayon-parallel ensembles of independent pulling realizations.
//!
//! This is the in-process analogue of the paper's production campaign:
//! "72 parallel MD simulations ... each individual simulation running on
//! 128 or 256 processors" (§III). Here each realization is an independent
//! task in a work-stealing pool; the grid-level scheduling of those tasks
//! onto federated resources is modeled separately by `spice-gridsim`.

use crate::protocol::PullProtocol;
use crate::runner::{anchor_and_hold, pull_from, run_pull};
use crate::work::WorkTrajectory;
use rayon::prelude::*;
use spice_md::checkpoint::Snapshot;
use spice_md::{MdError, Simulation};
use spice_stats::rng::SeedSequence;
use spice_telemetry::Telemetry;

/// Run `n` independent realizations of `protocol`.
///
/// `factory(seed)` must build a fresh, independently seeded simulation
/// (including its own thermalization); realization `i` gets seed
/// `seeds.stream(i)`. Realizations run in parallel via rayon and results
/// come back ordered by realization index regardless of schedule.
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
    protocol.validate();
    (0..n)
        .into_par_iter()
        .map(|i| {
            let seed = seeds.stream(i as u64);
            // Panic isolation: a blown-up realization must not kill the
            // campaign (on the grid, one failed job doesn't either).
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sim = factory(seed);
                run_pull(&mut sim, protocol, seed).map(|o| o.trajectory)
            }))
            .unwrap_or_else(|_| {
                Err(MdError::NumericalBlowup {
                    step: 0,
                    what: format!("realization {i} (seed {seed}) panicked"),
                })
            })
        })
        .collect()
}

/// Run `n` realizations of `protocol`, amortizing equilibration via
/// checkpoint/clone (§III: "checkpoint and cloning of simulations ...
/// without perturbing the original simulation").
///
/// Instead of equilibrating every realization from scratch (as
/// [`run_ensemble`] does through [`run_pull`]), this equilibrates *once*:
/// a master simulation runs the full `protocol.equilibration_steps` hold,
/// is captured as a [`Snapshot`], and each realization is forked from
/// that snapshot with a fresh thermostat seed (`seeds.stream(i)`). Because
/// the Langevin noise is keyed on `(seed, step)`, the clones diverge
/// immediately; `decorrelation_steps` additional held steps per clone wash
/// out the correlated starting configuration before the pull begins.
///
/// The saved work is `(n - 1) · equilibration_steps` minus
/// `n · decorrelation_steps` — a large win whenever decorrelation is much
/// shorter than equilibration (a few thermostat relaxation times `1/γ`
/// suffice for velocity decorrelation; positions decorrelate over the
/// slowest restrained mode).
///
/// Statistical caveat: clones share the master's equilibrated
/// configuration, so with too few decorrelation steps the realizations are
/// *correlated* samples of the initial Boltzmann ensemble and the work
/// variance is underestimated. Choose `decorrelation_steps` of at least a
/// few `1/(γ·dt)` steps; the equivalence test below checks mean *and*
/// spread against the independent path.
///
/// If the shared equilibration itself fails, every realization slot gets
/// an error describing that single failure (errors are not `Clone`, so
/// each slot carries a freshly formatted copy).
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
    run_ensemble_cloned_traced(
        factory,
        protocol,
        n,
        seeds,
        decorrelation_steps,
        &Telemetry::disabled(),
        0,
    )
}

/// [`run_ensemble_cloned`] with telemetry attached.
///
/// The shared equilibration runs under an `smd.equilibrate` span on the
/// `("smd.ensemble", track_key)` track; realization `i` gets its own
/// `("smd.realization", i)` track carrying an `smd.realization` span plus
/// the per-step MD probes/instants (the track's logical clock is the
/// simulation step counter). Kernel counters are *published* — snapshot
/// totals added into the shared `md.*` counters after each realization
/// finishes — rather than live-bound, so concurrent realizations
/// aggregate deterministically (sums commute; a live bind would be
/// last-writer-wins). Passing `Telemetry::disabled()` makes every hook a
/// no-op; either way the trajectories are bit-identical to the untraced
/// path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ensemble_cloned_traced<F>(
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
    let snap = match equilibrate_master(&factory, protocol, n, seeds, telemetry, track_key) {
        Ok(snap) => snap,
        Err(slots) => return slots,
    };

    (0..n)
        .into_par_iter()
        .map(|i| {
            let seed = seeds.stream(i as u64);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r_track = telemetry.track("smd.realization", i as u64);
                let _span = r_track.span("smd.realization");
                // Fresh thermostat seed + restored state = divergent clone.
                let mut sim = factory(seed);
                if telemetry.is_enabled() {
                    sim.attach_telemetry(telemetry, r_track.clone());
                }
                snap.restore(&mut sim)?;
                // Post-clone decorrelation: held spring, new noise stream.
                // The hold re-anchors at the clone's current COM, and the
                // pull starts from that same anchor — the same
                // hold-then-pull continuity run_pull has.
                let com0 = anchor_and_hold(&mut sim, protocol, decorrelation_steps)?;
                let out = pull_from(&mut sim, protocol, seed, com0).map(|o| o.trajectory);
                if telemetry.is_enabled() {
                    sim.kernel_counters().publish(telemetry);
                }
                out
            }))
            .unwrap_or_else(|_| {
                Err(MdError::NumericalBlowup {
                    step: 0,
                    what: format!("cloned realization {i} (seed {seed}) panicked"),
                })
            })
        })
        .collect()
}

/// The shared equilibration the cloned and batched ensembles fork from:
/// one master hold, seeded off-stream so it can never collide with a
/// realization seed (streams are indexed 0..n) or the pipeline's
/// bootstrap stream (u64::MAX on the *parent* sequence), run under an
/// `smd.equilibrate` span on the `("smd.ensemble", track_key)` track.
///
/// If it fails, the error is the ensemble's result: all `n` slots carry
/// that single failure (errors are not `Clone`, so each slot gets a
/// freshly formatted copy).
pub(crate) fn equilibrate_master<F>(
    factory: &F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    telemetry: &Telemetry,
    track_key: u64,
) -> Result<Snapshot, Vec<Result<WorkTrajectory, MdError>>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let master_seed = seeds.child(u64::MAX).stream(0);
    let ens_track = telemetry.track("smd.ensemble", track_key);
    let master = (|| -> Result<Snapshot, MdError> {
        let _span = ens_track.span("smd.equilibrate");
        let mut sim = factory(master_seed);
        if telemetry.is_enabled() {
            sim.attach_telemetry(telemetry, ens_track.clone());
        }
        anchor_and_hold(&mut sim, protocol, protocol.equilibration_steps)?;
        let snap = Snapshot::capture(&sim, "shared-equilibration");
        if telemetry.is_enabled() {
            sim.kernel_counters().publish(telemetry);
        }
        Ok(snap)
    })();
    master.map_err(|e| {
        let msg = format!("shared equilibration failed: {e}");
        (0..n)
            .map(|_| Err(MdError::Checkpoint(msg.clone())))
            .collect()
    })
}

/// Split ensemble results into successful trajectories and the errors of
/// the failed realizations, preserving realization order within each
/// half. Callers that must account for attrition (the pipeline's PMF
/// cells report it) use this instead of [`successes`].
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

/// Keep only the successful realizations. Failures are *not* silently
/// discarded: each dropped realization is logged to stderr (a biased
/// Jarzynski average from unnoticed attrition is exactly the failure mode
/// §IV warns about). Use [`partition_outcomes`] to handle the errors
/// programmatically.
pub fn successes(results: Vec<Result<WorkTrajectory, MdError>>) -> Vec<WorkTrajectory> {
    let (oks, errs) = partition_outcomes(results);
    if !errs.is_empty() {
        // spice-lint: allow(T001) successes() is the error-discarding convenience; the stderr note is its anti-silent-attrition contract — use partition_outcomes to handle errors programmatically
        eprintln!(
            "spice-smd: dropping {} failed realization(s) from ensemble of {}: {}",
            errs.len(),
            errs.len() + oks.len(),
            errs.first().map(|e| e.to_string()).unwrap_or_default()
        );
    }
    oks
}

#[cfg(test)]
mod tests {
    use super::*;
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
