//! The estimator triangle on an exactly solvable system: JE, TI, WHAM and
//! BAR must all agree with the analytic PMF of a harmonic well — the
//! strongest cross-method consistency test in the suite.

use spice::core::config::Scale;
use spice::core::ti::{ti_profile, umbrella_windows};
use spice::jarzynski::crooks::bar_free_energy;
use spice::jarzynski::pmf::{Estimator, PmfCurve};
use spice::jarzynski::wham::wham;
use spice::md::forces::{ForceField, Restraint};
use spice::md::integrate::LangevinBaoab;
use spice::md::units::KT_300;
use spice::md::{Simulation, System, Topology, Vec3};
use spice::smd::{run_ensemble, run_pull, shift_to_far_end, PullProtocol};
use spice::stats::rng::SeedSequence;

const A: f64 = 0.5; // U = a z² → Φ(z) = a z²
const SPAN: f64 = 2.5;

fn factory(seed: u64) -> Simulation {
    let mut sys = System::new();
    sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
    let mut topo = Topology::new();
    topo.set_group("smd", vec![0]);
    let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), A));
    Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
        0.02,
    )
}

fn protocol() -> PullProtocol {
    PullProtocol {
        kappa_pn_per_a: 500.0,
        v_a_per_ns: 150.0,
        pull_distance: SPAN,
        dt_ps: 0.02,
        equilibration_steps: 400,
        sample_stride: 25,
    }
}

#[test]
fn all_four_estimators_agree_with_analytic_pmf() {
    let truth = A * SPAN * SPAN; // ΔΦ over the span

    // JE (forward pulls).
    let trajectories: Vec<_> = run_ensemble(factory, &protocol(), 20, SeedSequence::new(1))
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let je = PmfCurve::estimate(&trajectories, SPAN, 11, KT_300, Estimator::Jarzynski)
        .points
        .last()
        .unwrap()
        .phi;

    // TI (umbrella mean-force ladder).
    let ti = ti_profile(factory, Scale::Test, SPAN, 6, 500.0, SeedSequence::new(2));
    let ti_end = ti.profile.last().unwrap().1;

    // WHAM (same ladder, histogram route).
    let windows = umbrella_windows(factory, Scale::Test, SPAN, 6, 500.0, SeedSequence::new(3));
    let w = wham(&windows, -0.8, SPAN + 0.8, 33, KT_300, 2_000, 1e-9);
    // Φ difference between the bins nearest 0 and SPAN.
    let phi_near = |x0: f64| {
        w.profile
            .iter()
            .min_by(|a, b| (a.0 - x0).abs().total_cmp(&(b.0 - x0).abs()))
            .unwrap()
            .1
    };
    let wham_delta = phi_near(SPAN) - phi_near(0.0);

    // BAR (forward + reverse).
    let forward: Vec<f64> = trajectories.iter().map(|t| t.final_work()).collect();
    let reversed = PullProtocol {
        v_a_per_ns: -protocol().v_a_per_ns,
        ..protocol()
    };
    let reverse: Vec<f64> = (0..20)
        .filter_map(|i| {
            let mut sim = factory(1_000 + i);
            shift_to_far_end(&mut sim, &protocol());
            run_pull(&mut sim, &reversed, i)
                .ok()
                .map(|o| o.trajectory.final_work())
        })
        .collect();
    let bar = bar_free_energy(&forward, &reverse, KT_300);

    for (name, value, tol) in [
        ("JE", je, 0.6),
        ("TI", ti_end, 0.6),
        ("WHAM", wham_delta, 0.8),
        ("BAR", bar, 0.6),
    ] {
        assert!(
            (value - truth).abs() < tol,
            "{name} = {value:.3} vs analytic {truth:.3} (tol {tol})"
        );
    }
}
