//! Cross-crate physics validation: the SMD-JE pipeline must recover
//! analytically known free-energy profiles end-to-end, and the TI
//! extension must agree with it — the integration-level correctness
//! proof behind every Fig. 4 number.

use spice::core::config::Scale;
use spice::core::ti::ti_profile;
use spice::jarzynski::pmf::{Estimator, PmfCurve};
use spice::md::forces::{ForceField, Restraint};
use spice::md::integrate::LangevinBaoab;
use spice::md::units::KT_300;
use spice::md::{Simulation, System, Topology, Vec3};
use spice::smd::{run_ensemble, PullProtocol};
use spice::stats::rng::SeedSequence;

/// PMF of a particle restrained by `U = a z²` (spice-md's `Restraint`
/// convention, no ½): `Φ(z) = a z²` up to a constant.
fn harmonic_pmf(a: f64) -> impl Fn(f64) -> f64 {
    move |z| a * z * z
}

/// A single bead in U = a z² with the SMD group defined — the exactly
/// solvable system.
fn well_factory(a: f64) -> impl Fn(u64) -> Simulation + Sync {
    move |seed| {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
        let mut topo = Topology::new();
        topo.set_group("smd", vec![0]);
        let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), a));
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 5.0, seed)),
            0.02,
        )
    }
}

#[test]
fn smd_je_recovers_harmonic_pmf() {
    let a = 0.4;
    let span = 3.0;
    // Slow enough to stay near-equilibrium for a bead with τ ≈ 0.2 ps.
    let protocol = PullProtocol {
        kappa_pn_per_a: 500.0,
        v_a_per_ns: 100.0,
        pull_distance: span,
        dt_ps: 0.02,
        equilibration_steps: 500,
        sample_stride: 25,
    };
    let trajectories: Vec<_> = run_ensemble(well_factory(a), &protocol, 24, SeedSequence::new(11))
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    assert_eq!(trajectories.len(), 24);
    let pmf = PmfCurve::estimate(&trajectories, span, 13, KT_300, Estimator::Jarzynski);
    let reference = harmonic_pmf(a);
    for p in &pmf.points {
        let expected = reference(p.guide_disp);
        assert!(
            (p.phi - expected).abs() < 0.45 + 0.15 * expected,
            "Φ({:.2}) = {:.3} vs analytic {:.3}",
            p.guide_disp,
            p.phi,
            expected
        );
    }
}

#[test]
fn fast_pulls_overestimate_the_pmf() {
    // §IV-C: "too large a velocity produces irreversible work which
    // results in deviations from the equilibrium PMF" — and the deviation
    // is an overestimate.
    let a = 0.4;
    let span = 3.0;
    let run_at = |v: f64, seed: u64| {
        let protocol = PullProtocol {
            kappa_pn_per_a: 500.0,
            v_a_per_ns: v,
            pull_distance: span,
            dt_ps: 0.02,
            equilibration_steps: 300,
            sample_stride: 25,
        };
        let t: Vec<_> = run_ensemble(well_factory(a), &protocol, 16, SeedSequence::new(seed))
            .into_iter()
            .filter_map(Result::ok)
            .collect();
        PmfCurve::estimate(&t, span, 7, KT_300, Estimator::MeanWork)
            .points
            .last()
            .unwrap()
            .phi
    };
    let slow = run_at(100.0, 1);
    let fast = run_at(8_000.0, 2);
    let truth = a * span * span;
    assert!(
        fast > slow,
        "mean work must grow with v: fast {fast:.3} vs slow {slow:.3} (truth {truth:.3})"
    );
    assert!(
        fast - truth > 0.2,
        "ballistic pull must dissipate visibly: {fast:.3} vs {truth:.3}"
    );
}

#[test]
fn ti_matches_je_on_harmonic_well() {
    let a = 0.4;
    let span = 2.0;
    let ti = ti_profile(
        well_factory(a),
        Scale::Test,
        span,
        5,
        500.0,
        SeedSequence::new(5),
    );
    let reference = harmonic_pmf(a);
    for &(s, phi) in &ti.profile {
        let expected = reference(s);
        assert!(
            (phi - expected).abs() < 0.35 + 0.15 * expected,
            "TI Φ({s:.2}) = {phi:.3} vs analytic {expected:.3}"
        );
    }
}

#[test]
fn cumulant_and_jarzynski_agree_near_equilibrium() {
    let a = 0.4;
    let span = 2.0;
    let protocol = PullProtocol {
        kappa_pn_per_a: 500.0,
        v_a_per_ns: 100.0,
        pull_distance: span,
        dt_ps: 0.02,
        equilibration_steps: 400,
        sample_stride: 25,
    };
    let t: Vec<_> = run_ensemble(well_factory(a), &protocol, 16, SeedSequence::new(7))
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let je = PmfCurve::estimate(&t, span, 7, KT_300, Estimator::Jarzynski);
    let cu = PmfCurve::estimate(&t, span, 7, KT_300, Estimator::Cumulant);
    let rms = je.rms_difference(&cu);
    assert!(
        rms < 0.3,
        "near equilibrium the estimators coincide; RMS difference {rms:.3}"
    );
}
