//! Golden digests of every independent Langevin ensemble: `run_ensemble`
//! on the Test pore and on a harmonic well, the TI reference profile and
//! its umbrella windows, and the numeric results of T-bidir and T-subtraj.
//! They were recorded while each of these ran one scalar `Simulation` per
//! realization, so an ensemble moved onto batched lanes must reproduce
//! them bit for bit, on any lane layout and any core count. (Recorded on
//! x86_64 with glibc: the MD step calls no libm, but the strand builder's
//! start positions and the estimators do.)

mod common;

use spice::core::config::Scale;
use spice::core::experiments::{bidirectional, subtrajectory};
use spice::core::pipeline::{pore_simulation, reference_profile};
use spice::core::ti::umbrella_windows;
use spice::jarzynski::pmf::PmfCurve;
use spice::md::forces::{ForceField, Restraint};
use spice::md::integrate::LangevinBaoab;
use spice::md::{MdError, Simulation, System, Topology, Vec3};
use spice::smd::{run_ensemble, PullProtocol, WorkTrajectory};
use spice::stats::rng::SeedSequence;

const MASTER: u64 = 20050512;

/// FNV-1a over the bit patterns of `values`.
fn digest_f64s(h: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(h, |h, v| common::fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// FNV-1a over every slot: a trajectory's seed and sample bits, or a
/// failed slot's error text.
fn slots_digest(slots: &[Result<WorkTrajectory, MdError>]) -> u64 {
    slots.iter().fold(common::FNV_OFFSET, |h, slot| match slot {
        Ok(t) => {
            let h = common::fnv1a(h, &t.seed.to_le_bytes());
            digest_f64s(
                h,
                t.samples
                    .iter()
                    .flat_map(|s| [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force]),
            )
        }
        Err(e) => common::fnv1a(h, e.to_string().as_bytes()),
    })
}

fn curve_digest(h: u64, curve: &PmfCurve) -> u64 {
    let h = digest_f64s(h, [curve.kappa_pn_per_a, curve.v_a_per_ns]);
    curve.points.iter().fold(h, |h, p| {
        let h = digest_f64s(h, [p.guide_disp, p.com_disp, p.phi, p.mean_work]);
        common::fnv1a(h, &(p.n as u64).to_le_bytes())
    })
}

/// Assert that the digest `got` of `what` is its recorded `golden`.
fn check(what: &str, got: u64, golden: u64) {
    assert_eq!(got, golden, "{what} moved: digest {got:#018x}");
}

/// One bead in U = a z², the harmonic well of the validation tests.
fn well(seed: u64) -> Simulation {
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

#[test]
fn run_ensemble_on_the_test_pore_matches_goldens() {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    for (n, golden) in [(6, 0x595e_def6_f509_3f30), (17, 0x6277_2296_6016_63cb)] {
        let slots = run_ensemble(
            |seed| pore_simulation(Scale::Test, seed),
            &protocol,
            n,
            SeedSequence::new(MASTER),
        );
        assert_eq!(slots.len(), n);
        assert!(
            slots.iter().all(Result::is_ok),
            "n={n}: a realization failed"
        );
        check(
            &format!("{n}-realization Test-pore ensemble"),
            slots_digest(&slots),
            golden,
        );
    }
}

#[test]
fn run_ensemble_on_the_harmonic_well_matches_golden() {
    let protocol = PullProtocol {
        kappa_pn_per_a: 300.0,
        v_a_per_ns: 2000.0,
        pull_distance: 2.0,
        dt_ps: 0.02,
        equilibration_steps: 100,
        sample_stride: 10,
    };
    let slots = run_ensemble(well, &protocol, 9, SeedSequence::new(MASTER));
    assert!(slots.iter().all(Result::is_ok));
    check(
        "harmonic-well ensemble",
        slots_digest(&slots),
        0x553e_5e40_9ab1_927d,
    );
}

#[test]
fn ti_reference_and_umbrella_windows_match_goldens() {
    let reference = reference_profile(Scale::Test, SeedSequence::new(MASTER));
    let h = digest_f64s(
        common::FNV_OFFSET,
        reference.iter().flat_map(|&(s, phi)| [s, phi]),
    );
    check("Test reference profile", h, 0xf662_b4ac_1d4a_be8d);

    let windows = umbrella_windows(
        |seed| pore_simulation(Scale::Test, seed),
        Scale::Test,
        Scale::Test.pull_distance(),
        9,
        100.0,
        SeedSequence::new(MASTER).child(4),
    );
    let h = windows.iter().fold(common::FNV_OFFSET, |h, w| {
        let h = digest_f64s(h, [w.center, w.kappa]);
        digest_f64s(h, w.samples.iter().copied())
    });
    check("Test umbrella windows", h, 0x67e5_3451_d021_296f);
}

#[test]
fn bidirectional_study_matches_golden() {
    let s = bidirectional::study(Scale::Test, MASTER);
    let h = digest_f64s(
        common::FNV_OFFSET,
        [s.je_forward, s.bar, s.ti_reference, s.hysteresis],
    );
    let h = common::fnv1a(h, &(s.n_per_direction as u64).to_le_bytes());
    check("T-bidir study", h, 0xb172_ab66_0d0b_8b84);
}

#[test]
fn subtrajectory_study_matches_golden() {
    let s = subtrajectory::study(Scale::Test, MASTER);
    let h = digest_f64s(
        common::FNV_OFFSET,
        s.sigma_vs_displacement.iter().flat_map(|&(d, sg)| [d, sg]),
    );
    let h = digest_f64s(h, [s.sigma_far_long, s.sigma_far_segmented]);
    let h = curve_digest(curve_digest(h, &s.stitched), &s.long);
    check("T-subtraj study", h, 0x671d_ec5e_0de2_51bd);
}
