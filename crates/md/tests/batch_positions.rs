//! Property test pinning `BatchSim` lane trajectories to independent
//! scalar `Simulation`s: for any noise-seed base, step count, and
//! replica count in {1, 3, 6, 12, 64} (padded to 8, 8, 8, 16 and 64
//! lanes), every lane's final positions *and* velocities must match its
//! scalar twin bitwise. Two fixtures: a
//! bonded, charged chain with WCA + Debye–Hückel non-bonded terms (the
//! shared tiered pair list, union rebuilds and the pair tiers), and a
//! strand carrying every bonded family (harmonic and FENE bonds, one
//! FENE bond past its 0.99 R0 cap, angles, and cosine dihedrals of
//! multiplicity 1 and 3). Two more strands start with their angles at
//! `det_acos`'s select boundaries, |cos θ| = 1/2 and cos θ = ±1.

use proptest::prelude::*;
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat};
use spice_md::forces::nonbonded::{LjParams, NonBonded};
use spice_md::forces::Restraint;
use spice_md::integrate::LangevinBaoab;
use spice_md::{ForceField, Simulation, System, Topology, Vec3};

const DT: f64 = 0.01;

/// A fixture: the system and its force field, built fresh per replay.
type Parts = fn() -> (System, ForceField);

fn chain_parts() -> (System, ForceField) {
    let mut sys = System::new();
    let mut topo = Topology::new();
    for i in 0..5usize {
        let f = i as f64;
        sys.add_particle(
            Vec3::new(
                f * 1.1 + 0.05 * (f * 0.7).sin(),
                0.2 * (f * 1.3).cos(),
                0.1 * f,
            ),
            15.0,
            if i % 2 == 0 { 0.0 } else { -1.0 },
            0,
        );
        if i > 0 {
            topo.add_harmonic_bond(i - 1, i, 1.1, 40.0);
        }
        if i > 1 {
            topo.add_angle(i - 2, i - 1, i, 2.6, 6.0);
        }
    }
    let anchor = sys.positions()[0];
    let ff = ForceField::new(topo)
        .with_nonbonded(
            NonBonded::new(LjParams::wca(1.0, 0.8), 4.0, 0.4).with_debye_huckel(3.0, 80.0),
        )
        .with_restraint(Restraint::harmonic(0, anchor, 5.0));
    (sys, ff)
}

fn bonded_parts() -> (System, ForceField) {
    let mut sys = System::new();
    let mut topo = Topology::new();
    for i in 0..7usize {
        let f = i as f64;
        sys.add_particle(
            Vec3::new(1.1 * f, 0.5 * (1.3 * f).cos(), 0.5 * (1.3 * f).sin()),
            15.0,
            0.0,
            0,
        );
    }
    topo.add_harmonic_bond(0, 1, 1.1, 40.0);
    topo.add_fene_bond(1, 2, 1.8, 1.5);
    // Starts stretched past the cap: 1.2 Å against 0.99 · 1.1 Å.
    topo.add_fene_bond(2, 3, 1.1, 1.0);
    topo.add_harmonic_bond(3, 4, 1.2, 30.0);
    topo.add_fene_bond(4, 5, 1.8, 1.5);
    topo.add_harmonic_bond(5, 6, 1.0, 40.0);
    for i in 0..5 {
        topo.add_angle(i, i + 1, i + 2, 2.2, 5.0);
    }
    topo.add_dihedral(0, 1, 2, 3, 1, 0.4, 1.5);
    topo.add_dihedral(1, 2, 3, 4, 3, 0.0, 0.9);
    topo.add_dihedral(2, 3, 4, 5, 1, std::f64::consts::PI, 1.2);
    topo.add_dihedral(3, 4, 5, 6, 3, 0.5, 0.7);
    (sys, ForceField::new(topo))
}

fn lane_thermostat(base: u64, l: usize) -> LaneThermostat {
    LaneThermostat {
        // Spread temperatures so lanes exercise distinct c1/c2/kT rows.
        temperature: 290.0 + 7.0 * (l % 6) as f64,
        gamma: 5.0,
        noise_seed: base
            .wrapping_add(l as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

fn scalar_final(parts: Parts, t: &LaneThermostat, steps: u64) -> (Vec<Vec3>, Vec<Vec3>) {
    let (sys, ff) = parts();
    let mut sim = Simulation::new(
        sys,
        ff,
        Box::new(LangevinBaoab::new(t.temperature, t.gamma, t.noise_seed)),
        DT,
    );
    for _ in 0..steps {
        sim.step_once();
    }
    (
        sim.system().positions().to_vec(),
        sim.system().velocities().to_vec(),
    )
}

/// One lane's rows for particles `0..n`, read through `at` (a lane's
/// `BatchSim::pos` or `BatchSim::vel`).
fn lane_rows(n: usize, at: impl Fn(usize) -> Vec3) -> Vec<Vec3> {
    (0..n).map(at).collect()
}

fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Lane trajectories are bitwise equal to scalar replays across
    /// replica counts {1, 3, 6, 12, 64}, on both fixtures.
    #[test]
    fn lanes_match_scalar_bitwise(base in 1u64..u32::MAX as u64, steps in 60u64..140) {
        for (name, parts) in [("chain", chain_parts as Parts), ("bonded", bonded_parts)] {
            for n in [1usize, 3, 6, 12, 64] {
                let lanes: Vec<LaneThermostat> = (0..n).map(|l| lane_thermostat(base, l)).collect();
                let (sys, ff) = parts();
                let template =
                    Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), DT);
                let mut bsim = BatchSim::new(template, &lanes);
                let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
                bsim.refresh_forces(&mut no_bias);
                for _ in 0..steps {
                    bsim.step_once(&mut no_bias);
                }
                // Scalar replays are expensive at n = 64; spot-check the
                // first, an interior, and the last lane there, all lanes
                // otherwise.
                let check: Vec<usize> = if n > 8 { vec![0, n / 2, n - 1] } else { (0..n).collect() };
                for &l in &check {
                    let (pos, vel) = scalar_final(parts, &lanes[l], steps);
                    prop_assert!(bsim.lane_is_finite(l), "{} n={} lane {} blew up", name, n, l);
                    prop_assert_eq!(bits(&lane_rows(bsim.n_particles(), |i| bsim.pos(i, l))), bits(&pos), "{} n={} lane {} positions", name, n, l);
                    prop_assert_eq!(bits(&lane_rows(bsim.n_particles(), |i| bsim.vel(i, l))), bits(&vel), "{} n={} lane {} velocities", name, n, l);
                }
            }
        }
    }
}

/// The f64 nearest √3/2: from the apex (1, 0, 0) with the other arm
/// along −x, `AngleGeometry::new` computes cos θ = ∓1/2 exactly for an
/// arm `(±0.5, ARM_Y, 0)`.
const ARM_Y: f64 = 0.866_025_403_784_438_7;

/// cos θ of the angle `i–j–k` by `AngleGeometry::new`'s expression.
fn cos_theta(pi: Vec3, pj: Vec3, pk: Vec3) -> f64 {
    let (rij, rkj) = (pi - pj, pk - pj);
    (rij.dot(rkj) * ((1.0 / rij.norm()) * (1.0 / rkj.norm()))).clamp(-1.0, 1.0)
}

/// A four-bead strand whose first angle starts at cos θ = `end`, −1
/// (straight) or +1 (folded back onto its first arm), both ends of
/// `det_acos`'s domain, and whose second starts at cos θ = `half`, ±1/2,
/// its fold.
fn boundary_parts(end: f64, half: f64) -> (System, ForceField) {
    let p0 = if end < 0.0 { -1.0 } else { 0.5 };
    let pos = [
        Vec3::new(p0, 0.0, 0.0),
        Vec3::zero(),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(1.0 - half, ARM_Y, 0.0),
    ];
    let mut sys = System::new();
    let mut topo = Topology::new();
    for (i, &p) in pos.iter().enumerate() {
        sys.add_particle(p, 15.0, 0.0, 0);
        if i > 0 {
            topo.add_harmonic_bond(i - 1, i, (p - pos[i - 1]).norm(), 40.0);
        }
    }
    topo.add_angle(0, 1, 2, 2.2, 5.0);
    topo.add_angle(1, 2, 3, 2.2, 5.0);
    (sys, ForceField::new(topo))
}

fn straight_and_half() -> (System, ForceField) {
    boundary_parts(-1.0, 0.5)
}

fn folded_and_minus_half() -> (System, ForceField) {
    boundary_parts(1.0, -0.5)
}

/// Lanes stay bitwise equal to their scalar twins when the first force
/// evaluation sits exactly on `det_acos`'s select boundaries: the
/// vectorized select must pick the branch the scalar one picks.
#[test]
fn angles_at_the_acos_select_boundaries_match_scalar_bitwise() {
    for (parts, end, half) in [
        (straight_and_half as Parts, -1.0, 0.5),
        (folded_and_minus_half, 1.0, -0.5),
    ] {
        let (sys, _) = parts();
        let p = sys.positions();
        assert_eq!(cos_theta(p[0], p[1], p[2]), end);
        assert_eq!(cos_theta(p[1], p[2], p[3]), half);
        for (n, steps) in [(3usize, 1u64), (3, 40), (12, 1), (12, 40)] {
            let lanes: Vec<LaneThermostat> = (0..n).map(|l| lane_thermostat(9, l)).collect();
            let template = Simulation::new(
                sys.clone(),
                parts().1,
                Box::new(LangevinBaoab::new(300.0, 5.0, 0)),
                DT,
            );
            let mut bsim = BatchSim::new(template, &lanes);
            let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
            bsim.refresh_forces(&mut no_bias);
            for _ in 0..steps {
                bsim.step_once(&mut no_bias);
            }
            for (l, t) in lanes.iter().enumerate() {
                let (pos, vel) = scalar_final(parts, t, steps);
                assert!(bsim.lane_is_finite(l), "cos {half}: n={n} lane {l} blew up");
                assert_eq!(
                    bits(&lane_rows(bsim.n_particles(), |i| bsim.pos(i, l))),
                    bits(&pos),
                    "cos {half}: n={n} steps={steps} lane {l} positions"
                );
                assert_eq!(
                    bits(&lane_rows(bsim.n_particles(), |i| bsim.vel(i, l))),
                    bits(&vel),
                    "cos {half}: n={n} steps={steps} lane {l} velocities"
                );
            }
        }
    }
}
