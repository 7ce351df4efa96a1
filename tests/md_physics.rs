//! Integration-level physics checks on the MD substrate through the
//! public `spice` facade: statistical mechanics the engine must get right
//! regardless of model details.

use spice::md::forces::{ForceField, LjParams, NonBonded, Restraint};
use spice::md::integrate::{LangevinBaoab, VelocityVerlet};
use spice::md::units::{KB, KT_300};
use spice::md::{Simulation, System, Topology, Vec3};
use spice::stats::RunningStats;

/// Equipartition: each quadratic degree of freedom carries kT/2 — measure
/// KE per particle in a Langevin bath of mixed masses.
#[test]
fn equipartition_across_mixed_masses() {
    let mut sys = System::new();
    let masses = [10.0, 50.0, 330.0];
    let n_per = 60;
    for (mi, &m) in masses.iter().enumerate() {
        for i in 0..n_per {
            sys.add_particle(
                Vec3::new(i as f64 * 3.0, mi as f64 * 3.0, 0.0),
                m,
                0.0,
                mi as u32,
            );
        }
    }
    let mut ff = ForceField::new(Topology::new());
    for i in 0..sys.len() {
        let anchor = sys.positions()[i];
        ff = ff.with_restraint(Restraint::harmonic(i, anchor, 1.0));
    }
    let mut sim = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 3.0, 9)), 0.01);
    sim.run(2_000, &mut []).unwrap();
    // Sample per-species temperature.
    let mut per_species = vec![RunningStats::new(); masses.len()];
    for _ in 0..400 {
        sim.run(10, &mut []).unwrap();
        for i in 0..sim.system().len() {
            let m = sim.system().masses()[i];
            let v2 = sim.system().velocities()[i].norm_sq();
            // (1/2) m v² per particle = (3/2) kT  →  T = m v²/(3 k).
            per_species[sim.system().species()[i] as usize]
                .push(m * v2 * spice::md::units::KE / (3.0 * KB));
        }
    }
    for (mi, stats) in per_species.iter().enumerate() {
        let t = stats.mean();
        assert!(
            (t - 300.0).abs() < 15.0,
            "species {mi} (mass {}) at {t:.1} K, want 300",
            masses[mi]
        );
    }
}

/// Boltzmann factor in a double-well: occupancy ratio of two wells of
/// depth difference ΔU matches exp(-ΔU/kT).
#[test]
fn boltzmann_occupancy_in_asymmetric_double_well() {
    // U(z) = a (z² − w²)² / w⁴ + b z  — two wells near ±w, tilted by b.
    struct DoubleWell {
        a: f64,
        w: f64,
        b: f64,
    }
    impl spice::md::forces::ExternalPotential for DoubleWell {
        fn energy_force(&self, p: Vec3, _s: u32) -> (f64, Vec3) {
            let z = p.z;
            let w2 = self.w * self.w;
            let q = z * z - w2;
            let e = self.a * q * q / (w2 * w2) + self.b * z
                // confine x,y strongly
                + 5.0 * (p.x * p.x + p.y * p.y);
            let dz = 4.0 * self.a * q * z / (w2 * w2) + self.b;
            (e, Vec3::new(-10.0 * p.x, -10.0 * p.y, -dz))
        }
    }
    let (a, w, b) = (2.0, 1.5, 0.25);
    let mut sys = System::new();
    let n = 64;
    for i in 0..n {
        // Start half in each well.
        let z = if i % 2 == 0 { w } else { -w };
        sys.add_particle(Vec3::new(0.0, 0.0, z), 20.0, 0.0, 0);
    }
    let ff = ForceField::new(Topology::new()).with_external(DoubleWell { a, w, b });
    let mut sim = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 21)), 0.01);
    sim.run(5_000, &mut []).unwrap();
    let (mut lo, mut hi) = (0u64, 0u64);
    for _ in 0..600 {
        sim.run(20, &mut []).unwrap();
        for p in sim.system().positions() {
            if p.z > 0.0 {
                hi += 1;
            } else {
                lo += 1;
            }
        }
    }
    let measured = hi as f64 / lo as f64;
    // ΔU between well minima ≈ 2 b w (tilt), barrier ~a=2 kcal ≈ 3.4 kT
    // so hopping equilibrates. Expected ratio exp(−ΔU/kT).
    let expected = (-2.0 * b * w / KT_300).exp();
    assert!(
        (measured / expected - 1.0).abs() < 0.45,
        "occupancy ratio {measured:.3} vs Boltzmann {expected:.3}"
    );
}

/// NVE drift on a many-body LJ cluster: velocity-Verlet must hold total
/// energy over tens of thousands of steps.
#[test]
fn nve_energy_conservation_lj_cluster() {
    let mut sys = System::new();
    for i in 0..4 {
        for j in 0..4 {
            sys.add_particle(
                Vec3::new(i as f64 * 1.15, j as f64 * 1.15, (i + j) as f64 * 0.05),
                20.0,
                0.0,
                0,
            );
        }
    }
    let mut ff = ForceField::new(Topology::new()).with_nonbonded(NonBonded::new(
        LjParams::lj(1.0, 0.3),
        2.6,
        0.4,
    ));
    // Relax first (plain gradient descent) so the start is a bound
    // cluster, then kick gently.
    for _ in 0..2000 {
        ff.evaluate(&mut sys);
        let (pos, _, frc, _) = sys.split_mut();
        for (p, f) in pos.iter_mut().zip(frc.iter()) {
            *p += *f * 0.01;
        }
    }
    for (i, v) in sys.velocities_mut().iter_mut().enumerate() {
        *v = Vec3::new(
            0.02 * ((i * 7 % 5) as f64 - 2.0),
            0.02 * ((i * 3 % 5) as f64 - 2.0),
            0.0,
        );
    }
    let mut sim = Simulation::new(sys, ff, Box::new(VelocityVerlet), 0.002);
    let e0 = sim.system().kinetic_energy() + sim.energies().total();
    sim.run(30_000, &mut []).unwrap();
    let e1 = sim.system().kinetic_energy() + sim.energies().total();
    assert!(
        (e1 - e0).abs() < 5e-3 * (1.0 + e0.abs()),
        "NVE drift {e0:.6} → {e1:.6}"
    );
}
