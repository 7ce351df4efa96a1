//! Structure-of-arrays particle state.
//!
//! Positions, velocities and forces live in separate contiguous vectors so
//! the force and integration loops stream through memory linearly and
//! auto-vectorize (the Rust perf-book idiom for hot numeric kernels).

use crate::units;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Numeric species identifier (indexes into a model-defined species table).
pub type SpeciesId = u32;

/// The dynamical state of an N-particle system.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct System {
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    forces: Vec<Vec3>,
    masses: Vec<f64>,
    inv_masses: Vec<f64>,
    charges: Vec<f64>,
    species: Vec<SpeciesId>,
}

impl System {
    /// Empty system.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empty system with reserved capacity for `n` particles.
    pub fn with_capacity(n: usize) -> Self {
        System {
            positions: Vec::with_capacity(n),
            velocities: Vec::with_capacity(n),
            forces: Vec::with_capacity(n),
            masses: Vec::with_capacity(n),
            inv_masses: Vec::with_capacity(n),
            charges: Vec::with_capacity(n),
            species: Vec::with_capacity(n),
        }
    }

    /// Append a particle; returns its index.
    ///
    /// # Panics
    /// Panics on non-positive mass.
    pub fn add_particle(&mut self, pos: Vec3, mass: f64, charge: f64, species: SpeciesId) -> usize {
        assert!(mass > 0.0, "particle mass must be positive");
        self.positions.push(pos);
        self.velocities.push(Vec3::zero());
        self.forces.push(Vec3::zero());
        self.masses.push(mass);
        self.inv_masses.push(1.0 / mass);
        self.charges.push(charge);
        self.species.push(species);
        self.positions.len() - 1
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the system holds no particles.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Particle positions (Å).
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Mutable particle positions.
    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    /// Particle velocities (Å/ps).
    pub fn velocities(&self) -> &[Vec3] {
        &self.velocities
    }

    /// Mutable particle velocities.
    pub fn velocities_mut(&mut self) -> &mut [Vec3] {
        &mut self.velocities
    }

    /// Accumulated forces (kcal mol⁻¹ Å⁻¹).
    pub fn forces(&self) -> &[Vec3] {
        &self.forces
    }

    /// Split borrows needed by integrators: (positions, velocities, forces,
    /// inverse masses).
    pub fn split_mut(&mut self) -> (&mut [Vec3], &mut [Vec3], &mut [Vec3], &[f64]) {
        (
            &mut self.positions,
            &mut self.velocities,
            &mut self.forces,
            &self.inv_masses,
        )
    }

    /// Split borrow for force evaluation: positions, charges and species
    /// immutably alongside the mutable force accumulators.
    pub fn force_eval_view(&mut self) -> (&[Vec3], &[f64], &[SpeciesId], &mut [Vec3]) {
        (
            &self.positions,
            &self.charges,
            &self.species,
            &mut self.forces,
        )
    }

    /// Particle masses (amu).
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Precomputed inverse masses.
    pub fn inv_masses(&self) -> &[f64] {
        &self.inv_masses
    }

    /// Particle charges (units of e).
    pub fn charges(&self) -> &[f64] {
        &self.charges
    }

    /// Species identifiers.
    pub fn species(&self) -> &[SpeciesId] {
        &self.species
    }

    /// Zero all force accumulators (start of a force evaluation).
    pub fn zero_forces(&mut self) {
        for f in &mut self.forces {
            *f = Vec3::zero();
        }
    }

    /// Kinetic energy, kcal/mol.
    pub fn kinetic_energy(&self) -> f64 {
        units::KE
            * 0.5
            * self
                .velocities
                .iter()
                .zip(&self.masses)
                .map(|(v, &m)| m * v.norm_sq())
                .sum::<f64>()
    }

    /// Instantaneous temperature (K) from the equipartition theorem with
    /// 3N degrees of freedom. Returns 0 for an empty system.
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let dof = 3.0 * self.len() as f64;
        2.0 * self.kinetic_energy() / (dof * units::KB)
    }

    /// Center of mass of a subset of particle indices.
    pub fn center_of_mass_of<I: IntoIterator<Item = usize>>(&self, idx: I) -> Vec3 {
        let mut num = Vec3::zero();
        let mut den = 0.0;
        for i in idx {
            num += self.positions[i] * self.masses[i];
            den += self.masses[i];
        }
        // spice-lint: allow(N002) exact-zero total mass sentinel: empty group
        if den == 0.0 {
            Vec3::zero()
        } else {
            num / den
        }
    }

    /// Total mass (amu).
    pub fn total_mass(&self) -> f64 {
        self.masses.iter().sum()
    }

    /// Net momentum (amu·Å/ps).
    pub fn momentum(&self) -> Vec3 {
        self.velocities
            .iter()
            .zip(&self.masses)
            .map(|(&v, &m)| v * m)
            .sum()
    }

    /// Remove net center-of-mass drift velocity.
    pub fn remove_com_velocity(&mut self) {
        let m = self.total_mass();
        // spice-lint: allow(N002) exact-zero total mass sentinel: empty group
        if m == 0.0 {
            return;
        }
        let vcom = self.momentum() / m;
        for v in &mut self.velocities {
            *v -= vcom;
        }
    }

    /// Draw Maxwell–Boltzmann velocities at temperature `t` (K) using the
    /// supplied per-particle Gaussian sampler, then remove COM drift.
    ///
    /// `gauss(i, axis)` must return an independent standard normal for each
    /// `(particle, axis)` pair.
    pub fn thermalize_with<F: FnMut(usize, usize) -> f64>(&mut self, t: f64, mut gauss: F) {
        for i in 0..self.len() {
            let s = units::thermal_velocity(self.masses[i], t);
            self.velocities[i] = Vec3::new(s * gauss(i, 0), s * gauss(i, 1), s * gauss(i, 2));
        }
        self.remove_com_velocity();
    }

    /// True when every coordinate and velocity is finite.
    pub fn is_finite(&self) -> bool {
        self.positions.iter().all(|p| p.is_finite())
            && self.velocities.iter().all(|v| v.is_finite())
    }

    /// The invariants [`add_particle`](Self::add_particle) keeps, checked
    /// on a decoded state: the seven per-particle arrays have one length,
    /// every mass is finite and positive with `inv_mass` the bits of
    /// `1.0 / mass`, and every position, velocity, force and charge is
    /// finite. Names the first violation.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let n = self.positions.len();
        let lens = [
            ("velocities", self.velocities.len()),
            ("forces", self.forces.len()),
            ("masses", self.masses.len()),
            ("inv_masses", self.inv_masses.len()),
            ("charges", self.charges.len()),
            ("species", self.species.len()),
        ];
        if let Some((name, len)) = lens.iter().find(|(_, len)| *len != n) {
            return Err(format!("{name} has {len} entries, positions {n}"));
        }
        for (i, (&m, &inv)) in self.masses.iter().zip(&self.inv_masses).enumerate() {
            if !(m.is_finite() && m > 0.0) {
                return Err(format!("particle {i} has mass {m}"));
            }
            let want = 1.0 / m;
            if inv.to_bits() != want.to_bits() {
                return Err(format!("particle {i}: inv_mass {inv} is not 1/{m}"));
            }
        }
        let vectors = [
            ("position", &self.positions),
            ("velocity", &self.velocities),
            ("force", &self.forces),
        ];
        for (what, rows) in vectors {
            if let Some(i) = rows.iter().position(|v| !v.is_finite()) {
                return Err(format!("particle {i} has a non-finite {what}"));
            }
        }
        if let Some(i) = self.charges.iter().position(|q| !q.is_finite()) {
            return Err(format!("particle {i} has a non-finite charge"));
        }
        Ok(())
    }
}

impl Default for System {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::GaussianStream;

    fn two_particle_system() -> System {
        let mut s = System::new();
        s.add_particle(Vec3::new(0.0, 0.0, 0.0), 2.0, 1.0, 0);
        s.add_particle(Vec3::new(1.0, 0.0, 0.0), 6.0, -1.0, 1);
        s
    }

    #[test]
    fn add_and_query() {
        let s = two_particle_system();
        assert_eq!(s.len(), 2);
        assert_eq!(s.masses(), &[2.0, 6.0]);
        assert_eq!(s.charges(), &[1.0, -1.0]);
        assert_eq!(s.species(), &[0, 1]);
        assert_eq!(s.inv_masses()[1], 1.0 / 6.0);
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn zero_mass_rejected() {
        let mut s = System::new();
        s.add_particle(Vec3::zero(), 0.0, 0.0, 0);
    }

    #[test]
    fn com_weights_by_mass() {
        let s = two_particle_system();
        // COM = (2*0 + 6*1)/8 = 0.75 along x.
        let com = s.center_of_mass_of(0..s.len());
        assert!((com.x - 0.75).abs() < 1e-12);
    }

    #[test]
    fn kinetic_energy_and_temperature() {
        let mut s = two_particle_system();
        s.velocities_mut()[0] = Vec3::new(1.0, 0.0, 0.0);
        // KE = 0.5 * 2 * 1 * units::KE
        let ke = s.kinetic_energy();
        assert!((ke - units::KE).abs() < 1e-15);
        // T = 2 KE / (6 kB)
        let t = s.temperature();
        assert!((t - 2.0 * ke / (6.0 * units::KB)).abs() < 1e-10);
    }

    #[test]
    fn remove_com_velocity_zeroes_momentum() {
        let mut s = two_particle_system();
        s.velocities_mut()[0] = Vec3::new(3.0, -1.0, 0.5);
        s.velocities_mut()[1] = Vec3::new(0.2, 0.8, -0.1);
        s.remove_com_velocity();
        assert!(s.momentum().norm() < 1e-12);
    }

    #[test]
    fn thermalize_hits_target_temperature() {
        let mut s = System::new();
        for i in 0..2000 {
            s.add_particle(Vec3::new(i as f64, 0.0, 0.0), 50.0, 0.0, 0);
        }
        let g = GaussianStream::new(99);
        s.thermalize_with(300.0, |i, a| g.sample(i as u64, a as u64));
        let t = s.temperature();
        assert!(
            (t - 300.0).abs() < 15.0,
            "thermalized temperature {t} should be near 300 K"
        );
        assert!(s.momentum().norm() < 1e-9);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut s = two_particle_system();
        assert!(s.is_finite());
        s.positions_mut()[0].x = f64::NAN;
        assert!(!s.is_finite());
    }
}
