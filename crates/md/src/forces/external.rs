//! External one-body potentials.
//!
//! The pore, membrane and any confining walls act on each particle
//! independently of the others; they enter the force field through the
//! [`ExternalPotential`] trait. `spice-pore` implements it for the
//! α-hemolysin geometry.

use crate::system::SpeciesId;
use crate::vec3::Vec3;

/// A position-dependent one-body potential `U(r, species)`.
///
/// Implementations must be `Send + Sync` so the simulations holding them
/// can run on worker threads.
///
/// Both evaluation paths — [`add_forces`](Self::add_forces) for one
/// replica, [`add_forces_lanes`](Self::add_forces_lanes) for a batch of
/// replica lanes — call the one [`energy_force`](Self::energy_force), so
/// they produce the same bits. For the lane sweep to vectorize, an
/// implementation's `energy_force` should be `#[inline(always)]`,
/// branch-free (selects, not early returns) and free of libm calls (use
/// [`crate::detmath`]).
pub trait ExternalPotential: Send + Sync {
    /// Energy (kcal/mol) and force (kcal mol⁻¹ Å⁻¹) on a particle of the
    /// given species at position `p`.
    fn energy_force(&self, p: Vec3, species: SpeciesId) -> (f64, Vec3);

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "external"
    }

    /// Add forces for all particles, in index order; returns total energy.
    fn add_forces(&self, positions: &[Vec3], species: &[SpeciesId], forces: &mut [Vec3]) -> f64 {
        let mut e = 0.0;
        for i in 0..positions.len() {
            let (ei, fi) = self.energy_force(positions[i], species[i]);
            e += ei;
            forces[i] += fi;
        }
        e
    }

    /// Add forces for all `n` particles of all `r` replica lanes of a
    /// batch, whose SoA rows hold coordinate `(particle i, axis a, lane l)`
    /// at `(i*3 + a)*r + l` (see [`crate::batch`]). Each accumulator
    /// receives this term's force in the same order as
    /// [`add_forces`](Self::add_forces), so each lane matches the scalar
    /// path bitwise. The energy is not accumulated.
    fn add_forces_lanes(
        &self,
        pos: &[f64],
        species: &[SpeciesId],
        frc: &mut [f64],
        n: usize,
        r: usize,
    ) {
        crate::batch::external_lanes(self, pos, species, frc, n, r);
    }
}

/// A harmonic wall confining particles to a slab `z ∈ [z_lo, z_hi]`
/// (flat inside, quadratic outside). Used to keep open-boundary systems
/// bounded and in tests.
#[derive(Debug, Clone, Copy)]
pub struct SlabWall {
    /// Lower z bound (Å).
    pub z_lo: f64,
    /// Upper z bound (Å).
    pub z_hi: f64,
    /// Wall stiffness (kcal mol⁻¹ Å⁻²).
    pub k: f64,
}

impl ExternalPotential for SlabWall {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        // Selects, not branches: d = 0 inside gives an exact-zero term.
        let d = if p.z < self.z_lo {
            p.z - self.z_lo
        } else if p.z > self.z_hi {
            p.z - self.z_hi
        } else {
            0.0
        };
        (self.k * d * d, Vec3::new(0.0, 0.0, -2.0 * self.k * d))
    }

    fn name(&self) -> &str {
        "slab-wall"
    }
}

/// A harmonic radial wall confining particles to a cylinder ρ ≤ R around
/// the z-axis.
#[derive(Debug, Clone, Copy)]
pub struct CylinderWall {
    /// Cylinder radius (Å).
    pub radius: f64,
    /// Wall stiffness (kcal mol⁻¹ Å⁻²).
    pub k: f64,
}

impl ExternalPotential for CylinderWall {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        let rho = p.rho();
        let d = rho - self.radius;
        let e = self.k * d * d;
        // Gradient points radially outward; force pulls back in.
        let inv = if rho > 0.0 { 1.0 / rho } else { 0.0 };
        let fx = -2.0 * self.k * d * p.x * inv;
        let fy = -2.0 * self.k * d * p.y * inv;
        // Selects, not an early return: the term vectorizes across
        // replica lanes, and a lane inside the wall adds an exact zero.
        let on = rho > self.radius;
        (
            if on { e } else { 0.0 },
            Vec3::new(if on { fx } else { 0.0 }, if on { fy } else { 0.0 }, 0.0),
        )
    }

    fn name(&self) -> &str {
        "cylinder-wall"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_wall_flat_inside() {
        let w = SlabWall {
            z_lo: -5.0,
            z_hi: 5.0,
            k: 10.0,
        };
        let (e, f) = w.energy_force(Vec3::new(0.0, 0.0, 3.0), 0);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn slab_wall_restores_from_both_sides() {
        let w = SlabWall {
            z_lo: -5.0,
            z_hi: 5.0,
            k: 10.0,
        };
        let (e_hi, f_hi) = w.energy_force(Vec3::new(0.0, 0.0, 6.0), 0);
        assert!((e_hi - 10.0).abs() < 1e-12);
        assert!(f_hi.z < 0.0);
        let (e_lo, f_lo) = w.energy_force(Vec3::new(0.0, 0.0, -7.0), 0);
        assert!((e_lo - 40.0).abs() < 1e-12);
        assert!(f_lo.z > 0.0);
    }

    #[test]
    fn cylinder_wall_radial_restoring() {
        let w = CylinderWall {
            radius: 2.0,
            k: 5.0,
        };
        let (e, f) = w.energy_force(Vec3::new(3.0, 0.0, 1.0), 0);
        assert!((e - 5.0).abs() < 1e-12);
        assert!(f.x < 0.0 && f.y == 0.0 && f.z == 0.0);
        let (e_in, f_in) = w.energy_force(Vec3::new(1.0, 1.0, 0.0), 0);
        assert_eq!(e_in, 0.0);
        assert_eq!(f_in, Vec3::zero());
    }

    #[test]
    fn add_forces_accumulates_energy() {
        let w = SlabWall {
            z_lo: 0.0,
            z_hi: 1.0,
            k: 1.0,
        };
        let pos = vec![Vec3::new(0.0, 0.0, 2.0), Vec3::new(0.0, 0.0, 0.5)];
        let species = vec![0, 0];
        let mut forces = vec![Vec3::zero(); 2];
        let e = w.add_forces(&pos, &species, &mut forces);
        assert!((e - 1.0).abs() < 1e-12);
        assert!(forces[0].z < 0.0);
        assert_eq!(forces[1], Vec3::zero());
    }

    #[test]
    fn wall_force_matches_numeric_gradient() {
        let w = CylinderWall {
            radius: 1.5,
            k: 3.0,
        };
        let p = Vec3::new(1.8, 0.9, 0.4);
        let h = 1e-6;
        let (_, f) = w.energy_force(p, 0);
        for ax in 0..3 {
            let mut pp = p;
            let mut pm = p;
            match ax {
                0 => {
                    pp.x += h;
                    pm.x -= h;
                }
                1 => {
                    pp.y += h;
                    pm.y -= h;
                }
                _ => {
                    pp.z += h;
                    pm.z -= h;
                }
            }
            let num = -(w.energy_force(pp, 0).0 - w.energy_force(pm, 0).0) / (2.0 * h);
            let ana = [f.x, f.y, f.z][ax];
            assert!((num - ana).abs() < 1e-5, "axis {ax}: {num} vs {ana}");
        }
    }
}
