//! The SMD pulling spring.
//!
//! `U(t) = κ/2 (z_com − z_guide(t))²` with `z_guide(t) = z₀ + v (t − t₀)`.
//! The restoring force is distributed over the SMD atoms mass-weighted,
//! so it acts on their center of mass exactly — NAMD's SMD convention.

use spice_md::{BiasForce, Vec3};

/// Constant-velocity harmonic pulling of a group's COM along z.
#[derive(Debug, Clone)]
pub struct SmdSpring {
    /// SMD atom indices.
    group: Vec<usize>,
    /// Mass fraction mᵢ/M per group atom (precomputed).
    mass_frac: Vec<f64>,
    /// Spring constant κ (kcal mol⁻¹ Å⁻²).
    kappa: f64,
    /// Pulling velocity (Å/ps); sign sets direction along z.
    velocity: f64,
    /// Guide position at `t_start`.
    z_start: f64,
    /// Simulation time at which the pull begins (ps).
    t_start: f64,
}

impl SmdSpring {
    /// Attach a spring to `group` (with the given masses) starting from
    /// guide position `z_start` at simulation time `t_start`.
    ///
    /// # Panics
    /// Panics for an empty group or non-positive κ.
    pub fn new(
        group: Vec<usize>,
        masses: &[f64],
        kappa: f64,
        velocity: f64,
        z_start: f64,
        t_start: f64,
    ) -> Self {
        assert!(!group.is_empty(), "SMD group must be non-empty");
        assert!(kappa > 0.0, "spring constant must be positive");
        let total: f64 = group.iter().map(|&i| masses[i]).sum();
        let mass_frac = group.iter().map(|&i| masses[i] / total).collect();
        SmdSpring {
            group,
            mass_frac,
            kappa,
            velocity,
            z_start,
            t_start,
        }
    }

    /// Guide (pulling-atom) position at simulation time `t_ps`.
    #[inline]
    pub fn guide_z(&self, t_ps: f64) -> f64 {
        self.z_start + self.velocity * (t_ps - self.t_start)
    }

    /// Guide displacement since the pull began.
    #[inline]
    pub fn guide_displacement(&self, t_ps: f64) -> f64 {
        self.velocity * (t_ps - self.t_start)
    }

    /// COM z of the SMD atoms for the given positions.
    pub fn com_z(&self, positions: &[Vec3]) -> f64 {
        self.group
            .iter()
            .zip(&self.mass_frac)
            .map(|(&i, &w)| w * positions[i].z)
            .sum()
    }

    /// Spring force on the system along +z (what the paper's force plots
    /// show): `F = κ (z_guide − z_com)`.
    pub fn spring_force(&self, positions: &[Vec3], t_ps: f64) -> f64 {
        self.kappa * (self.guide_z(t_ps) - self.com_z(positions))
    }

    /// Spring constant (kcal mol⁻¹ Å⁻²).
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Pulling velocity (Å/ps).
    pub fn velocity(&self) -> f64 {
        self.velocity
    }

    /// The SMD atom indices.
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    /// Precomputed mass fractions, aligned with [`group`](Self::group)
    /// (the batched engine replicates the COM fold per replica lane).
    pub(crate) fn mass_frac(&self) -> &[f64] {
        &self.mass_frac
    }

    /// This spring's group and κ with its guide at `z_start` at time
    /// `t_start`, moving at `velocity`.
    pub(crate) fn guided(&self, z_start: f64, velocity: f64, t_start: f64) -> SmdSpring {
        SmdSpring {
            z_start,
            velocity,
            t_start,
            ..self.clone()
        }
    }
}

impl BiasForce for SmdSpring {
    fn apply(&self, positions: &[Vec3], forces: &mut [Vec3], t_ps: f64) -> f64 {
        let dz = self.com_z(positions) - self.guide_z(t_ps);
        // U = κ/2 dz² ; F_i = -κ dz · mᵢ/M along z.
        let f_com = -self.kappa * dz;
        for (&i, &w) in self.group.iter().zip(&self.mass_frac) {
            forces[i].z += f_com * w;
        }
        0.5 * self.kappa * dz * dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(zs: &[f64]) -> Vec<Vec3> {
        zs.iter().map(|&z| Vec3::new(0.0, 0.0, z)).collect()
    }

    #[test]
    fn guide_moves_linearly() {
        let s = SmdSpring::new(vec![0], &[1.0], 1.0, 0.5, 10.0, 2.0);
        assert_eq!(s.guide_z(2.0), 10.0);
        assert_eq!(s.guide_z(4.0), 11.0);
        assert_eq!(s.guide_displacement(6.0), 2.0);
    }

    #[test]
    fn com_is_mass_weighted() {
        let s = SmdSpring::new(vec![0, 1], &[1.0, 3.0], 1.0, 0.0, 0.0, 0.0);
        let pos = positions(&[0.0, 4.0]);
        assert!((s.com_z(&pos) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn force_distributed_by_mass_and_totals_correctly() {
        let kappa = 2.0;
        let s = SmdSpring::new(vec![0, 1], &[1.0, 3.0], kappa, 0.0, 5.0, 0.0);
        let pos = positions(&[0.0, 4.0]); // com = 3, guide = 5 → F_com = +4
        let mut f = vec![Vec3::zero(); 2];
        let e = s.apply(&pos, &mut f, 0.0);
        let total_fz = f[0].z + f[1].z;
        assert!((total_fz - kappa * 2.0).abs() < 1e-12, "total {total_fz}");
        assert!((f[1].z / f[0].z - 3.0).abs() < 1e-12, "mass-weighted split");
        assert!((e - 0.5 * kappa * 4.0).abs() < 1e-12);
        // Matches the reported spring force.
        assert!((s.spring_force(&pos, 0.0) - total_fz).abs() < 1e-12);
    }

    #[test]
    fn spring_relaxed_when_com_on_guide() {
        let s = SmdSpring::new(vec![0], &[2.0], 10.0, 1.0, 0.0, 0.0);
        let pos = positions(&[3.0]);
        let mut f = vec![Vec3::zero(); 1];
        let e = s.apply(&pos, &mut f, 3.0); // guide at 3.0 = com
        assert!(e.abs() < 1e-12);
        assert!(f[0].z.abs() < 1e-12);
    }

    #[test]
    fn negative_velocity_pulls_down() {
        let s = SmdSpring::new(vec![0], &[1.0], 5.0, -1.0, 0.0, 0.0);
        let pos = positions(&[0.0]);
        let mut f = vec![Vec3::zero(); 1];
        s.apply(&pos, &mut f, 2.0); // guide at -2
        assert!(f[0].z < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_group_rejected() {
        SmdSpring::new(vec![], &[], 1.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn only_z_components_touched() {
        let s = SmdSpring::new(vec![0], &[1.0], 5.0, 0.0, 10.0, 0.0);
        let pos = vec![Vec3::new(1.0, 2.0, 3.0)];
        let mut f = vec![Vec3::new(0.1, 0.2, 0.3)];
        s.apply(&pos, &mut f, 0.0);
        assert_eq!(f[0].x, 0.1);
        assert_eq!(f[0].y, 0.2);
        assert!(f[0].z > 0.3, "z pulled up toward guide");
    }
}
