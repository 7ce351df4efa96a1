//! Harmonic position restraints.
//!
//! The pore scaffold beads are restrained to their crystallographic
//! positions (the paper's protein is effectively rigid on pulling
//! timescales); restraints also anchor reference atoms in tests.

use crate::vec3::Vec3;

/// A harmonic restraint `U = k |r - r₀|²` on one particle, optionally
/// restricted to a subset of axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Restraint {
    /// Restrained particle index.
    pub index: usize,
    /// Anchor position (Å).
    pub anchor: Vec3,
    /// Stiffness (kcal mol⁻¹ Å⁻²).
    pub k: f64,
    /// Per-axis mask: restrain x/y/z only when the flag is set.
    pub axes: [bool; 3],
}

impl Restraint {
    /// Isotropic restraint on all three axes.
    pub fn harmonic(index: usize, anchor: Vec3, k: f64) -> Self {
        Restraint {
            index,
            anchor,
            k,
            axes: [true; 3],
        }
    }

    /// Add this restraint's force; returns its energy.
    pub fn add_forces(&self, positions: &[Vec3], forces: &mut [Vec3]) -> f64 {
        let d = positions[self.index] - self.anchor;
        let d = Vec3::new(
            if self.axes[0] { d.x } else { 0.0 },
            if self.axes[1] { d.y } else { 0.0 },
            if self.axes[2] { d.z } else { 0.0 },
        );
        forces[self.index] -= d * (2.0 * self.k);
        self.k * d.norm_sq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_restraint_pulls_back() {
        let r = Restraint::harmonic(0, Vec3::zero(), 2.0);
        let pos = [Vec3::new(1.0, -2.0, 0.5)];
        let mut f = [Vec3::zero()];
        let e = r.add_forces(&pos, &mut f);
        assert!((e - 2.0 * (1.0 + 4.0 + 0.25)).abs() < 1e-12);
        assert_eq!(f[0], Vec3::new(-4.0, 8.0, -2.0));
    }

    #[test]
    fn lateral_restraint_leaves_z_free() {
        let r = Restraint {
            index: 0,
            anchor: Vec3::zero(),
            k: 1.0,
            axes: [true, true, false],
        };
        let pos = [Vec3::new(2.0, 0.0, 100.0)];
        let mut f = [Vec3::zero()];
        let e = r.add_forces(&pos, &mut f);
        assert!(
            (e - 4.0).abs() < 1e-12,
            "z displacement must not contribute"
        );
        assert_eq!(f[0].z, 0.0);
        assert_eq!(f[0].x, -4.0);
    }

    #[test]
    fn restraint_at_anchor_is_inert() {
        let r = Restraint::harmonic(1, Vec3::new(1.0, 1.0, 1.0), 10.0);
        let pos = [Vec3::zero(), Vec3::new(1.0, 1.0, 1.0)];
        let mut f = [Vec3::zero(); 2];
        assert_eq!(r.add_forces(&pos, &mut f), 0.0);
        assert_eq!(f[1], Vec3::zero());
    }
}
