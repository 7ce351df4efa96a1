//! Bonded force kernels: harmonic/FENE bonds, harmonic angles, cosine
//! dihedrals. Each kernel adds forces into the accumulators and returns
//! the term's potential energy.
//!
//! Conventions follow CHARMM/NAMD: bond `U = k (r − r0)²`,
//! angle `U = k (θ − θ0)²`, dihedral `U = k (1 + cos(nφ − δ))`.

use crate::detmath::{det_acos, det_atan2, det_sin};
use crate::topology::{Angle, Bond, BondKind, Dihedral};
use crate::vec3::Vec3;

// Each term's force expression is written once, in the `#[inline(always)]`
// helpers below; the scalar kernels here and the lane tiers of
// `md::batch` both call them, so the two paths produce the same bits. The
// helpers are branch-free over lanes (a select, never an early return)
// and libm-free: θ comes from `detmath::det_acos`, φ from `det_atan2` and
// the dihedral's dU/dφ from `det_sin`, so a lane tier runs geometry,
// angle and force in one vectorized loop. Each helper pays one division
// per distinct denominator and multiplies by the reciprocal. The libm
// calls left here (the FENE `ln`, the dihedral energy's `cos`) feed the
// energies only, which the lane tiers never compute.

/// FENE extension cap: from 99 % of R0 on, the bond continues linearly
/// with the force at the cap. Steep enough to restore any transient
/// over-extension, finite enough to stay integrable at production time
/// steps (a hard clamp here is a numerical bomb: one rare over-extension
/// event would kick velocities beyond recovery).
const FENE_X_CAP: f64 = 0.99;

/// FENE force magnitude at the cap, `k · 0.99 R0 / (1 − 0.99²)`.
#[inline(always)]
fn fene_cap_force(b: &Bond) -> f64 {
    b.k * (FENE_X_CAP * b.r0) / (1.0 - FENE_X_CAP * FENE_X_CAP)
}

/// Force on bead `j` of bond `b` (bead `i` takes its negation) at
/// separation `d = p_j − p_i`, `r = |d|`. NaN at `r == 0`, where the
/// direction is undefined and the kernels add nothing.
#[inline(always)]
pub(crate) fn bond_force(b: &Bond, d: Vec3, r: f64) -> Vec3 {
    let dir = d * (1.0 / r);
    let coeff = match b.kind {
        // F_j = -dU/dr · dir = -2k (r - r0) dir
        BondKind::Harmonic => -2.0 * b.k * (r - b.r0),
        BondKind::Fene => {
            let x = r * (1.0 / b.r0);
            if x >= FENE_X_CAP {
                -fene_cap_force(b)
            } else {
                // dU/dr = k r / (1 - x²)
                -b.k * r / (1.0 - x * x)
            }
        }
    };
    dir * coeff
}

/// Accumulate bond forces; returns bond energy (kcal/mol).
pub fn bond_forces(bonds: &[Bond], positions: &[Vec3], forces: &mut [Vec3]) -> f64 {
    let mut energy = 0.0;
    for b in bonds {
        let d = positions[b.j] - positions[b.i];
        let r = d.norm();
        // spice-lint: allow(N002) exact-zero separation guard: coincident beads
        if r == 0.0 {
            // Coincident bonded particles: force direction undefined; skip
            // (energy contribution of harmonic term is k r0², FENE is 0).
            if b.kind == BondKind::Harmonic {
                energy += b.k * b.r0 * b.r0;
            }
            continue;
        }
        energy += match b.kind {
            BondKind::Harmonic => {
                let dr = r - b.r0;
                b.k * dr * dr
            }
            BondKind::Fene => {
                let x = r * (1.0 / b.r0);
                if x >= FENE_X_CAP {
                    let f_cap = fene_cap_force(b);
                    // spice-lint: allow(N003) energy only: the force is the linear cap
                    let e_cap = -0.5 * b.k * b.r0 * b.r0 * (1.0 - FENE_X_CAP * FENE_X_CAP).ln();
                    e_cap + f_cap * (r - FENE_X_CAP * b.r0)
                } else {
                    // spice-lint: allow(N003) energy only: bond_force takes no log
                    -0.5 * b.k * b.r0 * b.r0 * (1.0 - x * x).ln()
                }
            }
        };
        let f = bond_force(b, d, r);
        forces[b.j] += f;
        forces[b.i] -= f;
    }
    energy
}

/// Geometry of one harmonic angle `i–j–k`: the arms from the apex `j`,
/// their lengths and reciprocal lengths, and the clamped cos θ.
#[derive(Clone, Copy)]
pub(crate) struct AngleGeometry {
    rij: Vec3,
    rkj: Vec3,
    nij: f64,
    nkj: f64,
    inv_ij: f64,
    inv_kj: f64,
    /// cos θ, clamped to [-1, 1].
    cos_t: f64,
}

impl AngleGeometry {
    #[inline(always)]
    pub(crate) fn new(pi: Vec3, pj: Vec3, pk: Vec3) -> Self {
        let rij = pi - pj;
        let rkj = pk - pj;
        let (nij, nkj) = (rij.norm(), rkj.norm());
        let (inv_ij, inv_kj) = (1.0 / nij, 1.0 / nkj);
        let cos_t = (rij.dot(rkj) * (inv_ij * inv_kj)).clamp(-1.0, 1.0);
        AngleGeometry {
            rij,
            rkj,
            nij,
            nkj,
            inv_ij,
            inv_kj,
            cos_t,
        }
    }

    /// A zero-length arm: θ is undefined and the kernels add nothing.
    #[inline(always)]
    pub(crate) fn degenerate(&self) -> bool {
        // spice-lint: allow(N002) exact-zero bond-length guard: degenerate angle
        self.nij == 0.0 || self.nkj == 0.0
    }

    /// The bend θ ∈ [0, π].
    #[inline(always)]
    pub(crate) fn theta(&self) -> f64 {
        det_acos(self.cos_t)
    }

    /// Forces on the end beads `i` and `k` of angle `a` at bend `theta`
    /// (see [`theta`](Self::theta)); the apex `j` takes minus their sum.
    #[inline(always)]
    pub(crate) fn forces(&self, a: &Angle, theta: f64) -> (Vec3, Vec3) {
        let (rij, rkj, cos_t) = (self.rij, self.rkj, self.cos_t);
        let (inv_ij, inv_kj) = (self.inv_ij, self.inv_kj);
        let dt = theta - a.theta0;
        // dU/dθ = 2k dθ ; chain rule via standard angle-force expressions.
        let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-8);
        let coeff = 2.0 * a.k * dt / sin_t;
        let inv_ik = inv_ij * inv_kj;
        let fi = (rkj * inv_ik - rij * (cos_t * (inv_ij * inv_ij))) * coeff;
        let fk = (rij * inv_ik - rkj * (cos_t * (inv_kj * inv_kj))) * coeff;
        (fi, fk)
    }
}

/// Accumulate harmonic-angle forces; returns angle energy (kcal/mol).
pub fn angle_forces(angles: &[Angle], positions: &[Vec3], forces: &mut [Vec3]) -> f64 {
    let mut energy = 0.0;
    for a in angles {
        let g = AngleGeometry::new(positions[a.i], positions[a.j], positions[a.k_idx]);
        if g.degenerate() {
            continue;
        }
        let theta = g.theta();
        let dt = theta - a.theta0;
        energy += a.k * dt * dt;
        let (fi, fk) = g.forces(a, theta);
        forces[a.i] += fi;
        forces[a.k_idx] += fk;
        forces[a.j] -= fi + fk;
    }
    energy
}

/// Geometry of one cosine dihedral `i–j–k–l`: the three bond vectors, the
/// two plane normals and their lengths.
#[derive(Clone, Copy)]
pub(crate) struct DihedralGeometry {
    b1: Vec3,
    b2: Vec3,
    b3: Vec3,
    n1: Vec3,
    n2: Vec3,
    n1n: f64,
    n2n: f64,
    b2n: f64,
}

impl DihedralGeometry {
    #[inline(always)]
    pub(crate) fn new(pi: Vec3, pj: Vec3, pk: Vec3, pl: Vec3) -> Self {
        let b1 = pj - pi;
        let b2 = pk - pj;
        let b3 = pl - pk;
        let n1 = b1.cross(b2);
        let n2 = b2.cross(b3);
        DihedralGeometry {
            b1,
            b2,
            b3,
            n1,
            n2,
            n1n: n1.norm(),
            n2n: n2.norm(),
            b2n: b2.norm(),
        }
    }

    /// Collinear beads: φ is undefined and the kernels add nothing.
    #[inline(always)]
    pub(crate) fn degenerate(&self) -> bool {
        self.n1n < 1e-10 || self.n2n < 1e-10 || self.b2n < 1e-10
    }

    /// The torsion φ ∈ [-π, π], from cos φ (clamped to [-1, 1]) and
    /// sin φ.
    #[inline(always)]
    pub(crate) fn phi(&self) -> f64 {
        let (n1, n2) = (self.n1, self.n2);
        let inv_n = 1.0 / (self.n1n * self.n2n);
        let cos_phi = (n1.dot(n2) * inv_n).clamp(-1.0, 1.0);
        let sin_phi = n1.cross(n2).dot(self.b2) * (inv_n / self.b2n);
        det_atan2(sin_phi, cos_phi)
    }

    /// Forces on `i`, `j`, `k`, `l` for `du_dphi` = dU/dφ (see
    /// [`dihedral_du_dphi`]).
    #[inline(always)]
    pub(crate) fn forces(&self, du_dphi: f64) -> [Vec3; 4] {
        let (b1, b2, b3, n1, n2) = (self.b1, self.b2, self.b3, self.n1, self.n2);
        let (n1n, n2n, b2n) = (self.n1n, self.n2n, self.b2n);
        // Standard analytic gradient (see e.g. Allen & Tildesley):
        let fi = n1 * (du_dphi * b2n / (n1n * n1n));
        let fl = n2 * (-du_dphi * b2n / (n2n * n2n));
        let inv_b2n2 = 1.0 / (b2n * b2n);
        let p = b1.dot(b2) * inv_b2n2;
        let q = b3.dot(b2) * inv_b2n2;
        let fj = fi * (-(1.0 + p)) + fl * q;
        let fk = fl * (-(1.0 + q)) + fi * p;
        [fi, fj, fk, fl]
    }
}

/// dU/dφ = -k n sin(nφ - δ) of dihedral `d` at torsion `phi`.
#[inline(always)]
pub(crate) fn dihedral_du_dphi(d: &Dihedral, phi: f64) -> f64 {
    let nf = d.n as f64;
    -d.k * nf * det_sin(nf * phi - d.delta)
}

/// Accumulate cosine-dihedral forces; returns dihedral energy (kcal/mol).
pub fn dihedral_forces(dihedrals: &[Dihedral], positions: &[Vec3], forces: &mut [Vec3]) -> f64 {
    let mut energy = 0.0;
    for d in dihedrals {
        let g = DihedralGeometry::new(
            positions[d.i],
            positions[d.j],
            positions[d.k_idx],
            positions[d.l],
        );
        if g.degenerate() {
            continue; // collinear degenerate geometry
        }
        let phi = g.phi();
        let nf = d.n as f64;
        // spice-lint: allow(N003) energy only: the force takes det_sin
        energy += d.k * (1.0 + (nf * phi - d.delta).cos());
        let [fi, fj, fk, fl] = g.forces(dihedral_du_dphi(d, phi));
        forces[d.i] += fi;
        forces[d.j] += fj;
        forces[d.k_idx] += fk;
        forces[d.l] += fl;
    }
    energy
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn numeric_force<F: Fn(&[Vec3]) -> f64>(energy: F, pos: &[Vec3], i: usize, axis: usize) -> f64 {
        let h = 1e-6;
        let mut p = pos.to_vec();
        let mut m = pos.to_vec();
        match axis {
            0 => {
                p[i].x += h;
                m[i].x -= h;
            }
            1 => {
                p[i].y += h;
                m[i].y -= h;
            }
            _ => {
                p[i].z += h;
                m[i].z -= h;
            }
        }
        -(energy(&p) - energy(&m)) / (2.0 * h)
    }

    #[test]
    fn harmonic_bond_energy_and_force() {
        let mut t = Topology::new();
        t.add_harmonic_bond(0, 1, 1.0, 100.0);
        let pos = [Vec3::zero(), Vec3::new(1.5, 0.0, 0.0)];
        let mut f = [Vec3::zero(); 2];
        let e = bond_forces(t.bonds(), &pos, &mut f);
        assert!((e - 100.0 * 0.25).abs() < 1e-12);
        // F_1 = -2k(r-r0) = -100 along +x (pull back)
        assert!((f[1].x + 100.0).abs() < 1e-9);
        assert!((f[0].x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn harmonic_bond_at_equilibrium_is_forceless() {
        let mut t = Topology::new();
        t.add_harmonic_bond(0, 1, 2.0, 50.0);
        let pos = [Vec3::zero(), Vec3::new(0.0, 2.0, 0.0)];
        let mut f = [Vec3::zero(); 2];
        let e = bond_forces(t.bonds(), &pos, &mut f);
        assert!(e.abs() < 1e-12);
        assert!(f[0].norm() < 1e-12 && f[1].norm() < 1e-12);
    }

    #[test]
    fn fene_diverges_near_max_extension() {
        let mut t = Topology::new();
        t.add_fene_bond(0, 1, 2.0, 10.0);
        let near = [Vec3::zero(), Vec3::new(1.99, 0.0, 0.0)];
        let far = [Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)];
        let mut f_near = [Vec3::zero(); 2];
        let mut f_far = [Vec3::zero(); 2];
        bond_forces(t.bonds(), &near, &mut f_near);
        bond_forces(t.bonds(), &far, &mut f_far);
        assert!(
            f_near[1].x.abs() > 20.0 * f_far[1].x.abs(),
            "FENE force must stiffen near R0: {} vs {}",
            f_near[1].x,
            f_far[1].x
        );
    }

    #[test]
    fn fene_beyond_max_extension_clamped_finite() {
        let mut t = Topology::new();
        t.add_fene_bond(0, 1, 2.0, 10.0);
        let pos = [Vec3::zero(), Vec3::new(2.5, 0.0, 0.0)];
        let mut f = [Vec3::zero(); 2];
        let e = bond_forces(t.bonds(), &pos, &mut f);
        assert!(e.is_finite());
        assert!(f[1].is_finite());
        assert!(f[1].x < 0.0, "restoring force points back");
    }

    #[test]
    fn bond_force_matches_numeric_gradient() {
        let mut t = Topology::new();
        t.add_harmonic_bond(0, 1, 1.3, 42.0);
        t.add_fene_bond(1, 2, 3.0, 7.0);
        let pos = [
            Vec3::new(0.1, 0.2, -0.1),
            Vec3::new(1.4, -0.3, 0.5),
            Vec3::new(2.0, 0.7, 0.2),
        ];
        let bonds = t.bonds().to_vec();
        let energy = |p: &[Vec3]| {
            let mut f = vec![Vec3::zero(); p.len()];
            bond_forces(&bonds, p, &mut f)
        };
        let mut f = vec![Vec3::zero(); 3];
        bond_forces(&bonds, &pos, &mut f);
        for i in 0..3 {
            for ax in 0..3 {
                let num = numeric_force(energy, &pos, i, ax);
                let ana = [f[i].x, f[i].y, f[i].z][ax];
                assert!(
                    (num - ana).abs() < 1e-5 * (1.0 + ana.abs()),
                    "i={i} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn angle_force_matches_numeric_gradient() {
        let mut t = Topology::new();
        t.add_angle(0, 1, 2, 1.8, 12.0);
        let pos = [
            Vec3::new(1.0, 0.3, 0.0),
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(-0.4, 1.1, -0.2),
        ];
        let angles = t.angles().to_vec();
        let energy = |p: &[Vec3]| {
            let mut f = vec![Vec3::zero(); p.len()];
            angle_forces(&angles, p, &mut f)
        };
        let mut f = vec![Vec3::zero(); 3];
        angle_forces(&angles, &pos, &mut f);
        for i in 0..3 {
            for ax in 0..3 {
                let num = numeric_force(energy, &pos, i, ax);
                let ana = [f[i].x, f[i].y, f[i].z][ax];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + ana.abs()),
                    "i={i} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn angle_forces_conserve_momentum() {
        let mut t = Topology::new();
        t.add_angle(0, 1, 2, 2.1, 9.0);
        let pos = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::zero(),
            Vec3::new(0.2, 1.3, 0.4),
        ];
        let mut f = vec![Vec3::zero(); 3];
        angle_forces(t.angles(), &pos, &mut f);
        let net: Vec3 = f.iter().copied().sum();
        assert!(net.norm() < 1e-10);
    }

    #[test]
    fn dihedral_force_matches_numeric_gradient() {
        let mut t = Topology::new();
        t.add_dihedral(0, 1, 2, 3, 3, 0.7, 2.5);
        let pos = [
            Vec3::new(0.0, 1.0, 0.2),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.1),
            Vec3::new(1.3, 0.9, -0.6),
        ];
        let dihedrals = t.dihedrals().to_vec();
        let energy = |p: &[Vec3]| {
            let mut f = vec![Vec3::zero(); p.len()];
            dihedral_forces(&dihedrals, p, &mut f)
        };
        let mut f = vec![Vec3::zero(); 4];
        dihedral_forces(&dihedrals, &pos, &mut f);
        for i in 0..4 {
            for ax in 0..3 {
                let num = numeric_force(energy, &pos, i, ax);
                let ana = [f[i].x, f[i].y, f[i].z][ax];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + ana.abs()),
                    "i={i} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn dihedral_energy_bounds() {
        // U = k (1 + cos(...)) ∈ [0, 2k].
        let mut t = Topology::new();
        t.add_dihedral(0, 1, 2, 3, 1, 0.0, 3.0);
        for step in 0..20 {
            let a = step as f64 * 0.3;
            let pos = [
                Vec3::new(a.cos(), a.sin(), 0.0),
                Vec3::zero(),
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(0.8, -0.3, 1.0),
            ];
            let mut f = vec![Vec3::zero(); 4];
            let e = dihedral_forces(t.dihedrals(), &pos, &mut f);
            assert!((0.0..=6.0 + 1e-9).contains(&e), "energy {e} out of bounds");
        }
    }

    #[test]
    fn degenerate_geometries_do_not_panic() {
        let mut t = Topology::new();
        t.add_harmonic_bond(0, 1, 1.0, 10.0);
        t.add_angle(0, 1, 2, 1.0, 5.0);
        t.add_dihedral(0, 1, 2, 3, 1, 0.0, 1.0);
        // Everything coincident / collinear.
        let pos = [Vec3::zero(), Vec3::zero(), Vec3::zero(), Vec3::zero()];
        let mut f = vec![Vec3::zero(); 4];
        let eb = bond_forces(t.bonds(), &pos, &mut f);
        let ea = angle_forces(t.angles(), &pos, &mut f);
        let ed = dihedral_forces(t.dihedrals(), &pos, &mut f);
        assert!(eb.is_finite() && ea.is_finite() && ed.is_finite());
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
