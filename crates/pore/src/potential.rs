//! External potentials derived from the pore geometry.
//!
//! Three one-body terms build the environment the DNA translocates
//! through:
//!
//! * [`PoreWall`] — harmonic confinement to the lumen, `U = k_w (ρ −
//!   (r(z) − a))²` when a bead of radius `a` overlaps the wall. Because
//!   r(z) varies with z (constriction, corrugation), the wall exerts both
//!   radial and axial forces — the axial component is what makes the PMF
//!   along z non-trivial.
//! * [`ConstrictionRing`] — the charged residue ring (E111/K147 in
//!   hemolysin) modeled as a uniformly charged circle interacting with
//!   bead charges through Debye–Hückel screening; gives the PMF its
//!   electrostatic barrier/well at the constriction.
//! * [`MembraneSlab`] — excludes beads from the lipid region outside the
//!   barrel.
//!
//! Every `energy_force` here is `#[inline(always)]`, branch-free (an
//! inactive term selects exact zeros instead of returning early) and
//! libm-free (`spice_md::detmath`), so the batched engine sweeps it across
//! replica lanes as one vectorized loop while the scalar path calls the
//! same function. Each pays one division per distinct per-bead
//! denominator and multiplies by the reciprocal; reciprocals of the
//! term's own parameters (`1.0 / self.ramp`) are written inline, and
//! LLVM hoists them out of the lane loop.

use crate::geometry::{smoothstep, PoreGeometry};
use spice_md::detmath::{det_exp, det_sincos2pi};
use spice_md::forces::nonbonded::COULOMB_KCAL;
use spice_md::forces::ExternalPotential;
use spice_md::system::SpeciesId;
use spice_md::Vec3;

/// Species id for DNA beads (the builder assigns it).
pub const SPECIES_DNA: SpeciesId = 1;

/// Harmonic confinement of beads to the pore lumen.
#[derive(Debug, Clone)]
pub struct PoreWall {
    geometry: PoreGeometry,
    /// Wall stiffness (kcal mol⁻¹ Å⁻²).
    pub k_wall: f64,
    /// Effective bead radius (Å): beads feel the wall at ρ = r(z) − a.
    pub bead_radius: f64,
}

impl PoreWall {
    /// Wall potential over `geometry` with stiffness `k_wall` for beads of
    /// radius `bead_radius`.
    pub fn new(geometry: PoreGeometry, k_wall: f64, bead_radius: f64) -> Self {
        assert!(k_wall > 0.0 && bead_radius >= 0.0);
        PoreWall {
            geometry,
            k_wall,
            bead_radius,
        }
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &PoreGeometry {
        &self.geometry
    }
}

impl ExternalPotential for PoreWall {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        // Outside the pore r(z) = ∞, so `rho > allowed` fails there too.
        let (r_lumen, dr_dz) = self.geometry.radius_and_gradient(p.z);
        let allowed = (r_lumen - self.bead_radius).max(0.1);
        let rho = p.rho();
        let d = rho - allowed;
        let e = self.k_wall * d * d;
        // ∂U/∂ρ = 2 k d ;  ∂U/∂z = -2 k d · d(allowed)/dz = -2 k d r'(z)
        let inv_rho = 1.0 / rho;
        let f_rho = -2.0 * self.k_wall * d;
        let f_z = 2.0 * self.k_wall * d * dr_dz;
        let on = rho > allowed;
        (
            if on { e } else { 0.0 },
            Vec3::new(
                if on { f_rho * p.x * inv_rho } else { 0.0 },
                if on { f_rho * p.y * inv_rho } else { 0.0 },
                if on { f_z } else { 0.0 },
            ),
        )
    }

    fn name(&self) -> &str {
        "pore-wall"
    }
}

/// A charged ring at the constriction, screened Debye–Hückel.
///
/// The potential of a uniformly charged ring of radius R at height z₀ is
/// approximated by the screened interaction with the *closest point* of
/// the ring; at lumen scales (ρ < R, |z − z₀| small) the closest-point
/// distance `d = √((R − ρ)² + (z − z₀)²)` dominates the screened sum, so
/// the approximation preserves barrier location and scale.
#[derive(Debug, Clone, Copy)]
pub struct ConstrictionRing {
    /// Ring radius (Å).
    pub radius: f64,
    /// Ring height z₀ (Å).
    pub z0: f64,
    /// Total ring charge (e).
    pub charge: f64,
    /// Debye screening length (Å).
    pub lambda: f64,
    /// Relative dielectric constant.
    pub epsilon_r: f64,
    /// Charge (e) assigned to each bead of [`SPECIES_DNA`]; other species
    /// are unaffected. (The builder passes the bead charge explicitly so
    /// the ring does not need system charge arrays.)
    pub bead_charge: f64,
    /// Short-distance regularization (Å) to avoid the 1/d singularity.
    pub softening: f64,
}

impl ExternalPotential for ConstrictionRing {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, species: SpeciesId) -> (f64, Vec3) {
        // spice-lint: allow(N002) exact-zero charge is the "electrostatics disabled" sentinel
        let on = (species == SPECIES_DNA) & (self.bead_charge != 0.0);
        let rho = p.rho();
        let dr = self.radius - rho;
        let dz = p.z - self.z0;
        let d2 = dr * dr + dz * dz + self.softening * self.softening;
        let d = d2.sqrt();
        // One division per distinct denominator: 1/d here, 1/ρ below; the
        // prefactor and 1/λ are loop-invariant.
        let inv_d = 1.0 / d;
        let inv_lambda = 1.0 / self.lambda;
        let pref = COULOMB_KCAL * self.charge * self.bead_charge / self.epsilon_r;
        // det_exp, not libm exp: bit-reproducible and vectorizable.
        let screen = det_exp(-d * inv_lambda);
        let e = pref * screen * inv_d;
        // dU/dd = -pref·screen (1/d² + 1/(λ d))
        let du_dd = -pref * screen * (inv_d * (inv_d + inv_lambda));
        // d(d)/dρ = -dr/d ; d(d)/dz = dz/d
        let du_drho = du_dd * (-dr * inv_d);
        let du_dz = du_dd * (dz * inv_d);
        let inv_rho = if rho > 1e-9 { 1.0 / rho } else { 0.0 };
        (
            if on { e } else { 0.0 },
            Vec3::new(
                if on { -du_drho * p.x * inv_rho } else { 0.0 },
                if on { -du_drho * p.y * inv_rho } else { 0.0 },
                if on { -du_dz } else { 0.0 },
            ),
        )
    }

    fn name(&self) -> &str {
        "constriction-ring"
    }
}

/// Base-scale axial corrugation of the pore interior.
///
/// The hemolysin β-barrel presents the translocating strand with
/// nucleotide-scale (a few Å) energetic features — side-chain ridges and
/// binding sub-sites. A pulling spring of stiffness κ lets the strand
/// coordinate fluctuate by σ = √(kT/κ); springs softer than the feature
/// scale (the paper's κ = 10 pN/Å → σ ≈ 2 Å) thermally smear these
/// features out of the measured PMF, which is precisely §IV-B's "large
/// variation in the space sampled" failure mode.
///
/// `U(z) = A · env(z) · sin(2π z / p)` for DNA beads inside the barrel,
/// with a smoothstep envelope at both ends.
#[derive(Debug, Clone, Copy)]
pub struct AxialCorrugation {
    /// Feature amplitude per bead (kcal/mol).
    pub amplitude: f64,
    /// Axial period (Å) — nucleotide-scale.
    pub period: f64,
    /// Corrugated region start (Å).
    pub z_lo: f64,
    /// Corrugated region end (Å).
    pub z_hi: f64,
    /// Envelope ramp width (Å).
    pub ramp: f64,
}

impl AxialCorrugation {
    /// Envelope and its z-derivative: the product of a smoothstep rising
    /// over [z_lo, z_lo+ramp] and one falling over [z_hi-ramp, z_hi]. Each
    /// factor is clamped flat outside its ramp, so the product is 0
    /// outside [z_lo, z_hi] and 1 on the plateau without a branch.
    #[inline(always)]
    fn envelope(&self, z: f64) -> (f64, f64) {
        let inv_ramp = 1.0 / self.ramp;
        let (up, d_up) = smoothstep((z - self.z_lo) * inv_ramp);
        let (down, d_down) = smoothstep((self.z_hi - z) * inv_ramp);
        (up * down, (d_up * down - up * d_down) * inv_ramp)
    }
}

impl ExternalPotential for AxialCorrugation {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, species: SpeciesId) -> (f64, Vec3) {
        let (env, denv) = self.envelope(p.z);
        let inv_period = 1.0 / self.period;
        let (s, c) = det_sincos2pi(p.z * inv_period);
        let w = 2.0 * std::f64::consts::PI * inv_period;
        let e = self.amplitude * env * s;
        let du_dz = self.amplitude * (denv * s + env * w * c);
        // Outside the envelope e and du_dz are exact zeros already.
        let on = species == SPECIES_DNA;
        (
            if on { e } else { 0.0 },
            Vec3::new(0.0, 0.0, if on { -du_dz } else { 0.0 }),
        )
    }

    fn name(&self) -> &str {
        "axial-corrugation"
    }
}

/// Lipid-bilayer exclusion: beads may not occupy the membrane slab outside
/// the pore lumen.
#[derive(Debug, Clone)]
pub struct MembraneSlab {
    geometry: PoreGeometry,
    /// Exclusion stiffness (kcal mol⁻¹ Å⁻²).
    pub k: f64,
}

impl MembraneSlab {
    /// Membrane exclusion over the barrel span of `geometry`.
    pub fn new(geometry: PoreGeometry, k: f64) -> Self {
        assert!(k > 0.0);
        MembraneSlab { geometry, k }
    }
}

impl ExternalPotential for MembraneSlab {
    #[inline(always)]
    fn energy_force(&self, p: Vec3, _species: SpeciesId) -> (f64, Vec3) {
        let r_lumen = self.geometry.radius(p.z);
        let rho = p.rho();
        // Outside the lumen wall but inside the membrane: push back down/up
        // along z to the nearest face AND inward. We implement the z-face
        // penalty (dominant for beads wandering over the lipid headgroups).
        let on = self.geometry.in_membrane_span(p.z) & (rho > r_lumen + 2.0);
        // Penetration depth from the nearest membrane face; U = k d²
        // ejects the bead through that face.
        let d_lo = p.z - self.geometry.barrel_lo;
        let d_hi = self.geometry.barrel_hi - p.z;
        let (d, out_dir) = if d_lo < d_hi {
            (d_lo, -1.0)
        } else {
            (d_hi, 1.0)
        };
        let e = self.k * d * d;
        (
            if on { e } else { 0.0 },
            Vec3::new(0.0, 0.0, if on { 2.0 * self.k * d * out_dir } else { 0.0 }),
        )
    }

    fn name(&self) -> &str {
        "membrane-slab"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> PoreGeometry {
        PoreGeometry::alpha_hemolysin()
    }

    #[test]
    fn wall_inert_on_axis() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        let (e, f) = w.energy_force(Vec3::new(0.0, 0.0, 25.0), SPECIES_DNA);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn wall_pushes_back_radially() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        // Barrel radius ~8, bead radius 3 → allowed ~5 (±corrugation).
        let (e, f) = w.energy_force(Vec3::new(7.5, 0.0, 25.0), SPECIES_DNA);
        assert!(e > 0.0);
        assert!(f.x < 0.0, "radial restoring force");
    }

    #[test]
    fn wall_inert_in_bulk() {
        let w = PoreWall::new(geom(), 10.0, 3.0);
        let (e, f) = w.energy_force(Vec3::new(50.0, 0.0, 120.0), SPECIES_DNA);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn wall_force_matches_numeric_gradient() {
        let w = PoreWall::new(geom(), 5.0, 3.0);
        let h = 1e-6;
        // Point pressed into the wall inside the constriction region.
        for p in [
            Vec3::new(2.5, 0.5, 53.0),
            Vec3::new(6.0, 1.0, 25.0),
            Vec3::new(0.0, 12.0, 75.0),
        ] {
            let (_, f) = w.energy_force(p, SPECIES_DNA);
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
                let num = -(w.energy_force(pp, SPECIES_DNA).0 - w.energy_force(pm, SPECIES_DNA).0)
                    / (2.0 * h);
                let ana = [f.x, f.y, f.z][ax];
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                    "p={p:?} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn constriction_creates_axial_barrier_for_like_charge() {
        // Negative ring, negative DNA: energy peaks at the ring height.
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let e_at = ring.energy_force(Vec3::new(0.0, 0.0, 53.0), SPECIES_DNA).0;
        let e_away = ring.energy_force(Vec3::new(0.0, 0.0, 70.0), SPECIES_DNA).0;
        assert!(e_at > 0.0, "like charges repel: {e_at}");
        assert!(
            e_at > 10.0 * e_away.abs().max(1e-6),
            "barrier localized: {e_at} vs {e_away}"
        );
    }

    #[test]
    fn ring_ignores_non_dna_species() {
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let (e, f) = ring.energy_force(Vec3::new(0.0, 0.0, 53.0), 0);
        assert_eq!(e, 0.0);
        assert_eq!(f, Vec3::zero());
    }

    #[test]
    fn ring_force_matches_numeric_gradient() {
        let ring = ConstrictionRing {
            radius: 4.5,
            z0: 53.0,
            charge: -7.0,
            lambda: 3.0,
            epsilon_r: 80.0,
            bead_charge: -1.0,
            softening: 1.0,
        };
        let h = 1e-6;
        for p in [Vec3::new(1.0, 0.7, 52.0), Vec3::new(2.0, -1.0, 55.0)] {
            let (_, f) = ring.energy_force(p, SPECIES_DNA);
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
                let num = -(ring.energy_force(pp, SPECIES_DNA).0
                    - ring.energy_force(pm, SPECIES_DNA).0)
                    / (2.0 * h);
                let ana = [f.x, f.y, f.z][ax];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + ana.abs()),
                    "p={p:?} ax={ax}: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn corrugation_periodic_inside_region() {
        let c = AxialCorrugation {
            amplitude: 2.0,
            period: 6.0,
            z_lo: 10.0,
            z_hi: 50.0,
            ramp: 3.0,
        };
        // Inside the plateau, |U| reaches the amplitude.
        let peak = (0..200)
            .map(|i| {
                c.energy_force(Vec3::new(0.0, 0.0, 20.0 + i as f64 * 0.1), SPECIES_DNA)
                    .0
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((peak - 2.0).abs() < 0.05, "peak {peak}");
        // Outside: inert.
        assert_eq!(
            c.energy_force(Vec3::new(0.0, 0.0, 60.0), SPECIES_DNA).0,
            0.0
        );
        assert_eq!(c.energy_force(Vec3::new(0.0, 0.0, 20.0), 0).0, 0.0);
    }

    #[test]
    fn corrugation_force_matches_numeric_gradient() {
        let c = AxialCorrugation {
            amplitude: 2.0,
            period: 6.0,
            z_lo: 10.0,
            z_hi: 50.0,
            ramp: 3.0,
        };
        let h = 1e-6;
        for z in [11.0, 12.5, 25.0, 47.7, 49.5] {
            let p = Vec3::new(0.3, -0.2, z);
            let (_, f) = c.energy_force(p, SPECIES_DNA);
            let ep = c.energy_force(Vec3::new(0.3, -0.2, z + h), SPECIES_DNA).0;
            let em = c.energy_force(Vec3::new(0.3, -0.2, z - h), SPECIES_DNA).0;
            let num = -(ep - em) / (2.0 * h);
            assert!(
                (num - f.z).abs() < 1e-4 * (1.0 + f.z.abs()),
                "z={z}: {num} vs {}",
                f.z
            );
        }
    }

    #[test]
    fn membrane_inert_inside_lumen_and_outside_span() {
        let m = MembraneSlab::new(geom(), 20.0);
        assert_eq!(
            m.energy_force(Vec3::new(0.0, 0.0, 25.0), SPECIES_DNA).0,
            0.0
        );
        assert_eq!(
            m.energy_force(Vec3::new(50.0, 0.0, 75.0), SPECIES_DNA).0,
            0.0
        );
    }

    #[test]
    fn membrane_penalizes_lipid_region() {
        let m = MembraneSlab::new(geom(), 20.0);
        let (e, _) = m.energy_force(Vec3::new(30.0, 0.0, 25.0), SPECIES_DNA);
        assert!(e > 0.0, "bead in lipid must be penalized");
    }
}
