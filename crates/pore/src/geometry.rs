//! The axisymmetric α-hemolysin pore geometry.
//!
//! Crystallographic anatomy (Song et al. 1996), coarse-grained into a
//! smooth radius profile r(z) along the channel axis:
//!
//! ```text
//!        z (Å)
//!   100 ┤   ╭───────╮      cap mouth (cis), r ≈ 22
//!        │  vestibule       narrowing to r ≈ 10
//!    55 ┤    ╰─╮ ╭─╯       constriction, r ≈ 4.5  (E111/K147 ring)
//!    50 ┤     │   │
//!        │    β-barrel      r ≈ 8, through the membrane
//!     0 ┤     ╰───╯         trans exit
//! ```
//!
//! The heptamer's seven-fold symmetry shows up as a small azimuthal and
//! axial corrugation of the wall; the axial component is what matters for
//! the PMF along z (it produces the periodic structure a translocating
//! strand feels), so we model it as a cosine ripple on r(z).

use serde::{Deserialize, Serialize};
use spice_md::detmath::det_sincos2pi;

/// Smoothstep of `t` (clamped to [0, 1]) and its derivative.
#[inline(always)]
pub(crate) fn smoothstep(t: f64) -> (f64, f64) {
    let t = t.clamp(0.0, 1.0);
    (t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t))
}

/// Geometric description of the pore. All lengths in Å.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PoreGeometry {
    /// z of the trans (lower) end of the β-barrel.
    pub barrel_lo: f64,
    /// z of the top of the β-barrel = bottom of the constriction.
    pub barrel_hi: f64,
    /// z of the top of the constriction = bottom of the vestibule.
    pub constriction_hi: f64,
    /// z of the cap mouth (cis opening).
    pub cap_hi: f64,
    /// β-barrel lumen radius.
    pub barrel_radius: f64,
    /// Constriction lumen radius (the narrowest point).
    pub constriction_radius: f64,
    /// Vestibule radius just above the constriction.
    pub vestibule_radius: f64,
    /// Radius at the cap mouth.
    pub mouth_radius: f64,
    /// Amplitude of the axial wall corrugation (Å).
    pub corrugation_amplitude: f64,
    /// Axial period of the corrugation (Å) — one β-strand rise per
    /// heptamer repeat.
    pub corrugation_period: f64,
}

impl Default for PoreGeometry {
    fn default() -> Self {
        Self::alpha_hemolysin()
    }
}

impl PoreGeometry {
    /// The default α-hemolysin-like geometry used throughout SPICE.
    pub fn alpha_hemolysin() -> Self {
        PoreGeometry {
            barrel_lo: 0.0,
            barrel_hi: 50.0,
            constriction_hi: 56.0,
            cap_hi: 100.0,
            barrel_radius: 8.0,
            constriction_radius: 4.5,
            vestibule_radius: 14.0,
            mouth_radius: 22.0,
            corrugation_amplitude: 0.8,
            corrugation_period: 10.0,
        }
    }

    /// True for `z` inside the pore, `barrel_lo ≤ z ≤ cap_hi`.
    #[inline(always)]
    fn in_pore(&self, z: f64) -> bool {
        (z >= self.barrel_lo) & (z <= self.cap_hi)
    }

    /// The uncorrugated profile and its z-derivative, for `z` inside the
    /// pore. Three smoothstep blends (barrel → constriction →
    /// vestibule → mouth) cover it; the flat barrel is the first blend
    /// clamped at t = 0. The blend is picked by selects, not branches, so
    /// the profile vectorizes inside a replica-lane sweep.
    #[inline(always)]
    fn smooth_profile(&self, z: f64) -> (f64, f64) {
        // Blend half-widths for the constriction transitions.
        let w = 3.0;
        let mid = self.barrel_hi + (self.constriction_hi - self.barrel_hi) * 0.5;
        // Each blend's 1/width depends on the geometry alone: the select
        // picks one of three reciprocals hoisted out of a lane sweep.
        let (z0, inv_width, r0, r1) = if z <= mid {
            (
                self.barrel_hi - w,
                1.0 / w,
                self.barrel_radius,
                self.constriction_radius,
            )
        } else if z <= self.constriction_hi + w {
            (
                mid,
                1.0 / (self.constriction_hi + w - mid),
                self.constriction_radius,
                self.vestibule_radius,
            )
        } else {
            (
                self.constriction_hi + w,
                1.0 / (self.cap_hi - self.constriction_hi - w),
                self.vestibule_radius,
                self.mouth_radius,
            )
        };
        let (t, dt) = smoothstep((z - z0) * inv_width);
        (r0 + t * (r1 - r0), dt * inv_width * (r1 - r0))
    }

    /// Lumen radius at height `z`, *without* corrugation. Outside the pore
    /// (z < barrel_lo or z > cap_hi) the profile opens to bulk: returns
    /// `f64::INFINITY`.
    pub fn smooth_radius(&self, z: f64) -> f64 {
        let r = self.smooth_profile(z).0;
        if self.in_pore(z) {
            r
        } else {
            f64::INFINITY
        }
    }

    /// Lumen radius at height `z` including the seven-fold corrugation,
    /// and its analytic z-derivative — the pair the wall force needs, from
    /// one evaluation. Outside the pore the radius is `f64::INFINITY` and
    /// the derivative 0. Branch-free and libm-free (the ripple's cosine
    /// and sine come from `spice_md::detmath`), so it vectorizes inside a
    /// replica-lane sweep.
    #[inline(always)]
    pub fn radius_and_gradient(&self, z: f64) -> (f64, f64) {
        let (r, dr) = self.smooth_profile(z);
        let inv_period = 1.0 / self.corrugation_period;
        let (sin, cos) = det_sincos2pi(z * inv_period);
        let ripple = self.corrugation_amplitude * cos;
        let d_ripple =
            -self.corrugation_amplitude * (2.0 * std::f64::consts::PI * inv_period) * sin;
        // Never let the ripple close the constriction entirely; where the
        // floor holds the radius, it is flat.
        let floor = self.constriction_radius * 0.5;
        let open = r + ripple > floor;
        let radius = if open { r + ripple } else { floor };
        let gradient = if open { dr + d_ripple } else { 0.0 };
        let inside = self.in_pore(z);
        (
            if inside { radius } else { f64::INFINITY },
            if inside { gradient } else { 0.0 },
        )
    }

    /// Lumen radius at height `z` including the seven-fold corrugation.
    #[inline(always)]
    pub fn radius(&self, z: f64) -> f64 {
        self.radius_and_gradient(z).0
    }

    /// z of the narrowest lumen point (scan at 0.1 Å resolution).
    pub fn constriction_z(&self) -> f64 {
        let mut best_z = self.barrel_lo;
        let mut best_r = f64::INFINITY;
        let mut z = self.barrel_lo;
        while z <= self.cap_hi {
            let r = self.smooth_radius(z);
            if r < best_r {
                best_r = r;
                best_z = z;
            }
            z += 0.1;
        }
        best_z
    }

    /// Total pore length (Å).
    pub fn length(&self) -> f64 {
        self.cap_hi - self.barrel_lo
    }

    /// True when `z` lies within the membrane-spanning β-barrel section.
    #[inline(always)]
    pub fn in_membrane_span(&self, z: f64) -> bool {
        (z >= self.barrel_lo) & (z <= self.barrel_hi)
    }

    /// Tabulate (z, radius) at the given axial resolution — the Fig. 1
    /// structural summary.
    pub fn radius_profile(&self, dz: f64) -> Vec<(f64, f64)> {
        assert!(dz > 0.0);
        let mut out = Vec::new();
        let mut z = self.barrel_lo;
        while z <= self.cap_hi {
            out.push((z, self.radius(z)));
            z += dz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrel_is_uniform_away_from_constriction() {
        let g = PoreGeometry::alpha_hemolysin();
        assert_eq!(g.smooth_radius(10.0), g.barrel_radius);
        assert_eq!(g.smooth_radius(30.0), g.barrel_radius);
    }

    #[test]
    fn constriction_is_narrowest() {
        let g = PoreGeometry::alpha_hemolysin();
        let zc = g.constriction_z();
        assert!(
            zc > g.barrel_hi - 5.0 && zc < g.constriction_hi + 1.0,
            "constriction at {zc} should sit near the barrel/vestibule junction"
        );
        let rc = g.smooth_radius(zc);
        assert!((rc - g.constriction_radius).abs() < 0.5);
        for z in [5.0, 25.0, 45.0, 70.0, 90.0] {
            assert!(g.smooth_radius(z) >= rc, "z={z} narrower than constriction");
        }
    }

    #[test]
    fn mouth_is_widest_inside_pore() {
        let g = PoreGeometry::alpha_hemolysin();
        let r_mouth = g.smooth_radius(g.cap_hi - 1e-9);
        assert!((r_mouth - g.mouth_radius).abs() < 0.5);
    }

    #[test]
    fn outside_pore_is_bulk() {
        let g = PoreGeometry::alpha_hemolysin();
        assert!(!g.smooth_radius(-1.0).is_finite());
        assert!(!g.smooth_radius(101.0).is_finite());
        assert_eq!(g.radius_and_gradient(-5.0).1, 0.0);
    }

    #[test]
    fn profile_is_continuous() {
        let g = PoreGeometry::alpha_hemolysin();
        let prof = g.radius_profile(0.05);
        for w in prof.windows(2) {
            let dr = (w[1].1 - w[0].1).abs();
            assert!(
                dr < 0.25,
                "radius jump {dr} between z={} and z={}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn corrugation_modulates_barrel() {
        let g = PoreGeometry::alpha_hemolysin();
        let radii: Vec<f64> = (0..100).map(|i| g.radius(5.0 + i as f64 * 0.4)).collect();
        let min = radii.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = radii.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > g.corrugation_amplitude,
            "corrugation should modulate the wall: range {}",
            max - min
        );
    }

    #[test]
    fn corrugation_never_closes_pore() {
        let g = PoreGeometry::alpha_hemolysin();
        for (_, r) in g.radius_profile(0.05) {
            assert!(r >= g.constriction_radius * 0.5);
        }
    }

    #[test]
    fn membrane_span() {
        let g = PoreGeometry::alpha_hemolysin();
        assert!(g.in_membrane_span(25.0));
        assert!(!g.in_membrane_span(75.0));
        assert!((g.length() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_profile() {
        let g = PoreGeometry::alpha_hemolysin();
        for z in [10.0, 51.0, 54.0, 60.0, 80.0] {
            let h = 1e-3;
            let num = (g.radius(z + h) - g.radius(z - h)) / (2.0 * h);
            let ana = g.radius_and_gradient(z).1;
            assert!((num - ana).abs() < 0.05, "z={z}: {num} vs {ana}");
        }
    }
}
