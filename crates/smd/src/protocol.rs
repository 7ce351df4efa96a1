//! Pulling protocols in the paper's units.
//!
//! §IV sweeps κ ∈ {10, 100, 1000} pN/Å and v ∈ {12.5, 25, 50, 100} Å/ns
//! over a 10 Å sub-trajectory near the pore center. A protocol captures
//! one (κ, v) cell of that sweep plus the integration settings.

use serde::{Deserialize, Serialize};
use spice_md::units;

/// One constant-velocity pulling protocol.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct PullProtocol {
    /// Spring constant in the paper's units (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Pulling velocity in the paper's units (Å/ns). Positive pulls
    /// toward +z.
    pub v_a_per_ns: f64,
    /// Total guide displacement (Å) — the paper's 10 Å sub-trajectory.
    pub pull_distance: f64,
    /// MD time step (ps).
    pub dt_ps: f64,
    /// Equilibration steps before the guide starts moving (spring held
    /// static at the start position).
    pub equilibration_steps: u64,
    /// Record a work sample every this many steps.
    pub sample_stride: u64,
}

impl Default for PullProtocol {
    fn default() -> Self {
        Self::paper_optimal()
    }
}

impl PullProtocol {
    /// The paper's optimal parameters: κ = 100 pN/Å, v = 12.5 Å/ns
    /// (§IV conclusion).
    pub fn paper_optimal() -> Self {
        PullProtocol {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: 12.5,
            pull_distance: 10.0,
            dt_ps: 0.02,
            equilibration_steps: 2_000,
            sample_stride: 25,
        }
    }

    /// The paper's κ grid (pN/Å).
    pub const KAPPA_GRID: [f64; 3] = [10.0, 100.0, 1000.0];

    /// The paper's v grid (Å/ns).
    pub const V_GRID: [f64; 4] = [12.5, 25.0, 50.0, 100.0];

    /// Spring constant in engine units (kcal mol⁻¹ Å⁻²).
    pub fn kappa(&self) -> f64 {
        units::spring_pn_per_a_to_kcal(self.kappa_pn_per_a)
    }

    /// Velocity in engine units (Å/ps).
    pub fn velocity(&self) -> f64 {
        units::velocity_a_per_ns_to_a_per_ps(self.v_a_per_ns)
    }

    /// Number of pulling steps to cover `pull_distance`.
    pub fn pull_steps(&self) -> u64 {
        (self.pull_distance / (self.velocity().abs() * self.dt_ps)).ceil() as u64
    }

    /// Basic sanity checks.
    ///
    /// # Panics
    /// Panics on non-physical settings.
    pub fn validate(&self) {
        assert!(self.kappa_pn_per_a > 0.0, "κ must be positive");
        // spice-lint: allow(N002) exact zero is precisely the invalid velocity being rejected
        assert!(self.v_a_per_ns != 0.0, "pulling velocity must be non-zero");
        assert!(self.pull_distance > 0.0, "pull distance must be positive");
        assert!(self.dt_ps > 0.0, "dt must be positive");
        assert!(self.sample_stride > 0, "sample stride must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_matches_section_iv() {
        let p = PullProtocol::paper_optimal();
        assert_eq!(p.kappa_pn_per_a, 100.0);
        assert_eq!(p.v_a_per_ns, 12.5);
        assert_eq!(p.pull_distance, 10.0);
    }

    #[test]
    fn unit_conversions() {
        let p = PullProtocol::paper_optimal();
        assert!((p.kappa() - 100.0 / 69.477).abs() < 1e-9);
        assert!((p.velocity() - 0.0125).abs() < 1e-15);
    }

    #[test]
    fn pull_steps_cover_distance() {
        let p = PullProtocol::paper_optimal();
        // 10 Å at 0.0125 Å/ps with dt = 0.02 ps → 40 000 steps.
        assert_eq!(p.pull_steps(), 40_000);
    }

    #[test]
    fn grids_match_figure_4() {
        assert_eq!(PullProtocol::KAPPA_GRID, [10.0, 100.0, 1000.0]);
        assert_eq!(PullProtocol::V_GRID, [12.5, 25.0, 50.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "velocity must be non-zero")]
    fn zero_velocity_rejected() {
        let p = PullProtocol {
            v_a_per_ns: 0.0,
            ..PullProtocol::paper_optimal()
        };
        p.validate();
    }
}
