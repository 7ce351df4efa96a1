//! Implicit electrolyte solvent.
//!
//! Hemolysin translocation experiments run in ~1 M KCl at room
//! temperature; at coarse-grained resolution the solvent enters through
//! three numbers: Langevin friction (viscous drag), the Debye screening
//! length (electrostatics) and the dielectric constant.

use serde::{Deserialize, Serialize};
use spice_md::integrate::LangevinBaoab;

/// Implicit-solvent parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct Solvent {
    /// Temperature (K).
    pub temperature: f64,
    /// Langevin friction γ (ps⁻¹) on each bead.
    pub gamma: f64,
    /// Debye screening length (Å).
    pub debye_length: f64,
    /// Relative dielectric constant.
    pub epsilon_r: f64,
}

impl Default for Solvent {
    fn default() -> Self {
        Self::kcl_1m_300k()
    }
}

impl Solvent {
    /// 1 M KCl at 300 K: λ_D ≈ 3.04 Å, ε_r ≈ 78.
    pub fn kcl_1m_300k() -> Self {
        Solvent {
            temperature: 300.0,
            gamma: 2.0,
            debye_length: 3.04,
            epsilon_r: 78.0,
        }
    }

    /// A production Langevin integrator for this solvent.
    pub fn langevin(&self, seed: u64) -> LangevinBaoab {
        LangevinBaoab::new(self.temperature, self.gamma, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrator_factories() {
        let s = Solvent::kcl_1m_300k();
        let li = s.langevin(1);
        assert!((li.temperature() - 300.0).abs() < 1e-12);
        assert!((li.gamma() - 2.0).abs() < 1e-12);
    }
}
