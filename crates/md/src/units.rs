//! Unit system: Å (length), ps (time), amu (mass), kcal/mol (energy).
//!
//! This is the "AKMA-like" unit system of CHARMM/NAMD, which the paper's
//! simulations used. The paper quotes the SMD spring constant κ in pN/Å
//! and pulling velocity v in Å/ns; conversions live here so experiment
//! code can speak the paper's units directly.

/// Boltzmann constant, kcal mol⁻¹ K⁻¹.
pub const KB: f64 = 1.987_204_1e-3;

/// Reference simulation temperature used throughout SPICE (K).
pub const T_REF: f64 = 300.0;

/// kT at 300 K, kcal/mol.
pub const KT_300: f64 = KB * T_REF;

/// Force conversion: 1 kcal mol⁻¹ Å⁻¹ expressed in pN.
///
/// 1 kcal/mol = 6.9477×10⁻²¹ J per molecule; divided by 1 Å = 10⁻¹⁰ m
/// gives 6.9477×10⁻¹¹ N = 69.477 pN.
pub const PN_PER_KCALMOL_A: f64 = 69.477;

/// Acceleration conversion: (kcal mol⁻¹ Å⁻¹)/amu expressed in Å ps⁻².
///
/// Standard MD factor: 1 kcal mol⁻¹ Å⁻¹ amu⁻¹ = 4.184×10⁻⁴ Å fs⁻²
/// = 418.4 Å ps⁻².
pub const ACCEL: f64 = 418.4;

/// Kinetic-energy conversion: amu Å² ps⁻² expressed in kcal/mol
/// (the inverse of [`ACCEL`]).
pub const KE: f64 = 1.0 / ACCEL;

/// Convert a spring constant from the paper's pN/Å to kcal mol⁻¹ Å⁻².
#[inline]
pub fn spring_pn_per_a_to_kcal(k_pn: f64) -> f64 {
    k_pn / PN_PER_KCALMOL_A
}

/// Convert a velocity from the paper's Å/ns to engine Å/ps.
#[inline]
pub fn velocity_a_per_ns_to_a_per_ps(v: f64) -> f64 {
    v * 1e-3
}

/// Convert a force from kcal mol⁻¹ Å⁻¹ to pN.
#[inline]
pub fn force_kcal_to_pn(f: f64) -> f64 {
    f * PN_PER_KCALMOL_A
}

/// Thermal velocity scale √(kT/m) in Å/ps for mass `m` (amu) at
/// temperature `t` (K).
#[inline]
pub fn thermal_velocity(m: f64, t: f64) -> f64 {
    (KB * t * ACCEL / m).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kt_at_300k() {
        assert!((KT_300 - 0.59616).abs() < 1e-4);
    }

    #[test]
    fn paper_spring_constants_convert() {
        // κ = 100 pN/Å ≈ 1.439 kcal/mol/Å² (§IV-B optimum).
        let k = spring_pn_per_a_to_kcal(100.0);
        assert!((k - 1.4393).abs() < 1e-3, "got {k}");
        assert!((k * PN_PER_KCALMOL_A - 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_velocities_convert() {
        // v = 12.5 Å/ns = 0.0125 Å/ps (§IV-C optimum).
        assert!((velocity_a_per_ns_to_a_per_ps(12.5) - 0.0125).abs() < 1e-15);
    }

    #[test]
    fn accel_and_ke_are_inverse() {
        assert!((ACCEL * KE - 1.0).abs() < 1e-15);
    }

    #[test]
    fn thermal_velocity_scale() {
        // A 100 amu bead at 300 K: sqrt(0.596*418.4/100) ≈ 1.58 Å/ps.
        let v = thermal_velocity(100.0, 300.0);
        assert!((v - 1.579).abs() < 0.01, "got {v}");
    }
}
