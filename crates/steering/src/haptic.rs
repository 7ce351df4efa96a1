//! Haptic device model (§II/III).
//!
//! "here we make use of haptic devices within the framework for the first
//! time as if they were just additional computing resources" — the device
//! renders the spring force between the user's hand position and the
//! steered group, and the recorded force history is what "IMD simulations
//! are then extended to include haptic devices to get an estimate of
//! force values as well as to determine suitable constraints to place."

use spice_md::units;
use spice_md::Vec3;

/// A 1-D (pore-axis) haptic device.
#[derive(Debug, Clone)]
pub struct HapticDevice {
    /// Virtual coupling stiffness (pN/Å).
    pub stiffness_pn_per_a: f64,
    /// Force rendering saturation (pN) — real devices clip.
    pub max_force_pn: f64,
    /// Device update rate (Hz); haptics need ~1 kHz for stable feel.
    pub update_rate_hz: f64,
    /// History of rendered force magnitudes (pN).
    history: Vec<f64>,
}

impl HapticDevice {
    /// A PHANTOM-class desktop device.
    pub fn phantom() -> Self {
        HapticDevice {
            stiffness_pn_per_a: 50.0,
            max_force_pn: 500.0,
            update_rate_hz: 1000.0,
            history: Vec::new(),
        }
    }

    /// Render one update: the user holds the stylus at `hand_z`, the
    /// steered group sits at `com_z`. Returns the force to apply to the
    /// simulation (kcal mol⁻¹ Å⁻¹, z-only); records the equal-magnitude
    /// reaction force felt by the user.
    pub fn render(&mut self, hand_z: f64, com_z: f64) -> Vec3 {
        let raw_pn = self.stiffness_pn_per_a * (hand_z - com_z);
        let clipped_pn = raw_pn.clamp(-self.max_force_pn, self.max_force_pn);
        self.history.push(clipped_pn.abs());
        Vec3::new(0.0, 0.0, units::spring_pn_per_a_to_kcal(1.0) * clipped_pn)
    }

    /// The force estimate the paper's priming phase extracts: the maximum
    /// force (pN) encountered while manually translocating the strand.
    pub fn max_observed_force_pn(&self) -> f64 {
        self.history.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean rendered force (pN).
    pub fn mean_force_pn(&self) -> f64 {
        if self.history.is_empty() {
            0.0
        } else {
            self.history.iter().sum::<f64>() / self.history.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_proportional_to_displacement() {
        let mut d = HapticDevice::phantom();
        let f = d.render(10.0, 8.0); // hand 2 Å above COM
                                     // 50 pN/Å × 2 Å = 100 pN upward.
        let expected = units::spring_pn_per_a_to_kcal(1.0) * 100.0;
        assert!((f.z - expected).abs() < 1e-12);
    }

    #[test]
    fn force_clips_at_device_limit() {
        let mut d = HapticDevice::phantom();
        let f = d.render(100.0, 0.0); // would be 5000 pN
        let expected = units::spring_pn_per_a_to_kcal(1.0) * 500.0;
        assert!((f.z - expected).abs() < 1e-12);
    }

    #[test]
    fn force_history_statistics() {
        let mut d = HapticDevice::phantom();
        d.render(1.0, 0.0); // 50 pN
        d.render(-3.0, 0.0); // 150 pN magnitude
        d.render(0.0, 0.0); // 0
        assert!((d.max_observed_force_pn() - 150.0).abs() < 1e-9);
        assert!((d.mean_force_pn() - (50.0 + 150.0) / 3.0).abs() < 1e-9);
    }
}
