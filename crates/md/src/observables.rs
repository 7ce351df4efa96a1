//! Structural observables over particle groups.
//!
//! These feed Fig. 3's analysis (DNA extension / stretching along the
//! pore) and general trajectory monitoring.

use crate::system::System;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Cumulative pair-kernel work counters for one simulation: how often the
/// neighbor list was rebuilt, how many times the non-bonded kernel ran,
/// and how many (tiered, post-exclusion) pairs it visited in total. These
/// are the raw numbers behind pairs/sec throughput reporting and make
/// neighbor-list health visible in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Verlet-list rebuilds since the simulation was created.
    pub neighbor_rebuilds: u64,
    /// Non-bonded kernel invocations (normally one per step plus one per
    /// force refresh).
    pub kernel_invocations: u64,
    /// Total pairs iterated by the tiered kernel across all invocations.
    pub pairs_evaluated: u64,
}

impl KernelCounters {
    /// Mean pairs visited per kernel invocation; 0 when never invoked.
    pub fn pairs_per_invocation(&self) -> f64 {
        if self.kernel_invocations == 0 {
            0.0
        } else {
            self.pairs_evaluated as f64 / self.kernel_invocations as f64
        }
    }

    /// Mean kernel invocations between neighbor rebuilds; 0 when the list
    /// was never rebuilt.
    pub fn invocations_per_rebuild(&self) -> f64 {
        if self.neighbor_rebuilds == 0 {
            0.0
        } else {
            self.kernel_invocations as f64 / self.neighbor_rebuilds as f64
        }
    }

    /// Accumulate this snapshot into `t`'s global `md.*` counters — the
    /// one kernel-counter export. Counter sums commute, so concurrent
    /// realizations publishing their totals produce one deterministic
    /// aggregate however the scheduler interleaved them.
    pub fn publish(&self, t: &spice_telemetry::Telemetry) {
        t.counter("md.neighbor_rebuilds")
            .add(self.neighbor_rebuilds);
        t.counter("md.kernel_invocations")
            .add(self.kernel_invocations);
        t.counter("md.pairs_evaluated").add(self.pairs_evaluated);
    }
}

/// End-to-end distance of an ordered chain of particle indices.
pub fn end_to_end(system: &System, chain: &[usize]) -> f64 {
    if chain.len() < 2 {
        return 0.0;
    }
    let last = *chain.last().expect("chain has >= 2 beads: checked above");
    (system.positions()[last] - system.positions()[chain[0]]).norm()
}

/// Contour length: sum of consecutive bead separations along a chain.
pub fn contour_length(system: &System, chain: &[usize]) -> f64 {
    chain
        .windows(2)
        .map(|w| (system.positions()[w[1]] - system.positions()[w[0]]).norm())
        .sum()
}

/// Mean consecutive-bead spacing along a chain (Å); `NaN` for < 2 beads.
pub fn mean_bead_spacing(system: &System, chain: &[usize]) -> f64 {
    if chain.len() < 2 {
        return f64::NAN;
    }
    contour_length(system, chain) / (chain.len() - 1) as f64
}

/// Per-link bead spacings paired with the link midpoint z-coordinate —
/// the raw data behind Fig. 3's "strand stretches near the constriction".
pub fn spacing_profile(system: &System, chain: &[usize]) -> Vec<(f64, f64)> {
    chain
        .windows(2)
        .map(|w| {
            let a = system.positions()[w[0]];
            let b = system.positions()[w[1]];
            (0.5 * (a.z + b.z), (b - a).norm())
        })
        .collect()
}

/// z-coordinate of a group's center of mass (the SMD reaction coordinate:
/// the paper computes the PMF along the vertical pore axis).
pub fn com_z(system: &System, group: &[usize]) -> f64 {
    system.center_of_mass_of(group.iter().copied()).z
}

/// Center of mass of a group.
pub fn com(system: &System, group: &[usize]) -> Vec3 {
    system.center_of_mass_of(group.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_system(zs: &[f64]) -> (System, Vec<usize>) {
        let mut s = System::new();
        let idx: Vec<usize> = zs
            .iter()
            .map(|&z| s.add_particle(Vec3::new(0.0, 0.0, z), 2.0, 0.0, 0))
            .collect();
        (s, idx)
    }

    #[test]
    fn end_to_end_straight_chain() {
        let (s, idx) = chain_system(&[0.0, 1.0, 2.0, 3.0]);
        assert!((end_to_end(&s, &idx) - 3.0).abs() < 1e-12);
        assert!((contour_length(&s, &idx) - 3.0).abs() < 1e-12);
        assert!((mean_bead_spacing(&s, &idx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contour_exceeds_end_to_end_for_bent_chain() {
        let mut s = System::new();
        let idx = vec![
            s.add_particle(Vec3::new(0.0, 0.0, 0.0), 1.0, 0.0, 0),
            s.add_particle(Vec3::new(1.0, 0.0, 0.0), 1.0, 0.0, 0),
            s.add_particle(Vec3::new(1.0, 1.0, 0.0), 1.0, 0.0, 0),
        ];
        assert!(contour_length(&s, &idx) > end_to_end(&s, &idx));
    }

    #[test]
    fn spacing_profile_locates_stretch() {
        // Chain with one stretched link between z=2 and z=4.
        let (s, idx) = chain_system(&[0.0, 1.0, 2.0, 4.0, 5.0]);
        let prof = spacing_profile(&s, &idx);
        let (widest_mid, widest) = prof
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(widest, 2.0);
        assert_eq!(widest_mid, 3.0);
    }

    #[test]
    fn com_z_tracks_group() {
        let (s, idx) = chain_system(&[0.0, 2.0]);
        assert!((com_z(&s, &idx) - 1.0).abs() < 1e-12);
        assert!((com_z(&s, &idx[1..]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_counter_ratios() {
        let c = KernelCounters {
            neighbor_rebuilds: 4,
            kernel_invocations: 100,
            pairs_evaluated: 5000,
        };
        assert_eq!(c.pairs_per_invocation(), 50.0);
        assert_eq!(c.invocations_per_rebuild(), 25.0);
        let zero = KernelCounters::default();
        assert_eq!(zero.pairs_per_invocation(), 0.0);
        assert_eq!(zero.invocations_per_rebuild(), 0.0);
    }

    #[test]
    fn degenerate_chains() {
        let (s, idx) = chain_system(&[1.0]);
        assert_eq!(end_to_end(&s, &idx), 0.0);
        assert!(mean_bead_spacing(&s, &idx).is_nan());
        assert!(spacing_profile(&s, &idx).is_empty());
    }
}
