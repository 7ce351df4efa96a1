//! Deterministic seed derivation.
//!
//! The paper's campaign runs 72 independent simulations; our reproduction
//! runs ensembles of realizations across worker threads. To make every
//! experiment bit-reproducible regardless of thread scheduling, every
//! logical stream (realization i, particle j, network link k…) derives its
//! own seed *by value* from a master seed using SplitMix64 — the standard
//! stateless mixer also used to seed xoshiro generators.

/// One round of the SplitMix64 output mixer (stateless).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of logical stream `index` from `master`.
///
/// Distinct `(master, index)` pairs map to well-separated seeds; identical
/// pairs always map to the same seed (reproducibility across runs and
/// thread schedules).
#[inline]
pub fn seed_stream(master: u64, index: u64) -> u64 {
    // Two mixing rounds over a combined word; one round already decorrelates,
    // the second guards against low-entropy (master, index) patterns.
    splitmix64(splitmix64(master ^ 0xA076_1D64_78BD_642F).wrapping_add(index))
}

/// Map 64 random bits to a uniform f64 in [0, 1) using the top 53 bits
/// (the mantissa trick). Shared by every stochastic sampler that draws
/// from a [`seed_stream`], so all crates produce identical uniforms from
/// identical bits.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A hierarchical seed sequence: `SeedSequence` for an experiment, child
/// sequences per component, leaf seeds per stream.
///
/// ```
/// use spice_stats::rng::SeedSequence;
/// let root = SeedSequence::new(42);
/// let md = root.child(0);
/// let grid = root.child(1);
/// assert_ne!(md.stream(0), grid.stream(0));
/// // Re-derivation is stable:
/// assert_eq!(root.child(0).stream(5), md.stream(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Root sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence {
            state: splitmix64(master),
        }
    }

    /// Child sequence for component `index`.
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence {
            state: seed_stream(self.state, index),
        }
    }

    /// Leaf seed for stream `index`.
    pub fn stream(&self, index: u64) -> u64 {
        seed_stream(self.state, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(seed_stream(1, 2), seed_stream(1, 2));
        assert_eq!(
            SeedSequence::new(9).child(3).stream(4),
            SeedSequence::new(9).child(3).stream(4)
        );
    }

    #[test]
    fn streams_distinct() {
        let mut seen = HashSet::new();
        for master in 0..8u64 {
            for idx in 0..1000u64 {
                assert!(
                    seen.insert(seed_stream(master, idx)),
                    "collision at ({master},{idx})"
                );
            }
        }
    }

    #[test]
    fn sequential_indices_decorrelated() {
        // Hamming distance between seeds of adjacent indices should be large.
        let a = seed_stream(0, 0);
        let b = seed_stream(0, 1);
        let hd = (a ^ b).count_ones();
        assert!(hd > 10, "adjacent streams too similar: hamming {hd}");
    }

    #[test]
    fn child_trees_do_not_collide() {
        let root = SeedSequence::new(1234);
        let mut seen = HashSet::new();
        for c in 0..50u64 {
            for s in 0..50u64 {
                assert!(seen.insert(root.child(c).stream(s)));
            }
        }
    }

    #[test]
    fn unit_f64_in_range() {
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
        for i in 0..1000u64 {
            let u = unit_f64(seed_stream(7, i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // First output of the reference SplitMix64 stream seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
