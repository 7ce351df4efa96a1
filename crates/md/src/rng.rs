//! Counter-based deterministic Gaussian noise.
//!
//! Langevin dynamics needs one independent standard normal per particle,
//! per axis, per step. Drawing them from a single sequential RNG would make
//! trajectories depend on thread scheduling; instead each draw is a pure
//! function of `(seed, counter)` via SplitMix64 mixing + Box–Muller, so
//! trajectories never depend on the order the draws are made in. This is
//! the same design philosophy as Random123/Philox counter-based RNGs.
//!
//! The Box–Muller transform runs on the deterministic polynomial `ln` and
//! `cos` kernels from [`crate::detmath`], not libm. That buys two things
//! the batched ensemble engine depends on:
//!
//! - **Cross-platform bit-reproducibility**: trajectories no longer depend
//!   on the host libm's last-ulp behaviour.
//! - **Lane vectorization**: the per-replica draw decomposes into a
//!   counter hash shared by every replica (`gauss_hash`) and a
//!   per-replica tail (`gauss_from`) built from IEEE-exact branchless
//!   ops, so the batched integrator sweeps replica lanes through the same
//!   function the scalar path calls — bit-identical by construction, and
//!   8-wide under AVX-512.

use crate::detmath::{det_cos2pi, det_ln};
use spice_stats::rng::splitmix64;

/// Map 32 random bits to a uniform in the open interval (0, 1).
///
/// Half-ulp offset keeps 0 and 1 unreachable; the smallest value 2⁻³³
/// bounds the Box–Muller radius at √(−2·ln 2⁻³³) ≈ 6.77, comfortably
/// inside every finiteness guard in this crate.
#[inline(always)]
fn u32_to_open01(w: u32) -> f64 {
    (w as f64 + 0.5) * (1.0 / 4_294_967_296.0)
}

/// Mix the logical draw coordinates `(a, b)` into the counter word shared
/// by every replica of an ensemble. In the batched engine this is hoisted
/// out of the replica-lane sweep; the scalar path computes it per call.
#[inline(always)]
pub(crate) fn gauss_hash(a: u64, b: u64) -> u64 {
    splitmix64(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b)
}

/// The per-replica tail of a draw: one SplitMix64 round over
/// `seed ^ hash`, whose 64 output bits provide the two Box–Muller
/// uniforms. Branchless and IEEE-exact end to end (see
/// [`crate::detmath`]), so scalar and lane-swept evaluation agree
/// bit-for-bit.
#[inline(always)]
pub(crate) fn gauss_from(seed: u64, h: u64) -> f64 {
    let out = splitmix64(seed ^ h);
    let u1 = u32_to_open01((out >> 32) as u32);
    let u2 = u32_to_open01(out as u32);
    // max(0): the polynomial ln has ~1e-11 absolute slack, so -2·ln(u1)
    // can land a hair below zero when u1 is within an ulp of 1.
    (-2.0 * det_ln(u1)).max(0.0).sqrt() * det_cos2pi(u2)
}

/// A stateless stream of standard-normal deviates indexed by counters.
#[derive(Debug, Clone, Copy)]
pub struct GaussianStream {
    seed: u64,
}

impl GaussianStream {
    /// Stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        GaussianStream { seed }
    }

    /// The root seed (used by the batched engine to reconstruct this
    /// stream lane-side).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Standard normal for logical coordinates `(a, b)` — typically
    /// `(particle, axis)` or `(step*3+axis, particle)`. Pure function of
    /// `(seed, a, b)`.
    #[inline]
    pub fn sample(&self, a: u64, b: u64) -> f64 {
        gauss_from(self.seed, gauss_hash(a, b))
    }

    /// Standard normal for a 3-index counter `(step, particle, axis)`.
    #[inline]
    pub fn sample3(&self, step: u64, particle: u64, axis: u64) -> f64 {
        self.sample(step.wrapping_mul(3).wrapping_add(axis), particle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_stats::rng::SeedSequence;

    #[test]
    fn deterministic() {
        let g = GaussianStream::new(7);
        assert_eq!(g.sample(1, 2), g.sample(1, 2));
        assert_ne!(g.sample(1, 2), g.sample(2, 1));
        assert_ne!(
            GaussianStream::new(7).sample(0, 0),
            GaussianStream::new(8).sample(0, 0)
        );
    }

    #[test]
    fn moments_are_standard_normal() {
        let g = GaussianStream::new(1234);
        let xs: Vec<f64> = (0..200u64)
            .flat_map(|a| (0..500u64).map(move |b| g.sample(a, b)))
            .collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let moment = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let var = moment(2);
        let (skew, kurt) = (moment(3) / var.powf(1.5), moment(4) / (var * var) - 3.0);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!(kurt.abs() < 0.08, "kurt {kurt}");
    }

    #[test]
    fn adjacent_counters_uncorrelated() {
        let g = GaussianStream::new(5);
        let n = 50_000u64;
        let mut sum = 0.0;
        for i in 0..n {
            sum += g.sample(i, 0) * g.sample(i + 1, 0);
        }
        let corr = sum / n as f64;
        assert!(corr.abs() < 0.02, "lag-1 correlation {corr}");
    }

    #[test]
    fn sample3_distinct_axes() {
        let g = GaussianStream::new(3);
        let x = g.sample3(10, 4, 0);
        let y = g.sample3(10, 4, 1);
        let z = g.sample3(10, 4, 2);
        assert!(x != y && y != z && x != z);
    }

    #[test]
    fn values_are_finite() {
        let g = GaussianStream::new(0);
        for a in 0..1000 {
            let v = g.sample(a, a * 7 + 1);
            assert!(v.is_finite());
            assert!(v.abs() < 10.0, "implausible normal deviate {v}");
        }
    }

    #[test]
    fn matches_libm_box_muller_statistically() {
        // The polynomial kernels approximate ln/cos to ~1e-9; each deviate
        // must sit within that error of the libm-evaluated transform on
        // the same uniforms.
        let g = GaussianStream::new(99);
        for a in 0..10_000u64 {
            let out = splitmix64(99u64 ^ gauss_hash(a, 3));
            let u1 = u32_to_open01((out >> 32) as u32);
            let u2 = u32_to_open01(out as u32);
            let reference = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert!(
                (g.sample(a, 3) - reference).abs() < 1e-6,
                "a={a}: {} vs {reference}",
                g.sample(a, 3)
            );
        }
    }

    #[test]
    fn realization_streams_are_independent() {
        // Satellite requirement: no cross-lane correlation between the
        // first 1k draws of any two member streams, and no two members
        // share a stream.
        let seeds = SeedSequence::new(20050512);
        let members: Vec<GaussianStream> = (0..8)
            .map(|i| GaussianStream::new(seeds.stream(i)))
            .collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (a, b) = (members[i], members[j]);
                assert_ne!(a.seed(), b.seed());
                let n = 1000u64;
                let mut dot = 0.0;
                let mut identical = 0u32;
                for k in 0..n {
                    let (x, y) = (a.sample(k, 0), b.sample(k, 0));
                    dot += x * y;
                    identical += (x == y) as u32;
                }
                let corr = dot / n as f64;
                assert!(corr.abs() < 0.11, "lanes {i},{j}: corr {corr}");
                assert!(identical < 3, "lanes {i},{j}: {identical} shared draws");
            }
        }
    }
}
