//! Deterministic transcendental kernels for hot simulation paths.
//!
//! `ln`, `sin`, `cos`, and `exp` from the platform libm are correctly
//! rounded (or nearly so) but come with two costs this engine cannot pay:
//!
//! 1. **Platform dependence.** glibc, musl, and macOS libm disagree in the
//!    last ulp, so a trajectory digest computed on one platform need not
//!    reproduce on another. Every other operation in the engine (`+`, `-`,
//!    `*`, `/`, `sqrt`) is exactly specified by IEEE 754 and reproduces
//!    everywhere.
//! 2. **No vectorization.** A libm call in a replica-lane loop forces the
//!    whole loop scalar. The batched ensemble engine (`crate::batch`)
//!    sweeps 64 replica lanes per pair/particle and lives or dies on the
//!    compiler auto-vectorizing those sweeps.
//!
//! The kernels here use only IEEE-exact operations (add, sub, mul, div,
//! sqrt) plus integer bit manipulation, and are branchless. Even `floor`
//! is avoided: on the baseline x86-64 target (no SSE4.1) it compiles to a
//! libm call, so arguments are folded by `round_nearest`'s exact
//! add-and-subtract instead. The same Rust function therefore produces
//! bit-identical results whether the compiler evaluates it in a scalar
//! context (the per-replica cloned path) or an 8-wide AVX-512 lane sweep
//! (the batched path) — LLVM never contracts separate `mul`/`add` into a
//! fused FMA without explicit fast-math flags, and none are used in this
//! workspace.
//!
//! Accuracy is a few parts in 1e9 or better — far below thermostat noise
//! and the statistical error bars of any observable in this codebase, but
//! NOT a drop-in ulp-for-ulp replacement for libm: switching a call site
//! changes trajectories the way changing a seed does.

/// Mantissa bits of sqrt(2), used to fold the significand into
/// [1/√2, √2] so the ln series converges fast.
const SQRT2_MANT: u64 = 0x000f_ffff_ffff_ffff & f64::to_bits(std::f64::consts::SQRT_2);

const LN2: f64 = std::f64::consts::LN_2;
const LOG2E: f64 = std::f64::consts::LOG2_E;

/// Natural log of a finite positive normal `x`.
///
/// Exponent/mantissa split (integer ops), then the atanh series
/// `ln m = 2s(1 + s²/3 + s⁴/5 + …)` with `s = (m-1)/(m+1)`, |s| ≤ 0.1716.
/// Max relative error ≈ 5e-11. Branchless; subnormals, zero, negatives,
/// and non-finite inputs return garbage rather than panicking (callers in
/// this crate only pass uniforms from (0, 1)).
#[inline(always)]
pub fn det_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let mant = bits & 0x000f_ffff_ffff_ffff;
    // If the significand is above sqrt(2), halve it and bump the exponent:
    // branchless via an integer flag folded into the exponent fields.
    let ge = (mant > SQRT2_MANT) as u64;
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023 + ge as i64;
    let m = f64::from_bits(mant | ((1023 - ge) << 52));
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = 1.0 / 7.0 + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0));
    let p = 1.0 + s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * p));
    2.0 * s * p + e as f64 * LN2
}

/// `x` rounded to the nearest integer (ties to even), for |x| < 2⁵¹.
///
/// Adding 1.5·2⁵² pushes `x` into the binade where the f64 spacing is
/// exactly 1, so the add itself rounds to an integer and the subtract
/// recovers it exactly. LLVM does not reassociate float adds without
/// fast-math, so the pair survives optimization. Ties to even make the
/// fold odd-symmetric: `round_nearest(-x) == -round_nearest(x)`.
#[inline(always)]
fn round_nearest(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    (x + SHIFT) - SHIFT
}

/// `(sin(2π·u), cos(2π·u))` for `u` in (-2⁵¹, 2⁵¹).
///
/// Periodicity folds the argument to v ∈ [-1/2, 1/2] exactly (an integer
/// subtracted from `u` is lossless), then one odd Taylor polynomial of
/// sin(2πv) through t¹⁹ and one even polynomial of cos(2πv) through t¹⁸
/// cover the whole fold — no quadrant logic, no branches. Max absolute
/// error ≈ 4e-9 (cos) and ≈ 6e-10 (sin). Because the fold is symmetric,
/// sin is exactly odd and cos exactly even, and sin 0 = 0, cos 0 = 1
/// exactly. A caller that uses only one half pays only for that half once
/// inlined.
#[inline(always)]
pub fn det_sincos2pi(u: f64) -> (f64, f64) {
    let v = u - round_nearest(u);
    let t = v * (2.0 * std::f64::consts::PI);
    let y = t * t;
    let s = 1.0 / 355_687_428_096_000.0 + y * (-1.0 / 121_645_100_408_832_000.0);
    let s = -1.0 / 39_916_800.0
        + y * (1.0 / 6_227_020_800.0 + y * (-1.0 / 1_307_674_368_000.0 + y * s));
    let s = 1.0 / 120.0 + y * (-1.0 / 5_040.0 + y * (1.0 / 362_880.0 + y * s));
    let s = t * (1.0 + y * (-1.0 / 6.0 + y * s));
    let c = 1.0 / 20_922_789_888_000.0 + y * (-1.0 / 6_402_373_705_728_000.0);
    let c = 1.0 / 479_001_600.0 + y * (-1.0 / 87_178_291_200.0 + y * c);
    let c = 1.0 / 40_320.0 + y * (-1.0 / 3_628_800.0 + y * c);
    let c = 1.0 + y * (-0.5 + y * (1.0 / 24.0 + y * (-1.0 / 720.0 + y * c)));
    (s, c)
}

/// cos(2π·u) for `u` in (-2⁵¹, 2⁵¹): the cosine half of
/// [`det_sincos2pi`]. Max absolute error ≈ 4e-9.
#[inline(always)]
pub fn det_cos2pi(u: f64) -> f64 {
    det_sincos2pi(u).1
}

/// exp(x) for finite `x`, accurate on x ∈ [-708, 0].
///
/// Reduction x = k·ln2 + r with k = `round_nearest(x·log₂e)` and a
/// two-word ln2 so r carries no cancellation error, Taylor of exp(r) on
/// |r| ≤ 0.35 through r⁹, then an exponent-field scale by 2ᵏ built with
/// integer ops. Max relative error ≈ 1e-11 over the whole domain — the
/// Debye–Hückel pair screening (x ∈ [-4, 0] inside the cutoff) and the
/// constriction ring's −d/λ, which passes −50 once the salt is above
/// ~1.6 M. Below about −708.4 (k < −1022) the exponent clamp starts: the
/// result stays finite but is garbage instead of a subnormal — batched
/// kernels evaluate speculatively past the cutoff and mask the result
/// away, so garbage is acceptable but faults are not.
#[inline(always)]
pub fn det_exp(x: f64) -> f64 {
    // ln2 split into a 32-bit-exact head and a tail, so k*LN2_HI is exact.
    // Digits kept as published (fdlibm's split); the parsed f64 is what matters.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_3e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let kf = round_nearest(x * LOG2E);
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let p = 1.0 / 40_320.0 + r * (1.0 / 362_880.0);
    let p = 1.0 / 720.0 + r * (1.0 / 5_040.0 + r * p);
    let p = 1.0 / 24.0 + r * (1.0 / 120.0 + r * p);
    let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * p)));
    // 2^k via the exponent field; clamp keeps the bit pattern valid for
    // far-out-of-domain speculative lanes.
    let ki = (kf as i64).clamp(-1022, 1023);
    p * f64::from_bits(((1023 + ki) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_stats::rng::splitmix64;

    fn uniforms(n: u64) -> impl Iterator<Item = f64> {
        (1..=n).map(|i| ((splitmix64(i) >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0))
    }

    #[test]
    fn ln_matches_libm_to_budget() {
        let mut max_rel = 0.0f64;
        for u in uniforms(100_000) {
            // Spread over many binades, the way Box–Muller sees it.
            for &x in &[u, u * 1e-9, u * 1e9, 1.0 + u] {
                let rel = (det_ln(x) - x.ln()).abs() / x.ln().abs().max(1e-12);
                max_rel = max_rel.max(rel);
            }
        }
        assert!(max_rel < 1e-9, "ln rel err {max_rel:e}");
    }

    #[test]
    fn ln_exact_at_powers_of_two() {
        // The series is exact at m = 1, so ln(2^k) must be k*ln2 exactly.
        for k in -40i32..=40 {
            let x = (2f64).powi(k);
            assert_eq!(det_ln(x), k as f64 * LN2, "k = {k}");
        }
    }

    #[test]
    fn sincos2pi_matches_libm_to_budget() {
        let (mut max_sin, mut max_cos) = (0.0f64, 0.0f64);
        for u in uniforms(100_000) {
            // |u| ≤ 1e4 covers the pore's z / period arguments many times over.
            for &x in &[u, -u, u + 17.0, u * 1e4, -u * 1e4] {
                let (s, c) = det_sincos2pi(x);
                let (ls, lc) = (2.0 * std::f64::consts::PI * x).sin_cos();
                max_sin = max_sin.max((s - ls).abs());
                max_cos = max_cos.max((c - lc).abs());
            }
        }
        assert!(max_sin < 1e-8, "sin2pi abs err {max_sin:e}");
        assert!(max_cos < 1e-8, "cos2pi abs err {max_cos:e}");
    }

    #[test]
    fn sincos2pi_symmetry_and_landmarks() {
        assert_eq!(det_sincos2pi(0.0), (0.0, 1.0));
        assert_eq!(det_cos2pi(0.0), 1.0);
        // The round-to-nearest fold is odd-symmetric, so the symmetries
        // hold bit for bit, across fold boundaries too.
        for u in uniforms(1_000) {
            for x in [u, u * 1e4, u + 0.5] {
                let (s, c) = det_sincos2pi(x);
                let (sm, cm) = det_sincos2pi(-x);
                assert_eq!(sm.to_bits(), (-s).to_bits(), "sin odd at {x}");
                assert_eq!(cm.to_bits(), c.to_bits(), "cos even at {x}");
            }
        }
        let (s, c) = det_sincos2pi(0.25);
        assert!((s - 1.0).abs() < 1e-8 && c.abs() < 1e-8);
        let (s, c) = det_sincos2pi(0.5);
        assert!(s.abs() < 1e-8 && (c + 1.0).abs() < 1e-8);
    }

    #[test]
    fn exp_matches_libm_down_to_the_exponent_clamp() {
        let mut max_rel = 0.0f64;
        for u in uniforms(100_000) {
            // The DH screening domain, then the ring's −d/λ at high salt,
            // down to where the 2^k scale would leave the normal range.
            for x in [-50.0 * u, -708.0 * u] {
                let rel = (det_exp(x) - x.exp()).abs() / x.exp();
                max_rel = max_rel.max(rel);
            }
        }
        let rel = (det_exp(-708.0) - (-708.0f64).exp()).abs() / (-708.0f64).exp();
        max_rel = max_rel.max(rel);
        assert!(max_rel < 1e-11, "exp rel err {max_rel:e}");
        assert_eq!(det_exp(0.0), 1.0);
    }

    #[test]
    fn exp_out_of_domain_is_finite_garbage_not_a_fault() {
        // Speculative lanes feed huge negative arguments; any finite f64
        // (even a wrong one) is acceptable, a panic or NaN is not.
        for &x in &[-1e3, -1e6, -7e2] {
            let v = det_exp(x);
            assert!(v.is_finite(), "det_exp({x}) = {v}");
        }
    }
}
