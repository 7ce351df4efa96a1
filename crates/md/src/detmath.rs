//! Deterministic transcendental kernels for hot simulation paths.
//!
//! `ln`, `sin`, `cos`, `exp`, `acos` and `atan2` from the platform libm are
//! correctly rounded (or nearly so) but come with two costs this engine
//! cannot pay:
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
//! changes trajectories the way changing a seed does. The inverse
//! trigonometric kernels ([`det_acos`], [`det_atan2`]) are rational or
//! polynomial fits good to a few ulps of π (under 1e-15 absolute), since
//! the angle force subtracts θ₀ from their result.
//!
//! Every force of the MD step takes its transcendentals from here: the
//! pair tiers and the pore field (`det_exp`, `det_sincos2pi`), the bonded
//! terms (`det_acos` per angle, `det_atan2` and `det_sin` per dihedral)
//! and the Langevin decay `c1 = det_exp(−γ·dt)`. The step's bits
//! therefore depend on no host libm; the libm calls left in
//! `md::forces` are energy-only or construction constants.

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

/// sin(x) for |x| < 2⁵¹·2π: [`det_sincos2pi`]'s sine half at x/(2π), to
/// the same standard (max absolute error ≈ 6e-10; exactly odd; sin 0 = 0).
/// The dihedral force's `sin(nφ − δ)`.
#[inline(always)]
pub fn det_sin(x: f64) -> f64 {
    det_sincos2pi(x * (0.5 * std::f64::consts::FRAC_1_PI)).0
}

/// π/2 split into a head (the f64 nearest π/2) and the tail it drops, so
/// the angle formulas keep the bits a single f64 would lose.
const PIO2_HI: f64 = std::f64::consts::FRAC_PI_2;
#[allow(clippy::excessive_precision)]
const PIO2_LO: f64 = 6.123_233_995_736_766_035_87e-17;

/// arccos(x) for x ∈ [-1, 1], in [0, π].
///
/// fdlibm's scheme without its branches. asin(t) = t + t·R(t²) with one
/// rational R(z) = z·P(z)/Q(z), fitted on z ∈ [0, 1/4], serves both
/// halves of a fold at |x| = 1/2:
/// * |x| < 1/2: acos x = π/2 − asin x, with z = x²;
/// * |x| ≥ 1/2: acos |x| = 2·asin s with s = √z, z = (1 − |x|)/2, and
///   acos(−|x|) = π − 2·asin s.
///
/// Both halves are computed and a select picks one, so the cost is one
/// division, one square root and two short polynomials, and the function
/// vectorizes in a lane sweep. Max absolute error ≈ 4e-16 against libm;
/// acos 1 = 0 and acos(−1) = π exactly. Outside [-1, 1] the result is
/// garbage (callers clamp).
#[inline(always)]
pub fn det_acos(x: f64) -> f64 {
    // fdlibm's e_acos.c coefficients, digits as published.
    #[allow(clippy::excessive_precision)]
    const P: [f64; 6] = [
        1.666_666_666_666_666_574_15e-01,
        -3.255_658_186_224_009_154_05e-01,
        2.012_125_321_348_629_258_81e-01,
        -4.005_553_450_067_941_140_27e-02,
        7.915_349_942_898_145_321_76e-04,
        3.479_331_075_960_211_675_70e-05,
    ];
    #[allow(clippy::excessive_precision)]
    const Q: [f64; 4] = [
        -2.403_394_911_734_414_218_78e+00,
        2.020_945_760_233_505_694_71e+00,
        -6.882_839_716_054_532_930_30e-01,
        7.703_815_055_590_193_527_91e-02,
    ];
    let a = x.abs();
    let small = a < 0.5;
    let z = if small { x * x } else { (1.0 - a) * 0.5 };
    let p = z * (P[0] + z * (P[1] + z * (P[2] + z * (P[3] + z * (P[4] + z * P[5])))));
    let q = 1.0 + z * (Q[0] + z * (Q[1] + z * (Q[2] + z * Q[3])));
    let r = p / q;
    let s = z.sqrt();
    let near_zero = PIO2_HI - (x - (PIO2_LO - x * r));
    let near_one = 2.0 * (s + s * r);
    let near_minus_one = 2.0 * PIO2_HI - 2.0 * (s + (s * r - PIO2_LO));
    let folded = if x > 0.0 { near_one } else { near_minus_one };
    if small {
        near_zero
    } else {
        folded
    }
}

/// atan2(y, x) in [-π, π], for finite `x` and `y` not both zero.
///
/// Branch-free octant reduction with one division. With m = min(|x|, |y|)
/// and M = max(|x|, |y|), the ratio m/M ∈ [0, 1] is folded again at
/// tan(π/8): above it, atan(m/M) = π/4 + atan((m − M)/(m + M)). The
/// numerator and denominator are selected before the one division, so
/// the reduced t satisfies |t| ≤ tan(π/8), where fdlibm's odd degree-23
/// atan polynomial (fitted on |t| ≤ 7/16) applies. Selects then unfold
/// the octant (π/2 − a where |y| > |x|, π − a where x < 0), and the sign
/// of `y` is copied onto the result, so atan2(−y, x) = −atan2(y, x) bit
/// for bit and atan2(±0, x < 0) = ±π, as in libm. Max absolute error
/// ≈ 4e-16 against libm; atan2(0, 1) = 0, atan2(1, 1) = π/4 and
/// atan2(0, −1) = π exactly. x = y = 0 gives NaN (libm gives ±0 or ±π).
#[inline(always)]
pub fn det_atan2(y: f64, x: f64) -> f64 {
    // fdlibm's s_atan.c coefficients, digits as published.
    #[allow(clippy::excessive_precision)]
    const T: [f64; 11] = [
        3.333_333_333_333_293_180_27e-01,
        -1.999_999_999_987_648_324_76e-01,
        1.428_571_427_250_346_637_11e-01,
        -1.111_111_040_546_235_578_80e-01,
        9.090_887_133_436_506_561_96e-02,
        -7.691_876_205_044_829_994_95e-02,
        6.661_073_137_387_531_206_69e-02,
        -5.833_570_133_790_573_486_45e-02,
        4.976_877_994_615_932_360_17e-02,
        -3.653_157_274_421_691_552_70e-02,
        1.628_582_011_536_578_236_23e-02,
    ];
    #[allow(clippy::excessive_precision)]
    const TAN_PI_8: f64 = 4.142_135_623_730_950_488_02e-01;
    let (ax, ay) = (x.abs(), y.abs());
    let (lo, hi) = (ax.min(ay), ax.max(ay));
    let wide = lo > TAN_PI_8 * hi;
    let num = if wide { lo - hi } else { lo };
    let den = if wide { lo + hi } else { hi };
    let t = num / den;
    let z = t * t;
    let w = z * z;
    let s1 = z * (T[0] + w * (T[2] + w * (T[4] + w * (T[6] + w * (T[8] + w * T[10])))));
    let s2 = w * (T[1] + w * (T[3] + w * (T[5] + w * (T[7] + w * T[9]))));
    let atan_t = t - t * (s1 + s2);
    let octant = if wide {
        std::f64::consts::FRAC_PI_4 + atan_t
    } else {
        atan_t
    };
    let quadrant = if ay > ax { PIO2_HI - octant } else { octant };
    let half = if x < 0.0 {
        std::f64::consts::PI - quadrant
    } else {
        quadrant
    };
    half.copysign(y)
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
    fn sin_matches_libm_to_budget() {
        let mut max_abs = 0.0f64;
        for u in uniforms(100_000) {
            // nφ − δ for multiplicities up to 6 and any phase, then far out.
            for x in [u * 8.0 - 4.0, (u - 0.5) * 50.0, (u - 0.5) * 1e4] {
                max_abs = max_abs.max((det_sin(x) - x.sin()).abs());
                assert_eq!(det_sin(-x).to_bits(), (-det_sin(x)).to_bits(), "odd at {x}");
            }
        }
        assert!(max_abs < 1e-8, "sin abs err {max_abs:e}");
        assert_eq!(det_sin(0.0), 0.0);
        assert!((det_sin(std::f64::consts::FRAC_PI_2) - 1.0).abs() < 1e-8);
        assert!(det_sin(std::f64::consts::PI).abs() < 1e-8);
    }

    /// Points of [-1, 1] an acos must get right: uniforms, both ends
    /// approached over many binades, and both sides of the ±1/2 fold.
    fn acos_domain() -> Vec<f64> {
        let mut xs: Vec<f64> = uniforms(200_000).map(|u| 2.0 * u - 1.0).collect();
        for u in uniforms(2_000) {
            for k in 1..=50 {
                let eps = u * (2f64).powi(-k);
                xs.extend([
                    1.0 - eps,
                    eps - 1.0,
                    0.5 + eps,
                    0.5 - eps,
                    eps - 0.5,
                    -0.5 - eps,
                ]);
            }
        }
        for x in [0.5f64, -0.5, 1.0, -1.0, 0.0, -0.0] {
            xs.extend([x, x.next_up(), x.next_down()]);
        }
        xs.retain(|x| (-1.0..=1.0).contains(x));
        xs
    }

    #[test]
    fn acos_matches_libm_over_the_whole_domain() {
        let mut max_abs = 0.0f64;
        for x in acos_domain() {
            let err = (det_acos(x) - x.acos()).abs();
            assert!(
                err < 1e-14,
                "acos({x:e}) = {} against libm {}",
                det_acos(x),
                x.acos()
            );
            max_abs = max_abs.max(err);
        }
        assert!(max_abs < 1e-15, "acos abs err {max_abs:e}");
    }

    #[test]
    fn acos_landmarks_and_symmetry() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_3, PI};
        assert_eq!(det_acos(1.0), 0.0);
        assert_eq!(det_acos(-1.0), PI);
        assert_eq!(det_acos(0.0), FRAC_PI_2);
        assert_eq!(det_acos(-0.0), FRAC_PI_2);
        assert!((det_acos(0.5) - FRAC_PI_3).abs() < 1e-15);
        assert!((det_acos(-0.5) - 2.0 * FRAC_PI_3).abs() < 1e-15);
        // acos(−x) = π − acos(x) across the whole domain, and the result
        // never leaves [0, π].
        for x in acos_domain() {
            let (a, b) = (det_acos(x), det_acos(-x));
            assert!(
                (a + b - PI).abs() < 1e-15,
                "acos({x:e}) + acos(-x) = {}",
                a + b
            );
            assert!((0.0..=PI).contains(&a), "acos({x:e}) = {a}");
        }
        // Monotone through the fold: no step where the select switches.
        for x in [0.5f64, -0.5] {
            assert!(det_acos(x.next_down()) >= det_acos(x));
            assert!(det_acos(x) >= det_acos(x.next_up()));
        }
    }

    /// (y, x) pairs an atan2 must get right: every direction of the
    /// circle at radii over many binades, the axes, the diagonals and
    /// both sides of the tan(π/8) fold in every octant.
    fn atan2_domain() -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        for (k, u) in uniforms(100_000).enumerate() {
            let a = (2.0 * u - 1.0) * std::f64::consts::PI;
            let r = (10f64).powi(k as i32 % 25 - 12);
            pts.push((r * a.sin(), r * a.cos()));
        }
        let t8 = (std::f64::consts::PI / 8.0).tan();
        for u in uniforms(500) {
            let m = 1.0 + 9.0 * u;
            for (y, x) in [(m, 0.0), (0.0, m), (m, m), (m * t8, m), (m, m * t8)] {
                for (sy, sx) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                    pts.push((sy * y, sx * x));
                    pts.push((sy * y.next_up(), sx * x));
                    pts.push((sy * y.next_down(), sx * x));
                }
            }
        }
        pts
    }

    #[test]
    fn atan2_matches_libm_over_the_whole_domain() {
        let mut max_abs = 0.0f64;
        for (y, x) in atan2_domain() {
            let err = (det_atan2(y, x) - y.atan2(x)).abs();
            assert!(
                err < 1e-14,
                "atan2({y:e}, {x:e}) = {}, libm {}",
                det_atan2(y, x),
                y.atan2(x)
            );
            max_abs = max_abs.max(err);
        }
        assert!(max_abs < 1e-15, "atan2 abs err {max_abs:e}");
    }

    #[test]
    fn atan2_landmarks_and_symmetry() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        assert_eq!(det_atan2(0.0, 1.0).to_bits(), 0f64.to_bits());
        assert_eq!(det_atan2(-0.0, 1.0).to_bits(), (-0f64).to_bits());
        assert_eq!(det_atan2(0.0, -1.0), PI);
        assert_eq!(det_atan2(-0.0, -1.0), -PI);
        assert_eq!(det_atan2(1.0, 0.0), FRAC_PI_2);
        assert_eq!(det_atan2(-1.0, 0.0), -FRAC_PI_2);
        assert_eq!(det_atan2(1.0, 1.0), FRAC_PI_4);
        assert!((det_atan2(1.0, -1.0) - 3.0 * FRAC_PI_4).abs() < 1e-15);
        for (y, x) in atan2_domain() {
            let a = det_atan2(y, x);
            // Odd in y bit for bit; mirror in x to rounding; in [-π, π].
            assert_eq!(
                det_atan2(-y, x).to_bits(),
                (-a).to_bits(),
                "odd at ({y:e}, {x:e})"
            );
            let m = det_atan2(y, -x);
            assert!(
                (m - (PI - a.abs()).copysign(y)).abs() < 2e-15,
                "mirror at ({y:e}, {x:e})"
            );
            assert!((-PI..=PI).contains(&a));
            // Scale-free: scaling both arguments by 4 is exact, so the
            // bits do not move.
            assert_eq!(det_atan2(4.0 * y, 4.0 * x).to_bits(), a.to_bits());
        }
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
