//! Autocorrelation analysis for correlated time series.
//!
//! MD observables are strongly autocorrelated, so naive `s/√n` error bars
//! are over-optimistic. The integrated autocorrelation time τ_int deflates
//! the sample count to an *effective* sample size n_eff = n / (2 τ_int).

/// Integrated autocorrelation time τ_int = 1/2 + Σ_{k≥1} ρ(k), using the
/// standard "first negative" truncation (summation stops when ρ(k) < 0).
///
/// Lags are computed incrementally and summation stops at the first
/// negative ρ(k), so the cost is O(n · k_stop), not O(n²).
///
/// Returns 0.5 for white noise; larger values indicate correlation.
/// Returns `NaN` for degenerate input.
pub fn integrated_autocorr_time(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let m = crate::descriptive::mean(xs);
    let c0: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / n as f64;
    // spice-lint: allow(N002) exact-zero variance is the constant-series sentinel
    if c0 == 0.0 {
        return f64::NAN;
    }
    let mut tau = 0.5;
    for k in 1..n {
        let ck: f64 = (0..n - k)
            .map(|i| (xs[i] - m) * (xs[i + k] - m))
            .sum::<f64>()
            / n as f64;
        let rho = ck / c0;
        if rho < 0.0 {
            break;
        }
        tau += rho;
    }
    tau
}

/// Effective number of independent samples, n / (2 τ_int), clamped to
/// `[1, n]`.
// spice-lint: allow(U001) the autocorrelation-aware sample count planned for the TI reference's per-window error bars
pub fn effective_sample_size(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let tau = integrated_autocorr_time(xs);
    if !tau.is_finite() || tau <= 0.0 {
        return n;
    }
    (n / (2.0 * tau)).clamp(1.0, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn white_noise_has_tau_half() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..20000).map(|_| rng.gen::<f64>() - 0.5).collect();
        let tau = integrated_autocorr_time(&xs);
        assert!(
            (tau - 0.5).abs() < 0.2,
            "white-noise tau should be ~0.5, got {tau}"
        );
        let neff = effective_sample_size(&xs);
        assert!(neff > 0.5 * xs.len() as f64);
    }

    #[test]
    fn ar1_process_has_known_tau() {
        // AR(1): x_{t+1} = phi x_t + noise, tau_int = 1/2 (1+phi)/(1-phi).
        let phi = 0.8;
        let mut rng = StdRng::seed_from_u64(11);
        let mut x = 0.0;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| {
                x = phi * x + (rng.gen::<f64>() - 0.5);
                x
            })
            .collect();
        let tau = integrated_autocorr_time(&xs);
        let expected = 0.5 * (1.0 + phi) / (1.0 - phi); // 4.5
        assert!(
            (tau - expected).abs() / expected < 0.25,
            "AR(1) tau {tau} vs expected {expected}"
        );
    }

    #[test]
    fn constant_series_degenerates() {
        let xs = [2.0; 50];
        assert!(integrated_autocorr_time(&xs).is_nan());
        assert_eq!(effective_sample_size(&xs), 50.0);
    }

    #[test]
    fn ess_never_exceeds_n() {
        let xs: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let ess = effective_sample_size(&xs);
        assert!((1.0..=64.0).contains(&ess));
    }
}
