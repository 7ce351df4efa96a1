//! Numerically stable exponential averaging.
//!
//! The Jarzynski estimator ΔF = −kT·ln⟨exp(−W/kT)⟩ involves averaging
//! exponentials of work values that can span hundreds of kT. Naive
//! evaluation overflows/underflows; the standard remedy is the
//! log-sum-exp trick implemented here.

/// Stable `ln Σᵢ exp(xᵢ)`.
///
/// Returns `-inf` for an empty slice (the empty sum). Infinite inputs are
/// handled: any `+inf` dominates and yields `+inf`.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if m.is_infinite() {
        return f64::INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// Stable `ln ( (1/n) Σᵢ exp(xᵢ) )`.
pub fn log_mean_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    log_sum_exp(xs) - (xs.len() as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_for_small_values() {
        let xs = [0.1, -0.3, 0.7, 0.0];
        let naive = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn survives_huge_magnitudes() {
        let xs = [1000.0, 1000.0];
        // ln(2 e^1000) = 1000 + ln 2
        assert!((log_sum_exp(&xs) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let ys = [-1000.0, -1000.0];
        assert!((log_sum_exp(&ys) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn empty_sum_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_exp_of_constant_is_constant() {
        let xs = [3.5; 17];
        assert!((log_mean_exp(&xs) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn all_neg_inf_inputs() {
        let xs = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        assert_eq!(log_sum_exp(&xs), f64::NEG_INFINITY);
    }
}
