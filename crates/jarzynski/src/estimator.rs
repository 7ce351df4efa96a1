//! Free-energy estimators from non-equilibrium work samples.

use spice_stats::log_mean_exp;

/// The Jarzynski exponential-average estimator:
/// `ΔF = −kT ln ⟨exp(−W/kT)⟩`.
///
/// Numerically stabilized via log-sum-exp; returns `NaN` for an empty
/// sample.
pub fn jarzynski_free_energy(works: &[f64], kt: f64) -> f64 {
    assert!(kt > 0.0, "kT must be positive");
    if works.is_empty() {
        return f64::NAN;
    }
    let scaled: Vec<f64> = works.iter().map(|&w| -w / kt).collect();
    -kt * log_mean_exp(&scaled)
}

/// Second-order cumulant approximation:
/// `ΔF ≈ ⟨W⟩ − Var(W) / (2 kT)` — exact for Gaussian work distributions
/// (the stiff-spring / linear-response regime; Park et al. 2003, the
/// paper's Ref. \[10\]).
pub fn cumulant_free_energy(works: &[f64], kt: f64) -> f64 {
    assert!(kt > 0.0, "kT must be positive");
    if works.len() < 2 {
        return f64::NAN;
    }
    spice_stats::mean(works) - spice_stats::variance(works) / (2.0 * kt)
}

/// Mean work — an upper bound on ΔF by the second law; its excess over
/// ΔF is the dissipated work driving §IV-C's systematic error.
pub fn mean_work(works: &[f64]) -> f64 {
    spice_stats::mean(works)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_md::units::KT_300;
    use spice_stats::rng::seed_stream;

    /// Deterministic synthetic Gaussian work sample.
    fn gaussian_works(n: usize, mu: f64, sigma: f64, seed: u64) -> Vec<f64> {
        let g = spice_md::rng::GaussianStream::new(seed);
        (0..n).map(|i| mu + sigma * g.sample(i as u64, 0)).collect()
    }

    #[test]
    fn gaussian_work_has_closed_form() {
        // W ~ N(μ, σ²) ⇒ ΔF = μ − σ²/(2kT) exactly.
        let (mu, sigma) = (5.0, 0.8);
        let works = gaussian_works(200_000, mu, sigma, 3);
        let expected = mu - sigma * sigma / (2.0 * KT_300);
        let je = jarzynski_free_energy(&works, KT_300);
        assert!(
            (je - expected).abs() < 0.05,
            "JE {je} vs closed form {expected}"
        );
        let cum = cumulant_free_energy(&works, KT_300);
        assert!(
            (cum - expected).abs() < 0.02,
            "cumulant {cum} vs closed form {expected}"
        );
    }

    #[test]
    fn je_below_mean_work() {
        // Jensen: ΔF_JE ≤ ⟨W⟩ for any distribution with spread.
        let works = gaussian_works(10_000, 2.0, 1.0, 9);
        assert!(jarzynski_free_energy(&works, KT_300) < mean_work(&works));
    }

    #[test]
    fn zero_dissipation_limit() {
        // All works equal (adiabatic limit): ΔF = W exactly, all three
        // estimators coincide.
        let works = vec![3.2; 50];
        assert!((jarzynski_free_energy(&works, KT_300) - 3.2).abs() < 1e-10);
        assert!((cumulant_free_energy(&works, KT_300) - 3.2).abs() < 1e-10);
        assert!((mean_work(&works) - 3.2).abs() < 1e-12);
    }

    #[test]
    fn survives_large_work_values() {
        // Hundreds of kT — naive exp() would underflow to 0.
        let works = vec![300.0, 310.0, 295.0];
        let je = jarzynski_free_energy(&works, KT_300);
        assert!(je.is_finite());
        // Dominated by the smallest work value, up to kT·ln 3 from the
        // 1/n normalization.
        assert!((je - 295.0).abs() < 1.0, "je = {je}");
    }

    #[test]
    fn single_sample_je_is_that_work() {
        assert!((jarzynski_free_energy(&[7.5], KT_300) - 7.5).abs() < 1e-10);
        assert!(cumulant_free_energy(&[7.5], KT_300).is_nan());
    }

    #[test]
    fn empty_sample_is_nan() {
        assert!(jarzynski_free_energy(&[], KT_300).is_nan());
    }

    #[test]
    fn negative_work_supported() {
        // Downhill pulls do negative work; ΔF must come out negative.
        let works = gaussian_works(50_000, -4.0, 0.5, 11);
        let je = jarzynski_free_energy(&works, KT_300);
        let expected = -4.0 - 0.25 / (2.0 * KT_300);
        assert!((je - expected).abs() < 0.05, "JE {je} vs {expected}");
    }

    #[test]
    fn estimator_bias_shrinks_with_sample_size() {
        // Finite-N JE is biased high; the bias must decrease with N.
        let (mu, sigma) = (0.0, 2.0);
        let expected = mu - sigma * sigma / (2.0 * KT_300);
        let bias = |n: usize| {
            // Average bias over many independent small ensembles.
            let mut total = 0.0;
            let reps = 200;
            for r in 0..reps {
                let works = gaussian_works(n, mu, sigma, seed_stream(77, r));
                total += jarzynski_free_energy(&works, KT_300) - expected;
            }
            total / reps as f64
        };
        let b_small = bias(8);
        let b_large = bias(512);
        assert!(
            b_small > b_large + 0.05,
            "bias must shrink with N: N=8 → {b_small}, N=512 → {b_large}"
        );
        assert!(b_small > 0.0, "JE bias is positive (overestimates ΔF)");
    }
}
