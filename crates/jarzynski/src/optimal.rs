//! Parameter selection: the decision procedure of §IV that concludes
//! "an optimal set of values are κ = 100 pN/Å and v = 12.5 Å/ns".
//!
//! There is no analytic relationship between (κ, v) and the combined
//! error (the paper stresses this), so selection is empirical over the
//! sweep grid:
//!
//! 1. score every cell by the combined error
//!    `√(σ_stat,norm² + σ_sys²)`,
//! 2. pick the κ whose *best* cell is lowest (κ trades the two error
//!    channels against each other),
//! 3. within that κ, walk v downward while the PMF keeps changing
//!    significantly; stop at the smallest v whose halving would make "an
//!    insignificant difference" (paper: v = 12.5 vs 25 at κ = 100).

use serde::{Deserialize, Serialize};

/// Measured errors for one (κ, v) sweep cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct ParameterCell {
    /// Spring constant (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Pulling velocity (Å/ns).
    pub v_a_per_ns: f64,
    /// Cost-normalized statistical error (kcal/mol).
    pub sigma_stat: f64,
    /// Systematic error vs the reference profile (kcal/mol).
    pub sigma_sys: f64,
    /// RMS difference between this cell's PMF and the next-slower v at the
    /// same κ (NaN for the slowest v).
    pub delta_vs_slower: f64,
    /// Whether the ensemble actually covered the full required reaction
    /// coordinate range (a too-soft spring lags its guide and never
    /// produces the PMF over the requested sub-trajectory — §IV-B's
    /// κ = 10 failure). Cells without coverage cannot be selected.
    pub covered: bool,
}

impl ParameterCell {
    /// Combined error score.
    pub fn score(&self) -> f64 {
        (self.sigma_stat * self.sigma_stat + self.sigma_sys * self.sigma_sys).sqrt()
    }
}

/// The selected optimum plus the reasoning trail.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Selection {
    /// Chosen spring constant (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Chosen velocity (Å/ns).
    pub v_a_per_ns: f64,
    /// Score of the chosen cell.
    pub score: f64,
    /// True when halving v from the chosen value makes an insignificant
    /// difference (the paper's v-convergence evidence).
    pub converged: bool,
    /// Per-κ best scores, for reporting.
    pub kappa_ranking: Vec<(f64, f64)>,
}

/// Select the optimal (κ, v) from sweep-cell measurements.
///
/// `significance` is the threshold (kcal/mol) below which two PMFs are
/// considered indistinguishable (the paper's "insignificant difference in
/// PMF values between v = 12.5 and 25").
///
/// # Panics
/// Panics on an empty table.
pub fn select_optimal(cells: &[ParameterCell], significance: f64) -> Selection {
    assert!(!cells.is_empty(), "no sweep cells to select from");
    // Cells that never covered the required range did not produce the
    // observable, and a cell without a finite score (a σ that could not
    // be measured, as with one surviving realization) cannot be ranked;
    // both are ineligible. (If nothing is eligible, fall back to
    // everything rather than panic — the caller's report will show why.)
    let eligible: Vec<ParameterCell> = {
        let scored: Vec<ParameterCell> = cells
            .iter()
            .copied()
            .filter(|c| c.covered && c.score().is_finite())
            .collect();
        if scored.is_empty() {
            cells.to_vec()
        } else {
            scored
        }
    };
    let cells = &eligible[..];
    // Rank κ values by their best cell score.
    let mut kappas: Vec<f64> = cells.iter().map(|c| c.kappa_pn_per_a).collect();
    kappas.sort_by(f64::total_cmp);
    kappas.dedup();
    let mut kappa_ranking: Vec<(f64, f64)> = kappas
        .iter()
        .map(|&k| {
            let best = cells
                .iter()
                .filter(|c| c.kappa_pn_per_a == k)
                .map(ParameterCell::score)
                .fold(f64::INFINITY, f64::min);
            (k, best)
        })
        .collect();
    kappa_ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best_kappa = kappa_ranking[0].0;

    // Within the best κ: candidate vs sorted ascending.
    let mut column: Vec<&ParameterCell> = cells
        .iter()
        .filter(|c| c.kappa_pn_per_a == best_kappa)
        .collect();
    column.sort_by(|a, b| a.v_a_per_ns.total_cmp(&b.v_a_per_ns));

    // Within the best κ, take the slowest velocity — it carries the least
    // dissipation bias. The paper's convergence check (v = 12.5 vs 25 at
    // κ = 100 "insignificantly different") tells us whether that slowest
    // point is trustworthy: if even halving v changes nothing, the PMF
    // has converged in v.
    let chosen = column[0];
    let converged = column
        .get(1)
        .map(|next| next.delta_vs_slower.is_finite() && next.delta_vs_slower < significance)
        .unwrap_or(false);

    Selection {
        kappa_pn_per_a: chosen.kappa_pn_per_a,
        v_a_per_ns: chosen.v_a_per_ns,
        score: chosen.score(),
        converged,
        kappa_ranking,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic sweep with the paper's qualitative structure:
    /// σ_stat: worst at κ=1000, best at κ=10 (before normalization costs);
    /// σ_sys: worst at κ=10 and grows with v.
    fn paper_like_cells() -> Vec<ParameterCell> {
        let mut cells = Vec::new();
        for &kappa in &[10.0, 100.0, 1000.0] {
            for &v in &[12.5, 25.0, 50.0, 100.0] {
                let sigma_stat = match kappa as u64 {
                    10 => 0.5,
                    100 => 1.0,
                    _ => 3.0,
                } * (100.0f64 / v).sqrt()
                    * 0.5;
                let sigma_sys = match kappa as u64 {
                    10 => 4.0,
                    100 => 0.5,
                    _ => 1.0,
                } * (v / 12.5).sqrt()
                    * 0.5;
                let delta_vs_slower = if v == 12.5 {
                    f64::NAN
                } else if kappa == 100.0 && v == 25.0 {
                    0.05 // indistinguishable pair, as in the paper
                } else {
                    1.5
                };
                cells.push(ParameterCell {
                    kappa_pn_per_a: kappa,
                    v_a_per_ns: v,
                    sigma_stat,
                    sigma_sys,
                    delta_vs_slower,
                    covered: true,
                });
            }
        }
        cells
    }

    #[test]
    fn selects_paper_optimum_on_paper_like_data() {
        let sel = select_optimal(&paper_like_cells(), 0.3);
        assert_eq!(
            sel.kappa_pn_per_a, 100.0,
            "κ ranking: {:?}",
            sel.kappa_ranking
        );
        assert_eq!(sel.v_a_per_ns, 12.5);
        assert!(sel.converged, "12.5 vs 25 indistinguishable → converged");
    }

    #[test]
    fn unconverged_sweep_flagged() {
        let mut cells = paper_like_cells();
        // Make 25 vs 12.5 at κ=100 significantly different.
        for c in &mut cells {
            if c.kappa_pn_per_a == 100.0 && c.v_a_per_ns == 25.0 {
                c.delta_vs_slower = 2.0;
            }
        }
        let sel = select_optimal(&cells, 0.3);
        assert_eq!(sel.v_a_per_ns, 12.5, "still picks the slowest");
        assert!(!sel.converged);
    }

    #[test]
    fn kappa_ranking_orders_all_kappas() {
        let sel = select_optimal(&paper_like_cells(), 0.3);
        assert_eq!(sel.kappa_ranking.len(), 3);
        assert!(sel.kappa_ranking[0].1 <= sel.kappa_ranking[1].1);
        assert!(sel.kappa_ranking[1].1 <= sel.kappa_ranking[2].1);
    }

    #[test]
    fn single_cell_table() {
        let cells = vec![ParameterCell {
            kappa_pn_per_a: 50.0,
            v_a_per_ns: 20.0,
            sigma_stat: 1.0,
            sigma_sys: 1.0,
            delta_vs_slower: f64::NAN,
            covered: true,
        }];
        let sel = select_optimal(&cells, 0.3);
        assert_eq!(sel.kappa_pn_per_a, 50.0);
        assert_eq!(sel.v_a_per_ns, 20.0);
        assert!((sel.score - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn score_is_quadrature_sum() {
        let c = ParameterCell {
            kappa_pn_per_a: 1.0,
            v_a_per_ns: 1.0,
            sigma_stat: 3.0,
            sigma_sys: 4.0,
            delta_vs_slower: f64::NAN,
            covered: true,
        };
        assert!((c.score() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_kappa_is_ineligible() {
        let mut cells = paper_like_cells();
        // Make κ=10 (otherwise competitive) fail coverage everywhere.
        for c in &mut cells {
            if c.kappa_pn_per_a == 10.0 {
                c.covered = false;
                c.sigma_stat = 0.01;
                c.sigma_sys = 0.01;
            }
        }
        let sel = select_optimal(&cells, 0.3);
        assert_ne!(sel.kappa_pn_per_a, 10.0, "uncovered κ must not win");
    }

    /// A covered cell whose σ_stat could not be measured (one surviving
    /// realization) scores NaN; it is passed over like an uncovered
    /// cell, also when it is the slowest v of the best κ.
    #[test]
    fn a_cell_without_a_finite_score_is_ineligible() {
        let mut cells = paper_like_cells();
        for c in &mut cells {
            if c.kappa_pn_per_a == 100.0 && c.v_a_per_ns == 12.5 {
                c.sigma_stat = f64::NAN;
            }
        }
        let sel = select_optimal(&cells, 0.3);
        assert_eq!((sel.kappa_pn_per_a, sel.v_a_per_ns), (100.0, 25.0));
        assert!(sel.score.is_finite());
    }

    #[test]
    fn all_uncovered_falls_back() {
        let mut cells = paper_like_cells();
        for c in &mut cells {
            c.covered = false;
        }
        let sel = select_optimal(&cells, 0.3);
        assert_eq!(sel.kappa_pn_per_a, 100.0, "fallback still selects");
    }

    #[test]
    #[should_panic(expected = "no sweep cells")]
    fn empty_table_rejected() {
        select_optimal(&[], 0.1);
    }
}
