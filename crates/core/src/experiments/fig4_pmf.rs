//! F4 — Fig. 4(a–d) + the §IV parameter table (T-opt): PMF Φ vs COM
//! displacement for every (κ, v) cell, the cost-normalized statistical
//! and systematic errors, and the optimal-parameter selection.

use crate::config::Scale;
use crate::pipeline::{run_sweep, PmfCell, SweepResult};
use crate::report::Report;
use spice_smd::PullProtocol;

/// Run the full Fig. 4 sweep and format it.
pub fn run(scale: Scale, master_seed: u64) -> Report {
    let sweep = run_sweep(scale, master_seed);
    report(&sweep)
}

/// Format an already-computed sweep.
pub fn report(sweep: &SweepResult) -> Report {
    let mut r = Report::new(
        "F4",
        "PMF vs displacement for the (κ, v) sweep; optimal-parameter selection (Fig. 4, §IV)",
    );
    r.fact(
        "velocity scaling",
        format!(
            "paper labels × {} (coarse-grained substitute; ratios preserved)",
            sweep.scale.velocity_factor()
        ),
    );

    // Failed realizations drop out of the JE average silently at the
    // ensemble layer; surface the attrition here so a biased Φ is
    // never mistaken for a converged one.
    let n_failed: usize = sweep.cells.iter().map(|c| c.n_failed).sum();
    r.fact(
        "failed realizations",
        if n_failed == 0 {
            "none (every JE average used its full ensemble)".to_string()
        } else {
            let detail: Vec<String> = sweep
                .cells
                .iter()
                .filter(|c| c.n_failed > 0)
                .map(|c| format!("κ={} v={}: {}", c.kappa_pn_per_a, c.v_label, c.n_failed))
                .collect();
            format!(
                "{n_failed} dropped — JE averages on incomplete cells are biased ({})",
                detail.join(", ")
            )
        },
    );

    // Panels (a)–(c): one table per κ, columns per v.
    for &kappa in &PullProtocol::KAPPA_GRID {
        let cells: Vec<_> = sweep
            .cells
            .iter()
            .filter(|c| c.kappa_pn_per_a == kappa)
            .collect();
        if let Some((header, rows)) = panel(&cells, |c| format!("Φ @ v={}", c.v_label)) {
            r.table(
                format!("Fig. 4 panel: κ = {kappa} pN/Å (Φ in kcal/mol)"),
                header,
                rows,
            );
        }
    }

    // Panel (d): κ sweep at v = 12.5.
    // spice-lint: allow(N002) v_label is an exact grid constant, not a computed float
    let cells: Vec<_> = sweep.cells.iter().filter(|c| c.v_label == 12.5).collect();
    if let Some((header, rows)) = panel(&cells, |c| format!("Φ @ κ={}", c.kappa_pn_per_a)) {
        r.table("Fig. 4d: v = 12.5 Å/ns, κ sweep", header, rows);
    }

    // T-opt: the error table.
    let rows: Vec<Vec<String>> = sweep
        .table
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.kappa_pn_per_a),
                format!("{}", c.v_a_per_ns),
                format!("{:.3}", c.sigma_stat),
                format!("{:.3}", c.sigma_sys),
                if c.delta_vs_slower.is_nan() {
                    "-".into()
                } else {
                    format!("{:.3}", c.delta_vs_slower)
                },
                if c.covered { "yes".into() } else { "NO".into() },
                format!("{:.3}", c.score()),
            ]
        })
        .collect();
    r.table(
        "§IV error analysis (σ_stat cost-normalized per §IV-C)",
        vec![
            "κ (pN/Å)".into(),
            "v (Å/ns)".into(),
            "σ_stat".into(),
            "σ_sys".into(),
            "Δ vs v/2".into(),
            "covered".into(),
            "score".into(),
        ],
        rows,
    );
    r.fact(
        "selected optimum",
        format!(
            "κ = {} pN/Å, v = {} Å/ns (converged: {})",
            sweep.selection.kappa_pn_per_a, sweep.selection.v_a_per_ns, sweep.selection.converged
        ),
    );
    r.fact(
        "κ ranking (best score per κ)",
        format!("{:?}", sweep.selection.kappa_ranking),
    );
    r
}

/// One Fig. 4 panel: Φ of each of `cells` (a column headed `label`) on
/// the COM grid of the first cell that has points; `None` when no cell
/// has any (every realization of each failed).
fn panel(
    cells: &[&PmfCell],
    label: impl Fn(&PmfCell) -> String,
) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let grid = cells.iter().find(|c| !c.curve.points.is_empty())?;
    let mut header = vec!["COM disp (Å)".to_string()];
    header.extend(cells.iter().map(|c| label(c)));
    let rows = (grid.curve.points.iter().enumerate())
        .map(|(i, point)| {
            let mut row = vec![format!("{:.2}", point.com_disp)];
            row.extend(cells.iter().map(|c| {
                let phi = c.curve.points.get(i);
                phi.map(|p| format!("{:.3}", p.phi)).unwrap_or_default()
            }));
            row
        })
        .collect();
    Some((header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_twelve_cells() {
        let sweep = run_sweep(Scale::Test, 99);
        assert_eq!(sweep.cells.len(), 12);
        assert_eq!(sweep.table.len(), 12);
        for cell in &sweep.cells {
            assert!(cell.sigma_stat_norm.is_finite());
            assert!(cell.sigma_sys.is_finite());
            assert!(!cell.curve.points.is_empty());
        }
        // Selection lands on a grid point.
        assert!([10.0, 100.0, 1000.0].contains(&sweep.selection.kappa_pn_per_a));
        assert!([12.5, 25.0, 50.0, 100.0].contains(&sweep.selection.v_a_per_ns));
    }

    #[test]
    fn cost_normalization_penalizes_slow_pulls() {
        let sweep = run_sweep(Scale::Test, 100);
        // At fixed κ, σ_stat_norm(v=12.5)/σ_stat_raw = √8 relative scaling
        // vs v=100 by construction.
        let slow = sweep.cell(100.0, 12.5).unwrap();
        let ratio = slow.sigma_stat_norm / slow.sigma_stat_raw;
        assert!((ratio - 8f64.sqrt()).abs() < 1e-9, "got {ratio}");
        let fast = sweep.cell(100.0, 100.0).unwrap();
        assert!((fast.sigma_stat_norm / fast.sigma_stat_raw - 1.0).abs() < 1e-9);
    }

    /// A cell whose every realization failed has no points; the panels
    /// take their COM grid from a cell that has some, and the report
    /// lists the failures.
    #[test]
    fn panels_take_their_grid_from_a_cell_with_points() {
        let mut sweep = run_sweep(Scale::Test, 101);
        let before = report(&sweep).render();
        let first = &mut sweep.cells[0];
        assert_eq!((first.kappa_pn_per_a, first.v_label), (10.0, 12.5));
        first.curve.points.clear();
        first.n_failed = first.n_realizations;
        let text = report(&sweep).render();
        assert!(text.contains("dropped"), "{text}");
        // Every panel keeps its rows; only the failure fact changes.
        assert_eq!(text.lines().count(), before.lines().count(), "{text}");
    }

    #[test]
    fn report_contains_all_panels() {
        let sweep = run_sweep(Scale::Test, 101);
        let r = report(&sweep);
        let text = r.render();
        assert!(text.contains("κ = 10 pN/Å"));
        assert!(text.contains("κ = 100 pN/Å"));
        assert!(text.contains("κ = 1000 pN/Å"));
        assert!(text.contains("Fig. 4d"));
        assert!(text.contains("selected optimum"));
    }
}
