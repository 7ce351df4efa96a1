//! The SMD-JE → PMF pipeline and the Fig. 4 parameter sweep.

use crate::config::Scale;
use spice_jarzynski::error::statistical::{
    cost_normalized_sigma, pmf_bootstrap_sigma, pmf_sigma_scalar,
};
use spice_jarzynski::optimal::{select_optimal, ParameterCell, Selection};
use spice_jarzynski::pmf::{Estimator, PmfCurve};
use spice_md::units::KT_300;
use spice_md::{MdError, Simulation};
use spice_pore::build::{PoreSystemBuilder, SmdSelection};
use spice_pore::dna::DnaParams;
use spice_smd::{
    partition_outcomes, run_ensemble_batched_traced, run_ensembles_batched, ClonedEnsemble,
    PullProtocol, WorkTrajectory,
};
use spice_stats::rng::SeedSequence;
use spice_telemetry::{Telemetry, Track};

/// Leading-bead start height: in the β-barrel just below the
/// constriction, so the 10 Å pull crosses the narrowest point — the
/// paper's "sub-trajectory close to the centre of the pore".
pub const PULL_START_Z: f64 = 46.0;

/// Build the standard SPICE simulation for one realization.
pub fn pore_simulation(scale: Scale, seed: u64) -> Simulation {
    PoreSystemBuilder::new()
        .dna(DnaParams {
            n_bases: scale.dna_bases(),
            ..DnaParams::default()
        })
        .dna_start_z(PULL_START_Z)
        .smd_selection(SmdSelection::WholeStrand)
        .build()
        .into_simulation(0.01, seed)
}

/// One completed (κ, v) sweep cell.
#[derive(Debug, Clone)]
pub struct PmfCell {
    /// Spring constant, paper units (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Velocity, paper units (Å/ns) — the *label*; the engine runs the
    /// scaled value (see [`Scale::velocity_factor`]).
    pub v_label: f64,
    /// Jarzynski PMF curve.
    pub curve: PmfCurve,
    /// Mean-work curve (dissipation upper bound).
    pub mean_work_curve: PmfCurve,
    /// Cost-normalized statistical error (kcal/mol).
    pub sigma_stat_norm: f64,
    /// Raw (un-normalized) bootstrap error.
    pub sigma_stat_raw: f64,
    /// Systematic error vs the reference profile.
    pub sigma_sys: f64,
    /// Fraction of the required span the ensemble-mean COM actually
    /// covered (1.0 = full sub-trajectory).
    pub coverage: f64,
    /// Realizations used.
    pub n_realizations: usize,
    /// Realizations that failed (numerical blow-up) and were dropped
    /// from the estimate — silent attrition biases the Jarzynski
    /// average, so it must be visible in every report.
    pub n_failed: usize,
    /// The raw trajectories (kept for downstream analysis).
    pub trajectories: Vec<WorkTrajectory>,
}

/// The full sweep output: Fig. 4(a–d) plus the §IV parameter table and
/// selection.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// All cells, ordered (κ outer, v inner) per the paper's grids.
    pub cells: Vec<PmfCell>,
    /// The reference ("putatively correct") profile: (s, Φ).
    pub reference: Vec<(f64, f64)>,
    /// Parameter-cell summary for the selection step.
    pub table: Vec<ParameterCell>,
    /// The selected optimum — the paper concludes (100 pN/Å, 12.5 Å/ns).
    pub selection: Selection,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

/// Run one (κ, v) ensemble and estimate its PMF.
/// e2ebench's `fig4_bench` and `sweep_small` call this untraced form.
pub fn run_cell(scale: Scale, kappa: f64, v_label: f64, seeds: SeedSequence) -> PmfCell {
    run_cell_traced(scale, kappa, v_label, seeds, &Telemetry::disabled(), 0)
}

/// [`run_cell`] with telemetry: the whole cell runs under a
/// `core.run_cell` span on the `("core.cell", track_key)` track, the
/// ensemble and its realizations trace through
/// [`run_ensemble_batched_traced`] (same `track_key`), and the estimation
/// stages land as instants once the work values are in. With
/// `Telemetry::disabled()` this *is* `run_cell` — identical results
/// either way.
pub fn run_cell_traced(
    scale: Scale,
    kappa: f64,
    v_label: f64,
    seeds: SeedSequence,
    telemetry: &Telemetry,
    track_key: u64,
) -> PmfCell {
    let cell_track = telemetry.track("core.cell", track_key);
    let _cell_span = cell_track.span("core.run_cell");
    let e = cell_ensemble(scale, kappa, v_label, seeds);
    let results = run_ensemble_batched_traced(
        |seed| pore_simulation(scale, seed),
        &e.protocol,
        e.n,
        e.seeds,
        e.decorrelation_steps,
        telemetry,
        track_key,
    );
    estimate_cell(
        scale,
        kappa,
        v_label,
        seeds,
        results,
        telemetry,
        &cell_track,
    )
}

/// The ensemble of one (κ, v) cell on `seeds`: clone-amortized, one
/// shared equilibration per cell, each realization forked from the
/// snapshot with a fresh noise stream plus a short decorrelation hold
/// (see DESIGN.md), all of them advancing as lanes of vectorized loops
/// (the batched SoA engine, bit-identical to stepping each clone on its
/// own).
fn cell_ensemble(scale: Scale, kappa: f64, v_label: f64, seeds: SeedSequence) -> ClonedEnsemble {
    ClonedEnsemble {
        protocol: scale.protocol(kappa, v_label),
        n: scale.realizations(),
        seeds,
        decorrelation_steps: scale.decorrelation_steps(),
    }
}

/// A cell's PMF from its ensemble's slots `results`: the JE and
/// mean-work curves, the bootstrap σ_stat (raw and cost-normalized) and
/// the coverage, with the attrition counted; `sigma_sys` is left NaN for
/// the sweep to fill. A cell whose every realization failed has no
/// profile to estimate: it comes back with empty curves, NaN σ_stat and
/// coverage 0, so the selection passes it over and the report lists its
/// failures.
fn estimate_cell(
    scale: Scale,
    kappa: f64,
    v_label: f64,
    seeds: SeedSequence,
    results: Vec<Result<WorkTrajectory, MdError>>,
    telemetry: &Telemetry,
    cell_track: &Track,
) -> PmfCell {
    let (mut trajectories, failures) = partition_outcomes(results);
    let n_failed = failures.len();
    if let Some(first) = failures.first() {
        // spice-lint: allow(T001) anti-silent-attrition contract: the drop must reach the operator even untraced; the count also lands in the report's failed-realizations fact
        eprintln!(
            "spice-core: cell (κ={kappa}, v={v_label}) dropped {n_failed} failed \
             realization(s); first: {first}"
        );
    }
    if trajectories.is_empty() {
        let empty = |estimator| PmfCurve {
            kappa_pn_per_a: kappa,
            v_a_per_ns: v_label,
            estimator,
            points: Vec::new(),
        };
        if telemetry.is_enabled() {
            telemetry
                .counter("core.realizations_failed")
                .add(n_failed as u64);
        }
        return PmfCell {
            kappa_pn_per_a: kappa,
            v_label,
            curve: empty(Estimator::Jarzynski),
            mean_work_curve: empty(Estimator::MeanWork),
            sigma_stat_norm: f64::NAN,
            sigma_stat_raw: f64::NAN,
            sigma_sys: f64::NAN,
            coverage: 0.0,
            n_realizations: 0,
            n_failed,
            trajectories,
        };
    }
    // Re-label with paper units so curves carry the Fig. 4 legend values.
    for t in &mut trajectories {
        t.v_a_per_ns = v_label;
        t.kappa_pn_per_a = kappa;
    }
    // Audit: the ensemble handed downstream must be exactly what the
    // scale requested — no duplicated or invented realizations — and
    // every surviving trajectory must be time/coordinate ordered.
    #[cfg(feature = "audit")]
    {
        if trajectories.len() > scale.realizations() {
            // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
            panic!(
                "spice-audit[core.ensemble_count]: cell (κ={kappa}, \
                 v={v_label}) produced {} trajectories for {} requested",
                trajectories.len(),
                scale.realizations()
            );
        }
        for t in &trajectories {
            if !t.is_well_formed() {
                // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                panic!(
                    "spice-audit[core.trajectory_order]: cell (κ={kappa}, \
                     v={v_label}) seed {} produced a non-monotone work \
                     trajectory",
                    t.seed
                );
            }
        }
    }
    let span = scale.pull_distance();
    let npts = scale.pmf_points();
    let curve = PmfCurve::estimate(&trajectories, span, npts, KT_300, Estimator::Jarzynski);
    let mean_work_curve =
        PmfCurve::estimate(&trajectories, span, npts, KT_300, Estimator::MeanWork);
    let sigmas = pmf_bootstrap_sigma(
        &trajectories,
        span,
        npts,
        KT_300,
        Estimator::Jarzynski,
        scale.bootstrap_resamples(),
        seeds.stream(u64::MAX),
    );
    let sigma_stat_raw = pmf_sigma_scalar(&sigmas);
    let sigma_stat_norm = cost_normalized_sigma(
        sigma_stat_raw,
        trajectories.len(),
        v_label,
        *PullProtocol::V_GRID.last().expect("non-empty grid"),
        trajectories.len(),
    );
    let coverage = curve
        .points
        .last()
        .map(|p| (p.com_disp / span).clamp(0.0, 1.0))
        .unwrap_or(0.0);
    if telemetry.is_enabled() {
        telemetry.counter("core.cells_completed").incr();
        telemetry
            .counter("core.realizations_used")
            .add(trajectories.len() as u64);
        telemetry
            .counter("core.realizations_failed")
            .add(n_failed as u64);
        cell_track.instant(
            "core.pmf_estimated",
            vec![
                ("kappa", format!("{kappa}")),
                ("v", format!("{v_label}")),
                ("realizations", trajectories.len().to_string()),
            ],
        );
    }
    PmfCell {
        kappa_pn_per_a: kappa,
        v_label,
        curve,
        mean_work_curve,
        sigma_stat_norm,
        sigma_stat_raw,
        sigma_sys: f64::NAN, // filled in once the reference exists
        coverage,
        n_realizations: trajectories.len(),
        n_failed,
        trajectories,
    }
}

/// Compute the reference profile — the "putatively correct PMF" of
/// §IV-C: thermodynamic integration over static umbrella windows (the
/// adiabatic limit of the pull), at the paper's optimal spring constant,
/// reported on the *COM displacement* axis (the x-axis of Fig. 4: the
/// PMF belongs to the molecule, not the guide).
pub fn reference_profile(scale: Scale, seeds: SeedSequence) -> Vec<(f64, f64)> {
    let n_windows = (scale.pmf_points() / 2).max(5);
    let ti = crate::ti::ti_profile(
        |seed| pore_simulation(scale, seed),
        scale,
        scale.pull_distance(),
        n_windows,
        100.0,
        seeds,
    );
    // Keep strictly monotone in COM so it can be interpolated.
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(ti.profile.len());
    for &(c, phi) in &ti.profile {
        if out.last().is_none_or(|&(pc, _)| c > pc + 1e-9) {
            out.push((c, phi));
        }
    }
    out
}

/// Systematic error of a cell on the COM axis: RMS of
/// `Φ_cell(com) − Φ_ref(com)` over a uniform COM grid spanning the FULL
/// required range. The PMF is needed along the whole sub-trajectory, so
/// where a cell's COM never reached (a weak spring lagging its guide)
/// its profile is clamped at the last measured value — exactly the
/// failure mode Fig. 4a exhibits for κ = 10 pN/Å.
fn sigma_sys_on_com(curve: &PmfCurve, reference: &[(f64, f64)], span: f64) -> f64 {
    // The cell's profile as a (com, phi) table, monotone in com.
    let mut cell: Vec<(f64, f64)> = Vec::with_capacity(curve.points.len());
    for p in &curve.points {
        if cell.last().is_none_or(|&(c, _)| p.com_disp > c + 1e-9) {
            cell.push((p.com_disp, p.phi));
        }
    }
    if reference.len() < 2 {
        return f64::NAN;
    }
    if cell.len() < 2 {
        // The COM never moved measurably: the cell produced no profile at
        // all. Its implicit estimate is Φ ≡ 0; score the full deviation.
        cell = vec![(0.0, 0.0), (1e-9, 0.0)];
    }
    let npts = 16;
    let mut sum = 0.0;
    for k in 1..=npts {
        let com = span * k as f64 / npts as f64;
        // interp_reference clamps beyond the table ends, implementing the
        // "no data beyond coverage" penalty for both curves.
        let d = interp_reference(&cell, com) - interp_reference(reference, com);
        sum += d * d;
    }
    (sum / npts as f64).sqrt()
}

fn interp_reference(reference: &[(f64, f64)], s: f64) -> f64 {
    if reference.is_empty() {
        return 0.0;
    }
    let mut prev = reference[0];
    for &cur in &reference[1..] {
        if cur.0 >= s {
            let span = cur.0 - prev.0;
            if span <= 0.0 {
                return cur.1;
            }
            let w = (s - prev.0) / span;
            return prev.1 * (1.0 - w) + cur.1 * w;
        }
        prev = cur;
    }
    reference.last().expect("non-empty").1
}

/// Run the full Fig. 4 sweep: 3 κ × 4 v cells, reference, error table and
/// parameter selection.
pub fn run_sweep(scale: Scale, master_seed: u64) -> SweepResult {
    let root = SeedSequence::new(master_seed);
    let reference = reference_profile(scale, root.child(999));

    // Every cell's ensemble goes to one lane pool (DESIGN.md §16.6): a v
    // column's three κ cells share their pull length, so they share lane
    // chunks, and the columns spread over the cores, longest first. Each
    // cell's slots are `run_cell`'s, bit for bit, and are estimated the
    // same way.
    let grid: Vec<(f64, f64)> = PullProtocol::KAPPA_GRID
        .iter()
        .flat_map(|&k| PullProtocol::V_GRID.iter().map(move |&v| (k, v)))
        .collect();
    let ensembles: Vec<ClonedEnsemble> = (grid.iter().enumerate())
        .map(|(i, &(k, v))| cell_ensemble(scale, k, v, root.child(i as u64)))
        .collect();
    let slots = run_ensembles_batched(|seed| pore_simulation(scale, seed), &ensembles);
    let untraced = Telemetry::disabled();
    let track = untraced.track("core.cell", 0);
    let mut cells: Vec<PmfCell> = (grid.iter().zip(&ensembles).zip(slots))
        .map(|((&(k, v), e), slots)| estimate_cell(scale, k, v, e.seeds, slots, &untraced, &track))
        .collect();

    // Fill systematic errors against the reference, on the COM axis over
    // the full required range.
    for cell in &mut cells {
        cell.sigma_sys = sigma_sys_on_com(&cell.curve, &reference, scale.pull_distance());
    }

    // Build the selection table, including Δ(PMF) vs the next-slower v.
    let mut table = Vec::with_capacity(cells.len());
    for cell in &cells {
        let slower = cells.iter().find(|c| {
            c.kappa_pn_per_a == cell.kappa_pn_per_a && (c.v_label * 2.0 - cell.v_label).abs() < 1e-9
        });
        let delta = slower
            .map(|s| cell.curve.rms_difference(&s.curve))
            .unwrap_or(f64::NAN);
        table.push(ParameterCell {
            kappa_pn_per_a: cell.kappa_pn_per_a,
            v_a_per_ns: cell.v_label,
            sigma_stat: cell.sigma_stat_norm,
            sigma_sys: cell.sigma_sys,
            delta_vs_slower: delta,
            // "Full sub-trajectory" with a tolerance of one grid cell.
            covered: cell.coverage >= 0.9,
        });
    }
    let selection = select_optimal(&table, 0.5);
    SweepResult {
        cells,
        reference,
        table,
        selection,
        scale,
    }
}

impl SweepResult {
    /// The cell for a (κ, v) pair, if present.
    pub fn cell(&self, kappa: f64, v: f64) -> Option<&PmfCell> {
        self.cells
            .iter()
            .find(|c| c.kappa_pn_per_a == kappa && c.v_label == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_produces_pmf() {
        let cell = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(5));
        assert_eq!(cell.n_realizations, Scale::Test.realizations());
        assert!(!cell.curve.points.is_empty());
        assert!(cell.sigma_stat_raw.is_finite());
        assert!(cell.sigma_stat_norm.is_finite());
        // PMF rises through the constriction approach (confinement +
        // like-charge ring): the end value should be positive.
        let last = cell.curve.points.last().expect("points");
        assert!(last.phi.is_finite(), "PMF must be finite, got {}", last.phi);
    }

    #[test]
    fn jarzynski_below_mean_work_in_real_pipeline() {
        let cell = run_cell(Scale::Test, 100.0, 100.0, SeedSequence::new(6));
        for (je, mw) in cell.curve.points.iter().zip(&cell.mean_work_curve.points) {
            assert!(
                je.phi <= mw.phi + 1e-6,
                "JE {} above mean work {}",
                je.phi,
                mw.phi
            );
        }
    }

    #[test]
    fn dissipation_ordering_between_velocities() {
        // Mean work (dissipation-inclusive) at the fastest pull must
        // exceed the slowest at matched κ — §IV-C's mechanism. Evaluated
        // at the end of the pull where the effect accumulates.
        let seeds = SeedSequence::new(7);
        let slow = run_cell(Scale::Test, 100.0, 12.5, seeds.child(0));
        let fast = run_cell(Scale::Test, 100.0, 100.0, seeds.child(1));
        let end_mw = |c: &PmfCell| c.mean_work_curve.points.last().unwrap().phi;
        assert!(
            end_mw(&fast) > end_mw(&slow),
            "fast-pull mean work {} must exceed slow-pull {}",
            end_mw(&fast),
            end_mw(&slow)
        );
    }

    #[test]
    fn reference_profile_monotone_grid() {
        let r = reference_profile(Scale::Test, SeedSequence::new(8));
        assert!(r.len() >= 2);
        for w in r.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert!(r[0].1.abs() < 1e-9, "reference gauged at 0");
    }

    /// A cell whose every realization failed is a failed cell, not a
    /// panic: empty curves, NaN σ_stat, coverage 0 and every realization
    /// counted as failed; the selection passes it over as uncovered.
    #[test]
    fn an_all_failed_cell_estimates_to_a_failed_cell() {
        let n = Scale::Test.realizations();
        let failed = || MdError::NumericalBlowup {
            step: 7,
            what: "non-finite state during pull".into(),
        };
        let slots = (0..n).map(|_| Err(failed())).collect();
        let telemetry = Telemetry::enabled();
        let track = telemetry.track("core.cell", 0);
        let cell = estimate_cell(
            Scale::Test,
            100.0,
            12.5,
            SeedSequence::new(3),
            slots,
            &telemetry,
            &track,
        );
        assert!(cell.curve.points.is_empty() && cell.mean_work_curve.points.is_empty());
        assert_eq!(cell.curve.estimator, Estimator::Jarzynski);
        assert_eq!(cell.mean_work_curve.estimator, Estimator::MeanWork);
        assert!(cell.sigma_stat_raw.is_nan() && cell.sigma_stat_norm.is_nan());
        assert_eq!(cell.coverage, 0.0);
        assert_eq!((cell.n_realizations, cell.n_failed), (0, n));
        assert!(cell.trajectories.is_empty());
        let failed = telemetry.counter("core.realizations_failed").get();
        assert_eq!(failed, n as u64);
        assert_eq!(telemetry.counter("core.cells_completed").get(), 0);
        let sigma_sys = sigma_sys_on_com(&cell.curve, &[(0.0, 0.0), (4.0, 2.0)], 4.0);
        assert!(sigma_sys.is_finite(), "scored as no profile at all");
    }

    #[test]
    fn interp_reference_endpoints() {
        let r = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)];
        assert_eq!(interp_reference(&r, 0.5), 1.0);
        assert_eq!(interp_reference(&r, 5.0), 3.0);
        assert_eq!(interp_reference(&[], 1.0), 0.0);
    }
}
