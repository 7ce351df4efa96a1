//! Phase 3: the production batch on the federated grid (§III, T-batch).
//!
//! Runs the production SMD-JE ensemble at the selected optimal
//! parameters *and* maps the corresponding 72 grid jobs onto the
//! simulated US–UK federation, giving both the science output (the PMF)
//! and the infrastructure output (makespan, CPU-hours).

use crate::config::Scale;
use crate::pipeline::{pore_simulation, run_cell, PmfCell};
use serde::{Deserialize, Serialize};
use spice_gridsim::campaign::{paper_production_jobs, Campaign, CampaignResult};
use spice_gridsim::federation::Federation;
use spice_stats::rng::SeedSequence;

/// Output of the batch phase.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The production PMF at the optimal parameters.
    pub pmf: PmfCell,
    /// Grid execution of the 72-simulation campaign on the federation.
    pub federated: CampaignResult,
    /// The same campaign forced onto the best single site (NCSA).
    pub single_site: CampaignResult,
}

/// Summary facts for reporting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct BatchSummary {
    /// Federated makespan (days).
    pub federated_days: f64,
    /// Single-site makespan (days).
    pub single_site_days: f64,
    /// Campaign CPU-hours.
    pub cpu_hours: f64,
    /// Under a week on the federation?
    pub under_a_week: bool,
}

impl BatchResult {
    /// Condensed summary.
    pub fn summary(&self) -> BatchSummary {
        BatchSummary {
            federated_days: self.federated.makespan_days(),
            single_site_days: self.single_site.makespan_days(),
            cpu_hours: self.federated.cpu_hours,
            under_a_week: self.federated.makespan_days() < 7.0,
        }
    }
}

/// Run the batch phase with the paper's optimal (κ = 100 pN/Å,
/// v = 12.5 Å/ns).
// spice-lint: allow(U001) the paper's three-phase workflow (priming, batch, interactive); tests/phases_workflow.rs runs it end to end
pub fn run_batch(scale: Scale, master_seed: u64) -> BatchResult {
    let seeds = SeedSequence::new(master_seed);
    // Science: the production ensemble (realization count set by scale;
    // the paper's 72 realizations correspond to Scale::Paper).
    let pmf = run_cell(scale, 100.0, 12.5, seeds.child(0));
    let _ = pore_simulation; // the cell factory builds the same system

    // Infrastructure: 72 jobs on the federation vs the best single site.
    let federated = Campaign::paper_batch_phase(seeds.stream(1)).run();
    let mut single = Campaign::paper_batch_phase(seeds.stream(1));
    single.federation = Federation::paper_us_uk().restricted(&[0]);
    let single_site = single.run();
    assert_eq!(federated.records.len(), paper_production_jobs().len());

    BatchResult {
        pmf,
        federated,
        single_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_reproduces_t_batch_claims() {
        let r = run_batch(Scale::Test, 21);
        let s = r.summary();
        assert!(
            s.under_a_week,
            "federated campaign took {} days",
            s.federated_days
        );
        assert!(
            s.single_site_days > 1.8 * s.federated_days,
            "grid advantage missing: {} vs {}",
            s.single_site_days,
            s.federated_days
        );
        assert!((s.cpu_hours - 75_000.0).abs() < 10_000.0);
    }

    #[test]
    fn science_output_present() {
        let r = run_batch(Scale::Test, 22);
        assert_eq!(r.pmf.kappa_pn_per_a, 100.0);
        assert_eq!(r.pmf.v_label, 12.5);
        assert!(!r.pmf.curve.points.is_empty());
    }
}
