//! Grids and the grid-of-grids federation (Fig. 5).

use crate::resource::{paper_federation_sites, Site, SiteId};
use crate::scheduler::reservation::{co_allocation_success_probability, ManualBookingModel};
use serde::{Deserialize, Serialize};
use spice_stats::rng::seed_stream;

/// A single administrative grid (TeraGrid or NGS).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Grid {
    /// Name.
    pub name: String,
    /// Member site ids.
    pub sites: Vec<SiteId>,
}

/// A federation of independently administered grids.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Federation {
    /// All sites, indexed by [`SiteId`].
    pub sites: Vec<Site>,
    /// Constituent grids.
    pub grids: Vec<Grid>,
}

impl Federation {
    /// The paper's US–UK federation: TeraGrid (NCSA, SDSC, PSC) + UK NGS
    /// (NGS-Oxford, NGS-Leeds, HPCx).
    pub fn paper_us_uk() -> Federation {
        let sites = paper_federation_sites();
        let grids = vec![
            Grid {
                name: "TeraGrid".into(),
                sites: sites
                    .iter()
                    .filter(|s| s.grid == "TeraGrid")
                    .map(|s| s.id)
                    .collect(),
            },
            Grid {
                name: "NGS".into(),
                sites: sites
                    .iter()
                    .filter(|s| s.grid == "NGS")
                    .map(|s| s.id)
                    .collect(),
            },
        ];
        Federation { sites, grids }
    }

    /// Site lookup.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id as usize]
    }

    /// Total processors across the federation.
    pub fn total_procs(&self) -> u32 {
        self.sites.iter().map(|s| s.procs).sum()
    }

    /// A federation restricted to the given sites (e.g. the
    /// single-site comparison of T-batch).
    pub fn restricted(&self, keep: &[SiteId]) -> Federation {
        let sites: Vec<Site> = self
            .sites
            .iter()
            .filter(|s| keep.contains(&s.id))
            .cloned()
            .collect();
        let grids = self
            .grids
            .iter()
            .map(|g| Grid {
                name: g.name.clone(),
                sites: g
                    .sites
                    .iter()
                    .copied()
                    .filter(|id| keep.contains(id))
                    .collect(),
            })
            .filter(|g| !g.sites.is_empty())
            .collect();
        Federation { sites, grids }
    }

    /// Monte-Carlo co-scheduling experiment: attempt to book one advance
    /// reservation *per grid* simultaneously using the given booking
    /// model; co-allocation succeeds only if all succeed. Returns the
    /// empirical success rate over `trials` — the measured counterpart of
    /// [`co_allocation_success_probability`].
    pub fn co_schedule_success_rate(
        &self,
        booking: &ManualBookingModel,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut ok = 0usize;
        for t in 0..trials {
            let all = self.grids.iter().enumerate().all(|(g, _)| {
                booking
                    .simulate(seed_stream(seed, (t * self.grids.len() + g) as u64))
                    .confirmed
            });
            if all {
                ok += 1;
            }
        }
        ok as f64 / trials as f64
    }

    /// Analytic co-allocation success for this federation's grid count.
    pub fn co_allocation_probability(&self, p_single: f64) -> f64 {
        co_allocation_success_probability(p_single, self.grids.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_federation_structure() {
        let f = Federation::paper_us_uk();
        assert_eq!(f.grids.len(), 2);
        assert_eq!(f.grids[0].name, "TeraGrid");
        assert_eq!(f.grids[1].name, "NGS");
        assert_eq!(f.sites.len(), 6);
        assert_eq!(f.total_procs(), 384 + 256 + 256 + 128 + 128 + 256);
    }

    #[test]
    fn restriction_keeps_only_requested_sites() {
        let f = Federation::paper_us_uk();
        let single = f.restricted(&[0]);
        assert_eq!(single.sites.len(), 1);
        assert_eq!(single.grids.len(), 1);
        assert_eq!(single.sites[0].name, "NCSA");
    }

    #[test]
    fn empirical_co_scheduling_matches_analytic() {
        let f = Federation::paper_us_uk();
        let model = ManualBookingModel::paper_manual();
        // Single-grid success probability = 1 - p_abandon = 0.95.
        let p_single = 1.0 - model.p_abandon;
        let analytic = f.co_allocation_probability(p_single);
        let empirical = f.co_schedule_success_rate(&model, 50_000, 17);
        assert!(
            (empirical - analytic).abs() < 0.01,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn more_grids_less_success() {
        let f = Federation::paper_us_uk();
        assert!(f.co_allocation_probability(0.9) < 0.9);
    }
}
