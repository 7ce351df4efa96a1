//! The production batch phase (§III, T-batch): map a set of simulations
//! onto the federation and measure makespan and CPU-hours.
//!
//! "We used the grid infrastructure in Fig. 5, to perform to completion
//! 72 parallel MD simulations in under a week with each individual
//! simulation running on 128 or 256 processors (…) This required
//! approximately 75,000 CPU hours: it is unlikely that such computations
//! would be possible in under a week without a grid infrastructure in
//! place."
//!
//! Scheduling model: greedy earliest-completion list scheduling over
//! per-site capacity profiles (profile-based backfill), with stochastic
//! per-job queue-entry delays representing competing background load, and
//! full-site outage windows.

use crate::failure::{blocked_windows, Outage, OutageCause};
use crate::federation::{Federation, Grid};
use crate::job::{Job, JobRecord};
use crate::resource::{Site, SiteId};
use crate::scheduler::profile::CapacityProfile;
use serde::{Deserialize, Serialize};
use spice_stats::rng::{seed_stream, unit_f64};

/// Salt separating the synthetic-campaign generator's seed streams from
/// the engine's own per-(job, site) queue-wait streams.
const SYNTH_SALT: u64 = 0x5359_4E54_4845_5449; // "SYNTHETI"

/// A campaign: jobs + federation + outages.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The resources.
    pub federation: Federation,
    /// The work.
    pub jobs: Vec<Job>,
    /// Outage windows.
    pub outages: Vec<Outage>,
    /// Master seed for stochastic queue waits.
    pub seed: u64,
}

/// Result of simulating a campaign.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CampaignResult {
    /// Per-job execution records.
    pub records: Vec<JobRecord>,
    /// Time from first submission to last completion (hours).
    pub makespan_hours: f64,
    /// Total CPU-hours consumed.
    pub cpu_hours: f64,
    /// Jobs per site.
    pub jobs_per_site: Vec<(SiteId, usize)>,
}

impl CampaignResult {
    /// Makespan in days.
    pub fn makespan_days(&self) -> f64 {
        self.makespan_hours / 24.0
    }
}

/// The paper's 72-simulation production set: half on 128 processors, half
/// on 256, sized so the campaign totals ≈75,000 CPU-hours (the in-text
/// figure), i.e. ≈1,040 CPU-hours per simulation — a few nanoseconds of
/// the 300k-atom system per realization.
pub fn paper_production_jobs() -> Vec<Job> {
    (0..72u32)
        .map(|i| {
            let procs = if i % 2 == 0 { 128 } else { 256 };
            // 75,000 CPU-h over 72 jobs with the 128/256 split:
            // wall hours chosen per class so both classes cost the same.
            let wall = if procs == 128 { 8.14 } else { 4.07 };
            let mut j = Job::new(i, format!("smd-prod-{i:02}"), procs, wall);
            // Realizations release in three waves (parameter priming →
            // production batches), as campaigns actually stage work.
            j.release_hours = (i / 24) as f64 * 2.0;
            j
        })
        .collect()
}

/// The outage history §V-C-4 reports around SC05: UK middleware churn
/// left NGS-Leeds uncoordinatable for the first three weeks (so Oxford
/// was the one usable UK node), and then "as luck would have it" that
/// surviving node suffered a security breach at day 1 that took weeks to
/// sanitize.
pub fn sc05_outages() -> Vec<Outage> {
    vec![
        Outage::new(
            4,
            0.0,
            504.0,
            crate::failure::OutageCause::MiddlewareImmaturity,
        ),
        Outage::security_breach(3, 24.0, 3.0),
    ]
}

impl Campaign {
    /// The paper's production campaign on the full US–UK federation.
    pub fn paper_batch_phase(seed: u64) -> Campaign {
        Campaign {
            federation: Federation::paper_us_uk(),
            jobs: paper_production_jobs(),
            outages: Vec::new(),
            seed,
        }
    }

    /// The production campaign under the SC05 outage history
    /// ([`sc05_outages`]).
    pub fn sc05_outage_phase(seed: u64) -> Campaign {
        Campaign {
            outages: sc05_outages(),
            ..Campaign::paper_batch_phase(seed)
        }
    }

    /// A scale-testing campaign: `n_jobs` jobs over `n_sites` synthetic
    /// sites, deterministic under `seed` (and independent of the
    /// engine's own stochastic streams, which are salted differently).
    ///
    /// The generated population exercises every engine path the paper
    /// federation does, at arbitrary scale:
    ///
    /// * site 0 is a 512-processor, public-IP, lightpath hub, so every
    ///   job — including the widest and the steering-coupled — always
    ///   has at least one feasible site;
    /// * the remaining sites draw capacities from 2005-era tiers
    ///   (64–384 processors), varied speed factors, and a minority of
    ///   hidden-IP sites with and without gateways;
    /// * job widths are tiered (64–512), wall-times are heavy-tailed
    ///   (Pareto, capped at one week of reference hours), ~10% of jobs
    ///   are steering-coupled, and releases arrive in eight waves;
    /// * `n_sites / 3` outage windows hit non-hub sites with cycling
    ///   causes.
    ///
    /// # Panics
    /// Panics when `n_jobs` or `n_sites` is zero.
    pub fn synthetic(n_jobs: usize, n_sites: usize, seed: u64) -> Campaign {
        assert!(n_jobs > 0, "synthetic campaign needs at least one job");
        assert!(n_sites > 0, "synthetic campaign needs at least one site");
        let master = seed ^ SYNTH_SALT;
        let mut sites = Vec::with_capacity(n_sites);
        sites.push(Site {
            id: 0,
            name: "syn-hub".into(),
            grid: "SynWest".into(),
            procs: 512,
            speed: 1.0,
            mean_queue_wait: 8.0,
            hidden_ip: false,
            has_gateway: false,
            lightpath: true,
        });
        for i in 1..n_sites {
            let si = i as u64;
            let tier = [64u32, 128, 256, 384];
            let procs = tier[(seed_stream(master, si) % tier.len() as u64) as usize];
            let speed = 0.8 + 0.4 * unit_f64(seed_stream(master, 0x1000 + si));
            let wait = 4.0 + 10.0 * unit_f64(seed_stream(master, 0x2000 + si));
            let hidden = unit_f64(seed_stream(master, 0x3000 + si)) < 0.2;
            let gateway = hidden && unit_f64(seed_stream(master, 0x4000 + si)) < 0.5;
            let lightpath = unit_f64(seed_stream(master, 0x5000 + si)) < 0.6;
            sites.push(Site {
                id: i as SiteId,
                name: format!("syn-{i:03}"),
                grid: if i % 2 == 0 { "SynWest" } else { "SynEast" }.into(),
                procs,
                speed,
                mean_queue_wait: wait,
                hidden_ip: hidden,
                has_gateway: gateway,
                lightpath,
            });
        }
        let grids = ["SynWest", "SynEast"]
            .iter()
            .map(|g| Grid {
                name: (*g).into(),
                sites: sites
                    .iter()
                    .filter(|s| s.grid == *g)
                    .map(|s| s.id)
                    .collect(),
            })
            .filter(|g| !g.sites.is_empty())
            .collect();

        let wave = n_jobs.div_ceil(8).max(1);
        let jobs = (0..n_jobs)
            .map(|i| {
                let ji = i as u64;
                let u = unit_f64(seed_stream(master, 0x10_0000 + ji));
                let procs = match u {
                    u if u < 0.35 => 64,
                    u if u < 0.65 => 128,
                    u if u < 0.85 => 256,
                    u if u < 0.95 => 384,
                    _ => 512,
                };
                // Heavy-tailed runtimes: Pareto(x_m = 0.3 h, α = 1.3)
                // capped at one reference week, so most jobs are short
                // but the tail keeps sites busy across waves.
                let v = unit_f64(seed_stream(master, 0x20_0000 + ji));
                let wall = (0.3 * (1.0 - v).max(1e-12).powf(-1.0 / 1.3)).min(168.0);
                let mut j = Job::new(i as u32, format!("syn-{i:06}"), procs, wall);
                j.release_hours = (i / wave) as f64 * 2.0;
                if unit_f64(seed_stream(master, 0x30_0000 + ji)) < 0.1 {
                    j = j.steering_coupled();
                }
                j
            })
            .collect();

        let causes = [
            OutageCause::Hardware,
            OutageCause::Maintenance,
            OutageCause::MiddlewareImmaturity,
            OutageCause::SecurityBreach,
        ];
        let outages = (0..n_sites / 3)
            .map(|k| {
                let ki = k as u64;
                // Never the hub: wide jobs must keep a feasible site.
                let site = 1 + (seed_stream(master, 0x40_0000 + ki) % (n_sites as u64 - 1));
                let start = 100.0 * unit_f64(seed_stream(master, 0x50_0000 + ki));
                let dur = 5.0 + 50.0 * unit_f64(seed_stream(master, 0x60_0000 + ki));
                Outage::new(site as SiteId, start, start + dur, causes[k % causes.len()])
            })
            .collect();

        Campaign {
            federation: Federation { sites, grids },
            jobs,
            outages,
            seed,
        }
    }

    /// Simulate the campaign; deterministic under the seed.
    pub fn run(&self) -> CampaignResult {
        assert!(!self.jobs.is_empty(), "campaign has no jobs");
        assert!(!self.federation.sites.is_empty(), "campaign has no sites");
        let mut profiles: Vec<CapacityProfile> = self
            .federation
            .sites
            .iter()
            .map(|s| CapacityProfile::new(s.procs))
            .collect();
        let blocked: Vec<Vec<(f64, f64)>> = self
            .federation
            .sites
            .iter()
            .map(|s| blocked_windows(&self.outages, s.id))
            .collect();

        // Jobs in release order (stable by id) — the order the campaign
        // manager submits them.
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by(|&a, &b| {
            self.jobs[a]
                .release_hours
                .total_cmp(&self.jobs[b].release_hours)
                .then(self.jobs[a].id.cmp(&self.jobs[b].id))
        });

        let mut records = Vec::with_capacity(self.jobs.len());
        let mut jobs_per_site = vec![0usize; self.federation.sites.len()];
        for &ji in &order {
            let job = &self.jobs[ji];
            // Greedy: place on the site with earliest completion.
            let mut best: Option<(usize, f64, f64)> = None; // (site idx, start, finish)
            for (si, site) in self.federation.sites.iter().enumerate() {
                if !site.fits(job.procs) {
                    continue;
                }
                // Stochastic background-queue delay, per (job, site).
                let u = (seed_stream(self.seed, (ji as u64) << 8 | si as u64) >> 11) as f64
                    / (1u64 << 53) as f64;
                let queue_wait = -site.mean_queue_wait * (1.0 - u).max(1e-12).ln();
                let runtime = site.runtime(job.wall_hours);
                let not_before = job.release_hours + queue_wait;
                if let Some(start) =
                    profiles[si].earliest_start(job.procs, runtime, not_before, &blocked[si])
                {
                    let finish = start + runtime;
                    let better = match best {
                        None => true,
                        Some((_, _, bf)) => finish < bf,
                    };
                    if better {
                        best = Some((si, start, finish));
                    }
                }
            }
            let (si, start, finish) = best.unwrap_or_else(|| {
                // spice-lint: allow(P001) planner contract: a job that fits no site is a config error, not a recoverable state
                panic!(
                    "job {} ({} procs) fits nowhere in the federation",
                    job.name, job.procs
                )
            });
            let runtime = finish - start;
            profiles[si].commit(job.procs, start, start + runtime);
            jobs_per_site[si] += 1;
            records.push(JobRecord::clean(
                job.id,
                self.federation.sites[si].id,
                job.release_hours,
                start,
                finish,
                job.procs,
            ));
        }

        let makespan = records.iter().map(|r| r.finished).fold(0.0f64, f64::max);
        let cpu_hours = records.iter().map(JobRecord::cpu_hours).sum();
        CampaignResult {
            records,
            makespan_hours: makespan,
            cpu_hours,
            jobs_per_site: self
                .federation
                .sites
                .iter()
                .zip(&jobs_per_site)
                .map(|(s, &n)| (s.id, n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::OutageCause;

    #[test]
    fn paper_jobs_total_75k_cpu_hours() {
        let jobs = paper_production_jobs();
        assert_eq!(jobs.len(), 72);
        let total: f64 = jobs.iter().map(Job::cpu_hours).sum();
        assert!(
            (total - 75_000.0).abs() < 1_500.0,
            "campaign must total ≈75k CPU-hours, got {total}"
        );
        assert!(jobs.iter().all(|j| j.procs == 128 || j.procs == 256));
    }

    #[test]
    fn federated_campaign_finishes_under_a_week() {
        let result = Campaign::paper_batch_phase(11).run();
        assert_eq!(result.records.len(), 72);
        assert!(
            result.makespan_days() < 7.0,
            "paper claim: < 1 week on the federation; got {:.1} days",
            result.makespan_days()
        );
        assert!((result.cpu_hours - 75_000.0).abs() < 10_000.0);
    }

    #[test]
    fn single_site_takes_much_longer() {
        let fed = Federation::paper_us_uk();
        let mut single = Campaign::paper_batch_phase(11);
        // Best single site: NCSA (largest).
        single.federation = fed.restricted(&[0]);
        let fed_result = Campaign::paper_batch_phase(11).run();
        let single_result = single.run();
        assert!(
            single_result.makespan_hours > 1.8 * fed_result.makespan_hours,
            "single site {} h vs federation {} h",
            single_result.makespan_hours,
            fed_result.makespan_hours
        );
    }

    #[test]
    fn campaign_spreads_over_multiple_sites() {
        let result = Campaign::paper_batch_phase(3).run();
        let used_sites = result.jobs_per_site.iter().filter(|(_, n)| *n > 0).count();
        assert!(
            used_sites >= 4,
            "federation must actually be used: {used_sites} sites"
        );
    }

    #[test]
    fn outage_delays_campaign() {
        let base = Campaign::paper_batch_phase(5).run();
        let mut with_outage = Campaign::paper_batch_phase(5);
        // Knock out the two biggest sites for the first three days.
        with_outage.outages = vec![
            Outage::new(0, 0.0, 72.0, OutageCause::Hardware),
            Outage::new(1, 0.0, 72.0, OutageCause::Maintenance),
        ];
        let degraded = with_outage.run();
        assert!(
            degraded.makespan_hours > base.makespan_hours,
            "outages must hurt: {} vs {}",
            degraded.makespan_hours,
            base.makespan_hours
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Campaign::paper_batch_phase(9).run();
        let b = Campaign::paper_batch_phase(9).run();
        assert_eq!(a, b);
        let c = Campaign::paper_batch_phase(10).run();
        assert_ne!(a.makespan_hours, c.makespan_hours);
    }

    #[test]
    fn records_are_consistent() {
        let result = Campaign::paper_batch_phase(2).run();
        for r in &result.records {
            assert!(r.started >= r.submitted, "start before submission");
            assert!(r.finished > r.started);
            assert!(r.procs == 128 || r.procs == 256);
        }
    }

    #[test]
    fn sc05_outage_scenario_is_well_formed() {
        let outs = sc05_outages();
        assert_eq!(outs.len(), 2);
        // Leeds (site 4) down for three weeks from campaign start.
        assert_eq!(outs[0].site, 4);
        assert_eq!(outs[0].duration(), 504.0);
        // Oxford (site 3) breached at day 1, weeks-long sanitization.
        assert_eq!(outs[1].site, 3);
        assert_eq!(outs[1].cause, OutageCause::SecurityBreach);
        assert!(outs[1].duration() >= 2.0 * 168.0);
        let c = Campaign::sc05_outage_phase(1);
        assert_eq!(c.outages, outs);
        assert_eq!(c.jobs.len(), 72);
    }

    #[test]
    fn synthetic_campaign_is_deterministic_and_well_formed() {
        let a = Campaign::synthetic(200, 9, 42);
        let b = Campaign::synthetic(200, 9, 42);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.federation.sites, b.federation.sites);
        let c = Campaign::synthetic(200, 9, 43);
        assert_ne!(a.jobs, c.jobs, "seed must matter");

        assert_eq!(a.jobs.len(), 200);
        assert_eq!(a.federation.sites.len(), 9);
        assert_eq!(a.outages.len(), 3);
        for (i, s) in a.federation.sites.iter().enumerate() {
            assert_eq!(s.id as usize, i, "site ids must be indices");
        }
        for o in &a.outages {
            assert_ne!(o.site, 0, "outages never hit the hub");
            assert!(o.end > o.start);
        }
        // Every job fits the hub; coupled jobs have a connectable site.
        for j in &a.jobs {
            assert!(a.federation.sites[0].fits(j.procs), "{} too wide", j.name);
            assert!(j.wall_hours > 0.0 && j.wall_hours <= 168.0);
            if j.coupled {
                assert!(
                    a.federation
                        .sites
                        .iter()
                        .any(|s| s.fits(j.procs)
                            && crate::hidden_ip::steering_connectivity(s).is_ok())
                );
            }
        }
        let coupled = a.jobs.iter().filter(|j| j.coupled).count();
        assert!(
            coupled > 0 && coupled < a.jobs.len() / 4,
            "~10% coupled, got {coupled}/200"
        );
        // The heavy tail is actually heavy: spread well past the median.
        let longest = a.jobs.iter().map(|j| j.wall_hours).fold(0.0, f64::max);
        assert!(longest > 10.0, "tail too light: max {longest} h");
    }

    #[test]
    fn synthetic_campaign_replays_through_the_resilient_engine() {
        let c = Campaign::synthetic(150, 7, 7);
        let r = crate::resilience::run_resilient(
            &c,
            &crate::resilience::ResiliencePolicy::checkpoint_failover(),
            &spice_telemetry::Telemetry::disabled(),
        );
        assert_eq!(
            r.result.records.len() + r.abandoned.len(),
            150,
            "every synthetic job completes or is abandoned"
        );
        assert!(r.goodput_cpu_hours > 0.0);
    }

    #[test]
    #[should_panic(expected = "fits nowhere")]
    fn oversized_job_panics() {
        let mut c = Campaign::paper_batch_phase(1);
        c.jobs = vec![Job::new(0, "huge", 100_000, 1.0)];
        c.run();
    }
}
