//! Failure injection: full-site outages (§V-C-4) and the per-job
//! stochastic failure model behind the resilience engine.
//!
//! "for a duration close to SC05, the number of UK resources whose
//! utilization could be coordinated with the US TeraGrid nodes was
//! reduced to one. As luck would have it there was then a security breach
//! on that one UK node. It took several weeks to sanitize that node."
//!
//! Beyond clean outage windows, §V catalogues per-job failure modes:
//! immature middleware that made launches fail (§V-C-2), node crashes
//! that killed running work, and gateway connection failures for
//! steering-coupled jobs (§V-C-1). [`FailureModel`] samples all three
//! deterministically from a seed, so a campaign under failures replays
//! bit-identically.

use crate::job::JobId;
use crate::resource::{Site, SiteId};
use serde::{Deserialize, Serialize};
use spice_stats::rng::{seed_stream, unit_f64};

/// Why a site went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutageCause {
    /// Hardware failure.
    Hardware,
    /// Security incident + sanitization (weeks-scale).
    SecurityBreach,
    /// Scheduled maintenance.
    Maintenance,
    /// Immature middleware deployment making the site unusable for
    /// coupled runs (§V-C-2).
    MiddlewareImmaturity,
}

/// A full-site outage window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// Affected site.
    pub site: SiteId,
    /// Start (hours from campaign begin).
    pub start: f64,
    /// End (hours).
    pub end: f64,
    /// Cause (for reporting).
    pub cause: OutageCause,
}

impl Outage {
    /// Construct an outage.
    ///
    /// # Panics
    /// Panics on an empty window.
    pub fn new(site: SiteId, start: f64, end: f64, cause: OutageCause) -> Self {
        assert!(end > start, "outage window must be non-empty");
        Outage {
            site,
            start,
            end,
            cause,
        }
    }

    /// Duration in hours.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The paper's security-breach scenario: the given site is down for
    /// `weeks` weeks starting at `start_h`.
    pub fn security_breach(site: SiteId, start_h: f64, weeks: f64) -> Self {
        Outage::new(
            site,
            start_h,
            start_h + weeks * 7.0 * 24.0,
            OutageCause::SecurityBreach,
        )
    }
}

/// What killed (or refused to start) a job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The launch itself failed — immature middleware, lost submission
    /// (§V-C-2). No compute time is lost.
    LaunchFailure,
    /// A node crash killed the running job mid-flight.
    NodeCrash,
    /// The gateway-routed steering connection dropped; a coupled run
    /// cannot continue without its external connection (§V-C-1).
    GatewayDrop,
    /// A site outage began and the [`crate::resilience::OutagePolicy`]
    /// was `Kill`: in-flight work was terminated.
    OutageKill,
}

impl FailureKind {
    /// Canonical short label — used by the failure listing, the telemetry
    /// event stream and per-kind counters, so one grep matches all three.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::LaunchFailure => "launch-fail",
            FailureKind::NodeCrash => "node-crash",
            FailureKind::GatewayDrop => "gateway-drop",
            FailureKind::OutageKill => "outage-kill",
        }
    }

    /// Per-kind failure counter name (`grid.failures.<label>`). Static
    /// so the registry export is a closed, diff-able vocabulary
    /// (spice-lint M001) — same strings the `format!` call sites used
    /// to build.
    pub fn failures_counter(&self) -> &'static str {
        match self {
            FailureKind::LaunchFailure => "grid.failures.launch-fail",
            FailureKind::NodeCrash => "grid.failures.node-crash",
            FailureKind::GatewayDrop => "grid.failures.gateway-drop",
            FailureKind::OutageKill => "grid.failures.outage-kill",
        }
    }

    /// Per-kind loss-event counter name (`grid.loss_events.<label>`).
    pub fn loss_events_counter(&self) -> &'static str {
        match self {
            FailureKind::LaunchFailure => "grid.loss_events.launch-fail",
            FailureKind::NodeCrash => "grid.loss_events.node-crash",
            FailureKind::GatewayDrop => "grid.loss_events.gateway-drop",
            FailureKind::OutageKill => "grid.loss_events.outage-kill",
        }
    }

    /// Per-kind lost-CPU-hours gauge name (`grid.lost_cpu_hours.<label>`).
    pub fn lost_cpu_hours_gauge(&self) -> &'static str {
        match self {
            FailureKind::LaunchFailure => "grid.lost_cpu_hours.launch-fail",
            FailureKind::NodeCrash => "grid.lost_cpu_hours.node-crash",
            FailureKind::GatewayDrop => "grid.lost_cpu_hours.gateway-drop",
            FailureKind::OutageKill => "grid.lost_cpu_hours.outage-kill",
        }
    }
}

/// One failed attempt, as logged by the resilience engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Which job.
    pub job: JobId,
    /// Site the attempt was on.
    pub site: SiteId,
    /// Attempt number that failed (1-based).
    pub attempt: u32,
    /// Simulation time of the failure (h).
    pub time: f64,
    /// Failure mode.
    pub kind: FailureKind,
    /// Reference-normalized CPU-hours burned by the attempt.
    pub lost_cpu_hours: f64,
    /// Reference hours of progress preserved by checkpointing (0 without
    /// a checkpoint policy).
    pub saved_hours: f64,
}

/// Seeded per-job stochastic failure model. All probabilities and rates
/// are sampled from `(master seed, job, attempt, site)` streams, so two
/// runs of the same campaign see identical failure schedules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Probability a launch fails on a site with mature middleware.
    pub p_launch: f64,
    /// Probability a launch fails on an immature-middleware site (no
    /// stable lightpath deployment — the §V-C-2 proxy).
    pub p_launch_immature: f64,
    /// Node-crash rate (per on-site wall hour) while a job runs.
    pub crash_rate_per_hour: f64,
    /// Steering-connection drop rate (per on-site wall hour) for coupled
    /// jobs routed through a gateway.
    pub gateway_drop_rate_per_hour: f64,
}

const LAUNCH_SALT: u64 = 0x4C41_554E;
const CRASH_SALT: u64 = 0x4352_4153;
const GATEWAY_SALT: u64 = 0x4741_5445;

/// One sampling stream per (job, attempt, site) triple.
fn stream_index(job: JobId, attempt: u32, site: SiteId) -> u64 {
    (job as u64) | ((attempt as u64) << 32) | ((site as u64) << 48)
}

impl FailureModel {
    /// No failures at all: every launch succeeds, nothing crashes.
    pub fn none() -> FailureModel {
        FailureModel {
            p_launch: 0.0,
            p_launch_immature: 0.0,
            crash_rate_per_hour: 0.0,
            gateway_drop_rate_per_hour: 0.0,
        }
    }

    /// Failure environment calibrated to the SC05 experience: occasional
    /// launch failures on mature sites, frequent ones where middleware
    /// was immature, node crashes at day-scale MTBF (2005-era clusters
    /// under production load), and flaky gateway routing for coupled
    /// runs.
    pub fn sc05() -> FailureModel {
        FailureModel {
            p_launch: 0.05,
            p_launch_immature: 0.35,
            crash_rate_per_hour: 0.03,
            gateway_drop_rate_per_hour: 0.05,
        }
    }

    /// Does the launch of `(job, attempt)` on `site` fail?
    pub fn launch_fails(&self, seed: u64, job: JobId, attempt: u32, site: &Site) -> bool {
        let p = if site.lightpath {
            self.p_launch
        } else {
            self.p_launch_immature
        };
        if p <= 0.0 {
            return false;
        }
        let u = unit_f64(seed_stream(
            seed ^ LAUNCH_SALT,
            stream_index(job, attempt, site.id),
        ));
        u < p
    }

    /// On-site hours until a node crash kills this attempt
    /// (`f64::INFINITY` when the crash rate is zero).
    pub fn crash_after(&self, seed: u64, job: JobId, attempt: u32, site: SiteId) -> f64 {
        exponential_sample(
            self.crash_rate_per_hour,
            seed_stream(seed ^ CRASH_SALT, stream_index(job, attempt, site)),
        )
    }

    /// On-site hours until the gateway-routed steering connection drops
    /// (`f64::INFINITY` when the drop rate is zero). Only meaningful for
    /// coupled jobs whose connection is gateway-routed.
    pub fn gateway_drop_after(&self, seed: u64, job: JobId, attempt: u32, site: SiteId) -> f64 {
        exponential_sample(
            self.gateway_drop_rate_per_hour,
            seed_stream(seed ^ GATEWAY_SALT, stream_index(job, attempt, site)),
        )
    }
}

/// Inverse-CDF exponential sample from 64 seeded bits.
fn exponential_sample(rate_per_hour: f64, bits: u64) -> f64 {
    if rate_per_hour <= 0.0 {
        return f64::INFINITY;
    }
    let u = unit_f64(bits);
    -(1.0 - u).max(1e-12).ln() / rate_per_hour
}

/// Blocked windows per site, as consumed by the capacity profiles.
pub fn blocked_windows(outages: &[Outage], site: SiteId) -> Vec<(f64, f64)> {
    outages
        .iter()
        .filter(|o| o.site == site)
        .map(|o| (o.start, o.end))
        .collect()
}

/// Per-site index over outage windows for O(log n) "how much outage is
/// left at time t" queries on the dispatch hot path.
///
/// Windows are kept start-sorted with a running prefix-maximum of end
/// times; `remaining(now)` binary-searches for the windows starting at
/// or before `now` and reads the largest end among them. Overlapping
/// windows are deliberately *not* merged: the answer must equal
/// `max(end - now)` over the windows covering `now` (the scan the
/// resilience engine originally did), and merging would change it.
#[derive(Debug, Clone, Default)]
pub struct OutageIndex {
    starts: Vec<f64>,
    prefix_max_end: Vec<f64>,
}

impl OutageIndex {
    /// Index the outage windows of `site`.
    pub fn build(outages: &[Outage], site: SiteId) -> OutageIndex {
        let mut windows: Vec<(f64, f64)> = outages
            .iter()
            .filter(|o| o.site == site)
            .map(|o| (o.start, o.end))
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut starts = Vec::with_capacity(windows.len());
        let mut prefix_max_end = Vec::with_capacity(windows.len());
        let mut max_end = f64::NEG_INFINITY;
        for (s, e) in windows {
            max_end = max_end.max(e);
            starts.push(s);
            prefix_max_end.push(max_end);
        }
        OutageIndex {
            starts,
            prefix_max_end,
        }
    }

    /// Hours of outage left at `now`: `max(end - now)` over windows
    /// covering `now` (half-open: `start <= now < end`), 0.0 when
    /// none does.
    pub fn remaining(&self, now: f64) -> f64 {
        let k = self.starts.partition_point(|&s| s <= now);
        if k == 0 {
            return 0.0;
        }
        let max_end = self.prefix_max_end[k - 1];
        if max_end > now {
            max_end - now
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_breach_is_weeks_long() {
        let o = Outage::security_breach(3, 24.0, 3.0);
        assert_eq!(o.cause, OutageCause::SecurityBreach);
        assert_eq!(o.duration(), 3.0 * 168.0);
    }

    #[test]
    fn blocked_windows_filters_by_site() {
        let outs = vec![
            Outage::new(0, 0.0, 1.0, OutageCause::Hardware),
            Outage::new(1, 2.0, 3.0, OutageCause::Maintenance),
            Outage::new(0, 5.0, 6.0, OutageCause::Hardware),
        ];
        assert_eq!(blocked_windows(&outs, 0), vec![(0.0, 1.0), (5.0, 6.0)]);
        assert_eq!(blocked_windows(&outs, 1), vec![(2.0, 3.0)]);
        assert!(blocked_windows(&outs, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        Outage::new(0, 5.0, 5.0, OutageCause::Hardware);
    }

    /// The index must agree exactly with the linear scan it replaces —
    /// including on overlapping windows, where merging would be wrong
    /// (e.g. [0,10] and [5,20] at t=3: covering max is 10-3=7, a merged
    /// [0,20] would claim 17).
    #[test]
    fn outage_index_matches_linear_scan() {
        use spice_stats::rng::{seed_stream, unit_f64};
        let scan = |outages: &[Outage], now: f64| -> f64 {
            outages
                .iter()
                .filter(|o| o.site == 1 && (o.start..o.end).contains(&now))
                .map(|o| o.end - now)
                .fold(0.0, f64::max)
        };
        let mut outages = vec![
            Outage::new(1, 0.0, 10.0, OutageCause::Hardware),
            Outage::new(1, 5.0, 20.0, OutageCause::Maintenance),
            Outage::new(0, 0.0, 100.0, OutageCause::Hardware), // other site
        ];
        let idx = OutageIndex::build(&outages, 1);
        assert_eq!(idx.remaining(3.0), 7.0, "no window merging");
        assert_eq!(idx.remaining(5.0), 15.0);
        assert_eq!(idx.remaining(20.0), 0.0, "half-open end");
        assert_eq!(idx.remaining(-1.0), 0.0);
        // Randomized agreement over a messy overlap structure.
        for i in 0..40u64 {
            let a = 50.0 * unit_f64(seed_stream(7, 2 * i));
            let d = 0.1 + 30.0 * unit_f64(seed_stream(7, 2 * i + 1));
            outages.push(Outage::new(1, a, a + d, OutageCause::Hardware));
        }
        let idx = OutageIndex::build(&outages, 1);
        for t in 0..1000 {
            let now = f64::from(t) * 0.1;
            assert_eq!(idx.remaining(now), scan(&outages, now), "t = {now}");
        }
    }

    #[test]
    fn failure_model_none_never_fails() {
        let m = FailureModel::none();
        for site in crate::resource::paper_federation_sites() {
            for attempt in 1..5 {
                assert!(!m.launch_fails(7, 3, attempt, &site));
            }
            assert_eq!(m.crash_after(7, 3, 1, site.id), f64::INFINITY);
            assert_eq!(m.gateway_drop_after(7, 3, 1, site.id), f64::INFINITY);
        }
    }

    #[test]
    fn failure_sampling_is_deterministic() {
        let m = FailureModel::sc05();
        let site = &crate::resource::paper_federation_sites()[0];
        for attempt in 1..10 {
            assert_eq!(
                m.launch_fails(42, 5, attempt, site),
                m.launch_fails(42, 5, attempt, site)
            );
            assert_eq!(
                m.crash_after(42, 5, attempt, 0),
                m.crash_after(42, 5, attempt, 0)
            );
        }
    }

    #[test]
    fn launch_failure_rate_matches_probability() {
        let m = FailureModel::sc05();
        let sites = crate::resource::paper_federation_sites();
        let mature = &sites[0]; // NCSA: lightpath deployed
        let immature = &sites[4]; // NGS-Leeds: no lightpath
        let trials = 20_000u32;
        let count = |site: &Site| -> f64 {
            (0..trials)
                .filter(|&j| m.launch_fails(9, j, 1, site))
                .count() as f64
                / trials as f64
        };
        assert!((count(mature) - m.p_launch).abs() < 0.01);
        assert!((count(immature) - m.p_launch_immature).abs() < 0.01);
    }

    #[test]
    fn crash_times_follow_exponential_mean() {
        let m = FailureModel::sc05();
        let n = 20_000;
        let mean: f64 = (0..n).map(|j| m.crash_after(3, j, 1, 0)).sum::<f64>() / n as f64;
        let expect = 1.0 / m.crash_rate_per_hour;
        assert!(
            (mean - expect).abs() < 0.05 * expect,
            "crash mean {mean} vs 1/rate {expect}"
        );
    }

    #[test]
    fn attempts_get_independent_samples() {
        // A launch failure on attempt 1 must not imply one on attempt 2:
        // over many jobs the two attempt streams must disagree somewhere.
        let m = FailureModel::sc05();
        let site = &crate::resource::paper_federation_sites()[4];
        let differs =
            (0..500).any(|j| m.launch_fails(11, j, 1, site) != m.launch_fails(11, j, 2, site));
        assert!(differs, "attempt streams are correlated");
    }
}
