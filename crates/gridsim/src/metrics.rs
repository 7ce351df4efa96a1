//! Campaign metrics: utilization, wait statistics, and resilience
//! accounting (goodput vs badput).

use crate::campaign::CampaignResult;
use crate::failure::FailureKind;
use crate::federation::Federation;
use crate::job::JobRecord;
use crate::resilience::ResilientResult;
use spice_telemetry::Telemetry;

/// Per-site utilization over the campaign makespan: committed CPU-hours /
/// (procs × makespan). Returns `(site_id, utilization)` pairs.
pub fn site_utilization(result: &CampaignResult, federation: &Federation) -> Vec<(u32, f64)> {
    let span = result.makespan_hours.max(1e-12);
    federation
        .sites
        .iter()
        .map(|site| {
            let used: f64 = result
                .records
                .iter()
                .filter(|r| r.site == site.id)
                .map(JobRecord::cpu_hours)
                .sum();
            (site.id, used / (site.procs as f64 * span))
        })
        .collect()
}

/// Aggregate federation utilization.
pub fn federation_utilization(result: &CampaignResult, federation: &Federation) -> f64 {
    let span = result.makespan_hours.max(1e-12);
    result.cpu_hours / (federation.total_procs() as f64 * span)
}

/// Distribution summary of queue waits: (mean, median, max) in hours.
/// All three are 0.0 for an empty record set (no NaN propagation).
pub fn wait_summary(result: &CampaignResult) -> (f64, f64, f64) {
    if result.records.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let waits: Vec<f64> = result.records.iter().map(JobRecord::wait).collect();
    (
        spice_stats::mean(&waits),
        spice_stats::descriptive::median(&waits),
        waits.iter().cloned().fold(0.0, f64::max),
    )
}

/// Resilience summary of a campaign execution: `(goodput CPU-h, badput
/// CPU-h, badput fraction, mean retries per job, completion fraction)`.
///
/// An enabled `t` also receives the numbers as `grid.*` gauges, plus
/// per-kind loss counters, so the same JSONL / Chrome trace that carries
/// the event timeline carries the campaign-level accounting.
pub fn resilience_summary(result: &ResilientResult, t: &Telemetry) -> (f64, f64, f64, f64, f64) {
    let summary = (
        result.goodput_cpu_hours,
        result.badput_cpu_hours,
        result.badput_fraction(),
        result.retries_per_job(),
        result.completion_fraction(),
    );
    if t.is_enabled() {
        t.set_gauge("grid.goodput_cpu_hours", summary.0);
        t.set_gauge("grid.badput_cpu_hours", summary.1);
        t.set_gauge("grid.badput_fraction", summary.2);
        t.set_gauge("grid.retries_per_job", summary.3);
        t.set_gauge("grid.completion_fraction", summary.4);
        for (kind, events, lost) in loss_by_kind(result) {
            t.counter(kind.loss_events_counter()).add(events as u64);
            t.set_gauge(kind.lost_cpu_hours_gauge(), lost);
        }
    }
    summary
}

/// CPU-hours lost per failure kind over a resilient execution. Returns
/// `(kind, events, lost_cpu_hours)` for each kind that occurred.
pub fn loss_by_kind(result: &ResilientResult) -> Vec<(FailureKind, usize, f64)> {
    let mut out: Vec<(FailureKind, usize, f64)> = Vec::new();
    for f in &result.failures {
        match out.iter_mut().find(|(k, _, _)| *k == f.kind) {
            Some((_, n, lost)) => {
                *n += 1;
                *lost += f.lost_cpu_hours;
            }
            None => out.push((f.kind, 1, f.lost_cpu_hours)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    #[test]
    fn utilization_bounded() {
        let c = Campaign::paper_batch_phase(4);
        let r = c.run();
        for (_, u) in site_utilization(&r, &c.federation) {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "utilization {u} out of range"
            );
        }
        let total = federation_utilization(&r, &c.federation);
        assert!(
            total > 0.05 && total <= 1.0,
            "federation utilization {total}"
        );
    }

    #[test]
    fn wait_summary_ordering() {
        let c = Campaign::paper_batch_phase(4);
        let r = c.run();
        let (mean, median, max) = wait_summary(&r);
        assert!(max >= mean && max >= median);
        assert!(mean >= 0.0);
    }

    #[test]
    fn wait_summary_empty_is_zero() {
        let empty = CampaignResult {
            records: Vec::new(),
            makespan_hours: 0.0,
            cpu_hours: 0.0,
            jobs_per_site: Vec::new(),
        };
        assert_eq!(wait_summary(&empty), (0.0, 0.0, 0.0));
    }

    #[test]
    fn resilience_summary_is_consistent() {
        let c = Campaign::sc05_outage_phase(5);
        let r = crate::resilience::run_resilient(
            &c,
            &crate::resilience::ResiliencePolicy::checkpoint_failover(),
            &Telemetry::disabled(),
        );
        let (good, bad, frac, retries, completion) = resilience_summary(&r, &Telemetry::disabled());
        assert!(good > 0.0);
        assert!(bad > 0.0, "sc05 scenario must burn badput");
        assert!((frac - bad / (good + bad)).abs() < 1e-12);
        assert!(retries > 0.0);
        assert!(completion > 0.9);
        // loss_by_kind partitions the failure log.
        let by_kind = loss_by_kind(&r);
        let n: usize = by_kind.iter().map(|(_, n, _)| n).sum();
        assert_eq!(n, r.failures.len());
        let lost: f64 = by_kind.iter().map(|(_, _, l)| l).sum();
        let total: f64 = r.failures.iter().map(|f| f.lost_cpu_hours).sum();
        assert!((lost - total).abs() < 1e-9);
    }
}
