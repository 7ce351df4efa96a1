//! T-resil — replay the SC05 outage experience (§V-C-4: UK middleware
//! churn leaves one coordinated node, then a security breach takes that
//! node out for weeks) under three fault-handling strategies, on top of
//! the stochastic per-job failure environment of §V (launch failures,
//! node crashes, gateway drops for steering-coupled runs).
//!
//! * **naive** — the 2005 status quo: outages kill work, no checkpoints,
//!   retries pinned to the originally chosen site.
//! * **retry-only** — bounded retries with exponential backoff, site
//!   blacklisting and failover migration, but every restart is from
//!   scratch.
//! * **checkpoint+failover** — the same retry machinery plus hourly
//!   checkpoints, so a killed attempt resumes from its last checkpoint.

use crate::report::Report;
use spice_gridsim::campaign::Campaign;
use spice_gridsim::des::run_des;
use spice_gridsim::metrics::loss_by_kind;
use spice_gridsim::resilience::{run_resilient, ResiliencePolicy, ResilientResult};
use spice_telemetry::Telemetry;

/// The SC05-outage campaign: the 72-job production set under the §V-C-4
/// outage history, with every 12th simulation steering-coupled (the
/// interactive fraction of the campaign, exposed to the hidden-IP /
/// gateway model).
pub fn sc05_campaign(master_seed: u64) -> Campaign {
    let mut c = Campaign::sc05_outage_phase(master_seed);
    for job in c.jobs.iter_mut().step_by(12) {
        job.coupled = true;
    }
    c
}

fn policy_row(name: &str, r: &ResilientResult, baseline_hours: f64) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", r.result.makespan_hours / 24.0),
        format!("{:.2}", r.makespan_inflation(baseline_hours)),
        format!("{:.0}", r.goodput_cpu_hours),
        format!("{:.0}", r.badput_cpu_hours),
        format!("{:.1}%", 100.0 * r.badput_fraction()),
        format!("{:.2}", r.retries_per_job()),
        format!("{:.0}%", 100.0 * r.completion_fraction()),
    ]
}

/// Run T-resil.
pub fn run(master_seed: u64) -> Report {
    let campaign = sc05_campaign(master_seed);

    // Failure-free, outage-free baseline for makespan inflation.
    let baseline = run_des(&Campaign::paper_batch_phase(master_seed));

    let off = Telemetry::disabled();
    let naive = run_resilient(&campaign, &ResiliencePolicy::naive(), &off);
    let retry = run_resilient(&campaign, &ResiliencePolicy::retry_only(), &off);
    let ckpt = run_resilient(&campaign, &ResiliencePolicy::checkpoint_failover(), &off);

    let mut r = Report::new(
        "T-resil",
        "fault-tolerant campaign execution under the SC05 outage history (§V-C)",
    );
    r.fact("jobs", campaign.jobs.len())
        .fact(
            "scenario",
            "Leeds down 0–504 h (middleware), Oxford breached at 24 h for 3 weeks",
        )
        .fact(
            "failure-free baseline makespan",
            format!("{:.1} days", baseline.makespan_days()),
        )
        .fact(
            "naive makespan",
            format!("{:.1} days", naive.result.makespan_hours / 24.0),
        )
        .fact(
            "retry-only makespan",
            format!("{:.1} days", retry.result.makespan_hours / 24.0),
        )
        .fact(
            "checkpoint+failover makespan",
            format!("{:.1} days", ckpt.result.makespan_hours / 24.0),
        )
        .fact(
            "naive badput CPU-h",
            format!("{:.0}", naive.badput_cpu_hours),
        )
        .fact(
            "retry-only badput CPU-h",
            format!("{:.0}", retry.badput_cpu_hours),
        )
        .fact(
            "checkpoint+failover badput CPU-h",
            format!("{:.0}", ckpt.badput_cpu_hours),
        )
        .fact(
            "policy ordering holds",
            format!(
                "{}",
                ckpt.result.makespan_hours < retry.result.makespan_hours
                    && retry.result.makespan_hours < naive.result.makespan_hours
            ),
        );

    r.table(
        "policy comparison (SC05 outage scenario)",
        vec![
            "policy".into(),
            "makespan d".into(),
            "inflation".into(),
            "goodput CPU-h".into(),
            "badput CPU-h".into(),
            "badput %".into(),
            "retries/job".into(),
            "completed".into(),
        ],
        vec![
            policy_row("naive", &naive, baseline.makespan_hours),
            policy_row("retry-only", &retry, baseline.makespan_hours),
            policy_row("ckpt+failover", &ckpt, baseline.makespan_hours),
        ],
    );

    let kind_name = |k: spice_gridsim::failure::FailureKind| -> &'static str {
        match k {
            spice_gridsim::failure::FailureKind::LaunchFailure => "launch-fail",
            spice_gridsim::failure::FailureKind::NodeCrash => "node-crash",
            spice_gridsim::failure::FailureKind::GatewayDrop => "gateway-drop",
            spice_gridsim::failure::FailureKind::OutageKill => "outage-kill",
        }
    };
    r.table(
        "checkpoint+failover failures by kind",
        vec!["kind".into(), "events".into(), "burned CPU-h".into()],
        loss_by_kind(&ckpt)
            .iter()
            .map(|&(k, n, lost)| vec![kind_name(k).into(), n.to_string(), format!("{lost:.0}")])
            .collect(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn makespans(seed: u64) -> (f64, f64, f64) {
        let c = sc05_campaign(seed);
        let off = Telemetry::disabled();
        let naive = run_resilient(&c, &ResiliencePolicy::naive(), &off);
        let retry = run_resilient(&c, &ResiliencePolicy::retry_only(), &off);
        let ckpt = run_resilient(&c, &ResiliencePolicy::checkpoint_failover(), &off);
        (
            naive.result.makespan_hours,
            retry.result.makespan_hours,
            ckpt.result.makespan_hours,
        )
    }

    #[test]
    fn acceptance_ordering_holds_at_fixed_seed() {
        // The issue's acceptance criterion: checkpoint+failover beats
        // retry-only beats naive, deterministically at the master seed.
        let (naive, retry, ckpt) = makespans(123);
        assert!(
            ckpt < retry && retry < naive,
            "ordering violated: ckpt {ckpt:.1} / retry {retry:.1} / naive {naive:.1}"
        );
        // Naive is dominated by the three-week Oxford sanitization: work
        // pinned to the breached site waits out the outage.
        assert!(naive > 400.0, "naive must be breach-dominated: {naive:.1}");
        assert!(retry < 200.0, "failover must dodge the breach: {retry:.1}");
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = run(123);
        let b = run(123);
        assert_eq!(a.render(), b.render());
        let text = a.render();
        assert!(text.contains("policy ordering holds: true"), "{text}");
        assert!(text.contains("ckpt+failover"));
        assert!(text.contains("badput"));
    }

    #[test]
    fn coupled_fraction_is_present() {
        let c = sc05_campaign(7);
        let coupled = c.jobs.iter().filter(|j| j.coupled).count();
        assert_eq!(coupled, 6, "every 12th of 72 jobs is steering-coupled");
    }
}
