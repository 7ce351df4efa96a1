//! Event-driven campaign execution.
//!
//! [`crate::campaign::Campaign::run`] *plans* with profile-based list
//! scheduling (clairvoyant about runtimes). This module *executes* the
//! same campaign through the discrete-event engine with per-site FCFS +
//! backfill queues and a myopic dispatcher — the grid as it actually
//! behaved, where nothing is clairvoyant. Comparing the two quantifies
//! what 2005-era queue opportunism cost relative to a coordinated plan
//! (the coordination gap §V-C-3 complains about).
//!
//! The execution engine itself lives in [`crate::resilience`]; this
//! module's entry points run it in the failure-free configuration
//! ([`crate::resilience::ResiliencePolicy::none`]), where outages simply
//! block new starts and every job succeeds on its first attempt.

use crate::campaign::{Campaign, CampaignResult};
use crate::resilience::{run_resilient_with_stats, ResiliencePolicy};
use spice_telemetry::Telemetry;

/// Job-placement policy of the federation dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Greedy: cheapest estimated completion (queue wait + backlog +
    /// runtime + known outage time) — what a broker with site state can
    /// do.
    EarliestCompletion,
    /// Round-robin over sites that fit the job — state-free placement.
    RoundRobin,
    /// Seeded-random placement over fitting sites — the "no broker"
    /// baseline.
    Random,
}

/// Execute a campaign through the discrete-event engine with the greedy
/// dispatcher. Deterministic under the campaign seed; returns the same
/// result type as the planner.
pub fn run_des(campaign: &Campaign) -> CampaignResult {
    run_des_with_policy(campaign, DispatchPolicy::EarliestCompletion)
}

/// Execute a campaign with an explicit dispatch policy (scheduling
/// ablation: how much does broker intelligence buy on a federation?).
pub fn run_des_with_policy(campaign: &Campaign, policy: DispatchPolicy) -> CampaignResult {
    let none = ResiliencePolicy::none();
    let (replay, _) = run_resilient_with_stats(campaign, &none, policy, &Telemetry::disabled());
    replay.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;

    #[test]
    fn des_completes_all_72_jobs_under_a_week() {
        let c = Campaign::paper_batch_phase(11);
        let r = run_des(&c);
        assert_eq!(r.records.len(), 72);
        assert!(
            r.makespan_days() < 7.0,
            "DES execution took {:.1} days",
            r.makespan_days()
        );
        assert!((r.cpu_hours - 75_000.0).abs() < 10_000.0);
    }

    #[test]
    fn des_is_deterministic() {
        let c = Campaign::paper_batch_phase(3);
        assert_eq!(run_des(&c), run_des(&c));
    }

    #[test]
    fn des_close_to_clairvoyant_plan() {
        // The myopic DES should be within ~2.5× of the clairvoyant planner
        // (and never beat it by much — sanity both ways).
        let c = Campaign::paper_batch_phase(5);
        let plan = c.run();
        let des = run_des(&c);
        let ratio = des.makespan_hours / plan.makespan_hours;
        assert!(
            (0.6..2.5).contains(&ratio),
            "DES/plan makespan ratio {ratio:.2} implausible ({} vs {})",
            des.makespan_hours,
            plan.makespan_hours
        );
    }

    #[test]
    fn des_respects_outages() {
        let base = run_des(&Campaign::paper_batch_phase(7));
        let mut c = Campaign::paper_batch_phase(7);
        c.outages = vec![
            Outage::new(0, 0.0, 48.0, crate::failure::OutageCause::Hardware),
            Outage::new(1, 0.0, 48.0, crate::failure::OutageCause::Hardware),
        ];
        let degraded = run_des(&c);
        assert!(degraded.makespan_hours >= base.makespan_hours);
        assert_eq!(degraded.records.len(), 72);
        // No job started on a downed site before recovery.
        for r in &degraded.records {
            if r.site == 0 || r.site == 1 {
                assert!(r.started >= 48.0 - 1e-9, "job started during outage: {r:?}");
            }
        }
    }

    #[test]
    fn greedy_dispatcher_beats_blind_policies() {
        let c = Campaign::paper_batch_phase(9);
        let greedy = run_des_with_policy(&c, DispatchPolicy::EarliestCompletion);
        let rr = run_des_with_policy(&c, DispatchPolicy::RoundRobin);
        let rand = run_des_with_policy(&c, DispatchPolicy::Random);
        assert_eq!(rr.records.len(), 72);
        assert_eq!(rand.records.len(), 72);
        // Broker intelligence must not lose to blind placement (allow a
        // small tolerance: stochastic queue waits).
        assert!(
            greedy.makespan_hours <= rr.makespan_hours * 1.1,
            "greedy {} vs round-robin {}",
            greedy.makespan_hours,
            rr.makespan_hours
        );
        assert!(
            greedy.makespan_hours <= rand.makespan_hours * 1.1,
            "greedy {} vs random {}",
            greedy.makespan_hours,
            rand.makespan_hours
        );
    }

    #[test]
    fn records_consistent() {
        let r = run_des(&Campaign::paper_batch_phase(2));
        for rec in &r.records {
            assert!(rec.finished > rec.started);
            assert!(rec.started >= rec.submitted);
            assert_eq!(rec.attempts, 1, "failure-free run must not retry");
            assert_eq!(rec.lost_cpu_hours, 0.0);
        }
    }
}
