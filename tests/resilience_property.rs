//! Property tests for the fault-tolerant campaign engine: under random
//! failure schedules and every resilience policy, the simulation must
//! conserve processors, account for every job (completed or
//! retry-exhausted), and replay bit-identically under a fixed seed.

use proptest::prelude::*;
use spice::gridsim::campaign::Campaign;
use spice::gridsim::failure::{FailureModel, Outage, OutageCause};
use spice::gridsim::resilience::{run_resilient, ResiliencePolicy, ResilientResult};
use spice::telemetry::Telemetry;

/// A randomized campaign: the 72-job production set with a random seed
/// and up to three random outage windows.
fn random_campaign(seed: u64, outages: &[(u32, f64, f64)]) -> Campaign {
    let mut c = Campaign::paper_batch_phase(seed);
    c.outages = outages
        .iter()
        .map(|&(site, start, dur)| {
            Outage::new(site % 6, start, start + dur.max(0.5), OutageCause::Hardware)
        })
        .collect();
    // A few coupled jobs so the gateway path is exercised too.
    for job in c.jobs.iter_mut().step_by(10) {
        job.coupled = true;
    }
    c
}

fn policy(index: u8, failures: FailureModel) -> ResiliencePolicy {
    let mut p = match index % 3 {
        0 => ResiliencePolicy::naive(),
        1 => ResiliencePolicy::retry_only(),
        _ => ResiliencePolicy::checkpoint_failover(),
    };
    p.failures = failures;
    p
}

/// Sweep each site's successful-attempt records and assert concurrent
/// processor demand never exceeds the site's capacity.
fn assert_processor_conservation(r: &ResilientResult, c: &Campaign) {
    for site in &c.federation.sites {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for rec in r.result.records.iter().filter(|rec| rec.site == site.id) {
            events.push((rec.started, i64::from(rec.procs)));
            events.push((rec.finished, -i64::from(rec.procs)));
        }
        // Ends before starts at equal times (a finish frees processors
        // for a same-instant start).
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut in_use = 0i64;
        for (t, delta) in events {
            in_use += delta;
            assert!(
                in_use <= i64::from(site.procs),
                "site {} oversubscribed at t={t}: {in_use} > {} procs",
                site.name,
                site.procs
            );
        }
        assert_eq!(in_use, 0, "site {} sweep must return to idle", site.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Processor conservation + full job accounting under random failure
    /// schedules, for all three policies.
    #[test]
    fn jobs_accounted_and_processors_conserved(
        seed in 0u64..1_000_000,
        pol in 0u8..3,
        crash in 0.0f64..0.2,
        p_launch in 0.0f64..0.5,
        site in 0u32..6,
        start in 0.0f64..60.0,
        dur in 1.0f64..200.0,
    ) {
        let c = random_campaign(seed, &[(site, start, dur)]);
        let failures = FailureModel {
            p_launch,
            p_launch_immature: (p_launch * 2.0).min(0.9),
            crash_rate_per_hour: crash,
            gateway_drop_rate_per_hour: crash,
        };
        let r = run_resilient(&c, &policy(pol, failures), &Telemetry::disabled());

        // Every job either completed or exhausted its retries.
        prop_assert_eq!(
            r.result.records.len() + r.abandoned.len(),
            c.jobs.len(),
            "jobs lost by the engine"
        );
        let max_retries = policy(pol, failures).retry.max_retries;
        for &job in &r.abandoned {
            let attempts = r.failures.iter().filter(|f| f.job == job).count() as u32;
            prop_assert_eq!(
                attempts,
                max_retries + 1,
                "abandoned job {} did not exhaust its retries", job
            );
        }
        // No record claims more attempts than the policy allows.
        for rec in &r.result.records {
            prop_assert!(rec.attempts <= max_retries + 1);
            prop_assert!(rec.lost_cpu_hours >= 0.0);
            prop_assert!(rec.finished > rec.started);
        }
        // Accounting identities.
        prop_assert!(r.goodput_cpu_hours >= 0.0);
        prop_assert!(r.badput_cpu_hours >= 0.0);

        assert_processor_conservation(&r, &c);
    }

    /// Bit-identical replay: the same campaign under the same policy and
    /// seed produces an identical result, failures and all.
    #[test]
    fn fixed_seed_replays_bit_identically(
        seed in 0u64..1_000_000,
        pol in 0u8..3,
        site in 0u32..6,
        start in 0.0f64..48.0,
        dur in 1.0f64..300.0,
    ) {
        let c = random_campaign(seed, &[(site, start, dur)]);
        let p = policy(pol, FailureModel::sc05());
        let a = run_resilient(&c, &p, &Telemetry::disabled());
        let b = run_resilient(&c, &p, &Telemetry::disabled());
        prop_assert_eq!(a, b);
    }
}

/// Deterministic spot-check outside the proptest harness: all three
/// policies on the SC05 scenario account for every job.
#[test]
fn sc05_scenario_accounts_for_all_jobs_under_all_policies() {
    let c = Campaign::sc05_outage_phase(123);
    for p in [
        ResiliencePolicy::naive(),
        ResiliencePolicy::retry_only(),
        ResiliencePolicy::checkpoint_failover(),
    ] {
        let r = run_resilient(&c, &p, &Telemetry::disabled());
        assert_eq!(r.result.records.len() + r.abandoned.len(), 72);
        assert_processor_conservation(&r, &c);
    }
}
