//! Integration: campaign execution traces are consistent between the
//! clairvoyant planner and the DES executor, and capacity is never
//! violated at any instant.

use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::{run_des_with_policy, DispatchPolicy};
use spice::gridsim::trace::gantt;

/// No instant may have more processors committed on a site than it owns —
/// checked by direct interval arithmetic on the records, for both
/// executors.
#[test]
fn capacity_never_violated_at_any_instant() {
    let c = Campaign::paper_batch_phase(13);
    for result in [
        c.run(),
        run_des_with_policy(&c, DispatchPolicy::EarliestCompletion),
    ] {
        for site in &c.federation.sites {
            // Event points: every start/finish on this site.
            let mut events: Vec<f64> = result
                .records
                .iter()
                .filter(|r| r.site == site.id)
                .flat_map(|r| [r.started, r.finished])
                .collect();
            events.sort_by(f64::total_cmp);
            for &t in &events {
                let probe = t + 1e-6;
                let committed: u32 = result
                    .records
                    .iter()
                    .filter(|r| r.site == site.id && r.started <= probe && probe < r.finished)
                    .map(|r| r.procs)
                    .sum();
                assert!(
                    committed <= site.procs,
                    "{}: {committed} procs committed at t={probe:.2} (capacity {})",
                    site.name,
                    site.procs
                );
            }
        }
    }
}

/// Both executors produce renderable traces covering all 72 jobs.
#[test]
fn traces_render_for_both_executors() {
    let c = Campaign::paper_batch_phase(14);
    let plan = c.run();
    let des = run_des_with_policy(&c, DispatchPolicy::RoundRobin);
    for r in [&plan, &des] {
        let g = gantt(r, &c.federation, 50);
        assert_eq!(g.lines().count(), 1 + c.federation.sites.len());
    }
}

/// Round-robin spreads work broadly. (Not necessarily onto every site:
/// with a shared cursor over heterogeneous fitting sets — 128-proc jobs
/// fit 6 sites, 256-proc jobs only 4 — the alternating job sizes can
/// stride past a site entirely. That blind spot is exactly why the
/// greedy broker exists; the ablation keeps the naive policy naive.)
#[test]
fn round_robin_spreads_widely() {
    let c = Campaign::paper_batch_phase(15);
    let des = run_des_with_policy(&c, DispatchPolicy::RoundRobin);
    assert_eq!(des.records.len(), 72, "all jobs placed");
    let used = des.jobs_per_site.iter().filter(|&&(_, n)| n > 0).count();
    assert!(
        used >= 4,
        "round-robin too concentrated: {:?}",
        des.jobs_per_site
    );
}
