//! Experiment-suite smoke tests: every paper artifact regenerates at Test
//! scale, and the headline claims hold in the rendered reports.

use spice::core::config::Scale;
use spice::core::experiments;

fn fact<'a>(r: &'a spice::core::Report, key: &str) -> &'a str {
    &r.facts
        .iter()
        .find(|(k, _)| k.contains(key))
        .unwrap_or_else(|| panic!("report {} lacks fact '{key}'", r.id))
        .1
}

#[test]
fn full_experiment_suite_regenerates_every_artifact() {
    let reports = experiments::run_all(Scale::Test, 20050512);
    assert_eq!(reports.len(), 13);

    let by_id = |id: &str| {
        reports
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("missing {id}"))
    };

    // T-cost: the §I back-of-envelope.
    let cost = by_id("T-cost");
    assert!(fact(cost, "CPU-hours per ns").contains("3072"));
    assert!(fact(cost, "min procs").contains("256"));

    // T-batch: under a week on the federation.
    let batch = by_id("T-batch");
    assert!(
        fact(batch, "federated makespan").contains("under a week: true"),
        "{}",
        fact(batch, "federated makespan")
    );

    // T-hidden: the UDP restriction is visible.
    let hidden = by_id("T-hidden");
    assert!(hidden.render().contains("UNSUPPORTED (gateway, no UDP)"));

    // F4: the sweep selected a grid point and reported a κ ranking.
    let f4 = by_id("F4");
    assert!(f4.render().contains("selected optimum"));

    // T-imd: lightpath beats commodity.
    let imd = by_id("T-imd");
    let lp: f64 = fact(imd, "slowdown on lightpath")
        .trim_end_matches('×')
        .parse()
        .unwrap();
    let gp: f64 = fact(imd, "slowdown on commodity internet")
        .trim_end_matches('×')
        .parse()
        .unwrap();
    assert!(lp < gp, "lightpath {lp} must beat commodity {gp}");

    // T-resil: resilience policies are compared with badput accounting,
    // and failover keeps the campaign off the breached node (an order of
    // magnitude under the naive three-week stall).
    let resil = by_id("T-resil");
    assert!(!fact(resil, "naive badput CPU-h").is_empty());
    assert!(resil.render().contains("ckpt+failover"));
    let naive_days: f64 = fact(resil, "naive makespan")
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let ckpt_days: f64 = fact(resil, "checkpoint+failover makespan")
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        naive_days > 3.0 * ckpt_days,
        "naive {naive_days} d must dwarf checkpoint+failover {ckpt_days} d"
    );

    // No realization of T-bidir's or T-subtraj's ensembles fails at Test
    // scale, and their reports say so.
    assert_eq!(
        fact(by_id("T-bidir"), "failed realizations"),
        "0 forward, 0 reverse"
    );
    assert_eq!(fact(by_id("T-subtraj"), "failed realizations"), "0");

    // F3: stretch contrast above 1.
    let f3 = by_id("F3");
    let contrast: f64 = fact(f3, "stretch contrast")
        .trim_end_matches('×')
        .parse()
        .unwrap();
    assert!(
        contrast > 1.0,
        "stretching must localize at the constriction"
    );
}

#[test]
fn experiment_suite_is_deterministic() {
    let a = experiments::run_all(Scale::Test, 7);
    let b = experiments::run_all(Scale::Test, 7);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.render(),
            y.render(),
            "experiment {} not deterministic",
            x.id
        );
    }
}
