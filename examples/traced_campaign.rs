//! Traced campaign: one SMD-JE sweep cell plus the T-resil
//! checkpoint+failover campaign, run under a live telemetry handle.
//! Prints the aggregated span tree, writes the JSONL event stream and a
//! Chrome trace (load `traced_campaign_chrome.json` in `ui.perfetto.dev`
//! or `chrome://tracing`), and proves on the spot that instrumentation
//! never perturbs results: the traced runs are compared bit-for-bit
//! against untraced reruns.
//!
//! ```sh
//! cargo run --release --example traced_campaign [master_seed]
//! ```

use spice_core::config::Scale;
use spice_core::experiments::resilience::sc05_campaign;
use spice_core::pipeline::{run_cell, run_cell_traced};
use spice_gridsim::metrics::resilience_summary;
use spice_gridsim::network::{Path, QosProfile};
use spice_gridsim::trace::failure_listing;
use spice_gridsim::{run_resilient, ResiliencePolicy};
use spice_stats::rng::SeedSequence;
use spice_steering::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

fn main() {
    let master_seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(123);
    let telemetry = Telemetry::enabled();

    // ---- SMD-JE: one sweep cell at the paper's selected optimum ------
    let (kappa, v) = (100.0, 12.5);
    let seeds = SeedSequence::new(master_seed);
    let cell = run_cell_traced(Scale::Test, kappa, v, seeds, &telemetry, 0);
    println!(
        "cell (κ={kappa} pN/Å, v={v} Å/ns): {} realizations, coverage {:.2}, σ_stat {:.3}",
        cell.n_realizations, cell.coverage, cell.sigma_stat_raw
    );

    // ---- T-resil: checkpoint+failover under the SC05 outage ----------
    let campaign = sc05_campaign(master_seed);
    let policy = ResiliencePolicy::checkpoint_failover();
    let resil = run_resilient(&campaign, &policy, &telemetry);
    let listing = failure_listing(&resil, &campaign.federation, &telemetry);
    let (goodput, badput, ..) = resilience_summary(&resil, &telemetry);
    println!(
        "T-resil ckpt+failover: makespan {:.1} d, goodput {goodput:.0} CPU-h, \
         badput {badput:.0} CPU-h, {} failures",
        resil.result.makespan_hours / 24.0,
        resil.failures.len()
    );
    println!("\nfailure log (first lines):");
    for line in listing.lines().take(6) {
        println!("{line}");
    }

    // ---- T-imd: steered sessions, lightpath vs commodity IP ----------
    // Identical load over both profiles; the exchange-cadence instants
    // land on `("steering.session", 0)` (lightpath) and `(.., 1)`
    // (commodity), where `spice-trace stalls` separates the two.
    let imd_cfg = ImdConfig {
        seed: master_seed,
        ..ImdConfig::default()
    };
    for (key, profile) in [
        (0u64, QosProfile::TransAtlanticLightpath),
        (1u64, QosProfile::TransAtlanticCommodity),
    ] {
        let net = Path::new(vec![profile.link()]);
        let stats = simulate_session(&imd_cfg, &net, &net, &telemetry, key);
        println!(
            "T-imd {:?}: slowdown {:.2}x, {} retransmits over {} exchanges",
            profile,
            1.0 + stats.stall_ms / stats.compute_ms,
            stats.retransmits,
            stats.exchanges
        );
    }

    // ---- Determinism check: traced == untraced, bit for bit ----------
    let cell_plain = run_cell(Scale::Test, kappa, v, SeedSequence::new(master_seed));
    let works: Vec<f64> = cell.trajectories.iter().map(|t| t.final_work()).collect();
    let works_plain: Vec<f64> = cell_plain
        .trajectories
        .iter()
        .map(|t| t.final_work())
        .collect();
    assert_eq!(works, works_plain, "telemetry perturbed the SMD ensemble");
    let resil_plain = run_resilient(&campaign, &policy, &Telemetry::disabled());
    assert_eq!(resil, resil_plain, "telemetry perturbed the DES campaign");
    println!("\ndeterminism: traced runs bit-identical to untraced reruns ✓");

    // ---- Exports ------------------------------------------------------
    println!("\n{}", telemetry.summary_tree());
    std::fs::write("traced_campaign.jsonl", telemetry.jsonl())
        .expect("write traced_campaign.jsonl");
    std::fs::write("traced_campaign_chrome.json", telemetry.chrome_trace())
        .expect("write traced_campaign_chrome.json");
    println!("wrote traced_campaign.jsonl and traced_campaign_chrome.json");
}
