//! Durable campaign drill: run the SC05 outage workload under the
//! crash-safe engine, kill it on purpose, restore, and prove the
//! survivor is bit-identical to an uninterrupted run.
//!
//! ```sh
//! # Uninterrupted reference digest (no disk involved):
//! cargo run --release --example durable_campaign -- reference
//!
//! # Kill the campaign after N events (checkpointing as it goes);
//! # re-invoking resumes from the newest snapshot before dying again:
//! cargo run --release --example durable_campaign -- crash /tmp/drill 300
//! cargo run --release --example durable_campaign -- crash /tmp/drill 700
//!
//! # Restore and finish; prints the same digest format as `reference`:
//! cargo run --release --example durable_campaign -- resume /tmp/drill
//! ```
//!
//! CI runs exactly this sequence and asserts the two digests match —
//! the crash drill from the paper's outage story, mechanized.

use spice::gridsim::campaign::Campaign;
use spice::gridsim::des::DispatchPolicy;
use spice::gridsim::resilience::{run_resilient_with_stats, ResiliencePolicy, ResilientResult};
use spice::gridsim::trace::failure_listing;
use spice::gridsim::{run_resilient_durable, CrashPlan, DurabilityError, DurableConfig};
use spice::telemetry::Telemetry;
use std::process::ExitCode;

const SEED: u64 = 2005;
const EVERY_EVENTS: u64 = 64;

fn workload() -> (Campaign, ResiliencePolicy, DispatchPolicy) {
    (
        Campaign::sc05_outage_phase(SEED),
        ResiliencePolicy::checkpoint_failover(),
        DispatchPolicy::EarliestCompletion,
    )
}

/// FNV-1a over everything an operator would compare between runs: the
/// serialized records, the rendered failure listing, and the telemetry
/// event stream. Bit-identity of the digest ⇒ bit-identity of all three.
fn digest(campaign: &Campaign, result: &ResilientResult, telemetry: &Telemetry) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(serde_json::to_string(result)
        .expect("result serializes")
        .as_bytes());
    eat(failure_listing(result, &campaign.federation, &Telemetry::disabled()).as_bytes());
    eat(telemetry.jsonl().as_bytes());
    h
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (campaign, policy, dispatch) = workload();
    match args.first().map(String::as_str) {
        Some("reference") => {
            let telemetry = Telemetry::enabled();
            let result = run_resilient_with_stats(&campaign, &policy, dispatch, &telemetry).0;
            println!(
                "reference: {} records, {} failures",
                result.result.records.len(),
                result.failures.len()
            );
            println!("digest {:016x}", digest(&campaign, &result, &telemetry));
            ExitCode::SUCCESS
        }
        Some("crash") if args.len() == 3 => {
            let kill: u64 = args[2].parse().expect("kill event count");
            let cfg = DurableConfig {
                every_events: EVERY_EVENTS,
                crash: CrashPlan::KillAfterEvents(kill),
                ..DurableConfig::new(&args[1])
            };
            // The telemetry handle dies with this incarnation; the
            // snapshot carries everything the survivor needs.
            match run_resilient_durable(&campaign, &policy, dispatch, &Telemetry::enabled(), &cfg) {
                Err(DurabilityError::InjectedCrash { after_events }) => {
                    println!("killed as planned after {after_events} events");
                    ExitCode::SUCCESS
                }
                Ok(_) => {
                    eprintln!("campaign finished before event {kill}; nothing was killed");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("unexpected durability error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("resume") if args.len() == 2 => {
            let telemetry = Telemetry::enabled();
            let cfg = DurableConfig {
                every_events: EVERY_EVENTS,
                ..DurableConfig::new(&args[1])
            };
            match run_resilient_durable(&campaign, &policy, dispatch, &telemetry, &cfg) {
                Ok(out) => {
                    match out.recovery.resumed_from {
                        Some(generation) => println!(
                            "resumed from generation {generation} ({} events already replayed)",
                            out.recovery.resumed_events
                        ),
                        None => println!("no snapshot found; ran from the beginning"),
                    }
                    for (generation, why) in &out.recovery.skipped {
                        println!("  skipped generation {generation}: {why}");
                    }
                    println!(
                        "finished: {} records, {} failures, {} snapshots written",
                        out.result.result.records.len(),
                        out.result.failures.len(),
                        out.recovery.snapshots_written
                    );
                    println!("digest {:016x}", digest(&campaign, &out.result, &telemetry));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("recovery failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: durable_campaign reference | crash <dir> <kill_events> | resume <dir>"
            );
            ExitCode::FAILURE
        }
    }
}
