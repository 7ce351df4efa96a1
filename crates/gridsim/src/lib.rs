//! # spice-gridsim
//!
//! A discrete-event simulator of the federated trans-Atlantic grid the
//! paper ran on (Fig. 5: US TeraGrid — NCSA, SDSC, PSC — plus the UK
//! NGS), including every infrastructure phenomenon §V reports:
//!
//! * [`event`] — simulation time and the resilient engine's ordered
//!   event agenda (time order, ties broken by scheduling stamp).
//! * [`resource`] / [`job`] — sites with processor counts and speed
//!   factors; jobs with processor and wall-time demands.
//! * [`scheduler`] — per-site FCFS batch queues with backfill, stochastic
//!   background load, and *advance reservations* including the paper's
//!   manual-booking error model (§V-C-3: "about a dozen emails correcting
//!   three distinct errors introduced by two different administrators").
//! * [`federation`] — grids-of-grids, cross-grid co-scheduling and its
//!   per-grid success decay (§V-C-6).
//! * [`network`] — links with latency/jitter/loss, general-purpose vs
//!   optical-lightpath QoS profiles (§II: UKLight/GLIF), and path
//!   composition.
//! * [`hidden_ip`] — the hidden-IP addressability problem and PSC-style
//!   gateway nodes (qsockets/AGN: TCP-only, shared-gateway bottleneck;
//!   §V-C-1).
//! * [`failure`] — outage injection (including the security-breach
//!   scenario that removed the single usable UK node for weeks, §V-C-4)
//!   and the seeded per-job stochastic failure model (launch failures,
//!   node crashes, gateway connection drops).
//! * [`campaign`] — the production batch phase: map the paper's 72
//!   simulations onto the federation and measure makespan and CPU-hours
//!   (T-batch: < 1 week, ~75,000 CPU-hours).
//! * [`des`] — event-driven (non-clairvoyant) execution of the same
//!   campaign through FCFS queues, for plan-vs-reality ablations.
//! * [`resilience`] — fault-tolerant campaign execution: failure
//!   injection, explicit Drain/Kill outage semantics, checkpoint/restart
//!   and retry-with-failover, with goodput/badput accounting. The engine
//!   is fully indexed (events carry dense indices, width-indexed site
//!   schedulers, allocation-free dispatch) so campaigns of 10⁵–10⁶ jobs
//!   replay in seconds. Golden digests in `tests/des_goldens.rs`, checked
//!   against the seed engine before it was deleted, pin its outputs.
//! * [`durability`] — crash-safe checkpoint/restore of the resilient
//!   engine: atomic generation-numbered snapshots of the live DES,
//!   graceful recovery to the newest intact file, and a deterministic
//!   crash-injection harness. A campaign killed at any event boundary
//!   resumes bit-identically.
//! * [`metrics`] — utilization, wait-time and makespan accounting.
//! * [`trace`] — text Gantt charts and failure listings of campaign
//!   runs.
//!
//! Everything is deterministic under a seed; stochastic elements (queue
//! waits, jitter, human booking errors, failures) use `spice-stats` seed
//! streams.
//!
//! Tracing is a parameter: [`run_resilient`], [`metrics::resilience_summary`]
//! and [`trace::failure_listing`] take a `Telemetry` handle.

#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod campaign;
pub mod des;
pub mod durability;
pub mod event;
pub mod failure;
pub mod federation;
pub mod hidden_ip;
pub mod job;
pub mod metrics;
pub mod network;
pub mod resilience;
pub mod resource;
pub mod scheduler;
pub mod trace;

pub use campaign::{Campaign, CampaignResult};
pub use durability::{
    run_resilient_durable, CrashPlan, DurabilityError, DurableConfig, DurableOutcome,
    RecoveryReport,
};
pub use event::SimTime;
pub use failure::{FailureEvent, FailureKind, FailureModel, Outage, OutageIndex};
pub use federation::{Federation, Grid};
pub use job::{Job, JobId, JobRecord};
pub use resilience::{
    run_resilient, run_resilient_with_stats, CheckpointPolicy, EngineStats, OutagePolicy,
    ResiliencePolicy, ResilientResult, RetryPolicy,
};
pub use resource::{Site, SiteId};
