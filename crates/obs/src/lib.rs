//! `spice-obs`: the analysis layer over `spice-telemetry`.
//!
//! PR 4 gave every subsystem a deterministic telemetry substrate; this
//! crate is the consumer side — it turns recorded traces into answers:
//!
//! * [`histo`] — mergeable log-bucketed histograms whose merge is
//!   order-independent, so per-shard aggregates from the indexed DES and
//!   the clone-amortized ensembles combine into identical bytes in any
//!   order.
//! * [`critical`] — aggregated span trees and critical-path extraction:
//!   which of equilibrate / realization / grid.attempt / checkpoint.write
//!   dominates a campaign's logical wall time.
//! * [`stall`] — the steering **stall detector**, operationalizing the
//!   paper's §II/III observation (a 256-proc run stalling over commodity
//!   IP, staying interactive over the lightpath) as inter-arrival-gap
//!   windows on steering-exchange instants.
//! * [`diff`](mod@diff) — noise-aware A/B comparison of two exports (benchmark
//!   JSON or telemetry JSONL) for regression gating.
//! * [`flame`] — collapsed-stack flamegraph export.
//! * [`report`] — the `spice-trace summary` view: span-duration
//!   quantiles, per-group critical paths, and grid/checkpoint/steering
//!   highlight metrics.
//! * [`trace`] / [`json`] — the owned trace model and the dependency-free
//!   JSON value type both are built on.
//!
//! Everything here is a pure function of its input trace: no clocks, no
//! randomness, no environment reads — `spice-trace` output over the same
//! seeded trace is byte-identical across runs and platforms.

pub mod critical;
pub mod diff;
pub mod flame;
pub mod histo;
pub mod json;
pub mod report;
pub mod stall;
pub mod trace;

pub use critical::{critical_path, span_groups, CriticalStep, PathNode, TrackGroup};
pub use diff::{diff, flatten_input, DiffConfig, DiffReport};
pub use histo::{LogHistogram, QuantileSummary};
pub use json::Json;
pub use report::SummaryReport;
pub use stall::{detect, StallConfig, StallReport, StallWindow};
pub use trace::{MetricVal, TraceModel};
