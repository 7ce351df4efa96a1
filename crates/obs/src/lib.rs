//! `spice-obs`: the analysis layer over `spice-telemetry`.
//!
//! Every subsystem records a deterministic trace through
//! `spice-telemetry`; this crate is the consumer side — it turns
//! recorded traces into answers:
//!
//! * [`histo`] — log-bucketed histograms whose state does not depend on
//!   recording order, so span durations from trace shards fold into
//!   identical bytes in any order.
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
//! * [`trace`] / [`json`] — the owned trace model (events and metrics
//!   typed by telemetry's own `EventKind` and `MetricValue`: counters
//!   and gauges) and the dependency-free JSON value type both are built
//!   on.
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

pub use critical::{
    critical_path, span_groups, try_span_groups, CriticalStep, PathNode, TrackGroup,
};
pub use diff::{diff, flatten_input, DiffConfig, DiffReport};
pub use histo::{LogHistogram, QuantileSummary};
pub use json::Json;
pub use report::SummaryReport;
pub use stall::{detect, StallConfig, StallReport, StallWindow};
pub use trace::TraceModel;
