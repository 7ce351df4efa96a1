//! # spice-bench
//!
//! Benchmark harness for the SPICE reproduction. Each `benches/bench_*.rs`
//! target regenerates one paper artifact (see DESIGN.md's experiment
//! index) and prints the corresponding report before timing the
//! underlying kernel:
//!
//! | bench              | artifact |
//! |--------------------|----------|
//! | `bench_build`      | F1 (system assembly, radius profile) |
//! | `bench_steering`   | F2 (steering framework round-trips) |
//! | `bench_translocation` | F3 (stretching at the constriction) |
//! | `bench_fig4`       | F4a–d + T-opt (the (κ,v) sweep) |
//! | `bench_subtraj`    | T-subtraj |
//! | `bench_cost`       | T-cost |
//! | `bench_campaign`   | T-batch + T-fail |
//! | `bench_qos`        | T-imd |
//! | `bench_hidden_ip`  | T-hidden |
//! | `bench_reservation`| T-resv |
//! | `bench_ti`         | T-ti |
//! | `bench_jarzynski`  | estimator micro-kernels |
//! | `bench_md_engine`  | MD substrate kernels (forces, neighbor, steps) |
//! | `bench_scaling`    | T-scale (`run_ensemble` over lane chunks and cores) |
//!
//! Run everything with `cargo bench --workspace`; each target also prints
//! its experiment report so `bench_output.txt` doubles as the
//! paper-vs-measured record.

/// Shared master seed so bench reports match EXPERIMENTS.md.
pub const BENCH_SEED: u64 = 20050512;
