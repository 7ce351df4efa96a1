//! Golden tests for the `spice-trace` binary: the summary and stall
//! reports over a fixed traced campaign are pinned byte-for-byte, and
//! repeated invocations must reproduce them exactly — the CLI's output
//! is part of the deterministic surface (CI diffs it across machines).
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p spice-obs --test golden_cli`

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use spice_gridsim::network::{Path, QosProfile};
use spice_steering::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

/// A miniature traced campaign with every trace feature the reports
/// exercise: grid spans with nested checkpoint writes, checkpoint
/// cadence metrics, and two steered sessions — lightpath (key 0) and
/// commodity IP (key 1) — at identical load.
fn build_trace() -> String {
    let t = Telemetry::enabled();

    let site = t.track("grid.site", 3);
    site.enter_at("grid.attempt", 0);
    site.enter_at("equilibrate", 5);
    site.exit_at("equilibrate", 45);
    site.enter_at("realization", 45);
    site.exit_at("realization", 160);
    site.enter_at("checkpoint.write", 160);
    site.instant(
        "checkpoint.bytes",
        vec![("bytes", "65536".into()), ("seq", "1".into())],
    );
    site.exit_at("checkpoint.write", 175);
    site.enter_at("realization", 175);
    site.exit_at("realization", 290);
    site.exit_at("grid.attempt", 300);
    t.counter("grid.checkpoints").add(1);
    t.set_gauge("grid.checkpoint_bytes", 65536.0);

    let cfg = ImdConfig {
        n_exchanges: 120,
        ..ImdConfig::default()
    };
    for (key, profile) in [
        (0, QosProfile::TransAtlanticLightpath),
        (1, QosProfile::TransAtlanticCommodity),
    ] {
        let path = Path::new(vec![profile.link()]);
        simulate_session(&cfg, &path, &path, &t, key);
    }
    t.jsonl()
}

/// Where the traces are written and the CLI runs. Each test passes the
/// CLI a bare file name relative to it, so the reports (which echo their
/// inputs) do not depend on where the checkout lives.
const WORK_DIR: &str = env!("CARGO_TARGET_TMPDIR");

/// Write the trace under `name`; each test uses its own name because
/// tests run in parallel.
fn write_trace(name: &str) {
    fs::write(PathBuf::from(WORK_DIR).join(name), build_trace()).expect("write trace");
}

fn run_cli(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_spice-trace"))
        .current_dir(WORK_DIR)
        .args(args)
        .output()
        .expect("spawn spice-trace");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

fn check_golden(name: &str, got: &str) {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden, got).expect("update golden");
        return;
    }
    let want = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        got, want,
        "spice-trace output drifted from tests/golden/{name}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn summary_output_is_pinned_and_byte_stable() {
    let f = "golden_trace.jsonl";
    write_trace(f);
    let (text, code) = run_cli(&["summary", f]);
    assert_eq!(code, 0);
    let (text2, _) = run_cli(&["summary", f]);
    assert_eq!(text, text2, "summary not byte-identical across reruns");
    check_golden("summary.txt", &text);

    let (json, code) = run_cli(&["summary", "--format", "json", f]);
    assert_eq!(code, 0);
    let (json2, _) = run_cli(&["summary", "--format", "json", f]);
    assert_eq!(json, json2, "summary JSON not byte-identical across reruns");
    check_golden("summary.json", &json);
}

#[test]
fn stalls_output_is_pinned_and_byte_stable() {
    let f = "golden_trace_stalls.jsonl";
    write_trace(f);
    let (json, code) = run_cli(&["stalls", "--format", "json", f]);
    assert_eq!(code, 0, "stalls (no --gate) must exit 0");
    let (json2, _) = run_cli(&["stalls", "--format", "json", f]);
    assert_eq!(json, json2, "stalls JSON not byte-identical across reruns");
    check_golden("stalls.json", &json);

    // The commodity session (key 1) stalls; the lightpath session
    // (key 0) must not — the gate therefore trips on this trace.
    assert!(json.contains("\"key\":1"));
    let (_, gated) = run_cli(&["stalls", "--gate", f]);
    assert_eq!(gated, 1, "--gate must exit 1 when stall windows exist");
}
