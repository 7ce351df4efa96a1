//! Workspace-semantic-layer tests over the fixture workspaces in
//! `tests/fixtures/`: cross-crate resolution, cycle tolerance, shadowed
//! names, deterministic propagation order, E001 chain output, U001's
//! caller split, and the missing-file baseline staleness message.

use spice_lint::{lint_workspace, Diagnostic};
use std::path::{Path, PathBuf};

fn fixture_ws(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn e001s(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.rule == "E001").collect()
}

#[test]
fn e001_fires_at_transitive_public_boundaries_with_full_chain() {
    let report = lint_workspace(&fixture_ws("ws_e001"));
    let hits = e001s(&report.diagnostics);
    let places: Vec<(&str, u32)> = hits.iter().map(|d| (d.path.as_str(), d.line)).collect();
    // Exactly two boundaries: alpha::launch (five calls from the
    // entropy site) and beta::deep_roll (two calls). beta::roll uses
    // thread_rng directly — that is D002's diagnostic, not E001's —
    // and alpha::audited is suppressed by its annotated allow.
    assert_eq!(
        places,
        [
            ("crates/alpha/src/lib.rs", 3),
            ("crates/beta/src/lib.rs", 3)
        ],
        "{hits:?}"
    );
    let launch = hits[0];
    assert!(
        launch.message.contains(
            "alpha::launch -> alpha::mid -> alpha::helper -> beta::deep_roll -> \
             beta::spin -> beta::twirl"
        ),
        "chain must be printed in full: {}",
        launch.message
    );
    assert!(
        launch.message.contains("thread_rng"),
        "source token named: {}",
        launch.message
    );
    assert!(
        launch.message.contains("crates/beta/src/lib.rs"),
        "source file named: {}",
        launch.message
    );
}

#[test]
fn shadowed_fn_name_resolves_to_same_module() {
    let report = lint_workspace(&fixture_ws("ws_e001"));
    // alpha::call_local_roll calls the clean local `roll`, not the
    // tainted beta::roll sharing its name — no E001 at its line.
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.rule == "E001" && d.message.contains("call_local_roll")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn direct_entropy_is_d002_not_e001() {
    let report = lint_workspace(&fixture_ws("ws_e001"));
    // beta::roll (direct) and beta::twirl's site produce D002s…
    let d002_lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "D002" && d.path == "crates/beta/src/lib.rs")
        .map(|d| d.line)
        .collect();
    assert_eq!(d002_lines, [13, 18], "{:?}", report.diagnostics);
    // …and no E001 mentions `roll`'s own boundary (fn name at line 17).
    assert!(!e001s(&report.diagnostics)
        .iter()
        .any(|d| d.path == "crates/beta/src/lib.rs" && d.line == 17));
}

#[test]
fn allow_suppressed_e001_stays_suppressed_and_not_stale() {
    let report = lint_workspace(&fixture_ws("ws_e001"));
    // alpha::audited is covered by its annotated allow(E001)…
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.rule == "E001" && d.message.contains("audited")));
    // …and since the allow fired, it must not be reported stale.
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.rule == "A002" && d.path == "crates/alpha/src/lib.rs"),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn propagation_is_deterministic_across_runs() {
    let a = lint_workspace(&fixture_ws("ws_e001"));
    let b = lint_workspace(&fixture_ws("ws_e001"));
    let fmt = |r: &[Diagnostic]| r.iter().map(|d| d.to_string()).collect::<Vec<_>>();
    assert_eq!(fmt(&a.diagnostics), fmt(&b.diagnostics));
    // Diagnostics arrive sorted by (path, line, col, rule).
    let keys: Vec<_> = a
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.col, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn baseline_entry_for_missing_file_gets_distinct_message() {
    let report = lint_workspace(&fixture_ws("ws_stale"));
    let stale: Vec<&Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "A002" && d.path == "lint-allow.toml")
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.diagnostics);
    assert!(
        stale[0].message.contains("no file under that path exists"),
        "missing-file staleness must be called out distinctly: {}",
        stale[0].message
    );
    assert!(stale[0].message.contains("crates/gone/src/old.rs"));
}

#[test]
fn u001_flags_pub_fns_that_only_tests_or_re_exports_name() {
    let report = lint_workspace(&fixture_ws("ws_u001"));
    let places: Vec<(&str, u32)> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "U001")
        .map(|d| (d.path.as_str(), d.line))
        .collect();
    // `reexported`: its one non-test mention is a `pub use`. `orphan`:
    // only the integration test and a `#[cfg(test)]` module call it.
    // `bench_only` has a bench caller, `used` a library caller, `kept`
    // an annotated allow, and `in_binary` lives in a binary: all silent.
    assert_eq!(
        places,
        [("crates/lib/src/inner.rs", 3), ("crates/lib/src/lib.rs", 8)],
        "{:?}",
        report.diagnostics
    );
    assert!(
        !report.diagnostics.iter().any(|d| d.rule == "A002"),
        "the allow on `kept` must fire, not go stale: {:?}",
        report.diagnostics
    );
}
