//! Fixture-based self-tests: each known-bad snippet must fire its rule
//! at the expected line, clean/allowed/string-heavy snippets must stay
//! silent, and the CLI must exit 0 on the real workspace but nonzero on
//! the fixture directory. Fixture files live in `tests/fixtures/`, which
//! the workspace scan skips by name.

use spice_lint::allow::Baseline;
use spice_lint::{lint_source, Diagnostic};
use std::path::Path;
use std::process::Command;

fn lint(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(rel_path, src, &Baseline::default())
}

fn fired(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn d001_fires_in_sim_crate_at_expected_line() {
    let src = include_str!("fixtures/bad_d001.rs");
    assert_eq!(
        fired(&lint("crates/gridsim/src/bad.rs", src)),
        [("D001", 2)]
    );
    // The same code outside a simulation crate is not a violation.
    assert!(lint("crates/steering/src/bad.rs", src).is_empty());
    // Nor in a sim crate's test tree.
    assert!(lint("crates/gridsim/tests/bad.rs", src).is_empty());
}

#[test]
fn d002_fires_on_both_entropy_sources() {
    let src = include_str!("fixtures/bad_d002.rs");
    assert_eq!(
        fired(&lint("crates/md/src/bad.rs", src)),
        [("D002", 3), ("D002", 4)]
    );
    // Benchmarks time things by design.
    assert!(lint("crates/bench/src/bad.rs", src).is_empty());
}

#[test]
fn n001_fires_once_not_doubled_with_p001() {
    let src = include_str!("fixtures/bad_n001.rs");
    assert_eq!(fired(&lint("crates/stats/src/bad.rs", src)), [("N001", 3)]);
    // N001 applies in test context too: analysis code lives there.
    assert_eq!(
        fired(&lint("crates/stats/tests/bad.rs", src)),
        [("N001", 3)]
    );
}

#[test]
fn n002_fires_at_expected_line() {
    let src = include_str!("fixtures/bad_n002.rs");
    assert_eq!(fired(&lint("crates/md/src/bad.rs", src)), [("N002", 3)]);
}

#[test]
fn n003_fires_on_libm_calls_in_md_step_files() {
    let src = include_str!("fixtures/bad_n003.rs");
    let want = [("N003", 4), ("N003", 5), ("N003", 10), ("N003", 10)];
    for path in [
        "crates/md/src/forces/bonded.rs",
        "crates/md/src/batch.rs",
        "crates/pore/src/potential.rs",
    ] {
        assert_eq!(fired(&lint(path, src)), want, "{path}");
    }
    // detmath, the rest of md and pore, and test trees keep libm.
    assert!(lint("crates/md/src/detmath.rs", src).is_empty());
    assert!(lint("crates/pore/src/dna.rs", src).is_empty());
    assert!(lint("crates/md/tests/bonded.rs", src).is_empty());
}

#[test]
fn annotated_n003_allows_suppress_without_going_stale() {
    let src = include_str!("fixtures/allowed_n003.rs");
    assert!(fired(&lint("crates/md/src/forces/bonded.rs", src)).is_empty());
    // Outside N003's files the same allows suppress nothing and go stale.
    assert_eq!(
        fired(&lint("crates/md/src/rng.rs", src)),
        [("A002", 4), ("A002", 10)]
    );
}

#[test]
fn p001_fires_on_unwrap_and_panic() {
    let src = include_str!("fixtures/bad_p001.rs");
    assert_eq!(
        fired(&lint("crates/md/src/bad.rs", src)),
        [("P001", 3), ("P001", 5)]
    );
    assert!(lint("crates/md/tests/bad.rs", src).is_empty());
}

#[test]
fn p003_fires_on_all_three_alloc_forms_in_batch_kernels() {
    let src = include_str!("fixtures/bad_p003.rs");
    assert_eq!(
        fired(&lint("crates/md/src/batch.rs", src)),
        [("P003", 6), ("P003", 7), ("P003", 8)]
    );
    assert_eq!(
        fired(&lint("crates/smd/src/batch.rs", src)),
        [("P003", 6), ("P003", 7), ("P003", 8)]
    );
    // The same code anywhere else in md/smd is not P003's business.
    assert!(lint("crates/md/src/integrate.rs", src).is_empty());
    assert!(lint("crates/smd/tests/batch.rs", src).is_empty());
}

#[test]
fn t001_fires_on_prints_in_lib_code() {
    let src = include_str!("fixtures/bad_t001.rs");
    assert_eq!(
        fired(&lint("crates/md/src/bad.rs", src)),
        [("T001", 3), ("T001", 4)]
    );
    // Test trees print freely; CLI front-ends get baseline entries.
    assert!(lint("crates/md/tests/bad.rs", src).is_empty());
}

#[test]
fn r001_fires_on_sync_in_parallel_closures_in_sim_crates() {
    let src = include_str!("fixtures/bad_r001.rs");
    assert_eq!(
        fired(&lint("crates/smd/src/bad.rs", src)),
        [("R001", 5), ("R001", 12)]
    );
    // Outside a simulation crate, and in test trees: silent.
    assert!(lint("crates/steering/src/bad.rs", src).is_empty());
    assert!(lint("crates/smd/tests/bad.rs", src).is_empty());
}

#[test]
fn r002_fires_on_parallel_float_reductions_in_sim_crates() {
    let src = include_str!("fixtures/bad_r002.rs");
    assert_eq!(
        fired(&lint("crates/md/src/bad.rs", src)),
        [("R002", 4), ("R002", 8)]
    );
    assert!(lint("crates/stats/src/bad.rs", src).is_empty());
    assert!(lint("crates/md/benches/bad.rs", src).is_empty());
}

#[test]
fn annotated_r_allows_suppress_without_going_stale() {
    let src = include_str!("fixtures/allowed_r.rs");
    assert!(fired(&lint("crates/smd/src/allowed.rs", src)).is_empty());
}

#[test]
fn clean_fixture_is_silent() {
    let src = include_str!("fixtures/clean.rs");
    assert!(fired(&lint("crates/gridsim/src/clean.rs", src)).is_empty());
}

#[test]
fn allowed_fixture_is_silent_with_no_stale_allows() {
    let src = include_str!("fixtures/allowed.rs");
    assert!(fired(&lint("crates/md/src/allowed.rs", src)).is_empty());
}

#[test]
fn string_and_comment_bodies_are_silent() {
    let src = include_str!("fixtures/false_positives.rs");
    assert!(fired(&lint("crates/gridsim/src/fp.rs", src)).is_empty());
}

#[test]
fn stale_allow_is_reported() {
    let src = include_str!("fixtures/stale_allow.rs");
    assert_eq!(fired(&lint("crates/md/src/stale.rs", src)), [("A002", 2)]);
}

#[test]
fn cli_deny_exits_zero_on_the_workspace() {
    let root = spice_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the crate dir");
    let out = Command::new(env!("CARGO_BIN_EXE_spice-lint"))
        .arg("--deny")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spice-lint binary runs");
    assert!(
        out.status.success(),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_deny_exits_nonzero_on_bad_fixtures() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_spice-lint"))
        .arg("--deny")
        .arg("--root")
        .arg(&fixtures)
        .output()
        .expect("spice-lint binary runs");
    assert!(
        !out.status.success(),
        "fixture dir full of violations must fail --deny"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ["D002", "N001", "N002", "P001", "T001", "A002"] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}
