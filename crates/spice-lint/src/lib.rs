//! `spice-lint`: workspace determinism & numerical-safety analyzer.
//!
//! SPICE's science rests on bit-reproducible, NaN-free simulation:
//! Jarzynski's exponential work average is dominated by rare tail
//! trajectories, so one nondeterministic iteration order or NaN-unsafe
//! sort silently corrupts the PMF. This crate turns those conventions
//! into enforced invariants, as three layers (DESIGN.md §10):
//!
//! 1. **Syntax** — a dependency-free lexer (`lexer`) plus a
//!    brace-matched scope tree per file (`parser`): modules, fn bodies,
//!    loop bodies, test gating, and rayon-chain regions.
//! 2. **Workspace semantics** — fn definitions and call sites across
//!    every crate resolved into a deterministic call graph
//!    (`callgraph`), with entropy taint propagated backwards.
//! 3. **Rules** — per-file rules (`rules`) and two workspace rules on
//!    top, the interprocedural E001 and the unused-public-fn U001
//!    (`unused`), reporting `file:line:col` diagnostics suppressible
//!    only through a written `// spice-lint: allow(RULE) reason`
//!    annotation or a `lint-allow.toml` baseline entry (`allow`).

pub mod allow;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod unused;

use allow::{parse_baseline, parse_inline, Baseline};
use rules::{run_rules, FileContext, RawDiagnostic};
use spice_telemetry::export::json_escape;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A reportable violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D001` … `A002`).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Run the per-file rules over an already-lexed file, merge in
/// `extra` workspace-level raw diagnostics (E001 and U001 sites owned
/// by this file), and apply both suppression layers plus allow hygiene.
fn lint_lexed(
    rel_path: &str,
    lexed: &lexer::Lexed,
    baseline: &Baseline,
    extra: Vec<RawDiagnostic>,
) -> Vec<Diagnostic> {
    let ctx = FileContext::from_rel_path(rel_path);
    let file_allows = parse_inline(&lexed.comments);
    let mut raw = run_rules(&ctx, lexed);
    raw.extend(extra);

    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let RawDiagnostic {
            rule,
            line,
            col,
            message,
        } = d;
        // Both suppression layers are asked even after a hit, so `used`
        // flags stay accurate for stale-allow detection.
        let inline_hit = file_allows.suppresses(rule, line);
        let baseline_hit = baseline.suppresses(rule, rel_path);
        if inline_hit || baseline_hit {
            continue;
        }
        out.push(Diagnostic {
            rule,
            path: rel_path.to_string(),
            line,
            col,
            message,
        });
    }
    for m in &file_allows.malformed {
        out.push(Diagnostic {
            rule: "A001",
            path: rel_path.to_string(),
            line: m.line,
            col: 1,
            message: m.problem.clone(),
        });
    }
    for a in &file_allows.allows {
        if !a.used.get() {
            out.push(Diagnostic {
                rule: "A002",
                path: rel_path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "stale allow({}): nothing on this or the next line fires that rule",
                    a.rule
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Lint one file's source against the per-file rules, applying inline
/// allows and the baseline. `rel_path` drives crate scoping and must be
/// workspace-relative with `/` separators. The workspace rules E001 and
/// U001 need the whole workspace and only run in [`lint_workspace`].
// spice-lint: allow(U001) the per-file entry point the lint fixture tests drive
pub fn lint_source(rel_path: &str, src: &str, baseline: &Baseline) -> Vec<Diagnostic> {
    lint_lexed(rel_path, &lexer::lex(src), baseline, Vec::new())
}

/// Result of a whole-workspace lint.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All violations, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Directories never scanned: build output, the offline dependency
/// stand-ins (third-party API surface, not workspace code), VCS
/// internals, and lint fixtures (intentionally-bad snippets).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "vendor-stubs" | ".git" | "fixtures")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !skip_dir(&name) {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Load the baseline from `<root>/lint-allow.toml` (an absent file is an
/// empty baseline).
pub fn load_baseline(root: &Path) -> Baseline {
    match fs::read_to_string(root.join("lint-allow.toml")) {
        Ok(src) => parse_baseline(&src),
        Err(_) => Baseline::default(),
    }
}

/// Lint every `.rs` file under `root` (the workspace checkout): the
/// per-file pass on each file, then the workspace call graph for E001
/// and the name scan for U001, then baseline hygiene (parse problems,
/// entries that suppress nothing, and entries whose file no longer
/// exists).
pub fn lint_workspace(root: &Path) -> WorkspaceReport {
    let baseline = load_baseline(root);
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);

    // Phase 1: read + lex everything once; both the per-file rules and
    // the call graph work from the same token streams.
    let mut lexed_files: Vec<(String, lexer::Lexed)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        lexed_files.push((rel, lexer::lex(&src)));
    }

    // Phase 2: the workspace rules — E001 from the call graph, U001
    // from the name scan — grouped by the file that owns the flagged
    // public fn (so its inline allows and baseline entries apply like
    // any other rule).
    let refs: Vec<(String, &lexer::Lexed)> = lexed_files
        .iter()
        .map(|(rel, lexed)| (rel.clone(), lexed))
        .collect();
    let graph = callgraph::CallGraph::build(&refs);
    let mut workspace_raw: BTreeMap<String, Vec<RawDiagnostic>> = BTreeMap::new();
    for (file, d) in graph.e001().into_iter().chain(unused::u001(&graph, &refs)) {
        workspace_raw.entry(file).or_default().push(d);
    }

    let mut report = WorkspaceReport::default();
    for (rel, lexed) in &lexed_files {
        report.files_scanned += 1;
        let extra = workspace_raw.remove(rel).unwrap_or_default();
        report
            .diagnostics
            .extend(lint_lexed(rel, lexed, &baseline, extra));
    }

    // Baseline hygiene: parse problems and entries that suppress
    // nothing anywhere in the workspace are violations too. An unused
    // entry whose path prefix matches no scanned file is a rename/delete
    // leftover and gets the distinct missing-file message.
    for p in &baseline.problems {
        report.diagnostics.push(Diagnostic {
            rule: "A001",
            path: "lint-allow.toml".into(),
            line: 1,
            col: 1,
            message: p.clone(),
        });
    }
    for e in &baseline.entries {
        if !e.used.get() {
            let file_exists = lexed_files
                .iter()
                .any(|(rel, _)| rel.starts_with(e.path.as_str()));
            let message = if file_exists {
                format!(
                    "stale baseline entry: rule {} at path `{}` suppresses nothing",
                    e.rule, e.path
                )
            } else {
                format!(
                    "stale baseline entry: rule {} at path `{}` — no file under that \
                     path exists in the workspace (renamed or deleted?); remove or \
                     update the entry",
                    e.rule, e.path
                )
            };
            report.diagnostics.push(Diagnostic {
                rule: "A002",
                path: "lint-allow.toml".into(),
                line: 1,
                col: 1,
                message,
            });
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// Render a workspace report as stable, sorted JSON — the machine
/// interface CI archives as an artifact. Diagnostics keep the
/// (path, line, col, rule) order [`lint_workspace`] produced, so equal
/// inputs yield byte-equal output.
pub fn report_to_json(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"violations\": {},\n  \"diagnostics\": [",
        report.files_scanned,
        report.diagnostics.len()
    ));
    for (k, d) in report.diagnostics.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\"}}",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Find the workspace root: walk up from `start` looking for a
/// `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_suppresses_and_is_marked_used() {
        let src = "\
let a = b.unwrap(); // spice-lint: allow(P001) invariant: b set in new()
let c = d.unwrap();
";
        let diags = lint_source("crates/md/src/x.rs", src, &Baseline::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "P001");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn allow_above_the_line_works() {
        let src = "\
// spice-lint: allow(P001) checked by caller
let a = b.unwrap();
";
        let diags = lint_source("crates/md/src/x.rs", src, &Baseline::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn stale_allow_reported() {
        let src = "// spice-lint: allow(D001) nothing here uses maps\nlet a = 1;\n";
        let diags = lint_source("crates/md/src/x.rs", src, &Baseline::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "A002");
    }

    #[test]
    fn reasonless_allow_reported_and_does_not_suppress() {
        let src = "let a = b.unwrap(); // spice-lint: allow(P001)\n";
        let diags = lint_source("crates/md/src/x.rs", src, &Baseline::default());
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"P001"), "{diags:?}");
        assert!(rules.contains(&"A001"), "{diags:?}");
    }

    #[test]
    fn baseline_suppresses_by_path_prefix() {
        let baseline = parse_baseline(
            "[[allow]]\nrule = \"P001\"\npath = \"crates/md/src/x.rs\"\nreason = \"legacy\"\n",
        );
        let diags = lint_source("crates/md/src/x.rs", "let a = b.unwrap();", &baseline);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(baseline.entries[0].used.get());
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let report = WorkspaceReport {
            diagnostics: vec![Diagnostic {
                rule: "T001",
                path: "crates/md/src/x.rs".into(),
                line: 3,
                col: 7,
                message: "a \"quoted\"\nmessage\\".into(),
            }],
            files_scanned: 1,
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains(r#"\"quoted\"\nmessage\\"#), "{json}");
        // Same input, same bytes.
        assert_eq!(json, report_to_json(&report));
        // Empty report closes the array cleanly.
        let empty = report_to_json(&WorkspaceReport::default());
        assert!(empty.contains("\"diagnostics\": []"), "{empty}");
    }

    #[test]
    fn json_report_escapes_line_separators() {
        let report = WorkspaceReport {
            diagnostics: vec![Diagnostic {
                rule: "T001",
                path: "crates/md/src/x.rs".into(),
                line: 1,
                col: 1,
                message: "split\u{2028}here\u{7f}".into(),
            }],
            files_scanned: 1,
        };
        let json = report_to_json(&report);
        assert!(json.contains(r"split\u2028here\u007f"), "{json}");
    }
}
