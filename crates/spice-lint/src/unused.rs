//! Rule U001: a public library fn that no program names.
//!
//! Works by name on the token streams `lint_workspace` already lexed,
//! with the candidates taken from the call graph's fn definitions. A
//! `pub fn` in the non-test part of a library crate (`crates/*/src`,
//! without the binaries and without `crates/bench`) fires when no
//! identifier token of non-test code anywhere in the workspace spells
//! its name, `use` items and fn declarations aside. Test code is the
//! `tests/` directories plus the `#[cfg(test)]` and `#[test]` scopes;
//! examples and benches are callers, unlike `FileContext::test_file`'s
//! split. A name several fns share counts as mentioned for all of them,
//! so the rule under-reports rather than guess which one a call reaches.

use crate::callgraph::CallGraph;
use crate::lexer::{Lexed, TokKind, Token};
use crate::parser::ScopeTree;
use crate::rules::RawDiagnostic;
use std::collections::BTreeSet;

/// True for a library crate's source file: `crates/<name>/src/…`,
/// except `crates/bench` and the binaries (`src/main.rs`, `src/bin/`).
fn library_source(rel_path: &str) -> bool {
    match rel_path.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", name, "src", rest @ ..] => {
            *name != "bench" && rest != ["main.rs"] && rest.first() != Some(&"bin")
        }
        _ => false,
    }
}

/// Token mask: true from a `use` keyword through the `;` that ends it.
fn use_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut inside = false;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "use" {
            inside = true;
        }
        mask[i] = inside;
        if inside && t.kind == TokKind::Punct(';') {
            inside = false;
        }
    }
    mask
}

/// U001 across the workspace: the graph's fns that fire, as `(file,
/// diagnostic)` pairs in the graph's (file, line, col) order. `files`
/// are the token streams the graph was built from.
pub fn u001(graph: &CallGraph, files: &[(String, &Lexed)]) -> Vec<(String, RawDiagnostic)> {
    let mut mentioned: BTreeSet<&str> = BTreeSet::new();
    for (rel, lexed) in files {
        if rel.split('/').any(|c| c == "tests") {
            continue;
        }
        let tokens = &lexed.tokens;
        let test = ScopeTree::build(tokens).test_mask(tokens.len());
        let uses = use_mask(tokens);
        for (i, t) in tokens.iter().enumerate() {
            let declared = i > 0 && tokens[i - 1].text == "fn";
            if t.kind == TokKind::Ident && !test[i] && !uses[i] && !declared {
                mentioned.insert(t.text.as_str());
            }
        }
    }
    graph
        .fns
        .iter()
        .filter(|f| f.is_pub && !f.in_test && library_source(&f.file))
        .filter(|f| !mentioned.contains(f.name.as_str()))
        .map(|f| {
            (
                f.file.clone(),
                RawDiagnostic {
                    rule: "U001",
                    line: f.line,
                    col: f.col,
                    message: format!(
                        "pub fn `{}` is named by no non-test code in the workspace \
                         (only tests reach it): delete it, move it into test code, or \
                         allow it with the reason it stays",
                        f.name
                    ),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32)> {
        let lexed: Vec<(String, Lexed)> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let refs: Vec<(String, &Lexed)> = lexed.iter().map(|(p, l)| (p.clone(), l)).collect();
        u001(&CallGraph::build(&refs), &refs)
            .into_iter()
            .map(|(f, d)| (f, d.line))
            .collect()
    }

    #[test]
    fn only_library_sources_are_checked() {
        assert!(library_source("crates/md/src/sim.rs"));
        assert!(library_source("crates/md/src/forces/mod.rs"));
        assert!(!library_source("crates/obs/src/main.rs"));
        assert!(!library_source("crates/obs/src/bin/tool.rs"));
        assert!(!library_source("crates/bench/src/lib.rs"));
        assert!(!library_source("crates/md/tests/t.rs"));
        assert!(!library_source("src/lib.rs"));
    }

    #[test]
    fn test_scopes_use_items_and_declarations_do_not_count() {
        let hits = run(&[(
            "crates/a/src/lib.rs",
            "pub fn lone() {}\n\
             pub use self::lone as alias;\n\
             pub fn called() {}\n\
             pub(crate) fn restricted() {}\n\
             fn caller() { called(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { super::lone(); } }\n",
        )]);
        assert_eq!(hits, [("crates/a/src/lib.rs".to_string(), 1)]);
    }
}
