//! The rule catalog and the per-file pass.
//!
//! Every rule works on the lexed token stream (never raw text), so
//! string literals and comments can not produce false positives, and
//! every diagnostic carries a file:line:col location plus the rule id
//! the allow mechanism keys on. Test/loop context comes from the
//! `parser` scope tree — one structural pass shared by all rules —
//! and the parallel-safety rules (R001/R002) key on the parser's
//! rayon-chain analysis. The workspace rules live elsewhere, because
//! they need the whole workspace: E001 in `callgraph`, U001 in `unused`.

use crate::lexer::{Lexed, TokKind, Token};
use crate::parser::{analyze_par, ScopeTree};

/// A single rule's metadata, used by `--list-rules`/`--explain` and kept
/// in sync with DESIGN.md's catalog.
pub struct RuleInfo {
    /// Stable rule id (`D001`, `N002`, …).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The longer rationale printed by `--explain <rule>`: why the
    /// pattern is a defect here, and what to write instead.
    pub detail: &'static str,
}

/// The shipped rule catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "HashMap/HashSet in simulation crates (gridsim/md/smd/core): \
                  iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
        detail: "std's hash containers seed SipHash per process, so iteration order \
                 differs between runs. Any fold, event dispatch, or output built by \
                 iterating one silently changes results run-to-run — fatal for \
                 bit-reproducible trajectories and the Jarzynski tail average. \
                 Use BTreeMap/BTreeSet, or collect into a Vec and sort by a total key.",
    },
    RuleInfo {
        id: "D002",
        summary: "ambient entropy or wall-clock time (thread_rng, from_entropy, \
                  Instant::now, SystemTime) in simulation logic; seed explicitly instead",
        detail: "thread_rng/from_entropy pull operating-system entropy and \
                 Instant::now/SystemTime read the wall clock: both make a run a \
                 function of when and where it executed. Simulation code must take \
                 seeds and times as explicit parameters (the config carries a u64 \
                 seed; telemetry's feature-gated clock is the one sanctioned reader). \
                 The interprocedural escalation E001 also flags public fns that \
                 reach these only through their callees.",
    },
    RuleInfo {
        id: "N001",
        summary: "NaN-unsafe ordering: partial_cmp(..).unwrap()/.expect(..); \
                  use f64::total_cmp for a deterministic total order",
        detail: "partial_cmp returns None on NaN, so .unwrap() panics mid-analysis \
                 and .expect() hides the misordering until it corrupts a sort. \
                 f64::total_cmp is a total order (IEEE 754 totalOrder) that places \
                 NaNs deterministically — use it in comparators, even in tests.",
    },
    RuleInfo {
        id: "N002",
        summary: "float == / != against a float literal in library code; \
                  compare with a tolerance or annotate the exact-sentinel intent",
        detail: "Exact float equality against a literal is almost always a rounding \
                 accident waiting to happen. Compare |a-b| against an explicit \
                 tolerance, or — when the literal is a genuine sentinel (0.0 meaning \
                 'unset') — keep the comparison and write an allow with that reason.",
    },
    RuleInfo {
        id: "N003",
        summary: "libm transcendental method call (.exp() / .ln() / .sin() / .acos() / \
                  .atan2() / .powf() …) in a force or integrator file of the MD step \
                  (md::forces, md::integrate, md::batch, pore::potential, \
                  pore::geometry): use spice_md::detmath, or annotate an energy-only \
                  or construction-time call",
        detail: "Every force of the MD step, and the Langevin decay, takes its \
                 transcendentals from spice_md::detmath (det_exp, det_ln, \
                 det_sincos2pi, det_sin, det_acos, det_atan2): branch-free \
                 polynomials over IEEE-exact operations, so the step's bits do not \
                 depend on the host's libm and the batched engine's lane loops stay \
                 vectorized. A libm call here moves every golden across platforms \
                 and, inside a lane sweep, forces a scalar call per lane. Call the \
                 detmath kernel instead; a call that feeds an energy only (which \
                 the lane tiers never compute) or a construction-time constant \
                 keeps libm and carries an inline allow saying so.",
    },
    RuleInfo {
        id: "P001",
        summary: "unwrap()/panic! in non-test library code without an allow \
                  annotation; use expect with an invariant message or return Result",
        detail: "A bare unwrap/panic! aborts a multi-hour campaign with no context. \
                 Return a typed error where the caller can act, use expect(\"why this \
                 cannot fail\") where it truly cannot, or annotate the call site with \
                 the invariant that protects it.",
    },
    RuleInfo {
        id: "P002",
        summary: "allocation or linear scan inside a gridsim loop body \
                  (.clone() / .iter().position(..)): the DES hot path must stay \
                  allocation-free and O(log n) — hoist, borrow, or maintain an index",
        detail: "The grid DES processes millions of events; a .clone() or O(n) \
                 .iter().position() inside a loop body multiplies into quadratic \
                 time and allocator churn. Hoist the clone out of the loop, borrow, \
                 or maintain an index map keyed by id.",
    },
    RuleInfo {
        id: "P003",
        summary: "per-iteration heap allocation (Vec::new / vec![] / .clone()) \
                  inside a loop body of the batched SoA kernels \
                  (md::batch, smd::batch): preallocate lane scratch in the \
                  constructor and reuse it every step",
        detail: "The batched ensemble engine earns its ≥5x throughput gate by \
                 keeping every per-step loop allocation-free: BatchSim \
                 preallocates all lane buffers (positions, forces, pair \
                 scratch, displacement rows) at construction and the kernels \
                 only index into them. A Vec::new/vec![]/.clone() inside a \
                 loop body here reintroduces allocator churn on the exact \
                 path the SIMD lane sweep optimizes, and shows up directly \
                 in BENCH_ensemble_batch's realizations/sec. Hoist the \
                 allocation into the constructor (or the one-time setup \
                 before the step loop) and borrow it per iteration; \
                 setup/report paths that legitimately allocate once per \
                 ensemble carry an annotated allow.",
    },
    RuleInfo {
        id: "T001",
        summary: "println!/eprintln! (or print!/eprint!) in non-test library code: \
                  route output through return values or the telemetry layer; \
                  direct printing belongs to CLI mains and report paths only",
        detail: "Library code that prints cannot be embedded, tested quietly, or \
                 redirected. Return the text, or record through the telemetry layer; \
                 CLI mains and report writers that legitimately print carry a \
                 baseline entry or an annotated allow.",
    },
    RuleInfo {
        id: "M001",
        summary: "telemetry span/metric name built with format! (or a string \
                  literal that is not lowercase dot-separated) in a \
                  simulation/steering crate: use a static literal like \
                  \"grid.attempt\" or a named constant",
        detail: "The registry export is diffed byte-for-byte across runs and \
                 machines (spice-trace diff), and the obs layer groups spans \
                 and sections reports by name prefix — so names must be a \
                 closed, stable vocabulary. A format!-built name mints an \
                 unbounded family (one metric per job id) that explodes the \
                 registry and defeats prefix grouping; a MixedCase or spaced \
                 literal breaks the dot-path convention every consumer keys \
                 on. Name each series with a lowercase dot-separated literal \
                 ([a-z0-9_-] segments), hoist per-kind families into a match \
                 returning &'static str (see FailureKind::failures_counter), \
                 and put variable detail in attrs or track keys — never the \
                 name.",
    },
    RuleInfo {
        id: "W001",
        summary: "direct File::create / fs::write in simulation-crate library code: \
                  checkpoint and artifact files must go through an atomic writer \
                  (temp sibling + flush + rename)",
        detail: "A process killed mid-write leaves a torn file under the real name, \
                 and the durability layer will (rightly) refuse to load it — but a \
                 torn *snapshot* costs the campaign its newest restore point, and a \
                 torn artifact corrupts the record silently. Simulation crates write \
                 durable files only through the atomic-writer protocol \
                 (gridsim::durability's writer, md checkpoint's save): create a temp \
                 sibling, write, flush, then rename into place. The sanctioned \
                 writer internals carry an annotated allow; everything else should \
                 call them.",
    },
    RuleInfo {
        id: "R001",
        summary: "shared-state synchronization (Mutex/RwLock/RefCell/.lock()/\
                  Ordering::Relaxed) inside a rayon closure or spawn body in a \
                  simulation crate: lock-order and interleaving are nondeterministic",
        detail: "A Mutex<f64> accumulator (or RwLock/RefCell/.lock()/relaxed atomic) \
                 inside par_iter/par_chunks/spawn makes the result depend on \
                 work-stealing interleaving: float additions reassociate in a \
                 different order every run. Give each chunk its own scratch slot and \
                 reduce the slots serially in index order, or move the state out of \
                 the parallel region. \
                 Monotone gauges (progress counters never read back into results) \
                 may keep a relaxed atomic behind an annotated allow.",
    },
    RuleInfo {
        id: "R002",
        summary: ".sum()/.reduce()/.fold()/.product() on a parallel iterator in a \
                  simulation crate: float reduction order varies per run — use the \
                  chunked-scratch serial reduction idiom",
        detail: "Rayon's reductions combine partial results in work-stealing order, \
                 so parallel float sums reassociate differently every run — results \
                 drift at the ulp level and diverge chaotically over a trajectory. \
                 The sanctioned idiom: fill one scratch slot per chunk with \
                 for_each, then reduce the slots serially in index order. collect() \
                 into a Vec followed by a serial sum is also fine — the rule stops \
                 at the first order-restoring consumer.",
    },
    RuleInfo {
        id: "E001",
        summary: "public fn transitively reaches ambient entropy/time \
                  (thread_rng/from_entropy/Instant::now/SystemTime) through the \
                  call graph; the diagnostic prints the propagation chain",
        detail: "D002 sees only direct uses; E001 walks the workspace call graph \
                 backwards from every entropy site and flags public fns that reach \
                 one transitively — the boundary a caller trusts. The diagnostic \
                 names the full chain (a::api -> a::helper -> b::roll) and the \
                 originating site. Fix the leaf (thread the seed/clock as a \
                 parameter) rather than allowing the boundary: one leaf fix clears \
                 every chain through it.",
    },
    RuleInfo {
        id: "U001",
        summary: "pub fn in the non-test part of a library crate (crates/*/src, \
                  binaries and crates/bench aside) that no non-test code in the \
                  workspace names, use items aside: only tests reach it",
        detail: "Public library code that no program calls is weight every reader \
                 and every change carries, and it grows back one convenience at a \
                 time. U001 scans the workspace's tokens by name: a pub fn fires \
                 when no identifier outside test code (tests/ directories, \
                 #[cfg(test)] and #[test] scopes) and outside use items spells it; \
                 examples and benches count as callers. Delete the fn, move what a \
                 test needs into the test, or keep it with an inline allow that \
                 says why it stays.",
    },
    RuleInfo {
        id: "A001",
        summary: "malformed spice-lint directive (unknown form, bad rule id, \
                  or allow without a written reason)",
        detail: "Allow directives are part of the audit trail: \
                 `// spice-lint: allow(RULE) reason` with a real reason. A typo'd \
                 rule id or a missing reason silently suppresses nothing (or \
                 everything), so the malformed directive is itself a violation.",
    },
    RuleInfo {
        id: "A002",
        summary: "stale allow: the directive or baseline entry suppresses nothing \
                  (including baseline entries whose file no longer exists)",
        detail: "An allow that no longer matches a diagnostic — after a fix, a \
                 rename, or a deleted file — is debt that hides future regressions. \
                 Inline allows must fire on their own or the next line; baseline \
                 entries must match at least one current diagnostic AND point at a \
                 file that still exists in the workspace.",
    },
];

/// Look up a rule's catalog entry by id (case-sensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Crate directories whose non-test code is a deterministic simulation
/// path (rules D001/R001/R002's scope).
const SIM_CRATES: &[&str] = &["gridsim", "md", "smd", "core"];

/// Crates whose telemetry names M001 polices: the simulation crates plus
/// steering (the remote-control layer owns the `steering.*` namespace).
const M001_CRATES: &[&str] = &["gridsim", "md", "smd", "core", "steering"];

/// Telemetry registry/track methods whose first argument is a series or
/// track name.
const M001_METHODS: &[&str] = &[
    "counter",
    "gauge",
    "set_gauge",
    "track",
    "span",
    "span_at",
    "enter_at",
    "exit_at",
    "instant",
    "instant_at",
];

/// Crate directories exempt from D002/E001: benchmarks time things by
/// design, and the telemetry crate is the one sanctioned wall-clock
/// reader (its `Instant::now` lives behind the off-by-default `timing`
/// feature so deterministic builds contain no clock reads).
const ENTROPY_EXEMPT_CRATES: &[&str] = &["bench", "telemetry"];

/// A rule violation before allow-filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiagnostic {
    /// Rule id.
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug)]
pub struct FileContext {
    /// Crate directory name under `crates/` (root package files get
    /// `None`).
    pub crate_dir: Option<String>,
    /// True when the whole file is test/bench/example context.
    pub test_file: bool,
    /// True for the batched SoA kernel files (`crates/md/src/batch.rs`,
    /// `crates/smd/src/batch.rs`) whose loop bodies P003 polices.
    pub batch_kernel: bool,
    /// True for the force and integrator files of the MD step
    /// (`crates/md/src/{forces,integrate}/`, `crates/md/src/batch.rs`,
    /// `crates/pore/src/{potential,geometry}.rs`) where N003 bans libm.
    pub md_step: bool,
}

impl FileContext {
    /// Classify a workspace-relative, `/`-separated path.
    pub fn from_rel_path(rel_path: &str) -> FileContext {
        let components: Vec<&str> = rel_path.split('/').collect();
        let crate_dir = match components.as_slice() {
            ["crates", name, ..] => Some((*name).to_string()),
            _ => None,
        };
        let test_file = components
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples"))
            || crate_dir.as_deref() == Some("bench");
        let batch_kernel = matches!(crate_dir.as_deref(), Some("md") | Some("smd"))
            && components.contains(&"src")
            && components.last() == Some(&"batch.rs");
        let md_step = match components.as_slice() {
            ["crates", "md", "src", "forces" | "integrate", ..] => true,
            ["crates", "md", "src", "batch.rs"] => true,
            ["crates", "pore", "src", file] => matches!(*file, "potential.rs" | "geometry.rs"),
            _ => false,
        };
        FileContext {
            crate_dir,
            test_file,
            batch_kernel,
            md_step,
        }
    }

    /// True for the deterministic-simulation crates D001/R001/R002 guard.
    pub fn in_sim_crate(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|c| SIM_CRATES.contains(&c))
    }

    /// True for crates sanctioned to read entropy/clocks (bench,
    /// telemetry) — exempt from D002 and never seeds/targets for E001.
    pub fn entropy_exempt(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|c| ENTROPY_EXEMPT_CRATES.contains(&c))
    }

    /// True for crates whose telemetry names M001 polices.
    pub fn in_m001_crate(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|c| M001_CRATES.contains(&c))
    }
}

/// Mark every token inside `#[cfg(test)]` modules and `#[test]` fns.
/// Thin wrapper over the scope tree, kept for callers that only need
/// the mask.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    ScopeTree::build(tokens).test_mask(tokens.len())
}

/// `f64` methods that call libm (or a compiler-rt routine) rather than
/// compile to IEEE-exact instructions: N003's targets. `sqrt`, `abs`,
/// `min`, `max` and `copysign` are exact and stay allowed.
const LIBM_METHODS: &[&str] = &[
    "exp", "exp2", "exp_m1", "ln", "log", "log2", "log10", "ln_1p", "powf", "powi", "sin", "cos",
    "tan", "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh",
    "atanh", "cbrt", "hypot",
];

/// Sync primitives whose mere mention inside a parallel region is an
/// R001 hit (type position or constructor — both mean shared state).
const R001_TYPES: &[&str] = &["Mutex", "RwLock", "RefCell"];

/// Run every per-file rule over one lexed file.
pub fn run_rules(ctx: &FileContext, lexed: &Lexed) -> Vec<RawDiagnostic> {
    let tokens = &lexed.tokens;
    let tree = ScopeTree::build(tokens);
    let mask = tree.test_mask(tokens.len());
    let in_gridsim = ctx.crate_dir.as_deref() == Some("gridsim");
    let loop_mask = if in_gridsim || ctx.batch_kernel {
        tree.loop_mask(tokens.len())
    } else {
        Vec::new()
    };
    let par = if ctx.in_sim_crate() && !ctx.test_file {
        analyze_par(tokens)
    } else {
        Default::default()
    };
    let mut out = Vec::new();
    // Token indices consumed by an N001 match, so the same `unwrap`
    // does not also fire P001 (one defect, one diagnostic).
    let mut n001_tail = vec![false; tokens.len()];

    for (i, tok) in tokens.iter().enumerate() {
        let in_test = ctx.test_file || mask[i];
        let in_par = par.par_mask.get(i).copied().unwrap_or(false);
        match tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                // D001 — nondeterministic iteration in simulation crates.
                if !in_test && ctx.in_sim_crate() && (name == "HashMap" || name == "HashSet") {
                    out.push(RawDiagnostic {
                        rule: "D001",
                        line: tok.line,
                        col: tok.col,
                        message: format!(
                            "`{name}` in a simulation crate: iteration order is \
                             nondeterministic across runs — use BTreeMap/BTreeSet or a \
                             sorted Vec so results are bit-reproducible"
                        ),
                    });
                }
                // D002 — ambient entropy / wall-clock time.
                if !in_test && !ctx.entropy_exempt() {
                    let hit = match name {
                        "thread_rng" | "from_entropy" | "SystemTime" => Some(name),
                        "Instant" if is_path_call(tokens, i, "now") => Some("Instant::now"),
                        _ => None,
                    };
                    if let Some(what) = hit {
                        out.push(RawDiagnostic {
                            rule: "D002",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "`{what}` injects ambient entropy/time into simulation \
                                 logic — thread seeds and clocks through explicit \
                                 parameters so runs are reproducible"
                            ),
                        });
                    }
                }
                // R001 — shared-state synchronization inside a parallel
                // region: Mutex/RwLock/RefCell mentions, `.lock()`/
                // `.borrow_mut()` calls, and relaxed atomic orderings all
                // make results interleaving-dependent.
                if !in_test && in_par {
                    let hit = if R001_TYPES.contains(&name) {
                        Some(name.to_string())
                    } else if (name == "lock" || name == "borrow_mut")
                        && prev_is(tokens, i, TokKind::Punct('.'))
                        && next_is(tokens, i, TokKind::Punct('('))
                    {
                        Some(format!(".{name}()"))
                    } else if name == "Relaxed" {
                        Some("Ordering::Relaxed".to_string())
                    } else {
                        None
                    };
                    if let Some(what) = hit {
                        out.push(RawDiagnostic {
                            rule: "R001",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "`{what}` inside a parallel closure: work-stealing \
                                 interleaving makes shared-state updates \
                                 order-nondeterministic — give each chunk its own \
                                 scratch slot and reduce serially in index order, \
                                 or hoist the state out of the parallel region"
                            ),
                        });
                    }
                }
                // N001 — NaN-unsafe ordering (applies in tests too: a
                // NaN-poisoned comparator corrupts analysis anywhere).
                if name == "partial_cmp" {
                    if let Some(tail) = match_partial_cmp_unwrap(tokens, i) {
                        n001_tail[tail] = true;
                        out.push(RawDiagnostic {
                            rule: "N001",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "NaN-unsafe ordering: `partial_cmp(..).{}()` panics or \
                                 misorders on NaN — use `f64::total_cmp` for a \
                                 deterministic total order",
                                tokens[tail].text
                            ),
                        });
                    }
                }
                // P001 — unwrap()/panic! in non-test library code.
                if !in_test {
                    if name == "unwrap"
                        && !n001_tail[i]
                        && prev_is(tokens, i, TokKind::Punct('.'))
                        && next_is(tokens, i, TokKind::Punct('('))
                    {
                        out.push(RawDiagnostic {
                            rule: "P001",
                            line: tok.line,
                            col: tok.col,
                            message: "`unwrap()` in library code: use `expect` with an \
                                      invariant message, return a Result, or annotate \
                                      why it cannot fail"
                                .into(),
                        });
                    }
                    if name == "panic" && next_is(tokens, i, TokKind::Punct('!')) {
                        out.push(RawDiagnostic {
                            rule: "P001",
                            line: tok.line,
                            col: tok.col,
                            message: "`panic!` in library code: prefer a typed error, or \
                                      annotate why aborting is the contract"
                                .into(),
                        });
                    }
                }
                // P002 — allocations / linear scans repeated by a loop in
                // the gridsim DES (the paths the scale work de-quadratified).
                if !in_test && in_gridsim && loop_mask.get(i).copied().unwrap_or(false) {
                    if name == "clone"
                        && prev_is(tokens, i, TokKind::Punct('.'))
                        && next_is(tokens, i, TokKind::Punct('('))
                    {
                        out.push(RawDiagnostic {
                            rule: "P002",
                            line: tok.line,
                            col: tok.col,
                            message: "`.clone()` inside a gridsim loop body: the DES hot \
                                      path must stay allocation-free — hoist the clone out \
                                      of the loop, borrow, or carry an index"
                                .into(),
                        });
                    }
                    if name == "iter" && is_iter_position_chain(tokens, i) {
                        out.push(RawDiagnostic {
                            rule: "P002",
                            line: tok.line,
                            col: tok.col,
                            message: "`.iter().position(..)` inside a gridsim loop body: \
                                      an O(n) scan per iteration makes the event loop \
                                      quadratic — maintain an index map instead"
                                .into(),
                        });
                    }
                }
                // P003 — per-iteration heap allocation in the batched SoA
                // kernel files (md::batch, smd::batch): the lane-swept hot
                // path must stay allocation-free to hold the throughput
                // gate; all scratch is preallocated at construction.
                if !in_test && ctx.batch_kernel && loop_mask.get(i).copied().unwrap_or(false) {
                    let hit = if name == "clone"
                        && prev_is(tokens, i, TokKind::Punct('.'))
                        && next_is(tokens, i, TokKind::Punct('('))
                    {
                        Some(".clone()")
                    } else if name == "Vec" && is_path_call(tokens, i, "new") {
                        Some("Vec::new()")
                    } else if name == "vec" && next_is(tokens, i, TokKind::Punct('!')) {
                        Some("vec![..]")
                    } else {
                        None
                    };
                    if let Some(what) = hit {
                        out.push(RawDiagnostic {
                            rule: "P003",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "`{what}` inside a batched-kernel loop body: the SoA \
                                 ensemble hot path must stay allocation-free to hold \
                                 the BENCH_ensemble_batch throughput gate — \
                                 preallocate the buffer at construction (BatchSim \
                                 owns all lane scratch) and reuse it per iteration"
                            ),
                        });
                    }
                }
                // N003 — libm transcendentals in the MD step's force and
                // integrator files: detmath keeps the bits host-independent
                // and the lane loops vectorized.
                if !in_test
                    && ctx.md_step
                    && LIBM_METHODS.contains(&name)
                    && prev_is(tokens, i, TokKind::Punct('.'))
                    && next_is(tokens, i, TokKind::Punct('('))
                {
                    out.push(RawDiagnostic {
                        rule: "N003",
                        line: tok.line,
                        col: tok.col,
                        message: format!(
                            "`.{name}()` calls libm in the MD step: its bits depend on the \
                             host's libm and a lane sweep turns it into a scalar call per \
                             lane — use the spice_md::detmath kernel, or annotate an \
                             energy-only or construction-time call"
                        ),
                    });
                }
                // W001 — raw durable-file writes in simulation crates.
                // The atomic-writer internals themselves carry allows.
                if !in_test && ctx.in_sim_crate() {
                    let hit = if name == "File" && is_path_call(tokens, i, "create") {
                        Some("File::create")
                    } else if name == "fs" && is_path_call(tokens, i, "write") {
                        Some("fs::write")
                    } else {
                        None
                    };
                    if let Some(what) = hit {
                        out.push(RawDiagnostic {
                            rule: "W001",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "`{what}` writes a file directly in a simulation crate: \
                                 a crash mid-write leaves a torn file under the real \
                                 name — route it through the atomic writer (temp \
                                 sibling + flush + rename)"
                            ),
                        });
                    }
                }
                // T001 — stray stdout/stderr prints in non-test code.
                // Intentional CLI entry points and report paths carry an
                // allow annotation or a baseline entry.
                if !in_test
                    && matches!(name, "println" | "eprintln" | "print" | "eprint")
                    && next_is(tokens, i, TokKind::Punct('!'))
                {
                    out.push(RawDiagnostic {
                        rule: "T001",
                        line: tok.line,
                        col: tok.col,
                        message: format!(
                            "`{name}!` in library code writes straight to the terminal \
                             — return the text, or record it through the telemetry \
                             layer; direct printing is for CLI mains and report paths \
                             (annotate or baseline those)"
                        ),
                    });
                }
                // M001 — telemetry names must be a closed, stable
                // vocabulary: lowercase dot-separated literals or named
                // constants, never format!-built strings.
                if !in_test
                    && ctx.in_m001_crate()
                    && M001_METHODS.contains(&name)
                    && prev_is(tokens, i, TokKind::Punct('.'))
                    && next_is(tokens, i, TokKind::Punct('('))
                {
                    if let Some(hit) = m001_bad_name_arg(tokens, i + 2) {
                        out.push(RawDiagnostic {
                            rule: "M001",
                            line: tok.line,
                            col: tok.col,
                            message: match hit {
                                M001Hit::FormatBuilt => format!(
                                    "`.{name}(format!(..))` mints telemetry names at \
                                     runtime: an unbounded name family breaks the \
                                     diff-able registry export — use a static \
                                     lowercase dot-separated literal or hoist the \
                                     family into a match returning &'static str, and \
                                     carry the variable part in attrs or track keys"
                                ),
                                M001Hit::BadLiteral(lit) => format!(
                                    "telemetry name \"{lit}\" is not lowercase \
                                     dot-separated: every consumer (summary \
                                     sectioning, trace diff, flamegraph frames) keys \
                                     on [a-z0-9_-] segments joined by dots, like \
                                     \"grid.attempt\""
                                ),
                            },
                        });
                    }
                }
            }
            // N002 — float ==/!= against a float literal.
            TokKind::EqEq | TokKind::Ne if !in_test && float_operand(tokens, i) => {
                let op = if tok.kind == TokKind::EqEq {
                    "=="
                } else {
                    "!="
                };
                out.push(RawDiagnostic {
                    rule: "N002",
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "float `{op}` comparison against a literal: exact float \
                         equality is fragile — compare with a tolerance, or \
                         annotate the exact-sentinel intent"
                    ),
                });
            }
            _ => {}
        }
    }
    // R002 — order-sensitive reductions on still-parallel chains.
    for &r in &par.reductions {
        let tok = &tokens[r];
        if mask.get(r).copied().unwrap_or(false) {
            continue; // test context
        }
        out.push(RawDiagnostic {
            rule: "R002",
            line: tok.line,
            col: tok.col,
            message: format!(
                "`.{}()` on a parallel iterator: rayon combines partial results in \
                 work-stealing order, so float reductions reassociate differently \
                 every run — fill per-chunk scratch with for_each and reduce \
                 serially in index order, or collect() and sum serially",
                tok.text
            ),
        });
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// True when `tokens[i]` (an ident) is followed by `:: name` — detects
/// `Instant::now`.
fn is_path_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens
        .get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct(':'))
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.kind == TokKind::Punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.text == name)
}

/// How a telemetry-name argument violates M001.
enum M001Hit {
    /// First argument is `format!(..)` — a runtime-minted name.
    FormatBuilt,
    /// First argument is a string literal that is not lowercase
    /// dot-separated; carries the offending body.
    BadLiteral(String),
}

/// Inspect the first argument of a telemetry-name call, with `j` at the
/// token just past the opening paren. Returns a hit for `format!` (with
/// or without a leading `&`) and for non-conforming string literals;
/// idents (named constants, variables) and raw/byte literals (whose
/// bodies the lexer does not keep) pass — the rule is a vocabulary
/// guard, not a taint analysis.
fn m001_bad_name_arg(tokens: &[Token], mut j: usize) -> Option<M001Hit> {
    while tokens.get(j).is_some_and(|t| t.kind == TokKind::Punct('&')) {
        j += 1;
    }
    let tok = tokens.get(j)?;
    match tok.kind {
        TokKind::Ident if tok.text == "format" && next_is(tokens, j, TokKind::Punct('!')) => {
            Some(M001Hit::FormatBuilt)
        }
        TokKind::Str if !tok.text.is_empty() && !is_registry_name(&tok.text) => {
            Some(M001Hit::BadLiteral(tok.text.clone()))
        }
        _ => None,
    }
}

/// True for the registry-name grammar: one or more non-empty
/// `[a-z0-9_-]` segments joined by single dots.
fn is_registry_name(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        })
}

/// Match `. iter ( ) . position (` with `i` at the `iter` ident.
fn is_iter_position_chain(tokens: &[Token], i: usize) -> bool {
    prev_is(tokens, i, TokKind::Punct('.'))
        && next_is(tokens, i, TokKind::Punct('('))
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.kind == TokKind::Punct(')'))
        && tokens
            .get(i + 3)
            .is_some_and(|t| t.kind == TokKind::Punct('.'))
        && tokens.get(i + 4).is_some_and(|t| t.text == "position")
        && tokens
            .get(i + 5)
            .is_some_and(|t| t.kind == TokKind::Punct('('))
}

fn prev_is(tokens: &[Token], i: usize, kind: TokKind) -> bool {
    i > 0 && tokens[i - 1].kind == kind
}

fn next_is(tokens: &[Token], i: usize, kind: TokKind) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.kind == kind)
}

/// Match `partial_cmp ( … ) . unwrap|expect (` starting at the
/// `partial_cmp` ident; returns the index of the `unwrap`/`expect`
/// ident. The argument scan is balanced-paren and bounded, so a
/// pathological file cannot stall the pass.
fn match_partial_cmp_unwrap(tokens: &[Token], i: usize) -> Option<usize> {
    if !next_is(tokens, i, TokKind::Punct('(')) {
        return None;
    }
    let mut j = i + 1;
    let mut depth = 0usize;
    let limit = j + 256;
    while j < tokens.len() && j < limit {
        match tokens[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() || tokens[j].kind != TokKind::Punct(')') {
        return None;
    }
    // `. unwrap (` or `. expect (`
    let dot = j + 1;
    let name = j + 2;
    if tokens
        .get(dot)
        .is_some_and(|t| t.kind == TokKind::Punct('.'))
        && tokens
            .get(name)
            .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        && tokens
            .get(name + 1)
            .is_some_and(|t| t.kind == TokKind::Punct('('))
    {
        Some(name)
    } else {
        None
    }
}

/// True when either operand token adjacent to a `==`/`!=` is a float
/// literal (tolerating one leading unary minus or open paren on the
/// right).
fn float_operand(tokens: &[Token], i: usize) -> bool {
    if i > 0 && tokens[i - 1].kind == TokKind::Float {
        return true;
    }
    let mut j = i + 1;
    while tokens
        .get(j)
        .is_some_and(|t| matches!(t.kind, TokKind::Punct('-') | TokKind::Punct('(')))
    {
        j += 1;
    }
    tokens.get(j).is_some_and(|t| t.kind == TokKind::Float)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<RawDiagnostic> {
        run_rules(&FileContext::from_rel_path(path), &lex(src))
    }

    fn rules_fired(diags: &[RawDiagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d001_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/lib.rs", src)),
            ["D001"]
        );
        assert!(run("crates/steering/src/lib.rs", src).is_empty());
        assert!(run("crates/gridsim/tests/t.rs", src).is_empty());
    }

    #[test]
    fn d002_catches_instant_now_but_not_instant_type() {
        let hits = run("crates/md/src/x.rs", "let t = Instant::now();");
        assert_eq!(rules_fired(&hits), ["D002"]);
        assert!(run("crates/md/src/x.rs", "fn f(t: Instant) {}").is_empty());
        assert!(run("crates/bench/src/x.rs", "let t = Instant::now();").is_empty());
    }

    #[test]
    fn n001_fires_even_in_tests_and_suppresses_p001() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());";
        assert_eq!(rules_fired(&run("crates/stats/src/d.rs", src)), ["N001"]);
        assert_eq!(rules_fired(&run("crates/stats/tests/t.rs", src)), ["N001"]);
        let src2 = "v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"));";
        assert_eq!(rules_fired(&run("crates/stats/src/d.rs", src2)), ["N001"]);
    }

    #[test]
    fn n002_literal_float_equality() {
        assert_eq!(
            rules_fired(&run("crates/stats/src/d.rs", "if x == 0.0 {}")),
            ["N002"]
        );
        assert_eq!(
            rules_fired(&run("crates/stats/src/d.rs", "if 1e-9 != y {}")),
            ["N002"]
        );
        // Integer equality is fine; var-vs-var floats are out of scope.
        assert!(run("crates/stats/src/d.rs", "if n == 0 {}").is_empty());
        assert!(run("crates/stats/src/d.rs", "if a == b {}").is_empty());
    }

    #[test]
    fn p001_unwrap_and_panic_lib_only() {
        assert_eq!(
            rules_fired(&run("crates/md/src/x.rs", "let a = b.unwrap();")),
            ["P001"]
        );
        assert_eq!(
            rules_fired(&run("crates/md/src/x.rs", "panic!(\"boom\");")),
            ["P001"]
        );
        assert!(run("crates/md/tests/t.rs", "let a = b.unwrap();").is_empty());
        // unwrap_or_else is a different method.
        assert!(run("crates/md/src/x.rs", "let a = b.unwrap_or_else(f);").is_empty());
        // should_panic attribute text does not match panic!.
        assert!(run("crates/md/src/x.rs", "#[should_panic(expected = \"x\")]").is_empty());
    }

    #[test]
    fn inline_test_module_is_exempt() {
        let src = "
pub fn lib_code(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let x: Option<u32> = None; x.unwrap(); }
}
";
        let hits = run("crates/md/src/x.rs", src);
        assert_eq!(rules_fired(&hits), ["P001"]);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn test_fn_attribute_exempts_outside_test_mod() {
        // The scope tree (unlike the old mod-only mask) also exempts a
        // bare `#[test] fn` at file scope.
        let src = "#[test]\nfn t() { let x: Option<u32> = None; x.unwrap(); }";
        assert!(run("crates/md/src/x.rs", src).is_empty());
    }

    #[test]
    fn t001_prints_in_lib_code_only() {
        assert_eq!(
            rules_fired(&run("crates/md/src/x.rs", "println!(\"{x}\");")),
            ["T001"]
        );
        assert_eq!(
            rules_fired(&run("crates/steering/src/x.rs", "eprintln!(\"warn\");")),
            ["T001"]
        );
        // Tests, benches and examples print freely.
        assert!(run("crates/md/tests/t.rs", "println!(\"{x}\");").is_empty());
        assert!(run("examples/demo.rs", "println!(\"{x}\");").is_empty());
        // CLI front-ends are NOT path-exempt — they get baseline entries.
        assert_eq!(
            rules_fired(&run("src/main.rs", "println!(\"{x}\");")),
            ["T001"]
        );
        // A `println` ident without the macro bang is something else.
        assert!(run("crates/md/src/x.rs", "let println = 3; println == 4;").is_empty());
    }

    #[test]
    fn m001_format_built_names_in_sim_and_steering_crates() {
        let fmt = "t.counter(&format!(\"grid.failures.{}\", kind)).add(1);";
        assert_eq!(rules_fired(&run("crates/gridsim/src/x.rs", fmt)), ["M001"]);
        assert_eq!(rules_fired(&run("crates/steering/src/x.rs", fmt)), ["M001"]);
        // Without the borrow, and on track/span methods too.
        let span = "track.span_at(format!(\"job.{id}\"), t0);";
        assert_eq!(rules_fired(&run("crates/md/src/x.rs", span)), ["M001"]);
        // Out of scope: non-sim crates, tests, and non-name methods.
        assert!(run("crates/stats/src/x.rs", fmt).is_empty());
        assert!(run("crates/gridsim/tests/t.rs", fmt).is_empty());
        assert!(run("crates/gridsim/src/x.rs", "let s = format!(\"x.{n}\");").is_empty());
    }

    #[test]
    fn m001_literal_names_must_be_lowercase_dotted() {
        let bad = "t.set_gauge(\"steering.messages.control:Pause\", 1.0);";
        assert_eq!(rules_fired(&run("crates/steering/src/x.rs", bad)), ["M001"]);
        let spaced = "track.instant(\"Checkpoint Write\", vec![]);";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/x.rs", spaced)),
            ["M001"]
        );
        // Conforming literals, named constants, and variables all pass.
        assert!(run(
            "crates/gridsim/src/x.rs",
            "t.counter(\"grid.failures.node-crash\").add(1);"
        )
        .is_empty());
        assert!(run(
            "crates/steering/src/x.rs",
            "t.counter(kind.failures_counter()).add(1);"
        )
        .is_empty());
        assert!(run("crates/smd/src/x.rs", "track.span(NAME_PULL);").is_empty());
        // A free function named like a method is not a telemetry call.
        assert!(run("crates/gridsim/src/x.rs", "gauge(\"Bad Name\", &b);").is_empty());
    }

    #[test]
    fn w001_raw_file_writes_in_sim_crates_only() {
        let create = "let f = fs::File::create(&tmp)?;";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/durability/x.rs", create)),
            ["W001"]
        );
        let write = "std::fs::write(&path, bytes)?;";
        assert_eq!(rules_fired(&run("crates/md/src/x.rs", write)), ["W001"]);
        // Tests, benches, and non-sim crates write files freely.
        assert!(run("crates/gridsim/tests/t.rs", create).is_empty());
        assert!(run("crates/bench/benches/b.rs", write).is_empty());
        assert!(run("crates/steering/src/x.rs", write).is_empty());
        // Neither a plain method named `write` nor a `File` type
        // annotation is a raw file write.
        assert!(run("crates/md/src/x.rs", "w.write(buf)?;").is_empty());
        assert!(run("crates/md/src/x.rs", "fn f(f: File) {}").is_empty());
    }

    #[test]
    fn p002_clone_and_position_in_gridsim_loops_only() {
        let in_loop = "for ev in events { let j = jobs.iter().position(|x| x.id == ev); }";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/x.rs", in_loop)),
            ["P002"]
        );
        let clone_loop = "while let Some(e) = q.pop() { let name = site.name.clone(); }";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/x.rs", clone_loop)),
            ["P002"]
        );
        assert_eq!(
            rules_fired(&run(
                "crates/gridsim/src/x.rs",
                "loop { let c = v.clone(); break; }"
            )),
            ["P002"]
        );
        // Outside a loop body, in other crates, and in tests: no rule.
        assert!(run("crates/gridsim/src/x.rs", "let c = v.clone();").is_empty());
        assert!(run("crates/md/src/x.rs", clone_loop).is_empty());
        assert!(run("crates/gridsim/tests/t.rs", clone_loop).is_empty());
        // `iter_mut().position` or a bare `position` is not the chain.
        assert!(run(
            "crates/gridsim/src/x.rs",
            "for e in v { let p = w.position(f); }"
        )
        .is_empty());
    }

    #[test]
    fn n003_libm_calls_in_md_step_files_only() {
        let acos = "fn theta(c: f64) -> f64 { c.acos() }";
        for path in [
            "crates/md/src/forces/bonded.rs",
            "crates/md/src/forces/sub/deep.rs",
            "crates/md/src/integrate/langevin.rs",
            "crates/md/src/batch.rs",
            "crates/pore/src/potential.rs",
            "crates/pore/src/geometry.rs",
        ] {
            assert_eq!(rules_fired(&run(path, acos)), ["N003"], "{path}");
        }
        // Exact operations and field reads stay silent.
        let exact = "fn f(x: f64) -> f64 { x.sqrt().abs().min(1.0).max(0.0).copysign(x) }";
        assert!(run("crates/md/src/forces/bonded.rs", exact).is_empty());
        let field = "fn f(p: P) -> f64 { p.cos + p.exp }";
        assert!(run("crates/md/src/forces/bonded.rs", field).is_empty());
        // Other md/pore files and test trees are out of scope.
        for path in [
            "crates/md/src/detmath.rs",
            "crates/md/src/rng.rs",
            "crates/pore/src/dna.rs",
            "crates/smd/src/batch.rs",
            "crates/md/tests/batch.rs",
        ] {
            assert!(run(path, acos).is_empty(), "{path}");
        }
        let in_test = "#[cfg(test)] mod tests { fn f(x: f64) -> f64 { x.sin() } }";
        assert!(run("crates/md/src/batch.rs", in_test).is_empty());
    }

    #[test]
    fn p003_allocs_in_batch_kernel_loops_only() {
        let clone_loop = "for l in 0..r { let s = lanes.clone(); use_lane(s); }";
        assert_eq!(
            rules_fired(&run("crates/md/src/batch.rs", clone_loop)),
            ["P003"]
        );
        let vec_new = "while step < n { let mut buf = Vec::new(); buf.push(step); }";
        assert_eq!(
            rules_fired(&run("crates/smd/src/batch.rs", vec_new)),
            ["P003"]
        );
        let vec_macro = "loop { let v = vec![0.0; 3 * r]; consume(v); break; }";
        assert_eq!(
            rules_fired(&run("crates/md/src/batch.rs", vec_macro)),
            ["P003"]
        );
        // Construction-time preallocation outside a loop is the
        // sanctioned idiom — silent.
        assert!(run("crates/md/src/batch.rs", "let frc = vec![0.0; 3 * n * r];").is_empty());
        assert!(run("crates/smd/src/batch.rs", "let work = Vec::new();").is_empty());
        // Other md/smd files, other crates' batch.rs, and test trees
        // are out of P003's scope.
        assert!(run("crates/md/src/lib.rs", clone_loop).is_empty());
        assert!(run("crates/stats/src/batch.rs", clone_loop).is_empty());
        assert!(run("crates/md/tests/batch.rs", clone_loop).is_empty());
        // In gridsim the same pattern is P002's jurisdiction, not P003's.
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/batch.rs", clone_loop)),
            ["P002"]
        );
    }

    #[test]
    fn p002_for_loop_discriminated_from_impl_for() {
        // `impl Trait for Type { .. }` bodies are not loop bodies.
        let impl_block = "impl Clone for Thing { fn clone(&self) -> Thing { self.inner.clone() } }";
        assert!(run("crates/gridsim/src/x.rs", impl_block).is_empty());
        // ...but a real for-loop inside an impl method still fires.
        let loop_in_impl =
            "impl Thing { fn go(&self) { for x in &self.v { let c = x.clone(); } } }";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/x.rs", loop_in_impl)),
            ["P002"]
        );
        // Closures in the condition do not confuse the body finder.
        let cond_closure = "while xs.iter().any(|x| { x.live }) { let c = n.clone(); }";
        assert_eq!(
            rules_fired(&run("crates/gridsim/src/x.rs", cond_closure)),
            ["P002"]
        );
    }

    #[test]
    fn r001_sync_in_par_closure_sim_crates_only() {
        let src = "xs.par_iter().for_each(|x| { *acc.lock().expect(\"ok\") += x; });";
        assert_eq!(rules_fired(&run("crates/smd/src/x.rs", src)), ["R001"]);
        // Outside a sim crate, or in a serial closure: no rule.
        assert!(run("crates/steering/src/x.rs", src).is_empty());
        let serial = "xs.iter().for_each(|x| { *acc.lock().expect(\"ok\") += x; });";
        assert!(run("crates/smd/src/x.rs", serial).is_empty());
    }

    #[test]
    fn r001_relaxed_atomic_and_mutex_type_in_par() {
        let relaxed = "(0..n).into_par_iter().map(|i| { c.fetch_add(1, Ordering::Relaxed); i }).collect::<Vec<_>>();";
        assert_eq!(rules_fired(&run("crates/smd/src/x.rs", relaxed)), ["R001"]);
        let mutex = "xs.par_chunks(8).for_each(|c| { let m = Mutex::new(0.0); drop(m); });";
        assert_eq!(rules_fired(&run("crates/md/src/x.rs", mutex)), ["R001"]);
        // A Mutex outside the parallel region is not R001's business.
        let outside = "let acc = Mutex::new(0.0); xs.par_iter().for_each(|x| { work(x); });";
        assert!(run("crates/md/src/x.rs", outside).is_empty());
    }

    #[test]
    fn r002_parallel_float_reduction() {
        let src = "let e: f64 = xs.par_iter().map(|x| x * x).sum();";
        assert_eq!(rules_fired(&run("crates/md/src/x.rs", src)), ["R002"]);
        let reduce = "let e = xs.par_iter().map(f).reduce(|| 0.0, |a, b| a + b);";
        assert_eq!(rules_fired(&run("crates/md/src/x.rs", reduce)), ["R002"]);
        // collect() restores order: the serial sum after it is fine.
        let collected =
            "let v: Vec<f64> = xs.par_iter().map(f).collect(); let e: f64 = v.iter().sum();";
        assert!(run("crates/md/src/x.rs", collected).is_empty());
        // The sanctioned idiom (for_each into scratch) never fires.
        let idiom = "scratch.par_iter_mut().enumerate().for_each(|(c, s)| { fill(c, s); });";
        assert!(run("crates/md/src/x.rs", idiom).is_empty());
        // Serial sums and non-sim crates are out of scope.
        assert!(run("crates/md/src/x.rs", "let e: f64 = xs.iter().sum();").is_empty());
        assert!(run("crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn r_rules_silent_in_test_context() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { let e: f64 = xs.par_iter().map(|x| *acc.lock().expect(\"k\") + x).sum(); }\n}";
        assert!(run("crates/md/src/x.rs", src).is_empty());
        assert!(run("crates/md/tests/t.rs", src).is_empty());
    }

    #[test]
    fn rule_info_lookup_covers_catalog() {
        for r in RULES {
            assert!(rule_info(r.id).is_some());
            assert!(!r.detail.is_empty());
        }
        assert!(rule_info("Z999").is_none());
    }

    #[test]
    fn string_and_comment_bodies_never_fire() {
        let src = "let s = \"thread_rng unwrap() == 0.0\"; // thread_rng unwrap()\n";
        assert!(run("crates/md/src/x.rs", src).is_empty());
    }
}
