//! Noise-aware trace diff for A/B regression detection.
//!
//! Compares two exports — either whole-JSON benchmark reports
//! (`BENCH_*.json`) or telemetry JSONL streams — by flattening each into
//! dotted-path leaves and comparing leaf-by-leaf under a relative
//! tolerance. Telemetry events are aggregated (per-track event counts
//! and final clocks) rather than compared line-by-line, so a diff
//! answers "did the shape of the run change" instead of drowning in
//! per-event noise. Paths can be excluded by substring for fields that
//! are expected to move (wall-clock timings on shared CI runners).

use crate::json::{self, Json};
use crate::trace::TraceModel;
use spice_telemetry::{EventKind, MetricValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One flattened leaf value.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// Numeric leaf (compared under tolerance).
    Num(f64),
    /// String leaf (compared exactly).
    Str(String),
    /// Boolean leaf (compared exactly).
    Bool(bool),
    /// Null leaf.
    Null,
}

impl Leaf {
    fn render(&self) -> String {
        match self {
            Leaf::Num(v) => json::fmt_f64(*v),
            Leaf::Str(s) => s.clone(),
            Leaf::Bool(b) => b.to_string(),
            Leaf::Null => "null".to_string(),
        }
    }
}

/// Diff configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative tolerance for numeric leaves (0.1 = 10%).
    pub tolerance: f64,
    /// Absolute epsilon under which numeric deltas never count.
    pub abs_epsilon: f64,
    /// Substrings; any matching path is skipped.
    pub ignore: Vec<String>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            tolerance: 0.1,
            abs_epsilon: 1e-9,
            ignore: Vec::new(),
        }
    }
}

/// One out-of-tolerance leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted leaf path.
    pub path: String,
    /// Value in trace A, rendered.
    pub a: String,
    /// Value in trace B, rendered.
    pub b: String,
    /// Relative delta for numeric leaves, None for type/string breaks.
    pub rel: Option<f64>,
}

/// Diff result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Leaves compared (present in both, not ignored).
    pub compared: usize,
    /// Out-of-tolerance leaves, in path order.
    pub broken: Vec<DiffEntry>,
    /// Paths only in B.
    pub added: Vec<String>,
    /// Paths only in A.
    pub removed: Vec<String>,
}

impl DiffReport {
    /// True when the traces match under the configured tolerance.
    pub fn is_clean(&self) -> bool {
        self.broken.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }
}

fn flatten_json(prefix: &str, v: &Json, out: &mut BTreeMap<String, Leaf>) {
    match v {
        Json::Null => {
            out.insert(prefix.to_string(), Leaf::Null);
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), Leaf::Bool(*b));
        }
        Json::Num(n) => {
            out.insert(prefix.to_string(), Leaf::Num(*n));
        }
        Json::Str(s) => {
            out.insert(prefix.to_string(), Leaf::Str(s.clone()));
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_json(&format!("{prefix}[{i}]"), item, out);
            }
            if items.is_empty() {
                out.insert(format!("{prefix}.len"), Leaf::Num(0.0));
            }
        }
        Json::Obj(members) => {
            for (k, val) in members {
                let child = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_json(&child, val, out);
            }
        }
    }
}

/// Flatten a telemetry trace model: metrics become `metrics.<name>...`
/// leaves; events are aggregated into per-track counts and final clocks
/// under `events.<track>/<key>...`.
fn flatten_model(model: &TraceModel, out: &mut BTreeMap<String, Leaf>) {
    for (name, v) in &model.metrics {
        let value = match v {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
        };
        out.insert(format!("metrics.{name}"), Leaf::Num(value));
    }
    for track in &model.tracks {
        let base = format!("events.{}/{}", track.track, track.key);
        let mut counts: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for e in &track.events {
            let kind = match e.kind {
                EventKind::Enter => "enter",
                EventKind::Exit => "exit",
                EventKind::Instant => "instant",
            };
            *counts.entry((e.name.as_str(), kind)).or_default() += 1;
        }
        for ((name, kind), n) in counts {
            out.insert(format!("{base}.{name}.{kind}"), Leaf::Num(n as f64));
        }
        out.insert(
            format!("{base}.final_clock"),
            Leaf::Num(track.events.last().map_or(0, |e| e.logical) as f64),
        );
    }
}

/// Parse one input into leaves. Telemetry JSONL is detected by shape —
/// the first non-blank line is an object with a string `"type"` member —
/// so even a one-line export (which also parses as a whole JSON
/// document) is aggregated as telemetry rather than flattened
/// structurally. Everything else is tried as a single JSON document,
/// falling back to JSONL.
pub fn flatten_input(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let mut out = BTreeMap::new();
    let looks_like_jsonl = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| json::parse(l).ok())
        .is_some_and(|obj| obj.get("type").is_some_and(|t| t.as_str().is_some()));
    if looks_like_jsonl {
        let model = TraceModel::from_jsonl(text)?;
        flatten_model(&model, &mut out);
    } else {
        match json::parse(text) {
            Ok(doc) => flatten_json("", &doc, &mut out),
            Err(_) => {
                let model = TraceModel::from_jsonl(text)
                    .map_err(|e| format!("input is neither a JSON document nor JSONL: {e}"))?;
                flatten_model(&model, &mut out);
            }
        }
    }
    Ok(out)
}

/// Compare two flattened inputs.
pub fn diff(
    a: &BTreeMap<String, Leaf>,
    b: &BTreeMap<String, Leaf>,
    cfg: &DiffConfig,
) -> DiffReport {
    let ignored = |path: &str| cfg.ignore.iter().any(|s| path.contains(s.as_str()));
    let mut report = DiffReport::default();
    for (path, va) in a {
        if ignored(path) {
            continue;
        }
        match b.get(path) {
            None => report.removed.push(path.clone()),
            Some(vb) => {
                report.compared += 1;
                match (va, vb) {
                    (Leaf::Num(x), Leaf::Num(y)) => {
                        let delta = (x - y).abs();
                        let scale = x.abs().max(y.abs());
                        let within = delta <= cfg.abs_epsilon || delta <= cfg.tolerance * scale;
                        // NaN deltas (either side non-finite) always break.
                        if !within || !delta.is_finite() {
                            report.broken.push(DiffEntry {
                                path: path.clone(),
                                a: va.render(),
                                b: vb.render(),
                                rel: if scale > 0.0 && delta.is_finite() {
                                    Some(delta / scale)
                                } else {
                                    None
                                },
                            });
                        }
                    }
                    _ if va == vb => {}
                    _ => report.broken.push(DiffEntry {
                        path: path.clone(),
                        a: va.render(),
                        b: vb.render(),
                        rel: None,
                    }),
                }
            }
        }
    }
    for path in b.keys() {
        if !ignored(path) && !a.contains_key(path) {
            report.added.push(path.clone());
        }
    }
    report
}

impl DiffReport {
    /// Human-readable rendering.
    pub fn render_text(&self, cfg: &DiffConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace diff  tolerance={}  compared={}",
            json::fmt_f64(cfg.tolerance),
            self.compared
        );
        for e in &self.broken {
            match e.rel {
                Some(rel) => {
                    let _ = writeln!(
                        out,
                        "  BREAK {}  a={}  b={}  rel={:.4}",
                        e.path, e.a, e.b, rel
                    );
                }
                None => {
                    let _ = writeln!(out, "  BREAK {}  a={}  b={}", e.path, e.a, e.b);
                }
            }
        }
        for p in &self.removed {
            let _ = writeln!(out, "  ONLY-A {p}");
        }
        for p in &self.added {
            let _ = writeln!(out, "  ONLY-B {p}");
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.is_clean() { "clean" } else { "DIFFERS" }
        );
        out
    }

    /// JSON rendering.
    pub fn to_json(&self, cfg: &DiffConfig) -> Json {
        Json::Obj(vec![
            ("tolerance".to_string(), Json::Num(cfg.tolerance)),
            ("compared".to_string(), Json::Num(self.compared as f64)),
            ("clean".to_string(), Json::Bool(self.is_clean())),
            (
                "broken".to_string(),
                Json::Arr(
                    self.broken
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("path".to_string(), Json::Str(e.path.clone())),
                                ("a".to_string(), Json::Str(e.a.clone())),
                                ("b".to_string(), Json::Str(e.b.clone())),
                                (
                                    "rel".to_string(),
                                    e.rel.map_or(Json::Null, |r| {
                                        Json::Num((r * 10000.0).round() / 10000.0)
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "removed".to_string(),
                Json::Arr(self.removed.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "added".to_string(),
                Json::Arr(self.added.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(src: &str) -> BTreeMap<String, Leaf> {
        flatten_input(src).expect("parses")
    }

    #[test]
    fn identical_docs_are_clean() {
        let a = leaves(r#"{"x": 1.0, "y": {"z": [1, 2]}, "s": "hi"}"#);
        let r = diff(&a, &a, &DiffConfig::default());
        assert!(r.is_clean());
        assert_eq!(r.compared, 4);
    }

    #[test]
    fn tolerance_absorbs_noise_but_not_regressions() {
        let a = leaves(r#"{"wall_ms": 100.0}"#);
        let noisy = leaves(r#"{"wall_ms": 105.0}"#);
        let regressed = leaves(r#"{"wall_ms": 150.0}"#);
        let cfg = DiffConfig::default(); // 10%
        assert!(diff(&a, &noisy, &cfg).is_clean());
        let r = diff(&a, &regressed, &cfg);
        assert_eq!(r.broken.len(), 1);
        assert_eq!(r.broken[0].path, "wall_ms");
        assert!((r.broken[0].rel.unwrap() - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn added_removed_and_ignored_paths() {
        let a = leaves(r#"{"keep": 1, "gone": 2, "noise.wall": 5}"#);
        let b = leaves(r#"{"keep": 1, "new": 3, "noise.wall": 50}"#);
        let cfg = DiffConfig {
            ignore: vec!["noise".to_string()],
            ..DiffConfig::default()
        };
        let r = diff(&a, &b, &cfg);
        assert_eq!(r.removed, vec!["gone".to_string()]);
        assert_eq!(r.added, vec!["new".to_string()]);
        assert!(r.broken.is_empty(), "ignored path does not break");
        assert!(!r.is_clean(), "adds/removes still dirty the result");
    }

    #[test]
    fn string_and_type_breaks_are_exact() {
        let a = leaves(r#"{"mode": "fast", "n": 1}"#);
        let b = leaves(r#"{"mode": "slow", "n": "1"}"#);
        let r = diff(&a, &b, &DiffConfig::default());
        assert_eq!(r.broken.len(), 2);
        assert!(r.broken.iter().all(|e| e.rel.is_none()));
    }

    #[test]
    fn jsonl_inputs_flatten_to_aggregates() {
        use spice_telemetry::Telemetry;
        let t = Telemetry::enabled();
        let track = t.track("real", 0);
        {
            let _g = track.span_at("run", 0);
            track.instant_at("mark", 5, Vec::new());
            track.tick(9);
        }
        t.counter("grid.jobs").add(3);
        let flat = leaves(&t.jsonl());
        assert_eq!(flat.get("metrics.grid.jobs"), Some(&Leaf::Num(3.0)));
        assert_eq!(flat.get("events.real/0.run.enter"), Some(&Leaf::Num(1.0)));
        assert_eq!(flat.get("events.real/0.final_clock"), Some(&Leaf::Num(9.0)));
        // Same trace replayed → clean diff.
        let r = diff(&flat, &leaves(&t.jsonl()), &DiffConfig::default());
        assert!(r.is_clean(), "{r:?}");
    }

    #[test]
    fn one_line_jsonl_still_flattens_as_telemetry() {
        // A single-line export also parses as a plain JSON document; the
        // shape check must route it through telemetry aggregation so it
        // diffs clean against a multi-line export of the same trace.
        let one = leaves("{\"type\":\"counter\",\"name\":\"grid.jobs\",\"value\":3}\n");
        assert_eq!(one.get("metrics.grid.jobs"), Some(&Leaf::Num(3.0)));
        assert!(!one.contains_key("type"), "not flattened structurally");
        let two = leaves(
            "{\"type\":\"counter\",\"name\":\"grid.jobs\",\"value\":3}\n\
             {\"type\":\"counter\",\"name\":\"grid.retries\",\"value\":0}\n",
        );
        let r = diff(&one, &two, &DiffConfig::default());
        assert!(r.broken.is_empty());
        assert_eq!(r.added, vec!["metrics.grid.retries".to_string()]);
    }

    #[test]
    fn garbage_input_is_an_error() {
        assert!(flatten_input("definitely not json").is_err());
    }
}
