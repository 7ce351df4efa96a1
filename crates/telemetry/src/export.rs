//! Exporters: human-readable summary tree, JSON-lines event stream,
//! and Chrome `chrome://tracing` JSON.
//!
//! All three read a [`Snapshot`], whose track and metric order is
//! deterministic, and use only ordering-stable formatting — so an
//! instrumented replay exports byte-identical artifacts.

use crate::registry::MetricValue;
use crate::span::{EventKind, TrackSnapshot};
use crate::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
struct Node {
    count: u64,
    ticks: u64,
    children: BTreeMap<&'static str, Node>,
}

/// Aggregate one track's events into the shared span tree and count its
/// instants. Unclosed spans are closed at the track's final clock.
fn fold_track(track: &TrackSnapshot, root: &mut Node, instants: &mut BTreeMap<&'static str, u64>) {
    let final_clock = track.events.last().map_or(0, |e| e.logical);
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    let close = |root: &mut Node, stack: &[(&'static str, u64)], at: u64| {
        let mut node = &mut *root;
        for (name, _) in stack {
            node = node.children.entry(name).or_default();
        }
        node.count += 1;
        let entered = stack.last().map_or(0, |(_, t)| *t);
        node.ticks += at.saturating_sub(entered);
    };
    for e in &track.events {
        match e.kind {
            EventKind::Enter => stack.push((e.name, e.logical)),
            EventKind::Exit => {
                if !stack.is_empty() {
                    close(root, &stack, e.logical);
                    stack.pop();
                }
            }
            EventKind::Instant => *instants.entry(e.name).or_default() += 1,
        }
    }
    while !stack.is_empty() {
        close(root, &stack, final_clock);
        stack.pop();
    }
}

fn render_node(out: &mut String, name: &str, node: &Node, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{name}");
    let _ = writeln!(
        out,
        "  {label:<40} count={:<8} ticks={}",
        node.count, node.ticks
    );
    for (child_name, child) in &node.children {
        render_node(out, child_name, child, depth + 1);
    }
}

/// Flamegraph-style aggregated span tree plus the metric listing.
pub fn summary_tree(snap: &Snapshot) -> String {
    let mut root = Node::default();
    let mut instants: BTreeMap<&'static str, u64> = BTreeMap::new();
    for track in &snap.tracks {
        fold_track(track, &mut root, &mut instants);
    }
    let mut out = String::from("telemetry summary\n");
    let _ = writeln!(out, "tracks: {}", snap.tracks.len());
    out.push_str("span tree (logical ticks)\n");
    for (name, node) in &root.children {
        render_node(&mut out, name, node, 0);
    }
    if !instants.is_empty() {
        out.push_str("instants\n");
        for (name, n) in &instants {
            let _ = writeln!(out, "  {name:<42} x{n}");
        }
    }
    if !snap.metrics.is_empty() {
        out.push_str("metrics\n");
        for (name, v) in &snap.metrics {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "  {name:<42} = {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "  {name:<42} = {}", fmt_f64(*g));
                }
            }
        }
    }
    out
}

/// Escape a string for a JSON literal body. Beyond the mandatory set
/// (quote, backslash, C0 controls), DEL and the U+2028/U+2029 line
/// separators are `\u`-escaped: both separators are legal raw inside
/// JSON strings but terminate lines in JavaScript and some line-oriented
/// consumers, which would corrupt the one-object-per-line JSONL framing.
/// All other multi-byte characters pass through as UTF-8. The one JSON
/// escaper of the workspace: `spice-obs` and `spice-lint` call it too.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Deterministic JSON-safe float formatting: shortest round-trip,
/// integers without a trailing `.0`, non-finite values as `null` (JSON
/// has no inf/NaN).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn attrs_json(attrs: &[(&'static str, String)]) -> String {
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One JSON object per line: every span/instant event in track order,
/// then every metric in name order.
pub fn jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for track in &snap.tracks {
        for e in &track.events {
            let kind = match e.kind {
                EventKind::Enter => "enter",
                EventKind::Exit => "exit",
                EventKind::Instant => "instant",
            };
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"track\":\"{}\",\"key\":{},\"name\":\"{}\",\"logical\":{}",
                json_escape(track.name),
                track.key,
                json_escape(e.name),
                e.logical
            );
            if let Some(ns) = e.wall_ns {
                let _ = write!(out, ",\"wall_ns\":{ns}");
            }
            if !e.attrs.is_empty() {
                let _ = write!(out, ",\"attrs\":{}", attrs_json(&e.attrs));
            }
            out.push_str("}\n");
        }
    }
    for (name, v) in &snap.metrics {
        match v {
            MetricValue::Counter(c) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{c}}}",
                    json_escape(name)
                );
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                    json_escape(name),
                    fmt_f64(*g)
                );
            }
        }
    }
    out
}

/// Chrome `chrome://tracing` / Perfetto JSON. Each track becomes a
/// "thread"; `ts` is the wall clock (µs) when captured (`timing`
/// feature), the logical clock otherwise.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let mut events: Vec<String> = Vec::new();
    for (tid, track) in snap.tracks.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}/{}\"}}}}",
            json_escape(track.name),
            track.key
        ));
        for e in &track.events {
            let ts = match e.wall_ns {
                Some(ns) => ns / 1_000,
                None => e.logical,
            };
            let mut line = match e.kind {
                EventKind::Enter => format!(
                    "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}",
                    json_escape(e.name)
                ),
                EventKind::Exit => format!(
                    "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}",
                    json_escape(e.name)
                ),
                EventKind::Instant => format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}",
                    json_escape(e.name)
                ),
            };
            if !e.attrs.is_empty() {
                let _ = write!(line, ",\"args\":{}", attrs_json(&e.attrs));
            }
            line.push('}');
            events.push(line);
        }
    }
    let mut counter_ts = 0u64;
    for (name, v) in &snap.metrics {
        if let MetricValue::Counter(c) = v {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":0,\"ts\":{counter_ts},\
                 \"args\":{{\"value\":{c}}}}}",
                json_escape(name)
            ));
            counter_ts += 1;
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn demo_snapshot() -> Snapshot {
        let ev = |kind, name, logical| SpanEvent {
            kind,
            name,
            logical,
            wall_ns: None,
            attrs: Vec::new(),
        };
        Snapshot {
            tracks: vec![TrackSnapshot {
                name: "real",
                key: 0,
                events: vec![
                    ev(EventKind::Enter, "run", 0),
                    ev(EventKind::Enter, "pull", 2),
                    SpanEvent {
                        kind: EventKind::Instant,
                        name: "rebuild",
                        logical: 5,
                        wall_ns: None,
                        attrs: vec![("n", "1".to_string())],
                    },
                    ev(EventKind::Exit, "pull", 10),
                    ev(EventKind::Exit, "run", 12),
                ],
            }],
            metrics: vec![
                ("md.pairs".to_string(), MetricValue::Counter(42)),
                ("work.mean".to_string(), MetricValue::Gauge(1.5)),
            ],
        }
    }

    #[test]
    fn summary_tree_nests_and_sums() {
        let s = summary_tree(&demo_snapshot());
        assert!(s.contains("run"), "{s}");
        assert!(s.contains("ticks=12"), "{s}");
        assert!(s.contains("ticks=8"), "pull span is 10-2: {s}");
        assert!(s.contains("rebuild"), "{s}");
        assert!(s.contains("md.pairs"), "{s}");
        let run_line = s.lines().position(|l| l.contains("run")).unwrap();
        let pull_line = s.lines().position(|l| l.contains("pull")).unwrap();
        assert!(pull_line > run_line, "child rendered under parent");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let out = jsonl(&demo_snapshot());
        assert_eq!(out.lines().count(), 5 + 2);
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        assert!(out.contains("\"attrs\":{\"n\":\"1\"}"), "{out}");
        assert!(out.contains("\"type\":\"counter\""), "{out}");
    }

    #[test]
    fn chrome_trace_balances_begin_end() {
        let out = chrome_trace(&demo_snapshot());
        assert_eq!(out.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 1);
        assert!(out.contains("\"thread_name\""));
        assert!(out.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(2.5), "2.5");
    }

    #[test]
    fn escaping_handles_del_separators_and_multibyte() {
        assert_eq!(json_escape("\u{7f}"), "\\u007f");
        assert_eq!(json_escape("\u{2028}\u{2029}"), "\\u2028\\u2029");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("π 😀 é"), "π 😀 é", "multi-byte passes through");
    }

    #[test]
    fn hostile_names_export_as_valid_single_line_json() {
        use crate::span::intern;
        use crate::Telemetry;
        let hostile = intern("a\"b\\c\nd\u{2028}e π😀 \u{7f}");
        let t = Telemetry::enabled();
        t.track(hostile, 0)
            .instant(hostile, vec![("k", hostile.to_string())]);
        t.counter(hostile).incr();

        for export in [t.jsonl(), t.chrome_trace()] {
            for line in export.lines().filter(|l| l.contains("\\u2028")) {
                assert!(
                    !line.contains('\u{2028}') && !line.contains('\u{7f}'),
                    "no raw separators/DEL in: {line}"
                );
            }
            // One-object-per-line framing survives: no raw newline or
            // line separator inside any line, quotes all escaped.
            for line in export.lines() {
                let bytes = line.as_bytes();
                let mut i = 0;
                let mut in_str = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' if in_str => i += 1, // skip escaped char
                        b'"' => in_str = !in_str,
                        _ => {}
                    }
                    i += 1;
                }
                assert!(!in_str, "unbalanced quotes in exported line: {line}");
            }
        }
        let jsonl = t.jsonl();
        assert_eq!(
            jsonl.lines().count(),
            2,
            "hostile names stay on their own lines: {jsonl}"
        );
    }

    #[test]
    fn unclosed_span_is_closed_at_final_clock() {
        let snap = Snapshot {
            tracks: vec![TrackSnapshot {
                name: "t",
                key: 0,
                events: vec![SpanEvent {
                    kind: EventKind::Enter,
                    name: "open",
                    logical: 3,
                    wall_ns: None,
                    attrs: Vec::new(),
                }],
            }],
            metrics: Vec::new(),
        };
        let s = summary_tree(&snap);
        assert!(s.contains("open"), "{s}");
        assert!(s.contains("count=1"), "{s}");
    }
}
