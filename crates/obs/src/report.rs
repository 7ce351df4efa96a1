//! Campaign summary report: quantiles, critical paths, highlights.
//!
//! `spice-trace summary` renders this over one or more traces. Span
//! durations are aggregated per `(track group, span name)` into
//! [`LogHistogram`]s — so a summary over N shard exports is the same in
//! any input order — and campaign-level metrics the
//! other subsystems export (grid failure/retry counters, checkpoint
//! write cadence and bytes from the durable engine, steering delivery
//! counters) are surfaced as named highlight sections instead of one
//! undifferentiated metric dump.

use crate::critical::{self, CriticalStep, TrackGroup};
use crate::histo::{LogHistogram, QuantileSummary};
use crate::json::{self, Json};
use crate::trace::TraceModel;
use spice_telemetry::{EventKind, MetricValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Duration quantiles of one span name within one track group.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanQuantiles {
    /// Track-name group.
    pub track: String,
    /// Span name.
    pub name: String,
    /// p50/p95/p99/max over closed-span logical durations.
    pub summary: QuantileSummary,
}

/// The full summary report.
#[derive(Debug, Clone, Default)]
pub struct SummaryReport {
    /// Input labels (file names or "snapshot"), in merge order.
    pub inputs: Vec<String>,
    /// Tracks seen.
    pub n_tracks: usize,
    /// Events seen.
    pub n_events: usize,
    /// Aggregated span-tree groups (critical-path source).
    pub groups: Vec<TrackGroup>,
    /// Critical path per group, in group order.
    pub critical_paths: Vec<(String, Vec<CriticalStep>)>,
    /// Span-duration quantiles, ordered by (track, name).
    pub span_quantiles: Vec<SpanQuantiles>,
    /// Highlight sections: (section title, [(metric name, rendered
    /// value)]) for grid/checkpoint/steering metrics that are present.
    pub highlights: Vec<(String, Vec<(String, String)>)>,
}

/// Collect per-(group, span-name) duration histograms from one model
/// into `acc` — the histograms shared across inputs.
fn fold_span_durations(model: &TraceModel, acc: &mut BTreeMap<(String, String), LogHistogram>) {
    for track in &model.tracks {
        let final_clock = track.events.last().map_or(0, |e| e.logical);
        let mut stack: Vec<(&str, u64)> = Vec::new();
        for e in &track.events {
            match e.kind {
                EventKind::Enter => stack.push((&e.name, e.logical)),
                EventKind::Exit => {
                    if let Some((name, entered)) = stack.pop() {
                        acc.entry((track.track.clone(), name.to_string()))
                            .or_default()
                            .record(e.logical.saturating_sub(entered) as f64);
                    }
                }
                EventKind::Instant => {}
            }
        }
        while let Some((name, entered)) = stack.pop() {
            acc.entry((track.track.clone(), name.to_string()))
                .or_default()
                .record(final_clock.saturating_sub(entered) as f64);
        }
    }
}

/// One metric's value as the reports print it.
pub(crate) fn render_metric(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => json::fmt_f64(*g),
    }
}

/// Pull every metric whose name starts with `prefix` out of the merged
/// metric map, rendered.
fn section(metrics: &BTreeMap<String, MetricValue>, prefix: &str) -> Vec<(String, String)> {
    metrics
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, v)| (name.clone(), render_metric(v)))
        .collect()
}

/// Build the report over one or more (label, model) inputs. Models are
/// concatenated track-wise; metrics merge by name (counters add, gauges
/// take the last input's value) so shard exports combine the way the
/// live registry would have.
///
/// A counter that sums past `u64::MAX`, within one input or across
/// them, is an error naming the input and metric; so are span durations
/// that do (see [`critical::try_span_groups`]).
pub fn build(inputs: &[(String, TraceModel)]) -> Result<SummaryReport, String> {
    let mut merged = TraceModel::default();
    let mut metrics: BTreeMap<String, MetricValue> = BTreeMap::new();
    let mut durations: BTreeMap<(String, String), LogHistogram> = BTreeMap::new();
    let mut report = SummaryReport::default();
    for (label, model) in inputs {
        report.inputs.push(label.clone());
        fold_span_durations(model, &mut durations);
        merged.tracks.extend(model.tracks.iter().cloned());
        for (name, v) in &model.metrics {
            let overflow = || format!("{label}: metric {name:?} sums past u64::MAX");
            match (metrics.get_mut(name), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    *a = a.checked_add(*b).ok_or_else(overflow)?;
                }
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                _ => {
                    metrics.insert(name.clone(), v.clone());
                }
            }
        }
    }
    report.n_tracks = merged.tracks.len();
    report.n_events = merged.event_count();
    report.groups = critical::try_span_groups(&merged)?;
    report.critical_paths = report
        .groups
        .iter()
        .map(|g| (g.track.clone(), critical::critical_path(g)))
        .collect();
    report.span_quantiles = durations
        .into_iter()
        .map(|((track, name), h)| SpanQuantiles {
            track,
            name,
            summary: h.summary(),
        })
        .collect();
    for (title, prefix) in [
        ("grid", "grid."),
        ("checkpoint", "checkpoint."),
        ("steering", "steering."),
    ] {
        let entries = section(&metrics, prefix);
        if !entries.is_empty() {
            report.highlights.push((title.to_string(), entries));
        }
    }
    Ok(report)
}

fn fmt_q(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.1}")
    }
}

impl SummaryReport {
    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary  inputs={}  tracks={}  events={}",
            self.inputs.len(),
            self.n_tracks,
            self.n_events
        );
        if !self.critical_paths.is_empty() {
            out.push_str("critical paths (logical ticks)\n");
            for (track, steps) in &self.critical_paths {
                let _ = write!(out, "  {track}:");
                for s in steps {
                    let _ = write!(
                        out,
                        " -> {} [{} x{} {:.0}%]",
                        s.name,
                        s.total_ticks,
                        s.count,
                        s.share * 100.0
                    );
                }
                out.push('\n');
            }
        }
        if !self.span_quantiles.is_empty() {
            out.push_str("span durations (ticks)\n");
            for q in &self.span_quantiles {
                let _ = writeln!(
                    out,
                    "  {:<40} n={:<7} p50={:<9} p95={:<9} p99={:<9} max={}",
                    format!("{}:{}", q.track, q.name),
                    q.summary.count,
                    fmt_q(q.summary.p50),
                    fmt_q(q.summary.p95),
                    fmt_q(q.summary.p99),
                    fmt_q(q.summary.max),
                );
            }
        }
        for (title, entries) in &self.highlights {
            let _ = writeln!(out, "{title} metrics");
            for (name, v) in entries {
                let _ = writeln!(out, "  {name:<42} = {v}");
            }
        }
        out
    }

    /// JSON rendering.
    pub fn to_json(&self) -> Json {
        let q_obj = |s: &QuantileSummary| {
            Json::Obj(vec![
                ("count".to_string(), Json::Num(s.count as f64)),
                ("p50".to_string(), Json::Num(s.p50)),
                ("p95".to_string(), Json::Num(s.p95)),
                ("p99".to_string(), Json::Num(s.p99)),
                ("max".to_string(), Json::Num(s.max)),
            ])
        };
        Json::Obj(vec![
            (
                "inputs".to_string(),
                Json::Arr(self.inputs.iter().cloned().map(Json::Str).collect()),
            ),
            ("tracks".to_string(), Json::Num(self.n_tracks as f64)),
            ("events".to_string(), Json::Num(self.n_events as f64)),
            (
                "critical_paths".to_string(),
                Json::Obj(
                    self.critical_paths
                        .iter()
                        .map(|(track, steps)| {
                            (
                                track.clone(),
                                Json::Arr(
                                    steps
                                        .iter()
                                        .map(|s| {
                                            Json::Obj(vec![
                                                ("name".to_string(), Json::Str(s.name.clone())),
                                                ("count".to_string(), Json::Num(s.count as f64)),
                                                (
                                                    "total_ticks".to_string(),
                                                    Json::Num(s.total_ticks as f64),
                                                ),
                                                (
                                                    "self_ticks".to_string(),
                                                    Json::Num(s.self_ticks as f64),
                                                ),
                                                (
                                                    "share".to_string(),
                                                    Json::Num(
                                                        (s.share * 10000.0).round() / 10000.0,
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "span_durations".to_string(),
                Json::Arr(
                    self.span_quantiles
                        .iter()
                        .map(|q| {
                            Json::Obj(vec![
                                ("track".to_string(), Json::Str(q.track.clone())),
                                ("name".to_string(), Json::Str(q.name.clone())),
                                ("quantiles".to_string(), q_obj(&q.summary)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "highlights".to_string(),
                Json::Obj(
                    self.highlights
                        .iter()
                        .map(|(title, entries)| {
                            (
                                title.clone(),
                                Json::Obj(
                                    entries
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_telemetry::Telemetry;

    fn demo_model() -> TraceModel {
        let t = Telemetry::enabled();
        for key in 0..4 {
            let track = t.track("real", key);
            let _run = track.span_at("run", 0);
            {
                let _eq = track.span_at("equilibrate", 0);
                track.tick(10 + key);
            }
            track.tick(50);
        }
        t.counter("grid.failures").add(3);
        t.counter("checkpoint.writes").add(7);
        t.counter("checkpoint.bytes").add(9000);
        t.set_gauge("steering.backlog_watermark", 5.0);
        t.counter("md.pairs").add(1); // not a highlight prefix
        TraceModel::from_snapshot(&t.snapshot())
    }

    #[test]
    fn report_aggregates_quantiles_and_highlights() {
        let r = build(&[("snapshot".to_string(), demo_model())]).expect("report builds");
        assert_eq!(r.n_tracks, 4);
        let eq = r
            .span_quantiles
            .iter()
            .find(|q| q.name == "equilibrate")
            .unwrap();
        assert_eq!(eq.summary.count, 4);
        assert_eq!(eq.summary.max, 13.0, "max duration 10+3");
        let titles: Vec<&str> = r.highlights.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(titles, ["grid", "checkpoint", "steering"]);
        let ckpt = &r.highlights[1].1;
        assert!(ckpt.contains(&("checkpoint.bytes".to_string(), "9000".to_string())));
        assert_eq!(r.critical_paths.len(), 1);
        assert_eq!(r.critical_paths[0].1[0].name, "run");
    }

    #[test]
    fn shard_merge_is_order_independent() {
        let a = ("a".to_string(), demo_model());
        let b = {
            let t = Telemetry::enabled();
            let track = t.track("real", 9);
            let _run = track.span_at("run", 0);
            track.tick(400);
            t.counter("grid.failures").add(2);
            ("b".to_string(), TraceModel::from_snapshot(&t.snapshot()))
        };
        let ab = build(&[a.clone(), b.clone()]).expect("report builds");
        let ba = build(&[b, a]).expect("report builds");
        assert_eq!(ab.span_quantiles, ba.span_quantiles);
        assert_eq!(ab.highlights, ba.highlights, "counters add commutatively");
        let failures = &ab.highlights[0].1;
        assert!(failures.contains(&("grid.failures".to_string(), "5".to_string())));
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = build(&[("snapshot".to_string(), demo_model())]).expect("report builds");
        assert_eq!(r.render_text(), r.render_text());
        assert_eq!(r.to_json().render(), r.to_json().render());
        assert!(r.render_text().contains("critical paths"));
    }

    #[test]
    fn empty_input_renders_without_sections() {
        let r = build(&[("x".to_string(), TraceModel::default())]).expect("report builds");
        assert_eq!(r.n_tracks, 0);
        assert!(r.highlights.is_empty());
        assert!(r.render_text().starts_with("trace summary"));
    }
}
