//! Steering stall detection.
//!
//! SPICE §II/III: the 256-processor interactive run stalled when the
//! bi-directional steering stream crossed unreliable commodity IP, and
//! stayed responsive over the dedicated lightpath. This module turns
//! that anecdote into a measurement. Steering exchanges are recorded as
//! named instants on per-session telemetry tracks; the detector learns
//! each track's *expected cadence* (the median inter-arrival gap, which
//! is robust against the very outliers being hunted) and flags a **stall
//! window** wherever a gap exceeds `k ×` that cadence. On the lightpath
//! profile gaps hug the median and the detector stays silent; on the
//! commodity profile every retransmit-inflated exchange lands far past
//! `k = 1.5` and is reported with its start/end stamp and severity
//! ratio.

use crate::json::Json;
use crate::report::render_metric;
use crate::trace::TraceModel;
use spice_telemetry::EventKind;
use std::fmt::Write as _;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct StallConfig {
    /// Instant name carrying the cadence signal.
    pub name: String,
    /// Only examine tracks with this name (None = all tracks).
    pub track: Option<String>,
    /// Stall threshold multiplier over the expected gap.
    pub k: f64,
    /// Expected inter-arrival gap override; None learns the median.
    pub expected_gap: Option<f64>,
    /// Minimum instants per track before cadence is trusted.
    pub min_events: usize,
}

impl Default for StallConfig {
    fn default() -> StallConfig {
        StallConfig {
            name: "steering.exchange".to_string(),
            track: None,
            k: 1.5,
            expected_gap: None,
            min_events: 8,
        }
    }
}

/// One detected stall window on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct StallWindow {
    /// Logical stamp of the last event before the stall.
    pub start: u64,
    /// Logical stamp of the event that ended it.
    pub end: u64,
    /// `end - start`.
    pub gap: u64,
    /// `gap / expected_gap` — severity; always > k.
    pub ratio: f64,
}

/// Per-track detection result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackStalls {
    /// Track name.
    pub track: String,
    /// Track key (session/client id).
    pub key: u64,
    /// Instants named [`StallConfig::name`] seen on this track.
    pub n_events: usize,
    /// Learned (or overridden) cadence in logical ticks.
    pub expected_gap: f64,
    /// Largest observed gap.
    pub max_gap: u64,
    /// Stall windows in stamp order.
    pub windows: Vec<StallWindow>,
}

/// Whole-trace detection result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StallReport {
    /// Threshold multiplier used.
    pub k: f64,
    /// Instant name examined.
    pub name: String,
    /// Per-track results for every track with enough events, in model
    /// (track, key) order.
    pub tracks: Vec<TrackStalls>,
    /// Steering service metrics surfaced alongside (name, rendered
    /// value), in name order: backlog watermarks, client lag quantiles.
    pub steering_metrics: Vec<(String, String)>,
}

impl StallReport {
    /// Total stall windows across all tracks.
    pub fn total_windows(&self) -> usize {
        self.tracks.iter().map(|t| t.windows.len()).sum()
    }
}

/// Median of a non-empty slice of gaps.
fn median(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// Run the detector over every qualifying track.
pub fn detect(model: &TraceModel, cfg: &StallConfig) -> StallReport {
    let mut report = StallReport {
        k: cfg.k,
        name: cfg.name.clone(),
        tracks: Vec::new(),
        steering_metrics: Vec::new(),
    };
    for track in &model.tracks {
        if let Some(want) = &cfg.track {
            if &track.track != want {
                continue;
            }
        }
        let mut stamps: Vec<u64> = track
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == cfg.name)
            .map(|e| e.logical)
            .collect();
        if stamps.len() < cfg.min_events.max(2) {
            continue;
        }
        // Live snapshots are monotone per track, but `from_jsonl` accepts
        // arbitrary user files; sort so an out-of-order trace yields true
        // inter-arrival gaps instead of u64 underflow.
        stamps.sort_unstable();
        let gaps: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
        let expected = cfg.expected_gap.unwrap_or_else(|| {
            let mut sorted = gaps.clone();
            sorted.sort_unstable();
            median(&sorted)
        });
        let mut windows = Vec::new();
        if expected > 0.0 {
            for (i, &gap) in gaps.iter().enumerate() {
                let ratio = gap as f64 / expected;
                if ratio > cfg.k {
                    windows.push(StallWindow {
                        start: stamps[i],
                        end: stamps[i + 1],
                        gap,
                        ratio,
                    });
                }
            }
        }
        report.tracks.push(TrackStalls {
            track: track.track.clone(),
            key: track.key,
            n_events: stamps.len(),
            expected_gap: expected,
            max_gap: gaps.iter().copied().max().unwrap_or(0),
            windows,
        });
    }
    for (name, value) in &model.metrics {
        if name.starts_with("steering.") {
            report
                .steering_metrics
                .push((name.clone(), render_metric(value)));
        }
    }
    report
}

impl StallReport {
    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stall report  instant={}  k={}",
            self.name,
            crate::json::fmt_f64(self.k)
        );
        if self.tracks.is_empty() {
            out.push_str("no tracks with enough events\n");
        }
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "track {}/{}  events={}  expected_gap={}  max_gap={}  stalls={}",
                t.track,
                t.key,
                t.n_events,
                crate::json::fmt_f64(t.expected_gap),
                t.max_gap,
                t.windows.len()
            );
            for w in &t.windows {
                let _ = writeln!(
                    out,
                    "  stall [{} .. {}] gap={} ratio={:.2}",
                    w.start, w.end, w.gap, w.ratio
                );
            }
        }
        if !self.steering_metrics.is_empty() {
            out.push_str("steering metrics\n");
            for (name, v) in &self.steering_metrics {
                let _ = writeln!(out, "  {name:<42} = {v}");
            }
        }
        let _ = writeln!(out, "total stall windows: {}", self.total_windows());
        out
    }

    /// JSON rendering (deterministic member order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("instant".to_string(), Json::Str(self.name.clone())),
            ("k".to_string(), Json::Num(self.k)),
            (
                "total_windows".to_string(),
                Json::Num(self.total_windows() as f64),
            ),
            (
                "tracks".to_string(),
                Json::Arr(
                    self.tracks
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("track".to_string(), Json::Str(t.track.clone())),
                                ("key".to_string(), Json::Num(t.key as f64)),
                                ("events".to_string(), Json::Num(t.n_events as f64)),
                                ("expected_gap".to_string(), Json::Num(t.expected_gap)),
                                ("max_gap".to_string(), Json::Num(t.max_gap as f64)),
                                (
                                    "stalls".to_string(),
                                    Json::Arr(
                                        t.windows
                                            .iter()
                                            .map(|w| {
                                                Json::Obj(vec![
                                                    (
                                                        "start".to_string(),
                                                        Json::Num(w.start as f64),
                                                    ),
                                                    ("end".to_string(), Json::Num(w.end as f64)),
                                                    ("gap".to_string(), Json::Num(w.gap as f64)),
                                                    (
                                                        "ratio".to_string(),
                                                        Json::Num(
                                                            (w.ratio * 1000.0).round() / 1000.0,
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "steering_metrics".to_string(),
                Json::Obj(
                    self.steering_metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceModel;
    use spice_telemetry::Telemetry;

    /// A session with a steady cadence of 10 ticks and two injected
    /// stalls (gaps of 35 and 60).
    fn stalled_model() -> TraceModel {
        let t = Telemetry::enabled();
        let track = t.track("steering.session", 1);
        let mut clock = 0u64;
        for i in 0..20 {
            clock += match i {
                7 => 35,
                13 => 60,
                _ => 10,
            };
            track.instant_at("steering.exchange", clock, Vec::new());
        }
        t.counter("steering.backlog_watermark").add(4);
        TraceModel::from_snapshot(&t.snapshot())
    }

    #[test]
    fn detects_injected_stalls() {
        let report = detect(&stalled_model(), &StallConfig::default());
        assert_eq!(report.tracks.len(), 1);
        let t = &report.tracks[0];
        assert_eq!(t.expected_gap, 10.0, "median gap is the steady cadence");
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[0].gap, 35);
        assert_eq!(t.windows[1].gap, 60);
        assert!((t.windows[0].ratio - 3.5).abs() < 1e-12);
        assert_eq!(t.max_gap, 60);
        assert_eq!(report.total_windows(), 2);
        assert_eq!(
            report.steering_metrics,
            vec![("steering.backlog_watermark".to_string(), "4".to_string())]
        );
    }

    #[test]
    fn steady_cadence_is_silent() {
        let t = Telemetry::enabled();
        let track = t.track("steering.session", 0);
        for i in 1..=30u64 {
            track.instant_at("steering.exchange", i * 10, Vec::new());
        }
        let report = detect(
            &TraceModel::from_snapshot(&t.snapshot()),
            &StallConfig::default(),
        );
        assert_eq!(report.total_windows(), 0);
        assert_eq!(report.tracks[0].expected_gap, 10.0);
    }

    #[test]
    fn too_few_events_is_no_verdict() {
        let t = Telemetry::enabled();
        let track = t.track("steering.session", 0);
        for i in 1..=3u64 {
            track.instant_at("steering.exchange", i * 100, Vec::new());
        }
        let report = detect(
            &TraceModel::from_snapshot(&t.snapshot()),
            &StallConfig::default(),
        );
        assert!(report.tracks.is_empty(), "cadence needs min_events");
    }

    #[test]
    fn zero_cadence_never_divides() {
        let t = Telemetry::enabled();
        let track = t.track("s", 0);
        for _ in 0..10 {
            track.instant_at("steering.exchange", 5, Vec::new());
        }
        let report = detect(
            &TraceModel::from_snapshot(&t.snapshot()),
            &StallConfig::default(),
        );
        assert_eq!(report.tracks[0].expected_gap, 0.0);
        assert!(report.tracks[0].windows.is_empty());
    }

    #[test]
    fn out_of_order_stamps_do_not_underflow() {
        // Hand-built JSONL with instants deliberately out of stamp order,
        // as an arbitrary user file may be. Sorted, the cadence is 10
        // with one injected gap of 60.
        let mut lines = String::new();
        for stamp in [40u64, 10, 30, 20, 120, 50, 60, 70, 80] {
            lines.push_str(&format!(
                "{{\"type\":\"instant\",\"track\":\"s\",\"key\":0,\
                 \"name\":\"steering.exchange\",\"logical\":{stamp}}}\n"
            ));
        }
        let model = TraceModel::from_jsonl(&lines).expect("parses");
        let report = detect(&model, &StallConfig::default());
        assert_eq!(report.tracks.len(), 1);
        assert_eq!(report.tracks[0].expected_gap, 10.0);
        assert_eq!(report.tracks[0].max_gap, 40, "gap 80 -> 120");
        assert_eq!(report.total_windows(), 1);
        assert_eq!(report.tracks[0].windows[0].start, 80);
        assert_eq!(report.tracks[0].windows[0].end, 120);
    }

    #[test]
    fn track_filter_and_gap_override() {
        let model = stalled_model();
        let none = detect(
            &model,
            &StallConfig {
                track: Some("other".to_string()),
                ..StallConfig::default()
            },
        );
        assert!(none.tracks.is_empty());
        let strict = detect(
            &model,
            &StallConfig {
                expected_gap: Some(100.0),
                ..StallConfig::default()
            },
        );
        assert_eq!(strict.total_windows(), 0, "generous cadence sees no stalls");
    }

    #[test]
    fn renderings_are_deterministic() {
        let report = detect(&stalled_model(), &StallConfig::default());
        assert_eq!(report.render_text(), report.render_text());
        assert_eq!(report.to_json().render(), report.to_json().render());
        assert!(report.render_text().contains("stalls=2"));
        assert!(report.to_json().render().contains("\"total_windows\":2"));
    }
}
