//! Trace model: a parsed, owned view of a telemetry export.
//!
//! `spice-telemetry` snapshots borrow `&'static str` names interned for
//! the process lifetime; the analysis layer instead works on an owned
//! [`TraceModel`] so it can be built either directly from an in-process
//! [`Snapshot`] or by parsing a JSONL export written by an earlier run.
//! Both construction paths produce identical models for the same trace,
//! which is what makes `spice-trace` output byte-reproducible.

use crate::json::{self, Json};
use spice_telemetry::{EventKind, MetricValue, Snapshot};

/// One event on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Enter/Exit/Instant.
    pub kind: EventKind,
    /// Span or instant name.
    pub name: String,
    /// Logical-clock stamp.
    pub logical: u64,
    /// Key/value attributes, in recorded order.
    pub attrs: Vec<(String, String)>,
}

/// One `(track, key)` event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTrack {
    /// Track name (e.g. `"steering.session"`).
    pub track: String,
    /// Logical key (realization index, client id, …).
    pub key: u64,
    /// Events in append order.
    pub events: Vec<TraceEvent>,
}

/// A fully parsed trace: tracks in export order plus the metric listing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceModel {
    /// Event tracks, in `(name, key)` export order.
    pub tracks: Vec<TraceTrack>,
    /// Metrics, in name order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl TraceModel {
    /// Build from an in-process snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> TraceModel {
        let tracks = snap
            .tracks
            .iter()
            .map(|t| TraceTrack {
                track: t.name.to_string(),
                key: t.key,
                events: t
                    .events
                    .iter()
                    .map(|e| TraceEvent {
                        kind: e.kind,
                        name: e.name.to_string(),
                        logical: e.logical,
                        attrs: e
                            .attrs
                            .iter()
                            .map(|(k, v)| (k.to_string(), v.clone()))
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        TraceModel {
            tracks,
            metrics: snap.metrics.clone(),
        }
    }

    /// Parse a JSONL export (the output of `Telemetry::jsonl`). Event
    /// lines are grouped back into tracks in first-seen order — which,
    /// for an export, is `(name, key)` order. Unknown line types are an
    /// error so silent drift between exporter and parser cannot hide.
    pub fn from_jsonl(text: &str) -> Result<TraceModel, String> {
        let mut model = TraceModel::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ty = obj
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
            match ty {
                "enter" | "exit" | "instant" => {
                    let kind = match ty {
                        "enter" => EventKind::Enter,
                        "exit" => EventKind::Exit,
                        _ => EventKind::Instant,
                    };
                    let track = req_str(&obj, "track", lineno)?;
                    let key = req_u64(&obj, "key", lineno)?;
                    let name = req_str(&obj, "name", lineno)?;
                    let logical = req_u64(&obj, "logical", lineno)?;
                    let attrs = match obj.get("attrs") {
                        Some(Json::Obj(members)) => members
                            .iter()
                            .map(|(k, v)| {
                                let s = v
                                    .as_str()
                                    .ok_or_else(|| format!("line {}: non-string attr", lineno + 1))?
                                    .to_string();
                                Ok((k.clone(), s))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => Vec::new(),
                    };
                    let event = TraceEvent {
                        kind,
                        name,
                        logical,
                        attrs,
                    };
                    match model
                        .tracks
                        .iter_mut()
                        .find(|t| t.track == track && t.key == key)
                    {
                        Some(t) => t.events.push(event),
                        None => model.tracks.push(TraceTrack {
                            track,
                            key,
                            events: vec![event],
                        }),
                    }
                }
                "counter" => {
                    let name = req_str(&obj, "name", lineno)?;
                    let v = req_u64(&obj, "value", lineno)?;
                    model.metrics.push((name, MetricValue::Counter(v)));
                }
                "gauge" => {
                    let name = req_str(&obj, "name", lineno)?;
                    let v = obj.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    model.metrics.push((name, MetricValue::Gauge(v)));
                }
                other => {
                    return Err(format!("line {}: unknown type {other:?}", lineno + 1));
                }
            }
        }
        Ok(model)
    }

    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find_map(|(n, v)| match v {
                MetricValue::Counter(c) if n == name => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Total event count across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

fn req_str(obj: &Json, key: &str, lineno: usize) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: missing string {key:?}", lineno + 1))
}

fn req_u64(obj: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {}: missing integer {key:?}", lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_telemetry::Telemetry;

    fn demo_telemetry() -> Telemetry {
        let t = Telemetry::enabled();
        let track = t.track("real", 1);
        {
            let _run = track.span_at("run", 0);
            track.tick(4);
            track.instant("mark", vec![("n", "2".to_string())]);
            track.tick(9);
        }
        t.counter("grid.jobs").add(7);
        t.set_gauge("work.mean", 1.25);
        t
    }

    #[test]
    fn jsonl_round_trips_to_snapshot_model() {
        let t = demo_telemetry();
        let direct = TraceModel::from_snapshot(&t.snapshot());
        let parsed = TraceModel::from_jsonl(&t.jsonl()).expect("export parses");
        assert_eq!(direct, parsed);
        assert_eq!(parsed.counter("grid.jobs"), 7);
        assert_eq!(parsed.gauge("work.mean"), Some(1.25));
        assert_eq!(parsed.tracks.len(), 1);
        assert_eq!(parsed.tracks[0].events.len(), 3);
        assert_eq!(
            parsed.tracks[0].events[1].attrs,
            vec![("n".to_string(), "2".to_string())]
        );
    }

    #[test]
    fn unknown_line_type_is_an_error() {
        assert!(TraceModel::from_jsonl("{\"type\":\"mystery\"}\n").is_err());
        assert!(TraceModel::from_jsonl("not json\n").is_err());
        assert!(TraceModel::from_jsonl("\n\n")
            .expect("blank ok")
            .tracks
            .is_empty());
    }

    #[test]
    fn escaped_names_survive_the_round_trip() {
        use spice_telemetry::intern;
        let t = Telemetry::enabled();
        let name = intern("odd \"name\" with \\slash\\ and π");
        t.track(name, 0).instant(name, Vec::new());
        let parsed = TraceModel::from_jsonl(&t.jsonl()).expect("parses");
        assert_eq!(parsed.tracks[0].track, "odd \"name\" with \\slash\\ and π");
        assert_eq!(
            parsed.tracks[0].events[0].name,
            "odd \"name\" with \\slash\\ and π"
        );
    }
}
