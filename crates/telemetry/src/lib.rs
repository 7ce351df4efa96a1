//! `spice-telemetry`: deterministic spans, counters and gauges.
//!
//! SPICE's operators watched a trans-Atlantic campaign live; our
//! reproduction needs the same visibility without giving up its core
//! property — bit-identical replays. This crate is the one shared
//! instrumentation vocabulary:
//!
//! * **Spans** — RAII scope guards on named *tracks*, stamped with a
//!   caller-supplied **logical clock** (MD steps, DES sim-time ticks,
//!   realization indices). Wall-clock capture exists only behind the
//!   `timing` feature, and only inside this crate, so the default build
//!   contains no clock reads anywhere in simulation logic (spice-lint
//!   D002 stays enforceable).
//! * **Counters / gauges** — typed metrics in a central registry,
//!   exported in `BTreeMap` (name-sorted) order.
//!
//! Determinism rules:
//! 1. A disabled handle ([`Telemetry::disabled`]) is an `Option::None`
//!    check on every operation — no allocation, no locking.
//! 2. Tracks are keyed by *logical* ids chosen by the caller (never
//!    thread ids) and merged in key order, so concurrent realizations
//!    export identically however the scheduler interleaved them.
//! 3. Exporters read a [`Snapshot`] whose ordering is fully determined
//!    by track keys and event append order.

pub mod export;
pub mod registry;
pub mod span;

pub use registry::{Counter, Gauge, MetricValue};
pub use span::{intern, EventKind, SpanEvent, SpanGuard, Track, TrackSnapshot};

use registry::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A cheap, cloneable handle to one telemetry domain. `disabled()` is
/// the zero-cost default; `enabled()` allocates the shared state.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    registry: Registry,
    tracks: Mutex<BTreeMap<(&'static str, u64), Arc<span::TrackState>>>,
}

/// Everything recorded so far, in deterministic order: tracks sorted by
/// `(name, key)`, metrics sorted by name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Span/instant event streams, one per track.
    pub tracks: Vec<TrackSnapshot>,
    /// Registry contents.
    pub metrics: Vec<(String, MetricValue)>,
}

impl Telemetry {
    /// The no-op handle: every call short-circuits on an `Option` check.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live handle with its own registry and track set.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                tracks: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get-or-create a named counter. When disabled, returns a
    /// free-standing counter that still counts (callers keep their own
    /// arithmetic) but is not exported anywhere.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::default(),
        }
    }

    /// Get-or-create a named gauge (free-standing when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Convenience: set gauge `name` to `v` (no-op when disabled).
    pub fn set_gauge(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.gauge(name).set(v);
        }
    }

    /// Get-or-create the track `(name, key)`. Keys are *logical*
    /// identities (realization index, job id) — never thread ids — so
    /// the export order is scheduler-independent.
    pub fn track(&self, name: &'static str, key: u64) -> Track {
        match &self.inner {
            Some(i) => {
                let mut tracks = i.tracks.lock().expect("telemetry track table poisoned");
                let state = tracks
                    .entry((name, key))
                    .or_insert_with(|| Arc::new(span::TrackState::new(name, key)));
                Track::live(Arc::clone(state))
            }
            None => Track::disabled(),
        }
    }

    /// Restore one exported metric value into this handle — the metric
    /// half of checkpoint restore. Counters *merge* (add onto whatever
    /// the handle already holds; a freshly `enabled()` handle holds zero,
    /// so the merge is an exact restore); gauges are last-value-wins and
    /// simply set. No-op when disabled.
    pub fn import_metric(&self, name: &str, value: &MetricValue) {
        if self.inner.is_none() {
            return;
        }
        match value {
            MetricValue::Counter(v) => self.counter(name).add(*v),
            MetricValue::Gauge(v) => self.set_gauge(name, *v),
        }
    }

    /// Deterministic snapshot of every track and metric.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(i) => {
                let tracks = i.tracks.lock().expect("telemetry track table poisoned");
                Snapshot {
                    tracks: tracks.values().map(|s| s.snapshot()).collect(),
                    metrics: i.registry.snapshot(),
                }
            }
            None => Snapshot {
                tracks: Vec::new(),
                metrics: Vec::new(),
            },
        }
    }

    /// Human-readable aggregated span tree + metric listing.
    pub fn summary_tree(&self) -> String {
        export::summary_tree(&self.snapshot())
    }

    /// JSON-lines event stream (one object per line).
    pub fn jsonl(&self) -> String {
        export::jsonl(&self.snapshot())
    }

    /// Chrome `chrome://tracing` / Perfetto JSON.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("x");
        c.add(3);
        assert_eq!(c.get(), 3, "free-standing counters still count");
        let snap = t.snapshot();
        assert!(snap.tracks.is_empty() && snap.metrics.is_empty());
        let track = t.track("t", 0);
        {
            let _g = track.span("s");
        }
        assert!(t.snapshot().tracks.is_empty());
    }

    #[test]
    fn track_identity_is_logical_not_callsite() {
        let t = Telemetry::enabled();
        let a = t.track("real", 3);
        let b = t.track("real", 3);
        a.tick(10);
        assert_eq!(b.clock(), 10, "same (name,key) is the same track");
    }

    #[test]
    fn tracks_export_in_key_order_regardless_of_creation_order() {
        let t = Telemetry::enabled();
        t.track("z", 2).instant("e", Vec::new());
        t.track("a", 9).instant("e", Vec::new());
        t.track("a", 1).instant("e", Vec::new());
        let names: Vec<(&str, u64)> = t
            .snapshot()
            .tracks
            .iter()
            .map(|tr| (tr.name, tr.key))
            .collect();
        assert_eq!(names, [("a", 1), ("a", 9), ("z", 2)]);
    }

    #[test]
    fn import_metric_round_trips_every_metric_kind() {
        let a = Telemetry::enabled();
        a.counter("c").add(17);
        a.set_gauge("g", -2.5);
        let snap = a.snapshot();

        let b = Telemetry::enabled();
        for (name, value) in &snap.metrics {
            b.import_metric(name, value);
        }
        assert_eq!(b.snapshot().metrics, snap.metrics);

        // Disabled handles ignore imports.
        let d = Telemetry::disabled();
        for (name, value) in &snap.metrics {
            d.import_metric(name, value);
        }
        assert!(d.snapshot().metrics.is_empty());
    }
}
