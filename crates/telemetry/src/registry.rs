//! Typed metrics: counters and gauges, and the central registry that
//! exports them in deterministic (name-sorted) order.
//!
//! Counters are relaxed atomics: integer sums commute, so however many
//! worker threads increment a shared counter the final value is
//! identical run-to-run — the one concurrency pattern that cannot leak
//! nondeterminism into an export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer metric. Cloning shares the value.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point metric (stored as `f64` bits).
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge reading 0.0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

/// Point-in-time value of one metric, used by exporters and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
}

/// The central metric table. Name-keyed `BTreeMap` so snapshots export
/// in one deterministic order.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().expect("telemetry registry poisoned")
    }

    /// Get-or-create the counter `name`. A name already registered as a
    /// different type yields a fresh unregistered counter rather than
    /// clobbering the existing metric.
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get-or-create the gauge `name`.
    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Every metric's current value, name-sorted.
    pub(crate) fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.table()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                };
                (name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(2);
        c2.incr();
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn registry_get_or_create_and_order() {
        let r = Registry::default();
        let c = r.counter("b.count");
        c.add(7);
        assert_eq!(r.counter("b.count").get(), 7, "same handle by name");
        r.gauge("a.gauge").set(1.5);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.gauge", "b.count"], "name-sorted export");
    }

    #[test]
    fn concurrent_counter_sum_is_exact() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
