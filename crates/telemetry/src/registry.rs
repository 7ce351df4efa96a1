//! Typed metrics: counters, gauges, histograms, and the central
//! registry that exports them in deterministic (name-sorted) order.
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

struct HistogramInner {
    /// Upper bucket bounds, ascending; one extra overflow bucket past
    /// the last bound.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: Mutex<f64>,
}

/// A fixed-bucket histogram. Cloning shares the buckets.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Build with ascending upper bounds; values above the last bound
    /// land in an implicit overflow bucket.
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be ascending"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: Mutex::new(0.0),
            }),
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        *self.inner.sum.lock().expect("histogram sum poisoned")
    }

    /// Upper bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, last = overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Merge previously exported state back in — used by checkpoint
    /// restore to continue a histogram exactly where a snapshot left it.
    /// `counts` shorter or longer than the bucket list is truncated to
    /// the overlap; the caller is expected to recreate the histogram with
    /// the snapshot's own bounds so the shapes match.
    pub fn merge_counts(&self, counts: &[u64], sum: f64) {
        for (bucket, &n) in self.inner.counts.iter().zip(counts) {
            bucket.fetch_add(n, Ordering::Relaxed);
            self.inner.total.fetch_add(n, Ordering::Relaxed);
        }
        *self.inner.sum.lock().expect("histogram sum poisoned") += sum;
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Point-in-time value of one metric, used by exporters and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Upper bucket bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (last = overflow).
        counts: Vec<u64>,
        /// Sum of observations.
        sum: f64,
    },
}

/// The central metric table. Name-keyed `BTreeMap` so snapshots export
/// in one deterministic order.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().expect("telemetry registry poisoned")
    }

    /// Get-or-create the counter `name`. A name already registered as a
    /// different type yields a fresh unregistered counter rather than
    /// clobbering the existing metric.
    pub fn counter(&self, name: &str) -> Counter {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Register an existing counter handle under `name` (live view).
    pub fn bind_counter(&self, name: &str, c: &Counter) {
        self.table()
            .insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::with_bounds(bounds),
        }
    }

    /// Every metric's current value, name-sorted.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.table()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                    },
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
