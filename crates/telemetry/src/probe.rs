//! Profiling hooks: sampling callbacks at fixed simulation boundaries.
//!
//! A probe point is a named place in a hot loop where instrumentation
//! may observe (never alter) the simulation: the sample carries the
//! logical clock and one scalar. Firing a point with no installed
//! handler costs one relaxed atomic load, so probes can sit on the
//! force-eval path without a measurable tax.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The fixed set of instrumented boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePoint {
    /// After each force-field evaluation (value: potential energy).
    ForceEval,
    /// After a Verlet neighbor-list rebuild (value: rebuild count).
    VerletRebuild,
    /// After each discrete-event-simulation event pops (value: sim-time
    /// hours).
    DesEvent,
}

impl ProbePoint {
    /// All points, index-aligned with the handler table.
    pub const ALL: [ProbePoint; 3] = [
        ProbePoint::ForceEval,
        ProbePoint::VerletRebuild,
        ProbePoint::DesEvent,
    ];

    fn idx(self) -> usize {
        match self {
            ProbePoint::ForceEval => 0,
            ProbePoint::VerletRebuild => 1,
            ProbePoint::DesEvent => 2,
        }
    }

    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ProbePoint::ForceEval => "force_eval",
            ProbePoint::VerletRebuild => "verlet_rebuild",
            ProbePoint::DesEvent => "des_event",
        }
    }
}

/// What a probe handler receives.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    /// Which boundary fired.
    pub point: ProbePoint,
    /// Logical clock at the boundary (MD step, DES tick, message seq).
    pub logical: u64,
    /// One scalar chosen by the instrumented site.
    pub value: f64,
}

type Handler = Box<dyn Fn(&ProbeSample) + Send + Sync>;

/// Handler table: per-point install counts for the fast path, one
/// mutex-guarded list for the slow path.
pub(crate) struct Probes {
    counts: [AtomicUsize; 3],
    handlers: Mutex<Vec<(usize, Handler)>>,
}

impl Probes {
    pub(crate) fn new() -> Probes {
        Probes {
            counts: [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ],
            handlers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn add(&self, point: ProbePoint, f: Handler) {
        self.handlers
            .lock()
            .expect("probe table poisoned")
            .push((point.idx(), f));
        self.counts[point.idx()].fetch_add(1, Ordering::Release);
    }

    #[inline]
    pub(crate) fn fire(&self, sample: &ProbeSample) {
        if self.counts[sample.point.idx()].load(Ordering::Acquire) == 0 {
            return;
        }
        let handlers = self.handlers.lock().expect("probe table poisoned");
        for (idx, f) in handlers.iter() {
            if *idx == sample.point.idx() {
                f(sample);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn handlers_are_point_selective() {
        let p = Probes::new();
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        p.add(
            ProbePoint::VerletRebuild,
            Box::new(move |s| {
                n2.fetch_add(s.value as u64, Ordering::Relaxed);
            }),
        );
        p.fire(&ProbeSample {
            point: ProbePoint::ForceEval,
            logical: 1,
            value: 100.0,
        });
        p.fire(&ProbeSample {
            point: ProbePoint::VerletRebuild,
            logical: 2,
            value: 3.0,
        });
        assert_eq!(n.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn point_names_are_stable() {
        let names: Vec<&str> = ProbePoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["force_eval", "verlet_rebuild", "des_event"]);
    }
}
