//! Tracks, span events and RAII scope guards.
//!
//! A **track** is one logically-serial event stream — a realization, a
//! grid job, the steering service — identified by `(name, key)`. All
//! events on a track carry a **logical clock** value supplied by the
//! caller (MD step, DES sim-time tick); the track enforces monotonicity
//! so an exporter can always reconstruct a well-formed span tree.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Intern a string, returning a `&'static str` that compares equal to
/// every other interned copy of the same text.
///
/// Span and instant names are `&'static str` so live recording never
/// allocates; a checkpoint restore, however, reads names back out of a
/// serialized snapshot as owned strings. Interning gives those names the
/// required `'static` lifetime while deduplicating, so restoring the
/// same campaign any number of times leaks each distinct name at most
/// once per process.
pub fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().expect("intern pool poisoned");
    if let Some(&hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter,
    /// The innermost open span closed.
    Exit,
    /// A point event (failure, retry, checkpoint, message).
    Instant,
}

/// One recorded event on a track.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Span or instant name (static so streams stay allocation-light).
    pub name: &'static str,
    /// Logical-clock stamp (monotone within a track).
    pub logical: u64,
    /// Wall-clock nanoseconds since the first capture — `Some` only
    /// when the crate is built with the `timing` feature.
    pub wall_ns: Option<u64>,
    /// Key/value annotations (failure kind, job id, …).
    pub attrs: Vec<(&'static str, String)>,
}

/// Shared state of one track.
pub(crate) struct TrackState {
    name: &'static str,
    key: u64,
    clock: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
}

impl TrackState {
    pub(crate) fn new(name: &'static str, key: u64) -> TrackState {
        TrackState {
            name,
            key,
            clock: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    fn push(
        &self,
        kind: EventKind,
        name: &'static str,
        logical: u64,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        // Clamp to the track clock so streams are monotone even if a
        // caller hands a stale stamp, then advance the clock.
        let stamped = logical.max(self.clock.load(Ordering::Relaxed));
        self.clock.fetch_max(stamped, Ordering::Relaxed);
        self.events
            .lock()
            .expect("telemetry track buffer poisoned")
            .push(SpanEvent {
                kind,
                name,
                logical: stamped,
                wall_ns: wall_now_ns(),
                attrs,
            });
        stamped
    }

    pub(crate) fn snapshot(&self) -> TrackSnapshot {
        TrackSnapshot {
            name: self.name,
            key: self.key,
            events: self
                .events
                .lock()
                .expect("telemetry track buffer poisoned")
                .clone(),
        }
    }
}

/// Wall-clock nanoseconds since first use. Compiled to `None` without
/// the `timing` feature — the default build contains no clock reads.
#[cfg(feature = "timing")]
fn wall_now_ns() -> Option<u64> {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Some(Instant::now().duration_since(epoch).as_nanos() as u64)
}

#[cfg(not(feature = "timing"))]
fn wall_now_ns() -> Option<u64> {
    None
}

/// Handle to one track. Cloning is cheap; a disabled track ignores
/// every call.
#[derive(Clone, Default)]
pub struct Track {
    state: Option<Arc<TrackState>>,
}

impl Track {
    /// The inert track.
    pub fn disabled() -> Track {
        Track { state: None }
    }

    pub(crate) fn live(state: Arc<TrackState>) -> Track {
        Track { state: Some(state) }
    }

    /// True when events are recorded.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Advance the logical clock to at least `logical`.
    #[inline]
    pub fn tick(&self, logical: u64) {
        if let Some(s) = &self.state {
            s.clock.fetch_max(logical, Ordering::Relaxed);
        }
    }

    /// Current logical clock.
    pub fn clock(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.clock.load(Ordering::Relaxed))
    }

    /// Open a span at the current clock; it closes (at the then-current
    /// clock) when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_at(name, self.clock())
    }

    /// Open a span at an explicit logical stamp.
    pub fn span_at(&self, name: &'static str, logical: u64) -> SpanGuard {
        if let Some(s) = &self.state {
            s.push(EventKind::Enter, name, logical, Vec::new());
        }
        SpanGuard {
            track: self.clone(),
            name,
        }
    }

    /// Open a span at an explicit stamp *without* a guard — for
    /// event-driven code (a DES engine) where span boundaries are events,
    /// not scopes. The caller owes a matching [`Track::exit_at`].
    pub fn enter_at(&self, name: &'static str, logical: u64) {
        if let Some(s) = &self.state {
            s.push(EventKind::Enter, name, logical, Vec::new());
        }
    }

    /// Close the innermost open span at an explicit stamp (pairs with
    /// [`Track::enter_at`]).
    pub fn exit_at(&self, name: &'static str, logical: u64) {
        if let Some(s) = &self.state {
            s.push(EventKind::Exit, name, logical, Vec::new());
        }
    }

    /// Record a point event at the current clock.
    pub fn instant(&self, name: &'static str, attrs: Vec<(&'static str, String)>) {
        self.instant_at(name, self.clock(), attrs);
    }

    /// Record a point event at an explicit logical stamp.
    pub fn instant_at(&self, name: &'static str, logical: u64, attrs: Vec<(&'static str, String)>) {
        if let Some(s) = &self.state {
            s.push(EventKind::Instant, name, logical, attrs);
        }
    }

    /// Append one recorded event verbatim — used by checkpoint restore
    /// to replay a serialized [`TrackSnapshot`] into a fresh track.
    /// Recorded streams are already monotone, so the clock clamp is a
    /// no-op and the stream continues bit-identically from where the
    /// snapshot left it.
    pub fn import_event(
        &self,
        kind: EventKind,
        name: &'static str,
        logical: u64,
        attrs: Vec<(&'static str, String)>,
    ) {
        if let Some(s) = &self.state {
            s.push(kind, name, logical, attrs);
        }
    }
}

/// RAII span guard returned by [`Track::span`]; records the matching
/// exit event on drop.
pub struct SpanGuard {
    track: Track,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = &self.track.state {
            s.push(EventKind::Exit, self.name, self.track.clock(), Vec::new());
        }
    }
}

/// One track's recorded stream, cloned out of the shared buffers.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Track name.
    pub name: &'static str,
    /// Logical key (realization index, job id, …).
    pub key: u64,
    /// Events in append order.
    pub events: Vec<SpanEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check span-tree well-formedness: every exit matches the
    /// innermost open span, nothing closes an empty stack, and logical
    /// stamps never decrease.
    fn check_well_formed(track: &TrackSnapshot) -> Result<(), String> {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut last = 0u64;
        for (i, e) in track.events.iter().enumerate() {
            if e.logical < last {
                return Err(format!(
                    "track {}/{}: event {i} ({}) logical clock went backwards: {} < {last}",
                    track.name, track.key, e.name, e.logical
                ));
            }
            last = e.logical;
            match e.kind {
                EventKind::Enter => stack.push(e.name),
                EventKind::Exit => match stack.pop() {
                    Some(open) if open == e.name => {}
                    Some(open) => {
                        return Err(format!(
                            "track {}/{}: exit `{}` does not match open span `{open}`",
                            track.name, track.key, e.name
                        ))
                    }
                    None => {
                        return Err(format!(
                            "track {}/{}: exit `{}` with no open span",
                            track.name, track.key, e.name
                        ))
                    }
                },
                EventKind::Instant => {}
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!(
                "track {}/{}: span `{open}` never closed",
                track.name, track.key
            ));
        }
        Ok(())
    }

    fn live_track() -> Track {
        Track::live(Arc::new(TrackState::new("t", 0)))
    }

    #[test]
    fn guards_produce_balanced_streams() {
        let t = live_track();
        {
            let _outer = t.span_at("outer", 0);
            t.tick(5);
            {
                let _inner = t.span("inner");
                t.tick(9);
            }
            t.tick(12);
        }
        let snap = t.state.as_ref().unwrap().snapshot();
        check_well_formed(&snap).unwrap();
        let kinds: Vec<EventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Enter,
                EventKind::Enter,
                EventKind::Exit,
                EventKind::Exit
            ]
        );
        assert_eq!(snap.events[2].name, "inner");
        assert_eq!(snap.events[2].logical, 9);
        assert_eq!(snap.events[3].logical, 12);
    }

    #[test]
    fn stale_stamps_are_clamped_monotone() {
        let t = live_track();
        t.tick(100);
        t.instant_at("late", 40, Vec::new());
        let snap = t.state.as_ref().unwrap().snapshot();
        assert_eq!(snap.events[0].logical, 100, "stamp clamped to clock");
        check_well_formed(&snap).unwrap();
    }

    #[test]
    fn well_formedness_rejects_mismatch() {
        let bad = TrackSnapshot {
            name: "t",
            key: 0,
            events: vec![
                SpanEvent {
                    kind: EventKind::Enter,
                    name: "a",
                    logical: 0,
                    wall_ns: None,
                    attrs: Vec::new(),
                },
                SpanEvent {
                    kind: EventKind::Exit,
                    name: "b",
                    logical: 1,
                    wall_ns: None,
                    attrs: Vec::new(),
                },
            ],
        };
        assert!(check_well_formed(&bad).is_err());
    }

    #[test]
    fn well_formedness_rejects_unclosed() {
        let bad = TrackSnapshot {
            name: "t",
            key: 0,
            events: vec![SpanEvent {
                kind: EventKind::Enter,
                name: "a",
                logical: 0,
                wall_ns: None,
                attrs: Vec::new(),
            }],
        };
        assert!(check_well_formed(&bad).is_err());
    }

    #[test]
    fn intern_deduplicates_and_outlives() {
        let a = intern("checkpoint.phase");
        let b = intern(&String::from("checkpoint.phase"));
        assert!(std::ptr::eq(a, b), "same text interns to the same slice");
        assert_eq!(a, "checkpoint.phase");
    }

    #[test]
    fn import_replays_a_snapshot_bit_identically() {
        let original = live_track();
        {
            let _g = original.span_at("run", 3);
            original.instant_at("mark", 7, vec![("k", "v".to_string())]);
            original.tick(9);
        }
        let snap = original.state.as_ref().unwrap().snapshot();

        let restored = live_track();
        for e in &snap.events {
            restored.import_event(e.kind, e.name, e.logical, e.attrs.clone());
        }
        let rsnap = restored.state.as_ref().unwrap().snapshot();
        assert_eq!(rsnap.events.len(), snap.events.len());
        for (a, b) in snap.events.iter().zip(&rsnap.events) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.name, b.name);
            assert_eq!(a.logical, b.logical);
            assert_eq!(a.attrs, b.attrs);
        }
        assert_eq!(
            restored.clock(),
            snap.events.last().unwrap().logical,
            "clock resumes at the last imported stamp"
        );
        check_well_formed(&rsnap).unwrap();
    }

    #[test]
    fn disabled_track_records_nothing() {
        let t = Track::disabled();
        t.tick(5);
        let _g = t.span("s");
        t.instant("i", Vec::new());
        assert_eq!(t.clock(), 0);
    }
}
