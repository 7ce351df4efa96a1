//! Deterministic discrete-event engine.
//!
//! Time is simulated hours (f64, totally ordered via `total_cmp`); events
//! at equal times pop in insertion order (FIFO tie-break via a sequence
//! counter), so simulations are bit-reproducible.

use crate::durability::codec::{Dec, Enc};
use crate::durability::DurabilityError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in hours.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Hours as raw f64.
    pub fn hours(self) -> f64 {
        self.0
    }

    /// Construct from hours.
    pub fn from_hours(h: f64) -> Self {
        assert!(h.is_finite(), "simulation time must be finite");
        SimTime(h)
    }

    /// Time `dh` hours later.
    pub fn after(self, dh: f64) -> SimTime {
        SimTime::from_hours(self.0 + dh)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behavior on BinaryHeap (max-heap).
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    /// Schedule `payload` at absolute time `t`.
    ///
    /// # Panics
    /// Panics when scheduling into the past (before the last popped
    /// event).
    pub fn schedule(&mut self, t: SimTime, payload: E) {
        assert!(
            t >= self.now,
            "cannot schedule into the past: {} < {}",
            t.hours(),
            self.now.hours()
        );
        self.heap.push(Entry {
            time: t,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedule `payload` `dh` hours from the current time.
    pub fn schedule_in(&mut self, dh: f64, payload: E) {
        let t = self.now.after(dh.max(0.0));
        self.schedule(t, payload);
    }

    /// Audit-only scheduling that bypasses the into-the-past assert, so
    /// injection tests can corrupt the queue and prove the pop-side
    /// sanitizer fires. Never compiled into normal builds.
    #[cfg(feature = "audit")]
    pub fn schedule_unchecked(&mut self, t: SimTime, payload: E) {
        self.heap.push(Entry {
            time: t,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            #[cfg(feature = "audit")]
            {
                if !e.time.hours().is_finite() {
                    // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                    panic!(
                        "spice-audit[gridsim.finite_time]: event popped at \
                         non-finite time {}",
                        e.time.hours()
                    );
                }
                if e.time < self.now {
                    // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                    panic!(
                        "spice-audit[gridsim.event_order]: event time {} \
                         precedes the clock {} — DES monotonicity violated",
                        e.time.hours(),
                        self.now.hours()
                    );
                }
            }
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// The next event to pop — `(time, &payload)` — without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.payload))
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of pending events over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// A decoded snapshot of an [`EventQueue`]: clock, counters, and every
/// pending entry with its *original* FIFO sequence number, in pop order
/// `(time, seq)`. Restoring through [`EventQueue::from_image`]
/// reproduces the exact pop sequence of the encoded queue — including
/// same-time ties, which `schedule()` would renumber and so cannot
/// rebuild.
#[derive(Debug)]
pub(crate) struct QueueImage<E> {
    /// Clock of the last popped event (hours).
    pub(crate) now: f64,
    /// Next sequence number to assign.
    pub(crate) seq: u64,
    /// Lifetime high-water mark.
    pub(crate) peak: usize,
    /// `(time hours, entry seq, payload)` in pop order.
    pub(crate) entries: Vec<(f64, u64, E)>,
}

impl<E> QueueImage<E> {
    /// Read what [`EventQueue::encode`] wrote. `take` reads one payload
    /// and `payload_min_bytes` is the fewest bytes it can occupy, which
    /// bounds the entry count before anything is allocated.
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        payload_min_bytes: usize,
        mut take: impl FnMut(&mut Dec<'_>) -> Result<E, DurabilityError>,
    ) -> Result<QueueImage<E>, DurabilityError> {
        let now = d.take_f64()?;
        let seq = d.take_u64()?;
        let peak = d.take_usize()?;
        let mut entries = Vec::with_capacity(d.take_len(16 + payload_min_bytes)?);
        for _ in 0..entries.capacity() {
            let t = d.take_f64()?;
            let entry_seq = d.take_u64()?;
            entries.push((t, entry_seq, take(d)?));
        }
        Ok(QueueImage {
            now,
            seq,
            peak,
            entries,
        })
    }
}

impl<E> EventQueue<E> {
    /// Append the queue's full state to a snapshot: clock, sequence
    /// counter, peak, then every pending entry as `(time, seq)` followed
    /// by what `put` writes for its payload. Entries go out in pop order
    /// `(time, seq)`, so equal queues encode to equal bytes whatever the
    /// layout of their heaps.
    pub(crate) fn encode(&self, e: &mut Enc, mut put: impl FnMut(&mut Enc, &E)) {
        e.put_f64(self.now.hours());
        e.put_u64(self.seq);
        e.put_usize(self.peak);
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_unstable_by(|a, b| a.time.cmp(&b.time).then(a.seq.cmp(&b.seq)));
        e.put_usize(entries.len());
        for entry in entries {
            e.put_f64(entry.time.hours());
            e.put_u64(entry.seq);
            put(e, &entry.payload);
        }
    }

    /// Rebuild a queue from an [`QueueImage`], preserving every entry's
    /// original sequence number, the clock, the sequence counter and the
    /// peak — `schedule()` is bypassed entirely (it would renumber
    /// entries and reject times at the restored clock's past).
    pub(crate) fn from_image(img: QueueImage<E>) -> EventQueue<E> {
        let mut heap = BinaryHeap::with_capacity(img.entries.len());
        for (t, seq, payload) in img.entries {
            heap.push(Entry {
                time: SimTime::from_hours(t),
                seq,
                payload,
            });
        }
        EventQueue {
            heap,
            seq: img.seq,
            now: SimTime::from_hours(img.now),
            peak: img.peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_hours(3.0), "c");
        q.schedule(SimTime::from_hours(1.0), "a");
        q.schedule(SimTime::from_hours(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_hours(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_hours(2.5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().hours(), 2.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_hours(1.0), "first");
        q.pop();
        q.schedule_in(0.5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.hours(), 1.5);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_hours(2.0), ());
        q.pop();
        q.schedule(SimTime::from_hours(1.0), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_hours(1.0), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peak_len_is_a_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_hours(f64::from(i)), i);
        }
        for _ in 0..3 {
            q.pop();
        }
        q.schedule(SimTime::from_hours(9.0), 9);
        assert_eq!(q.peak_len(), 5, "peak never shrinks on pops");
        assert_eq!(q.len(), 3);
    }

    fn encoded(q: &EventQueue<u32>) -> Vec<u8> {
        let mut e = Enc::new();
        q.encode(&mut e, |e, &p| e.put_u32(p));
        e.into_bytes()
    }

    fn decoded(bytes: &[u8]) -> EventQueue<u32> {
        let mut d = Dec::new(bytes);
        let img = QueueImage::decode(&mut d, 4, |d| d.take_u32()).expect("decode");
        d.finish().expect("the queue consumes its bytes exactly");
        EventQueue::from_image(img)
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_counters() {
        let mut q = EventQueue::new();
        // Same-time ties plus distinct times, with some already popped so
        // the clock and stale low seqs are exercised.
        for i in 0..4 {
            q.schedule(SimTime::from_hours(1.0), i);
        }
        q.schedule(SimTime::from_hours(0.5), 100);
        q.schedule(SimTime::from_hours(2.0), 200);
        q.pop(); // pops 100 @ 0.5, clock now 0.5

        let bytes = encoded(&q);
        let mut d = Dec::new(&bytes);
        let img = QueueImage::decode(&mut d, 4, |d| d.take_u32()).expect("decode");
        assert_eq!(img.now, 0.5);
        assert_eq!(img.seq, 6);
        assert_eq!(img.peak, 6);
        let mut restored = EventQueue::from_image(img);
        assert_eq!(restored.now().hours(), 0.5);
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.peak_len(), q.peak_len());
        // The restored queue encodes to the same bytes.
        assert_eq!(encoded(&restored), bytes);
        let a: Vec<(f64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.hours(), e))).collect();
        let b: Vec<(f64, u32)> =
            std::iter::from_fn(|| restored.pop().map(|(t, e)| (t.hours(), e))).collect();
        assert_eq!(a, b, "restored queue pops bit-identically, ties included");
        assert_eq!(b, [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 200)]);

        // New scheduling after restore continues the FIFO counter.
        let mut q3 = decoded(&bytes);
        q3.schedule(SimTime::from_hours(1.0), 999);
        while let Some((t, e)) = q3.pop() {
            if e == 999 {
                assert_eq!(t.hours(), 1.0);
                break;
            }
            assert!(e < 999, "pre-snapshot entries pop before the new tie");
        }
    }

    #[test]
    fn negative_relative_delay_clamped() {
        let mut q = EventQueue::new();
        q.schedule_in(-5.0, "now");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::ZERO);
    }
}
