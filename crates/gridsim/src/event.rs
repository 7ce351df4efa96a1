//! Deterministic discrete-event engine.
//!
//! Time is simulated hours (f64, totally ordered via `total_cmp`); events
//! at equal times pop in insertion order (FIFO tie-break via a sequence
//! counter), so simulations are bit-reproducible. [`EventQueue`] is the
//! general-purpose heap; [`Agenda`] is the resilient engine's ordered
//! event set, keyed by the engine's own stamps.

use crate::durability::codec::{Dec, Enc};
use crate::durability::DurabilityError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

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

    /// Read a time a snapshot wrote as raw f64 bits: what
    /// [`SimTime::from_hours`] would panic on is
    /// [`DurabilityError::Corrupt`] here.
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<SimTime, DurabilityError> {
        let h = d.take_f64()?;
        if h.is_finite() {
            Ok(SimTime(h))
        } else {
            Err(DurabilityError::Corrupt(format!("non-finite time {h}")))
        }
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

/// The scheduling-side guard every queue shares.
fn assert_not_past(t: SimTime, now: SimTime) {
    assert!(
        t >= now,
        "cannot schedule into the past: {} < {}",
        t.hours(),
        now.hours()
    );
}

/// Audit: a popped event's time is finite and not before the clock.
#[cfg(feature = "audit")]
fn audit_pop(time: SimTime, now: SimTime) {
    if !time.hours().is_finite() {
        // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
        panic!(
            "spice-audit[gridsim.finite_time]: event popped at \
             non-finite time {}",
            time.hours()
        );
    }
    if time < now {
        // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
        panic!(
            "spice-audit[gridsim.event_order]: event time {} \
             precedes the clock {} — DES monotonicity violated",
            time.hours(),
            now.hours()
        );
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
        assert_not_past(t, self.now);
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
            audit_pop(e.time, self.now);
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

/// The resilient engine's pending events in pop order `(time, stamp)`:
/// the prologue's releases as one sorted run, and everything scheduled
/// after them in one ordered map with the same key.
///
/// A stamp is the caller's sequence number for an entry: unique, and
/// allocated in increasing order as entries are scheduled. The map's key
/// is `(time bits, stamp)`, which orders like `(time, stamp)` because
/// every time is finite and not before the clock, which starts at +0.0
/// (`schedule` asserts it).
///
/// A release costs 16 bytes: its time and stamp. Releases are the first
/// entries of a fresh agenda and take stamps 1, 2, …, and a release's
/// payload is the caller's function of the stamp: entries from the run
/// come back with payload `None`. The run is a function of the release
/// times alone, so a snapshot records only how many releases have popped.
#[derive(Debug)]
pub(crate) struct Agenda<E> {
    /// `(time bits, stamp)` of every release, sorted; `head` is the next.
    releases: Vec<(u64, u64)>,
    head: usize,
    /// `(time bits, stamp) → payload` for every other entry.
    scheduled: BTreeMap<(u64, u64), E>,
    now: SimTime,
    peak: usize,
}

impl<E> Agenda<E> {
    /// Empty agenda at time zero.
    pub(crate) fn new() -> Self {
        Agenda {
            releases: Vec::new(),
            head: 0,
            scheduled: BTreeMap::new(),
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    /// Load the release run into a fresh agenda: the `i`-th of `times`
    /// gets stamp `i + 1`. The run is reserved exactly and sorted once.
    ///
    /// # Panics
    /// Panics when anything was scheduled before, or when a time is not
    /// finite or is before zero.
    pub(crate) fn schedule_releases(&mut self, times: impl ExactSizeIterator<Item = f64>) {
        assert_eq!(self.peak, 0, "releases are the first entries of an agenda");
        self.releases.reserve_exact(times.len());
        for (stamp, t) in (1..).zip(times) {
            let t = SimTime::from_hours(t);
            assert_not_past(t, self.now);
            self.releases.push((t.hours().to_bits(), stamp));
        }
        self.releases.sort_unstable();
        self.peak = self.len();
    }

    /// Schedule `payload` at `t` under the caller's `stamp`.
    ///
    /// # Panics
    /// Panics when scheduling into the past (before the last popped
    /// entry) or when `stamp` is already pending at `t`.
    pub(crate) fn schedule(&mut self, t: SimTime, stamp: u64, payload: E) {
        assert_not_past(t, self.now);
        self.insert(t, stamp, payload);
    }

    /// Scheduling that bypasses the into-the-past assert, so the audit
    /// injection tests can corrupt the agenda and prove the pop-side
    /// sanitizer fires. Compiled only into those tests.
    #[cfg(all(test, feature = "audit"))]
    fn schedule_unchecked(&mut self, t: SimTime, stamp: u64, payload: E) {
        self.insert(t, stamp, payload);
    }

    fn insert(&mut self, t: SimTime, stamp: u64, payload: E) {
        let clash = self.scheduled.insert((t.hours().to_bits(), stamp), payload);
        assert!(clash.is_none(), "stamp {stamp} is already pending");
        self.peak = self.peak.max(self.len());
    }

    /// `(time bits, stamp)` of the next entry to pop.
    pub(crate) fn peek(&self) -> Option<(u64, u64)> {
        let release = self.releases.get(self.head).copied();
        let scheduled = self.scheduled.first_key_value().map(|(&k, _)| k);
        match (release, scheduled) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (r, s) => r.or(s),
        }
    }

    /// Pop the next entry, advancing the clock: `(time, stamp, payload)`,
    /// where the payload of a release is `None`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Option<E>)> {
        let (t_bits, stamp) = self.peek()?;
        let payload = if self.releases.get(self.head) == Some(&(t_bits, stamp)) {
            self.head += 1;
            None
        } else {
            self.scheduled.pop_first().map(|(_, payload)| payload)
        };
        let t = SimTime(f64::from_bits(t_bits));
        #[cfg(feature = "audit")]
        audit_pop(t, self.now);
        self.now = t;
        Some((t, stamp, payload))
    }

    /// Payloads scheduled at exactly `t`, in stamp order. Releases are
    /// not included.
    pub(crate) fn scheduled_at(&self, t: f64) -> impl Iterator<Item = &E> {
        let t = t.to_bits();
        self.scheduled.range((t, 0)..=(t, u64::MAX)).map(|(_, p)| p)
    }

    /// Is any entry scheduled at exactly `t` with a stamp in `stamps`?
    /// Releases are not included.
    pub(crate) fn scheduled_within(&self, t: f64, stamps: std::ops::Range<u64>) -> bool {
        let t = t.to_bits();
        self.scheduled
            .range((t, stamps.start)..(t, stamps.end))
            .next()
            .is_some()
    }

    /// Number of pending entries, releases included.
    pub(crate) fn len(&self) -> usize {
        self.releases.len() - self.head + self.scheduled.len()
    }

    /// High-water mark of pending entries over the agenda's lifetime.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak
    }

    /// Append the agenda to a snapshot: clock, peak, how many releases
    /// have popped, then every scheduled entry in pop order as `(time,
    /// stamp)` followed by what `put` writes for its payload. The release
    /// run is not written: [`Agenda::decode`] rebuilds it from the same
    /// release times.
    pub(crate) fn encode(&self, e: &mut Enc, mut put: impl FnMut(&mut Enc, &E)) {
        e.put_f64(self.now.hours());
        e.put_usize(self.peak);
        e.put_usize(self.head);
        e.put_usize(self.scheduled.len());
        for (&(t_bits, stamp), payload) in &self.scheduled {
            e.put_u64(t_bits);
            e.put_u64(stamp);
            put(e, payload);
        }
    }

    /// Read what [`Agenda::encode`] wrote, rebuilding the release run
    /// from `releases`, the times [`Agenda::schedule_releases`] loaded.
    /// `take` reads one payload and `payload_min_bytes` is the fewest
    /// bytes it can occupy. A clock that is not a finite time at or after
    /// +0.0, a pending entry before the clock, entries out of pop order
    /// and more popped releases than the run holds are
    /// [`DurabilityError::Corrupt`], so the restored agenda keeps every
    /// invariant [`Agenda::schedule`] asserts.
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        releases: impl ExactSizeIterator<Item = f64>,
        payload_min_bytes: usize,
        mut take: impl FnMut(&mut Dec<'_>) -> Result<E, DurabilityError>,
    ) -> Result<Agenda<E>, DurabilityError> {
        let corrupt = |why: &str| Err(DurabilityError::Corrupt(format!("agenda: {why}")));
        let now = SimTime::decode(d)?;
        if now < SimTime::ZERO {
            return corrupt("clock before zero");
        }
        let peak = d.take_usize()?;
        let head = d.take_usize()?;
        let mut agenda = Agenda::new();
        agenda.schedule_releases(releases);
        match agenda.releases.get(head) {
            Some(&(t_bits, _)) if SimTime(f64::from_bits(t_bits)) < now => {
                return corrupt("a pending release is before the clock")
            }
            None if head > agenda.releases.len() => {
                return corrupt("more releases popped than the run holds")
            }
            _ => {}
        }
        for _ in 0..d.take_len(16 + payload_min_bytes)? {
            let t = SimTime::decode(d)?;
            let key = (t.hours().to_bits(), d.take_u64()?);
            if t < now {
                return corrupt("an entry is before the clock");
            }
            if agenda
                .scheduled
                .last_key_value()
                .is_some_and(|(&k, _)| k >= key)
            {
                return corrupt("entries out of pop order");
            }
            agenda.scheduled.insert(key, take(d)?);
        }
        agenda.head = head;
        agenda.now = now;
        agenda.peak = peak;
        Ok(agenda)
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

    /// The payload of a release in the agenda tests: a function of its
    /// stamp, as the engine derives `OutageStart`/`Submit` from theirs.
    fn release_payload(stamp: u64) -> Option<u32> {
        (stamp <= 3).then(|| 1000 + stamp as u32)
    }

    fn payload(stamp: u64, p: Option<&u32>) -> u32 {
        p.copied()
            .or_else(|| release_payload(stamp))
            .expect("a run entry has a release stamp")
    }

    fn encoded(a: &Agenda<u32>) -> Vec<u8> {
        let mut e = Enc::new();
        a.encode(&mut e, |e, &p| e.put_u32(p));
        e.into_bytes()
    }

    /// The sample agenda's release times, in stamp order.
    const RELEASES: [f64; 3] = [1.0, 0.5, 1.0];

    fn decode(bytes: &[u8]) -> Result<Agenda<u32>, DurabilityError> {
        let mut d = Dec::new(bytes);
        let a = Agenda::decode(&mut d, RELEASES.into_iter(), 4, |d| d.take_u32())?;
        d.finish()?;
        Ok(a)
    }

    fn decoded(bytes: &[u8]) -> Agenda<u32> {
        decode(bytes).expect("decode a freshly encoded agenda")
    }

    fn drain(a: &mut Agenda<u32>) -> Vec<(f64, u64, u32)> {
        std::iter::from_fn(|| {
            a.pop()
                .map(|(t, stamp, p)| (t.hours(), stamp, payload(stamp, p.as_ref())))
        })
        .collect()
    }

    /// Three releases (stamps 1–3, two tied at 1.0) and five scheduled
    /// entries whose stamps skip a few, as poke arrivals make the
    /// engine's do; three of them tie with the releases at 1.0.
    fn sample_agenda() -> Agenda<u32> {
        let mut a = Agenda::new();
        a.schedule_releases(RELEASES.into_iter());
        for (stamp, p) in [(7, 0), (8, 1), (9, 2)] {
            a.schedule(SimTime::from_hours(1.0), stamp, p);
        }
        a.schedule(SimTime::from_hours(0.25), 10, 100);
        a.schedule(SimTime::from_hours(2.0), 11, 200);
        a
    }

    #[test]
    fn agenda_pops_releases_and_scheduled_entries_as_one_order() {
        let mut a = sample_agenda();
        assert_eq!((a.len(), a.peak_len()), (8, 8));
        let mut order = Vec::new();
        while let Some(next) = a.peek() {
            let (t, stamp, p) = a.pop().expect("peek saw an entry");
            assert_eq!(
                next,
                (t.hours().to_bits(), stamp),
                "peek names the next pop"
            );
            order.push((t.hours(), stamp, payload(stamp, p.as_ref())));
        }
        assert_eq!(
            order,
            [
                (0.25, 10, 100),
                (0.5, 2, 1002),
                (1.0, 1, 1001),
                (1.0, 3, 1003),
                (1.0, 7, 0),
                (1.0, 8, 1),
                (1.0, 9, 2),
                (2.0, 11, 200),
            ]
        );
        assert_eq!(
            (a.len(), a.peak_len()),
            (0, 8),
            "peak never shrinks on pops"
        );
    }

    #[test]
    fn agenda_range_queries_see_only_scheduled_entries() {
        let a = sample_agenda();
        let at_one: Vec<u32> = a.scheduled_at(1.0).copied().collect();
        assert_eq!(at_one, [0, 1, 2], "the two releases at 1.0 are not listed");
        assert_eq!(a.scheduled_at(0.5).count(), 0);
        assert!(a.scheduled_within(1.0, 8..9));
        assert!(!a.scheduled_within(1.0, 4..7), "stamps 4–6 were never used");
        assert!(
            !a.scheduled_within(1.0, 1..4),
            "releases are not in the map"
        );
        assert!(!a.scheduled_within(2.0, 0..11));
        assert!(a.scheduled_within(2.0, 11..12));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn agenda_rejects_past_scheduling() {
        let mut a = sample_agenda();
        a.pop();
        a.pop(); // clock 0.5
        a.schedule(SimTime::from_hours(0.25), 12, 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_counters() {
        let order = drain(&mut sample_agenda());
        // Snapshot after a scheduled entry pops (100 @ 0.25), then after a
        // release pops too (stamp 2 @ 0.5): the run restores at its head.
        for popped in 1..=2 {
            let mut live = sample_agenda();
            for _ in 0..popped {
                live.pop();
            }
            let bytes = encoded(&live);
            let mut restored = decoded(&bytes);
            assert_eq!(restored.len(), live.len());
            assert_eq!(restored.peak_len(), live.peak_len());
            assert_eq!(
                restored.scheduled_at(1.0).count(),
                3,
                "the releases at 1.0 stay in the run"
            );
            assert_eq!(encoded(&restored), bytes);
            // An entry scheduled after the restore pops after every tie
            // already pending, as it does on the live agenda.
            for agenda in [&mut live, &mut restored] {
                agenda.schedule(SimTime::from_hours(1.0), 12, 999);
            }
            let rest = drain(&mut restored);
            assert_eq!(
                drain(&mut live),
                rest,
                "restored agenda pops bit-identically, ties included"
            );
            let mut expected = order[popped..].to_vec();
            expected.insert(expected.len() - 1, (1.0, 12, 999));
            assert_eq!(rest, expected);
        }
    }

    #[test]
    fn a_forged_agenda_is_corrupt() {
        // Clock, peak, popped releases, then `(time, stamp, payload)`
        // entries, over the sample run (releases at 0.5, 1.0, 1.0).
        let forged = |now: f64, popped: u64, entries: &[(f64, u64)]| {
            let mut e = Enc::new();
            e.put_f64(now);
            e.put_usize(8);
            e.put_u64(popped);
            e.put_usize(entries.len());
            for &(t, stamp) in entries {
                e.put_f64(t);
                e.put_u64(stamp);
                e.put_u32(0);
            }
            decode(&e.into_bytes())
        };
        assert!(forged(0.25, 0, &[(1.0, 7), (1.0, 8)]).is_ok());
        assert!(forged(1.0, 3, &[]).is_ok());
        for (case, agenda) in [
            ("NaN clock", forged(f64::NAN, 0, &[])),
            ("negative clock", forged(-1.0, 0, &[])),
            ("-0.0 clock", forged(-0.0, 0, &[])),
            ("entry before the clock", forged(0.25, 0, &[(0.125, 7)])),
            ("-0.0 entry", forged(0.0, 0, &[(-0.0, 7)])),
            ("infinite entry", forged(0.25, 0, &[(f64::INFINITY, 7)])),
            (
                "entries out of order",
                forged(0.25, 0, &[(1.0, 8), (1.0, 7)]),
            ),
            ("a repeated entry", forged(0.25, 0, &[(1.0, 7), (1.0, 7)])),
            ("release before the clock", forged(0.75, 0, &[])),
            ("popped releases past the run", forged(1.0, 4, &[])),
        ] {
            assert!(matches!(agenda, Err(DurabilityError::Corrupt(_))), "{case}");
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "spice-audit[gridsim.event_order]")]
    fn out_of_order_agenda_entry_trips_the_sanitizer() {
        let mut a = Agenda::new();
        a.schedule(SimTime::from_hours(2.0), 1, 0u32);
        a.pop();
        // Bypass the schedule-side assert: the pop-side sanitizer must
        // still catch the clock running backwards.
        a.schedule_unchecked(SimTime::from_hours(1.0), 2, 1);
        a.pop();
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "spice-audit[gridsim.finite_time]")]
    fn nan_agenda_time_trips_the_sanitizer() {
        let mut a = Agenda::new();
        a.schedule_unchecked(SimTime(f64::NAN), 1, 0u32);
        a.pop();
    }

    #[test]
    fn negative_relative_delay_clamped() {
        let mut q = EventQueue::new();
        q.schedule_in(-5.0, "now");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::ZERO);
    }
}
