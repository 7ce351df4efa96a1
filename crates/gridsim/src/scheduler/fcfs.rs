//! Per-site FCFS batch queue with aggressive backfill — the behaviour of
//! the 2005-era PBS/LoadLeveler queues the paper's jobs sat in.
//!
//! The queue and running set are heap-backed so every operation on the
//! DES hot path is O(log n): finishing or preempting a job resolves
//! through a `job_id → slot` index, the next finish time comes off a
//! lazy min-heap, and queued entries are split into an *eligible* set
//! (ready time passed, scanned in submission order) and a *pending* set
//! (promoted by a ready-time heap). Free and in-use processor counts are
//! maintained incrementally; the `audit` feature cross-checks them
//! against a full recount.
//!
//! Semantics are bit-identical to the original full-scan implementation.
//! The start order inside one `try_start` call relies on the same
//! argument the old restart-at-zero scan did: free processors only
//! *decrease* within a call, so an entry skipped once (not ready, or too
//! wide for the current free count) can never become startable later in
//! the same call — a single forward pass in submission order starts
//! exactly the same jobs in exactly the same order.

use crate::durability::codec::{Dec, Enc};
use crate::durability::DurabilityError;
use crate::event::SimTime;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

/// A queued entry: dense job index plus width. The eligibility time
/// (submission + stochastic background-queue delay) lives in the
/// promotion/ready heap keys, not here.
#[derive(Debug, Clone, Copy)]
struct Queued {
    job_id: u32,
    procs: u32,
}

/// A running entry. `start_seq` versions the slot so stale finish-heap
/// entries for a re-started job id are recognizable; the finish time
/// itself lives in the heap key.
#[derive(Debug, Clone, Copy)]
struct Running {
    job_id: u32,
    procs: u32,
    start_seq: u64,
}

/// FCFS + backfill scheduler state for one site. Jobs are identified by
/// a caller-chosen dense `u32` id (the resilience engine passes the
/// campaign job index).
#[derive(Debug, Clone)]
pub struct SiteScheduler {
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    capacity: u32,
    free: u32,
    /// Incrementally maintained processors in use; `free + used ==
    /// capacity` always (audited under the `audit` feature).
    used: u32,
    /// Submission sequence counter — queue order is ascending seq, the
    /// same FIFO tie-break the event queue uses.
    seq: u64,
    /// Queued entries whose ready time has passed, in submission order.
    eligible: BTreeMap<u64, Queued>,
    /// Queued entries still inside their background-queue delay.
    pending: BTreeMap<u64, Queued>,
    /// `(ready, seq)` promotion heap over `pending`; every entry is live
    /// while its seq is in `pending` (eviction clears both).
    promote: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// `(ready, seq)` over all queued entries, lazily pruned — serves
    /// `next_ready` without scanning.
    ready_heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Multiset of widths among eligible entries: the min key gives an
    /// O(log n) "nothing fits" early exit for `try_start`.
    eligible_procs: BTreeMap<u32, u32>,
    /// Running jobs in legacy Vec order (push + swap_remove), so
    /// `kill_running` returns bit-identical ordering.
    run_order: Vec<Running>,
    /// `job_id → run_order slot`.
    run_index: BTreeMap<u32, usize>,
    /// `(finish, start_seq, job_id)` lazy min-heap over running jobs.
    finish_heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    start_seq: u64,
    /// Site unavailable until this time (outage), if any.
    down_until: Option<f64>,
    /// High-water mark of the queued-entry count.
    peak_queued: usize,
}

impl SiteScheduler {
    /// New idle scheduler for `capacity` processors.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0);
        SiteScheduler {
            capacity,
            free: capacity,
            used: 0,
            seq: 0,
            eligible: BTreeMap::new(),
            pending: BTreeMap::new(),
            promote: BinaryHeap::new(),
            ready_heap: BinaryHeap::new(),
            eligible_procs: BTreeMap::new(),
            run_order: Vec::new(),
            run_index: BTreeMap::new(),
            finish_heap: BinaryHeap::new(),
            start_seq: 0,
            down_until: None,
            peak_queued: 0,
        }
    }

    /// Audit: the incremental counters must match a full recount, and
    /// free + in-use processors must equal the capacity.
    #[cfg(feature = "audit")]
    fn check_proc_conservation(&self) {
        let recount: u32 = self.run_order.iter().map(|r| r.procs).sum();
        if recount != self.used || self.free + self.used != self.capacity {
            // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
            panic!(
                "spice-audit[gridsim.proc_conservation]: {} free + {} in \
                 use != {} capacity (recount {})",
                self.free, self.used, self.capacity, recount
            );
        }
    }

    /// Enqueue job `job_id` needing `procs` processors, eligible to start
    /// at `ready` hours.
    pub fn submit(&mut self, job_id: u32, procs: u32, ready: f64) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Queued { job_id, procs };
        let key = Reverse((SimTime::from_hours(ready), seq));
        self.pending.insert(seq, entry);
        self.promote.push(key);
        self.ready_heap.push(key);
        self.peak_queued = self.peak_queued.max(self.queued());
    }

    /// Mark the site down until `until`: no new starts before then. What
    /// happens to in-flight work is the engine's
    /// [`crate::resilience::OutagePolicy`] decision — `Drain` leaves the
    /// running set alone (jobs finish on schedule), `Kill` additionally
    /// calls [`SiteScheduler::kill_running`] /
    /// [`SiteScheduler::evict_queued`] to terminate it.
    pub fn set_down_until(&mut self, until: f64) {
        self.down_until = Some(match self.down_until {
            Some(cur) => cur.max(until),
            None => until,
        });
    }

    /// Terminate every running job (outage with `Kill` semantics).
    /// Returns `(job_id, procs)` for each killed job, in running-set
    /// order; all processors are released.
    pub fn kill_running(&mut self) -> Vec<(u32, u32)> {
        let killed: Vec<(u32, u32)> = self.run_order.iter().map(|r| (r.job_id, r.procs)).collect();
        for (_, procs) in &killed {
            self.free += procs;
            self.used -= procs;
        }
        self.run_order.clear();
        self.run_index.clear();
        self.finish_heap.clear();
        #[cfg(feature = "audit")]
        self.check_proc_conservation();
        killed
    }

    /// Drop every queued (not yet started) job, returning ids in
    /// submission order — an outage with `Kill` semantics loses queued
    /// submissions too (the middleware that held them is down).
    pub fn evict_queued(&mut self) -> Vec<u32> {
        let mut evicted: Vec<(u64, u32)> = self
            .eligible
            .iter()
            .chain(self.pending.iter())
            .map(|(&seq, q)| (seq, q.job_id))
            .collect();
        evicted.sort_unstable_by_key(|&(seq, _)| seq);
        self.eligible.clear();
        self.pending.clear();
        self.promote.clear();
        self.ready_heap.clear();
        self.eligible_procs.clear();
        evicted.into_iter().map(|(_, id)| id).collect()
    }

    /// Terminate one running job before its scheduled finish (node crash
    /// or connection failure), releasing its processors.
    ///
    /// # Panics
    /// Panics if the job is not running here.
    pub fn preempt(&mut self, job_id: u32) -> u32 {
        self.remove_running(job_id, "preempting a job that is not running")
    }

    /// Release the processors of a finished job.
    ///
    /// # Panics
    /// Panics if the job is not running here.
    pub fn finish(&mut self, job_id: u32) {
        self.remove_running(job_id, "finishing a job that is not running");
    }

    /// Swap-remove `job_id` from the running set (preserving the legacy
    /// Vec semantics kill-order depends on) and release its processors.
    fn remove_running(&mut self, job_id: u32, not_running_msg: &str) -> u32 {
        let idx = self.run_index.remove(&job_id).expect(not_running_msg);
        let r = self.run_order.swap_remove(idx);
        if let Some(moved) = self.run_order.get(idx) {
            self.run_index.insert(moved.job_id, idx);
        }
        self.free += r.procs;
        self.used -= r.procs;
        // The finish_heap entry goes stale; next_finish prunes it lazily.
        #[cfg(feature = "audit")]
        self.check_proc_conservation();
        r.procs
    }

    /// Try to start queued jobs at time `now`. FCFS with backfill: the
    /// head starts first when it fits; jobs behind a blocked head may
    /// start if they fit (aggressive backfill). Pushes
    /// `(job_id, finish_time)` for each started job onto `out` (cleared
    /// first), given per-job runtimes from `runtime(job_id)` — the out
    /// parameter lets the engine reuse one scratch buffer for the whole
    /// campaign.
    pub fn try_start(
        &mut self,
        now: f64,
        mut runtime: impl FnMut(u32) -> f64,
        out: &mut Vec<(u32, f64)>,
    ) {
        out.clear();
        if let Some(until) = self.down_until {
            if now < until {
                return;
            }
        }
        // Promote entries whose background-queue delay has elapsed.
        while let Some(&Reverse((ready, seq))) = self.promote.peek() {
            if ready.hours() > now {
                break;
            }
            self.promote.pop();
            if let Some(q) = self.pending.remove(&seq) {
                *self.eligible_procs.entry(q.procs).or_insert(0) += 1;
                self.eligible.insert(seq, q);
            }
        }
        // Single forward pass in submission order (see module docs for
        // why this matches the legacy restart-at-zero scan bit-for-bit).
        let mut cursor: u64 = 0;
        loop {
            if self.free == 0 {
                break;
            }
            match self.eligible_procs.keys().next() {
                Some(&narrowest) if narrowest <= self.free => {}
                _ => break,
            }
            let hit = self
                .eligible
                .range(cursor..)
                .find(|(_, q)| q.procs <= self.free)
                .map(|(&seq, &q)| (seq, q));
            let Some((seq, q)) = hit else { break };
            cursor = seq + 1;
            self.eligible.remove(&seq);
            match self.eligible_procs.get_mut(&q.procs) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.eligible_procs.remove(&q.procs);
                }
            }
            self.free -= q.procs;
            self.used += q.procs;
            let finish = now + runtime(q.job_id);
            let start_seq = self.start_seq;
            self.start_seq += 1;
            self.run_index.insert(q.job_id, self.run_order.len());
            self.run_order.push(Running {
                job_id: q.job_id,
                procs: q.procs,
                start_seq,
            });
            self.finish_heap
                .push(Reverse((SimTime::from_hours(finish), start_seq, q.job_id)));
            out.push((q.job_id, finish));
        }
        #[cfg(feature = "audit")]
        self.check_proc_conservation();
    }

    /// Next running-job finish time, if any (lazily prunes entries of
    /// finished/preempted/killed jobs off the heap).
    pub fn next_finish(&mut self) -> Option<(u32, f64)> {
        while let Some(&Reverse((t, start_seq, job_id))) = self.finish_heap.peek() {
            let live = self
                .run_index
                .get(&job_id)
                .is_some_and(|&i| self.run_order[i].start_seq == start_seq);
            if live {
                return Some((job_id, t.hours()));
            }
            self.finish_heap.pop();
        }
        None
    }

    /// Earliest ready time among queued jobs, if any.
    pub fn next_ready(&mut self) -> Option<f64> {
        while let Some(&Reverse((t, seq))) = self.ready_heap.peek() {
            if self.eligible.contains_key(&seq) || self.pending.contains_key(&seq) {
                return Some(t.hours());
            }
            self.ready_heap.pop();
        }
        None
    }

    /// Free processors.
    pub fn free_procs(&self) -> u32 {
        self.free
    }

    /// Queued job count.
    pub fn queued(&self) -> usize {
        self.eligible.len() + self.pending.len()
    }

    /// Running job count.
    pub fn running(&self) -> usize {
        self.run_order.len()
    }

    /// True when nothing is queued or running.
    pub fn idle(&self) -> bool {
        self.eligible.is_empty() && self.pending.is_empty() && self.run_order.is_empty()
    }

    /// High-water mark of the queued-entry count over the scheduler's
    /// lifetime.
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }

    /// Append the scheduler's full state to an engine snapshot. Heap
    /// contents go out as sorted key lists (their pop order), so equal
    /// schedulers encode to equal bytes whatever the layout of their
    /// heaps; `run_order` goes out verbatim because
    /// [`SiteScheduler::kill_running`] ordering depends on it.
    /// [`SchedulerImage::decode`] reads it back.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.put_u32(self.capacity);
        e.put_u32(self.free);
        e.put_u32(self.used);
        e.put_u64(self.seq);
        for queued in [&self.eligible, &self.pending] {
            e.put_usize(queued.len());
            for (&seq, q) in queued {
                e.put_u64(seq);
                e.put_u32(q.job_id);
                e.put_u32(q.procs);
            }
        }
        for heap in [&self.promote, &self.ready_heap] {
            let mut keys: Vec<(SimTime, u64)> = heap.iter().map(|k| k.0).collect();
            keys.sort_unstable();
            e.put_usize(keys.len());
            for (t, seq) in keys {
                e.put_f64(t.hours());
                e.put_u64(seq);
            }
        }
        e.put_usize(self.run_order.len());
        for r in &self.run_order {
            e.put_u32(r.job_id);
            e.put_u32(r.procs);
            e.put_u64(r.start_seq);
        }
        let mut finish: Vec<(SimTime, u64, u32)> = self.finish_heap.iter().map(|k| k.0).collect();
        finish.sort_unstable();
        e.put_usize(finish.len());
        for (t, start_seq, job_id) in finish {
            e.put_f64(t.hours());
            e.put_u64(start_seq);
            e.put_u32(job_id);
        }
        e.put_u64(self.start_seq);
        e.put_opt_f64(self.down_until);
        e.put_usize(self.peak_queued);
    }

    /// Rebuild a scheduler from an image. The derived indices
    /// (`eligible_procs` width multiset, `run_index`) are recomputed;
    /// everything observable — start order, kill order, next finish/ready,
    /// free-proc counts — is bit-identical to the imaged scheduler.
    pub(crate) fn from_image(img: &SchedulerImage) -> SiteScheduler {
        let queued_map = |list: &[(u64, u32, u32)]| -> BTreeMap<u64, Queued> {
            list.iter()
                .map(|&(seq, job_id, procs)| (seq, Queued { job_id, procs }))
                .collect()
        };
        let eligible = queued_map(&img.eligible);
        let mut eligible_procs: BTreeMap<u32, u32> = BTreeMap::new();
        for q in eligible.values() {
            *eligible_procs.entry(q.procs).or_insert(0) += 1;
        }
        let run_order: Vec<Running> = img
            .run_order
            .iter()
            .map(|&(job_id, procs, start_seq)| Running {
                job_id,
                procs,
                start_seq,
            })
            .collect();
        let run_index = run_order
            .iter()
            .enumerate()
            .map(|(i, r)| (r.job_id, i))
            .collect();
        SiteScheduler {
            capacity: img.capacity,
            free: img.free,
            used: img.used,
            seq: img.seq,
            eligible,
            pending: queued_map(&img.pending),
            promote: img
                .promote
                .iter()
                .map(|&(t, s)| Reverse((SimTime::from_hours(t), s)))
                .collect(),
            ready_heap: img
                .ready
                .iter()
                .map(|&(t, s)| Reverse((SimTime::from_hours(t), s)))
                .collect(),
            eligible_procs,
            run_order,
            run_index,
            finish_heap: img
                .finish
                .iter()
                .map(|&(t, s, j)| Reverse((SimTime::from_hours(t), s, j)))
                .collect(),
            start_seq: img.start_seq,
            down_until: img.down_until,
            peak_queued: img.peak_queued,
        }
    }
}

/// Decoded snapshot state of one [`SiteScheduler`], as
/// [`SiteScheduler::encode`] wrote it; [`SiteScheduler::from_image`]
/// rebuilds the scheduler from it.
#[derive(Debug)]
pub(crate) struct SchedulerImage {
    /// Total processors.
    pub(crate) capacity: u32,
    /// Free processors.
    pub(crate) free: u32,
    /// Processors in use.
    pub(crate) used: u32,
    /// Next submission sequence number.
    pub(crate) seq: u64,
    /// Eligible queue: `(seq, job_id, procs)` ascending by seq.
    pub(crate) eligible: Vec<(u64, u32, u32)>,
    /// Pending queue: `(seq, job_id, procs)` ascending by seq.
    pub(crate) pending: Vec<(u64, u32, u32)>,
    /// Promotion-heap keys `(ready, seq)` in pop order.
    pub(crate) promote: Vec<(f64, u64)>,
    /// Ready-heap keys `(ready, seq)` in pop order (stale entries kept —
    /// lazy pruning is part of the observable peek behaviour).
    pub(crate) ready: Vec<(f64, u64)>,
    /// Running set `(job_id, procs, start_seq)` in exact Vec order.
    pub(crate) run_order: Vec<(u32, u32, u64)>,
    /// Finish-heap keys `(finish, start_seq, job_id)` in pop order.
    pub(crate) finish: Vec<(f64, u64, u32)>,
    /// Next start sequence number.
    pub(crate) start_seq: u64,
    /// Outage end, if the site is down.
    pub(crate) down_until: Option<f64>,
    /// Lifetime queued-count high-water mark.
    pub(crate) peak_queued: usize,
}

impl SchedulerImage {
    /// Read what [`SiteScheduler::encode`] wrote. Every structural
    /// violation is a [`DurabilityError::Corrupt`].
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<SchedulerImage, DurabilityError> {
        let capacity = d.take_u32()?;
        let free = d.take_u32()?;
        let used = d.take_u32()?;
        let seq = d.take_u64()?;
        let mut eligible = Vec::with_capacity(d.take_len(16)?);
        for _ in 0..eligible.capacity() {
            eligible.push((d.take_u64()?, d.take_u32()?, d.take_u32()?));
        }
        let mut pending = Vec::with_capacity(d.take_len(16)?);
        for _ in 0..pending.capacity() {
            pending.push((d.take_u64()?, d.take_u32()?, d.take_u32()?));
        }
        let mut promote = Vec::with_capacity(d.take_len(16)?);
        for _ in 0..promote.capacity() {
            promote.push((d.take_f64()?, d.take_u64()?));
        }
        let mut ready = Vec::with_capacity(d.take_len(16)?);
        for _ in 0..ready.capacity() {
            ready.push((d.take_f64()?, d.take_u64()?));
        }
        let mut run_order = Vec::with_capacity(d.take_len(16)?);
        for _ in 0..run_order.capacity() {
            run_order.push((d.take_u32()?, d.take_u32()?, d.take_u64()?));
        }
        let mut finish = Vec::with_capacity(d.take_len(20)?);
        for _ in 0..finish.capacity() {
            finish.push((d.take_f64()?, d.take_u64()?, d.take_u32()?));
        }
        Ok(SchedulerImage {
            capacity,
            free,
            used,
            seq,
            eligible,
            pending,
            promote,
            ready,
            run_order,
            finish,
            start_seq: d.take_u64()?,
            down_until: d.take_opt_f64()?,
            peak_queued: d.take_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(s: &mut SiteScheduler, now: f64, hours: impl Fn(u32) -> f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        s.try_start(now, hours, &mut out);
        out
    }

    #[test]
    fn fcfs_order_respected_when_fitting() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 50, 0.0);
        s.submit(2, 50, 0.0);
        s.submit(3, 50, 0.0);
        let started = start(&mut s, 0.0, |_| 1.0);
        let ids: Vec<u32> = started.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(s.free_procs(), 0);
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn backfill_skips_blocked_head() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 90, 0.0);
        s.submit(2, 90, 0.0); // can't fit beside job 1
        s.submit(3, 10, 0.0); // backfills
        let started = start(&mut s, 0.0, |_| 1.0);
        let ids: Vec<u32> = started.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3], "job 3 backfills around blocked job 2");
    }

    #[test]
    fn not_ready_jobs_wait() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 10, 5.0);
        assert!(start(&mut s, 0.0, |_| 1.0).is_empty());
        assert_eq!(s.next_ready(), Some(5.0));
        assert_eq!(start(&mut s, 5.0, |_| 1.0).len(), 1);
    }

    #[test]
    fn finish_releases_processors() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 100, 0.0);
        s.submit(2, 100, 0.0);
        start(&mut s, 0.0, |id| if id == 1 { 2.0 } else { 1.0 });
        assert_eq!(s.free_procs(), 0);
        let (id, t) = s.next_finish().unwrap();
        assert_eq!((id, t), (1, 2.0));
        s.finish(1);
        assert_eq!(s.free_procs(), 100);
        let started = start(&mut s, 2.0, |_| 1.0);
        assert_eq!(started[0].0, 2);
        assert_eq!(started[0].1, 3.0);
    }

    #[test]
    fn downtime_blocks_starts() {
        let mut s = SiteScheduler::new(100);
        s.set_down_until(10.0);
        s.submit(1, 10, 0.0);
        assert!(start(&mut s, 5.0, |_| 1.0).is_empty());
        assert_eq!(start(&mut s, 10.0, |_| 1.0).len(), 1);
    }

    #[test]
    fn overlapping_outages_extend() {
        let mut s = SiteScheduler::new(10);
        s.set_down_until(5.0);
        s.set_down_until(3.0); // shorter; must not shrink
        s.submit(1, 1, 0.0);
        assert!(start(&mut s, 4.0, |_| 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut s = SiteScheduler::new(10);
        s.finish(99);
    }

    #[test]
    fn kill_running_releases_everything() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 40, 0.0);
        s.submit(2, 40, 0.0);
        start(&mut s, 0.0, |_| 5.0);
        assert_eq!(s.free_procs(), 20);
        let mut killed = s.kill_running();
        killed.sort_unstable();
        assert_eq!(killed, vec![(1, 40), (2, 40)]);
        assert_eq!(s.free_procs(), 100);
        assert_eq!(s.running(), 0);
        assert_eq!(s.next_finish(), None, "kill must drop finish entries");
    }

    #[test]
    fn evict_queued_drains_the_queue() {
        let mut s = SiteScheduler::new(10);
        s.submit(1, 5, 0.0);
        s.submit(2, 5, 3.0);
        let evicted = s.evict_queued();
        assert_eq!(evicted, vec![1, 2], "eviction preserves submission order");
        assert_eq!(s.queued(), 0);
        assert!(s.idle());
        assert_eq!(s.next_ready(), None);
    }

    #[test]
    fn preempt_frees_one_job_early() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 60, 0.0);
        s.submit(2, 40, 0.0);
        start(&mut s, 0.0, |_| 10.0);
        assert_eq!(s.preempt(1), 60);
        assert_eq!(s.free_procs(), 60);
        assert_eq!(s.running(), 1);
        s.finish(2);
        assert!(s.idle());
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn preempting_unknown_job_panics() {
        let mut s = SiteScheduler::new(10);
        s.preempt(7);
    }

    #[test]
    fn idle_tracking() {
        let mut s = SiteScheduler::new(10);
        assert!(s.idle());
        s.submit(1, 1, 0.0);
        assert!(!s.idle());
        start(&mut s, 0.0, |_| 1.0);
        assert_eq!(s.running(), 1);
        s.finish(1);
        assert!(s.idle());
    }

    #[test]
    fn stale_finish_entries_are_pruned() {
        // The same job id re-runs after a preempt: the old heap entry
        // must not shadow the new finish time.
        let mut s = SiteScheduler::new(10);
        s.submit(7, 10, 0.0);
        start(&mut s, 0.0, |_| 4.0);
        assert_eq!(s.next_finish(), Some((7, 4.0)));
        s.preempt(7);
        s.submit(7, 10, 0.0);
        start(&mut s, 1.0, |_| 9.0);
        assert_eq!(s.next_finish(), Some((7, 10.0)));
    }

    #[test]
    fn peak_queued_is_a_high_water_mark() {
        let mut s = SiteScheduler::new(100);
        for id in 0..5 {
            s.submit(id, 200, 0.0); // too wide: stays queued
        }
        start(&mut s, 0.0, |_| 1.0);
        assert_eq!(s.queued(), 5);
        s.evict_queued();
        assert_eq!(s.peak_queued(), 5);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn snapshot_round_trip_is_observably_identical() {
        // Build a scheduler mid-flight: running jobs (one preempted, so a
        // stale finish-heap entry exists), eligible + pending queued
        // entries, an outage window, and history in every counter.
        let mut s = SiteScheduler::new(100);
        s.submit(1, 40, 0.0);
        s.submit(2, 30, 0.0);
        s.submit(3, 50, 2.0); // pending until t=2
        s.submit(4, 10, 0.0);
        start(&mut s, 0.0, |id| 5.0 + f64::from(id));
        s.preempt(2); // leaves a stale (2, …) finish entry behind
        s.submit(2, 30, 1.0);
        s.set_down_until(0.5);

        let mut enc = Enc::new();
        s.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut d = Dec::new(&bytes);
        let img = SchedulerImage::decode(&mut d).expect("decode");
        d.finish()
            .expect("the scheduler consumes its bytes exactly");
        let mut r = SiteScheduler::from_image(&img);
        let mut again = Enc::new();
        r.encode(&mut again);
        assert_eq!(
            again.into_bytes(),
            bytes,
            "encode(from_image(decode(b))) == b"
        );
        assert_eq!(r.free_procs(), s.free_procs());
        assert_eq!(r.queued(), s.queued());
        assert_eq!(r.running(), s.running());
        assert_eq!(r.peak_queued(), s.peak_queued());
        assert_eq!(r.next_finish(), s.next_finish());
        assert_eq!(r.next_ready(), s.next_ready());

        // Drive both replicas forward identically: starts, finishes and
        // kill order must match exactly.
        for now in [1.0, 2.0, 4.0] {
            let a = start(&mut s, now, |id| 3.0 + f64::from(id % 2));
            let b = start(&mut r, now, |id| 3.0 + f64::from(id % 2));
            assert_eq!(a, b, "start order diverged at t={now}");
        }
        assert_eq!(s.kill_running(), r.kill_running(), "kill order diverged");
        assert_eq!(s.evict_queued(), r.evict_queued());
    }

    /// Differential pin against the legacy full-scan semantics: a
    /// restart-at-zero scan over a (ready, procs) queue must start the
    /// same jobs in the same order as the heap-backed single pass.
    #[test]
    fn matches_legacy_scan_semantics() {
        use spice_stats::rng::{seed_stream, unit_f64};
        for seed in 0..40u64 {
            let capacity = 64 + (seed_stream(seed, 0) % 192) as u32;
            let mut s = SiteScheduler::new(capacity);
            // Legacy model state: (job_id, procs, ready) in queue order.
            let mut legacy: Vec<(u32, u32, f64)> = Vec::new();
            let mut legacy_free = capacity;
            for id in 0..30u32 {
                let procs =
                    1 + (seed_stream(seed, 100 + u64::from(id)) % u64::from(capacity)) as u32;
                let ready = 4.0 * unit_f64(seed_stream(seed, 200 + u64::from(id)));
                s.submit(id, procs, ready);
                legacy.push((id, procs, ready));
            }
            for step in 0..6 {
                let now = f64::from(step);
                let started = start(&mut s, now, |id| 1.0 + f64::from(id % 3));
                // Legacy restart-at-zero scan.
                let mut expect = Vec::new();
                let mut i = 0;
                while i < legacy.len() {
                    let (id, procs, ready) = legacy[i];
                    if ready <= now && procs <= legacy_free {
                        legacy.remove(i);
                        legacy_free -= procs;
                        expect.push((id, now + 1.0 + f64::from(id % 3)));
                        i = 0;
                    } else {
                        i += 1;
                    }
                }
                assert_eq!(started, expect, "seed {seed} step {step}");
                // Finish everything due by now + 1 in both models.
                while let Some((id, f)) = s.next_finish() {
                    if f > now + 1.0 {
                        break;
                    }
                    let procs = legacy_restore(id, seed);
                    s.finish(id);
                    legacy_free += procs;
                }
            }
        }

        fn legacy_restore(id: u32, seed: u64) -> u32 {
            // procs as sampled at submit time above
            let capacity = 64 + (spice_stats::rng::seed_stream(seed, 0) % 192) as u32;
            1 + (spice_stats::rng::seed_stream(seed, 100 + u64::from(id)) % u64::from(capacity))
                as u32
        }
    }
}
