//! Per-site FCFS batch queue with aggressive backfill — the behaviour of
//! the 2005-era PBS/LoadLeveler queues the paper's jobs sat in.
//!
//! The queue and running set are indexed so no operation on the DES hot
//! path scans the queue: finishing or preempting a job resolves through
//! a `job_id → slot` index, the next finish time comes off a lazy
//! min-heap, and queued entries are split into a *pending* heap (still
//! inside their background-queue delay, keyed by ready time) and an
//! *eligible* set (ready time passed) indexed by width, then by
//! submission order. Free and in-use processor counts are maintained
//! incrementally; the `audit` feature cross-checks them against a full
//! recount.
//!
//! Semantics are bit-identical to the original full-scan implementation.
//! The start order inside one `try_start` call relies on the same
//! argument the old restart-at-zero scan did: free processors only
//! *decrease* within a call, so an entry skipped once (not ready, or too
//! wide for the current free count) can never become startable later in
//! the same call — a single forward pass in submission order starts
//! exactly the same jobs in exactly the same order. The width index
//! takes each step of that pass in one lookup per width class: the next
//! job to start is the oldest eligible entry among the classes that fit,
//! and every older entry left in those classes would have started
//! earlier in the pass, when at least as many processors were free.

use crate::durability::codec::{Dec, Enc};
use crate::durability::DurabilityError;
use crate::event::SimTime;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

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
    /// Queued entries whose ready time has passed: `procs → (seq →
    /// job_id)`, holding only non-empty width classes. Campaigns draw
    /// from a handful of widths, so `try_start` looks at a few classes
    /// instead of walking every queued job too wide to start.
    eligible: BTreeMap<u32, BTreeMap<u64, u32>>,
    /// Entry count of `eligible`.
    eligible_len: usize,
    /// Queued entries still inside their background-queue delay, as a
    /// `(ready, seq, job_id, procs)` min-heap; `try_start` promotes them
    /// into `eligible` once their ready time passes.
    pending: BinaryHeap<Reverse<(SimTime, u64, u32, u32)>>,
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
            eligible_len: 0,
            pending: BinaryHeap::new(),
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
        let ready = SimTime::from_hours(ready);
        self.pending.push(Reverse((ready, seq, job_id, procs)));
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
        let eligible = std::mem::take(&mut self.eligible).into_values().flatten();
        let pending = self
            .pending
            .drain()
            .map(|Reverse((_, seq, id, _))| (seq, id));
        let mut evicted: Vec<(u64, u32)> = eligible.chain(pending).collect();
        evicted.sort_unstable();
        self.eligible_len = 0;
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
        while let Some(&Reverse((ready, seq, job_id, procs))) = self.pending.peek() {
            if ready.hours() > now {
                break;
            }
            self.pending.pop();
            self.eligible.entry(procs).or_default().insert(seq, job_id);
            self.eligible_len += 1;
        }
        // Single forward pass in submission order (see module docs for
        // why this matches the legacy restart-at-zero scan bit-for-bit):
        // each step starts the oldest entry among the width classes that
        // fit, and stops when no class fits.
        while self.free > 0 {
            let next = self
                .eligible
                .range(..=self.free)
                .filter_map(|(&procs, jobs)| jobs.first_key_value().map(|(&seq, _)| (seq, procs)))
                .min();
            let Some((_, procs)) = next else { break };
            let jobs = self
                .eligible
                .get_mut(&procs)
                .expect("the class was just read");
            let (_, job_id) = jobs.pop_first().expect("the class is not empty");
            if jobs.is_empty() {
                self.eligible.remove(&procs);
            }
            self.eligible_len -= 1;
            self.free -= procs;
            self.used += procs;
            let finish = now + runtime(job_id);
            let start_seq = self.start_seq;
            self.start_seq += 1;
            self.run_index.insert(job_id, self.run_order.len());
            self.run_order.push(Running {
                job_id,
                procs,
                start_seq,
            });
            self.finish_heap
                .push(Reverse((SimTime::from_hours(finish), start_seq, job_id)));
            out.push((job_id, finish));
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

    /// Queued job count.
    pub fn queued(&self) -> usize {
        self.eligible_len + self.pending.len()
    }

    /// Running job count.
    pub fn running(&self) -> usize {
        self.run_order.len()
    }

    /// High-water mark of the queued-entry count over the scheduler's
    /// lifetime.
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }

    /// Append the scheduler's state to an engine snapshot;
    /// [`SiteScheduler::decode`] reads it back. The eligible queue goes
    /// out in width-index order as `(seq, job_id, procs)`, and the heaps
    /// as their sorted keys (their pop order), so equal schedulers encode
    /// to equal bytes whatever the layout of their heaps; `run_order`
    /// goes out verbatim because [`SiteScheduler::kill_running`] ordering
    /// depends on it.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.put_u32(self.capacity);
        e.put_u32(self.free);
        e.put_u32(self.used);
        e.put_u64(self.seq);
        e.put_usize(self.eligible_len);
        for (&procs, jobs) in &self.eligible {
            for (&seq, &job_id) in jobs {
                e.put_u64(seq);
                e.put_u32(job_id);
                e.put_u32(procs);
            }
        }
        let mut pending: Vec<(SimTime, u64, u32, u32)> = self.pending.iter().map(|k| k.0).collect();
        pending.sort_unstable();
        e.put_usize(pending.len());
        for (ready, seq, job_id, procs) in pending {
            e.put_f64(ready.hours());
            e.put_u64(seq);
            e.put_u32(job_id);
            e.put_u32(procs);
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

    /// Read what [`SiteScheduler::encode`] wrote, rebuilding the derived
    /// indices (the eligible count, `run_index`); everything observable —
    /// start order, kill order, next finish, free-proc counts — is
    /// bit-identical to the encoded scheduler. Every structural violation,
    /// a non-finite time included, is a [`DurabilityError::Corrupt`], and
    /// so is a queued, running or finishing job id that is not an index
    /// into the campaign's `jobs`.
    pub(crate) fn decode(d: &mut Dec<'_>, jobs: usize) -> Result<SiteScheduler, DurabilityError> {
        let capacity = d.take_u32()?;
        let free = d.take_u32()?;
        let used = d.take_u32()?;
        let seq = d.take_u64()?;
        let mut eligible: BTreeMap<u32, BTreeMap<u64, u32>> = BTreeMap::new();
        for (seq, job_id, procs) in d.take_vec(16, |d| {
            Ok((d.take_u64()?, d.take_index(jobs, "job")?, d.take_u32()?))
        })? {
            eligible.entry(procs).or_default().insert(seq, job_id);
        }
        let pending = d.take_vec(24, |d| {
            Ok(Reverse((
                SimTime::decode(d)?,
                d.take_u64()?,
                d.take_index(jobs, "job")?,
                d.take_u32()?,
            )))
        })?;
        let run_order: Vec<Running> = d.take_vec(16, |d| {
            Ok(Running {
                job_id: d.take_index(jobs, "job")?,
                procs: d.take_u32()?,
                start_seq: d.take_u64()?,
            })
        })?;
        let finish = d.take_vec(20, |d| {
            Ok(Reverse((
                SimTime::decode(d)?,
                d.take_u64()?,
                d.take_index(jobs, "job")?,
            )))
        })?;
        Ok(SiteScheduler {
            capacity,
            free,
            used,
            seq,
            eligible_len: eligible.values().map(BTreeMap::len).sum(),
            eligible,
            pending: BinaryHeap::from(pending),
            run_index: run_order
                .iter()
                .enumerate()
                .map(|(i, r)| (r.job_id, i))
                .collect(),
            run_order,
            finish_heap: BinaryHeap::from(finish),
            start_seq: d.take_u64()?,
            down_until: d.take_opt_f64()?,
            peak_queued: d.take_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when nothing is queued or running.
    fn idle(s: &SiteScheduler) -> bool {
        s.eligible_len == 0 && s.pending.is_empty() && s.run_order.is_empty()
    }

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
        assert_eq!(s.free, 0);
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
        assert!(start(&mut s, 4.5, |_| 1.0).is_empty());
        assert_eq!(start(&mut s, 5.0, |_| 1.0), [(1, 6.0)]);
    }

    #[test]
    fn finish_releases_processors() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 100, 0.0);
        s.submit(2, 100, 0.0);
        start(&mut s, 0.0, |id| if id == 1 { 2.0 } else { 1.0 });
        assert_eq!(s.free, 0);
        let (id, t) = s.next_finish().unwrap();
        assert_eq!((id, t), (1, 2.0));
        s.finish(1);
        assert_eq!(s.free, 100);
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
        assert_eq!(s.free, 20);
        let mut killed = s.kill_running();
        killed.sort_unstable();
        assert_eq!(killed, vec![(1, 40), (2, 40)]);
        assert_eq!(s.free, 100);
        assert_eq!(s.running(), 0);
        assert_eq!(s.next_finish(), None, "kill must drop finish entries");
    }

    #[test]
    fn evict_queued_drains_the_queue() {
        let mut s = SiteScheduler::new(10);
        s.submit(1, 5, 0.0);
        s.submit(2, 5, 3.0);
        s.submit(3, 20, 0.0); // too wide: eligible but never starts
        assert_eq!(start(&mut s, 0.0, |_| 1.0), [(1, 1.0)]);
        s.submit(4, 5, 0.0);
        let evicted = s.evict_queued();
        assert_eq!(evicted, [2, 3, 4], "eviction preserves submission order");
        assert_eq!(s.queued(), 0);
        assert_eq!(s.running(), 1);
        assert!(
            start(&mut s, 5.0, |_| 1.0).is_empty(),
            "nothing evicted becomes ready later"
        );
    }

    #[test]
    fn preempt_frees_one_job_early() {
        let mut s = SiteScheduler::new(100);
        s.submit(1, 60, 0.0);
        s.submit(2, 40, 0.0);
        start(&mut s, 0.0, |_| 10.0);
        assert_eq!(s.preempt(1), 60);
        assert_eq!(s.free, 60);
        assert_eq!(s.running(), 1);
        s.finish(2);
        assert!(idle(&s));
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
        assert!(idle(&s));
        s.submit(1, 1, 0.0);
        assert!(!idle(&s));
        start(&mut s, 0.0, |_| 1.0);
        assert_eq!(s.running(), 1);
        s.finish(1);
        assert!(idle(&s));
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
        let mut r = SiteScheduler::decode(&mut d, 5).expect("decode");
        d.finish()
            .expect("the scheduler consumes its bytes exactly");
        let mut again = Enc::new();
        r.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes, "encode(decode(b)) == b");
        // Job 4 runs: no campaign of four jobs (ids 0..4) holds it.
        assert!(SiteScheduler::decode(&mut Dec::new(&bytes), 4).is_err());
        assert_eq!(r.free, s.free);
        assert_eq!(r.queued(), s.queued());
        assert_eq!(r.running(), s.running());
        assert_eq!(r.peak_queued(), s.peak_queued());
        assert_eq!(r.next_finish(), s.next_finish());

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

    /// Submit `jobs` (`(procs, ready)`, ids in order) to a scheduler and
    /// to the legacy model, a restart-at-zero scan over a `(ready,
    /// procs)` queue, then step both through `steps` whole hours,
    /// finishing whatever is due before the next step. The indexed single
    /// pass must start the same jobs in the same order at every step.
    /// Returns how many starts backfilled past an older ready entry.
    fn assert_matches_legacy_scan(
        capacity: u32,
        jobs: &[(u32, f64)],
        steps: u32,
        label: &str,
    ) -> usize {
        let mut s = SiteScheduler::new(capacity);
        // Legacy model state: (job_id, procs, ready) in queue order.
        let mut legacy: Vec<(u32, u32, f64)> = Vec::new();
        let mut legacy_free = capacity;
        for (id, &(procs, ready)) in (0u32..).zip(jobs) {
            s.submit(id, procs, ready);
            legacy.push((id, procs, ready));
        }
        let mut backfills = 0;
        for step in 0..steps {
            let now = f64::from(step);
            let started = start(&mut s, now, |id| 1.0 + f64::from(id % 3));
            // Legacy restart-at-zero scan.
            let mut expect = Vec::new();
            let mut i = 0;
            while i < legacy.len() {
                let (id, procs, ready) = legacy[i];
                if ready <= now && procs <= legacy_free {
                    if legacy[..i].iter().any(|&(_, _, r)| r <= now) {
                        backfills += 1;
                    }
                    legacy.remove(i);
                    legacy_free -= procs;
                    expect.push((id, now + 1.0 + f64::from(id % 3)));
                    i = 0;
                } else {
                    i += 1;
                }
            }
            assert_eq!(started, expect, "{label} step {step}");
            assert_eq!(s.queued(), legacy.len(), "{label} step {step}");
            // Finish everything due by now + 1 in both models.
            while let Some((id, f)) = s.next_finish() {
                if f > now + 1.0 {
                    break;
                }
                s.finish(id);
                legacy_free += jobs[id as usize].0;
            }
        }
        backfills
    }

    /// Differential pin against the legacy full-scan semantics, on small
    /// queues of arbitrary widths and on campaign-like queues: a few
    /// hundred jobs drawn from five width classes up to the whole site,
    /// released faster than they run, so wide jobs pile up at the head of
    /// the queue and the narrow ones behind them start out of order.
    #[test]
    fn matches_legacy_scan_semantics() {
        use spice_stats::rng::{seed_stream, unit_f64};
        for seed in 0..40u64 {
            let capacity = 64 + (seed_stream(seed, 0) % 192) as u32;
            let jobs: Vec<(u32, f64)> = (0..30u64)
                .map(|id| {
                    let procs = 1 + (seed_stream(seed, 100 + id) % u64::from(capacity)) as u32;
                    (procs, 4.0 * unit_f64(seed_stream(seed, 200 + id)))
                })
                .collect();
            assert_matches_legacy_scan(capacity, &jobs, 6, &format!("seed {seed}"));
        }
        const WIDTHS: [u32; 5] = [64, 128, 256, 384, 512];
        let mut backfills = 0;
        for seed in 0..8u64 {
            let jobs: Vec<(u32, f64)> = (0..300u64)
                .map(|id| {
                    let procs = WIDTHS[(seed_stream(seed, 100 + id) % 5) as usize];
                    (procs, 40.0 * unit_f64(seed_stream(seed, 200 + id)))
                })
                .collect();
            backfills +=
                assert_matches_legacy_scan(512, &jobs, 60, &format!("campaign seed {seed}"));
        }
        assert!(backfills > 100, "only {backfills} starts backfilled");
    }
}
