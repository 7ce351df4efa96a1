//! Fault-tolerant campaign execution: failure injection, checkpoint /
//! restart, and retry-with-failover across the federation.
//!
//! Section V of the paper is a catalogue of real grid failures — launch
//! failures from immature middleware (§V-C-2), a security breach that
//! removed the only coordinated UK node for weeks (§V-C-4), and gateway
//! connection failures for steering-coupled runs (§V-C-1). This module
//! executes a [`Campaign`] through the discrete-event engine under a
//! [`ResiliencePolicy`] combining four knobs:
//!
//! * a seeded per-job [`FailureModel`] (launch failures, mid-run node
//!   crashes, gateway drops for coupled jobs),
//! * explicit [`OutagePolicy`] semantics — `Drain` lets in-flight work
//!   finish, `Kill` terminates it, replacing the old FCFS "assume
//!   checkpoint-protected and resume" shortcut,
//! * a [`CheckpointPolicy`] with periodic checkpoints and per-checkpoint
//!   overhead, so a killed job restarts from its last checkpoint instead
//!   of from scratch,
//! * a [`RetryPolicy`] with bounded retries, exponential backoff, and
//!   site blacklisting + failover migration to another federation site.
//!
//! All progress accounting is in *reference* hours (site-independent):
//! an attempt that ran `e` on-site hours on a site of speed `s` made
//! `e·s` reference hours of gross progress. Goodput is the reference
//! CPU-hours of completed science; badput is everything else the
//! campaign burned (failed attempts, lost segments, checkpoint
//! overhead). Everything is bit-deterministic under the campaign seed.
//!
//! The engine is built for campaigns far beyond the paper's 72 jobs:
//! events carry dense job/site indices (no id→index scans), the per-site
//! schedulers are indexed by width ([`SiteScheduler`]), dispatch reuses one
//! candidate scratch buffer plus a `(procs, coupled) → fitting sites`
//! cache instead of allocating per submit, and outage lookups go through
//! a per-site [`OutageIndex`]. The seed engine's per-submission poke
//! *chains* (re-poke at every finish epoch) all converged onto the same
//! targets on a busy site, so its event count grew as
//! O(jobs × finish-epochs); here the duplicate `(time, site)` pokes are
//! coalesced into pending-arrival blocks drained in the seed's exact
//! schedule order (a virtual sequence counter stands in for the seed's
//! event-queue tie-breaker — see `Engine::schedule_pokes`), and a whole
//! block of chain steps whose site state has stopped changing collapses
//! to O(1) bookkeeping. The agenda holds one marker per distinct wakeup
//! instant instead of one event per chain hop, and the prologue's
//! releases wait in one sorted run beside it. Golden digests in
//! `tests/des_goldens.rs` pin the records, failure logs, telemetry and
//! event counts of every dispatch × resilience policy on the paper and
//! synthetic campaigns. Before the seed engine was deleted, every golden
//! case gave it the same records, failure log and per-job telemetry, so
//! every shortcut here is behaviour-preserving. See DESIGN.md §13.

use crate::campaign::{Campaign, CampaignResult};
use crate::des::DispatchPolicy;
use crate::durability::codec::{index_in, Dec, Enc};
use crate::durability::DurabilityError;
use crate::event::{Agenda, SimTime};
use crate::failure::{FailureEvent, FailureKind, FailureModel, OutageIndex};
use crate::hidden_ip::steering_connectivity;
use crate::job::{JobId, JobRecord};
use crate::resource::SiteId;
use crate::scheduler::fcfs::SiteScheduler;
use serde::{Deserialize, Serialize};
use spice_stats::rng::{seed_stream, unit_f64};
use spice_telemetry::{Counter, ProbePoint, Telemetry, Track};
use std::collections::BTreeMap;

/// Logical-clock stamp for a DES sim-time: milliseconds of simulated
/// time. Millisecond resolution keeps distinct event times distinct
/// (queue waits are fractional hours) while staying integral.
pub(crate) fn sim_ticks(hours: f64) -> u64 {
    (hours.max(0.0) * 3.6e6) as u64
}

/// What happens to a site's in-flight work when an outage begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutagePolicy {
    /// Running jobs finish on schedule; only new starts are blocked (the
    /// optimistic semantics the old FCFS model assumed for every
    /// outage).
    Drain,
    /// Running jobs are killed and queued submissions are lost — a
    /// security breach or hardware failure takes everything down.
    Kill,
}

/// Periodic application-level checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Reference hours of progress between checkpoints (`None` = no
    /// checkpointing: a killed job restarts from scratch).
    pub interval_hours: Option<f64>,
    /// Reference hours each checkpoint write costs (added to runtime).
    pub overhead_hours: f64,
}

impl CheckpointPolicy {
    /// No checkpointing.
    pub fn none() -> CheckpointPolicy {
        CheckpointPolicy {
            interval_hours: None,
            overhead_hours: 0.0,
        }
    }

    /// Checkpoint every `interval_hours` of progress, paying
    /// `overhead_hours` per checkpoint.
    ///
    /// # Panics
    /// Panics on a non-positive interval or negative overhead.
    pub fn periodic(interval_hours: f64, overhead_hours: f64) -> CheckpointPolicy {
        assert!(interval_hours > 0.0, "checkpoint interval must be positive");
        assert!(
            overhead_hours >= 0.0,
            "checkpoint overhead must be non-negative"
        );
        CheckpointPolicy {
            interval_hours: Some(interval_hours),
            overhead_hours,
        }
    }

    /// Checkpoints written during a run with `work` reference hours left
    /// (one per completed interval; none at job end — the final state is
    /// the result itself).
    pub fn checkpoints_during(&self, work: f64) -> u32 {
        match self.interval_hours {
            None => 0,
            Some(i) => {
                if work <= i {
                    0
                } else {
                    (work / i).ceil() as u32 - 1
                }
            }
        }
    }

    /// Gross reference hours to execute `work` remaining hours,
    /// including checkpoint overhead.
    pub fn gross_hours(&self, work: f64) -> f64 {
        work + f64::from(self.checkpoints_during(work)) * self.overhead_hours
    }

    /// Progress preserved when an attempt with `work` reference hours
    /// left is killed after `gross_done` gross reference hours: the last
    /// completed checkpoint. Always in `[0, work)`.
    pub fn saved_progress(&self, gross_done: f64, work: f64) -> f64 {
        match self.interval_hours {
            None => 0.0,
            Some(i) => {
                let per_segment = i + self.overhead_hours;
                let completed = (gross_done / per_segment).floor().max(0.0);
                let cap = f64::from(self.checkpoints_during(work));
                completed.min(cap) * i
            }
        }
    }
}

/// Bounded resubmission with exponential backoff, blacklisting and
/// failover.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Resubmissions allowed after the first attempt; a job that fails
    /// with all retries spent is abandoned.
    pub max_retries: u32,
    /// Backoff before the first resubmission (hours).
    pub backoff_base_hours: f64,
    /// Multiplier applied per additional failure.
    pub backoff_factor: f64,
    /// Floor on any resubmission delay (hours) — resubmission is never
    /// instantaneous.
    pub min_resubmit_delay_hours: f64,
    /// Per-job failures at one site before that site is avoided for the
    /// job (0 disables blacklisting). Only effective with `failover`.
    pub blacklist_threshold: u32,
    /// May the job migrate to a different federation site on retry? When
    /// false, every retry goes back to the originally chosen site.
    pub failover: bool,
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base_hours: 0.0,
            backoff_factor: 1.0,
            min_resubmit_delay_hours: 0.0,
            blacklist_threshold: 0,
            failover: false,
        }
    }

    /// Resubmission delay after `failures` failures (≥ 1).
    pub fn backoff_hours(&self, failures: u32) -> f64 {
        let exponent = failures.saturating_sub(1).min(20);
        let b = self.backoff_base_hours * self.backoff_factor.powi(exponent as i32);
        b.max(self.min_resubmit_delay_hours)
    }
}

/// The full resilience configuration of a campaign execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// In-flight work semantics when an outage begins.
    pub outage: OutagePolicy,
    /// Checkpoint/restart behaviour.
    pub checkpoint: CheckpointPolicy,
    /// Resubmission behaviour.
    pub retry: RetryPolicy,
    /// Stochastic per-job failure environment.
    pub failures: FailureModel,
}

impl ResiliencePolicy {
    /// Failure-free baseline: no stochastic failures, outages drain.
    /// Reproduces the pre-resilience DES behaviour.
    pub fn none() -> ResiliencePolicy {
        ResiliencePolicy {
            outage: OutagePolicy::Drain,
            checkpoint: CheckpointPolicy::none(),
            retry: RetryPolicy::none(),
            failures: FailureModel::none(),
        }
    }

    /// The 2005 status quo: outages kill work, no checkpoints, and the
    /// campaign manager doggedly resubmits to the same site with no
    /// backoff intelligence.
    pub fn naive() -> ResiliencePolicy {
        ResiliencePolicy {
            outage: OutagePolicy::Kill,
            checkpoint: CheckpointPolicy::none(),
            retry: RetryPolicy {
                max_retries: 1000,
                backoff_base_hours: 0.1,
                backoff_factor: 1.0,
                min_resubmit_delay_hours: 0.1,
                blacklist_threshold: 0,
                failover: false,
            },
            failures: FailureModel::sc05(),
        }
    }

    /// Bounded retries with exponential backoff, blacklisting and
    /// failover migration — but restarts are from scratch.
    pub fn retry_only() -> ResiliencePolicy {
        ResiliencePolicy {
            outage: OutagePolicy::Kill,
            checkpoint: CheckpointPolicy::none(),
            retry: RetryPolicy {
                max_retries: 12,
                backoff_base_hours: 0.25,
                backoff_factor: 2.0,
                min_resubmit_delay_hours: 0.1,
                blacklist_threshold: 2,
                failover: true,
            },
            failures: FailureModel::sc05(),
        }
    }

    /// Everything: periodic checkpoints (hourly, ~36 s overhead each —
    /// MD restart files are cheap to write) on top of
    /// [`ResiliencePolicy::retry_only`]'s retry machinery.
    pub fn checkpoint_failover() -> ResiliencePolicy {
        ResiliencePolicy {
            checkpoint: CheckpointPolicy::periodic(1.0, 0.01),
            ..ResiliencePolicy::retry_only()
        }
    }
}

/// Result of a resilient campaign execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientResult {
    /// The completed-job campaign result (records carry per-job attempt
    /// and lost-CPU accounting).
    pub result: CampaignResult,
    /// Every failed attempt, in event order.
    pub failures: Vec<FailureEvent>,
    /// Jobs that exhausted their retries.
    pub abandoned: Vec<JobId>,
    /// Reference CPU-hours of completed science.
    pub goodput_cpu_hours: f64,
    /// Reference CPU-hours burned on failed attempts, lost segments and
    /// checkpoint overhead (includes partial work of abandoned jobs).
    pub badput_cpu_hours: f64,
    /// Total resubmissions across the campaign.
    pub total_retries: u32,
}

impl ResilientResult {
    /// Fraction of jobs that completed.
    pub fn completion_fraction(&self) -> f64 {
        let total = self.result.records.len() + self.abandoned.len();
        if total == 0 {
            return 1.0;
        }
        self.result.records.len() as f64 / total as f64
    }

    /// Mean retries per job (over all jobs, completed or not).
    pub fn retries_per_job(&self) -> f64 {
        let total = self.result.records.len() + self.abandoned.len();
        if total == 0 {
            return 0.0;
        }
        f64::from(self.total_retries) / total as f64
    }

    /// Badput as a fraction of all CPU-hours consumed.
    pub fn badput_fraction(&self) -> f64 {
        let consumed = self.goodput_cpu_hours + self.badput_cpu_hours;
        if consumed <= 0.0 {
            return 0.0;
        }
        self.badput_cpu_hours / consumed
    }

    /// Makespan relative to a failure-free baseline makespan.
    pub fn makespan_inflation(&self, baseline_hours: f64) -> f64 {
        self.result.makespan_hours / baseline_hours.max(1e-12)
    }
}

/// Hot-path instrumentation of one DES replay, returned by
/// [`run_resilient_with_stats`]: how many events the engine resolved and
/// how deep the event queue / site queues got. Exported as `grid.*`
/// gauges when telemetry is attached; the scale bench derives events/sec
/// from `events_processed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct EngineStats {
    /// Events popped off the DES queue over the whole replay.
    pub events_processed: u64,
    /// High-water mark of the pending-event count.
    pub event_queue_peak: usize,
    /// Largest queued-job high-water mark across all site schedulers.
    pub site_queue_peak: usize,
}

/// DES event payload. Dense `u32` indices keep the payload at 16 bytes
/// and make every lookup a direct array access — no id→index scans on
/// the per-event path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A job (first submission or retry) enters the dispatcher.
    Submit(u32),
    /// Attempt `attempt` of job `ji` completes on site `si`.
    Finish { si: u32, ji: u32, attempt: u32 },
    /// Attempt `attempt` of job `ji` dies mid-run on site `si`.
    Fail {
        si: u32,
        ji: u32,
        attempt: u32,
        kind: FailureKind,
    },
    /// Outage `oi` (index into the campaign's outage list) begins.
    OutageStart(u32),
    /// The site at index `si` recovers: re-attempt starts.
    OutageEnd(u32),
    /// Wakeup *marker*: guarantees the clock reaches a pending poke
    /// instant. The actual chain steps live in `poke_pending` (with
    /// their site indices) and are drained in virtual-sequence order by
    /// the run loop; the marker's own pop is a no-op.
    Poke,
}

/// The times of the prologue's releases in stamp order: outage starts
/// (clamped to zero), then one submission per job in job order. The
/// prologue loads them into the agenda, and a restore rebuilds the same
/// run from them.
fn release_times(campaign: &Campaign) -> impl ExactSizeIterator<Item = f64> + '_ {
    let outages = campaign.outages.len();
    (0..outages + campaign.jobs.len()).map(move |i| {
        if i < outages {
            campaign.outages[i].start.max(0.0)
        } else {
            campaign.jobs[i - outages].release_hours
        }
    })
}

/// The event the prologue released under `stamp`: outage starts take
/// stamps `1..=outages`, then one submission per job follows in job
/// order. `None` for a stamp past the release run.
fn release_ev(campaign: &Campaign, stamp: u64) -> Option<Ev> {
    let i = usize::try_from(stamp.checked_sub(1)?).ok()?;
    let outages = campaign.outages.len();
    if i < outages {
        Some(Ev::OutageStart(i as u32))
    } else if i - outages < campaign.jobs.len() {
        Some(Ev::Submit((i - outages) as u32))
    } else {
        None
    }
}

#[derive(Debug)]
struct JobState {
    /// Current attempt, 1-based.
    attempt: u32,
    /// Reference hours of work left (excluding checkpoint overhead).
    remaining: f64,
    /// Reference CPU-hours consumed across all attempts so far.
    consumed_ref_cpu_h: f64,
    /// Amount currently added to the site backlog estimate.
    backlog_contrib: f64,
    /// Failures of this job per site, sparse `(site index, count)` —
    /// most jobs never fail, so a dense per-site vector per job would
    /// dominate memory at campaign scale.
    site_failures: Vec<(u32, u32)>,
    /// Site index + start time of the in-flight attempt, if running.
    running: Option<(usize, f64)>,
    /// Site index of the most recent placement.
    last_site: Option<usize>,
    done: bool,
    abandoned: bool,
}

impl JobState {
    fn failures_at(&self, si: usize) -> u32 {
        self.site_failures
            .iter()
            .find(|&&(s, _)| s == si as u32)
            .map_or(0, |&(_, n)| n)
    }

    fn add_failure(&mut self, si: usize) {
        match self.site_failures.iter_mut().find(|(s, _)| *s == si as u32) {
            Some((_, n)) => *n += 1,
            None => self.site_failures.push((si as u32, 1)),
        }
    }

    /// Append the state to an engine snapshot; [`JobState::decode`]
    /// reads it back.
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.attempt);
        e.put_f64(self.remaining);
        e.put_f64(self.consumed_ref_cpu_h);
        e.put_f64(self.backlog_contrib);
        e.put_usize(self.site_failures.len());
        for &(si, n) in &self.site_failures {
            e.put_u32(si);
            e.put_u32(n);
        }
        match self.running {
            Some((si, start)) => {
                e.put_u8(1);
                e.put_usize(si);
                e.put_f64(start);
            }
            None => e.put_u8(0),
        }
        match self.last_site {
            Some(si) => {
                e.put_u8(1);
                e.put_usize(si);
            }
            None => e.put_u8(0),
        }
        e.put_bool(self.done);
        e.put_bool(self.abandoned);
    }

    /// Read what [`JobState::encode`] wrote; a running or last site
    /// that is not an index into the campaign's `sites` is `Corrupt`.
    fn decode(d: &mut Dec<'_>, sites: usize) -> Result<JobState, DurabilityError> {
        Ok(JobState {
            attempt: d.take_u32()?,
            remaining: d.take_f64()?,
            consumed_ref_cpu_h: d.take_f64()?,
            backlog_contrib: d.take_f64()?,
            site_failures: d.take_vec(8, |d| Ok((d.take_u32()?, d.take_u32()?)))?,
            running: match d.take_u8()? {
                0 => None,
                1 => Some((index_in(d.take_usize()?, sites, "site")?, d.take_f64()?)),
                t => return Err(DurabilityError::Corrupt(format!("invalid running tag {t}"))),
            },
            last_site: match d.take_u8()? {
                0 => None,
                1 => Some(index_in(d.take_usize()?, sites, "site")?),
                t => {
                    return Err(DurabilityError::Corrupt(format!(
                        "invalid last-site tag {t}"
                    )))
                }
            },
            done: d.take_bool()?,
            abandoned: d.take_bool()?,
        })
    }
}

/// Salt for resubmission queue-wait streams (first attempts reuse the
/// original DES stream so a failure-free resilient run is identical to
/// the plain DES).
const RESUBMIT_SALT: u64 = 0x5245_5355_424D_4954;

pub(crate) struct Engine<'a> {
    campaign: &'a Campaign,
    policy: &'a ResiliencePolicy,
    dispatch: DispatchPolicy,
    schedulers: Vec<SiteScheduler>,
    states: Vec<JobState>,
    records: Vec<JobRecord>,
    failures: Vec<FailureEvent>,
    abandoned: Vec<JobId>,
    jobs_per_site: Vec<usize>,
    backlog_cpu_h: Vec<f64>,
    rr_cursor: usize,
    total_retries: u32,
    /// Physical events in pop order, keyed by `(time bits, virtual
    /// sequence stamp)` (see [`Self::sched`]) so pending poke arrivals
    /// can be interleaved with them in the seed engine's exact tie-break
    /// order. The prologue's releases wait in the agenda's sorted run
    /// and take their `Ev` from their stamp ([`release_ev`]).
    agenda: Agenda<Ev>,
    /// Virtual sequence counter: incremented once per *seed-engine
    /// schedule call* — physical events and suppressed poke arrivals
    /// alike — so `(time, vseq)` order over all logical events is
    /// exactly the seed queue's `(time, seq)` pop order.
    vseq: u64,
    /// `(site id, site index)` sorted by id, for O(log n) outage→site
    /// resolution (ids need not be dense under restricted federations).
    site_by_id: Vec<(SiteId, usize)>,
    /// Per-site outage window index for the dispatcher's status-page
    /// reads.
    outage_index: Vec<OutageIndex>,
    /// Per-site: can a steering-coupled job run here at all?
    coupled_ok: Vec<bool>,
    /// Per-site: is a coupled job's steering connection gateway-routed
    /// (and so exposed to gateway drops)?
    routed_gateway: Vec<bool>,
    /// `(procs, coupled) → fitting site indices`, ascending. Campaigns
    /// draw from a handful of width classes, so this caches the whole
    /// site-fit prefilter.
    fit_cache: BTreeMap<(u32, bool), Vec<u32>>,
    /// Reusable dispatch candidate scratch (blacklist-filtered sites).
    cand_buf: Vec<u32>,
    /// Reusable `(job index, finish)` scratch for scheduler starts.
    started_buf: Vec<(u32, f64)>,
    /// Coalesced poke-chain arrivals awaiting replay:
    /// `(time bits, first virtual seq) → (site index, chain count)`.
    /// Times are finite and non-negative, so the raw f64 bit pattern
    /// orders (and equals) exactly like the value and the map's key
    /// order is the seed's pop order. A block of `count` arrivals covers
    /// virtual stamps `first .. first + count`. See
    /// [`Self::schedule_pokes`].
    poke_pending: BTreeMap<(u64, u64), (u32, u32)>,
    events_processed: u64,
    telemetry: Telemetry,
    /// One `("grid.job", id)` track per campaign job, indexed like
    /// `states`; attempt spans and failure/retry/checkpoint instants land
    /// here, stamped with [`sim_ticks`]. Empty when telemetry is
    /// disabled — every access is behind an `is_enabled` check.
    job_tracks: Vec<Track>,
    /// The `("grid.campaign", seed)` track: one span over the whole
    /// replay, ticked by every popped DES event.
    campaign_track: Track,
    des_events: Counter,
    #[cfg(feature = "audit")]
    pending_submits: usize,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        campaign: &'a Campaign,
        policy: &'a ResiliencePolicy,
        dispatch: DispatchPolicy,
        telemetry: &Telemetry,
    ) -> Self {
        let nsites = campaign.federation.sites.len();
        let states = campaign
            .jobs
            .iter()
            .map(|j| JobState {
                attempt: 1,
                remaining: j.wall_hours,
                consumed_ref_cpu_h: 0.0,
                backlog_contrib: 0.0,
                site_failures: Vec::new(),
                running: None,
                last_site: None,
                done: false,
                abandoned: false,
            })
            .collect();
        let mut site_by_id: Vec<(SiteId, usize)> = campaign
            .federation
            .sites
            .iter()
            .enumerate()
            .map(|(si, s)| (s.id, si))
            .collect();
        // Full-tuple sort so duplicate ids (a malformed federation)
        // still resolve to the lowest index, like the linear scan did.
        site_by_id.sort_unstable();
        Engine {
            campaign,
            policy,
            dispatch,
            schedulers: campaign
                .federation
                .sites
                .iter()
                .map(|s| SiteScheduler::new(s.procs))
                .collect(),
            states,
            records: Vec::with_capacity(campaign.jobs.len()),
            failures: Vec::new(),
            abandoned: Vec::new(),
            jobs_per_site: vec![0; nsites],
            backlog_cpu_h: vec![0.0; nsites],
            rr_cursor: 0,
            total_retries: 0,
            agenda: Agenda::new(),
            vseq: 0,
            site_by_id,
            outage_index: campaign
                .federation
                .sites
                .iter()
                .map(|s| OutageIndex::build(&campaign.outages, s.id))
                .collect(),
            coupled_ok: campaign
                .federation
                .sites
                .iter()
                .map(|s| steering_connectivity(s).is_ok())
                .collect(),
            routed_gateway: campaign
                .federation
                .sites
                .iter()
                .map(|s| matches!(steering_connectivity(s), Ok(Some(_))))
                .collect(),
            fit_cache: BTreeMap::new(),
            cand_buf: Vec::new(),
            started_buf: Vec::new(),
            poke_pending: BTreeMap::new(),
            events_processed: 0,
            telemetry: telemetry.clone(),
            job_tracks: if telemetry.is_enabled() {
                campaign
                    .jobs
                    .iter()
                    .map(|j| telemetry.track("grid.job", u64::from(j.id)))
                    .collect()
            } else {
                Vec::new()
            },
            campaign_track: telemetry.track("grid.campaign", campaign.seed),
            des_events: telemetry.counter("grid.des_events"),
            #[cfg(feature = "audit")]
            pending_submits: 0,
        }
    }

    /// Schedule a physical event, stamping it with the next virtual
    /// sequence number. Every path that the seed engine's `q.schedule`
    /// took must go through here (or [`Self::schedule_pokes`]) exactly
    /// once, so the stamps reproduce the seed's FIFO tie-breaker.
    fn sched(&mut self, t: f64, ev: Ev) {
        self.vseq += 1;
        self.agenda.schedule(SimTime::from_hours(t), self.vseq, ev);
    }

    fn site_index(&self, id: SiteId) -> Option<usize> {
        let k = self.site_by_id.partition_point(|&(sid, _)| sid < id);
        self.site_by_id
            .get(k)
            .filter(|&&(sid, _)| sid == id)
            .map(|&(_, si)| si)
    }

    /// The single stochastic queue-wait sample for `(job, site, attempt)`
    /// — used both for the dispatcher's estimate and as the applied wait,
    /// so they cannot diverge.
    fn wait_sample(&self, ji: usize, si: usize, attempt: u32) -> f64 {
        let index = (ji as u64) << 8 | si as u64;
        let bits = if attempt == 1 {
            seed_stream(self.campaign.seed, index)
        } else {
            seed_stream(
                self.campaign.seed ^ RESUBMIT_SALT,
                index | u64::from(attempt) << 32,
            )
        };
        let u = unit_f64(bits);
        -self.campaign.federation.sites[si].mean_queue_wait * (1.0 - u).max(1e-12).ln()
    }

    /// Remaining on-site runtime of job `ji` at site `si`, checkpoint
    /// overhead included.
    fn runtime_on(&self, ji: usize, si: usize) -> f64 {
        self.policy
            .checkpoint
            .gross_hours(self.states[ji].remaining)
            / self.campaign.federation.sites[si].speed
    }

    fn handle_submit(&mut self, ji: usize, now: f64) {
        #[cfg(feature = "audit")]
        {
            self.pending_submits -= 1;
        }
        let job = &self.campaign.jobs[ji];
        let sites = &self.campaign.federation.sites;
        let key = (job.procs, job.coupled);
        if !self.fit_cache.contains_key(&key) {
            let fitting: Vec<u32> = (0..sites.len())
                .filter(|&si| sites[si].fits(job.procs) && (!job.coupled || self.coupled_ok[si]))
                .map(|si| si as u32)
                .collect();
            self.fit_cache.insert(key, fitting);
        }
        let fitting = &self.fit_cache[&key];
        assert!(
            !fitting.is_empty(),
            "job {} ({} procs{}) fits nowhere in the federation",
            job.name,
            job.procs,
            if job.coupled {
                ", steering-coupled"
            } else {
                ""
            }
        );

        // Retry placement: without failover the job is pinned to its
        // original site; with failover, blacklisted sites are avoided
        // (unless every option is blacklisted — then retry anywhere).
        // Candidate lists are slices into the fit cache, a pinned-site
        // singleton, or the reusable scratch buffer — never a fresh
        // allocation.
        let st = &self.states[ji];
        let pinned: [u32; 1];
        let candidates: &[u32] = if !self.policy.retry.failover {
            match st.last_site {
                Some(si) => {
                    pinned = [si as u32];
                    &pinned
                }
                None => fitting,
            }
        } else if self.policy.retry.blacklist_threshold > 0 {
            let thr = self.policy.retry.blacklist_threshold;
            self.cand_buf.clear();
            self.cand_buf.extend(
                fitting
                    .iter()
                    .copied()
                    .filter(|&si| st.failures_at(si as usize) < thr),
            );
            if self.cand_buf.is_empty() {
                fitting
            } else {
                &self.cand_buf
            }
        } else {
            fitting
        };

        let attempt = st.attempt;
        let si = match self.dispatch {
            DispatchPolicy::EarliestCompletion => {
                // Myopic: cheapest estimated completion among candidate
                // sites, using current backlog and known outage state.
                let mut best: Option<(usize, f64)> = None;
                for &si in candidates {
                    let si = si as usize;
                    let est = self.wait_sample(ji, si, attempt)
                        + self.backlog_cpu_h[si] / f64::from(sites[si].procs)
                        + self.runtime_on(ji, si)
                        + self.outage_index[si].remaining(now);
                    if best.is_none_or(|(_, b)| est < b) {
                        best = Some((si, est));
                    }
                }
                best.expect("candidates is non-empty").0
            }
            DispatchPolicy::RoundRobin => {
                let si = candidates[self.rr_cursor % candidates.len()];
                self.rr_cursor += 1;
                si as usize
            }
            DispatchPolicy::Random => {
                let index = if attempt == 1 {
                    ji as u64
                } else {
                    ji as u64 | u64::from(attempt) << 32
                };
                let u = seed_stream(self.campaign.seed ^ 0x5EED, index);
                candidates[(u % candidates.len() as u64) as usize] as usize
            }
        };

        let queue_wait = self.wait_sample(ji, si, attempt);
        let contrib = self
            .policy
            .checkpoint
            .gross_hours(self.states[ji].remaining)
            * f64::from(job.procs);
        let st = &mut self.states[ji];
        st.backlog_contrib = contrib;
        st.last_site = Some(si);
        self.backlog_cpu_h[si] += contrib;
        self.schedulers[si].submit(ji as u32, job.procs, now + queue_wait);
        self.schedule_pokes(si, now + queue_wait, 1);
    }

    /// Start every queued job that fits at `si`, sampling launch
    /// failures and pre-drawing each started attempt's fate (crash,
    /// gateway drop, or clean finish).
    fn try_start_site(&mut self, si: usize, now: f64) {
        let campaign = self.campaign;
        let site = &campaign.federation.sites[si];
        let speed = site.speed;
        let policy = self.policy;
        // The scheduler's job ids *are* campaign indices, so the runtime
        // closure and everything below is a direct array access. The
        // started list lives in a scratch buffer reused across the whole
        // campaign (taken out of `self` so the loop can re-borrow).
        let mut started = std::mem::take(&mut self.started_buf);
        {
            let states = &self.states;
            self.schedulers[si].try_start(
                now,
                |jid| {
                    policy
                        .checkpoint
                        .gross_hours(states[jid as usize].remaining)
                        / speed
                },
                &mut started,
            );
        }
        for &(jid, finish) in &started {
            let ji = jid as usize;
            let job = &campaign.jobs[ji];
            #[cfg(feature = "audit")]
            crate::audit::check_single_site(
                job.id,
                self.states[ji]
                    .running
                    .map(|(s, _)| campaign.federation.sites[s].id),
                site.id,
            );
            let attempt = self.states[ji].attempt;
            if policy
                .failures
                .launch_fails(campaign.seed, job.id, attempt, site)
            {
                // The launch itself failed: processors are never held,
                // no compute time is lost.
                self.schedulers[si].preempt(jid);
                self.fail_attempt(ji, si, now, FailureKind::LaunchFailure, 0.0);
                continue;
            }
            self.states[ji].running = Some((si, now));
            if self.telemetry.is_enabled() {
                self.job_tracks[ji].enter_at("grid.attempt", sim_ticks(now));
                self.job_tracks[ji].instant_at(
                    "grid.start",
                    sim_ticks(now),
                    vec![
                        // spice-lint: allow(P002) label built only on the traced path, never the untraced hot loop
                        ("site", site.name.clone()),
                        ("attempt", attempt.to_string()),
                    ],
                );
            }
            let crash = policy
                .failures
                .crash_after(campaign.seed, job.id, attempt, site.id);
            let drop = if job.coupled && self.routed_gateway[si] {
                policy
                    .failures
                    .gateway_drop_after(campaign.seed, job.id, attempt, site.id)
            } else {
                f64::INFINITY
            };
            let (t_fail, kind) = if crash <= drop {
                (crash, FailureKind::NodeCrash)
            } else {
                (drop, FailureKind::GatewayDrop)
            };
            if now + t_fail < finish {
                self.sched(
                    now + t_fail,
                    Ev::Fail {
                        si: si as u32,
                        ji: jid,
                        attempt,
                        kind,
                    },
                );
            } else {
                self.sched(
                    finish,
                    Ev::Finish {
                        si: si as u32,
                        ji: jid,
                        attempt,
                    },
                );
            }
        }
        self.started_buf = started;
    }

    /// Is this (site, attempt) event about the job's current in-flight
    /// attempt? Events outlived by an outage kill are stale.
    fn is_current(&self, ji: usize, si: usize, attempt: u32) -> bool {
        let st = &self.states[ji];
        !st.done
            && !st.abandoned
            && st.attempt == attempt
            && matches!(st.running, Some((s, _)) if s == si)
    }

    fn handle_finish(&mut self, si: usize, ji: usize, attempt: u32, now: f64) {
        if !self.is_current(ji, si, attempt) {
            return;
        }
        let job = &self.campaign.jobs[ji];
        let site = &self.campaign.federation.sites[si];
        let (_, start) = self.states[ji]
            .running
            .take()
            .expect("current attempt must be running");
        self.schedulers[si].finish(ji as u32);
        if self.telemetry.is_enabled() {
            self.job_tracks[ji].exit_at("grid.attempt", sim_ticks(now));
            self.job_tracks[ji].instant_at(
                "grid.complete",
                sim_ticks(now),
                vec![("attempts", attempt.to_string())],
            );
            self.telemetry.counter("grid.jobs_completed").incr();
        }
        let st = &mut self.states[ji];
        // A clean finish completed exactly the remaining work (plus its
        // checkpoint overhead) — accounted as such, so a failure-free job
        // has bit-exact zero lost CPU-hours.
        let gross = self.policy.checkpoint.gross_hours(st.remaining);
        st.consumed_ref_cpu_h += gross * f64::from(job.procs);
        st.remaining = 0.0;
        st.done = true;
        self.backlog_cpu_h[si] -= st.backlog_contrib;
        st.backlog_contrib = 0.0;
        let lost = (st.consumed_ref_cpu_h - job.cpu_hours()).max(0.0);
        self.records.push(JobRecord {
            job: job.id,
            site: site.id,
            submitted: job.release_hours,
            started: start,
            finished: now,
            procs: job.procs,
            attempts: attempt,
            lost_cpu_hours: lost,
        });
        self.jobs_per_site[si] += 1;
        self.try_start_site(si, now);
    }

    fn handle_fail(&mut self, si: usize, ji: usize, attempt: u32, kind: FailureKind, now: f64) {
        if !self.is_current(ji, si, attempt) {
            return;
        }
        let (_, start) = self.states[ji]
            .running
            .take()
            .expect("current attempt must be running");
        self.schedulers[si].preempt(ji as u32);
        if self.telemetry.is_enabled() {
            self.job_tracks[ji].exit_at("grid.attempt", sim_ticks(now));
        }
        self.fail_attempt(ji, si, now, kind, now - start);
        self.try_start_site(si, now);
    }

    /// Common failure path: checkpoint accounting, blacklist update,
    /// failure log, and either a backed-off resubmission or abandonment.
    /// `elapsed_onsite` is how long the attempt ran (0 for launch
    /// failures and evicted queued jobs).
    fn fail_attempt(
        &mut self,
        ji: usize,
        si: usize,
        now: f64,
        kind: FailureKind,
        elapsed_onsite: f64,
    ) {
        let job = &self.campaign.jobs[ji];
        let site = &self.campaign.federation.sites[si];
        let gross_done = elapsed_onsite * site.speed;
        let st = &mut self.states[ji];
        let work_before = st.remaining;
        let saved = self
            .policy
            .checkpoint
            .saved_progress(gross_done, work_before);
        #[cfg(feature = "audit")]
        crate::audit::check_restart_progress(job.id, saved, work_before);
        st.remaining = work_before - saved;
        let lost_cpu = gross_done * f64::from(job.procs);
        st.consumed_ref_cpu_h += lost_cpu;
        st.add_failure(si);
        self.backlog_cpu_h[si] -= st.backlog_contrib;
        st.backlog_contrib = 0.0;
        let failed_attempt = st.attempt;
        self.failures.push(FailureEvent {
            job: job.id,
            site: site.id,
            attempt: failed_attempt,
            time: now,
            kind,
            lost_cpu_hours: lost_cpu,
            saved_hours: saved,
        });
        if self.telemetry.is_enabled() {
            let track = &self.job_tracks[ji];
            track.instant_at(
                "grid.failure",
                sim_ticks(now),
                vec![
                    ("kind", kind.label().to_string()),
                    ("site", site.name.clone()),
                    ("attempt", failed_attempt.to_string()),
                    ("lost_cpu_hours", format!("{lost_cpu:.3}")),
                    ("saved_hours", format!("{saved:.3}")),
                ],
            );
            self.telemetry.counter("grid.failures").incr();
            self.telemetry.counter(kind.failures_counter()).incr();
            if saved > 0.0 {
                track.instant_at(
                    "grid.checkpoint_restore",
                    sim_ticks(now),
                    vec![("saved_hours", format!("{saved:.3}"))],
                );
                self.telemetry.counter("grid.checkpoint_restores").incr();
            }
        }
        // Retries used so far = failed_attempt - 1; abandon when the
        // bound is spent, otherwise resubmit after backoff.
        if failed_attempt > self.policy.retry.max_retries {
            st.abandoned = true;
            self.abandoned.push(job.id);
            if self.telemetry.is_enabled() {
                self.job_tracks[ji].instant_at("grid.abandoned", sim_ticks(now), Vec::new());
                self.telemetry.counter("grid.abandoned").incr();
            }
        } else {
            st.attempt = failed_attempt + 1;
            self.total_retries += 1;
            if self.telemetry.is_enabled() {
                self.job_tracks[ji].instant_at(
                    "grid.retry",
                    sim_ticks(now),
                    vec![("next_attempt", (failed_attempt + 1).to_string())],
                );
                self.telemetry.counter("grid.retries").incr();
            }
            #[cfg(feature = "audit")]
            crate::audit::check_retry_bound(job.id, st.attempt - 1, self.policy.retry.max_retries);
            let delay = self.policy.retry.backoff_hours(failed_attempt);
            self.sched(now + delay, Ev::Submit(ji as u32));
            #[cfg(feature = "audit")]
            {
                self.pending_submits += 1;
            }
        }
    }

    fn handle_outage_start(&mut self, oi: usize, now: f64) {
        let outage = self.campaign.outages[oi];
        let Some(si) = self.site_index(outage.site) else {
            return; // outage for a site outside a restricted federation
        };
        self.schedulers[si].set_down_until(outage.end);
        self.sched(outage.end.max(now), Ev::OutageEnd(si as u32));
        if self.telemetry.is_enabled() {
            self.campaign_track.instant_at(
                "grid.outage",
                sim_ticks(now),
                vec![("site", self.campaign.federation.sites[si].name.clone())],
            );
        }
        if self.policy.outage == OutagePolicy::Kill {
            // Scheduler ids are campaign indices: no reverse lookup needed.
            for (jid, _procs) in self.schedulers[si].kill_running() {
                let ji = jid as usize;
                let (_, start) = self.states[ji]
                    .running
                    .take()
                    .expect("killed job must be tracked as running");
                if self.telemetry.is_enabled() {
                    self.job_tracks[ji].exit_at("grid.attempt", sim_ticks(now));
                }
                self.fail_attempt(ji, si, now, FailureKind::OutageKill, now - start);
            }
            for jid in self.schedulers[si].evict_queued() {
                self.fail_attempt(jid as usize, si, now, FailureKind::OutageKill, 0.0);
            }
        }
    }

    /// Register `n` poke-chain arrivals at `(t, si)` without putting `n`
    /// events on the heap.
    ///
    /// The seed engine keeps one poke chain alive per submission, and on
    /// a saturated site every chain converges onto the same next target
    /// (the site's next finish, else the chain's next hourly tick), so
    /// its queue fills with events identical in `(time, site)` — that
    /// multiplicity is where the O(jobs × finish-epochs) event blow-up
    /// lives. Here each arrival only bumps the virtual sequence counter
    /// and lands in `poke_pending`; a physical `Ev::Poke` marker is
    /// scheduled once per distinct time, carrying the first arrival's
    /// stamp, purely so the clock is guaranteed to reach that instant.
    /// The run loop drains pending arrivals in global `(time, vseq)`
    /// order interleaved with the physical events' own stamps — the
    /// seed's exact pop order, including ties between chain pokes and
    /// same-time finish/fail/submit events (integer-anchored outage and
    /// release times make such exact f64 ties real). See DESIGN.md §13.
    fn schedule_pokes(&mut self, si: usize, t: f64, n: u32) {
        debug_assert!(n > 0);
        let first = self.vseq + 1;
        self.vseq += u64::from(n);
        // Merge into the immediately preceding block at the same (time,
        // site) when no physical event's stamp sits in the gap between
        // the two stamp ranges: with nothing to interleave, the seed
        // would pop the two runs back to back, so one block replays them
        // identically. Without this, every chain funnelling onto a
        // saturated site's next finish keeps its own block and the drain
        // walks O(chain-hops) map entries — the seed's quadratic
        // multiplicity smuggled back in as map traffic. The agenda's map
        // is the whole gap index: releases carry the smallest stamps of
        // the run, so no block's gap can hold one.
        let pred = self
            .poke_pending
            .range(..(t.to_bits(), first))
            .next_back()
            .map(|(&k, &v)| (k, v));
        if let Some(((p_t, p_first), (p_si, p_count))) = pred {
            if p_t == t.to_bits()
                && p_si == si as u32
                && !self
                    .agenda
                    .scheduled_within(t, p_first + u64::from(p_count)..first)
            {
                self.poke_pending
                    .get_mut(&(p_t, p_first))
                    .expect("predecessor block just read")
                    .1 += n;
                return;
            }
        }
        self.poke_pending
            .insert((t.to_bits(), first), (si as u32, n));
        // One marker per distinct instant: look for a pending one at
        // exactly `t`. `t` may equal the clock (a site with no
        // background queue wait pokes at `now`), so this cannot be read
        // off `poke_pending`.
        if !self.agenda.scheduled_at(t).any(|&ev| ev == Ev::Poke) {
            self.agenda
                .schedule(SimTime::from_hours(t), first, Ev::Poke);
        }
    }

    /// Replay `count` consecutive chain steps at `(si, now)`, verbatim
    /// seed semantics per step: attempt starts, then keep the chain
    /// alive while work is queued — re-poke at the next finish when
    /// something runs, else hourly. Once a step starts nothing, the site
    /// state is a fixed point: every remaining step would make the same
    /// queued/target decision, so they collapse into one bulk
    /// re-registration — that O(1) collapse is what keeps total work
    /// near-linear even though the seed's chain-step count is quadratic.
    fn replay_pokes(&mut self, si: usize, now: f64, count: u32) {
        let mut left = count;
        while left > 0 {
            left -= 1;
            self.try_start_site(si, now);
            let stable = self.started_buf.is_empty();
            let steps = if stable { left + 1 } else { 1 };
            if self.schedulers[si].queued() > 0 {
                match self.schedulers[si].next_finish().filter(|&(_, f)| f > now) {
                    Some((_, f)) => self.schedule_pokes(si, f, steps),
                    None => self.schedule_pokes(si, now + 1.0, steps),
                }
            }
            if stable {
                break;
            }
        }
    }

    /// Replay every pending poke arrival that the seed engine would pop
    /// before the next physical event, in the seed's exact order.
    ///
    /// Pending blocks are stamp-ranges; physical events carry single
    /// stamps allocated outside every range, so `(time, stamp)` order
    /// totally orders all logical events exactly like the seed queue's
    /// `(time, seq)` tie-breaker. A block whose range straddles a
    /// same-time physical event's stamp is split at that stamp: the
    /// seed would interleave that event (it may re-submit to the site,
    /// un-fixing the chain's fixed point), so only the prefix replays
    /// now and the remainder re-enters the map to run after it.
    fn drain_due_pokes(&mut self) {
        loop {
            let Some((&(t_bits, first), &(si, count))) = self.poke_pending.first_key_value() else {
                return;
            };
            let budget = match self.agenda.peek() {
                None => count,
                Some((nt_bits, nv)) => {
                    if (t_bits, first) >= (nt_bits, nv) {
                        return; // the physical event precedes every pending poke
                    }
                    if nt_bits == t_bits {
                        count.min(u32::try_from(nv - first).unwrap_or(u32::MAX))
                    } else {
                        count
                    }
                }
            };
            self.poke_pending.pop_first();
            if budget < count {
                self.poke_pending
                    .insert((t_bits, first + u64::from(budget)), (si, count - budget));
            }
            self.replay_pokes(si as usize, f64::from_bits(t_bits), budget);
            #[cfg(feature = "audit")]
            self.audit_job_conservation();
        }
    }

    /// Every job handed to the federation is accounted for exactly once:
    /// awaiting (re)submission, queued at a site, running, done, or
    /// abandoned.
    #[cfg(feature = "audit")]
    fn audit_job_conservation(&self) {
        let queued: usize = self.schedulers.iter().map(SiteScheduler::queued).sum();
        let running = self.states.iter().filter(|s| s.running.is_some()).count();
        let done = self.states.iter().filter(|s| s.done).count();
        let abandoned = self.states.iter().filter(|s| s.abandoned).count();
        let total = self.pending_submits + queued + running + done + abandoned;
        if total != self.campaign.jobs.len() {
            // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
            panic!(
                "spice-audit[gridsim.job_conservation]: {} jobs but {} \
                 accounted for ({} pending + {queued} queued + {running} \
                 running + {done} done + {abandoned} abandoned)",
                self.campaign.jobs.len(),
                total,
                self.pending_submits,
            );
        }
    }

    /// Open the campaign span and schedule the initial event population.
    /// Called exactly once per campaign — a thawed engine must *not* call
    /// it again (the restored queue and telemetry stream already contain
    /// everything the prologue produces).
    pub(crate) fn prologue(&mut self) {
        self.campaign_track.enter_at("grid.campaign", 0);
        // Outage starts are released before submissions so a site that
        // is down at t=0 is already down when the first dispatch runs.
        // The agenda stamps the i-th release i + 1, which is the stamp
        // `sched` would give it: `release_ev` inverts that numbering.
        assert_eq!(self.vseq, 0, "the prologue runs once, on a fresh engine");
        let releases = release_times(self.campaign);
        self.vseq = releases.len() as u64;
        self.agenda.schedule_releases(releases);
        #[cfg(feature = "audit")]
        {
            self.pending_submits += self.campaign.jobs.len();
        }
    }

    /// Drain due pokes, then resolve one physical event. Returns `false`
    /// when the queue is exhausted and the campaign is complete. The
    /// state between two `step` calls is an *event boundary*: everything
    /// observable is a pure function of the engine fields, which is what
    /// makes [`Engine::encode`] at this point sufficient for bit-exact
    /// resumption.
    pub(crate) fn step(&mut self) -> bool {
        self.drain_due_pokes();
        let Some((t, stamp, ev)) = self.agenda.pop() else {
            return false;
        };
        let ev = ev
            .or_else(|| release_ev(self.campaign, stamp))
            .expect("the release run holds only prologue stamps");
        let now = t.hours();
        self.events_processed += 1;
        if self.telemetry.is_enabled() {
            let ticks = sim_ticks(now);
            self.campaign_track.tick(ticks);
            self.des_events.incr();
            self.telemetry.probe(ProbePoint::DesEvent, ticks, now);
        }
        match ev {
            Ev::Submit(ji) => self.handle_submit(ji as usize, now),
            Ev::Finish { si, ji, attempt } => {
                self.handle_finish(si as usize, ji as usize, attempt, now);
            }
            Ev::Fail {
                si,
                ji,
                attempt,
                kind,
            } => self.handle_fail(si as usize, ji as usize, attempt, kind, now),
            Ev::OutageStart(oi) => self.handle_outage_start(oi as usize, now),
            Ev::OutageEnd(si) => self.replay_pokes(si as usize, now, 1),
            Ev::Poke => {
                // Wakeup marker: its chain steps drain from
                // `poke_pending` in stamp order around it; popping it
                // frees its instant for the next marker.
            }
        }
        #[cfg(feature = "audit")]
        self.audit_job_conservation();
        true
    }

    /// Events resolved so far — the durability layer's checkpoint cadence
    /// and crash-injection counter.
    pub(crate) fn events(&self) -> u64 {
        self.events_processed
    }

    fn run(mut self) -> (ResilientResult, EngineStats) {
        self.prologue();
        while self.step() {}
        self.epilogue()
    }

    /// Close out a finished replay: invariant checks, stats, gauges, the
    /// campaign-span exit, and the assembled [`ResilientResult`].
    pub(crate) fn epilogue(self) -> (ResilientResult, EngineStats) {
        debug_assert!(
            self.poke_pending.is_empty(),
            "pending pokes must all drain before the campaign ends"
        );

        assert_eq!(
            self.records.len() + self.abandoned.len(),
            self.campaign.jobs.len(),
            "resilient DES lost jobs: {} completed + {} abandoned of {}",
            self.records.len(),
            self.abandoned.len(),
            self.campaign.jobs.len()
        );

        let stats = EngineStats {
            events_processed: self.events_processed,
            event_queue_peak: self.agenda.peak_len(),
            site_queue_peak: self
                .schedulers
                .iter()
                .map(SiteScheduler::peak_queued)
                .max()
                .unwrap_or(0),
        };
        if self.telemetry.is_enabled() {
            self.telemetry
                .set_gauge("grid.events_processed", stats.events_processed as f64);
            self.telemetry
                .set_gauge("grid.event_queue_peak", stats.event_queue_peak as f64);
            self.telemetry
                .set_gauge("grid.site_queue_peak", stats.site_queue_peak as f64);
        }
        // Close the span prologue() opened. The exit stamp is the track
        // clock (the last event's tick) — exactly what the old RAII guard
        // recorded when it dropped at the end of the replay.
        self.campaign_track
            .exit_at("grid.campaign", self.campaign_track.clock());

        let goodput: f64 = self
            .states
            .iter()
            .zip(&self.campaign.jobs)
            .filter(|(s, _)| s.done)
            .map(|(_, j)| j.cpu_hours())
            .sum();
        let consumed: f64 = self.states.iter().map(|s| s.consumed_ref_cpu_h).sum();
        let makespan = self
            .records
            .iter()
            .map(|r| r.finished)
            .fold(0.0f64, f64::max);
        let cpu_hours = self.records.iter().map(JobRecord::cpu_hours).sum();
        let result = ResilientResult {
            result: CampaignResult {
                records: self.records,
                makespan_hours: makespan,
                cpu_hours,
                jobs_per_site: self
                    .campaign
                    .federation
                    .sites
                    .iter()
                    .zip(&self.jobs_per_site)
                    .map(|(s, &n)| (s.id, n))
                    .collect(),
            },
            failures: self.failures,
            abandoned: self.abandoned,
            goodput_cpu_hours: goodput,
            badput_cpu_hours: (consumed - goodput).max(0.0),
            total_retries: self.total_retries,
        };
        (result, stats)
    }

    /// Append the complete evolving state of the replay at an event
    /// boundary (between two [`Engine::step`] calls) to a snapshot
    /// payload, straight from the live fields — no intermediate copy.
    /// Everything *not* written — the release run, site indexes, outage
    /// windows, connectivity tables, the fit cache, scratch buffers,
    /// telemetry handles — is a pure function of the campaign/policy/
    /// dispatch inputs and is rebuilt by [`EngineImage::decode`] and
    /// [`Engine::thaw`]. The write order *is* the on-disk payload layout,
    /// read back by [`EngineImage::decode`]; any change to it must bump
    /// the snapshot format version in [`crate::durability`].
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.put_u64(self.events_processed);
        self.agenda.encode(e, |e, &ev| encode_ev(e, ev));
        e.put_u64(self.vseq);
        e.put_usize(self.poke_pending.len());
        for (&(t_bits, first), &(si, count)) in &self.poke_pending {
            e.put_u64(t_bits);
            e.put_u64(first);
            e.put_u32(si);
            e.put_u32(count);
        }
        e.put_usize(self.states.len());
        for st in &self.states {
            st.encode(e);
        }
        e.put_usize(self.records.len());
        for r in &self.records {
            e.put_u32(r.job);
            e.put_u32(r.site);
            e.put_f64(r.submitted);
            e.put_f64(r.started);
            e.put_f64(r.finished);
            e.put_u32(r.procs);
            e.put_u32(r.attempts);
            e.put_f64(r.lost_cpu_hours);
        }
        e.put_usize(self.failures.len());
        for f in &self.failures {
            e.put_u32(f.job);
            e.put_u32(f.site);
            e.put_u32(f.attempt);
            e.put_f64(f.time);
            e.put_u8(failure_kind_tag(f.kind));
            e.put_f64(f.lost_cpu_hours);
            e.put_f64(f.saved_hours);
        }
        e.put_usize(self.abandoned.len());
        for &j in &self.abandoned {
            e.put_u32(j);
        }
        e.put_usize(self.jobs_per_site.len());
        for &n in &self.jobs_per_site {
            e.put_usize(n);
        }
        e.put_usize(self.backlog_cpu_h.len());
        for &b in &self.backlog_cpu_h {
            e.put_f64(b);
        }
        e.put_usize(self.rr_cursor);
        e.put_u32(self.total_retries);
        e.put_usize(self.schedulers.len());
        for s in &self.schedulers {
            s.encode(e);
        }
    }

    /// Rebuild a mid-campaign engine from an [`EngineImage`] decoded for
    /// this campaign. The policy and dispatch must be the ones the
    /// snapshot was encoded from (the durability layer enforces this
    /// with a configuration fingerprint). A thawed engine must *not* run
    /// [`Engine::prologue`] — the restored agenda already holds the
    /// initial event population's unpopped remainder.
    pub(crate) fn thaw(
        campaign: &'a Campaign,
        policy: &'a ResiliencePolicy,
        dispatch: DispatchPolicy,
        telemetry: &Telemetry,
        img: EngineImage,
    ) -> Engine<'a> {
        Engine {
            events_processed: img.events_processed,
            agenda: img.agenda,
            vseq: img.vseq,
            poke_pending: img.poke_pending,
            states: img.states,
            records: img.records,
            failures: img.failures,
            abandoned: img.abandoned,
            jobs_per_site: img.jobs_per_site,
            backlog_cpu_h: img.backlog_cpu_h,
            rr_cursor: img.rr_cursor,
            total_retries: img.total_retries,
            schedulers: img.schedulers,
            #[cfg(feature = "audit")]
            pending_submits: img.pending_submits,
            ..Engine::new(campaign, policy, dispatch, telemetry)
        }
    }
}

fn failure_kind_tag(kind: FailureKind) -> u8 {
    match kind {
        FailureKind::LaunchFailure => 0,
        FailureKind::NodeCrash => 1,
        FailureKind::GatewayDrop => 2,
        FailureKind::OutageKill => 3,
    }
}

fn failure_kind_from(tag: u8) -> Result<FailureKind, DurabilityError> {
    Ok(match tag {
        0 => FailureKind::LaunchFailure,
        1 => FailureKind::NodeCrash,
        2 => FailureKind::GatewayDrop,
        3 => FailureKind::OutageKill,
        t => {
            return Err(DurabilityError::Corrupt(format!(
                "invalid failure-kind tag {t}"
            )))
        }
    })
}

fn encode_ev(e: &mut Enc, ev: Ev) {
    match ev {
        Ev::Submit(ji) => {
            e.put_u8(0);
            e.put_u32(ji);
        }
        Ev::Finish { si, ji, attempt } => {
            e.put_u8(1);
            e.put_u32(si);
            e.put_u32(ji);
            e.put_u32(attempt);
        }
        Ev::Fail {
            si,
            ji,
            attempt,
            kind,
        } => {
            e.put_u8(2);
            e.put_u32(si);
            e.put_u32(ji);
            e.put_u32(attempt);
            e.put_u8(failure_kind_tag(kind));
        }
        Ev::OutageStart(oi) => {
            e.put_u8(3);
            e.put_u32(oi);
        }
        Ev::OutageEnd(si) => {
            e.put_u8(4);
            e.put_u32(si);
        }
        Ev::Poke => e.put_u8(5),
    }
}

/// Read what [`encode_ev`] wrote; a job, site or outage index past the
/// campaign's is `Corrupt`.
fn decode_ev(d: &mut Dec<'_>, campaign: &Campaign) -> Result<Ev, DurabilityError> {
    let (jobs, sites) = (campaign.jobs.len(), campaign.federation.sites.len());
    Ok(match d.take_u8()? {
        0 => Ev::Submit(d.take_index(jobs, "job")?),
        1 => Ev::Finish {
            si: d.take_index(sites, "site")?,
            ji: d.take_index(jobs, "job")?,
            attempt: d.take_u32()?,
        },
        2 => Ev::Fail {
            si: d.take_index(sites, "site")?,
            ji: d.take_index(jobs, "job")?,
            attempt: d.take_u32()?,
            kind: failure_kind_from(d.take_u8()?)?,
        },
        3 => Ev::OutageStart(d.take_index(campaign.outages.len(), "outage")?),
        4 => Ev::OutageEnd(d.take_index(sites, "site")?),
        5 => Ev::Poke,
        t => return Err(DurabilityError::Corrupt(format!("invalid event tag {t}"))),
    })
}

/// A list the campaign sizes: one item per job, or one per site.
fn sized<T>(items: Vec<T>, expected: usize, what: &str) -> Result<Vec<T>, DurabilityError> {
    if items.len() == expected {
        Ok(items)
    } else {
        Err(DurabilityError::Corrupt(format!(
            "{} {what} in a campaign of {expected}",
            items.len()
        )))
    }
}

/// The evolving state of a resilient replay as decoded from a snapshot
/// payload ([`Engine::encode`] wrote it), consumed by [`Engine::thaw`].
/// Restore-only: it lets recovery reject a candidate file completely
/// before [`Engine::new`] registers tracks on the campaign's telemetry.
#[derive(Debug)]
pub(crate) struct EngineImage {
    events_processed: u64,
    agenda: Agenda<Ev>,
    vseq: u64,
    poke_pending: BTreeMap<(u64, u64), (u32, u32)>,
    states: Vec<JobState>,
    records: Vec<JobRecord>,
    failures: Vec<FailureEvent>,
    abandoned: Vec<JobId>,
    jobs_per_site: Vec<usize>,
    backlog_cpu_h: Vec<f64>,
    rr_cursor: usize,
    total_retries: u32,
    schedulers: Vec<SiteScheduler>,
    /// The audit ledger, recomputed rather than serialized, so snapshot
    /// bytes are identical with and without the audit feature.
    #[cfg(feature = "audit")]
    pending_submits: usize,
}

impl EngineImage {
    /// Events resolved when the snapshot was encoded — names the
    /// snapshot's generation.
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Decode an image of a replay of `campaign` from the payload layout
    /// [`Engine::encode`] writes, rebuilding the release run from the
    /// campaign. Every structural violation is a
    /// [`DurabilityError::Corrupt`]: so are per-job and per-site lists
    /// that do not match the campaign, every time that the restored
    /// engine would hold as a [`SimTime`] but is not one, and every job,
    /// site or outage index it would dereference that lies past the
    /// campaign's lists. Past that, the replay trusts the in-range facts
    /// of a payload that passes its checksum to agree with one another.
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        campaign: &Campaign,
    ) -> Result<EngineImage, DurabilityError> {
        let (jobs, sites) = (campaign.jobs.len(), campaign.federation.sites.len());
        let img = EngineImage {
            events_processed: d.take_u64()?,
            // An entry's payload is at least an event tag.
            agenda: Agenda::decode(d, release_times(campaign), 1, |d| decode_ev(d, campaign))?,
            vseq: d.take_u64()?,
            poke_pending: d
                .take_vec(24, |d| {
                    Ok((
                        (d.take_u64()?, d.take_u64()?),
                        (d.take_index(sites, "site")?, d.take_u32()?),
                    ))
                })?
                .into_iter()
                .collect(),
            states: sized(
                d.take_vec(40, |d| JobState::decode(d, sites))?,
                jobs,
                "job states",
            )?,
            records: d.take_vec(44, |d| {
                Ok(JobRecord {
                    job: d.take_u32()?,
                    site: d.take_u32()?,
                    submitted: d.take_f64()?,
                    started: d.take_f64()?,
                    finished: d.take_f64()?,
                    procs: d.take_u32()?,
                    attempts: d.take_u32()?,
                    lost_cpu_hours: d.take_f64()?,
                })
            })?,
            failures: d.take_vec(37, |d| {
                Ok(FailureEvent {
                    job: d.take_u32()?,
                    site: d.take_u32()?,
                    attempt: d.take_u32()?,
                    time: d.take_f64()?,
                    kind: failure_kind_from(d.take_u8()?)?,
                    lost_cpu_hours: d.take_f64()?,
                    saved_hours: d.take_f64()?,
                })
            })?,
            abandoned: d.take_vec(4, Dec::take_u32)?,
            jobs_per_site: sized(d.take_vec(8, Dec::take_usize)?, sites, "site job counts")?,
            backlog_cpu_h: sized(d.take_vec(8, Dec::take_f64)?, sites, "site backlogs")?,
            rr_cursor: d.take_usize()?,
            total_retries: d.take_u32()?,
            schedulers: sized(
                d.take_vec(33, |d| SiteScheduler::decode(d, jobs))?,
                sites,
                "site schedulers",
            )?,
            #[cfg(feature = "audit")]
            pending_submits: 0,
        };
        // Every job not queued, running, done or abandoned awaits a
        // (re)submission; a payload that places more jobs than the
        // campaign holds cannot have come from a replay of it.
        #[cfg(feature = "audit")]
        let img = {
            let mut img = img;
            let queued: usize = img.schedulers.iter().map(SiteScheduler::queued).sum();
            let running = img.states.iter().filter(|s| s.running.is_some()).count();
            let done = img.states.iter().filter(|s| s.done).count();
            let abandoned = img.states.iter().filter(|s| s.abandoned).count();
            let placed = queued + running + done + abandoned;
            img.pending_submits = jobs.checked_sub(placed).ok_or_else(|| {
                DurabilityError::Corrupt(format!("{placed} jobs placed in a campaign of {jobs}"))
            })?;
            img
        };
        Ok(img)
    }
}

/// Execute a campaign under a resilience policy with the greedy
/// dispatcher. Deterministic under the campaign seed.
///
/// With an enabled `telemetry`, the replay runs under a `grid.campaign`
/// span on the `("grid.campaign", seed)` track (its logical clock is
/// simulated milliseconds), each job attempt is a `grid.attempt` span on
/// that job's `("grid.job", id)` track, and failures, retries, checkpoint
/// restores, abandonments and outages land as tagged instants. Every
/// popped DES event fires the `DesEvent` probe. The result is
/// bit-identical with `Telemetry::disabled()`.
pub fn run_resilient(
    campaign: &Campaign,
    policy: &ResiliencePolicy,
    telemetry: &Telemetry,
) -> ResilientResult {
    run_resilient_with_stats(
        campaign,
        policy,
        DispatchPolicy::EarliestCompletion,
        telemetry,
    )
    .0
}

/// [`run_resilient`] with an explicit dispatch policy, returning the
/// replay *and* the engine's own scale counters ([`EngineStats`]):
/// events processed, the global event-queue high-water mark and the
/// deepest per-site batch queue. e2ebench's `des_large` and
/// `durable_10k` workloads call it.
pub fn run_resilient_with_stats(
    campaign: &Campaign,
    policy: &ResiliencePolicy,
    dispatch: DispatchPolicy,
    telemetry: &Telemetry,
) -> (ResilientResult, EngineStats) {
    assert!(!campaign.jobs.is_empty(), "campaign has no jobs");
    assert!(
        !campaign.federation.sites.is_empty(),
        "campaign has no sites"
    );
    Engine::new(campaign, policy, dispatch, telemetry).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{Outage, OutageCause};

    #[test]
    fn checkpoint_arithmetic() {
        let ck = CheckpointPolicy::periodic(1.0, 0.05);
        assert_eq!(ck.checkpoints_during(8.0), 7);
        assert_eq!(ck.checkpoints_during(8.5), 8);
        assert_eq!(ck.checkpoints_during(0.5), 0);
        assert_eq!(ck.checkpoints_during(1.0), 0);
        assert!((ck.gross_hours(8.0) - 8.35).abs() < 1e-12);
        // Killed 3.2 gross hours in: 3 checkpoints completed (1.05 each),
        // 3.0 h of progress saved.
        assert!((ck.saved_progress(3.2, 8.0) - 3.0).abs() < 1e-12);
        // Saved progress never reaches the full remaining work.
        assert!(ck.saved_progress(100.0, 8.0) < 8.0);
        assert_eq!(CheckpointPolicy::none().saved_progress(5.0, 8.0), 0.0);
        assert_eq!(CheckpointPolicy::none().gross_hours(8.0), 8.0);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = ResiliencePolicy::retry_only().retry;
        assert!((r.backoff_hours(1) - 0.25).abs() < 1e-12);
        assert!((r.backoff_hours(2) - 0.5).abs() < 1e-12);
        assert!((r.backoff_hours(3) - 1.0).abs() < 1e-12);
        let naive = ResiliencePolicy::naive().retry;
        assert!((naive.backoff_hours(5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn failure_free_policy_matches_plain_des() {
        let c = Campaign::paper_batch_phase(11);
        let plain = crate::des::run_des(&c);
        let resilient = run_resilient(&c, &ResiliencePolicy::none(), &Telemetry::disabled());
        assert_eq!(plain, resilient.result);
        assert!(resilient.failures.is_empty());
        assert!(resilient.abandoned.is_empty());
        assert_eq!(resilient.total_retries, 0);
        assert!(resilient.badput_cpu_hours.abs() < 1e-6);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let mut c = Campaign::paper_batch_phase(5);
        c.outages = vec![Outage::security_breach(3, 24.0, 2.0)];
        for policy in [
            ResiliencePolicy::naive(),
            ResiliencePolicy::retry_only(),
            ResiliencePolicy::checkpoint_failover(),
        ] {
            let a = run_resilient(&c, &policy, &Telemetry::disabled());
            let b = run_resilient(&c, &policy, &Telemetry::disabled());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn failures_actually_occur_and_are_recovered() {
        let c = Campaign::paper_batch_phase(5);
        let r = run_resilient(
            &c,
            &ResiliencePolicy::checkpoint_failover(),
            &Telemetry::disabled(),
        );
        assert!(!r.failures.is_empty(), "sc05 model must produce failures");
        assert_eq!(r.result.records.len(), 72, "all jobs must complete");
        assert!(r.total_retries > 0);
        assert!(r.badput_cpu_hours > 0.0);
        assert!((r.goodput_cpu_hours - 75_000.0).abs() < 2_000.0);
        assert!(r.completion_fraction() > 0.999);
        // Records carry the attempt accounting.
        assert!(r.result.records.iter().any(|rec| rec.attempts > 1));
        let retries: u32 = r.result.records.iter().map(JobRecord::retries).sum();
        assert_eq!(retries, r.total_retries);
    }

    #[test]
    fn kill_outage_terminates_in_flight_work() {
        // A mid-campaign outage under Kill produces OutageKill failures;
        // under Drain it does not.
        let mut c = Campaign::paper_batch_phase(9);
        c.outages = vec![Outage::new(0, 20.0, 80.0, OutageCause::Hardware)];
        let mut kill = ResiliencePolicy::retry_only();
        kill.failures = FailureModel::none();
        let killed = run_resilient(&c, &kill, &Telemetry::disabled());
        assert!(
            killed
                .failures
                .iter()
                .any(|f| f.kind == FailureKind::OutageKill && f.site == 0),
            "kill policy must terminate NCSA's in-flight work"
        );
        let mut drain = kill;
        drain.outage = OutagePolicy::Drain;
        let drained = run_resilient(&c, &drain, &Telemetry::disabled());
        assert!(drained.failures.is_empty());
        assert_eq!(drained.result.records.len(), 72);
    }

    #[test]
    fn checkpointing_reduces_badput_under_crashy_sites() {
        // Crash-dominated environment (MTBF 4 h, jobs ~8 h): restarting
        // from scratch re-executes lost segments over and over, while
        // hourly checkpoints bound each loss to about a segment. The
        // checkpoint overhead paid on every job must be repaid many times
        // over.
        let c = Campaign::paper_batch_phase(13);
        let crashy = FailureModel {
            p_launch: 0.0,
            p_launch_immature: 0.0,
            crash_rate_per_hour: 0.25,
            gateway_drop_rate_per_hour: 0.0,
        };
        let mut scratch = ResiliencePolicy::retry_only();
        scratch.failures = crashy;
        scratch.retry.max_retries = 100;
        scratch.retry.backoff_factor = 1.0;
        let mut ckpt = ResiliencePolicy::checkpoint_failover();
        ckpt.failures = crashy;
        ckpt.retry.max_retries = 100;
        ckpt.retry.backoff_factor = 1.0;
        let a = run_resilient(&c, &scratch, &Telemetry::disabled());
        let b = run_resilient(&c, &ckpt, &Telemetry::disabled());
        assert!(!a.failures.is_empty() && !b.failures.is_empty());
        let saved_b: f64 = b.failures.iter().map(|f| f.saved_hours).sum();
        assert!(saved_b > 0.0, "checkpoints must save progress");
        assert_eq!(b.result.records.len(), 72);
        assert!(
            b.badput_cpu_hours < a.badput_cpu_hours,
            "checkpointing must cut badput: {} vs {}",
            b.badput_cpu_hours,
            a.badput_cpu_hours
        );
        assert!(
            b.result.makespan_hours < a.result.makespan_hours,
            "checkpointing must cut makespan: {} vs {}",
            b.result.makespan_hours,
            a.result.makespan_hours
        );
    }

    #[test]
    fn bounded_retries_abandon_jobs_on_a_dead_federation() {
        // One site, permanently failing launches: jobs exhaust retries
        // and are abandoned — the engine still terminates and accounts
        // for every job.
        let mut c = Campaign::paper_batch_phase(3);
        c.federation = crate::federation::Federation::paper_us_uk().restricted(&[0]);
        c.jobs.truncate(8);
        let mut policy = ResiliencePolicy::retry_only();
        policy.retry.max_retries = 3;
        policy.failures = FailureModel {
            p_launch: 1.0,
            p_launch_immature: 1.0,
            crash_rate_per_hour: 0.0,
            gateway_drop_rate_per_hour: 0.0,
        };
        let r = run_resilient(&c, &policy, &Telemetry::disabled());
        assert!(r.result.records.is_empty());
        assert_eq!(r.abandoned.len(), 8);
        assert_eq!(r.completion_fraction(), 0.0);
        // Every job used exactly max_retries resubmissions.
        assert_eq!(r.total_retries, 8 * 3);
        for f in &r.failures {
            assert!(f.attempt <= policy.retry.max_retries + 1);
        }
    }

    #[test]
    fn coupled_jobs_avoid_infeasible_sites() {
        // Steering-coupled jobs can never land on HPCx (hidden, no
        // gateway); gateway drops show up only on gateway-routed sites.
        let mut c = Campaign::paper_batch_phase(7);
        for j in c.jobs.iter_mut() {
            j.coupled = true;
        }
        let r = run_resilient(
            &c,
            &ResiliencePolicy::checkpoint_failover(),
            &Telemetry::disabled(),
        );
        let hpcx = 5;
        for rec in &r.result.records {
            assert_ne!(rec.site, hpcx, "coupled job completed on HPCx");
        }
        for f in &r.failures {
            assert_ne!(f.site, hpcx, "coupled job attempted on HPCx");
            if f.kind == FailureKind::GatewayDrop {
                assert_eq!(f.site, 2, "gateway drops only at PSC (the AGN site)");
            }
        }
    }

    #[test]
    fn naive_same_site_retry_never_migrates() {
        let mut c = Campaign::paper_batch_phase(21);
        c.outages = vec![Outage::security_breach(3, 12.0, 1.0)];
        let r = run_resilient(&c, &ResiliencePolicy::naive(), &Telemetry::disabled());
        // Each failed job's later attempts stay on the site of its first
        // attempt.
        for rec in &r.result.records {
            let sites: Vec<_> = r
                .failures
                .iter()
                .filter(|f| f.job == rec.job)
                .map(|f| f.site)
                .collect();
            for s in sites {
                assert_eq!(s, rec.site, "naive retry migrated job {}", rec.job);
            }
        }
    }

    fn encoded(engine: &Engine<'_>) -> Vec<u8> {
        let mut enc = Enc::new();
        engine.encode(&mut enc);
        enc.into_bytes()
    }

    fn decoded(bytes: &[u8], campaign: &Campaign) -> EngineImage {
        let mut dec = Dec::new(bytes);
        let img =
            EngineImage::decode(&mut dec, campaign).expect("decode a freshly encoded payload");
        dec.finish()
            .expect("the image consumes its payload exactly");
        img
    }

    #[test]
    fn snapshot_thaw_resumes_bit_identically_at_every_boundary_class() {
        // Encode at a spread of event indices (early, mid, late), decode,
        // thaw into a fresh engine and finish: the thawed engine encodes
        // to the same bytes, and its results are bit-identical to the
        // uninterrupted run — the acceptance property the whole
        // durability layer rests on.
        let mut c = Campaign::paper_batch_phase(5);
        c.outages = vec![Outage::security_breach(3, 24.0, 2.0)];
        let policy = ResiliencePolicy::checkpoint_failover();
        let t = Telemetry::disabled();
        let (baseline, base_stats) =
            run_resilient_with_stats(&c, &policy, DispatchPolicy::EarliestCompletion, &t);
        for kill_at in [1u64, 7, 100, 1000] {
            let mut live = Engine::new(&c, &policy, DispatchPolicy::EarliestCompletion, &t);
            live.prologue();
            while live.events() < kill_at && live.step() {}
            let bytes = encoded(&live);
            drop(live);
            let mut resumed = Engine::thaw(
                &c,
                &policy,
                DispatchPolicy::EarliestCompletion,
                &t,
                decoded(&bytes, &c),
            );
            assert_eq!(
                encoded(&resumed),
                bytes,
                "re-encoding after thaw at event {kill_at} changed the bytes"
            );
            while resumed.step() {}
            let (result, stats) = resumed.epilogue();
            assert_eq!(result, baseline, "diverged after thaw at event {kill_at}");
            assert_eq!(stats, base_stats, "stats diverged at event {kill_at}");
        }
    }

    #[test]
    fn engine_payload_round_trips_mid_campaign_state() {
        let mut c = Campaign::paper_batch_phase(17);
        c.outages = vec![Outage::security_breach(3, 24.0, 2.0)];
        let policy = ResiliencePolicy::retry_only();
        let t = Telemetry::disabled();
        let mut e = Engine::new(&c, &policy, DispatchPolicy::RoundRobin, &t);
        e.prologue();
        for _ in 0..150 {
            assert!(e.step(), "campaign ended before the snapshot point");
        }
        let bytes = encoded(&e);
        // Encoding is a pure function of the state: the engine thawed
        // from the decoded payload re-encodes to the same bytes.
        let back = Engine::thaw(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &t,
            decoded(&bytes, &c),
        );
        assert_eq!(encoded(&back), bytes);
        // Truncated payloads fail loudly, never panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut short = Dec::new(&bytes[..cut]);
            assert!(EngineImage::decode(&mut short, &c).is_err());
        }
    }
}
