//! Crash-safe checkpoint/restore of the resilient DES engine.
//!
//! The paper's campaign survived weeks of infrastructure failures; the
//! one component our reproduction assumed immortal was the campaign
//! manager itself. This module removes that assumption: a campaign run
//! through [`run_resilient_durable`] snapshots the *entire* live engine
//! — stamp-ordered event queue with pending poke blocks, per-site
//! scheduler heaps and free-processor counters, per-job attempt state,
//! accumulated records/failures/metrics, and the attached telemetry
//! stream — every `every_events` resolved events, and a fresh process
//! pointed at the same directory finishes the campaign **bit-identical**
//! to an uninterrupted run: same [`ResilientResult`] records, same
//! failure listing, same telemetry export, for every
//! `DispatchPolicy × ResiliencePolicy` combination. (The per-job RNG
//! streams are stateless functions of the campaign seed, so determinism
//! costs nothing extra to serialize.)
//!
//! Robustness properties, each exercised by the deterministic
//! crash-injection harness ([`CrashPlan`]):
//!
//! * snapshots are written atomically (temp sibling + flush + rename) —
//!   a crash mid-write never damages the previous generation set;
//! * every file carries a versioned header (magic, format version,
//!   generation, configuration fingerprint, payload length, XXH64
//!   checksum) so truncated, bit-flipped, renamed, mismatched or
//!   other-format files fail loudly with a typed [`DurabilityError`];
//! * recovery degrades gracefully: the newest *intact* generation wins,
//!   and every rejected newer file is reported (with its reason) in the
//!   [`RecoveryReport`].
//!
//! A snapshot is encoded straight from the live engine into one buffer
//! that the runner reuses across snapshots: no intermediate copy of the
//! engine, and no second copy of the payload behind the header.
//!
//! Checkpoint-subsystem activity (`checkpoint.write` with its
//! `checkpoint.encode` and `checkpoint.sync` children, and
//! `checkpoint.restore`) lands on the **separate** telemetry handle in
//! [`DurableConfig::telemetry`], never on the campaign handle — so the
//! campaign's own telemetry export stays bit-identical whether or not
//! the run was interrupted.

pub(crate) mod codec;
mod writer;

use crate::campaign::Campaign;
use crate::des::DispatchPolicy;
use crate::resilience::{Engine, EngineImage, EngineStats, ResiliencePolicy, ResilientResult};
use codec::{xxh64, Dec, Enc};
use spice_telemetry::{intern, EventKind, MetricValue, Telemetry};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// First 8 bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"SPICEDUR";
/// On-disk format version. Bump on any change to the header, the
/// checksum, or the payload layout ([`Engine::encode`] or the telemetry
/// section). Version 2 replaced version 1's FNV-1a checksum and
/// fingerprint with XXH64; the layout is unchanged.
const FORMAT_VERSION: u32 = 2;
/// Header bytes before the payload: magic, version, generation,
/// fingerprint, payload length, checksum.
const HEADER_LEN: usize = 44;
/// Offset of the header's payload-length field.
const PAYLOAD_LEN_AT: usize = 28;
/// Offset of the header's checksum field.
const CHECKSUM_AT: usize = 36;

/// Everything that can go wrong writing, finding or restoring a
/// snapshot. Each header check failure is a distinct variant so the
/// [`RecoveryReport`] can say *why* a generation was skipped.
#[derive(Debug)]
pub enum DurabilityError {
    /// Filesystem failure reading or writing the snapshot directory.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a SPICE
    /// snapshot at all (or one whose first bytes were destroyed).
    BadMagic {
        /// The 8 bytes actually found.
        found: Vec<u8>,
    },
    /// The file's format version is not the one this build understands.
    Version {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload checksum does not match the header — torn write or
    /// media corruption.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The snapshot was written by a different campaign / policy /
    /// dispatch configuration than the one resuming.
    Mismatch {
        /// Fingerprint of the resuming configuration.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The file is structurally invalid: a header naming another
    /// generation than its file name, or a payload truncated mid-field,
    /// with an impossible tag, a lying length prefix, or trailing
    /// garbage.
    Corrupt(String),
    /// The configured [`CrashPlan`] fired — the simulated process death
    /// the crash harness uses in place of a real `kill -9`.
    InjectedCrash {
        /// Events the engine had resolved when the crash fired.
        after_events: u64,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            DurabilityError::BadMagic { found } => {
                write!(f, "not a SPICE snapshot (magic bytes {found:02x?})")
            }
            DurabilityError::Version { found, supported } => write!(
                f,
                "snapshot format version {found} (this build supports {supported})"
            ),
            DurabilityError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            DurabilityError::Mismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different run configuration: fingerprint {found:#018x}, resuming configuration {expected:#018x}"
            ),
            DurabilityError::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
            DurabilityError::InjectedCrash { after_events } => {
                write!(f, "injected crash after {after_events} events")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Deterministic crash injection: where, exactly, the durable runner
/// simulates a process death or storage fault. Driven by the crash
/// harness tests and the `durable_campaign` example; production runs use
/// [`CrashPlan::None`].
///
/// After an injected crash, resume by calling [`run_resilient_durable`]
/// again on the same directory with a plan that no longer fires (usually
/// `None`) — re-running the *same* plan would re-inject the same fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// Never crash.
    None,
    /// Die (return [`DurabilityError::InjectedCrash`]) once the engine
    /// has resolved `.0` events — between two event boundaries, exactly
    /// like a `kill -9` landing mid-campaign.
    KillAfterEvents(u64),
    /// After writing snapshot `generation`, truncate it to its first
    /// `keep_bytes` bytes and die — a torn write the checksum must
    /// catch on recovery.
    TornWrite {
        /// Generation whose file is torn.
        generation: u64,
        /// Bytes of the file that survive.
        keep_bytes: u64,
    },
    /// After writing snapshot `generation`, invert one byte at `byte`
    /// and die — silent corruption the checksum must catch.
    ChecksumFlip {
        /// Generation whose file is corrupted.
        generation: u64,
        /// Offset of the inverted byte.
        byte: u64,
    },
    /// After writing snapshot `after_generation`, delete the newest
    /// `drop_newest` snapshot files and die — recovery must fall back
    /// to the newest surviving generation.
    StaleGeneration {
        /// Generation whose write triggers the fault.
        after_generation: u64,
        /// How many of the newest files are destroyed.
        drop_newest: u64,
    },
}

/// Configuration of a durable campaign run.
#[derive(Clone)]
pub struct DurableConfig {
    /// Snapshot directory (created if absent). One campaign per
    /// directory.
    pub dir: PathBuf,
    /// Snapshot cadence: write a checkpoint every this many resolved
    /// events. The generation number of a snapshot is
    /// `events_processed / every_events`.
    pub every_events: u64,
    /// Keep this many newest generations on disk (older ones are
    /// deleted after each successful write). Must be ≥ 1; keeping a few
    /// is what makes stale-generation recovery possible.
    pub retain: usize,
    /// Telemetry handle for the checkpoint subsystem itself
    /// (`checkpoint.write` spans with `checkpoint.encode` and
    /// `checkpoint.sync` children, `checkpoint.restore` instants, and
    /// counters).
    /// Deliberately separate from the campaign telemetry handle so the
    /// campaign export stays bit-identical across interruptions.
    pub telemetry: Telemetry,
    /// Deterministic fault injection (see [`CrashPlan`]).
    pub crash: CrashPlan,
}

impl fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableConfig")
            .field("dir", &self.dir)
            .field("every_events", &self.every_events)
            .field("retain", &self.retain)
            .field("telemetry_enabled", &self.telemetry.is_enabled())
            .field("crash", &self.crash)
            .finish()
    }
}

impl DurableConfig {
    /// Defaults: checkpoint every 256 events, retain 3 generations, no
    /// checkpoint telemetry, no injected crashes.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            every_events: 256,
            retain: 3,
            telemetry: Telemetry::disabled(),
            crash: CrashPlan::None,
        }
    }
}

/// What recovery found and did, alongside the campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation the run resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
    /// Events already resolved at the resume point (0 on a fresh
    /// start).
    pub resumed_events: u64,
    /// Newer generations that were found but rejected, newest first,
    /// with the reason each failed to load.
    pub skipped: Vec<(u64, String)>,
    /// Snapshots written by *this* process before it finished (or
    /// crashed).
    pub snapshots_written: u64,
}

/// A finished durable campaign: the (bit-identical) resilient result,
/// the engine's scale counters, and the recovery audit trail.
#[derive(Debug, Clone)]
pub struct DurableOutcome {
    /// Campaign outcome — bit-identical to an uninterrupted
    /// [`crate::resilience::run_resilient_with_dispatch`] run.
    pub result: ResilientResult,
    /// Engine scale counters, also bit-identical.
    pub stats: EngineStats,
    /// What recovery saw.
    pub recovery: RecoveryReport,
}

/// Decoded telemetry section of a snapshot, pending re-import.
#[derive(Debug)]
struct TelemetryImage {
    tracks: Vec<(String, u64, Vec<TeleEvent>)>,
    metrics: Vec<(String, MetricValue)>,
}

#[derive(Debug)]
struct TeleEvent {
    kind: EventKind,
    name: String,
    logical: u64,
    attrs: Vec<(String, String)>,
}

/// Fingerprint of the full run configuration — campaign, resilience
/// policy and dispatch policy — via the snapshot codec. Stored in every
/// header; a snapshot only restores into the exact configuration that
/// wrote it.
fn fingerprint(campaign: &Campaign, policy: &ResiliencePolicy, dispatch: DispatchPolicy) -> u64 {
    let mut e = Enc::new();
    e.put_u64(campaign.seed);
    e.put_usize(campaign.jobs.len());
    for j in &campaign.jobs {
        e.put_u32(j.id);
        e.put_str(&j.name);
        e.put_u32(j.procs);
        e.put_f64(j.wall_hours);
        e.put_f64(j.release_hours);
        e.put_bool(j.coupled);
    }
    e.put_usize(campaign.federation.sites.len());
    for s in &campaign.federation.sites {
        e.put_u32(s.id);
        e.put_str(&s.name);
        e.put_str(&s.grid);
        e.put_u32(s.procs);
        e.put_f64(s.speed);
        e.put_f64(s.mean_queue_wait);
        e.put_bool(s.hidden_ip);
        e.put_bool(s.has_gateway);
        e.put_bool(s.lightpath);
    }
    e.put_usize(campaign.outages.len());
    for o in &campaign.outages {
        e.put_u32(o.site);
        e.put_f64(o.start);
        e.put_f64(o.end);
        e.put_u8(match o.cause {
            crate::failure::OutageCause::Hardware => 0,
            crate::failure::OutageCause::SecurityBreach => 1,
            crate::failure::OutageCause::Maintenance => 2,
            crate::failure::OutageCause::MiddlewareImmaturity => 3,
        });
    }
    e.put_u8(match policy.outage {
        crate::resilience::OutagePolicy::Drain => 0,
        crate::resilience::OutagePolicy::Kill => 1,
    });
    match policy.checkpoint.interval_hours {
        Some(h) => {
            e.put_u8(1);
            e.put_f64(h);
        }
        None => e.put_u8(0),
    }
    e.put_f64(policy.checkpoint.overhead_hours);
    e.put_u32(policy.retry.max_retries);
    e.put_f64(policy.retry.backoff_base_hours);
    e.put_f64(policy.retry.backoff_factor);
    e.put_f64(policy.retry.min_resubmit_delay_hours);
    e.put_u32(policy.retry.blacklist_threshold);
    e.put_bool(policy.retry.failover);
    e.put_f64(policy.failures.p_launch);
    e.put_f64(policy.failures.p_launch_immature);
    e.put_f64(policy.failures.crash_rate_per_hour);
    e.put_f64(policy.failures.gateway_drop_rate_per_hour);
    e.put_u8(match dispatch {
        DispatchPolicy::EarliestCompletion => 0,
        DispatchPolicy::RoundRobin => 1,
        DispatchPolicy::Random => 2,
    });
    xxh64(e.bytes())
}

fn encode_telemetry(e: &mut Enc, t: &Telemetry) {
    e.put_bool(t.is_enabled());
    let snap = t.snapshot();
    e.put_usize(snap.tracks.len());
    for tr in &snap.tracks {
        e.put_str(tr.name);
        e.put_u64(tr.key);
        e.put_usize(tr.events.len());
        for ev in &tr.events {
            e.put_u8(match ev.kind {
                EventKind::Enter => 0,
                EventKind::Exit => 1,
                EventKind::Instant => 2,
            });
            e.put_str(ev.name);
            e.put_u64(ev.logical);
            // wall_ns deliberately dropped: wall time is the one
            // non-deterministic field, and restores re-anchor it.
            e.put_usize(ev.attrs.len());
            for (k, v) in &ev.attrs {
                e.put_str(k);
                e.put_str(v);
            }
        }
    }
    e.put_usize(snap.metrics.len());
    for (name, value) in &snap.metrics {
        e.put_str(name);
        match value {
            MetricValue::Counter(v) => {
                e.put_u8(0);
                e.put_u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.put_u8(1);
                e.put_f64(*v);
            }
            MetricValue::Histogram {
                bounds,
                counts,
                sum,
            } => {
                e.put_u8(2);
                e.put_usize(bounds.len());
                for b in bounds {
                    e.put_f64(*b);
                }
                e.put_usize(counts.len());
                for c in counts {
                    e.put_u64(*c);
                }
                e.put_f64(*sum);
            }
        }
    }
}

fn decode_telemetry(d: &mut Dec<'_>) -> Result<TelemetryImage, DurabilityError> {
    let _was_enabled = d.take_bool()?;
    let mut tracks = Vec::with_capacity(d.take_len(16)?);
    for _ in 0..tracks.capacity() {
        let name = d.take_str()?;
        let key = d.take_u64()?;
        let mut events = Vec::with_capacity(d.take_len(17)?);
        for _ in 0..events.capacity() {
            let kind = match d.take_u8()? {
                0 => EventKind::Enter,
                1 => EventKind::Exit,
                2 => EventKind::Instant,
                t => {
                    return Err(DurabilityError::Corrupt(format!(
                        "invalid span-event kind tag {t}"
                    )))
                }
            };
            let ename = d.take_str()?;
            let logical = d.take_u64()?;
            let mut attrs = Vec::with_capacity(d.take_len(16)?);
            for _ in 0..attrs.capacity() {
                attrs.push((d.take_str()?, d.take_str()?));
            }
            events.push(TeleEvent {
                kind,
                name: ename,
                logical,
                attrs,
            });
        }
        tracks.push((name, key, events));
    }
    let mut metrics = Vec::with_capacity(d.take_len(9)?);
    for _ in 0..metrics.capacity() {
        let name = d.take_str()?;
        let value = match d.take_u8()? {
            0 => MetricValue::Counter(d.take_u64()?),
            1 => MetricValue::Gauge(d.take_f64()?),
            2 => {
                let mut bounds = Vec::with_capacity(d.take_len(8)?);
                for _ in 0..bounds.capacity() {
                    bounds.push(d.take_f64()?);
                }
                let mut counts = Vec::with_capacity(d.take_len(8)?);
                for _ in 0..counts.capacity() {
                    counts.push(d.take_u64()?);
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum: d.take_f64()?,
                }
            }
            t => return Err(DurabilityError::Corrupt(format!("invalid metric tag {t}"))),
        };
        metrics.push((name, value));
    }
    Ok(TelemetryImage { tracks, metrics })
}

/// Replay a snapshot's telemetry section into `t`. No-op on a disabled
/// handle. Names are interned back to `&'static str`; event order and
/// logical stamps are preserved verbatim, so the resumed export is
/// byte-identical to the uninterrupted one.
fn import_telemetry(t: &Telemetry, img: &TelemetryImage) {
    if !t.is_enabled() {
        return;
    }
    for (name, key, events) in &img.tracks {
        let track = t.track(intern(name), *key);
        for ev in events {
            track.import_event(
                ev.kind,
                intern(&ev.name),
                ev.logical,
                ev.attrs
                    .iter()
                    // spice-lint: allow(P002) one-shot recovery replay, not the DES hot path — attrs move into the fresh track
                    .map(|(k, v)| (intern(k), v.clone()))
                    .collect(),
            );
        }
    }
    for (name, value) in &img.metrics {
        t.import_metric(name, value);
    }
}

/// Fill `e` with the complete snapshot file for generation `generation`:
/// the header with placeholder length and checksum, the payload (the
/// engine, then the campaign telemetry stream) encoded straight from the
/// live engine behind it, then the two placeholders patched in place —
/// the payload is written once and never copied.
fn encode_snapshot(
    e: &mut Enc,
    generation: u64,
    fp: u64,
    engine: &Engine<'_>,
    campaign_telemetry: &Telemetry,
) {
    e.clear();
    e.put_raw(&MAGIC);
    e.put_u32(FORMAT_VERSION);
    e.put_u64(generation);
    e.put_u64(fp);
    e.put_u64(0);
    e.put_u64(0);
    debug_assert_eq!(e.bytes().len(), HEADER_LEN);
    engine.encode(e);
    encode_telemetry(e, campaign_telemetry);
    let payload = &e.bytes()[HEADER_LEN..];
    let (len, checksum) = (payload.len() as u64, xxh64(payload));
    e.patch_u64(PAYLOAD_LEN_AT, len);
    e.patch_u64(CHECKSUM_AT, checksum);
}

/// Fully validate the bytes of snapshot file `generation` against the
/// resuming configuration's fingerprint `fp`. The checksum is verified
/// before any of the payload is decoded.
fn decode_snapshot(
    bytes: &[u8],
    generation: u64,
    fp: u64,
) -> Result<(EngineImage, TelemetryImage), DurabilityError> {
    let mut d = Dec::new(bytes);
    let magic = d
        .take_bytes(8)
        .map_err(|_| DurabilityError::BadMagic {
            found: bytes.to_vec(),
        })?
        .to_vec();
    if magic != MAGIC {
        return Err(DurabilityError::BadMagic { found: magic });
    }
    let version = d.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(DurabilityError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let file_generation = d.take_u64()?;
    if file_generation != generation {
        return Err(DurabilityError::Corrupt(format!(
            "header names generation {file_generation} but the file is generation {generation}"
        )));
    }
    let file_fp = d.take_u64()?;
    if file_fp != fp {
        return Err(DurabilityError::Mismatch {
            expected: fp,
            found: file_fp,
        });
    }
    let payload_len = d.take_usize()?;
    let checksum = d.take_u64()?;
    if d.remaining() != payload_len {
        return Err(DurabilityError::Corrupt(format!(
            "header promises a {payload_len}-byte payload but {} bytes follow",
            d.remaining()
        )));
    }
    let payload = d.take_bytes(payload_len)?;
    let actual = xxh64(payload);
    if actual != checksum {
        return Err(DurabilityError::Checksum {
            expected: checksum,
            found: actual,
        });
    }
    let mut pd = Dec::new(payload);
    let image = EngineImage::decode(&mut pd)?;
    let telemetry = decode_telemetry(&mut pd)?;
    pd.finish()?;
    Ok((image, telemetry))
}

/// Read and fully validate snapshot file `generation` at `path`.
fn load_snapshot(
    path: &Path,
    generation: u64,
    fp: u64,
) -> Result<(EngineImage, TelemetryImage), DurabilityError> {
    decode_snapshot(&fs::read(path)?, generation, fp)
}

/// Execute a campaign crash-safely: resume from the newest intact
/// snapshot in `cfg.dir` (if any), checkpoint every `cfg.every_events`
/// resolved events, and finish with results **bit-identical** to an
/// uninterrupted [`crate::resilience::run_resilient_with_dispatch_traced`]
/// run — records, failure listing, telemetry export and engine stats
/// alike, under every dispatch and resilience policy.
///
/// `telemetry` is the campaign handle (its stream is checkpointed and
/// restored with the engine); checkpoint-subsystem spans go to
/// `cfg.telemetry`. For telemetry to survive a crash bit-identically,
/// resume with the handle in the same enabled/disabled state the
/// campaign started with.
///
/// # Errors
/// [`DurabilityError::Io`] on filesystem failure, and
/// [`DurabilityError::InjectedCrash`] when `cfg.crash` fires. Unreadable
/// snapshots never error here — they degrade recovery to an older
/// generation and are reported in [`RecoveryReport::skipped`].
///
/// # Panics
/// Panics on an empty campaign (no jobs or no sites), a zero
/// `cfg.every_events`, or a zero `cfg.retain` — configuration errors,
/// not runtime failures.
pub fn run_resilient_durable(
    campaign: &Campaign,
    policy: &ResiliencePolicy,
    dispatch: DispatchPolicy,
    telemetry: &Telemetry,
    cfg: &DurableConfig,
) -> Result<DurableOutcome, DurabilityError> {
    assert!(!campaign.jobs.is_empty(), "campaign has no jobs");
    assert!(
        !campaign.federation.sites.is_empty(),
        "campaign has no sites"
    );
    assert!(cfg.every_events > 0, "checkpoint cadence must be positive");
    assert!(cfg.retain >= 1, "must retain at least one generation");
    fs::create_dir_all(&cfg.dir)?;
    let fp = fingerprint(campaign, policy, dispatch);
    let ckpt_track = cfg.telemetry.track("checkpoint", 0);

    // Recovery scan: newest generation first, falling back past every
    // unreadable file (recording why) to the newest intact one.
    let mut skipped: Vec<(u64, String)> = Vec::new();
    let mut restored: Option<(u64, EngineImage, TelemetryImage)> = None;
    for (generation, path) in writer::list_generations(&cfg.dir)?.iter().rev() {
        match load_snapshot(path, *generation, fp) {
            Ok((image, tele)) => {
                restored = Some((*generation, image, tele));
                break;
            }
            Err(why) => skipped.push((*generation, why.to_string())),
        }
    }

    let (mut engine, mut last_generation, resumed_from, resumed_events) = match restored {
        Some((generation, image, tele)) => {
            let events = image.events_processed();
            import_telemetry(telemetry, &tele);
            let engine = Engine::thaw(campaign, policy, dispatch, telemetry, image);
            ckpt_track.instant_at(
                "checkpoint.restore",
                events,
                vec![
                    ("generation", generation.to_string()),
                    ("events", events.to_string()),
                ],
            );
            cfg.telemetry.counter("checkpoint.restores").incr();
            (engine, generation, Some(generation), events)
        }
        None => {
            let mut engine = Engine::new(campaign, policy, dispatch, telemetry);
            engine.prologue();
            (engine, 0, None, 0)
        }
    };

    let mut snapshots_written = 0u64;
    // The one snapshot buffer, reused by every write of this run.
    let mut file = Enc::new();
    loop {
        let events = engine.events();
        let generation = events / cfg.every_events;
        if events > 0 && events % cfg.every_events == 0 && generation > last_generation {
            ckpt_track.enter_at("checkpoint.write", events);
            ckpt_track.enter_at("checkpoint.encode", events);
            encode_snapshot(&mut file, generation, fp, &engine, telemetry);
            ckpt_track.exit_at("checkpoint.encode", events);
            ckpt_track.enter_at("checkpoint.sync", events);
            writer::atomic_write(&writer::snapshot_path(&cfg.dir, generation), file.bytes())?;
            writer::retain_newest(&cfg.dir, cfg.retain)?;
            ckpt_track.exit_at("checkpoint.sync", events);
            ckpt_track.exit_at("checkpoint.write", events);
            let bytes = file.bytes().len() as u64;
            ckpt_track.instant_at(
                "checkpoint.written",
                events,
                vec![
                    ("generation", generation.to_string()),
                    ("bytes", bytes.to_string()),
                ],
            );
            cfg.telemetry.counter("checkpoint.writes").incr();
            cfg.telemetry.counter("checkpoint.bytes").add(bytes);
            last_generation = generation;
            snapshots_written += 1;
            // Write-stage fault injection: the fault lands *after* the
            // successful write, as if the process died with its final
            // I/O torn or the storage lied.
            match cfg.crash {
                CrashPlan::TornWrite {
                    generation: g,
                    keep_bytes,
                } if g == generation => {
                    writer::truncate_file(&writer::snapshot_path(&cfg.dir, g), keep_bytes)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                CrashPlan::ChecksumFlip {
                    generation: g,
                    byte,
                } if g == generation => {
                    writer::flip_byte(&writer::snapshot_path(&cfg.dir, g), byte)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                CrashPlan::StaleGeneration {
                    after_generation,
                    drop_newest,
                } if after_generation == generation => {
                    writer::drop_newest(&cfg.dir, drop_newest)?;
                    return Err(DurabilityError::InjectedCrash {
                        after_events: events,
                    });
                }
                _ => {}
            }
        }
        if let CrashPlan::KillAfterEvents(n) = cfg.crash {
            if events >= n {
                return Err(DurabilityError::InjectedCrash {
                    after_events: events,
                });
            }
        }
        if !engine.step() {
            break;
        }
    }
    let (result, stats) = engine.epilogue();
    Ok(DurableOutcome {
        result,
        stats,
        recovery: RecoveryReport {
            resumed_from,
            resumed_events,
            skipped,
            snapshots_written,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("spice_durability_mod_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_campaign() -> Campaign {
        let mut c = Campaign::paper_batch_phase(23);
        c.outages = vec![Outage::security_breach(3, 24.0, 2.0)];
        c
    }

    #[test]
    fn uninterrupted_durable_run_matches_plain_run_and_checkpoints() {
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let dir = scratch_dir("plain");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 64;
        cfg.retain = 2;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("uninterrupted run");
        assert_eq!(out.result, plain);
        assert_eq!(out.recovery.resumed_from, None);
        assert!(out.recovery.skipped.is_empty());
        assert!(out.recovery.snapshots_written >= 2);
        let on_disk = super::writer::list_generations(&dir).unwrap();
        assert!(
            on_disk.len() <= 2,
            "retention must cap generations, found {}",
            on_disk.len()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let c = small_campaign();
        let policy = ResiliencePolicy::retry_only();
        let plain = crate::resilience::run_resilient_with_dispatch(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
        );
        let dir = scratch_dir("kill");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 50;
        cfg.crash = CrashPlan::KillAfterEvents(137);
        let err = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("the crash plan must fire");
        assert!(matches!(
            err,
            DurabilityError::InjectedCrash { after_events: 137 }
        ));
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume");
        assert_eq!(out.recovery.resumed_from, Some(2), "resumed from event 100");
        assert_eq!(out.recovery.resumed_events, 100);
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::Random);
        let dir = scratch_dir("torn");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 40;
        cfg.crash = CrashPlan::TornWrite {
            generation: 3,
            keep_bytes: 100,
        };
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::Random,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("torn write must crash");
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::Random,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume past the torn file");
        assert_eq!(out.recovery.resumed_from, Some(2));
        assert_eq!(out.recovery.skipped.len(), 1);
        assert_eq!(out.recovery.skipped[0].0, 3);
        assert!(
            out.recovery.skipped[0].1.contains("payload"),
            "torn file must be rejected for its payload shape: {}",
            out.recovery.skipped[0].1
        );
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_is_caught_by_the_checksum() {
        let c = small_campaign();
        let policy = ResiliencePolicy::naive();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let dir = scratch_dir("flip");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 60;
        // Flip a byte well inside the payload of generation 2.
        cfg.crash = CrashPlan::ChecksumFlip {
            generation: 2,
            byte: 500,
        };
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("flip must crash");
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume past the corrupt file");
        assert_eq!(out.recovery.resumed_from, Some(1));
        assert!(out.recovery.skipped[0].1.contains("checksum"));
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_future_version_and_foreign_fingerprint_fail_loudly() {
        let dir = scratch_dir("loud");
        fs::create_dir_all(&dir).unwrap();
        let p = super::writer::snapshot_path(&dir, 1);
        fs::write(&p, b"definitely not a snapshot").unwrap();
        assert!(matches!(
            load_snapshot(&p, 1, 0),
            Err(DurabilityError::BadMagic { .. })
        ));
        // A future format version.
        let mut e = Enc::new();
        e.put_raw(&MAGIC);
        e.put_u32(FORMAT_VERSION + 9);
        e.put_u64(1);
        e.put_u64(0);
        e.put_usize(0);
        e.put_u64(xxh64(b""));
        fs::write(&p, e.into_bytes()).unwrap();
        match load_snapshot(&p, 1, 0) {
            Err(DurabilityError::Version { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 9);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // A snapshot from a different configuration: write one for
        // policy A, try to load it as policy B.
        let c = small_campaign();
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 80;
        cfg.crash = CrashPlan::KillAfterEvents(80);
        run_resilient_durable(
            &c,
            &ResiliencePolicy::naive(),
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("kill");
        let other_fp = fingerprint(
            &c,
            &ResiliencePolicy::retry_only(),
            DispatchPolicy::RoundRobin,
        );
        assert!(matches!(
            load_snapshot(&super::writer::snapshot_path(&dir, 1), 1, other_fp),
            Err(DurabilityError::Mismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_separates_every_configuration_axis() {
        let c = small_campaign();
        let base = fingerprint(
            &c,
            &ResiliencePolicy::retry_only(),
            DispatchPolicy::EarliestCompletion,
        );
        let mut c2 = c.clone();
        c2.seed ^= 1;
        assert_ne!(
            base,
            fingerprint(
                &c2,
                &ResiliencePolicy::retry_only(),
                DispatchPolicy::EarliestCompletion
            )
        );
        assert_ne!(
            base,
            fingerprint(
                &c,
                &ResiliencePolicy::checkpoint_failover(),
                DispatchPolicy::EarliestCompletion
            )
        );
        assert_ne!(
            base,
            fingerprint(&c, &ResiliencePolicy::retry_only(), DispatchPolicy::Random)
        );
    }

    /// XXH64 of the snapshot payload at fixed event boundaries of the
    /// SC05 outage campaign, campaign telemetry on. The digests were
    /// taken from the payload of the engine-image encoder this encoder
    /// replaced, so they pin the payload layout byte for byte.
    #[test]
    fn payload_bytes_match_the_golden_digests() {
        const GOLDEN: [(u64, u64); 10] = [
            (0, 0xf2ef_c3e1_3ed8_9e5d),
            (1, 0xbc05_02d0_9152_daf3),
            (7, 0x9b43_54cd_42cb_dfc6),
            (64, 0x11a6_b1a1_4ab6_6baf),
            (100, 0xb22c_460c_1688_67ad),
            (128, 0x3c58_acbd_c500_31b4),
            (192, 0x37a4_ff41_a474_9794),
            (256, 0x6150_fee7_7242_5eeb),
            (320, 0x75d1_9511_31c4_e7e2),
            (365, 0x4f90_bc51_3ebf_59a6),
        ];
        let c = Campaign::sc05_outage_phase(2005);
        let policy = ResiliencePolicy::checkpoint_failover();
        let t = Telemetry::enabled();
        let mut engine = Engine::new(&c, &policy, DispatchPolicy::EarliestCompletion, &t);
        engine.prologue();
        let mut e = Enc::new();
        for (events, digest) in GOLDEN {
            while engine.events() < events {
                assert!(engine.step(), "campaign ended before event {events}");
            }
            encode_snapshot(&mut e, 1, 0, &engine, &t);
            let payload = &e.bytes()[HEADER_LEN..];
            assert_eq!(xxh64(payload), digest, "payload at event {events}");
        }
        assert!(
            !engine.step(),
            "the last boundary is the end of the campaign"
        );
    }

    /// The newest snapshot file of an SC05 outage run killed at event
    /// 200 under a 64-event cadence, with its generation and the run's
    /// fingerprint.
    fn sc05_snapshot(tag: &str) -> (Vec<u8>, u64, u64) {
        let c = Campaign::sc05_outage_phase(2005);
        let policy = ResiliencePolicy::checkpoint_failover();
        let dispatch = DispatchPolicy::EarliestCompletion;
        let dir = scratch_dir(tag);
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 64;
        cfg.crash = CrashPlan::KillAfterEvents(200);
        run_resilient_durable(&c, &policy, dispatch, &Telemetry::disabled(), &cfg)
            .expect_err("the kill must fire");
        let (generation, path) = super::writer::list_generations(&dir)
            .unwrap()
            .pop()
            .expect("a snapshot was written");
        let bytes = fs::read(path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        (bytes, generation, fingerprint(&c, &policy, dispatch))
    }

    #[test]
    fn every_byte_flip_and_truncation_is_a_typed_error() {
        let (mut bytes, generation, fp) = sc05_snapshot("fuzz");
        assert_eq!(generation, 3);
        decode_snapshot(&bytes, generation, fp).expect("the intact snapshot loads");
        for at in 0..bytes.len() {
            bytes[at] ^= 0xFF;
            match decode_snapshot(&bytes, generation, fp) {
                Ok(_) => panic!("a flip of byte {at} loaded"),
                // Bytes 12..20 hold the generation.
                Err(DurabilityError::Corrupt(why)) if (12..20).contains(&at) => {
                    assert!(why.contains("generation"), "byte {at}: {why}");
                }
                Err(e) if (12..20).contains(&at) => panic!("byte {at}: {e:?}"),
                Err(
                    DurabilityError::BadMagic { .. }
                    | DurabilityError::Version { .. }
                    | DurabilityError::Mismatch { .. }
                    | DurabilityError::Corrupt(_)
                    | DurabilityError::Checksum { .. },
                ) => {}
                Err(e) => panic!("byte {at}: unexpected error {e:?}"),
            }
            bytes[at] ^= 0xFF;
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut], generation, fp).is_err(),
                "a truncation to {cut} bytes loaded"
            );
        }
    }

    #[test]
    fn a_snapshot_under_another_generation_name_is_skipped() {
        let c = small_campaign();
        let policy = ResiliencePolicy::retry_only();
        let plain =
            crate::resilience::run_resilient_with_dispatch(&c, &policy, DispatchPolicy::RoundRobin);
        let dir = scratch_dir("renamed");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 50;
        cfg.crash = CrashPlan::KillAfterEvents(120);
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("the kill must fire");
        // Generation 2's file, copied under generation 9's name.
        fs::copy(
            super::writer::snapshot_path(&dir, 2),
            super::writer::snapshot_path(&dir, 9),
        )
        .unwrap();
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::RoundRobin,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("resume");
        assert_eq!(out.recovery.resumed_from, Some(2));
        assert_eq!(out.recovery.skipped.len(), 1);
        assert_eq!(out.recovery.skipped[0].0, 9);
        assert!(
            out.recovery.skipped[0].1.contains("generation 2"),
            "{}",
            out.recovery.skipped[0].1
        );
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_one_files_are_skipped_and_the_run_starts_fresh() {
        let c = small_campaign();
        let policy = ResiliencePolicy::checkpoint_failover();
        let plain = crate::resilience::run_resilient_with_dispatch(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
        );
        let dir = scratch_dir("v1");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 64;
        cfg.crash = CrashPlan::KillAfterEvents(150);
        run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect_err("the kill must fire");
        // Stamp every file on disk as format version 1.
        for (_, path) in super::writer::list_generations(&dir).unwrap() {
            let mut bytes = fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            fs::write(&path, bytes).unwrap();
        }
        cfg.crash = CrashPlan::None;
        let out = run_resilient_durable(
            &c,
            &policy,
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("a fresh run");
        let why = DurabilityError::Version {
            found: 1,
            supported: 2,
        }
        .to_string();
        assert_eq!(out.recovery.resumed_from, None);
        assert_eq!(out.recovery.resumed_events, 0);
        assert_eq!(out.recovery.skipped, [(2, why.clone()), (1, why)]);
        assert_eq!(out.result, plain);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_write_spans_split_encode_from_sync() {
        let c = small_campaign();
        let dir = scratch_dir("spans");
        let mut cfg = DurableConfig::new(&dir);
        cfg.every_events = 100;
        cfg.telemetry = Telemetry::enabled();
        let out = run_resilient_durable(
            &c,
            &ResiliencePolicy::retry_only(),
            DispatchPolicy::EarliestCompletion,
            &Telemetry::disabled(),
            &cfg,
        )
        .expect("uninterrupted run");
        let snap = cfg.telemetry.snapshot();
        let track = snap
            .tracks
            .iter()
            .find(|t| t.name == "checkpoint")
            .expect("checkpoint track");
        let first: Vec<(EventKind, &str, u64)> = track
            .events
            .iter()
            .take(7)
            .map(|ev| (ev.kind, ev.name, ev.logical))
            .collect();
        assert_eq!(
            first,
            [
                (EventKind::Enter, "checkpoint.write", 100),
                (EventKind::Enter, "checkpoint.encode", 100),
                (EventKind::Exit, "checkpoint.encode", 100),
                (EventKind::Enter, "checkpoint.sync", 100),
                (EventKind::Exit, "checkpoint.sync", 100),
                (EventKind::Exit, "checkpoint.write", 100),
                (EventKind::Instant, "checkpoint.written", 100),
            ]
        );
        let writes = |name: &str| {
            track
                .events
                .iter()
                .filter(|ev| ev.kind == EventKind::Enter && ev.name == name)
                .count() as u64
        };
        assert_eq!(writes("checkpoint.encode"), out.recovery.snapshots_written);
        assert_eq!(writes("checkpoint.sync"), out.recovery.snapshots_written);
        fs::remove_dir_all(&dir).unwrap();
    }
}
