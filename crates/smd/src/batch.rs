//! Batched ensembles: every realization of an `Ensemble` as a lane of
//! one vectorized force/integrate loop ([`BatchSim`], see
//! `spice_md::batch`). Every Langevin ensemble runs here — clones of one
//! equilibration ([`run_ensemble_batched`]), independent starts
//! ([`run_ensemble`](crate::run_ensemble)), and several clone ensembles
//! and umbrella [`WindowLadder`]s at once ([`run_ensembles_batched`]) —
//! and every slot is the scalar loop's (`Ensemble::run_scalar`) bit for
//! bit, error text included. A lane starts from its cloned ensemble's
//! restored master or its own simulation's state
//! (`BatchSim::set_lane_state`), and its spring holds its own κ and
//! anchor; the rest of the scalar path's per-realization state (COM
//! origin, work accumulator, previous force, samples) lives in per-lane
//! vectors updated with the same expressions.
//!
//! A lane that goes non-finite gets the scalar path's error on the same
//! step while the others go on, and leaves the neighbor-list rebuilds. A
//! lane that faults (`BatchSim::lane_faulted`: a rebuild could not bin
//! it, where its scalar twin's cell list panics) gets the error panic
//! isolation gives that twin.
//!
//! Lanes run as *chunks* of whole 8-lane vectors, each its own
//! [`BatchSim`] stepped end to end, from one *pool* per call. Ensembles
//! whose lanes may share a batch (same factory, start kind and leg but
//! for κ) form a lane group, a Fig. 4 v column say; `pool_layout` cuts
//! each group into chunks by its share of the pool's work and deals the
//! chunks longest first to the host's workers before any thread starts.
//! Worker 0's chunks run on the calling thread, the others' on scoped
//! threads. Lanes never mix and each chunk's union pair list is a
//! superset of its own lanes' lists, so no bit depends on the layout.
//! Before the lanes, the cloned ensembles' master holds are dealt to the
//! workers the same way (a lone master holds on the calling thread).
//! Factory calls, restores, batch construction and the lanes' telemetry
//! stay on the calling thread; a worker hands back its masters'
//! snapshots, or its chunks' slots and rebuild counts. Each batch's pad
//! lanes (`spice_md::batch::LANE_PAD`) copy its first lane and never
//! reach a result, span or gauge. A realization that cannot be a lane
//! (one not on BAOAB Langevin, say) sends its whole lane group to the
//! scalar loop.

use crate::ensemble::{trajectories, Ensemble, Master, Runs};
use crate::protocol::PullProtocol;
use crate::pulling::SmdSpring;
use crate::runner::{anchor, spring_probe, Leg};
use crate::work::{WorkSample, WorkTrajectory};
use spice_md::batch::{BatchSim, LaneForces, LaneThermostat, LANE_PAD, PAD_SOURCE};
use spice_md::checkpoint::Snapshot;
use spice_md::{MdError, Simulation};
use spice_stats::rng::SeedSequence;
use spice_telemetry::Telemetry;
use std::ops::Range;
use std::sync::OnceLock;

/// How often (in MD steps) the `audit` feature replays lanes against
/// scalar shadow simulations.
#[cfg(feature = "audit")]
const AUDIT_REPLAY_STRIDE: u64 = 64;

/// One result slot per realization.
type Slots = Vec<Result<WorkTrajectory, MdError>>;

/// [`run_ensemble_cloned`](crate::ensemble::run_ensemble_cloned) through
/// the batched SoA engine: one shared equilibration, then all `n`
/// realizations advanced in lockstep by vectorized loops, one lane chunk
/// per core.
///
/// Bit-identical to the cloned path for every seed (slot `i` carries the
/// same `WorkTrajectory` or the same error) when the factory builds the
/// same force field for every seed. Falls back to the cloned path when
/// the factory's integrator is not BAOAB Langevin or its simulations
/// differ in step count, dt, masses, charges or species.
/// e2ebench's `traced_cell` calls this untraced form.
pub fn run_ensemble_batched<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    run_ensemble_batched_traced(
        factory,
        protocol,
        n,
        seeds,
        decorrelation_steps,
        &Telemetry::disabled(),
        0,
    )
}

/// [`run_ensemble_batched`] with telemetry attached.
///
/// Emits an `smd.equilibrate` span for the master hold, one
/// `batch.realization` span per realization on its
/// `("smd.realization", i)` track, an `smd.batch.replicas` gauge (the
/// realizations, not the padded lane stride), an `smd.batch.chunks`
/// gauge (the lane chunks the realizations ran as, one per worker
/// thread), and an `smd.batch.rebuilds` counter: the pair-list rebuilds
/// of every chunk, summed, so it depends on the chunk count. No per-step
/// MD events are emitted — the batched loop has no per-replica
/// simulation to attach a track to; replica-grain timing comes from the
/// lane spans instead.
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble_batched_traced<F>(
    factory: F,
    protocol: &PullProtocol,
    n: usize,
    seeds: SeedSequence,
    decorrelation_steps: u64,
    telemetry: &Telemetry,
    track_key: u64,
) -> Vec<Result<WorkTrajectory, MdError>>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let leg = Leg::pull(protocol, decorrelation_steps);
    let mut clones = Ensemble::new(&factory, leg, n, seeds);
    (clones.cloned, clones.telemetry, clones.track_key) = (true, telemetry.clone(), track_key);
    trajectories(clones.run())
}

/// One cloned ensemble of [`run_ensembles_batched`]: what a
/// [`run_ensemble_batched`] call takes besides the factory.
#[derive(Debug, Clone, Copy)]
pub struct ClonedEnsemble {
    /// The pulling protocol.
    pub protocol: PullProtocol,
    /// Realizations.
    pub n: usize,
    /// Realization `i` runs on `seeds.stream(i)`.
    pub seeds: SeedSequence,
    /// Steps each clone holds after its restore, before the pull.
    pub decorrelation_steps: u64,
}

/// MD steps between an umbrella window's samples.
const WINDOW_SAMPLE_STRIDE: u64 = 10;

/// One umbrella-window ladder of [`run_ensembles_batched`], the sampling
/// of thermodynamic integration and WHAM (§VI). Window `i` starts from
/// `factory(seeds.stream(i))` with its steered group shifted `offsets[i]`
/// along z, holds `hold_steps` on a static spring of κ `kappa_pn_per_a`
/// anchored `offsets[i]` above its unshifted COM, and is then sampled
/// every 10 steps for `sample_steps` more. Each window gives its unshifted
/// start COM and a trajectory whose samples after the first (the hold's
/// end) carry the spring force and, in `com_disp`, the absolute COM z.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowLadder {
    /// Spring constant of every window, paper units (pN/Å).
    pub kappa_pn_per_a: f64,
    /// Each window's anchor displacement (Å).
    pub offsets: Vec<f64>,
    /// Window `i` runs on `seeds.stream(i)`.
    pub seeds: SeedSequence,
    /// Steps each window holds before it is sampled.
    pub hold_steps: u64,
    /// Sampled steps after the hold.
    pub sample_steps: u64,
}

impl WindowLadder {
    /// What every window runs: the hold, then the sampled steps on the
    /// same static spring (v = 0).
    fn leg(&self) -> Leg {
        let protocol = PullProtocol {
            kappa_pn_per_a: self.kappa_pn_per_a,
            v_a_per_ns: 0.0,
            pull_distance: 0.0,
            dt_ps: 0.0,
            equilibration_steps: self.hold_steps,
            sample_stride: WINDOW_SAMPLE_STRIDE,
        };
        Leg {
            protocol,
            hold_steps: self.hold_steps,
            pull_steps: self.sample_steps,
            absolute_com: true,
        }
    }
}

/// Cloned ensembles and window ladders of one factory as one lane pool:
/// slot for slot, [`run_ensemble_batched`] on each of `ensembles`, and
/// each of `ladders`' windows as [`WindowLadder`] describes, the same
/// bits on every layout. Ensembles whose pulls share their step counts
/// and velocity differ only in κ and their master, so their lanes share
/// chunks, each lane starting from its own ensemble's master (a Fig. 4 v
/// column is one such group); a ladder is a group of its own. The groups'
/// chunks spread over the host's cores, longest first, and so do the
/// masters' holds (DESIGN.md §16.6). Returns each ensemble's slots and
/// each ladder's [`Runs`]. Untraced.
pub fn run_ensembles_batched<F>(
    factory: F,
    ensembles: &[ClonedEnsemble],
    ladders: &[WindowLadder],
) -> (Vec<Vec<Result<WorkTrajectory, MdError>>>, Vec<Runs>)
where
    F: Fn(u64) -> Simulation + Sync,
{
    let clones = ensembles.iter().map(|e| {
        let leg = Leg::pull(&e.protocol, e.decorrelation_steps);
        Ensemble {
            cloned: true,
            ..Ensemble::new(&factory, leg, e.n, e.seeds)
        }
    });
    let windows = ladders.iter().map(|l| Ensemble {
        offsets: Some(&l.offsets),
        ..Ensemble::new(&factory, l.leg(), l.offsets.len(), l.seeds)
    });
    let cells: Vec<Ensemble<'_, F>> = clones.chain(windows).collect();
    let mut runs = run_pool(&cells, workers(), |groups| pool_layout(groups, workers()));
    let windows = runs.split_off(ensembles.len());
    (runs.into_iter().map(trajectories).collect(), windows)
}

/// Threads a batched ensemble may step lanes on: the host's available
/// parallelism, read once per process (1 when it cannot be read).
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |w| w.get()))
}

/// The lane layout of `n` realizations on `workers` threads: as few
/// chunks as there are workers but at most one per [`LANE_PAD`]-lane
/// vector, each a whole number of vectors (the last one ends at `n`),
/// widest first and no two more than one vector apart. Fewest chunks
/// wins because a batch step carries a cost that does not scale with
/// lanes: 24 lanes on two workers run as `[16, 8]`, not `[8, 8, 8]`.
pub(crate) fn lane_chunks(n: usize, workers: usize) -> Vec<Range<usize>> {
    let vectors = n.div_ceil(LANE_PAD);
    let k = workers.max(1).min(vectors);
    let mut end = 0;
    (0..k)
        .map(|c| {
            let start = end;
            end = n.min(start + (vectors / k + usize::from(c < vectors % k)) * LANE_PAD);
            start..end
        })
        .collect()
}

/// Where a pool's lanes run: each lane group's chunks (contiguous ranges
/// of its lanes) and each worker's chunks as `(group, chunk)` pairs, in
/// the order it steps them. Worker 0 is the calling thread.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) chunks: Vec<Vec<Range<usize>>>,
    pub(crate) workers: Vec<Vec<(usize, usize)>>,
}

/// Whole vectors times MD steps: what a chunk of `lanes` lanes costs to
/// step `steps` times, pad lanes included.
fn vector_steps(lanes: usize, steps: u64) -> u64 {
    lanes.div_ceil(LANE_PAD) as u64 * steps
}

/// The pool layout of lane groups `groups`, each given as its lanes and
/// the MD steps every lane runs, on `workers` threads. Group g is cut by
/// [`lane_chunks`] into k = clamp(round(workers · its share of the
/// pool's vector-steps), 1, its vectors) chunks, so a lone group gets
/// `lane_chunks(n, workers)`; [`deal`] hands the chunks to the workers.
pub(crate) fn pool_layout(groups: &[(usize, u64)], workers: usize) -> Layout {
    let w = workers.max(1) as u64;
    let cost: Vec<u64> = groups.iter().map(|&(n, s)| vector_steps(n, s)).collect();
    let total = cost.iter().sum::<u64>().max(1);
    let chunks = groups
        .iter()
        .zip(&cost)
        .map(|(&(n, _), &cost)| {
            // round(w · cost / total), in integers.
            let k = (2 * w * cost + total) / (2 * total);
            lane_chunks(n, (k as usize).clamp(1, n.div_ceil(LANE_PAD).max(1)))
        })
        .collect();
    let steps: Vec<u64> = groups.iter().map(|&(_, s)| s).collect();
    deal(chunks, &steps, workers)
}

/// `chunks` (each group's; the MD steps of group g's lanes in `steps[g]`)
/// dealt to at most `workers` workers: longest first in vector-steps
/// (ties in group and chunk order), each to the least-loaded worker (the
/// lowest index among equals). The whole deal is fixed before any thread
/// starts, so no worker shares a counter or a lock.
pub(crate) fn deal(chunks: Vec<Vec<Range<usize>>>, steps: &[u64], workers: usize) -> Layout {
    let mut order: Vec<(u64, usize, usize)> = chunks
        .iter()
        .enumerate()
        .flat_map(|(g, cs)| {
            let steps = steps[g];
            cs.iter()
                .enumerate()
                .map(move |(c, r)| (vector_steps(r.len(), steps), g, c))
        })
        .collect();
    order.sort_by_key(|&(cost, ..)| std::cmp::Reverse(cost));
    let mut loads = vec![0u64; workers.max(1).min(order.len())];
    let mut lists = vec![Vec::new(); loads.len()];
    for (cost, g, c) in order {
        let w = (0..loads.len())
            .min_by_key(|&w| loads[w])
            .expect("a worker per dealt chunk");
        loads[w] += cost;
        lists[w].push((g, c));
    }
    Layout {
        chunks,
        workers: lists,
    }
}

impl<F: Fn(u64) -> Simulation + Sync> Ensemble<'_, F> {
    /// The ensemble's slots, its realizations stepped as lanes on this
    /// host's lane layout: a pool of one.
    pub(crate) fn run(&self) -> Runs {
        let mut runs = run_pool(std::slice::from_ref(self), workers(), |groups| {
            pool_layout(groups, workers())
        });
        runs.pop().expect("one ensemble's slots")
    }
}

/// Every ensemble of `cells` run as one pool, on the layout `plan` makes
/// of its lane groups (each given as its lanes and the MD steps each
/// lane runs): per ensemble, its slots, which are
/// [`run_scalar`](Ensemble::run_scalar)'s bit for bit on any layout.
///
/// On the calling thread, in order: every cloned ensemble's master
/// simulation, whose holds [`deal`] then hands to at most
/// `master_workers` workers (a lone master holds on the calling thread);
/// once they are back, the lane groups, each ensemble joining the first
/// group whose first member [`shares_lanes`](Ensemble::shares_lanes)
/// with it; the layout; and each group's factory calls, restores and
/// batches. A group whose lanes cannot all be built runs each of its
/// ensembles on the scalar loop from its master instead. Then the chunks
/// run on their workers and the slots are joined back, per ensemble in
/// realization order.
pub(crate) fn run_pool<F>(
    cells: &[Ensemble<'_, F>],
    master_workers: usize,
    plan: impl FnOnce(&[(usize, u64)]) -> Layout,
) -> Vec<Runs>
where
    F: Fn(u64) -> Simulation + Sync,
{
    let mut masters: Vec<Option<(usize, Master)>> = (cells.iter().enumerate())
        .filter_map(|(c, cell)| cell.master().map(|m| Some((c, m))))
        .collect();
    let holds: Vec<u64> = (masters.iter().flatten())
        .map(|&(c, _)| cells[c].leg.protocol.equilibration_steps)
        .collect();
    let dealt = deal(vec![vec![0..1]; holds.len()], &holds, master_workers);
    let lists = (dealt.workers.iter())
        .map(|list| {
            let take = |&(m, _): &(usize, usize)| masters[m].take().expect("one deal per master");
            list.iter().map(take).collect()
        })
        .collect();
    let mut snaps: Vec<Option<Snapshot>> = cells.iter().map(|_| None).collect();
    let mut out: Vec<Option<Runs>> = (cells.iter())
        .map(|cell| (cell.n == 0).then(Vec::new))
        .collect();
    for (c, held) in on_workers(lists, |(c, master)| (c, cells[c].equilibrate(master))) {
        match held {
            Ok(snap) => snaps[c] = Some(snap),
            Err(slots) => out[c] = Some(slots),
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (c, cell) in cells.iter().enumerate().filter(|&(c, _)| out[c].is_none()) {
        match groups.iter_mut().find(|g| cells[g[0]].shares_lanes(cell)) {
            Some(group) => group.push(c),
            // spice-lint: allow(P003) grouping runs once per pool call, before any batch exists; no lane step runs here
            None => groups.push(vec![c]),
        }
    }
    let shapes: Vec<(usize, u64)> = groups
        .iter()
        .map(|g| (g.iter().map(|&c| cells[c].n).sum(), cells[g[0]].leg.steps()))
        .collect();
    let layout = plan(&shapes);
    let mut built: Vec<Option<Group>> = (groups.iter().zip(&layout.chunks))
        .map(|(members, ranges)| {
            let group = Group::build(cells, members, &snaps, ranges);
            if group.is_none() {
                for &c in members {
                    out[c] = Some(cells[c].scalar_from(snaps[c].as_ref()));
                }
            }
            group
        })
        .collect();

    // Per ensemble on lanes: the chunks that hold its lanes, then its
    // gauges and its lanes' spans, kept open for the whole run (lanes
    // advance in lockstep, so per-lane wall time is the batch's).
    let mut held: Vec<Vec<(usize, usize)>> = cells.iter().map(|_| Vec::new()).collect();
    for (g, group) in built.iter().enumerate() {
        let Some(group) = group else { continue };
        for (k, range) in layout.chunks[g].iter().enumerate() {
            let span = group.lanes[range.start].0..=group.lanes[range.end - 1].0;
            for &c in groups[g].iter().filter(|c| span.contains(c)) {
                held[c].push((g, k));
            }
        }
    }
    let held: Vec<_> = (cells.iter().zip(held))
        .filter(|(_, ids)| !ids.is_empty())
        .collect();
    let mut lane_spans = Vec::new();
    for (cell, ids) in &held {
        let telemetry = &cell.telemetry;
        telemetry.set_gauge("smd.batch.replicas", cell.n as f64);
        telemetry.set_gauge("smd.batch.chunks", ids.len() as f64);
        lane_spans.extend((0..cell.n).map(|i| {
            telemetry
                .track("smd.realization", i as u64)
                .span("batch.realization")
        }));
    }

    let lists: Vec<Vec<((usize, usize), Chunk)>> = (layout.workers.iter())
        .map(|list| {
            let mut take = |&(g, k): &(usize, usize)| {
                let chunk = built[g].as_mut()?.chunks[k].take()?;
                Some(((g, k), chunk))
            };
            list.iter().filter_map(&mut take).collect()
        })
        .filter(|list: &Vec<_>| !list.is_empty())
        .collect();
    let probes: Vec<Option<&SmdSpring>> = built.iter().map(|g| Some(&g.as_ref()?.probe)).collect();
    let mut ran = on_workers(lists, |((g, k), chunk): ((usize, usize), Chunk)| {
        let probe = probes[g].expect("a built group per dealt chunk");
        ((g, k), chunk.run(cells, probe))
    });
    ran.sort_unstable_by_key(|&(id, _)| id);
    let mut results: Vec<Vec<(Slots, u64)>> = built.iter().map(|_| Vec::new()).collect();
    for ((g, _), result) in ran {
        results[g].push(result);
    }

    for (cell, ids) in &held {
        let rebuilds = ids.iter().map(|&(g, k)| results[g][k].1).sum();
        cell.telemetry.counter("smd.batch.rebuilds").add(rebuilds);
    }
    drop(lane_spans);
    for ((members, group), results) in groups.iter().zip(built).zip(results) {
        let Some(group) = group else { continue };
        let slots = results.into_iter().flat_map(|(slots, _)| slots);
        let mut runs = (slots.zip(&group.starts)).map(|(slot, &(com, _))| slot.map(|t| (com, t)));
        for &c in members {
            out[c] = Some(runs.by_ref().take(cells[c].n).collect());
        }
    }
    out.into_iter()
        .map(|runs| runs.expect("every ensemble ran"))
        .collect()
}

/// Each worker's jobs `lists[w]` run by `job`, in list order: worker 0's
/// on the calling thread, the others' on scoped threads, none of which
/// shares a lock or an atomic. Returns the results worker by worker; a
/// worker's panic resumes on the calling thread. One list starts no
/// thread.
fn on_workers<J: Send, R: Send>(lists: Vec<Vec<J>>, job: impl Fn(J) -> R + Sync) -> Vec<R> {
    let job = &job;
    std::thread::scope(|scope| {
        let mut lists = lists.into_iter();
        let own = lists.next().unwrap_or_default();
        let workers: Vec<_> = lists
            .map(|list| scope.spawn(move || list.into_iter().map(job).collect::<Vec<_>>()))
            .collect();
        let mut ran: Vec<R> = own.into_iter().map(job).collect();
        for worker in workers {
            ran.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        ran
    })
}

/// Whether `sim` can be a lane of a batch built from `first`, which holds
/// one step count, dt and row of masses, charges and species (compared
/// bit for bit). Lanes also share a force field, which is not compared:
/// a factory must build the same one for every seed.
fn same_model(first: &Simulation, sim: &Simulation) -> bool {
    fn model(s: &Simulation) -> impl Iterator<Item = u64> + '_ {
        let sys = s.system();
        let shared = [s.step_count(), s.dt().to_bits(), sys.len() as u64];
        let rows = sys
            .masses()
            .iter()
            .chain(sys.charges())
            .map(|x| x.to_bits());
        let species = sys.species().iter().map(|&k| u64::from(k));
        shared.into_iter().chain(rows).chain(species)
    }
    model(first).eq(model(sim))
}

/// A lane group ready to run: every lane's `(ensemble, realization)` and
/// start (COM before any shift, anchor), the group's spring probe, and
/// its chunks until a worker takes them.
struct Group {
    lanes: Vec<(usize, usize)>,
    starts: Vec<(f64, f64)>,
    probe: SmdSpring,
    chunks: Vec<Option<Chunk>>,
}

impl Group {
    /// The lanes of the ensembles `members` of `cells`, one after another,
    /// with the batches of their chunks `ranges`, built on the calling
    /// thread; `None` when a lane cannot be built.
    ///
    /// One factory call per realization, exactly as the scalar loop makes:
    /// lane `(c, i)`'s thermostat is whatever `factory(seeds.stream(i))`
    /// installs. A realization keeps its simulation when it starts from it
    /// (own starts) or when it starts a chunk or its ensemble's run in a
    /// chunk (a cloned ensemble's restore template there); the others are
    /// dropped as soon as their thermostat is read. A lane cannot be built
    /// from a non-Langevin integrator, a model other than the group's first
    /// (`same_model`), a factory that panics (own starts, whose factory
    /// calls the scalar loop isolates), a failed restore or a missing
    /// `"smd"` group.
    fn build<F>(
        cells: &[Ensemble<'_, F>],
        members: &[usize],
        snaps: &[Option<Snapshot>],
        ranges: &[Range<usize>],
    ) -> Option<Group>
    where
        F: Fn(u64) -> Simulation + Sync,
    {
        let lanes: Vec<(usize, usize)> = (members.iter())
            .flat_map(|&c| (0..cells[c].n).map(move |i| (c, i)))
            .collect();
        debug_assert!(
            ranges.first().map(|r| r.start) == Some(0)
                && ranges.last().map(|r| r.end) == Some(lanes.len())
                && ranges.windows(2).all(|w| w[0].end == w[1].start)
                && ranges.iter().all(|r| !r.is_empty()),
            "lane chunks {ranges:?} do not partition 0..{}",
            lanes.len()
        );
        let mut starts_chunk = vec![false; lanes.len()];
        for range in ranges {
            starts_chunk[range.start] = true;
        }
        let mut sims: Vec<(usize, Simulation)> = Vec::new();
        let thermostats: Vec<LaneThermostat> = (lanes.iter().enumerate())
            .map(|(l, &(c, i))| {
                let cell = &cells[c];
                let seed = cell.seeds.stream(i as u64);
                let sim = if cell.cloned {
                    (cell.factory)(seed)
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (cell.factory)(seed)))
                        .ok()?
                };
                if !sims
                    .first()
                    .is_none_or(|(_, first)| same_model(first, &sim))
                {
                    return None;
                }
                let lane = sim
                    .langevin_params()
                    .map(|(temperature, gamma, noise_seed)| LaneThermostat {
                        temperature,
                        gamma,
                        noise_seed,
                    });
                if !cell.cloned || i == 0 || starts_chunk[l] {
                    sims.push((l, sim));
                }
                lane
            })
            .collect::<Option<_>>()?;
        // The same `factory(seed) → restore` every clone performs, and the
        // group lookup every realization makes.
        let restored = sims.iter_mut().all(|(l, sim)| {
            let snap = snaps[lanes[*l].0].as_ref();
            snap.is_none_or(|snap| snap.restore(sim).is_ok())
        });
        if !restored {
            return None;
        }
        let probe = spring_probe(&sims[0].1, cells[members[0]].leg.protocol.kappa()).ok()?;
        // Every realization's start COM and anchor, exactly as the scalar
        // `hold` computes them (window shifts included). A cloned
        // ensemble's lanes all restore to its master's coordinates, so the
        // pair of its first lane in a chunk serves the lanes after it.
        let mut starts = Vec::with_capacity(lanes.len());
        let mut kept = sims.iter_mut().peekable();
        let mut start = (0.0, 0.0);
        for (l, &(c, i)) in lanes.iter().enumerate() {
            if let Some((_, sim)) = kept.next_if(|(k, _)| *k == l) {
                start = anchor(sim, &probe, cells[c].offset(i));
            }
            starts.push(start);
        }

        // Each chunk's batch from the simulation that starts it; a later
        // kept simulation sets its lane's state and, for a cloned
        // ensemble, the state of that ensemble's lanes after it.
        let mut sims = sims.into_iter().peekable();
        let chunks = ranges
            .iter()
            .map(|range| {
                let (_, template) = sims.next().expect("a kept simulation starts every chunk");
                let mut batch = BatchSim::new(template, &thermostats[range.clone()]);
                let mut state = None;
                for l in 1..range.len() {
                    if let Some((_, sim)) = sims.next_if(|(k, _)| *k == range.start + l) {
                        state = Some(sim);
                    }
                    if let Some(sim) = &state {
                        batch.set_lane_state(l, sim.system());
                    }
                }
                let lane = |l: usize| range.start + if l < range.len() { l } else { PAD_SOURCE };
                let (kappa, anchors) = (0..batch.stride())
                    .map(|l| {
                        let kappa = cells[lanes[lane(l)].0].leg.protocol.kappa();
                        (kappa, starts[lane(l)].1)
                    })
                    .unzip();
                Some(Chunk {
                    lanes: lanes[range.clone()].to_vec(),
                    kappa,
                    anchors,
                    batch,
                    failed: range.clone().map(|_| None).collect(),
                    #[cfg(feature = "audit")]
                    shadows: Shadows::new(cells, &lanes[range.clone()], snaps),
                })
            })
            .collect();
        Some(Group {
            lanes,
            starts,
            probe,
            chunks,
        })
    }
}

/// One lane chunk, built on the calling thread: its batch, each lane's
/// `(ensemble, realization)` and failure slot, and each lane's κ and
/// anchor (pad lanes too).
struct Chunk {
    lanes: Vec<(usize, usize)>,
    kappa: Vec<f64>,
    anchors: Vec<f64>,
    batch: BatchSim,
    failed: Vec<Option<MdError>>,
    #[cfg(feature = "audit")]
    shadows: Shadows,
}

impl Chunk {
    /// The hold, then the pull: the loop of `runner::run_leg`, fanned
    /// across lanes (one `step_once` per step for the whole batch, then
    /// per-lane updates with the scalar path's exact expressions and check
    /// order). Every lane shares its group's leg but for κ. Returns the
    /// chunk's slots in lane order and its pair-list rebuild count.
    fn run<F>(mut self, cells: &[Ensemble<'_, F>], probe: &SmdSpring) -> (Slots, u64) {
        let leg = &cells[self.lanes[0].0].leg;
        // The hold: a static spring at each lane's anchor, per-lane noise
        // streams. The scalar `Simulation::run` health-checks every
        // `blowup_check_stride = 100` *global* steps.
        let (kappa, anchors) = (
            std::mem::take(&mut self.kappa),
            std::mem::take(&mut self.anchors),
        );
        let mut spring = LaneSpring::new(probe.clone(), kappa, anchors);
        self.batch.refresh_forces(&mut |t, lf| spring.apply(t, lf));
        for _ in 0..leg.hold_steps {
            self.batch.step_once(&mut |t, lf| spring.apply(t, lf));
            self.record_faults(cells);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            if self.batch.step_count().is_multiple_of(100) {
                self.check_hold_blowup();
            }
        }

        // The pull: each guide moves at v from its lane's anchor.
        let protocol = &leg.protocol;
        let (v, t0, dt) = (protocol.velocity(), self.batch.time_ps(), self.batch.dt());
        spring.spring = probe.guided(0.0, v, t0);
        #[cfg(feature = "audit")]
        self.shadows.set_bias(&spring, &self.failed);
        let n = self.batch.n_lanes();
        let nsteps = leg.pull_steps;

        // The refresh leaves every lane's COM and guide at t0 in `spring`.
        self.batch.refresh_forces(&mut |t, lf| spring.apply(t, lf));
        let com_start: Vec<f64> = match leg.absolute_com {
            true => vec![0.0; n],
            false => spring.com[..n].to_vec(),
        };
        let mut work = vec![0.0; n];
        let mut prev_force: Vec<f64> = (0..n)
            .map(|l| spring.kappa[l] * (spring.guide[l] - spring.com[l]))
            .collect();
        let mut samples: Vec<_> = prev_force.iter().map(|&f| leg.samples(f)).collect();

        for step in 1..=nsteps {
            self.batch.step_once(&mut |t, lf| spring.apply(t, lf));
            self.record_faults(cells);
            #[cfg(feature = "audit")]
            self.shadows.step_and_check(&self.batch, &self.failed);
            let t = self.batch.time_ps();
            // Work on every lane, failed ones included: their slots return
            // the error, never these values, and the sweep stays branch-free.
            let lanes = spring.com.iter().zip(&spring.guide).zip(&spring.kappa);
            for ((w, f), ((&c, &g), &kappa)) in work.iter_mut().zip(&mut prev_force).zip(lanes) {
                let force = kappa * (g - c);
                // Trapezoid: dW = v · (F_prev + F)/2 · dt.
                *w += v * 0.5 * (*f + force) * dt;
                *f = force;
            }
            let sample = step % protocol.sample_stride == 0 || step == nsteps;
            for l in 0..n {
                if self.failed[l].is_some() {
                    continue;
                }
                // Under `audit`, the scalar path's per-step sanitizer panic is
                // caught per realization; the per-lane analogue converts the
                // would-be panic into that slot's error so sibling lanes
                // survive, exactly as sibling realizations do.
                #[cfg(feature = "audit")]
                if !(work[l].is_finite() && prev_force[l].is_finite()) {
                    self.failed[l] = Some(self.panicked(cells, l));
                    self.batch.mark_dead(l);
                    continue;
                }
                if sample {
                    samples[l].push(WorkSample {
                        t_ps: t - t0,
                        guide_disp: v * (t - t0),
                        com_disp: spring.com[l] - com_start[l],
                        work: work[l],
                        force: prev_force[l],
                    });
                }
                if step % 200 == 0 && !self.batch.lane_is_finite(l) {
                    self.failed[l] = Some(MdError::NumericalBlowup {
                        step: self.batch.step_count(),
                        what: "non-finite state during pull".into(),
                    });
                    self.batch.mark_dead(l);
                }
            }
        }

        let slots = samples
            .into_iter()
            .zip(self.failed)
            .zip(&self.lanes)
            .map(|((samples, failed), &(c, i))| match failed {
                Some(e) => Err(e),
                None => Ok(WorkTrajectory {
                    kappa_pn_per_a: cells[c].leg.protocol.kappa_pn_per_a,
                    v_a_per_ns: cells[c].leg.protocol.v_a_per_ns,
                    seed: cells[c].seeds.stream(i as u64),
                    samples,
                }),
            })
            .collect();
        (slots, self.batch.rebuild_count())
    }

    /// The error panic isolation gives lane `l`'s scalar twin.
    fn panicked<F>(&self, cells: &[Ensemble<'_, F>], l: usize) -> MdError {
        let (c, i) = self.lanes[l];
        cells[c].panicked(i)
    }

    /// Fail every lane whose scalar twin panicked this step: the lanes
    /// that faulted and, under `audit`, those whose state went non-finite
    /// (the twin's per-step `md.finite_state` sanitizer panics on the step
    /// that produced it).
    fn record_faults<F>(&mut self, cells: &[Ensemble<'_, F>]) {
        for l in 0..self.failed.len() {
            if self.failed[l].is_none()
                && (self.batch.lane_faulted(l)
                    || (cfg!(feature = "audit") && !self.batch.lane_is_finite(l)))
            {
                self.failed[l] = Some(self.panicked(cells, l));
                self.batch.mark_dead(l);
            }
        }
    }

    /// The hold-phase health check `Simulation::run` performs every
    /// `blowup_check_stride` steps, applied per lane.
    fn check_hold_blowup(&mut self) {
        for (l, slot) in self.failed.iter_mut().enumerate() {
            if slot.is_none() && !self.batch.lane_is_finite(l) {
                *slot = Some(MdError::NumericalBlowup {
                    step: self.batch.step_count(),
                    what: "non-finite coordinate or velocity".into(),
                });
                self.batch.mark_dead(l);
            }
        }
    }
}

/// The SMD spring on every lane of a batch: one [`SmdSpring`]'s group, v
/// and start time, each lane with its own κ and its guide starting at its
/// own anchor. Its bias sweep is the exact per-lane replica of
/// [`SmdSpring::apply`] (same COM fold, same force split), pad lanes
/// included, and it leaves the COM and guide rows of the positions it saw
/// for the pull's work update.
struct LaneSpring {
    spring: SmdSpring,
    kappa: Vec<f64>,
    anchors: Vec<f64>,
    com: Vec<f64>,
    guide: Vec<f64>,
    f_com: Vec<f64>,
}

impl LaneSpring {
    fn new(spring: SmdSpring, kappa: Vec<f64>, anchors: Vec<f64>) -> Self {
        let rows = || vec![0.0; anchors.len()];
        LaneSpring {
            com: rows(),
            guide: rows(),
            f_com: rows(),
            spring,
            kappa,
            anchors,
        }
    }

    fn apply(&mut self, t_ps: f64, lf: &mut LaneForces<'_>) {
        let disp = self.spring.guide_displacement(t_ps);
        for (g, &a) in self.guide.iter_mut().zip(&self.anchors) {
            *g = a + disp;
        }
        // The mass-fraction fold of `SmdSpring::com_z` (iteration order and
        // the `-0.0` seed of `f64`'s `Sum` included), lanes innermost.
        self.com.fill(-0.0);
        for (&i, &w) in self.spring.group().iter().zip(self.spring.mass_frac()) {
            for (c, &z) in self.com.iter_mut().zip(lf.pos_z_row(i)) {
                *c += w * z;
            }
        }
        let lanes = self.com.iter().zip(&self.guide).zip(&self.kappa);
        for (f, ((&c, &g), &kappa)) in self.f_com.iter_mut().zip(lanes) {
            *f = -kappa * (c - g);
        }
        for (&i, &w) in self.spring.group().iter().zip(self.spring.mass_frac()) {
            for (fz, &f) in lf.force_z_row(i).iter_mut().zip(&self.f_com) {
                *fz += f * w;
            }
        }
    }
}

/// Scalar shadow replays for the `audit` feature, one set per lane chunk:
/// the chunk's first and last lanes are re-run as ordinary `Simulation`s
/// started as the scalar loop starts them, in lockstep with the batch,
/// and their full state is compared bitwise every [`AUDIT_REPLAY_STRIDE`]
/// steps. Any SoA-kernel divergence — layout bug, reordered reduction,
/// contracted FMA, a lane started from the wrong state or on the wrong κ
/// — trips the sanitizer. On the same stride every pad lane must still be
/// a bitwise copy of the chunk's first lane, which catches a kernel that
/// leaks one lane's data into another.
#[cfg(feature = "audit")]
struct Shadows {
    /// `(chunk lane, its scalar twin, the twin's spring probe)`.
    replays: Vec<(usize, Simulation, SmdSpring)>,
}

#[cfg(feature = "audit")]
impl Shadows {
    /// Build the twins of the first and last of the realizations `lanes`
    /// (each `(ensemble, realization)` of `cells`) on the calling thread
    /// (factory calls never leave it): restored from their ensemble's
    /// master in `snaps` (cloned starts) or shifted as their window asks,
    /// then on the hold spring of their own κ at their lane's anchor.
    fn new<F>(
        cells: &[Ensemble<'_, F>],
        lanes: &[(usize, usize)],
        snaps: &[Option<Snapshot>],
    ) -> Self
    where
        F: Fn(u64) -> Simulation + Sync,
    {
        let mut local = vec![0];
        if lanes.len() > 1 {
            local.push(lanes.len() - 1);
        }
        let replays = local
            .into_iter()
            .map(|l| {
                let (c, i) = lanes[l];
                let cell = &cells[c];
                let mut sim = (cell.factory)(cell.seeds.stream(i as u64));
                if let Some(snap) = &snaps[c] {
                    snap.restore(&mut sim)
                        .expect("audit shadow restore must succeed after batch restore did");
                }
                let kappa = cell.leg.protocol.kappa();
                let (_, _, probe) = crate::runner::hold(&mut sim, kappa, cell.offset(i), 0)
                    .expect("audit shadow anchor must resolve after the batch's did");
                (l, sim, probe)
            })
            .collect();
        Shadows { replays }
    }

    fn set_bias(&mut self, spring: &LaneSpring, failed: &[Option<MdError>]) {
        self.replays.retain(|(l, ..)| failed[*l].is_none());
        for (l, sim, probe) in &mut self.replays {
            let v = spring.spring.velocity();
            let twin = probe.guided(spring.anchors[*l], v, sim.time_ps());
            sim.set_bias(Some(Box::new(twin)));
        }
    }

    fn step_and_check(&mut self, batch: &BatchSim, failed: &[Option<MdError>]) {
        if batch.step_count().is_multiple_of(AUDIT_REPLAY_STRIDE) && failed[PAD_SOURCE].is_none() {
            if let Some((p, i)) = batch.pad_divergence() {
                // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                panic!(
                    "spice-audit[smd.batch_pad_lanes]: pad lane {p} diverged from its \
                     source lane {PAD_SOURCE} at step {} particle {i}",
                    batch.step_count()
                );
            }
        }
        // A failed lane's garbage no longer has a meaningful twin.
        self.replays.retain(|(l, ..)| failed[*l].is_none());
        for (l, sim, _) in &mut self.replays {
            sim.step_once();
            if sim.step_count() % AUDIT_REPLAY_STRIDE != 0 {
                continue;
            }
            for i in 0..sim.system().len() {
                let (bp, bv) = (batch.pos(i, *l), batch.vel(i, *l));
                let (sp, sv) = (sim.system().positions()[i], sim.system().velocities()[i]);
                if bp != sp || bv != sv {
                    // spice-lint: allow(P001) the sanitizer's contract is to panic on a violated invariant
                    panic!(
                        "spice-audit[smd.batch_lanes]: lane {l} diverged from scalar \
                         replay at step {} particle {i}: batch ({bp:?}, {bv:?}) vs \
                         scalar ({sp:?}, {sv:?})",
                        sim.step_count()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::run_ensemble_cloned;
    use crate::ensemble::tests::successes;
    use spice_md::forces::{ForceField, Restraint};
    use spice_md::integrate::{LangevinBaoab, VelocityVerlet};
    use spice_md::{System, Topology, Vec3};
    use spice_pore::build::{PoreSystemBuilder, SmdSelection};
    use spice_pore::dna::DnaParams;
    use spice_pore::solvent::Solvent;
    use spice_telemetry::EventKind;

    type Factory = fn(u64) -> Simulation;

    /// `beads` restrained beads of `mass` on Langevin at `dt`, the first
    /// steered.
    fn beads(seed: u64, beads: usize, mass: f64, dt: f64) -> Simulation {
        let mut sys = System::new();
        let mut ff = ForceField::new({
            let mut topo = Topology::new();
            topo.set_group("smd", vec![0]);
            topo
        });
        for i in 0..beads {
            let at = Vec3::new(0.0, 0.0, 3.0 * i as f64);
            sys.add_particle(at, mass, 0.0, 0);
            ff = ff.with_restraint(Restraint::harmonic(i, at, 0.5));
        }
        let langevin = LangevinBaoab::new(300.0, 5.0, seed);
        Simulation::new(sys, ff, Box::new(langevin), dt)
    }

    fn factory(seed: u64) -> Simulation {
        beads(seed, 1, 50.0, 0.02)
    }

    fn nve_factory(seed: u64) -> Simulation {
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
        let mut topo = Topology::new();
        topo.set_group("smd", vec![0]);
        let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, Vec3::zero(), 0.5));
        let _ = seed;
        Simulation::new(sys, ff, Box::new(VelocityVerlet), 0.02)
    }

    fn proto() -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a: 300.0,
            v_a_per_ns: 2000.0,
            pull_distance: 2.0,
            dt_ps: 0.02,
            equilibration_steps: 100,
            sample_stride: 10,
        }
    }

    #[test]
    fn batched_matches_cloned_bitwise() {
        let seeds = SeedSequence::new(11);
        let cloned = run_ensemble_cloned(factory, &proto(), 5, seeds, 40);
        let batched = run_ensemble_batched(factory, &proto(), 5, seeds, 40);
        assert_eq!(batched.len(), cloned.len());
        for (b, c) in batched.iter().zip(&cloned) {
            let (b, c) = (b.as_ref().unwrap(), c.as_ref().unwrap());
            assert_eq!(b.seed, c.seed);
            assert_eq!(b.samples, c.samples, "bitwise sample equality");
        }
    }

    #[test]
    fn batched_zero_realizations_is_empty() {
        assert!(run_ensemble_batched(factory, &proto(), 0, SeedSequence::new(1), 10).is_empty());
    }

    #[test]
    fn batched_realizations_diverge_by_seed() {
        let trajs = successes(run_ensemble_batched(
            factory,
            &proto(),
            5,
            SeedSequence::new(12),
            40,
        ));
        assert_eq!(trajs.len(), 5);
        let works: Vec<f64> = trajs.iter().map(|t| t.final_work()).collect();
        for i in 0..works.len() {
            for j in (i + 1)..works.len() {
                assert_ne!(works[i], works[j], "lanes must diverge by seed");
            }
        }
    }

    #[test]
    fn non_langevin_factory_falls_back_to_cloned() {
        let batched = run_ensemble_batched(nve_factory, &proto(), 3, SeedSequence::new(9), 20);
        let cloned = run_ensemble_cloned(nve_factory, &proto(), 3, SeedSequence::new(9), 20);
        let wb: Vec<f64> = successes(batched).iter().map(|t| t.final_work()).collect();
        let wc: Vec<f64> = successes(cloned).iter().map(|t| t.final_work()).collect();
        assert_eq!(wb, wc);
    }

    #[test]
    fn batched_is_deterministic() {
        let run = || {
            successes(run_ensemble_batched(
                factory,
                &proto(),
                4,
                SeedSequence::new(3),
                30,
            ))
            .iter()
            .map(|t| t.final_work())
            .collect::<Vec<f64>>()
        };
        let a = run();
        assert_eq!(a.len(), 4);
        assert_eq!(a, run());
    }

    #[test]
    fn lane_chunks_are_whole_vectors_within_one_vector_of_each_other() {
        for n in (1..=25usize).chain([72]) {
            let vectors = n.div_ceil(LANE_PAD);
            for workers in 1..=4 {
                let case = format!("n={n} workers={workers}");
                let chunks = lane_chunks(n, workers);
                assert_eq!(chunks.len(), workers.min(vectors), "{case}: chunk count");
                assert_eq!(chunks[0].start, 0, "{case}");
                assert_eq!(chunks[chunks.len() - 1].end, n, "{case}");
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{case}: contiguous");
                    assert_eq!(pair[0].len() % LANE_PAD, 0, "{case}: whole vectors");
                }
                let widths: Vec<usize> =
                    chunks.iter().map(|c| c.len().div_ceil(LANE_PAD)).collect();
                assert_eq!(widths.iter().sum::<usize>(), vectors, "{case}");
                assert!(
                    widths.windows(2).all(|w| w[0] >= w[1]),
                    "{case}: widest first"
                );
                assert!(
                    widths[0] - widths[widths.len() - 1] <= 1,
                    "{case}: {widths:?}"
                );
            }
        }
        assert_eq!(lane_chunks(24, 2), [0..16, 16..24]);
        assert_eq!(lane_chunks(24, 4), [0..8, 8..16, 16..24]);
        assert_eq!(lane_chunks(17, 2), [0..16, 16..17]);
        assert_eq!(lane_chunks(6, 2).len(), 1);
    }

    /// The Test-scale strand in the pore: pair, bonded and pore-field
    /// terms, so each chunk builds and rebuilds its own union pair list.
    fn test_pore(seed: u64) -> Simulation {
        PoreSystemBuilder::new()
            .dna(DnaParams {
                n_bases: 8,
                ..DnaParams::default()
            })
            .dna_start_z(46.0)
            .smd_selection(SmdSelection::WholeStrand)
            .build()
            .into_simulation(0.01, seed)
    }

    fn pore_proto() -> PullProtocol {
        PullProtocol {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: 2000.0,
            pull_distance: 3.0,
            dt_ps: 0.01,
            equilibration_steps: 100,
            sample_stride: 20,
        }
    }

    fn sample_bits(t: &WorkTrajectory) -> Vec<[u64; 5]> {
        let bits =
            |s: &WorkSample| [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force].map(f64::to_bits);
        t.samples.iter().map(bits).collect()
    }

    /// `cells` as one pool, its master holds dealt to `masters` workers
    /// and its lane groups cut into the chunks `chunks` makes of them
    /// (each group's), dealt to this host's workers.
    fn run_on<F>(
        cells: &[Ensemble<'_, F>],
        masters: usize,
        chunks: impl FnOnce(&[(usize, u64)]) -> Vec<Vec<Range<usize>>>,
    ) -> Vec<Runs>
    where
        F: Fn(u64) -> Simulation + Sync,
    {
        run_pool(cells, masters, |groups| {
            let steps: Vec<u64> = groups.iter().map(|&(_, steps)| steps).collect();
            deal(chunks(groups), &steps, workers())
        })
    }

    /// Slot for slot, `lanes` equals `scalar`: the start COM, seed and
    /// samples bit for bit, or the error text.
    fn assert_same_slots(lanes: &Runs, scalar: &Runs, case: &str) {
        assert_eq!(lanes.len(), scalar.len(), "{case}");
        for (slot, (b, c)) in lanes.iter().zip(scalar).enumerate() {
            match (b, c) {
                (Ok(b), Ok(c)) => {
                    assert_eq!(
                        b.0.to_bits(),
                        c.0.to_bits(),
                        "{case} slot {slot}: start COM"
                    );
                    assert_eq!(b.1.seed, c.1.seed, "{case} slot {slot}");
                    assert_eq!(b.1.kappa_pn_per_a, c.1.kappa_pn_per_a, "{case} slot {slot}");
                    assert_eq!(sample_bits(&b.1), sample_bits(&c.1), "{case} slot {slot}");
                }
                (Err(b), Err(c)) => {
                    assert_eq!(b.to_string(), c.to_string(), "{case} slot {slot}");
                }
                _ => panic!(
                    "{case} slot {slot}: lanes ok {}, scalar ok {}",
                    b.is_ok(),
                    c.is_ok()
                ),
            }
        }
    }

    /// Every slot of `ensemble`, laid out three ways — one chunk, one
    /// vector per chunk, and the layout this host runs — equals the scalar
    /// loop's bit for bit (start COM, seed and samples, or error text) at
    /// each of `sizes` realizations. 9, 17 and 25 lanes end in a partial
    /// vector; 16 and 24 do not.
    fn assert_layouts_match_scalar(ensemble: Ensemble<'_, Factory>, sizes: &[usize]) {
        let Ensemble {
            factory,
            leg,
            seeds,
            cloned,
            offsets,
            ..
        } = ensemble;
        for &n in sizes {
            let mut ensemble = Ensemble {
                cloned,
                offsets,
                ..Ensemble::new(factory, leg, n, seeds)
            };
            let scalar = ensemble.run_scalar();
            let layouts = [
                lane_chunks(n, 1),
                lane_chunks(n, n.div_ceil(LANE_PAD)),
                lane_chunks(n, workers()),
            ];
            for layout in layouts {
                ensemble.telemetry = Telemetry::enabled();
                let lanes = run_on(std::slice::from_ref(&ensemble), workers(), |_| {
                    vec![layout.clone()]
                });
                let case = format!(
                    "cloned={} offsets={} n={n} layout {layout:?}",
                    ensemble.cloned,
                    ensemble.offsets.is_some()
                );
                assert!(scalar.iter().all(Result::is_ok), "{case}");
                assert_same_slots(&lanes[0], &scalar, &case);
                assert_eq!(
                    ensemble.telemetry.gauge("smd.batch.chunks").get(),
                    layout.len() as f64,
                    "n={n} layout {layout:?}"
                );
            }
        }
    }

    /// The Test pore ensemble of `leg` with seeds from 20050512.
    fn pore_ensemble(leg: Leg) -> Ensemble<'static, Factory> {
        const TEST_PORE: Factory = test_pore;
        Ensemble::new(&TEST_PORE, leg, 0, SeedSequence::new(20050512))
    }

    #[test]
    fn every_lane_layout_matches_the_cloned_path() {
        let clones = Ensemble {
            cloned: true,
            ..pore_ensemble(Leg::pull(&pore_proto(), 30))
        };
        assert_layouts_match_scalar(clones, &[9, 16, 17, 24, 25]);
    }

    /// Independent starts: each lane from its own factory simulation's
    /// velocities, anchored at its own COM.
    #[test]
    fn every_lane_layout_matches_independent_starts() {
        let leg = Leg::pull(&pore_proto(), pore_proto().equilibration_steps);
        assert_layouts_match_scalar(pore_ensemble(leg), &[9, 16, 17]);
    }

    /// A factory whose simulations differ by seed in dt or mass cannot be
    /// one batch: its ensembles, own starts and clones alike, run on the
    /// scalar loop and give its slots.
    #[test]
    fn simulations_that_differ_by_seed_run_on_the_scalar_loop() {
        fn seed_dt(seed: u64) -> Simulation {
            beads(seed, 1, 50.0, [0.02, 0.015][(seed % 2) as usize])
        }
        fn seed_mass(seed: u64) -> Simulation {
            beads(seed, 1, [50.0, 40.0][(seed % 2) as usize], 0.02)
        }
        let (n, seeds) = (9, SeedSequence::new(5));
        let parities: Vec<u64> = (0..n).map(|i| seeds.stream(i) % 2).collect();
        assert!(
            parities.contains(&0) && parities.contains(&1),
            "{parities:?}"
        );
        let cases: [(Factory, bool); 3] = [(seed_dt, false), (seed_dt, true), (seed_mass, false)];
        for (factory, cloned) in cases {
            let mut ensemble = Ensemble {
                cloned,
                ..Ensemble::new(&factory, Leg::pull(&proto(), 40), n as usize, seeds)
            };
            let scalar = ensemble.run_scalar();
            for layout in [lane_chunks(9, 1), lane_chunks(9, 2)] {
                ensemble.telemetry = Telemetry::enabled();
                let lanes = run_on(std::slice::from_ref(&ensemble), workers(), |_| {
                    vec![layout.clone()]
                });
                let case = format!("cloned={cloned} layout {layout:?}");
                let chunks = ensemble.telemetry.gauge("smd.batch.chunks").get();
                assert_eq!(chunks, 0.0, "{case}: no batch ran");
                assert!(scalar.iter().all(Result::is_ok), "{case}");
                assert_same_slots(&lanes[0], &scalar, &case);
            }
        }
    }

    /// A cloned ensemble whose restores fail falls back after its one
    /// master hold: one `smd.equilibrate` span and the scalar loop's
    /// trace, counters and restore errors.
    #[test]
    fn a_failed_restore_falls_back_after_one_master_hold() {
        let seeds = SeedSequence::new(4);
        let master = seeds.child(u64::MAX).stream(0);
        // The master has one bead and every clone two, so no clone restores.
        let factory = |seed: u64| beads(seed, if seed == master { 1 } else { 2 }, 50.0, 0.02);
        let run = |lanes: bool| {
            let mut clones = Ensemble::new(&factory, Leg::pull(&proto(), 40), 5, seeds);
            (clones.cloned, clones.telemetry) = (true, Telemetry::enabled());
            let slots = if lanes {
                clones.run()
            } else {
                clones.run_scalar()
            };
            let errors: Vec<String> = slots
                .iter()
                .map(|s| s.as_ref().unwrap_err().to_string())
                .collect();
            (errors, clones.telemetry.snapshot())
        };
        let ((errors, trace), (scalar_errors, scalar_trace)) = (run(true), run(false));
        assert_eq!(errors, scalar_errors);
        assert!(errors[0].contains("snapshot has 1 particles"), "{errors:?}");
        let events = |trace: &spice_telemetry::Snapshot| -> Vec<_> {
            let tracks = trace.tracks.iter();
            let events =
                tracks.flat_map(|t| t.events.iter().map(|e| (t.name, t.key, e.kind, e.name)));
            events.collect()
        };
        let equilibrations = events(&trace)
            .iter()
            .filter(|&&(.., kind, name)| kind == EventKind::Enter && name == "smd.equilibrate")
            .count();
        assert_eq!(equilibrations, 1);
        assert_eq!(events(&trace), events(&scalar_trace));
        assert_eq!(trace.metrics, scalar_trace.metrics);
    }

    /// Umbrella windows: each lane also shifted by its own offset, with its
    /// spring anchored that far above its unshifted COM, and a guide that
    /// holds still while it samples.
    #[test]
    fn every_lane_layout_matches_shifted_windows() {
        let offsets: Vec<f64> = (0..17).map(|w| 0.25 * w as f64).collect();
        let leg = Leg {
            protocol: PullProtocol {
                v_a_per_ns: 0.0,
                sample_stride: 10,
                ..pore_proto()
            },
            hold_steps: 60,
            pull_steps: 90,
            absolute_com: true,
        };
        for n in [9, 17] {
            let windows = Ensemble {
                offsets: Some(&offsets[..n]),
                ..pore_ensemble(leg)
            };
            assert_layouts_match_scalar(windows, &[n]);
        }
    }

    /// A lone lane group is cut as `lane_chunks(n, workers)`, one chunk
    /// per worker, the widest on the calling thread.
    #[test]
    fn a_lone_group_gets_lane_chunks() {
        for n in (1..=25usize).chain([72]) {
            for workers in 1..=4 {
                let layout = pool_layout(&[(n, 500)], workers);
                assert_eq!(
                    layout.chunks,
                    [lane_chunks(n, workers)],
                    "n={n} w={workers}"
                );
                let dealt: Vec<_> = (0..layout.chunks[0].len()).map(|k| vec![(0, k)]).collect();
                assert_eq!(layout.workers, dealt, "n={n} w={workers}");
            }
        }
    }

    /// Every layout deals each chunk exactly once, to no more than
    /// `workers` workers (the calling thread and `workers - 1` scoped
    /// threads), each stepping its chunks longest first; a group gets
    /// chunks by its share of the vector-steps, at least one and at most
    /// one per vector.
    #[test]
    fn a_pool_deals_every_chunk_once_to_at_most_workers_threads() {
        let pools: [&[(usize, u64)]; 5] = [
            &[(18, 4060), (18, 2060), (18, 1060), (18, 560)],
            &[(72, 80_200), (72, 40_200), (72, 20_200), (72, 10_200)],
            &[(5, 8000), (6, 3000), (17, 3000)],
            &[(1, 10), (1, 10), (1, 10), (1, 10), (1, 10)],
            &[(24, 0)],
        ];
        for groups in pools {
            for workers in 1..=5 {
                let case = format!("{groups:?} on {workers}");
                let layout = pool_layout(groups, workers);
                assert!(layout.workers.len() <= workers, "{case}");
                let mut dealt: Vec<(usize, usize)> = layout.workers.concat();
                dealt.sort_unstable();
                let chunks = layout.chunks.iter().enumerate();
                let every: Vec<_> = chunks
                    .flat_map(|(g, cs)| (0..cs.len()).map(move |k| (g, k)))
                    .collect();
                assert_eq!(dealt, every, "{case}");
                for (&(n, _), chunks) in groups.iter().zip(&layout.chunks) {
                    assert_eq!(chunks, &lane_chunks(n, chunks.len()), "{case}");
                }
                let cost =
                    |&(g, k): &(usize, usize)| vector_steps(layout.chunks[g][k].len(), groups[g].1);
                for list in &layout.workers {
                    let costs: Vec<u64> = list.iter().map(cost).collect();
                    assert!(costs.windows(2).all(|w| w[0] >= w[1]), "{case}");
                }
            }
        }
    }

    /// The Fig. 4 sweeps' lane groups: a v column of three κ cells, 6
    /// realizations each at Test scale and 24 at Bench, held 60 and 200
    /// steps after the restore, pulling 4 Å at 8× the paper's v or 10 Å at
    /// its v; then the reference's TI ladder, 5 and 10 windows held 300 and
    /// 2,000 steps and sampled 1,500 and 6,000 more (`spice-core`'s
    /// `Scale`). On two workers each column and the ladder run as one chunk,
    /// the v = 12.5 column alone on the calling thread and the other three
    /// and the ladder, longest first, on the second worker. The twelve
    /// masters' holds, equal in length, alternate between the two workers.
    #[test]
    fn the_sweeps_deal_one_chunk_per_column_on_two_workers() {
        // The ladder's vector-steps fall between the v = 50 and v = 100
        // columns' at Test scale, and below the v = 100 column's at Bench.
        let scales = [
            (6, 60, 4.0, 8.0, 5, 300 + 1_500, [1, 2, 4, 3]),
            (24, 200, 10.0, 1.0, 10, 2_000 + 6_000, [1, 2, 3, 4]),
        ];
        for (n, hold, distance, factor, windows, ladder_steps, second) in scales {
            let columns = PullProtocol::V_GRID.iter().map(|&v| {
                let pull = PullProtocol {
                    v_a_per_ns: v * factor,
                    pull_distance: distance,
                    dt_ps: 0.01,
                    ..PullProtocol::paper_optimal()
                };
                (3 * n, hold + pull.pull_steps())
            });
            let groups: Vec<(usize, u64)> = columns.chain([(windows, ladder_steps)]).collect();
            let layout = pool_layout(&groups, 2);
            let mut chunks = vec![vec![0..3 * n]; 4];
            chunks.push(lane_chunks(windows, 1));
            assert_eq!(layout.chunks, chunks, "n={n}");
            let second = second.map(|g| (g, 0)).to_vec();
            assert_eq!(layout.workers, [vec![(0, 0)], second], "n={n}");
        }
        let masters = deal(vec![vec![0..1]; 12], &[300; 12], 2);
        let alternate = |w| {
            (w..12)
                .step_by(2)
                .map(|m| (m, 0))
                .collect::<Vec<(usize, usize)>>()
        };
        assert_eq!(masters.workers, [alternate(0), alternate(1)]);
    }

    /// The Test pore system with its thermostat at `temperature`.
    fn pore_at(temperature: f64, seed: u64) -> Simulation {
        PoreSystemBuilder::new()
            .dna(DnaParams {
                n_bases: 8,
                ..DnaParams::default()
            })
            .dna_start_z(46.0)
            .smd_selection(SmdSelection::WholeStrand)
            .solvent(Solvent {
                temperature,
                ..Solvent::default()
            })
            .build()
            .into_simulation(0.01, seed)
    }

    /// A Test-pore v column of κ = 10, 100 and 1000 pN/Å, one cloned
    /// ensemble of 6 each, as one lane group of 18 lanes on three layouts:
    /// one chunk; one vector per chunk, so the first chunk runs two lanes
    /// into the κ = 100 ensemble and the second starts from that
    /// ensemble's master and runs into the κ = 1000 one; and this host's
    /// pool layout. The κ = 100 ensemble's third realization, first in
    /// that second chunk, has a runaway thermostat (10³⁰ K), so it faults
    /// where its scalar twin panics. Every slot equals its own ensemble's
    /// scalar loop, error text included.
    #[test]
    fn a_mixed_kappa_column_matches_the_scalar_loop_on_every_layout() {
        let seeds = SeedSequence::new(20050512);
        let runaway = seeds.child(1).stream(2);
        let factory = |seed: u64| match seed == runaway {
            true => pore_at(1e30, seed),
            false => test_pore(seed),
        };
        let cells: Vec<_> = [10.0, 100.0, 1000.0]
            .into_iter()
            .enumerate()
            .map(|(c, kappa_pn_per_a)| {
                let protocol = PullProtocol {
                    kappa_pn_per_a,
                    ..pore_proto()
                };
                let leg = Leg::pull(&protocol, 30);
                Ensemble {
                    cloned: true,
                    ..Ensemble::new(&factory, leg, 6, seeds.child(c as u64))
                }
            })
            .collect();
        let scalar: Vec<Runs> = cells.iter().map(Ensemble::run_scalar).collect();
        match &scalar[1][2] {
            Err(e) => assert!(e.to_string().contains("panicked"), "{e}"),
            Ok(_) => panic!("the runaway realization survived"),
        }
        let steps = cells[0].leg.steps();
        let layouts = [
            vec![lane_chunks(18, 1)],
            vec![lane_chunks(18, 3)],
            pool_layout(&[(18, steps)], workers()).chunks,
        ];
        assert_eq!(layouts[1], [vec![0..8, 8..16, 16..18]]);
        for chunks in layouts {
            let lanes = run_on(&cells, workers(), |_| chunks.clone());
            for (c, (lanes, scalar)) in lanes.iter().zip(&scalar).enumerate() {
                assert_same_slots(lanes, scalar, &format!("layout {chunks:?} ensemble {c}"));
            }
        }
    }

    /// A sweep's pool in small: a Test-pore v column of κ = 10, 100 and
    /// 1000 pN/Å (cloned, 6 realizations each) beside a ladder of 5 umbrella
    /// windows, its own lane group. The κ = 10 master has no `"smd"` group,
    /// so its hold fails and every slot of that ensemble carries its one
    /// error, and the κ = 100 ensemble's third realization has a runaway
    /// thermostat. The lane groups run on three layouts (one chunk per
    /// group, one vector per chunk, this host's pool layout), each with the
    /// master holds dealt to 1, 2 and 3 workers, and every slot equals its
    /// own ensemble's scalar loop, error text included.
    #[test]
    fn a_column_and_a_ladder_match_the_scalar_loop_on_every_layout_and_master_deal() {
        let seeds = SeedSequence::new(20050512);
        let failing = seeds.child(0).child(u64::MAX).stream(0);
        let runaway = seeds.child(1).stream(2);
        let ungrouped = |seed: u64| {
            let mut sys = System::new();
            sys.add_particle(Vec3::zero(), 50.0, 0.0, 0);
            let ff = ForceField::new(Topology::new());
            let langevin = LangevinBaoab::new(300.0, 5.0, seed);
            Simulation::new(sys, ff, Box::new(langevin), 0.01)
        };
        let factory = |seed: u64| match seed {
            s if s == failing => ungrouped(s),
            s if s == runaway => pore_at(1e30, s),
            s => test_pore(s),
        };
        let offsets: Vec<f64> = (0..5).map(|w| 0.5 * w as f64).collect();
        let mut cells: Vec<_> = [10.0, 100.0, 1000.0]
            .into_iter()
            .enumerate()
            .map(|(c, kappa_pn_per_a)| {
                let protocol = PullProtocol {
                    kappa_pn_per_a,
                    ..pore_proto()
                };
                Ensemble {
                    cloned: true,
                    ..Ensemble::new(&factory, Leg::pull(&protocol, 30), 6, seeds.child(c as u64))
                }
            })
            .collect();
        let ladder = WindowLadder {
            kappa_pn_per_a: 100.0,
            offsets,
            seeds: seeds.child(999),
            hold_steps: 60,
            sample_steps: 90,
        };
        cells.push(Ensemble {
            offsets: Some(&ladder.offsets),
            ..Ensemble::new(&factory, ladder.leg(), 5, ladder.seeds)
        });
        let scalar: Vec<Runs> = cells.iter().map(Ensemble::run_scalar).collect();
        for slot in &scalar[0] {
            let e = slot.as_ref().expect_err("the κ = 10 master fails");
            assert!(e.to_string().contains("shared equilibration failed"), "{e}");
        }
        assert!(scalar[1][2].is_err(), "the runaway realization survived");
        assert!(scalar[3].iter().all(Result::is_ok), "every window ran");
        type Cut = fn(&[(usize, u64)]) -> Vec<Vec<Range<usize>>>;
        let layouts: [(&str, Cut); 3] = [
            ("one chunk per group", |groups| {
                groups.iter().map(|&(n, _)| lane_chunks(n, 1)).collect()
            }),
            ("one vector per chunk", |groups| {
                (groups.iter())
                    .map(|&(n, _)| lane_chunks(n, n.div_ceil(LANE_PAD)))
                    .collect()
            }),
            ("this host's", |groups| {
                pool_layout(groups, workers()).chunks
            }),
        ];
        for (layout, cut) in layouts {
            for masters in 1..=3 {
                let mut groups = Vec::new();
                let lanes = run_on(&cells, masters, |shapes| {
                    groups = shapes.to_vec();
                    cut(shapes)
                });
                // The failed κ = 10 ensemble leaves a 12-lane column.
                assert_eq!(groups, [(12, 180), (5, 150)], "{layout}");
                for (c, (lanes, scalar)) in lanes.iter().zip(&scalar).enumerate() {
                    let case = format!("{layout} layout, masters on {masters}, ensemble {c}");
                    assert_same_slots(lanes, scalar, &case);
                }
            }
        }
    }
}
