//! Batched SoA ensemble engine: advance many replicas of one system
//! through a single force/integrate loop.
//!
//! An ensemble (`spice-smd`) runs R independent [`Simulation`]s that
//! share a topology and force field and diverge through their start
//! states (one cloned snapshot, or each replica's own), per-replica
//! thermostat noise and the pulling bias. Stepping them one at a time
//! re-pays every per-step fixed cost R times and leaves the per-pair
//! arithmetic scalar. This module
//! holds the whole batch in structure-of-arrays layout — for coordinate
//! row `(particle, axis)` the R replica *lanes* are contiguous,
//! `idx = (particle*3 + axis)*R + lane` — so the hot kernels loop over
//! pairs/particles once and sweep lanes in the inner loop, which LLVM
//! auto-vectorizes (AVX2/AVX-512 selected at runtime).
//!
//! # Bit-identity with the scalar path
//!
//! The contract is *bitwise* agreement with stepping each replica as its
//! own [`Simulation`], not approximate agreement; `spice-smd`
//! property-tests pin it. Three rules make it hold:
//!
//! 1. **Same expressions.** Lane kernels call the same inlined scalar
//!    functions ([`LjParams::energy_force`],
//!    [`DebyeHuckel::energy_force_pref`], each external term's
//!    [`ExternalPotential::energy_force`], `detmath`, `rng::gauss_from`)
//!    and replicate the BAOAB update's exact parse order. The bonded
//!    tiers call the same `forces::bonded` helpers as the scalar
//!    kernels (`bond_force`, `AngleGeometry`, `DihedralGeometry`,
//!    `dihedral_du_dphi`), each force expression written once. No force
//!    calls libm: θ, φ and dU/dφ come from `det_acos`, `det_atan2` and
//!    `det_sin`, so each bonded tier is one vectorized loop per term. An
//!    algebraic rewrite (a reciprocal shared by several terms, say)
//!    belongs in the shared helper, where both paths see it, never in a
//!    lane kernel alone. LLVM never contracts mul+add to FMA without
//!    fast-math, so vectorized lanes produce the scalar bits.
//! 2. **Masked adds instead of branches.** Where a scalar kernel skips
//!    (pair `r2 == 0` or beyond cutoff; a coincident bonded pair, a
//!    zero-length angle arm, a collinear dihedral), the lane kernel
//!    accumulates an exact `±0.0`. Force accumulators start at `+0.0`
//!    and only ever receive `+=`/`-=`, so they can never become `-0.0`
//!    (IEEE round-to-nearest returns `+0.0` for any exactly-cancelling
//!    sum), and adding `±0.0` to a non-`-0.0` accumulator never changes
//!    its bits.
//! 3. **Superset pair list.** All lanes share one tiered pair list built
//!    as the sorted, deduped union of every live lane's cell-list
//!    candidates. By rule 2 a superset is bit-safe: pairs inside the true
//!    cutoff appear in every valid Verlet list (skin invariant) in the
//!    same sorted order, and extra pairs contribute exact zeros. The list
//!    is rebuilt when *any* live lane has moved more than `skin/2` since
//!    the last rebuild — at least as often as any per-replica list would.
//!
//! Replicas that go non-finite ("dead" lanes) keep computing lane-local
//! garbage in the hot kernels (no per-lane branching) but are excluded
//! from rebuild unions, mirroring the scalar engine where NaN
//! displacements never trigger a rebuild. A lane that has moved past the
//! skin to positions a cell list cannot bin (a non-finite coordinate, or
//! a blown-up grid) *faults*: its scalar twin rebuilds its own list at
//! that step and `CellList::bin` panics, so the lane is taken out of the
//! batch and reported through [`BatchSim::lane_faulted`] instead of
//! panicking the whole batch.
//!
//! # Pad lanes
//!
//! The lane stride `r` is the replica count rounded up to a multiple of
//! [`LANE_PAD`] (one AVX-512 vector of `f64`), so no lane loop runs a
//! scalar remainder: 6 replicas run as 8 lanes, 17 as 24. Each pad lane
//! is a bitwise copy of lane [`PAD_SOURCE`] — same start state, same
//! thermostat seed and coefficients — and the bias callback sweeps whole
//! rows, so it gets the same spring too. Lane kernels never mix lanes, so
//! a pad lane computes its source's bits step for step and cannot change
//! a real lane's. Pad lanes are never live: they take no part in rebuild
//! unions or triggers, cannot fault, and are not counted by
//! [`BatchSim::n_lanes`].

use crate::forces::nonbonded::{DebyeHuckel, LjParams};
use crate::forces::{ExternalPotential, ForceField};
use crate::integrate::langevin::ou_decay;
use crate::neighbor::CellList;
use crate::rng::{gauss_from, gauss_hash};
use crate::sim::Simulation;
use crate::units;
use crate::vec3::Vec3;

/// The lane stride is padded to a multiple of this many lanes: one
/// AVX-512 register of `f64` (two AVX2 registers).
pub const LANE_PAD: usize = 8;

/// The real lane every pad lane copies.
pub const PAD_SOURCE: usize = 0;

/// Per-lane BAOAB thermostat parameters, extracted from each replica's
/// integrator via [`Simulation::langevin_params`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneThermostat {
    /// Target temperature (K).
    pub temperature: f64,
    /// Friction coefficient γ (ps⁻¹).
    pub gamma: f64,
    /// Counter-based noise stream seed (one independent stream per lane).
    pub noise_seed: u64,
}

/// Per-eval bias access for one batch: read lane positions, add lane
/// forces. Handed to the bias callback so the SMD spring can act on every
/// lane inside the batched force evaluation. Rows span the whole stride:
/// a bias must act on pad lanes too, so they stay copies of their source.
pub struct LaneForces<'a> {
    pos: &'a [f64],
    frc: &'a mut [f64],
    r: usize,
}

impl LaneForces<'_> {
    /// Lanes per row, pad lanes included.
    pub fn stride(&self) -> usize {
        self.r
    }

    /// z-coordinates of particle `i` in every lane (the SMD reaction
    /// coordinate's row, so a bias can sweep lanes).
    #[inline]
    pub fn pos_z_row(&self, i: usize) -> &[f64] {
        let b = (i * 3 + 2) * self.r;
        &self.pos[b..b + self.r]
    }

    /// z-forces on particle `i` in every lane, to add a bias into.
    #[inline]
    pub fn force_z_row(&mut self, i: usize) -> &mut [f64] {
        let b = (i * 3 + 2) * self.r;
        &mut self.frc[b..b + self.r]
    }
}

/// Shared tiered pair state for the whole batch (mirrors
/// `forces::nonbonded::TierList` compiled over the union candidate list).
#[derive(Debug)]
struct BatchPairs {
    lj: LjParams,
    dh: Option<DebyeHuckel>,
    lj_cut2: f64,
    es_cut2: f64,
    /// Candidate-collection radius: `list_cutoff + skin`.
    radius: f64,
    /// Rebuild trigger: squared displacement limit `(skin/2)²`.
    limit2: f64,
    lj_pairs: Vec<(u32, u32)>,
    ljdh_pairs: Vec<(u32, u32)>,
    ljdh_pref: Vec<f64>,
    /// Positions of every lane at the last rebuild (SoA, same layout).
    ref_pos: Vec<f64>,
    built: bool,
    /// Union-candidate scratch, reused across rebuilds.
    candidates: Vec<(u32, u32)>,
}

/// A batch of replicas advanced in lockstep through one vectorized
/// BAOAB/force loop. Construct from a template [`Simulation`] (all lanes
/// start from its exact state, until [`BatchSim::set_lane_state`] starts
/// one elsewhere) plus per-lane thermostat parameters.
pub struct BatchSim {
    n: usize,
    /// Real replica lanes, `0..replicas`; lanes `replicas..r` are pad lanes.
    replicas: usize,
    /// Lane stride of every SoA row: `replicas` rounded up to [`LANE_PAD`].
    r: usize,
    dt: f64,
    step: u64,
    /// SoA state, `idx = (particle*3 + axis)*r + lane`.
    pos: Vec<f64>,
    vel: Vec<f64>,
    frc: Vec<f64>,
    inv_m: Vec<f64>,
    charges: Vec<f64>,
    species: Vec<u32>,
    /// Lanes whose positions feed rebuilds: real lanes not yet marked
    /// dead or faulted. Pad lanes are never live.
    alive: Vec<bool>,
    /// Real lanes taken out because a rebuild could not bin them.
    faulted: Vec<bool>,
    /// Per-lane thermostat coefficients (SoA so the O-step sweeps lanes).
    seeds: Vec<u64>,
    c1: Vec<f64>,
    /// OU noise amplitude per `(particle, lane)`, `sigma[i*r + l]` —
    /// `c2·√(kT·m⁻¹)` is a loop constant, so hoisting it from the O-step
    /// to construction drops a sqrt per lane-element while keeping the
    /// scalar path's exact bits (same expression, same inputs).
    sigma: Vec<f64>,
    /// Shared model: topology, external potentials, restraints. The
    /// embedded `NonBonded` evaluator is *not* called — its parameters
    /// were extracted into `nb` at construction.
    ff: ForceField,
    nb: Option<BatchPairs>,
    // Reusable scratch (allocated once; the hot loops must not allocate).
    lane_pos: Vec<Vec3>,
    /// `lanes::SCRATCH_ROWS` lane rows for the pair and bonded tiers.
    scratch: Vec<f64>,
    maxd2: Vec<f64>,
    rebuilds: u64,
}

impl BatchSim {
    /// Build a batch of `lanes.len()` replicas, each starting from
    /// `template`'s exact positions/velocities/step, padded to a stride
    /// of whole [`LANE_PAD`] vectors with copies of lane [`PAD_SOURCE`].
    /// The template's integrator and bias are discarded; per-lane
    /// thermostats come from `lanes`. Call
    /// [`refresh_forces`](Self::refresh_forces) before the first
    /// [`step_once`](Self::step_once) (mirroring how the scalar driver
    /// refreshes on bias installation).
    ///
    /// # Panics
    /// Panics when `lanes` is empty.
    pub fn new(template: Simulation, lanes: &[LaneThermostat]) -> Self {
        assert!(!lanes.is_empty(), "batch needs at least one lane");
        let (system, ff, dt, step) = template.into_parts();
        let n = system.len();
        let replicas = lanes.len();
        let r = replicas.next_multiple_of(LANE_PAD);
        let thermostat = |l: usize| lanes[if l < replicas { l } else { PAD_SOURCE }];

        let mut pos = vec![0.0; 3 * n * r];
        let mut vel = vec![0.0; 3 * n * r];
        for l in 0..r {
            put_lane(&mut pos, system.positions(), r, l);
            put_lane(&mut vel, system.velocities(), r, l);
        }

        // Same expressions the scalar BAOAB step evaluates from (γ, T, dt)
        // every step; they are loop constants, so hoisting them to
        // construction reproduces the same bits.
        let mut seeds = Vec::with_capacity(r);
        let mut c1 = Vec::with_capacity(r);
        let mut c2 = Vec::with_capacity(r);
        let mut kt = Vec::with_capacity(r);
        for t in (0..r).map(thermostat) {
            let c1_l = ou_decay(t.gamma, dt);
            seeds.push(t.noise_seed);
            c1.push(c1_l);
            c2.push((1.0 - c1_l * c1_l).sqrt());
            kt.push(units::KB * t.temperature * units::ACCEL);
        }
        let inv_m = system.inv_masses().to_vec();
        let mut sigma = vec![0.0; n * r];
        for i in 0..n {
            let im = inv_m[i];
            for l in 0..r {
                // Exactly the scalar O-step's per-step expression.
                sigma[i * r + l] = c2[l] * (kt[l] * im).sqrt();
            }
        }

        let nb = ff.nonbonded().map(|nb| {
            let lj = nb.lj_params();
            let list_cutoff = nb.list_cutoff();
            let skin = nb.list_skin();
            BatchPairs {
                lj,
                dh: nb.debye(),
                lj_cut2: lj.cutoff * lj.cutoff,
                es_cut2: list_cutoff * list_cutoff,
                radius: list_cutoff + skin,
                limit2: (skin * 0.5) * (skin * 0.5),
                lj_pairs: Vec::new(),
                ljdh_pairs: Vec::new(),
                ljdh_pref: Vec::new(),
                ref_pos: vec![0.0; 3 * n * r],
                built: false,
                candidates: Vec::new(),
            }
        });

        BatchSim {
            n,
            replicas,
            r,
            dt,
            step,
            pos,
            vel,
            frc: vec![0.0; 3 * n * r],
            inv_m,
            charges: system.charges().to_vec(),
            species: system.species().to_vec(),
            alive: (0..r).map(|l| l < replicas).collect(),
            faulted: vec![false; r],
            seeds,
            c1,
            sigma,
            ff,
            nb,
            lane_pos: vec![Vec3::zero(); n],
            scratch: vec![0.0; lanes::SCRATCH_ROWS * r],
            maxd2: vec![0.0; r],
            rebuilds: 0,
        }
    }

    /// Start lane `l` from `state`'s positions and velocities instead of
    /// the template's (pad lanes follow lane [`PAD_SOURCE`]); call it
    /// before the first force evaluation. Panics when `l` is not a
    /// replica lane or `state` has another particle count.
    pub fn set_lane_state(&mut self, l: usize, state: &crate::System) {
        assert!(l < self.replicas && state.len() == self.n, "lane {l} state");
        let pads = if l == PAD_SOURCE {
            self.replicas
        } else {
            self.r
        };
        for lane in std::iter::once(l).chain(pads..self.r) {
            put_lane(&mut self.pos, state.positions(), self.r, lane);
            put_lane(&mut self.vel, state.velocities(), self.r, lane);
        }
    }

    /// Particles per replica.
    pub fn n_particles(&self) -> usize {
        self.n
    }

    /// Replica lanes in the batch, pad lanes excluded.
    pub fn n_lanes(&self) -> usize {
        self.replicas
    }

    /// Lanes per SoA row: [`n_lanes`](Self::n_lanes) rounded up to a
    /// multiple of [`LANE_PAD`]. Lanes past `n_lanes()` are pad lanes;
    /// the per-lane accessors below read them too.
    pub fn stride(&self) -> usize {
        self.r
    }

    /// Completed step count (shared by all lanes — they run in lockstep).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulation time (ps), identical across lanes.
    pub fn time_ps(&self) -> f64 {
        self.step as f64 * self.dt
    }

    /// Time step (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Mark lane `l` dead: it stops contributing to neighbor-list
    /// rebuilds. Its state keeps evolving as lane-local garbage (the hot
    /// kernels never branch per lane), exactly like a scalar replica
    /// between blowing up and being detected.
    pub fn mark_dead(&mut self, l: usize) {
        self.alive[l] = false;
    }

    /// Did lane `l` fault? A rebuild found it past the skin at positions
    /// a cell list cannot bin, where its scalar twin's `CellList::bin`
    /// panics. A faulted lane is dead from that step on.
    pub fn lane_faulted(&self, l: usize) -> bool {
        self.faulted[l]
    }

    /// True when every coordinate and velocity of lane `l` is finite —
    /// the per-lane analogue of `System::is_finite`.
    pub fn lane_is_finite(&self, l: usize) -> bool {
        let r = self.r;
        for row in 0..3 * self.n {
            if !self.pos[row * r + l].is_finite() || !self.vel[row * r + l].is_finite() {
                return false;
            }
        }
        true
    }

    /// Position of particle `i` in lane `l`.
    pub fn pos(&self, i: usize, l: usize) -> Vec3 {
        let b = i * 3 * self.r;
        Vec3::new(
            self.pos[b + l],
            self.pos[b + self.r + l],
            self.pos[b + 2 * self.r + l],
        )
    }

    /// Velocity of particle `i` in lane `l`.
    pub fn vel(&self, i: usize, l: usize) -> Vec3 {
        let b = i * 3 * self.r;
        Vec3::new(
            self.vel[b + l],
            self.vel[b + self.r + l],
            self.vel[b + 2 * self.r + l],
        )
    }

    /// The first `(pad lane, particle)` whose position or velocity is not
    /// lane [`PAD_SOURCE`]'s bit for bit, or `None` while every pad lane
    /// is still a copy: a lane kernel that leaked one lane's data into
    /// another would break it. Two NaNs count as equal, since a source
    /// lane gone non-finite holds garbage whose NaN payloads need not
    /// agree.
    pub fn pad_divergence(&self) -> Option<(usize, usize)> {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let r = self.r;
        (self.replicas..r)
            .flat_map(|p| (0..self.n).map(move |i| (p, i)))
            .find(|&(p, i)| {
                (3 * i..3 * i + 3).any(|row| {
                    let (k, src) = (row * r + p, row * r + PAD_SOURCE);
                    !same(self.pos[k], self.pos[src]) || !same(self.vel[k], self.vel[src])
                })
            })
    }

    /// Shared-pair-list rebuilds so far (telemetry/diagnostics).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Recompute forces for the current positions at the current time
    /// (force field + bias), like `Simulation::refresh_forces`.
    pub fn refresh_forces(&mut self, bias: &mut dyn FnMut(f64, &mut LaneForces<'_>)) {
        let t = self.time_ps();
        self.eval_forces(t, bias);
    }

    /// Advance every lane by one BAOAB step. The bias callback runs
    /// inside the mid-step force evaluation at the end-of-step time,
    /// exactly like the scalar driver.
    pub fn step_once(&mut self, bias: &mut dyn FnMut(f64, &mut LaneForces<'_>)) {
        let t_next = (self.step + 1) as f64 * self.dt;
        let half_kick = 0.5 * self.dt * units::ACCEL;
        let half_dt = 0.5 * self.dt;
        lanes::baoab_pre(
            self.n,
            self.r,
            self.step,
            half_kick,
            half_dt,
            &mut self.pos,
            &mut self.vel,
            &self.frc,
            &self.inv_m,
            &self.seeds,
            &self.c1,
            &self.sigma,
        );
        self.eval_forces(t_next, bias);
        lanes::baoab_post(
            self.n,
            self.r,
            half_kick,
            &mut self.vel,
            &self.frc,
            &self.inv_m,
        );
        self.step += 1;
    }

    /// Force evaluation across all lanes: zero, bonded tiers, shared-list
    /// pair tiers, externals and restraints (all lane-swept), bias. Term
    /// order matches `ForceField::evaluate` + bias exactly.
    fn eval_forces(&mut self, t_ps: f64, bias: &mut dyn FnMut(f64, &mut LaneForces<'_>)) {
        let Self {
            n,
            r,
            pos,
            frc,
            alive,
            faulted,
            ff,
            nb,
            charges,
            lane_pos,
            scratch,
            maxd2,
            rebuilds,
            species,
            ..
        } = self;
        let (n, r) = (*n, *r);

        frc.fill(0.0);

        // Bonded terms sweep lanes like every other term; dead lanes are
        // not skipped (see the one-body terms below). A system without
        // bonded terms skips the three tiers' runtime dispatches, which
        // cost the single-bead fixture ~5 % of its batched step.
        let topo = ff.topology();
        let has_bonded =
            !(topo.bonds().is_empty() && topo.angles().is_empty() && topo.dihedrals().is_empty());
        if has_bonded {
            lanes::bond_tier(topo.bonds(), r, pos, frc, scratch);
            lanes::angle_tier(topo.angles(), r, pos, frc, scratch);
            lanes::dihedral_tier(topo.dihedrals(), r, pos, frc, scratch);
        }

        if let Some(bp) = nb {
            if n > 1 {
                // Rebuild trigger: any live lane moved > skin/2 since the
                // last rebuild (same cadence as the scalar list, which
                // checks on every force evaluation).
                let stale = if bp.built {
                    maxd2.fill(0.0);
                    lanes::max_disp(n, r, pos, &bp.ref_pos, maxd2);
                    maxd2
                        .iter()
                        .zip(alive.iter())
                        .any(|(&d2, &a)| a && d2 > bp.limit2)
                } else {
                    true
                };
                if stale {
                    bp.candidates.clear();
                    for l in 0..r {
                        if !alive[l] {
                            continue;
                        }
                        gather_lane(pos, lane_pos, n, r, l);
                        match CellList::try_bin(lane_pos, bp.radius) {
                            Ok(cells) => {
                                cells.collect_pairs(lane_pos, bp.radius, &mut bp.candidates)
                            }
                            // Moved past the skin to positions no cell list
                            // can bin: the scalar twin rebuilds now and
                            // panics, so the lane faults.
                            Err(_) if maxd2[l] > bp.limit2 => {
                                alive[l] = false;
                                faulted[l] = true;
                            }
                            // Non-finite without having moved past the skin
                            // (NaN displacements compare false): the twin
                            // does not rebuild, so leave the lane out of
                            // the union until its health check fails it.
                            Err(_) => {}
                        }
                    }
                    bp.candidates.sort_unstable();
                    bp.candidates.dedup();
                    bp.lj_pairs.clear();
                    bp.ljdh_pairs.clear();
                    bp.ljdh_pref.clear();
                    for &(i, j) in &bp.candidates {
                        let (iu, ju) = (i as usize, j as usize);
                        if topo.is_excluded(iu, ju) {
                            continue;
                        }
                        match bp.dh {
                            Some(dh) if charges[iu] != 0.0 && charges[ju] != 0.0 => {
                                bp.ljdh_pairs.push((i, j));
                                bp.ljdh_pref.push(dh.prefactor(charges[iu], charges[ju]));
                            }
                            _ => bp.lj_pairs.push((i, j)),
                        }
                    }
                    bp.ref_pos.copy_from_slice(pos);
                    bp.built = true;
                    *rebuilds += 1;
                }
                // Tier order matches the scalar serial path: all LJ-only
                // pairs first, then all LJ+DH pairs.
                lanes::lj_tier(&bp.lj_pairs, r, bp.lj, bp.lj_cut2, pos, frc, scratch);
                lanes::ljdh_tier(
                    &bp.ljdh_pairs,
                    &bp.ljdh_pref,
                    r,
                    bp.lj,
                    bp.dh,
                    bp.lj_cut2,
                    bp.es_cut2,
                    pos,
                    frc,
                    scratch,
                );
            }
        }

        // One-body fields and restraints act on each particle alone.
        // Dead lanes are not skipped: their rows are never read again,
        // and a NaN-poisoned row stays NaN under accumulation.
        for ext in ff.externals() {
            ext.add_forces_lanes(pos, species, frc, n, r);
        }
        for rest in ff.restraints() {
            lanes::restraint_tier(
                rest.index * 3 * r,
                r,
                [rest.anchor.x, rest.anchor.y, rest.anchor.z],
                rest.axes,
                2.0 * rest.k,
                pos,
                frc,
            );
        }

        let mut lf = LaneForces { pos, frc, r };
        bias(t_ps, &mut lf);
    }
}

impl std::fmt::Debug for BatchSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSim")
            .field("particles", &self.n)
            .field("lanes", &self.replicas)
            .field("stride", &self.r)
            .field("step", &self.step)
            .field("dt_ps", &self.dt)
            .field("rebuilds", &self.rebuilds)
            .finish()
    }
}

/// Write the AoS `values` into lane `l` of the SoA array.
fn put_lane(soa: &mut [f64], values: &[Vec3], r: usize, l: usize) {
    for (i, v) in values.iter().enumerate() {
        let b = i * 3 * r;
        soa[b + l] = v.x;
        soa[b + r + l] = v.y;
        soa[b + 2 * r + l] = v.z;
    }
}

/// Copy lane `l` out of the SoA array into an AoS `Vec3` view.
#[inline]
fn gather_lane(soa: &[f64], out: &mut [Vec3], n: usize, r: usize, l: usize) {
    for (i, v) in out.iter_mut().enumerate().take(n) {
        let b = i * 3 * r;
        *v = Vec3::new(soa[b + l], soa[b + r + l], soa[b + 2 * r + l]);
    }
}

pub(crate) use lanes::external as external_lanes;

/// Name of the runtime-detected SIMD tier the lane kernels dispatch to
/// (`"avx512"`, `"avx2"`, or `"generic"`). All tiers are bit-identical;
/// benches record this so a throughput report can be read against the
/// hardware that produced it.
pub fn simd_tier_name() -> &'static str {
    lanes::tier_name()
}

/// Lane-swept kernels with runtime SIMD dispatch. Each kernel is written
/// once as an `#[inline(always)]` generic body; `#[target_feature]`
/// wrappers let LLVM re-vectorize it for wider ISAs, selected once per
/// process. All tiers produce identical bits: every operation is an
/// IEEE-exact add/mul/div/sqrt and LLVM does not contract to FMA without
/// fast-math.
mod lanes {
    use super::{gauss_from, gauss_hash, DebyeHuckel, ExternalPotential, LjParams};
    use crate::forces::bonded::{bond_force, dihedral_du_dphi, AngleGeometry, DihedralGeometry};
    use crate::system::SpeciesId;
    use crate::topology::{Angle, Bond, Dihedral};
    use crate::vec3::Vec3;
    use std::sync::OnceLock;

    /// Lane rows of scratch the tiers need: the dihedral tier's four
    /// force vectors (the bond and pair tiers use three rows, the angle
    /// tier six).
    pub(super) const SCRATCH_ROWS: usize = 12;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum SimdTier {
        Generic,
        #[cfg(target_arch = "x86_64")]
        Avx2,
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    /// Can this CPU run the AVX-512 entry points?
    #[cfg(target_arch = "x86_64")]
    fn has_avx512() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512bw")
    }

    /// Can this CPU run the AVX2 entry points?
    #[cfg(target_arch = "x86_64")]
    fn has_avx2() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    fn simd_tier() -> SimdTier {
        static TIER: OnceLock<SimdTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if has_avx512() {
                    return SimdTier::Avx512;
                }
                if has_avx2() {
                    return SimdTier::Avx2;
                }
            }
            SimdTier::Generic
        })
    }

    pub(super) fn tier_name() -> &'static str {
        match simd_tier() {
            SimdTier::Generic => "generic",
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Expand one `#[inline(always)]` kernel body into generic/AVX2/
    /// AVX-512 entry points plus the runtime-dispatched public wrapper.
    /// An optional `<T: Trait>` makes all four generic over `T: ?Sized`.
    macro_rules! simd_dispatch {
        ($entry:ident / $imp:ident / $gen:ident / $avx2:ident / $avx512:ident
         $(<$g:ident : $bound:path>)?;
         ( $($arg:ident : $ty:ty),* $(,)? )) => {
            #[allow(clippy::too_many_arguments)]
            fn $gen $(<$g: ?Sized + $bound>)? ($($arg: $ty),*) {
                $imp($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $avx2 $(<$g: ?Sized + $bound>)? ($($arg: $ty),*) {
                $imp($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $avx512 $(<$g: ?Sized + $bound>)? ($($arg: $ty),*) {
                $imp($($arg),*)
            }
            #[allow(clippy::too_many_arguments)]
            pub(crate) fn $entry $(<$g: ?Sized + $bound>)? ($($arg: $ty),*) {
                match simd_tier() {
                    // SAFETY: the dispatched tier was feature-detected at
                    // runtime before being cached.
                    #[cfg(target_arch = "x86_64")]
                    SimdTier::Avx2 => unsafe { $avx2($($arg),*) },
                    #[cfg(target_arch = "x86_64")]
                    SimdTier::Avx512 => unsafe { $avx512($($arg),*) },
                    SimdTier::Generic => $gen($($arg),*),
                }
            }
        };
    }

    /// BAOAB pre-force sub-steps (B, A, O, A) for every lane. Exact
    /// replica of `LangevinBaoab::step`'s per-particle update with the
    /// loop-invariant coefficients precomputed per lane.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn baoab_pre_impl(
        n: usize,
        r: usize,
        step: u64,
        half_kick: f64,
        half_dt: f64,
        pos: &mut [f64],
        vel: &mut [f64],
        frc: &[f64],
        inv_m: &[f64],
        seeds: &[u64],
        c1: &[f64],
        sigma: &[f64],
    ) {
        // Exact-length views of the per-lane tables: the `..r` bound is
        // what lets LLVM elide the bounds checks inside the lane sweep
        // (without it the panic paths block clean vectorization).
        let (seeds, c1) = (&seeds[..r], &c1[..r]);
        // Index form kept: the particle id `i` also derives the SoA row bases.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let s_kick = half_kick * inv_m[i];
            // Per-(particle, lane) OU amplitude, precomputed with the
            // scalar step's exact expression at construction.
            let sig = &sigma[i * r..(i + 1) * r];
            for axis in 0..3usize {
                let row = (i * 3 + axis) * r;
                // One hash per (step, particle, axis), hoisted across
                // lanes; per-lane mixing happens in `gauss_from`.
                let h = gauss_hash(step.wrapping_mul(3).wrapping_add(axis as u64), i as u64);
                let p = &mut pos[row..row + r];
                let v = &mut vel[row..row + r];
                let f = &frc[row..row + r];
                for l in 0..r {
                    // B: half kick.
                    let v1 = v[l] + f[l] * s_kick;
                    // A: half drift.
                    let p1 = p[l] + v1 * half_dt;
                    // O: Ornstein-Uhlenbeck exact update.
                    let v2 = c1[l] * v1 + sig[l] * gauss_from(seeds[l], h);
                    // A: half drift.
                    p[l] = p1 + v2 * half_dt;
                    v[l] = v2;
                }
            }
        }
    }
    simd_dispatch!(baoab_pre / baoab_pre_impl / baoab_pre_gen / baoab_pre_avx2 / baoab_pre_avx512;
        (n: usize, r: usize, step: u64, half_kick: f64, half_dt: f64,
         pos: &mut [f64], vel: &mut [f64], frc: &[f64], inv_m: &[f64],
         seeds: &[u64], c1: &[f64], sigma: &[f64]));

    /// BAOAB final half kick for every lane.
    #[inline(always)]
    fn baoab_post_impl(
        n: usize,
        r: usize,
        half_kick: f64,
        vel: &mut [f64],
        frc: &[f64],
        inv_m: &[f64],
    ) {
        // Index form kept: the particle id `i` also derives the SoA row bases.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let s_kick = half_kick * inv_m[i];
            let base = i * 3 * r;
            let v = &mut vel[base..base + 3 * r];
            let f = &frc[base..base + 3 * r];
            for l in 0..3 * r {
                v[l] += f[l] * s_kick;
            }
        }
    }
    simd_dispatch!(baoab_post / baoab_post_impl / baoab_post_gen / baoab_post_avx2 / baoab_post_avx512;
        (n: usize, r: usize, half_kick: f64, vel: &mut [f64], frc: &[f64], inv_m: &[f64]));

    /// One positional restraint swept across lanes — exactly the scalar
    /// `Restraint::add_forces`, including the per-axis mask: masked axes
    /// still subtract `±0.0 · 2k`, so the lane bits match the scalar
    /// path's zeroed displacement component.
    #[inline(always)]
    fn restraint_impl(
        base: usize,
        r: usize,
        anchor: [f64; 3],
        axes: [bool; 3],
        two_k: f64,
        pos: &[f64],
        frc: &mut [f64],
    ) {
        for axis in 0..3usize {
            let row = base + axis * r;
            let p = &pos[row..row + r];
            let f = &mut frc[row..row + r];
            let (anc, on) = (anchor[axis], axes[axis]);
            for l in 0..r {
                let d = if on { p[l] - anc } else { 0.0 };
                f[l] -= d * two_k;
            }
        }
    }
    simd_dispatch!(restraint_tier / restraint_impl / restraint_gen / restraint_avx2 / restraint_avx512;
        (base: usize, r: usize, anchor: [f64; 3], axes: [bool; 3], two_k: f64,
         pos: &[f64], frc: &mut [f64]));

    /// One external term swept across lanes: for each particle, the
    /// term's own `energy_force` on every lane, added in
    /// `ExternalPotential::add_forces`'s order. Once the term's
    /// `energy_force` inlines (it must be `#[inline(always)]`, branch-free
    /// and libm-free) the lane loop vectorizes.
    #[inline(always)]
    fn external_impl<P: ?Sized + ExternalPotential>(
        term: &P,
        pos: &[f64],
        species: &[SpeciesId],
        frc: &mut [f64],
        n: usize,
        r: usize,
    ) {
        for (i, &s) in species[..n].iter().enumerate() {
            let b = i * 3 * r;
            let (px, rest) = pos[b..b + 3 * r].split_at(r);
            let (py, pz) = rest.split_at(r);
            let (fx, rest) = frc[b..b + 3 * r].split_at_mut(r);
            let (fy, fz) = rest.split_at_mut(r);
            external_row(term, s, px, py, pz, fx, fy, fz);
        }
    }
    simd_dispatch!(external / external_impl / external_gen / external_avx2 / external_avx512
        <P: ExternalPotential>;
        (term: &P, pos: &[f64], species: &[SpeciesId], frc: &mut [f64], n: usize, r: usize));

    /// The lane loop of [`external_impl`] for one particle. The six rows
    /// come in as separate arguments, which tells LLVM they do not alias:
    /// split inside the particle loop instead, the loop is versioned on a
    /// position/force alias check and the sweep runs at scalar speed.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn external_row<P: ?Sized + ExternalPotential>(
        term: &P,
        s: SpeciesId,
        px: &[f64],
        py: &[f64],
        pz: &[f64],
        fx: &mut [f64],
        fy: &mut [f64],
        fz: &mut [f64],
    ) {
        let r = px.len();
        let (py, pz) = (&py[..r], &pz[..r]);
        let (fx, fy, fz) = (&mut fx[..r], &mut fy[..r], &mut fz[..r]);
        for l in 0..r {
            let (_e, f) = term.energy_force(Vec3::new(px[l], py[l], pz[l]), s);
            fx[l] += f.x;
            fy[l] += f.y;
            fz[l] += f.z;
        }
    }

    /// The three axis rows of one particle's lanes in a SoA array.
    #[derive(Clone, Copy)]
    struct Rows<'a> {
        x: &'a [f64],
        y: &'a [f64],
        z: &'a [f64],
    }

    impl<'a> Rows<'a> {
        #[inline(always)]
        fn of(soa: &'a [f64], particle: usize, r: usize) -> Self {
            let b = particle * 3 * r;
            Rows {
                x: &soa[b..b + r],
                y: &soa[b + r..b + 2 * r],
                z: &soa[b + 2 * r..b + 3 * r],
            }
        }

        #[inline(always)]
        fn at(self, l: usize) -> Vec3 {
            Vec3::new(self.x[l], self.y[l], self.z[l])
        }
    }

    /// Three scratch rows holding one vector per lane.
    struct RowsMut<'a> {
        x: &'a mut [f64],
        y: &'a mut [f64],
        z: &'a mut [f64],
    }

    impl RowsMut<'_> {
        /// Store `v` at lane `l`.
        #[inline(always)]
        fn put(&mut self, l: usize, v: Vec3) {
            self.x[l] = v.x;
            self.y[l] = v.y;
            self.z[l] = v.z;
        }

        /// `self += other` lane by lane.
        #[inline(always)]
        fn add(&mut self, other: &RowsMut<'_>) {
            let r = self.x.len();
            let (x, y, z) = (&mut self.x[..r], &mut self.y[..r], &mut self.z[..r]);
            let (ox, oy, oz) = (&other.x[..r], &other.y[..r], &other.z[..r]);
            for l in 0..r {
                x[l] += ox[l];
                y[l] += oy[l];
                z[l] += oz[l];
            }
        }

        /// `frc[particle] += self` across lanes. With `sub_from` on the
        /// other particle of a term this keeps the scalar kernel's order
        /// for every accumulator: each one takes its adds term by term.
        #[inline(always)]
        fn add_to(&self, frc: &mut [f64], particle: usize) {
            let r = self.x.len();
            let f = &mut frc[particle * 3 * r..(particle + 1) * 3 * r];
            let (x, y, z) = (&self.x[..r], &self.y[..r], &self.z[..r]);
            for l in 0..r {
                f[l] += x[l];
                f[r + l] += y[l];
                f[2 * r + l] += z[l];
            }
        }

        /// `frc[particle] -= self` across lanes.
        #[inline(always)]
        fn sub_from(&self, frc: &mut [f64], particle: usize) {
            let r = self.x.len();
            let f = &mut frc[particle * 3 * r..(particle + 1) * 3 * r];
            let (x, y, z) = (&self.x[..r], &self.y[..r], &self.z[..r]);
            for l in 0..r {
                f[l] -= x[l];
                f[r + l] -= y[l];
                f[2 * r + l] -= z[l];
            }
        }
    }

    /// `v` where `live`, else an exact `+0.0`: a degenerate-geometry
    /// skip of a scalar kernel becomes a masked add (rule 2).
    #[inline(always)]
    fn masked(v: Vec3, live: bool) -> Vec3 {
        Vec3::new(
            if live { v.x } else { 0.0 },
            if live { v.y } else { 0.0 },
            if live { v.z } else { 0.0 },
        )
    }

    /// Split the scratch into `N` vector rows of `r` lanes each.
    #[inline(always)]
    fn scratch_rows<const N: usize>(scratch: &mut [f64], r: usize) -> [RowsMut<'_>; N] {
        let mut rows = scratch[..3 * N * r].chunks_exact_mut(r);
        std::array::from_fn(|_| {
            let mut next = || rows.next().expect("scratch holds SCRATCH_ROWS lane rows");
            RowsMut {
                x: next(),
                y: next(),
                z: next(),
            }
        })
    }

    /// LJ-only tier swept across lanes. Where the scalar kernel skips
    /// (`r2 == 0` or `r2 > cutoff²`) the lane contributes an exact
    /// `±0.0`, which never changes an accumulator that is not `-0.0`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn lj_tier_impl(
        pairs: &[(u32, u32)],
        r: usize,
        lj: LjParams,
        lj_cut2: f64,
        pos: &[f64],
        frc: &mut [f64],
        scratch: &mut [f64],
    ) {
        let [mut fv] = scratch_rows::<1>(scratch, r);
        for &(i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            let (pi, pj) = (Rows::of(pos, i, r), Rows::of(pos, j, r));
            for l in 0..r {
                let d = pj.at(l) - pi.at(l);
                let r2 = d.norm_sq();
                // Same inlined expression as the scalar kernel; the unused
                // energy half is dead-code-eliminated. Out-of-range lanes
                // compute speculative garbage that the select masks.
                let (_e, f) = lj.energy_force(r2);
                let fs = if r2 != 0.0 && r2 <= lj_cut2 { f } else { 0.0 };
                fv.put(l, d * fs);
            }
            // forces[j] += fv; forces[i] -= fv
            fv.add_to(frc, j);
            fv.sub_from(frc, i);
        }
    }
    simd_dispatch!(lj_tier / lj_tier_impl / lj_tier_gen / lj_tier_avx2 / lj_tier_avx512;
        (pairs: &[(u32, u32)], r: usize, lj: LjParams, lj_cut2: f64,
         pos: &[f64], frc: &mut [f64], scratch: &mut [f64]));

    /// LJ + Debye–Hückel tier swept across lanes. The two cutoff tests
    /// become masked adds onto `f_over_r`, preserving the scalar kernel's
    /// exact add sequence (`0.0 + f_lj`, then `+ f_dh`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn ljdh_tier_impl(
        pairs: &[(u32, u32)],
        prefs: &[f64],
        r: usize,
        lj: LjParams,
        dh: Option<DebyeHuckel>,
        lj_cut2: f64,
        es_cut2: f64,
        pos: &[f64],
        frc: &mut [f64],
        scratch: &mut [f64],
    ) {
        if pairs.is_empty() {
            return;
        }
        let dh = dh.expect("LJ+DH tier populated without Debye-Huckel enabled");
        let [mut fv] = scratch_rows::<1>(scratch, r);
        for (&(i, j), &pref) in pairs.iter().zip(prefs) {
            let (i, j) = (i as usize, j as usize);
            let (pi, pj) = (Rows::of(pos, i, r), Rows::of(pos, j, r));
            for l in 0..r {
                let d = pj.at(l) - pi.at(l);
                let r2 = d.norm_sq();
                let nz = r2 != 0.0;
                let (_elj, f_lj) = lj.energy_force(r2);
                let (_ec, f_dh) = dh.energy_force_pref(pref, r2);
                let mut f_over_r = 0.0;
                f_over_r += if nz && r2 <= lj_cut2 { f_lj } else { 0.0 };
                f_over_r += if nz && r2 <= es_cut2 { f_dh } else { 0.0 };
                fv.put(l, d * f_over_r);
            }
            fv.add_to(frc, j);
            fv.sub_from(frc, i);
        }
    }
    simd_dispatch!(ljdh_tier / ljdh_tier_impl / ljdh_tier_gen / ljdh_tier_avx2 / ljdh_tier_avx512;
        (pairs: &[(u32, u32)], prefs: &[f64], r: usize, lj: LjParams,
         dh: Option<DebyeHuckel>, lj_cut2: f64, es_cut2: f64,
         pos: &[f64], frc: &mut [f64], scratch: &mut [f64]));

    /// Bond tier swept across lanes: [`bond_force`] on every lane in
    /// `bond_forces`' order, its `r == 0` skip a masked `±0.0`.
    #[inline(always)]
    fn bond_tier_impl(bonds: &[Bond], r: usize, pos: &[f64], frc: &mut [f64], scratch: &mut [f64]) {
        let [mut f] = scratch_rows::<1>(scratch, r);
        for b in bonds {
            let (pi, pj) = (Rows::of(pos, b.i, r), Rows::of(pos, b.j, r));
            for l in 0..r {
                let d = pj.at(l) - pi.at(l);
                let dist = d.norm();
                f.put(l, masked(bond_force(b, d, dist), dist != 0.0));
            }
            f.add_to(frc, b.j);
            f.sub_from(frc, b.i);
        }
    }
    simd_dispatch!(bond_tier / bond_tier_impl / bond_tier_gen / bond_tier_avx2 / bond_tier_avx512;
        (bonds: &[Bond], r: usize, pos: &[f64], frc: &mut [f64], scratch: &mut [f64]));

    /// Angle tier swept across lanes in `angle_forces`' order, one
    /// vectorized pass per angle: geometry, θ by `det_acos`, forces, the
    /// zero-length-arm skip a masked `±0.0`.
    #[inline(always)]
    fn angle_tier_impl(
        angles: &[Angle],
        r: usize,
        pos: &[f64],
        frc: &mut [f64],
        scratch: &mut [f64],
    ) {
        let [mut fi, mut fk] = scratch_rows::<2>(scratch, r);
        for a in angles {
            let pi = Rows::of(pos, a.i, r);
            let pj = Rows::of(pos, a.j, r);
            let pk = Rows::of(pos, a.k_idx, r);
            for l in 0..r {
                let g = AngleGeometry::new(pi.at(l), pj.at(l), pk.at(l));
                let (f_i, f_k) = g.forces(a, g.theta());
                let live = !g.degenerate();
                fi.put(l, masked(f_i, live));
                fk.put(l, masked(f_k, live));
            }
            fi.add_to(frc, a.i);
            fk.add_to(frc, a.k_idx);
            // forces[j] -= fi + fk
            fi.add(&fk);
            fi.sub_from(frc, a.j);
        }
    }
    simd_dispatch!(angle_tier / angle_tier_impl / angle_tier_gen / angle_tier_avx2 / angle_tier_avx512;
        (angles: &[Angle], r: usize, pos: &[f64], frc: &mut [f64], scratch: &mut [f64]));

    /// Dihedral tier swept across lanes in `dihedral_forces`' order, one
    /// vectorized pass per dihedral: geometry, φ by `det_atan2`, dU/dφ by
    /// `det_sin`, forces, the collinear skip a masked `±0.0`.
    #[inline(always)]
    fn dihedral_tier_impl(
        dihedrals: &[Dihedral],
        r: usize,
        pos: &[f64],
        frc: &mut [f64],
        scratch: &mut [f64],
    ) {
        let [mut fi, mut fj, mut fk, mut fl] = scratch_rows::<4>(scratch, r);
        for d in dihedrals {
            let pi = Rows::of(pos, d.i, r);
            let pj = Rows::of(pos, d.j, r);
            let pk = Rows::of(pos, d.k_idx, r);
            let pl = Rows::of(pos, d.l, r);
            for l in 0..r {
                let g = DihedralGeometry::new(pi.at(l), pj.at(l), pk.at(l), pl.at(l));
                let [f_i, f_j, f_k, f_l] = g.forces(dihedral_du_dphi(d, g.phi()));
                let live = !g.degenerate();
                fi.put(l, masked(f_i, live));
                fj.put(l, masked(f_j, live));
                fk.put(l, masked(f_k, live));
                fl.put(l, masked(f_l, live));
            }
            fi.add_to(frc, d.i);
            fj.add_to(frc, d.j);
            fk.add_to(frc, d.k_idx);
            fl.add_to(frc, d.l);
        }
    }
    simd_dispatch!(dihedral_tier / dihedral_tier_impl / dihedral_tier_gen / dihedral_tier_avx2 / dihedral_tier_avx512;
        (dihedrals: &[Dihedral], r: usize, pos: &[f64], frc: &mut [f64], scratch: &mut [f64]));

    /// Per-lane max squared displacement against the rebuild reference.
    /// `f64::max` drops NaN, so a lane that went non-finite never
    /// triggers a rebuild (matching the scalar list, where NaN
    /// comparisons are false).
    #[inline(always)]
    fn max_disp_impl(n: usize, r: usize, pos: &[f64], refp: &[f64], maxd2: &mut [f64]) {
        for i in 0..n {
            let b = i * 3 * r;
            let px = &pos[b..b + r];
            let py = &pos[b + r..b + 2 * r];
            let pz = &pos[b + 2 * r..b + 3 * r];
            let rx = &refp[b..b + r];
            let ry = &refp[b + r..b + 2 * r];
            let rz = &refp[b + 2 * r..b + 3 * r];
            for l in 0..r {
                let dx = px[l] - rx[l];
                let dy = py[l] - ry[l];
                let dz = pz[l] - rz[l];
                let d2 = dx * dx + dy * dy + dz * dz;
                maxd2[l] = maxd2[l].max(d2);
            }
        }
    }
    simd_dispatch!(max_disp / max_disp_impl / max_disp_gen / max_disp_avx2 / max_disp_avx512;
        (n: usize, r: usize, pos: &[f64], refp: &[f64], maxd2: &mut [f64]));

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::forces::external::CylinderWall;

        /// Bit patterns of a kernel's outputs.
        trait Bits {
            fn bits(&self) -> Vec<u64>;
        }
        impl Bits for Vec<f64> {
            fn bits(&self) -> Vec<u64> {
                self.iter().map(|v| v.to_bits()).collect()
            }
        }
        impl Bits for (Vec<f64>, Vec<f64>) {
            fn bits(&self) -> Vec<u64> {
                let mut b = self.0.bits();
                b.extend(self.1.bits());
                b
            }
        }

        /// Run one kernel through its generic entry point and through
        /// every wider entry point this CPU can run, each on a fresh copy
        /// `$init` of the outputs (bound to `$o` in the arguments), and
        /// assert that all of them leave the same bits.
        macro_rules! assert_tiers_agree {
            ($gen:ident / $avx2:ident / $avx512:ident; $init:expr; |$o:ident| ($($arg:expr),* $(,)?)) => {{
                let mut want = $init;
                {
                    let $o = &mut want;
                    $gen($($arg),*);
                }
                #[cfg(target_arch = "x86_64")]
                {
                    if has_avx2() {
                        let mut got = $init;
                        {
                            let $o = &mut got;
                            // SAFETY: `has_avx2` detected AVX2 and FMA on this CPU.
                            unsafe { $avx2($($arg),*) };
                        }
                        assert_eq!(got.bits(), want.bits(), stringify!($avx2));
                    }
                    if has_avx512() {
                        let mut got = $init;
                        {
                            let $o = &mut got;
                            // SAFETY: `has_avx512` detected every AVX-512 subset the tier enables.
                            unsafe { $avx512($($arg),*) };
                        }
                        assert_eq!(got.bits(), want.bits(), stringify!($avx512));
                    }
                }
            }};
        }

        /// DESIGN §16.5: every SIMD tier gives the same bits. The fixture
        /// is the bonded strand spread over 19 lanes (two full AVX-512
        /// vectors and a three-lane tail) with a coincident bonded pair in
        /// lane 3, every bead at the origin in lane 5, and in lanes 7 and
        /// 9 the first two angles at `det_acos`'s select boundaries
        /// (cos θ = −1 then 1/2, and +1 then −1/2), so the masked adds,
        /// the FENE cap select and the acos fold run in every tier.
        #[test]
        fn every_simd_tier_gives_the_same_bits() {
            let (sys, ff) = super::super::tests::bonded_parts();
            let topo = ff.topology();
            let (n, r) = (sys.len(), 19usize);
            let wobble = |i: usize, a: usize, l: usize| {
                0.3 * (1.7 * l as f64 + 0.9 * i as f64 + 2.3 * a as f64).sin()
            };
            let mut pos = vec![0.0; 3 * n * r];
            let mut vel = vec![0.0; 3 * n * r];
            let mut frc = vec![0.0; 3 * n * r];
            for (i, p) in sys.positions().iter().enumerate() {
                for (a, c) in [p.x, p.y, p.z].into_iter().enumerate() {
                    for l in 0..r {
                        let k = (i * 3 + a) * r + l;
                        pos[k] = c + wobble(i, a, l);
                        vel[k] = wobble(i + 3, a, l);
                        frc[k] = 10.0 * wobble(i, a + 5, l);
                    }
                }
            }
            for a in 0..3 {
                pos[(3 + a) * r + 3] = pos[a * r + 3];
                for i in 0..n {
                    pos[(i * 3 + a) * r + 5] = 0.0;
                }
            }
            // Beads 0–3 at exactly representable boundary geometry: bead 0
            // on the far side of the apex or folded back, bead 3 off the
            // apex (1, 0, 0) along the float nearest 60° or 120°.
            let y = 0.866_025_403_784_438_7;
            for (l, b0, b3x) in [(7, -1.0, 0.5), (9, 0.5, 1.5)] {
                let beads = [[b0, 0.0, 0.0], [0.0; 3], [1.0, 0.0, 0.0], [b3x, y, 0.0]];
                for (i, p) in beads.iter().enumerate() {
                    for (a, &c) in p.iter().enumerate() {
                        pos[(i * 3 + a) * r + l] = c;
                    }
                }
            }
            let refp: Vec<f64> = pos.iter().map(|p| p + 0.05).collect();
            let inv_m: Vec<f64> = (0..n).map(|i| 1.0 / (12.0 + i as f64)).collect();
            let seeds: Vec<u64> = (0..r as u64).map(|l| 0x5eed + l).collect();
            let c1: Vec<f64> = (0..r).map(|l| 0.9 + 0.001 * l as f64).collect();
            let sigma: Vec<f64> = (0..n * r).map(|k| 0.01 * (1 + k % 7) as f64).collect();
            let species = vec![0; n];
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| (i + 1..n as u32).map(move |j| (i, j)))
                .collect();
            let prefs: Vec<f64> = (0..pairs.len()).map(|k| 50.0 + k as f64).collect();
            let lj = LjParams::wca(1.0, 0.8);
            let dh = Some(DebyeHuckel {
                lambda: 3.0,
                epsilon_r: 80.0,
            });
            let wall = CylinderWall {
                radius: 0.4,
                k: 3.0,
            };
            let mut scratch = vec![0.0; SCRATCH_ROWS * r];

            assert_tiers_agree!(baoab_pre_gen / baoab_pre_avx2 / baoab_pre_avx512;
                (pos.clone(), vel.clone());
                |o| (n, r, 7, 0.02, 0.005, &mut o.0, &mut o.1, &frc, &inv_m, &seeds, &c1, &sigma));
            assert_tiers_agree!(baoab_post_gen / baoab_post_avx2 / baoab_post_avx512;
                vel.clone();
                |o| (n, r, 0.02, o, &frc, &inv_m));
            assert_tiers_agree!(restraint_gen / restraint_avx2 / restraint_avx512;
                frc.clone();
                |o| (2 * 3 * r, r, [1.0, -0.5, 0.25], [true, false, true], 4.0, &pos, o));
            assert_tiers_agree!(external_gen / external_avx2 / external_avx512;
                frc.clone();
                |o| (&wall, &pos, &species, o, n, r));
            assert_tiers_agree!(lj_tier_gen / lj_tier_avx2 / lj_tier_avx512;
                frc.clone();
                |o| (&pairs, r, lj, lj.cutoff * lj.cutoff, &pos, o, &mut scratch));
            assert_tiers_agree!(ljdh_tier_gen / ljdh_tier_avx2 / ljdh_tier_avx512;
                frc.clone();
                |o| (&pairs, &prefs, r, lj, dh, lj.cutoff * lj.cutoff, 16.0, &pos, o, &mut scratch));
            assert_tiers_agree!(max_disp_gen / max_disp_avx2 / max_disp_avx512;
                vec![0.0; r];
                |o| (n, r, &pos, &refp, o));
            assert_tiers_agree!(bond_tier_gen / bond_tier_avx2 / bond_tier_avx512;
                frc.clone();
                |o| (topo.bonds(), r, &pos, o, &mut scratch));
            assert_tiers_agree!(angle_tier_gen / angle_tier_avx2 / angle_tier_avx512;
                frc.clone();
                |o| (topo.angles(), r, &pos, o, &mut scratch));
            assert_tiers_agree!(dihedral_tier_gen / dihedral_tier_avx2 / dihedral_tier_avx512;
                frc.clone();
                |o| (topo.dihedrals(), r, &pos, o, &mut scratch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::nonbonded::NonBonded;
    use crate::forces::Restraint;
    use crate::integrate::LangevinBaoab;
    use crate::sim::BiasForce;
    use crate::system::System;
    use crate::topology::Topology;

    /// All positions of lane `l`, in particle order.
    fn lane_positions(b: &BatchSim, l: usize) -> Vec<Vec3> {
        (0..b.n).map(|i| b.pos(i, l)).collect()
    }

    /// All velocities of lane `l`, in particle order.
    fn lane_velocities(b: &BatchSim, l: usize) -> Vec<Vec3> {
        (0..b.n).map(|i| b.vel(i, l)).collect()
    }

    /// A moving z-spring on one particle — the scalar side of the bias
    /// bit-identity tests.
    struct ZSpring {
        k: f64,
        z0: f64,
        v: f64,
    }
    impl BiasForce for ZSpring {
        fn apply(&self, p: &[Vec3], forces: &mut [Vec3], t: f64) -> f64 {
            let dz = p[0].z - (self.z0 + self.v * t);
            forces[0].z += -2.0 * self.k * dz;
            0.0
        }
    }

    fn restrained_parts() -> (System, ForceField) {
        let mut sys = System::new();
        sys.add_particle(Vec3::new(0.3, -0.2, 0.5), 12.0, 0.0, 0);
        sys.add_particle(Vec3::new(-0.4, 0.6, -0.1), 30.0, 0.0, 0);
        let ff = ForceField::new(Topology::new())
            .with_restraint(Restraint::harmonic(0, Vec3::zero(), 1.5))
            .with_restraint(Restraint {
                index: 1,
                anchor: Vec3::new(0.0, 0.5, 0.0),
                k: 2.0,
                axes: [true, true, false],
            });
        (sys, ff)
    }

    /// Bonded chain with alternating charges and WCA+DH non-bonded terms:
    /// exercises every kernel family plus shared-list rebuilds.
    fn chain_parts(n: usize) -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        for i in 0..n {
            let f = i as f64;
            sys.add_particle(
                Vec3::new(
                    f * 1.1 + 0.05 * (f * 0.7).sin(),
                    0.2 * (f * 1.3).cos(),
                    0.1 * f,
                ),
                15.0,
                if i % 3 == 0 { 0.0 } else { -1.0 },
                0,
            );
            if i > 0 {
                topo.add_harmonic_bond(i - 1, i, 1.1, 40.0);
            }
            if i > 1 {
                topo.add_angle(i - 2, i - 1, i, 2.6, 6.0);
            }
        }
        let ff = ForceField::new(topo)
            .with_nonbonded(
                NonBonded::new(LjParams::wca(1.0, 0.8), 4.0, 0.4).with_debye_huckel(3.0, 80.0),
            )
            .with_restraint(Restraint::harmonic(0, sys.positions()[0], 5.0));
        (sys, ff)
    }

    fn lane_set(seeds: &[u64]) -> Vec<LaneThermostat> {
        seeds
            .iter()
            .enumerate()
            .map(|(k, &s)| LaneThermostat {
                temperature: 300.0 + 20.0 * k as f64,
                gamma: 5.0,
                noise_seed: s,
            })
            .collect()
    }

    /// Run lane `l`'s scalar twin: same system/ff factory, per-lane
    /// thermostat, same bias, same step count.
    fn scalar_run(
        parts: impl Fn() -> (System, ForceField),
        t: &LaneThermostat,
        bias: Option<(f64, f64, f64)>,
        steps: u64,
        dt: f64,
    ) -> (Vec<Vec3>, Vec<Vec3>) {
        let (sys, ff) = parts();
        let mut sim = Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(t.temperature, t.gamma, t.noise_seed)),
            dt,
        );
        if let Some((k, z0, v)) = bias {
            sim.set_bias(Some(Box::new(ZSpring { k, z0, v })));
        }
        for _ in 0..steps {
            sim.step_once();
        }
        (
            sim.system().positions().to_vec(),
            sim.system().velocities().to_vec(),
        )
    }

    fn batch_run(
        parts: impl Fn() -> (System, ForceField),
        lanes: &[LaneThermostat],
        bias: Option<(f64, f64, f64)>,
        steps: u64,
        dt: f64,
    ) -> BatchSim {
        let (sys, ff) = parts();
        let template = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), dt);
        let mut bsim = BatchSim::new(template, lanes);
        let mut bias_fn = move |t: f64, lf: &mut LaneForces<'_>| {
            if let Some((k, z0, v)) = bias {
                for l in 0..lf.stride() {
                    let dz = lf.pos_z_row(0)[l] - (z0 + v * t);
                    lf.force_z_row(0)[l] += -2.0 * k * dz;
                }
            }
        };
        bsim.refresh_forces(&mut bias_fn);
        for _ in 0..steps {
            bsim.step_once(&mut bias_fn);
        }
        bsim
    }

    fn assert_lane_matches(
        bsim: &BatchSim,
        l: usize,
        scalar_pos: &[Vec3],
        scalar_vel: &[Vec3],
        label: &str,
    ) {
        assert_eq!(
            lane_positions(bsim, l),
            scalar_pos,
            "{label}: lane {l} positions"
        );
        assert_eq!(
            lane_velocities(bsim, l),
            scalar_vel,
            "{label}: lane {l} velocities"
        );
    }

    #[test]
    fn restrained_lanes_match_scalar_bitwise() {
        let lanes = lane_set(&[11, 22, 33]);
        let bsim = batch_run(restrained_parts, &lanes, None, 120, 0.01);
        for (l, t) in lanes.iter().enumerate() {
            let (p, v) = scalar_run(restrained_parts, t, None, 120, 0.01);
            assert_lane_matches(&bsim, l, &p, &v, "restrained");
        }
    }

    #[test]
    fn chain_nonbonded_lanes_match_scalar_bitwise() {
        let lanes = lane_set(&[5, 17, 29, 41]);
        let bsim = batch_run(|| chain_parts(10), &lanes, None, 250, 0.005);
        assert!(
            bsim.rebuild_count() >= 1,
            "test must exercise shared-list rebuilds"
        );
        for (l, t) in lanes.iter().enumerate() {
            let (p, v) = scalar_run(|| chain_parts(10), t, None, 250, 0.005);
            assert_lane_matches(&bsim, l, &p, &v, "chain");
        }
    }

    #[test]
    fn biased_lanes_match_scalar_bitwise() {
        let bias = Some((3.0, 0.5, 2.0));
        let lanes = lane_set(&[7, 13]);
        let bsim = batch_run(|| chain_parts(6), &lanes, bias, 150, 0.01);
        for (l, t) in lanes.iter().enumerate() {
            let (p, v) = scalar_run(|| chain_parts(6), t, bias, 150, 0.01);
            assert_lane_matches(&bsim, l, &p, &v, "biased");
        }
    }

    #[test]
    fn lane_trajectory_independent_of_batch_size() {
        let solo = lane_set(&[22]);
        let trio = lane_set(&[11, 22, 33]);
        // `lane_set` varies temperature by slot; pin lane 1's params to
        // the solo lane's so only batch size differs.
        let trio = vec![trio[0], solo[0], trio[2]];
        let b1 = batch_run(|| chain_parts(8), &solo, None, 100, 0.01);
        let b3 = batch_run(|| chain_parts(8), &trio, None, 100, 0.01);
        assert_eq!(lane_positions(&b1, 0), lane_positions(&b3, 1));
        assert_eq!(lane_velocities(&b1, 0), lane_velocities(&b3, 1));
    }

    #[test]
    fn dead_lane_does_not_perturb_live_lanes() {
        let lanes = lane_set(&[3, 9, 27]);
        let (sys, ff) = chain_parts(8);
        let template = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), 0.01);
        let mut bsim = BatchSim::new(template, &lanes);
        let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
        bsim.refresh_forces(&mut no_bias);
        for _ in 0..40 {
            bsim.step_once(&mut no_bias);
        }
        // Poison lane 1 mid-run the way a blowup would and mark it dead.
        let r = bsim.stride();
        for row in 0..3 * bsim.n_particles() {
            bsim.pos[row * r + 1] = f64::NAN;
            bsim.vel[row * r + 1] = f64::NAN;
        }
        bsim.mark_dead(1);
        assert!(!bsim.lane_is_finite(1));
        for _ in 0..160 {
            bsim.step_once(&mut no_bias);
        }
        for (l, t) in lanes.iter().enumerate() {
            if l == 1 {
                continue;
            }
            let (p, v) = scalar_run(|| chain_parts(8), t, None, 200, 0.01);
            assert_lane_matches(&bsim, l, &p, &v, "dead-lane");
        }
    }

    #[test]
    fn lane_is_finite_tracks_state() {
        let lanes = lane_set(&[1, 2]);
        let bsim = batch_run(restrained_parts, &lanes, None, 10, 0.01);
        assert!(bsim.lane_is_finite(0) && bsim.lane_is_finite(1));
    }

    fn lane_bits(bsim: &BatchSim, l: usize) -> (Vec<[u64; 3]>, Vec<[u64; 3]>) {
        (
            bits(&lane_positions(bsim, l)),
            bits(&lane_velocities(bsim, l)),
        )
    }

    #[test]
    fn pad_lanes_copy_their_source_bitwise() {
        let bias = Some((3.0, 0.5, 2.0));
        let lanes = lane_set(&[7, 13, 19]);
        let bsim = batch_run(|| chain_parts(8), &lanes, bias, 150, 0.01);
        assert_eq!((bsim.n_lanes(), bsim.stride()), (3, LANE_PAD));
        assert!(bsim.rebuild_count() >= 1, "test must exercise rebuilds");
        for p in bsim.n_lanes()..bsim.stride() {
            assert_eq!(
                lane_bits(&bsim, p),
                lane_bits(&bsim, PAD_SOURCE),
                "pad lane {p}"
            );
        }
        assert_eq!(bsim.pad_divergence(), None);
        let full = batch_run(|| chain_parts(8), &lane_set(&[1; LANE_PAD]), None, 0, 0.01);
        assert_eq!(full.stride(), LANE_PAD, "a whole vector is not padded");
    }

    /// A bias that writes into one pad lane (a kernel leaking lane data)
    /// breaks the copy, and `pad_divergence` names the lane.
    #[test]
    fn pad_divergence_finds_a_leak_into_a_pad_lane() {
        let leak = |_t: f64, lf: &mut LaneForces<'_>| lf.force_z_row(2)[6] += 1e-9;
        let (sys, ff) = chain_parts(6);
        let template = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), 0.01);
        let mut bsim = BatchSim::new(template, &lane_set(&[7, 13, 19]));
        bsim.refresh_forces(&mut { leak });
        bsim.step_once(&mut { leak });
        assert_eq!(bsim.pad_divergence().map(|(p, _)| p), Some(6));
    }

    /// Pad lanes never feed the shared pair list: once their source lane
    /// is dead, they wander on as its unpoisoned trajectory, and the
    /// batch with no live lane left never rebuilds again.
    #[test]
    fn pad_lanes_never_trigger_a_rebuild() {
        let lanes = lane_set(&[5]);
        let (sys, ff) = chain_parts(10);
        let template = Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), 0.005);
        let mut bsim = BatchSim::new(template, &lanes);
        let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
        bsim.refresh_forces(&mut no_bias);
        for _ in 0..20 {
            bsim.step_once(&mut no_bias);
        }
        let r = bsim.stride();
        for row in 0..3 * bsim.n_particles() {
            bsim.pos[row * r + PAD_SOURCE] = f64::NAN;
            bsim.vel[row * r + PAD_SOURCE] = f64::NAN;
        }
        bsim.mark_dead(PAD_SOURCE);
        let rebuilds = bsim.rebuild_count();
        for _ in 0..230 {
            bsim.step_once(&mut no_bias);
        }
        assert!(bsim.lane_is_finite(r - 1), "pad lanes keep their own state");
        assert_eq!(bsim.rebuild_count(), rebuilds);
    }

    /// A live lane that jumps to positions no cell list can bin faults at
    /// the rebuild it triggers, where its scalar twin's `CellList::bin`
    /// panics, and the other lanes go on bit for bit.
    #[test]
    fn an_unbinnable_lane_faults_instead_of_panicking() {
        let lanes = lane_set(&[3, 9, 27]);
        for poison in [f64::INFINITY, 1e12] {
            let (sys, ff) = chain_parts(8);
            let template =
                Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 0)), 0.01);
            let mut bsim = BatchSim::new(template, &lanes);
            let mut no_bias = |_t: f64, _lf: &mut LaneForces<'_>| {};
            bsim.refresh_forces(&mut no_bias);
            for _ in 0..40 {
                bsim.step_once(&mut no_bias);
            }
            let r = bsim.stride();
            bsim.pos[r + 1] = poison;
            bsim.step_once(&mut no_bias);
            assert!(bsim.lane_faulted(1), "poison {poison}");
            assert!(!bsim.lane_faulted(0) && !bsim.lane_faulted(2));
            for _ in 0..159 {
                bsim.step_once(&mut no_bias);
            }
            for l in [0, 2] {
                let (p, v) = scalar_run(|| chain_parts(8), &lanes[l], None, 200, 0.01);
                assert_lane_matches(&bsim, l, &p, &v, "faulted-lane");
            }
        }
    }

    /// Every bonded term family on one 7-bead strand: harmonic and FENE
    /// bonds (bond 2–3 starts stretched past the 0.99 R0 cap), angles,
    /// and cosine dihedrals of multiplicity 1 and 3.
    pub(super) fn bonded_parts() -> (System, ForceField) {
        let mut sys = System::new();
        let mut topo = Topology::new();
        for i in 0..7usize {
            let f = i as f64;
            sys.add_particle(
                Vec3::new(1.1 * f, 0.5 * (1.3 * f).cos(), 0.5 * (1.3 * f).sin()),
                15.0,
                0.0,
                0,
            );
        }
        topo.add_harmonic_bond(0, 1, 1.1, 40.0);
        topo.add_fene_bond(1, 2, 1.8, 1.5);
        topo.add_fene_bond(2, 3, 1.1, 1.0);
        topo.add_harmonic_bond(3, 4, 1.2, 30.0);
        topo.add_fene_bond(4, 5, 1.8, 1.5);
        topo.add_harmonic_bond(5, 6, 1.0, 40.0);
        for i in 0..5 {
            topo.add_angle(i, i + 1, i + 2, 2.2, 5.0);
        }
        topo.add_dihedral(0, 1, 2, 3, 1, 0.4, 1.5);
        topo.add_dihedral(1, 2, 3, 4, 3, 0.0, 0.9);
        topo.add_dihedral(2, 3, 4, 5, 1, std::f64::consts::PI, 1.2);
        topo.add_dihedral(3, 4, 5, 6, 3, 0.5, 0.7);
        (sys, ForceField::new(topo))
    }

    fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    #[test]
    fn bonded_lanes_match_scalar_bitwise() {
        let (sys, ff) = bonded_parts();
        let b = ff.topology().bonds()[2];
        let d = (sys.positions()[b.j] - sys.positions()[b.i]).norm();
        assert!(d > 0.99 * b.r0, "bond 2-3 at {d} Å must start past the cap");
        let lanes = lane_set(&[4, 8, 15, 16, 23]);
        let bsim = batch_run(bonded_parts, &lanes, None, 200, 0.005);
        for (l, t) in lanes.iter().enumerate() {
            let (p, v) = scalar_run(bonded_parts, t, None, 200, 0.005);
            assert!(bsim.lane_is_finite(l), "lane {l} blew up");
            assert_eq!(
                bits(&lane_positions(&bsim, l)),
                bits(&p),
                "lane {l} positions"
            );
            assert_eq!(
                bits(&lane_velocities(&bsim, l)),
                bits(&v),
                "lane {l} velocities"
            );
        }
    }

    /// Degenerate bonded geometry, one case per lane: the scalar kernels
    /// skip the term, the lane tiers add masked zeros, and the forces
    /// agree bit for bit in every lane.
    #[test]
    fn degenerate_bonded_geometry_matches_evaluate_bitwise() {
        let (sys, _) = bonded_parts();
        let base = sys.positions().to_vec();
        let mut cases = vec![base.clone(); 5];
        // Coincident harmonic pair 0–1: bond r = 0, a zero-length arm of
        // angle 0–1–2, and a zero b1 in dihedral 0–1–2–3.
        cases[1][1] = cases[1][0];
        // Beads 1, 2, 3 collinear: dihedrals 0–1–2–3 and 1–2–3–4 lose a
        // plane normal, and angle 1–2–3 is straight.
        for (p, i) in cases[2][1..4].iter_mut().zip(1..) {
            *p = Vec3::new(1.1 * f64::from(i), 0.0, 0.0);
        }
        // Coincident FENE pair 4–5.
        cases[3][5] = cases[3][4];
        // Every bead at the origin.
        cases[4] = vec![Vec3::zero(); base.len()];

        let lanes = lane_set(&[1, 2, 3, 4, 5]);
        let template = Simulation::new(
            sys,
            bonded_parts().1,
            Box::new(LangevinBaoab::new(300.0, 5.0, 0)),
            0.01,
        );
        let mut bsim = BatchSim::new(template, &lanes);
        let r = bsim.stride();
        for (l, case) in cases.iter().enumerate() {
            for (i, p) in case.iter().enumerate() {
                let b = i * 3 * r;
                bsim.pos[b + l] = p.x;
                bsim.pos[b + r + l] = p.y;
                bsim.pos[b + 2 * r + l] = p.z;
            }
        }
        bsim.refresh_forces(&mut |_t: f64, _lf: &mut LaneForces<'_>| {});
        for (l, case) in cases.iter().enumerate() {
            let (mut sys, mut ff) = bonded_parts();
            sys.positions_mut().copy_from_slice(case);
            ff.evaluate(&mut sys);
            let lane: Vec<Vec3> = (0..bsim.n)
                .map(|i| {
                    let b = i * 3 * r;
                    Vec3::new(
                        bsim.frc[b + l],
                        bsim.frc[b + r + l],
                        bsim.frc[b + 2 * r + l],
                    )
                })
                .collect();
            assert!(lane.iter().all(|f| f.is_finite()), "lane {l}: {lane:?}");
            assert_eq!(bits(&lane), bits(sys.forces()), "lane {l} forces");
        }
    }
}
