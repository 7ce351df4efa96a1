//! Non-bonded pair interactions: Lennard-Jones / WCA excluded volume plus
//! optional Debye–Hückel screened electrostatics, evaluated serially over
//! a cached Verlet list.
//!
//! The coarse-grained ssDNA model uses WCA (purely repulsive LJ, cut at
//! 2^(1/6) σ) for excluded volume and Debye–Hückel for backbone charges in
//! implicit 1 M KCl — the electrolyte used in hemolysin translocation
//! experiments the paper builds on.
//!
//! # Tiered pair list
//!
//! The hot path does not re-ask per pair per step whether a pair is
//! excluded, whether electrostatics is enabled, or whether either charge
//! is zero. Those predicates only change when the Verlet list rebuilds
//! (or the charge/exclusion data changes), so at rebuild time the cached
//! pairs are compiled into two tiers, each sorted by `(i, j)` for
//! cache-friendly position access:
//!
//! - **LJ tier** — pairs needing only excluded-volume LJ (electrostatics
//!   disabled, or at least one charge is exactly zero);
//! - **LJ+DH tier** — pairs needing LJ and Debye–Hückel, with the pair
//!   prefactor `C·qᵢ·qⱼ/ε_r` precomputed per pair.
//!
//! Excluded pairs are dropped at compile time and never revisited. The
//! per-pair arithmetic is bitwise-identical to the classic per-pair-checked
//! loop (kept in this module's tests as the oracle the tiered kernel is
//! checked against); only the summation order differs, so energies/forces
//! agree to FP-reassociation accuracy and evaluation is
//! bitwise-deterministic across runs.

use crate::neighbor::VerletList;
use crate::observables::KernelCounters;
use crate::topology::Topology;
use crate::vec3::Vec3;

/// Lennard-Jones parameters (single species-independent set; the CG model
/// uses one bead size, matching the pore builder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LjParams {
    /// Well depth ε (kcal/mol).
    pub epsilon: f64,
    /// Diameter σ (Å).
    pub sigma: f64,
    /// Interaction cutoff (Å). WCA uses 2^(1/6)σ.
    pub cutoff: f64,
    /// Shift the potential so U(cutoff) = 0 (removes the energy step).
    pub shifted: bool,
    /// Precomputed unshifted energy at the cutoff, `U_raw(cutoff²)` —
    /// subtracted per pair when `shifted` instead of being recomputed on
    /// every evaluation. Kept private so it cannot drift out of sync with
    /// the other parameters; use the constructors.
    shift_energy: f64,
}

impl LjParams {
    /// General constructor: computes the cutoff-shift constant once.
    pub fn new(sigma: f64, epsilon: f64, cutoff: f64, shifted: bool) -> Self {
        let mut p = LjParams {
            epsilon,
            sigma,
            cutoff,
            shifted,
            shift_energy: 0.0,
        };
        p.shift_energy = p.raw_energy(cutoff * cutoff);
        p
    }

    /// Full attractive LJ with the conventional 2.5σ cutoff, shifted.
    pub fn lj(sigma: f64, epsilon: f64) -> Self {
        Self::new(sigma, epsilon, 2.5 * sigma, true)
    }

    /// Purely repulsive WCA: cutoff at the LJ minimum 2^(1/6)σ, shifted so
    /// the potential is continuous and ≥ 0.
    pub fn wca(sigma: f64, epsilon: f64) -> Self {
        // spice-lint: allow(N003) construction constant: the cutoff 2^(1/6)σ, computed once
        Self::new(sigma, epsilon, 2.0f64.powf(1.0 / 6.0) * sigma, true)
    }

    /// The precomputed `U_raw(cutoff²)` shift constant.
    pub fn shift_energy(&self) -> f64 {
        self.shift_energy
    }

    /// Unshifted pair energy at squared distance `r2` (no cutoff check),
    /// by [`energy_force`](Self::energy_force)'s expression, so a shifted
    /// potential is exactly zero at its cutoff.
    #[inline]
    pub(crate) fn raw_energy(&self, r2: f64) -> f64 {
        let s2 = self.sigma * self.sigma * (1.0 / r2);
        let s6 = s2 * s2 * s2;
        4.0 * self.epsilon * (s6 * s6 - s6)
    }

    /// Energy (with shift applied if configured) and the scalar
    /// `f/r` factor such that `force_on_j = (r_j - r_i) * (f/r)`. One
    /// division, `1/r²`, shared by both.
    #[inline(always)]
    pub fn energy_force(&self, r2: f64) -> (f64, f64) {
        let inv_r2 = 1.0 / r2;
        let s2 = self.sigma * self.sigma * inv_r2;
        let s6 = s2 * s2 * s2;
        let mut e = 4.0 * self.epsilon * (s6 * s6 - s6);
        if self.shifted {
            e -= self.shift_energy;
        }
        // dU/dr = -24 ε (2 s12 - s6) / r ⇒ f/r = 24 ε (2 s12 - s6) / r²
        let f_over_r = 24.0 * self.epsilon * (2.0 * s6 * s6 - s6) * inv_r2;
        (e, f_over_r)
    }
}

/// Debye–Hückel screened Coulomb: `U = C q₁q₂ exp(-r/λ) / (ε_r r)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebyeHuckel {
    /// Debye screening length λ (Å); ≈3 Å at 1 M KCl, ≈10 Å at 0.1 M.
    pub lambda: f64,
    /// Relative dielectric constant (≈80 for water).
    pub epsilon_r: f64,
}

/// Coulomb constant in kcal·mol⁻¹·Å·e⁻²: `e²/(4πε₀) = 332.06`.
pub const COULOMB_KCAL: f64 = 332.063_71;

impl DebyeHuckel {
    /// The pair prefactor `C·qᵢ·qⱼ/ε_r`, in the same operation order the
    /// per-pair path historically used (bitwise-stable).
    #[inline]
    pub fn prefactor(&self, qi: f64, qj: f64) -> f64 {
        COULOMB_KCAL * qi * qj / self.epsilon_r
    }

    /// Energy and `f/r` factor for charges `qi`, `qj` at squared
    /// separation `r2`.
    #[inline]
    pub fn energy_force(&self, qi: f64, qj: f64, r2: f64) -> (f64, f64) {
        self.energy_force_pref(self.prefactor(qi, qj), r2)
    }

    /// Same as [`energy_force`](Self::energy_force) with the charge
    /// prefactor already computed (tiered hot path). Its one division is
    /// `1/r²`, the same expression as [`LjParams::energy_force`]'s, so
    /// where both inline into one pair loop (the LJ+DH tiers) it is
    /// computed once; `1/r` is `r·(1/r²)`, and `1/λ` is loop-invariant.
    #[inline(always)]
    pub fn energy_force_pref(&self, pref: f64, r2: f64) -> (f64, f64) {
        let inv_r2 = 1.0 / r2;
        let r = r2.sqrt();
        let inv_r = r * inv_r2;
        let inv_lambda = 1.0 / self.lambda;
        // det_exp, not libm exp: bit-reproducible across platforms and
        // auto-vectorizable when this inlines into a replica-lane sweep.
        let screen = crate::detmath::det_exp(-r * inv_lambda);
        let e = pref * screen * inv_r;
        // dU/dr = -pref screen (1/r² + 1/(λ r)) ⇒ f/r = pref·screen·(1/r³ + 1/(λ r²))
        let f_over_r = pref * screen * (inv_r2 * (inv_r + inv_lambda));
        (e, f_over_r)
    }
}

/// The compiled, tiered form of the Verlet pair cache. Rebuilt whenever
/// the underlying list rebuilds or the charge/exclusion inputs change.
#[derive(Debug, Default)]
struct TierList {
    /// Pairs needing only LJ, sorted by `(i, j)`.
    lj_pairs: Vec<(u32, u32)>,
    /// Pairs needing LJ + Debye–Hückel, sorted by `(i, j)`.
    ljdh_pairs: Vec<(u32, u32)>,
    /// Per-pair DH prefactor, parallel to `ljdh_pairs`.
    ljdh_pref: Vec<f64>,
    /// Inputs the compilation depends on, for staleness detection.
    charges_sig: Vec<f64>,
    exclusion_sig: usize,
    valid: bool,
}

impl TierList {
    fn stale(&self, rebuilt: bool, topology: &Topology, charges: &[f64]) -> bool {
        rebuilt
            || !self.valid
            || self.exclusion_sig != topology.exclusion_count()
            || self.charges_sig != charges
    }

    fn compile(
        &mut self,
        pairs: &[(u32, u32)],
        topology: &Topology,
        charges: &[f64],
        dh: Option<DebyeHuckel>,
    ) {
        self.lj_pairs.clear();
        self.ljdh_pairs.clear();
        self.ljdh_pref.clear();
        let mut dh_tagged: Vec<((u32, u32), f64)> = Vec::new();
        for &(i, j) in pairs {
            let (iu, ju) = (i as usize, j as usize);
            if topology.is_excluded(iu, ju) {
                continue;
            }
            match dh {
                Some(dh) if charges[iu] != 0.0 && charges[ju] != 0.0 => {
                    dh_tagged.push(((i, j), dh.prefactor(charges[iu], charges[ju])));
                }
                _ => self.lj_pairs.push((i, j)),
            }
        }
        self.lj_pairs.sort_unstable();
        dh_tagged.sort_unstable_by_key(|&(p, _)| p);
        for (p, pref) in dh_tagged {
            self.ljdh_pairs.push(p);
            self.ljdh_pref.push(pref);
        }

        self.charges_sig.clear();
        self.charges_sig.extend_from_slice(charges);
        self.exclusion_sig = topology.exclusion_count();
        self.valid = true;
    }

    fn pair_count(&self) -> u64 {
        (self.lj_pairs.len() + self.ljdh_pairs.len()) as u64
    }
}

/// Non-bonded interaction evaluator owning its Verlet list.
#[derive(Debug)]
pub struct NonBonded {
    lj: LjParams,
    dh: Option<DebyeHuckel>,
    list: VerletList,
    tiers: TierList,
    /// Kernel work so far; exported with [`KernelCounters::publish`].
    counters: KernelCounters,
}

impl NonBonded {
    /// Create an evaluator with LJ parameters, a neighbor-list cutoff (must
    /// be ≥ both the LJ and electrostatic ranges of interest) and skin.
    pub fn new(lj: LjParams, list_cutoff: f64, skin: f64) -> Self {
        assert!(
            list_cutoff + 1e-12 >= lj.cutoff,
            "neighbor list cutoff {list_cutoff} below LJ cutoff {}",
            lj.cutoff
        );
        NonBonded {
            lj,
            dh: None,
            list: VerletList::new(list_cutoff, skin),
            tiers: TierList::default(),
            counters: KernelCounters::default(),
        }
    }

    /// Enable screened electrostatics (λ in Å, relative dielectric).
    pub fn with_debye_huckel(mut self, lambda: f64, epsilon_r: f64) -> Self {
        self.dh = Some(DebyeHuckel { lambda, epsilon_r });
        self.tiers.valid = false;
        self
    }

    /// Number of neighbor-list rebuilds so far.
    pub fn rebuild_count(&self) -> u64 {
        self.list.rebuild_count()
    }

    /// Aggregate kernel counters (rebuilds, invocations, pairs evaluated).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    /// LJ parameters (batched engine mirrors this evaluator's physics).
    pub(crate) fn lj_params(&self) -> LjParams {
        self.lj
    }

    /// Debye–Hückel model, if electrostatics are enabled.
    pub(crate) fn debye(&self) -> Option<DebyeHuckel> {
        self.dh
    }

    /// Neighbor-list cutoff (list radius excludes skin).
    pub(crate) fn list_cutoff(&self) -> f64 {
        self.list.cutoff()
    }

    /// Neighbor-list skin margin.
    pub(crate) fn list_skin(&self) -> f64 {
        self.list.skin()
    }

    /// Evaluate LJ + electrostatics; returns `(lj_energy, coulomb_energy)`.
    pub fn compute(
        &mut self,
        topology: &Topology,
        positions: &[Vec3],
        charges: &[f64],
        _species: &[u32],
        forces: &mut [Vec3],
    ) -> (f64, f64) {
        let rebuilt = self.list.update(positions);
        if rebuilt {
            self.counters.neighbor_rebuilds += 1;
        }
        if self.tiers.stale(rebuilt, topology, charges) {
            self.tiers
                .compile(self.list.pairs(), topology, charges, self.dh);
        }
        self.counters.kernel_invocations += 1;
        self.counters.pairs_evaluated += self.tiers.pair_count();

        let lj_cut2 = self.lj.cutoff * self.lj.cutoff;
        let es_cut2 = self.list.cutoff() * self.list.cutoff();
        let (e_lj_a, _) = lj_tier_kernel(&self.tiers.lj_pairs, positions, self.lj, lj_cut2, forces);
        let (e_lj_b, e_c) = ljdh_tier_kernel(
            &self.tiers.ljdh_pairs,
            &self.tiers.ljdh_pref,
            positions,
            self.lj,
            self.dh,
            lj_cut2,
            es_cut2,
            forces,
        );
        (e_lj_a + e_lj_b, e_c)
    }
}

/// LJ-only tier: no exclusion, electrostatics, or charge tests — those
/// were resolved when the tier was compiled.
fn lj_tier_kernel(
    pairs: &[(u32, u32)],
    positions: &[Vec3],
    lj: LjParams,
    lj_cut2: f64,
    forces: &mut [Vec3],
) -> (f64, f64) {
    let mut e_lj = 0.0;
    for &(i, j) in pairs {
        let (i, j) = (i as usize, j as usize);
        let d = positions[j] - positions[i];
        let r2 = d.norm_sq();
        if r2 == 0.0 || r2 > lj_cut2 {
            continue;
        }
        let (e, f) = lj.energy_force(r2);
        e_lj += e;
        let fv = d * f;
        forces[j] += fv;
        forces[i] -= fv;
    }
    (e_lj, 0.0)
}

/// LJ + Debye–Hückel tier with precompiled per-pair prefactors.
#[allow(clippy::too_many_arguments)]
fn ljdh_tier_kernel(
    pairs: &[(u32, u32)],
    prefs: &[f64],
    positions: &[Vec3],
    lj: LjParams,
    dh: Option<DebyeHuckel>,
    lj_cut2: f64,
    es_cut2: f64,
    forces: &mut [Vec3],
) -> (f64, f64) {
    // The tier is only populated when DH is enabled; an empty tier makes
    // the unwrap unreachable otherwise.
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    let dh = dh.expect("LJ+DH tier populated without Debye-Huckel enabled");
    let mut e_lj = 0.0;
    let mut e_c = 0.0;
    for (&(i, j), &pref) in pairs.iter().zip(prefs) {
        let (i, j) = (i as usize, j as usize);
        let d = positions[j] - positions[i];
        let r2 = d.norm_sq();
        if r2 == 0.0 {
            continue;
        }
        let mut f_over_r = 0.0;
        if r2 <= lj_cut2 {
            let (e, f) = lj.energy_force(r2);
            e_lj += e;
            f_over_r += f;
        }
        if r2 <= es_cut2 {
            let (e, f) = dh.energy_force_pref(pref, r2);
            e_c += e;
            f_over_r += f;
        }
        let fv = d * f_over_r;
        forces[j] += fv;
        forces[i] -= fv;
    }
    (e_lj, e_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes of the compiled `(lj_only, lj_plus_dh)` tiers.
    fn tier_sizes(nb: &NonBonded) -> (usize, usize) {
        (nb.tiers.lj_pairs.len(), nb.tiers.ljdh_pairs.len())
    }

    impl LjParams {
        /// The pre-optimization evaluation: recomputes the cutoff shift on
        /// every call, exactly as the kernel historically did. Numerically
        /// identical to [`energy_force`](Self::energy_force) (the constant
        /// is the same bits).
        fn energy_force_legacy(&self, r2: f64) -> (f64, f64) {
            let s2 = self.sigma * self.sigma / r2;
            let s6 = s2 * s2 * s2;
            let mut e = 4.0 * self.epsilon * (s6 * s6 - s6);
            if self.shifted {
                e -= self.raw_energy(self.cutoff * self.cutoff);
            }
            let f_over_r = 24.0 * self.epsilon * (2.0 * s6 * s6 - s6) / r2;
            (e, f_over_r)
        }
    }

    impl NonBonded {
        /// The classic per-pair-checked evaluation over the raw Verlet
        /// cache: exclusion lookup, electrostatics branch, and zero-charge
        /// tests run per pair per step. The oracle the tiered kernel is
        /// checked against.
        fn compute_reference(
            &mut self,
            topology: &Topology,
            positions: &[Vec3],
            charges: &[f64],
            _species: &[u32],
            forces: &mut [Vec3],
        ) -> (f64, f64) {
            if self.list.update(positions) {
                self.counters.neighbor_rebuilds += 1;
            }
            self.counters.kernel_invocations += 1;
            self.counters.pairs_evaluated += self.list.pairs().len() as u64;
            let lj_cut2 = self.lj.cutoff * self.lj.cutoff;
            let es_cut2 = self.list.cutoff() * self.list.cutoff();
            let mut e_lj = 0.0;
            let mut e_c = 0.0;
            for &(i, j) in self.list.pairs() {
                let (i, j) = (i as usize, j as usize);
                if topology.is_excluded(i, j) {
                    continue;
                }
                let d = positions[j] - positions[i];
                let r2 = d.norm_sq();
                if r2 == 0.0 {
                    continue;
                }
                let mut f_over_r = 0.0;
                if r2 <= lj_cut2 {
                    let (e, f) = self.lj.energy_force_legacy(r2);
                    e_lj += e;
                    f_over_r += f;
                }
                if let Some(dh) = &self.dh {
                    if r2 <= es_cut2 && charges[i] != 0.0 && charges[j] != 0.0 {
                        let (e, f) = dh.energy_force(charges[i], charges[j], r2);
                        e_c += e;
                        f_over_r += f;
                    }
                }
                let fv = d * f_over_r;
                forces[j] += fv;
                forces[i] -= fv;
            }
            (e_lj, e_c)
        }
    }

    #[test]
    fn lj_minimum_at_two_pow_sixth_sigma() {
        let lj = LjParams::new(1.0, 1.0, 3.0, false);
        let rmin = 2.0f64.powf(1.0 / 6.0);
        let (_, f) = lj.energy_force(rmin * rmin);
        assert!(f.abs() < 1e-12, "force at minimum should vanish, got {f}");
        let (e, _) = lj.energy_force(rmin * rmin);
        assert!((e + 1.0).abs() < 1e-12, "well depth -ε at minimum, got {e}");
    }

    #[test]
    fn wca_is_repulsive_and_zero_at_cutoff() {
        let wca = LjParams::wca(1.0, 1.0);
        let (e_cut, _) = wca.energy_force(wca.cutoff * wca.cutoff);
        assert!(e_cut.abs() < 1e-12);
        for r in [0.8, 0.9, 1.0, 1.05, 1.1] {
            let (e, f) = wca.energy_force(r * r);
            assert!(e >= -1e-12, "WCA energy must be non-negative at r={r}: {e}");
            assert!(f >= -1e-9, "WCA force must be repulsive at r={r}: {f}");
        }
    }

    /// Satellite regression: the precomputed shift constant must equal the
    /// on-the-fly `raw_energy(cutoff²)` the kernel historically recomputed
    /// per pair, and shifted energies must match to 1e-12.
    #[test]
    fn shift_energy_matches_recomputed_raw_energy() {
        for (sigma, epsilon) in [(1.0, 1.0), (6.0, 0.5), (2.3, 0.17)] {
            for params in [
                LjParams::lj(sigma, epsilon),
                LjParams::wca(sigma, epsilon),
                LjParams::new(sigma, epsilon, 3.7 * sigma, true),
            ] {
                let recomputed = params.raw_energy(params.cutoff * params.cutoff);
                assert_eq!(
                    params.shift_energy(),
                    recomputed,
                    "shift constant must be bitwise-identical to raw_energy(cutoff²)"
                );
                // The shifted energy equals unshifted minus the constant.
                let unshifted = LjParams::new(sigma, epsilon, params.cutoff, false);
                for r in [0.8 * sigma, sigma, 1.05 * sigma] {
                    let (es, _) = params.energy_force(r * r);
                    let (eu, _) = unshifted.energy_force(r * r);
                    assert!(
                        (es - (eu - recomputed)).abs() < 1e-12,
                        "shifted energy off at r={r}: {es} vs {}",
                        eu - recomputed
                    );
                }
            }
        }
    }

    #[test]
    fn debye_huckel_reduces_to_coulomb_at_short_range() {
        let dh = DebyeHuckel {
            lambda: 1e9,
            epsilon_r: 1.0,
        };
        let (e, _) = dh.energy_force(1.0, -1.0, 4.0);
        assert!((e + COULOMB_KCAL / 2.0).abs() < 1e-3);
    }

    #[test]
    fn debye_huckel_screens_at_long_range() {
        let dh = DebyeHuckel {
            lambda: 3.0,
            epsilon_r: 80.0,
        };
        let (e_near, _) = dh.energy_force(1.0, 1.0, 9.0);
        let (e_far, _) = dh.energy_force(1.0, 1.0, 400.0);
        assert!(
            e_far.abs() < 1e-2 * e_near.abs(),
            "screening: {e_near} vs {e_far}"
        );
    }

    #[test]
    fn dh_prefactor_path_is_bitwise_identical() {
        let dh = DebyeHuckel {
            lambda: 3.04,
            epsilon_r: 78.0,
        };
        for (qi, qj, r2) in [(1.0, -1.0, 7.3), (0.25, 0.5, 2.0), (-2.0, -3.0, 55.5)] {
            let direct = dh.energy_force(qi, qj, r2);
            let pref = dh.energy_force_pref(dh.prefactor(qi, qj), r2);
            assert_eq!(direct, pref);
        }
    }

    #[test]
    fn dh_force_matches_numeric_gradient() {
        let dh = DebyeHuckel {
            lambda: 3.0,
            epsilon_r: 80.0,
        };
        let r = 2.7;
        let h = 1e-6;
        let e = |r: f64| dh.energy_force(1.0, -1.0, r * r).0;
        let f_num = -(e(r + h) - e(r - h)) / (2.0 * h);
        let (_, f_over_r) = dh.energy_force(1.0, -1.0, r * r);
        // force on j along +r is -dU/dr; f_over_r * r = |force|
        assert!(
            (f_over_r * r - f_num).abs() < 1e-5 * (1.0 + f_num.abs()),
            "{} vs {}",
            f_over_r * r,
            f_num
        );
    }

    fn grid(n: usize, spacing: f64) -> Vec<Vec3> {
        let side = (n as f64).cbrt().ceil() as usize;
        (0..n)
            .map(|i| {
                Vec3::new(
                    (i % side) as f64 * spacing,
                    ((i / side) % side) as f64 * spacing,
                    (i / (side * side)) as f64 * spacing,
                )
            })
            .collect()
    }

    #[test]
    fn tiered_matches_reference_kernel() {
        let pos = grid(150, 1.15);
        // Mix of zero and nonzero charges exercises both tiers.
        let charges: Vec<f64> = (0..150)
            .map(|i| match i % 3 {
                0 => -1.0,
                1 => 0.0,
                _ => 0.5,
            })
            .collect();
        let species = vec![0u32; 150];
        let mut topo = Topology::new();
        for i in 0..149 {
            topo.add_exclusion(i, i + 1);
        }
        topo.finalize();

        let make =
            || NonBonded::new(LjParams::wca(1.0, 1.0), 3.5, 0.4).with_debye_huckel(3.0, 80.0);
        let mut tiered = make();
        let mut reference = make();
        let mut ft = vec![Vec3::zero(); 150];
        let mut fr = vec![Vec3::zero(); 150];
        let (et_lj, et_c) = tiered.compute(&topo, &pos, &charges, &species, &mut ft);
        let (er_lj, er_c) = reference.compute_reference(&topo, &pos, &charges, &species, &mut fr);
        assert!((et_lj - er_lj).abs() < 1e-9 * (1.0 + er_lj.abs()));
        assert!((et_c - er_c).abs() < 1e-9 * (1.0 + er_c.abs()));
        for (a, b) in ft.iter().zip(&fr) {
            assert!((*a - *b).norm() < 1e-9, "{a:?} vs {b:?}");
        }
        let (lj_tier, dh_tier) = tier_sizes(&tiered);
        assert!(lj_tier > 0, "zero-charge pairs must land in the LJ tier");
        assert!(dh_tier > 0, "charged pairs must land in the DH tier");
    }

    #[test]
    fn tiers_recompile_when_charges_change() {
        let pos = grid(27, 1.1);
        let species = vec![0u32; 27];
        let topo = Topology::new();
        let mut nb = NonBonded::new(LjParams::wca(1.0, 1.0), 3.0, 0.4).with_debye_huckel(3.0, 80.0);
        let mut f = vec![Vec3::zero(); 27];

        let charged = vec![1.0; 27];
        nb.compute(&topo, &pos, &charged, &species, &mut f);
        let (_, dh_before) = tier_sizes(&nb);
        assert!(dh_before > 0);

        // Neutralize everything without moving: the list does not rebuild,
        // but the tiers must notice and recompile.
        let neutral = vec![0.0; 27];
        f.iter_mut().for_each(|v| *v = Vec3::zero());
        let (_, e_c) = nb.compute(&topo, &pos, &neutral, &species, &mut f);
        let (_, dh_after) = tier_sizes(&nb);
        assert_eq!(dh_after, 0, "neutralized system must have an empty DH tier");
        assert_eq!(e_c, 0.0);
    }

    #[test]
    fn counters_track_invocations_and_pairs() {
        let pos = grid(64, 1.1);
        let charges = vec![0.5; 64];
        let species = vec![0u32; 64];
        let topo = Topology::new();
        let mut nb = NonBonded::new(LjParams::wca(1.0, 1.0), 3.0, 0.4).with_debye_huckel(3.0, 80.0);
        let mut f = vec![Vec3::zero(); 64];
        assert_eq!(nb.kernel_counters(), KernelCounters::default());
        nb.compute(&topo, &pos, &charges, &species, &mut f);
        nb.compute(&topo, &pos, &charges, &species, &mut f);
        let c = nb.kernel_counters();
        assert_eq!(c.kernel_invocations, 2);
        assert_eq!(c.neighbor_rebuilds, 1);
        let (lj_n, dh_n) = tier_sizes(&nb);
        assert_eq!(c.pairs_evaluated, 2 * (lj_n + dh_n) as u64);
    }

    #[test]
    fn exclusions_are_respected() {
        let pos = vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)];
        let charges = vec![0.0, 0.0];
        let species = vec![0, 0];
        let mut topo = Topology::new();
        topo.add_exclusion(0, 1);
        topo.finalize();
        let mut nb = NonBonded::new(LjParams::wca(1.0, 1.0), 2.0, 0.2);
        let mut f = vec![Vec3::zero(); 2];
        let (e, _) = nb.compute(&topo, &pos, &charges, &species, &mut f);
        assert_eq!(e, 0.0);
        assert_eq!(f[0], Vec3::zero());
    }

    #[test]
    fn newtons_third_law_holds() {
        let pos = grid(64, 1.05);
        let charges = vec![0.5; 64];
        let species = vec![0; 64];
        let topo = Topology::new();
        let mut nb = NonBonded::new(LjParams::wca(1.0, 0.8), 3.0, 0.3).with_debye_huckel(3.0, 80.0);
        let mut f = vec![Vec3::zero(); 64];
        nb.compute(&topo, &pos, &charges, &species, &mut f);
        let net: Vec3 = f.iter().copied().sum();
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }

    #[test]
    fn serial_evaluation_is_bitwise_deterministic() {
        let pos = grid(100, 1.08);
        let charges: Vec<f64> = (0..100)
            .map(|i| if i % 4 == 0 { 0.0 } else { -1.0 })
            .collect();
        let species = vec![0u32; 100];
        let topo = Topology::new();
        let run = || {
            let mut nb =
                NonBonded::new(LjParams::wca(1.0, 1.0), 3.0, 0.4).with_debye_huckel(3.0, 80.0);
            let mut f = vec![Vec3::zero(); 100];
            let e = nb.compute(&topo, &pos, &charges, &species, &mut f);
            (e, f)
        };
        let (e1, f1) = run();
        let (e2, f2) = run();
        assert_eq!(e1, e2);
        assert_eq!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "below LJ cutoff")]
    fn list_cutoff_must_cover_lj() {
        NonBonded::new(LjParams::lj(2.0, 1.0), 1.0, 0.1);
    }

    use proptest::prelude::*;

    /// Deterministic pseudo-random positions in a box (see cell_list.rs).
    fn random_positions(n: usize, seed: u64, scale: f64) -> Vec<Vec3> {
        use spice_stats::rng::seed_stream;
        (0..n)
            .map(|i| {
                let u = |k: u64| {
                    (seed_stream(seed, i as u64 * 3 + k) >> 11) as f64 / (1u64 << 53) as f64
                };
                Vec3::new(u(0) * scale, u(1) * scale, u(2) * scale)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Satellite property test: the tiered kernel must reproduce the
        /// per-pair-checked reference across random particle counts,
        /// charge patterns (including zeros), bonded exclusions and both
        /// electrostatics on/off — energies and forces to 1e-9.
        #[test]
        fn tiered_always_matches_reference(
            seed in 0u64..500,
            n in 4usize..80,
            charge_period in 1usize..5,
            bond_stride in 1usize..4,
            with_dh in 0u8..2,
        ) {
            let pos = random_positions(n, seed, 1.6 * (n as f64).cbrt());
            let charges: Vec<f64> = (0..n)
                .map(|i| match i % charge_period {
                    0 => 0.0,
                    1 => -1.0,
                    2 => 1.0,
                    _ => 0.5,
                })
                .collect();
            let species = vec![0u32; n];
            let mut topo = Topology::new();
            for i in (0..n.saturating_sub(1)).step_by(bond_stride) {
                topo.add_harmonic_bond(i, i + 1, 1.0, 10.0);
            }
            topo.finalize();
            let make = || {
                let nb = NonBonded::new(LjParams::new(1.0, 0.7, 2.5, true), 4.0, 0.4);
                if with_dh == 1 { nb.with_debye_huckel(3.0, 80.0) } else { nb }
            };
            let mut tiered = make();
            let mut reference = make();
            let mut f_t = vec![Vec3::zero(); n];
            let mut f_r = vec![Vec3::zero(); n];
            let (elj_t, ec_t) = tiered.compute(&topo, &pos, &charges, &species, &mut f_t);
            let (elj_r, ec_r) = reference.compute_reference(&topo, &pos, &charges, &species, &mut f_r);
            prop_assert!((elj_t - elj_r).abs() < 1e-9 * (1.0 + elj_r.abs()),
                "LJ energy: tiered {} vs reference {}", elj_t, elj_r);
            prop_assert!((ec_t - ec_r).abs() < 1e-9 * (1.0 + ec_r.abs()),
                "Coulomb energy: tiered {} vs reference {}", ec_t, ec_r);
            for (i, (a, b)) in f_t.iter().zip(&f_r).enumerate() {
                prop_assert!((*a - *b).norm() < 1e-9 * (1.0 + b.norm()),
                    "force on {}: tiered {:?} vs reference {:?}", i, a, b);
            }
        }
    }
}
