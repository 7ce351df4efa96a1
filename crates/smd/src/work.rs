//! Work trajectories and sub-trajectory segmentation.
//!
//! The external work of the moving guide is `W(t) = ∫₀ᵗ v F_spring dt'`,
//! with `F_spring = κ (z_guide − z_com)` — the thermodynamic work that
//! enters Jarzynski's equality. Each realization yields one monotone
//! series of [`WorkSample`]s along the guide coordinate.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One sample along a pulling realization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct WorkSample {
    /// Time since the pull began (ps).
    pub t_ps: f64,
    /// Guide displacement since the pull began (Å) — the JE reaction
    /// coordinate λ.
    pub guide_disp: f64,
    /// COM displacement of the SMD atoms since the pull began (Å) — the
    /// x-axis of Fig. 4.
    pub com_disp: f64,
    /// Accumulated external work (kcal/mol).
    pub work: f64,
    /// Instantaneous spring force (kcal mol⁻¹ Å⁻¹).
    pub force: f64,
}

/// A complete pulling realization.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WorkTrajectory {
    /// Spring constant used (pN/Å, paper units).
    pub kappa_pn_per_a: f64,
    /// Pulling velocity used (Å/ns, paper units).
    pub v_a_per_ns: f64,
    /// RNG seed of the realization (provenance).
    pub seed: u64,
    /// Samples ordered by time.
    pub samples: Vec<WorkSample>,
}

impl WorkTrajectory {
    /// Final accumulated work (kcal/mol); `NaN` when empty.
    pub fn final_work(&self) -> f64 {
        self.samples.last().map_or(f64::NAN, |s| s.work)
    }

    /// Total guide displacement covered (Å); 0 when empty.
    pub fn guide_span(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.guide_disp)
    }

    /// A forward walk interpolating this trajectory at a rising sequence
    /// of guide displacements, such as a PMF grid.
    pub fn walk(&self) -> SampleWalk<'_> {
        // Handle descending (negative-velocity) trajectories by flipping
        // the coordinate so it is ascending; the query flips with it, so
        // an out-of-range query stays out of range.
        let sign = self
            .samples
            .last()
            .map_or(1.0, |last| if last.guide_disp >= 0.0 { 1.0 } else { -1.0 });
        SampleWalk {
            samples: &self.samples,
            sign,
            next: 1,
            last_target: f64::NEG_INFINITY,
        }
    }

    /// Basic integrity checks: time and guide displacement must be
    /// monotone non-decreasing.
    pub fn is_well_formed(&self) -> bool {
        self.samples.windows(2).all(|w| {
            w[1].t_ps >= w[0].t_ps
                && (w[1].guide_disp - w[0].guide_disp) * self.v_a_per_ns.signum() >= -1e-12
        })
    }
}

/// Linear interpolation of (work, COM displacement) along one
/// trajectory, queried at a sequence of guide displacements in one
/// forward pass: each query resumes the search for its bracketing samples
/// where the previous one stopped, so an ascending grid reads every
/// sample once, and a query below the previous one searches again from
/// the start. Every answer has the bits of a search from the first
/// sample.
#[derive(Debug, Clone)]
pub struct SampleWalk<'a> {
    samples: &'a [WorkSample],
    /// +1 for an ascending trajectory, −1 for a descending one.
    sign: f64,
    /// Where the search resumes: every sample from index 1 up to here
    /// falls short of `last_target`.
    next: usize,
    last_target: f64,
}

impl SampleWalk<'_> {
    /// `(work, com_disp)` interpolated at guide displacement `s`; `None`
    /// outside the sampled range.
    pub fn at(&mut self, s: f64) -> Option<(f64, f64)> {
        let (first, last) = (self.samples.first()?, self.samples.last()?);
        let sign = self.sign;
        let key = |w: &WorkSample| w.guide_disp * sign;
        let target = s * sign;
        if target < key(first) - 1e-9 || target > key(last) + 1e-9 {
            return None;
        }
        // Samples short of the previous target fall short of any target
        // at least as large; anything else (a smaller or NaN target)
        // searches again from the start.
        if matches!(
            target.partial_cmp(&self.last_target),
            None | Some(Ordering::Less)
        ) {
            self.next = 1;
        }
        self.last_target = target;
        while let Some(cur) = self.samples.get(self.next) {
            if key(cur) >= target {
                let prev = &self.samples[self.next - 1];
                let span = key(cur) - key(prev);
                if span <= 0.0 {
                    return Some((cur.work, cur.com_disp));
                }
                let w = (target - key(prev)) / span;
                return Some((
                    prev.work * (1.0 - w) + cur.work * w,
                    prev.com_disp * (1.0 - w) + cur.com_disp * w,
                ));
            }
            self.next += 1;
        }
        Some((last.work, last.com_disp))
    }
}

/// Split a long trajectory into sub-trajectories of guide length
/// `segment_len` (§IV-A): work is re-zeroed at each segment start, so each
/// segment is an independent JE data set over its own 0..segment_len
/// coordinate.
///
/// Segments shorter than `segment_len` at the tail are dropped (the paper
/// uses complete sub-trajectories only).
pub fn segment_trajectory(traj: &WorkTrajectory, segment_len: f64) -> Vec<WorkTrajectory> {
    assert!(segment_len > 0.0, "segment length must be positive");
    let mut out = Vec::new();
    if traj.samples.is_empty() {
        return out;
    }
    let total = traj.guide_span().abs();
    let nseg = (total / segment_len).floor() as usize;
    for seg in 0..nseg {
        let lo = seg as f64 * segment_len;
        let hi = lo + segment_len;
        let mut origin: Option<(f64, f64, f64)> = None;
        let mut samples = Vec::new();
        for s in &traj.samples {
            let d = s.guide_disp.abs();
            if d + 1e-9 < lo || d > hi + 1e-9 {
                continue;
            }
            // Work, COM and time are re-zeroed at the first in-range sample.
            let (w0, c0, t0) = *origin.get_or_insert((s.work, s.com_disp, s.t_ps));
            samples.push(WorkSample {
                t_ps: s.t_ps - t0,
                guide_disp: s.guide_disp - lo * traj.v_a_per_ns.signum(),
                com_disp: s.com_disp - c0,
                work: s.work - w0,
                force: s.force,
            });
        }
        if samples.len() >= 2 {
            out.push(WorkTrajectory {
                kappa_pn_per_a: traj.kappa_pn_per_a,
                v_a_per_ns: traj.v_a_per_ns,
                seed: traj.seed,
                samples,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spice_stats::rng::seed_stream;

    /// The scan the walk replaced, kept as its oracle: `f` at guide
    /// displacement `s`, searching from the first sample.
    fn interpolate(samples: &[WorkSample], s: f64, f: impl Fn(&WorkSample) -> f64) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let last = samples.last().expect("samples non-empty: checked above");
        let sign = if last.guide_disp >= 0.0 { 1.0 } else { -1.0 };
        let key = |w: &WorkSample| w.guide_disp * sign;
        let target = s * sign;
        if target < key(&samples[0]) - 1e-9 || target > key(last) + 1e-9 {
            return None;
        }
        let mut prev = &samples[0];
        for cur in &samples[1..] {
            if key(cur) >= target {
                let span = key(cur) - key(prev);
                if span <= 0.0 {
                    return Some(f(cur));
                }
                let w = (target - key(prev)) / span;
                return Some(f(prev) * (1.0 - w) + f(cur) * w);
            }
            prev = cur;
        }
        Some(f(last))
    }

    /// A trajectory of `len` samples pulled in direction `sign`, with
    /// random steps (a fifth of them zero, so some samples share a guide
    /// displacement), work and COM.
    fn random_traj(seed: u64, len: usize, sign: f64) -> WorkTrajectory {
        let u = |k: u64| (seed_stream(seed, k) >> 11) as f64 / (1u64 << 53) as f64;
        let mut guide = 0.3 * u(0) - 0.1;
        let samples = (0..len as u64)
            .map(|i| {
                let step = u(3 * i + 1);
                guide += if step < 0.2 { 0.0 } else { step };
                WorkSample {
                    t_ps: i as f64,
                    guide_disp: sign * guide,
                    com_disp: sign * (guide + u(3 * i + 2) - 0.5),
                    work: 10.0 * u(3 * i + 3) - 5.0,
                    force: 0.0,
                }
            })
            .collect();
        WorkTrajectory {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: sign * 12.5,
            seed,
            samples,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The walk answers every query with `interpolate`'s bits, on
        /// ascending and descending trajectories, over an ascending grid
        /// that runs past both ends and over the same grid reversed.
        #[test]
        fn walk_matches_interpolate_bitwise(
            seed in 0u64..u32::MAX as u64,
            len in 0usize..30,
            npoints in 1usize..40,
        ) {
            for sign in [1.0, -1.0] {
                let t = random_traj(seed, len, sign);
                let reach = t.guide_span().abs() + 0.5;
                let grid: Vec<f64> = (0..npoints)
                    .map(|k| sign * (reach * k as f64 / npoints as f64 - 0.25))
                    .collect();
                let reversed: Vec<f64> = grid.iter().rev().copied().collect();
                for queries in [grid, reversed] {
                    let mut walk = t.walk();
                    for &s in &queries {
                        let want = interpolate(&t.samples, s, |w| w.work)
                            .zip(interpolate(&t.samples, s, |w| w.com_disp));
                        let bits = |p: Option<(f64, f64)>| p.map(|(a, b)| (a.to_bits(), b.to_bits()));
                        prop_assert_eq!(bits(walk.at(s)), bits(want), "sign {} s {}", sign, s);
                    }
                }
            }
        }
    }

    fn linear_traj(n: usize, slope: f64) -> WorkTrajectory {
        WorkTrajectory {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: 12.5,
            seed: 0,
            samples: (0..=n)
                .map(|i| {
                    let s = i as f64 * 0.1;
                    WorkSample {
                        t_ps: s / 0.0125,
                        guide_disp: s,
                        com_disp: s * 0.9,
                        work: slope * s,
                        force: slope,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn final_work_and_span() {
        let t = linear_traj(100, 2.0);
        assert!((t.final_work() - 20.0).abs() < 1e-9);
        assert!((t.guide_span() - 10.0).abs() < 1e-9);
        assert!(t.is_well_formed());
    }

    /// Work interpolated at guide displacement `s`; `None` outside the
    /// sampled range.
    fn work_at(t: &WorkTrajectory, s: f64) -> Option<f64> {
        t.walk().at(s).map(|(work, _)| work)
    }

    #[test]
    fn interpolation_between_samples() {
        let t = linear_traj(100, 2.0);
        assert!((work_at(&t, 5.05).unwrap() - 10.1).abs() < 1e-9);
        assert!((t.walk().at(5.0).unwrap().1 - 4.5).abs() < 1e-9);
        assert!(work_at(&t, 10.5).is_none());
        assert!(work_at(&t, -0.5).is_none());
    }

    #[test]
    fn empty_trajectory_degenerates() {
        let t = WorkTrajectory {
            kappa_pn_per_a: 1.0,
            v_a_per_ns: 1.0,
            seed: 0,
            samples: vec![],
        };
        assert!(t.final_work().is_nan());
        assert_eq!(t.guide_span(), 0.0);
        assert!(work_at(&t, 0.0).is_none());
        assert!(segment_trajectory(&t, 1.0).is_empty());
    }

    #[test]
    fn segmentation_rezeroes_work() {
        let t = linear_traj(100, 3.0); // spans 10 Å
        let segs = segment_trajectory(&t, 2.5);
        assert_eq!(segs.len(), 4);
        for seg in &segs {
            assert!(seg.samples[0].work.abs() < 1e-9, "work must restart at 0");
            assert!(seg.samples[0].guide_disp.abs() < 1e-9);
            assert!(
                (seg.final_work() - 3.0 * 2.5).abs() < 1e-6,
                "each linear segment accumulates slope × length"
            );
            assert!(seg.is_well_formed());
        }
    }

    #[test]
    fn segmentation_drops_incomplete_tail() {
        let t = linear_traj(93, 1.0); // spans 9.3 Å
        let segs = segment_trajectory(&t, 2.5);
        assert_eq!(segs.len(), 3, "9.3/2.5 → 3 complete segments");
    }

    #[test]
    fn work_additivity_across_segments() {
        // Sum of segment works == total work difference over same span.
        let t = linear_traj(100, 1.7);
        let segs = segment_trajectory(&t, 2.0);
        let sum: f64 = segs.iter().map(|s| s.final_work()).sum();
        let direct = work_at(&t, 10.0).unwrap() - work_at(&t, 0.0).unwrap();
        assert!((sum - direct).abs() < 1e-6, "{sum} vs {direct}");
    }
}
