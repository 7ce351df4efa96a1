//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! inputs, not just the curated cases in unit tests.

use proptest::prelude::*;
use spice::gridsim::scheduler::profile::CapacityProfile;
use spice::jarzynski::crooks::bar_free_energy;
use spice::jarzynski::{cumulant_free_energy, jarzynski_free_energy, mean_work};
use spice::md::units::KT_300;
use spice::smd::{segment_trajectory, WorkSample, WorkTrajectory};
use spice::stats::{log_mean_exp, log_sum_exp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Jensen's inequality: the JE estimate never exceeds the mean work,
    /// for any finite work sample.
    #[test]
    fn je_never_exceeds_mean_work(works in prop::collection::vec(-50.0f64..50.0, 1..64)) {
        let je = jarzynski_free_energy(&works, KT_300);
        let mw = mean_work(&works);
        prop_assert!(je <= mw + 1e-9, "JE {je} > mean work {mw}");
    }

    /// The JE estimate is bounded below by min(W) − kT·ln(n).
    #[test]
    fn je_lower_bound(works in prop::collection::vec(-50.0f64..50.0, 1..64)) {
        let je = jarzynski_free_energy(&works, KT_300);
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = min - KT_300 * (works.len() as f64).ln();
        prop_assert!(je >= bound - 1e-9, "JE {je} below bound {bound}");
    }

    /// Cumulant estimate is translation-equivariant: shifting all works by
    /// c shifts the estimate by exactly c.
    #[test]
    fn estimators_translation_equivariant(
        works in prop::collection::vec(-20.0f64..20.0, 2..40),
        shift in -10.0f64..10.0,
    ) {
        let shifted: Vec<f64> = works.iter().map(|w| w + shift).collect();
        let je0 = jarzynski_free_energy(&works, KT_300);
        let je1 = jarzynski_free_energy(&shifted, KT_300);
        prop_assert!((je1 - je0 - shift).abs() < 1e-7);
        let cu0 = cumulant_free_energy(&works, KT_300);
        let cu1 = cumulant_free_energy(&shifted, KT_300);
        prop_assert!((cu1 - cu0 - shift).abs() < 1e-7);
    }

    /// BAR antisymmetry: swapping forward and reverse flips the sign.
    #[test]
    fn bar_antisymmetric(
        fwd in prop::collection::vec(0.0f64..20.0, 4..32),
        rev in prop::collection::vec(-5.0f64..15.0, 4..32),
    ) {
        let a = bar_free_energy(&fwd, &rev, KT_300);
        let b = bar_free_energy(&rev, &fwd, KT_300);
        prop_assert!((a + b).abs() < 0.05, "BAR({a}) and swapped ({b}) must be antisymmetric");
    }

    /// log_sum_exp is permutation-invariant and exp-consistent for small
    /// inputs.
    #[test]
    fn log_sum_exp_properties(mut xs in prop::collection::vec(-30.0f64..30.0, 1..40)) {
        let a = log_sum_exp(&xs);
        xs.reverse();
        let b = log_sum_exp(&xs);
        prop_assert!((a - b).abs() < 1e-9);
        // Monotone up to 1 ulp: a bumped element far below the max moves
        // the true sum by less than f64 rounding of the intermediate
        // exp-sum, so allow an epsilon.
        let mut ys = xs.clone();
        ys[0] += 1.0;
        prop_assert!(log_sum_exp(&ys) >= a - 1e-12);
        // mean-exp ≤ max.
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(log_mean_exp(&xs) <= max + 1e-9);
    }

    /// Segmenting a monotone work trajectory preserves total work over
    /// complete segments and keeps every segment well-formed.
    #[test]
    fn segmentation_invariants(
        slope in -3.0f64..3.0,
        seg_frac in 0.15f64..0.6,
        n in 20usize..200,
    ) {
        let traj = WorkTrajectory {
            kappa_pn_per_a: 100.0,
            v_a_per_ns: 12.5,
            seed: 0,
            samples: (0..=n)
                .map(|i| {
                    let s = i as f64 * 10.0 / n as f64;
                    WorkSample { t_ps: s, guide_disp: s, com_disp: s, work: slope * s, force: slope }
                })
                .collect(),
        };
        let seg_len = 10.0 * seg_frac;
        let segs = segment_trajectory(&traj, seg_len);
        let expected = (10.0 / seg_len).floor() as usize;
        prop_assert_eq!(segs.len(), expected);
        for seg in &segs {
            prop_assert!(seg.is_well_formed());
            prop_assert!(seg.samples[0].work.abs() < 1e-9);
        }
        // Each segment's accumulated work matches the slope over the
        // distance between its first and last retained samples (segment
        // boundaries need not align with sample points, and work is
        // re-zeroed at the first retained sample).
        for seg in &segs {
            let first = seg.samples.first().unwrap().guide_disp;
            let last = seg.samples.last().unwrap().guide_disp;
            let expected_work = slope * (last - first);
            prop_assert!(
                (seg.final_work() - expected_work).abs() < 1e-6 + 0.01 * expected_work.abs(),
                "segment work {} vs slope×(last−first) {}",
                seg.final_work(),
                expected_work
            );
        }
    }

    /// Capacity profiles never report a committed window as free and
    /// earliest_start always returns a feasible slot.
    #[test]
    fn capacity_profile_soundness(
        commitments in prop::collection::vec((1u32..50, 0.0f64..20.0, 0.1f64..8.0), 0..12),
        procs in 1u32..50,
        duration in 0.1f64..6.0,
    ) {
        let mut p = CapacityProfile::new(64);
        for (c_procs, start, len) in &commitments {
            if p.fits(*c_procs, *start, start + len) {
                p.commit(*c_procs, *start, start + len);
            }
        }
        if let Some(t) = p.earliest_start(procs, duration, 0.0, &[]) {
            prop_assert!(p.fits(procs, t, t + duration),
                "earliest_start returned infeasible slot t={t}");
        } else {
            prop_assert!(procs > 64);
        }
    }
}
