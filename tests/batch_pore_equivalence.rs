//! The batched SoA ensemble must reproduce the cloned one bit for bit on
//! the system the pipeline actually runs: the strand in the pore, whose
//! seven one-body terms (corrugations, pore wall, membrane, slab and
//! cylinder walls, constriction ring) the batched engine sweeps across
//! replica lanes while the cloned path evaluates them one replica at a
//! time. The md- and smd-level pins use fixtures without an external
//! field; this one covers it.

mod common;

use spice::core::config::Scale;
use spice::core::pipeline::{pore_simulation, PULL_START_Z};
use spice::md::batch::PAD_SOURCE;
use spice::md::{MdError, Simulation};
use spice::pore::build::{PoreSystemBuilder, SmdSelection};
use spice::pore::dna::DnaParams;
use spice::pore::solvent::Solvent;
use spice::smd::{
    run_ensemble, run_ensemble_batched, run_ensemble_cloned, run_pull, WorkSample, WorkTrajectory,
};
use spice::stats::rng::SeedSequence;
use std::panic::AssertUnwindSafe;

type Slots = Vec<Result<WorkTrajectory, MdError>>;

fn sample_bits(t: &WorkTrajectory) -> Vec<[u64; 5]> {
    let bits =
        |s: &WorkSample| [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force].map(f64::to_bits);
    t.samples.iter().map(bits).collect()
}

/// Assert every slot of `a` agrees with `b`'s: the same trajectory bit
/// for bit, or the same error text.
fn assert_same_slots(a: &Slots, b: &Slots, case: &str) {
    assert_eq!(a.len(), b.len(), "{case}");
    for (slot, (a, b)) in a.iter().zip(b).enumerate() {
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{case} slot {slot} error");
                continue;
            }
            _ => panic!("{case} slot {slot}: one path failed and the other did not"),
        };
        assert_eq!(a.seed, b.seed, "{case} slot {slot} seed");
        assert_eq!(a.kappa_pn_per_a.to_bits(), b.kappa_pn_per_a.to_bits());
        assert_eq!(a.v_a_per_ns.to_bits(), b.v_a_per_ns.to_bits());
        assert!(!a.samples.is_empty(), "{case} slot {slot} pulled");
        assert_eq!(a.samples.len(), b.samples.len(), "{case} slot {slot}");
        for (k, (sa, sb)) in sample_bits(a).iter().zip(&sample_bits(b)).enumerate() {
            assert_eq!(sa, sb, "{case} slot {slot} sample {k}");
        }
    }
}

/// Run `n` realizations of the Test protocol through both runners and
/// assert every slot agrees. Returns the batched slots.
fn assert_batched_equals_cloned(
    factory: impl Fn(u64) -> Simulation + Sync + Copy,
    n: usize,
    master: u64,
) -> Slots {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let decorrelation = Scale::Test.decorrelation_steps();
    let seeds = SeedSequence::new(master);
    let cloned = run_ensemble_cloned(factory, &protocol, n, seeds, decorrelation);
    let batched = run_ensemble_batched(factory, &protocol, n, seeds, decorrelation);
    assert_eq!(batched.len(), n);
    assert_same_slots(&batched, &cloned, &format!("cloned n={n}"));
    batched
}

/// `run_ensemble` as it ran before its realizations became lanes: one
/// `run_pull` per realization under panic isolation.
fn scalar_ensemble(factory: impl Fn(u64) -> Simulation, n: usize, master: u64) -> Slots {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let seeds = SeedSequence::new(master);
    (0..n)
        .map(|i| {
            let seed = seeds.stream(i as u64);
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_pull(&mut factory(seed), &protocol, seed).map(|o| o.trajectory)
            }))
            .unwrap_or_else(|_| {
                Err(MdError::NumericalBlowup {
                    step: 0,
                    what: format!("realization {i} (seed {seed}) panicked"),
                })
            })
        })
        .collect()
}

/// Run `n` independent realizations of the Test protocol through
/// `run_ensemble` and through [`scalar_ensemble`] and assert every slot
/// agrees. Returns `run_ensemble`'s slots.
fn assert_lanes_equal_scalar(
    factory: impl Fn(u64) -> Simulation + Sync + Copy,
    n: usize,
    master: u64,
) -> Slots {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let lanes = run_ensemble(factory, &protocol, n, SeedSequence::new(master));
    let scalar = scalar_ensemble(factory, n, master);
    assert_same_slots(&lanes, &scalar, &format!("independent n={n}"));
    lanes
}

fn test_pore(seed: u64) -> Simulation {
    pore_simulation(Scale::Test, seed)
}

/// FNV-1a over the bit patterns of every work sample of every slot, seeds
/// included; a failed slot hashes its error text.
fn ensemble_digest<E: std::fmt::Display>(ensemble: &[Result<WorkTrajectory, E>]) -> u64 {
    ensemble.iter().fold(common::FNV_OFFSET, |mut h, slot| {
        match slot {
            Ok(t) => {
                h = common::fnv1a(h, &t.seed.to_le_bytes());
                for s in &t.samples {
                    for v in [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force] {
                        h = common::fnv1a(h, &v.to_bits().to_le_bytes());
                    }
                }
            }
            Err(e) => h = common::fnv1a(h, e.to_string().as_bytes()),
        }
        h
    })
}

/// Golden digest of the 17-lane batched Test-pore ensemble. The pin below
/// compares the batched path with the cloned one, so a change that moved
/// both together would pass it; this one would not. (Recorded on x86_64
/// with glibc: the MD step calls no libm, but the strand builder's start
/// positions do.)
#[test]
fn batched_pore_ensemble_golden_digest() {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let batched = run_ensemble_batched(
        |seed| pore_simulation(Scale::Test, seed),
        &protocol,
        17,
        SeedSequence::new(20050512),
        Scale::Test.decorrelation_steps(),
    );
    assert_eq!(
        ensemble_digest(&batched),
        0x6d00_00a4_b285_eef6,
        "17-lane batched Test-pore ensemble moved"
    );
}

#[test]
fn batched_equals_cloned_on_the_pore_system() {
    // Every remainder mod 8: 1–7 and 9 lanes pad up to a whole vector
    // (12 to two), 8 fills one exactly, 17 pads to three.
    for n in (1..=9).chain([12, 17]) {
        assert_batched_equals_cloned(test_pore, n, 20050512);
    }
}

/// The Test pore system with its thermostat at `temperature` (the same
/// builder chain as `pore_simulation`; the force field does not depend on
/// the solvent temperature).
fn pore_at(temperature: f64, seed: u64) -> Simulation {
    PoreSystemBuilder::new()
        .dna(DnaParams {
            n_bases: Scale::Test.dna_bases(),
            ..DnaParams::default()
        })
        .dna_start_z(PULL_START_Z)
        .smd_selection(SmdSelection::WholeStrand)
        .solvent(Solvent {
            temperature,
            ..Solvent::default()
        })
        .build()
        .into_simulation(0.01, seed)
}

/// A runaway thermostat on the lane a batch's pad lanes copy blows that
/// realization up; every slot, its error text included, must match the
/// scalar path, and the other lanes' bits must not move. At 1e12 K the
/// strand flies apart step by step until its grid passes the cell list's
/// cap for 8 beads (65,536 cells); at 1e30 K the first step throws it ~10¹¹ Å
/// apart, a grid no cell list will build; at ∞ K its coordinates go
/// infinite. Each time the scalar twin panics inside its own pair-list
/// rebuild, on the first rebuild the cell list rejects, which the
/// batched lane reports as a fault, while the pad lanes carry the
/// blown-up state to the end of the pull. Without lane faults the 1e30 K
/// case panics the whole batch and the ∞ K case fails at a later health
/// check with another message. Six replicas run padded to eight lanes,
/// eight unpadded. Twelve and 24 run as `[8, 4]` and `[16, 8]` lane
/// chunks on two cores (one chunk on one core), with the runaway lane
/// first in the second chunk, so that chunk's pad lanes copy it. The
/// cloned ensembles restore the runaway lane from the shared snapshot
/// and heat it through its thermostat alone; `run_ensemble`'s runaway
/// lane also starts from its own hot velocities.
#[test]
fn failure_slots_match_the_cloned_path() {
    let master = 20050512;
    let (warm, built) = (pore_at(300.0, 1), test_pore(1));
    assert_eq!(warm.system().velocities(), built.system().velocities());
    for (n, runaway) in [(6, PAD_SOURCE), (8, PAD_SOURCE), (12, 8), (24, 16)] {
        let runaway_seed = SeedSequence::new(master).stream(runaway as u64);
        let protocol = Scale::Test.protocol(100.0, 100.0);
        let healthy = run_ensemble_batched(
            test_pore,
            &protocol,
            n,
            SeedSequence::new(master),
            Scale::Test.decorrelation_steps(),
        );
        let healthy_independent = run_ensemble(test_pore, &protocol, n, SeedSequence::new(master));
        for temperature in [1e12, 1e30, f64::INFINITY] {
            let factory = |seed| {
                if seed == runaway_seed {
                    pore_at(temperature, seed)
                } else {
                    test_pore(seed)
                }
            };
            let case = format!("n={n} T={temperature:e}");
            let batched = assert_batched_equals_cloned(factory, n, master);
            let independent = assert_lanes_equal_scalar(factory, n, master);
            // At ∞ K `run_ensemble`'s runaway lane starts from velocities
            // that are not finite, so it never passes the skin (NaN
            // displacements compare false) and fails the hold's health
            // check instead, as its scalar twin does — unless the `audit`
            // sanitizer panics that twin on its first step.
            let independent_error = match temperature.is_finite() || cfg!(feature = "audit") {
                true => "panicked",
                false => "step 100: non-finite coordinate or velocity",
            };
            for (slots, error) in [(&batched, "panicked"), (&independent, independent_error)] {
                match &slots[runaway] {
                    Err(e) => assert!(e.to_string().contains(error), "{case}: {e}"),
                    Ok(_) => panic!("{case}: the runaway lane survived"),
                }
            }
            for (slots, healthy) in [(&batched, &healthy), (&independent, &healthy_independent)] {
                for (slot, (b, h)) in slots.iter().zip(healthy).enumerate() {
                    if slot != runaway {
                        let (b, h) = (b.as_ref().expect("survivor"), h.as_ref().expect("healthy"));
                        assert_eq!(sample_bits(b), sample_bits(h), "{case} slot {slot}");
                    }
                }
            }
        }
    }
}
