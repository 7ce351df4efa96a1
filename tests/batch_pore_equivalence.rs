//! The batched SoA ensemble must reproduce the cloned one bit for bit on
//! the system the pipeline actually runs: the strand in the pore, whose
//! seven one-body terms (corrugations, pore wall, membrane, slab and
//! cylinder walls, constriction ring) the batched engine sweeps across
//! replica lanes while the cloned path evaluates them one replica at a
//! time. The md- and smd-level pins use fixtures without an external
//! field; this one covers it.

mod common;

use spice::core::config::Scale;
use spice::core::pipeline::pore_simulation;
use spice::smd::{run_ensemble_batched, run_ensemble_cloned};
use spice::stats::rng::SeedSequence;

fn assert_batched_equals_cloned(n: usize, master: u64) {
    let protocol = Scale::Test.protocol(100.0, 100.0);
    let factory = |seed| pore_simulation(Scale::Test, seed);
    let decorrelation = Scale::Test.decorrelation_steps();
    let cloned = run_ensemble_cloned(
        factory,
        &protocol,
        n,
        SeedSequence::new(master),
        decorrelation,
    );
    let batched = run_ensemble_batched(
        factory,
        &protocol,
        n,
        SeedSequence::new(master),
        decorrelation,
    );
    assert_eq!(batched.len(), n);
    assert_eq!(cloned.len(), n);
    for (slot, (b, c)) in batched.iter().zip(&cloned).enumerate() {
        let (b, c) = match (b, c) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(b), Err(c)) => {
                assert_eq!(b.to_string(), c.to_string(), "n={n} slot {slot} error");
                continue;
            }
            _ => panic!("n={n} slot {slot}: one path failed and the other did not"),
        };
        assert_eq!(b.seed, c.seed, "n={n} slot {slot} seed");
        assert_eq!(b.kappa_pn_per_a.to_bits(), c.kappa_pn_per_a.to_bits());
        assert_eq!(b.v_a_per_ns.to_bits(), c.v_a_per_ns.to_bits());
        assert!(!b.samples.is_empty(), "n={n} slot {slot} pulled");
        assert_eq!(b.samples.len(), c.samples.len(), "n={n} slot {slot}");
        for (k, (sb, sc)) in b.samples.iter().zip(&c.samples).enumerate() {
            let bits = |s: &spice::smd::WorkSample| {
                [s.t_ps, s.guide_disp, s.com_disp, s.work, s.force].map(f64::to_bits)
            };
            assert_eq!(bits(sb), bits(sc), "n={n} slot {slot} sample {k}");
        }
    }
}

/// FNV-1a over the bit patterns of every work sample of every slot, seeds
/// included; a failed slot hashes its error text.
fn ensemble_digest<E: std::fmt::Display>(
    ensemble: &[Result<spice::smd::WorkTrajectory, E>],
) -> u64 {
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
/// both together would pass it; this one would not. (The value comes from
/// x86_64 with glibc's libm.)
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
        0xeccb_bab8_c26e_9d57,
        "17-lane batched Test-pore ensemble moved"
    );
}

#[test]
fn batched_equals_cloned_on_the_pore_system() {
    // 3 lanes is narrower than any vector; 17 fills AVX-512 twice with a
    // one-lane tail.
    for n in [3, 17] {
        assert_batched_equals_cloned(n, 20050512);
    }
}
