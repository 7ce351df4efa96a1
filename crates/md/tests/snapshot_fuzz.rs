//! Hostile-input properties of `Snapshot::read_json`. Truncations, byte
//! flips, random bytes, and deleted or duplicated entries of the
//! system's per-particle arrays must each come back as a typed error, or
//! as a snapshot that restores into its simulation and steps without a
//! panic.
//!
//! The fixture carries bonds, angles and restraints but no pair terms:
//! a scalar `Simulation` with a cell list panics in `CellList::bin` on
//! coordinates too far apart to bin (the blow-up contract of DESIGN
//! §16.3), which a finite but flipped exponent can produce and which is
//! not a decoder's to reject.

use proptest::prelude::*;
use spice_md::checkpoint::Snapshot;
use spice_md::forces::Restraint;
use spice_md::integrate::LangevinBaoab;
use spice_md::{ForceField, MdError, Simulation, System, Topology, Vec3};
use std::sync::OnceLock;

/// The seven per-particle arrays of a serialized `System`.
const ARRAYS: [&str; 7] = [
    "positions",
    "velocities",
    "forces",
    "masses",
    "inv_masses",
    "charges",
    "species",
];

fn strand() -> Simulation {
    let mut sys = System::new();
    let mut topo = Topology::new();
    for i in 0..5usize {
        let f = i as f64;
        sys.add_particle(
            Vec3::new(1.1 * f, 0.4 * (1.3 * f).cos(), 0.4 * (1.3 * f).sin()),
            12.0 + f,
            if i % 2 == 0 { 0.0 } else { -1.0 },
            i as u32 % 2,
        );
        if i > 0 {
            topo.add_fene_bond(i - 1, i, 1.8, 1.5);
        }
        if i > 1 {
            topo.add_angle(i - 2, i - 1, i, 2.4, 5.0);
        }
    }
    let anchor = sys.positions()[0];
    let ff = ForceField::new(topo).with_restraint(Restraint::harmonic(0, anchor, 2.0));
    Simulation::new(sys, ff, Box::new(LangevinBaoab::new(300.0, 5.0, 11)), 0.01)
}

/// The clean snapshot's JSON, taken 40 steps into the strand's run.
fn clean() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let mut sim = strand();
        sim.run(40, &mut []).expect("strand runs");
        let mut buf = Vec::new();
        Snapshot::capture(&sim, "fuzz")
            .write_json(&mut buf)
            .expect("encode");
        String::from_utf8(buf).expect("utf8 JSON")
    })
}

/// Decode `bytes`; a snapshot that decodes must restore into a fresh
/// strand and step. Returns whether it decoded.
fn decode_restore_step(bytes: &[u8]) -> bool {
    let Ok(snap) = Snapshot::read_json(bytes) else {
        return false;
    };
    let mut sim = strand();
    if snap.restore(&mut sim).is_ok() {
        // A numerical blow-up is a typed error from `run`, not a panic.
        let _ = sim.run(25, &mut []);
    }
    true
}

/// Byte ranges of the top-level entries of the JSON array under `key`.
fn entries(json: &str, key: &str) -> Vec<std::ops::Range<usize>> {
    let open = json.find(&format!("\"{key}\":[")).expect("array present") + key.len() + 4;
    let bytes = json.as_bytes();
    let (mut out, mut depth, mut start) = (Vec::new(), 0usize, open);
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth > 0 => depth -= 1,
            b',' | b']' if depth == 0 => {
                out.push(start..i);
                if b == b']' {
                    break;
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    out
}

#[test]
fn clean_snapshot_round_trips() {
    let snap = Snapshot::read_json(clean().as_bytes()).expect("clean snapshot decodes");
    assert_eq!(snap.system.len(), 5);
    assert!(decode_restore_step(clean().as_bytes()));
    for key in ARRAYS {
        assert_eq!(entries(clean(), key).len(), 5, "{key}");
    }
}

/// Deleting or duplicating any one entry of any per-particle array is a
/// `Checkpoint` error: before the decoder checked lengths, a snapshot
/// missing one velocity restored and then panicked in the first step.
#[test]
fn deleted_or_duplicated_array_entries_are_errors() {
    let json = clean();
    for key in ARRAYS {
        for e in entries(json, key) {
            let deleted = if json.as_bytes()[e.end] == b',' {
                format!("{}{}", &json[..e.start], &json[e.end + 1..])
            } else {
                format!("{}{}", &json[..e.start - 1], &json[e.end..])
            };
            let duplicated = format!("{},{}", &json[..e.end], &json[e.start..]);
            for (what, text) in [("deleted", deleted), ("duplicated", duplicated)] {
                match Snapshot::read_json(text.as_bytes()) {
                    Err(MdError::Checkpoint(msg)) => {
                        assert!(msg.contains("entries"), "{key} {what}: {msg}")
                    }
                    other => {
                        panic!("{key} entry {what}: expected a checkpoint error, got {other:?}")
                    }
                }
            }
        }
    }
}

/// An inverse mass that is not `1.0 / mass`, and a mass that is not
/// finite and positive, are errors naming the particle.
#[test]
fn inconsistent_masses_are_errors() {
    let json = clean();
    let e = &entries(json, "inv_masses")[2];
    let skewed = format!("{}0.5{}", &json[..e.start], &json[e.end..]);
    let m = &entries(json, "masses")[1];
    let negative = format!("{}-14.0{}", &json[..m.start], &json[m.end..]);
    for text in [skewed, negative] {
        match Snapshot::read_json(text.as_bytes()) {
            Err(MdError::Checkpoint(msg)) => assert!(msg.contains("particle"), "{msg}"),
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_and_flipped_snapshots_never_panic(
        keep in 0.0f64..1.0,
        whole in 0u8..2,
        flips in prop::collection::vec((0usize..100_000, 1u16..256), 0..4),
    ) {
        let mut b = clean().as_bytes().to_vec();
        if whole == 0 {
            b.truncate((keep * b.len() as f64) as usize);
        }
        for (at, mask) in flips {
            let mask = mask as u8;
            if !b.is_empty() {
                let i = at % b.len();
                b[i] ^= mask;
            }
        }
        decode_restore_step(&b);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_restore_step(&bytes);
    }
}

/// Every single-byte overwrite of the clean snapshot's system section,
/// with a digit, a sign, an exponent mark or a delimiter, decodes to an
/// error or to a snapshot that restores and steps.
#[test]
fn every_byte_of_the_system_tolerates_an_overwrite() {
    let json = clean();
    let start = json.find("\"system\"").expect("system present");
    let end = json.find("\"label\"").expect("label present");
    let mut decoded = 0;
    for i in start..end {
        for b in [b'9', b'0', b'-', b'e', b',', b']', b'}', b'"'] {
            let mut bytes = json.as_bytes().to_vec();
            bytes[i] = b;
            decoded += usize::from(decode_restore_step(&bytes));
        }
    }
    assert!(
        decoded > 0,
        "some overwrites (a digit for a digit) still decode"
    );
}
