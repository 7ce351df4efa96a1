//! Integration: checkpoint durability through the filesystem — the grid
//! failure story (§V-C-4) depends on snapshots surviving a process, not
//! just a function call.

mod common;

use common::TempDir;
use spice::core::config::Scale;
use spice::core::pipeline::pore_simulation;
use spice::md::checkpoint::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
use spice::md::MdError;

#[test]
fn checkpoint_survives_disk_roundtrip_and_resumes_exactly() {
    let dir = TempDir::new("md_ckpt_roundtrip");
    let path = dir.join("mid-campaign.json");

    // Run, checkpoint to disk, keep running → trajectory A.
    let mut original = pore_simulation(Scale::Test, 77);
    original.run(120, &mut []).unwrap();
    Snapshot::capture(&original, "mid-campaign")
        .save(&path)
        .unwrap();
    original.run(200, &mut []).unwrap();
    let final_a = original.system().positions().to_vec();

    // "Site failure": a brand-new simulation restores from disk and
    // replays the remaining steps → must land on exactly trajectory A.
    let loaded = Snapshot::load(&path).unwrap();
    assert_eq!(loaded.label, "mid-campaign");
    assert_eq!(loaded.step, 120);
    assert_eq!(loaded.schema, SNAPSHOT_SCHEMA_VERSION);
    let mut resumed = pore_simulation(Scale::Test, 77);
    loaded.restore(&mut resumed).unwrap();
    resumed.run(200, &mut []).unwrap();
    assert_eq!(
        resumed.system().positions(),
        final_a.as_slice(),
        "disk-restored replica must be bit-identical"
    );

    // Corrupted checkpoint fails loudly, not silently.
    std::fs::write(&path, b"{ not json").unwrap();
    assert!(Snapshot::load(&path).is_err());

    // A snapshot from a different schema generation fails with the
    // *version* error, not generic corruption.
    std::fs::write(&path, b"{\"step\": 120, \"label\": \"old\"}").unwrap();
    assert!(matches!(
        Snapshot::load(&path),
        Err(MdError::CheckpointVersion {
            found: 0,
            supported: SNAPSHOT_SCHEMA_VERSION,
        })
    ));
}

#[test]
fn snapshots_of_different_phases_are_distinct() {
    let mut sim = pore_simulation(Scale::Test, 3);
    let s0 = Snapshot::capture(&sim, "t0");
    sim.run(100, &mut []).unwrap();
    let s1 = Snapshot::capture(&sim, "t1");
    assert_ne!(s0.system.positions(), s1.system.positions());
    assert_ne!(s0.step, s1.step);
}

/// A snapshot that decodes but whose coordinates no cell list can bin (one
/// finite but huge coordinate) is a typed restore error, not a panic in
/// the first force evaluation, and leaves the target simulation as it was.
#[test]
fn restoring_unbinnable_positions_is_a_checkpoint_error() {
    let mut sim = pore_simulation(Scale::Test, 5);
    sim.run(40, &mut []).unwrap();
    let mut snap = Snapshot::capture(&sim, "huge");
    snap.system.positions_mut()[3].z = 1e150;

    let mut target = pore_simulation(Scale::Test, 6);
    let before = target.system().positions().to_vec();
    match snap.restore(&mut target) {
        Err(MdError::Checkpoint(msg)) => assert!(msg.contains("cell grid"), "{msg}"),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    assert_eq!(target.system().positions(), before.as_slice());
    assert_eq!(target.step_count(), 0);
    target.run(20, &mut []).unwrap();
}
