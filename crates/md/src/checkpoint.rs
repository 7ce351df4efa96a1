//! Checkpoint & clone support (§III of the paper).
//!
//! "Checkpoint and cloning of simulations features provided by the
//! RealityGrid infrastructure can also be used for verification and
//! validation tests without perturbing the original simulation and for
//! exploring a particular configuration in greater detail."
//!
//! A [`Snapshot`] captures the full dynamical state plus the step counter;
//! because the Langevin noise is keyed on `(seed, step)`, restoring a
//! snapshot into an identically-configured simulation reproduces the
//! original trajectory *exactly*, while restoring with a different seed
//! clones the simulation onto a divergent realization.

use crate::neighbor::CellList;
use crate::sim::Simulation;
use crate::system::System;
use crate::MdError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Schema version stamped into every snapshot this build writes and
/// required of every snapshot it reads. Bump on any change to the
/// serialized [`Snapshot`] shape.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Version-probe deserialization target: reads *only* the schema field,
/// tolerating its absence, so version checking happens before (and
/// independently of) full structural deserialization.
#[derive(Deserialize)]
struct SchemaProbe {
    schema: Option<u32>,
}

/// A serializable simulation snapshot.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Snapshot {
    /// Snapshot schema version (see [`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Step counter at capture time.
    pub step: u64,
    /// Simulation time (ps) at capture time.
    pub time_ps: f64,
    /// Full particle state.
    pub system: System,
    /// Free-form label (which phase / realization produced this).
    pub label: String,
}

impl Snapshot {
    /// Capture the state of a running simulation.
    pub fn capture(sim: &Simulation, label: impl Into<String>) -> Self {
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            step: sim.step_count(),
            time_ps: sim.time_ps(),
            system: sim.system().clone(),
            label: label.into(),
        }
    }

    /// Restore this snapshot into a simulation (the simulation must have
    /// been built with a compatible force field / particle count).
    ///
    /// # Errors
    /// [`MdError::Checkpoint`] when the particle counts differ, or when the
    /// force field has a pair list and the snapshot's positions cannot be
    /// binned at its list radius (a finite but huge coordinate), on which
    /// the first force evaluation would panic. `sim` is then unchanged.
    pub fn restore(&self, sim: &mut Simulation) -> Result<(), MdError> {
        if sim.system().len() != self.system.len() {
            return Err(MdError::Checkpoint(format!(
                "snapshot has {} particles, simulation has {}",
                self.system.len(),
                sim.system().len()
            )));
        }
        if let Some(nb) = sim.force_field().nonbonded() {
            // The pair list bins every position when it rebuilds, and it
            // bins only lists of two or more particles.
            if self.system.len() > 1 {
                CellList::try_bin(self.system.positions(), nb.list_cutoff() + nb.list_skin())
                    .map_err(|e| MdError::Checkpoint(format!("snapshot positions: {e}")))?;
            }
        }
        *sim.system_mut() = self.system.clone();
        sim.set_step(self.step);
        sim.refresh_forces();
        Ok(())
    }

    /// Serialize to JSON into any writer.
    pub fn write_json<W: Write>(&self, w: W) -> Result<(), MdError> {
        serde_json::to_writer(w, self).map_err(Into::into)
    }

    /// Deserialize from JSON out of any reader.
    ///
    /// # Errors
    /// [`MdError::CheckpointVersion`] when the snapshot was written
    /// under a different schema version (or predates versioning —
    /// reported as version 0); [`MdError::Checkpoint`] for structural
    /// corruption, including a `System` that breaks an invariant
    /// `System::add_particle` keeps (per-particle arrays of different
    /// lengths, a mass that is not finite and positive, an inverse mass
    /// that is not `1.0 / mass`, a non-finite coordinate, velocity, force
    /// or charge), which would otherwise restore and then panic or poison
    /// the first step.
    pub fn read_json<R: Read>(mut r: R) -> Result<Snapshot, MdError> {
        let mut raw = String::new();
        r.read_to_string(&mut raw)?;
        // Two-stage read: probe the schema version first so a version
        // mismatch is reported as exactly that, not as whatever field
        // the newer/older shape happens to trip over first.
        let probe: SchemaProbe = serde_json::from_str(&raw)?;
        match probe.schema {
            Some(SNAPSHOT_SCHEMA_VERSION) => {}
            other => {
                return Err(MdError::CheckpointVersion {
                    found: other.unwrap_or(0),
                    supported: SNAPSHOT_SCHEMA_VERSION,
                })
            }
        }
        let snap: Snapshot = serde_json::from_str(&raw)?;
        snap.system
            .check_invariants()
            .map_err(|e| MdError::Checkpoint(format!("snapshot system: {e}")))?;
        Ok(snap)
    }

    /// Save to a file atomically: the JSON lands in a temp sibling, is
    /// flushed to disk and renamed into place, and the directory is
    /// flushed after the rename, so a crash mid-save never leaves a torn
    /// snapshot under the real name and a saved name survives a power
    /// cut.
    pub fn save(&self, path: &std::path::Path) -> Result<(), MdError> {
        let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            MdError::Checkpoint(format!("snapshot path {} has no file name", path.display()))
        })?;
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        // spice-lint: allow(W001) this is the atomic-writer protocol itself: temp sibling + flush + rename
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        self.write_json(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Unix only: elsewhere a directory cannot be opened as a file.
        if cfg!(unix) {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: &std::path::Path) -> Result<Snapshot, MdError> {
        let f = std::fs::File::open(path)?;
        Self::read_json(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::{ForceField, Restraint};
    use crate::integrate::LangevinBaoab;
    use crate::topology::Topology;
    use crate::vec3::Vec3;

    fn make_sim(seed: u64) -> Simulation {
        let mut sys = System::new();
        for i in 0..4 {
            sys.add_particle(Vec3::new(i as f64, 0.0, 0.0), 5.0, 0.0, 0);
        }
        let mut ff = ForceField::new(Topology::new());
        for i in 0..4 {
            ff = ff.with_restraint(Restraint::harmonic(i, Vec3::new(i as f64, 0.0, 0.0), 1.0));
        }
        Simulation::new(
            sys,
            ff,
            Box::new(LangevinBaoab::new(300.0, 2.0, seed)),
            0.01,
        )
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut sim = make_sim(1);
        sim.run(50, &mut []).unwrap();
        let snap = Snapshot::capture(&sim, "test");
        let mut buf = Vec::new();
        snap.write_json(&mut buf).unwrap();
        let back = Snapshot::read_json(&buf[..]).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn restore_reproduces_trajectory_exactly() {
        // Original: run 50 steps, snapshot, run 50 more → final state A.
        let mut orig = make_sim(42);
        orig.run(50, &mut []).unwrap();
        let snap = Snapshot::capture(&orig, "mid");
        orig.run(50, &mut []).unwrap();
        let final_a = orig.system().positions().to_vec();

        // Restored replica with the same seed continues identically.
        let mut replica = make_sim(42);
        snap.restore(&mut replica).unwrap();
        assert_eq!(replica.step_count(), 50);
        replica.run(50, &mut []).unwrap();
        assert_eq!(replica.system().positions(), final_a.as_slice());
    }

    #[test]
    fn clone_with_new_seed_diverges() {
        let mut orig = make_sim(42);
        orig.run(50, &mut []).unwrap();
        let snap = Snapshot::capture(&orig, "branch-point");
        orig.run(50, &mut []).unwrap();

        // Clone: same state, different noise stream → divergent exploration
        // "without perturbing the original simulation".
        let mut clone = make_sim(43);
        snap.restore(&mut clone).unwrap();
        clone.run(50, &mut []).unwrap();
        assert_ne!(clone.system().positions(), orig.system().positions());
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let sim = make_sim(1);
        let snap = Snapshot::capture(&sim, "x");
        let mut sys = System::new();
        sys.add_particle(Vec3::zero(), 1.0, 0.0, 0);
        let mut other = Simulation::new(
            sys,
            ForceField::new(Topology::new()),
            Box::new(LangevinBaoab::new(300.0, 1.0, 0)),
            0.01,
        );
        assert!(snap.restore(&mut other).is_err());
    }

    #[test]
    fn schema_version_mismatch_is_a_distinct_error() {
        let sim = make_sim(9);
        let mut snap = Snapshot::capture(&sim, "versioned");
        assert_eq!(snap.schema, SNAPSHOT_SCHEMA_VERSION);
        // A snapshot from a future build.
        snap.schema = SNAPSHOT_SCHEMA_VERSION + 7;
        let mut buf = Vec::new();
        snap.write_json(&mut buf).unwrap();
        match Snapshot::read_json(&buf[..]) {
            Err(MdError::CheckpointVersion { found, supported }) => {
                assert_eq!(found, SNAPSHOT_SCHEMA_VERSION + 7);
                assert_eq!(supported, SNAPSHOT_SCHEMA_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // A pre-versioning snapshot (no schema field at all) reports
        // version 0 — the probe runs before structural deserialization,
        // so even this skeletal document gets the right error.
        match Snapshot::read_json(&b"{\"step\": 120}"[..]) {
            Err(MdError::CheckpointVersion { found: 0, .. }) => {}
            other => panic!("expected version-0 error, got {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        assert!(Snapshot::read_json(deep.as_bytes()).is_err());
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spice_ckpt_atomic_{}.json", std::process::id()));
        let tmp = dir.join(format!("spice_ckpt_atomic_{}.json.tmp", std::process::id()));
        let sim = make_sim(2);
        let snap = Snapshot::capture(&sim, "atomic");
        snap.save(&path).unwrap();
        assert!(!tmp.exists(), "temp sibling must be renamed away");
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spice_ckpt_test_{}.json", std::process::id()));
        let sim = make_sim(5);
        let snap = Snapshot::capture(&sim, "file");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(snap, back);
        let _ = std::fs::remove_file(&path);
    }
}
