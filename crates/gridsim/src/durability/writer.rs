//! Atomic snapshot files, the writer thread that publishes them, and
//! generation management.
//!
//! Snapshots are named `ckpt-<generation 08d>.spice` and written via the
//! classic temp-file + rename protocol, split across two threads at the
//! point where the kernel holds the bytes. The DES thread creates a
//! `.tmp` sibling and writes the payload into it ([`write_temp`]); the
//! run's writer thread ([`Publisher`]) then flushes the file, renames it
//! over the real name, flushes the directory and prunes old generations,
//! one generation at a time and in hand-off order, while the DES resolves
//! the next events. A name therefore appears only after its bytes are
//! flushed, and its directory entry is flushed before the next
//! generation's file is. A crash at any byte leaves either the previous
//! generation set intact or a stray `.tmp` that recovery ignores — never
//! a half-written `.spice` file under the real name. (Torn final files
//! are still *handled* — the checksum rejects them — because this module
//! also provides the corruption injectors the crash harness uses to
//! simulate exactly that.)

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::Scope;

/// File name of generation `generation` under `dir`.
pub(crate) fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:08}.spice"))
}

/// Parse a generation number out of a `ckpt-<gen>.spice` file name.
fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".spice")?
        .parse()
        .ok()
}

/// Every snapshot generation in `dir`, ascending. Files that do not
/// match the naming scheme (including abandoned `.tmp` files) are
/// ignored.
pub(crate) fn list_generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(generation) = entry.file_name().to_str().and_then(parse_generation) {
            found.push((generation, entry.path()));
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// A snapshot whose bytes the kernel holds in its temp sibling: not yet
/// flushed, and not yet under its generation's name.
pub(crate) struct Written {
    generation: u64,
    bytes: u64,
    file: fs::File,
    tmp: PathBuf,
}

/// A snapshot the writer thread has made durable under its name.
pub(crate) struct Published {
    /// Its generation.
    pub(crate) generation: u64,
    /// Its file size.
    pub(crate) bytes: u64,
}

/// The DES thread's half of the atomic write: create generation
/// `generation`'s temp sibling under `dir` and write `bytes` into it.
/// The temp name embeds the final file name, so concurrent campaigns in
/// one directory (different generations) never collide.
pub(crate) fn write_temp(dir: &Path, generation: u64, bytes: &[u8]) -> io::Result<Written> {
    let tmp = dir.join(format!("ckpt-{generation:08}.spice.tmp"));
    // spice-lint: allow(W001) this is the atomic-writer protocol itself: the temp sibling `publish` flushes and renames
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    Ok(Written {
        generation,
        bytes: bytes.len() as u64,
        file,
        tmp,
    })
}

/// The writer thread's half: flush the bytes, rename the temp sibling
/// over the generation's name, flush the directory so the new entry
/// survives a power cut, then delete every generation but the newest
/// `retain`.
fn publish(dir: &Path, retain: usize, written: Written) -> io::Result<Published> {
    let Written {
        generation,
        bytes,
        file,
        tmp,
    } = written;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, snapshot_path(dir, generation))?;
    sync_dir(dir)?;
    retain_newest(dir, retain)?;
    Ok(Published { generation, bytes })
}

/// Flush `dir`'s entries. Unix only: elsewhere a directory cannot be
/// opened as a file, and a rename is as durable as the platform makes it.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The DES thread's end of a durable run's writer thread, which
/// publishes each handed-off snapshot and sends back its outcome. Both
/// channels are rendezvous channels, and a hand-off waits until the
/// previous outcome is collected, so at most one snapshot is in flight.
pub(crate) struct Publisher {
    jobs: SyncSender<Written>,
    outcomes: Receiver<io::Result<Published>>,
    in_flight: bool,
}

impl Publisher {
    /// Start the writer thread on `scope`: it publishes into `dir`,
    /// keeping the newest `retain` generations, until this end is
    /// dropped (the scope then joins it).
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        dir: &'env Path,
        retain: usize,
    ) -> Publisher {
        let (jobs, inbox) = mpsc::sync_channel::<Written>(0);
        let (outbox, outcomes) = mpsc::sync_channel(0);
        scope.spawn(move || {
            for written in inbox {
                if outbox.send(publish(dir, retain, written)).is_err() {
                    break;
                }
            }
        });
        Publisher {
            jobs,
            outcomes,
            in_flight: false,
        }
    }

    /// Hand `written` to the writer thread. The previous hand-off's
    /// outcome must have been collected.
    pub(crate) fn hand_off(&mut self, written: Written) {
        assert!(
            !self.in_flight,
            "collect the snapshot in flight before handing off the next"
        );
        self.jobs
            .send(written)
            .expect("the writer thread runs until its publisher is dropped");
        self.in_flight = true;
    }

    /// Wait for the snapshot in flight, if there is one: what was
    /// published, or why publishing it failed.
    pub(crate) fn collect(&mut self) -> io::Result<Option<Published>> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(None);
        }
        self.outcomes
            .recv()
            .expect("the writer thread answers every hand-off")
            .map(Some)
    }
}

/// Delete every snapshot except the newest `retain` generations.
pub(crate) fn retain_newest(dir: &Path, retain: usize) -> io::Result<()> {
    let generations = list_generations(dir)?;
    if generations.len() > retain {
        for (_, path) in &generations[..generations.len() - retain] {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Crash injector: truncate `path` to its first `keep_bytes` bytes — a
/// torn write that beat the rename (or a filesystem that lied about the
/// flush).
pub(crate) fn truncate_file(path: &Path, keep_bytes: u64) -> io::Result<()> {
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep_bytes)?;
    f.sync_all()
}

/// Crash injector: invert one byte of `path` in place — silent media
/// corruption the checksum must catch.
pub(crate) fn flip_byte(path: &Path, offset: u64) -> io::Result<()> {
    let mut f = fs::OpenOptions::new().read(true).write(true).open(path)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut b)?;
    b[0] ^= 0xFF;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)?;
    f.sync_all()
}

/// Crash injector: delete the newest `n` snapshot generations — the
/// stale-generation scenario where recovery must fall back to an older
/// intact file.
pub(crate) fn drop_newest(dir: &Path, n: u64) -> io::Result<()> {
    let generations = list_generations(dir)?;
    for (_, path) in generations.iter().rev().take(n as usize) {
        fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "spice_durability_writer_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("create scratch dir");
        d
    }

    /// Both halves of the atomic write on this thread, keeping every
    /// generation.
    fn write_now(dir: &Path, generation: u64, bytes: &[u8]) {
        publish(dir, usize::MAX, write_temp(dir, generation, bytes).unwrap()).unwrap();
    }

    fn generations(dir: &Path) -> Vec<u64> {
        list_generations(dir)
            .unwrap()
            .into_iter()
            .map(|g| g.0)
            .collect()
    }

    #[test]
    fn generation_files_list_in_order_and_ignore_strays() {
        let d = scratch_dir("list");
        for generation in [3u64, 1, 20] {
            write_now(&d, generation, b"payload");
        }
        fs::write(d.join("ckpt-00000007.spice.tmp"), b"torn").unwrap();
        fs::write(d.join("notes.txt"), b"x").unwrap();
        assert_eq!(generations(&d), [1, 3, 20]);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn retention_keeps_only_the_newest_k() {
        let d = scratch_dir("retain");
        for generation in 1..=5u64 {
            write_now(&d, generation, b"p");
        }
        retain_newest(&d, 2).unwrap();
        assert_eq!(generations(&d), [4, 5]);
        // Retaining more than exist is a no-op.
        retain_newest(&d, 10).unwrap();
        assert_eq!(list_generations(&d).unwrap().len(), 2);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn publish_leaves_no_tmp_and_injectors_corrupt_in_place() {
        let d = scratch_dir("inject");
        let p = snapshot_path(&d, 1);
        write_now(&d, 1, &[0u8, 1, 2, 3, 4, 5, 6, 7]);
        assert!(list_generations(&d).unwrap().len() == 1);
        assert!(
            !d.join("ckpt-00000001.spice.tmp").exists(),
            "temp file must be renamed away"
        );
        truncate_file(&p, 3).unwrap();
        assert_eq!(fs::read(&p).unwrap(), [0, 1, 2]);
        flip_byte(&p, 1).unwrap();
        assert_eq!(fs::read(&p).unwrap(), [0, 0xFE, 2]);
        write_now(&d, 2, b"x");
        drop_newest(&d, 1).unwrap();
        assert_eq!(generations(&d), [1]);
        fs::remove_dir_all(&d).unwrap();
    }

    /// The writer thread publishes each hand-off in order and reports a
    /// failed rename through `collect`, whether the next hand-off or a
    /// final drain asks for it.
    #[test]
    fn the_writer_thread_publishes_in_order_and_reports_failures() {
        let d = scratch_dir("thread");
        // A directory squatting on generation 3's name fails its rename.
        fs::create_dir(snapshot_path(&d, 3)).unwrap();
        std::thread::scope(|s| {
            let mut publisher = Publisher::spawn(s, &d, 2);
            assert!(publisher.collect().unwrap().is_none(), "nothing in flight");
            for generation in 1..=3u64 {
                let written = write_temp(&d, generation, &vec![7; generation as usize]).unwrap();
                if let Some(p) = publisher.collect().unwrap() {
                    assert_eq!((p.generation, p.bytes), (generation - 1, generation - 1));
                }
                publisher.hand_off(written);
            }
            let err = publisher
                .collect()
                .err()
                .expect("the squatted rename fails");
            assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
            assert!(publisher.collect().unwrap().is_none(), "drained");
        });
        // Retention kept generation 2 and the squatter's name.
        fs::remove_dir(snapshot_path(&d, 3)).unwrap();
        assert_eq!(generations(&d), [2]);
        assert!(d.join("ckpt-00000003.spice.tmp").exists());
        fs::remove_dir_all(&d).unwrap();
    }
}
