//! Shared integration-test helpers.
//!
//! Every integration-test binary compiles its own copy of this module
//! and uses a different subset of it, so unused-item lints are off.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a digest `h`: a golden digest that moves
/// when any input byte moves.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A uniquely named scratch directory that cleans up after itself.
///
/// Uniqueness comes from the process id plus a per-process counter, and
/// is *enforced* by `create_dir` (not `create_dir_all`), so two tests —
/// or two concurrent test processes — can never share a directory. The
/// directory is removed on drop **unless the test is panicking**, in
/// which case it is left behind for post-mortem inspection.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh scratch directory tagged with `tag`.
    pub fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("spice_test_{tag}_{}_{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return TempDir { path },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create scratch dir {}: {e}", path.display()),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path to `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "test panicked; scratch dir left for inspection: {}",
                self.path.display()
            );
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
