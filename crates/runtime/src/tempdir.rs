//! A scratch directory that no one else has.
//!
//! `cargo test` runs the cases of one binary on parallel threads, and a
//! store under test is `mmap`ped: two cases sharing a `{pid}-{tag}` file
//! name means one truncates a file the other has mapped (SIGBUS). Every
//! test that touches the filesystem takes a [`TempDir`] instead.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes directories created by one process. Bumped with
/// `AcqRel`: `Relaxed` would do for a bare counter, but `gosh audit`
/// confines that ordering to an allowlist this file has no business in.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A freshly created, uniquely named directory under the system temp
/// directory, removed (with its contents) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<tmp>/gosh-<tag>-<pid>-<n>`; `n` is process-wide, so no
    /// two live guards share a path whatever their tags.
    pub fn new(tag: &str) -> io::Result<Self> {
        loop {
            let n = NEXT.fetch_add(1, Ordering::AcqRel);
            let path = std::env::temp_dir().join(format!("gosh-{tag}-{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(Self { path }),
                // Left behind by a killed process that had our pid.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The path of `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory must not fail (or abort) a test.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_never_share_a_path_and_clean_up_on_drop() {
        let dirs: Vec<TempDir> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..8)
                .map(|_| s.spawn(|| TempDir::new("guard").unwrap()))
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut paths: Vec<PathBuf> = dirs.iter().map(|d| d.path.clone()).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 8, "two guards shared a directory");

        let file = dirs[0].join("x.bin");
        std::fs::write(&file, b"x").unwrap();
        drop(dirs);
        assert!(paths.iter().all(|p| !p.exists()), "drop left a directory");
    }
}
