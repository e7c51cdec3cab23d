//! Replacing a file without truncating it under its readers.
//!
//! `File::create` truncates in place: a process that has the old file
//! mapped (`gosh serve` maps its `.embin`) then reads a half-written file,
//! or dies with SIGBUS on the pages past the new end. [`replace_file`]
//! writes a temp file next to the target and renames it over the target
//! instead. A reader that opened or mapped the old file keeps its bytes
//! (the old inode lives until the last reader lets go), and a fresh open
//! sees the complete new file. There is no fsync: the rename orders the
//! replacement for readers on this host, not durability across a power
//! cut.

use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes the temp files of one process. `AcqRel` for the reason
/// `tempdir::NEXT` gives.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// Write `path` through `fill`: into `<path>.tmp-<pid>-<n>` in the same
/// directory, then renamed over `path`, keeping the old file's
/// permissions. On error the temp file is removed and the old file is
/// left as it was.
///
/// A target that exists and is not a regular file (a device such as
/// `/dev/full`, a FIFO, a symlink) is written in place, as `File::create`
/// would. Every error names `path`.
pub fn replace_file(
    path: impl AsRef<Path>,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let path = path.as_ref();
    let named = |e: io::Error| io::Error::new(e.kind(), format!("writing {}: {e}", path.display()));
    let old = fs::symlink_metadata(path).ok();
    if old.as_ref().is_some_and(|m| !m.is_file()) {
        return write_through(File::create(path), fill).map_err(named);
    }
    let (tmp, file) = create_temp(path).map_err(named)?;
    let written = write_through(Ok(file), fill)
        .and_then(|()| match &old {
            Some(m) => fs::set_permissions(&tmp, m.permissions()),
            None => Ok(()),
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written.map_err(named)
}

fn write_through(
    file: io::Result<File>,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = BufWriter::new(file?);
    fill(&mut w)?;
    w.flush()
}

/// A fresh `<path>.tmp-<pid>-<n>`, skipping names a killed process with
/// our pid left behind.
fn create_temp(path: &Path) -> io::Result<(PathBuf, File)> {
    loop {
        let n = NEXT.fetch_add(1, Ordering::AcqRel);
        let mut name = OsString::from(path.as_os_str());
        name.push(format!(".tmp-{}-{n}", std::process::id()));
        let tmp = PathBuf::from(name);
        match OpenOptions::new().write(true).create_new(true).open(&tmp) {
            Ok(file) => return Ok((tmp, file)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn entries(dir: &TempDir) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir.join(""))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn an_open_reader_keeps_the_old_bytes_and_a_fresh_open_sees_the_new() {
        let dir = TempDir::new("replace").unwrap();
        let path = dir.join("f.bin");
        replace_file(&path, |w| w.write_all(b"old bytes")).unwrap();
        let mut reader = File::open(&path).unwrap();
        replace_file(&path, |w| w.write_all(b"new")).unwrap();
        let mut kept = String::new();
        io::Read::read_to_string(&mut reader, &mut kept).unwrap();
        assert_eq!(kept, "old bytes");
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert_eq!(entries(&dir), ["f.bin"]);
    }

    #[test]
    fn a_failed_write_leaves_the_old_file_and_no_temp_file() {
        let dir = TempDir::new("replace").unwrap();
        let path = dir.join("f.bin");
        fs::write(&path, b"old").unwrap();
        let err = replace_file(&path, |w| {
            w.write_all(&[7u8; 100_000])?;
            Err(io::Error::other("disk on fire"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert_eq!(entries(&dir), ["f.bin"]);

        // A missing directory: the error names the final path.
        let nowhere = dir.join("missing").join("f.bin");
        let err = replace_file(&nowhere, |w| w.write_all(b"x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(
            err.to_string().contains(&*nowhere.to_string_lossy()),
            "{err}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn the_old_permissions_survive_and_devices_are_written_in_place() {
        use std::os::unix::fs::PermissionsExt;
        let dir = TempDir::new("replace").unwrap();
        let path = dir.join("f.bin");
        fs::write(&path, b"old").unwrap();
        fs::set_permissions(&path, fs::Permissions::from_mode(0o600)).unwrap();
        replace_file(&path, |w| w.write_all(b"new")).unwrap();
        let mode = fs::metadata(&path).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o600);

        // `/dev/null` is not a regular file: written in place, not renamed over.
        replace_file("/dev/null", |w| w.write_all(b"gone")).unwrap();
        assert!(!fs::metadata("/dev/null").unwrap().is_file());
    }
}
