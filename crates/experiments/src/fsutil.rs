//! Crash-safe artifact writes.
//!
//! Every artifact the CLI leaves behind (shard state, checkpoints, reports,
//! metrics) goes through [`write_atomic`]: the bytes land in a `*.tmp` file
//! in the destination directory, are fsynced, and are renamed over the final
//! name. A process killed at any instant therefore leaves either the old
//! file, the new file, or a stray `*.tmp` — never a truncated artifact under
//! the real name. Readers ignore `*.tmp` (see `shard::load_dir`, and
//! `checkpoint::load_latest`, which finds the newest checkpoint by its
//! sequence number alone), so torn writes are invisible to `repro merge`
//! and `repro resume`.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Atomically replaces `path` with `bytes`.
///
/// Writes `<path>.tmp` in the same directory (same filesystem, so the final
/// rename is atomic), fsyncs the data, renames over `path`, then best-effort
/// fsyncs the directory so the rename itself survives a power cut. Any I/O
/// failure is reported with the path it happened on; on failure the
/// destination is untouched (a stale `*.tmp` may remain and is harmless).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = tmp_path(path);
    let mut file =
        File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    file.sync_all()
        .map_err(|e| format!("cannot sync {}: {e}", tmp.display()))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| {
        format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        )
    })?;
    // Persisting the rename needs a directory fsync; failure to *observe*
    // that (e.g. a filesystem that refuses to open directories) does not
    // mean the write failed, so it is not an error.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp-file name `write_atomic` stages under: `<file name>.tmp` in the
/// same directory. Exposed so tests can construct torn-write scenarios.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Creates `dir` (and parents), reporting the path on failure.
pub fn ensure_dir(dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsutil-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_round_trips_and_replaces() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(
            !tmp_path(&path).exists(),
            "successful write must not leave its temp file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_reports_the_failing_path() {
        let dir = scratch_dir("missing").join("no-such-subdir");
        let err = write_atomic(&dir.join("artifact.json"), b"x").unwrap_err();
        assert!(err.contains("artifact.json.tmp"), "unexpected error: {err}");
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn tmp_path_stays_in_the_same_directory() {
        let p = tmp_path(Path::new("/a/b/c.shardstate.json"));
        assert_eq!(p, Path::new("/a/b/c.shardstate.json.tmp"));
    }
}
