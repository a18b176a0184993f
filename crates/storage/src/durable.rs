//! Whole-file replacement that survives a crash, for the small metadata
//! files kept beside the data file: the catalog snapshot, the query store
//! and the quarantine list.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use seqdb_types::{DbError, Result};

/// Replace the file at `path` with `data` so that a crash leaves the old
/// file or the new one, whole, and a return means the new one is on
/// disk: write `<path>.tmp`, fsync it, rename it over `path`, fsync the
/// directory so the rename itself is durable.
pub fn durable_replace(path: &Path, data: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = File::create(&tmp).map_err(DbError::io_write)?;
    f.write_all(data).map_err(DbError::io_write)?;
    f.sync_all().map_err(DbError::io_write)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(DbError::io_write)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(DbError::io_write)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_whole_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("seqdb-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list");
        durable_replace(&path, b"first").unwrap();
        durable_replace(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("list.tmp").exists());
        let err = durable_replace(&dir.join("missing").join("list"), b"x").unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
