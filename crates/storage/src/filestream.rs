//! FileStream BLOB storage (paper §2.3.6).
//!
//! SQL Server 2008 FileStream stores `VARBINARY(MAX)` payloads as files in
//! an NTFS directory managed by the database: rows carry a GUID, payloads
//! live on the filesystem, and clients get two access paths — relational
//! (`GetBytes` streaming through the engine, bypassing the buffer pool)
//! and direct file-handle access through Win32 APIs for external tools.
//!
//! [`FileStreamStore`] reproduces that contract:
//!
//! * [`FileStreamStore::insert`] / [`FileStreamStore::insert_from_file`] —
//!   the `OPENROWSET(BULK ..., SINGLE_BLOB)` import path;
//! * [`FileStreamReader::get_bytes`] — positional reads with an optional
//!   *sequential-access* read-ahead buffer, exactly the API shape the
//!   paper's chunked TVF wrapper is written against (§4.1);
//! * [`FileStreamStore::open_for_external_tool`] — hands out a real `File`
//!   so "existing bioinformatics tools can be used almost unchanged";
//! * [`FileStreamStore::path_name`] — the T-SQL `column.PathName()`.
//!
//! There is deliberately **no storage transformation**: a FileStream BLOB
//! occupies exactly its original size on disk, which is what makes the
//! FileStream columns of Tables 1 and 2 show zero overhead.
//!
//! Inserts are crash-safe: payloads are written to a `.tmp` file, synced,
//! and atomically renamed to their final `.blob` name (followed by a
//! directory sync), so a blob either exists completely or not at all.
//! [`FileStreamStore::open`] removes `.tmp` orphans left by a crash and
//! resumes the GUID sequence past the existing blobs.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seqdb_types::{DbError, Result, Value};

use crate::counters::{storage_counters, waits, WaitClass};
use crate::fault::FaultClock;
use crate::scrub::Quarantine;
use crate::sha256::{self, Sha256};

/// Default read-ahead chunk for sequential access (64 KiB, matching the
/// paper's observation that chunked reads beat per-line reads).
pub const SEQUENTIAL_BUFFER: usize = 64 * 1024;

/// How many times a failed BLOB read is retried before giving up.
pub const READ_RETRIES: u32 = 3;

/// How many times a failed BLOB write is retried before giving up. The
/// import path (`insert` / `insert_from_file`) rebuilds the temp file
/// from scratch on each attempt, so a retry never resumes a torn write.
pub const WRITE_RETRIES: u32 = 3;

/// Backoff before the first retry; doubles per attempt (1ms, 2ms, 4ms).
const RETRY_BASE: Duration = Duration::from_millis(1);

/// A database-managed directory of BLOB files, addressed by GUID.
pub struct FileStreamStore {
    root: PathBuf,
    guid_seq: AtomicU64,
    /// Optional fault clock shared with the pager/WAL wrappers so tests
    /// can drive transient read errors through one seeded schedule.
    fault: Mutex<Option<Arc<FaultClock>>>,
    /// Total transient-error retries burned by `write_atomic` across the
    /// store's lifetime (observability for import-under-fault tests).
    write_retries: AtomicU64,
    /// Optional quarantine list shared with the scrubber. When set,
    /// `path_name` (and everything built on it: reads, `DATALENGTH`,
    /// external-tool opens) refuses quarantined blobs with the typed
    /// [`DbError::Quarantined`].
    quarantine: Mutex<Option<Arc<Quarantine>>>,
}

/// Outcome of re-hashing one blob against its recorded import hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobCheck {
    /// Hash matches the sidecar: the blob is byte-identical to its import.
    Ok,
    /// No sidecar exists (blob created by an external tool, or the sidecar
    /// was invalidated by an external-tool open). Nothing to verify
    /// against — reported, not treated as corruption.
    Unhashed,
    /// Hash differs from the sidecar: the blob decayed at rest.
    Mismatch,
}

impl FileStreamStore {
    /// Create (or reopen) a store rooted at `dir`. Reopening removes any
    /// `.tmp` files orphaned by a crash mid-insert and resumes the GUID
    /// sequence past the blobs already present so it cannot restart from 1
    /// and collide with them.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileStreamStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        let mut blobs = 0u64;
        let mut blob_stems = std::collections::HashSet::new();
        let mut sidecars = Vec::new();
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            match path.extension().and_then(|e| e.to_str()) {
                // An orphaned temp file is an insert that never completed;
                // its GUID was never returned to anyone, so drop it.
                Some("tmp") if fs::remove_file(&path).is_ok() => {
                    storage_counters()
                        .startup_orphans_removed
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some("blob") => {
                    blobs += 1;
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        blob_stems.insert(stem.to_string());
                    }
                }
                Some("sha256") => sidecars.push(path),
                _ => {}
            }
        }
        // A hash sidecar whose blob never made it (crash between sidecar
        // write and rename) certifies nothing; sweep it too.
        for sc in sidecars {
            let stem = sc.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if !blob_stems.contains(stem) && fs::remove_file(&sc).is_ok() {
                storage_counters()
                    .startup_orphans_removed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(FileStreamStore {
            root,
            guid_seq: AtomicU64::new(blobs + 1),
            fault: Mutex::new(None),
            write_retries: AtomicU64::new(0),
            quarantine: Mutex::new(None),
        })
    }

    /// Directory managed by this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Attach (or detach, with `None`) a fault clock. Readers opened after
    /// this call consult the clock on every physical read, exercising the
    /// transient-error retry path.
    pub fn set_fault_clock(&self, clock: Option<Arc<FaultClock>>) {
        *self.fault.lock() = clock;
    }

    /// Total transient-error retries `write_atomic` has performed.
    pub fn write_retries(&self) -> u64 {
        self.write_retries.load(Ordering::Relaxed)
    }

    /// Generate a fresh GUID (`NEWID()`): time-seeded, process-unique,
    /// and guaranteed not to collide with any blob already on disk.
    pub fn new_guid(&self) -> u128 {
        loop {
            let seq = self.guid_seq.fetch_add(1, Ordering::Relaxed) as u128;
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            // Version-4-style layout: high bits from the clock, low from seq.
            let guid = (now << 32) ^ (seq << 1) ^ 0x4000_0000_0000_0000_0000_0000_0000_0001;
            // A clobbered blob is silent data loss; re-roll on collision.
            if !self.path(guid).exists() {
                return guid;
            }
        }
    }

    /// Attach (or detach) the scrubber's quarantine list. With a list
    /// attached, every access that resolves a blob path first checks it.
    pub fn set_quarantine(&self, quarantine: Option<Arc<Quarantine>>) {
        *self.quarantine.lock() = quarantine;
    }

    /// The quarantine key for a blob: `filestream:<guid-string>`.
    pub fn object_key(guid: u128) -> String {
        format!("filestream:{}", Value::guid_string(guid))
    }

    fn path(&self, guid: u128) -> PathBuf {
        self.root.join(format!("{}.blob", Value::guid_string(guid)))
    }

    fn sidecar(&self, guid: u128) -> PathBuf {
        self.root
            .join(format!("{}.sha256", Value::guid_string(guid)))
    }

    /// Store a BLOB from memory; returns its GUID.
    pub fn insert(&self, data: &[u8]) -> Result<u128> {
        let guid = self.new_guid();
        self.write_atomic(guid, |f| {
            f.write_all(data)?;
            Ok(())
        })?;
        Ok(guid)
    }

    /// Bulk-import an existing file (the `OPENROWSET(BULK …, SINGLE_BLOB)`
    /// path): streams it into the store without loading it into memory.
    pub fn insert_from_file(&self, source: &Path) -> Result<u128> {
        let guid = self.new_guid();
        let mut src = File::open(source)?;
        self.write_atomic(guid, |f| {
            // A retry restarts the copy on a fresh temp file; rewind the
            // source so the blob is complete, not a tail.
            src.seek(SeekFrom::Start(0))?;
            std::io::copy(&mut src, f)?;
            Ok(())
        })?;
        Ok(guid)
    }

    /// Crash-safe blob creation: fill a `.tmp` file, sync it, atomically
    /// rename it to its final name and sync the directory. A crash at any
    /// point leaves either no blob or the complete blob, never a torn one.
    ///
    /// Like the read path, each attempt consults the attached fault clock
    /// and transient I/O errors are retried up to [`WRITE_RETRIES`] times
    /// with bounded exponential backoff. Every retry discards the temp
    /// file and refills it from scratch, so the atomicity argument above
    /// holds per attempt.
    fn write_atomic(
        &self,
        guid: u128,
        mut fill: impl FnMut(&mut HashingWriter) -> Result<()>,
    ) -> Result<()> {
        let tmp = self.root.join(format!("{}.tmp", Value::guid_string(guid)));
        let path = self.path(guid);
        let fault = self.fault.lock().clone();
        let mut attempt = 0u32;
        loop {
            match self.try_write_atomic(&tmp, &path, &fault, &mut fill) {
                Ok(()) => return Ok(()),
                Err(DbError::Io(msg)) => {
                    let _ = fs::remove_file(&tmp);
                    if attempt >= WRITE_RETRIES {
                        return Err(DbError::Io(format!(
                            "filestream write failed after {attempt} retries: {msg}"
                        )));
                    }
                    let backoff = Instant::now();
                    std::thread::sleep(RETRY_BASE * (1 << attempt));
                    waits().record(WaitClass::FileStreamRetry, backoff.elapsed());
                    attempt += 1;
                    self.write_retries.fetch_add(1, Ordering::Relaxed);
                    storage_counters()
                        .filestream_write_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(e);
                }
            }
        }
    }

    /// One attempt of [`Self::write_atomic`]. The fault clock is consulted
    /// twice — at write submission and at the durability point — so a
    /// seeded schedule can fail an attempt either before any bytes land or
    /// after the temp file is full, exercising the refill-from-scratch
    /// retry path.
    fn try_write_atomic(
        &self,
        tmp: &Path,
        path: &Path,
        fault: &Option<Arc<FaultClock>>,
        fill: &mut impl FnMut(&mut HashingWriter) -> Result<()>,
    ) -> Result<()> {
        if let Some(clock) = fault {
            clock.inject_write()?;
        }
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(tmp)
            .map_err(DbError::io_write)?;
        // A fresh hasher per attempt: a retry refills the file from the
        // start, and the digest covers exactly the bytes of this attempt.
        let mut w = HashingWriter {
            file,
            hasher: Sha256::new(),
            bytes: 0,
        };
        let written = fill(&mut w).and_then(|()| {
            if let Some(clock) = fault {
                clock.inject_write()?;
            }
            w.file.sync_data()?;
            Ok(())
        });
        let HashingWriter {
            file,
            hasher,
            bytes,
        } = w;
        drop(file);
        written?;
        // Record the content hash before the blob becomes visible, so a
        // complete blob always carries its import-time digest. (A crash
        // here leaves an orphan sidecar, swept on reopen.)
        let digest = hasher.finalize();
        let stem = tmp.file_stem().and_then(|s| s.to_str()).unwrap_or("blob");
        fs::write(
            self.root.join(format!("{stem}.sha256")),
            sha256::to_hex(&digest),
        )
        .map_err(DbError::io_write)?;
        fs::rename(tmp, path)?;
        sync_dir(&self.root)?;
        storage_counters()
            .filestream_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// `column.PathName()`: the filesystem path of a BLOB. Quarantined
    /// blobs are refused here — the chokepoint every read path goes
    /// through — so a statement touching a known-corrupt blob fails typed
    /// instead of serving rotted bytes.
    pub fn path_name(&self, guid: u128) -> Result<PathBuf> {
        if let Some(q) = self.quarantine.lock().as_ref() {
            q.check(&Self::object_key(guid))?;
        }
        let p = self.path(guid);
        if p.exists() {
            Ok(p)
        } else {
            Err(DbError::NotFound(format!(
                "filestream blob {}",
                Value::guid_string(guid)
            )))
        }
    }

    /// `DATALENGTH(column)`: BLOB size in bytes.
    pub fn len(&self, guid: u128) -> Result<u64> {
        Ok(fs::metadata(self.path_name(guid)?)?.len())
    }

    /// Open a streaming reader. `sequential` enables read-ahead buffering
    /// (the `CommandBehavior.SequentialAccess` flag of §4.1).
    pub fn open_reader(&self, guid: u128, sequential: bool) -> Result<FileStreamReader> {
        let path = self.path_name(guid)?;
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        Ok(FileStreamReader {
            file,
            len,
            buffer: if sequential {
                Some(ReadAhead {
                    buf: vec![0u8; SEQUENTIAL_BUFFER],
                    start: 0,
                    filled: 0,
                })
            } else {
                None
            },
            fault: self.fault.lock().clone(),
            retries: 0,
        })
    }

    /// Direct file-handle access for external tools (the Win32
    /// `WriteFile()`/`ReadFile()` path). Opens read-write so a tool can
    /// also produce its output into DBMS-managed storage. The import-time
    /// hash sidecar is invalidated: an external tool may legitimately
    /// rewrite the blob, after which the old digest certifies nothing.
    pub fn open_for_external_tool(&self, guid: u128) -> Result<File> {
        let path = self.path_name(guid)?;
        let _ = fs::remove_file(self.sidecar(guid));
        Ok(OpenOptions::new().read(true).write(true).open(path)?)
    }

    /// Create an *empty* BLOB and return `(guid, file)` so an external
    /// tool can write its output under database control.
    pub fn create_for_external_tool(&self) -> Result<(u128, File)> {
        let guid = self.new_guid();
        let path = self.path(guid);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        Ok((guid, file))
    }

    /// Delete a BLOB. Goes straight to the path (not through the
    /// quarantine check): deleting a quarantined blob is how an operator
    /// clears it for re-import, so the delete clears the quarantine entry.
    pub fn delete(&self, guid: u128) -> Result<()> {
        let p = self.path(guid);
        if !p.exists() {
            return Err(DbError::NotFound(format!(
                "filestream blob {}",
                Value::guid_string(guid)
            )));
        }
        fs::remove_file(p)?;
        let _ = fs::remove_file(self.sidecar(guid));
        if let Some(q) = self.quarantine.lock().as_ref() {
            q.clear_object(&Self::object_key(guid))?;
        }
        Ok(())
    }

    /// GUID strings of every blob in the store, by directory listing (the
    /// scrubber's enumeration — file names are authoritative, no catalog
    /// needed).
    pub fn blob_names(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "blob") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    out.push(stem.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Re-hash the named blob (a stem from [`Self::blob_names`]) against
    /// its import-time sidecar. Reads the file directly — quarantined
    /// blobs must stay verifiable, or a repaired/re-imported blob could
    /// never clear its entry.
    pub fn verify_blob(&self, name: &str) -> Result<BlobCheck> {
        let blob = self.root.join(format!("{name}.blob"));
        let sidecar = self.root.join(format!("{name}.sha256"));
        let start = Instant::now();
        let result = (|| {
            let expected = match fs::read_to_string(&sidecar) {
                Ok(hex) => hex.trim().to_string(),
                Err(_) => return Ok(BlobCheck::Unhashed),
            };
            let digest = hash_file(&blob)?;
            if sha256::to_hex(&digest) == expected {
                Ok(BlobCheck::Ok)
            } else {
                Ok(BlobCheck::Mismatch)
            }
        })();
        waits().record(WaitClass::ScrubIo, start.elapsed());
        storage_counters()
            .scrub_blobs_checked
            .fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Total bytes of all BLOBs in the store (for the storage-efficiency
    /// tables).
    pub fn total_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "blob") {
                total += entry.metadata()?.len();
            }
        }
        Ok(total)
    }
}

struct ReadAhead {
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
    /// Valid bytes in `buf`.
    filled: usize,
}

/// Streaming reader over one BLOB, with the `GetBytes` positional API of
/// ADO.NET that the paper's TVF wrapper uses.
///
/// BLOB reads go to plain files outside the buffer pool, so a transient
/// I/O error (NFS hiccup, overloaded disk) would otherwise kill a
/// long-running import or `CROSS APPLY` scan near its end. Each physical
/// read is therefore retried up to [`READ_RETRIES`] times with bounded
/// exponential backoff; only a persistently failing device surfaces as an
/// error, and that error reports how many retries were burned.
pub struct FileStreamReader {
    file: File,
    len: u64,
    buffer: Option<ReadAhead>,
    fault: Option<Arc<FaultClock>>,
    retries: u64,
}

impl FileStreamReader {
    /// Total BLOB length.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total transient-error retries this reader has performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// One physical read attempt at `offset` (fault-checked).
    fn try_read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if let Some(clock) = &self.fault {
            clock.inject_op()?;
        }
        self.file.seek(SeekFrom::Start(offset))?;
        let n = read_fully(&mut self.file, buf)?;
        storage_counters()
            .filestream_bytes_read
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Positional read with bounded-backoff retry on transient I/O errors.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let mut attempt = 0u32;
        loop {
            match self.try_read_at(offset, buf) {
                Ok(n) => return Ok(n),
                Err(DbError::Io(msg)) => {
                    if attempt >= READ_RETRIES {
                        return Err(DbError::Io(format!(
                            "filestream read failed after {attempt} retries: {msg}"
                        )));
                    }
                    let backoff = Instant::now();
                    std::thread::sleep(RETRY_BASE * (1 << attempt));
                    waits().record(WaitClass::FileStreamRetry, backoff.elapsed());
                    attempt += 1;
                    self.retries += 1;
                    storage_counters()
                        .filestream_read_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read up to `out.len()` bytes starting at `offset`; returns the
    /// number of bytes read (0 at EOF). With sequential access enabled,
    /// forward reads are served from a read-ahead buffer.
    pub fn get_bytes(&mut self, offset: u64, out: &mut [u8]) -> Result<usize> {
        if offset >= self.len || out.is_empty() {
            return Ok(0);
        }
        if let Some(mut ra) = self.buffer.take() {
            // Serve from the read-ahead window where possible. (The window
            // is moved out so `read_at` can borrow `self` for refills.)
            let mut produced = 0usize;
            let mut offset = offset;
            let mut result = Ok(());
            while produced < out.len() && offset < self.len {
                let in_window = offset >= ra.start && offset < ra.start + ra.filled as u64;
                if !in_window {
                    // Refill the window starting at `offset`.
                    let n = match self.read_at(offset, &mut ra.buf) {
                        Ok(n) => n,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    };
                    ra.start = offset;
                    ra.filled = n;
                    if n == 0 {
                        break;
                    }
                }
                let window_off = (offset - ra.start) as usize;
                let avail = ra.filled - window_off;
                let want = (out.len() - produced).min(avail);
                out[produced..produced + want]
                    .copy_from_slice(&ra.buf[window_off..window_off + want]);
                produced += want;
                offset += want as u64;
            }
            self.buffer = Some(ra);
            result?;
            Ok(produced)
        } else {
            self.read_at(offset, out)
        }
    }

    /// Read the entire BLOB (convenience for small blobs and tests).
    pub fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.len as usize];
        let mut pos = 0usize;
        while (pos as u64) < self.len {
            let n = self.read_at(pos as u64, &mut out[pos..])?;
            if n == 0 {
                break;
            }
            pos += n;
        }
        out.truncate(pos);
        Ok(out)
    }
}

/// A blob's temp file being filled: every byte written also feeds the
/// content hash, so the sidecar digest needs no second read of the file.
struct HashingWriter {
    file: File,
    hasher: Sha256,
    bytes: u64,
}

impl Write for HashingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.file.write(buf)?;
        self.hasher.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// SHA-256 of a file's contents, streamed in 64 KiB chunks.
fn hash_file(path: &Path) -> Result<[u8; 32]> {
    let mut f = File::open(path)?;
    let mut hasher = Sha256::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(hasher.finalize())
}

/// Sync a directory so a just-completed rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

fn read_fully(file: &mut File, buf: &mut [u8]) -> Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        let r = file.read(&mut buf[n..])?;
        if r == 0 {
            break;
        }
        n += r;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> FileStreamStore {
        let dir = std::env::temp_dir().join(format!("seqdb-fs-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        FileStreamStore::open(dir).unwrap()
    }

    #[test]
    fn insert_and_read_back() {
        let s = store("basic");
        let guid = s.insert(b"@read1\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(s.len(guid).unwrap(), 19);
        let mut r = s.open_reader(guid, false).unwrap();
        assert_eq!(r.read_all().unwrap(), b"@read1\nACGT\n+\nIIII\n");
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn get_bytes_positional_and_sequential_agree() {
        let s = store("chunks");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let guid = s.insert(&data).unwrap();
        for sequential in [false, true] {
            let mut r = s.open_reader(guid, sequential).unwrap();
            let mut buf = vec![0u8; 7001];
            let mut pos = 0u64;
            let mut assembled = Vec::new();
            loop {
                let n = r.get_bytes(pos, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                assembled.extend_from_slice(&buf[..n]);
                pos += n as u64;
            }
            assert_eq!(assembled, data, "sequential={sequential}");
        }
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn random_access_within_sequential_mode_still_correct() {
        let s = store("random");
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 13) as u8).collect();
        let guid = s.insert(&data).unwrap();
        let mut r = s.open_reader(guid, true).unwrap();
        let mut buf = [0u8; 64];
        // Jump backwards: the window must refill, not return stale bytes.
        let n = r.get_bytes(90_000, &mut buf).unwrap();
        assert_eq!(&buf[..n], &data[90_000..90_000 + n]);
        let n = r.get_bytes(5, &mut buf).unwrap();
        assert_eq!(&buf[..n], &data[5..5 + n]);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn path_name_and_external_tool_handle() {
        let s = store("external");
        let guid = s.insert(b"hello").unwrap();
        let p = s.path_name(guid).unwrap();
        assert!(p.exists());
        // An external tool appends through its own handle...
        let mut f = s.open_for_external_tool(guid).unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        // ...and the database sees the update.
        assert_eq!(s.len(guid).unwrap(), 11);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn create_for_external_tool_registers_blob() {
        let s = store("create-ext");
        let (guid, mut f) = s.create_for_external_tool().unwrap();
        f.write_all(b"alignment output").unwrap();
        drop(f);
        assert_eq!(s.len(guid).unwrap(), 16);
        assert!(s.total_bytes().unwrap() >= 16);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn delete_then_not_found() {
        let s = store("delete");
        let guid = s.insert(b"x").unwrap();
        s.delete(guid).unwrap();
        assert!(matches!(s.len(guid), Err(DbError::NotFound(_))));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn reopen_resumes_guid_sequence_and_keeps_blobs() {
        let s = store("reopen");
        let root = s.root().to_path_buf();
        let mut guids = Vec::new();
        for i in 0..8u8 {
            guids.push(s.insert(&[i; 32]).unwrap());
        }
        drop(s);
        // A second process opens the same directory. Its fresh GUIDs must
        // not clobber any existing blob.
        let s = FileStreamStore::open(&root).unwrap();
        let mut new_guids = Vec::new();
        for i in 8..16u8 {
            new_guids.push(s.insert(&[i; 32]).unwrap());
        }
        for (i, g) in guids.iter().enumerate() {
            assert!(!new_guids.contains(g), "guid reused after reopen");
            let mut r = s.open_reader(*g, false).unwrap();
            assert_eq!(r.read_all().unwrap(), vec![i as u8; 32]);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_removes_orphaned_temp_files() {
        let s = store("orphans");
        let root = s.root().to_path_buf();
        let keep = s.insert(b"committed blob").unwrap();
        // Simulate a crash mid-insert: a .tmp file with no final rename.
        fs::write(root.join("deadbeef.tmp"), b"half-written").unwrap();
        drop(s);
        let s = FileStreamStore::open(&root).unwrap();
        assert!(!root.join("deadbeef.tmp").exists(), "orphan not cleaned");
        assert_eq!(s.len(keep).unwrap(), 14, "real blob untouched");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn insert_leaves_no_temp_files_behind() {
        let s = store("no-temps");
        for i in 0..4u8 {
            s.insert(&[i; 100]).unwrap();
        }
        let temps = fs::read_dir(s.root())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(temps, 0);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn the_sidecar_digest_is_the_blob_hash_even_after_a_write_retry() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("digest");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let source = s.root().join("source.bin");
        fs::write(&source, &data).unwrap();
        let sidecar_matches = |guid: u128| {
            let recorded = fs::read_to_string(s.sidecar(guid)).unwrap();
            assert_eq!(recorded, sha256::to_hex(&hash_file(&s.path(guid)).unwrap()));
            assert_eq!(recorded, sha256::to_hex(&sha256::sha256(&data)));
        };
        sidecar_matches(s.insert(&data).unwrap());
        sidecar_matches(s.insert_from_file(&source).unwrap());
        // Every 4th operation fails. An attempt counts two, at submission
        // and after the temp file is full: two ops in, the first attempt
        // fails full, and the retry refills the file and its hash.
        for insert_from_file in [false, true] {
            let clock = FaultClock::new(FaultPlan {
                io_error_every: Some(4),
                ..FaultPlan::none()
            });
            clock.inject_op().unwrap();
            clock.inject_op().unwrap();
            s.set_fault_clock(Some(clock));
            let retries = s.write_retries();
            let guid = if insert_from_file {
                s.insert_from_file(&source).unwrap()
            } else {
                s.insert(&data).unwrap()
            };
            s.set_fault_clock(None);
            assert_eq!(s.write_retries(), retries + 1, "one retry");
            sidecar_matches(guid);
        }
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn transient_read_errors_are_retried_to_success() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("retry-ok");
        let data: Vec<u8> = (0..150_000u32).map(|i| (i % 197) as u8).collect();
        let guid = s.insert(&data).unwrap();
        // Every 4th operation fails: each failure is followed by at least
        // three good attempts, so retries always recover.
        s.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(4),
            ..FaultPlan::none()
        })));
        for sequential in [false, true] {
            let mut r = s.open_reader(guid, sequential).unwrap();
            let mut buf = vec![0u8; 7000];
            let mut assembled = Vec::new();
            loop {
                let n = r.get_bytes(assembled.len() as u64, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                assembled.extend_from_slice(&buf[..n]);
            }
            assert_eq!(assembled, data, "sequential={sequential}");
            assert!(
                r.retries() > 0,
                "the schedule must have fired (sequential={sequential})"
            );
        }
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn persistent_read_errors_report_retry_count() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("retry-dead");
        let guid = s.insert(b"unreachable payload").unwrap();
        // Every operation fails: the device is effectively dead.
        s.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(1),
            ..FaultPlan::none()
        })));
        let mut r = s.open_reader(guid, false).unwrap();
        let err = r.read_all().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("after {READ_RETRIES} retries")),
            "error must carry the retry count: {msg}"
        );
        // Detaching the clock restores normal service on new readers.
        s.set_fault_clock(None);
        let mut r = s.open_reader(guid, false).unwrap();
        assert_eq!(r.read_all().unwrap(), b"unreachable payload");
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn transient_write_errors_are_retried_to_success() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("write-retry-ok");
        // Every 4th operation fails. Each write attempt burns two ops
        // (submission + durability), so the schedule hits both the
        // before-any-bytes and the after-fill failure points across the
        // inserts below, and every failure recovers within the retry
        // budget.
        s.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(4),
            ..FaultPlan::none()
        })));
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 211) as u8).collect();
        let mut guids = Vec::new();
        for _ in 0..6 {
            guids.push(s.insert(&data).unwrap());
        }
        assert!(s.write_retries() > 0, "the schedule must have fired");
        s.set_fault_clock(None);
        for g in guids {
            let mut r = s.open_reader(g, false).unwrap();
            assert_eq!(r.read_all().unwrap(), data, "blob complete after retries");
        }
        let temps = fs::read_dir(s.root())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(temps, 0, "no temp files survive a retried insert");
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn import_from_file_rewinds_the_source_on_retry() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("write-retry-rewind");
        let src = s.root().join("source.fastq");
        let payload: Vec<u8> = (0..120_000u32).map(|i| (i % 251) as u8).collect();
        fs::write(&src, &payload).unwrap();
        // Failures landing on the durability op leave a fully-copied temp
        // file behind; the retry must rewind the source or the re-copy
        // produces an empty blob. Each attempt burns two ops, so with a
        // warm-up insert (ops 1-2) the import's first attempt fails on
        // its durability op (op 4) — after the copy — and its retry
        // (ops 5-6) succeeds.
        s.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(4),
            ..FaultPlan::none()
        })));
        s.insert(b"warm-up").unwrap();
        let guid = s.insert_from_file(&src).unwrap();
        assert!(s.write_retries() > 0, "the schedule must have fired");
        s.set_fault_clock(None);
        let mut r = s.open_reader(guid, true).unwrap();
        assert_eq!(r.read_all().unwrap(), payload, "import not torn by retries");
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn persistent_write_errors_fail_cleanly() {
        use crate::fault::{FaultClock, FaultPlan};
        let s = store("write-retry-dead");
        // Every operation fails: the device is effectively dead.
        s.set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(1),
            ..FaultPlan::none()
        })));
        let err = s.insert(b"never lands").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("after {WRITE_RETRIES} retries")),
            "error must carry the retry count: {msg}"
        );
        // A failed insert leaves nothing behind: no blob, no temp file.
        let leftovers = fs::read_dir(s.root()).unwrap().count();
        assert_eq!(leftovers, 0, "failed insert must not leave files");
        // Detaching the clock restores normal service.
        s.set_fault_clock(None);
        let guid = s.insert(b"lands now").unwrap();
        assert_eq!(s.len(guid).unwrap(), 9);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn imports_record_a_hash_that_verifies_and_catches_rot() {
        let s = store("sha");
        let guid = s.insert(b"precious genomic payload").unwrap();
        let name = Value::guid_string(guid);
        assert!(
            s.root().join(format!("{name}.sha256")).exists(),
            "import must record a sidecar"
        );
        assert_eq!(s.verify_blob(&name).unwrap(), BlobCheck::Ok);
        // Rot one byte of the blob at rest; verification catches it.
        crate::fault::rot_file(&s.path(guid), 77, 0, 24).unwrap();
        assert_eq!(s.verify_blob(&name).unwrap(), BlobCheck::Mismatch);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn external_tool_open_invalidates_the_hash() {
        let s = store("sha-ext");
        let guid = s.insert(b"tool input").unwrap();
        let name = Value::guid_string(guid);
        let mut f = s.open_for_external_tool(guid).unwrap();
        f.write_all(b"rewritten").unwrap();
        drop(f);
        // The old digest certifies nothing now; the blob is unhashed, not
        // corrupt.
        assert_eq!(s.verify_blob(&name).unwrap(), BlobCheck::Unhashed);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn blob_names_enumerates_and_reopen_sweeps_orphan_sidecars() {
        let s = store("sha-sweep");
        let root = s.root().to_path_buf();
        let a = s.insert(b"one").unwrap();
        let b = s.insert(b"two").unwrap();
        let mut names = vec![Value::guid_string(a), Value::guid_string(b)];
        names.sort();
        assert_eq!(s.blob_names().unwrap(), names);
        // A sidecar with no blob (crash between sidecar write and rename).
        fs::write(root.join("deadbeef.sha256"), "00").unwrap();
        drop(s);
        let before = storage_counters()
            .startup_orphans_removed
            .load(Ordering::Relaxed);
        let s = FileStreamStore::open(&root).unwrap();
        assert!(!root.join("deadbeef.sha256").exists());
        assert!(
            storage_counters()
                .startup_orphans_removed
                .load(Ordering::Relaxed)
                > before
        );
        // Real sidecars survive the sweep.
        assert_eq!(
            s.verify_blob(&Value::guid_string(a)).unwrap(),
            BlobCheck::Ok
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quarantined_blobs_fail_typed_until_cleared() {
        let s = store("quarantine");
        let guid = s.insert(b"fenced").unwrap();
        let q = crate::scrub::Quarantine::in_memory();
        s.set_quarantine(Some(q.clone()));
        let key = FileStreamStore::object_key(guid);
        q.add(&key, 0).unwrap();
        for result in [
            s.path_name(guid).map(|_| ()),
            s.len(guid).map(|_| ()),
            s.open_reader(guid, false).map(|_| ()),
            s.open_for_external_tool(guid).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(DbError::Quarantined { .. })),
                "{result:?}"
            );
        }
        // Delete is allowed (that's how an operator clears for re-import)
        // and clears the quarantine entry.
        s.delete(guid).unwrap();
        assert!(q.check(&key).is_ok(), "delete cleared the entry");
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn guids_are_unique() {
        let s = store("guids");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(s.new_guid()));
        }
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn filestream_has_zero_storage_overhead() {
        // The Table 1 / Table 2 "FileStream" column: stored size == input
        // size, byte for byte.
        let s = store("overhead");
        let payload = vec![b'A'; 123_457];
        let guid = s.insert(&payload).unwrap();
        assert_eq!(s.len(guid).unwrap(), payload.len() as u64);
        assert_eq!(s.total_bytes().unwrap(), payload.len() as u64);
        fs::remove_dir_all(s.root()).unwrap();
    }
}
