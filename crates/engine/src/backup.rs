//! Online hot backup and verified restore.
//!
//! The paper's instrument-attached databases hold weeks of irreplaceable
//! sequencing runs; crash recovery and the integrity scrubber protect
//! against a dying process and at-rest rot, but not against losing the
//! database directory itself. This module adds the missing leg:
//!
//! * **`BACKUP DATABASE TO '<dir>'`** — an *online*, crash-consistent
//!   backup. The backup starts with a checkpoint (flushing every dirty
//!   page and persisting the catalog snapshot), then performs a *fuzzy
//!   page copy*: every page is read straight from the durable store
//!   through the same checksum path the scrubber uses, while queries keep
//!   running. Writes that land during the copy are safe because every
//!   data-file write is WAL-logged under a commit marker first and the
//!   checkpoint lock held for the duration of the backup keeps the log
//!   from truncating: the backup finishes by capturing the log's
//!   committed images into its own `seqdb.wal` segment, which restore
//!   replays over the fuzzy copy (replay-to-backup-LSN). FileStream
//!   blobs are copied with their `.sha256` sidecars.
//! * **`INCREMENTAL FROM '<base>'`** — the `backup.manifest` records a
//!   CRC per page and a SHA-256 per blob; an incremental backup copies
//!   only pages and blobs whose content differs from the base manifest
//!   and records where unchanged content lives (content-addressed, the
//!   shape HERALD-style dataset manifests use for shipping deltas).
//! * **`RESTORE DATABASE FROM '<dir>' [TO '<target>'] [VERIFY ONLY]`** —
//!   restore resolves the incremental chain, materializes every page
//!   (set data, overlaid by the set's WAL images, falling back to the
//!   base chain), and *verifies everything before declaring success*:
//!   each page against its manifest CRC and its embedded checksum, each
//!   blob against its manifest SHA-256, the WAL segment and catalog
//!   snapshot against their recorded hashes. Any mismatch fails with the
//!   typed [`DbError::BackupCorrupt`] naming the damaged object rather
//!   than resurrecting bad data. `VERIFY ONLY` runs the same checks
//!   without writing a byte.
//!
//! The whole path is fault-injectable on the shared
//! [`FaultClock`]: every backup-set write goes
//! through `inject_write` (I/O errors, ENOSPC) and every durability point
//! through `inject_sync` (crash-at-sync). A crash mid-backup leaves the
//! *source* untouched and the backup set detectably incomplete (the
//! manifest is written last, atomically); disk-full mid-backup removes
//! the partial set.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_storage::counters::{storage_counters, waits, WaitClass};
use seqdb_storage::crc32c::crc32c;
use seqdb_storage::sha256::{sha256, to_hex, Sha256};
use seqdb_storage::{FaultClock, Page, PageId, WriteAheadLog, PAGE_SIZE};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

use crate::database::Database;
use crate::plan::QueryResult;

/// Pages copied per slice before the rate-limiting pause, matching the
/// scrubber's pacing so a backup never monopolizes the device.
const PAGES_PER_SLICE: usize = 128;
/// Pause between slices.
const SLICE_PAUSE: std::time::Duration = std::time::Duration::from_millis(1);
/// Maximum incremental chain depth resolve will follow.
const MAX_CHAIN: usize = 8;

// ----------------------------------------------------------------------
// Shared progress state (DMV + periodic server thread)
// ----------------------------------------------------------------------

/// Shared backup progress: one backup may run at a time per database;
/// `DM_DB_BACKUP_STATUS()` and the periodic server backup thread observe
/// this state.
pub struct BackupState {
    running: AtomicBool,
    pages_copied: AtomicU64,
    pages_skipped: AtomicU64,
    blobs_copied: AtomicU64,
    bytes_written: AtomicU64,
    destination: Mutex<String>,
    last_outcome: Mutex<String>,
    fault: Mutex<Option<Arc<FaultClock>>>,
}

/// A point-in-time view of [`BackupState`] for the DMV.
#[derive(Debug, Clone)]
pub struct BackupStatus {
    pub running: bool,
    pub destination: String,
    pub pages_copied: u64,
    pub pages_skipped: u64,
    pub blobs_copied: u64,
    pub bytes_written: u64,
    pub last_outcome: String,
}

impl BackupState {
    pub fn new() -> Arc<BackupState> {
        Arc::new(BackupState {
            running: AtomicBool::new(false),
            pages_copied: AtomicU64::new(0),
            pages_skipped: AtomicU64::new(0),
            blobs_copied: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            destination: Mutex::new(String::new()),
            last_outcome: Mutex::new(String::new()),
            fault: Mutex::new(None),
        })
    }

    /// Attach (or detach) a fault schedule; every backup-set write and
    /// sync of subsequent backups is counted against it.
    pub fn set_fault_clock(&self, clock: Option<Arc<FaultClock>>) {
        *self.fault.lock() = clock;
    }

    pub fn status(&self) -> BackupStatus {
        BackupStatus {
            running: self.running.load(Ordering::Acquire),
            destination: self.destination.lock().clone(),
            pages_copied: self.pages_copied.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            blobs_copied: self.blobs_copied.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            last_outcome: self.last_outcome.lock().clone(),
        }
    }

    fn begin(self: &Arc<Self>, dest: &Path) -> Result<RunningGuard> {
        if self.running.swap(true, Ordering::AcqRel) {
            return Err(DbError::Execution(
                "a backup is already running on this database".into(),
            ));
        }
        self.pages_copied.store(0, Ordering::Relaxed);
        self.pages_skipped.store(0, Ordering::Relaxed);
        self.blobs_copied.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        *self.destination.lock() = dest.display().to_string();
        let dest = dest.display().to_string();
        crate::trace::emit(
            crate::trace::TraceClass::Backup,
            "backup_begin",
            0,
            0,
            || format!("dest={dest}"),
        );
        Ok(RunningGuard {
            state: self.clone(),
        })
    }

    fn add_page_copied(&self) {
        self.pages_copied.fetch_add(1, Ordering::Relaxed);
        storage_counters()
            .backup_pages_copied
            .fetch_add(1, Ordering::Relaxed);
    }

    fn add_bytes(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
        storage_counters()
            .backup_bytes
            .fetch_add(n, Ordering::Relaxed);
    }
}

struct RunningGuard {
    state: Arc<BackupState>,
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        self.state.running.store(false, Ordering::Release);
        let state = self.state.clone();
        crate::trace::emit(crate::trace::TraceClass::Backup, "backup_end", 0, 0, || {
            format!(
                "pages_copied={} bytes_written={}",
                state.pages_copied.load(Ordering::Relaxed),
                state.bytes_written.load(Ordering::Relaxed)
            )
        });
    }
}

// ----------------------------------------------------------------------
// Manifest
// ----------------------------------------------------------------------

/// The parsed `backup.manifest` of one backup set.
struct Manifest {
    /// Base set this incremental builds on (`None` for a full backup).
    base: Option<PathBuf>,
    /// Backup LSN: the highest WAL commit sequence captured in the set.
    wal_seq: u64,
    /// Per page: CRC-32C of the page's *effective* content (the set's WAL
    /// image if it has one, else the copied bytes) and whether this set
    /// materializes that content (`false` = inherited from the base).
    pages: Vec<(u32, bool)>,
    /// Per blob: name (GUID stem), SHA-256 hex, included-in-this-set.
    blobs: Vec<(String, String, bool)>,
    /// SHA-256 hex of `catalog.seqdb` in this set.
    catalog_sha: String,
    /// SHA-256 hex of `seqdb.wal` in this set.
    wal_sha: String,
}

impl Manifest {
    fn serialize(&self) -> String {
        let mut out = String::from("seqdb-backup-manifest v1\n");
        match &self.base {
            Some(p) => out.push_str(&format!("base\t{}\n", p.display())),
            None => out.push_str("base\t-\n"),
        }
        out.push_str(&format!("wal_seq\t{}\n", self.wal_seq));
        out.push_str(&format!("pages\t{}\n", self.pages.len()));
        for (id, (crc, included)) in self.pages.iter().enumerate() {
            out.push_str(&format!(
                "page\t{id}\t{crc:08x}\t{}\n",
                if *included { "included" } else { "base" }
            ));
        }
        for (name, sha, included) in &self.blobs {
            out.push_str(&format!(
                "blob\t{name}\t{sha}\t{}\n",
                if *included { "included" } else { "base" }
            ));
        }
        out.push_str(&format!("file\tcatalog.seqdb\t{}\n", self.catalog_sha));
        out.push_str(&format!("file\tseqdb.wal\t{}\n", self.wal_sha));
        out.push_str("end\n");
        out
    }

    /// Parse the manifest of the set at `dir`. Every defect — missing
    /// file, bad header, truncation (no `end` marker) — is the typed
    /// [`DbError::BackupCorrupt`] naming `backup.manifest`.
    fn read(dir: &Path) -> Result<Manifest> {
        let corrupt = |detail: &str| DbError::BackupCorrupt {
            object: format!("backup.manifest ({detail})"),
        };
        let text = fs::read_to_string(dir.join("backup.manifest"))
            .map_err(|_| corrupt("missing or unreadable"))?;
        let mut lines = text.lines();
        if lines.next() != Some("seqdb-backup-manifest v1") {
            return Err(corrupt("unrecognized header"));
        }
        let mut m = Manifest {
            base: None,
            wal_seq: 0,
            pages: Vec::new(),
            blobs: Vec::new(),
            catalog_sha: String::new(),
            wal_sha: String::new(),
        };
        let mut saw_end = false;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["base", "-"] => m.base = None,
                ["base", p] => m.base = Some(PathBuf::from(p)),
                ["wal_seq", n] => {
                    m.wal_seq = n.parse().map_err(|_| corrupt("bad wal_seq"))?;
                }
                ["pages", n] => {
                    let n: usize = n.parse().map_err(|_| corrupt("bad page count"))?;
                    m.pages.reserve(n);
                }
                ["page", id, crc, flag] => {
                    let id: usize = id.parse().map_err(|_| corrupt("bad page id"))?;
                    if id != m.pages.len() {
                        return Err(corrupt("page records out of order"));
                    }
                    let crc = u32::from_str_radix(crc, 16).map_err(|_| corrupt("bad page crc"))?;
                    m.pages.push((crc, *flag == "included"));
                }
                ["blob", name, sha, flag] => {
                    m.blobs
                        .push((name.to_string(), sha.to_string(), *flag == "included"));
                }
                ["file", "catalog.seqdb", sha] => m.catalog_sha = sha.to_string(),
                ["file", "seqdb.wal", sha] => m.wal_sha = sha.to_string(),
                ["end"] => {
                    saw_end = true;
                    break;
                }
                _ => return Err(corrupt("unrecognized line")),
            }
        }
        if !saw_end {
            return Err(corrupt("truncated (no end marker)"));
        }
        if m.catalog_sha.is_empty() || m.wal_sha.is_empty() {
            return Err(corrupt("missing file hashes"));
        }
        Ok(m)
    }
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

/// What one `BACKUP DATABASE` produced.
#[derive(Debug, Clone)]
pub struct BackupReport {
    pub destination: PathBuf,
    pub incremental: bool,
    pub pages_copied: u64,
    pub pages_skipped: u64,
    pub blobs_copied: u64,
    pub blobs_skipped: u64,
    pub wal_images: u64,
    pub wal_seq: u64,
    pub bytes_written: u64,
}

impl BackupReport {
    /// Render as the `BACKUP DATABASE` result set.
    pub fn into_result(self) -> QueryResult {
        let schema = Arc::new(Schema::new(vec![
            Column::new("destination", DataType::Text).not_null(),
            Column::new("kind", DataType::Text).not_null(),
            Column::new("pages_copied", DataType::Int).not_null(),
            Column::new("pages_skipped", DataType::Int).not_null(),
            Column::new("blobs_copied", DataType::Int).not_null(),
            Column::new("blobs_skipped", DataType::Int).not_null(),
            Column::new("wal_images", DataType::Int).not_null(),
            Column::new("bytes", DataType::Int).not_null(),
        ]));
        let rows = vec![Row::new(vec![
            Value::text(self.destination.display().to_string()),
            Value::text(if self.incremental {
                "incremental"
            } else {
                "full"
            }),
            Value::Int(self.pages_copied as i64),
            Value::Int(self.pages_skipped as i64),
            Value::Int(self.blobs_copied as i64),
            Value::Int(self.blobs_skipped as i64),
            Value::Int(self.wal_images as i64),
            Value::Int(self.bytes_written as i64),
        ])];
        QueryResult {
            schema,
            rows,
            affected: 0,
        }
    }
}

/// What one `RESTORE DATABASE` (or `VERIFY ONLY`) checked and produced.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    pub source: PathBuf,
    pub target: Option<PathBuf>,
    pub pages_verified: u64,
    pub blobs_verified: u64,
    pub wal_seq: u64,
    pub chain_depth: usize,
}

impl RestoreReport {
    /// Render as the `RESTORE DATABASE` result set.
    pub fn into_result(self) -> QueryResult {
        let schema = Arc::new(Schema::new(vec![
            Column::new("source", DataType::Text).not_null(),
            Column::new("mode", DataType::Text).not_null(),
            Column::new("pages_verified", DataType::Int).not_null(),
            Column::new("blobs_verified", DataType::Int).not_null(),
            Column::new("chain_depth", DataType::Int).not_null(),
            Column::new("status", DataType::Text).not_null(),
        ]));
        let rows = vec![Row::new(vec![
            Value::text(self.source.display().to_string()),
            Value::text(match &self.target {
                Some(t) => format!("restored to {}", t.display()),
                None => "verify only".to_string(),
            }),
            Value::Int(self.pages_verified as i64),
            Value::Int(self.blobs_verified as i64),
            Value::Int(self.chain_depth as i64),
            Value::text("ok"),
        ])];
        QueryResult {
            schema,
            rows,
            affected: 0,
        }
    }
}

// ----------------------------------------------------------------------
// Fault-aware file helpers
// ----------------------------------------------------------------------

struct FaultedWriter<'a> {
    clock: Option<&'a Arc<FaultClock>>,
}

impl FaultedWriter<'_> {
    fn write(&self, f: &mut File, buf: &[u8]) -> Result<()> {
        if let Some(c) = self.clock {
            c.inject_write()?;
        }
        f.write_all(buf).map_err(DbError::io_write)
    }

    fn write_file(&self, path: &Path, buf: &[u8]) -> Result<()> {
        if let Some(c) = self.clock {
            c.inject_write()?;
        }
        fs::write(path, buf).map_err(DbError::io_write)
    }

    fn sync(&self, f: &File) -> Result<()> {
        if let Some(c) = self.clock {
            c.inject_sync()?;
        }
        f.sync_all().map_err(DbError::io)
    }

    fn sync_path(&self, path: &Path) -> Result<()> {
        let f = File::open(path)?;
        self.sync(&f)
    }
}

/// SHA-256 of a file, streamed.
fn hash_file(path: &Path) -> Result<String> {
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
    Ok(to_hex(&hasher.finalize()))
}

// ----------------------------------------------------------------------
// BACKUP DATABASE
// ----------------------------------------------------------------------

impl Database {
    /// `BACKUP DATABASE TO '<dest>' [INCREMENTAL FROM '<base>']`: online,
    /// crash-consistent backup of this database into the fresh directory
    /// `dest`. See the module docs for the mechanism. Returns what was
    /// copied; on injected or real ENOSPC the partial set is removed.
    pub fn backup_database(
        &self,
        dest: &Path,
        incremental_from: Option<&Path>,
    ) -> Result<BackupReport> {
        let state = self.backup_state().clone();
        let _run = state.begin(dest)?;
        let result = self.backup_inner(&state, dest, incremental_from);
        match &result {
            Ok(r) => {
                *state.last_outcome.lock() = format!(
                    "ok: {} backup to {} ({} pages copied, {} skipped)",
                    if r.incremental { "incremental" } else { "full" },
                    dest.display(),
                    r.pages_copied,
                    r.pages_skipped
                );
            }
            Err(e) => {
                *state.last_outcome.lock() = format!("failed: {e}");
                // Disk-full is an *expected* degradation: remove the
                // partial set so a half-written backup can never be
                // mistaken for a good one. A crash (injected or real)
                // gets no cleanup by definition — the manifest-last
                // protocol keeps the partial set detectably incomplete.
                if matches!(e, DbError::DiskFull(_)) {
                    let _ = fs::remove_dir_all(dest);
                }
            }
        }
        result
    }

    fn backup_inner(
        &self,
        state: &Arc<BackupState>,
        dest: &Path,
        incremental_from: Option<&Path>,
    ) -> Result<BackupReport> {
        // One checkpoint/backup at a time: the held lock keeps the WAL
        // from truncating for the whole copy window, so every data-file
        // write that lands mid-copy stays replayable from the captured
        // log segment.
        let _ckpt = self.checkpoint_lock().lock();

        let base = match incremental_from {
            Some(dir) => Some((dir.to_path_buf(), Manifest::read(dir)?)),
            None => None,
        };

        if dest.join("backup.manifest").exists() || dest.join("seqdb.data").exists() {
            return Err(DbError::Execution(format!(
                "backup destination {} already holds a backup set",
                dest.display()
            )));
        }
        fs::create_dir_all(dest).map_err(DbError::io_write)?;
        fs::create_dir_all(dest.join("filestream")).map_err(DbError::io_write)?;

        let clock_guard = state.fault.lock().clone();
        let w = FaultedWriter {
            clock: clock_guard.as_ref(),
        };

        // Start from a clean slate: flush every dirty page and persist
        // the catalog snapshot, so the fuzzy copy begins over a fully
        // materialized on-disk state (the same thing SQL Server's BACKUP
        // does before its data-copy phase).
        self.pool().checkpoint()?;
        self.persist_catalog()?;

        // Catalog snapshot (taken now, before the copy: tables created
        // *during* the backup are deliberately not part of the set).
        let catalog_text = self.catalog().serialize_tables();
        w.write_file(&dest.join("catalog.seqdb"), catalog_text.as_bytes())?;
        state.add_bytes(catalog_text.len() as u64);
        let catalog_sha = to_hex(&sha256(catalog_text.as_bytes()));

        // Fuzzy page copy: read every page straight from the durable
        // store (cache-bypassing, like the scrubber) while queries keep
        // running. Unchanged pages of an incremental backup are skipped;
        // the manifest records where their content lives.
        let store = self.pool().store().clone();
        let page_count = store.num_pages();
        let mut data = File::create(dest.join("seqdb.data")).map_err(DbError::io_write)?;
        let mut fuzzy_crcs: Vec<u32> = Vec::with_capacity(page_count as usize);
        let mut included: Vec<bool> = Vec::with_capacity(page_count as usize);
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        for id in 0..page_count {
            let start = Instant::now();
            store.read_page(id, &mut buf)?;
            let crc = crc32c(&buf);
            let take = match &base {
                Some((_, bm)) => bm
                    .pages
                    .get(id as usize)
                    .map(|(bcrc, _)| *bcrc != crc)
                    .unwrap_or(true),
                None => true,
            };
            if take {
                data.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
                w.write(&mut data, &buf)?;
                state.add_page_copied();
                state.add_bytes(PAGE_SIZE as u64);
            } else {
                state.pages_skipped.fetch_add(1, Ordering::Relaxed);
            }
            fuzzy_crcs.push(crc);
            included.push(take);
            waits().record(WaitClass::BackupIo, start.elapsed());
            if (id + 1).is_multiple_of(PAGES_PER_SLICE as u64) {
                std::thread::sleep(SLICE_PAUSE);
            }
        }
        // Holes (skipped pages) must still read back as zero pages of a
        // file whose length is a page multiple.
        data.set_len(page_count * PAGE_SIZE as u64)?;
        w.sync(&data)?;

        // FileStream blobs, with their .sha256 sidecars. An incremental
        // backup skips blobs whose content hash matches the base.
        let fs_root = self.filestream().root().to_path_buf();
        let mut blobs: Vec<(String, String, bool)> = Vec::new();
        let mut blobs_copied = 0u64;
        let mut blobs_skipped = 0u64;
        for name in self.filestream().blob_names()? {
            let start = Instant::now();
            let src = fs_root.join(format!("{name}.blob"));
            let bytes = fs::read(&src)?;
            let sha = to_hex(&sha256(&bytes));
            let take = match &base {
                Some((_, bm)) => !bm.blobs.iter().any(|(n, s, _)| *n == name && *s == sha),
                None => true,
            };
            if take {
                w.write_file(
                    &dest.join("filestream").join(format!("{name}.blob")),
                    &bytes,
                )?;
                // The sidecar travels with the blob; regenerate it from
                // the hash just computed if the source never had one.
                let sidecar = fs_root.join(format!("{name}.sha256"));
                let sidecar_text = fs::read_to_string(&sidecar).unwrap_or_else(|_| sha.clone());
                w.write_file(
                    &dest.join("filestream").join(format!("{name}.sha256")),
                    sidecar_text.as_bytes(),
                )?;
                state.add_bytes(bytes.len() as u64 + sidecar_text.len() as u64);
                state.blobs_copied.fetch_add(1, Ordering::Relaxed);
                blobs_copied += 1;
            } else {
                blobs_skipped += 1;
            }
            blobs.push((name, sha, take));
            waits().record(WaitClass::BackupIo, start.elapsed());
        }

        // Capture the WAL: every image committed since the checkpoint
        // above (i.e. during the copy window), written as a well-formed
        // log segment the restore replays over the fuzzy copy.
        let mut wal_images: HashMap<PageId, Box<[u8]>> = HashMap::new();
        let mut wal_seq = 0u64;
        if let Some(wal) = self.pool().wal() {
            let outcome = wal.replay()?;
            wal_seq = outcome.last_seq.unwrap_or(0);
            for (id, image) in outcome.images {
                wal_images.insert(id, image);
            }
        }
        {
            let backup_wal = WriteAheadLog::open_file(&dest.join("seqdb.wal"))?;
            if !wal_images.is_empty() {
                if let Some(c) = w.clock {
                    c.inject_write()?;
                }
                let mut ids: Vec<PageId> = wal_images.keys().copied().collect();
                ids.sort_unstable();
                for id in &ids {
                    backup_wal.log_page(*id, &wal_images[id])?;
                }
                backup_wal.commit()?;
                if let Some(c) = w.clock {
                    c.inject_sync()?;
                }
                backup_wal.sync()?;
                state.add_bytes(wal_images.len() as u64 * PAGE_SIZE as u64);
            }
        }
        let wal_sha = hash_file(&dest.join("seqdb.wal"))?;

        // Effective per-page CRC: the WAL image wins over the fuzzy copy
        // (that is what restore will materialize). Pages whose effective
        // content the WAL provides are "included" whenever they differ
        // from the base, even if the fuzzy copy skipped them.
        let total_pages =
            page_count.max(wal_images.keys().copied().max().map(|m| m + 1).unwrap_or(0));
        let zero_crc = crc32c(&vec![0u8; PAGE_SIZE]);
        let mut pages: Vec<(u32, bool)> = Vec::with_capacity(total_pages as usize);
        for id in 0..total_pages {
            let fuzzy = fuzzy_crcs.get(id as usize).copied().unwrap_or(zero_crc);
            let effective = wal_images.get(&id).map(|img| crc32c(img)).unwrap_or(fuzzy);
            let inc = match &base {
                Some((_, bm)) => bm
                    .pages
                    .get(id as usize)
                    .map(|(bcrc, _)| *bcrc != effective)
                    .unwrap_or(true),
                None => true,
            };
            pages.push((effective, inc));
        }

        // The manifest is written last, atomically (tmp + fsync +
        // rename): a set without a complete manifest is detectably
        // incomplete and restore refuses it.
        let manifest = Manifest {
            base: base.as_ref().map(|(p, _)| p.clone()),
            wal_seq,
            pages,
            blobs,
            catalog_sha,
            wal_sha,
        };
        let text = manifest.serialize();
        let tmp = dest.join("backup.manifest.tmp");
        w.write_file(&tmp, text.as_bytes())?;
        w.sync_path(&tmp)?;
        fs::rename(&tmp, dest.join("backup.manifest")).map_err(DbError::io_write)?;
        state.add_bytes(text.len() as u64);

        Ok(BackupReport {
            destination: dest.to_path_buf(),
            incremental: base.is_some(),
            pages_copied: state.pages_copied.load(Ordering::Relaxed),
            pages_skipped: state.pages_skipped.load(Ordering::Relaxed),
            blobs_copied,
            blobs_skipped,
            wal_images: wal_images.len() as u64,
            wal_seq,
            bytes_written: state.bytes_written.load(Ordering::Relaxed),
        })
    }
}

// ----------------------------------------------------------------------
// RESTORE DATABASE / VERIFY ONLY
// ----------------------------------------------------------------------

/// One resolved level of an incremental chain.
struct ChainSet {
    dir: PathBuf,
    manifest: Manifest,
    wal_images: HashMap<PageId, Box<[u8]>>,
}

/// `RESTORE DATABASE FROM '<backup>' VERIFY ONLY`: run every restore-time
/// verification — manifest completeness, per-page CRC and checksum, blob
/// SHA-256, WAL and catalog hashes — without writing anything.
pub fn verify_backup(backup: &Path) -> Result<RestoreReport> {
    restore_inner(backup, None)
}

/// `RESTORE DATABASE FROM '<backup>' TO '<target>'`: materialize the
/// backup (resolving its incremental chain) into the fresh directory
/// `target`, verifying every page and blob before declaring success. The
/// result is a directory [`Database::open`] brings up with the backed-up
/// tables, rows and blobs.
pub fn restore_database(backup: &Path, target: &Path) -> Result<RestoreReport> {
    restore_inner(backup, Some(target))
}

fn restore_inner(backup: &Path, target: Option<&Path>) -> Result<RestoreReport> {
    // Resolve the incremental chain, verifying each set's own files as
    // it loads: the WAL segment and catalog snapshot must hash to what
    // the manifest recorded before any of their content is trusted.
    let mut chain: Vec<ChainSet> = Vec::new(); // top (newest) first
    let mut dir = backup.to_path_buf();
    loop {
        if chain.len() >= MAX_CHAIN {
            return Err(DbError::BackupCorrupt {
                object: format!("backup chain deeper than {MAX_CHAIN} at {}", dir.display()),
            });
        }
        let manifest = Manifest::read(&dir)?;
        if hash_file(&dir.join("seqdb.wal")).unwrap_or_default() != manifest.wal_sha {
            return Err(DbError::BackupCorrupt {
                object: format!("seqdb.wal in {}", dir.display()),
            });
        }
        if hash_file(&dir.join("catalog.seqdb")).unwrap_or_default() != manifest.catalog_sha {
            return Err(DbError::BackupCorrupt {
                object: format!("catalog.seqdb in {}", dir.display()),
            });
        }
        let wal = WriteAheadLog::open_file(&dir.join("seqdb.wal"))?;
        let outcome = wal.replay()?;
        let mut wal_images = HashMap::new();
        for (id, image) in outcome.images {
            wal_images.insert(id, image);
        }
        let base = manifest.base.clone();
        chain.push(ChainSet {
            dir: dir.clone(),
            manifest,
            wal_images,
        });
        match base {
            Some(b) => dir = b,
            None => break,
        }
    }

    let top = &chain[0].manifest;
    let total_pages = top.pages.len() as u64;
    let wal_seq = top.wal_seq;

    // Prepare the target (refusing to clobber an existing database).
    let mut out_data: Option<File> = None;
    if let Some(t) = target {
        if t.join("seqdb.data").exists() || t.join("catalog.seqdb").exists() {
            return Err(DbError::Execution(format!(
                "restore target {} already holds a database",
                t.display()
            )));
        }
        fs::create_dir_all(t).map_err(DbError::io_write)?;
        fs::create_dir_all(t.join("filestream")).map_err(DbError::io_write)?;
        out_data = Some(File::create(t.join("seqdb.data")).map_err(DbError::io_write)?);
    }

    // Materialize and verify every page. Resolution order per page, top
    // set first: the set's WAL image (replay-to-backup-LSN), then the
    // set's copied bytes if the manifest includes the page, then the
    // base chain. Every materialized page must match the top manifest's
    // CRC *and* its own embedded checksum (the scrubber's check) before
    // a byte of it lands in the target.
    let mut data_files: Vec<Option<File>> = Vec::new();
    for set in &chain {
        data_files.push(File::open(set.dir.join("seqdb.data")).ok());
    }
    let mut pages_verified = 0u64;
    let mut buf = vec![0u8; PAGE_SIZE];
    for id in 0..total_pages {
        let mut content: Option<Vec<u8>> = None;
        for (level, set) in chain.iter().enumerate() {
            if let Some(img) = set.wal_images.get(&id) {
                content = Some(img.to_vec());
                break;
            }
            let stored_here = set
                .manifest
                .pages
                .get(id as usize)
                .map(|(_, inc)| *inc)
                // The base-most set materializes everything it covers.
                .unwrap_or(false);
            if stored_here {
                buf.iter_mut().for_each(|b| *b = 0);
                if let Some(f) = data_files.get_mut(level).and_then(|f| f.as_mut()) {
                    let off = id * PAGE_SIZE as u64;
                    if f.metadata().map(|m| m.len()).unwrap_or(0) >= off + PAGE_SIZE as u64 {
                        f.seek(SeekFrom::Start(off))?;
                        f.read_exact(&mut buf)?;
                    }
                }
                content = Some(buf.clone());
                break;
            }
        }
        let content = content.unwrap_or_else(|| vec![0u8; PAGE_SIZE]);
        let crc = crc32c(&content);
        let expect = top.pages[id as usize].0;
        let zero = content.iter().all(|&b| b == 0);
        if crc != expect || (!zero && Page::verify_buf(&content).is_err()) {
            return Err(DbError::BackupCorrupt {
                object: format!("page {id}"),
            });
        }
        pages_verified += 1;
        storage_counters()
            .restore_pages_verified
            .fetch_add(1, Ordering::Relaxed);
        if let Some(f) = out_data.as_mut() {
            f.write_all(&content).map_err(DbError::io_write)?;
        }
        if (id + 1).is_multiple_of(PAGES_PER_SLICE as u64) && target.is_none() {
            std::thread::sleep(SLICE_PAUSE);
        }
    }
    if let Some(f) = out_data.as_mut() {
        f.sync_all().map_err(DbError::io)?;
    }

    // Blobs: resolve each through the chain, verify its bytes against
    // the manifest hash, then land blob + sidecar in the target.
    let mut blobs_verified = 0u64;
    for (name, sha, _) in &top.blobs {
        let missing = || DbError::BackupCorrupt {
            object: format!("filestream:{name}"),
        };
        let provider = chain
            .iter()
            .find(|set| {
                set.manifest
                    .blobs
                    .iter()
                    .any(|(n, _, inc)| n == name && *inc)
            })
            .ok_or_else(missing)?;
        let src = provider.dir.join("filestream").join(format!("{name}.blob"));
        let bytes = fs::read(&src).map_err(|_| missing())?;
        if to_hex(&sha256(&bytes)) != *sha {
            return Err(missing());
        }
        if let Some(t) = target {
            fs::write(t.join("filestream").join(format!("{name}.blob")), &bytes)
                .map_err(DbError::io_write)?;
            let sidecar = provider
                .dir
                .join("filestream")
                .join(format!("{name}.sha256"));
            let sidecar_text = fs::read_to_string(&sidecar).unwrap_or_else(|_| sha.clone());
            fs::write(
                t.join("filestream").join(format!("{name}.sha256")),
                sidecar_text,
            )
            .map_err(DbError::io_write)?;
        }
        blobs_verified += 1;
    }

    // Catalog snapshot (already hash-verified while loading the chain).
    if let Some(t) = target {
        let text = fs::read(chain[0].dir.join("catalog.seqdb"))?;
        fs::write(t.join("catalog.seqdb"), text).map_err(DbError::io_write)?;
    }

    Ok(RestoreReport {
        source: backup.to_path_buf(),
        target: target.map(|t| t.to_path_buf()),
        pages_verified,
        blobs_verified,
        wal_seq,
        chain_depth: chain.len(),
    })
}
