//! Process-global observability counters (the `DM_OS_*` DMV backing).
//!
//! SQL Server exposes engine internals through `sys.dm_os_performance_counters`
//! and `sys.dm_os_wait_stats`; the paper's evaluation (Figures 9–10) leans on
//! exactly those views to attribute query time to I/O vs compute. seqdb
//! mirrors the design with two registries:
//!
//! * [`storage_counters`] — every monotonic activity counter of the
//!   process: WAL, FileStream store, temp space, scrub and backup here,
//!   and the engine's admission waits, kills, UDX panics, timeouts and
//!   batch rows (they live here because `storage` cannot depend on the
//!   engine). Buffer-pool counters stay on the per-pool
//!   [`crate::buffer::PoolStats`]; the engine renders both in
//!   `DM_OS_PERFORMANCE_COUNTERS()`.
//! * [`waits`] — per-wait-class occurrence count and cumulative wall time,
//!   recorded at every point where a query thread blocks on a shared
//!   resource (admission queue, buffer-pool page reads, spill I/O,
//!   FileStream retry backoff).
//!
//! Counters are process-global statics rather than per-instance fields so
//! instrumentation points deep in the storage layer need no plumbing and
//! the DMVs can be assembled without threading handles everywhere. All
//! counters are monotonic; observers that need per-interval numbers take
//! before/after snapshots and subtract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A low-level storage event forwarded to an installed trace hook (the
/// engine's structured tracer registers one). The hook is a plain `fn`
/// pointer kept in a `OnceLock`, so the per-event cost when no tracing
/// is active is one relaxed atomic load here plus one mask load in the
/// hook — cheap enough to leave compiled into every wait site.
#[derive(Debug, Clone, Copy)]
pub enum StorageEvent {
    /// One recorded wait (class + duration), fired by
    /// [`WaitStats::record`] at the end of the blocked interval.
    Wait { class: WaitClass, nanos: u64 },
    /// One spill file created in a temp space.
    SpillFile,
}

static TRACE_HOOK: OnceLock<fn(&StorageEvent)> = OnceLock::new();

/// Install the process-wide storage trace hook. First install wins;
/// later calls are no-ops (the hook is expected to be the engine's
/// tracer, installed once at database assembly).
pub fn install_trace_hook(hook: fn(&StorageEvent)) {
    let _ = TRACE_HOOK.set(hook);
}

/// Forward `event` to the installed hook, if any.
pub fn emit_storage_event(event: StorageEvent) {
    if let Some(hook) = TRACE_HOOK.get() {
        hook(&event);
    }
}

/// Classes of waits tracked by [`WaitStats`] (the seqdb analogue of
/// SQL Server wait types like `RESOURCE_SEMAPHORE` and `PAGEIOLATCH_SH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Blocked in the admission controller waiting for workspace memory
    /// (SQL Server `RESOURCE_SEMAPHORE`).
    Admission = 0,
    /// Reading a page from the data store on a buffer-pool miss
    /// (`PAGEIOLATCH_SH`).
    BufferIo = 1,
    /// Writing or reading operator spill files in the temp space
    /// (`IO_COMPLETION` on tempdb).
    SpillIo = 2,
    /// Backoff sleeps between FileStream transient-error retries.
    FileStreamRetry = 3,
    /// Page reads and blob re-hashing performed by the integrity scrubber
    /// (`CHECK TABLE` / `CHECK DATABASE` / the background scrub thread).
    /// Separate from [`WaitClass::BufferIo`] so scrub overhead is
    /// attributable independently of query-driven page reads.
    ScrubIo = 4,
    /// Page and blob copying performed by the online backup path
    /// (`BACKUP DATABASE` / the background backup thread). Separate from
    /// [`WaitClass::ScrubIo`] so backup overhead is attributable
    /// independently of integrity scrubbing.
    BackupIo = 5,
}

/// All wait classes, in rendering order for `DM_OS_WAIT_STATS()`.
pub const WAIT_CLASSES: [WaitClass; 6] = [
    WaitClass::Admission,
    WaitClass::BufferIo,
    WaitClass::SpillIo,
    WaitClass::FileStreamRetry,
    WaitClass::ScrubIo,
    WaitClass::BackupIo,
];

impl WaitClass {
    /// The `wait_class` string rendered by `DM_OS_WAIT_STATS()`.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::Admission => "ADMISSION",
            WaitClass::BufferIo => "BUFFER_IO",
            WaitClass::SpillIo => "SPILL_IO",
            WaitClass::FileStreamRetry => "FILESTREAM_RETRY",
            WaitClass::ScrubIo => "SCRUB_IO",
            WaitClass::BackupIo => "BACKUP_IO",
        }
    }
}

/// Per-class wait occurrence counts, cumulative wall time, and the
/// longest single wait observed.
#[derive(Default)]
pub struct WaitStats {
    counts: [AtomicU64; WAIT_CLASSES.len()],
    nanos: [AtomicU64; WAIT_CLASSES.len()],
    max_nanos: [AtomicU64; WAIT_CLASSES.len()],
}

/// One row of `DM_OS_WAIT_STATS()`.
#[derive(Debug, Clone)]
pub struct WaitSnapshot {
    pub class: WaitClass,
    pub count: u64,
    pub total_nanos: u64,
    /// The longest single wait recorded in this class.
    pub max_nanos: u64,
}

impl WaitSnapshot {
    /// Cumulative wait time in milliseconds (what the DMV renders).
    pub fn total_ms(&self) -> u64 {
        self.total_nanos / 1_000_000
    }

    /// Longest single wait in milliseconds (the `max_wait_ms` column).
    pub fn max_ms(&self) -> u64 {
        self.max_nanos / 1_000_000
    }
}

impl WaitStats {
    /// Record one wait of `dur` in `class`.
    pub fn record(&self, class: WaitClass, dur: Duration) {
        let i = class as usize;
        let n = dur.as_nanos() as u64;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(n, Ordering::Relaxed);
        self.max_nanos[i].fetch_max(n, Ordering::Relaxed);
        emit_storage_event(StorageEvent::Wait { class, nanos: n });
    }

    /// Occurrences of `class` so far.
    pub fn count(&self, class: WaitClass) -> u64 {
        self.counts[class as usize].load(Ordering::Relaxed)
    }

    /// Cumulative nanoseconds waited in `class`.
    pub fn total_nanos(&self, class: WaitClass) -> u64 {
        self.nanos[class as usize].load(Ordering::Relaxed)
    }

    /// Longest single wait (nanoseconds) recorded in `class`.
    pub fn max_nanos(&self, class: WaitClass) -> u64 {
        self.max_nanos[class as usize].load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of every class (counts and times are
    /// read independently; both are monotonic).
    pub fn snapshot(&self) -> Vec<WaitSnapshot> {
        WAIT_CLASSES
            .iter()
            .map(|&class| WaitSnapshot {
                class,
                count: self.count(class),
                total_nanos: self.total_nanos(class),
                max_nanos: self.max_nanos(class),
            })
            .collect()
    }
}

macro_rules! zero_counters {
    () => {
        [
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ]
    };
}

static WAITS: WaitStats = WaitStats {
    counts: zero_counters!(),
    nanos: zero_counters!(),
    max_nanos: zero_counters!(),
};

/// The process-global wait-stats registry.
pub fn waits() -> &'static WaitStats {
    &WAITS
}

/// Monotonic activity counters of the storage layer and the engine.
#[derive(Default)]
pub struct StorageCounters {
    /// WAL records appended (page images + commit markers).
    pub wal_records: AtomicU64,
    /// WAL bytes appended, including frame headers.
    pub wal_bytes: AtomicU64,
    /// WAL durability syncs issued.
    pub wal_fsyncs: AtomicU64,
    /// FileStream payload bytes read from blobs.
    pub filestream_bytes_read: AtomicU64,
    /// FileStream payload bytes written into blobs.
    pub filestream_bytes_written: AtomicU64,
    /// Transient-error read retries across all FileStream readers.
    pub filestream_read_retries: AtomicU64,
    /// Transient-error write retries across all FileStream stores.
    pub filestream_write_retries: AtomicU64,
    /// Spill files created in any temp space.
    pub spill_files: AtomicU64,
    /// Bytes written to spill files in any temp space.
    pub spill_bytes: AtomicU64,
    /// Table/index pages verified by the integrity scrubber.
    pub scrub_pages_checked: AtomicU64,
    /// FileStream blobs re-hashed by the integrity scrubber.
    pub scrub_blobs_checked: AtomicU64,
    /// Corrupt pages and blobs found by the scrubber (whether or not a
    /// repair succeeded).
    pub corruptions_found: AtomicU64,
    /// Corrupt pages rewritten from a good in-memory or WAL image and
    /// re-verified.
    pub pages_repaired: AtomicU64,
    /// Orphaned tempspace spill files and stale FileStream `.tmp`/sidecar
    /// files removed during `Database::open` startup hygiene.
    pub startup_orphans_removed: AtomicU64,
    /// Pages copied into backup sets (full and incremental).
    pub backup_pages_copied: AtomicU64,
    /// Bytes written into backup sets (pages, blobs, WAL segment,
    /// catalog snapshot and manifest).
    pub backup_bytes: AtomicU64,
    /// Pages verified during `RESTORE DATABASE` (including `VERIFY ONLY`).
    pub restore_pages_verified: AtomicU64,
    /// Statements that had to wait in the engine's admission controller.
    pub admission_waits: AtomicU64,
    /// Statements killed via `KILL` or a session kill (`statement_kills`).
    pub kills: AtomicU64,
    /// UDX invocations that panicked and were isolated.
    pub udx_panics: AtomicU64,
    /// Queries stopped by the governor's wall-clock timeout
    /// (`governed_timeouts`).
    pub timeouts: AtomicU64,
    /// Rows that crossed a governed operator boundary inside a natively
    /// produced batch (once per boundary, so deep plans count a row once
    /// per level — the convention of per-node actuals).
    pub batch_rows: AtomicU64,
    /// Rows that crossed a governed boundary in a batch assembled from a
    /// row-at-a-time producer (sort, window, apply, UDX...): where native
    /// batch production has not reached yet.
    pub batch_fallback_rows: AtomicU64,
}

impl StorageCounters {
    /// Render every counter as `(name, value)` pairs, in a stable order,
    /// for `DM_OS_PERFORMANCE_COUNTERS()`.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("wal_records", ld(&self.wal_records)),
            ("wal_bytes", ld(&self.wal_bytes)),
            ("wal_fsyncs", ld(&self.wal_fsyncs)),
            ("filestream_bytes_read", ld(&self.filestream_bytes_read)),
            (
                "filestream_bytes_written",
                ld(&self.filestream_bytes_written),
            ),
            ("filestream_read_retries", ld(&self.filestream_read_retries)),
            (
                "filestream_write_retries",
                ld(&self.filestream_write_retries),
            ),
            ("spill_files", ld(&self.spill_files)),
            ("spill_bytes", ld(&self.spill_bytes)),
            ("scrub_pages_checked", ld(&self.scrub_pages_checked)),
            ("scrub_blobs_checked", ld(&self.scrub_blobs_checked)),
            ("corruptions_found", ld(&self.corruptions_found)),
            ("pages_repaired", ld(&self.pages_repaired)),
            ("startup_orphans_removed", ld(&self.startup_orphans_removed)),
            ("backup_pages_copied", ld(&self.backup_pages_copied)),
            ("backup_bytes", ld(&self.backup_bytes)),
            ("restore_pages_verified", ld(&self.restore_pages_verified)),
            ("admission_waits", ld(&self.admission_waits)),
            ("statement_kills", ld(&self.kills)),
            ("udx_panics", ld(&self.udx_panics)),
            ("governed_timeouts", ld(&self.timeouts)),
            ("batch_rows", ld(&self.batch_rows)),
            ("batch_fallback_rows", ld(&self.batch_fallback_rows)),
        ]
    }
}

static STORAGE: StorageCounters = StorageCounters {
    wal_records: AtomicU64::new(0),
    wal_bytes: AtomicU64::new(0),
    wal_fsyncs: AtomicU64::new(0),
    filestream_bytes_read: AtomicU64::new(0),
    filestream_bytes_written: AtomicU64::new(0),
    filestream_read_retries: AtomicU64::new(0),
    filestream_write_retries: AtomicU64::new(0),
    spill_files: AtomicU64::new(0),
    spill_bytes: AtomicU64::new(0),
    scrub_pages_checked: AtomicU64::new(0),
    scrub_blobs_checked: AtomicU64::new(0),
    corruptions_found: AtomicU64::new(0),
    pages_repaired: AtomicU64::new(0),
    startup_orphans_removed: AtomicU64::new(0),
    backup_pages_copied: AtomicU64::new(0),
    backup_bytes: AtomicU64::new(0),
    restore_pages_verified: AtomicU64::new(0),
    admission_waits: AtomicU64::new(0),
    kills: AtomicU64::new(0),
    udx_panics: AtomicU64::new(0),
    timeouts: AtomicU64::new(0),
    batch_rows: AtomicU64::new(0),
    batch_fallback_rows: AtomicU64::new(0),
};

/// The process-global storage-counter registry.
pub fn storage_counters() -> &'static StorageCounters {
    &STORAGE
}

/// A spill attribution sink: every spill file created through
/// [`crate::TempSpace::create_spill_tallied`] bumps `files` on creation and
/// `bytes` on each write, for every tally attached to the writer. Queries
/// attach one tally per governor (statement-level totals) and one per plan
/// operator (per-node `EXPLAIN ANALYZE` numbers); both observe the same
/// spill traffic without double-counting the global registry.
#[derive(Default, Debug)]
pub struct SpillTally {
    files: AtomicU64,
    bytes: AtomicU64,
    wait_nanos: AtomicU64,
}

impl SpillTally {
    pub fn add_file(&self) {
        self.files.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Attribute spill I/O wall time to this tally (the per-statement
    /// wait breakdown in the query store reads it back).
    pub fn add_wait_nanos(&self, n: u64) {
        self.wait_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// Spill files attributed to this tally.
    pub fn files(&self) -> u64 {
        self.files.load(Ordering::Relaxed)
    }

    /// Spill bytes attributed to this tally.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Spill I/O wall time (nanoseconds) attributed to this tally.
    pub fn wait_nanos(&self) -> u64 {
        self.wait_nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_stats_accumulate() {
        let w = WaitStats::default();
        w.record(WaitClass::Admission, Duration::from_millis(3));
        w.record(WaitClass::Admission, Duration::from_millis(4));
        w.record(WaitClass::SpillIo, Duration::from_micros(10));
        assert_eq!(w.count(WaitClass::Admission), 2);
        assert_eq!(w.total_nanos(WaitClass::Admission), 7_000_000);
        assert_eq!(w.count(WaitClass::SpillIo), 1);
        assert_eq!(w.count(WaitClass::BufferIo), 0);
        let snap = w.snapshot();
        assert_eq!(snap.len(), WAIT_CLASSES.len());
        assert_eq!(snap[0].total_ms(), 7);
        assert_eq!(snap[0].max_ms(), 4, "longest single wait is tracked");
        assert_eq!(w.max_nanos(WaitClass::SpillIo), 10_000);
    }

    #[test]
    fn global_registries_are_reachable() {
        let before = waits().count(WaitClass::FileStreamRetry);
        waits().record(WaitClass::FileStreamRetry, Duration::from_nanos(1));
        assert!(waits().count(WaitClass::FileStreamRetry) > before);
        let names: Vec<&str> = storage_counters()
            .snapshot()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert!(names.contains(&"wal_fsyncs") && names.contains(&"spill_bytes"));
    }

    #[test]
    fn spill_tally_sums() {
        let t = SpillTally::default();
        t.add_file();
        t.add_bytes(100);
        t.add_bytes(28);
        t.add_wait_nanos(5_000);
        assert_eq!(t.files(), 1);
        assert_eq!(t.bytes(), 128);
        assert_eq!(t.wait_nanos(), 5_000);
    }

    #[test]
    fn trace_hook_receives_wait_events() {
        use std::sync::atomic::AtomicU64 as A;
        static SEEN: A = A::new(0);
        fn hook(e: &StorageEvent) {
            if matches!(e, StorageEvent::Wait { .. } | StorageEvent::SpillFile) {
                SEEN.fetch_add(1, Ordering::Relaxed);
            }
        }
        install_trace_hook(hook);
        let before = SEEN.load(Ordering::Relaxed);
        waits().record(WaitClass::BackupIo, Duration::from_nanos(5));
        emit_storage_event(StorageEvent::SpillFile);
        // At least our two events arrived (other tests may add more; the
        // hook slot is process-global and first-install-wins).
        assert!(SEEN.load(Ordering::Relaxed) >= before + 2);
    }
}
