//! `CHECK TABLE` / `CHECK DATABASE` orchestration: walk every page and
//! blob of the catalog through the storage layer's integrity primitives
//! (`seqdb_storage::scrub`), repair what has a good image, quarantine
//! what does not, and report the findings as a result set.
//!
//! The scrub is designed to run *next to* live traffic:
//!
//! * pages are verified straight from the durable store, never through
//!   the buffer pool, so a scan neither evicts the working set nor gets
//!   fooled by a cached good copy of a rotted disk image;
//! * the walk yields between slices (`PAGES_PER_SLICE`) so a
//!   multi-gigabyte table does not monopolize the I/O path;
//! * repairs go through the buffer pool's WAL-before-data rewrite, so
//!   readers only ever observe the old good image or the restored one;
//! * objects that cannot be repaired are fenced in the persisted
//!   [`Quarantine`] — statements touching them fail with the typed
//!   `DbError::Quarantined` while the rest of the database stays online.
//!
//! Progress and findings surface three ways: the returned [`ScrubReport`]
//! (one result row per finding, SQL-visible through `CHECK`), the
//! [`ScrubState`] snapshot behind `DM_DB_SCRUB_STATUS()`, and the global
//! `scrub_*` storage counters.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use seqdb_storage::scrub::{check_page, repair_page, wal_last_images};
use seqdb_storage::{storage_counters, BlobCheck, PageId, Quarantine};
use seqdb_types::{Column, DataType, Result, Row, Schema, Value};

use crate::database::Database;
use crate::plan::QueryResult;

/// Pages verified per slice before the scrub yields the CPU. Keeps a
/// full-database scan from starving concurrent statements of I/O.
const PAGES_PER_SLICE: usize = 128;

/// Pause between slices.
const SLICE_PAUSE: std::time::Duration = std::time::Duration::from_millis(1);

/// Shared scrub-progress state: the quarantine list plus monotonic
/// per-database counters, snapshot by `DM_DB_SCRUB_STATUS()`.
pub struct ScrubState {
    running: AtomicBool,
    pages_checked: AtomicU64,
    blobs_checked: AtomicU64,
    corruptions_found: AtomicU64,
    pages_repaired: AtomicU64,
    quarantine: Arc<Quarantine>,
}

impl ScrubState {
    pub fn new(quarantine: Arc<Quarantine>) -> Arc<ScrubState> {
        Arc::new(ScrubState {
            running: AtomicBool::new(false),
            pages_checked: AtomicU64::new(0),
            blobs_checked: AtomicU64::new(0),
            corruptions_found: AtomicU64::new(0),
            pages_repaired: AtomicU64::new(0),
            quarantine,
        })
    }

    pub fn quarantine(&self) -> &Arc<Quarantine> {
        &self.quarantine
    }

    /// Point-in-time view for the DMV.
    pub fn status(&self) -> ScrubStatus {
        ScrubStatus {
            running: self.running.load(Ordering::Acquire),
            pages_checked: self.pages_checked.load(Ordering::Relaxed),
            blobs_checked: self.blobs_checked.load(Ordering::Relaxed),
            corruptions_found: self.corruptions_found.load(Ordering::Relaxed),
            pages_repaired: self.pages_repaired.load(Ordering::Relaxed),
            quarantined: self.quarantine.snapshot(),
        }
    }

    /// Mark a scrub pass running for its duration (RAII).
    fn begin(self: &Arc<Self>) -> RunningGuard {
        self.running.store(true, Ordering::Release);
        crate::trace::emit(
            crate::trace::TraceClass::Scrub,
            "scrub_begin",
            0,
            0,
            String::new,
        );
        RunningGuard {
            state: self.clone(),
        }
    }
}

struct RunningGuard {
    state: Arc<ScrubState>,
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        self.state.running.store(false, Ordering::Release);
        let state = self.state.clone();
        crate::trace::emit(crate::trace::TraceClass::Scrub, "scrub_end", 0, 0, || {
            format!(
                "pages_checked={} corruptions_found={} pages_repaired={}",
                state.pages_checked.load(Ordering::Relaxed),
                state.corruptions_found.load(Ordering::Relaxed),
                state.pages_repaired.load(Ordering::Relaxed)
            )
        });
    }
}

/// Snapshot of [`ScrubState`] plus the current quarantine entries.
pub struct ScrubStatus {
    pub running: bool,
    pub pages_checked: u64,
    pub blobs_checked: u64,
    pub corruptions_found: u64,
    pub pages_repaired: u64,
    pub quarantined: Vec<(String, u64)>,
}

/// One scrub observation: a page or blob that was corrupt, repaired,
/// quarantined, un-fenced, or unverifiable.
pub struct ScrubFinding {
    /// Lowercase table name or `filestream:<guid>`.
    pub object: String,
    /// Page within the object; `None` for blobs.
    pub page: Option<u64>,
    /// `repaired`, `quarantined`, `corrupt`, `cleared` or `unhashed`.
    pub status: &'static str,
    pub detail: String,
}

/// Outcome of one `CHECK TABLE` / `CHECK DATABASE` pass.
#[derive(Default)]
pub struct ScrubReport {
    pub pages_checked: u64,
    pub blobs_checked: u64,
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// How many findings are still bad after this pass (corrupt or
    /// quarantined — anything but repaired/cleared/unhashed).
    pub fn unhealthy(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| matches!(f.status, "corrupt" | "quarantined"))
            .count()
    }

    pub fn repaired(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == "repaired")
            .count()
    }

    /// Render as the `CHECK` result set: one row per finding, then a
    /// trailing summary row.
    pub fn into_result(self) -> QueryResult {
        let schema = Arc::new(Schema::new(vec![
            Column::new("object", DataType::Text).not_null(),
            Column::new("page", DataType::Int),
            Column::new("status", DataType::Text).not_null(),
            Column::new("detail", DataType::Text).not_null(),
        ]));
        let unhealthy = self.unhealthy();
        let repaired = self.repaired();
        let summary = format!(
            "checked {} pages and {} blobs: {} repaired, {} still corrupt or quarantined",
            self.pages_checked, self.blobs_checked, repaired, unhealthy
        );
        let mut rows: Vec<Row> = self
            .findings
            .into_iter()
            .map(|f| {
                Row::new(vec![
                    Value::text(f.object),
                    f.page.map(|p| Value::Int(p as i64)).unwrap_or(Value::Null),
                    Value::text(f.status),
                    Value::text(f.detail),
                ])
            })
            .collect();
        rows.push(Row::new(vec![
            Value::text("(summary)"),
            Value::Null,
            Value::text(if unhealthy == 0 { "ok" } else { "unhealthy" }),
            Value::text(summary),
        ]));
        QueryResult {
            schema,
            rows,
            affected: 0,
        }
    }
}

impl Database {
    /// `CHECK TABLE <name> [REPAIR]`: verify every heap and index page of
    /// one table; with `repair`, rewrite corrupt pages from the buffer
    /// pool or WAL and quarantine the unrepairable ones.
    pub fn check_table(&self, name: &str, repair: bool) -> Result<ScrubReport> {
        let _running = self.scrub_state().begin();
        let wal_images = self.scrub_wal_images(repair)?;
        let mut report = ScrubReport::default();
        self.scrub_table(name, repair, &wal_images, &mut report)?;
        Ok(report)
    }

    /// `CHECK DATABASE [REPAIR]`: scrub every table and every FileStream
    /// blob. Also what the server's periodic scrub thread runs.
    pub fn check_database(&self, repair: bool) -> Result<ScrubReport> {
        let _running = self.scrub_state().begin();
        let wal_images = self.scrub_wal_images(repair)?;
        let mut report = ScrubReport::default();
        for name in self.catalog().table_names() {
            self.scrub_table(&name, repair, &wal_images, &mut report)?;
        }
        for blob in self.filestream().blob_names()? {
            self.scrub_blob(&blob, repair, &mut report)?;
        }
        Ok(report)
    }

    /// The WAL's last committed image per page, gathered once per pass so
    /// repairs do not re-read the log for every corrupt page. Only needed
    /// in repair mode; safe on a live log (replay only reads).
    fn scrub_wal_images(&self, repair: bool) -> Result<HashMap<PageId, Box<[u8]>>> {
        match self.pool().wal() {
            Some(wal) if repair => wal_last_images(wal),
            _ => Ok(HashMap::new()),
        }
    }

    fn scrub_table(
        &self,
        name: &str,
        repair: bool,
        wal_images: &HashMap<PageId, Box<[u8]>>,
        report: &mut ScrubReport,
    ) -> Result<()> {
        // Resolve through the catalog directly: CHECK must reach objects
        // the quarantine fences off from ordinary statements.
        let table = self.catalog().table(name)?;
        let key = table.name.to_ascii_lowercase();
        let state = self.scrub_state();
        let quarantine = state.quarantine();
        let fenced: BTreeSet<u64> = quarantine
            .snapshot()
            .into_iter()
            .filter(|(object, _)| *object == key)
            .map(|(_, page)| page)
            .collect();
        let mut pages = table.heap.pages_snapshot();
        for idx in table.indexes.read().iter() {
            pages.extend(idx.btree.pages());
        }
        let store = self.pool().store().clone();
        for (i, page) in pages.into_iter().enumerate() {
            if i > 0 && i % PAGES_PER_SLICE == 0 {
                std::thread::sleep(SLICE_PAUSE);
            }
            state.pages_checked.fetch_add(1, Ordering::Relaxed);
            report.pages_checked += 1;
            if check_page(store.as_ref(), page)? {
                if fenced.contains(&page) {
                    // A prior pass fenced this page and it has since been
                    // rewritten clean (repair or re-import): un-fence it.
                    quarantine.clear(&key, page)?;
                    report.findings.push(ScrubFinding {
                        object: key.clone(),
                        page: Some(page),
                        status: "cleared",
                        detail: "page verifies again; quarantine entry removed".into(),
                    });
                }
                continue;
            }
            state.corruptions_found.fetch_add(1, Ordering::Relaxed);
            storage_counters()
                .corruptions_found
                .fetch_add(1, Ordering::Relaxed);
            if !repair {
                report.findings.push(ScrubFinding {
                    object: key.clone(),
                    page: Some(page),
                    status: "corrupt",
                    detail: "checksum mismatch; run CHECK ... REPAIR".into(),
                });
                continue;
            }
            if repair_page(self.pool(), wal_images, page)? {
                state.pages_repaired.fetch_add(1, Ordering::Relaxed);
                quarantine.clear(&key, page)?;
                report.findings.push(ScrubFinding {
                    object: key.clone(),
                    page: Some(page),
                    status: "repaired",
                    detail: "rewritten from the buffer pool or WAL and re-verified".into(),
                });
            } else {
                quarantine.add(&key, page)?;
                crate::trace::emit(
                    crate::trace::TraceClass::Quarantine,
                    "quarantine_add",
                    0,
                    0,
                    || format!("object={key} page={page}"),
                );
                report.findings.push(ScrubFinding {
                    object: key.clone(),
                    page: Some(page),
                    status: "quarantined",
                    detail: "no good image in cache or WAL; object fenced until re-import".into(),
                });
            }
        }
        Ok(())
    }

    fn scrub_blob(&self, name: &str, repair: bool, report: &mut ScrubReport) -> Result<()> {
        let key = format!("filestream:{name}");
        let state = self.scrub_state();
        let quarantine = state.quarantine();
        state.blobs_checked.fetch_add(1, Ordering::Relaxed);
        report.blobs_checked += 1;
        match self.filestream().verify_blob(name)? {
            BlobCheck::Ok => {
                if quarantine.check(&key).is_err() {
                    // Clean re-hash of a fenced blob (re-imported in
                    // place): un-fence it.
                    quarantine.clear_object(&key)?;
                    report.findings.push(ScrubFinding {
                        object: key,
                        page: None,
                        status: "cleared",
                        detail: "blob hash verifies again; quarantine entry removed".into(),
                    });
                }
            }
            BlobCheck::Unhashed => {
                report.findings.push(ScrubFinding {
                    object: key,
                    page: None,
                    status: "unhashed",
                    detail: "no recorded import hash (external tool wrote it); cannot verify"
                        .into(),
                });
            }
            BlobCheck::Mismatch => {
                state.corruptions_found.fetch_add(1, Ordering::Relaxed);
                storage_counters()
                    .corruptions_found
                    .fetch_add(1, Ordering::Relaxed);
                if repair {
                    // Blobs have no redundant copy (no WAL images): the
                    // only remedy is fencing until a re-import.
                    quarantine.add(&key, 0)?;
                    crate::trace::emit(
                        crate::trace::TraceClass::Quarantine,
                        "quarantine_add",
                        0,
                        0,
                        || format!("object={key}"),
                    );
                    report.findings.push(ScrubFinding {
                        object: key,
                        page: None,
                        status: "quarantined",
                        detail: "hash mismatch and no redundant copy; re-import to restore".into(),
                    });
                } else {
                    report.findings.push(ScrubFinding {
                        object: key,
                        page: None,
                        status: "corrupt",
                        detail: "hash mismatch against the import-time SHA-256".into(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_storage::rowfmt::Compression;
    use seqdb_types::DbError;

    fn seeded_db() -> (Arc<Database>, Arc<crate::catalog::Table>) {
        let db = Database::in_memory();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("payload", DataType::Text),
        ]);
        let t = db
            .create_table("reads", schema, Compression::Row, Some(vec![0]))
            .unwrap();
        for i in 0..200i64 {
            t.insert(&Row::new(vec![
                Value::Int(i),
                Value::text(format!("ACGT-{i:04}")),
            ]))
            .unwrap();
        }
        (db, t)
    }

    #[test]
    fn clean_database_scrubs_clean() {
        let (db, _t) = seeded_db();
        db.checkpoint().unwrap();
        let report = db.check_database(false).unwrap();
        assert!(report.pages_checked > 0);
        assert_eq!(report.unhealthy(), 0);
        let status = db.scrub_state().status();
        assert!(!status.running);
        assert!(status.pages_checked >= report.pages_checked);
        assert!(status.quarantined.is_empty());
    }

    #[test]
    fn cached_corruption_is_repaired_in_place() {
        let (db, t) = seeded_db();
        db.checkpoint().unwrap();
        // Rot a heap page at rest; the buffer pool still caches the good
        // frame (checkpoint flushes without evicting).
        let victim = t.heap.pages_snapshot()[0];
        let store = db.pool().store().clone();
        let mut buf = vec![0u8; seqdb_storage::PAGE_SIZE];
        store.read_page(victim, &mut buf).unwrap();
        buf[64] ^= 0x5A;
        store.write_page(victim, &buf).unwrap();
        let report = db.check_table("reads", true).unwrap();
        assert_eq!(report.repaired(), 1);
        assert_eq!(report.unhealthy(), 0);
        assert!(db.quarantine().is_empty());
        // The table still reads every row.
        assert_eq!(t.row_count(), 200);
    }

    #[test]
    fn unrepairable_page_quarantines_and_clears_after_rewrite() {
        let (db, t) = seeded_db();
        db.checkpoint().unwrap();
        db.pool().clear_cache().unwrap();
        let victim = t.heap.pages_snapshot()[0];
        let store = db.pool().store().clone();
        let mut buf = vec![0u8; seqdb_storage::PAGE_SIZE];
        store.read_page(victim, &mut buf).unwrap();
        let good = buf.clone();
        buf[64] ^= 0x5A;
        store.write_page(victim, &buf).unwrap();
        // No cache, no WAL image (in-memory db has no WAL): quarantined.
        let report = db.check_table("reads", true).unwrap();
        assert_eq!(report.unhealthy(), 1);
        let err = db.resolve_table("reads").err();
        assert!(matches!(err, Some(DbError::Quarantined { .. })));
        // Unaffected tables stay online.
        assert!(db.catalog().table_names().contains(&"reads".to_string()));
        // Restore the good image out-of-band (the "re-import"): the next
        // scrub un-fences the object.
        store.write_page(victim, &good).unwrap();
        let report = db.check_table("reads", true).unwrap();
        assert_eq!(report.unhealthy(), 0);
        assert!(db.resolve_table("reads").is_ok());
        assert!(db.quarantine().is_empty());
    }

    #[test]
    fn check_without_repair_reports_but_does_not_fence() {
        let (db, t) = seeded_db();
        db.checkpoint().unwrap();
        db.pool().clear_cache().unwrap();
        let victim = t.heap.pages_snapshot()[0];
        let store = db.pool().store().clone();
        let mut buf = vec![0u8; seqdb_storage::PAGE_SIZE];
        store.read_page(victim, &mut buf).unwrap();
        buf[512] ^= 0x01;
        store.write_page(victim, &buf).unwrap();
        let report = db.check_table("reads", false).unwrap();
        assert_eq!(report.unhealthy(), 1);
        assert!(report.findings.iter().any(|f| f.status == "corrupt"));
        assert!(db.quarantine().is_empty(), "plain CHECK only reports");
        assert!(db.resolve_table("reads").is_ok());
    }

    #[test]
    fn corrupt_blob_quarantines_and_reimport_clears() {
        let (db, _t) = seeded_db();
        let fs = db.filestream();
        let data = b"GATTACA".repeat(64);
        let guid = fs.insert(&data).unwrap();
        let name = fs.blob_names().unwrap()[0].clone();
        seqdb_storage::rot_file(&fs.path_name(guid).unwrap(), 7, 0, 64).unwrap();
        let report = db.check_database(true).unwrap();
        assert_eq!(report.unhealthy(), 1);
        let key = format!("filestream:{name}");
        assert!(matches!(
            db.quarantine().check(&key),
            Err(DbError::Quarantined { .. })
        ));
        // Fenced: the path/len/reader surface fails typed.
        assert!(matches!(fs.len(guid), Err(DbError::Quarantined { .. })));
        // Re-import (delete clears the fence; the fresh copy records a
        // fresh hash and scrubs clean).
        fs.delete(guid).unwrap();
        let guid = fs.insert(&data).unwrap();
        assert!(fs.len(guid).is_ok());
        let report = db.check_database(true).unwrap();
        assert_eq!(report.unhealthy(), 0);
    }

    #[test]
    fn report_renders_rows_with_trailing_summary() {
        let mut report = ScrubReport {
            pages_checked: 10,
            blobs_checked: 2,
            findings: vec![ScrubFinding {
                object: "reads".into(),
                page: Some(4),
                status: "repaired",
                detail: "test".into(),
            }],
        };
        report.findings.push(ScrubFinding {
            object: "filestream:x".into(),
            page: None,
            status: "quarantined",
            detail: "test".into(),
        });
        let result = report.into_result();
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.schema.len(), 4);
        let last = result.rows.last().unwrap();
        assert_eq!(last[0], Value::text("(summary)"));
        assert_eq!(last[2], Value::text("unhealthy"));
    }
}
