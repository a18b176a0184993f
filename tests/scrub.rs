//! End-to-end tests for the integrity scrubber: seeded bit rot planted
//! at rest under live wire-server traffic, `CHECK DATABASE REPAIR`
//! repairing what has a committed image and quarantining the rest,
//! typed `Quarantined` errors over the wire, disk-full degradation in
//! the spill path, and the startup orphan sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use seqdb::engine::Database;
use seqdb::server::{Client, Server, ServerConfig};
use seqdb::sql::DatabaseSqlExt;
use seqdb::storage::{rot_file, storage_counters, FaultClock, FaultPlan, PAGE_SIZE};
use seqdb::types::{DbError, Row, Value};

mod common;
use common::fault_seed;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn count_status(report: &seqdb::engine::QueryResult, status: &str) -> usize {
    report
        .rows
        .iter()
        .filter(|r| r[2].as_text().map(|s| s == status).unwrap_or(false))
        .count()
}

// ----------------------------------------------------------------------
// The acceptance scenario: bit rot on >= 3 pages and a blob, repaired /
// quarantined by CHECK DATABASE REPAIR while live traffic keeps running.
// ----------------------------------------------------------------------

#[test]
fn check_repair_heals_rot_under_live_traffic() {
    let seed = fault_seed();
    let dir = fresh_dir("scrub-e2e");
    let db = Database::open(&dir).unwrap();

    // Three tables: `repairable` keeps committed images cached, `doomed`
    // loses every copy of its pages, `healthy` carries the live traffic.
    db.execute_sql("CREATE TABLE repairable (id INT, seq VARCHAR(32))")
        .unwrap();
    db.execute_sql("CREATE TABLE doomed (id INT, seq VARCHAR(32))")
        .unwrap();
    db.execute_sql("CREATE TABLE healthy (id INT, v INT)")
        .unwrap();
    let wide: Vec<Row> = (0..2000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("ACGTACGT-{i:06}"))]))
        .collect();
    db.insert_rows("repairable", &wide).unwrap();
    let narrow: Vec<Row> = (0..500i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("TTAA-{i:04}"))]))
        .collect();
    db.insert_rows("doomed", &narrow).unwrap();
    let plain: Vec<Row> = (0..500i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 3)]))
        .collect();
    db.insert_rows("healthy", &plain).unwrap();
    let blob = b"GATTACA".repeat(1024);
    let guid = db.filestream().insert(&blob).unwrap();
    let blob_path = db.filestream().path_name(guid).unwrap();

    // Everything durable, then drop the cache so `doomed` has no
    // committed image anywhere (checkpoint also truncated the WAL).
    db.checkpoint().unwrap();
    db.pool().clear_cache().unwrap();

    let data_file = dir.join("seqdb.data");
    let doomed_pages = db.catalog().table("doomed").unwrap().heap.pages_snapshot();
    rot_file(
        &data_file,
        seed,
        doomed_pages[0] * PAGE_SIZE as u64,
        PAGE_SIZE as u64,
    )
    .unwrap();

    // Re-warm `repairable` so its clean frames are cached, then rot
    // three of its pages at rest: the media decayed under a live cache.
    let r = db.query_sql("SELECT COUNT(*) FROM repairable").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2000));
    let repairable_pages = db
        .catalog()
        .table("repairable")
        .unwrap()
        .heap
        .pages_snapshot();
    assert!(repairable_pages.len() >= 3, "need >= 3 pages to rot");
    for (i, page) in repairable_pages.iter().take(3).enumerate() {
        rot_file(
            &data_file,
            seed.wrapping_add(i as u64),
            page * PAGE_SIZE as u64,
            PAGE_SIZE as u64,
        )
        .unwrap();
    }
    rot_file(&blob_path, seed, 0, blob.len() as u64).unwrap();

    // Live traffic on the unaffected table for the whole repair window.
    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let queries = Arc::new(AtomicU64::new(0));
    let traffic = {
        let (stop, errors, queries) = (stop.clone(), errors.clone(), queries.clone());
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                match c.query("SELECT COUNT(*), SUM(v) FROM healthy") {
                    Ok(r) => {
                        assert_eq!(r.rows[0][0], Value::Int(500));
                        queries.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    // The repair itself runs over the wire, like an operator would.
    let mut admin = Client::connect(server.addr()).unwrap();
    let report = admin.query("CHECK DATABASE REPAIR").unwrap();
    assert_eq!(count_status(&report, "repaired"), 3, "{report:?}");
    assert_eq!(count_status(&report, "quarantined"), 2, "{report:?}");

    // Repaired pages serve every row again; quarantined objects fail
    // typed; unaffected statements never noticed.
    let r = admin.query("SELECT COUNT(*) FROM repairable").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2000));
    let err = admin.query("SELECT COUNT(*) FROM doomed").unwrap_err();
    assert!(
        matches!(&err, DbError::Quarantined { object, .. } if object == "doomed"),
        "{err:?}"
    );
    let err = db.filestream().len(guid).unwrap_err();
    assert!(matches!(err, DbError::Quarantined { .. }), "{err:?}");

    // The DMV shows the summary row plus one row per quarantined object.
    let dmv = admin
        .query("SELECT state, object FROM DM_DB_SCRUB_STATUS()")
        .unwrap();
    let objects: Vec<String> = dmv
        .rows
        .iter()
        .filter(|r| r[0].as_text().unwrap() == "quarantined")
        .map(|r| r[1].as_text().unwrap().to_string())
        .collect();
    assert!(objects.contains(&"doomed".to_string()), "{objects:?}");
    assert!(
        objects.iter().any(|o| o.starts_with("filestream:")),
        "{objects:?}"
    );

    stop.store(true, Ordering::Relaxed);
    traffic.join().unwrap();
    assert_eq!(errors.load(Ordering::Relaxed), 0, "healthy traffic failed");
    assert!(queries.load(Ordering::Relaxed) > 0, "traffic never ran");
    server.drain().unwrap();

    // A second repair pass finds nothing new to fix and keeps the fence.
    let report = db.check_database(true).unwrap().into_result();
    assert_eq!(count_status(&report, "repaired"), 0);
    let status = db.scrub_state().status();
    assert!(status.pages_repaired >= 3);
    assert!(status.corruptions_found >= 5);
    assert_eq!(status.quarantined.len(), 2);

    // Leak probes: nothing pinned, no temp files, no admission bytes.
    assert_eq!(db.pool().pinned_frames(), 0, "leaked page pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");
    assert_eq!(db.admission().reserved(), 0, "leaked admission bytes");

    // The quarantine survives restart; repair-by-rewrite clears it.
    drop(db);
    let db = Database::open(&dir).unwrap();
    let err = db.query_sql("SELECT COUNT(*) FROM doomed").unwrap_err();
    assert!(matches!(err, DbError::Quarantined { .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Disk-full degradation: spills starve typed, nothing leaks, and the
// same query completes once space returns.
// ----------------------------------------------------------------------

#[test]
fn disk_full_mid_spill_fails_typed_and_leaks_nothing() {
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE big (v INT)").unwrap();
    let rows: Vec<Row> = (0..20_000i64)
        .map(|i| Row::new(vec![Value::Int((i * 7919) % 20_000)]))
        .collect();
    db.insert_rows("big", &rows).unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();

    // Sanity: under the tight budget the sort spills and still finishes.
    db.temp().reset_counters();
    let r = db.query_sql("SELECT v FROM big ORDER BY v").unwrap();
    assert_eq!(r.rows.len(), 20_000);
    assert!(db.temp().spill_count() > 0, "the sort must have spilled");

    // Now the device fills up mid-spill.
    db.temp().set_fault_clock(Some(FaultClock::new(FaultPlan {
        disk_full_after_ops: Some(3),
        ..FaultPlan::none()
    })));
    let err = db.query_sql("SELECT v FROM big ORDER BY v").unwrap_err();
    assert!(matches!(err, DbError::DiskFull(_)), "{err:?}");
    db.temp().set_fault_clock(None);

    // Degrade, don't die: no leaked spill files, reads still work, and
    // the very same statement succeeds once space is back.
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.pool().pinned_frames(), 0, "leaked page pins");
    let r = db.query_sql("SELECT v FROM big ORDER BY v").unwrap();
    assert_eq!(r.rows.len(), 20_000);
}

// ----------------------------------------------------------------------
// Startup hygiene: orphaned temp files and half-written blobs from a
// previous life are swept when the database opens.
// ----------------------------------------------------------------------

#[test]
fn open_sweeps_orphaned_temp_and_blob_files() {
    let dir = fresh_dir("scrub-orphans");
    drop(Database::open(&dir).unwrap());

    // A crashed process left a spill file and a half-written blob.
    let stray_spill = dir.join("tempdb").join("spill-99.tmp");
    let stray_blob = dir.join("filestream").join("deadbeef00112233.tmp");
    std::fs::write(&stray_spill, b"orphaned sort run").unwrap();
    std::fs::write(&stray_blob, b"half a blob").unwrap();

    let before = storage_counters()
        .startup_orphans_removed
        .load(Ordering::Relaxed);
    let db = Database::open(&dir).unwrap();
    let after = storage_counters()
        .startup_orphans_removed
        .load(Ordering::Relaxed);
    assert!(!stray_spill.exists(), "tempdb orphan survived open");
    assert!(!stray_blob.exists(), "filestream orphan survived open");
    assert!(
        after - before >= 2,
        "sweep not counted: {before} -> {after}"
    );
    assert_eq!(db.temp().live_files().unwrap(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
