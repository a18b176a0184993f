//! End-to-end tests for online backup and verified restore: a fuzzy
//! backup taken under live wire traffic restored into a queryable
//! database after the source directory is destroyed, incremental
//! backups restoring later state, crash-at-every-sync sweeps that must
//! never corrupt the source, and seeded rot in the backup set failing
//! restore with the typed `BackupCorrupt`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use seqdb::engine::{restore_database, verify_backup, Database};
use seqdb::server::{Client, Server, ServerConfig};
use seqdb::sql::DatabaseSqlExt;
use seqdb::storage::{rot_file, sha256::sha256, FaultClock, FaultPlan, PAGE_SIZE};
use seqdb::types::{DbError, Row, Value};

mod common;
use common::fault_seed;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn count(db: &Arc<Database>, table: &str) -> i64 {
    db.query_sql(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap()
}

/// Seed the standard fixture: two tables and a FileStream blob.
fn seed_fixture(db: &Arc<Database>) -> u128 {
    db.execute_sql("CREATE TABLE runs (id INT, tag VARCHAR(40))")
        .unwrap();
    db.execute_sql("CREATE TABLE live (id INT, v INT)").unwrap();
    let rows: Vec<Row> = (0..3000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("RUN-{i:06}"))]))
        .collect();
    db.insert_rows("runs", &rows).unwrap();
    db.filestream().insert(&b"GATTACA".repeat(2048)).unwrap()
}

// ----------------------------------------------------------------------
// The acceptance scenario: online backup under live wire traffic, source
// directory destroyed, restore verified and queryable.
// ----------------------------------------------------------------------

#[test]
fn online_backup_restores_after_source_is_destroyed() {
    let dir = fresh_dir("backup-e2e");
    let source = dir.join("db");
    let db = Database::open(&source).unwrap();
    let guid = seed_fixture(&db);
    let blob_bytes = b"GATTACA".repeat(2048);

    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Live traffic for the whole backup window: reads over `runs`,
    // writes into `live`. Every statement must succeed — an online
    // backup that fails queries is not online.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut i = 0i64;
            let mut errors = 0usize;
            while !stop.load(Ordering::SeqCst) {
                if c.query(&format!("INSERT INTO live VALUES ({i}, {})", i * 7))
                    .is_err()
                {
                    errors += 1;
                }
                if c.query("SELECT COUNT(*) FROM runs").is_err() {
                    errors += 1;
                }
                i += 1;
            }
            errors
        })
    };
    // Let the workload get going before the backup starts.
    std::thread::sleep(Duration::from_millis(50));

    let backup_dir = dir.join("b1");
    let mut admin = Client::connect(addr).unwrap();
    let report = admin
        .query(&format!("BACKUP DATABASE TO '{}'", backup_dir.display()))
        .unwrap();
    assert_eq!(report.rows[0][1], Value::text("full"));
    assert!(report.rows[0][2].as_int().unwrap() > 0, "pages copied");

    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);
    let traffic_errors = traffic.join().unwrap();
    assert_eq!(traffic_errors, 0, "live traffic failed during backup");
    server.drain().unwrap();

    // The backup is a point-in-time snapshot: `runs` and the blob are
    // fully in it; `live` holds whatever had committed by then.
    let live_at_source = count(&db, "live");
    drop(db);

    // Destroy the source. Everything from here on comes from the set.
    std::fs::remove_dir_all(&source).unwrap();

    let verify = verify_backup(&backup_dir).unwrap();
    assert!(verify.pages_verified > 0);
    assert_eq!(verify.blobs_verified, 1);

    let target = dir.join("restored");
    let report = restore_database(&backup_dir, &target).unwrap();
    assert!(report.pages_verified > 0);
    assert_eq!(report.chain_depth, 1);

    let db = Database::open(&target).unwrap();
    assert_eq!(count(&db, "runs"), 3000);
    let live_restored = count(&db, "live");
    assert!(
        live_restored <= live_at_source,
        "restored live count {live_restored} beyond source {live_at_source}"
    );
    // The restored database passes its own integrity scrub.
    let check = db.execute_sql("CHECK DATABASE").unwrap();
    let last = check.rows.last().unwrap();
    assert_eq!(last[2], Value::text("ok"), "restored db fails scrub");
    // The blob round-tripped bit for bit.
    let mut r = db.filestream().open_reader(guid, true).unwrap();
    assert_eq!(
        sha256(&r.read_all().unwrap()),
        sha256(&blob_bytes),
        "blob hash changed across backup/restore"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Incremental: a second backup copies only what changed and restores
// the later state.
// ----------------------------------------------------------------------

#[test]
fn incremental_backup_restores_later_state() {
    let dir = fresh_dir("backup-incr");
    let source = dir.join("db");
    let db = Database::open(&source).unwrap();
    seed_fixture(&db);

    let b1 = dir.join("b1");
    let full = db.backup_database(&b1, None).unwrap();
    assert!(!full.incremental);

    // More rows and a second blob after the full backup.
    let more: Vec<Row> = (3000..4000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("RUN-{i:06}"))]))
        .collect();
    db.insert_rows("runs", &more).unwrap();
    db.filestream().insert(b"new-after-full").unwrap();

    let b2 = dir.join("b2");
    let incr = db
        .execute_sql(&format!(
            "BACKUP DATABASE TO '{}' INCREMENTAL FROM '{}'",
            b2.display(),
            b1.display()
        ))
        .unwrap();
    assert_eq!(incr.rows[0][1], Value::text("incremental"));
    let pages_copied = incr.rows[0][2].as_int().unwrap();
    let pages_skipped = incr.rows[0][3].as_int().unwrap();
    assert!(
        pages_skipped > 0,
        "incremental copied everything ({pages_copied} copied, 0 skipped)"
    );
    assert!(pages_copied < full.pages_copied as i64);
    // One blob changed hands, one was already in the base.
    assert_eq!(incr.rows[0][4], Value::Int(1));
    assert_eq!(incr.rows[0][5], Value::Int(1));
    drop(db);

    // Restoring the incremental resolves through the base chain and
    // yields the *later* state.
    let target = dir.join("restored");
    let report = restore_database(&b2, &target).unwrap();
    assert_eq!(report.chain_depth, 2);
    let db = Database::open(&target).unwrap();
    assert_eq!(count(&db, "runs"), 4000);
    assert_eq!(db.filestream().blob_names().unwrap().len(), 2);

    // The base alone still restores the earlier state.
    let t1 = dir.join("restored-base");
    restore_database(&b1, &t1).unwrap();
    let db1 = Database::open(&t1).unwrap();
    assert_eq!(count(&db1, "runs"), 3000);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Crash at every sync point: the source must come through every schedule
// untouched, and the partial set must be detectably incomplete.
// ----------------------------------------------------------------------

#[test]
fn crash_at_every_sync_never_corrupts_source() {
    let seed = fault_seed();
    let dir = fresh_dir("backup-crash");
    let source = dir.join("db");
    let db = Database::open(&source).unwrap();
    seed_fixture(&db);

    let mut completed = false;
    for k in 0..8u64 {
        let dest = dir.join(format!("crash-{k}"));
        let clock = FaultClock::new(FaultPlan {
            seed,
            crash_after_syncs: Some(k),
            ..FaultPlan::none()
        });
        db.backup_state().set_fault_clock(Some(clock));
        match db.backup_database(&dest, None) {
            Err(_) => {
                // The partial set has no manifest (it is written last),
                // so verification refuses it outright.
                let err = verify_backup(&dest).unwrap_err();
                assert!(
                    matches!(&err, DbError::BackupCorrupt { object } if object.contains("backup.manifest")),
                    "partial set not refused: {err:?}"
                );
            }
            Ok(_) => {
                // The schedule ran out of sync points to crash at.
                verify_backup(&dest).unwrap();
                completed = true;
                break;
            }
        }
        // The *source* database is untouched after every crash: fully
        // queryable and scrub-clean.
        assert_eq!(count(&db, "runs"), 3000);
        let check = db.execute_sql("CHECK DATABASE").unwrap();
        assert_eq!(check.rows.last().unwrap()[2], Value::text("ok"));
    }
    db.backup_state().set_fault_clock(None);
    assert!(completed, "backup never survived the crash sweep");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Seeded rot in the backup set: restore must refuse with the typed
// error naming the damaged object, never resurrect bad data.
// ----------------------------------------------------------------------

#[test]
fn rotted_backup_set_fails_restore_typed() {
    let seed = fault_seed();
    let dir = fresh_dir("backup-rot");
    let source = dir.join("db");
    let db = Database::open(&source).unwrap();
    seed_fixture(&db);
    db.checkpoint().unwrap();

    // Rot a data page.
    let b1 = dir.join("b1");
    db.backup_database(&b1, None).unwrap();
    let victim = db.catalog().table("runs").unwrap().heap.pages_snapshot()[1];
    rot_file(
        &b1.join("seqdb.data"),
        seed,
        victim * PAGE_SIZE as u64,
        PAGE_SIZE as u64,
    )
    .unwrap();
    let err = verify_backup(&b1).unwrap_err();
    assert!(
        matches!(&err, DbError::BackupCorrupt { object } if object.contains("page")),
        "{err:?}"
    );
    let err = restore_database(&b1, &dir.join("t1")).unwrap_err();
    assert!(matches!(&err, DbError::BackupCorrupt { .. }), "{err:?}");

    // Rot the blob copy.
    let b2 = dir.join("b2");
    db.backup_database(&b2, None).unwrap();
    let name = &db.filestream().blob_names().unwrap()[0];
    rot_file(
        &b2.join("filestream").join(format!("{name}.blob")),
        seed,
        0,
        64,
    )
    .unwrap();
    let err = verify_backup(&b2).unwrap_err();
    assert!(
        matches!(&err, DbError::BackupCorrupt { object } if object.contains("filestream:")),
        "{err:?}"
    );

    // Rot the catalog snapshot.
    let b3 = dir.join("b3");
    db.backup_database(&b3, None).unwrap();
    rot_file(&b3.join("catalog.seqdb"), seed, 0, 16).unwrap();
    let err = verify_backup(&b3).unwrap_err();
    assert!(
        matches!(&err, DbError::BackupCorrupt { object } if object.contains("catalog.seqdb")),
        "{err:?}"
    );

    // A missing manifest refuses outright.
    let b4 = dir.join("b4");
    db.backup_database(&b4, None).unwrap();
    std::fs::remove_file(b4.join("backup.manifest")).unwrap();
    let err = verify_backup(&b4).unwrap_err();
    assert!(
        matches!(&err, DbError::BackupCorrupt { object } if object.contains("backup.manifest")),
        "{err:?}"
    );

    // The wire carries the typed error end to end.
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let err = c
        .query(&format!(
            "RESTORE DATABASE FROM '{}' VERIFY ONLY",
            b4.display()
        ))
        .unwrap_err();
    assert!(matches!(&err, DbError::BackupCorrupt { .. }), "{err:?}");
    server.drain().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// A set written before B+-tree nodes were slotted: its catalog snapshot
// says `v1`, and a restore of one that holds an index refuses it typed,
// before a page is read — not as rot, and not as a fence.
// ----------------------------------------------------------------------

#[test]
fn a_v1_backup_set_with_an_index_is_refused_typed() {
    let dir = fresh_dir("backup-v1");
    let db = Database::open(&dir.join("db")).unwrap();
    db.execute_sql("CREATE TABLE k (id INT PRIMARY KEY, tag VARCHAR(16))")
        .unwrap();
    db.execute_sql("INSERT INTO k VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    let set = dir.join("b1");
    db.backup_database(&set, None).unwrap();
    // Rewrite the snapshot as v1, and its hash in the manifest with it,
    // so that nothing but the version is wrong.
    let catalog = set.join("catalog.seqdb");
    let v2 = std::fs::read_to_string(&catalog).unwrap();
    let v1 = v2.replacen("seqdb-catalog v2", "seqdb-catalog v1", 1);
    assert_ne!(v1, v2);
    std::fs::write(&catalog, &v1).unwrap();
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    let manifest = set.join("backup.manifest");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let (old, new) = (hex(&sha256(v2.as_bytes())), hex(&sha256(v1.as_bytes())));
    assert!(text.contains(&old));
    std::fs::write(&manifest, text.replace(&old, &new)).unwrap();

    let err = verify_backup(&set).unwrap_err();
    assert!(
        matches!(&err, DbError::Unsupported(m) if m.contains("v1")),
        "{err:?}"
    );
    let target = dir.join("restored");
    let err = restore_database(&set, &target).unwrap_err();
    assert!(matches!(&err, DbError::Unsupported(_)), "{err:?}");
    assert!(!target.join("seqdb.data").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Disk full mid-backup: typed error, partial set cleaned up.
// ----------------------------------------------------------------------

#[test]
fn disk_full_mid_backup_cleans_up_partial_set() {
    let seed = fault_seed();
    let dir = fresh_dir("backup-enospc");
    let db = Database::open(&dir.join("db")).unwrap();
    seed_fixture(&db);

    let dest = dir.join("b1");
    let clock = FaultClock::new(FaultPlan {
        seed,
        disk_full_after_ops: Some(3),
        ..FaultPlan::none()
    });
    db.backup_state().set_fault_clock(Some(clock));
    let err = db.backup_database(&dest, None).unwrap_err();
    assert!(matches!(err, DbError::DiskFull(_)), "{err:?}");
    assert!(!dest.exists(), "partial set left behind after disk full");
    db.backup_state().set_fault_clock(None);

    // The next attempt (space recovered) succeeds into the same slot.
    db.backup_database(&dest, None).unwrap();
    verify_backup(&dest).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Guard rails: live restore refused, occupied destinations refused.
// ----------------------------------------------------------------------

#[test]
fn restore_guard_rails() {
    let dir = fresh_dir("backup-guard");
    let db = Database::open(&dir.join("db")).unwrap();
    seed_fixture(&db);
    let b1 = dir.join("b1");
    db.backup_database(&b1, None).unwrap();

    // Restoring over the live database is refused with guidance.
    let err = db
        .execute_sql(&format!("RESTORE DATABASE FROM '{}'", b1.display()))
        .unwrap_err();
    assert!(
        matches!(&err, DbError::Unsupported(m) if m.contains("TO")),
        "{err:?}"
    );

    // Backup into an occupied set is refused.
    let err = db.backup_database(&b1, None).unwrap_err();
    assert!(
        matches!(&err, DbError::Execution(m) if m.contains("already")),
        "{err:?}"
    );

    // Restore into an occupied directory is refused.
    let target = dir.join("restored");
    restore_database(&b1, &target).unwrap();
    let err = restore_database(&b1, &target).unwrap_err();
    assert!(
        matches!(&err, DbError::Execution(m) if m.contains("already")),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Observability: DM_DB_BACKUP_STATUS reports progress and outcomes.
// ----------------------------------------------------------------------

#[test]
fn backup_status_dmv_reports_outcomes() {
    let dir = fresh_dir("backup-dmv");
    let db = Database::open(&dir.join("db")).unwrap();
    seed_fixture(&db);

    let idle = db
        .query_sql("SELECT state, pages_copied FROM DM_DB_BACKUP_STATUS()")
        .unwrap();
    assert_eq!(idle.rows[0][0], Value::text("idle"));

    db.backup_database(&dir.join("b1"), None).unwrap();
    let after = db
        .query_sql("SELECT state, pages_copied, last_outcome FROM DM_DB_BACKUP_STATUS()")
        .unwrap();
    assert_eq!(after.rows[0][0], Value::text("idle"));
    assert!(after.rows[0][1].as_int().unwrap() > 0);
    let outcome = after.rows[0][2].as_text().unwrap();
    assert!(outcome.starts_with("ok: full backup"), "{outcome}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// The periodic server backup thread: numbered sets, incremental after
// the first, stops at drain.
// ----------------------------------------------------------------------

#[test]
fn periodic_server_backups_write_restorable_sets() {
    let dir = fresh_dir("backup-periodic");
    let db = Database::open(&dir.join("db")).unwrap();
    seed_fixture(&db);

    let backups = dir.join("backups");
    let cfg = ServerConfig {
        backup_interval: Some(Duration::from_millis(60)),
        backup_dir: Some(backups.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(db.clone(), "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..40i64 {
        c.query(&format!("INSERT INTO live VALUES ({i}, {i})"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    server.drain().unwrap();

    // At least the first set landed; every set present verifies, and
    // the newest restores to a queryable database.
    let mut last = None;
    for seq in 1.. {
        let set = backups.join(seq.to_string());
        if !set.join("backup.manifest").exists() {
            break;
        }
        verify_backup(&set).unwrap();
        last = Some(set);
    }
    let last = last.expect("no periodic backup set was written");
    drop(db);
    let target = dir.join("restored");
    restore_database(&last, &target).unwrap();
    let db = Database::open(&target).unwrap();
    assert_eq!(count(&db, "runs"), 3000);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Catalog durability: tables survive checkpoint + reopen (the property
// restore relies on to bring a set back as a queryable database).
// ----------------------------------------------------------------------

#[test]
fn tables_survive_reopen_via_catalog_snapshot() {
    let dir = fresh_dir("backup-reopen");
    let dbdir = dir.join("db");
    {
        let db = Database::open(&dbdir).unwrap();
        db.execute_sql("CREATE TABLE t (id INT, tag VARCHAR(16))")
            .unwrap();
        db.execute_sql("CREATE INDEX idx_tag ON t (tag)").unwrap();
        let rows: Vec<Row> = (0..100i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("x{i}"))]))
            .collect();
        db.insert_rows("t", &rows).unwrap();
        db.checkpoint().unwrap();
    }
    let db = Database::open(&dbdir).unwrap();
    assert_eq!(count(&db, "t"), 100);
    let one = db.query_sql("SELECT id FROM t WHERE tag = 'x42'").unwrap();
    assert_eq!(one.rows[0][0], Value::Int(42));
    std::fs::remove_dir_all(&dir).unwrap();
}
