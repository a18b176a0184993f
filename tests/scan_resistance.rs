//! Scan resistance of the buffer pool on a disk-backed database. A heap
//! of more than a quarter of the pool is scanned cold: its misses go in
//! at the least recently used end, so repeated scans of a table larger
//! than the pool leave the keyed table's warm B+-tree pages cached. A
//! heap under that size is cached by its first scan.

use std::sync::Arc;

use seqdb::engine::{Database, Plan, Session, Table};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Row, Value};

const HOT_KEYS: i64 = 2_000;

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn counter(db: &Arc<Database>, name: &str) -> i64 {
    let r = db
        .query_sql("SELECT counter_name, value FROM DM_OS_PERFORMANCE_COUNTERS()")
        .unwrap();
    let row = r.rows.iter().find(|row| row[0].as_text().unwrap() == name);
    row.unwrap_or_else(|| panic!("counter {name} missing"))[1]
        .as_int()
        .unwrap()
}

/// Fill `table` with ~1 KB rows until its heap holds more than `pages`
/// pages; returns the row count and the sum of `v`.
fn load(db: &Database, table: &Table, pages: u64) -> (i64, i64) {
    let payload = "ACGT".repeat(250);
    let (mut rows, mut sum) = (0i64, 0i64);
    while table.heap.page_count() <= pages {
        let v = rows % 97;
        table
            .insert(&Row::new(vec![Value::Int(v), Value::text(&payload)]))
            .unwrap();
        (rows, sum) = (rows + 1, sum + v);
        // Checkpoint before the pool has to evict dirty pages one log
        // sync at a time.
        if rows % 10_000 == 0 {
            db.checkpoint().unwrap();
        }
    }
    db.checkpoint().unwrap();
    (rows, sum)
}

fn scan(session: &Session, table: &str, truth: (i64, i64)) {
    let r = session
        .query_sql(&format!("SELECT COUNT(*), SUM(v) FROM {table}"))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(truth.0), "{table} row count");
    assert_eq!(r.rows[0][1].as_int().unwrap(), truth.1, "{table} sum");
}

/// Seek every hot key through the primary-key index.
fn lookups(session: &Session, hot: &Arc<Table>) {
    let index = hot.indexes.read()[0].clone();
    let (ctx, guard) = session.begin_statement("lookups").unwrap();
    for id in 1..=HOT_KEYS {
        let plan = Plan::IndexScan {
            table: hot.clone(),
            index: index.clone(),
            prefix: vec![Value::Int(id)],
            filter: None,
            projection: None,
            schema: hot.schema.clone(),
        };
        let rows = plan.run(&ctx).unwrap();
        assert_eq!(rows.len(), 1, "key {id}");
        assert_eq!(rows[0][1], Value::Int(id * 7), "key {id}");
    }
    drop(guard);
}

#[test]
fn large_heap_scans_leave_warm_lookups_and_small_heaps_cached() {
    let dir = std::env::temp_dir().join(format!("seqdb-it-{}-scan-cold", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _cleanup = TempDir(dir.clone());
    let db = Database::open(&dir).unwrap();
    let capacity = db.pool().capacity() as u64;
    db.execute_sql("CREATE TABLE Hot (id INT NOT NULL PRIMARY KEY, w INT NOT NULL)")
        .unwrap();
    for table in ["Lane", "Small"] {
        db.execute_sql(&format!(
            "CREATE TABLE {table} (v INT NOT NULL, seq VARCHAR(1024) NOT NULL)"
        ))
        .unwrap();
    }
    let hot = db.catalog().table("Hot").unwrap();
    for id in 1..=HOT_KEYS {
        hot.insert(&Row::new(vec![Value::Int(id), Value::Int(id * 7)]))
            .unwrap();
    }
    // The lane outgrows the whole pool, the small table stays under a
    // quarter of it.
    let lane = db.catalog().table("Lane").unwrap();
    let lane_truth = load(&db, &lane, capacity + 256);
    let small = db.catalog().table("Small").unwrap();
    let small_truth = load(&db, &small, capacity / 8);
    assert!(small.heap.page_count() <= capacity / 4);

    let session = db.create_session();
    lookups(&session, &hot);
    let misses = counter(&db, "bufferpool_misses");
    lookups(&session, &hot);
    assert_eq!(counter(&db, "bufferpool_misses"), misses, "warm lookups");

    // Three passes over the lane read every page of it each time...
    let fetches = || counter(&db, "bufferpool_hits") + counter(&db, "bufferpool_misses");
    let cold = counter(&db, "bufferpool_cold_reads");
    for _ in 0..3 {
        let before = fetches();
        scan(&session, "Lane", lane_truth);
        assert!(fetches() - before >= lane.heap.page_count() as i64);
    }
    assert!(counter(&db, "bufferpool_cold_reads") > cold);
    // ...and evict none of the keyed table's pages.
    let misses = counter(&db, "bufferpool_misses");
    lookups(&session, &hot);
    assert_eq!(
        counter(&db, "bufferpool_misses"),
        misses,
        "lookups after scans"
    );

    // A heap under the threshold is cached by its first scan.
    let cold = counter(&db, "bufferpool_cold_reads");
    scan(&session, "Small", small_truth);
    let misses = counter(&db, "bufferpool_misses");
    scan(&session, "Small", small_truth);
    assert_eq!(
        counter(&db, "bufferpool_misses"),
        misses,
        "second small scan"
    );
    assert_eq!(counter(&db, "bufferpool_cold_reads"), cold);
}
