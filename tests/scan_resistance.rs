//! Scan resistance of the buffer pool. A heap of more than a quarter of
//! the pool is read through by its scans: a page that is not cached is
//! read into the scan's own buffer and never cached, so repeated scans of
//! a table larger than the pool leave the keyed table's warm B+-tree
//! pages cached. A heap under that size is cached by its first scan.
//! Scans that race inserts, while the pool writes dirty pages back, count
//! every row that was there when they started.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use seqdb::engine::{Database, Plan, Session, Table};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Row, Value};

mod common;

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

/// A seeded LCG: the concurrent case's sizes and pauses.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

fn count_and_sum(session: &Session) -> (i64, i64) {
    let r = session
        .query_sql("SELECT COUNT(*), SUM(v) FROM Lane")
        .unwrap();
    (
        r.rows[0][0].as_int().unwrap(),
        r.rows[0][1].as_int().unwrap(),
    )
}

/// One session inserts into a lane larger than the pool, whose every new
/// page evicts a dirty one, while two sessions count the lane with
/// parallel scans. The fault seed draws how far the lane outgrows the
/// pool, the insert batches and where each thread pauses.
#[test]
fn parallel_counts_racing_dirty_evictions_see_every_committed_row() {
    let mut rng = Lcg(common::fault_seed());
    let db = Database::in_memory();
    let capacity = db.pool().capacity() as u64;
    db.execute_sql("CREATE TABLE Lane (v INT NOT NULL, seq VARCHAR(1024) NOT NULL)")
        .unwrap();
    let lane = db.catalog().table("Lane").unwrap();
    let payload = "ACGT".repeat(250);
    // No checkpoint: every cached page of the lane stays dirty.
    let over = capacity / 16 + rng.below(capacity / 2);
    let (mut before, mut sum) = (0i64, 0i64);
    while lane.heap.page_count() <= capacity + over {
        lane.insert(&Row::new(vec![
            Value::Int(before % 97),
            Value::text(&payload),
        ]))
        .unwrap();
        (before, sum) = (before + 1, sum + before % 97);
    }
    let batches: Vec<i64> = (0..150 + rng.below(150))
        .map(|_| 1 + rng.below(8) as i64)
        .collect();
    let after = before + batches.iter().sum::<i64>();
    let pauses: Vec<u64> = (0..3).map(|_| 2 + rng.below(6)).collect();
    let writebacks = counter(&db, "bufferpool_writebacks");
    let inserting = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = db.create_session();
            let mut next = before;
            for (i, &n) in batches.iter().enumerate() {
                let values: Vec<String> = (next..next + n)
                    .map(|r| format!("({}, '{payload}')", r % 97))
                    .collect();
                let sql = format!("INSERT INTO Lane VALUES {}", values.join(", "));
                session.execute_sql(&sql).unwrap();
                next += n;
                if (i as u64).is_multiple_of(pauses[0]) {
                    std::thread::yield_now();
                }
            }
            inserting.store(false, Ordering::Release);
        });
        for &pause in &pauses[1..] {
            let (db, inserting) = (&db, &inserting);
            s.spawn(move || {
                let session = db.create_session();
                session.set_max_dop(2);
                let mut scans = 0u64;
                while scans < 2 || inserting.load(Ordering::Acquire) {
                    let (rows, _) = count_and_sum(&session);
                    assert!(
                        (before..=after).contains(&rows),
                        "{rows} rows counted, {before} before the inserts and {after} after"
                    );
                    scans += 1;
                    if scans.is_multiple_of(pause) {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert!(
        counter(&db, "bufferpool_writebacks") > writebacks,
        "the inserts wrote dirty victims back"
    );
    let sum = sum + (before..after).map(|r| r % 97).sum::<i64>();
    let session = db.create_session();
    session.set_max_dop(2);
    assert_eq!(count_and_sum(&session), (after, sum));
    let plan = session
        .query_sql("EXPLAIN SELECT COUNT(*), SUM(v) FROM Lane")
        .unwrap();
    assert!(
        format!("{:?}", plan.rows).contains("Parallel"),
        "the counts ran parallel: {:?}",
        plan.rows
    );
}
