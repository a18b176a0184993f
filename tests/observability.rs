//! End-to-end tests for the observability surfaces: `EXPLAIN ANALYZE`
//! actuals, the counter/wait-stats/query-stats DMVs, and the
//! `wait_state` column of `DM_EXEC_REQUESTS()` — exercised through the
//! same SQL a DBA would type.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use seqdb::core::dataset::{DgeDataset, Scale};
use seqdb::core::{queries, workflow};
use seqdb::engine::{fingerprint, Database, ExecContext, TableFunction, TvfCursor};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdb-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `NUMBERS(n)` emits 0..n — an effectively endless stream when `n` is
/// huge, for observing in-flight statements.
struct Numbers;

struct NumbersCursor {
    next: i64,
    limit: i64,
}

impl TvfCursor for NumbersCursor {
    fn move_next(&mut self) -> Result<bool> {
        self.next += 1;
        Ok(self.next <= self.limit)
    }
    fn fill_row(&mut self) -> Result<Row> {
        Ok(Row::new(vec![Value::Int(self.next - 1)]))
    }
}

impl TableFunction for Numbers {
    fn name(&self) -> &str {
        "NUMBERS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::new("n", DataType::Int)]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        Ok(Box::new(NumbersCursor {
            next: 0,
            limit: args[0].as_int()?,
        }))
    }
}

/// 12k distinct groups: over the parallel threshold, far more than a
/// tight budget can hold resident.
fn setup_db() -> Arc<Database> {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..12_000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();
    db
}

/// Read one counter from `DM_OS_PERFORMANCE_COUNTERS()`.
fn counter(db: &Arc<Database>, name: &str) -> i64 {
    let r = db
        .query_sql("SELECT counter_name, value FROM DM_OS_PERFORMANCE_COUNTERS()")
        .unwrap();
    r.rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))[1]
        .as_int()
        .unwrap()
}

/// Read `(wait_count, total_wait_ms)` for one class from
/// `DM_OS_WAIT_STATS()`.
fn wait_row(db: &Arc<Database>, class: &str) -> (i64, i64) {
    let r = db
        .query_sql("SELECT wait_class, wait_count, total_wait_ms FROM DM_OS_WAIT_STATS()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == class)
        .unwrap_or_else(|| panic!("wait class {class} missing"));
    (row[1].as_int().unwrap(), row[2].as_int().unwrap())
}

/// Flatten a plan-text result (one TEXT row per line) back into a string.
fn plan_text(r: &seqdb::engine::QueryResult) -> String {
    r.rows
        .iter()
        .map(|row| format!("{}\n", row[0].as_text().unwrap()))
        .collect()
}

// ----------------------------------------------------------------------
// EXPLAIN ANALYZE on a grouped aggregate over an imported FASTQ table
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_reports_actuals_for_fastq_grouped_aggregate() {
    let dir = tmp("dge");
    let ds = DgeDataset::generate(
        &dir,
        &Scale {
            genome_bp: 60_000,
            n_chromosomes: 3,
            n_reads: 2_500,
            seed: 1234,
        },
    )
    .unwrap();
    let db = Database::in_memory();
    workflow::load_dge_designs(&db, &ds).unwrap();
    let sql = queries::query1_sql(workflow::NORM);

    // Ground truth: the same grouped aggregate run plainly.
    let plain = db.query_sql(&sql).unwrap();
    assert!(!plain.rows.is_empty());

    // A tight budget forces the aggregate/sort to spill, and the actuals
    // must survive to the rendered plan anyway.
    let session = db.create_session();
    session
        .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 16")
        .unwrap();
    let analyzed = session
        .query_sql(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap();
    let text = plan_text(&analyzed);

    // Per-operator actuals on every header line.
    assert!(text.contains("actual_rows="), "{text}");
    assert!(text.contains("est_rows="), "{text}");
    assert!(text.contains("elapsed_ms="), "{text}");
    assert!(text.contains("peak_mem_kb="), "{text}");
    // The root operator produced exactly the plain run's row count, and
    // the summary footer agrees.
    assert!(
        text.contains(&format!("actual_rows={}", plain.rows.len())),
        "root actuals must match the plain run ({} rows):\n{text}",
        plain.rows.len()
    );
    assert!(
        text.contains(&format!("-- actual: {} rows", plain.rows.len())),
        "{text}"
    );
    // The tight budget must have spilled, and the spill must be
    // attributed in the rendering.
    let spilled = text
        .lines()
        .filter_map(|l| l.split("spill_files=").nth(1))
        .filter_map(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse::<u64>().ok())
        })
        .max()
        .unwrap_or(0);
    assert!(spilled > 0, "tight budget must surface spills:\n{text}");
    // Spill files are counted, then cleaned up.
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");

    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// DM_OS_WAIT_STATS records admission queueing under contention
// ----------------------------------------------------------------------

#[test]
fn wait_stats_record_admission_contention_across_sessions() {
    let db = setup_db();
    db.set_admission_pool_kb(Some(64));
    db.set_admission_wait_ms(100);

    let (count_before, _) = wait_row(&db, "ADMISSION");
    let waits_before = counter(&db, "admission_waits");

    // One admitted statement holds the whole pool; a second governed
    // session must queue at the gate and time out within the bound.
    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(64));
    let guard = holder.begin_statement("SELECT id FROM t").unwrap();

    let blocked = db.create_session();
    blocked
        .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64")
        .unwrap();
    let err = blocked
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap_err();
    assert!(matches!(err, DbError::AdmissionTimeout(_)), "{err}");
    drop(guard);

    // The blocked interval landed in the wait-stats DMV and the engine
    // counter registry — both visible through plain SQL.
    let (count_after, total_ms) = wait_row(&db, "ADMISSION");
    assert!(
        count_after > count_before,
        "ADMISSION wait_count must grow: {count_before} -> {count_after}"
    );
    assert!(total_ms >= 90, "waited ~100ms, DMV says {total_ms}ms");
    assert!(counter(&db, "admission_waits") > waits_before);

    // And a successful wait (capacity freed while queued) is recorded
    // too, not just the timeout path.
    db.set_admission_wait_ms(5_000);
    let holder2 = db.create_session();
    holder2.set_query_memory_limit_kb(Some(64));
    let guard2 = holder2.begin_statement("SELECT id FROM t").unwrap();
    let waiter = db.create_session();
    waiter
        .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64")
        .unwrap();
    let h = std::thread::spawn(move || waiter.query_sql("SELECT COUNT(*) FROM t"));
    std::thread::sleep(Duration::from_millis(50));
    drop(guard2);
    let r = h.join().unwrap().expect("waiter must run once pool frees");
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    let (count_final, _) = wait_row(&db, "ADMISSION");
    assert!(count_final > count_after, "successful wait must count too");
}

// ----------------------------------------------------------------------
// wait_state column: queued at the gate, spilling mid-flight, and a
// mid-stream KILL that still lands in DM_EXEC_QUERY_STATS
// ----------------------------------------------------------------------

#[test]
fn wait_state_shows_queued_statements() {
    let db = setup_db();
    db.set_admission_pool_kb(Some(64));
    db.set_admission_wait_ms(5_000);

    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(64));
    let guard = holder.begin_statement("SELECT id FROM t").unwrap();

    let waiter = db.create_session();
    waiter
        .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64")
        .unwrap();
    let waiter_sid = waiter.id() as i64;
    let h = std::thread::spawn(move || waiter.query_sql("SELECT COUNT(*) FROM t"));

    // The queued statement is visible in the DMV with wait_state =
    // 'queued' while it blocks at the admission gate.
    let observer = db.create_session();
    let deadline = Instant::now() + Duration::from_secs(4);
    loop {
        let r = observer
            .query_sql("SELECT session_id, wait_state FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let state = r.rows.iter().find_map(|row| {
            (row[0] == Value::Int(waiter_sid)).then(|| row[1].as_text().unwrap().to_string())
        });
        match state.as_deref() {
            Some("queued") => break,
            _ if Instant::now() > deadline => {
                panic!("never observed wait_state=queued, last saw {state:?}")
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(guard);
    let r = h.join().unwrap().expect("queued statement must admit");
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    // The holder's statement ran with wait_state 'running' by
    // construction; nothing should remain registered now.
    assert_eq!(db.statements().running_count(), 0);
}

#[test]
fn kill_mid_spill_shows_spilling_state_and_still_records_query_stats() {
    let db = setup_db();

    // The victim runs an effectively endless spilling aggregation under
    // a tiny budget.
    let victim = db.create_session();
    victim.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    let victim_sid = victim.id() as i64;
    let victim_sql = "SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n";
    let runner = std::thread::spawn(move || victim.query_sql(victim_sql).unwrap_err());

    // Observe the victim transition to wait_state = 'spilling', then
    // kill it mid-stream.
    let killer = db.create_session();
    let deadline = Instant::now() + Duration::from_secs(30);
    let statement_id = loop {
        let r = killer
            .query_sql("SELECT statement_id, session_id, wait_state FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let found = r.rows.iter().find_map(|row| {
            (row[1] == Value::Int(victim_sid) && row[2].as_text().unwrap() == "spilling")
                .then(|| row[0].as_int().unwrap())
        });
        match found {
            Some(id) => break id,
            None if Instant::now() > deadline => panic!("never observed wait_state=spilling"),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let kills_before = counter(&db, "statement_kills");
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();
    let err = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert_eq!(counter(&db, "statement_kills"), kills_before + 1);

    // Satellite (b): the early-terminated statement must NOT silently
    // lose its stats — the kill still lands in DM_EXEC_QUERY_STATS with
    // its spill volume attributed.
    let r = killer
        .query_sql("SELECT sql_text, executions, total_spill_files FROM DM_EXEC_QUERY_STATS()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == fingerprint(victim_sql).1)
        .expect("killed statement missing from query stats");
    assert_eq!(row[1], Value::Int(1), "one execution recorded");
    assert!(
        row[2].as_int().unwrap() > 0,
        "the kill landed mid-spill; spill files must be attributed"
    );

    // No leaks after the kill, provable from SQL alone.
    assert_eq!(counter(&db, "bufferpool_pinned_frames"), 0);
    assert_eq!(counter(&db, "tempspace_live_files"), 0);
}

// ----------------------------------------------------------------------
// Leak check: counters prove a spilling workload cleans up after itself
// ----------------------------------------------------------------------

#[test]
fn counters_prove_no_leaks_after_spilling_workload() {
    let db = setup_db();
    let spill_files_before = counter(&db, "spill_files");

    let session = db.create_session();
    session
        .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8")
        .unwrap();
    let spilling_sql = "SELECT id, COUNT(*), SUM(v) FROM t GROUP BY id";
    for _ in 0..3 {
        let r = session.query_sql(spilling_sql).unwrap();
        assert_eq!(r.rows.len(), 12_000);
    }

    // The workload spilled (global monotonic counter moved)...
    assert!(counter(&db, "spill_files") > spill_files_before);
    // ...and both leak gauges read zero afterwards, from SQL alone.
    assert_eq!(counter(&db, "bufferpool_pinned_frames"), 0);
    assert_eq!(counter(&db, "tempspace_live_files"), 0);

    // The statement history aggregated all three executions of the
    // (identical) statement text.
    let r = db
        .query_sql("SELECT sql_text, executions, total_rows FROM DM_EXEC_QUERY_STATS()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == fingerprint(spilling_sql).1)
        .expect("statement missing from history");
    assert_eq!(row[1], Value::Int(3), "three executions folded together");
    assert_eq!(row[2], Value::Int(36_000), "12k rows per execution");
}

// ----------------------------------------------------------------------
// The DMV surface: every view's columns and counter names, pinned
// ----------------------------------------------------------------------

/// Each DMV's `SELECT *` schema as `Schema`'s `Display` renders it:
/// column names, SQL types and nullability, in order.
const DMV_SCHEMAS: &[(&str, &str)] = &[
    (
        "DM_EXEC_REQUESTS",
        "statement_id BIGINT NOT NULL, session_id BIGINT NOT NULL, \
         sql_text VARCHAR NOT NULL, elapsed_ms BIGINT NOT NULL, \
         mem_used_bytes BIGINT NOT NULL, status VARCHAR NOT NULL, \
         wait_state VARCHAR NOT NULL",
    ),
    (
        "DM_OS_PERFORMANCE_COUNTERS",
        "counter_name VARCHAR NOT NULL, value BIGINT NOT NULL",
    ),
    (
        "DM_OS_WAIT_STATS",
        "wait_class VARCHAR NOT NULL, wait_count BIGINT NOT NULL, \
         total_wait_ms BIGINT NOT NULL, max_wait_ms BIGINT NOT NULL",
    ),
    (
        "DM_EXEC_QUERY_STATS",
        "sql_text VARCHAR NOT NULL, executions BIGINT NOT NULL, \
         total_rows BIGINT NOT NULL, last_rows BIGINT NOT NULL, \
         total_elapsed_ms BIGINT NOT NULL, last_elapsed_ms BIGINT NOT NULL, \
         total_spill_files BIGINT NOT NULL, total_spill_bytes BIGINT NOT NULL, \
         peak_mem_bytes BIGINT NOT NULL, as_of VARCHAR NOT NULL",
    ),
    (
        "DM_DB_QUERY_STORE",
        "fingerprint VARCHAR NOT NULL, query_text VARCHAR NOT NULL, \
         executions BIGINT NOT NULL, killed BIGINT NOT NULL, \
         timeouts BIGINT NOT NULL, total_rows BIGINT NOT NULL, \
         total_elapsed_ms BIGINT NOT NULL, p50_us BIGINT NOT NULL, \
         p99_us BIGINT NOT NULL, spill_files BIGINT NOT NULL, \
         spill_bytes BIGINT NOT NULL, wait_admission_ms BIGINT NOT NULL, \
         wait_spill_ms BIGINT NOT NULL, peak_mem_bytes BIGINT NOT NULL, \
         persisted_executions BIGINT NOT NULL",
    ),
    (
        "DM_OS_RING_BUFFER",
        "seq BIGINT NOT NULL, ts_us BIGINT NOT NULL, class VARCHAR NOT NULL, \
         event VARCHAR NOT NULL, session_id BIGINT NOT NULL, \
         statement_id BIGINT NOT NULL, detail VARCHAR NOT NULL",
    ),
    (
        "DM_EXEC_CONNECTIONS",
        "connection_id BIGINT NOT NULL, peer_addr VARCHAR NOT NULL, \
         session_id BIGINT NOT NULL, state VARCHAR NOT NULL, \
         idle_ms BIGINT NOT NULL",
    ),
    (
        "DM_DB_SCRUB_STATUS",
        "state VARCHAR NOT NULL, object VARCHAR, page BIGINT, \
         pages_checked BIGINT, blobs_checked BIGINT, \
         corruptions_found BIGINT, pages_repaired BIGINT",
    ),
    (
        "DM_DB_BACKUP_STATUS",
        "state VARCHAR NOT NULL, destination VARCHAR, \
         pages_copied BIGINT NOT NULL, pages_skipped BIGINT NOT NULL, \
         blobs_copied BIGINT NOT NULL, bytes_written BIGINT NOT NULL, \
         last_outcome VARCHAR",
    ),
];

/// Every `counter_name` of `DM_OS_PERFORMANCE_COUNTERS()`, in order.
const COUNTER_NAMES: &[&str] = &[
    "bufferpool_hits",
    "bufferpool_misses",
    "bufferpool_evictions",
    "bufferpool_writebacks",
    "bufferpool_cold_reads",
    "bufferpool_pinned_frames",
    "bufferpool_cached_frames",
    "tempspace_live_files",
    "admission_reserved_bytes",
    "admission_queue_depth",
    "active_connections",
    "uptime_ms",
    "process_start",
    "trace_events_dropped",
    "wal_records",
    "wal_bytes",
    "wal_fsyncs",
    "filestream_bytes_read",
    "filestream_bytes_written",
    "filestream_read_retries",
    "filestream_write_retries",
    "spill_files",
    "spill_bytes",
    "join_spill_files",
    "join_spill_bytes",
    "scrub_pages_checked",
    "scrub_blobs_checked",
    "corruptions_found",
    "pages_repaired",
    "startup_orphans_removed",
    "backup_pages_copied",
    "backup_bytes",
    "restore_pages_verified",
    "admission_waits",
    "statement_kills",
    "udx_panics",
    "governed_timeouts",
    "batch_rows",
    "batch_fallback_rows",
];

#[test]
fn every_dmv_answers_sql_with_its_columns() {
    let db = Database::in_memory();
    for &(name, schema) in DMV_SCHEMAS {
        let declared = db.catalog().table_fn(name).expect(name).schema();
        assert_eq!(declared.to_string(), schema, "{name}() declared columns");
        // SQL's projection reports every output column as nullable.
        let r = db
            .query_sql(&format!("SELECT * FROM {name}()"))
            .unwrap_or_else(|e| panic!("{name}(): {e}"));
        assert_eq!(
            r.schema.to_string(),
            schema.replace(" NOT NULL", ""),
            "{name}() columns over SQL"
        );
        let err = db
            .query_sql(&format!("SELECT * FROM {name}(1)"))
            .unwrap_err();
        assert!(matches!(err, DbError::Execution(_)), "{name}(1): {err}");
    }
    let names: Vec<String> = counter_snapshot(&db).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, COUNTER_NAMES, "DM_OS_PERFORMANCE_COUNTERS() names");
}

// ----------------------------------------------------------------------
// Counter monotonicity under arbitrary small workloads
// ----------------------------------------------------------------------

/// Gauges may go up and down; everything else in the counter DMV must
/// only ever grow.
const GAUGES: &[&str] = &[
    "bufferpool_pinned_frames",
    "bufferpool_cached_frames",
    "tempspace_live_files",
];

fn counter_snapshot(db: &Arc<Database>) -> Vec<(String, i64)> {
    let r = db
        .query_sql("SELECT counter_name, value FROM DM_OS_PERFORMANCE_COUNTERS()")
        .unwrap();
    r.rows
        .iter()
        .map(|row| {
            (
                row[0].as_text().unwrap().to_string(),
                row[1].as_int().unwrap(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of inserts, plain scans and budgeted (spilling)
    /// aggregates moves every non-gauge counter monotonically, and every
    /// wait-stats row as well.
    #[test]
    fn counters_are_monotonic_under_arbitrary_workloads(
        ops in proptest::collection::vec(0usize..3, 1..6),
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE m (id INT NOT NULL, v INT)").unwrap();
        let rows: Vec<Row> = (0..2_000i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 7)]))
            .collect();
        db.insert_rows("m", &rows).unwrap();
        let tight = db.create_session();
        tight.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();

        let mut before = counter_snapshot(&db);
        before.retain(|(n, _)| !GAUGES.contains(&n.as_str()));
        let waits_before = db
            .query_sql("SELECT wait_class, wait_count, total_wait_ms FROM DM_OS_WAIT_STATS()")
            .unwrap();

        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let r = db.query_sql("SELECT COUNT(*) FROM m").unwrap();
                    prop_assert_eq!(&r.rows[0][0], &Value::Int(2_000));
                }
                1 => {
                    let r = tight
                        .query_sql("SELECT id, SUM(v) FROM m GROUP BY id")
                        .unwrap();
                    prop_assert_eq!(r.rows.len(), 2_000);
                }
                _ => {
                    db.insert_rows(
                        "m",
                        &[Row::new(vec![Value::Int(10_000 + i as i64), Value::Int(0)])],
                    )
                    .unwrap();
                    db.execute_sql(&format!("DELETE FROM m WHERE id = {}", 10_000 + i))
                        .unwrap();
                }
            }
        }

        let mut after = counter_snapshot(&db);
        after.retain(|(n, _)| !GAUGES.contains(&n.as_str()));
        prop_assert_eq!(before.len(), after.len(), "counter set must be stable");
        for ((name, b), (name2, a)) in before.iter().zip(after.iter()) {
            prop_assert_eq!(name, name2, "counter order must be stable");
            prop_assert!(a >= b, "counter {} went backwards: {} -> {}", name, b, a);
        }
        let waits_after = db
            .query_sql("SELECT wait_class, wait_count, total_wait_ms FROM DM_OS_WAIT_STATS()")
            .unwrap();
        for (b, a) in waits_before.rows.iter().zip(waits_after.rows.iter()) {
            prop_assert_eq!(&b[0], &a[0]);
            prop_assert!(a[1].as_int().unwrap() >= b[1].as_int().unwrap());
            prop_assert!(a[2].as_int().unwrap() >= b[2].as_int().unwrap());
        }
    }
}
