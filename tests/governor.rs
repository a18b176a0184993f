//! End-to-end tests for the per-query resource governor: UDX panic
//! isolation, memory budgets with spill degradation, timeouts, and
//! cancellation cleanliness (no leaked buffer pins or temp files).

use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb::engine::{
    AggState, Aggregate, Database, ExecContext, JoinStrategy, ScalarUdf, TableFunction, TvfCursor,
};
use seqdb::sql::DatabaseSqlExt;
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

// ----------------------------------------------------------------------
// Test UDX: a panicking scalar, an endless-ish TVF, and a summing UDA
// ----------------------------------------------------------------------

/// Scalar UDF that panics when its argument is 13.
struct Boom;

impl ScalarUdf for Boom {
    fn name(&self) -> &str {
        "BOOM"
    }
    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let v = args[0].as_int()?;
        if v == 13 {
            panic!("boom on unlucky {v}");
        }
        Ok(Value::Int(v * 2))
    }
}

/// `NUMBERS(n)` emits 0..n — with a huge `n`, an effectively endless
/// stream for timeout/cancellation tests.
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

/// A user-defined summing aggregate (so the cancellation test exercises
/// the UDA path, not just built-ins).
struct AccAgg;

struct AccState {
    total: i64,
}

impl Aggregate for AccAgg {
    fn name(&self) -> &str {
        "ACC"
    }
    fn create(&self) -> Box<dyn AggState> {
        Box::new(AccState { total: 0 })
    }
}

impl AggState for AccState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.total += args[0].as_int()?;
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        let other = other
            .into_any()
            .downcast::<AccState>()
            .map_err(|_| DbError::Execution("ACC merge type mismatch".into()))?;
        self.total += other.total;
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        Ok(Value::Int(self.total))
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn setup_db() -> Arc<Database> {
    let db = Database::in_memory();
    db.catalog().register_scalar(Arc::new(Boom));
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.catalog().register_aggregate(Arc::new(AccAgg));
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT, v INT)")
        .unwrap();
    for i in 0..3000i64 {
        db.insert_rows(
            "t",
            &[Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Int(i),
            ])],
        )
        .unwrap();
    }
    db
}

// ----------------------------------------------------------------------
// (a) UDX panic isolation
// ----------------------------------------------------------------------

#[test]
fn panicking_udf_fails_its_query_and_the_database_survives() {
    let db = setup_db();
    let err = db.query_sql("SELECT BOOM(id) FROM t").unwrap_err();
    match &err {
        DbError::UdxPanic { name, payload } => {
            assert_eq!(name, "BOOM");
            assert!(payload.contains("unlucky 13"), "payload: {payload}");
        }
        other => panic!("expected UdxPanic, got {other:?}"),
    }
    // The very next query on the same Database succeeds.
    let r = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3000));
    // And rows that never hit the panic still evaluate through BOOM.
    let r = db
        .query_sql("SELECT BOOM(id) FROM t WHERE id = 21")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(42));
}

// ----------------------------------------------------------------------
// (b) Memory budgets: spill degradation and typed exhaustion
// ----------------------------------------------------------------------

#[test]
fn memory_limited_group_by_degrades_to_spill_with_exact_results() {
    let db = setup_db();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    // 3000 distinct groups cannot fit an 8 KiB budget.
    let r = db
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 3000, "every group exactly once");
    assert!(
        db.temp().spill_count() > 0,
        "the aggregate must have spilled"
    );
    assert!(
        r.rows.iter().all(|row| row[1] == Value::Int(1)),
        "each id appears once"
    );
    // Budget fully released after the query.
    assert_eq!(db.temp().live_files().unwrap(), 0, "no temp files leaked");

    // SET ... = 0 switches the limit back off.
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 0").unwrap();
    db.temp().reset_counters();
    db.query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(db.temp().spill_count(), 0, "unlimited budget never spills");
}

#[test]
fn memory_limited_sort_degrades_to_spill_with_exact_results() {
    let db = setup_db();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    let r = db.query_sql("SELECT id FROM t ORDER BY v").unwrap();
    assert_eq!(r.rows.len(), 3000);
    assert!(
        r.rows.windows(2).all(|w| {
            let (a, b) = (&w[0][0], &w[1][0]);
            a.as_int().unwrap() <= b.as_int().unwrap()
        }),
        "order preserved despite spilling"
    );
    assert!(db.temp().spill_count() > 0, "the sort must have spilled");
    assert_eq!(db.temp().live_files().unwrap(), 0, "no temp files leaked");
}

#[test]
fn memory_limited_hash_join_spills_and_completes() {
    let db = setup_db();
    // Non-indexed equi-join plans as a hash join. Since the hybrid Grace
    // rework the build side partitions to tempspace when the budget runs
    // out, so a tiny limit no longer fails the query — it completes with
    // the exact result and cleans up its partition files.
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 4").unwrap();
    let r = db
        .query_sql("SELECT COUNT(*) FROM t a JOIN t b ON (a.id = b.id)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3000));
    assert_eq!(db.temp().live_files().unwrap(), 0, "no leaked temp files");
    // The same query with no limit takes the purely resident path.
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 0").unwrap();
    let r = db
        .query_sql("SELECT COUNT(*) FROM t a JOIN t b ON (a.id = b.id)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3000));
}

/// Run `sql` as one statement under the database's memory budget and
/// return its rows, after checking that the statement left no byte
/// charged to its governor and no spill file behind.
fn run_leak_free(db: &Arc<Database>, sql: &str) -> Vec<Row> {
    let plan = seqdb::sql::binder::plan_query(db, sql).unwrap();
    let (ctx, _guard) = db.server_session().begin_statement(sql).unwrap();
    let rows = plan.run(&ctx).unwrap();
    assert_eq!(ctx.gov.mem_used(), 0, "{sql}: budget bytes left charged");
    assert_eq!(
        db.temp().live_files().unwrap(),
        0,
        "{sql}: spill files left"
    );
    rows
}

/// Assert that `EXPLAIN ANALYZE sql` reports spill files on the first
/// plan line naming each of `ops`.
fn assert_each_spills(db: &Arc<Database>, sql: &str, ops: &[&str]) {
    let plan = db.query_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r.to_string()).collect();
    for op in ops {
        let line = plan
            .iter()
            .find(|l| l.contains(op))
            .unwrap_or_else(|| panic!("no {op}: {plan:#?}"));
        let files: u64 = line
            .split("spill_files=")
            .nth(1)
            .and_then(|f| f.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        assert!(files > 0, "{op} did not spill: {plan:#?}");
    }
}

#[test]
fn a_spilled_aggregate_and_the_sort_above_it_share_one_budget() {
    // The hash aggregate hands its groups out of its own table while the
    // sort above buffers them, so both charge the one 8 KiB budget: the
    // aggregate spills its groups, the sort its runs, and the answer is
    // the unbudgeted one.
    let db = setup_db();
    let sql = "SELECT id, COUNT(*), SUM(v) FROM t GROUP BY id ORDER BY id";
    let expect = run_leak_free(&db, sql);
    assert_eq!(expect.len(), 3000);
    db.set_query_memory_limit_kb(Some(8));
    assert_each_spills(&db, sql, &["Sort", "Hash Match (Aggregate)"]);
    assert_eq!(run_leak_free(&db, sql), expect);
}

#[test]
fn a_spilled_join_and_the_aggregate_above_it_share_one_budget() {
    // The hash join hands out each spilled pair's rows while the pair's
    // table is still charged, and the aggregate above grows its groups
    // from the same 8 KiB: both spill, and the answer is the unbudgeted
    // one.
    let db = setup_db();
    let sql = "SELECT a.id, COUNT(*), SUM(b.v) FROM t a JOIN t b ON (a.id = b.id) GROUP BY a.id";
    let by_id = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        rows
    };
    let expect = by_id(run_leak_free(&db, sql));
    assert_eq!(expect.len(), 3000);
    db.set_query_memory_limit_kb(Some(8));
    db.set_join_strategy(JoinStrategy::Hash);
    assert_each_spills(
        &db,
        sql,
        &["Hash Match (Aggregate)", "Hash Match (Inner Join)"],
    );
    assert_eq!(by_id(run_leak_free(&db, sql)), expect);
}

// ----------------------------------------------------------------------
// (c) Timeouts: bounded return, no leaks
// ----------------------------------------------------------------------

#[test]
fn timed_out_query_returns_promptly_and_leaks_nothing() {
    let db = setup_db();
    let pins_before = db.pool().pinned_frames();
    db.execute_sql("SET QUERY_TIMEOUT_MS = 100").unwrap();
    // Without the deadline this CROSS APPLY would emit three billion rows.
    let start = Instant::now();
    let err = db
        .query_sql("SELECT ACC(n) FROM t CROSS APPLY NUMBERS(1000000)")
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, DbError::Timeout(_)), "{err}");
    assert!(
        elapsed < Duration::from_millis(1000),
        "timed-out query took {elapsed:?}, deadline was 100ms"
    );
    assert_eq!(db.pool().pinned_frames(), pins_before, "no leaked pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "no leaked temp files");
    // An expired governor affects only its own query.
    db.execute_sql("SET QUERY_TIMEOUT_MS = 0").unwrap();
    let r = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3000));
}

// ----------------------------------------------------------------------
// Cancellation mid-stream: pins and spill files all released
// ----------------------------------------------------------------------

#[test]
fn cancelled_cross_apply_uda_query_releases_pins_and_temp_files() {
    let db = setup_db();
    // A tiny budget forces the aggregate to spill *while* the query runs,
    // so cancellation catches it with live spill files on disk.
    db.set_query_memory_limit_kb(Some(8));
    let pins_before = db.pool().pinned_frames();
    let temps_before = db.temp().live_files().unwrap();

    // Effectively endless: ~3000 outer rows x 1e9 inner rows, grouped per
    // distinct n so the spill partitions keep growing.
    let sql = "SELECT n, ACC(n) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n";
    let plan = seqdb::sql::binder::plan_query(&db, sql).unwrap();
    let (ctx, _guard) = db.server_session().begin_statement(sql).unwrap();
    let gov = ctx.gov.clone();

    let canceller = std::thread::spawn(move || {
        // Let the query get properly underway before pulling the plug.
        std::thread::sleep(Duration::from_millis(50));
        gov.cancel();
    });
    let start = Instant::now();
    let err = plan.run(&ctx).unwrap_err();
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation took {elapsed:?}"
    );
    assert_eq!(
        db.pool().pinned_frames(),
        pins_before,
        "aborted query left buffer pins behind"
    );
    assert_eq!(
        db.temp().live_files().unwrap(),
        temps_before,
        "aborted query leaked spill files"
    );
    assert_eq!(ctx.gov.mem_used(), 0, "aborted query leaked budget bytes");

    // The database keeps serving queries afterwards.
    let r = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3000));
}
