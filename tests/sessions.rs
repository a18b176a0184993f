//! End-to-end tests for the session layer: concurrent governed sessions
//! spilling within their budgets, admission control bounding how much
//! governed work runs at once, cross-session `KILL`, and the isolation
//! of session-scoped `SET` options.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use seqdb::engine::{fingerprint, Database, ExecContext, TableFunction, TvfCursor};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

/// `NUMBERS(n)` emits 0..n — with a huge `n`, an effectively endless
/// stream for the cross-session KILL test.
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

/// 12k rows with distinct ids: over the parallel threshold, and 12k
/// groups is far more than a tight budget can hold resident.
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

// ----------------------------------------------------------------------
// Concurrent governed sessions: spill, don't die; queue, don't overload
// ----------------------------------------------------------------------

#[test]
fn concurrent_sessions_spill_within_budget_and_admission_bounds_excess() {
    let db = setup_db();
    // Global pool fits exactly three 64 KiB statements.
    db.set_admission_pool_kb(Some(192));
    db.set_admission_wait_ms(150);
    db.temp().reset_counters();

    // Three sessions run the same memory-hungry aggregate at once. Each
    // budget is far below what 12k groups need resident, so each plans
    // the serial hash aggregate and must degrade to spilling — and still
    // produce exact results, with zero ResourceExhausted.
    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let session = db.create_session();
        session
            .execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64")
            .unwrap();
        session.execute_sql("SET MAX_DOP = 4").unwrap();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            session.query_sql("SELECT id, COUNT(*), SUM(v) FROM t GROUP BY id")
        }));
    }
    for h in handles {
        let r = h
            .join()
            .unwrap()
            .expect("governed session must spill, not fail");
        assert_eq!(r.rows.len(), 12_000, "every group exactly once");
        assert!(
            r.rows.iter().all(|row| row[1] == Value::Int(1)),
            "each id appears once"
        );
    }
    assert!(
        db.temp().spill_count() > 0,
        "the aggregates must have spilled"
    );
    assert_eq!(db.temp().live_files().unwrap(), 0, "no temp files leaked");
    assert_eq!(db.admission().reserved(), 0, "pool fully released");

    // Now saturate the pool with three admitted (still-running)
    // statements; a fourth governed session must queue at the gate and
    // fail typed within the bounded wait — not run and oversubscribe.
    let holders: Vec<_> = (0..3)
        .map(|_| {
            let s = db.create_session();
            s.set_query_memory_limit_kb(Some(64));
            s
        })
        .collect();
    let guards: Vec<_> = holders
        .iter()
        .map(|s| s.begin_statement("SELECT id FROM t").unwrap())
        .collect();
    assert_eq!(db.admission().reserved(), 192 * 1024);

    let extra = db.create_session();
    extra.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64").unwrap();
    let start = Instant::now();
    let err = extra
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap_err();
    assert!(matches!(err, DbError::AdmissionTimeout(_)), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "admission wait must be bounded, took {:?}",
        start.elapsed()
    );

    // Capacity freed: the same query on the same session now runs.
    drop(guards);
    assert_eq!(db.admission().reserved(), 0);
    let r = extra
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 12_000);
}

// ----------------------------------------------------------------------
// Cross-session KILL of an in-flight spilling statement
// ----------------------------------------------------------------------

#[test]
fn kill_from_another_session_stops_a_spilling_query_without_leaks() {
    let db = setup_db();
    db.set_admission_pool_kb(Some(64));
    let pins_before = db.pool().pinned_frames();

    // The victim runs an effectively endless aggregation (12k outer rows
    // x 1e9 inner rows) under a tiny budget, so the kill lands while
    // spill files are live on disk and admission bytes are reserved.
    let victim = db.create_session();
    victim.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    let victim_sid = victim.id() as i64;
    let runner = std::thread::spawn(move || {
        let start = Instant::now();
        let err = victim
            .query_sql("SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n")
            .unwrap_err();
        (err, start.elapsed())
    });

    // The killer session finds the victim through the DMV — the same
    // `sys.dm_exec_requests` → `KILL` loop a DBA would run.
    let killer = db.create_session();
    let statement_id = loop {
        let r = killer
            .query_sql("SELECT statement_id, session_id FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let found = r
            .rows
            .iter()
            .find_map(|row| (row[1] == Value::Int(victim_sid)).then(|| row[0].as_int().unwrap()));
        match found {
            Some(id) => break id,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    // Let the victim get properly underway (spilling) before the kill.
    std::thread::sleep(Duration::from_millis(100));
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();

    let (err, elapsed) = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert!(elapsed < Duration::from_secs(10), "kill took {elapsed:?}");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked buffer pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.admission().reserved(), 0, "leaked admission bytes");
    assert_eq!(
        db.statements().running_count(),
        0,
        "statement still registered"
    );
    // Every governor charge was released before the statement vanished.
    assert!(
        db.statements().snapshot().is_empty(),
        "no statements should survive the kill"
    );

    // Killing the finished statement now misses, typed.
    let err = killer
        .execute_sql(&format!("KILL {statement_id}"))
        .unwrap_err();
    assert!(
        matches!(err, DbError::NoSuchStatement(id) if id == statement_id),
        "{err}"
    );

    // The database keeps serving both sessions' successors.
    let r = killer.query_sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
}

// ----------------------------------------------------------------------
// INSERT ... SELECT is a statement like any other: it runs under its
// session's budget and timeout, shows in the DMV, and dies to KILL
// ----------------------------------------------------------------------

#[test]
fn insert_select_is_governed_visible_and_killable() {
    let db = setup_db();
    db.set_admission_pool_kb(Some(64));
    db.execute_sql("CREATE TABLE dst (id INT NOT NULL, n INT)")
        .unwrap();
    let pins_before = db.pool().pinned_frames();
    let dst_rows = |db: &Arc<Database>| db.query_sql("SELECT id, n FROM dst ORDER BY id").unwrap();

    // Budget: the GROUP BY feeding the insert spills, and what lands in
    // dst is exactly what the SELECT alone returns.
    let s = db.create_session();
    s.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    let r = s
        .execute_sql("INSERT INTO dst SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(r.affected, 12_000);
    assert!(
        db.temp().spill_count() > 0,
        "the insert's source must run under the session's 8 KiB budget"
    );
    let expected = db
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id ORDER BY id")
        .unwrap();
    assert_eq!(dst_rows(&db).rows, expected.rows);
    s.execute_sql("DELETE FROM dst").unwrap();

    // Timeout: an endless source fails typed and nothing is inserted.
    let endless =
        "INSERT INTO dst SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n";
    s.execute_sql("SET QUERY_TIMEOUT_MS = 50").unwrap();
    let err = s.execute_sql(endless).unwrap_err();
    assert!(matches!(err, DbError::Timeout(_)), "{err}");
    assert!(dst_rows(&db).rows.is_empty());

    // KILL: a second session finds the running insert in the DMV by its
    // session id and text, and kills it.
    s.execute_sql("SET QUERY_TIMEOUT_MS = 0").unwrap();
    let victim_sid = s.id() as i64;
    let runner = std::thread::spawn(move || s.execute_sql(endless).unwrap_err());
    let killer = db.create_session();
    let deadline = Instant::now() + Duration::from_secs(30);
    let statement_id = loop {
        assert!(
            Instant::now() < deadline,
            "INSERT ... SELECT never showed up in DM_EXEC_REQUESTS()"
        );
        let r = killer
            .query_sql("SELECT statement_id, session_id, sql_text FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let found = r.rows.iter().find_map(|row| {
            (row[1] == Value::Int(victim_sid) && row[2].as_text().unwrap() == endless)
                .then(|| row[0].as_int().unwrap())
        });
        match found {
            Some(id) => break id,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();
    let err = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked buffer pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.admission().reserved(), 0, "leaked admission bytes");
    assert_eq!(db.statements().running_count(), 0);
    assert!(dst_rows(&db).rows.is_empty());

    // Both failed runs are in the one statement history, by disposition.
    let r = killer
        .query_sql("SELECT query_text, killed, timeouts FROM DM_DB_QUERY_STORE()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == fingerprint(endless).1)
        .expect("INSERT ... SELECT missing from the query store");
    assert_eq!(row[1], Value::Int(1), "killed");
    assert_eq!(row[2], Value::Int(1), "timeouts");
}

// ----------------------------------------------------------------------
// SET isolation across concurrently open sessions
// ----------------------------------------------------------------------

#[test]
fn set_in_one_session_leaves_concurrent_sessions_untouched() {
    let db = setup_db();
    let a = db.create_session();
    let b = db.create_session();

    // `a` tightens its own knobs while `b` is open.
    a.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    a.execute_sql("SET MAX_DOP = 1").unwrap();
    a.execute_sql("SET QUERY_TIMEOUT_MS = 60000").unwrap();

    assert_eq!(a.effective_config().query_mem_limit_kb, Some(8));
    assert_eq!(a.effective_config().max_dop, 1);
    assert_eq!(a.effective_config().query_timeout_ms, Some(60_000));
    // `b` still sees the server defaults...
    assert_eq!(
        b.effective_config().query_mem_limit_kb,
        db.config().query_mem_limit_kb
    );
    assert_eq!(b.effective_config().max_dop, db.config().max_dop);
    // ...and the server defaults themselves are untouched.
    assert_eq!(db.config().query_mem_limit_kb, None);
    assert_eq!(db.config().query_timeout_ms, None);

    // Behavioural proof, not just config introspection: the same query
    // spills in `a` (8 KiB budget) and not in `b` (unlimited).
    db.temp().reset_counters();
    let rb = b
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(rb.rows.len(), 12_000);
    assert_eq!(
        db.temp().spill_count(),
        0,
        "unlimited session must not spill"
    );
    let ra = a
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(ra.rows.len(), 12_000);
    assert!(db.temp().spill_count() > 0, "governed session must spill");

    // `SET ... = 0` turns a session override into an explicit "off",
    // still without touching the neighbour.
    a.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 0").unwrap();
    assert_eq!(a.effective_config().query_mem_limit_kb, None);
    assert_eq!(
        b.effective_config().query_mem_limit_kb,
        db.config().query_mem_limit_kb
    );

    // The same SET through the database handle runs on the server-scope
    // session, the one place it writes the defaults sessions inherit.
    let dop = db.config().max_dop + 1;
    a.execute_sql(&format!("SET MAX_DOP = {dop}")).unwrap();
    assert_ne!(db.config().max_dop, dop);
    db.execute_sql(&format!("SET MAX_DOP = {dop}")).unwrap();
    assert_eq!(db.config().max_dop, dop);
    assert_eq!(b.effective_config().max_dop, dop);
}
