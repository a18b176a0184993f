//! End-to-end tests for structured event tracing and the persistent
//! query store: a spilling + admission-queued + killed workload over
//! the wire, with the ring buffer and query store read back through
//! their DMVs; the JSONL trace/slow-log files; query-store survival
//! across a restart; and property tests for the latency histogram and
//! statement fingerprinting.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use seqdb::engine::{
    fingerprint, Database, ExecContext, LatencyHistogram, TableFunction, TvfCursor,
};
use seqdb::server::{Client, Server, ServerConfig};
use seqdb::sql::DatabaseSqlExt;
use seqdb::types::{Column, DataType, Result, Row, Schema, Value};

/// The trace mask is process-global; tests that flip it serialize here
/// so a concurrent test never observes a half-configured mask.
static MASK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdb-trace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `NUMBERS(n)` emits 0..n — effectively endless with a huge `n`, for
/// statements that must still be running when `KILL` or drain arrives.
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

/// 12k distinct ids: far more groups than a tight budget holds
/// resident, so an 8 KiB limit must spill.
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

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn start(db: &Arc<Database>, cfg: ServerConfig) -> Server {
    Server::start(db.clone(), "127.0.0.1:0", cfg).unwrap()
}

/// Fetch `(class, event, detail)` triples from the ring buffer DMV.
fn ring_events(c: &mut Client) -> Vec<(String, String, String)> {
    c.query("SELECT class, event, detail FROM DM_OS_RING_BUFFER()")
        .unwrap()
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_text().unwrap().to_string(),
                row[1].as_text().unwrap().to_string(),
                row[2].as_text().unwrap().to_string(),
            )
        })
        .collect()
}

// ----------------------------------------------------------------------
// The tentpole workload: spill + queued admission + KILL over the wire,
// read back through DM_OS_RING_BUFFER() and DM_DB_QUERY_STORE()
// ----------------------------------------------------------------------

#[test]
fn ring_buffer_and_query_store_capture_spill_admission_and_kill() {
    let _mask = MASK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = setup_db();
    let server = start(&db, quick_cfg());
    let addr = server.addr();
    let mut probe = Client::connect(addr).unwrap();
    probe.query("SET TRACE_EVENTS = 'ALL'").unwrap();

    // 1. A spilling aggregate that completes.
    let spill_sql = "SELECT id, COUNT(*) FROM t GROUP BY id";
    let mut worker = Client::connect(addr).unwrap();
    worker.query("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    let r = worker.query(spill_sql).unwrap();
    assert_eq!(r.rows.len(), 12_000);

    // 2. A statement that queues at the admission gate: an engine-side
    // holder owns the whole pool until the wire statement is waiting.
    db.set_admission_pool_kb(Some(64));
    db.set_admission_wait_ms(20_000);
    db.set_admission_queue_slots(4);
    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(64));
    let hold = holder.begin_statement("hold the pool").unwrap();
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        c.query("SET QUERY_MEMORY_LIMIT_KB = 64").unwrap();
        c.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.admission().queue_depth() == 0 {
        assert!(Instant::now() < deadline, "statement never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(hold);
    queued.join().unwrap().expect("queued statement must run");
    db.set_admission_pool_kb(None);

    // 3. A statement killed mid-flight via KILL from the probe.
    let endless_sql = "SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n";
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        c.query("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
        c.query(endless_sql)
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim_stid = loop {
        assert!(Instant::now() < deadline, "victim never showed up");
        let r = probe
            .query("SELECT statement_id, sql_text FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let hit = r
            .rows
            .iter()
            .find(|row| row[1].as_text().unwrap().contains("1000000000"));
        match hit {
            Some(row) => break row[0].as_int().unwrap(),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    probe.query(&format!("KILL {victim_stid}")).unwrap();
    assert!(victim.join().unwrap().is_err(), "killed statement errored");

    // The store records at statement unwind; poll until the killed
    // disposition lands.
    let killed_text = fingerprint(endless_sql).1;
    let deadline = Instant::now() + Duration::from_secs(10);
    let store_rows = loop {
        assert!(Instant::now() < deadline, "killed row never reached store");
        let r = probe
            .query(
                "SELECT query_text, executions, killed, spill_files, p50_us \
                 FROM DM_DB_QUERY_STORE()",
            )
            .unwrap();
        let landed = r
            .rows
            .iter()
            .any(|row| row[0].as_text().unwrap() == killed_text && row[2].as_int().unwrap() >= 1);
        if landed {
            break r.rows;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // Query-store aggregates: the spilling query spilled and completed.
    let spill_text = fingerprint(spill_sql).1;
    let spill_row = store_rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == spill_text)
        .expect("spilling query missing from store");
    assert!(spill_row[1].as_int().unwrap() >= 1, "executions");
    assert_eq!(spill_row[2].as_int().unwrap(), 0, "not killed");
    assert!(spill_row[3].as_int().unwrap() > 0, "spill_files");
    assert!(spill_row[4].as_int().unwrap() > 0, "p50 over a real run");

    // Ring buffer: every leg of the workload left its typed events.
    let events = ring_events(&mut probe);
    let has = |class: &str, event: &str| events.iter().any(|(c, e, _)| c == class && e == event);
    assert!(has("STATEMENT", "statement_start"), "{events:?}");
    assert!(has("STATEMENT", "statement_finish"));
    assert!(has("SPILL", "spill_file"));
    assert!(has("WAIT", "wait"));
    assert!(has("ADMISSION", "admission_queued"));
    assert!(has("ADMISSION", "admission_admit"));
    assert!(has("KILL", "kill"));
    assert!(
        events.iter().any(|(c, e, d)| c == "STATEMENT"
            && e == "statement_finish"
            && d.contains("disposition=killed")),
        "killed statement must finish with the killed disposition: {events:?}"
    );
    assert!(has("CONNECTION", "connection_open"));

    probe.query("SET TRACE_EVENTS = 'OFF'").unwrap();
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Server-side JSONL trace file and the slow-statement log
// ----------------------------------------------------------------------

#[test]
fn trace_file_and_slow_log_receive_jsonl_events() {
    let _mask = MASK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let slow_path = dir.join("slow.jsonl");

    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            trace_file: Some(trace_path.clone()),
            slow_log_file: Some(slow_path.clone()),
            ..quick_cfg()
        },
    );
    let mut c = Client::connect(server.addr()).unwrap();
    c.query("SET TRACE_EVENTS = 'ALL'").unwrap();
    c.query("SET SLOW_QUERY_MS = 1").unwrap();
    c.query("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    // A spilling aggregate over 12k groups comfortably exceeds 1 ms.
    let r = c.query("SELECT id, COUNT(*) FROM t GROUP BY id").unwrap();
    assert_eq!(r.rows.len(), 12_000);
    c.query("SET TRACE_EVENTS = 'OFF'").unwrap();
    server.drain().unwrap();

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(
        trace
            .lines()
            .any(|l| l.contains("\"event\":\"statement_start\"")),
        "trace file missing statement events: {trace}"
    );
    assert!(trace
        .lines()
        .any(|l| l.contains("\"event\":\"spill_file\"")));
    // Every line is one JSON object with the fixed field set.
    for line in trace.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(
            line.contains("\"seq\":") && line.contains("\"class\":"),
            "{line}"
        );
    }
    let slow = std::fs::read_to_string(&slow_path).unwrap();
    assert!(
        slow.lines()
            .any(|l| l.contains("\"event\":\"slow_statement\"")),
        "slow log missing slow_statement: {slow}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Restart survival: querystore.seqdb persists at CHECKPOINT, reloads
// on open, and both DMVs surface the pre-restart fingerprints
// ----------------------------------------------------------------------

#[test]
fn query_store_survives_restart_through_both_dmvs() {
    let dir = tmp("restart");
    let repeated_sql = "SELECT COUNT(*) FROM q WHERE id < 50";
    {
        let db = Database::open(&dir).unwrap();
        db.execute_sql("CREATE TABLE q (id INT NOT NULL, v INT)")
            .unwrap();
        let rows: Vec<Row> = (0..200i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect();
        db.insert_rows("q", &rows).unwrap();

        let server = start(&db, quick_cfg());
        let mut c = Client::connect(server.addr()).unwrap();
        for _ in 0..3 {
            let r = c.query(repeated_sql).unwrap();
            assert_eq!(r.rows[0][0], Value::Int(50));
        }
        // Explicit CHECKPOINT persists the store (drain re-checkpoints).
        c.query("CHECKPOINT").unwrap();
        server.drain().unwrap();
    }

    let expected_text = fingerprint(repeated_sql).1;
    let db = Database::open(&dir).unwrap();
    let server = start(&db, quick_cfg());
    let mut c = Client::connect(server.addr()).unwrap();

    // DM_DB_QUERY_STORE: the reloaded entry carries its pre-restart
    // counts, live and persisted alike.
    let r = c
        .query("SELECT query_text, executions, persisted_executions, total_rows FROM DM_DB_QUERY_STORE()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == expected_text)
        .expect("pre-restart fingerprint missing after reopen");
    assert_eq!(row[1].as_int().unwrap(), 3, "executions survive restart");
    assert_eq!(row[2].as_int().unwrap(), 3, "persisted_executions");
    assert_eq!(row[3].as_int().unwrap(), 3, "one row per execution");

    // DM_EXEC_QUERY_STATS: the persisted rows are distinguished from
    // the (empty, post-restart) in-memory history by `as_of`.
    let r = c
        .query("SELECT sql_text, executions, as_of FROM DM_EXEC_QUERY_STATS()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| {
            row[0].as_text().unwrap() == expected_text && row[2].as_text().unwrap() == "persisted"
        })
        .expect("persisted row missing from DM_EXEC_QUERY_STATS");
    assert_eq!(row[1].as_int().unwrap(), 3);

    server.drain().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// A checkpoint writes querystore.seqdb only when a statement was
// recorded since the file was last written or loaded
// ----------------------------------------------------------------------

#[test]
fn checkpoint_rewrites_the_query_store_only_after_a_statement() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmp("qs-unchanged");
    let file = dir.join("querystore.seqdb");
    // Every write lands a new file by rename, so the inode tells them apart.
    let stamp = || {
        let meta = std::fs::metadata(&file).expect("querystore.seqdb");
        (meta.ino(), meta.modified().unwrap())
    };
    let db = Database::open(&dir).unwrap();
    assert!(!file.exists());
    // The first checkpoint of a fresh directory creates the file.
    db.checkpoint().unwrap();
    let created = stamp();
    db.checkpoint().unwrap();
    assert_eq!(stamp(), created, "rewritten with nothing recorded");

    let sql = "CREATE TABLE q (id INT NOT NULL, v INT)";
    db.execute_sql(sql).unwrap();
    db.checkpoint().unwrap();
    let rewritten = stamp();
    assert_ne!(rewritten.0, created.0, "a recorded statement not persisted");
    drop(db);

    let db = Database::open(&dir).unwrap();
    let texts: Vec<String> = db
        .query_store()
        .persisted_snapshot()
        .into_iter()
        .map(|e| e.text)
        .collect();
    assert_eq!(texts, vec![fingerprint(sql).1]);
    // What was just loaded is what the file holds.
    db.checkpoint().unwrap();
    assert_eq!(stamp(), rewritten, "rewritten right after a reload");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Statements killed by drain still land in the query store (the
// statement-guard Drop path), visible over the wire afterwards
// ----------------------------------------------------------------------

#[test]
fn drain_killed_statement_lands_in_query_store_with_killed_disposition() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            drain_deadline: Duration::from_secs(1),
            ..quick_cfg()
        },
    );
    let addr = server.addr();
    let endless_sql = "SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n";
    let straggler = std::thread::spawn(move || {
        let Ok(mut c) = Client::connect(addr) else {
            return;
        };
        let _ = c.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = c.query("SET QUERY_MEMORY_LIMIT_KB = 8");
        let _ = c.query(endless_sql);
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.statements().running_count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));

    let report = server.drain().unwrap();
    straggler.join().unwrap();
    assert!(report.killed >= 1, "the endless statement had to be killed");

    // Drain joined the statement worker, so the guard's Drop has
    // already recorded the kill. Verify over the wire via a fresh
    // server on the same database.
    let expected_text = fingerprint(endless_sql).1;
    let server = start(&db, quick_cfg());
    let mut c = Client::connect(server.addr()).unwrap();
    let r = c
        .query("SELECT query_text, executions, killed FROM DM_DB_QUERY_STORE()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == expected_text)
        .expect("drain-killed statement missing from the query store");
    assert!(row[1].as_int().unwrap() >= 1);
    assert!(
        row[2].as_int().unwrap() >= 1,
        "drain kill must be recorded with the killed disposition"
    );
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Properties: histogram percentiles stay within bucket bounds, and
// fingerprints are stable under literal changes
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reported percentile is the upper bound of the bucket holding
    /// the true nearest-rank observation: never below it, and within a
    /// factor of two (the bucket width) above it.
    #[test]
    fn histogram_percentile_stays_within_bucket_bounds(
        samples in proptest::collection::vec(0u64..50_000_000, 1..300),
        p in 1u8..=100,
    ) {
        let mut h = LatencyHistogram::default();
        for &s in &samples {
            h.record_micros(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as u128 * u128::from(p)).div_ceil(100)).max(1) as usize;
        let truth = sorted[rank - 1];

        let got = h.percentile_micros(p);
        prop_assert!(got >= truth, "percentile below the true observation: {got} < {truth}");
        prop_assert!(
            got <= 2 * truth.max(1),
            "percentile past its bucket's upper bound: {got} > 2*{truth}"
        );
    }

    /// Changing literals (numbers, strings), identifier case, or
    /// whitespace never changes the fingerprint; the normalized text is
    /// the fingerprint's preimage.
    #[test]
    fn fingerprint_is_stable_under_literal_changes(
        a in 0i64..1_000_000,
        b in 0i64..1_000_000,
        s in "[a-z]{0,12}",
    ) {
        let q1 = format!("SELECT v FROM runs WHERE id = {a} AND name = '{s}'");
        let q2 = format!("select  V  from RUNS where ID={b} and NAME = 'other'");
        let (h1, t1) = fingerprint(&q1);
        let (h2, t2) = fingerprint(&q2);
        prop_assert_eq!(h1, h2, "{} vs {}", t1, t2);
        prop_assert_eq!(t1, t2);

        // A structurally different statement does not collide here.
        let (h3, _) = fingerprint("SELECT v, id FROM runs WHERE id = 1");
        prop_assert_ne!(h1, h3);
    }
}
