//! End-to-end tests for the wire server: query roundtrips, per-session
//! `SET` isolation, the typed overload rejections, idle timeouts,
//! auto-`KILL` on client disconnect (through every spill path), seeded
//! network fault injection, slow-reader backpressure and graceful
//! drain. Everything a deployment would hit before lunch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb::engine::{fingerprint, Database, ExecContext, TableFunction, TvfCursor};
use seqdb::server::protocol::read_frame;
use seqdb::server::{Client, Server, ServerConfig};
use seqdb::sql::DatabaseSqlExt;
use seqdb::storage::{FaultClock, FaultPlan, PAGE_SIZE};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

mod common;
use common::fault_seed;

/// `NUMBERS(n)` emits 0..n — with a huge `n`, an effectively endless
/// stream for the disconnect-mid-statement tests.
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

/// `SLEEP(ms)` blocks for `ms` when opened, then emits one row: a
/// statement of known duration.
struct Sleep;

impl TableFunction for Sleep {
    fn name(&self) -> &str {
        "SLEEP"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::new("n", DataType::Int)]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        std::thread::sleep(Duration::from_millis(args[0].as_int()? as u64));
        Ok(Box::new(NumbersCursor { next: 0, limit: 1 }))
    }
}

/// `THREAD_NAME()` emits one row: the name of the thread that opened it.
struct ThreadName;

impl TableFunction for ThreadName {
    fn name(&self) -> &str {
        "THREAD_NAME"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::new("name", DataType::Text)]))
    }
    fn open(&self, _args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        let name = std::thread::current().name().unwrap_or("").to_string();
        Ok(Box::new(OneRow(Some(Row::new(vec![Value::text(name)])))))
    }
}

/// A cursor over one row, until `fill_row` takes it.
struct OneRow(Option<Row>);

impl TvfCursor for OneRow {
    fn move_next(&mut self) -> Result<bool> {
        Ok(self.0.is_some())
    }
    fn fill_row(&mut self) -> Result<Row> {
        Ok(self.0.take().expect("fill_row follows a true move_next"))
    }
}

/// 12k distinct ids: over the parallel threshold, and far more groups
/// than a tight budget holds resident, so tiny budgets must spill.
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

/// One counter or gauge, read over the wire the way an operator would.
fn perf_counter(c: &mut Client, name: &str) -> i64 {
    let r = c
        .query("SELECT counter_name, value FROM DM_OS_PERFORMANCE_COUNTERS()")
        .unwrap();
    let row = r.rows.iter().find(|row| row[0].as_text().unwrap() == name);
    row.unwrap_or_else(|| panic!("{name} counter missing"))[1]
        .as_int()
        .unwrap()
}

// ----------------------------------------------------------------------
// Roundtrips, DMVs over the wire, typed statement errors
// ----------------------------------------------------------------------

#[test]
fn wire_roundtrip_dmvs_and_typed_errors() {
    let db = setup_db();
    let server = start(&db, quick_cfg());
    let mut c = Client::connect(server.addr()).unwrap();

    // DML and a result set with every step typed end to end.
    let r = c.query("INSERT INTO t VALUES (90001, 1, 7)").unwrap();
    assert_eq!(r.affected, 1);
    let r = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_001));
    assert_eq!(r.schema.columns().len(), 1);

    // A result wider than one frame (ROWS_PER_FRAME = 512) arrives
    // complete and ordered.
    let r = c.query("SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(r.rows.len(), 12_001);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[12_000][0], Value::Int(90_001));

    // Parse errors come back typed; the connection survives them.
    let err = c.query("SELEKT garbage FROM nowhere").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "{err}");
    let err = c.query("SELECT nope FROM missing_table").unwrap_err();
    assert!(
        matches!(err, DbError::NotFound(_) | DbError::Schema(_)),
        "{err}"
    );
    assert!(c.query("SELECT COUNT(*) FROM t").is_ok());

    // DM_EXEC_CONNECTIONS sees this connection, executing, with a peer.
    let mut probe = Client::connect(server.addr()).unwrap();
    let r = probe
        .query("SELECT connection_id, peer_addr, session_id, state, idle_ms FROM DM_EXEC_CONNECTIONS()")
        .unwrap();
    assert_eq!(r.rows.len(), 2, "both live connections visible");
    let states: Vec<String> = r
        .rows
        .iter()
        .map(|row| row[3].as_text().unwrap().to_string())
        .collect();
    assert!(
        states.iter().any(|s| s == "executing"),
        "the probing connection itself is executing: {states:?}"
    );
    assert!(r
        .rows
        .iter()
        .all(|row| row[1].as_text().unwrap().contains("127.0.0.1")));

    // ...and the gauge agrees.
    assert_eq!(perf_counter(&mut probe, "active_connections"), 2);

    let report = server.drain().unwrap();
    assert_eq!(report.killed, 0);
    assert_eq!(db.connections().active_count(), 0);
}

/// A statement that outlives the watchdog's 10 ms wait must still be
/// answered as soon as it finishes: the liveness probe may not sleep the
/// read-poll timeout with the result already waiting. The poll interval
/// is raised well above scheduling noise so only a blocking probe can
/// cross the bound.
#[test]
fn finished_result_does_not_wait_for_the_liveness_poll() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Sleep));
    let poll_interval = Duration::from_millis(200);
    let server = start(
        &db,
        ServerConfig {
            poll_interval,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr()).unwrap();

    // The best of several trips, so a descheduled test thread cannot
    // fail it; a blocking probe delays every one of them by the whole
    // poll interval.
    let exec = Duration::from_millis(15);
    let best = (0..5)
        .map(|_| {
            let sent = Instant::now();
            let r = c.query("SELECT n FROM SLEEP(15)").unwrap();
            assert_eq!(r.rows.len(), 1);
            sent.elapsed()
        })
        .min()
        .unwrap();
    assert!(best >= exec, "{best:?}");
    assert!(
        best < exec + poll_interval / 2,
        "round trip {best:?} for a {exec:?} statement"
    );
    server.drain().unwrap();
}

/// A wire statement runs on a thread of its own, which its connection
/// joins before it answers (see `run_statement` in the server).
#[test]
fn a_wire_statement_runs_on_a_thread_of_its_own() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(ThreadName));
    let server = start(&db, quick_cfg());
    let mut c = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        let r = c.query("SELECT name FROM THREAD_NAME()").unwrap();
        let name = r.rows[0][0].as_text().unwrap().to_string();
        assert_eq!(name, "seqdb-stmt");
    }
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Per-connection SET state
// ----------------------------------------------------------------------

#[test]
fn set_state_is_per_connection() {
    let db = setup_db();
    let server = start(&db, quick_cfg());
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    a.query("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();

    // Behavioural proof: the same aggregate spills on `a`'s tight
    // budget and not on `b`'s unlimited one.
    db.temp().reset_counters();
    let rb = b.query("SELECT id, COUNT(*) FROM t GROUP BY id").unwrap();
    assert_eq!(rb.rows.len(), 12_000);
    assert_eq!(db.temp().spill_count(), 0, "unlimited session spilled");
    let ra = a.query("SELECT id, COUNT(*) FROM t GROUP BY id").unwrap();
    assert_eq!(ra.rows.len(), 12_000);
    assert!(db.temp().spill_count() > 0, "governed session must spill");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");

    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Typed overload rejection at the connection cap
// ----------------------------------------------------------------------

#[test]
fn connection_cap_rejects_typed_and_recovers() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            max_connections: 2,
            ..quick_cfg()
        },
    );

    let mut c1 = Client::connect(server.addr()).unwrap();
    let mut c2 = Client::connect(server.addr()).unwrap();
    // A completed query proves each connection is fully registered
    // (registration happens on the connection thread, not in accept).
    c1.query("SELECT COUNT(*) FROM t").unwrap();
    c2.query("SELECT COUNT(*) FROM t").unwrap();

    // The third connection gets a typed refusal, not a silent close.
    let mut c3 = Client::connect(server.addr()).unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let err = c3.query("SELECT COUNT(*) FROM t").unwrap_err();
    assert!(matches!(err, DbError::ServerBusy(_)), "{err}");

    // Freeing a slot lets a new connection in (the close is noticed at
    // the next poll, so retry briefly).
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c4 = Client::connect(server.addr()).unwrap();
        c4.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match c4.query("SELECT COUNT(*) FROM t") {
            Ok(r) => {
                assert_eq!(r.rows[0][0], Value::Int(12_000));
                break;
            }
            Err(DbError::ServerBusy(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    server.drain().unwrap();
}

/// Block until the server's refusal frame is buffered on `c`, then give
/// the close that follows it time to land as well.
fn wait_until_refused_and_closed(c: &Client) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 512];
    loop {
        let n = c.stream().peek(&mut buf).unwrap();
        if n >= 4 && n >= 4 + u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize {
            break;
        }
        assert!(Instant::now() < deadline, "no refusal frame arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
}

#[test]
fn refusal_on_an_already_closed_socket_stays_typed() {
    // By the time the client sends, the refused socket is closed: the
    // reset can fail the send between the frame's length prefix and its
    // payload. The refusal is still buffered, and it is the answer.
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            max_connections: 1,
            ..quick_cfg()
        },
    );
    let mut c1 = Client::connect(server.addr()).unwrap();
    c1.query("SELECT COUNT(*) FROM t").unwrap();
    for _ in 0..20 {
        let mut c = Client::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        wait_until_refused_and_closed(&c);
        let err = c.query("SELECT COUNT(*) FROM t").unwrap_err();
        assert!(matches!(err, DbError::ServerBusy(_)), "{err}");
    }
    drop(c1);
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Opt-in client retry absorbs busy refusals with backoff + reconnect
// ----------------------------------------------------------------------

#[test]
fn client_retry_absorbs_connection_cap_refusals() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            max_connections: 1,
            ..quick_cfg()
        },
    );

    let mut c1 = Client::connect(server.addr()).unwrap();
    c1.query("SELECT COUNT(*) FROM t").unwrap();

    // While c1 holds the only slot, a retrying client keeps backing off
    // and reconnecting; once the slot frees it gets through without
    // the caller ever seeing ServerBusy.
    let mut c2 = Client::connect(server.addr()).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c2.set_retry_attempts(30);
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        drop(c1);
    });
    let r = c2.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    assert!(
        c2.retries_performed() > 0,
        "query succeeded without any refusal to absorb"
    );
    release.join().unwrap();
    server.drain().unwrap();
}

#[test]
fn client_without_retry_still_sees_typed_busy() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            max_connections: 1,
            ..quick_cfg()
        },
    );
    let mut c1 = Client::connect(server.addr()).unwrap();
    c1.query("SELECT COUNT(*) FROM t").unwrap();

    let mut c2 = Client::connect(server.addr()).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let err = c2.query("SELECT COUNT(*) FROM t").unwrap_err();
    assert!(matches!(err, DbError::ServerBusy(_)), "{err}");
    assert_eq!(c2.retries_performed(), 0);
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// KILL of a nonexistent statement: typed error, connection survives
// ----------------------------------------------------------------------

#[test]
fn kill_of_missing_statement_is_typed_and_keeps_the_connection() {
    let db = setup_db();
    let server = start(&db, quick_cfg());
    let mut c = Client::connect(server.addr()).unwrap();

    let err = c.query("KILL 424242").unwrap_err();
    assert!(matches!(err, DbError::NoSuchStatement(424242)), "{err}");

    // The protocol error did not cost us the connection.
    let r = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Idle timeout: typed close after the deadline
// ----------------------------------------------------------------------

#[test]
fn idle_connection_is_closed_with_a_typed_timeout_frame() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..quick_cfg()
        },
    );
    let c = Client::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Without sending anything, the courtesy frame arrives after the
    // idle deadline, then EOF.
    let mut stream = c.stream();
    let payload = read_frame(&mut stream)
        .unwrap()
        .expect("typed frame before close");
    let err = seqdb::server::protocol::decode_error(&payload).unwrap();
    assert!(matches!(err, DbError::Timeout(_)), "{err}");
    assert_eq!(read_frame(&mut stream).unwrap(), None, "then clean EOF");

    // The reaped connection deregistered.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.connections().active_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.connections().active_count(), 0);
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Disconnect mid-statement: auto-KILL through every spill path
// ----------------------------------------------------------------------

/// Drop the client while its statement is actively spilling, then
/// assert from a *second connection* (per the DMV contract) that the
/// statement died, is on record as killed, and leaked nothing: zero
/// live temp files, zero admission bytes, pins back to baseline.
fn disconnect_during(sql: &str) {
    let db = setup_db();
    db.set_admission_pool_kb(Some(256));
    let pins_before = db.pool().pinned_frames();
    let server = start(&db, quick_cfg());

    let mut probe = Client::connect(server.addr()).unwrap();
    let mut victim = Client::connect(server.addr()).unwrap();
    victim.query("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();

    // Fire the statement from a thread; it will never finish on its
    // own, so the thread ends when the server kills it and closes. A
    // cloned handle stays behind so the main thread can sever the
    // socket while the query is in flight.
    let sock = victim.stream().try_clone().unwrap();
    let sql_owned = sql.to_string();
    let runner = std::thread::spawn(move || victim.query(&sql_owned));

    // Watch DM_EXEC_REQUESTS from the probe until the victim is
    // actually spilling — the disconnect must land mid-spill.
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim_sid = loop {
        assert!(Instant::now() < deadline, "victim never started spilling");
        let r = probe
            .query("SELECT session_id, wait_state FROM DM_EXEC_REQUESTS()")
            .unwrap();
        let spilling = r
            .rows
            .iter()
            .find(|row| row[1].as_text().unwrap() == "spilling");
        match spilling {
            Some(row) => break row[0].as_int().unwrap(),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };

    // Sever the client abruptly. The server's liveness poll sees EOF,
    // kills the session, and waits for the statement to unwind; the
    // runner's pending read then fails, never having seen a result.
    sock.shutdown(std::net::Shutdown::Both).unwrap();
    assert!(runner.join().unwrap().is_err(), "no result after the cut");

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "killed statement never drained");
        let r = probe
            .query("SELECT session_id FROM DM_EXEC_REQUESTS()")
            .unwrap();
        if !r.rows.iter().any(|row| row[0] == Value::Int(victim_sid)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let r = probe
        .query("SELECT query_text, killed FROM DM_DB_QUERY_STORE()")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == fingerprint(sql).1)
        .expect("killed statement missing from the query store");
    assert_eq!(row[1], Value::Int(1), "disposition killed");

    // Leak gauges, read over the wire from the second connection.
    let mut gauge = |name: &str| perf_counter(&mut probe, name);
    assert_eq!(gauge("tempspace_live_files"), 0, "leaked spill files");
    assert_eq!(gauge("admission_reserved_bytes"), 0, "leaked admission");
    assert_eq!(
        gauge("bufferpool_pinned_frames"),
        pins_before as i64,
        "leaked buffer pins"
    );

    // The victim's connection fully deregistered (probe remains).
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.connections().active_count() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.connections().active_count(), 1);
    server.drain().unwrap();
}

#[test]
fn disconnect_during_spilling_sort_leaks_nothing() {
    disconnect_during("SELECT n FROM t CROSS APPLY NUMBERS(1000000000) ORDER BY n DESC");
}

#[test]
fn disconnect_during_spilling_hash_aggregate_leaks_nothing() {
    disconnect_during("SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n");
}

#[test]
fn disconnect_during_spilling_grace_join_leaks_nothing() {
    disconnect_during("SELECT COUNT(*) FROM t a JOIN NUMBERS(1000000000) n ON (a.id = n.n)");
}

/// The source is materialized before the first row lands, so the target
/// can be the scanned table itself and stays untouched.
#[test]
fn disconnect_during_spilling_insert_select_leaks_nothing() {
    disconnect_during(
        "INSERT INTO t (id, grp) SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n",
    );
}

// ----------------------------------------------------------------------
// Seeded network faults
// ----------------------------------------------------------------------

#[test]
fn short_reads_partial_writes_and_stalls_never_corrupt_results() {
    let db = setup_db();
    let clock = FaultClock::new(FaultPlan {
        seed: fault_seed(),
        net_short_read_every: Some(3),
        net_partial_write_every: Some(2),
        net_stall_every: Some(7),
        net_stall_ms: 2,
        ..FaultPlan::none()
    });
    let server = start(
        &db,
        ServerConfig {
            fault: Some(clock),
            ..quick_cfg()
        },
    );
    let mut c = Client::connect(server.addr()).unwrap();

    // Dozens of statements over a stream whose reads and writes are
    // constantly chopped up and delayed: framing must hold exactly.
    for i in 0..20 {
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(12_000), "iteration {i}");
        let r = c.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows.len(), 12_000, "iteration {i}");
        assert_eq!(r.rows[7][0], Value::Int(7), "iteration {i}");
    }
    let report = server.drain().unwrap();
    assert_eq!(report.killed, 0);
}

#[test]
fn abrupt_reset_mid_statement_kills_it_and_the_server_survives() {
    let db = setup_db();
    db.set_admission_pool_kb(Some(256));
    let pins_before = db.pool().pinned_frames();
    // Exactly two network ops — the request header and payload reads —
    // then the reset point is behind us: the server must treat the
    // connection as doomed *while the statement runs* and kill it.
    let clock = FaultClock::new(FaultPlan {
        seed: fault_seed(),
        net_reset_after_ops: Some(2),
        ..FaultPlan::none()
    });
    let server = start(
        &db,
        ServerConfig {
            fault: Some(clock.clone()),
            ..quick_cfg()
        },
    );

    let mut c = Client::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let start_t = Instant::now();
    let err = c
        .query("SELECT n, COUNT(*) FROM NUMBERS(1000000000) GROUP BY n")
        .unwrap_err();
    // The server kills the statement and closes without a response —
    // from the client that is a transport failure, not a typed error.
    assert!(
        matches!(err, DbError::Io(_) | DbError::Protocol(_)),
        "{err}"
    );
    assert!(
        start_t.elapsed() < Duration::from_secs(20),
        "doomed statement not killed promptly: {:?}",
        start_t.elapsed()
    );
    assert!(
        clock.net_reset_pending(),
        "the reset point must have passed"
    );

    // Nothing leaked, and the server still serves fresh connections
    // (the fault schedule is spent, so this one runs clean).
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.statements().running_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.statements().running_count(), 0);
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.admission().reserved(), 0, "leaked admission bytes");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Slow-reader backpressure
// ----------------------------------------------------------------------

#[test]
fn slow_reader_hits_the_write_timeout_not_unbounded_buffering() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            write_timeout: Duration::from_millis(300),
            ..quick_cfg()
        },
    );

    // Ask for ~45 MB of rows and never read a byte: once the socket
    // buffers fill, the server's write must time out and the
    // connection must be dropped — memory stays bounded by the socket
    // buffer, not the result size.
    let c = Client::connect(server.addr()).unwrap();
    use seqdb::server::protocol::{encode_query, write_frame};
    let mut w = c.stream();
    write_frame(&mut w, &encode_query("SELECT n FROM NUMBERS(4000000)")).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while db.connections().active_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        db.connections().active_count(),
        0,
        "wedged reader never reaped"
    );
    drop(c);

    // The statement itself completed before the write stalled; nothing
    // leaked and new clients are served.
    assert_eq!(db.temp().live_files().unwrap(), 0);
    let mut c2 = Client::connect(server.addr()).unwrap();
    let r = c2.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    server.drain().unwrap();
}

// ----------------------------------------------------------------------
// Graceful drain under load
// ----------------------------------------------------------------------

#[test]
fn drain_finishes_short_statements_kills_stragglers_and_checkpoints() {
    let db = setup_db();
    let server = start(
        &db,
        ServerConfig {
            drain_deadline: Duration::from_secs(1),
            ..quick_cfg()
        },
    );
    let addr = server.addr();

    // Background load: three clients looping short statements...
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut loopers = Vec::new();
    for _ in 0..3 {
        let stop = stop.clone();
        loopers.push(std::thread::spawn(move || {
            let Ok(mut c) = Client::connect(addr) else {
                return 0usize;
            };
            let _ = c.set_read_timeout(Some(Duration::from_secs(10)));
            let mut done = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match c.query("SELECT COUNT(*) FROM t") {
                    Ok(_) => done += 1,
                    Err(_) => break, // drain refusal or close: expected
                }
            }
            done
        }));
    }
    // ...plus one statement that cannot finish inside the deadline.
    let straggler = std::thread::spawn(move || {
        let Ok(mut c) = Client::connect(addr) else {
            return None;
        };
        let _ = c.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = c.query("SET QUERY_MEMORY_LIMIT_KB = 8");
        Some(c.query("SELECT n, COUNT(*) FROM t CROSS APPLY NUMBERS(1000000000) GROUP BY n"))
    });

    // Let the load get going, with the straggler definitely in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.statements().running_count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));

    let report = server.drain().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    assert!(report.killed >= 1, "the endless statement had to be killed");
    assert!(
        report.elapsed < Duration::from_secs(8),
        "drain blew through its deadline: {:?}",
        report.elapsed
    );

    // The straggler observed a kill or a close, not a result.
    match straggler.join().unwrap() {
        Some(Ok(_)) => panic!("endless statement cannot have finished"),
        Some(Err(e)) => assert!(
            matches!(
                e,
                DbError::Cancelled(_)
                    | DbError::Io(_)
                    | DbError::Protocol(_)
                    | DbError::ServerDraining(_)
            ),
            "{e}"
        ),
        None => {} // never connected: acceptable under races
    }
    for l in loopers {
        let _ = l.join();
    }

    // Post-drain invariants: empty engine, no leaks, no listener.
    assert_eq!(db.statements().running_count(), 0);
    assert_eq!(db.connections().active_count(), 0);
    assert_eq!(db.temp().live_files().unwrap(), 0);
    assert_eq!(db.admission().reserved(), 0);
    assert!(
        Client::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be gone after drain"
    );
}

// ----------------------------------------------------------------------
// Queued admission over the wire
// ----------------------------------------------------------------------

#[test]
fn queued_admission_holds_a_wire_statement_then_runs_it() {
    let db = setup_db();
    // Pool fits exactly one 64 KiB statement; excess statements queue.
    db.set_admission_pool_kb(Some(64));
    db.set_admission_wait_ms(20_000);
    db.set_admission_queue_slots(4);
    let server = start(&db, quick_cfg());
    let addr = server.addr();

    // A direct engine session holds the whole pool...
    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(64));
    let guard = holder.begin_statement("hold the pool").unwrap();
    assert_eq!(db.admission().reserved(), 64 * 1024);

    // ...so the wire statement queues at the gate instead of failing.
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        c.query("SET QUERY_MEMORY_LIMIT_KB = 64").unwrap();
        c.query("SELECT id, COUNT(*) FROM t GROUP BY id")
    });

    // The waiter shows up in the queue-depth gauge and as `queued` in
    // DM_EXEC_REQUESTS while it blocks.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "statement never queued");
        if db.admission().queue_depth() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued_visible = db
        .statements()
        .snapshot()
        .iter()
        .any(|s| s.wait_state() == "queued");
    assert!(queued_visible, "queued statement missing from DMV");

    // Releasing the pool admits the waiter; it completes exactly.
    drop(guard);
    let r = queued.join().unwrap().expect("queued statement must run");
    assert_eq!(r.rows.len(), 12_000);
    assert_eq!(db.admission().queue_depth(), 0);
    server.drain().unwrap();
}

/// A wire client that vanishes while its statement waits at the
/// admission gate: the statement's own liveness check, run from the
/// gate's wait, evicts it while the pool is still held. It leaves the
/// registry and the queue, is not recorded as run, and leaks nothing.
#[test]
fn a_client_that_vanishes_while_queued_at_the_gate_is_evicted() {
    const SQL: &str = "SELECT id, COUNT(*) FROM t GROUP BY id";
    let db = setup_db();
    db.set_admission_pool_kb(Some(64));
    db.set_admission_wait_ms(60_000);
    db.set_admission_queue_slots(4);
    let pins_before = db.pool().pinned_frames();
    let server = start(&db, quick_cfg());

    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(64));
    let guard = holder.begin_statement("hold the pool").unwrap();

    let mut victim = Client::connect(server.addr()).unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    victim.query("SET QUERY_MEMORY_LIMIT_KB = 64").unwrap();
    let sock = victim.stream().try_clone().unwrap();
    let runner = std::thread::spawn(move || victim.query(SQL));

    let deadline = Instant::now() + Duration::from_secs(10);
    let queued = loop {
        assert!(Instant::now() < deadline, "statement never queued");
        let queued = db.statements().snapshot().into_iter().find(|s| s.queued);
        if let (Some(s), 1) = (queued, db.admission().queue_depth()) {
            break s.statement_id;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    sock.shutdown(std::net::Shutdown::Both).unwrap();
    assert!(runner.join().unwrap().is_err(), "no result after the cut");

    // All of this while the holder still holds the whole pool.
    let deadline = Instant::now() + Duration::from_secs(10);
    while db
        .statements()
        .snapshot()
        .iter()
        .any(|s| s.statement_id == queued)
    {
        assert!(Instant::now() < deadline, "queued statement never left");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.admission().queue_depth(), 0);
    assert_eq!(db.admission().reserved(), 64 * 1024, "only the holder's");
    let ran = db
        .query_store()
        .snapshot()
        .into_iter()
        .any(|e| e.text == fingerprint(SQL).1);
    assert!(!ran, "an evicted statement never ran");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");

    drop(guard);
    assert_eq!(db.admission().reserved(), 0, "leaked admission");
    server.drain().unwrap();
}

/// 32 connections of mixed traffic against a pool four governed
/// statements fill, with a deep queue behind it: bursts wait their turn
/// instead of failing, the only errors a client ever sees are the typed
/// ones it asked for, and nothing is left reserved, pinned or spilled.
#[test]
fn many_mixed_clients_see_only_typed_errors_and_drain_clean() {
    const CLIENTS: usize = 32;
    const STATEMENTS: usize = 6;
    const HEAVY: &str = "SELECT id, COUNT(*) FROM t GROUP BY id";
    const INSERT: &str = "INSERT INTO t VALUES (99999, 0, 1)";
    const KILL: &str = "KILL 987654321";
    const COUNT: &str = "SELECT COUNT(*) FROM t";

    let db = setup_db();
    db.set_admission_pool_kb(Some(256));
    db.set_admission_wait_ms(60_000);
    db.set_admission_queue_slots(64);
    let pins_before = db.pool().pinned_frames();
    let server = start(&db, quick_cfg());
    let addr = server.addr();

    // A direct engine session holds the whole pool until the queue has
    // been seen over the wire, so every governed statement must queue
    // first — no sleep decides whether contention happened.
    let holder = db.create_session();
    holder.set_query_memory_limit_kb(Some(256));
    let guard = holder.begin_statement("hold the pool").unwrap();

    // One client in four is heavy (a governed, spilling aggregate that
    // reserves a quarter of the pool); the rest cycle ungoverned counts,
    // single-row inserts and KILLs of a statement that does not exist.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|who| {
            std::thread::spawn(move || -> std::result::Result<(), String> {
                let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                c.set_read_timeout(Some(Duration::from_secs(120)))
                    .map_err(|e| e.to_string())?;
                let heavy = who % 4 == 0;
                if heavy {
                    c.query("SET QUERY_MEMORY_LIMIT_KB = 64")
                        .map_err(|e| format!("client {who} SET: {e}"))?;
                }
                for i in 0..STATEMENTS {
                    let sql = match (heavy, i % 3) {
                        (true, _) => HEAVY,
                        (false, 1) => INSERT,
                        (false, 2) => KILL,
                        (false, _) => COUNT,
                    };
                    match (c.query(sql), sql == KILL) {
                        (Ok(_), false) | (Err(DbError::NoSuchStatement(_)), true) => {}
                        (Ok(_), true) => return Err(format!("client {who}: bogus KILL succeeded")),
                        (Err(e), _) => return Err(format!("client {who} `{sql}`: {e}")),
                    }
                }
                Ok(())
            })
        })
        .collect();

    // The operator's view, over a connection of its own.
    let mut probe = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while perf_counter(&mut probe, "admission_queue_depth") == 0 {
        assert!(Instant::now() < deadline, "no statement ever queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(guard);

    for c in clients {
        c.join().unwrap().unwrap();
    }
    // Every insert landed exactly once: light clients send one per
    // three statements.
    let inserts = (CLIENTS - CLIENTS / 4) * (STATEMENTS / 3);
    let r = probe.query(COUNT).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000 + inserts as i64));

    server.drain().unwrap();
    assert_eq!(db.statements().running_count(), 0);
    assert_eq!(db.admission().queue_depth(), 0);
    assert_eq!(db.admission().reserved(), 0, "leaked admission");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked buffer pins");
}

// ----------------------------------------------------------------------
// Periodic background scrub thread
// ----------------------------------------------------------------------

/// With `scrub_interval` set, the server's `seqdb-scrub` thread finds
/// and repairs planted corruption without any `CHECK` being issued,
/// and the drain joins the thread cleanly.
#[test]
fn periodic_scrub_thread_repairs_rot_in_the_background() {
    let db = setup_db();
    db.checkpoint().unwrap();
    // Corrupt one heap page at rest while the good frame stays cached.
    let t = db.catalog().table("t").unwrap();
    let victim = t.heap.pages_snapshot()[0];
    let store = db.pool().store().clone();
    let mut buf = vec![0u8; PAGE_SIZE];
    store.read_page(victim, &mut buf).unwrap();
    buf[100] ^= 0x40;
    store.write_page(victim, &buf).unwrap();

    let server = start(
        &db,
        ServerConfig {
            poll_interval: Duration::from_millis(5),
            scrub_interval: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.scrub_state().status().pages_repaired == 0 {
        assert!(
            Instant::now() < deadline,
            "background scrub never repaired the page"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c = Client::connect(server.addr()).unwrap();
    let r = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
    assert!(db.quarantine().is_empty(), "nothing should be fenced");
    server.drain().unwrap();
}
