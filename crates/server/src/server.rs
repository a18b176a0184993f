//! The wire server: listener, per-connection threads, graceful drain.
//!
//! Thread-per-connection over `std::net::TcpStream` — no async runtime,
//! matching the rest of the workspace. Robustness is structural:
//!
//! * **Bounded connections.** An accept past `max_connections` gets a
//!   typed [`DbError::ServerBusy`] error frame and a close, before any
//!   session state is created.
//! * **Timeouts everywhere.** Socket reads poll on a short timeout (so
//!   idle connections notice drain and their idle deadline), and writes
//!   carry `write_timeout` — a reader that stops draining its response
//!   stalls into a typed close instead of growing a server-side buffer.
//! * **Disconnect mid-statement = KILL.** Statements run on a worker
//!   thread while the connection thread watches the socket; EOF or a
//!   reset cancels every statement of that session via
//!   [`StatementRegistry::kill_session`], then *waits for the worker to
//!   unwind* so pins, temp files and the admission reservation are all
//!   released before the connection deregisters.
//! * **Graceful drain.** [`Server::drain`] stops accepting, gives
//!   in-flight statements until the deadline, `KILL`s stragglers, joins
//!   every connection thread and finishes with a `CHECKPOINT`.
//!
//! With a [`FaultClock`] in the config every accepted stream is wrapped
//! in [`FaultInjectingStream`], so short reads, partial writes, stalls
//! and abrupt resets hit the connection lifecycle at seeded,
//! reproducible points — the same discipline the WAL sync faults use.
//!
//! [`StatementRegistry::kill_session`]: seqdb_engine::StatementRegistry::kill_session

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seqdb_engine::{ConnState, Database, Session, TraceClass};
use seqdb_sql::SessionSqlExt;
use seqdb_storage::{FaultClock, FaultInjectingStream};
use seqdb_types::{DbError, Result};

use crate::protocol::{
    decode_query, encode_error, write_frame, write_result, MAX_FRAME, REQ_QUERY,
};

/// Server tunables. The defaults suit tests; `report server` raises the
/// connection bound into the hundreds.
#[derive(Clone)]
pub struct ServerConfig {
    /// Hard cap on concurrent connections; the next accept is rejected
    /// with a typed [`DbError::ServerBusy`] frame.
    pub max_connections: usize,
    /// How often blocked socket reads wake to check the idle deadline
    /// and the drain flag.
    pub poll_interval: Duration,
    /// A connection with no complete request for this long is closed.
    pub idle_timeout: Duration,
    /// Per-write socket timeout: the slow-reader backpressure bound.
    pub write_timeout: Duration,
    /// How long [`Server::drain`] lets in-flight statements finish
    /// before `KILL`ing them.
    pub drain_deadline: Duration,
    /// Wrap every accepted stream in a [`FaultInjectingStream`] driven
    /// by this clock (tests only; `None` in production).
    pub fault: Option<Arc<FaultClock>>,
    /// Run `CHECK DATABASE REPAIR` on a background thread this often;
    /// `None` (the default) disables the periodic scrub. The thread
    /// stops cleanly at drain.
    pub scrub_interval: Option<Duration>,
    /// Take an online backup on a background thread this often; `None`
    /// (the default) disables periodic backups. Requires `backup_dir`.
    /// The thread stops cleanly at drain.
    pub backup_interval: Option<Duration>,
    /// Where the periodic backup thread writes its sets: numbered
    /// subdirectories (`1`, `2`, ...), the first full, every later one
    /// incremental from its predecessor.
    pub backup_dir: Option<std::path::PathBuf>,
    /// Append every trace event the mask lets through as one JSON line
    /// per event. `None` (the default) keeps tracing in-memory only.
    pub trace_file: Option<std::path::PathBuf>,
    /// Append `slow_statement` events (see `SET SLOW_QUERY_MS`) here as
    /// JSONL, independent of the trace mask.
    pub slow_log_file: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// Whether trace events go to a JSONL file (and so need the tracer's
    /// sink attached and flushed).
    fn traces_to_file(&self) -> bool {
        self.trace_file.is_some() || self.slow_log_file.is_some()
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            poll_interval: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            fault: None,
            scrub_interval: None,
            backup_interval: None,
            backup_dir: None,
            trace_file: None,
            slow_log_file: None,
        }
    }
}

/// What [`Server::drain`] did.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Statements that were in flight when drain began and finished on
    /// their own within the deadline.
    pub finished: usize,
    /// Statements still running at the deadline that were killed.
    pub killed: usize,
    /// Total drain wall time, including the final checkpoint.
    pub elapsed: Duration,
}

struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    draining: AtomicBool,
    /// Statements completed over the server's lifetime (throughput
    /// numerator for `report server`).
    statements_done: AtomicUsize,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running wire server. Bind with [`Server::start`], stop with
/// [`Server::drain`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// The accept thread, then the periodic ones; all exit on the drain
    /// flag and `drain()` joins them in this order.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and start accepting connections.
    pub fn start(db: Arc<Database>, addr: &str, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            cfg,
            draining: AtomicBool::new(false),
            statements_done: AtomicUsize::new(0),
            conn_threads: Mutex::new(Vec::new()),
        });
        let s2 = shared.clone();
        let mut threads = vec![std::thread::Builder::new()
            .name("seqdb-accept".into())
            .spawn(move || accept_loop(listener, s2))
            .map_err(DbError::io)?];
        // The periodic integrity scrub: a full `CHECK DATABASE REPAIR`
        // pass. Scrub failures (e.g. an I/O error on a dying disk) are
        // recorded in the scrub counters by the engine; the next pass
        // retries.
        if let Some(interval) = shared.cfg.scrub_interval {
            let db = shared.db.clone();
            threads.push(spawn_periodic(
                &shared,
                "seqdb-scrub",
                interval,
                move |draining| {
                    if !draining {
                        let _ = db.check_database(true);
                    }
                },
            )?);
        }
        // The periodic online backup: a new set under `dir` — `dir/1`
        // full, then `dir/N` incremental from `dir/N-1`. A failed pass
        // (disk full, crash-injected clock) is recorded in
        // `DM_DB_BACKUP_STATUS()`'s `last_outcome` by the engine and the
        // next pass retries into the same slot.
        if let (Some(interval), Some(dir)) = (shared.cfg.backup_interval, &shared.cfg.backup_dir) {
            let (db, dir) = (shared.db.clone(), dir.clone());
            let mut seq: u64 = 1;
            threads.push(spawn_periodic(
                &shared,
                "seqdb-backup",
                interval,
                move |draining| {
                    if draining {
                        return;
                    }
                    let dest = dir.join(seq.to_string());
                    let base = (seq > 1).then(|| dir.join((seq - 1).to_string()));
                    if db.backup_database(&dest, base.as_deref()).is_ok() {
                        seq += 1;
                    } else {
                        // Leave nothing half-written in the slot we will retry.
                        let _ = std::fs::remove_dir_all(&dest);
                    }
                },
            )?);
        }
        // With a trace or slow-log file configured, events flow through
        // the tracer's sink buffer to disk on a dedicated flusher thread
        // so no statement ever blocks on file I/O. Its last tick, the one
        // that sees the drain flag, still flushes.
        if shared.cfg.traces_to_file() {
            seqdb_engine::tracer().attach_sink(true);
            let s = shared.clone();
            threads.push(spawn_periodic(
                &shared,
                "seqdb-trace",
                Duration::from_millis(50),
                move |_draining| flush_trace_sink(&s.cfg),
            )?);
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Statements completed since startup.
    pub fn statements_done(&self) -> usize {
        self.shared.statements_done.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let in-flight statements
    /// finish until the configured deadline, `KILL` the stragglers,
    /// join every connection thread and `CHECKPOINT`.
    pub fn drain(mut self) -> Result<DrainReport> {
        let started = Instant::now();
        seqdb_engine::trace::emit(TraceClass::Connection, "drain_begin", 0, 0, || {
            format!("in_flight={}", self.shared.db.statements().running_count())
        });
        self.shared.draining.store(true, Ordering::SeqCst);
        // Every periodic thread polls the drain flag between ticks and
        // exits at its next wakeup; a scrub or backup pass in flight
        // finishes first (both are short and rate-limited).
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let deadline = started + self.shared.cfg.drain_deadline;
        let in_flight_at_start = self.shared.db.statements().running_count();
        // Phase 1: wait for in-flight statements to finish on their own.
        while self.shared.db.statements().running_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Phase 2: KILL whatever is still running, per owning session.
        let mut killed = 0;
        for conn in self.shared.db.connections().snapshot() {
            killed += self.shared.db.statements().kill_session(conn.session_id);
        }
        // Phase 3: connection threads all observe the drain flag (idle
        // ones at the next poll, executing ones when their statement
        // unwinds) and exit; joining them completes session cleanup.
        let threads: Vec<_> = self.shared.conn_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        self.shared.db.checkpoint()?;
        let report = DrainReport {
            finished: in_flight_at_start.saturating_sub(killed),
            killed,
            elapsed: started.elapsed(),
        };
        seqdb_engine::trace::emit(TraceClass::Connection, "drain_end", 0, 0, || {
            format!(
                "finished={} killed={} elapsed_ms={}",
                report.finished,
                report.killed,
                report.elapsed.as_millis()
            )
        });
        // The flusher exited on the drain flag; one last synchronous
        // flush catches everything emitted during the drain itself
        // (kills, statement_finish, drain_end) before the sink detaches
        // (detaching discards whatever is still buffered).
        if self.shared.cfg.traces_to_file() {
            flush_trace_sink(&self.shared.cfg);
            seqdb_engine::tracer().attach_sink(false);
        }
        Ok(report)
    }
}

/// Run `tick` on a named thread every `interval` until the server
/// drains. The thread sleeps in `poll_interval` steps so the drain flag
/// is noticed promptly; the tick that notices it is passed `true`, runs
/// whether or not it is due, and is the last. A tick must not take the
/// thread down: it swallows its own errors and the next one retries.
fn spawn_periodic(
    shared: &Arc<Shared>,
    name: &str,
    interval: Duration,
    mut tick: impl FnMut(bool) + Send + 'static,
) -> Result<JoinHandle<()>> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut next_tick = Instant::now() + interval;
            loop {
                let draining = shared.draining.load(Ordering::SeqCst);
                if draining || Instant::now() >= next_tick {
                    tick(draining);
                    next_tick = Instant::now() + interval;
                }
                if draining {
                    return;
                }
                std::thread::sleep(shared.cfg.poll_interval.min(interval));
            }
        })
        .map_err(DbError::io)
}

/// One flush pass: take whatever the sink holds and append it as JSON
/// lines. `slow_statement` events are additionally copied to the slow
/// log so an operator can tail just the offenders.
fn flush_trace_sink(cfg: &ServerConfig) {
    let tracer = seqdb_engine::tracer();
    let events = tracer.drain_sink();
    if events.is_empty() {
        return;
    }
    let append = |path: &std::path::PathBuf| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()
    };
    let mut trace_out = cfg.trace_file.as_ref().and_then(append);
    let mut slow_out = cfg.slow_log_file.as_ref().and_then(append);
    let start = tracer.start_unix_ms();
    for ev in &events {
        let line = ev.to_json(start);
        if let Some(f) = trace_out.as_mut() {
            let _ = writeln!(f, "{line}");
        }
        if ev.name == "slow_statement" {
            if let Some(f) = slow_out.as_mut() {
                let _ = writeln!(f, "{line}");
            }
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => handle_accept(stream, peer, &shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Transient accept errors (e.g. the peer reset between
            // SYN and accept) must not take the listener down.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Refuse (typed error frame, then close) or hand off to a connection
/// thread.
fn handle_accept(stream: TcpStream, peer: SocketAddr, shared: &Arc<Shared>) {
    let refusal = if shared.draining.load(Ordering::SeqCst) {
        Some(DbError::ServerDraining(
            "server is draining; retry later".into(),
        ))
    } else if shared.db.connections().active_count() >= shared.cfg.max_connections {
        Some(DbError::ServerBusy(format!(
            "connection limit of {} reached",
            shared.cfg.max_connections
        )))
    } else {
        None
    };
    if let Some(err) = refusal {
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
        let _ = write_frame(&mut stream, &encode_error(&err));
        return; // dropped: closed without ever registering
    }
    let shared2 = shared.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("seqdb-conn-{peer}"))
        .spawn(move || {
            connection_main(stream, peer, shared2);
        });
    if let Ok(handle) = spawned {
        shared.conn_threads.lock().push(handle);
    }
}

/// Everything one connection does, from register to cleanup. Any error
/// path just returns: the `ConnectionHandle` drop deregisters, and the
/// `Session`/statement guards have already released engine resources.
fn connection_main(stream: TcpStream, peer: SocketAddr, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // `ctrl` shares the socket: used for liveness polling while a
    // statement runs and for socket timeouts (SO_RCVTIMEO/SO_SNDTIMEO
    // apply to every clone). The fault wrapper sits only on the framed
    // data path, so injected faults never corrupt the liveness poll.
    let Ok(ctrl) = stream.try_clone() else { return };
    let mut io: Box<dyn ReadWriteSend> = match &shared.cfg.fault {
        Some(clock) => Box::new(FaultInjectingStream::new(stream, clock.clone())),
        None => Box::new(stream),
    };
    let session = Arc::new(shared.db.create_session());
    let conn = shared
        .db
        .connections()
        .register(&peer.to_string(), session.id());
    let _ = ctrl.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = ctrl.set_read_timeout(Some(shared.cfg.poll_interval));

    let mut last_request = Instant::now();
    loop {
        conn.set_state(if shared.draining.load(Ordering::SeqCst) {
            ConnState::Draining
        } else {
            ConnState::Idle
        });
        // Wait for the next request frame, waking every poll_interval
        // (the socket read timeout) to check the idle deadline and the
        // drain flag.
        let payload = match next_request(io.as_mut(), &shared, last_request) {
            NextRequest::Frame(p) => p,
            NextRequest::Closed => return,
            NextRequest::Abort(e) => {
                // Courtesy frame so a blocked client learns why, then
                // close. Best-effort: the peer may already be gone.
                let _ = write_frame(&mut *io, &encode_error(&e));
                return;
            }
        };
        last_request = Instant::now();
        conn.touch();

        // Decode; a malformed request is a typed reply, not a close —
        // unless framing itself is broken, which read_frame caught.
        let sql = match payload.first() {
            Some(&REQ_QUERY) => match decode_query(&payload) {
                Ok(sql) => sql,
                Err(e) => {
                    if write_frame(&mut *io, &encode_error(&e)).is_err() {
                        return;
                    }
                    continue;
                }
            },
            _ => {
                // Unknown request tag: protocol violation, close after
                // telling the client why.
                let e = DbError::Protocol(format!(
                    "unknown request tag {:#04x}",
                    payload.first().copied().unwrap_or(0)
                ));
                let _ = write_frame(&mut *io, &encode_error(&e));
                return;
            }
        };

        if shared.draining.load(Ordering::SeqCst) {
            let e = DbError::ServerDraining("server is draining; statement rejected".into());
            let _ = write_frame(&mut *io, &encode_error(&e));
            return;
        }

        conn.set_state(ConnState::Executing);
        let result = execute_watched(&session, &sql, &ctrl, &shared);
        let Some(result) = result else {
            // Client vanished mid-statement; the statement was killed
            // and fully unwound. Nothing to write to.
            return;
        };
        shared.statements_done.fetch_add(1, Ordering::Relaxed);
        conn.touch();
        let written = match &result {
            Ok(res) => write_result(&mut *io, res),
            Err(e) => write_frame(&mut *io, &encode_error(e)),
        };
        if written.is_err() {
            // Write timeout or reset: the reader is gone or wedged.
            // The statement already finished, so no kill is needed.
            return;
        }
    }
}

/// Run one statement on a worker thread while watching the socket for a
/// client disconnect. Returns `None` if the client vanished (statement
/// killed and unwound); `Some(result)` otherwise.
fn execute_watched(
    session: &Arc<Session>,
    sql: &str,
    ctrl: &TcpStream,
    shared: &Arc<Shared>,
) -> Option<Result<seqdb_engine::QueryResult>> {
    let (tx, rx) = mpsc::channel();
    let worker_session = session.clone();
    let worker_sql = sql.to_string();
    let spawned = std::thread::Builder::new()
        .name("seqdb-stmt".into())
        .spawn(move || {
            let _ = tx.send(worker_session.execute_sql(&worker_sql));
        });
    let worker = match spawned {
        Ok(w) => w,
        Err(e) => return Some(Err(DbError::io(e))),
    };
    // A fault schedule whose reset point has passed means the simulated
    // peer is gone even though the real test socket is still open.
    let doomed = || {
        shared
            .cfg
            .fault
            .as_ref()
            .is_some_and(|c| c.net_reset_pending())
    };
    let mut peer_gone = false;
    let result = loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(res) => break res,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !peer_gone && (doomed() || !peer_alive(ctrl)) {
                    peer_gone = true;
                    // The client is gone: cancel everything this
                    // session has in flight, then keep waiting for the
                    // worker so cleanup (pins, temp files, admission
                    // budget) completes before the connection closes.
                    shared.db.statements().kill_session(session.id());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(DbError::Execution(
                    "statement worker vanished without a result".into(),
                ));
            }
        }
    };
    let _ = worker.join();
    if peer_gone {
        None
    } else {
        Some(result)
    }
}

/// Is the peer still there? `peek` returns 0 on EOF, an error on reset,
/// and `WouldBlock` when the peer is alive but quiet. Pipelined bytes
/// stay in the socket buffer. The socket is non-blocking for the probe
/// only — a blocking `peek` would sleep the whole read-poll timeout
/// (SO_RCVTIMEO) while the statement's finished result waits in the
/// channel. Flipping the shared socket is safe because the connection
/// thread, the only reader, is the caller.
fn peer_alive(ctrl: &TcpStream) -> bool {
    if ctrl.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let alive = match ctrl.peek(&mut probe) {
        Ok(0) => false,
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::WouldBlock,
    };
    // A socket that cannot go back to blocking is unusable for the
    // framed reads that follow: treat it as gone.
    ctrl.set_nonblocking(false).is_ok() && alive
}

enum NextRequest {
    /// A complete request frame payload.
    Frame(Vec<u8>),
    /// The connection is over (clean EOF, reset, framing violation, or
    /// drain noticed while idle); close silently.
    Closed,
    /// Tell the client why (error frame), then close.
    Abort(DbError),
}

/// Read one request frame, waking on every socket read timeout (the
/// configured poll interval) to check the drain flag and the idle
/// deadline. Partial frames survive timeouts — a slow-trickling client
/// keeps its bytes — but the idle deadline bounds the total wait, so a
/// wedged or malicious half-frame cannot pin the connection forever.
fn next_request(io: &mut dyn ReadWriteSend, shared: &Shared, last_request: Instant) -> NextRequest {
    let mut header = [0u8; 4];
    match fill_polled(io, &mut header, shared, last_request) {
        Fill::Done => {}
        Fill::Eof(0) => return NextRequest::Closed, // boundary EOF
        Fill::Eof(_) | Fill::Broken => return NextRequest::Closed,
        Fill::Drain => return NextRequest::Closed,
        Fill::IdleDeadline => {
            return NextRequest::Abort(DbError::Timeout(format!(
                "connection idle past {}ms; closing",
                shared.cfg.idle_timeout.as_millis()
            )))
        }
    }
    let n = u32::from_le_bytes(header) as usize;
    if n > MAX_FRAME {
        return NextRequest::Abort(DbError::Protocol(format!(
            "incoming frame claims {n} bytes; cap is {MAX_FRAME}"
        )));
    }
    if n == 0 {
        return NextRequest::Abort(DbError::Protocol("empty frame (no tag byte)".into()));
    }
    let mut payload = vec![0u8; n];
    match fill_polled(io, &mut payload, shared, last_request) {
        Fill::Done => NextRequest::Frame(payload),
        Fill::Eof(_) | Fill::Broken | Fill::Drain | Fill::IdleDeadline => NextRequest::Closed,
    }
}

enum Fill {
    Done,
    /// EOF after this many bytes of the buffer.
    Eof(usize),
    /// Reset or unexpected socket error.
    Broken,
    /// The server started draining while we waited.
    Drain,
    /// The connection's idle deadline passed with no complete frame.
    IdleDeadline,
}

fn fill_polled(
    io: &mut dyn ReadWriteSend,
    buf: &mut [u8],
    shared: &Shared,
    last_request: Instant,
) -> Fill {
    let mut filled = 0;
    while filled < buf.len() {
        match io.read(&mut buf[filled..]) {
            Ok(0) => return Fill::Eof(filled),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return Fill::Drain;
                }
                if last_request.elapsed() >= shared.cfg.idle_timeout {
                    return Fill::IdleDeadline;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Broken,
        }
    }
    Fill::Done
}

trait ReadWriteSend: Read + Write + Send {}
impl<T: Read + Write + Send> ReadWriteSend for T {}
