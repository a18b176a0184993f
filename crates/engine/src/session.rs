//! Sessions, the running-statement registry, and admission control.
//!
//! The paper's multi-hour in-database analyses are operable on SQL Server
//! because the server wraps them in *sessions*: per-connection `SET`
//! options, DMVs (`sys.dm_exec_requests`) listing what is running, `KILL`
//! to stop a runaway statement, and Resource Governor workload gates that
//! queue work instead of oversubscribing memory. This module is seqdb's
//! equivalent:
//!
//! * [`Session`] — per-connection settings overlay over the
//!   [`Database`]-level defaults (`SET QUERY_TIMEOUT_MS /
//!   QUERY_MEMORY_LIMIT_KB / MAX_DOP / JOIN_STRATEGY / BATCH_SIZE` scope
//!   to one session), and the only place a statement starts:
//!   [`Session::begin_statement`];
//! * [`StatementRegistry`] — every statement begun is registered (session
//!   id, statement id, SQL text, start time, governor handle) for the
//!   lifetime of its execution, making it visible to `DM_EXEC_REQUESTS()`
//!   and killable by id;
//! * [`AdmissionController`] — governed queries reserve their memory
//!   budget from a global pool before starting; a query that cannot get a
//!   reservation within a bounded wait fails with a typed
//!   [`DbError::AdmissionTimeout`] instead of running the server out of
//!   memory.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seqdb_storage::{storage_counters, waits, WaitClass};
use seqdb_types::{DbError, Result};

use crate::database::{Database, DbConfig};
use crate::exec::ExecContext;
use crate::governor::{LivenessHook, QueryGovernor};
use crate::querystore::{QueryStore, StoreOutcome};
use crate::trace::{self, TraceClass};

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// Per-session overrides of the database-level defaults. `None` means
/// "inherit the server default"; the inner `Option`/value mirrors the
/// corresponding [`DbConfig`] field (`SET ... = 0` stores an explicit
/// "off").
#[derive(Debug, Clone, Default)]
pub struct SessionSettings {
    pub query_timeout_ms: Option<Option<u64>>,
    pub query_mem_limit_kb: Option<Option<u64>>,
    pub max_dop: Option<usize>,
    pub join_strategy: Option<crate::database::JoinStrategy>,
    pub batch_size: Option<usize>,
}

/// One client connection's worth of state: an id, a settings overlay,
/// and the handles needed to admit, register and govern its statements.
///
/// Sessions are cheap: `core::workflow` opens one per pipeline run, the
/// wire server one per connection, and the `Arc<Database>` entry points
/// a *server-scope* one per call ([`Database::server_session`]).
pub struct Session {
    db: Arc<Database>,
    id: u64,
    /// `None` is the server scope: there is no overlay, so the five
    /// overlay-able `SET`s write the server defaults themselves.
    settings: Option<Mutex<SessionSettings>>,
    /// Handed to every statement's governor; see [`Session::with_liveness`].
    liveness: Option<LivenessHook>,
}

impl Session {
    pub(crate) fn new(db: Arc<Database>, id: u64) -> Session {
        Session {
            db,
            id,
            settings: Some(Mutex::new(SessionSettings::default())),
            liveness: None,
        }
    }

    /// The session behind [`Database::server_session`]: id 0, no overlay.
    pub(crate) fn server_scope(db: Arc<Database>) -> Session {
        Session {
            db,
            id: 0,
            settings: None,
            liveness: None,
        }
    }

    /// Give every statement of this session a liveness hook: the wire
    /// server's check that the client is still connected. The statement
    /// runs it at each full cooperative check and while it waits at the
    /// admission gate, so a vanished client's statement is cancelled
    /// from within, on whatever thread runs it.
    pub fn with_liveness(mut self, hook: LivenessHook) -> Session {
        self.liveness = Some(hook);
        self
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Session-scoped `SET QUERY_TIMEOUT_MS`; `None` switches the
    /// override off for this session (0 via SQL maps to `Some(None)`).
    pub fn set_query_timeout_ms(&self, ms: Option<u64>) {
        match &self.settings {
            Some(s) => s.lock().query_timeout_ms = Some(ms),
            None => self.db.set_query_timeout_ms(ms),
        }
    }

    /// Session-scoped `SET QUERY_MEMORY_LIMIT_KB`.
    pub fn set_query_memory_limit_kb(&self, kb: Option<u64>) {
        match &self.settings {
            Some(s) => s.lock().query_mem_limit_kb = Some(kb),
            None => self.db.set_query_memory_limit_kb(kb),
        }
    }

    /// Session-scoped `SET MAX_DOP`.
    pub fn set_max_dop(&self, dop: usize) {
        match &self.settings {
            Some(s) => s.lock().max_dop = Some(dop.max(1)),
            None => self.db.set_max_dop(dop),
        }
    }

    /// Session-scoped `SET JOIN_STRATEGY`.
    pub fn set_join_strategy(&self, strategy: crate::database::JoinStrategy) {
        match &self.settings {
            Some(s) => s.lock().join_strategy = Some(strategy),
            None => self.db.set_join_strategy(strategy),
        }
    }

    /// Session-scoped `SET BATCH_SIZE` (0 means 1).
    pub fn set_batch_size(&self, rows: usize) {
        match &self.settings {
            Some(s) => s.lock().batch_size = Some(rows),
            None => self.db.set_batch_size(rows),
        }
    }

    /// The configuration this session's next statement runs under:
    /// database defaults with this session's overrides applied.
    pub fn effective_config(&self) -> DbConfig {
        let mut cfg = self.db.config();
        let Some(settings) = &self.settings else {
            return cfg;
        };
        let s = settings.lock();
        if let Some(ms) = s.query_timeout_ms {
            cfg.query_timeout_ms = ms;
        }
        if let Some(kb) = s.query_mem_limit_kb {
            cfg.query_mem_limit_kb = kb;
        }
        if let Some(dop) = s.max_dop {
            cfg.max_dop = dop;
        }
        if let Some(strategy) = s.join_strategy {
            cfg.join_strategy = strategy;
        }
        if let Some(rows) = s.batch_size {
            cfg.batch_size = rows;
        }
        cfg
    }

    /// Admit, register and start one statement: reserves the statement's
    /// memory budget from the global pool (bounded wait →
    /// [`DbError::AdmissionTimeout`]), registers it as running (visible in
    /// `DM_EXEC_REQUESTS()`, killable by id), and returns the execution
    /// context plus an RAII guard that undoes both when the statement
    /// finishes — on success, error, cancellation or panic alike.
    pub fn begin_statement(&self, sql: &str) -> Result<(ExecContext, StatementGuard)> {
        let cfg = self.effective_config();
        let budget = cfg.query_mem_limit_kb.map(|kb| kb as usize * 1024);
        let gov = QueryGovernor::watched(
            cfg.query_timeout_ms.map(Duration::from_millis),
            budget,
            self.liveness.clone(),
        );
        let registry = self.db.statements().clone();
        // Register *before* admission: a statement waiting at the gate is
        // already visible in DM_EXEC_REQUESTS() with wait_state 'queued',
        // which is how an operator tells a stuck query from a slow one.
        let statement_id = registry.register(self.id, sql, gov.clone());
        trace::emit(
            TraceClass::Statement,
            "statement_start",
            self.id,
            statement_id,
            || format!("sql={}", trace_sql(sql)),
        );
        let mut guard = StatementGuard {
            registry,
            statement_id,
            slot: None,
            store: self.db.query_store().clone(),
            sql: sql.to_string(),
            started: Instant::now(),
            gov: gov.clone(),
            session_id: self.id,
            slow_ms: cfg.slow_query_ms,
            rows: 0,
            record: false,
        };
        // On admission failure the guard's drop deregisters the queued
        // statement; `record` is still false, so a statement that never
        // ran leaves no query-store entry.
        let slot = match self.db.admission().admit(
            budget.unwrap_or(0),
            cfg.admission_pool_kb.map(|kb| kb as usize * 1024),
            Duration::from_millis(cfg.admission_wait_ms),
            cfg.admission_queue_slots,
            Some(&gov),
        ) {
            Ok(slot) => {
                // Emitted post-hoc (the gate doesn't know statement ids),
                // but in queued→admit order within the statement.
                if gov.admission_wait_nanos() > 0 {
                    trace::emit(
                        TraceClass::Admission,
                        "admission_queued",
                        self.id,
                        statement_id,
                        String::new,
                    );
                }
                trace::emit(
                    TraceClass::Admission,
                    "admission_admit",
                    self.id,
                    statement_id,
                    || format!("queued_us={}", gov.admission_wait_nanos() / 1000),
                );
                slot
            }
            Err(e) => {
                let name = match &e {
                    DbError::AdmissionTimeout(_) => "admission_timeout",
                    DbError::ServerBusy(_) => "admission_rejected",
                    _ => "admission_abandoned",
                };
                trace::emit(TraceClass::Admission, name, self.id, statement_id, || {
                    format!("queued_us={}", gov.admission_wait_nanos() / 1000)
                });
                return Err(e);
            }
        };
        guard.registry.mark_admitted(statement_id);
        guard.slot = Some(slot);
        guard.record = true;
        Ok((self.db.context_for(&cfg, gov), guard))
    }
}

/// RAII handle for one running statement: on drop it deregisters the
/// statement, folds its outcome into the query store, and returns the
/// admission reservation to the global pool.
///
/// Recording happens in `drop` — not on a success path — so a statement
/// cancelled, killed (by `KILL`, a dropped client or a server drain) or
/// panicked mid-stream still lands in `DM_DB_QUERY_STORE()` /
/// `DM_EXEC_QUERY_STATS()` with its disposition and the rows, spills and
/// peak memory it produced before dying (its per-operator `NodeStats`
/// are likewise `Arc`-shared and lose nothing to the early pipeline
/// drop).
pub struct StatementGuard {
    registry: Arc<StatementRegistry>,
    statement_id: i64,
    slot: Option<AdmissionSlot>,
    store: Arc<QueryStore>,
    sql: String,
    started: Instant,
    gov: Arc<QueryGovernor>,
    session_id: u64,
    /// `SET SLOW_QUERY_MS` threshold in effect when the statement began.
    slow_ms: Option<u64>,
    rows: u64,
    /// Only statements that were actually admitted are recorded.
    record: bool,
}

/// Statement text as embedded in trace-event details: whitespace folded,
/// truncated to keep events small.
fn trace_sql(sql: &str) -> String {
    let mut out: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    if out.len() > 96 {
        out.truncate(93);
        out.push_str("...");
    }
    out
}

impl StatementGuard {
    pub fn statement_id(&self) -> i64 {
        self.statement_id
    }

    /// Rows the statement returned to the client; the caller sets this
    /// after draining the result so the history entry is accurate.
    pub fn set_rows(&mut self, rows: u64) {
        self.rows = rows;
    }
}

impl Drop for StatementGuard {
    fn drop(&mut self) {
        self.registry.deregister(self.statement_id);
        if self.record {
            let elapsed = self.started.elapsed();
            let spill = self.gov.spill_tally();
            let disposition = self.gov.disposition();
            self.store.record(
                &self.sql,
                &StoreOutcome {
                    rows: self.rows,
                    elapsed_micros: elapsed.as_micros() as u64,
                    spill_files: spill.files(),
                    spill_bytes: spill.bytes(),
                    wait_admission_micros: self.gov.admission_wait_nanos() / 1000,
                    wait_spill_micros: spill.wait_nanos() / 1000,
                    peak_mem_bytes: self.gov.mem_peak() as u64,
                    disposition,
                },
            );
            let (sid, stid, rows) = (self.session_id, self.statement_id, self.rows);
            trace::emit(TraceClass::Statement, "statement_finish", sid, stid, || {
                format!(
                    "rows={rows} elapsed_us={} disposition={}",
                    elapsed.as_micros(),
                    disposition.label()
                )
            });
            if let Some(slow) = self.slow_ms {
                if elapsed.as_millis() as u64 >= slow {
                    // Slow statements bypass the trace mask: SET
                    // SLOW_QUERY_MS is its own switch.
                    trace::tracer().emit_always(
                        TraceClass::Statement,
                        "slow_statement",
                        sid,
                        stid,
                        format!(
                            "elapsed_us={} threshold_ms={slow} sql={}",
                            elapsed.as_micros(),
                            trace_sql(&self.sql)
                        ),
                    );
                }
            }
        }
        // `slot` drops here, releasing the admission reservation.
        let _ = self.slot.take();
    }
}

// ---------------------------------------------------------------------
// Statement registry (the DMV behind DM_EXEC_REQUESTS and KILL)
// ---------------------------------------------------------------------

/// What the registry records about one in-flight statement.
struct StatementInfo {
    session_id: u64,
    sql: String,
    started: Instant,
    gov: Arc<QueryGovernor>,
    /// Still waiting at the admission gate (registration happens before
    /// admission so queued statements are visible).
    queued: bool,
}

/// A point-in-time view of one running statement, as surfaced by
/// [`StatementRegistry::snapshot`] and the `DM_EXEC_REQUESTS()` TVF.
#[derive(Debug, Clone)]
pub struct RunningStatement {
    pub statement_id: i64,
    pub session_id: u64,
    pub sql: String,
    pub elapsed: Duration,
    pub mem_used: usize,
    pub aborted: bool,
    pub queued: bool,
    /// Spill files this statement has created so far.
    pub spill_files: u64,
}

impl RunningStatement {
    /// The statement's `wait_state` as surfaced by `DM_EXEC_REQUESTS()`:
    /// `queued` (at the admission gate), `cancelled` (kill/timeout
    /// requested, statement still unwinding), `spilling` (has spilled at
    /// least once), else `running`.
    pub fn wait_state(&self) -> &'static str {
        if self.queued {
            "queued"
        } else if self.aborted {
            "cancelled"
        } else if self.spill_files > 0 {
            "spilling"
        } else {
            "running"
        }
    }
}

/// Registry of running statements, shared by every session of a
/// [`Database`]. Statement ids are process-unique and never reused, so a
/// `KILL` racing with statement completion can only miss (a typed
/// [`DbError::NoSuchStatement`]), never hit an unrelated newer statement.
pub struct StatementRegistry {
    next_id: AtomicI64,
    running: Mutex<HashMap<i64, StatementInfo>>,
}

impl StatementRegistry {
    pub fn new() -> Arc<StatementRegistry> {
        Arc::new(StatementRegistry {
            next_id: AtomicI64::new(1),
            running: Mutex::new(HashMap::new()),
        })
    }

    fn register(&self, session_id: u64, sql: &str, gov: Arc<QueryGovernor>) -> i64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.running.lock().insert(
            id,
            StatementInfo {
                session_id,
                sql: sql.to_string(),
                started: Instant::now(),
                gov,
                queued: true,
            },
        );
        id
    }

    /// The statement cleared the admission gate and is now executing.
    fn mark_admitted(&self, id: i64) {
        if let Some(info) = self.running.lock().get_mut(&id) {
            info.queued = false;
        }
    }

    fn deregister(&self, id: i64) {
        self.running.lock().remove(&id);
    }

    /// `KILL <statement id>`: request cancellation of a running
    /// statement. The victim fails with [`DbError::Cancelled`] at its
    /// next cooperative check; a statement that already finished (or
    /// never existed) reports the typed [`DbError::NoSuchStatement`] —
    /// a clean miss the wire server surfaces as a protocol-level error
    /// without dropping the issuing connection.
    pub fn kill(&self, id: i64) -> Result<()> {
        let running = self.running.lock();
        match running.get(&id) {
            Some(info) => {
                info.gov.cancel();
                storage_counters().kills.fetch_add(1, Ordering::Relaxed);
                trace::emit(TraceClass::Kill, "kill", info.session_id, id, || {
                    format!("sql={}", trace_sql(&info.sql))
                });
                Ok(())
            }
            None => Err(DbError::NoSuchStatement(id)),
        }
    }

    /// Cancel every statement a session has in flight — the wire
    /// server's cleanup path when a client disconnects mid-statement.
    /// Returns how many statements were cancelled. Each victim unwinds
    /// at its next cooperative check (statements queued at the
    /// admission gate poll their governor and unwind there), releasing
    /// pins, temp files and its admission reservation through the usual
    /// guard drops.
    pub fn kill_session(&self, session_id: u64) -> usize {
        let running = self.running.lock();
        let mut killed = 0;
        for (&id, info) in running.iter() {
            if info.session_id == session_id && !info.gov.is_aborted() {
                info.gov.cancel();
                storage_counters().kills.fetch_add(1, Ordering::Relaxed);
                trace::emit(TraceClass::Kill, "kill_session", session_id, id, || {
                    format!("sql={}", trace_sql(&info.sql))
                });
                killed += 1;
            }
        }
        killed
    }

    /// Point-in-time view of every running statement, ordered by id.
    pub fn snapshot(&self) -> Vec<RunningStatement> {
        let running = self.running.lock();
        let mut v: Vec<RunningStatement> = running
            .iter()
            .map(|(&id, info)| RunningStatement {
                statement_id: id,
                session_id: info.session_id,
                sql: info.sql.clone(),
                elapsed: info.started.elapsed(),
                mem_used: info.gov.mem_used(),
                aborted: info.gov.is_aborted(),
                queued: info.queued,
                spill_files: info.gov.spill_tally().files(),
            })
            .collect();
        v.sort_by_key(|s| s.statement_id);
        v
    }

    /// Number of statements currently running.
    pub fn running_count(&self) -> usize {
        self.running.lock().len()
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

struct PoolState {
    /// Bytes of the global pool currently reserved by admitted queries.
    in_use: usize,
    /// FIFO tickets of statements waiting at the gate when queued
    /// admission is on (`queue_slots > 0`). Only the front ticket may
    /// admit, so a small query cannot starve a big one that arrived
    /// first.
    queue: VecDeque<u64>,
    next_ticket: u64,
    /// Statements currently blocked at the gate, in either mode — the
    /// `admission_queue_depth` gauge.
    waiting: usize,
}

/// Gate in front of query startup: each *governed* query (one with a
/// memory budget) must reserve its whole budget from a global pool
/// before it begins executing. When the pool is full the query waits,
/// bounded; past the bound it fails with a typed
/// [`DbError::AdmissionTimeout`] — the Resource Governor behaviour of
/// queueing work at the gate instead of letting admitted queries
/// oversubscribe and die mid-flight.
///
/// Ungoverned queries (no budget) bypass the gate: with no declared
/// ceiling there is nothing meaningful to reserve, exactly like SQL
/// Server's small-query bypass.
///
/// Two waiting disciplines, selected per call by `queue_slots`:
///
/// * `queue_slots == 0` — the original free-for-all: every waiter
///   re-checks the pool on each wakeup and whoever fits first wins.
/// * `queue_slots > 0` — **queued admission**: waiters take a FIFO
///   ticket and only the front of the queue may admit, so overload
///   degrades to ordered latency instead of errors; only once the
///   queue itself is full (`queue_slots` waiters deep) does the next
///   arrival get a typed [`DbError::ServerBusy`] rejection.
pub struct AdmissionController {
    state: StdMutex<PoolState>,
    freed: Condvar,
}

impl AdmissionController {
    pub fn new() -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            state: StdMutex::new(PoolState {
                in_use: 0,
                queue: VecDeque::new(),
                next_ticket: 1,
                waiting: 0,
            }),
            freed: Condvar::new(),
        })
    }

    /// Reserve `bytes` from a pool of `pool_limit` bytes, waiting up to
    /// `wait` for other queries to finish. `bytes == 0` (ungoverned
    /// query) or `pool_limit == None` (admission off) admit immediately.
    ///
    /// With `queue_slots > 0` the wait is FIFO-ordered (see the type
    /// docs). A `gov`, if given, is polled while blocked, its liveness
    /// hook included, so `KILL` (or a client disconnect) evicts a
    /// statement still waiting at the gate instead of letting it run
    /// after its session died.
    pub fn admit(
        self: &Arc<Self>,
        bytes: usize,
        pool_limit: Option<usize>,
        wait: Duration,
        queue_slots: usize,
        gov: Option<&QueryGovernor>,
    ) -> Result<AdmissionSlot> {
        let Some(limit) = pool_limit else {
            return Ok(AdmissionSlot {
                ctrl: None,
                bytes: 0,
            });
        };
        if bytes == 0 {
            return Ok(AdmissionSlot {
                ctrl: None,
                bytes: 0,
            });
        }
        if bytes > limit {
            return Err(DbError::AdmissionTimeout(format!(
                "query budget of {bytes} bytes exceeds the global admission pool of {limit} bytes"
            )));
        }
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock().map_err(poisoned)?;
        // Blocked time at the gate is an ADMISSION wait — counted once
        // per statement that had to wait at all, and timed whether the
        // statement eventually got in or timed out.
        let mut wait_start: Option<Instant> = None;
        let mut ticket: Option<u64> = None;
        let outcome = loop {
            // In FIFO mode only the front of the queue may admit; a
            // newcomer with an empty queue is its own front.
            let at_head = match ticket {
                Some(t) => state.queue.front() == Some(&t),
                None => queue_slots == 0 || state.queue.is_empty(),
            };
            if at_head && state.in_use + bytes <= limit {
                if ticket.take().is_some() {
                    state.queue.pop_front();
                    // The new front may already fit alongside us.
                    self.freed.notify_all();
                }
                break Ok(());
            }
            if let Some(g) = gov {
                g.watch();
                if let Err(e) = g.check() {
                    break Err(e);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(DbError::AdmissionTimeout(format!(
                    "admission pool saturated ({} of {limit} bytes reserved); \
                     gave up after {}ms",
                    state.in_use,
                    wait.as_millis()
                )));
            }
            if ticket.is_none() && queue_slots > 0 {
                if state.queue.len() >= queue_slots {
                    break Err(DbError::ServerBusy(format!(
                        "admission queue full ({} statements already waiting; \
                         limit {queue_slots})",
                        state.queue.len()
                    )));
                }
                let t = state.next_ticket;
                state.next_ticket += 1;
                state.queue.push_back(t);
                ticket = Some(t);
            }
            if wait_start.is_none() {
                wait_start = Some(now);
                state.waiting += 1;
                storage_counters()
                    .admission_waits
                    .fetch_add(1, Ordering::Relaxed);
            }
            // With a governor to poll, wake at least every 10ms so a
            // queued statement notices KILL or a vanished client
            // promptly; otherwise sleep
            // until the deadline (wakeups still arrive via `freed`).
            let mut interval = deadline - now;
            if gov.is_some() {
                interval = interval.min(Duration::from_millis(10));
            }
            let (guard, _timeout) = self
                .freed
                .wait_timeout(state, interval)
                .map_err(|_| DbError::Execution("admission pool lock poisoned".into()))?;
            state = guard;
        };
        if let Some(t) = ticket {
            // Error exit while still queued: give the slot back and let
            // the statement behind us advance to the front.
            state.queue.retain(|&q| q != t);
            self.freed.notify_all();
        }
        if wait_start.is_some() {
            state.waiting -= 1;
        }
        if let Some(start) = wait_start {
            let waited = start.elapsed();
            waits().record(WaitClass::Admission, waited);
            if let Some(g) = gov {
                g.add_admission_wait(waited);
            }
        }
        outcome?;
        state.in_use += bytes;
        Ok(AdmissionSlot {
            ctrl: Some(self.clone()),
            bytes,
        })
    }

    /// Bytes currently reserved from the pool (0 when idle — the leak
    /// probe used by tests).
    pub fn reserved(&self) -> usize {
        self.state.lock().map(|s| s.in_use).unwrap_or(usize::MAX)
    }

    /// Statements currently blocked at the admission gate — the
    /// `admission_queue_depth` gauge in `DM_OS_PERFORMANCE_COUNTERS()`.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().map(|s| s.waiting).unwrap_or(usize::MAX)
    }

    fn release(&self, bytes: usize) {
        if let Ok(mut state) = self.state.lock() {
            state.in_use = state.in_use.saturating_sub(bytes);
        }
        self.freed.notify_all();
    }
}

fn poisoned<T>(_: std::sync::PoisonError<T>) -> DbError {
    DbError::Execution("admission pool lock poisoned".into())
}

/// RAII admission reservation; returns its bytes to the pool (and wakes
/// waiters) on drop.
pub struct AdmissionSlot {
    ctrl: Option<Arc<AdmissionController>>,
    bytes: usize,
}

impl std::fmt::Debug for AdmissionSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionSlot")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        if let Some(ctrl) = self.ctrl.take() {
            ctrl.release(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_overlay_inherits_then_overrides() {
        let db = Database::in_memory();
        db.set_query_timeout_ms(Some(500));
        let s = db.create_session();
        // Inherits the server default until overridden.
        assert_eq!(s.effective_config().query_timeout_ms, Some(500));
        s.set_query_timeout_ms(Some(100));
        assert_eq!(s.effective_config().query_timeout_ms, Some(100));
        // Explicit off beats the server default.
        s.set_query_timeout_ms(None);
        assert_eq!(s.effective_config().query_timeout_ms, None);
        // And the server default is untouched.
        assert_eq!(db.config().query_timeout_ms, Some(500));
    }

    #[test]
    fn sessions_do_not_share_overrides() {
        let db = Database::in_memory();
        let a = db.create_session();
        let b = db.create_session();
        assert_ne!(a.id(), b.id());
        a.set_max_dop(1);
        assert_eq!(a.effective_config().max_dop, 1);
        assert_eq!(b.effective_config().max_dop, db.config().max_dop);
    }

    #[test]
    fn registry_registers_kills_and_deregisters() {
        let reg = StatementRegistry::new();
        let gov = QueryGovernor::unlimited();
        let id = reg.register(7, "SELECT 1", gov.clone());
        assert_eq!(reg.running_count(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap[0].session_id, 7);
        assert_eq!(snap[0].sql, "SELECT 1");
        assert!(!snap[0].aborted);
        reg.kill(id).unwrap();
        assert!(gov.is_aborted());
        assert!(reg.snapshot()[0].aborted);
        reg.deregister(id);
        assert_eq!(reg.running_count(), 0);
        assert!(matches!(reg.kill(id), Err(DbError::NoSuchStatement(k)) if k == id));
    }

    #[test]
    fn kill_session_cancels_only_that_sessions_statements() {
        let reg = StatementRegistry::new();
        let g1 = QueryGovernor::unlimited();
        let g2 = QueryGovernor::unlimited();
        let g3 = QueryGovernor::unlimited();
        reg.register(7, "SELECT 1", g1.clone());
        reg.register(7, "SELECT 2", g2.clone());
        reg.register(9, "SELECT 3", g3.clone());
        assert_eq!(reg.kill_session(7), 2);
        assert!(g1.is_aborted() && g2.is_aborted());
        assert!(!g3.is_aborted(), "other sessions are untouched");
        // Idempotent: already-aborted statements are not re-counted.
        assert_eq!(reg.kill_session(7), 0);
        assert_eq!(reg.kill_session(42), 0, "unknown session is a no-op");
    }

    #[test]
    fn statement_guard_cleans_up_on_drop() {
        let db = Database::in_memory();
        db.set_admission_pool_kb(Some(64));
        let s = db.create_session();
        s.set_query_memory_limit_kb(Some(32));
        {
            let (_ctx, guard) = s.begin_statement("SELECT 1").unwrap();
            assert_eq!(db.statements().running_count(), 1);
            assert_eq!(db.admission().reserved(), 32 * 1024);
            let _ = guard.statement_id();
        }
        assert_eq!(db.statements().running_count(), 0);
        assert_eq!(db.admission().reserved(), 0);
    }

    #[test]
    fn admission_pool_admits_queues_and_times_out() {
        let ctrl = AdmissionController::new();
        let limit = Some(1000);
        let wait = Duration::from_millis(50);
        // Ungoverned and admission-off queries bypass the pool.
        let free = ctrl.admit(0, limit, wait, 0, None).unwrap();
        let off = ctrl.admit(800, None, wait, 0, None).unwrap();
        assert_eq!(ctrl.reserved(), 0);
        drop((free, off));

        let a = ctrl.admit(600, limit, wait, 0, None).unwrap();
        let b = ctrl.admit(400, limit, wait, 0, None).unwrap();
        assert_eq!(ctrl.reserved(), 1000);
        // Pool full: a third governed query times out, typed.
        let err = ctrl.admit(100, limit, wait, 0, None).unwrap_err();
        assert!(matches!(err, DbError::AdmissionTimeout(_)), "{err}");
        // A budget bigger than the whole pool can never be admitted.
        let err = ctrl.admit(2000, limit, wait, 0, None).unwrap_err();
        assert!(matches!(err, DbError::AdmissionTimeout(_)), "{err}");
        drop(a);
        // Freed capacity admits the next query.
        let c = ctrl.admit(100, limit, wait, 0, None).unwrap();
        drop((b, c));
        assert_eq!(ctrl.reserved(), 0);
    }

    #[test]
    fn admission_wait_succeeds_when_capacity_frees_in_time() {
        let ctrl = AdmissionController::new();
        let limit = Some(1000);
        let a = ctrl
            .admit(1000, limit, Duration::from_millis(10), 0, None)
            .unwrap();
        let ctrl2 = ctrl.clone();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(a);
        });
        // Waits past the release and gets in, well before the bound.
        let b = ctrl2
            .admit(1000, limit, Duration::from_secs(5), 0, None)
            .unwrap();
        releaser.join().unwrap();
        drop(b);
        assert_eq!(ctrl.reserved(), 0);
    }

    #[test]
    fn queued_admission_is_fifo_ordered() {
        let ctrl = AdmissionController::new();
        let limit = Some(1000);
        let first = ctrl
            .admit(950, limit, Duration::from_secs(5), 8, None)
            .unwrap();
        // `big` queues first and needs the whole pool; `small` queues
        // second and would fit *right now* (950 + 50 ≤ 1000) under the
        // free-for-all discipline — FIFO makes it wait its turn.
        let order = Arc::new(Mutex::new(Vec::new()));
        let (c1, o1) = (ctrl.clone(), order.clone());
        let big = std::thread::spawn(move || {
            let s = c1
                .admit(1000, Some(1000), Duration::from_secs(5), 8, None)
                .unwrap();
            o1.lock().push("big");
            std::thread::sleep(Duration::from_millis(30));
            drop(s);
        });
        // Make sure `big` is enqueued before `small` arrives.
        while ctrl.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (c2, o2) = (ctrl.clone(), order.clone());
        let small = std::thread::spawn(move || {
            let s = c2
                .admit(50, Some(1000), Duration::from_secs(5), 8, None)
                .unwrap();
            o2.lock().push("small");
            drop(s);
        });
        while ctrl.queue_depth() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Small fits but is not at the front: it must still be waiting.
        std::thread::sleep(Duration::from_millis(20));
        assert!(order.lock().is_empty(), "nobody admits past a full head");
        drop(first);
        big.join().unwrap();
        small.join().unwrap();
        assert_eq!(*order.lock(), vec!["big", "small"], "FIFO, not size-based");
        assert_eq!(ctrl.reserved(), 0);
        assert_eq!(ctrl.queue_depth(), 0);
    }

    #[test]
    fn full_admission_queue_rejects_with_server_busy() {
        let ctrl = AdmissionController::new();
        let limit = Some(100);
        let slot = ctrl
            .admit(100, limit, Duration::from_secs(5), 1, None)
            .unwrap();
        let c = ctrl.clone();
        let waiter =
            std::thread::spawn(move || c.admit(100, Some(100), Duration::from_secs(5), 1, None));
        while ctrl.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The single queue slot is taken: the next arrival is rejected
        // immediately with the typed overload error, not a timeout.
        let err = ctrl
            .admit(100, limit, Duration::from_secs(5), 1, None)
            .unwrap_err();
        assert!(matches!(err, DbError::ServerBusy(_)), "{err}");
        drop(slot);
        assert!(waiter.join().unwrap().is_ok(), "queued waiter still admits");
        assert_eq!(ctrl.reserved(), 0);
    }

    #[test]
    fn kill_evicts_a_statement_queued_at_the_gate() {
        let ctrl = AdmissionController::new();
        let limit = Some(100);
        let slot = ctrl
            .admit(100, limit, Duration::from_secs(30), 4, None)
            .unwrap();
        let gov = QueryGovernor::unlimited();
        let (c, g) = (ctrl.clone(), gov.clone());
        let queued = std::thread::spawn(move || {
            c.admit(100, Some(100), Duration::from_secs(30), 4, Some(&g))
        });
        while ctrl.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gov.cancel();
        let err = queued.join().unwrap().unwrap_err();
        assert!(matches!(err, DbError::Cancelled(_)), "{err}");
        // The dead waiter left the queue; capacity and depth are clean.
        assert_eq!(ctrl.queue_depth(), 0);
        drop(slot);
        assert_eq!(ctrl.reserved(), 0);
    }
}
