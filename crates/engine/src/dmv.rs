//! Dynamic-management views: every `DM_*()` table-valued function.
//!
//! SQL Server operators watch long genomics workloads through DMVs
//! (`sys.dm_os_performance_counters`, `sys.dm_os_wait_stats`,
//! `sys.dm_exec_query_stats`, `sys.dm_exec_requests`); the paper's
//! evaluation reads the same surfaces to attribute where import and
//! analysis time goes. seqdb has one shape for all of them: a `Dmv` is
//! a name, a fixed schema and a closure that snapshots its source into
//! rows when the view is opened — point-in-time, like its SQL Server
//! counterpart, and taking no arguments. `all` builds the nine over one
//! database's registries and `Database::assemble` registers them:
//!
//! * `DM_EXEC_REQUESTS()` — running statements (the `KILL` targets);
//! * `DM_OS_PERFORMANCE_COUNTERS()` — one `(counter_name, value)` row per
//!   counter: this database's buffer pool, temp space, admission gate
//!   and connections, the clock, and the process counter registry
//!   (WAL, FileStream, spills, scrub, backup, admission waits, kills, UDX
//!   panics, timeouts, batch rows). All monotonic except the gauges
//!   (`bufferpool_pinned_frames`, `bufferpool_cached_frames`,
//!   `tempspace_live_files`, `admission_*`, `active_connections`), which
//!   read 0 on an idle server so leak checks can be written in SQL;
//! * `DM_OS_WAIT_STATS()` — per wait class, how often the engine blocked
//!   and for how long;
//! * `DM_EXEC_QUERY_STATS()` / `DM_DB_QUERY_STORE()` — two renderings of
//!   the per-database [`QueryStore`], which the session guard folds every
//!   statement into on completion (including cancelled/killed ones);
//! * `DM_OS_RING_BUFFER()` — the tracer's event ring;
//! * `DM_EXEC_CONNECTIONS()` — live wire connections;
//! * `DM_DB_SCRUB_STATUS()` / `DM_DB_BACKUP_STATUS()` — scrub and backup
//!   progress.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use seqdb_storage::{storage_counters, waits, BufferPool, TempSpace};
use seqdb_types::DataType::{Int, Text};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

use crate::backup::BackupState;
use crate::conn::ConnectionRegistry;
use crate::database::Database;
use crate::exec::ExecContext;
use crate::querystore::{QueryStore, QueryStoreEntry};
use crate::scrub::ScrubState;
use crate::session::{AdmissionController, StatementRegistry};
use crate::trace::tracer;
use crate::udx::{TableFunction, TvfCursor};

/// One dynamic-management view: a table function of no arguments whose
/// rows are a snapshot taken at `open()`.
pub(crate) struct Dmv {
    name: &'static str,
    schema: Arc<Schema>,
    rows: Box<dyn Fn() -> Result<Vec<Row>> + Send + Sync>,
}

impl Dmv {
    fn new(
        name: &'static str,
        columns: Vec<Column>,
        rows: impl Fn() -> Result<Vec<Row>> + Send + Sync + 'static,
    ) -> Dmv {
        Dmv {
            name,
            schema: Arc::new(Schema::new(columns)),
            rows: Box::new(rows),
        }
    }
}

impl TableFunction for Dmv {
    fn name(&self) -> &str {
        self.name
    }
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name)?;
        Ok(RowsCursor::boxed((self.rows)()?))
    }
}

/// Cursor over a row set materialized at `open()`.
struct RowsCursor {
    rows: std::vec::IntoIter<Row>,
    current: Option<Row>,
}

impl RowsCursor {
    fn boxed(rows: Vec<Row>) -> Box<dyn TvfCursor> {
        Box::new(RowsCursor {
            rows: rows.into_iter(),
            current: None,
        })
    }
}

impl TvfCursor for RowsCursor {
    fn move_next(&mut self) -> Result<bool> {
        self.current = self.rows.next();
        Ok(self.current.is_some())
    }
    fn fill_row(&mut self) -> Result<Row> {
        self.current
            .clone()
            .ok_or_else(|| DbError::Execution("fill_row past end of DMV cursor".into()))
    }
}

fn no_args(args: &[Value], name: &str) -> Result<()> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(DbError::Execution(format!("{name}() takes no arguments")))
    }
}

/// A `NOT NULL` column.
fn col(name: &str, dtype: DataType) -> Column {
    Column::new(name, dtype).not_null()
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

/// The nine views over `db`'s registries, in registration order.
pub(crate) fn all(db: &Database) -> Vec<Dmv> {
    vec![
        exec_requests(db.statements().clone()),
        performance_counters(
            db.pool().clone(),
            db.temp().clone(),
            db.admission().clone(),
            db.connections().clone(),
        ),
        wait_stats(),
        exec_query_stats(db.query_store().clone()),
        query_store(db.query_store().clone()),
        ring_buffer(),
        exec_connections(db.connections().clone()),
        scrub_status(db.scrub_state().clone()),
        backup_status(db.backup_state().clone()),
    ]
}

/// `DM_EXEC_REQUESTS()` — seqdb's `sys.dm_exec_requests`: one row per
/// running statement, including the statement issuing the query itself.
fn exec_requests(registry: Arc<StatementRegistry>) -> Dmv {
    let columns = vec![
        col("statement_id", Int),
        col("session_id", Int),
        col("sql_text", Text),
        col("elapsed_ms", Int),
        col("mem_used_bytes", Int),
        col("status", Text),
        col("wait_state", Text),
    ];
    Dmv::new("DM_EXEC_REQUESTS", columns, move || {
        let rows = registry.snapshot().into_iter().map(|s| {
            Row::new(vec![
                Value::Int(s.statement_id),
                int(s.session_id),
                Value::text(&s.sql),
                int(s.elapsed.as_millis() as u64),
                int(s.mem_used as u64),
                Value::text(if s.aborted { "aborted" } else { "running" }),
                Value::text(s.wait_state()),
            ])
        });
        Ok(rows.collect())
    })
}

/// `DM_OS_PERFORMANCE_COUNTERS()` — this database's buffer-pool,
/// temp-space, admission-gate and connection gauges, the clock, and one
/// snapshot of the process counter registry.
fn performance_counters(
    pool: Arc<BufferPool>,
    temp: Arc<TempSpace>,
    admission: Arc<AdmissionController>,
    connections: Arc<ConnectionRegistry>,
) -> Dmv {
    let columns = vec![col("counter_name", Text), col("value", Int)];
    Dmv::new("DM_OS_PERFORMANCE_COUNTERS", columns, move || {
        let (s, t) = (&pool.stats, tracer());
        let local = [
            ("bufferpool_hits", s.hits.load(Relaxed)),
            ("bufferpool_misses", s.misses.load(Relaxed)),
            ("bufferpool_evictions", s.evictions.load(Relaxed)),
            ("bufferpool_writebacks", s.writebacks.load(Relaxed)),
            // Pages a large heap scan read into its own buffer, uncached
            // (also counted in bufferpool_misses).
            ("bufferpool_cold_reads", s.cold_reads.load(Relaxed)),
            ("bufferpool_pinned_frames", pool.pinned_frames() as u64),
            ("bufferpool_cached_frames", pool.cached_frames() as u64),
            ("tempspace_live_files", temp.live_files()? as u64),
            ("admission_reserved_bytes", admission.reserved() as u64),
            ("admission_queue_depth", admission.queue_depth() as u64),
            ("active_connections", connections.active_count() as u64),
            // Rates (counter / uptime) and absolute timelines come from
            // one snapshot instead of two.
            ("uptime_ms", t.uptime_ms()),
            ("process_start", t.start_unix_ms()),
            ("trace_events_dropped", t.dropped()),
        ];
        let rows = local.into_iter().chain(storage_counters().snapshot());
        Ok(rows
            .map(|(name, v)| Row::new(vec![Value::text(name), int(v)]))
            .collect())
    })
}

/// `DM_OS_WAIT_STATS()` — per wait class, how many times the engine
/// blocked, the cumulative wall time and the longest single wait.
fn wait_stats() -> Dmv {
    let columns = vec![
        col("wait_class", Text),
        col("wait_count", Int),
        col("total_wait_ms", Int),
        col("max_wait_ms", Int),
    ];
    Dmv::new("DM_OS_WAIT_STATS", columns, || {
        let rows = waits().snapshot().into_iter().map(|w| {
            Row::new(vec![
                Value::text(w.class.name()),
                int(w.count),
                int(w.total_ms()),
                int(w.max_ms()),
            ])
        });
        Ok(rows.collect())
    })
}

/// `DM_EXEC_QUERY_STATS()` — the query store in the shape of
/// `sys.dm_exec_query_stats`: one row per fingerprint, `sql_text` being
/// its normalized text. The `as_of` column tells two views apart:
/// `memory` rows are the live entries this process has executed
/// (`executions` counts this process's runs only; the totals of an entry
/// reloaded from disk are lifetime totals), `persisted` rows are the
/// entries of the last written `querystore.seqdb` — present even right
/// after a restart, which is what makes this DMV restart-surviving.
fn exec_query_stats(store: Arc<QueryStore>) -> Dmv {
    let columns = vec![
        col("sql_text", Text),
        col("executions", Int),
        col("total_rows", Int),
        col("last_rows", Int),
        col("total_elapsed_ms", Int),
        col("last_elapsed_ms", Int),
        col("total_spill_files", Int),
        col("total_spill_bytes", Int),
        col("peak_mem_bytes", Int),
        col("as_of", Text),
    ];
    // A live row counts this process's runs and knows its last one; the
    // file records no "last" execution, so neither does its view.
    let row = |e: QueryStoreEntry, live: bool| {
        let (executions, last_rows, last_micros, as_of) = if live {
            let here = e.executions - e.persisted_executions;
            (here, e.last_rows, e.last_elapsed_micros, "memory")
        } else {
            (e.executions, 0, 0, "persisted")
        };
        Row::new(vec![
            Value::text(e.text),
            int(executions),
            int(e.total_rows),
            int(last_rows),
            int(e.total_elapsed_micros / 1000),
            int(last_micros / 1000),
            int(e.spill_files),
            int(e.spill_bytes),
            int(e.peak_mem_bytes),
            Value::text(as_of),
        ])
    };
    Dmv::new("DM_EXEC_QUERY_STATS", columns, move || {
        let live = store
            .snapshot()
            .into_iter()
            .filter(|e| e.executions > e.persisted_executions)
            .map(|e| row(e, true));
        let persisted = store.persisted_snapshot().into_iter();
        Ok(live.chain(persisted.map(|e| row(e, false))).collect())
    })
}

/// `DM_DB_QUERY_STORE()` — the live persistent query store: one row per
/// statement fingerprint with aggregated counts, dispositions, latency
/// percentiles (bucket upper bounds of the log₂ histogram), spill traffic
/// and the wait breakdown. `persisted_executions` is how many of the
/// executions were already on disk when this process loaded the store (0
/// for fingerprints first seen since).
fn query_store(store: Arc<QueryStore>) -> Dmv {
    let columns = vec![
        col("fingerprint", Text),
        col("query_text", Text),
        col("executions", Int),
        col("killed", Int),
        col("timeouts", Int),
        col("total_rows", Int),
        col("total_elapsed_ms", Int),
        col("p50_us", Int),
        col("p99_us", Int),
        col("spill_files", Int),
        col("spill_bytes", Int),
        col("wait_admission_ms", Int),
        col("wait_spill_ms", Int),
        col("peak_mem_bytes", Int),
        col("persisted_executions", Int),
    ];
    Dmv::new("DM_DB_QUERY_STORE", columns, move || {
        let clamp = |v: u64| int(v.min(i64::MAX as u64));
        let rows = store.snapshot().into_iter().map(|e| {
            Row::new(vec![
                Value::text(format!("{:016x}", e.fingerprint)),
                Value::text(e.text),
                int(e.executions),
                int(e.killed),
                int(e.timeouts),
                int(e.total_rows),
                int(e.total_elapsed_micros / 1000),
                clamp(e.hist.percentile_micros(50)),
                clamp(e.hist.percentile_micros(99)),
                int(e.spill_files),
                int(e.spill_bytes),
                int(e.wait_admission_micros / 1000),
                int(e.wait_spill_micros / 1000),
                int(e.peak_mem_bytes),
                int(e.persisted_executions),
            ])
        });
        Ok(rows.collect())
    })
}

/// `DM_OS_RING_BUFFER()` — every event in the tracer's ring, in sequence
/// order. Non-destructive; bounded by the ring's capacity, with overflow
/// counted in the `trace_events_dropped` performance counter.
fn ring_buffer() -> Dmv {
    let columns = vec![
        col("seq", Int),
        col("ts_us", Int),
        col("class", Text),
        col("event", Text),
        col("session_id", Int),
        col("statement_id", Int),
        col("detail", Text),
    ];
    Dmv::new("DM_OS_RING_BUFFER", columns, || {
        let rows = tracer().snapshot().into_iter().map(|e| {
            Row::new(vec![
                int(e.seq),
                int(e.ts_us),
                Value::text(e.class.name()),
                Value::text(e.name),
                int(e.session_id),
                Value::Int(e.statement_id),
                Value::text(e.detail),
            ])
        });
        Ok(rows.collect())
    })
}

/// `DM_EXEC_CONNECTIONS()` — one row per live client connection: id,
/// peer address, the session serving it, lifecycle state, and how long
/// since it last made progress.
fn exec_connections(registry: Arc<ConnectionRegistry>) -> Dmv {
    let columns = vec![
        col("connection_id", Int),
        col("peer_addr", Text),
        col("session_id", Int),
        col("state", Text),
        col("idle_ms", Int),
    ];
    Dmv::new("DM_EXEC_CONNECTIONS", columns, move || {
        let rows = registry.snapshot().into_iter().map(|c| {
            Row::new(vec![
                int(c.connection_id),
                Value::text(c.peer),
                int(c.session_id),
                Value::text(c.state.name()),
                int(c.idle.as_millis() as u64),
            ])
        });
        Ok(rows.collect())
    })
}

/// `DM_DB_SCRUB_STATUS()` — scrub progress plus the current quarantine
/// list. The first row summarizes the pass (state `idle` or `running`
/// and the monotonic counters); each further row is one quarantined
/// `(object, page)` entry, so "is anything fenced?" is a one-line SQL
/// check.
fn scrub_status(state: Arc<ScrubState>) -> Dmv {
    let columns = vec![
        col("state", Text),
        Column::new("object", Text),
        Column::new("page", Int),
        Column::new("pages_checked", Int),
        Column::new("blobs_checked", Int),
        Column::new("corruptions_found", Int),
        Column::new("pages_repaired", Int),
    ];
    Dmv::new("DM_DB_SCRUB_STATUS", columns, move || {
        let s = state.status();
        let summary = Row::new(vec![
            Value::text(if s.running { "running" } else { "idle" }),
            Value::Null,
            Value::Null,
            int(s.pages_checked),
            int(s.blobs_checked),
            int(s.corruptions_found),
            int(s.pages_repaired),
        ]);
        let fenced = s.quarantined.into_iter().map(|(object, page)| {
            let mut row = vec![Value::text("quarantined"), Value::text(object), int(page)];
            row.resize(7, Value::Null);
            Row::new(row)
        });
        Ok(std::iter::once(summary).chain(fenced).collect())
    })
}

/// `DM_DB_BACKUP_STATUS()` — whether an online backup is running, where
/// it is writing, live progress counters, and the outcome of the last
/// completed (or failed) backup.
fn backup_status(state: Arc<BackupState>) -> Dmv {
    let columns = vec![
        col("state", Text),
        Column::new("destination", Text),
        col("pages_copied", Int),
        col("pages_skipped", Int),
        col("blobs_copied", Int),
        col("bytes_written", Int),
        Column::new("last_outcome", Text),
    ];
    Dmv::new("DM_DB_BACKUP_STATUS", columns, move || {
        let s = state.status();
        let text_or_null = |t: String| {
            if t.is_empty() {
                Value::Null
            } else {
                Value::text(t)
            }
        };
        Ok(vec![Row::new(vec![
            Value::text(if s.running { "running" } else { "idle" }),
            text_or_null(s.destination),
            int(s.pages_copied),
            int(s.pages_skipped),
            int(s.blobs_copied),
            int(s.bytes_written),
            text_or_null(s.last_outcome),
        ])])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_context;
    use crate::querystore::{Disposition, StoreOutcome};

    fn drain(f: &dyn TableFunction) -> Vec<Row> {
        let (ctx, _dir) = test_context();
        let mut cursor = f.open(&[], &ctx).unwrap();
        let mut rows = Vec::new();
        while cursor.move_next().unwrap() {
            rows.push(cursor.fill_row().unwrap());
        }
        rows
    }

    #[test]
    fn wait_stats_render_every_class() {
        let rows = drain(&wait_stats());
        assert_eq!(rows.len(), seqdb_storage::counters::WAIT_CLASSES.len());
        assert!(rows.iter().all(|r| r.len() == 4), "max_wait_ms column");
    }

    #[test]
    fn query_stats_render_live_then_persisted_store_rows() {
        let store = QueryStore::new(8);
        store.record(
            "SELECT v FROM t WHERE id = 3",
            &StoreOutcome {
                rows: 2,
                elapsed_micros: 4500,
                spill_files: 0,
                spill_bytes: 0,
                wait_admission_micros: 0,
                wait_spill_micros: 0,
                peak_mem_bytes: 1024,
                disposition: Disposition::Completed,
            },
        );
        // Nothing persisted yet: only the live entry is rendered.
        let rows = drain(&exec_query_stats(store.clone()));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("SELECT V FROM T WHERE ID=?"));
        assert_eq!(rows[0][1], Value::Int(1), "executions");
        assert_eq!(rows[0][2], Value::Int(2), "total_rows");
        assert_eq!(rows[0][3], Value::Int(2), "last_rows");
        assert_eq!(rows[0][5], Value::Int(4), "last_elapsed_ms");
        assert_eq!(rows[0][9], Value::text("memory"), "as_of");

        let data = store.serialize();
        let rows = drain(&exec_query_stats(store.clone()));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][9], Value::text("persisted"));
        assert_eq!(rows[1][0], rows[0][0]);
        assert_eq!(rows[1][3], Value::Int(0), "no last_rows on disk");

        // After a restart only the persisted row is left: this process
        // has executed nothing.
        let reloaded = QueryStore::new(8);
        reloaded.load(&data).unwrap();
        let rows = drain(&exec_query_stats(reloaded));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][9], Value::text("persisted"));

        let qs = drain(&query_store(store));
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0][2], Value::Int(1), "executions");
        assert_eq!(qs[0][3], Value::Int(0), "killed");
        assert!(
            matches!(qs[0][7], Value::Int(p50) if p50 >= 4500),
            "p50 bound"
        );
    }

    #[test]
    fn scrub_status_renders_summary_then_quarantine_rows() {
        let q = seqdb_storage::Quarantine::in_memory();
        q.add("reads", 9);
        let state = ScrubState::new(q);
        let rows = drain(&scrub_status(state));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::text("idle"));
        assert_eq!(rows[1][0], Value::text("quarantined"));
        assert_eq!(rows[1][1], Value::text("reads"));
        assert_eq!(rows[1][2], Value::Int(9));
        assert_eq!(rows[1][6], Value::Null);
    }

    #[test]
    fn connections_render_one_row_per_live_connection() {
        let reg = ConnectionRegistry::new();
        let _h = reg.register("10.0.0.9:4242", 3);
        let rows = drain(&exec_connections(reg));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::text("10.0.0.9:4242"));
        assert_eq!(rows[0][2], Value::Int(3));
        assert_eq!(rows[0][3], Value::text("idle"));
    }
}
