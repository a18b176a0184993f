//! Dynamic-management TVFs over the counter registries.
//!
//! SQL Server operators watch long genomics workloads through DMVs
//! (`sys.dm_os_performance_counters`, `sys.dm_os_wait_stats`,
//! `sys.dm_exec_query_stats`); the paper's evaluation reads the same
//! surfaces to attribute where import and analysis time goes. These are
//! seqdb's equivalents, registered by `Database::assemble` next to
//! `DM_EXEC_REQUESTS()`:
//!
//! * [`DmOsPerformanceCountersFn`] — one `(counter_name, value)` row per
//!   engine/storage counter: buffer-pool traffic, WAL records/bytes/
//!   fsyncs, FileStream I/O and retries, spill files/bytes, admission
//!   waits, kills, UDX panics, governed timeouts. All monotonic except
//!   the explicitly-named gauges (`bufferpool_pinned_frames`,
//!   `bufferpool_cached_frames`, `tempspace_live_files`), which exist so
//!   leak checks can be written in SQL.
//! * [`DmOsWaitStatsFn`] — per wait class, how often the engine blocked
//!   and for how long in total.
//! * [`DmExecQueryStatsFn`] / [`DmDbQueryStoreFn`] — two renderings of
//!   the per-database [`QueryStore`], which the session guard folds every
//!   statement into on completion (including cancelled/killed ones).

use std::sync::Arc;

use seqdb_storage::{storage_counters, waits, BufferPool, TempSpace};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

use crate::backup::BackupState;
use crate::conn::ConnectionRegistry;
use crate::exec::ExecContext;
use crate::querystore::{QueryStore, QueryStoreEntry};
use crate::scrub::ScrubState;
use crate::session::AdmissionController;
use crate::stats::engine_counters;
use crate::trace::process_clock;
use crate::udx::{TableFunction, TvfCursor};

/// Cursor over a row set materialized at `open()` — every DMV snapshot
/// is point-in-time, like its SQL Server counterpart.
pub(crate) struct RowsCursor {
    rows: std::vec::IntoIter<Row>,
    current: Option<Row>,
}

impl RowsCursor {
    pub(crate) fn boxed(rows: Vec<Row>) -> Box<dyn TvfCursor> {
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

pub(crate) fn no_args(args: &[Value], name: &str) -> Result<()> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(DbError::Execution(format!("{name}() takes no arguments")))
    }
}

/// `SELECT * FROM DM_OS_PERFORMANCE_COUNTERS()` — the merged engine and
/// storage counter registries plus this database's buffer-pool,
/// admission-gate and connection gauges.
pub struct DmOsPerformanceCountersFn {
    pool: Arc<BufferPool>,
    temp: Arc<TempSpace>,
    admission: Arc<AdmissionController>,
    connections: Arc<ConnectionRegistry>,
}

impl DmOsPerformanceCountersFn {
    pub fn new(
        pool: Arc<BufferPool>,
        temp: Arc<TempSpace>,
        admission: Arc<AdmissionController>,
        connections: Arc<ConnectionRegistry>,
    ) -> DmOsPerformanceCountersFn {
        DmOsPerformanceCountersFn {
            pool,
            temp,
            admission,
            connections,
        }
    }
}

impl TableFunction for DmOsPerformanceCountersFn {
    fn name(&self) -> &str {
        "DM_OS_PERFORMANCE_COUNTERS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("counter_name", DataType::Text).not_null(),
            Column::new("value", DataType::Int).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let s = &self.pool.stats;
        let mut pairs: Vec<(String, u64)> = vec![
            ("bufferpool_hits".into(), s.hits.load(relaxed)),
            ("bufferpool_misses".into(), s.misses.load(relaxed)),
            ("bufferpool_evictions".into(), s.evictions.load(relaxed)),
            ("bufferpool_writebacks".into(), s.writebacks.load(relaxed)),
            (
                "bufferpool_pinned_frames".into(),
                self.pool.pinned_frames() as u64,
            ),
            (
                "bufferpool_cached_frames".into(),
                self.pool.cached_frames() as u64,
            ),
            // Gauge: spill files currently on disk in this database's
            // tempdb — 0 when no query is mid-flight, so leak checks can
            // be written in SQL.
            (
                "tempspace_live_files".into(),
                self.temp.live_files()? as u64,
            ),
            // Gauges for the overload-protection surface: bytes currently
            // reserved at the admission gate, statements blocked waiting
            // there, and live client connections. All read 0 on an idle
            // server, so connection/budget leak checks are one-line SQL.
            (
                "admission_reserved_bytes".into(),
                self.admission.reserved() as u64,
            ),
            (
                "admission_queue_depth".into(),
                self.admission.queue_depth() as u64,
            ),
            (
                "active_connections".into(),
                self.connections.active_count() as u64,
            ),
        ];
        // Clock gauges: rates (counter / uptime) and absolute timelines
        // can be computed from one snapshot instead of two.
        let (uptime_ms, process_start) = process_clock();
        pairs.push(("uptime_ms".into(), uptime_ms));
        pairs.push(("process_start".into(), process_start));
        pairs.push((
            "trace_events_dropped".into(),
            crate::trace::tracer().dropped(),
        ));
        pairs.extend(
            storage_counters()
                .snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
        pairs.extend(
            engine_counters()
                .snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
        let rows = pairs
            .into_iter()
            .map(|(n, v)| Row::new(vec![Value::text(n), Value::Int(v as i64)]))
            .collect();
        Ok(RowsCursor::boxed(rows))
    }
}

/// `SELECT * FROM DM_OS_WAIT_STATS()` — per wait class, how many times
/// the engine blocked and the cumulative wall time.
pub struct DmOsWaitStatsFn;

impl TableFunction for DmOsWaitStatsFn {
    fn name(&self) -> &str {
        "DM_OS_WAIT_STATS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("wait_class", DataType::Text).not_null(),
            Column::new("wait_count", DataType::Int).not_null(),
            Column::new("total_wait_ms", DataType::Int).not_null(),
            Column::new("max_wait_ms", DataType::Int).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let rows = waits()
            .snapshot()
            .into_iter()
            .map(|w| {
                Row::new(vec![
                    Value::text(w.class.name()),
                    Value::Int(w.count as i64),
                    Value::Int(w.total_ms() as i64),
                    Value::Int(w.max_ms() as i64),
                ])
            })
            .collect();
        Ok(RowsCursor::boxed(rows))
    }
}

/// `SELECT * FROM DM_EXEC_QUERY_STATS()` — the query store in the shape
/// of `sys.dm_exec_query_stats`: one row per fingerprint, `sql_text`
/// being its normalized text. The `as_of` column tells two views apart:
/// `memory` rows are the live entries this process has executed
/// (`executions` counts this process's runs only; the totals of an entry
/// reloaded from disk are lifetime totals), `persisted` rows are the
/// entries of the last written `querystore.seqdb` — present even right
/// after a restart, which is what makes this DMV restart-surviving.
pub struct DmExecQueryStatsFn {
    store: Arc<QueryStore>,
}

impl DmExecQueryStatsFn {
    pub fn new(store: Arc<QueryStore>) -> DmExecQueryStatsFn {
        DmExecQueryStatsFn { store }
    }
}

impl TableFunction for DmExecQueryStatsFn {
    fn name(&self) -> &str {
        "DM_EXEC_QUERY_STATS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("sql_text", DataType::Text).not_null(),
            Column::new("executions", DataType::Int).not_null(),
            Column::new("total_rows", DataType::Int).not_null(),
            Column::new("last_rows", DataType::Int).not_null(),
            Column::new("total_elapsed_ms", DataType::Int).not_null(),
            Column::new("last_elapsed_ms", DataType::Int).not_null(),
            Column::new("total_spill_files", DataType::Int).not_null(),
            Column::new("total_spill_bytes", DataType::Int).not_null(),
            Column::new("peak_mem_bytes", DataType::Int).not_null(),
            Column::new("as_of", DataType::Text).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        // A live row counts this process's runs and knows its last one;
        // the file records no "last" execution, so neither does its view.
        let row = |e: QueryStoreEntry, live: bool| {
            let (executions, last_rows, last_micros, as_of) = if live {
                let here = e.executions - e.persisted_executions;
                (here, e.last_rows, e.last_elapsed_micros, "memory")
            } else {
                (e.executions, 0, 0, "persisted")
            };
            Row::new(vec![
                Value::text(e.text),
                Value::Int(executions as i64),
                Value::Int(e.total_rows as i64),
                Value::Int(last_rows as i64),
                Value::Int((e.total_elapsed_micros / 1000) as i64),
                Value::Int((last_micros / 1000) as i64),
                Value::Int(e.spill_files as i64),
                Value::Int(e.spill_bytes as i64),
                Value::Int(e.peak_mem_bytes as i64),
                Value::text(as_of),
            ])
        };
        let live = self
            .store
            .snapshot()
            .into_iter()
            .filter(|e| e.executions > e.persisted_executions)
            .map(|e| row(e, true));
        let persisted = self
            .store
            .persisted_snapshot()
            .into_iter()
            .map(|e| row(e, false));
        Ok(RowsCursor::boxed(live.chain(persisted).collect()))
    }
}

/// `SELECT * FROM DM_DB_QUERY_STORE()` — the live persistent query
/// store: one row per statement fingerprint with aggregated counts,
/// dispositions, latency percentiles (bucket upper bounds of the log₂
/// histogram), spill traffic and the wait breakdown.
/// `persisted_executions` is how many of the executions were already on
/// disk when this process loaded the store (0 for fingerprints first
/// seen since).
pub struct DmDbQueryStoreFn {
    store: Arc<QueryStore>,
}

impl DmDbQueryStoreFn {
    pub fn new(store: Arc<QueryStore>) -> DmDbQueryStoreFn {
        DmDbQueryStoreFn { store }
    }
}

impl TableFunction for DmDbQueryStoreFn {
    fn name(&self) -> &str {
        "DM_DB_QUERY_STORE"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("fingerprint", DataType::Text).not_null(),
            Column::new("query_text", DataType::Text).not_null(),
            Column::new("executions", DataType::Int).not_null(),
            Column::new("killed", DataType::Int).not_null(),
            Column::new("timeouts", DataType::Int).not_null(),
            Column::new("total_rows", DataType::Int).not_null(),
            Column::new("total_elapsed_ms", DataType::Int).not_null(),
            Column::new("p50_us", DataType::Int).not_null(),
            Column::new("p99_us", DataType::Int).not_null(),
            Column::new("spill_files", DataType::Int).not_null(),
            Column::new("spill_bytes", DataType::Int).not_null(),
            Column::new("wait_admission_ms", DataType::Int).not_null(),
            Column::new("wait_spill_ms", DataType::Int).not_null(),
            Column::new("peak_mem_bytes", DataType::Int).not_null(),
            Column::new("persisted_executions", DataType::Int).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        let rows = self
            .store
            .snapshot()
            .into_iter()
            .map(|e| {
                Row::new(vec![
                    Value::text(format!("{:016x}", e.fingerprint)),
                    Value::text(e.text),
                    Value::Int(e.executions as i64),
                    Value::Int(e.killed as i64),
                    Value::Int(e.timeouts as i64),
                    Value::Int(e.total_rows as i64),
                    Value::Int((e.total_elapsed_micros / 1000) as i64),
                    Value::Int(clamp(e.hist.percentile_micros(50))),
                    Value::Int(clamp(e.hist.percentile_micros(99))),
                    Value::Int(e.spill_files as i64),
                    Value::Int(e.spill_bytes as i64),
                    Value::Int((e.wait_admission_micros / 1000) as i64),
                    Value::Int((e.wait_spill_micros / 1000) as i64),
                    Value::Int(e.peak_mem_bytes as i64),
                    Value::Int(e.persisted_executions as i64),
                ])
            })
            .collect();
        Ok(RowsCursor::boxed(rows))
    }
}

/// `SELECT * FROM DM_DB_SCRUB_STATUS()` — scrub progress plus the
/// current quarantine list. The first row summarizes the pass (state
/// `idle` or `running` and the monotonic counters); each further row is
/// one quarantined `(object, page)` entry, so "is anything fenced?" is a
/// one-line SQL check.
pub struct DmDbScrubStatusFn {
    state: Arc<ScrubState>,
}

impl DmDbScrubStatusFn {
    pub fn new(state: Arc<ScrubState>) -> DmDbScrubStatusFn {
        DmDbScrubStatusFn { state }
    }
}

impl TableFunction for DmDbScrubStatusFn {
    fn name(&self) -> &str {
        "DM_DB_SCRUB_STATUS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("state", DataType::Text).not_null(),
            Column::new("object", DataType::Text),
            Column::new("page", DataType::Int),
            Column::new("pages_checked", DataType::Int),
            Column::new("blobs_checked", DataType::Int),
            Column::new("corruptions_found", DataType::Int),
            Column::new("pages_repaired", DataType::Int),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let s = self.state.status();
        let mut rows = vec![Row::new(vec![
            Value::text(if s.running { "running" } else { "idle" }),
            Value::Null,
            Value::Null,
            Value::Int(s.pages_checked as i64),
            Value::Int(s.blobs_checked as i64),
            Value::Int(s.corruptions_found as i64),
            Value::Int(s.pages_repaired as i64),
        ])];
        for (object, page) in s.quarantined {
            rows.push(Row::new(vec![
                Value::text("quarantined"),
                Value::text(object),
                Value::Int(page as i64),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]));
        }
        Ok(RowsCursor::boxed(rows))
    }
}

/// `DM_DB_BACKUP_STATUS()` — whether an online backup is running, where
/// it is writing, live progress counters, and the outcome of the last
/// completed (or failed) backup.
pub struct DmDbBackupStatusFn {
    state: Arc<BackupState>,
}

impl DmDbBackupStatusFn {
    pub fn new(state: Arc<BackupState>) -> DmDbBackupStatusFn {
        DmDbBackupStatusFn { state }
    }
}

impl TableFunction for DmDbBackupStatusFn {
    fn name(&self) -> &str {
        "DM_DB_BACKUP_STATUS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("state", DataType::Text).not_null(),
            Column::new("destination", DataType::Text),
            Column::new("pages_copied", DataType::Int).not_null(),
            Column::new("pages_skipped", DataType::Int).not_null(),
            Column::new("blobs_copied", DataType::Int).not_null(),
            Column::new("bytes_written", DataType::Int).not_null(),
            Column::new("last_outcome", DataType::Text),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let s = self.state.status();
        let rows = vec![Row::new(vec![
            Value::text(if s.running { "running" } else { "idle" }),
            if s.destination.is_empty() {
                Value::Null
            } else {
                Value::text(s.destination)
            },
            Value::Int(s.pages_copied as i64),
            Value::Int(s.pages_skipped as i64),
            Value::Int(s.blobs_copied as i64),
            Value::Int(s.bytes_written as i64),
            if s.last_outcome.is_empty() {
                Value::Null
            } else {
                Value::text(s.last_outcome)
            },
        ])];
        Ok(RowsCursor::boxed(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_context;
    use crate::querystore::{Disposition, StoreOutcome};

    fn drain(f: &dyn TableFunction) -> Vec<Row> {
        let ctx = test_context();
        let mut cursor = f.open(&[], &ctx).unwrap();
        let mut rows = Vec::new();
        while cursor.move_next().unwrap() {
            rows.push(cursor.fill_row().unwrap());
        }
        rows
    }

    #[test]
    fn performance_counters_cover_all_registries() {
        let ctx = test_context();
        let f = DmOsPerformanceCountersFn::new(
            ctx.catalog.pool().clone(),
            ctx.temp.clone(),
            AdmissionController::new(),
            ConnectionRegistry::new(),
        );
        let rows = drain(&f);
        let names: Vec<String> = rows.iter().map(|r| format!("{:?}", r[0])).collect();
        let has = |n: &str| names.iter().any(|x| x.contains(n));
        assert!(has("bufferpool_hits"));
        assert!(has("tempspace_live_files"));
        assert!(has("wal_fsyncs"));
        assert!(has("spill_bytes"));
        assert!(has("admission_waits"));
        assert!(has("udx_panics"));
        assert!(has("admission_reserved_bytes"));
        assert!(has("admission_queue_depth"));
        assert!(has("active_connections"));
    }

    #[test]
    fn wait_stats_render_every_class() {
        let rows = drain(&DmOsWaitStatsFn);
        assert_eq!(rows.len(), seqdb_storage::counters::WAIT_CLASSES.len());
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
        let rows = drain(&DmExecQueryStatsFn::new(store.clone()));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("SELECT V FROM T WHERE ID=?"));
        assert_eq!(rows[0][1], Value::Int(1), "executions");
        assert_eq!(rows[0][2], Value::Int(2), "total_rows");
        assert_eq!(rows[0][3], Value::Int(2), "last_rows");
        assert_eq!(rows[0][5], Value::Int(4), "last_elapsed_ms");
        assert_eq!(rows[0][9], Value::text("memory"), "as_of");

        let data = store.serialize();
        let rows = drain(&DmExecQueryStatsFn::new(store.clone()));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][9], Value::text("persisted"));
        assert_eq!(rows[1][0], rows[0][0]);
        assert_eq!(rows[1][3], Value::Int(0), "no last_rows on disk");

        // After a restart only the persisted row is left: this process
        // has executed nothing.
        let reloaded = QueryStore::new(8);
        reloaded.load(&data).unwrap();
        let rows = drain(&DmExecQueryStatsFn::new(reloaded));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][9], Value::text("persisted"));

        let qs = drain(&DmDbQueryStoreFn::new(store));
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0][2], Value::Int(1), "executions");
        assert_eq!(qs[0][3], Value::Int(0), "killed");
        assert!(
            matches!(qs[0][7], Value::Int(p50) if p50 >= 4500),
            "p50 bound"
        );
    }

    #[test]
    fn wait_stats_and_counters_have_new_columns() {
        let rows = drain(&DmOsWaitStatsFn);
        assert!(rows.iter().all(|r| r.len() == 4), "max_wait_ms column");
        let ctx = test_context();
        let f = DmOsPerformanceCountersFn::new(
            ctx.catalog.pool().clone(),
            ctx.temp.clone(),
            AdmissionController::new(),
            ConnectionRegistry::new(),
        );
        let names: Vec<String> = drain(&f).iter().map(|r| format!("{:?}", r[0])).collect();
        assert!(names.iter().any(|n| n.contains("uptime_ms")));
        assert!(names.iter().any(|n| n.contains("process_start")));
        assert!(names.iter().any(|n| n.contains("trace_events_dropped")));
    }

    #[test]
    fn scrub_status_renders_summary_then_quarantine_rows() {
        let q = seqdb_storage::Quarantine::in_memory();
        q.add("reads", 9);
        let state = ScrubState::new(q);
        let rows = drain(&DmDbScrubStatusFn::new(state));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::text("idle"));
        assert_eq!(rows[1][0], Value::text("quarantined"));
        assert_eq!(rows[1][1], Value::text("reads"));
        assert_eq!(rows[1][2], Value::Int(9));
    }

    #[test]
    fn dmvs_reject_arguments() {
        let ctx = test_context();
        let err = DmOsWaitStatsFn
            .open(&[Value::Int(1)], &ctx)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, DbError::Execution(_)));
    }
}
