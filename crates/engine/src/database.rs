//! The database façade: storage, catalog, FileStream store, temp space
//! and configuration in one handle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use seqdb_storage::rowfmt::Compression;
use seqdb_storage::{
    durable_replace, BufferPool, FilePager, FileStreamStore, MemPager, Quarantine, TempSpace,
    WriteAheadLog,
};
use seqdb_types::{Result, Row, Schema};

use crate::backup::BackupState;
use crate::catalog::{Catalog, Table};
use crate::conn::ConnectionRegistry;
use crate::exec::ExecContext;
use crate::governor::QueryGovernor;
use crate::querystore::QueryStore;
use crate::scrub::ScrubState;
use crate::session::{AdmissionController, Session, StatementRegistry};

/// Join algorithm selection (`SET JOIN_STRATEGY`): cost-based by default,
/// forcible for benchmarks and plan-shape tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-based: merge join when both inputs are already ordered on the
    /// join keys, otherwise the cheaper of hash join and sort+merge by
    /// estimated bytes moved.
    #[default]
    Auto,
    /// Always hash join.
    Hash,
    /// Always merge join, sorting unordered inputs first.
    Merge,
}

impl JoinStrategy {
    /// Decode the `SET JOIN_STRATEGY = n` value: 0=auto, 1=hash, 2=merge.
    pub fn from_setting(v: i64) -> Option<JoinStrategy> {
        match v {
            0 => Some(JoinStrategy::Auto),
            1 => Some(JoinStrategy::Hash),
            2 => Some(JoinStrategy::Merge),
            _ => None,
        }
    }
}

/// Tunables, adjustable at run time (the analogue of `sp_configure`).
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Max degree of parallelism for eligible operators.
    pub max_dop: usize,
    /// Row-count threshold below which the planner does not bother with a
    /// parallel plan.
    pub parallel_threshold: u64,
    /// Per-query wall-clock timeout (`SET QUERY_TIMEOUT_MS`); `None` = no
    /// timeout.
    pub query_timeout_ms: Option<u64>,
    /// Per-query memory budget in KiB (`SET QUERY_MEMORY_LIMIT_KB`);
    /// `None` = unlimited. Spill-capable operators degrade to tempspace
    /// when the budget runs out; the rest fail with `ResourceExhausted`.
    pub query_mem_limit_kb: Option<u64>,
    /// Global admission pool in KiB (`SET ADMISSION_POOL_KB`, server-wide);
    /// `None` = admission control off. Governed session statements must
    /// reserve their whole budget from this pool before starting.
    pub admission_pool_kb: Option<u64>,
    /// Bounded wait at the admission gate (`SET ADMISSION_WAIT_MS`,
    /// server-wide) before a queued query fails with `AdmissionTimeout`.
    pub admission_wait_ms: u64,
    /// Queued-statement admission (`SET ADMISSION_QUEUE_SLOTS`,
    /// server-wide): when > 0, statements blocked at the admission gate
    /// wait in a bounded FIFO of this many slots (overload degrades to
    /// ordered latency); a statement arriving at a full queue fails with
    /// a typed `ServerBusy`. 0 keeps the original free-for-all wait.
    pub admission_queue_slots: usize,
    /// Join algorithm selection (`SET JOIN_STRATEGY`).
    pub join_strategy: JoinStrategy,
    /// Rows per batch pulled between operators (`SET BATCH_SIZE`); 0 is
    /// accepted and means 1.
    pub batch_size: usize,
    /// Slow-statement threshold (`SET SLOW_QUERY_MS`, server-wide):
    /// statements running at least this long emit a `slow_statement`
    /// trace event regardless of the `TRACE_EVENTS` mask; `None` = off.
    pub slow_query_ms: Option<u64>,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            max_dop: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            parallel_threshold: 10_000,
            query_timeout_ms: None,
            query_mem_limit_kb: None,
            admission_pool_kb: None,
            admission_wait_ms: 1000,
            admission_queue_slots: 0,
            join_strategy: JoinStrategy::Auto,
            batch_size: ExecContext::DEFAULT_BATCH_SIZE,
            slow_query_ms: None,
        }
    }
}

/// A seqdb database instance.
pub struct Database {
    pool: Arc<BufferPool>,
    catalog: Arc<Catalog>,
    filestream: Arc<FileStreamStore>,
    temp: Arc<TempSpace>,
    config: RwLock<DbConfig>,
    statements: Arc<StatementRegistry>,
    admission: Arc<AdmissionController>,
    connections: Arc<ConnectionRegistry>,
    query_store: Arc<QueryStore>,
    scrub: Arc<ScrubState>,
    backup: Arc<BackupState>,
    /// The directory this database lives in (`None` for in-memory).
    root: Option<PathBuf>,
    /// Serializes checkpoints against each other and against online
    /// backup: a checkpoint truncates the WAL, and a backup in flight
    /// needs every data-file write since its first page copy to stay
    /// replayable from the log.
    ckpt_lock: Mutex<()>,
    /// What `querystore.seqdb` holds, as last written or loaded by this
    /// handle (`None`: not known to exist): a checkpoint that would write
    /// the same bytes again skips the write and its fsync.
    query_store_file: Mutex<Option<String>>,
    /// What `catalog.seqdb` holds, as last written or loaded by this
    /// handle (`None`: not known): a checkpoint with no DDL and no index
    /// root change since skips rewriting the snapshot and its fsyncs.
    catalog_file: Mutex<Option<String>>,
    session_seq: AtomicU64,
    /// An in-memory database's directory under the system temp dir,
    /// removed when the database drops. Declared last: fields drop in
    /// order, so its `TempSpace` and `FileStreamStore` go first.
    _scratch_dir: Option<RemoveDirOnDrop>,
}

/// Removes a directory tree when dropped.
pub(crate) struct RemoveDirOnDrop(pub(crate) PathBuf);

impl Drop for RemoveDirOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Database {
    /// Fully in-memory database (page store in RAM, FileStream and temp
    /// space in a directory of its own under the system temp directory,
    /// removed when the database drops).
    pub fn in_memory() -> Arc<Database> {
        let pool = BufferPool::with_default_capacity(Arc::new(MemPager::new()));
        let base = std::env::temp_dir().join(format!(
            "seqdb-mem-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        Self::assemble(pool, &base, Quarantine::in_memory(), None).expect("temp-dir backed stores")
    }

    /// Disk-backed database rooted at `dir` (data file, write-ahead log,
    /// FileStream directory and temp space inside it). If the previous
    /// process crashed, the log is replayed into the data file before the
    /// database comes up.
    pub fn open(dir: &Path) -> Result<Arc<Database>> {
        std::fs::create_dir_all(dir)?;
        let pager: Arc<dyn seqdb_storage::PageStore> =
            Arc::new(FilePager::open(&dir.join("seqdb.data"))?);
        let wal = Arc::new(WriteAheadLog::open_file(&dir.join("seqdb.wal"))?);
        wal.recover_into(pager.as_ref())?;
        let pool = BufferPool::with_wal(pager, BufferPool::DEFAULT_CAPACITY, wal);
        // The quarantine list must survive restarts: a reboot would
        // otherwise silently un-fence known-bad objects.
        let quarantine = Quarantine::open(dir.join("quarantine.list"))?;
        let db = Self::assemble(pool, dir, quarantine, Some(dir.to_path_buf()))?;
        // Rebuild tables from the catalog snapshot the last checkpoint
        // (or a restore) left behind. Directories from before catalog
        // persistence simply have no snapshot and come up empty, as they
        // always did.
        let snapshot = dir.join("catalog.seqdb");
        if snapshot.exists() {
            let text = std::fs::read_to_string(&snapshot)?;
            let (_, unreadable) = db.catalog.load_tables(&text)?;
            *db.catalog_file.lock() = Some(text);
            // A table whose chain rotted since the snapshot must not
            // brick the reopen: it comes up fenced (typed `Quarantined`
            // on access) while the rest of the database works.
            for (name, first_page) in unreadable {
                let key = name.to_ascii_lowercase();
                db.quarantine().add(&key, first_page)?;
                crate::trace::emit(
                    crate::trace::TraceClass::Quarantine,
                    "quarantine_add",
                    0,
                    0,
                    || format!("object={key} page={first_page} at=open"),
                );
            }
        }
        // Reload the persistent query store written by the last
        // checkpoint, so DM_DB_QUERY_STORE()/DM_EXEC_QUERY_STATS() answer
        // across restarts. A corrupt store must not brick the reopen —
        // history is advisory; the database comes up with an empty store.
        let qstore = dir.join("querystore.seqdb");
        if qstore.exists() {
            let text = std::fs::read_to_string(&qstore)?;
            if db.query_store.load(&text).is_ok() {
                *db.query_store_file.lock() = Some(text);
            }
        }
        Ok(db)
    }

    fn assemble(
        pool: Arc<BufferPool>,
        base: &Path,
        quarantine: Arc<Quarantine>,
        root: Option<PathBuf>,
    ) -> Result<Arc<Database>> {
        let catalog = Catalog::new(pool.clone());
        for f in crate::builtins::all_builtins() {
            catalog.register_scalar(f);
        }
        for agg in builtin_aggregates() {
            catalog.register_aggregate(agg);
        }
        let filestream = Arc::new(FileStreamStore::open(base.join("filestream"))?);
        // Blob reads consult the quarantine before handing out paths.
        filestream.set_quarantine(Some(quarantine.clone()));
        let scrub = ScrubState::new(quarantine);
        // FileStream-aware scalar functions (the T-SQL `col.PathName()`
        // method and DATALENGTH over a FILESTREAM column resolve to
        // these; they need the store handle).
        catalog.register_scalar(Arc::new(FsPathNameFn {
            store: filestream.clone(),
        }));
        catalog.register_scalar(Arc::new(FsDataLengthFn {
            store: filestream.clone(),
        }));
        // Touching the tracer here also installs the storage→trace hook,
        // so spill/wait events flow before any SET TRACE_EVENTS arrives.
        let _ = crate::trace::tracer();
        let scratch_dir = root.is_none().then(|| RemoveDirOnDrop(base.to_path_buf()));
        let db = Arc::new(Database {
            pool,
            catalog,
            filestream,
            temp: TempSpace::open(base.join("tempdb"))?,
            config: RwLock::new(DbConfig::default()),
            statements: StatementRegistry::new(),
            admission: AdmissionController::new(),
            connections: ConnectionRegistry::new(),
            query_store: QueryStore::new(QueryStore::DEFAULT_CAPACITY),
            scrub,
            backup: BackupState::new(),
            root,
            ckpt_lock: Mutex::new(()),
            query_store_file: Mutex::new(None),
            catalog_file: Mutex::new(None),
            session_seq: AtomicU64::new(1),
            _scratch_dir: scratch_dir,
        });
        // The DMV surface, each view over one of the handles above.
        for dmv in crate::dmv::all(&db) {
            db.catalog.register_table_fn(Arc::new(dmv));
        }
        Ok(db)
    }

    /// Open a new session: a settings overlay over this database's
    /// defaults plus the admission/registry handles its statements run
    /// under. The analogue of one client connection.
    pub fn create_session(self: &Arc<Self>) -> Session {
        Session::new(
            self.clone(),
            self.session_seq.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// The server-scope session (id 0) the `Arc<Database>` entry points
    /// run their statements on: the same admission, registry, governor
    /// and query-store envelope as any session, but with no overlay —
    /// its `SET`s change the server defaults. Built per call; nothing is
    /// kept on the database.
    pub fn server_session(self: &Arc<Self>) -> Session {
        Session::server_scope(self.clone())
    }

    /// The shared registry of running statements (DMV + `KILL` target).
    pub fn statements(&self) -> &Arc<StatementRegistry> {
        &self.statements
    }

    /// The global admission gate governed session statements pass through.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The registry of live client connections (DM_EXEC_CONNECTIONS()
    /// and the `active_connections` gauge). The wire server registers
    /// each accepted connection here.
    pub fn connections(&self) -> &Arc<ConnectionRegistry> {
        &self.connections
    }

    /// The persistent per-fingerprint query store behind
    /// `DM_DB_QUERY_STORE()` and `DM_EXEC_QUERY_STATS()` (written at
    /// `CHECKPOINT`, reloaded at open).
    pub fn query_store(&self) -> &Arc<QueryStore> {
        &self.query_store
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Scrub progress and the quarantine handle (`DM_DB_SCRUB_STATUS()`,
    /// `CHECK`). The periodic server scrub shares this state.
    pub fn scrub_state(&self) -> &Arc<ScrubState> {
        &self.scrub
    }

    /// Backup progress and fault plumbing (`DM_DB_BACKUP_STATUS()`,
    /// `BACKUP DATABASE`). The periodic server backup shares this state.
    pub fn backup_state(&self) -> &Arc<BackupState> {
        &self.backup
    }

    /// The directory this database lives in (`None` for in-memory).
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// The checkpoint/backup mutual-exclusion lock (see the field docs).
    pub(crate) fn checkpoint_lock(&self) -> &Mutex<()> {
        &self.ckpt_lock
    }

    /// The persisted list of objects fenced off for unrepaired
    /// corruption.
    pub fn quarantine(&self) -> &Arc<Quarantine> {
        self.scrub.quarantine()
    }

    /// Resolve a table for a statement, failing with the typed
    /// `DbError::Quarantined` if the object is fenced for unrepaired
    /// corruption. Every SQL chokepoint (SELECT FROM, INSERT, UPDATE,
    /// DELETE, index DDL) comes through here; `CHECK` itself resolves
    /// through the catalog directly so repair can reach fenced objects.
    pub fn resolve_table(&self, name: &str) -> Result<Arc<Table>> {
        self.quarantine().check(&name.to_ascii_lowercase())?;
        self.catalog.table(name)
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn filestream(&self) -> &Arc<FileStreamStore> {
        &self.filestream
    }

    pub fn temp(&self) -> &Arc<TempSpace> {
        &self.temp
    }

    pub fn config(&self) -> DbConfig {
        self.config.read().clone()
    }

    pub fn set_config(&self, cfg: DbConfig) {
        *self.config.write() = cfg;
    }

    /// Convenience: set the max degree of parallelism.
    pub fn set_max_dop(&self, dop: usize) {
        self.config.write().max_dop = dop.max(1);
    }

    /// Wall-clock timeout applied to every subsequent query; `None`
    /// disables. Same knob as `SET QUERY_TIMEOUT_MS`.
    pub fn set_query_timeout_ms(&self, ms: Option<u64>) {
        self.config.write().query_timeout_ms = ms;
    }

    /// Memory budget (KiB) applied to every subsequent query; `None`
    /// disables. Same knob as `SET QUERY_MEMORY_LIMIT_KB`.
    pub fn set_query_memory_limit_kb(&self, kb: Option<u64>) {
        self.config.write().query_mem_limit_kb = kb;
    }

    /// Join algorithm selection applied to every subsequent query. Same
    /// knob as `SET JOIN_STRATEGY` (0=auto, 1=hash, 2=merge).
    pub fn set_join_strategy(&self, strategy: JoinStrategy) {
        self.config.write().join_strategy = strategy;
    }

    /// Rows per batch applied to every subsequent query (0 means 1).
    /// Same knob as `SET BATCH_SIZE`.
    pub fn set_batch_size(&self, rows: usize) {
        self.config.write().batch_size = rows;
    }

    /// Size (KiB) of the global admission pool; `None` disables
    /// admission control. Server-wide, like `sp_configure`.
    pub fn set_admission_pool_kb(&self, kb: Option<u64>) {
        self.config.write().admission_pool_kb = kb;
    }

    /// Bounded wait (ms) at the admission gate before a queued query
    /// fails with `AdmissionTimeout`. Server-wide.
    pub fn set_admission_wait_ms(&self, ms: u64) {
        self.config.write().admission_wait_ms = ms;
    }

    /// FIFO queue depth at the admission gate; 0 restores the original
    /// free-for-all wait. Server-wide, like `SET ADMISSION_QUEUE_SLOTS`.
    pub fn set_admission_queue_slots(&self, slots: usize) {
        self.config.write().admission_queue_slots = slots;
    }

    /// Slow-statement threshold (ms); `None` disables. Server-wide, like
    /// `SET SLOW_QUERY_MS`.
    pub fn set_slow_query_ms(&self, ms: Option<u64>) {
        self.config.write().slow_query_ms = ms;
    }

    /// The execution context of one statement running under `cfg` and
    /// `gov`. Row mode is a batch size, not a code path: `BATCH_SIZE = 0`
    /// becomes 1 here, so no operator ever sees a zero.
    pub(crate) fn context_for(&self, cfg: &DbConfig, gov: Arc<QueryGovernor>) -> ExecContext {
        ExecContext {
            catalog: self.catalog.clone(),
            filestream: self.filestream.clone(),
            temp: self.temp.clone(),
            dop: cfg.max_dop,
            batch_size: cfg.batch_size.max(1),
            gov,
            stats: None,
            node: None,
        }
    }

    /// Create a table (programmatic DDL; SQL DDL goes through seqdb-sql).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        compression: Compression,
        primary_key: Option<Vec<usize>>,
    ) -> Result<Arc<Table>> {
        self.catalog
            .create_table(name, schema, compression, primary_key)
    }

    /// Bulk-insert rows into a table by name.
    pub fn insert_rows(&self, table: &str, rows: &[Row]) -> Result<u64> {
        let t = self.catalog.table(table)?;
        t.insert_many(rows)
    }

    /// Checkpoint: make all dirty pages durable and truncate the
    /// write-ahead log, then persist the catalog snapshot alongside the
    /// data so table metadata is exactly as durable as the rows it
    /// describes. Also what the SQL `CHECKPOINT` statement runs.
    /// Serialized against online backup: a backup in flight relies on the
    /// log not truncating under it.
    pub fn checkpoint(&self) -> Result<()> {
        let _guard = self.ckpt_lock.lock();
        self.pool.checkpoint()?;
        self.persist_catalog()?;
        self.persist_query_store()
    }

    /// Write the query store to `<root>/querystore.seqdb` with
    /// [`durable_replace`]. No-op for in-memory databases, and when no
    /// statement was recorded since the file was last written or loaded.
    pub(crate) fn persist_query_store(&self) -> Result<()> {
        let Some(root) = &self.root else {
            return Ok(());
        };
        let data = self.query_store.serialize();
        let mut on_disk = self.query_store_file.lock();
        if on_disk.as_deref() == Some(data.as_str()) {
            return Ok(());
        }
        durable_replace(&root.join("querystore.seqdb"), data.as_bytes())?;
        *on_disk = Some(data);
        Ok(())
    }

    /// Write the catalog snapshot to `<root>/catalog.seqdb` with
    /// [`durable_replace`]. No WAL stands behind the snapshot: it is
    /// written after the checkpoint truncated the log, and it names the
    /// index roots the checkpointed pages hang from. No-op for in-memory
    /// databases, and when the snapshot would be the text this handle
    /// last loaded or wrote. `pub(crate)` because the backup path runs it
    /// directly while already holding the checkpoint lock.
    pub(crate) fn persist_catalog(&self) -> Result<()> {
        let Some(root) = &self.root else {
            return Ok(());
        };
        let data = self.catalog.serialize_tables();
        let mut on_disk = self.catalog_file.lock();
        if on_disk.as_deref() == Some(data.as_str()) {
            return Ok(());
        }
        // A failed replace leaves the old file or the new one: either way
        // the next checkpoint writes again.
        *on_disk = None;
        durable_replace(&root.join("catalog.seqdb"), data.as_bytes())?;
        *on_disk = Some(data);
        Ok(())
    }
}

/// `column.PathName()` on a FILESTREAM column: the blob's filesystem path.
struct FsPathNameFn {
    store: Arc<FileStreamStore>,
}

impl crate::udx::ScalarUdf for FsPathNameFn {
    fn name(&self) -> &str {
        "FS_PATHNAME"
    }
    fn invoke(&self, args: &[seqdb_types::Value]) -> Result<seqdb_types::Value> {
        use seqdb_types::Value;
        match args {
            [Value::Null] => Ok(Value::Null),
            [g @ Value::Guid(_)] => Ok(Value::text(
                self.store.path_name(g.as_guid()?)?.to_string_lossy(),
            )),
            _ => Err(seqdb_types::DbError::Execution(
                "PathName() expects a FILESTREAM column".into(),
            )),
        }
    }
}

/// `DATALENGTH(column)` on a FILESTREAM column: the blob's byte length.
struct FsDataLengthFn {
    store: Arc<FileStreamStore>,
}

impl crate::udx::ScalarUdf for FsDataLengthFn {
    fn name(&self) -> &str {
        "FS_DATALENGTH"
    }
    fn invoke(&self, args: &[seqdb_types::Value]) -> Result<seqdb_types::Value> {
        use seqdb_types::Value;
        match args {
            [Value::Null] => Ok(Value::Null),
            [g @ Value::Guid(_)] => Ok(Value::Int(self.store.len(g.as_guid()?)? as i64)),
            _ => Err(seqdb_types::DbError::Execution(
                "DATALENGTH on a FILESTREAM column expects its GUID".into(),
            )),
        }
    }
}

fn builtin_aggregates() -> [Arc<dyn crate::udx::Aggregate>; 5] {
    use crate::udx::{AvgAgg, CountAgg, MaxAgg, MinAgg, SumAgg};
    [
        Arc::new(CountAgg),
        Arc::new(SumAgg),
        Arc::new(MinAgg),
        Arc::new(MaxAgg),
        Arc::new(AvgAgg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::Plan;
    use seqdb_types::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("x", DataType::Int),
        ])
    }

    #[test]
    fn in_memory_end_to_end() {
        let db = Database::in_memory();
        let t = db
            .create_table("t", schema(), Compression::Row, Some(vec![0]))
            .unwrap();
        for i in 0..10i64 {
            t.insert(&Row::new(vec![Value::Int(i), Value::Int(i * i)]))
                .unwrap();
        }
        let plan = Plan::Filter {
            input: Box::new(Plan::TableScan {
                table: t.clone(),
                filter: None,
                projection: None,
                schema: t.schema.clone(),
            }),
            predicate: Expr::binary(crate::expr::BinOp::GtEq, Expr::col(1, "x"), Expr::lit(49)),
        };
        let (ctx, _guard) = db.server_session().begin_statement("filter").unwrap();
        assert_eq!(plan.run(&ctx).unwrap().len(), 3); // 49, 64, 81
    }

    #[test]
    fn disk_backed_database_persists_pages() {
        let dir = std::env::temp_dir().join(format!("seqdb-dbtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            let t = db
                .create_table("t", schema(), Compression::Row, None)
                .unwrap();
            t.insert(&Row::new(vec![Value::Int(1), Value::Int(2)]))
                .unwrap();
            db.checkpoint().unwrap();
        }
        assert!(dir.join("seqdb.data").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqdb-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A database at `dir` with a table `t` of `rows` rows, keyed on its
    /// first column if `keyed`, checkpointed.
    fn table_db(dir: &Path, rows: i64, keyed: bool) -> Arc<Database> {
        let db = Database::open(dir).unwrap();
        let key = keyed.then(|| vec![0]);
        let t = db
            .create_table("t", schema(), Compression::Row, key)
            .unwrap();
        for i in 0..rows {
            t.insert(&Row::new(vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
        }
        db.checkpoint().unwrap();
        db
    }

    #[test]
    fn a_failed_snapshot_write_fails_the_checkpoint_and_keeps_the_old_one() {
        // Whether the fsyncs reach the disk is not observable without
        // cutting the power; that a failed write is reported, and leaves
        // the previous snapshot whole, is.
        let dir = scratch_dir("snapshot-write");
        let db = table_db(&dir, 10, true);
        let t = db.catalog().table("t").unwrap();
        for i in 10..20 {
            t.insert(&Row::new(vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
        }
        // DDL, so the checkpoint has a new snapshot to write: one with
        // only DML since the last skips the write.
        db.create_table("u", schema(), Compression::Row, None)
            .unwrap();
        std::fs::create_dir(dir.join("catalog.seqdb.tmp")).unwrap();
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, seqdb_types::DbError::Io(_)), "{err:?}");
        drop((t, db));
        std::fs::remove_dir(dir.join("catalog.seqdb.tmp")).unwrap();
        let db = Database::open(&dir).unwrap();
        let t = db.catalog().table("t").unwrap();
        assert_eq!(t.indexes.read()[0].btree.len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    fn snapshot_inode(dir: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(dir.join("catalog.seqdb")).unwrap().ino()
    }

    #[cfg(unix)]
    #[test]
    fn a_checkpoint_after_only_dml_leaves_the_snapshot_alone() {
        let dir = scratch_dir("snapshot-skip");
        let db = table_db(&dir, 10, true);
        let before = snapshot_inode(&dir);
        let t = db.catalog().table("t").unwrap();
        t.insert(&Row::new(vec![Value::Int(10), Value::Int(10)]))
            .unwrap();
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(snapshot_inode(&dir), before, "unchanged snapshot rewritten");
        drop((t, db));
        // A reopen loads the text it would write: still nothing to do.
        let db = Database::open(&dir).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(snapshot_inode(&dir), before);
        assert_eq!(db.catalog().table("t").unwrap().row_count(), 11);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn ddl_and_a_root_split_each_rewrite_the_snapshot() {
        let dir = scratch_dir("snapshot-ddl");
        let db = table_db(&dir, 10, true);
        let mut inode = snapshot_inode(&dir);
        let mut rewritten = |db: &Database, what: &str| {
            db.checkpoint().unwrap();
            let now = snapshot_inode(&dir);
            assert_ne!(now, inode, "{what} left the snapshot as it was");
            inode = now;
        };
        db.create_table("u", schema(), Compression::Row, None)
            .unwrap();
        rewritten(&db, "CREATE TABLE");
        let t = db.catalog().table("t").unwrap();
        db.catalog()
            .create_index("t", "ix_t_x", vec![1], false)
            .unwrap();
        rewritten(&db, "CREATE INDEX");
        let root = t.indexes.read()[0].btree.root_page();
        let mut i = 10;
        while t.indexes.read()[0].btree.root_page() == root {
            t.insert(&Row::new(vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
            i += 1;
        }
        rewritten(&db, "a root split");
        drop((t, db));
        let db = Database::open(&dir).unwrap();
        assert!(db.catalog().table("u").is_ok());
        let t = db.catalog().table("t").unwrap();
        assert_eq!(t.indexes.read().len(), 2);
        assert_eq!(t.indexes.read()[0].btree.len(), i as u64);
        assert_eq!(t.indexes.read()[1].btree.len(), i as u64);
        drop((t, db));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_quarantine_list_that_cannot_be_read_fails_the_open() {
        let dir = scratch_dir("quarantine-open");
        drop(table_db(&dir, 3, true));
        let list = dir.join("quarantine.list");
        std::fs::write(&list, "t\t5\ngarbage\n").unwrap();
        let err = Database::open(&dir).err();
        assert!(
            matches!(err, Some(seqdb_types::DbError::Corruption(_))),
            "{err:?}"
        );
        std::fs::remove_file(&list).unwrap();
        std::fs::create_dir(&list).unwrap();
        let err = Database::open(&dir).err();
        assert!(matches!(err, Some(seqdb_types::DbError::Io(_))), "{err:?}");
        std::fs::remove_dir(&list).unwrap();
        assert!(Database::open(&dir).unwrap().quarantine().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_catalog_with_an_index_is_refused_and_one_without_is_upgraded() {
        let to_v1 = |dir: &Path| {
            let snapshot = dir.join("catalog.seqdb");
            let v2 = std::fs::read_to_string(&snapshot).unwrap();
            assert!(v2.starts_with("seqdb-catalog v2\n"));
            let v1 = v2.replacen("seqdb-catalog v2", "seqdb-catalog v1", 1);
            std::fs::write(&snapshot, v1).unwrap();
        };
        let dir = scratch_dir("catalog-v1-keyed");
        drop(table_db(&dir, 3, true));
        to_v1(&dir);
        match Database::open(&dir).err() {
            Some(seqdb_types::DbError::Unsupported(msg)) => assert!(msg.contains("v1"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
        // A heap's format did not change: it opens, and the next
        // checkpoint writes the snapshot as v2.
        let dir = scratch_dir("catalog-v1-heap");
        drop(table_db(&dir, 3, false));
        to_v1(&dir);
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.catalog().table("t").unwrap().row_count(), 3);
        db.checkpoint().unwrap();
        let rewritten = std::fs::read_to_string(dir.join("catalog.seqdb")).unwrap();
        assert!(rewritten.starts_with("seqdb-catalog v2\n"));
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builtin_aggregate_registry() {
        let db = Database::in_memory();
        assert!(db.catalog().aggregate("count").is_some());
        assert!(db.catalog().aggregate("SUM").is_some());
        assert!(db.catalog().scalar_fn("CHARINDEX").is_some());
    }
}
