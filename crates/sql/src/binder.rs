//! Name resolution and planning: turns parsed statements into engine
//! plans and executes them against a [`Database`].
//!
//! The binder also performs the rule-based optimizations the paper's
//! experiments depend on:
//!
//! * predicate pushdown into table scans;
//! * merge-join selection when both join inputs are ordered by their keys
//!   via clustered indexes (the Figure 10 plan);
//! * stream (non-blocking) aggregation when the input is ordered by the
//!   GROUP BY columns, and input ordered through an index for an
//!   order-sensitive aggregate — the sliding-window consensus plan;
//! * exchange-parallel aggregation when the input is a large base-table
//!   scan, every aggregate is order-invariant and the query has no memory
//!   budget (the Figure 9 plan).

use std::sync::Arc;

use seqdb_engine::exec::agg::AggSpec;
use seqdb_engine::exec::filter::project_schema;
use seqdb_engine::exec::sort::SortKey;
use seqdb_engine::plan::aggregate_schema;
use seqdb_engine::{
    BinOp, Database, DbConfig, ExecContext, Expr, JoinStrategy, Plan, QueryResult, Session,
    TableFunction,
};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

use crate::ast::*;

/// Execute one SQL statement on the database's server-scope session
/// (see [`execute_on`]): enveloped like any session statement, and `SET`
/// changes the server defaults.
pub fn execute(db: &Arc<Database>, sql: &str) -> Result<QueryResult> {
    execute_on(&db.server_session(), sql)
}

/// Execute a script of `;`-separated statements, returning the last
/// statement's result.
pub fn execute_script(db: &Arc<Database>, sql: &str) -> Result<QueryResult> {
    execute_script_on(&db.server_session(), sql)
}

/// Execute one SQL statement in a [`Session`]: `SET` mutates the
/// session's own settings (not the server defaults), and everything
/// else runs admitted against the global pool, governed by the session's
/// effective limits, and registered in `sys.dm_exec_requests` where
/// another session's `KILL` can reach it.
pub fn execute_on(session: &Session, sql: &str) -> Result<QueryResult> {
    let stmt = crate::parser::parse(sql)?;
    execute_statement_on(session, &stmt, sql)
}

/// Session-scoped variant of [`execute_script`]. Each statement is
/// labelled with its own text in the DMVs, the query store and traces.
pub fn execute_script_on(session: &Session, sql: &str) -> Result<QueryResult> {
    let mut last = QueryResult::empty();
    for (stmt, text) in crate::parser::parse_script(sql)? {
        last = execute_statement_on(session, &stmt, text)?;
    }
    Ok(last)
}

/// The statement dispatcher. `SET` and `KILL` act on the session and the
/// registry and plain `EXPLAIN` only plans; every other arm plans under
/// the session's effective config and runs inside one statement envelope
/// — `begin()` to its guard's drop — which admits it against the global
/// pool, governs it, registers it for `DM_EXEC_REQUESTS()` / `KILL`, and
/// folds its outcome into the query store. `sql_text` is the label the
/// envelope carries.
pub fn execute_statement_on(
    session: &Session,
    stmt: &Statement,
    sql_text: &str,
) -> Result<QueryResult> {
    let db = session.database();
    let b = Binder::with_config(db, session.effective_config());
    let begin = || session.begin_statement(sql_text);
    match stmt {
        Statement::Set { name, value } => {
            apply_set(session, name, value)?;
            Ok(QueryResult::empty())
        }
        Statement::Kill(id) => {
            db.statements().kill(*id)?;
            Ok(QueryResult::empty())
        }
        Statement::Explain { analyze, inner } => {
            let Statement::Select(s) = inner.as_ref() else {
                return Err(DbError::Unsupported("EXPLAIN of non-SELECT".into()));
            };
            let bound = b.plan_select(s)?;
            if !*analyze {
                return Ok(plan_text_result(bound.plan.explain()));
            }
            let (ctx, mut guard) = begin()?;
            let (result, rows) = run_explain_analyze(&bound.plan, ctx)?;
            guard.set_rows(rows);
            Ok(result)
        }
        Statement::Select(s) => {
            let bound = b.plan_select(s)?;
            let (ctx, mut guard) = begin()?;
            let rows = bound.plan.run(&ctx)?;
            guard.set_rows(rows.len() as u64);
            Ok(QueryResult {
                schema: bound.plan.schema(),
                rows,
                affected: 0,
            })
        }
        Statement::Insert(ins) => {
            let (ctx, _guard) = begin()?;
            insert(&b, ins, &ctx)
        }
        Statement::Delete { table, predicate } => {
            let _guard = begin()?;
            let t = db.resolve_table(table)?;
            let scope = Scope::from_schema(&t.schema, Some(&t.name));
            let bound = match predicate {
                Some(p) => Some(b.bind_expr(p, &scope)?),
                None => None,
            };
            let n = t.delete_where(|row| match &bound {
                Some(p) => p.eval_predicate(row),
                None => Ok(true),
            })?;
            Ok(affected_result(n))
        }
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            let _guard = begin()?;
            let t = db.resolve_table(table)?;
            let scope = Scope::from_schema(&t.schema, Some(&t.name));
            let bound_pred = match predicate {
                Some(p) => Some(b.bind_expr(p, &scope)?),
                None => None,
            };
            let mut sets = Vec::with_capacity(assignments.len());
            for (col, e) in assignments {
                sets.push((t.schema.resolve(col)?, b.bind_expr(e, &scope)?));
            }
            // Collect matching rows, then delete + reinsert with the
            // assignments applied (updates are rare in this workload; no
            // in-place row rewrite).
            let victims: Vec<(seqdb_storage::RecordId, Row)> = t
                .heap
                .scan()
                .filter_map(|item| match item {
                    Ok((rid, row)) => match &bound_pred {
                        Some(p) => match p.eval_predicate(&row) {
                            Ok(true) => Some(Ok((rid, row))),
                            Ok(false) => None,
                            Err(e) => Some(Err(e)),
                        },
                        None => Some(Ok((rid, row))),
                    },
                    Err(e) => Some(Err(e)),
                })
                .collect::<seqdb_types::Result<_>>()?;
            for (rid, row) in &victims {
                let mut updated = row.clone();
                for (idx, e) in &sets {
                    updated.0[*idx] = e.eval(row)?;
                }
                // A refused row stays as it was; rows this statement
                // already updated stay updated, for there is no statement
                // rollback.
                t.update(*rid, row, &updated)?;
            }
            Ok(affected_result(victims.len() as u64))
        }
        Statement::CreateTable(ct) => {
            let _guard = begin()?;
            create_table(db, ct)
        }
        Statement::CreateIndex(ci) => {
            let _guard = begin()?;
            create_index(db, ci)
        }
        Statement::DropTable { name } => {
            let _guard = begin()?;
            db.catalog().drop_table(name)?;
            // The object is gone; a later table of the same name must not
            // inherit its fence.
            db.quarantine().clear_object(&name.to_ascii_lowercase());
            Ok(QueryResult::empty())
        }
        Statement::Checkpoint => {
            let _guard = begin()?;
            db.checkpoint()?;
            Ok(QueryResult::empty())
        }
        Statement::Check { table, repair } => {
            let _guard = begin()?;
            let report = match table {
                Some(name) => db.check_table(name, *repair)?,
                None => db.check_database(*repair)?,
            };
            Ok(report.into_result())
        }
        Statement::Backup {
            dir,
            incremental_from,
        } => {
            let _guard = begin()?;
            let report = db.backup_database(
                std::path::Path::new(dir),
                incremental_from.as_deref().map(std::path::Path::new),
            )?;
            Ok(report.into_result())
        }
        Statement::Restore {
            dir,
            to,
            verify_only,
        } => {
            let _guard = begin()?;
            let backup = std::path::Path::new(dir);
            let report = if *verify_only {
                seqdb_engine::verify_backup(backup)?
            } else {
                match to {
                    Some(target) => {
                        seqdb_engine::restore_database(backup, std::path::Path::new(target))?
                    }
                    None => {
                        return Err(DbError::Unsupported(
                            "RESTORE DATABASE over the live database; use RESTORE ... TO \
                             '<dir>' and open the restored directory, or VERIFY ONLY"
                                .into(),
                        ))
                    }
                }
            };
            Ok(report.into_result())
        }
    }
}

/// Plan a SELECT under the server defaults and return the physical plan
/// (for EXPLAIN and tests).
pub fn plan_query(db: &Arc<Database>, sql: &str) -> Result<Plan> {
    let stmt = crate::parser::parse(sql)?;
    match stmt {
        Statement::Select(s) => Ok(Binder::with_config(db, db.config()).plan_select(&s)?.plan),
        _ => Err(DbError::Plan("EXPLAIN requires a SELECT".into())),
    }
}

/// `SET <name> = <value>`. The five per-statement knobs go to the
/// session (whose server scope writes the server defaults); the rest are
/// properties of shared state and stay server-wide from any session.
fn apply_set(session: &Session, name: &str, value: &SetValue) -> Result<()> {
    let db = session.database();
    if name == "TRACE_EVENTS" {
        let SetValue::Str(classes) = value else {
            return Err(DbError::Unsupported(
                "SET TRACE_EVENTS: expected a string value ('ALL', 'OFF' or a class list)".into(),
            ));
        };
        // The trace mask gates event emission process-wide: every
        // session's events land in the one ring.
        seqdb_engine::tracer().set_mask(seqdb_engine::parse_mask(classes)?);
        return Ok(());
    }
    let value = match value {
        SetValue::Int(i) if *i >= 0 => *i,
        SetValue::Int(_) => {
            return Err(DbError::Unsupported(format!(
                "SET {name}: value must be non-negative"
            )))
        }
        SetValue::Str(_) => {
            return Err(DbError::Unsupported(format!(
                "SET {name}: expected an integer value"
            )))
        }
    };
    // 0 switches a limit off, matching the resource-governor convention
    // of "unlimited unless configured".
    let v = (value != 0).then_some(value as u64);
    match name {
        "QUERY_TIMEOUT_MS" => session.set_query_timeout_ms(v),
        "QUERY_MEMORY_LIMIT_KB" => session.set_query_memory_limit_kb(v),
        "MAX_DOP" => session.set_max_dop(value as usize),
        "JOIN_STRATEGY" => {
            session.set_join_strategy(JoinStrategy::from_setting(value).ok_or_else(|| {
                DbError::Unsupported(format!(
                    "SET JOIN_STRATEGY: {value} (want 0=auto, 1=hash, 2=merge)"
                ))
            })?)
        }
        // 0 is accepted and runs as 1 (row mode is a batch size).
        "BATCH_SIZE" => session.set_batch_size(value as usize),
        // Admission control is a property of the shared pool, not of one
        // session.
        "ADMISSION_POOL_KB" => db.set_admission_pool_kb(v),
        "ADMISSION_WAIT_MS" => db.set_admission_wait_ms(value as u64),
        "ADMISSION_QUEUE_SLOTS" => db.set_admission_queue_slots(value as usize),
        // The slow-statement threshold feeds the trace log, a
        // server-wide sink.
        "SLOW_QUERY_MS" => db.set_slow_query_ms(v),
        other => {
            return Err(DbError::Unsupported(format!("unknown SET option {other}")));
        }
    }
    Ok(())
}

/// The row-less result of a DML statement.
fn affected_result(affected: u64) -> QueryResult {
    QueryResult {
        affected,
        ..QueryResult::empty()
    }
}

/// Render plan text as the `[plan TEXT]` result EXPLAIN returns.
fn plan_text_result(text: String) -> QueryResult {
    let schema = Arc::new(Schema::new(vec![Column::new("plan", DataType::Text)]));
    let rows = text
        .lines()
        .map(|l| Row::new(vec![Value::text(l)]))
        .collect();
    QueryResult {
        schema,
        rows,
        affected: 0,
    }
}

/// `EXPLAIN ANALYZE`: execute the plan with an actuals collector
/// attached, then render the annotated tree plus a one-line statement
/// summary. Returns the result and the row count the run produced (for
/// the caller's query-store record).
fn run_explain_analyze(plan: &Plan, mut ctx: ExecContext) -> Result<(QueryResult, u64)> {
    let stats = seqdb_engine::ExecStats::new();
    ctx.stats = Some(stats.clone());
    let started = std::time::Instant::now();
    let rows = plan.run(&ctx)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let spill = ctx.gov.spill_tally();
    let mut text = plan.explain_analyze(&stats);
    text.push_str(&format!(
        "-- actual: {} rows, elapsed_ms={elapsed_ms:.3}, peak_mem_kb={}, \
         spill_files={}, spill_kb={}\n",
        rows.len(),
        ctx.gov.mem_peak() / 1024,
        spill.files(),
        spill.bytes() / 1024
    ));
    Ok((plan_text_result(text), rows.len() as u64))
}

// ----------------------------------------------------------------------
// DDL
// ----------------------------------------------------------------------

fn create_table(db: &Arc<Database>, ct: &CreateTable) -> Result<QueryResult> {
    let mut columns = Vec::with_capacity(ct.columns.len());
    for c in &ct.columns {
        let dtype = DataType::from_sql_name(&c.type_name)
            .ok_or_else(|| DbError::Schema(format!("unknown type {}", c.type_name)))?;
        let mut col = Column::new(c.name.clone(), dtype);
        if c.not_null {
            col = col.not_null();
        }
        if c.filestream {
            if dtype != DataType::Bytes {
                return Err(DbError::Schema("FILESTREAM requires VARBINARY(MAX)".into()));
            }
            col = col.filestream();
        }
        columns.push(col);
    }
    let schema = Schema::new(columns);
    let pk = match &ct.primary_key {
        None => None,
        Some(names) => {
            let mut idxs = Vec::with_capacity(names.len());
            for n in names {
                idxs.push(schema.resolve(n)?);
            }
            Some(idxs)
        }
    };
    let compression = match &ct.compression {
        None => seqdb_storage::rowfmt::Compression::None,
        Some(c) => seqdb_storage::rowfmt::Compression::from_sql_name(c)
            .ok_or_else(|| DbError::Schema(format!("unknown DATA_COMPRESSION {c}")))?,
    };
    db.create_table(&ct.name, schema, compression, pk)?;
    Ok(QueryResult::empty())
}

fn create_index(db: &Arc<Database>, ci: &CreateIndex) -> Result<QueryResult> {
    // An index build scans the heap: fenced tables must fail typed here
    // too, not surface a checksum error halfway through the backfill.
    let table = db.resolve_table(&ci.table)?;
    let mut cols = Vec::with_capacity(ci.columns.len());
    for c in &ci.columns {
        cols.push(table.schema.resolve(c)?);
    }
    db.catalog()
        .create_index(&ci.table, &ci.name, cols, ci.unique)?;
    Ok(QueryResult::empty())
}

// ----------------------------------------------------------------------
// INSERT
// ----------------------------------------------------------------------

/// `INSERT … VALUES / SELECT`, run under the enclosing statement's
/// `ctx`. The source is materialized before the first row lands,
/// which is what keeps `INSERT INTO t SELECT … FROM t` safe.
fn insert(b: &Binder<'_>, ins: &Insert, ctx: &ExecContext) -> Result<QueryResult> {
    let db = b.db;
    let table = db.resolve_table(&ins.table)?;
    // Map provided columns to table positions.
    let positions: Vec<usize> = match &ins.columns {
        None => (0..table.schema.len()).collect(),
        Some(names) => {
            let mut v = Vec::with_capacity(names.len());
            for n in names {
                v.push(table.schema.resolve(n)?);
            }
            v
        }
    };

    let source_rows: Box<dyn Iterator<Item = Result<Row>>> = match &ins.source {
        InsertSource::Values(rows) => {
            let empty_scope = Scope::empty();
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut vals = Vec::with_capacity(r.len());
                for e in r {
                    let bound = b.bind_expr(e, &empty_scope)?;
                    vals.push(bound.eval(&Row::empty())?);
                }
                out.push(Ok(Row::new(vals)));
            }
            Box::new(out.into_iter())
        }
        InsertSource::Query(q) => {
            let rows = b.plan_select(q)?.plan.run(ctx)?;
            Box::new(rows.into_iter().map(Ok))
        }
    };

    let mut affected = 0u64;
    for row in source_rows {
        let row = row?;
        if row.len() != positions.len() {
            return Err(DbError::Schema(format!(
                "INSERT provides {} values for {} columns",
                row.len(),
                positions.len()
            )));
        }
        let mut full = vec![Value::Null; table.schema.len()];
        for (v, &p) in row.into_values().into_iter().zip(&positions) {
            full[p] = v;
        }
        // FILESTREAM conversion: raw bytes inserted into a FILESTREAM
        // column are written to the blob store; the row keeps the GUID.
        for (i, col) in table.schema.columns().iter().enumerate() {
            if col.filestream {
                if let Value::Bytes(b) = &full[i] {
                    let guid = db.filestream().insert(b)?;
                    full[i] = Value::guid(guid);
                }
            }
        }
        table.insert(&Row::new(full))?;
        affected += 1;
    }
    Ok(affected_result(affected))
}

// ----------------------------------------------------------------------
// Scopes
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    dtype: DataType,
    filestream: bool,
}

#[derive(Clone, Debug, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn empty() -> Scope {
        Scope::default()
    }

    fn from_schema(schema: &Schema, qualifier: Option<&str>) -> Scope {
        Scope {
            cols: schema
                .columns()
                .iter()
                .map(|c| ScopeCol {
                    qualifier: qualifier.map(|q| q.to_string()),
                    name: c.name.clone(),
                    dtype: c.dtype,
                    filestream: c.filestream,
                })
                .collect(),
        }
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn resolve(&self, parts: &[String]) -> Result<usize> {
        let (qual, name) = match parts {
            [name] => (None, name.as_str()),
            [qual, name] => (Some(qual.as_str()), name.as_str()),
            _ => {
                return Err(DbError::Schema(format!(
                    "unsupported qualified name {}",
                    parts.join(".")
                )))
            }
        };
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if !c.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(q) = qual {
                let matches = c
                    .qualifier
                    .as_deref()
                    .map(|cq| cq.eq_ignore_ascii_case(q))
                    .unwrap_or(false);
                if !matches {
                    continue;
                }
            }
            if found.is_some() {
                return Err(DbError::Schema(format!(
                    "ambiguous column reference '{}'",
                    parts.join(".")
                )));
            }
            found = Some(i);
        }
        found.ok_or_else(|| DbError::Schema(format!("unknown column '{}'", parts.join("."))))
    }

    /// The output schema corresponding to this scope.
    fn to_schema(&self) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|c| {
                    let mut col = Column::new(c.name.clone(), c.dtype);
                    if c.filestream {
                        col = col.filestream();
                    }
                    col
                })
                .collect(),
        )
    }
}

// ----------------------------------------------------------------------
// SELECT planning
// ----------------------------------------------------------------------

struct BoundSelect {
    plan: Plan,
}

struct Binder<'a> {
    db: &'a Arc<Database>,
    /// Effective configuration for planning decisions (degree of
    /// parallelism, parallel threshold): the server defaults, or a
    /// session's overlaid view of them.
    cfg: DbConfig,
}

impl<'a> Binder<'a> {
    fn with_config(db: &'a Arc<Database>, cfg: DbConfig) -> Binder<'a> {
        Binder { db, cfg }
    }
}

// ---- join costing ----

/// Fallback cardinality when a plan has no estimate (TVFs, nested joins).
const UNKNOWN_ROWS: u64 = 10_000;

/// Rough per-row width in bytes from the schema, for costing only.
fn estimated_row_width(schema: &Schema) -> u64 {
    schema
        .columns()
        .iter()
        .map(|c| match c.dtype {
            DataType::Bool => 9,
            DataType::Int | DataType::Float => 16,
            DataType::Guid => 24,
            DataType::Text => 40,
            DataType::Bytes => 72,
        })
        .sum::<u64>()
        .max(8)
}

/// (rows, bytes) estimate for a join input.
fn estimated_size(plan: &Plan) -> (u64, u64) {
    let rows = plan.estimate_rows().unwrap_or(UNKNOWN_ROWS);
    (
        rows,
        rows.saturating_mul(estimated_row_width(&plan.schema())),
    )
}

/// Cost (bytes moved) of a hash join: scan both sides plus the build side
/// handled twice more (hashing, table residency); if the build cannot fit
/// the memory grant, both sides additionally round-trip through spill
/// partitions.
fn hash_join_cost(build_bytes: u64, probe_bytes: u64, mem_limit: Option<u64>) -> u64 {
    let spill = match mem_limit {
        Some(limit) if build_bytes > limit => 2 * (build_bytes + probe_bytes),
        _ => 0,
    };
    3 * build_bytes + probe_bytes + spill
}

/// Cost of sorting both inputs then merging: each side pays its scan plus
/// an n·log2(n) comparison-and-move term (damped — comparisons are
/// cheaper than byte moves).
fn sort_merge_cost(l: (u64, u64), r: (u64, u64)) -> u64 {
    let sort = |(rows, bytes): (u64, u64)| {
        let log2 = 63 - u64::from(rows.max(2).leading_zeros());
        bytes + bytes.saturating_mul(log2) / 4
    };
    sort(l) + sort(r)
}

/// Wrap a plan in an explicit ascending sort on its join keys (the forced
/// merge-join path over unordered input).
fn sort_on_keys(plan: Plan, keys: &[Expr]) -> Plan {
    Plan::Sort {
        input: Box::new(plan),
        keys: keys.iter().cloned().map(SortKey::asc).collect(),
    }
}

/// Columns (by position) the plan's output is known to be ordered by.
fn plan_ordering(plan: &Plan) -> Vec<usize> {
    match plan {
        Plan::IndexScan {
            index, projection, ..
        } => match projection {
            None => index.columns.clone(),
            Some(proj) => {
                // Translate index key positions through the projection.
                let mut out = Vec::new();
                for kc in &index.columns {
                    match proj.iter().position(|p| p == kc) {
                        Some(new) => out.push(new),
                        None => break,
                    }
                }
                out
            }
        },
        // Output is ordered by the left join keys (left columns keep their
        // positions in the concatenated row).
        Plan::MergeJoin { left_keys, .. } => left_keys
            .iter()
            .filter_map(|e| match e {
                Expr::Column { index, .. } => Some(*index),
                _ => None,
            })
            .collect(),
        Plan::Filter { input, .. } | Plan::Limit { input, .. } => plan_ordering(input),
        Plan::Sort { input: _, keys } => keys
            .iter()
            .filter_map(|k| match (&k.expr, k.desc) {
                (Expr::Column { index, .. }, false) => Some(*index),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl Binder<'_> {
    fn is_aggregate_name(&self, name: &str) -> bool {
        self.db.catalog().aggregate(name).is_some()
    }

    fn plan_select(&self, s: &Select) -> Result<BoundSelect> {
        // ---- FROM ----
        let (mut plan, scope) = match &s.from {
            None => (
                Plan::Values {
                    schema: Arc::new(Schema::empty()),
                    rows: vec![Row::empty()],
                },
                Scope::empty(),
            ),
            Some(from) => self.plan_from(from)?,
        };

        // ---- WHERE ----
        if let Some(w) = &s.where_clause {
            let pred = self.bind_expr(w, &scope)?;
            plan = push_filter(plan, pred);
        }

        let is_agg = |n: &str| self.is_aggregate_name(n);
        let has_aggregates = s.items.iter().any(
            |i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate(&is_agg)),
        );

        if !s.group_by.is_empty() || has_aggregates {
            self.plan_grouped(s, plan, scope)
        } else {
            self.plan_plain(s, plan, scope)
        }
    }

    // ---- plain (non-aggregate) select ----
    fn plan_plain(&self, s: &Select, mut plan: Plan, scope: Scope) -> Result<BoundSelect> {
        // Expand items; windows are handled by sorting + numbering first.
        let mut exprs: Vec<Expr> = Vec::new();
        let mut aliases: Vec<Option<String>> = Vec::new();
        let mut window: Option<(usize, Vec<OrderItem>)> = None;
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in scope.cols.iter().enumerate() {
                        exprs.push(Expr::col(i, c.name.clone()));
                        aliases.push(Some(c.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => match expr {
                    AstExpr::Window { order_by, .. } => {
                        if window.is_some() {
                            return Err(DbError::Unsupported("multiple window functions".into()));
                        }
                        window = Some((exprs.len(), order_by.clone()));
                        // Placeholder; patched after RowNumber is added.
                        exprs.push(Expr::lit(0));
                        aliases.push(alias.clone().or(Some("row_number".into())));
                    }
                    _ => {
                        exprs.push(self.bind_expr(expr, &scope)?);
                        aliases.push(
                            alias
                                .clone()
                                .or_else(|| expr.simple_name().map(|s| s.to_string())),
                        );
                    }
                },
            }
        }

        // ORDER BY over the *input* scope for plain selects.
        let order_keys = self.bind_order(&s.order_by, &scope)?;

        if let Some((win_pos, win_order)) = window {
            let win_keys = self.bind_order(&win_order, &scope)?;
            // If the input can be ordered by the window keys without a
            // Sort (e.g. a clustered index scan), ROW_NUMBER runs directly
            // over it, buffering (and budget-charging) its own peer
            // frames instead of relying on the Sort's accounting.
            let ascending: Vec<Expr> = win_keys
                .iter()
                .filter(|k| !k.desc)
                .map(|k| k.expr.clone())
                .collect();
            let (ordered, presorted) = if ascending.len() == win_keys.len() {
                self.order_input(plan, &ascending)
            } else {
                (plan, false)
            };
            plan = ordered;
            let order_cols = if presorted {
                column_indexes(&ascending).unwrap_or_default()
            } else {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: win_keys,
                };
                Vec::new()
            };
            let schema_before = scope.to_schema();
            plan = Plan::RowNumber {
                input: Box::new(plan),
                prepend: false,
                order_cols,
                schema: Arc::new(append_rownum(&schema_before)),
            };
            exprs[win_pos] = Expr::col(scope.len(), "ROW_NUMBER()");
        }

        if !order_keys.is_empty() {
            if let Some(n) = s.top {
                plan = Plan::TopN {
                    input: Box::new(plan),
                    keys: order_keys,
                    n,
                };
            } else {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: order_keys,
                };
            }
        } else if let Some(n) = s.top {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }

        let in_schema = plan.schema();
        let schema = project_schema(&in_schema, &exprs, &aliases);
        let plan = Plan::Project {
            input: Box::new(plan),
            exprs,
            schema,
        };
        Ok(BoundSelect { plan })
    }

    // ---- grouped / aggregate select ----
    fn plan_grouped(&self, s: &Select, plan: Plan, scope: Scope) -> Result<BoundSelect> {
        let is_agg = |n: &str| self.is_aggregate_name(n);

        // Bind GROUP BY expressions.
        let mut group_exprs = Vec::new();
        let mut group_names = Vec::new();
        let mut group_canon = Vec::new();
        for g in &s.group_by {
            group_exprs.push(self.bind_expr(g, &scope)?);
            group_names.push(
                g.simple_name()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| g.canonical()),
            );
            group_canon.push(g.canonical());
        }

        // Walk select items: each is a group expr, an aggregate call, or
        // a ROW_NUMBER window over aggregate output.
        enum ItemKind {
            Group(usize),
            Agg(usize),
            Window(Vec<OrderItem>),
        }
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut agg_canon: Vec<String> = Vec::new();
        let mut items: Vec<(ItemKind, Option<String>)> = Vec::new();

        for item in &s.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Unsupported("SELECT * with GROUP BY".into()));
            };
            match expr {
                AstExpr::Window { order_by, .. } => {
                    items.push((ItemKind::Window(order_by.clone()), alias.clone()));
                }
                AstExpr::Func { name, args, star } if is_agg(name) => {
                    let factory = self.db.catalog().aggregate(name).expect("checked is_agg");
                    let bound_args = if *star {
                        Vec::new()
                    } else {
                        args.iter()
                            .map(|a| self.bind_expr(a, &scope))
                            .collect::<Result<Vec<_>>>()?
                    };
                    let out_name = alias.clone().unwrap_or_else(|| expr.canonical());
                    aggs.push(AggSpec::new(factory, bound_args, out_name));
                    agg_canon.push(expr.canonical());
                    items.push((ItemKind::Agg(aggs.len() - 1), alias.clone()));
                }
                other => {
                    let canon = other.canonical();
                    match group_canon.iter().position(|c| *c == canon) {
                        Some(pos) => items.push((ItemKind::Group(pos), alias.clone())),
                        None => {
                            return Err(DbError::Plan(format!(
                                "select item '{canon}' is neither a GROUP BY expression nor an aggregate"
                            )))
                        }
                    }
                }
            }
        }

        // ORDER BY keys referenced in the aggregate output may also be
        // aggregates not in the select list; add them as hidden aggs.
        let mut hidden_order: Vec<(usize, bool, usize)> = Vec::new(); // (order idx, desc, agg idx)
        for (oi, o) in s.order_by.iter().enumerate() {
            let canon = o.expr.canonical();
            if group_canon.contains(&canon) || agg_canon.contains(&canon) {
                continue;
            }
            if let AstExpr::Func { name, args, star } = &o.expr {
                if is_agg(name) {
                    let factory = self.db.catalog().aggregate(name).expect("is_agg");
                    let bound_args = if *star {
                        Vec::new()
                    } else {
                        args.iter()
                            .map(|a| self.bind_expr(a, &scope))
                            .collect::<Result<Vec<_>>>()?
                    };
                    aggs.push(AggSpec::new(factory, bound_args, canon.clone()));
                    agg_canon.push(canon);
                    hidden_order.push((oi, o.desc, aggs.len() - 1));
                }
            }
        }

        // HAVING: bound over the aggregate output; aggregate calls that
        // are not in the select list become hidden aggregates.
        let having_expr = match &s.having {
            None => None,
            Some(h) => {
                Some(self.bind_having(h, &scope, &group_canon, &mut agg_canon, &mut aggs)?)
            }
        };

        // An order-sensitive aggregate needs its input ascending by the
        // group keys, then its order argument: ordered without a Sort
        // where the input allows, sorted where it does not.
        let order_arg = order_argument(&aggs)?;
        let mut ordering = plan_ordering(&plan);
        let plan = match &order_arg {
            None => plan,
            Some(arg) => {
                let keys: Vec<Expr> = group_exprs.iter().chain([arg]).cloned().collect();
                ordering = column_indexes(&keys).unwrap_or_default();
                match self.order_input(plan, &keys) {
                    (plan, true) => plan,
                    (plan, false) => sort_on_keys(plan, &keys),
                }
            }
        };

        // Choose the aggregation strategy.
        let in_schema = plan.schema();
        let agg_schema = aggregate_schema(&in_schema, &group_exprs, &group_names, &aggs)?;
        let cfg = self.cfg.clone();
        let group_cols = column_indexes(&group_exprs);
        let grouped_by_order = match (&group_cols, group_exprs.is_empty()) {
            (_, true) => false,
            (Some(cols), _) if cols.len() <= ordering.len() => {
                let prefix: std::collections::HashSet<usize> =
                    ordering[..cols.len()].iter().copied().collect();
                cols.iter().all(|c| prefix.contains(c))
            }
            _ => false,
        };

        let mut plan = if grouped_by_order {
            Plan::StreamAggregate {
                input: Box::new(plan),
                group_exprs: group_exprs.clone(),
                aggs: aggs.clone(),
                schema: agg_schema.clone(),
            }
        } else if let Plan::TableScan {
            table,
            filter,
            projection: None,
            ..
        } = &plan
        {
            // The parallel aggregate never spills, so a budgeted GROUP BY
            // runs as the serial hash aggregate, which does.
            if order_arg.is_none()
                && cfg.query_mem_limit_kb.is_none()
                && cfg.max_dop > 1
                && table.row_count() >= cfg.parallel_threshold
            {
                Plan::ParallelAggregate {
                    table: table.clone(),
                    filter: filter.clone(),
                    group_exprs: group_exprs.clone(),
                    aggs: aggs.clone(),
                    dop: cfg.max_dop,
                    schema: agg_schema.clone(),
                }
            } else {
                Plan::HashAggregate {
                    input: Box::new(plan),
                    group_exprs: group_exprs.clone(),
                    aggs: aggs.clone(),
                    schema: agg_schema.clone(),
                }
            }
        } else {
            Plan::HashAggregate {
                input: Box::new(plan),
                group_exprs: group_exprs.clone(),
                aggs: aggs.clone(),
                schema: agg_schema.clone(),
            }
        };

        if let Some(h) = having_expr {
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }

        // Output positions: groups first, aggs after (see aggregate_schema).
        let group_base = 0usize;
        let agg_base = group_exprs.len();
        let out_schema = agg_schema.clone();

        // Resolve ORDER BY over the aggregate output.
        let mut order_keys: Vec<SortKey> = Vec::new();
        for (oi, o) in s.order_by.iter().enumerate() {
            if let Some(&(_, desc, agg_idx)) = hidden_order.iter().find(|(h_oi, _, _)| *h_oi == oi)
            {
                let e = Expr::col(agg_base + agg_idx, aggs[agg_idx].name.clone());
                order_keys.push(if desc {
                    SortKey::desc(e)
                } else {
                    SortKey::asc(e)
                });
                continue;
            }
            let e = self.resolve_in_output(&o.expr, &group_canon, &agg_canon, &out_schema)?;
            order_keys.push(if o.desc {
                SortKey::desc(e)
            } else {
                SortKey::asc(e)
            });
        }

        // Window over aggregate output.
        let mut window_col: Option<usize> = None;
        for (kind, _) in &items {
            if let ItemKind::Window(order) = kind {
                let mut keys = Vec::new();
                for o in order {
                    let e =
                        self.resolve_in_output(&o.expr, &group_canon, &agg_canon, &out_schema)?;
                    keys.push(if o.desc {
                        SortKey::desc(e)
                    } else {
                        SortKey::asc(e)
                    });
                }
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys,
                };
                plan = Plan::RowNumber {
                    input: Box::new(plan),
                    prepend: false,
                    // The Sort just planned above accounts for the rows.
                    order_cols: Vec::new(),
                    schema: Arc::new(append_rownum(&out_schema)),
                };
                window_col = Some(out_schema.len());
                break;
            }
        }

        // ORDER BY / TOP.
        if !order_keys.is_empty() {
            if let Some(n) = s.top {
                plan = Plan::TopN {
                    input: Box::new(plan),
                    keys: order_keys,
                    n,
                };
            } else {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: order_keys,
                };
            }
        } else if let Some(n) = s.top {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }

        // Final projection in select order.
        let mut exprs = Vec::with_capacity(items.len());
        let mut aliases = Vec::with_capacity(items.len());
        for (kind, alias) in &items {
            match kind {
                ItemKind::Group(g) => {
                    exprs.push(Expr::col(group_base + g, group_names[*g].clone()));
                    aliases.push(alias.clone().or(Some(group_names[*g].clone())));
                }
                ItemKind::Agg(a) => {
                    exprs.push(Expr::col(agg_base + a, aggs[*a].name.clone()));
                    aliases.push(alias.clone().or(Some(aggs[*a].name.clone())));
                }
                ItemKind::Window(_) => {
                    exprs.push(Expr::col(
                        window_col.expect("window planned above"),
                        "ROW_NUMBER()",
                    ));
                    aliases.push(alias.clone().or(Some("row_number".into())));
                }
            }
        }
        let in_schema2 = plan.schema();
        let schema = project_schema(&in_schema2, &exprs, &aliases);
        let plan = Plan::Project {
            input: Box::new(plan),
            exprs,
            schema,
        };
        Ok(BoundSelect { plan })
    }

    /// Bind a HAVING expression over the aggregate output. Group
    /// expressions and already-planned aggregates resolve to their output
    /// columns; new aggregate calls are appended as hidden aggregates
    /// (dropped by the final projection); scalar structure recurses.
    fn bind_having(
        &self,
        e: &AstExpr,
        input_scope: &Scope,
        group_canon: &[String],
        agg_canon: &mut Vec<String>,
        aggs: &mut Vec<AggSpec>,
    ) -> Result<Expr> {
        let canon = e.canonical();
        if let Some(p) = group_canon.iter().position(|c| *c == canon) {
            return Ok(Expr::col(p, canon));
        }
        if let Some(p) = agg_canon.iter().position(|c| *c == canon) {
            return Ok(Expr::col(group_canon.len() + p, canon));
        }
        match e {
            AstExpr::Func { name, args, star } if self.is_aggregate_name(name) => {
                let factory = self
                    .db
                    .catalog()
                    .aggregate(name)
                    .expect("is_aggregate_name");
                let bound_args = if *star {
                    Vec::new()
                } else {
                    args.iter()
                        .map(|a| self.bind_expr(a, input_scope))
                        .collect::<Result<Vec<_>>>()?
                };
                aggs.push(AggSpec::new(factory, bound_args, canon.clone()));
                agg_canon.push(canon.clone());
                Ok(Expr::col(group_canon.len() + aggs.len() - 1, canon))
            }
            AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
                op: map_binop(*op),
                left: Box::new(self.bind_having(
                    left,
                    input_scope,
                    group_canon,
                    agg_canon,
                    aggs,
                )?),
                right: Box::new(self.bind_having(
                    right,
                    input_scope,
                    group_canon,
                    agg_canon,
                    aggs,
                )?),
            }),
            AstExpr::Not(inner) => Ok(Expr::Not(Box::new(self.bind_having(
                inner,
                input_scope,
                group_canon,
                agg_canon,
                aggs,
            )?))),
            AstExpr::Neg(inner) => Ok(Expr::Neg(Box::new(self.bind_having(
                inner,
                input_scope,
                group_canon,
                agg_canon,
                aggs,
            )?))),
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.bind_having(
                    expr,
                    input_scope,
                    group_canon,
                    agg_canon,
                    aggs,
                )?),
                negated: *negated,
            }),
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            other => Err(DbError::Plan(format!(
                "HAVING expression '{}' must be built from GROUP BY expressions and aggregates",
                other.canonical()
            ))),
        }
    }

    /// Resolve an expression against the *output* of an aggregate
    /// (group columns by canonical form or name, aggregates by canonical
    /// form).
    fn resolve_in_output(
        &self,
        e: &AstExpr,
        group_canon: &[String],
        agg_canon: &[String],
        out_schema: &Schema,
    ) -> Result<Expr> {
        let canon = e.canonical();
        if let Some(pos) = group_canon.iter().position(|c| *c == canon) {
            return Ok(Expr::col(pos, out_schema.column(pos).name.clone()));
        }
        if let Some(pos) = agg_canon.iter().position(|c| *c == canon) {
            let idx = group_canon.len() + pos;
            return Ok(Expr::col(idx, out_schema.column(idx).name.clone()));
        }
        // By output column name / alias.
        if let AstExpr::Ident(parts) = e {
            if parts.len() == 1 {
                if let Some(i) = out_schema.index_of(&parts[0]) {
                    return Ok(Expr::col(i, parts[0].clone()));
                }
            }
        }
        Err(DbError::Plan(format!(
            "cannot resolve '{canon}' in the aggregate output"
        )))
    }

    fn bind_order(&self, items: &[OrderItem], scope: &Scope) -> Result<Vec<SortKey>> {
        items
            .iter()
            .map(|o| {
                let e = self.bind_expr(&o.expr, scope)?;
                Ok(if o.desc {
                    SortKey::desc(e)
                } else {
                    SortKey::asc(e)
                })
            })
            .collect()
    }

    /// Order `plan` ascending by `keys` without a Sort where it can be:
    /// as it is when it already is, as an ordered index scan of a bare
    /// table scan, or — with no memory budget and no forced merge join —
    /// as a join that probes in index order ([`probe_in_order`]).
    /// `presorted` is false when none applies: the caller sorts.
    fn order_input(&self, plan: Plan, keys: &[Expr]) -> (Plan, bool) {
        let Some(cols) = column_indexes(keys).filter(|c| !c.is_empty()) else {
            return (plan, false);
        };
        if ordering_covers(&plan_ordering(&plan), &cols) {
            return (plan, true);
        }
        let resident =
            self.cfg.query_mem_limit_kb.is_none() && self.cfg.join_strategy != JoinStrategy::Merge;
        let ordered = try_index_order(&plan, &cols)
            .or_else(|| resident.then(|| probe_in_order(&plan, &cols)).flatten());
        match ordered {
            Some(ordered) => (ordered, true),
            None => (plan, false),
        }
    }

    // ---- FROM ----

    fn plan_from(&self, from: &FromClause) -> Result<(Plan, Scope)> {
        let (mut plan, mut scope) = self.plan_table_ref(&from.base)?;
        for j in &from.joins {
            match j {
                JoinClause::Inner { table, on } => {
                    let (right_plan, right_scope) = self.plan_table_ref(table)?;
                    let joint_scope = scope.concat(&right_scope);
                    let bound_on = self.bind_expr(on, &joint_scope)?;
                    let (keys, residual) =
                        split_equi_keys(&bound_on, scope.len(), joint_scope.len());
                    if keys.is_empty() {
                        return Err(DbError::Unsupported(
                            "JOIN without an equality condition".into(),
                        ));
                    }
                    let left_keys: Vec<Expr> = keys.iter().map(|(l, _)| l.clone()).collect();
                    let right_keys: Vec<Expr> = keys
                        .iter()
                        .map(|(_, r)| {
                            let mut e = r.clone();
                            shift_columns(&mut e, -(scope.len() as isize));
                            e
                        })
                        .collect();

                    // Try a merge join: both sides ordered on their keys,
                    // as they are or through an index (`Some(None)` keeps
                    // the side as it is).
                    let ordered_side = |p: &Plan, cols: &[usize]| {
                        if ordering_covers(&plan_ordering(p), cols) {
                            Some(None)
                        } else {
                            try_index_order(p, cols).map(Some)
                        }
                    };
                    let merged = match (column_indexes(&left_keys), column_indexes(&right_keys)) {
                        (Some(lc), Some(rc)) => {
                            ordered_side(&plan, &lc).zip(ordered_side(&right_plan, &rc))
                        }
                        _ => None,
                    };
                    let schema = Arc::new(plan.schema().concat(&right_plan.schema()));
                    let strategy = self.cfg.join_strategy;
                    plan = match merged {
                        // Pre-ordered inputs: a merge join moves the
                        // fewest bytes, so the cost model never beats it
                        // — unless the user forced hashing.
                        Some((l, r)) if strategy != JoinStrategy::Hash => Plan::MergeJoin {
                            left: Box::new(l.unwrap_or(plan)),
                            right: Box::new(r.unwrap_or(right_plan)),
                            left_keys,
                            right_keys,
                            schema,
                        },
                        _ => {
                            let l_est = estimated_size(&plan);
                            let r_est = estimated_size(&right_plan);
                            let mem_limit = self.cfg.query_mem_limit_kb.map(|kb| kb * 1024);
                            let build_bytes = l_est.1.min(r_est.1);
                            let probe_bytes = l_est.1.max(r_est.1);
                            let use_merge = strategy == JoinStrategy::Merge
                                || (strategy == JoinStrategy::Auto
                                    && sort_merge_cost(l_est, r_est)
                                        < hash_join_cost(build_bytes, probe_bytes, mem_limit));
                            if use_merge {
                                // Sort both unordered sides explicitly,
                                // then merge.
                                Plan::MergeJoin {
                                    left: Box::new(sort_on_keys(plan, &left_keys)),
                                    right: Box::new(sort_on_keys(right_plan, &right_keys)),
                                    left_keys,
                                    right_keys,
                                    schema,
                                }
                            } else {
                                // Hash join, building on the estimated-
                                // smaller side.
                                let build_right = r_est.1 < l_est.1;
                                let (build, probe, build_keys, probe_keys) = if build_right {
                                    (right_plan, plan, right_keys, left_keys)
                                } else {
                                    (plan, right_plan, left_keys, right_keys)
                                };
                                Plan::HashJoin {
                                    build: Box::new(build),
                                    probe: Box::new(probe),
                                    build_keys,
                                    probe_keys,
                                    probe_first: build_right,
                                    schema,
                                }
                            }
                        }
                    };
                    scope = joint_scope;
                    if let Some(res) = residual {
                        plan = Plan::Filter {
                            input: Box::new(plan),
                            predicate: res,
                        };
                    }
                }
                JoinClause::CrossApply { func } => {
                    let TableRef::Function { name, args, alias } = func else {
                        return Err(DbError::Unsupported(
                            "CROSS APPLY expects a table-valued function".into(),
                        ));
                    };
                    let tvf = self.db.catalog().table_fn(name).ok_or_else(|| {
                        DbError::NotFound(format!("table-valued function {name}"))
                    })?;
                    let bound_args: Vec<Expr> = args
                        .iter()
                        .map(|a| self.bind_expr(a, &scope))
                        .collect::<Result<_>>()?;
                    let tvf_schema = tvf.schema();
                    let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                    let apply_scope =
                        scope.concat(&Scope::from_schema(&tvf_schema, Some(&qualifier)));
                    let schema = Arc::new(plan.schema().concat(&tvf_schema));
                    plan = Plan::CrossApply {
                        input: Box::new(plan),
                        tvf,
                        args: bound_args,
                        schema,
                    };
                    scope = apply_scope;
                }
            }
        }
        Ok((plan, scope))
    }

    fn plan_table_ref(&self, tr: &TableRef) -> Result<(Plan, Scope)> {
        match tr {
            TableRef::Named { name, alias } => {
                let table = self.db.resolve_table(name)?;
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let scope = Scope::from_schema(&table.schema, Some(&qualifier));
                let schema = table.schema.clone();
                Ok((
                    Plan::TableScan {
                        table,
                        filter: None,
                        projection: None,
                        schema,
                    },
                    scope,
                ))
            }
            TableRef::Function { name, args, alias } => {
                let tvf =
                    self.db.catalog().table_fn(name).ok_or_else(|| {
                        DbError::NotFound(format!("table-valued function {name}"))
                    })?;
                let empty = Scope::empty();
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let bound = self.bind_expr(a, &empty).map_err(|_| {
                        DbError::Plan(format!(
                            "arguments of {name} in FROM must be constants (use CROSS APPLY for correlated arguments)"
                        ))
                    })?;
                    vals.push(bound.eval(&Row::empty())?);
                }
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let scope = Scope::from_schema(&tvf.schema(), Some(&qualifier));
                Ok((Plan::TvfScan { tvf, args: vals }, scope))
            }
            TableRef::Subquery { query, alias } => {
                let bound = self.plan_select(query)?;
                let schema = bound.plan.schema();
                let scope = Scope::from_schema(&schema, alias.as_deref());
                Ok((bound.plan, scope))
            }
            TableRef::OpenRowset { path } => {
                let tvf: Arc<dyn TableFunction> = Arc::new(OpenRowsetFn);
                let scope = Scope::from_schema(&tvf.schema(), Some("openrowset"));
                Ok((
                    Plan::TvfScan {
                        tvf,
                        args: vec![Value::text(path.clone())],
                    },
                    scope,
                ))
            }
        }
    }

    // ---- expressions ----

    fn bind_expr(&self, e: &AstExpr, scope: &Scope) -> Result<Expr> {
        Ok(match e {
            AstExpr::Literal(v) => Expr::Literal(v.clone()),
            AstExpr::Ident(parts) => {
                let idx = scope.resolve(parts)?;
                Expr::col(idx, parts.join("."))
            }
            AstExpr::Binary { op, left, right } => Expr::Binary {
                op: map_binop(*op),
                left: Box::new(self.bind_expr(left, scope)?),
                right: Box::new(self.bind_expr(right, scope)?),
            },
            AstExpr::Not(inner) => Expr::Not(Box::new(self.bind_expr(inner, scope)?)),
            AstExpr::Neg(inner) => Expr::Neg(Box::new(self.bind_expr(inner, scope)?)),
            AstExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.bind_expr(expr, scope)?),
                negated: *negated,
            },
            AstExpr::Cast { expr, type_name } => {
                let fname = match type_name.as_str() {
                    "INT" | "BIGINT" | "SMALLINT" | "TINYINT" => "TO_INT",
                    "FLOAT" | "REAL" | "DOUBLE" => "TO_FLOAT",
                    "VARCHAR" | "NVARCHAR" | "TEXT" | "CHAR" => "TO_VARCHAR",
                    other => return Err(DbError::Unsupported(format!("CAST to {other}"))),
                };
                let udf = self
                    .db
                    .catalog()
                    .scalar_fn(fname)
                    .ok_or_else(|| DbError::NotFound(format!("function {fname}")))?;
                Expr::Func {
                    udf,
                    args: vec![self.bind_expr(expr, scope)?],
                }
            }
            AstExpr::Func { name, args, star } => {
                if *star {
                    return Err(DbError::Plan(format!(
                        "{name}(*) is only valid as an aggregate in a GROUP BY query"
                    )));
                }
                if self.is_aggregate_name(name) {
                    return Err(DbError::Plan(format!(
                        "aggregate {name} is not allowed here"
                    )));
                }
                // Method-call rewrites with FILESTREAM awareness.
                let fname = if name.eq_ignore_ascii_case("pathname") {
                    "FS_PATHNAME".to_string()
                } else if name.eq_ignore_ascii_case("datalength")
                    && args.len() == 1
                    && is_filestream_ref(&args[0], scope)
                {
                    "FS_DATALENGTH".to_string()
                } else {
                    name.to_ascii_uppercase()
                };
                let udf = self
                    .db
                    .catalog()
                    .scalar_fn(&fname)
                    .ok_or_else(|| DbError::NotFound(format!("function {name}")))?;
                Expr::Func {
                    udf,
                    args: args
                        .iter()
                        .map(|a| self.bind_expr(a, scope))
                        .collect::<Result<_>>()?,
                }
            }
            AstExpr::Window { .. } => {
                return Err(DbError::Plan(
                    "window functions are only allowed in the select list".into(),
                ))
            }
        })
    }
}

fn is_filestream_ref(e: &AstExpr, scope: &Scope) -> bool {
    if let AstExpr::Ident(parts) = e {
        if let Ok(i) = scope.resolve(parts) {
            return scope.cols[i].filestream;
        }
    }
    false
}

fn map_binop(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Mod => BinOp::Mod,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::NotEq => BinOp::NotEq,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::LtEq => BinOp::LtEq,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::GtEq => BinOp::GtEq,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

/// Push a filter into a bare table scan where possible.
fn push_filter(plan: Plan, pred: Expr) -> Plan {
    match plan {
        Plan::TableScan {
            table,
            filter: None,
            projection,
            schema,
        } => Plan::TableScan {
            table,
            filter: Some(pred),
            projection,
            schema,
        },
        Plan::IndexScan {
            table,
            index,
            prefix,
            filter: None,
            projection,
            schema,
        } => Plan::IndexScan {
            table,
            index,
            prefix,
            filter: Some(pred),
            projection,
            schema,
        },
        other => Plan::Filter {
            input: Box::new(other),
            predicate: pred,
        },
    }
}

/// Does `ordering` start with exactly the columns in `cols` (in order)?
fn ordering_covers(ordering: &[usize], cols: &[usize]) -> bool {
    ordering.len() >= cols.len() && ordering[..cols.len()] == *cols
}

/// If `plan` is a bare table scan whose table has an index prefixed by
/// `cols`, replace it with an ordered index scan (keeping any filter).
fn try_index_order(plan: &Plan, cols: &[usize]) -> Option<Plan> {
    if let Plan::TableScan {
        table,
        filter,
        projection: None,
        schema,
    } = plan
    {
        if let Some(index) = table.index_with_prefix(cols) {
            return Some(Plan::IndexScan {
                table: table.clone(),
                index,
                prefix: Vec::new(),
                filter: filter.clone(),
                projection: None,
                schema: schema.clone(),
            });
        }
    }
    None
}

/// The one ordering rewrite across a join. In a two-table equi-join, as
/// `plan_from` built it and under any filter, whose key columns `cols`
/// all come from one side, where that side's table has an index prefixed
/// by them, the join becomes a hash join that builds on the other
/// table's heap scan and probes with the ordered index scan.
/// `probe_first` keeps every output column where the join had it. A hash
/// join emits in probe order only while it never spills, so the caller
/// must rule out a memory budget.
fn probe_in_order(plan: &Plan, cols: &[usize]) -> Option<Plan> {
    let (left, right, left_keys, right_keys, schema) = match plan {
        Plan::Filter { input, predicate } => {
            return probe_in_order(input, cols).map(|p| Plan::Filter {
                input: Box::new(p),
                predicate: predicate.clone(),
            })
        }
        Plan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            schema,
        } => (left, right, left_keys, right_keys, schema),
        Plan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            probe_first,
            schema,
        } => match probe_first {
            false => (build, probe, build_keys, probe_keys, schema),
            true => (probe, build, probe_keys, build_keys, schema),
        },
        _ => return None,
    };
    let left_len = left.schema().len();
    let (ordered, ordered_keys, other, other_keys, side_cols, probe_first) =
        if cols.iter().all(|&c| c < left_len) {
            (left, left_keys, right, right_keys, cols.to_vec(), true)
        } else if cols.iter().all(|&c| c >= left_len) {
            let side_cols = cols.iter().map(|&c| c - left_len).collect();
            (right, right_keys, left, left_keys, side_cols, false)
        } else {
            return None;
        };
    Some(Plan::HashJoin {
        build: Box::new(bare_table_scan(other)?),
        probe: Box::new(try_index_order(&bare_table_scan(ordered)?, &side_cols)?),
        build_keys: other_keys.clone(),
        probe_keys: ordered_keys.clone(),
        probe_first,
        schema: schema.clone(),
    })
}

/// A whole-table scan, in heap or index order, as a plain heap scan
/// keeping its pushed filter.
fn bare_table_scan(plan: &Plan) -> Option<Plan> {
    let (table, filter) = match plan {
        Plan::TableScan {
            table,
            filter,
            projection: None,
            ..
        } => (table, filter),
        Plan::IndexScan {
            table,
            prefix,
            filter,
            projection: None,
            ..
        } if prefix.is_empty() => (table, filter),
        _ => return None,
    };
    Some(Plan::TableScan {
        table: table.clone(),
        filter: filter.clone(),
        projection: None,
        schema: table.schema.clone(),
    })
}

/// Column positions of `exprs` when every one is a bare column reference.
fn column_indexes(exprs: &[Expr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Column { index, .. } => Some(*index),
            _ => None,
        })
        .collect()
}

/// The argument the order-sensitive aggregates among `aggs` need their
/// input ascending by within each group, or `None` when every aggregate
/// is order-invariant. Two different ones cannot both be met.
fn order_argument(aggs: &[AggSpec]) -> Result<Option<Expr>> {
    let mut found: Option<Expr> = None;
    for a in aggs {
        let Some(arg) = a.factory.order_arg().and_then(|i| a.args.get(i)) else {
            continue;
        };
        match &found {
            Some(f) if f.to_string() != arg.to_string() => {
                return Err(DbError::Plan(format!(
                    "order-sensitive aggregates need their input ordered by both {f} and {arg}"
                )))
            }
            _ => found = Some(arg.clone()),
        }
    }
    Ok(found)
}

/// Split an ON condition into equi-join key pairs (left expr, right expr
/// over the *joint* row) plus a residual predicate.
fn split_equi_keys(
    on: &Expr,
    left_len: usize,
    _joint_len: usize,
) -> (Vec<(Expr, Expr)>, Option<Expr>) {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    let mut keys = Vec::new();
    let mut residual: Option<Expr> = None;
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            let l_side = side_of(left, left_len);
            let r_side = side_of(right, left_len);
            match (l_side, r_side) {
                (Some(false), Some(true)) => {
                    keys.push(((**left).clone(), (**right).clone()));
                    continue;
                }
                (Some(true), Some(false)) => {
                    keys.push(((**right).clone(), (**left).clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual = Some(match residual {
            None => c,
            Some(r) => Expr::binary(BinOp::And, r, c),
        });
    }
    (keys, residual)
}

fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Which side of a join does an expression reference? `Some(false)` =
/// only left columns, `Some(true)` = only right, `None` = both/neither.
fn side_of(e: &Expr, left_len: usize) -> Option<bool> {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    if cols.is_empty() {
        return None;
    }
    let all_left = cols.iter().all(|&c| c < left_len);
    let all_right = cols.iter().all(|&c| c >= left_len);
    if all_left {
        Some(false)
    } else if all_right {
        Some(true)
    } else {
        None
    }
}

/// Shift every column reference in an expression by `delta`.
fn shift_columns(e: &mut Expr, delta: isize) {
    match e {
        Expr::Column { index, .. } => {
            *index = (*index as isize + delta) as usize;
        }
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            shift_columns(left, delta);
            shift_columns(right, delta);
        }
        Expr::Not(i) | Expr::Neg(i) => shift_columns(i, delta),
        Expr::IsNull { expr, .. } => shift_columns(expr, delta),
        Expr::Func { args, .. } => {
            for a in args {
                shift_columns(a, delta);
            }
        }
    }
}

fn append_rownum(schema: &Schema) -> Schema {
    let mut cols = schema.columns().to_vec();
    cols.push(Column::new("row_number", DataType::Int));
    Schema::new(cols)
}

/// `OPENROWSET(BULK 'path', SINGLE_BLOB)`: one row, one VARBINARY column
/// with the file's contents (the paper's bulk-import idiom, §3.3).
struct OpenRowsetFn;

struct OpenRowsetCursor {
    path: String,
    emitted: bool,
    data: Option<Vec<u8>>,
}

impl seqdb_engine::TvfCursor for OpenRowsetCursor {
    fn move_next(&mut self) -> Result<bool> {
        if self.emitted {
            return Ok(false);
        }
        self.emitted = true;
        self.data = Some(
            std::fs::read(&self.path)
                .map_err(|e| DbError::Io(format!("OPENROWSET BULK '{}': {e}", self.path)))?,
        );
        Ok(true)
    }
    fn fill_row(&mut self) -> Result<Row> {
        Ok(Row::new(vec![Value::Bytes(
            self.data.take().expect("move_next loaded data").into(),
        )]))
    }
}

impl TableFunction for OpenRowsetFn {
    fn name(&self) -> &str {
        "OPENROWSET"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::new(
            "BulkColumn",
            DataType::Bytes,
        )]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn seqdb_engine::TvfCursor>> {
        let path = args
            .first()
            .ok_or_else(|| DbError::Execution("OPENROWSET needs a path".into()))?
            .as_text()?
            .to_string();
        Ok(Box::new(OpenRowsetCursor {
            path,
            emitted: false,
            data: None,
        }))
    }
}
