//! The paper's analysis queries (§4.2), parameterized by design suffix.

use std::sync::Arc;

use seqdb_engine::exec::agg::AggSpec;
use seqdb_engine::plan::aggregate_schema;
use seqdb_engine::{Database, Expr, Plan, QueryResult, Session};
use seqdb_sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb_types::{Result, Row, Value};

use crate::import::{E_ID, SG_ID, S_ID};

/// Query 1 — binning unique short reads (§4.2.1), verbatim shape.
pub fn query1_sql(suffix: &str) -> String {
    format!(
        "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC),
                COUNT(*),
                short_read_seq
         FROM Read{suffix}
         WHERE r_e_id={E_ID} AND r_sg_id={SG_ID} AND r_s_id={S_ID}
               AND CHARINDEX('N', short_read_seq) = 0
         GROUP BY short_read_seq"
    )
}

/// Query 2 — digital gene expression analysis (§4.2.2).
pub fn query2_sql(suffix: &str) -> String {
    format!(
        "INSERT INTO GeneExpression{suffix}
         SELECT a_g_id, a_e_id, a_sg_id, a_s_id,
                SUM(t_frequency), COUNT(a_t_id)
         FROM Alignment{suffix} JOIN Tag{suffix} ON (a_t_id = t_id)
         WHERE a_e_id={E_ID} AND a_sg_id={SG_ID} AND a_s_id={S_ID}
               AND a_g_id IS NOT NULL
         GROUP BY a_g_id, a_e_id, a_sg_id, a_s_id"
    )
}

/// Query 3 (pivot variant, §4.2.3): conceptually clean, blocking —
/// pivots every alignment into per-base rows, groups by position, calls
/// bases, and reassembles. The "huge intermediate result" plan.
pub fn query3_pivot_sql(suffix: &str) -> String {
    format!(
        "SELECT a_chr_id, AssembleSequence(position, b)
         FROM (SELECT a_chr_id, position, CallBase(base, qual) b
               FROM Alignment{suffix} JOIN Read{suffix} ON (a_t_id = r_id)
               CROSS APPLY PivotAlignment(a_pos, short_read_seq, quals, a_strand)
               WHERE a_e_id={E_ID}
               GROUP BY a_chr_id, position) x
         GROUP BY a_chr_id
         ORDER BY a_chr_id"
    )
}

/// The §5.3.3 merge-join measurement: join every alignment with its read
/// through the clustered indexes ("about 1.6 million alignments per
/// second ... using a parallel merge join").
pub fn merge_join_sql(suffix: &str) -> String {
    format!(
        "SELECT COUNT(*)
         FROM Read{suffix} JOIN Alignment{suffix} ON (a_t_id = r_id)"
    )
}

/// Query 3 (sliding-window variant, §4.2.3/§5.3.3): the order-dependent
/// `AssembleConsensus` UDA over every alignment joined with its read.
/// The aggregate declares that it needs `a_pos` ascending within each
/// chromosome, so the binder plans the paper's optimized shape: a
/// resident hash join that builds on `Read` and probes with alignments
/// in `(chromosome, position)` order through the clustered index,
/// feeding a stream aggregate. No pivoted intermediate, no blocking sort.
pub fn query3_sliding_sql(suffix: &str) -> String {
    format!(
        "SELECT a_chr_id, AssembleConsensus(a_pos, short_read_seq, quals, a_strand)
         FROM Read{suffix} JOIN Alignment{suffix} ON (a_t_id = r_id)
         GROUP BY a_chr_id"
    )
}

/// The plan the binder picks for [`query3_sliding_sql`] under the server
/// defaults.
pub fn query3_sliding_plan(db: &Arc<Database>, suffix: &str) -> Result<Plan> {
    db.plan_sql(&query3_sliding_sql(suffix))
}

/// Query 3 (pivot variant, *sort-based grouping*): the plan SQL Server
/// would use when the pivoted intermediate exceeds memory — CROSS APPLY
/// pivots every alignment, an **external sort** orders the pivoted rows
/// by (chromosome, position) — writing the whole intermediate through
/// the temporary tablespace — and two stream aggregates call and
/// assemble. This is the plan §5.3.3 declares "not practical"; the
/// consensus benchmark measures its spill volume via
/// [`seqdb_storage::TempSpace`].
pub fn query3_pivot_sorted_plan(db: &Arc<Database>, suffix: &str) -> Result<Plan> {
    use seqdb_engine::exec::sort::SortKey;
    let read = db.catalog().table(&format!("Read{suffix}"))?;
    let alignment = db.catalog().table(&format!("Alignment{suffix}"))?;
    let rs = &read.schema;
    let als = &alignment.schema;
    let rlen = rs.len();

    let join = Plan::HashJoin {
        build: Box::new(Plan::TableScan {
            table: read.clone(),
            filter: None,
            projection: None,
            schema: rs.clone(),
        }),
        probe: Box::new(Plan::TableScan {
            table: alignment.clone(),
            filter: None,
            projection: None,
            schema: als.clone(),
        }),
        build_keys: vec![Expr::col(rs.resolve("r_id")?, "r_id")],
        probe_keys: vec![Expr::col(als.resolve("a_t_id")?, "a_t_id")],
        probe_first: false,
        schema: Arc::new(rs.concat(als)),
    };
    let joint = join.schema();

    let pivot_tvf = db
        .catalog()
        .table_fn("PivotAlignment")
        .ok_or_else(|| seqdb_types::DbError::NotFound("PivotAlignment".into()))?;
    let apply_schema = Arc::new(joint.concat(&pivot_tvf.schema()));
    let a_chr = rlen + als.resolve("a_chr_id")?;
    let position = joint.len(); // first TVF output column
    let base_col = joint.len() + 1;
    let qual_col = joint.len() + 2;
    let apply = Plan::CrossApply {
        input: Box::new(join),
        tvf: pivot_tvf,
        args: vec![
            Expr::col(rlen + als.resolve("a_pos")?, "a_pos"),
            Expr::col(rs.resolve("short_read_seq")?, "short_read_seq"),
            Expr::col(rs.resolve("quals")?, "quals"),
            Expr::col(rlen + als.resolve("a_strand")?, "a_strand"),
        ],
        schema: apply_schema.clone(),
    };

    // The blocking external sort of the full pivoted intermediate.
    let sort = Plan::Sort {
        input: Box::new(apply),
        keys: vec![
            SortKey::asc(Expr::col(a_chr, "a_chr_id")),
            SortKey::asc(Expr::col(position, "position")),
        ],
    };

    // Stream-aggregate pass 1: per-position base calling.
    let g1 = vec![
        Expr::col(a_chr, "a_chr_id"),
        Expr::col(position, "position"),
    ];
    let call = AggSpec::new(
        db.catalog()
            .aggregate("CallBase")
            .ok_or_else(|| seqdb_types::DbError::NotFound("CallBase".into()))?,
        vec![Expr::col(base_col, "base"), Expr::col(qual_col, "qual")],
        "b",
    );
    let s1_schema = aggregate_schema(
        &apply_schema,
        &g1,
        &["a_chr_id".to_string(), "position".to_string()],
        std::slice::from_ref(&call),
    )?;
    let s1 = Plan::StreamAggregate {
        input: Box::new(sort),
        group_exprs: g1,
        aggs: vec![call],
        schema: s1_schema.clone(),
    };

    // Stream-aggregate pass 2: per-chromosome assembly.
    let g2 = vec![Expr::col(0, "a_chr_id")];
    let assemble = AggSpec::new(
        db.catalog()
            .aggregate("AssembleSequence")
            .ok_or_else(|| seqdb_types::DbError::NotFound("AssembleSequence".into()))?,
        vec![Expr::col(1, "position"), Expr::col(2, "b")],
        "consensus",
    );
    let s2_schema = aggregate_schema(
        &s1_schema,
        &g2,
        &["a_chr_id".to_string()],
        std::slice::from_ref(&assemble),
    )?;
    Ok(Plan::StreamAggregate {
        input: Box::new(s1),
        group_exprs: g2,
        aggs: vec![assemble],
        schema: s2_schema,
    })
}

/// `(chr_id, consensus)` pairs of a consensus result, sorted by
/// chromosome.
fn consensus_pairs(rows: &[Row]) -> Result<Vec<(i64, String)>> {
    let mut out: Vec<(i64, String)> = rows
        .iter()
        .map(|row| Ok((row[0].as_int()?, row[1].as_text()?.to_string())))
        .collect::<Result<_>>()?;
    out.sort_by_key(|(c, _)| *c);
    Ok(out)
}

/// Run the sort-based pivot plan as one statement of the server-scope
/// session; returns `(chr_id, consensus)` pairs.
pub fn run_query3_pivot_sorted(db: &Arc<Database>, suffix: &str) -> Result<Vec<(i64, String)>> {
    let (ctx, mut guard) = db.server_session().begin_statement("query3 pivot sorted")?;
    let rows = query3_pivot_sorted_plan(db, suffix)?.run(&ctx)?;
    guard.set_rows(rows.len() as u64);
    consensus_pairs(&rows)
}

/// Run Query 1 on the server-scope session and return its rows.
pub fn run_query1(db: &Arc<Database>, suffix: &str) -> Result<QueryResult> {
    run_query1_on(&db.server_session(), suffix)
}

/// Query 1 as a statement of `session`: admitted against the global
/// pool, governed by the session's effective limits, and registered in
/// `sys.dm_exec_requests` where `KILL` can reach it.
pub fn run_query1_on(session: &Session, suffix: &str) -> Result<QueryResult> {
    session.query_sql(&query1_sql(suffix))
}

/// Run Query 2 on the server-scope session; returns rows inserted.
pub fn run_query2(db: &Arc<Database>, suffix: &str) -> Result<u64> {
    run_query2_on(&db.server_session(), suffix)
}

/// Query 2 as a statement of `session` (populates
/// `GeneExpression<suffix>`): the whole `INSERT … SELECT` — join,
/// aggregation and insert — runs under the session's limits like
/// [`run_query1_on`]. Returns rows inserted.
pub fn run_query2_on(session: &Session, suffix: &str) -> Result<u64> {
    Ok(session.execute_sql(&query2_sql(suffix))?.affected)
}

/// Run the pivot consensus; returns `(chr_id, consensus)` pairs.
pub fn run_query3_pivot(db: &Arc<Database>, suffix: &str) -> Result<Vec<(i64, String)>> {
    consensus_pairs(&db.query_sql(&query3_pivot_sql(suffix))?.rows)
}

/// Run the sliding-window consensus; returns `(chr_id, consensus)` pairs
/// sorted by chromosome.
pub fn run_query3_sliding(db: &Arc<Database>, suffix: &str) -> Result<Vec<(i64, String)>> {
    consensus_pairs(&db.query_sql(&query3_sliding_sql(suffix))?.rows)
}

/// Convenience for benches: result rows of the merge-join count.
pub fn run_merge_join(db: &Arc<Database>, suffix: &str) -> Result<i64> {
    let r = db.query_sql(&merge_join_sql(suffix))?;
    r.rows[0][0].as_int()
}

/// Assert a value-level invariant used in tests and the report: Query 1
/// output matches the dataset's binning ground truth.
pub fn check_query1_against(result: &QueryResult, expected: &[(String, u64)]) -> Result<()> {
    if result.rows.len() != expected.len() {
        return Err(seqdb_types::DbError::Execution(format!(
            "Query 1 produced {} tags, dataset has {}",
            result.rows.len(),
            expected.len()
        )));
    }
    // Frequencies must be descending and the multiset of (count) equal.
    let mut counts: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r[1].as_int())
        .collect::<Result<_>>()?;
    let mut exp: Vec<i64> = expected.iter().map(|(_, c)| *c as i64).collect();
    counts.sort_unstable();
    exp.sort_unstable();
    if counts != exp {
        return Err(seqdb_types::DbError::Execution(
            "Query 1 frequency histogram does not match the dataset".into(),
        ));
    }
    for w in result.rows.windows(2) {
        if w[0][1].as_int()? < w[1][1].as_int()? {
            return Err(seqdb_types::DbError::Execution(
                "Query 1 output not ordered by frequency".into(),
            ));
        }
    }
    // Row numbers are 1..n.
    for (i, row) in result.rows.iter().enumerate() {
        if row[0] != Value::Int(i as i64 + 1) {
            return Err(seqdb_types::DbError::Execution(
                "Query 1 ROW_NUMBER not dense".into(),
            ));
        }
    }
    Ok(())
}
