//! Batch-execution equivalence and robustness: every batch size, DOP and
//! memory budget must return the result multiset a plain-Rust model of
//! the query computes (`BATCH_SIZE = 1` is row mode, `0` means 1), and
//! the governor contracts — KILL, timeouts, spill cleanup, pin
//! accounting — must hold mid-batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use seqdb::engine::{AggState, Aggregate, Database, ExecContext, TableFunction, TvfCursor};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

/// `NUMBERS(n)` emits 0..n — an effectively endless stream for the
/// cancellation and timeout tests.
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

/// `ORDERED_IDS(id)`: a group's ids, comma-joined in arrival order. It
/// declares itself order-sensitive on `id`, so the binder feeds each
/// group ascending by id — through an index when one leads with the
/// group key and `id` — into a stream aggregate.
struct OrderedIds;

#[derive(Default)]
struct OrderedIdsState(Vec<String>);

impl Aggregate for OrderedIds {
    fn name(&self) -> &str {
        "ORDERED_IDS"
    }
    fn create(&self) -> Box<dyn AggState> {
        Box::<OrderedIdsState>::default()
    }
    fn order_arg(&self) -> Option<usize> {
        Some(0)
    }
}

impl AggState for OrderedIdsState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.0.push(args[0].as_int()?.to_string());
        Ok(())
    }
    fn merge(&mut self, _other: Box<dyn AggState>) -> Result<()> {
        Err(DbError::Execution("ORDERED_IDS cannot merge".into()))
    }
    fn finish(&mut self) -> Result<Value> {
        Ok(Value::text(self.0.join(",")))
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Render rows as a sorted multiset of row strings, so two results
/// compare regardless of row order.
fn sorted_rows(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
    out.sort();
    out
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// One generated row of table `t`; `id` is its position.
struct TRow {
    id: i64,
    grp: Option<i64>,
    v: Option<i64>,
    s: Option<String>,
}

fn text_or_null(s: &Option<String>) -> Value {
    s.as_deref().map_or(Value::Null, Value::text)
}

/// `(COUNT(*), SUM(v))` over `rows`: SUM skips NULLs and is NULL when
/// nothing was summed.
fn count_sum<'a>(rows: impl Iterator<Item = &'a TRow>) -> (i64, Option<i64>) {
    rows.fold((0, None), |(n, sum), r| {
        (n + 1, r.v.map_or(sum, |v| Some(sum.unwrap_or(0) + v)))
    })
}

/// The reference evaluation: what each of the property's thirteen query
/// shapes must return over `t`, written directly from SQL semantics
/// (comparisons with NULL are not true, NULL keys never join, NULLs sort
/// first, `CHARINDEX` of NULL is NULL) and sharing no code with the
/// executor. Table `s` holds `g` = 0..=5, each once.
fn model(t: &[TRow], k: i64) -> [Vec<Row>; 13] {
    let where_v = |keep: fn(i64, i64) -> bool| {
        t.iter()
            .filter(move |r| r.v.is_some_and(|v| keep(v, k)))
            .collect::<Vec<_>>()
    };
    let q1 = where_v(|v, k| v < k)
        .iter()
        .map(|r| Row::new(vec![Value::Int(r.id), int_or_null(r.v)]))
        .collect();
    let q2 = where_v(|v, k| k >= v)
        .iter()
        .map(|r| Row::new(vec![Value::Int(r.id)]))
        .collect();
    let q3 = where_v(|v, k| v != k)
        .iter()
        .map(|r| Row::new(vec![Value::Int(r.id + r.v.unwrap()), int_or_null(r.grp)]))
        .collect();
    let mut groups: Vec<Option<i64>> = t.iter().map(|r| r.grp).collect();
    groups.sort();
    groups.dedup();
    let q4 = groups
        .iter()
        .copied()
        .map(|g| {
            let (n, sum) = count_sum(t.iter().filter(|r| r.grp == g));
            Row::new(vec![int_or_null(g), Value::Int(n), int_or_null(sum)])
        })
        .collect();
    let (n, sum) = count_sum(where_v(|v, k| v > k).into_iter());
    let q5 = vec![Row::new(vec![Value::Int(n), int_or_null(sum)])];
    let joined = t
        .iter()
        .filter(|r| r.grp.is_some_and(|g| (0..=5).contains(&g)))
        .count();
    let q6 = vec![Row::new(vec![Value::Int(joined as i64)])];
    let mut by_v_id: Vec<&TRow> = t.iter().collect();
    by_v_id.sort_by_key(|r| (r.v, r.id));
    let q7 = by_v_id
        .iter()
        .take(10)
        .map(|r| Row::new(vec![Value::Int(r.id)]))
        .collect();
    let ids = |keep: &dyn Fn(&TRow) -> bool| -> Vec<Row> {
        t.iter()
            .filter(|r| keep(r))
            .map(|r| Row::new(vec![Value::Int(r.id)]))
            .collect()
    };
    let n_free = |r: &TRow| r.s.as_deref().is_some_and(|s| !s.contains('N'));
    let q8 = ids(&|r| r.grp == Some(k.rem_euclid(9)) && n_free(r));
    let q9 = ids(&|r| r.v.is_some_and(|v| v < k) || r.s.is_none());
    let q10 = ids(&|r| r.v.is_some_and(|v| v >= k));
    let mut tags: Vec<&str> = t
        .iter()
        .filter(|r| n_free(r))
        .filter_map(|r| r.s.as_deref())
        .collect();
    tags.sort();
    tags.dedup();
    let q11 = tags
        .into_iter()
        .map(|tag| {
            let (n, sum) = count_sum(t.iter().filter(|r| r.s.as_deref() == Some(tag)));
            Row::new(vec![Value::text(tag), Value::Int(n), int_or_null(sum)])
        })
        .collect();
    // `t` is generated in id order, so each group's ids are ascending.
    let q12 = groups
        .into_iter()
        .map(|g| {
            let ids: Vec<String> = t
                .iter()
                .filter(|r| r.grp == g)
                .map(|r| r.id.to_string())
                .collect();
            Row::new(vec![int_or_null(g), Value::text(ids.join(","))])
        })
        .collect();
    let q13 = t
        .iter()
        .flat_map(|a| {
            t.iter()
                .filter(move |b| a.grp.is_some() && b.v == a.grp)
                .map(move |b| Row::new(vec![Value::Int(a.id), Value::Int(b.id)]))
        })
        .collect();
    [q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13]
}

fn counter(db: &Arc<Database>, name: &str) -> i64 {
    let r = db
        .query_sql(&format!(
            "SELECT value FROM DM_OS_PERFORMANCE_COUNTERS() WHERE counter_name = '{name}'"
        ))
        .unwrap();
    r.rows.first().map_or(0, |row| row[0].as_int().unwrap())
}

// ----------------------------------------------------------------------
// Property: every batch size × DOP × budget ≡ the in-test model
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn every_batch_size_agrees_with_the_model_on_random_plans(
        rows in proptest::collection::vec((0i64..9, -50i64..50, "[ACGTN]{0,6}"), 0..400),
        k in -60i64..60,
        budget_kb in 2i64..8,
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT, v INT, s VARCHAR(8))")
            .unwrap();
        db.execute_sql("CREATE TABLE s (g INT, name VARCHAR(8))").unwrap();
        // grp 0 maps to NULL so predicates and join keys both see NULLs;
        // v is NULL on every 7th row and s on every 5th to exercise the
        // kernel's NULL rules.
        let t: Vec<TRow> = rows
            .iter()
            .enumerate()
            .map(|(i, (g, v, s))| TRow {
                id: i as i64,
                grp: (*g != 0).then_some(*g),
                v: (i % 7 != 3).then_some(*v),
                s: (i % 5 != 4).then(|| s.clone()),
            })
            .collect();
        let t_rows: Vec<Row> = t
            .iter()
            .map(|r| {
                Row::new(vec![
                    Value::Int(r.id),
                    int_or_null(r.grp),
                    int_or_null(r.v),
                    text_or_null(&r.s),
                ])
            })
            .collect();
        db.insert_rows("t", &t_rows).unwrap();
        db.execute_sql("CREATE INDEX ix_t_grp_id ON t (grp, id)").unwrap();
        db.catalog().register_aggregate(Arc::new(OrderedIds));
        // Every join runs as a hash join, under every budget below.
        db.execute_sql("SET JOIN_STRATEGY = 1").unwrap();
        for g in 0..6i64 {
            db.insert_rows(
                "s",
                &[Row::new(vec![Value::Int(g), Value::text(format!("lane{g}"))])],
            )
            .unwrap();
        }

        // Shapes chosen to cover every native batch producer and both
        // row adapters: the scan kernel in both operand orders, with
        // AND / OR / IS NULL / CHARINDEX leaves and (NOT) interpreted,
        // filter→project, aggregation with and without GROUP BY (on an
        // int and on a text key, spilling under the small budgets), the
        // hash-join build and probe, and TopN; then a stream aggregate
        // over the (grp, id) index whose groups straddle batch edges, and
        // a hash join whose build side repeats its keys. `model`
        // evaluates the same thirteen, in the same order.
        let queries = [
            format!("SELECT id, v FROM t WHERE v < {k}"),
            format!("SELECT id FROM t WHERE {k} >= v"),
            format!("SELECT id + v, grp FROM t WHERE v <> {k}"),
            "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp".to_string(),
            format!("SELECT COUNT(*), SUM(v) FROM t WHERE v > {k}"),
            "SELECT COUNT(*) FROM t JOIN s ON (t.grp = s.g)".to_string(),
            "SELECT TOP 10 id FROM t ORDER BY v, id".to_string(),
            format!("SELECT id FROM t WHERE grp = {} AND CHARINDEX('N', s) = 0", k.rem_euclid(9)),
            format!("SELECT id FROM t WHERE v < {k} OR s IS NULL"),
            format!("SELECT id FROM t WHERE NOT (v < {k})"),
            "SELECT s, COUNT(*), SUM(v) FROM t WHERE CHARINDEX('N', s) = 0 GROUP BY s".to_string(),
            "SELECT grp, ORDERED_IDS(id) FROM t GROUP BY grp".to_string(),
            "SELECT a.id, b.id FROM t a JOIN t b ON (a.grp = b.v)".to_string(),
        ];
        let plan = |sql: &str| {
            let r = db.query_sql(&format!("EXPLAIN {sql}")).unwrap();
            r.rows.iter().map(|row| format!("{}\n", row[0].as_text().unwrap())).collect::<String>()
        };
        let stream = plan(&queries[11]);
        prop_assert!(
            stream.contains("Stream Aggregate") && stream.contains("Index Scan [t.ix_t_grp_id]"),
            "{}", stream
        );
        prop_assert!(plan(&queries[12]).contains("Hash Match (Inner Join)"), "{}", plan(&queries[12]));

        for (sql, expect) in queries.iter().zip(model(&t, k)) {
            let expect = sorted_rows(&expect);
            for batch in [0usize, 1, 7, 1024] {
                for (dop, budget) in [(1usize, 0i64), (4, budget_kb)] {
                    db.execute_sql(&format!("SET BATCH_SIZE = {batch}")).unwrap();
                    db.execute_sql(&format!("SET MAX_DOP = {dop}")).unwrap();
                    db.execute_sql(&format!("SET QUERY_MEMORY_LIMIT_KB = {budget}"))
                        .unwrap();
                    match db.query_sql(sql) {
                        Ok(r) => prop_assert_eq!(
                            sorted_rows(&r.rows),
                            expect.clone(),
                            "batch={} dop={} budget={}kb sql={}",
                            batch, dop, budget, sql
                        ),
                        // A tiny budget may legitimately refuse a join
                        // whose one hash bucket exceeds it — typed, not
                        // silent truncation.
                        Err(DbError::ResourceExhausted(_)) => {}
                        Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                    }
                    prop_assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
                }
            }
        }
        prop_assert_eq!(db.pool().pinned_frames(), 0, "leaked buffer pins");
    }
}

// ----------------------------------------------------------------------
// Property: narrow rows (only the columns a plan reads) ≡ the model
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn narrow_rows_agree_with_the_model_at_every_batch_size(
        rows in proptest::collection::vec((-50i64..50, "[ACGT]{0,6}", 0i64..1000), 200..400),
        k in 0i64..1000,
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE p (id INT PRIMARY KEY, a INT, b VARCHAR(8), c INT)")
            .unwrap();
        db.execute_sql("CREATE TABLE q (k INT PRIMARY KEY, x INT, y VARCHAR(8))")
            .unwrap();
        // `b` is NULL on every 5th row; `q` holds two ids in three.
        let p: Vec<Row> = rows
            .iter()
            .enumerate()
            .map(|(i, (a, b, c))| {
                let b = if i % 5 == 4 { Value::Null } else { Value::text(b) };
                Row::new(vec![Value::Int(i as i64), Value::Int(*a), b, Value::Int(*c)])
            })
            .collect();
        let in_q = |id: i64| id % 3 != 1;
        let y = |id: i64| Value::text(format!("y{id}"));
        let q: Vec<Row> = (0..p.len() as i64)
            .filter(|&id| in_q(id))
            .map(|id| Row::new(vec![Value::Int(id), Value::Int(2 * id - 7), y(id)]))
            .collect();
        db.insert_rows("p", &p).unwrap();
        db.insert_rows("q", &q).unwrap();

        let matched: Vec<&Row> = p.iter().filter(|r| in_q(r[0].as_int().unwrap())).collect();
        let join_one_each: Vec<Row> = matched
            .iter()
            .map(|r| Row::new(vec![r[1].clone(), y(r[0].as_int().unwrap())]))
            .collect();
        let join_count = vec![Row::new(vec![Value::Int(matched.len() as i64)])];
        let where_dropped: Vec<Row> = p
            .iter()
            .filter(|r| r[3].as_int().unwrap() < k)
            .map(|r| Row::new(vec![r[2].clone()]))
            .collect();
        let mut by_c: Vec<&Row> = p.iter().collect();
        by_c.sort_by_key(|r| (r[3].as_int().unwrap(), r[0].as_int().unwrap()));
        let order_dropped: Vec<Row> = by_c.iter().map(|r| Row::new(vec![r[0].clone()])).collect();
        let mut cs: Vec<i64> = p.iter().map(|r| r[3].as_int().unwrap()).collect();
        cs.sort();
        cs.dedup();
        let group_stats = |c: i64| {
            let members = p.iter().filter(|r| r[3] == Value::Int(c));
            members.fold((0, 0), |(n, sum), r| (n + 1, sum + r[1].as_int().unwrap()))
        };
        let group_last: Vec<Row> = cs
            .iter()
            .map(|&c| Row::new(vec![Value::Int(c), Value::Int(group_stats(c).0)]))
            .collect();
        let group_spill: Vec<Row> = cs
            .iter()
            .map(|&c| {
                let (n, sum) = group_stats(c);
                Row::new(vec![Value::Int(c), Value::Int(n), Value::Int(sum)])
            })
            .collect();
        let join_spill: Vec<Row> = matched
            .iter()
            .map(|r| Row::new(vec![r[2].clone(), y(r[0].as_int().unwrap())]))
            .collect();

        let join_sql = "SELECT COUNT(*) FROM p JOIN q ON (p.id = q.k)";
        let explain = |sql: &str| db.explain_sql(sql).unwrap();
        prop_assert!(explain(join_sql).contains("Merge Join"), "{}", explain(join_sql));
        // (strategy, budget KiB, sql, model, ordered); a budget of 0 is
        // none, and the budgeted shapes must spill.
        let shapes: [(i64, i64, String, Vec<Row>, bool); 9] = [
            (0, 0, "SELECT p.a, q.y FROM p JOIN q ON (p.id = q.k)".into(), join_one_each, false),
            (0, 0, format!("SELECT b FROM p WHERE c < {k}"), where_dropped, false),
            (0, 0, "SELECT id FROM p ORDER BY c, id".into(), order_dropped, true),
            (0, 0, join_sql.into(), join_count.clone(), false),
            (1, 0, join_sql.into(), join_count, false),
            (0, 0, "SELECT c, COUNT(*) FROM p GROUP BY c".into(), group_last, false),
            (0, 0, "SELECT * FROM p".into(), p.clone(), false),
            (1, 4, "SELECT p.b, q.y FROM p JOIN q ON (p.id = q.k)".into(), join_spill, false),
            (0, 4, "SELECT c, COUNT(*), SUM(a) FROM p GROUP BY c".into(), group_spill, false),
        ];
        for (strategy, budget, sql, expect, ordered) in &shapes {
            db.execute_sql(&format!("SET JOIN_STRATEGY = {strategy}")).unwrap();
            db.execute_sql(&format!("SET QUERY_MEMORY_LIMIT_KB = {budget}")).unwrap();
            if *strategy == 1 {
                prop_assert!(explain(sql).contains("Hash Match (Inner Join)"), "{}", explain(sql));
            }
            for batch in [1usize, 7, 1024] {
                db.execute_sql(&format!("SET BATCH_SIZE = {batch}")).unwrap();
                db.temp().reset_counters();
                let got = db.query_sql(sql).unwrap().rows;
                if *ordered {
                    prop_assert_eq!(&got, expect, "batch={} sql={}", batch, sql);
                } else {
                    prop_assert_eq!(
                        sorted_rows(&got),
                        sorted_rows(expect),
                        "batch={} sql={}",
                        batch,
                        sql
                    );
                }
                if *budget > 0 {
                    prop_assert!(db.temp().spill_count() > 0, "no spill: batch={} sql={}", batch, sql);
                }
                prop_assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
            }
        }
        prop_assert_eq!(db.pool().pinned_frames(), 0, "leaked buffer pins");
    }
}

// ----------------------------------------------------------------------
// Mid-batch KILL and timeout: cancellation is honored between (and
// inside) batches, with no leaked pins or temp files
// ----------------------------------------------------------------------

#[test]
fn kill_lands_mid_batch_without_leaks() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    let pins_before = db.pool().pinned_frames();

    let victim = db.create_session();
    victim.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    let victim_sid = victim.id() as i64;
    let runner = std::thread::spawn(move || {
        victim
            .query_sql("SELECT COUNT(*) FROM NUMBERS(1000000000)")
            .unwrap_err()
    });

    let killer = db.create_session();
    let deadline = Instant::now() + Duration::from_secs(10);
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
            None if Instant::now() > deadline => panic!("victim never registered"),
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let kills_before = counter(&db, "statement_kills");
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();
    let err = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert_eq!(counter(&db, "statement_kills"), kills_before + 1);
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");
}

#[test]
fn timeout_fires_under_batch_mode_without_leaks() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    db.execute_sql("SET QUERY_TIMEOUT_MS = 50").unwrap();
    let start = Instant::now();
    let err = db
        .query_sql("SELECT COUNT(*) FROM NUMBERS(1000000000)")
        .unwrap_err();
    assert!(matches!(err, DbError::Timeout(_)), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout must fire promptly, took {:?}",
        start.elapsed()
    );
    assert_eq!(db.pool().pinned_frames(), 0, "leaked pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked temp files");

    // The clock disarmed, the same session keeps working.
    db.execute_sql("SET QUERY_TIMEOUT_MS = 0").unwrap();
    let r = db.query_sql("SELECT COUNT(*) FROM NUMBERS(100)").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
}

// ----------------------------------------------------------------------
// Spill under batch mode: exact results, all resources released
// ----------------------------------------------------------------------

#[test]
fn batched_aggregate_spills_exactly_and_releases_everything() {
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..3000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 100)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();

    let pins_before = db.pool().pinned_frames();
    db.execute_sql("SET BATCH_SIZE = 1024").unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    let r = db
        .query_sql("SELECT id, COUNT(*) FROM t GROUP BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 3000, "every group exactly once");
    assert!(r.rows.iter().all(|row| row[1] == Value::Int(1)));
    assert!(db.temp().spill_count() > 0, "8 KiB must force a spill");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked spill files");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked pins");
    assert_eq!(counter(&db, "tempspace_live_files"), 0);
}

// ----------------------------------------------------------------------
// EXPLAIN ANALYZE surfaces batch shape
// ----------------------------------------------------------------------

/// The `EXPLAIN ANALYZE` text of `sql`, one line per plan node.
fn explain_analyze(db: &Arc<Database>, sql: &str) -> String {
    let r = db.query_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    r.rows
        .iter()
        .map(|row| row[0].as_text().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The timing-free part of an analyzed plan: per node, how many rows
/// moved in how many pulls and batches.
fn batch_shape(text: &str) -> Vec<String> {
    text.split_whitespace()
        .map(|tok| tok.trim_matches(|c| c == '(' || c == ')'))
        .filter(|tok| {
            ["actual_rows=", "nexts=", "batches=", "avg_batch="]
                .iter()
                .any(|p| tok.starts_with(p))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn explain_analyze_reports_batch_shape_and_zero_means_one() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..5000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();

    db.execute_sql("SET BATCH_SIZE = 512").unwrap();
    let text = explain_analyze(&db, "SELECT COUNT(*) FROM t WHERE v < 7");
    assert!(text.contains("batches="), "batch stats missing:\n{text}");
    assert!(text.contains("avg_batch="), "batch stats missing:\n{text}");

    // Row mode is a batch size, and 0 is accepted as a spelling of 1:
    // under both the sort hands its 600 rows up one per pull, and 512
    // per pull (two batches) otherwise.
    let sql = "SELECT n FROM NUMBERS(600) ORDER BY n";
    let wide = batch_shape(&explain_analyze(&db, sql));
    db.execute_sql("SET BATCH_SIZE = 1").unwrap();
    let one = batch_shape(&explain_analyze(&db, sql));
    db.execute_sql("SET BATCH_SIZE = 0").unwrap();
    let zero = batch_shape(&explain_analyze(&db, sql));
    assert_eq!(zero, one);
    assert!(one.contains(&"batches=600".to_string()), "{one:?}");
    assert!(wide.contains(&"batches=2".to_string()), "{wide:?}");
}

// ----------------------------------------------------------------------
// Property: filter-first scans ≡ the model
// ----------------------------------------------------------------------

/// One generated row of the filter-first tables: `id` is its position,
/// `blob` a FILESTREAM value (inline bytes, a GUID reference or NULL).
#[derive(Debug)]
struct FRow {
    id: i64,
    a: Option<i64>,
    s: Option<String>,
    b: Option<i64>,
    blob: Value,
    c: Option<i64>,
}

impl FRow {
    /// The row in table order: `id, a, s, b, blob, c`.
    fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            int_or_null(self.a),
            text_or_null(&self.s),
            int_or_null(self.b),
            self.blob.clone(),
            int_or_null(self.c),
        ]
    }
}

/// A random WHERE clause over the filter-first tables, with its SQL text
/// and a three-valued model evaluation (`None` is NULL) that shares no
/// code with the engine.
#[derive(Debug, Clone)]
enum Pred {
    /// `col <op> k`, or `k <flipped op> col`; `col` is 1 (`a`), 3 (`b`)
    /// or 5 (`c`).
    Cmp {
        col: usize,
        op: &'static str,
        k: i64,
        literal_first: bool,
    },
    /// `col IS [NOT] NULL`, over any nullable column, the FILESTREAM one
    /// included.
    IsNull {
        col: usize,
        negated: bool,
    },
    /// `CHARINDEX('<needle>', s) <op> k`.
    CharIndex {
        needle: char,
        op: &'static str,
        k: i64,
    },
    /// Interpreted only: the kernel does not compile `NOT`.
    Not(Box<Pred>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

const F_COLUMNS: [&str; 6] = ["id", "a", "s", "b", "blob", "c"];
const CMP_OPS: [&str; 6] = ["<", "<=", "=", "<>", ">=", ">"];

fn cmp_holds(op: &str, x: i64, k: i64) -> bool {
    match op {
        "<" => x < k,
        "<=" => x <= k,
        "=" => x == k,
        "<>" => x != k,
        ">=" => x >= k,
        _ => x > k,
    }
}

/// `op` with its operands swapped: `k <flip(op)> x` ⇔ `x <op> k`.
fn flip(op: &'static str) -> &'static str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">=" => "<=",
        ">" => "<",
        same => same,
    }
}

impl Pred {
    /// A predicate of at most `depth` levels of `AND` / `OR` / `NOT`,
    /// drawn from `next` (uniform below its bound).
    fn random(next: &mut impl FnMut(u64) -> u64, depth: u32) -> Pred {
        let pick = next(if depth == 0 { 3 } else { 6 });
        let op = |next: &mut dyn FnMut(u64) -> u64| CMP_OPS[next(6) as usize];
        match pick {
            0 => Pred::Cmp {
                col: [1, 3, 5][next(3) as usize],
                op: op(next),
                k: next(30) as i64 - 15,
                literal_first: next(2) == 1,
            },
            1 => Pred::IsNull {
                col: [1, 2, 3, 4, 5][next(5) as usize],
                negated: next(2) == 1,
            },
            2 => Pred::CharIndex {
                needle: ['A', 'C', 'G', 'T', 'N'][next(5) as usize],
                op: op(next),
                k: next(5) as i64,
            },
            3 => Pred::Not(Box::new(Pred::random(next, depth - 1))),
            4 => Pred::And(
                Box::new(Pred::random(next, depth - 1)),
                Box::new(Pred::random(next, depth - 1)),
            ),
            _ => Pred::Or(
                Box::new(Pred::random(next, depth - 1)),
                Box::new(Pred::random(next, depth - 1)),
            ),
        }
    }

    fn sql(&self) -> String {
        match self {
            Pred::Cmp {
                col,
                op,
                k,
                literal_first: false,
            } => format!("{} {op} {k}", F_COLUMNS[*col]),
            Pred::Cmp { col, op, k, .. } => format!("{k} {} {}", flip(op), F_COLUMNS[*col]),
            Pred::IsNull { col, negated } => {
                let not = if *negated { "NOT " } else { "" };
                format!("{} IS {not}NULL", F_COLUMNS[*col])
            }
            Pred::CharIndex { needle, op, k } => format!("CHARINDEX('{needle}', s) {op} {k}"),
            Pred::Not(p) => format!("NOT ({})", p.sql()),
            Pred::And(l, r) => format!("({}) AND ({})", l.sql(), r.sql()),
            Pred::Or(l, r) => format!("({}) OR ({})", l.sql(), r.sql()),
        }
    }

    /// SQL's three-valued truth of the predicate on `r`.
    fn eval(&self, r: &FRow) -> Option<bool> {
        match self {
            Pred::Cmp { col, op, k, .. } => {
                let x = [None, r.a, None, r.b, None, r.c][*col]?;
                Some(cmp_holds(op, x, *k))
            }
            Pred::IsNull { col, negated } => {
                let null = r.values()[*col] == Value::Null;
                Some(null != *negated)
            }
            Pred::CharIndex { needle, op, k } => {
                // 1-based position of the first match, 0 for none.
                let s = r.s.as_deref()?;
                let at = s.find(*needle).map_or(0, |i| i as i64 + 1);
                Some(cmp_holds(op, at, *k))
            }
            Pred::Not(p) => p.eval(r).map(|b| !b),
            Pred::And(l, r2) => match (l.eval(r), r2.eval(r)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pred::Or(l, r2) => match (l.eval(r), r2.eval(r)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn filter_first_scans_agree_with_the_model(
        rows in proptest::collection::vec(
            (-20i64..20, "[ACGTN]{0,6}", -20i64..20, 0i64..4, -20i64..20),
            200..500,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Columns a, s, b and c are each NULL on a different stride, and
        // `blob` cycles through inline bytes, a GUID reference and NULL.
        let t: Vec<FRow> = rows
            .iter()
            .enumerate()
            .map(|(i, (a, s, b, blob, c))| FRow {
                id: i as i64,
                a: (i % 7 != 2).then_some(*a),
                s: (i % 5 != 1).then(|| format!("CATG{s}")),
                b: (i % 6 != 4).then_some(*b),
                blob: match blob {
                    0 => Value::Null,
                    1 => Value::guid(i as u128 * 0x9e37_79b9),
                    _ => Value::bytes(format!("blob{i}").as_bytes()),
                },
                c: (i % 9 != 0).then_some(*c),
            })
            .collect();
        let t_rows: Vec<Row> = t.iter().map(|r| Row::new(r.values())).collect();

        let db = Database::in_memory();
        // Any table qualifies for the parallel aggregate.
        db.set_config(seqdb::engine::DbConfig {
            parallel_threshold: 0,
            ..db.config()
        });
        let tables = ["f_none", "f_row", "f_page"];
        for (name, comp) in tables.iter().zip(["NONE", "ROW", "PAGE"]) {
            db.execute_sql(&format!(
                "CREATE TABLE {name} (id INT NOT NULL PRIMARY KEY, a INT, s VARCHAR(12), \
                 b INT, blob VARBINARY(MAX) FILESTREAM, c INT) WITH (DATA_COMPRESSION = {comp})"
            ))
            .unwrap();
            db.insert_rows(name, &t_rows).unwrap();
            db.execute_sql(&format!("CREATE INDEX ix_{name}_b_id ON {name} (b, id)"))
                .unwrap();
        }
        db.catalog().register_aggregate(Arc::new(OrderedIds));

        // Demand lists that put a filter column before, between and after
        // the demanded ones, or leave it undemanded (`id` alone, `a`
        // alone and `*` cover the edges).
        let demands: [&[usize]; 5] = [&[0, 4, 5], &[1], &[2, 5], &[0], &[0, 1, 2, 3, 4, 5]];
        let mut state = seed;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..6 {
            let pred = Pred::random(&mut next, 3);
            let p = pred.sql();
            let kept: Vec<&FRow> = t.iter().filter(|r| pred.eval(r) == Some(true)).collect();
            let project = |cols: &[usize]| -> Vec<Row> {
                kept.iter()
                    .map(|r| {
                        let v = r.values();
                        cols.iter().map(|&c| v[c].clone()).collect()
                    })
                    .collect()
            };
            // GROUP BY b: COUNT(*) and SUM(a) per group, NULLs skipped.
            let mut groups: Vec<Option<i64>> = kept.iter().map(|r| r.b).collect();
            groups.sort();
            groups.dedup();
            let grouped: Vec<Row> = groups
                .iter()
                .map(|&g| {
                    let members = kept.iter().filter(|r| r.b == g);
                    let (n, sum) = members.fold((0, None), |(n, sum): (i64, Option<i64>), r| {
                        (n + 1, r.a.map_or(sum, |a| Some(sum.unwrap_or(0) + a)))
                    });
                    Row::new(vec![int_or_null(g), Value::Int(n), int_or_null(sum)])
                })
                .collect();
            let count = vec![Row::new(vec![Value::Int(kept.len() as i64)])];
            // ORDERED_IDS(id) GROUP BY b: each group's ids ascending, as
            // the (b, id) index hands them over.
            let ordered_ids: Vec<Row> = groups
                .iter()
                .map(|&g| {
                    let ids: Vec<String> =
                        kept.iter().filter(|r| r.b == g).map(|r| r.id.to_string()).collect();
                    Row::new(vec![int_or_null(g), Value::text(ids.join(","))])
                })
                .collect();
            for name in tables {
                // (sql, model, the plan node it must run as)
                let mut shapes: Vec<(String, Vec<Row>, &str)> = demands
                    .iter()
                    .map(|cols| {
                        let list: Vec<&str> = cols.iter().map(|&c| F_COLUMNS[c]).collect();
                        let sql = format!("SELECT {} FROM {name} WHERE {p}", list.join(", "));
                        (sql, project(cols), "Table Scan")
                    })
                    .collect();
                shapes.push((
                    format!("SELECT b, ORDERED_IDS(id) FROM {name} WHERE {p} GROUP BY b"),
                    ordered_ids.clone(),
                    "Clustered Index Scan",
                ));
                shapes.push((
                    format!("SELECT b, COUNT(*), SUM(a) FROM {name} WHERE {p} GROUP BY b"),
                    grouped.clone(),
                    "Parallelism (Gather Streams) [DOP=2]",
                ));
                shapes.push((
                    format!("SELECT COUNT(*) FROM {name} WHERE {p}"),
                    count.clone(),
                    "Parallelism (Gather Streams) [DOP=2]",
                ));
                db.execute_sql("SET MAX_DOP = 2").unwrap();
                for (sql, expect, node) in &shapes {
                    let plan = db.explain_sql(sql).unwrap();
                    // The WHERE is pushed into the scan itself.
                    prop_assert!(plan.contains(node), "{}\n{}", sql, plan);
                    prop_assert!(
                        plan.lines().any(|l| l.contains("Scan [") && l.contains("WHERE ")),
                        "{}\n{}", sql, plan
                    );
                    for batch in [1usize, 7, 1024] {
                        db.execute_sql(&format!("SET BATCH_SIZE = {batch}")).unwrap();
                        let got = db.query_sql(sql).unwrap().rows;
                        prop_assert_eq!(
                            sorted_rows(&got),
                            sorted_rows(expect),
                            "batch={} sql={}",
                            batch,
                            sql
                        );
                    }
                }
            }
        }
        prop_assert_eq!(db.pool().pinned_frames(), 0, "leaked buffer pins");
    }
}

// ----------------------------------------------------------------------
// Column edge cases through every native operator ≡ the model
// ----------------------------------------------------------------------

/// One generated row of the edge-case table `e`.
struct ERow {
    id: i64,
    k: Option<i64>,
    v: Option<i64>,
    s: Option<&'static str>,
    f: Option<f64>,
}

const EDGE_INTS: [Option<i64>; 7] = [
    None,
    Some(0),
    Some(1),
    Some(3),
    Some(-4),
    Some(i64::MIN),
    Some(i64::MAX),
];
const EDGE_TEXTS: [Option<&str>; 7] = [
    None,
    Some(""),
    Some("é"),
    Some("ACGTN"),
    Some("ACGT"),
    Some("Nßé"),
    Some("ééé"),
];
const EDGE_FLOATS: [Option<f64>; 4] = [None, Some(-1.5), Some(0.0), Some(2.25)];

fn float_or_null(f: Option<f64>) -> Value {
    f.map_or(Value::Null, Value::Float)
}

/// MIN or MAX over the non-NULL values, NULL when there are none.
fn extreme<T: Clone>(vals: impl Iterator<Item = T>, pick: impl Fn(&T, &T) -> bool) -> Option<T> {
    vals.fold(None, |acc, v| match acc {
        Some(a) if !pick(&v, &a) => Some(a),
        _ => Some(v),
    })
}

/// Each edge query with what the model says it returns.
fn edge_queries(e: &[ERow], d: &[(Option<i64>, i64)]) -> Vec<(&'static str, Vec<Row>)> {
    let ids = |keep: &dyn Fn(&ERow) -> bool, cols: &dyn Fn(&ERow) -> Vec<Value>| -> Vec<Row> {
        e.iter()
            .filter(|r| keep(r))
            .map(|r| Row::new(cols(r)))
            .collect()
    };
    let text = |s: Option<&str>| s.map_or(Value::Null, Value::text);
    let mut keys: Vec<Option<i64>> = e.iter().map(|r| r.k).collect();
    keys.sort();
    keys.dedup();
    let by_k = keys
        .iter()
        .map(|&k| {
            let g: Vec<&ERow> = e.iter().filter(|r| r.k == k).collect();
            let v = || g.iter().filter_map(|r| r.v);
            let s = || g.iter().filter_map(|r| r.s);
            let f = || g.iter().filter_map(|r| r.f);
            Row::new(vec![
                int_or_null(k),
                Value::Int(g.len() as i64),
                Value::Int(s().count() as i64),
                int_or_null(extreme(v(), |a, b| a < b)),
                int_or_null(extreme(v(), |a, b| a > b)),
                text(extreme(s(), |a, b| a.as_bytes() < b.as_bytes())),
                text(extreme(s(), |a, b| a.as_bytes() > b.as_bytes())),
                float_or_null(extreme(f(), |a, b| a < b)),
                float_or_null(extreme(f(), |a, b| a > b)),
            ])
        })
        .collect();
    let mut texts: Vec<Option<&str>> = e.iter().map(|r| r.s).collect();
    texts.sort();
    texts.dedup();
    let by_s = texts
        .iter()
        .map(|&s| {
            let g: Vec<&ERow> = e.iter().filter(|r| r.s == s).collect();
            Row::new(vec![
                text(s),
                Value::Int(g.len() as i64),
                Value::Int(g[0].id),
            ])
        })
        .collect();
    let ordered = keys
        .iter()
        .map(|&k| {
            let ids: Vec<String> = e
                .iter()
                .filter(|r| r.k == k)
                .map(|r| r.id.to_string())
                .collect();
            Row::new(vec![int_or_null(k), Value::text(ids.join(","))])
        })
        .collect();
    let joined = |keep: &dyn Fn(&ERow, i64) -> bool| -> Vec<Row> {
        e.iter()
            .flat_map(|r| {
                d.iter()
                    .filter(move |(k, w)| r.k.is_some() && *k == r.k && keep(r, *w))
                    .map(move |(_, w)| Row::new(vec![Value::Int(r.id), Value::Int(*w)]))
            })
            .collect()
    };
    let text_join = e
        .iter()
        .flat_map(|a| {
            e.iter()
                .filter(move |b| a.s.is_some() && a.s == b.s)
                .map(move |b| Row::new(vec![Value::Int(a.id), Value::Int(b.id)]))
        })
        .collect();
    let mut d_keys: Vec<Option<i64>> = d.iter().map(|(k, _)| *k).collect();
    d_keys.sort();
    d_keys.dedup();
    let d_sums = d_keys
        .iter()
        .map(|&k| {
            let ws: Vec<i64> = d
                .iter()
                .filter(|(dk, _)| *dk == k)
                .map(|(_, w)| *w)
                .collect();
            Row::new(vec![
                int_or_null(k),
                Value::Int(ws.len() as i64),
                Value::Int(ws.iter().sum()),
            ])
        })
        .collect();
    vec![
        (
            "SELECT id, k, s FROM e WHERE v > 0",
            ids(&|r| r.v.is_some_and(|v| v > 0), &|r| {
                vec![Value::Int(r.id), int_or_null(r.k), text(r.s)]
            }),
        ),
        (
            "SELECT id, s FROM e WHERE CHARINDEX('N', s) = 0",
            ids(&|r| r.s.is_some_and(|s| !s.contains('N')), &|r| {
                vec![Value::Int(r.id), text(r.s)]
            }),
        ),
        (
            "SELECT id, v, f FROM e WHERE NOT (v < 0)",
            ids(&|r| r.v.is_some_and(|v| v >= 0), &|r| {
                vec![Value::Int(r.id), int_or_null(r.v), float_or_null(r.f)]
            }),
        ),
        (
            "SELECT k, COUNT(*), COUNT(s), MIN(v), MAX(v), MIN(s), MAX(s), MIN(f), MAX(f) \
             FROM e GROUP BY k",
            by_k,
        ),
        ("SELECT s, COUNT(*), MIN(id) FROM e GROUP BY s", by_s),
        ("SELECT k, ORDERED_IDS(id) FROM e GROUP BY k", ordered),
        ("SELECT k, COUNT(*), SUM(w) FROM d GROUP BY k", d_sums),
        (
            "SELECT e.id, d.w FROM e JOIN d ON (e.k = d.k)",
            joined(&|_, _| true),
        ),
        (
            "SELECT e.id, d.w FROM e JOIN d ON (e.k = d.k) WHERE e.v > d.w",
            joined(&|r, w| r.v.is_some_and(|v| v > w)),
        ),
        (
            "SELECT a.id, b.id FROM e a JOIN e b ON (a.s = b.s)",
            text_join,
        ),
    ]
}

/// Every setting a column batch must not change the answer under:
/// `BATCH_SIZE` (1 is row mode; 7 splits duplicate keys across batches),
/// `MAX_DOP` and `JOIN_STRATEGY` (1 = hash, 2 = merge).
fn each_setting(db: &Arc<Database>, mut run: impl FnMut(&str)) {
    for batch in [1, 7, 1024] {
        for dop in [1, 2] {
            for strategy in [1, 2] {
                for set in [
                    format!("SET BATCH_SIZE = {batch}"),
                    format!("SET MAX_DOP = {dop}"),
                    format!("SET JOIN_STRATEGY = {strategy}"),
                ] {
                    db.execute_sql(&set).unwrap();
                }
                run(&format!("batch={batch} dop={dop} join={strategy}"));
            }
        }
    }
}

#[test]
fn column_edge_cases_agree_with_the_model_through_every_native_operator() {
    for seed in 1..=3u64 {
        let mut state = seed;
        let mut next = move |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let e: Vec<ERow> = (0..60)
            .map(|id| ERow {
                id,
                k: EDGE_INTS[next(EDGE_INTS.len())],
                v: EDGE_INTS[next(EDGE_INTS.len())],
                s: EDGE_TEXTS[next(EDGE_TEXTS.len())],
                f: EDGE_FLOATS[next(EDGE_FLOATS.len())],
            })
            .collect();
        // Up to 11 rows per key, so a key's rows straddle 7-row batches.
        let mut d: Vec<(Option<i64>, i64)> = Vec::new();
        for k in EDGE_INTS {
            for _ in 0..next(12) {
                d.push((k, d.len() as i64));
            }
        }

        let db = Database::in_memory();
        db.set_config(seqdb::engine::DbConfig {
            parallel_threshold: 0,
            ..db.config()
        });
        db.catalog().register_aggregate(Arc::new(OrderedIds));
        db.execute_sql(
            "CREATE TABLE e (id INT NOT NULL PRIMARY KEY, k INT, v INT, s VARCHAR(16), f FLOAT)",
        )
        .unwrap();
        db.execute_sql("CREATE TABLE d (k INT, w INT NOT NULL)")
            .unwrap();
        let e_rows: Vec<Row> = e
            .iter()
            .map(|r| {
                Row::new(vec![
                    Value::Int(r.id),
                    int_or_null(r.k),
                    int_or_null(r.v),
                    r.s.map_or(Value::Null, Value::text),
                    float_or_null(r.f),
                ])
            })
            .collect();
        db.insert_rows("e", &e_rows).unwrap();
        let d_rows: Vec<Row> = d
            .iter()
            .map(|(k, w)| Row::new(vec![int_or_null(*k), Value::Int(*w)]))
            .collect();
        db.insert_rows("d", &d_rows).unwrap();

        let queries = edge_queries(&e, &d);
        each_setting(&db, |setting| {
            for (sql, expect) in &queries {
                let got = db
                    .query_sql(sql)
                    .unwrap_or_else(|err| panic!("repro: seed={seed} {setting} `{sql}`: {err}"))
                    .rows;
                assert_eq!(
                    sorted_rows(&got),
                    sorted_rows(expect),
                    "repro: seed={seed} {setting} `{sql}`"
                );
            }
        });
        assert_eq!(db.pool().pinned_frames(), 0, "leaked buffer pins");
    }
}

#[test]
fn assemble_consensus_agrees_with_the_pivot_plan_under_every_setting() {
    use seqdb::core::dataset::{ResequencingDataset, Scale};
    use seqdb::core::{import, queries, udx};
    let dir = std::env::temp_dir().join(format!("seqdb-edge-reseq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = Scale {
        genome_bp: 20_000,
        n_chromosomes: 2,
        n_reads: 400,
        seed: 11,
    };
    let reseq = ResequencingDataset::generate(&dir, &scale).unwrap();
    let db = Database::in_memory();
    udx::register_udx(&db, None);
    import::import_reseq_normalized(&db, "", seqdb::storage::Compression::None, &reseq).unwrap();
    let pivot = queries::run_query3_pivot(&db, "").unwrap();
    assert!(!pivot.is_empty());
    each_setting(&db, |setting| {
        let sliding = queries::run_query3_sliding(&db, "")
            .unwrap_or_else(|err| panic!("repro: {setting}: {err}"));
        assert_eq!(sliding, pivot, "repro: {setting}");
    });
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
