//! End-to-end tests for the hybrid Grace hash join: cost-based join
//! selection and `SET JOIN_STRATEGY` forcing, exact results under
//! budgets that force multi-level partition recursion, `EXPLAIN
//! ANALYZE` spill attribution on the join node, mid-flight `KILL`
//! cleanliness, seeded spill-write faults
//! that must fail typed without ever corrupting results, and merge joins
//! of two index scans that must give the hash join's answers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use seqdb::engine::{Database, ExecContext, QueryResult, TableFunction, TvfCursor};
use seqdb::sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb::storage::{FaultClock, FaultPlan};
use seqdb::types::{Column, DataType, DbError, Result, Row, Schema, Value};

mod common;
use common::fault_seed;

/// `NUMBERS(n)` emits 0..n — with a huge `n`, an effectively endless
/// build side for the cross-session KILL test.
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

/// Two heap tables with no useful ordering: `big` and `small`, each
/// `(k INT, pay INT)` where `k = i % keys` cycles (globally unsorted).
fn join_db(big: i64, big_keys: i64, small: i64, small_keys: i64) -> Arc<Database> {
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE big (k INT, pay INT)").unwrap();
    db.execute_sql("CREATE TABLE small (k INT, pay INT)")
        .unwrap();
    let rows: Vec<Row> = (0..big)
        .map(|i| Row::new(vec![Value::Int(i % big_keys), Value::Int(i)]))
        .collect();
    db.insert_rows("big", &rows).unwrap();
    let rows: Vec<Row> = (0..small)
        .map(|i| Row::new(vec![Value::Int(i % small_keys), Value::Int(i)]))
        .collect();
    db.insert_rows("small", &rows).unwrap();
    db
}

/// Flatten a plan-text result (one TEXT row per line) back into a string.
fn plan_text(r: &QueryResult) -> String {
    r.rows
        .iter()
        .map(|row| format!("{}\n", row[0].as_text().unwrap()))
        .collect()
}

/// Project every row to `Option<i64>` columns and sort, so join outputs
/// can be compared independent of emission order.
fn key_rows(r: &QueryResult) -> Vec<Vec<Option<i64>>> {
    let mut v: Vec<Vec<Option<i64>>> = r
        .rows
        .iter()
        .map(|row| row.values().iter().map(|c| c.as_int().ok()).collect())
        .collect();
    v.sort();
    v
}

const Q: &str = "SELECT a.k, a.pay, b.pay FROM big a JOIN small b ON (a.k = b.k)";

// ----------------------------------------------------------------------
// Cost-based selection and SET JOIN_STRATEGY forcing
// ----------------------------------------------------------------------

#[test]
fn cost_based_selection_and_strategy_forcing() {
    let db = join_db(4000, 1000, 2000, 1000);

    // Heap inputs with no exploitable order: the optimizer picks a hash
    // join and builds from the smaller (right) side.
    let p = plan_text(&db.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    assert!(p.contains("Hash Match (Inner Join)"), "{p}");
    assert!(p.contains("(build=right)"), "{p}");

    // Forcing merge wraps both unsorted sides in explicit sorts.
    db.execute_sql("SET JOIN_STRATEGY = 2").unwrap();
    let p = plan_text(&db.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    assert!(p.contains("Merge Join (Inner Join)"), "{p}");
    assert!(p.contains("Sort"), "{p}");
    let merge_rows = key_rows(&db.query_sql(Q).unwrap());

    // Forcing hash and auto agree with the forced merge result.
    db.execute_sql("SET JOIN_STRATEGY = 1").unwrap();
    let p = plan_text(&db.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    assert!(p.contains("Hash Match (Inner Join)"), "{p}");
    assert_eq!(key_rows(&db.query_sql(Q).unwrap()), merge_rows);
    db.execute_sql("SET JOIN_STRATEGY = 0").unwrap();
    assert_eq!(key_rows(&db.query_sql(Q).unwrap()), merge_rows);

    // Out-of-range values are a typed error, not a silent default.
    let err = db.execute_sql("SET JOIN_STRATEGY = 9").unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "{err}");

    // A session-scoped override stays in its session.
    let s = db.create_session();
    s.execute_sql("SET JOIN_STRATEGY = 2").unwrap();
    let p = plan_text(&s.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    assert!(p.contains("Merge Join (Inner Join)"), "{p}");
    let p = plan_text(&db.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    assert!(
        p.contains("Hash Match (Inner Join)"),
        "server saw session SET: {p}"
    );
}

// ----------------------------------------------------------------------
// Acceptance: build ≥ 4x budget completes exactly via spilling, and
// EXPLAIN ANALYZE / DM_OS_WAIT_STATS attribute the spill to the join
// ----------------------------------------------------------------------

#[test]
fn spilled_join_is_exact_and_attributes_spill_to_the_join_node() {
    let db = join_db(6000, 1500, 3000, 1500);

    // Ground truth: forced sort+merge with no memory limit.
    db.execute_sql("SET JOIN_STRATEGY = 2").unwrap();
    let expect = key_rows(&db.query_sql(Q).unwrap());
    assert_eq!(expect.len(), 12_000, "1500 keys x 4 big x 2 small");
    db.execute_sql("SET JOIN_STRATEGY = 0").unwrap();

    // The spilled partition pairs join one after another: with every
    // parallel plan allowed, EXPLAIN advertises no join workers.
    let mut cfg = db.config();
    cfg.max_dop = 4;
    cfg.parallel_threshold = 0;
    db.set_config(cfg);
    let p = plan_text(&db.query_sql(&format!("EXPLAIN {Q}")).unwrap());
    let join_line = p.lines().find(|l| l.contains("Hash Match")).unwrap();
    assert!(!join_line.contains("[DOP="), "{p}");

    // The 3000-row build side is well over 4x a 16 KiB budget, so the
    // hash join must partition to disk — and still be exact.
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 16").unwrap();
    db.temp().reset_counters();
    assert_eq!(key_rows(&db.query_sql(Q).unwrap()), expect);
    assert!(db.temp().spill_count() > 0, "join never spilled");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked partition files");

    // EXPLAIN ANALYZE pins the spill on the join operator itself.
    let p = plan_text(&db.query_sql(&format!("EXPLAIN ANALYZE {Q}")).unwrap());
    let join_line = p
        .lines()
        .find(|l| l.contains("Hash Match (Inner Join)"))
        .unwrap_or_else(|| panic!("no hash join in plan:\n{p}"));
    let files: u64 = join_line
        .split("spill_files=")
        .nth(1)
        .unwrap_or_else(|| panic!("join node has no spill actuals:\n{p}"))
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(files > 0, "{p}");

    // The waits surface under the SPILL_IO class, like every spill's.
    let r = db
        .query_sql("SELECT wait_class, wait_count, total_wait_ms FROM DM_OS_WAIT_STATS()")
        .unwrap();
    let waits = r
        .rows
        .iter()
        .find(|row| row[0].as_text().unwrap() == "SPILL_IO")
        .expect("SPILL_IO wait class missing");
    assert!(waits[1].as_int().unwrap() > 0, "no SPILL_IO waits recorded");
}

// ----------------------------------------------------------------------
// Tight budgets force recursive repartitioning and stay exact
// ----------------------------------------------------------------------

#[test]
fn tight_budget_forces_multi_level_recursion_and_stays_exact() {
    // 600 distinct keys on both sides: ~66 KiB of build entries against
    // a 4 KiB budget needs several halvings before a partition fits.
    let db = join_db(600, 600, 600, 600);
    db.execute_sql("SET JOIN_STRATEGY = 2").unwrap();
    let expect = key_rows(&db.query_sql(Q).unwrap());
    assert_eq!(expect.len(), 600);

    // On input this small the cost model would (rightly) prefer sorting,
    // so force hash: the test is about recursion depth, not selection.
    db.execute_sql("SET JOIN_STRATEGY = 1").unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 4").unwrap();
    db.temp().reset_counters();
    assert_eq!(key_rows(&db.query_sql(Q).unwrap()), expect);
    // Level-0 partitioning alone creates at most 8 files (4 build + 4
    // probe); more means partition pairs re-partitioned recursively.
    assert!(
        db.temp().spill_count() >= 16,
        "expected recursive repartitioning, saw {} spill files",
        db.temp().spill_count()
    );
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked partition files");
}

// ----------------------------------------------------------------------
// KILL mid-spill releases files, pins, and budget
// ----------------------------------------------------------------------

#[test]
fn kill_mid_spill_join_releases_files_pins_and_budget() {
    let db = Database::in_memory();
    db.catalog().register_table_fn(Arc::new(Numbers));
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, grp INT, v INT)")
        .unwrap();
    let rows: Vec<Row> = (0..12_000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]))
        .collect();
    db.insert_rows("t", &rows).unwrap();
    let pins_before = db.pool().pinned_frames();

    // The endless TVF estimates cheaper than `t`, so it becomes the
    // build side: the kill lands while the join is actively
    // partitioning it to disk under the tiny budget.
    let victim = db.create_session();
    victim.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    let victim_sid = victim.id() as i64;
    let runner = std::thread::spawn(move || {
        let start = Instant::now();
        let err = victim
            .query_sql("SELECT COUNT(*) FROM t a JOIN NUMBERS(1000000000) n ON (a.id = n.n)")
            .unwrap_err();
        (err, start.elapsed())
    });

    let killer = db.create_session();
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
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    // Let the build phase get properly underway (spilling) first.
    std::thread::sleep(Duration::from_millis(100));
    killer.execute_sql(&format!("KILL {statement_id}")).unwrap();

    let (err, elapsed) = runner.join().unwrap();
    assert!(matches!(err, DbError::Cancelled(_)), "{err}");
    assert!(elapsed < Duration::from_secs(10), "kill took {elapsed:?}");
    assert_eq!(db.pool().pinned_frames(), pins_before, "leaked buffer pins");
    assert_eq!(db.temp().live_files().unwrap(), 0, "leaked partition files");
    assert_eq!(db.statements().running_count(), 0, "statement still live");

    // The database keeps serving joins afterwards.
    let r = db
        .query_sql("SELECT COUNT(*) FROM t a JOIN t b ON (a.id = b.id)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(12_000));
}

// ----------------------------------------------------------------------
// Seeded spill-write faults: typed errors, never wrong results
// ----------------------------------------------------------------------

#[test]
fn spill_write_faults_fail_typed_and_never_corrupt_results() {
    let seed = fault_seed();
    let db = join_db(2000, 500, 1000, 500);
    // Ground truth from the resident path, before any faults are armed.
    let expect = key_rows(&db.query_sql(Q).unwrap());

    // Force hash so the faults land on join partition files (auto would
    // route this small spilling case to sort+merge instead).
    db.execute_sql("SET JOIN_STRATEGY = 1").unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    for period in [3u64, 7, 23, 101] {
        // The seed shifts the fault schedule so each CI leg explores a
        // different alignment of injected failures and partition I/O.
        let every = period + seed % period;
        db.temp().set_fault_clock(Some(FaultClock::new(FaultPlan {
            io_error_every: Some(every),
            ..FaultPlan::none()
        })));
        match db.query_sql(Q) {
            Ok(r) => assert_eq!(key_rows(&r), expect, "faulted join returned wrong rows"),
            Err(DbError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
            Err(other) => panic!("expected injected Io error, got {other:?}"),
        }
        assert_eq!(
            db.temp().live_files().unwrap(),
            0,
            "leaked files after faulted join (every {every} ops)"
        );
    }
    db.temp().set_fault_clock(None);

    // With the clock disarmed the same spilled join succeeds exactly.
    assert_eq!(key_rows(&db.query_sql(Q).unwrap()), expect);
    assert_eq!(db.temp().live_files().unwrap(), 0);
}

// ----------------------------------------------------------------------
// Property: hash join ≡ merge join on random inputs (dup + NULL keys)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_joins_agree_with_merge_under_any_budget(
        left in proptest::collection::vec((0i64..16, -1000i64..1000), 0..150),
        right in proptest::collection::vec((0i64..16, -1000i64..1000), 0..150),
        budget_kb in 2i64..8,
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE big (k INT, pay INT)").unwrap();
        db.execute_sql("CREATE TABLE small (k INT, pay INT)").unwrap();
        // Key 0 maps to NULL: NULL never joins, on either side.
        let to_row = |(k, p): &(i64, i64)| {
            let key = if *k == 0 { Value::Null } else { Value::Int(*k) };
            Row::new(vec![key, Value::Int(*p)])
        };
        db.insert_rows("big", &left.iter().map(to_row).collect::<Vec<_>>()).unwrap();
        db.insert_rows("small", &right.iter().map(to_row).collect::<Vec<_>>()).unwrap();

        db.execute_sql("SET JOIN_STRATEGY = 2").unwrap();
        let expect = key_rows(&db.query_sql(Q).unwrap());

        // Force hash with a budget small enough to spill most cases.
        let mut cfg = db.config();
        cfg.join_strategy = seqdb::engine::JoinStrategy::Hash;
        cfg.query_mem_limit_kb = Some(budget_kb as u64);
        db.set_config(cfg);
        match db.query_sql(Q) {
            Ok(r) => prop_assert_eq!(key_rows(&r), expect),
            // One key's duplicates can exceed the entire budget; the
            // join must then fail typed, never silently drop rows.
            Err(DbError::ResourceExhausted(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
        prop_assert_eq!(db.temp().live_files().unwrap(), 0, "leaked partition files");
    }
}

// ----------------------------------------------------------------------
// Merge join of two index scans (masked decode) ≡ hash join
// ----------------------------------------------------------------------

/// Wide enough that a few hundred rows span several index leaves; no
/// query reads it, so the masked index scans skip it.
const PAD: usize = 200;

const MQ: &str = "SELECT l.k, l.pay, r.pay FROM l JOIN r ON (l.k = r.k)";
const MQ_COUNT: &str = "SELECT COUNT(*) FROM l JOIN r ON (l.k = r.k)";
const MQ_GROUPED: &str =
    "SELECT l.k, COUNT(*), SUM(r.pay) FROM l JOIN r ON (l.k = r.k) GROUP BY l.k";

/// Tables `l` and `r`, each `(k INT, pay INT, pad VARCHAR(256))` under
/// a non-unique index on `k`, holding `(k, pay)` pairs; key 0 is NULL.
fn merge_db(left: &[(i64, i64)], right: &[(i64, i64)]) -> Arc<Database> {
    let db = Database::in_memory();
    for t in ["l", "r"] {
        db.execute_sql(&format!(
            "CREATE TABLE {t} (k INT, pay INT, pad VARCHAR(256))"
        ))
        .unwrap();
        db.execute_sql(&format!("CREATE INDEX ix_{t} ON {t} (k)"))
            .unwrap();
    }
    insert_pairs(&db, "l", left);
    insert_pairs(&db, "r", right);
    db
}

fn insert_pairs(db: &Arc<Database>, table: &str, pairs: &[(i64, i64)]) {
    let rows: Vec<Row> = pairs
        .iter()
        .map(|&(k, pay)| {
            let key = if k == 0 { Value::Null } else { Value::Int(k) };
            Row::new(vec![key, Value::Int(pay), Value::text("x".repeat(PAD))])
        })
        .collect();
    db.insert_rows(table, &rows).unwrap();
}

/// Join `strategy` under `budget_kb`, with every parallel plan allowed.
fn set_join(db: &Arc<Database>, strategy: seqdb::engine::JoinStrategy, budget_kb: Option<u64>) {
    let mut cfg = db.config();
    cfg.join_strategy = strategy;
    cfg.max_dop = 4;
    cfg.parallel_threshold = 0;
    cfg.query_mem_limit_kb = budget_kb;
    db.set_config(cfg);
}

/// The three queries' answers by hash join: the reference.
fn hash_answers(db: &Arc<Database>) -> [Vec<Vec<Option<i64>>>; 3] {
    set_join(db, seqdb::engine::JoinStrategy::Hash, None);
    [MQ, MQ_COUNT, MQ_GROUPED].map(|q| key_rows(&db.query_sql(q).unwrap()))
}

/// Run the three queries as merge joins of the two index scans under
/// `budget_kb` and hold them to the hash join's answers and to left-key
/// order.
fn check_merge_against(
    db: &Arc<Database>,
    expect: &[Vec<Vec<Option<i64>>>; 3],
    budget_kb: Option<u64>,
) -> std::result::Result<(), String> {
    set_join(db, seqdb::engine::JoinStrategy::Auto, budget_kb);
    let plan = db.explain_sql(MQ_GROUPED).unwrap();
    let planned = plan.contains("Merge Join (Inner Join) [l.k = r.k]")
        && plan.contains("Index Scan [l.ix_l]")
        && plan.contains("Index Scan [r.ix_r]")
        && plan.contains("Stream Aggregate")
        && !plan.contains("Gather Streams");
    if !planned {
        return Err(format!("planned:\n{plan}"));
    }
    let rows = db.query_sql(MQ).map_err(|e| e.to_string())?;
    let keys: Vec<i64> = rows.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    if keys.windows(2).any(|w| w[0] > w[1]) {
        return Err("output out of left-key order".into());
    }
    for (q, want) in [MQ, MQ_COUNT, MQ_GROUPED].iter().zip(expect) {
        let got = key_rows(&db.query_sql(q).map_err(|e| e.to_string())?);
        if got != *want {
            return Err(format!(
                "budget {budget_kb:?}: {q} differs from the hash join"
            ));
        }
    }
    Ok(())
}

/// One actual of the `EXPLAIN ANALYZE` line containing `node`.
fn actual(plan: &str, node: &str, name: &str) -> u64 {
    let line = plan
        .lines()
        .find(|l| l.contains(node))
        .unwrap_or_else(|| panic!("no {node} in:\n{plan}"));
    line.split(&format!("{name}="))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {name} on {line}"))
}

#[test]
fn merge_join_moves_a_run_of_equal_keys_across_leaves_whole() {
    // Eight rows per key on the left; on the right, 300 rows of key 20 —
    // a run across several leaves of the non-unique index — among single
    // rows of every other key, a NULL key and keys the left lacks.
    let left: Vec<(i64, i64)> = (0..320).map(|i| (1 + i / 8, i)).collect();
    let mut right: Vec<(i64, i64)> = (0..300).map(|i| (20, 1000 + i)).collect();
    right.extend((1..=45).filter(|&k| k != 20).map(|k| (k, k)));
    right.push((0, -1));
    let db = merge_db(&left, &right);

    let expect = hash_answers(&db);
    assert_eq!(expect[1], vec![vec![Some(8 * 300 + 8 * 39)]]);
    for budget in [None, Some(4), Some(8)] {
        check_merge_against(&db, &expect, budget).unwrap();
    }
    set_join(&db, seqdb::engine::JoinStrategy::Auto, None);
    let p = plan_text(
        &db.query_sql(&format!("EXPLAIN ANALYZE {MQ_COUNT}"))
            .unwrap(),
    );
    assert_eq!(actual(&p, "[l.ix_l]", "actual_rows"), 320, "{p}");
    assert_eq!(
        actual(&p, "[r.ix_r]", "actual_rows"),
        right.len() as u64,
        "{p}"
    );
}

#[test]
fn merge_join_with_an_empty_side_or_no_common_key_is_empty() {
    let some: Vec<(i64, i64)> = (0..300).map(|i| (i % 50, i)).collect();
    let disjoint: Vec<(i64, i64)> = (0..300).map(|i| (100 + i % 50, i)).collect();
    for (left, right) in [(&some, &vec![]), (&vec![], &some), (&some, &disjoint)] {
        let db = merge_db(left, right);
        let expect = hash_answers(&db);
        assert_eq!(expect[1], vec![vec![Some(0)]]);
        for budget in [None, Some(4)] {
            check_merge_against(&db, &expect, budget).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn merge_join_of_index_scans_agrees_with_hash(
        left in proptest::collection::vec((0i64..24, -1000i64..1000), 0..300),
        right in proptest::collection::vec((0i64..24, -1000i64..1000), 0..300),
        budget_kb in 4u64..9,
    ) {
        let db = merge_db(&left, &right);
        let expect = hash_answers(&db);
        for budget in [None, Some(budget_kb)] {
            let checked = check_merge_against(&db, &expect, budget);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
