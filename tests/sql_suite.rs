//! SQL-level integration suite: broader coverage of the T-SQL subset
//! through the public facade, including edge cases and error paths.

use seqdb::engine::Database;
use seqdb::sql::DatabaseSqlExt;
use seqdb::types::{DbError, Row, Value};

fn db() -> std::sync::Arc<Database> {
    Database::in_memory()
}

#[test]
fn joins_three_ways_agree() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE l (k INT PRIMARY KEY, v INT);
         CREATE TABLE r (k INT PRIMARY KEY, w INT);",
    )
    .unwrap();
    for i in 0..500i64 {
        db.execute_sql(&format!("INSERT INTO l VALUES ({i}, {})", i * 2))
            .unwrap();
        if i % 3 == 0 {
            db.execute_sql(&format!("INSERT INTO r VALUES ({i}, {})", i * 5))
                .unwrap();
        }
    }
    // Merge join (both indexed) — verify the planner picked it.
    let plan = db
        .explain_sql("SELECT v, w FROM l JOIN r ON l.k = r.k")
        .unwrap();
    assert!(plan.contains("Merge Join"), "{plan}");
    let res = db
        .query_sql("SELECT COUNT(*), SUM(v), SUM(w) FROM l JOIN r ON l.k = r.k")
        .unwrap();
    assert_eq!(res.rows[0][0], Value::Int(167));
    // Hash join via a subquery (no index on the derived side).
    let res2 = db
        .query_sql(
            "SELECT COUNT(*), SUM(v), SUM(w)
             FROM (SELECT k AS k2, v FROM l) x JOIN r ON x.k2 = r.k",
        )
        .unwrap();
    assert_eq!(res.rows[0].values(), res2.rows[0].values());
}

#[test]
fn group_by_multiple_columns_and_aliases() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE t (a INT, b INT, v INT);
         INSERT INTO t VALUES (1,1,10),(1,2,20),(1,1,30),(2,1,40);",
    )
    .unwrap();
    let r = db
        .query_sql(
            "SELECT a, b, SUM(v) AS total, COUNT(*) AS n
             FROM t GROUP BY a, b ORDER BY a, b",
        )
        .unwrap();
    assert_eq!(r.schema.index_of("total"), Some(2));
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].values()[2], Value::Int(40)); // (1,1)
    assert_eq!(r.rows[1].values()[2], Value::Int(20)); // (1,2)
    assert_eq!(r.rows[2].values()[2], Value::Int(40)); // (2,1)
}

#[test]
fn order_by_aliases_and_aggregates() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE t (g INT, v INT);
         INSERT INTO t VALUES (1,5),(2,50),(3,20),(1,5);",
    )
    .unwrap();
    // ORDER BY an aggregate that is not in the select list.
    let r = db
        .query_sql("SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC")
        .unwrap();
    let gs: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(gs, vec![2, 3, 1]);
    // ORDER BY the alias.
    let r = db
        .query_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY s")
        .unwrap();
    let ss: Vec<i64> = r.rows.iter().map(|x| x[1].as_int().unwrap()).collect();
    assert_eq!(ss, vec![10, 20, 50]);
}

#[test]
fn string_functions_and_casts() {
    let db = db();
    db.execute_sql("CREATE TABLE s (x VARCHAR(64))").unwrap();
    db.execute_sql("INSERT INTO s VALUES ('gattaca')").unwrap();
    let r = db
        .query_sql(
            "SELECT UPPER(x), LEN(x), SUBSTRING(x, 2, 3),
                    REPLACE(x, 'atta', '-'), CAST('42' AS INT),
                    CAST(LEN(x) AS VARCHAR(8)) + '!'
             FROM s",
        )
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::text("GATTACA"));
    assert_eq!(row[1], Value::Int(7));
    assert_eq!(row[2], Value::text("att"));
    assert_eq!(row[3], Value::text("g-ca"));
    assert_eq!(row[4], Value::Int(42));
    assert_eq!(row[5], Value::text("7!"));
}

#[test]
fn null_semantics_through_sql() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE n (x INT, y INT);
         INSERT INTO n VALUES (1, 10), (2, NULL), (NULL, 30);",
    )
    .unwrap();
    // WHERE drops NULL comparisons.
    let r = db.query_sql("SELECT COUNT(*) FROM n WHERE x > 0").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // IS NULL / IS NOT NULL.
    let r = db
        .query_sql("SELECT COUNT(*) FROM n WHERE x IS NULL")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    // Aggregates skip NULLs; COUNT(*) does not.
    let r = db
        .query_sql("SELECT COUNT(*), COUNT(y), SUM(y), AVG(y) FROM n")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Int(2));
    assert_eq!(r.rows[0][2], Value::Int(40));
    assert_eq!(r.rows[0][3], Value::Float(20.0));
    // ISNULL fallback.
    let r = db
        .query_sql("SELECT SUM(ISNULL(y, 0) + ISNULL(x, 0)) FROM n")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(43));
}

#[test]
fn top_without_order_limits_and_with_order_ranks() {
    let db = db();
    db.execute_sql("CREATE TABLE t (x INT)").unwrap();
    for i in 0..100 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    let r = db.query_sql("SELECT TOP 7 x FROM t").unwrap();
    assert_eq!(r.rows.len(), 7);
    let r = db
        .query_sql("SELECT TOP 3 x FROM t ORDER BY x DESC")
        .unwrap();
    let xs: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(xs, vec![99, 98, 97]);
}

#[test]
fn create_index_accelerates_ordered_scans() {
    let db = db();
    db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
    for i in 0..200 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({}, {i})", 200 - i))
            .unwrap();
    }
    db.execute_sql("CREATE INDEX ix_a ON t (a)").unwrap();
    // The index exists and is used for a merge join against itself via
    // another indexed table.
    db.execute_sql("CREATE TABLE u (a INT PRIMARY KEY)")
        .unwrap();
    for i in 1..=200 {
        db.execute_sql(&format!("INSERT INTO u VALUES ({i})"))
            .unwrap();
    }
    let plan = db
        .explain_sql("SELECT b FROM t JOIN u ON t.a = u.a")
        .unwrap();
    assert!(plan.contains("Merge Join"), "{plan}");
    let r = db
        .query_sql("SELECT COUNT(*) FROM t JOIN u ON t.a = u.a")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn update_keeps_every_row_in_a_non_unique_index() {
    // Every heap row must come back through the index on `grp`, which is
    // what an ordered ROW_NUMBER reads.
    fn via_index(db: &std::sync::Arc<Database>) -> Vec<i64> {
        let sql = "SELECT id, ROW_NUMBER() OVER (ORDER BY grp) FROM t";
        let plan = db.explain_sql(sql).unwrap();
        assert!(plan.contains("Clustered Index Scan"), "{plan}");
        let mut ids: Vec<i64> = db
            .query_sql(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        ids.sort();
        ids
    }
    let dir = std::env::temp_dir().join(format!("seqdb-sql-ixupd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, grp INT, note VARCHAR(16))")
            .unwrap();
        db.execute_sql("CREATE INDEX ix_grp ON t (grp)").unwrap();
        for id in 1..=4 {
            db.execute_sql(&format!("INSERT INTO t VALUES ({id}, 5, 'new')"))
                .unwrap();
        }
        // An UPDATE deletes and reinserts: the reinserted row shares `grp`
        // with the three rows before it.
        db.execute_sql("UPDATE t SET note = 'seen' WHERE id = 1")
            .unwrap();
        assert_eq!(via_index(&db), vec![1, 2, 3, 4]);
        db.checkpoint().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    db.execute_sql("UPDATE t SET note = 'again' WHERE id = 2")
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (5, 5, 'late')")
        .unwrap();
    assert_eq!(via_index(&db), vec![1, 2, 3, 4, 5]);
    let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(5));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn count(db: &std::sync::Arc<Database>, table: &str) -> Value {
    let r = db
        .query_sql(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap();
    r.rows[0][0].clone()
}

#[test]
fn a_refused_insert_leaves_no_row_behind() {
    let db = db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, s VARCHAR(8000))")
        .unwrap();
    // The row fits its heap page but not an index entry.
    let s = "A".repeat(4000);
    let e = db
        .execute_sql(&format!("INSERT INTO t VALUES (1, '{s}')"))
        .unwrap_err();
    assert!(e.to_string().contains("3500-byte limit"), "{e}");
    assert_eq!(count(&db, "t"), Value::Int(0));
    let hit = db.query_sql("SELECT id FROM t WHERE id = 1").unwrap();
    assert!(hit.rows.is_empty());
    db.execute_sql("INSERT INTO t VALUES (1, 'short')").unwrap();
    assert_eq!(count(&db, "t"), Value::Int(1));
}

#[test]
fn a_failed_update_keeps_the_row_it_was_updating() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE u (id INT NOT NULL PRIMARY KEY, s VARCHAR(16) NOT NULL);
         INSERT INTO u VALUES (1, 'a'), (2, 'b');",
    )
    .unwrap();
    let rows = |db: &std::sync::Arc<Database>| -> Vec<(i64, String)> {
        let r = db.query_sql("SELECT id, s FROM u ORDER BY id").unwrap();
        r.rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_text().unwrap().to_string()))
            .collect()
    };
    let before = rows(&db);
    // Refused on re-insert, after the delete: the original goes back.
    let e = db
        .execute_sql("UPDATE u SET id = 2 WHERE id = 1")
        .unwrap_err();
    assert!(matches!(e, DbError::Constraint(_)), "{e}");
    assert_eq!(rows(&db), before);
    // Refused by the schema before anything changes.
    let e = db
        .execute_sql("UPDATE u SET s = NULL WHERE id = 2")
        .unwrap_err();
    assert!(matches!(e, DbError::Constraint(_)), "{e}");
    assert_eq!(rows(&db), before);
    assert_eq!(count(&db, "u"), Value::Int(2));
    // Both rows are still found through the key, and still update.
    db.execute_sql("UPDATE u SET s = 'c' WHERE id = 1").unwrap();
    let hit = db.query_sql("SELECT s FROM u WHERE id = 1").unwrap();
    assert_eq!(hit.rows[0][0], Value::text("c"));
}

#[test]
fn drop_table_removes_it() {
    let db = db();
    db.execute_sql("CREATE TABLE gone (x INT)").unwrap();
    db.execute_sql("DROP TABLE gone").unwrap();
    assert!(matches!(
        db.query_sql("SELECT * FROM gone"),
        Err(DbError::NotFound(_))
    ));
    assert!(matches!(
        db.execute_sql("DROP TABLE gone"),
        Err(DbError::NotFound(_))
    ));
}

#[test]
fn compression_settings_are_transparent_to_queries() {
    let db = db();
    for (name, comp) in [("tn", "NONE"), ("tr", "ROW"), ("tp", "PAGE")] {
        db.execute_sql(&format!(
            "CREATE TABLE {name} (id INT PRIMARY KEY, seq VARCHAR(64)) WITH (DATA_COMPRESSION = {comp})"
        ))
        .unwrap();
        for i in 0..2000i64 {
            db.execute_sql(&format!(
                "INSERT INTO {name} VALUES ({i}, 'CATGGAATTC_{}')",
                i % 5
            ))
            .unwrap();
        }
    }
    let mut results = Vec::new();
    for name in ["tn", "tr", "tp"] {
        let r = db
            .query_sql(&format!(
                "SELECT seq, COUNT(*) FROM {name} GROUP BY seq ORDER BY seq"
            ))
            .unwrap();
        results.push(
            r.rows
                .iter()
                .map(|x| (x[0].as_text().unwrap().to_string(), x[1].as_int().unwrap()))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    // And the page-compressed table uses fewer pages.
    let tn = db.catalog().table("tn").unwrap().heap.allocated_bytes();
    let tp = db.catalog().table("tp").unwrap().heap.allocated_bytes();
    assert!(tp < tn, "page {tp} !< none {tn}");
}

#[test]
fn error_paths_are_descriptive() {
    let db = db();
    db.execute_sql("CREATE TABLE t (x INT NOT NULL)").unwrap();
    let e = db.execute_sql("INSERT INTO t VALUES (NULL)").unwrap_err();
    assert!(matches!(e, DbError::Constraint(_)), "{e}");
    let e = db.execute_sql("INSERT INTO t VALUES ('text')").unwrap_err();
    assert!(matches!(e, DbError::Schema(_)), "{e}");
    let e = db
        .query_sql("SELECT x FROM t GROUP BY x ORDER BY y")
        .unwrap_err();
    assert!(e.to_string().contains("y"), "{e}");
    let e = db.query_sql("SELECT MAX(x), x FROM t").unwrap_err();
    assert!(matches!(e, DbError::Plan(_)), "{e}");
}

#[test]
fn explain_of_serial_and_parallel_aggregate() {
    let db = db();
    db.execute_sql("CREATE TABLE big (g INT, v INT)").unwrap();
    // Stay under the parallel threshold: serial hash aggregate.
    db.execute_sql("INSERT INTO big VALUES (1, 1)").unwrap();
    let serial = db
        .explain_sql("SELECT g, COUNT(*) FROM big GROUP BY g")
        .unwrap();
    assert!(serial.contains("Hash Match (Aggregate)"), "{serial}");
    assert!(!serial.contains("Gather Streams"), "{serial}");
    // Lower the threshold: the same query plans parallel.
    let mut cfg = db.config();
    cfg.parallel_threshold = 1;
    cfg.max_dop = 4;
    db.set_config(cfg);
    let parallel = db
        .explain_sql("SELECT g, COUNT(*) FROM big GROUP BY g")
        .unwrap();
    assert!(parallel.contains("Gather Streams"), "{parallel}");

    // Under a memory budget the same query plans the serial hash
    // aggregate, which spills (the parallel one never does), and returns
    // the unbudgeted rows.
    let rows: Vec<Row> = (2..2000i64)
        .map(|g| Row::new(vec![Value::Int(g), Value::Int(g)]))
        .collect();
    db.insert_rows("big", &rows).unwrap();
    const Q: &str = "SELECT g, COUNT(*) FROM big GROUP BY g";
    let run = || {
        let mut rows = db.query_sql(Q).unwrap().rows;
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        rows
    };
    let unbudgeted = run();
    assert_eq!(unbudgeted.len(), 1999);
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    let budgeted = db.explain_sql(Q).unwrap();
    assert!(budgeted.contains("Hash Match (Aggregate)"), "{budgeted}");
    assert!(!budgeted.contains("Gather Streams"), "{budgeted}");
    db.temp().reset_counters();
    assert_eq!(run(), unbudgeted);
    assert!(db.temp().spill_count() > 0, "the budgeted aggregate spills");
    assert_eq!(db.temp().live_files().unwrap(), 0);
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 0").unwrap();
    let unbudgeted_plan = db.explain_sql(Q).unwrap();
    assert!(
        unbudgeted_plan.contains("Gather Streams"),
        "{unbudgeted_plan}"
    );
}

#[test]
fn explain_of_a_merge_join_shows_no_exchange_it_does_not_run() {
    let db = db();
    db.execute_sql_script(
        "CREATE TABLE l (k INT PRIMARY KEY, v INT);
         CREATE TABLE r (k INT PRIMARY KEY, w INT);
         INSERT INTO l VALUES (1, 10), (2, 20);
         INSERT INTO r VALUES (1, 5);",
    )
    .unwrap();
    // Past the parallel threshold at DOP 4 the merge join still runs on
    // one thread, and EXPLAIN says so: no Gather above it.
    let mut cfg = db.config();
    cfg.parallel_threshold = 1;
    cfg.max_dop = 4;
    db.set_config(cfg);
    const Q: &str = "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k";
    let plan = db.explain_sql(Q).unwrap();
    assert!(
        plan.contains("Merge Join (Inner Join) [l.k = r.k]\n"),
        "{plan}"
    );
    assert!(!plan.contains("Gather Streams"), "{plan}");
    assert!(!plan.contains("parallel"), "{plan}");
    assert_eq!(db.query_sql(Q).unwrap().rows[0][0], Value::Int(1));
}

#[test]
fn explain_marks_a_where_that_compiled() {
    let db = db();
    seqdb::core::create_normalized_schema(&db, "", seqdb::storage::rowfmt::Compression::None)
        .unwrap();
    db.execute_sql("INSERT INTO Read VALUES (1, 1, 1, 1, 1, 1, 0, 0, 'ACGT', 'IIII')")
        .unwrap();
    let mut cfg = db.config();
    cfg.parallel_threshold = 1;
    cfg.max_dop = 4;
    db.set_config(cfg);
    // Query 1's Figure 9 plan: the pushed-down WHERE runs compiled.
    let fig9 = db
        .explain_sql(&seqdb::core::queries::query1_sql(""))
        .unwrap();
    let scan = fig9
        .lines()
        .find(|l| l.contains("(parallel, WHERE"))
        .unwrap_or_else(|| panic!("no parallel scan line:\n{fig9}"));
    assert!(scan.ends_with(" [kernel])"), "{scan}");
    // NOT stays interpreted, and says so by saying nothing.
    let not = db
        .explain_sql("SELECT r_id FROM Read WHERE NOT (r_id < 1)")
        .unwrap();
    assert!(not.contains("WHERE NOT"), "{not}");
    assert!(!not.contains("[kernel]"), "{not}");
}

#[test]
fn a_user_charindex_decides_a_where_over_the_builtin() {
    use seqdb::engine::ScalarUdf;
    struct AlwaysOne;
    impl ScalarUdf for AlwaysOne {
        fn name(&self) -> &str {
            "CHARINDEX"
        }
        fn invoke(&self, _args: &[Value]) -> seqdb::types::Result<Value> {
            Ok(Value::Int(1))
        }
    }
    let db = db();
    db.execute_sql("CREATE TABLE r (seq VARCHAR(16))").unwrap();
    db.execute_sql("INSERT INTO r VALUES ('ACGT'), ('ACNT')")
        .unwrap();
    let n_free = "SELECT COUNT(*) FROM r WHERE CHARINDEX('N', seq) = 0";
    assert_eq!(db.query_sql(n_free).unwrap().rows[0][0], Value::Int(1));
    db.catalog().register_scalar(std::sync::Arc::new(AlwaysOne));
    assert_eq!(db.query_sql(n_free).unwrap().rows[0][0], Value::Int(0));
    let plan = db.explain_sql(n_free).unwrap();
    assert!(!plan.contains("[kernel]"), "{plan}");
}

// ----------------------------------------------------------------------
// Order-sensitive aggregates: Query 3's sliding-window consensus from SQL
// ----------------------------------------------------------------------

const RS: &str = "_rs";

/// A small re-sequencing lane `Read_rs` / `Alignment_rs` (with the
/// `(a_chr_id, a_pos)` index) and the paper's UDXs registered.
fn reseq_lane(tag: &str) -> (std::sync::Arc<Database>, std::path::PathBuf) {
    use seqdb::core::dataset::{ResequencingDataset, Scale};
    let dir = std::env::temp_dir().join(format!("seqdb-sql-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = Scale {
        genome_bp: 20_000,
        n_chromosomes: 2,
        n_reads: 1_000,
        seed: 26,
    };
    let ds = ResequencingDataset::generate(&dir, &scale).unwrap();
    let db = db();
    seqdb::core::udx::register_udx(&db, None);
    seqdb::core::import::import_reseq_normalized(
        &db,
        RS,
        seqdb::storage::rowfmt::Compression::None,
        &ds,
    )
    .unwrap();
    (db, dir)
}

#[test]
fn query3_from_sql_streams_through_the_position_index_at_server_defaults() {
    use seqdb::core::queries;
    let (db, dir) = reseq_lane("q3");
    let sql = queries::query3_sliding_sql(RS);
    let pivot = queries::run_query3_pivot(&db, RS).unwrap();
    assert!(!pivot.is_empty());

    // No Sort: alignments probe a resident hash join over Read in
    // (chromosome, position) order, straight into a stream aggregate.
    let plan = db.explain_sql(&sql).unwrap();
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), 5, "{plan}");
    assert!(lines[0].starts_with("Compute Scalar ["), "{plan}");
    assert!(
        lines[1].starts_with("  Stream Aggregate [GROUP BY a_chr_id; AssembleConsensus("),
        "{plan}"
    );
    assert_eq!(lines[2], "    Hash Match (Inner Join) [r_id = a_t_id]");
    assert_eq!(lines[3], "      Table Scan [Read_rs]");
    assert_eq!(
        lines[4],
        "      Clustered Index Scan [Alignment_rs.ix_Alignment_rs_pos] (ordered)"
    );
    assert_eq!(queries::run_query3_sliding(&db, RS).unwrap(), pivot);

    // A WHERE over the join keeps the plan: the filter sits above the
    // rewritten join, every column where it was.
    let filtered = sql.replace("GROUP BY", "WHERE a_mapq >= 0 AND r_id > 0 GROUP BY");
    let plan = db.explain_sql(&filtered).unwrap();
    assert!(
        plan.contains("Filter [") && !plan.contains("Sort ["),
        "{plan}"
    );
    assert!(plan.contains("ix_Alignment_rs_pos] (ordered)"), "{plan}");
    let got: Vec<(i64, String)> = db
        .query_sql(&filtered)
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_text().unwrap().to_string()))
        .collect();
    assert_eq!(got, pivot);

    // A budget the hash join could spill under would break probe order:
    // the binder sorts instead, and the external sort spills correctly.
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 64").unwrap();
    let plan = db.explain_sql(&sql).unwrap();
    assert!(plan.contains("Sort [a_chr_id, a_pos]"), "{plan}");
    db.temp().reset_counters();
    assert_eq!(queries::run_query3_sliding(&db, RS).unwrap(), pivot);
    assert!(db.temp().spill_count() > 0, "the sort never spilled");
    assert_eq!(db.temp().live_files().unwrap(), 0);
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 0").unwrap();

    // Forced merge sorts; forced hash keeps the index-ordered probe; row
    // mode changes nothing.
    for (set, sorted) in [("JOIN_STRATEGY = 2", true), ("JOIN_STRATEGY = 1", false)] {
        db.execute_sql(&format!("SET {set}")).unwrap();
        let plan = db.explain_sql(&sql).unwrap();
        assert_eq!(plan.contains("Sort ["), sorted, "{set}:\n{plan}");
        assert_eq!(
            queries::run_query3_sliding(&db, RS).unwrap(),
            pivot,
            "{set}"
        );
    }
    db.execute_sql("SET JOIN_STRATEGY = 0").unwrap();
    db.execute_sql("SET BATCH_SIZE = 1").unwrap();
    assert_eq!(queries::run_query3_sliding(&db, RS).unwrap(), pivot);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query3_without_a_position_index_sorts_and_agrees() {
    use seqdb::core::queries;
    let (db, dir) = reseq_lane("noix");
    db.execute_sql_script(
        "CREATE TABLE Read_nx (r_id INT NOT NULL PRIMARY KEY,
                               short_read_seq VARCHAR(512), quals VARCHAR(512));
         CREATE TABLE Alignment_nx (a_id INT NOT NULL PRIMARY KEY, a_t_id INT,
                                    a_chr_id INT, a_pos INT, a_strand VARCHAR(1));
         INSERT INTO Read_nx SELECT r_id, short_read_seq, quals FROM Read_rs;
         INSERT INTO Alignment_nx
           SELECT a_id, a_t_id, a_chr_id, a_pos, a_strand FROM Alignment_rs;",
    )
    .unwrap();
    let plan = db.explain_sql(&queries::query3_sliding_sql("_nx")).unwrap();
    assert!(plan.contains("Sort [a_chr_id, a_pos]"), "{plan}");
    assert!(plan.contains("Stream Aggregate"), "{plan}");
    assert_eq!(
        queries::run_query3_sliding(&db, "_nx").unwrap(),
        queries::run_query3_pivot(&db, RS).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_order_sensitive_aggregate_streams_through_an_index_of_one_table() {
    let db = db();
    seqdb::core::udx::register_udx(&db, None);
    let q = seqdb::core::udx::DB_QUAL_ENCODING.encode(&[seqdb::bio::quality::Phred(30); 4]);
    db.execute_sql_script(&format!(
        "CREATE TABLE al (chrom INT, pos INT, seq VARCHAR(8), quals VARCHAR(8));
         CREATE INDEX ix_al ON al (chrom, pos);
         INSERT INTO al VALUES (2, 3, 'CCCC', '{q}'), (1, 9, 'AAAA', '{q}'),
                               (1, 0, 'ACGT', '{q}'), (1, 2, 'GTTT', '{q}');"
    ))
    .unwrap();
    let sql = "SELECT chrom, AssembleConsensus(pos, seq, quals) FROM al GROUP BY chrom";
    let plan = db.explain_sql(sql).unwrap();
    assert!(plan.contains("Stream Aggregate"), "{plan}");
    assert!(
        plan.contains("Clustered Index Scan [al.ix_al] (ordered)"),
        "{plan}"
    );
    assert!(!plan.contains("Sort ["), "{plan}");
    let r = db.query_sql(sql).unwrap();
    let got: Vec<(Value, Value)> = r
        .rows
        .iter()
        .map(|x| (x[0].clone(), x[1].clone()))
        .collect();
    assert_eq!(
        got,
        [
            (Value::Int(1), Value::text("ACGTTTNNNAAAA")),
            (Value::Int(2), Value::text("CCCC"))
        ]
    );

    // Two order-sensitive aggregates over different arguments cannot
    // both be fed in order.
    let err = db
        .query_sql(
            "SELECT AssembleConsensus(pos, seq, quals), AssembleConsensus(chrom, seq, quals)
             FROM al",
        )
        .unwrap_err();
    assert!(matches!(err, DbError::Plan(_)), "{err}");
}

#[test]
fn a_script_files_each_statement_under_its_own_text() {
    use seqdb::engine::fingerprint;
    let db = db();
    let statements = [
        "CREATE TABLE s (a INT)",
        "INSERT INTO s VALUES (1)",
        "SELECT a FROM s",
    ];
    db.execute_sql_script(&format!("{};\n", statements.join(";\n  ")))
        .unwrap();
    let r = db
        .query_sql("SELECT query_text FROM DM_DB_QUERY_STORE()")
        .unwrap();
    let texts: Vec<&str> = r.rows.iter().map(|x| x[0].as_text().unwrap()).collect();
    for s in statements {
        let want = fingerprint(s).1;
        assert!(texts.contains(&want.as_str()), "{s} missing: {texts:?}");
    }
}
