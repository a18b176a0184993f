//! T-SQL-subset front end for seqdb.
//!
//! Covers the statements of the paper's prototype: `CREATE TABLE` with
//! `DATA_COMPRESSION` and `FILESTREAM`, `CREATE INDEX`, `INSERT`
//! (`VALUES`, `SELECT`, and `OPENROWSET(BULK …, SINGLE_BLOB)` bulk
//! import), and `SELECT` with joins, `CROSS APPLY` of table-valued
//! functions, `GROUP BY` with (user-defined) aggregates,
//! `ROW_NUMBER() OVER (ORDER BY …)`, `TOP` and `ORDER BY` — enough to run
//! the paper's Queries 1–3 verbatim (modulo schema names).
//!
//! `EXPLAIN SELECT …` returns the physical plan as text (Figures 9–10).

#![deny(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

use std::sync::Arc;

use seqdb_engine::{Database, Plan, QueryResult, Session};
use seqdb_types::Result;

pub use parser::{parse, parse_script};

/// Ergonomic SQL entry points on [`Database`]. Statements run on its
/// server-scope session ([`Database::server_session`]): the same
/// lifecycle as [`SessionSqlExt`], with `SET` changing the server
/// defaults.
pub trait DatabaseSqlExt {
    /// Execute any single statement (DDL, DML or query).
    fn execute_sql(&self, sql: &str) -> Result<QueryResult>;
    /// Execute a `;`-separated script; returns the last statement's result.
    fn execute_sql_script(&self, sql: &str) -> Result<QueryResult>;
    /// Execute a query (alias of [`DatabaseSqlExt::execute_sql`] that
    /// reads better at call sites that expect rows back).
    fn query_sql(&self, sql: &str) -> Result<QueryResult>;
    /// Plan a SELECT without running it.
    fn plan_sql(&self, sql: &str) -> Result<Plan>;
    /// Physical plan of a SELECT as text (`EXPLAIN`).
    fn explain_sql(&self, sql: &str) -> Result<String>;
}

impl DatabaseSqlExt for Arc<Database> {
    fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        binder::execute(self, sql)
    }
    fn execute_sql_script(&self, sql: &str) -> Result<QueryResult> {
        binder::execute_script(self, sql)
    }
    fn query_sql(&self, sql: &str) -> Result<QueryResult> {
        binder::execute(self, sql)
    }
    fn plan_sql(&self, sql: &str) -> Result<Plan> {
        binder::plan_query(self, sql)
    }
    fn explain_sql(&self, sql: &str) -> Result<String> {
        Ok(binder::plan_query(self, sql)?.explain())
    }
}

/// SQL entry points on a [`Session`]. `SET` changes only this session's
/// settings, and every other statement runs admitted against the global
/// memory pool, governed by the session's effective limits, and visible
/// in `sys.dm_exec_requests` (hence killable from another session with
/// `KILL <statement id>`).
pub trait SessionSqlExt {
    /// Execute any single statement under this session.
    fn execute_sql(&self, sql: &str) -> Result<QueryResult>;
    /// Execute a `;`-separated script; returns the last statement's result.
    fn execute_sql_script(&self, sql: &str) -> Result<QueryResult>;
    /// Alias of [`SessionSqlExt::execute_sql`] for query call sites.
    fn query_sql(&self, sql: &str) -> Result<QueryResult>;
}

impl SessionSqlExt for Session {
    fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        binder::execute_on(self, sql)
    }
    fn execute_sql_script(&self, sql: &str) -> Result<QueryResult> {
        binder::execute_script_on(self, sql)
    }
    fn query_sql(&self, sql: &str) -> Result<QueryResult> {
        binder::execute_on(self, sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_types::Value;

    fn db() -> Arc<Database> {
        Database::in_memory()
    }

    #[test]
    fn ddl_insert_select_roundtrip() {
        let db = db();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, seq VARCHAR(64))")
            .unwrap();
        let r = db
            .execute_sql("INSERT INTO t VALUES (1, 'ACGT'), (2, 'GGTA'), (3, 'ACGT')")
            .unwrap();
        assert_eq!(r.affected, 3);
        let r = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        let r = db
            .query_sql("SELECT seq, COUNT(*) FROM t GROUP BY seq ORDER BY COUNT(*) DESC")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::text("ACGT"));
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn where_filters_and_charindex() {
        let db = db();
        db.execute_sql("CREATE TABLE r (id INT, seq VARCHAR(64))")
            .unwrap();
        db.execute_sql("INSERT INTO r VALUES (1,'ACGT'),(2,'ACNT'),(3,'GGGG')")
            .unwrap();
        let r = db
            .query_sql("SELECT id FROM r WHERE CHARINDEX('N', seq) = 0 ORDER BY id")
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn join_group_and_insert_select() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE tag (t_id INT PRIMARY KEY, t_freq INT);
             CREATE TABLE al (a_t_id INT, a_g_id INT);
             CREATE TABLE expr_out (g INT, total INT, n INT);
             INSERT INTO tag VALUES (1, 10), (2, 20), (3, 5);
             INSERT INTO al VALUES (1, 100), (2, 100), (3, 200);",
        )
        .unwrap();
        let r = db
            .execute_sql(
                "INSERT INTO expr_out
                 SELECT a_g_id, SUM(t_freq), COUNT(a_t_id)
                 FROM al JOIN tag ON a_t_id = t_id
                 GROUP BY a_g_id",
            )
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = db
            .query_sql("SELECT g, total, n FROM expr_out ORDER BY g")
            .unwrap();
        assert_eq!(
            r.rows[0].values(),
            &[Value::Int(100), Value::Int(30), Value::Int(2)]
        );
        assert_eq!(
            r.rows[1].values(),
            &[Value::Int(200), Value::Int(5), Value::Int(1)]
        );
    }

    #[test]
    fn row_number_window_over_aggregate() {
        // The shape of the paper's Query 1.
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE reads (seq VARCHAR(64));
             INSERT INTO reads VALUES ('A'),('A'),('A'),('B'),('B'),('C');",
        )
        .unwrap();
        let r = db
            .query_sql(
                "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC), COUNT(*), seq
                 FROM reads GROUP BY seq",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].values()[..2], [Value::Int(1), Value::Int(3)]);
        assert_eq!(r.rows[0][2], Value::text("A"));
        assert_eq!(r.rows[2].values()[..2], [Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn window_over_ordered_index_scan_skips_the_sort() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE t (k INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (3, 30), (1, 10), (2, 20);",
        )
        .unwrap();
        // The clustered PK already orders the scan by k: no Sort node,
        // and ROW_NUMBER buffers its own (budget-charged) peer frames.
        let plan = db
            .explain_sql("SELECT k, v, ROW_NUMBER() OVER (ORDER BY k) FROM t")
            .unwrap();
        assert!(!plan.contains("Sort"), "{plan}");
        assert!(plan.contains("peer frames over ordered input"), "{plan}");
        assert!(plan.contains("Clustered Index Scan"), "{plan}");
        let r = db
            .query_sql("SELECT k, v, ROW_NUMBER() OVER (ORDER BY k) FROM t")
            .unwrap();
        let triples: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|x| (x[0].as_int().unwrap(), x[2].as_int().unwrap()))
            .collect();
        assert_eq!(triples, vec![(1, 1), (2, 2), (3, 3)]);
        // A descending window still needs the Sort.
        let plan = db
            .explain_sql("SELECT k, ROW_NUMBER() OVER (ORDER BY k DESC) FROM t")
            .unwrap();
        assert!(plan.contains("Sort"), "{plan}");
    }

    #[test]
    fn top_and_order() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE t (x INT);
             INSERT INTO t VALUES (5),(3),(9),(1);",
        )
        .unwrap();
        let r = db
            .query_sql("SELECT TOP 2 x FROM t ORDER BY x DESC")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(xs, vec![9, 5]);
    }

    #[test]
    fn explain_select_returns_plan_text() {
        let db = db();
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        let plan = db
            .explain_sql("SELECT x, COUNT(*) FROM t GROUP BY x")
            .unwrap();
        assert!(plan.contains("Hash Match (Aggregate)"), "{plan}");
        let r = db
            .execute_sql("EXPLAIN SELECT x, COUNT(*) FROM t GROUP BY x")
            .unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn filestream_column_with_openrowset_and_pathname() {
        let db = db();
        // Create a source file to bulk-import.
        let dir = std::env::temp_dir().join(format!("seqdb-sqltest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fq = dir.join("lane1.fastq");
        std::fs::write(&fq, b"@r1\nACGT\n+\nIIII\n").unwrap();

        db.execute_sql(
            "CREATE TABLE ShortReadFiles (
                guid UNIQUEIDENTIFIER ROWGUIDCOL PRIMARY KEY,
                sample INT, lane INT,
                reads VARBINARY(MAX) FILESTREAM
             ) FILESTREAM_ON FS",
        )
        .unwrap();
        let sql = format!(
            "INSERT INTO ShortReadFiles (guid, sample, lane, reads)
             SELECT NEWID(), 855, 1, * FROM OPENROWSET(BULK '{}', SINGLE_BLOB)",
            fq.display()
        );
        let r = db.execute_sql(&sql).unwrap();
        assert_eq!(r.affected, 1);
        let r = db
            .query_sql(
                "SELECT sample, lane, reads.PathName(), DATALENGTH(reads) FROM ShortReadFiles",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(855));
        assert_eq!(r.rows[0][3], Value::Int(16));
        let path = r.rows[0][2].as_text().unwrap().to_string();
        assert!(std::path::Path::new(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_join_is_chosen_with_clustered_indexes() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE a (k INT PRIMARY KEY, v INT);
             CREATE TABLE b (k INT PRIMARY KEY, w INT);",
        )
        .unwrap();
        let plan = db
            .explain_sql("SELECT v, w FROM a JOIN b ON a.k = b.k")
            .unwrap();
        assert!(plan.contains("Merge Join"), "{plan}");
        assert!(plan.contains("Clustered Index Scan"), "{plan}");
    }

    #[test]
    fn subquery_in_from() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE t (g INT, v INT);
             INSERT INTO t VALUES (1,10),(1,20),(2,5);",
        )
        .unwrap();
        let r = db
            .query_sql(
                "SELECT g2, total FROM
                   (SELECT g AS g2, SUM(v) AS total FROM t GROUP BY g) x
                 ORDER BY g2",
            )
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Int(30));
        assert_eq!(r.rows[1][1], Value::Int(5));
    }

    #[test]
    fn errors_name_unknown_objects() {
        let db = db();
        assert!(db.query_sql("SELECT * FROM nosuch").is_err());
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        let e = db.query_sql("SELECT y FROM t").unwrap_err();
        assert!(e.to_string().contains("y"), "{e}");
        let e = db.query_sql("SELECT NOSUCHFN(x) FROM t").unwrap_err();
        assert!(e.to_string().contains("NOSUCHFN"), "{e}");
    }

    #[test]
    fn delete_and_update_statements() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT);
             INSERT INTO t VALUES (1,1,10),(2,1,20),(3,2,30),(4,2,40);",
        )
        .unwrap();
        // UPDATE with expression referencing the old row.
        let r = db
            .execute_sql("UPDATE t SET v = v + 100 WHERE grp = 2")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = db.query_sql("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(10 + 20 + 130 + 140));
        // DELETE with predicate.
        let r = db.execute_sql("DELETE FROM t WHERE v >= 100").unwrap();
        assert_eq!(r.affected, 2);
        let r = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        // PK index consistent after delete: reinsertion works.
        db.execute_sql("INSERT INTO t VALUES (3, 9, 9)").unwrap();
        // DELETE without predicate clears the table.
        let r = db.execute_sql("DELETE FROM t").unwrap();
        assert_eq!(r.affected, 3);
        assert_eq!(
            db.query_sql("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        db.execute_sql_script(
            "CREATE TABLE t (g INT, v INT);
             INSERT INTO t VALUES (1,1),(1,1),(1,1),(2,5),(3,2),(3,2);",
        )
        .unwrap();
        // HAVING over an aggregate in the select list.
        let r = db
            .query_sql("SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) >= 2 ORDER BY g")
            .unwrap();
        let gs: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(gs, vec![1, 3]);
        // HAVING over a hidden aggregate (not selected) and a compound.
        let r = db
            .query_sql(
                "SELECT g FROM t GROUP BY g
                 HAVING SUM(v) > 3 AND COUNT(*) < 3 ORDER BY g",
            )
            .unwrap();
        let gs: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(gs, vec![2, 3]);
    }

    #[test]
    fn primary_key_violations_surface_through_sql() {
        let db = db();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        assert!(db.execute_sql("INSERT INTO t VALUES (1)").is_err());
    }
}
