//! Abstract syntax for the T-SQL subset seqdb accepts — the statements
//! the paper's prototype uses (§3.3 DDL with `DATA_COMPRESSION` and
//! `FILESTREAM`, §4.2 Queries 1–3 with GROUP BY, ROW_NUMBER, CROSS APPLY
//! and user-defined aggregates).

use seqdb_types::Value;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    DropTable {
        name: String,
    },
    Insert(Insert),
    Select(Select),
    Delete {
        table: String,
        predicate: Option<AstExpr>,
    },
    Update {
        table: String,
        assignments: Vec<(String, AstExpr)>,
        predicate: Option<AstExpr>,
    },
    /// `EXPLAIN [ANALYZE] <select>` — returns the physical plan as text;
    /// with `ANALYZE` the statement is executed and each operator line is
    /// annotated with its actual rows, `next_batch` calls, wall time, memory
    /// high-water and spill traffic.
    Explain {
        analyze: bool,
        inner: Box<Statement>,
    },
    /// `CHECKPOINT` — flush all dirty pages durably and truncate the
    /// write-ahead log (T-SQL's manual checkpoint).
    Checkpoint,
    /// `SET <option> = <n | 'text'>` — session knob (resource-governor
    /// limits, degree of parallelism, trace classes). For integer knobs
    /// `0` switches a limit off; string values are for text-typed
    /// options such as `TRACE_EVENTS`.
    Set {
        name: String,
        value: SetValue,
    },
    /// `KILL <statement-id>` — cancel a running statement in any session
    /// (T-SQL's `KILL <session id>`, at statement granularity).
    Kill(i64),
    /// `CHECK TABLE <t> [REPAIR]` / `CHECK DATABASE [REPAIR]` — integrity
    /// scrub (the `DBCC CHECKDB` analogue): verify every page and blob,
    /// with `REPAIR` rewrite corrupt pages from the buffer pool or WAL
    /// and quarantine what has no good image.
    Check {
        /// `Some(name)` for one table, `None` for the whole database.
        table: Option<String>,
        repair: bool,
    },
    /// `BACKUP DATABASE TO '<dir>' [INCREMENTAL FROM '<base>']` —
    /// online, crash-consistent backup into a fresh directory; with
    /// `INCREMENTAL FROM` only pages/blobs changed since the named base
    /// set are copied (T-SQL's `BACKUP DATABASE ... WITH DIFFERENTIAL`).
    Backup {
        dir: String,
        incremental_from: Option<String>,
    },
    /// `RESTORE DATABASE FROM '<dir>' [TO '<target>'] [VERIFY ONLY]` —
    /// with `VERIFY ONLY` run every restore-time check without writing
    /// (T-SQL's `RESTORE VERIFYONLY`); with `TO` materialize the backup
    /// chain into a fresh directory. Restoring over the live database
    /// is refused.
    Restore {
        dir: String,
        to: Option<String>,
        verify_only: bool,
    },
}

/// Right-hand side of a `SET` statement. Integer knobs and text knobs
/// share one production; the binder type-checks per option name.
#[derive(Debug, Clone, PartialEq)]
pub enum SetValue {
    Int(i64),
    Str(String),
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Table-level `PRIMARY KEY (a, b, ...)` (column-level PKs are folded
    /// into this by the parser).
    pub primary_key: Option<Vec<String>>,
    /// `WITH (DATA_COMPRESSION = NONE|ROW|PAGE)`.
    pub compression: Option<String>,
    /// `FILESTREAM_ON <group>` — accepted and recorded; seqdb has a
    /// single filestream group.
    pub filestream_on: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    /// SQL type name, uppercased, length arguments stripped.
    pub type_name: String,
    pub not_null: bool,
    pub filestream: bool,
    /// `ROWGUIDCOL` marker (accepted for fidelity with the paper's DDL).
    pub rowguidcol: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
    /// `CLUSTERED` keyword (recorded; all seqdb indexes are B+-trees).
    pub clustered: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    pub source: InsertSource,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<AstExpr>>),
    Query(Box<Select>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub top: Option<u64>,
    pub items: Vec<SelectItem>,
    pub from: Option<FromClause>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<AstExpr>,
    pub having: Option<AstExpr>,
    pub order_by: Vec<OrderItem>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: AstExpr,
    pub desc: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<JoinClause>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `table [AS alias]`
    Named { name: String, alias: Option<String> },
    /// `fn(args) [AS alias]` — a table-valued function in FROM.
    Function {
        name: String,
        args: Vec<AstExpr>,
        alias: Option<String>,
    },
    /// `(SELECT ...) AS alias`
    Subquery {
        query: Box<Select>,
        alias: Option<String>,
    },
    /// `OPENROWSET(BULK 'path', SINGLE_BLOB)`
    OpenRowset { path: String },
}

#[derive(Debug, Clone, PartialEq)]
pub enum JoinClause {
    Inner { table: TableRef, on: AstExpr },
    CrossApply { func: TableRef },
}

/// Unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Literal(Value),
    /// Possibly-qualified identifier (`a.b.c` → `["a","b","c"]`).
    Ident(Vec<String>),
    Binary {
        op: AstBinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    Neg(Box<AstExpr>),
    IsNull {
        expr: Box<AstExpr>,
        negated: bool,
    },
    /// Function call; `star` marks `COUNT(*)`. Method-style calls like
    /// `reads.PathName()` parse as `Func { name: "PATHNAME", args:[Ident(reads)] }`.
    Func {
        name: String,
        args: Vec<AstExpr>,
        star: bool,
    },
    /// `fn(...) OVER (ORDER BY ...)` — only ROW_NUMBER is supported.
    Window {
        name: String,
        order_by: Vec<OrderItem>,
    },
    /// `CAST(expr AS TYPE)`.
    Cast {
        expr: Box<AstExpr>,
        type_name: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl AstExpr {
    /// Canonical textual form used to match GROUP BY expressions against
    /// select items and ORDER BY keys (T-SQL matches them structurally).
    pub fn canonical(&self) -> String {
        match self {
            AstExpr::Literal(v) => format!("lit:{v}"),
            AstExpr::Ident(parts) => parts
                .iter()
                .map(|p| p.to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join("."),
            AstExpr::Binary { op, left, right } => {
                format!("({} {op:?} {})", left.canonical(), right.canonical())
            }
            AstExpr::Not(e) => format!("not({})", e.canonical()),
            AstExpr::Neg(e) => format!("neg({})", e.canonical()),
            AstExpr::IsNull { expr, negated } => {
                format!("isnull({},{negated})", expr.canonical())
            }
            AstExpr::Func { name, args, star } => {
                let a: Vec<String> = args.iter().map(|x| x.canonical()).collect();
                format!(
                    "{}({}{})",
                    name.to_ascii_uppercase(),
                    if *star { "*" } else { "" },
                    a.join(",")
                )
            }
            AstExpr::Window { name, .. } => format!("window:{}", name.to_ascii_uppercase()),
            AstExpr::Cast { expr, type_name } => {
                format!("cast({} as {type_name})", expr.canonical())
            }
        }
    }

    /// The last path component of an identifier (used for output column
    /// naming).
    pub fn simple_name(&self) -> Option<&str> {
        match self {
            AstExpr::Ident(parts) => parts.last().map(|s| s.as_str()),
            _ => None,
        }
    }

    /// Does this expression contain an aggregate function call (given the
    /// set of known aggregate names)?
    pub fn contains_aggregate(&self, is_agg: &dyn Fn(&str) -> bool) -> bool {
        match self {
            AstExpr::Func { name, args, .. } => {
                is_agg(name) || args.iter().any(|a| a.contains_aggregate(is_agg))
            }
            AstExpr::Binary { left, right, .. } => {
                left.contains_aggregate(is_agg) || right.contains_aggregate(is_agg)
            }
            AstExpr::Not(e) | AstExpr::Neg(e) => e.contains_aggregate(is_agg),
            AstExpr::IsNull { expr, .. } => expr.contains_aggregate(is_agg),
            AstExpr::Cast { expr, .. } => expr.contains_aggregate(is_agg),
            AstExpr::Window { .. } | AstExpr::Literal(_) | AstExpr::Ident(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_case_insensitive_on_idents_and_fns() {
        let a = AstExpr::Func {
            name: "count".into(),
            args: vec![AstExpr::Ident(vec!["Seq".into()])],
            star: false,
        };
        let b = AstExpr::Func {
            name: "COUNT".into(),
            args: vec![AstExpr::Ident(vec!["seq".into()])],
            star: false,
        };
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn contains_aggregate_walks_the_tree() {
        let is_agg = |n: &str| n.eq_ignore_ascii_case("count");
        let e = AstExpr::Binary {
            op: AstBinOp::Add,
            left: Box::new(AstExpr::Literal(Value::Int(1))),
            right: Box::new(AstExpr::Func {
                name: "COUNT".into(),
                args: vec![],
                star: true,
            }),
        };
        assert!(e.contains_aggregate(&is_agg));
        let e2 = AstExpr::Ident(vec!["x".into()]);
        assert!(!e2.contains_aggregate(&is_agg));
    }
}
