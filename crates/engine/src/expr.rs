//! Scalar expression evaluation.
//!
//! Expressions are fully resolved at plan time: column references are
//! positional, function calls hold an `Arc` to the resolved
//! [`ScalarUdf`]. The interpreter evaluates one row at a time through a
//! [`RowView`]: a [`Row`](seqdb_types::Row), or a row of a column batch read in place. A
//! WHERE clause of the common shapes compiles to a `Kernel` that reads
//! the cells borrowed and builds no `Value`.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use seqdb_types::{DbError, Result, Value, ValueRef};

use crate::exec::RowView;

use crate::udx::ScalarUdf;

/// Binary operators. Comparisons use SQL three-valued logic (NULL
/// propagates); `And`/`Or` short-circuit with SQL NULL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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

impl BinOp {
    pub fn sql_symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Whether comparison `self` holds between two values that compare
    /// as `ord`.
    #[inline(always)]
    fn holds(self, ord: Ordering) -> bool {
        match self {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!("{self:?} is not a comparison"),
        }
    }

    /// The comparison with its operands swapped: `a < b` ⇔ `b > a`.
    fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }
}

/// A scalar expression over an input row.
#[derive(Clone)]
pub enum Expr {
    /// Positional column reference, with the display name kept for EXPLAIN.
    Column {
        index: usize,
        name: String,
    },
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Resolved scalar function call.
    Func {
        udf: Arc<dyn ScalarUdf>,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(index: usize, name: impl Into<String>) -> Expr {
        Expr::Column {
            index,
            name: name.into(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Evaluate against a row.
    pub fn eval<R: RowView + ?Sized>(&self, row: &R) -> Result<Value> {
        match self {
            Expr::Column { index, name } => row.value(*index).ok_or_else(|| {
                DbError::Execution(format!(
                    "column {name} (#{index}) out of range for row of {} values",
                    row.width()
                ))
            }),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            Expr::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                v => Err(DbError::Execution(format!(
                    "cannot negate {}",
                    v.type_name()
                ))),
            },
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            Expr::Func { udf, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                // User code runs inside the engine; a panicking UDF must
                // fail its query, not the process (paper §2.3.1).
                crate::udx::protect(udf.name(), || udf.invoke(&vals))
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn eval_predicate<R: RowView + ?Sized>(&self, row: &R) -> Result<bool> {
        match self.eval(row)? {
            Value::Null => Ok(false),
            v => v.as_bool(),
        }
    }

    /// All column indexes referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column { index, .. } => out.push(*index),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite column indexes through a mapping (used to point an
    /// operator's expressions at its input's narrow rows, see
    /// [`crate::exec::Layout`]). `map[i]` is the new index of old column
    /// `i`; a column mapped to `None`, or beyond the map, fails typed.
    pub fn remap_columns(&mut self, map: &[Option<usize>]) -> Result<()> {
        match self {
            Expr::Column { index, name } => {
                *index = map.get(*index).copied().flatten().ok_or_else(|| {
                    DbError::Plan(format!("column {name} is not in its input's rows"))
                })?;
                Ok(())
            }
            Expr::Literal(_) => Ok(()),
            Expr::Binary { left, right, .. } => {
                left.remap_columns(map)?;
                right.remap_columns(map)
            }
            Expr::Not(e) | Expr::Neg(e) => e.remap_columns(map),
            Expr::IsNull { expr, .. } => expr.remap_columns(map),
            Expr::Func { args, .. } => {
                for a in args {
                    a.remap_columns(map)?;
                }
                Ok(())
            }
        }
    }
}

/// A WHERE clause compiled once per operator instead of walked per row.
///
/// Leaves are `column <cmp> int-literal`, `column IS [NOT] NULL` and the
/// engine's own `CHARINDEX(text-literal, column) <cmp> int-literal`, the
/// comparisons in either operand order; `AND` / `OR` combine leaves.
/// `NOT` does not compose this way under three-valued logic and stays
/// interpreted. [`Kernel::compile`] succeeds only when the whole predicate
/// has this shape.
#[derive(Clone, Debug)]
pub(crate) enum Kernel {
    IntCmp {
        col: usize,
        op: BinOp,
        k: i64,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    CharIndex {
        col: usize,
        needle: Arc<str>,
        op: BinOp,
        k: i64,
    },
    /// Nested `AND`s flattened, in the interpreter's left-to-right order.
    And(Vec<Kernel>),
    /// Nested `OR`s flattened likewise.
    Or(Vec<Kernel>),
}

/// A SQL truth value (`None` is NULL), as a kernel node computes it.
type Truth = Option<bool>;

impl Kernel {
    /// Compile `expr`, normalising `literal <cmp> x` to `x <flipped> literal`.
    pub(crate) fn compile(expr: &Expr) -> Option<Kernel> {
        match expr {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                let mut parts = Vec::new();
                for side in [left, right] {
                    match (op, Kernel::compile(side)?) {
                        (BinOp::And, Kernel::And(inner)) | (BinOp::Or, Kernel::Or(inner)) => {
                            parts.extend(inner)
                        }
                        (_, leaf) => parts.push(leaf),
                    }
                }
                Some(match op {
                    BinOp::And => Kernel::And(parts),
                    _ => Kernel::Or(parts),
                })
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (x, op, k) = match (left.as_ref(), right.as_ref()) {
                    (x, Expr::Literal(Value::Int(k))) => (x, *op, *k),
                    (Expr::Literal(Value::Int(k)), x) => (x, op.flipped(), *k),
                    _ => return None,
                };
                match x {
                    Expr::Column { index, .. } => Some(Kernel::IntCmp { col: *index, op, k }),
                    Expr::Func { udf, args } => match args.as_slice() {
                        // Only the builtin: a user function registered as
                        // CHARINDEX replaced it and may mean anything.
                        [Expr::Literal(Value::Text(needle)), Expr::Column { index, .. }]
                            if (udf.as_ref() as &dyn std::any::Any)
                                .is::<crate::builtins::CharIndexFn>() =>
                        {
                            Some(Kernel::CharIndex {
                                col: *index,
                                needle: needle.clone(),
                                op,
                                k,
                            })
                        }
                        _ => None,
                    },
                    _ => None,
                }
            }
            Expr::IsNull { expr, negated } => match expr.as_ref() {
                Expr::Column { index, .. } => Some(Kernel::IsNull {
                    col: *index,
                    negated: *negated,
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether `row` passes; NULL and FALSE both reject. `None` when a
    /// leaf meets a value outside its domain — a missing column, a
    /// non-integer compared with an integer, a non-text haystack — where
    /// the interpreter might convert or fail: the caller re-runs the row
    /// through [`Expr::eval_predicate`], so results and errors are the
    /// interpreter's.
    #[inline]
    pub(crate) fn eval<R: RowView + ?Sized>(&self, row: &R) -> Option<bool> {
        Some(self.truth(row)? == Some(true))
    }

    /// Visits the leaves the interpreter would, in its order and with its
    /// short-circuits (an `AND` stops at FALSE, an `OR` at TRUE, NULL
    /// stops neither), so every leaf it would fail on is a leaf seen here.
    fn truth<R: RowView + ?Sized>(&self, row: &R) -> Option<Truth> {
        match self {
            Kernel::And(parts) | Kernel::Or(parts) => {
                // The value that decides the whole: FALSE for AND, TRUE for OR.
                let decides = matches!(self, Kernel::Or(_));
                let mut acc = Some(!decides);
                for p in parts {
                    match p.node_truth(row)? {
                        Some(b) if b == decides => return Some(Some(decides)),
                        None => acc = None,
                        Some(_) => {}
                    }
                }
                Some(acc)
            }
            leaf => leaf.node_truth(row),
        }
    }

    /// A leaf evaluated in place (inlined into the `AND` / `OR` loops);
    /// a nested `AND` / `OR` recurses.
    #[inline(always)]
    fn node_truth<R: RowView + ?Sized>(&self, row: &R) -> Option<Truth> {
        Some(match self {
            Kernel::IntCmp { col, op, k } => match row.cell(*col)? {
                ValueRef::Int(v) => Some(op.holds(v.cmp(k))),
                ValueRef::Null => None,
                _ => return None,
            },
            Kernel::IsNull { col, negated } => Some(row.cell(*col)?.is_null() != *negated),
            Kernel::CharIndex { col, needle, op, k } => match row.cell(*col)? {
                ValueRef::Text(s) => Some(op.holds(crate::builtins::charindex(needle, s).cmp(k))),
                ValueRef::Null => None,
                _ => return None,
            },
            Kernel::And(_) | Kernel::Or(_) => return self.truth(row),
        })
    }
}

/// Evaluate a WHERE predicate on one row through its compiled kernel,
/// re-running the rows the kernel declines through the interpreter.
#[inline]
pub(crate) fn passes<R: RowView + ?Sized>(
    pred: &Expr,
    kernel: Option<&Kernel>,
    row: &R,
) -> Result<bool> {
    match kernel.and_then(|k| k.eval(row)) {
        Some(pass) => Ok(pass),
        None => pred.eval_predicate(row),
    }
}

/// Which expressions of a projection list may *move* their column out
/// of the input batch instead of copying it: bare column references
/// whose column no other expression in the list touches. Safe because
/// the input batch is dropped right after the projection, and a column
/// taken here is by construction read by nothing else.
pub fn take_plan(exprs: &[Expr]) -> Vec<bool> {
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut refs = Vec::new();
    for e in exprs {
        refs.clear();
        e.referenced_columns(&mut refs);
        for &i in &refs {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    exprs
        .iter()
        .map(|e| matches!(e, Expr::Column { index, .. } if counts.get(index) == Some(&1)))
        .collect()
}

fn eval_binary<R: RowView + ?Sized>(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    row: &R,
) -> Result<Value> {
    // AND/OR need SQL three-valued logic with short-circuiting.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = left.eval(row)?;
        let l_bool = if l.is_null() {
            None
        } else {
            Some(l.as_bool()?)
        };
        match (op, l_bool) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(row)?;
        let r_bool = if r.is_null() {
            None
        } else {
            Some(r.as_bool()?)
        };
        return Ok(match (op, l_bool, r_bool) {
            (BinOp::And, Some(true), Some(b)) => Value::Bool(b),
            (BinOp::And, _, Some(false)) => Value::Bool(false),
            (BinOp::And, _, _) => Value::Null,
            (BinOp::Or, Some(false), Some(b)) => Value::Bool(b),
            (BinOp::Or, _, Some(true)) => Value::Bool(true),
            (BinOp::Or, _, _) => Value::Null,
            _ => unreachable!(),
        });
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            // Comparable only within a type class; mixed numeric is fine.
            let comparable = matches!(
                (&l, &r),
                (
                    Value::Int(_) | Value::Float(_),
                    Value::Int(_) | Value::Float(_)
                ) | (Value::Text(_), Value::Text(_))
                    | (Value::Bytes(_), Value::Bytes(_))
                    | (Value::Bool(_), Value::Bool(_))
                    | (Value::Guid(_), Value::Guid(_))
            );
            if !comparable {
                return Err(DbError::Execution(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                )));
            }
            Ok(Value::Bool(op.holds(l.total_cmp(&r))))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a.checked_div(*b)
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a.checked_rem(*b)
                    }
                    _ => unreachable!(),
                };
                v.map(Value::Int)
                    .ok_or_else(|| DbError::Execution("integer overflow".into()))
            }
            (Value::Text(a), Value::Text(b)) if op == BinOp::Add => {
                // T-SQL string concatenation with `+`.
                Ok(Value::text(format!("{a}{b}")))
            }
            _ => {
                let a = l.as_float()?;
                let b = r.as_float()?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(DbError::Execution("division by zero".into()));
                        }
                        a / b
                    }
                    BinOp::Mod => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::Float(v))
            }
        },
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { name, .. } => write!(f, "{name}"),
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql_symbol())
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Func { udf, args } => {
                write!(f, "{}(", udf.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqdb_types::Row;

    fn row() -> Row {
        Row::new(vec![Value::Int(10), Value::text("ACGTN"), Value::Null])
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Mul, Expr::col(0, "x"), Expr::lit(2)),
            Expr::lit(19),
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagates_and_where_treats_null_as_false() {
        let e = Expr::binary(BinOp::Eq, Expr::col(2, "n"), Expr::lit(1));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let null = Expr::Literal(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        // FALSE AND NULL = FALSE (short circuit)
        assert_eq!(
            Expr::binary(BinOp::And, f.clone(), null.clone())
                .eval(&row())
                .unwrap(),
            Value::Bool(false)
        );
        // TRUE AND NULL = NULL
        assert_eq!(
            Expr::binary(BinOp::And, t.clone(), null.clone())
                .eval(&row())
                .unwrap(),
            Value::Null
        );
        // NULL OR TRUE = TRUE
        assert_eq!(
            Expr::binary(BinOp::Or, null.clone(), t)
                .eval(&row())
                .unwrap(),
            Value::Bool(true)
        );
        // NULL OR FALSE = NULL
        assert_eq!(
            Expr::binary(BinOp::Or, null, f).eval(&row()).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn string_concat_with_plus() {
        let e = Expr::binary(BinOp::Add, Expr::lit("chr"), Expr::lit("1"));
        assert_eq!(e.eval(&Row::empty()).unwrap(), Value::text("chr1"));
    }

    #[test]
    fn division_by_zero_and_overflow_are_errors() {
        let e = Expr::binary(BinOp::Div, Expr::lit(1), Expr::lit(0));
        assert!(e.eval(&Row::empty()).is_err());
        let e = Expr::binary(BinOp::Add, Expr::lit(i64::MAX), Expr::lit(1));
        assert!(e.eval(&Row::empty()).is_err());
    }

    #[test]
    fn is_null_and_not() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(2, "n")),
            negated: false,
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::Not(Box::new(e));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn remap_columns() {
        let mut e = Expr::binary(BinOp::Add, Expr::col(3, "a"), Expr::col(1, "b"));
        e.remap_columns(&[None, Some(0), None, Some(1)]).unwrap();
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        refs.sort();
        assert_eq!(refs, vec![0, 1]);
        // Referencing a dropped column fails.
        let mut bad = Expr::col(2, "c");
        assert!(bad.remap_columns(&[Some(0), Some(1), None]).is_err());
    }

    #[test]
    fn incomparable_types_error() {
        let e = Expr::binary(BinOp::Lt, Expr::lit("a"), Expr::lit(1));
        assert!(e.eval(&Row::empty()).is_err());
    }

    /// A random predicate over a three-column row: kernel leaves (column
    /// 3 does not exist) under AND / OR / NOT, `depth` levels deep.
    fn random_predicate(rng: &mut StdRng, depth: u32) -> Expr {
        if depth > 0 && rng.gen_bool(0.6) {
            let left = random_predicate(rng, depth - 1);
            return match rng.gen_range(0..5u32) {
                0 => Expr::Not(Box::new(left)),
                1 | 2 => Expr::binary(BinOp::And, left, random_predicate(rng, depth - 1)),
                _ => Expr::binary(BinOp::Or, left, random_predicate(rng, depth - 1)),
            };
        }
        let col = rng.gen_range(0..4usize);
        let c = Expr::col(col, format!("c{col}"));
        let x = match rng.gen_range(0..3u32) {
            0 => c,
            1 => Expr::Func {
                udf: Arc::new(crate::builtins::CharIndexFn),
                args: vec![Expr::lit(["N", "", "AC", "β"][rng.gen_range(0..4usize)]), c],
            },
            _ => {
                return Expr::IsNull {
                    expr: Box::new(c),
                    negated: rng.gen_bool(0.5),
                }
            }
        };
        let op = [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ][rng.gen_range(0..6usize)];
        let k = Expr::lit(rng.gen_range(-1..3i64));
        if rng.gen_bool(0.5) {
            Expr::binary(op, x, k)
        } else {
            Expr::binary(op, k, x)
        }
    }

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..4u32) {
            0 => Value::Null,
            1 => Value::Int(rng.gen_range(-1..3i64)),
            2 => Value::Float(rng.gen_range(-1..3i64) as f64 + 0.5),
            _ => {
                let len = rng.gen_range(0..4usize);
                Value::text(
                    (0..len)
                        .map(|_| ['A', 'C', 'N', 'β'][rng.gen_range(0..4usize)])
                        .collect::<String>(),
                )
            }
        }
    }

    #[test]
    fn a_compiled_kernel_agrees_with_the_interpreter_or_declines() {
        let (mut compiled, mut decided, mut declined_errors) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pred = random_predicate(&mut rng, 3);
            let Some(kernel) = Kernel::compile(&pred) else {
                continue;
            };
            compiled += 1;
            for _ in 0..64 {
                let row = Row::new((0..3).map(|_| random_value(&mut rng)).collect());
                match (kernel.eval(&row), pred.eval_predicate(&row)) {
                    (Some(pass), Ok(want)) => {
                        decided += 1;
                        assert_eq!(pass, want, "{pred} on {row:?}");
                    }
                    (Some(pass), Err(e)) => {
                        panic!("kernel said {pass} where the interpreter fails ({e}): {pred} on {row:?}")
                    }
                    (None, Err(_)) => declined_errors += 1,
                    (None, Ok(_)) => {}
                }
            }
        }
        // The sample reached every case the property speaks of.
        assert!(compiled > 50, "{compiled} of 400 predicates compiled");
        assert!(decided > 1000 && declined_errors > 100);
    }

    #[test]
    fn not_and_foreign_functions_stay_interpreted() {
        let lt = Expr::binary(BinOp::Lt, Expr::col(0, "x"), Expr::lit(1));
        assert!(Kernel::compile(&lt).is_some());
        assert!(Kernel::compile(&Expr::Not(Box::new(lt.clone()))).is_none());
        assert!(Kernel::compile(&Expr::binary(BinOp::And, lt, Expr::lit(true))).is_none());
        // A user function named CHARINDEX is not the builtin.
        struct UserCharIndex;
        impl ScalarUdf for UserCharIndex {
            fn name(&self) -> &str {
                "CHARINDEX"
            }
            fn invoke(&self, _args: &[Value]) -> Result<Value> {
                Ok(Value::Int(1))
            }
        }
        let user = Expr::Func {
            udf: Arc::new(UserCharIndex),
            args: vec![Expr::lit("N"), Expr::col(0, "s")],
        };
        assert!(Kernel::compile(&Expr::binary(BinOp::Eq, user, Expr::lit(0))).is_none());
    }
}
