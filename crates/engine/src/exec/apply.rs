//! Table-valued function execution: `FROM tvf(args)` scans and
//! `CROSS APPLY tvf(expr, ...)` (paper §4.1 and Query 3).
//!
//! The engine drives TVFs exactly like SQL Server drives CLR TVFs
//! (Figure 5): a `move_next()` to advance the function's internal cursor,
//! then a `fill_row()` that converts the current record into SQL values.

use std::sync::Arc;

use seqdb_types::{DbError, Result, Row, Value};

use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator};
use crate::expr::Expr;
use crate::udx::{protect, TableFunction, TvfCursor};

/// `FROM tvf(constant args)`: a leaf scan over a table function.
pub struct TvfScanIter {
    cursor: Box<dyn TvfCursor>,
    name: String,
    /// Expected output arity, validated per row: a UDF that returns the
    /// wrong shape should fail loudly, not corrupt downstream operators.
    arity: usize,
}

impl TvfScanIter {
    pub fn open(tvf: &Arc<dyn TableFunction>, args: &[Value], ctx: &ExecContext) -> Result<Self> {
        Ok(TvfScanIter {
            cursor: protect(tvf.name(), || tvf.open(args, ctx))?,
            name: tvf.name().to_string(),
            arity: tvf.schema().len(),
        })
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        // Both cursor entry points run user code; a panic in either fails
        // only this query (DbError::UdxPanic).
        if !protect(&self.name, || self.cursor.move_next())? {
            return Ok(None);
        }
        let row = protect(&self.name, || self.cursor.fill_row())?;
        if row.len() != self.arity {
            return Err(DbError::Execution(format!(
                "table function produced {} columns, declared {}",
                row.len(),
                self.arity
            )));
        }
        Ok(Some(row))
    }
}

impl RowIterator for TvfScanIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

/// `input CROSS APPLY tvf(arg_exprs...)`: for each outer row, open the
/// TVF with arguments computed from that row and emit `outer ++ tvf_row`.
pub struct CrossApplyIter {
    input: RowCursor,
    tvf: Arc<dyn TableFunction>,
    arg_exprs: Vec<Expr>,
    ctx: ExecContext,
    current_outer: Option<Row>,
    current_cursor: Option<Box<dyn TvfCursor>>,
    arity: usize,
}

impl CrossApplyIter {
    pub fn new(
        input: BoxedIter,
        tvf: Arc<dyn TableFunction>,
        arg_exprs: Vec<Expr>,
        ctx: ExecContext,
    ) -> CrossApplyIter {
        let arity = tvf.schema().len();
        CrossApplyIter {
            input: RowCursor::new(input, ctx.batch_size),
            tvf,
            arg_exprs,
            ctx,
            current_outer: None,
            current_cursor: None,
            arity,
        }
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(cursor) = &mut self.current_cursor {
                let name = self.tvf.name();
                if protect(name, || cursor.move_next())? {
                    let inner = protect(name, || cursor.fill_row())?;
                    if inner.len() != self.arity {
                        return Err(DbError::Execution(format!(
                            "table function produced {} columns, declared {}",
                            inner.len(),
                            self.arity
                        )));
                    }
                    let outer = self.current_outer.as_ref().expect("outer row set");
                    return Ok(Some(outer.concat(&inner)));
                }
                self.current_cursor = None;
                self.current_outer = None;
            }
            match self.input.next()? {
                None => return Ok(None),
                Some(outer) => {
                    let args: Vec<Value> = self
                        .arg_exprs
                        .iter()
                        .map(|e| e.eval(&outer))
                        .collect::<Result<_>>()?;
                    let tvf = &self.tvf;
                    self.current_cursor = Some(protect(tvf.name(), || tvf.open(&args, &self.ctx))?);
                    self.current_outer = Some(outer);
                }
            }
        }
    }
}

impl RowIterator for CrossApplyIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context};
    use crate::exec::{collect, ValuesIter};
    use seqdb_types::{Column, DataType, Schema};

    /// Test TVF: numbers(n) emits 0..n as single-column rows.
    struct Numbers;

    struct NumbersCursor {
        next: i64,
        limit: i64,
        current: Option<i64>,
    }

    impl TvfCursor for NumbersCursor {
        fn move_next(&mut self) -> Result<bool> {
            if self.next < self.limit {
                self.current = Some(self.next);
                self.next += 1;
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn fill_row(&mut self) -> Result<Row> {
            Ok(Row::new(vec![Value::Int(
                self.current.expect("move_next first"),
            )]))
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
            let limit = args
                .first()
                .ok_or_else(|| DbError::Execution("NUMBERS(n) needs one argument".into()))?
                .as_int()?;
            Ok(Box::new(NumbersCursor {
                next: 0,
                limit,
                current: None,
            }))
        }
    }

    #[test]
    fn tvf_scan_streams_rows() {
        let (ctx, _dir) = test_context();
        let tvf: Arc<dyn TableFunction> = Arc::new(Numbers);
        let it = TvfScanIter::open(&tvf, &[Value::Int(4)], &ctx).unwrap();
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(
            rows.iter()
                .map(|r| r[0].as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn cross_apply_reopens_per_outer_row() {
        let (ctx, _dir) = test_context();
        let tvf: Arc<dyn TableFunction> = Arc::new(Numbers);
        let outer = int_rows(&[&[2], &[0], &[3]]);
        let it = CrossApplyIter::new(
            Box::new(ValuesIter::new(outer)),
            tvf,
            vec![Expr::col(0, "n")],
            ctx,
        );
        let rows = collect(Box::new(it), 1024).unwrap();
        // outer 2 -> (2,0),(2,1); outer 0 -> nothing; outer 3 -> (3,0),(3,1),(3,2)
        let pairs: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn bad_tvf_args_error() {
        let (ctx, _dir) = test_context();
        let tvf: Arc<dyn TableFunction> = Arc::new(Numbers);
        assert!(TvfScanIter::open(&tvf, &[], &ctx).is_err());
    }
}
