//! Filter, projection and limit operators: the filter narrows a batch's
//! selection vector in place (dropped rows are never moved or copied),
//! the projection builds a batch of new columns (a single-use bare column
//! moves over whole, a computed one is evaluated row by row in place),
//! and the limit truncates a batch's selection.

use std::sync::Arc;

use seqdb_types::{Result, Schema};

use crate::exec::batch::eval_column;
use crate::exec::{BoxedIter, RowBatch, RowIterator};
use crate::expr::{passes, take_plan, Expr, Kernel};

/// WHERE: passes rows whose predicate evaluates to TRUE (NULL = drop).
pub struct FilterIter {
    input: BoxedIter,
    predicate: Expr,
    /// Compiled form of `predicate`, when it has one.
    kernel: Option<Kernel>,
}

impl FilterIter {
    pub fn new(input: BoxedIter, predicate: Expr) -> Self {
        FilterIter {
            input,
            kernel: Kernel::compile(&predicate),
            predicate,
        }
    }
}

impl RowIterator for FilterIter {
    /// Evaluate the predicate into the batch's selection vector. Rows
    /// that fail stay where they are, unselected; whoever materializes
    /// the batch later skips them for free.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        loop {
            let Some(mut batch) = self.input.next_batch(max_rows)? else {
                return Ok(None);
            };
            batch.narrow(|row| passes(&self.predicate, self.kernel.as_ref(), &row))?;
            // A fully-filtered batch is not end-of-stream: pull the next
            // one rather than returning an empty batch.
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
    }
}

/// SELECT list: computes one expression per output column.
pub struct ProjectIter {
    input: BoxedIter,
    exprs: Vec<Expr>,
    /// Projection entries allowed to move their column out of the input
    /// batch instead of copying it (see [`take_plan`]).
    take: Vec<bool>,
}

impl ProjectIter {
    pub fn new(input: BoxedIter, exprs: Vec<Expr>) -> Self {
        let take = take_plan(&exprs);
        ProjectIter { input, exprs, take }
    }
}

impl RowIterator for ProjectIter {
    /// Evaluate the projection over the *selected* rows (rows a filter
    /// dropped upstream are skipped without ever being touched) into a
    /// batch of new columns.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let Some(mut batch) = self.input.next_batch(max_rows)? else {
            return Ok(None);
        };
        let mut cols = Vec::with_capacity(self.exprs.len());
        for (e, &take) in self.exprs.iter().zip(&self.take) {
            cols.push(match e {
                Expr::Column { index, .. }
                    if take && batch.is_compact() && *index < batch.width() =>
                {
                    batch.take_column(*index)
                }
                _ => eval_column(e, &batch)?,
            });
        }
        Ok(Some(RowBatch::from_columns(cols, batch.len())))
    }
}

/// TOP n: stops the pull after n rows (non-blocking).
pub struct LimitIter {
    input: BoxedIter,
    remaining: u64,
}

impl LimitIter {
    pub fn new(input: BoxedIter, limit: u64) -> Self {
        LimitIter {
            input,
            remaining: limit,
        }
    }
}

impl RowIterator for LimitIter {
    /// Ask the child for no more rows than remain, then truncate the
    /// batch's selection to the limit.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let want = usize::try_from(self.remaining)
            .unwrap_or(usize::MAX)
            .min(max_rows.max(1));
        match self.input.next_batch(want)? {
            None => {
                self.remaining = 0;
                Ok(None)
            }
            Some(mut batch) => {
                let keep = (batch.len() as u64).min(self.remaining);
                batch.truncate(keep as usize);
                self.remaining -= keep;
                Ok(Some(batch))
            }
        }
    }
}

/// Compute the output schema of a projection, inferring names from
/// column references and falling back to `exprN`.
pub fn project_schema(input: &Schema, exprs: &[Expr], aliases: &[Option<String>]) -> Arc<Schema> {
    use seqdb_types::{Column, DataType};
    let cols = exprs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = aliases
                .get(i)
                .and_then(|a| a.clone())
                .unwrap_or_else(|| match e {
                    Expr::Column { index, .. } => input.column(*index).name.clone(),
                    other => format!("{other}"),
                });
            let dtype = infer_type(input, e).unwrap_or(DataType::Text);
            Column::new(name, dtype)
        })
        .collect();
    Arc::new(Schema::new(cols))
}

/// Best-effort static type inference for projection schemas.
fn infer_type(input: &Schema, e: &Expr) -> Option<seqdb_types::DataType> {
    use crate::expr::BinOp;
    use seqdb_types::DataType;
    match e {
        Expr::Column { index, .. } => Some(input.column(*index).dtype),
        Expr::Literal(v) => v.data_type(),
        Expr::Binary { op, left, right } => match op {
            BinOp::Eq
            | BinOp::NotEq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq
            | BinOp::And
            | BinOp::Or => Some(DataType::Bool),
            _ => {
                let l = infer_type(input, left)?;
                let r = infer_type(input, right)?;
                if l == DataType::Text || r == DataType::Text {
                    Some(DataType::Text)
                } else if l == DataType::Float || r == DataType::Float {
                    Some(DataType::Float)
                } else {
                    Some(DataType::Int)
                }
            }
        },
        Expr::Not(_) | Expr::IsNull { .. } => Some(DataType::Bool),
        Expr::Neg(inner) => infer_type(input, inner),
        Expr::Func { udf, .. } => match udf.name() {
            "CHARINDEX" | "LEN" | "DATALENGTH" | "TO_INT" => Some(DataType::Int),
            "ROUND" | "TO_FLOAT" => Some(DataType::Float),
            "NEWID" => Some(DataType::Guid),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::int_rows;
    use crate::exec::{collect, ValuesIter};
    use crate::expr::BinOp;
    use seqdb_types::Value;

    #[test]
    fn filter_and_project_compose() {
        let rows = int_rows(&[&[1, 10], &[2, 20], &[3, 30], &[4, 40]]);
        let scan = Box::new(ValuesIter::new(rows));
        let filt = Box::new(FilterIter::new(
            scan,
            Expr::binary(BinOp::Gt, Expr::col(1, "v"), Expr::lit(15)),
        ));
        let proj = Box::new(ProjectIter::new(
            filt,
            vec![Expr::binary(BinOp::Mul, Expr::col(0, "k"), Expr::lit(100))],
        ));
        let out = collect(proj, 1024).unwrap();
        assert_eq!(
            out.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(200), Value::Int(300), Value::Int(400)]
        );
    }

    #[test]
    fn limit_stops_early() {
        let rows = int_rows(&[&[1], &[2], &[3]]);
        let it = Box::new(LimitIter::new(Box::new(ValuesIter::new(rows)), 2));
        assert_eq!(collect(it, 1024).unwrap().len(), 2);
        let it = Box::new(LimitIter::new(
            Box::new(ValuesIter::new(int_rows(&[&[1]]))),
            5,
        ));
        assert_eq!(collect(it, 1024).unwrap().len(), 1);
    }

    #[test]
    fn project_schema_names_and_types() {
        use seqdb_types::{Column, DataType};
        let input = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("seq", DataType::Text),
        ]);
        let exprs = vec![
            Expr::col(1, "seq"),
            Expr::binary(BinOp::Add, Expr::col(0, "id"), Expr::lit(1)),
        ];
        let s = project_schema(&input, &exprs, &[None, Some("next_id".into())]);
        assert_eq!(s.column(0).name, "seq");
        assert_eq!(s.column(0).dtype, DataType::Text);
        assert_eq!(s.column(1).name, "next_id");
        assert_eq!(s.column(1).dtype, DataType::Int);
    }
}
