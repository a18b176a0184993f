//! Physical execution: a pull-based operator tree with one contract.
//!
//! Every operator implements [`RowIterator`], whose only method is
//! `next_batch`: the consumer pulls a [`RowBatch`] of up to `BATCH_SIZE`
//! rows at a time. A batch is columns (see [`batch`]): one typed vector
//! per value position plus a selection vector. Scans decode each kept
//! record straight into the columns; filters, projections, the hash,
//! parallel and stream aggregates and both joins read and write columns,
//! so a row that crosses them is never a `Vec` and a text cell never an
//! `Arc`.
//!
//! Operators whose logic is inherently row-at-a-time (sort, top-N, row
//! number, cross apply, TVF scans, literal rows, the spill readers) fit
//! the contract from both sides without a second protocol: they
//! *consume* a child through a [`RowCursor`] (buffer one batch, pop one
//! row) and *produce* through [`fill_batch`] (loop an inherent `next_row`
//! until the batch is full). These two are the only conversions between
//! rows and columns, besides the root, which builds the result's rows.
//! `SET BATCH_SIZE = 1` is therefore row mode — the same code, a smaller
//! batch.
//!
//! The paper's Figure 5 `MoveNext`/`FillRow` contract between the query
//! processor and CLR table-valued functions (§4.1) lives only at the
//! [`crate::udx::TvfCursor`] boundary (see [`apply`]).

pub mod agg;
pub mod apply;
pub mod batch;
pub mod filter;
pub mod join;
pub mod scan;
pub mod sort;
pub mod window;

use std::sync::Arc;

use seqdb_types::codec::Malformed;
use seqdb_types::{DbError, Result, Row};

use seqdb_storage::tempspace::SpillWriter;
use seqdb_storage::{FileStreamStore, SpillTally, TempSpace};

use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::governor::QueryGovernor;
use crate::stats::{ExecStats, NodeStats};

pub use batch::{BatchRow, Column, RowBatch, RowView};

/// Everything an operator needs at run time.
#[derive(Clone)]
pub struct ExecContext {
    pub catalog: Arc<Catalog>,
    pub filestream: Arc<FileStreamStore>,
    pub temp: Arc<TempSpace>,
    /// Degree of parallelism for eligible operators.
    pub dop: usize,
    /// Rows per [`RowBatch`] pull (`SET BATCH_SIZE`), at least 1.
    pub batch_size: usize,
    /// Per-query resource governor: cancellation, timeout, memory budget.
    /// Fresh for every query; clone the `Arc` to cancel from another
    /// thread.
    pub gov: Arc<QueryGovernor>,
    /// Actual-execution collector (`EXPLAIN ANALYZE`); `None` for plain
    /// runs, which then pay nothing per row.
    pub stats: Option<Arc<ExecStats>>,
    /// The stats slot of the plan node this context was captured by.
    /// `Plan::open` sets it per node before building the node's iterator,
    /// so spills created through [`ExecContext::create_spill`] attribute
    /// to the operator that caused them.
    pub node: Option<Arc<NodeStats>>,
}

impl ExecContext {
    /// Default rows per batch.
    pub const DEFAULT_BATCH_SIZE: usize = 1024;

    /// The spill tallies every spill of this context should feed: the
    /// query-wide tally on the governor plus, when collecting actuals,
    /// the current plan node's tally.
    pub fn spill_tallies(&self) -> Vec<Arc<SpillTally>> {
        let mut tallies = vec![Arc::clone(self.gov.spill_tally())];
        if let Some(node) = &self.node {
            tallies.push(Arc::clone(&node.spill));
        }
        tallies
    }

    /// Create a spill file attributed to this query (and, under
    /// `EXPLAIN ANALYZE`, to the current operator). All operator spill
    /// paths go through here rather than `TempSpace::create_spill`.
    pub fn create_spill(&self) -> Result<SpillWriter> {
        self.temp.create_spill_tallied(self.spill_tallies())
    }

    /// Create a hash-join partition file: same attribution as
    /// [`ExecContext::create_spill`], but waits land in the `JOIN_SPILL`
    /// class and the dedicated join spill gauges.
    pub fn create_join_spill(&self) -> Result<SpillWriter> {
        self.temp
            .create_spill_class(self.spill_tallies(), seqdb_storage::WaitClass::JoinSpill)
    }
}

/// The error for a spill record the value codec could not read back.
pub(crate) fn corrupt_spill(_: Malformed) -> DbError {
    DbError::Storage("corrupt spill record".into())
}

/// Where a plan node's output columns sit in the rows it emits. Rows
/// carry only what the plan reads: a scan decodes the columns demanded of
/// it, a join concatenates its narrow sides, and the parent rewrites its
/// expressions through this map once, at open, instead of the rows
/// keeping every column at its schema position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Logical column `i` is at position `cols[i]` of each row; `None`
    /// when no consumer asked for it and the rows do not carry it.
    cols: Vec<Option<usize>>,
    /// Values per row.
    width: usize,
}

impl Layout {
    /// Every one of `n` columns at its own position.
    pub(crate) fn dense(n: usize) -> Layout {
        Layout {
            cols: (0..n).map(Some).collect(),
            width: n,
        }
    }

    /// The rows hold the columns `wanted` marks, in column order.
    pub(crate) fn packed(wanted: &[bool]) -> Layout {
        let mut width = 0;
        let cols = wanted
            .iter()
            .map(|&w| {
                w.then(|| {
                    width += 1;
                    width - 1
                })
            })
            .collect();
        Layout { cols, width }
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Is every logical column at its own position, and nothing else?
    pub(crate) fn is_dense(&self) -> bool {
        self.width == self.cols.len() && self.cols.iter().enumerate().all(|(i, c)| *c == Some(i))
    }

    /// The same rows seen through a projection: logical column `i` is
    /// this layout's column `proj[i]`.
    pub(crate) fn project(&self, proj: &[usize]) -> Layout {
        Layout {
            cols: proj
                .iter()
                .map(|&c| self.cols.get(c).copied().flatten())
                .collect(),
            width: self.width,
        }
    }

    /// The layout of `self`'s rows followed by `other`'s, as a join
    /// concatenates them.
    pub(crate) fn concat(&self, other: &Layout) -> Layout {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().map(|c| c.map(|p| p + self.width)));
        Layout {
            cols,
            width: self.width + other.width,
        }
    }

    /// `expr`, written over logical columns, rewritten onto the rows. A
    /// column the rows do not carry fails typed with `DbError::Plan`.
    pub(crate) fn remap(&self, expr: &Expr) -> Result<Expr> {
        let mut e = expr.clone();
        e.remap_columns(&self.cols)?;
        Ok(e)
    }

    /// [`Layout::remap`] over a list.
    pub(crate) fn remap_all(&self, exprs: &[Expr]) -> Result<Vec<Expr>> {
        exprs.iter().map(|e| self.remap(e)).collect()
    }
}

/// Mark every column the expressions read in `demand`. References beyond
/// the demand's arity are left out: no row carries them, so the operator
/// reading them fails at open when it remaps them.
pub(crate) fn mark_read<'a>(demand: &mut [bool], exprs: impl IntoIterator<Item = &'a Expr>) {
    let mut refs = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut refs);
    }
    for i in refs {
        if let Some(slot) = demand.get_mut(i) {
            *slot = true;
        }
    }
}

/// A pull-based stream of row batches: the one operator contract.
pub trait RowIterator: Send {
    /// Produce the next batch of up to `max_rows` rows (a hint, not a
    /// hard cap: a scan returns a decoded page wholesale, expanding
    /// operators such as a join probe may overshoot, filters return
    /// fewer). `None` at end-of-stream; a returned batch always has at
    /// least one selected row. After an error the iterator must not be
    /// called again.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>>;
}

/// Boxed operator, the unit plans compose.
pub type BoxedIter = Box<dyn RowIterator>;

/// The producing half of a row-at-a-time operator: loop `next_row` until
/// `max_rows` rows are gathered or the producer is exhausted. Sort, merge
/// join, window, apply, TVF scans and the aggregate outputs implement
/// `next_batch` as one call to this.
pub fn fill_batch(
    max_rows: usize,
    mut next_row: impl FnMut() -> Result<Option<Row>>,
) -> Result<Option<RowBatch>> {
    let max = max_rows.max(1);
    let mut rows = Vec::with_capacity(max.min(ExecContext::DEFAULT_BATCH_SIZE));
    while rows.len() < max {
        match next_row()? {
            Some(r) => rows.push(r),
            None => break,
        }
    }
    if rows.is_empty() {
        Ok(None)
    } else {
        Ok(Some(RowBatch::from_rows(rows).mark_fallback()))
    }
}

/// The consuming half of a row-at-a-time operator: pulls a batch from
/// `input` and hands its rows out one by one. Once the input reports
/// end-of-stream it is never pulled again.
pub struct RowCursor {
    input: BoxedIter,
    batch_size: usize,
    buf: std::vec::IntoIter<Row>,
    done: bool,
}

impl RowCursor {
    pub fn new(input: BoxedIter, batch_size: usize) -> RowCursor {
        RowCursor {
            input,
            batch_size,
            buf: Vec::new().into_iter(),
            done: false,
        }
    }

    /// The next input row, `None` at end-of-stream. Fallible, so not
    /// `Iterator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.buf.next() {
                return Ok(Some(row));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch(self.batch_size)? {
                Some(batch) => self.buf = batch.into_rows().into_iter(),
                None => self.done = true,
            }
        }
    }
}

/// Drain an iterator into a vector, `batch_size` rows per pull.
pub fn collect(mut it: BoxedIter, batch_size: usize) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = it.next_batch(batch_size)? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// An iterator over a pre-materialized set of rows.
pub struct ValuesIter {
    rows: std::vec::IntoIter<Row>,
}

impl ValuesIter {
    pub fn new(rows: Vec<Row>) -> ValuesIter {
        ValuesIter {
            rows: rows.into_iter(),
        }
    }
}

impl RowIterator for ValuesIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || Ok(self.rows.next()))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::database::RemoveDirOnDrop;
    use crate::udx::{AggState, Aggregate};
    use seqdb_storage::{BufferPool, MemPager};
    use seqdb_types::Value;

    /// A throwaway context over in-memory storage, and the guard that
    /// removes its directory when the test is done. The directory is its
    /// own: opening a `TempSpace` sweeps it, so a shared one loses a
    /// sibling test's live spill files.
    pub fn test_context() -> (ExecContext, RemoveDirOnDrop) {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("seqdb-exec-test-{}-{n}", std::process::id()));
        let pool = BufferPool::new(Arc::new(MemPager::new()), 1024);
        let catalog = Catalog::new(pool);
        for f in crate::builtins::all_builtins() {
            catalog.register_scalar(f);
        }
        let ctx = ExecContext {
            catalog,
            filestream: Arc::new(FileStreamStore::open(dir.join("filestream")).unwrap()),
            temp: TempSpace::open(dir.join("tempdb")).unwrap(),
            dop: 2,
            batch_size: ExecContext::DEFAULT_BATCH_SIZE,
            gov: QueryGovernor::unlimited(),
            stats: None,
            node: None,
        };
        (ctx, RemoveDirOnDrop(dir))
    }

    /// A UDA that panics after a few rows, exercising the error paths
    /// that must surface it as a typed `UdxPanic` naming it.
    pub struct PanicAgg;
    struct PanicState {
        n: i64,
    }
    impl Aggregate for PanicAgg {
        fn name(&self) -> &str {
            "PANIC_AGG"
        }
        fn create(&self) -> Box<dyn AggState> {
            Box::new(PanicState { n: 0 })
        }
    }
    impl AggState for PanicState {
        fn update(&mut self, _args: &[Value]) -> Result<()> {
            self.n += 1;
            if self.n > 3 {
                panic!("synthetic UDA failure");
            }
            Ok(())
        }
        fn merge(&mut self, _other: Box<dyn AggState>) -> Result<()> {
            Ok(())
        }
        fn finish(&mut self) -> Result<Value> {
            Ok(Value::Int(self.n))
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    pub fn int_rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }
}
