//! The column batch every operator passes: one typed vector per value
//! position, a row count and a selection vector.
//!
//! A [`Column`] holds `INT` cells as `i64`s, `VARCHAR` cells as offsets
//! into one byte string, and any other type (or a computed result) as
//! [`Value`]s, each with its validity. Cells are read as borrowed
//! [`ValueRef`]s, so a scan that decodes a record, a filter that tests it,
//! a hash table that looks its key up and a join that gathers it build no
//! `Value` and allocate nothing per row. Rows exist only at the edges: a
//! row-at-a-time operator converts through [`RowBatch::from_rows`] and
//! [`RowBatch::into_rows`], and the root builds the rows of the result.

use seqdb_storage::rowfmt::RecordSink;
use seqdb_types::{DataType, Result, Row, Value, ValueRef};

use crate::expr::Expr;

/// One value position of a batch.
///
/// A typed column's `valid` is empty while every cell it holds is
/// non-NULL, so a column without NULLs pays one store per cell.
#[derive(Debug, Clone)]
pub enum Column {
    /// `INT` cells; a NULL holds 0 and `false` validity.
    Int { vals: Vec<i64>, valid: Vec<bool> },
    /// `VARCHAR` cells: cell `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    Text {
        offsets: Vec<usize>,
        bytes: String,
        valid: Vec<bool>,
    },
    /// Cells of any other type, and of computed results.
    Values(Vec<Value>),
}

/// Is cell `i` of a typed column non-NULL?
#[inline]
fn is_valid(valid: &[bool], i: usize) -> bool {
    valid.is_empty() || valid[i]
}

/// Record one more cell's validity in a typed column now `len` long.
#[inline]
fn push_valid(valid: &mut Vec<bool>, len: usize, v: bool) {
    if !valid.is_empty() {
        valid.push(v);
    } else if !v {
        valid.resize(len - 1, true);
        valid.push(false);
    }
}

impl Column {
    /// An empty column for cells of type `dtype`.
    pub fn for_type(dtype: DataType, cap: usize) -> Column {
        match dtype {
            DataType::Int => Column::Int {
                vals: Vec::with_capacity(cap),
                valid: Vec::new(),
            },
            DataType::Text => Column::Text {
                offsets: {
                    let mut o = Vec::with_capacity(cap + 1);
                    o.push(0);
                    o
                },
                bytes: String::new(),
                valid: Vec::new(),
            },
            _ => Column::Values(Vec::with_capacity(cap)),
        }
    }

    /// An empty column of the same kind.
    pub(crate) fn like(&self, cap: usize) -> Column {
        match self {
            Column::Int { .. } => Column::for_type(DataType::Int, cap),
            Column::Text { .. } => Column::for_type(DataType::Text, cap),
            Column::Values(_) => Column::Values(Vec::with_capacity(cap)),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int { vals, .. } => vals.len(),
            Column::Text { offsets, .. } => offsets.len() - 1,
            Column::Values(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i`, borrowed.
    #[inline(always)]
    pub fn get(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::Int { vals, valid } => {
                if is_valid(valid, i) {
                    ValueRef::Int(vals[i])
                } else {
                    ValueRef::Null
                }
            }
            Column::Text {
                offsets,
                bytes,
                valid,
            } => {
                if is_valid(valid, i) {
                    ValueRef::Text(&bytes[offsets[i]..offsets[i + 1]])
                } else {
                    ValueRef::Null
                }
            }
            Column::Values(v) => v[i].view(),
        }
    }

    /// Cell `i`, owned: a `Value` cell is cloned (its payload shared),
    /// a typed one built.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Values(v) => v[i].clone(),
            typed => typed.get(i).to_value(),
        }
    }

    /// Cell `i`, owned: a `Value` cell is moved out, leaving NULL.
    #[inline]
    fn take(&mut self, i: usize) -> Value {
        match self {
            Column::Values(v) => std::mem::replace(&mut v[i], Value::Null),
            typed => typed.get(i).to_value(),
        }
    }

    /// Append a cell. A typed column given a cell of another type turns
    /// into a `Value` column first, so any cell fits any column.
    #[inline(always)]
    pub fn push(&mut self, v: ValueRef<'_>) {
        match (&mut *self, v) {
            (Column::Int { vals, valid }, ValueRef::Int(x)) => {
                vals.push(x);
                push_valid(valid, vals.len(), true);
            }
            (Column::Int { vals, valid }, ValueRef::Null) => {
                vals.push(0);
                push_valid(valid, vals.len(), false);
            }
            (
                Column::Text {
                    offsets,
                    bytes,
                    valid,
                },
                ValueRef::Text(s),
            ) => {
                bytes.push_str(s);
                offsets.push(bytes.len());
                push_valid(valid, offsets.len() - 1, true);
            }
            (
                Column::Text {
                    offsets,
                    bytes,
                    valid,
                },
                ValueRef::Null,
            ) => {
                offsets.push(bytes.len());
                push_valid(valid, offsets.len() - 1, false);
            }
            (Column::Values(vals), v) => vals.push(v.to_value()),
            (_, v) => self.push_other(v),
        }
    }

    /// A typed column given a cell of another type.
    #[cold]
    #[inline(never)]
    fn push_other(&mut self, v: ValueRef<'_>) {
        let mut vals: Vec<Value> = (0..self.len()).map(|i| self.get(i).to_value()).collect();
        vals.push(v.to_value());
        *self = Column::Values(vals);
    }

    /// Append an owned value, moved into a `Value` column.
    pub fn push_value(&mut self, v: Value) {
        match self {
            Column::Values(vals) => vals.push(v),
            typed => typed.push(v.view()),
        }
    }

    /// Append cell `i` of `src`; a `Value` cell is shared, not copied.
    #[inline]
    pub fn push_from(&mut self, src: &Column, i: usize) {
        match (&mut *self, src) {
            (Column::Values(dst), Column::Values(s)) => dst.push(s[i].clone()),
            (dst, src) => dst.push(src.get(i)),
        }
    }

    /// Keep the first `n` cells.
    #[inline(always)]
    pub fn truncate(&mut self, n: usize) {
        match self {
            Column::Int { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            Column::Text {
                offsets,
                bytes,
                valid,
            } => {
                if n + 1 < offsets.len() {
                    valid.truncate(n);
                    offsets.truncate(n + 1);
                    bytes.truncate(offsets[n]);
                }
            }
            Column::Values(v) => v.truncate(n),
        }
    }

    /// The cells at `idx`, in that order.
    pub fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Int { vals, valid } => Column::Int {
                vals: idx.iter().map(|&i| vals[i as usize]).collect(),
                valid: if valid.is_empty() {
                    Vec::new()
                } else {
                    idx.iter().map(|&i| valid[i as usize]).collect()
                },
            },
            Column::Values(v) => {
                Column::Values(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            text => {
                let mut out = text.like(idx.len());
                for &i in idx {
                    out.push(text.get(i as usize));
                }
                out
            }
        }
    }
}

/// A batch of rows moving between operators, held as columns.
///
/// Besides its columns the batch keeps an optional *selection vector*:
/// the indices of the rows still live. A filter narrows the selection in
/// place instead of moving or dropping cells; whoever needs the rows
/// positionally (projection, aggregate, join, a [`crate::exec::RowCursor`],
/// the root drain) compacts it then.
pub struct RowBatch {
    cols: Vec<Column>,
    /// Rows held, selected or not.
    rows: usize,
    /// Live row indices, ascending. `None` means every row is live.
    sel: Option<Vec<u32>>,
    /// Origin tag, read only by the `batch_rows` / `batch_fallback_rows`
    /// counters: true when [`crate::exec::fill_batch`] assembled the
    /// batch from a row-at-a-time producer rather than a native batch
    /// producer.
    fallback: bool,
}

impl RowBatch {
    /// A batch of `rows` rows held in `cols`, every column that long.
    pub fn from_columns(cols: Vec<Column>, rows: usize) -> RowBatch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        RowBatch {
            cols,
            rows,
            sel: None,
            fallback: false,
        }
    }

    /// The rows' values moved into one `Value` column per position. The
    /// first row gives the width.
    pub fn from_rows(rows: Vec<Row>) -> RowBatch {
        let n = rows.len();
        let width = rows.first().map_or(0, Row::len);
        let mut rows: Vec<_> = rows.into_iter().map(|r| r.0.into_iter()).collect();
        let cols = (0..width)
            .map(|_| {
                let cells = rows.iter_mut().map(|r| r.next().unwrap_or(Value::Null));
                Column::Values(cells.collect())
            })
            .collect();
        RowBatch::from_columns(cols, n)
    }

    pub(crate) fn mark_fallback(mut self) -> RowBatch {
        self.fallback = true;
        self
    }

    /// Was this batch assembled by [`crate::exec::fill_batch`]?
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Number of *selected* rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Is every row held selected?
    pub fn is_compact(&self) -> bool {
        self.sel.is_none()
    }

    pub fn column(&self, j: usize) -> &Column {
        &self.cols[j]
    }

    /// Row `i` (a held row, selected or not) as a view.
    pub fn row(&self, i: usize) -> BatchRow<'_> {
        BatchRow {
            cols: &self.cols,
            row: i,
        }
    }

    /// The indices of the selected rows, in order.
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        let sel = self.sel.as_deref();
        (0..self.len()).map(move |k| sel.map_or(k, |s| s[k] as usize))
    }

    /// Narrow the selection to rows where `keep` returns true, without
    /// moving or dropping any cell.
    pub fn narrow(&mut self, mut keep: impl FnMut(BatchRow<'_>) -> Result<bool>) -> Result<()> {
        let mut next = Vec::with_capacity(self.len());
        for i in self.selected() {
            if keep(self.row(i))? {
                next.push(i as u32);
            }
        }
        self.sel = Some(next);
        Ok(())
    }

    /// Keep only the first `n` selected rows (LIMIT).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.sel {
            Some(sel) => sel.truncate(n),
            None => self.sel = Some((0..n as u32).collect()),
        }
    }

    /// The same batch holding only its selected rows, so row `k` is the
    /// `k`-th selected one: what positional consumers read.
    pub fn compact(self) -> RowBatch {
        match &self.sel {
            None => self,
            Some(sel) => RowBatch {
                cols: self.cols.iter().map(|c| c.gather(sel)).collect(),
                rows: sel.len(),
                sel: None,
                fallback: self.fallback,
            },
        }
    }

    /// Column `j` of a compacted batch, moved out (a `Value` column of
    /// NULLs is left behind).
    pub(crate) fn take_column(&mut self, j: usize) -> Column {
        debug_assert!(self.sel.is_none());
        std::mem::replace(&mut self.cols[j], Column::Values(Vec::new()))
    }

    /// The selected rows as rows, consuming the batch. A `Value` cell
    /// moves into its row; a typed one is built.
    pub fn into_rows(mut self) -> Vec<Row> {
        let live: Vec<usize> = self.selected().collect();
        let cols = &mut self.cols;
        live.into_iter()
            .map(|i| cols.iter_mut().map(|c| c.take(i)).collect())
            .collect()
    }
}

/// Positional access to one row's cells: a [`Row`], or a row of a batch
/// seen in place. The expression interpreter and the WHERE kernel read
/// rows through it.
pub trait RowView {
    /// Values in the row.
    fn width(&self) -> usize;
    /// Cell `i`, borrowed; `None` past the row's end.
    fn cell(&self, i: usize) -> Option<ValueRef<'_>>;
    /// Cell `i`, owned; `None` past the row's end.
    fn value(&self, i: usize) -> Option<Value>;
}

impl RowView for Row {
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn cell(&self, i: usize) -> Option<ValueRef<'_>> {
        self.get(i).map(Value::view)
    }
    fn value(&self, i: usize) -> Option<Value> {
        self.get(i).cloned()
    }
}

/// The decoded prefix of a record, as a scan's filter-first check sees
/// it.
impl RowView for [ValueRef<'_>] {
    fn width(&self) -> usize {
        self.len()
    }
    #[inline(always)]
    fn cell(&self, i: usize) -> Option<ValueRef<'_>> {
        self.get(i).copied()
    }
    fn value(&self, i: usize) -> Option<Value> {
        self.get(i).map(|v| v.to_value())
    }
}

/// One row of a set of columns, read in place.
#[derive(Clone, Copy)]
pub struct BatchRow<'a> {
    cols: &'a [Column],
    row: usize,
}

impl BatchRow<'_> {
    /// The row's cells as an owned row.
    pub fn to_row(&self) -> Row {
        (0..self.width()).filter_map(|i| self.value(i)).collect()
    }
}

impl RowView for BatchRow<'_> {
    fn width(&self) -> usize {
        self.cols.len()
    }
    #[inline(always)]
    fn cell(&self, i: usize) -> Option<ValueRef<'_>> {
        Some(self.cols.get(i)?.get(self.row))
    }
    fn value(&self, i: usize) -> Option<Value> {
        Some(self.cols.get(i)?.value(self.row))
    }
}

/// A batch under construction by a record decode: each kept record
/// appends one cell per column. A record its filter refuses never
/// reaches it.
pub(crate) struct BatchBuilder {
    cols: Vec<Column>,
    rows: usize,
    /// The column the record's next cell goes to.
    next: usize,
}

impl BatchBuilder {
    /// Columns of the given types, with room for `cap` rows and, in each
    /// text column, `text_cap` bytes.
    pub(crate) fn new(types: &[DataType], cap: usize, text_cap: usize) -> BatchBuilder {
        let column = |&t: &DataType| {
            let mut c = Column::for_type(t, cap);
            if let Column::Text { bytes, .. } = &mut c {
                bytes.reserve(text_cap);
            }
            c
        };
        BatchBuilder {
            cols: types.iter().map(column).collect(),
            rows: 0,
            next: 0,
        }
    }

    /// Most text bytes one of the columns holds.
    pub(crate) fn text_bytes(&self) -> usize {
        self.cols
            .iter()
            .map(|c| match c {
                Column::Text { bytes, .. } => bytes.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn finish(self) -> RowBatch {
        RowBatch::from_columns(self.cols, self.rows)
    }
}

impl RecordSink for BatchBuilder {
    #[inline(always)]
    fn push(&mut self, v: ValueRef<'_>) {
        self.cols[self.next].push(v);
        self.next += 1;
    }

    #[inline(always)]
    fn push_int(&mut self, v: i64) {
        match &mut self.cols[self.next] {
            Column::Int { vals, valid } => {
                vals.push(v);
                if !valid.is_empty() {
                    valid.push(true);
                }
            }
            other => other.push(ValueRef::Int(v)),
        }
        self.next += 1;
    }

    #[inline(always)]
    fn end_record(&mut self) {
        self.rows += 1;
        self.next = 0;
    }
}

/// An expression's cells for every row of a compacted batch: a column of
/// the batch itself when the expression is a bare reference to one, or
/// a column computed for the batch.
pub(crate) enum Operand {
    Batch(usize),
    Owned(Column),
}

impl Operand {
    pub(crate) fn eval(expr: &Expr, batch: &RowBatch) -> Result<Operand> {
        if let Expr::Column { index, .. } = expr {
            if *index < batch.width() {
                return Ok(Operand::Batch(*index));
            }
        }
        eval_column(expr, batch).map(Operand::Owned)
    }

    /// Every expression of a list.
    pub(crate) fn eval_all(exprs: &[Expr], batch: &RowBatch) -> Result<Vec<Operand>> {
        exprs.iter().map(|e| Operand::eval(e, batch)).collect()
    }

    pub(crate) fn column<'a>(&'a self, batch: &'a RowBatch) -> &'a Column {
        match self {
            Operand::Batch(j) => batch.column(*j),
            Operand::Owned(c) => c,
        }
    }
}

/// The columns a list of operands reads.
pub(crate) fn operand_columns<'a>(ops: &'a [Operand], batch: &'a RowBatch) -> Vec<&'a Column> {
    ops.iter().map(|o| o.column(batch)).collect()
}

/// Evaluate `expr` over the selected rows of `batch` into a column: a
/// bare column reference copies its cells, anything else runs the
/// interpreter on each row in place.
pub(crate) fn eval_column(expr: &Expr, batch: &RowBatch) -> Result<Column> {
    if let Expr::Column { index, .. } = expr {
        if *index < batch.width() {
            let col = batch.column(*index);
            return Ok(match &batch.sel {
                Some(sel) => col.gather(sel),
                None => col.clone(),
            });
        }
    }
    let mut out = Column::Values(Vec::with_capacity(batch.len()));
    for i in batch.selected() {
        out.push_value(expr.eval(&batch.row(i))?);
    }
    Ok(out)
}
