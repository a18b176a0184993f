//! Window functions: `ROW_NUMBER() OVER (ORDER BY ...)`.
//!
//! The paper's Query 1 uses `ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC)`
//! to rank binned short-reads. The planner usually lowers the OVER clause
//! into a [`crate::exec::sort::SortIter`] below this operator — whose
//! buffering is already budget-accounted — and the operator simply
//! prepends (or appends) a running counter.
//!
//! When the input is *already* ordered (a clustered index scan covering
//! the window keys), the planner skips the Sort and this operator runs
//! directly over the scan. It then maintains the window's peer frame
//! itself: rows tied on the ORDER BY columns buffer together, and that
//! buffer is charged against the query's memory budget — without the
//! Sort beneath it, nobody else accounts for those rows.

use std::sync::Arc;

use seqdb_types::{Result, Row, Value};

use crate::exec::{fill_batch, BoxedIter, RowBatch, RowCursor, RowIterator};
use crate::governor::{MemCharge, QueryGovernor};

/// Rough bytes held by one buffered peer row.
const PEER_ROW_OVERHEAD: usize = 32;

fn peer_row_cost(row: &Row) -> usize {
    row.values().iter().map(|v| v.size_bytes()).sum::<usize>() + PEER_ROW_OVERHEAD
}

/// Appends a 1-based row number column to each input row. The input must
/// already be ordered per the window's ORDER BY.
pub struct RowNumberIter {
    input: RowCursor,
    counter: i64,
    /// If true, the number is prepended instead of appended (Query 1
    /// selects the rank first).
    prepend: bool,
    /// Window ORDER BY columns when this operator sits directly over an
    /// ordered scan (no Sort beneath): rows tied on these columns form a
    /// peer frame that is buffered and charged. Empty = a Sort below
    /// already accounted for the rows; stream straight through.
    order_cols: Vec<usize>,
    charge: Option<MemCharge>,
    /// Buffered peer frame being drained (in reverse, for pop()).
    pending: Vec<Row>,
    /// First row of the *next* peer frame, read while detecting the
    /// current frame's end.
    lookahead: Option<Row>,
    done: bool,
}

impl RowNumberIter {
    pub fn new(input: BoxedIter, prepend: bool, batch_size: usize) -> RowNumberIter {
        RowNumberIter {
            input: RowCursor::new(input, batch_size),
            counter: 0,
            prepend,
            order_cols: Vec::new(),
            charge: None,
            pending: Vec::new(),
            lookahead: None,
            done: false,
        }
    }

    /// Peer-buffering mode for a Sort-less plan: `order_cols` are the
    /// window's ORDER BY columns in the input schema, and the peer frames
    /// buffered here charge `gov`'s memory budget.
    pub fn with_peer_frames(
        input: BoxedIter,
        prepend: bool,
        order_cols: Vec<usize>,
        gov: Arc<QueryGovernor>,
        batch_size: usize,
    ) -> RowNumberIter {
        RowNumberIter {
            order_cols,
            charge: Some(MemCharge::new(gov)),
            ..RowNumberIter::new(input, prepend, batch_size)
        }
    }

    fn number(&mut self, row: Row) -> Row {
        self.counter += 1;
        let mut vals = Vec::with_capacity(row.len() + 1);
        if self.prepend {
            vals.push(Value::Int(self.counter));
            vals.extend_from_slice(row.values());
        } else {
            vals.extend_from_slice(row.values());
            vals.push(Value::Int(self.counter));
        }
        Row::new(vals)
    }

    fn same_peers(&self, a: &Row, b: &Row) -> bool {
        self.order_cols.iter().all(|&c| a[c] == b[c])
    }

    /// Buffer the next peer frame (rows tied on the ORDER BY columns),
    /// charging each buffered row against the budget. A frame larger than
    /// the remaining budget fails typed — unlike the hash aggregate there
    /// is no spill format for an in-flight frame, and frames over an
    /// ordered index scan are expected to be small.
    fn fill_frame(&mut self) -> Result<()> {
        let first = match self.lookahead.take() {
            Some(r) => Some(r),
            None => self.input.next()?,
        };
        let Some(first) = first else {
            self.done = true;
            return Ok(());
        };
        if let Some(charge) = self.charge.as_mut() {
            charge.grow(peer_row_cost(&first))?;
        }
        let mut frame = vec![first];
        loop {
            match self.input.next()? {
                None => break,
                Some(row) => {
                    if self.same_peers(&frame[0], &row) {
                        if let Some(charge) = self.charge.as_mut() {
                            charge.grow(peer_row_cost(&row))?;
                        }
                        frame.push(row);
                    } else {
                        self.lookahead = Some(row);
                        break;
                    }
                }
            }
        }
        frame.reverse(); // drain via pop() in arrival order
        self.pending = frame;
        Ok(())
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if self.order_cols.is_empty() {
            // Streaming mode: a Sort below already buffered the rows.
            return match self.input.next()? {
                None => Ok(None),
                Some(row) => Ok(Some(self.number(row))),
            };
        }
        if self.pending.is_empty() && !self.done {
            self.fill_frame()?;
            if let Some(charge) = self.charge.as_mut() {
                // The frame is complete; its rows stream out from here
                // while the next frame is charged afresh.
                charge.release_all();
            }
        }
        match self.pending.pop() {
            Some(row) => Ok(Some(self.number(row))),
            None => Ok(None),
        }
    }
}

impl RowIterator for RowNumberIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::int_rows;
    use crate::exec::{collect, ValuesIter};
    use seqdb_types::DbError;

    #[test]
    fn numbers_rows_in_order() {
        let rows = int_rows(&[&[30], &[20], &[10]]);
        let it = RowNumberIter::new(Box::new(ValuesIter::new(rows)), false, 2);
        let out = collect(Box::new(it), 1024).unwrap();
        let pairs: Vec<(i64, i64)> = out
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(30, 1), (20, 2), (10, 3)]);
    }

    #[test]
    fn prepend_mode() {
        let rows = int_rows(&[&[7]]);
        let it = RowNumberIter::new(Box::new(ValuesIter::new(rows)), true, 2);
        let out = collect(Box::new(it), 1024).unwrap();
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(7)]);
    }

    #[test]
    fn peer_frames_number_identically_and_release_their_charge() {
        // Ties on column 0 form frames {10,10}, {20}, {30,30,30}.
        let rows = int_rows(&[&[10, 1], &[10, 2], &[20, 3], &[30, 4], &[30, 5], &[30, 6]]);
        let gov = QueryGovernor::new(None, Some(1 << 20));
        let it = RowNumberIter::with_peer_frames(
            Box::new(ValuesIter::new(rows)),
            false,
            vec![0],
            gov.clone(),
            2,
        );
        let nums: Vec<(i64, i64)> = collect(Box::new(it), 4)
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[2].as_int().unwrap()))
            .collect();
        assert_eq!(
            nums,
            vec![(10, 1), (10, 2), (20, 3), (30, 4), (30, 5), (30, 6)]
        );
        assert_eq!(gov.mem_used(), 0, "peer-frame charges released");
    }

    #[test]
    fn oversized_peer_frame_fails_typed() {
        // Every row is a peer of every other: the frame must exceed a
        // tiny budget and fail with ResourceExhausted, not OOM.
        let rows = int_rows(&[&[1], &[1], &[1], &[1], &[1], &[1], &[1], &[1]]);
        let gov = QueryGovernor::new(None, Some(96));
        let it = RowNumberIter::with_peer_frames(
            Box::new(ValuesIter::new(rows)),
            false,
            vec![0],
            gov.clone(),
            2,
        );
        let err = collect(Box::new(it), 4).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
        assert_eq!(gov.mem_used(), 0, "charges released on failure");
    }
}
