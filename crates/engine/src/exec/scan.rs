//! Table access: heap scans (optionally over a page partition) and
//! ordered B+-tree index scans.

use std::ops::Bound;
use std::sync::Arc;

use seqdb_storage::page::PageId;
use seqdb_storage::rowfmt::{self, Compression};
use seqdb_types::{Result, Value};

use crate::catalog::{Table, TableIndex};
use crate::exec::{RowBatch, RowIterator};
use crate::expr::{passes, Expr, Kernel};

/// Sequential heap scan with an optional residual predicate and
/// projection pushed into the scan (the paper's parallel plans push both
/// below the exchange).
pub struct HeapScanIter {
    table: Arc<Table>,
    pages: std::vec::IntoIter<PageId>,
    filter: Option<Expr>,
    /// Compiled form of `filter`, when it has one.
    kernel: Option<Kernel>,
    projection: Option<Vec<usize>>,
    /// Columns to actually decode (`None` = all): unmasked columns come
    /// back as `Value::Null` placeholders, so the caller must guarantee
    /// nothing downstream reads them (see [`Plan::open`]'s demand pass).
    decode_mask: Option<Vec<bool>>,
}

impl HeapScanIter {
    pub fn new(
        table: Arc<Table>,
        filter: Option<Expr>,
        projection: Option<Vec<usize>>,
        decode_mask: Option<Vec<bool>>,
    ) -> Self {
        let pages = table.heap.pages_snapshot();
        HeapScanIter {
            table,
            pages: pages.into_iter(),
            kernel: filter.as_ref().and_then(Kernel::compile),
            filter,
            projection,
            decode_mask,
        }
    }

    /// Scan only partition `part` of `nparts` (page-range partitioning).
    pub fn partitioned(
        table: Arc<Table>,
        filter: Option<Expr>,
        projection: Option<Vec<usize>>,
        decode_mask: Option<Vec<bool>>,
        part: usize,
        nparts: usize,
    ) -> Self {
        let all = table.heap.pages_snapshot();
        let pages: Vec<PageId> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % nparts == part)
            .map(|(_, p)| p)
            .collect();
        HeapScanIter {
            table,
            pages: pages.into_iter(),
            kernel: filter.as_ref().and_then(Kernel::compile),
            filter,
            projection,
            decode_mask,
        }
    }
}

impl RowIterator for HeapScanIter {
    /// Each decoded page becomes one batch wholesale (`max_rows` is a
    /// hint; a page holds at most a few hundred rows): one pin, one
    /// decode, one return. The pushed-down residual predicate narrows the
    /// *selection vector* instead of moving or dropping rows, so a
    /// filtered scan does no per-row copying at all.
    fn next_batch(&mut self, _max_rows: usize) -> Result<Option<RowBatch>> {
        loop {
            let Some(pid) = self.pages.next() else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            self.table
                .heap
                .page_rows_into_masked(pid, self.decode_mask.as_deref(), &mut rows)?;
            let mut batch = RowBatch::from_rows(rows);
            if let Some(f) = &self.filter {
                batch.narrow(|row| passes(f, self.kernel.as_ref(), row))?;
            }
            if let Some(p) = &self.projection {
                let mut out = Vec::with_capacity(batch.len());
                for row in batch.iter() {
                    out.push(row.project(p));
                }
                batch = RowBatch::from_rows(out);
            }
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
    }
}

/// Ordered scan of a B+-tree index, decoding full rows. Supports an
/// equality prefix (`key_prefix`) that narrows the scan to one key range.
pub struct IndexScanIter {
    iter: OwnedRange,
    schema: Arc<seqdb_types::Schema>,
    filter: Option<Expr>,
    /// Compiled form of `filter`, when it has one.
    kernel: Option<Kernel>,
    projection: Option<Vec<usize>>,
}

/// The B+-tree range iterator materialized leaf-by-leaf; holding the
/// index `Arc` keeps the tree alive for the scan's lifetime.
struct OwnedRange {
    index: Arc<TableIndex>,
    buffer: std::vec::IntoIter<Vec<u8>>,
    /// Where the next refill starts; `None` once the range is exhausted.
    resume: Option<Bound<Vec<u8>>>,
    upper: Bound<Vec<u8>>,
}

impl OwnedRange {
    fn refill(&mut self) -> Result<()> {
        // Pull the next batch of entries from the tree. We re-open the
        // range from just after the last seen key; this keeps the borrow
        // on the tree short-lived and the iterator `Send`.
        const BATCH: usize = 1024;
        let Some(start) = self.resume.take() else {
            return Ok(());
        };
        let start = start.as_ref().map(Vec::as_slice);
        let end = self.upper.as_ref().map(Vec::as_slice);
        let mut vals = Vec::with_capacity(BATCH);
        let mut entries = self.index.btree.range(start, end)?;
        while let Some(entry) = entries.next_entry() {
            let (k, v) = entry?;
            vals.push(v.to_vec());
            if vals.len() == BATCH {
                // Only a full batch is followed by another refill, and
                // only then is the key it ended on needed.
                self.resume = Some(Bound::Excluded(k.to_vec()));
                break;
            }
        }
        self.buffer = vals.into_iter();
        Ok(())
    }
}

impl IndexScanIter {
    /// Scan rows whose index key starts with `prefix` (empty = full scan),
    /// in key order.
    pub fn new(
        table: &Arc<Table>,
        index: Arc<TableIndex>,
        prefix: &[Value],
        filter: Option<Expr>,
        projection: Option<Vec<usize>>,
    ) -> Self {
        let (lower, upper) = prefix_bounds(prefix);
        IndexScanIter {
            iter: OwnedRange {
                index,
                buffer: Vec::new().into_iter(),
                resume: Some(lower),
                upper,
            },
            schema: table.schema.clone(),
            kernel: filter.as_ref().and_then(Kernel::compile),
            filter,
            projection,
        }
    }
}

/// Key-range bounds covering every composite key beginning with `prefix`.
fn prefix_bounds(prefix: &[Value]) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    if prefix.is_empty() {
        return (Bound::Unbounded, Bound::Unbounded);
    }
    let lo = seqdb_storage::keycode::encode_key(prefix);
    // The upper bound is the prefix with a 0xFF sentinel appended: every
    // continuation of the prefix encoding sorts below it because keycode
    // type tags are all < 0xFF.
    let mut hi = lo.clone();
    hi.push(0xff);
    (Bound::Included(lo), Bound::Excluded(hi))
}

impl RowIterator for IndexScanIter {
    /// Decode a run of up to `max_rows` leaf entries per
    /// [`rowfmt::decode_rows_into`] call (`OwnedRange` pulls 1024 entries
    /// per tree visit).
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let max = max_rows.max(1);
        let mut rows = Vec::with_capacity(max.min(crate::exec::ExecContext::DEFAULT_BATCH_SIZE));
        let mut decoded = Vec::new();
        loop {
            let want = max - rows.len();
            decoded.clear();
            rowfmt::decode_rows_into(
                &self.schema,
                (&mut self.iter.buffer).take(want),
                Compression::Row,
                None,
                &mut decoded,
            )?;
            for row in decoded.drain(..) {
                if let Some(f) = &self.filter {
                    if !passes(f, self.kernel.as_ref(), &row)? {
                        continue;
                    }
                }
                rows.push(match &self.projection {
                    Some(p) => row.project(p),
                    None => row,
                });
            }
            if rows.len() >= max {
                break;
            }
            if self.iter.buffer.len() == 0 {
                self.iter.refill()?;
                if self.iter.buffer.len() == 0 {
                    break;
                }
            }
        }
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(RowBatch::from_rows(rows)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_context;
    use crate::exec::{collect, RowIterator};
    use crate::expr::{BinOp, Expr};
    use seqdb_types::{Column, DataType, Row, Schema};

    fn setup() -> (crate::exec::ExecContext, Arc<Table>) {
        let ctx = test_context();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("grp", DataType::Int),
            Column::new("seq", DataType::Text),
        ]);
        let t = ctx
            .catalog
            .create_table("reads", schema, Compression::Row, Some(vec![0]))
            .unwrap();
        for i in 0..500i64 {
            t.insert(&Row::new(vec![
                Value::Int(i),
                Value::Int(i % 3),
                Value::text(format!("SEQ{i}")),
            ]))
            .unwrap();
        }
        (ctx, t)
    }

    #[test]
    fn full_scan_with_filter_and_projection() {
        let (_ctx, t) = setup();
        let filter = Expr::binary(BinOp::Eq, Expr::col(1, "grp"), Expr::lit(1));
        let it = HeapScanIter::new(t, Some(filter), Some(vec![2, 0]), None);
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 167); // ids 1,4,...,499
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[0][0], Value::text("SEQ1"));
        assert_eq!(rows[0][1], Value::Int(1));
    }

    #[test]
    fn partitions_cover_everything_disjointly() {
        let (_ctx, t) = setup();
        let nparts = 3;
        let mut all = Vec::new();
        for p in 0..nparts {
            let it = HeapScanIter::partitioned(t.clone(), None, None, None, p, nparts);
            all.extend(collect(Box::new(it), 1024).unwrap());
        }
        assert_eq!(all.len(), 500);
        let mut ids: Vec<i64> = all.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn index_scan_is_ordered() {
        let (_ctx, t) = setup();
        let idx = t.index_with_prefix(&[0]).unwrap();
        let it = IndexScanIter::new(&t, idx, &[], None, None);
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 500);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn index_scan_with_equality_prefix() {
        let (ctx, _) = setup();
        // Composite-key table: (grp, id) primary key.
        let schema = Schema::new(vec![
            Column::new("grp", DataType::Int).not_null(),
            Column::new("id", DataType::Int).not_null(),
        ]);
        let t = ctx
            .catalog
            .create_table("pairs", schema, Compression::Row, Some(vec![0, 1]))
            .unwrap();
        for g in 0..5i64 {
            for i in 0..20i64 {
                t.insert(&Row::new(vec![Value::Int(g), Value::Int(i)]))
                    .unwrap();
            }
        }
        let idx = t.index_with_prefix(&[0]).unwrap();
        let it = IndexScanIter::new(&t, idx, &[Value::Int(3)], None, None);
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[0] == Value::Int(3)));
        // Ordered by the second key column within the prefix.
        let ids: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn empty_prefix_range_is_empty() {
        let (_ctx, t) = setup();
        let idx = t.index_with_prefix(&[0]).unwrap();
        let mut it = IndexScanIter::new(&t, idx, &[Value::Int(10_000)], None, None);
        assert!(it.next_batch(1).unwrap().is_none());
    }
}
