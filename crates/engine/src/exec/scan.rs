//! Table access: heap scans (optionally over a page partition) and
//! ordered B+-tree index scans.

use std::ops::Bound;
use std::sync::Arc;

use seqdb_storage::page::PageId;
use seqdb_storage::rowfmt::{self, Compression};
use seqdb_types::{Result, Row, Value};

use crate::catalog::{Table, TableIndex};
use crate::exec::{mark_read, Layout, RowBatch, RowIterator};
use crate::expr::{passes, Expr, Kernel};

/// What a scan decodes and where it lands, shared by both scans: the
/// columns its consumer reads plus those its own filter reads, in schema
/// order, and nothing else. The filter runs inside the decode, as soon as
/// the last column it reads is decoded: a record it refuses is never
/// built into a row.
struct Narrowing {
    /// Per table column, decoded or skipped; `None` decodes them all.
    wanted: Option<Vec<bool>>,
    layout: Layout,
    /// The pushed-down filter, over the narrow rows.
    filter: Option<Expr>,
    /// Compiled form of `filter`, when it has one.
    kernel: Option<Kernel>,
    /// One past the last table column `filter` reads: where the decode
    /// checks a record.
    check_at: usize,
}

impl Narrowing {
    /// `columns` marks the table columns the consumer reads (`None` =
    /// all of them).
    fn new(ncols: usize, filter: Option<&Expr>, columns: Option<Vec<bool>>) -> Result<Narrowing> {
        let wanted = columns
            .map(|mut wanted| {
                wanted.resize(ncols, false);
                mark_read(&mut wanted, filter);
                wanted
            })
            .filter(|wanted| !wanted.iter().all(|&w| w));
        let layout = match &wanted {
            Some(wanted) => Layout::packed(wanted),
            None => Layout::dense(ncols),
        };
        let mut read = vec![false; ncols];
        mark_read(&mut read, filter);
        let check_at = read.iter().rposition(|&r| r).map_or(0, |last| last + 1);
        let filter = filter.map(|f| layout.remap(f)).transpose()?;
        Ok(Narrowing {
            wanted,
            layout,
            kernel: filter.as_ref().and_then(Kernel::compile),
            filter,
            check_at,
        })
    }

    /// Run `decode` with the filter as its [`rowfmt::Check`] (none when
    /// the scan has no filter). The columns before `check_at` sit at
    /// their final positions in the narrow row, so the remapped filter
    /// and its kernel read the decoded prefix as they would the row.
    fn checked<T>(&self, decode: impl FnOnce(Option<rowfmt::Check<'_>>) -> T) -> T {
        let Some(filter) = &self.filter else {
            return decode(None);
        };
        let mut keep = |row: &Row| passes(filter, self.kernel.as_ref(), row);
        decode(Some((self.check_at, &mut keep)))
    }
}

/// Sequential heap scan with an optional residual predicate pushed into
/// the scan (the paper's parallel plans push it below the exchange). Its
/// rows are narrow: see [`HeapScanIter::layout`].
pub struct HeapScanIter {
    table: Arc<Table>,
    pages: std::vec::IntoIter<PageId>,
    narrow: Narrowing,
}

impl HeapScanIter {
    /// Scan every page, decoding the table columns `columns` marks
    /// (`None` = all) and those `filter` reads.
    pub fn new(
        table: Arc<Table>,
        filter: Option<&Expr>,
        columns: Option<Vec<bool>>,
    ) -> Result<Self> {
        Self::partitioned(table, filter, columns, 0, 1)
    }

    /// Scan only partition `part` of `nparts` (page-range partitioning).
    pub fn partitioned(
        table: Arc<Table>,
        filter: Option<&Expr>,
        columns: Option<Vec<bool>>,
        part: usize,
        nparts: usize,
    ) -> Result<Self> {
        let narrow = Narrowing::new(table.schema.len(), filter, columns)?;
        let pages: Vec<PageId> = table
            .heap
            .pages_snapshot()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % nparts == part)
            .map(|(_, p)| p)
            .collect();
        Ok(HeapScanIter {
            table,
            pages: pages.into_iter(),
            narrow,
        })
    }

    /// Where each table column sits in the rows this scan emits.
    pub fn layout(&self) -> &Layout {
        &self.narrow.layout
    }
}

impl RowIterator for HeapScanIter {
    /// Each page's kept rows become one batch wholesale (`max_rows` is a
    /// hint; a page holds at most a few hundred rows): one pin, one
    /// decode, one return. The pushed-down residual predicate is checked
    /// inside the decode, so a record it refuses is neither built nor
    /// walked past the filter's last column, and the batch holds only
    /// kept rows.
    fn next_batch(&mut self, _max_rows: usize) -> Result<Option<RowBatch>> {
        let narrow = &self.narrow;
        let mask = narrow.wanted.as_deref();
        loop {
            let Some(pid) = self.pages.next() else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            narrow.checked(|check| {
                self.table
                    .heap
                    .page_rows_into_checked(pid, mask, check, &mut rows)
            })?;
            if !rows.is_empty() {
                return Ok(Some(RowBatch::from_rows(rows)));
            }
        }
    }
}

/// A range of encoded index keys: `lower` and `upper` bound the keys
/// themselves, as [`seqdb_storage::BTree::range`] takes them.
#[derive(Debug, Clone)]
pub struct KeyRange {
    pub lower: Bound<Vec<u8>>,
    pub upper: Bound<Vec<u8>>,
}

impl KeyRange {
    /// Every key.
    pub fn all() -> KeyRange {
        KeyRange {
            lower: Bound::Unbounded,
            upper: Bound::Unbounded,
        }
    }

    /// Every composite key whose leading values equal `prefix` (all keys
    /// for an empty prefix): an equality seek.
    pub fn prefix(prefix: &[Value]) -> KeyRange {
        if prefix.is_empty() {
            return KeyRange::all();
        }
        let lo = seqdb_storage::keycode::encode_key(prefix);
        // The upper bound is the prefix with a 0xFF sentinel appended:
        // every continuation of the prefix encoding sorts below it because
        // keycode type tags are all < 0xFF.
        let mut hi = lo.clone();
        hi.push(0xff);
        KeyRange {
            lower: Bound::Included(lo),
            upper: Bound::Excluded(hi),
        }
    }
}

/// Ordered scan of a B+-tree index over one [`KeyRange`], decoding the
/// rows stored in its leaves into narrow rows, like [`HeapScanIter`].
pub struct IndexScanIter {
    index: Arc<TableIndex>,
    schema: Arc<seqdb_types::Schema>,
    narrow: Narrowing,
    /// Rows decoded by the last refill, filtered.
    buffer: std::vec::IntoIter<Row>,
    /// Where the next refill starts; `None` once the range is exhausted.
    resume: Option<Bound<Vec<u8>>>,
    upper: Bound<Vec<u8>>,
}

impl IndexScanIter {
    /// Scan the rows whose index key lies in `range`, in key order,
    /// decoding the table columns `columns` marks (`None` = all) and those
    /// `filter` reads.
    pub fn new(
        table: &Arc<Table>,
        index: Arc<TableIndex>,
        range: KeyRange,
        filter: Option<&Expr>,
        columns: Option<Vec<bool>>,
    ) -> Result<Self> {
        Ok(IndexScanIter {
            index,
            schema: table.schema.clone(),
            narrow: Narrowing::new(table.schema.len(), filter, columns)?,
            buffer: Vec::new().into_iter(),
            resume: Some(range.lower),
            upper: range.upper,
        })
    }

    /// Where each table column sits in the rows this scan emits.
    pub fn layout(&self) -> &Layout {
        &self.narrow.layout
    }

    /// Decode the next run of up to 1024 entries straight from the tree's
    /// leaf into `buffer`. The range is re-opened from just after the last
    /// key seen, which keeps the borrow on the tree short-lived and the
    /// iterator `Send`.
    fn refill(&mut self) -> Result<()> {
        const BATCH: usize = 1024;
        let Some(start) = self.resume.take() else {
            return Ok(());
        };
        let start = start.as_ref().map(Vec::as_slice);
        let end = self.upper.as_ref().map(Vec::as_slice);
        let mask = self.narrow.wanted.as_deref().unwrap_or(&[]);
        // Grown to the rows the run yields: a point seek holds one.
        let mut rows = Vec::new();
        // Refused entries reuse this row; a kept one moves out of it.
        let mut row = Row::empty();
        let mut entries = self.index.btree.range(start, end)?;
        let mut seen = 0;
        while let Some(entry) = entries.next_entry() {
            let (k, v) = entry?;
            if self.narrow.checked(|check| {
                rowfmt::decode_row_into(
                    &self.schema,
                    v,
                    Compression::Row,
                    None,
                    mask,
                    check,
                    &mut row,
                )
            })? {
                rows.push(std::mem::take(&mut row));
            }
            seen += 1;
            if seen == BATCH {
                // Only a full run is followed by another refill, and only
                // then is the key it ended on needed.
                self.resume = Some(Bound::Excluded(k.to_vec()));
                break;
            }
        }
        self.buffer = rows.into_iter();
        Ok(())
    }
}

impl RowIterator for IndexScanIter {
    /// Up to `max_rows` rows of the buffered run, refilling it (one tree
    /// visit per 1024 entries) as it empties.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let max = max_rows.max(1);
        let mut rows = Vec::new();
        while rows.len() < max {
            if self.buffer.len() == 0 {
                if self.resume.is_none() {
                    break;
                }
                self.refill()?;
                continue;
            }
            rows.extend((&mut self.buffer).take(max - rows.len()));
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
    use crate::database::RemoveDirOnDrop;
    use crate::exec::testutil::test_context;
    use crate::exec::{collect, Layout, RowIterator};
    use crate::expr::{BinOp, Expr};
    use seqdb_types::{Column, DataType, Row, Schema};

    fn setup() -> (crate::exec::ExecContext, Arc<Table>, RemoveDirOnDrop) {
        let (ctx, dir) = test_context();
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
        (ctx, t, dir)
    }

    #[test]
    fn heap_scan_decodes_the_demanded_and_filter_columns_in_schema_order() {
        let (_ctx, t, _dir) = setup();
        let filter = Expr::binary(BinOp::Eq, Expr::col(1, "grp"), Expr::lit(1));
        // Only `seq` is demanded; `grp` rides along because the filter
        // reads it, and `id` is skipped.
        let it = HeapScanIter::new(t, Some(&filter), Some(vec![false, false, true])).unwrap();
        assert_eq!(it.layout(), &Layout::packed(&[false, true, true]));
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 167); // ids 1,4,...,499
        assert!(rows.iter().all(|r| r.len() == 2));
        assert_eq!(rows[0].values(), &[Value::Int(1), Value::text("SEQ1")]);
    }

    #[test]
    fn partitions_cover_everything_disjointly() {
        let (_ctx, t, _dir) = setup();
        let nparts = 3;
        let mut all = Vec::new();
        for p in 0..nparts {
            let it = HeapScanIter::partitioned(t.clone(), None, None, p, nparts).unwrap();
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
        let (_ctx, t, _dir) = setup();
        let idx = t.index_with_prefix(&[0]).unwrap();
        let it = IndexScanIter::new(&t, idx, KeyRange::all(), None, None).unwrap();
        assert!(it.layout().is_dense());
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 500);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), 3);
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn index_scan_over_a_key_range_decodes_only_the_mask() {
        let (_ctx, t, _dir) = setup();
        let idx = t.index_with_prefix(&[0]).unwrap();
        let key = |i: i64| seqdb_storage::keycode::encode_key(&[Value::Int(i)]);
        let range = KeyRange {
            lower: Bound::Included(key(100)),
            upper: Bound::Excluded(key(350)),
        };
        let filter = Expr::binary(BinOp::Eq, Expr::col(1, "grp"), Expr::lit(0));
        // One row per pull crosses the 1024-entry refills of a wider range
        // the same way: a batch size of 1 is the row-mode oracle.
        for batch in [1, 7, 1024] {
            // `id` is demanded and `grp` only filtered on: the rows are
            // exactly those two columns wide, `seq` is never built.
            let it = IndexScanIter::new(
                &t,
                idx.clone(),
                range.clone(),
                Some(&filter),
                Some(vec![true, false, false]),
            )
            .unwrap();
            assert_eq!(it.layout(), &Layout::packed(&[true, true, false]));
            let rows = collect(Box::new(it), batch).unwrap();
            let ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            let expect: Vec<i64> = (100..350).filter(|i| i % 3 == 0).collect();
            assert_eq!(ids, expect, "batch {batch}");
            assert!(rows.iter().all(|r| r.len() == 2), "seq was decoded");
        }
    }

    #[test]
    fn index_scan_with_equality_prefix() {
        let (ctx, _, _dir) = setup();
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
        let it =
            IndexScanIter::new(&t, idx, KeyRange::prefix(&[Value::Int(3)]), None, None).unwrap();
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[0] == Value::Int(3)));
        // Ordered by the second key column within the prefix.
        let ids: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn empty_prefix_range_is_empty() {
        let (_ctx, t, _dir) = setup();
        let idx = t.index_with_prefix(&[0]).unwrap();
        let mut it =
            IndexScanIter::new(&t, idx, KeyRange::prefix(&[Value::Int(10_000)]), None, None)
                .unwrap();
        assert!(it.next_batch(1).unwrap().is_none());
    }
}
