//! Heap files: unordered record storage, one page chain per table.
//!
//! A heap owns its table schema and compression setting. Inserts go to the
//! tail page; when a `DATA_COMPRESSION = PAGE` page fills up it is
//! *recompressed* once — the heap decodes its rows, builds a
//! [`PageContext`], re-encodes, and rewrites the page (mirroring SQL
//! Server, which compresses a page when it becomes full). Rows inserted
//! into an already-compressed page are encoded against that page's
//! existing context.
//!
//! A heap of more than a quarter of the buffer pool is read through by
//! its scans ([`HeapFile::page_records_into`]): a page that is not cached
//! is read into the scan's own buffer ([`ReadBuf`]) and decoded there, so
//! one pass over a large table neither evicts the pages that point reads
//! keep coming back to nor pays for caching pages it reads once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use seqdb_types::{DbError, Result, Row, Schema, ValueRef};

use crate::buffer::{BufferPool, ReadBuf};
use crate::page::{Page, PageId, PageType, FLAG_COMPRESSED, FLAG_RECOMPRESSED, NO_PAGE, PAGE_SIZE};
use crate::pagec::PageContext;
use crate::rowfmt::{self, decode_row, encode_row, Compression, RecordSink};

/// Physical address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page: PageId,
    pub slot: u16,
}

/// An unordered table file.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    schema: Arc<Schema>,
    compression: Compression,
    state: Mutex<HeapState>,
    row_count: AtomicU64,
    /// `state.pages.len()`, readable without the lock an insert holds
    /// across its page I/O.
    page_count: AtomicU64,
}

struct HeapState {
    /// All pages of the heap in chain order. Kept in memory for O(1)
    /// tail access; rebuilt from the page chain on `open`.
    pages: Vec<PageId>,
}

impl HeapFile {
    /// Create an empty heap.
    pub fn create(
        pool: Arc<BufferPool>,
        schema: Arc<Schema>,
        compression: Compression,
    ) -> Result<HeapFile> {
        let (first, _) = pool.allocate(PageType::Heap)?;
        Ok(HeapFile {
            pool,
            schema,
            compression,
            state: Mutex::new(HeapState { pages: vec![first] }),
            row_count: AtomicU64::new(0),
            page_count: AtomicU64::new(1),
        })
    }

    /// Re-open a heap from its first page by walking the chain.
    pub fn open(
        pool: Arc<BufferPool>,
        schema: Arc<Schema>,
        compression: Compression,
        first_page: PageId,
    ) -> Result<HeapFile> {
        let mut pages = Vec::new();
        let mut rows = 0u64;
        let mut pid = first_page;
        while pid != NO_PAGE {
            let frame = pool.fetch(pid)?;
            let page = frame.page.read();
            rows += page.live_count() as u64;
            pages.push(pid);
            pid = page.next_page();
        }
        Ok(HeapFile {
            pool,
            schema,
            compression,
            page_count: AtomicU64::new(pages.len() as u64),
            state: Mutex::new(HeapState { pages }),
            row_count: AtomicU64::new(rows),
        })
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn compression(&self) -> Compression {
        self.compression
    }

    pub fn first_page(&self) -> PageId {
        self.state.lock().pages[0]
    }

    pub fn row_count(&self) -> u64 {
        self.row_count.load(Ordering::Relaxed)
    }

    /// Number of allocated pages (the unit SQL Server's `sp_spaceused`
    /// reports, used for Tables 1 and 2).
    pub fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::Relaxed)
    }

    /// Allocated bytes = pages × 8 KiB.
    pub fn allocated_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// Insert a row, returning its record id.
    pub fn insert(&self, row: &Row) -> Result<RecordId> {
        self.schema.check_row(row)?;
        let mut state = self.state.lock();
        let tail = *state.pages.last().expect("heap has at least one page");
        let frame = self.pool.fetch(tail)?;
        {
            let mut page = frame.page.write();
            let ctx = if page.has_flag(FLAG_COMPRESSED) {
                Some(PageContext::deserialize(page.ci_area())?)
            } else {
                None
            };
            let encoded = encode_row(&self.schema, row, self.compression, ctx.as_ref());
            if let Some(slot) = page.insert(&encoded) {
                frame.mark_dirty();
                self.row_count.fetch_add(1, Ordering::Relaxed);
                return Ok(RecordId { page: tail, slot });
            }
            // Page full. For PAGE compression, try recompressing it once.
            if self.compression == Compression::Page && !page.has_flag(FLAG_RECOMPRESSED) {
                let rows: Vec<Row> = page
                    .iter()
                    .map(|(_, rec)| decode_row(&self.schema, rec, self.compression, ctx.as_ref()))
                    .collect::<Result<_>>()?;
                let new_ctx = PageContext::build(&self.schema, &rows);
                if !new_ctx.is_trivial() {
                    let records: Vec<Vec<u8>> = rows
                        .iter()
                        .map(|r| encode_row(&self.schema, r, self.compression, Some(&new_ctx)))
                        .collect();
                    let ci = new_ctx.serialize();
                    let mut rebuilt = page.clone();
                    if rebuilt.rebuild(&ci, &records) {
                        rebuilt.set_flag(FLAG_COMPRESSED);
                        rebuilt.set_flag(FLAG_RECOMPRESSED);
                        *page = rebuilt;
                        frame.mark_dirty();
                        // Retry the insert against the compressed page.
                        let encoded =
                            encode_row(&self.schema, row, self.compression, Some(&new_ctx));
                        if let Some(slot) = page.insert(&encoded) {
                            self.row_count.fetch_add(1, Ordering::Relaxed);
                            return Ok(RecordId { page: tail, slot });
                        }
                    } else {
                        // Rebuild did not fit (pathological); mark so we
                        // don't retry every insert.
                        page.set_flag(FLAG_RECOMPRESSED);
                        frame.mark_dirty();
                    }
                } else {
                    page.set_flag(FLAG_RECOMPRESSED);
                    frame.mark_dirty();
                }
            }
        }
        // Chain a new tail page.
        let (new_id, new_frame) = self.pool.allocate(PageType::Heap)?;
        {
            let mut old = frame.page.write();
            old.set_next_page(new_id);
            frame.mark_dirty();
        }
        let encoded = encode_row(&self.schema, row, self.compression, None);
        let slot = {
            let mut page = new_frame.page.write();
            page.insert(&encoded).ok_or_else(|| {
                DbError::Storage(format!(
                    "record of {} bytes exceeds page capacity",
                    encoded.len()
                ))
            })?
        };
        new_frame.mark_dirty();
        state.pages.push(new_id);
        self.page_count.fetch_add(1, Ordering::Relaxed);
        self.row_count.fetch_add(1, Ordering::Relaxed);
        Ok(RecordId { page: new_id, slot })
    }

    /// Fetch one row by record id.
    pub fn get(&self, rid: RecordId) -> Result<Option<Row>> {
        let frame = self.pool.fetch(rid.page)?;
        let page = frame.page.read();
        let ctx = if page.has_flag(FLAG_COMPRESSED) {
            Some(PageContext::deserialize(page.ci_area())?)
        } else {
            None
        };
        match page.get(rid.slot) {
            None => Ok(None),
            Some(rec) => Ok(Some(decode_row(
                &self.schema,
                rec,
                self.compression,
                ctx.as_ref(),
            )?)),
        }
    }

    /// Delete one row. Returns whether a live row was removed.
    pub fn delete(&self, rid: RecordId) -> Result<bool> {
        let frame = self.pool.fetch(rid.page)?;
        let deleted = frame.page.write().delete(rid.slot);
        if deleted {
            frame.mark_dirty();
            self.row_count.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(deleted)
    }

    /// Full scan. Decodes a page at a time; the iterator holds only one
    /// page's rows in memory.
    pub fn scan(&self) -> HeapScan<'_> {
        self.scan_pages(self.pages_snapshot())
    }

    /// Snapshot of the heap's page chain (for planning parallel scans).
    pub fn pages_snapshot(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Scan only the given pages (they must belong to this heap). This is
    /// the partitioned access path used by parallel table scans: the
    /// planner splits [`HeapFile::pages_snapshot`] into per-worker ranges.
    pub fn scan_pages(&self, pages: Vec<PageId>) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            pages,
            page_idx: 0,
            current: Vec::new().into_iter(),
            buf: ReadBuf::default(),
        }
    }

    /// Decode every live row of one page straight into `out` (appended),
    /// skipping the per-row [`RecordId`] pairing of the general scan —
    /// the batch-friendly page visit for scans that only need rows.
    pub fn page_rows_into(&self, pid: PageId, out: &mut Vec<Row>) -> Result<()> {
        self.page_rows_into_masked(pid, None, out)
    }

    /// Like [`HeapFile::page_rows_into`], but with an optional column
    /// mask: each row holds only the masked columns, in schema order, and
    /// the others are skipped in the byte stream (see
    /// [`rowfmt::decode_row_masked`]) — the scan-level projection
    /// pushdown of the vectorized reader.
    pub fn page_rows_into_masked(
        &self,
        pid: PageId,
        mask: Option<&[bool]>,
        out: &mut Vec<Row>,
    ) -> Result<()> {
        /// Each record becomes a row of `out`.
        struct Rows<'a> {
            out: &'a mut Vec<Row>,
            row: Row,
        }
        impl RecordSink for Rows<'_> {
            fn push(&mut self, v: ValueRef<'_>) {
                self.row.push(v.to_value());
            }
            fn end_record(&mut self) {
                let width = self.row.len();
                let row = std::mem::replace(&mut self.row, Row(Vec::with_capacity(width)));
                self.out.push(row);
            }
        }
        let mut rows = Rows {
            out,
            row: Row::empty(),
        };
        let mut buf = ReadBuf::default();
        self.page_records_into(pid, &mut buf, mask, None, &mut rows)
    }

    /// Decode one page's live records into `sink` (see
    /// [`rowfmt::decode_record`]), with an optional [`rowfmt::CellCheck`]
    /// run part-way through each, and end each kept record in the sink.
    /// A refused record reaches the sink not at all, and its later
    /// columns are not even walked. This is a heap scan's pushed-down
    /// filter, and it runs under the page's read latch.
    ///
    /// This is the page visit of every heap scan, and `buf` is the
    /// scan's own page buffer: a heap of more than a quarter of the pool
    /// is read through ([`BufferPool::read_through`]), so a page that is
    /// not cached is read into `buf` and decoded there.
    pub fn page_records_into<S: RecordSink>(
        &self,
        pid: PageId,
        buf: &mut ReadBuf,
        mask: Option<&[bool]>,
        check: Option<rowfmt::CellCheck<'_>>,
        sink: &mut S,
    ) -> Result<()> {
        self.scan_page(pid, buf, |page| self.records_into(page, mask, check, sink))
    }

    /// [`HeapFile::page_records_into`] over a page in hand.
    fn records_into<S: RecordSink>(
        &self,
        page: &Page,
        mask: Option<&[bool]>,
        mut check: Option<rowfmt::CellCheck<'_>>,
        sink: &mut S,
    ) -> Result<()> {
        let ctx = if page.has_flag(FLAG_COMPRESSED) {
            Some(PageContext::deserialize(page.ci_area())?)
        } else {
            None
        };
        // An empty mask wants every column.
        let mask = mask.unwrap_or(&[]);
        for (_, rec) in page.iter() {
            // Reborrowed per record; `as _` shortens the closure's
            // lifetime to the reborrow's.
            let check = check.as_mut().map(|(at, keep)| (*at, &mut **keep as _));
            if rowfmt::decode_record(
                &self.schema,
                rec,
                self.compression,
                ctx.as_ref(),
                mask,
                check,
                sink,
            )? {
                sink.end_record();
            }
        }
        Ok(())
    }

    /// Run `visit` on page `pid`, under its read latch, for a visit of
    /// the whole heap. A heap of more than a quarter of the pool is read
    /// through ([`BufferPool::read_through`]): a scan of it reads each
    /// page once, and caching its misses would push out the pages that
    /// lookups keep reusing, so a page that is not cached is read into
    /// `buf` and decoded there. Smaller heaps are fetched into the pool,
    /// so a table that fits is cached by its first scan.
    fn scan_page<R>(
        &self,
        pid: PageId,
        buf: &mut ReadBuf,
        visit: impl FnOnce(&Page) -> Result<R>,
    ) -> Result<R> {
        if self.page_count() <= (self.pool.capacity() / 4) as u64 {
            return visit(&self.pool.fetch(pid)?.page.read());
        }
        match self.pool.read_through(pid, buf)? {
            Some(frame) => visit(&frame.page.read()),
            None => visit(buf.page().expect("a read-through miss fills the buffer")),
        }
    }

    /// Decode every live row of one page (with its compression context).
    fn page_rows(&self, pid: PageId, buf: &mut ReadBuf) -> Result<Vec<(RecordId, Row)>> {
        self.scan_page(pid, buf, |page| {
            let ctx = if page.has_flag(FLAG_COMPRESSED) {
                Some(PageContext::deserialize(page.ci_area())?)
            } else {
                None
            };
            page.iter()
                .map(|(slot, rec)| {
                    decode_row(&self.schema, rec, self.compression, ctx.as_ref())
                        .map(|row| (RecordId { page: pid, slot }, row))
                })
                .collect()
        })
    }

    /// Remove all rows but keep the (single, empty) first page.
    pub fn truncate(&self) -> Result<()> {
        let mut state = self.state.lock();
        let (first, _) = self.pool.allocate(PageType::Heap)?;
        state.pages = vec![first];
        self.page_count.store(1, Ordering::Relaxed);
        self.row_count.store(0, Ordering::Relaxed);
        Ok(())
    }
}

/// Iterator over all live rows of a heap.
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    pages: Vec<PageId>,
    page_idx: usize,
    current: std::vec::IntoIter<(RecordId, Row)>,
    /// Where a page that is not cached is read (see
    /// [`HeapFile::page_records_into`]).
    buf: ReadBuf,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(RecordId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(Ok(item));
            }
            if self.page_idx >= self.pages.len() {
                return None;
            }
            let pid = self.pages[self.page_idx];
            self.page_idx += 1;
            match self.heap.page_rows(pid, &mut self.buf) {
                Ok(rows) => {
                    self.current = rows.into_iter();
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use seqdb_types::{Column, DataType, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("tag", DataType::Text),
        ]))
    }

    fn heap(comp: Compression) -> HeapFile {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 64);
        HeapFile::create(pool, schema(), comp).unwrap()
    }

    fn tag_row(i: i64, tag: &str) -> Row {
        Row::new(vec![Value::Int(i), Value::text(tag)])
    }

    #[test]
    fn insert_scan_roundtrip() {
        let h = heap(Compression::Row);
        for i in 0..1000 {
            h.insert(&tag_row(i, &format!("TAG{}", i % 7))).unwrap();
        }
        assert_eq!(h.row_count(), 1000);
        let rows: Vec<Row> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[999][0], Value::Int(999));
    }

    #[test]
    fn get_and_delete_by_rid() {
        let h = heap(Compression::None);
        let rid = h.insert(&tag_row(1, "A")).unwrap();
        let rid2 = h.insert(&tag_row(2, "B")).unwrap();
        assert_eq!(h.get(rid).unwrap().unwrap()[1], Value::text("A"));
        assert!(h.delete(rid).unwrap());
        assert!(h.get(rid).unwrap().is_none());
        assert!(!h.delete(rid).unwrap());
        assert_eq!(h.row_count(), 1);
        assert_eq!(h.get(rid2).unwrap().unwrap()[1], Value::text("B"));
    }

    #[test]
    fn schema_violation_rejected() {
        let h = heap(Compression::None);
        let bad = Row::new(vec![Value::Null, Value::text("x")]);
        assert!(h.insert(&bad).is_err());
    }

    #[test]
    fn page_compression_reduces_pages_on_repetitive_data() {
        let rows: Vec<Row> = (0..20_000)
            .map(|i| tag_row(i, &format!("CATGGAATTCTCGGGTGCCAAGG_{}", i % 5)))
            .collect();
        let h_row = heap(Compression::Row);
        let h_page = heap(Compression::Page);
        for r in &rows {
            h_row.insert(r).unwrap();
            h_page.insert(r).unwrap();
        }
        assert!(
            h_page.page_count() * 3 < h_row.page_count() * 2,
            "page compression should save >=33%: {} vs {} pages",
            h_page.page_count(),
            h_row.page_count()
        );
        // And the data is intact.
        let rows_back: Vec<Row> = h_page.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(rows_back.len(), rows.len());
        assert_eq!(rows_back[19_999], rows[19_999]);
    }

    #[test]
    fn reopen_from_first_page() {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 64);
        let h = HeapFile::create(pool.clone(), schema(), Compression::Row).unwrap();
        for i in 0..500 {
            h.insert(&tag_row(i, "X")).unwrap();
        }
        let first = h.first_page();
        drop(h);
        let h2 = HeapFile::open(pool, schema(), Compression::Row, first).unwrap();
        assert_eq!(h2.row_count(), 500);
        assert_eq!(h2.scan().count(), 500);
    }

    #[test]
    fn truncate_empties() {
        let h = heap(Compression::Row);
        for i in 0..100 {
            h.insert(&tag_row(i, "X")).unwrap();
        }
        h.truncate().unwrap();
        assert_eq!(h.row_count(), 0);
        assert_eq!(h.scan().count(), 0);
        // And it accepts inserts again.
        h.insert(&tag_row(1, "Y")).unwrap();
        assert_eq!(h.scan().count(), 1);
    }

    #[test]
    fn a_heap_over_a_quarter_of_the_pool_is_scanned_cold() {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 64);
        let small = HeapFile::create(pool.clone(), schema(), Compression::None).unwrap();
        let large = HeapFile::create(pool.clone(), schema(), Compression::None).unwrap();
        let tag = "T".repeat(1000);
        for i in 0..40 {
            small.insert(&tag_row(i, &tag)).unwrap();
        }
        for i in 0..800 {
            large.insert(&tag_row(i, &tag)).unwrap();
        }
        assert!(small.page_count() <= 16 && large.page_count() > 64);
        pool.clear_cache().unwrap();
        let stat = |s: &AtomicU64| s.load(Ordering::Relaxed);
        let misses = || stat(&pool.stats.misses);

        // Under the threshold: the first scan caches the heap.
        assert_eq!(small.scan().count(), 40);
        let before = misses();
        assert_eq!(small.scan().count(), 40);
        assert_eq!(misses(), before);
        assert_eq!(stat(&pool.stats.cold_reads), 0);

        // Over it: every pass reads every page through, caching and
        // evicting none, and the small heap stays cached.
        let (evictions, cached) = (stat(&pool.stats.evictions), pool.cached_frames());
        for pass in 1..=3 {
            let fetched = stat(&pool.stats.hits) + misses();
            assert_eq!(large.scan().count(), 800);
            let fetched = stat(&pool.stats.hits) + misses() - fetched;
            assert_eq!(fetched, large.page_count());
            assert_eq!(stat(&pool.stats.cold_reads), pass * large.page_count());
        }
        assert_eq!(stat(&pool.stats.evictions), evictions);
        assert_eq!(pool.cached_frames(), cached);
        let before = misses();
        assert_eq!(small.scan().count(), 40);
        assert_eq!(misses(), before);
    }

    #[test]
    fn oversized_record_is_an_error() {
        let h = heap(Compression::None);
        let big = "G".repeat(PAGE_SIZE);
        assert!(h.insert(&tag_row(1, &big)).is_err());
    }
}
