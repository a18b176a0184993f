//! Buffer pool: an exact-LRU cache of page frames over a [`PageStore`].
//!
//! Frames are shared via `Arc`; a frame whose `Arc` is held by an operator
//! is pinned: eviction takes the least recently used frame nobody else
//! references and skips pinned ones. Recency is an intrusive doubly
//! linked list threaded through a slab of slots (`FrameTable`), so a
//! hit, an eviction and a removal each cost O(1) under the one
//! frame-table mutex (an eviction also steps over the pinned frames ahead
//! of its victim). Hit/miss counters support the "warm buffer pool"
//! measurements of the paper's §5.3.3 (the 7-second warm merge join).
//!
//! A dirty victim stays findable until its write-back lands: it leaves
//! the LRU list under the mutex and is written back after, and a fetch
//! that asks for it meanwhile takes the frame back as a hit instead of
//! reading the store's older image. A checkpoint writes it too.
//!
//! [`BufferPool::read_through`] is the read of a scan too large to keep
//! (see [`crate::HeapFile::page_records_into`]): a cached page is a hit
//! like any other, but a miss is read into a buffer the scan owns,
//! verified there and never cached, so the scan evicts nothing, allocates
//! nothing and leaves the frame table alone.
//!
//! When the pool is built with a [`WriteAheadLog`]
//! ([`BufferPool::with_wal`]), every in-place page write follows the
//! WAL-before-data rule: the sealed page image is logged and the log
//! synced before the data store is touched, so a torn in-place write can
//! always be repaired on recovery. [`BufferPool::checkpoint`] batches the
//! images of all dirty pages under one commit marker and a single log
//! sync, then writes them back, syncs the store and truncates the log.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use seqdb_types::Result;

use crate::page::{Page, PageId, PageType, PAGE_SIZE};
use crate::pager::PageStore;
use crate::wal::WriteAheadLog;

/// One cached page image.
pub struct Frame {
    pub id: PageId,
    /// The page contents. Writers take the write lock, mark the frame dirty
    /// and the pool writes it back on eviction or flush.
    pub page: RwLock<Page>,
    dirty: AtomicBool,
}

impl Frame {
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

/// Buffer-pool statistics (monotonic counters).
#[derive(Debug, Default)]
pub struct PoolStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub writebacks: AtomicU64,
    /// Misses of [`BufferPool::read_through`]: pages a scan read into its
    /// own buffer without caching them. Each is counted in `misses` too.
    pub cold_reads: AtomicU64,
}

/// A scan's own page buffer: where [`BufferPool::read_through`] puts a
/// page that is not cached. Its 8 KiB are allocated by the first such
/// read and reused by every later one.
#[derive(Default)]
pub struct ReadBuf {
    page: Option<Page>,
}

impl ReadBuf {
    /// The page the last read-through miss verified into this buffer
    /// (`None` before the first one, or after a read that failed).
    pub fn page(&self) -> Option<&Page> {
        self.page.as_ref()
    }
}

/// An LRU buffer pool. `capacity` is in frames (8 KiB each).
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    wal: Option<Arc<WriteAheadLog>>,
    frames: Mutex<FrameTable>,
    capacity: usize,
    pub stats: PoolStats,
}

/// One slab slot: a cached frame and its neighbours in recency order.
#[derive(Default)]
struct Slot {
    frame: Option<Arc<Frame>>,
    prev: usize,
    next: usize,
}

/// The cached frames in exact LRU order: a circular list threaded through
/// `slots`. Slot 0 anchors it and holds no frame; its `next` is the least
/// recently used slot, its `prev` the most recent. `map` holds exactly
/// the linked slots; vacated ones are chained from `free` through `next`,
/// 0 ending the chain.
struct FrameTable {
    map: HashMap<PageId, usize>,
    slots: Vec<Slot>,
    free: usize,
    /// Dirty victims whose write-back has not landed yet: newer than the
    /// store's image, so a fetch of one takes it back from here.
    writing: Vec<Arc<Frame>>,
}

impl FrameTable {
    fn frame(&self, slot: usize) -> &Arc<Frame> {
        let frame = self.slots[slot].frame.as_ref();
        frame.expect("a linked slot holds a frame")
    }

    /// Linked slots, least recently used first.
    fn lru(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.slots[0].next), |&s| Some(self.slots[s].next))
            .take_while(|&s| s != 0)
    }

    /// Whether anybody besides the pool references `slot`'s frame.
    fn pinned(&self, slot: usize) -> bool {
        Arc::strong_count(self.frame(slot)) > 1
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
    }

    fn link_most_recent(&mut self, slot: usize) {
        let tail = self.slots[0].prev;
        (self.slots[slot].prev, self.slots[slot].next) = (tail, 0);
        self.slots[tail].next = slot;
        self.slots[0].prev = slot;
    }

    /// Mark `slot` most recently used.
    fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.link_most_recent(slot);
    }

    /// Cache `frame`, whose page must not be cached, as most recently
    /// used.
    fn push(&mut self, frame: Arc<Frame>) -> usize {
        let mut slot = self.free;
        if slot == 0 {
            slot = self.slots.len();
            self.slots.push(Slot::default());
        } else {
            self.free = self.slots[slot].next;
        }
        self.map.insert(frame.id, slot);
        self.slots[slot].frame = Some(frame);
        self.link_most_recent(slot);
        slot
    }

    /// Drop `slot` from the cache and hand its frame back.
    fn remove(&mut self, slot: usize) -> Arc<Frame> {
        self.unlink(slot);
        let frame = self.slots[slot].frame.take();
        let frame = frame.expect("a linked slot holds a frame");
        self.slots[slot].next = std::mem::replace(&mut self.free, slot);
        self.map.remove(&frame.id);
        frame
    }

    /// Page `id`'s frame as a hit: a cached one moves to the most recent
    /// end, one being written back is cached again.
    fn hit(&mut self, id: PageId) -> Option<Arc<Frame>> {
        if let Some(&slot) = self.map.get(&id) {
            self.touch(slot);
            return Some(self.frame(slot).clone());
        }
        let at = self.writing.iter().position(|f| f.id == id)?;
        let frame = self.writing.swap_remove(at);
        self.push(frame.clone());
        Some(frame)
    }
}

impl BufferPool {
    /// Default capacity: 4096 frames = 32 MiB.
    pub const DEFAULT_CAPACITY: usize = 4096;

    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> Arc<BufferPool> {
        Self::build(store, capacity, None)
    }

    /// A pool whose page writes are protected by a write-ahead log. The
    /// caller is expected to have already replayed the log into `store`
    /// ([`WriteAheadLog::recover_into`]) before handing it over.
    pub fn with_wal(
        store: Arc<dyn PageStore>,
        capacity: usize,
        wal: Arc<WriteAheadLog>,
    ) -> Arc<BufferPool> {
        Self::build(store, capacity, Some(wal))
    }

    fn build(
        store: Arc<dyn PageStore>,
        capacity: usize,
        wal: Option<Arc<WriteAheadLog>>,
    ) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            store,
            wal,
            frames: Mutex::new(FrameTable {
                map: HashMap::new(),
                slots: vec![Slot::default()],
                free: 0,
                writing: Vec::new(),
            }),
            capacity: capacity.max(8),
            stats: PoolStats::default(),
        })
    }

    pub fn with_default_capacity(store: Arc<dyn PageStore>) -> Arc<BufferPool> {
        Self::new(store, Self::DEFAULT_CAPACITY)
    }

    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    pub fn wal(&self) -> Option<&Arc<WriteAheadLog>> {
        self.wal.as_ref()
    }

    /// Frames the pool keeps before it evicts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Page `id`'s frame if the pool holds it, counted as a hit.
    fn lookup(&self, id: PageId) -> Option<Arc<Frame>> {
        let frame = self.frames.lock().hit(id)?;
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Some(frame)
    }

    /// Read page `id` from the store into `buf`: a miss, timed as buffer
    /// I/O.
    fn read_miss(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let start = std::time::Instant::now();
        self.store.read_page(id, buf)?;
        crate::counters::waits().record(crate::counters::WaitClass::BufferIo, start.elapsed());
        Ok(())
    }

    /// Fetch a page frame, reading it from the store on a miss.
    pub fn fetch(&self, id: PageId) -> Result<Arc<Frame>> {
        if let Some(frame) = self.lookup(id) {
            return Ok(frame);
        }
        // Read outside the table lock; a racing fetch of the same page may
        // duplicate the read, but the table insert below deduplicates.
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.read_miss(id, &mut buf)?;
        let frame = Arc::new(Frame {
            id,
            page: RwLock::new(Page::from_bytes(buf)?),
            dirty: AtomicBool::new(false),
        });
        self.insert_frame(frame)
    }

    /// Read page `id` for a scan that visits it once. A cached page (a
    /// dirty one always is) comes back as its frame, a hit like any
    /// [`BufferPool::fetch`]. Any other is read into `buf`, checked like
    /// every page read (checksum, magic, type) and returned as `None`:
    /// it never becomes a frame, so the read evicts nothing.
    pub fn read_through(&self, id: PageId, buf: &mut ReadBuf) -> Result<Option<Arc<Frame>>> {
        if let Some(frame) = self.lookup(id) {
            return Ok(Some(frame));
        }
        self.stats.cold_reads.fetch_add(1, Ordering::Relaxed);
        let mut bytes = match buf.page.take() {
            Some(page) => page.into_bytes(),
            None => vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        self.read_miss(id, &mut bytes)?;
        buf.page = Some(Page::from_bytes(bytes)?);
        Ok(None)
    }

    /// Allocate a fresh page of the given type and return its frame
    /// (already dirty).
    pub fn allocate(&self, ptype: PageType) -> Result<(PageId, Arc<Frame>)> {
        let id = self.store.allocate()?;
        let frame = Arc::new(Frame {
            id,
            page: RwLock::new(Page::new(ptype)),
            dirty: AtomicBool::new(true),
        });
        let frame = self.insert_frame(frame)?;
        Ok((id, frame))
    }

    /// Cache `frame` as most recently used, unless a racing fetch cached
    /// its page first, then evict down to capacity and write the dirty
    /// victims back.
    fn insert_frame(&self, frame: Arc<Frame>) -> Result<Arc<Frame>> {
        let mut evict: Vec<Arc<Frame>> = Vec::new();
        let out = {
            let mut t = self.frames.lock();
            let out = match t.hit(frame.id) {
                Some(cached) => cached,
                None => {
                    let slot = t.push(frame);
                    t.frame(slot).clone()
                }
            };
            // Evict LRU frames that nobody references; `out` pins the
            // frame just cached.
            while t.map.len() > self.capacity {
                let Some(victim) = t.lru().find(|&s| !t.pinned(s)) else {
                    break; // everything pinned
                };
                let victim = t.remove(victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                if victim.is_dirty() {
                    t.writing.push(victim.clone());
                    evict.push(victim);
                }
            }
            out
        };
        if evict.is_empty() {
            return Ok(out);
        }
        let (mut landed, mut result) = (0, Ok(()));
        for vf in &evict {
            result = self.writeback(vf);
            if result.is_err() {
                break;
            }
            landed += 1;
        }
        let mut t = self.frames.lock();
        for (i, vf) in evict.iter().enumerate() {
            // A fetch may have taken the victim back meanwhile.
            let Some(at) = t.writing.iter().position(|f| Arc::ptr_eq(f, vf)) else {
                continue;
            };
            let vf = t.writing.swap_remove(at);
            // A victim whose dirty image could not be written back must
            // not be dropped: that would silently lose the page.
            if i >= landed {
                t.push(vf);
            }
        }
        result.map(|()| out)
    }

    /// Write one frame's dirty image in place (eviction path). With a WAL
    /// attached this is a single-page transaction: image + commit marker
    /// logged and synced before the in-place write.
    fn writeback(&self, frame: &Frame) -> Result<()> {
        if frame.is_dirty() {
            let page = frame.page.read();
            let image = page.to_bytes();
            if let Some(wal) = &self.wal {
                wal.log_page(frame.id, &image)?;
                wal.commit()?;
                wal.sync()?;
            }
            self.store.write_page(frame.id, &image)?;
            frame.dirty.store(false, Ordering::Release);
            drop(page);
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Durably write every dirty frame back to the store.
    ///
    /// With a WAL attached this is a checkpoint: all dirty images are
    /// logged under one commit marker and one log sync, written in place,
    /// the store is synced and the log truncated. Without a WAL it
    /// degrades to write-back-and-sync.
    pub fn checkpoint(&self) -> Result<()> {
        // Victims still being written back count too: the checkpoint must
        // not return before their images are in the store.
        let frames: Vec<Arc<Frame>> = {
            let t = self.frames.lock();
            let cached = t.lru().map(|s| t.frame(s).clone());
            cached.chain(t.writing.iter().cloned()).collect()
        };
        let Some(wal) = &self.wal else {
            for f in frames {
                self.writeback(&f)?;
            }
            return self.store.sync();
        };
        // Capture sealed images of all dirty frames, clearing the dirty
        // flag under the read guard so a concurrent re-dirtying after the
        // capture is never lost.
        let mut captured: Vec<(Arc<Frame>, Box<[u8]>)> = Vec::new();
        for f in &frames {
            if f.is_dirty() {
                let page = f.page.read();
                let image = page.to_bytes();
                f.dirty.store(false, Ordering::Release);
                drop(page);
                captured.push((f.clone(), image));
            }
        }
        if captured.is_empty() {
            return self.store.sync();
        }
        let result = (|| {
            for (f, image) in &captured {
                wal.log_page(f.id, image)?;
            }
            wal.commit()?;
            wal.sync()?;
            for (f, image) in &captured {
                self.store.write_page(f.id, image)?;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.store.sync()?;
            wal.truncate()
        })();
        if result.is_err() {
            // The images never became durable as a unit; put the dirty
            // flags back so the pages are retried later.
            for (f, _) in &captured {
                f.mark_dirty();
            }
        }
        result
    }

    /// Alias for [`BufferPool::checkpoint`], kept for callers that predate
    /// the WAL.
    pub fn flush_all(&self) -> Result<()> {
        self.checkpoint()
    }

    /// Drop every clean cached frame (for cold-cache benchmarking).
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        let mut t = self.frames.lock();
        let unpinned: Vec<usize> = t.lru().filter(|&s| !t.pinned(s)).collect();
        for slot in unpinned {
            t.remove(slot);
        }
        Ok(())
    }

    /// Repair path 1: if page `id` is cached, rewrite the durable copy
    /// from the in-memory image (WAL-before-data, like an eviction
    /// writeback) and return `true`. A cached frame is always at least as
    /// fresh as disk — corrupt images never enter the cache, because
    /// [`BufferPool::fetch`] verifies the checksum before inserting — so
    /// this is the preferred source for scrub repairs. Deliberately does
    /// NOT fall back to reading the store: the caller only wants the
    /// in-memory copy.
    pub fn rewrite_from_cache(&self, id: PageId) -> Result<bool> {
        let frame = {
            let t = self.frames.lock();
            t.map.get(&id).map(|&slot| t.frame(slot).clone())
        };
        let Some(frame) = frame else {
            return Ok(false);
        };
        let page = frame.page.read();
        let image = page.to_bytes();
        if let Some(wal) = &self.wal {
            wal.log_page(id, &image)?;
            wal.commit()?;
            wal.sync()?;
        }
        self.store.write_page(id, &image)?;
        self.store.sync()?;
        frame.dirty.store(false, Ordering::Release);
        Ok(true)
    }

    /// Repair path 2: rewrite page `id` in place from `image` (a verified
    /// last-committed copy recovered from the WAL). The image is logged
    /// and synced before the in-place write, so a crash mid-repair is
    /// itself recoverable. Any *clean* cached frame for the page is
    /// dropped defensively; readers re-fetch and see the repaired image.
    /// (A dirty or pinned frame is left alone — it is newer than the
    /// repair source and will overwrite it on its own writeback.)
    pub fn restore_page(&self, id: PageId, image: &[u8]) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.log_page(id, image)?;
            wal.commit()?;
            wal.sync()?;
        }
        self.store.write_page(id, image)?;
        self.store.sync()?;
        let mut t = self.frames.lock();
        if let Some(&slot) = t.map.get(&id) {
            if !t.frame(slot).is_dirty() && !t.pinned(slot) {
                t.remove(slot);
            }
        }
        Ok(())
    }

    pub fn cached_frames(&self) -> usize {
        self.frames.lock().map.len()
    }

    /// Frames currently pinned by callers (an outstanding `Arc<Frame>`
    /// beyond the pool's own reference). A query that aborts mid-stream
    /// must drop every pin it took; leak tests assert this returns to its
    /// pre-query value.
    pub fn pinned_frames(&self) -> usize {
        let t = self.frames.lock();
        t.lru().filter(|&s| t.pinned(s)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn pool(cap: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemPager::new()), cap)
    }

    #[test]
    fn allocate_fetch_roundtrip() {
        let pool = pool(16);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"data").unwrap();
        frame.mark_dirty();
        pool.flush_all().unwrap();

        pool.clear_cache().unwrap();
        drop(frame);
        let again = pool.fetch(id).unwrap();
        assert_eq!(again.page.read().get(0), Some(&b"data"[..]));
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let pool = pool(8);
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (id, frame) = pool.allocate(PageType::Heap).unwrap();
            frame.page.write().insert(&[i]).unwrap();
            frame.mark_dirty();
            ids.push(id);
            // frames dropped here => evictable
        }
        assert!(pool.cached_frames() <= 8);
        assert!(pool.stats.evictions.load(Ordering::Relaxed) > 0);
        // All data still readable through the pool.
        for (i, id) in ids.iter().enumerate() {
            let f = pool.fetch(*id).unwrap();
            assert_eq!(f.page.read().get(0), Some(&[i as u8][..]));
        }
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let pool = pool(8);
        let (pinned_id, pinned) = pool.allocate(PageType::Heap).unwrap();
        pinned.page.write().insert(b"pinned").unwrap();
        pinned.mark_dirty();
        for _ in 0..64 {
            let _ = pool.allocate(PageType::Heap).unwrap();
        }
        // Our Arc still points at the same live frame.
        assert_eq!(pinned.page.read().get(0), Some(&b"pinned"[..]));
        let again = pool.fetch(pinned_id).unwrap();
        assert!(Arc::ptr_eq(&pinned, &again), "pinned frame was not evicted");
    }

    #[test]
    fn eviction_writeback_errors_propagate_and_lose_no_pages() {
        use crate::fault::{FaultClock, FaultInjectingPageStore, FaultPlan};
        // Transient I/O errors on a schedule: some will land on eviction
        // writebacks. The pool must surface them AND keep the dirty frame.
        let store = Arc::new(FaultInjectingPageStore::new(
            Arc::new(MemPager::new()),
            FaultClock::new(FaultPlan {
                seed: 11,
                io_error_every: Some(5),
                ..FaultPlan::none()
            }),
        ));
        let pool = BufferPool::new(store, 8);
        let mut written = Vec::new();
        let mut saw_error = false;
        for i in 0..64u8 {
            match pool.allocate(PageType::Heap) {
                Ok((id, frame)) => {
                    frame.page.write().insert(&[i]).unwrap();
                    frame.mark_dirty();
                    written.push((id, i));
                }
                Err(e) => {
                    assert!(matches!(e, seqdb_types::DbError::Io(_)), "{e}");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "the schedule should have injected errors");
        assert!(pool.stats.evictions.load(Ordering::Relaxed) > 0);
        // Every acknowledged insert must still be readable: a failed
        // eviction writeback reinserted its frame instead of dropping it.
        for (id, i) in written {
            loop {
                match pool.fetch(id) {
                    Ok(f) => {
                        assert_eq!(f.page.read().get(0), Some(&[i][..]));
                        break;
                    }
                    // Injected read error; the data is still there.
                    Err(seqdb_types::DbError::Io(_)) => continue,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }

    #[test]
    fn torn_eviction_write_is_caught_by_the_checksum() {
        use crate::fault::{FaultClock, FaultInjectingPageStore, FaultPlan};
        let store = Arc::new(FaultInjectingPageStore::new(
            Arc::new(MemPager::new()),
            FaultClock::new(FaultPlan {
                seed: 3,
                torn_write_every: Some(1), // every page write tears
                ..FaultPlan::none()
            }),
        ));
        let pool = BufferPool::new(store, 16);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"precious").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.flush_all().unwrap(); // the torn write "succeeds"
        pool.clear_cache().unwrap();
        let Err(err) = pool.fetch(id) else {
            panic!("fetching the torn page should fail");
        };
        assert!(
            matches!(err, seqdb_types::DbError::Corruption(_)),
            "torn write must surface as corruption, got: {err}"
        );
    }

    #[test]
    fn wal_pool_checkpoint_truncates_and_protects_writes() {
        use crate::wal::{MemWalBackend, WriteAheadLog};
        let wal = Arc::new(WriteAheadLog::new(Box::new(MemWalBackend::new())));
        let store = Arc::new(MemPager::new());
        let pool = BufferPool::with_wal(store, 16, wal.clone());
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"logged").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.checkpoint().unwrap();
        // After a clean checkpoint the log is empty again...
        let out = wal.replay().unwrap();
        assert!(out.images.is_empty() && out.commits == 0);
        // ...and the data is durable in the store.
        pool.clear_cache().unwrap();
        assert_eq!(
            pool.fetch(id).unwrap().page.read().get(0),
            Some(&b"logged"[..])
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = pool(16);
        let (id, f) = pool.allocate(PageType::Heap).unwrap();
        drop(f);
        pool.clear_cache().unwrap();
        let _ = pool.fetch(id).unwrap(); // miss
        let _ = pool.fetch(id).unwrap(); // hit
        assert_eq!(pool.stats.misses.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats.hits.load(Ordering::Relaxed), 1);
    }

    /// A pool of 8 frames holding the first 8 of 12 pages, in order,
    /// and the 12 ids: page `i` holds the one record `[i]`.
    fn full_pool() -> (Arc<BufferPool>, Vec<PageId>) {
        let pool = pool(8);
        let ids: Vec<PageId> = (0..12u8)
            .map(|i| {
                let (id, frame) = pool.allocate(PageType::Heap).unwrap();
                frame.page.write().insert(&[i]).unwrap();
                id
            })
            .collect();
        pool.clear_cache().unwrap();
        for &id in &ids[..8] {
            pool.fetch(id).unwrap();
        }
        (pool, ids)
    }

    /// The cached pages, least recently used first.
    fn lru_order(pool: &BufferPool) -> Vec<PageId> {
        let t = pool.frames.lock();
        t.lru().map(|slot| t.frame(slot).id).collect()
    }

    #[test]
    fn read_through_misses_leave_the_pool_as_it_was() {
        let (pool, ids) = full_pool();
        let stat = |s: &AtomicU64| s.load(Ordering::Relaxed);
        let order = lru_order(&pool);
        let (misses, evictions) = (stat(&pool.stats.misses), stat(&pool.stats.evictions));
        let mut buf = ReadBuf::default();
        for (i, &id) in ids.iter().enumerate().skip(8) {
            assert!(pool.read_through(id, &mut buf).unwrap().is_none());
            let page = buf.page().expect("a miss fills the buffer");
            assert_eq!(page.get(0), Some(&[i as u8][..]));
        }
        assert_eq!(lru_order(&pool), order);
        assert_eq!(pool.cached_frames(), 8);
        assert_eq!(stat(&pool.stats.evictions), evictions);
        assert_eq!(stat(&pool.stats.misses), misses + 4);
        assert_eq!(stat(&pool.stats.cold_reads), 4);
    }

    #[test]
    fn a_read_through_hit_moves_the_frame_to_the_most_recent_end() {
        let (pool, ids) = full_pool();
        let hits = pool.stats.hits.load(Ordering::Relaxed);
        let mut buf = ReadBuf::default();
        let frame = pool.read_through(ids[0], &mut buf).unwrap();
        assert!(Arc::ptr_eq(&frame.unwrap(), &pool.fetch(ids[0]).unwrap()));
        let mut order = ids[1..8].to_vec();
        order.push(ids[0]);
        assert_eq!(lru_order(&pool), order);
        assert_eq!(pool.stats.hits.load(Ordering::Relaxed), hits + 2);
        assert_eq!(pool.stats.cold_reads.load(Ordering::Relaxed), 0);
        assert!(buf.page().is_none(), "a hit leaves the buffer alone");
    }

    #[test]
    fn a_dirty_cached_page_is_read_from_its_frame() {
        let (pool, ids) = full_pool();
        let frame = pool.fetch(ids[3]).unwrap();
        frame.page.write().insert(b"newer").unwrap();
        frame.mark_dirty();
        drop(frame);
        let mut buf = ReadBuf::default();
        let frame = pool
            .read_through(ids[3], &mut buf)
            .unwrap()
            .expect("cached");
        assert_eq!(frame.page.read().get(1), Some(&b"newer"[..]));
        assert_eq!(pool.stats.cold_reads.load(Ordering::Relaxed), 0);
    }

    /// A store whose first write of the gated page waits at a gate,
    /// telling the test that it has started.
    struct GatedStore {
        inner: MemPager,
        gated: Mutex<Option<PageId>>,
        started: Mutex<std::sync::mpsc::Sender<PageId>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl PageStore for GatedStore {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            let gated = self.gated.lock().take_if(|g| *g == id).is_some();
            if gated {
                self.started.lock().send(id).unwrap();
                self.release.lock().recv().unwrap();
            }
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    /// Write two records into a page whose store image holds the first
    /// only, let a filler thread evict it, and `read` it while its
    /// write-back waits at the gate: the read must see both records.
    fn read_during_writeback(read: impl Fn(&BufferPool, PageId) -> Vec<Vec<u8>>) {
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let store = Arc::new(GatedStore {
            inner: MemPager::new(),
            gated: Mutex::new(None),
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
        });
        let pool = BufferPool::new(store.clone(), 8);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"one").unwrap();
        pool.flush_all().unwrap();
        frame.page.write().insert(b"two").unwrap();
        frame.mark_dirty();
        drop(frame);
        *store.gated.lock() = Some(id);
        let filler = std::thread::spawn({
            let pool = pool.clone();
            move || {
                for _ in 0..8 {
                    pool.allocate(PageType::Heap).unwrap();
                }
            }
        });
        // The page is the least recent frame, so the filler's eighth
        // page evicts it, and its write-back stops at the gate.
        assert_eq!(started.recv().unwrap(), id);
        let during = read(&pool, id);
        release.send(()).unwrap();
        filler.join().unwrap();
        let both = vec![b"one".to_vec(), b"two".to_vec()];
        assert_eq!(during, both, "read while its write-back was in flight");
        assert_eq!(read(&pool, id), both);
        pool.clear_cache().unwrap();
        assert_eq!(read(&pool, id), both, "read back from the store");
    }

    fn records(page: &Page) -> Vec<Vec<u8>> {
        page.iter().map(|(_, rec)| rec.to_vec()).collect()
    }

    #[test]
    fn a_fetch_during_a_dirty_victims_writeback_takes_the_frame_back() {
        read_during_writeback(|pool, id| records(&pool.fetch(id).unwrap().page.read()));
    }

    #[test]
    fn a_read_through_during_a_dirty_victims_writeback_reads_the_frame() {
        read_during_writeback(|pool, id| {
            let mut buf = ReadBuf::default();
            match pool.read_through(id, &mut buf).unwrap() {
                Some(frame) => records(&frame.page.read()),
                None => records(buf.page().unwrap()),
            }
        });
    }

    #[test]
    fn a_checkpoint_during_a_dirty_victims_writeback_writes_it() {
        read_during_writeback(|pool, id| {
            pool.checkpoint().unwrap();
            let mut image = vec![0u8; PAGE_SIZE];
            pool.store().read_page(id, &mut image).unwrap();
            records(&Page::from_bytes(image.into_boxed_slice()).unwrap())
        });
    }

    /// The replacement policy as the `Vec` it used to be, kept as the
    /// model the slab list is held to: linear search to touch, first
    /// unpinned entry from the front to evict.
    #[derive(Default)]
    struct VecLru {
        order: Vec<PageId>,
        dirty: std::collections::HashSet<PageId>,
    }

    impl VecLru {
        /// Move `id` to the back if it is cached; whether it was.
        fn touch(&mut self, id: PageId) -> bool {
            let Some(at) = self.order.iter().position(|&p| p == id) else {
                return false;
            };
            self.order.remove(at);
            self.order.push(id);
            true
        }

        /// Touch `id`, or cache it and evict down to `capacity`; returns
        /// the dirty victims in eviction order (the pool writes those
        /// back).
        fn admit(&mut self, id: PageId, capacity: usize, pinned: &[PageId]) -> Vec<PageId> {
            let mut written = Vec::new();
            if self.touch(id) {
                return written;
            }
            self.order.push(id);
            while self.order.len() > capacity {
                let evictable = |p: &PageId| *p != id && !pinned.contains(p);
                let Some(pos) = self.order.iter().position(evictable) else {
                    break;
                };
                let victim = self.order.remove(pos);
                if self.dirty.remove(&victim) {
                    written.push(victim);
                }
            }
            written
        }
    }

    /// A store that remembers which pages were written, in order.
    #[derive(Default)]
    struct RecordingStore {
        inner: MemPager,
        written: Mutex<Vec<PageId>>,
    }

    impl PageStore for RecordingStore {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.written.lock().push(id);
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    proptest::proptest! {
        #[test]
        fn evicts_what_the_vec_lru_evicted_in_the_same_order(
            trace in proptest::collection::vec(
                (0..10u8, proptest::strategy::any::<bool>(), proptest::strategy::any::<usize>()),
                1..400,
            )
        ) {
            const CAPACITY: usize = 8;
            let store = Arc::new(RecordingStore::default());
            let pool = BufferPool::new(store.clone(), CAPACITY);
            let mut model = VecLru::default();
            let mut pins: Vec<Arc<Frame>> = Vec::new();
            let image = Page::new(PageType::Heap).to_bytes();
            // Most frames the pool may hold: its capacity, or more while
            // pins leave nothing to evict.
            let mut bound = CAPACITY;
            let mut buf = ReadBuf::default();
            for (kind, through, pick) in trace {
                let pages = store.num_pages();
                let pinned: Vec<PageId> = pins.iter().map(|f| f.id).collect();
                let id = pick as u64 % pages.max(1);
                let mut expect_written = Vec::new();
                match kind {
                    // Allocate while there are few pages, read otherwise.
                    0..=5 => {
                        let frame = if pages < 4 || (kind == 0 && pages < 40) {
                            let (id, frame) = pool.allocate(PageType::Heap).unwrap();
                            expect_written = model.admit(id, CAPACITY, &pinned);
                            model.dirty.insert(id);
                            Some(frame)
                        } else if through {
                            // A hit touches, a miss leaves the order alone.
                            let hit = model.touch(id);
                            let frame = pool.read_through(id, &mut buf).unwrap();
                            proptest::prop_assert_eq!(frame.is_some(), hit);
                            if frame.is_none() {
                                proptest::prop_assert_eq!(buf.page().map(|p| p.page_type()), Some(PageType::Heap));
                            }
                            frame
                        } else {
                            let frame = pool.fetch(id).unwrap();
                            expect_written = model.admit(id, CAPACITY, &pinned);
                            Some(frame)
                        };
                        let mut distinct = pinned.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        bound = CAPACITY.max(distinct.len() + 1);
                        match (kind, frame) {
                            (1, Some(frame)) => {
                                frame.mark_dirty();
                                model.dirty.insert(frame.id);
                            }
                            (2, Some(frame)) => pins.push(frame),
                            _ => {}
                        }
                    }
                    6 | 7 if !pins.is_empty() => drop(pins.swap_remove(pick % pins.len())),
                    8 if pages > 0 => {
                        pool.restore_page(id, &image).unwrap();
                        store.written.lock().clear();
                        if !model.dirty.contains(&id) && !pinned.contains(&id) {
                            model.order.retain(|&p| p != id);
                        }
                    }
                    9 => {
                        pool.clear_cache().unwrap();
                        store.written.lock().clear();
                        model.dirty.clear();
                        model.order.retain(|p| pinned.contains(p));
                    }
                    _ => {}
                }
                let t = pool.frames.lock();
                let order: Vec<PageId> = t.lru().map(|slot| t.frame(slot).id).collect();
                proptest::prop_assert_eq!(&order, &model.order);
                proptest::prop_assert!(t.writing.is_empty(), "every write-back landed");
                proptest::prop_assert_eq!(t.map.len(), order.len());
                proptest::prop_assert!(order.len() <= bound, "{} frames cached", order.len());
                proptest::prop_assert_eq!(std::mem::take(&mut *store.written.lock()), expect_written);
                drop(t);
                proptest::prop_assert_eq!(pool.pinned_frames(), pins.iter().map(|f| f.id).collect::<std::collections::HashSet<_>>().len());
            }
        }
    }
}
