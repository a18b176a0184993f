//! Integrity scrubbing primitives: page verification, single-page repair,
//! and the persisted quarantine list.
//!
//! Silent at-rest corruption — bit rot, torn writes that slipped past a
//! dying disk's own ECC — is a *when*, not an *if*, for archives that sit
//! on cheap media for years. The storage layer already detects it (every
//! page read verifies a CRC-32C checksum, every blob can be re-hashed
//! against its import-time SHA-256); this module adds the other half of
//! the lifecycle:
//!
//! * **detect** — [`check_page`] reads a page straight from the store and
//!   verifies it without touching the buffer pool, so scrubbing never
//!   pollutes the cache with garbage (it can't anyway: corrupt images are
//!   rejected before frame insertion);
//! * **repair** — [`repair_page`] rewrites a corrupt page from the best
//!   available good image: the buffer pool's cached frame (always at
//!   least as fresh as disk) or the WAL's last committed copy
//!   ([`wal_last_images`]); both paths log the image before the in-place
//!   write, so a crash mid-repair is itself recoverable;
//! * **contain** — pages and blobs with no recoverable image land on a
//!   persisted [`Quarantine`] list; statements touching a quarantined
//!   object fail with the typed `DbError::Quarantined` while everything
//!   else stays online. A successful repair or re-import clears the entry.
//!
//! The orchestration (walking catalogs, rate limiting, SQL `CHECK`,
//! DMVs) lives in the engine; these primitives know only pages, frames,
//! WAL images and object-name strings.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_types::{DbError, Result};

use crate::buffer::BufferPool;
use crate::counters::{storage_counters, waits, WaitClass};
use crate::durable::durable_replace;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::PageStore;
use crate::wal::WriteAheadLog;

/// The persisted list of objects fenced off for unrepaired corruption.
///
/// Keys are lowercase table names, or `filestream:<guid-string>` for
/// blobs (which use page 0). Entries survive restarts via a text file of
/// `object<TAB>page` lines rewritten with [`durable_replace`] on every
/// mutation, so a return means the list is on disk; an in-memory database
/// passes no path and keeps the list in memory only. A mutation changes
/// the in-memory list first, so the fence holds for this process even
/// when the write fails, and the write's error is returned.
pub struct Quarantine {
    path: Option<PathBuf>,
    entries: Mutex<BTreeMap<String, BTreeSet<u64>>>,
}

impl Quarantine {
    /// An unpersisted list (in-memory databases).
    pub fn in_memory() -> Arc<Quarantine> {
        Arc::new(Quarantine {
            path: None,
            entries: Mutex::new(BTreeMap::new()),
        })
    }

    /// Open (or create) a persisted list at `path`, loading any entries a
    /// previous process left behind — quarantine must survive restarts or
    /// a reboot would silently un-fence known-bad data. So only a missing
    /// file is an empty list: a file that cannot be read, or a line that is
    /// not `object<TAB>page`, fails the open with a typed error.
    pub fn open(path: impl Into<PathBuf>) -> Result<Arc<Quarantine>> {
        let path = path.into();
        let mut entries: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                return Err(DbError::Io(format!(
                    "quarantine list {}: {e}",
                    path.display()
                )))
            }
        };
        for (n, line) in text.lines().enumerate() {
            let entry = line
                .split_once('\t')
                .and_then(|(object, page)| Some((object, page.trim().parse::<u64>().ok()?)))
                .filter(|(object, _)| !object.is_empty());
            let Some((object, page)) = entry else {
                return Err(DbError::Corruption(format!(
                    "quarantine list {} line {}: {line:?} is not `object<TAB>page`",
                    path.display(),
                    n + 1
                )));
            };
            entries.entry(object.to_string()).or_default().insert(page);
        }
        Ok(Arc::new(Quarantine {
            path: Some(path),
            entries: Mutex::new(entries),
        }))
    }

    /// Fence `page` of `object`. Idempotent.
    pub fn add(&self, object: &str, page: u64) -> Result<()> {
        let mut entries = self.entries.lock();
        entries.entry(object.to_string()).or_default().insert(page);
        self.persist(&entries)
    }

    /// Un-fence one page of `object` (after a successful repair). The
    /// object becomes reachable again once its last page is cleared.
    pub fn clear(&self, object: &str, page: u64) -> Result<()> {
        let mut entries = self.entries.lock();
        if let Some(pages) = entries.get_mut(object) {
            pages.remove(&page);
            if pages.is_empty() {
                entries.remove(object);
            }
        }
        self.persist(&entries)
    }

    /// Un-fence `object` entirely (after a re-import or drop).
    pub fn clear_object(&self, object: &str) -> Result<()> {
        let mut entries = self.entries.lock();
        entries.remove(object);
        self.persist(&entries)
    }

    /// Fail with the typed [`DbError::Quarantined`] if `object` is fenced.
    /// This is the chokepoint statements hit before touching an object.
    pub fn check(&self, object: &str) -> Result<()> {
        let entries = self.entries.lock();
        if let Some(pages) = entries.get(object) {
            let page = pages.iter().next().copied().unwrap_or(0);
            return Err(DbError::Quarantined {
                object: object.to_string(),
                page,
            });
        }
        Ok(())
    }

    /// Every `(object, page)` entry, for the scrub-status DMV.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let entries = self.entries.lock();
        entries
            .iter()
            .flat_map(|(object, pages)| pages.iter().map(move |&p| (object.clone(), p)))
            .collect()
    }

    /// Number of quarantined `(object, page)` entries.
    pub fn len(&self) -> usize {
        self.entries.lock().values().map(|p| p.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    fn persist(&self, entries: &BTreeMap<String, BTreeSet<u64>>) -> Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut text = String::new();
        for (object, pages) in entries {
            for page in pages {
                text.push_str(object);
                text.push('\t');
                text.push_str(&page.to_string());
                text.push('\n');
            }
        }
        durable_replace(path, text.as_bytes())
    }
}

/// Verify one page image straight from the durable store (bypassing the
/// buffer pool, so a cached good copy never masks a rotted disk image).
/// Returns `Ok(true)` if the image verifies, `Ok(false)` if it is
/// corrupt, and `Err` only for I/O failures reading it. A page of all
/// zeroes is *clean*: it was allocated but never checkpointed, and its
/// real contents still live in the buffer pool or WAL.
pub fn check_page(store: &dyn PageStore, id: PageId) -> Result<bool> {
    let start = Instant::now();
    let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
    let res = store.read_page(id, &mut buf);
    waits().record(WaitClass::ScrubIo, start.elapsed());
    storage_counters()
        .scrub_pages_checked
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    res?;
    if buf.iter().all(|&b| b == 0) {
        return Ok(true);
    }
    Ok(Page::from_bytes(buf).is_ok())
}

/// The WAL's last committed image of every page it still holds. Eviction
/// writebacks append page images under commit markers *without*
/// truncating the log (only checkpoint and recovery truncate), so every
/// page written back since the last checkpoint is recoverable from here.
/// Safe to call on a live log: `replay` only reads and re-derives the
/// next sequence number it already has.
pub fn wal_last_images(wal: &WriteAheadLog) -> Result<HashMap<PageId, Box<[u8]>>> {
    let outcome = wal.replay()?;
    let mut last = HashMap::new();
    for (id, image) in outcome.images {
        last.insert(id, image);
    }
    Ok(last)
}

/// Attempt a single-page repair of a page that failed [`check_page`],
/// from the best available good image:
///
/// 1. the buffer pool's cached frame — corrupt images never enter the
///    cache (fetch verifies before inserting), so a cached frame is
///    always at least as fresh as the disk copy;
/// 2. the WAL's last committed image (verified before use — the log
///    cannot "repair" a page with garbage).
///
/// Both paths follow WAL-before-data, so a crash mid-repair replays
/// cleanly. Returns `true` if the on-disk image now verifies.
pub fn repair_page(
    pool: &BufferPool,
    wal_images: &HashMap<PageId, Box<[u8]>>,
    id: PageId,
) -> Result<bool> {
    if pool.rewrite_from_cache(id)? && check_page(pool.store().as_ref(), id)? {
        storage_counters()
            .pages_repaired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        return Ok(true);
    }
    if let Some(image) = wal_images.get(&id) {
        if Page::from_bytes(image.clone()).is_ok() {
            pool.restore_page(id, image)?;
            if check_page(pool.store().as_ref(), id)? {
                storage_counters()
                    .pages_repaired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Ok(true);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use crate::pager::MemPager;
    use crate::wal::MemWalBackend;

    #[test]
    fn quarantine_checks_and_clears() {
        let q = Quarantine::in_memory();
        assert!(q.check("reads").is_ok());
        q.add("reads", 7).unwrap();
        q.add("reads", 3).unwrap();
        let err = q.check("reads").unwrap_err();
        assert_eq!(
            err,
            DbError::Quarantined {
                object: "reads".into(),
                page: 3
            },
            "check reports the first quarantined page"
        );
        assert!(q.check("other").is_ok(), "only the fenced object fails");
        q.clear("reads", 3).unwrap();
        assert!(matches!(
            q.check("reads"),
            Err(DbError::Quarantined { page: 7, .. })
        ));
        q.clear("reads", 7).unwrap();
        assert!(q.check("reads").is_ok());
        assert!(q.is_empty());
    }

    #[test]
    fn quarantine_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("seqdb-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.list");
        {
            let q = Quarantine::open(&path).unwrap();
            q.add("reads", 12).unwrap();
            q.add("filestream:abc-def", 0).unwrap();
        }
        let q = Quarantine::open(&path).unwrap();
        assert_eq!(q.len(), 2);
        assert!(q.check("reads").is_err());
        assert!(q.check("filestream:abc-def").is_err());
        q.clear_object("reads").unwrap();
        // A third open sees the clear too.
        let q = Quarantine::open(&path).unwrap();
        assert!(q.check("reads").is_ok());
        assert!(q.check("filestream:abc-def").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_quarantine_write_is_returned_and_the_fence_holds() {
        let dir = std::env::temp_dir().join(format!("seqdb-quar-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let q = Quarantine::open(dir.join("quarantine.list")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(q.add("reads", 5), Err(DbError::Io(_))));
        assert!(matches!(
            q.check("reads"),
            Err(DbError::Quarantined { page: 5, .. })
        ));
    }

    #[test]
    fn only_a_missing_quarantine_list_opens_empty() {
        let dir = std::env::temp_dir().join(format!("seqdb-quar-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.list");
        assert!(Quarantine::open(&path).unwrap().is_empty());
        // A list that cannot be read un-fences nothing: the open fails.
        std::fs::create_dir(&path).unwrap();
        assert!(matches!(Quarantine::open(&path), Err(DbError::Io(_))));
        std::fs::remove_dir(&path).unwrap();
        // Nor is a line that does not parse skipped.
        for garbled in [
            "reads\t12\nreads 13\n",
            "reads\tseven\n",
            "\t4\n",
            "reads\n",
        ] {
            std::fs::write(&path, garbled).unwrap();
            let err = Quarantine::open(&path).err();
            assert!(
                matches!(err, Some(DbError::Corruption(_))),
                "{garbled:?}: {err:?}"
            );
        }
        std::fs::write(&path, "reads\t12\nfilestream:abc\t0\n").unwrap();
        assert_eq!(Quarantine::open(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_page_detects_corruption_and_tolerates_fresh_pages() {
        let store = Arc::new(MemPager::new());
        let pool = BufferPool::new(store.clone(), 16);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"payload").unwrap();
        frame.mark_dirty();
        drop(frame);
        // Never checkpointed: the disk image is all zeroes — clean.
        assert!(check_page(store.as_ref(), id).unwrap());
        pool.checkpoint().unwrap();
        assert!(check_page(store.as_ref(), id).unwrap());
        // Flip a byte at rest.
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(id, &mut buf).unwrap();
        buf[100] ^= 0xFF;
        store.write_page(id, &buf).unwrap();
        assert!(!check_page(store.as_ref(), id).unwrap());
    }

    #[test]
    fn evicted_pages_are_repairable_from_the_wal() {
        let store = Arc::new(MemPager::new());
        let wal = Arc::new(WriteAheadLog::new(Box::new(MemWalBackend::new())));
        let pool = BufferPool::with_wal(store.clone(), 8, wal.clone());
        // Overflow the pool so early pages are evicted; each eviction
        // writeback logs the image under a commit without truncating.
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (id, frame) = pool.allocate(PageType::Heap).unwrap();
            frame.page.write().insert(&[i; 16]).unwrap();
            frame.mark_dirty();
            ids.push(id);
        }
        let victim = ids[0];
        assert!(pool.cached_frames() <= 8, "pool stayed within capacity");
        // Rot the evicted page at rest.
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(victim, &mut buf).unwrap();
        assert!(buf.iter().any(|&b| b != 0), "victim was written back");
        buf[37] ^= 0x40;
        store.write_page(victim, &buf).unwrap();
        assert!(!check_page(store.as_ref(), victim).unwrap());
        // Repair: not cached any more, so the WAL image is the source.
        let images = wal_last_images(&wal).unwrap();
        assert!(images.contains_key(&victim), "writeback logged the image");
        let repaired_before = storage_counters()
            .pages_repaired
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(repair_page(&pool, &images, victim).unwrap());
        assert!(check_page(store.as_ref(), victim).unwrap());
        assert!(
            storage_counters()
                .pages_repaired
                .load(std::sync::atomic::Ordering::Relaxed)
                > repaired_before
        );
        // The repaired page serves its original contents.
        let frame = pool.fetch(victim).unwrap();
        assert_eq!(frame.page.read().get(0), Some(&[0u8; 16][..]));
    }

    #[test]
    fn cached_pages_are_repairable_without_the_wal() {
        let store = Arc::new(MemPager::new());
        let wal = Arc::new(WriteAheadLog::new(Box::new(MemWalBackend::new())));
        let pool = BufferPool::with_wal(store.clone(), 16, wal);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"cached truth").unwrap();
        frame.mark_dirty();
        pool.checkpoint().unwrap(); // durable AND still cached (pinned)
                                    // Rot the disk image; the cache still has the good copy.
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(id, &mut buf).unwrap();
        buf[200] ^= 0x01;
        store.write_page(id, &buf).unwrap();
        assert!(!check_page(store.as_ref(), id).unwrap());
        let images = HashMap::new(); // checkpoint truncated the WAL
        assert!(repair_page(&pool, &images, id).unwrap());
        assert!(check_page(store.as_ref(), id).unwrap());
        assert_eq!(frame.page.read().get(0), Some(&b"cached truth"[..]));
    }

    #[test]
    fn unrepairable_pages_report_false() {
        let store = Arc::new(MemPager::new());
        let pool = BufferPool::new(store.clone(), 8);
        let (id, frame) = pool.allocate(PageType::Heap).unwrap();
        frame.page.write().insert(b"doomed").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.checkpoint().unwrap();
        pool.clear_cache().unwrap(); // no cached copy
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(id, &mut buf).unwrap();
        buf[10] ^= 0x80;
        store.write_page(id, &buf).unwrap();
        // No WAL, no cache: nothing to repair from.
        assert!(!repair_page(&pool, &HashMap::new(), id).unwrap());
        assert!(!check_page(store.as_ref(), id).unwrap());
    }
}
