//! Page stores: the interface between the buffer pool and raw storage.
//!
//! [`FilePager`] backs a database file on disk (positional reads/writes,
//! no global lock on the data path); [`MemPager`] keeps pages in memory
//! and is used by tests and in-memory databases.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use seqdb_types::{DbError, Result};

use crate::page::{PageId, PAGE_SIZE};

/// Abstract page-granular storage.
pub trait PageStore: Send + Sync {
    /// Read page `id` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;
    /// Write page `id` from `buf`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;
    /// Allocate a fresh page id (the page contents are undefined until the
    /// first `write_page`).
    fn allocate(&self) -> Result<PageId>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Flush to durable storage where applicable.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// File-backed pager. Uses positional I/O (`pread`/`pwrite`) so concurrent
/// readers do not serialize on a seek lock.
pub struct FilePager {
    file: File,
    next_page: AtomicU64,
}

impl FilePager {
    /// Create or open the database file at `path`.
    pub fn open(path: &Path) -> Result<FilePager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DbError::Storage(format!(
                "database file length {len} is not a multiple of the page size"
            )));
        }
        Ok(FilePager {
            file,
            next_page: AtomicU64::new(len / PAGE_SIZE as u64),
        })
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off)
}

impl PageStore for FilePager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if id >= self.num_pages() {
            return Err(DbError::Storage(format!("read of unallocated page {id}")));
        }
        read_at(&self.file, buf, id * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if id >= self.num_pages() {
            return Err(DbError::Storage(format!("write of unallocated page {id}")));
        }
        write_at(&self.file, buf, id * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.next_page.fetch_add(1, Ordering::SeqCst);
        // Extend the file eagerly so reads of a freshly allocated (but not
        // yet written) page do not hit EOF.
        write_at(&self.file, &[0u8; PAGE_SIZE], id * PAGE_SIZE as u64)?;
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        self.next_page.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory pager for tests and `Database::in_memory()`. A page holds
/// bytes only from its first write on: the buffer pool keeps a freshly
/// allocated page in its own frame and writes it back only on eviction
/// or flush, so an eager zeroed copy here would sit beside that frame,
/// resident and never read.
#[derive(Default)]
pub struct MemPager {
    /// `None` for a page allocated but never written; it reads as zeros.
    pages: RwLock<Vec<Option<Box<[u8]>>>>,
}

impl MemPager {
    pub fn new() -> MemPager {
        MemPager::default()
    }

    /// Pages that hold bytes of their own.
    #[cfg(test)]
    fn materialised(&self) -> usize {
        self.pages.read().iter().filter(|p| p.is_some()).count()
    }
}

impl PageStore for MemPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.read();
        let page = pages
            .get(id as usize)
            .ok_or_else(|| DbError::Storage(format!("read of unallocated page {id}")))?;
        match page {
            Some(page) => buf.copy_from_slice(page),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.write();
        let page = pages
            .get_mut(id as usize)
            .ok_or_else(|| DbError::Storage(format!("write of unallocated page {id}")))?;
        match page {
            Some(page) => page.copy_from_slice(buf),
            None => *page = Some(Box::from(buf)),
        }
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.write();
        pages.push(None);
        Ok((pages.len() - 1) as PageId)
    }

    fn num_pages(&self) -> u64 {
        self.pages.read().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        let mut w = vec![0u8; PAGE_SIZE];
        w[0] = 0xaa;
        w[PAGE_SIZE - 1] = 0xbb;
        store.write_page(b, &w).unwrap();
        let mut r = vec![0u8; PAGE_SIZE];
        store.read_page(b, &mut r).unwrap();
        assert_eq!(r, w);
        assert!(store.read_page(99, &mut r).is_err());
        assert_eq!(store.num_pages(), 2);
    }

    #[test]
    fn mem_pager_basic() {
        exercise(&MemPager::new());
    }

    #[test]
    fn mem_pager_materialises_a_page_at_its_first_write() {
        let store = MemPager::new();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_eq!(store.num_pages(), 2);
        assert_eq!(store.materialised(), 0, "allocation holds no bytes");
        // A never-written page reads as zeros, into a dirty buffer too,
        // and reading it materialises nothing.
        let mut r = vec![0x5au8; PAGE_SIZE];
        store.read_page(a, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0));
        assert_eq!(store.materialised(), 0);
        // The first write materialises the page; a rewrite replaces it.
        let mut w = vec![0u8; PAGE_SIZE];
        w[7] = 0x11;
        store.write_page(b, &w).unwrap();
        assert_eq!(store.materialised(), 1);
        w[7] = 0x22;
        store.write_page(b, &w).unwrap();
        assert_eq!(store.materialised(), 1);
        store.read_page(b, &mut r).unwrap();
        assert_eq!(r, w);
        store.read_page(a, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0), "page a is untouched");
        // Out of range is an error either way, and allocates nothing.
        assert!(store.read_page(2, &mut r).is_err());
        assert!(store.write_page(2, &w).is_err());
        assert_eq!((store.num_pages(), store.materialised()), (2, 1));
    }

    #[test]
    fn file_pager_basic_and_reopen() {
        let dir = std::env::temp_dir().join(format!("seqdb-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.db");
        let _ = std::fs::remove_file(&path);
        {
            let p = FilePager::open(&path).unwrap();
            exercise(&p);
            p.sync().unwrap();
        }
        {
            let p = FilePager::open(&path).unwrap();
            assert_eq!(p.num_pages(), 2);
            let mut r = vec![0u8; PAGE_SIZE];
            p.read_page(1, &mut r).unwrap();
            assert_eq!(r[0], 0xaa);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
