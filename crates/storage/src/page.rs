//! Slotted 8 KiB pages.
//!
//! Layout:
//!
//! ```text
//! +--------------------+---------------------+----------------->      <-----------+
//! | header (32 bytes)  | CI area (ci_len)    | record data ...   ...  | slot array |
//! +--------------------+---------------------+----------------->      <-----------+
//! ```
//!
//! The header stores a sibling pointer (`next_page`) used both for heap
//! page chains and B+-tree leaf chains, and a CRC-32C checksum over the
//! whole page image (computed with the checksum field itself zeroed).
//! The checksum is refreshed by [`Page::to_bytes`]/[`Page::seal_buf`] when
//! a page is written back and verified by [`Page::from_bytes`] when it is
//! read, so torn writes and bit-rot surface as [`DbError::Corruption`]
//! instead of silently wrong query results. The *CI area* holds the
//! serialized page-compression context ([`crate::pagec::PageContext`]) on
//! compressed pages. Records grow upward from the end of the CI area; the
//! slot array (4 bytes per slot: `u16 offset`, `u16 len`) grows downward
//! from the end of the page. A slot with `len == 0` is a deleted record.
//!
//! Heap pages only ever append slots and mark them deleted. B+-tree nodes
//! keep their slot array in key order instead: [`Page::insert_at`] and
//! [`Page::remove_at`] shift the slots behind the edited one, the record
//! bytes of a removed slot are counted as *dead* in the header until the
//! page is compacted through [`Page::rebuild`].

use seqdb_types::{DbError, Result};

use crate::crc32c::{crc32c, crc32c_append};

/// Size of every page, matching SQL Server's 8 KiB pages.
pub const PAGE_SIZE: usize = 8192;

/// Page number within a pager; byte offset = `id * PAGE_SIZE`.
pub type PageId = u64;

/// Sentinel "no page" value used in sibling pointers.
pub const NO_PAGE: PageId = u64::MAX;

const MAGIC: u32 = 0x5351_4442; // "SQDB"
const HEADER_LEN: usize = 32;
const SLOT_LEN: usize = 4;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_TYPE: usize = 4;
const OFF_FLAGS: usize = 5;
const OFF_SLOTS: usize = 6;
const OFF_FREE_START: usize = 8;
const OFF_CI_LEN: usize = 10;
const OFF_NEXT: usize = 12;
const OFF_AUX: usize = 20; // u32 auxiliary field (B+-tree rightmost child low bits etc.)
const OFF_CHECKSUM: usize = 24; // u32 CRC-32C over the page, checksum field zeroed
const OFF_DEAD: usize = 28; // u16 record bytes of slots `remove_at` dropped
                            // bytes 30..32 are reserved (always zero)

/// Kind of page; stored in the header so a pager can be inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    Meta = 0,
    Heap = 1,
    BTreeLeaf = 2,
    BTreeInternal = 3,
}

impl PageType {
    fn from_u8(v: u8) -> Option<PageType> {
        match v {
            0 => Some(PageType::Meta),
            1 => Some(PageType::Heap),
            2 => Some(PageType::BTreeLeaf),
            3 => Some(PageType::BTreeInternal),
            _ => None,
        }
    }
}

/// Flag bit: the CI area contains a serialized compression context.
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;
/// Flag bit: this page has already been through recompression (heap pages
/// are recompressed at most once, when they first fill up).
pub const FLAG_RECOMPRESSED: u8 = 0b0000_0010;

/// An in-memory page image. The buffer is exactly [`PAGE_SIZE`] bytes and
/// is what gets written to / read from the pager verbatim.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8]>,
}

impl Page {
    /// A fresh, formatted page of the given type.
    pub fn new(ptype: PageType) -> Page {
        let mut page = Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        page.write_u32(OFF_MAGIC, MAGIC);
        page.buf[OFF_TYPE] = ptype as u8;
        page.set_slot_count(0);
        page.set_free_start(HEADER_LEN as u16);
        page.set_ci_len(0);
        page.set_next_page(NO_PAGE);
        page.seal();
        page
    }

    /// Wrap a raw buffer read from disk, verifying the checksum, magic
    /// number and page type. Any content-level failure — including a stale
    /// checksum from a torn write — is reported as [`DbError::Corruption`].
    pub fn from_bytes(buf: Box<[u8]>) -> Result<Page> {
        Page::verify_buf(&buf)?;
        let page = Page { buf };
        if page.read_u32(OFF_MAGIC) != MAGIC {
            return Err(DbError::Corruption("bad page magic".into()));
        }
        PageType::from_u8(page.buf[OFF_TYPE])
            .ok_or_else(|| DbError::Corruption("unknown page type".into()))?;
        Ok(page)
    }

    /// CRC-32C of a page image with the checksum field treated as zero.
    fn checksum_of(buf: &[u8]) -> u32 {
        let crc = crc32c(&buf[..OFF_CHECKSUM]);
        let crc = crc32c_append(crc, &[0u8; 4]);
        crc32c_append(crc, &buf[OFF_CHECKSUM + 4..])
    }

    /// Recompute and store this page's checksum. Mutating accessors do NOT
    /// maintain the checksum; it is sealed once, when the image is about to
    /// leave memory (writeback, WAL append).
    pub fn seal(&mut self) {
        let crc = Page::checksum_of(&self.buf);
        self.write_u32(OFF_CHECKSUM, crc);
    }

    /// Seal a raw page image in place (used on copied buffers so writeback
    /// does not need a write lock on the source page).
    pub fn seal_buf(buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let crc = Page::checksum_of(buf);
        buf[OFF_CHECKSUM..OFF_CHECKSUM + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Verify the checksum of a raw page image.
    pub fn verify_buf(buf: &[u8]) -> Result<()> {
        if buf.len() != PAGE_SIZE {
            return Err(DbError::Storage(format!(
                "page buffer has {} bytes, expected {PAGE_SIZE}",
                buf.len()
            )));
        }
        let stored = u32::from_le_bytes(buf[OFF_CHECKSUM..OFF_CHECKSUM + 4].try_into().unwrap());
        let computed = Page::checksum_of(buf);
        if stored != computed {
            return Err(DbError::Corruption(format!(
                "page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(())
    }

    /// A sealed on-disk image of this page (checksum freshly computed).
    pub fn to_bytes(&self) -> Box<[u8]> {
        let mut buf = self.buf.clone();
        Page::seal_buf(&mut buf);
        buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The page's buffer, as is (unsealed), for reuse by the next read.
    pub fn into_bytes(self) -> Box<[u8]> {
        self.buf
    }

    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    pub fn page_type(&self) -> PageType {
        PageType::from_u8(self.buf[OFF_TYPE]).expect("validated at construction")
    }

    pub fn flags(&self) -> u8 {
        self.buf[OFF_FLAGS]
    }

    pub fn set_flag(&mut self, flag: u8) {
        self.buf[OFF_FLAGS] |= flag;
    }

    pub fn has_flag(&self, flag: u8) -> bool {
        self.buf[OFF_FLAGS] & flag != 0
    }

    pub fn next_page(&self) -> PageId {
        self.read_u64(OFF_NEXT)
    }

    pub fn set_next_page(&mut self, id: PageId) {
        self.write_u64(OFF_NEXT, id);
    }

    pub fn aux(&self) -> u32 {
        self.read_u32(OFF_AUX)
    }

    pub fn set_aux(&mut self, v: u32) {
        self.write_u32(OFF_AUX, v);
    }

    pub fn slot_count(&self) -> usize {
        self.read_u16(OFF_SLOTS) as usize
    }

    fn set_slot_count(&mut self, n: u16) {
        self.write_u16(OFF_SLOTS, n);
    }

    fn free_start(&self) -> usize {
        self.read_u16(OFF_FREE_START) as usize
    }

    fn set_free_start(&mut self, v: u16) {
        self.write_u16(OFF_FREE_START, v);
    }

    fn ci_len(&self) -> usize {
        self.read_u16(OFF_CI_LEN) as usize
    }

    /// Where the record area starts: past the header and the CI area.
    fn records_start(&self) -> usize {
        HEADER_LEN + self.ci_len()
    }

    /// Record bytes no slot refers to since `remove_at` dropped them.
    fn dead(&self) -> usize {
        self.read_u16(OFF_DEAD) as usize
    }

    /// Contiguous free bytes between the record area and the slot array.
    fn gap(&self) -> usize {
        PAGE_SIZE - self.slot_count() * SLOT_LEN - self.free_start()
    }

    fn set_ci_len(&mut self, v: u16) {
        self.write_u16(OFF_CI_LEN, v);
    }

    /// The serialized compression-context area (empty slice if none).
    pub fn ci_area(&self) -> &[u8] {
        &self.buf[HEADER_LEN..HEADER_LEN + self.ci_len()]
    }

    /// Bytes available for one more record (including its slot entry).
    pub fn free_space(&self) -> usize {
        let slots_end = PAGE_SIZE - self.slot_count() * SLOT_LEN;
        slots_end
            .saturating_sub(self.free_start())
            .saturating_sub(SLOT_LEN)
    }

    /// Insert a record, returning its slot number, or `None` if the page
    /// cannot hold it. Empty records are rejected (`len == 0` marks a
    /// deleted slot; engine rows are never empty — they always carry at
    /// least a null bitmap byte).
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.is_empty() || record.len() > u16::MAX as usize || record.len() > self.free_space()
        {
            return None;
        }
        let off = self.free_start();
        self.buf[off..off + record.len()].copy_from_slice(record);
        let slot = self.slot_count() as u16;
        self.write_slot(slot, off as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        self.set_free_start((off + record.len()) as u16);
        Some(slot)
    }

    /// Insert a record as slot `index`, moving the slots from `index` on up
    /// by one, so a slot array kept in order stays in order. The record is
    /// the concatenation of `parts`, so a caller need not assemble it. A
    /// page too fragmented for it is compacted first. Returns `false`,
    /// leaving the page intact, if the record is empty, `index` is past
    /// the last slot, the page's layout is damaged or it cannot hold the
    /// record even compacted.
    pub fn insert_at(&mut self, index: usize, parts: &[&[u8]]) -> bool {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let n = self.slot_count();
        if len == 0 || len > u16::MAX as usize || index > n || !self.layout_ok() {
            return false;
        }
        if self.gap() < len + SLOT_LEN {
            if self.occupied() + len + SLOT_LEN > PAGE_SIZE - self.records_start() {
                return false;
            }
            self.compact();
        }
        let mut off = self.free_start();
        for part in parts {
            self.buf[off..off + part.len()].copy_from_slice(part);
            off += part.len();
        }
        // Slots `index..n` lie below slot `index - 1`; each moves one
        // entry further down.
        let top = PAGE_SIZE - index * SLOT_LEN;
        self.buf.copy_within(
            PAGE_SIZE - n * SLOT_LEN..top,
            PAGE_SIZE - (n + 1) * SLOT_LEN,
        );
        self.write_slot(index as u16, (off - len) as u16, len as u16);
        self.set_slot_count(n as u16 + 1);
        self.set_free_start(off as u16);
        true
    }

    /// Remove slot `index`, moving the slots after it down by one. Its
    /// record bytes count as dead until the next compaction. Returns
    /// `false`, leaving the page intact, if there is no such live slot or
    /// the page's layout is damaged.
    pub fn remove_at(&mut self, index: usize) -> bool {
        let n = self.slot_count();
        let live = u16::try_from(index).ok().and_then(|i| self.get(i));
        let Some(len) = live.map(<[u8]>::len) else {
            return false;
        };
        if !self.layout_ok() {
            return false;
        }
        let base = PAGE_SIZE - n * SLOT_LEN;
        self.buf
            .copy_within(base..PAGE_SIZE - (index + 1) * SLOT_LEN, base + SLOT_LEN);
        self.buf[base..base + SLOT_LEN].fill(0);
        self.set_slot_count(n as u16 - 1);
        self.write_u16(OFF_DEAD, (self.dead() + len) as u16);
        true
    }

    /// Bytes the page's records and slots take, less what is dead: what a
    /// compacted copy of it would use past its CI area. Meaningful on a
    /// page whose layout [`Page::layout_ok`] accepts.
    pub fn occupied(&self) -> usize {
        self.free_start() - self.records_start() - self.dead() + self.slot_count() * SLOT_LEN
    }

    /// Whether the header's record area, dead bytes and slot array are
    /// consistent, so that every slot can be read and bounds-checked: the
    /// record area starts after the CI area and ends at or before the slot
    /// array, which itself ends at the page's end.
    pub fn layout_ok(&self) -> bool {
        let (start, free) = (self.records_start(), self.free_start());
        start <= free
            && free + self.slot_count() * SLOT_LEN <= PAGE_SIZE
            && self.dead() <= free - start
    }

    /// Rewrite the page with its live records in slot order and no dead
    /// bytes: the same slots, on a page whose slots are all live.
    fn compact(&mut self) {
        let old = self.clone();
        let records: Vec<&[u8]> = old.iter().map(|(_, r)| r).collect();
        let rebuilt = self.rebuild(old.ci_area(), &records);
        debug_assert!(rebuilt, "live records fit the page they came from");
    }

    /// Record bytes in `slot`, or `None` if out of range, deleted, or not
    /// inside the record area (a damaged page).
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let slot = slot as usize;
        if slot >= self.slot_count() || (slot + 1) * SLOT_LEN > PAGE_SIZE - HEADER_LEN {
            return None;
        }
        let (off, len) = self.read_slot(slot as u16);
        let (off, end) = (off as usize, off as usize + len as usize);
        if len == 0 || off < self.records_start() || end > self.free_start() {
            return None;
        }
        Some(&self.buf[off..end])
    }

    /// Mark `slot` deleted. Space is reclaimed by [`Page::rebuild`].
    pub fn delete(&mut self, slot: u16) -> bool {
        if (slot as usize) >= self.slot_count() {
            return false;
        }
        let (off, len) = self.read_slot(slot);
        if len == 0 {
            return false;
        }
        self.write_slot(slot, off, 0);
        true
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count() as u16).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Number of live (non-deleted) records.
    pub fn live_count(&self) -> usize {
        self.iter().count()
    }

    /// Rewrite the page with a new CI area and record set, preserving type,
    /// flags and sibling pointer. Returns `false` (leaving `self` intact)
    /// if the records do not fit.
    pub fn rebuild(&mut self, ci: &[u8], records: &[impl AsRef<[u8]>]) -> bool {
        let mut fresh = Page::new(self.page_type());
        fresh.buf[OFF_FLAGS] = self.buf[OFF_FLAGS];
        fresh.set_next_page(self.next_page());
        fresh.set_aux(self.aux());
        if HEADER_LEN + ci.len() > PAGE_SIZE / 2 || ci.len() > u16::MAX as usize {
            return false;
        }
        fresh.buf[HEADER_LEN..HEADER_LEN + ci.len()].copy_from_slice(ci);
        fresh.set_ci_len(ci.len() as u16);
        fresh.set_free_start((HEADER_LEN + ci.len()) as u16);
        for r in records {
            if fresh.insert(r.as_ref()).is_none() {
                return false;
            }
        }
        *self = fresh;
        true
    }

    /// Fraction of the page occupied by record data (diagnostics).
    pub fn fill_factor(&self) -> f64 {
        let used = self.free_start() - HEADER_LEN + self.slot_count() * SLOT_LEN;
        used as f64 / (PAGE_SIZE - HEADER_LEN) as f64
    }

    fn read_slot(&self, slot: u16) -> (u16, u16) {
        let base = PAGE_SIZE - (slot as usize + 1) * SLOT_LEN;
        (
            u16::from_le_bytes([self.buf[base], self.buf[base + 1]]),
            u16::from_le_bytes([self.buf[base + 2], self.buf[base + 3]]),
        )
    }

    fn write_slot(&mut self, slot: u16, off: u16, len: u16) {
        let base = PAGE_SIZE - (slot as usize + 1) * SLOT_LEN;
        self.buf[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.buf[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap())
    }
    fn write_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }
    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap())
    }
    fn write_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
    fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.buf[off..off + 8].try_into().unwrap())
    }
    fn write_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("type", &self.page_type())
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.free_space())
            .field("ci_len", &self.ci_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_delete() {
        let mut p = Page::new(PageType::Heap);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
        assert!(p.delete(a));
        assert_eq!(p.get(a), None);
        assert_eq!(p.live_count(), 1);
        assert!(!p.delete(a), "double delete is a no-op");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new(PageType::Heap);
        let rec = vec![7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8192 - 32 header over 104 bytes/record ≈ 78 records
        assert!((70..=80).contains(&n), "fit {n} records");
        assert!(p.free_space() < 104);
    }

    #[test]
    fn rebuild_with_ci_preserves_links_and_records() {
        let mut p = Page::new(PageType::Heap);
        p.set_next_page(42);
        p.insert(b"aaa").unwrap();
        p.insert(b"bbb").unwrap();
        let records: Vec<Vec<u8>> = p.iter().map(|(_, r)| r.to_vec()).collect();
        assert!(p.rebuild(b"CTX", &records));
        assert_eq!(p.ci_area(), b"CTX");
        assert_eq!(p.next_page(), 42);
        assert_eq!(p.get(0), Some(&b"aaa"[..]));
        assert_eq!(p.get(1), Some(&b"bbb"[..]));
    }

    #[test]
    fn from_bytes_validates_magic() {
        let raw = vec![0u8; PAGE_SIZE].into_boxed_slice();
        assert!(Page::from_bytes(raw).is_err());
        let p = Page::new(PageType::BTreeLeaf);
        let back = Page::from_bytes(p.buf.clone()).unwrap();
        assert_eq!(back.page_type(), PageType::BTreeLeaf);
    }

    #[test]
    fn to_bytes_seals_and_roundtrips_after_mutation() {
        let mut p = Page::new(PageType::Heap);
        p.insert(b"mutated after construction").unwrap();
        p.set_next_page(9);
        // The in-memory checksum is stale now; to_bytes must reseal.
        let image = p.to_bytes();
        let back = Page::from_bytes(image).unwrap();
        assert_eq!(back.get(0), Some(&b"mutated after construction"[..]));
        assert_eq!(back.next_page(), 9);
    }

    #[test]
    fn corrupted_image_is_rejected_as_corruption() {
        let mut p = Page::new(PageType::Heap);
        p.insert(b"payload").unwrap();
        let good = p.to_bytes();
        assert!(Page::verify_buf(&good).is_ok());
        // Flip one bit in the record area.
        let mut bad = good.clone();
        bad[100] ^= 0x01;
        assert!(matches!(Page::from_bytes(bad), Err(DbError::Corruption(_))));
        // A torn write that zeroes the tail is also caught.
        let mut torn = good.clone();
        for b in &mut torn[PAGE_SIZE / 2..] {
            *b = 0;
        }
        assert!(matches!(
            Page::verify_buf(&torn),
            Err(DbError::Corruption(_))
        ));
    }

    #[test]
    fn seal_buf_matches_seal() {
        let mut p = Page::new(PageType::BTreeInternal);
        p.insert(b"key").unwrap();
        let mut via_buf = p.bytes().to_vec();
        Page::seal_buf(&mut via_buf);
        p.seal();
        assert_eq!(p.bytes(), &via_buf[..]);
    }

    #[test]
    fn a_damaged_layout_refuses_edits() {
        let mut p = Page::new(PageType::BTreeLeaf);
        assert!(p.insert_at(0, &[b"a"]));
        // The record area claimed to run into the slot array.
        p.set_free_start((PAGE_SIZE - 2) as u16);
        assert!(!p.layout_ok());
        assert!(!p.insert_at(1, &[b"b"]));
        assert!(!p.remove_at(0));
        // A slot pointing past the record area is not read.
        p.set_free_start(HEADER_LEN as u16);
        assert!(p.layout_ok());
        assert_eq!(p.get(0), None);
    }

    #[derive(Debug, Clone)]
    enum Edit {
        Insert(usize, Vec<u8>),
        Remove(usize),
    }

    proptest! {
        #[test]
        fn ordered_edits_match_a_vector(edits in proptest::collection::vec(
            prop_oneof![
                (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..900))
                    .prop_map(|(i, r)| Edit::Insert(i, r)),
                any::<usize>().prop_map(Edit::Remove),
            ],
            1..200,
        )) {
            let mut p = Page::new(PageType::BTreeLeaf);
            p.set_next_page(7);
            let mut model: Vec<Vec<u8>> = Vec::new();
            for edit in edits {
                match edit {
                    Edit::Insert(i, rec) => {
                        let i = i % (model.len() + 1);
                        let (head, tail) = rec.split_at(rec.len() / 2);
                        let fits = model.iter().map(|r| r.len() + SLOT_LEN).sum::<usize>()
                            + rec.len() + SLOT_LEN <= PAGE_SIZE - HEADER_LEN;
                        prop_assert_eq!(p.insert_at(i, &[head, tail]), fits);
                        if fits {
                            model.insert(i, rec);
                        }
                    }
                    Edit::Remove(i) => {
                        let i = i % (model.len() + 1);
                        prop_assert_eq!(p.remove_at(i), i < model.len());
                        if i < model.len() {
                            model.remove(i);
                        }
                    }
                }
                prop_assert!(p.layout_ok());
                let live: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
                prop_assert_eq!(&live, &model);
                let used = model.iter().map(|r| r.len() + SLOT_LEN).sum::<usize>();
                prop_assert_eq!(p.occupied(), used);
                prop_assert_eq!(p.next_page(), 7);
            }
        }

        #[test]
        fn records_roundtrip(recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..200), 1..40)) {
            let mut p = Page::new(PageType::Heap);
            let mut stored = Vec::new();
            for r in &recs {
                if let Some(slot) = p.insert(r) {
                    stored.push((slot, r.clone()));
                }
            }
            for (slot, r) in &stored {
                prop_assert_eq!(p.get(*slot), Some(r.as_slice()));
            }
            prop_assert_eq!(p.live_count(), stored.len());
        }
    }
}
