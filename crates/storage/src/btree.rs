//! B+-tree clustered indexes.
//!
//! The paper's §5.3.3 relies on "appropriate clustered indexes" so the
//! query processor can merge-join alignments with reads "in order of their
//! starting position". This module provides the ordered storage for that:
//! a disk-resident B+-tree over [`crate::keycode`]-encoded keys, with a
//! right-sibling chain on the leaves for ordered range scans.
//!
//! **Nodes are slotted pages.** A node is a `BTreeLeaf` or
//! `BTreeInternal` page whose slot array holds one entry per slot, in key
//! order. A leaf slot is a varint key length, the key and the value; the
//! leaf's right sibling is the header's `next_page`. An internal slot is
//! a little-endian `u64` child id and then the separator key: the child
//! holds the keys from that separator up to the next one. The leftmost
//! child, below the first separator, is the header's `next_page`. Every
//! search in a node — a descent, `get`, `contains_key`, the ends of a
//! `range` — halves the slots and compares keys where they lie, and every
//! slot it reads is bounds-checked against the page's record area, so a
//! damaged node fails with a typed [`DbError::Corruption`]. An edit
//! inserts or removes one slot ([`Page::insert_at`], [`Page::remove_at`]);
//! the page compacts itself when the bytes removed entries left behind
//! are needed.
//!
//! **Splits.** An insert or replace that would leave a node's entries and
//! slots over `SPLIT_THRESHOLD` bytes splits the node instead. Where it
//! is cut is the tree's choice: an *append* — a new entry past the last
//! one of a leaf with no right sibling, or a separator past the last key
//! of an internal node reached through the last child at every level — is
//! cut just before the new item, so the left node keeps every entry it
//! had and the right one starts with the new item. Any other split cuts at
//! entry `len / 2`, or, when either cut would leave a half too large for a
//! page (few long entries next to many short ones), at the entry that
//! leaves the larger half smallest. A load in key order therefore leaves
//! full nodes behind it.
//!
//! **Appends skip the descent.** Every keyed loader in seqdb assigns ids in
//! ascending order, so the tree remembers a hint: the last leaf found
//! with no right sibling. `insert`, `get` and `contains_key` go straight
//! to it when it is still a leaf with no right sibling, holds an entry,
//! and the key sorts after its first key — the key then provably belongs
//! there, since leaves only ever gain siblings and every key of a leaf is
//! at least the separator above it. Otherwise, or when an insert must
//! split (the split needs the path), they descend from the root as usual,
//! and the descent refreshes the hint. The hint is a page id, checked on
//! every use and never trusted; a key whose first eight bytes sort below
//! those of the leaf's first key, as it was when hinted, descends without
//! reading the leaf, so lookups in random order pay nothing for it. Both
//! paths edit the leaf and split it through the same code; an append that
//! fits is one `insert_at` past the last slot.
//!
//! Nodes are read in place: a `NodeView` borrows the page and lives no
//! longer than the page guard it was taken under. Only a split or a
//! compaction copies a node, and a [`BTreeRange`] copies the entries it
//! returns from each leaf. Concurrency is a coarse tree latch, shared for reads and
//! exclusive for writes — adequate for seqdb's bulk-load-then-query
//! workloads and simple to reason about.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use seqdb_types::{DbError, Result};

use crate::buffer::{BufferPool, Frame};
use crate::page::{Page, PageId, PageType, NO_PAGE, PAGE_SIZE};
use crate::varint;

/// An insert or replace that would leave a node's records and slots over
/// this many bytes splits the node.
const SPLIT_THRESHOLD: usize = 7600;
/// A single key+value entry may not exceed this (it must fit a node). A
/// stored entry adds at most 12 bytes to it — a two-byte key length and
/// a slot in a leaf, a child id and a slot in an internal node — so a node
/// that one insert took over the split threshold always has a cut whose
/// halves fit a page.
pub const MAX_ENTRY: usize = 3500;
/// The bytes a node page holds for records and slots: a page less its
/// 32-byte header.
const NODE_CAPACITY: usize = PAGE_SIZE - 32;
/// The bytes of one slot-array entry.
const SLOT_LEN: usize = 4;
/// No tree over 2^64 pages is this tall: a longer descent is a cycle of
/// damaged child ids, reported instead of followed forever.
const MAX_HEIGHT: usize = 32;

/// A disk-resident B+-tree mapping byte keys to byte values.
pub struct BTree {
    pool: Arc<BufferPool>,
    /// The root page.
    latch: RwLock<PageId>,
    len: AtomicU64,
    /// The last leaf a descent reached, or a split created, with no right
    /// sibling; `NO_PAGE` before the first. Only a hint: see
    /// [`BTree::hinted`].
    hint: AtomicU64,
    /// The [`prefix`] of that leaf's first key when it was hinted (0 if
    /// it had none): a key whose prefix is smaller sorts below that key,
    /// so it descends without the leaf being fetched. Stale either way,
    /// it costs a fetch or a descent, never a wrong leaf. Both are read
    /// and written under the latch, `Relaxed` (lookups share the latch):
    /// they publish nothing, and the page they name is read through the
    /// pool and checked.
    floor: AtomicU64,
}

/// What a node that split hands its parent: the separator key and the
/// new right page.
type Split = Option<(Vec<u8>, PageId)>;

fn corrupt() -> DbError {
    DbError::Corruption("corrupt b+tree node".into())
}

fn too_large() -> DbError {
    DbError::Storage("b+tree node payload exceeds page".into())
}

/// Refuse an index entry of `bytes` of key and value that no node could
/// hold: more than [`MAX_ENTRY`].
pub fn check_entry(bytes: usize) -> Result<()> {
    if bytes > MAX_ENTRY {
        return Err(DbError::Storage(format!(
            "index entry of {bytes} bytes exceeds the {MAX_ENTRY}-byte limit"
        )));
    }
    Ok(())
}

/// The first eight bytes of `key`, zero-padded, as a big-endian number:
/// `prefix(a) < prefix(b)` implies `a < b`.
fn prefix(key: &[u8]) -> u64 {
    let mut bytes = [0; 8];
    let n = key.len().min(8);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// A leaf record's key and value.
fn leaf_entry(rec: &[u8]) -> Result<(&[u8], &[u8])> {
    let mut pos = 0;
    let len = varint::read_u64(rec, &mut pos).ok_or_else(corrupt)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= rec.len())
        .ok_or_else(corrupt)?;
    Ok((&rec[pos..end], &rec[end..]))
}

/// An internal record's separator and the child to its right.
fn separator(rec: &[u8]) -> Result<(&[u8], PageId)> {
    let (child, key) = rec.split_first_chunk::<8>().ok_or_else(corrupt)?;
    Ok((key, PageId::from_le_bytes(*child)))
}

/// A node read in place: a view of a node page, which must not outlive
/// the page guard it was taken under. A page whose header does not
/// describe a readable slot array is refused when the view is taken, and
/// every slot is bounds-checked when read.
#[derive(Clone, Copy)]
struct NodeView<'a> {
    page: &'a Page,
    leaf: bool,
    /// Entries of a leaf, separators of an internal node: its slots.
    len: usize,
    /// A leaf's right sibling; an internal node's leftmost child.
    next: PageId,
}

impl<'a> NodeView<'a> {
    fn new(page: &'a Page) -> Result<NodeView<'a>> {
        let leaf = match page.page_type() {
            PageType::BTreeLeaf => true,
            PageType::BTreeInternal => false,
            other => {
                return Err(DbError::Corruption(format!(
                    "page type {other:?} is not a b+tree node"
                )))
            }
        };
        if !page.layout_ok() {
            return Err(corrupt());
        }
        Ok(NodeView {
            page,
            leaf,
            len: page.slot_count(),
            next: page.next_page(),
        })
    }

    /// The record in slot `i`.
    fn record(&self, i: usize) -> Result<&'a [u8]> {
        u16::try_from(i)
            .ok()
            .and_then(|i| self.page.get(i))
            .ok_or_else(corrupt)
    }

    /// Every record, in slot order.
    fn records(&self) -> Result<Vec<&'a [u8]>> {
        (0..self.len).map(|i| self.record(i)).collect()
    }

    /// A leaf's entry `i`.
    fn entry(&self, i: usize) -> Result<(&'a [u8], &'a [u8])> {
        leaf_entry(self.record(i)?)
    }

    /// The key in slot `i`: an entry's key or a separator.
    fn key(&self, i: usize) -> Result<&'a [u8]> {
        match self.leaf {
            true => Ok(self.entry(i)?.0),
            false => Ok(separator(self.record(i)?)?.0),
        }
    }

    /// Child `i` of an internal node: the leftmost for 0, else the one
    /// right of separator `i - 1`.
    fn child(&self, i: usize) -> Result<PageId> {
        let child = match i {
            0 => self.next,
            _ => separator(self.record(i - 1)?)?.1,
        };
        match self.leaf || child == NO_PAGE {
            true => Err(corrupt()),
            false => Ok(child),
        }
    }

    /// Where `key` is among the node's keys: `Ok(i)` if slot `i` holds
    /// it, else `Err(i)` for the slot it would take. Halves the slots,
    /// comparing keys in place.
    fn search(&self, key: &[u8]) -> Result<std::result::Result<usize, usize>> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            #[cfg(test)]
            tests::COMPARES.with(|n| n.set(n.get() + 1));
            match self.key(mid)?.cmp(key) {
                Less => lo = mid + 1,
                Greater => hi = mid,
                Equal => return Ok(Ok(mid)),
            }
        }
        Ok(Err(lo))
    }

    /// How many keys sort below `key`, or at most equal to it if
    /// `inclusive`: the slot where the keys past that bound start.
    fn rank(&self, key: &[u8], inclusive: bool) -> Result<usize> {
        Ok(match self.search(key)? {
            Ok(i) => i + usize::from(inclusive),
            Err(i) => i,
        })
    }

    /// The child to descend into for `key`, and whether it is the last:
    /// subtree `i` holds the keys from separator `i - 1` up to, not
    /// including, separator `i`.
    fn child_for(&self, key: &[u8]) -> Result<(PageId, bool)> {
        let i = self.rank(key, true)?;
        Ok((self.child(i)?, i == self.len))
    }
}

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        // An empty leaf is a fresh page: no slots, no sibling.
        let (root, _) = pool.allocate(PageType::BTreeLeaf)?;
        Ok(BTree::at(pool, root))
    }

    fn at(pool: Arc<BufferPool>, root: PageId) -> BTree {
        BTree {
            pool,
            latch: RwLock::new(root),
            len: AtomicU64::new(0),
            hint: AtomicU64::new(NO_PAGE),
            floor: AtomicU64::new(0),
        }
    }

    /// Re-open a tree given its root page. Counts the entries from the
    /// leaves' slot counts, walking the leaf chain without reading
    /// entries.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Result<BTree> {
        let tree = BTree::at(pool, root);
        let (mut pid, _) = tree.leaf_for(root, &[], None)?;
        let mut len = 0;
        while pid != NO_PAGE {
            pid = tree.view(pid, |node| match node.leaf {
                true => {
                    len += node.len as u64;
                    Ok(node.next)
                }
                // A sibling link must lead to a leaf.
                false => Err(corrupt()),
            })?;
        }
        tree.len.store(len, Ordering::Relaxed);
        Ok(tree)
    }

    pub fn root_page(&self) -> PageId {
        *self.latch.read()
    }

    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages currently reachable from the root.
    pub fn page_count(&self) -> Result<u64> {
        let (pages, readable) = self.reachable();
        readable.map(|()| pages.len() as u64)
    }

    /// Every page reachable from the root, for the integrity scrubber.
    /// Unlike [`BTree::page_count`] this tolerates unreadable pages: a
    /// corrupt internal node is still *listed* (so the scrubber can try to
    /// repair it) — its subtree is simply not descended into until a later
    /// scrub pass after repair.
    pub fn pages(&self) -> Vec<PageId> {
        self.reachable().0
    }

    /// The pages under the root, child ids read off each internal node's
    /// view, and the first error met on the way.
    fn reachable(&self) -> (Vec<PageId>, Result<()>) {
        let root = self.latch.read();
        let (mut out, mut readable) = (Vec::new(), Ok(()));
        let mut stack = vec![*root];
        while let Some(pid) = stack.pop() {
            out.push(pid);
            let children = self.view(pid, |node| match node.leaf {
                true => Ok(Vec::new()),
                false => (0..=node.len).map(|i| node.child(i)).collect(),
            });
            match children {
                Ok(children) => stack.extend(children),
                Err(e) => readable = readable.and(Err(e)),
            }
        }
        (out, readable)
    }

    /// Insert or replace. Returns the previous value under `key`, if any.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        check_entry(key.len() + value.len())?;
        let mut root = self.latch.write();
        // An append that fits the hinted leaf is done. One that overflows
        // it leaves the page untouched and descends like any other insert,
        // for the path its split needs.
        let appended = self
            .hinted(key)?
            .map(|leaf| edit_leaf(&leaf, key, Some(value)))
            .transpose()?;
        let old = match appended {
            Some((old, true)) => old,
            _ => self.insert_from(&mut root, key, value)?,
        };
        if old.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Insert by descending from `root`, splitting what overflows and
    /// growing a new root if the old one splits.
    fn insert_from(&self, root: &mut PageId, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        // The internal nodes descended through, root first.
        let mut path = Vec::new();
        let (_, leaf) = self.leaf_for(*root, key, Some(&mut path))?;
        let (old, fits) = edit_leaf(&leaf, key, Some(value))?;
        // An overfull leaf splits, and so may every ancestor in turn.
        let mut split = match fits {
            true => None,
            false => Some(self.split_leaf(&leaf, key, value)?),
        };
        while let Some((sep, right)) = split {
            let Some((parent, edge)) = path.pop() else {
                // Grow a new root.
                let (new_root, frame) = self.pool.allocate(PageType::BTreeInternal)?;
                write_node(&frame, *root, &[&[&right.to_le_bytes()[..], &sep].concat()])?;
                *root = new_root;
                break;
            };
            split = self.add_child(parent, edge, &sep, right)?;
        }
        Ok(old)
    }

    /// Split `leaf`, which `edit_leaf` found too full to take `key` and
    /// `value`: the node they make is cut in two, the entries past the cut
    /// moving to a new right sibling, which becomes the hint if it is the
    /// last leaf. Returns the separator key and the new page.
    fn split_leaf(&self, leaf: &Frame, key: &[u8], value: &[u8]) -> Result<(Vec<u8>, PageId)> {
        // A copy to cut, so that no page guard is held while the pool
        // allocates.
        let page = leaf.page.read().clone();
        let node = NodeView::new(&page)?;
        let mut len = [0; 10];
        let len = varint::encode_u64(key.len() as u64, &mut len);
        let record = [len, key, value].concat();
        let mut records = node.records()?;
        let append = match node.search(key)? {
            Ok(i) => {
                records[i] = &record;
                false
            }
            Err(i) => {
                records.insert(i, &record);
                node.next == NO_PAGE && i == node.len
            }
        };
        let sizes: Vec<usize> = records.iter().map(|r| r.len() + SLOT_LEN).collect();
        // Nothing is allocated before the cut is known to fit.
        let cut = split_point(&sizes, false, append)?;
        let sep = leaf_entry(records[cut])?.0.to_vec();
        let (right_id, right_frame) = self.pool.allocate(PageType::BTreeLeaf)?;
        write_node(&right_frame, node.next, &records[cut..])?;
        write_node(leaf, right_id, &records[..cut])?;
        if node.next == NO_PAGE {
            self.set_hint(right_id, &sep);
        }
        Ok((sep, right_id))
    }

    /// Give internal node `pid` the separator and right page of a child
    /// that split; if that overfills it, split it too and return its own
    /// promoted key and new right page. `edge` says whether `pid` lies on
    /// the right edge of the tree.
    fn add_child(&self, pid: PageId, edge: bool, sep: &[u8], right: PageId) -> Result<Split> {
        let frame = self.pool.fetch(pid)?;
        let child = right.to_le_bytes();
        let (index, append) = {
            let mut page = frame.page.write();
            let node = NodeView::new(&page)?;
            if node.leaf {
                return Err(corrupt());
            }
            let index = node.rank(sep, true)?;
            let append = edge && index == node.len;
            if page.occupied() + child.len() + sep.len() + SLOT_LEN <= SPLIT_THRESHOLD {
                if !page.insert_at(index, &[&child, sep]) {
                    return Err(corrupt());
                }
                drop(page);
                frame.mark_dirty();
                return Ok(None);
            }
            (index, append)
        };
        let page = frame.page.read().clone();
        let node = NodeView::new(&page)?;
        let record = [&child, sep].concat();
        let mut records = node.records()?;
        records.insert(index, &record);
        let sizes: Vec<usize> = records.iter().map(|r| r.len() + SLOT_LEN).collect();
        let mid = split_point(&sizes, true, append)?;
        // The separator at the cut moves up; its child becomes the right
        // node's leftmost.
        let (promoted, leftmost) = separator(records[mid])?;
        let (right_id, right_frame) = self.pool.allocate(PageType::BTreeInternal)?;
        write_node(&right_frame, leftmost, &records[mid + 1..])?;
        write_node(&frame, node.next, &records[..mid])?;
        Ok(Some((promoted.to_vec(), right_id)))
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.lookup(key, |hit| hit.map(<[u8]>::to_vec))
    }

    /// Whether `key` is present; unlike [`BTree::get`] it copies nothing.
    pub fn contains_key(&self, key: &[u8]) -> Result<bool> {
        self.lookup(key, |hit| hit.is_some())
    }

    fn lookup<T>(&self, key: &[u8], found: impl FnOnce(Option<&[u8]>) -> T) -> Result<T> {
        let root = self.latch.read();
        let leaf = match self.hinted(key)? {
            Some(leaf) => leaf,
            None => self.leaf_for(*root, key, None)?.1,
        };
        let page = leaf.page.read();
        let node = NodeView::new(&page)?;
        let hit = match node.search(key)? {
            Ok(i) => Some(node.entry(i)?.1),
            Err(_) => None,
        };
        Ok(found(hit))
    }

    /// The hinted leaf, if `key` provably belongs in it: the page is still
    /// a leaf with no right sibling, so the last leaf of the tree, and its
    /// first key sorts before `key`, so no separator above it is larger
    /// than `key`. `None` — descend — for no hint, a stale one, an emptied
    /// leaf or a smaller key, which the floor often shows without the
    /// fetch. A hinted page that does not parse proves nothing either:
    /// the descent decides, and fails if it meets the damage.
    fn hinted(&self, key: &[u8]) -> Result<Option<Arc<Frame>>> {
        let pid = self.hint.load(Ordering::Relaxed);
        if pid == NO_PAGE || prefix(key) < self.floor.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let frame = self.pool.fetch(pid)?;
        let belongs = NodeView::new(&frame.page.read()).is_ok_and(|node| {
            node.leaf && node.next == NO_PAGE && node.key(0).is_ok_and(|first| key > first)
        });
        Ok(belongs.then_some(frame))
    }

    /// Hint leaf `pid`, whose first key is `first`.
    fn set_hint(&self, pid: PageId, first: &[u8]) {
        self.floor.store(prefix(first), Ordering::Relaxed);
        self.hint.store(pid, Ordering::Relaxed);
    }

    /// Remove `key`, returning its value. Leaves may underflow (no
    /// rebalancing); ordered iteration remains correct.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let root = self.latch.write();
        let (_, leaf) = self.leaf_for(*root, key, None)?;
        let (old, _written) = edit_leaf(&leaf, key, None)?;
        if old.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Ordered scan over `[start, end)` bounds (inclusive/exclusive per
    /// `Bound`). Copies, from one leaf at a time, the entries it returns.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<BTreeRange<'_>> {
        let root = self.latch.read();
        let seek_key: &[u8] = match start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let (_, leaf) = self.leaf_for(*root, seek_key, None)?;
        let mut range = BTreeRange {
            tree: self,
            buf: Vec::new(),
            bounds: vec![0],
            at: 0,
            next: NO_PAGE,
            end: match end {
                Bound::Unbounded => None,
                Bound::Included(k) => Some((k.to_vec(), true)),
                Bound::Excluded(k) => Some((k.to_vec(), false)),
            },
        };
        let page = leaf.page.read();
        let node = NodeView::new(&page)?;
        // Skip what precedes the start bound in the first leaf.
        let from = match start {
            Bound::Included(k) => node.rank(k, false)?,
            Bound::Excluded(k) => node.rank(k, true)?,
            Bound::Unbounded => 0,
        };
        range.copy(node, from)?;
        Ok(range)
    }

    /// Run `f` on the view of page `pid`, under the page's read guard.
    fn view<T>(&self, pid: PageId, f: impl FnOnce(NodeView<'_>) -> Result<T>) -> Result<T> {
        let frame = self.pool.fetch(pid)?;
        let page = frame.page.read();
        f(NodeView::new(&page)?)
    }

    /// Descend from `pid` to the leaf that holds, or would hold, `key`:
    /// one fetch per level, the leaf's frame handed back for the caller to
    /// read or edit, the internal nodes passed pushed on `path` with
    /// whether each lies on the right edge (reached through the last child
    /// at every level). A leaf with no right sibling becomes the hint.
    fn leaf_for(
        &self,
        mut pid: PageId,
        key: &[u8],
        mut path: Option<&mut Vec<(PageId, bool)>>,
    ) -> Result<(PageId, Arc<Frame>)> {
        let mut edge = true;
        for _ in 0..MAX_HEIGHT {
            let frame = self.pool.fetch(pid)?;
            let child = {
                let page = frame.page.read();
                let node = NodeView::new(&page)?;
                if node.leaf && node.next == NO_PAGE {
                    // An empty leaf, or an unreadable first key, floors
                    // nothing; a wrong floor costs a fetch or a descent.
                    self.set_hint(pid, node.key(0).unwrap_or_default());
                }
                (!node.leaf).then(|| node.child_for(key)).transpose()?
            };
            let Some((child, last)) = child else {
                return Ok((pid, frame));
            };
            if let Some(path) = path.as_deref_mut() {
                path.push((pid, edge));
            }
            edge &= last;
            pid = child;
        }
        Err(corrupt())
    }
}

/// Insert or replace (`value` given) or delete (`None`) `key` in the leaf
/// on `frame`, one slot of the page inserted or removed, unless an insert
/// or replace would take the node over [`SPLIT_THRESHOLD`]. Returns the
/// key's previous value and whether the page was edited; when not, it is
/// untouched and must be split. A delete only shrinks the node, so it is
/// always done.
fn edit_leaf(frame: &Frame, key: &[u8], value: Option<&[u8]>) -> Result<(Option<Vec<u8>>, bool)> {
    let mut page = frame.page.write();
    let node = NodeView::new(&page)?;
    if !node.leaf {
        return Err(corrupt());
    }
    let (index, old, freed) = match node.search(key)? {
        Ok(i) => {
            let record = node.record(i)?;
            let old = leaf_entry(record)?.1.to_vec();
            (i, Some(old), record.len() + SLOT_LEN)
        }
        Err(_) if value.is_none() => return Ok((None, true)),
        Err(i) => (i, None, 0),
    };
    let mut len = [0; 10];
    let len = varint::encode_u64(key.len() as u64, &mut len);
    if let Some(value) = value {
        let grown = len.len() + key.len() + value.len() + SLOT_LEN;
        if page.occupied().saturating_sub(freed) + grown > SPLIT_THRESHOLD {
            return Ok((old, false));
        }
    }
    if old.is_some() && !page.remove_at(index) {
        return Err(corrupt());
    }
    if let Some(value) = value {
        if !page.insert_at(index, &[len, key, value]) {
            return Err(corrupt());
        }
    }
    drop(page);
    frame.mark_dirty();
    Ok((old, true))
}

/// Where an overfull node is cut. `sizes` are the bytes its items take in
/// a page, slots included: a leaf's entries, or an `internal` node's
/// separators with their children. In an internal node the separator at
/// the cut is promoted: it goes to neither half, and its child becomes
/// the right half's leftmost.
///
/// An `append` put the last item there: the cut is just before it, so
/// the left half is the node as it was and the right half starts with
/// the new item (in an internal node, whose new separator is promoted,
/// the right half is that separator's child alone). Any other cut is
/// `len / 2`. Either is taken whenever both halves then fit a page.
/// Halving by count can fail that when a few long items sit among many
/// short ones; the cut is then the one that leaves the larger half
/// smallest, which fits for any node of entries up to [`MAX_ENTRY`] that
/// overflowed by one insert.
fn split_point(sizes: &[usize], internal: bool, append: bool) -> Result<usize> {
    let promoted = usize::from(internal);
    let total: usize = sizes.iter().sum();
    // The larger half when `left` bytes of items stay.
    let larger = |cut: usize, left: usize| {
        left.max(total - left - sizes[cut..cut + promoted].iter().sum::<usize>())
    };
    let first = match append {
        true => sizes.len() - 1,
        false => sizes.len() / 2,
    };
    if larger(first, sizes[..first].iter().sum()) <= NODE_CAPACITY {
        return Ok(first);
    }
    let mut left = 0;
    (1..sizes.len() - promoted)
        .map(|cut| {
            left += sizes[cut - 1];
            (larger(cut, left), cut)
        })
        .min()
        .filter(|&(larger, _)| larger <= NODE_CAPACITY)
        .map(|(_, cut)| cut)
        .ok_or_else(too_large)
}

/// Make `frame`'s page the node of `records`, in slot order, with `next`
/// as its right sibling (a leaf) or leftmost child (an internal node).
fn write_node(frame: &Frame, next: PageId, records: &[&[u8]]) -> Result<()> {
    let mut page = frame.page.write();
    if !page.rebuild(&[], records) {
        return Err(too_large());
    }
    page.set_next_page(next);
    drop(page);
    frame.mark_dirty();
    Ok(())
}

/// Ordered iterator over a key range. Holds a copy of the entries it
/// returns from one leaf at a time, taken under that leaf's page guard
/// and lent out by [`BTreeRange::next_entry`]; no latch or guard is held
/// between calls.
pub struct BTreeRange<'a> {
    tree: &'a BTree,
    /// The current leaf's entries in range, keys and values back to back.
    buf: Vec<u8>,
    /// Where they start and end in `buf`: entry `i`'s key is
    /// `bounds[2i]..bounds[2i + 1]`, its value runs on to `bounds[2i + 2]`.
    bounds: Vec<usize>,
    /// The next entry to return.
    at: usize,
    /// The leaf to copy next; `NO_PAGE` once the range ends in the
    /// current one.
    next: PageId,
    end: Option<(Vec<u8>, bool)>,
}

impl BTreeRange<'_> {
    /// Make leaf `node`'s entries from slot `from` up to the end bound the
    /// current ones; its sibling is next only if the bound lies past it.
    fn copy(&mut self, node: NodeView<'_>, from: usize) -> Result<()> {
        // A sibling link must lead to a leaf.
        if !node.leaf {
            return Err(corrupt());
        }
        let to = match &self.end {
            Some((key, inclusive)) => node.rank(key, *inclusive)?,
            None => node.len,
        };
        (self.at, self.next) = (0, NO_PAGE);
        self.buf.clear();
        self.bounds.truncate(1);
        for i in from..to {
            let (key, value) = node.entry(i)?;
            self.buf.extend_from_slice(key);
            self.bounds.push(self.buf.len());
            self.buf.extend_from_slice(value);
            self.bounds.push(self.buf.len());
        }
        if to == node.len {
            self.next = node.next;
        }
        Ok(())
    }

    /// The next `(key, value)`, borrowed from the iterator's copy. After
    /// an error the iterator is exhausted.
    pub fn next_entry(&mut self) -> Option<Result<(&[u8], &[u8])>> {
        while 2 * self.at + 1 == self.bounds.len() {
            if self.next == NO_PAGE {
                return None;
            }
            let loaded = self.tree.view(self.next, |node| self.copy(node, 0));
            if let Err(e) = loaded {
                (self.at, self.next) = (0, NO_PAGE);
                self.bounds.truncate(1);
                return Some(Err(e));
            }
        }
        let b = &self.bounds[2 * self.at..2 * self.at + 3];
        self.at += 1;
        Some(Ok((&self.buf[b[0]..b[1]], &self.buf[b[1]..b[2]])))
    }
}

impl Iterator for BTreeRange<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.next_entry()?;
        Some(entry.map(|(k, v)| (k.to_vec(), v.to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use std::cell::Cell;

    thread_local! {
        /// Key comparisons made by [`NodeView::search`] on this thread.
        pub(super) static COMPARES: Cell<u64> = const { Cell::new(0) };
    }

    fn tree() -> BTree {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 256);
        BTree::create(pool).unwrap()
    }

    fn k(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// The bytes a leaf entry of `key` and a `vlen`-byte value takes in
    /// its page, slot included.
    fn entry_size(key: &[u8], vlen: usize) -> usize {
        varint::len_u64(key.len() as u64) + key.len() + vlen + SLOT_LEN
    }

    /// Write a leaf of `entries` with right sibling `next` on `frame`.
    fn write_leaf(frame: &Frame, entries: &[(Vec<u8>, Vec<u8>)], next: PageId) {
        let records: Vec<Vec<u8>> = entries
            .iter()
            .map(|(key, value)| {
                let mut rec = Vec::new();
                varint::write_u64(&mut rec, key.len() as u64);
                [rec, key.clone(), value.clone()].concat()
            })
            .collect();
        let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        write_node(frame, next, &records).unwrap();
    }

    /// Write an internal node of `keys` over `children` on `frame`.
    fn write_internal(frame: &Frame, keys: &[Vec<u8>], children: &[PageId]) {
        assert_eq!(keys.len() + 1, children.len());
        let records: Vec<Vec<u8>> = keys
            .iter()
            .zip(&children[1..])
            .map(|(key, child)| [&child.to_le_bytes()[..], key].concat())
            .collect();
        let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        write_node(frame, children[0], &records).unwrap();
    }

    /// A leaf's entries.
    fn entries(t: &BTree, pid: PageId) -> Vec<(Vec<u8>, Vec<u8>)> {
        t.view(pid, |node| {
            assert!(node.leaf, "page {pid} is a leaf");
            (0..node.len)
                .map(|i| node.entry(i).map(|(k, v)| (k.to_vec(), v.to_vec())))
                .collect()
        })
        .unwrap()
    }

    /// An internal node's separators and children.
    fn separators(t: &BTree, pid: PageId) -> (Vec<Vec<u8>>, Vec<PageId>) {
        t.view(pid, |node| {
            assert!(!node.leaf, "page {pid} is internal");
            let keys = (0..node.len).map(|i| node.key(i).map(<[u8]>::to_vec));
            let children = (0..=node.len).map(|i| node.child(i));
            Ok((
                keys.collect::<Result<_>>()?,
                children.collect::<Result<_>>()?,
            ))
        })
        .unwrap()
    }

    #[test]
    fn insert_get_small() {
        let t = tree();
        assert_eq!(t.insert(&k(5), b"five").unwrap(), None);
        assert_eq!(t.insert(&k(3), b"three").unwrap(), None);
        assert_eq!(t.get(&k(5)).unwrap(), Some(b"five".to_vec()));
        assert_eq!(t.get(&k(4)).unwrap(), None);
        assert_eq!(t.insert(&k(5), b"FIVE").unwrap(), Some(b"five".to_vec()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_stay_sorted_across_splits() {
        let t = tree();
        let n = 20_000u32;
        // Insert in a scrambled order.
        let mut order: Vec<u32> = (0..n).collect();
        let mut state = 12345u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for i in &order {
            t.insert(&k(*i), format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.page_count().unwrap() > 10, "tree should have split");
        // Full ordered scan.
        let got: Vec<u32> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|e| u32::from_be_bytes(e.unwrap().0.try_into().unwrap()))
            .collect();
        let expect: Vec<u32> = (0..n).collect();
        assert_eq!(got, expect);
        // Random point lookups.
        for i in [0u32, 1, 999, 4321, n - 1] {
            assert_eq!(t.get(&k(i)).unwrap(), Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn range_bounds() {
        let t = tree();
        for i in 0..100u32 {
            t.insert(&k(i), b"x").unwrap();
        }
        let collect = |s: Bound<&[u8]>, e: Bound<&[u8]>| -> Vec<u32> {
            t.range(s, e)
                .unwrap()
                .map(|r| u32::from_be_bytes(r.unwrap().0.try_into().unwrap()))
                .collect()
        };
        let k10 = k(10);
        let k20 = k(20);
        assert_eq!(
            collect(Bound::Included(&k10), Bound::Excluded(&k20)),
            (10..20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Excluded(&k10), Bound::Included(&k20)),
            (11..=20).collect::<Vec<_>>()
        );
        assert_eq!(collect(Bound::Unbounded, Bound::Excluded(&k10)).len(), 10);
        assert!(collect(Bound::Included(&k20), Bound::Excluded(&k10)).is_empty());
    }

    #[test]
    fn delete_and_rescan() {
        let t = tree();
        for i in 0..1000u32 {
            t.insert(&k(i), b"v").unwrap();
        }
        for i in (0..1000u32).step_by(2) {
            assert!(t.delete(&k(i)).unwrap().is_some());
        }
        assert_eq!(t.delete(&k(0)).unwrap(), None);
        assert_eq!(t.len(), 500);
        let got: Vec<u32> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|e| u32::from_be_bytes(e.unwrap().0.try_into().unwrap()))
            .collect();
        assert!(got.iter().all(|i| i % 2 == 1));
        assert_eq!(got.len(), 500);
    }

    #[test]
    fn delete_from_a_leaf_over_the_split_threshold() {
        // Halving a leaf by entry count can leave a half that is over
        // SPLIT_THRESHOLD yet fits its page; a delete from it is done.
        // The overflowing insert goes between two keys: past the last one
        // it would be an append, which halves nothing.
        let t = tree();
        for i in 0..60u8 {
            t.insert(&[0, i], b"v").unwrap();
        }
        t.insert(&[1, 0], &[7; 3450]).unwrap();
        t.insert(&[1, 2], &[7; 600]).unwrap();
        t.insert(&[1, 1], &[7; 3450]).unwrap();
        let (_, leaf) = t.leaf_for(t.root_page(), &[0, 50], None).unwrap();
        assert!(leaf.page.read().occupied() > SPLIT_THRESHOLD);
        drop(leaf);
        assert_eq!(t.delete(&[0, 50]).unwrap(), Some(b"v".to_vec()));
        assert_eq!(t.get(&[0, 50]).unwrap(), None);
        assert_eq!(t.delete(&[0, 50]).unwrap(), None);
        assert_eq!(t.len(), 62);
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.count(), 62);
        // So is a replace that brings the node back under the threshold.
        assert!(t.insert(&[1, 2], b"small").unwrap().is_some());
        assert_eq!(t.get(&[1, 2]).unwrap(), Some(b"small".to_vec()));
        assert_eq!(t.len(), 62);
        // The same operations against the model and the structure checks.
        let mut ops: Vec<Op> = (0..60).map(|i| Op::Insert(vec![0, i], 1)).collect();
        ops.extend([(0, 3450), (2, 600), (1, 3450)].map(|(i, len)| Op::Insert(vec![1, i], len)));
        ops.extend([Op::Delete(50), Op::Replace(61, 5)]);
        run_model(&ops).unwrap();
    }

    #[test]
    fn edits_reuse_the_space_of_removed_entries() {
        // Replacing one entry again and again leaves dead bytes behind;
        // the page compacts instead of splitting.
        let t = tree();
        for i in 0..20u32 {
            t.insert(&k(i), &[1; 300]).unwrap();
        }
        for round in 0..200u32 {
            let value = vec![round as u8; 300 + round as usize % 7];
            assert!(t.insert(&k(round % 20), &value).unwrap().is_some());
            assert_eq!(t.get(&k(round % 20)).unwrap(), Some(value));
        }
        assert_eq!(t.page_count().unwrap(), 1);
        assert_eq!(t.len(), 20);
    }

    /// Every key of `t` in order, after checking that no page the pool
    /// handed out since the tree's creation is missing from it.
    fn keys_with_no_page_leaked(t: &BTree) -> Vec<Vec<u8>> {
        assert_eq!(t.page_count().unwrap(), t.pool.store().num_pages());
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        all.map(|e| e.unwrap().0).collect()
    }

    #[test]
    fn a_leaf_with_uneven_halves_splits_by_bytes() {
        // Halved by entry count, the leaf `a2` goes to would keep three
        // 3.4 KB entries on one side: more than a page.
        let t = tree();
        let mut keys: Vec<Vec<u8>> = (0..20).map(|i| vec![b'z', i]).collect();
        for key in &keys {
            t.insert(key, &[1; 41]).unwrap();
        }
        for i in 0..4 {
            keys.push(vec![b'a', b'0' + i]);
            t.insert(&keys[20 + i as usize], &[2; 3405]).unwrap();
        }
        keys.sort();
        assert_eq!(keys_with_no_page_leaked(&t), keys);
        assert_eq!(t.get(b"a2").unwrap(), Some(vec![2; 3405]));
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn an_internal_node_with_uneven_halves_splits_by_bytes() {
        // Some forty short separators, then long ones at the low end: by
        // count, three 3.3 KB keys would stay in the root's left half.
        let t = tree();
        let mut keys: Vec<Vec<u8>> = (0..6000).map(|i| [b"z", &k(i)[..]].concat()).collect();
        for key in &keys {
            t.insert(key, &[1; 40]).unwrap();
        }
        for i in 0..12 {
            keys.push([&[b'a', i][..], &[7; 3300]].concat());
            t.insert(&keys[6000 + i as usize], b"v").unwrap();
        }
        keys.sort();
        assert_eq!(keys_with_no_page_leaked(&t), keys);
    }

    #[test]
    fn node_capacity_is_what_a_fresh_page_holds() {
        for len in [NODE_CAPACITY - SLOT_LEN, NODE_CAPACITY - SLOT_LEN + 1] {
            let mut page = Page::new(PageType::BTreeLeaf);
            let fits = page.insert_at(0, &[&vec![1; len]]);
            assert_eq!(fits, len + SLOT_LEN <= NODE_CAPACITY);
        }
        // A node one insert took over the threshold has halves that fit.
        let largest = entry_size(&[0; MAX_ENTRY], 0).max(8 + MAX_ENTRY + SLOT_LEN);
        assert!((SPLIT_THRESHOLD + 2 * largest) / 2 <= NODE_CAPACITY);
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree();
        let big = vec![0u8; 8000];
        assert!(t.insert(b"k", &big).is_err());
        assert!(t.insert(&[1; MAX_ENTRY], b"").is_ok());
        assert!(t.insert(&[2; MAX_ENTRY], b"v").is_err());
    }

    #[test]
    fn reopen_from_root() {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 256);
        let t = BTree::create(pool.clone()).unwrap();
        for i in 0..5000u32 {
            t.insert(&k(i), b"v").unwrap();
        }
        let root = t.root_page();
        drop(t);
        let t2 = BTree::open(pool, root).unwrap();
        assert_eq!(t2.len(), 5000);
        assert_eq!(t2.get(&k(4999)).unwrap(), Some(b"v".to_vec()));
    }

    // -- model, structure and corruption tests --------------------------

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Walk the tree under `pid`, whose keys must lie in `[lo, hi)`: check
    /// that every node's keys ascend within those bounds and every leaf is
    /// at the same `depth`, and push the leaves, left to right, on
    /// `leaves`.
    fn check_subtree(
        t: &BTree,
        pid: PageId,
        (lo, hi): (&[u8], Option<&[u8]>),
        depth: usize,
        leaves: &mut Vec<(PageId, usize)>,
    ) {
        let within = |key: &[u8]| lo <= key && hi.is_none_or(|hi| key < hi);
        let leaf = t.view(pid, |node| Ok(node.leaf)).unwrap();
        if leaf {
            let keys: Vec<Vec<u8>> = entries(t, pid).into_iter().map(|(k, _)| k).collect();
            assert!(keys.is_sorted_by(|a, b| a < b), "leaf {pid} out of order");
            assert!(keys.iter().all(|k| within(k)), "leaf {pid} out of bounds");
            leaves.push((pid, depth));
            return;
        }
        let (keys, children) = separators(t, pid);
        assert!(!keys.is_empty(), "internal node {pid} without separators");
        assert!(keys.is_sorted_by(|a, b| a < b), "node {pid} out of order");
        assert!(keys.iter().all(|k| within(k)), "node {pid} out of bounds");
        for (i, &child) in children.iter().enumerate() {
            let lo = if i == 0 { lo } else { &keys[i - 1] };
            let hi = keys.get(i).map(Vec::as_slice).or(hi);
            check_subtree(t, child, (lo, hi), depth + 1, leaves);
        }
    }

    /// Check `t` against `model`: the same entries in order, through the
    /// leaf chain; every key within the separators above it; leaves all
    /// at one depth, chained left to right; every node within its page;
    /// no page the pool handed out left unreachable. Returns the height.
    fn check_tree(t: &BTree, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> usize {
        let mut leaves = Vec::new();
        check_subtree(t, t.root_page(), (&[], None), 1, &mut leaves);
        let height = leaves[0].1;
        assert!(leaves.iter().all(|&(_, d)| d == height), "uneven leaves");
        for (i, &(pid, _)) in leaves.iter().enumerate() {
            let next = leaves.get(i + 1).map_or(NO_PAGE, |&(next, _)| next);
            let (sibling, occupied) = t
                .view(pid, |node| Ok((node.next, node.page.occupied())))
                .unwrap();
            assert_eq!(sibling, next, "leaf {pid} chains to the wrong sibling");
            assert!(occupied <= NODE_CAPACITY);
        }
        let all: Vec<_> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert!(all.into_iter().eq(model.clone()));
        assert_eq!(t.len(), model.len() as u64);
        assert_eq!(t.page_count().unwrap(), t.pool.store().num_pages());
        height
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, usize),
        /// Insert a key above every key the model holds.
        Append(usize),
        /// Replace, delete or look up the `n`-th key the model holds.
        Replace(usize, usize),
        Delete(usize),
        Get(usize),
        Range(Vec<u8>, Vec<u8>, bool, bool),
        Reopen,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = || proptest::collection::vec(any::<u8>(), 1..=64);
        // Mostly small values (leaves past 127 entries), one in seven as
        // large as an entry may be (two-entry leaves, so that internal
        // nodes split too, and leaves of many short entries and a few
        // long ones, which cannot be halved by entry count). Random keys
        // almost never land past the last one, so appends are an op of
        // their own.
        let vlen = (0..7u8, 0..48usize, 0..=MAX_ENTRY - 64).prop_map(|(pick, small, large)| {
            if pick == 0 {
                large
            } else {
                small
            }
        });
        let flags = (any::<bool>(), any::<bool>());
        (0..20u8, key(), key(), (any::<usize>(), vlen), flags).prop_map(
            |(kind, a, b, (n, vlen), (ia, ib))| match kind {
                0..=6 => Op::Insert(a, vlen),
                7..=9 => Op::Append(vlen),
                10..=12 => Op::Replace(n, vlen),
                13..=15 => Op::Delete(n),
                16..=17 => Op::Get(n),
                18 => Op::Range(a, b, ia, ib),
                _ => Op::Reopen,
            },
        )
    }

    /// A short key above `max`: its last byte below 0xff raised by one,
    /// the bytes after it dropped.
    fn above(max: Option<&Vec<u8>>) -> Vec<u8> {
        let Some(max) = max else { return vec![0x80] };
        let mut key = max.clone();
        while key.pop_if(|b| *b == 0xff).is_some() {}
        match key.last_mut() {
            Some(b) => *b += 1,
            None => key = [&max[..], &[0]].concat(),
        }
        key
    }

    fn bound(key: &[u8], inclusive: bool) -> Bound<&[u8]> {
        match inclusive {
            true => Bound::Included(key),
            false => Bound::Excluded(key),
        }
    }

    /// Drive the tree and a `BTreeMap` through `ops`, checking the tree's
    /// structure against the map after every mutation. Returns the
    /// tree's greatest height on the way.
    fn run_model(ops: &[Op]) -> std::result::Result<usize, TestCaseError> {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 4096);
        let mut tree = BTree::create(pool.clone()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let nth = |model: &BTreeMap<Vec<u8>, Vec<u8>>, n: usize| {
            model.keys().nth(n % model.len().max(1)).cloned()
        };
        let mut height = 1;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(..) | Op::Append(..) | Op::Replace(..) => {
                    let (key, vlen) = match op {
                        Op::Insert(key, vlen) => (key.clone(), *vlen),
                        Op::Append(vlen) => (above(model.keys().next_back()), *vlen),
                        Op::Replace(n, vlen) => match nth(&model, *n) {
                            Some(key) => (key, *vlen),
                            None => continue,
                        },
                        _ => unreachable!(),
                    };
                    let value = vec![step as u8; vlen];
                    // Tiny and huge entries mix, so some leaves cannot be
                    // halved by entry count; no insert is refused for it.
                    prop_assert_eq!(tree.insert(&key, &value).unwrap(), model.insert(key, value));
                }
                Op::Delete(n) => {
                    let Some(key) = nth(&model, *n) else { continue };
                    prop_assert_eq!(tree.delete(&key).unwrap(), model.remove(&key));
                    prop_assert_eq!(tree.delete(&key).unwrap(), None);
                }
                Op::Get(n) => {
                    let Some(key) = nth(&model, *n) else { continue };
                    prop_assert_eq!(tree.get(&key).unwrap(), model.get(&key).cloned());
                    prop_assert!(tree.contains_key(&key).unwrap());
                    let mut absent = key;
                    absent.push(0);
                    prop_assert_eq!(
                        tree.contains_key(&absent).unwrap(),
                        model.contains_key(&absent)
                    );
                    continue;
                }
                Op::Range(a, b, ia, ib) => {
                    let got: Vec<_> = tree
                        .range(bound(a, *ia), bound(b, *ib))
                        .unwrap()
                        .map(|e| e.unwrap())
                        .collect();
                    let want: Vec<_> = model
                        .iter()
                        .filter(|(k, _)| if *ia { *k >= a } else { *k > a })
                        .filter(|(k, _)| if *ib { *k <= b } else { *k < b })
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                    continue;
                }
                Op::Reopen => {
                    tree = BTree::open(pool.clone(), tree.root_page()).unwrap();
                }
            }
            height = height.max(check_tree(&tree, &model));
        }
        Ok(height)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn matches_btreemap_and_stays_a_sound_tree(
            ops in proptest::collection::vec(op_strategy(), 1000..2000)
        ) {
            run_model(&ops)?;
        }
    }

    /// 64-byte keys in an order given by `i`.
    fn wide_key(i: u32) -> Vec<u8> {
        [k(i), vec![7; 60]].concat()
    }

    #[test]
    fn internal_nodes_split_and_the_root_grows_twice() {
        // Two entries to a leaf and 76-byte separators: some 100 leaves
        // fill the root, and the tree gains its third level.
        let wide = |i: u32| wide_key(i.wrapping_mul(0x9e37_79b9));
        let mut ops: Vec<Op> = (0..400).map(|i| Op::Insert(wide(i), 3400)).collect();
        ops.extend((0..400).step_by(3).map(Op::Delete));
        ops.push(Op::Reopen);
        ops.extend((400..500).map(|i| Op::Insert(wide(i), 3400)));
        assert!(run_model(&ops).unwrap() >= 3, "no internal node split");
    }

    #[test]
    fn only_the_right_edge_splits_as_an_append() {
        // Ascending, two entries to a leaf: leaf `j` holds keys 2j and
        // 2j + 1, and the root fills at 100 separators. The 101st splits
        // it as an append, so its left half keeps all 100. A key between
        // the two of that half's last leaf (keys 200 and 201) splits the
        // leaf, and its separator lands past the half's last key — an
        // insert at the end of a node off the right edge, which is halved.
        let t = tree();
        let mut model = BTreeMap::new();
        let mut keys: Vec<Vec<u8>> = (0..220).map(wide_key).collect();
        keys.push([wide_key(200), vec![0]].concat());
        for key in keys {
            t.insert(&key, &[1; 3400]).unwrap();
            model.insert(key, vec![1; 3400]);
        }
        assert_eq!(check_tree(&t, &model), 3);
        let (_, children) = separators(&t, t.root_page());
        let sizes: Vec<usize> = children
            .iter()
            .map(|&child| separators(&t, child).0.len())
            .collect();
        // The root's append split left 100 separators and 8; the halving
        // one cut 101 into 50, the one promoted and 50.
        assert_eq!(sizes, [50, 50, 8]);
    }

    /// How many pages `f` fetched from the pool.
    fn fetches(t: &BTree, f: impl FnOnce(&BTree)) -> u64 {
        let stats = &t.pool.stats;
        let count = || stats.hits.load(Ordering::Relaxed) + stats.misses.load(Ordering::Relaxed);
        let before = count();
        f(t);
        count() - before
    }

    /// The internal nodes reached through the last child at every level.
    fn right_edge(t: &BTree) -> Vec<PageId> {
        let mut edge = Vec::new();
        let mut pid = t.root_page();
        while let Some(last) = t
            .view(pid, |node| match node.leaf {
                true => Ok(None),
                false => node.child(node.len).map(Some),
            })
            .unwrap()
        {
            edge.push(pid);
            pid = last;
        }
        edge
    }

    #[test]
    fn an_ascending_load_skips_the_descent_and_leaves_full_nodes() {
        // Leaves of 61 entries under one root, then keys so wide that the
        // internal nodes fill and split too.
        for (klen, vlen, n) in [(9, 110, 20_000u64), (200, 10, 5_000)] {
            let t = tree();
            let key = |i: u64| [&[1][..], &i.to_be_bytes(), &vec![7; klen - 9]].concat();
            let fetched = fetches(&t, |t| {
                for i in 0..n {
                    assert_eq!(t.insert(&key(i), &vec![i as u8; vlen]).unwrap(), None);
                }
            });
            if klen == 9 {
                // An insert fetches its leaf alone, but at a split.
                let per_insert = fetched as f64 / n as f64;
                assert!(per_insert <= 1.1, "{per_insert} fetches per insert");
            }
            // Every node left behind the load is within one item of full.
            let entry = entry_size(&key(0), vlen);
            let edge = right_edge(&t);
            let (mut leaves, mut internal) = (0, 0);
            for pid in t.pages() {
                t.view(pid, |node| {
                    let (item, behind) = match node.leaf {
                        true => (entry, node.next != NO_PAGE),
                        false => (8 + klen + SLOT_LEN, !edge.contains(&pid)),
                    };
                    match node.leaf {
                        true => leaves += 1,
                        false => internal += 1,
                    }
                    let occupied = node.page.occupied();
                    let full = occupied + item > SPLIT_THRESHOLD;
                    assert!(full || !behind, "page {pid} holds {occupied} bytes");
                    Ok(())
                })
                .unwrap();
            }
            assert_eq!(leaves as u64, n.div_ceil((SPLIT_THRESHOLD / entry) as u64));
            assert!(klen == 9 || internal > edge.len(), "no internal node split");
            let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
            assert!(all.map(|e| e.unwrap().0).eq((0..n).map(key)));
        }
    }

    #[test]
    fn what_the_hint_cannot_prove_takes_the_descent() {
        // The hinted leaf alone; the root and the leaf; both, when the
        // hinted leaf had to be read to be refused.
        const APPEND: u64 = 1;
        const DESCENT: u64 = 2;
        const FALLBACK: u64 = APPEND + DESCENT;
        let t = tree();
        let mut model = BTreeMap::new();
        let value = |i: u32| vec![i as u8; 100];
        // Fill two leaves: the second split leaves a last leaf of one entry.
        let mut next = 0u32;
        while t.page_count().unwrap() < 4 {
            model.insert(k(next), value(next));
            t.insert(&k(next), &value(next)).unwrap();
            next += 1;
        }
        let max = k(next - 1);
        // Insert or replace `key`, or delete it, in the tree and the model.
        let mut put = |t: &BTree, key: Vec<u8>, value: Option<&[u8]>| match value {
            Some(v) => assert_eq!(t.insert(&key, v).unwrap(), model.insert(key, v.to_vec())),
            None => assert_eq!(t.delete(&key).unwrap(), model.remove(&key)),
        };
        // The maximum is that leaf's first key: replacing it descends.
        assert_eq!(fetches(&t, |t| put(t, max.clone(), Some(b"new"))), FALLBACK);
        // Past it, inserts, a lookup and a miss take the hint.
        for key in [k(next), k(next + 1)] {
            assert_eq!(fetches(&t, |t| put(t, key, Some(b"v"))), APPEND);
        }
        let get = |t: &BTree| assert_eq!(t.get(&k(next + 1)).unwrap(), Some(b"v".to_vec()));
        assert_eq!(fetches(&t, get), APPEND);
        let miss = |t: &BTree| assert!(!t.contains_key(&k(next + 2)).unwrap());
        assert_eq!(fetches(&t, miss), APPEND);
        // So does a replace of the maximum once it is not the first key.
        assert_eq!(fetches(&t, |t| put(t, k(next + 1), Some(b"w"))), APPEND);
        // A key below the last leaf's first key descends, and one whose
        // first eight bytes already sort below that key's does not even
        // read the hinted leaf.
        let below = |t: &BTree| assert_eq!(t.get(&k(1)).unwrap(), Some(value(1)));
        assert_eq!(fetches(&t, below), DESCENT);
        assert_eq!(fetches(&t, |t| put(t, k(1), Some(b"x"))), DESCENT);
        // An emptied last leaf proves nothing: the next append descends,
        // and the one after takes the hint again.
        for key in [max, k(next), k(next + 1)] {
            put(&t, key, None);
        }
        assert_eq!(fetches(&t, |t| put(t, k(next + 5), Some(b"y"))), FALLBACK);
        assert_eq!(fetches(&t, |t| put(t, k(next + 6), Some(b"z"))), APPEND);
        // A stale hint, at a leaf that has a right sibling, descends.
        let (first, _) = t.leaf_for(t.root_page(), &[], None).unwrap();
        t.set_hint(first, &[]);
        assert_eq!(fetches(&t, |t| put(t, k(next + 9), Some(b"c"))), FALLBACK);
        // A reopened tree has no hint: its first append descends.
        let t = BTree::open(t.pool.clone(), t.root_page()).unwrap();
        assert_eq!(fetches(&t, |t| put(t, k(next + 10), Some(b"a"))), DESCENT);
        assert_eq!(fetches(&t, |t| put(t, k(next + 11), Some(b"b"))), APPEND);
        assert_eq!(t.len(), model.len() as u64);
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(all.map(Result::unwrap).eq(model));
    }

    #[test]
    fn a_tree_cut_at_half_opens_reads_and_takes_appends() {
        // An ascending load as halving splits leave it: every leaf but the
        // last holds 33 entries, about half of what fits.
        let pool = BufferPool::new(Arc::new(MemPager::new()), 256);
        let entry = |i: u32| (k(i), vec![i as u8; 110]);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = (0..1000).map(entry).collect();
        let loaded: Vec<_> = model.clone().into_iter().collect();
        let leaves: Vec<_> = loaded.chunks(33).collect();
        let ids: Vec<PageId> = leaves
            .iter()
            .map(|_| pool.allocate(PageType::BTreeLeaf).unwrap().0)
            .collect();
        for (n, entries) in leaves.iter().enumerate() {
            let next = ids.get(n + 1).copied().unwrap_or(NO_PAGE);
            write_leaf(&pool.fetch(ids[n]).unwrap(), entries, next);
        }
        let (root, frame) = pool.allocate(PageType::BTreeInternal).unwrap();
        let keys: Vec<Vec<u8>> = leaves[1..].iter().map(|leaf| leaf[0].0.clone()).collect();
        write_internal(&frame, &keys, &ids);
        drop(frame);

        let t = BTree::open(pool.clone(), root).unwrap();
        assert_eq!(t.len(), 1000);
        for (key, value) in [entry(0), entry(32), entry(33), entry(999)] {
            assert_eq!(t.get(&key).unwrap(), Some(value));
        }
        for i in 1000..3000 {
            let (key, value) = entry(i);
            assert_eq!(t.insert(&key, &value).unwrap(), None);
            model.insert(key, value);
        }
        // The old leaves are as they were; the last of them and the new
        // ones fill up.
        let old = leaves.len() - 1;
        for (n, loaded) in leaves.iter().enumerate().take(old) {
            assert_eq!(entries(&t, ids[n]), *loaded);
        }
        let per_leaf = SPLIT_THRESHOLD / entry_size(&k(0), 110);
        let filled = (3000 - 33 * old).div_ceil(per_leaf);
        assert_eq!(t.page_count().unwrap(), (1 + old + filled) as u64);
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(all.map(Result::unwrap).eq(model));
    }

    /// A tree of two internal levels whose full internal nodes hold 475
    /// separators each, over leaves of two entries: the even keys
    /// `0..2 * n` with 3 400-byte values.
    fn wide_tree(n: u32) -> (BTree, BTreeMap<Vec<u8>, Vec<u8>>) {
        let t = tree();
        let mut model = BTreeMap::new();
        for i in 0..n {
            let value = vec![i as u8; 3400];
            t.insert(&k(2 * i), &value).unwrap();
            model.insert(k(2 * i), value);
        }
        (t, model)
    }

    /// Every separator of every internal node of `t`.
    fn all_separators(t: &BTree) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for pid in t.pages() {
            if !t.view(pid, |node| Ok(node.leaf)).unwrap() {
                out.extend(separators(t, pid).0);
            }
        }
        out
    }

    #[test]
    fn lookups_at_every_separator_match_the_model() {
        // Three full-width level-one nodes of at least 300 separators.
        let (t, model) = wide_tree(2 * (2 * 476 + 320));
        assert_eq!(check_tree(&t, &model), 3);
        let (_, level_one) = separators(&t, t.root_page());
        for &pid in &level_one {
            assert!(separators(&t, pid).0.len() >= 300, "node {pid} is narrow");
        }
        // At every separator, one key below and one above it (the keys
        // are even, so both are absent), and the least and greatest keys.
        let seps: Vec<u32> = all_separators(&t)
            .iter()
            .map(|s| u32::from_be_bytes(s[..].try_into().unwrap()))
            .collect();
        let (min, max) = (0, 2 * (model.len() as u32 - 1));
        let mut probes: Vec<u32> = seps.iter().flat_map(|&s| [s - 1, s, s + 1]).collect();
        probes.extend([min, max, max + 1]);
        // Cold, every lookup descends; warm, the hint holds the last leaf
        // and the keys in it skip the descent.
        let hint = |warm: bool| match warm {
            true => assert!(!t.contains_key(&k(u32::MAX)).unwrap()),
            false => t.hint.store(NO_PAGE, Ordering::Relaxed),
        };
        for warm in [false, true] {
            for &p in &probes {
                let key = k(p);
                hint(warm);
                assert_eq!(t.get(&key).unwrap().as_ref(), model.get(&key), "get {p}");
                hint(warm);
                assert_eq!(t.contains_key(&key).unwrap(), model.contains_key(&key));
                for (lo, hi) in [(true, true), (false, true), (true, false)] {
                    let upper = k(p + 4);
                    let got: Vec<Vec<u8>> = t
                        .range(bound(&key, lo), bound(&upper, hi))
                        .unwrap()
                        .map(|e| e.unwrap().0)
                        .collect();
                    let want: Vec<Vec<u8>> = model
                        .range::<[u8], _>((bound(&key, lo), bound(&upper, hi)))
                        .map(|(k, _)| k.clone())
                        .collect();
                    assert_eq!(got, want, "range from {p}");
                }
            }
        }
        let tail: Vec<_> = t
            .range(Bound::Excluded(&k(max - 1)), Bound::Unbounded)
            .unwrap()
            .map(|e| e.unwrap().0)
            .collect();
        assert_eq!(tail, [k(max)]);
    }

    #[test]
    fn a_lookup_halves_every_node_on_its_path() {
        let (t, model) = wide_tree(2 * (2 * 476 + 320));
        let bound = |slots: usize| slots.max(1).next_power_of_two().trailing_zeros() as u64 + 1;
        let compares = |f: &mut dyn FnMut()| {
            COMPARES.with(|n| n.set(0));
            f();
            COMPARES.with(Cell::get)
        };
        for (i, key) in model.keys().enumerate().step_by(97) {
            // Level by level, with no hint.
            let mut pid = t.root_page();
            let mut budget = 0;
            loop {
                let (slots, child) = t
                    .view(pid, |node| {
                        let mut child = None;
                        let n = compares(&mut || child = Some(node.child_for(key)));
                        assert!(n <= bound(node.len), "{n} compares in {} slots", node.len);
                        Ok((node.len, child.unwrap()))
                    })
                    .unwrap();
                budget += bound(slots);
                match child {
                    Ok((next, _)) => pid = next,
                    Err(_) => break,
                }
            }
            t.hint.store(NO_PAGE, Ordering::Relaxed);
            let n = compares(&mut || assert!(t.get(key).unwrap().is_some(), "key {i}"));
            assert!(n <= budget, "get made {n} compares, more than {budget}");
        }
    }

    /// A two-level tree, its root, first leaf and last leaf: the nodes to
    /// damage. The load fills the first leaf; seven keys in eight are
    /// deleted again, and every page is compacted, so that the nodes to
    /// damage are short.
    fn two_level_tree() -> (BTree, [PageId; 3]) {
        let t = tree();
        for i in 0..600u32 {
            t.insert(&k(i), format!("value-{i}").as_bytes()).unwrap();
        }
        for i in (0..600u32).filter(|i| i % 8 != 0) {
            t.delete(&k(i)).unwrap();
        }
        for pid in t.pages() {
            let frame = t.pool.fetch(pid).unwrap();
            let mut page = frame.page.write();
            let records: Vec<Vec<u8>> = page.iter().map(|(_, r)| r.to_vec()).collect();
            assert!(page.rebuild(&[], &records));
        }
        let root = t.root_page();
        let (first, _) = t.leaf_for(root, &[], None).unwrap();
        let (last, _) = t.leaf_for(root, &k(u32::MAX), None).unwrap();
        assert!(root != first && first != last);
        (t, [root, first, last])
    }

    /// The header fields of a node page that a damaged byte can reach:
    /// the slot count, where the record area ends, and for an internal
    /// node the leftmost child. (A leaf's sibling link is not: damaged, it
    /// can chain a leaf to itself, which no reader of a chain detects.)
    const SLOT_COUNT: std::ops::Range<usize> = 6..8;
    const FREE_START: std::ops::Range<usize> = 8..10;
    const NEXT: std::ops::Range<usize> = 12..20;

    /// A tree to damage one node of, again and again: every trial starts
    /// from the same page images.
    struct Victim {
        pool: Arc<BufferPool>,
        root: PageId,
        intact: Vec<Page>,
    }

    impl Victim {
        /// The offsets of page `pid` a damaged byte is tried at: header
        /// fields, record area and slot array.
        fn bytes(&self, pid: PageId) -> Vec<usize> {
            let page = &self.intact[pid as usize];
            let end = u16::from_le_bytes(page.bytes()[FREE_START].try_into().unwrap());
            let slots = PAGE_SIZE - page.slot_count() * SLOT_LEN;
            let mut at: Vec<usize> = SLOT_COUNT.chain(FREE_START).collect();
            if pid == self.root {
                at.extend(NEXT);
            }
            at.extend((32..end as usize).chain(slots..PAGE_SIZE));
            at
        }

        fn reset(&self) -> BTree {
            for (pid, page) in self.intact.iter().enumerate() {
                *self.pool.fetch(pid as PageId).unwrap().page.write() = page.clone();
            }
            BTree::open(self.pool.clone(), self.root).unwrap()
        }

        /// Run every read and write path over the tree with page `pid`
        /// replaced by `damaged` — after a lookup past the last key has
        /// hinted the last leaf, if `warm` — and give back what the full
        /// scan and the lookup of `probe` made of it. Every path may fail
        /// but must return.
        fn exercise(
            &self,
            pid: PageId,
            damaged: &Page,
            probe: &[u8],
            warm: bool,
        ) -> (Result<usize>, Result<Option<Vec<u8>>>) {
            let t = self.reset();
            if warm {
                assert!(!t.contains_key(&k(u32::MAX)).unwrap());
            }
            *self.pool.fetch(pid).unwrap().page.write() = damaged.clone();
            let scanned = t
                .range(Bound::Unbounded, Bound::Unbounded)
                .and_then(|entries| entries.map(|e| e.map(drop)).collect::<Result<Vec<()>>>())
                .map(|entries| entries.len());
            let got = t.get(probe);
            let _ = t.contains_key(&k(0));
            let _ = t.contains_key(&k(u32::MAX));
            let _ = t.range(Bound::Excluded(probe), Bound::Included(&k(u32::MAX)));
            let _ = BTree::open(self.pool.clone(), self.root);
            let _ = t.page_count();
            let _ = t.pages();
            let _ = t.delete(probe);
            let _ = t.insert(probe, b"x");
            // Two of these overflow each leaf: the split paths, the last
            // two through the hint.
            for key in [0, 1, u32::MAX - 1, u32::MAX] {
                let _ = t.insert(&k(key), &[7; 3400]);
            }
            (scanned, got)
        }
    }

    #[test]
    fn damaged_nodes_fail_cleanly() {
        let (t, [root, first, last]) = two_level_tree();
        let victim = Victim {
            intact: (0..t.pool.store().num_pages())
                .map(|pid| t.pool.fetch(pid).unwrap().page.read().clone())
                .collect(),
            pool: t.pool.clone(),
            root,
        };
        let last_key = |pid| entries(&t, pid).last().unwrap().0.clone();
        // The root is probed below it, away from the hinted leaf; each
        // leaf at its own last key. A warm hint changes no outcome: a
        // damaged hinted leaf fails as it does at the end of a descent,
        // and a damaged node elsewhere is still found by the descent.
        let in_first = last_key(first);
        for (pid, probe) in [
            (root, &in_first),
            (first, &in_first),
            (last, &last_key(last)),
        ] {
            let exercise = |damaged: &Page| {
                let cold = victim.exercise(pid, damaged, probe, false);
                assert_eq!(victim.exercise(pid, damaged, probe, true), cold);
                cold
            };
            let intact = &victim.intact[pid as usize];
            let end = u16::from_le_bytes(intact.bytes()[FREE_START].try_into().unwrap());
            // Every truncation of the record area: the last record, the
            // probe's (or for the root, the separator it passes), no
            // longer fits it, and the scan and the lookup both say so.
            for cut in 32..end {
                let mut damaged = intact.clone();
                damaged.bytes_mut()[FREE_START].copy_from_slice(&cut.to_le_bytes());
                let (scanned, got) = exercise(&damaged);
                assert!(scanned.is_err(), "scan over page {pid} cut at {cut}");
                assert!(got.is_err(), "get through page {pid} cut at {cut}");
            }
            // Every single-byte flip, three ways, so that lengths, counts
            // and offsets lose, gain and change high bits.
            for at in victim.bytes(pid) {
                for mask in [0x01, 0x80, 0xff] {
                    let mut damaged = intact.clone();
                    damaged.bytes_mut()[at] ^= mask;
                    let (scanned, _) = exercise(&damaged);
                    // A slot count raised past the slot array reads slots
                    // that are not there, and never goes unnoticed.
                    assert!(
                        damaged.slot_count() <= intact.slot_count() || scanned.is_err(),
                        "slot count ^ {mask:#x} on page {pid}"
                    );
                }
            }
        }
        let t = victim.reset();
        assert_eq!(t.len(), 75);
        assert_eq!(
            t.range(Bound::Unbounded, Bound::Unbounded).unwrap().count(),
            75
        );
    }

    #[test]
    fn a_cycle_of_child_ids_is_an_error_not_a_loop() {
        // Once reopened, with no hint, and once after a lookup past the
        // last key has hinted the last leaf: a key below that leaf's still
        // descends into the cycle.
        for warm in [false, true] {
            let (t, [root, ..]) = two_level_tree();
            let t = BTree::open(t.pool.clone(), root).unwrap();
            if warm {
                assert!(!t.contains_key(&k(u32::MAX)).unwrap());
            }
            let (keys, mut children) = separators(&t, root);
            children.fill(root);
            write_internal(&t.pool.fetch(root).unwrap(), &keys, &children);
            assert!(t.get(&k(1)).is_err());
            assert!(t.insert(&k(1), b"v").is_err());
            assert!(t.delete(&k(1)).is_err());
            assert!(t.range(Bound::Unbounded, Bound::Unbounded).is_err());
            assert!(BTree::open(t.pool.clone(), root).is_err());
        }
    }
}
