//! B+-tree clustered indexes.
//!
//! The paper's §5.3.3 relies on "appropriate clustered indexes" so the
//! query processor can merge-join alignments with reads "in order of their
//! starting position". This module provides the ordered storage for that:
//! a disk-resident B+-tree over [`crate::keycode`]-encoded keys, with a
//! right-sibling chain on the leaves for ordered range scans.
//!
//! **The node format is frozen.** A node is the one record in slot 0 of a
//! `BTreeLeaf`/`BTreeInternal` page: a varint count, then for a leaf
//! `count` × (varint length + key, varint length + value) in key order,
//! its right sibling in the page header's `next_page`; for an internal
//! node `count` × (varint length + key), then `count + 1` little-endian
//! `u64` child ids. A node whose record outgrows `SPLIT_THRESHOLD`
//! splits. Where it is cut is the tree's choice, not the format's: an
//! *append* — a new entry past the last one of a leaf with no right
//! sibling, or a separator past the last key of an internal node reached
//! through the last child at every level — is cut just before the new
//! item, so the left node keeps every entry it had and the right one
//! starts with the new item. Any other split cuts at entry `len / 2`, or,
//! when either cut would leave a half too large for a page (few long
//! entries next to many short ones), at the entry that leaves the larger
//! half smallest. A load in key order therefore leaves full nodes behind
//! it, and trees cut either way read the same.
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
//! paths edit the leaf and split it through the same code.
//!
//! Nodes are read and edited in place. A `NodeView` borrows the record
//! from the frame's page and lives no longer than the page guard it was
//! taken under; lookups and descents walk its entries without allocating.
//! A leaf insert, replace or delete splices the entry into the record
//! through the tree's one edit buffer and writes the page once; only a
//! split materialises an owned `Node`. Concurrency is a coarse tree
//! latch, shared for reads and exclusive for writes — adequate for
//! seqdb's bulk-load-then-query workloads and simple to reason about.

use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use seqdb_types::{DbError, Result};

use crate::buffer::{BufferPool, Frame};
use crate::page::{Page, PageId, PageType, NO_PAGE, PAGE_SIZE};
use crate::varint;

/// Node records above this size trigger a split. Leaves room for the page
/// header and slot entry.
const SPLIT_THRESHOLD: usize = 7600;
/// A single key+value entry may not exceed this (it must fit a node).
pub const MAX_ENTRY: usize = 3500;
/// The largest record a node page holds: a page less its header and the
/// one slot entry.
const NODE_CAPACITY: usize = PAGE_SIZE - 36;
/// No tree over 2^64 pages is this tall: a longer descent is a cycle of
/// damaged child ids, reported instead of followed forever.
const MAX_HEIGHT: usize = 32;

/// A disk-resident B+-tree mapping byte keys to byte values.
pub struct BTree {
    pool: Arc<BufferPool>,
    latch: RwLock<Latched>,
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

/// What the tree latch guards.
struct Latched {
    root: PageId,
    /// The record a leaf edit is assembled in before it replaces the old one.
    edit: Vec<u8>,
}

/// What a node that split hands its parent: the separator key and the
/// new right page.
type Split = Option<(Vec<u8>, PageId)>;

fn corrupt() -> DbError {
    DbError::Storage("corrupt b+tree node".into())
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

/// Append `bytes` behind their varint length.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// How many bytes [`put_bytes`] appends for `bytes`.
fn put_len(bytes: &[u8]) -> usize {
    varint::len_u64(bytes.len() as u64) + bytes.len()
}

/// The varint-length-prefixed byte string at `rec[*pos..]`.
fn read_bytes<'a>(rec: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = varint::read_u64(rec, pos).ok_or_else(corrupt)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .ok_or_else(corrupt)?;
    let bytes = rec.get(*pos..end).ok_or_else(corrupt)?;
    *pos = end;
    Ok(bytes)
}

/// A node read in place: a borrowed view of a node record, normally the
/// one in slot 0 of a page, in which case it must not outlive the page
/// guard. Every walk is bounds-checked as far as it goes; a record that
/// does not parse yields the "corrupt b+tree node" error.
#[derive(Clone, Copy)]
struct NodeView<'a> {
    rec: &'a [u8],
    leaf: bool,
    /// Entries of a leaf, separator keys of an internal node.
    count: usize,
    /// Offset of the first entry, just past the count.
    first: usize,
    /// Right sibling of a leaf.
    next: PageId,
}

/// Where a key is, or would go, in a leaf record: the offset of the first
/// entry with a key `>=` it (the end of the entries if none), how many
/// entries precede that one, and on equality its value and end offset.
struct Slot<'a> {
    at: usize,
    index: usize,
    hit: Option<(&'a [u8], usize)>,
}

impl<'a> NodeView<'a> {
    fn new(page: &'a Page) -> Result<NodeView<'a>> {
        let leaf = match page.page_type() {
            PageType::BTreeLeaf => true,
            PageType::BTreeInternal => false,
            other => {
                return Err(DbError::Storage(format!(
                    "page type {other:?} is not a b+tree node"
                )))
            }
        };
        NodeView::of(page.get(0).ok_or_else(corrupt)?, leaf, page.next_page())
    }

    fn of(rec: &'a [u8], leaf: bool, next: PageId) -> Result<NodeView<'a>> {
        let mut first = 0;
        let count = varint::read_u64(rec, &mut first).ok_or_else(corrupt)?;
        // Every entry takes at least a byte, so a larger count is damage.
        let count = usize::try_from(count)
            .ok()
            .filter(|&n| n <= rec.len())
            .ok_or_else(corrupt)?;
        Ok(NodeView {
            rec,
            leaf,
            count,
            first,
            next,
        })
    }

    /// The child ids of an internal node. They close the record, so they
    /// are found without walking the keys before them.
    fn children(&self) -> Result<impl Iterator<Item = PageId> + 'a> {
        let ids = self
            .rec
            .len()
            .checked_sub((self.count + 1) * 8)
            .filter(|&start| !self.leaf && start >= self.first)
            .map(|start| &self.rec[start..])
            .ok_or_else(corrupt)?;
        Ok(ids
            .chunks_exact(8)
            .map(|raw| PageId::from_le_bytes(raw.try_into().expect("8-byte chunk"))))
    }

    /// The child to descend into for `key`, and whether it is the last:
    /// subtree `i` holds the keys below separator `i` and not below
    /// separator `i - 1`. Walks every key, the ones past the answer
    /// without comparing, so that a record whose keys do not end where its
    /// child ids begin is never followed.
    fn child_for(&self, key: &[u8]) -> Result<(PageId, bool)> {
        let (mut pos, mut idx) = (self.first, self.count);
        for i in 0..self.count {
            let separator = read_bytes(self.rec, &mut pos)?;
            if idx == self.count && separator > key {
                idx = i;
            }
        }
        let mut children = self.children()?;
        if pos + (self.count + 1) * 8 != self.rec.len() {
            return Err(corrupt());
        }
        let child = children.nth(idx).ok_or_else(corrupt)?;
        Ok((child, idx == self.count))
    }

    /// The first key of a leaf; an error for an empty one.
    fn first_key(&self) -> Result<&'a [u8]> {
        let mut pos = self.first;
        read_bytes(self.rec, &mut pos)
    }

    /// Find `key` in a leaf.
    fn seek(&self, key: &[u8]) -> Result<Slot<'a>> {
        let mut pos = self.first;
        for index in 0..self.count {
            let at = pos;
            let k = read_bytes(self.rec, &mut pos)?;
            let v = read_bytes(self.rec, &mut pos)?;
            if k >= key {
                let hit = (k == key).then_some((v, pos));
                return Ok(Slot { at, index, hit });
            }
        }
        if pos != self.rec.len() {
            return Err(corrupt());
        }
        Ok(Slot {
            at: pos,
            index: self.count,
            hit: None,
        })
    }
}

/// An owned node: what a split works on, and the format's reference
/// (de)serialiser for the tests.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        next: PageId,
    },
    Internal {
        /// `keys.len() + 1 == children.len()`; subtree `children[i]` holds
        /// keys `< keys[i]`, subtree `children[i+1]` holds keys `>= keys[i]`.
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Node::Leaf { entries, .. } => {
                varint::write_u64(&mut out, entries.len() as u64);
                for (k, v) in entries {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Node::Internal { keys, children } => {
                varint::write_u64(&mut out, keys.len() as u64);
                for k in keys {
                    put_bytes(&mut out, k);
                }
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    fn deserialize(view: NodeView<'_>) -> Result<Node> {
        let mut pos = view.first;
        if view.leaf {
            let mut entries = Vec::with_capacity(view.count);
            for _ in 0..view.count {
                let k = read_bytes(view.rec, &mut pos)?.to_vec();
                entries.push((k, read_bytes(view.rec, &mut pos)?.to_vec()));
            }
            if pos != view.rec.len() {
                return Err(corrupt());
            }
            Ok(Node::Leaf {
                entries,
                next: view.next,
            })
        } else {
            let mut keys = Vec::with_capacity(view.count);
            for _ in 0..view.count {
                keys.push(read_bytes(view.rec, &mut pos)?.to_vec());
            }
            let children: Vec<PageId> = view.children()?.collect();
            if pos + children.len() * 8 != view.rec.len() {
                return Err(corrupt());
            }
            Ok(Node::Internal { keys, children })
        }
    }
}

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let (root, frame) = pool.allocate(PageType::BTreeLeaf)?;
        // An empty leaf is its entry count alone.
        write_record(&frame, PageType::BTreeLeaf, NO_PAGE, &[0])?;
        Ok(BTree::at(pool, root))
    }

    fn at(pool: Arc<BufferPool>, root: PageId) -> BTree {
        BTree {
            pool,
            latch: RwLock::new(Latched {
                root,
                edit: Vec::new(),
            }),
            len: AtomicU64::new(0),
            hint: AtomicU64::new(NO_PAGE),
            floor: AtomicU64::new(0),
        }
    }

    /// Re-open a tree given its root page. Counts the entries from the
    /// leaves' own counts, walking the leaf chain without reading entries.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Result<BTree> {
        let tree = BTree::at(pool, root);
        let mut leaves = tree.range(Bound::Unbounded, Bound::Unbounded)?;
        let mut len = leaves.left as u64;
        while leaves.next != NO_PAGE {
            leaves.load(leaves.next)?;
            len += leaves.left as u64;
        }
        drop(leaves);
        tree.len.store(len, Ordering::Relaxed);
        Ok(tree)
    }

    pub fn root_page(&self) -> PageId {
        self.latch.read().root
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
        let latch = self.latch.read();
        let (mut out, mut readable) = (Vec::new(), Ok(()));
        let mut stack = vec![latch.root];
        while let Some(pid) = stack.pop() {
            out.push(pid);
            let children = self.view(pid, |node| match node.leaf {
                true => Ok(Vec::new()),
                false => Ok(node.children()?.collect()),
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
        let mut latch = self.latch.write();
        let Latched { root, edit } = &mut *latch;
        // An append that fits the hinted leaf is done. One that overflows
        // it leaves the page untouched and descends like any other insert,
        // for the path its split needs.
        let appended = self
            .hinted(key)?
            .map(|leaf| edit_leaf(&leaf, edit, key, Some(value)))
            .transpose()?;
        let old = match appended {
            Some((old, true)) => old,
            _ => self.insert_from(root, edit, key, value)?,
        };
        if old.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Insert by descending from `root`, splitting what overflows and
    /// growing a new root if the old one splits.
    fn insert_from(
        &self,
        root: &mut PageId,
        edit: &mut Vec<u8>,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        // The internal nodes descended through, root first.
        let mut path = Vec::new();
        let (_, leaf) = self.leaf_for(*root, key, Some(&mut path))?;
        let (old, fits) = edit_leaf(&leaf, edit, key, Some(value))?;
        // An overfull leaf splits, and so may every ancestor in turn.
        let mut split = match fits {
            true => None,
            false => Some(self.split_leaf(&leaf, edit, key, old.is_none())?),
        };
        while let Some((sep, right)) = split {
            let Some((parent, edge)) = path.pop() else {
                // Grow a new root.
                let (new_root, frame) = self.pool.allocate(PageType::BTreeInternal)?;
                let node = Node::Internal {
                    keys: vec![sep],
                    children: vec![*root, right],
                };
                write_node(&frame, &node)?;
                *root = new_root;
                break;
            };
            split = self.add_child(parent, edge, sep, right)?;
        }
        Ok(old)
    }

    /// Split `leaf`, whose overfull record `edit_leaf` left in `record`
    /// after putting `key` in it (`fresh` if it was not there before):
    /// the entries past the cut move to a new right sibling, which becomes
    /// the hint if it is the last leaf. Returns the separator key and the
    /// new page.
    fn split_leaf(
        &self,
        leaf: &Frame,
        record: &[u8],
        key: &[u8],
        fresh: bool,
    ) -> Result<(Vec<u8>, PageId)> {
        let next = leaf.page.read().next_page();
        let Node::Leaf { mut entries, .. } = Node::deserialize(NodeView::of(record, true, next)?)?
        else {
            unreachable!("a leaf view materialises a leaf")
        };
        let sizes: Vec<usize> = entries
            .iter()
            .map(|(k, v)| put_len(k) + put_len(v))
            .collect();
        let append = fresh && next == NO_PAGE && entries.last().is_some_and(|(k, _)| k == key);
        // Nothing is allocated before the cut is known to fit.
        let right = entries.split_off(split_point(&sizes, false, append)?);
        let sep = right[0].0.clone();
        let (right_id, right_frame) = self.pool.allocate(PageType::BTreeLeaf)?;
        let entries_of = |entries, next| Node::Leaf { entries, next };
        write_node(&right_frame, &entries_of(right, next))?;
        write_node(leaf, &entries_of(entries, right_id))?;
        if next == NO_PAGE {
            self.set_hint(right_id, &sep);
        }
        Ok((sep, right_id))
    }

    /// Give internal node `pid` the separator and right page of a child
    /// that split; if that overfills it, split it too and return its own
    /// promoted key and new right page. `edge` says whether `pid` lies on
    /// the right edge of the tree.
    fn add_child(&self, pid: PageId, edge: bool, sep: Vec<u8>, right: PageId) -> Result<Split> {
        let frame = self.pool.fetch(pid)?;
        let mut node = Node::deserialize(NodeView::new(&frame.page.read())?)?;
        let Node::Internal { keys, children } = &mut node else {
            return Err(corrupt());
        };
        let idx = keys.partition_point(|k| k.as_slice() <= sep.as_slice());
        let append = edge && idx == keys.len();
        keys.insert(idx, sep);
        children.insert(idx + 1, right);
        let record = node.serialize();
        if record.len() <= SPLIT_THRESHOLD {
            write_record(&frame, PageType::BTreeInternal, NO_PAGE, &record)?;
            return Ok(None);
        }
        let Node::Internal { keys, children } = &mut node else {
            unreachable!("checked above")
        };
        let sizes: Vec<usize> = keys.iter().map(|k| put_len(k) + 8).collect();
        let mid = split_point(&sizes, true, append)?;
        let right_node = Node::Internal {
            keys: keys.split_off(mid + 1),
            children: children.split_off(mid + 1),
        };
        let promoted = keys.pop().expect("the key at `mid`");
        let (right_id, right_frame) = self.pool.allocate(PageType::BTreeInternal)?;
        write_node(&right_frame, &right_node)?;
        write_node(&frame, &node)?;
        Ok(Some((promoted, right_id)))
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
        let latch = self.latch.read();
        let leaf = match self.hinted(key)? {
            Some(leaf) => leaf,
            None => self.leaf_for(latch.root, key, None)?.1,
        };
        let page = leaf.page.read();
        let slot = NodeView::new(&page)?.seek(key)?;
        Ok(found(slot.hit.map(|(value, _)| value)))
    }

    /// The hinted leaf, if `key` provably belongs in it: the page is still
    /// a leaf with no right sibling, so the last leaf of the tree, and its
    /// first key sorts before `key`, so no separator above it is larger
    /// than `key`. `None` — descend — for no hint, a stale one, an emptied
    /// leaf or a smaller key, which the floor often shows without the
    /// fetch. A hinted page that does not parse is an error, as it would
    /// be at the end of a descent.
    fn hinted(&self, key: &[u8]) -> Result<Option<Arc<Frame>>> {
        let pid = self.hint.load(Ordering::Relaxed);
        if pid == NO_PAGE || prefix(key) < self.floor.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let frame = self.pool.fetch(pid)?;
        let belongs = {
            let page = frame.page.read();
            let node = NodeView::new(&page)?;
            node.leaf && node.next == NO_PAGE && node.count > 0 && key > node.first_key()?
        };
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
        let mut latch = self.latch.write();
        let (_, leaf) = self.leaf_for(latch.root, key, None)?;
        let (old, _written) = edit_leaf(&leaf, &mut latch.edit, key, None)?;
        if old.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(old)
    }

    /// Ordered scan over `[start, end)` bounds (inclusive/exclusive per
    /// `Bound`). Copies one leaf record at a time.
    pub fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<BTreeRange<'_>> {
        let latch = self.latch.read();
        let seek_key: &[u8] = match start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let (pid, _) = self.leaf_for(latch.root, seek_key, None)?;
        let mut range = BTreeRange {
            tree: self,
            leaf: Vec::new(),
            pos: 0,
            left: 0,
            next: NO_PAGE,
            end: match end {
                Bound::Unbounded => None,
                Bound::Included(k) => Some((k.to_vec(), true)),
                Bound::Excluded(k) => Some((k.to_vec(), false)),
            },
        };
        range.load(pid)?;
        // Skip what precedes the start bound in the first leaf.
        let slot = NodeView::of(&range.leaf, true, range.next)?.seek(seek_key)?;
        let (pos, skipped) = match slot.hit {
            Some((_, end)) if matches!(start, Bound::Excluded(_)) => (end, slot.index + 1),
            _ => (slot.at, slot.index),
        };
        (range.pos, range.left) = (pos, range.left - skipped);
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
                    self.set_hint(pid, node.first_key().unwrap_or_default());
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
/// on `frame`: the new record is spliced together in `edit` and replaces
/// the old one — one page write — unless an insert or replace left it
/// over [`SPLIT_THRESHOLD`]. Returns the key's previous value and whether
/// the record was written; when not, the page is untouched and `edit`
/// holds the record to split. A delete only shrinks the record, so it is
/// always written.
fn edit_leaf(
    frame: &Frame,
    edit: &mut Vec<u8>,
    key: &[u8],
    value: Option<&[u8]>,
) -> Result<(Option<Vec<u8>>, bool)> {
    let mut page = frame.page.write();
    let node = NodeView::new(&page)?;
    let slot = node.seek(key)?;
    let (old, end) = match slot.hit {
        Some((old, end)) => (Some(old.to_vec()), end),
        None if value.is_none() => return Ok((None, true)),
        None => (None, slot.at),
    };
    let count = node.count + usize::from(value.is_some()) - usize::from(old.is_some());
    edit.clear();
    varint::write_u64(edit, count as u64);
    edit.extend_from_slice(&node.rec[node.first..slot.at]);
    if let Some(value) = value {
        put_bytes(edit, key);
        put_bytes(edit, value);
    }
    edit.extend_from_slice(&node.rec[end..]);
    if value.is_some() && edit.len() > SPLIT_THRESHOLD {
        return Ok((old, false));
    }
    if !page.replace_sole_record(edit) {
        return Err(corrupt());
    }
    frame.mark_dirty();
    Ok((old, true))
}

/// Where an overfull node is cut. `sizes` are the serialised sizes of its
/// items: a leaf's entries, or an `internal` node's keys, each with one
/// child id. In an internal node the key at the cut is promoted, so it
/// goes to neither half, and each half has one more child id than keys.
///
/// An `append` put the last item there: the cut is just before it, so
/// the left half is the node as it was and the right half starts with
/// the new item (in an internal node, whose new key is promoted, the
/// right half is that key's child alone). Any other cut is `len / 2`.
/// Either is taken whenever both halves then fit a page. Halving by count
/// can fail that when a few long items sit among many short ones; the
/// cut is then the one that leaves the larger half smallest, which fits
/// for any node of entries up to [`MAX_ENTRY`] that overflowed by one
/// insert.
fn split_point(sizes: &[usize], internal: bool, append: bool) -> Result<usize> {
    let (promoted, fixed) = if internal { (1, 8) } else { (0, 0) };
    let total: usize = sizes.iter().sum();
    // The record of the larger half when `left` bytes of items stay.
    let larger = |cut: usize, left: usize| {
        let right = total - left - sizes[cut..cut + promoted].iter().sum::<usize>();
        let record = |items: usize, bytes| varint::len_u64(items as u64) + bytes + fixed;
        record(cut, left).max(record(sizes.len() - cut - promoted, right))
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
        .ok_or_else(|| DbError::Storage("b+tree node payload exceeds page".into()))
}

fn write_node(frame: &Frame, node: &Node) -> Result<()> {
    let (ptype, next) = match node {
        Node::Leaf { next, .. } => (PageType::BTreeLeaf, *next),
        Node::Internal { .. } => (PageType::BTreeInternal, NO_PAGE),
    };
    write_record(frame, ptype, next, &node.serialize())
}

/// Format `frame`'s page afresh as a node: `record` alone, in slot 0.
fn write_record(frame: &Frame, ptype: PageType, next: PageId, record: &[u8]) -> Result<()> {
    let mut fresh = Page::new(ptype);
    fresh.set_next_page(next);
    fresh
        .insert(record)
        .ok_or_else(|| DbError::Storage("b+tree node payload exceeds page".into()))?;
    *frame.page.write() = fresh;
    frame.mark_dirty();
    Ok(())
}

/// Ordered iterator over a key range. Holds a copy of one leaf record at
/// a time; [`BTreeRange::next_entry`] lends entries out of it.
pub struct BTreeRange<'a> {
    tree: &'a BTree,
    leaf: Vec<u8>,
    /// Offset of the next entry in `leaf` and how many entries are left.
    pos: usize,
    left: usize,
    next: PageId,
    end: Option<(Vec<u8>, bool)>,
}

impl BTreeRange<'_> {
    /// Make leaf `pid` the current one.
    fn load(&mut self, pid: PageId) -> Result<()> {
        self.tree.view(pid, |node| {
            // A sibling link must lead to a leaf.
            if !node.leaf {
                return Err(corrupt());
            }
            self.leaf.clear();
            self.leaf.extend_from_slice(node.rec);
            (self.pos, self.left, self.next) = (node.first, node.count, node.next);
            Ok(())
        })
    }

    /// The next `(key, value)`, borrowed from the iterator's leaf copy.
    /// After an error the iterator is exhausted.
    pub fn next_entry(&mut self) -> Option<Result<(&[u8], &[u8])>> {
        let step = self.advance();
        if step.is_err() {
            (self.pos, self.left, self.next) = (self.leaf.len(), 0, NO_PAGE);
        }
        let entry = step.transpose()?;
        Some(entry.map(|(k, v)| (&self.leaf[k], &self.leaf[v])))
    }

    /// Step over the next entry: where its key and value lie in `leaf`.
    fn advance(&mut self) -> Result<Option<(Range<usize>, Range<usize>)>> {
        while self.left == 0 {
            if self.pos != self.leaf.len() {
                return Err(corrupt());
            } else if self.next == NO_PAGE {
                return Ok(None);
            }
            self.load(self.next)?;
        }
        let mut pos = self.pos;
        let key = read_bytes(&self.leaf, &mut pos)?;
        let k = pos - key.len()..pos;
        let value_len = read_bytes(&self.leaf, &mut pos)?.len();
        if let Some((end, inclusive)) = &self.end {
            if key > end.as_slice() || (key == end.as_slice() && !inclusive) {
                return Ok(None);
            }
        }
        (self.pos, self.left) = (pos, self.left - 1);
        Ok(Some((k, pos - value_len..pos)))
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

    fn tree() -> BTree {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 256);
        BTree::create(pool).unwrap()
    }

    fn k(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
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
        // SPLIT_THRESHOLD yet fits its page; a delete from it is written.
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
        assert!(leaf.page.read().get(0).unwrap().len() > SPLIT_THRESHOLD);
        drop(leaf);
        assert_eq!(t.delete(&[0, 50]).unwrap(), Some(b"v".to_vec()));
        assert_eq!(t.get(&[0, 50]).unwrap(), None);
        assert_eq!(t.delete(&[0, 50]).unwrap(), None);
        assert_eq!(t.len(), 62);
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.count(), 62);
        // So is a replace that brings the record back under the threshold.
        assert!(t.insert(&[1, 2], b"small").unwrap().is_some());
        assert_eq!(t.get(&[1, 2]).unwrap(), Some(b"small".to_vec()));
        assert_eq!(t.len(), 62);
        // The same delete, page for page against the old write path.
        let mut ops: Vec<Op> = (0..60).map(|i| Op::Insert(vec![0, i], 1)).collect();
        ops.extend([(0, 3450), (2, 600), (1, 3450)].map(|(i, len)| Op::Insert(vec![1, i], len)));
        ops.extend([Op::Delete(50), Op::Replace(61, 5)]);
        run_model(&ops).unwrap();
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
        let mut page = Page::new(PageType::BTreeLeaf);
        assert_eq!(page.free_space(), NODE_CAPACITY);
        assert!(page.insert(&vec![1; NODE_CAPACITY]).is_some());
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree();
        let big = vec![0u8; 8000];
        assert!(t.insert(b"k", &big).is_err());
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

    // -- model, format-oracle and corruption tests ----------------------

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The write path of the commit before nodes were edited in place,
    /// kept as the format oracle: every visited node is deserialised into
    /// an owned [`Node`], changed, and written back whole by `write_node`.
    /// It cuts a node where that commit did — at `len / 2` — except in two
    /// cases. An append (a new last entry of a leaf with no right sibling,
    /// or a new last key of an internal node reached through last children
    /// only) is cut before the new item, the rule the tree adopted with its
    /// append path, written here from the rule rather than from the tree's
    /// code. And where that commit refused the insert — a half too large
    /// for a page — it cuts where serialising both halves of every
    /// candidate finds the larger one smallest.
    struct Oracle {
        pool: Arc<BufferPool>,
        root: PageId,
    }

    impl Oracle {
        fn create(pool: Arc<BufferPool>) -> Oracle {
            let (root, frame) = pool.allocate(PageType::BTreeLeaf).unwrap();
            let empty = Node::Leaf {
                entries: Vec::new(),
                next: NO_PAGE,
            };
            write_node(&frame, &empty).unwrap();
            Oracle { pool, root }
        }

        fn read(&self, pid: PageId) -> Node {
            let frame = self.pool.fetch(pid).unwrap();
            let page = frame.page.read();
            Node::deserialize(NodeView::new(&page).unwrap()).unwrap()
        }

        fn write(&self, pid: PageId, node: &Node) -> Result<()> {
            let frame = self.pool.fetch(pid)?;
            write_node(&frame, node)
        }

        fn allocate(&self, node: &Node) -> Result<PageId> {
            // `write_node` formats the page by the node's kind.
            let (pid, frame) = self.pool.allocate(PageType::BTreeLeaf)?;
            write_node(&frame, node)?;
            Ok(pid)
        }

        /// `first` if `halves` of that cut both fit a page, else the cut
        /// of `cuts` whose larger half is smallest.
        fn cut(first: usize, cuts: Range<usize>, halves: impl Fn(usize) -> [Node; 2]) -> usize {
            let larger = |cut| {
                halves(cut)
                    .map(|half| half.serialize().len())
                    .into_iter()
                    .max()
            };
            let capacity = Page::new(PageType::BTreeLeaf).free_space();
            match larger(first) <= Some(capacity) {
                true => first,
                false => cuts.min_by_key(|&cut| larger(cut)).unwrap(),
            }
        }

        fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
            if let Some((sep, right)) = self.insert_rec(self.root, key, value, true)? {
                self.root = self.allocate(&Node::Internal {
                    keys: vec![sep],
                    children: vec![self.root, right],
                })?;
            }
            Ok(())
        }

        /// Insert under node `pid`, on the right edge if `edge`.
        fn insert_rec(
            &self,
            pid: PageId,
            key: &[u8],
            value: &[u8],
            edge: bool,
        ) -> Result<Option<(Vec<u8>, PageId)>> {
            Ok(match self.read(pid) {
                Node::Leaf { mut entries, next } => {
                    let mut append = false;
                    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                        Ok(i) => entries[i].1 = value.to_vec(),
                        Err(i) => {
                            append = next == NO_PAGE && i == entries.len();
                            entries.insert(i, (key.to_vec(), value.to_vec()));
                        }
                    }
                    let node = Node::Leaf { entries, next };
                    if node.serialize().len() <= SPLIT_THRESHOLD {
                        self.write(pid, &node)?;
                        return Ok(None);
                    }
                    let Node::Leaf { mut entries, next } = node else {
                        unreachable!()
                    };
                    let first = match append {
                        true => entries.len() - 1,
                        false => entries.len() / 2,
                    };
                    let cut = Oracle::cut(first, 1..entries.len(), |cut| {
                        let (left, right) = entries.split_at(cut);
                        [left, right].map(|half| Node::Leaf {
                            entries: half.to_vec(),
                            next,
                        })
                    });
                    let right = entries.split_off(cut);
                    let sep = right[0].0.clone();
                    let right_id = self.allocate(&Node::Leaf {
                        entries: right,
                        next,
                    })?;
                    let left = Node::Leaf {
                        entries,
                        next: right_id,
                    };
                    self.write(pid, &left)?;
                    Some((sep, right_id))
                }
                Node::Internal {
                    mut keys,
                    mut children,
                } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    let last = idx == keys.len();
                    let Some((sep, right)) =
                        self.insert_rec(children[idx], key, value, edge && last)?
                    else {
                        return Ok(None);
                    };
                    let append = edge && last;
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    let node = Node::Internal { keys, children };
                    if node.serialize().len() <= SPLIT_THRESHOLD {
                        self.write(pid, &node)?;
                        return Ok(None);
                    }
                    let Node::Internal { keys, children } = node else {
                        unreachable!()
                    };
                    let halves = |mid: usize| {
                        let half = |keys: &[Vec<u8>], children: &[PageId]| Node::Internal {
                            keys: keys.to_vec(),
                            children: children.to_vec(),
                        };
                        [
                            half(&keys[..mid], &children[..=mid]),
                            half(&keys[mid + 1..], &children[mid + 1..]),
                        ]
                    };
                    let first = match append {
                        true => keys.len() - 1,
                        false => keys.len() / 2,
                    };
                    let mid = Oracle::cut(first, 1..keys.len() - 1, halves);
                    let [left, right] = halves(mid);
                    let right_id = self.allocate(&right)?;
                    self.write(pid, &left)?;
                    Some((keys[mid].clone(), right_id))
                }
            })
        }

        fn delete(&self, key: &[u8]) {
            let mut pid = self.root;
            loop {
                match self.read(pid) {
                    Node::Internal { keys, children } => {
                        pid = children[keys.partition_point(|k| k.as_slice() <= key)];
                    }
                    Node::Leaf { mut entries, next } => {
                        if let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                            entries.remove(i);
                            self.write(pid, &Node::Leaf { entries, next }).unwrap();
                        }
                        return;
                    }
                }
            }
        }
    }

    /// Type, sibling and node record of every page of `pool`'s store; with
    /// `sealed`, the whole sealed image instead.
    fn images(pool: &BufferPool, pages: u64, sealed: bool) -> Vec<(PageType, PageId, Vec<u8>)> {
        (0..pages)
            .map(|pid| {
                let frame = pool.fetch(pid).unwrap();
                let page = frame.page.read();
                let bytes = match sealed {
                    true => page.to_bytes().to_vec(),
                    false => page.get(0).unwrap().to_vec(),
                };
                (page.page_type(), page.next_page(), bytes)
            })
            .collect()
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

    /// Drive the tree, the oracle and a `BTreeMap` through `ops`; after
    /// every mutation the two stores must hold the same node records.
    /// Returns whether an internal node split on the way.
    fn run_model(ops: &[Op]) -> std::result::Result<bool, TestCaseError> {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 4096);
        let oracle_pool = BufferPool::new(Arc::new(MemPager::new()), 4096);
        let mut tree = BTree::create(pool.clone()).unwrap();
        let mut oracle = Oracle::create(oracle_pool.clone());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let nth = |model: &BTreeMap<Vec<u8>, Vec<u8>>, n: usize| {
            model.keys().nth(n % model.len().max(1)).cloned()
        };
        let mut internal_splits = false;
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
                    oracle.insert(&key, &value).unwrap();
                    prop_assert_eq!(tree.insert(&key, &value).unwrap(), model.insert(key, value));
                }
                Op::Delete(n) => {
                    let Some(key) = nth(&model, *n) else { continue };
                    prop_assert_eq!(tree.delete(&key).unwrap(), model.remove(&key));
                    prop_assert_eq!(tree.delete(&key).unwrap(), None);
                    oracle.delete(&key);
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
            prop_assert_eq!(tree.len(), model.len() as u64);
            prop_assert_eq!(tree.root_page(), oracle.root);
            let pages = pool.store().num_pages();
            prop_assert_eq!(pages, oracle_pool.store().num_pages());
            prop_assert_eq!(
                images(&pool, pages, false),
                images(&oracle_pool, pages, false)
            );
            internal_splits |= matches!(oracle.read(oracle.root), Node::Internal { ref children, .. }
                if matches!(oracle.read(children[0]), Node::Internal { .. }));
        }
        // The stores are the same to the last sealed byte, and the view
        // reads the tree the oracle's `write_node` built.
        let pages = pool.store().num_pages();
        prop_assert_eq!(
            images(&pool, pages, true),
            images(&oracle_pool, pages, true)
        );
        let by_oracle = BTree::open(oracle_pool, oracle.root).unwrap();
        prop_assert_eq!(by_oracle.len(), model.len() as u64);
        let all: Vec<_> = by_oracle
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        prop_assert_eq!(all, model.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(tree.page_count().unwrap(), by_oracle.page_count().unwrap());
        Ok(internal_splits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn matches_btreemap_and_the_old_write_path_byte_for_byte(
            ops in proptest::collection::vec(op_strategy(), 1000..2000)
        ) {
            run_model(&ops)?;
        }
    }

    #[test]
    fn internal_nodes_split_and_the_root_grows_twice() {
        // Two or three entries to a leaf and 64-byte separators: some 120
        // leaves fill the root, and the tree gains its third level.
        let wide_key = |i: u32| [k(i.wrapping_mul(0x9e37_79b9)), vec![7; 60]].concat();
        let mut ops: Vec<Op> = (0..400).map(|i| Op::Insert(wide_key(i), 3400)).collect();
        ops.extend((0..400).step_by(3).map(Op::Delete));
        ops.push(Op::Reopen);
        ops.extend((400..500).map(|i| Op::Insert(wide_key(i), 3400)));
        assert!(run_model(&ops).unwrap(), "no internal node split");
    }

    #[test]
    fn only_the_right_edge_splits_as_an_append() {
        // Ascending, two entries to a leaf: the root fills at 103 keys and
        // splits as an append, so its left half stays full. A key between
        // the two of that half's last leaf splits the leaf, and its
        // separator lands past the half's last key — an insert at the end
        // of a node off the right edge, which is halved.
        let wide_key = |i: u32| [k(i), vec![7; 60]].concat();
        let mut ops: Vec<Op> = (0..220).map(|i| Op::Insert(wide_key(i), 3400)).collect();
        ops.push(Op::Insert([wide_key(206), vec![0]].concat(), 3400));
        assert!(run_model(&ops).unwrap(), "no internal node split");
    }

    #[test]
    fn leaf_count_varint_grows_from_one_byte_to_two() {
        let ops: Vec<Op> = (0..300u32).map(|i| Op::Insert(k(i * 7 % 300), 3)).collect();
        run_model(&ops).unwrap();
        let t = tree();
        for i in 0..128u32 {
            t.insert(&k(i), b"v").unwrap();
            let frame = t.pool.fetch(t.root_page()).unwrap();
            let page = frame.page.read();
            let node = NodeView::new(&page).unwrap();
            assert_eq!(
                (node.count, node.first),
                (i as usize + 1, 1 + usize::from(i == 127))
            );
        }
        assert_eq!(t.delete(&k(5)).unwrap(), Some(b"v".to_vec()));
        assert_eq!(
            t.range(Bound::Unbounded, Bound::Unbounded).unwrap().count(),
            127
        );
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
                false => Ok(node.children()?.last()),
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
        // Leaves of 62 entries under one root, then keys so wide that the
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
            let entry = put_len(&key(0)) + put_len(&vec![0; vlen]);
            let edge = right_edge(&t);
            let (mut leaves, mut internal) = (0, 0);
            for pid in t.pages() {
                t.view(pid, |node| {
                    let (item, behind) = match node.leaf {
                        true => (entry, node.next != NO_PAGE),
                        false => (put_len(&key(0)) + 8, !edge.contains(&pid)),
                    };
                    match node.leaf {
                        true => leaves += 1,
                        false => internal += 1,
                    }
                    let full = node.rec.len() + item > SPLIT_THRESHOLD;
                    assert!(full || !behind, "page {pid} holds {} bytes", node.rec.len());
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
        // An ascending load under the old rule: every leaf was cut at
        // `len / 2`, so all but the last hold 33 of the 65 entries of 116
        // bytes that fit.
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
            let node = Node::Leaf {
                entries: entries.to_vec(),
                next: ids.get(n + 1).copied().unwrap_or(NO_PAGE),
            };
            write_node(&pool.fetch(ids[n]).unwrap(), &node).unwrap();
        }
        let (root, frame) = pool.allocate(PageType::BTreeInternal).unwrap();
        let keys = leaves[1..].iter().map(|leaf| leaf[0].0.clone()).collect();
        let children = ids.clone();
        write_node(&frame, &Node::Internal { keys, children }).unwrap();
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
        for (n, entries) in leaves.iter().enumerate().take(old) {
            let node = t.view(ids[n], Node::deserialize).unwrap();
            assert!(matches!(node, Node::Leaf { entries: e, .. } if e == *entries));
        }
        let filled = (3000 - 33 * old).div_ceil(65);
        assert_eq!(t.page_count().unwrap(), (1 + old + filled) as u64);
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(all.map(Result::unwrap).eq(model));
    }

    /// A two-level tree, its root, first leaf and last leaf: the nodes to
    /// damage. The load fills the first leaf; seven keys in eight are
    /// deleted again, so that the records to damage stay short.
    fn two_level_tree() -> (BTree, [PageId; 3]) {
        let t = tree();
        for i in 0..600u32 {
            t.insert(&k(i), format!("value-{i}").as_bytes()).unwrap();
        }
        for i in (0..600u32).filter(|i| i % 8 != 0) {
            t.delete(&k(i)).unwrap();
        }
        let root = t.root_page();
        let (first, _) = t.leaf_for(root, &[], None).unwrap();
        let (last, _) = t.leaf_for(root, &k(u32::MAX), None).unwrap();
        assert!(root != first && first != last);
        (t, [root, first, last])
    }

    /// A tree to damage one node of, again and again: every trial starts
    /// from the same page images.
    struct Victim {
        pool: Arc<BufferPool>,
        root: PageId,
        intact: Vec<Page>,
    }

    impl Victim {
        fn record(&self, pid: PageId) -> &[u8] {
            self.intact[pid as usize].get(0).unwrap()
        }

        fn reset(&self) -> BTree {
            for (pid, page) in self.intact.iter().enumerate() {
                *self.pool.fetch(pid as PageId).unwrap().page.write() = page.clone();
            }
            BTree::open(self.pool.clone(), self.root).unwrap()
        }

        /// Run every read and write path over the tree with `damaged` as
        /// the record of page `pid` — after a lookup past the last key has
        /// hinted the last leaf, if `warm` — and gives back what the full
        /// scan and the lookup of `probe` made of it. Every path may fail
        /// but must return.
        fn exercise(
            &self,
            pid: PageId,
            damaged: &[u8],
            probe: &[u8],
            warm: bool,
        ) -> (Result<usize>, Result<Option<Vec<u8>>>) {
            let t = self.reset();
            if warm {
                assert!(!t.contains_key(&k(u32::MAX)).unwrap());
            }
            let page = &self.intact[pid as usize];
            let frame = self.pool.fetch(pid).unwrap();
            write_record(&frame, page.page_type(), page.next_page(), damaged).unwrap();
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
        let last_key = |pid| {
            let Node::Leaf { entries, .. } = t.view(pid, Node::deserialize).unwrap() else {
                panic!("page {pid} is a leaf")
            };
            entries.last().unwrap().0.clone()
        };
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
            let exercise = |damaged: &[u8]| {
                let cold = victim.exercise(pid, damaged, probe, false);
                assert_eq!(victim.exercise(pid, damaged, probe, true), cold);
                cold
            };
            let intact = victim.record(pid);
            // Every truncation: the strict parse rejects it, and so does
            // every walk that reaches the cut.
            for cut in 1..intact.len() {
                let view = NodeView::of(&intact[..cut], pid != root, NO_PAGE);
                assert!(view.and_then(Node::deserialize).is_err(), "cut at {cut}");
                let (scanned, got) = exercise(&intact[..cut]);
                assert!(scanned.is_err(), "scan over page {pid} cut at {cut}");
                assert!(got.is_err(), "get through page {pid} cut at {cut}");
            }
            // Every single-byte flip, three ways, so that length and count
            // varints lose, gain and change continuation bits.
            for at in 0..intact.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut damaged = intact.to_vec();
                    damaged[at] ^= mask;
                    let (scanned, _) = exercise(&damaged);
                    // A wrong entry count never goes unnoticed.
                    assert!(
                        at > 0 || scanned.is_err(),
                        "count ^ {mask:#x} on page {pid}"
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
            let Node::Internal { keys, mut children } = t.view(root, Node::deserialize).unwrap()
            else {
                panic!("root is internal")
            };
            children.fill(root);
            write_node(
                &t.pool.fetch(root).unwrap(),
                &Node::Internal { keys, children },
            )
            .unwrap();
            assert!(t.get(&k(1)).is_err());
            assert!(t.insert(&k(1), b"v").is_err());
            assert!(t.delete(&k(1)).is_err());
            assert!(t.range(Bound::Unbounded, Bound::Unbounded).is_err());
            assert!(BTree::open(t.pool.clone(), root).is_err());
        }
    }
}
