//! Aggregation operators: hash aggregate (unordered input) and stream
//! aggregate (input sorted by the group columns).
//!
//! The hash aggregate hands its groups out straight from the table it
//! built them in, a batch at a time, and keeps the table's memory charge
//! until the last group is out. When the budget runs out it spills the
//! rows of new groups to hash partitions and aggregates those one at a
//! time afterwards, from a worklist, so no finished group is ever copied
//! into a buffer of its own.
//!
//! Both work off [`AggSpec`]s that pair an [`Aggregate`] factory with its
//! argument expressions — built-in and user-defined aggregates are
//! indistinguishable here, which is the extensibility claim of §2.3.4.
//! The stream aggregate is what makes the paper's sliding-window
//! `AssembleConsensus` plan non-blocking: with input ordered by
//! chromosome (and alignment position within it), each group finishes as
//! soon as its last row has been consumed.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use seqdb_storage::tempspace::{SpillReader, SpillWriter};
use seqdb_types::codec::{self, Reader};
use seqdb_types::{DbError, Result, Row, Value, ValueRef};

use crate::exec::batch::{operand_columns, Column, Operand};
use crate::exec::{
    corrupt_spill, fill_batch, BoxedIter, ExecContext, Layout, RowBatch, RowIterator,
};
use crate::expr::Expr;
use crate::governor::{MemCharge, QueryGovernor};
use crate::udx::{protect, AggState, Aggregate};

/// Estimated heap overhead per aggregate state (box + accumulator).
const STATE_OVERHEAD: usize = 64;
/// Estimated hash-map entry overhead per group.
const GROUP_OVERHEAD: usize = 48;
/// Fan-out of one hash-agg spill pass.
pub(crate) const SPILL_PARTITIONS: usize = 4;
/// Repartitioning bound of the hash aggregate and the hash join; beyond
/// this the budget is simply too small for the data and the query fails
/// with `ResourceExhausted`. The parallel workers, which have no spill
/// path, run at this depth.
pub(crate) const MAX_SPILL_DEPTH: u32 = 6;

/// One aggregate call in a GROUP BY query.
#[derive(Clone)]
pub struct AggSpec {
    pub factory: std::sync::Arc<dyn Aggregate>,
    /// Argument expressions over the input row. Empty = `COUNT(*)`.
    pub args: Vec<Expr>,
    /// Output column name (for schemas and EXPLAIN).
    pub name: String,
}

impl AggSpec {
    pub fn new(
        factory: std::sync::Arc<dyn Aggregate>,
        args: Vec<Expr>,
        name: impl Into<String>,
    ) -> AggSpec {
        AggSpec {
            factory,
            args,
            name: name.into(),
        }
    }

    /// This call with its arguments pointed at the input's rows.
    pub fn remapped(&self, layout: &Layout) -> Result<AggSpec> {
        Ok(AggSpec {
            args: layout.remap_all(&self.args)?,
            ..self.clone()
        })
    }

    /// Fresh accumulator, with the UDA's `Init` under panic protection.
    fn create_state(&self) -> Result<Box<dyn AggState>> {
        protect(self.factory.name(), || Ok(self.factory.create()))
    }

    /// Fold a compacted batch into its groups under one panic guard, so
    /// a panic still names this aggregate: row `i` of `batch` updates
    /// aggregate `agg` of group `slots[i]`, whose states start at
    /// `states[slots[i] * naggs]`; a row slotted [`SPILLED`] updates
    /// nothing. The one fold of both the hash and the stream aggregate.
    /// An argument-free aggregate (`COUNT(*)`) takes each run of rows of
    /// one group as a single `update_n`, so a global aggregate costs one
    /// call per batch; any other reads its arguments' cells borrowed.
    fn update_batch(
        &self,
        agg: usize,
        naggs: usize,
        states: &mut [Box<dyn AggState>],
        batch: &RowBatch,
        slots: &[usize],
    ) -> Result<()> {
        protect(self.factory.name(), || {
            if self.args.is_empty() {
                for run in slots.chunk_by(|a, b| a == b) {
                    if run[0] != SPILLED {
                        states[run[0] * naggs + agg].update_n(&[], run.len() as u64)?;
                    }
                }
                return Ok(());
            }
            let args = Operand::eval_all(&self.args, batch)?;
            let cols = operand_columns(&args, batch);
            let mut cells: Vec<ValueRef<'_>> = Vec::with_capacity(cols.len());
            for (i, &slot) in slots.iter().enumerate() {
                if slot == SPILLED {
                    continue;
                }
                cells.clear();
                cells.extend(cols.iter().map(|c| c.get(i)));
                states[slot * naggs + agg].update_ref(&cells)?;
            }
            Ok(())
        })
    }
}

/// Fresh states for every aggregate in the list, appended to `states`.
fn push_states(aggs: &[AggSpec], states: &mut Vec<Box<dyn AggState>>) -> Result<()> {
    for a in aggs {
        states.push(a.create_state()?);
    }
    Ok(())
}

/// Memory cost charged for admitting one new group.
fn group_cost<'a>(key: impl Iterator<Item = ValueRef<'a>>, naggs: usize) -> usize {
    key.map(|v| v.size_bytes()).sum::<usize>() + naggs * STATE_OVERHEAD + GROUP_OVERHEAD
}

/// Row `i` of key columns `cols`.
#[inline]
pub(crate) fn key_cells<'a>(
    cols: &'a [&'a Column],
    i: usize,
) -> impl Iterator<Item = ValueRef<'a>> + 'a {
    cols.iter().map(move |c| c.get(i))
}

/// Whether an owned key equals row `i` of key columns `cols`.
#[inline]
fn key_equals(key: &[Value], cols: &[&Column], i: usize) -> bool {
    key.iter()
        .zip(cols)
        .all(|(k, c)| k.view().total_cmp(&c.get(i)).is_eq())
}

/// Multiply-rotate hasher (the well-known Fx scheme) for the executor's
/// per-query hash tables — the join's build map and [`GroupedStates`]:
/// far cheaper than SipHash on `Value` keys. Not DoS-resistant, which is
/// fine for a table that dies with its operator. Spill partitioning stays
/// on `DefaultHasher`.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Xor-shift avalanche: `Value::Int` hashes through f64 bit
        // patterns whose differences sit in the HIGH bits, and the
        // multiply in `add` only propagates differences upward — without
        // this mix every sequential-int key lands in one bucket.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in bytes.iter().enumerate() {
                tail |= (b as u64) << (8 * i);
            }
            self.add(tail);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

/// The executor's hash of a key, cell by cell: a cell hashes as the
/// owned [`Value`] it equals, so a typed column and a `Value` column of
/// the same values agree.
#[inline]
pub(crate) fn hash_cells<'a>(cells: impl Iterator<Item = ValueRef<'a>>) -> u64 {
    let mut h = FxHasher::default();
    for c in cells {
        c.hash(&mut h);
    }
    h.finish()
}

/// Open-addressing index from key hashes to dense entry numbers, for the
/// group tables and the join's build table. It stores only each entry's
/// hash; the caller keeps the keys and decides equality, so a lookup
/// compares a batch's cells against them in place and builds nothing.
#[derive(Default)]
pub(crate) struct HashIndex {
    /// Entry number + 1 per slot, 0 when empty; a power of two long.
    slots: Vec<u32>,
    hashes: Vec<u64>,
}

impl HashIndex {
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The hash entry `e` was inserted with.
    pub(crate) fn hash(&self, e: usize) -> u64 {
        self.hashes[e]
    }

    /// The entry with hash `h` for which `eq` holds.
    #[inline]
    pub(crate) fn find(&self, h: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        loop {
            match self.slots[at] {
                0 => return None,
                s => {
                    let e = s as usize - 1;
                    if self.hashes[e] == h && eq(e) {
                        return Some(e);
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Add an entry the caller found absent; returns its number.
    pub(crate) fn insert(&mut self, h: u64) -> usize {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            let n = (2 * self.slots.len()).max(16);
            self.slots = vec![0; n];
            for e in 0..self.hashes.len() {
                self.place(self.hashes[e], e);
            }
        }
        let e = self.hashes.len();
        self.hashes.push(h);
        self.place(h, e);
        e
    }

    fn place(&mut self, h: u64, e: usize) {
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = u32::try_from(e + 1).expect("fewer than 2^32 entries");
    }
}

/// Slot of a row whose group went to a spill partition.
const SPILLED: usize = usize::MAX;

/// Grouped aggregation state: each group owns its key and one state per
/// aggregate, held flat. The batch loop looks a row's group up once,
/// hashing and comparing its key cells where they lie, and then folds
/// each aggregate over the batch by group.
pub(crate) struct GroupedStates {
    index: HashIndex,
    nkeys: usize,
    /// Group `g`'s key is `keys[g * nkeys..][..nkeys]`.
    keys: Vec<Value>,
    /// Group `g`'s state of aggregate `a` is `states[g * naggs + a]`.
    states: Vec<Box<dyn AggState>>,
}

impl GroupedStates {
    pub(crate) fn new(nkeys: usize) -> GroupedStates {
        GroupedStates {
            index: HashIndex::default(),
            nkeys,
            keys: Vec::new(),
            states: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.nkeys..][..self.nkeys]
    }

    /// The group whose key is row `i` of `cols`, which hashes to `h`.
    #[inline]
    fn find(&self, h: u64, cols: &[&Column], i: usize) -> Option<usize> {
        self.index.find(h, |g| key_equals(self.key(g), cols, i))
    }

    /// Add a group whose key is not present yet, with fresh states;
    /// returns its number.
    fn insert(
        &mut self,
        h: u64,
        key: impl Iterator<Item = Value>,
        aggs: &[AggSpec],
    ) -> Result<usize> {
        push_states(aggs, &mut self.states)?;
        self.keys.extend(key);
        Ok(self.index.insert(h))
    }

    /// Give a global aggregate (no GROUP BY) that saw no rows its one
    /// group of fresh states: it still yields one row.
    pub(crate) fn ensure_global_group(&mut self, aggs: &[AggSpec]) -> Result<()> {
        if self.nkeys == 0 && self.len() == 0 {
            self.insert(0, std::iter::empty(), aggs)?;
        }
        Ok(())
    }

    /// The groups on their way out, in the order they arrived.
    pub(crate) fn into_drain(self) -> GroupDrain {
        GroupDrain {
            nkeys: self.nkeys,
            left: self.index.len(),
            keys: self.keys.into_iter(),
            states: self.states.into_iter(),
        }
    }
}

/// A group table handing out its finished groups.
pub(crate) struct GroupDrain {
    nkeys: usize,
    left: usize,
    keys: std::vec::IntoIter<Value>,
    states: std::vec::IntoIter<Box<dyn AggState>>,
}

impl GroupDrain {
    /// The next `max_rows` groups (at least one), finished into a batch.
    /// `None` once every group is out.
    pub(crate) fn next_batch(
        &mut self,
        aggs: &[AggSpec],
        max_rows: usize,
    ) -> Result<Option<RowBatch>> {
        let n = self.left.min(max_rows.max(1));
        if n == 0 {
            return Ok(None);
        }
        self.left -= n;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let key = self.keys.by_ref().take(self.nkeys).collect();
            let states = self.states.by_ref().take(aggs.len());
            rows.push(finish_group(key, states, aggs)?);
        }
        Ok(Some(RowBatch::from_rows(rows)))
    }
}

/// Merge a partial aggregation map into an accumulator map (the "final"
/// side of a parallel aggregate). UDA `Merge` runs under panic
/// protection; `aggs` supplies the function names for error reporting.
pub(crate) fn merge_maps(
    into: &mut GroupedStates,
    from: GroupedStates,
    aggs: &[AggSpec],
) -> Result<()> {
    let mut states = from.states.into_iter();
    for g in 0..from.index.len() {
        let h = from.index.hash(g);
        let key = &from.keys[g * from.nkeys..][..from.nkeys];
        let found = into.index.find(h, |t| into.key(t) == key);
        match found {
            Some(t) => {
                for (a, spec) in aggs.iter().enumerate() {
                    let partial = states.next().expect("one state per aggregate");
                    let acc = &mut into.states[t * aggs.len() + a];
                    protect(spec.factory.name(), || acc.merge(partial))?;
                }
            }
            None => {
                into.keys.extend_from_slice(key);
                into.states.extend(states.by_ref().take(aggs.len()));
                into.index.insert(h);
            }
        }
    }
    Ok(())
}

/// Hash a group key for spill partitioning. `depth` salts the hash so
/// each repartition pass splits differently from the one that overflowed.
/// Shared with the hybrid hash join, which partitions on the same salted
/// hash so both spill paths recurse identically.
pub(crate) fn partition_of<'a>(key: impl Iterator<Item = ValueRef<'a>>, depth: u32) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    depth.hash(&mut h);
    for c in key {
        c.hash(&mut h);
    }
    (h.finish() as usize) % SPILL_PARTITIONS
}

/// Append one row to a spill partition, framed like the external sort's
/// runs.
pub(crate) fn write_spill_row(w: &mut SpillWriter, row: &Row) -> Result<()> {
    w.write_frame(|b| codec::put_row(b, row.values()))
}

/// The rows of a spill partition, read back. The partition turns into a
/// reader at the first pull, so one waiting in a worklist holds no read
/// buffer. Dropping it deletes the file either way.
pub(crate) struct SpillRowIter {
    writer: Option<SpillWriter>,
    reader: Option<SpillReader>,
    /// Reused frame buffer; reading a spilled row back allocates only
    /// what the row's own values need.
    frame: Vec<u8>,
}

impl SpillRowIter {
    pub(crate) fn new(writer: SpillWriter) -> SpillRowIter {
        SpillRowIter {
            writer: Some(writer),
            reader: None,
            frame: Vec::new(),
        }
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(writer) = self.writer.take() {
            self.reader = Some(writer.finish()?);
        }
        let Some(reader) = self.reader.as_mut() else {
            return Ok(None);
        };
        if !reader.read_frame(&mut self.frame)? {
            return Ok(None);
        }
        let vals = Reader::new(&self.frame).row().map_err(corrupt_spill)?;
        Ok(Some(Row::new(vals)))
    }
}

impl RowIterator for SpillRowIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

/// Hash-aggregate an input into a map, spilling rows for new groups to
/// hash partitions once the budget is exhausted instead of failing. The
/// one group loop of both [`HashAggIter`] and the parallel workers.
/// At [`MAX_SPILL_DEPTH`] there is no pass left, so the first group the
/// budget rejects fails the query typed; the workers run at that depth
/// because a parallel aggregate never spills. The caller keeps `charge`
/// alive for as long as the returned map exists.
pub(crate) fn aggregate_partial_spilling(
    input: &mut dyn RowIterator,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    charge: &mut MemCharge,
    ctx: &ExecContext,
    depth: u32,
) -> Result<(GroupedStates, Vec<Option<SpillWriter>>)> {
    let mut groups = GroupedStates::new(group_exprs.len());
    // Once the budget rejects one group, *all* further new groups go to
    // the spill. Without this the budget could free up mid-stream and
    // admit a key whose earlier rows were already spilled, emitting that
    // group twice.
    let mut spilling = false;
    let mut partitions: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    // Reused across batches: each row's group slot in the current batch.
    let mut slots: Vec<usize> = Vec::new();

    while let Some(batch) = input.next_batch(ctx.batch_size)? {
        // One cooperative check per batch instead of per row.
        ctx.gov.check_deadline()?;
        let batch = batch.compact();
        slots.clear();
        if group_exprs.is_empty() && groups.len() == 1 {
            // No GROUP BY and the one global group is resident.
            slots.resize(batch.len(), 0);
        } else {
            let keys = Operand::eval_all(group_exprs, &batch)?;
            let cols = operand_columns(&keys, &batch);
            for i in 0..batch.len() {
                let h = hash_cells(key_cells(&cols, i));
                if let Some(g) = groups.find(h, &cols, i) {
                    slots.push(g);
                    continue;
                }
                let cost = group_cost(key_cells(&cols, i), aggs.len());
                if !spilling && charge.try_grow(cost) {
                    // Room for the results too: the key becomes the
                    // group's output row.
                    let key = cols.iter().map(|c| c.value(i));
                    slots.push(groups.insert(h, key, aggs)?);
                    continue;
                }
                if depth >= MAX_SPILL_DEPTH {
                    return Err(DbError::ResourceExhausted(format!(
                        "hash aggregate exceeded its memory budget with no \
                         repartition pass left (at most {MAX_SPILL_DEPTH})"
                    )));
                }
                spilling = true;
                let p = partition_of(key_cells(&cols, i), depth);
                if partitions[p].is_none() {
                    partitions[p] = Some(ctx.create_spill()?);
                }
                if let Some(writer) = partitions[p].as_mut() {
                    write_spill_row(writer, &batch.row(i).to_row())?;
                }
                slots.push(SPILLED);
            }
        }
        for (agg, spec) in aggs.iter().enumerate() {
            spec.update_batch(agg, aggs.len(), &mut groups.states, &batch, &slots)?;
        }
    }
    Ok((groups, partitions))
}

/// Finish one group into an output row (UDA `Terminate` under panic
/// protection).
fn finish_group(
    key: Vec<Value>,
    states: impl Iterator<Item = Box<dyn AggState>>,
    aggs: &[AggSpec],
) -> Result<Row> {
    let mut vals = key;
    vals.reserve(aggs.len());
    for (mut s, spec) in states.zip(aggs) {
        vals.push(protect(spec.factory.name(), || s.finish())?);
    }
    Ok(Row::new(vals))
}

/// What a global aggregate (no GROUP BY) over empty input still yields:
/// one row of fresh states' results.
fn empty_global_row(aggs: &[AggSpec]) -> Result<Row> {
    let mut states = Vec::new();
    push_states(aggs, &mut states)?;
    finish_group(Vec::new(), states.into_iter(), aggs)
}

/// Blocking hash aggregate. Output order is unspecified (like SQL).
/// Governed, the hybrid-hash analogue of SQL Server's Hash Match spilling
/// to tempdb: once the budget rejects a group, rows of groups already in
/// the table keep aggregating in place, while rows of new groups spill to
/// hash partitions as raw input rows (an aggregate state has no
/// serialized form). Each partition is aggregated in turn, with a
/// re-salted hash, once the groups before it are out.
pub struct HashAggIter {
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    ctx: ExecContext,
    /// Inputs still to aggregate, the next one last, each with its spill
    /// depth: the operator's own input at depth 0, then the partitions
    /// each level spilled, which go before the partitions of the levels
    /// above it.
    work: Vec<(BoxedIter, u32)>,
    /// The level being handed out. `charge` holds its groups' memory
    /// until the last one is out.
    level: Option<GroupDrain>,
    charge: MemCharge,
    /// Whether any level had a group: a global aggregate (no GROUP BY)
    /// over no rows still yields one row.
    any_group: bool,
}

impl HashAggIter {
    pub fn new(
        input: BoxedIter,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        ctx: ExecContext,
    ) -> HashAggIter {
        HashAggIter {
            group_exprs,
            aggs,
            charge: MemCharge::new(ctx.gov.clone()),
            ctx,
            work: vec![(input, 0)],
            level: None,
            any_group: false,
        }
    }
}

impl RowIterator for HashAggIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        loop {
            if let Some(level) = self.level.as_mut() {
                if let Some(batch) = level.next_batch(&self.aggs, max_rows)? {
                    return Ok(Some(batch));
                }
            }
            self.level = None;
            self.charge.release_all();
            let Some((mut input, depth)) = self.work.pop() else {
                return Ok(None);
            };
            let (mut groups, parts) = aggregate_partial_spilling(
                input.as_mut(),
                &self.group_exprs,
                &self.aggs,
                &mut self.charge,
                &self.ctx,
                depth,
            )?;
            // Reversed, so partition 0 (and whatever it spills) comes out
            // before partition 1.
            for part in parts.into_iter().rev().flatten() {
                let part: BoxedIter = Box::new(SpillRowIter::new(part));
                self.work.push((part, depth + 1));
            }
            self.any_group |= groups.len() > 0;
            if !self.any_group && self.work.is_empty() {
                groups.ensure_global_group(&self.aggs)?;
            }
            self.level = Some(groups.into_drain());
        }
    }
}

/// Streaming aggregate over input already sorted by the group
/// expressions. Non-blocking: emits each group as soon as the key
/// changes, holding only one group's state.
///
/// It folds whole input batches, allocating nothing per row: each row's
/// key cells are compared with the in-flight group's key where they lie,
/// each run of equal keys gets one slot, and every aggregate folds the
/// batch by slot through the hash aggregate's fold,
/// `AggSpec::update_batch`.
pub struct StreamAggIter {
    input: BoxedIter,
    batch_size: usize,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// Keys and states (flat, as in the hash aggregate's table) of the
    /// groups the current batch touches, in input order. Between batches
    /// it holds only the in-flight group, which the next batch's first
    /// run continues.
    keys: Vec<Vec<Value>>,
    states: Vec<Box<dyn AggState>>,
    /// Reused across batches: each row's slot in `keys`.
    slots: Vec<usize>,
    /// Accounts the single in-flight group; re-charged at each boundary.
    charge: MemCharge,
    done: bool,
    saw_rows: bool,
}

impl StreamAggIter {
    pub fn new(
        input: BoxedIter,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        gov: Arc<QueryGovernor>,
        batch_size: usize,
    ) -> StreamAggIter {
        StreamAggIter {
            input,
            batch_size,
            group_exprs,
            aggs,
            keys: Vec::new(),
            states: Vec::new(),
            slots: Vec::new(),
            charge: MemCharge::new(gov),
            done: false,
            saw_rows: false,
        }
    }

    /// Fold one input batch, then finish into `out` every group the batch
    /// completed: all but the last, which stays in flight.
    fn fold_batch(&mut self, batch: RowBatch, out: &mut Vec<Row>) -> Result<()> {
        let batch = batch.compact();
        let keys = Operand::eval_all(&self.group_exprs, &batch)?;
        let cols = operand_columns(&keys, &batch);
        let naggs = self.aggs.len();
        self.slots.clear();
        for i in 0..batch.len() {
            if !self.keys.last().is_some_and(|k| key_equals(k, &cols, i)) {
                // Group boundary (or very first group): the new group's
                // charge replaces the finished one's — one group at a
                // time keeps the operator near-constant-space.
                self.charge.release_all();
                self.charge.grow(group_cost(key_cells(&cols, i), naggs))?;
                push_states(&self.aggs, &mut self.states)?;
                self.keys.push(cols.iter().map(|c| c.value(i)).collect());
            }
            self.slots.push(self.keys.len() - 1);
        }
        for (agg, spec) in self.aggs.iter().enumerate() {
            spec.update_batch(agg, naggs, &mut self.states, &batch, &self.slots)?;
        }
        let finished = self.keys.len().saturating_sub(1);
        let mut states = self.states.drain(..finished * naggs);
        for key in self.keys.drain(..finished) {
            out.push(finish_group(key, states.by_ref().take(naggs), &self.aggs)?);
        }
        Ok(())
    }
}

impl RowIterator for StreamAggIter {
    /// Pull input batches until `max_rows` groups have finished or the
    /// input ends; a batch that completes many groups may overshoot.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let mut out = Vec::new();
        while !self.done && out.len() < max_rows.max(1) {
            match self.input.next_batch(self.batch_size)? {
                Some(batch) => {
                    self.saw_rows = true;
                    self.fold_batch(batch, &mut out)?;
                }
                None => {
                    self.done = true;
                    self.charge.release_all();
                    if let Some(key) = self.keys.pop() {
                        let states = std::mem::take(&mut self.states);
                        out.push(finish_group(key, states.into_iter(), &self.aggs)?);
                    } else if !self.saw_rows && self.group_exprs.is_empty() {
                        out.push(empty_global_row(&self.aggs)?);
                    }
                }
            }
        }
        Ok((!out.is_empty()).then(|| RowBatch::from_rows(out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context, PanicAgg};
    use crate::exec::{collect, ValuesIter};
    use crate::udx::{CountAgg, SumAgg};
    use std::sync::Arc;

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(Arc::new(CountAgg), vec![], "cnt"),
            AggSpec::new(Arc::new(SumAgg), vec![Expr::col(1, "v")], "total"),
        ]
    }

    fn rows() -> Vec<Row> {
        int_rows(&[&[1, 10], &[2, 5], &[1, 30], &[2, 5], &[3, 1]])
    }

    /// One pass of the batch group loop over `rows` (grouped on column 0,
    /// two rows per batch) at spill depth `depth`, charging `charge`.
    fn partial(
        ctx: &ExecContext,
        rows: Vec<Row>,
        charge: &mut MemCharge,
        depth: u32,
    ) -> Result<(GroupedStates, Vec<Option<SpillWriter>>)> {
        let mut ctx = ctx.clone();
        ctx.batch_size = 2;
        aggregate_partial_spilling(
            &mut ValuesIter::new(rows),
            &[Expr::col(0, "g")],
            &specs(),
            charge,
            &ctx,
            depth,
        )
    }

    fn finish(groups: GroupedStates) -> Vec<Row> {
        let mut drain = groups.into_drain();
        let mut rows = Vec::new();
        while let Some(batch) = drain.next_batch(&specs(), 2).unwrap() {
            rows.extend(batch.into_rows());
        }
        rows
    }

    fn normalize(mut rows: Vec<Row>) -> Vec<(i64, i64, i64)> {
        let mut out: Vec<(i64, i64, i64)> = rows
            .drain(..)
            .map(|r| {
                (
                    r[0].as_int().unwrap(),
                    r[1].as_int().unwrap(),
                    r[2].as_int().unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn hash_agg_groups_correctly() {
        let (ctx, _dir) = test_context();
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(rows())),
            vec![Expr::col(0, "g")],
            specs(),
            ctx,
        );
        let got = normalize(collect(Box::new(it), 1024).unwrap());
        assert_eq!(got, vec![(1, 2, 40), (2, 2, 10), (3, 1, 1)]);
    }

    #[test]
    fn stream_agg_matches_hash_agg_on_sorted_input() {
        let mut sorted = rows();
        sorted.sort_by_key(|r| r[0].as_int().unwrap());
        let it = StreamAggIter::new(
            Box::new(ValuesIter::new(sorted)),
            vec![Expr::col(0, "g")],
            specs(),
            QueryGovernor::unlimited(),
            crate::exec::ExecContext::DEFAULT_BATCH_SIZE,
        );
        let got = normalize(collect(Box::new(it), 1024).unwrap());
        assert_eq!(got, vec![(1, 2, 40), (2, 2, 10), (3, 1, 1)]);
    }

    #[test]
    fn a_panicking_uda_under_a_stream_aggregate_fails_typed() {
        // One group of five rows folded two rows per batch: the panic
        // lands inside the second batch's fold, and surfaces as a typed
        // error that names the aggregate.
        let input = int_rows(&[&[1, 1], &[1, 2], &[1, 3], &[1, 4], &[1, 5]]);
        let it = StreamAggIter::new(
            Box::new(ValuesIter::new(input)),
            vec![Expr::col(0, "g")],
            vec![
                AggSpec::new(Arc::new(CountAgg), vec![], "cnt"),
                AggSpec::new(Arc::new(PanicAgg), vec![Expr::col(1, "v")], "boom"),
            ],
            QueryGovernor::unlimited(),
            2,
        );
        match collect(Box::new(it), 1024) {
            Err(DbError::UdxPanic { name, payload }) => {
                assert_eq!(name, "PANIC_AGG");
                assert!(payload.contains("synthetic UDA failure"), "{payload}");
            }
            other => panic!("expected UdxPanic, got {other:?}"),
        }
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let (ctx, _dir) = test_context();
        let it = HashAggIter::new(Box::new(ValuesIter::new(rows())), vec![], specs(), ctx);
        let out = collect(Box::new(it), 1024).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(5));
        assert_eq!(out[0][1], Value::Int(51));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        for blocking in [true, false] {
            let input = Box::new(ValuesIter::new(vec![]));
            let (ctx, _dir) = test_context();
            let out = if blocking {
                collect(
                    Box::new(HashAggIter::new(input, vec![], specs(), ctx)),
                    1024,
                )
                .unwrap()
            } else {
                collect(
                    Box::new(StreamAggIter::new(
                        input,
                        vec![],
                        specs(),
                        QueryGovernor::unlimited(),
                        crate::exec::ExecContext::DEFAULT_BATCH_SIZE,
                    )),
                    1024,
                )
                .unwrap()
            };
            assert_eq!(out.len(), 1);
            assert_eq!(out[0][0], Value::Int(0));
            assert_eq!(out[0][1], Value::Null);
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let (ctx, _dir) = test_context();
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(vec![])),
            vec![Expr::col(0, "g")],
            specs(),
            ctx,
        );
        assert!(collect(Box::new(it), 1024).unwrap().is_empty());
    }

    #[test]
    fn partial_final_split_equals_single_pass() {
        // The invariant the parallel aggregate relies on.
        let (ctx, _dir) = test_context();
        let mut charge = MemCharge::new(ctx.gov.clone());
        let all = rows();
        let (serial, _) = partial(&ctx, all.clone(), &mut charge, 0).unwrap();
        let (mut merged, _) = partial(&ctx, all[..2].to_vec(), &mut charge, 0).unwrap();
        let (part2, _) = partial(&ctx, all[2..].to_vec(), &mut charge, 0).unwrap();
        merge_maps(&mut merged, part2, &specs()).unwrap();
        assert_eq!(normalize(finish(serial)), normalize(finish(merged)));
        drop(charge);
        assert_eq!(ctx.gov.mem_used(), 0);
    }

    #[test]
    fn tight_budget_spills_and_still_aggregates_exactly() {
        // Many distinct groups under a budget that fits only a handful:
        // the hybrid path must spill, recurse, and still produce exactly
        // one correct row per group.
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(2 * 1024));
        let input: Vec<Row> = (0..2000i64)
            .map(|i| Row::new(vec![Value::Int(i % 500), Value::Int(1)]))
            .collect();
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(input)),
            vec![Expr::col(0, "g")],
            specs(),
            ctx.clone(),
        );
        let got = normalize(collect(Box::new(it), 1024).unwrap());
        assert_eq!(got.len(), 500, "each group must appear exactly once");
        for (g, cnt, total) in got {
            assert!((0..500).contains(&g));
            assert_eq!(cnt, 4);
            assert_eq!(total, 4);
        }
        assert_eq!(ctx.gov.mem_used(), 0, "all charges released");
    }

    #[test]
    fn dropping_a_spilled_aggregate_mid_drain_leaves_no_file_and_no_charge() {
        // Abandon a spilled aggregate after its first batch (the KILL
        // path), while partitions still wait in its worklist: dropping it
        // must delete them and release the level's charge.
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(2 * 1024));
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let input: Vec<Row> = (0..2000i64)
            .map(|i| Row::new(vec![Value::Int(i % 500), Value::Int(1)]))
            .collect();
        let mut it = HashAggIter::new(
            Box::new(ValuesIter::new(input)),
            vec![Expr::col(0, "g")],
            specs(),
            ctx,
        );
        assert!(it.next_batch(4).unwrap().is_some());
        assert!(!it.work.is_empty(), "partitions must still be queued");
        assert!(temp.live_files().unwrap() > 0);
        assert!(
            gov.mem_used() > 0,
            "the level being drained holds its charge"
        );
        drop(it);
        assert_eq!(gov.mem_used(), 0, "charges released on drop");
        assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
    }

    #[test]
    fn a_pass_at_max_spill_depth_fails_typed_instead_of_spilling() {
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(256));
        let mut charge = MemCharge::new(ctx.gov.clone());
        let input: Vec<Row> = (0..100i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(1)]))
            .collect();
        // One level above the bound, groups the budget rejects spill...
        let (groups, parts) =
            partial(&ctx, input.clone(), &mut charge, MAX_SPILL_DEPTH - 1).unwrap();
        assert!(groups.len() < 100 && parts.iter().any(Option::is_some));
        drop((groups, parts));
        charge.release_all();
        // ...at the bound, the first rejected group fails the query typed.
        let err = match partial(&ctx, input, &mut charge, MAX_SPILL_DEPTH) {
            Ok(_) => panic!("expected exhaustion"),
            Err(e) => e,
        };
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
    }
}
