//! Aggregation operators: hash aggregate (unordered input) and stream
//! aggregate (input sorted by the group columns).
//!
//! Both work off [`AggSpec`]s that pair an [`Aggregate`] factory with its
//! argument expressions — built-in and user-defined aggregates are
//! indistinguishable here, which is the extensibility claim of §2.3.4.
//! The stream aggregate is what makes the paper's sliding-window
//! `AssembleConsensus` plan non-blocking: with input ordered by
//! chromosome (and alignment position within it), each group finishes as
//! soon as its last row has been consumed.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use seqdb_storage::tempspace::{SpillReader, SpillWriter, TempSpace};
use seqdb_storage::{SpillTally, WaitClass};
use seqdb_types::codec::{self, Reader};
use seqdb_types::{DbError, Result, Row, Value};

use crate::exec::{
    corrupt_spill, fill_batch, BoxedIter, ExecContext, Layout, RowBatch, RowIterator,
};
use crate::expr::{eval_into, Expr};
use crate::governor::{MemCharge, QueryGovernor, Ticker};
use crate::udx::{protect, AggState, Aggregate};

/// Estimated heap overhead per aggregate state (box + accumulator).
const STATE_OVERHEAD: usize = 64;
/// Estimated hash-map entry overhead per group.
const GROUP_OVERHEAD: usize = 48;
/// Fan-out of one hash-agg spill pass.
pub(crate) const SPILL_PARTITIONS: usize = 4;
/// Recursion bound for repartitioning; beyond this the budget is simply
/// too small for the data and the query fails with `ResourceExhausted`.
/// The parallel workers, which have no spill path, run at this depth.
pub(crate) const MAX_SPILL_DEPTH: u32 = 6;
/// Estimated heap overhead per buffered output row (Vec + Row headers).
const ROW_OVERHEAD: usize = 32;

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

    /// Fold a batch into its groups under one panic guard, so a panic
    /// still names this aggregate: the `i`-th selected row of `batch`
    /// updates aggregate `agg` of group `states[slots[i]]`, a row slotted
    /// [`SPILLED`] nothing. The one fold of both the hash and the stream
    /// aggregate. An argument-free aggregate (`COUNT(*)`) takes each run
    /// of rows of one group as a single `update_n`, so a global aggregate
    /// costs one call per batch.
    fn update_batch(
        &self,
        agg: usize,
        states: &mut [Vec<Box<dyn AggState>>],
        batch: &RowBatch,
        slots: &[usize],
    ) -> Result<()> {
        protect(self.factory.name(), || {
            if self.args.is_empty() {
                for run in slots.chunk_by(|a, b| a == b) {
                    if run[0] != SPILLED {
                        states[run[0]][agg].update_n(&[], run.len() as u64)?;
                    }
                }
                return Ok(());
            }
            // Allocated only if some row needs a non-column argument.
            let mut vals: Vec<Value> = Vec::new();
            for (row, &slot) in batch.iter().zip(slots) {
                if slot == SPILLED {
                    continue;
                }
                let state = &mut states[slot][agg];
                // A single bare-column argument feeds the stored value
                // straight to the accumulator: no dispatch, no clone.
                if let [Expr::Column { index, name }] = self.args.as_slice() {
                    let v = row.get(*index).ok_or_else(|| {
                        DbError::Execution(format!(
                            "column {name} (#{index}) out of range for row of {} values",
                            row.len()
                        ))
                    })?;
                    state.update(std::slice::from_ref(v))?;
                } else {
                    eval_into(&self.args, row, &mut vals)?;
                    state.update(&vals)?;
                }
            }
            Ok(())
        })
    }
}

/// Fresh states for every aggregate in the list.
fn create_states(aggs: &[AggSpec]) -> Result<Vec<Box<dyn AggState>>> {
    aggs.iter().map(|a| a.create_state()).collect()
}

/// Rough bytes held by a group key.
fn key_bytes(key: &[Value]) -> usize {
    key.iter().map(|v| v.size_bytes()).sum()
}

/// Memory cost charged for admitting one new group.
fn group_cost(key: &[Value], naggs: usize) -> usize {
    key_bytes(key) + naggs * STATE_OVERHEAD + GROUP_OVERHEAD
}

/// Multiply-rotate hasher (the well-known Fx scheme) for the executor's
/// per-query hash tables — the join's build map and [`GroupedStates`]:
/// far cheaper than SipHash on `Value` keys. Not DoS-resistant, which is
/// fine for a table that dies with its operator. Spill partitioning and
/// the join's Bloom filter stay on `DefaultHasher`.
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

pub(crate) type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Slot of a row whose group went to a spill partition.
const SPILLED: usize = usize::MAX;

/// Grouped aggregation state: each group key owns a slot holding one
/// state per aggregate. The batch loop looks a row's slot up once and then
/// folds each aggregate over the batch by slot.
#[derive(Default)]
pub(crate) struct GroupedStates {
    slots: HashMap<Vec<Value>, usize, FxBuild>,
    states: Vec<Vec<Box<dyn AggState>>>,
}

impl GroupedStates {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    fn get_mut(&mut self, key: &[Value]) -> Option<&mut Vec<Box<dyn AggState>>> {
        let slot = *self.slots.get(key)?;
        Some(&mut self.states[slot])
    }

    /// Add a group whose key is not present yet; returns its slot.
    fn insert(&mut self, key: Vec<Value>, states: Vec<Box<dyn AggState>>) -> usize {
        let slot = self.states.len();
        self.slots.insert(key, slot);
        self.states.push(states);
        slot
    }

    /// Every group with its states, in no particular order.
    pub(crate) fn into_groups(self) -> impl Iterator<Item = (Vec<Value>, Vec<Box<dyn AggState>>)> {
        let mut states = self.states;
        self.slots
            .into_iter()
            .map(move |(key, slot)| (key, std::mem::take(&mut states[slot])))
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
    for (key, states) in from.into_groups() {
        match into.get_mut(&key) {
            Some(acc) => merge_group(acc, states, aggs)?,
            None => {
                into.insert(key, states);
            }
        }
    }
    Ok(())
}

/// Hash a group key for spill partitioning. `depth` salts the hash so
/// each repartition pass splits differently from the one that overflowed.
/// Shared with the hybrid hash join, which partitions on the same salted
/// hash so both spill paths recurse identically.
pub(crate) fn partition_of(key: &[Value], depth: u32) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    depth.hash(&mut h);
    key.hash(&mut h);
    (h.finish() as usize) % SPILL_PARTITIONS
}

/// Append one row to a spill partition, framed like the external sort's
/// runs.
pub(crate) fn write_spill_row(w: &mut SpillWriter, row: &Row) -> Result<()> {
    w.write_frame(|b| codec::put_row(b, row.values()))
}

/// Iterate rows back out of a finished spill partition.
pub(crate) struct SpillRowIter {
    reader: SpillReader,
    /// Reused frame buffer; reading a spilled row back allocates only
    /// what the row's own values need.
    frame: Vec<u8>,
}

impl SpillRowIter {
    pub(crate) fn new(reader: SpillReader) -> SpillRowIter {
        SpillRowIter {
            reader,
            frame: Vec::new(),
        }
    }

    pub(crate) fn next_row(&mut self) -> Result<Option<Row>> {
        if !self.reader.read_frame(&mut self.frame)? {
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

/// Rough bytes held by one buffered output row.
fn row_cost(row: &Row) -> usize {
    key_bytes(row.values()) + ROW_OVERHEAD
}

/// Governed buffer for a blocking operator's finished rows. Buffered
/// rows are charged against the query budget (the ROADMAP gap: a query
/// with millions of tiny groups could overshoot *after* spilling its
/// hash table correctly, because the finished `Vec<Row>` was free).
/// When the budget rejects a row the buffer degrades like everything
/// else: overflow rows go to one tempspace spill file and stream back
/// out on iteration. Sticky, for the same reason the hash table's spill
/// mode is: flapping between memory and disk would reorder nothing here,
/// but one file and one mode keep the accounting honest.
pub(crate) struct OutputBuffer {
    rows: Vec<Row>,
    charge: MemCharge,
    temp: Arc<TempSpace>,
    /// Spill attribution sinks of the owning context (query + operator).
    tallies: Vec<Arc<SpillTally>>,
    spill: Option<SpillWriter>,
    total: usize,
    /// The buffer takes at most a quarter of the query budget, so it
    /// never starves the hash tables of the repartition passes that still
    /// have rows to aggregate or join (which would turn a spillable query
    /// into a depth-exhaustion failure).
    cap: Option<usize>,
    /// Wait class for overflow spill I/O (`SpillIo` for aggregates,
    /// `JoinSpill` when buffering joined rows).
    class: WaitClass,
}

impl OutputBuffer {
    pub(crate) fn new(ctx: &ExecContext) -> OutputBuffer {
        OutputBuffer::with_class(ctx, WaitClass::SpillIo)
    }

    pub(crate) fn with_class(ctx: &ExecContext, class: WaitClass) -> OutputBuffer {
        OutputBuffer {
            rows: Vec::new(),
            charge: MemCharge::new(ctx.gov.clone()),
            temp: ctx.temp.clone(),
            tallies: ctx.spill_tallies(),
            spill: None,
            total: 0,
            cap: ctx.gov.mem_limit().map(|l| l / 4),
            class,
        }
    }

    pub(crate) fn push(&mut self, row: Row) -> Result<()> {
        self.total += 1;
        let cost = row_cost(&row);
        if self.spill.is_none()
            && self.cap.is_none_or(|c| self.charge.bytes() + cost <= c)
            && self.charge.try_grow(cost)
        {
            self.rows.push(row);
            return Ok(());
        }
        if self.spill.is_none() {
            self.spill = Some(
                self.temp
                    .create_spill_class(self.tallies.clone(), self.class)?,
            );
        }
        match self.spill.as_mut() {
            Some(writer) => write_spill_row(writer, &row),
            None => Err(DbError::Execution("output spill writer missing".into())),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub(crate) fn into_rows(self) -> Result<OutputRows> {
        let spilled = match self.spill {
            Some(writer) => Some(SpillRowIter::new(writer.finish()?)),
            None => None,
        };
        Ok(OutputRows {
            in_mem: self.rows.into_iter(),
            _charge: Some(self.charge),
            spilled,
            total: self.total,
        })
    }
}

/// Streams an [`OutputBuffer`]'s rows back out: the in-memory prefix
/// first, then any spilled overflow. Holds the buffer's memory charge
/// until dropped (the spill file deletes itself with its reader).
pub(crate) struct OutputRows {
    in_mem: std::vec::IntoIter<Row>,
    _charge: Option<MemCharge>,
    spilled: Option<SpillRowIter>,
    total: usize,
}

impl OutputRows {
    /// A purely in-memory, uncharged row stream (for synthesized rows
    /// like the empty-input global aggregate).
    pub(crate) fn from_vec(rows: Vec<Row>) -> OutputRows {
        let total = rows.len();
        OutputRows {
            in_mem: rows.into_iter(),
            _charge: None,
            spilled: None,
            total,
        }
    }

    /// Whether the stream was built from no rows at all; rows already
    /// yielded still count.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub(crate) fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(row) = self.in_mem.next() {
            return Ok(Some(row));
        }
        match self.spilled.as_mut() {
            Some(s) => s.next_row(),
            None => Ok(None),
        }
    }
}

/// Governed hash aggregation with graceful degradation: when the memory
/// budget runs out, rows for groups already in memory keep aggregating in
/// place, while rows for *new* groups are spilled to hash partitions in
/// `storage::tempspace` (raw input rows — `Box<dyn AggState>` has no
/// serialized form). After the input drains, in-memory groups are
/// emitted, their memory released, and each partition is aggregated
/// recursively with a re-salted hash. This is the hybrid-hash analogue
/// of SQL Server's Hash Match spilling to tempdb. The finished rows stay
/// inside their governed [`OutputRows`] stream: the in-memory prefix
/// stays charged against the budget and the overflow streams from its
/// spill file.
pub(crate) fn aggregate_governed_rows(
    input: &mut dyn RowIterator,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<OutputRows> {
    let mut out = OutputBuffer::new(ctx);
    aggregate_level(input, group_exprs, aggs, ctx, 0, &mut out)?;
    out.into_rows()
}

/// One pass of the hybrid hash aggregation. Groups that fit the budget
/// aggregate in memory; overflow rows partition to tempspace and recurse
/// with a re-salted hash.
fn aggregate_level(
    input: &mut dyn RowIterator,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    depth: u32,
    out: &mut OutputBuffer,
) -> Result<()> {
    let mut charge = MemCharge::new(ctx.gov.clone());
    let (groups, partitions) =
        aggregate_partial_spilling(input, group_exprs, aggs, &mut charge, ctx, depth)?;
    for (key, states) in groups.into_groups() {
        out.push(finish_group(key, states, aggs)?)?;
    }
    charge.release_all();

    for writer in partitions.into_iter().flatten() {
        let mut part = SpillRowIter::new(writer.finish()?);
        aggregate_level(&mut part, group_exprs, aggs, ctx, depth + 1, out)?;
    }
    Ok(())
}

/// Hash-aggregate an input into a map, spilling rows for new groups to
/// hash partitions once the budget is exhausted instead of failing. The
/// one group loop of both [`aggregate_level`] and the parallel workers.
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
    let mut ticker = Ticker::new();
    let mut groups = GroupedStates::default();
    // Once the budget rejects one group, *all* further new groups go to
    // the spill. Without this the budget could free up mid-stream and
    // admit a key whose earlier rows were already spilled, emitting that
    // group twice.
    let mut spilling = false;
    let mut partitions: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    // Reused across rows and batches: a row's evaluated group key, and
    // each selected row's group slot in the current batch.
    let mut key: Vec<Value> = Vec::with_capacity(group_exprs.len());
    let mut slots: Vec<usize> = Vec::new();

    while let Some(batch) = input.next_batch(ctx.batch_size)? {
        // One governor tick per batch instead of per row.
        ticker.tick_batch(&ctx.gov)?;
        // The batch is read through its selection vector, so
        // filtered-out rows are never compacted or moved.
        slots.clear();
        if group_exprs.is_empty() && groups.len() == 1 {
            // No GROUP BY and the one global group is resident.
            slots.resize(batch.len(), 0);
        } else {
            for row in batch.iter() {
                eval_into(group_exprs, row, &mut key)?;
                if let Some(&slot) = groups.slots.get(key.as_slice()) {
                    slots.push(slot);
                    continue;
                }
                let cost = group_cost(&key, aggs.len());
                if !spilling && charge.try_grow(cost) {
                    // Room for the results too: the key becomes the
                    // group's output row.
                    let mut owned = Vec::with_capacity(key.len() + aggs.len());
                    owned.extend_from_slice(&key);
                    slots.push(groups.insert(owned, create_states(aggs)?));
                    continue;
                }
                if depth >= MAX_SPILL_DEPTH {
                    return Err(DbError::ResourceExhausted(format!(
                        "hash aggregate exceeded its memory budget with no \
                         repartition pass left (at most {MAX_SPILL_DEPTH})"
                    )));
                }
                spilling = true;
                let p = partition_of(&key, depth);
                if partitions[p].is_none() {
                    partitions[p] = Some(ctx.create_spill()?);
                }
                if let Some(writer) = partitions[p].as_mut() {
                    write_spill_row(writer, row)?;
                }
                slots.push(SPILLED);
            }
        }
        for (agg, spec) in aggs.iter().enumerate() {
            spec.update_batch(agg, &mut groups.states, &batch, &slots)?;
        }
    }
    Ok((groups, partitions))
}

/// Merge one group's partial states into an accumulator's states (UDA
/// `Merge` under panic protection).
fn merge_group(
    acc: &mut [Box<dyn AggState>],
    partial: Vec<Box<dyn AggState>>,
    aggs: &[AggSpec],
) -> Result<()> {
    for ((a, p), spec) in acc.iter_mut().zip(partial).zip(aggs) {
        protect(spec.factory.name(), || a.merge(p))?;
    }
    Ok(())
}

/// Finish one group into an output row (UDA `Terminate` under panic
/// protection).
pub(crate) fn finish_group(
    key: Vec<Value>,
    states: Vec<Box<dyn AggState>>,
    aggs: &[AggSpec],
) -> Result<Row> {
    let mut vals = key;
    for (mut s, spec) in states.into_iter().zip(aggs) {
        vals.push(protect(spec.factory.name(), || s.finish())?);
    }
    Ok(Row::new(vals))
}

/// What a global aggregate (no GROUP BY) over empty input still yields:
/// one row of fresh states' results.
pub(crate) fn empty_global_row(aggs: &[AggSpec]) -> Result<Row> {
    finish_group(Vec::new(), create_states(aggs)?, aggs)
}

/// Blocking hash aggregate. Output order is unspecified (like SQL).
/// Governed: over-budget runs degrade by spilling to tempspace (see
/// `aggregate_governed_rows`).
pub struct HashAggIter {
    input: Option<BoxedIter>,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    ctx: ExecContext,
    output: Option<OutputRows>,
}

impl HashAggIter {
    pub fn new(
        input: BoxedIter,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        ctx: ExecContext,
    ) -> HashAggIter {
        HashAggIter {
            input: Some(input),
            group_exprs,
            aggs,
            ctx,
            output: None,
        }
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let rows =
                aggregate_governed_rows(input.as_mut(), &self.group_exprs, &self.aggs, &self.ctx)?;
            if rows.is_empty() && self.group_exprs.is_empty() {
                let row = empty_global_row(&self.aggs)?;
                self.output = Some(OutputRows::from_vec(vec![row]));
            } else {
                self.output = Some(rows);
            }
        }
        match self.output.as_mut() {
            Some(rows) => rows.next_row(),
            None => Ok(None),
        }
    }
}

impl RowIterator for HashAggIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

/// Streaming aggregate over input already sorted by the group
/// expressions. Non-blocking: emits each group as soon as the key
/// changes, holding only one group's state.
///
/// It folds whole input batches, allocating nothing per row: each row's
/// key is evaluated into one reused buffer, each run of equal keys gets
/// one slot, and every aggregate folds the batch by slot through the hash
/// aggregate's fold, `AggSpec::update_batch`.
pub struct StreamAggIter {
    input: BoxedIter,
    batch_size: usize,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    /// Keys and states of the groups the current batch touches, in input
    /// order. Between batches it holds only the in-flight group, which
    /// the next batch's first run continues.
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<Box<dyn AggState>>>,
    /// Reused across rows and batches: a row's evaluated group key, and
    /// each selected row's slot in `keys` / `states`.
    key: Vec<Value>,
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
            key: Vec::new(),
            slots: Vec::new(),
            charge: MemCharge::new(gov),
            done: false,
            saw_rows: false,
        }
    }

    /// Fold one input batch, then finish into `out` every group the batch
    /// completed: all but the last, which stays in flight.
    fn fold_batch(&mut self, batch: &RowBatch, out: &mut Vec<Row>) -> Result<()> {
        self.slots.clear();
        for row in batch.iter() {
            eval_into(&self.group_exprs, row, &mut self.key)?;
            if self.keys.last() != Some(&self.key) {
                // Group boundary (or very first group): the new group's
                // charge replaces the finished one's — one group at a
                // time keeps the operator near-constant-space.
                self.charge.release_all();
                self.charge.grow(group_cost(&self.key, self.aggs.len()))?;
                self.states.push(create_states(&self.aggs)?);
                self.keys.push(self.key.clone());
            }
            self.slots.push(self.keys.len() - 1);
        }
        for (agg, spec) in self.aggs.iter().enumerate() {
            spec.update_batch(agg, &mut self.states, batch, &self.slots)?;
        }
        let finished = self.keys.len().saturating_sub(1);
        for (key, states) in self
            .keys
            .drain(..finished)
            .zip(self.states.drain(..finished))
        {
            out.push(finish_group(key, states, &self.aggs)?);
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
                    self.fold_batch(&batch, &mut out)?;
                }
                None => {
                    self.done = true;
                    self.charge.release_all();
                    if let (Some(key), Some(states)) = (self.keys.pop(), self.states.pop()) {
                        out.push(finish_group(key, states, &self.aggs)?);
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
        groups
            .into_groups()
            .map(|(key, states)| finish_group(key, states, &specs()).unwrap())
            .collect()
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
