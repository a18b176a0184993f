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
use seqdb_types::{DbError, Result, Row, Value};

use crate::exec::rowser;
use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator};
use crate::expr::Expr;
use crate::governor::{MemCharge, QueryGovernor};
use crate::udx::{protect, AggState, Aggregate};

/// Estimated heap overhead per aggregate state (box + accumulator).
const STATE_OVERHEAD: usize = 64;
/// Estimated hash-map entry overhead per group.
const GROUP_OVERHEAD: usize = 48;
/// Fan-out of one hash-agg spill pass.
pub(crate) const SPILL_PARTITIONS: usize = 4;
/// Recursion bound for repartitioning; beyond this the budget is simply
/// too small for the data and the query fails with `ResourceExhausted`.
const MAX_SPILL_DEPTH: u32 = 6;
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

    /// Fresh accumulator, with the UDA's `Init` under panic protection.
    fn create_state(&self) -> Result<Box<dyn AggState>> {
        protect(self.factory.name(), || Ok(self.factory.create()))
    }

    fn update(&self, state: &mut Box<dyn AggState>, row: &Row) -> Result<()> {
        if self.args.is_empty() {
            protect(self.factory.name(), || state.update(&[]))
        } else {
            let vals: Vec<Value> = self
                .args
                .iter()
                .map(|e| e.eval(row))
                .collect::<Result<_>>()?;
            protect(self.factory.name(), || state.update(&vals))
        }
    }

    /// Batched counterpart of [`AggSpec::update`]: fold a whole run of
    /// rows into one state under a *single* panic guard, reusing one
    /// argument scratch, instead of a `catch_unwind` and an argument
    /// `Vec` per row.
    fn update_run(&self, state: &mut Box<dyn AggState>, batch: &RowBatch) -> Result<()> {
        if self.args.is_empty() {
            // Argument-free runs collapse to one accumulator call
            // (`COUNT(*)` over a batch adds the run length).
            return protect(self.factory.name(), || {
                state.update_n(&[], batch.len() as u64)
            });
        }
        // A single bare-column argument feeds the stored value straight to
        // the accumulator: no expression dispatch, no per-row clone.
        if let [Expr::Column { index, name }] = self.args.as_slice() {
            let col = *index;
            return protect(self.factory.name(), || {
                for row in batch.iter() {
                    let v = row.get(col).ok_or_else(|| {
                        DbError::Execution(format!(
                            "column {name} (#{col}) out of range for row of {} values",
                            row.len()
                        ))
                    })?;
                    state.update(std::slice::from_ref(v))?;
                }
                Ok(())
            });
        }
        let mut vals: Vec<Value> = Vec::with_capacity(self.args.len());
        protect(self.factory.name(), || {
            for row in batch.iter() {
                crate::expr::eval_into(&self.args, row, &mut vals)?;
                state.update(&vals)?;
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
pub(crate) fn group_cost(key: &[Value], naggs: usize) -> usize {
    key_bytes(key) + naggs * STATE_OVERHEAD + GROUP_OVERHEAD
}

/// Grouped aggregation state: group key -> one state per aggregate.
pub type GroupedStates = HashMap<Vec<Value>, Vec<Box<dyn AggState>>>;

/// Evaluate the grouping key of a row.
pub fn group_key(group_exprs: &[Expr], row: &Row) -> Result<Vec<Value>> {
    group_exprs.iter().map(|e| e.eval(row)).collect()
}

/// Build and run a hash-aggregation over an entire input, returning the
/// grouped states. Shared by the parallel partial plan in
/// [`crate::parallel`] and the recursion base of the governed serial
/// operator. New groups are charged against `charge`; with no spill path
/// here, exhaustion fails with [`DbError::ResourceExhausted`]. The caller
/// keeps `charge` alive for as long as the returned map exists.
pub fn aggregate_into_map(
    input: &mut RowCursor,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    charge: &mut MemCharge,
) -> Result<GroupedStates> {
    let mut groups: GroupedStates = HashMap::new();
    while let Some(row) = input.next()? {
        let key = group_key(group_exprs, &row)?;
        let states = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                charge.grow(group_cost(e.key(), aggs.len()))?;
                e.insert(create_states(aggs)?)
            }
        };
        for (spec, state) in aggs.iter().zip(states.iter_mut()) {
            spec.update(state, &row)?;
        }
    }
    Ok(groups)
}

/// Merge a partial aggregation map into an accumulator map (the "final"
/// side of a parallel aggregate). UDA `Merge` runs under panic
/// protection; `aggs` supplies the function names for error reporting.
pub fn merge_maps(into: &mut GroupedStates, from: GroupedStates, aggs: &[AggSpec]) -> Result<()> {
    for (key, states) in from {
        match into.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(states);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for ((acc, part), spec) in e.get_mut().iter_mut().zip(states).zip(aggs) {
                    protect(spec.factory.name(), || acc.merge(part))?;
                }
            }
        }
    }
    Ok(())
}

/// Turn a finished group map into output rows (group values then
/// aggregate results). UDA `Terminate` runs under panic protection.
pub fn finish_map(groups: GroupedStates, aggs: &[AggSpec]) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        out.push(finish_group(key, states, aggs)?);
    }
    Ok(out)
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

/// Append one rowser-framed row to a spill partition (same u32-length
/// framing as the external sort's runs).
pub(crate) fn write_spill_row(w: &mut SpillWriter, row: &Row) -> Result<()> {
    thread_local! {
        // One frame buffer per worker thread: spilling a row allocates
        // nothing in the steady state.
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        rowser::frame_row(&mut buf, row);
        w.write_all(&buf)
    })
}

/// Iterate rows back out of a finished spill partition.
pub(crate) struct SpillRowIter {
    reader: SpillReader,
    /// Reused frame buffer; reading a spilled row back allocates only
    /// what the row's own values need.
    payload: Vec<u8>,
}

impl SpillRowIter {
    pub(crate) fn new(reader: SpillReader) -> SpillRowIter {
        SpillRowIter {
            reader,
            payload: Vec::new(),
        }
    }
}

impl SpillRowIter {
    pub(crate) fn next_row(&mut self) -> Result<Option<Row>> {
        let mut lenbuf = [0u8; 4];
        if !self.reader.read_exact(&mut lenbuf)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(lenbuf) as usize;
        self.payload.resize(len, 0);
        if !self.reader.read_exact(&mut self.payload)? {
            return Err(DbError::Storage("truncated aggregate spill".into()));
        }
        let mut pos = 0;
        Ok(Some(rowser::read_row(&self.payload, &mut pos)?))
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
    // Phase budgeting: the buffer takes at most a quarter of the query
    // budget, so it can never starve the hash tables of the repartition
    // passes that still have rows to aggregate (which would turn a
    // spillable query into a depth-exhaustion failure).
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
        let cap = ctx.gov.mem_limit().map(|l| l / 4);
        OutputBuffer::with_class_capped(ctx, class, cap)
    }

    /// Like [`OutputBuffer::with_class`] but with an explicit memory cap:
    /// concurrent buffers (one per parallel join partition) must split
    /// the output quarter of the budget between them.
    pub(crate) fn with_class_capped(
        ctx: &ExecContext,
        class: WaitClass,
        cap: Option<usize>,
    ) -> OutputBuffer {
        OutputBuffer {
            rows: Vec::new(),
            charge: MemCharge::new(ctx.gov.clone()),
            temp: ctx.temp.clone(),
            tallies: ctx.spill_tallies(),
            spill: None,
            total: 0,
            cap,
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

    /// Total rows this stream will yield (including already-yielded).
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

/// Chain several spill partitions into one row stream (the parallel
/// coordinator reads the same partition index from every worker as one
/// logical partition).
pub(crate) struct ChainRows {
    parts: Vec<SpillRowIter>,
    idx: usize,
}

impl ChainRows {
    pub(crate) fn new(parts: Vec<SpillRowIter>) -> ChainRows {
        ChainRows { parts, idx: 0 }
    }
}

impl RowIterator for ChainRows {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || {
            while let Some(part) = self.parts.get_mut(self.idx) {
                if let Some(row) = part.next_row()? {
                    return Ok(Some(row));
                }
                self.idx += 1;
            }
            Ok(None)
        })
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
    let mut resident = GroupedStates::new();
    aggregate_level(input, group_exprs, aggs, ctx, 0, &mut resident, &mut out)?;
    out.into_rows()
}

/// One pass of the hybrid hash aggregation. Groups that fit the budget
/// aggregate in memory; overflow rows partition to tempspace and recurse
/// with a re-salted hash. `resident` is the parallel coordinator's merged
/// worker map: a spilled key that *also* lives there (one worker kept it
/// in memory while another spilled it) must merge into the resident
/// states instead of being emitted — emitting both would double that
/// group. The serial path passes an empty resident map.
pub(crate) fn aggregate_level(
    input: &mut dyn RowIterator,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    depth: u32,
    resident: &mut GroupedStates,
    out: &mut OutputBuffer,
) -> Result<()> {
    let mut charge = MemCharge::new(ctx.gov.clone());
    let (mut groups, partitions) = aggregate_partial_spilling(
        input,
        group_exprs,
        aggs,
        &mut charge,
        &ctx.temp,
        &ctx.spill_tallies(),
        Some(&ctx.gov),
        None,
        depth,
        ctx.batch_size,
    )?;

    // Emit this level's finished groups — except keys the coordinator is
    // still accumulating in its resident map, which merge there instead.
    for (key, states) in groups.drain() {
        if let Some(acc) = resident.get_mut(&key) {
            merge_group(acc, states, aggs)?;
        } else {
            out.push(finish_group(key, states, aggs)?)?;
        }
    }
    charge.release_all();

    for writer in partitions.into_iter().flatten() {
        let mut part = SpillRowIter::new(writer.finish()?);
        aggregate_level(&mut part, group_exprs, aggs, ctx, depth + 1, resident, out)?;
    }
    Ok(())
}

/// Hash-aggregate an input into a map, spilling rows for new groups to
/// hash partitions once the budget is exhausted instead of failing. This
/// is the budget-respecting core shared by [`aggregate_level`] and the
/// parallel workers (which run it at depth 0 and hand their partitions
/// to the coordinator). At [`MAX_SPILL_DEPTH`] the budget is simply too
/// small and the query fails typed. The caller keeps `charge` alive for
/// as long as the returned map exists.
///
/// `cap` bounds this call's own charge below the governor limit. The
/// parallel workers pass their per-worker share of half the budget so
/// that the coordinator's final phase (which must hold the merged worker
/// map while it re-aggregates the spills) is never starved; recursion
/// levels pass `None` and use whatever the governor still has.
#[allow(clippy::too_many_arguments)]
pub(crate) fn aggregate_partial_spilling(
    input: &mut dyn RowIterator,
    group_exprs: &[Expr],
    aggs: &[AggSpec],
    charge: &mut MemCharge,
    temp: &Arc<TempSpace>,
    tallies: &[Arc<SpillTally>],
    gov: Option<&Arc<QueryGovernor>>,
    cap: Option<usize>,
    depth: u32,
    batch_size: usize,
) -> Result<(GroupedStates, Vec<Option<SpillWriter>>)> {
    let mut ticker = crate::governor::Ticker::new();
    let mut groups: GroupedStates = HashMap::new();
    // Once the budget rejects one group, *all* further new groups go to
    // the spill. Without this the budget could free up mid-stream and
    // admit a key whose earlier rows were already spilled, emitting that
    // group twice.
    let mut spilling = false;
    let mut partitions: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();

    while let Some(batch) = input.next_batch(batch_size)? {
        // One governor tick per batch instead of per row.
        if let Some(gov) = gov {
            ticker.tick_batch(gov)?;
        }
        // No grouping: the whole run belongs to the single global group,
        // so probe the map and enter the panic guard once per batch
        // instead of once per row. The batch is consumed through its
        // selection vector, so filtered-out rows are never compacted or
        // moved.
        if group_exprs.is_empty() && !spilling {
            let cost = group_cost(&[], aggs.len());
            let admitted = groups.contains_key(&Vec::new())
                || (cap.is_none_or(|c| charge.bytes() + cost <= c) && charge.try_grow(cost));
            if admitted {
                let states = match groups.entry(Vec::new()) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => e.insert(create_states(aggs)?),
                };
                for (spec, state) in aggs.iter().zip(states.iter_mut()) {
                    spec.update_run(state, &batch)?;
                }
                continue;
            }
        }
        for row in batch.into_rows() {
            let key = group_key(group_exprs, &row)?;
            if let Some(states) = groups.get_mut(&key) {
                for (spec, state) in aggs.iter().zip(states.iter_mut()) {
                    spec.update(state, &row)?;
                }
                continue;
            }
            let cost = group_cost(&key, aggs.len());
            if !spilling && cap.is_none_or(|c| charge.bytes() + cost <= c) && charge.try_grow(cost)
            {
                let states = groups.entry(key).or_insert(create_states(aggs)?);
                for (spec, state) in aggs.iter().zip(states.iter_mut()) {
                    spec.update(state, &row)?;
                }
            } else {
                if depth >= MAX_SPILL_DEPTH {
                    return Err(DbError::ResourceExhausted(format!(
                        "hash aggregate exceeded its memory budget even after \
                         {MAX_SPILL_DEPTH} repartition passes"
                    )));
                }
                spilling = true;
                let p = partition_of(&key, depth);
                if partitions[p].is_none() {
                    partitions[p] = Some(temp.create_spill_tallied(tallies.to_vec())?);
                }
                if let Some(writer) = partitions[p].as_mut() {
                    write_spill_row(writer, &row)?;
                }
            }
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
fn finish_group(key: Vec<Value>, states: Vec<Box<dyn AggState>>, aggs: &[AggSpec]) -> Result<Row> {
    let mut vals = key;
    for (mut s, spec) in states.into_iter().zip(aggs) {
        vals.push(protect(spec.factory.name(), || s.finish())?);
    }
    Ok(Row::new(vals))
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
                // Global aggregate over empty input still yields one row.
                let mut vals = Vec::new();
                for a in &self.aggs {
                    let mut s = a.create_state()?;
                    vals.push(protect(a.factory.name(), || s.finish())?);
                }
                self.output = Some(OutputRows::from_vec(vec![Row::new(vals)]));
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
/// One in-flight group of a streaming aggregate.
type CurrentGroup = (Vec<Value>, Vec<Box<dyn AggState>>);

pub struct StreamAggIter {
    input: RowCursor,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    current: Option<CurrentGroup>,
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
            input: RowCursor::new(input, batch_size),
            group_exprs,
            aggs,
            current: None,
            charge: MemCharge::new(gov),
            done: false,
            saw_rows: false,
        }
    }

    /// Start a new in-flight group, accounting its state against the
    /// budget (one group at a time — this is what keeps the stream
    /// aggregate non-blocking and near-constant-space).
    fn open_group(&mut self, key: &[Value]) -> Result<Vec<Box<dyn AggState>>> {
        self.charge.release_all();
        self.charge.grow(group_cost(key, self.aggs.len()))?;
        create_states(&self.aggs)
    }

    fn emit(&mut self, key: Vec<Value>, states: Vec<Box<dyn AggState>>) -> Result<Row> {
        let mut vals = key;
        for (mut s, spec) in states.into_iter().zip(&self.aggs) {
            vals.push(protect(spec.factory.name(), || s.finish())?);
        }
        Ok(Row::new(vals))
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        loop {
            match self.input.next()? {
                Some(row) => {
                    self.saw_rows = true;
                    let key = group_key(&self.group_exprs, &row)?;
                    let same_group = matches!(&self.current, Some((ckey, _)) if *ckey == key);
                    if same_group {
                        if let Some((_, states)) = &mut self.current {
                            for (spec, state) in self.aggs.iter().zip(states.iter_mut()) {
                                spec.update(state, &row)?;
                            }
                        }
                    } else {
                        // Group boundary (or very first group): start the
                        // new group, then emit the finished one if any.
                        let prev = self.current.take();
                        let mut states = self.open_group(&key)?;
                        for (spec, state) in self.aggs.iter().zip(states.iter_mut()) {
                            spec.update(state, &row)?;
                        }
                        self.current = Some((key, states));
                        if let Some((okey, ostates)) = prev {
                            return Ok(Some(self.emit(okey, ostates)?));
                        }
                    }
                }
                None => {
                    self.done = true;
                    self.charge.release_all();
                    if let Some((key, states)) = self.current.take() {
                        return Ok(Some(self.emit(key, states)?));
                    }
                    if !self.saw_rows && self.group_exprs.is_empty() {
                        let mut vals = Vec::new();
                        for a in &self.aggs {
                            let mut s = a.create_state()?;
                            vals.push(protect(a.factory.name(), || s.finish())?);
                        }
                        return Ok(Some(Row::new(vals)));
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl RowIterator for StreamAggIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context};
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

    fn cursor(rows: Vec<Row>) -> RowCursor {
        RowCursor::new(Box::new(ValuesIter::new(rows)), 2)
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
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(rows())),
            vec![Expr::col(0, "g")],
            specs(),
            test_context(),
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
    fn global_aggregate_without_group_by() {
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(rows())),
            vec![],
            specs(),
            test_context(),
        );
        let out = collect(Box::new(it), 1024).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(5));
        assert_eq!(out[0][1], Value::Int(51));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        for blocking in [true, false] {
            let input = Box::new(ValuesIter::new(vec![]));
            let out = if blocking {
                collect(
                    Box::new(HashAggIter::new(input, vec![], specs(), test_context())),
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
        let it = HashAggIter::new(
            Box::new(ValuesIter::new(vec![])),
            vec![Expr::col(0, "g")],
            specs(),
            test_context(),
        );
        assert!(collect(Box::new(it), 1024).unwrap().is_empty());
    }

    #[test]
    fn partial_final_split_equals_single_pass() {
        // The invariant the parallel aggregate relies on.
        let gov = QueryGovernor::unlimited();
        let mut charge = MemCharge::new(gov.clone());
        let all = rows();
        let serial = {
            let mut it = cursor(all.clone());
            aggregate_into_map(&mut it, &[Expr::col(0, "g")], &specs(), &mut charge).unwrap()
        };
        let mut merged = {
            let mut it = cursor(all[..2].to_vec());
            aggregate_into_map(&mut it, &[Expr::col(0, "g")], &specs(), &mut charge).unwrap()
        };
        let part2 = {
            let mut it = cursor(all[2..].to_vec());
            aggregate_into_map(&mut it, &[Expr::col(0, "g")], &specs(), &mut charge).unwrap()
        };
        merge_maps(&mut merged, part2, &specs()).unwrap();
        let a = normalize(finish_map(serial, &specs()).unwrap());
        let b = normalize(finish_map(merged, &specs()).unwrap());
        assert_eq!(a, b);
        drop(charge);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn tight_budget_spills_and_still_aggregates_exactly() {
        // Many distinct groups under a budget that fits only a handful:
        // the hybrid path must spill, recurse, and still produce exactly
        // one correct row per group.
        let mut ctx = test_context();
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
    fn ungoverned_aggregate_into_map_errors_when_exhausted() {
        let gov = QueryGovernor::new(None, Some(256));
        let mut charge = MemCharge::new(gov);
        let input: Vec<Row> = (0..100i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(1)]))
            .collect();
        let mut it = cursor(input);
        let err = match aggregate_into_map(&mut it, &[Expr::col(0, "g")], &specs(), &mut charge) {
            Ok(_) => panic!("expected exhaustion"),
            Err(e) => e,
        };
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
    }
}
