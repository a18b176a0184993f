//! Join operators: hybrid Grace hash join (unordered inputs) and merge
//! join (inputs ordered on the join keys, e.g. via clustered index scans).
//!
//! The paper's consensus query (§5.3.3) joins `Alignment` with `Read` via
//! a *parallel merge join* enabled by clustered indexes — "about 1.6
//! million alignments per second" on warm buffers. [`MergeJoinIter`] is
//! that operator, run on one thread; the planner picks it whenever both
//! sides come from index scans with compatible key prefixes.
//!
//! [`HashJoinIter`] covers the unordered case, and since large genomic
//! joins routinely outgrow a query's workspace grant it degrades the same
//! way the hash aggregate does: once the build side exhausts its
//! [`MemCharge`], further build rows partition to `storage::tempspace`
//! with the salted hash of `exec::agg::partition_of`. Probe rows
//! stream against the resident table and are routed to the matching spill
//! partition; partition pairs then join one after another, recursively
//! with a re-salted hash. A join that never spills emits its rows in
//! probe order, which the planner relies on for order-sensitive
//! aggregates. A compact
//! Bloom filter over every build key lets probe rows that cannot match
//! skip both the lookup and the partition write, so a spilling join does
//! no I/O for probe rows that would never find a partner.

use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use seqdb_storage::tempspace::{SpillReader, SpillWriter};
use seqdb_storage::WaitClass;
use seqdb_types::{DbError, Result, Row, Value};

use crate::exec::agg::{
    partition_of, write_spill_row, FxBuild, OutputBuffer, OutputRows, SpillRowIter,
    SPILL_PARTITIONS,
};

use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator};
use crate::expr::{eval_into, Expr};
use crate::governor::{MemCharge, Ticker};

fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// Keys containing NULL never match (SQL equi-join semantics).
fn key_joinable(k: &[Value]) -> bool {
    !k.iter().any(Value::is_null)
}

/// Recursion bound for join repartitioning, mirroring the hash
/// aggregate's: beyond this the budget is simply too small for the data
/// and the query fails with `ResourceExhausted`.
const MAX_JOIN_SPILL_DEPTH: u32 = 6;
/// Heap held per resident build row beyond its values: its `Row` header
/// in the arena and its `next` link, plus one map entry (key `Vec`
/// header and first/last indices). Only a row that opens a new key adds
/// a map entry, so duplicate keys are charged conservatively.
const JOIN_ENTRY_OVERHEAD: usize = std::mem::size_of::<Row>()
    + std::mem::size_of::<usize>()
    + std::mem::size_of::<(Vec<Value>, (usize, usize))>();
/// Above this many spilled build rows the Bloom filter is abandoned:
/// it must stay conservative (no false negatives), and an unbounded
/// hash list would defeat the point of spilling.
const BLOOM_MAX_KEYS: usize = 1 << 20;
/// Salt distinguishing Bloom hashes from the depth-salted partition
/// hashes (a `u32` depth can never equal this).
const BLOOM_SALT: u64 = 0xb100_f117_e25a_17ed;

/// Memory cost charged for one resident build row.
fn join_entry_cost(key: &[Value], row: &Row) -> usize {
    let key_bytes: usize = key.iter().map(|v| v.size_bytes()).sum();
    key_bytes + row.size_bytes() + JOIN_ENTRY_OVERHEAD
}

fn bloom_hash(key: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    BLOOM_SALT.hash(&mut h);
    key.hash(&mut h);
    h.finish()
}

/// Blocked two-probe Bloom filter over build-key hashes. Conservative by
/// construction: every build key is inserted, so `contains == false`
/// proves the probe key has no partner.
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    fn with_capacity(nkeys: usize) -> Bloom {
        let nbits = nkeys.saturating_mul(10).next_power_of_two().max(64);
        Bloom {
            bits: vec![0u64; nbits / 64],
            mask: (nbits - 1) as u64,
        }
    }

    fn positions(&self, h: u64) -> [u64; 2] {
        let h1 = h & 0xffff_ffff;
        let h2 = h >> 32;
        [h1 & self.mask, h1.wrapping_add(h2) & self.mask]
    }

    fn insert(&mut self, h: u64) {
        for p in self.positions(h) {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    fn contains(&self, h: u64) -> bool {
        self.positions(h)
            .iter()
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }
}

/// Collects spilled build-key hashes during the build phase; turned into
/// a [`Bloom`] (together with the resident keys) only if spilling
/// actually happened, so resident-only joins pay nothing.
struct BloomTracker {
    hashes: Vec<u64>,
    disabled: bool,
}

impl BloomTracker {
    fn new() -> BloomTracker {
        BloomTracker {
            hashes: Vec::new(),
            disabled: false,
        }
    }

    fn note(&mut self, h: u64) {
        if self.disabled {
            return;
        }
        if self.hashes.len() >= BLOOM_MAX_KEYS {
            self.disabled = true;
            self.hashes = Vec::new();
            return;
        }
        self.hashes.push(h);
    }

    fn build<'a>(self, resident: impl ExactSizeIterator<Item = &'a Vec<Value>>) -> Option<Bloom> {
        if self.disabled {
            return None;
        }
        let mut bloom = Bloom::with_capacity(self.hashes.len() + resident.len());
        for h in &self.hashes {
            bloom.insert(*h);
        }
        for key in resident {
            bloom.insert(bloom_hash(key));
        }
        Some(bloom)
    }
}

/// End of a [`BuildTable`] key chain.
const CHAIN_END: usize = usize::MAX;

/// The resident build side as an arena: every row in one `Vec`, in
/// build-input order, and per join key the arena indices of its first
/// and last row. `next` chains each row to the following row of its key,
/// so a key's matches come back in build-input order without a `Vec`
/// per key or an allocation per row. The resident join, the spilled
/// partition pairs and the Bloom filter's key pass all use it.
#[derive(Default)]
struct BuildTable {
    rows: Vec<Row>,
    next: Vec<usize>,
    heads: HashMap<Vec<Value>, (usize, usize), FxBuild>,
}

impl BuildTable {
    fn insert(&mut self, key: &[Value], row: Row) {
        let idx = self.rows.len();
        self.rows.push(row);
        self.next.push(CHAIN_END);
        // get_mut-first: duplicate keys (the common case in fact tables)
        // skip the owned-key clone entirely.
        if let Some((_, last)) = self.heads.get_mut(key) {
            self.next[*last] = idx;
            *last = idx;
        } else {
            self.heads.insert(key.to_vec(), (idx, idx));
        }
    }

    /// The build rows with join key `key`, in build-input order.
    fn matches(&self, key: &[Value]) -> impl Iterator<Item = &Row> + '_ {
        let mut at = self.heads.get(key).map_or(CHAIN_END, |&(first, _)| first);
        std::iter::from_fn(move || {
            let row = self.rows.get(at)?;
            at = self.next[at];
            Some(row)
        })
    }

    fn keys(&self) -> impl ExactSizeIterator<Item = &Vec<Value>> {
        self.heads.keys()
    }
}

/// Everything the recursive partition phase needs. The context is the
/// one the join node was opened with, so its spills attribute to the
/// join's stats slot.
struct JoinEnv {
    build_keys: Vec<Expr>,
    probe_keys: Vec<Expr>,
    probe_first: bool,
    ctx: ExecContext,
}

impl JoinEnv {
    /// Output row for one (build, probe) match. `probe_first` restores
    /// the plan's `left ++ right` column order when the binder swapped
    /// the smaller right side onto the build.
    fn emit(&self, build: &Row, probe: &Row) -> Row {
        if self.probe_first {
            probe.concat(build)
        } else {
            build.concat(probe)
        }
    }
}

/// Consume `next_row` into a resident [`BuildTable`], degrading to salted
/// hash partitions once `charge` rejects a row. Spill mode is sticky *per
/// row*, not per key: unlike the hash aggregate, every build row costs
/// memory, so after the first rejection all further rows spill — a key's
/// rows may therefore be split between the resident map and one
/// partition. Correct because each build row lives in exactly one place
/// and probe rows visit both.
fn build_table(
    mut next_row: impl FnMut() -> Result<Option<Row>>,
    env: &JoinEnv,
    depth: u32,
    charge: &mut MemCharge,
    mut bloom: Option<&mut BloomTracker>,
) -> Result<(BuildTable, Vec<Option<SpillWriter>>)> {
    let mut ticker = Ticker::new();
    let mut table = BuildTable::default();
    let mut spilling = false;
    let mut parts: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    let mut key: Vec<Value> = Vec::new();
    while let Some(row) = next_row()? {
        ticker.tick(&env.ctx.gov)?;
        eval_into(&env.build_keys, &row, &mut key)?;
        if !key_joinable(&key) {
            continue;
        }
        let cost = join_entry_cost(&key, &row);
        if !spilling && charge.try_grow(cost) {
            table.insert(&key, row);
        } else {
            if depth >= MAX_JOIN_SPILL_DEPTH {
                return Err(DbError::ResourceExhausted(format!(
                    "hash join build side exceeded its memory budget even after \
                     {MAX_JOIN_SPILL_DEPTH} repartition passes"
                )));
            }
            spilling = true;
            if let Some(tracker) = bloom.as_deref_mut() {
                tracker.note(bloom_hash(&key));
            }
            let p = partition_of(&key, depth);
            if parts[p].is_none() {
                parts[p] = Some(env.ctx.create_join_spill()?);
            }
            if let Some(writer) = parts[p].as_mut() {
                write_spill_row(writer, &row)?;
            }
        }
    }
    Ok((table, parts))
}

/// Join one spilled partition pair, recursing on sub-partitions when the
/// build side still doesn't fit. The build takes whatever the governor
/// has left; matches push into `out`, which spills its own overflow once
/// it holds a quarter of the query budget.
fn join_spilled(
    build: SpillReader,
    probe: SpillReader,
    env: &JoinEnv,
    depth: u32,
    out: &mut OutputBuffer,
) -> Result<()> {
    let gov = env.ctx.gov.clone();
    let mut charge = MemCharge::new(gov.clone());
    let mut build_rows = SpillRowIter::new(build);
    let (table, sub_build) = build_table(|| build_rows.next_row(), env, depth, &mut charge, None)?;
    drop(build_rows); // done with the build partition file; delete it

    let mut sub_probe: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    let mut probe_rows = SpillRowIter::new(probe);
    let mut ticker = Ticker::new();
    let mut key: Vec<Value> = Vec::new();
    while let Some(row) = probe_rows.next_row()? {
        ticker.tick(&gov)?;
        eval_into(&env.probe_keys, &row, &mut key)?;
        if !key_joinable(&key) {
            continue;
        }
        for b in table.matches(&key) {
            out.push(env.emit(b, &row))?;
        }
        let p = partition_of(&key, depth);
        if sub_build[p].is_some() {
            if sub_probe[p].is_none() {
                sub_probe[p] = Some(env.ctx.create_join_spill()?);
            }
            if let Some(writer) = sub_probe[p].as_mut() {
                write_spill_row(writer, &row)?;
            }
        }
    }
    drop(probe_rows);
    drop(table);
    charge.release_all();

    for (bw, pw) in sub_build.into_iter().zip(sub_probe) {
        if let (Some(bw), Some(pw)) = (bw, pw) {
            join_spilled(bw.finish()?, pw.finish()?, env, depth + 1, out)?;
        }
        // An unpaired build partition has no probe rows hashing into it
        // (or vice versa): dropping the writer deletes the file.
    }
    Ok(())
}

enum JoinState {
    /// Consuming the build input.
    Build,
    /// Streaming probe rows against the resident table, routing overflow.
    Probe,
    /// Draining the partition phase's joined output.
    Drain,
}

/// Inner equi hash join: hybrid Grace. Builds on the `build` input,
/// probes with `probe`, emits `left ++ right` rows (`probe_first` says
/// which side is the plan's left).
///
/// The resident build table is charged byte-for-byte against the query's
/// memory budget; on exhaustion the operator degrades to spilled
/// partition pairs joined recursively after the probe drains. All
/// charges release and all partition files delete on drop, including
/// mid-stream cancellation.
pub struct HashJoinIter {
    build: Option<RowCursor>,
    probe: BoxedIter,
    env: JoinEnv,
    state: JoinState,
    table: BuildTable,
    charge: MemCharge,
    bloom: Option<Bloom>,
    build_parts: Vec<Option<SpillWriter>>,
    probe_parts: Vec<Option<SpillWriter>>,
    /// Output rows already joined for consumed probe rows. A reused ring
    /// buffer: steady-state probing allocates nothing but the rows.
    ready: VecDeque<Row>,
    /// Reused probe-key buffer (one evaluation per probe row, no alloc).
    key_scratch: Vec<Value>,
    /// Every spilled pair's joined rows, in one governed stream.
    output: Option<OutputRows>,
}

impl HashJoinIter {
    pub fn new(
        build: BoxedIter,
        probe: BoxedIter,
        build_keys: Vec<Expr>,
        probe_keys: Vec<Expr>,
        probe_first: bool,
        ctx: ExecContext,
    ) -> HashJoinIter {
        let charge = MemCharge::new(ctx.gov.clone());
        HashJoinIter {
            build: Some(RowCursor::new(build, ctx.batch_size)),
            probe,
            env: JoinEnv {
                build_keys,
                probe_keys,
                probe_first,
                ctx,
            },
            state: JoinState::Build,
            table: BuildTable::default(),
            charge,
            bloom: None,
            build_parts: Vec::new(),
            probe_parts: Vec::new(),
            ready: VecDeque::new(),
            key_scratch: Vec::new(),
            output: None,
        }
    }

    fn run_build(&mut self) -> Result<()> {
        let mut build = self
            .build
            .take()
            .expect("build input present in Build state");
        let mut tracker = BloomTracker::new();
        let (table, parts) = build_table(
            || build.next(),
            &self.env,
            0,
            &mut self.charge,
            Some(&mut tracker),
        )?;
        if parts.iter().any(Option::is_some) {
            self.bloom = tracker.build(table.keys());
            self.probe_parts = (0..SPILL_PARTITIONS).map(|_| None).collect();
        }
        self.table = table;
        self.build_parts = parts;
        Ok(())
    }

    /// One probe row: route to its spill partition if the build side
    /// spilled there, then join its resident matches into `ready`.
    fn probe_row(&mut self, row: Row) -> Result<()> {
        eval_into(&self.env.probe_keys, &row, &mut self.key_scratch)?;
        let key = &self.key_scratch;
        if !key_joinable(key) {
            return Ok(());
        }
        if let Some(bloom) = &self.bloom {
            if !bloom.contains(bloom_hash(key)) {
                // Provably no partner anywhere: skip lookup and I/O.
                return Ok(());
            }
        }
        // Route before matching: once spilling started, a key's build
        // rows may be split between the resident table and a partition,
        // and the probe row must meet both halves.
        if !self.build_parts.is_empty() {
            let p = partition_of(key, 0);
            if self.build_parts[p].is_some() {
                if self.probe_parts[p].is_none() {
                    self.probe_parts[p] = Some(self.env.ctx.create_join_spill()?);
                }
                if let Some(writer) = self.probe_parts[p].as_mut() {
                    write_spill_row(writer, &row)?;
                }
            }
        }
        for b in self.table.matches(key) {
            self.ready.push_back(self.env.emit(b, &row));
        }
        Ok(())
    }

    /// After the probe drains: free the resident table, then join each
    /// spilled partition pair in turn into one output buffer.
    fn run_partition_phase(&mut self) -> Result<OutputRows> {
        self.table = BuildTable::default();
        self.bloom = None;
        self.charge.release_all();

        let mut out = OutputBuffer::with_class(&self.env.ctx, WaitClass::JoinSpill);
        let build_parts = std::mem::take(&mut self.build_parts);
        let probe_parts = std::mem::take(&mut self.probe_parts);
        // `probe_parts` is empty when the build never spilled.
        for (bw, pw) in build_parts.into_iter().zip(probe_parts) {
            if let (Some(bw), Some(pw)) = (bw, pw) {
                join_spilled(bw.finish()?, pw.finish()?, &self.env, 1, &mut out)?;
            }
        }
        out.into_rows()
    }
}

impl RowIterator for HashJoinIter {
    /// Pull probe *batches*, run each selected row through the per-row
    /// probe (Bloom pre-screen, spill routing, resident lookup), and hand
    /// the joined rows on as a batch; once the probe side is exhausted,
    /// stream the spilled partition pairs' output.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        if matches!(self.state, JoinState::Build) {
            self.run_build()?;
            self.state = JoinState::Probe;
        }
        let max = max_rows.max(1);
        let mut out: Vec<Row> =
            Vec::with_capacity(max.min(crate::exec::ExecContext::DEFAULT_BATCH_SIZE));
        loop {
            while out.len() < max {
                match self.ready.pop_front() {
                    Some(row) => out.push(row),
                    None => break,
                }
            }
            if out.len() >= max {
                return Ok(Some(RowBatch::from_rows(out)));
            }
            match self.state {
                JoinState::Probe => match self.probe.next_batch(max)? {
                    Some(batch) => {
                        for row in batch.into_rows() {
                            self.probe_row(row)?;
                        }
                    }
                    None => {
                        self.output = Some(self.run_partition_phase()?);
                        self.state = JoinState::Drain;
                    }
                },
                JoinState::Drain => {
                    return if out.is_empty() {
                        let rows = self.output.as_mut().expect("output set before Drain");
                        fill_batch(max, || rows.next_row())
                    } else {
                        Ok(Some(RowBatch::from_rows(out)))
                    };
                }
                JoinState::Build => unreachable!("build ran before the loop"),
            }
        }
    }
}

/// Inner merge join over inputs sorted ascending on their join keys.
/// Handles duplicate keys on both sides by buffering the right-side group.
/// Each side's current key is evaluated into a buffer reused row after
/// row, and right rows move into the group rather than being copied.
pub struct MergeJoinIter {
    left: RowCursor,
    right: RowCursor,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    /// The current row of each side (`None` at its end) and its key.
    left_row: Option<Row>,
    left_key: Vec<Value>,
    right_row: Option<Row>,
    right_key: Vec<Value>,
    /// Buffered right rows sharing the current key (for left dups).
    right_group: Vec<Row>,
    right_group_key: Vec<Value>,
    emit_idx: usize,
    started: bool,
}

impl MergeJoinIter {
    pub fn new(
        left: BoxedIter,
        right: BoxedIter,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        batch_size: usize,
    ) -> MergeJoinIter {
        MergeJoinIter {
            left: RowCursor::new(left, batch_size),
            right: RowCursor::new(right, batch_size),
            left_keys,
            right_keys,
            left_row: None,
            left_key: Vec::new(),
            right_row: None,
            right_key: Vec::new(),
            right_group: Vec::new(),
            right_group_key: Vec::new(),
            emit_idx: 0,
            started: false,
        }
    }

    fn advance_left(&mut self) -> Result<()> {
        self.left_row = self.left.next()?;
        if let Some(row) = &self.left_row {
            eval_into(&self.left_keys, row, &mut self.left_key)?;
        }
        Ok(())
    }

    fn advance_right(&mut self) -> Result<()> {
        self.right_row = self.right.next()?;
        if let Some(row) = &self.right_row {
            eval_into(&self.right_keys, row, &mut self.right_key)?;
        }
        Ok(())
    }

    /// Move into `right_group` every right row whose key equals the
    /// current one (the right cursor is positioned at the first such row).
    fn gather_right_group(&mut self) -> Result<()> {
        self.right_group.clear();
        self.right_group_key.clone_from(&self.right_key);
        while self.right_row.is_some()
            && cmp_keys(&self.right_key, &self.right_group_key) == Ordering::Equal
        {
            self.right_group.extend(self.right_row.take());
            self.advance_right()?;
        }
        Ok(())
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            self.advance_left()?;
            self.advance_right()?;
        }
        loop {
            // Emit pending cross-products of the current left row with
            // the buffered right group.
            if self.emit_idx < self.right_group.len() {
                let lrow = self.left_row.as_ref().expect("left row during emit");
                let out = lrow.concat(&self.right_group[self.emit_idx]);
                self.emit_idx += 1;
                return Ok(Some(out));
            }
            // Finished the group for this left row: advance left and see
            // if it matches the same buffered group.
            if !self.right_group.is_empty() {
                self.advance_left()?;
                if self.left_row.is_some()
                    && key_joinable(&self.left_key)
                    && cmp_keys(&self.left_key, &self.right_group_key) == Ordering::Equal
                {
                    self.emit_idx = 0;
                    continue;
                }
                self.right_group.clear();
                self.emit_idx = 0;
            }
            if self.left_row.is_none() || self.right_row.is_none() {
                return Ok(None);
            }
            if !key_joinable(&self.left_key) {
                self.advance_left()?;
                continue;
            }
            if !key_joinable(&self.right_key) {
                self.advance_right()?;
                continue;
            }
            match cmp_keys(&self.left_key, &self.right_key) {
                Ordering::Less => self.advance_left()?,
                Ordering::Greater => self.advance_right()?,
                Ordering::Equal => {
                    self.gather_right_group()?;
                    self.emit_idx = 0;
                }
            }
        }
    }
}

impl RowIterator for MergeJoinIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context};
    use crate::exec::{collect, ValuesIter};
    use crate::governor::QueryGovernor;

    fn kv_rows(pairs: impl Iterator<Item = (i64, i64)>) -> Vec<Row> {
        pairs
            .map(|(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
            .collect()
    }

    fn hash_join(left: Vec<Row>, right: Vec<Row>, ctx: ExecContext) -> HashJoinIter {
        HashJoinIter::new(
            Box::new(ValuesIter::new(left)),
            Box::new(ValuesIter::new(right)),
            vec![Expr::col(0, "k")],
            vec![Expr::col(0, "k")],
            false,
            ctx,
        )
    }

    fn join_all(kind: &str, left: Vec<Row>, right: Vec<Row>) -> Vec<(i64, i64)> {
        let lk = vec![Expr::col(0, "k")];
        let rk = vec![Expr::col(0, "k")];
        let (ctx, _dir) = test_context();
        let it: BoxedIter = match kind {
            "hash" => Box::new(hash_join(left, right, ctx)),
            _ => Box::new(MergeJoinIter::new(
                Box::new(ValuesIter::new(left)),
                Box::new(ValuesIter::new(right)),
                lk,
                rk,
                2,
            )),
        };
        let mut out: Vec<(i64, i64)> = collect(it, 1024)
            .unwrap()
            .iter()
            .map(|r| (r[1].as_int().unwrap(), r[3].as_int().unwrap()))
            .collect();
        out.sort();
        out
    }

    fn left_rows() -> Vec<Row> {
        // (key, payload) sorted by key with duplicates
        int_rows(&[&[1, 100], &[2, 200], &[2, 201], &[4, 400]])
    }

    fn right_rows() -> Vec<Row> {
        int_rows(&[&[2, 20], &[2, 21], &[3, 30], &[4, 40]])
    }

    #[test]
    fn hash_and_merge_agree_with_duplicates() {
        let expected = vec![(200, 20), (200, 21), (201, 20), (201, 21), (400, 40)];
        assert_eq!(join_all("hash", left_rows(), right_rows()), expected);
        assert_eq!(join_all("merge", left_rows(), right_rows()), expected);
    }

    #[test]
    fn duplicate_build_keys_emit_in_build_input_order() {
        // Two keys interleaved on the build side: each probe row meets
        // its key's build rows in the order they arrived, at any batch
        // size.
        let build = int_rows(&[&[1, 10], &[2, 20], &[1, 11], &[1, 12], &[2, 21]]);
        let probe = int_rows(&[&[2, 100], &[1, 101], &[3, 102], &[1, 103]]);
        for batch in [1, 2, 1024] {
            let (mut ctx, _dir) = test_context();
            ctx.batch_size = batch;
            let it = hash_join(build.clone(), probe.clone(), ctx);
            let got: Vec<(i64, i64)> = collect(Box::new(it), batch)
                .unwrap()
                .iter()
                .map(|r| (r[3].as_int().unwrap(), r[1].as_int().unwrap()))
                .collect();
            assert_eq!(
                got,
                vec![
                    (100, 20),
                    (100, 21),
                    (101, 10),
                    (101, 11),
                    (101, 12),
                    (103, 10),
                    (103, 11),
                    (103, 12),
                ],
                "batch={batch}"
            );
        }
    }

    #[test]
    fn nulls_never_join() {
        let left = vec![
            Row::new(vec![Value::Null, Value::Int(1)]),
            Row::new(vec![Value::Int(7), Value::Int(2)]),
        ];
        let right = vec![
            Row::new(vec![Value::Null, Value::Int(3)]),
            Row::new(vec![Value::Int(7), Value::Int(4)]),
        ];
        assert_eq!(join_all("hash", left.clone(), right.clone()), vec![(2, 4)]);
        assert_eq!(join_all("merge", left, right), vec![(2, 4)]);
    }

    #[test]
    fn disjoint_inputs_produce_nothing() {
        let left = int_rows(&[&[1, 1], &[2, 2]]);
        let right = int_rows(&[&[3, 3], &[4, 4]]);
        assert!(join_all("hash", left.clone(), right.clone()).is_empty());
        assert!(join_all("merge", left, right).is_empty());
    }

    #[test]
    fn empty_sides() {
        assert!(join_all("merge", vec![], right_rows()).is_empty());
        assert!(join_all("merge", left_rows(), vec![]).is_empty());
        assert!(join_all("hash", vec![], vec![]).is_empty());
    }

    #[test]
    fn probe_first_restores_left_right_order() {
        // build = the plan's RIGHT side; output must still be left ++ right.
        let (ctx, _dir) = test_context();
        let it = HashJoinIter::new(
            Box::new(ValuesIter::new(int_rows(&[&[7, 70]]))), // right (build)
            Box::new(ValuesIter::new(int_rows(&[&[7, 1]]))),  // left (probe)
            vec![Expr::col(0, "k")],
            vec![Expr::col(0, "k")],
            true,
            ctx,
        );
        let rows = collect(Box::new(it), 1024).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Int(1), "left payload first");
        assert_eq!(rows[0][3], Value::Int(70), "right payload second");
    }

    #[test]
    fn hash_join_spills_and_matches_merge_under_tight_budget() {
        // A budget >4x smaller than the build side: the join must spill,
        // recurse, and still produce exactly the merge-join result.
        let left = kv_rows((0..800i64).map(|i| (i % 200, i)));
        let right = kv_rows((0..200i64).map(|i| (i % 200, i)));
        let mut sorted_left = left.clone();
        sorted_left.sort_by_key(|r| r[0].as_int().unwrap());
        let mut sorted_right = right.clone();
        sorted_right.sort_by_key(|r| r[0].as_int().unwrap());
        let expected = join_all("merge", sorted_left, sorted_right);

        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(16 * 1024));
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let it = hash_join(left, right, ctx);
        let mut got: Vec<(i64, i64)> = collect(Box::new(it), 1024)
            .unwrap()
            .iter()
            .map(|r| (r[1].as_int().unwrap(), r[3].as_int().unwrap()))
            .collect();
        got.sort();
        assert_eq!(got, expected);
        assert!(temp.spill_count() > 0, "budget must have forced spilling");
        assert_eq!(gov.mem_used(), 0, "all charges released");
        assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
    }

    #[test]
    fn mid_stream_drop_releases_charges_and_files() {
        // Abandon a spilled join halfway through its output (KILL path):
        // RAII must still delete every partition file and release memory.
        let left = kv_rows((0..400i64).map(|i| (i % 50, i)));
        let right = kv_rows((0..100i64).map(|i| (i % 50, i)));
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(4 * 1024));
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let mut it = hash_join(left, right, ctx);
        it.next_batch(10).unwrap().expect("join has matches");
        drop(it);
        assert_eq!(gov.mem_used(), 0, "charges released on drop");
        assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
    }

    #[test]
    fn pathological_budget_fails_typed_after_bounded_recursion() {
        let left = kv_rows((0..100i64).map(|i| (i, i)));
        let right = int_rows(&[&[1, 1]]);
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(1));
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let it = hash_join(left, right, ctx);
        let err = collect(Box::new(it), 1024).unwrap_err();
        assert!(
            matches!(err, seqdb_types::DbError::ResourceExhausted(_)),
            "{err}"
        );
        assert_eq!(gov.mem_used(), 0, "charges released on failure");
        assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
    }

    #[test]
    fn merge_join_large_cross_groups() {
        // 3 left dups x 4 right dups on one key = 12 output rows.
        let left = int_rows(&[&[5, 1], &[5, 2], &[5, 3]]);
        let right = int_rows(&[&[5, 10], &[5, 11], &[5, 12], &[5, 13]]);
        assert_eq!(join_all("merge", left, right).len(), 12);
    }

    #[test]
    fn bloom_filter_skips_probe_io_for_unmatched_keys() {
        // Build keys 0..100 under a tight budget (so the join spills and
        // the bloom is built); probe keys 1000..2000 can never match.
        // Without the filter every probe row would be written to its
        // partition (~20 KiB of probe I/O); with it only the rare false
        // positives are, so total spill I/O stays near the build side's
        // own few KiB.
        let left = kv_rows((0..100i64).map(|i| (i, i)));
        let right = kv_rows((1000..2000i64).map(|i| (i, i)));
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(1024));
        let temp = ctx.temp.clone();
        let it = hash_join(left, right, ctx);
        let rows = collect(Box::new(it), 1024).unwrap();
        assert!(rows.is_empty());
        assert!(temp.spill_count() > 0, "build side must have spilled");
        assert!(
            temp.bytes_written() < 8 * 1024,
            "bloom filter must suppress probe-side partition writes, wrote {} bytes",
            temp.bytes_written()
        );
        assert_eq!(temp.live_files().unwrap(), 0);
    }
}
