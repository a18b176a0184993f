//! Join operators: hybrid Grace hash join (unordered inputs) and merge
//! join (inputs ordered on the join keys, e.g. via clustered index scans).
//! Both find (left, right) row index pairs by comparing key cells where
//! they lie and gather the output columns by those pairs: no joined row
//! is concatenated value by value.
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
use std::hash::{Hash, Hasher};

use seqdb_storage::tempspace::{SpillReader, SpillWriter};
use seqdb_storage::WaitClass;
use seqdb_types::{DbError, Result, Value, ValueRef};

use crate::exec::agg::{
    hash_cells, key_cells, partition_of, write_spill_row, HashIndex, OutputBuffer, OutputRows,
    SpillRowIter, SPILL_PARTITIONS,
};
use crate::exec::batch::{operand_columns, Column, Operand};
use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowIterator};
use crate::expr::Expr;
use crate::governor::{MemCharge, Ticker};

/// Keys containing NULL never match (SQL equi-join semantics).
fn key_joinable(key: &[&Column], i: usize) -> bool {
    key.iter().all(|c| !c.get(i).is_null())
}

/// Recursion bound for join repartitioning, mirroring the hash
/// aggregate's: beyond this the budget is simply too small for the data
/// and the query fails with `ResourceExhausted`.
const MAX_JOIN_SPILL_DEPTH: u32 = 6;
/// Bytes charged per resident build row beyond its cells: its `next`
/// link, validity and offsets, and a share of the key index. Kept at
/// what a row-per-`Vec` arena cost, so a budget spills where it did.
const JOIN_ENTRY_OVERHEAD: usize = 72;
/// Above this many spilled build rows the Bloom filter is abandoned:
/// it must stay conservative (no false negatives), and an unbounded
/// hash list would defeat the point of spilling.
const BLOOM_MAX_KEYS: usize = 1 << 20;
/// Salt distinguishing Bloom hashes from the depth-salted partition
/// hashes (a `u32` depth can never equal this).
const BLOOM_SALT: u64 = 0xb100_f117_e25a_17ed;

/// Memory cost charged for resident build row `i` of `batch`.
fn join_entry_cost(key: &[&Column], batch: &RowBatch, i: usize) -> usize {
    let key_bytes: usize = key_cells(key, i).map(|v| v.size_bytes()).sum();
    let row_bytes: usize = (0..batch.width())
        .map(|j| batch.column(j).get(i).size_bytes())
        .sum();
    key_bytes + row_bytes + 8 + JOIN_ENTRY_OVERHEAD
}

fn bloom_hash<'a>(key: impl Iterator<Item = ValueRef<'a>>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    BLOOM_SALT.hash(&mut h);
    for c in key {
        c.hash(&mut h);
    }
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

    fn build(self, resident: &BuildTable) -> Option<Bloom> {
        if self.disabled {
            return None;
        }
        let mut bloom = Bloom::with_capacity(self.hashes.len() + resident.heads.len());
        for h in &self.hashes {
            bloom.insert(*h);
        }
        let keys: Vec<&Column> = resident.keys.iter().collect();
        for &(first, _) in &resident.heads {
            bloom.insert(bloom_hash(key_cells(&keys, first)));
        }
        Some(bloom)
    }
}

/// End of a [`BuildTable`] key chain.
const CHAIN_END: usize = usize::MAX;

/// The resident build side as columns: every build row's cells, in
/// build-input order, its join key's cells, and per distinct key the
/// indices of its first and last row. `next` chains each row to the
/// following row of its key, so a key's matches come back in build-input
/// order without a `Vec` per key or an allocation per row. The resident
/// join, the spilled partition pairs and the Bloom filter's key pass all
/// use it.
#[derive(Default)]
struct BuildTable {
    cols: Vec<Column>,
    keys: Vec<Column>,
    rows: usize,
    next: Vec<usize>,
    /// Distinct keys; entry `e`'s chain runs from `heads[e].0` to
    /// `heads[e].1`.
    index: HashIndex,
    heads: Vec<(usize, usize)>,
}

impl BuildTable {
    /// Whether build row `r`'s key equals row `i` of key columns `key`.
    #[inline]
    fn key_equals(&self, r: usize, key: &[&Column], i: usize) -> bool {
        self.keys
            .iter()
            .zip(key)
            .all(|(b, p)| b.get(r).total_cmp(&p.get(i)).is_eq())
    }

    /// Append row `i` of `batch`, whose key is row `i` of `key` and
    /// hashes to `h`.
    fn insert(&mut self, h: u64, key: &[&Column], batch: &RowBatch, i: usize) {
        if self.rows == 0 {
            self.cols = (0..batch.width())
                .map(|j| batch.column(j).like(0))
                .collect();
            self.keys = key.iter().map(|c| c.like(0)).collect();
        }
        let idx = self.rows;
        for (j, dst) in self.cols.iter_mut().enumerate() {
            dst.push_from(batch.column(j), i);
        }
        for (dst, src) in self.keys.iter_mut().zip(key) {
            dst.push_from(src, i);
        }
        self.rows += 1;
        self.next.push(CHAIN_END);
        match self
            .index
            .find(h, |e| self.key_equals(self.heads[e].0, key, i))
        {
            Some(e) => {
                let last = self.heads[e].1;
                self.next[last] = idx;
                self.heads[e].1 = idx;
            }
            None => {
                self.index.insert(h);
                self.heads.push((idx, idx));
            }
        }
    }

    /// The build rows whose key equals row `i` of `key` (hashing to
    /// `h`), in build-input order.
    fn matches<'a>(
        &'a self,
        h: u64,
        key: &[&Column],
        i: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut at = self
            .index
            .find(h, |e| self.key_equals(self.heads[e].0, key, i))
            .map_or(CHAIN_END, |e| self.heads[e].0);
        std::iter::from_fn(move || {
            let row = (at != CHAIN_END).then_some(at)?;
            at = self.next[at];
            Some(row)
        })
    }
}

/// (build, probe) row index pairs of a join's matches.
#[derive(Default)]
struct Pairs {
    build: Vec<u32>,
    probe: Vec<u32>,
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
    /// The joined rows of pairs `from..to`: the build and probe columns
    /// gathered by the pairs' indices. `probe_first` restores the plan's
    /// `left ++ right` column order when the binder swapped the smaller
    /// right side onto the build.
    fn gather(
        &self,
        table: &BuildTable,
        probe: &RowBatch,
        pairs: &Pairs,
        from: usize,
        to: usize,
    ) -> RowBatch {
        let (b, p) = (&pairs.build[from..to], &pairs.probe[from..to]);
        let build = table.cols.iter().map(|c| c.gather(b));
        let probe_cols = (0..probe.width()).map(|j| probe.column(j).gather(p));
        let cols = if self.probe_first {
            probe_cols.chain(build).collect()
        } else {
            build.chain(probe_cols).collect()
        };
        RowBatch::from_columns(cols, to - from)
    }

    /// Probe `table` with every row of a compacted batch: a row whose
    /// partition the build side spilled to is also written to that
    /// partition's probe file, and each resident match adds a pair.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        table: &BuildTable,
        batch: &RowBatch,
        depth: u32,
        bloom: Option<&Bloom>,
        build_parts: &[Option<SpillWriter>],
        probe_parts: &mut [Option<SpillWriter>],
        pairs: &mut Pairs,
    ) -> Result<()> {
        let keys = Operand::eval_all(&self.probe_keys, batch)?;
        let key = operand_columns(&keys, batch);
        for i in 0..batch.len() {
            if !key_joinable(&key, i) {
                continue;
            }
            if let Some(bloom) = bloom {
                if !bloom.contains(bloom_hash(key_cells(&key, i))) {
                    // Provably no partner anywhere: skip lookup and I/O.
                    continue;
                }
            }
            // Route before matching: once spilling started, a key's build
            // rows may be split between the resident table and a
            // partition, and the probe row must meet both halves.
            if !build_parts.is_empty() {
                let p = partition_of(key_cells(&key, i), depth);
                if build_parts[p].is_some() {
                    if probe_parts[p].is_none() {
                        probe_parts[p] = Some(self.ctx.create_join_spill()?);
                    }
                    if let Some(writer) = probe_parts[p].as_mut() {
                        write_spill_row(writer, &batch.row(i).to_row())?;
                    }
                }
            }
            for b in table.matches(hash_cells(key_cells(&key, i)), &key, i) {
                pairs.build.push(b as u32);
                pairs.probe.push(i as u32);
            }
        }
        Ok(())
    }
}

/// Consume `input` into a resident [`BuildTable`], degrading to salted
/// hash partitions once `charge` rejects a row. Spill mode is sticky *per
/// row*, not per key: unlike the hash aggregate, every build row costs
/// memory, so after the first rejection all further rows spill — a key's
/// rows may therefore be split between the resident table and one
/// partition. Correct because each build row lives in exactly one place
/// and probe rows visit both.
fn build_table(
    input: &mut dyn RowIterator,
    env: &JoinEnv,
    depth: u32,
    charge: &mut MemCharge,
    mut bloom: Option<&mut BloomTracker>,
) -> Result<(BuildTable, Vec<Option<SpillWriter>>)> {
    let mut ticker = Ticker::new();
    let mut table = BuildTable::default();
    let mut spilling = false;
    let mut parts: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    while let Some(batch) = input.next_batch(env.ctx.batch_size)? {
        ticker.tick_batch(&env.ctx.gov)?;
        let batch = batch.compact();
        let keys = Operand::eval_all(&env.build_keys, &batch)?;
        let key = operand_columns(&keys, &batch);
        for i in 0..batch.len() {
            if !key_joinable(&key, i) {
                continue;
            }
            if !spilling && charge.try_grow(join_entry_cost(&key, &batch, i)) {
                table.insert(hash_cells(key_cells(&key, i)), &key, &batch, i);
                continue;
            }
            if depth >= MAX_JOIN_SPILL_DEPTH {
                return Err(DbError::ResourceExhausted(format!(
                    "hash join build side exceeded its memory budget even after \
                     {MAX_JOIN_SPILL_DEPTH} repartition passes"
                )));
            }
            spilling = true;
            if let Some(tracker) = bloom.as_deref_mut() {
                tracker.note(bloom_hash(key_cells(&key, i)));
            }
            let p = partition_of(key_cells(&key, i), depth);
            if parts[p].is_none() {
                parts[p] = Some(env.ctx.create_join_spill()?);
            }
            if let Some(writer) = parts[p].as_mut() {
                write_spill_row(writer, &batch.row(i).to_row())?;
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
    let (table, sub_build) = build_table(&mut build_rows, env, depth, &mut charge, None)?;
    drop(build_rows); // done with the build partition file; delete it

    let mut sub_probe: Vec<Option<SpillWriter>> = (0..SPILL_PARTITIONS).map(|_| None).collect();
    let mut probe_rows = SpillRowIter::new(probe);
    let mut ticker = Ticker::new();
    let mut pairs = Pairs::default();
    while let Some(batch) = probe_rows.next_batch(env.ctx.batch_size)? {
        ticker.tick_batch(&gov)?;
        pairs.build.clear();
        pairs.probe.clear();
        env.probe(
            &table,
            &batch,
            depth,
            None,
            &sub_build,
            &mut sub_probe,
            &mut pairs,
        )?;
        let joined = env.gather(&table, &batch, &pairs, 0, pairs.build.len());
        for row in joined.into_rows() {
            out.push(row)?;
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
    /// Streaming probe batches against the resident table, routing
    /// overflow.
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
    build: Option<BoxedIter>,
    probe: BoxedIter,
    env: JoinEnv,
    state: JoinState,
    table: BuildTable,
    charge: MemCharge,
    bloom: Option<Bloom>,
    build_parts: Vec<Option<SpillWriter>>,
    probe_parts: Vec<Option<SpillWriter>>,
    /// The probe batch being joined, its match pairs, and how many of
    /// them were handed out already.
    probed: Option<RowBatch>,
    pairs: Pairs,
    emitted: usize,
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
            build: Some(build),
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
            probed: None,
            pairs: Pairs::default(),
            emitted: 0,
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
            build.as_mut(),
            &self.env,
            0,
            &mut self.charge,
            Some(&mut tracker),
        )?;
        if parts.iter().any(Option::is_some) {
            self.bloom = tracker.build(&table);
            self.probe_parts = (0..SPILL_PARTITIONS).map(|_| None).collect();
        }
        self.table = table;
        self.build_parts = parts;
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
    /// Pull a probe batch, probe the resident table with each of its rows
    /// (Bloom pre-screen, spill routing, lookup) into match pairs, and
    /// hand the pairs on `max_rows` at a time as gathered batches; once
    /// the probe side is exhausted, stream the spilled partition pairs'
    /// output.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        if matches!(self.state, JoinState::Build) {
            self.run_build()?;
            self.state = JoinState::Probe;
        }
        let max = max_rows.max(1);
        loop {
            if let Some(probed) = &self.probed {
                if self.emitted < self.pairs.build.len() {
                    let from = self.emitted;
                    let to = (from + max).min(self.pairs.build.len());
                    self.emitted = to;
                    let joined = self.env.gather(&self.table, probed, &self.pairs, from, to);
                    return Ok(Some(joined));
                }
            }
            match self.state {
                JoinState::Probe => match self.probe.next_batch(max)? {
                    Some(batch) => {
                        let batch = batch.compact();
                        self.pairs.build.clear();
                        self.pairs.probe.clear();
                        self.emitted = 0;
                        self.env.probe(
                            &self.table,
                            &batch,
                            0,
                            self.bloom.as_ref(),
                            &self.build_parts,
                            &mut self.probe_parts,
                            &mut self.pairs,
                        )?;
                        self.probed = Some(batch);
                    }
                    None => {
                        self.probed = None;
                        self.output = Some(self.run_partition_phase()?);
                        self.state = JoinState::Drain;
                    }
                },
                JoinState::Drain => {
                    let rows = self.output.as_mut().expect("output set before Drain");
                    return fill_batch(max, || rows.next_row());
                }
                JoinState::Build => unreachable!("build ran before the loop"),
            }
        }
    }
}

/// One input of a merge join: its current batch (compacted), the cells
/// of its join key in that batch, and the current row.
struct MergeSide {
    input: BoxedIter,
    key_exprs: Vec<Expr>,
    batch_size: usize,
    batch: Option<RowBatch>,
    key: Vec<Operand>,
    pos: usize,
    done: bool,
}

impl MergeSide {
    fn new(input: BoxedIter, key_exprs: Vec<Expr>, batch_size: usize) -> MergeSide {
        MergeSide {
            input,
            key_exprs,
            batch_size,
            batch: None,
            key: Vec::new(),
            pos: 0,
            done: false,
        }
    }

    /// Has the current batch no row left (or is there none)?
    fn exhausted(&self) -> bool {
        self.batch.as_ref().is_none_or(|b| self.pos >= b.len())
    }

    /// Make sure there is a current row, pulling the next batch when the
    /// current one is used up; `false` at the end of the input.
    fn ready(&mut self) -> Result<bool> {
        while self.exhausted() {
            if self.done {
                return Ok(false);
            }
            match self.input.next_batch(self.batch_size)? {
                Some(b) => {
                    let b = b.compact();
                    self.key = Operand::eval_all(&self.key_exprs, &b)?;
                    self.batch = Some(b);
                    self.pos = 0;
                }
                None => {
                    self.done = true;
                    self.batch = None;
                }
            }
        }
        Ok(true)
    }

    fn batch(&self) -> &RowBatch {
        self.batch.as_ref().expect("a current row")
    }

    /// Key cell `k` of the current row.
    #[inline]
    fn key_cell(&self, k: usize) -> ValueRef<'_> {
        self.key[k].column(self.batch()).get(self.pos)
    }

    fn joinable(&self) -> bool {
        (0..self.key.len()).all(|k| !self.key_cell(k).is_null())
    }
}

/// Inner merge join over inputs sorted ascending on their join keys.
/// Keys are compared where they lie in the two sides' batches; the right
/// rows of one key are copied into a small column buffer (a group may
/// straddle right batches), and each output batch is gathered from the
/// current left batch and that buffer by index pairs.
pub struct MergeJoinIter {
    left: MergeSide,
    right: MergeSide,
    /// Right rows of the groups the output being built touches; the
    /// current group is `right_buf[group.0..group.1]`.
    right_buf: Vec<Column>,
    right_rows: usize,
    group: Option<(usize, usize)>,
    group_key: Vec<Value>,
    /// Does the current left row match the current group, and how many
    /// of the group's rows has it been paired with?
    matched: bool,
    emit: usize,
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
            left: MergeSide::new(left, left_keys, batch_size),
            right: MergeSide::new(right, right_keys, batch_size),
            right_buf: Vec::new(),
            right_rows: 0,
            group: None,
            group_key: Vec::new(),
            matched: false,
            emit: 0,
        }
    }

    fn cmp_current(&self) -> Ordering {
        for k in 0..self.left.key.len() {
            let o = self.left.key_cell(k).total_cmp(&self.right.key_cell(k));
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn left_in_group(&self) -> bool {
        self.group_key
            .iter()
            .enumerate()
            .all(|(k, v)| v.view().total_cmp(&self.left.key_cell(k)).is_eq())
    }

    /// Copy every right row whose key equals the current right row's into
    /// `right_buf` as the new group (the right side is positioned at the
    /// first such row).
    fn gather_right_group(&mut self) -> Result<()> {
        self.group_key.clear();
        for k in 0..self.right.key.len() {
            self.group_key.push(self.right.key_cell(k).to_value());
        }
        let start = self.right_rows;
        while self.right.ready()? {
            let key_equal = self
                .group_key
                .iter()
                .enumerate()
                .all(|(k, v)| v.view().total_cmp(&self.right.key_cell(k)).is_eq());
            if !key_equal {
                break;
            }
            let batch = self.right.batch();
            if self.right_buf.len() != batch.width() {
                self.right_buf = (0..batch.width())
                    .map(|j| batch.column(j).like(0))
                    .collect();
            }
            for (j, dst) in self.right_buf.iter_mut().enumerate() {
                dst.push_from(batch.column(j), self.right.pos);
            }
            self.right_rows += 1;
            self.right.pos += 1;
        }
        self.group = Some((start, self.right_rows));
        Ok(())
    }
}

impl RowIterator for MergeJoinIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let max = max_rows.max(1);
        let (mut li, mut ri): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        loop {
            // Output pairs index the current left batch: hand them on
            // before it is replaced.
            if li.len() >= max || (!li.is_empty() && self.left.exhausted()) {
                break;
            }
            if let Some((start, end)) = self.group {
                if self.matched {
                    while self.emit < end - start && li.len() < max {
                        li.push(self.left.pos as u32);
                        ri.push((start + self.emit) as u32);
                        self.emit += 1;
                    }
                    if self.emit == end - start {
                        // Done with this left row: the next one may
                        // match the same group.
                        self.left.pos += 1;
                        self.emit = 0;
                        self.matched = false;
                    }
                    continue;
                }
                if self.left.ready()? && self.left.joinable() && self.left_in_group() {
                    self.matched = true;
                    continue;
                }
                self.group = None;
            }
            if !self.left.ready()? || !self.right.ready()? {
                break;
            }
            if !self.left.joinable() {
                self.left.pos += 1;
                continue;
            }
            if !self.right.joinable() {
                self.right.pos += 1;
                continue;
            }
            match self.cmp_current() {
                Ordering::Less => self.left.pos += 1,
                Ordering::Greater => self.right.pos += 1,
                Ordering::Equal => {
                    self.gather_right_group()?;
                    self.matched = true;
                    self.emit = 0;
                }
            }
        }
        if li.is_empty() {
            return Ok(None);
        }
        let left = self.left.batch();
        let mut cols: Vec<Column> = (0..left.width())
            .map(|j| left.column(j).gather(&li))
            .collect();
        cols.extend(self.right_buf.iter().map(|c| c.gather(&ri)));
        let out = RowBatch::from_columns(cols, li.len());
        // Keep only the group still in flight.
        match self.group {
            Some((start, end)) => {
                let idx: Vec<u32> = (start as u32..end as u32).collect();
                for c in &mut self.right_buf {
                    *c = c.gather(&idx);
                }
                self.right_rows = end - start;
                self.group = Some((0, end - start));
            }
            None => {
                for c in &mut self.right_buf {
                    c.truncate(0);
                }
                self.right_rows = 0;
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context};
    use crate::exec::{collect, ValuesIter};
    use crate::governor::QueryGovernor;
    use seqdb_types::Row;

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
