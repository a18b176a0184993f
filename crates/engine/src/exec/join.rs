//! Join operators: hybrid Grace hash join (unordered inputs) and merge
//! join (inputs ordered on the join keys, e.g. via clustered index scans).
//!
//! The paper's consensus query (§5.3.3) joins `Alignment` with `Read` via
//! a *parallel merge join* enabled by clustered indexes — "about 1.6
//! million alignments per second" on warm buffers. [`MergeJoinIter`] is
//! that operator; the planner picks it whenever both sides come from
//! index scans with compatible key prefixes.
//!
//! [`HashJoinIter`] covers the unordered case, and since large genomic
//! joins routinely outgrow a query's workspace grant it degrades the same
//! way the hash aggregate does: once the build side exhausts its
//! [`MemCharge`], further build rows partition to `storage::tempspace`
//! with the salted hash of `exec::agg::partition_of`. Probe rows
//! stream against the resident table and are routed to the matching spill
//! partition; partition pairs then join recursively with a re-salted
//! hash, optionally in parallel (one worker per partition pair, the
//! fail-fast/panic-capture discipline of [`crate::parallel`]). A compact
//! Bloom filter over every build key lets probe rows that cannot match
//! skip both the lookup and the partition write, so a spilling join does
//! no I/O for probe rows that would never find a partner.

use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use seqdb_storage::tempspace::{SpillReader, SpillWriter};
use seqdb_storage::WaitClass;
use seqdb_types::{DbError, Result, Row, Value};

use crate::exec::agg::{
    partition_of, write_spill_row, OutputBuffer, OutputRows, SpillRowIter, SPILL_PARTITIONS,
};

/// Output buffer for one partition pair, capped at its share of the
/// output quarter of the query budget: up to [`SPILL_PARTITIONS`] pairs
/// hold finished output concurrently, so each gets `limit / 4 / pairs` —
/// the build tables' half of the budget stays unstarved (the exact
/// failure mode would be spurious depth exhaustion under parallel dop).
fn pair_output_buffer(ctx: &ExecContext) -> OutputBuffer {
    let cap = ctx.gov.mem_limit().map(|l| l / 4 / SPILL_PARTITIONS);
    OutputBuffer::with_class_capped(ctx, WaitClass::JoinSpill, cap)
}
use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator};
use crate::expr::{eval_into, Expr};
use crate::governor::{MemCharge, Ticker};
use crate::parallel::root_cause;
use crate::udx::panic_payload;

fn eval_all(exprs: &[Expr], row: &Row) -> Result<Vec<Value>> {
    exprs.iter().map(|e| e.eval(row)).collect()
}

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
/// Estimated heap overhead per resident build entry (hash-map slot,
/// key Vec, `Arc<Row>` headers).
const JOIN_ENTRY_OVERHEAD: usize = 48;
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

/// Multiply-rotate hasher for the resident build table (the well-known
/// Fx scheme): far cheaper than SipHash on short `Vec<Value>` keys. Not
/// DoS-resistant, which is fine for a per-query table that dies with
/// the operator. The partition/Bloom hashes stay on `DefaultHasher`.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
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

#[derive(Default, Clone)]
struct FxBuild;

impl std::hash::BuildHasher for FxBuild {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Build rows grouped by join key. Rows are shared via `Arc` so the
/// spilled partition phase and the resident map can hold the same row
/// without copying it (duplicate-heavy joins used to clone the whole
/// match vector per probe row; matches now emit straight into a reused
/// output queue instead).
type BuildMap = HashMap<Vec<Value>, Vec<Arc<Row>>, FxBuild>;

/// Everything the recursive/parallel partition phase needs, cloneable
/// into worker threads. The context is the one the join node was opened
/// with, so worker spills attribute to the join's stats slot.
#[derive(Clone)]
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

/// Consume `next_row` into a resident [`BuildMap`], degrading to salted
/// hash partitions once `charge` (optionally capped at `cap`) rejects a
/// row. Spill mode is sticky *per row*, not per key: unlike the hash
/// aggregate, every build row costs memory, so after the first rejection
/// all further rows spill — a key's rows may therefore be split between
/// the resident map and one partition. Correct because each build row
/// lives in exactly one place and probe rows visit both.
fn build_table(
    mut next_row: impl FnMut() -> Result<Option<Row>>,
    env: &JoinEnv,
    depth: u32,
    cap: Option<usize>,
    charge: &mut MemCharge,
    mut bloom: Option<&mut BloomTracker>,
) -> Result<(BuildMap, Vec<Option<SpillWriter>>)> {
    let mut ticker = Ticker::new();
    let mut table = BuildMap::default();
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
        if !spilling && cap.is_none_or(|c| charge.bytes() + cost <= c) && charge.try_grow(cost) {
            // get_mut-first: duplicate keys (the common case in fact
            // tables) skip the owned-key clone entirely.
            if let Some(rows) = table.get_mut(key.as_slice()) {
                rows.push(Arc::new(row));
            } else {
                table.insert(key.clone(), vec![Arc::new(row)]);
            }
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
/// build side still doesn't fit. Matches push into `out`, which spills
/// its own overflow under the query budget.
fn join_spilled(
    build: SpillReader,
    probe: SpillReader,
    env: &JoinEnv,
    depth: u32,
    cap: Option<usize>,
    out: &mut OutputBuffer,
) -> Result<()> {
    let gov = env.ctx.gov.clone();
    let mut charge = MemCharge::new(gov.clone());
    let mut build_rows = SpillRowIter::new(build);
    let (table, sub_build) =
        build_table(|| build_rows.next_row(), env, depth, cap, &mut charge, None)?;
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
        if let Some(matches) = table.get(key.as_slice()) {
            for b in matches {
                out.push(env.emit(b, &row))?;
            }
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
            join_spilled(bw.finish()?, pw.finish()?, env, depth + 1, cap, out)?;
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
    /// Draining the partition phase's joined outputs.
    Drain,
}

/// Inner equi hash join: hybrid Grace. Builds on the `build` input,
/// probes with `probe`, emits `left ++ right` rows (`probe_first` says
/// which side is the plan's left).
///
/// The resident build table is charged byte-for-byte against the query's
/// memory budget; on exhaustion the operator degrades to spilled
/// partition pairs joined recursively after the probe drains — in
/// parallel when `dop > 1` and more than one pair exists. All charges
/// release and all partition files delete on drop, including mid-stream
/// cancellation.
pub struct HashJoinIter {
    build: Option<RowCursor>,
    probe: BoxedIter,
    env: JoinEnv,
    dop: usize,
    state: JoinState,
    table: BuildMap,
    charge: MemCharge,
    bloom: Option<Bloom>,
    build_parts: Vec<Option<SpillWriter>>,
    probe_parts: Vec<Option<SpillWriter>>,
    /// Output rows already joined for consumed probe rows. A reused ring
    /// buffer: steady-state probing allocates nothing but the rows.
    ready: VecDeque<Row>,
    /// Reused probe-key buffer (one evaluation per probe row, no alloc).
    key_scratch: Vec<Value>,
    outputs: std::vec::IntoIter<OutputRows>,
    current_out: Option<OutputRows>,
}

impl HashJoinIter {
    pub fn new(
        build: BoxedIter,
        probe: BoxedIter,
        build_keys: Vec<Expr>,
        probe_keys: Vec<Expr>,
        probe_first: bool,
        dop: usize,
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
            dop: dop.max(1),
            state: JoinState::Build,
            table: BuildMap::default(),
            charge,
            bloom: None,
            build_parts: Vec::new(),
            probe_parts: Vec::new(),
            ready: VecDeque::new(),
            key_scratch: Vec::new(),
            outputs: Vec::new().into_iter(),
            current_out: None,
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
            None,
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
        if let Some(matches) = self.table.get(key.as_slice()) {
            for b in matches {
                self.ready.push_back(self.env.emit(b, &row));
            }
        }
        Ok(())
    }

    /// After the probe drains: free the resident table, pair up the
    /// partition files and join each pair — `min(dop, pairs)` workers
    /// when parallel. Returns the per-pair governed outputs.
    fn run_partition_phase(&mut self) -> Result<Vec<OutputRows>> {
        self.table = BuildMap::default();
        self.bloom = None;
        self.charge.release_all();

        let build_parts = std::mem::take(&mut self.build_parts);
        let probe_parts = std::mem::take(&mut self.probe_parts);
        let mut pairs: Vec<(SpillReader, SpillReader)> = Vec::new();
        for (bw, pw) in build_parts.into_iter().zip(
            probe_parts
                .into_iter()
                .chain(std::iter::repeat_with(|| None)),
        ) {
            if let (Some(bw), Some(pw)) = (bw, pw) {
                pairs.push((bw.finish()?, pw.finish()?));
            }
        }
        if pairs.is_empty() {
            return Ok(Vec::new());
        }

        let dop = self.dop.min(pairs.len());
        if dop <= 1 {
            let cap = self.env.ctx.gov.mem_limit().map(|l| l / 2);
            let mut outs = Vec::with_capacity(pairs.len());
            for (b, p) in pairs {
                let mut out = pair_output_buffer(&self.env.ctx);
                join_spilled(b, p, &self.env, 1, cap, &mut out)?;
                outs.push(out.into_rows()?);
            }
            return Ok(outs);
        }

        // Partition-parallel: deal pairs round-robin to `dop` workers.
        // Same discipline as the parallel aggregate: workers share the
        // governor (fail-fast via cancel), each is capped at its share of
        // half the budget so output buffers keep the other half, and the
        // coordinator joins every handle before reporting.
        let gov = self.env.ctx.gov.clone();
        let cap = gov.mem_limit().map(|l| l / 2 / dop);
        let npairs = pairs.len();
        let mut assigned: Vec<Vec<(usize, (SpillReader, SpillReader))>> =
            (0..dop).map(|_| Vec::new()).collect();
        for (i, pair) in pairs.into_iter().enumerate() {
            assigned[i % dop].push((i, pair));
        }
        let mut slots: Vec<Option<OutputRows>> = (0..npairs).map(|_| None).collect();
        let mut errors: Vec<DbError> = Vec::new();
        let env = &self.env;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(dop);
            for work in assigned {
                let env = env.clone();
                let gov = gov.clone();
                handles.push(scope.spawn(move || {
                    let run = move || -> Result<Vec<(usize, OutputRows)>> {
                        let mut done = Vec::new();
                        for (i, (b, p)) in work {
                            let mut out = pair_output_buffer(&env.ctx);
                            join_spilled(b, p, &env, 1, cap, &mut out)?;
                            done.push((i, out.into_rows()?));
                        }
                        Ok(done)
                    };
                    let result = run();
                    if result.is_err() {
                        gov.cancel();
                    }
                    result
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(Ok(done)) => {
                        for (i, rows) in done {
                            slots[i] = Some(rows);
                        }
                    }
                    Ok(Err(e)) => errors.push(e),
                    Err(p) => {
                        gov.cancel();
                        errors.push(DbError::Execution(format!(
                            "parallel join worker panicked: {}",
                            panic_payload(p)
                        )));
                    }
                }
            }
        });
        if !errors.is_empty() {
            return Err(root_cause(&errors));
        }
        Ok(slots.into_iter().flatten().collect())
    }

    /// Next joined row of the spilled partition pairs. Each pair's output
    /// drops as soon as it is exhausted, so its charge and spill file
    /// release before the next pair streams.
    fn drain_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(out) = self.current_out.as_mut() {
                if let Some(row) = out.next_row()? {
                    return Ok(Some(row));
                }
                self.current_out = None;
            }
            match self.outputs.next() {
                Some(out) => self.current_out = Some(out),
                None => return Ok(None),
            }
        }
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
                        self.outputs = self.run_partition_phase()?.into_iter();
                        self.state = JoinState::Drain;
                    }
                },
                JoinState::Drain => {
                    return if out.is_empty() {
                        fill_batch(max, || self.drain_row())
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
pub struct MergeJoinIter {
    left: RowCursor,
    right: RowCursor,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    left_row: Option<(Vec<Value>, Row)>,
    right_row: Option<(Vec<Value>, Row)>,
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
            right_row: None,
            right_group: Vec::new(),
            right_group_key: Vec::new(),
            emit_idx: 0,
            started: false,
        }
    }

    fn advance_left(&mut self) -> Result<()> {
        self.left_row = match self.left.next()? {
            Some(r) => Some((eval_all(&self.left_keys, &r)?, r)),
            None => None,
        };
        Ok(())
    }

    fn advance_right(&mut self) -> Result<()> {
        self.right_row = match self.right.next()? {
            Some(r) => Some((eval_all(&self.right_keys, &r)?, r)),
            None => None,
        };
        Ok(())
    }

    /// Fill `right_group` with every right row matching `key` (the right
    /// cursor is already positioned at the first such row).
    fn gather_right_group(&mut self, key: &[Value]) -> Result<()> {
        self.right_group.clear();
        self.right_group_key = key.to_vec();
        while let Some((rk, row)) = &self.right_row {
            if cmp_keys(rk, key) == Ordering::Equal {
                self.right_group.push(row.clone());
                self.advance_right()?;
            } else {
                break;
            }
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
                let (_, lrow) = self.left_row.as_ref().expect("left row during emit");
                let out = lrow.concat(&self.right_group[self.emit_idx]);
                self.emit_idx += 1;
                return Ok(Some(out));
            }
            // Finished the group for this left row: advance left and see
            // if it matches the same buffered group.
            if !self.right_group.is_empty() {
                self.advance_left()?;
                match &self.left_row {
                    Some((lk, _))
                        if key_joinable(lk)
                            && cmp_keys(lk, &self.right_group_key) == Ordering::Equal =>
                    {
                        self.emit_idx = 0;
                        continue;
                    }
                    _ => {
                        self.right_group.clear();
                        self.emit_idx = 0;
                    }
                }
            }
            let (Some((lk, _)), Some((rk, _))) = (&self.left_row, &self.right_row) else {
                return Ok(None);
            };
            if !key_joinable(lk) {
                self.advance_left()?;
                continue;
            }
            if !key_joinable(rk) {
                self.advance_right()?;
                continue;
            }
            match cmp_keys(lk, rk) {
                Ordering::Less => self.advance_left()?,
                Ordering::Greater => self.advance_right()?,
                Ordering::Equal => {
                    let key = lk.clone();
                    self.gather_right_group(&key)?;
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
    use seqdb_storage::TempSpace;

    /// A private temp space so spill-count and leak assertions can't race
    /// with other tests sharing the process-wide system temp dir.
    fn isolated_temp(tag: &str) -> Arc<TempSpace> {
        let dir =
            std::env::temp_dir().join(format!("seqdb-join-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempSpace::open(dir).unwrap()
    }

    fn kv_rows(pairs: impl Iterator<Item = (i64, i64)>) -> Vec<Row> {
        pairs
            .map(|(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
            .collect()
    }

    fn hash_join(left: Vec<Row>, right: Vec<Row>, ctx: ExecContext, dop: usize) -> HashJoinIter {
        HashJoinIter::new(
            Box::new(ValuesIter::new(left)),
            Box::new(ValuesIter::new(right)),
            vec![Expr::col(0, "k")],
            vec![Expr::col(0, "k")],
            false,
            dop,
            ctx,
        )
    }

    fn join_all(kind: &str, left: Vec<Row>, right: Vec<Row>) -> Vec<(i64, i64)> {
        let lk = vec![Expr::col(0, "k")];
        let rk = vec![Expr::col(0, "k")];
        let it: BoxedIter = match kind {
            "hash" => Box::new(hash_join(left, right, test_context(), 1)),
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
        let it = HashJoinIter::new(
            Box::new(ValuesIter::new(int_rows(&[&[7, 70]]))), // right (build)
            Box::new(ValuesIter::new(int_rows(&[&[7, 1]]))),  // left (probe)
            vec![Expr::col(0, "k")],
            vec![Expr::col(0, "k")],
            true,
            1,
            test_context(),
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

        for dop in [1usize, 4] {
            let mut ctx = test_context();
            ctx.gov = QueryGovernor::new(None, Some(16 * 1024));
            ctx.temp = isolated_temp(&format!("spill-dop{dop}"));
            let gov = ctx.gov.clone();
            let temp = ctx.temp.clone();
            let it = hash_join(left.clone(), right.clone(), ctx, dop);
            let mut got: Vec<(i64, i64)> = collect(Box::new(it), 1024)
                .unwrap()
                .iter()
                .map(|r| (r[1].as_int().unwrap(), r[3].as_int().unwrap()))
                .collect();
            got.sort();
            assert_eq!(got, expected, "dop={dop}");
            assert!(temp.spill_count() > 0, "budget must have forced spilling");
            assert_eq!(gov.mem_used(), 0, "all charges released");
            assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
        }
    }

    #[test]
    fn mid_stream_drop_releases_charges_and_files() {
        // Abandon a spilled join halfway through its output (KILL path):
        // RAII must still delete every partition file and release memory.
        let left = kv_rows((0..400i64).map(|i| (i % 50, i)));
        let right = kv_rows((0..100i64).map(|i| (i % 50, i)));
        let mut ctx = test_context();
        ctx.gov = QueryGovernor::new(None, Some(4 * 1024));
        ctx.temp = isolated_temp("kill");
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let mut it = hash_join(left, right, ctx, 2);
        it.next_batch(10).unwrap().expect("join has matches");
        drop(it);
        assert_eq!(gov.mem_used(), 0, "charges released on drop");
        assert_eq!(temp.live_files().unwrap(), 0, "no leaked spill files");
    }

    #[test]
    fn pathological_budget_fails_typed_after_bounded_recursion() {
        let left = kv_rows((0..100i64).map(|i| (i, i)));
        let right = int_rows(&[&[1, 1]]);
        let mut ctx = test_context();
        ctx.gov = QueryGovernor::new(None, Some(1));
        ctx.temp = isolated_temp("starved");
        let gov = ctx.gov.clone();
        let temp = ctx.temp.clone();
        let it = hash_join(left, right, ctx, 1);
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
        let mut ctx = test_context();
        ctx.gov = QueryGovernor::new(None, Some(1024));
        ctx.temp = isolated_temp("bloom");
        let temp = ctx.temp.clone();
        let it = hash_join(left, right, ctx, 1);
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
