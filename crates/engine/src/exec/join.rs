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
//! partition; the partition pairs then go on a worklist and run through
//! the same build and probe loop one after another, with a re-salted
//! hash. A join that never spills emits its rows in probe order, which
//! the planner relies on for order-sensitive aggregates.

use std::cmp::Ordering;

use seqdb_storage::tempspace::SpillWriter;
use seqdb_types::{DbError, Result, Value, ValueRef};

use crate::exec::agg::{
    hash_cells, key_cells, partition_of, write_spill_row, HashIndex, SpillRowIter, MAX_SPILL_DEPTH,
    SPILL_PARTITIONS,
};
use crate::exec::batch::{operand_columns, Column, Operand};
use crate::exec::{BoxedIter, ExecContext, RowBatch, RowIterator};
use crate::expr::Expr;
use crate::governor::MemCharge;

/// Keys containing NULL never match (SQL equi-join semantics).
fn key_joinable(key: &[&Column], i: usize) -> bool {
    key.iter().all(|c| !c.get(i).is_null())
}

/// Bytes charged per resident build row beyond its cells: its `next`
/// link, validity and offsets, and a share of the key index. Kept at
/// what a row-per-`Vec` arena cost, so a budget spills where it did.
const JOIN_ENTRY_OVERHEAD: usize = 72;

/// Memory cost charged for resident build row `i` of `batch`.
fn join_entry_cost(key: &[&Column], batch: &RowBatch, i: usize) -> usize {
    let key_bytes: usize = key_cells(key, i).map(|v| v.size_bytes()).sum();
    let row_bytes: usize = (0..batch.width())
        .map(|j| batch.column(j).get(i).size_bytes())
        .sum();
    key_bytes + row_bytes + 8 + JOIN_ENTRY_OVERHEAD
}

/// End of a [`BuildTable`] key chain.
const CHAIN_END: usize = usize::MAX;

/// The resident build side as columns: every build row's cells, in
/// build-input order, its join key's cells, and per distinct key the
/// indices of its first and last row. `next` chains each row to the
/// following row of its key, so a key's matches come back in build-input
/// order without a `Vec` per key or an allocation per row. The join's own
/// inputs and its spilled partition pairs all build one.
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

/// One pair of inputs being joined, at its spill depth: the resident
/// table built from its build side, the build partitions that overflowed
/// it (none while nothing spilled), and the probe rows routed after them.
struct Level {
    probe: BoxedIter,
    depth: u32,
    table: BuildTable,
    build_parts: Vec<Option<SpillWriter>>,
    probe_parts: Vec<Option<SpillWriter>>,
}

impl Level {
    /// The partition pairs this level spilled, each to be joined one
    /// depth further down. A partition only one side wrote to has no
    /// partner, and its file goes with it.
    fn spilled_pairs(self) -> impl DoubleEndedIterator<Item = (BoxedIter, BoxedIter, u32)> {
        let depth = self.depth + 1;
        self.build_parts
            .into_iter()
            .zip(self.probe_parts)
            .filter_map(move |parts| match parts {
                (Some(build), Some(probe)) => Some((
                    Box::new(SpillRowIter::new(build)) as BoxedIter,
                    Box::new(SpillRowIter::new(probe)) as BoxedIter,
                    depth,
                )),
                _ => None,
            })
    }
}

/// The join's keys and output column order. The context is the one the
/// join node was opened with, so its spills attribute to the join's
/// stats slot.
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

    /// Probe `level`'s table with every row of a compacted batch: a row
    /// whose partition the build side spilled to is also written to that
    /// partition's probe file, and each resident match adds a pair.
    fn probe(&self, level: &mut Level, batch: &RowBatch, pairs: &mut Pairs) -> Result<()> {
        let keys = Operand::eval_all(&self.probe_keys, batch)?;
        let key = operand_columns(&keys, batch);
        for i in 0..batch.len() {
            if !key_joinable(&key, i) {
                continue;
            }
            // Route before matching: once spilling started, a key's build
            // rows may be split between the resident table and a
            // partition, and the probe row must meet both halves.
            if !level.build_parts.is_empty() {
                let p = partition_of(key_cells(&key, i), level.depth);
                if level.build_parts[p].is_some() {
                    let writer = match &mut level.probe_parts[p] {
                        Some(writer) => writer,
                        slot => slot.insert(self.ctx.create_spill()?),
                    };
                    write_spill_row(writer, &batch.row(i).to_row())?;
                }
            }
            for b in level.table.matches(hash_cells(key_cells(&key, i)), &key, i) {
                pairs.build.push(b as u32);
                pairs.probe.push(i as u32);
            }
        }
        Ok(())
    }
}

/// Consume `input` into a resident [`BuildTable`], degrading to salted
/// hash partitions once `charge` rejects a row; the partitions are empty
/// when nothing spilled. Spill mode is sticky *per row*, not per key:
/// unlike the hash aggregate, every build row costs memory, so after the
/// first rejection all further rows spill — a key's rows may therefore be
/// split between the resident table and one partition. Correct because
/// each build row lives in exactly one place and probe rows visit both.
fn build_table(
    input: &mut dyn RowIterator,
    env: &JoinEnv,
    depth: u32,
    charge: &mut MemCharge,
) -> Result<(BuildTable, Vec<Option<SpillWriter>>)> {
    let mut table = BuildTable::default();
    let mut parts: Vec<Option<SpillWriter>> = Vec::new();
    while let Some(batch) = input.next_batch(env.ctx.batch_size)? {
        env.ctx.gov.check_deadline()?;
        let batch = batch.compact();
        let keys = Operand::eval_all(&env.build_keys, &batch)?;
        let key = operand_columns(&keys, &batch);
        for i in 0..batch.len() {
            if !key_joinable(&key, i) {
                continue;
            }
            if parts.is_empty() && charge.try_grow(join_entry_cost(&key, &batch, i)) {
                table.insert(hash_cells(key_cells(&key, i)), &key, &batch, i);
                continue;
            }
            if depth >= MAX_SPILL_DEPTH {
                return Err(DbError::ResourceExhausted(format!(
                    "hash join build side exceeded its memory budget even after \
                     {MAX_SPILL_DEPTH} repartition passes"
                )));
            }
            parts.resize_with(SPILL_PARTITIONS, || None);
            let writer = match &mut parts[partition_of(key_cells(&key, i), depth)] {
                Some(writer) => writer,
                slot => slot.insert(env.ctx.create_spill()?),
            };
            write_spill_row(writer, &batch.row(i).to_row())?;
        }
    }
    Ok((table, parts))
}

/// Inner equi hash join: hybrid Grace. Builds on the `build` input,
/// probes with `probe`, emits `left ++ right` rows (`probe_first` says
/// which side is the plan's left).
///
/// The resident build table is charged byte-for-byte against the query's
/// memory budget; on exhaustion the operator degrades to spilled
/// partition pairs, joined one after another once the probe drains. All
/// charges release and all partition files delete on drop, including
/// mid-stream cancellation.
pub struct HashJoinIter {
    env: JoinEnv,
    /// Pairs of inputs still to join, the next one last, each with its
    /// spill depth: the operator's own inputs at depth 0, then the
    /// partition pairs each level spilled, which go before the pairs of
    /// the levels above it.
    work: Vec<(BoxedIter, BoxedIter, u32)>,
    /// The pair being joined; `charge` holds its table's memory.
    level: Option<Level>,
    charge: MemCharge,
    /// The probe batch being joined, its match pairs, and how many of
    /// them were handed out already.
    probed: Option<RowBatch>,
    pairs: Pairs,
    emitted: usize,
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
        HashJoinIter {
            charge: MemCharge::new(ctx.gov.clone()),
            env: JoinEnv {
                build_keys,
                probe_keys,
                probe_first,
                ctx,
            },
            work: vec![(build, probe, 0)],
            level: None,
            probed: None,
            pairs: Pairs::default(),
            emitted: 0,
        }
    }
}

impl RowIterator for HashJoinIter {
    /// Build the next pair's table, then pull its probe batches, probe
    /// the table with each of their rows (spill routing, lookup) into
    /// match pairs, and hand the pairs on `max_rows` at a time as
    /// gathered batches.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let max = max_rows.max(1);
        loop {
            if let (Some(level), Some(probed)) = (&self.level, &self.probed) {
                if self.emitted < self.pairs.build.len() {
                    let from = self.emitted;
                    let to = (from + max).min(self.pairs.build.len());
                    self.emitted = to;
                    let joined = self.env.gather(&level.table, probed, &self.pairs, from, to);
                    return Ok(Some(joined));
                }
            }
            self.probed = None;
            let Some(level) = self.level.as_mut() else {
                let Some((mut build, probe, depth)) = self.work.pop() else {
                    return Ok(None);
                };
                let (table, build_parts) =
                    build_table(build.as_mut(), &self.env, depth, &mut self.charge)?;
                let probe_parts = build_parts.iter().map(|_| None).collect();
                self.level = Some(Level {
                    probe,
                    depth,
                    table,
                    build_parts,
                    probe_parts,
                });
                continue;
            };
            self.env.ctx.gov.check_deadline()?;
            match level.probe.next_batch(max)? {
                Some(batch) => {
                    let batch = batch.compact();
                    self.pairs.build.clear();
                    self.pairs.probe.clear();
                    self.emitted = 0;
                    self.env.probe(level, &batch, &mut self.pairs)?;
                    self.probed = Some(batch);
                }
                None => {
                    let level = self.level.take().expect("level being probed");
                    // Reversed, so pair 0 (and whatever it spills) joins
                    // before pair 1.
                    self.work.extend(level.spilled_pairs().rev());
                    self.charge.release_all();
                }
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
}
