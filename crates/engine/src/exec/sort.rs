//! Sorting: external merge sort with spill accounting, plus Top-N.
//!
//! The sort operator is blocking; when the query's memory budget declines
//! a row it sorts and spills a run to the
//! [`TempSpace`](seqdb_storage::TempSpace), and it k-way merges the runs
//! in tiers of at most `MERGE_FANIN` runs. Spilled bytes are globally
//! accounted, which is how the consensus experiment (§5.3.3) quantifies
//! the "huge intermediate result on the temporary tablespace" of the
//! pivot-based plan.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use seqdb_storage::tempspace::{SpillReader, SpillWriter};
use seqdb_types::codec::{self, Reader};
use seqdb_types::{Result, Row, Value};

use crate::exec::{
    corrupt_spill, fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator,
};
use crate::expr::Expr;
use crate::governor::MemCharge;

/// One ORDER BY key: an expression and a direction.
#[derive(Clone, Debug)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(expr: Expr) -> SortKey {
        SortKey { expr, desc: false }
    }
    pub fn desc(expr: Expr) -> SortKey {
        SortKey { expr, desc: true }
    }
}

/// Compare two evaluated key vectors under the key directions.
pub fn compare_keys(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for (k, (va, vb)) in keys.iter().zip(a.iter().zip(b.iter())) {
        let ord = va.total_cmp(vb);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Most runs one merge reads at once. Each open run holds a file and its
/// read buffer, so a sort whose budget is held elsewhere (every row its
/// own run) must merge in tiers: once this many runs of one level exist,
/// they merge into one run of the next level.
const MERGE_FANIN: usize = 64;

fn eval_keys(keys: &[SortKey], row: &Row) -> Result<Vec<Value>> {
    keys.iter().map(|k| k.expr.eval(row)).collect()
}

/// Blocking external sort.
pub struct SortIter {
    state: SortState,
}

enum SortState {
    /// Not yet executed.
    Pending {
        input: BoxedIter,
        keys: Vec<SortKey>,
        ctx: ExecContext,
    },
    /// Everything fit in memory; the charge covers the buffered rows and
    /// releases when the sort is dropped or exhausted.
    InMemory(std::vec::IntoIter<Row>, MemCharge),
    /// Merging spilled runs.
    Merging(MergeRuns),
    Done,
}

impl SortIter {
    pub fn new(input: BoxedIter, keys: Vec<SortKey>, ctx: ExecContext) -> SortIter {
        SortIter {
            state: SortState::Pending { input, keys, ctx },
        }
    }

    fn execute(input: BoxedIter, keys: &[SortKey], ctx: &ExecContext) -> Result<SortState> {
        let mut input = RowCursor::new(input, ctx.batch_size);
        // `levels[l]` holds fewer than MERGE_FANIN runs, each merged
        // from MERGE_FANIN runs of level `l - 1`.
        let mut levels: Vec<Vec<SpillReader>> = Vec::new();
        let mut buffer: Vec<(Vec<Value>, Row)> = Vec::new();
        let mut charge = MemCharge::new(ctx.gov.clone());

        while let Some(row) = input.next()? {
            // Buffered bytes count against the query's budget; when the
            // governor declines, degrade by spilling this buffer instead
            // of failing — the sort's graceful degradation path.
            let over_budget = !charge.try_grow(row.size_bytes());
            let kv = eval_keys(keys, &row)?;
            buffer.push((kv, row));
            if over_budget {
                let run = spill_run(ctx, keys, &mut buffer)?;
                charge.release_all();
                add_run(ctx, keys, &mut levels, run)?;
            }
        }

        if levels.is_empty() {
            buffer.sort_by(|a, b| compare_keys(keys, &a.0, &b.0));
            let rows: Vec<Row> = buffer.into_iter().map(|(_, r)| r).collect();
            return Ok(SortState::InMemory(rows.into_iter(), charge));
        }
        let mut runs: Vec<SpillReader> = levels.into_iter().flatten().collect();
        if !buffer.is_empty() {
            runs.push(spill_run(ctx, keys, &mut buffer)?);
            charge.release_all();
        }
        // Merge the smallest runs until one merge can read the rest.
        while runs.len() > MERGE_FANIN {
            let n = MERGE_FANIN.min(runs.len() - MERGE_FANIN + 1);
            let merged = merge_to_run(ctx, keys, runs.drain(..n).collect())?;
            runs.push(merged);
        }
        MergeRuns::new(runs, keys).map(SortState::Merging)
    }
}

/// Append one sort-spill frame: the evaluated key, then the row.
fn write_entry(writer: &mut SpillWriter, key: &[Value], row: &Row) -> Result<()> {
    writer.write_frame(|b| {
        codec::put_row(b, key);
        codec::put_row(b, row.values());
    })
}

fn spill_run(
    ctx: &ExecContext,
    keys: &[SortKey],
    buffer: &mut Vec<(Vec<Value>, Row)>,
) -> Result<SpillReader> {
    buffer.sort_by(|a, b| compare_keys(keys, &a.0, &b.0));
    let mut writer = ctx.create_spill()?;
    for (kv, row) in buffer.drain(..) {
        write_entry(&mut writer, &kv, &row)?;
    }
    writer.finish()
}

/// File a new level-0 run, merging every level that reaches
/// [`MERGE_FANIN`] runs into one run of the level above.
fn add_run(
    ctx: &ExecContext,
    keys: &[SortKey],
    levels: &mut Vec<Vec<SpillReader>>,
    mut run: SpillReader,
) -> Result<()> {
    for level in 0.. {
        if level == levels.len() {
            levels.push(Vec::new());
        }
        levels[level].push(run);
        if levels[level].len() < MERGE_FANIN {
            break;
        }
        run = merge_to_run(ctx, keys, std::mem::take(&mut levels[level]))?;
    }
    Ok(())
}

/// Merge sorted runs into one new run; the inputs delete as they drop.
fn merge_to_run(
    ctx: &ExecContext,
    keys: &[SortKey],
    runs: Vec<SpillReader>,
) -> Result<SpillReader> {
    let mut merge = MergeRuns::new(runs, keys)?;
    let mut writer = ctx.create_spill()?;
    while let Some(entry) = merge.next_entry()? {
        write_entry(&mut writer, &entry.key, &entry.row)?;
    }
    writer.finish()
}

#[cfg(test)]
thread_local! {
    /// Most runs any one merge on this thread has read at once.
    static WIDEST_MERGE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// K-way merge over spilled runs using a tournament heap.
struct MergeRuns {
    runs: Vec<SpillReader>,
    heap: BinaryHeap<HeapEntry>,
    /// Reused frame buffer for every run's reads.
    frame: Vec<u8>,
}

struct HeapEntry {
    /// Reversed ordering lives in the `Ord` impl (BinaryHeap is a
    /// max-heap; we need the minimum key on top).
    key: Vec<Value>,
    row: Row,
    run: usize,
    /// Shared view of the sort directions for the Ord impl.
    desc: std::sync::Arc<Vec<bool>>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest (per directions) on top of the max-heap.
        let mut ord = Ordering::Equal;
        for (i, (a, b)) in self.key.iter().zip(other.key.iter()).enumerate() {
            let o = a.total_cmp(b);
            let o = if self.desc.get(i).copied().unwrap_or(false) {
                o.reverse()
            } else {
                o
            };
            if o != Ordering::Equal {
                ord = o;
                break;
            }
        }
        ord.reverse()
    }
}

impl MergeRuns {
    fn new(mut runs: Vec<SpillReader>, keys: &[SortKey]) -> Result<MergeRuns> {
        #[cfg(test)]
        WIDEST_MERGE.with(|w| w.set(w.get().max(runs.len())));
        let desc = std::sync::Arc::new(keys.iter().map(|k| k.desc).collect::<Vec<_>>());
        let mut heap = BinaryHeap::new();
        let mut frame = Vec::new();
        for (i, run) in runs.iter_mut().enumerate() {
            if let Some((key, row)) = read_entry(run, &mut frame)? {
                heap.push(HeapEntry {
                    key,
                    row,
                    run: i,
                    desc: desc.clone(),
                });
            }
        }
        Ok(MergeRuns { runs, heap, frame })
    }

    /// Pop the smallest entry, refilling the heap from its run.
    fn next_entry(&mut self) -> Result<Option<HeapEntry>> {
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        if let Some((key, row)) = read_entry(&mut self.runs[top.run], &mut self.frame)? {
            self.heap.push(HeapEntry {
                key,
                row,
                run: top.run,
                desc: top.desc.clone(),
            });
        }
        Ok(Some(top))
    }
}

fn read_entry(run: &mut SpillReader, frame: &mut Vec<u8>) -> Result<Option<(Vec<Value>, Row)>> {
    if !run.read_frame(frame)? {
        return Ok(None);
    }
    let mut r = Reader::new(frame);
    let key = r.row().map_err(corrupt_spill)?;
    let row = Row::new(r.row().map_err(corrupt_spill)?);
    Ok(Some((key, row)))
}

impl SortIter {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            match &mut self.state {
                SortState::Pending { .. } => {
                    let SortState::Pending { input, keys, ctx } =
                        std::mem::replace(&mut self.state, SortState::Done)
                    else {
                        unreachable!()
                    };
                    self.state = Self::execute(input, &keys, &ctx)?;
                }
                SortState::InMemory(rows, _charge) => return Ok(rows.next()),
                SortState::Merging(m) => return Ok(m.next_entry()?.map(|e| e.row)),
                SortState::Done => return Ok(None),
            }
        }
    }
}

impl RowIterator for SortIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

/// TOP n ... ORDER BY: keeps only the best n rows in a bounded heap —
/// never spills regardless of input size.
pub struct TopNIter {
    input: Option<RowCursor>,
    keys: Vec<SortKey>,
    n: usize,
    output: std::vec::IntoIter<Row>,
}

impl TopNIter {
    pub fn new(input: BoxedIter, keys: Vec<SortKey>, n: usize, batch_size: usize) -> TopNIter {
        TopNIter {
            input: Some(RowCursor::new(input, batch_size)),
            keys,
            n,
            output: Vec::new().into_iter(),
        }
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut best: Vec<(Vec<Value>, Row)> = Vec::with_capacity(self.n + 1);
            while let Some(row) = input.next()? {
                let kv = eval_keys(&self.keys, &row)?;
                // Insertion sort into the bounded buffer; fine for the
                // small n of TOP queries.
                let pos = best.partition_point(|(k, _)| {
                    compare_keys(&self.keys, k, &kv) != Ordering::Greater
                });
                if pos < self.n {
                    best.insert(pos, (kv, row));
                    best.truncate(self.n);
                }
            }
            self.output = best
                .into_iter()
                .map(|(_, r)| r)
                .collect::<Vec<_>>()
                .into_iter();
        }
        Ok(self.output.next())
    }
}

impl RowIterator for TopNIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        fill_batch(max_rows, || self.next_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::{int_rows, test_context};
    use crate::exec::{collect, ValuesIter};

    fn shuffled(n: i64) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("v{i}"))]))
            .collect();
        let mut state = 99u64;
        for i in (1..rows.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            rows.swap(i, (state >> 33) as usize % (i + 1));
        }
        rows
    }

    #[test]
    fn in_memory_sort_asc_desc() {
        let (ctx, _dir) = test_context();
        let rows = shuffled(100);
        let it = SortIter::new(
            Box::new(ValuesIter::new(rows.clone())),
            vec![SortKey::asc(Expr::col(0, "id"))],
            ctx.clone(),
        );
        let sorted = collect(Box::new(it), 1024).unwrap();
        assert_eq!(sorted[0][0], Value::Int(0));
        assert_eq!(sorted[99][0], Value::Int(99));

        let it = SortIter::new(
            Box::new(ValuesIter::new(rows)),
            vec![SortKey::desc(Expr::col(0, "id"))],
            ctx,
        );
        let sorted = collect(Box::new(it), 1024).unwrap();
        assert_eq!(sorted[0][0], Value::Int(99));
    }

    #[test]
    fn governor_budget_degrades_sort_to_spill() {
        use crate::governor::QueryGovernor;
        // A tiny per-query budget: the sort must degrade by spilling
        // runs rather than fail with ResourceExhausted.
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(4096));
        ctx.temp.reset_counters();
        let rows = shuffled(5000);
        let it = SortIter::new(
            Box::new(ValuesIter::new(rows)),
            vec![SortKey::asc(Expr::col(0, "id"))],
            ctx.clone(),
        );
        let sorted = collect(Box::new(it), 1024).unwrap();
        assert_eq!(sorted.len(), 5000);
        for (i, r) in sorted.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
        assert!(ctx.temp.spill_count() > 1, "sort must have spilled runs");
        assert!(ctx.temp.bytes_written() > 0);
        assert_eq!(ctx.gov.mem_used(), 0, "all sort charges released");
    }

    #[test]
    fn a_sort_whose_budget_is_held_elsewhere_merges_in_tiers() {
        use crate::governor::QueryGovernor;
        // Another charge holds the whole budget, so every row becomes a
        // run of its own: far more runs than one merge may open.
        let (mut ctx, _dir) = test_context();
        ctx.gov = QueryGovernor::new(None, Some(4096));
        let mut hog = MemCharge::new(ctx.gov.clone());
        hog.grow(4096).unwrap();
        ctx.temp.reset_counters();
        WIDEST_MERGE.with(|w| w.set(0));
        let rows = shuffled(3000);
        let it = SortIter::new(
            Box::new(ValuesIter::new(rows)),
            vec![SortKey::desc(Expr::col(0, "id"))],
            ctx.clone(),
        );
        let sorted = collect(Box::new(it), 1024).unwrap();
        let ids: Vec<i64> = sorted.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, (0..3000).rev().collect::<Vec<_>>());
        assert!(
            ctx.temp.spill_count() > 3000,
            "one run per row, plus merges"
        );
        let widest = WIDEST_MERGE.with(|w| w.get());
        assert!(
            (2..=MERGE_FANIN).contains(&widest),
            "widest merge read {widest} runs"
        );
        drop(hog);
        assert_eq!(ctx.gov.mem_used(), 0, "all sort charges released");
        assert_eq!(ctx.temp.live_files().unwrap(), 0, "every run deleted");
    }

    #[test]
    fn multi_key_sort_with_mixed_directions() {
        let (ctx, _dir) = test_context();
        let rows = int_rows(&[&[1, 9], &[0, 5], &[1, 3], &[0, 7]]);
        let it = SortIter::new(
            Box::new(ValuesIter::new(rows)),
            vec![
                SortKey::asc(Expr::col(0, "g")),
                SortKey::desc(Expr::col(1, "v")),
            ],
            ctx,
        );
        let sorted = collect(Box::new(it), 1024).unwrap();
        let flat: Vec<(i64, i64)> = sorted
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(flat, vec![(0, 7), (0, 5), (1, 9), (1, 3)]);
    }

    #[test]
    fn topn_matches_full_sort() {
        let rows = shuffled(1000);
        let it = TopNIter::new(
            Box::new(ValuesIter::new(rows)),
            vec![SortKey::desc(Expr::col(0, "id"))],
            5,
            64,
        );
        let top = collect(Box::new(it), 1024).unwrap();
        let ids: Vec<i64> = top.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![999, 998, 997, 996, 995]);
    }

    #[test]
    fn empty_input() {
        let (ctx, _dir) = test_context();
        let it = SortIter::new(
            Box::new(ValuesIter::new(vec![])),
            vec![SortKey::asc(Expr::col(0, "x"))],
            ctx,
        );
        assert!(collect(Box::new(it), 1024).unwrap().is_empty());
    }
}
