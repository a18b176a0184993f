//! Sorting: external merge sort with spill accounting, plus Top-N.
//!
//! The sort operator is blocking; when its input exceeds the memory
//! budget it sorts and spills runs to the [`TempSpace`] and k-way merges
//! them. Spilled bytes are globally accounted, which is how the consensus
//! experiment (§5.3.3) quantifies the "huge intermediate result on the
//! temporary tablespace" of the pivot-based plan.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use seqdb_storage::tempspace::SpillReader;
use seqdb_types::{Result, Row, Value};

use crate::exec::rowser;
use crate::exec::{fill_batch, BoxedIter, ExecContext, RowBatch, RowCursor, RowIterator};
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
        let mut runs: Vec<SpillReader> = Vec::new();
        let mut buffer: Vec<(Vec<Value>, Row)> = Vec::new();
        let mut buffered_bytes = 0usize;
        let mut charge = MemCharge::new(ctx.gov.clone());

        while let Some(row) = input.next()? {
            let sz = row.size_bytes();
            buffered_bytes += sz;
            // Buffered bytes count against the query's budget; when the
            // governor declines, degrade by spilling this buffer instead
            // of failing — the sort's graceful degradation path.
            let over_budget = !charge.try_grow(sz) || buffered_bytes > ctx.sort_budget;
            let kv = eval_keys(keys, &row)?;
            buffer.push((kv, row));
            if over_budget {
                runs.push(spill_run(ctx, keys, &mut buffer)?);
                buffered_bytes = 0;
                charge.release_all();
            }
        }

        if runs.is_empty() {
            buffer.sort_by(|a, b| compare_keys(keys, &a.0, &b.0));
            let rows: Vec<Row> = buffer.into_iter().map(|(_, r)| r).collect();
            return Ok(SortState::InMemory(rows.into_iter(), charge));
        }
        if !buffer.is_empty() {
            runs.push(spill_run(ctx, keys, &mut buffer)?);
            charge.release_all();
        }
        MergeRuns::new(runs, keys.to_vec()).map(SortState::Merging)
    }
}

fn spill_run(
    ctx: &ExecContext,
    keys: &[SortKey],
    buffer: &mut Vec<(Vec<Value>, Row)>,
) -> Result<SpillReader> {
    buffer.sort_by(|a, b| compare_keys(keys, &a.0, &b.0));
    let mut writer = ctx.create_spill()?;
    let mut scratch = Vec::new();
    for (kv, row) in buffer.drain(..) {
        rowser::begin_frame(&mut scratch);
        rowser::write_values(&mut scratch, &kv);
        rowser::write_row(&mut scratch, &row);
        rowser::finish_frame(&mut scratch);
        writer.write_all(&scratch)?;
    }
    writer.finish()
}

/// K-way merge over spilled runs using a tournament heap.
struct MergeRuns {
    keys: Vec<SortKey>,
    runs: Vec<SpillReader>,
    heap: BinaryHeap<HeapEntry>,
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
    fn new(mut runs: Vec<SpillReader>, keys: Vec<SortKey>) -> Result<MergeRuns> {
        let desc = std::sync::Arc::new(keys.iter().map(|k| k.desc).collect::<Vec<_>>());
        let mut heap = BinaryHeap::new();
        for (i, run) in runs.iter_mut().enumerate() {
            if let Some((key, row)) = read_entry(run)? {
                heap.push(HeapEntry {
                    key,
                    row,
                    run: i,
                    desc: desc.clone(),
                });
            }
        }
        Ok(MergeRuns { keys, runs, heap })
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        let run = top.run;
        let desc = top.desc.clone();
        if let Some((key, row)) = read_entry(&mut self.runs[run])? {
            self.heap.push(HeapEntry {
                key,
                row,
                run,
                desc,
            });
        }
        let _ = &self.keys; // directions are carried in the heap entries
        Ok(Some(top.row))
    }
}

fn read_entry(run: &mut SpillReader) -> Result<Option<(Vec<Value>, Row)>> {
    let mut lenbuf = [0u8; 4];
    if !run.read_exact(&mut lenbuf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(lenbuf) as usize;
    let mut payload = vec![0u8; len];
    if !run.read_exact(&mut payload)? {
        return Err(seqdb_types::DbError::Storage("truncated sort spill".into()));
    }
    let mut pos = 0;
    let key = rowser::read_row(&payload, &mut pos)?.into_values();
    let row = rowser::read_row(&payload, &mut pos)?;
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
                SortState::Merging(m) => return m.next_row(),
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
        let ctx = test_context();
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
    fn external_sort_spills_and_merges_correctly() {
        let mut ctx = test_context();
        ctx.sort_budget = 4096; // force spilling
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
    }

    #[test]
    fn governor_budget_degrades_sort_to_spill() {
        use crate::governor::QueryGovernor;
        // The configured sort_budget is huge, but the per-query governor
        // budget is tiny: the sort must degrade by spilling rather than
        // fail with ResourceExhausted.
        let mut ctx = test_context();
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
        assert_eq!(ctx.gov.mem_used(), 0, "all sort charges released");
    }

    #[test]
    fn multi_key_sort_with_mixed_directions() {
        let ctx = test_context();
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
        let ctx = test_context();
        let it = SortIter::new(
            Box::new(ValuesIter::new(vec![])),
            vec![SortKey::asc(Expr::col(0, "x"))],
            ctx,
        );
        assert!(collect(Box::new(it), 1024).unwrap().is_empty());
    }
}
