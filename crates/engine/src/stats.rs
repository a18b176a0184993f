//! Execution statistics: actual per-operator numbers. (Engine counters
//! live in the one process registry, `seqdb_storage::storage_counters`;
//! the statement history in [`crate::querystore`].)
//!
//! The paper's evaluation reads SQL Server's *actual* execution plans to
//! attribute query time (Figures 9–10). seqdb's analogue is
//! [`ExecStats`] / [`NodeStats`], a per-query collector threaded through
//! `Plan::open`. Every operator node registers one [`NodeStats`] slot (in
//! pre-order, matching the `EXPLAIN` rendering order) and is wrapped in a
//! [`StatsIter`] that records rows produced, `next_batch` calls,
//! cumulative wall time and the query-memory high-water observed while
//! the node was active. Slots are `Arc`-shared with the collector, so the
//! numbers survive even when the pipeline is dropped mid-stream by a
//! cancellation or `KILL` — nothing is flushed on close, because nothing
//! ever lived only inside the iterator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seqdb_storage::SpillTally;
use seqdb_types::Result;

use crate::exec::{BoxedIter, RowBatch, RowIterator};
use crate::governor::QueryGovernor;

/// Actual numbers for one operator node of one executed plan.
#[derive(Debug)]
pub struct NodeStats {
    /// Operator label (the `EXPLAIN` header name), for debugging.
    pub label: &'static str,
    rows: AtomicU64,
    nexts: AtomicU64,
    /// Non-empty batches this node delivered.
    batches: AtomicU64,
    elapsed_nanos: AtomicU64,
    peak_mem: AtomicU64,
    /// Values per row this node emits, set at open.
    width: AtomicU64,
    /// Spill traffic attributed to this node (files + bytes).
    pub spill: Arc<SpillTally>,
}

impl NodeStats {
    fn new(label: &'static str) -> Arc<NodeStats> {
        Arc::new(NodeStats {
            label,
            rows: AtomicU64::new(0),
            nexts: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            elapsed_nanos: AtomicU64::new(0),
            peak_mem: AtomicU64::new(0),
            width: AtomicU64::new(0),
            spill: Arc::new(SpillTally::default()),
        })
    }

    /// Rows this node produced.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// `next_batch` calls made on this node (batches + the final
    /// end-of-stream pull, unless the consumer stopped early).
    pub fn nexts(&self) -> u64 {
        self.nexts.load(Ordering::Relaxed)
    }

    /// Non-empty batches this node delivered.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Cumulative wall time spent inside this node's `next_batch`, children
    /// included (the SQL Server showplan convention).
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos.load(Ordering::Relaxed))
    }

    /// Highest query-wide governed memory observed while this node was
    /// producing rows (an upper bound on what the node itself charged).
    pub fn peak_mem_bytes(&self) -> u64 {
        self.peak_mem.load(Ordering::Relaxed)
    }

    /// Values per row this node emits: only the columns the plan above
    /// it reads (see `exec::Layout`).
    pub fn width(&self) -> u64 {
        self.width.load(Ordering::Relaxed)
    }

    /// Record the node's row width (`Plan::open` does, once).
    pub(crate) fn set_width(&self, width: usize) {
        self.width.store(width as u64, Ordering::Relaxed);
    }

    /// The `EXPLAIN ANALYZE` suffix for this node's header line.
    pub fn annotation(&self, est_rows: Option<u64>) -> String {
        let est = est_rows.map_or_else(|| "?".to_string(), |n| n.to_string());
        let ms = self.elapsed().as_secs_f64() * 1e3;
        let mut out = format!(
            " (actual_rows={} est_rows={est} nexts={} elapsed_ms={ms:.3} peak_mem_kb={} width={}",
            self.rows(),
            self.nexts(),
            self.peak_mem_bytes() / 1024,
            self.width(),
        );
        if self.batches() > 0 {
            out.push_str(&format!(
                " batches={} avg_batch={:.1}",
                self.batches(),
                self.rows() as f64 / self.batches() as f64
            ));
        }
        if self.spill.files() > 0 {
            out.push_str(&format!(
                " spill_files={} spill_kb={}",
                self.spill.files(),
                self.spill.bytes() / 1024
            ));
        }
        out.push(')');
        out
    }
}

/// Per-query collector: one [`NodeStats`] per plan node, registered in
/// pre-order during `Plan::open` so index *i* lines up with the *i*-th
/// operator header of the `EXPLAIN` rendering.
#[derive(Default)]
pub struct ExecStats {
    nodes: Mutex<Vec<Arc<NodeStats>>>,
}

impl ExecStats {
    pub fn new() -> Arc<ExecStats> {
        Arc::new(ExecStats::default())
    }

    /// Register the next node slot (called by `Plan::open` in pre-order).
    pub fn register(&self, label: &'static str) -> Arc<NodeStats> {
        let node = NodeStats::new(label);
        self.nodes.lock().push(node.clone());
        node
    }

    /// All node slots in registration (= pre-order) order.
    pub fn nodes(&self) -> Vec<Arc<NodeStats>> {
        self.nodes.lock().clone()
    }
}

/// Wraps an operator and records its actual numbers into a shared
/// [`NodeStats`] on every call — there is no flush-on-close step, so an
/// early drop (LIMIT, cancellation, KILL) loses nothing.
pub struct StatsIter {
    inner: BoxedIter,
    node: Arc<NodeStats>,
    gov: Arc<QueryGovernor>,
}

impl StatsIter {
    pub fn new(inner: BoxedIter, node: Arc<NodeStats>, gov: Arc<QueryGovernor>) -> StatsIter {
        StatsIter { inner, node, gov }
    }
}

impl RowIterator for StatsIter {
    /// One timing read, one `nexts` bump and one `rows += batch.len()`
    /// per batch, so actuals cost the same whether the node moved one row
    /// or a thousand.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        let start = Instant::now();
        let out = self.inner.next_batch(max_rows);
        self.node
            .elapsed_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.node.nexts.fetch_add(1, Ordering::Relaxed);
        if let Ok(Some(batch)) = &out {
            self.node
                .rows
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.node.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.node
            .peak_mem
            .fetch_max(self.gov.mem_used() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, ValuesIter};
    use seqdb_types::{Row, Value};

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn stats_iter_counts_rows_and_calls() {
        let stats = ExecStats::new();
        let node = stats.register("Constant Scan");
        let gov = QueryGovernor::unlimited();
        let it = StatsIter::new(Box::new(ValuesIter::new(rows(5))), node.clone(), gov);
        let out = collect(Box::new(it), 2).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(node.rows(), 5);
        assert_eq!(node.batches(), 3);
        assert_eq!(node.nexts(), 4, "3 batches + 1 end-of-stream pull");
        assert_eq!(stats.nodes().len(), 1);
    }

    #[test]
    fn early_drop_keeps_partial_stats() {
        let stats = ExecStats::new();
        let node = stats.register("Constant Scan");
        let gov = QueryGovernor::unlimited();
        let mut it = StatsIter::new(Box::new(ValuesIter::new(rows(100))), node.clone(), gov);
        for _ in 0..7 {
            it.next_batch(1).unwrap();
        }
        drop(it);
        assert_eq!(node.rows(), 7, "stats survive an early iterator drop");
        assert_eq!(node.nexts(), 7);
    }

    #[test]
    fn stats_iter_tracks_memory_high_water() {
        let gov = QueryGovernor::new(None, Some(1 << 20));
        let stats = ExecStats::new();
        let node = stats.register("Constant Scan");
        gov.reserve(4096).unwrap();
        let mut it = StatsIter::new(
            Box::new(ValuesIter::new(rows(2))),
            node.clone(),
            gov.clone(),
        );
        it.next_batch(1).unwrap();
        gov.release(4096);
        it.next_batch(1).unwrap();
        assert!(node.peak_mem_bytes() >= 4096);
    }

    #[test]
    fn annotation_mentions_actual_rows() {
        let stats = ExecStats::new();
        let node = stats.register("Table Scan");
        node.rows.store(42, Ordering::Relaxed);
        let ann = node.annotation(Some(100));
        assert!(ann.contains("actual_rows=42"));
        assert!(ann.contains("est_rows=100"));
        let ann = node.annotation(None);
        assert!(ann.contains("est_rows=?"));
    }
}
