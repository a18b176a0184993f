//! Parallel query execution: the exchange-based aggregation plan of the
//! paper's Figures 8 and 9.
//!
//! SQL Server parallelizes Query 1 by scanning the table with multiple
//! workers, computing *partial* aggregates per worker, repartitioning on
//! the group key and finishing with a *final* aggregate, then gathering
//! streams. seqdb's [`ParallelAggIter`] implements the same shape:
//!
//! 1. the heap's pages are dealt round-robin to `dop` workers;
//! 2. each worker scans its pages, applies the pushed-down filter, and
//!    builds a partial hash-aggregate (possible because every aggregate —
//!    built-in or user-defined — implements `merge`, paper §2.3.4);
//! 3. the coordinating thread merges the partial maps (the repartition +
//!    final aggregate collapsed into one merge, valid because merge is
//!    associative) and hands the finished groups out of the merged map,
//!    keeping the workers' charges until the last one is out.
//!
//! The operator never spills. The binder plans it only when the query
//! has no memory budget; a budgeted GROUP BY runs as the serial hash
//! aggregate, which has the one spill path. Should a hand-built plan run
//! it under a budget anyway, the first group the budget rejects fails the
//! query with a typed `ResourceExhausted`.
//!
//! Per-worker busy time and row counts are recorded in [`WorkerStats`],
//! which is how the benchmark harness regenerates the utilization plot of
//! Figure 8 without an OS-level profiler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_types::{DbError, Result};

use crate::catalog::Table;
use crate::exec::agg::{
    aggregate_partial_spilling, merge_maps, AggSpec, GroupDrain, GroupedStates, MAX_SPILL_DEPTH,
};
use crate::exec::scan::HeapScanIter;
use crate::exec::{mark_read, ExecContext, RowBatch, RowIterator};
use crate::expr::Expr;
use crate::governor::{MemCharge, QueryGovernor};
use crate::udx::panic_payload;

/// Pick the error a failed parallel phase should surface: the first
/// non-`Cancelled` error is the root cause — siblings that were told to
/// stop because of it report `Cancelled` and would mask it.
fn root_cause(errors: &[DbError]) -> DbError {
    errors
        .iter()
        .find(|e| !matches!(e, DbError::Cancelled(_)))
        .unwrap_or(&errors[0])
        .clone()
}

/// What one worker did during a parallel operator's execution.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    pub worker: usize,
    pub rows_scanned: u64,
    pub groups_produced: u64,
    pub busy: Duration,
}

/// Parallel scan + partial/final aggregation over a base table.
pub struct ParallelAggIter {
    /// One partitioned scan per worker, taken when execution starts. They
    /// decode only the columns the filter, the group keys and the
    /// aggregate arguments read, and those expressions are remapped onto
    /// the narrow rows.
    scans: Vec<HeapScanIter>,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    dop: usize,
    ctx: ExecContext,
    /// The merged groups being handed out, and the workers' charges for
    /// them, held until the last group is out.
    output: Option<GroupDrain>,
    charges: Vec<MemCharge>,
    stats: Vec<WorkerStats>,
}

impl ParallelAggIter {
    pub fn new(
        table: Arc<Table>,
        filter: Option<Expr>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        dop: usize,
        ctx: ExecContext,
    ) -> Result<ParallelAggIter> {
        if dop == 0 {
            return Err(DbError::Plan("degree of parallelism must be >= 1".into()));
        }
        for a in &aggs {
            if a.factory.order_arg().is_some() {
                return Err(DbError::Plan(format!(
                    "aggregate {} is order-sensitive and cannot run in a parallel plan",
                    a.factory.name()
                )));
            }
        }
        let mut columns = vec![false; table.schema.len()];
        mark_read(
            &mut columns,
            group_exprs.iter().chain(aggs.iter().flat_map(|a| &a.args)),
        );
        let scans = (0..dop)
            .map(|w| {
                HeapScanIter::partitioned(
                    table.clone(),
                    filter.as_ref(),
                    Some(columns.clone()),
                    w,
                    dop,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let layout = scans[0].layout();
        let group_exprs = layout.remap_all(&group_exprs)?;
        let aggs = aggs
            .iter()
            .map(|a| a.remapped(layout))
            .collect::<Result<Vec<_>>>()?;
        Ok(ParallelAggIter {
            scans,
            group_exprs,
            aggs,
            dop,
            ctx,
            output: None,
            charges: Vec::new(),
            stats: Vec::new(),
        })
    }

    /// Per-worker statistics; empty until execution has run.
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.stats
    }

    fn execute(&mut self) -> Result<()> {
        let dop = self.dop;
        let ctx = &self.ctx;
        let mut partials = Vec::with_capacity(dop);
        // MemCharges travel with the partial maps they account for.
        let mut charges: Vec<MemCharge> = Vec::with_capacity(dop);
        let mut errors: Vec<DbError> = Vec::new();

        // The scans run once: a second pull after a failure must not
        // aggregate nothing into a plausible empty result.
        let scans = std::mem::take(&mut self.scans);
        if scans.is_empty() {
            return Err(DbError::Execution(
                "parallel aggregate pulled again after it failed".into(),
            ));
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(dop);
            for (w, scan) in scans.into_iter().enumerate() {
                let group_exprs = &self.group_exprs;
                let aggs = &self.aggs;
                handles.push(scope.spawn(move || {
                    let start = Instant::now();
                    let mut scan = CountingIter {
                        inner: scan,
                        rows: 0,
                        gov: ctx.gov.clone(),
                    };
                    // Workers share the query's governor: their partial
                    // maps charge one common budget, and they stop at the
                    // next row once a sibling cancels it. They run the
                    // serial aggregate's group loop with no repartition
                    // pass left, so they never spill.
                    let mut charge = MemCharge::new(ctx.gov.clone());
                    let result = aggregate_partial_spilling(
                        &mut scan,
                        group_exprs,
                        aggs,
                        &mut charge,
                        ctx,
                        MAX_SPILL_DEPTH,
                    );
                    if result.is_err() {
                        // Fail fast: siblings notice at their next
                        // cooperative check instead of scanning on.
                        ctx.gov.cancel();
                    }
                    let (map, _) = result?;
                    let stats = WorkerStats {
                        worker: w,
                        rows_scanned: scan.rows,
                        groups_produced: map.len() as u64,
                        busy: start.elapsed(),
                    };
                    Ok::<_, DbError>((map, stats, charge))
                }));
            }
            // Join every worker before reporting anything: no handle is
            // left detached, and no `unwrap()` turns a worker panic into
            // a coordinator panic.
            for h in handles {
                match h.join() {
                    Ok(Ok((map, stats, charge))) => {
                        self.stats.push(stats);
                        partials.push(map);
                        charges.push(charge);
                    }
                    Ok(Err(e)) => errors.push(e),
                    Err(p) => {
                        ctx.gov.cancel();
                        errors.push(DbError::Execution(format!(
                            "parallel worker panicked: {}",
                            panic_payload(p)
                        )));
                    }
                }
            }
        });
        self.stats.sort_by_key(|s| s.worker);

        if !errors.is_empty() {
            return Err(root_cause(&errors));
        }

        // Final aggregation: merge the workers' partial maps into one.
        // Duplicate keys collapse, so the merged map costs no more than
        // the sum of the worker charges, which stay held until every
        // finished group is out.
        let mut merged = partials
            .pop()
            .unwrap_or_else(|| GroupedStates::new(self.group_exprs.len()));
        for p in partials {
            merge_maps(&mut merged, p, &self.aggs)?;
        }
        merged.ensure_global_group(&self.aggs)?;
        self.output = Some(merged.into_drain());
        self.charges = charges;
        Ok(())
    }
}

struct CountingIter {
    inner: HeapScanIter,
    rows: u64,
    gov: Arc<QueryGovernor>,
}

impl RowIterator for CountingIter {
    /// Workers run outside the plan's GovernedIter wrappers, so the
    /// cooperative check lives here: one per page-sized batch from the
    /// partitioned heap scan.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        self.gov.check_deadline()?;
        let batch = self.inner.next_batch(max_rows)?;
        if let Some(b) = &batch {
            self.rows += b.len() as u64;
        }
        Ok(batch)
    }
}

impl RowIterator for ParallelAggIter {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        if self.output.is_none() {
            self.execute()?;
        }
        let output = self.output.as_mut().expect("execute sets the output");
        let batch = output.next_batch(&self.aggs, max_rows)?;
        if batch.is_none() {
            self.charges.clear();
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::RemoveDirOnDrop;
    use crate::exec::testutil::{test_context, PanicAgg};
    use crate::exec::{collect, Layout, ValuesIter};
    use crate::expr::BinOp;
    use crate::udx::{AggState, Aggregate, CountAgg, SumAgg};
    use seqdb_storage::rowfmt::Compression;
    use seqdb_types::{Column, DataType, Row, Schema, Value};

    /// Drain an iterator that is still needed afterwards (worker stats).
    fn drain(it: &mut dyn RowIterator) -> Vec<Row> {
        let mut out = Vec::new();
        while let Some(batch) = it.next_batch(1024).unwrap() {
            out.extend(batch.into_rows());
        }
        out
    }

    fn setup(nrows: i64) -> (crate::exec::ExecContext, Arc<Table>, RemoveDirOnDrop) {
        let (ctx, dir) = test_context();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("grp", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let t = ctx
            .catalog
            .create_table("facts", schema, Compression::Row, None)
            .unwrap();
        for i in 0..nrows {
            t.insert(&Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Int(i % 100),
            ]))
            .unwrap();
        }
        (ctx, t, dir)
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(Arc::new(CountAgg), vec![], "cnt"),
            AggSpec::new(Arc::new(SumAgg), vec![Expr::col(2, "v")], "total"),
        ]
    }

    #[test]
    fn parallel_equals_serial() {
        let (_ctx, t, _dir) = setup(5000);
        let group = vec![Expr::col(1, "grp")];

        // Serial reference.
        let serial = {
            let scan = Box::new(HeapScanIter::new(t.clone(), None, None).unwrap());
            let it = crate::exec::agg::HashAggIter::new(scan, group.clone(), specs(), _ctx.clone());
            let mut rows = collect(Box::new(it), 1024).unwrap();
            rows.sort_by_key(|r| r[0].as_int().unwrap());
            rows
        };

        for dop in [1, 2, 4] {
            let mut par =
                ParallelAggIter::new(t.clone(), None, group.clone(), specs(), dop, _ctx.clone())
                    .unwrap();
            let mut rows = drain(&mut par);
            rows.sort_by_key(|r| r[0].as_int().unwrap());
            assert_eq!(rows, serial, "dop={dop}");
            // Stats cover all rows exactly once.
            let total: u64 = par.worker_stats().iter().map(|s| s.rows_scanned).sum();
            assert_eq!(total, 5000);
            assert_eq!(par.worker_stats().len(), dop);
        }
    }

    #[test]
    fn filter_pushdown_in_parallel_plan() {
        let (_ctx, t, _dir) = setup(1000);
        let filter = Expr::binary(BinOp::Lt, Expr::col(0, "id"), Expr::lit(100));
        let mut par = ParallelAggIter::new(
            t,
            Some(filter),
            vec![],
            vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
            3,
            _ctx,
        )
        .unwrap();
        let rows = drain(&mut par);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(100));
    }

    #[test]
    fn workers_decode_only_the_filter_group_and_argument_columns() {
        let (ctx, t, _dir) = setup(1000);
        // `id` only filtered on, `grp` grouped on, `v` never read.
        let filter = Expr::binary(BinOp::Lt, Expr::col(0, "id"), Expr::lit(100));
        let open = || {
            ParallelAggIter::new(
                t.clone(),
                Some(filter.clone()),
                vec![Expr::col(1, "grp")],
                vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
                2,
                ctx.clone(),
            )
            .unwrap()
        };
        let mut par = open();
        let narrow = Layout::packed(&[true, true, false]);
        assert!(par.scans.iter().all(|s| s.layout() == &narrow));
        let batch = par.scans[0].next_batch(1024).unwrap().unwrap();
        assert!(batch.into_rows().iter().all(|r| r.len() == 2));
        let mut rows = drain(&mut open());
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        let expect: Vec<Row> = (0..10)
            .map(|g| Row::new(vec![Value::Int(g), Value::Int(10)]))
            .collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn global_aggregate_on_empty_table() {
        let (_ctx, t, _dir) = setup(0);
        let mut par = ParallelAggIter::new(
            t,
            None,
            vec![],
            vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
            2,
            _ctx,
        )
        .unwrap();
        assert_eq!(drain(&mut par)[0][0], Value::Int(0));
    }

    #[test]
    fn non_mergeable_aggregate_rejected() {
        struct NoMerge;
        impl Aggregate for NoMerge {
            fn name(&self) -> &str {
                "NOMERGE"
            }
            fn create(&self) -> Box<dyn AggState> {
                unreachable!("plan construction should fail first")
            }
            fn order_arg(&self) -> Option<usize> {
                Some(0)
            }
        }
        let (_ctx, t, _dir) = setup(1);
        let res = ParallelAggIter::new(
            t,
            None,
            vec![],
            vec![AggSpec::new(Arc::new(NoMerge), vec![], "x")],
            2,
            _ctx,
        );
        assert!(matches!(res, Err(DbError::Plan(_))));
    }

    #[test]
    fn panicking_worker_fails_only_its_query() {
        let (_ctx, t, _dir) = setup(5000);
        let mut par = ParallelAggIter::new(
            t.clone(),
            None,
            vec![],
            vec![AggSpec::new(Arc::new(PanicAgg), vec![], "x")],
            4,
            _ctx.clone(),
        )
        .unwrap();
        let err = par.next_batch(1024).map(|_| ()).unwrap_err();
        assert!(par.next_batch(1024).is_err(), "a failed run is not retried");
        // The panic is caught at the UDA boundary inside the worker and
        // surfaces as a typed UdxPanic naming the aggregate.
        match &err {
            DbError::UdxPanic { name, payload } => {
                assert_eq!(name, "PANIC_AGG");
                assert!(payload.contains("synthetic UDA failure"));
            }
            other => panic!("expected UdxPanic, got {other:?}"),
        }
        // The same table still serves healthy queries afterwards.
        let mut healthy = _ctx.clone();
        healthy.gov = QueryGovernor::unlimited();
        let mut ok = ParallelAggIter::new(
            t,
            None,
            vec![],
            vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
            4,
            healthy,
        )
        .unwrap();
        assert_eq!(drain(&mut ok)[0][0], Value::Int(5000));
    }

    #[test]
    fn a_budget_the_workers_exceed_fails_typed_without_spilling() {
        let (ctx, t, _dir) = setup(5000);
        // A budget too small for even one group: the parallel aggregate
        // has no spill path, so the first rejected group fails the query
        // typed. Every charge is released and no spill file is written.
        let mut starved = ctx.clone();
        starved.gov = QueryGovernor::new(None, Some(64));
        let gov = starved.gov.clone();
        starved.temp.reset_counters();
        let mut par = ParallelAggIter::new(
            t,
            None,
            vec![Expr::col(0, "id")],
            specs(),
            4,
            starved.clone(),
        )
        .unwrap();
        let err = par.next_batch(1024).map(|_| ()).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
        drop(par);
        assert_eq!(gov.mem_used(), 0, "worker charges released on failure");
        assert_eq!(starved.temp.live_files().unwrap(), 0, "no spill files");
        assert_eq!(starved.temp.spill_count(), 0, "no worker spilled");
    }

    #[test]
    fn values_iter_is_unrelated_but_counting_iter_counts() {
        // Sanity check of the stats plumbing.
        let (_ctx, t, _dir) = setup(100);
        let mut c = CountingIter {
            inner: HeapScanIter::new(t, None, None).unwrap(),
            rows: 0,
            gov: QueryGovernor::unlimited(),
        };
        drain(&mut c);
        assert_eq!(c.rows, 100);
        let _ = ValuesIter::new(vec![]);
    }
}
