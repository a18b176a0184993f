//! Physical plans: a tree of operators that can be opened into a
//! [`RowIterator`](crate::exec::RowIterator) pipeline and pretty-printed for `EXPLAIN` (the query
//! plans of the paper's Figures 9 and 10).

use std::sync::Arc;

use seqdb_types::{DbError, Result, Row, Schema, Value};

use crate::catalog::{Table, TableIndex};
use crate::exec::agg::{AggSpec, HashAggIter, StreamAggIter};
use crate::exec::apply::{CrossApplyIter, TvfScanIter};
use crate::exec::filter::{FilterIter, LimitIter, ProjectIter};
use crate::exec::join::{HashJoinIter, MergeJoinIter};
use crate::exec::scan::{HeapScanIter, IndexScanIter, KeyRange};
use crate::exec::sort::{SortIter, SortKey, TopNIter};
use crate::exec::window::RowNumberIter;
use crate::exec::{mark_read, BoxedIter, ExecContext, Layout, ValuesIter};
use crate::expr::{Expr, Kernel};
use crate::governor::GovernedIter;
use crate::parallel::ParallelAggIter;
use crate::stats::StatsIter;
use crate::udx::TableFunction;

/// A physical query plan node.
pub enum Plan {
    /// Heap scan with pushed-down filter/projection.
    TableScan {
        table: Arc<Table>,
        filter: Option<Expr>,
        projection: Option<Vec<usize>>,
        schema: Arc<Schema>,
    },
    /// Ordered clustered-index scan, optionally restricted to an equality
    /// prefix of the key.
    IndexScan {
        table: Arc<Table>,
        index: Arc<TableIndex>,
        prefix: Vec<Value>,
        filter: Option<Expr>,
        projection: Option<Vec<usize>>,
        schema: Arc<Schema>,
    },
    /// `FROM tvf(constants)`.
    TvfScan {
        tvf: Arc<dyn TableFunction>,
        args: Vec<Value>,
    },
    /// Literal rows (`INSERT ... VALUES`, tests).
    Values {
        schema: Arc<Schema>,
        rows: Vec<Row>,
    },
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<Expr>,
        schema: Arc<Schema>,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    TopN {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        n: u64,
    },
    Limit {
        input: Box<Plan>,
        n: u64,
    },
    /// Serial blocking hash aggregate.
    HashAggregate {
        input: Box<Plan>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        schema: Arc<Schema>,
    },
    /// Non-blocking aggregate over input sorted by the group exprs.
    StreamAggregate {
        input: Box<Plan>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        schema: Arc<Schema>,
    },
    /// Exchange-parallel scan + partial/final aggregate (Figure 9).
    ParallelAggregate {
        table: Arc<Table>,
        filter: Option<Expr>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        dop: usize,
        schema: Arc<Schema>,
    },
    HashJoin {
        build: Box<Plan>,
        probe: Box<Plan>,
        build_keys: Vec<Expr>,
        probe_keys: Vec<Expr>,
        /// True when the build side is the statement's RIGHT input (the
        /// binder puts the estimated-smaller side on the build); the
        /// operator then restores `left ++ right` output order.
        probe_first: bool,
        schema: Arc<Schema>,
    },
    MergeJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        schema: Arc<Schema>,
    },
    CrossApply {
        input: Box<Plan>,
        tvf: Arc<dyn TableFunction>,
        args: Vec<Expr>,
        schema: Arc<Schema>,
    },
    /// ROW_NUMBER() over the (already sorted) input. `order_cols` is
    /// empty when a Sort below this node buffered (and budget-accounted)
    /// the rows; non-empty when the planner skipped the Sort because the
    /// input was already ordered — the operator then buffers each peer
    /// frame (rows tied on those columns) itself, charged against the
    /// query's memory budget.
    RowNumber {
        input: Box<Plan>,
        prepend: bool,
        order_cols: Vec<usize>,
        schema: Arc<Schema>,
    },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            Plan::TableScan { schema, .. }
            | Plan::IndexScan { schema, .. }
            | Plan::Values { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::HashAggregate { schema, .. }
            | Plan::StreamAggregate { schema, .. }
            | Plan::ParallelAggregate { schema, .. }
            | Plan::HashJoin { schema, .. }
            | Plan::MergeJoin { schema, .. }
            | Plan::CrossApply { schema, .. }
            | Plan::RowNumber { schema, .. } => schema.clone(),
            Plan::TvfScan { tvf, .. } => tvf.schema(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Limit { input, .. } => input.schema(),
        }
    }

    /// Open the plan into an executable iterator pipeline. Every node is
    /// wrapped in a [`GovernedIter`], so cancellation/timeout checks run
    /// between batches at every operator boundary — including inside
    /// blocking operators, which drain their (wrapped) children.
    ///
    /// When the context carries an [`crate::stats::ExecStats`] collector
    /// (`EXPLAIN ANALYZE`), each node additionally registers a stats slot
    /// — in pre-order, before recursing into children, so slot *i* lines
    /// up with the *i*-th operator header of [`Plan::explain`] — and is
    /// wrapped in a [`StatsIter`]. The slot is shared via `Arc` with the
    /// collector, so actuals survive an early pipeline drop.
    pub fn open(&self, ctx: &ExecContext) -> Result<BoxedIter> {
        let (iter, layout) = self.open_demanded(ctx, None)?;
        if layout.is_dense() {
            return Ok(iter);
        }
        // With nothing demanded every column is decoded, so only a scan's
        // pushed projection can leave the rows out of order; the root's
        // consumer gets them in schema order.
        let schema = self.schema();
        let columns: Vec<Expr> = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| Expr::col(i, c.name.clone()))
            .collect();
        let columns = layout.remap_all(&columns)?;
        Ok(Box::new(ProjectIter::new(iter, columns)))
    }

    /// [`Plan::open`] with a column-demand pass: `demand` marks which of
    /// this node's *output* columns its consumer will read (`None` = all
    /// of them). Demand is narrowed top-down through filters, projections,
    /// aggregates, sorts and joins, and lands on heap and index scans,
    /// which decode only the demanded columns (plus their own filter's)
    /// into rows of exactly that width. Each node returns its iterator
    /// with the [`Layout`] of the rows it emits, and its parent rewrites
    /// its expressions through that layout once, here.
    fn open_demanded(
        &self,
        ctx: &ExecContext,
        demand: Option<&[bool]>,
    ) -> Result<(BoxedIter, Layout)> {
        let mut local = ctx.clone();
        let slot = local.stats.as_ref().map(|s| s.register(self.label()));
        local.node = slot.clone();
        let ctx = &local;
        // Operators that compute their rows emit them dense.
        let dense = || Layout::dense(self.schema().len());
        let (node, layout): (BoxedIter, Layout) = match self {
            Plan::TableScan {
                table,
                filter,
                projection,
                ..
            } => {
                let columns = table_demand(table.schema.len(), projection.as_deref(), demand);
                let scan = HeapScanIter::new(table.clone(), filter.as_ref(), columns)?;
                let layout = projected(scan.layout(), projection.as_deref());
                (Box::new(scan), layout)
            }
            Plan::IndexScan {
                table,
                index,
                prefix,
                filter,
                projection,
                ..
            } => {
                let columns = table_demand(table.schema.len(), projection.as_deref(), demand);
                let scan = IndexScanIter::new(
                    table,
                    index.clone(),
                    KeyRange::prefix(prefix),
                    filter.as_ref(),
                    columns,
                )?;
                let layout = projected(scan.layout(), projection.as_deref());
                (Box::new(scan), layout)
            }
            Plan::TvfScan { tvf, args } => (Box::new(TvfScanIter::open(tvf, args, ctx)?), dense()),
            Plan::Values { rows, .. } => (Box::new(ValuesIter::new(rows.clone())), dense()),
            Plan::Filter { input, predicate } => {
                let child = demand_plus(demand, std::slice::from_ref(predicate));
                let (input, layout) = input.open_demanded(ctx, child.as_deref())?;
                let predicate = layout.remap(predicate)?;
                (Box::new(FilterIter::new(input, predicate)), layout)
            }
            Plan::Project { input, exprs, .. } => {
                let mut child = vec![false; input.schema().len()];
                mark_read(&mut child, exprs);
                let (input, layout) = input.open_demanded(ctx, Some(&child))?;
                let exprs = layout.remap_all(exprs)?;
                (Box::new(ProjectIter::new(input, exprs)), dense())
            }
            Plan::Sort { input, keys } => {
                let child = demand_plus(demand, keys.iter().map(|k| &k.expr));
                let (input, layout) = input.open_demanded(ctx, child.as_deref())?;
                let keys = remap_keys(&layout, keys)?;
                (Box::new(SortIter::new(input, keys, ctx.clone())), layout)
            }
            Plan::TopN { input, keys, n } => {
                let child = demand_plus(demand, keys.iter().map(|k| &k.expr));
                let (input, layout) = input.open_demanded(ctx, child.as_deref())?;
                let keys = remap_keys(&layout, keys)?;
                let top = TopNIter::new(input, keys, *n as usize, ctx.batch_size);
                (Box::new(top), layout)
            }
            Plan::Limit { input, n } => {
                let (input, layout) = input.open_demanded(ctx, demand)?;
                (Box::new(LimitIter::new(input, *n)), layout)
            }
            Plan::HashAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let child = aggregate_demand(&input.schema(), group_exprs, aggs);
                let (input, layout) = input.open_demanded(ctx, Some(&child))?;
                let agg = HashAggIter::new(
                    input,
                    layout.remap_all(group_exprs)?,
                    remap_aggs(&layout, aggs)?,
                    ctx.clone(),
                );
                (Box::new(agg), dense())
            }
            Plan::StreamAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let child = aggregate_demand(&input.schema(), group_exprs, aggs);
                let (input, layout) = input.open_demanded(ctx, Some(&child))?;
                let agg = StreamAggIter::new(
                    input,
                    layout.remap_all(group_exprs)?,
                    remap_aggs(&layout, aggs)?,
                    ctx.gov.clone(),
                    ctx.batch_size,
                );
                (Box::new(agg), dense())
            }
            Plan::ParallelAggregate {
                table,
                filter,
                group_exprs,
                aggs,
                dop,
                ..
            } => {
                let agg = ParallelAggIter::new(
                    table.clone(),
                    filter.clone(),
                    group_exprs.clone(),
                    aggs.clone(),
                    (*dop).max(1).min(effective_dop(ctx)),
                    ctx.clone(),
                )?;
                (Box::new(agg), dense())
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                probe_first,
                ..
            } => {
                // Output is left ++ right (left = probe side when the
                // binder swapped the build): split the demand across the
                // two inputs, then add each side's join keys.
                let build_len = build.schema().len();
                let probe_len = probe.schema().len();
                let (left_d, right_d) = if *probe_first {
                    split_demand(demand, probe_len, build_len)
                } else {
                    split_demand(demand, build_len, probe_len)
                };
                let (mut build_d, mut probe_d) = if *probe_first {
                    (right_d, left_d)
                } else {
                    (left_d, right_d)
                };
                mark_read(&mut build_d, build_keys);
                mark_read(&mut probe_d, probe_keys);
                let (build, build_layout) = build.open_demanded(ctx, Some(&build_d))?;
                let (probe, probe_layout) = probe.open_demanded(ctx, Some(&probe_d))?;
                let join = HashJoinIter::new(
                    build,
                    probe,
                    build_layout.remap_all(build_keys)?,
                    probe_layout.remap_all(probe_keys)?,
                    *probe_first,
                    ctx.clone(),
                );
                let layout = if *probe_first {
                    probe_layout.concat(&build_layout)
                } else {
                    build_layout.concat(&probe_layout)
                };
                (Box::new(join), layout)
            }
            Plan::MergeJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let (mut left_d, mut right_d) =
                    split_demand(demand, left.schema().len(), right.schema().len());
                mark_read(&mut left_d, left_keys);
                mark_read(&mut right_d, right_keys);
                let (left, left_layout) = left.open_demanded(ctx, Some(&left_d))?;
                let (right, right_layout) = right.open_demanded(ctx, Some(&right_d))?;
                let join = MergeJoinIter::new(
                    left,
                    right,
                    left_layout.remap_all(left_keys)?,
                    right_layout.remap_all(right_keys)?,
                    ctx.batch_size,
                );
                (Box::new(join), left_layout.concat(&right_layout))
            }
            Plan::CrossApply {
                input, tvf, args, ..
            } => {
                // The apply's output interleaves input columns with the
                // function's rows; stay conservative and decode them all.
                let apply =
                    CrossApplyIter::new(input.open(ctx)?, tvf.clone(), args.clone(), ctx.clone());
                (Box::new(apply), dense())
            }
            Plan::RowNumber {
                input,
                prepend,
                order_cols,
                ..
            } => {
                let input = input.open(ctx)?;
                let rn: BoxedIter = if order_cols.is_empty() {
                    Box::new(RowNumberIter::new(input, *prepend, ctx.batch_size))
                } else {
                    Box::new(RowNumberIter::with_peer_frames(
                        input,
                        *prepend,
                        order_cols.clone(),
                        ctx.gov.clone(),
                        ctx.batch_size,
                    ))
                };
                (rn, dense())
            }
        };
        let governed: BoxedIter = Box::new(GovernedIter::new(node, ctx.gov.clone()));
        Ok(match slot {
            Some(slot) => {
                slot.set_width(layout.width());
                let stats = StatsIter::new(governed, slot, ctx.gov.clone());
                (Box::new(stats), layout)
            }
            None => (governed, layout),
        })
    }

    /// Short operator name (the head of the `EXPLAIN` header line), used
    /// to label stats slots.
    fn label(&self) -> &'static str {
        match self {
            Plan::TableScan { .. } => "Table Scan",
            Plan::IndexScan { .. } => "Clustered Index Scan",
            Plan::TvfScan { .. } => "Table Valued Function",
            Plan::Values { .. } => "Constant Scan",
            Plan::Filter { .. } => "Filter",
            Plan::Project { .. } => "Compute Scalar",
            Plan::Sort { .. } => "Sort",
            Plan::TopN { .. } => "Top N Sort",
            Plan::Limit { .. } => "Top",
            Plan::HashAggregate { .. } => "Hash Match (Aggregate)",
            Plan::StreamAggregate { .. } => "Stream Aggregate",
            Plan::ParallelAggregate { .. } => "Parallelism (Gather Streams)",
            Plan::HashJoin { .. } => "Hash Match (Inner Join)",
            Plan::MergeJoin { .. } => "Merge Join",
            Plan::CrossApply { .. } => "Nested Loops (Cross Apply)",
            Plan::RowNumber { .. } => "Sequence Project",
        }
    }

    /// Cardinality estimate for this node, `None` when unknown. The
    /// estimator is deliberately simple — enough for `EXPLAIN ANALYZE`
    /// to show actual-vs-estimated drift, not a costing model.
    pub fn estimate_rows(&self) -> Option<u64> {
        match self {
            // No selectivity model: a (possibly filtered) scan estimates
            // its full input, which is exactly the kind of drift
            // actual-vs-estimated output is meant to expose.
            Plan::TableScan { table, .. } | Plan::IndexScan { table, .. } => {
                Some(table.row_count())
            }
            Plan::ParallelAggregate { .. } => None,
            Plan::TvfScan { .. } => None,
            Plan::Values { rows, .. } => Some(rows.len() as u64),
            Plan::Filter { input, .. } => input.estimate_rows(),
            Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::RowNumber { input, .. } => input.estimate_rows(),
            Plan::TopN { input, n, .. } | Plan::Limit { input, n } => {
                Some(input.estimate_rows().map_or(*n, |e| e.min(*n)))
            }
            Plan::HashAggregate { .. } | Plan::StreamAggregate { .. } => None,
            Plan::HashJoin { .. } | Plan::MergeJoin { .. } | Plan::CrossApply { .. } => None,
        }
    }

    /// Execute to completion and collect the rows, `ctx.batch_size` rows
    /// per pull.
    pub fn run(&self, ctx: &ExecContext) -> Result<Vec<Row>> {
        crate::exec::collect(self.open(ctx)?, ctx.batch_size)
    }

    /// Render the plan tree (the `EXPLAIN` / showplan output used to
    /// reproduce Figures 9 and 10).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut Annotations::none());
        out
    }

    /// Render the plan tree annotated with the actuals a run collected —
    /// the `EXPLAIN ANALYZE` / "actual execution plan" output. `stats`
    /// must come from opening *this* plan with the collector attached;
    /// slots pair with operator headers in pre-order.
    pub fn explain_analyze(&self, stats: &crate::stats::ExecStats) -> String {
        let nodes = stats.nodes();
        let mut ann = Annotations {
            nodes: &nodes,
            next: 0,
        };
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut ann);
        out
    }

    /// Terminate an operator header line: append the node's actuals when
    /// rendering an analyzed plan, then the newline. Every variant calls
    /// this exactly once (on its first line), keeping the rendering and
    /// the pre-order slot registration of [`Plan::open`] in lockstep.
    fn end_header(&self, out: &mut String, ann: &mut Annotations) {
        if let Some(node) = ann.nodes.get(ann.next) {
            ann.next += 1;
            out.push_str(&node.annotation(self.estimate_rows()));
        }
        out.push('\n');
    }

    fn explain_into(&self, out: &mut String, depth: usize, ann: &mut Annotations) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::TableScan { table, filter, .. } => {
                out.push_str(&format!("{pad}Table Scan [{}]", table.name));
                if let Some(f) = filter {
                    out.push_str(&format!(" WHERE {f}{}", kernel_marker(f)));
                }
                self.end_header(out, ann);
            }
            Plan::IndexScan {
                table,
                index,
                prefix,
                filter,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Clustered Index Scan [{}.{}] (ordered)",
                    table.name, index.name
                ));
                if !prefix.is_empty() {
                    let p: Vec<String> = prefix.iter().map(|v| v.to_string()).collect();
                    out.push_str(&format!(" SEEK prefix=({})", p.join(", ")));
                }
                if let Some(f) = filter {
                    out.push_str(&format!(" WHERE {f}{}", kernel_marker(f)));
                }
                self.end_header(out, ann);
            }
            Plan::TvfScan { tvf, args } => {
                let a: Vec<String> = args.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!(
                    "{pad}Table Valued Function [{}({})] (streaming)",
                    tvf.name(),
                    a.join(", ")
                ));
                self.end_header(out, ann);
            }
            Plan::Values { rows, .. } => {
                out.push_str(&format!("{pad}Constant Scan ({} rows)", rows.len()));
                self.end_header(out, ann);
            }
            Plan::Filter { input, predicate } => {
                out.push_str(&format!(
                    "{pad}Filter [{predicate}]{}",
                    kernel_marker(predicate)
                ));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::Project { input, exprs, .. } => {
                let e: Vec<String> = exprs.iter().map(|x| x.to_string()).collect();
                out.push_str(&format!("{pad}Compute Scalar [{}]", e.join(", ")));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort [{}]", fmt_keys(keys)));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::TopN { input, keys, n } => {
                out.push_str(&format!("{pad}Top N Sort [TOP {n}, {}]", fmt_keys(keys)));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Top [TOP {n}]"));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::HashAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Hash Match (Aggregate) [GROUP BY {}; {}]",
                    fmt_exprs(group_exprs),
                    fmt_aggs(aggs)
                ));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::StreamAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Stream Aggregate [GROUP BY {}; {}] (non-blocking)",
                    fmt_exprs(group_exprs),
                    fmt_aggs(aggs)
                ));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::ParallelAggregate {
                table,
                filter,
                group_exprs,
                aggs,
                dop,
                ..
            } => {
                // Printed as the exchange stack of Figure 9. One plan node
                // executes the whole stack, so the actuals annotate the
                // Gather line only.
                out.push_str(&format!("{pad}Parallelism (Gather Streams) [DOP={dop}]"));
                self.end_header(out, ann);
                let pad1 = "  ".repeat(depth + 1);
                out.push_str(&format!(
                    "{pad1}Hash Match (Aggregate, final) [GROUP BY {}; {}]\n",
                    fmt_exprs(group_exprs),
                    fmt_aggs(aggs)
                ));
                let pad2 = "  ".repeat(depth + 2);
                out.push_str(&format!(
                    "{pad2}Parallelism (Repartition Streams) [hash: {}]\n",
                    fmt_exprs(group_exprs)
                ));
                let pad3 = "  ".repeat(depth + 3);
                out.push_str(&format!(
                    "{pad3}Hash Match (Aggregate, partial) [GROUP BY {}]\n",
                    fmt_exprs(group_exprs)
                ));
                let pad4 = "  ".repeat(depth + 4);
                out.push_str(&format!("{pad4}Table Scan [{}] (parallel", table.name));
                if let Some(f) = filter {
                    out.push_str(&format!(", WHERE {f}{}", kernel_marker(f)));
                }
                out.push_str(")\n");
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                probe_first,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Hash Match (Inner Join) [{} = {}]",
                    fmt_exprs(build_keys),
                    fmt_exprs(probe_keys)
                ));
                if *probe_first {
                    out.push_str(" (build=right)");
                }
                self.end_header(out, ann);
                build.explain_into(out, depth + 1, ann);
                probe.explain_into(out, depth + 1, ann);
            }
            Plan::MergeJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Merge Join (Inner Join) [{} = {}]",
                    fmt_exprs(left_keys),
                    fmt_exprs(right_keys)
                ));
                self.end_header(out, ann);
                left.explain_into(out, depth + 1, ann);
                right.explain_into(out, depth + 1, ann);
            }
            Plan::CrossApply {
                input, tvf, args, ..
            } => {
                out.push_str(&format!(
                    "{pad}Nested Loops (Cross Apply) [{}({})]",
                    tvf.name(),
                    fmt_exprs(args)
                ));
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
            Plan::RowNumber {
                input, order_cols, ..
            } => {
                if order_cols.is_empty() {
                    out.push_str(&format!("{pad}Sequence Project [ROW_NUMBER()]"));
                } else {
                    out.push_str(&format!(
                        "{pad}Sequence Project [ROW_NUMBER(), peer frames over ordered input]"
                    ));
                }
                self.end_header(out, ann);
                input.explain_into(out, depth + 1, ann);
            }
        }
    }
}

/// Cursor pairing `EXPLAIN` operator headers with the pre-order stats
/// slots an analyzed run registered. With no slots (plain `EXPLAIN`)
/// every lookup misses and the rendering is unchanged.
struct Annotations<'a> {
    nodes: &'a [Arc<crate::stats::NodeStats>],
    next: usize,
}

impl Annotations<'_> {
    fn none() -> Annotations<'static> {
        Annotations {
            nodes: &[],
            next: 0,
        }
    }
}

/// Cap a plan's DOP at the context's configured parallelism.
fn effective_dop(ctx: &ExecContext) -> usize {
    ctx.dop.max(1)
}

/// A pass-through operator's child demand: `demand` plus what its own
/// expressions read (`None` stays `None`: everything is read anyway).
fn demand_plus<'a>(
    demand: Option<&[bool]>,
    exprs: impl IntoIterator<Item = &'a Expr>,
) -> Option<Vec<bool>> {
    demand.map(|d| {
        let mut d = d.to_vec();
        mark_read(&mut d, exprs);
        d
    })
}

/// Split a join's output demand (`left ++ right`) into its two sides'
/// (`None` = every column of both).
fn split_demand(demand: Option<&[bool]>, left: usize, right: usize) -> (Vec<bool>, Vec<bool>) {
    let wanted = |i: usize| demand.is_none_or(|d| d.get(i).copied().unwrap_or(true));
    (
        (0..left).map(wanted).collect(),
        (left..left + right).map(wanted).collect(),
    )
}

/// Input columns an aggregate reads: its group keys and argument
/// expressions — nothing else, whatever the consumer above demanded.
fn aggregate_demand(input: &Schema, group_exprs: &[Expr], aggs: &[AggSpec]) -> Vec<bool> {
    let mut d = vec![false; input.len()];
    mark_read(&mut d, group_exprs);
    mark_read(&mut d, aggs.iter().flat_map(|a| &a.args));
    d
}

/// The table columns a scan's consumer reads: `demand` over the scan's
/// output, mapped back through its pushed projection (`None` = all).
fn table_demand(
    ncols: usize,
    projection: Option<&[usize]>,
    demand: Option<&[bool]>,
) -> Option<Vec<bool>> {
    let Some(projection) = projection else {
        return demand.map(<[bool]>::to_vec);
    };
    let mut columns = vec![false; ncols];
    for (out, &col) in projection.iter().enumerate() {
        if demand.is_none_or(|d| d.get(out).copied().unwrap_or(true)) {
            if let Some(c) = columns.get_mut(col) {
                *c = true;
            }
        }
    }
    Some(columns)
}

/// A scan's layout seen through its pushed projection, if any.
fn projected(layout: &Layout, projection: Option<&[usize]>) -> Layout {
    match projection {
        Some(p) => layout.project(p),
        None => layout.clone(),
    }
}

fn remap_keys(layout: &Layout, keys: &[SortKey]) -> Result<Vec<SortKey>> {
    keys.iter()
        .map(|k| {
            Ok(SortKey {
                expr: layout.remap(&k.expr)?,
                desc: k.desc,
            })
        })
        .collect()
}

fn remap_aggs(layout: &Layout, aggs: &[AggSpec]) -> Result<Vec<AggSpec>> {
    aggs.iter().map(|a| a.remapped(layout)).collect()
}

/// EXPLAIN's mark on a WHERE that runs as a compiled [`Kernel`].
fn kernel_marker(predicate: &Expr) -> &'static str {
    if Kernel::compile(predicate).is_some() {
        " [kernel]"
    } else {
        ""
    }
}

fn fmt_exprs(exprs: &[Expr]) -> String {
    let v: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
    v.join(", ")
}

fn fmt_keys(keys: &[SortKey]) -> String {
    let v: Vec<String> = keys
        .iter()
        .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
        .collect();
    v.join(", ")
}

fn fmt_aggs(aggs: &[AggSpec]) -> String {
    let v: Vec<String> = aggs
        .iter()
        .map(|a| {
            if a.args.is_empty() {
                format!("{}(*)", a.factory.name())
            } else {
                format!("{}({})", a.factory.name(), fmt_exprs(&a.args))
            }
        })
        .collect();
    v.join(", ")
}

/// Result of a query or statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Arc<Schema>,
    pub rows: Vec<Row>,
    /// Rows affected by DML (0 for SELECT).
    pub affected: u64,
}

impl QueryResult {
    pub fn empty() -> QueryResult {
        QueryResult {
            schema: Arc::new(Schema::empty()),
            rows: Vec::new(),
            affected: 0,
        }
    }

    /// Render as an ASCII table (for the shell and the report harness).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(names.join(" | ").len().max(4)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

/// Helper used by planners: build the output schema of a grouped
/// aggregate (group columns then aggregate outputs).
pub fn aggregate_schema(
    input: &Schema,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[AggSpec],
) -> Result<Arc<Schema>> {
    use seqdb_types::{Column, DataType};
    let mut cols = Vec::with_capacity(group_exprs.len() + aggs.len());
    for (e, name) in group_exprs.iter().zip(group_names) {
        let dtype = match e {
            Expr::Column { index, .. } => input.column(*index).dtype,
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
            _ => DataType::Text,
        };
        cols.push(Column::new(name.clone(), dtype));
    }
    if group_names.len() != group_exprs.len() {
        return Err(DbError::Plan("group name/expr arity mismatch".into()));
    }
    for a in aggs {
        let dtype = match a.factory.name() {
            "COUNT" => DataType::Int,
            "AVG" => DataType::Float,
            _ => match a.args.first() {
                Some(Expr::Column { index, .. }) => input.column(*index).dtype,
                _ => DataType::Int,
            },
        };
        cols.push(Column::new(a.name.clone(), dtype));
    }
    Ok(Arc::new(Schema::new(cols)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::test_context;
    use crate::expr::BinOp;
    use crate::udx::CountAgg;
    use seqdb_storage::rowfmt::Compression;
    use seqdb_types::{Column, DataType};

    fn setup() -> (ExecContext, Arc<Table>) {
        let ctx = test_context();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("grp", DataType::Int),
        ]);
        let t = ctx
            .catalog
            .create_table("t", schema, Compression::Row, Some(vec![0]))
            .unwrap();
        for i in 0..100i64 {
            t.insert(&Row::new(vec![Value::Int(i), Value::Int(i % 4)]))
                .unwrap();
        }
        (ctx, t)
    }

    #[test]
    fn composed_plan_runs() {
        let (ctx, t) = setup();
        let scan_schema = t.schema.clone();
        let plan = Plan::TopN {
            input: Box::new(Plan::HashAggregate {
                input: Box::new(Plan::TableScan {
                    table: t,
                    filter: Some(Expr::binary(BinOp::Lt, Expr::col(0, "id"), Expr::lit(50))),
                    projection: None,
                    schema: scan_schema.clone(),
                }),
                group_exprs: vec![Expr::col(1, "grp")],
                aggs: vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
                schema: aggregate_schema(
                    &scan_schema,
                    &[Expr::col(1, "grp")],
                    &["grp".to_string()],
                    &[AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
                )
                .unwrap(),
            }),
            keys: vec![SortKey::desc(Expr::col(1, "cnt"))],
            n: 2,
        };
        let rows = plan.run(&ctx).unwrap();
        assert_eq!(rows.len(), 2);
        // Groups 0,1 have 13 members (0..50 has 13 for grp 0,1; 12 for 2,3).
        assert_eq!(rows[0][1], Value::Int(13));
    }

    /// `name (k, a, b, c)`, keyed on `k`: row `i` is `(i, 10i, 20i, 30i)`.
    fn keyed(ctx: &ExecContext, name: &str) -> Arc<Table> {
        let schema = Schema::new(
            ["k", "a", "b", "c"]
                .iter()
                .map(|n| Column::new(*n, DataType::Int).not_null())
                .collect(),
        );
        let t = ctx
            .catalog
            .create_table(name, schema, Compression::Row, Some(vec![0]))
            .unwrap();
        for i in 0..50i64 {
            let row: Row = (0..4)
                .map(|c| Value::Int(i * 10 * c + i * (c == 0) as i64))
                .collect();
            t.insert(&row).unwrap();
        }
        t
    }

    fn ordered_scan(t: &Arc<Table>) -> Box<Plan> {
        Box::new(Plan::IndexScan {
            table: t.clone(),
            index: t.index_with_prefix(&[0]).unwrap(),
            prefix: vec![],
            filter: None,
            projection: None,
            schema: t.schema.clone(),
        })
    }

    #[test]
    fn join_rows_are_as_wide_as_their_two_narrow_sides() {
        let ctx = test_context();
        let (l, r) = (keyed(&ctx, "l"), keyed(&ctx, "r"));
        let joined = Arc::new(l.schema.concat(&r.schema));
        let keys = || vec![Expr::col(0, "k")];
        let joins = [
            Plan::MergeJoin {
                left: ordered_scan(&l),
                right: ordered_scan(&r),
                left_keys: keys(),
                right_keys: keys(),
                schema: joined.clone(),
            },
            Plan::HashJoin {
                build: ordered_scan(&l),
                probe: ordered_scan(&r),
                build_keys: keys(),
                probe_keys: keys(),
                probe_first: false,
                schema: joined.clone(),
            },
        ];
        for join in joins {
            // SELECT l.c, r.a: each side decodes its key and its one
            // column, and the join concatenates the two pairs.
            let plan = Plan::Project {
                input: Box::new(join),
                exprs: vec![Expr::col(3, "c"), Expr::col(5, "a")],
                schema: Arc::new(Schema::new(vec![
                    Column::new("c", DataType::Int),
                    Column::new("a", DataType::Int),
                ])),
            };
            let mut ctx = ctx.clone();
            let stats = crate::stats::ExecStats::new();
            ctx.stats = Some(stats.clone());
            let rows = plan.run(&ctx).unwrap();
            let widths: Vec<u64> = stats.nodes().iter().map(|n| n.width()).collect();
            assert_eq!(widths, vec![2, 4, 2, 2], "{}", plan.explain());
            assert_eq!(rows.len(), 50);
            for row in &rows {
                assert_eq!(row.len(), 2);
                assert_eq!(row[0].as_int().unwrap(), 3 * row[1].as_int().unwrap());
            }
        }
    }

    #[test]
    fn the_root_emits_full_rows_in_schema_order() {
        let (ctx, t) = setup();
        // A pushed projection that reorders: the scan decodes in schema
        // order, and the root hands its rows back in projection order.
        let plan = Plan::TableScan {
            table: t,
            filter: Some(Expr::binary(BinOp::Lt, Expr::col(0, "id"), Expr::lit(3))),
            projection: Some(vec![1, 0]),
            schema: Arc::new(Schema::new(vec![
                Column::new("grp", DataType::Int),
                Column::new("id", DataType::Int),
            ])),
        };
        let rows = plan.run(&ctx).unwrap();
        let got: Vec<Vec<Value>> = rows.into_iter().map(Row::into_values).collect();
        assert_eq!(
            got,
            (0..3)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_column_no_row_carries_fails_at_open_typed() {
        let (ctx, t) = setup();
        let schema = t.schema.clone();
        let plan = Plan::Filter {
            input: Box::new(Plan::TableScan {
                table: t,
                filter: None,
                projection: None,
                schema,
            }),
            predicate: Expr::binary(BinOp::Gt, Expr::col(7, "ghost"), Expr::lit(5)),
        };
        match plan.open(&ctx) {
            Err(DbError::Plan(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            Err(other) => panic!("expected a plan error, got {other}"),
            Ok(_) => panic!("a plan reading an absent column opened"),
        }
    }

    #[test]
    fn explain_renders_parallel_aggregate_like_figure9() {
        let (_ctx, t) = setup();
        let schema = t.schema.clone();
        let plan = Plan::ParallelAggregate {
            table: t,
            filter: None,
            group_exprs: vec![Expr::col(1, "grp")],
            aggs: vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
            dop: 4,
            schema,
        };
        let ex = plan.explain();
        assert!(ex.contains("Parallelism (Gather Streams) [DOP=4]"));
        assert!(ex.contains("Hash Match (Aggregate, final)"));
        assert!(ex.contains("Parallelism (Repartition Streams)"));
        assert!(ex.contains("Table Scan [t] (parallel)"));
    }

    #[test]
    fn explain_nests_children() {
        let (_ctx, t) = setup();
        let schema = t.schema.clone();
        let plan = Plan::Filter {
            input: Box::new(Plan::TableScan {
                table: t,
                filter: None,
                projection: None,
                schema,
            }),
            predicate: Expr::binary(BinOp::Gt, Expr::col(0, "id"), Expr::lit(5)),
        };
        let ex = plan.explain();
        let lines: Vec<&str> = ex.lines().collect();
        assert!(lines[0].starts_with("Filter"));
        assert!(lines[1].starts_with("  Table Scan"));
    }
}
