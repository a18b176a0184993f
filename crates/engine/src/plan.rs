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
use crate::exec::scan::{HeapScanIter, IndexScanIter};
use crate::exec::sort::{SortIter, SortKey, TopNIter};
use crate::exec::window::RowNumberIter;
use crate::exec::{BoxedIter, ExecContext, ValuesIter};
use crate::expr::Expr;
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
        /// Workers for the spilled partition phase (1 = serial). Only
        /// reached when the build side overflows its memory grant.
        dop: usize,
        schema: Arc<Schema>,
    },
    MergeJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        schema: Arc<Schema>,
        /// Degree of parallelism this join *would* run at on a machine
        /// with that many schedulers; annotated in EXPLAIN (Figure 10).
        dop_hint: usize,
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
        self.open_demanded(ctx, None)
    }

    /// [`Plan::open`] with a column-demand pass: `demand` marks which of
    /// this node's *output* columns its consumer will read (`None` = all
    /// of them). Demand is narrowed top-down through filters, projections,
    /// aggregates, sorts and joins, and lands on heap scans as a decode
    /// mask — columns nothing reads are skipped in the byte stream
    /// instead of being materialized.
    fn open_demanded(&self, ctx: &ExecContext, demand: Option<&[bool]>) -> Result<BoxedIter> {
        let mut local = ctx.clone();
        let slot = local.stats.as_ref().map(|s| s.register(self.label()));
        local.node = slot.clone();
        let ctx = &local;
        let node: BoxedIter = match self {
            Plan::TableScan {
                table,
                filter,
                projection,
                ..
            } => {
                let decode_mask = scan_decode_mask(
                    &table.schema,
                    filter.as_ref(),
                    projection.as_deref(),
                    demand,
                );
                Box::new(HeapScanIter::new(
                    table.clone(),
                    filter.clone(),
                    projection.clone(),
                    decode_mask,
                ))
            }
            Plan::IndexScan {
                table,
                index,
                prefix,
                filter,
                projection,
                ..
            } => Box::new(IndexScanIter::new(
                table,
                index.clone(),
                prefix,
                filter.clone(),
                projection.clone(),
            )),
            Plan::TvfScan { tvf, args } => Box::new(TvfScanIter::open(tvf, args, ctx)?),
            Plan::Values { rows, .. } => Box::new(ValuesIter::new(rows.clone())),
            Plan::Filter { input, predicate } => {
                let child = demand.map(|d| {
                    let mut d = d.to_vec();
                    demand_exprs(&mut d, std::slice::from_ref(predicate));
                    d
                });
                Box::new(FilterIter::new(
                    input.open_demanded(ctx, child.as_deref())?,
                    predicate.clone(),
                ))
            }
            Plan::Project { input, exprs, .. } => {
                let mut child = vec![false; input.schema().len()];
                demand_exprs(&mut child, exprs.iter());
                Box::new(ProjectIter::new(
                    input.open_demanded(ctx, Some(&child))?,
                    exprs.clone(),
                ))
            }
            Plan::Sort { input, keys } => {
                let child = demand.map(|d| {
                    let mut d = d.to_vec();
                    demand_exprs(&mut d, keys.iter().map(|k| &k.expr));
                    d
                });
                Box::new(SortIter::new(
                    input.open_demanded(ctx, child.as_deref())?,
                    keys.clone(),
                    ctx.clone(),
                ))
            }
            Plan::TopN { input, keys, n } => {
                let child = demand.map(|d| {
                    let mut d = d.to_vec();
                    demand_exprs(&mut d, keys.iter().map(|k| &k.expr));
                    d
                });
                Box::new(TopNIter::new(
                    input.open_demanded(ctx, child.as_deref())?,
                    keys.clone(),
                    *n as usize,
                    ctx.batch_size,
                ))
            }
            Plan::Limit { input, n } => {
                Box::new(LimitIter::new(input.open_demanded(ctx, demand)?, *n))
            }
            Plan::HashAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let child = aggregate_demand(&input.schema(), group_exprs, aggs);
                Box::new(HashAggIter::new(
                    input.open_demanded(ctx, Some(&child))?,
                    group_exprs.clone(),
                    aggs.clone(),
                    ctx.clone(),
                ))
            }
            Plan::StreamAggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let child = aggregate_demand(&input.schema(), group_exprs, aggs);
                Box::new(StreamAggIter::new(
                    input.open_demanded(ctx, Some(&child))?,
                    group_exprs.clone(),
                    aggs.clone(),
                    ctx.gov.clone(),
                    ctx.batch_size,
                ))
            }
            Plan::ParallelAggregate {
                table,
                filter,
                group_exprs,
                aggs,
                dop,
                ..
            } => Box::new(ParallelAggIter::new(
                table.clone(),
                filter.clone(),
                group_exprs.clone(),
                aggs.clone(),
                (*dop).max(1).min(effective_dop(ctx)),
                ctx.clone(),
            )?),
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                probe_first,
                dop,
                ..
            } => {
                // Output is left ++ right (left = probe side when the
                // binder swapped the build): split the demand across the
                // two inputs, then add each side's join keys.
                let build_len = build.schema().len();
                let probe_len = probe.schema().len();
                let first_len = if *probe_first { probe_len } else { build_len };
                let mut build_d = vec![demand.is_none(); build_len];
                let mut probe_d = vec![demand.is_none(); probe_len];
                if let Some(d) = demand {
                    for i in 0..build_len + probe_len {
                        let wanted = d.get(i).copied().unwrap_or(true);
                        let (side, at) = if i < first_len {
                            (
                                if *probe_first {
                                    &mut probe_d
                                } else {
                                    &mut build_d
                                },
                                i,
                            )
                        } else {
                            let at = i - first_len;
                            (
                                if *probe_first {
                                    &mut build_d
                                } else {
                                    &mut probe_d
                                },
                                at,
                            )
                        };
                        side[at] = side[at] || wanted;
                    }
                }
                demand_exprs(&mut build_d, build_keys.iter());
                demand_exprs(&mut probe_d, probe_keys.iter());
                Box::new(HashJoinIter::new(
                    build.open_demanded(ctx, Some(&build_d))?,
                    probe.open_demanded(ctx, Some(&probe_d))?,
                    build_keys.clone(),
                    probe_keys.clone(),
                    *probe_first,
                    (*dop).max(1).min(effective_dop(ctx)),
                    ctx.clone(),
                ))
            }
            Plan::MergeJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let left_len = left.schema().len();
                let right_len = right.schema().len();
                let mut left_d = vec![demand.is_none(); left_len];
                let mut right_d = vec![demand.is_none(); right_len];
                if let Some(d) = demand {
                    for i in 0..left_len + right_len {
                        let wanted = d.get(i).copied().unwrap_or(true);
                        if i < left_len {
                            left_d[i] = left_d[i] || wanted;
                        } else {
                            right_d[i - left_len] = right_d[i - left_len] || wanted;
                        }
                    }
                }
                demand_exprs(&mut left_d, left_keys.iter());
                demand_exprs(&mut right_d, right_keys.iter());
                Box::new(MergeJoinIter::new(
                    left.open_demanded(ctx, Some(&left_d))?,
                    right.open_demanded(ctx, Some(&right_d))?,
                    left_keys.clone(),
                    right_keys.clone(),
                    ctx.batch_size,
                ))
            }
            Plan::CrossApply {
                input, tvf, args, ..
            } => Box::new(CrossApplyIter::new(
                // The apply's output interleaves input columns with the
                // function's rows; stay conservative and decode them all.
                input.open(ctx)?,
                tvf.clone(),
                args.clone(),
                ctx.clone(),
            )),
            Plan::RowNumber {
                input,
                prepend,
                order_cols,
                ..
            } => {
                if order_cols.is_empty() {
                    Box::new(RowNumberIter::new(
                        input.open(ctx)?,
                        *prepend,
                        ctx.batch_size,
                    ))
                } else {
                    Box::new(RowNumberIter::with_peer_frames(
                        input.open(ctx)?,
                        *prepend,
                        order_cols.clone(),
                        ctx.gov.clone(),
                        ctx.batch_size,
                    ))
                }
            }
        };
        let governed: BoxedIter = Box::new(GovernedIter::new(node, ctx.gov.clone()));
        Ok(match slot {
            Some(slot) => Box::new(StatsIter::new(governed, slot, ctx.gov.clone())),
            None => governed,
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
                    out.push_str(&format!(" WHERE {f}"));
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
                    out.push_str(&format!(" WHERE {f}"));
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
                out.push_str(&format!("{pad}Filter [{predicate}]"));
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
                    out.push_str(&format!(", WHERE {f}"));
                }
                out.push_str(")\n");
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                probe_first,
                dop,
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
                if *dop > 1 {
                    out.push_str(&format!(" [DOP={dop}]"));
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
                dop_hint,
                ..
            } => {
                if *dop_hint > 1 {
                    out.push_str(&format!(
                        "{pad}Parallelism (Gather Streams) [DOP={dop_hint}]"
                    ));
                    self.end_header(out, ann);
                    let pad1 = "  ".repeat(depth + 1);
                    out.push_str(&format!(
                        "{pad1}Merge Join (Inner Join) [{} = {}] (parallel, key-range partitioned)\n",
                        fmt_exprs(left_keys),
                        fmt_exprs(right_keys)
                    ));
                    left.explain_into(out, depth + 2, ann);
                    right.explain_into(out, depth + 2, ann);
                } else {
                    out.push_str(&format!(
                        "{pad}Merge Join (Inner Join) [{} = {}]",
                        fmt_exprs(left_keys),
                        fmt_exprs(right_keys)
                    ));
                    self.end_header(out, ann);
                    left.explain_into(out, depth + 1, ann);
                    right.explain_into(out, depth + 1, ann);
                }
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

/// Mark every column the expressions reference in `demand`. References
/// beyond the demand's arity are ignored (they cannot name a decodable
/// column of the child).
fn demand_exprs<'a>(demand: &mut [bool], exprs: impl IntoIterator<Item = &'a Expr>) {
    let mut refs = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut refs);
    }
    for i in refs {
        if let Some(slot) = demand.get_mut(i) {
            *slot = true;
        }
    }
}

/// Input columns an aggregate reads: its group keys and argument
/// expressions — nothing else, whatever the consumer above demanded.
fn aggregate_demand(input: &Schema, group_exprs: &[Expr], aggs: &[AggSpec]) -> Vec<bool> {
    let mut d = vec![false; input.len()];
    demand_exprs(&mut d, group_exprs.iter());
    demand_exprs(&mut d, aggs.iter().flat_map(|a| &a.args));
    d
}

/// Columns a heap scan must actually decode: the consumer's demand over
/// the scan's *output*, mapped back through its pushed projection, plus
/// whatever its own residual filter reads. `None` = decode everything.
fn scan_decode_mask(
    schema: &Schema,
    filter: Option<&Expr>,
    projection: Option<&[usize]>,
    demand: Option<&[bool]>,
) -> Option<Vec<bool>> {
    let demand = demand?;
    let mut mask = vec![false; schema.len()];
    match projection {
        Some(p) => {
            for (out_idx, &col) in p.iter().enumerate() {
                if demand.get(out_idx).copied().unwrap_or(true) {
                    if let Some(slot) = mask.get_mut(col) {
                        *slot = true;
                    }
                }
            }
        }
        None => {
            for (i, slot) in mask.iter_mut().enumerate() {
                *slot = demand.get(i).copied().unwrap_or(true);
            }
        }
    }
    if let Some(f) = filter {
        demand_exprs(&mut mask, std::slice::from_ref(f));
    }
    if mask.iter().all(|&b| b) {
        None
    } else {
        Some(mask)
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
