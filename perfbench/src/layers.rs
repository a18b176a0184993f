//! Layer measurements taken from outside: the stepwise form of a
//! statement (each step a span), `ExecStats` self times per operator
//! class, and direct timings of each storage/server/bio layer's public
//! functions on the workload's own data.

use std::path::Path;
use std::sync::Arc;

use seqdb_engine::stats::ExecStats;
use seqdb_engine::{Database, Plan, QueryResult, Session, Table, TableIndex};
use seqdb_server::protocol;
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::rowfmt::{self, Compression};
use seqdb_storage::{
    keycode, BTree, BufferPool, FileStreamStore, HeapFile, MemPager, PageId, PAGE_SIZE,
};
use seqdb_types::{Result, Row, Schema, Value};

use crate::measure::{
    median_nanos, self_nanos_by_name, timed, total_nanos_of, Counters, Sample, SpanLog,
};
use crate::spec::Outcome;

/// Operator classes the executor's time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Scan,
    Filter,
    Agg,
    Join,
    Sort,
    Window,
    Apply,
}

const CLASS_METRICS: [(OpClass, &str); 7] = [
    (OpClass::Scan, "engine.exec.scan_ms"),
    (OpClass::Filter, "engine.exec.filter_ms"),
    (OpClass::Agg, "engine.exec.agg_ms"),
    (OpClass::Join, "engine.exec.join_ms"),
    (OpClass::Sort, "engine.exec.sort_ms"),
    (OpClass::Window, "engine.exec.window_ms"),
    (OpClass::Apply, "engine.exec.apply_ms"),
];

struct PlanNode {
    parent: Option<usize>,
    class: OpClass,
    /// Rows this node reads from storage that `ExecStats` cannot see
    /// (the parallel aggregate scans inside its workers).
    hidden_rows: u64,
    leaf_scan: bool,
    consensus: bool,
}

/// The plan's nodes in the pre-order `Plan::open` registers stats slots
/// in, so index `i` pairs with `ExecStats::nodes()[i]`.
fn preorder(plan: &Plan, parent: Option<usize>, out: &mut Vec<PlanNode>) {
    let me = out.len();
    let mut node = PlanNode {
        parent,
        class: OpClass::Scan,
        hidden_rows: 0,
        leaf_scan: false,
        consensus: false,
    };
    let children: Vec<&Plan> = match plan {
        Plan::TableScan { .. } | Plan::IndexScan { .. } => {
            node.leaf_scan = true;
            vec![]
        }
        Plan::TvfScan { .. } | Plan::Values { .. } => vec![],
        Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Limit { input, .. } => {
            node.class = OpClass::Filter;
            vec![input]
        }
        Plan::Sort { input, .. } | Plan::TopN { input, .. } => {
            node.class = OpClass::Sort;
            vec![input]
        }
        Plan::HashAggregate { input, aggs, .. } | Plan::StreamAggregate { input, aggs, .. } => {
            node.class = OpClass::Agg;
            node.consensus = aggs
                .iter()
                .any(|a| a.factory.name().eq_ignore_ascii_case("AssembleConsensus"));
            vec![input]
        }
        Plan::ParallelAggregate { table, .. } => {
            node.class = OpClass::Agg;
            node.hidden_rows = table.row_count();
            vec![]
        }
        Plan::HashJoin { build, probe, .. } => {
            node.class = OpClass::Join;
            vec![build, probe]
        }
        Plan::MergeJoin { left, right, .. } => {
            node.class = OpClass::Join;
            vec![left, right]
        }
        Plan::CrossApply { input, .. } => {
            node.class = OpClass::Apply;
            vec![input]
        }
        Plan::RowNumber { input, .. } => {
            node.class = OpClass::Window;
            vec![input]
        }
    };
    out.push(node);
    for child in children {
        preorder(child, Some(me), out);
    }
}

/// Executor time of the traced pass, split by operator class from
/// `ExecStats` (self time = a node's elapsed time minus its children's).
#[derive(Default)]
pub struct ExecAcc {
    class_nanos: [u64; 7],
    consensus_nanos: u64,
    consensus_statements: u64,
    rows_examined: u64,
    rows_returned: u64,
    peak_mem_bytes: u64,
}

impl ExecAcc {
    pub fn add(&mut self, plan: &Plan, stats: &ExecStats, rows_returned: u64) {
        let mut nodes = Vec::new();
        preorder(plan, None, &mut nodes);
        let actual = stats.nodes();
        assert_eq!(
            nodes.len(),
            actual.len(),
            "plan walk out of step with ExecStats"
        );
        let mut own: Vec<u64> = actual
            .iter()
            .map(|n| n.elapsed().as_nanos() as u64)
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                own[p] = own[p].saturating_sub(actual[i].elapsed().as_nanos() as u64);
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            let class = CLASS_METRICS
                .iter()
                .position(|(c, _)| *c == node.class)
                .expect("every class has a metric");
            self.class_nanos[class] += own[i];
            if node.consensus {
                self.consensus_nanos += own[i];
                self.consensus_statements += 1;
            }
            if node.leaf_scan {
                self.rows_examined += actual[i].rows();
            }
            self.rows_examined += node.hidden_rows;
            self.peak_mem_bytes = self.peak_mem_bytes.max(actual[i].peak_mem_bytes());
        }
        self.rows_returned += rows_returned;
    }

    pub fn merge(&mut self, other: &ExecAcc) {
        for (a, b) in self.class_nanos.iter_mut().zip(other.class_nanos) {
            *a += b;
        }
        self.consensus_nanos += other.consensus_nanos;
        self.consensus_statements += other.consensus_statements;
        self.rows_examined += other.rows_examined;
        self.rows_returned += other.rows_returned;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
    }
}

/// The stepwise form of a SELECT on a session, every step a span:
/// parse, parse+bind+plan, admit/register, open+drain under an
/// `ExecStats` collector, deregister.
pub fn traced_select(
    log: &mut SpanLog,
    db: &Arc<Database>,
    session: &Session,
    sql: &str,
    acc: &mut ExecAcc,
) -> Result<QueryResult> {
    log.span("statement", |log| {
        let plan = log.span("sql.plan_sql", |_| db.plan_sql(sql))?;
        // Parsed again alone, to split the front end's time. This parse
        // runs warm, right after `plan_sql` parsed the same text.
        log.span("sql.parse", |_| seqdb_sql::parse(sql).map(drop))?;
        run_plan_traced(log, session, sql, &plan, acc)
    })
}

/// Admit, run and deregister an already built plan (the tail of
/// [`traced_select`]; hand-built plans enter here).
pub fn run_plan_traced(
    log: &mut SpanLog,
    session: &Session,
    sql: &str,
    plan: &Plan,
    acc: &mut ExecAcc,
) -> Result<QueryResult> {
    let (mut ctx, mut guard) = log.span("engine.session", |_| session.begin_statement(sql))?;
    let stats = ExecStats::new();
    ctx.stats = Some(stats.clone());
    let rows = log.span("engine.exec", |_| plan.run(&ctx))?;
    log.span("engine.session", |_| {
        guard.set_rows(rows.len() as u64);
        drop(guard);
    });
    acc.add(plan, &stats, rows.len() as u64);
    Ok(QueryResult {
        schema: plan.schema(),
        rows,
        affected: 0,
    })
}

/// Fold the traced pass's spans, executor split and counter movement
/// into the per-layer metrics every workload shares. `ops` is the number
/// of operations traced; time metrics are means per operation, so the
/// layers of one workload add up.
pub fn report_spans(out: &mut Outcome, logs: &[SpanLog], acc: &ExecAcc, ops: u64) {
    let per_op = |nanos: u64| nanos as f64 / ops.max(1) as f64;
    let by_name = self_nanos_by_name(logs);
    let own = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, t)| *t)
    };

    // The stepwise SELECT parses twice: inside `plan_sql`, then alone.
    // A real statement parses once, so the lone parse comes off both the
    // bind+plan time and the statement time.
    let parse = total_nanos_of(logs, "sql.parse");
    let parse_dml = total_nanos_of(logs, "sql.parse_dml");
    let plan_sql = total_nanos_of(logs, "sql.plan_sql");
    let statements = total_nanos_of(logs, "statement").saturating_sub(parse);
    let exec = total_nanos_of(logs, "engine.exec");
    out.set("sql.parse_us", per_op(parse + parse_dml) / 1e3);
    out.set(
        "sql.bind_plan_us",
        per_op(plan_sql.saturating_sub(parse)) / 1e3,
    );
    out.set(
        "sql.frontend_share",
        if statements == 0 {
            0.0
        } else {
            (plan_sql + parse_dml) as f64 / statements as f64
        },
    );
    out.set(
        "engine.session.overhead_us",
        per_op(own("engine.session")) / 1e3,
    );
    out.set("engine.exec.ms", per_op(exec) / 1e6);
    for (i, (_, metric)) in CLASS_METRICS.iter().enumerate() {
        out.set(metric, per_op(acc.class_nanos[i]) / 1e6);
    }
    if acc.consensus_statements > 0 {
        out.set(
            "core.udx.consensus_ms",
            acc.consensus_nanos as f64 / acc.consensus_statements as f64 / 1e6,
        );
    }
    if exec > 0 {
        out.set(
            "engine.exec.rows_per_s",
            acc.rows_examined as f64 / (exec as f64 / 1e9),
        );
    }
    if acc.rows_returned > 0 {
        out.set(
            "engine.exec.rows_examined_per_row_returned",
            acc.rows_examined as f64 / acc.rows_returned as f64,
        );
    }
    out.set(
        "engine.exec.peak_mem_kb",
        acc.peak_mem_bytes as f64 / 1024.0,
    );

    // What the op's own span did not hand to a named layer below it.
    let op_total = total_nanos_of(logs, "op");
    if op_total > 0 {
        out.set("unattributed_share", own("op") as f64 / op_total as f64);
    }
}

/// The finding behind the per-layer numbers, for people: mean self time
/// of every span per op, split by op kind, on standard error. `samples`
/// are the traced pass's, indexed like the logs; a span's `op` is its
/// client's sample index.
pub fn print_breakdown(logs: &[SpanLog], samples: &[Vec<Sample>], kinds: &[&str]) {
    let mut names: Vec<&'static str> = Vec::new();
    let mut nanos: Vec<Vec<u64>> = Vec::new();
    let mut ops = vec![0u64; kinds.len()];
    for (log, samples) in logs.iter().zip(samples) {
        for s in samples {
            ops[s.kind as usize] += 1;
        }
        for (span, own) in log.spans.iter().zip(log.self_nanos()) {
            let Some(sample) = samples.get(span.op as usize) else {
                continue;
            };
            let row = names
                .iter()
                .position(|n| *n == span.name)
                .unwrap_or_else(|| {
                    names.push(span.name);
                    nanos.push(vec![0; kinds.len()]);
                    names.len() - 1
                });
            nanos[row][sample.kind as usize] += own;
        }
    }
    eprintln!("perf: mean self time per op (us), by op kind");
    eprint!("perf:   {:<22}", "span");
    for k in kinds {
        eprint!(
            "{:>22}",
            k.trim_start_matches("op.").trim_end_matches(".p50_ms")
        );
    }
    eprintln!();
    for (name, row) in names.iter().zip(&nanos) {
        eprint!("perf:   {name:<22}");
        for (total, n) in row.iter().zip(&ops) {
            eprint!("{:>22.1}", *total as f64 / 1e3 / (*n).max(1) as f64);
        }
        eprintln!();
    }
}

/// Counter movement over the fixed op prefix of the traced pass.
pub fn report_counters(out: &mut Outcome, moved: &Counters, ops: u64, user_bytes: u64) {
    out.set("storage.buffer.hit_ratio", moved.hit_ratio());
    out.set("storage.buffer.misses", moved.misses as f64);
    out.set("storage.buffer.evictions", moved.evictions as f64);
    out.set("storage.buffer.writebacks", moved.writebacks as f64);
    out.set(
        "storage.buffer.io_wait_ms",
        moved.buffer_io_nanos as f64 / 1e6 / ops.max(1) as f64,
    );
    out.set("storage.wal.records", moved.wal_records as f64);
    out.set("storage.wal.fsyncs", moved.wal_fsyncs as f64);
    if user_bytes > 0 {
        out.set(
            "storage.wal.bytes_per_user_byte",
            moved.wal_bytes as f64 / user_bytes as f64,
        );
    }
    out.set(
        "engine.session.admission_waits",
        moved.admission_waits as f64,
    );
    out.set(
        "engine.session.admission_wait_ms",
        moved.admission_wait_nanos as f64 / 1e6,
    );
    out.set("engine.exec.spill_files", moved.spill_files as f64);
    out.set("engine.exec.spill_bytes", moved.spill_bytes as f64);
    let batched = moved.batch_rows + moved.batch_fallback_rows;
    if batched > 0 {
        out.set(
            "engine.exec.batch_fallback_ratio",
            moved.batch_fallback_rows as f64 / batched as f64,
        );
    }
}

const PROBE_REPEATS: usize = 5;

/// The storage-layer probes every workload runs on its own data: row
/// decode and heap insert on `table` (its first `max_pages` pages),
/// B+-tree get and insert on the primary key of `keyed`, whose rows
/// `r_id = 1..=n_keys` must exist, and pool fetch and pager read of the
/// same pages.
pub fn probe_storage(
    out: &mut Outcome,
    pool: &BufferPool,
    table: &Table,
    keyed: &Table,
    n_keys: u64,
    seed: u64,
    max_pages: usize,
) {
    let pages: Vec<PageId> = table
        .heap
        .pages_snapshot()
        .into_iter()
        .take(max_pages)
        .collect();
    probe_decode(out, table, &pages);
    let mut sample = Vec::new();
    for &pid in pages.iter().take(32) {
        table
            .heap
            .page_rows_into(pid, &mut sample)
            .expect("heap page decodes");
    }
    probe_heap_insert(out, &table.schema, &sample);
    let pk = keyed.indexes.read()[0].clone();
    let keys: Vec<Vec<u8>> = (0..1000u64)
        .map(|k| 1 + (k * 7919 + seed) % n_keys)
        .map(|id| keycode::encode_key(&[Value::Int(id as i64)]))
        .collect();
    probe_btree(out, pool, &pk, &keys);
    probe_buffer(out, pool, &pages);
}

/// `storage::rowfmt` decode cost through `HeapFile::page_rows_into` and
/// its masked form, over pages that are read once beforehand so the pool
/// serves them.
fn probe_decode(out: &mut Outcome, table: &Table, pages: &[PageId]) {
    let mut rows = Vec::new();
    let mut decode_all = |mask: Option<&[bool]>| {
        rows.clear();
        for &pid in pages {
            table
                .heap
                .page_rows_into_masked(pid, mask, &mut rows)
                .expect("heap page decodes");
        }
        std::hint::black_box(rows.len())
    };
    let n = decode_all(None).max(1) as f64;
    // Two of the columns demanded: the shape of a filtered aggregate.
    let mask: Vec<bool> = (0..table.schema.len()).map(|i| i == 0 || i == 6).collect();
    let full = median_nanos(PROBE_REPEATS, || {
        decode_all(None);
    });
    let masked = median_nanos(PROBE_REPEATS, || {
        decode_all(Some(&mask));
    });
    out.set("storage.rowfmt.decode_ns_per_row", full / n);
    out.set("storage.rowfmt.decode_masked_ns_per_row", masked / n);
}

/// `rowfmt::encode_row` alone, then `HeapFile::insert` of the same rows
/// into a scratch heap on its own in-memory pool.
fn probe_heap_insert(out: &mut Outcome, schema: &Arc<Schema>, rows: &[Row]) {
    if rows.is_empty() {
        return;
    }
    let n = rows.len() as f64;
    let encode = median_nanos(PROBE_REPEATS, || {
        for r in rows {
            std::hint::black_box(rowfmt::encode_row(schema, r, Compression::None, None));
        }
    });
    out.set("storage.rowfmt.encode_ns_per_row", encode / n);
    let mut pages = 0u64;
    let insert = median_nanos(PROBE_REPEATS, || {
        let pool = BufferPool::with_default_capacity(Arc::new(MemPager::new()));
        let heap = HeapFile::create(pool, schema.clone(), Compression::None).expect("scratch heap");
        for r in rows {
            heap.insert(r).expect("scratch heap insert");
        }
        pages = heap.page_count();
    });
    out.set("storage.heap.insert_us_per_row", insert / n / 1e3);
    out.set("storage.heap.pages_per_krow", pages as f64 * 1000.0 / n);
}

/// `BTree::get` on a live index for the given keys (pool fetches per
/// get from the pool's own counters), and `BTree::insert` of the same
/// keys with `value` into a scratch tree.
fn probe_btree(out: &mut Outcome, pool: &BufferPool, index: &TableIndex, keys: &[Vec<u8>]) {
    if keys.is_empty() {
        return;
    }
    let n = keys.len() as f64;
    let before = Counters::now(pool);
    let mut found = 0usize;
    let mut value = Vec::new();
    let (_, took) = timed(|| {
        for k in keys {
            if let Some(v) = index.btree.get(k).expect("b+tree get") {
                found += 1;
                value = v;
            }
        }
    });
    let moved = Counters::now(pool).since(&before);
    assert_eq!(found, keys.len(), "probe keys must exist in the index");
    out.set("storage.btree.get_us", took.as_nanos() as f64 / n / 1e3);
    out.set(
        "storage.btree.pages_per_get",
        (moved.hits + moved.misses) as f64 / n,
    );
    let insert = median_nanos(3, || {
        let scratch = BufferPool::with_default_capacity(Arc::new(MemPager::new()));
        let tree = BTree::create(scratch).expect("scratch tree");
        for k in keys {
            tree.insert(k, &value).expect("scratch tree insert");
        }
    });
    out.set("storage.btree.insert_us", insert / n / 1e3);
}

/// `BufferPool::fetch` of pages that are resident, and raw `PageStore`
/// reads of the same pages (from the OS page cache on a file pager).
fn probe_buffer(out: &mut Outcome, pool: &BufferPool, pages: &[PageId]) {
    if pages.is_empty() {
        return;
    }
    for &p in pages {
        pool.fetch(p).expect("page fetch");
    }
    let n = pages.len() as f64;
    let hit = median_nanos(PROBE_REPEATS, || {
        for &p in pages {
            std::hint::black_box(pool.fetch(p).expect("page fetch"));
        }
    });
    out.set("storage.buffer.fetch_hit_ns", hit / n);
    let mut buf = vec![0u8; PAGE_SIZE];
    let read = median_nanos(PROBE_REPEATS, || {
        for &p in pages {
            pool.store().read_page(p, &mut buf).expect("page read");
        }
    });
    out.set(
        "storage.pager.read_mb_per_s",
        n * PAGE_SIZE as f64 / 1e6 / (read / 1e9),
    );
}

/// `server::protocol`: a real result set written into a `Vec` and read
/// back frame by frame.
pub fn probe_protocol(out: &mut Outcome, result: &QueryResult) {
    if result.rows.is_empty() {
        return;
    }
    let n = result.rows.len() as f64;
    let mut wire = Vec::new();
    let encode = median_nanos(PROBE_REPEATS, || {
        wire.clear();
        protocol::write_result(&mut wire, result).expect("result encodes");
    });
    let decode = median_nanos(PROBE_REPEATS, || {
        let mut r = &wire[..];
        let mut rows = 0usize;
        while let Some(frame) = protocol::read_frame(&mut r).expect("frame reads") {
            if frame[0] == protocol::RESP_ROWS {
                rows += protocol::decode_rows(&frame).expect("rows decode").len();
            }
        }
        assert_eq!(rows, result.rows.len());
    });
    out.set("server.protocol.encode_ns_per_row", encode / n);
    out.set("server.protocol.decode_ns_per_row", decode / n);
    out.set("server.protocol.bytes_per_row", wire.len() as f64 / n);
}

/// `storage::filestream` and `storage::sha256` on one lane file: import
/// it, stream it back, re-hash it against its sidecar.
pub fn probe_filestream(out: &mut Outcome, store: &FileStreamStore, file: &Path) {
    let mb = std::fs::metadata(file).map_or(0, |m| m.len()) as f64 / 1e6;
    let mut guids = Vec::new();
    let write = median_nanos(3, || {
        guids.push(store.insert_from_file(file).expect("blob import"));
    });
    let guid = guids[0];
    let read = median_nanos(PROBE_REPEATS, || {
        let mut reader = store.open_reader(guid, true).expect("blob opens");
        std::hint::black_box(reader.read_all().expect("blob reads"));
    });
    let stem = seqdb_types::Value::guid_string(guid);
    let verify = median_nanos(PROBE_REPEATS, || {
        std::hint::black_box(store.verify_blob(&stem).expect("blob verifies"));
    });
    for g in guids {
        store.delete(g).expect("probe blob deletes");
    }
    out.set("storage.filestream.write_mb_per_s", mb / (write / 1e9));
    out.set("storage.filestream.read_mb_per_s", mb / (read / 1e9));
    out.set("storage.sha256.mb_per_s", mb / (verify / 1e9));
}

/// `bio::fastq`: the zero-copy reader over a lane file alone.
pub fn probe_fastq(out: &mut Outcome, file: &Path) {
    use seqdb_bio::fastq::{ChunkedFastqParser, IoChunkSource};
    let mb = std::fs::metadata(file).map_or(0, |m| m.len()) as f64 / 1e6;
    let parse = median_nanos(PROBE_REPEATS, || {
        let f = std::fs::File::open(file).expect("lane file opens");
        let mut parser = ChunkedFastqParser::new(IoChunkSource(f));
        let mut bases = 0usize;
        while let Some(entry) = parser.next_ref().expect("lane file parses") {
            bases += entry.seq.len();
        }
        std::hint::black_box(bases);
    });
    out.set("bio.fastq.parse_mb_per_s", mb / (parse / 1e9));
}
