//! `analytic-inproc`: the paper's §4.2 queries on a warm in-memory
//! database, one session, no wire, no WAL. Executor and row decode do
//! almost all the work here.

use std::sync::Arc;
use std::time::Duration;

use seqdb_core::dataset::{DgeDataset, ResequencingDataset, Scale};
use seqdb_core::{import, queries, udx};
use seqdb_engine::{Database, QueryResult, Session};
use seqdb_perf::layers::{self, ExecAcc};
use seqdb_perf::measure::{closed_loop, timed, SpanLog, Stop};
use seqdb_perf::run::{self, RunConfig};
use seqdb_perf::spec::Outcome;
use seqdb_sql::SessionSqlExt;
use seqdb_storage::rowfmt::Compression;
use seqdb_types::Result;

const DGE: &str = "_dge";
const RESEQ: &str = "_rs";
const OP_NAMES: [&str; 4] = [
    "op.q1.p50_ms",
    "op.q2.p50_ms",
    "op.q3.p50_ms",
    "op.mergejoin.p50_ms",
];
/// Operations of the traced pass whose counter movement is reported;
/// with one client the counts repeat exactly.
const COUNTED_OPS: u64 = 40;

struct State {
    db: Arc<Database>,
    dge: DgeDataset,
    reseq: ResequencingDataset,
    /// Query 3 through the pivot plan, computed once in the warm-up:
    /// what every sliding-window run must equal.
    pivot: Vec<(i64, String)>,
    sql: [String; 3],
    user_bytes: u64,
}

fn setup(cfg: &RunConfig, rep: usize) -> State {
    let dir = cfg.fresh_dir(&format!("analytic-{rep}"));
    let scale = |n_reads: usize, seed: u64| Scale {
        genome_bp: 200_000,
        n_chromosomes: 5,
        n_reads,
        seed,
    };
    // The DGE lane stays above the planner's 10 000-row threshold for a
    // parallel aggregate, so Query 1 runs the paper's Figure 9 plan.
    let dge = DgeDataset::generate(&dir.join("dge"), &scale(cfg.scale(16_000, 2_000), cfg.seed))
        .expect("DGE dataset generates");
    let reseq = ResequencingDataset::generate(
        &dir.join("reseq"),
        &scale(cfg.scale(8_000, 1_000), cfg.seed ^ 0x5EED),
    )
    .expect("re-sequencing dataset generates");
    let db = Database::in_memory();
    udx::register_udx(&db, None);
    import::import_dge_normalized(&db, DGE, Compression::None, &dge).expect("DGE import");
    import::import_reseq_normalized(&db, RESEQ, Compression::None, &reseq).expect("reseq import");
    let q2 = queries::query2_sql(DGE);
    let q2_select = q2[q2.find("SELECT").expect("Query 2 has a SELECT body")..].to_string();
    let user_bytes = run::file_len(&dge.fastq_path) + run::file_len(&reseq.fastq_path);
    let pivot = queries::run_query3_pivot(&db, RESEQ).expect("pivot consensus runs");
    let state = State {
        db,
        dge,
        reseq,
        pivot,
        sql: [
            queries::query1_sql(DGE),
            q2_select,
            queries::merge_join_sql(RESEQ),
        ],
        user_bytes,
    };
    // Warm-up: one round, checked.
    let session = state.db.create_session();
    for i in 0..4 {
        let (_, _, ok) = state.untraced_op(&session, i);
        assert!(ok, "warm-up op {i} returned a wrong result");
    }
    state
}

impl State {
    fn check(&self, kind: u8, result: Result<Checked>) -> bool {
        let ok = match (kind, &result) {
            (0, Ok(Checked::Rows(r))) => {
                queries::check_query1_against(r, &self.dge.unique_tags).is_ok()
            }
            (1, Ok(Checked::Rows(r))) => {
                let total: i64 = r.rows.iter().filter_map(|row| row[4].as_int().ok()).sum();
                let expected: u64 = self.dge.gene_expression.iter().map(|(_, f, _)| f).sum();
                r.rows.len() == self.dge.gene_expression.len() && total as u64 == expected
            }
            (2, Ok(Checked::Consensus(c))) => *c == self.pivot,
            (3, Ok(Checked::Rows(r))) => {
                r.rows.len() == 1
                    && r.rows[0][0].as_int().ok() == Some(self.reseq.alignments.len() as i64)
            }
            _ => false,
        };
        if !ok {
            eprintln!(
                "perf: analytic-inproc op kind {kind} failed: {:?}",
                result.err()
            );
        }
        ok
    }

    fn untraced_op(&self, session: &Session, i: u64) -> (u8, Duration, bool) {
        let kind = (i % 4) as u8;
        let (result, took) = timed(|| match kind {
            0 => session.query_sql(&self.sql[0]).map(Checked::Rows),
            1 => session.query_sql(&self.sql[1]).map(Checked::Rows),
            2 => queries::run_query3_sliding(&self.db, RESEQ).map(Checked::Consensus),
            _ => session.query_sql(&self.sql[2]).map(Checked::Rows),
        });
        (kind, took, self.check(kind, result))
    }

    fn traced_op(&self, client: &mut Traced, i: u64) -> (u8, Duration, bool) {
        let kind = (i % 4) as u8;
        let Traced { session, log, acc } = client;
        log.set_op(i);
        let (result, took) = timed(|| {
            log.span("op", |log| match kind {
                2 => {
                    let rows = log.span("statement", |log| {
                        let plan = log.span("sql.plan_sql", |_| {
                            queries::query3_sliding_plan(&self.db, RESEQ)
                        })?;
                        layers::run_plan_traced(log, session, "query3 sliding", &plan, acc)
                    })?;
                    let mut pairs: Vec<(i64, String)> = rows
                        .rows
                        .iter()
                        .map(|r| Ok((r[0].as_int()?, r[1].as_text()?.to_string())))
                        .collect::<Result<_>>()?;
                    pairs.sort_by_key(|(c, _)| *c);
                    Ok(Checked::Consensus(pairs))
                }
                _ => {
                    let sql = &self.sql[if kind == 3 { 2 } else { kind as usize }];
                    layers::traced_select(log, &self.db, session, sql, acc).map(Checked::Rows)
                }
            })
        });
        (kind, took, self.check(kind, result))
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        let pages = self.db.pool().store().num_pages() * seqdb_storage::PAGE_SIZE as u64;
        let blobs = self.db.filestream().total_bytes().unwrap_or(0);
        (pages + blobs) as f64 / self.user_bytes as f64
    }
}

enum Checked {
    Rows(QueryResult),
    Consensus(Vec<(i64, String)>),
}

struct Traced {
    session: Session,
    log: SpanLog,
    acc: ExecAcc,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s) = run::repeated_setup(cfg, |rep| setup(cfg, rep));
    let read = state
        .db
        .catalog()
        .table(&format!("Read{DGE}"))
        .expect("Read table");
    run::print_conditions(
        cfg,
        "analytic-inproc",
        state.db.pool().store().num_pages() * seqdb_storage::PAGE_SIZE as u64,
    );
    if !cfg.trace {
        let session = state.db.create_session();
        let result = closed_loop(vec![session], &Stop::After(cfg.window()), |s, i| {
            state.untraced_op(s, i)
        });
        run::report_end_to_end(
            &mut out,
            setup_s,
            &result,
            state.stored_bytes_per_user_byte(),
        );
        return out;
    }

    let origin = std::time::Instant::now();
    let client = Traced {
        session: state.db.create_session(),
        log: SpanLog::new(origin),
        acc: ExecAcc::default(),
    };
    let (mut traced, moved) =
        run::traced_pass(cfg, vec![client], COUNTED_OPS, state.db.pool(), |c, i| {
            state.traced_op(c, i)
        });
    let replay = closed_loop(
        vec![state.db.create_session()],
        &Stop::Ops(traced.ops_per_client()),
        |s, i| state.untraced_op(s, i),
    );
    run::report_traced(&mut out, &traced, &replay);
    run::report_op_medians(&mut out, &replay, &OP_NAMES);
    let client = traced.clients.pop().expect("one traced client");
    let logs = [client.log];
    layers::report_spans(&mut out, &logs, &client.acc, traced.attempted());
    layers::report_counters(&mut out, &moved, COUNTED_OPS, state.user_bytes);
    layers::print_breakdown(&logs, &traced.samples, &OP_NAMES);
    run::write_trace(cfg, "analytic-inproc", &logs);

    // Direct layer timings on the workload's own Read table.
    layers::probe_storage(
        &mut out,
        state.db.pool(),
        &read,
        &read,
        read.row_count(),
        cfg.seed,
        512,
    );
    run::finish_traced(&mut out);
    out
}
