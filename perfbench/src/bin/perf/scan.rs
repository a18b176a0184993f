//! `scan-cold`: the only workload larger than the program's own cache.
//! A disk-backed database holds one long-read lane per table, about
//! three and a half buffer pools of heap in all, plus a keyed table;
//! scans, Query 1 and batches of key lookups miss, evict and re-read.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdb_bio::readname::ReadName;
use seqdb_bio::reference::ReferenceGenome;
use seqdb_bio::simulate::{DgeSimulator, LaneConfig};
use seqdb_core::dataset::bin_unique_tags;
use seqdb_core::queries;
use seqdb_core::udx::DB_QUAL_ENCODING;
use seqdb_engine::stats::ExecStats;
use seqdb_engine::{Database, Plan, QueryResult, Session, Table, TableIndex};
use seqdb_perf::layers::{self, ExecAcc};
use seqdb_perf::measure::{closed_loop, timed, SpanLog, Stop};
use seqdb_perf::run::{self, RunConfig};
use seqdb_perf::spec::Outcome;
use seqdb_sql::{DatabaseSqlExt, SessionSqlExt};
use seqdb_types::{Result, Row, Value};

const OP_NAMES: [&str; 3] = ["op.scan.p50_ms", "op.binning.p50_ms", "op.lookup1k.p50_ms"];
const SCAN: u8 = 0;
const BINNING: u8 = 1;
const LOOKUP: u8 = 2;
/// Long reads make a lane table a few hundred pool frames per thousand
/// rows, so a heap well beyond the pool loads within the set-up budget.
const READ_LEN: usize = 480;
const LOOKUPS_PER_OP: usize = 1000;
/// Ops of the traced pass whose counter movement is reported. Parallel
/// scan workers race for frames, so these counts vary a little.
const COUNTED_OPS: u64 = 12;

fn lane_ddl(name: &str, keyed: bool) -> String {
    format!(
        "CREATE TABLE {name} (
            r_id INT NOT NULL{},
            r_e_id INT NOT NULL, r_sg_id INT NOT NULL, r_s_id INT NOT NULL, r_l_id INT NOT NULL,
            tile INT NOT NULL, x INT NOT NULL, y INT NOT NULL,
            short_read_seq VARCHAR(512) NOT NULL,
            quals VARCHAR(512) NOT NULL)",
        if keyed { " PRIMARY KEY" } else { "" }
    )
}

/// What one lane table must answer.
struct LaneTruth {
    /// `COUNT(*)` and `SUM(x)` over the rows with `y < 1024`.
    scan: (i64, i64),
    /// Unique-tag frequencies, descending (tags themselves dropped).
    tag_counts: Vec<(String, u64)>,
}

struct State {
    db: Arc<Database>,
    lanes: Vec<LaneTruth>,
    keyed: Arc<Table>,
    pk: Arc<TableIndex>,
    /// `short_read_seq` of the keyed table's row `r_id = i + 1`.
    key_seqs: Vec<Arc<str>>,
    user_bytes: u64,
    heap_bytes: u64,
}

fn setup(cfg: &RunConfig, rep: usize) -> State {
    let dir = cfg.fresh_dir(&format!("scan-{rep}"));
    let n_lanes = cfg.scale(8, 3);
    let rows_per_lane = cfg.scale(12_000, 300);
    let reference = ReferenceGenome::synthetic(cfg.seed, 4, 400_000);
    let lane_cfg = LaneConfig {
        read_len: READ_LEN,
        quality_decay: 0.01,
        extra_error: 0.0002,
        ..LaneConfig::default()
    };
    let db = Database::open(&dir.join("db")).expect("database opens");
    let mut lanes = Vec::new();
    let mut key_seqs = Vec::new();
    let mut user_bytes = 0;
    let mut heap_bytes = 0;
    // Lane `n_lanes` is the keyed table: same rows, plus a primary key.
    for lane in 0..=n_lanes {
        let keyed = lane == n_lanes;
        let name = if keyed {
            "ReadKey".to_string()
        } else {
            format!("Read_l{lane}")
        };
        db.execute_sql(&lane_ddl(&name, keyed))
            .expect("lane table creates");
        let table = db.catalog().table(&name).expect("lane table");
        let mut sim = DgeSimulator::new(
            lane_cfg.clone(),
            &reference,
            200,
            1.05,
            cfg.seed ^ ((lane as u64 + 1) * 0x51AB),
        );
        let reads = sim.lane(rows_per_lane);
        let mut scan = (0i64, 0i64);
        for (i, read) in reads.iter().enumerate() {
            let name = ReadName::parse(&read.name).expect("simulated read name parses");
            if name.y < 1024 {
                scan.0 += 1;
                scan.1 += name.x as i64;
            }
            user_bytes += run::fastq_bytes(read);
            let seq: Arc<str> = Arc::from(read.seq.as_str());
            table
                .insert(&Row::new(vec![
                    Value::Int(i as i64 + 1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(lane as i64),
                    Value::Int(name.tile as i64),
                    Value::Int(name.x as i64),
                    Value::Int(name.y as i64),
                    Value::Text(seq.clone()),
                    Value::text(DB_QUAL_ENCODING.encode(&read.quals)),
                ]))
                .expect("row loads");
            if keyed {
                key_seqs.push(seq);
                // The key's B+-tree dirties pages faster than the heap;
                // checkpoint before the pool has to evict them one
                // fsync at a time.
                if (i + 1) % 3000 == 0 {
                    db.checkpoint().expect("checkpoint");
                }
            }
        }
        db.checkpoint().expect("checkpoint");
        heap_bytes += table.heap.allocated_bytes();
        if !keyed {
            lanes.push(LaneTruth {
                scan,
                tag_counts: bin_unique_tags(&reads)
                    .into_iter()
                    .map(|(_, n)| (String::new(), n))
                    .collect(),
            });
        }
    }
    let keyed = db.catalog().table("ReadKey").expect("keyed table");
    let pk = keyed.indexes.read()[0].clone();
    let state = State {
        db,
        lanes,
        keyed,
        pk,
        key_seqs,
        user_bytes,
        heap_bytes,
    };
    // Warm-up: one checked round.
    let mut warm = ScanClient::new(&state, cfg);
    for i in 0..3 {
        let (_, _, ok) = warm.untraced_op(&state, i);
        assert!(ok, "warm-up op {i} returned a wrong result");
    }
    state
}

struct ScanClient {
    session: Session,
    rng: StdRng,
    traced: Option<(SpanLog, ExecAcc)>,
}

impl ScanClient {
    fn new(state: &State, cfg: &RunConfig) -> ScanClient {
        ScanClient {
            session: state.db.create_session(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5CA9),
            traced: None,
        }
    }

    /// Round-robin over the three op kinds; the lane and the keys are
    /// seeded draws.
    fn draw(&mut self, state: &State, i: u64) -> (u8, usize, Vec<i64>) {
        let kind = (i % 3) as u8;
        let lane = self.rng.gen_range(0..state.lanes.len());
        let ids = if kind == LOOKUP {
            (0..LOOKUPS_PER_OP)
                .map(|_| self.rng.gen_range(1..=state.key_seqs.len() as i64))
                .collect()
        } else {
            Vec::new()
        };
        (kind, lane, ids)
    }

    fn untraced_op(&mut self, state: &State, i: u64) -> (u8, Duration, bool) {
        let (kind, lane, ids) = self.draw(state, i);
        let (result, took) = timed(|| match kind {
            SCAN => self.session.query_sql(&scan_sql(lane)).map(Some),
            BINNING => self
                .session
                .query_sql(&queries::query1_sql(&format!("_l{lane}")))
                .map(Some),
            _ => {
                let (ctx, guard) = self.session.begin_statement("lookup1k")?;
                for &id in &ids {
                    let rows = seek_plan(state, id).run(&ctx)?;
                    check_seek(state, id, &rows)?;
                }
                drop(guard);
                Ok(None)
            }
        });
        (kind, took, state.check(kind, lane, result))
    }

    fn traced_op(&mut self, state: &State, i: u64) -> (u8, Duration, bool) {
        let (kind, lane, ids) = self.draw(state, i);
        let (log, acc) = self.traced.as_mut().expect("traced client");
        let session = &self.session;
        log.set_op(i);
        let (result, took) = timed(|| {
            log.span("op", |log| match kind {
                SCAN | BINNING => {
                    let sql = if kind == SCAN {
                        scan_sql(lane)
                    } else {
                        queries::query1_sql(&format!("_l{lane}"))
                    };
                    layers::traced_select(log, &state.db, session, &sql, acc).map(Some)
                }
                _ => log.span("statement", |log| {
                    let (ctx, guard) =
                        log.span("engine.session", |_| session.begin_statement("lookup1k"))?;
                    log.span("engine.exec", |_| {
                        for &id in &ids {
                            let plan = seek_plan(state, id);
                            let mut ctx = ctx.clone();
                            let stats = ExecStats::new();
                            ctx.stats = Some(stats.clone());
                            let rows = plan.run(&ctx)?;
                            acc.add(&plan, &stats, rows.len() as u64);
                            check_seek(state, id, &rows)?;
                        }
                        Result::Ok(())
                    })?;
                    log.span("engine.session", |_| drop(guard));
                    Ok(None)
                }),
            })
        });
        (kind, took, state.check(kind, lane, result))
    }
}

fn scan_sql(lane: usize) -> String {
    format!("SELECT COUNT(*), SUM(x) FROM Read_l{lane} WHERE y < 1024")
}

/// A primary-key seek as the engine's own operator: the binder plans
/// `WHERE r_id = k` as a table scan, so the plan is built by hand, the
/// way `core::queries` builds the sliding-window consensus.
fn seek_plan(state: &State, id: i64) -> Plan {
    Plan::IndexScan {
        table: state.keyed.clone(),
        index: state.pk.clone(),
        prefix: vec![Value::Int(id)],
        filter: None,
        projection: None,
        schema: state.keyed.schema.clone(),
    }
}

fn check_seek(state: &State, id: i64, rows: &[Row]) -> Result<()> {
    let found = rows.len() == 1
        && rows[0][0] == Value::Int(id)
        && rows[0][8].as_text().ok() == Some(&*state.key_seqs[id as usize - 1]);
    if found {
        Ok(())
    } else {
        Err(seqdb_types::DbError::Execution(format!(
            "key {id} returned {} rows or the wrong read",
            rows.len()
        )))
    }
}

impl State {
    fn check(&self, kind: u8, lane: usize, result: Result<Option<QueryResult>>) -> bool {
        let truth = &self.lanes[lane];
        let ok = match (kind, &result) {
            (SCAN, Ok(Some(r))) => {
                r.rows.len() == 1
                    && r.rows[0][0] == Value::Int(truth.scan.0)
                    && r.rows[0][1].as_int().ok() == Some(truth.scan.1)
            }
            (BINNING, Ok(Some(r))) => queries::check_query1_against(r, &truth.tag_counts).is_ok(),
            (LOOKUP, Ok(None)) => true,
            _ => false,
        };
        if !ok {
            eprintln!(
                "perf: scan-cold op kind {kind} on lane {lane} failed: {:?}",
                result.err()
            );
        }
        ok
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        let root = self.db.root().expect("disk-backed database");
        let stored = run::file_len(&root.join("seqdb.data"))
            + run::file_len(&root.join("seqdb.wal"))
            + self.db.filestream().total_bytes().unwrap_or(0);
        stored as f64 / self.user_bytes as f64
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s) = run::repeated_setup(cfg, |rep| setup(cfg, rep));
    run::print_conditions(cfg, "scan-cold", state.heap_bytes);
    if !cfg.trace {
        let client = ScanClient::new(&state, cfg);
        let result = closed_loop(vec![client], &Stop::After(cfg.window()), |c, i| {
            c.untraced_op(&state, i)
        });
        run::report_end_to_end(
            &mut out,
            setup_s,
            &result,
            state.stored_bytes_per_user_byte(),
        );
        return out;
    }

    let mut client = ScanClient::new(&state, cfg);
    client.traced = Some((SpanLog::new(std::time::Instant::now()), ExecAcc::default()));
    let (mut traced, moved) =
        run::traced_pass(cfg, vec![client], COUNTED_OPS, state.db.pool(), |c, i| {
            c.traced_op(&state, i)
        });
    let replay = closed_loop(
        vec![ScanClient::new(&state, cfg)],
        &Stop::Ops(traced.ops_per_client()),
        |c, i| c.untraced_op(&state, i),
    );
    run::report_traced(&mut out, &traced, &replay);
    run::report_op_medians(&mut out, &replay, &OP_NAMES);
    let (log, acc) = traced
        .clients
        .pop()
        .and_then(|c| c.traced)
        .expect("one traced client");
    let logs = [log];
    layers::report_spans(&mut out, &logs, &acc, traced.attempted());
    layers::report_counters(&mut out, &moved, COUNTED_OPS, state.user_bytes);
    layers::print_breakdown(&logs, &traced.samples, &OP_NAMES);
    run::write_trace(cfg, "scan-cold", &logs);

    let lane0 = state.db.catalog().table("Read_l0").expect("lane table");
    layers::probe_storage(
        &mut out,
        state.db.pool(),
        &lane0,
        &state.keyed,
        state.key_seqs.len() as u64,
        cfg.seed,
        256,
    );
    run::finish_traced(&mut out);
    out
}
