//! `wire-oltp`: short statements over the wire server, `nproc` closed-loop
//! connections, a seeded mix of point lookups, 500-row fetches, inserts
//! and counts on a warm in-memory `Read`-shaped table.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdb_bio::reference::ReferenceGenome;
use seqdb_bio::simulate::{LaneConfig, ReadSimulator};
use seqdb_core::udx::DB_QUAL_ENCODING;
use seqdb_engine::{Database, QueryResult, Session};
use seqdb_perf::layers::{self, ExecAcc};
use seqdb_perf::measure::{closed_loop, median_nanos, timed, total_nanos_of, SpanLog, Stop};
use seqdb_perf::run::{self, RunConfig};
use seqdb_perf::spec::Outcome;
use seqdb_server::{Client, Server, ServerConfig};
use seqdb_sql::DatabaseSqlExt;
use seqdb_types::{Result, Row, Value};

const OP_NAMES: [&str; 4] = [
    "op.point.p50_ms",
    "op.fetch500.p50_ms",
    "op.insert.p50_ms",
    "op.count.p50_ms",
];
const POINT: u8 = 0;
const FETCH: u8 = 1;
const INSERT: u8 = 2;
const COUNT: u8 = 3;
/// Rows sharing one value of the non-unique index key at load time.
const ROWS_PER_TILE: usize = 500;
/// Ops per client of the traced pass whose counter movement is reported.
const COUNTED_OPS: u64 = 100;
/// Ids of in-process replays of an INSERT start here, clear of the ids
/// the wire inserts use.
const REPLAY_ID_BASE: i64 = 1_000_000_000;

const DDL: &str = "CREATE TABLE Read (
    r_id INT NOT NULL PRIMARY KEY,
    r_e_id INT NOT NULL, r_sg_id INT NOT NULL, r_s_id INT NOT NULL, r_l_id INT NOT NULL,
    tile INT NOT NULL, x INT NOT NULL, y INT NOT NULL,
    short_read_seq VARCHAR(512) NOT NULL,
    quals VARCHAR(512) NOT NULL)";

struct State {
    db: Arc<Database>,
    server: Option<Server>,
    addr: SocketAddr,
    /// `short_read_seq` of the loaded row with `r_id = i + 1`.
    seqs: Vec<Arc<str>>,
    n_tiles: usize,
    user_bytes: u64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.drain() {
                eprintln!("perf: server drain failed: {e}");
            }
        }
    }
}

fn setup(cfg: &RunConfig, _rep: usize) -> State {
    let n_rows = cfg.scale(12_000, 2_000);
    let n_tiles = n_rows / ROWS_PER_TILE;
    let reference = ReferenceGenome::synthetic(cfg.seed, 4, 100_000);
    let mut sim = ReadSimulator::new(LaneConfig::default(), cfg.seed ^ 0x0171);
    let db = Database::in_memory();
    db.execute_sql(DDL).expect("Read table creates");
    db.execute_sql("CREATE INDEX ix_Read_tile ON Read (tile)")
        .expect("tile index creates");
    let table = db.catalog().table("Read").expect("Read table");
    let mut seqs = Vec::with_capacity(n_rows);
    let mut user_bytes = 0;
    for i in 0..n_rows {
        let read = sim.next_read(&reference).record;
        user_bytes += run::fastq_bytes(&read);
        let seq: Arc<str> = Arc::from(read.seq.as_str());
        table
            .insert(&Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int((i % n_tiles) as i64),
                Value::Int((i * 31 % 2048) as i64),
                Value::Int((i * 17 % 2048) as i64),
                Value::Text(seq.clone()),
                Value::text(DB_QUAL_ENCODING.encode(&read.quals)),
            ]))
            .expect("row loads");
        seqs.push(seq);
    }
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts on a free local port");
    let state = State {
        addr: server.addr(),
        server: Some(server),
        db,
        seqs,
        n_tiles,
        user_bytes,
    };
    // Warm-up: one connection, a few dozen checked statements that leave
    // the table as loaded (the warm-up client owns no tile, so it issues
    // no insert).
    let mut warm = WireClient::connect(&state, cfg, usize::MAX);
    for i in 0..40 {
        let op = warm.next_op(&state);
        let (result, _) = timed(|| warm.client.query(&op.sql));
        assert!(
            warm.check(&state, &op, result),
            "warm-up statement {i} returned a wrong result"
        );
    }
    state
}

/// One generated statement and what it must return.
#[derive(Debug, Clone, PartialEq)]
struct WireOp {
    kind: u8,
    sql: String,
    /// POINT: the id; FETCH/COUNT/INSERT: the tile.
    key: i64,
}

struct WireClient {
    client: Client,
    rng: StdRng,
    /// This client's own tiles: the only ones it fetches, counts and
    /// inserts into, so the expected counts need no cross-client state.
    tiles: Vec<i64>,
    /// Rows this client has added to each of its tiles.
    added: Vec<u64>,
    next_id: i64,
    id_step: i64,
    traced: Option<Traced>,
}

struct Traced {
    session: Session,
    log: SpanLog,
    acc: ExecAcc,
    replay_id: i64,
}

/// The seeded op sequence of one client: the mix is 70 % point lookup,
/// 15 % fetch of one tile, 10 % insert, 5 % count of one tile; keys are
/// uniform. A client without tiles of its own draws lookups only.
fn draw_op(rng: &mut StdRng, n_rows: usize, tiles: &[i64], next_id: i64) -> WireOp {
    let roll = rng.gen_range(0..100u32);
    if roll < 70 || tiles.is_empty() {
        let id = rng.gen_range(1..=n_rows as i64);
        return WireOp {
            kind: POINT,
            sql: format!("SELECT r_id, tile, short_read_seq FROM Read WHERE r_id = {id}"),
            key: id,
        };
    }
    let tile = tiles[rng.gen_range(0..tiles.len())];
    if roll < 85 {
        WireOp {
            kind: FETCH,
            sql: format!("SELECT r_id, x, y, short_read_seq FROM Read WHERE tile = {tile}"),
            key: tile,
        }
    } else if roll < 95 {
        WireOp {
            kind: INSERT,
            sql: insert_sql(next_id, tile),
            key: tile,
        }
    } else {
        WireOp {
            kind: COUNT,
            sql: format!("SELECT COUNT(*) FROM Read WHERE tile = {tile}"),
            key: tile,
        }
    }
}

fn insert_sql(id: i64, tile: i64) -> String {
    format!(
        "INSERT INTO Read VALUES ({id}, 1, 1, 1, 1, {tile}, {}, {}, \
         'ACGTACGTACGTACGTACGTACGTACGTACGTACGT', 'IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII')",
        id % 2048,
        id % 1021
    )
}

impl WireClient {
    fn connect(state: &State, cfg: &RunConfig, idx: usize) -> WireClient {
        let tiles: Vec<i64> = (0..state.n_tiles)
            .filter(|t| t % cfg.clients == idx)
            .map(|t| t as i64)
            .collect();
        WireClient {
            client: Client::connect(state.addr).expect("client connects"),
            rng: StdRng::seed_from_u64(
                cfg.seed ^ (idx as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9),
            ),
            added: vec![0; tiles.len()],
            tiles,
            next_id: state.seqs.len() as i64 + 1 + idx as i64,
            id_step: cfg.clients as i64,
            traced: None,
        }
    }

    fn next_op(&mut self, state: &State) -> WireOp {
        let op = draw_op(&mut self.rng, state.seqs.len(), &self.tiles, self.next_id);
        if op.kind == INSERT {
            self.next_id += self.id_step;
        }
        op
    }

    fn added_mut(&mut self, tile: i64) -> &mut u64 {
        let at = self
            .tiles
            .iter()
            .position(|t| *t == tile)
            .expect("ops only name the client's own tiles");
        &mut self.added[at]
    }

    /// Check a statement's result against the generated rows and the
    /// inserts this client has made, and fold an insert into the model.
    fn check(&mut self, state: &State, op: &WireOp, result: Result<QueryResult>) -> bool {
        let ok = match (&result, op.kind) {
            (Ok(r), POINT) => {
                r.rows.len() == 1
                    && r.rows[0][0] == Value::Int(op.key)
                    && r.rows[0][1] == Value::Int((op.key - 1) % state.n_tiles as i64)
                    && r.rows[0][2].as_text().ok() == Some(&*state.seqs[op.key as usize - 1])
            }
            (Ok(r), FETCH) => r.rows.len() as u64 == ROWS_PER_TILE as u64 + *self.added_mut(op.key),
            (Ok(r), INSERT) => {
                *self.added_mut(op.key) += r.affected;
                r.affected == 1
            }
            (Ok(r), COUNT) => {
                r.rows.len() == 1
                    && r.rows[0][0]
                        == Value::Int(ROWS_PER_TILE as i64 + *self.added_mut(op.key) as i64)
            }
            _ => false,
        };
        if !ok {
            eprintln!("perf: wire-oltp `{}` failed: {:?}", op.sql, result.err());
        }
        ok
    }

    fn untraced_op(&mut self, state: &State) -> (u8, Duration, bool) {
        let op = self.next_op(state);
        let (result, took) = timed(|| self.client.query(&op.sql));
        (op.kind, took, self.check(state, &op, result))
    }

    /// The traced form: the statement over the wire, then the same
    /// statement stepwise on an in-process session, so the wire's share
    /// is the difference. An INSERT is replayed under an id of its own.
    fn traced_op(&mut self, state: &State, i: u64) -> (u8, Duration, bool) {
        let op = self.next_op(state);
        let mut t = self.traced.take().expect("traced client");
        t.log.set_op(i);
        let client = &mut self.client;
        let (result, took) = timed(|| {
            t.log.span("op", |log| {
                let wire = log.span("server.roundtrip", |_| client.query(&op.sql));
                let inproc = log.span("inproc", |log| {
                    if op.kind == INSERT {
                        t.replay_id += 1;
                        let sql = insert_sql(t.replay_id, op.key);
                        log.span("statement", |log| {
                            let stmt = log.span("sql.parse_dml", |_| seqdb_sql::parse(&sql))?;
                            log.span("engine.exec", |_| {
                                seqdb_sql::binder::execute_statement_on(&t.session, &stmt, &sql)
                            })
                            .map(|r| r.affected)
                        })
                    } else {
                        layers::traced_select(log, &state.db, &t.session, &op.sql, &mut t.acc)
                            .map(|r| r.rows.len() as u64)
                    }
                });
                (wire, inproc)
            })
        });
        self.traced = Some(t);
        let (wire, inproc) = result;
        // The replay must agree with the wire on how many rows there are.
        let agree = match (&wire, &inproc, op.kind) {
            (Ok(w), Ok(n), INSERT) => w.affected == *n,
            (Ok(w), Ok(n), _) => w.rows.len() as u64 == *n,
            _ => false,
        };
        let ok = self.check(state, &op, wire);
        if op.kind == INSERT && inproc.is_ok() {
            *self.added_mut(op.key) += 1;
        }
        (op.kind, took, ok && agree)
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s) = run::repeated_setup(cfg, |rep| setup(cfg, rep));
    let pool = state.db.pool().clone();
    let stored = pool.store().num_pages() * seqdb_storage::PAGE_SIZE as u64;
    let table = state.db.catalog().table("Read").expect("Read table");
    run::print_conditions(cfg, "wire-oltp", table.heap.allocated_bytes());
    let connect_all = || -> Vec<WireClient> {
        (0..cfg.clients)
            .map(|idx| WireClient::connect(&state, cfg, idx))
            .collect()
    };
    if !cfg.trace {
        let result = closed_loop(connect_all(), &Stop::After(cfg.window()), |c, _| {
            c.untraced_op(&state)
        });
        run::report_end_to_end(
            &mut out,
            setup_s,
            &result,
            stored as f64 / state.user_bytes as f64,
        );
        return out;
    }

    let connect = median_nanos(20, || {
        drop(Client::connect(state.addr).expect("client connects"));
    });
    out.set("server.connect_us", connect / 1e3);
    let origin = std::time::Instant::now();
    let mut clients = connect_all();
    for (idx, c) in clients.iter_mut().enumerate() {
        c.traced = Some(Traced {
            session: state.db.create_session(),
            log: SpanLog::new(origin),
            acc: ExecAcc::default(),
            replay_id: REPLAY_ID_BASE * (idx as i64 + 1),
        });
    }
    let (traced, moved) = run::traced_pass(cfg, clients, COUNTED_OPS, &pool, |c, i| {
        c.traced_op(&state, i)
    });
    // The replay draws the same op sequence from the same seeds; the
    // rows the traced pass added stay, so its clients carry the counts.
    let mut replay_clients = connect_all();
    for (fresh, old) in replay_clients.iter_mut().zip(&traced.clients) {
        fresh.added = old.added.clone();
        fresh.next_id = old.next_id;
    }
    let replay = closed_loop(
        replay_clients,
        &Stop::Ops(traced.ops_per_client()),
        |c, _| c.untraced_op(&state),
    );
    run::report_traced(&mut out, &traced, &replay);
    run::report_op_medians(&mut out, &replay, &OP_NAMES);

    let mut logs = Vec::new();
    let mut acc = ExecAcc::default();
    for c in traced.clients {
        let t = c.traced.expect("traced client");
        acc.merge(&t.acc);
        logs.push(t.log);
    }
    let ops = traced.samples.iter().map(|s| s.len() as u64).sum::<u64>();
    layers::report_spans(&mut out, &logs, &acc, ops);
    layers::report_counters(
        &mut out,
        &moved,
        COUNTED_OPS * cfg.clients as u64,
        state.user_bytes,
    );
    let per_op = |name: &str| total_nanos_of(&logs, name) as f64 / ops.max(1) as f64 / 1e3;
    out.set("server.roundtrip_us", per_op("server.roundtrip"));
    out.set(
        "server.wire_overhead_us",
        per_op("server.roundtrip") - per_op("inproc"),
    );
    layers::print_breakdown(&logs, &traced.samples, &OP_NAMES);
    run::write_trace(cfg, "wire-oltp", &logs);

    let fetched = state
        .db
        .query_sql("SELECT r_id, x, y, short_read_seq FROM Read WHERE tile = 0")
        .expect("fetch runs in process");
    layers::probe_protocol(&mut out, &fetched);
    layers::probe_storage(
        &mut out,
        &pool,
        &table,
        &table,
        state.seqs.len() as u64,
        cfg.seed,
        512,
    );
    run::finish_traced(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, n: usize) -> Vec<WireOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tiles = [0, 2, 4, 6];
        let mut next_id = 1000;
        (0..n)
            .map(|_| {
                let op = draw_op(&mut rng, 999, &tiles, next_id);
                if op.kind == INSERT {
                    next_id += 2;
                }
                op
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_op_sequence() {
        assert_eq!(sequence(7, 500), sequence(7, 500));
        assert_ne!(sequence(7, 500), sequence(8, 500));
    }

    #[test]
    fn the_mix_has_every_kind_in_its_share() {
        let ops = sequence(3, 4000);
        let share = |kind: u8| ops.iter().filter(|o| o.kind == kind).count() as f64 / 4000.0;
        assert!((share(POINT) - 0.70).abs() < 0.03);
        assert!((share(FETCH) - 0.15).abs() < 0.03);
        assert!((share(INSERT) - 0.10).abs() < 0.03);
        assert!((share(COUNT) - 0.05).abs() < 0.02);
    }
}
