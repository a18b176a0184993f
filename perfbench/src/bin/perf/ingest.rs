//! `ingest-durable`: the storage layer used the other way round. A
//! disk-backed database ingests a fixed sequence of FASTQ lanes — rows
//! in chunks into a keyed `Read` table, the lane file as a FileStream
//! blob, then `CHECKPOINT` — and is finally dropped without a checkpoint,
//! reopened and checked against what was acknowledged.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_bio::fastq::{write_fastq_record, ChunkedFastqParser, FastqRecord, IoChunkSource};
use seqdb_bio::readname::ReadName;
use seqdb_bio::reference::ReferenceGenome;
use seqdb_bio::simulate::{LaneConfig, ReadSimulator};
use seqdb_core::udx::DB_QUAL_ENCODING;
use seqdb_core::{import, schema};
use seqdb_engine::{Database, Table};
use seqdb_perf::layers;
use seqdb_perf::measure::{
    closed_loop, ms, timed, total_nanos_of, Counters, LoopResult, Sample, SpanLog, Stop,
};
use seqdb_perf::run::{self, RunConfig};
use seqdb_perf::spec::Outcome;
use seqdb_sql::DatabaseSqlExt;
use seqdb_storage::BlobCheck;
use seqdb_types::{DbError, Result, Row, Value};

const OP_NAMES: [&str; 3] = ["op.chunk.p50_ms", "op.blob.p50_ms", "op.checkpoint.p50_ms"];
const CHUNK: u8 = 0;
const BLOB: u8 = 1;
const CHECKPOINT: u8 = 2;
/// Reads per chunk op. Small enough that the window holds several times the
/// two hundred samples a 95th percentile needs.
const CHUNK_READS: usize = 250;
const CHUNKS_PER_LANE: u64 = 4;
/// Chunks, the blob, the checkpoint.
const OPS_PER_LANE: u64 = CHUNKS_PER_LANE + 2;
/// Distinct lane files generated at set-up; the lane sequence wraps
/// around them if a run outlasts them.
const LANE_FILES: usize = 320;
/// Ops of the traced pass whose counter movement is reported: ten lanes,
/// two of them repeats.
const COUNTED_OPS: u64 = 10 * OPS_PER_LANE;

const READ_DDL: &str = "CREATE TABLE Read (
    r_id INT NOT NULL PRIMARY KEY,
    r_e_id INT NOT NULL, r_sg_id INT NOT NULL, r_s_id INT NOT NULL, r_l_id INT NOT NULL,
    tile INT NOT NULL, x INT NOT NULL, y INT NOT NULL,
    short_read_seq VARCHAR(512) NOT NULL,
    quals VARCHAR(512) NOT NULL)";

/// The lane files of one run; every database of the run ingests them in
/// the same order.
struct Lanes {
    files: Vec<PathBuf>,
}

impl Lanes {
    fn generate(cfg: &RunConfig, dir: &Path) -> Lanes {
        let reference = ReferenceGenome::synthetic(cfg.seed, 4, 200_000);
        let mut sim = ReadSimulator::new(LaneConfig::default(), cfg.seed ^ 0x1A9E);
        let reads_per_lane = CHUNK_READS * CHUNKS_PER_LANE as usize;
        let files = (0..cfg.scale(LANE_FILES, 6))
            .map(|n| {
                let path = dir.join(format!("lane_{n:03}.fastq"));
                let mut w = BufWriter::new(File::create(&path).expect("lane file creates"));
                for _ in 0..reads_per_lane {
                    let read = sim.next_read(&reference).record;
                    write_fastq_record(&mut w, &read, DB_QUAL_ENCODING).expect("lane file writes");
                }
                w.flush().expect("lane file flushes");
                path
            })
            .collect();
        Lanes { files }
    }

    /// One lane in four is a byte-identical repeat of the lane two
    /// before it; the others walk the distinct files.
    fn file_of(&self, lane: u64) -> &Path {
        let source = if is_repeat(lane) { lane - 2 } else { lane };
        let distinct = source - source / 4;
        &self.files[(distinct % self.files.len() as u64) as usize]
    }
}

fn is_repeat(lane: u64) -> bool {
    lane % 4 == 3
}

fn read_row(id: i64, lane: u64, rec: &FastqRecord) -> Result<Row> {
    let name = ReadName::parse(&rec.name)?;
    Ok(Row::new(vec![
        Value::Int(id),
        Value::Int(import::E_ID),
        Value::Int(import::SG_ID),
        Value::Int(import::S_ID),
        Value::Int(lane as i64),
        Value::Int(name.tile as i64),
        Value::Int(name.x as i64),
        Value::Int(name.y as i64),
        Value::text(&rec.seq),
        Value::text(DB_QUAL_ENCODING.encode(&rec.quals)),
    ]))
}

/// One database being ingested into, and what it has acknowledged.
struct Ingest {
    lanes: Arc<Lanes>,
    db: Arc<Database>,
    read: Arc<Table>,
    parser: Option<ChunkedFastqParser<IoChunkSource<File>>>,
    rows: u64,
    blobs: u64,
    /// Durable as of the last checkpoint.
    acked_rows: u64,
    acked_blobs: u64,
    user_bytes: u64,
    /// FileStream bytes written for repeated lanes within the counted ops.
    dup_bytes: u64,
    log: SpanLog,
}

impl Ingest {
    fn open(lanes: Arc<Lanes>, dir: &Path, log: SpanLog) -> Ingest {
        let db = Database::open(dir).expect("database opens");
        db.execute_sql(READ_DDL).expect("Read table creates");
        schema::create_filestream_schema(&db, "").expect("FileStream table creates");
        let read = db.catalog().table("Read").expect("Read table");
        Ingest {
            lanes,
            db,
            read,
            parser: None,
            rows: 0,
            blobs: 0,
            acked_rows: 0,
            acked_blobs: 0,
            user_bytes: 0,
            dup_bytes: 0,
            log,
        }
    }

    /// Parse the lane's next `CHUNK_READS` reads and insert them.
    fn chunk(&mut self, lane: u64) -> Result<()> {
        if self.parser.is_none() {
            let f = File::open(self.lanes.file_of(lane))?;
            self.parser = Some(ChunkedFastqParser::new(IoChunkSource(f)));
        }
        let parser = self.parser.as_mut().expect("parser just opened");
        self.log.enter("bio.fastq");
        let mut records = Vec::with_capacity(CHUNK_READS);
        let parsed = loop {
            match parser.next_record(DB_QUAL_ENCODING) {
                Ok(Some(r)) if records.len() + 1 < CHUNK_READS => records.push(r),
                Ok(Some(r)) => {
                    records.push(r);
                    break Ok(());
                }
                Ok(None) => {
                    break Err(DbError::InvalidData(format!(
                        "lane {lane} ended after {} reads of a chunk",
                        records.len()
                    )))
                }
                Err(e) => break Err(e),
            }
        };
        self.log.exit();
        parsed?;
        let first_id = self.rows as i64 + 1;
        self.log.enter("core.import");
        let inserted = records
            .iter()
            .enumerate()
            .try_for_each(|(k, rec)| self.read.insert(&read_row(first_id + k as i64, lane, rec)?));
        self.log.exit();
        inserted?;
        self.rows += CHUNK_READS as u64;
        self.user_bytes += records.iter().map(run::fastq_bytes).sum::<u64>();
        if self.read.row_count() != self.rows {
            return Err(DbError::Execution(format!(
                "Read holds {} rows after {} were inserted",
                self.read.row_count(),
                self.rows
            )));
        }
        Ok(())
    }

    fn blob(&mut self, lane: u64, counted: bool) -> Result<()> {
        self.parser = None;
        let lanes = self.lanes.clone();
        let path = lanes.file_of(lane);
        let before = Counters::now(self.db.pool());
        self.log.enter("storage.filestream");
        let imported = import::import_filestream(&self.db, "", path, import::S_ID, lane as i64);
        self.log.exit();
        imported?;
        self.blobs += 1;
        if counted && is_repeat(lane) {
            self.dup_bytes += Counters::now(self.db.pool())
                .since(&before)
                .fs_bytes_written;
        }
        let listed = self.db.catalog().table("ShortReadFiles")?.row_count();
        if listed != self.blobs {
            return Err(DbError::Execution(format!(
                "ShortReadFiles lists {listed} blobs after {} imports",
                self.blobs
            )));
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.log.enter("storage.checkpoint");
        let done = self.db.checkpoint();
        self.log.exit();
        done?;
        self.acked_rows = self.rows;
        self.acked_blobs = self.blobs;
        let wal = run::file_len(&self.root().join("seqdb.wal"));
        if wal != 0 {
            return Err(DbError::Execution(format!(
                "the log holds {wal} bytes after a checkpoint"
            )));
        }
        Ok(())
    }

    fn root(&self) -> PathBuf {
        self.db.root().expect("disk-backed database").to_path_buf()
    }

    /// Op `i` of the fixed sequence: lane `i / 6`, step `i % 6`.
    fn op(&mut self, i: u64) -> (u8, Duration, bool) {
        let (lane, step) = (i / OPS_PER_LANE, i % OPS_PER_LANE);
        let kind = match step {
            s if s < CHUNKS_PER_LANE => CHUNK,
            s if s == CHUNKS_PER_LANE => BLOB,
            _ => CHECKPOINT,
        };
        // Trace op ids count from the first timed op; lane 0 is warm-up.
        self.log.set_op(i.saturating_sub(OPS_PER_LANE));
        self.log.enter("op");
        let (result, took) = timed(|| match kind {
            CHUNK => self.chunk(lane),
            BLOB => self.blob(lane, i < COUNTED_OPS),
            _ => self.checkpoint(),
        });
        self.log.exit();
        if let Err(e) = &result {
            eprintln!("perf: ingest-durable op {i} (lane {lane}, step {step}) failed: {e}");
        }
        (kind, took, result.is_ok())
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        let root = self.root();
        let stored = run::file_len(&root.join("seqdb.data"))
            + run::file_len(&root.join("seqdb.wal"))
            + self.db.filestream().total_bytes().unwrap_or(0);
        stored as f64 / self.user_bytes.max(1) as f64
    }
}

/// A fresh database with lane 0 ingested and checkpointed as warm-up,
/// recording into `log` from then on.
fn open_warm(lanes: &Arc<Lanes>, dir: &Path, log: SpanLog) -> Ingest {
    let mut ingest = Ingest::open(lanes.clone(), dir, SpanLog::disabled());
    for i in 0..OPS_PER_LANE {
        let (_, _, ok) = ingest.op(i);
        assert!(ok, "warm-up op {i} failed");
    }
    ingest.log = log;
    ingest
}

/// Run the ops that complete the lane the window closed in, so the
/// database ends on a checkpoint and everything ingested is acknowledged.
/// The window stretches to take them in.
fn finish_lane(run: &mut LoopResult<Ingest>) {
    let mut i = run.samples[0].len() as u64;
    while !i.is_multiple_of(OPS_PER_LANE) {
        let (kind, took, ok) = run.clients[0].op(OPS_PER_LANE + i);
        run.wall += took;
        run.samples[0].push(Sample {
            kind,
            ok,
            nanos: took.as_nanos() as u64,
            end_nanos: run.wall.as_nanos() as u64,
        });
        i += 1;
    }
}

/// Insert one more chunk that no checkpoint covers, drop the handle,
/// reopen, and hold the database to what it acknowledged. Returns the
/// reopen time and the number of failed checks.
fn crash_and_verify(mut ingest: Ingest, ops_done: u64) -> (Duration, u64) {
    let tail_lane = ops_done / OPS_PER_LANE;
    let mut failed = u64::from(ingest.chunk(tail_lane).is_err());
    let (acked_rows, acked_blobs, rows) = (ingest.acked_rows, ingest.acked_blobs, ingest.rows);
    let root = ingest.root();
    drop(ingest);
    let (db, reopen) = timed(|| Database::open(&root));
    let db = match db {
        Ok(db) => db,
        Err(e) => {
            eprintln!("perf: ingest-durable reopen failed: {e}");
            return (reopen, failed + 1);
        }
    };
    let mut check = |what: &str, ok: bool| {
        if !ok {
            eprintln!("perf: ingest-durable after reopen: {what}");
            failed += 1;
        }
    };
    let count = |sql: &str| {
        db.query_sql(sql)
            .ok()
            .and_then(|r| r.rows.first().and_then(|row| row[0].as_int().ok()))
            .unwrap_or(-1) as u64
    };
    let reopened_rows = count("SELECT COUNT(*) FROM Read");
    check(
        "acknowledged rows are missing or unacknowledged ones appeared twice",
        (acked_rows..=rows).contains(&reopened_rows),
    );
    check(
        "acknowledged blobs are not all listed",
        count("SELECT COUNT(*) FROM ShortReadFiles") == acked_blobs,
    );
    let names = db.filestream().blob_names().unwrap_or_default();
    check(
        "acknowledged blobs are not all stored",
        names.len() as u64 >= acked_blobs,
    );
    for name in &names {
        check(
            "a blob does not match its checksum",
            matches!(db.filestream().verify_blob(name), Ok(BlobCheck::Ok)),
        );
    }
    eprintln!(
        "perf: reopened in {:.3} s: {reopened_rows} rows ({acked_rows} acknowledged), {} blobs verified",
        reopen.as_secs_f64(),
        names.len()
    );
    (reopen, failed)
}

/// `core::import` alone: the chunk path on an in-memory database.
fn probe_import(out: &mut Outcome, lanes: &Lanes) {
    let db = Database::in_memory();
    db.execute_sql(READ_DDL).expect("Read table creates");
    let read = db.catalog().table("Read").expect("Read table");
    let f = File::open(lanes.file_of(0)).expect("lane file opens");
    let mut parser = ChunkedFastqParser::new(IoChunkSource(f));
    let mut rows = Vec::new();
    while let Some(rec) = parser.next_record(DB_QUAL_ENCODING).expect("lane parses") {
        rows.push(read_row(rows.len() as i64 + 1, 0, &rec).expect("row builds"));
    }
    let (_, took) = timed(|| {
        for row in &rows {
            read.insert(row).expect("row inserts");
        }
    });
    out.set(
        "core.import.rows_per_s",
        rows.len() as f64 / took.as_secs_f64(),
    );
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is the lane files plus a database with its schema and one
    // warm-up lane ingested and checkpointed.
    let ((dir, lanes, ingest), setup_s) = run::repeated_setup(cfg, |rep| {
        let dir = cfg.fresh_dir(&format!("ingest-{rep}"));
        let lanes = Arc::new(Lanes::generate(cfg, &dir));
        let ingest = open_warm(&lanes, &dir.join("db"), SpanLog::disabled());
        (dir, lanes, ingest)
    });
    run::print_conditions(cfg, "ingest-durable", ingest.read.heap.allocated_bytes());
    // The timed sequence starts at lane 1: lane 0 was the warm-up.
    let first = OPS_PER_LANE;
    if !cfg.trace {
        let mut result = closed_loop(vec![ingest], &Stop::After(cfg.window()), |c, i| {
            c.op(first + i)
        });
        finish_lane(&mut result);
        let ingest = result.clients.pop().expect("one client");
        let stored = ingest.stored_bytes_per_user_byte();
        run::report_end_to_end(&mut out, setup_s, &result, stored);
        let (_, failed) = crash_and_verify(ingest, first + result.attempted());
        out.attempted += 1;
        out.failed += failed;
        return out;
    }

    let mut ingest = ingest;
    ingest.log = SpanLog::new(Instant::now());
    let pool = ingest.db.pool().clone();
    let (mut traced, moved) = run::traced_pass(cfg, vec![ingest], COUNTED_OPS, &pool, |c, i| {
        c.op(first + i)
    });
    drop(pool);
    finish_lane(&mut traced);
    let mut ingest = traced.clients.pop().expect("one client");
    let logs = [std::mem::replace(&mut ingest.log, SpanLog::disabled())];
    let (user_bytes, dup_bytes) = (ingest.user_bytes, ingest.dup_bytes);
    let (reopen, failed) = crash_and_verify(ingest, first + traced.attempted());
    out.attempted += 1;
    out.failed += failed;
    out.set("reopen_s", reopen.as_secs_f64());
    out.set("storage.wal.replay_ms", reopen.as_secs_f64() * 1e3);

    // The same ops untraced on a fresh database, for the tracing overhead
    // and the per-kind latencies.
    let fresh = open_warm(&lanes, &dir.join("replay"), SpanLog::disabled());
    let replay = closed_loop(vec![fresh], &Stop::Ops(traced.ops_per_client()), |c, i| {
        c.op(first + i)
    });
    run::report_traced(&mut out, &traced, &replay);
    run::report_op_medians(&mut out, &replay, &OP_NAMES);
    let ops = traced.attempted();
    layers::report_spans(&mut out, &logs, &layers::ExecAcc::default(), ops);
    // Bytes of user data the counted ops brought in: ten lanes.
    let counted_user_bytes = user_bytes * COUNTED_OPS / ops.max(1);
    layers::report_counters(&mut out, &moved, COUNTED_OPS, counted_user_bytes);
    out.set("storage.filestream.dup_bytes_written", dup_bytes as f64);
    let checkpoints = traced.sorted_nanos(Some(CHECKPOINT));
    let checkpoint_ops = checkpoints.len().max(1) as f64;
    out.set(
        "storage.checkpoint.ms",
        total_nanos_of(&logs, "storage.checkpoint") as f64 / 1e6 / checkpoint_ops,
    );
    // The slowest chunk that directly follows a checkpoint.
    let stall = replay.samples[0]
        .iter()
        .step_by(OPS_PER_LANE as usize)
        .map(|s| s.nanos)
        .max()
        .unwrap_or(0);
    out.set("storage.checkpoint.stall_ms", ms(stall));
    layers::print_breakdown(&logs, &traced.samples, &OP_NAMES);
    run::write_trace(cfg, "ingest-durable", &logs);

    let replayed = &replay.clients[0];
    layers::probe_filestream(&mut out, replayed.db.filestream(), lanes.file_of(0));
    layers::probe_fastq(&mut out, lanes.file_of(0));
    layers::probe_storage(
        &mut out,
        replayed.db.pool(),
        &replayed.read,
        &replayed.read,
        replayed.rows,
        cfg.seed,
        256,
    );
    probe_import(&mut out, &lanes);
    run::finish_traced(&mut out);
    out
}
