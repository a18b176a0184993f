//! What every workload's run has in common: its configuration, the
//! repeated set-up, the end-to-end metrics of an untraced pass and the
//! bookkeeping of a traced one.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use seqdb_bio::fastq::FastqRecord;

use seqdb_storage::BufferPool;

use crate::measure::{
    closed_loop, median, ms, percentile, vm_hwm_mib, Counters, LoopResult, SpanLog, Stop,
};
use crate::spec::Outcome;

/// Cores the process may use: the harness's cap on load threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How often an untraced run sets up, to report the median set-up time.
pub const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data, for the smoke test.
    pub quick: bool,
    /// Load threads / connections: `nproc`, the most the harness uses.
    pub clients: usize,
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
    /// Where `trace-<workload>.jsonl` goes.
    pub trace_dir: PathBuf,
}

impl RunConfig {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The traced pass takes half the window; replaying its operations
    /// untraced (for the tracing overhead) takes the rest.
    pub fn traced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    /// `full` at benchmark scale, `quick` under `--quick`.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A fresh directory under the run's scratch space.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        dir
    }
}

/// Set up `SETUP_REPEATS` times (once under `--quick` or `--trace`,
/// whose runs do not report `setup_s`), keep the last state, and return
/// the median set-up time in seconds. Earlier states are dropped before
/// the next set-up starts, so they do not compete for memory.
pub fn repeated_setup<S>(cfg: &RunConfig, mut setup: impl FnMut(usize) -> S) -> (S, f64) {
    let repeats = if cfg.quick || cfg.trace {
        1
    } else {
        SETUP_REPEATS
    };
    let mut times = Vec::new();
    let mut state = None;
    for rep in 0..repeats {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&mut times))
}

/// The end-to-end metrics of an untraced pass. Throughput and the tail
/// are medians over groups of the window's ops ([`LoopResult::steady`]).
pub fn report_end_to_end<C>(
    out: &mut Outcome,
    setup_s: f64,
    run: &LoopResult<C>,
    stored_bytes_per_user_byte: f64,
) {
    let sorted = run.sorted_nanos(None);
    let steady = run.steady();
    let p = steady.tail_percentile;
    if p != 95 {
        eprintln!(
            "perf: only {} samples; op_p95_ms reports p{p}, the highest percentile with ten samples beyond it",
            sorted.len()
        );
    }
    eprintln!(
        "perf: {} ops in {:.3} s, {} failed; ops_per_s is the median of {} groups, p{p} of {} groups of {} samples",
        run.attempted(),
        run.wall.as_secs_f64(),
        run.failed(),
        steady.rate_groups,
        steady.tail_groups,
        sorted.len() / steady.tail_groups
    );
    out.attempted += run.attempted();
    out.failed += run.failed();
    out.set("setup_s", setup_s);
    out.set("ops_per_s", steady.ops_per_s);
    out.set("op_p50_ms", ms(percentile(&sorted, 50)));
    out.set("op_p95_ms", steady.tail_nanos / 1e6);
    out.set("peak_rss_mb", vm_hwm_mib());
    out.set("stored_bytes_per_user_byte", stored_bytes_per_user_byte);
}

/// `op.<kind>.p50_ms` for each op kind of a workload.
pub fn report_op_medians<C>(out: &mut Outcome, run: &LoopResult<C>, names: &[&'static str]) {
    for (kind, name) in names.iter().enumerate() {
        let sorted = run.sorted_nanos(Some(kind as u8));
        if !sorted.is_empty() {
            out.set(name, ms(percentile(&sorted, 50)));
        }
    }
}

/// The traced pass: every client first runs exactly `counted` ops, over
/// which the movement of the public counters is taken (so single-client
/// counts do not depend on speed), then keeps going until the traced
/// window closes. `op` gets the client's absolute op index.
pub fn traced_pass<C: Send>(
    cfg: &RunConfig,
    clients: Vec<C>,
    counted: u64,
    pool: &BufferPool,
    op: impl Fn(&mut C, u64) -> (u8, Duration, bool) + Sync,
) -> (LoopResult<C>, Counters) {
    let before = Counters::now(pool);
    let n = clients.len();
    let head = closed_loop(clients, &Stop::Ops(vec![counted; n]), &op);
    let moved = Counters::now(pool).since(&before);
    let rest = cfg.traced_window().saturating_sub(head.wall);
    let mut all = closed_loop(head.clients, &Stop::After(rest), |c, i| op(c, counted + i));
    let head_nanos = head.wall.as_nanos() as u64;
    for (samples, counted_samples) in all.samples.iter_mut().zip(head.samples) {
        for s in samples.iter_mut() {
            s.end_nanos += head_nanos;
        }
        samples.splice(0..0, counted_samples);
    }
    all.wall += head.wall;
    (all, moved)
}

/// The traced pass's closing numbers: failures, and throughput untraced
/// over traced on the same op prefix.
pub fn report_traced<C, D>(out: &mut Outcome, traced: &LoopResult<C>, replay: &LoopResult<D>) {
    out.attempted += traced.attempted() + replay.attempted();
    out.failed += traced.failed() + replay.failed();
    out.set(
        "trace_overhead_ratio",
        replay.ops_per_s() / traced.ops_per_s(),
    );
    eprintln!(
        "perf: traced {} ops in {:.3} s, replayed untraced in {:.3} s",
        traced.attempted(),
        traced.wall.as_secs_f64(),
        replay.wall.as_secs_f64()
    );
}

pub fn finish_traced(out: &mut Outcome) {
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

/// Write every client's spans to `trace-<workload>.jsonl`.
pub fn write_trace(cfg: &RunConfig, workload: &str, logs: &[SpanLog]) {
    let path = cfg.trace_dir.join(format!("trace-{workload}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&cfg.trace_dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (client, log) in logs.iter().enumerate() {
            log.write_jsonl(client, &mut f)?;
        }
        std::io::Write::flush(&mut f)
    };
    match write() {
        Ok(()) => eprintln!("perf: spans written to {}", path.display()),
        Err(e) => eprintln!("perf: could not write {}: {e}", path.display()),
    }
}

/// Bytes a read takes in a FASTQ file: four lines, `@` and `+` included.
pub fn fastq_bytes(r: &FastqRecord) -> u64 {
    (r.name.len() + 2 * r.seq.len() + 6) as u64
}

/// Size of a file, 0 when it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// State the engine settings every workload runs under, once per run.
pub fn print_conditions(cfg: &RunConfig, workload: &str, heap_bytes: u64) {
    let pool = (seqdb_storage::BufferPool::DEFAULT_CAPACITY * seqdb_storage::PAGE_SIZE) as u64;
    eprintln!(
        "perf: workload={workload} seed={} seconds={} trace={} clients={} nproc={} \
         flush_policy=engine-default(wal-commit-on-eviction-and-checkpoint,fsync-on) \
         pool_bytes={pool} heap_bytes={heap_bytes} heap_over_pool={:.2}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.clients,
        nproc(),
        heap_bytes as f64 / pool as f64
    );
}
