//! Measurement primitives shared by every workload: the closed-loop
//! runner, the latency recorder and its percentile rule, the span
//! recorder of the traced pass, counter snapshots and `VmHWM`.

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use seqdb_storage::{BufferPool, WaitClass};

/// One completed operation: its kind (an index into the workload's op
/// names), whether its result was correct, its latency, and when it
/// completed, counted from the start of its loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: u8,
    pub ok: bool,
    pub nanos: u64,
    pub end_nanos: u64,
}

/// The highest percentile, no higher than `want`, that still has at
/// least ten samples beyond it. Below twenty samples even the median
/// has fewer than ten on each side; the median is returned regardless.
pub fn supported_percentile(n: usize, want: u32) -> u32 {
    [99, 95, 90, 75, 50]
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
        .unwrap_or(50)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// When a closed loop stops issuing operations.
pub enum Stop {
    /// No client starts an operation after this much time.
    After(Duration),
    /// Client `i` runs exactly `ops[i]` operations (replaying a prefix).
    Ops(Vec<u64>),
}

/// A 95th percentile needs this many samples to have ten beyond it.
const TAIL_GROUP_MIN: usize = 200;
/// Enough operations for a rate that the slowest kind does not sway.
const RATE_GROUP_MIN: usize = 20;
const MAX_GROUPS: usize = 10;

/// Throughput and tail latency of a loop, each the median over
/// consecutive groups of its operations (see [`LoopResult::steady`]).
pub struct Steady {
    pub rate_groups: usize,
    pub ops_per_s: f64,
    pub tail_groups: usize,
    /// The percentile `tail_nanos` is: 95 with enough samples per group.
    pub tail_percentile: u32,
    pub tail_nanos: f64,
}

pub struct LoopResult<C> {
    pub clients: Vec<C>,
    /// Per client, in issue order.
    pub samples: Vec<Vec<Sample>>,
    /// Start of the loop to the last client finishing.
    pub wall: Duration,
}

impl<C> LoopResult<C> {
    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    pub fn ops_per_client(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.len() as u64).collect()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().flatten().filter(|s| !s.ok).count() as u64
    }

    /// Correct operations per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall.as_secs_f64()
    }

    /// The box's speed swings by a tenth or more for seconds at a time,
    /// so a whole-window rate or tail mostly reports how much of the
    /// window a swing covered. Instead the operations, in completion
    /// order, are cut into up to ten consecutive groups; each group gives
    /// correct operations per second over the time it spans, or its own
    /// 95th percentile, and the median over the groups is reported: what
    /// the program does while the box is in its usual state. A group
    /// holds at least 20 operations for the rate and 200 for the tail;
    /// with fewer there is one group, the whole loop.
    pub fn steady(&self) -> Steady {
        let mut all: Vec<Sample> = self.samples.iter().flatten().copied().collect();
        assert!(!all.is_empty(), "a loop ran no operation");
        all.sort_by_key(|s| s.end_nanos);
        let n = all.len();
        let count = |min: usize| (n / min).clamp(1, MAX_GROUPS);
        let cut = |groups: usize| (0..groups).map(move |g| g * n / groups..(g + 1) * n / groups);

        let rate_groups = count(RATE_GROUP_MIN);
        let mut from = 0;
        let mut rates: Vec<f64> = cut(rate_groups)
            .map(|range| {
                let until = all[range.end - 1].end_nanos;
                let correct = all[range].iter().filter(|s| s.ok).count();
                let rate = correct as f64 * 1e9 / (until - from) as f64;
                from = until;
                rate
            })
            .collect();

        let tail_groups = count(TAIL_GROUP_MIN);
        let tail_percentile = supported_percentile(n / tail_groups, 95);
        let mut tails: Vec<f64> = cut(tail_groups)
            .map(|range| {
                let mut latencies: Vec<u64> = all[range].iter().map(|s| s.nanos).collect();
                latencies.sort_unstable();
                percentile(&latencies, tail_percentile) as f64
            })
            .collect();
        Steady {
            rate_groups,
            ops_per_s: median(&mut rates),
            tail_groups,
            tail_percentile,
            tail_nanos: median(&mut tails),
        }
    }

    pub fn sorted_nanos(&self, kind: Option<u8>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .flatten()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.nanos)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Closed loop: every client issues its next operation when the previous
/// one returns, one thread per client. `op(client, i)` runs the client's
/// `i`-th operation and returns its kind, the latency it measured around
/// the call under test (result checking excluded) and whether the result
/// was correct.
pub fn closed_loop<C: Send>(
    clients: Vec<C>,
    stop: &Stop,
    op: impl Fn(&mut C, u64) -> (u8, Duration, bool) + Sync,
) -> LoopResult<C> {
    let start = Instant::now();
    let op = &op;
    let done: Vec<(C, Vec<Sample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(idx, mut client)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let go = match stop {
                            Stop::After(limit) => start.elapsed() < *limit,
                            Stop::Ops(ops) => (samples.len() as u64) < ops[idx],
                        };
                        if !go {
                            break;
                        }
                        let (kind, latency, ok) = op(&mut client, samples.len() as u64);
                        samples.push(Sample {
                            kind,
                            ok,
                            nanos: latency.as_nanos() as u64,
                            end_nanos: start.elapsed().as_nanos() as u64,
                        });
                    }
                    (client, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut out = LoopResult {
        clients: Vec::new(),
        samples: Vec::new(),
        wall,
    };
    for (client, samples) in done {
        out.clients.push(client);
        out.samples.push(samples);
    }
    out
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Median wall time of `f` over `repeats` calls, in nanoseconds.
pub fn median_nanos(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| timed(&mut f).1.as_nanos() as f64)
        .collect();
    median(&mut times)
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u64,
}

/// In-memory span recorder of one client. Spans nest by call structure:
/// `log.span("a", |log| log.span("b", ...))` makes `b` a child of `a`.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    enabled: bool,
}

impl SpanLog {
    /// All logs of one run share `origin`, so their spans line up.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            enabled: true,
        }
    }

    /// A log that records nothing: `span` just runs its closure. Lets an
    /// operation made of plain API calls share one body between the
    /// traced and the untraced pass.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::new(Instant::now())
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Open a span by hand, for callers whose log is a field of the
    /// struct the spanned code borrows. Every `enter` needs its `exit`.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON object per span, the trace file's line format.
    pub fn write_jsonl(&self, client: usize, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let own = self.self_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"client\":{client},\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        Ok(())
    }
}

/// Total self time per span name over several logs.
pub fn self_nanos_by_name(logs: &[SpanLog]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for log in logs {
        for (span, own) in log.spans.iter().zip(log.self_nanos()) {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += own,
                None => totals.push((span.name, own)),
            }
        }
    }
    totals
}

/// Total duration (children included) of the spans named `name`.
pub fn total_nanos_of(logs: &[SpanLog], name: &str) -> u64 {
    logs.iter()
        .flat_map(|l| &l.spans)
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The public counters the benchmark reads at op boundaries: one pool's
/// statistics plus the process-global storage, wait and engine
/// registries. All are monotonic; [`Counters::since`] gives the movement
/// over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub fs_bytes_written: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    pub buffer_io_nanos: u64,
    pub admission_wait_nanos: u64,
    pub admission_waits: u64,
    pub batch_rows: u64,
    pub batch_fallback_rows: u64,
}

impl Counters {
    pub fn now(pool: &BufferPool) -> Counters {
        let s = seqdb_storage::storage_counters();
        let w = seqdb_storage::waits();
        let e = seqdb_engine::engine_counters();
        Counters {
            hits: pool.stats.hits.load(Relaxed),
            misses: pool.stats.misses.load(Relaxed),
            evictions: pool.stats.evictions.load(Relaxed),
            writebacks: pool.stats.writebacks.load(Relaxed),
            wal_records: s.wal_records.load(Relaxed),
            wal_bytes: s.wal_bytes.load(Relaxed),
            wal_fsyncs: s.wal_fsyncs.load(Relaxed),
            fs_bytes_written: s.filestream_bytes_written.load(Relaxed),
            spill_files: s.spill_files.load(Relaxed),
            spill_bytes: s.spill_bytes.load(Relaxed),
            buffer_io_nanos: w.total_nanos(WaitClass::BufferIo),
            admission_wait_nanos: w.total_nanos(WaitClass::Admission),
            admission_waits: e.admission_waits.load(Relaxed),
            batch_rows: e.batch_rows.load(Relaxed),
            batch_fallback_rows: e.batch_fallback_rows.load(Relaxed),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            wal_records: self.wal_records - earlier.wal_records,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            fs_bytes_written: self.fs_bytes_written - earlier.fs_bytes_written,
            spill_files: self.spill_files - earlier.spill_files,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
            buffer_io_nanos: self.buffer_io_nanos - earlier.buffer_io_nanos,
            admission_wait_nanos: self.admission_wait_nanos - earlier.admission_wait_nanos,
            admission_waits: self.admission_waits - earlier.admission_waits,
            batch_rows: self.batch_rows - earlier.batch_rows,
            batch_fallback_rows: self.batch_fallback_rows - earlier.batch_fallback_rows,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        let fetches = self.hits + self.misses;
        if fetches == 0 {
            1.0
        } else {
            self.hits as f64 / fetches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000, 95), 95);
        assert_eq!(supported_percentile(1000, 99), 99);
        assert_eq!(supported_percentile(999, 99), 95);
        assert_eq!(supported_percentile(200, 95), 95);
        assert_eq!(supported_percentile(199, 95), 90);
        assert_eq!(supported_percentile(100, 95), 90);
        assert_eq!(supported_percentile(99, 95), 75);
        assert_eq!(supported_percentile(40, 95), 75);
        assert_eq!(supported_percentile(39, 95), 50);
        assert_eq!(supported_percentile(3, 95), 50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50), 100);
        assert_eq!(percentile(&v, 95), 190);
        assert_eq!(percentile(&v, 100), 200);
        assert_eq!(percentile(&[7], 95), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn closed_loop_replays_exact_op_counts() {
        let r = closed_loop(vec![0u64, 0u64], &Stop::Ops(vec![5, 3]), |sum, i| {
            *sum += i;
            ((i % 2) as u8, Duration::from_nanos(10 + i), i != 4)
        });
        assert_eq!(r.ops_per_client(), vec![5, 3]);
        assert_eq!(r.clients, vec![10, 3]);
        assert_eq!(r.failed(), 1);
        assert_eq!(r.sorted_nanos(Some(1)), vec![11, 11, 13]);
    }

    #[test]
    fn steady_estimates_are_medians_over_groups() {
        // 400 back-to-back ops of 1 ms; ops 100..200 ran three times slower.
        let mut end = 0;
        let samples: Vec<Sample> = (0..400)
            .map(|i| {
                let nanos = if (100..200).contains(&i) {
                    3_000_000
                } else {
                    1_000_000
                };
                end += nanos;
                Sample {
                    kind: 0,
                    ok: true,
                    nanos,
                    end_nanos: end,
                }
            })
            .collect();
        let r = LoopResult {
            clients: vec![()],
            samples: vec![samples],
            wall: Duration::from_nanos(end),
        };
        let s = r.steady();
        assert_eq!(
            (s.rate_groups, s.tail_groups, s.tail_percentile),
            (10, 2, 95)
        );
        // The whole window gives 400 ops in 0.6 s; seven groups of ten ran
        // undisturbed at 1000 ops/s.
        assert!((r.ops_per_s() - 666.67).abs() < 0.01);
        assert!((s.ops_per_s - 1000.0).abs() < 1e-9);
        // The first tail group holds the slow stretch, the second does not.
        assert_eq!(s.tail_nanos, 2e6);
    }

    #[test]
    fn span_self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        log.set_op(7);
        log.span("outer", |log| {
            log.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let own = log.self_nanos();
        let outer = &log.spans[0];
        let inner = &log.spans[1];
        assert_eq!(inner.parent, 0);
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.op, 7);
        assert_eq!(
            own[0],
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(own[1] >= 2_000_000);
        let mut buf = Vec::new();
        log.write_jsonl(0, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
    }
}
