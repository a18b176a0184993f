//! Structured event tracing: lock-light per-thread ring buffers of
//! typed engine events.
//!
//! The paper's operational story (multi-hour genomics pipelines living
//! *inside* the database) needs the SQL Server answer to "what did the
//! engine just do?": Extended Events rings readable from a DMV, cheap
//! enough to leave on. seqdb's analogue:
//!
//! * a process-global [`Tracer`] with an **enabled-class bitmask** — the
//!   per-event cost while tracing is off is one relaxed atomic load, and
//!   detail strings are built lazily (closure) only when the class is on;
//! * **per-thread ring buffers**: each emitting thread appends to its own
//!   bounded ring behind an uncontended mutex, so hot paths never fight
//!   over one global lock. When a thread exits (the wire server runs one
//!   worker thread per statement) its ring is *retired* into a shared
//!   bounded overflow ring so recent events survive the thread;
//! * `SET TRACE_EVENTS = 'STATEMENT,WAIT,...'` / `'ALL'` / `'OFF'`
//!   controls the mask from SQL (server-wide, like the admission knobs);
//! * [`DmOsRingBufferFn`] (`DM_OS_RING_BUFFER()`) snapshots every ring,
//!   merged and ordered by sequence number — the `sys.dm_os_ring_buffers`
//!   analogue;
//! * an optional **sink buffer** the wire server drains to a JSONL trace
//!   file and slow-statement log (events are copied there only while a
//!   sink is attached).
//!
//! Wait events are recorded at the *end* of the blocked interval with
//! their duration, so the begin time is derivable (`ts_us - wait_us`)
//! without paying for two events per wait.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_storage::{install_trace_hook, StorageEvent};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

use crate::dmv::{no_args, RowsCursor};
use crate::exec::ExecContext;
use crate::udx::{TableFunction, TvfCursor};

/// Classes of traced events, one bit each in the tracer mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Statement start/finish and slow-statement markers.
    Statement = 0,
    /// One engine wait (admission, buffer I/O, spill I/O, ...).
    Wait = 1,
    /// Spill-file creation in a temp space.
    Spill = 2,
    /// Admission-gate outcomes: queued, admitted, timed out, rejected.
    Admission = 3,
    /// `KILL` / session kills.
    Kill = 4,
    /// Objects fenced into (or released from) the quarantine.
    Quarantine = 5,
    /// Integrity-scrub pass lifecycle.
    Scrub = 6,
    /// Online-backup pass lifecycle.
    Backup = 7,
    /// Wire connection open/close and server drain.
    Connection = 8,
}

/// Every class, in rendering order.
pub const TRACE_CLASSES: [TraceClass; 9] = [
    TraceClass::Statement,
    TraceClass::Wait,
    TraceClass::Spill,
    TraceClass::Admission,
    TraceClass::Kill,
    TraceClass::Quarantine,
    TraceClass::Scrub,
    TraceClass::Backup,
    TraceClass::Connection,
];

/// Mask with every class enabled (`SET TRACE_EVENTS = 'ALL'`).
pub const MASK_ALL: u32 = (1 << TRACE_CLASSES.len()) - 1;

impl TraceClass {
    /// This class's bit in the tracer mask.
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The `class` string rendered by `DM_OS_RING_BUFFER()` and accepted
    /// by `SET TRACE_EVENTS`.
    pub fn name(self) -> &'static str {
        match self {
            TraceClass::Statement => "STATEMENT",
            TraceClass::Wait => "WAIT",
            TraceClass::Spill => "SPILL",
            TraceClass::Admission => "ADMISSION",
            TraceClass::Kill => "KILL",
            TraceClass::Quarantine => "QUARANTINE",
            TraceClass::Scrub => "SCRUB",
            TraceClass::Backup => "BACKUP",
            TraceClass::Connection => "CONNECTION",
        }
    }

    fn from_name(s: &str) -> Option<TraceClass> {
        TRACE_CLASSES
            .iter()
            .copied()
            .find(|c| c.name().eq_ignore_ascii_case(s))
    }
}

/// Parse a `SET TRACE_EVENTS` value: `'ALL'`, `'OFF'`, or a
/// comma-separated class list (`'STATEMENT, WAIT, KILL'`).
pub fn parse_mask(s: &str) -> Result<u32> {
    let t = s.trim();
    if t.eq_ignore_ascii_case("all") {
        return Ok(MASK_ALL);
    }
    if t.eq_ignore_ascii_case("off") || t.is_empty() {
        return Ok(0);
    }
    let mut mask = 0u32;
    for part in t.split(',') {
        let part = part.trim();
        match TraceClass::from_name(part) {
            Some(c) => mask |= c.bit(),
            None => {
                return Err(DbError::Unsupported(format!(
                    "SET TRACE_EVENTS: unknown event class '{part}' \
                     (want ALL, OFF, or a list of {})",
                    TRACE_CLASSES
                        .iter()
                        .map(|c| c.name())
                        .collect::<Vec<_>>()
                        .join("/")
                )))
            }
        }
    }
    Ok(mask)
}

/// One traced event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Process-wide monotonic sequence number (the merge order).
    pub seq: u64,
    /// Microseconds since process start (see [`process_start`]).
    pub ts_us: u64,
    pub class: TraceClass,
    /// Event kind within the class (`statement_finish`, `wait`, ...).
    pub name: &'static str,
    /// Owning session, 0 when not statement-scoped.
    pub session_id: u64,
    /// Owning statement, 0 when not statement-scoped.
    pub statement_id: i64,
    /// Small `key=value` payload; built lazily, only when the class is on.
    pub detail: String,
}

impl TraceEvent {
    /// Render as one JSON line for the server-side trace file. Wall-clock
    /// time is reconstructed from the process-start epoch.
    pub fn to_json(&self, start_unix_ms: u64) -> String {
        format!(
            "{{\"seq\":{},\"ts_ms\":{},\"class\":\"{}\",\"event\":\"{}\",\
             \"session\":{},\"statement\":{},\"detail\":\"{}\"}}",
            self.seq,
            start_unix_ms + self.ts_us / 1000,
            self.class.name(),
            self.name,
            self.session_id,
            self.statement_id,
            json_escape(&self.detail),
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Events kept per emitting thread before the oldest is dropped.
const RING_CAPACITY: usize = 512;
/// Events kept in the shared retired ring (rings of exited threads).
const RETIRED_CAPACITY: usize = 8192;
/// Events buffered for the server sink before the oldest is dropped.
const SINK_CAPACITY: usize = 65536;

struct ThreadRing {
    buf: Mutex<std::collections::VecDeque<TraceEvent>>,
}

impl ThreadRing {
    fn new() -> Arc<ThreadRing> {
        Arc::new(ThreadRing {
            buf: Mutex::new(std::collections::VecDeque::with_capacity(16)),
        })
    }
}

/// The process-global tracer. Obtain via [`tracer`].
pub struct Tracer {
    mask: AtomicU32,
    seq: AtomicU64,
    /// Events lost to ring/sink overflow (the honesty counter).
    dropped: AtomicU64,
    epoch: Instant,
    start_unix_ms: u64,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    retired: Mutex<std::collections::VecDeque<TraceEvent>>,
    sink_attached: AtomicBool,
    sink: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// Is `class` currently traced? One relaxed load — the entire cost
    /// of a disabled trace point.
    #[inline]
    pub fn enabled(&self, class: TraceClass) -> bool {
        self.mask.load(Ordering::Relaxed) & class.bit() != 0
    }

    /// Replace the enabled-class mask (`SET TRACE_EVENTS`).
    pub fn set_mask(&self, mask: u32) {
        self.mask.store(mask & MASK_ALL, Ordering::Relaxed);
    }

    /// The current enabled-class mask.
    pub fn mask(&self) -> u32 {
        self.mask.load(Ordering::Relaxed)
    }

    /// Emit one event if `class` is enabled. `detail` runs only when it
    /// is, so callers can interpolate freely.
    #[inline]
    pub fn emit(
        &self,
        class: TraceClass,
        name: &'static str,
        session_id: u64,
        statement_id: i64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled(class) {
            return;
        }
        self.emit_always(class, name, session_id, statement_id, detail());
    }

    /// Emit one event regardless of the mask — the slow-statement log
    /// (`SET SLOW_QUERY_MS`) must fire even with `TRACE_EVENTS = 'OFF'`.
    pub fn emit_always(
        &self,
        class: TraceClass,
        name: &'static str,
        session_id: u64,
        statement_id: i64,
        detail: String,
    ) {
        let ev = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.epoch.elapsed().as_micros() as u64,
            class,
            name,
            session_id,
            statement_id,
            detail,
        };
        if self.sink_attached.load(Ordering::Relaxed) {
            let mut sink = self.sink.lock();
            if sink.len() < SINK_CAPACITY {
                sink.push(ev.clone());
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        RING.with(|handle| {
            let mut buf = handle.ring.buf.lock();
            if buf.len() >= RING_CAPACITY {
                buf.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            buf.push_back(ev);
        });
    }

    /// Point-in-time view of every ring (live threads + retired), merged
    /// and ordered by sequence number. Non-destructive: the rings keep
    /// their events, like `sys.dm_os_ring_buffers`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.retired.lock().iter().cloned().collect();
        for ring in self.rings.lock().iter() {
            out.extend(ring.buf.lock().iter().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events lost to ring or sink overflow since the last [`clear`].
    ///
    /// [`clear`]: Tracer::clear
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop every buffered event (benchmarks isolate phases with this).
    pub fn clear(&self) {
        for ring in self.rings.lock().iter() {
            ring.buf.lock().clear();
        }
        self.retired.lock().clear();
        self.sink.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Attach/detach the sink buffer: while attached, every emitted
    /// event is also copied for [`drain_sink`] (the server's JSONL trace
    /// file consumes from there without racing the DMV snapshot).
    ///
    /// [`drain_sink`]: Tracer::drain_sink
    pub fn attach_sink(&self, on: bool) {
        self.sink_attached.store(on, Ordering::Relaxed);
        if !on {
            self.sink.lock().clear();
        }
    }

    /// Take everything buffered for the sink since the last drain.
    pub fn drain_sink(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.sink.lock())
    }

    /// Wall-clock milliseconds since the Unix epoch at process start
    /// (well, at first tracer access — nanoseconds into `main`).
    pub fn start_unix_ms(&self) -> u64 {
        self.start_unix_ms
    }

    /// Milliseconds this process has been up.
    pub fn uptime_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn register_ring(&self, ring: &Arc<ThreadRing>) {
        self.rings.lock().push(ring.clone());
    }

    /// Move an exiting thread's events into the shared retired ring and
    /// forget its per-thread ring.
    fn retire_ring(&self, ring: &Arc<ThreadRing>) {
        let events: Vec<TraceEvent> = ring.buf.lock().drain(..).collect();
        self.rings.lock().retain(|r| !Arc::ptr_eq(r, ring));
        let mut retired = self.retired.lock();
        for ev in events {
            if retired.len() >= RETIRED_CAPACITY {
                retired.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            retired.push_back(ev);
        }
    }
}

struct RingHandle {
    ring: Arc<ThreadRing>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        tracer().retire_ring(&self.ring);
    }
}

thread_local! {
    static RING: RingHandle = {
        let ring = ThreadRing::new();
        tracer().register_ring(&ring);
        RingHandle { ring }
    };
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer (created, with its storage hook, on first
/// access).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        // Forward storage-layer waits and spills into the tracer. The
        // hook is a plain fn pointer, installed once for the process.
        install_trace_hook(storage_hook);
        Tracer {
            mask: AtomicU32::new(0),
            seq: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            start_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            rings: Mutex::new(Vec::new()),
            retired: Mutex::new(std::collections::VecDeque::new()),
            sink_attached: AtomicBool::new(false),
            sink: Mutex::new(Vec::new()),
        }
    })
}

/// `(uptime_ms, process_start_unix_ms)` for the performance-counter
/// gauges: rates can be computed from one DMV snapshot instead of two.
pub fn process_clock() -> (u64, u64) {
    let t = tracer();
    (t.uptime_ms(), t.start_unix_ms())
}

/// Waits shorter than this never become trace events. Spill writes
/// record a wait per buffered `write_all` — almost always sub-floor —
/// so without a floor a single spilling statement floods its ring with
/// thousands of micro-waits and evicts everything else. The aggregate
/// `DM_OS_WAIT_STATS()` numbers still include every wait; only the
/// per-event trace is thresholded.
pub const WAIT_TRACE_FLOOR_NANOS: u64 = 50_000;

fn storage_hook(event: &StorageEvent) {
    let t = tracer();
    match *event {
        StorageEvent::Wait { class, nanos } => {
            if nanos < WAIT_TRACE_FLOOR_NANOS {
                return;
            }
            t.emit(TraceClass::Wait, "wait", 0, 0, || {
                format!("class={} wait_us={}", class.name(), nanos / 1000)
            });
        }
        StorageEvent::SpillFile { class } => {
            t.emit(TraceClass::Spill, "spill_file", 0, 0, || {
                format!("class={}", class.name())
            });
        }
    }
}

/// Emit through the global tracer (the call-site convenience).
#[inline]
pub fn emit(
    class: TraceClass,
    name: &'static str,
    session_id: u64,
    statement_id: i64,
    detail: impl FnOnce() -> String,
) {
    tracer().emit(class, name, session_id, statement_id, detail);
}

// ---------------------------------------------------------------------
// DM_OS_RING_BUFFER() — the drained-ring DMV
// ---------------------------------------------------------------------

/// `SELECT * FROM DM_OS_RING_BUFFER()` — every buffered trace event,
/// ordered by sequence number. Non-destructive; bounded by the ring
/// capacities, with overflow counted in the `trace_events_dropped`
/// performance counter.
pub struct DmOsRingBufferFn;

impl TableFunction for DmOsRingBufferFn {
    fn name(&self) -> &str {
        "DM_OS_RING_BUFFER"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("seq", DataType::Int).not_null(),
            Column::new("ts_us", DataType::Int).not_null(),
            Column::new("class", DataType::Text).not_null(),
            Column::new("event", DataType::Text).not_null(),
            Column::new("session_id", DataType::Int).not_null(),
            Column::new("statement_id", DataType::Int).not_null(),
            Column::new("detail", DataType::Text).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let rows: Vec<Row> = tracer()
            .snapshot()
            .into_iter()
            .map(|e| {
                Row::new(vec![
                    Value::Int(e.seq as i64),
                    Value::Int(e.ts_us as i64),
                    Value::text(e.class.name()),
                    Value::text(e.name),
                    Value::Int(e.session_id as i64),
                    Value::Int(e.statement_id),
                    Value::text(e.detail),
                ])
            })
            .collect();
        Ok(RowsCursor::boxed(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracer state is process-global; tests that mutate the mask share
    /// one lock so they do not observe each other's classes.
    static MASK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn mask_parses_all_off_and_lists() {
        assert_eq!(parse_mask("ALL").unwrap(), MASK_ALL);
        assert_eq!(parse_mask("all").unwrap(), MASK_ALL);
        assert_eq!(parse_mask("OFF").unwrap(), 0);
        assert_eq!(parse_mask("").unwrap(), 0);
        let m = parse_mask("statement, WAIT ,Kill").unwrap();
        assert_eq!(
            m,
            TraceClass::Statement.bit() | TraceClass::Wait.bit() | TraceClass::Kill.bit()
        );
        let err = parse_mask("STATEMENT,NOPE").unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)), "{err}");
    }

    #[test]
    fn disabled_classes_cost_no_event_and_no_detail() {
        let _g = MASK_LOCK.lock();
        let t = tracer();
        t.set_mask(0);
        t.clear();
        let mut built = false;
        t.emit(TraceClass::Statement, "x", 1, 1, || {
            built = true;
            String::new()
        });
        assert!(!built, "detail closure must not run when the class is off");
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn events_merge_across_threads_in_seq_order() {
        let _g = MASK_LOCK.lock();
        let t = tracer();
        t.set_mask(TraceClass::Kill.bit());
        t.clear();
        t.emit(TraceClass::Kill, "k_main", 1, 10, || "a=1".into());
        std::thread::spawn(|| {
            emit(TraceClass::Kill, "k_worker", 2, 20, || "b=2".into());
        })
        .join()
        .unwrap();
        t.emit(TraceClass::Kill, "k_main2", 1, 11, String::new);
        let snap = t.snapshot();
        let names: Vec<&str> = snap.iter().map(|e| e.name).collect();
        // The worker thread's ring was retired at thread exit; its event
        // still shows up, and the merge is seq-ordered.
        assert_eq!(names, vec!["k_main", "k_worker", "k_main2"]);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        t.set_mask(0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = MASK_LOCK.lock();
        let t = tracer();
        t.set_mask(TraceClass::Scrub.bit());
        t.clear();
        std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY + 50) {
                emit(TraceClass::Scrub, "s", 0, i as i64, String::new);
            }
        })
        .join()
        .unwrap();
        let snap = t.snapshot();
        // The thread emitted capacity+50 events; its ring kept the last
        // RING_CAPACITY, which were then retired wholesale.
        assert_eq!(snap.len(), RING_CAPACITY);
        assert!(t.dropped() >= 50);
        assert_eq!(
            snap.last().unwrap().statement_id,
            (RING_CAPACITY + 49) as i64
        );
        t.set_mask(0);
        t.clear();
    }

    #[test]
    fn sink_buffers_only_while_attached() {
        let _g = MASK_LOCK.lock();
        let t = tracer();
        t.set_mask(TraceClass::Backup.bit());
        t.clear();
        t.emit(TraceClass::Backup, "before", 0, 0, String::new);
        t.attach_sink(true);
        t.emit(TraceClass::Backup, "during", 0, 0, || "k=v".into());
        let drained = t.drain_sink();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].name, "during");
        assert!(t.drain_sink().is_empty(), "drain consumes");
        let json = drained[0].to_json(t.start_unix_ms());
        assert!(json.contains("\"class\":\"BACKUP\""), "{json}");
        assert!(json.contains("\"event\":\"during\""), "{json}");
        t.attach_sink(false);
        t.set_mask(0);
        t.clear();
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
