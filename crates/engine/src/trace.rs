//! Structured event tracing: one bounded ring of typed engine events.
//!
//! The paper's operational story (multi-hour genomics pipelines living
//! *inside* the database) needs the SQL Server answer to "what did the
//! engine just do?": Extended Events rings readable from a DMV, cheap
//! enough to leave on. seqdb's analogue:
//!
//! * a process-global [`Tracer`] with an **enabled-class bitmask** — the
//!   per-event cost while tracing is off is one relaxed atomic load, and
//!   detail strings are built lazily (closure) only when the class is on;
//! * **one ring**: a bounded deque behind one mutex. Each event's
//!   sequence number is assigned under that lock, so the ring is in
//!   sequence order and a full ring drops its oldest event (counted in
//!   [`Tracer::dropped`]);
//! * `SET TRACE_EVENTS = 'STATEMENT,WAIT,...'` / `'ALL'` / `'OFF'`
//!   controls the mask from SQL (server-wide, like the admission knobs);
//! * `DM_OS_RING_BUFFER()` renders the ring — the
//!   `sys.dm_os_ring_buffers` analogue;
//! * an optional **sink cursor** for the wire server's JSONL trace file
//!   and slow-statement log: while attached, [`Tracer::drain_sink`]
//!   returns the ring's events newer than the last one drained, and
//!   counts any the ring overwrote before the sink read them as dropped.
//!
//! Wait events are recorded at the *end* of the blocked interval with
//! their duration, so the begin time is derivable (`ts_us - wait_us`)
//! without paying for two events per wait.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_storage::{install_trace_hook, StorageEvent};
use seqdb_types::{DbError, Result};

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
    /// Process-wide monotonic sequence number (the ring order).
    pub seq: u64,
    /// Microseconds since process start (see [`Tracer::start_unix_ms`]).
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

/// Events the ring holds before the oldest is dropped. With every class
/// on, 32 wire clients of mixed traffic (`tests/server.rs`'s
/// `many_mixed_clients_…`, release build) emit ≈ 34 events per statement,
/// most of them the spilling aggregates' `spill_file`s, and at most ≈ 310
/// between two 50 ms ticks of the server's trace flusher: under a tenth
/// of the ring, so the sink does not fall behind it.
const RING_CAPACITY: usize = 8192;

/// The ring and the sink cursor, under one lock so sequence order, ring
/// order and what the sink has read cannot disagree.
struct Ring {
    events: VecDeque<TraceEvent>,
    /// The sequence number of the next event.
    next_seq: u64,
    /// The last sequence number the sink drained; `None` while detached.
    sink: Option<u64>,
    /// Events the ring overwrote, plus those the attached sink had not
    /// read yet when they were overwritten (the honesty counter).
    dropped: u64,
}

/// The process-global tracer. Obtain via [`tracer`].
pub struct Tracer {
    mask: AtomicU32,
    epoch: Instant,
    start_unix_ms: u64,
    ring: Mutex<Ring>,
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
        let mut ring = self.ring.lock();
        if ring.events.len() >= RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(TraceEvent {
            seq,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            class,
            name,
            session_id,
            statement_id,
            detail,
        });
    }

    /// Point-in-time copy of the ring, in sequence order. Non-destructive,
    /// like `sys.dm_os_ring_buffers`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Events lost since the last [`clear`](Tracer::clear).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Drop every buffered event (benchmarks isolate phases with this).
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.events.clear();
        if ring.sink.is_some() {
            ring.sink = Some(ring.next_seq - 1);
        }
        ring.dropped = 0;
    }

    /// Attach/detach the sink: while attached, [`drain_sink`] hands out
    /// each event emitted since attaching exactly once (the server's
    /// JSONL trace file reads from there without disturbing the DMV).
    ///
    /// [`drain_sink`]: Tracer::drain_sink
    pub fn attach_sink(&self, on: bool) {
        let mut ring = self.ring.lock();
        let read = ring.sink.unwrap_or(ring.next_seq - 1);
        ring.sink = on.then_some(read);
    }

    /// The ring's events newer than the last drain, oldest first. Events
    /// the ring overwrote before this drain could read them are counted
    /// in [`dropped`](Tracer::dropped).
    pub fn drain_sink(&self) -> Vec<TraceEvent> {
        let mut ring = self.ring.lock();
        let Some(read) = ring.sink else {
            return Vec::new();
        };
        let oldest = ring.events.front().map_or(ring.next_seq, |e| e.seq);
        ring.dropped += oldest.saturating_sub(read + 1);
        ring.sink = Some(ring.next_seq - 1);
        let unread = ring.events.partition_point(|e| e.seq <= read);
        ring.events.range(unread..).cloned().collect()
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
            epoch: Instant::now(),
            start_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                next_seq: 1,
                sink: None,
                dropped: 0,
            }),
        }
    })
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
        StorageEvent::SpillFile => {
            t.emit(TraceClass::Spill, "spill_file", 0, 0, String::new);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

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
        // Every thread appends to the one ring; the worker's event
        // outlives the worker, in seq order.
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
        // The thread emitted capacity+50 events; the ring kept the last
        // RING_CAPACITY.
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
    fn one_ring_orders_and_drains_every_event_once() {
        let _g = MASK_LOCK.lock();
        let t = tracer();
        t.set_mask(TraceClass::Quarantine.bit());
        t.clear();
        t.attach_sink(true);
        // 8 emitters x 500 events, drained every millisecond meanwhile.
        let done = AtomicBool::new(false);
        let mut drained = std::thread::scope(|s| {
            let drainer = s.spawn(|| {
                let mut got = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    got.extend(t.drain_sink());
                    std::thread::sleep(Duration::from_millis(1));
                }
                got
            });
            let emitters: Vec<_> = (0..8u64)
                .map(|w| {
                    s.spawn(move || {
                        (0..500).for_each(|i| emit(TraceClass::Quarantine, "q", w, i, String::new))
                    })
                })
                .collect();
            for e in emitters {
                e.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            drainer.join().unwrap()
        });
        drained.extend(t.drain_sink());
        // Strictly increasing: no seq twice, none out of order.
        assert!(drained.windows(2).all(|w| w[0].seq < w[1].seq));
        let mut mine: Vec<(u64, i64)> = drained
            .iter()
            .filter(|e| e.name == "q")
            .map(|e| (e.session_id, e.statement_id))
            .collect();
        mine.sort_unstable();
        let every: Vec<(u64, i64)> = (0..8u64)
            .flat_map(|w| (0..500).map(move |i| (w, i)))
            .collect();
        assert_eq!(mine, every, "every event drained exactly once");
        assert_eq!(t.dropped(), 0);

        // Overflow with no drain: the ring keeps the newest events and
        // the sink resumes past the gap without repeating one.
        let read = drained.last().unwrap().seq;
        for i in 0..RING_CAPACITY + 100 {
            emit(TraceClass::Quarantine, "over", 0, i as i64, String::new);
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), RING_CAPACITY);
        assert_eq!(
            snap.last().unwrap().statement_id,
            (RING_CAPACITY + 99) as i64
        );
        assert!(t.dropped() >= 100, "{}", t.dropped());
        let after = t.drain_sink();
        assert!(after.first().unwrap().seq > read);
        assert!(after.windows(2).all(|w| w[0].seq < w[1].seq));
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
