//! Per-query resource governor: cancellation, wall-clock timeouts, and a
//! byte-accounted memory budget.
//!
//! This is the engine-side analogue of SQL Server's CLR hosting layer
//! (paper §2.3): user code and memory-hungry operators run *inside* the
//! server, so a misbehaving query must be containable without killing the
//! process. Every statement gets one [`QueryGovernor`] (created by
//! `Session::begin_statement`); operators check it cooperatively between
//! rows and charge it for buffered bytes. Operators that can degrade
//! (sort, hash aggregate, hash join) spill to `storage::tempspace` when
//! the budget runs out; the rest fail the query with
//! [`DbError::ResourceExhausted`].

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_storage::{storage_counters, SpillTally};
use seqdb_types::{DbError, Result};

use crate::exec::{BoxedIter, RowBatch, RowIterator};

/// Query lifecycle states stored in [`QueryGovernor::state`].
const RUNNING: u8 = 0;
const CANCELLED: u8 = 1;
const TIMED_OUT: u8 = 2;

/// A session's check that its client is still there, run from the
/// statement's own cooperative checks (see [`Session::with_liveness`]).
/// It is called once per batch by every operator thread, so it must be
/// cheap and must rate-limit and serialise itself. A hook that finds the
/// client gone cancels the statement (for example through
/// `StatementRegistry::kill_session`).
///
/// [`Session::with_liveness`]: crate::Session::with_liveness
pub type LivenessHook = Arc<dyn Fn() + Send + Sync>;

/// Shared, thread-safe per-query limits. Cloned (via `Arc`) into every
/// operator of a plan, including parallel workers.
pub struct QueryGovernor {
    state: AtomicU8,
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    /// Memory budget in bytes; `usize::MAX` means unlimited.
    mem_limit: usize,
    mem_used: AtomicUsize,
    /// High-water mark of `mem_used` over the query's lifetime.
    mem_peak: AtomicUsize,
    /// Spill traffic attributed to this query (every spill file the query
    /// creates, across all operators and parallel workers).
    spill: Arc<SpillTally>,
    /// Time this query spent queued in the admission controller, recorded
    /// by `AdmissionController::admit` — one half of the query store's
    /// per-statement wait breakdown (the other is the spill tally's wait
    /// time).
    admission_wait_nanos: AtomicU64,
    /// The owning session's liveness hook, if it has one.
    liveness: Option<LivenessHook>,
}

impl QueryGovernor {
    /// A governor with no limits — cancellation still works.
    pub fn unlimited() -> Arc<QueryGovernor> {
        QueryGovernor::new(None, None)
    }

    pub fn new(timeout: Option<Duration>, mem_limit: Option<usize>) -> Arc<QueryGovernor> {
        QueryGovernor::watched(timeout, mem_limit, None)
    }

    /// A governor that also runs `liveness` at every full check.
    pub(crate) fn watched(
        timeout: Option<Duration>,
        mem_limit: Option<usize>,
        liveness: Option<LivenessHook>,
    ) -> Arc<QueryGovernor> {
        Arc::new(QueryGovernor {
            state: AtomicU8::new(RUNNING),
            deadline: timeout.map(|t| Instant::now() + t),
            timeout,
            mem_limit: mem_limit.unwrap_or(usize::MAX),
            mem_used: AtomicUsize::new(0),
            mem_peak: AtomicUsize::new(0),
            spill: Arc::new(SpillTally::default()),
            admission_wait_nanos: AtomicU64::new(0),
            liveness,
        })
    }

    /// Request cancellation. The query fails with [`DbError::Cancelled`]
    /// at its next cooperative check. Idempotent; a timeout that already
    /// fired wins.
    pub fn cancel(&self) {
        let _ =
            self.state
                .compare_exchange(RUNNING, CANCELLED, Ordering::Relaxed, Ordering::Relaxed);
    }

    pub fn is_aborted(&self) -> bool {
        self.state.load(Ordering::Relaxed) != RUNNING
    }

    /// Cheap cooperative check: cancel flag only. Called once per row per
    /// governed operator.
    pub fn check(&self) -> Result<()> {
        match self.state.load(Ordering::Relaxed) {
            RUNNING => Ok(()),
            CANCELLED => Err(DbError::Cancelled("query cancelled".into())),
            _ => Err(self.timeout_error()),
        }
    }

    /// Run the session's liveness hook, if any. A hook that finds the
    /// client gone cancels the statement, which the next check reports.
    pub(crate) fn watch(&self) {
        if let Some(hook) = &self.liveness {
            hook();
        }
    }

    /// Full cooperative check: liveness hook, cancel flag and wall-clock
    /// deadline. Called once per batch, which amortizes `Instant::now`
    /// over the batch's rows and keeps KILL and timeout latency at batch
    /// granularity.
    pub fn check_deadline(&self) -> Result<()> {
        self.watch();
        self.check()?;
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                if self
                    .state
                    .compare_exchange(RUNNING, TIMED_OUT, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // First transition only: one timed-out query, one count.
                    storage_counters().timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return Err(self.timeout_error());
            }
        }
        Ok(())
    }

    fn timeout_error(&self) -> DbError {
        let ms = self.timeout.map(|t| t.as_millis()).unwrap_or(0);
        DbError::Timeout(format!("query exceeded its {ms}ms timeout"))
    }

    /// Try to charge `bytes` against the budget. Returns `false` (charging
    /// nothing) if the budget would be exceeded — callers that can spill
    /// use this and degrade instead of failing.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let prev = self.mem_used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.mem_limit {
            self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
            false
        } else {
            self.mem_peak.fetch_max(prev + bytes, Ordering::Relaxed);
            true
        }
    }

    /// Charge `bytes` or fail with [`DbError::ResourceExhausted`] — for
    /// operators with no spill path (hash join build, stream-agg state).
    pub fn reserve(&self, bytes: usize) -> Result<()> {
        if self.try_reserve(bytes) {
            Ok(())
        } else {
            Err(DbError::ResourceExhausted(format!(
                "query memory budget of {} bytes exceeded ({} in use, {} requested)",
                self.mem_limit,
                self.mem_used.load(Ordering::Relaxed),
                bytes
            )))
        }
    }

    pub fn release(&self, bytes: usize) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently charged across the whole query (all operators and
    /// workers share one meter).
    pub fn mem_used(&self) -> usize {
        self.mem_used.load(Ordering::Relaxed)
    }

    pub fn mem_limit(&self) -> Option<usize> {
        (self.mem_limit != usize::MAX).then_some(self.mem_limit)
    }

    /// Highest concurrent memory charge the query ever held.
    pub fn mem_peak(&self) -> usize {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// The query-wide spill tally; attach it to every spill this query
    /// creates (see `ExecContext::create_spill`).
    pub fn spill_tally(&self) -> &Arc<SpillTally> {
        &self.spill
    }

    /// Attribute admission-queue time to this query.
    pub fn add_admission_wait(&self, dur: Duration) {
        self.admission_wait_nanos
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Nanoseconds this query waited in the admission queue.
    pub fn admission_wait_nanos(&self) -> u64 {
        self.admission_wait_nanos.load(Ordering::Relaxed)
    }

    /// How the statement ended, as the query store's disposition: a
    /// cancelled statement was killed (by `KILL`, a drain, or a dropped
    /// wire peer), a timed-out one hit its governed deadline.
    pub fn disposition(&self) -> crate::querystore::Disposition {
        match self.state.load(Ordering::Relaxed) {
            CANCELLED => crate::querystore::Disposition::Killed,
            TIMED_OUT => crate::querystore::Disposition::Timeout,
            _ => crate::querystore::Disposition::Completed,
        }
    }
}

/// RAII accounting handle: grows against a governor and releases every
/// charged byte on drop, so early returns and cancelled queries cannot
/// leak budget.
pub struct MemCharge {
    gov: Arc<QueryGovernor>,
    bytes: usize,
}

impl MemCharge {
    pub fn new(gov: Arc<QueryGovernor>) -> MemCharge {
        MemCharge { gov, bytes: 0 }
    }

    /// Charge more bytes, failing with `ResourceExhausted` if over budget.
    pub fn grow(&mut self, bytes: usize) -> Result<()> {
        self.gov.reserve(bytes)?;
        self.bytes += bytes;
        Ok(())
    }

    /// Charge more bytes if the budget allows; `false` leaves the charge
    /// unchanged (the caller spills instead).
    pub fn try_grow(&mut self, bytes: usize) -> bool {
        if self.gov.try_reserve(bytes) {
            self.bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Release everything charged so far (e.g. after spilling a buffer).
    pub fn release_all(&mut self) {
        self.gov.release(self.bytes);
        self.bytes = 0;
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.release_all();
    }
}

/// Wraps any operator with cooperative cancellation/timeout checks.
/// `Plan::open` wraps every node it builds, so blocking operators that
/// drain a child (sort, hash agg, hash join build) hit a check on every
/// input batch even though they themselves are pulled rarely.
pub struct GovernedIter {
    inner: BoxedIter,
    gov: Arc<QueryGovernor>,
}

impl GovernedIter {
    pub fn new(inner: BoxedIter, gov: Arc<QueryGovernor>) -> GovernedIter {
        GovernedIter { inner, gov }
    }
}

impl RowIterator for GovernedIter {
    /// One full cooperative check per batch, then delegate.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>> {
        self.gov.check_deadline()?;
        let batch = self.inner.next_batch(max_rows)?;
        if let Some(b) = &batch {
            let counters = storage_counters();
            let bucket = if b.is_fallback() {
                &counters.batch_fallback_rows
            } else {
                &counters.batch_rows
            };
            bucket.fetch_add(b.len() as u64, Ordering::Relaxed);
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, ValuesIter};
    use seqdb_types::{Row, Value};

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn unlimited_governor_passes_everything() {
        let gov = QueryGovernor::unlimited();
        assert!(gov.check().is_ok());
        assert!(gov.check_deadline().is_ok());
        assert!(gov.try_reserve(usize::MAX / 2));
        gov.release(usize::MAX / 2);
    }

    #[test]
    fn cancel_fails_next_check() {
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        assert!(matches!(gov.check(), Err(DbError::Cancelled(_))));
        let it = GovernedIter::new(Box::new(ValuesIter::new(rows(10))), gov);
        assert!(matches!(
            collect(Box::new(it), 1024),
            Err(DbError::Cancelled(_))
        ));
    }

    #[test]
    fn expired_deadline_times_out_before_first_row() {
        let gov = QueryGovernor::new(Some(Duration::ZERO), None);
        std::thread::sleep(Duration::from_millis(2));
        let it = GovernedIter::new(Box::new(ValuesIter::new(rows(10))), gov.clone());
        assert!(matches!(
            collect(Box::new(it), 1024),
            Err(DbError::Timeout(_))
        ));
        // Once timed out, plain checks report Timeout, not Cancelled.
        assert!(matches!(gov.check(), Err(DbError::Timeout(_))));
    }

    #[test]
    fn timeout_fires_mid_stream_at_the_next_batch() {
        let gov = QueryGovernor::new(Some(Duration::from_millis(10)), None);
        let mut it = GovernedIter::new(Box::new(ValuesIter::new(rows(1_000_000))), gov);
        let mut n = 0u64;
        let err = loop {
            match it.next_batch(512) {
                Ok(Some(b)) => n += b.len() as u64,
                Ok(None) => panic!("expected timeout, drained {n} rows"),
                Err(e) => break e,
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(err, DbError::Timeout(_)), "{err}");
    }

    #[test]
    fn reserve_accounts_and_releases() {
        let gov = QueryGovernor::new(None, Some(1000));
        assert!(gov.reserve(600).is_ok());
        assert!(matches!(
            gov.reserve(600),
            Err(DbError::ResourceExhausted(_))
        ));
        // A failed reserve charges nothing.
        assert_eq!(gov.mem_used(), 600);
        assert!(gov.try_reserve(400));
        assert!(!gov.try_reserve(1));
        gov.release(1000);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn mem_charge_releases_on_drop() {
        let gov = QueryGovernor::new(None, Some(1000));
        {
            let mut charge = MemCharge::new(gov.clone());
            charge.grow(700).unwrap();
            assert_eq!(gov.mem_used(), 700);
            assert!(!charge.try_grow(500));
            assert_eq!(charge.bytes(), 700);
        }
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn concurrent_reservations_never_exceed_limit() {
        let gov = QueryGovernor::new(None, Some(10_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let gov = gov.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if gov.try_reserve(7) {
                            gov.release(7);
                        }
                    }
                });
            }
        });
        assert_eq!(gov.mem_used(), 0);
    }
}
