//! Persistent query store: the one statement history, per fingerprint,
//! surviving restarts.
//!
//! Every statement a session begins is folded in here exactly once, by
//! its guard's drop; `DM_DB_QUERY_STORE()` and `DM_EXEC_QUERY_STATS()`
//! are two renderings of the same entries. The design follows SQL Server
//! 2008's Query Store / `query_hash`:
//!
//! * [`fingerprint`] normalizes statement text (literals → `?`, case and
//!   whitespace folded) and hashes it (FNV-1a 64), so
//!   `SELECT * FROM runs WHERE id = 7` and `... id = 9` aggregate into
//!   one entry;
//! * [`QueryStore`] aggregates per-fingerprint stats: execution count,
//!   dispositions (completed / killed / timeout), rows, a log₂ latency
//!   histogram with p50/p99, spill files/bytes, a wait breakdown
//!   (admission vs spill), and the governed-memory peak;
//! * the store is serialized at `CHECKPOINT` via tmp + fsync + rename to
//!   `querystore.seqdb` next to the catalog, and reloaded by
//!   `Database::open` — `DM_DB_QUERY_STORE()` therefore answers "what did
//!   this pipeline spend its time on, *yesterday*?" across restarts.

use std::sync::Arc;

use parking_lot::Mutex;

use seqdb_types::{DbError, Result};

/// Number of log₂ latency buckets. Bucket *i* holds elapsed times with
/// `floor(log2(µs)) == i` (bucket 0 is `< 2 µs`); the last bucket is
/// open-ended, covering everything from ~36 minutes up.
pub const HIST_BUCKETS: usize = 32;

/// Log₂-bucketed latency histogram over statement elapsed microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    fn bucket_for(micros: u64) -> usize {
        if micros < 2 {
            0
        } else {
            (63 - micros.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` in microseconds (`u64::MAX`
    /// for the open-ended last bucket).
    pub fn bucket_upper_micros(i: usize) -> u64 {
        if i + 1 >= HIST_BUCKETS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Count one observation.
    pub fn record_micros(&mut self, micros: u64) {
        self.buckets[Self::bucket_for(micros)] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The inclusive upper bound (µs) of the bucket containing the
    /// `p`-th percentile observation (`p` in 0..=100). Zero when empty.
    /// Bucket-granular by construction: the true percentile lies within
    /// the returned bucket's bounds.
    pub fn percentile_micros(&self, p: u8) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the percentile observation, 1-based, nearest-rank.
        let rank = (u128::from(total) * u128::from(p.min(100))).div_ceil(100);
        let rank = (rank as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_micros(i);
            }
        }
        Self::bucket_upper_micros(HIST_BUCKETS - 1)
    }

    /// Fold another histogram into this one (used at reload).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    fn to_csv(&self) -> String {
        self.buckets
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    fn from_csv(s: &str) -> Result<LatencyHistogram> {
        let mut h = LatencyHistogram::default();
        for (i, part) in s.split(',').enumerate() {
            if i >= HIST_BUCKETS {
                return Err(DbError::Corruption(
                    "query store: histogram has too many buckets".into(),
                ));
            }
            h.buckets[i] = part.parse::<u64>().map_err(|_| {
                DbError::Corruption(format!("query store: bad histogram bucket '{part}'"))
            })?;
        }
        Ok(h)
    }
}

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// Normalize statement text for fingerprinting: string and numeric
/// literals become `?`, identifiers/keywords are upper-cased, and runs of
/// whitespace collapse to one space. The normalization is deliberately
/// lexical (a tiny scanner, not the SQL parser) so it also works on
/// statements the parser would reject.
pub fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut pending_space = false;
    // A space survives normalization only between two word-like tokens
    // (`SELECT 1` stays distinct from `SELECT1`); whitespace around
    // punctuation is dropped so `id = 7` and `id=9` fold together.
    let push = |out: &mut String, s: &str, pending_space: &mut bool| {
        if *pending_space
            && out
                .chars()
                .last()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '?')
        {
            out.push(' ');
        }
        *pending_space = false;
        out.push_str(s);
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            pending_space = true;
            i += 1;
        } else if c == '\'' {
            // String literal, with '' escapes; whole thing becomes `?`.
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            push(&mut out, "?", &mut pending_space);
        } else if c.is_ascii_digit() {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.' || bytes[i] == b'_')
            {
                i += 1;
            }
            push(&mut out, "?", &mut pending_space);
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &sql[start..i];
            push(&mut out, &word.to_ascii_uppercase(), &mut pending_space);
        } else {
            // Operators and punctuation pass through; a preceding space
            // is kept only between two words (handled above), so
            // `id = 7` and `id=9` normalize identically.
            let start = i;
            i += c.len_utf8();
            pending_space = false;
            out.push_str(&sql[start..i]);
        }
    }
    out
}

/// FNV-1a 64 over the normalized text.
pub fn fingerprint_hash(normalized: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in normalized.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(hash, normalized_text)` for one statement.
pub fn fingerprint(sql: &str) -> (u64, String) {
    let norm = normalize(sql);
    (fingerprint_hash(&norm), norm)
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// How a statement ended, as recorded by the session guard's drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    Completed,
    Killed,
    Timeout,
}

impl Disposition {
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Killed => "killed",
            Disposition::Timeout => "timeout",
        }
    }
}

/// What one finished statement contributes to the store.
#[derive(Debug, Clone)]
pub struct StoreOutcome {
    pub rows: u64,
    pub elapsed_micros: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    pub wait_admission_micros: u64,
    pub wait_spill_micros: u64,
    pub peak_mem_bytes: u64,
    pub disposition: Disposition,
}

/// Aggregated stats for one statement fingerprint.
#[derive(Debug, Clone)]
pub struct QueryStoreEntry {
    pub fingerprint: u64,
    /// Normalized statement text (literals replaced with `?`).
    pub text: String,
    pub executions: u64,
    pub killed: u64,
    pub timeouts: u64,
    pub total_rows: u64,
    pub total_elapsed_micros: u64,
    pub hist: LatencyHistogram,
    pub spill_files: u64,
    pub spill_bytes: u64,
    pub wait_admission_micros: u64,
    pub wait_spill_micros: u64,
    pub peak_mem_bytes: u64,
    /// Executions already on disk when this process loaded the store
    /// (0 for fingerprints first seen in this process lifetime).
    pub persisted_executions: u64,
    /// Rows and elapsed time of the most recent execution in this
    /// process (not serialized; 0 on a freshly loaded entry).
    pub last_rows: u64,
    pub last_elapsed_micros: u64,
}

impl QueryStoreEntry {
    fn new(fingerprint: u64, text: String) -> QueryStoreEntry {
        QueryStoreEntry {
            fingerprint,
            text,
            executions: 0,
            killed: 0,
            timeouts: 0,
            total_rows: 0,
            total_elapsed_micros: 0,
            hist: LatencyHistogram::default(),
            spill_files: 0,
            spill_bytes: 0,
            wait_admission_micros: 0,
            wait_spill_micros: 0,
            peak_mem_bytes: 0,
            persisted_executions: 0,
            last_rows: 0,
            last_elapsed_micros: 0,
        }
    }

    fn fold(&mut self, o: &StoreOutcome) {
        self.executions += 1;
        match o.disposition {
            Disposition::Completed => {}
            Disposition::Killed => self.killed += 1,
            Disposition::Timeout => self.timeouts += 1,
        }
        self.total_rows += o.rows;
        self.total_elapsed_micros += o.elapsed_micros;
        self.hist.record_micros(o.elapsed_micros);
        self.spill_files += o.spill_files;
        self.spill_bytes += o.spill_bytes;
        self.wait_admission_micros += o.wait_admission_micros;
        self.wait_spill_micros += o.wait_spill_micros;
        self.peak_mem_bytes = self.peak_mem_bytes.max(o.peak_mem_bytes);
        self.last_rows = o.rows;
        self.last_elapsed_micros = o.elapsed_micros;
    }
}

const MAGIC: &str = "seqdb-querystore v1";

/// Per-database persistent query store. Bounded: beyond `capacity`
/// fingerprints, the entry with the fewest executions is evicted (the
/// store keeps the *recurring* pipelines, which is what the history is
/// for).
pub struct QueryStore {
    capacity: usize,
    entries: Mutex<Vec<QueryStoreEntry>>,
    /// Frozen image of what is on disk (loaded at open, refreshed at
    /// checkpoint) — the `AS OF 'persisted'` view.
    persisted: Mutex<Vec<QueryStoreEntry>>,
}

impl QueryStore {
    /// Default fingerprint capacity.
    pub const DEFAULT_CAPACITY: usize = 512;

    pub fn new(capacity: usize) -> Arc<QueryStore> {
        Arc::new(QueryStore {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            persisted: Mutex::new(Vec::new()),
        })
    }

    /// Fold one finished statement into the store. Called from the
    /// session guard's drop, so statements killed by `KILL` or a server
    /// drain still land here, with their disposition.
    pub fn record(&self, sql: &str, outcome: &StoreOutcome) {
        let (fp, norm) = fingerprint(sql);
        let mut entries = self.entries.lock();
        match entries.iter_mut().find(|e| e.fingerprint == fp) {
            Some(e) => e.fold(outcome),
            None => {
                if entries.len() >= self.capacity {
                    // Evict the coldest fingerprint.
                    if let Some((i, _)) =
                        entries.iter().enumerate().min_by_key(|(_, e)| e.executions)
                    {
                        entries.remove(i);
                    }
                }
                let mut e = QueryStoreEntry::new(fp, norm);
                e.fold(outcome);
                entries.push(e);
            }
        }
    }

    /// Every live entry (in-memory view), insertion order.
    pub fn snapshot(&self) -> Vec<QueryStoreEntry> {
        self.entries.lock().clone()
    }

    /// The frozen on-disk view (what the last checkpoint/open saw).
    pub fn persisted_snapshot(&self) -> Vec<QueryStoreEntry> {
        self.persisted.lock().clone()
    }

    /// Serialize the live store (header + one tab-separated line per
    /// fingerprint) and refresh the frozen persisted view to match.
    /// The caller writes the returned bytes via tmp + fsync + rename.
    pub fn serialize(&self) -> String {
        let entries = self.entries.lock().clone();
        let mut out = String::with_capacity(64 * entries.len() + MAGIC.len() + 1);
        out.push_str(MAGIC);
        out.push('\n');
        for e in &entries {
            out.push_str(&format!(
                "{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                e.fingerprint,
                e.executions,
                e.killed,
                e.timeouts,
                e.total_rows,
                e.total_elapsed_micros,
                e.spill_files,
                e.spill_bytes,
                e.wait_admission_micros,
                e.wait_spill_micros,
                e.peak_mem_bytes,
                e.hist.to_csv(),
                escape(&e.text),
            ));
        }
        *self.persisted.lock() = entries;
        out
    }

    /// Load a serialized store, replacing the live and persisted views.
    /// Every loaded execution counts as persisted.
    pub fn load(&self, data: &str) -> Result<()> {
        let mut lines = data.lines();
        match lines.next() {
            Some(l) if l == MAGIC => {}
            other => {
                return Err(DbError::Corruption(format!(
                    "query store: bad header {other:?} (want '{MAGIC}')"
                )))
            }
        }
        let mut entries = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.splitn(13, '\t').collect();
            if fields.len() != 13 {
                return Err(DbError::Corruption(format!(
                    "query store: expected 13 fields, got {}",
                    fields.len()
                )));
            }
            let num = |i: usize| -> Result<u64> {
                fields[i].parse::<u64>().map_err(|_| {
                    DbError::Corruption(format!(
                        "query store: bad numeric field {i}: '{}'",
                        fields[i]
                    ))
                })
            };
            let fingerprint = u64::from_str_radix(fields[0], 16).map_err(|_| {
                DbError::Corruption(format!("query store: bad fingerprint '{}'", fields[0]))
            })?;
            let executions = num(1)?;
            let e = QueryStoreEntry {
                executions,
                killed: num(2)?,
                timeouts: num(3)?,
                total_rows: num(4)?,
                total_elapsed_micros: num(5)?,
                hist: LatencyHistogram::from_csv(fields[11])?,
                spill_files: num(6)?,
                spill_bytes: num(7)?,
                wait_admission_micros: num(8)?,
                wait_spill_micros: num(9)?,
                peak_mem_bytes: num(10)?,
                persisted_executions: executions,
                ..QueryStoreEntry::new(fingerprint, unescape(fields[12]))
            };
            if e.executions < e.killed + e.timeouts || e.hist.count() != e.executions {
                return Err(DbError::Corruption(format!(
                    "query store: inconsistent counts for {:016x}",
                    e.fingerprint
                )));
            }
            entries.push(e);
        }
        *self.persisted.lock() = entries.clone();
        *self.entries.lock() = entries;
        Ok(())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(elapsed_micros: u64, disposition: Disposition) -> StoreOutcome {
        StoreOutcome {
            rows: 10,
            elapsed_micros,
            spill_files: 1,
            spill_bytes: 4096,
            wait_admission_micros: 7,
            wait_spill_micros: 3,
            peak_mem_bytes: 1 << 16,
            disposition,
        }
    }

    #[test]
    fn normalization_folds_literals_case_and_whitespace() {
        let a = normalize("SELECT * FROM runs  WHERE id = 7");
        let b = normalize("select *\nfrom RUNS where ID=9213");
        assert_eq!(a, b);
        assert_eq!(a, "SELECT*FROM RUNS WHERE ID=?");
        let c = normalize("INSERT INTO t VALUES (1, 'a''b', 2.5)");
        assert_eq!(c, "INSERT INTO T VALUES(?,?,?)");
    }

    #[test]
    fn fingerprint_stable_under_literal_changes_but_not_structure() {
        let (f1, _) = fingerprint("SELECT v FROM t WHERE id = 1");
        let (f2, _) = fingerprint("SELECT v FROM t WHERE id = 999");
        let (f3, _) = fingerprint("SELECT v FROM t WHERE id = 'x'");
        let (f4, _) = fingerprint("SELECT grp FROM t WHERE id = 1");
        assert_eq!(f1, f2);
        assert_eq!(f1, f3, "numeric and string literals both fold to ?");
        assert_ne!(f1, f4);
    }

    #[test]
    fn histogram_percentiles_hit_bucket_upper_bounds() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_micros(100); // bucket 6 (64..=127)
        }
        h.record_micros(1_000_000); // bucket 19
        assert_eq!(h.percentile_micros(50), 127);
        assert_eq!(h.percentile_micros(99), 127);
        assert_eq!(h.percentile_micros(100), (1u64 << 20) - 1);
        assert_eq!(LatencyHistogram::default().percentile_micros(50), 0);
    }

    #[test]
    fn store_aggregates_by_fingerprint_and_tracks_dispositions() {
        let s = QueryStore::new(16);
        s.record(
            "SELECT v FROM t WHERE id = 1",
            &outcome(50, Disposition::Completed),
        );
        s.record(
            "SELECT v FROM t WHERE id = 2",
            &outcome(70, Disposition::Killed),
        );
        s.record(
            "SELECT v FROM t WHERE id = 3",
            &outcome(90, Disposition::Timeout),
        );
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        let e = &snap[0];
        assert_eq!(e.executions, 3);
        assert_eq!(e.killed, 1);
        assert_eq!(e.timeouts, 1);
        assert_eq!(e.total_rows, 30);
        assert_eq!(e.spill_files, 3);
        assert_eq!(e.wait_admission_micros, 21);
        assert_eq!(e.hist.count(), 3);
        assert_eq!(e.persisted_executions, 0);
    }

    #[test]
    fn store_evicts_coldest_fingerprint_at_capacity() {
        let s = QueryStore::new(2);
        s.record("SELECT a FROM t", &outcome(1, Disposition::Completed));
        s.record("SELECT a FROM t", &outcome(1, Disposition::Completed));
        s.record("SELECT b FROM t", &outcome(1, Disposition::Completed));
        s.record("SELECT c FROM t", &outcome(1, Disposition::Completed));
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().any(|e| e.text.contains('A')));
        assert!(snap.iter().any(|e| e.text.contains('C')));
    }

    #[test]
    fn serialize_load_round_trips() {
        let s = QueryStore::new(16);
        s.record(
            "SELECT v FROM t WHERE name = 'x\ty\nz'",
            &outcome(123, Disposition::Completed),
        );
        s.record("SELECT 1", &outcome(456, Disposition::Killed));
        let data = s.serialize();
        assert!(data.starts_with(MAGIC));
        assert_eq!(
            s.persisted_snapshot().len(),
            2,
            "serialize freezes the view"
        );

        let t = QueryStore::new(16);
        t.load(&data).unwrap();
        let a = s.snapshot();
        let b = t.snapshot();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert_eq!(x.text, y.text);
            assert_eq!(x.executions, y.executions);
            assert_eq!(x.killed, y.killed);
            assert_eq!(x.hist, y.hist);
            assert_eq!(y.persisted_executions, y.executions, "loaded == persisted");
        }
        // Round-trip again: serialize(load(x)) == x.
        assert_eq!(t.serialize(), data);
    }

    #[test]
    fn load_rejects_garbage() {
        let s = QueryStore::new(4);
        assert!(matches!(s.load("nope"), Err(DbError::Corruption(_))));
        assert!(matches!(
            s.load(&format!("{MAGIC}\nnot-enough-fields\n")),
            Err(DbError::Corruption(_))
        ));
    }
}
