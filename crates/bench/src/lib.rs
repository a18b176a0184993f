//! Shared setup for the `report` binary.
//!
//! Every table/figure of the paper's §5 is regenerated by
//! `cargo run -p seqdb-bench --release --bin report -- <experiment>`.
//! Speed is measured elsewhere: `perfbench/` (see `BENCHMARK.json`).

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seqdb_core::dataset::{DgeDataset, ResequencingDataset, Scale};
use seqdb_core::workflow;
use seqdb_engine::Database;
use seqdb_types::Result;

/// Where generated datasets live: `$CARGO_TARGET_DIR/seqdb-bench/<name>`,
/// or else the workspace's own `target/seqdb-bench/<name>` — never
/// relative to the cwd, which is `crates/bench` under `cargo test`.
pub fn workspace_dir(name: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    base.join("seqdb-bench").join(name)
}

/// Scale presets. `factor` multiplies the default workload (1 = the
/// quick default; the paper's lane would be roughly factor 300).
pub fn scale(factor: usize) -> Scale {
    let f = factor.max(1);
    Scale {
        genome_bp: 200_000 * f.min(50),
        n_chromosomes: 5,
        n_reads: 20_000 * f,
        seed: 2009,
    }
}

/// Generate (or regenerate) the DGE dataset for a scale factor.
pub fn dge_dataset(factor: usize) -> Result<DgeDataset> {
    let dir = workspace_dir(&format!("dge-{factor}"));
    let _ = std::fs::remove_dir_all(&dir);
    DgeDataset::generate(&dir, &scale(factor))
}

/// Generate (or regenerate) the re-sequencing dataset.
pub fn reseq_dataset(factor: usize) -> Result<ResequencingDataset> {
    let dir = workspace_dir(&format!("reseq-{factor}"));
    let _ = std::fs::remove_dir_all(&dir);
    ResequencingDataset::generate(&dir, &scale(factor))
}

/// A database loaded with every DGE design.
pub fn dge_database(ds: &DgeDataset) -> Result<Arc<Database>> {
    let db = Database::in_memory();
    workflow::load_dge_designs(&db, ds)?;
    Ok(db)
}

/// A database loaded with every re-sequencing design.
pub fn reseq_database(ds: &ResequencingDataset) -> Result<Arc<Database>> {
    let db = Database::in_memory();
    workflow::load_reseq_designs(&db, ds)?;
    Ok(db)
}

/// Time a closure once.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Point-in-time I/O counters `report` prints alongside wall clock:
/// WAL traffic, buffer-pool hit behavior and spill volume. Taken from
/// the process-global storage registries plus the database's pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnapshot {
    pub wal_records: u64,
    pub wal_fsyncs: u64,
    pub bufpool_hits: u64,
    pub bufpool_misses: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
}

impl IoSnapshot {
    pub fn now(db: &Database) -> IoSnapshot {
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let s = seqdb_storage::storage_counters();
        IoSnapshot {
            wal_records: s.wal_records.load(relaxed),
            wal_fsyncs: s.wal_fsyncs.load(relaxed),
            bufpool_hits: db.pool().stats.hits.load(relaxed),
            bufpool_misses: db.pool().stats.misses.load(relaxed),
            spill_files: s.spill_files.load(relaxed),
            spill_bytes: s.spill_bytes.load(relaxed),
        }
    }

    /// Counter movement since `earlier` (all registries are monotonic).
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            wal_records: self.wal_records - earlier.wal_records,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            bufpool_hits: self.bufpool_hits - earlier.bufpool_hits,
            bufpool_misses: self.bufpool_misses - earlier.bufpool_misses,
            spill_files: self.spill_files - earlier.spill_files,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
        }
    }
}

/// Pretty-print an I/O delta for report tables.
pub fn fmt_io(io: &IoSnapshot) -> String {
    format!(
        "wal_fsyncs={} bufpool_misses={} spill_files={} spill_kb={}",
        io.wal_fsyncs,
        io.bufpool_misses,
        io.spill_files,
        io.spill_bytes / 1024
    )
}

/// Pretty-print a duration for report tables.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}us", d.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets_grow() {
        assert!(scale(2).n_reads > scale(1).n_reads);
        assert_eq!(scale(0).n_reads, scale(1).n_reads);
    }

    #[test]
    fn tiny_end_to_end_smoke() {
        // A miniature pass through both scenario setups, so CI catches
        // harness breakage without paying bench-scale costs.
        let dir = workspace_dir("smoke");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scale {
            genome_bp: 30_000,
            n_chromosomes: 2,
            n_reads: 800,
            seed: 99,
        };
        let ds = DgeDataset::generate(&dir, &s).unwrap();
        let db = dge_database(&ds).unwrap();
        let (tags, genes) = workflow::run_dge_analysis(&db, &ds).unwrap();
        assert!(tags > 0 && genes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
