//! seqdb-core — the paper's genomic data platform.
//!
//! This crate is the reproduction of the *contribution* of Röhm &
//! Blakeley (CIDR 2009): data management for high-throughput sequencing
//! on top of an extensible relational engine.
//!
//! * [`schema`] — the conceptual model of Figure 4 mapped to a normalized
//!   relational schema (§3.2), plus the 1:1 "file-image" schema and the
//!   hybrid FileStream schema of §3.3;
//! * [`udx`] — the paper's user-defined extensions: the `ListShortReads`
//!   file-wrapper TVF (§3.3/§4.1), `PivotAlignment`, the `CallBase` /
//!   `AssembleSequence` aggregates of Query 3, the optimized
//!   sliding-window `AssembleConsensus` UDA (§4.2.3), and the in-database
//!   `AlignReads` TVF the paper lists as future work (§6.1);
//! * [`dataset`] — synthetic lanes for the two scenarios (digital gene
//!   expression, 1000 Genomes re-sequencing);
//! * [`import`] — loaders for every physical design of §3.3/§5.1;
//! * [`queries`] — Queries 1–3 (§4.2) as SQL plus the hand-built
//!   sliding-window consensus plan of §5.3.3;
//! * [`baseline`] — the sequential "Perl-script" style programs the
//!   paper compares against (§5.3.2, Figure 7) and the interpreted
//!   row-at-a-time procedure of §5.2;
//! * [`sizing`] — storage-efficiency accounting for Tables 1 and 2;
//! * [`workflow`] — end-to-end drivers tying the phases together,
//!   including workflow provenance rows.

#![deny(unsafe_code)]

pub mod baseline;
pub mod dataset;
pub mod import;
pub mod queries;
pub mod schema;
pub mod sizing;
pub mod udx;
pub mod workflow;

/// A directory of its own for the test called `name`: tests of one
/// process run in parallel and each begins by clearing its directory, so
/// no two may share one.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdb-core-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub use dataset::{DgeDataset, ResequencingDataset};
pub use schema::create_normalized_schema;
pub use udx::register_udx;
