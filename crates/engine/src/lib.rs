//! seqdb query engine.
//!
//! An iterator-model ("Volcano") relational query processor with the
//! extensibility surface of the paper's platform (SQL Server 2008 + CLR
//! hosting, *Röhm & Blakeley, CIDR 2009*):
//!
//! * scalar UDFs, pull-model table-valued functions and user-defined
//!   aggregates, mergeable or order-sensitive ([`udx`]) — built-ins and
//!   user extensions go through the same contracts;
//! * physical operators ([`exec`]): heap/index scans, filter, project,
//!   external sort (spill-accounted), hash/stream aggregation, hash/merge
//!   joins, CROSS APPLY, ROW_NUMBER, TOP;
//! * exchange-style parallel aggregation with per-worker statistics
//!   ([`parallel`]) reproducing the parallel plans of Figures 8–9;
//! * a plan tree with `EXPLAIN` rendering ([`plan`]) for Figures 9–10;
//! * a catalog and database façade ([`catalog`], [`database`]).
//!
//! SQL text parsing lives in the separate `seqdb-sql` crate (which
//! depends on this one); programs can also build [`plan::Plan`]s
//! directly.

#![deny(unsafe_code)]
// A hosted engine must not die on a recoverable error: every fallible
// path propagates `DbError` instead of unwrapping. Tests may unwrap.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod backup;
pub mod builtins;
pub mod catalog;
pub mod conn;
pub mod database;
pub mod dmv;
pub mod exec;
pub mod expr;
pub mod governor;
pub mod parallel;
pub mod plan;
pub mod querystore;
pub mod scrub;
pub mod session;
pub mod stats;
pub mod trace;
pub mod udx;

pub use backup::{
    restore_database, verify_backup, BackupReport, BackupState, BackupStatus, RestoreReport,
};
pub use catalog::{Catalog, Table, TableIndex};
pub use conn::{ConnState, ConnectionHandle, ConnectionInfo, ConnectionRegistry};
pub use database::{Database, DbConfig, JoinStrategy};
pub use exec::{BoxedIter, ExecContext, RowIterator};
pub use expr::{BinOp, Expr};
pub use governor::{GovernedIter, LivenessHook, MemCharge, QueryGovernor};
pub use plan::{Plan, QueryResult};
pub use querystore::{
    fingerprint, Disposition, LatencyHistogram, QueryStore, QueryStoreEntry, StoreOutcome,
};
pub use scrub::{ScrubFinding, ScrubReport, ScrubState, ScrubStatus};
/// The process counter registry under its old engine-side name, kept
/// only because the frozen `perfbench` calls it; the next `benchmark` PR
/// reads `seqdb_storage::storage_counters` and deletes this.
pub use seqdb_storage::storage_counters as engine_counters;
pub use session::{
    AdmissionController, RunningStatement, Session, SessionSettings, StatementGuard,
    StatementRegistry,
};
pub use stats::{ExecStats, NodeStats, StatsIter};
pub use trace::{parse_mask, tracer, TraceClass, TraceEvent, Tracer, MASK_ALL, TRACE_CLASSES};
pub use udx::{AggState, Aggregate, ScalarUdf, TableFunction, TvfCursor};
