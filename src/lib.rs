//! # seqdb — Data Management for High-Throughput Genomics
//!
//! A from-scratch Rust reproduction of *Röhm & Blakeley, "Data Management
//! for High-Throughput Genomics" (CIDR 2009)*: an extensible relational
//! engine (FileStream BLOBs, row/page compression, UDF/TVF/UDA
//! extensibility, parallel plans) plus the paper's genomic data platform
//! and every experiment from its evaluation section.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`types`] — values, rows, schemas, errors
//! * [`storage`] — pages, heap files, B+-trees, compression, FileStream
//! * [`engine`] — iterator-model query processor and UDX contracts
//! * [`sql`] — T-SQL-subset parser and binder
//! * [`server`] — SQL wire server (length-prefixed protocol) and client
//! * [`bio`] — genomics substrate (FASTQ, simulation, alignment, consensus)
//! * [`core`] — the paper's platform: schemas, physical designs, queries
//!
//! ## Quick start
//!
//! ```
//! use seqdb::engine::Database;
//! use seqdb::sql::DatabaseSqlExt;
//!
//! let db = Database::in_memory();
//! db.execute_sql("CREATE TABLE t (id INT NOT NULL, seq VARCHAR(64))").unwrap();
//! db.execute_sql("INSERT INTO t VALUES (1, 'ACGT'), (2, 'GGTA')").unwrap();
//! let rows = db.query_sql("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(rows.rows[0][0], seqdb::types::Value::Int(2));
//! ```

#![deny(unsafe_code)]

pub use seqdb_bio as bio;
pub use seqdb_core as core;
pub use seqdb_engine as engine;
pub use seqdb_server as server;
pub use seqdb_sql as sql;
pub use seqdb_storage as storage;
pub use seqdb_types as types;
