//! seqdb storage engine.
//!
//! Implements the storage-layer features of SQL Server 2008 that the paper
//! (*Röhm & Blakeley, CIDR 2009*) builds on:
//!
//! * slotted 8 KiB pages with heap files and a buffer pool ([`page`],
//!   [`heap`], [`buffer`], [`pager`]);
//! * **row compression** (variable-length numeric storage, §2.3.5) and
//!   **page compression** (per-page column-prefix + dictionary, §2.3.5)
//!   in [`rowfmt`] and [`pagec`];
//! * B+-tree clustered indexes used by the paper's parallel merge join
//!   (§5.3.3) in [`btree`];
//! * **FileStream BLOBs** (§2.3.6): database-managed files with streaming
//!   chunked access (`GetBytes` + `SequentialAccess` prefetch) in
//!   [`filestream`];
//! * spill-accounted temporary space for blocking operators ([`tempspace`]),
//!   which makes the "huge intermediate result on the temporary tablespace"
//!   of §5.3.3 measurable.

#![deny(unsafe_code)]

pub mod btree;
pub mod buffer;
pub mod counters;
pub mod crc32c;
pub mod durable;
pub mod fault;
pub mod filestream;
pub mod heap;
pub mod keycode;
pub mod page;
pub mod pagec;
pub mod pager;
pub mod rowfmt;
pub mod scrub;
pub mod sha256;
pub mod tempspace;
pub mod varint;
pub mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use counters::{
    emit_storage_event, install_trace_hook, storage_counters, waits, SpillTally, StorageCounters,
    StorageEvent, WaitClass, WaitSnapshot, WaitStats,
};
pub use durable::durable_replace;
pub use fault::{
    rot_file, FaultClock, FaultInjectingPageStore, FaultInjectingStream, FaultPlan, NetFate,
    PageRot,
};
pub use filestream::{BlobCheck, FileStreamReader, FileStreamStore};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pagec::PageContext;
pub use pager::{FilePager, MemPager, PageStore};
pub use rowfmt::Compression;
pub use scrub::Quarantine;
pub use tempspace::TempSpace;
pub use wal::WriteAheadLog;
