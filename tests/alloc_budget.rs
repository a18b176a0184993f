//! Heap allocations per scanned row of the paper's analysis queries: a
//! cost that, unlike a stopwatch, a noisy machine cannot blur.
//!
//! A counting global allocator tallies every allocation the calling
//! thread makes. The queries run under `SET MAX_DOP = 1`, so their whole
//! plan runs on that thread and parallel test threads do not mix into
//! the count. Each query runs once to warm up, then once counted.
//!
//! The bounds sit between what row-at-a-time batches cost (a `Vec` per
//! row and an `Arc` per text cell crossing each operator) and what the
//! column batches cost; `cargo test --release --test alloc_budget -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use seqdb::core::dataset::{DgeDataset, ResequencingDataset, Scale};
use seqdb::core::{import, queries, udx};
use seqdb::engine::{Database, Session};
use seqdb::sql::SessionSqlExt;
use seqdb::storage::Compression;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const DGE: &str = "_dge";
const RESEQ: &str = "_rs";

struct Fixture {
    db: Arc<Database>,
    session: Session,
    _dir: TempDir,
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fixture() -> Fixture {
    let dir = std::env::temp_dir().join(format!("seqdb-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scale = |n_reads, seed| Scale {
        genome_bp: 60_000,
        n_chromosomes: 3,
        n_reads,
        seed,
    };
    let dge = DgeDataset::generate(&dir.join("dge"), &scale(3_000, 1)).unwrap();
    let reseq = ResequencingDataset::generate(&dir.join("reseq"), &scale(1_500, 7)).unwrap();
    let db = Database::in_memory();
    udx::register_udx(&db, None);
    import::import_dge_normalized(&db, DGE, Compression::None, &dge).unwrap();
    import::import_reseq_normalized(&db, RESEQ, Compression::None, &reseq).unwrap();
    let session = db.create_session();
    session.query_sql("SET MAX_DOP = 1").unwrap();
    Fixture {
        db,
        session,
        _dir: TempDir(dir),
    }
}

impl Fixture {
    fn rows(&self, table: &str) -> u64 {
        self.db.catalog().table(table).unwrap().row_count()
    }

    /// Warm `sql` up, then count one more run's allocations per row of
    /// the tables it scans.
    fn per_scanned_row(&self, sql: &str, tables: &[&str]) -> f64 {
        self.session.query_sql(sql).unwrap();
        let n = allocations(|| {
            self.session.query_sql(sql).unwrap();
        });
        let scanned: u64 = tables.iter().map(|t| self.rows(t)).sum();
        let per_row = n as f64 / scanned as f64;
        eprintln!("{n} allocations over {scanned} scanned rows ({per_row:.3}/row): {sql}");
        per_row
    }
}

#[test]
fn analysis_queries_stay_within_their_allocation_budget() {
    let f = fixture();
    let read = format!("Read{DGE}");
    let q1 = f.per_scanned_row(&queries::query1_sql(DGE), &[&read]);
    let q2_sql = queries::query2_sql(DGE);
    let q2 = q2_sql[q2_sql.find("SELECT").unwrap()..].to_string();
    let q2 = f.per_scanned_row(&q2, &[&format!("Alignment{DGE}"), &format!("Tag{DGE}")]);
    let reseq = [format!("Read{RESEQ}"), format!("Alignment{RESEQ}")];
    let reseq: Vec<&str> = reseq.iter().map(String::as_str).collect();
    let q3 = f.per_scanned_row(&queries::query3_sliding_sql(RESEQ), &reseq);
    let merge = f.per_scanned_row(&queries::merge_join_sql(RESEQ), &reseq);
    // Row batches cost 2.9, 2.3, 3.7 and 1.6 allocations per scanned row
    // here. What remains is mostly per group and per result row.
    assert!(q1 < 2.0, "Query 1: {q1:.3} allocations per scanned row");
    assert!(q2 < 1.5, "Query 2: {q2:.3} allocations per scanned row");
    assert!(q3 < 1.0, "Query 3: {q3:.3} allocations per scanned row");
    assert!(
        merge < 0.5,
        "merge join: {merge:.3} allocations per scanned row"
    );
}
