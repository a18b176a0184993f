//! Failure injection and model-based property tests across crates.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use seqdb::engine::Database;
use seqdb::sql::DatabaseSqlExt;
use seqdb::storage::fault::FaultInjectingWalBackend;
use seqdb::storage::page::{PageId, PageType};
use seqdb::storage::wal::MemWalBackend;
use seqdb::storage::{
    BTree, BufferPool, Compression, FaultClock, FaultInjectingPageStore, FaultPlan, HeapFile,
    MemPager, Page, PageStore, WriteAheadLog, PAGE_SIZE,
};
use seqdb::types::{Column, DataType, DbError, Row, Schema, Value};

mod common;
use common::fault_seed;

// ----------------------------------------------------------------------
// Failure injection
// ----------------------------------------------------------------------

#[test]
fn corrupt_page_magic_is_an_error_not_a_panic() {
    // Garbage fails the checksum before the magic is even looked at.
    let raw = vec![0xAAu8; PAGE_SIZE].into_boxed_slice();
    assert!(matches!(Page::from_bytes(raw), Err(DbError::Corruption(_))));
    // A sealed page with a bad magic is caught by the magic check itself.
    let mut forged = vec![0xAAu8; PAGE_SIZE];
    Page::seal_buf(&mut forged);
    assert!(matches!(
        Page::from_bytes(forged.into_boxed_slice()),
        Err(DbError::Corruption(_))
    ));
    let short = vec![0u8; 100].into_boxed_slice();
    assert!(Page::from_bytes(short).is_err());
}

#[test]
fn deleted_blob_surfaces_as_not_found_in_sql() {
    let db = Database::in_memory();
    seqdb::core::udx::register_udx(&db, None);
    seqdb::core::schema::create_filestream_schema(&db, "").unwrap();
    let fq = b"@r1\nACGT\n+\nIIII\n";
    let guid = db.filestream().insert(fq).unwrap();
    db.catalog()
        .table("ShortReadFiles")
        .unwrap()
        .insert(&seqdb::types::Row::new(vec![
            Value::guid(guid),
            Value::Int(1),
            Value::Int(1),
            Value::guid(guid),
        ]))
        .unwrap();
    // Works before deletion...
    let r = db
        .query_sql("SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    // ...then the blob vanishes behind the database's back.
    db.filestream().delete(guid).unwrap();
    let err = db
        .query_sql("SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')")
        .unwrap_err();
    assert!(matches!(err, DbError::NotFound(_)), "{err}");
}

#[test]
fn malformed_blob_content_fails_cleanly() {
    let db = Database::in_memory();
    seqdb::core::udx::register_udx(&db, None);
    seqdb::core::schema::create_filestream_schema(&db, "").unwrap();
    // Not FASTQ at all.
    let guid = db.filestream().insert(b"this is not fastq").unwrap();
    db.catalog()
        .table("ShortReadFiles")
        .unwrap()
        .insert(&seqdb::types::Row::new(vec![
            Value::guid(guid),
            Value::Int(2),
            Value::Int(1),
            Value::guid(guid),
        ]))
        .unwrap();
    let err = db
        .query_sql("SELECT COUNT(*) FROM ListShortReads(2, 1, 'FastQ')")
        .unwrap_err();
    assert!(matches!(err, DbError::InvalidData(_)), "{err}");
}

#[test]
fn udf_errors_propagate_through_queries() {
    let db = Database::in_memory();
    db.execute_sql_script(
        "CREATE TABLE t (x INT);
         INSERT INTO t VALUES (1), (0);",
    )
    .unwrap();
    // Division by zero in the projection of the second row.
    let err = db.query_sql("SELECT 10 / x FROM t").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

// ----------------------------------------------------------------------
// Crash recovery
//
// A deterministic checkpointing workload runs on top of fault-injecting
// devices (page store + WAL backend sharing one FaultClock). The inner
// MemPager / MemWalBackend play the durable medium: whatever survived the
// simulated power loss. "Reboot" means replaying the WAL into the raw
// disks with no faults and re-opening the structures, exactly like
// `Database::open` does.
// ----------------------------------------------------------------------

/// Page id of the "catalog" heap the crash workload bootstraps first.
const META_PAGE: PageId = 0;

fn crash_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("k", DataType::Int).not_null(),
        Column::new("v", DataType::Int).not_null(),
    ]))
}

fn meta_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Column::new("heap_first", DataType::Int).not_null(),
        Column::new("tree_root", DataType::Int).not_null(),
    ]))
}

/// Deterministic value for a key, so recovered rows can be checked
/// without carrying the whole dataset around.
fn val_for(seed: u64, k: u16) -> u8 {
    let mut x = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x >> 16) as u8
}

struct CrashRun {
    /// Keys covered by the last checkpoint that reported success.
    acked: Vec<u16>,
    /// Every key whose insert reported success (durable or not).
    attempted: Vec<u16>,
    /// Syncs the device performed over the whole run.
    syncs: u64,
}

/// Insert `batches * batch_len` rows into a heap plus a B+-tree index,
/// checkpointing after every batch, until the work finishes or the device
/// crashes. The index root is recorded in a meta heap *before* each
/// checkpoint so it is covered by the same WAL commit batch — the same
/// way a real catalog page would be.
fn run_crash_workload(
    data_disk: Arc<MemPager>,
    wal_disk: Arc<MemWalBackend>,
    seed: u64,
    batches: u16,
    batch_len: u16,
    crash_after: Option<u64>,
) -> CrashRun {
    let clock = FaultClock::new(FaultPlan {
        seed,
        crash_after_syncs: crash_after,
        ..FaultPlan::none()
    });
    let store: Arc<dyn PageStore> =
        Arc::new(FaultInjectingPageStore::new(data_disk, clock.clone()));
    let wal = Arc::new(WriteAheadLog::new(Box::new(FaultInjectingWalBackend::new(
        wal_disk,
        clock.clone(),
    ))));
    // Capacity is larger than the workload's page count: dirty pages only
    // reach the disk through checkpoints, never through evictions, so the
    // durable state is always some checkpoint prefix of the workload.
    let pool = BufferPool::with_wal(store, 256, wal);

    let mut out = CrashRun {
        acked: Vec::new(),
        attempted: Vec::new(),
        syncs: 0,
    };
    let _ = (|| -> Result<(), DbError> {
        let meta = HeapFile::create(pool.clone(), meta_schema(), Compression::None)?;
        assert_eq!(meta.first_page(), META_PAGE);
        let heap = HeapFile::create(pool.clone(), crash_schema(), Compression::None)?;
        let tree = BTree::create(pool.clone())?;
        let mut pending: Vec<u16> = Vec::new();
        for b in 0..batches {
            for i in 0..batch_len {
                let k = b * batch_len + i;
                let v = val_for(seed, k);
                heap.insert(&Row::new(vec![Value::Int(k as i64), Value::Int(v as i64)]))?;
                tree.insert(&k.to_be_bytes(), &[v])?;
                out.attempted.push(k);
                pending.push(k);
            }
            meta.insert(&Row::new(vec![
                Value::Int(heap.first_page() as i64),
                Value::Int(tree.root_page() as i64),
            ]))?;
            pool.checkpoint()?;
            out.acked.append(&mut pending);
        }
        Ok(())
    })();
    out.syncs = clock.sync_count();
    out
}

/// Reboot after (a possible) power loss: replay the WAL into the raw
/// disks, re-open everything, and check every invariant we can.
fn verify_crash_recovery(
    data_disk: Arc<MemPager>,
    wal_disk: Arc<MemWalBackend>,
    seed: u64,
    run: &CrashRun,
) {
    let wal = Arc::new(WriteAheadLog::new(Box::new(wal_disk)));
    wal.recover_into(data_disk.as_ref()).unwrap();

    // A database that never got a checkpoint to disk has nothing to
    // recover — its meta page is still unwritten. Nothing may have been
    // acked in that case.
    let no_checkpoint = data_disk.num_pages() == 0 || {
        let mut buf = vec![0u8; PAGE_SIZE];
        data_disk.read_page(META_PAGE, &mut buf).unwrap();
        buf.iter().all(|&b| b == 0)
    };
    if no_checkpoint {
        assert!(
            run.acked.is_empty(),
            "a checkpoint was acked but nothing is durable"
        );
        return;
    }

    let pool = BufferPool::with_wal(data_disk, 256, wal);
    let meta = HeapFile::open(pool.clone(), meta_schema(), Compression::None, META_PAGE).unwrap();
    let last = meta.scan().map(|r| r.unwrap().1).last().unwrap();
    let heap_first = last[0].as_int().unwrap() as PageId;
    let tree_root = last[1].as_int().unwrap() as PageId;

    // Every recovered heap page must pass its checksum and decode, and
    // every row must hold the value that was originally written.
    let heap = HeapFile::open(pool.clone(), crash_schema(), Compression::None, heap_first).unwrap();
    let mut recovered = std::collections::BTreeMap::new();
    for r in heap.scan() {
        let (_, row) = r.unwrap();
        let k = row[0].as_int().unwrap() as u16;
        let v = row[1].as_int().unwrap() as u8;
        assert_eq!(v, val_for(seed, k), "row for key {k} has a wrong value");
        assert!(recovered.insert(k, v).is_none(), "key {k} recovered twice");
    }

    // Durability: everything acked by a successful checkpoint survived...
    for k in &run.acked {
        assert!(
            recovered.contains_key(k),
            "acked key {k} lost after recovery"
        );
    }
    // ...and nothing appears that was never inserted.
    let attempted: std::collections::BTreeSet<u16> = run.attempted.iter().copied().collect();
    for k in recovered.keys() {
        assert!(attempted.contains(k), "phantom key {k} after recovery");
    }

    // The index recovered to the same checkpoint as the heap: same keys,
    // same values, in order.
    let tree = BTree::open(pool, tree_root).unwrap();
    let scanned: Vec<(u16, u8)> = tree
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .map(|e| {
            let (k, v) = e.unwrap();
            (u16::from_be_bytes(k.try_into().unwrap()), v[0])
        })
        .collect();
    let expect: Vec<(u16, u8)> = recovered.into_iter().collect();
    assert_eq!(scanned, expect, "index and heap disagree after recovery");
}

#[test]
fn crash_recovery_at_every_sync_point() {
    const SEED: u64 = 0xC1D2_2009;
    // A fault-free run to learn the sync schedule (and sanity-check the
    // harness end to end).
    let total_syncs = {
        let data = Arc::new(MemPager::new());
        let wal = Arc::new(MemWalBackend::new());
        let run = run_crash_workload(data.clone(), wal.clone(), SEED, 6, 9, None);
        assert_eq!(run.acked.len(), 54, "fault-free run must ack everything");
        verify_crash_recovery(data, wal, SEED, &run);
        run.syncs
    };
    assert!(
        total_syncs >= 12,
        "expected at least two syncs per checkpoint, saw {total_syncs}"
    );
    // Now pull the power at every single sync point of that schedule.
    for k in 0..total_syncs {
        let data = Arc::new(MemPager::new());
        let wal = Arc::new(MemWalBackend::new());
        let run = run_crash_workload(data.clone(), wal.clone(), SEED, 6, 9, Some(k));
        assert!(
            run.acked.len() < run.attempted.len() || run.attempted.len() == 54,
            "crash at sync {k} produced an impossible ack pattern"
        );
        verify_crash_recovery(data, wal, SEED, &run);
    }
}

/// Double crash: the machine dies again *during* WAL replay, at every
/// workload crash point. The half-applied replay (each replayed page
/// independently lands whole, torn, or not at all) must be fully
/// converged by the second, clean replay — recovery is idempotent
/// because the log is only truncated after the data store syncs.
#[test]
fn crash_during_wal_replay_second_replay_converges() {
    const SEED: u64 = 0xD0B2_2026;
    let total_syncs = {
        let data = Arc::new(MemPager::new());
        let wal = Arc::new(MemWalBackend::new());
        let run = run_crash_workload(data.clone(), wal.clone(), SEED, 6, 9, None);
        verify_crash_recovery(data, wal, SEED, &run);
        run.syncs
    };
    for k in 0..total_syncs {
        let data = Arc::new(MemPager::new());
        let wal_disk = Arc::new(MemWalBackend::new());
        let run = run_crash_workload(data.clone(), wal_disk.clone(), SEED, 6, 9, Some(k));

        // First recovery attempt: the replay target crashes on its own
        // sync, so the replayed pages are scattered — some whole, some
        // torn, some lost — and the log is left un-truncated.
        let replay_clock = FaultClock::new(FaultPlan {
            seed: SEED ^ k,
            crash_after_syncs: Some(0),
            ..FaultPlan::none()
        });
        let faulty_target = FaultInjectingPageStore::new(data.clone(), replay_clock);
        let wal = WriteAheadLog::new(Box::new(wal_disk.clone()));
        match wal.recover_into(&faulty_target) {
            Ok(n) => assert_eq!(n, 0, "a non-empty replay must hit the crashed sync"),
            Err(e) => assert!(e.to_string().contains("injected crash"), "{e}"),
        }

        // Second reboot: the clean replay rewrites every logged page, so
        // whatever the interrupted replay tore is healed and all the
        // usual recovery invariants hold.
        verify_crash_recovery(data, wal_disk, SEED, &run);
    }
}

// ----------------------------------------------------------------------
// Model-based property tests
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u8),
    Delete(u16),
    Get(u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| TreeOp::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| TreeOp::Delete(k % 512)),
        any::<u16>().prop_map(|k| TreeOp::Get(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flipping any single byte anywhere in a sealed page image — header,
    /// record data, free space or the checksum field itself — must surface
    /// as `DbError::Corruption` when the page is read back.
    #[test]
    fn any_single_byte_flip_is_detected(
        pos in 0usize..PAGE_SIZE,
        flip in 1u8..=255u8,
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            0..8,
        ),
    ) {
        let mut page = Page::new(PageType::Heap);
        for rec in &records {
            page.insert(rec);
        }
        page.set_next_page(42);
        let good = page.to_bytes();
        prop_assert!(Page::from_bytes(good.clone()).is_ok());
        let mut bad = good;
        bad[pos] ^= flip;
        prop_assert!(matches!(
            Page::from_bytes(bad),
            Err(DbError::Corruption(_))
        ));
    }

    /// Crash at a random sync point of a randomized workload: whatever a
    /// checkpoint acked must be durable; heap and index must agree.
    #[test]
    fn committed_data_survives_random_crash_points(
        seed in any::<u64>(),
        crash_after in 0u64..16,
        batches in 2u16..7,
        batch_len in 1u16..12,
    ) {
        let data = Arc::new(MemPager::new());
        let wal = Arc::new(MemWalBackend::new());
        let run = run_crash_workload(
            data.clone(), wal.clone(), seed, batches, batch_len, Some(crash_after),
        );
        verify_crash_recovery(data, wal, seed, &run);
    }

    #[test]
    fn btree_matches_std_btreemap(ops in proptest::collection::vec(tree_op(), 1..300)) {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 128);
        let tree = BTree::create(pool).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let old = tree.insert(&k.to_be_bytes(), &[v]).unwrap();
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old.map(|o| o[0]), model_old);
                }
                TreeOp::Delete(k) => {
                    let got = tree.delete(&k.to_be_bytes()).unwrap();
                    let model_got = model.remove(&k);
                    prop_assert_eq!(got.map(|o| o[0]), model_got);
                }
                TreeOp::Get(k) => {
                    let got = tree.get(&k.to_be_bytes()).unwrap();
                    prop_assert_eq!(got.map(|o| o[0]), model.get(&k).copied());
                }
            }
        }
        // Final full ordered scan matches the model.
        let scanned: Vec<(u16, u8)> = tree
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|e| {
                let (k, v) = e.unwrap();
                (u16::from_be_bytes(k.try_into().unwrap()), v[0])
            })
            .collect();
        let expect: Vec<(u16, u8)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    #[test]
    fn sql_roundtrip_across_compression_modes(
        rows in proptest::collection::vec(
            (0i64..100_000, "[ACGTN]{1,64}", any::<bool>()),
            1..60,
        )
    ) {
        // De-duplicate keys (primary key).
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<_> = rows
            .into_iter()
            .filter(|(k, _, _)| seen.insert(*k))
            .collect();
        for comp in ["NONE", "ROW", "PAGE"] {
            let db = Database::in_memory();
            db.execute_sql(&format!(
                "CREATE TABLE t (id INT PRIMARY KEY, seq VARCHAR(64), flag INT)
                 WITH (DATA_COMPRESSION = {comp})"
            ))
            .unwrap();
            for (id, seq, flag) in &rows {
                db.execute_sql(&format!(
                    "INSERT INTO t VALUES ({id}, '{seq}', {})",
                    *flag as i64
                ))
                .unwrap();
            }
            let r = db.query_sql("SELECT id, seq, flag FROM t ORDER BY id").unwrap();
            prop_assert_eq!(r.rows.len(), rows.len());
            let mut sorted = rows.clone();
            sorted.sort_by_key(|(k, _, _)| *k);
            for (row, (id, seq, flag)) in r.rows.iter().zip(&sorted) {
                prop_assert_eq!(&row[0], &Value::Int(*id));
                prop_assert_eq!(&row[1], &Value::text(seq.as_str()));
                prop_assert_eq!(&row[2], &Value::Int(*flag as i64));
            }
        }
    }

    #[test]
    fn group_by_matches_handrolled_aggregation(
        rows in proptest::collection::vec((0i64..8, -100i64..100), 0..120)
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE t (g INT, v INT)").unwrap();
        for (g, v) in &rows {
            db.execute_sql(&format!("INSERT INTO t VALUES ({g}, {v})")).unwrap();
        }
        let r = db
            .query_sql("SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        let mut model: std::collections::BTreeMap<i64, (i64, i64, i64, i64)> =
            std::collections::BTreeMap::new();
        for (g, v) in &rows {
            let e = model.entry(*g).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(*v);
            e.3 = e.3.max(*v);
        }
        prop_assert_eq!(r.rows.len(), model.len());
        for (row, (g, (n, s, mn, mx))) in r.rows.iter().zip(model) {
            prop_assert_eq!(&row[0], &Value::Int(g));
            prop_assert_eq!(&row[1], &Value::Int(n));
            prop_assert_eq!(&row[2], &Value::Int(s));
            prop_assert_eq!(&row[3], &Value::Int(mn));
            prop_assert_eq!(&row[4], &Value::Int(mx));
        }
    }

    #[test]
    fn order_by_is_a_permutation_and_sorted(
        vals in proptest::collection::vec(-1000i64..1000, 0..200)
    ) {
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE t (v INT)").unwrap();
        for v in &vals {
            db.execute_sql(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let r = db.query_sql("SELECT v FROM t ORDER BY v DESC").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        let mut expect = vals.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, expect);
    }
}

// ----------------------------------------------------------------------
// Seeded fault injection on the import path
// ----------------------------------------------------------------------

/// The FASTQ bulk-import either completes (transient faults absorbed by
/// the FileStream write-retry path) or fails cleanly — never a torn blob,
/// an orphan blob without its catalog row, or a catalog row without its
/// blob. Every fault period is checked under the seed-shifted schedule.
#[test]
fn fastq_import_under_faults_completes_or_fails_cleanly() {
    let seed = fault_seed();
    let dir = std::env::temp_dir().join(format!("seqdb-import-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fastq = dir.join("lane.fastq");
    let mut payload = Vec::new();
    for i in 0..200u32 {
        payload.extend_from_slice(format!("@r{i}\nACGTACGTACGT\n+\nIIIIIIIIIIII\n").as_bytes());
    }
    std::fs::write(&fastq, &payload).unwrap();

    let db = Database::in_memory();
    seqdb::core::udx::register_udx(&db, None);
    seqdb::core::schema::create_filestream_schema(&db, "").unwrap();
    let mut successes: Vec<i64> = Vec::new();
    for period in 1..=5u64 {
        let clock = FaultClock::new(FaultPlan {
            io_error_every: Some(period),
            ..FaultPlan::none()
        });
        // The seed shifts where this import lands on the fault schedule.
        for _ in 0..(seed % 4) {
            let _ = clock.inject_op();
        }
        db.filestream().set_fault_clock(Some(clock));
        match seqdb::core::import::import_filestream(&db, "", &fastq, period as i64, 1) {
            Ok(()) => successes.push(period as i64),
            Err(e) => assert!(matches!(e, DbError::Io(_)), "unexpected error type: {e}"),
        }
        db.filestream().set_fault_clock(None);

        // Invariants hold after every attempt, success or failure.
        let rows = db.catalog().table("ShortReadFiles").unwrap().row_count();
        assert_eq!(rows, successes.len() as u64, "no partial rows");
        let mut blobs = 0u64;
        let mut temps = 0u64;
        for entry in std::fs::read_dir(db.filestream().root()).unwrap() {
            match entry.unwrap().path().extension().and_then(|e| e.to_str()) {
                Some("blob") => blobs += 1,
                Some("tmp") => temps += 1,
                _ => {}
            }
        }
        assert_eq!(blobs, rows, "no orphan blobs, no rows without blobs");
        assert_eq!(temps, 0, "no temp files left behind");
        assert_eq!(
            db.filestream().total_bytes().unwrap(),
            rows * payload.len() as u64,
            "every stored blob is byte-complete"
        );
    }
    // Period 1 (every op fails) must fail; generous periods must recover
    // via retries — both paths are exercised in one run.
    assert!(
        !successes.is_empty() && successes.len() < 5,
        "expected a mix of clean failures and retried successes, got {successes:?}"
    );
    assert!(
        db.filestream().write_retries() > 0,
        "retries must have fired"
    );
    // A blob that survived faults still parses as FASTQ end to end.
    let r = db
        .query_sql(&format!(
            "SELECT COUNT(*) FROM ListShortReads({}, 1, 'FastQ')",
            successes[0]
        ))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
    std::fs::remove_dir_all(&dir).unwrap();
}
