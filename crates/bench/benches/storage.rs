//! Criterion benches behind Tables 1 and 2: import throughput and scan
//! cost per physical design / compression setting, plus the 2-bit
//! sequence-packing ablation the paper proposes in §6.1, plus the cost of
//! the write-ahead log on the insert+checkpoint path.

#![deny(unsafe_code)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use seqdb_bio::dna::PackedSeq;
use seqdb_core::dataset::{DgeDataset, Scale};
use seqdb_core::import;
use seqdb_engine::Database;
use seqdb_storage::rowfmt::Compression;
use seqdb_storage::{BufferPool, FilePager, HeapFile, WriteAheadLog};
use seqdb_types::{Column, DataType, Row, Schema, Value};

fn dataset() -> DgeDataset {
    let dir = seqdb_bench::workspace_dir("crit-storage");
    let _ = std::fs::remove_dir_all(&dir);
    DgeDataset::generate(
        &dir,
        &Scale {
            genome_bp: 80_000,
            n_chromosomes: 3,
            n_reads: 4_000,
            seed: 55,
        },
    )
    .expect("dataset")
}

fn bench_import(c: &mut Criterion) {
    let ds = dataset();
    let mut g = c.benchmark_group("table1/import");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for (label, comp) in [
        ("normalized", Compression::None),
        ("norm+row", Compression::Row),
        ("norm+page", Compression::Page),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &comp, |b, &comp| {
            b.iter(|| {
                let db = Database::in_memory();
                import::import_dge_normalized(&db, "", comp, &ds).unwrap();
                db.catalog().table("Read").unwrap().heap.allocated_bytes()
            })
        });
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let ds = dataset();
    let mut g = c.benchmark_group("table1/scan");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(5));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for (label, comp) in [
        ("normalized", Compression::None),
        ("norm+row", Compression::Row),
        ("norm+page", Compression::Page),
    ] {
        let db = Database::in_memory();
        import::import_dge_normalized(&db, "", comp, &ds).unwrap();
        let table = db.catalog().table("Read").unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(label), &table, |b, table| {
            b.iter(|| {
                let mut n = 0u64;
                for item in table.heap.scan() {
                    item.unwrap();
                    n += 1;
                }
                n
            })
        });
    }
    g.finish();
}

fn bench_seq_packing(c: &mut Criterion) {
    // §6.1 ablation: text vs 2-bit packed sequence storage.
    let ds = dataset();
    let mut g = c.benchmark_group("ablation/sequence-encoding");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(5));
    g.warm_up_time(std::time::Duration::from_secs(1));
    let seqs: Vec<&str> = ds.reads.iter().map(|r| r.seq.as_str()).take(2000).collect();
    g.bench_function("text", |b| {
        b.iter(|| seqs.iter().map(|s| s.len()).sum::<usize>())
    });
    g.bench_function("packed-2bit", |b| {
        b.iter(|| {
            seqs.iter()
                .map(|s| PackedSeq::from_str(s).unwrap().packed_bytes())
                .sum::<usize>()
        })
    });
    // Size ratio printed once for the record.
    let text: usize = seqs.iter().map(|s| s.len()).sum();
    let packed: usize = seqs
        .iter()
        .map(|s| PackedSeq::from_str(s).unwrap().packed_bytes())
        .sum();
    eprintln!(
        "sequence bytes: text {text}, packed {packed} ({:.2}x smaller)",
        text as f64 / packed as f64
    );
    g.finish();
}

fn bench_wal_overhead(c: &mut Criterion) {
    // Cost of crash safety: 2000 heap inserts with a checkpoint every 500
    // rows, against a file-backed pager, with and without the WAL. The
    // WAL run pays one log append per dirty page plus an fsync per
    // checkpoint before the in-place writes start.
    let dir = seqdb_bench::workspace_dir("crit-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let schema = Arc::new(Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("seq", DataType::Text),
    ]));
    let rows: Vec<Row> = (0..2000)
        .map(|i| Row::new(vec![Value::Int(i), Value::text("ACGTACGTACGTACGTACGT")]))
        .collect();
    let mut g = c.benchmark_group("durability/insert+checkpoint");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(5));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for wal_on in [false, true] {
        let label = if wal_on { "wal" } else { "no-wal" };
        let mut iter_no = 0u32;
        g.bench_function(label, |b| {
            b.iter(|| {
                iter_no += 1;
                let data = dir.join(format!("{label}-{iter_no}.data"));
                let pager = Arc::new(FilePager::open(&data).expect("pager"));
                let pool = if wal_on {
                    let wal_path = dir.join(format!("{label}-{iter_no}.wal"));
                    let wal = Arc::new(WriteAheadLog::open_file(&wal_path).expect("wal"));
                    BufferPool::with_wal(pager, 256, wal)
                } else {
                    BufferPool::new(pager, 256)
                };
                let heap =
                    HeapFile::create(pool.clone(), schema.clone(), Compression::None).unwrap();
                for (i, row) in rows.iter().enumerate() {
                    heap.insert(row).unwrap();
                    if (i + 1) % 500 == 0 {
                        pool.checkpoint().unwrap();
                    }
                }
                heap.row_count()
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_import,
    bench_scan,
    bench_seq_packing,
    bench_wal_overhead
);
criterion_main!(benches);
