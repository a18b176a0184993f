//! Criterion benches behind §5.2 (Table 3): the file-wrapping rungs of
//! `SELECT COUNT(*)` over a FASTQ lane.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};

use seqdb_bio::fastq::{ChunkedFastqParser, IoChunkSource, SimpleFastqReader};
use seqdb_core::baseline;
use seqdb_core::dataset::{DgeDataset, Scale};
use seqdb_core::udx::{self, DB_QUAL_ENCODING};
use seqdb_engine::Database;
use seqdb_sql::DatabaseSqlExt;

struct Setup {
    fastq: std::path::PathBuf,
    db: std::sync::Arc<Database>,
    n: u64,
}

fn setup() -> Setup {
    let dir = seqdb_bench::workspace_dir("crit-wrapping");
    let _ = std::fs::remove_dir_all(&dir);
    let ds = DgeDataset::generate(
        &dir,
        &Scale {
            genome_bp: 60_000,
            n_chromosomes: 3,
            n_reads: 5_000,
            seed: 77,
        },
    )
    .expect("dataset");
    let db = Database::in_memory();
    udx::register_udx(&db, None);
    seqdb_core::schema::create_filestream_schema(&db, "").unwrap();
    seqdb_core::import::import_filestream(&db, "", &ds.fastq_path, 855, 1).unwrap();
    Setup {
        fastq: ds.fastq_path.clone(),
        db,
        n: ds.reads.len() as u64,
    }
}

fn bench_wrapping(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("table3/count-star");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    g.warm_up_time(std::time::Duration::from_secs(1));

    g.bench_function("cmdline-chunked", |b| {
        b.iter(|| {
            let mut p =
                ChunkedFastqParser::new(IoChunkSource(std::fs::File::open(&s.fastq).unwrap()));
            let n = p.count_remaining().unwrap();
            assert_eq!(n, s.n);
            n
        })
    });

    g.bench_function("interpreted-procedure", |b| {
        b.iter(|| {
            let n = baseline::interpreted_count(&s.fastq).unwrap();
            assert_eq!(n, s.n);
            n
        })
    });

    g.bench_function("streamreader-procedure", |b| {
        b.iter(|| {
            let f = std::io::BufReader::new(std::fs::File::open(&s.fastq).unwrap());
            let mut r = SimpleFastqReader::new(f, DB_QUAL_ENCODING);
            let mut n = 0;
            while r.next_record().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, s.n);
            n
        })
    });

    g.bench_function("tvf-through-engine", |b| {
        b.iter(|| {
            let r =
                s.db.query_sql("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')")
                    .unwrap();
            assert_eq!(r.rows[0][0].as_int().unwrap() as u64, s.n);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_wrapping);
criterion_main!(benches);
