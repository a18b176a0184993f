//! Criterion benches behind §5.3.2 and Figures 7–9: script baselines vs
//! the engine's Query 1, and the parallel-aggregate DOP sweep.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use seqdb_core::baseline;
use seqdb_core::dataset::{DgeDataset, Scale};
use seqdb_core::queries;
use seqdb_core::workflow::{self, NORM};
use seqdb_engine::Database;

struct Setup {
    ds: DgeDataset,
    db: std::sync::Arc<Database>,
}

fn setup() -> Setup {
    let dir = seqdb_bench::workspace_dir("crit-binning");
    let _ = std::fs::remove_dir_all(&dir);
    let ds = DgeDataset::generate(
        &dir,
        &Scale {
            genome_bp: 80_000,
            n_chromosomes: 3,
            n_reads: 6_000,
            seed: 88,
        },
    )
    .expect("dataset");
    let db = Database::in_memory();
    workflow::load_dge_designs(&db, &ds).unwrap();
    Setup { ds, db }
}

fn bench_binning(c: &mut Criterion) {
    let s = setup();
    let out = s.ds.dir.join("bench_tags.txt");
    let mut g = c.benchmark_group("e1/binning");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    g.warm_up_time(std::time::Duration::from_secs(1));

    g.bench_function("compiled-script", |b| {
        b.iter(|| {
            baseline::binning_script(&s.ds.fastq_path, &out)
                .unwrap()
                .0
                .len()
        })
    });
    g.bench_function("interpreted-script", |b| {
        b.iter(|| {
            baseline::interpreted_binning_script(&s.ds.fastq_path, &out)
                .unwrap()
                .0
                .len()
        })
    });
    for dop in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("sql-query1-dop", dop), &dop, |b, &dop| {
            s.db.set_max_dop(dop);
            b.iter(|| queries::run_query1(&s.db, NORM).unwrap().rows.len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_binning);
criterion_main!(benches);
