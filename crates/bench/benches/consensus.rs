//! Criterion benches behind §5.3.3 and Figure 10: merge-join
//! throughput and the three consensus plans (hash-grouped pivot,
//! sort-based pivot with tempdb spills, sliding-window UDA).

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};

use seqdb_core::dataset::{ResequencingDataset, Scale};
use seqdb_core::queries;
use seqdb_core::workflow::{self, NORM};
use seqdb_engine::Database;

struct Setup {
    db: std::sync::Arc<Database>,
    n_alignments: usize,
}

fn setup() -> Setup {
    let dir = seqdb_bench::workspace_dir("crit-consensus");
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ResequencingDataset::generate(
        &dir,
        &Scale {
            genome_bp: 60_000,
            n_chromosomes: 3,
            n_reads: 6_000,
            seed: 66,
        },
    )
    .expect("dataset");
    let db = Database::in_memory();
    workflow::load_reseq_designs(&db, &ds).unwrap();
    Setup {
        db,
        n_alignments: ds.alignments.len(),
    }
}

fn bench_consensus(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("e2/consensus");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    g.warm_up_time(std::time::Duration::from_secs(1));

    g.bench_function("merge-join-throughput", |b| {
        b.iter(|| {
            let n = queries::run_merge_join(&s.db, NORM).unwrap();
            assert_eq!(n as usize, s.n_alignments);
            n
        })
    });
    g.bench_function("pivot-hash-grouping", |b| {
        b.iter(|| queries::run_query3_pivot(&s.db, NORM).unwrap().len())
    });
    g.bench_function("pivot-external-sort", |b| {
        b.iter(|| queries::run_query3_pivot_sorted(&s.db, NORM).unwrap().len())
    });
    g.bench_function("sliding-window-uda", |b| {
        b.iter(|| queries::run_query3_sliding(&s.db, NORM).unwrap().len())
    });
    g.finish();
}

criterion_group!(benches, bench_consensus);
criterion_main!(benches);
