//! Cross-crate integration: both of the paper's scenarios end to end
//! through the public `seqdb` facade.

use seqdb::core::dataset::{DgeDataset, ResequencingDataset, Scale};
use seqdb::core::{queries, workflow};
use seqdb::engine::Database;
use seqdb::sql::DatabaseSqlExt;
use seqdb::types::Value;

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("seqdb-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_scale() -> Scale {
    Scale {
        genome_bp: 60_000,
        n_chromosomes: 3,
        n_reads: 2_500,
        seed: 1234,
    }
}

#[test]
fn dge_scenario_end_to_end() {
    let dir = tmp("dge");
    let ds = DgeDataset::generate(&dir, &small_scale()).unwrap();
    let db = Database::in_memory();
    workflow::load_dge_designs(&db, &ds).unwrap();

    // Query 1 matches the dataset ground truth exactly.
    let q1 = queries::run_query1(&db, workflow::NORM).unwrap();
    queries::check_query1_against(&q1, &ds.unique_tags).unwrap();

    // Query 2 reproduces the dataset's gene expression result.
    let n = queries::run_query2(&db, workflow::NORM).unwrap();
    assert_eq!(n, ds.gene_expression.len() as u64);
    let top = db
        .query_sql(
            "SELECT x_g_id, total_frequency, tag_count
             FROM GeneExpression ORDER BY total_frequency DESC, x_g_id",
        )
        .unwrap();
    let expect = &ds.gene_expression[0];
    assert_eq!(top.rows[0][0], Value::Int(expect.0 as i64));
    assert_eq!(top.rows[0][1], Value::Int(expect.1 as i64));
    assert_eq!(top.rows[0][2], Value::Int(expect.2 as i64));

    // The storage report covers every design for every artifact.
    let report = workflow::dge_storage_report(&db, &ds).unwrap();
    for artifact in [
        "short reads",
        "unique tags",
        "alignments",
        "gene expression",
    ] {
        for design in workflow::DESIGNS {
            // The bit-packed design only applies to sequence payloads.
            if design == "norm+bitpack" && artifact != "short reads" {
                continue;
            }
            assert!(
                report.get(artifact, design).is_some(),
                "{artifact}/{design} missing"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resequencing_scenario_end_to_end() {
    let dir = tmp("reseq");
    let ds = ResequencingDataset::generate(&dir, &small_scale()).unwrap();
    let db = Database::in_memory();
    workflow::load_reseq_designs(&db, &ds).unwrap();

    // Merge join counts every alignment exactly once.
    let n = queries::run_merge_join(&db, workflow::NORM).unwrap();
    assert_eq!(n, ds.alignments.len() as i64);

    // All three consensus plans agree.
    let (consensus, spill) = workflow::run_consensus_both_ways(&db).unwrap();
    assert!(!consensus.is_empty());
    // The sort-based pivot wrote a pivoted intermediate through tempdb
    // with the default (large) budget it may fit in memory; assert only
    // that accounting is consistent (non-negative is implicit in u64).
    let _ = spill;

    // The hybrid FileStream path sees the same read count as the
    // relational import.
    let r = db
        .query_sql("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(ds.reads.len() as i64));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn consensus_spills_under_tight_memory_grant() {
    let dir = tmp("spill");
    let ds = ResequencingDataset::generate(
        &dir,
        &Scale {
            genome_bp: 30_000,
            n_chromosomes: 2,
            n_reads: 3_000,
            seed: 8,
        },
    )
    .unwrap();
    let db = Database::in_memory();
    workflow::load_reseq_designs(&db, &ds).unwrap();
    db.temp().reset_counters();
    // A 256 KiB query budget forces the external sort to spill. The
    // operators below it hold most of that budget, so most rows become
    // runs of their own (≈37 000 spill files): only a merge in tiers keeps
    // the open files bounded.
    db.set_query_memory_limit_kb(Some(256));
    let sorted = queries::run_query3_pivot_sorted(&db, workflow::NORM);
    db.set_query_memory_limit_kb(None);
    let sorted = sorted.unwrap();
    assert!(!sorted.is_empty());
    assert!(
        db.temp().bytes_written() > 1_000_000,
        "pivoted intermediate should spill: {} bytes",
        db.temp().bytes_written()
    );
    let sliding = queries::run_query3_sliding(&db, workflow::NORM).unwrap();
    assert_eq!(sorted, sliding);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parallel_and_serial_query1_agree() {
    let dir = tmp("dop");
    let ds = DgeDataset::generate(&dir, &small_scale()).unwrap();
    let db = Database::in_memory();
    workflow::load_dge_designs(&db, &ds).unwrap();

    db.set_max_dop(1);
    let serial = queries::run_query1(&db, workflow::NORM).unwrap();
    db.set_max_dop(4);
    let parallel = queries::run_query1(&db, workflow::NORM).unwrap();
    // Same histogram; tag order may differ within equal frequencies.
    assert_eq!(serial.rows.len(), parallel.rows.len());
    let hist = |r: &seqdb::engine::QueryResult| {
        let mut v: Vec<i64> = r.rows.iter().map(|x| x[1].as_int().unwrap()).collect();
        v.sort();
        v
    };
    assert_eq!(hist(&serial), hist(&parallel));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_backed_database_survives_reopen_of_filestream() {
    // FileStream blobs and the data file live under one directory; a
    // fresh Database over the same dir can still stream the blob.
    let dir = tmp("disk");
    let fastq = dir.join("lane.fastq");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&fastq, b"@r1\nACGT\n+\nIIII\n@r2\nGGGG\n+\nIIII\n").unwrap();

    let dbdir = dir.join("db");
    let guid;
    {
        let db = Database::open(&dbdir).unwrap();
        guid = db.filestream().insert_from_file(&fastq).unwrap();
        db.checkpoint().unwrap();
    }
    {
        let db = Database::open(&dbdir).unwrap();
        let mut r = db.filestream().open_reader(guid, true).unwrap();
        let data = r.read_all().unwrap();
        assert!(data.starts_with(b"@r1"));
        assert_eq!(db.filestream().len(guid).unwrap(), 32);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_in_memory_database_removes_its_directory_when_dropped() {
    // FileStream and temp space share one directory per in-memory
    // database; dropping the database removes it, whatever it held.
    let db = Database::in_memory();
    let dir = db.temp().dir().parent().unwrap().to_path_buf();
    assert_eq!(db.filestream().root().parent(), Some(dir.as_path()));
    let guid = db.filestream().insert(&b"GATTACA".repeat(512)).unwrap();
    assert!(db.filestream().path_name(guid).unwrap().starts_with(&dir));
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, s VARCHAR(16))")
        .unwrap();
    let rows: Vec<seqdb::types::Row> = (0..3000i64)
        .map(|i| seqdb::types::Row::new(vec![Value::Int(i), Value::text(format!("S{}", i % 97))]))
        .collect();
    db.insert_rows("t", &rows).unwrap();
    db.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
    db.temp().reset_counters();
    let sorted = db.query_sql("SELECT id FROM t ORDER BY s, id").unwrap();
    assert_eq!(sorted.rows.len(), 3000);
    assert!(
        db.temp().spill_count() > 0,
        "8 KiB must force the sort to spill"
    );
    assert!(dir.is_dir());
    drop(db);
    assert!(!dir.exists(), "{} outlived its database", dir.display());
}
