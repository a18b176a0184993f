//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p seqdb-bench --release --bin report -- all
//! cargo run -p seqdb-bench --release --bin report -- table1 --scale 4
//! ```
//!
//! `report` with an unknown experiment lists the known ones (`EXPERIMENTS`).

#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use seqdb_bench::{
    dge_database, dge_dataset, fmt_dur, fmt_io, reseq_database, reseq_dataset, time, IoSnapshot,
};
use seqdb_bio::dna::PackedSeq;
use seqdb_bio::fastq::{ChunkedFastqParser, IoChunkSource, SimpleFastqReader};
use seqdb_core::baseline;
use seqdb_core::queries;
use seqdb_core::udx::DB_QUAL_ENCODING;
use seqdb_core::workflow::{self, DESIGNS, NORM};
use seqdb_engine::exec::agg::AggSpec;
use seqdb_engine::exec::RowIterator;
use seqdb_engine::parallel::ParallelAggIter;
use seqdb_engine::udx::CountAgg;
use seqdb_engine::{BinOp, Expr};
use seqdb_engine::{Database, JoinStrategy};
use seqdb_sql::DatabaseSqlExt;
use seqdb_types::{Result, Row, Value};

type Experiment = fn(usize) -> Result<()>;

/// Every experiment by its command-line name, in the order `all` runs
/// them (the paper's §5 order, then the SNP extension). Dispatch, `all`
/// and the usage line are all read from this one table.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("join", join_bench),
    ("fig10", fig10),
    ("binning", binning),
    ("consensus", consensus),
    ("snp", snp),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale_factor = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale_factor = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                i += 2;
            }
            other if !other.starts_with('-') => {
                experiment = other.to_string();
                i += 1;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if let Err(e) = run(&experiment, scale_factor) {
        eprintln!("report failed: {e}");
        std::process::exit(1);
    }
}

/// Cores this process may run on (what `max_dop` defaults to).
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn die(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("{msg}");
    eprintln!("usage: report [{}|all] [--scale N]", names.join("|"));
    std::process::exit(2);
}

fn run(experiment: &str, factor: usize) -> Result<()> {
    let selected = |name: &str| experiment == "all" || experiment == name;
    if !EXPERIMENTS.iter().any(|(name, _)| selected(name)) {
        die(&format!("unknown experiment {experiment}"));
    }
    println!("== seqdb evaluation report (scale factor {factor}) ==");
    println!("   reproducing Röhm & Blakeley, CIDR 2009, section 5\n");
    for (name, experiment) in EXPERIMENTS {
        if selected(name) {
            experiment(factor)?;
        }
    }
    Ok(())
}

// ------------------------------------------------------------ SNP ext --

/// Extension (§2.1.1 / §6.1): the tertiary SNP discovery that closes the
/// 1000 Genomes workflow — reads come from a donor genome with planted
/// variants; the consensus is diffed against the reference.
fn snp(factor: usize) -> Result<()> {
    println!("--- Extension: SNP discovery over the re-sequenced individual ---");
    let ds = reseq_dataset(factor)?;
    let min_q = seqdb_bio::quality::Phred(40);
    let (res, d) = time(|| workflow::discover_snps(&ds, min_q));
    let (calls, acc) = res?;
    println!(
        "  donor genome carries {} planted SNPs; consensus vs reference called {} sites in {}",
        ds.donor_snps.len(),
        calls.len(),
        fmt_dur(d)
    );
    println!(
        "  precision {:.2}, recall {:.2} (tp {}, fp {}, fn {}) at Q{} / ~{}x coverage\n",
        acc.precision(),
        acc.recall(),
        acc.true_positives,
        acc.false_positives,
        acc.false_negatives,
        min_q.0,
        ds.reads.len() * 36 / ds.reference.total_len().max(1),
    );
    Ok(())
}

// ---------------------------------------------------------------- T1 --

fn table1(factor: usize) -> Result<()> {
    println!("--- Table 1: storage efficiency, digital gene expression ---");
    let ds = dge_dataset(factor)?;
    println!(
        "dataset: {} tag reads, {} unique tags, {} alignments, {} genes expressed",
        ds.reads.len(),
        ds.unique_tags.len(),
        ds.alignments.len(),
        ds.gene_expression.len()
    );
    let db = dge_database(&ds)?;
    let report = workflow::dge_storage_report(&db, &ds)?;
    println!("{}", report.render(&DESIGNS));
    for artifact in ["short reads", "alignments"] {
        print!("{artifact}: ");
        for d in &DESIGNS[1..] {
            if let Some(r) = report.ratio_to_files(artifact, d) {
                print!("{d} = {r:.2}x files  ");
            }
        }
        println!();
    }
    // §6.1's proposed sequence type: the payload alone, text vs bit-packed.
    let text: usize = ds.reads.iter().map(|r| r.seq.len()).sum();
    let mut packed = 0usize;
    for r in &ds.reads {
        packed += PackedSeq::from_str(&r.seq)?.packed_bytes();
    }
    println!(
        "sequence payload: text {text} B, 2-bit packed {packed} B = {:.2}x smaller (paper: \"about a quarter\")",
        text as f64 / packed.max(1) as f64
    );
    println!();
    Ok(())
}

// ---------------------------------------------------------------- T2 --

fn table2(factor: usize) -> Result<()> {
    println!("--- Table 2: storage efficiency, 1000 Genomes re-sequencing ---");
    let ds = reseq_dataset(factor)?;
    println!(
        "dataset: {} reads (~{} distinct), {} alignments",
        ds.reads.len(),
        ds.reads
            .iter()
            .map(|r| r.record.seq.as_str())
            .collect::<std::collections::HashSet<_>>()
            .len(),
        ds.alignments.len()
    );
    let db = reseq_database(&ds)?;
    let report = workflow::reseq_storage_report(&db, &ds)?;
    println!("{}", report.render(&DESIGNS));
    if let (Some(one), Some(norm)) = (
        report.get("alignments", "1:1 import"),
        report.get("alignments", "normalized"),
    ) {
        println!(
            "alignments: normalized saves {:.0}% over the 1:1 textual-id import (paper: ~40%)",
            100.0 * (1.0 - norm as f64 / one as f64)
        );
    }
    if let (Some(norm), Some(page)) = (
        report.get("short reads", "normalized"),
        report.get("short reads", "norm+page"),
    ) {
        println!(
            "short reads: page compression saves only {:.0}% on near-unique reads (paper: compression much less effective than in Table 1)",
            100.0 * (1.0 - page as f64 / norm as f64)
        );
    }
    println!();
    Ok(())
}

// ---------------------------------------------------------------- T3 --

fn table3(factor: usize) -> Result<()> {
    println!("--- Table 3 (section 5.2): file wrapping performance ---");
    println!("    SELECT COUNT(*) over one lane's FASTQ via different access paths\n");
    let ds = reseq_dataset(factor)?;
    let db = dge_database(&dge_dataset(1)?)?; // engine instance for the TVF rung
    seqdb_core::import::import_filestream(&db, "_t3", &ds.fastq_path, 855, 1)?;
    db.catalog()
        .register_table_fn(Arc::new(seqdb_core::udx::ListShortReadsTvf::new(
            "ShortReadFiles_t3",
        )));
    let n_expected = ds.reads.len() as u64;

    // 1. Command-line program: chunked parse straight off the file.
    let (n, d1) = time(|| {
        let mut p = ChunkedFastqParser::new(IoChunkSource(std::fs::File::open(&ds.fastq_path)?));
        p.count_remaining()
    });
    assert_eq!(n?, n_expected);
    println!(
        "  command-line program (chunked file scan)    {:>10}",
        fmt_dur(d1)
    );

    // 2. Interpreted row-at-a-time procedure (the T-SQL rung).
    let (n, d2) = time(|| baseline::interpreted_count(&ds.fastq_path));
    assert_eq!(n?, n_expected);
    println!(
        "  interpreted procedure (T-SQL analogue)      {:>10}",
        fmt_dur(d2)
    );

    // 3. Line-at-a-time reader (StreamReader rung): per-record allocation.
    let (n, d3) = time(|| -> Result<u64> {
        let f = std::io::BufReader::new(std::fs::File::open(&ds.fastq_path)?);
        let mut r = SimpleFastqReader::new(f, DB_QUAL_ENCODING);
        let mut n = 0;
        while r.next_record()?.is_some() {
            n += 1;
        }
        Ok(n)
    });
    assert_eq!(n?, n_expected);
    println!(
        "  stored procedure with StreamReader          {:>10}",
        fmt_dur(d3)
    );

    // 4. Stored procedure with chunking: chunked parse over the
    //    FileStream blob, no row conversion.
    let guid = {
        let t = db.catalog().table("ShortReadFiles_t3")?;
        let row = t.heap.scan().next().expect("one blob row")?;
        row.1[0].as_guid()?
    };
    let (n, d4) = time(|| -> Result<u64> {
        let reader = db.filestream().open_reader(guid, true)?;
        struct Fs {
            r: seqdb_storage::FileStreamReader,
            off: u64,
        }
        impl seqdb_bio::fastq::ChunkSource for Fs {
            fn read_chunk(&mut self, buf: &mut [u8]) -> Result<usize> {
                let n = self.r.get_bytes(self.off, buf)?;
                self.off += n as u64;
                Ok(n)
            }
        }
        let mut p = ChunkedFastqParser::new(Fs { r: reader, off: 0 });
        p.count_remaining()
    });
    assert_eq!(n?, n_expected);
    println!(
        "  stored procedure with chunking (FileStream) {:>10}",
        fmt_dur(d4)
    );

    // 5. TVF with chunking, through the whole query engine (iterator
    //    contract + FillRow conversion per row).
    let (r, d5) = time(|| db.query_sql("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')"));
    let r = r?;
    assert_eq!(r.rows[0][0].as_int()? as u64, n_expected);
    println!(
        "  CLR TVF with chunking (full query engine)   {:>10}",
        fmt_dur(d5)
    );

    println!("\n  shape check (paper: interpreted >> StreamReader > TVF > chunked SP ~ cmdline):");
    println!(
        "    interpreted/cmdline = {:.1}x, StreamReader/chunkedSP = {:.1}x, TVF/chunkedSP = {:.1}x\n",
        d2.as_secs_f64() / d1.as_secs_f64().max(1e-9),
        d3.as_secs_f64() / d4.as_secs_f64().max(1e-9),
        d5.as_secs_f64() / d4.as_secs_f64().max(1e-9),
    );
    Ok(())
}

// ---------------------------------------------------------------- F7 --

fn fig7(factor: usize) -> Result<()> {
    println!("--- Figure 7: resource consumption of the binning script ---");
    let ds = dge_dataset(factor)?;
    let out = ds.dir.join("fig7_tags.txt");
    let (res, trace) = {
        let (r, _) = time(|| baseline::binning_script(&ds.fastq_path, &out));
        r?
    };
    println!(
        "  sequential script over {} reads -> {} unique tags",
        trace.records,
        res.len()
    );
    println!(
        "  cores used: {} (strictly sequential phases)",
        trace.cores_used
    );
    let total = trace.total();
    for (name, d) in &trace.phases {
        let pct = 100.0 * d.as_secs_f64() / total.as_secs_f64().max(1e-9);
        let bar = "#".repeat((pct / 4.0).round() as usize);
        println!("    phase {name:<8} {:>10}  {pct:5.1}%  {bar}", fmt_dur(*d));
    }
    println!("  total: {}\n", fmt_dur(total));
    Ok(())
}

// ---------------------------------------------------------------- F8 --

fn fig8(factor: usize) -> Result<()> {
    println!("--- Figure 8: multi-core use of SQL Query 1 (parallel plan) ---");
    let ds = dge_dataset(factor)?;
    let db = dge_database(&ds)?;
    let table = db.catalog().table(&format!("Read{NORM}"))?;
    let seq_col = table.schema.resolve("short_read_seq")?;
    let charindex = db.catalog().scalar_fn("CHARINDEX").expect("built-in");
    let filter = Expr::binary(
        BinOp::Eq,
        Expr::Func {
            udf: charindex,
            args: vec![Expr::lit("N"), Expr::col(seq_col, "short_read_seq")],
        },
        Expr::lit(0),
    );
    for dop in [1usize, 2, 4] {
        let (ctx, _guard) = db
            .server_session()
            .begin_statement("fig8 parallel aggregate")?;
        let mut it = ParallelAggIter::new(
            table.clone(),
            Some(filter.clone()),
            vec![Expr::col(seq_col, "short_read_seq")],
            vec![AggSpec::new(Arc::new(CountAgg), vec![], "cnt")],
            dop,
            ctx,
        )?;
        let t = Instant::now();
        let mut groups = 0u64;
        while let Some(batch) = it.next_batch(1024)? {
            groups += batch.len() as u64;
        }
        let wall = t.elapsed();
        println!("  DOP {dop}: {groups} groups in {}", fmt_dur(wall));
        for w in it.worker_stats() {
            let bar =
                "#".repeat(((w.busy.as_secs_f64() / wall.as_secs_f64().max(1e-9)) * 24.0) as usize);
            println!(
                "    worker {}: {:>8} rows, busy {:>9}  {bar}",
                w.worker,
                w.rows_scanned,
                fmt_dur(w.busy)
            );
        }
    }
    println!(
        "  note: this host has {} hardware core(s); worker busy time shows the",
        host_cores()
    );
    println!("  even work distribution a multi-core host would exploit (see EXPERIMENTS.md).\n");
    Ok(())
}

// ------------------------------------------------------------- F9/F10 --

fn fig9(factor: usize) -> Result<()> {
    println!("--- Figure 9: parallel query plan for Query 1 ---");
    let ds = dge_dataset(factor.min(1))?;
    let db = dge_database(&ds)?;
    db.set_max_dop(4);
    let plan = db.plan_sql(&queries::query1_sql(NORM))?;
    println!("{}", plan.explain());
    println!("actual execution plan (EXPLAIN ANALYZE):");
    let analyzed = db.query_sql(&format!("EXPLAIN ANALYZE {}", queries::query1_sql(NORM)))?;
    for row in &analyzed.rows {
        println!("{row}");
    }
    println!();
    Ok(())
}

/// Hybrid Grace hash join vs forced Sort+MergeJoin on unsorted heaps,
/// at three scales and three execution shapes. Every variant computes
/// the same COUNT.
fn join_bench(factor: usize) -> Result<()> {
    println!("--- Join strategies: hybrid Grace hash vs Sort+MergeJoin ---");
    const Q: &str = "SELECT COUNT(*) FROM big a JOIN small b ON (a.k = b.k)";
    const BUDGET_KB: u64 = 256;
    for base in [30_000i64, 60_000, 120_000] {
        let n = base * factor.max(1) as i64;
        let db = Database::in_memory();
        db.execute_sql("CREATE TABLE big (k INT, pay INT)")?;
        db.execute_sql("CREATE TABLE small (k INT, pay INT)")?;
        // A primary-key-style join (reads against reference positions):
        // big holds n distinct keys inserted in scrambled order, small
        // covers half of them, so the join emits n/2 rows.
        let scramble = |i: i64, m: i64| (i * 2_654_435_761 % m + m) % m;
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(scramble(i, n)), Value::Int(i)]))
            .collect();
        db.insert_rows("big", &rows)?;
        let rows: Vec<Row> = (0..n / 2)
            .map(|i| Row::new(vec![Value::Int(scramble(i, n / 2)), Value::Int(i)]))
            .collect();
        db.insert_rows("small", &rows)?;
        let expect = Value::Int(n / 2);

        // (strategy, budget_kb) per variant.
        let variants: [(&str, JoinStrategy, Option<u64>); 3] = [
            ("merge-forced", JoinStrategy::Merge, None),
            ("hash-resident", JoinStrategy::Auto, None),
            ("hash-spilled", JoinStrategy::Hash, Some(BUDGET_KB)),
        ];
        println!("  n={n} (distinct keys, {} output rows):", n / 2);
        let mut walls = std::collections::HashMap::new();
        for (name, strategy, budget) in variants {
            db.set_join_strategy(strategy);
            db.set_query_memory_limit_kb(budget);
            let before = IoSnapshot::now(&db);
            let (r, wall) = time(|| db.query_sql(Q));
            let io = IoSnapshot::now(&db).delta_since(&before);
            assert_eq!(r?.rows[0][0], expect, "{name} returned a wrong count");
            println!("    {name:>13}: {:>10}  {}", fmt_dur(wall), fmt_io(&io));
            walls.insert(name, wall);
        }
        let merge = walls["merge-forced"].as_secs_f64();
        let hash = walls["hash-resident"].as_secs_f64().max(1e-9);
        println!(
            "    cost-based hash vs forced sort+merge: {:.2}x (unsorted input)",
            merge / hash
        );
    }
    println!();
    Ok(())
}

fn fig10(factor: usize) -> Result<()> {
    println!("--- Figure 10: merge-join plan for consensus (Query 3) ---");
    let ds = reseq_dataset(factor.min(1))?;
    let db = reseq_database(&ds)?;
    db.set_max_dop(4);
    let sql = queries::merge_join_sql(NORM);
    let plan = db.plan_sql(&sql)?;
    println!("{}", plan.explain());
    // The same join run warm, with its actuals.
    queries::run_merge_join(&db, NORM)?;
    println!("actual execution plan (EXPLAIN ANALYZE):");
    for row in db.query_sql(&format!("EXPLAIN ANALYZE {sql}"))?.rows {
        println!("{row}");
    }
    println!();
    println!("sliding-window consensus plan (planned from SQL, section 5.3.3):");
    println!("{}", queries::query3_sliding_plan(&db, NORM)?.explain());
    Ok(())
}

// ---------------------------------------------------------------- E1 --

fn binning(factor: usize) -> Result<()> {
    println!("--- Section 5.3.2: script vs SQL unique-read binning ---");
    let ds = dge_dataset(factor)?;
    let db = dge_database(&ds)?;

    let out = ds.dir.join("e1_tags.txt");
    let ((script_tags, trace), script_time) = {
        let (r, d) = time(|| baseline::binning_script(&ds.fastq_path, &out));
        (r?, d)
    };
    let out2 = ds.dir.join("e1_tags_interp.txt");
    let ((interp_tags, _), interp_time) = {
        let (r, d) = time(|| baseline::interpreted_binning_script(&ds.fastq_path, &out2));
        (r?, d)
    };
    assert_eq!(script_tags, interp_tags);

    db.set_max_dop(4);
    let before = IoSnapshot::now(&db);
    let (sql_res, sql_time) = time(|| queries::run_query1(&db, NORM));
    let sql_io = IoSnapshot::now(&db).delta_since(&before);
    let sql_res = sql_res?;
    queries::check_query1_against(&sql_res, &ds.unique_tags)?;
    assert_eq!(
        script_tags.len(),
        sql_res.rows.len(),
        "both find the same tags"
    );

    println!(
        "  all approaches produce the same {} unique reads (paper: 565,526)",
        sql_res.rows.len()
    );
    println!(
        "  interpreted script (Perl analogue): {:>10}  (1 core)",
        fmt_dur(interp_time)
    );
    println!(
        "  compiled script (best-case script): {:>10}  (1 core, phases: {})",
        fmt_dur(script_time),
        trace
            .phases
            .iter()
            .map(|(n, d)| format!("{n} {}", fmt_dur(*d)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  SQL Query 1                       : {:>10}  (parallel plan, DOP {})",
        fmt_dur(sql_time),
        db.config().max_dop
    );
    println!(
        "  SQL vs interpreted script: {:.1}x (paper: Perl 10 min vs SQL 44 s = 13.6x on 4 cores;",
        interp_time.as_secs_f64() / sql_time.as_secs_f64().max(1e-9)
    );
    println!(
        "  this host has {} core(s) — see EXPERIMENTS.md for the compiled-script caveat)",
        host_cores()
    );
    println!("  SQL Query 1 I/O: {}\n", fmt_io(&sql_io));
    Ok(())
}

// ---------------------------------------------------------------- E2 --

fn consensus(factor: usize) -> Result<()> {
    println!("--- Section 5.3.3: consensus calling, pivot vs sliding window ---");
    let ds = reseq_dataset(factor)?;
    let db = reseq_database(&ds)?;

    // Warm merge-join throughput (run twice, report the warm run).
    let _ = queries::run_merge_join(&db, NORM)?;
    let (n, join_time) = time(|| queries::run_merge_join(&db, NORM));
    let n = n?;
    println!(
        "  merge join Read x Alignment: {n} alignments in {} ({:.2}M alignments/s; paper: ~1.6M/s warm)",
        fmt_dur(join_time),
        n as f64 / join_time.as_secs_f64().max(1e-9) / 1e6
    );

    let before = IoSnapshot::now(&db);
    let (pivot, pivot_time) = time(|| queries::run_query3_pivot(&db, NORM));
    let pivot = pivot?;
    let pivot_io = IoSnapshot::now(&db).delta_since(&before);

    db.temp().reset_counters();
    let before = IoSnapshot::now(&db);
    // An 8 MiB query grant so the sort-based pivot plan visibly spills
    // its intermediate (the paper's tempdb traffic).
    db.set_query_memory_limit_kb(Some(8192));
    let (sorted, sorted_time) = time(|| queries::run_query3_pivot_sorted(&db, NORM));
    db.set_query_memory_limit_kb(None);
    let sorted = sorted?;
    let sorted_io = IoSnapshot::now(&db).delta_since(&before);
    let spill = db.temp().bytes_written();
    let spills = db.temp().spill_count();

    let before = IoSnapshot::now(&db);
    let (sliding, sliding_time) = time(|| queries::run_query3_sliding(&db, NORM));
    let sliding = sliding?;
    let sliding_io = IoSnapshot::now(&db).delta_since(&before);
    assert_eq!(pivot, sliding, "plans must agree");
    assert_eq!(sorted, sliding, "plans must agree");

    let pivoted_rows: u64 = ds
        .alignments
        .iter()
        .map(|a| ds.reads[a.subject as usize].record.seq.len() as u64)
        .sum();
    println!(
        "  pivot + hash grouping       : {:>10}  ({} pivoted rows held in the hash table)",
        fmt_dur(pivot_time),
        pivoted_rows
    );
    println!(
        "  pivot + external sort       : {:>10}  ({} spill files, {:.1} MiB written to tempdb)",
        fmt_dur(sorted_time),
        spills,
        spill as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  sliding-window UDA (ordered): {:>10}  (no intermediate, window = read length)",
        fmt_dur(sliding_time)
    );
    println!(
        "  consensus sequences: {} chromosomes, e.g. chr{} length {}",
        sliding.len(),
        sliding[0].0 + 1,
        sliding[0].1.len()
    );
    println!("  I/O (pivot+hash)    : {}", fmt_io(&pivot_io));
    println!("  I/O (pivot+sort)    : {}", fmt_io(&sorted_io));
    println!("  I/O (sliding window): {}", fmt_io(&sliding_io));
    println!();
    Ok(())
}
