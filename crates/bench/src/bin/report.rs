//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p seqdb-bench --release --bin report -- all
//! cargo run -p seqdb-bench --release --bin report -- table1 --scale 4
//! ```
//!
//! Experiments: `table1`, `table2`, `table3`, `fig7`, `fig8`, `fig9`,
//! `join`, `fig10`, `binning` (§5.3.2), `consensus` (§5.3.3), `all`,
//! plus the wire-server overload experiment `server` (`--clients N`).

#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use seqdb_bench::{
    dge_database, dge_dataset, fmt_dur, fmt_io, reseq_database, reseq_dataset, time,
    write_bench_json, BenchEntry, IoSnapshot,
};
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale_factor = 1usize;
    let mut clients = 120usize;
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
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--clients needs a number"));
                i += 2;
            }
            other if !other.starts_with('-') => {
                experiment = other.to_string();
                i += 1;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    CLIENTS.store(clients, std::sync::atomic::Ordering::Relaxed);
    if let Err(e) = run(&experiment, scale_factor) {
        eprintln!("report failed: {e}");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: report [table1|table2|table3|fig7|fig8|fig9|join|fig10|binning|consensus|snp|server|trace|scrub|backup|all] [--scale N] [--clients N]");
    std::process::exit(2);
}

/// `--clients` for the `server` experiment, stashed so `run`'s
/// signature stays shared with the paper experiments.
static CLIENTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(120);

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

fn run(experiment: &str, factor: usize) -> Result<()> {
    println!("== seqdb evaluation report (scale factor {factor}) ==");
    println!("   reproducing Röhm & Blakeley, CIDR 2009, section 5\n");
    match experiment {
        "table1" => table1(factor)?,
        "table2" => table2(factor)?,
        "table3" => table3(factor)?,
        "fig7" => fig7(factor)?,
        "fig8" => fig8(factor)?,
        "fig9" => fig9(factor)?,
        "join" => join_bench(factor)?,
        "fig10" => fig10(factor)?,
        "binning" => binning(factor)?,
        "consensus" => consensus(factor)?,
        "snp" => snp(factor)?,
        "server" => server_bench(factor, CLIENTS.load(std::sync::atomic::Ordering::Relaxed))?,
        "trace" => trace_bench(factor)?,
        "scrub" => scrub_bench(factor)?,
        "backup" => backup_bench(factor)?,
        "all" => {
            table1(factor)?;
            table2(factor)?;
            table3(factor)?;
            fig7(factor)?;
            fig8(factor)?;
            fig9(factor)?;
            join_bench(factor)?;
            fig10(factor)?;
            binning(factor)?;
            consensus(factor)?;
            snp(factor)?;
        }
        other => die(&format!("unknown experiment {other}")),
    }
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
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
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
/// at three scales and four execution shapes. Every variant computes
/// the same COUNT; the JSON keeps the timing + I/O trajectory.
fn join_bench(factor: usize) -> Result<()> {
    println!("--- Join strategies: hybrid Grace hash vs Sort+MergeJoin ---");
    const Q: &str = "SELECT COUNT(*) FROM big a JOIN small b ON (a.k = b.k)";
    const BUDGET_KB: u64 = 256;
    let mut entries = Vec::new();
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

        // (strategy, budget_kb, dop) per variant.
        let variants: [(&str, JoinStrategy, Option<u64>, usize); 4] = [
            ("merge-forced", JoinStrategy::Merge, None, 4),
            ("hash-resident", JoinStrategy::Auto, None, 4),
            ("hash-spilled", JoinStrategy::Hash, Some(BUDGET_KB), 1),
            ("hash-parallel", JoinStrategy::Hash, Some(BUDGET_KB), 4),
        ];
        println!("  n={n} (distinct keys, {} output rows):", n / 2);
        let mut walls = std::collections::HashMap::new();
        for (name, strategy, budget, dop) in variants {
            db.set_join_strategy(strategy);
            db.set_query_memory_limit_kb(budget);
            db.set_max_dop(dop);
            let before = IoSnapshot::now(&db);
            let (r, wall) = time(|| db.query_sql(Q));
            let io = IoSnapshot::now(&db).delta_since(&before);
            assert_eq!(r?.rows[0][0], expect, "{name} returned a wrong count");
            println!("    {name:>13}: {:>10}  {}", fmt_dur(wall), fmt_io(&io));
            walls.insert(name, wall);
            entries.push(BenchEntry {
                name: format!("n={n}/{name}"),
                wall,
                io,
            });
        }
        let merge = walls["merge-forced"].as_secs_f64();
        let hash = walls["hash-resident"].as_secs_f64().max(1e-9);
        println!(
            "    cost-based hash vs forced sort+merge: {:.2}x (unsorted input, DOP 4)",
            merge / hash
        );
    }
    let json = write_bench_json("join", &entries)?;
    println!("  wrote {}\n", json.display());
    Ok(())
}

fn fig10(factor: usize) -> Result<()> {
    println!("--- Figure 10: parallel merge-join plan for consensus (Query 3) ---");
    let ds = reseq_dataset(factor.min(1))?;
    let db = reseq_database(&ds)?;
    db.set_max_dop(4);
    let plan = db.plan_sql(&queries::merge_join_sql(NORM))?;
    println!("{}", plan.explain());
    println!("sliding-window consensus plan (programmatic, section 5.3.3):");
    let plan = queries::query3_sliding_plan(&db, NORM)?;
    println!("{}", plan.explain());
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
    println!("  this host has 1 core — see EXPERIMENTS.md for the compiled-script caveat)");
    println!("  SQL Query 1 I/O: {}\n", fmt_io(&sql_io));
    let json = write_bench_json(
        "binning",
        &[BenchEntry {
            name: "sql_query1".into(),
            wall: sql_time,
            io: sql_io,
        }],
    )?;
    println!("  wrote {}\n", json.display());
    Ok(())
}

// ---------------------------------------------------------------- E2 --

fn consensus(factor: usize) -> Result<()> {
    println!("--- Section 5.3.3: consensus calling, pivot vs sliding window ---");
    let ds = reseq_dataset(factor)?;
    let db = reseq_database(&ds)?;
    // A tight memory grant so the sort-based pivot plan visibly spills
    // its intermediate (the paper's tempdb traffic).
    let mut cfg = db.config();
    cfg.sort_budget = 8 * 1024 * 1024;
    db.set_config(cfg);

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
    let (sorted, sorted_time) = time(|| queries::run_query3_pivot_sorted(&db, NORM));
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
    let json = write_bench_json(
        "consensus",
        &[
            BenchEntry {
                name: "pivot_hash".into(),
                wall: pivot_time,
                io: pivot_io,
            },
            BenchEntry {
                name: "pivot_sort".into(),
                wall: sorted_time,
                io: sorted_io,
            },
            BenchEntry {
                name: "sliding_window".into(),
                wall: sliding_time,
                io: sliding_io,
            },
        ],
    )?;
    println!("  wrote {}\n", json.display());
    Ok(())
}

// ------------------------------------------------------ wire server --

/// The wire-server overload experiment: hundreds of concurrent clients
/// driving mixed import/query/KILL traffic through the network front
/// end, with admission queueing soaking the bursts, then a graceful
/// drain under load. Reported: throughput, p50/p99 statement latency,
/// peak admission-queue depth and connection gauge — all read over the
/// wire from the DMVs, the way an operator would watch a shared
/// genomics server.
fn server_bench(factor: usize, clients: usize) -> Result<()> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    use seqdb_server::{Client, Server, ServerConfig};

    println!("--- Extension: wire server under {clients} concurrent clients ---");
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE reads (id INT NOT NULL, grp INT, v INT)")?;
    let rows: Vec<Row> = (0..12_000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]))
        .collect();
    db.insert_rows("reads", &rows)?;
    // A pool four heavy statements fill, with a deep queue behind it:
    // bursts wait their turn instead of failing or oversubscribing.
    db.set_admission_pool_kb(Some(256));
    db.set_admission_wait_ms(30_000);
    db.set_admission_queue_slots(2 * clients);

    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: clients + 8,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.addr();
    let run_for = Duration::from_millis(3_000 * factor as u64);
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));

    // Worker fleet: 1 in 4 clients is "heavy" (a governed, spilling
    // aggregate that contends for the admission pool); the rest mix
    // short queries, single-row imports and bogus KILLs (which must
    // come back typed, not as dropped connections).
    let mut workers = Vec::new();
    for who in 0..clients {
        let stop = stop.clone();
        let errors = errors.clone();
        workers.push(std::thread::spawn(move || -> Vec<f64> {
            let mut lat_ms = Vec::new();
            let Ok(mut c) = Client::connect(addr) else {
                return lat_ms;
            };
            let _ = c.set_read_timeout(Some(Duration::from_secs(60)));
            let heavy = who % 4 == 0;
            if heavy && c.query("SET QUERY_MEMORY_LIMIT_KB = 64").is_err() {
                return lat_ms;
            }
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let sql = if heavy {
                    "SELECT id, COUNT(*) FROM reads GROUP BY id"
                } else if i.is_multiple_of(11) {
                    "INSERT INTO reads VALUES (99999, 0, 1)"
                } else if i.is_multiple_of(17) {
                    "KILL 987654321"
                } else {
                    "SELECT COUNT(*) FROM reads"
                };
                let t = Instant::now();
                match c.query(sql) {
                    Ok(_) => lat_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => {
                        // The bogus KILL must fail typed; anything else
                        // failing counts against the server.
                        if sql.starts_with("KILL") {
                            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if !matches!(e, seqdb_types::DbError::NoSuchStatement(_)) {
                                errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
            lat_ms
        }));
    }

    // Operator thread: watches queue depth and connection count through
    // the DMVs over its own connection, like a DBA dashboard would.
    let sampler_stop = stop.clone();
    let sampler = std::thread::spawn(move || -> (i64, i64) {
        let (mut max_queue, mut max_conns) = (0i64, 0i64);
        let Ok(mut c) = Client::connect(addr) else {
            return (0, 0);
        };
        let _ = c.set_read_timeout(Some(Duration::from_secs(10)));
        while !sampler_stop.load(Ordering::Relaxed) {
            let Ok(r) = c.query("SELECT counter_name, value FROM DM_OS_PERFORMANCE_COUNTERS()")
            else {
                break;
            };
            for row in &r.rows {
                let name = row[0].as_text().unwrap_or_default();
                let v = row[1].as_int().unwrap_or(0);
                if name == "admission_queue_depth" {
                    max_queue = max_queue.max(v);
                } else if name == "active_connections" {
                    max_conns = max_conns.max(v);
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (max_queue, max_conns)
    });

    let bench_start = Instant::now();
    std::thread::sleep(run_for);
    stop.store(true, Ordering::Relaxed);
    let mut lat_ms: Vec<f64> = Vec::new();
    for w in workers {
        lat_ms.extend(w.join().unwrap_or_default());
    }
    let elapsed = bench_start.elapsed();
    let (max_queue, max_conns) = sampler.join().unwrap_or((0, 0));

    // Drain while the last stragglers are still connected.
    let drain_start = Instant::now();
    let report = server.drain()?;
    let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;

    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| -> f64 {
        if lat_ms.is_empty() {
            return 0.0;
        }
        let idx = ((lat_ms.len() as f64 - 1.0) * p).round() as usize;
        lat_ms[idx]
    };
    let done = lat_ms.len();
    let throughput = done as f64 / elapsed.as_secs_f64();
    println!(
        "  {done} statements from {clients} clients in {} — {throughput:.0}/s",
        fmt_dur(elapsed)
    );
    println!(
        "  latency p50 {:.2} ms, p99 {:.2} ms; peak queue depth {max_queue}, peak connections {max_conns}",
        pct(0.50),
        pct(0.99)
    );
    println!(
        "  drain: {} finished, {} killed, {:.0} ms; client-visible errors {}",
        report.finished,
        report.killed,
        drain_ms,
        errors.load(std::sync::atomic::Ordering::Relaxed)
    );

    let path = seqdb_bench::workspace_dir("BENCH_server.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = format!(
        "{{\n  \"clients\": {clients},\n  \"duration_ms\": {:.0},\n  \"statements_ok\": {done},\n  \
         \"client_errors\": {},\n  \"throughput_per_s\": {throughput:.1},\n  \"p50_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"max_admission_queue_depth\": {max_queue},\n  \
         \"max_active_connections\": {max_conns},\n  \"drain_finished\": {},\n  \
         \"drain_killed\": {},\n  \"drain_ms\": {drain_ms:.0}\n}}\n",
        elapsed.as_secs_f64() * 1e3,
        errors.load(std::sync::atomic::Ordering::Relaxed),
        pct(0.50),
        pct(0.99),
        report.finished,
        report.killed,
    );
    std::fs::write(&path, json)?;
    println!("  wrote {}\n", path.display());
    Ok(())
}

// ------------------------------------------------------- trace cost --

/// Extension: the cost of leaving tracing on. The same 32-client wire
/// workload runs untraced, then with `SET TRACE_EVENTS = 'ALL'`, then
/// untraced again (the second baseline cancels machine drift), and the
/// overhead gate asserts the traced run keeps ≥95% of the untraced
/// throughput — the "cheap enough to leave on" budget from DESIGN.md.
fn trace_bench(factor: usize) -> Result<()> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    use seqdb_server::{Client, Server, ServerConfig};

    const TRACE_CLIENTS: usize = 32;
    println!("--- Extension: tracing overhead at {TRACE_CLIENTS} wire clients ---");
    let db = Database::in_memory();
    db.execute_sql("CREATE TABLE reads (id INT NOT NULL, grp INT, v INT)")?;
    let rows: Vec<Row> = (0..12_000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]))
        .collect();
    db.insert_rows("reads", &rows)?;

    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: TRACE_CLIENTS + 8,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.addr();
    let run_for = Duration::from_millis(2_000 * factor as u64);

    // One measured phase: a fleet of clients looping the short-query /
    // group-by mix, returning total statements completed.
    let phase = |label: &str, dur: Duration| -> Result<f64> {
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        for who in 0..TRACE_CLIENTS {
            let stop = stop.clone();
            let errors = errors.clone();
            workers.push(std::thread::spawn(move || -> usize {
                let Ok(mut c) = Client::connect(addr) else {
                    return 0;
                };
                let _ = c.set_read_timeout(Some(Duration::from_secs(30)));
                let mut done = 0usize;
                let mut i = who;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let sql = if i.is_multiple_of(7) {
                        "SELECT grp, COUNT(*) FROM reads GROUP BY grp"
                    } else {
                        "SELECT COUNT(*) FROM reads"
                    };
                    match c.query(sql) {
                        Ok(_) => done += 1,
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                done
            }));
        }
        let start = Instant::now();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        let done: usize = workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
        let elapsed = start.elapsed().as_secs_f64();
        let rate = done as f64 / elapsed;
        println!(
            "  {label}: {done} statements in {elapsed:.2}s — {rate:.0}/s ({} client errors)",
            errors.load(Ordering::Relaxed)
        );
        Ok(rate)
    };

    let mut ctl = Client::connect(addr)?;
    ctl.query("SET TRACE_EVENTS = 'OFF'")?;
    let _ = phase("warmup", run_for / 4)?;
    let untraced_1 = phase("untraced", run_for)?;
    ctl.query("SET TRACE_EVENTS = 'ALL'")?;
    let traced = phase("traced (ALL)", run_for)?;
    ctl.query("SET TRACE_EVENTS = 'OFF'")?;
    let untraced_2 = phase("untraced (again)", run_for)?;
    let untraced = (untraced_1 + untraced_2) / 2.0;

    let overhead_pct = if untraced > 0.0 {
        ((untraced - traced) / untraced * 100.0).max(0.0)
    } else {
        0.0
    };
    let gate_ok = overhead_pct <= 5.0;
    let dropped = seqdb_engine::tracer().dropped();
    println!(
        "  tracing overhead {overhead_pct:.2}% (gate <= 5%: {}); ring events dropped {dropped}",
        if gate_ok { "PASS" } else { "FAIL" }
    );
    server.drain()?;

    let path = seqdb_bench::workspace_dir("BENCH_trace.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = format!(
        "{{\n  \"clients\": {TRACE_CLIENTS},\n  \"phase_ms\": {:.0},\n  \
         \"untraced_per_s\": {untraced:.1},\n  \"traced_all_per_s\": {traced:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"gate_ok\": {gate_ok},\n  \
         \"ring_events_dropped\": {dropped}\n}}\n",
        run_for.as_secs_f64() * 1e3,
    );
    std::fs::write(&path, json)?;
    println!("  wrote {}\n", path.display());
    Ok(())
}

// --------------------------------------------------------------- scrub --

/// The integrity-scrub experiment: how fast does a full `CHECK DATABASE`
/// pass walk a checkpointed database, and what does a continuous scrub
/// do to query latency under a 32-client read load? Reported: scrub
/// throughput in pages/s, blobs verified, and p50/p99 statement latency
/// with and without the scrubber running.
fn scrub_bench(factor: usize) -> Result<()> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    use seqdb_server::{Client, Server, ServerConfig};

    const CLIENTS: usize = 32;
    println!("--- Extension: scrub throughput vs query latency ({CLIENTS} clients) ---");
    let dir = std::env::temp_dir().join(format!("seqdb-bench-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let db = Database::open(&dir)?;
    db.execute_sql("CREATE TABLE reads (id INT NOT NULL, grp INT, seq VARCHAR(64))")?;
    let n = 120_000usize * factor.max(1);
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::text(format!("ACGTACGTACGTACGTACGTACGT-{i:08}")),
            ])
        })
        .collect();
    db.insert_rows("reads", &rows)?;
    for lane in 0..4u8 {
        db.filestream().insert(&vec![lane; 256 * 1024])?;
    }
    db.checkpoint()?;

    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: CLIENTS + 8,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scrubbing = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));

    // Reader fleet: point lookups and a grouped aggregate, tagged by
    // whether the scrubber was running when the statement started.
    let mut workers = Vec::new();
    for who in 0..CLIENTS {
        let (stop, scrubbing, errors) = (stop.clone(), scrubbing.clone(), errors.clone());
        workers.push(std::thread::spawn(move || -> (Vec<f64>, Vec<f64>) {
            let (mut quiet, mut under) = (Vec::new(), Vec::new());
            let Ok(mut c) = Client::connect(addr) else {
                return (quiet, under);
            };
            let _ = c.set_read_timeout(Some(Duration::from_secs(60)));
            let mut i = who;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let sql = if i.is_multiple_of(5) {
                    "SELECT grp, COUNT(*) FROM reads GROUP BY grp".to_string()
                } else {
                    format!("SELECT COUNT(*) FROM reads WHERE grp = {}", i % 10)
                };
                let during_scrub = scrubbing.load(Ordering::Relaxed);
                let t = Instant::now();
                match c.query(&sql) {
                    Ok(_) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if during_scrub {
                            under.push(ms);
                        } else {
                            quiet.push(ms);
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (quiet, under)
        }));
    }

    // Phase 1: quiet baseline. Phase 2: continuous CHECK DATABASE passes
    // on this thread while the fleet keeps querying.
    let phase = Duration::from_millis(1_500 * factor as u64);
    std::thread::sleep(phase);
    scrubbing.store(true, Ordering::Relaxed);
    let scrub_start = Instant::now();
    let (mut passes, mut pages, mut blobs) = (0u64, 0u64, 0u64);
    while scrub_start.elapsed() < phase || passes == 0 {
        let report = db.check_database(false)?;
        assert_eq!(report.unhealthy(), 0, "bench database must scrub clean");
        passes += 1;
        pages += report.pages_checked;
        blobs += report.blobs_checked;
    }
    let scrub_wall = scrub_start.elapsed();
    scrubbing.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);

    let (mut quiet, mut under) = (Vec::new(), Vec::new());
    for w in workers {
        let (q, u) = w.join().unwrap_or_default();
        quiet.extend(q);
        under.extend(u);
    }
    server.drain()?;

    let sortf = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    };
    sortf(&mut quiet);
    sortf(&mut under);
    let pct = |v: &[f64], p: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v[((v.len() as f64 - 1.0) * p).round() as usize]
    };
    let pages_per_s = pages as f64 / scrub_wall.as_secs_f64().max(1e-9);
    println!(
        "  scrub: {passes} full passes, {pages} pages + {blobs} blobs in {} — {pages_per_s:.0} pages/s",
        fmt_dur(scrub_wall)
    );
    println!(
        "  query latency quiet   : {} stmts, p50 {:.2} ms, p99 {:.2} ms",
        quiet.len(),
        pct(&quiet, 0.50),
        pct(&quiet, 0.99)
    );
    println!(
        "  query latency w/ scrub: {} stmts, p50 {:.2} ms, p99 {:.2} ms; client errors {}",
        under.len(),
        pct(&under, 0.50),
        pct(&under, 0.99),
        errors.load(Ordering::Relaxed)
    );

    let path = seqdb_bench::workspace_dir("BENCH_scrub.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = format!(
        "{{\n  \"clients\": {CLIENTS},\n  \"scrub_passes\": {passes},\n  \"pages_checked\": {pages},\n  \
         \"blobs_checked\": {blobs},\n  \"scrub_wall_ms\": {:.0},\n  \"pages_per_s\": {pages_per_s:.1},\n  \
         \"quiet_stmts\": {},\n  \"quiet_p50_ms\": {:.3},\n  \"quiet_p99_ms\": {:.3},\n  \
         \"scrub_stmts\": {},\n  \"scrub_p50_ms\": {:.3},\n  \"scrub_p99_ms\": {:.3},\n  \
         \"client_errors\": {}\n}}\n",
        scrub_wall.as_secs_f64() * 1e3,
        quiet.len(),
        pct(&quiet, 0.50),
        pct(&quiet, 0.99),
        under.len(),
        pct(&under, 0.50),
        pct(&under, 0.99),
        errors.load(Ordering::Relaxed)
    );
    std::fs::write(&path, json)?;
    println!("  wrote {}", path.display());
    std::fs::remove_dir_all(&dir).ok();
    println!();
    Ok(())
}

/// Extension: online backup — query latency impact while a backup runs,
/// plus full vs incremental set size and wall time.
fn backup_bench(factor: usize) -> Result<()> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    use seqdb_server::{Client, Server, ServerConfig};

    const CLIENTS: usize = 32;
    println!("--- Extension: online backup vs query latency ({CLIENTS} clients) ---");
    let dir = std::env::temp_dir().join(format!("seqdb-bench-backup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let db = Database::open(&dir.join("db"))?;
    db.execute_sql("CREATE TABLE reads (id INT NOT NULL, grp INT, seq VARCHAR(64))")?;
    let n = 120_000usize * factor.max(1);
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::text(format!("ACGTACGTACGTACGTACGTACGT-{i:08}")),
            ])
        })
        .collect();
    db.insert_rows("reads", &rows)?;
    for lane in 0..4u8 {
        db.filestream().insert(&vec![lane; 256 * 1024])?;
    }
    db.checkpoint()?;

    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: CLIENTS + 8,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let backing_up = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));

    // Reader fleet, latencies tagged by whether a backup was in flight
    // when the statement started.
    let mut workers = Vec::new();
    for who in 0..CLIENTS {
        let (stop, backing_up, errors) = (stop.clone(), backing_up.clone(), errors.clone());
        workers.push(std::thread::spawn(move || -> (Vec<f64>, Vec<f64>) {
            let (mut quiet, mut under) = (Vec::new(), Vec::new());
            let Ok(mut c) = Client::connect(addr) else {
                return (quiet, under);
            };
            let _ = c.set_read_timeout(Some(Duration::from_secs(60)));
            c.set_retry_attempts(5);
            let mut i = who;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let sql = if i.is_multiple_of(5) {
                    "SELECT grp, COUNT(*) FROM reads GROUP BY grp".to_string()
                } else {
                    format!("SELECT COUNT(*) FROM reads WHERE grp = {}", i % 10)
                };
                let during = backing_up.load(Ordering::Relaxed);
                let t = Instant::now();
                match c.query(&sql) {
                    Ok(_) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if during {
                            under.push(ms);
                        } else {
                            quiet.push(ms);
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (quiet, under)
        }));
    }

    // Phase 1: quiet baseline. Phase 2: full backup under load.
    let phase = Duration::from_millis(1_500 * factor as u64);
    std::thread::sleep(phase);
    backing_up.store(true, Ordering::Relaxed);
    let full_dir = dir.join("full");
    let t = Instant::now();
    let full = db.backup_database(&full_dir, None)?;
    let full_wall = t.elapsed();
    backing_up.store(false, Ordering::Relaxed);

    // Mutate ~2% of the data, then take an incremental under load.
    let delta: Vec<Row> = (n as i64..n as i64 + n as i64 / 50)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::text(format!("ACGTACGTACGTACGTACGTACGT-{i:08}")),
            ])
        })
        .collect();
    db.insert_rows("reads", &delta)?;
    backing_up.store(true, Ordering::Relaxed);
    let incr_dir = dir.join("incr");
    let t = Instant::now();
    let incr = db.backup_database(&incr_dir, Some(&full_dir))?;
    let incr_wall = t.elapsed();
    backing_up.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);

    let (mut quiet, mut under) = (Vec::new(), Vec::new());
    for w in workers {
        let (q, u) = w.join().unwrap_or_default();
        quiet.extend(q);
        under.extend(u);
    }
    server.drain()?;

    // The restored set must verify — a backup benchmark over an
    // unrestorable set would be measuring garbage.
    seqdb_engine::verify_backup(&incr_dir)?;

    let sortf = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    };
    sortf(&mut quiet);
    sortf(&mut under);
    let pct = |v: &[f64], p: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v[((v.len() as f64 - 1.0) * p).round() as usize]
    };
    // Compare actual bytes copied, not directory sizes: the skipped
    // pages of an incremental set are holes in a sparse data file.
    let (full_bytes, incr_bytes) = (full.bytes_written, incr.bytes_written);
    let fmt_b = |b: u64| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0));
    println!(
        "  full backup       : {} pages, {} in {}",
        full.pages_copied,
        fmt_b(full_bytes),
        fmt_dur(full_wall)
    );
    println!(
        "  incremental backup: {} pages copied, {} skipped, {} in {} ({:.1}% of full size)",
        incr.pages_copied,
        incr.pages_skipped,
        fmt_b(incr_bytes),
        fmt_dur(incr_wall),
        incr_bytes as f64 / full_bytes.max(1) as f64 * 100.0
    );
    println!(
        "  query latency quiet    : {} stmts, p50 {:.2} ms, p99 {:.2} ms",
        quiet.len(),
        pct(&quiet, 0.50),
        pct(&quiet, 0.99)
    );
    println!(
        "  query latency w/ backup: {} stmts, p50 {:.2} ms, p99 {:.2} ms; client errors {}",
        under.len(),
        pct(&under, 0.50),
        pct(&under, 0.99),
        errors.load(Ordering::Relaxed)
    );

    let path = seqdb_bench::workspace_dir("BENCH_backup.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = format!(
        "{{\n  \"clients\": {CLIENTS},\n  \"full_pages\": {},\n  \"full_bytes\": {full_bytes},\n  \
         \"full_wall_ms\": {:.0},\n  \"incr_pages\": {},\n  \"incr_pages_skipped\": {},\n  \
         \"incr_bytes\": {incr_bytes},\n  \"incr_wall_ms\": {:.0},\n  \
         \"quiet_stmts\": {},\n  \"quiet_p50_ms\": {:.3},\n  \"quiet_p99_ms\": {:.3},\n  \
         \"backup_stmts\": {},\n  \"backup_p50_ms\": {:.3},\n  \"backup_p99_ms\": {:.3},\n  \
         \"client_errors\": {}\n}}\n",
        full.pages_copied,
        full_wall.as_secs_f64() * 1e3,
        incr.pages_copied,
        incr.pages_skipped,
        incr_wall.as_secs_f64() * 1e3,
        quiet.len(),
        pct(&quiet, 0.50),
        pct(&quiet, 0.99),
        under.len(),
        pct(&under, 0.50),
        pct(&under, 0.99),
        errors.load(Ordering::Relaxed)
    );
    std::fs::write(&path, json)?;
    println!("  wrote {}", path.display());
    std::fs::remove_dir_all(&dir).ok();
    println!();
    Ok(())
}
