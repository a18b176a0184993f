//! End-to-end workflow drivers: load every physical design, run the
//! analysis queries, and produce the storage reports behind Tables 1–2.

use std::sync::Arc;

use seqdb_engine::Database;
use seqdb_storage::rowfmt::Compression;
use seqdb_types::{DbError, Result};

use crate::dataset::{DgeDataset, ResequencingDataset};
use crate::import;
use crate::queries;
use crate::sizing::StorageReport;
use crate::udx;

/// Design suffixes used throughout the workflows and benches.
pub const NORM: &str = "";
pub const NORM_ROW: &str = "_rowc";
pub const NORM_PAGE: &str = "_pagec";
pub const RAW: &str = "_raw";

/// Design column labels of Tables 1 and 2.
pub const DESIGNS: [&str; 7] = [
    "Files",
    "FileStream",
    "1:1 import",
    "normalized",
    "norm+row",
    "norm+page",
    "norm+bitpack",
];

/// Load a DGE dataset into every physical design of Table 1 and
/// register the UDX.
pub fn load_dge_designs(db: &Arc<Database>, ds: &DgeDataset) -> Result<()> {
    udx::register_udx(db, None);
    import::import_dge_file_image(db, RAW, Compression::None, ds)?;
    import::import_dge_normalized(db, NORM, Compression::None, ds)?;
    import::import_dge_normalized(db, NORM_ROW, Compression::Row, ds)?;
    import::import_dge_normalized(db, NORM_PAGE, Compression::Page, ds)?;
    import::import_filestream(db, NORM, &ds.fastq_path, 855, 1)?;
    import::import_reads_packed(db, NORM, Compression::Row, ds.reads.iter().cloned())?;
    Ok(())
}

/// Load a re-sequencing dataset into every design of Table 2.
pub fn load_reseq_designs(db: &Arc<Database>, ds: &ResequencingDataset) -> Result<()> {
    udx::register_udx(db, None);
    import::import_reseq_file_image(db, RAW, Compression::None, ds)?;
    import::import_reseq_normalized(db, NORM, Compression::None, ds)?;
    import::import_reseq_normalized(db, NORM_ROW, Compression::Row, ds)?;
    import::import_reseq_normalized(db, NORM_PAGE, Compression::Page, ds)?;
    import::import_filestream(db, NORM, &ds.fastq_path, 855, 1)?;
    import::import_reads_packed(
        db,
        NORM,
        Compression::Row,
        ds.reads.iter().map(|r| r.record.clone()),
    )?;
    Ok(())
}

fn blob_size(db: &Arc<Database>, path: &std::path::Path) -> Result<u64> {
    let guid = db.filestream().insert_from_file(path)?;
    db.filestream().len(guid)
}

/// Table 1: storage efficiency for the DGE scenario. Requires
/// [`load_dge_designs`] to have run on `db`.
pub fn dge_storage_report(db: &Arc<Database>, ds: &DgeDataset) -> Result<StorageReport> {
    let mut r = StorageReport::default();

    r.add_file("short reads", "Files", &ds.fastq_path)?;
    r.add("short reads", "FileStream", blob_size(db, &ds.fastq_path)?);
    r.add_table("short reads", "1:1 import", db, &format!("RawReads{RAW}"))?;
    r.add_table("short reads", "normalized", db, &format!("Read{NORM}"))?;
    r.add_table("short reads", "norm+row", db, &format!("Read{NORM_ROW}"))?;
    r.add_table("short reads", "norm+page", db, &format!("Read{NORM_PAGE}"))?;
    r.add_table(
        "short reads",
        "norm+bitpack",
        db,
        &format!("ReadPacked{NORM}"),
    )?;

    r.add_file("unique tags", "Files", &ds.unique_tags_path)?;
    r.add(
        "unique tags",
        "FileStream",
        blob_size(db, &ds.unique_tags_path)?,
    );
    r.add_table("unique tags", "1:1 import", db, &format!("RawTags{RAW}"))?;
    r.add_table("unique tags", "normalized", db, &format!("Tag{NORM}"))?;
    r.add_table("unique tags", "norm+row", db, &format!("Tag{NORM_ROW}"))?;
    r.add_table("unique tags", "norm+page", db, &format!("Tag{NORM_PAGE}"))?;

    r.add_file("alignments", "Files", &ds.alignments_path)?;
    r.add(
        "alignments",
        "FileStream",
        blob_size(db, &ds.alignments_path)?,
    );
    r.add_table(
        "alignments",
        "1:1 import",
        db,
        &format!("RawAlignments{RAW}"),
    )?;
    r.add_table("alignments", "normalized", db, &format!("Alignment{NORM}"))?;
    r.add_table(
        "alignments",
        "norm+row",
        db,
        &format!("Alignment{NORM_ROW}"),
    )?;
    r.add_table(
        "alignments",
        "norm+page",
        db,
        &format!("Alignment{NORM_PAGE}"),
    )?;

    r.add_file("gene expression", "Files", &ds.gene_expr_path)?;
    r.add(
        "gene expression",
        "FileStream",
        blob_size(db, &ds.gene_expr_path)?,
    );
    r.add_table(
        "gene expression",
        "1:1 import",
        db,
        &format!("RawGeneExpression{RAW}"),
    )?;
    // Populate the normalized GeneExpression tables through Query 2 so
    // the measurement covers real output rows.
    for sfx in [NORM, NORM_ROW, NORM_PAGE] {
        queries::run_query2(db, sfx)?;
    }
    r.add_table(
        "gene expression",
        "normalized",
        db,
        &format!("GeneExpression{NORM}"),
    )?;
    r.add_table(
        "gene expression",
        "norm+row",
        db,
        &format!("GeneExpression{NORM_ROW}"),
    )?;
    r.add_table(
        "gene expression",
        "norm+page",
        db,
        &format!("GeneExpression{NORM_PAGE}"),
    )?;
    Ok(r)
}

/// Table 2: storage efficiency for the re-sequencing scenario.
pub fn reseq_storage_report(db: &Arc<Database>, ds: &ResequencingDataset) -> Result<StorageReport> {
    let mut r = StorageReport::default();
    r.add_file("short reads", "Files", &ds.fastq_path)?;
    r.add("short reads", "FileStream", blob_size(db, &ds.fastq_path)?);
    r.add_table("short reads", "1:1 import", db, &format!("RawReads{RAW}"))?;
    r.add_table("short reads", "normalized", db, &format!("Read{NORM}"))?;
    r.add_table("short reads", "norm+row", db, &format!("Read{NORM_ROW}"))?;
    r.add_table("short reads", "norm+page", db, &format!("Read{NORM_PAGE}"))?;
    r.add_table(
        "short reads",
        "norm+bitpack",
        db,
        &format!("ReadPacked{NORM}"),
    )?;

    r.add_file("alignments", "Files", &ds.alignments_path)?;
    r.add(
        "alignments",
        "FileStream",
        blob_size(db, &ds.alignments_path)?,
    );
    r.add_table(
        "alignments",
        "1:1 import",
        db,
        &format!("RawAlignments{RAW}"),
    )?;
    r.add_table("alignments", "normalized", db, &format!("Alignment{NORM}"))?;
    r.add_table(
        "alignments",
        "norm+row",
        db,
        &format!("Alignment{NORM_ROW}"),
    )?;
    r.add_table(
        "alignments",
        "norm+page",
        db,
        &format!("Alignment{NORM_PAGE}"),
    )?;
    Ok(r)
}

/// Run the full DGE analysis in-database and validate it against the
/// dataset's ground truth. Returns `(unique tags, genes expressed)`.
pub fn run_dge_analysis(db: &Arc<Database>, ds: &DgeDataset) -> Result<(usize, u64)> {
    run_dge_analysis_on(&db.server_session(), ds)
}

/// [`run_dge_analysis`] as statements of `session`: both analysis
/// queries run admitted against the global memory pool, governed by the
/// session's effective limits, and registered where another session's
/// `KILL` can reach them — the shape of a multi-tenant analysis server.
pub fn run_dge_analysis_on(
    session: &seqdb_engine::Session,
    ds: &DgeDataset,
) -> Result<(usize, u64)> {
    let q1 = queries::run_query1_on(session, NORM)?;
    queries::check_query1_against(&q1, &ds.unique_tags)?;
    let inserted = queries::run_query2_on(session, NORM)?;
    if inserted != ds.gene_expression.len() as u64 {
        return Err(DbError::Execution(format!(
            "Query 2 produced {inserted} genes, dataset has {}",
            ds.gene_expression.len()
        )));
    }
    Ok((q1.rows.len(), inserted))
}

/// Run all three consensus plans (hash-grouped pivot, sort-based pivot,
/// sliding window) and check they agree. Returns
/// `(consensus pairs, spill bytes of the sort-based pivot plan)`.
pub fn run_consensus_both_ways(db: &Arc<Database>) -> Result<(Vec<(i64, String)>, u64)> {
    let pivot = queries::run_query3_pivot(db, NORM)?;
    db.temp().reset_counters();
    let pivot_sorted = queries::run_query3_pivot_sorted(db, NORM)?;
    let sorted_spill = db.temp().bytes_written();
    let sliding = queries::run_query3_sliding(db, NORM)?;
    if pivot != sliding {
        return Err(DbError::Execution(
            "pivot and sliding-window consensus disagree".into(),
        ));
    }
    if pivot_sorted != sliding {
        return Err(DbError::Execution(
            "sort-based pivot and sliding-window consensus disagree".into(),
        ));
    }
    Ok((sliding, sorted_spill))
}

/// SNP discovery — the tertiary analysis that closes the 1000 Genomes
/// workflow (§2.1.1: the consensus "looks for variations between
/// individual genomes"). Builds the quality-aware pileup consensus per
/// chromosome, compares it against the reference, and scores the calls
/// against the dataset's planted donor variants.
pub fn discover_snps(
    ds: &ResequencingDataset,
    min_quality: seqdb_bio::quality::Phred,
) -> Result<(Vec<seqdb_bio::snp::SnpCall>, seqdb_bio::snp::SnpAccuracy)> {
    use seqdb_bio::consensus::PileupConsensus;
    use seqdb_bio::snp;

    let nchroms = ds.reference.chromosomes.len();
    let mut pileups: Vec<PileupConsensus> = ds
        .reference
        .chromosomes
        .iter()
        .map(|c| PileupConsensus::new(c.len()))
        .collect();
    let mut covered: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nchroms];

    for da in &ds.alignments {
        let read = &ds.reads[da.subject as usize].record;
        let oriented_seq;
        let oriented_quals: Vec<seqdb_bio::quality::Phred>;
        match da.alignment.strand {
            seqdb_bio::align::Strand::Forward => {
                oriented_seq = read.seq.clone().into_bytes();
                oriented_quals = read.quals.clone();
            }
            seqdb_bio::align::Strand::Reverse => {
                oriented_seq = seqdb_bio::dna::reverse_complement_str(&read.seq)?.into_bytes();
                oriented_quals = read.quals.iter().rev().copied().collect();
            }
        }
        let chrom = da.alignment.chrom as usize;
        let pos = da.alignment.pos as usize;
        pileups[chrom].add(pos, &oriented_seq, &oriented_quals)?;
        covered[chrom].push((pos, pos + oriented_seq.len()));
    }

    let mut calls = Vec::new();
    let mut spans = Vec::new();
    for (ci, pileup) in pileups.into_iter().enumerate() {
        let cons = pileup.finish();
        calls.extend(snp::call_snps(
            &ds.reference,
            ci,
            0,
            &cons.seq,
            &cons.quals,
            min_quality,
        ));
        // Merge the coverage intervals for fair recall accounting.
        let mut iv = std::mem::take(&mut covered[ci]);
        iv.sort_unstable();
        let mut merged: Vec<(usize, usize, usize)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some((_, _, le)) if s <= *le => *le = (*le).max(e),
                _ => merged.push((ci, s, e)),
            }
        }
        spans.extend(merged);
    }
    let accuracy = snp::score_calls(&calls, &ds.donor_snps, &spans);
    Ok((calls, accuracy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Scale;

    fn scale() -> Scale {
        Scale {
            genome_bp: 60_000,
            n_chromosomes: 3,
            n_reads: 3_000,
            seed: 17,
        }
    }

    #[test]
    fn dge_end_to_end_with_table1_shape() {
        let dir = crate::test_dir("workflow-dge");
        let ds = DgeDataset::generate(&dir, &scale()).unwrap();
        let db = Database::in_memory();
        load_dge_designs(&db, &ds).unwrap();
        let (tags, genes) = run_dge_analysis(&db, &ds).unwrap();
        assert_eq!(tags, ds.unique_tags.len());
        assert!(genes > 0);

        let report = dge_storage_report(&db, &ds).unwrap();
        // Table 1's qualitative shape:
        // FileStream has no overhead over the files.
        assert_eq!(
            report.get("short reads", "Files"),
            report.get("short reads", "FileStream")
        );
        // The 1:1 import of the alignments repeats the textual keys and
        // sequences, so it is much larger than the normalized schema
        // (the paper's central storage observation).
        let one2one = report.get("alignments", "1:1 import").unwrap();
        let norm_al = report.get("alignments", "normalized").unwrap();
        assert!(one2one > norm_al, "1:1 {one2one} !> normalized {norm_al}");
        // Row compression recovers the fixed-width overhead on reads.
        let norm = report.get("short reads", "normalized").unwrap();
        let rowc = report.get("short reads", "norm+row").unwrap();
        assert!(rowc <= norm, "row {rowc} !<= normalized {norm}");
        // Page compression helps a lot on repetitive DGE tags.
        let page = report.get("short reads", "norm+page").unwrap();
        assert!(page < norm, "page {page} !< normalized {norm}");
        let rendered = report.render(&DESIGNS);
        assert!(rendered.contains("short reads"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workflow_queries_run_under_the_governor() {
        let dir = crate::test_dir("workflow-governed");
        let ds = DgeDataset::generate(&dir, &scale()).unwrap();
        let db = Database::in_memory();
        load_dge_designs(&db, &ds).unwrap();

        // An impossible deadline fails the analysis query with a typed
        // timeout instead of running away.
        db.set_query_timeout_ms(Some(0));
        let err = queries::run_query1(&db, NORM).unwrap_err();
        assert!(matches!(err, DbError::Timeout(_)), "{err}");

        // A tight memory budget degrades the GROUP BY to spilling but
        // still produces the exact result.
        db.set_query_timeout_ms(None);
        db.set_query_memory_limit_kb(Some(8));
        db.temp().reset_counters();
        let q1 = queries::run_query1(&db, NORM).unwrap();
        queries::check_query1_against(&q1, &ds.unique_tags).unwrap();
        assert!(
            db.temp().spill_count() > 0,
            "an 8 KiB budget must force the aggregate to spill"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workflow_analysis_runs_under_a_session() {
        use seqdb_sql::SessionSqlExt;

        let dir = crate::test_dir("workflow-session");
        let ds = DgeDataset::generate(&dir, &scale()).unwrap();
        let db = Database::in_memory();
        load_dge_designs(&db, &ds).unwrap();

        // Session-scoped limits: a tight budget makes this session's
        // queries spill, while the server defaults other sessions see
        // stay untouched.
        let s = db.create_session();
        s.execute_sql("SET QUERY_MEMORY_LIMIT_KB = 8").unwrap();
        db.temp().reset_counters();
        let (tags, genes) = run_dge_analysis_on(&s, &ds).unwrap();
        assert_eq!(tags, ds.unique_tags.len());
        assert!(genes > 0);
        assert!(
            db.temp().spill_count() > 0,
            "the session's 8 KiB budget must force spilling"
        );
        // Query 2 is an INSERT … SELECT: it ran under the same budget
        // (its governed peak is on record) and its output is still exact.
        let q2 = seqdb_engine::fingerprint(&queries::query2_sql(NORM)).1;
        let store = db.query_store().snapshot();
        let entry = store.iter().find(|e| e.text == q2).unwrap();
        assert!(
            (1..=8 * 1024).contains(&entry.peak_mem_bytes),
            "Query 2 must be charged to, and stay within, the 8 KiB budget: {entry:?}"
        );
        let r = s
            .query_sql(&format!(
                "SELECT x_g_id, total_frequency, tag_count FROM GeneExpression{NORM}
                 ORDER BY total_frequency DESC, x_g_id"
            ))
            .unwrap();
        let got: Vec<(u32, u64, u64)> = r
            .rows
            .iter()
            .map(|x| {
                let int = |i: usize| x[i].as_int().unwrap();
                (int(0) as u32, int(1) as u64, int(2) as u64)
            })
            .collect();
        assert_eq!(got, ds.gene_expression);
        assert_eq!(
            db.config().query_mem_limit_kb,
            None,
            "SET in a session must not change the server default"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snp_discovery_recovers_planted_variants() {
        let dir = crate::test_dir("workflow-snp");
        // Higher coverage so most planted SNPs are recallable: 8000
        // 36-bp reads over 25 kbp ≈ 11x.
        let ds = ResequencingDataset::generate(
            &dir,
            &Scale {
                genome_bp: 25_000,
                n_chromosomes: 2,
                n_reads: 8_000,
                seed: 31,
            },
        )
        .unwrap();
        assert!(!ds.donor_snps.is_empty(), "dataset plants variants");
        let (calls, acc) = discover_snps(&ds, seqdb_bio::quality::Phred(40)).unwrap();
        assert!(!calls.is_empty());
        assert!(
            acc.recall() > 0.6,
            "recall {:.2} (tp {}, fn {})",
            acc.recall(),
            acc.true_positives,
            acc.false_negatives
        );
        assert!(
            acc.precision() > 0.6,
            "precision {:.2} (tp {}, fp {})",
            acc.precision(),
            acc.true_positives,
            acc.false_positives
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reseq_consensus_agrees_between_plans() {
        let dir = crate::test_dir("workflow-reseq");
        let ds = ResequencingDataset::generate(
            &dir,
            &Scale {
                genome_bp: 20_000,
                n_chromosomes: 2,
                n_reads: 2_000,
                seed: 23,
            },
        )
        .unwrap();
        let db = Database::in_memory();
        udx::register_udx(&db, None);
        import::import_reseq_normalized(&db, NORM, Compression::Row, &ds).unwrap();
        let (consensus, _spill) = run_consensus_both_ways(&db).unwrap();
        assert_eq!(consensus.len(), 2, "one consensus per covered chromosome");
        // The consensus string starts at the first covered position of
        // the chromosome; align it before comparing to the reference.
        let chr_id = consensus[0].0 as u32;
        let start = ds
            .alignments
            .iter()
            .filter(|a| a.alignment.chrom == chr_id)
            .map(|a| a.alignment.pos as usize)
            .min()
            .unwrap();
        let chrom = &ds.reference.chromosomes[chr_id as usize];
        let called: Vec<u8> = consensus[0].1.bytes().collect();
        let span = &chrom.seq[start..(start + called.len()).min(chrom.len())];
        let matches = called
            .iter()
            .zip(span.iter())
            .filter(|(a, b)| a == b)
            .count();
        // ~3.6x coverage: most covered positions reconstruct correctly.
        assert!(
            matches * 10 > called.len() * 8,
            "consensus matches reference on {matches}/{} positions",
            called.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
