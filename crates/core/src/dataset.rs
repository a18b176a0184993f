//! Synthetic datasets for the paper's two scenarios.
//!
//! Each generator produces both the *file-centric* artifacts (the level-1
//! FASTQ, level-2 alignment text and level-3 analysis text that the
//! "Files" column of Tables 1–2 measures) and in-memory structures the
//! importers load into the database designs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seqdb_bio::align::{Aligner, AlignerConfig, Alignment};
use seqdb_bio::fastq::{write_fastq_record, FastqRecord};
use seqdb_bio::reference::ReferenceGenome;
use seqdb_bio::simulate::{DgeSimulator, LaneConfig, ReadSimulator, SimGene, SimulatedRead};
use seqdb_types::Result;

use crate::udx::DB_QUAL_ENCODING;

/// Scale knobs shared by both scenarios.
#[derive(Debug, Clone)]
pub struct Scale {
    pub genome_bp: usize,
    pub n_chromosomes: usize,
    pub n_reads: usize,
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            genome_bp: 400_000,
            n_chromosomes: 5,
            n_reads: 20_000,
            seed: 2009,
        }
    }
}

/// One alignment of a unique tag (DGE) or read (re-sequencing), plus the
/// id of what it aligns.
#[derive(Debug, Clone)]
pub struct DatasetAlignment {
    /// Index into the unique-tag list (DGE) or read list (re-sequencing).
    pub subject: u32,
    pub alignment: Alignment,
    /// Gene hit (DGE only).
    pub gene_id: Option<u32>,
}

/// The digital gene expression dataset (paper §2.1.2 / Table 1).
pub struct DgeDataset {
    pub dir: PathBuf,
    pub fastq_path: PathBuf,
    pub unique_tags_path: PathBuf,
    pub alignments_path: PathBuf,
    pub gene_expr_path: PathBuf,
    pub genes_path: PathBuf,
    pub reference: Arc<ReferenceGenome>,
    pub genes: Vec<SimGene>,
    /// The raw tag reads (level-1 data).
    pub reads: Vec<FastqRecord>,
    /// Unique tags with frequencies, descending (the §4.2.1 binning
    /// output).
    pub unique_tags: Vec<(String, u64)>,
    /// Alignments of the unique tags.
    pub alignments: Vec<DatasetAlignment>,
    /// Gene expression result: (gene_id, total_frequency, tag_count).
    pub gene_expression: Vec<(u32, u64, u64)>,
}

/// Bin reads into unique N-free tags with frequencies, descending (the
/// §4.2.1 analysis, used both by the dataset generator and tests).
pub fn bin_unique_tags(reads: &[FastqRecord]) -> Vec<(String, u64)> {
    let mut counts: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for r in reads {
        if !r.seq.contains('N') {
            *counts.entry(r.seq.as_str()).or_default() += 1;
        }
    }
    let mut out: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(s, c)| (s.to_string(), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

impl DgeDataset {
    /// Generate the full DGE lane: simulate tags, write the level-1
    /// FASTQ, bin unique tags, align them, map to genes and aggregate
    /// expression — writing each phase's file artifact.
    pub fn generate(dir: &Path, scale: &Scale) -> Result<DgeDataset> {
        std::fs::create_dir_all(dir)?;
        let reference = Arc::new(ReferenceGenome::synthetic(
            scale.seed,
            scale.n_chromosomes,
            scale.genome_bp,
        ));
        let n_genes = (scale.n_reads / 100).clamp(20, 2000);
        let mut sim = DgeSimulator::new(
            LaneConfig::default(),
            &reference,
            n_genes,
            1.05,
            scale.seed ^ 0xD6E,
        );
        let reads = sim.lane(scale.n_reads);
        let genes = sim.genes.clone();

        // Level-1 artifact: the FASTQ file.
        let fastq_path = dir.join("lane_s_1.fastq");
        {
            let mut w = BufWriter::new(File::create(&fastq_path)?);
            for r in &reads {
                write_fastq_record(&mut w, r, DB_QUAL_ENCODING)?;
            }
            w.flush()?;
        }

        // Binning (the Perl-script step of §4.2.1).
        let unique_tags = bin_unique_tags(&reads);
        let unique_tags_path = dir.join("unique_tags.txt");
        {
            let mut w = BufWriter::new(File::create(&unique_tags_path)?);
            for (rank, (tag, count)) in unique_tags.iter().enumerate() {
                writeln!(w, "{}\t{}\t{}", rank + 1, count, tag)?;
            }
            w.flush()?;
        }

        // Align unique tags (phase-2, MAQ-equivalent).
        let aligner = Aligner::new(reference.clone(), AlignerConfig::default());
        // Gene lookup: exact tag anchor position -> gene.
        let mut tag_pos_to_gene: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for g in &genes {
            let anchor = (g.start + g.len - g.tag.len()) as u32;
            tag_pos_to_gene.insert((g.chrom as u32, anchor), g.gene_id);
        }
        let mut alignments = Vec::new();
        for (i, (tag, _freq)) in unique_tags.iter().enumerate() {
            let quals = vec![seqdb_bio::quality::Phred(30); tag.len()];
            if let Some(a) = aligner.align(tag, &quals) {
                let gene_id = tag_pos_to_gene.get(&(a.chrom, a.pos)).copied();
                alignments.push(DatasetAlignment {
                    subject: i as u32,
                    alignment: a,
                    gene_id,
                });
            }
        }

        // Level-2 artifact: the alignment text export.
        let alignments_path = dir.join("alignments.txt");
        {
            let mut w = BufWriter::new(File::create(&alignments_path)?);
            for da in &alignments {
                let (tag, freq) = &unique_tags[da.subject as usize];
                let chrom = &reference.chromosomes[da.alignment.chrom as usize];
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    tag,
                    freq,
                    chrom.name,
                    da.alignment.pos + 1,
                    da.alignment.strand.symbol(),
                    da.alignment.mapq,
                    da.alignment.mismatches,
                )?;
            }
            w.flush()?;
        }

        // Gene table artifact (reference annotation used by scripts).
        let genes_path = dir.join("genes.txt");
        {
            let mut w = BufWriter::new(File::create(&genes_path)?);
            for g in &genes {
                writeln!(
                    w,
                    "GENE{:05}\t{}\t{}\t{}",
                    g.gene_id, reference.chromosomes[g.chrom].name, g.start, g.len
                )?;
            }
            w.flush()?;
        }

        // Level-3: gene expression (the Query 2 result).
        let mut per_gene: std::collections::HashMap<u32, (u64, u64)> =
            std::collections::HashMap::new();
        for da in &alignments {
            if let Some(g) = da.gene_id {
                let freq = unique_tags[da.subject as usize].1;
                let e = per_gene.entry(g).or_default();
                e.0 += freq;
                e.1 += 1;
            }
        }
        let mut gene_expression: Vec<(u32, u64, u64)> =
            per_gene.into_iter().map(|(g, (f, c))| (g, f, c)).collect();
        gene_expression.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let gene_expr_path = dir.join("gene_expression.txt");
        {
            let mut w = BufWriter::new(File::create(&gene_expr_path)?);
            for (g, f, c) in &gene_expression {
                writeln!(w, "GENE{g:05}\t{f}\t{c}")?;
            }
            w.flush()?;
        }

        Ok(DgeDataset {
            dir: dir.to_path_buf(),
            fastq_path,
            unique_tags_path,
            alignments_path,
            gene_expr_path,
            genes_path,
            reference,
            genes,
            reads,
            unique_tags,
            alignments,
            gene_expression,
        })
    }
}

/// The re-sequencing dataset (1000 Genomes, §2.1.1 / Table 2).
///
/// Reads are sequenced from a *donor individual* — the reference genome
/// with SNPs planted at ~1/2000 bp — and aligned back against the
/// original reference, so the tertiary analysis (consensus + SNP
/// discovery, §2.1.1) has real variants to find.
pub struct ResequencingDataset {
    pub dir: PathBuf,
    pub fastq_path: PathBuf,
    pub alignments_path: PathBuf,
    pub reference_path: PathBuf,
    pub reference: Arc<ReferenceGenome>,
    /// Ground-truth variants of the donor genome the reads came from.
    pub donor_snps: Vec<seqdb_bio::snp::PlantedSnp>,
    pub reads: Vec<SimulatedRead>,
    pub alignments: Vec<DatasetAlignment>,
}

impl ResequencingDataset {
    pub fn generate(dir: &Path, scale: &Scale) -> Result<ResequencingDataset> {
        std::fs::create_dir_all(dir)?;
        let reference = Arc::new(ReferenceGenome::synthetic(
            scale.seed ^ 0x1000,
            scale.n_chromosomes,
            scale.genome_bp,
        ));
        let reference_path = dir.join("reference.fa");
        {
            let mut w = BufWriter::new(File::create(&reference_path)?);
            reference.to_fasta(&mut w)?;
            w.flush()?;
        }
        // The individual being sequenced differs from the reference.
        let (donor, donor_snps) =
            seqdb_bio::snp::plant_snps(&reference, 0.0005, scale.seed ^ 0x5A9);
        let mut sim = ReadSimulator::new(LaneConfig::default(), scale.seed ^ 0x2000);
        let reads = sim.lane(&donor, scale.n_reads);
        let fastq_path = dir.join("lane_s_1.fastq");
        {
            let mut w = BufWriter::new(File::create(&fastq_path)?);
            for r in &reads {
                write_fastq_record(&mut w, &r.record, DB_QUAL_ENCODING)?;
            }
            w.flush()?;
        }
        let aligner = Aligner::new(reference.clone(), AlignerConfig::default());
        let mut alignments = Vec::new();
        for (i, r) in reads.iter().enumerate() {
            if let Some(a) = aligner.align(&r.record.seq, &r.record.quals) {
                alignments.push(DatasetAlignment {
                    subject: i as u32,
                    alignment: a,
                    gene_id: None,
                });
            }
        }
        let alignments_path = dir.join("alignments.txt");
        {
            let mut w = BufWriter::new(File::create(&alignments_path)?);
            for da in &alignments {
                let read = &reads[da.subject as usize].record;
                let chrom = &reference.chromosomes[da.alignment.chrom as usize];
                // mapview convention: '-'-strand reads are printed in
                // reference (forward) orientation.
                let oriented = match da.alignment.strand {
                    seqdb_bio::align::Strand::Forward => read.seq.clone(),
                    seqdb_bio::align::Strand::Reverse => {
                        seqdb_bio::dna::reverse_complement_str(&read.seq)?
                    }
                };
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    read.name,
                    chrom.name,
                    da.alignment.pos + 1,
                    da.alignment.strand.symbol(),
                    da.alignment.mapq,
                    da.alignment.mismatches,
                    oriented,
                )?;
            }
            w.flush()?;
        }
        Ok(ResequencingDataset {
            dir: dir.to_path_buf(),
            fastq_path,
            alignments_path,
            reference_path,
            reference,
            donor_snps,
            reads,
            alignments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            genome_bp: 60_000,
            n_chromosomes: 3,
            n_reads: 2_000,
            seed: 7,
        }
    }

    #[test]
    fn dge_dataset_is_consistent() {
        let d = crate::test_dir("dataset-dge");
        let ds = DgeDataset::generate(&d, &small()).unwrap();
        assert_eq!(ds.reads.len(), 2000);
        // Tags repeat: far fewer unique tags than reads.
        assert!(ds.unique_tags.len() < 1500, "{}", ds.unique_tags.len());
        // Frequencies descending and sum <= reads (N-containing dropped).
        assert!(ds.unique_tags.windows(2).all(|w| w[0].1 >= w[1].1));
        let total: u64 = ds.unique_tags.iter().map(|(_, c)| c).sum();
        assert!(total <= 2000);
        // Most frequent tags align to a gene.
        let with_gene = ds.alignments.iter().filter(|a| a.gene_id.is_some()).count();
        assert!(
            with_gene * 2 > ds.alignments.len(),
            "{with_gene}/{}",
            ds.alignments.len()
        );
        // Expression totals match alignment bookkeeping.
        let expr_total: u64 = ds.gene_expression.iter().map(|(_, f, _)| f).sum();
        let align_total: u64 = ds
            .alignments
            .iter()
            .filter(|a| a.gene_id.is_some())
            .map(|a| ds.unique_tags[a.subject as usize].1)
            .sum();
        assert_eq!(expr_total, align_total);
        // All four artifacts exist and are non-empty.
        for p in [
            &ds.fastq_path,
            &ds.unique_tags_path,
            &ds.alignments_path,
            &ds.gene_expr_path,
        ] {
            assert!(std::fs::metadata(p).unwrap().len() > 0);
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn resequencing_dataset_aligns_most_reads() {
        let d = crate::test_dir("dataset-reseq");
        let ds = ResequencingDataset::generate(&d, &small()).unwrap();
        assert_eq!(ds.reads.len(), 2000);
        // Re-sequencing: alignments ≈ reads (paper: "order of magnitude
        // larger number of alignments" vs. DGE's unique tags).
        assert!(ds.alignments.len() > 1600, "{}", ds.alignments.len());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bin_unique_tags_drops_n_and_sorts() {
        let mk = |s: &str| FastqRecord {
            name: "r".into(),
            seq: s.into(),
            quals: vec![seqdb_bio::quality::Phred(30); s.len()],
        };
        let reads = vec![mk("AAA"), mk("CCC"), mk("AAA"), mk("ANA"), mk("AAA")];
        let tags = bin_unique_tags(&reads);
        assert_eq!(tags, vec![("AAA".to_string(), 3), ("CCC".to_string(), 1)]);
    }
}
