//! Loaders from the generated datasets into each physical design (§3.3).

use std::sync::Arc;

use seqdb_engine::Database;
use seqdb_storage::rowfmt::Compression;
use seqdb_types::{Result, Row, Value};

use crate::dataset::{DgeDataset, ResequencingDataset};
use crate::schema;
use crate::udx::DB_QUAL_ENCODING;

/// Provenance constants used by the workflows: one experiment, one
/// sample group, one sample, one lane.
pub const E_ID: i64 = 1;
pub const SG_ID: i64 = 1;
pub const S_ID: i64 = 1;
pub const L_ID: i64 = 1;

fn quals_text(quals: &[seqdb_bio::quality::Phred]) -> String {
    DB_QUAL_ENCODING.encode(quals)
}

/// Populate the provenance/metadata tables of a normalized design.
fn load_metadata(
    db: &Arc<Database>,
    suffix: &str,
    experiment_type: &str,
    reference: &seqdb_bio::reference::ReferenceGenome,
) -> Result<()> {
    let cat = db.catalog();
    cat.table(&format!("Experiment{suffix}"))?
        .insert(&Row::new(vec![
            Value::Int(E_ID),
            Value::text(format!("{experiment_type}-lane-1")),
            Value::text(experiment_type),
            Value::text("2008-11-03"),
        ]))?;
    cat.table(&format!("SampleGroup{suffix}"))?
        .insert(&Row::new(vec![
            Value::Int(SG_ID),
            Value::Int(E_ID),
            Value::text("group-1"),
        ]))?;
    cat.table(&format!("Sample{suffix}"))?
        .insert(&Row::new(vec![
            Value::Int(S_ID),
            Value::Int(SG_ID),
            Value::text("sample-1"),
        ]))?;
    cat.table(&format!("Lane{suffix}"))?.insert(&Row::new(vec![
        Value::Int(L_ID),
        Value::Int(S_ID),
        Value::text("IL4"),
        Value::Int(855),
        Value::Int(1),
    ]))?;
    let refs = cat.table(&format!("ReferenceSeq{suffix}"))?;
    for (i, c) in reference.chromosomes.iter().enumerate() {
        refs.insert(&Row::new(vec![
            Value::Int(i as i64),
            Value::text(c.name.clone()),
            Value::Int(c.len() as i64),
        ]))?;
    }
    Ok(())
}

/// Import a DGE dataset into a normalized design under `suffix`.
pub fn import_dge_normalized(
    db: &Arc<Database>,
    suffix: &str,
    compression: Compression,
    ds: &DgeDataset,
) -> Result<()> {
    schema::create_normalized_schema(db, suffix, compression)?;
    load_metadata(db, suffix, "dge", &ds.reference)?;
    let cat = db.catalog();

    let genes = cat.table(&format!("Gene{suffix}"))?;
    for g in &ds.genes {
        genes.insert(&Row::new(vec![
            Value::Int(g.gene_id as i64),
            Value::text(format!("GENE{:05}", g.gene_id)),
            Value::Int(g.chrom as i64),
            Value::Int(g.start as i64),
            Value::Int(g.len as i64),
        ]))?;
    }

    let reads = cat.table(&format!("Read{suffix}"))?;
    for (i, r) in ds.reads.iter().enumerate() {
        let name = seqdb_bio::readname::ReadName::parse(&r.name)?;
        reads.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::Int(L_ID),
            Value::Int(name.tile as i64),
            Value::Int(name.x as i64),
            Value::Int(name.y as i64),
            Value::text(r.seq.clone()),
            Value::text(quals_text(&r.quals)),
        ]))?;
    }

    let tags = cat.table(&format!("Tag{suffix}"))?;
    for (i, (tag, freq)) in ds.unique_tags.iter().enumerate() {
        tags.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::text(tag.clone()),
            Value::Int(*freq as i64),
        ]))?;
    }

    let alignments = cat.table(&format!("Alignment{suffix}"))?;
    for (i, da) in ds.alignments.iter().enumerate() {
        alignments.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::Int(da.subject as i64 + 1), // tag id
            da.gene_id
                .map(|g| Value::Int(g as i64))
                .unwrap_or(Value::Null),
            Value::Int(da.alignment.chrom as i64),
            Value::Int(da.alignment.pos as i64),
            Value::text(da.alignment.strand.symbol().to_string()),
            Value::Int(da.alignment.mismatches as i64),
            Value::Int(da.alignment.mapq as i64),
        ]))?;
    }
    Ok(())
}

/// Import a DGE dataset into the naive 1:1 file-image design.
pub fn import_dge_file_image(
    db: &Arc<Database>,
    suffix: &str,
    compression: Compression,
    ds: &DgeDataset,
) -> Result<()> {
    schema::create_file_image_schema(db, suffix, compression)?;
    let cat = db.catalog();

    let raw_reads = cat.table(&format!("RawReads{suffix}"))?;
    for r in &ds.reads {
        raw_reads.insert(&Row::new(vec![
            Value::text(r.name.clone()),
            Value::text(r.seq.clone()),
            Value::text(quals_text(&r.quals)),
        ]))?;
    }

    let raw_tags = cat.table(&format!("RawTags{suffix}"))?;
    for (rank, (tag, freq)) in ds.unique_tags.iter().enumerate() {
        raw_tags.insert(&Row::new(vec![
            Value::Int(rank as i64 + 1),
            Value::Int(*freq as i64),
            Value::text(tag.clone()),
        ]))?;
    }

    let raw_al = cat.table(&format!("RawAlignments{suffix}"))?;
    for da in &ds.alignments {
        let (tag, _) = &ds.unique_tags[da.subject as usize];
        let chrom = &ds.reference.chromosomes[da.alignment.chrom as usize];
        raw_al.insert(&Row::new(vec![
            // The 1:1 design repeats the *textual* identifier (here the
            // tag itself serves as the identifier, like the read name in
            // the FASTQ) — the paper's storage-bloat mechanism.
            Value::text(tag.clone()),
            Value::text(chrom.name.clone()),
            Value::Int(da.alignment.pos as i64 + 1),
            Value::text(da.alignment.strand.symbol().to_string()),
            Value::Int(da.alignment.mapq as i64),
            Value::Int(da.alignment.mismatches as i64),
            Value::text(tag.clone()),
        ]))?;
    }

    let raw_expr = cat.table(&format!("RawGeneExpression{suffix}"))?;
    for (g, f, c) in &ds.gene_expression {
        raw_expr.insert(&Row::new(vec![
            Value::text(format!("GENE{g:05}")),
            Value::Int(*f as i64),
            Value::Int(*c as i64),
        ]))?;
    }
    Ok(())
}

/// Import a re-sequencing dataset into a normalized design.
pub fn import_reseq_normalized(
    db: &Arc<Database>,
    suffix: &str,
    compression: Compression,
    ds: &ResequencingDataset,
) -> Result<()> {
    schema::create_normalized_schema(db, suffix, compression)?;
    load_metadata(db, suffix, "resequencing", &ds.reference)?;
    let cat = db.catalog();

    let reads = cat.table(&format!("Read{suffix}"))?;
    for (i, r) in ds.reads.iter().enumerate() {
        let name = seqdb_bio::readname::ReadName::parse(&r.record.name)?;
        reads.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::Int(L_ID),
            Value::Int(name.tile as i64),
            Value::Int(name.x as i64),
            Value::Int(name.y as i64),
            Value::text(r.record.seq.clone()),
            Value::text(quals_text(&r.record.quals)),
        ]))?;
    }

    let alignments = cat.table(&format!("Alignment{suffix}"))?;
    for (i, da) in ds.alignments.iter().enumerate() {
        alignments.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::Int(da.subject as i64 + 1), // read id
            Value::Null,
            Value::Int(da.alignment.chrom as i64),
            Value::Int(da.alignment.pos as i64),
            Value::text(da.alignment.strand.symbol().to_string()),
            Value::Int(da.alignment.mismatches as i64),
            Value::Int(da.alignment.mapq as i64),
        ]))?;
    }
    Ok(())
}

/// Import a re-sequencing dataset into the 1:1 file-image design.
pub fn import_reseq_file_image(
    db: &Arc<Database>,
    suffix: &str,
    compression: Compression,
    ds: &ResequencingDataset,
) -> Result<()> {
    schema::create_file_image_schema(db, suffix, compression)?;
    let cat = db.catalog();
    let raw_reads = cat.table(&format!("RawReads{suffix}"))?;
    for r in &ds.reads {
        raw_reads.insert(&Row::new(vec![
            Value::text(r.record.name.clone()),
            Value::text(r.record.seq.clone()),
            Value::text(quals_text(&r.record.quals)),
        ]))?;
    }
    let raw_al = cat.table(&format!("RawAlignments{suffix}"))?;
    for da in &ds.alignments {
        let read = &ds.reads[da.subject as usize].record;
        let chrom = &ds.reference.chromosomes[da.alignment.chrom as usize];
        // Mirror the text export: '-'-strand reads stored in reference
        // orientation.
        let oriented = match da.alignment.strand {
            seqdb_bio::align::Strand::Forward => read.seq.clone(),
            seqdb_bio::align::Strand::Reverse => seqdb_bio::dna::reverse_complement_str(&read.seq)?,
        };
        raw_al.insert(&Row::new(vec![
            Value::text(read.name.clone()),
            Value::text(chrom.name.clone()),
            Value::Int(da.alignment.pos as i64 + 1),
            Value::text(da.alignment.strand.symbol().to_string()),
            Value::Int(da.alignment.mapq as i64),
            Value::Int(da.alignment.mismatches as i64),
            Value::text(oriented),
        ]))?;
    }
    Ok(())
}

/// Import reads into a *bit-packed* Read table — the §6.1 extension: a
/// domain-specific sequence type with internal compression. The table
/// mirrors `Read<suffix>` but stores `short_read_seq` as a packed
/// VARBINARY (2 bits/base when N-free) and the Phred scores as raw
/// bytes; `UNPACK_SEQ(...)` restores the text in queries.
pub fn import_reads_packed(
    db: &Arc<Database>,
    suffix: &str,
    compression: Compression,
    reads: impl Iterator<Item = seqdb_bio::fastq::FastqRecord>,
) -> Result<()> {
    use seqdb_sql::DatabaseSqlExt;
    let c = match compression {
        Compression::None => String::new(),
        other => format!(" WITH (DATA_COMPRESSION = {})", other.sql_name()),
    };
    db.execute_sql(&format!(
        "CREATE TABLE ReadPacked{suffix} (
            r_id INT NOT NULL PRIMARY KEY,
            r_e_id INT NOT NULL,
            r_sg_id INT NOT NULL,
            r_s_id INT NOT NULL,
            r_l_id INT NOT NULL,
            tile INT NOT NULL,
            x INT NOT NULL,
            y INT NOT NULL,
            short_read_seq VARBINARY(512) NOT NULL,
            quals VARBINARY(512) NOT NULL
        ){c}"
    ))?;
    let table = db.catalog().table(&format!("ReadPacked{suffix}"))?;
    for (i, r) in reads.enumerate() {
        let name = seqdb_bio::readname::ReadName::parse(&r.name)?;
        let packed = seqdb_bio::dna::PackedSeq::from_str(&r.seq)?;
        let qual_bytes: Vec<u8> = r.quals.iter().map(|q| q.0).collect();
        table.insert(&Row::new(vec![
            Value::Int(i as i64 + 1),
            Value::Int(E_ID),
            Value::Int(SG_ID),
            Value::Int(S_ID),
            Value::Int(L_ID),
            Value::Int(name.tile as i64),
            Value::Int(name.x as i64),
            Value::Int(name.y as i64),
            Value::bytes(packed.to_bytes()),
            Value::bytes(qual_bytes),
        ]))?;
    }
    Ok(())
}

/// Import the level-1 FASTQ into the hybrid FileStream design (the
/// `OPENROWSET ... SINGLE_BLOB` path, streamed from the file).
pub fn import_filestream(
    db: &Arc<Database>,
    suffix: &str,
    fastq_path: &std::path::Path,
    sample: i64,
    lane: i64,
) -> Result<()> {
    if !db.catalog().has_table(&format!("ShortReadFiles{suffix}")) {
        schema::create_filestream_schema(db, suffix)?;
    }
    let guid = db.filestream().insert_from_file(fastq_path)?;
    let inserted = db
        .catalog()
        .table(&format!("ShortReadFiles{suffix}"))
        .and_then(|t| {
            t.insert(&Row::new(vec![
                Value::guid(guid),
                Value::Int(sample),
                Value::Int(lane),
                Value::guid(guid),
            ]))
        });
    if let Err(e) = inserted {
        // The blob landed but its catalog row did not: without the row the
        // GUID is unreachable, so reclaim it rather than orphan it.
        let _ = db.filestream().delete(guid);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Scale;
    use seqdb_sql::DatabaseSqlExt;

    fn small_dge(test: &str) -> DgeDataset {
        DgeDataset::generate(
            &crate::test_dir(test),
            &Scale {
                genome_bp: 50_000,
                n_chromosomes: 3,
                n_reads: 1500,
                seed: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn normalized_import_row_counts_match_dataset() {
        let ds = small_dge("normalized_import_row_counts_match_dataset");
        let db = Database::in_memory();
        import_dge_normalized(&db, "", Compression::Row, &ds).unwrap();
        assert_eq!(
            db.catalog().table("Read").unwrap().row_count(),
            ds.reads.len() as u64
        );
        assert_eq!(
            db.catalog().table("Tag").unwrap().row_count(),
            ds.unique_tags.len() as u64
        );
        assert_eq!(
            db.catalog().table("Alignment").unwrap().row_count(),
            ds.alignments.len() as u64
        );
        // Provenance query: which machine sequenced sample 1?
        let r = db
            .query_sql(
                "SELECT machine, flowcell FROM Lane JOIN Sample ON l_s_id = s_id WHERE s_id = 1",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::text("IL4"));
        std::fs::remove_dir_all(&ds.dir).unwrap();
    }

    #[test]
    fn file_image_and_filestream_imports() {
        let ds = small_dge("file_image_and_filestream_imports");
        let db = Database::in_memory();
        import_dge_file_image(&db, "", Compression::None, &ds).unwrap();
        import_filestream(&db, "", &ds.fastq_path, 855, 1).unwrap();
        assert_eq!(
            db.catalog().table("RawReads").unwrap().row_count(),
            ds.reads.len() as u64
        );
        // FileStream blob size == original file size (zero overhead).
        let file_len = std::fs::metadata(&ds.fastq_path).unwrap().len();
        assert_eq!(db.filestream().total_bytes().unwrap(), file_len);
        std::fs::remove_dir_all(&ds.dir).unwrap();
    }
}
