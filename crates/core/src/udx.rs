//! The paper's user-defined extensions (§3.3, §4.1, §4.2).
//!
//! * [`ListShortReadsTvf`] — the FileStream wrapper TVF of §3.3/§4.1:
//!   streams a FASTQ blob through the chunked buffer-paging parser and
//!   converts entries to rows in its `fill_row` step;
//! * [`PivotAlignmentTvf`] — Query 3's pivot: one aligned read →
//!   (position, base, qual) rows;
//! * [`CallBaseAgg`] — quality-weighted per-position base calling UDA;
//! * [`AssembleSequenceAgg`] — concatenates called bases back into a
//!   consensus string;
//! * [`AssembleConsensusAgg`] — the optimized sliding-window UDA of
//!   §4.2.3/§5.3.3: consumes `(pos, seq, quals)` in ascending position
//!   order and never materializes the pivoted intermediate. Its
//!   `order_arg()` names `pos`: the binder orders the input by (group
//!   keys, `pos`) — through the `(a_chr_id, a_pos)` index when it can,
//!   with a Sort when it cannot — and never plans it in parallel;
//! * [`AlignReadsTvf`] — in-database alignment (the §6.1 future-work
//!   item), wrapping the seqdb-bio aligner.
//!
//! In-database sequences are stored as ASCII text with Sanger-encoded
//! quality strings (offset 33), like the FASTQ they came from.

use std::any::Any;
use std::sync::Arc;

use seqdb_bio::align::Aligner;
use seqdb_bio::fastq::{ChunkSource, ChunkedFastqParser, FastqEntryRef};
use seqdb_bio::quality::{Phred, QualityEncoding};
use seqdb_engine::udx::downcast_state;
use seqdb_engine::{AggState, Aggregate, Database, ExecContext, TableFunction, TvfCursor};
use seqdb_storage::FileStreamReader;
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value, ValueRef};

/// The quality-string encoding used inside the database.
pub const DB_QUAL_ENCODING: QualityEncoding = QualityEncoding::Sanger;

fn base_index(b: u8) -> Option<usize> {
    match b.to_ascii_uppercase() {
        b'A' => Some(0),
        b'C' => Some(1),
        b'G' => Some(2),
        b'T' => Some(3),
        _ => None,
    }
}

const BASE_CHARS: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Vote slot of every byte for [`AssembleConsensusState`]: 0–3 for A, C,
/// G, T in either case (`base_index`), 4 — a slot [`call`] never reads
/// — for anything else. With `complement` each base takes its
/// complement's slot, which is how a '-' read votes.
const fn vote_slots(complement: bool) -> [u8; 256] {
    let mut slots = [4u8; 256];
    let mut i = 0;
    while i < 4 {
        let slot = if complement { 3 - i } else { i } as u8;
        slots[BASE_CHARS[i] as usize] = slot;
        slots[BASE_CHARS[i].to_ascii_lowercase() as usize] = slot;
        i += 1;
    }
    slots
}

const FORWARD_SLOTS: [u8; 256] = vote_slots(false);
const COMPLEMENT_SLOTS: [u8; 256] = vote_slots(true);

/// Whether a read aligned to `strand` (the mapview convention: `"+"` or
/// `"-"`; empty means `"+"`) is on the reverse strand.
fn is_reverse(strand: &str) -> Result<bool> {
    match strand {
        "+" | "" => Ok(false),
        "-" => Ok(true),
        other => Err(DbError::Execution(format!(
            "strand must be '+' or '-', got '{other}'"
        ))),
    }
}

/// Orient a read for pileup: reads aligned to the reverse strand must be
/// reverse-complemented (with their qualities reversed) before their
/// bases can vote at forward-strand positions.
fn orient(seq: Vec<u8>, quals: Vec<Phred>, strand: &str) -> Result<(Vec<u8>, Vec<Phred>)> {
    if !is_reverse(strand)? {
        return Ok((seq, quals));
    }
    let seq = seq
        .into_iter()
        .rev()
        .map(|b| match b.to_ascii_uppercase() {
            b'A' => b'T',
            b'T' => b'A',
            b'C' => b'G',
            b'G' => b'C',
            other => other,
        })
        .collect();
    Ok((seq, quals.into_iter().rev().collect()))
}

/// The called base of one position's A, C, G, T quality sums (the
/// first four of `sums`).
fn call(sums: &[u32]) -> u8 {
    let mut best = 0usize;
    for i in 1..4 {
        if sums[i] > sums[best] {
            best = i;
        }
    }
    if sums[best] == 0 {
        b'N'
    } else {
        BASE_CHARS[best]
    }
}

// ----------------------------------------------------------------------
// ListShortReads
// ----------------------------------------------------------------------

/// `ListShortReads(sample, lane, 'FastQ')`: the relational wrapper over a
/// FileStream FASTQ blob.
pub struct ListShortReadsTvf {
    /// Name of the hybrid table holding `(sample, lane, reads FILESTREAM)`.
    pub table: String,
}

impl ListShortReadsTvf {
    pub fn new(table: impl Into<String>) -> ListShortReadsTvf {
        ListShortReadsTvf {
            table: table.into(),
        }
    }
}

/// Chunk source over a FileStream reader (the `GetBytes` +
/// `SequentialAccess` path of §4.1).
struct FileStreamChunks {
    reader: FileStreamReader,
    offset: u64,
}

impl ChunkSource for FileStreamChunks {
    fn read_chunk(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.reader.get_bytes(self.offset, buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

struct ListShortReadsCursor {
    parser: ChunkedFastqParser<FileStreamChunks>,
    current: Option<(String, String, String)>,
}

impl TvfCursor for ListShortReadsCursor {
    fn move_next(&mut self) -> Result<bool> {
        // MoveNext advances the parse cursor; the String conversions stay
        // in fill_row (split per Figure 5). We must stash owned copies of
        // the entry bounds because the parser's buffer mutates on the
        // next advance.
        match self.parser.next_ref()? {
            None => {
                self.current = None;
                Ok(false)
            }
            Some(FastqEntryRef { name, seq, qual }) => {
                self.current = Some((
                    String::from_utf8_lossy(name).into_owned(),
                    String::from_utf8_lossy(seq).into_owned(),
                    String::from_utf8_lossy(qual).into_owned(),
                ));
                Ok(true)
            }
        }
    }

    fn fill_row(&mut self) -> Result<Row> {
        let (name, seq, qual) = self
            .current
            .take()
            .ok_or_else(|| DbError::Execution("fill_row before move_next".into()))?;
        let len = seq.len() as i64;
        Ok(Row::new(vec![
            Value::text(name),
            Value::text(seq),
            Value::text(qual),
            Value::Int(len),
        ]))
    }
}

impl TableFunction for ListShortReadsTvf {
    fn name(&self) -> &str {
        "ListShortReads"
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("read_name", DataType::Text).not_null(),
            Column::new("short_read_seq", DataType::Text).not_null(),
            Column::new("quals", DataType::Text).not_null(),
            Column::new("read_len", DataType::Int).not_null(),
        ]))
    }

    fn open(&self, args: &[Value], ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        let [sample, lane, format] = args else {
            return Err(DbError::Execution(
                "ListShortReads(sample, lane, format) expects three arguments".into(),
            ));
        };
        if !format.as_text()?.eq_ignore_ascii_case("fastq") {
            return Err(DbError::Unsupported(format!(
                "ListShortReads format '{}' (only FastQ)",
                format.as_text()?
            )));
        }
        let sample = sample.as_int()?;
        let lane = lane.as_int()?;
        // Locate the blob row.
        let table = ctx.catalog.table(&self.table)?;
        let s_idx = table.schema.resolve("sample")?;
        let l_idx = table.schema.resolve("lane")?;
        let r_idx = table.schema.resolve("reads")?;
        let mut guid = None;
        for item in table.heap.scan() {
            let (_, row) = item?;
            if row[s_idx] == Value::Int(sample) && row[l_idx] == Value::Int(lane) {
                guid = Some(row[r_idx].as_guid()?);
                break;
            }
        }
        let guid = guid.ok_or_else(|| {
            DbError::NotFound(format!(
                "no FileStream row for sample {sample}, lane {lane} in {}",
                self.table
            ))
        })?;
        let reader = ctx.filestream.open_reader(guid, true)?;
        Ok(Box::new(ListShortReadsCursor {
            parser: ChunkedFastqParser::new(FileStreamChunks { reader, offset: 0 }),
            current: None,
        }))
    }
}

// ----------------------------------------------------------------------
// PivotAlignment
// ----------------------------------------------------------------------

/// `PivotAlignment(pos, seq, quals)`: one row per aligned base.
pub struct PivotAlignmentTvf;

struct PivotCursor {
    pos: i64,
    seq: Vec<u8>,
    quals: Vec<Phred>,
    idx: usize,
    started: bool,
}

impl TvfCursor for PivotCursor {
    fn move_next(&mut self) -> Result<bool> {
        if self.started {
            self.idx += 1;
        } else {
            self.started = true;
        }
        Ok(self.idx < self.seq.len())
    }

    fn fill_row(&mut self) -> Result<Row> {
        let i = self.idx;
        Ok(Row::new(vec![
            Value::Int(self.pos + i as i64),
            Value::text((self.seq[i] as char).to_string()),
            Value::Int(self.quals[i].0 as i64),
        ]))
    }
}

impl TableFunction for PivotAlignmentTvf {
    fn name(&self) -> &str {
        "PivotAlignment"
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("position", DataType::Int).not_null(),
            Column::new("base", DataType::Text).not_null(),
            Column::new("qual", DataType::Int).not_null(),
        ]))
    }

    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        let (pos, seq, quals, strand) = match args {
            [pos, seq, quals] => (pos, seq, quals, "+"),
            [pos, seq, quals, strand] => (pos, seq, quals, strand.as_text()?),
            _ => {
                return Err(DbError::Execution(
                    "PivotAlignment(pos, seq, quals[, strand]) expects 3 or 4 arguments".into(),
                ))
            }
        };
        let seq = seq.as_text()?.as_bytes().to_vec();
        let quals = DB_QUAL_ENCODING.decode(quals.as_text()?)?;
        if quals.len() != seq.len() {
            return Err(DbError::InvalidData(format!(
                "PivotAlignment: {} bases but {} qualities",
                seq.len(),
                quals.len()
            )));
        }
        let (seq, quals) = orient(seq, quals, strand)?;
        Ok(Box::new(PivotCursor {
            pos: pos.as_int()?,
            seq,
            quals,
            idx: 0,
            started: false,
        }))
    }
}

// ----------------------------------------------------------------------
// CallBase
// ----------------------------------------------------------------------

/// `CallBase(base, qual)`: quality-weighted consensus base for one
/// position's pivoted pileup.
pub struct CallBaseAgg;

#[derive(Default)]
pub struct CallBaseState {
    sums: [u32; 4],
}

impl AggState for CallBaseState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        let [base, qual] = args else {
            return Err(DbError::Execution("CallBase(base, qual)".into()));
        };
        if base.is_null() {
            return Ok(());
        }
        let b = base.as_text()?.as_bytes();
        if b.len() != 1 {
            return Err(DbError::Execution(format!(
                "CallBase expects single-character bases, got '{}'",
                base.as_text()?
            )));
        }
        if let Some(i) = base_index(b[0]) {
            self.sums[i] += qual.as_int()?.max(0) as u32;
        }
        Ok(())
    }

    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        let o = downcast_state::<CallBaseState>(other, "CallBase")?;
        for i in 0..4 {
            self.sums[i] += o.sums[i];
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<Value> {
        Ok(Value::text((call(&self.sums) as char).to_string()))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Aggregate for CallBaseAgg {
    fn name(&self) -> &str {
        "CallBase"
    }
    fn create(&self) -> Box<dyn AggState> {
        Box::new(CallBaseState::default())
    }
}

// ----------------------------------------------------------------------
// AssembleSequence
// ----------------------------------------------------------------------

/// `AssembleSequence(position, base)`: concatenate called bases into the
/// consensus string, filling uncovered interior positions with `N`.
pub struct AssembleSequenceAgg;

#[derive(Default)]
pub struct AssembleSequenceState {
    parts: Vec<(i64, u8)>,
}

impl AggState for AssembleSequenceState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        let [pos, base] = args else {
            return Err(DbError::Execution(
                "AssembleSequence(position, base)".into(),
            ));
        };
        let b = base.as_text()?.as_bytes();
        if b.len() != 1 {
            return Err(DbError::Execution(
                "AssembleSequence expects single-character bases".into(),
            ));
        }
        self.parts.push((pos.as_int()?, b[0]));
        Ok(())
    }

    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        let o = downcast_state::<AssembleSequenceState>(other, "AssembleSequence")?;
        self.parts.extend(o.parts);
        Ok(())
    }

    fn finish(&mut self) -> Result<Value> {
        if self.parts.is_empty() {
            return Ok(Value::text(""));
        }
        self.parts.sort_by_key(|(p, _)| *p);
        let start = self.parts[0].0;
        let end = self.parts.last().expect("non-empty").0;
        let mut out = vec![b'N'; (end - start + 1) as usize];
        for &(p, b) in &self.parts {
            out[(p - start) as usize] = b;
        }
        Ok(Value::text(String::from_utf8_lossy(&out)))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Aggregate for AssembleSequenceAgg {
    fn name(&self) -> &str {
        "AssembleSequence"
    }
    fn create(&self) -> Box<dyn AggState> {
        Box::new(AssembleSequenceState::default())
    }
}

// ----------------------------------------------------------------------
// AssembleConsensus (sliding window)
// ----------------------------------------------------------------------

/// `AssembleConsensus(pos, seq, quals)`: the optimized one-pass UDA.
/// Input must arrive in ascending `pos` order (the plan scans the
/// `(a_chr_id, a_pos)` clustered index); holds a read-length-sized
/// window instead of the chromosome-sized pivot.
pub struct AssembleConsensusAgg;

#[derive(Default)]
pub struct AssembleConsensusState {
    /// Per-slot quality sums of the positions from `window_start` on
    /// that are not called yet: at most one read long.
    window: Vec<[u32; 5]>,
    window_start: i64,
    out: Vec<u8>,
    first_pos: Option<i64>,
    last_pos: i64,
    /// High-water mark of the window (memory accounting for §5.3.3).
    pub max_window: usize,
}

impl AssembleConsensusState {
    /// Call every position below `pos`; uncovered ones are `N`.
    fn flush_below(&mut self, pos: i64) {
        if self.window_start >= pos {
            return;
        }
        let behind = (pos - self.window_start) as usize;
        let called = behind.min(self.window.len());
        self.out
            .extend(self.window.drain(..called).map(|sums| call(&sums)));
        self.out.resize(self.out.len() + (behind - called), b'N');
        self.window_start = pos;
    }
}

/// Add one oriented read's (base, quality) votes into its window cells.
/// Branch-free: a byte that is no base votes into the ignored slot.
fn vote<'a>(
    cells: &mut [[u32; 5]],
    bases: impl Iterator<Item = (&'a u8, &'a u8)>,
    slots: &[u8; 256],
) {
    let off = DB_QUAL_ENCODING.offset();
    for (cell, (&b, &q)) in cells.iter_mut().zip(bases) {
        cell[slots[b as usize] as usize] += (q - off) as u32;
    }
}

impl AggState for AssembleConsensusState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        match args {
            [pos, seq, quals] => self.update_ref(&[pos.view(), seq.view(), quals.view()]),
            [pos, seq, quals, strand] => {
                self.update_ref(&[pos.view(), seq.view(), quals.view(), strand.view()])
            }
            _ => self.update_ref(&[]),
        }
    }

    /// The read votes straight from the text bytes of its column batch.
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        let (pos, seq, quals, strand) = match args {
            [pos, seq, quals] => (pos, seq, quals, "+"),
            [pos, seq, quals, strand] => (pos, seq, quals, strand.as_text()?),
            _ => {
                return Err(DbError::Execution(
                    "AssembleConsensus(pos, seq, quals[, strand])".into(),
                ))
            }
        };
        // The read votes straight from its borrowed text. The checks keep
        // this order, each with its own error: quality range, length,
        // strand, position order.
        let pos = pos.as_int()?;
        let quals = quals.as_text()?.as_bytes();
        DB_QUAL_ENCODING.check(quals)?;
        let seq = seq.as_text()?.as_bytes();
        if quals.len() != seq.len() {
            return Err(DbError::InvalidData(
                "AssembleConsensus: sequence/quality length mismatch".into(),
            ));
        }
        let reverse = is_reverse(strand)?;
        if pos < self.last_pos {
            return Err(DbError::Execution(format!(
                "AssembleConsensus requires input ordered by position ({pos} after {})",
                self.last_pos
            )));
        }
        if self.first_pos.is_none() {
            self.first_pos = Some(pos);
            self.window_start = pos;
        }
        self.last_pos = pos;
        self.flush_below(pos);
        if self.window.len() < seq.len() {
            self.window.resize(seq.len(), [0; 5]);
        }
        self.max_window = self.max_window.max(self.window.len());
        // A '-' read votes as its reverse complement: oriented base `i`
        // is the complement of base `n - 1 - i`, with that base's quality.
        let cells = &mut self.window[..seq.len()];
        if reverse {
            let back = seq.iter().rev().zip(quals.iter().rev());
            vote(cells, back, &COMPLEMENT_SLOTS);
        } else {
            vote(cells, seq.iter().zip(quals), &FORWARD_SLOTS);
        }
        Ok(())
    }

    fn merge(&mut self, _other: Box<dyn AggState>) -> Result<()> {
        Err(DbError::Execution(
            "AssembleConsensus consumes an ordered stream and cannot merge partial states".into(),
        ))
    }

    fn finish(&mut self) -> Result<Value> {
        self.out
            .extend(self.window.drain(..).map(|sums| call(&sums)));
        Ok(Value::text(String::from_utf8_lossy(&self.out)))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Aggregate for AssembleConsensusAgg {
    fn name(&self) -> &str {
        "AssembleConsensus"
    }
    fn create(&self) -> Box<dyn AggState> {
        Box::new(AssembleConsensusState::default())
    }
    /// `pos`: the planner feeds each chromosome's alignments in position
    /// order (and never splits them across parallel partials).
    fn order_arg(&self) -> Option<usize> {
        Some(0)
    }
}

// ----------------------------------------------------------------------
// AlignReads (future-work §6.1: alignment inside the database)
// ----------------------------------------------------------------------

/// `AlignReads(seq, quals)`: align one read in-process; zero or one
/// output row. Used via CROSS APPLY from the Read table.
pub struct AlignReadsTvf {
    aligner: Arc<Aligner>,
}

impl AlignReadsTvf {
    pub fn new(aligner: Arc<Aligner>) -> AlignReadsTvf {
        AlignReadsTvf { aligner }
    }
}

struct AlignCursor {
    row: Option<Row>,
    done: bool,
}

impl TvfCursor for AlignCursor {
    fn move_next(&mut self) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        self.done = true;
        Ok(self.row.is_some())
    }
    fn fill_row(&mut self) -> Result<Row> {
        self.row
            .take()
            .ok_or_else(|| DbError::Execution("fill_row on empty alignment".into()))
    }
}

impl TableFunction for AlignReadsTvf {
    fn name(&self) -> &str {
        "AlignReads"
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("al_chr_id", DataType::Int).not_null(),
            Column::new("al_chr_name", DataType::Text).not_null(),
            Column::new("al_pos", DataType::Int).not_null(),
            Column::new("al_strand", DataType::Text).not_null(),
            Column::new("al_mismatches", DataType::Int).not_null(),
            Column::new("al_mapq", DataType::Int).not_null(),
        ]))
    }

    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        let [seq, quals] = args else {
            return Err(DbError::Execution("AlignReads(seq, quals)".into()));
        };
        let seq = seq.as_text()?;
        let quals = DB_QUAL_ENCODING.decode(quals.as_text()?)?;
        let row = self.aligner.align(seq, &quals).map(|a| {
            let chrom = &self.aligner.reference().chromosomes[a.chrom as usize];
            Row::new(vec![
                Value::Int(a.chrom as i64),
                Value::text(chrom.name.clone()),
                Value::Int(a.pos as i64),
                Value::text(a.strand.symbol().to_string()),
                Value::Int(a.mismatches as i64),
                Value::Int(a.mapq as i64),
            ])
        });
        Ok(Box::new(AlignCursor { row, done: false }))
    }
}

// ----------------------------------------------------------------------
// PackSeq / UnpackSeq (the §6.1 domain-specific sequence type)
// ----------------------------------------------------------------------

/// `PACK_SEQ(text)`: encode a sequence with the 2-bit/4-bit domain codec
/// the paper proposes ("a bit-encoding of the sequences could reduce the
/// size to just about a quarter", §5.1.2).
pub struct PackSeqFn;

impl seqdb_engine::ScalarUdf for PackSeqFn {
    fn name(&self) -> &str {
        "PACK_SEQ"
    }
    fn invoke(&self, args: &[Value]) -> Result<Value> {
        match args {
            [Value::Null] => Ok(Value::Null),
            [v] => Ok(Value::bytes(
                seqdb_bio::dna::PackedSeq::from_str(v.as_text()?)?.to_bytes(),
            )),
            _ => Err(DbError::Execution("PACK_SEQ(text)".into())),
        }
    }
}

/// `UNPACK_SEQ(bytes)`: decode a packed sequence back to text.
pub struct UnpackSeqFn;

impl seqdb_engine::ScalarUdf for UnpackSeqFn {
    fn name(&self) -> &str {
        "UNPACK_SEQ"
    }
    fn invoke(&self, args: &[Value]) -> Result<Value> {
        match args {
            [Value::Null] => Ok(Value::Null),
            [v] => Ok(Value::text(
                seqdb_bio::dna::PackedSeq::from_bytes(v.as_bytes()?)?.to_string_seq(),
            )),
            _ => Err(DbError::Execution("UNPACK_SEQ(bytes)".into())),
        }
    }
}

/// Register all of the paper's extensions with a database. `aligner` is
/// optional because the DGE scenario registers before a reference is
/// loaded.
pub fn register_udx(db: &Arc<Database>, aligner: Option<Arc<Aligner>>) {
    db.catalog().register_scalar(Arc::new(PackSeqFn));
    db.catalog().register_scalar(Arc::new(UnpackSeqFn));
    db.catalog()
        .register_table_fn(Arc::new(ListShortReadsTvf::new("ShortReadFiles")));
    db.catalog().register_table_fn(Arc::new(PivotAlignmentTvf));
    db.catalog().register_aggregate(Arc::new(CallBaseAgg));
    db.catalog()
        .register_aggregate(Arc::new(AssembleSequenceAgg));
    db.catalog()
        .register_aggregate(Arc::new(AssembleConsensusAgg));
    if let Some(a) = aligner {
        db.catalog()
            .register_table_fn(Arc::new(AlignReadsTvf::new(a)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_sql::DatabaseSqlExt;

    fn qstr(q: u8, n: usize) -> String {
        DB_QUAL_ENCODING.encode(&vec![Phred(q); n])
    }

    #[test]
    fn pivot_alignment_emits_per_base_rows() {
        let db = Database::in_memory();
        register_udx(&db, None);
        let r = db
            .query_sql(&format!(
                "SELECT position, base, qual FROM PivotAlignment(100, 'ACGT', '{}')",
                qstr(30, 4)
            ))
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(
            r.rows[0].values(),
            &[Value::Int(100), Value::text("A"), Value::Int(30)]
        );
        assert_eq!(
            r.rows[3].values(),
            &[Value::Int(103), Value::text("T"), Value::Int(30)]
        );
    }

    #[test]
    fn callbase_and_assemble_in_sql() {
        let db = Database::in_memory();
        register_udx(&db, None);
        db.execute_sql_script(
            "CREATE TABLE pileup (pos INT, base VARCHAR(1), qual INT);
             INSERT INTO pileup VALUES
               (10,'A',30),(10,'A',20),(10,'T',5),
               (11,'C',40),
               (13,'G',10);",
        )
        .unwrap();
        let r = db
            .query_sql(
                "SELECT AssembleSequence(pos, b) FROM
                   (SELECT pos, CallBase(base, qual) b FROM pileup GROUP BY pos) x",
            )
            .unwrap();
        // Positions 10..13 with a gap at 12.
        assert_eq!(r.rows[0][0], Value::text("ACNG"));
    }

    #[test]
    fn full_query3_pivot_shape() {
        // The paper's Query 3, pivot variant, end to end on a toy table.
        let db = Database::in_memory();
        register_udx(&db, None);
        db.execute_sql_script(&format!(
            "CREATE TABLE al (chrom INT, pos INT, seq VARCHAR(64), quals VARCHAR(64));
             INSERT INTO al VALUES
               (1, 0, 'ACGT', '{q4}'),
               (1, 2, 'GTTT', '{q4}'),
               (2, 5, 'CC',   '{q2}');",
            q4 = qstr(30, 4),
            q2 = qstr(30, 2),
        ))
        .unwrap();
        let r = db
            .query_sql(
                "SELECT chrom, AssembleSequence(position, b)
                 FROM (SELECT chrom, position, CallBase(base, qual) b
                       FROM al
                       CROSS APPLY PivotAlignment(pos, seq, quals)
                       GROUP BY chrom, position) x
                 GROUP BY chrom
                 ORDER BY chrom",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::text("ACGTTT"));
        assert_eq!(r.rows[1][1], Value::text("CC"));
    }

    #[test]
    fn sliding_window_consensus_matches_pivot_plan() {
        let db = Database::in_memory();
        register_udx(&db, None);
        db.execute_sql_script(&format!(
            "CREATE TABLE al2 (chrom INT, pos INT, seq VARCHAR(64), quals VARCHAR(64));
             INSERT INTO al2 VALUES
               (1, 9, 'AAAA', '{q}'),
               (1, 0, 'ACGT', '{q}'),
               (1, 2, 'GTTT', '{q}');",
            q = qstr(30, 4),
        ))
        .unwrap();
        // Rows inserted out of position order: the binder orders the
        // input by (chrom, pos) for the order-sensitive aggregate.
        let slide = db
            .query_sql("SELECT chrom, AssembleConsensus(pos, seq, quals) FROM al2 GROUP BY chrom")
            .unwrap();
        let pivot = db
            .query_sql(
                "SELECT chrom, AssembleSequence(position, b)
                 FROM (SELECT chrom, position, CallBase(base, qual) b
                       FROM al2 CROSS APPLY PivotAlignment(pos, seq, quals)
                       GROUP BY chrom, position) x
                 GROUP BY chrom",
            )
            .unwrap();
        assert_eq!(slide.rows[0][1], pivot.rows[0][1]);
        assert_eq!(slide.rows[0][1], Value::text("ACGTTTNNNAAAA"));
    }

    #[test]
    fn assemble_consensus_rejects_unordered_and_parallel() {
        let mut st = AssembleConsensusAgg.create();
        st.update(&[Value::Int(10), Value::text("AC"), Value::text(qstr(30, 2))])
            .unwrap();
        let err = st.update(&[Value::Int(5), Value::text("AC"), Value::text(qstr(30, 2))]);
        assert!(err.is_err());
        // Merge (parallel partials) is refused.
        let other = AssembleConsensusAgg.create();
        assert!(st.merge(other).is_err());
        assert_eq!(AssembleConsensusAgg.order_arg(), Some(0));
    }

    /// One fresh `AssembleConsensus` state fed `(pos, seq, quals,
    /// strand)` reads in order.
    fn consensus(reads: &[(i64, &str, &str, &str)]) -> Result<Value> {
        let mut st = AssembleConsensusAgg.create();
        for &(pos, seq, quals, strand) in reads {
            st.update(&[
                Value::Int(pos),
                Value::text(seq),
                Value::text(quals),
                Value::text(strand),
            ])?;
        }
        st.finish()
    }

    #[test]
    fn assemble_consensus_votes_oriented_reads() {
        let q = |scores: &[u8]| {
            DB_QUAL_ENCODING.encode(&scores.iter().map(|&s| Phred(s)).collect::<Vec<_>>())
        };
        // A '-' read votes reverse-complemented, its qualities reversed:
        // GGGG → CCCC, the read's first quality on the last position.
        let reads = [(0, "AAAA", q(&[10; 4])), (0, "GGGG", q(&[40, 0, 0, 0]))];
        let got = consensus(&[
            (reads[0].0, reads[0].1, &reads[0].2, "+"),
            (reads[1].0, reads[1].1, &reads[1].2, "-"),
        ]);
        assert_eq!(got, Ok(Value::text("AAAC")));
        assert_eq!(
            consensus(&[(0, "AACGT", &qstr(30, 5), "-")]),
            Ok(Value::text("ACGTT"))
        );
        // Lowercase bases vote on both strands; a non-base votes for none.
        assert_eq!(
            consensus(&[(0, "acgtn", &qstr(30, 5), "+")]),
            Ok(Value::text("ACGTN"))
        );
        assert_eq!(
            consensus(&[(0, "aacgt", &qstr(30, 5), "-")]),
            Ok(Value::text("ACGTT"))
        );
    }

    #[test]
    fn assemble_consensus_errors_keep_their_messages_and_order() {
        let good = qstr(30, 2);
        let bad_qual = DbError::InvalidData("quality character ' ' out of range for Sanger".into());
        let mismatch =
            DbError::InvalidData("AssembleConsensus: sequence/quality length mismatch".into());
        let strand = DbError::Execution("strand must be '+' or '-', got '*'".into());
        let backwards = DbError::Execution(
            "AssembleConsensus requires input ordered by position (5 after 10)".into(),
        );
        // The range check is decode's, with decode's error.
        assert_eq!(DB_QUAL_ENCODING.decode("I ").unwrap_err(), bad_qual);
        assert_eq!(consensus(&[(0, "AC", "I ", "+")]), Err(bad_qual.clone()));
        assert_eq!(consensus(&[(0, "ACG", &good, "+")]), Err(mismatch.clone()));
        assert_eq!(consensus(&[(0, "AC", &good, "*")]), Err(strand.clone()));
        let late = |strand| consensus(&[(10, "AC", &good, "+"), (5, "AC", &good, strand)]);
        assert_eq!(late("+"), Err(backwards));
        // Each check fires before the next: quality, length, strand, order.
        assert_eq!(consensus(&[(0, "ACG", "I ", "*")]), Err(bad_qual));
        assert_eq!(consensus(&[(0, "ACG", &good, "*")]), Err(mismatch));
        assert_eq!(late("*"), Err(strand));
    }

    #[test]
    fn sliding_window_matches_pivot_on_both_strands() {
        let db = Database::in_memory();
        register_udx(&db, None);
        let q = qstr(30, 6);
        let q_hi = qstr(40, 6);
        db.execute_sql_script(&format!(
            "CREATE TABLE al3 (chrom INT, pos INT, seq VARCHAR(64), quals VARCHAR(64),
                               strand VARCHAR(1));
             INSERT INTO al3 VALUES
               (1, 0, 'ACGTAC', '{q}', '+'),
               (1, 2, 'GTACGG', '{q_hi}', '-'),
               (1, 3, 'ttacga', '{q}', '-'),
               (1, 12, 'CCNNAA', '{q}', '+'),
               (2, 4, 'GATTAC', '{q}', '-'),
               (2, 5, 'ATTACA', '{q_hi}', '+');"
        ))
        .unwrap();
        let slide = db
            .query_sql(
                "SELECT chrom, AssembleConsensus(pos, seq, quals, strand) FROM al3
                 GROUP BY chrom ORDER BY chrom",
            )
            .unwrap();
        let pivot = db
            .query_sql(
                "SELECT chrom, AssembleSequence(position, b)
                 FROM (SELECT chrom, position, CallBase(base, qual) b
                       FROM al3 CROSS APPLY PivotAlignment(pos, seq, quals, strand)
                       GROUP BY chrom, position) x
                 GROUP BY chrom ORDER BY chrom",
            )
            .unwrap();
        assert_eq!(slide.rows.len(), 2);
        assert_eq!(slide.rows, pivot.rows);
    }

    #[test]
    fn list_short_reads_streams_a_filestream_blob() {
        let db = Database::in_memory();
        register_udx(&db, None);
        crate::schema::create_filestream_schema(&db, "").unwrap();
        // Build a small FASTQ and import it as a blob.
        let mut fq = Vec::new();
        for i in 0..50 {
            let rec = seqdb_bio::fastq::FastqRecord {
                name: format!("IL4_855:1:1:{i}:{i}"),
                seq: "ACGTACGTACGT".into(),
                quals: vec![Phred(30); 12],
            };
            seqdb_bio::fastq::write_fastq_record(&mut fq, &rec, DB_QUAL_ENCODING).unwrap();
        }
        let guid = db.filestream().insert(&fq).unwrap();
        db.catalog()
            .table("ShortReadFiles")
            .unwrap()
            .insert(&Row::new(vec![
                Value::guid(guid),
                Value::Int(855),
                Value::Int(1),
                Value::guid(guid),
            ]))
            .unwrap();
        let r = db
            .query_sql("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(50));
        let r = db
            .query_sql(
                "SELECT read_name, short_read_seq, read_len
                 FROM ListShortReads(855, 1, 'FastQ') WHERE read_len = 12",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 50);
        assert_eq!(r.rows[0][1], Value::text("ACGTACGTACGT"));
        // Missing lane errors clearly.
        assert!(db
            .query_sql("SELECT COUNT(*) FROM ListShortReads(855, 2, 'FastQ')")
            .is_err());
    }

    #[test]
    fn align_reads_tvf_via_cross_apply() {
        use seqdb_bio::align::AlignerConfig;
        use seqdb_bio::reference::ReferenceGenome;
        let db = Database::in_memory();
        let genome = Arc::new(ReferenceGenome::synthetic(33, 2, 30_000));
        let aligner = Arc::new(Aligner::new(genome.clone(), AlignerConfig::default()));
        register_udx(&db, Some(aligner));
        // A perfect read from chr2 at position 777.
        let seq = String::from_utf8(genome.chromosomes[1].seq[777..777 + 24].to_vec()).unwrap();
        db.execute_sql("CREATE TABLE reads (r_id INT, seq VARCHAR(64), quals VARCHAR(64))")
            .unwrap();
        db.execute_sql(&format!(
            "INSERT INTO reads VALUES (1, '{seq}', '{}')",
            qstr(30, 24)
        ))
        .unwrap();
        let r = db
            .query_sql(
                "SELECT r_id, al_chr_name, al_pos, al_mismatches
                 FROM reads CROSS APPLY AlignReads(seq, quals)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::text("chr2"));
        assert_eq!(r.rows[0][2], Value::Int(777));
        assert_eq!(r.rows[0][3], Value::Int(0));
    }
}
