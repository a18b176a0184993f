//! Schema-aware record (de)serialization with three storage formats,
//! mirroring SQL Server 2008 `DATA_COMPRESSION = NONE | ROW | PAGE`
//! (paper §2.3.5).
//!
//! * `None` — fixed-width numerics, length-prefixed strings;
//! * `Row`  — variable-length (zigzag varint) numerics and lengths;
//! * `Page` — row format plus a per-page [`PageContext`] providing
//!   column-prefix and dictionary encodings (see [`crate::pagec`]).
//!
//! The record layout is: null bitmap (`ceil(ncols/8)` bytes, bit set =
//! NULL) followed by each non-null column value.

use seqdb_types::{DataType, DbError, Result, Row, Schema, Value, ValueRef};

use crate::pagec::PageContext;
use crate::varint;

/// Table-level compression setting (`WITH (DATA_COMPRESSION = ...)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    #[default]
    None,
    Row,
    Page,
}

impl Compression {
    pub fn sql_name(&self) -> &'static str {
        match self {
            Compression::None => "NONE",
            Compression::Row => "ROW",
            Compression::Page => "PAGE",
        }
    }

    pub fn from_sql_name(s: &str) -> Option<Compression> {
        match s.to_ascii_uppercase().as_str() {
            "NONE" => Some(Compression::None),
            "ROW" => Some(Compression::Row),
            "PAGE" => Some(Compression::Page),
            _ => None,
        }
    }
}

/// Value encoding tags used inside page-compressed records.
const TAG_INLINE: u8 = 0;
const TAG_PREFIX: u8 = 1;
const TAG_DICT: u8 = 2;

/// Encode one value in the *fixed* (no-compression) format. Integers are
/// stored as 4 bytes when they fit `i32` (SQL Server's `INT`) and as
/// 8 bytes otherwise (`BIGINT`), discriminated by a width byte.
fn encode_value_fixed(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => unreachable!("nulls are in the bitmap"),
        Value::Bool(b) => out.push(*b as u8),
        Value::Int(i) => {
            if let Ok(small) = i32::try_from(*i) {
                out.push(0);
                out.extend_from_slice(&small.to_le_bytes());
            } else {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
        }
        Value::Float(f) => out.extend_from_slice(&f.to_le_bytes()),
        Value::Text(s) => {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Guid(g) => out.extend_from_slice(g),
    }
}

/// Encode one value in the *row-compressed* format (varint numerics and
/// lengths). This is also the "canonical" byte form used as dictionary keys
/// by page compression.
pub(crate) fn encode_value_row(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => unreachable!("nulls are in the bitmap"),
        Value::Bool(b) => out.push(*b as u8),
        Value::Int(i) => varint::write_i64(out, *i),
        Value::Float(f) => out.extend_from_slice(&f.to_le_bytes()),
        Value::Text(s) => {
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            varint::write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Guid(g) => out.extend_from_slice(g),
    }
}

/// Decode one fixed-format value, borrowing its bytes from `buf`: a
/// number is read in place and a string is validated, not copied.
#[inline(always)]
fn decode_value_fixed<'a>(buf: &'a [u8], pos: &mut usize, dtype: DataType) -> Result<ValueRef<'a>> {
    #[inline(always)]
    fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
        let trunc = || DbError::Storage("truncated record".into());
        let end = pos.checked_add(n).ok_or_else(trunc)?;
        let s = buf.get(*pos..end).ok_or_else(trunc)?;
        *pos = end;
        Ok(s)
    }
    #[inline(always)]
    fn take_array<'a, const N: usize>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8; N]> {
        Ok(take(buf, pos, N)?.try_into().expect("take returns N bytes"))
    }
    let len = |buf: &[u8], pos: &mut usize| -> Result<usize> {
        Ok(u32::from_le_bytes(*take_array(buf, pos)?) as usize)
    };
    Ok(match dtype {
        DataType::Bool => ValueRef::Bool(take(buf, pos, 1)?[0] != 0),
        DataType::Int => {
            if take(buf, pos, 1)?[0] == 0 {
                ValueRef::Int(i32::from_le_bytes(*take_array(buf, pos)?) as i64)
            } else {
                ValueRef::Int(i64::from_le_bytes(*take_array(buf, pos)?))
            }
        }
        DataType::Float => ValueRef::Float(f64::from_le_bytes(*take_array(buf, pos)?)),
        DataType::Text => {
            let n = len(buf, pos)?;
            ValueRef::Text(utf8(take(buf, pos, n)?)?)
        }
        DataType::Bytes => {
            let n = len(buf, pos)?;
            ValueRef::Bytes(take(buf, pos, n)?)
        }
        DataType::Guid => ValueRef::Guid(take_array(buf, pos)?),
    })
}

/// A fixed-format `INT`: a width byte, then 4 or 8 little-endian bytes.
#[inline(always)]
fn decode_int_fixed(buf: &[u8], pos: &mut usize) -> Result<i64> {
    let trunc = || DbError::Storage("truncated record".into());
    let (&w, rest) = buf
        .get(*pos..)
        .and_then(<[u8]>::split_first)
        .ok_or_else(trunc)?;
    let v = if w == 0 {
        i32::from_le_bytes(*rest.first_chunk().ok_or_else(trunc)?) as i64
    } else {
        i64::from_le_bytes(*rest.first_chunk().ok_or_else(trunc)?)
    };
    *pos += if w == 0 { 5 } else { 9 };
    Ok(v)
}

/// A stored text payload, which must be UTF-8.
fn utf8(b: &[u8]) -> Result<&str> {
    std::str::from_utf8(b).map_err(|_| DbError::Storage("non-utf8 text in record".into()))
}

#[inline(always)]
fn decode_value_row<'a>(buf: &'a [u8], pos: &mut usize, dtype: DataType) -> Result<ValueRef<'a>> {
    let trunc = || DbError::Storage("truncated record".into());
    let mut take = |n: usize| -> Result<&'a [u8]> {
        let end = pos.checked_add(n).ok_or_else(trunc)?;
        let b = buf.get(*pos..end).ok_or_else(trunc)?;
        *pos = end;
        Ok(b)
    };
    Ok(match dtype {
        DataType::Bool => ValueRef::Bool(take(1)?[0] != 0),
        DataType::Int => ValueRef::Int(varint::read_i64(buf, pos).ok_or_else(trunc)?),
        DataType::Float => ValueRef::Float(f64::from_le_bytes(
            take(8)?.try_into().expect("take returns 8 bytes"),
        )),
        DataType::Text | DataType::Bytes => {
            let n = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            let end = pos.checked_add(n).ok_or_else(trunc)?;
            let b = buf.get(*pos..end).ok_or_else(trunc)?;
            *pos = end;
            if dtype == DataType::Text {
                ValueRef::Text(utf8(b)?)
            } else {
                ValueRef::Bytes(b)
            }
        }
        DataType::Guid => ValueRef::Guid(take(16)?.try_into().expect("take returns 16 bytes")),
    })
}

/// Raw byte payload of a Text/Bytes value for prefix matching.
fn raw_payload(v: &Value) -> Option<&[u8]> {
    match v {
        Value::Text(s) => Some(s.as_bytes()),
        Value::Bytes(b) => Some(b),
        _ => None,
    }
}

/// Encode one value in page-compressed format against a [`PageContext`]:
/// picks the cheapest of dictionary token, column-prefix suffix, or inline.
fn encode_value_page(out: &mut Vec<u8>, v: &Value, col: usize, ctx: &PageContext) {
    // Canonical form for dictionary lookup.
    let mut canon = Vec::new();
    encode_value_row(&mut canon, v);

    let inline_cost = 1 + canon.len();

    let dict_choice = ctx.dict_lookup(&canon).map(|id| {
        let cost = 1 + varint::len_u64(id as u64);
        (id, cost)
    });

    let prefix_choice = raw_payload(v).and_then(|payload| {
        let prefix = ctx.prefix(col);
        if prefix.is_empty() {
            return None;
        }
        let use_len = common_prefix_len(prefix, payload);
        if use_len < 2 {
            return None;
        }
        let suffix = &payload[use_len..];
        let cost = 1
            + varint::len_u64(use_len as u64)
            + varint::len_u64(suffix.len() as u64)
            + suffix.len();
        Some((use_len, cost))
    });

    let dict_cost = dict_choice.map(|(_, c)| c).unwrap_or(usize::MAX);
    let prefix_cost = prefix_choice.map(|(_, c)| c).unwrap_or(usize::MAX);

    if dict_cost <= prefix_cost && dict_cost < inline_cost {
        let (id, _) = dict_choice.unwrap();
        out.push(TAG_DICT);
        varint::write_u64(out, id as u64);
    } else if prefix_cost < inline_cost {
        let (use_len, _) = prefix_choice.unwrap();
        let payload = raw_payload(v).unwrap();
        out.push(TAG_PREFIX);
        varint::write_u64(out, use_len as u64);
        varint::write_u64(out, (payload.len() - use_len) as u64);
        out.extend_from_slice(&payload[use_len..]);
    } else {
        out.push(TAG_INLINE);
        out.extend_from_slice(&canon);
    }
}

/// Decode one page-compressed value: a dictionary token borrows its
/// entry, a prefix reference assembles the payload into an owned value.
fn decode_value_page<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    dtype: DataType,
    ctx: &'a PageContext,
    col: usize,
) -> Result<Cell<'a>> {
    let trunc = || DbError::Storage("truncated record".into());
    let tag = *buf.get(*pos).ok_or_else(trunc)?;
    *pos += 1;
    match tag {
        TAG_INLINE => Ok(Cell::Ref(decode_value_row(buf, pos, dtype)?)),
        TAG_DICT => {
            let id = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            let canon = ctx
                .dict_entry(id)
                .ok_or_else(|| DbError::Storage(format!("dangling dictionary id {id}")))?;
            Ok(Cell::Ref(decode_value_row(canon, &mut 0, dtype)?))
        }
        TAG_PREFIX => {
            let use_len = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            let suf_len = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            let end = pos.checked_add(suf_len).ok_or_else(trunc)?;
            let suffix = buf.get(*pos..end).ok_or_else(trunc)?;
            let prefix = ctx.prefix(col);
            if use_len > prefix.len() {
                return Err(DbError::Storage("prefix reference out of range".into()));
            }
            let mut payload = Vec::with_capacity(use_len + suf_len);
            payload.extend_from_slice(&prefix[..use_len]);
            payload.extend_from_slice(suffix);
            *pos = end;
            match dtype {
                DataType::Text => Ok(Cell::Owned(Value::text(utf8(&payload)?))),
                DataType::Bytes => Ok(Cell::Owned(Value::Bytes(payload.into()))),
                other => Err(DbError::Storage(format!(
                    "prefix encoding on non-string column of type {other}"
                ))),
            }
        }
        t => Err(DbError::Storage(format!("unknown value tag {t}"))),
    }
}

pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Serialize a row. `ctx` must be `Some` iff `comp == Compression::Page`
/// *and* the containing page has built a compression context; a page-
/// compressed table's open page encodes rows in plain row format until it
/// is recompressed.
pub fn encode_row(
    schema: &Schema,
    row: &Row,
    comp: Compression,
    ctx: Option<&PageContext>,
) -> Vec<u8> {
    debug_assert_eq!(row.len(), schema.len());
    let nbitmap = schema.len().div_ceil(8);
    let mut out = vec![0u8; nbitmap];
    for (i, v) in row.values().iter().enumerate() {
        if v.is_null() {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    for (i, v) in row.values().iter().enumerate() {
        if v.is_null() {
            continue;
        }
        // FILESTREAM columns may hold either the blob's GUID reference or
        // (rarely) small inline bytes; a marker byte distinguishes them.
        // They bypass page compression — the payload lives outside the
        // page anyway.
        if schema.column(i).filestream {
            match v {
                Value::Guid(g) => {
                    out.push(0);
                    out.extend_from_slice(g);
                }
                Value::Bytes(b) => {
                    out.push(1);
                    varint::write_u64(&mut out, b.len() as u64);
                    out.extend_from_slice(b);
                }
                other => unreachable!("schema check admits Guid/Bytes, got {other:?}"),
            }
            continue;
        }
        match (comp, ctx) {
            (Compression::None, _) => encode_value_fixed(&mut out, v),
            (Compression::Row, _) | (Compression::Page, None) => encode_value_row(&mut out, v),
            (Compression::Page, Some(ctx)) => encode_value_page(&mut out, v, i, ctx),
        }
    }
    out
}

/// Deserialize a row previously produced by [`encode_row`] with the same
/// schema/compression/context.
pub fn decode_row(
    schema: &Schema,
    buf: &[u8],
    comp: Compression,
    ctx: Option<&PageContext>,
) -> Result<Row> {
    decode_row_masked(schema, buf, comp, ctx, &[])
}

/// One FILESTREAM column value: a marker byte, then the blob's GUID
/// reference (0) or small inline bytes (1). An unwanted value is stepped
/// over, bounds-checked all the same, and not built.
fn filestream_value<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    wanted: bool,
) -> Result<Option<ValueRef<'a>>> {
    let trunc = || DbError::Storage("truncated record".into());
    let marker = *buf.get(*pos).ok_or_else(trunc)?;
    *pos += 1;
    let len = match marker {
        0 => 16,
        1 => varint::read_u64(buf, pos).ok_or_else(trunc)? as usize,
        m => {
            return Err(DbError::Storage(format!(
                "unknown filestream column marker {m}"
            )))
        }
    };
    let end = pos.checked_add(len).ok_or_else(trunc)?;
    let raw = buf.get(*pos..end).ok_or_else(trunc)?;
    *pos = end;
    Ok(match (wanted, marker) {
        (false, _) => None,
        (true, 0) => Some(ValueRef::Guid(raw.try_into().unwrap())),
        (true, _) => Some(ValueRef::Bytes(raw)),
    })
}

/// Advance `pos` past one encoded fixed-format value without building it.
#[inline(always)]
fn skip_value_fixed(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<()> {
    let trunc = || DbError::Storage("truncated record".into());
    let advance = |pos: &mut usize, n: usize| -> Result<()> {
        let end = pos.checked_add(n).ok_or_else(trunc)?;
        if end > buf.len() {
            return Err(trunc());
        }
        *pos = end;
        Ok(())
    };
    match dtype {
        DataType::Bool => advance(pos, 1),
        DataType::Int => {
            let w = *buf.get(*pos).ok_or_else(trunc)?;
            *pos += 1;
            advance(pos, if w == 0 { 4 } else { 8 })
        }
        DataType::Float => advance(pos, 8),
        DataType::Text | DataType::Bytes => {
            let end = pos.checked_add(4).ok_or_else(trunc)?;
            let raw = buf.get(*pos..end).ok_or_else(trunc)?;
            let n = u32::from_le_bytes(raw.try_into().unwrap()) as usize;
            *pos = end;
            advance(pos, n)
        }
        DataType::Guid => advance(pos, 16),
    }
}

/// Advance `pos` past one encoded row-format value without building it.
#[inline(always)]
fn skip_value_row(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<()> {
    let trunc = || DbError::Storage("truncated record".into());
    let advance = |pos: &mut usize, n: usize| -> Result<()> {
        let end = pos.checked_add(n).ok_or_else(trunc)?;
        if end > buf.len() {
            return Err(trunc());
        }
        *pos = end;
        Ok(())
    };
    match dtype {
        DataType::Bool => advance(pos, 1),
        DataType::Int => {
            varint::read_i64(buf, pos).ok_or_else(trunc)?;
            Ok(())
        }
        DataType::Float => advance(pos, 8),
        DataType::Text | DataType::Bytes => {
            let n = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            advance(pos, n)
        }
        DataType::Guid => advance(pos, 16),
    }
}

/// Advance `pos` past one page-compressed value (dictionary references
/// are skipped without touching the dictionary).
fn skip_value_page(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<()> {
    let trunc = || DbError::Storage("truncated record".into());
    let tag = *buf.get(*pos).ok_or_else(trunc)?;
    *pos += 1;
    match tag {
        TAG_INLINE => skip_value_row(buf, pos, dtype),
        TAG_DICT => {
            varint::read_u64(buf, pos).ok_or_else(trunc)?;
            Ok(())
        }
        TAG_PREFIX => {
            varint::read_u64(buf, pos).ok_or_else(trunc)?;
            let suf_len = varint::read_u64(buf, pos).ok_or_else(trunc)? as usize;
            let end = pos.checked_add(suf_len).ok_or_else(trunc)?;
            if end > buf.len() {
                return Err(trunc());
            }
            *pos = end;
            Ok(())
        }
        t => Err(DbError::Storage(format!("unknown value tag {t}"))),
    }
}

/// Where a record decode puts the values it builds: a [`Row`], or a
/// column batch that appends each cell to its column. Values arrive in
/// schema order, one per wanted column, borrowed from the record; a
/// record its check refuses sends none.
pub trait RecordSink {
    fn push(&mut self, v: ValueRef<'_>);
    /// [`RecordSink::push`] of an `INT` cell, which a typed sink takes
    /// without matching on the value.
    #[inline(always)]
    fn push_int(&mut self, v: i64) {
        self.push(ValueRef::Int(v));
    }
    /// The record just walked is kept and complete. Called by the page
    /// visit ([`crate::HeapFile::page_records_into`]); a single-record
    /// decode leaves it to its caller.
    fn end_record(&mut self) {}
}

impl RecordSink for Row {
    #[inline]
    fn push(&mut self, v: ValueRef<'_>) {
        self.0.push(v.to_value());
    }
}

/// One decoded cell of a record: borrowed from the record or its page,
/// or, for a page-compressed string stored as a shared prefix plus a
/// suffix, assembled into an owned value.
#[derive(Debug, Clone)]
enum Cell<'a> {
    Ref(ValueRef<'a>),
    Owned(Value),
}

impl Cell<'_> {
    #[inline(always)]
    fn view(&self) -> ValueRef<'_> {
        match self {
            Cell::Ref(v) => *v,
            Cell::Owned(v) => v.view(),
        }
    }
}

/// A check the masked decoder runs part-way through a record: once the
/// table columns before `at` are walked (`at` is one past the last column
/// it reads), `keep` sees the cells decoded so far — the masked columns
/// in schema order, so the prefix has the positions of the finished row —
/// and says whether the record is kept. The cells reach the sink only
/// after the check keeps the record.
pub type CellCheck<'a> = (usize, &'a mut dyn FnMut(&[ValueRef<'_>]) -> Result<bool>);

/// [`CellCheck`] of [`decode_row_into`], which sees the prefix as a row.
pub type Check<'a> = (usize, &'a mut dyn FnMut(&Row) -> Result<bool>);

/// Decode a record into a row of only the columns set in `mask`, in
/// schema order (an entry the mask lacks counts as set, so the empty mask
/// decodes them all). The other columns are *skipped* in the byte stream:
/// the whole record is still walked and bounds-checked, but nothing is
/// built for them and they take no place in the row. This is the
/// projection-pushdown entry point of the scans, whose callers map column
/// indexes onto the narrow row.
pub fn decode_row_masked(
    schema: &Schema,
    buf: &[u8],
    comp: Compression,
    ctx: Option<&PageContext>,
    mask: &[bool],
) -> Result<Row> {
    let mut row = Row::empty();
    decode_row_into(schema, buf, comp, ctx, mask, None, &mut row)?;
    Ok(row)
}

/// [`decode_row_masked`] into the caller's `row` (cleared first), with an
/// optional [`Check`]: [`decode_record`] into a row. A refused record
/// leaves the prefix its check saw in `row`.
pub fn decode_row_into(
    schema: &Schema,
    buf: &[u8],
    comp: Compression,
    ctx: Option<&PageContext>,
    mask: &[bool],
    check: Option<Check<'_>>,
    row: &mut Row,
) -> Result<bool> {
    let ncols = schema.len();
    let width = mask.iter().filter(|&&w| w).count() + ncols.saturating_sub(mask.len());
    row.0.clear();
    // A kept row moves out with this allocation, so it is made exact;
    // a refused row's is reused.
    if row.0.capacity() < width {
        row.0 = Vec::with_capacity(width);
    }
    let Some((at, keep)) = check else {
        return decode_record(schema, buf, comp, ctx, mask, None, row);
    };
    let mut refused = None;
    let mut on_cells = |cells: &[ValueRef<'_>]| {
        let prefix: Row = cells.iter().map(|c| c.to_value()).collect();
        let kept = keep(&prefix)?;
        if !kept {
            refused = Some(prefix);
        }
        Ok(kept)
    };
    let kept = decode_record(schema, buf, comp, ctx, mask, Some((at, &mut on_cells)), row)?;
    if let Some(prefix) = refused {
        *row = prefix;
    }
    Ok(kept)
}

/// Where a record's cells wait for its check: in place, or — once one
/// had to be assembled, or there are many — owned.
trait Held<'a> {
    /// Hold one more cell; `false` when this store cannot.
    fn hold(&mut self, cell: Cell<'a>) -> bool;
    /// Run the check on the cells held.
    fn check(&self, keep: &mut dyn FnMut(&[ValueRef<'_>]) -> Result<bool>) -> Result<bool>;
    /// Send the cells held on to the sink.
    fn flush<S: RecordSink + ?Sized>(&self, sink: &mut S);
}

/// Most prefix cells held in place.
const INLINE_PREFIX: usize = 8;

/// The common store: borrowed cells in a fixed array.
struct Inline<'a> {
    refs: [ValueRef<'a>; INLINE_PREFIX],
    n: usize,
}

impl<'a> Held<'a> for Inline<'a> {
    #[inline(always)]
    fn hold(&mut self, cell: Cell<'a>) -> bool {
        match cell {
            Cell::Ref(v) if self.n < INLINE_PREFIX => {
                self.refs[self.n] = v;
                self.n += 1;
                true
            }
            _ => false,
        }
    }
    #[inline(always)]
    fn check(&self, keep: &mut dyn FnMut(&[ValueRef<'_>]) -> Result<bool>) -> Result<bool> {
        keep(&self.refs[..self.n])
    }
    #[inline(always)]
    fn flush<S: RecordSink + ?Sized>(&self, sink: &mut S) {
        self.refs[..self.n].iter().for_each(|&v| sink.push(v));
    }
}

/// The rare store: owned cells.
struct Spilled<'a>(Vec<Cell<'a>>);

impl<'a> Held<'a> for Spilled<'a> {
    fn hold(&mut self, cell: Cell<'a>) -> bool {
        self.0.push(cell);
        true
    }
    fn check(&self, keep: &mut dyn FnMut(&[ValueRef<'_>]) -> Result<bool>) -> Result<bool> {
        let refs: Vec<ValueRef<'_>> = self.0.iter().map(Cell::view).collect();
        keep(&refs)
    }
    fn flush<S: RecordSink + ?Sized>(&self, sink: &mut S) {
        self.0.iter().for_each(|c| sink.push(c.view()));
    }
}

/// The one record walker, the filter-first decode of the scans: push the
/// `mask`ed columns of a record into `sink`, running the optional
/// [`CellCheck`] part-way. A record the check refuses returns `Ok(false)`
/// as soon as the check has run, with its later columns neither decoded
/// nor walked and nothing sent to `sink`. A kept record returns
/// `Ok(true)` and is walked and bounds-checked to its end like an
/// unchecked one.
pub fn decode_record<S: RecordSink + ?Sized>(
    schema: &Schema,
    buf: &[u8],
    comp: Compression,
    ctx: Option<&PageContext>,
    mask: &[bool],
    mut check: Option<CellCheck<'_>>,
    sink: &mut S,
) -> Result<bool> {
    let inline = Inline {
        refs: [ValueRef::Null; INLINE_PREFIX],
        n: 0,
    };
    let walked = walk(schema, buf, comp, ctx, mask, check.as_mut(), inline, sink)?;
    match walked {
        Some(kept) => Ok(kept),
        // The prefix outgrew the array before the check: walk again with
        // owned cells (nothing reached the sink yet).
        None => walk(
            schema,
            buf,
            comp,
            ctx,
            mask,
            check.as_mut(),
            Spilled(Vec::new()),
            sink,
        )
        .map(|kept| kept.unwrap_or(false)),
    }
}

/// [`decode_record`] with the prefix in `held`; `None` when `held`
/// could not take a cell.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk<'a, S: RecordSink + ?Sized, H: Held<'a>>(
    schema: &Schema,
    buf: &'a [u8],
    comp: Compression,
    ctx: Option<&'a PageContext>,
    mask: &[bool],
    check: Option<&mut CellCheck<'_>>,
    mut held: H,
    sink: &mut S,
) -> Result<Option<bool>> {
    let ncols = schema.len();
    let nbitmap = ncols.div_ceil(8);
    if buf.len() < nbitmap {
        return Err(DbError::Storage("record shorter than null bitmap".into()));
    }
    // The check runs before column `at`, or after the last one; with no
    // check, `at` is 0 and every record is kept there. The cells before
    // it wait in `held`, and reach the sink once it keeps the record.
    let (at, keep) = match check {
        Some((at, keep)) => ((*at).min(ncols), Some(keep)),
        None => (0, None),
    };
    let mut keep = keep;
    let mut keeps = |held: &H| match keep.as_mut() {
        Some(keep) => held.check(&mut **keep),
        None => Ok(true),
    };
    // A single loop, so that each value decoder below has one call site,
    // which keeps it inlined.
    let mut pos = nbitmap;
    for (i, col) in schema.columns().iter().enumerate() {
        if i == at {
            if !keeps(&held)? {
                return Ok(Some(false));
            }
            held.flush(sink);
        }
        let wanted = mask.get(i).copied().unwrap_or(true);
        let cell = if buf[i / 8] & (1 << (i % 8)) != 0 {
            if !wanted {
                continue;
            }
            Cell::Ref(ValueRef::Null)
        } else if col.filestream {
            match filestream_value(buf, &mut pos, wanted)? {
                Some(v) => Cell::Ref(v),
                None => continue,
            }
        } else if wanted {
            match (comp, ctx) {
                (Compression::None, _) if col.dtype == DataType::Int && i >= at => {
                    sink.push_int(decode_int_fixed(buf, &mut pos)?);
                    continue;
                }
                (Compression::None, _) => Cell::Ref(decode_value_fixed(buf, &mut pos, col.dtype)?),
                (Compression::Row, _) | (Compression::Page, None) => {
                    Cell::Ref(decode_value_row(buf, &mut pos, col.dtype)?)
                }
                (Compression::Page, Some(ctx)) => {
                    decode_value_page(buf, &mut pos, col.dtype, ctx, i)?
                }
            }
        } else {
            match (comp, ctx) {
                (Compression::None, _) => skip_value_fixed(buf, &mut pos, col.dtype)?,
                (Compression::Row, _) | (Compression::Page, None) => {
                    skip_value_row(buf, &mut pos, col.dtype)?
                }
                (Compression::Page, Some(_)) => skip_value_page(buf, &mut pos, col.dtype)?,
            }
            continue;
        };
        if i < at {
            if !held.hold(cell) {
                return Ok(None);
            }
        } else {
            match cell {
                Cell::Ref(ValueRef::Int(v)) => sink.push_int(v),
                Cell::Ref(v) => sink.push(v),
                Cell::Owned(v) => sink.push(v.view()),
            }
        }
    }
    if at == ncols {
        if !keeps(&held)? {
            return Ok(Some(false));
        }
        held.flush(sink);
    }
    Ok(Some(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_types::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("q", DataType::Float),
            Column::new("flag", DataType::Bool),
            Column::new("payload", DataType::Bytes),
            Column::new("guid", DataType::Guid),
        ])
    }

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Int(-42),
            Value::text("IL4_855:1:1:954:659"),
            Value::Float(0.125),
            Value::Bool(true),
            Value::bytes(b"\x00\x01\x02"),
            Value::guid(0xdeadbeef),
        ])
    }

    #[test]
    fn roundtrip_none_and_row() {
        let s = schema();
        let r = sample_row();
        for comp in [Compression::None, Compression::Row] {
            let enc = encode_row(&s, &r, comp, None);
            let dec = decode_row(&s, &enc, comp, None).unwrap();
            assert_eq!(dec, r, "{comp:?}");
        }
    }

    #[test]
    fn row_compression_is_smaller_for_small_ints() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let r = Row::new(vec![Value::Int(3), Value::Int(-7)]);
        let none = encode_row(&s, &r, Compression::None, None);
        let rowc = encode_row(&s, &r, Compression::Row, None);
        assert!(rowc.len() < none.len(), "{} !< {}", rowc.len(), none.len());
    }

    #[test]
    fn nulls_roundtrip() {
        let s = schema();
        let r = Row::new(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        for comp in [Compression::None, Compression::Row] {
            let enc = encode_row(&s, &r, comp, None);
            assert_eq!(enc.len(), 1); // just the bitmap
            let dec = decode_row(&s, &enc, comp, None).unwrap();
            assert_eq!(dec, r);
        }
    }

    #[test]
    fn truncated_record_is_an_error_not_a_panic() {
        let s = schema();
        let enc = encode_row(&s, &sample_row(), Compression::Row, None);
        for cut in 0..enc.len() {
            let _ = decode_row(&s, &enc[..cut], Compression::Row, None);
        }
    }

    #[test]
    fn none_and_row_decode_the_same_rows_and_fail_the_same_way() {
        let s = schema();
        let rows = [
            sample_row(),
            Row::new(vec![
                Value::Int(i64::MIN),
                Value::text(""),
                Value::Null,
                Value::Bool(false),
                Value::bytes(b""),
                Value::Null,
            ]),
            Row::new(vec![
                Value::Int(i32::MAX as i64 + 1),
                Value::text("ACGTNACGT\u{e9}"),
                Value::Float(-0.0),
                Value::Null,
                Value::Null,
                Value::guid(u128::MAX),
            ]),
        ];
        let masks: [&[bool]; 3] = [
            &[],
            &[true, false, true, false, true, false],
            &[false, true, false, true, false, true],
        ];
        let decode = |comp, buf: &[u8], mask| decode_row_masked(&s, buf, comp, None, mask);
        for r in &rows {
            let none = encode_row(&s, r, Compression::None, None);
            let row = encode_row(&s, r, Compression::Row, None);
            for mask in masks {
                assert_eq!(
                    decode(Compression::None, &none, mask).unwrap(),
                    decode(Compression::Row, &row, mask).unwrap(),
                    "{r} mask {mask:?}"
                );
            }
            // Every cut short of the whole record is a storage error in
            // either format, whatever the mask skips.
            for (comp, enc) in [(Compression::None, &none), (Compression::Row, &row)] {
                for cut in 0..enc.len() {
                    for mask in masks {
                        let err = decode(comp, &enc[..cut], mask).unwrap_err();
                        assert!(matches!(err, DbError::Storage(_)), "{comp:?} {cut}: {err}");
                    }
                }
            }
        }
        // Bytes that are not UTF-8, read back as a TEXT column.
        let bytes = Schema::new(vec![Column::new("s", DataType::Bytes)]);
        let text = Schema::new(vec![Column::new("s", DataType::Text)]);
        let bad = Row::new(vec![Value::bytes(b"AC\xffGT")]);
        let errors: Vec<String> = [Compression::None, Compression::Row]
            .into_iter()
            .map(|comp| {
                let enc = encode_row(&bytes, &bad, comp, None);
                match decode_row(&text, &enc, comp, None).unwrap_err() {
                    DbError::Storage(msg) => msg,
                    other => panic!("{comp:?}: expected a storage error, got {other}"),
                }
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
    }

    #[test]
    fn masked_decode_skips_columns_across_formats() {
        // The sample columns plus two FILESTREAM ones, holding a GUID
        // reference and inline bytes.
        let mut cols = schema().columns().to_vec();
        cols.push(Column::new("blob_ref", DataType::Bytes).filestream());
        cols.push(Column::new("blob_inline", DataType::Bytes).filestream());
        let s = Schema::new(cols);
        let mut vals = sample_row().into_values();
        vals.push(Value::guid(0xfeed_f00d));
        vals.push(Value::bytes(b"small inline blob"));
        let r = Row::new(vals);
        let mask = [false, true, false, true, false, false, true, false];
        let flipped: Vec<bool> = mask.iter().map(|w| !w).collect();
        for comp in [Compression::None, Compression::Row] {
            let enc = encode_row(&s, &r, comp, None);
            assert_eq!(decode_row(&s, &enc, comp, None).unwrap(), r, "{comp:?}");
            for mask in [&mask[..], &flipped[..]] {
                let dec = decode_row_masked(&s, &enc, comp, None, mask).unwrap();
                let expect: Vec<Value> = (0..s.len())
                    .filter(|&i| mask[i])
                    .map(|i| r[i].clone())
                    .collect();
                assert_eq!(dec.values(), &expect[..], "{comp:?} {mask:?}");
            }
            // A cut anywhere is an error or a shorter row, never a panic,
            // whether the FILESTREAM columns are wanted or skipped.
            for cut in 0..enc.len() {
                let _ = decode_row_masked(&s, &enc[..cut], comp, None, &mask);
                let _ = decode_row_masked(&s, &enc[..cut], comp, None, &flipped);
            }
        }
        // A mask shorter than the schema treats missing entries as wanted.
        let dec = decode_row_masked(
            &s,
            &encode_row(&s, &r, Compression::Row, None),
            Compression::Row,
            None,
            &[false],
        )
        .unwrap();
        assert_eq!(dec.values(), &r.values()[1..]);
        // An all-false mask walks the record and builds an empty row.
        let none = vec![false; s.len()];
        let enc = encode_row(&s, &r, Compression::Row, None);
        assert!(decode_row_masked(&s, &enc, Compression::Row, None, &none)
            .unwrap()
            .is_empty());
        assert!(
            decode_row_masked(&s, &enc[..enc.len() - 1], Compression::Row, None, &none).is_err()
        );
    }

    #[test]
    fn checked_decode_stops_at_a_refusal_and_walks_a_kept_record_whole() {
        // The check reads `flag` (column 1); `tag` repeats, so PAGE keeps
        // it in the dictionary, and `seq` shares a long prefix.
        let s = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("flag", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("seq", DataType::Text),
        ]);
        let rows: Vec<Row> = (0..60i64)
            .map(|i| {
                let flag = if i % 4 == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 2)
                };
                Row::new(vec![
                    Value::Int(i),
                    flag,
                    Value::text(format!("TAG{}", i % 3)),
                    Value::text(format!("CATGGAATTCTCGGGTGCC_{i}")),
                ])
            })
            .collect();
        let ctx = PageContext::build(&s, &rows);
        assert!(ctx.dict_len() > 0 && ctx.prefix(3).len() > 2, "{ctx:?}");
        // Keep `flag = 1`; a NULL flag is refused, as WHERE refuses it.
        let keeps = |row: &Row| row[1] == Value::Int(1);
        let forms = [
            (Compression::None, None),
            (Compression::Row, None),
            (Compression::Page, Some(&ctx)),
        ];
        for (comp, ctx) in forms {
            for mask in [&[][..], &[true, true, false, true][..]] {
                for r in &rows {
                    let enc = encode_row(&s, r, comp, ctx);
                    // The same bitmap width and the same two leading
                    // values: where the check column's bytes end.
                    let mut head = r.clone();
                    head.0[2] = Value::Null;
                    head.0[3] = Value::Null;
                    let prefix_len = encode_row(&s, &head, comp, ctx).len();
                    let full = decode_row_masked(&s, &enc, comp, ctx, mask).unwrap();
                    let mut calls = 0;
                    let mut check = |row: &Row| {
                        calls += 1;
                        assert_eq!(row.values(), &r.values()[..2], "the check sees the prefix");
                        Ok(keeps(row))
                    };
                    let mut decode = |buf: &[u8], row: &mut Row| {
                        decode_row_into(&s, buf, comp, ctx, mask, Some((2, &mut check)), row)
                    };
                    let mut row = Row::new(vec![Value::Int(-1)]);
                    if keeps(r) {
                        assert!(decode(&enc, &mut row).unwrap());
                        assert_eq!(row, full, "{comp:?}");
                        // A kept record is walked to its end: every cut
                        // fails typed, before the check or after it.
                        for cut in 0..enc.len() {
                            let err = decode(&enc[..cut], &mut row).unwrap_err();
                            assert!(matches!(err, DbError::Storage(_)), "{comp:?} {cut}: {err}");
                        }
                    } else {
                        assert!(!decode(&enc, &mut row).unwrap());
                        assert_eq!(row.values(), &r.values()[..2], "{comp:?}");
                        // A refused record stops at the check: its later
                        // columns are neither decoded nor walked, so a cut
                        // or garbage after the prefix goes unseen.
                        assert!(!decode(&enc[..prefix_len], &mut row).unwrap());
                        let mut junk = enc[..prefix_len].to_vec();
                        junk.extend([0xff; 3]);
                        assert!(!decode(&junk, &mut row).unwrap());
                    }
                    for cut in 0..prefix_len {
                        assert!(decode(&enc[..cut], &mut row).is_err(), "{comp:?} {cut}");
                    }
                    // Once per decode that got past the check column: a
                    // kept record's cuts after it fail after the check.
                    let checked = if keeps(r) {
                        1 + enc.len() - prefix_len
                    } else {
                        3
                    };
                    assert_eq!(calls, checked, "{comp:?}");
                }
            }
        }
        // A check reading no column runs before the first one, and one
        // at or past the last column runs on the whole row.
        let enc = encode_row(&s, &rows[1], Compression::Row, None);
        let mut row = Row::empty();
        let mut refuse = |row: &Row| {
            assert!(row.is_empty());
            Ok(false)
        };
        let refuse: Check<'_> = (0, &mut refuse);
        assert!(!decode_row_into(
            &s,
            &enc[..1],
            Compression::Row,
            None,
            &[],
            Some(refuse),
            &mut row
        )
        .unwrap());
        let mut whole = |row: &Row| Ok(row.len() == 4);
        let whole: Check<'_> = (4, &mut whole);
        assert!(
            decode_row_into(&s, &enc, Compression::Row, None, &[], Some(whole), &mut row).unwrap()
        );
        assert_eq!(row, rows[1]);
    }

    /// A GUID is stored as its 16 big-endian bytes in every format.
    const GUID: u128 = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff;
    const GUID_BE: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];

    #[test]
    fn guid_bytes_are_pinned_in_every_format() {
        let s = Schema::new(vec![
            Column::new("g", DataType::Guid),
            Column::new("blob", DataType::Bytes).filestream(),
        ]);
        let r = Row::new(vec![Value::guid(GUID), Value::guid(GUID)]);
        // Bitmap, the column, then the FILESTREAM marker and reference.
        let mut plain = vec![0u8];
        plain.extend(GUID_BE);
        plain.push(0);
        plain.extend(GUID_BE);
        for comp in [Compression::None, Compression::Row, Compression::Page] {
            let enc = encode_row(&s, &r, comp, None);
            assert_eq!(enc, plain, "{comp:?}");
            assert_eq!(decode_row(&s, &enc, comp, None).unwrap(), r, "{comp:?}");
        }
        // PAGE against a context: inline when the dictionary lacks it,
        // a token when it holds it, and the dictionary entry is the bytes.
        let lone = PageContext::build(&s, &[]);
        let mut inline = vec![0u8, TAG_INLINE];
        inline.extend(GUID_BE);
        inline.push(0);
        inline.extend(GUID_BE);
        let enc = encode_row(&s, &r, Compression::Page, Some(&lone));
        assert_eq!(enc, inline);
        assert_eq!(
            decode_row(&s, &enc, Compression::Page, Some(&lone)).unwrap(),
            r
        );
        let shared = PageContext::build(&s, &[r.clone(), r.clone()]);
        assert_eq!(shared.dict_entry(0), Some(&GUID_BE[..]));
        let mut token = vec![0u8, TAG_DICT, 0, 0];
        token.extend(GUID_BE);
        let enc = encode_row(&s, &r, Compression::Page, Some(&shared));
        assert_eq!(enc, token);
        assert_eq!(
            decode_row(&s, &enc, Compression::Page, Some(&shared)).unwrap(),
            r
        );
    }

    #[test]
    fn page_mode_without_context_acts_like_row() {
        let s = schema();
        let r = sample_row();
        let row_enc = encode_row(&s, &r, Compression::Row, None);
        let page_enc = encode_row(&s, &r, Compression::Page, None);
        assert_eq!(row_enc, page_enc);
        let dec = decode_row(&s, &page_enc, Compression::Page, None).unwrap();
        assert_eq!(dec, r);
    }
}
