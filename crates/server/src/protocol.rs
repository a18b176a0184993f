//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; payload byte 0 is the frame tag. A request is one
//! [`REQ_QUERY`] frame carrying SQL text. A response is either a single
//! [`RESP_ERR`] frame, or a [`RESP_SCHEMA`] frame, zero or more
//! [`RESP_ROWS`] frames (so a big result streams in bounded chunks
//! instead of one giant allocation), and a terminating [`RESP_DONE`].
//!
//! Frames are capped at [`MAX_FRAME`] bytes: an oversized length prefix
//! is a typed [`DbError::Protocol`] error, not an allocation. Errors
//! travel as a one-byte kind code plus an `i64` auxiliary (the statement
//! id for `NoSuchStatement`) plus the message, so the client rebuilds
//! the same typed [`DbError`] the engine raised — `KILL` of a finished
//! statement comes back as `NoSuchStatement`, admission overload as
//! `ServerBusy`, and so on, with the connection surviving all of them.

use std::io::{Read, Write};
use std::sync::Arc;

use seqdb_engine::QueryResult;
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema, Value};

/// Hard cap on one frame's payload. Bigger results are chunked by the
/// sender; a bigger *claimed* length is a protocol violation.
pub const MAX_FRAME: usize = 32 << 20;

/// Rows per [`RESP_ROWS`] chunk written by [`write_result`].
pub const ROWS_PER_FRAME: usize = 512;

/// Client → server: execute the SQL text in the payload.
pub const REQ_QUERY: u8 = 0x01;
/// Server → client: result schema (column names/types/nullability).
pub const RESP_SCHEMA: u8 = 0x81;
/// Server → client: a chunk of result rows.
pub const RESP_ROWS: u8 = 0x82;
/// Server → client: statement finished; carries the DML affected count.
pub const RESP_DONE: u8 = 0x83;
/// Server → client: the statement failed with a typed [`DbError`].
pub const RESP_ERR: u8 = 0xE1;

// -------------------------------------------------------------------
// Frame I/O
// -------------------------------------------------------------------

/// Write one frame (length prefix + payload). `Write::write_all` loops
/// over partial writes, so injected short writes only slow this down.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(DbError::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte cap",
            payload.len(),
            MAX_FRAME
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, blocking. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between requests); EOF mid-frame is
/// a typed [`DbError::Protocol`] error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match read_exact_or_eof(r, &mut len)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => {
            return Err(DbError::Protocol(
                "connection closed mid frame header".into(),
            ))
        }
        ReadOutcome::Full => {}
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(DbError::Protocol(format!(
            "incoming frame claims {n} bytes; cap is {MAX_FRAME}"
        )));
    }
    if n == 0 {
        return Err(DbError::Protocol("empty frame (no tag byte)".into()));
    }
    let mut payload = vec![0u8; n];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => Ok(Some(payload)),
        _ => Err(DbError::Protocol(format!(
            "connection closed mid frame; wanted {n} bytes"
        ))),
    }
}

enum ReadOutcome {
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after some bytes.
    Partial,
}

/// `read_exact` that distinguishes a clean EOF from a truncation and
/// rides out injected short reads.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Ok(ReadOutcome::Partial),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DbError::io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

// -------------------------------------------------------------------
// Payload encoding
// -------------------------------------------------------------------

/// Little-endian reader over a received payload with typed truncation
/// errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(DbError::Protocol(format!(
                "truncated payload: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| DbError::Protocol("string payload is not UTF-8".into()))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Expect `tag` as payload byte 0 and return the rest.
fn expect_tag<'a>(payload: &'a [u8], tag: u8, what: &str) -> Result<&'a [u8]> {
    match payload.first() {
        Some(&t) if t == tag => Ok(&payload[1..]),
        Some(&t) => Err(DbError::Protocol(format!(
            "expected {what} frame (tag {tag:#04x}), got tag {t:#04x}"
        ))),
        None => Err(DbError::Protocol(format!("empty {what} frame"))),
    }
}

pub fn encode_query(sql: &str) -> Vec<u8> {
    let mut out = vec![REQ_QUERY];
    out.extend_from_slice(sql.as_bytes());
    out
}

pub fn decode_query(payload: &[u8]) -> Result<String> {
    let body = expect_tag(payload, REQ_QUERY, "query")?;
    String::from_utf8(body.to_vec())
        .map_err(|_| DbError::Protocol("query text is not UTF-8".into()))
}

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
        DataType::Guid => 5,
    }
}

fn dtype_from(code: u8) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        5 => DataType::Guid,
        other => return Err(DbError::Protocol(format!("unknown data type code {other}"))),
    })
}

pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = vec![RESP_SCHEMA];
    out.extend_from_slice(&(schema.columns().len() as u16).to_le_bytes());
    for c in schema.columns() {
        put_str(&mut out, &c.name);
        out.push(dtype_code(c.dtype));
        out.push(c.nullable as u8);
    }
    out
}

pub fn decode_schema(payload: &[u8]) -> Result<Schema> {
    let mut c = Cursor::new(expect_tag(payload, RESP_SCHEMA, "schema")?);
    let n = c.u16()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.str()?.to_string();
        let dtype = dtype_from(c.u8()?)?;
        let nullable = c.u8()? != 0;
        let mut col = Column::new(name, dtype);
        if !nullable {
            col = col.not_null();
        }
        cols.push(col);
    }
    Ok(Schema::new(cols))
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(5);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Guid(g) => {
            // Little-endian on the wire: the GUID's bytes reversed.
            out.push(6);
            out.extend(g.iter().rev());
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Bool(c.u8()? != 0),
        2 => Value::Int(c.u64()? as i64),
        3 => Value::Float(f64::from_bits(c.u64()?)),
        4 => Value::text(c.str()?),
        5 => {
            let n = c.u32()? as usize;
            Value::Bytes(Arc::from(c.take(n)?))
        }
        6 => {
            let mut g: [u8; 16] = c.take(16)?.try_into().expect("take returns 16 bytes");
            g.reverse();
            Value::Guid(g)
        }
        other => return Err(DbError::Protocol(format!("unknown value tag {other}"))),
    })
}

pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = vec![RESP_ROWS];
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for v in row.values() {
            put_value(&mut out, v);
        }
    }
    out
}

pub fn decode_rows(payload: &[u8]) -> Result<Vec<Row>> {
    let mut c = Cursor::new(expect_tag(payload, RESP_ROWS, "rows")?);
    let n = c.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(MAX_FRAME / 2));
    for _ in 0..n {
        let w = c.u16()? as usize;
        let mut vals = Vec::with_capacity(w);
        for _ in 0..w {
            vals.push(get_value(&mut c)?);
        }
        rows.push(Row::new(vals));
    }
    if !c.done() {
        return Err(DbError::Protocol("trailing bytes after last row".into()));
    }
    Ok(rows)
}

pub fn encode_done(affected: u64) -> Vec<u8> {
    let mut out = vec![RESP_DONE];
    out.extend_from_slice(&affected.to_le_bytes());
    out
}

pub fn decode_done(payload: &[u8]) -> Result<u64> {
    let mut c = Cursor::new(expect_tag(payload, RESP_DONE, "done")?);
    c.u64()
}

/// Stable kind codes for every [`DbError`] variant, so a typed error
/// survives the wire round trip.
fn error_code(e: &DbError) -> (u8, i64, String) {
    match e {
        DbError::Io(m) => (1, 0, m.clone()),
        DbError::Parse(m) => (2, 0, m.clone()),
        DbError::Schema(m) => (3, 0, m.clone()),
        DbError::Plan(m) => (4, 0, m.clone()),
        DbError::Execution(m) => (5, 0, m.clone()),
        DbError::Storage(m) => (6, 0, m.clone()),
        DbError::Corruption(m) => (7, 0, m.clone()),
        DbError::Constraint(m) => (8, 0, m.clone()),
        DbError::NotFound(m) => (9, 0, m.clone()),
        DbError::Unsupported(m) => (10, 0, m.clone()),
        DbError::InvalidData(m) => (11, 0, m.clone()),
        DbError::ResourceExhausted(m) => (12, 0, m.clone()),
        DbError::Timeout(m) => (13, 0, m.clone()),
        DbError::Cancelled(m) => (14, 0, m.clone()),
        DbError::AdmissionTimeout(m) => (15, 0, m.clone()),
        DbError::UdxPanic { name, payload } => (16, 0, format!("{name}\u{0}{payload}")),
        DbError::NoSuchStatement(id) => (17, *id, String::new()),
        DbError::ServerBusy(m) => (18, 0, m.clone()),
        DbError::ServerDraining(m) => (19, 0, m.clone()),
        DbError::Protocol(m) => (20, 0, m.clone()),
        // The aux carries the page, the message the object name.
        DbError::Quarantined { object, page } => (21, *page as i64, object.clone()),
        DbError::DiskFull(m) => (22, 0, m.clone()),
        DbError::BackupCorrupt { object } => (23, 0, object.clone()),
    }
}

pub fn encode_error(e: &DbError) -> Vec<u8> {
    let (code, aux, msg) = error_code(e);
    let mut out = vec![RESP_ERR, code];
    out.extend_from_slice(&aux.to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decode a [`RESP_ERR`] payload back into the typed [`DbError`] it
/// carries (returned as `Ok` — the *caller* decides it is an error).
pub fn decode_error(payload: &[u8]) -> Result<DbError> {
    let body = expect_tag(payload, RESP_ERR, "error")?;
    let mut c = Cursor::new(body);
    let code = c.u8()?;
    let aux = c.u64()? as i64;
    let msg = std::str::from_utf8(c.take(body.len() - 9)?)
        .map_err(|_| DbError::Protocol("error message is not UTF-8".into()))?
        .to_string();
    Ok(match code {
        1 => DbError::Io(msg),
        2 => DbError::Parse(msg),
        3 => DbError::Schema(msg),
        4 => DbError::Plan(msg),
        5 => DbError::Execution(msg),
        6 => DbError::Storage(msg),
        7 => DbError::Corruption(msg),
        8 => DbError::Constraint(msg),
        9 => DbError::NotFound(msg),
        10 => DbError::Unsupported(msg),
        11 => DbError::InvalidData(msg),
        12 => DbError::ResourceExhausted(msg),
        13 => DbError::Timeout(msg),
        14 => DbError::Cancelled(msg),
        15 => DbError::AdmissionTimeout(msg),
        16 => {
            let (name, payload) = msg.split_once('\u{0}').unwrap_or((msg.as_str(), ""));
            DbError::UdxPanic {
                name: name.to_string(),
                payload: payload.to_string(),
            }
        }
        17 => DbError::NoSuchStatement(aux),
        18 => DbError::ServerBusy(msg),
        19 => DbError::ServerDraining(msg),
        20 => DbError::Protocol(msg),
        21 => DbError::Quarantined {
            object: msg,
            page: aux as u64,
        },
        22 => DbError::DiskFull(msg),
        23 => DbError::BackupCorrupt { object: msg },
        other => {
            return Err(DbError::Protocol(format!(
                "unknown error kind code {other}"
            )))
        }
    })
}

/// Write a whole successful result: schema, row chunks of
/// [`ROWS_PER_FRAME`], done. Chunking bounds both the peak frame size
/// and how much a slow reader can force the server to buffer beyond
/// the result the governor already admitted.
pub fn write_result<W: Write + ?Sized>(w: &mut W, res: &QueryResult) -> Result<()> {
    write_frame(w, &encode_schema(&res.schema))?;
    for chunk in res.rows.chunks(ROWS_PER_FRAME) {
        write_frame(w, &encode_rows(chunk))?;
    }
    write_frame(w, &encode_done(res.affected))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_eof_forms() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"\x01hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"\x01hello");
        // Clean EOF at a boundary is None, not an error.
        assert!(read_frame(&mut r).unwrap().is_none());
        // EOF mid-frame is a protocol error.
        let mut truncated = &buf[..buf.len() - 2];
        let err = read_frame(&mut truncated).unwrap_err();
        assert!(matches!(err, DbError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn guid_bytes_are_pinned_little_endian() {
        let row = Row::new(vec![Value::guid(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff)]);
        let enc = encode_rows(std::slice::from_ref(&row));
        // Tag, row count, width, then value tag 6 and the GUID low byte
        // first.
        let mut expect = vec![RESP_ROWS, 1, 0, 0, 0, 1, 0, 6];
        expect.extend([
            0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22,
            0x11, 0x00,
        ]);
        assert_eq!(enc, expect);
        assert_eq!(decode_rows(&enc).unwrap(), vec![row]);
    }

    #[test]
    fn values_of_every_type_roundtrip() {
        let row = Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::text("ACGT"),
            Value::Bytes(Arc::from(&b"\x00\xff"[..])),
            Value::guid(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
        ]);
        let rows = decode_rows(&encode_rows(std::slice::from_ref(&row))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], row);
    }

    #[test]
    fn schema_roundtrips_names_types_nullability() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("seq", DataType::Text),
            Column::new("blob", DataType::Guid),
        ]);
        let back = decode_schema(&encode_schema(&schema)).unwrap();
        assert_eq!(back.columns().len(), 3);
        assert_eq!(back.columns()[0].name, "id");
        assert!(!back.columns()[0].nullable);
        assert!(back.columns()[1].nullable);
        assert_eq!(back.columns()[2].dtype, DataType::Guid);
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        for e in [
            DbError::NoSuchStatement(99),
            DbError::ServerBusy("queue full".into()),
            DbError::ServerDraining("bye".into()),
            DbError::Cancelled("killed".into()),
            DbError::AdmissionTimeout("pool".into()),
            DbError::Protocol("bad tag".into()),
            DbError::UdxPanic {
                name: "F".into(),
                payload: "boom".into(),
            },
            DbError::Quarantined {
                object: "reads".into(),
                page: 42,
            },
            DbError::DiskFull("no space left on device".into()),
            DbError::BackupCorrupt {
                object: "page 17".into(),
            },
        ] {
            let back = decode_error(&encode_error(&e)).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn truncated_payloads_are_protocol_errors() {
        let enc = encode_rows(&[Row::new(vec![Value::text("hello world")])]);
        for cut in 2..enc.len() {
            let err = decode_rows(&enc[..cut]).unwrap_err();
            assert!(matches!(err, DbError::Protocol(_)), "cut {cut}: {err}");
        }
        assert!(decode_query(&[RESP_DONE]).is_err(), "wrong tag rejected");
    }
}
