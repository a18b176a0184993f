//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; payload byte 0 is the frame tag. A request is one
//! [`REQ_QUERY`] frame carrying SQL text. A response is either a single
//! [`RESP_ERR`] frame, or a [`RESP_SCHEMA`] frame, zero or more
//! [`RESP_ROWS`] frames (so a big result streams in bounded chunks of
//! at most [`ROWS_PER_FRAME`] rows instead of one giant allocation), and
//! a terminating [`RESP_DONE`]. Values travel in the tagged encoding of
//! [`seqdb_types::codec`].
//!
//! A frame leaves in one `write` call, length prefix and payload
//! together. [`write_result`] packs the schema, row and done frames into
//! one reused buffer and sends it when it holds a full chunk and at the
//! end, so a one-row answer is one send, and the sender never holds more
//! than one chunk beyond the result itself.
//!
//! Frames are capped at [`MAX_FRAME`] bytes: an oversized length prefix
//! is a typed [`DbError::Protocol`] error, not an allocation. Errors
//! travel as a one-byte kind code plus an `i64` auxiliary (the statement
//! id for `NoSuchStatement`) plus the message, so the client rebuilds
//! the same typed [`DbError`] the engine raised — `KILL` of a finished
//! statement comes back as `NoSuchStatement`, admission overload as
//! `ServerBusy`, and so on, with the connection surviving all of them.

use std::io::{Read, Write};

use seqdb_engine::QueryResult;
use seqdb_types::codec::{self, Malformed, Reader};
use seqdb_types::{Column, DataType, DbError, Result, Row, Schema};

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

/// Append one frame to `buf`: reserve the length prefix, let `fill`
/// append the payload, then fill the prefix in. A payload over
/// [`MAX_FRAME`] is refused and leaves `buf` as it was.
fn push_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    fill(buf);
    let len = buf.len() - at - 4;
    if len > MAX_FRAME {
        buf.truncate(at);
        return Err(DbError::Protocol(format!(
            "outgoing frame of {len} bytes exceeds the {MAX_FRAME} byte cap"
        )));
    }
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Write one frame (length prefix + payload) in one `write_all`, which
/// loops over partial writes, so injected short writes only slow this
/// down.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, |b| b.extend_from_slice(payload))?;
    w.write_all(&buf)?;
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

/// What a payload decoder returns before its caller maps a
/// [`Malformed`] input to [`DbError::Protocol`].
type Decoded<T> = std::result::Result<T, Malformed>;

fn wire(m: Malformed) -> DbError {
    DbError::Protocol(m.0)
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

fn dtype_from(code: u8) -> Decoded<DataType> {
    Ok(match code {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        5 => DataType::Guid,
        other => return Err(Malformed(format!("unknown data type code {other}"))),
    })
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.push(RESP_SCHEMA);
    out.extend_from_slice(&(schema.columns().len() as u16).to_le_bytes());
    for c in schema.columns() {
        codec::put_str(out, &c.name);
        out.push(dtype_code(c.dtype));
        out.push(c.nullable as u8);
    }
}

pub fn decode_schema(payload: &[u8]) -> Result<Schema> {
    let mut c = Reader::new(expect_tag(payload, RESP_SCHEMA, "schema")?);
    read_schema(&mut c).map_err(wire)
}

fn read_schema(c: &mut Reader<'_>) -> Decoded<Schema> {
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

fn put_rows(out: &mut Vec<u8>, rows: &[Row]) {
    out.push(RESP_ROWS);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        codec::put_row(out, row.values());
    }
}

pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    put_rows(&mut out, rows);
    out
}

pub fn decode_rows(payload: &[u8]) -> Result<Vec<Row>> {
    let mut c = Reader::new(expect_tag(payload, RESP_ROWS, "rows")?);
    let rows = read_rows(&mut c).map_err(wire)?;
    if !c.done() {
        return Err(DbError::Protocol("trailing bytes after last row".into()));
    }
    Ok(rows)
}

fn read_rows(c: &mut Reader<'_>) -> Decoded<Vec<Row>> {
    let n = c.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(MAX_FRAME / 2));
    for _ in 0..n {
        rows.push(Row::new(c.row()?));
    }
    Ok(rows)
}

fn put_done(out: &mut Vec<u8>, affected: u64) {
    out.push(RESP_DONE);
    out.extend_from_slice(&affected.to_le_bytes());
}

pub fn decode_done(payload: &[u8]) -> Result<u64> {
    let mut c = Reader::new(expect_tag(payload, RESP_DONE, "done")?);
    c.u64().map_err(wire)
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
    let mut c = Reader::new(body);
    let code = c.u8().map_err(wire)?;
    let aux = c.u64().map_err(wire)? as i64;
    let msg = std::str::from_utf8(&body[9..])
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
/// [`ROWS_PER_FRAME`], done. The frames gather in one buffer, sent
/// whenever it holds a full chunk and once at the end: a small answer is
/// one send, and a slow reader can force the server to buffer at most
/// one chunk beyond the result the governor already admitted.
pub fn write_result<W: Write + ?Sized>(w: &mut W, res: &QueryResult) -> Result<()> {
    let mut buf = Vec::new();
    push_frame(&mut buf, |b| put_schema(b, &res.schema))?;
    for chunk in res.rows.chunks(ROWS_PER_FRAME) {
        push_frame(&mut buf, |b| put_rows(b, chunk))?;
        if chunk.len() == ROWS_PER_FRAME {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    push_frame(&mut buf, |b| put_done(b, res.affected))?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb_types::Value;

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
    fn schema_roundtrips_names_types_nullability() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("seq", DataType::Text),
            Column::new("blob", DataType::Guid),
        ]);
        let mut enc = Vec::new();
        put_schema(&mut enc, &schema);
        let back = decode_schema(&enc).unwrap();
        assert_eq!(back.columns().len(), 3);
        assert_eq!(back.columns()[0].name, "id");
        assert!(!back.columns()[0].nullable);
        assert!(back.columns()[1].nullable);
        assert_eq!(back.columns()[2].dtype, DataType::Guid);
    }

    /// The codes DESIGN.md's "Stable error codes" table promises to
    /// scripts: every variant, its number, and its round trip.
    #[test]
    fn every_error_code_is_pinned_and_roundtrips() {
        let m = || "msg".to_string();
        let pinned = [
            (1, DbError::Io(m())),
            (2, DbError::Parse(m())),
            (3, DbError::Schema(m())),
            (4, DbError::Plan(m())),
            (5, DbError::Execution(m())),
            (6, DbError::Storage(m())),
            (7, DbError::Corruption(m())),
            (8, DbError::Constraint(m())),
            (9, DbError::NotFound(m())),
            (10, DbError::Unsupported(m())),
            (11, DbError::InvalidData(m())),
            (12, DbError::ResourceExhausted(m())),
            (13, DbError::Timeout(m())),
            (14, DbError::Cancelled(m())),
            (15, DbError::AdmissionTimeout(m())),
            (
                16,
                DbError::UdxPanic {
                    name: "F".into(),
                    payload: "boom".into(),
                },
            ),
            (17, DbError::NoSuchStatement(99)),
            (18, DbError::ServerBusy(m())),
            (19, DbError::ServerDraining(m())),
            (20, DbError::Protocol(m())),
            (
                21,
                DbError::Quarantined {
                    object: "reads".into(),
                    page: 42,
                },
            ),
            (22, DbError::DiskFull(m())),
            (
                23,
                DbError::BackupCorrupt {
                    object: "page 17".into(),
                },
            ),
        ];
        for (code, e) in pinned {
            let enc = encode_error(&e);
            assert_eq!(enc[1], code, "{e:?}");
            assert_eq!(decode_error(&enc).unwrap(), e);
        }
        // UdxPanic's message is `name\0payload`.
        let enc = encode_error(&DbError::UdxPanic {
            name: "F".into(),
            payload: "boom".into(),
        });
        assert_eq!(&enc[10..], b"F\0boom");
    }

    /// Counts `write` calls: one per send on a socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn int_result(n: i64) -> QueryResult {
        QueryResult {
            schema: std::sync::Arc::new(Schema::new(vec![Column::new("n", DataType::Int)])),
            rows: (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect(),
            affected: 0,
        }
    }

    #[test]
    fn an_answer_leaves_in_one_send_per_full_chunk() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"\x01hello").unwrap();
        assert_eq!(w.writes, 1, "a frame is one write");

        let mut w = CountingWriter::default();
        write_result(&mut w, &int_result(1)).unwrap();
        assert_eq!(w.writes, 1, "a one-row answer is one write");

        // 1 025 rows: two full chunks and one row, so three writes, and
        // every frame still carries at most ROWS_PER_FRAME rows.
        let mut w = CountingWriter::default();
        write_result(&mut w, &int_result(1025)).unwrap();
        assert_eq!(w.writes, 3);
        let mut r = &w.bytes[..];
        let mut chunks = Vec::new();
        while let Some(frame) = read_frame(&mut r).unwrap() {
            if frame[0] == RESP_ROWS {
                chunks.push(decode_rows(&frame).unwrap().len());
            }
        }
        assert_eq!(chunks, [ROWS_PER_FRAME, ROWS_PER_FRAME, 1]);
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
