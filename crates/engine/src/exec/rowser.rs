//! Self-describing row serialization for spill files.
//!
//! Unlike [`seqdb_storage::rowfmt`] (which needs a schema), spill records
//! carry their own type tags, because sort keys and intermediate rows are
//! not tied to any table schema.

use std::sync::Arc;

use seqdb_storage::varint;
use seqdb_types::{DbError, Result, Row, Value};

const T_NULL: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_TEXT: u8 = 4;
const T_BYTES: u8 = 5;
const T_GUID: u8 = 6;

/// Append one value.
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(b) => {
            out.push(T_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(T_INT);
            varint::write_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(T_TEXT);
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(T_BYTES);
            varint::write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Guid(g) => {
            out.push(T_GUID);
            out.extend_from_slice(g);
        }
    }
}

/// Read one value.
pub fn read_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let err = || DbError::Storage("corrupt spill record".into());
    let tag = *buf.get(*pos).ok_or_else(err)?;
    *pos += 1;
    Ok(match tag {
        T_NULL => Value::Null,
        T_BOOL => {
            let b = *buf.get(*pos).ok_or_else(err)?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        T_INT => Value::Int(varint::read_i64(buf, pos).ok_or_else(err)?),
        T_FLOAT => {
            let raw = buf.get(*pos..*pos + 8).ok_or_else(err)?;
            *pos += 8;
            Value::Float(f64::from_le_bytes(
                raw.try_into().expect("slice is exactly 8 bytes"),
            ))
        }
        T_TEXT => {
            let n = varint::read_u64(buf, pos).ok_or_else(err)? as usize;
            let end = pos.checked_add(n).ok_or_else(err)?;
            let raw = buf.get(*pos..end).ok_or_else(err)?;
            let s = std::str::from_utf8(raw).map_err(|_| err())?;
            let v = Value::Text(Arc::from(s));
            *pos = end;
            v
        }
        T_BYTES => {
            let n = varint::read_u64(buf, pos).ok_or_else(err)? as usize;
            let end = pos.checked_add(n).ok_or_else(err)?;
            let raw = buf.get(*pos..end).ok_or_else(err)?;
            let v = Value::Bytes(Arc::from(raw));
            *pos = end;
            v
        }
        T_GUID => {
            let raw = buf.get(*pos..*pos + 16).ok_or_else(err)?;
            *pos += 16;
            Value::Guid(raw.try_into().expect("slice is exactly 16 bytes"))
        }
        _ => return Err(err()),
    })
}

/// Serialize a row (value count + tagged values).
pub fn write_row(out: &mut Vec<u8>, row: &Row) {
    write_values(out, row.values());
}

/// Serialize a bare value slice in row framing, so callers holding a
/// `Vec<Value>` (sort keys, join keys) need not wrap it in a `Row`.
pub fn write_values(out: &mut Vec<u8>, vals: &[Value]) {
    varint::write_u64(out, vals.len() as u64);
    for v in vals {
        write_value(out, v);
    }
}

/// Start a u32-length-framed record in `buf`, clearing any previous
/// content. Spill writers keep one `buf` across rows so the steady state
/// allocates nothing per row; pair with [`finish_frame`].
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
}

/// Backfill the length prefix reserved by [`begin_frame`].
pub fn finish_frame(buf: &mut [u8]) {
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

/// Frame one row (u32 length prefix + tagged values) into `buf`,
/// replacing its contents.
pub fn frame_row(buf: &mut Vec<u8>, row: &Row) {
    begin_frame(buf);
    write_row(buf, row);
    finish_frame(buf);
}

/// Deserialize a row.
pub fn read_row(buf: &[u8], pos: &mut usize) -> Result<Row> {
    let err = || DbError::Storage("corrupt spill record".into());
    let n = varint::read_u64(buf, pos).ok_or_else(err)? as usize;
    let mut vals = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        vals.push(read_value(buf, pos)?);
    }
    Ok(Row::new(vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guid_bytes_are_pinned() {
        let mut out = Vec::new();
        write_value(
            &mut out,
            &Value::guid(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
        );
        assert_eq!(
            out,
            [
                6, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc,
                0xdd, 0xee, 0xff,
            ]
        );
        let mut pos = 0;
        assert_eq!(
            read_value(&out, &mut pos).unwrap().as_guid().unwrap(),
            0x0011_2233_4455_6677_8899_aabb_ccdd_eeff
        );
    }

    #[test]
    fn roundtrip_all_types() {
        let row = Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-12345),
            Value::Float(0.25),
            Value::text("IL4_855:1:1:954:659"),
            Value::bytes(b"\x00\xff"),
            Value::guid(77),
        ]);
        let mut buf = Vec::new();
        write_row(&mut buf, &row);
        let mut pos = 0;
        let back = read_row(&buf, &mut pos).unwrap();
        assert_eq!(back, row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn corrupt_input_is_an_error() {
        let mut pos = 0;
        assert!(read_row(&[9, 9, 9], &mut pos).is_err());
    }

    #[test]
    fn framed_row_roundtrips_and_buffer_reuses() {
        let mut buf = Vec::new();
        for i in 0..3i64 {
            let row = Row::new(vec![Value::Int(i), Value::text(format!("r{i}"))]);
            frame_row(&mut buf, &row);
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            assert_eq!(len, buf.len() - 4);
            let mut pos = 4;
            assert_eq!(read_row(&buf, &mut pos).unwrap(), row);
        }
    }

    #[test]
    fn multiple_rows_stream() {
        let rows: Vec<Row> = (0..10)
            .map(|i| Row::new(vec![Value::Int(i), Value::text(format!("r{i}"))]))
            .collect();
        let mut buf = Vec::new();
        for r in &rows {
            write_row(&mut buf, r);
        }
        let mut pos = 0;
        for r in &rows {
            assert_eq!(&read_row(&buf, &mut pos).unwrap(), r);
        }
        assert_eq!(pos, buf.len());
    }
}
