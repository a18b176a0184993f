//! The one self-describing value codec, shared by the wire protocol and
//! the executor's spill files.
//!
//! Unlike `storage::rowfmt` (which needs a schema), these bytes carry
//! their own type tags: result rows, sort keys and intermediate rows are
//! not tied to any table. Everything is little-endian:
//!
//! | tag | value   | payload                                  |
//! |----:|---------|------------------------------------------|
//! |   0 | `NULL`  | none                                     |
//! |   1 | `BOOL`  | one byte, nonzero = true                 |
//! |   2 | `INT`   | `i64`                                    |
//! |   3 | `FLOAT` | the `f64`'s bits                         |
//! |   4 | `TEXT`  | `u32` length, then UTF-8 bytes           |
//! |   5 | `BYTES` | `u32` length, then the bytes             |
//! |   6 | `GUID`  | 16 bytes, the GUID's low byte first      |
//!
//! A row is a `u16` value count followed by its values. The wire bytes
//! are the external format; spill files never outlive the process and
//! simply reuse them.
//!
//! Decoding never panics on bad input. It returns [`Malformed`], which
//! each caller maps to its own error: the wire to `DbError::Protocol`,
//! spill to `DbError::Storage`.

use std::sync::Arc;

use crate::Value;

const T_NULL: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_TEXT: u8 = 4;
const T_BYTES: u8 = 5;
const T_GUID: u8 = 6;

/// Input the decoder could not read: truncated, an unknown tag, or text
/// that is not UTF-8. The message says which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed(pub String);

/// Append a `u32`-length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len_prefixed(out, s.as_bytes());
}

fn put_len_prefixed(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Append one tagged value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(b) => out.extend_from_slice(&[T_BOOL, *b as u8]),
        Value::Int(i) => {
            out.push(T_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(T_TEXT);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(T_BYTES);
            put_len_prefixed(out, b);
        }
        Value::Guid(g) => {
            out.push(T_GUID);
            out.extend(g.iter().rev());
        }
    }
}

/// Append a row: its value count, then each value.
pub fn put_row(out: &mut Vec<u8>, vals: &[Value]) {
    out.extend_from_slice(&(vals.len() as u16).to_le_bytes());
    for v in vals {
        put_value(out, v);
    }
}

/// A little-endian reader over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        match self.pos.checked_add(n).filter(|&e| e <= self.buf.len()) {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(Malformed(format!(
                "truncated payload: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, Malformed> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Result<u32, Malformed> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, Malformed> {
        self.array().map(u64::from_le_bytes)
    }

    fn len_prefixed(&mut self) -> Result<&'a [u8], Malformed> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        std::str::from_utf8(self.len_prefixed()?)
            .map_err(|_| Malformed("string payload is not UTF-8".into()))
    }

    /// One tagged value.
    pub fn value(&mut self) -> Result<Value, Malformed> {
        Ok(match self.u8()? {
            T_NULL => Value::Null,
            T_BOOL => Value::Bool(self.u8()? != 0),
            T_INT => Value::Int(self.u64()? as i64),
            T_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            T_TEXT => Value::text(self.str()?),
            T_BYTES => Value::Bytes(Arc::from(self.len_prefixed()?)),
            T_GUID => {
                let mut g: [u8; 16] = self.array()?;
                g.reverse();
                Value::Guid(g)
            }
            other => return Err(Malformed(format!("unknown value tag {other}"))),
        })
    }

    /// One row's values.
    pub fn row(&mut self) -> Result<Vec<Value>, Malformed> {
        let n = self.u16()? as usize;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.value()?);
        }
        Ok(vals)
    }

    /// Whether every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_type() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-12345),
            Value::Float(0.25),
            Value::text("IL4_855:1:1:954:659"),
            Value::bytes(b"\x00\xff"),
            Value::guid(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
        ]
    }

    #[test]
    fn guid_bytes_are_pinned_low_byte_first() {
        let mut out = Vec::new();
        put_value(
            &mut out,
            &Value::guid(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
        );
        assert_eq!(
            out,
            [
                6, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
                0x22, 0x11, 0x00,
            ]
        );
        assert_eq!(
            Reader::new(&out).value().unwrap().as_guid().unwrap(),
            0x0011_2233_4455_6677_8899_aabb_ccdd_eeff
        );
    }

    #[test]
    fn rows_of_every_type_roundtrip_and_stream() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                let mut vals = every_type();
                vals.push(Value::Int(i));
                vals
            })
            .chain([Vec::new()])
            .collect();
        let mut buf = Vec::new();
        for r in &rows {
            put_row(&mut buf, r);
        }
        let mut rd = Reader::new(&buf);
        for r in &rows {
            assert_eq!(&rd.row().unwrap(), r);
        }
        assert!(rd.done());
    }

    #[test]
    fn every_cut_of_a_row_is_malformed() {
        let mut buf = Vec::new();
        put_row(&mut buf, &every_type());
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).row().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_input_is_malformed() {
        // An unknown tag.
        let err = Reader::new(&[1, 0, 9]).row().unwrap_err();
        assert!(err.0.contains("unknown value tag 9"), "{err:?}");
        // Text that is not UTF-8.
        let err = Reader::new(&[T_TEXT, 1, 0, 0, 0, 0xff])
            .value()
            .unwrap_err();
        assert!(err.0.contains("UTF-8"), "{err:?}");
        // A length that runs past the end, without allocating it.
        let err = Reader::new(&[T_BYTES, 0xff, 0xff, 0xff, 0xff])
            .value()
            .unwrap_err();
        assert!(err.0.contains("truncated"), "{err:?}");
    }
}
