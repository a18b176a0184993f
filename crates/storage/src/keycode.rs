//! Order-preserving key encoding for B+-tree indexes.
//!
//! Composite keys (e.g. the paper's `(a_e_id, a_sg_id, a_s_id, a_g_id)`
//! primary keys) are encoded so that a bytewise comparison of the encoded
//! forms equals the column-by-column [`Value::total_cmp`] comparison —
//! with one caveat: `Int` and `Float` use *different* encodings, so a
//! single index column must be homogeneously typed (which the engine's
//! typed schemas guarantee).

use seqdb_types::{DbError, Result, Value};

const T_NULL: u8 = 0x00;
const T_BOOL: u8 = 0x01;
const T_INT: u8 = 0x02;
const T_FLOAT: u8 = 0x03;
const T_TEXT: u8 = 0x04;
const T_BYTES: u8 = 0x05;
const T_GUID: u8 = 0x06;

/// Encode a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_one(&mut out, v);
    }
    out
}

fn encode_one(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(b) => {
            out.push(T_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(T_INT);
            // Flip the sign bit so two's-complement order becomes
            // lexicographic order.
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Float(f) => {
            out.push(T_FLOAT);
            let bits = f.to_bits();
            // IEEE-754 totally-ordered encoding: negative floats reverse.
            let sortable = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits | (1 << 63)
            };
            out.extend_from_slice(&sortable.to_be_bytes());
        }
        Value::Text(s) => {
            out.push(T_TEXT);
            escape_bytes(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(T_BYTES);
            escape_bytes(out, b);
        }
        Value::Guid(g) => {
            out.push(T_GUID);
            out.extend_from_slice(g);
        }
    }
}

/// 0x00-escaped, 0x00 0x00-terminated byte string: preserves prefix order
/// and makes the terminator sort before any continuation.
fn escape_bytes(out: &mut Vec<u8>, b: &[u8]) {
    for &byte in b {
        if byte == 0x00 {
            out.extend_from_slice(&[0x00, 0xff]);
        } else {
            out.push(byte);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

/// Decode a key produced by [`encode_key`]. Mostly used by tests and
/// diagnostics; the engine stores the full row as the B+-tree value.
pub fn decode_key(buf: &[u8]) -> Result<Vec<Value>> {
    let err = || DbError::Storage("corrupt index key".into());
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        let v = match tag {
            T_NULL => Value::Null,
            T_BOOL => {
                let b = *buf.get(pos).ok_or_else(err)?;
                pos += 1;
                Value::Bool(b != 0)
            }
            T_INT => {
                let raw = buf.get(pos..pos + 8).ok_or_else(err)?;
                pos += 8;
                let u = u64::from_be_bytes(raw.try_into().unwrap()) ^ (1 << 63);
                Value::Int(u as i64)
            }
            T_FLOAT => {
                let raw = buf.get(pos..pos + 8).ok_or_else(err)?;
                pos += 8;
                let sortable = u64::from_be_bytes(raw.try_into().unwrap());
                let bits = if sortable & (1 << 63) != 0 {
                    sortable ^ (1 << 63)
                } else {
                    !sortable
                };
                Value::Float(f64::from_bits(bits))
            }
            T_TEXT => {
                let (bytes, np) = unescape_bytes(buf, pos).ok_or_else(err)?;
                pos = np;
                let s = String::from_utf8(bytes).map_err(|_| err())?;
                Value::text(s)
            }
            T_BYTES => {
                let (bytes, np) = unescape_bytes(buf, pos).ok_or_else(err)?;
                pos = np;
                Value::Bytes(bytes.into())
            }
            T_GUID => {
                let raw = buf.get(pos..pos + 16).ok_or_else(err)?;
                pos += 16;
                Value::Guid(raw.try_into().unwrap())
            }
            _ => return Err(err()),
        };
        out.push(v);
    }
    Ok(out)
}

fn unescape_bytes(buf: &[u8], mut pos: usize) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    loop {
        let b = *buf.get(pos)?;
        pos += 1;
        if b != 0x00 {
            out.push(b);
            continue;
        }
        match *buf.get(pos)? {
            0x00 => return Some((out, pos + 1)),
            0xff => {
                out.push(0x00);
                pos += 1;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn guid_keys_are_pinned_big_endian_and_keep_numeric_order() {
        let g = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeffu128;
        let enc = encode_key(&[Value::guid(g)]);
        assert_eq!(
            enc,
            [
                0x06, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc,
                0xdd, 0xee, 0xff,
            ]
        );
        assert_eq!(decode_key(&enc).unwrap(), vec![Value::guid(g)]);
        let guids = [0xffu128, 0x100, 1 << 64, u128::MAX - 1, u128::MAX];
        let keys: Vec<Vec<u8>> = guids
            .iter()
            .map(|&g| encode_key(&[Value::guid(g)]))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn int_order_preserved() {
        let vals = [-1_000_000i64, -1, 0, 1, 42, i64::MAX, i64::MIN];
        let mut encoded: Vec<(Vec<u8>, i64)> = vals
            .iter()
            .map(|&i| (encode_key(&[Value::Int(i)]), i))
            .collect();
        encoded.sort();
        let sorted: Vec<i64> = encoded.iter().map(|(_, i)| *i).collect();
        let mut expect = vals.to_vec();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn null_sorts_before_everything() {
        let null = encode_key(&[Value::Null]);
        for v in [Value::Int(i64::MIN), Value::text(""), Value::Bool(false)] {
            assert!(null < encode_key(&[v]));
        }
    }

    #[test]
    fn text_prefix_order() {
        let a = encode_key(&[Value::text("chr1")]);
        let b = encode_key(&[Value::text("chr10")]);
        let c = encode_key(&[Value::text("chr2")]);
        assert!(a < b && b < c);
    }

    #[test]
    fn composite_keys_compare_column_major() {
        let k1 = encode_key(&[Value::Int(1), Value::Int(999)]);
        let k2 = encode_key(&[Value::Int(2), Value::Int(0)]);
        assert!(k1 < k2);
    }

    #[test]
    fn embedded_zero_bytes_are_safe() {
        let a = encode_key(&[Value::bytes(b"a\x00b"), Value::Int(1)]);
        let b = encode_key(&[Value::bytes(b"a"), Value::Int(1)]);
        assert_ne!(a, b);
        assert_eq!(decode_key(&a).unwrap()[0], Value::bytes(b"a\x00b"));
    }

    proptest! {
        #[test]
        fn roundtrip_ints(v: i64) {
            let k = encode_key(&[Value::Int(v)]);
            prop_assert_eq!(decode_key(&k).unwrap(), vec![Value::Int(v)]);
        }

        #[test]
        fn roundtrip_text(s in "\\PC{0,40}") {
            let k = encode_key(&[Value::text(&s)]);
            prop_assert_eq!(decode_key(&k).unwrap(), vec![Value::text(&s)]);
        }

        #[test]
        fn int_encoding_matches_total_cmp(a: i64, b: i64) {
            let ka = encode_key(&[Value::Int(a)]);
            let kb = encode_key(&[Value::Int(b)]);
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        }

        #[test]
        fn float_encoding_matches_total_cmp(a: f64, b: f64) {
            let va = Value::Float(a);
            let vb = Value::Float(b);
            let ka = encode_key(std::slice::from_ref(&va));
            let kb = encode_key(std::slice::from_ref(&vb));
            prop_assert_eq!(ka.cmp(&kb), va.total_cmp(&vb));
        }

        #[test]
        fn bytes_encoding_matches_total_cmp(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            b in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let va = Value::bytes(&a);
            let vb = Value::bytes(&b);
            let ka = encode_key(std::slice::from_ref(&va));
            let kb = encode_key(std::slice::from_ref(&vb));
            prop_assert_eq!(ka.cmp(&kb), va.total_cmp(&vb));
        }
    }
}
