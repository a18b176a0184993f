//! LEB128 varints with zigzag encoding for signed integers.
//!
//! Used by row compression (paper §2.3.5: "row compression uses
//! variable-length storage formats for numeric types") and by every other
//! variable-length field in record and page encodings.

/// Append `v` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// `v` as an unsigned LEB128 varint in `buf`: the bytes [`write_u64`]
/// appends, without a vector to append them to.
pub fn encode_u64(mut v: u64, buf: &mut [u8; 10]) -> &[u8] {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return &buf[..=n];
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Append `v` with zigzag + LEB128.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Read an unsigned varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on truncated input or overlong encoding (> 10 bytes).
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Read a zigzag-encoded signed varint.
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(unzigzag)
}

#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of bytes `write_u64` would emit.
pub fn len_u64(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_one_byte() {
        let mut out = Vec::new();
        write_u64(&mut out, 127);
        assert_eq!(out, vec![0x7f]);
        out.clear();
        write_i64(&mut out, -1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut pos = 0;
        assert_eq!(read_u64(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(read_u64(&[], &mut pos), None);
    }

    #[test]
    fn len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out.len(), len_u64(v), "v={v}");
            assert_eq!(encode_u64(v, &mut [0; 10]), out, "v={v}");
        }
    }

    proptest! {
        #[test]
        fn roundtrip_u64(v: u64) {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(read_u64(&out, &mut pos), Some(v));
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn roundtrip_i64(v: i64) {
            let mut out = Vec::new();
            write_i64(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(read_i64(&out, &mut pos), Some(v));
        }

        #[test]
        fn zigzag_small_magnitude_small_encoding(v in -64i64..64) {
            let mut out = Vec::new();
            write_i64(&mut out, v);
            prop_assert_eq!(out.len(), 1);
        }
    }
}
