//! Page-compression context: the per-page column-prefix table and value
//! dictionary of SQL Server 2008 page compression (paper §2.3.5, \[11\]).
//!
//! When a heap page fills up on a `DATA_COMPRESSION = PAGE` table, the heap
//! decodes the page's rows, builds a [`PageContext`] from them (longest
//! common column prefixes + a dictionary of repeated values), re-encodes
//! every row against it and rewrites the page. The context is serialized
//! into the page's *compression-information* area, so pages remain
//! self-describing given the table schema.
//!
//! The paper's Table 2 observation — "the short-reads are much less uniform
//! and hence the common-prefix- and dictionary-based compression algorithms
//! over only a small subset of the data fitting on one disk page do not
//! perform that well" — falls out of this design naturally: the context
//! only ever sees one page's worth of rows.

use std::collections::HashMap;

use seqdb_types::{Result, Row, Schema, Value};

use crate::rowfmt::{common_prefix_len, encode_value_row};
use crate::varint;

/// Upper bound on the serialized size of a page's compression context.
/// Keeps the CI area from crowding out the data it is meant to compress.
pub const MAX_CONTEXT_BYTES: usize = 2048;

/// Minimum number of occurrences for a value to be considered for the
/// dictionary, and minimum canonical length (shorter values cost more as a
/// token than inline).
const DICT_MIN_COUNT: usize = 2;
const DICT_MIN_LEN: usize = 3;

/// A per-page compression context: one optional byte prefix per column and
/// a dictionary of canonical value encodings shared by all columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageContext {
    prefixes: Vec<Vec<u8>>,
    dict: Vec<Vec<u8>>,
    dict_index: HashMap<Vec<u8>, u32>,
}

impl PageContext {
    /// Build a context from the rows currently on a page.
    ///
    /// Column prefixes: the longest common prefix of the raw payloads of
    /// all non-null Text/Bytes values in the column (capped at 255 bytes).
    /// Dictionary: canonical encodings occurring at least twice, greedily
    /// admitted by descending total savings until [`MAX_CONTEXT_BYTES`].
    pub fn build(schema: &Schema, rows: &[Row]) -> PageContext {
        let ncols = schema.len();
        let mut prefixes: Vec<Option<Vec<u8>>> = vec![None; ncols];
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();

        for row in rows {
            for (i, v) in row.values().iter().enumerate() {
                if v.is_null() {
                    continue;
                }
                if let Some(payload) = raw_payload(v) {
                    match &mut prefixes[i] {
                        None => prefixes[i] = Some(payload[..payload.len().min(255)].to_vec()),
                        Some(p) => {
                            let l = common_prefix_len(p, payload);
                            p.truncate(l);
                        }
                    }
                }
                let mut canon = Vec::new();
                encode_value_row(&mut canon, v);
                if canon.len() >= DICT_MIN_LEN {
                    *counts.entry(canon).or_insert(0) += 1;
                }
            }
        }

        let prefixes: Vec<Vec<u8>> = prefixes
            .into_iter()
            .map(|p| p.unwrap_or_default())
            .collect();

        // Rank dictionary candidates by savings = (count-1) * len, best first.
        let mut candidates: Vec<(Vec<u8>, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= DICT_MIN_COUNT)
            .collect();
        candidates.sort_by(|a, b| {
            let sa = (a.1 - 1) * a.0.len();
            let sb = (b.1 - 1) * b.0.len();
            sb.cmp(&sa).then_with(|| a.0.cmp(&b.0))
        });

        let mut budget = MAX_CONTEXT_BYTES
            .saturating_sub(prefixes.iter().map(|p| p.len() + 2).sum::<usize>() + 8);
        let mut dict = Vec::new();
        for (canon, _) in candidates {
            let cost = canon.len() + varint::len_u64(canon.len() as u64);
            if cost > budget {
                continue;
            }
            budget -= cost;
            dict.push(canon);
        }

        let dict_index = dict
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();

        PageContext {
            prefixes,
            dict,
            dict_index,
        }
    }

    /// The prefix bytes for column `col` (empty = no prefix).
    pub fn prefix(&self, col: usize) -> &[u8] {
        self.prefixes.get(col).map(|p| p.as_slice()).unwrap_or(&[])
    }

    /// Dictionary id for a canonical value encoding, if present.
    pub fn dict_lookup(&self, canon: &[u8]) -> Option<u32> {
        self.dict_index.get(canon).copied()
    }

    /// Canonical encoding stored under `id`.
    pub fn dict_entry(&self, id: usize) -> Option<&[u8]> {
        self.dict.get(id).map(|d| d.as_slice())
    }

    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Whether the context contains anything worth storing.
    pub fn is_trivial(&self) -> bool {
        self.dict.is_empty() && self.prefixes.iter().all(|p| p.len() < 2)
    }

    /// Serialize into the page's CI area.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, self.prefixes.len() as u64);
        for p in &self.prefixes {
            varint::write_u64(&mut out, p.len() as u64);
            out.extend_from_slice(p);
        }
        varint::write_u64(&mut out, self.dict.len() as u64);
        for d in &self.dict {
            varint::write_u64(&mut out, d.len() as u64);
            out.extend_from_slice(d);
        }
        out
    }

    /// Parse a CI area back into a context.
    pub fn deserialize(buf: &[u8]) -> Result<PageContext> {
        let err = || seqdb_types::DbError::Storage("corrupt page compression context".into());
        let mut pos = 0;
        let npref = varint::read_u64(buf, &mut pos).ok_or_else(err)? as usize;
        let mut prefixes = Vec::with_capacity(npref.min(1024));
        for _ in 0..npref {
            let n = varint::read_u64(buf, &mut pos).ok_or_else(err)? as usize;
            let end = pos.checked_add(n).ok_or_else(err)?;
            prefixes.push(buf.get(pos..end).ok_or_else(err)?.to_vec());
            pos = end;
        }
        let ndict = varint::read_u64(buf, &mut pos).ok_or_else(err)? as usize;
        let mut dict = Vec::with_capacity(ndict.min(4096));
        for _ in 0..ndict {
            let n = varint::read_u64(buf, &mut pos).ok_or_else(err)? as usize;
            let end = pos.checked_add(n).ok_or_else(err)?;
            dict.push(buf.get(pos..end).ok_or_else(err)?.to_vec());
            pos = end;
        }
        let dict_index = dict
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        Ok(PageContext {
            prefixes,
            dict,
            dict_index,
        })
    }
}

fn raw_payload(v: &Value) -> Option<&[u8]> {
    match v {
        Value::Text(s) => Some(s.as_bytes()),
        Value::Bytes(b) => Some(b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowfmt::{decode_row, encode_row, Compression};
    use seqdb_types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Text),
        ])
    }

    fn repetitive_rows() -> Vec<Row> {
        // Digital gene expression style: few distinct tags, repeated often,
        // sharing a long prefix.
        (0..100)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::text(format!("CATGGAATTCTCGGG_{}", i % 4)),
                ])
            })
            .collect()
    }

    #[test]
    fn context_finds_prefix_and_dictionary() {
        let s = schema();
        let rows = repetitive_rows();
        let ctx = PageContext::build(&s, &rows);
        assert!(ctx.prefix(1).starts_with(b"CATGGAATTCTCGGG_"));
        assert!(
            ctx.dict_len() >= 4,
            "four repeated tags should be dict entries"
        );
        assert!(!ctx.is_trivial());
    }

    #[test]
    fn page_compressed_rows_roundtrip_and_shrink() {
        let s = schema();
        let rows = repetitive_rows();
        let ctx = PageContext::build(&s, &rows);
        let mut plain = 0usize;
        let mut compressed = 0usize;
        for r in &rows {
            let enc_row = encode_row(&s, r, Compression::Row, None);
            let enc_page = encode_row(&s, r, Compression::Page, Some(&ctx));
            plain += enc_row.len();
            compressed += enc_page.len();
            let dec = decode_row(&s, &enc_page, Compression::Page, Some(&ctx)).unwrap();
            assert_eq!(&dec, r);
        }
        assert!(
            compressed * 2 < plain,
            "repetitive page should compress >2x: {compressed} vs {plain}"
        );
    }

    #[test]
    fn high_entropy_rows_barely_compress() {
        // 1000-Genomes style: nearly-unique reads. Page compression should
        // not help much (Table 2's observation).
        let s = schema();
        let bases = [b'A', b'C', b'G', b'T'];
        let rows: Vec<Row> = (0..100u64)
            .map(|i| {
                let mut x = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(144115188075855872);
                let seq: String = (0..36)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        bases[(x >> 33) as usize % 4] as char
                    })
                    .collect();
                Row::new(vec![Value::Int(i as i64), Value::text(seq)])
            })
            .collect();
        let ctx = PageContext::build(&s, &rows);
        let mut plain = 0usize;
        let mut compressed = 0usize;
        for r in &rows {
            plain += encode_row(&s, r, Compression::Row, None).len();
            let enc = encode_row(&s, r, Compression::Page, Some(&ctx));
            compressed += enc.len();
            let dec = decode_row(&s, &enc, Compression::Page, Some(&ctx)).unwrap();
            assert_eq!(&dec, r);
        }
        let ratio = compressed as f64 / plain as f64;
        assert!(
            ratio > 0.85,
            "unique reads should not compress well: {ratio}"
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let s = schema();
        let ctx = PageContext::build(&s, &repetitive_rows());
        let ser = ctx.serialize();
        assert!(ser.len() <= MAX_CONTEXT_BYTES);
        let back = PageContext::deserialize(&ser).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(PageContext::deserialize(&[0xff, 0xff, 0xff]).is_err());
    }
}
