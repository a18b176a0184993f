use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{DataType, DbError, Result};

/// A single scalar value flowing through the engine.
///
/// `Text` and `Bytes` use [`Arc`] payloads so that rows can be cloned
/// cheaply as they move between operators — short-read sequences are copied
/// many times through a plan and the paper explicitly calls out the cost of
/// copying sequence data between the UDF sandbox and the query engine.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares before every non-null value (SQL Server `ORDER BY`
    /// semantics) and equal to itself for grouping purposes.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Bytes(Arc<[u8]>),
    /// 128-bit GUID, printed in the canonical 8-4-4-4-12 hex form. Held
    /// as its big-endian bytes: a `u128` would raise the enum's alignment
    /// to 16 and every `Value` to 32 bytes, while byte order keeps the
    /// numeric order (see [`Value::guid`]).
    Guid([u8; 16]),
}

// Rows are `Vec<Value>`: every byte here is paid once per column per row.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// Construct a text value from anything string-like.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Construct a GUID value from its numeric form.
    pub fn guid(g: u128) -> Value {
        Value::Guid(g.to_be_bytes())
    }

    /// Construct a bytes value.
    pub fn bytes(b: impl AsRef<[u8]>) -> Value {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// The data type of this value, `None` for NULL (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bytes(_) => Some(DataType::Bytes),
            Value::Guid(_) => Some(DataType::Guid),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, coercing from `Bool`. Errors on other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(DbError::Execution(format!(
                "expected BIGINT, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract an `f64`, coercing from `Int`.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(DbError::Execution(format!(
                "expected FLOAT, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            other => Err(DbError::Execution(format!(
                "expected BIT, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(DbError::Execution(format!(
                "expected VARCHAR, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_bytes(&self) -> Result<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(DbError::Execution(format!(
                "expected VARBINARY, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_guid(&self) -> Result<u128> {
        match self {
            Value::Guid(g) => Ok(u128::from_be_bytes(*g)),
            other => Err(DbError::Execution(format!(
                "expected UNIQUEIDENTIFIER, got {}",
                other.type_name()
            ))),
        }
    }

    /// Human-readable name of the value's type (`"NULL"` for NULL).
    pub fn type_name(&self) -> &'static str {
        match self.data_type() {
            None => "NULL",
            Some(dt) => dt.sql_name(),
        }
    }

    /// Whether this value can be stored in a column of type `dt`.
    /// NULL matches every type; `Int` is accepted by `Float` columns.
    pub fn matches_type(&self, dt: DataType) -> bool {
        match (self, dt) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, dt) => v.data_type() == Some(dt),
        }
    }

    /// Approximate in-memory footprint in bytes, used by the planner's
    /// memory-grant accounting and the spill bookkeeping of external sort.
    pub fn size_bytes(&self) -> usize {
        self.view().size_bytes()
    }

    /// Total ordering used by ORDER BY, merge join and B+-tree keys:
    /// NULL < Bool < Int/Float (numeric order, mixed) < Text < Bytes < Guid.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.view().total_cmp(&other.view())
    }

    /// This value borrowed: what column batches hand out instead of
    /// building a `Value`.
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
            Value::Guid(g) => ValueRef::Guid(g),
        }
    }

    /// SQL equality (`=`): NULL = anything is NULL (returned as `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.total_cmp(other) == Ordering::Equal)
        }
    }

    /// Format a GUID in canonical form.
    pub fn guid_string(g: u128) -> String {
        let b = g.to_be_bytes();
        format!(
            "{:02x}{:02x}{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]
        )
    }
}

/// Equality for grouping/hashing: NULLs group together, floats compare by
/// bit pattern of their `total_cmp` class (so `NaN == NaN` in GROUP BY,
/// matching SQL semantics of treating NULL/NaN as one group).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state)
    }
}

/// A borrowed [`Value`]: the same variants with the text and bytes
/// payloads borrowed. Record decode, column batches and the borrowed
/// aggregate path pass these so that reading a cell allocates nothing;
/// [`ValueRef::to_value`] builds the owned value where one is kept.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bytes(&'a [u8]),
    Guid(&'a [u8; 16]),
}

impl ValueRef<'_> {
    /// The owned value: a text or bytes payload is copied into its `Arc`.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(Arc::from(s)),
            ValueRef::Bytes(b) => Value::Bytes(Arc::from(b)),
            ValueRef::Guid(g) => Value::Guid(*g),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The value's type name, as [`Value::type_name`].
    pub fn type_name(&self) -> &'static str {
        match self {
            ValueRef::Null => "NULL",
            ValueRef::Bool(_) => DataType::Bool.sql_name(),
            ValueRef::Int(_) => DataType::Int.sql_name(),
            ValueRef::Float(_) => DataType::Float.sql_name(),
            ValueRef::Text(_) => DataType::Text.sql_name(),
            ValueRef::Bytes(_) => DataType::Bytes.sql_name(),
            ValueRef::Guid(_) => DataType::Guid.sql_name(),
        }
    }

    /// As [`Value::as_int`].
    pub fn as_int(&self) -> Result<i64> {
        match self {
            ValueRef::Int(i) => Ok(*i),
            ValueRef::Bool(b) => Ok(*b as i64),
            other => Err(DbError::Execution(format!(
                "expected BIGINT, got {}",
                other.type_name()
            ))),
        }
    }

    /// As [`Value::as_text`].
    pub fn as_text(&self) -> Result<&str> {
        match self {
            ValueRef::Text(s) => Ok(s),
            other => Err(DbError::Execution(format!(
                "expected VARCHAR, got {}",
                other.type_name()
            ))),
        }
    }

    /// As [`Value::size_bytes`].
    pub fn size_bytes(&self) -> usize {
        match self {
            ValueRef::Null | ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) => 8,
            ValueRef::Text(s) => s.len() + 4,
            ValueRef::Bytes(b) => b.len() + 4,
            ValueRef::Guid(_) => 16,
        }
    }

    /// As [`Value::total_cmp`].
    #[inline]
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        fn rank(v: &ValueRef<'_>) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
                Bytes(_) => 4,
                Guid(_) => 5,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.as_bytes().cmp(b.as_bytes()),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Guid(a), Guid(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Hashes exactly as the owned [`Value`] does, so a borrowed cell and
/// the key it equals land in one bucket.
impl Hash for ValueRef<'_> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => 0u8.hash(state),
            ValueRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because total_cmp treats them as one numeric domain.
            ValueRef::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            ValueRef::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            ValueRef::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            ValueRef::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
            ValueRef::Guid(g) => {
                5u8.hash(state);
                g.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { 1 } else { 0 }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::Guid(g) => write!(f, "{}", Value::guid_string(u128::from_be_bytes(*g))),
        }
    }
}

fn hex(b: &[u8]) -> String {
    // BLOB display is truncated: nobody wants a 500 MB FileStream hex dump
    // in query output.
    let shown = &b[..b.len().min(16)];
    let mut s = String::with_capacity(shown.len() * 2 + 3);
    for byte in shown {
        s.push_str(&format!("{byte:02x}"));
    }
    if b.len() > 16 {
        s.push_str("...");
    }
    s
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Arc::from(v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(-1));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::text("a").sql_eq(&Value::text("b")), Some(false));
    }

    #[test]
    fn int_and_float_hash_alike_when_equal() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn guids_order_numerically() {
        let mut vals = [
            Value::guid(1 << 64),
            Value::guid(u128::MAX),
            Value::guid(0xff),
            Value::guid(0x100),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<u128> = vals.iter().map(|v| v.as_guid().unwrap()).collect();
        assert_eq!(got, vec![0xff, 0x100, 1 << 64, u128::MAX]);
        assert_eq!(
            Value::guid(0x0123).to_string(),
            "00000000-0000-0000-0000-000000000123"
        );
    }

    #[test]
    fn guid_formats_canonically() {
        let g = 0x00112233_4455_6677_8899_aabbccddeeffu128;
        assert_eq!(
            Value::guid_string(g),
            "00112233-4455-6677-8899-aabbccddeeff"
        );
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert_eq!(Value::Int(4).as_float().unwrap(), 4.0);
        assert!(Value::text("x").as_int().is_err());
        assert!(Value::Int(5).matches_type(DataType::Float));
        assert!(Value::Null.matches_type(DataType::Guid));
        assert!(!Value::text("x").matches_type(DataType::Int));
    }

    #[test]
    fn display_truncates_blobs() {
        let v = Value::bytes(vec![0xabu8; 64]);
        let s = v.to_string();
        assert!(s.starts_with("0xabab"));
        assert!(s.ends_with("..."));
    }
}
