//! Built-in scalar functions (the T-SQL functions the paper's queries
//! use: `CHARINDEX`, `DATALENGTH`, `NEWID`, plus general string/number
//! helpers). All are ordinary [`ScalarUdf`]s registered in the function
//! registry at database creation — user extensions go through exactly the
//! same door.

use std::sync::atomic::{AtomicU64, Ordering};

use seqdb_types::{DbError, Result, Value};

use crate::udx::ScalarUdf;

fn wrong_args(name: &str, expect: &str) -> DbError {
    DbError::Execution(format!("{name} expects {expect}"))
}

macro_rules! scalar_fn {
    ($ty:ident, $name:literal, |$args:ident| $body:expr) => {
        pub struct $ty;
        impl ScalarUdf for $ty {
            fn name(&self) -> &str {
                $name
            }
            fn invoke(&self, $args: &[Value]) -> Result<Value> {
                $body
            }
        }
    };
}

/// 1-based character position of the first `needle` in `haystack`, 0 if
/// absent or if the needle is empty (T-SQL `CHARINDEX`). The builtin and
/// the compiled WHERE leaf ([`crate::expr`]'s kernel) both call this.
pub(crate) fn charindex(needle: &str, haystack: &str) -> i64 {
    let mut chars = needle.chars();
    let found = match (chars.next(), chars.next()) {
        (None, _) => return 0,
        // One character (Query 1's `'N'`) is a memchr-backed search.
        (Some(c), None) => haystack.find(c),
        _ => haystack.find(needle),
    };
    found.map_or(0, |byte_pos| {
        haystack[..byte_pos].chars().count() as i64 + 1
    })
}

// CHARINDEX(needle, haystack) -> 1-based position, 0 if absent (T-SQL).
scalar_fn!(CharIndexFn, "CHARINDEX", |args| {
    match args {
        [Value::Null, _] | [_, Value::Null] => Ok(Value::Null),
        [needle, haystack] => Ok(Value::Int(charindex(
            needle.as_text()?,
            haystack.as_text()?,
        ))),
        _ => Err(wrong_args("CHARINDEX", "(needle, haystack)")),
    }
});

// LEN(text) -> character count.
scalar_fn!(LenFn, "LEN", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [v] => Ok(Value::Int(v.as_text()?.chars().count() as i64)),
        _ => Err(wrong_args("LEN", "(text)")),
    }
});

// DATALENGTH(value) -> storage bytes (notably: BLOB length).
scalar_fn!(DataLengthFn, "DATALENGTH", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [Value::Text(s)] => Ok(Value::Int(s.len() as i64)),
        [Value::Bytes(b)] => Ok(Value::Int(b.len() as i64)),
        [Value::Int(_) | Value::Float(_)] => Ok(Value::Int(8)),
        [Value::Bool(_)] => Ok(Value::Int(1)),
        [Value::Guid(_)] => Ok(Value::Int(16)),
        _ => Err(wrong_args("DATALENGTH", "(value)")),
    }
});

// SUBSTRING(text, start, length) -> 1-based substring (T-SQL).
scalar_fn!(SubstringFn, "SUBSTRING", |args| {
    match args {
        [Value::Null, _, _] => Ok(Value::Null),
        [text, start, len] => {
            let t = text.as_text()?;
            let (start, len) = (start.as_int()?, len.as_int()?);
            if len < 0 {
                return Err(DbError::Execution(format!(
                    "SUBSTRING length must not be negative, got {len}"
                )));
            }
            // The window is [start, start + len) even when it begins
            // before the first character; only its part from 1 on returns.
            let first = start.max(1);
            let take = start.saturating_add(len).saturating_sub(first).max(0);
            let s: String = t
                .chars()
                .skip(usize::try_from(first - 1).unwrap_or(usize::MAX))
                .take(usize::try_from(take).unwrap_or(usize::MAX))
                .collect();
            Ok(Value::text(s))
        }
        _ => Err(wrong_args("SUBSTRING", "(text, start, length)")),
    }
});

scalar_fn!(UpperFn, "UPPER", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [v] => Ok(Value::text(v.as_text()?.to_uppercase())),
        _ => Err(wrong_args("UPPER", "(text)")),
    }
});

scalar_fn!(LowerFn, "LOWER", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [v] => Ok(Value::text(v.as_text()?.to_lowercase())),
        _ => Err(wrong_args("LOWER", "(text)")),
    }
});

// REPLACE(text, from, to).
scalar_fn!(ReplaceFn, "REPLACE", |args| {
    match args {
        [Value::Null, _, _] => Ok(Value::Null),
        [text, from, to] => Ok(Value::text(
            text.as_text()?.replace(from.as_text()?, to.as_text()?),
        )),
        _ => Err(wrong_args("REPLACE", "(text, from, to)")),
    }
});

scalar_fn!(AbsFn, "ABS", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [Value::Int(i)] => Ok(Value::Int(i.abs())),
        [Value::Float(f)] => Ok(Value::Float(f.abs())),
        _ => Err(wrong_args("ABS", "(number)")),
    }
});

// ROUND(number, digits).
scalar_fn!(RoundFn, "ROUND", |args| {
    match args {
        [Value::Null, _] => Ok(Value::Null),
        [v, d] => {
            let x = v.as_float()?;
            let digits = d.as_int()?;
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Float((x * factor).round() / factor))
        }
        _ => Err(wrong_args("ROUND", "(number, digits)")),
    }
});

// ISNULL(value, fallback) — T-SQL COALESCE with two arguments.
scalar_fn!(IsNullFn, "ISNULL", |args| {
    match args {
        [v, fallback] => Ok(if v.is_null() {
            fallback.clone()
        } else {
            v.clone()
        }),
        _ => Err(wrong_args("ISNULL", "(value, fallback)")),
    }
});

// CAST helpers (the parser lowers CAST(x AS T) onto these).
scalar_fn!(ToIntFn, "TO_INT", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [Value::Int(i)] => Ok(Value::Int(*i)),
        [Value::Float(f)] => Ok(Value::Int(*f as i64)),
        [Value::Bool(b)] => Ok(Value::Int(*b as i64)),
        [Value::Text(s)] => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::Execution(format!("cannot cast '{s}' to BIGINT"))),
        _ => Err(wrong_args("TO_INT", "(value)")),
    }
});

scalar_fn!(ToFloatFn, "TO_FLOAT", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [Value::Int(i)] => Ok(Value::Float(*i as f64)),
        [Value::Float(f)] => Ok(Value::Float(*f)),
        [Value::Text(s)] => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DbError::Execution(format!("cannot cast '{s}' to FLOAT"))),
        _ => Err(wrong_args("TO_FLOAT", "(value)")),
    }
});

scalar_fn!(ToTextFn, "TO_VARCHAR", |args| {
    match args {
        [Value::Null] => Ok(Value::Null),
        [v] => Ok(Value::text(v.to_string())),
        _ => Err(wrong_args("TO_VARCHAR", "(value)")),
    }
});

/// `NEWID()`: generates fresh GUIDs. Stateful (a counter mixed with the
/// clock) so it is a struct with interior state rather than a macro fn.
pub struct NewIdFn {
    counter: AtomicU64,
}

impl NewIdFn {
    pub fn new() -> NewIdFn {
        NewIdFn {
            counter: AtomicU64::new(1),
        }
    }
}

impl Default for NewIdFn {
    fn default() -> Self {
        Self::new()
    }
}

impl ScalarUdf for NewIdFn {
    fn name(&self) -> &str {
        "NEWID"
    }
    fn invoke(&self, args: &[Value]) -> Result<Value> {
        if !args.is_empty() {
            return Err(wrong_args("NEWID", "no arguments"));
        }
        let seq = self.counter.fetch_add(1, Ordering::Relaxed) as u128;
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        Ok(Value::guid((now << 32) ^ (seq << 1) ^ 0x4242))
    }
}

/// All built-ins, for registration into a fresh database.
pub fn all_builtins() -> Vec<std::sync::Arc<dyn ScalarUdf>> {
    vec![
        std::sync::Arc::new(CharIndexFn),
        std::sync::Arc::new(LenFn),
        std::sync::Arc::new(DataLengthFn),
        std::sync::Arc::new(SubstringFn),
        std::sync::Arc::new(UpperFn),
        std::sync::Arc::new(LowerFn),
        std::sync::Arc::new(ReplaceFn),
        std::sync::Arc::new(AbsFn),
        std::sync::Arc::new(RoundFn),
        std::sync::Arc::new(IsNullFn),
        std::sync::Arc::new(ToIntFn),
        std::sync::Arc::new(ToFloatFn),
        std::sync::Arc::new(ToTextFn),
        std::sync::Arc::new(NewIdFn::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charindex_matches_tsql() {
        // The paper's Query 1 filter: CHARINDEX('N', seq) = 0 keeps
        // N-free reads.
        let f = CharIndexFn;
        assert_eq!(
            f.invoke(&[Value::text("N"), Value::text("ACGT")]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            f.invoke(&[Value::text("N"), Value::text("ACNGT")]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            f.invoke(&[Value::Null, Value::text("x")]).unwrap(),
            Value::Null
        );
        // An empty needle is never found.
        assert_eq!(
            f.invoke(&[Value::text(""), Value::text("ACGT")]).unwrap(),
            Value::Int(0)
        );
        // Positions count characters, single- and multi-char needles alike.
        assert_eq!(
            f.invoke(&[Value::text("β"), Value::text("αβγ")]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            f.invoke(&[Value::text("TA"), Value::text("GATTACA")])
                .unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn substring_is_one_based() {
        let f = SubstringFn;
        let sub = |start: i64, len: i64| {
            f.invoke(&[Value::text("GATTACA"), Value::Int(start), Value::Int(len)])
        };
        assert_eq!(sub(2, 3).unwrap(), Value::text("ATT"));
        // A start below 1 still counts its window from `start`.
        assert_eq!(sub(0, 3).unwrap(), Value::text("GA"));
        assert_eq!(sub(-1, 3).unwrap(), Value::text("G"));
        assert_eq!(sub(-5, 3).unwrap(), Value::text(""));
        assert_eq!(sub(6, 10).unwrap(), Value::text("CA"));
        assert!(sub(2, -1).is_err(), "a negative length is an error");
    }

    #[test]
    fn datalength_counts_bytes() {
        let f = DataLengthFn;
        assert_eq!(
            f.invoke(&[Value::bytes(vec![0u8; 500])]).unwrap(),
            Value::Int(500)
        );
        assert_eq!(f.invoke(&[Value::Int(7)]).unwrap(), Value::Int(8));
    }

    #[test]
    fn casts() {
        assert_eq!(
            ToIntFn.invoke(&[Value::text(" 42 ")]).unwrap(),
            Value::Int(42)
        );
        assert!(ToIntFn.invoke(&[Value::text("4x")]).is_err());
        assert_eq!(
            ToFloatFn.invoke(&[Value::Int(2)]).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(ToTextFn.invoke(&[Value::Int(7)]).unwrap(), Value::text("7"));
    }

    #[test]
    fn newid_unique() {
        let f = NewIdFn::new();
        let a = f.invoke(&[]).unwrap();
        let b = f.invoke(&[]).unwrap();
        assert_ne!(a, b);
        assert!(f.invoke(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn isnull_fallback() {
        let f = IsNullFn;
        assert_eq!(
            f.invoke(&[Value::Null, Value::Int(0)]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            f.invoke(&[Value::Int(5), Value::Int(0)]).unwrap(),
            Value::Int(5)
        );
    }
}
