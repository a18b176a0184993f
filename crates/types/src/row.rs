use std::fmt;
use std::ops::Index;

use crate::Value;

/// A tuple of values produced and consumed by query operators.
///
/// Rows are positional; names live in the accompanying [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row(values)
    }

    pub fn empty() -> Row {
        Row(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    /// Concatenate two rows (used by joins and CROSS APPLY).
    pub fn concat(&self, other: &Row) -> Row {
        let mut vals = Vec::with_capacity(self.len() + other.len());
        vals.extend_from_slice(&self.0);
        vals.extend_from_slice(&other.0);
        Row(vals)
    }

    /// Approximate in-memory footprint, used for spill accounting.
    pub fn size_bytes(&self) -> usize {
        self.0.iter().map(Value::size_bytes).sum::<usize>() + 8
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row(v)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Row {
        Row(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn concat() {
        let a = row(&[1, 2]);
        let b = row(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn display_pipes_values() {
        let r = Row::new(vec![Value::Int(1), Value::text("ACGT"), Value::Null]);
        assert_eq!(r.to_string(), "1 | ACGT | NULL");
    }
}
