//! Runtime values and in-memory column vectors.

use crate::error::{FormatError, Result};
use crate::schema::LogicalType;

/// A single scalar value, used for predicate constants and min/max
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An `Int64` or `Date` value.
    Int(i64),
    /// A `Float64` value.
    Float(f64),
    /// A `Utf8` value.
    Str(String),
}

impl Value {
    /// The logical type family this value belongs to (dates compare as
    /// integers).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    /// Compares two values of the same family.
    ///
    /// Returns `None` when the families differ (e.g. comparing a string to
    /// an integer), except that ints and floats compare numerically.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// A decoded, in-memory column: the unit that filters and projections
/// operate on after a chunk is read and decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Int64 / Date values.
    Int64(Vec<i64>),
    /// Float64 values.
    Float64(Vec<f64>),
    /// Utf8 values.
    Utf8(Vec<String>),
}

impl ColumnData {
    /// An empty column of the physical type backing `ty`, with room for
    /// `capacity` values.
    pub fn with_capacity(ty: LogicalType, capacity: usize) -> ColumnData {
        match ty {
            LogicalType::Int64 | LogicalType::Date => {
                ColumnData::Int64(Vec::with_capacity(capacity))
            }
            LogicalType::Float64 => ColumnData::Float64(Vec::with_capacity(capacity)),
            LogicalType::Utf8 => ColumnData::Utf8(Vec::with_capacity(capacity)),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical type this vector stores.
    pub fn physical_name(&self) -> &'static str {
        match self {
            ColumnData::Int64(_) => "int64",
            ColumnData::Float64(_) => "float64",
            ColumnData::Utf8(_) => "utf8",
        }
    }

    /// Whether this vector can back a column of logical type `ty`.
    pub fn matches(&self, ty: LogicalType) -> bool {
        matches!(
            (self, ty),
            (ColumnData::Int64(_), LogicalType::Int64)
                | (ColumnData::Int64(_), LogicalType::Date)
                | (ColumnData::Float64(_), LogicalType::Float64)
                | (ColumnData::Utf8(_), LogicalType::Utf8)
        )
    }

    /// The value at `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int64(v) => Value::Int(v[row]),
            ColumnData::Float64(v) => Value::Float(v[row]),
            ColumnData::Utf8(v) => Value::Str(v[row].clone()),
        }
    }

    /// Keeps only the rows whose indices appear in `rows` (ascending),
    /// returning a new column.
    pub fn take(&self, rows: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Float64(v) => ColumnData::Float64(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Utf8(v) => ColumnData::Utf8(rows.iter().map(|&r| v[r].clone()).collect()),
        }
    }

    /// Returns the sub-column covering `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> ColumnData {
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(v[range].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[range].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[range].to_vec()),
        }
    }

    /// Computes `(min, max)` statistics, or `None` for an empty column.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        if self.is_empty() {
            return None;
        }
        Some(match self {
            ColumnData::Int64(v) => {
                let mn = *v.iter().min().expect("nonempty");
                let mx = *v.iter().max().expect("nonempty");
                (Value::Int(mn), Value::Int(mx))
            }
            ColumnData::Float64(v) => {
                let mut mn = f64::INFINITY;
                let mut mx = f64::NEG_INFINITY;
                for &x in v {
                    mn = mn.min(x);
                    mx = mx.max(x);
                }
                (Value::Float(mn), Value::Float(mx))
            }
            ColumnData::Utf8(v) => {
                let mn = v.iter().min().expect("nonempty").clone();
                let mx = v.iter().max().expect("nonempty").clone();
                (Value::Str(mn), Value::Str(mx))
            }
        })
    }

    /// Size in bytes of the values under plain (uncompressed, unencoded)
    /// representation. This is the paper's notion of a chunk's
    /// *uncompressed size* when computing compressibility.
    pub fn plain_size(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            // Strings: 4-byte length prefix + bytes.
            ColumnData::Utf8(v) => v.iter().map(|s| 4 + s.len()).sum(),
        }
    }

    /// Borrows as `&[i64]`.
    ///
    /// # Errors
    ///
    /// Type mismatch if this is not an integer column.
    pub fn as_int64(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Int64(v) => Ok(v),
            other => Err(FormatError::TypeMismatch {
                expected: "int64",
                actual: other.physical_name(),
            }),
        }
    }

    /// Borrows as `&[f64]`.
    ///
    /// # Errors
    ///
    /// Type mismatch if this is not a float column.
    pub fn as_float64(&self) -> Result<&[f64]> {
        match self {
            ColumnData::Float64(v) => Ok(v),
            other => Err(FormatError::TypeMismatch {
                expected: "float64",
                actual: other.physical_name(),
            }),
        }
    }

    /// Borrows as `&[String]`.
    ///
    /// # Errors
    ///
    /// Type mismatch if this is not a string column.
    pub fn as_utf8(&self) -> Result<&[String]> {
        match self {
            ColumnData::Utf8(v) => Ok(v),
            other => Err(FormatError::TypeMismatch {
                expected: "utf8",
                actual: other.physical_name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_comparisons() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).partial_cmp_value(&Value::Int(2)), Some(Less));
        assert_eq!(
            Value::Float(2.0).partial_cmp_value(&Value::Int(2)),
            Some(Equal)
        );
        assert_eq!(
            Value::Str("b".into()).partial_cmp_value(&Value::Str("a".into())),
            Some(Greater)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn min_max_all_types() {
        let c = ColumnData::Int64(vec![5, -3, 9]);
        assert_eq!(c.min_max(), Some((Value::Int(-3), Value::Int(9))));
        let c = ColumnData::Float64(vec![1.5, 0.25]);
        assert_eq!(c.min_max(), Some((Value::Float(0.25), Value::Float(1.5))));
        let c = ColumnData::Utf8(vec!["pear".into(), "apple".into()]);
        assert_eq!(
            c.min_max(),
            Some((Value::Str("apple".into()), Value::Str("pear".into())))
        );
        assert_eq!(ColumnData::Int64(vec![]).min_max(), None);
    }

    #[test]
    fn take_and_slice() {
        let c = ColumnData::Int64(vec![10, 20, 30, 40]);
        assert_eq!(c.take(&[0, 3]), ColumnData::Int64(vec![10, 40]));
        assert_eq!(c.slice(1..3), ColumnData::Int64(vec![20, 30]));
    }

    #[test]
    fn plain_sizes() {
        assert_eq!(ColumnData::Int64(vec![1, 2]).plain_size(), 16);
        assert_eq!(
            ColumnData::Utf8(vec!["ab".into(), "c".into()]).plain_size(),
            4 + 2 + 4 + 1
        );
    }

    #[test]
    fn typed_borrows() {
        let c = ColumnData::Float64(vec![1.0]);
        assert!(c.as_float64().is_ok());
        assert!(matches!(
            c.as_int64().unwrap_err(),
            FormatError::TypeMismatch {
                expected: "int64",
                actual: "float64"
            }
        ));
    }

    #[test]
    fn matches_logical_types() {
        assert!(ColumnData::Int64(vec![]).matches(LogicalType::Date));
        assert!(ColumnData::Int64(vec![]).matches(LogicalType::Int64));
        assert!(!ColumnData::Utf8(vec![]).matches(LogicalType::Int64));
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
    }
}
