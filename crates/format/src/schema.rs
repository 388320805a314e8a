//! Table schemas: ordered, named, typed columns.

use crate::error::{FormatError, Result};
use crate::util::{put, Cursor};

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalType {
    /// 64-bit signed integers (also used for keys and counts).
    Int64,
    /// 64-bit IEEE floats (prices, amounts, distances).
    Float64,
    /// UTF-8 strings (flags, categories, free text).
    Utf8,
    /// Dates stored as days since the Unix epoch.
    Date,
}

impl LogicalType {
    /// Stable wire tag for the footer encoding.
    fn tag(self) -> u8 {
        match self {
            LogicalType::Int64 => 0,
            LogicalType::Float64 => 1,
            LogicalType::Utf8 => 2,
            LogicalType::Date => 3,
        }
    }

    fn from_tag(t: u8) -> Result<LogicalType> {
        Ok(match t {
            0 => LogicalType::Int64,
            1 => LogicalType::Float64,
            2 => LogicalType::Utf8,
            3 => LogicalType::Date,
            other => return Err(FormatError::Corrupt(format!("unknown type tag {other}"))),
        })
    }

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            LogicalType::Int64 => "int64",
            LogicalType::Float64 => "float64",
            LogicalType::Utf8 => "utf8",
            LogicalType::Date => "date",
        }
    }
}

impl std::fmt::Display for LogicalType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name; unique within a schema.
    pub name: String,
    /// Logical type.
    pub ty: LogicalType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, ty: LogicalType) -> Field {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered collection of [`Field`]s.
///
/// # Examples
///
/// ```
/// use fusion_format::schema::{Field, LogicalType, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("name", LogicalType::Utf8),
///     Field::new("salary", LogicalType::Int64),
/// ]);
/// assert_eq!(schema.index_of("salary"), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name or the field list is empty.
    pub fn new(fields: Vec<Field>) -> Schema {
        assert!(!fields.is_empty(), "schema needs at least one field");
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            assert!(
                seen.insert(f.name.clone()),
                "duplicate column name {}",
                f.name
            );
        }
        Schema { fields }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Always false — schemas are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field with the given name.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NoSuchColumn`] if absent.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| FormatError::NoSuchColumn(name.to_string()))
    }

    /// Serializes the schema into `out` (footer encoding).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put::uvarint(out, self.fields.len() as u64);
        for f in &self.fields {
            put::string(out, &f.name);
            out.push(f.ty.tag());
        }
    }

    /// Parses a schema from a cursor (footer decoding).
    ///
    /// # Errors
    ///
    /// Fails on truncation or unknown type tags.
    pub fn decode(c: &mut Cursor<'_>) -> Result<Schema> {
        // Each field is at least a 4-byte name length and a type tag.
        let n = c.count(5)?;
        if n == 0 {
            return Err(FormatError::Corrupt("empty schema".into()));
        }
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let name = c.string()?;
            let ty = LogicalType::from_tag(c.u8()?)?;
            fields.push(Field { name, ty });
        }
        Ok(Schema { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", LogicalType::Int64),
            Field::new("price", LogicalType::Float64),
            Field::new("city", LogicalType::Utf8),
            Field::new("day", LogicalType::Date),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("city"), Some(2));
        assert_eq!(s.index_of("ghost"), None);
        assert_eq!(s.field("day").unwrap().ty, LogicalType::Date);
        assert!(matches!(
            s.field("ghost").unwrap_err(),
            FormatError::NoSuchColumn(_)
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let got = Schema::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = Vec::new();
        put::uvarint(&mut buf, 1);
        put::string(&mut buf, "x");
        buf.push(99);
        assert!(Schema::decode(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_panic() {
        Schema::new(vec![
            Field::new("a", LogicalType::Int64),
            Field::new("a", LogicalType::Utf8),
        ]);
    }

    #[test]
    fn type_names() {
        assert_eq!(LogicalType::Int64.to_string(), "int64");
        assert_eq!(LogicalType::Date.to_string(), "date");
    }
}
