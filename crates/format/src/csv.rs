//! CSV import: turn comma-separated text into a typed [`Table`], either
//! against a declared schema or with type inference — how raw data enters
//! an analytics object store before it is written as a columnar file.
//!
//! Supports RFC-4180-style quoting (`"a,b"`, doubled quotes), headers,
//! `Int64`/`Float64`/`Utf8`/`Date` columns, and dates as `YYYY-MM-DD`.

use crate::error::{FormatError, Result};
use crate::schema::{Field, LogicalType, Schema};
use crate::table::Table;
use crate::value::ColumnData;

/// Splits one CSV record into fields, honoring quotes.
///
/// # Errors
///
/// Unterminated quotes.
fn split_record(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(FormatError::Corrupt(
            "unterminated quote in csv record".into(),
        ));
    }
    fields.push(cur);
    Ok(fields)
}

/// Parses `YYYY-MM-DD` into epoch days (duplicated from the SQL crate's
/// date module to keep the format crate dependency-free).
fn parse_date(s: &str) -> Option<i64> {
    let mut it = s.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let yy = if m <= 2 { y - 1 } else { y };
    let era = if yy >= 0 { yy } else { yy - 399 } / 400;
    let yoe = yy - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some(era * 146097 + doe - 719468)
}

/// Parses CSV text against a declared schema. The first record must be a
/// header naming every schema column (order defines the mapping).
///
/// # Errors
///
/// Header/schema mismatch, wrong field counts, or unparsable values.
///
/// # Examples
///
/// ```
/// use fusion_format::csv::parse_csv;
/// use fusion_format::schema::{Field, LogicalType, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("city", LogicalType::Utf8),
///     Field::new("pop", LogicalType::Int64),
/// ]);
/// let table = parse_csv("city,pop\n\"New York\",8336817\nOslo,697010\n", &schema)?;
/// assert_eq!(table.num_rows(), 2);
/// # Ok::<(), fusion_format::error::FormatError>(())
/// ```
pub fn parse_csv(text: &str, schema: &Schema) -> Result<Table> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| FormatError::Corrupt("empty csv".into()))?;
    let names = split_record(header)?;
    if names.len() != schema.len() {
        return Err(FormatError::Corrupt(format!(
            "header has {} fields, schema has {}",
            names.len(),
            schema.len()
        )));
    }
    for (name, field) in names.iter().zip(schema.fields()) {
        if name.trim() != field.name {
            return Err(FormatError::Corrupt(format!(
                "header column {:?} does not match schema column {:?}",
                name, field.name
            )));
        }
    }

    let mut builders: Vec<ColumnData> = schema
        .fields()
        .iter()
        .map(|f| ColumnData::with_capacity(f.ty, 0))
        .collect();

    for (lineno, line) in lines.enumerate() {
        let fields = split_record(line)?;
        if fields.len() != schema.len() {
            return Err(FormatError::Corrupt(format!(
                "record {} has {} fields, expected {}",
                lineno + 2,
                fields.len(),
                schema.len()
            )));
        }
        for ((raw, field), builder) in fields.iter().zip(schema.fields()).zip(&mut builders) {
            // RFC 4180: spaces are part of the field. Only the numeric
            // parsers tolerate surrounding whitespace.
            let bad = |what: &str| {
                FormatError::Corrupt(format!(
                    "record {}: {:?} is not a valid {what} for column {}",
                    lineno + 2,
                    raw,
                    field.name
                ))
            };
            match (field.ty, builder) {
                (LogicalType::Int64, ColumnData::Int64(v)) => {
                    v.push(raw.trim().parse().map_err(|_| bad("integer"))?);
                }
                (LogicalType::Date, ColumnData::Int64(v)) => {
                    v.push(parse_date(raw.trim()).ok_or_else(|| bad("date (YYYY-MM-DD)"))?);
                }
                (LogicalType::Float64, ColumnData::Float64(v)) => {
                    v.push(raw.trim().parse().map_err(|_| bad("number"))?);
                }
                (LogicalType::Utf8, ColumnData::Utf8(v)) => v.push(raw.clone()),
                _ => unreachable!("builders are constructed from the schema"),
            }
        }
    }
    Table::new(schema.clone(), builders)
}

/// Infers a schema from CSV text: a column is `Int64` if every value
/// parses as an integer, else `Date` if every value is `YYYY-MM-DD`, else
/// `Float64` if numeric, else `Utf8`.
///
/// # Errors
///
/// Empty input or ragged records.
pub fn infer_schema(text: &str) -> Result<Schema> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| FormatError::Corrupt("empty csv".into()))?;
    let names = split_record(header)?;
    let n = names.len();
    // Candidate flags per column.
    let mut can_int = vec![true; n];
    let mut can_float = vec![true; n];
    let mut can_date = vec![true; n];
    let mut saw_rows = false;
    for line in lines {
        let fields = split_record(line)?;
        if fields.len() != n {
            return Err(FormatError::Corrupt("ragged csv records".into()));
        }
        saw_rows = true;
        for (i, raw) in fields.iter().enumerate() {
            let raw = raw.trim();
            can_int[i] &= raw.parse::<i64>().is_ok();
            can_float[i] &= raw.parse::<f64>().is_ok();
            can_date[i] &= parse_date(raw).is_some();
        }
    }
    let fields = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ty = if saw_rows && can_int[i] {
                LogicalType::Int64
            } else if saw_rows && can_date[i] {
                LogicalType::Date
            } else if saw_rows && can_float[i] {
                LogicalType::Float64
            } else {
                LogicalType::Utf8
            };
            Field::new(name.trim(), ty)
        })
        .collect();
    Ok(Schema::new(fields))
}

/// One-call import: infer the schema, then parse.
///
/// # Errors
///
/// See [`infer_schema`] and [`parse_csv`].
pub fn import_csv(text: &str) -> Result<Table> {
    let schema = infer_schema(text)?;
    parse_csv(text, &schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    const SAMPLE: &str =
        "name,age,height,joined\nAlice,34,1.70,2020-01-15\n\"Bob, Jr.\",28,1.85,2021-06-01\n";

    #[test]
    fn declared_schema_parse() {
        let schema = Schema::new(vec![
            Field::new("name", LogicalType::Utf8),
            Field::new("age", LogicalType::Int64),
            Field::new("height", LogicalType::Float64),
            Field::new("joined", LogicalType::Date),
        ]);
        let t = parse_csv(SAMPLE, &schema).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(0).value(1), Value::Str("Bob, Jr.".into()));
        assert_eq!(t.column(1).value(0), Value::Int(34));
        assert_eq!(t.column(3).value(0), Value::Int(18276)); // 2020-01-15
    }

    #[test]
    fn inference() {
        let schema = infer_schema(SAMPLE).unwrap();
        let types: Vec<LogicalType> = schema.fields().iter().map(|f| f.ty).collect();
        assert_eq!(
            types,
            vec![
                LogicalType::Utf8,
                LogicalType::Int64,
                LogicalType::Float64,
                LogicalType::Date
            ]
        );
        let t = import_csv(SAMPLE).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(
            split_record(r#"a,"b,c","say ""hi""",d"#).unwrap(),
            vec!["a", "b,c", "say \"hi\"", "d"]
        );
        assert!(split_record(r#"a,"unterminated"#).is_err());
    }

    #[test]
    fn errors() {
        let schema = Schema::new(vec![Field::new("x", LogicalType::Int64)]);
        assert!(parse_csv("", &schema).is_err());
        assert!(parse_csv("y\n1\n", &schema).is_err()); // wrong header
        assert!(parse_csv("x\n1,2\n", &schema).is_err()); // ragged
        assert!(parse_csv("x\nnope\n", &schema).is_err()); // bad int
        assert!(parse_csv(
            "x\n2020-13-01\n",
            &Schema::new(vec![Field::new("x", LogicalType::Date)])
        )
        .is_err());
    }

    #[test]
    fn empty_body_infers_utf8() {
        let schema = infer_schema("a,b\n").unwrap();
        assert!(schema.fields().iter().all(|f| f.ty == LogicalType::Utf8));
    }

    #[test]
    fn roundtrips_into_analytics_file() {
        let t = import_csv(SAMPLE).unwrap();
        let bytes =
            crate::writer::write_table(&t, crate::writer::WriteOptions { rows_per_group: 1 })
                .unwrap();
        let reader = crate::reader::FileReader::open(&bytes).unwrap();
        assert_eq!(reader.read_table().unwrap(), t);
    }
}
