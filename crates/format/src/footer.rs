//! File footer: the self-describing metadata block at the end of every
//! analytics file.
//!
//! The footer is what makes file-format-aware coding possible: it records
//! the **byte extent of every column chunk** (offset + length), its value
//! count, its plain (uncompressed) size — used for compressibility
//! estimates — and min/max statistics used for chunk pruning.
//!
//! File layout:
//!
//! ```text
//! [row group 0 chunks][row group 1 chunks]...[footer bytes][footer_len: u32][magic "FUSF"]
//! ```

use crate::encoding::Encoding;
use crate::error::{FormatError, Result};
use crate::schema::Schema;
use crate::util::{put, Cursor};
use crate::value::Value;

/// Trailing magic bytes identifying a Fusion analytics file.
pub const MAGIC: &[u8; 4] = b"FUSF";

/// Footer metadata for one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Encoded length in bytes (the chunk's on-disk size).
    pub len: u64,
    /// Number of values.
    pub value_count: u64,
    /// Plain-encoding size: the "uncompressed size" for compressibility.
    pub plain_size: u64,
    /// Encoding used.
    pub encoding: Encoding,
    /// Minimum value, if any rows exist.
    pub min: Option<Value>,
    /// Maximum value, if any rows exist.
    pub max: Option<Value>,
}

impl ChunkMeta {
    /// The paper's *compressibility* for this chunk: `plain_size / len`.
    pub fn compressibility(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        self.plain_size as f64 / self.len as f64
    }
}

/// Footer metadata for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub row_count: u64,
    /// One entry per schema column, in order.
    pub chunks: Vec<ChunkMeta>,
}

/// Complete file metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Table schema.
    pub schema: Schema,
    /// Row groups in file order.
    pub row_groups: Vec<RowGroupMeta>,
}

impl FileMeta {
    /// Total number of column chunks.
    pub fn num_chunks(&self) -> usize {
        self.row_groups.iter().map(|rg| rg.chunks.len()).sum()
    }

    /// Total rows across all row groups.
    pub fn num_rows(&self) -> u64 {
        self.row_groups.iter().map(|rg| rg.row_count).sum()
    }

    /// Iterates `(row_group, column, &ChunkMeta)` in file order.
    pub fn chunks(&self) -> impl Iterator<Item = (usize, usize, &ChunkMeta)> {
        self.row_groups.iter().enumerate().flat_map(|(rg, g)| {
            g.chunks
                .iter()
                .enumerate()
                .map(move |(col, c)| (rg, col, c))
        })
    }

    /// The chunk metadata at `(row_group, column)`.
    ///
    /// # Errors
    ///
    /// Out-of-range indices yield [`FormatError::NoSuchRowGroup`] /
    /// [`FormatError::NoSuchColumn`].
    pub fn chunk(&self, row_group: usize, column: usize) -> Result<&ChunkMeta> {
        let rg = self
            .row_groups
            .get(row_group)
            .ok_or(FormatError::NoSuchRowGroup(row_group))?;
        rg.chunks
            .get(column)
            .ok_or_else(|| FormatError::NoSuchColumn(format!("column index {column}")))
    }

    /// Size in bytes of the data region (everything before the footer).
    pub fn data_len(&self) -> u64 {
        self.chunks()
            .map(|(_, _, c)| c.offset + c.len)
            .max()
            .unwrap_or(0)
    }

    /// Serializes the footer body (without trailer length/magic).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.schema.encode(&mut out);
        put::uvarint(&mut out, self.row_groups.len() as u64);
        for rg in &self.row_groups {
            put::uvarint(&mut out, rg.row_count);
            put::uvarint(&mut out, rg.chunks.len() as u64);
            for c in &rg.chunks {
                put::uvarint(&mut out, c.offset);
                put::uvarint(&mut out, c.len);
                put::uvarint(&mut out, c.value_count);
                put::uvarint(&mut out, c.plain_size);
                out.push(c.encoding.tag());
                encode_opt_value(&mut out, &c.min);
                encode_opt_value(&mut out, &c.max);
            }
        }
        out
    }

    /// Parses a footer body.
    ///
    /// # Errors
    ///
    /// Fails on truncation or structural corruption.
    pub fn decode(bytes: &[u8]) -> Result<FileMeta> {
        let mut c = Cursor::new(bytes);
        let schema = Schema::decode(&mut c)?;
        // Counts reserve only what their bytes can back: a row group is at
        // least its two count varints, a chunk its four varints and three
        // tags.
        const MIN_CHUNK_BYTES: usize = 7;
        let n_rg = c.count(2 + MIN_CHUNK_BYTES * schema.len())?;
        let mut row_groups = Vec::with_capacity(n_rg);
        for _ in 0..n_rg {
            let row_count = c.uvarint()?;
            let n_chunks = c.count(MIN_CHUNK_BYTES)?;
            if n_chunks != schema.len() {
                return Err(FormatError::Corrupt(format!(
                    "row group has {n_chunks} chunks for a {}-column schema",
                    schema.len()
                )));
            }
            let mut chunks = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                let offset = c.uvarint()?;
                let len = c.uvarint()?;
                let value_count = c.uvarint()?;
                let plain_size = c.uvarint()?;
                let encoding = Encoding::from_tag(c.u8()?)
                    .ok_or_else(|| FormatError::Corrupt("bad encoding tag".into()))?;
                let min = decode_opt_value(&mut c)?;
                let max = decode_opt_value(&mut c)?;
                chunks.push(ChunkMeta {
                    offset,
                    len,
                    value_count,
                    plain_size,
                    encoding,
                    min,
                    max,
                });
            }
            row_groups.push(RowGroupMeta { row_count, chunks });
        }
        Ok(FileMeta { schema, row_groups })
    }
}

fn encode_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(0),
        Some(Value::Int(x)) => {
            out.push(1);
            put::i64(out, *x);
        }
        Some(Value::Float(x)) => {
            out.push(2);
            put::f64(out, *x);
        }
        Some(Value::Str(s)) => {
            out.push(3);
            put::string(out, s);
        }
    }
}

fn decode_opt_value(c: &mut Cursor<'_>) -> Result<Option<Value>> {
    Ok(match c.u8()? {
        0 => None,
        1 => Some(Value::Int(c.i64()?)),
        2 => Some(Value::Float(c.f64()?)),
        3 => Some(Value::Str(c.string()?)),
        t => return Err(FormatError::Corrupt(format!("bad value tag {t}"))),
    })
}

/// Appends the footer (body + length + magic) to a file body.
pub fn append_footer(file: &mut Vec<u8>, meta: &FileMeta) {
    let body = meta.encode();
    file.extend_from_slice(&body);
    put::u32(file, body.len() as u32);
    file.extend_from_slice(MAGIC);
}

/// Extracts and parses the footer from complete file bytes.
///
/// # Errors
///
/// Fails when the file is truncated, the magic is wrong, or the metadata
/// is corrupt.
pub fn parse_footer(file: &[u8]) -> Result<FileMeta> {
    if file.len() < 8 {
        return Err(FormatError::Truncated);
    }
    let magic = &file[file.len() - 4..];
    if magic != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let len_pos = file.len() - 8;
    let body_len =
        u32::from_le_bytes(file[len_pos..len_pos + 4].try_into().expect("4 bytes")) as usize;
    if body_len > len_pos {
        return Err(FormatError::Truncated);
    }
    FileMeta::decode(&file[len_pos - body_len..len_pos])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, LogicalType};

    fn sample_meta() -> FileMeta {
        let schema = Schema::new(vec![
            Field::new("k", LogicalType::Int64),
            Field::new("s", LogicalType::Utf8),
        ]);
        FileMeta {
            schema,
            row_groups: vec![
                RowGroupMeta {
                    row_count: 100,
                    chunks: vec![
                        ChunkMeta {
                            offset: 0,
                            len: 800,
                            value_count: 100,
                            plain_size: 800,
                            encoding: Encoding::Plain,
                            min: Some(Value::Int(1)),
                            max: Some(Value::Int(100)),
                        },
                        ChunkMeta {
                            offset: 800,
                            len: 60,
                            value_count: 100,
                            plain_size: 700,
                            encoding: Encoding::Dictionary,
                            min: Some(Value::Str("a".into())),
                            max: Some(Value::Str("z".into())),
                        },
                    ],
                },
                RowGroupMeta {
                    row_count: 50,
                    chunks: vec![
                        ChunkMeta {
                            offset: 860,
                            len: 400,
                            value_count: 50,
                            plain_size: 400,
                            encoding: Encoding::Plain,
                            min: None,
                            max: None,
                        },
                        ChunkMeta {
                            offset: 1260,
                            len: 30,
                            value_count: 50,
                            plain_size: 350,
                            encoding: Encoding::Dictionary,
                            min: Some(Value::Float(0.5)),
                            max: Some(Value::Float(9.5)),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let meta = sample_meta();
        let bytes = meta.encode();
        assert_eq!(FileMeta::decode(&bytes).unwrap(), meta);
    }

    #[test]
    fn footer_roundtrip_through_file() {
        let meta = sample_meta();
        let mut file = vec![0xEE; 1290]; // fake data region
        append_footer(&mut file, &meta);
        assert_eq!(parse_footer(&file).unwrap(), meta);
    }

    #[test]
    fn accessors() {
        let meta = sample_meta();
        assert_eq!(meta.num_chunks(), 4);
        assert_eq!(meta.num_rows(), 150);
        assert_eq!(meta.data_len(), 1290);
        assert_eq!(meta.chunk(1, 1).unwrap().len, 30);
        assert!(meta.chunk(2, 0).is_err());
        assert!(meta.chunk(0, 5).is_err());
        let all: Vec<_> = meta.chunks().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].0, 1);
        assert_eq!(all[3].1, 1);
    }

    #[test]
    fn compressibility() {
        let meta = sample_meta();
        let c = meta.chunk(0, 1).unwrap();
        assert!((c.compressibility() - 700.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn bad_magic() {
        let mut file = vec![0u8; 100];
        file.extend_from_slice(&12u32.to_le_bytes());
        file.extend_from_slice(b"NOPE");
        assert_eq!(parse_footer(&file).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn truncated_footer() {
        assert_eq!(
            parse_footer(&[1, 2, 3]).unwrap_err(),
            FormatError::Truncated
        );
        let mut file = vec![0u8; 4];
        file.extend_from_slice(&999u32.to_le_bytes());
        file.extend_from_slice(MAGIC);
        assert_eq!(parse_footer(&file).unwrap_err(), FormatError::Truncated);
    }
}
