//! Plain (uncompressed, type-native) encoding: the fallback when
//! dictionary encoding would not pay off, and the definition of a chunk's
//! "uncompressed size" for compressibility estimates.

use crate::error::{FormatError, Result};
use crate::util::{put, Cursor};
use crate::value::ColumnData;

/// Encodes a column with plain encoding, appending to `out`.
///
/// * `Int64`/`Date`: 8-byte little-endian values.
/// * `Float64`: 8-byte IEEE bit patterns.
/// * `Utf8`: u32 length prefix + bytes per value.
pub fn encode(col: &ColumnData, out: &mut Vec<u8>) {
    match col {
        ColumnData::Int64(v) => {
            for &x in v {
                put::i64(out, x);
            }
        }
        ColumnData::Float64(v) => {
            for &x in v {
                put::f64(out, x);
            }
        }
        ColumnData::Utf8(v) => {
            for s in v {
                put::string(out, s);
            }
        }
    }
}

/// Physical shape a plain stream decodes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalType {
    /// 64-bit integers.
    Int64,
    /// 64-bit floats.
    Float64,
    /// Length-prefixed strings.
    Utf8,
}

/// Decodes `count` plain-encoded values of the given physical type.
/// Fixed-width values decode straight from the slice, 8 bytes apiece;
/// strings reserve no more entries than `input` has length prefixes for,
/// so a corrupt `count` cannot demand memory its bytes do not back.
///
/// # Errors
///
/// Fails on truncation or invalid UTF-8.
pub fn decode(input: &[u8], ty: PhysicalType, count: usize) -> Result<ColumnData> {
    Ok(match ty {
        PhysicalType::Int64 => {
            ColumnData::Int64(words(input, count)?.map(i64::from_le_bytes).collect())
        }
        PhysicalType::Float64 => ColumnData::Float64(
            words(input, count)?
                .map(|w| f64::from_bits(u64::from_le_bytes(w)))
                .collect(),
        ),
        PhysicalType::Utf8 => {
            let mut c = Cursor::new(input);
            let mut v = Vec::with_capacity(count.min(input.len() / 4));
            for _ in 0..count {
                v.push(c.string()?);
            }
            ColumnData::Utf8(v)
        }
    })
}

/// The first `count` 8-byte little-endian words of `input`.
fn words(input: &[u8], count: usize) -> Result<impl Iterator<Item = [u8; 8]> + '_> {
    let bytes = count
        .checked_mul(8)
        .and_then(|n| input.get(..n))
        .ok_or(FormatError::Truncated)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|w| w.try_into().expect("chunks_exact(8) yields 8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let col = ColumnData::Int64(vec![0, -1, i64::MAX, i64::MIN, 42]);
        let mut buf = Vec::new();
        encode(&col, &mut buf);
        assert_eq!(buf.len(), 40);
        assert_eq!(decode(&buf, PhysicalType::Int64, 5).unwrap(), col);
    }

    #[test]
    fn float_roundtrip() {
        let col = ColumnData::Float64(vec![0.0, -1.5, f64::MAX, f64::EPSILON]);
        let mut buf = Vec::new();
        encode(&col, &mut buf);
        assert_eq!(decode(&buf, PhysicalType::Float64, 4).unwrap(), col);
    }

    #[test]
    fn utf8_roundtrip() {
        let col = ColumnData::Utf8(vec!["".into(), "héllo".into(), "x".repeat(1000)]);
        let mut buf = Vec::new();
        encode(&col, &mut buf);
        assert_eq!(decode(&buf, PhysicalType::Utf8, 3).unwrap(), col);
    }

    #[test]
    fn truncation_is_error() {
        let col = ColumnData::Int64(vec![1, 2, 3]);
        let mut buf = Vec::new();
        encode(&col, &mut buf);
        assert_eq!(
            decode(&buf[..20], PhysicalType::Int64, 3).unwrap_err(),
            FormatError::Truncated
        );
        assert!(decode(&buf, PhysicalType::Float64, usize::MAX).is_err());
    }

    #[test]
    fn plain_size_matches_encoding() {
        for col in [
            ColumnData::Int64(vec![1, 2, 3]),
            ColumnData::Float64(vec![1.0]),
            ColumnData::Utf8(vec!["abc".into(), "de".into()]),
        ] {
            let mut buf = Vec::new();
            encode(&col, &mut buf);
            assert_eq!(buf.len(), col.plain_size());
        }
    }
}
