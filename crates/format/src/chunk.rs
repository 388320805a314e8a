//! Column-chunk encoding and decoding.
//!
//! A column chunk is the **smallest computable unit** of the format (paper
//! §2): a self-contained byte range holding every value of one column
//! within one row group, together with the dictionary needed to decode it.
//! Chunks are what FAC refuses to split across erasure-code blocks and what
//! pushdown executes on.
//!
//! On-disk layout of a chunk:
//!
//! ```text
//! [encoding: u8]
//! (Dictionary only) [dict page]
//! [data page]
//! page := [compressed_len: u32][uncompressed_len: u32][count: u32][crc32: u32][bytes]
//! ```
//!
//! Page bytes are Snappy-compressed encodings; `crc32` covers the
//! compressed bytes.

use crate::encoding::bitpack::{self, Code};
use crate::encoding::rle::Run;
use crate::encoding::{dict, plain, rle, Encoding};
use crate::error::{FormatError, Result};
use crate::schema::LogicalType;
use crate::util::{crc32, put, Cursor};
use crate::value::{ColumnData, Value};

/// Maximum distinct values before dictionary encoding is abandoned,
/// mirroring Parquet's bounded dictionary pages.
pub const MAX_DICT_DISTINCT: usize = 1 << 16;

/// Statistics captured while encoding a chunk, destined for the footer.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Number of values.
    pub value_count: u64,
    /// Size under plain encoding (the "uncompressed size" used for
    /// compressibility).
    pub plain_size: u64,
    /// Encoded, compressed on-disk size.
    pub encoded_size: u64,
    /// Encoding actually chosen.
    pub encoding: Encoding,
    /// Minimum value, if the chunk is nonempty.
    pub min: Option<Value>,
    /// Maximum value, if the chunk is nonempty.
    pub max: Option<Value>,
}

impl ChunkStats {
    /// The paper's *compressibility*: uncompressed size / compressed size.
    pub fn compressibility(&self) -> f64 {
        if self.encoded_size == 0 {
            return 1.0;
        }
        self.plain_size as f64 / self.encoded_size as f64
    }
}

/// Encodes a column into chunk bytes, choosing the smaller of dictionary
/// and plain encoding (both Snappy-compressed).
pub fn encode_column_chunk(col: &ColumnData) -> (Vec<u8>, ChunkStats) {
    let plain_bytes = {
        let mut enc = Vec::new();
        plain::encode(col, &mut enc);
        enc
    };
    let plain_size = plain_bytes.len() as u64;

    // Candidate 1: plain + snappy.
    let plain_page = fusion_snappy::compress(&plain_bytes);

    // Candidate 2: dictionary + snappy, when cardinality allows.
    let dict_candidate = dict::build(col, MAX_DICT_DISTINCT).map(|enc| {
        let mut dict_bytes = Vec::new();
        dict::encode_dictionary(&enc, &mut dict_bytes);
        let mut idx_bytes = Vec::new();
        dict::encode_indices(&enc, &mut idx_bytes);
        (
            fusion_snappy::compress(&dict_bytes),
            dict_bytes.len(),
            enc.dictionary.len(),
            fusion_snappy::compress(&idx_bytes),
            idx_bytes.len(),
        )
    });

    let (min, max) = match col.min_max() {
        Some((mn, mx)) => (Some(mn), Some(mx)),
        None => (None, None),
    };

    let mut out = Vec::new();
    let encoding;
    match dict_candidate {
        Some((dict_page, dict_unc, dict_count, idx_page, idx_unc))
            if dict_page.len() + idx_page.len() + 16 < plain_page.len() =>
        {
            encoding = Encoding::Dictionary;
            out.push(encoding.tag());
            write_page(&mut out, &dict_page, dict_unc, dict_count);
            write_page(&mut out, &idx_page, idx_unc, col.len());
        }
        _ => {
            encoding = Encoding::Plain;
            out.push(encoding.tag());
            write_page(&mut out, &plain_page, plain_bytes.len(), col.len());
        }
    }

    let stats = ChunkStats {
        value_count: col.len() as u64,
        plain_size,
        encoded_size: out.len() as u64,
        encoding,
        min,
        max,
    };
    (out, stats)
}

fn write_page(out: &mut Vec<u8>, compressed: &[u8], uncompressed_len: usize, count: usize) {
    put::u32(out, compressed.len() as u32);
    put::u32(out, uncompressed_len as u32);
    put::u32(out, count as u32);
    put::u32(out, crc32(compressed));
    out.extend_from_slice(compressed);
}

struct Page<'a> {
    bytes: &'a [u8],
    uncompressed_len: usize,
    count: usize,
}

fn read_page<'a>(c: &mut Cursor<'a>) -> Result<Page<'a>> {
    let clen = c.u32()? as usize;
    let ulen = c.u32()? as usize;
    let count = c.u32()? as usize;
    let crc = c.u32()?;
    let bytes = c.bytes(clen)?;
    if crc32(bytes) != crc {
        // Row group / column filled in by the caller's context; chunk-level
        // decode doesn't know them, so report 0/0 here.
        return Err(FormatError::ChecksumMismatch {
            row_group: 0,
            column: 0,
        });
    }
    Ok(Page {
        bytes,
        uncompressed_len: ulen,
        count,
    })
}

fn read_encoding(c: &mut Cursor<'_>) -> Result<Encoding> {
    Encoding::from_tag(c.u8()?).ok_or_else(|| FormatError::Corrupt("unknown encoding tag".into()))
}

/// The compressed bytes of each page of a chunk, in file order (a
/// dictionary chunk's dictionary page, then its index page), each checked
/// against its CRC: the Snappy streams a cache-cold read decodes.
///
/// # Errors
///
/// Fails on an unknown encoding tag, a truncated page, or a checksum
/// mismatch.
pub fn pages(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let mut c = Cursor::new(bytes);
    let n = match read_encoding(&mut c)? {
        Encoding::Plain => 1,
        Encoding::Dictionary => 2,
    };
    (0..n).map(|_| Ok(read_page(&mut c)?.bytes)).collect()
}

fn physical(ty: LogicalType) -> plain::PhysicalType {
    match ty {
        LogicalType::Int64 | LogicalType::Date => plain::PhysicalType::Int64,
        LogicalType::Float64 => plain::PhysicalType::Float64,
        LogicalType::Utf8 => plain::PhysicalType::Utf8,
    }
}

/// Reusable page-decompression scratch.
///
/// Page decode is the hottest allocation site on the read path: every
/// chunk-cache miss used to allocate one `Vec` per page just to hold the
/// decompressed bytes between Snappy and the typed decoder. The
/// thread-local `PageScratch` used by [`decode_column_chunk`] /
/// [`read_encoded_chunk`] owns that buffer instead, so a thread that
/// decodes pages in a loop reaches steady state with **zero** transient
/// page allocations.
///
/// One buffer suffices for dictionary chunks because the dictionary page
/// is fully decoded into an owned [`ColumnData`] before the index page is
/// decompressed into the same buffer.
#[derive(Default)]
struct PageScratch {
    buf: Vec<u8>,
}

impl PageScratch {
    /// Decompresses `page` into the scratch buffer and returns the bytes.
    fn page<'a>(&'a mut self, page: &Page<'_>) -> Result<&'a [u8]> {
        fusion_snappy::decompress_into(page.bytes, &mut self.buf)?;
        Ok(&self.buf)
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<PageScratch> =
        std::cell::RefCell::new(PageScratch::default());
}

/// Decodes chunk bytes back into a column using a thread-local page
/// scratch buffer, so repeated decodes on one thread do not allocate
/// transient page buffers.
///
/// # Errors
///
/// Fails on corruption, checksum mismatch, or type inconsistencies.
pub fn decode_column_chunk(bytes: &[u8], ty: LogicalType) -> Result<ColumnData> {
    match read_encoded_chunk(bytes, ty)? {
        EncodedChunk::Plain(col) => Ok(col),
        view => view.decode(),
    }
}

/// A parsed-but-not-materialized view of a chunk: dictionary page decoded,
/// code stream kept as runs. This is what the encoded-domain scan kernels
/// in `fusion-sql` consume — a dictionary predicate is evaluated once per
/// dictionary entry and an RLE run once per run, never once per row.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedChunk {
    /// Plain-encoded chunks have no encoded domain to exploit; the column
    /// is materialized and scanned with word-batched typed loops.
    Plain(ColumnData),
    /// Dictionary-encoded chunk: decoded dictionary plus the index stream
    /// as run descriptors over one flat buffer of literal codes.
    Dictionary {
        /// Distinct values, indexed by code.
        dictionary: ColumnData,
        /// Every literal span's codes, back to back in row order.
        codes: Codes,
        /// The code stream as RLE runs and literal spans of `codes`,
        /// covering `rows` values. A parsed view keeps an RLE run only
        /// when it fills at least one bitmap word
        /// ([`rle::FOLD_BELOW`] rows); shorter ones are literal codes,
        /// merged with the spans beside them.
        runs: Vec<Run>,
        /// Total row count.
        rows: usize,
        /// The index stream's share of [`EncodedChunk::weight_bytes`],
        /// counted on the runs the stream itself holds, before folding.
        stream_weight: usize,
    },
}

/// A dictionary view's literal codes, at the narrowest width that holds
/// every code of its dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codes {
    /// One byte per code: a dictionary of at most 256 entries.
    U8(Vec<u8>),
    /// Two bytes per code: at most [`MAX_DICT_DISTINCT`] entries.
    U16(Vec<u16>),
}

/// Cache weight of one run descriptor: `size_of::<Run>()` when each
/// literal run owned its own `Vec`. Pinned so the chunk cache admits and
/// evicts exactly as it did then.
const RUN_WEIGHT: usize = 24;

/// Cache weight of one literal code: its size when codes were `u32`.
const CODE_WEIGHT: usize = 4;

impl EncodedChunk {
    /// Number of rows the chunk covers.
    pub fn rows(&self) -> usize {
        match self {
            EncodedChunk::Plain(col) => col.len(),
            EncodedChunk::Dictionary { rows, .. } => *rows,
        }
    }

    /// The chunk's physical encoding.
    pub fn encoding(&self) -> Encoding {
        match self {
            EncodedChunk::Plain(_) => Encoding::Plain,
            EncodedChunk::Dictionary { .. } => Encoding::Dictionary,
        }
    }

    /// Fully materializes the column, equivalent to
    /// [`decode_column_chunk`] on the original bytes: each RLE run
    /// repeats its dictionary value, each literal span gathers straight
    /// from `codes`.
    ///
    /// # Errors
    ///
    /// Fails if a dictionary code is out of range or a literal span lies
    /// outside `codes` (cannot happen for views produced by
    /// [`read_encoded_chunk`], which validates codes up front).
    pub fn decode(&self) -> Result<ColumnData> {
        match self {
            EncodedChunk::Plain(col) => Ok(col.clone()),
            EncodedChunk::Dictionary {
                dictionary,
                codes: Codes::U8(codes),
                runs,
                rows,
                ..
            } => gather_column(dictionary, codes, runs, *rows),
            EncodedChunk::Dictionary {
                dictionary,
                codes: Codes::U16(codes),
                runs,
                rows,
                ..
            } => gather_column(dictionary, codes, runs, *rows),
        }
    }

    /// Approximate resident size in bytes, used for cache accounting:
    /// the dictionary's plain size, plus 24 bytes per run and 4 per
    /// literal code of the index stream as written
    /// (`stream_weight`), whatever width and runs the view keeps.
    pub fn weight_bytes(&self) -> usize {
        match self {
            EncodedChunk::Plain(col) => col.plain_size(),
            EncodedChunk::Dictionary {
                dictionary,
                stream_weight,
                ..
            } => dictionary.plain_size() + stream_weight,
        }
    }
}

/// The column a dictionary view's runs describe.
fn gather_column<C: Code>(
    dictionary: &ColumnData,
    codes: &[C],
    runs: &[Run],
    rows: usize,
) -> Result<ColumnData> {
    Ok(match dictionary {
        ColumnData::Int64(d) => ColumnData::Int64(gather_runs(d, codes, runs, rows)?),
        ColumnData::Float64(d) => ColumnData::Float64(gather_runs(d, codes, runs, rows)?),
        ColumnData::Utf8(d) => ColumnData::Utf8(gather_runs(d, codes, runs, rows)?),
    })
}

/// The values of a dictionary view in row order.
fn gather_runs<T: Clone, C: Code>(
    dict: &[T],
    codes: &[C],
    runs: &[Run],
    rows: usize,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(rows);
    for &run in runs {
        match run {
            Run::Rle { value, len } => {
                check_codes(Some(value as usize), dict.len())?;
                out.extend(std::iter::repeat_n(&dict[value as usize], len).cloned());
            }
            Run::Literal { start, len } => {
                let span = literal_span(codes, start, len)?;
                check_codes(span.iter().copied().max().map(C::index), dict.len())?;
                out.extend(span.iter().map(|&c| dict[c.index()].clone()));
            }
        }
    }
    Ok(out)
}

/// `codes[start..start + len]`, or an error if the span is out of range.
fn literal_span<C>(codes: &[C], start: usize, len: usize) -> Result<&[C]> {
    codes
        .get(start..)
        .and_then(|c| c.get(..len))
        .ok_or_else(|| FormatError::Corrupt("literal span outside the code buffer".into()))
}

/// Rejects a maximum code that does not index a `dict_len`-entry
/// dictionary (`None`: no codes).
fn check_codes(max_code: Option<usize>, dict_len: usize) -> Result<()> {
    match max_code {
        Some(code) if code >= dict_len => Err(FormatError::Corrupt(format!(
            "dictionary code {code} out of range ({dict_len} entries)"
        ))),
        _ => Ok(()),
    }
}

/// Parses chunk bytes into an [`EncodedChunk`] view: pages are checksummed
/// and decompressed, the dictionary is decoded, but the code stream keeps
/// its run structure and rows are never materialized. Literal codes are
/// stored at the narrowest width their dictionary allows ([`Codes`]), and
/// RLE runs shorter than a bitmap word are folded into them. Every code
/// is validated against the dictionary length here, so scan kernels can
/// index the predicate mask unchecked.
///
/// Uses a thread-local page scratch buffer, so a chunk-cache miss
/// performs zero transient page allocations in steady state.
///
/// # Errors
///
/// Fails on corruption, checksum mismatch, a dictionary of more than
/// [`MAX_DICT_DISTINCT`] entries, an index stream wider than its
/// dictionary needs, or out-of-range codes.
pub fn read_encoded_chunk(bytes: &[u8], ty: LogicalType) -> Result<EncodedChunk> {
    SCRATCH.with(|s| read_encoded_chunk_with(bytes, ty, &mut s.borrow_mut()))
}

/// [`read_encoded_chunk`] over an explicit scratch buffer.
fn read_encoded_chunk_with(
    bytes: &[u8],
    ty: LogicalType,
    scratch: &mut PageScratch,
) -> Result<EncodedChunk> {
    let mut c = Cursor::new(bytes);
    match read_encoding(&mut c)? {
        Encoding::Plain => {
            let page = read_page(&mut c)?;
            let raw = scratch.page(&page)?;
            if raw.len() != page.uncompressed_len {
                return Err(FormatError::Corrupt("page length mismatch".into()));
            }
            Ok(EncodedChunk::Plain(plain::decode(
                raw,
                physical(ty),
                page.count,
            )?))
        }
        Encoding::Dictionary => {
            let dict_page = read_page(&mut c)?;
            if dict_page.count > MAX_DICT_DISTINCT {
                return Err(FormatError::Corrupt(format!(
                    "dictionary of {} entries (at most {MAX_DICT_DISTINCT})",
                    dict_page.count
                )));
            }
            let dictionary =
                plain::decode(scratch.page(&dict_page)?, physical(ty), dict_page.count)?;
            let idx_page = read_page(&mut c)?;
            let raw = scratch.page(&idx_page)?;
            let dict_len = dictionary.len();
            let (codes, runs, stream_weight) = if dict_len <= 1 << u8::BITS {
                let (codes, runs, weight) = parse_index::<u8>(raw, idx_page.count, dict_len)?;
                (Codes::U8(codes), runs, weight)
            } else {
                let (codes, runs, weight) = parse_index::<u16>(raw, idx_page.count, dict_len)?;
                (Codes::U16(codes), runs, weight)
            };
            Ok(EncodedChunk::Dictionary {
                dictionary,
                codes,
                runs,
                rows: idx_page.count,
                stream_weight,
            })
        }
    }
}

/// Parses a `dict_len`-entry dictionary's index stream of `count` codes
/// into `C` literal codes and folded runs ([`rle::decode_runs`]), plus
/// the stream's weight, after checking every code against the
/// dictionary: one pass over the literal buffer (`max` vectorizes) and
/// each RLE run's one value. The stream may be no wider than the
/// dictionary's largest code.
fn parse_index<C: Code>(
    raw: &[u8],
    count: usize,
    dict_len: usize,
) -> Result<(Vec<C>, Vec<Run>, usize)> {
    let width = bitpack::bit_width(dict_len.saturating_sub(1) as u32);
    let rle::Runs {
        runs,
        codes,
        stream_runs,
        stream_literals,
    } = rle::decode_runs::<C>(raw, count, width)?;
    check_codes(codes.iter().copied().max().map(C::index), dict_len)?;
    for run in &runs {
        if let Run::Rle { value, .. } = *run {
            check_codes(Some(value as usize), dict_len)?;
        }
    }
    let stream_weight = RUN_WEIGHT * stream_runs + CODE_WEIGHT * stream_literals;
    Ok((codes, runs, stream_weight))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_cardinality_picks_dictionary() {
        let col = ColumnData::Utf8(
            (0..10_000)
                .map(|i| ["AIR", "RAIL", "SHIP", "TRUCK"][i % 4].to_string())
                .collect(),
        );
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.encoding, Encoding::Dictionary);
        assert!(
            stats.compressibility() > 5.0,
            "got {}",
            stats.compressibility()
        );
        assert_eq!(decode_column_chunk(&bytes, LogicalType::Utf8).unwrap(), col);
    }

    #[test]
    fn high_cardinality_strings_stay_plain_or_dict_but_roundtrip() {
        let col = ColumnData::Utf8((0..5_000).map(|i| format!("unique-string-{i}")).collect());
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(decode_column_chunk(&bytes, LogicalType::Utf8).unwrap(), col);
        assert_eq!(stats.value_count, 5000);
    }

    #[test]
    fn int_roundtrip_with_stats() {
        let col = ColumnData::Int64((0..1000).map(|i| i % 7).collect());
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.min, Some(Value::Int(0)));
        assert_eq!(stats.max, Some(Value::Int(6)));
        assert_eq!(stats.plain_size, 8000);
        assert_eq!(
            decode_column_chunk(&bytes, LogicalType::Int64).unwrap(),
            col
        );
    }

    #[test]
    fn float_roundtrip() {
        let col = ColumnData::Float64((0..500).map(|i| (i as f64) * 0.01).collect());
        let (bytes, _) = encode_column_chunk(&col);
        assert_eq!(
            decode_column_chunk(&bytes, LogicalType::Float64).unwrap(),
            col
        );
    }

    #[test]
    fn date_uses_int_physical() {
        let col = ColumnData::Int64(vec![19000, 19001, 19002]);
        let (bytes, _) = encode_column_chunk(&col);
        assert_eq!(decode_column_chunk(&bytes, LogicalType::Date).unwrap(), col);
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let col = ColumnData::Int64(vec![]);
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.value_count, 0);
        assert_eq!(stats.min, None);
        assert_eq!(
            decode_column_chunk(&bytes, LogicalType::Int64).unwrap(),
            col
        );
    }

    #[test]
    fn corruption_detected_by_crc() {
        let col = ColumnData::Int64((0..100).collect());
        let (mut bytes, _) = encode_column_chunk(&col);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(decode_column_chunk(&bytes, LogicalType::Int64).is_err());
    }

    #[test]
    fn truncation_detected() {
        let col = ColumnData::Int64((0..100).collect());
        let (bytes, _) = encode_column_chunk(&col);
        assert!(decode_column_chunk(&bytes[..bytes.len() / 2], LogicalType::Int64).is_err());
    }

    #[test]
    fn compressibility_definition() {
        let stats = ChunkStats {
            value_count: 10,
            plain_size: 1000,
            encoded_size: 100,
            encoding: Encoding::Plain,
            min: None,
            max: None,
        };
        assert_eq!(stats.compressibility(), 10.0);
    }

    #[test]
    fn encoded_view_matches_full_decode() {
        // Dictionary case with long runs and literals.
        let col = ColumnData::Utf8(
            (0..10_000)
                .map(|i| {
                    if i < 5000 {
                        "RAIL".to_string()
                    } else {
                        ["AIR", "SHIP", "TRUCK"][i % 3].to_string()
                    }
                })
                .collect(),
        );
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.encoding, Encoding::Dictionary);
        let view = read_encoded_chunk(&bytes, LogicalType::Utf8).unwrap();
        assert_eq!(view.encoding(), Encoding::Dictionary);
        assert_eq!(view.rows(), 10_000);
        assert!(view.weight_bytes() > 0);
        assert_eq!(view.decode().unwrap(), col);
        match &view {
            EncodedChunk::Dictionary {
                dictionary, runs, ..
            } => {
                assert_eq!(dictionary.len(), 4);
                assert!(
                    runs.iter()
                        .any(|r| matches!(r, Run::Rle { len, .. } if *len >= 5000)),
                    "sorted half should survive as one long run"
                );
            }
            EncodedChunk::Plain(_) => panic!("expected dictionary view"),
        }

        // Plain case: unique ints defeat the dictionary.
        let col = ColumnData::Int64((0..200_000).map(|i| i * 7919 % 1_000_003).collect());
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.encoding, Encoding::Plain);
        let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
        assert_eq!(view.encoding(), Encoding::Plain);
        assert_eq!(view.rows(), 200_000);
        assert_eq!(view.decode().unwrap(), col);
    }

    #[test]
    fn views_fold_sub_word_runs_into_merged_literal_spans() {
        // Stream: literal 0..10, 63 x 5, literal 0..10, 64 x 7, literal
        // 0..10. The 63-row run fills no bitmap word, so it joins both
        // literal spans beside it; the 64-row run stays a run.
        let cycle = || (0..10i64).collect::<Vec<_>>();
        let mut vals = cycle();
        vals.extend([5; 63]);
        vals.extend(cycle());
        vals.extend([7; 64]);
        vals.extend(cycle());
        let col = ColumnData::Int64(vals);
        let (bytes, stats) = encode_column_chunk(&col);
        assert_eq!(stats.encoding, Encoding::Dictionary);
        let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
        let EncodedChunk::Dictionary {
            dictionary,
            codes: Codes::U8(codes),
            runs,
            ..
        } = &view
        else {
            panic!("expected a u8 dictionary view, got {view:?}");
        };
        assert_eq!(
            *runs,
            vec![
                Run::Literal { start: 0, len: 83 },
                Run::Rle { value: 7, len: 64 },
                Run::Literal { start: 83, len: 10 },
            ]
        );
        assert_eq!(codes.len(), 93);
        assert_eq!(&codes[10..73], &[5; 63][..]);
        assert_eq!(view.decode().unwrap(), col);
        // The weight still counts the stream's five runs and 30 packed
        // literal codes.
        assert_eq!(
            view.weight_bytes(),
            dictionary.plain_size() + 5 * RUN_WEIGHT + 30 * CODE_WEIGHT
        );

        // A sorted 5,000-row half survives as one run beside u8 literals.
        let col = ColumnData::Utf8(
            (0..10_000)
                .map(|i| {
                    if i < 5000 {
                        "RAIL".to_string()
                    } else {
                        ["AIR", "SHIP", "TRUCK"][i % 3].to_string()
                    }
                })
                .collect(),
        );
        let (bytes, _) = encode_column_chunk(&col);
        let view = read_encoded_chunk(&bytes, LogicalType::Utf8).unwrap();
        let EncodedChunk::Dictionary {
            codes: Codes::U8(codes),
            runs,
            ..
        } = &view
        else {
            panic!("expected a u8 dictionary view, got {view:?}");
        };
        assert_eq!(
            *runs,
            vec![
                Run::Rle {
                    value: 0,
                    len: 5000
                },
                Run::Literal {
                    start: 0,
                    len: 5000
                },
            ]
        );
        assert_eq!(codes.len(), 5000);
    }

    #[test]
    fn code_width_follows_the_dictionary_size() {
        // 256 entries fit u8 codes; 257 take u16.
        for (distinct, wide) in [(255, false), (256, false), (257, true), (3000, true)] {
            // Every value once, then pseudo-random draws: plain pages
            // barely compress, so the writer keeps the dictionary.
            let draws = (0..8 * distinct as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as i64 % distinct);
            let col = ColumnData::Int64(
                (0..distinct)
                    .chain(draws)
                    .map(|v| v.wrapping_mul(0x5851_F42D_4C95_7F2D))
                    .collect(),
            );
            let (bytes, stats) = encode_column_chunk(&col);
            assert_eq!(stats.encoding, Encoding::Dictionary, "{distinct}");
            let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
            let EncodedChunk::Dictionary { codes, .. } = &view else {
                panic!("expected a dictionary view");
            };
            assert_eq!(matches!(codes, Codes::U16(_)), wide, "{distinct}");
            assert_eq!(view.decode().unwrap(), col, "{distinct}");
        }
    }

    #[test]
    fn encoded_view_detects_corruption() {
        let col = ColumnData::Utf8((0..1000).map(|i| format!("v{}", i % 3)).collect());
        let (mut bytes, _) = encode_column_chunk(&col);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(read_encoded_chunk(&bytes, LogicalType::Utf8).is_err());
        assert!(read_encoded_chunk(&bytes[..4], LogicalType::Utf8).is_err());
    }

    #[test]
    fn thread_local_scratch_decodes_and_reuses() {
        let dict_col = ColumnData::Utf8(
            (0..10_000)
                .map(|i| ["AIR", "RAIL", "SHIP", "TRUCK"][i % 4].to_string())
                .collect(),
        );
        let plain_col = ColumnData::Int64((0..50_000).map(|i| i * 7919 % 1_000_003).collect());
        for (col, ty) in [
            (&dict_col, LogicalType::Utf8),
            (&plain_col, LogicalType::Int64),
        ] {
            let (bytes, _) = encode_column_chunk(col);
            assert_eq!(decode_column_chunk(&bytes, ty).unwrap(), *col);
            assert_eq!(
                read_encoded_chunk(&bytes, ty).unwrap().decode().unwrap(),
                *col
            );
        }
        // The scratch buffer has grown to the largest page; decoding the
        // small chunk again must not reallocate.
        let capacity = || SCRATCH.with(|s| s.borrow().buf.capacity());
        let cap = capacity();
        assert!(cap > 0, "the thread-local scratch holds the last page");
        let (bytes, _) = encode_column_chunk(&dict_col);
        decode_column_chunk(&bytes, LogicalType::Utf8).unwrap();
        read_encoded_chunk(&bytes, LogicalType::Utf8).unwrap();
        assert_eq!(capacity(), cap);
    }

    #[test]
    fn repeated_ints_compress_hard() {
        // Like `linestatus`: a couple of distinct values over many rows.
        let col = ColumnData::Int64((0..100_000).map(|i| i % 2).collect());
        let (_, stats) = encode_column_chunk(&col);
        assert!(
            stats.compressibility() > 50.0,
            "expected extreme compression, got {}",
            stats.compressibility()
        );
    }
}
