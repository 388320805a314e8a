//! Differential tests for the chunk-miss parse: the width-specialized
//! unpack kernel against the bit-loop oracle `unpack_reference`, the
//! run-structured index parse against a reference parse built on that
//! oracle, dictionary-code validation at every position of a run, and the
//! cache weight of a parsed view.

use fusion_format::chunk::{decode_column_chunk, encode_column_chunk, read_encoded_chunk};
use fusion_format::chunk::{EncodedChunk, MAX_DICT_DISTINCT};
use fusion_format::encoding::bitpack::{self, unpack_into, unpack_reference};
use fusion_format::encoding::{plain, rle, rle::Run};
use fusion_format::prelude::*;
use fusion_format::util::{crc32, put, Cursor};

/// Deterministic pseudo-random words (splitmix64).
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn mask(width: u32) -> u32 {
    if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

#[test]
fn unpack_matches_reference_at_every_width_count_and_slack() {
    for width in 0..=32u32 {
        for count in 0..=300usize {
            let values: Vec<u32> = words(u64::from(width) << 16 | count as u64, count)
                .into_iter()
                .map(|w| w as u32 & mask(width))
                .collect();
            // The span starts mid-page (0–4 bytes in) and is followed by
            // 0–16 bytes of slack, so some spans end exactly at the page
            // end. Lead and slack bytes are all-ones: any bit read from
            // them that leaked into a value would change it.
            let lead = count % 5;
            let slack = (count + width as usize) % 17;
            let mut page = vec![0xFF; lead];
            bitpack::pack(&values, width, &mut page);
            let span_end = page.len();
            page.resize(span_end + slack, 0xFF);
            let want = unpack_reference(&page[lead..], width, count).unwrap();
            assert_eq!(want, values, "oracle, width {width} count {count}");
            let mut got = vec![7u32, 7];
            unpack_into(&page, lead, width, count, &mut got).unwrap();
            assert_eq!(got[..2], [7, 7], "prefix, width {width} count {count}");
            assert_eq!(
                got[2..],
                values[..],
                "width {width} count {count} slack {slack}"
            );
            // The same span with no slack at all.
            got.clear();
            unpack_into(&page[..span_end], lead, width, count, &mut got).unwrap();
            assert_eq!(got, values, "exact end, width {width} count {count}");
        }
    }
}

#[test]
fn truncated_spans_fail_like_the_reference() {
    for width in 1..=32u32 {
        for count in [1usize, 7, 8, 9, 63, 64, 65, 300] {
            let values: Vec<u32> = (0..count as u32).map(|i| i & mask(width)).collect();
            let mut page = vec![0xFF; 3];
            bitpack::pack(&values, width, &mut page);
            let short = &page[..page.len() - 1];
            assert_eq!(
                unpack_reference(&short[3..], width, count).unwrap_err(),
                FormatError::Truncated
            );
            let mut got = vec![1u32];
            assert_eq!(
                unpack_into(short, 3, width, count, &mut got).unwrap_err(),
                FormatError::Truncated,
                "width {width} count {count}"
            );
            assert_eq!(got, vec![1], "a failed unpack must not grow the buffer");
        }
    }
}

/// A run of the reference parse: an RLE run, or the literal values as the
/// bit-loop oracle unpacks them.
#[derive(Debug, PartialEq)]
enum RefRun {
    Rle(u32, usize),
    Literal(Vec<u32>),
}

/// The index-stream parse built on `unpack_reference`, one `Vec` per
/// literal run.
fn reference_runs(input: &[u8], count: usize) -> Vec<RefRun> {
    let mut c = Cursor::new(input);
    let width = u32::from(c.u8().unwrap());
    let value_bytes = width.div_ceil(8) as usize;
    let mut runs = Vec::new();
    let mut covered = 0;
    while covered < count {
        let h = c.uvarint().unwrap();
        let n = (h >> 1) as usize;
        if h & 1 == 0 {
            let mut le = [0u8; 4];
            le[..value_bytes].copy_from_slice(c.bytes(value_bytes).unwrap());
            runs.push(RefRun::Rle(u32::from_le_bytes(le), n));
        } else {
            let raw = c.bytes(bitpack::packed_len(width, n)).unwrap();
            runs.push(RefRun::Literal(unpack_reference(raw, width, n).unwrap()));
        }
        covered += n;
    }
    runs
}

/// Code streams with RLE runs, literal runs of every length mod 8, and
/// widths from 0 to 32.
fn code_streams() -> Vec<Vec<u32>> {
    let mut streams = vec![vec![], vec![0; 5], vec![0; 100], vec![u32::MAX; 9]];
    for (i, max) in [1u32, 2, 3, 7, 100, 4095, 65_535, 1 << 20, u32::MAX]
        .into_iter()
        .enumerate()
    {
        let mut s = Vec::new();
        for (j, w) in words(i as u64, 60).into_iter().enumerate() {
            let v = (w as u32) % max.saturating_add(1).max(1);
            let repeat = if j % 3 == 0 { 8 + j % 20 } else { 1 + j % 9 };
            if j % 2 == 0 {
                s.extend(std::iter::repeat_n(v, repeat));
            } else {
                s.extend((0..repeat as u32).map(|k| (v ^ k) % max.saturating_add(1).max(1)));
            }
        }
        streams.push(s);
    }
    streams
}

/// The reference parse with every RLE run shorter than a bitmap word
/// written out as literal values, and adjacent literal runs merged: the
/// structure `decode_runs` keeps.
fn folded(runs: Vec<RefRun>) -> Vec<RefRun> {
    let mut out: Vec<RefRun> = Vec::new();
    for run in runs {
        let run = match run {
            RefRun::Rle(v, n) if n < rle::FOLD_BELOW => RefRun::Literal(vec![v; n]),
            run => run,
        };
        match (out.last_mut(), run) {
            (_, RefRun::Literal(v)) if v.is_empty() => {}
            (Some(RefRun::Literal(prev)), RefRun::Literal(v)) => prev.extend(v),
            (_, run) => out.push(run),
        }
    }
    out
}

#[test]
fn decode_runs_matches_the_folded_reference_parse_and_flattens_to_decode() {
    for codes in code_streams() {
        let mut bytes = Vec::new();
        rle::encode(&codes, &mut bytes);
        let reference = reference_runs(&bytes, codes.len());
        let runs = rle::decode_runs::<u32>(&bytes, codes.len(), 32).unwrap();
        let spans: Vec<RefRun> = runs
            .runs
            .iter()
            .map(|&r| match r {
                Run::Rle { value, len } => RefRun::Rle(value, len),
                Run::Literal { start, len } => {
                    RefRun::Literal(runs.codes[start..start + len].to_vec())
                }
            })
            .collect();
        let literals = |runs: &[RefRun]| -> usize {
            runs.iter()
                .map(|r| match r {
                    RefRun::Rle(..) => 0,
                    RefRun::Literal(v) => v.len(),
                })
                .sum()
        };
        assert_eq!(
            (runs.stream_runs, runs.stream_literals),
            (reference.len(), literals(&reference))
        );
        assert_eq!(spans, folded(reference));
        assert_eq!(runs.expand(), codes);
        assert_eq!(rle::decode(&bytes, codes.len()).unwrap(), codes);
        // Narrow code buffers hold the same runs and values.
        let max = codes.iter().copied().max().unwrap_or(0);
        if max <= u32::from(u16::MAX) {
            let narrow = rle::decode_runs::<u16>(&bytes, codes.len(), 16).unwrap();
            assert_eq!(narrow.runs, runs.runs);
            assert!(narrow
                .codes
                .iter()
                .map(|&c| u32::from(c))
                .eq(runs.codes.iter().copied()));
        }
        if max <= u32::from(u8::MAX) {
            let narrow = rle::decode_runs::<u8>(&bytes, codes.len(), 8).unwrap();
            assert_eq!(narrow.runs, runs.runs);
            assert!(narrow
                .codes
                .iter()
                .map(|&c| u32::from(c))
                .eq(runs.codes.iter().copied()));
        }
    }
}

/// Chunk bytes with a hand-written index stream, laid out as the writer
/// lays out a dictionary chunk.
fn dictionary_chunk(dictionary: &ColumnData, index: &[u8], rows: usize) -> Vec<u8> {
    let page = |out: &mut Vec<u8>, raw: &[u8], count: usize| {
        let compressed = fusion_snappy::compress(raw);
        put::u32(out, compressed.len() as u32);
        put::u32(out, raw.len() as u32);
        put::u32(out, count as u32);
        put::u32(out, crc32(&compressed));
        out.extend_from_slice(&compressed);
    };
    let mut dict_bytes = Vec::new();
    plain::encode(dictionary, &mut dict_bytes);
    let mut out = vec![1u8];
    page(&mut out, &dict_bytes, dictionary.len());
    page(&mut out, index, rows);
    out
}

#[test]
fn read_encoded_chunk_rejects_an_out_of_range_code_anywhere_in_a_run() {
    let dictionary = ColumnData::Utf8(vec!["A".into(), "N".into(), "R".into()]);
    // A literal run of 30 codes cycling 0..3; code 3 is one past the end.
    let literal: Vec<u32> = (0..30).map(|i| i % 3).collect();
    let mut cases = Vec::new();
    for at in [0, 15, 29] {
        let mut codes = literal.clone();
        codes[at] = 3;
        cases.push((format!("literal position {at}"), codes));
    }
    let mut rle_value = vec![3u32; 20];
    rle_value.extend(&literal);
    cases.push(("rle value".into(), rle_value));

    for (what, codes) in cases {
        let mut index = Vec::new();
        rle::encode(&codes, &mut index);
        let chunk = dictionary_chunk(&dictionary, &index, codes.len());
        assert!(
            matches!(
                read_encoded_chunk(&chunk, LogicalType::Utf8),
                Err(FormatError::Corrupt(_))
            ),
            "{what}"
        );
        assert!(
            decode_column_chunk(&chunk, LogicalType::Utf8).is_err(),
            "{what}"
        );
    }
    // The same stream with every code in range parses and decodes.
    let mut index = Vec::new();
    rle::encode(&literal, &mut index);
    let chunk = dictionary_chunk(&dictionary, &index, literal.len());
    let view = read_encoded_chunk(&chunk, LogicalType::Utf8).unwrap();
    assert_eq!(
        view.decode().unwrap(),
        dictionary.take(&[0, 1, 2].repeat(10))
    );
}

/// The cache weight as it was defined when each literal run owned a `Vec`:
/// the dictionary's plain size, `size_of::<Run>()` (24 bytes) per run and
/// 4 bytes per literal code, counted on the reference parse.
fn reference_weight(bytes: &[u8], ty: LogicalType) -> usize {
    let view = read_encoded_chunk(bytes, ty).unwrap();
    let EncodedChunk::Dictionary { dictionary, .. } = &view else {
        return view.decode().unwrap().plain_size();
    };
    // Page layout: tag, then per page 16 header bytes and the payload.
    let dict_len = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
    let at = 1 + 16 + dict_len;
    let clen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
    let index = fusion_snappy::decompress(&bytes[at + 16..at + 16 + clen]).unwrap();
    let runs = reference_runs(&index, count);
    let literal_codes: usize = runs
        .iter()
        .map(|r| match r {
            RefRun::Rle(..) => 0,
            RefRun::Literal(v) => v.len(),
        })
        .sum();
    dictionary.plain_size() + 24 * runs.len() + 4 * literal_codes
}

#[test]
fn weight_bytes_keeps_the_per_run_vec_formula() {
    let sorted_then_cycling = ColumnData::Utf8(
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
    let flags = ColumnData::Int64(
        words(3, 5000)
            .into_iter()
            .map(|w| if w % 7 < 5 { 0 } else { (w % 3) as i64 })
            .collect(),
    );
    let unique = ColumnData::Int64((0..4000).map(|i| i * 7919 % 1_000_003).collect());
    let wide = ColumnData::Int64(
        (0..(MAX_DICT_DISTINCT as i64 / 2))
            .map(|i| i % 40_000)
            .collect(),
    );
    for (col, ty) in [
        (sorted_then_cycling, LogicalType::Utf8),
        (flags, LogicalType::Int64),
        (unique, LogicalType::Int64),
        (wide, LogicalType::Int64),
    ] {
        let (bytes, _) = encode_column_chunk(&col);
        let view = read_encoded_chunk(&bytes, ty).unwrap();
        assert_eq!(view.weight_bytes(), reference_weight(&bytes, ty));
    }
    // A hand-counted view: 3 one-byte strings, 2 runs, 5 literal codes.
    let mut index = Vec::new();
    let mut codes = vec![1u32; 10];
    codes.extend([0, 2, 0, 2, 1]);
    rle::encode(&codes, &mut index);
    let dictionary = ColumnData::Utf8(vec!["A".into(), "N".into(), "R".into()]);
    let chunk = dictionary_chunk(&dictionary, &index, codes.len());
    let view = read_encoded_chunk(&chunk, LogicalType::Utf8).unwrap();
    assert_eq!(view.weight_bytes(), 3 * 5 + 2 * 24 + 5 * 4);
}
