//! Headers that declare more than their bytes can hold: every count that
//! sizes a reservation must come back as a typed error, never as an
//! allocation the process cannot survive.

use fusion_format::chunk::{decode_column_chunk, read_encoded_chunk, MAX_DICT_DISTINCT};
use fusion_format::encoding::{bitpack, plain};
use fusion_format::footer::{parse_footer, FileMeta, MAGIC};
use fusion_format::prelude::*;
use fusion_format::util::{crc32, put};

/// The footer trailer: body, body length, magic.
fn footer_file(body: &[u8]) -> Vec<u8> {
    let mut file = body.to_vec();
    put::u32(&mut file, body.len() as u32);
    file.extend_from_slice(MAGIC);
    file
}

fn schema(columns: usize) -> Schema {
    Schema::new(
        (0..columns)
            .map(|i| Field::new(format!("column_{i:02}"), LogicalType::Int64))
            .collect(),
    )
}

/// A footer with a valid 16-column schema that declares 2^40 row groups:
/// a few hundred bytes asking for tens of terabytes.
fn huge_row_group_footer() -> Vec<u8> {
    let mut body = Vec::new();
    schema(16).encode(&mut body);
    put::uvarint(&mut body, 1 << 40);
    footer_file(&body)
}

#[test]
fn a_footer_declaring_2_pow_40_row_groups_is_truncated() {
    let file = huge_row_group_footer();
    assert!(file.len() < 300, "{} bytes", file.len());
    assert_eq!(parse_footer(&file).unwrap_err(), FormatError::Truncated);
}

#[test]
fn schema_and_chunk_counts_are_bounded_by_their_bytes() {
    // A schema declaring u64::MAX fields.
    let mut body = Vec::new();
    put::uvarint(&mut body, u64::MAX);
    assert_eq!(
        parse_footer(&footer_file(&body)).unwrap_err(),
        FormatError::Truncated
    );
    // One row group that declares 2^40 chunks.
    let mut body = Vec::new();
    schema(2).encode(&mut body);
    put::uvarint(&mut body, 1);
    put::uvarint(&mut body, 1000);
    put::uvarint(&mut body, 1 << 40);
    assert_eq!(FileMeta::decode(&body).unwrap_err(), FormatError::Truncated);
    // A count that fits its bytes but not the schema stays Corrupt.
    let mut body = Vec::new();
    schema(2).encode(&mut body);
    put::uvarint(&mut body, 1);
    put::uvarint(&mut body, 1000);
    put::uvarint(&mut body, 3);
    body.extend_from_slice(&[0; 64]);
    assert!(matches!(
        FileMeta::decode(&body).unwrap_err(),
        FormatError::Corrupt(_)
    ));
}

/// One page: the chunk layout's 16-byte header around Snappy bytes.
fn page(out: &mut Vec<u8>, raw: &[u8], count: u32) {
    let compressed = fusion_snappy::compress(raw);
    put::u32(out, compressed.len() as u32);
    put::u32(out, raw.len() as u32);
    put::u32(out, count);
    put::u32(out, crc32(&compressed));
    out.extend_from_slice(&compressed);
}

#[test]
fn a_plain_chunk_declaring_u32_max_values_is_truncated() {
    for (ty, col) in [
        (LogicalType::Utf8, ColumnData::Utf8(vec!["abc".into()])),
        (LogicalType::Int64, ColumnData::Int64(vec![1])),
        (LogicalType::Float64, ColumnData::Float64(vec![0.5])),
    ] {
        let mut raw = Vec::new();
        plain::encode(&col, &mut raw);
        let mut chunk = vec![0];
        page(&mut chunk, &raw, u32::MAX);
        assert!(chunk.len() < 40, "{} bytes", chunk.len());
        assert_eq!(
            read_encoded_chunk(&chunk, ty).unwrap_err(),
            FormatError::Truncated,
            "{ty}"
        );
        assert_eq!(
            decode_column_chunk(&chunk, ty).unwrap_err(),
            FormatError::Truncated
        );
    }
}

/// A dictionary chunk over `["x", "y"]` whose index page holds `index`
/// and declares `rows` values.
fn dictionary_chunk(index: &[u8], rows: u32) -> Vec<u8> {
    chunk_over(&ColumnData::Utf8(vec!["x".into(), "y".into()]), index, rows)
}

#[test]
fn an_index_page_declaring_u32_max_codes_is_an_error() {
    // Width 1, then a literal run header claiming u32::MAX codes backed
    // by three bytes.
    let mut index = vec![1];
    put::uvarint(&mut index, (u64::from(u32::MAX) << 1) | 1);
    index.extend_from_slice(&[0b1010_1010; 3]);
    let chunk = dictionary_chunk(&index, u32::MAX);
    assert_eq!(
        read_encoded_chunk(&chunk, LogicalType::Utf8).unwrap_err(),
        FormatError::Truncated
    );
    // The same count split into short literal runs still stops at the
    // bytes.
    let mut index = vec![1];
    for _ in 0..4 {
        put::uvarint(&mut index, (8 << 1) | 1);
        index.push(0b0101_0101);
    }
    let chunk = dictionary_chunk(&index, u32::MAX);
    assert_eq!(
        decode_column_chunk(&chunk, LogicalType::Utf8).unwrap_err(),
        FormatError::Truncated
    );
}

#[test]
fn a_width_0_literal_run_longer_than_the_writer_emits_is_corrupt() {
    // At width 0 no bytes back a literal's codes; the writer only emits
    // one for a stream shorter than an RLE run.
    let mut index = vec![0];
    put::uvarint(&mut index, (u64::from(u32::MAX) << 1) | 1);
    let chunk = dictionary_chunk(&index, u32::MAX);
    assert!(matches!(
        read_encoded_chunk(&chunk, LogicalType::Utf8).unwrap_err(),
        FormatError::Corrupt(_)
    ));
    // A short one, as the writer emits for a 5-row all-zero stream, is
    // fine.
    let mut index = vec![0];
    put::uvarint(&mut index, (5 << 1) | 1);
    let chunk = dictionary_chunk(&index, 5);
    assert_eq!(
        decode_column_chunk(&chunk, LogicalType::Utf8).unwrap(),
        ColumnData::Utf8(vec!["x".into(); 5])
    );
}

/// A dictionary chunk over `dictionary` whose index page holds `index`
/// and declares `rows` values.
fn chunk_over(dictionary: &ColumnData, index: &[u8], rows: u32) -> Vec<u8> {
    let mut dict = Vec::new();
    plain::encode(dictionary, &mut dict);
    let mut chunk = vec![1];
    page(&mut chunk, &dict, dictionary.len() as u32);
    page(&mut chunk, index, rows);
    chunk
}

#[test]
fn a_dictionary_of_more_than_max_dict_distinct_entries_is_corrupt() {
    // Width 16 (the widest a 2^16-entry dictionary needs) and one RLE
    // run of 70 rows of code 0.
    let mut index = vec![16];
    put::uvarint(&mut index, 70 << 1);
    index.extend_from_slice(&[0, 0]);
    let fits = ColumnData::Int64((0..MAX_DICT_DISTINCT as i64).collect());
    let view = read_encoded_chunk(&chunk_over(&fits, &index, 70), LogicalType::Int64).unwrap();
    assert_eq!(view.decode().unwrap(), ColumnData::Int64(vec![0; 70]));
    let over = ColumnData::Int64((0..=MAX_DICT_DISTINCT as i64).collect());
    let chunk = chunk_over(&over, &index, 70);
    assert!(matches!(
        read_encoded_chunk(&chunk, LogicalType::Int64).unwrap_err(),
        FormatError::Corrupt(_)
    ));
    assert!(matches!(
        decode_column_chunk(&chunk, LogicalType::Int64).unwrap_err(),
        FormatError::Corrupt(_)
    ));
    // A page header declaring u32::MAX entries is refused before any
    // byte of it is decoded.
    let mut chunk = vec![1];
    let mut dict = Vec::new();
    plain::encode(&ColumnData::Int64(vec![1]), &mut dict);
    page(&mut chunk, &dict, u32::MAX);
    page(&mut chunk, &index, 70);
    assert!(matches!(
        read_encoded_chunk(&chunk, LogicalType::Int64).unwrap_err(),
        FormatError::Corrupt(_)
    ));
}

#[test]
fn an_index_stream_wider_than_its_dictionary_needs_is_corrupt() {
    // One 8-value literal run of codes 0 and 1, packed at `width` bits.
    let index = |width: u32| {
        let mut index = vec![width as u8];
        put::uvarint(&mut index, (8 << 1) | 1);
        bitpack::pack(&[0, 1, 0, 1, 1, 0, 1, 0], width, &mut index);
        index
    };
    for (entries, needed) in [(2usize, 1u32), (256, 8), (257, 9), (MAX_DICT_DISTINCT, 16)] {
        let dictionary = ColumnData::Int64((0..entries as i64).collect());
        for width in [needed, needed + 1, 17, 32] {
            let chunk = chunk_over(&dictionary, &index(width), 8);
            let got = read_encoded_chunk(&chunk, LogicalType::Int64);
            if width <= needed {
                assert_eq!(
                    got.unwrap().decode().unwrap(),
                    ColumnData::Int64(vec![0, 1, 0, 1, 1, 0, 1, 0])
                );
            } else {
                assert!(
                    matches!(got, Err(FormatError::Corrupt(_))),
                    "{entries} entries, width {width}"
                );
                assert!(decode_column_chunk(&chunk, LogicalType::Int64).is_err());
            }
        }
    }
}
