//! The chunk-miss parse seen from the store: parsed views weigh exactly
//! what the chunk cache has always charged for them, every real page
//! decodes and checksums identically under the fast kernels and their
//! oracles, and a footer whose counts no bytes could back is stored as a
//! plain blob instead of aborting the process.

use fusion_core::config::StoreConfig;
use fusion_core::store::Store;
use fusion_format::chunk::{pages, read_encoded_chunk};
use fusion_format::footer::{parse_footer, MAGIC};
use fusion_format::prelude::*;
use fusion_format::util::{crc32, crc32_reference, put};
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

/// Sum of `weight_bytes` over every chunk of the seed-1 lineitem object
/// (10 row groups of 15k rows, 16 columns), as the chunk cache weighed it
/// when each literal run owned its own `Vec`.
const LINEITEM_WEIGHT_BYTES: usize = 16_871_702;

#[test]
fn lineitem_views_weigh_what_the_cache_always_charged() {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 10,
        seed: 1,
    });
    let meta = parse_footer(&file).unwrap();
    let total: usize = meta
        .chunks()
        .map(|(_, col, cm)| {
            let bytes = &file[cm.offset as usize..(cm.offset + cm.len) as usize];
            read_encoded_chunk(bytes, meta.schema.fields()[col].ty)
                .unwrap()
                .weight_bytes()
        })
        .sum();
    assert_eq!(total, LINEITEM_WEIGHT_BYTES);
}

/// Every page of the seed-1 lineitem object (16 columns × 10 row groups:
/// dictionary, index and plain pages) decodes to the same bytes under the
/// fast decoder and the reference decoder, and its CRC equals the
/// bytewise oracle's.
#[test]
fn every_lineitem_page_decodes_and_checksums_like_the_oracles() {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 10,
        seed: 1,
    });
    let meta = parse_footer(&file).unwrap();
    let mut count = 0;
    for (rg, col, cm) in meta.chunks() {
        let bytes = &file[cm.offset as usize..(cm.offset + cm.len) as usize];
        for page in pages(bytes).unwrap() {
            let fast = fusion_snappy::decompress(page).unwrap();
            let oracle = fusion_snappy::reference::decompress(page).unwrap();
            assert!(fast == oracle, "row group {rg} column {col}");
            assert_eq!(
                crc32(page),
                crc32_reference(page),
                "row group {rg} column {col}"
            );
            count += 1;
        }
    }
    assert_eq!(meta.num_chunks(), 160);
    assert!(count > 160, "dictionary chunks have two pages");
}

#[test]
fn put_of_a_footer_declaring_2_pow_40_row_groups_stores_a_plain_blob() {
    let schema = Schema::new(
        (0..16)
            .map(|i| Field::new(format!("column_{i:02}"), LogicalType::Int64))
            .collect(),
    );
    let mut body = Vec::new();
    schema.encode(&mut body);
    put::uvarint(&mut body, 1 << 40);
    let mut file = body.clone();
    put::u32(&mut file, body.len() as u32);
    file.extend_from_slice(MAGIC);
    assert_eq!(parse_footer(&file).unwrap_err(), FormatError::Truncated);

    let mut store = Store::new(StoreConfig::fusion()).unwrap();
    store.put("hostile", file.clone()).unwrap();
    assert!(store.object("hostile").unwrap().file_meta.is_none());
    assert_eq!(store.get("hostile", 0, file.len() as u64).unwrap(), file);
    assert!(store.query("SELECT column_00 FROM hostile").is_err());
}
