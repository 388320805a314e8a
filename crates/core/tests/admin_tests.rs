//! Tests for the management surface: list / head / delete / scrub.

use bytes::Bytes;
use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::store::BlockId;
use fusion_core::config::{EcConfig, StoreConfig};
use fusion_core::store::Store;
use fusion_format::prelude::*;

fn file(rows: usize) -> Vec<u8> {
    let schema = Schema::new(vec![
        Field::new("id", LogicalType::Int64),
        Field::new("tag", LogicalType::Utf8),
    ]);
    let table = Table::new(
        schema,
        vec![
            ColumnData::Int64((0..rows as i64).collect()),
            ColumnData::Utf8((0..rows).map(|i| ["x", "y"][i % 2].into()).collect()),
        ],
    )
    .unwrap();
    write_table(
        &table,
        WriteOptions {
            rows_per_group: rows.div_ceil(4),
        },
    )
    .unwrap()
}

fn store() -> Store {
    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9;
    Store::new(cfg).unwrap()
}

#[test]
fn list_and_head() {
    let mut s = store();
    s.put("logs/a", file(500)).unwrap();
    s.put("logs/b", file(600)).unwrap();
    s.put("data/c", file(700)).unwrap();
    assert_eq!(
        s.list("logs/"),
        vec!["logs/a".to_string(), "logs/b".to_string()]
    );
    assert_eq!(s.list(""), vec!["data/c", "logs/a", "logs/b"]);
    assert!(s.list("nope/").is_empty());

    let h = s.head("logs/a").unwrap();
    assert_eq!(h.name, "logs/a");
    assert!(h.analytics);
    assert_eq!(h.chunks, 8); // 4 row groups x 2 columns
    assert_eq!(h.layout, "fac");
    assert!(s.head("ghost").is_err());
}

#[test]
fn delete_frees_blocks() {
    let mut s = store();
    s.put("a", file(800)).unwrap();
    s.put("b", file(800)).unwrap();
    let before = s.stored_bytes();
    s.delete("a").unwrap();
    assert!(s.stored_bytes() < before);
    assert!(s.get("a", 0, 1).is_err());
    assert!(s.object("a").is_err());
    // The other object is untouched.
    assert!(s.get("b", 0, 100).is_ok());
    // Double delete fails cleanly.
    assert!(s.delete("a").is_err());
}

#[test]
fn delete_with_failed_node_skips_it() {
    let mut s = store();
    s.put("a", file(800)).unwrap();
    s.fail_node(3).unwrap();
    s.delete("a").unwrap();
    assert!(s.object("a").is_err());
}

#[test]
fn scrub_clean_store() {
    let mut s = store();
    s.put("a", file(1000)).unwrap();
    s.put("b", file(500)).unwrap();
    let r = s.scrub();
    assert!(r.is_clean());
    assert!(r.stripes_ok > 0);
    assert_eq!(r.stripes_degraded, 0);
}

#[test]
fn scrub_counts_degraded_stripes() {
    let mut s = store();
    s.put("a", file(1000)).unwrap();
    s.fail_node(0).unwrap();
    let r = s.scrub();
    // With 9 nodes and n=9, every stripe touches node 0.
    assert_eq!(r.stripes_ok, 0);
    assert!(r.stripes_degraded > 0);
    assert!(r.is_clean());
    // Recovery restores a clean scrub.
    s.recover_node(0).unwrap();
    let r = s.scrub();
    assert!(r.stripes_degraded == 0 && r.is_clean() && r.stripes_ok > 0);
}

#[test]
fn scrub_detects_silent_corruption() {
    let mut s = store();
    s.put("a", file(1000)).unwrap();
    // Flip a byte of one stored block behind the store's back.
    let meta = s.object("a").unwrap();
    let (node, block) = (meta.placement[0].nodes[2], meta.placement[0].block_ids[2]);
    let original = s.blocks().get(node, block).unwrap();
    let mut tampered = original.to_vec();
    tampered[0] ^= 0xFF;
    s.blocks_mut()
        .put(node, block, Bytes::from(tampered))
        .unwrap();

    let r = s.scrub();
    assert!(!r.is_clean());
    assert_eq!(r.stripes_corrupt, 1);
}

#[test]
fn scrub_repairs_crc_detected_corruption() {
    let mut s = store();
    s.put("a", file(1000)).unwrap();
    let before = s.get("a", 0, 64).unwrap();
    let meta = s.object("a").unwrap().clone();
    let (node, block) = (meta.placement[0].nodes[1], meta.placement[0].block_ids[1]);
    s.blocks_mut().corrupt_block(node, block, 5).unwrap();

    // The data plane flags the bit rot on read — never silent wrong bytes.
    assert!(matches!(
        s.blocks().get(node, block),
        Err(fusion_cluster::store::ClusterError::Corrupt { .. })
    ));

    // Scrub heals it from parity: CRC-detected loss counts as ok, not corrupt.
    let r = s.scrub();
    assert!(r.blocks_repaired >= 1);
    assert!(r.stripes_repaired >= 1);
    assert!(r.is_clean());

    // The block reads again and object contents are intact.
    assert!(s.blocks().get(node, block).is_ok());
    assert_eq!(s.get("a", 0, 64).unwrap(), before);
    let r2 = s.scrub();
    assert!(r2.is_clean() && r2.blocks_repaired == 0 && r2.stripes_degraded == 0);
}

/// Tampers one byte of `shard` in the widest stripe of a fresh store
/// coded with `ec` on `nodes` flat nodes, then scrubs twice.
fn scrub_heals_tampered_shard(ec: EcConfig, nodes: usize, shard: usize) {
    let mut cfg = StoreConfig::fusion()
        .with_ec(ec)
        .with_cluster(ClusterSpec::with_nodes(nodes));
    cfg.overhead_threshold = 0.9;
    let mut s = Store::new(cfg).unwrap();
    s.put("a", file(1000)).unwrap();
    let meta = s.object("a").unwrap().clone();
    let blocks: Vec<(usize, BlockId)> = meta
        .placement
        .iter()
        .flat_map(|sp| sp.nodes.iter().copied().zip(sp.block_ids.iter().copied()))
        .collect();
    let before: Vec<Bytes> = blocks
        .iter()
        .map(|&(node, block)| s.blocks().get(node, block).unwrap())
        .collect();
    let widest = meta.placement.iter().max_by_key(|sp| sp.width).unwrap();
    let (node, block) = (widest.nodes[shard], widest.block_ids[shard]);
    let mut tampered = s.blocks().get(node, block).unwrap().to_vec();
    assert!(!tampered.is_empty(), "{ec}: shard {shard} is empty");
    let at = 3 % tampered.len();
    tampered[at] ^= 0x55;
    // A tampered put recomputes the CRC, so only parity can catch it.
    s.blocks_mut()
        .put(node, block, Bytes::from(tampered))
        .unwrap();

    let r = s.scrub();
    // Detection is never silent even though the stripe was healed...
    assert_eq!(r.stripes_corrupt, 1, "{ec}: shard {shard}");
    assert_eq!(r.blocks_repaired, 1, "{ec}: shard {shard}");
    // ...and exactly the culprit block was rewritten, to its original
    // contents.
    for (&(node, block), original) in blocks.iter().zip(&before) {
        assert_eq!(
            &s.blocks().get(node, block).unwrap(),
            original,
            "{ec}: shard {shard}, block {block:?} on node {node}"
        );
    }
    assert!(s.scrub().is_clean(), "{ec}: shard {shard}");
}

#[test]
fn scrub_localizes_and_repairs_tampered_block() {
    for (ec, nodes) in [(EcConfig::RS_9_6, 9), (EcConfig::LRC_10_6, 10)] {
        for shard in 0..ec.n {
            scrub_heals_tampered_shard(ec, nodes, shard);
        }
    }
}
