//! Rebuilt blocks are byte-identical to the blocks they replace. Node
//! recovery and scrub heals must restore every stripe block — data,
//! global parity and, for LRC, local parity — bit for bit, under both
//! the MDS code and the locally repairable one.

use fusion_cluster::spec::ClusterSpec;
use fusion_core::config::{EcConfig, StoreConfig};
use fusion_core::store::Store;
use fusion_format::prelude::*;
use std::collections::BTreeMap;

/// Where a stripe block lives: (object, stripe, shard index).
type Slot = (String, usize, usize);

fn file(rows: usize, salt: i64) -> Vec<u8> {
    let schema = Schema::new(vec![
        Field::new("key", LogicalType::Int64),
        Field::new("price", LogicalType::Float64),
        Field::new("flag", LogicalType::Utf8),
    ]);
    let table = Table::new(
        schema,
        vec![
            ColumnData::Int64(
                (0..rows as i64)
                    .map(|i| i.wrapping_mul(2_654_435_761) ^ salt)
                    .collect(),
            ),
            ColumnData::Float64((0..rows).map(|i| (i % 977) as f64 * 1.25).collect()),
            ColumnData::Utf8(
                (0..rows)
                    .map(|i| ["A", "N", "R", "O"][(i + salt as usize) % 4].into())
                    .collect(),
            ),
        ],
    )
    .unwrap();
    write_table(
        &table,
        WriteOptions {
            rows_per_group: 250,
        },
    )
    .unwrap()
}

/// A store on `nodes` flat nodes holding several objects of different
/// sizes.
fn populated(ec: EcConfig, nodes: usize) -> Store {
    let mut cfg = StoreConfig::fusion()
        .with_ec(ec)
        .with_cluster(ClusterSpec::with_nodes(nodes));
    cfg.overhead_threshold = 0.9;
    let mut store = Store::new(cfg).unwrap();
    for (i, rows) in [6000, 9000, 4000, 12000, 7000, 5000]
        .into_iter()
        .enumerate()
    {
        store
            .put(&format!("obj-{i}"), file(rows, i as i64))
            .unwrap();
    }
    store
}

/// Every stripe block `node` holds, by slot.
fn stripe_blocks(store: &Store, node: usize) -> BTreeMap<Slot, Vec<u8>> {
    let mut out = BTreeMap::new();
    for name in store.object_names() {
        let meta = store.object(&name).unwrap();
        for (si, sp) in meta.placement.iter().enumerate() {
            for (i, (&n, &b)) in sp.nodes.iter().zip(&sp.block_ids).enumerate() {
                if n == node {
                    let bytes = store.blocks().get(n, b).unwrap().to_vec();
                    out.insert((name.clone(), si, i), bytes);
                }
            }
        }
    }
    out
}

fn rebuilt_blocks_match(ec: EcConfig, nodes: usize) {
    let mut store = populated(ec, nodes);
    let label = store.codec().to_string();
    let n = store.codec().total_blocks();

    // Recovery: every node in turn loses all of its blocks and gets
    // them back.
    let mut shards_rebuilt = vec![false; n];
    for node in 0..nodes {
        let before = stripe_blocks(&store, node);
        assert!(!before.is_empty(), "{label}: node {node} holds no block");
        for (_, _, i) in before.keys() {
            shards_rebuilt[*i] = true;
        }
        store.fail_node(node).unwrap();
        let report = store.recover_node(node).unwrap();
        assert_eq!(
            report.stripes_repaired,
            before.len(),
            "{label}: node {node}"
        );
        assert_eq!(
            stripe_blocks(&store, node),
            before,
            "{label}: node {node} recovered different bytes"
        );
    }
    assert!(
        shards_rebuilt.iter().all(|&s| s),
        "{label}: some shard index (parity included) was never rebuilt"
    );

    // Scrub: CRC-rot every stripe block on one node, then heal.
    let node = 0;
    let before = stripe_blocks(&store, node);
    let mut rotted = 0;
    for ((name, si, i), bytes) in &before {
        let bid = store.object(name).unwrap().placement[*si].block_ids[*i];
        store.blocks_mut().corrupt_block(node, bid, 7).unwrap();
        // Rot cannot touch an empty block.
        rotted += usize::from(!bytes.is_empty());
    }
    assert!(rotted > 0);
    let report = store.scrub();
    assert!(report.is_clean(), "{label}: {report:?}");
    assert_eq!(report.blocks_repaired, rotted, "{label}: {report:?}");
    assert_eq!(
        stripe_blocks(&store, node),
        before,
        "{label}: scrub healed different bytes"
    );
}

#[test]
fn rs_rebuilds_are_byte_identical() {
    rebuilt_blocks_match(EcConfig::RS_9_6, 11);
}

#[test]
fn lrc_rebuilds_are_byte_identical() {
    rebuilt_blocks_match(EcConfig::LRC_10_6, 12);
}
