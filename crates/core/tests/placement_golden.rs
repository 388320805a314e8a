//! Lockdown of where a put places its blocks: for every placement
//! policy, over flat, even-rack and uneven-rack topologies, three codes,
//! and with and without failed nodes, the nodes of every stripe and of
//! every location-record replica must hash to the digests below.
//!
//! The proptests check placement invariants, and the twin-store tests
//! compare two copies of the same code; only this test pins the nodes
//! themselves, so a refactor of the placement path cannot move a block
//! (or change how the store's RNG is drawn) unnoticed. The digests were
//! captured while `Store` still held its own greedy placer for the
//! domain-aware policy beside the rendezvous placer in `placement.rs`.

use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::topology::Topology;
use fusion_core::config::{EcConfig, PlacementPolicy, StoreConfig};
use fusion_core::store::Store;
use fusion_format::prelude::*;

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::Naive,
    PlacementPolicy::DomainAware,
    PlacementPolicy::Deterministic,
];

/// RS(9,6), LRC(10,6,2) and RS(14,10).
const CODES: [EcConfig; 3] = [EcConfig::RS_9_6, EcConfig::LRC_10_6, EcConfig::RS_14_10];

/// Flat, four even racks, and uneven racks of 5/4/3/2 nodes.
fn topologies() -> Vec<Topology> {
    let uneven = [5, 4, 3, 2]
        .iter()
        .enumerate()
        .flat_map(|(rack, &size)| std::iter::repeat_n(rack, size))
        .collect();
    vec![
        Topology::flat(9),
        Topology::racks(16, 4),
        Topology::from_racks(uneven),
    ]
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// A small analytics file: 12 row groups of two columns.
fn fac_file() -> Vec<u8> {
    let rows = 3_000;
    let schema = Schema::new(vec![
        Field::new("id", LogicalType::Int64),
        Field::new("flag", LogicalType::Utf8),
    ]);
    let table = Table::new(
        schema,
        vec![
            ColumnData::Int64((0..rows as i64).collect()),
            ColumnData::Utf8((0..rows).map(|i| ["N", "O", "F"][i % 3].into()).collect()),
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

/// Puts three blobs of different sizes and one FAC file on a fresh
/// store, after failing `failed`, and hashes every stripe's nodes and
/// every replica's node, object by object in name order. `None` when
/// the code does not fit the alive nodes.
fn digest(policy: PlacementPolicy, topo: &Topology, ec: EcConfig, failed: &[usize]) -> Option<u64> {
    if topo.nodes() - failed.len() < ec.n {
        return None;
    }
    let mut cfg = StoreConfig::fusion()
        .with_ec(ec)
        .with_cluster(ClusterSpec::with_topology(topo.clone()))
        .with_placement(policy)
        .with_block_size(4096)
        .with_seed(0x5eed);
    // Keep the small file under FAC (whole chunks).
    cfg.overhead_threshold = 0.9;
    let mut store = Store::new(cfg).unwrap();
    for &node in failed {
        store.fail_node(node).unwrap();
    }
    let blob = |len: usize| (0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>();
    store.put("blob-1", blob(1)).unwrap();
    store.put("blob-5k", blob(5_000)).unwrap();
    store.put("blob-90k", blob(90_000)).unwrap();
    store.put("table", fac_file()).unwrap();
    assert_eq!(store.object("table").unwrap().policy_used, "fac");

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in store.object_names() {
        let stripes: Vec<&[usize]> = store
            .object(&name)
            .unwrap()
            .placement
            .iter()
            .map(|sp| sp.nodes.as_slice())
            .collect();
        let (_, replicas) = store.location_map(&name).unwrap();
        fnv(
            &mut h,
            format!("{name} {stripes:?} {replicas:?};").as_bytes(),
        );
    }
    Some(h)
}

/// Digests for every topology × code × {all alive, nodes 2 and the
/// last failed}, in that nesting order, skipping cases whose code does
/// not fit the alive nodes; then the cases whose domain rules cannot be
/// met: LRC(10,6,2) on three racks of four (all alive, then nodes 2 and
/// 11 failed), and RS(9,6) on racks of 5/5/1/1 with both one-node racks
/// failed, where the two replica rules pick different nodes.
fn sweep(policy: PlacementPolicy) -> Vec<u64> {
    let mut out = Vec::new();
    for topo in topologies() {
        let last = topo.nodes() - 1;
        for ec in CODES {
            for failed in [&[][..], &[2, last][..]] {
                out.extend(digest(policy, &topo, ec, failed));
            }
        }
    }
    // Three racks hold at most 3 × 3 of LRC(10,6,2)'s ten shards, and two
    // live racks at most 2 × 3 of RS(9,6)'s nine.
    let (lrc, rs) = (EcConfig::LRC_10_6, EcConfig::RS_9_6);
    assert!(3 * lrc.tolerance() < lrc.n && 2 * rs.tolerance() < rs.n);
    let tight = Topology::racks(12, 3);
    for failed in [&[][..], &[2, 11][..]] {
        out.extend(digest(policy, &tight, lrc, failed));
    }
    let lopsided = Topology::from_racks(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3]);
    out.extend(digest(policy, &lopsided, rs, &[10, 11]));
    out
}

/// One row per entry of [`POLICIES`], in [`sweep`] order.
const GOLDEN: [[u64; 15]; 3] = [
    // Naive
    [
        0xbe2a_b563_9403_b85f,
        0x42e7_1302_bb6e_7b81,
        0x73c2_0610_d6ea_e2a0,
        0x89ad_7e0a_6fc2_5c87,
        0x28b6_dcb8_9f4f_c4a8,
        0xa8f1_a200_2101_83ef,
        0x1cb8_f6eb_4e01_6b8e,
        0x0c48_434b_dd9b_c19c,
        0xdc0f_56b1_0af1_bc72,
        0xd3eb_9581_8cc0_8090,
        0xfcfc_1d73_2bae_cc3f,
        0xcdfd_4b67_7403_a008,
        0xdc89_6d9c_e49c_f6c1,
        0xdc4d_97bc_3551_1d16,
        0x2f7e_cd55_7929_708a,
    ],
    // DomainAware
    [
        0xbe2a_b563_9403_b85f,
        0x8cf7_2285_9ff0_8b74,
        0xf1d2_8e07_fb8d_d622,
        0x578a_744f_9ad2_06e3,
        0x8ba7_368a_1db3_c16c,
        0xc4e0_0514_d0d5_6830,
        0x6c9a_5164_09c0_09aa,
        0x1630_95db_efba_dea2,
        0x5c67_95cd_8273_bc5f,
        0xd39c_6130_2469_184b,
        0x42ad_68e3_d674_f1d8,
        0xff4a_31da_9dbb_7843,
        0x880a_8ddf_f6b2_a86a,
        0xf783_a7d7_dc76_6560,
        0x7f6d_07a0_ac44_c430,
    ],
    // Deterministic
    [
        0x94fa_e130_7ab5_693a,
        0xc1bf_3ca2_6c32_02df,
        0x8cab_4778_1d18_462a,
        0x3391_eebb_9159_0467,
        0x4099_6a5c_e22a_578d,
        0x5500_d237_65e2_0dba,
        0x29db_b64e_2bee_94e8,
        0xc4c5_a158_52b1_aad3,
        0xc770_6651_2cd4_2412,
        0xc273_12c7_580b_874d,
        0x08f9_359d_1057_fee4,
        0x8e21_4bcb_5046_6ff0,
        0x345d_f413_d7ac_874a,
        0xa5b4_3aa6_007d_c32e,
        0x81eb_3d44_76ef_d5fa,
    ],
];

#[test]
fn placements_match_golden_digests() {
    let got: Vec<Vec<u64>> = POLICIES.iter().map(|&p| sweep(p)).collect();
    for ((policy, got), want) in POLICIES.iter().zip(&got).zip(&GOLDEN) {
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "{policy:?} placements moved; all digests: {got:#x?}"
        );
    }
}
