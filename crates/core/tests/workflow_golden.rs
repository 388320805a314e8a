//! Lockdown of the Fusion executor's time plane: for a fixed query set
//! over a fixed seeded lineitem object, every modelled quantity —
//! the workflow DAG, network bytes, per-chunk pushdown decisions and the
//! chunk-access counters — must hash to the digests below.
//!
//! The digests were captured before the default path's data plane moved
//! onto encoded chunk views (encoded GROUP BY, folded aggregates,
//! late-materialized projections). The data plane may change how answers
//! are computed; it must not change what the time plane charges, so
//! every paper figure stays put.

use fusion_core::config::StoreConfig;
use fusion_core::query::QueryOutput;
use fusion_core::store::Store;
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

/// `(sql, aggregate pushdown on)`.
const QUERIES: [(&str, bool); 10] = [
    // The five benchmark query shapes.
    (
        "SELECT extendedprice FROM lineitem WHERE quantity < 5",
        false,
    ),
    (
        "SELECT sum(extendedprice) FROM lineitem WHERE quantity <= 10",
        false,
    ),
    ("SELECT min(shipdate), max(shipdate) FROM lineitem", false),
    (
        "SELECT returnflag, count(*), sum(quantity) FROM lineitem WHERE discount < 0.03 \
         GROUP BY returnflag",
        false,
    ),
    (
        "SELECT orderkey FROM lineitem WHERE returnflag = 'A' AND shipmode = 'AIR'",
        false,
    ),
    // LIMIT projection.
    (
        "SELECT orderkey, shipmode FROM lineitem WHERE quantity > 45 LIMIT 700",
        false,
    ),
    // Multi-key GROUP BY.
    (
        "SELECT returnflag, linestatus, count(*), avg(discount), max(extendedprice) \
         FROM lineitem WHERE shipdate < '1996-01-01' GROUP BY returnflag, linestatus",
        false,
    ),
    // Aggregate pushdown on.
    (
        "SELECT sum(quantity), avg(extendedprice), min(shipmode) FROM lineitem \
         WHERE discount >= 0.05",
        true,
    ),
    // Footer statistics: every row proven to match, then none.
    (
        "SELECT returnflag, discount FROM lineitem WHERE shipdate >= '1992-01-01' LIMIT 3100",
        false,
    ),
    (
        "SELECT count(*), max(tax) FROM lineitem WHERE quantity > 100",
        false,
    ),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the `Debug` text of every time-plane output.
fn digest(out: &QueryOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, format!("{:?}", out.workflow).as_bytes());
    fnv(&mut h, format!("{:?}", out.net_bytes).as_bytes());
    fnv(&mut h, format!("{:?}", out.decisions).as_bytes());
    fnv(
        &mut h,
        format!(
            "{:?}",
            (
                out.pruned_chunks,
                out.cache_hits,
                out.cache_misses,
                out.chunks_considered
            )
        )
        .as_bytes(),
    );
    h
}

/// Storage nodes failed in turn: none, then two nodes (not the
/// coordinator) that between them host chunks of every column the
/// queries touch, so each stage meets degraded chunks.
const FAILED: [Option<usize>; 3] = [None, Some(2), Some(5)];

/// Digests of one query run cold then warm under each entry of
/// [`FAILED`]: `[healthy cold, healthy warm, node 2 cold, …]`.
fn run(bytes: &[u8], sql: &str, agg_pushdown: bool) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (i, failed) in FAILED.into_iter().enumerate() {
        let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(agg_pushdown);
        // Keep the small test object under FAC (whole chunks).
        cfg.overhead_threshold = 0.9;
        let mut store = Store::new(cfg).unwrap();
        store.put("lineitem", bytes.to_vec()).unwrap();
        if let Some(node) = failed {
            store.fail_node(node).unwrap();
        }
        for warm in [false, true] {
            let q = store.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            out[2 * i + warm as usize] = digest(&q);
        }
    }
    out
}

/// Captured before the encoded-view data plane; one row per query in
/// [`QUERIES`] order.
const GOLDEN: [[u64; 6]; 10] = [
    [
        0x8f1f_0974_73d6_f8e5,
        0xd2b7_2d46_0fd1_7483,
        0xc632_94ad_3a50_2d03,
        0x36d0_0c71_0554_4032,
        0x8f1f_0974_73d6_f8e5,
        0xd2b7_2d46_0fd1_7483,
    ],
    [
        0x2515_5ad0_7404_8518,
        0x3baa_1b37_dfdd_6dd4,
        0x1b7b_4566_1902_e616,
        0xfedb_3e34_b2d5_a11f,
        0x2515_5ad0_7404_8518,
        0x3baa_1b37_dfdd_6dd4,
    ],
    [
        0x7722_b7ae_a37f_f903,
        0xb97c_1c5c_2bf5_79ab,
        0x7722_b7ae_a37f_f903,
        0xb97c_1c5c_2bf5_79ab,
        0x5d97_b14a_b2d1_6b21,
        0x0a87_0b84_f066_29e1,
    ],
    [
        0xdc8b_ac71_3aef_028e,
        0xf9e8_13cb_88ce_b557,
        0x75bb_b16b_fdf9_47f6,
        0x2480_8932_1780_5794,
        0x2e1d_57f5_e7ed_2463,
        0xff04_c933_20f4_d6b9,
    ],
    [
        0xd563_a398_8a9c_b906,
        0xdcb1_84ad_5007_dc6e,
        0xb56e_2940_2e50_6f2d,
        0x7303_002f_f822_e57b,
        0x8e30_0bf5_8a99_8465,
        0xcc10_4189_ef8f_f45c,
    ],
    [
        0xef20_a0b6_514f_7eb9,
        0x6f82_b6cb_5d04_a4b9,
        0x4093_5dc3_d68a_7477,
        0x66cf_e8cf_be58_3925,
        0xafca_3a25_366b_feb5,
        0x61c0_4970_d347_7482,
    ],
    [
        0x2eb5_eff9_147c_3191,
        0x676d_23f5_2b51_ee23,
        0xd087_ea47_b5e0_91c5,
        0x54b6_6e91_66b6_34ea,
        0xf34c_c228_dbc1_6f72,
        0x2add_46cc_6bd7_795a,
    ],
    [
        0x1433_b22c_53c5_0799,
        0x702b_3bba_4a21_093f,
        0xd3a3_c0d5_42ba_0fba,
        0x7d78_8d6b_f7de_b3e9,
        0x1433_b22c_53c5_0799,
        0x702b_3bba_4a21_093f,
    ],
    [
        0x078d_a317_eff5_2ef6,
        0x2381_9f72_83c6_0aa0,
        0x078d_a317_eff5_2ef6,
        0x2381_9f72_83c6_0aa0,
        0xd04b_1623_edba_9e70,
        0xc1a0_e865_6e37_5670,
    ],
    [
        0x6ece_5488_6f7d_dc45,
        0x6ece_5488_6f7d_dc45,
        0x6ece_5488_6f7d_dc45,
        0x6ece_5488_6f7d_dc45,
        0x6ece_5488_6f7d_dc45,
        0x6ece_5488_6f7d_dc45,
    ],
];

#[test]
fn time_plane_matches_golden_digests() {
    let bytes = lineitem_file(TpchConfig {
        rows_per_group: 3000,
        row_groups: 4,
        seed: 0x601D,
    });
    let got: Vec<[u64; 6]> = QUERIES
        .iter()
        .map(|&(sql, agg)| run(&bytes, sql, agg))
        .collect();
    for (i, ((sql, _), want)) in QUERIES.iter().zip(GOLDEN).enumerate() {
        assert_eq!(
            got[i], want,
            "time plane moved for query {i} ({sql}); all digests: {got:#x?}"
        );
    }
}
