//! Lockdown of both executors' time planes: for a fixed query set over a
//! fixed seeded lineitem object, every modelled quantity — the workflow
//! DAG, network bytes, per-chunk pushdown decisions and the chunk-access
//! counters — must hash to the digests below.
//!
//! The Fusion digests were captured before the default path's data plane
//! moved onto encoded chunk views (encoded GROUP BY, folded aggregates,
//! late-materialized projections); the baseline digests before its
//! fragment loop and output tail moved into helpers shared with Fusion.
//! The last query's digests (two leaves on one column) were captured
//! while the filter stage still fanned its scans out over a worker pool.
//! On a cold cache both leaves miss, because the filter stage caches the
//! views it parsed only after every leaf's lookup.
//! The code may change how answers are computed and how steps are built;
//! it must not change what the time plane charges, so every paper figure
//! stays put.

use fusion_core::config::StoreConfig;
use fusion_core::query::QueryOutput;
use fusion_core::store::Store;
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

/// `(sql, aggregate pushdown on)`.
const QUERIES: [(&str, bool); 11] = [
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
    // Two leaves on one column: on a cold cache both miss.
    (
        "SELECT sum(extendedprice) FROM lineitem WHERE shipdate >= '1994-01-01' \
         AND shipdate < '1995-01-01'",
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
/// coordinator) that between them host chunks — under the baseline's
/// 16 KiB blocks, chunk fragments — of every column the queries touch,
/// so each stage meets degraded chunks.
const FAILED: [Option<usize>; 3] = [None, Some(2), Some(5)];

/// Digests of one query run cold then warm under each entry of
/// [`FAILED`] on a store built from `cfg`: `[healthy cold, healthy warm,
/// node 2 cold, …]`.
fn run(bytes: &[u8], sql: &str, cfg: &StoreConfig) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (i, failed) in FAILED.into_iter().enumerate() {
        let mut store = Store::new(cfg.clone()).unwrap();
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

/// Fusion, captured before the encoded-view data plane; one row per
/// query in [`QUERIES`] order.
const GOLDEN: [[u64; 6]; 11] = [
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
    [
        0x4517_aac5_b712_0ba7,
        0x94f6_6d14_be7a_bdd8,
        0x6586_a76f_a998_e742,
        0xa9ca_bcb9_9751_95f7,
        0x2035_bb9e_c818_9002,
        0x0647_b2f9_9ff8_0276,
    ],
];

/// The baseline (reassemble at the coordinator, 16 KiB fixed blocks so
/// chunks split across nodes), captured before its fragment loop and
/// output tail moved into shared helpers; one row per query in
/// [`QUERIES`] order.
const BASELINE_GOLDEN: [[u64; 6]; 11] = [
    [
        0x2493_81ba_a750_b485,
        0x2493_81ba_a750_b485,
        0x50b1_caa4_e7e6_e1ed,
        0x50b1_caa4_e7e6_e1ed,
        0xa9e7_ca95_b2a8_0065,
        0xa9e7_ca95_b2a8_0065,
    ],
    [
        0x257b_ebb3_9cfb_f10e,
        0x257b_ebb3_9cfb_f10e,
        0xa70e_59a6_1c86_cf12,
        0xa70e_59a6_1c86_cf12,
        0x3bc5_ed8f_5d71_e51f,
        0x3bc5_ed8f_5d71_e51f,
    ],
    [
        0x11aa_b831_5401_53bf,
        0x11aa_b831_5401_53bf,
        0xe5d2_64e9_7a6f_650b,
        0xe5d2_64e9_7a6f_650b,
        0x98fc_851e_7f76_dd49,
        0x98fc_851e_7f76_dd49,
    ],
    [
        0xc861_d237_f12d_e19d,
        0xc861_d237_f12d_e19d,
        0x6be5_b6e5_d7c4_dacc,
        0x6be5_b6e5_d7c4_dacc,
        0x9c64_991f_27e1_c3a5,
        0x9c64_991f_27e1_c3a5,
    ],
    [
        0x64ca_709c_c8f7_c13c,
        0x64ca_709c_c8f7_c13c,
        0x2bd1_05c7_18c6_e54e,
        0x2bd1_05c7_18c6_e54e,
        0xa152_02e9_c0c6_fdc4,
        0xa152_02e9_c0c6_fdc4,
    ],
    [
        0xef73_db01_e96b_86d8,
        0xef73_db01_e96b_86d8,
        0x178c_c1b4_3892_5478,
        0x178c_c1b4_3892_5478,
        0xd2a7_61fa_0d59_05e3,
        0xd2a7_61fa_0d59_05e3,
    ],
    [
        0x2e2a_06e2_67af_7b02,
        0x2e2a_06e2_67af_7b02,
        0x03f5_d9d1_4bb1_2749,
        0x03f5_d9d1_4bb1_2749,
        0xc91a_ae17_14c3_b0f2,
        0xc91a_ae17_14c3_b0f2,
    ],
    [
        0xb003_d03b_6e2f_99ea,
        0xb003_d03b_6e2f_99ea,
        0x0feb_2399_c58c_525b,
        0x0feb_2399_c58c_525b,
        0x1d20_6c87_55eb_1d60,
        0x1d20_6c87_55eb_1d60,
    ],
    [
        0x3eb0_9e92_2418_7801,
        0x3eb0_9e92_2418_7801,
        0xa3cb_accf_b295_fccd,
        0xa3cb_accf_b295_fccd,
        0x0d1b_8e3b_2fea_90f7,
        0x0d1b_8e3b_2fea_90f7,
    ],
    [
        0xeb6e_862d_a613_1f7c,
        0xeb6e_862d_a613_1f7c,
        0xeb6e_862d_a613_1f7c,
        0xeb6e_862d_a613_1f7c,
        0xeb6e_862d_a613_1f7c,
        0xeb6e_862d_a613_1f7c,
    ],
    [
        0xdfb3_5779_b2f3_3cae,
        0xdfb3_5779_b2f3_3cae,
        0x7626_e72c_b543_49c3,
        0x7626_e72c_b543_49c3,
        0x7da6_9c0f_886e_bce2,
        0x7da6_9c0f_886e_bce2,
    ],
];

fn lineitem() -> Vec<u8> {
    lineitem_file(TpchConfig {
        rows_per_group: 3000,
        row_groups: 4,
        seed: 0x601D,
    })
}

fn check(got: &[[u64; 6]], golden: &[[u64; 6]; 11]) {
    for (i, ((sql, _), want)) in QUERIES.iter().zip(golden).enumerate() {
        assert_eq!(
            &got[i], want,
            "time plane moved for query {i} ({sql}); all digests: {got:#x?}"
        );
    }
}

#[test]
fn time_plane_matches_golden_digests() {
    let bytes = lineitem();
    let got: Vec<[u64; 6]> = QUERIES
        .iter()
        .map(|&(sql, agg)| {
            let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(agg);
            // Keep the small test object under FAC (whole chunks).
            cfg.overhead_threshold = 0.9;
            run(&bytes, sql, &cfg)
        })
        .collect();
    check(&got, &GOLDEN);
}

#[test]
fn baseline_time_plane_matches_golden_digests() {
    let bytes = lineitem();
    let cfg = StoreConfig::baseline().with_block_size(16 << 10);
    let got: Vec<[u64; 6]> = QUERIES
        .iter()
        .map(|&(sql, _)| run(&bytes, sql, &cfg))
        .collect();
    check(&got, &BASELINE_GOLDEN);
}
