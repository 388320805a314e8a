//! End-to-end erasure-code regression: the full object lifecycle — put,
//! node failures, degraded query, scrub, recovery — must produce
//! identical results whatever the number of encode threads.
//!
//! The parameterized helper runs the lifecycle once per thread count
//! (and under both query executors) and the test asserts the outputs are
//! equal field-by-field, so any divergence in the parallel encode shows
//! up as a user-visible result diff, not just a unit-test failure. The
//! kernels themselves are pinned fast-vs-scalar by `fusion-ec`'s
//! differential suites.

use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::query::QueryResult;
use fusion_core::store::Store;
use fusion_format::prelude::*;

fn test_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("orderkey", LogicalType::Int64),
        Field::new("amount", LogicalType::Float64),
        Field::new("flag", LogicalType::Utf8),
    ]);
    Table::new(
        schema,
        vec![
            ColumnData::Int64((0..rows as i64).map(|i| i.wrapping_mul(37)).collect()),
            ColumnData::Float64((0..rows).map(|i| (i % 500) as f64 + 0.5).collect()),
            ColumnData::Utf8((0..rows).map(|i| ["N", "O", "F"][i % 3].into()).collect()),
        ],
    )
    .unwrap()
}

const QUERIES: &[&str] = &[
    "SELECT orderkey FROM t WHERE flag = 'O'",
    "SELECT amount, flag FROM t WHERE amount < 100.0",
    "SELECT count(*), sum(amount) FROM t WHERE flag != 'N'",
];

/// Everything observable from one lifecycle run.
#[derive(Debug, PartialEq)]
struct LifecycleOutcome {
    healthy_results: Vec<QueryResult>,
    degraded_results: Vec<QueryResult>,
    scrub_degraded: usize,
    scrub_clean_after_recovery: bool,
    recovered_results: Vec<QueryResult>,
    final_bytes: Vec<u8>,
}

/// put → query → fail m nodes → degraded query → scrub → recover →
/// scrub again → query → get, all under one thread count and query mode.
fn run_lifecycle(mode: QueryMode, threads: usize) -> LifecycleOutcome {
    let bytes = write_table(
        &test_table(3000),
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut cfg = match mode {
        QueryMode::Reassemble => StoreConfig::baseline().with_block_size(16 << 10),
        _ => StoreConfig::fusion(),
    };
    cfg.query_mode = mode;
    cfg.overhead_threshold = 0.9;
    let mut store = Store::new(cfg.with_ec_threads(threads)).unwrap();
    store.put("t", bytes.clone()).unwrap();

    let healthy_results: Vec<QueryResult> = QUERIES
        .iter()
        .map(|sql| store.query(sql).expect(sql).result)
        .collect();

    // Lose m = n − k nodes: every stripe that touched them reads degraded.
    let m = store.config().ec.n - store.config().ec.k;
    let failed: Vec<usize> = (0..m).collect();
    for &node in &failed {
        store.fail_node(node).unwrap();
    }
    let degraded_results: Vec<QueryResult> = QUERIES
        .iter()
        .map(|sql| store.query(sql).expect(sql).result)
        .collect();

    // Scrub sees the down nodes as degraded stripes, nothing corrupt.
    let scrub = store.scrub();
    assert!(
        scrub.is_clean(),
        "{threads}/{mode:?}: scrub found corruption"
    );

    for &node in &failed {
        store.recover_node(node).unwrap();
    }
    let after = store.scrub();
    let recovered_results: Vec<QueryResult> = QUERIES
        .iter()
        .map(|sql| store.query(sql).expect(sql).result)
        .collect();
    let final_bytes = store.get("t", 0, bytes.len() as u64).unwrap();
    assert_eq!(final_bytes, bytes, "{threads}/{mode:?}: bytes corrupted");

    LifecycleOutcome {
        healthy_results,
        degraded_results,
        scrub_degraded: scrub.stripes_degraded,
        scrub_clean_after_recovery: after.is_clean() && after.stripes_degraded == 0,
        recovered_results,
        final_bytes,
    }
}

#[test]
fn lifecycle_identical_across_threads_fusion_executor() {
    let parallel = run_lifecycle(QueryMode::AdaptivePushdown, 2);
    let serial = run_lifecycle(QueryMode::AdaptivePushdown, 1);
    assert!(
        parallel.scrub_degraded > 0,
        "failures must degrade some stripes"
    );
    assert!(parallel.scrub_clean_after_recovery);
    assert_eq!(parallel, serial);
}

#[test]
fn lifecycle_identical_across_threads_baseline_executor() {
    let parallel = run_lifecycle(QueryMode::Reassemble, 4);
    let serial = run_lifecycle(QueryMode::Reassemble, 1);
    assert!(parallel.scrub_clean_after_recovery);
    assert_eq!(parallel, serial);
}

#[test]
fn degraded_results_match_healthy_results() {
    // Within one run, degraded reads must be invisible to queries.
    let out = run_lifecycle(QueryMode::AdaptivePushdown, 2);
    assert_eq!(out.healthy_results, out.degraded_results);
    assert_eq!(out.healthy_results, out.recovered_results);
}
