//! Tests for the aggregate-pushdown extension (the paper's §5 future
//! work): results must match the coordinator-side aggregation paths, and
//! traffic must shrink dramatically for aggregate-only queries.

use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::error::StoreError;
use fusion_core::store::Store;
use fusion_format::prelude::*;
use fusion_sql::error::SqlError;

fn table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", LogicalType::Int64),
        Field::new("price", LogicalType::Float64),
        Field::new("cat", LogicalType::Utf8),
    ]);
    Table::new(
        schema,
        vec![
            ColumnData::Int64(
                (0..rows as i64)
                    .map(|i| i.wrapping_mul(48_271) % 10_000)
                    .collect(),
            ),
            ColumnData::Float64((0..rows).map(|i| (i % 977) as f64 * 1.5 + 0.25).collect()),
            ColumnData::Utf8(
                (0..rows)
                    .map(|i| ["a", "b", "c", "d"][i % 4].into())
                    .collect(),
            ),
        ],
    )
    .unwrap()
}

fn store(agg_pd: bool, mode: QueryMode) -> Store {
    let bytes = write_table(
        &table(4000),
        WriteOptions {
            rows_per_group: 800,
        },
    )
    .unwrap();
    let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(agg_pd);
    cfg.query_mode = mode;
    cfg.overhead_threshold = 0.9;
    cfg.cluster.cost = cfg.cluster.cost.clone().scaled_down(1000.0);
    let mut s = Store::new(cfg).unwrap();
    s.put("t", bytes).unwrap();
    s
}

const AGG_QUERIES: &[&str] = &[
    "SELECT count(*) FROM t WHERE cat = 'a'",
    "SELECT sum(k) FROM t WHERE k < 5000",
    "SELECT min(k), max(k), count(k) FROM t WHERE cat != 'd'",
    "SELECT avg(price), count(*) FROM t WHERE price < 500.0",
    "SELECT min(cat), max(cat) FROM t WHERE k >= 0",
    "SELECT sum(k), avg(k) FROM t",
];

fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
        _ => a == b,
    }
}

#[test]
fn pushed_aggregates_match_coordinator_aggregates() {
    let with = store(true, QueryMode::AdaptivePushdown);
    let without = store(false, QueryMode::AdaptivePushdown);
    let baseline = store(false, QueryMode::Reassemble);
    for sql in AGG_QUERIES {
        let a = with.query(sql).expect(sql);
        let b = without.query(sql).expect(sql);
        let c = baseline.query(sql).expect(sql);
        assert_eq!(a.result.row_count, b.result.row_count, "{sql}");
        assert_eq!(
            a.result.aggregates.len(),
            b.result.aggregates.len(),
            "{sql}"
        );
        for (i, (label, v)) in a.result.aggregates.iter().enumerate() {
            assert_eq!(label, &b.result.aggregates[i].0, "{sql}");
            // Float sums may differ in grouping order only.
            assert!(
                values_close(v, &b.result.aggregates[i].1),
                "{sql}: {label} pushed={v:?} local={:?}",
                b.result.aggregates[i].1
            );
            assert!(
                values_close(v, &c.result.aggregates[i].1),
                "{sql}: {label} pushed={v:?} baseline={:?}",
                c.result.aggregates[i].1
            );
        }
    }
}

#[test]
fn pushed_aggregates_move_fewer_bytes() {
    let with = store(true, QueryMode::AdaptivePushdown);
    let without = store(false, QueryMode::AdaptivePushdown);
    // avg over a poorly-compressible float column with ~50% selectivity:
    // without aggregate pushdown the coordinator must receive either the
    // selected values or the compressed chunks; with it, 24 bytes/chunk.
    let sql = "SELECT avg(price) FROM t WHERE price < 733.0";
    let a = with.query(sql).unwrap();
    let b = without.query(sql).unwrap();
    assert!(
        a.net_bytes * 3 < b.net_bytes,
        "expected large traffic cut: with={} without={}",
        a.net_bytes,
        b.net_bytes
    );
    // And the simulated latency improves too.
    assert!(with.simulate_solo(&a.workflow) <= without.simulate_solo(&b.workflow));
}

#[test]
fn mixed_queries_bypass_aggregate_pushdown() {
    // A query that also projects raw columns cannot use the aggregate
    // fast path; it must still be correct.
    let with = store(true, QueryMode::AdaptivePushdown);
    let without = store(false, QueryMode::AdaptivePushdown);
    let sql = "SELECT cat, count(*) FROM t WHERE k < 100";
    let a = with.query(sql).unwrap();
    let b = without.query(sql).unwrap();
    assert_eq!(a.result, b.result);
    assert!(!a.result.columns.is_empty());
}

#[test]
fn zero_match_aggregates_fall_back() {
    let with = store(true, QueryMode::AdaptivePushdown);
    let without = store(false, QueryMode::AdaptivePushdown);
    let sql = "SELECT count(*), sum(price) FROM t WHERE cat = 'zzz'";
    let a = with.query(sql).unwrap();
    let b = without.query(sql).unwrap();
    assert_eq!(a.result, b.result);
    assert_eq!(a.result.aggregates[0].1, Value::Int(0));
}

#[test]
fn decisions_report_pushed_aggregates() {
    let with = store(true, QueryMode::AdaptivePushdown);
    let out = with
        .query("SELECT avg(price) FROM t WHERE k < 5000")
        .unwrap();
    assert!(!out.decisions.is_empty());
    assert!(out.decisions.iter().all(|d| d.pushed_down));
    // Partials are tiny relative to chunks.
    assert!(out.decisions.iter().all(|d| d.cost_product < 0.5));
}

/// Ungrouped integer SUM past `i64` is a typed error on every path —
/// never a wrapped total (release) or a panic (debug) — and AVG over the
/// same rows is exact: its sum is taken wide enough not to overflow.
#[test]
fn ungrouped_sum_overflow_is_typed_error() {
    let schema = Schema::new(vec![Field::new("v", LogicalType::Int64)]);
    let t = Table::new(schema, vec![ColumnData::Int64(vec![i64::MAX; 64])]).unwrap();
    let bytes = write_table(&t, WriteOptions { rows_per_group: 32 }).unwrap();
    for (agg_pd, mode) in [
        (true, QueryMode::AdaptivePushdown),
        (false, QueryMode::AdaptivePushdown),
        (false, QueryMode::Reassemble),
    ] {
        let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(agg_pd);
        cfg.query_mode = mode;
        let mut s = Store::new(cfg).unwrap();
        s.put("t", bytes.clone()).unwrap();
        let err = s.query("SELECT sum(v) FROM t").unwrap_err();
        assert!(
            matches!(err, StoreError::Sql(SqlError::Overflow(_))),
            "{mode:?} (aggregate pushdown {agg_pd}): expected typed overflow, got {err:?}"
        );
        let avg = s.query("SELECT avg(v) FROM t").unwrap();
        match avg.result.aggregates[0].1 {
            Value::Float(x) => assert_eq!(
                x.to_bits(),
                (i64::MAX as f64).to_bits(),
                "{mode:?} (aggregate pushdown {agg_pd}): avg = {x}"
            ),
            ref other => panic!("avg returned {other:?}"),
        }
    }
}
