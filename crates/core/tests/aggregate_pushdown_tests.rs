//! Tests for the aggregate-pushdown extension (the paper's §5 future
//! work): results must match the coordinator-side aggregation paths bit
//! for bit, and traffic must shrink dramatically for aggregate-only
//! queries.

mod common;

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
            // Not dyadic: float sums round differently if their
            // association order changes.
            ColumnData::Float64((0..rows).map(|i| (i % 977) as f64 * 1.5 + 0.1).collect()),
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

#[test]
fn answer_path_matches_query_as() {
    common::answer_matches_query_as(|mode| store(true, mode), AGG_QUERIES);
}

/// An aggregate in a form whose `==` is bitwise: floats by `to_bits`.
#[derive(Debug, PartialEq)]
enum Bits {
    Int(i64),
    Float(u64),
    Str(String),
}

fn aggregate_bits(out: &fusion_core::query::QueryOutput) -> (usize, Vec<(String, Bits)>) {
    let bits = out
        .result
        .aggregates
        .iter()
        .map(|(label, v)| {
            let b = match v {
                Value::Int(x) => Bits::Int(*x),
                Value::Float(x) => Bits::Float(x.to_bits()),
                Value::Str(s) => Bits::Str(s.clone()),
            };
            (label.clone(), b)
        })
        .collect();
    (out.result.row_count, bits)
}

#[test]
fn pushed_aggregates_match_coordinator_aggregates() {
    let with = store(true, QueryMode::AdaptivePushdown);
    let without = store(false, QueryMode::AdaptivePushdown);
    let baseline = store(false, QueryMode::Reassemble);
    for sql in AGG_QUERIES {
        let pushed = aggregate_bits(&with.query(sql).expect(sql));
        assert_eq!(
            pushed,
            aggregate_bits(&without.query(sql).expect(sql)),
            "pushed vs local: {sql}"
        );
        assert_eq!(
            pushed,
            aggregate_bits(&baseline.query(sql).expect(sql)),
            "pushed vs baseline: {sql}"
        );
    }
}

/// Each pushed partial is priced by its own row group: a string MIN
/// ships that row group's minimum, whatever the running or final one.
#[test]
fn string_extreme_partials_are_sized_per_row_group() {
    let schema = Schema::new(vec![Field::new("cat", LogicalType::Utf8)]);
    let cat = ["a", "z", "bbbbbbbb", "cccccccc"];
    let t = Table::new(
        schema,
        vec![ColumnData::Utf8(
            cat.iter().map(|s| s.to_string()).collect(),
        )],
    )
    .unwrap();
    let bytes = write_table(&t, WriteOptions { rows_per_group: 2 }).unwrap();
    let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(true);
    cfg.overhead_threshold = 0.9;
    let mut s = Store::new(cfg).unwrap();
    s.put("t", bytes).unwrap();
    let out = s.query("SELECT min(cat) FROM t").unwrap();
    assert_eq!(out.result.aggregates[0].1, Value::Str("a".into()));
    let fm = s.object("t").unwrap().file_meta.clone().unwrap();
    let wire: Vec<u64> = out
        .decisions
        .iter()
        .map(|d| {
            let len = fm.chunk(d.row_group, d.column).unwrap().len;
            (d.cost_product * len as f64).round() as u64
        })
        .collect();
    // A 16-byte tag plus "a", then plus "bbbbbbbb".
    assert_eq!(wire, vec![17, 24]);
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
