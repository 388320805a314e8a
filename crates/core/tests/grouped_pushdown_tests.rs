//! End-to-end tests for encoded-domain GROUP BY pushdown: grouped
//! results must be *identical* (bit-for-bit, floats included) across the
//! pushdown executor, its coordinator fallback, and the reassembling
//! baseline — and the pushdown path must ship keyed partial states, not
//! rows, cutting wire traffic by an order of magnitude at low group
//! cardinality.

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
        Field::new("bucket", LogicalType::Int64),
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
            // A low-cardinality, heavily-run integer key (RLE-friendly).
            ColumnData::Int64((0..rows).map(|i| (i / 640) as i64).collect()),
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
    cfg.cluster.cost = cfg.cluster.cost.clone().scaled_down(1000.0);
    let mut s = Store::new(cfg).unwrap();
    s.put("t", bytes).unwrap();
    s
}

const GROUPED_QUERIES: &[&str] = &[
    "SELECT cat, count(*) FROM t GROUP BY cat",
    "SELECT cat, count(*), sum(price) FROM t WHERE k < 5000 GROUP BY cat",
    "SELECT cat, min(k), max(k), avg(price) FROM t WHERE cat != 'd' GROUP BY cat",
    "SELECT bucket, sum(k), count(k) FROM t WHERE price < 733.0 GROUP BY bucket",
    "SELECT cat, min(cat), max(cat), count(cat) FROM t GROUP BY cat",
    "SELECT count(*), avg(k) FROM t WHERE k >= 0 GROUP BY cat",
    "SELECT cat, bucket, count(*), sum(price) FROM t WHERE k < 8000 GROUP BY cat, bucket",
    "SELECT cat, count(*) FROM t WHERE cat = 'zzz' GROUP BY cat",
];

/// Every executor path — encoded pushdown, coordinator fallback
/// (pushdown off), and the reassembling baseline — must produce exactly
/// the same grouped rows. Floats accumulate per-row in row order on all
/// three paths, so this equality is bitwise, not approximate.
#[test]
fn grouped_results_identical_across_executors() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    let fallback = store(false, QueryMode::AdaptivePushdown);
    let baseline = store(false, QueryMode::Reassemble);
    for sql in GROUPED_QUERIES {
        let a = pushed.query(sql).expect(sql);
        let b = fallback.query(sql).expect(sql);
        let c = baseline.query(sql).expect(sql);
        assert_eq!(a.result, b.result, "pushdown vs fallback: {sql}");
        assert_eq!(a.result, c.result, "pushdown vs baseline: {sql}");
        assert!(a.result.aggregates.is_empty(), "{sql}");
    }
}

/// At low group cardinality the wire carries a handful of
/// `(group_key, PartialAgg)` states per node instead of rows or chunks:
/// at least a 10x cut against the reassembling baseline.
#[test]
fn grouped_pushdown_moves_10x_fewer_bytes() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    let fallback = store(false, QueryMode::AdaptivePushdown);
    let baseline = store(false, QueryMode::Reassemble);
    let sql = "SELECT cat, count(*), sum(price), avg(price) FROM t WHERE k < 5000 GROUP BY cat";
    let a = pushed.query(sql).unwrap();
    let b = baseline.query(sql).unwrap();
    let c = fallback.query(sql).unwrap();
    assert!(
        a.net_bytes * 10 <= b.net_bytes,
        "expected >=10x wire cut vs baseline: pushed={} baseline={}",
        a.net_bytes,
        b.net_bytes
    );
    assert!(
        a.net_bytes < c.net_bytes,
        "expected wire cut vs coordinator fallback: pushed={} fallback={}",
        a.net_bytes,
        c.net_bytes
    );
    // The simulated latency improves too.
    assert!(pushed.simulate_solo(&a.workflow) <= baseline.simulate_solo(&b.workflow));
}

/// Grouped queries keep the chunk-accounting conservation invariant and
/// report their per-chunk pushdown decisions.
#[test]
fn grouped_accounting_conserves_and_reports_decisions() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    let sql = "SELECT cat, count(*), sum(price) FROM t WHERE k < 5000 GROUP BY cat";
    let out = pushed.query(sql).unwrap();
    assert_eq!(
        out.pruned_chunks + out.cache_hits + out.cache_misses,
        out.chunks_considered,
        "conservation"
    );
    assert!(!out.decisions.is_empty());
    assert!(out.decisions.iter().all(|d| d.pushed_down));
    // Keyed states are tiny relative to the wide argument chunks they
    // summarize (the dict/RLE key chunk is itself only a few dozen
    // bytes, so its ratio is allowed to be ~1).
    assert!(out.decisions.iter().any(|d| d.cost_product < 0.1));
    assert!(out.decisions.iter().all(|d| d.cost_product < 4.0));
}

/// A dead node routes the affected row groups through the degraded
/// coordinator fallback without changing the answer.
#[test]
fn grouped_degraded_node_still_correct() {
    let mut pushed = store(true, QueryMode::AdaptivePushdown);
    let sql = "SELECT cat, count(*), sum(price), min(k) FROM t WHERE k < 5000 GROUP BY cat";
    let before = pushed.query(sql).unwrap();
    pushed.fail_node(3).unwrap();
    let degraded = pushed.query(sql).unwrap();
    assert_eq!(before.result, degraded.result);
    pushed.recover_node(3).unwrap();
    let after = pushed.query(sql).unwrap();
    assert_eq!(before.result, after.result);
}

/// SUM over values that exceed `i64` range is a typed overflow error on
/// every executor path, not a silent wrap.
#[test]
fn grouped_sum_overflow_is_typed_error() {
    let schema = Schema::new(vec![
        Field::new("g", LogicalType::Utf8),
        Field::new("v", LogicalType::Int64),
    ]);
    let t = Table::new(
        schema,
        vec![
            ColumnData::Utf8((0..64).map(|_| "x".to_string()).collect()),
            ColumnData::Int64(vec![i64::MAX; 64]),
        ],
    )
    .unwrap();
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
        let err = s.query("SELECT g, sum(v) FROM t GROUP BY g").unwrap_err();
        assert!(
            matches!(err, StoreError::Sql(SqlError::Overflow(_))),
            "expected typed overflow, got {err:?}"
        );
    }
}

/// `COUNT(col)` and `COUNT(*)` agree per group end-to-end (the format
/// has no NULLs).
#[test]
fn grouped_count_col_equals_count_star() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    let out = pushed
        .query("SELECT cat, count(*), count(k) FROM t WHERE k < 7000 GROUP BY cat")
        .unwrap();
    let star = &out.result.columns[1];
    let col = &out.result.columns[2];
    assert_eq!(star.0, "count(*)");
    assert_eq!(col.0, "count(k)");
    assert_eq!(star.1, col.1);
}

/// Zero matches yield zero groups: named, typed, empty output columns.
#[test]
fn grouped_zero_matches_yield_no_groups() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    let out = pushed
        .query("SELECT cat, count(*) FROM t WHERE k < -1 GROUP BY cat")
        .unwrap();
    assert_eq!(out.result.row_count, 0);
    assert_eq!(out.result.columns.len(), 2);
    assert_eq!(out.result.columns[0].1.len(), 0);
    assert_eq!(out.result.columns[1].1.len(), 0);
}

/// The pushdown path advances the grouped-aggregation metrics.
#[test]
fn grouped_metrics_counters_advance() {
    let pushed = store(true, QueryMode::AdaptivePushdown);
    pushed
        .query("SELECT cat, count(*), sum(price) FROM t GROUP BY cat")
        .unwrap();
    assert!(pushed.metrics().counter("agg_groups_emitted").get() > 0);
    assert!(pushed.metrics().counter("agg_wire_bytes_saved").get() > 0);
}

/// An aggregate answer in a form whose `==` is bitwise (`-0.0` is not
/// `0.0`), except that every NaN is one value.
fn answer_bits(v: Value) -> Value {
    match v {
        Value::Float(x) if x.is_nan() => Value::Int(-1),
        Value::Float(x) => Value::Int(x.to_bits() as i64),
        other => other,
    }
}

/// One group's aggregate equals the ungrouped aggregate over the same
/// rows, bit for bit, on every executor. One row group with one key
/// value holding values that separate the accumulators: integers whose
/// f64 sum rounds away (`2^60 + 1 − 2^60`), a NaN ahead of the float
/// extremes, and nothing but `-0.0`.
#[test]
fn grouped_and_ungrouped_aggregates_agree() {
    let schema = Schema::new(vec![
        Field::new("k", LogicalType::Int64),
        Field::new("i", LogicalType::Int64),
        Field::new("f", LogicalType::Float64),
        Field::new("z", LogicalType::Float64),
    ]);
    let t = Table::new(
        schema,
        vec![
            ColumnData::Int64(vec![7; 3]),
            ColumnData::Int64(vec![1 << 60, 1, -(1 << 60)]),
            ColumnData::Float64(vec![f64::NAN, 1.0, 2.0]),
            ColumnData::Float64(vec![-0.0; 3]),
        ],
    )
    .unwrap();
    let bytes = write_table(&t, WriteOptions { rows_per_group: 3 }).unwrap();
    let mut differ = Vec::new();
    for (agg_pd, mode) in [
        (false, QueryMode::AdaptivePushdown),
        (true, QueryMode::AdaptivePushdown),
        (false, QueryMode::Reassemble),
    ] {
        let mut cfg = StoreConfig::fusion().with_aggregate_pushdown(agg_pd);
        cfg.query_mode = mode;
        let mut s = Store::new(cfg).unwrap();
        s.put("t", bytes.clone()).unwrap();
        for func in ["count", "sum", "avg", "min", "max"] {
            for col in ["i", "f", "z"] {
                let agg = format!("{func}({col})");
                let flat = s.query(&format!("SELECT {agg} FROM t")).expect(&agg);
                let grouped = s
                    .query(&format!("SELECT k, {agg} FROM t GROUP BY k"))
                    .expect(&agg);
                let (label, column) = &grouped.result.columns[1];
                assert_eq!(label, &agg);
                assert_eq!(column.len(), 1, "{agg}: one group");
                let want = answer_bits(flat.result.aggregates[0].1.clone());
                if answer_bits(column.value(0)) != want {
                    differ.push(format!("{mode:?}, aggregate pushdown {agg_pd}: {agg}"));
                }
            }
        }
    }
    assert!(differ.is_empty(), "grouped answers differ: {differ:#?}");
}
