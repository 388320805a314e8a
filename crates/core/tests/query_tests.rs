//! End-to-end query tests: Fusion vs baseline result parity, pushdown
//! decisions, pruning, selectivity, and traffic accounting.

mod common;

use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::store::Store;
use fusion_core::QueryResult;
use fusion_format::prelude::*;

/// A small synthetic "lineitem-like" table: one well-compressed flag
/// column, one poorly-compressed key column, a float amount, and a date.
fn test_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("orderkey", LogicalType::Int64),
        Field::new("amount", LogicalType::Float64),
        Field::new("flag", LogicalType::Utf8),
        Field::new("shipdate", LogicalType::Date),
    ]);
    Table::new(
        schema,
        vec![
            ColumnData::Int64(
                (0..rows as i64)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect(),
            ),
            ColumnData::Float64((0..rows).map(|i| (i % 1000) as f64 + 0.25).collect()),
            ColumnData::Utf8((0..rows).map(|i| ["N", "O", "F"][i % 3].into()).collect()),
            ColumnData::Int64((0..rows).map(|i| 9_000 + (i % 2500) as i64).collect()),
        ],
    )
    .unwrap()
}

fn store_with(mode: QueryMode, table: &Table, per_group: usize) -> Store {
    let mut cfg = match mode {
        QueryMode::Reassemble => StoreConfig::baseline().with_block_size(16 << 10),
        _ => StoreConfig::fusion(),
    };
    cfg.query_mode = mode;
    store_from(cfg, table, per_group)
}

fn store_from(mut cfg: StoreConfig, table: &Table, per_group: usize) -> Store {
    let bytes = write_table(
        table,
        WriteOptions {
            rows_per_group: per_group,
        },
    )
    .unwrap();
    cfg.overhead_threshold = 0.9; // small test files have few chunks
                                  // Scale the cost model as the bench harness does: these tables are
                                  // ~1000x smaller than production files, so throughput rates shrink to
                                  // keep fixed costs (RPC, disk access) in proportion.
    cfg.cluster.cost = cfg.cluster.cost.clone().scaled_down(1000.0);
    let mut store = Store::new(cfg).unwrap();
    store.put("t", bytes).unwrap();
    store
}

const QUERIES: &[&str] = &[
    "SELECT orderkey FROM t WHERE flag = 'O'",
    "SELECT amount FROM t WHERE orderkey >= 0 AND amount < 10.0",
    "SELECT flag, amount FROM t WHERE shipdate < '1995-01-01'",
    "SELECT count(*) FROM t WHERE flag != 'N'",
    "SELECT avg(amount), count(*) FROM t WHERE amount >= 500.25",
    "SELECT orderkey FROM t",
    "SELECT flag FROM t WHERE flag = 'Z'", // zero matches
    "SELECT sum(orderkey) FROM t WHERE orderkey < 0 OR flag = 'F'",
    "SELECT min(shipdate), max(shipdate) FROM t WHERE NOT flag = 'O'",
    "SELECT sum(amount), min(amount), max(amount) FROM t WHERE flag = 'O'",
    // Nothing matches: float SUM -0.0, MIN +inf, MAX -inf, AVG NaN.
    "SELECT sum(amount), min(amount), max(amount), avg(amount) FROM t WHERE amount < 0.0",
    "SELECT flag, count(*), sum(amount), avg(orderkey), min(shipdate) FROM t \
     WHERE amount < 700.0 GROUP BY flag",
    "SELECT flag, shipdate, count(*), max(amount) FROM t WHERE shipdate < '1995-01-01' \
     GROUP BY flag, shipdate",
];

/// A result value in a form whose `==` is bitwise: floats by `to_bits`,
/// so `-0.0` is not `0.0` (`QueryResult`'s own `==` calls them equal).
#[derive(Debug, PartialEq)]
enum Bits {
    Int(Vec<i64>),
    Float(Vec<u64>),
    Str(Vec<String>),
}

fn column_bits(col: &ColumnData) -> Bits {
    match col {
        ColumnData::Int64(v) => Bits::Int(v.clone()),
        ColumnData::Float64(v) => Bits::Float(v.iter().map(|x| x.to_bits()).collect()),
        ColumnData::Utf8(v) => Bits::Str(v.clone()),
    }
}

fn value_bits(v: &Value) -> Bits {
    match v {
        Value::Int(x) => Bits::Int(vec![*x]),
        Value::Float(x) => Bits::Float(vec![x.to_bits()]),
        Value::Str(s) => Bits::Str(vec![s.clone()]),
    }
}

type ResultBits = (usize, Vec<(String, Bits)>, Vec<(String, Bits)>);

fn result_bits(r: &QueryResult) -> ResultBits {
    (
        r.row_count,
        r.columns
            .iter()
            .map(|(n, c)| (n.clone(), column_bits(c)))
            .collect(),
        r.aggregates
            .iter()
            .map(|(n, v)| (n.clone(), value_bits(v)))
            .collect(),
    )
}

#[test]
fn fusion_and_baseline_agree_on_all_queries() {
    let table = test_table(3000);
    let mut fusion = store_with(QueryMode::AdaptivePushdown, &table, 500);
    let mut baseline = store_with(QueryMode::Reassemble, &table, 500);
    let mut always = store_with(QueryMode::AlwaysPushdown, &table, 500);
    // Aggregate pushdown: nodes ship partials for aggregate-only queries.
    let mut pushed = store_from(
        StoreConfig::fusion().with_aggregate_pushdown(true),
        &table,
        500,
    );
    let mut expected = Vec::new();
    for sql in QUERIES {
        let a = fusion.query(sql).expect(sql);
        let b = baseline.query(sql).expect(sql);
        let c = always.query(sql).expect(sql);
        let d = pushed.query(sql).expect(sql);
        let want = result_bits(&b.result);
        assert_eq!(result_bits(&a.result), want, "fusion vs baseline: {sql}");
        assert_eq!(result_bits(&c.result), want, "always vs baseline: {sql}");
        assert_eq!(result_bits(&d.result), want, "pushed vs baseline: {sql}");
        assert!((a.selectivity - b.selectivity).abs() < 1e-12, "{sql}");
        expected.push(want);
    }

    // Degraded: the node holding the first `orderkey` chunk fails in
    // every store; answers are rebuilt from parity and stay bit-identical
    // (pushed aggregates fall back to the coordinator on that node's
    // chunks).
    let node = fusion.object("t").unwrap().chunk_fragments(0)[0].node;
    for store in [&mut fusion, &mut baseline, &mut always, &mut pushed] {
        store.fail_node(node).unwrap();
    }
    for (sql, want) in QUERIES.iter().zip(&expected) {
        for (name, store) in [
            ("fusion", &fusion),
            ("baseline", &baseline),
            ("always", &always),
            ("pushed", &pushed),
        ] {
            let out = store.query(sql).expect(sql);
            assert_eq!(
                &result_bits(&out.result),
                want,
                "{name}, node {node} failed: {sql}"
            );
        }
    }
}

#[test]
fn answer_path_matches_query_as() {
    let table = test_table(3000);
    common::answer_matches_query_as(|mode| store_with(mode, &table, 500), QUERIES);
}

#[test]
fn results_match_brute_force() {
    let table = test_table(2000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 512);
    let out = store
        .query("SELECT amount FROM t WHERE flag = 'O'")
        .unwrap();
    // Brute force over the in-memory table.
    let flags = table.column_by_name("flag").unwrap().as_utf8().unwrap();
    let amounts = table
        .column_by_name("amount")
        .unwrap()
        .as_float64()
        .unwrap();
    let expect: Vec<f64> = flags
        .iter()
        .zip(amounts)
        .filter(|(f, _)| f.as_str() == "O")
        .map(|(_, &a)| a)
        .collect();
    assert_eq!(out.result.row_count, expect.len());
    assert_eq!(out.result.columns[0].1, ColumnData::Float64(expect));
}

#[test]
fn aggregates_match_brute_force() {
    let table = test_table(2000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 512);
    let out = store
        .query("SELECT count(*), avg(amount) FROM t WHERE amount < 100.0")
        .unwrap();
    let amounts = table
        .column_by_name("amount")
        .unwrap()
        .as_float64()
        .unwrap();
    let selected: Vec<f64> = amounts.iter().copied().filter(|&a| a < 100.0).collect();
    assert_eq!(
        out.result.aggregates[0].1,
        Value::Int(selected.len() as i64)
    );
    match out.result.aggregates[1].1 {
        Value::Float(avg) => {
            let expect = selected.iter().sum::<f64>() / selected.len() as f64;
            assert!((avg - expect).abs() < 1e-9);
        }
        ref other => panic!("expected float avg, got {other:?}"),
    }
}

#[test]
fn selectivity_is_exact() {
    let table = test_table(3000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 750);
    let out = store
        .query("SELECT orderkey FROM t WHERE flag = 'N'")
        .unwrap();
    assert!((out.selectivity - 1.0 / 3.0).abs() < 0.01);
    let out = store
        .query("SELECT orderkey FROM t WHERE flag = 'Z'")
        .unwrap();
    assert_eq!(out.selectivity, 0.0);
    assert_eq!(out.result.row_count, 0);
}

#[test]
fn cost_equation_disables_pushdown_for_compressed_high_selectivity() {
    let table = test_table(4000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 1000);
    // flag is 3-valued and dictionary-encoded: compressibility is huge.
    // Selecting ~2/3 of rows makes selectivity × compressibility >> 1, so
    // projecting `flag` must NOT be pushed down.
    let out = store.query("SELECT flag FROM t WHERE flag != 'N'").unwrap();
    let flag_col = 2;
    let flag_decisions: Vec<_> = out
        .decisions
        .iter()
        .filter(|d| d.column == flag_col)
        .collect();
    assert!(!flag_decisions.is_empty());
    for d in &flag_decisions {
        assert!(d.cost_product > 1.0, "product {}", d.cost_product);
        assert!(
            !d.pushed_down,
            "chunk rg={} should not be pushed",
            d.row_group
        );
    }

    // orderkey is nearly incompressible: with ~1/3 selectivity the
    // product stays < 1 and pushdown stays on.
    let out = store
        .query("SELECT orderkey FROM t WHERE flag = 'N'")
        .unwrap();
    let ok_decisions: Vec<_> = out.decisions.iter().filter(|d| d.column == 0).collect();
    assert!(!ok_decisions.is_empty());
    for d in &ok_decisions {
        assert!(
            d.pushed_down,
            "orderkey rg={} should be pushed",
            d.row_group
        );
    }
}

#[test]
fn always_pushdown_ignores_cost_equation() {
    let table = test_table(4000);
    let store = store_with(QueryMode::AlwaysPushdown, &table, 1000);
    let out = store.query("SELECT flag FROM t WHERE flag != 'N'").unwrap();
    assert!(out.decisions.iter().all(|d| d.pushed_down));
}

#[test]
fn fusion_moves_fewer_bytes_on_selective_queries() {
    let table = test_table(6000);
    let fusion = store_with(QueryMode::AdaptivePushdown, &table, 1000);
    let baseline = store_with(QueryMode::Reassemble, &table, 1000);
    // ~0.1% selectivity on the incompressible key column.
    let sql = "SELECT orderkey, amount FROM t WHERE amount < 1.0";
    let f = fusion.query(sql).unwrap();
    let b = baseline.query(sql).unwrap();
    assert_eq!(f.result, b.result);
    assert!(
        f.net_bytes < b.net_bytes,
        "fusion {} >= baseline {}",
        f.net_bytes,
        b.net_bytes
    );
}

#[test]
fn footer_pruning_skips_chunks() {
    let table = test_table(4000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 500);
    // shipdate spans 9000..11500 across row groups of 500 rows; a very
    // early cutoff must prune most row groups.
    let out = store
        .query("SELECT orderkey FROM t WHERE shipdate < '1994-09-01'")
        .unwrap();
    assert!(out.pruned_chunks > 0, "expected pruned chunks");
    // And the result is still correct.
    let dates = table
        .column_by_name("shipdate")
        .unwrap()
        .as_int64()
        .unwrap();
    let cutoff = fusion_sql::date::parse_date("1994-09-01").unwrap();
    let expect = dates.iter().filter(|&&d| d < cutoff).count();
    assert_eq!(out.result.row_count, expect);
}

#[test]
fn simulated_latency_is_positive_and_fusion_wins_selective() {
    let table = test_table(6000);
    let fusion = store_with(QueryMode::AdaptivePushdown, &table, 1000);
    let baseline = store_with(QueryMode::Reassemble, &table, 1000);
    let sql = "SELECT orderkey FROM t WHERE amount < 1.0";
    let f = fusion.query(sql).unwrap();
    let b = baseline.query(sql).unwrap();
    let fl = fusion.simulate_solo(&f.workflow);
    let bl = baseline.simulate_solo(&b.workflow);
    assert!(fl.0 > 0 && bl.0 > 0);
    assert!(
        fl < bl,
        "fusion ({fl}) should beat baseline ({bl}) on a selective query"
    );
}

/// A predicate at the parser's depth cap runs through parse, plan, both
/// executors and drop on a 2 MiB thread, a service worker's default
/// stack, even in a debug build, and answers as its one-level equivalent.
#[test]
fn predicates_at_the_depth_cap_fit_a_worker_stack() {
    let levels = fusion_sql::parser::MAX_PREDICATE_DEPTH;
    assert_eq!(levels % 2, 0, "an even NOT count cancels out");
    let leaf = "flag = 'O'";
    let chain = |op: &str| vec![leaf; levels + 1].join(op);
    let deep = [
        format!("{}{leaf}", "NOT ".repeat(levels)),
        format!("{}{leaf}{}", "(".repeat(levels), ")".repeat(levels)),
        chain(" AND "),
        chain(" OR "),
    ];
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let table = test_table(600);
            for mode in [QueryMode::AdaptivePushdown, QueryMode::Reassemble] {
                let store = store_with(mode, &table, 200);
                for select in [
                    "SELECT orderkey FROM t",
                    "SELECT count(*), sum(orderkey), min(amount) FROM t",
                    "SELECT flag, count(*), avg(amount) FROM t",
                ] {
                    let group_by = if select.contains("flag,") {
                        " GROUP BY flag"
                    } else {
                        ""
                    };
                    let want = store
                        .query(&format!("{select} WHERE {leaf}{group_by}"))
                        .unwrap()
                        .result;
                    for predicate in &deep {
                        let sql = format!("{select} WHERE {predicate}{group_by}");
                        let got = store.query(&sql).expect("a predicate at the cap runs");
                        assert_eq!(got.result, want, "{mode:?}: {}", &sql[..60]);
                    }
                }
            }
        })
        .unwrap()
        .join()
        .expect("no stack overflow");
}

/// Both query paths report the first failing check in one order: the
/// object key, the object, its footer, the SQL, then a live coordinator.
#[test]
fn query_errors() {
    use fusion_core::StoreError;
    let table = test_table(100);
    let mut store = store_with(QueryMode::AdaptivePushdown, &table, 50);
    assert!(store
        .query("SELECT orderkey FROM t WHERE flag < 5")
        .is_err());
    store.put("blob", vec![7u8; 4096]).unwrap();
    let kind = |r: std::result::Result<QueryResult, StoreError>| match r {
        Err(StoreError::InvalidRequest(_)) => "key",
        Err(StoreError::ObjectNotFound(_)) => "missing",
        Err(StoreError::NotAnalytics(_)) => "blob",
        Err(StoreError::Sql(_)) => "sql",
        Err(StoreError::Unavailable(_)) => "unavailable",
        other => panic!("unexpected {other:?}"),
    };
    let check = |store: &Store, object: &str, sql: &str, want: &str| {
        assert_eq!(kind(store.answer(object, sql)), want, "{object}: {sql}");
        assert_eq!(
            kind(store.query_as(object, sql).map(|out| out.result)),
            want,
            "{object}: {sql}"
        );
    };
    for (object, want) in [("", "key"), ("missing", "missing"), ("blob", "blob")] {
        check(&store, object, "not sql at all", want);
    }
    check(&store, "t", "not sql at all", "sql");
    check(&store, "t", "SELECT ghost FROM t", "sql");
    // `query` names the object in its SQL, so it parses first.
    let query = |sql: &str| kind(store.query(sql).map(|out| out.result));
    assert_eq!(query("not sql at all"), "sql");
    assert_eq!(query("SELECT orderkey FROM missing"), "missing");
    assert_eq!(query("SELECT ghost FROM t"), "sql");
    for node in 0..store.config().cluster.nodes {
        store.fail_node(node).unwrap();
    }
    check(&store, "t", "SELECT ghost FROM t", "sql");
    check(&store, "t", "SELECT orderkey FROM t", "unavailable");
}

#[test]
fn queries_after_failure_and_recovery() {
    let table = test_table(2000);
    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9;
    let bytes = write_table(
        &table,
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut store = Store::new(cfg).unwrap();
    store.put("t", bytes).unwrap();
    let before = store
        .query("SELECT count(*) FROM t WHERE flag = 'O'")
        .unwrap();

    // Fail a node, recover it, and get identical answers.
    store.fail_node(3).unwrap();
    store.recover_node(3).unwrap();
    let after = store
        .query("SELECT count(*) FROM t WHERE flag = 'O'")
        .unwrap();
    assert_eq!(before.result, after.result);
}

#[test]
fn limit_truncates_rows_consistently() {
    let table = test_table(3000);
    let fusion = store_with(QueryMode::AdaptivePushdown, &table, 500);
    let baseline = store_with(QueryMode::Reassemble, &table, 500);
    let sql = "SELECT orderkey, amount FROM t WHERE flag = 'O' LIMIT 17";
    let a = fusion.query(sql).unwrap();
    let b = baseline.query(sql).unwrap();
    assert_eq!(a.result, b.result);
    assert_eq!(a.result.row_count, 17);
    assert_eq!(a.result.columns[0].1.len(), 17);
    // The limited rows are the *first* 17 matches in row order.
    let unlimited = fusion
        .query("SELECT orderkey, amount FROM t WHERE flag = 'O'")
        .unwrap();
    assert_eq!(
        a.result.columns[0].1,
        unlimited.result.columns[0].1.slice(0..17)
    );
    // Selectivity still reports the filter's true match rate.
    assert!((a.selectivity - unlimited.selectivity).abs() < 1e-12);
}

#[test]
fn limit_edge_cases() {
    let table = test_table(1000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 250);
    // LIMIT larger than the match count is a no-op.
    let a = store
        .query("SELECT orderkey FROM t WHERE flag = 'O' LIMIT 100000")
        .unwrap();
    let b = store
        .query("SELECT orderkey FROM t WHERE flag = 'O'")
        .unwrap();
    assert_eq!(a.result, b.result);
    // LIMIT 0 returns no rows.
    let z = store.query("SELECT orderkey FROM t LIMIT 0").unwrap();
    assert_eq!(z.result.row_count, 0);
    assert!(z.result.columns[0].1.is_empty());
    // Aggregates summarize all matches regardless of LIMIT.
    let c = store
        .query("SELECT count(*) FROM t WHERE flag = 'O' LIMIT 1")
        .unwrap();
    assert_eq!(
        c.result.aggregates[0].1,
        b.result
            .aggregates
            .first()
            .map_or(Value::Int(b.result.row_count as i64), |x| x.1.clone())
    );
}

#[test]
fn limit_reduces_transfers() {
    let table = test_table(6000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 1000);
    let small = store
        .query("SELECT orderkey FROM t WHERE amount >= 0.0 LIMIT 5")
        .unwrap();
    let full = store
        .query("SELECT orderkey FROM t WHERE amount >= 0.0")
        .unwrap();
    assert!(
        small.net_bytes < full.net_bytes,
        "{} vs {}",
        small.net_bytes,
        full.net_bytes
    );
}

#[test]
fn query_mix_feeds_the_traffic_engine() {
    use fusion_cluster::engine::{Engine, SchedulingPolicy};
    use fusion_cluster::time::Nanos;
    use fusion_cluster::traffic::{TrafficConfig, TrafficGen};

    let table = test_table(3000);
    let store = store_with(QueryMode::AdaptivePushdown, &table, 500);
    let mix = store
        .query_mix(&[
            ("t", "SELECT orderkey FROM t WHERE flag = 'O'"),
            ("t", "SELECT count(*) FROM t WHERE flag != 'N'"),
        ])
        .unwrap();
    assert_eq!(mix.len(), 2);
    assert!(mix.iter().all(|wf| !wf.is_empty()));

    // Compile the mix into an open-loop two-tenant stream and run it.
    let gen = TrafficGen::new(TrafficConfig {
        seed: 11,
        tenants: 2,
        zipf_theta: 0.5,
        rate_qps: 2_000.0,
        horizon: Nanos::from_millis(50),
    });
    let jobs = gen.generate(&[mix]);
    assert!(!jobs.is_empty());
    let offered = jobs.len() as u64;
    let report = Engine::new(store.config().cluster.clone())
        .with_slowdowns(store.slowdowns().clone())
        .with_scheduling(SchedulingPolicy::WeightedFair)
        .run_jobs(jobs);
    assert_eq!(report.stats.len() as u64, offered);
    let served: u64 = report.tenants.values().map(|c| c.served).sum();
    assert_eq!(served, offered);
    for summary in report.tenant_summaries() {
        assert!(summary.p99 >= summary.p50);
        assert!(summary.goodput_qps > 0.0);
    }
}
