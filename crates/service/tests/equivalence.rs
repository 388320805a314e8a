//! Store-vs-service equivalence: the same store, the same queries, two
//! time planes — results must be **bit-identical** (DESIGN.md §17).
//!
//! Each case builds two identically-configured stores from the same
//! table bytes, drives one in process as a plain [`Store`] and runs the
//! other as a threaded [`Service`] reached by a [`Client`] over the
//! loopback transport (real frame codec, real queue, real workers), and
//! compares every query of the e2e mix — healthy, with a node failed,
//! and with a worker thread stopped. Both query executors (pushdown and
//! reassemble) are covered.

use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::query::QueryResult;
use fusion_core::store::Store;
use fusion_format::prelude::*;
use fusion_service::{Client, Loopback, PipelinedTcp, Service, TcpServer};
use std::sync::Arc;

/// The same lineitem-like table the core e2e suite queries.
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

/// The e2e query mix (filters, aggregates, projections, zero-match,
/// OR/NOT, min/max) from the core suite.
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
];

fn config_for(mode: QueryMode) -> StoreConfig {
    let mut cfg = match mode {
        QueryMode::Reassemble => StoreConfig::baseline().with_block_size(16 << 10),
        _ => StoreConfig::fusion(),
    };
    cfg.query_mode = mode;
    cfg.overhead_threshold = 0.9;
    cfg
}

fn store_with(mode: QueryMode, bytes: &[u8]) -> Store {
    let mut store = Store::new(config_for(mode)).unwrap();
    store.put("t", bytes.to_vec()).unwrap();
    store
}

/// Bit-exact comparison: PartialEq would call NaN != NaN; compare float
/// payloads by bits so the check is *stricter* than `==`, never looser.
fn assert_bit_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.row_count, b.row_count, "row_count: {ctx}");
    assert_eq!(a.columns.len(), b.columns.len(), "column count: {ctx}");
    for ((an, ac), (bn, bc)) in a.columns.iter().zip(&b.columns) {
        assert_eq!(an, bn, "column name: {ctx}");
        match (ac, bc) {
            (ColumnData::Float64(x), ColumnData::Float64(y)) => {
                let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "float column {an} bits: {ctx}");
            }
            _ => assert_eq!(ac, bc, "column {an}: {ctx}"),
        }
    }
    assert_eq!(a.aggregates.len(), b.aggregates.len(), "aggregates: {ctx}");
    for ((an, av), (bn, bv)) in a.aggregates.iter().zip(&b.aggregates) {
        assert_eq!(an, bn, "aggregate name: {ctx}");
        match (av, bv) {
            (Value::Float(x), Value::Float(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "aggregate {an} bits: {ctx}")
            }
            _ => assert_eq!(av, bv, "aggregate {an}: {ctx}"),
        }
    }
}

/// Runs the full mix through the store and the service client and
/// compares bit-for-bit.
fn compare(store: &Store, client: &mut Client<Loopback>, ctx: &str) {
    for sql in QUERIES {
        let a = store
            .query_as("t", sql)
            .unwrap_or_else(|e| panic!("{sql} via store: {e}"))
            .result;
        let b = client
            .query("t", sql)
            .unwrap_or_else(|e| panic!("{sql} via service: {e}"));
        assert_bit_identical(&a, &b, &format!("{ctx}: {sql}"));
    }
}

fn equivalence_for_mode(mode: QueryMode, workers: usize) {
    let bytes = write_table(
        &test_table(3000),
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut store = store_with(mode, &bytes);
    let service = Arc::new(Service::start(store_with(mode, &bytes), workers));
    let mut client = Client::new(Loopback::new(Arc::clone(&service)));

    // Healthy.
    compare(&store, &mut client, "healthy");

    // GETs agree too (byte plane, not just query plane).
    assert_eq!(
        store.get("t", 100, 4096).unwrap(),
        client.get("t", 100, 4096).unwrap(),
        "ranged GET differs"
    );

    // Degraded: fail the same node on both sides; queries reconstruct.
    store.fail_node(2).unwrap();
    client.fail_node(2).unwrap();
    compare(&store, &mut client, "node 2 failed");

    // One worker thread stopped: the service keeps serving (with fewer
    // workers) and stays bit-identical.
    assert!(service.stop_worker(0));
    compare(&store, &mut client, "node 2 failed + worker 0 stopped");

    // Recovered: both sides heal, still identical.
    store.recover_node(2).unwrap();
    client.recover_node(2).unwrap();
    compare(&store, &mut client, "recovered");
}

#[test]
fn pushdown_executor_bit_identical_across_backends() {
    equivalence_for_mode(QueryMode::AdaptivePushdown, 4);
}

#[test]
fn always_pushdown_executor_bit_identical_across_backends() {
    equivalence_for_mode(QueryMode::AlwaysPushdown, 3);
}

#[test]
fn reassemble_executor_bit_identical_across_backends() {
    equivalence_for_mode(QueryMode::Reassemble, 4);
}

#[test]
fn tcp_transport_matches_loopback() {
    // The full socket path (frames over TCP, per-connection serve loop)
    // must agree with loopback byte-for-byte on queries and GETs.
    let bytes = write_table(
        &test_table(1500),
        WriteOptions {
            rows_per_group: 300,
        },
    )
    .unwrap();
    let service = Arc::new(Service::start(
        store_with(QueryMode::AdaptivePushdown, &bytes),
        4,
    ));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback port");
    let mut tcp = Client::new(PipelinedTcp::connect(server.addr(), 1).unwrap());
    let mut lo = Client::new(Loopback::new(Arc::clone(&service)));

    tcp.ping().unwrap();
    for sql in QUERIES {
        let a = lo.query("t", sql).expect(sql);
        let b = tcp.query("t", sql).expect(sql);
        assert_bit_identical(&a, &b, sql);
    }
    assert_eq!(
        lo.get("t", 0, 2048).unwrap(),
        tcp.get("t", 0, 2048).unwrap()
    );
    // Typed errors cross the socket too.
    let err = tcp.get("missing", 0, 1).unwrap_err();
    assert_eq!(err.code(), Some(fusion_service::ErrorCode::ObjectNotFound));
    let err = tcp.get("t", u64::MAX - 1, 100).unwrap_err();
    assert_eq!(err.code(), Some(fusion_service::ErrorCode::InvalidRequest));
}

#[test]
fn service_rejects_malformed_and_hostile_frames_without_dying() {
    use std::io::Write as _;
    let bytes = write_table(
        &test_table(600),
        WriteOptions {
            rows_per_group: 200,
        },
    )
    .unwrap();
    let service = Arc::new(Service::start(
        store_with(QueryMode::AdaptivePushdown, &bytes),
        2,
    ));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback port");

    // A garbage frame gets a typed BadFrame response, not a dead worker.
    let mut t = PipelinedTcp::connect(server.addr(), 1).unwrap();
    use fusion_service::Transport as _;
    let resp = t.call(&[0x7f, 1, 2, 3]).unwrap();
    match fusion_service::Response::decode(&resp).unwrap() {
        fusion_service::Response::Err { code, .. } => {
            assert_eq!(code, fusion_service::ErrorCode::BadFrame)
        }
        other => panic!("expected BadFrame error, got {other:?}"),
    }

    // A hostile length prefix kills that connection only.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    // The server drops the connection; either EOF or reset is fine.
    let mut probe = PipelinedTcp::connect(server.addr(), 1).unwrap();
    let pong = probe.call(&fusion_service::Request::Ping.encode()).unwrap();
    assert_eq!(
        fusion_service::Response::decode(&pong).unwrap(),
        fusion_service::Response::Pong,
        "service must survive a hostile connection"
    );

    // And the store is still fully functional.
    let mut c = Client::new(Loopback::new(Arc::clone(&service)));
    let r = c
        .query("t", "SELECT count(*) FROM t WHERE flag != 'N'")
        .unwrap();
    assert_eq!(r.aggregates.len(), 1);
}

#[test]
fn service_rejects_hostile_predicates_without_dying() {
    // Predicates tens of thousands of levels deep overflowed a worker's
    // stack while parsing, planning or dropping them, which aborts the
    // whole process. The parser now refuses them with a typed error.
    let bytes = write_table(
        &test_table(1000),
        WriteOptions {
            rows_per_group: 250,
        },
    )
    .unwrap();
    let service = Arc::new(Service::start(
        store_with(QueryMode::AdaptivePushdown, &bytes),
        2,
    ));
    let mut c = Client::new(Loopback::new(Arc::clone(&service)));
    let ordinary = "SELECT count(*), sum(orderkey) FROM t WHERE flag = 'O'";
    let want = c.query("t", ordinary).unwrap();
    let n = 100_000;
    let chain = |op: &str| vec!["flag = 'O'"; n].join(op);
    for (form, predicate) in [
        ("NOT", format!("{}flag = 'O'", "NOT ".repeat(n))),
        (
            "parentheses",
            format!("{}flag = 'O'{}", "(".repeat(n), ")".repeat(n)),
        ),
        ("AND chain", chain(" AND ")),
        ("OR chain", chain(" OR ")),
    ] {
        let sql = format!("SELECT count(*) FROM t WHERE {predicate}");
        let err = c.query("t", &sql).unwrap_err();
        assert_eq!(err.code(), Some(fusion_service::ErrorCode::Sql), "{form}");
        let after = c.query("t", ordinary).unwrap();
        assert_bit_identical(&after, &want, form);
    }
}
