//! Concurrency stress: many client threads, mixed GET/PUT/Query traffic,
//! no deadlock, and conservation counters that balance exactly.
//!
//! These tests are what the `service` CI job additionally runs under
//! ThreadSanitizer: they exercise the RwLock'd store, the chunk cache's
//! insert race (healthy views, and with a node down the views rebuilt
//! from parity), and the bounded queue under real interleavings.

use fusion_core::config::StoreConfig;
use fusion_core::store::Store;
use fusion_format::prelude::*;
use fusion_service::{
    Client, ErrorCode, Loopback, PipelinedTcp, Request, Response, Service, TcpServer,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn analytics_bytes(rows: usize, per_group: usize) -> Vec<u8> {
    let schema = Schema::new(vec![
        Field::new("v", LogicalType::Int64),
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
            rows_per_group: per_group,
        },
    )
    .unwrap()
}

fn store_with_objects(objects: usize) -> Store {
    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9;
    let mut store = Store::new(cfg).unwrap();
    let bytes = analytics_bytes(1200, 300);
    for i in 0..objects {
        store.put(&format!("obj-{i}"), bytes.clone()).unwrap();
    }
    store
}

fn service_with_objects(workers: usize, objects: usize) -> Arc<Service> {
    Arc::new(Service::start(store_with_objects(objects), workers))
}

const MIX_QUERIES: &[&str] = &[
    "SELECT v FROM t WHERE flag = 'O'",
    "SELECT count(*) FROM t WHERE flag != 'N'",
    "SELECT sum(v) FROM t WHERE v >= 0",
    "SELECT min(v), max(v) FROM t WHERE NOT flag = 'F'",
];

#[test]
fn concurrent_clients_no_deadlock_and_counters_conserve() {
    let workers = 4;
    let clients = 8;
    let rounds = 24;
    let service = service_with_objects(workers, 4);
    let bytes = analytics_bytes(300, 100);
    let object_size = {
        // Every pre-loaded object stores the same table bytes.
        let probe = analytics_bytes(1200, 300);
        probe.len() as u64
    };

    let ok = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let bytes = bytes.clone();
            let ok = Arc::clone(&ok);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                let mut client = Client::new(Loopback::new(service));
                for r in 0..rounds {
                    // Mixed traffic: queries and reads on the shared
                    // objects, puts of fresh per-thread keys.
                    let q = MIX_QUERIES[(c + r) % MIX_QUERIES.len()];
                    let object = format!("obj-{}", (c * 7 + r) % 4);
                    match client.query(&object, q) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.code().is_some_and(ErrorCode::retryable) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("query {q} on {object}: {e}"),
                    }
                    let len = 512.min(object_size);
                    match client.get(&object, (r as u64 * 37) % (object_size - len), len) {
                        Ok(data) => {
                            assert_eq!(data.len() as u64, len);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.code().is_some_and(ErrorCode::retryable) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("get {object}: {e}"),
                    }
                    if r % 6 == 0 {
                        match client.put(&format!("c{c}-r{r}"), bytes.clone()) {
                            Ok(out) => {
                                assert!(out.stored_bytes > 0);
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.code().is_some_and(ErrorCode::retryable) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("put: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked or deadlocked");
    }

    // Conservation: every submitted request was either completed or
    // rejected — nothing lost, nothing double-counted.
    let m = service.metrics();
    let requests = m.counter("service.requests").get();
    let completed = m.counter("service.completed").get();
    let rej_over = m.counter("service.rejected_overload").get();
    let rej_drain = m.counter("service.rejected_draining").get();
    assert_eq!(
        requests,
        completed + rej_over + rej_drain,
        "request conservation violated"
    );
    assert_eq!(rej_drain, 0, "nothing drains during the run");
    // The client-side view agrees with the server's books.
    assert_eq!(
        ok.load(Ordering::Relaxed),
        completed,
        "client/server accounting mismatch"
    );
    assert_eq!(rejected.load(Ordering::Relaxed), rej_over);
    // Work actually spread across workers.
    let per_worker: Vec<u64> = (0..service.workers())
        .map(|i| m.counter(&format!("worker{i}.requests")).get())
        .collect();
    assert_eq!(per_worker.iter().sum::<u64>(), completed);
    // Latency histogram saw every completed request.
    assert_eq!(m.histogram("service.request_ns").count(), completed);

    // Graceful shutdown drains and the store survives with all data.
    service.shutdown();
    let m = service.metrics();
    assert_eq!(
        m.counter("service.requests").get(),
        m.counter("service.completed").get()
            + m.counter("service.rejected_overload").get()
            + m.counter("service.rejected_draining").get()
    );
}

#[test]
fn query_conservation_holds_under_racing_clients() {
    // The per-query invariant `pruned + hits + misses == considered`
    // must hold even when threads race on the same chunks (the cache
    // counter/entry atomicity fix). QueryOutput isn't on the wire, so
    // check through the store handle while the service hammers it.
    let service = service_with_objects(4, 1);
    let handles: Vec<_> = (0..8)
        .map(|c| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut client = Client::new(Loopback::new(service));
                for r in 0..30 {
                    let q = MIX_QUERIES[(c + r) % MIX_QUERIES.len()];
                    client.query("obj-0", q).expect(q);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    service.with_store(|store| {
        let out = store
            .query_as("obj-0", "SELECT count(*) FROM t WHERE flag != 'N'")
            .unwrap();
        assert_eq!(
            out.pruned_chunks + out.cache_hits + out.cache_misses,
            out.chunks_considered,
            "per-query conservation"
        );
        // Cache-wide: counters moved and stayed consistent.
        let stats = store.chunk_cache().stats();
        assert!(stats.hits + stats.misses > 0);
    });
}

#[test]
fn degraded_queries_converge_under_racing_clients() {
    // With a node down, racing clients that miss on the same lost chunk
    // each rebuild it, and their views must converge on one cached view
    // (`insert_or_get`) while every answer stays the healthy one.
    let oracle = store_with_objects(1);
    let healthy: Vec<_> = MIX_QUERIES
        .iter()
        .map(|q| oracle.answer("obj-0", q).expect(q))
        .collect();
    let service = service_with_objects(4, 1);
    // The node hosting the object's first chunk (`v` in row group 0).
    let lost = service
        .with_store(|store| store.object("obj-0").unwrap().chunk_fragments(0)[0].node as u32);
    let mut admin = Client::new(Loopback::new(Arc::clone(&service)));
    admin.fail_node(lost).expect("fail a node");

    let clients = 8;
    let start = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let start = Arc::clone(&start);
            let healthy = healthy.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(Loopback::new(service));
                start.wait();
                for r in 0..30 {
                    let i = (c + r) % MIX_QUERIES.len();
                    let got = client.query("obj-0", MIX_QUERIES[i]).expect(MIX_QUERIES[i]);
                    assert_eq!(got, healthy[i], "{}", MIX_QUERIES[i]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    service.with_store(|store| {
        let reads = store.blocks().reads();
        for q in MIX_QUERIES {
            let out = store.query_as("obj-0", q).unwrap();
            assert_eq!(
                out.pruned_chunks + out.cache_hits + out.cache_misses,
                out.chunks_considered,
                "per-query conservation"
            );
            assert_eq!(out.cache_misses, 0, "every view is cached: {q}");
        }
        assert_eq!(store.blocks().reads(), reads, "no block is read");
    });
}

#[test]
fn bounded_queue_rejects_overload_with_typed_error() {
    // One worker, a queue of 2, and a burst of requests: the excess must
    // come back Overloaded (typed, retryable), not buffer unboundedly.
    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9;
    let mut store = Store::new(cfg).unwrap();
    store.put("t", analytics_bytes(2400, 200)).unwrap();
    let service = Arc::new(Service::with_queue_depth(store, 1, 2));

    let burst = 64;
    let receivers: Vec<_> = (0..burst)
        .map(|_| {
            service.submit(Request::Query {
                object: "t".into(),
                sql: "SELECT sum(v) FROM t WHERE v >= 0".into(),
            })
        })
        .collect();
    let mut completed = 0u64;
    let mut overloaded = 0u64;
    for rx in receivers {
        match rx.recv().expect("every request gets exactly one response") {
            Response::Query(_) => completed += 1,
            Response::Err {
                code: ErrorCode::Overloaded,
                ..
            } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(completed + overloaded, burst);
    assert!(overloaded > 0, "a 2-deep queue must shed a 64-burst");
    let m = service.metrics();
    assert_eq!(m.counter("service.rejected_overload").get(), overloaded);
    assert_eq!(m.counter("service.completed").get(), completed);
}

#[test]
fn shutdown_drains_in_flight_and_rejects_new_work() {
    let service = service_with_objects(2, 2);
    // Enqueue a pile of queries, then shut down mid-stream.
    let receivers: Vec<_> = (0..16)
        .map(|i| {
            service.submit(Request::Query {
                object: format!("obj-{}", i % 2),
                sql: "SELECT count(*) FROM t WHERE flag != 'N'".into(),
            })
        })
        .collect();
    service.shutdown();
    // Everything accepted before the drain completed successfully.
    for rx in receivers {
        match rx.recv().expect("accepted requests are never dropped") {
            Response::Query(r) => assert_eq!(r.aggregates.len(), 1),
            Response::Err { code, .. } => {
                panic!("accepted request rejected with {code:?} during drain")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // New work is turned away, typed.
    match service.call(Request::Ping) {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert_eq!(
        service.metrics().counter("service.rejected_draining").get(),
        1
    );
}

#[test]
fn pipelined_tcp_window_bounds_in_flight() {
    let service = service_with_objects(2, 1);
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let window = 4;
    let mut pipe = PipelinedTcp::connect(server.addr(), window).unwrap();
    let req = Request::Get {
        key: "obj-0".into(),
        offset: 0,
        len: 256,
    }
    .encode();
    for _ in 0..32 {
        pipe.send(&req).unwrap();
        assert!(
            pipe.in_flight() <= window,
            "window must bound in-flight requests"
        );
    }
    let rest = pipe.drain().unwrap();
    for body in rest {
        match Response::decode(&body).unwrap() {
            Response::Get(data) => assert_eq!(data.len(), 256),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(pipe.in_flight(), 0);
}
