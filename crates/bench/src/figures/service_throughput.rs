//! Service-mode throughput experiment (DESIGN.md §17): wall-clock QPS
//! and tail latency of the threaded service across worker counts.
//!
//! Unlike every other figure — which replays workflows through the DES
//! time plane — this one measures *real elapsed time*: closed-loop
//! client threads drive the [`fusion_service::Service`] through the
//! loopback transport (real frame codec, bounded queue, worker pool)
//! with a mixed read workload (pushdown queries + ranged GETs) against
//! the lineitem dataset. For each worker count we report achieved QPS
//! and the p50/p99 of the service-side `request_ns` histogram.
//!
//! Expected shape: QPS scales with workers until the store's shared
//! structures (chunk cache, metrics) serialize it; p99 grows once
//! queueing sets in. Machine-readable output goes to
//! `results/service_throughput.json`.

use crate::harness::{BenchEnv, SystemKind};
use crate::report::{json_array, write_json, Table};
use fusion_core::store::Store;
use fusion_service::{Client, Loopback, Service};
use std::sync::Arc;
use std::time::Instant;

/// Worker-thread counts swept (≥ 3 points per the experiment spec).
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Object the clients hammer.
const OBJECT: &str = "svc";

/// The mixed closed-loop op stream: three pushdown-friendly queries and
/// one ranged GET, round-robin.
const QUERIES: &[&str] = &[
    "SELECT sum(extendedprice) FROM svc WHERE quantity <= 10",
    "SELECT avg(discount), count(*) FROM svc WHERE quantity <= 25",
    "SELECT min(shipdate), max(shipdate) FROM svc",
];

struct Cell {
    workers: usize,
    ops: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn fresh_store(env: &BenchEnv) -> Store {
    let file = env.lineitem_file().to_vec();
    let cfg = BenchEnv::store_config(SystemKind::Fusion, file.len(), 10 << 30);
    let mut store = Store::new(cfg).expect("store");
    store.put(OBJECT, file).expect("put lineitem");
    store
}

fn drive(env: &BenchEnv, workers: usize) -> Cell {
    let service = Arc::new(Service::start(fresh_store(env), workers));
    let clients = env.clients.max(1);
    let per_client = (env.queries / clients).max(25);
    let object_len = {
        let mut c = Client::new(Loopback::new(Arc::clone(&service)));
        // Warm the chunk cache so every cell measures steady state, and
        // learn the object size for the GET stream.
        for q in QUERIES {
            c.query(OBJECT, q).expect("warmup query");
        }
        service.with_store(|s| s.object(OBJECT).expect("object exists").size)
    };

    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut client = Client::new(Loopback::new(service));
                for i in 0..per_client {
                    if (id + i) % 4 == 3 {
                        let len = 4096.min(object_len);
                        let off = ((id + i) as u64 * 65_537) % (object_len - len + 1);
                        client.get(OBJECT, off, len).expect("get");
                    } else {
                        let q = QUERIES[(id + i) % QUERIES.len()];
                        client.query(OBJECT, q).expect("query");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let m = service.metrics();
    let hist = m.histogram("service.request_ns");
    let completed = m.counter("service.completed").get();
    let requests = m.counter("service.requests").get();
    assert_eq!(
        requests,
        completed
            + m.counter("service.rejected_overload").get()
            + m.counter("service.rejected_draining").get(),
        "conservation must hold in the bench too"
    );
    let cell = Cell {
        workers,
        ops: (clients * per_client) as u64,
        qps: (clients * per_client) as f64 / elapsed,
        p50_us: hist.quantile(0.50) as f64 / 1_000.0,
        p99_us: hist.quantile(0.99) as f64 / 1_000.0,
    };
    service.shutdown();
    cell
}

/// Service-mode wall-clock throughput vs worker count.
pub fn service_throughput(env: &BenchEnv) -> String {
    let cells: Vec<Cell> = WORKER_COUNTS.iter().map(|&w| drive(env, w)).collect();

    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"workers\": {}, \"ops\": {}, \"qps\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
                c.workers, c.ops, c.qps, c.p50_us, c.p99_us
            )
        })
        .collect();
    write_json(
        "service_throughput.json",
        "service_throughput",
        &[
            format!("\"clients\": {}", env.clients),
            json_array("cells", &json),
        ],
    );

    let mut table = Table::new(&["workers", "ops", "QPS", "p50 (µs)", "p99 (µs)"]);
    for c in &cells {
        table.row(vec![
            c.workers.to_string(),
            c.ops.to_string(),
            format!("{:.0}", c.qps),
            format!("{:.1}", c.p50_us),
            format!("{:.1}", c.p99_us),
        ]);
    }
    format!(
        "service_throughput: loopback service, {} closed-loop clients, mixed query+GET\n\
         (also written to results/service_throughput.json)\n{}",
        env.clients,
        table.render()
    )
}
