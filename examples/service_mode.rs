//! Service mode: the same Fusion store the DES figures measure, running
//! as a real multi-threaded service behind the wire protocol
//! (DESIGN.md §17) — worker threads, a bounded queue, and a TCP
//! listener speaking length-prefixed frames.
//!
//! ```text
//! cargo run --release --example service_mode
//! ```

use fusion::prelude::*;
use fusion_service::{Client, Loopback, PipelinedTcp, Service, TcpServer};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build and load the store exactly as in the quickstart.
    let schema = Schema::new(vec![
        Field::new("name", LogicalType::Utf8),
        Field::new("salary", LogicalType::Int64),
    ]);
    let table = Table::new(
        schema,
        vec![
            ColumnData::Utf8(
                ["Alice", "Bob", "Charlie", "David", "Emily", "Frank"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
            ColumnData::Int64(vec![70_000, 80_000, 70_000, 60_000, 60_000, 70_000]),
        ],
    )?;
    let bytes = write_table(&table, WriteOptions { rows_per_group: 3 })?;

    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9; // tiny demo file
    let mut store = Store::new(cfg)?;
    store.put("Employees", bytes)?;

    // 2. Start the service: 4 worker threads draining a bounded queue
    //    over the shared store, plus a TCP listener on an OS-chosen port.
    let service = Arc::new(Service::start(store, 4));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0")?;
    println!("service listening on {}", server.addr());

    // 3. Query it over the socket — real frames, real worker threads.
    let mut tcp = Client::new(PipelinedTcp::connect(server.addr(), 1)?);
    let result = tcp.query(
        "Employees",
        "SELECT name FROM Employees WHERE salary = 80000",
    )?;
    println!("over TCP:      {:?}", result.columns[0].1);

    // 4. The in-process loopback goes through the same codec and queue.
    let mut lo = Client::new(Loopback::new(Arc::clone(&service)));
    let result = lo.query(
        "Employees",
        "SELECT count(*) FROM Employees WHERE salary >= 70000",
    )?;
    println!("over loopback: {:?}", result.aggregates[0].1);

    // 5. Ranged GET of the raw object bytes, and a typed error.
    let head = lo.get("Employees", 0, 8)?;
    println!("first 8 bytes: {head:02x?}");
    let err = lo.get("Employees", u64::MAX - 1, 16).unwrap_err();
    println!("bad range:     {err}");

    // 6. Graceful shutdown: in-flight requests drain, workers join.
    drop((tcp, lo, server));
    service.shutdown();
    let m = service.metrics();
    println!(
        "served {} requests ({} completed), p99 {} µs",
        m.counter("service.requests").get(),
        m.counter("service.completed").get(),
        m.histogram("service.request_ns").quantile(0.99) / 1_000
    );
    Ok(())
}
