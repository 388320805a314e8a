//! Set-up, the timed closed-loop window through the service, and the
//! correctness gate every answer passes.

use crate::ops::{object_name, put_key, Dataset, Op, Scale, Workload, QUERIES, WORKERS};
use fusion_core::config::StoreConfig;
use fusion_core::query::QueryResult;
use fusion_core::store::Store;
use fusion_format::value::{ColumnData, Value};
use fusion_service::{Client, Loopback, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Storage node `degraded_query` fails during set-up.
pub const FAILED_NODE: u32 = 0;

/// The store configuration of a workload: the paper's Fusion defaults,
/// with `cold_scan`'s chunk cache shrunk below its working set.
pub fn store_config(w: Workload, scale: &Scale) -> StoreConfig {
    match w {
        Workload::ColdScan => StoreConfig::fusion().with_chunk_cache_bytes(scale.cold_cache_bytes),
        _ => StoreConfig::fusion(),
    }
}

/// Expected answer of every query in the mix, from a `Reassemble`-mode
/// baseline store holding the same bytes.
pub fn oracle(file: &[u8]) -> Result<Vec<QueryResult>, String> {
    let mut store = Store::new(StoreConfig::baseline()).map_err(|e| e.to_string())?;
    store
        .put("oracle", file.to_vec())
        .map_err(|e| e.to_string())?;
    QUERIES
        .iter()
        .map(|q| {
            store
                .query_as("oracle", q)
                .map(|o| o.result)
                .map_err(|e| format!("oracle {q}: {e}"))
        })
        .collect()
}

/// Bytes of chunk-cache entries the query mix pulls in from one copy,
/// measured on a throwaway store with the default cache.
pub fn working_set_per_copy(file: &[u8]) -> Result<u64, String> {
    let mut store = Store::new(StoreConfig::fusion()).map_err(|e| e.to_string())?;
    store.put("ws", file.to_vec()).map_err(|e| e.to_string())?;
    for q in QUERIES {
        store.query_as("ws", q).map_err(|e| e.to_string())?;
    }
    Ok(store.chunk_cache().stats().resident_bytes)
}

/// Bit-for-bit equality of two answers: floats compare by `to_bits`.
pub fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    a.row_count == b.row_count
        && a.columns.len() == b.columns.len()
        && a.aggregates.len() == b.aggregates.len()
        && a.columns
            .iter()
            .zip(&b.columns)
            .all(|((na, ca), (nb, cb))| na == nb && same_column(ca, cb))
        && a.aggregates
            .iter()
            .zip(&b.aggregates)
            .all(|((na, va), (nb, vb))| na == nb && same_value(va, vb))
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_column(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// A started service plus what set-up stored through it.
pub struct Running {
    /// The service.
    pub service: Arc<Service>,
    /// User bytes stored at set-up.
    pub user_bytes: u64,
}

/// Builds the store, stores the objects, starts the service, fails a
/// node for `degraded_query`, and warms up with every query on the first
/// object. Returns the service and the seconds this took.
pub fn setup(w: Workload, scale: &Scale, ds: &Dataset) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let mut store = Store::new(store_config(w, scale)).map_err(|e| e.to_string())?;
    let objects = scale.objects(w);
    for i in 0..objects {
        store
            .put(&object_name(i), ds.file.clone())
            .map_err(|e| format!("set-up put: {e}"))?;
    }
    let service = Arc::new(Service::start(store, WORKERS));
    let mut client = Client::new(Loopback::new(Arc::clone(&service)));
    if w == Workload::DegradedQuery {
        client
            .fail_node(FAILED_NODE)
            .map_err(|e| format!("fail node: {e}"))?;
    }
    for q in QUERIES {
        client
            .query(&object_name(0), q)
            .map_err(|e| format!("warm-up {q}: {e}"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Running {
            service,
            user_bytes: (objects * ds.file.len()) as u64,
        },
        secs,
    ))
}

/// Raw client-side samples of one window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Query latencies, ns.
    pub query_ns: Vec<u64>,
    /// When each query completed, ns after the window start (parallel
    /// to `query_ns`).
    pub query_end_ns: Vec<u64>,
    /// GET latencies, ns.
    pub get_ns: Vec<u64>,
    /// PUT latencies, ns.
    pub put_ns: Vec<u64>,
    /// When each op that received a response completed, ns after the
    /// window start.
    pub done_ns: Vec<u64>,
    /// Typed errors, rejections and wrong answers.
    pub failed: u64,
    /// Keys and payload indices of acknowledged PUTs.
    pub acked_puts: Vec<(usize, usize)>,
    /// User bytes of acknowledged PUTs.
    pub put_bytes: u64,
    /// Seconds from the window start to the last PUT response.
    pub put_active_s: f64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl Samples {
    fn merge(&mut self, o: Samples) {
        self.query_ns.extend(o.query_ns);
        self.query_end_ns.extend(o.query_end_ns);
        self.get_ns.extend(o.get_ns);
        self.put_ns.extend(o.put_ns);
        self.done_ns.extend(o.done_ns);
        self.failed += o.failed;
        self.acked_puts.extend(o.acked_puts);
        self.put_bytes += o.put_bytes;
        self.put_active_s = self.put_active_s.max(o.put_active_s);
        self.errors.extend(o.errors);
        self.errors.truncate(8);
    }

    /// Every client-observed latency, ns.
    pub fn all_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.query_ns
            .iter()
            .chain(&self.get_ns)
            .chain(&self.put_ns)
            .copied()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// What the timed window measured.
#[derive(Debug)]
pub struct Window {
    /// Merged client samples.
    pub samples: Samples,
    /// Seconds from the start to the last response.
    pub elapsed_s: f64,
    /// Requests the service completed in the window.
    pub service_requests: u64,
    /// Exact mean of the service's `service.request_ns` over the window.
    pub service_mean_ns: f64,
    /// Chunk-cache hits and misses in the window.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// `Store::stored_bytes` after the window.
    pub stored_bytes: u64,
    /// User bytes stored by set-up and the window.
    pub user_bytes: u64,
    /// `requests == completed + rejected_overload + rejected_draining`.
    pub conserved: bool,
    /// Peak RSS when the window ends, before PUTs are read back.
    pub peak_rss_mb: Option<f64>,
    /// CPU seconds the process used during the window.
    pub cpu_s: Option<f64>,
}

/// Drives every client's stream through the service for `seconds`,
/// checking every answer, then verifies each acknowledged PUT by reading
/// it back.
pub fn run_window(
    run: &Running,
    streams: &[Vec<Op>],
    ds: &Dataset,
    oracle: &[QueryResult],
    seconds: f64,
) -> Window {
    let service = &run.service;
    let cache_before = service.with_store(|s| s.chunk_cache().stats());
    let hist = service.metrics().histogram("service.request_ns");
    let (count_before, sum_before) = (hist.count(), hist.sum());

    let cpu_before = crate::stats::process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut samples = Samples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let service = Arc::clone(service);
                s.spawn(move || client_loop(service, stream, ds, oracle, start, deadline))
            })
            .collect();
        for h in handles {
            samples.merge(h.join().expect("client thread panicked"));
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let cpu_s = crate::stats::process_cpu_s()
        .zip(cpu_before)
        .map(|(after, before)| after - before);

    let m = service.metrics();
    let completed = m.counter("service.completed").get();
    let conserved = m.counter("service.requests").get()
        == completed
            + m.counter("service.rejected_overload").get()
            + m.counter("service.rejected_draining").get();
    let service_requests = hist.count() - count_before;
    let service_mean_ns = (hist.sum() - sum_before) as f64 / service_requests.max(1) as f64;
    let cache_after = service.with_store(|s| s.chunk_cache().stats());

    // Every acknowledged PUT must read back byte-identical.
    let mut client = Client::new(Loopback::new(Arc::clone(service)));
    for &(key, payload) in &samples.acked_puts.clone() {
        let want = &ds.payloads[payload];
        match client.get(&put_key(key), 0, want.len() as u64) {
            Ok(got) if got == *want => {}
            Ok(_) => samples.fail(format!("read-back of {} differs", put_key(key))),
            Err(e) => samples.fail(format!("read-back of {}: {e}", put_key(key))),
        }
    }
    let stored_bytes = service.with_store(|s| s.stored_bytes());
    Window {
        user_bytes: run.user_bytes + samples.put_bytes,
        samples,
        elapsed_s,
        service_requests,
        service_mean_ns,
        cache_hits: cache_after.hits - cache_before.hits,
        cache_misses: cache_after.misses - cache_before.misses,
        stored_bytes,
        conserved,
        peak_rss_mb,
        cpu_s,
    }
}

/// One closed-loop client: issue, wait, check, repeat until the deadline.
/// Query streams wrap when exhausted; the PUT stream does not (it is the
/// bounded ingest).
fn client_loop(
    service: Arc<Service>,
    stream: &[Op],
    ds: &Dataset,
    oracle: &[QueryResult],
    start: Instant,
    deadline: Instant,
) -> Samples {
    let mut client = Client::new(Loopback::new(service));
    let mut out = Samples::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let op = match stream.get(i % stream.len().max(1)) {
            Some(Op::Put { .. }) if i >= stream.len() => break,
            Some(&op) => op,
            None => break,
        };
        i += 1;
        // Inputs are generated before timing; the payload copy the
        // client API takes by value is made before the clock starts.
        let payload = match op {
            Op::Put { payload, .. } => Some(ds.payloads[payload].clone()),
            _ => None,
        };
        let t0 = Instant::now();
        let outcome = match op {
            Op::Query { object, query } => client
                .query(&object_name(object), QUERIES[query])
                .map(|r| same_result(&r, &oracle[query])),
            Op::Get {
                object,
                offset,
                len,
            } => client
                .get(&object_name(object), offset, len)
                .map(|d| d[..] == ds.file[offset as usize..(offset + len) as usize]),
            Op::Put { key, .. } => client
                .put(&put_key(key), payload.expect("payload prepared"))
                .map(|o| o.stored_bytes > 0),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let end = start.elapsed().as_nanos() as u64;
        out.done_ns.push(end);
        match op {
            Op::Query { .. } => {
                out.query_ns.push(ns);
                out.query_end_ns.push(end);
            }
            Op::Get { .. } => out.get_ns.push(ns),
            Op::Put { key, payload } => {
                out.put_ns.push(ns);
                out.put_active_s = end as f64 / 1e9;
                if matches!(outcome, Ok(true)) {
                    out.acked_puts.push((key, payload));
                    out.put_bytes += ds.payloads[payload].len() as u64;
                }
            }
        }
        match outcome {
            Ok(true) => {}
            Ok(false) => out.fail(format!("{op:?}: wrong answer")),
            Err(e) => out.fail(format!("{op:?}: {e}")),
        }
    }
    out
}

/// Shuts the service down and takes its store back (every client must
/// be gone).
pub fn into_store(run: Running) -> Result<Store, String> {
    Arc::try_unwrap(run.service)
        .map(Service::into_store)
        .map_err(|_| "service still shared".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_compares_floats_bit_for_bit() {
        let a = QueryResult {
            row_count: 2,
            columns: vec![("x".into(), ColumnData::Float64(vec![0.1, -0.0]))],
            aggregates: vec![("avg(x)".into(), Value::Float(f64::NAN))],
        };
        // NaN is its own bit pattern, so an empty AVG still matches.
        assert!(same_result(&a, &a.clone()));
        let mut b = a.clone();
        b.columns[0].1 = ColumnData::Float64(vec![0.1, 0.0]);
        assert!(!same_result(&a, &b), "-0.0 and 0.0 differ in their bits");
        let mut c = a.clone();
        c.aggregates[0].1 = Value::Float(0.1);
        assert!(!same_result(&a, &c));
        let mut d = a.clone();
        d.row_count = 3;
        assert!(!same_result(&a, &d));
    }
}
