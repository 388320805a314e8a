//! Lock-free metrics primitives: counters, gauges, fixed-bucket
//! histograms, and a named registry with per-node scopes.
//!
//! All mutation paths are single relaxed atomic operations so metrics can
//! stay enabled on hot paths; the registry's mutex is only taken when a
//! metric handle is first resolved (callers cache the returned `Arc`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (a value that can go up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram for latencies (nanoseconds) or
/// byte sizes.
///
/// Bucket `b` holds values in `[2^b, 2^(b+1))`, with bucket 0 also
/// holding zero. The top bucket absorbs everything from `2^63` up,
/// including saturated non-finite inputs (see [`Histogram::record_secs`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in: `floor(log2(v))`, with 0 and 1
    /// sharing bucket 0. Total for `u64` inputs — no value can land
    /// outside `0..HISTOGRAM_BUCKETS`.
    pub fn bucket_for(value: u64) -> usize {
        (63 - (value | 1).leading_zeros()) as usize
    }

    /// Records one `u64` observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_for(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in seconds as saturated nanoseconds.
    ///
    /// Non-finite inputs saturate instead of panicking or silently
    /// recording zero: `NaN` and `+∞` land in the top bucket
    /// (`u64::MAX` nanoseconds), negative values and `-∞` record zero.
    pub fn record_secs(&self, secs: f64) {
        self.record(saturating_ns(secs));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Observations in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Approximate quantile from the power-of-two buckets: the upper edge
    /// (`2^(b+1) − 1`) of the bucket containing the `q`-th observation.
    /// Resolution is one octave — good enough for p50/p99 dashboards and
    /// experiment snapshots, not for sub-bucket precision. Returns 0 for
    /// an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for b in 0..HISTOGRAM_BUCKETS {
            seen += self.bucket(b);
            if seen >= rank {
                return if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Converts seconds to saturated nanoseconds, totally defined over `f64`:
/// `NaN` and `+∞` saturate to `u64::MAX`, negatives and `-∞` clamp to
/// zero, and finite values round to the nearest nanosecond (saturating at
/// `u64::MAX`, courtesy of Rust's saturating float→int cast).
pub fn saturating_ns(secs: f64) -> u64 {
    if secs.is_nan() {
        return u64::MAX;
    }
    (secs.max(0.0) * 1e9).round() as u64
}

/// One named metric held by a [`MetricsRegistry`].
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics with get-or-create semantics and JSON
/// export.
///
/// Names are flat, dot-separated paths; [`MetricsRegistry::node`] returns
/// a [`Scope`] that prefixes names with `node<i>.` so per-node counters
/// share one registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Locks the name table. A kind-mismatch panic fires while the lock
    /// is held and poisons it, but never leaves the map half-updated, so
    /// the guard is recovered rather than failing every later caller.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use. Panics if `name` is already registered as a
    /// different metric kind (a programming error, not an input error).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use (same kind rules as [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use (same kind rules as [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// A scope that prefixes every metric name with `prefix.`.
    pub fn scope(&self, prefix: &str) -> Scope<'_> {
        Scope {
            registry: self,
            prefix: format!("{prefix}."),
        }
    }

    /// The conventional per-node scope: names become `node<idx>.<name>`.
    pub fn node(&self, idx: usize) -> Scope<'_> {
        self.scope(&format!("node{idx}"))
    }

    /// A snapshot of every counter and gauge value plus histogram
    /// `count`/`sum`, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, i64)> {
        let inner = self.lock();
        let mut out = Vec::with_capacity(inner.len());
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => out.push((name.clone(), c.get() as i64)),
                Metric::Gauge(g) => out.push((name.clone(), g.get())),
                Metric::Histogram(h) => {
                    out.push((format!("{name}.count"), h.count() as i64));
                    out.push((format!("{name}.sum"), h.sum() as i64));
                }
            }
        }
        out
    }

    /// Renders the registry as a sorted, flat JSON object. Histograms
    /// export `count`, `sum`, and the non-empty buckets.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{");
        for (i, (name, metric)) in inner.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("\"{name}\":{}", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("\"{name}\":{}", g.get())),
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                        h.count(),
                        h.sum()
                    ));
                    let mut first = true;
                    for b in 0..HISTOGRAM_BUCKETS {
                        let v = h.bucket(b);
                        if v > 0 {
                            if !first {
                                out.push(',');
                            }
                            out.push_str(&format!("\"{b}\":{v}"));
                            first = false;
                        }
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// A name-prefixing view over a [`MetricsRegistry`] (see
/// [`MetricsRegistry::scope`]).
#[derive(Debug)]
pub struct Scope<'a> {
    registry: &'a MetricsRegistry,
    prefix: String,
}

impl Scope<'_> {
    /// A counter under this scope's prefix.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&format!("{}{name}", self.prefix))
    }

    /// A gauge under this scope's prefix.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&format!("{}{name}", self.prefix))
    }

    /// A histogram under this scope's prefix.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&format!("{}{name}", self.prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn quantile_from_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20); // one outlier in bucket 20
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(0.98), 127);
        assert_eq!(h.quantile(1.0), (1u64 << 21) - 1);
        assert_eq!(h.quantile(0.0), 127); // clamped to rank 1
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 0);
        assert_eq!(Histogram::bucket_for(2), 1);
        assert_eq!(Histogram::bucket_for(3), 1);
        assert_eq!(Histogram::bucket_for(4), 2);
        assert_eq!(Histogram::bucket_for((1 << 20) - 1), 19);
        assert_eq!(Histogram::bucket_for(1 << 20), 20);
        assert_eq!(Histogram::bucket_for(u64::MAX), 63);
    }

    #[test]
    fn histogram_records_and_sums() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1001);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(9), 1); // 512..1024
    }

    #[test]
    fn non_finite_seconds_saturate() {
        assert_eq!(saturating_ns(f64::NAN), u64::MAX);
        assert_eq!(saturating_ns(f64::INFINITY), u64::MAX);
        assert_eq!(saturating_ns(f64::NEG_INFINITY), 0);
        assert_eq!(saturating_ns(-1.0), 0);
        assert_eq!(saturating_ns(1.5e-9), 2);
        let h = Histogram::new();
        h.record_secs(f64::NAN);
        h.record_secs(f64::INFINITY);
        h.record_secs(f64::NEG_INFINITY);
        assert_eq!(h.bucket(HISTOGRAM_BUCKETS - 1), 2);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn registry_scopes_and_json() {
        let reg = MetricsRegistry::new();
        reg.node(0).counter("bytes_served").add(128);
        reg.node(1).counter("bytes_served").add(256);
        reg.counter("queries").inc();
        // Re-resolving returns the same underlying metric.
        assert_eq!(reg.node(0).counter("bytes_served").get(), 128);
        let json = reg.to_json();
        assert!(json.contains("\"node0.bytes_served\":128"));
        assert!(json.contains("\"node1.bytes_served\":256"));
        assert!(json.contains("\"queries\":1"));
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn kind_mismatch_panic_leaves_registry_usable() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        let mismatch = std::panic::catch_unwind(|| {
            reg.histogram("x");
        });
        assert!(mismatch.is_err());
        reg.counter("y").inc();
        assert_eq!(reg.counter("y").get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
