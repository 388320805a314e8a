//! Shared experiment environment: scaled datasets, store construction with
//! object copies, closed-loop query replay, and the timed loop of the
//! wall-clock kernel experiments.

use fusion_cluster::engine::{Workflow, WorkflowStats};
use fusion_cluster::time::{percentile, Nanos};
use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::query::QueryOutput;
use fusion_core::store::Store;
use fusion_format::table::Table;
use fusion_workloads::tpch::{lineitem, TpchConfig};
use std::time::{Duration, Instant};

/// Which system executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Fusion: FAC layout + adaptive pushdown.
    Fusion,
    /// Baseline: fixed blocks + coordinator reassembly (MinIO/Ceph-class).
    Baseline,
    /// Ablation: FAC layout + unconditional pushdown.
    AlwaysPushdown,
}

impl SystemKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Fusion => "fusion",
            SystemKind::Baseline => "baseline",
            SystemKind::AlwaysPushdown => "always-pushdown",
        }
    }
}

/// The benchmark environment: scale knobs plus lazily cached datasets and
/// stores (building a 10-copy store is the expensive part of most
/// figures).
pub struct BenchEnv {
    /// Relative dataset scale (1.0 = default laptop scale ≈ 1/1000 of the
    /// paper's files).
    pub scale: f64,
    /// Object copies of each file (paper: 10 — the 100 GB dataset is ten
    /// duplicated 10 GB files).
    pub copies: usize,
    /// Queries per experiment cell (paper: 10 000).
    pub queries: usize,
    /// Concurrent closed-loop clients (paper: 10).
    pub clients: usize,
    lineitem_table: std::cell::OnceCell<Table>,
    lineitem_file: std::cell::OnceCell<Vec<u8>>,
    fusion_store: std::cell::OnceCell<Store>,
    baseline_store: std::cell::OnceCell<Store>,
}

impl Default for BenchEnv {
    fn default() -> Self {
        BenchEnv::new(1.0, 10, 1000, 10)
    }
}

impl BenchEnv {
    /// Creates an environment.
    pub fn new(scale: f64, copies: usize, queries: usize, clients: usize) -> BenchEnv {
        BenchEnv {
            scale,
            copies,
            queries,
            clients,
            lineitem_table: std::cell::OnceCell::new(),
            lineitem_file: std::cell::OnceCell::new(),
            fusion_store: std::cell::OnceCell::new(),
            baseline_store: std::cell::OnceCell::new(),
        }
    }

    /// Lineitem generator config at this scale.
    pub fn lineitem_cfg(&self) -> TpchConfig {
        TpchConfig {
            rows_per_group: ((30_000.0 * self.scale) as usize).max(500),
            ..Default::default()
        }
    }

    /// The lineitem table (cached).
    pub fn lineitem_table(&self) -> &Table {
        self.lineitem_table
            .get_or_init(|| lineitem(self.lineitem_cfg()))
    }

    /// The serialized lineitem file (cached).
    pub fn lineitem_file(&self) -> &[u8] {
        self.lineitem_file.get_or_init(|| {
            let cfg = self.lineitem_cfg();
            fusion_format::writer::write_table(
                self.lineitem_table(),
                fusion_format::writer::WriteOptions {
                    rows_per_group: cfg.rows_per_group,
                },
            )
            .expect("valid table")
        })
    }

    /// Block size that keeps the paper's 100 MB : 10 GB ratio at our
    /// scale.
    pub fn scaled_block(file_len: usize) -> u64 {
        ((file_len as u64) / 100).clamp(16 << 10, 100 << 20)
    }

    /// Store config for a system kind given the file it will hold and the
    /// size the paper's equivalent file had.
    ///
    /// Besides the block size, this scales every throughput rate of the
    /// cost model down by `paper_len / file_len` so that the virtual time
    /// of each operation matches the testbed's at the paper's data scale
    /// (fixed latencies such as RPC round-trips stay fixed). Without this,
    /// shrinking the data 1000× would make fixed costs dominate and erase
    /// the transfer-volume effects the paper measures.
    pub fn store_config(kind: SystemKind, file_len: usize, paper_len: u64) -> StoreConfig {
        let block = Self::scaled_block(file_len);
        let factor = (paper_len as f64 / file_len as f64).max(1.0);
        let mut cfg = match kind {
            SystemKind::Fusion => StoreConfig::fusion().with_block_size(block),
            SystemKind::AlwaysPushdown => {
                let mut c = StoreConfig::fusion().with_block_size(block);
                c.query_mode = QueryMode::AlwaysPushdown;
                c
            }
            SystemKind::Baseline => StoreConfig::baseline().with_block_size(block),
        };
        cfg.cluster.cost = cfg.cluster.cost.clone().scaled_down(factor);
        cfg
    }

    /// Builds a store with `cfg` holding `copies` copies of `file` named
    /// `{name}_{i}`.
    pub fn store_with(&self, cfg: StoreConfig, name: &str, file: &[u8]) -> Store {
        let mut store = Store::new(cfg).expect("valid store config");
        for i in 0..self.copies {
            store
                .put(&format!("{name}_{i}"), file.to_vec())
                .expect("put succeeds");
        }
        store
    }

    /// Builds a store holding `copies` copies of `file` named
    /// `{name}_{i}`; `paper_len` scales the cost model (see
    /// [`BenchEnv::store_config`]).
    pub fn build_store_scaled(
        &self,
        kind: SystemKind,
        name: &str,
        file: &[u8],
        paper_len: u64,
    ) -> Store {
        self.store_with(Self::store_config(kind, file.len(), paper_len), name, file)
    }

    /// Builds a store assuming a lineitem-sized paper file (10 GB).
    pub fn build_store(&self, kind: SystemKind, name: &str, file: &[u8]) -> Store {
        self.build_store_scaled(kind, name, file, 10 << 30)
    }

    /// The cached lineitem store for a system (10 copies).
    pub fn lineitem_store(&self, kind: SystemKind) -> &Store {
        let cell = match kind {
            SystemKind::Fusion => &self.fusion_store,
            SystemKind::Baseline => &self.baseline_store,
            SystemKind::AlwaysPushdown => {
                panic!("always-pushdown store is not cached; use build_store")
            }
        };
        cell.get_or_init(|| {
            let file = self.lineitem_file().to_vec();
            self.build_store(kind, "lineitem", &file)
        })
    }

    /// Empties the chunk caches of the cached lineitem stores, so the
    /// next artifact starts cold, as if it ran alone.
    pub(crate) fn clear_chunk_caches(&self) {
        for store in [self.fusion_store.get(), self.baseline_store.get()]
            .into_iter()
            .flatten()
        {
            store.chunk_cache().clear();
        }
    }

    /// Builds one query output per copy for the given SQL template
    /// (`{}` is substituted with the copy object name).
    pub fn outputs_per_copy(
        &self,
        store: &Store,
        name: &str,
        sql_for: impl Fn(&str) -> String,
    ) -> Vec<QueryOutput> {
        (0..self.copies)
            .map(|i| {
                let object = format!("{name}_{i}");
                let sql = sql_for(&object);
                store
                    .query_as(&object, &sql)
                    .unwrap_or_else(|e| panic!("query failed on {object}: {e}"))
            })
            .collect()
    }

    /// Replays `self.queries` queries over the per-copy workflows with
    /// `self.clients` closed-loop clients on `store`'s cluster, mixing
    /// copies per query as the paper's client driver does.
    pub fn replay(&self, store: &Store, outputs: &[QueryOutput]) -> Vec<WorkflowStats> {
        let mut clients: Vec<Vec<Workflow>> = vec![Vec::new(); self.clients];
        for q in 0..self.queries {
            // Spread copies across clients and time.
            let copy = (q * 7 + q / self.clients) % outputs.len();
            clients[q % self.clients].push(outputs[copy].workflow.clone());
        }
        fusion_cluster::engine::Engine::new(store.config().cluster.clone())
            .run_closed_loop(clients)
            .stats
    }
}

/// Latency summary of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Nanos,
    /// 99th-percentile latency.
    pub p99: Nanos,
}

/// Summarizes per-query stats.
pub fn summarize(stats: &[WorkflowStats]) -> LatencySummary {
    let lats: Vec<Nanos> = stats.iter().map(|s| s.latency).collect();
    LatencySummary {
        p50: percentile(&lats, 50.0),
        p99: percentile(&lats, 99.0),
    }
}

/// Relative reduction `(base − new) / base`, for "X% lower latency"
/// reporting.
pub fn reduction(base: Nanos, new: Nanos) -> f64 {
    if base == Nanos::ZERO {
        return 0.0;
    }
    (base.0 as f64 - new.0 as f64) / base.0 as f64
}

/// What [`measure`] timed for one kernel cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timing {
    /// Timed calls (the warm-up calls excluded).
    pub iters: u64,
    /// Wall-clock nanoseconds the timed calls took.
    pub elapsed_ns: u128,
}

impl Timing {
    /// Throughput per second, for `units` of work per call.
    pub(crate) fn rate(&self, units: f64) -> f64 {
        units * self.iters as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Times one kernel cell of a wall-clock experiment: two warm-up calls
/// of `body` (tables hot, buffers allocated), then calls until `window`
/// has elapsed.
pub(crate) fn measure(window: Duration, mut body: impl FnMut()) -> Timing {
    body();
    body();
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        body();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= window {
            return Timing {
                iters,
                elapsed_ns: elapsed.as_nanos(),
            };
        }
    }
}

/// Speedup over matched cells: the geometric mean of their `(base, new)`
/// rate ratios (one pair gives its plain ratio).
pub(crate) fn speedup(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let logs: Vec<f64> = pairs
        .into_iter()
        .map(|(base, new)| (new / base).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> BenchEnv {
        BenchEnv::new(0.02, 2, 20, 4)
    }

    #[test]
    fn store_caching_and_replay() {
        let env = tiny_env();
        let store = env.lineitem_store(SystemKind::Fusion);
        assert_eq!(store.object_names().len(), 2);
        let outputs = env.outputs_per_copy(store, "lineitem", |obj| {
            format!("SELECT linenumber FROM {obj} WHERE linenumber < 2")
        });
        assert_eq!(outputs.len(), 2);
        let stats = env.replay(store, &outputs);
        assert_eq!(stats.len(), 20);
        let s = summarize(&stats);
        assert!(s.p99 >= s.p50);
        assert!(s.p50 > Nanos::ZERO);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction(Nanos(100), Nanos(40)) - 0.6).abs() < 1e-12);
        assert_eq!(reduction(Nanos::ZERO, Nanos(5)), 0.0);
        assert!(reduction(Nanos(100), Nanos(150)) < 0.0);
    }

    #[test]
    fn measure_warms_up_then_fills_the_window() {
        // A zero window: the two warm-up calls, then one timed call.
        let mut calls = 0u64;
        let t = measure(Duration::ZERO, || calls += 1);
        assert_eq!((calls, t.iters), (3, 1));
        // Every call sleeps at least 1 ms, so a 10 ms window fills within
        // ten timed calls, and the loop stops there.
        let mut calls = 0u64;
        let t = measure(Duration::from_millis(10), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(calls, t.iters + 2);
        assert!((1..=10).contains(&t.iters), "{t:?}");
        assert!(t.elapsed_ns >= 10_000_000, "{t:?}");
        // Rates are per second of the timed calls.
        let t = Timing {
            iters: 4,
            elapsed_ns: 2_000_000_000,
        };
        assert_eq!(t.rate(3.0), 6.0);
    }

    #[test]
    fn speedup_is_the_geomean_of_matched_ratios() {
        assert!((speedup([(2.0, 6.0)]) - 3.0).abs() < 1e-12);
        assert!((speedup([(2.0, 4.0), (1.0, 8.0)]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_block_ratio() {
        assert_eq!(BenchEnv::scaled_block(10 << 20), (10 << 20) / 100);
        assert_eq!(BenchEnv::scaled_block(1000), 16 << 10); // floor
    }
}
