//! Store configuration: erasure-code parameters, layout policy, pushdown
//! policy, and the simulated cluster spec.

use fusion_cluster::spec::ClusterSpec;
use fusion_ec::rs::CodeParamsError;
use fusion_ec::ErasureCode;

/// Erasure-code parameters: `(n, k)` plus an optional local-group count
/// selecting a locally-repairable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcConfig {
    /// Total blocks per stripe.
    pub n: usize,
    /// Data blocks per stripe.
    pub k: usize,
    /// Local parity groups. Zero selects plain Reed-Solomon; `l > 0`
    /// selects `LRC(n, k, l)` — `l` of the `n − k` parity blocks become
    /// per-group local parities (cheap single-shard repair), the rest
    /// stay global.
    pub local_groups: usize,
}

impl EcConfig {
    /// The paper's default: RS(9, 6).
    pub const RS_9_6: EcConfig = EcConfig::rs(9, 6);
    /// The other common production code: RS(14, 10).
    pub const RS_14_10: EcConfig = EcConfig::rs(14, 10);
    /// The repair-efficient code: LRC(10, 6, 2) — same guaranteed
    /// tolerance (3) as RS(9, 6), one extra parity block, and
    /// single-shard repair from 3 shards instead of 6.
    pub const LRC_10_6: EcConfig = EcConfig::lrc(10, 6, 2);

    /// Plain Reed-Solomon `(n, k)`.
    pub const fn rs(n: usize, k: usize) -> EcConfig {
        EcConfig {
            n,
            k,
            local_groups: 0,
        }
    }

    /// Locally-repairable `LRC(n, k, l)`.
    pub const fn lrc(n: usize, k: usize, local_groups: usize) -> EcConfig {
        EcConfig { n, k, local_groups }
    }

    /// Parity blocks per stripe.
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Guaranteed simultaneous-loss tolerance: `n − k` for RS, `g + 1 =
    /// n − k − l + 1` for LRC (local parities trade tolerance for repair
    /// locality).
    pub fn tolerance(&self) -> usize {
        if self.local_groups == 0 {
            self.n - self.k
        } else {
            self.n - self.k - self.local_groups + 1
        }
    }

    /// Optimal storage overhead `(n − k) / k`.
    pub fn optimal_overhead(&self) -> f64 {
        (self.n - self.k) as f64 / self.k as f64
    }

    /// Instantiates the erasure code this config describes.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from [`ErasureCode::new`].
    pub fn build_codec(&self) -> Result<ErasureCode, CodeParamsError> {
        ErasureCode::new(self.n, self.k, self.local_groups)
    }
}

impl std::fmt::Display for EcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.local_groups == 0 {
            write!(f, "RS({}, {})", self.n, self.k)
        } else {
            write!(f, "LRC({}, {}, {})", self.n, self.k, self.local_groups)
        }
    }
}

/// How stripe shards are mapped to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Spread shards across failure domains: no domain holds more than
    /// the code's tolerance in shards of one stripe, and no domain holds
    /// two shards of the same local group. A whole-domain outage then
    /// never loses data, and local repair stays available.
    #[default]
    DomainAware,
    /// Topology-oblivious random placement (distinct nodes only) — the
    /// pre-topology behavior, kept as the experimental control.
    Naive,
    /// Seeded rendezvous (highest-random-weight) hashing over
    /// `(seed, object, stripe, shard, node)` with the same
    /// failure-domain constraints as [`PlacementPolicy::DomainAware`].
    /// Placement becomes a pure function of the object key and cluster
    /// membership — the store keeps a compact
    /// [`crate::meta::LayoutRecord`] per object instead of a full
    /// per-chunk map, and membership changes move only ~1/n of chunks
    /// (DESIGN.md §16).
    Deterministic,
}

/// How objects are cut into erasure-code data blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayoutPolicy {
    /// Fixed-size blocks, format-oblivious — what MinIO/Ceph-class systems
    /// do. Column chunks may split across nodes.
    Fixed,
    /// The padding approach of Adams et al.: fixed-size blocks, chunks
    /// aligned to block boundaries by inserting physical padding.
    Padding,
    /// Fusion's file-format-aware coding: variable block sizes per stripe,
    /// chunks never split, bin-packed to minimize overhead (Algorithm 1).
    Fac,
    /// Exact branch-and-bound solution of the stripe-construction ILP,
    /// with a wall-clock deadline (stands in for the paper's Gurobi
    /// oracle).
    Oracle {
        /// Give up and return the best incumbent after this much real time.
        deadline: std::time::Duration,
    },
}

impl LayoutPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutPolicy::Fixed => "fixed",
            LayoutPolicy::Padding => "padding",
            LayoutPolicy::Fac => "fac",
            LayoutPolicy::Oracle { .. } => "oracle",
        }
    }
}

/// How queries execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Reassemble needed chunks at the coordinator, then evaluate locally
    /// (the baseline, with footer-based chunk pruning).
    Reassemble,
    /// Push filters down always; push projections down only when the Cost
    /// Equation `selectivity × compressibility < 1` holds (Fusion).
    AdaptivePushdown,
    /// Push everything down unconditionally (the ablation of §4.3).
    AlwaysPushdown,
}

/// Complete store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Erasure code.
    pub ec: EcConfig,
    /// Block size for [`LayoutPolicy::Fixed`] / [`LayoutPolicy::Padding`]
    /// (paper default: 100 MB).
    pub block_size: u64,
    /// Layout policy.
    pub layout: LayoutPolicy,
    /// Maximum additional storage overhead w.r.t. optimal that FAC may
    /// incur before falling back to fixed blocks (paper default: 2%).
    pub overhead_threshold: f64,
    /// Query execution mode.
    pub query_mode: QueryMode,
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Seed for placement randomness.
    pub seed: u64,
    /// Extension (the paper's stated future work): push aggregates
    /// (COUNT/SUM/AVG/MIN/MAX) down to storage nodes for aggregate-only
    /// queries, so only tiny partial results cross the network.
    pub aggregate_pushdown: bool,
    /// Worker threads for put's stripe-level encode, their only user:
    /// queries, degraded reads, recovery and scrub each run on their
    /// caller's thread. Zero is clamped to one; the default is the
    /// machine's available parallelism capped at eight (see DESIGN.md §9).
    pub ec_threads: usize,
    /// Capacity of the per-node encoded-chunk cache in bytes (decoded
    /// dictionary + run structure, weighed by [`fusion_format::chunk::EncodedChunk::weight_bytes`]).
    /// Repeated queries over the same chunks then skip the read + parse
    /// entirely. Zero disables caching.
    pub chunk_cache_bytes: u64,
    /// Charge the filter stage at the encoded-domain scan kernels' rate
    /// (dictionary-mask + RLE-span + word-batched plain loops): the time
    /// plane scales filter-stage CPU by [`StoreConfig::scan_speedup`].
    /// `false` models the decode-then-filter ablation at the calibrated
    /// decode + per-row eval rates. The data plane always runs the
    /// encoded kernels, so answers are the same either way.
    pub encoded_scan: bool,
    /// Record per-query structured trace spans ([`fusion_obs::trace::Trace`])
    /// while executing. Off by default: the hot path then uses the no-op
    /// recorder, which allocates nothing and records nothing, so benches
    /// measure the same code they always did. Metrics counters (cheap
    /// relaxed atomics) are always on regardless of this flag.
    pub observability: bool,
    /// How stripe shards map onto the cluster's failure domains.
    pub placement: PlacementPolicy,
}

/// Calibrated throughput ratio of the fast GF(2^8) kernels
/// ([`fusion_ec::FastCodec`]) over the scalar reference
/// ([`fusion_ec::ScalarCodec`]) at RS(9, 6) with 1 MiB shards — measured
/// by the `ec_throughput` experiment (see `results/ec_throughput.json`;
/// ~6.5x encode, ~2.5x worst-case reconstruct, blended to 4.0 since the
/// time plane charges one rate for both). The simulated time plane
/// scales erasure-coding CPU cost by it: the data path always runs the
/// fast kernels (the differential suites prove them byte-identical to
/// the reference).
pub const FAST_CODEC_SPEEDUP: f64 = 4.0;

/// Calibrated throughput ratio of the encoded-domain scan kernels over the
/// decode-then-filter path — measured by the `scan_throughput` experiment
/// (geomean over a 0.001–1.0 selectivity sweep, 256Ki-row Int64 chunks;
/// see `results/scan_throughput.json`). Cache-hot scans measure ~5.3x on
/// dictionary columns, ~121x on RLE-run columns, and ~27x on plain
/// columns (the hot view also skips the Snappy decompress); cache-cold
/// scans measure ~1.4x / ~14.3x / ~1.0x (ratios over a decode path that
/// itself now runs the fast Snappy kernels). Blended conservatively to 6.0
/// since the time plane charges one rate for both the parse and the
/// predicate across all shapes. Used by the simulated time plane to scale
/// filter-stage CPU cost when [`StoreConfig::encoded_scan`] is on.
pub const ENCODED_SCAN_SPEEDUP: f64 = 6.0;

/// Calibrated throughput ratio of the fast Snappy kernels over the scalar
/// reference codec — measured by the `snappy_throughput` experiment (see
/// `results/snappy_throughput.json`). Decompress measures a ~11.2x
/// geomean over the compressible page mixes (run-heavy + text, ~1.0x at
/// the memcpy wall on incompressible pages, ~5.0x across all three);
/// compress measures ~10.1x across all mixes. Blended conservatively to
/// 6.0 since the time plane charges one rate for both directions across
/// all page shapes. The simulated time plane scales page-decompression
/// and bitmap-compression CPU cost by it: the data path always runs the
/// fast kernels (the differential suite proves them byte-compatible with
/// the reference codec).
pub const FAST_SNAPPY_SPEEDUP: f64 = 6.0;

/// Default per-node chunk-cache capacity: 64 MiB.
pub const DEFAULT_CHUNK_CACHE_BYTES: u64 = 64 << 20;

/// Default EC worker-thread count: available parallelism, capped at eight.
fn default_ec_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            ec: EcConfig::RS_9_6,
            block_size: 100 << 20,
            layout: LayoutPolicy::Fac,
            overhead_threshold: 0.02,
            query_mode: QueryMode::AdaptivePushdown,
            cluster: ClusterSpec::default(),
            seed: 0xF051_0A11,
            aggregate_pushdown: false,
            ec_threads: default_ec_threads(),
            chunk_cache_bytes: DEFAULT_CHUNK_CACHE_BYTES,
            encoded_scan: true,
            observability: false,
            placement: PlacementPolicy::default(),
        }
    }
}

impl StoreConfig {
    /// The Fusion configuration used throughout the paper's evaluation.
    pub fn fusion() -> StoreConfig {
        StoreConfig::default()
    }

    /// The baseline configuration: fixed blocks + coordinator reassembly
    /// (representative of MinIO / Ceph).
    pub fn baseline() -> StoreConfig {
        StoreConfig {
            layout: LayoutPolicy::Fixed,
            query_mode: QueryMode::Reassemble,
            ..StoreConfig::default()
        }
    }

    /// Overrides the placement seed (placement randomness is the only
    /// nondeterminism in the store).
    pub fn with_seed(mut self, seed: u64) -> StoreConfig {
        self.seed = seed;
        self
    }

    /// Overrides the erasure code.
    pub fn with_ec(mut self, ec: EcConfig) -> StoreConfig {
        self.ec = ec;
        self
    }

    /// Overrides the fixed/padding block size.
    pub fn with_block_size(mut self, bytes: u64) -> StoreConfig {
        self.block_size = bytes;
        self
    }

    /// Enables aggregate pushdown (the paper's future-work extension).
    pub fn with_aggregate_pushdown(mut self, on: bool) -> StoreConfig {
        self.aggregate_pushdown = on;
        self
    }

    /// Overrides the shard-placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> StoreConfig {
        self.placement = placement;
        self
    }

    /// Overrides the simulated cluster spec (node count, topology, cost
    /// model).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> StoreConfig {
        self.cluster = cluster;
        self
    }

    /// Overrides the EC worker-thread count (zero is clamped to one).
    pub fn with_ec_threads(mut self, threads: usize) -> StoreConfig {
        self.ec_threads = threads.max(1);
        self
    }

    /// Overrides the per-node chunk-cache capacity (zero disables).
    pub fn with_chunk_cache_bytes(mut self, bytes: u64) -> StoreConfig {
        self.chunk_cache_bytes = bytes;
        self
    }

    /// Sets [`StoreConfig::encoded_scan`], the modelled filter-scan rate.
    pub fn with_encoded_scan(mut self, on: bool) -> StoreConfig {
        self.encoded_scan = on;
        self
    }

    /// Throughput multiplier of the configured filter-scan path relative
    /// to the calibrated decode + per-row eval rates, used when the time
    /// plane charges in-situ filter-stage CPU.
    pub fn scan_speedup(&self) -> f64 {
        if self.encoded_scan {
            ENCODED_SCAN_SPEEDUP
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_math() {
        assert_eq!(EcConfig::RS_9_6.parity(), 3);
        assert_eq!(EcConfig::RS_9_6.optimal_overhead(), 0.5);
        assert_eq!(EcConfig::RS_14_10.optimal_overhead(), 0.4);
        assert_eq!(EcConfig::RS_9_6.to_string(), "RS(9, 6)");
    }

    #[test]
    fn ec_lrc_config() {
        let lrc = EcConfig::LRC_10_6;
        assert_eq!(lrc.parity(), 4);
        assert_eq!(lrc.tolerance(), 3);
        assert_eq!(EcConfig::RS_9_6.tolerance(), 3);
        assert_eq!(lrc.to_string(), "LRC(10, 6, 2)");
        let code = lrc.build_codec().unwrap();
        assert_eq!(code.total_blocks(), 10);
        assert_eq!(code.data_blocks(), 6);
        assert_eq!(code.tolerance(), 3);
        assert_eq!(code.group_of(0), Some(0));
        assert_eq!(code.group_of(9), None);
        let rs = EcConfig::RS_9_6.build_codec().unwrap();
        assert_eq!(rs.tolerance(), 3);
        assert_eq!(rs.group_of(0), None);
        assert_eq!(rs.to_string(), "RS(9, 6)");
        // Bad LRC params surface as codec construction errors.
        assert!(EcConfig::lrc(10, 6, 4).build_codec().is_err());
    }

    #[test]
    fn presets() {
        let f = StoreConfig::fusion();
        assert_eq!(f.layout, LayoutPolicy::Fac);
        assert_eq!(f.query_mode, QueryMode::AdaptivePushdown);
        let b = StoreConfig::baseline();
        assert_eq!(b.layout, LayoutPolicy::Fixed);
        assert_eq!(b.query_mode, QueryMode::Reassemble);
        assert_eq!(b.block_size, 100 << 20);
        assert!((b.overhead_threshold - 0.02).abs() < 1e-12);
    }

    #[test]
    fn builders() {
        let c = StoreConfig::default()
            .with_seed(7)
            .with_ec(EcConfig::RS_14_10)
            .with_block_size(1 << 20)
            .with_ec_threads(0);
        assert_eq!(c.seed, 7);
        assert_eq!(c.ec, EcConfig::RS_14_10);
        assert_eq!(c.block_size, 1 << 20);
        assert_eq!(c.ec_threads, 1, "zero threads clamps to one");
    }

    #[test]
    fn codec_defaults_and_speedup() {
        let c = StoreConfig::default();
        assert!(c.ec_threads >= 1);
        // Acceptance floor for FastCodec, kept as a const block so the
        // build itself fails if the calibration ever drops below 3x.
        const { assert!(FAST_CODEC_SPEEDUP >= 3.0) };
    }

    #[test]
    fn scan_defaults_and_speedup() {
        let c = StoreConfig::default();
        assert!(c.encoded_scan);
        assert_eq!(c.chunk_cache_bytes, DEFAULT_CHUNK_CACHE_BYTES);
        assert_eq!(c.scan_speedup(), ENCODED_SCAN_SPEEDUP);
        let c = c.with_encoded_scan(false).with_chunk_cache_bytes(0);
        assert_eq!(c.scan_speedup(), 1.0);
        assert_eq!(c.chunk_cache_bytes, 0);
        // Acceptance floor for the encoded-domain kernels, kept as a
        // const block so the build fails if calibration drops below 3x.
        const { assert!(ENCODED_SCAN_SPEEDUP >= 3.0) };
    }

    #[test]
    fn snappy_speedup_floor() {
        // Acceptance floor for the fast Snappy kernels, kept as a const
        // block so the build fails if calibration drops below 3x.
        const { assert!(FAST_SNAPPY_SPEEDUP >= 3.0) };
    }

    #[test]
    fn policy_names() {
        assert_eq!(LayoutPolicy::Fixed.name(), "fixed");
        assert_eq!(
            LayoutPolicy::Oracle {
                deadline: std::time::Duration::from_secs(1)
            }
            .name(),
            "oracle"
        );
    }
}
