//! Cluster hardware specification and the calibrated cost model that turns
//! real byte/row counts into virtual time.
//!
//! Defaults mirror the paper's testbed (§6): CloudLab r6525 nodes — 64
//! cores, NVMe SSDs, 100 GbE NICs shaped to 25 Gbps with wondershaper, and
//! a dedicated client machine. Absolute rates are calibrated, not claimed:
//! Fusion's results are latency *ratios*, which depend on where bytes flow,
//! not on the exact constants.

use crate::time::Nanos;
use crate::topology::Topology;

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of storage nodes (paper: 9 storage + 1 client).
    pub nodes: usize,
    /// CPU cores per node usable by query work.
    pub cores_per_node: usize,
    /// The cost model.
    pub cost: CostModel,
    /// Retry/timeout policy for RPCs to flaky (failed-then-revived)
    /// nodes.
    pub retry: RetryPolicy,
    /// Failure-domain layout of the nodes. Consumers should read it via
    /// [`ClusterSpec::effective_topology`], which falls back to a flat
    /// topology whenever this field describes a different node count
    /// (e.g. a spec built with struct-update syntax that changed `nodes`
    /// without touching `topology`).
    pub topology: Topology,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 9,
            cores_per_node: 64,
            cost: CostModel::default(),
            retry: RetryPolicy::default(),
            topology: Topology::flat(9),
        }
    }
}

/// How the client handles RPCs to nodes that recently failed: each
/// failed attempt burns a full `timeout` before the next try, up to
/// `max_retries` tries, after which the request is routed elsewhere.
///
/// The query executors consult this when a step lands on a node the
/// store marked flaky (revived by the fault injector and not yet
/// recovered), charging `timeout × attempts` of pure
/// delay ahead of the step — the time-plane cost of discovering a node
/// is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Time a request waits before declaring an attempt dead.
    pub timeout: Nanos,
    /// Attempts before giving up on the node and re-routing.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Nanos::from_micros(2_000),
            max_retries: 2,
        }
    }
}

impl RetryPolicy {
    /// Delay charged when `failed_attempts` tries timed out before one
    /// succeeded (capped at `max_retries`).
    pub fn penalty(&self, failed_attempts: u32) -> Nanos {
        Nanos(self.timeout.0 * u64::from(failed_attempts.min(self.max_retries)))
    }
}

impl ClusterSpec {
    /// A spec with `nodes` storage nodes and default hardware.
    pub fn with_nodes(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            topology: Topology::flat(nodes),
            ..ClusterSpec::default()
        }
    }

    /// A spec whose node count and failure domains both come from the
    /// given topology.
    pub fn with_topology(topology: Topology) -> ClusterSpec {
        ClusterSpec {
            nodes: topology.nodes(),
            topology,
            ..ClusterSpec::default()
        }
    }

    /// The topology to actually use: the stored one when it matches
    /// `nodes`, otherwise a flat fallback so stale or defaulted
    /// topologies never mis-map nodes to domains.
    pub fn effective_topology(&self) -> Topology {
        if self.topology.nodes() == self.nodes {
            self.topology.clone()
        } else {
            Topology::flat(self.nodes)
        }
    }
}

/// Rates and fixed costs that map work to virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Sequential disk read bandwidth, bytes/sec (the testbed's PCIe-4
    /// enterprise NVMe sustains ~7 GB/s with direct I/O).
    pub disk_read_bps: f64,
    /// Per-request disk access latency.
    pub disk_access: Nanos,
    /// NIC bandwidth per direction, bytes/sec (25 Gbps shaped).
    pub nic_bps: f64,
    /// One-way network latency plus RPC framing overhead, charged per RPC.
    pub rpc_overhead: Nanos,
    /// CPU throughput for Snappy decompression + decode, measured against
    /// *uncompressed* output bytes.
    pub cpu_decode_bps: f64,
    /// CPU throughput for predicate evaluation, values/sec.
    pub cpu_eval_vps: f64,
    /// CPU throughput for projection/result materialization, bytes/sec of
    /// output.
    pub cpu_project_bps: f64,
    /// CPU throughput for Reed-Solomon coding, bytes/sec of stripe data.
    pub cpu_ec_bps: f64,
    /// CPU throughput for Snappy *compression*, measured against
    /// uncompressed input bytes — charged when a node compresses filter
    /// bitmaps or candidate pages, mirroring `cpu_decode_bps` on the
    /// write side.
    pub cpu_compress_bps: f64,
    /// CPU cost of moving bytes through the network stack (TCP/RPC
    /// processing), bytes/sec per core — the "network processing CPU"
    /// the paper's §1 and Figure 14d refer to.
    pub cpu_net_bps: f64,
    /// Fixed coordinator-side work per query (parse, plan, assemble).
    pub query_overhead: Nanos,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            disk_read_bps: 7.0e9,
            disk_access: Nanos::from_micros(80),
            nic_bps: 25.0e9 / 8.0, // 25 Gbps
            rpc_overhead: Nanos::from_micros(200),
            cpu_decode_bps: 4.0e9,
            cpu_eval_vps: 2.0e9,
            cpu_project_bps: 3.0e9,
            cpu_ec_bps: 4.0e9,
            cpu_compress_bps: 2.0e9,
            cpu_net_bps: 2.5e9,
            query_overhead: Nanos::from_micros(300),
        }
    }
}

impl CostModel {
    /// Sets the NIC bandwidth in Gbps (the paper's wondershaper sweep,
    /// Fig 14c). Call before [`CostModel::scaled_down`]; the scale factor
    /// applies on top.
    pub fn with_nic_gbps(mut self, gbps: f64) -> CostModel {
        self.nic_bps = gbps * 1e9 / 8.0;
        self
    }

    /// Scales every throughput rate down by `factor`, leaving fixed
    /// latencies (RPC overhead, disk access, query overhead) untouched.
    ///
    /// This is how the harness keeps the testbed's fixed-vs-proportional
    /// cost balance while running on files `factor`× smaller than the
    /// paper's: a chunk that is 1/1000 the size takes the same virtual
    /// time as the real chunk did on the real hardware (DESIGN.md §3).
    pub fn scaled_down(mut self, factor: f64) -> CostModel {
        assert!(factor > 0.0, "scale factor must be positive");
        self.disk_read_bps /= factor;
        self.nic_bps /= factor;
        self.cpu_decode_bps /= factor;
        self.cpu_eval_vps /= factor;
        self.cpu_project_bps /= factor;
        self.cpu_ec_bps /= factor;
        self.cpu_compress_bps /= factor;
        self.cpu_net_bps /= factor;
        self
    }

    /// Disk time for a contiguous read.
    pub fn disk_read(&self, bytes: u64) -> Nanos {
        self.disk_access + crate::time::transfer_time(bytes, self.disk_read_bps)
    }

    /// Wire time for a transfer of `bytes` (bandwidth component only; add
    /// [`CostModel::rpc_overhead`] once per message).
    pub fn wire(&self, bytes: u64) -> Nanos {
        crate::time::transfer_time(bytes, self.nic_bps)
    }

    /// CPU time to decompress + decode a chunk producing
    /// `uncompressed_bytes`.
    pub fn decode(&self, uncompressed_bytes: u64) -> Nanos {
        self.decode_at(uncompressed_bytes, 1.0)
    }

    /// CPU time to decompress + parse a chunk with a scan kernel running
    /// at `speedup`× the calibrated decode rate — the encoded-domain scan
    /// engine parses pages without materializing rows, so storage nodes
    /// pass their calibrated speedup here (mirroring [`CostModel::ec_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    pub fn decode_at(&self, uncompressed_bytes: u64, speedup: f64) -> Nanos {
        assert!(speedup > 0.0, "scan speedup must be positive");
        crate::time::transfer_time(uncompressed_bytes, self.cpu_decode_bps * speedup)
    }

    /// CPU time to evaluate a predicate over `values` rows.
    pub fn eval(&self, values: u64) -> Nanos {
        self.eval_at(values, 1.0)
    }

    /// CPU time to evaluate a predicate over `values` rows with a kernel
    /// running at `speedup`× the calibrated per-row rate (dictionary-mask
    /// and RLE-span kernels evaluate far fewer than one comparison per
    /// row).
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    pub fn eval_at(&self, values: u64, speedup: f64) -> Nanos {
        assert!(speedup > 0.0, "scan speedup must be positive");
        crate::time::transfer_time(values, self.cpu_eval_vps * speedup)
    }

    /// CPU time to materialize `bytes` of projection output.
    pub fn project(&self, bytes: u64) -> Nanos {
        crate::time::transfer_time(bytes, self.cpu_project_bps)
    }

    /// CPU time to build, merge, or serialize `bytes` of keyed
    /// aggregate-state (GROUP BY pushdown ships per-group `PartialAgg`
    /// slots instead of projected rows). State assembly is a gather-like
    /// memory-bound pass, so it runs at the projection rate.
    pub fn agg_state(&self, bytes: u64) -> Nanos {
        crate::time::transfer_time(bytes, self.cpu_project_bps)
    }

    /// CPU time to erasure-code `bytes` of stripe data at the calibrated
    /// scalar rate (equivalent to [`CostModel::ec_at`] with speedup 1).
    pub fn ec(&self, bytes: u64) -> Nanos {
        self.ec_at(bytes, 1.0)
    }

    /// CPU time to erasure-code `bytes` with a GF(2^8) kernel running at
    /// `speedup`× the calibrated scalar rate. The store's encode, repair,
    /// and degraded-read paths pass the configured codec's measured
    /// speedup here so the time plane reflects the kernel choice.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    pub fn ec_at(&self, bytes: u64, speedup: f64) -> Nanos {
        assert!(speedup > 0.0, "codec speedup must be positive");
        crate::time::transfer_time(bytes, self.cpu_ec_bps * speedup)
    }

    /// CPU time to Snappy-compress `bytes` of uncompressed input at the
    /// calibrated scalar rate (equivalent to [`CostModel::compress_at`]
    /// with speedup 1).
    pub fn compress(&self, bytes: u64) -> Nanos {
        self.compress_at(bytes, 1.0)
    }

    /// CPU time to Snappy-compress `bytes` with a kernel running at
    /// `speedup`× the calibrated scalar rate — storage nodes pass their
    /// measured fast-codec speedup here, mirroring [`CostModel::ec_at`]
    /// and [`CostModel::decode_at`].
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    pub fn compress_at(&self, bytes: u64, speedup: f64) -> Nanos {
        assert!(speedup > 0.0, "compression speedup must be positive");
        crate::time::transfer_time(bytes, self.cpu_compress_bps * speedup)
    }

    /// CPU time spent in the network stack to move `bytes` (charged at
    /// both endpoints of a transfer).
    pub fn net_cpu(&self, bytes: u64) -> Nanos {
        crate::time::transfer_time(bytes, self.cpu_net_bps)
    }

    /// End-to-end time of one metadata-plane RPC carrying `bytes` of
    /// location state: RPC framing + one-way latency plus wire time.
    /// PUT charges this per location-record replica; a stored-map read
    /// pays it for the whole paper-format map, a computed-placement
    /// read only for the compact layout record.
    pub fn meta_rpc(&self, bytes: u64) -> Nanos {
        self.rpc_overhead + self.wire(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let spec = ClusterSpec::default();
        assert_eq!(spec.nodes, 9);
        assert_eq!(spec.cores_per_node, 64);
        assert!((spec.cost.nic_bps - 3.125e9).abs() < 1.0);
    }

    #[test]
    fn nic_sweep() {
        let m = CostModel::default().with_nic_gbps(10.0);
        assert!((m.nic_bps - 1.25e9).abs() < 1.0);
        // Slower NIC means longer wire time.
        assert!(m.wire(1 << 30) > CostModel::default().wire(1 << 30));
    }

    #[test]
    fn disk_read_includes_access() {
        let m = CostModel::default();
        assert_eq!(m.disk_read(0), m.disk_access);
        assert!(m.disk_read(1 << 30) > m.disk_access);
    }

    #[test]
    fn cost_components_scale_linearly() {
        let m = CostModel::default();
        let close = |a: Nanos, b: Nanos| (a.0 as i64 - b.0 as i64).unsigned_abs() <= 1;
        assert!(close(m.decode(2_000), Nanos(2 * m.decode(1_000).0)));
        assert!(close(m.eval(2_000), Nanos(2 * m.eval(1_000).0)));
        assert!(close(m.project(4_000), Nanos(2 * m.project(2_000).0)));
        assert!(close(m.ec(4_000), Nanos(2 * m.ec(2_000).0)));
    }

    #[test]
    fn meta_rpc_is_overhead_plus_wire() {
        let m = CostModel::default();
        assert_eq!(m.meta_rpc(0), m.rpc_overhead);
        assert_eq!(m.meta_rpc(1 << 20), m.rpc_overhead + m.wire(1 << 20));
        // Compact records make the metadata RPC strictly cheaper than
        // shipping a full per-chunk map.
        assert!(m.meta_rpc(32) < m.meta_rpc(512));
    }

    #[test]
    fn with_nodes_builder() {
        assert_eq!(ClusterSpec::with_nodes(14).nodes, 14);
    }

    #[test]
    fn ec_at_scales_with_codec_speedup() {
        let m = CostModel::default();
        assert_eq!(m.ec_at(1 << 20, 1.0), m.ec(1 << 20));
        // A 4x-faster kernel takes a quarter of the CPU time.
        let fast = m.ec_at(4 << 20, 4.0);
        assert_eq!(fast, m.ec(1 << 20));
        assert!(m.ec_at(1 << 20, 4.0) < m.ec(1 << 20));
    }

    #[test]
    #[should_panic(expected = "codec speedup must be positive")]
    fn ec_at_rejects_nonpositive_speedup() {
        let _ = CostModel::default().ec_at(1, 0.0);
    }

    #[test]
    fn compress_at_scales_with_speedup() {
        let m = CostModel::default();
        assert_eq!(m.compress_at(1 << 20, 1.0), m.compress(1 << 20));
        let fast = m.compress_at(4 << 20, 4.0);
        assert_eq!(fast, m.compress(1 << 20));
        assert!(m.compress_at(1 << 20, 4.0) < m.compress(1 << 20));
    }

    #[test]
    #[should_panic(expected = "compression speedup must be positive")]
    fn compress_at_rejects_nonpositive_speedup() {
        let _ = CostModel::default().compress_at(1, 0.0);
    }

    #[test]
    fn scaled_down_preserves_fixed_costs() {
        let base = CostModel::default();
        let scaled = base.clone().scaled_down(1000.0);
        // Per-byte costs grow by the factor...
        assert_eq!(scaled.wire(1_000).0, base.wire(1_000_000).0);
        assert_eq!(scaled.decode(1_000).0, base.decode(1_000_000).0);
        assert_eq!(scaled.compress(1_000).0, base.compress(1_000_000).0);
        assert_eq!(scaled.net_cpu(1_000).0, base.net_cpu(1_000_000).0);
        // ...while fixed latencies stay put.
        assert_eq!(scaled.rpc_overhead, base.rpc_overhead);
        assert_eq!(scaled.disk_access, base.disk_access);
        assert_eq!(scaled.query_overhead, base.query_overhead);
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scaled_down_rejects_nonpositive() {
        let _ = CostModel::default().scaled_down(0.0);
    }

    #[test]
    fn scaled_down_covers_every_plane() {
        // Audit: scaling by `f` must scale the output of every
        // throughput plane — decode, eval, project, EC, compress,
        // net-cpu, disk, wire — by exactly `f` (±1ns rounding). A plane
        // whose rate `scaled_down` misses (as `cpu_compress_bps` almost
        // was in the PR-4 bolt-on) fails this for that plane alone.
        let f = 7.0;
        let base = CostModel::default();
        let scaled = base.clone().scaled_down(f);
        // Base durations round to whole nanos before the ×f comparison,
        // so allow that half-nano error amplified by f.
        let close =
            |a: Nanos, b: Nanos| (a.0 as i64 - b.0 as i64).unsigned_abs() as f64 <= f / 2.0 + 1.0;
        let x = 9_000_000u64;
        let times_f = |n: Nanos| Nanos((n.0 as f64 * f).round() as u64);
        // Speedup-aware `*_at` variants, at a non-unit speedup so the
        // speedup path is exercised too.
        let s = 3.0;
        assert!(close(scaled.decode_at(x, s), times_f(base.decode_at(x, s))));
        assert!(close(scaled.eval_at(x, s), times_f(base.eval_at(x, s))));
        assert!(close(scaled.ec_at(x, s), times_f(base.ec_at(x, s))));
        assert!(close(
            scaled.compress_at(x, s),
            times_f(base.compress_at(x, s))
        ));
        // Plain planes.
        assert!(close(scaled.project(x), times_f(base.project(x))));
        assert!(close(scaled.net_cpu(x), times_f(base.net_cpu(x))));
        assert!(close(scaled.wire(x), times_f(base.wire(x))));
        // Disk scales only its bandwidth component; the fixed access
        // latency stays put.
        assert!(close(
            scaled.disk_read(x).saturating_sub(scaled.disk_access),
            times_f(base.disk_read(x).saturating_sub(base.disk_access))
        ));
    }
}
