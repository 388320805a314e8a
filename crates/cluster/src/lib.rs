#![warn(missing_docs)]

//! # fusion-cluster
//!
//! A discrete-event simulated storage cluster, standing in for the paper's
//! CloudLab r6525 testbed (9 storage nodes + 1 client, 25 Gbps shaped
//! NICs, NVMe SSDs).
//!
//! Two planes:
//!
//! * **Data plane** ([`store::BlockStore`]) — real bytes. Erasure-coded
//!   blocks, chunk payloads, and query results are materialized and moved
//!   for real, so every byte count in the latency model is measured, not
//!   estimated.
//! * **Time plane** ([`engine::Engine`]) — a virtual clock. Queries
//!   compile to DAGs of steps over contended resources (per-node disk, NIC
//!   tx/rx, CPU pool) whose durations come from a calibrated
//!   [`spec::CostModel`]. Work enters two ways: closed-loop clients
//!   ([`engine::Engine::run_closed_loop`], the paper's ten clients) and
//!   open-loop job streams ([`engine::Engine::run_jobs`], fed by hand or
//!   by the Poisson [`traffic::TrafficGen`]). The engine reports
//!   per-query latency, critical-path breakdowns (disk / processing /
//!   network), network bytes, and per-resource busy time.
//!
//! Splitting the planes this way is the substitution documented in
//! DESIGN.md §3: the paper's headline numbers are latency *ratios* between
//! Fusion and a baseline running identical workloads, which are determined
//! by where bytes flow — exactly what the data plane reproduces.
//!
//! ## Quickstart
//!
//! ```
//! use fusion_cluster::engine::{CostClass, Engine, ResourceKey, Workflow};
//! use fusion_cluster::spec::ClusterSpec;
//! use fusion_cluster::time::Nanos;
//!
//! let spec = ClusterSpec::default();
//! let mut wf = Workflow::new();
//! let disk = wf.step(
//!     ResourceKey::Disk(0),
//!     spec.cost.disk_read(1 << 20),
//!     CostClass::DiskRead,
//!     &[],
//! );
//! wf.step(ResourceKey::Cpu(0), spec.cost.decode(1 << 20), CostClass::Processing, &[disk]);
//!
//! let report = Engine::new(spec).run_closed_loop(vec![vec![wf]]);
//! assert_eq!(report.stats.len(), 1);
//! ```

pub mod engine;
pub mod fault;
pub mod spec;
pub mod store;
pub mod time;
pub mod topology;
pub mod traffic;

pub use engine::{
    AdmissionConfig, Breakdown, CostClass, Engine, Job, ResourceKey, RunReport, SchedulingPolicy,
    StepId, TenantCounters, TenantSummary, Workflow, WorkflowStats,
};
pub use fault::{AppliedFault, FaultEvent, FaultInjector, FaultKind, FaultSchedule, ScheduleError};
pub use spec::{ClusterSpec, CostModel, RetryPolicy};
pub use store::{BlockId, BlockStore, ClusterError};
pub use time::{percentile, transfer_time, Nanos};
pub use topology::Topology;
pub use traffic::{TrafficConfig, TrafficGen};

// Re-exported so workflow builders can tag steps without a direct
// `fusion-obs` dependency.
pub use fusion_obs::trace::{Phase, PhaseBreakdown};
