//! The discrete-event simulation engine.
//!
//! Queries compile into **workflows**: DAGs of steps, each step occupying
//! one server of one resource (a disk, a NIC direction, a CPU core pool)
//! for a duration. The engine executes workflows under contention on a
//! virtual clock and reports per-workflow latency, a critical-path
//! breakdown by cost class (disk / processing / network — the categories
//! of the paper's Figures 4b and 13c/d), network traffic, and per-resource
//! busy time (CPU utilization, Figure 14d).
//!
//! ## The scheduling layer (concurrent multi-tenant traffic)
//!
//! Contended resources order queued requests by a [`SchedulingPolicy`]:
//!
//! * [`SchedulingPolicy::Fifo`] (the default) serves requests in arrival
//!   order — **byte-identical** to the pre-scheduling-layer engine, so
//!   every paper figure replays unchanged (locked down by the golden
//!   digests in `tests/fifo_golden.rs`).
//! * [`SchedulingPolicy::WeightedFair`] runs start-time fair queueing
//!   (SFQ) across tenants: each queued request is tagged with a virtual
//!   start time `max(v, finish[tenant])`, the tenant's finish tag
//!   advances by `duration / weight`, and the resource always serves the
//!   smallest start tag. Backlogged tenants with equal weights receive
//!   equal service; weights skew the share proportionally.
//!
//! Workflows carry a **tenant** id. Per-tenant admission control
//! ([`AdmissionConfig`]: token-bucket rate limits plus a max-in-flight
//! cap) runs at workflow start; rejected workflows never execute and are
//! counted per tenant in [`RunReport::tenants`].

use crate::spec::ClusterSpec;
use crate::time::{percentile, Nanos};
use fusion_obs::trace::{Phase, PhaseBreakdown};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

/// A contended resource in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKey {
    /// The disk of a storage node.
    Disk(usize),
    /// The transmit direction of a storage node's NIC.
    NicTx(usize),
    /// The receive direction of a storage node's NIC.
    NicRx(usize),
    /// The CPU core pool of a storage node.
    Cpu(usize),
    /// The client machine's CPU.
    ClientCpu,
    /// The client machine's NIC, transmit direction.
    ClientNicTx,
    /// The client machine's NIC, receive direction.
    ClientNicRx,
    /// A pure-latency stage (RPC round-trip, propagation): never a
    /// bottleneck, infinitely many servers.
    Delay,
}

impl ResourceKey {
    /// The storage node that owns this resource, if any. Client-side
    /// resources and pure delays belong to no node and are never slowed
    /// by a straggler multiplier.
    pub fn node_index(&self) -> Option<usize> {
        match *self {
            ResourceKey::Disk(n)
            | ResourceKey::NicTx(n)
            | ResourceKey::NicRx(n)
            | ResourceKey::Cpu(n) => Some(n),
            _ => None,
        }
    }
}

/// Cost class for latency breakdowns (paper Figure 4b categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Reading raw data from disk.
    DiskRead,
    /// Decoding chunks and evaluating SQL operations.
    Processing,
    /// Network transfer and RPC overhead.
    Network,
    /// Everything else (planning, assembly).
    Other,
}

/// Identifier of a step within a workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepId(usize);

/// One unit of work.
#[derive(Debug, Clone)]
struct StepSpec {
    resource: ResourceKey,
    duration: Nanos,
    class: CostClass,
    deps: Vec<StepId>,
    net_bytes: u64,
    /// Query-execution phase this step belongs to (the workflow's
    /// current phase at `step()` time; [`Phase::Other`] by default).
    phase: Phase,
}

/// A DAG of steps modelling one query (or one Put, recovery, …).
///
/// # Examples
///
/// ```
/// use fusion_cluster::engine::{CostClass, ResourceKey, Workflow};
/// use fusion_cluster::time::Nanos;
///
/// let mut wf = Workflow::new();
/// let read = wf.step(ResourceKey::Disk(0), Nanos::from_micros(100), CostClass::DiskRead, &[]);
/// let cpu = wf.step(ResourceKey::Cpu(0), Nanos::from_micros(50), CostClass::Processing, &[read]);
/// wf.transfer_bytes(cpu, 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    steps: Vec<StepSpec>,
    /// Phase recorded onto steps added from here on (ambient, so call
    /// sites don't have to thread a phase through every `step()` call).
    cur_phase: Phase,
}

impl Workflow {
    /// An empty workflow (completes instantly).
    pub fn new() -> Workflow {
        Workflow::default()
    }

    /// Adds a step that holds one server of `resource` for `duration` once
    /// all `deps` complete. Returns its id for use as a dependency.
    pub fn step(
        &mut self,
        resource: ResourceKey,
        duration: Nanos,
        class: CostClass,
        deps: &[StepId],
    ) -> StepId {
        for d in deps {
            assert!(d.0 < self.steps.len(), "dependency on a future step");
        }
        self.steps.push(StepSpec {
            resource,
            duration,
            class,
            deps: deps.to_vec(),
            net_bytes: 0,
            phase: self.cur_phase,
        });
        StepId(self.steps.len() - 1)
    }

    /// Sets the query-execution phase recorded onto subsequently added
    /// steps, returning the previous phase (so nested scopes — e.g. a
    /// degraded reconstruct inside the filter stage — can restore it).
    /// New workflows start in [`Phase::Other`].
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.cur_phase, phase)
    }

    /// The phase currently recorded onto new steps.
    pub fn phase(&self) -> Phase {
        self.cur_phase
    }

    /// Tags a step as moving `bytes` over the network (for traffic
    /// accounting; idempotent per step).
    pub fn transfer_bytes(&mut self, step: StepId, bytes: u64) {
        self.steps[step.0].net_bytes = bytes;
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the workflow has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Sum of every step's nominal duration — the total service demand
    /// this workflow places on the cluster (busy-time conservation: with
    /// no stragglers, the engine's summed resource busy time equals the
    /// summed `total_work` of the workflows it ran).
    pub fn total_work(&self) -> Nanos {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// Length of the longest dependency chain by nominal duration — a
    /// lower bound on the workflow's latency under any contention.
    pub fn critical_work(&self) -> Nanos {
        let mut finish = vec![0u64; self.steps.len()];
        for (i, s) in self.steps.iter().enumerate() {
            let ready = s.deps.iter().map(|d| finish[d.0]).max().unwrap_or(0);
            finish[i] = ready + s.duration.0;
        }
        Nanos(finish.into_iter().max().unwrap_or(0))
    }
}

/// How contended resources order queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// Serve in arrival order. The default; byte-identical to the
    /// pre-scheduling-layer engine for every existing experiment.
    #[default]
    Fifo,
    /// Start-time fair queueing across tenants, weighted by
    /// [`Engine::with_tenant_weight`] (default weight 1.0).
    WeightedFair,
}

/// Per-tenant admission control, applied when a workflow starts.
///
/// Both limits default to "unlimited", so attaching an empty admission
/// table changes nothing. The token bucket starts full (`burst` tokens)
/// and refills continuously at `rate_per_sec`; a workflow arriving to an
/// empty bucket is **rejected** (it never executes — open-loop clients
/// don't retry). The in-flight cap instead **queues** arrivals beyond
/// `max_in_flight` and releases them FIFO as the tenant's workflows
/// complete. A token is consumed at arrival even when the workflow is
/// then queued — rate and concurrency limits compose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Token refill rate (workflows/sec of virtual time); `None` means
    /// no rate limit.
    pub rate_per_sec: Option<f64>,
    /// Token bucket capacity (burst size), in workflows. Must be ≥ 1 for
    /// a rate-limited tenant to ever admit anything.
    pub burst: f64,
    /// Maximum concurrently executing workflows; `None` means unlimited.
    /// A cap of 0 queues every arrival forever (they are reported as
    /// queued, never served).
    pub max_in_flight: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_per_sec: None,
            burst: 1.0,
            max_in_flight: None,
        }
    }
}

impl AdmissionConfig {
    /// A pure rate limit: `rate` workflows/sec with `burst` capacity.
    pub fn rate_limit(rate: f64, burst: f64) -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec: Some(rate),
            burst,
            max_in_flight: None,
        }
    }

    /// A pure concurrency cap.
    pub fn in_flight_cap(cap: usize) -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec: None,
            burst: 1.0,
            max_in_flight: Some(cap),
        }
    }
}

/// One open-loop submission: a workflow from a tenant, arriving at a
/// fixed virtual time.
#[derive(Debug, Clone)]
pub struct Job {
    /// Client that issued the workflow (label only).
    pub client: usize,
    /// Sequence number within the client (label only).
    pub seq: usize,
    /// Tenant the workflow belongs to (drives fair queueing and
    /// admission control).
    pub tenant: usize,
    /// Arrival time on the virtual clock.
    pub arrival: Nanos,
    /// The work itself.
    pub workflow: Workflow,
}

/// Latency partition along the critical path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Time attributed to disk reads.
    pub disk: Nanos,
    /// Time attributed to decode + SQL evaluation.
    pub processing: Nanos,
    /// Time attributed to network transfer, queueing, and RPC overhead.
    pub network: Nanos,
    /// Time attributed to other work.
    pub other: Nanos,
}

impl Breakdown {
    /// Sum of all components (equals workflow latency).
    pub fn total(&self) -> Nanos {
        self.disk + self.processing + self.network + self.other
    }

    fn add(&mut self, class: CostClass, d: Nanos) {
        match class {
            CostClass::DiskRead => self.disk += d,
            CostClass::Processing => self.processing += d,
            CostClass::Network => self.network += d,
            CostClass::Other => self.other += d,
        }
    }
}

/// Per-workflow results.
#[derive(Debug, Clone)]
pub struct WorkflowStats {
    /// Client that issued the workflow.
    pub client: usize,
    /// Sequence number within the client.
    pub seq: usize,
    /// Tenant the workflow belonged to (0 under
    /// [`Engine::run_closed_loop`]).
    pub tenant: usize,
    /// Virtual arrival time (when the workflow was submitted; equals
    /// `start` unless admission control queued it).
    pub arrival: Nanos,
    /// Virtual start time.
    pub start: Nanos,
    /// Virtual completion time.
    pub finish: Nanos,
    /// `finish - start`.
    pub latency: Nanos,
    /// Critical-path partition of `latency`.
    pub breakdown: Breakdown,
    /// Critical-path partition of `latency` by query-execution phase
    /// (same walk as `breakdown`, keyed by [`Phase`] instead of
    /// [`CostClass`]; components sum exactly to `latency`).
    pub phases: PhaseBreakdown,
    /// Total bytes this workflow moved over the network (all steps, not
    /// just the critical path).
    pub net_bytes: u64,
}

impl WorkflowStats {
    /// `finish - arrival`: the client-observed response time, including
    /// any admission-queue wait ahead of `start`. Equals `latency`
    /// whenever admission control is off.
    pub fn sojourn(&self) -> Nanos {
        self.finish.saturating_sub(self.arrival)
    }
}

/// Per-tenant admission and completion counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Workflows that arrived (every trigger fire, before admission).
    pub offered: u64,
    /// Workflows that ran to completion.
    pub served: u64,
    /// Workflows dropped by the token-bucket rate limit.
    pub rejected: u64,
    /// Workflows that waited in the admission queue for an in-flight
    /// slot before starting (each counted once).
    pub queued: u64,
}

/// Latency and throughput summary for one tenant (see
/// [`RunReport::tenant_summaries`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: usize,
    /// Admission/completion counters.
    pub counters: TenantCounters,
    /// Median sojourn time of served workflows.
    pub p50: Nanos,
    /// 99th-percentile sojourn time.
    pub p99: Nanos,
    /// 99.9th-percentile sojourn time.
    pub p999: Nanos,
    /// Served workflows per second of makespan (completed goodput).
    pub goodput_qps: f64,
}

/// Results of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Stats for every **served** workflow, ordered by
    /// (tenant, client, seq). Rejected and never-started workflows are
    /// excluded (see [`RunReport::tenants`]).
    pub stats: Vec<WorkflowStats>,
    /// Busy time per resource.
    pub resource_busy: HashMap<ResourceKey, Nanos>,
    /// Extra service time each straggling node added on top of nominal
    /// step durations (node → summed stretch), for per-node straggler
    /// accounting.
    pub straggler_delay: HashMap<usize, Nanos>,
    /// Per-tenant offered/served/rejected/queued counters.
    pub tenants: BTreeMap<usize, TenantCounters>,
    /// Completion time of the last workflow.
    pub makespan: Nanos,
}

impl RunReport {
    /// All latencies, in stats order.
    pub fn latencies(&self) -> Vec<Nanos> {
        self.stats.iter().map(|s| s.latency).collect()
    }

    /// Per-tenant p50/p99/p999 sojourn, goodput, and counters, ordered
    /// by tenant id. Percentiles are over **served** workflows; a tenant
    /// whose every arrival was rejected still appears (zero latencies).
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let mut sojourns: BTreeMap<usize, Vec<Nanos>> = BTreeMap::new();
        for s in &self.stats {
            sojourns.entry(s.tenant).or_default().push(s.sojourn());
        }
        let span = self.makespan.as_secs_f64();
        self.tenants
            .iter()
            .map(|(&tenant, &counters)| {
                let lats = sojourns.remove(&tenant).unwrap_or_default();
                TenantSummary {
                    tenant,
                    counters,
                    p50: percentile(&lats, 50.0),
                    p99: percentile(&lats, 99.0),
                    p999: percentile(&lats, 99.9),
                    goodput_qps: if span > 0.0 {
                        counters.served as f64 / span
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

/// One submission: a workflow plus when it may start.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Start at an absolute virtual time.
    At(Nanos),
    /// Start when the same client's previous workflow finishes.
    AfterPrevious,
}

/// An internal submission record (the public entry points normalize to
/// this).
#[derive(Debug, Clone)]
struct Submission {
    client: usize,
    seq: usize,
    tenant: usize,
    wf: Workflow,
    trigger: Trigger,
}

/// The engine. Holds the static spec plus the scheduling configuration;
/// each run call is an independent simulation.
#[derive(Debug, Clone)]
pub struct Engine {
    spec: ClusterSpec,
    slowdowns: HashMap<usize, f64>,
    policy: SchedulingPolicy,
    weights: HashMap<usize, f64>,
    admission: HashMap<usize, AdmissionConfig>,
}

impl Engine {
    /// Creates an engine over `spec` with FIFO scheduling and no
    /// admission limits.
    pub fn new(spec: ClusterSpec) -> Engine {
        Engine {
            spec,
            slowdowns: HashMap::new(),
            policy: SchedulingPolicy::default(),
            weights: HashMap::new(),
            admission: HashMap::new(),
        }
    }

    /// Installs per-node straggler multipliers: every step on a slow
    /// node's disk, CPU, or NIC takes `factor`× its nominal duration
    /// (factors ≤ 1.0 are ignored). Drives the fault injector's
    /// slow-node model.
    pub fn with_slowdowns(mut self, slowdowns: HashMap<usize, f64>) -> Engine {
        self.slowdowns = slowdowns.into_iter().filter(|&(_, f)| f > 1.0).collect();
        self
    }

    /// Sets the queueing policy at contended resources.
    pub fn with_scheduling(mut self, policy: SchedulingPolicy) -> Engine {
        self.policy = policy;
        self
    }

    /// Sets a tenant's fair-queueing weight (default 1.0). Only
    /// meaningful under [`SchedulingPolicy::WeightedFair`].
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is finite and positive.
    pub fn with_tenant_weight(mut self, tenant: usize, weight: f64) -> Engine {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be finite and positive"
        );
        self.weights.insert(tenant, weight);
        self
    }

    /// Sets a tenant's admission limits (default: unlimited).
    pub fn with_admission(mut self, tenant: usize, cfg: AdmissionConfig) -> Engine {
        self.admission.insert(tenant, cfg);
        self
    }

    /// Runs `clients`, where each client executes its workflows strictly
    /// in order (closed loop — the paper's 10-client setup). Single
    /// tenant 0, no think time.
    pub fn run_closed_loop(&self, clients: Vec<Vec<Workflow>>) -> RunReport {
        let subs = clients
            .into_iter()
            .enumerate()
            .flat_map(|(c, wfs)| {
                wfs.into_iter().enumerate().map(move |(i, wf)| Submission {
                    client: c,
                    seq: i,
                    tenant: 0,
                    wf,
                    trigger: if i == 0 {
                        Trigger::At(Nanos::ZERO)
                    } else {
                        Trigger::AfterPrevious
                    },
                })
            })
            .collect();
        self.run(subs)
    }

    /// Runs an open-loop job stream (the paper's 10-queries-per-second
    /// utilization experiment, the traffic generator's output). Jobs are
    /// sorted by `(arrival, tenant, client, seq)` first, so the report is
    /// a function of the job **set**, not of submission order, and
    /// equal-timestamp arrivals start in that deterministic order.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> RunReport {
        let mut jobs = jobs;
        jobs.sort_by_key(|j| (j.arrival, j.tenant, j.client, j.seq));
        let subs = jobs
            .into_iter()
            .map(|j| Submission {
                client: j.client,
                seq: j.seq,
                tenant: j.tenant,
                wf: j.workflow,
                trigger: Trigger::At(j.arrival),
            })
            .collect();
        self.run(subs)
    }

    fn run(&self, subs: Vec<Submission>) -> RunReport {
        Sim::new(
            self.spec.cores_per_node,
            self.slowdowns.clone(),
            self.policy,
            self.weights.clone(),
            self.admission.clone(),
        )
        .execute(subs)
    }
}

/// Runtime state for one step.
#[derive(Debug, Clone, Copy, Default)]
struct StepState {
    remaining_deps: usize,
    done_at: Option<Nanos>,
}

/// Runtime state for one workflow.
#[derive(Debug)]
struct WfState {
    client: usize,
    seq: usize,
    tenant: usize,
    wf: Workflow,
    trigger: Trigger,
    arrival: Option<Nanos>,
    started: Option<Nanos>,
    steps: Vec<StepState>,
    successors: Vec<Vec<usize>>,
    remaining_steps: usize,
}

/// A queued request under weighted-fair scheduling.
#[derive(Debug, Clone, Copy)]
struct FairReq {
    /// SFQ virtual start tag.
    tag: f64,
    wf: usize,
    step: usize,
}

/// Start-time fair queueing state for one resource: per-tenant FIFO
/// queues ordered by virtual start tags.
#[derive(Debug, Default)]
struct FairQueue {
    /// Resource virtual time (advances to the start tag of each
    /// dispatched request).
    vtime: f64,
    /// Last finish tag per tenant.
    finish_tag: HashMap<usize, f64>,
    /// Per-tenant FIFO queues (BTreeMap so tag ties break toward the
    /// lowest tenant id, deterministically).
    queues: BTreeMap<usize, VecDeque<FairReq>>,
}

impl FairQueue {
    /// Accounts service granted without queueing (a free server): the
    /// tenant's finish tag still advances, so an uncontended head start
    /// doesn't translate into extra share once the resource backlogs.
    fn charge(&mut self, tenant: usize, weight: f64, dur: Nanos) {
        let start = self
            .vtime
            .max(self.finish_tag.get(&tenant).copied().unwrap_or(0.0));
        self.finish_tag
            .insert(tenant, start + dur.0 as f64 / weight);
        self.vtime = self.vtime.max(start);
    }

    fn enqueue(&mut self, tenant: usize, weight: f64, dur: Nanos, wf: usize, step: usize) {
        let start = self
            .vtime
            .max(self.finish_tag.get(&tenant).copied().unwrap_or(0.0));
        self.finish_tag
            .insert(tenant, start + dur.0 as f64 / weight);
        self.queues.entry(tenant).or_default().push_back(FairReq {
            tag: start,
            wf,
            step,
        });
    }

    /// Dispatches the queued request with the smallest start tag (ties:
    /// lowest tenant id; within a tenant, FIFO).
    fn pick(&mut self) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (&tenant, q) in &self.queues {
            if let Some(head) = q.front() {
                if best.is_none_or(|(tag, _)| head.tag < tag) {
                    best = Some((head.tag, tenant));
                }
            }
        }
        let (tag, tenant) = best?;
        let q = self.queues.get_mut(&tenant).expect("queue exists");
        let req = q.pop_front().expect("queue nonempty");
        if q.is_empty() {
            self.queues.remove(&tenant);
        }
        self.vtime = self.vtime.max(tag);
        Some((req.wf, req.step))
    }
}

#[derive(Debug)]
struct Res {
    servers: usize,
    busy: usize,
    pending: VecDeque<(usize, usize)>, // (workflow, step) — FIFO policy
    fair: FairQueue,                   // WeightedFair policy
    busy_time: Nanos,
}

/// Per-tenant admission runtime (only materialized for tenants with an
/// [`AdmissionConfig`]).
#[derive(Debug)]
struct TenantRt {
    tokens: f64,
    last_refill: Nanos,
    in_flight: usize,
    waitq: VecDeque<usize>,
}

/// Outcome of the admission check at workflow start.
enum Admitted {
    Start,
    Queue,
    Reject,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    StepDone { wf: usize, step: usize },
    StartWorkflow { wf: usize },
}

struct Sim {
    now: Nanos,
    seq: u64,
    cores_per_node: usize,
    slowdowns: HashMap<usize, f64>,
    straggler_delay: HashMap<usize, Nanos>,
    policy: SchedulingPolicy,
    weights: HashMap<usize, f64>,
    admission: HashMap<usize, AdmissionConfig>,
    tenant_rt: HashMap<usize, TenantRt>,
    tenants: BTreeMap<usize, TenantCounters>,
    #[allow(clippy::type_complexity)]
    events: BinaryHeap<Reverse<(Nanos, u64, EventBox)>>,
    resources: HashMap<ResourceKey, Res>,
}

// BinaryHeap needs Ord; wrap Event with a trivially ordered box keyed by seq
// (the tuple's second element already makes ordering total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventBox(Event);

impl PartialOrd for EventBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventBox {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl Sim {
    fn new(
        cores_per_node: usize,
        slowdowns: HashMap<usize, f64>,
        policy: SchedulingPolicy,
        weights: HashMap<usize, f64>,
        admission: HashMap<usize, AdmissionConfig>,
    ) -> Sim {
        Sim {
            now: Nanos::ZERO,
            seq: 0,
            cores_per_node,
            slowdowns,
            straggler_delay: HashMap::new(),
            policy,
            weights,
            admission,
            tenant_rt: HashMap::new(),
            tenants: BTreeMap::new(),
            events: BinaryHeap::new(),
            resources: HashMap::new(),
        }
    }

    fn push(&mut self, at: Nanos, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, EventBox(ev))));
    }

    fn servers_for(&self, key: ResourceKey) -> usize {
        // CPU pools are multi-server; disks and NIC directions serialize;
        // delays never queue.
        match key {
            ResourceKey::Cpu(_) | ResourceKey::ClientCpu => self.cores_per_node.max(1),
            ResourceKey::Delay => usize::MAX,
            _ => 1,
        }
    }

    /// Token-bucket + in-flight admission for one arriving workflow.
    /// Counters for `offered` are maintained by the caller.
    fn admit(&mut self, tenant: usize, now: Nanos) -> Admitted {
        let Some(cfg) = self.admission.get(&tenant).copied() else {
            return Admitted::Start;
        };
        let rt = self.tenant_rt.entry(tenant).or_insert_with(|| TenantRt {
            tokens: cfg.burst,
            last_refill: Nanos::ZERO,
            in_flight: 0,
            waitq: VecDeque::new(),
        });
        if let Some(rate) = cfg.rate_per_sec {
            let dt = now.saturating_sub(rt.last_refill).as_secs_f64();
            rt.tokens = (rt.tokens + dt * rate).min(cfg.burst);
            rt.last_refill = now;
            if rt.tokens < 1.0 {
                return Admitted::Reject;
            }
            rt.tokens -= 1.0;
        }
        if let Some(cap) = cfg.max_in_flight {
            if rt.in_flight >= cap {
                return Admitted::Queue;
            }
        }
        rt.in_flight += 1;
        Admitted::Start
    }

    fn execute(&mut self, subs: Vec<Submission>) -> RunReport {
        // Build runtime state.
        let mut wfs: Vec<WfState> = subs
            .into_iter()
            .map(|sub| {
                let steps: Vec<StepState> = sub
                    .wf
                    .steps
                    .iter()
                    .map(|s| StepState {
                        remaining_deps: s.deps.len(),
                        done_at: None,
                    })
                    .collect();
                let mut successors = vec![Vec::new(); sub.wf.steps.len()];
                for (i, s) in sub.wf.steps.iter().enumerate() {
                    for d in &s.deps {
                        successors[d.0].push(i);
                    }
                }
                let remaining_steps = sub.wf.steps.len();
                WfState {
                    client: sub.client,
                    seq: sub.seq,
                    tenant: sub.tenant,
                    wf: sub.wf,
                    trigger: sub.trigger,
                    arrival: None,
                    started: None,
                    steps,
                    successors,
                    remaining_steps,
                }
            })
            .collect();

        // Next workflow per client, for AfterPrevious chaining.
        let mut next_of: HashMap<(usize, usize), usize> = HashMap::new();
        for (i, w) in wfs.iter().enumerate() {
            if w.seq > 0 {
                // find the predecessor index
                next_of.insert((w.client, w.seq - 1), i);
            }
        }

        let mut finished: Vec<Option<WorkflowStats>> = (0..wfs.len()).map(|_| None).collect();

        // Seed At-triggers in index order (the entry points sort
        // submissions by arrival first, so equal-timestamp ties fire in
        // workflow-id order by construction).
        for (i, w) in wfs.iter().enumerate() {
            if let Trigger::At(t) = w.trigger {
                self.push(t, Event::StartWorkflow { wf: i });
            }
        }

        while let Some(Reverse((t, _, EventBox(ev)))) = self.events.pop() {
            self.now = t;
            match ev {
                Event::StartWorkflow { wf } => {
                    let tenant = wfs[wf].tenant;
                    if wfs[wf].arrival.is_none() {
                        wfs[wf].arrival = Some(t);
                    }
                    self.tenants.entry(tenant).or_default().offered += 1;
                    match self.admit(tenant, t) {
                        Admitted::Start => {
                            self.begin_workflow(wf, &mut wfs, &mut finished, &next_of);
                        }
                        Admitted::Queue => {
                            self.tenants.entry(tenant).or_default().queued += 1;
                            self.tenant_rt
                                .get_mut(&tenant)
                                .expect("admission runtime exists")
                                .waitq
                                .push_back(wf);
                        }
                        Admitted::Reject => {
                            self.tenants.entry(tenant).or_default().rejected += 1;
                            // A rejected workflow still unblocks its
                            // client's next closed-loop submission.
                            self.chain_next(wf, t, &wfs, &next_of);
                        }
                    }
                }
                Event::StepDone { wf, step } => {
                    // Release the resource and admit a queued request.
                    let key = wfs[wf].wf.steps[step].resource;
                    let next = {
                        let res = self.resources.get_mut(&key).expect("resource exists");
                        res.busy -= 1;
                        match self.policy {
                            SchedulingPolicy::Fifo => res.pending.pop_front(),
                            SchedulingPolicy::WeightedFair => res.fair.pick(),
                        }
                    };
                    if let Some((nwf, nstep)) = next {
                        self.start_step(nwf, nstep, &mut wfs);
                    }

                    wfs[wf].steps[step].done_at = Some(t);
                    wfs[wf].remaining_steps -= 1;

                    // Propagate to successors.
                    let succs = wfs[wf].successors[step].clone();
                    for s in succs {
                        wfs[wf].steps[s].remaining_deps -= 1;
                        if wfs[wf].steps[s].remaining_deps == 0 {
                            self.request(wf, s, &mut wfs);
                        }
                    }

                    if wfs[wf].remaining_steps == 0 {
                        self.complete_workflow(wf, &mut wfs, &mut finished, &next_of);
                    }
                }
            }
        }

        let mut stats: Vec<WorkflowStats> = finished.into_iter().flatten().collect();
        stats.sort_by_key(|s| (s.tenant, s.client, s.seq));
        let makespan = stats.iter().map(|s| s.finish).max().unwrap_or(Nanos::ZERO);
        let resource_busy = self
            .resources
            .iter()
            .map(|(k, r)| (*k, r.busy_time))
            .collect();
        RunReport {
            stats,
            resource_busy,
            straggler_delay: std::mem::take(&mut self.straggler_delay),
            tenants: std::mem::take(&mut self.tenants),
            makespan,
        }
    }

    /// Starts an admitted workflow at the current time: marks it
    /// started, requests its ready steps (or completes it immediately
    /// when empty).
    fn begin_workflow(
        &mut self,
        wf: usize,
        wfs: &mut [WfState],
        finished: &mut [Option<WorkflowStats>],
        next_of: &HashMap<(usize, usize), usize>,
    ) {
        wfs[wf].started = Some(self.now);
        if wfs[wf].wf.steps.is_empty() {
            self.complete_workflow(wf, wfs, finished, next_of);
            return;
        }
        let ready: Vec<usize> = wfs[wf]
            .wf
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.deps.is_empty())
            .map(|(i, _)| i)
            .collect();
        for s in ready {
            self.request(wf, s, wfs);
        }
    }

    /// Fires the AfterPrevious trigger of `wf`'s successor (if any) at
    /// `finish`.
    fn chain_next(
        &mut self,
        wf: usize,
        finish: Nanos,
        wfs: &[WfState],
        next_of: &HashMap<(usize, usize), usize>,
    ) {
        let (client, seq) = (wfs[wf].client, wfs[wf].seq);
        if let Some(&next) = next_of.get(&(client, seq)) {
            // Only AfterPrevious successors wait on us; At-triggered
            // workflows that happen to share a client were already
            // seeded into the event heap.
            if let Trigger::AfterPrevious = wfs[next].trigger {
                self.push(finish, Event::StartWorkflow { wf: next });
            }
        }
    }

    fn request(&mut self, wf: usize, step: usize, wfs: &mut [WfState]) {
        let key = wfs[wf].wf.steps[step].resource;
        let servers = self.servers_for(key);
        let tenant = wfs[wf].tenant;
        let weight = self.weights.get(&tenant).copied().unwrap_or(1.0);
        let dur = wfs[wf].wf.steps[step].duration;
        let policy = self.policy;
        let res = self.resources.entry(key).or_insert_with(|| Res {
            servers,
            busy: 0,
            pending: VecDeque::new(),
            fair: FairQueue::default(),
            busy_time: Nanos::ZERO,
        });
        if res.busy < res.servers {
            if policy == SchedulingPolicy::WeightedFair {
                res.fair.charge(tenant, weight, dur);
            }
            self.start_step(wf, step, wfs);
        } else {
            match policy {
                SchedulingPolicy::Fifo => res.pending.push_back((wf, step)),
                SchedulingPolicy::WeightedFair => res.fair.enqueue(tenant, weight, dur, wf, step),
            }
        }
    }

    fn start_step(&mut self, wf: usize, step: usize, wfs: &mut [WfState]) {
        let (key, mut dur) = {
            let s = &wfs[wf].wf.steps[step];
            (s.resource, s.duration)
        };
        // Straggler model: every step on a slowed node's resources is
        // stretched by the node's factor. Breakdown attribution works
        // off recorded completion times, so the stretch flows into the
        // per-class critical-path split for free.
        if let Some((node, factor)) = key
            .node_index()
            .and_then(|n| self.slowdowns.get(&n).map(|f| (n, *f)))
        {
            let stretched = Nanos((dur.0 as f64 * factor).round() as u64);
            *self.straggler_delay.entry(node).or_insert(Nanos::ZERO) +=
                stretched.saturating_sub(dur);
            dur = stretched;
        }
        let res = self.resources.get_mut(&key).expect("resource exists");
        res.busy += 1;
        res.busy_time += dur;
        let at = self.now + dur;
        self.push(at, Event::StepDone { wf, step });
    }

    fn complete_workflow(
        &mut self,
        wf: usize,
        wfs: &mut [WfState],
        finished: &mut [Option<WorkflowStats>],
        next_of: &HashMap<(usize, usize), usize>,
    ) {
        let w = &wfs[wf];
        let tenant = w.tenant;
        let start = w.started.expect("workflow started");
        let arrival = w.arrival.unwrap_or(start);
        let finish = self.now;
        let (breakdown, phases) = critical_path_breakdown(w, start);
        let net_bytes = w.wf.steps.iter().map(|s| s.net_bytes).sum();
        finished[wf] = Some(WorkflowStats {
            client: w.client,
            seq: w.seq,
            tenant,
            arrival,
            start,
            finish,
            latency: finish - start,
            breakdown,
            phases,
            net_bytes,
        });
        self.tenants.entry(tenant).or_default().served += 1;
        self.chain_next(wf, finish, wfs, next_of);
        // Release the tenant's in-flight slot and dispatch its oldest
        // queued arrival, if any.
        if self.admission.contains_key(&tenant) {
            let dispatch = {
                let rt = self
                    .tenant_rt
                    .get_mut(&tenant)
                    .expect("admission runtime exists");
                rt.in_flight = rt.in_flight.saturating_sub(1);
                match rt.waitq.pop_front() {
                    Some(next) => {
                        rt.in_flight += 1;
                        Some(next)
                    }
                    None => None,
                }
            };
            if let Some(next) = dispatch {
                self.begin_workflow(next, wfs, finished, next_of);
            }
        }
    }
}

/// Walks the critical path backwards, attributing each hop (queue wait +
/// service) to the step's cost class and to its query-execution phase.
/// Both partitions sum exactly to the workflow latency.
fn critical_path_breakdown(w: &WfState, start: Nanos) -> (Breakdown, PhaseBreakdown) {
    let mut bd = Breakdown::default();
    let mut phases = PhaseBreakdown::new();
    if w.wf.steps.is_empty() {
        return (bd, phases);
    }
    // Find the step that finished last.
    let mut cur = (0..w.wf.steps.len())
        .max_by_key(|&i| w.steps[i].done_at.expect("all steps done"))
        .expect("nonempty");
    loop {
        let done = w.steps[cur].done_at.expect("done");
        let spec = &w.wf.steps[cur];
        // The latest-finishing dependency bounds when this step could begin.
        let dep = spec
            .deps
            .iter()
            .max_by_key(|d| w.steps[d.0].done_at.expect("deps done"));
        let from = dep.map_or(start, |d| w.steps[d.0].done_at.expect("done"));
        let hop = done.saturating_sub(from);
        bd.add(spec.class, hop);
        phases.add(spec.phase, hop.0);
        match dep {
            Some(d) => cur = d.0,
            None => break,
        }
    }
    (bd, phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(ClusterSpec::with_nodes(3))
    }

    #[test]
    fn single_step_workflow() {
        let mut wf = Workflow::new();
        wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        let report = engine().run_closed_loop(vec![vec![wf]]);
        assert_eq!(report.stats.len(), 1);
        assert_eq!(report.stats[0].latency, Nanos(100));
        assert_eq!(report.stats[0].breakdown.disk, Nanos(100));
        assert_eq!(report.makespan, Nanos(100));
    }

    #[test]
    fn chain_accumulates_classes() {
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        let b = wf.step(ResourceKey::Cpu(0), Nanos(50), CostClass::Processing, &[a]);
        let c = wf.step(ResourceKey::NicTx(0), Nanos(25), CostClass::Network, &[b]);
        wf.transfer_bytes(c, 1234);
        let report = engine().run_closed_loop(vec![vec![wf]]);
        let s = &report.stats[0];
        assert_eq!(s.latency, Nanos(175));
        assert_eq!(s.breakdown.disk, Nanos(100));
        assert_eq!(s.breakdown.processing, Nanos(50));
        assert_eq!(s.breakdown.network, Nanos(25));
        assert_eq!(s.breakdown.total(), s.latency);
        assert_eq!(s.net_bytes, 1234);
    }

    #[test]
    fn parallel_fanout_takes_max() {
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        let b = wf.step(ResourceKey::Disk(1), Nanos(300), CostClass::DiskRead, &[]);
        wf.step(
            ResourceKey::Cpu(0),
            Nanos(10),
            CostClass::Processing,
            &[a, b],
        );
        let report = engine().run_closed_loop(vec![vec![wf]]);
        assert_eq!(report.stats[0].latency, Nanos(310));
        // Critical path goes through the 300ns disk.
        assert_eq!(report.stats[0].breakdown.disk, Nanos(300));
    }

    #[test]
    fn fifo_contention_on_single_server() {
        // Two workflows contending for one disk serialize.
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
            wf
        };
        let report = engine().run_closed_loop(vec![vec![mk()], vec![mk()]]);
        let mut latencies = report.latencies();
        latencies.sort();
        assert_eq!(latencies, vec![Nanos(100), Nanos(200)]);
        assert_eq!(report.makespan, Nanos(200));
        // Queue wait is charged to the waiting step's class.
        let slow = report
            .stats
            .iter()
            .find(|s| s.latency == Nanos(200))
            .unwrap();
        assert_eq!(slow.breakdown.disk, Nanos(200));
    }

    #[test]
    fn cpu_pool_runs_in_parallel() {
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Cpu(0), Nanos(100), CostClass::Processing, &[]);
            wf
        };
        let report = engine().run_closed_loop(vec![vec![mk()], vec![mk()], vec![mk()]]);
        assert!(report.latencies().iter().all(|&l| l == Nanos(100)));
        assert_eq!(report.makespan, Nanos(100));
    }

    #[test]
    fn closed_loop_serializes_per_client() {
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Cpu(0), Nanos(100), CostClass::Processing, &[]);
            wf
        };
        let report = engine().run_closed_loop(vec![vec![mk(), mk(), mk()]]);
        assert_eq!(report.stats.len(), 3);
        assert_eq!(report.stats[2].start, Nanos(200));
        assert_eq!(report.makespan, Nanos(300));
    }

    #[test]
    fn open_loop_arrivals() {
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Disk(0), Nanos(50), CostClass::DiskRead, &[]);
            wf
        };
        let jobs = [0, 10, 1000]
            .into_iter()
            .enumerate()
            .map(|(i, t)| Job {
                client: i,
                seq: 0,
                tenant: 0,
                arrival: Nanos(t),
                workflow: mk(),
            })
            .collect();
        let report = engine().run_jobs(jobs);
        assert_eq!(report.stats[0].latency, Nanos(50));
        assert_eq!(report.stats[1].latency, Nanos(90)); // waited 40
        assert_eq!(report.stats[2].latency, Nanos(50));
    }

    #[test]
    fn run_jobs_is_permutation_invariant() {
        let mk = |d: u64| {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Disk(0), Nanos(d), CostClass::DiskRead, &[]);
            wf
        };
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job {
                client: i,
                seq: 0,
                tenant: i % 2,
                arrival: Nanos((i as u64 / 2) * 40),
                workflow: mk(30 + 10 * i as u64),
            })
            .collect();
        let mut shuffled = jobs.clone();
        shuffled.reverse();
        shuffled.swap(0, 3);
        let a = engine().run_jobs(jobs);
        let b = engine().run_jobs(shuffled);
        for (x, y) in a.stats.iter().zip(&b.stats) {
            assert_eq!(
                (x.tenant, x.client, x.seq, x.start, x.finish),
                (y.tenant, y.client, y.seq, y.start, y.finish)
            );
        }
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn empty_workflow_completes_instantly() {
        let report = engine().run_closed_loop(vec![vec![Workflow::new()]]);
        assert_eq!(report.stats[0].latency, Nanos::ZERO);
    }

    #[test]
    fn busy_time_per_resource() {
        let mut wf = Workflow::new();
        wf.step(ResourceKey::Cpu(0), Nanos(400), CostClass::Processing, &[]);
        wf.step(ResourceKey::Cpu(1), Nanos(100), CostClass::Processing, &[]);
        let spec = ClusterSpec {
            nodes: 2,
            cores_per_node: 1,
            ..Default::default()
        };
        let report = Engine::new(spec).run_closed_loop(vec![vec![wf]]);
        assert_eq!(report.resource_busy[&ResourceKey::Cpu(0)], Nanos(400));
        assert_eq!(report.resource_busy[&ResourceKey::Cpu(1)], Nanos(100));
        assert_eq!(report.makespan, Nanos(400));
    }

    #[test]
    fn breakdown_partitions_latency_under_contention() {
        // Random-ish DAGs: breakdown must always sum to latency.
        let mut clients = Vec::new();
        for c in 0..5 {
            let mut wfs = Vec::new();
            for q in 0..4 {
                let mut wf = Workflow::new();
                let d = wf.step(
                    ResourceKey::Disk(c % 3),
                    Nanos(30 + (q as u64) * 7),
                    CostClass::DiskRead,
                    &[],
                );
                let p = wf.step(
                    ResourceKey::Cpu(c % 3),
                    Nanos(11 * (c as u64 + 1)),
                    CostClass::Processing,
                    &[d],
                );
                let n1 = wf.step(
                    ResourceKey::NicTx(c % 3),
                    Nanos(13),
                    CostClass::Network,
                    &[p],
                );
                wf.step(ResourceKey::ClientCpu, Nanos(5), CostClass::Other, &[n1, d]);
                wfs.push(wf);
            }
            clients.push(wfs);
        }
        let report = engine().run_closed_loop(clients);
        assert_eq!(report.stats.len(), 20);
        for s in &report.stats {
            assert_eq!(
                s.breakdown.total(),
                s.latency,
                "breakdown must partition latency"
            );
        }
    }

    #[test]
    fn phase_partition_sums_to_latency() {
        // Tagged and untagged steps: the phase partition must cover the
        // whole latency, with untagged time under Phase::Other.
        let mut wf = Workflow::new();
        let prev = wf.set_phase(Phase::ShardRead);
        assert_eq!(prev, Phase::Other);
        let a = wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        wf.set_phase(Phase::Filter);
        let b = wf.step(ResourceKey::Cpu(0), Nanos(40), CostClass::Processing, &[a]);
        wf.set_phase(Phase::Other);
        wf.step(ResourceKey::ClientCpu, Nanos(10), CostClass::Other, &[b]);
        let report = engine().run_closed_loop(vec![vec![wf]]);
        let s = &report.stats[0];
        assert_eq!(s.phases.get(Phase::ShardRead), 100);
        assert_eq!(s.phases.get(Phase::Filter), 40);
        assert_eq!(s.phases.get(Phase::Other), 10);
        assert_eq!(s.phases.total(), s.latency.0);
    }

    #[test]
    fn phase_partition_sums_under_contention() {
        // Same DAG soup as the class-breakdown test, phases interleaved:
        // the phase partition must also always sum to latency.
        let mut clients = Vec::new();
        for c in 0..5 {
            let mut wfs = Vec::new();
            for q in 0..4 {
                let mut wf = Workflow::new();
                wf.set_phase(Phase::ShardRead);
                let d = wf.step(
                    ResourceKey::Disk(c % 3),
                    Nanos(30 + (q as u64) * 7),
                    CostClass::DiskRead,
                    &[],
                );
                wf.set_phase(Phase::Decode);
                let p = wf.step(
                    ResourceKey::Cpu(c % 3),
                    Nanos(11 * (c as u64 + 1)),
                    CostClass::Processing,
                    &[d],
                );
                wf.set_phase(Phase::Network);
                let n1 = wf.step(
                    ResourceKey::NicTx(c % 3),
                    Nanos(13),
                    CostClass::Network,
                    &[p],
                );
                wf.set_phase(Phase::Other);
                wf.step(ResourceKey::ClientCpu, Nanos(5), CostClass::Other, &[n1, d]);
                wfs.push(wf);
            }
            clients.push(wfs);
        }
        let report = engine().run_closed_loop(clients);
        for s in &report.stats {
            assert_eq!(
                s.phases.total(),
                s.latency.0,
                "phase partition must cover latency"
            );
        }
    }

    #[test]
    fn straggler_delay_is_accounted_per_node() {
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        wf.step(ResourceKey::Disk(1), Nanos(100), CostClass::DiskRead, &[a]);
        let report = engine()
            .with_slowdowns(HashMap::from([(1, 3.0)]))
            .run_closed_loop(vec![vec![wf]]);
        // Node 1's step stretched 100 → 300: 200ns of straggler delay.
        assert_eq!(report.straggler_delay.get(&1), Some(&Nanos(200)));
        assert_eq!(report.straggler_delay.get(&0), None);
        assert_eq!(report.stats[0].latency, Nanos(400));
    }

    #[test]
    #[should_panic(expected = "dependency on a future step")]
    fn forward_dependency_panics() {
        let mut wf = Workflow::new();
        wf.step(
            ResourceKey::Disk(0),
            Nanos(1),
            CostClass::DiskRead,
            &[StepId(5)],
        );
    }

    #[test]
    fn work_accessors() {
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::Disk(0), Nanos(100), CostClass::DiskRead, &[]);
        let b = wf.step(ResourceKey::Disk(1), Nanos(40), CostClass::DiskRead, &[]);
        wf.step(
            ResourceKey::Cpu(0),
            Nanos(10),
            CostClass::Processing,
            &[a, b],
        );
        assert_eq!(wf.total_work(), Nanos(150));
        assert_eq!(wf.critical_work(), Nanos(110));
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;

    #[test]
    fn delay_resource_never_queues() {
        // 50 concurrent workflows each holding Delay for 100ns: all finish
        // at 100ns — no serialization.
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Delay, Nanos(100), CostClass::Network, &[]);
            wf
        };
        let clients: Vec<Vec<Workflow>> = (0..50).map(|_| vec![mk()]).collect();
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(clients);
        assert!(report.latencies().iter().all(|&l| l == Nanos(100)));
        assert_eq!(report.makespan, Nanos(100));
    }

    #[test]
    fn cpu_pool_respects_core_count() {
        // 3 jobs on a 2-core node: the third waits.
        let mk = || {
            let mut wf = Workflow::new();
            wf.step(ResourceKey::Cpu(0), Nanos(100), CostClass::Processing, &[]);
            wf
        };
        let spec = ClusterSpec {
            nodes: 1,
            cores_per_node: 2,
            ..Default::default()
        };
        let report = Engine::new(spec).run_closed_loop((0..3).map(|_| vec![mk()]).collect());
        let mut lat = report.latencies();
        lat.sort();
        assert_eq!(lat, vec![Nanos(100), Nanos(100), Nanos(200)]);
    }

    #[test]
    fn transfer_bytes_do_not_double_count() {
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::NicTx(0), Nanos(10), CostClass::Network, &[]);
        wf.transfer_bytes(a, 500);
        wf.transfer_bytes(a, 700); // overwrite, not accumulate
        let report = Engine::new(ClusterSpec::with_nodes(1)).run_closed_loop(vec![vec![wf]]);
        assert_eq!(report.stats[0].net_bytes, 700);
    }

    #[test]
    fn diamond_dag_critical_path() {
        // a -> {b (fast), c (slow)} -> d: path goes through c.
        let mut wf = Workflow::new();
        let a = wf.step(ResourceKey::Cpu(0), Nanos(10), CostClass::Other, &[]);
        let b = wf.step(ResourceKey::Disk(0), Nanos(5), CostClass::DiskRead, &[a]);
        let c = wf.step(ResourceKey::NicTx(0), Nanos(50), CostClass::Network, &[a]);
        wf.step(ResourceKey::Cpu(0), Nanos(10), CostClass::Other, &[b, c]);
        let report = Engine::new(ClusterSpec::with_nodes(1)).run_closed_loop(vec![vec![wf]]);
        let s = &report.stats[0];
        assert_eq!(s.latency, Nanos(70));
        assert_eq!(s.breakdown.network, Nanos(50));
        assert_eq!(
            s.breakdown.disk,
            Nanos::ZERO,
            "fast branch is off the critical path"
        );
        assert_eq!(s.breakdown.other, Nanos(20));
    }
}

#[cfg(test)]
mod scheduling_tests {
    use super::*;

    fn disk_wf(d: u64) -> Workflow {
        let mut wf = Workflow::new();
        wf.step(ResourceKey::Disk(0), Nanos(d), CostClass::DiskRead, &[]);
        wf
    }

    fn burst(tenant: usize, n: usize, d: u64) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                client: tenant,
                seq: i,
                tenant,
                arrival: Nanos::ZERO,
                workflow: disk_wf(d),
            })
            .collect()
    }

    /// Served counts per tenant among workflows finishing by `cutoff`.
    fn served_by(report: &RunReport, cutoff: Nanos) -> BTreeMap<usize, usize> {
        let mut m = BTreeMap::new();
        for s in &report.stats {
            if s.finish <= cutoff {
                *m.entry(s.tenant).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn fifo_starves_late_tenant_weighted_fair_interleaves() {
        // Tenant 0's burst is submitted first; under FIFO tenant 1 waits
        // for all of it, under WeightedFair service alternates.
        let mut jobs = burst(0, 20, 100);
        jobs.extend(burst(1, 20, 100));
        let fifo = Engine::new(ClusterSpec::with_nodes(1)).run_jobs(jobs.clone());
        let fair = Engine::new(ClusterSpec::with_nodes(1))
            .with_scheduling(SchedulingPolicy::WeightedFair)
            .run_jobs(jobs);
        let half = Nanos(2000); // 20 services of 100ns each
        let fifo_half = served_by(&fifo, half);
        let fair_half = served_by(&fair, half);
        // FIFO: the first-submitted tenant hogs the first half.
        assert_eq!(fifo_half.get(&0), Some(&20));
        assert_eq!(fifo_half.get(&1), None);
        // WeightedFair: equal weights → equal halves (±1 for the pick
        // at t=0).
        let a = *fair_half.get(&0).unwrap_or(&0) as i64;
        let b = *fair_half.get(&1).unwrap_or(&0) as i64;
        assert!((a - b).abs() <= 1, "fair split, got {a} vs {b}");
        // Everyone completes under both policies.
        assert_eq!(fifo.stats.len(), 40);
        assert_eq!(fair.stats.len(), 40);
        assert_eq!(fifo.makespan, fair.makespan);
    }

    #[test]
    fn weights_skew_the_share() {
        let mut jobs = burst(0, 30, 100);
        jobs.extend(burst(1, 30, 100));
        let report = Engine::new(ClusterSpec::with_nodes(1))
            .with_scheduling(SchedulingPolicy::WeightedFair)
            .with_tenant_weight(0, 2.0)
            .with_tenant_weight(1, 1.0)
            .run_jobs(jobs);
        // In the first 30 services, tenant 0 (weight 2) gets ~2/3.
        let m = served_by(&report, Nanos(3000));
        let a = *m.get(&0).unwrap_or(&0) as f64;
        let b = *m.get(&1).unwrap_or(&0) as f64;
        assert!(a / b > 1.5 && a / b < 2.5, "2:1 weights, got {a}:{b}");
    }

    #[test]
    fn token_bucket_rejects_over_rate() {
        // 10 arrivals in 1ms at a 1000/s limit with burst 2: tokens
        // refill ~1 per ms, so roughly burst + rate×span ≈ 3 admit.
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job {
                client: 0,
                seq: i,
                tenant: 0,
                arrival: Nanos::from_micros(100 * i as u64),
                workflow: disk_wf(10),
            })
            .collect();
        let report = Engine::new(ClusterSpec::with_nodes(1))
            .with_admission(0, AdmissionConfig::rate_limit(1000.0, 2.0))
            .run_jobs(jobs);
        let c = report.tenants[&0];
        assert_eq!(c.offered, 10);
        assert_eq!(c.served + c.rejected, 10);
        // Burst (2) plus ~0.9ms × 1000/s of refill.
        assert!(c.served >= 2 && c.served <= 3, "served {}", c.served);
        assert_eq!(report.stats.len(), c.served as usize);
    }

    #[test]
    fn in_flight_cap_queues_and_preserves_order() {
        // 4 long workflows, cap 1: they serialize through admission and
        // sojourn includes the queue wait while latency does not.
        let jobs = burst(0, 4, 100);
        let report = Engine::new(ClusterSpec::with_nodes(1))
            .with_admission(0, AdmissionConfig::in_flight_cap(1))
            .run_jobs(jobs);
        let c = report.tenants[&0];
        assert_eq!(c.offered, 4);
        assert_eq!(c.served, 4);
        assert_eq!(c.queued, 3);
        assert_eq!(c.rejected, 0);
        for (i, s) in report.stats.iter().enumerate() {
            assert_eq!(s.seq, i, "admission queue is FIFO");
            assert_eq!(s.latency, Nanos(100), "latency excludes admission wait");
            assert_eq!(s.sojourn(), Nanos(100 * (i as u64 + 1)));
            assert_eq!(s.arrival, Nanos::ZERO);
            assert_eq!(s.start, Nanos(100 * i as u64));
        }
    }

    #[test]
    fn tenant_summaries_cover_counters_and_percentiles() {
        let mut jobs = burst(0, 8, 100);
        jobs.extend(burst(1, 4, 50));
        let report = Engine::new(ClusterSpec::with_nodes(1))
            .with_scheduling(SchedulingPolicy::WeightedFair)
            .run_jobs(jobs);
        let sums = report.tenant_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].tenant, 0);
        assert_eq!(sums[0].counters.served, 8);
        assert_eq!(sums[1].counters.served, 4);
        for s in &sums {
            assert!(s.p999 >= s.p99 && s.p99 >= s.p50);
            assert!(s.goodput_qps > 0.0);
        }
    }

    #[test]
    fn rejected_closed_loop_workflow_still_chains() {
        // Burst 1 and a slow refill: the first workflow takes the only
        // token, so the second and third are rejected. The third is
        // offered at all only because the rejected second released it.
        let report = Engine::new(ClusterSpec::with_nodes(1))
            .with_admission(0, AdmissionConfig::rate_limit(500.0, 1.0))
            .run_closed_loop(vec![vec![disk_wf(100), disk_wf(100), disk_wf(100)]]);
        let c = report.tenants[&0];
        assert_eq!(c.offered, 3, "third workflow offered after rejection");
        assert_eq!(c.rejected, 2);
        assert_eq!(c.served, 1);
        assert_eq!(report.stats.len(), 1);
    }
}
