//! Query execution: the two-stage adaptive pushdown engine (Fusion) and
//! the fetch-and-reassemble engine (baseline).
//!
//! Both executors run the **data plane for real** — they decode actual
//! chunk bytes, evaluate predicates, and materialize results — while
//! simultaneously building a [`Workflow`] that models where each byte
//! travels and how long each stage occupies disks, CPUs, and NICs. The
//! two executors must produce identical [`QueryResult`]s; only their
//! workflows (and therefore latency and traffic) differ.

pub mod baseline;
pub mod fusion;

use crate::error::{Result, StoreError};
use crate::store::Store;
use fusion_cluster::engine::{CostClass, Engine, ResourceKey, RunReport, StepId, Workflow};
use fusion_cluster::spec::CostModel;
use fusion_cluster::time::Nanos;
use fusion_format::value::{ColumnData, Value};
use fusion_obs::trace::{Phase, Trace};
use fusion_sql::plan::{BoolTree, FilterLeaf, QueryPlan};

/// The rows and aggregates a query returns.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Number of rows that satisfied the predicate.
    pub row_count: usize,
    /// Output projection columns `(name, filtered values)`.
    pub columns: Vec<(String, ColumnData)>,
    /// Output aggregates `(label, value)`.
    pub aggregates: Vec<(String, Value)>,
}

/// The per-chunk projection pushdown decision (paper §4.3 Cost Equation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionDecision {
    /// Row group of the chunk.
    pub row_group: usize,
    /// Column index of the chunk.
    pub column: usize,
    /// `selectivity × compressibility` for this chunk, computed with the
    /// chunk's exact match count: uncompressed selected bytes over
    /// encoded chunk bytes. Pushed down iff `< 1`.
    pub cost_product: f64,
    /// Whether the projection was pushed down.
    pub pushed_down: bool,
}

/// Everything a query execution produces.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The result rows/aggregates (identical across executors).
    pub result: QueryResult,
    /// Exact query selectivity measured at the end of the filter stage.
    pub selectivity: f64,
    /// The virtual-time workflow modelling this execution.
    pub workflow: Workflow,
    /// Bytes moved over the network.
    pub net_bytes: u64,
    /// Per-chunk projection decisions (empty for the baseline).
    pub decisions: Vec<ProjectionDecision>,
    /// Chunks skipped via footer min/max statistics (no-match **and**
    /// all-match proofs: either way the chunk is never read).
    pub pruned_chunks: usize,
    /// Chunk accesses this query served from the encoded-chunk cache.
    pub cache_hits: usize,
    /// Chunk accesses this query that read (and parsed) from the data
    /// plane — healthy misses populate the cache; degraded and
    /// coordinator-side reads bypass it but still count here.
    pub cache_misses: usize,
    /// Every chunk access the executor considered. Conservation
    /// invariant, healthy or degraded, for both executors:
    /// `pruned_chunks + cache_hits + cache_misses == chunks_considered`.
    pub chunks_considered: usize,
    /// Structured span tree recorded during execution. A no-op recorder
    /// (empty tree) unless [`crate::config::StoreConfig::observability`]
    /// is set.
    pub trace: Trace,
}

impl Store {
    /// Runs a SQL query; the `FROM` table names the object.
    ///
    /// # Errors
    ///
    /// Parse/plan failures, unknown objects, non-analytics objects, or
    /// data-plane failures.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        let q = fusion_sql::parser::parse(sql)?;
        self.query_as(&q.table, sql)
    }

    /// Runs a SQL query against an explicit object, ignoring the `FROM`
    /// name (used when one logical table is stored as several object
    /// copies).
    ///
    /// # Errors
    ///
    /// See [`Store::query`].
    pub fn query_as(&self, object: &str, sql: &str) -> Result<QueryOutput> {
        crate::store::validate_key(object)?;
        let meta = self.object(object)?;
        let fm = meta
            .file_meta
            .as_ref()
            .ok_or_else(|| StoreError::NotAnalytics(object.to_string()))?;
        let q = fusion_sql::parser::parse(sql)?;
        let plan = fusion_sql::plan::plan(&q, &fm.schema)?;
        match self.query_mode() {
            crate::config::QueryMode::Reassemble => baseline::execute(self, object, &plan),
            crate::config::QueryMode::AdaptivePushdown => {
                fusion::execute(self, object, &plan, true)
            }
            crate::config::QueryMode::AlwaysPushdown => fusion::execute(self, object, &plan, false),
        }
    }

    /// Runs workflows on this store's cluster spec (closed loop) and
    /// returns the engine report. Straggler multipliers mirrored from
    /// the fault injector apply to every step on a slowed node.
    pub fn simulate(&self, clients: Vec<Vec<Workflow>>) -> RunReport {
        Engine::new(self.config().cluster.clone())
            .with_slowdowns(self.slowdowns().clone())
            .run_closed_loop(clients)
    }

    /// Simulates a single workflow alone on the cluster and returns its
    /// latency.
    pub fn simulate_solo(&self, workflow: &Workflow) -> Nanos {
        self.simulate(vec![vec![workflow.clone()]]).stats[0].latency
    }

    /// Compiles a query mix — `(object, sql)` pairs — into workflow
    /// templates for the traffic generator
    /// ([`fusion_cluster::traffic::TrafficGen::generate`]). Each query
    /// executes once on the data plane here; the generator then clones
    /// the resulting workflows into timestamped submission streams.
    ///
    /// # Errors
    ///
    /// See [`Store::query_as`].
    pub fn query_mix(&self, queries: &[(&str, &str)]) -> Result<Vec<Workflow>> {
        queries
            .iter()
            .map(|(object, sql)| Ok(self.query_as(object, sql)?.workflow))
            .collect()
    }

    /// Runs a multi-tenant open-loop job stream on this store's cluster
    /// spec under `policy`, mirroring fault-injector straggler
    /// multipliers — the traffic-engine counterpart of
    /// [`Store::simulate`]. Admission limits and tenant weights beyond
    /// the defaults are configured by building an
    /// [`Engine`] directly.
    pub fn simulate_jobs(
        &self,
        jobs: Vec<fusion_cluster::engine::Job>,
        policy: fusion_cluster::engine::SchedulingPolicy,
    ) -> RunReport {
        Engine::new(self.config().cluster.clone())
            .with_slowdowns(self.slowdowns().clone())
            .with_scheduling(policy)
            .run_jobs(jobs)
    }
}

/// A location in the cluster for transfer modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// A storage node.
    Node(usize),
    /// The client machine.
    Client,
}

impl Loc {
    fn tx(self) -> ResourceKey {
        match self {
            Loc::Node(n) => ResourceKey::NicTx(n),
            Loc::Client => ResourceKey::ClientNicTx,
        }
    }

    fn rx(self) -> ResourceKey {
        match self {
            Loc::Node(n) => ResourceKey::NicRx(n),
            Loc::Client => ResourceKey::ClientNicRx,
        }
    }

    fn cpu(self) -> ResourceKey {
        match self {
            Loc::Node(n) => ResourceKey::Cpu(n),
            Loc::Client => ResourceKey::ClientCpu,
        }
    }
}

/// Workflow construction context shared by both executors.
#[derive(Debug)]
pub(crate) struct Ctx<'a> {
    pub cost: &'a CostModel,
    pub wf: Workflow,
    pub net_bytes: u64,
    /// (stripe, lost bin) → decode step of an already-modelled degraded
    /// reconstruction, so several fragments of one lost bin pay for the
    /// repair-set rebuild only once per query.
    pub degraded: std::collections::HashMap<(usize, usize), StepId>,
    /// Per-query span recorder (a strict no-op unless the store's
    /// observability flag is on).
    pub trace: Trace,
}

impl<'a> Ctx<'a> {
    pub fn new(cost: &'a CostModel, observability: bool) -> Ctx<'a> {
        Ctx {
            cost,
            wf: Workflow::new(),
            net_bytes: 0,
            degraded: std::collections::HashMap::new(),
            trace: if observability {
                Trace::new("query")
            } else {
                Trace::disabled()
            },
        }
    }

    /// Sets the ambient phase tagged onto subsequently built steps,
    /// returning the previous phase (for save/restore nesting).
    pub fn phase(&mut self, phase: Phase) -> Phase {
        self.wf.set_phase(phase)
    }

    /// Models a transfer of `bytes` from `from` to `to`; local transfers
    /// are free (the paper's nodes are storage and coordinator at once).
    ///
    /// The sender's NIC is held for the wire time; the RPC overhead (framing
    /// plus propagation) is a pure delay that does not occupy the NIC; the
    /// receiver's NIC is then held for the wire time. Returns the
    /// dependency frontier for successors.
    pub fn transfer(&mut self, from: Loc, to: Loc, bytes: u64, deps: &[StepId]) -> Vec<StepId> {
        if from == to {
            return deps.to_vec();
        }
        // Wire time is its own phase — except inside a degraded rebuild,
        // whose survivor-shard traffic stays attributed to the repair.
        let prev = self.wf.phase();
        if prev != Phase::DegradedReconstruct {
            self.wf.set_phase(Phase::Network);
        }
        let tx = self
            .wf
            .step(from.tx(), self.cost.wire(bytes), CostClass::Network, deps);
        self.wf.transfer_bytes(tx, bytes);
        self.net_bytes += bytes;
        let lat = self.wf.step(
            ResourceKey::Delay,
            self.cost.rpc_overhead,
            CostClass::Network,
            &[tx],
        );
        let rx = self
            .wf
            .step(to.rx(), self.cost.wire(bytes), CostClass::Network, &[lat]);
        // Kernel/TCP processing at both endpoints: occupies CPU cores (the
        // paper's "network processing CPU") without extending the transfer
        // chain — modelled as work concurrent with the transfer.
        let net_cpu = self.cost.net_cpu(bytes);
        if net_cpu > Nanos::ZERO {
            self.wf.step(from.cpu(), net_cpu, CostClass::Network, &[]);
            self.wf.step(to.cpu(), net_cpu, CostClass::Network, &[]);
        }
        self.wf.set_phase(prev);
        vec![rx]
    }

    /// Models a control-plane RPC (sub-query dispatch, fetch request):
    /// pure latency, no payload — constant-size messages are negligible on
    /// the wire and must not inherit the data-plane's scaled byte costs.
    pub fn rpc(&mut self, from: Loc, to: Loc, deps: &[StepId]) -> Vec<StepId> {
        if from == to {
            return deps.to_vec();
        }
        let prev = self.wf.phase();
        if prev != Phase::DegradedReconstruct {
            self.wf.set_phase(Phase::Network);
        }
        let lat = self.wf.step(
            ResourceKey::Delay,
            self.cost.rpc_overhead,
            CostClass::Network,
            deps,
        );
        self.wf.set_phase(prev);
        vec![lat]
    }

    /// Models a disk read of `bytes` on `node`.
    pub fn disk(&mut self, node: usize, bytes: u64, deps: &[StepId]) -> StepId {
        let prev = self.wf.phase();
        if prev != Phase::DegradedReconstruct {
            self.wf.set_phase(Phase::ShardRead);
        }
        let id = self.wf.step(
            ResourceKey::Disk(node),
            self.cost.disk_read(bytes),
            CostClass::DiskRead,
            deps,
        );
        self.wf.set_phase(prev);
        id
    }

    /// Models CPU work at `loc`.
    pub fn cpu(&mut self, loc: Loc, dur: Nanos, class: CostClass, deps: &[StepId]) -> StepId {
        self.wf.step(loc.cpu(), dur, class, deps)
    }

    /// Charges the retry-policy delay ahead of a dispatch to a flaky
    /// (recently revived) node: `penalty` is the wall time burned on
    /// timed-out attempts before one got through. Free for healthy
    /// nodes.
    pub fn retry(&mut self, penalty: Nanos, deps: &[StepId]) -> Vec<StepId> {
        if penalty == Nanos::ZERO {
            return deps.to_vec();
        }
        let prev = self.wf.set_phase(Phase::Retry);
        let s = self
            .wf
            .step(ResourceKey::Delay, penalty, CostClass::Network, deps);
        self.wf.set_phase(prev);
        if self.trace.enabled() {
            self.trace.enter(Phase::Retry, "retry_penalty");
            self.trace.add_count(1);
            self.trace.exit();
        }
        vec![s]
    }
}

/// Time-plane model of a degraded fragment read (the fragment's block is
/// on a dead node or lost): the coordinator pulls the code's cheapest
/// repair set for the lost bin — any `k` survivors for Reed-Solomon, the
/// lost shard's local group for LRC — decodes on its CPU, and serves the
/// fragment from the rebuilt bin. Cached per (stripe, bin) in
/// [`Ctx::degraded`].
///
/// # Errors
///
/// [`StoreError::Internal`] when the fragment maps to no stripe or too
/// few shards survive (the data plane fails first in practice).
pub(crate) fn degraded_fragment_fetch(
    store: &Store,
    meta: &crate::object::ObjectMeta,
    ctx: &mut Ctx<'_>,
    coord: usize,
    frag: &crate::object::ChunkFragment,
    deps: &[StepId],
) -> Result<StepId> {
    let (si, bi) = store
        .stripe_of(meta, frag.block)
        .ok_or_else(|| StoreError::Internal("fragment without stripe".into()))?;
    if let Some(&done) = ctx.degraded.get(&(si, bi)) {
        return Ok(done);
    }
    let sp = &meta.placement[si];
    let sources = store.surviving_repair_shards(sp, bi).ok_or_else(|| {
        StoreError::Internal(format!(
            "stripe {si} has too few shards to rebuild bin {bi}"
        ))
    })?;
    // Every step of the rebuild — source reads, wire time, decode — is
    // attributed to the degraded-reconstruct phase.
    let prev = ctx.phase(Phase::DegradedReconstruct);
    if ctx.trace.enabled() {
        ctx.trace
            .enter(Phase::DegradedReconstruct, "degraded_reconstruct");
        ctx.trace.add_count(sources.len() as u64);
        ctx.trace.add_bytes(sp.width * sources.len() as u64);
        ctx.trace.exit();
    }
    let mut arrived = Vec::new();
    for &i in &sources {
        let src = sp.nodes[i];
        let req = ctx.rpc(Loc::Node(coord), Loc::Node(src), deps);
        let req = ctx.retry(store.retry_penalty(src), &req);
        let read = ctx.disk(src, sp.width, &req);
        arrived.extend(ctx.transfer(Loc::Node(src), Loc::Node(coord), sp.width, &[read]));
    }
    let decode_cost = ctx.cost.ec_at(
        sp.width * sources.len() as u64,
        store.config().codec_speedup(),
    );
    let decode = ctx.cpu(
        Loc::Node(coord),
        decode_cost,
        CostClass::Processing,
        &arrived,
    );
    ctx.phase(prev);
    ctx.degraded.insert((si, bi), decode);
    Ok(decode)
}

/// Applies a LIMIT by clearing every match bit after the first `limit`
/// set bits (row order across row groups). Aggregate-bearing plans keep
/// their bitmaps intact: SQL LIMIT caps output rows, and aggregates
/// summarize all matches into one row anyway.
pub(crate) fn apply_limit(plan: &QueryPlan, rg_bitmaps: &mut [fusion_sql::bitmap::Bitmap]) {
    let Some(limit) = plan.limit else { return };
    if !plan.aggregates.is_empty() {
        return;
    }
    let mut remaining = limit;
    for bm in rg_bitmaps.iter_mut() {
        if remaining == 0 {
            *bm = fusion_sql::bitmap::Bitmap::with_len(bm.len());
            continue;
        }
        let ones: Vec<usize> = bm.ones().collect();
        if ones.len() <= remaining {
            remaining -= ones.len();
            continue;
        }
        let mut truncated = fusion_sql::bitmap::Bitmap::with_len(bm.len());
        for &i in ones.iter().take(remaining) {
            truncated.set(i);
        }
        *bm = truncated;
        remaining = 0;
    }
}

/// Conservative "could this row group contain matches?" over the boolean
/// tree, using per-chunk min/max stats. `true` means "cannot rule out".
pub(crate) fn row_group_may_match(
    tree: Option<&BoolTree>,
    filters: &[FilterLeaf],
    rg_meta: &fusion_format::footer::RowGroupMeta,
) -> bool {
    fn rec(t: &BoolTree, filters: &[FilterLeaf], rg: &fusion_format::footer::RowGroupMeta) -> bool {
        match t {
            BoolTree::Leaf(id) => {
                let leaf = &filters[*id];
                let cm = &rg.chunks[leaf.column];
                fusion_sql::eval::stats_may_match(leaf, cm.min.as_ref(), cm.max.as_ref())
            }
            BoolTree::And(a, b) => rec(a, filters, rg) && rec(b, filters, rg),
            BoolTree::Or(a, b) => rec(a, filters, rg) || rec(b, filters, rg),
            // NOT over a may-match bound is not a may-match bound; stay
            // conservative.
            BoolTree::Not(_) => true,
        }
    }
    match tree {
        None => true,
        Some(t) => rec(t, filters, rg_meta),
    }
}

/// The output label of an aggregate, like `sum(price)` or `count(*)`.
pub(crate) fn agg_label(spec: &fusion_sql::plan::AggregateSpec) -> String {
    match &spec.column_name {
        Some(c) => format!("{}({})", spec.func, c),
        None => format!("{}(*)", spec.func),
    }
}

/// Builds the final result of a *grouped* query from merged keyed
/// aggregate state. Shared by both executors so their outputs are
/// identical by construction: groups are emitted in [`GroupKey`] sort
/// order (a total order, floats by `total_cmp`), key columns follow the
/// schema's types, and each aggregate becomes one typed output column
/// labelled like `sum(price)`.
///
/// `row_count` stays the *matched row* count (the grouped rows are the
/// `columns`), mirroring how aggregate-only queries already report it.
pub(crate) fn assemble_grouped_result(
    plan: &QueryPlan,
    schema: &fusion_format::schema::Schema,
    grouped: fusion_sql::partial::GroupedAggs,
    total_matches: usize,
) -> Result<QueryResult> {
    use fusion_format::schema::LogicalType;
    use fusion_sql::ast::AggFunc;
    use fusion_sql::plan::OutputItem;

    // (key, finalized states) rows in canonical key order.
    let rows = grouped.into_sorted();

    fn column_from(ty: LogicalType, values: Vec<Value>) -> Result<ColumnData> {
        match ty {
            LogicalType::Int64 | LogicalType::Date => Ok(ColumnData::Int64(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(x) => Ok(x),
                        other => Err(StoreError::Internal(format!(
                            "expected int in grouped output, got {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?,
            )),
            LogicalType::Float64 => Ok(ColumnData::Float64(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(x) => Ok(x),
                        // Integer partials may finalize under a float
                        // label (e.g. MIN over a Date key) — never the
                        // other way around.
                        Value::Int(x) => Ok(x as f64),
                        other => Err(StoreError::Internal(format!(
                            "expected float in grouped output, got {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?,
            )),
            LogicalType::Utf8 => Ok(ColumnData::Utf8(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s),
                        other => Err(StoreError::Internal(format!(
                            "expected string in grouped output, got {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?,
            )),
        }
    }

    let mut columns = Vec::new();
    for out in &plan.outputs {
        match out {
            OutputItem::Projection(pos) => {
                let schema_idx = plan.projections[*pos];
                let key_pos = plan
                    .group_by
                    .iter()
                    .position(|&c| c == schema_idx)
                    .ok_or_else(|| {
                        StoreError::Internal("selected column is not a group key".into())
                    })?;
                let values: Vec<Value> = rows.iter().map(|(k, _)| k.0[key_pos].clone()).collect();
                columns.push((
                    plan.projection_names[*pos].clone(),
                    column_from(schema.fields()[schema_idx].ty, values)?,
                ));
            }
            OutputItem::Aggregate(ai) => {
                let spec = &plan.aggregates[*ai];
                let arg_ty = spec.column.map(|idx| schema.fields()[idx].ty);
                let out_ty = match spec.func {
                    AggFunc::Count => LogicalType::Int64,
                    AggFunc::Avg => LogicalType::Float64,
                    AggFunc::Sum => match arg_ty {
                        Some(LogicalType::Float64) => LogicalType::Float64,
                        _ => LogicalType::Int64,
                    },
                    AggFunc::Min | AggFunc::Max => arg_ty.unwrap_or(LogicalType::Int64),
                };
                let values: Vec<Value> = rows.iter().map(|(_, p)| p[*ai].finalize()).collect();
                columns.push((agg_label(spec), column_from(out_ty, values)?));
            }
        }
    }
    Ok(QueryResult {
        row_count: total_matches,
        columns,
        aggregates: Vec::new(),
    })
}

/// Plain-encoding size of the final result payload sent back to the
/// client.
pub(crate) fn result_wire_bytes(result: &QueryResult) -> u64 {
    let cols: u64 = result
        .columns
        .iter()
        .map(|(_, c)| c.plain_size() as u64)
        .sum();
    let aggs = result.aggregates.len() as u64 * 16;
    cols + aggs + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_sql::ast::CmpOp;
    use fusion_sql::bitmap::Bitmap;
    use fusion_sql::plan::QueryPlan;

    fn plan_with_limit(limit: Option<usize>, aggregates: bool) -> QueryPlan {
        QueryPlan {
            table: "t".into(),
            filters: vec![],
            tree: None,
            projections: vec![0],
            projection_names: vec!["x".into()],
            aggregates: if aggregates {
                vec![fusion_sql::plan::AggregateSpec {
                    func: fusion_sql::ast::AggFunc::Count,
                    column: None,
                    column_name: None,
                }]
            } else {
                vec![]
            },
            outputs: vec![fusion_sql::plan::OutputItem::Projection(0)],
            group_by: vec![],
            group_by_names: vec![],
            limit,
        }
    }

    #[test]
    fn apply_limit_truncates_across_row_groups() {
        let mut bms = vec![
            (0..10).map(|i| i % 2 == 0).collect::<Bitmap>(), // 5 ones
            (0..10).map(|i| i < 4).collect::<Bitmap>(),      // 4 ones
        ];
        apply_limit(&plan_with_limit(Some(7), false), &mut bms);
        assert_eq!(bms[0].count_ones(), 5);
        assert_eq!(bms[1].count_ones(), 2);
        assert_eq!(bms[1].ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn apply_limit_zero_and_none() {
        let mk = || vec![(0..8).map(|_| true).collect::<Bitmap>()];
        let mut bms = mk();
        apply_limit(&plan_with_limit(Some(0), false), &mut bms);
        assert_eq!(bms[0].count_ones(), 0);
        let mut bms = mk();
        apply_limit(&plan_with_limit(None, false), &mut bms);
        assert_eq!(bms[0].count_ones(), 8);
    }

    #[test]
    fn apply_limit_skips_aggregate_plans() {
        let mut bms = vec![(0..8).map(|_| true).collect::<Bitmap>()];
        apply_limit(&plan_with_limit(Some(1), true), &mut bms);
        assert_eq!(bms[0].count_ones(), 8);
    }
    use fusion_format::encoding::Encoding;
    use fusion_format::footer::{ChunkMeta, RowGroupMeta};

    fn leaf(column: usize, op: CmpOp, constant: Value) -> FilterLeaf {
        FilterLeaf {
            id: 0,
            column,
            column_name: format!("c{column}"),
            op,
            constant,
        }
    }

    fn rg(mins: &[i64], maxs: &[i64]) -> RowGroupMeta {
        RowGroupMeta {
            row_count: 10,
            chunks: mins
                .iter()
                .zip(maxs)
                .map(|(&mn, &mx)| ChunkMeta {
                    offset: 0,
                    len: 10,
                    value_count: 10,
                    plain_size: 80,
                    encoding: Encoding::Plain,
                    min: Some(Value::Int(mn)),
                    max: Some(Value::Int(mx)),
                })
                .collect(),
        }
    }

    #[test]
    fn rg_pruning_logic() {
        let filters = vec![leaf(0, CmpOp::Gt, Value::Int(100))];
        let tree = BoolTree::Leaf(0);
        // max 50 < 100: cannot match.
        assert!(!row_group_may_match(
            Some(&tree),
            &filters,
            &rg(&[0], &[50])
        ));
        // max 150: may match.
        assert!(row_group_may_match(
            Some(&tree),
            &filters,
            &rg(&[0], &[150])
        ));
        // No predicate: always may match.
        assert!(row_group_may_match(None, &filters, &rg(&[0], &[50])));
        // NOT stays conservative.
        let nt = BoolTree::Not(Box::new(BoolTree::Leaf(0)));
        assert!(row_group_may_match(Some(&nt), &filters, &rg(&[0], &[50])));
    }

    #[test]
    fn and_or_pruning() {
        let filters = vec![
            leaf(0, CmpOp::Gt, Value::Int(100)),
            leaf(1, CmpOp::Lt, Value::Int(5)),
        ];
        let and = BoolTree::And(Box::new(BoolTree::Leaf(0)), Box::new(BoolTree::Leaf(1)));
        let or = BoolTree::Or(Box::new(BoolTree::Leaf(0)), Box::new(BoolTree::Leaf(1)));
        // col0 in [0,50] can't be >100; col1 in [0,50] may be <5.
        let meta = rg(&[0, 0], &[50, 50]);
        assert!(!row_group_may_match(Some(&and), &filters, &meta));
        assert!(row_group_may_match(Some(&or), &filters, &meta));
    }
}
