//! Query execution: the two-stage adaptive pushdown engine (Fusion) and
//! the fetch-and-reassemble engine (baseline).
//!
//! Both executors run the **data plane for real** — they decode actual
//! chunk bytes, evaluate predicates, and materialize results — while
//! simultaneously building a [`Workflow`] that models where each byte
//! travels and how long each stage occupies disks, CPUs, and NICs. The
//! two executors must produce identical [`QueryResult`]s; only their
//! workflows (and therefore latency and traffic) differ.
//!
//! [`Store::query_as`] returns the whole [`QueryOutput`];
//! [`Store::answer`] runs the same executors over a
//! [`Workflow::disabled`] time plane and returns only the result, so it
//! skips every input only the model reads (bitmap and projection sizing,
//! degraded repair planning) while reading, caching and counting exactly
//! what `query_as` does.

pub mod baseline;
pub mod fusion;

use crate::config::FAST_CODEC_SPEEDUP;
use crate::error::{Result, StoreError};
use crate::object::{ChunkFragment, ObjectMeta};
use crate::store::Store;
use fusion_cluster::engine::{CostClass, Engine, ResourceKey, RunReport, StepId, Workflow};
use fusion_cluster::spec::CostModel;
use fusion_cluster::time::Nanos;
use fusion_format::footer::FileMeta;
use fusion_format::value::{ColumnData, Value};
use fusion_obs::trace::{Phase, Trace};
use fusion_sql::plan::{BoolTree, FilterLeaf, QueryPlan};
use std::collections::HashMap;

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
        self.run_query(object, sql, true)
    }

    /// The answer [`Store::query_as`] gives, without building the time
    /// plane: the service's query path. The data plane is the same — the
    /// same chunks are read, cached and counted in the same order, and
    /// errors are the same — but no workflow, bitmap size or repair plan
    /// is computed.
    ///
    /// # Errors
    ///
    /// See [`Store::query`].
    pub fn answer(&self, object: &str, sql: &str) -> Result<QueryResult> {
        Ok(self.run_query(object, sql, false)?.result)
    }

    /// Parses, plans and dispatches `sql` on `object` to the configured
    /// executor, recording the time plane iff `record`.
    fn run_query(&self, object: &str, sql: &str, record: bool) -> Result<QueryOutput> {
        crate::store::validate_key(object)?;
        let meta = self.object(object)?;
        let fm = meta
            .file_meta
            .as_ref()
            .ok_or_else(|| StoreError::NotAnalytics(object.to_string()))?;
        let q = fusion_sql::parser::parse(sql)?;
        let plan = fusion_sql::plan::plan(&q, &fm.schema)?;
        let ctx = Ctx::new(self, object, record)?;
        match self.query_mode() {
            crate::config::QueryMode::Reassemble => baseline::execute(ctx, &plan),
            crate::config::QueryMode::AdaptivePushdown => fusion::execute(ctx, &plan, true),
            crate::config::QueryMode::AlwaysPushdown => fusion::execute(ctx, &plan, false),
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
    /// the resulting workflows into a timestamped job stream.
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

/// One query's chunk accesses. Both executors conserve them, healthy or
/// degraded: `pruned + hits + misses == considered` (see
/// [`QueryOutput::chunks_considered`]).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ChunkTally {
    pub considered: usize,
    pub pruned: usize,
    pub hits: usize,
    pub misses: usize,
}

/// Workflow construction context shared by both executors: the object
/// being queried, its coordinator, and what the query has modelled and
/// counted so far.
#[derive(Debug)]
pub(crate) struct Ctx<'a> {
    pub store: &'a Store,
    pub object: &'a str,
    pub meta: &'a ObjectMeta,
    pub fm: &'a FileMeta,
    pub coord: usize,
    pub cost: &'a CostModel,
    /// The modelled time plane, or a [`Workflow::disabled`] one when the
    /// caller wants only the answer.
    pub wf: Workflow,
    pub net_bytes: u64,
    /// (stripe, lost bin) → decode step of an already-modelled degraded
    /// reconstruction, so several fragments of one lost bin pay for the
    /// repair-set rebuild only once per query.
    pub degraded: HashMap<(usize, usize), StepId>,
    /// Chunk ordinal → (node, step) of the in-situ filter scan already
    /// modelled on that node. Later work pushed to the same chunk reuses
    /// the scan's read and decode instead of repeating them (paper
    /// Fig. 13c: "both systems spend approximately the same amount of
    /// time on disk read and chunk processing").
    pub scanned: HashMap<usize, (usize, StepId)>,
    pub chunks: ChunkTally,
    /// Per-query span recorder (a strict no-op unless the store's
    /// observability flag is on).
    pub trace: Trace,
}

impl<'a> Ctx<'a> {
    /// Starts a query on `object`: resolves its metadata and coordinator.
    /// The time plane is built iff `record`.
    ///
    /// # Errors
    ///
    /// Unknown or non-analytics objects, or no alive node to coordinate.
    pub fn new(store: &'a Store, object: &'a str, record: bool) -> Result<Ctx<'a>> {
        let meta = store.object(object)?;
        let fm = meta
            .file_meta
            .as_ref()
            .ok_or_else(|| StoreError::NotAnalytics(object.to_string()))?;
        let coord = store.coordinator_of(object)?;
        Ok(Ctx {
            store,
            object,
            meta,
            fm,
            coord,
            cost: &store.config().cluster.cost,
            wf: if record {
                Workflow::new()
            } else {
                Workflow::disabled()
            },
            net_bytes: 0,
            degraded: HashMap::new(),
            scanned: HashMap::new(),
            chunks: ChunkTally::default(),
            trace: if store.config().observability {
                Trace::new("query")
            } else {
                Trace::disabled()
            },
        })
    }

    /// Whether the time plane is being built. When it is not, the
    /// executors skip the inputs only the model reads.
    pub fn recording(&self) -> bool {
        self.wf.is_recording()
    }

    /// Ordinal of the chunk of column `col` in row group `rg`.
    pub fn ordinal(&self, rg: usize, col: usize) -> Result<usize> {
        self.meta
            .chunk_ordinal(rg, col)
            .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))
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

    /// Models fetching one chunk to the coordinator in stored
    /// (compressed) form once `after` is done: each fragment is read on
    /// its node and shipped over, or rebuilt from its stripe when its
    /// block is lost ([`Ctx::degraded_fetch`]). Returns the arrivals.
    ///
    /// # Errors
    ///
    /// See [`Ctx::degraded_fetch`].
    pub fn fetch_fragments(
        &mut self,
        frags: &[ChunkFragment],
        after: StepId,
    ) -> Result<Vec<StepId>> {
        if !self.recording() {
            // The data plane has read (or rebuilt) these fragments
            // already; only the model plans their repair.
            return Ok(vec![after]);
        }
        let (store, coord) = (self.store, self.coord);
        let mut arrived = Vec::with_capacity(frags.len());
        for f in frags {
            if store.blocks().has_block(f.node, f.block) {
                let req = self.rpc(Loc::Node(coord), Loc::Node(f.node), &[after]);
                let req = self.retry(store.retry_penalty(f.node), &req);
                let read = self.disk(f.node, f.len, &req);
                arrived.extend(self.transfer(Loc::Node(f.node), Loc::Node(coord), f.len, &[read]));
            } else {
                arrived.push(self.degraded_fetch(f, after)?);
            }
        }
        Ok(arrived)
    }

    /// Time-plane model of a degraded fragment read (the fragment's block
    /// is on a dead node or lost): the coordinator pulls the code's
    /// cheapest repair set for the lost bin — any `k` survivors for
    /// Reed-Solomon, the lost shard's local group for LRC — decodes on its
    /// CPU, and serves the fragment from the rebuilt bin. Cached per
    /// (stripe, bin) in [`Ctx::degraded`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Internal`] when the fragment maps to no stripe or too
    /// few shards survive (the data plane fails first in practice).
    fn degraded_fetch(&mut self, frag: &ChunkFragment, after: StepId) -> Result<StepId> {
        let (store, coord) = (self.store, self.coord);
        let (si, bi) = store
            .stripe_of(self.meta, frag.block)
            .ok_or_else(|| StoreError::Internal("fragment without stripe".into()))?;
        if let Some(&done) = self.degraded.get(&(si, bi)) {
            return Ok(done);
        }
        let sp = &self.meta.placement[si];
        let sources = store.surviving_repair_shards(sp, bi).ok_or_else(|| {
            StoreError::Internal(format!(
                "stripe {si} has too few shards to rebuild bin {bi}"
            ))
        })?;
        // Every step of the rebuild — source reads, wire time, decode — is
        // attributed to the degraded-reconstruct phase.
        let prev = self.phase(Phase::DegradedReconstruct);
        if self.trace.enabled() {
            self.trace
                .enter(Phase::DegradedReconstruct, "degraded_reconstruct");
            self.trace.add_count(sources.len() as u64);
            self.trace.add_bytes(sp.width * sources.len() as u64);
            self.trace.exit();
        }
        let mut arrived = Vec::new();
        for &i in &sources {
            let src = sp.nodes[i];
            let req = self.rpc(Loc::Node(coord), Loc::Node(src), &[after]);
            let req = self.retry(store.retry_penalty(src), &req);
            let read = self.disk(src, sp.width, &req);
            arrived.extend(self.transfer(Loc::Node(src), Loc::Node(coord), sp.width, &[read]));
        }
        let decode_cost = self
            .cost
            .ec_at(sp.width * sources.len() as u64, FAST_CODEC_SPEEDUP);
        let decode = self.cpu(
            Loc::Node(coord),
            decode_cost,
            CostClass::Processing,
            &arrived,
        );
        self.phase(prev);
        self.degraded.insert((si, bi), decode);
        Ok(decode)
    }

    /// Ends the query: once `frontier` is done the coordinator spends
    /// `assemble(reply bytes)` building the reply — the plain-encoding
    /// size of the result plus a fixed header — and ships it to the
    /// client. The context becomes the query's output.
    pub fn reply(
        mut self,
        frontier: &[StepId],
        assemble: impl FnOnce(u64) -> Nanos,
        result: QueryResult,
        selectivity: f64,
        decisions: Vec<ProjectionDecision>,
    ) -> QueryOutput {
        if self.recording() {
            let cols: u64 = result
                .columns
                .iter()
                .map(|(_, c)| c.plain_size() as u64)
                .sum();
            let reply_bytes = cols + result.aggregates.len() as u64 * 16 + 64;
            let coord = Loc::Node(self.coord);
            let step = self.cpu(coord, assemble(reply_bytes), CostClass::Other, frontier);
            self.transfer(coord, Loc::Client, reply_bytes, &[step]);
        }
        let ChunkTally {
            considered,
            pruned,
            hits,
            misses,
        } = self.chunks;
        debug_assert_eq!(
            pruned + hits + misses,
            considered,
            "chunk accounting must conserve"
        );
        QueryOutput {
            result,
            selectivity,
            workflow: self.wf,
            net_bytes: self.net_bytes,
            decisions,
            pruned_chunks: pruned,
            cache_hits: hits,
            cache_misses: misses,
            chunks_considered: considered,
            trace: self.trace,
        }
    }
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
/// schema's types, and each aggregate becomes one output column of its
/// state's type ([`output_type`]), labelled like `sum(price)`.
///
/// `row_count` stays the *matched row* count (the grouped rows are the
/// `columns`), mirroring how aggregate-only queries already report it.
///
/// [`GroupKey`]: fusion_sql::partial::GroupKey
/// [`output_type`]: fusion_sql::partial::PartialAgg::output_type
pub(crate) fn assemble_grouped_result(
    plan: &QueryPlan,
    schema: &fusion_format::schema::Schema,
    grouped: fusion_sql::partial::GroupedAggs,
    total_matches: usize,
) -> Result<QueryResult> {
    use fusion_format::schema::LogicalType;
    use fusion_sql::partial::PartialAgg;
    use fusion_sql::plan::OutputItem;

    // (key, states) rows in canonical key order.
    let rows = grouped.into_sorted();
    let mut columns = Vec::new();
    for out in &plan.outputs {
        let (label, ty, values): (String, LogicalType, Vec<Value>) = match *out {
            OutputItem::Projection(pos) => {
                let schema_idx = plan.projections[pos];
                let key_pos = plan
                    .group_by
                    .iter()
                    .position(|&c| c == schema_idx)
                    .ok_or_else(|| {
                        StoreError::Internal("selected column is not a group key".into())
                    })?;
                (
                    plan.projection_names[pos].clone(),
                    schema.fields()[schema_idx].ty,
                    rows.iter().map(|(k, _)| k.0[key_pos].clone()).collect(),
                )
            }
            OutputItem::Aggregate(ai) => {
                let spec = &plan.aggregates[ai];
                let arg_ty = spec
                    .column
                    .map_or(LogicalType::Int64, |c| schema.fields()[c].ty);
                (
                    agg_label(spec),
                    PartialAgg::new(spec.func, arg_ty)?.output_type(),
                    rows.iter().map(|(_, p)| p[ai].finalize()).collect(),
                )
            }
        };
        let mut col = ColumnData::with_capacity(ty, values.len());
        for v in values {
            match (&mut col, v) {
                (ColumnData::Int64(c), Value::Int(x)) => c.push(x),
                (ColumnData::Float64(c), Value::Float(x)) => c.push(x),
                (ColumnData::Utf8(c), Value::Str(x)) => c.push(x),
                (c, v) => {
                    return Err(StoreError::Internal(format!(
                        "{v:?} in the {} output column {label}",
                        c.physical_name()
                    )))
                }
            }
        }
        columns.push((label, col));
    }
    Ok(QueryResult {
        row_count: total_matches,
        columns,
        aggregates: Vec::new(),
    })
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
