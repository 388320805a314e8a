//! Fusion's two-stage, fine-grained adaptive pushdown executor (paper
//! §4.3 and §5).
//!
//! **Filter stage** — every filter comparison is dispatched to the node
//! hosting the relevant column chunk (FAC guarantees the chunk is whole).
//! The node serves the chunk from its encoded-chunk cache (or reads and
//! parses it on a miss), scans it in situ with the encoded-domain kernels
//! (`eval_filter_encoded`: dictionary-mask + RLE-span + word-batched
//! loops), and returns a Snappy-compressed bitmap. Chunks whose footer
//! min/max statistics prove no match — or prove *every* row matches — are
//! skipped entirely. The per-node parallelism of those sub-queries lives
//! in the time plane: the data plane scans the chunks inline, one after
//! another, on the thread running the query, reading each through the
//! same [`access`] helper as every later stage. A request is the unit of
//! parallelism (DESIGN.md §10, "Thread model").
//!
//! **Projection stage** — the coordinator, now knowing the exact
//! selectivity, applies the Cost Equation per chunk:
//! `selectivity × compressibility < 1` → push the projection down (the
//! node sends only the selected values, uncompressed); otherwise fetch the
//! compressed chunk and project locally at the coordinator.
//!
//! With aggregate pushdown on (an extension: the paper's §5 future
//! work), an aggregate-only query runs the same projection stage, but
//! every healthy chunk's node folds its matched rows and ships back only
//! partials.
//!
//! Wherever the time plane places that work, the data plane computes
//! every answer from the encoded chunk views it already holds: projected
//! rows are gathered straight from dictionary codes and RLE runs into one
//! output column, ungrouped aggregates fold from the views without
//! materializing their argument, and GROUP BY runs the encoded grouping
//! kernel.

use super::{
    agg_label, row_group_may_match, Ctx, Loc, ProjectionDecision, QueryOutput, QueryResult,
};
use crate::config::FAST_SNAPPY_SPEEDUP;
use crate::error::{Result, StoreError};
use crate::object::ChunkFragment;
use fusion_cluster::engine::{CostClass, StepId};
use fusion_cluster::time::Nanos;
use fusion_format::chunk::{read_encoded_chunk, EncodedChunk};
use fusion_format::footer::ChunkMeta;
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_obs::trace::Phase;
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{
    combine, eval_filter_encoded, select_encoded, selected_plain_size, stats_all_match,
    stats_may_match,
};
use fusion_sql::partial::{GroupedAggs, PartialAgg, Selection};
use fusion_sql::plan::{BoolTree, OutputItem, QueryPlan};
use std::sync::Arc;

/// Serialized and Snappy-compressed sizes of a bitmap, `(raw, wire)`,
/// when the time plane is recorded (`record`), which alone reads them;
/// `(0, 0)` otherwise.
fn bitmap_sizes(record: bool, bm: &Bitmap) -> (u64, u64) {
    if !record {
        return (0, 0);
    }
    let raw = bm.to_bytes();
    (raw.len() as u64, fusion_snappy::compress(&raw).len() as u64)
}

/// The `(raw, wire)` sizes of each row group's final bitmap. The time
/// plane ships that bitmap to every node that projects or aggregates the
/// row group, but the bytes never travel for real: each distinct bitmap
/// is compressed once per recorded query, only to be sized.
struct RowGroupBitmapSizes {
    record: bool,
    sizes: Vec<Option<(u64, u64)>>,
}

impl RowGroupBitmapSizes {
    fn get(&mut self, rg: usize, bm: &Bitmap) -> (u64, u64) {
        let record = self.record;
        *self.sizes[rg].get_or_insert_with(|| bitmap_sizes(record, bm))
    }
}

/// One chunk a stage reads: where it lives and its encoded view.
struct Access {
    ordinal: usize,
    frags: Vec<ChunkFragment>,
    /// Whole on a live node, so work can be pushed to `frags[0].node`.
    healthy: bool,
    view: Arc<EncodedChunk>,
    /// The view came from that node's chunk cache.
    hit: bool,
}

/// Reads the chunk of column `col` in row group `rg` for the data plane
/// and counts the access. A healthy chunk is looked up in its node's
/// chunk cache and, on a miss, parsed from the bytes the node reads;
/// [`publish`] caches that view. Any other chunk is parsed from bytes
/// the coordinator reassembles, rebuilding lost fragments from their
/// stripes — a one-off view that bypasses the cache but still reads the
/// data plane, so it counts as a miss.
fn access(ctx: &mut Ctx<'_>, rg: usize, col: usize) -> Result<Access> {
    let (store, object) = (ctx.store, ctx.object);
    let ordinal = ctx.ordinal(rg, col)?;
    let frags = ctx.meta.chunk_fragments(ordinal);
    let healthy = frags.len() == 1 && store.blocks().has_block(frags[0].node, frags[0].block);
    ctx.chunks.considered += 1;
    let cached = healthy.then(|| store.chunk_cache().get(object, ordinal));
    let (view, hit) = match cached.flatten() {
        Some(view) => {
            ctx.chunks.hits += 1;
            (view, true)
        }
        None => {
            ctx.chunks.misses += 1;
            let bytes = store.chunk_bytes(object, ordinal)?;
            let ty = ctx.fm.schema.fields()[col].ty;
            (Arc::new(read_encoded_chunk(&bytes, ty)?), false)
        }
    };
    Ok(Access {
        ordinal,
        frags,
        healthy,
        view,
        hit,
    })
}

/// Caches, on its node, the view [`access`] parsed for a healthy chunk
/// it missed.
fn publish(ctx: &Ctx<'_>, at: &Access) {
    if at.healthy && !at.hit {
        let cache = ctx.store.chunk_cache();
        cache.insert(ctx.object, at.ordinal, at.view.clone());
    }
}

/// Models `work` pushed to the node hosting the healthy chunk `at`, once
/// `deps` are done. If the filter stage already scanned the chunk there,
/// the work also waits for that scan; if the node's cache holds the view
/// it starts at once; otherwise the node first reads the chunk (`cm`)
/// from disk and decodes it at `decode_speedup`.
fn node_work(
    ctx: &mut Ctx<'_>,
    at: &Access,
    cm: &ChunkMeta,
    decode_speedup: f64,
    work: Nanos,
    mut deps: Vec<StepId>,
) -> StepId {
    let node = at.frags[0].node;
    match ctx.scanned.get(&at.ordinal) {
        Some(&(n, scan)) if n == node => {
            deps.push(scan);
            ctx.cpu(Loc::Node(node), work, CostClass::Processing, &deps)
        }
        _ if at.hit => ctx.cpu(Loc::Node(node), work, CostClass::Processing, &deps),
        _ => {
            let read = ctx.disk(node, cm.len, &deps);
            let decode = ctx.cost.decode_at(cm.plain_size, decode_speedup);
            ctx.cpu(
                Loc::Node(node),
                decode + work,
                CostClass::Processing,
                &[read],
            )
        }
    }
}

/// Executes `plan` with pushdown. `adaptive == false` pushes every
/// projection down unconditionally (the paper's always-on ablation).
pub(crate) fn execute(mut ctx: Ctx<'_>, plan: &QueryPlan, adaptive: bool) -> Result<QueryOutput> {
    let store = ctx.store;
    let (fm, coord, cost) = (ctx.fm, ctx.coord, ctx.cost);

    // Client issues the query.
    let arrival = ctx.rpc(Loc::Client, Loc::Node(coord), &[]);
    let plan_step = ctx.cpu(
        Loc::Node(coord),
        cost.query_overhead,
        CostClass::Other,
        &arrival,
    );

    let num_rgs = fm.row_groups.len();

    // ---- Filter stage ----
    let speedup = store.config().scan_speedup();
    // Compression-kernel plane: the fast Snappy kernels' rate scales the
    // Snappy share of decode (page decompression) and the bitmap
    // compression before shipping.
    let csp = FAST_SNAPPY_SPEEDUP;
    let mut filter_frontier: Vec<StepId> = vec![plan_step];
    let mut bitmap_wire_total = 0u64;
    let mut shard_read_bytes = 0u64;
    // Every CPU eval built in the filter stage is filter-phase work on
    // the virtual clock (reads, transfers, retries, and degraded
    // rebuilds tag themselves).
    ctx.phase(Phase::Filter);
    ctx.trace.enter(Phase::Filter, "filter_stage");

    // Every leaf whose chunk the footer statistics cannot settle reads
    // that chunk through `access` and scans it inline with the
    // encoded-domain kernels. In the time plane a healthy chunk is
    // scanned on its node; a split or degraded one is reassembled and
    // scanned at the coordinator.
    let mut leaf_acc: Vec<Vec<Option<Bitmap>>> = (0..num_rgs)
        .map(|_| (0..plan.filters.len()).map(|_| None).collect())
        .collect();
    // When the whole predicate is one leaf, a row group's final bitmap is
    // that leaf's bitmap: keep the sizes the scan already measured.
    let is_root = |li: usize| matches!(plan.tree, Some(BoolTree::Leaf(id)) if id == li);
    let mut bm_sizes = RowGroupBitmapSizes {
        record: ctx.recording(),
        sizes: vec![None; num_rgs],
    };
    // Healthy chunks' sub-queries in dispatch order, each with the `(raw,
    // wire)` sizes of the bitmap it returns.
    let mut dispatched: Vec<(Access, &ChunkMeta, (u64, u64))> = Vec::new();
    // `rg` also indexes the footer metadata, not just `leaf_acc`.
    #[allow(clippy::needless_range_loop)]
    for rg in 0..num_rgs {
        let rows = fm.row_groups[rg].row_count as usize;
        let rg_alive = row_group_may_match(plan.tree.as_ref(), &plan.filters, &fm.row_groups[rg]);
        for (li, leaf) in plan.filters.iter().enumerate() {
            let cm = fm.chunk(rg, leaf.column)?;
            let (min, max) = (cm.min.as_ref(), cm.max.as_ref());
            // Footer statistics that prove no row matches, or every row
            // does, settle the leaf with no read, scan or dispatch: a
            // stats-pruned chunk, not a cache access.
            let settled = if !rg_alive || !stats_may_match(leaf, min, max) {
                Some(Bitmap::with_len(rows))
            } else if stats_all_match(leaf, min, max) {
                Some(Bitmap::ones_with_len(rows))
            } else {
                None
            };
            if let Some(bm) = settled {
                ctx.chunks.considered += 1;
                ctx.chunks.pruned += 1;
                leaf_acc[rg][li] = Some(bm);
                continue;
            }
            let at = access(&mut ctx, rg, leaf.column)?;
            if !at.hit {
                shard_read_bytes += at.frags.iter().map(|f| f.len).sum::<u64>();
            }
            let bm = eval_filter_encoded(leaf, &at.view)?;
            let sizes = bitmap_sizes(ctx.recording(), &bm);
            bitmap_wire_total += sizes.1;
            if is_root(li) {
                bm_sizes.sizes[rg] = Some(sizes);
            }
            leaf_acc[rg][li] = Some(bm);
            if at.healthy {
                dispatched.push((at, cm, sizes));
                continue;
            }
            // Split chunk (FAC fell back to fixed blocks) or lost
            // fragments: the coordinator fetches the fragments, rebuilding
            // lost ones from their stripes, and scans there.
            let arrived = ctx.fetch_fragments(&at.frags, plan_step)?;
            let eval = ctx.cpu(
                Loc::Node(coord),
                cost.decode_at(cm.plain_size, speedup * csp)
                    + cost.eval_at(cm.value_count, speedup)
                    + cost.compress_at(sizes.0, csp),
                CostClass::Processing,
                &arrived,
            );
            filter_frontier.push(eval);
        }
    }

    // Healthy chunks' views enter the cache only now, in dispatch order,
    // so a second leaf on a column misses on a cold cache as the first
    // did.
    for (at, cm, (bm_raw, bm_wire)) in dispatched {
        publish(&ctx, &at);
        let node = at.frags[0].node;
        // The node compresses its result bitmap before shipping it back.
        let bm_compress = cost.compress_at(bm_raw, csp);

        // Time plane: dispatch the sub-query; a cache hit skips the disk
        // read and the parse and goes straight to the masked scan.
        let req = ctx.rpc(Loc::Node(coord), Loc::Node(node), &[plan_step]);
        let req = ctx.retry(store.retry_penalty(node), &req);
        let eval = if at.hit {
            ctx.cpu(
                Loc::Node(node),
                cost.eval_at(cm.value_count, speedup) + bm_compress,
                CostClass::Processing,
                &req,
            )
        } else {
            let read = ctx.disk(node, cm.len, &req);
            ctx.cpu(
                Loc::Node(node),
                cost.decode_at(cm.plain_size, speedup * csp)
                    + cost.eval_at(cm.value_count, speedup)
                    + bm_compress,
                CostClass::Processing,
                &[read],
            )
        };
        let back = ctx.transfer(Loc::Node(node), Loc::Node(coord), bm_wire, &[eval]);
        filter_frontier.extend(back);
        ctx.scanned.insert(at.ordinal, (node, eval));
    }

    let mut rg_bitmaps: Vec<Bitmap> = Vec::with_capacity(num_rgs);
    for (rg, accs) in leaf_acc.into_iter().enumerate() {
        let rows = fm.row_groups[rg].row_count as usize;
        let leaf_bitmaps: Vec<Bitmap> = accs
            .into_iter()
            .map(|b| b.expect("every leaf pruned, proven, or scanned"))
            .collect();
        let rg_bitmap = match &plan.tree {
            Some(tree) => combine(tree, &leaf_bitmaps)?,
            None => Bitmap::ones_with_len(rows),
        };
        rg_bitmaps.push(rg_bitmap);
    }

    if ctx.trace.enabled() {
        ctx.trace.enter(Phase::StatsPrune, "stats_prune");
        ctx.trace.add_count(ctx.chunks.pruned as u64);
        ctx.trace.exit();
        ctx.trace.enter(Phase::CacheLookup, "cache_lookup");
        ctx.trace
            .add_count((ctx.chunks.hits + ctx.chunks.misses) as u64);
        ctx.trace.exit();
        ctx.trace.enter(Phase::ShardRead, "shard_read");
        ctx.trace.add_count(ctx.chunks.misses as u64);
        ctx.trace.add_bytes(shard_read_bytes);
        ctx.trace.exit();
    }
    ctx.trace.exit(); // filter_stage

    // Coordinator consolidates all bitmaps (cheap CPU, but a real barrier).
    ctx.phase(Phase::Other);
    let combine_step = ctx.cpu(
        Loc::Node(coord),
        cost.project(bitmap_wire_total + 1024),
        CostClass::Other,
        &filter_frontier,
    );

    let total_rows: usize = fm.row_groups.iter().map(|g| g.row_count as usize).sum();
    // Selectivity is measured before any LIMIT: it is the filter-stage
    // statistic the Cost Equation reasons about.
    let measured: Vec<usize> = rg_bitmaps.iter().map(Bitmap::count_ones).collect();
    let measured_matches: usize = measured.iter().sum();
    let selectivity = if total_rows == 0 {
        0.0
    } else {
        measured_matches as f64 / total_rows as f64
    };
    super::apply_limit(plan, &mut rg_bitmaps);
    let rg_matches: Vec<usize> = rg_bitmaps.iter().map(Bitmap::count_ones).collect();
    let total_matches: usize = rg_matches.iter().sum();
    // LIMIT only clears bits, so a row group's bitmap is unchanged iff its
    // match count is; a truncated one is sized afresh.
    for (rg, (before, after)) in measured.iter().zip(&rg_matches).enumerate() {
        if before != after {
            bm_sizes.sizes[rg] = None;
        }
    }

    // ---- GROUP BY (encoded-domain partial aggregation) ----
    // Grouped queries never ship projected rows: each row group's matched
    // rows reduce to keyed `(group_key, PartialAgg)` states (dictionary
    // codes index the accumulators, RLE runs accumulate whole spans), and
    // the coordinator merges them in row-group order so float
    // accumulation stays deterministic. With aggregate pushdown on, the
    // chunk-hosting nodes compute the states; otherwise the coordinator
    // does, with the same kernels.
    if plan.grouped() {
        let inputs = AggStageInputs {
            ctx,
            combine_step,
            rg_bitmaps: &rg_bitmaps,
            bm_sizes,
            selectivity,
            total_matches,
        };
        return grouped_aggregate_stage(plan, inputs);
    }

    // ---- Projection stage ----
    // Data plane: every column the result shows gathers its matched rows
    // straight from the encoded views into one output column, and every
    // aggregate folds from the same views without materializing its
    // argument column. The time plane models the paper's plan — ship the
    // selected values, aggregate at the coordinator — unless aggregate
    // pushdown serves an aggregate-only query: then each healthy chunk's
    // node aggregates its matched rows and ships back one partial per
    // aggregate instead of the selected values.
    let agg_pushdown =
        store.config().aggregate_pushdown && plan.aggregate_only() && total_matches > 0;
    let shown: Vec<bool> = (0..plan.projections.len())
        .map(|pos| plan.outputs.contains(&OutputItem::Projection(pos)))
        .collect();
    let mut projected: Vec<ColumnData> = plan
        .projections
        .iter()
        .zip(&shown)
        .map(|(&c, &shown)| {
            let rows = if shown { total_matches } else { 0 };
            ColumnData::with_capacity(fm.schema.fields()[c].ty, rows)
        })
        .collect();
    // One state per aggregate; `COUNT(*)` needs none, it is the match
    // count.
    let mut folds: Vec<Option<PartialAgg>> = plan
        .aggregates
        .iter()
        .map(|s| {
            s.column
                .map(|c| PartialAgg::new(s.func, fm.schema.fields()[c].ty))
                .transpose()
        })
        .collect::<std::result::Result<_, _>>()?;
    let mut decisions = Vec::new();
    let mut proj_frontier: Vec<StepId> = vec![combine_step];
    let (phase, stage) = if agg_pushdown {
        (Phase::Aggregate, "aggregate_stage")
    } else {
        (Phase::Project, "projection_stage")
    };
    ctx.phase(phase);
    ctx.trace.enter(phase, stage);

    for (pos, &col_idx) in plan.projections.iter().enumerate() {
        let ty = fm.schema.fields()[col_idx].ty;
        for (rg, (filter, &matches)) in rg_bitmaps.iter().zip(&rg_matches).enumerate() {
            if matches == 0 {
                continue;
            }
            let cm = fm.chunk(rg, col_idx)?;
            let at = access(&mut ctx, rg, col_idx)?;
            publish(&ctx, &at);
            if shown[pos] {
                select_encoded(&at.view, filter, &mut projected[pos])?;
            }
            // With aggregate pushdown the node ships one partial per
            // aggregate over this column: a fixed-size scalar, or for a
            // string extreme the chunk's own extreme (sized only for a
            // recorded time plane).
            let (mut col_aggs, mut partial_bytes) = (0u64, 0u64);
            let rows = Selection::new(&at.view, filter);
            for (spec, fold) in plan.aggregates.iter().zip(&mut folds) {
                if let (Some(c), Some(fold)) = (spec.column, fold) {
                    if c == col_idx {
                        fold.fold(&rows)?;
                        col_aggs += 1;
                        if agg_pushdown {
                            let mut part = PartialAgg::new(spec.func, ty)?;
                            if ty == LogicalType::Utf8 && ctx.recording() {
                                part.fold(&rows)?;
                            }
                            partial_bytes += part.wire_bytes();
                        }
                    }
                }
            }
            // What the chunk's node would ship back, the CPU it spends
            // producing that, and the CPU the coordinator spends instead
            // once it holds the decoded chunk.
            let (out_bytes, node_cpu, coord_cpu) = if agg_pushdown {
                let m = matches as u64;
                (partial_bytes, cost.eval(m * col_aggs), cost.eval(m))
            } else if ctx.recording() {
                let out = selected_plain_size(&at.view, filter)?;
                (out, cost.project(out), cost.project(out))
            } else {
                (0, Nanos::ZERO, Nanos::ZERO)
            };

            // Cost Equation (paper §4.3): push down only when the
            // uncompressed projection result is smaller than the encoded
            // chunk. The coordinator knows the exact per-chunk match
            // count from the bitmap, so the product is computed with the
            // chunk's own selectivity. Pushdown needs the chunk whole and
            // its hosting node up; pushed aggregates then always go down.
            // With aggregate pushdown on, the decision reads "pushed" even
            // for a chunk the time plane fetches to the coordinator.
            let product = out_bytes as f64 / cm.len.max(1) as f64;
            let push = at.healthy && (agg_pushdown || !adaptive || product < 1.0);
            decisions.push(ProjectionDecision {
                row_group: rg,
                column: col_idx,
                cost_product: product,
                pushed_down: push || agg_pushdown,
            });

            // Time plane.
            if push {
                let node = at.frags[0].node;
                let (bm_raw, bm_wire) = bm_sizes.get(rg, filter);
                let start = ctx.retry(store.retry_penalty(node), &[combine_step]);
                // The coordinator compresses the bitmap before shipping it
                // down to the chunk's node.
                let comp = ctx.cpu(
                    Loc::Node(coord),
                    cost.compress_at(bm_raw, csp),
                    CostClass::Other,
                    &start,
                );
                let deps = ctx.transfer(Loc::Node(coord), Loc::Node(node), bm_wire, &[comp]);
                let work = node_work(&mut ctx, &at, cm, csp, node_cpu, deps);
                let back = ctx.transfer(Loc::Node(node), Loc::Node(coord), out_bytes, &[work]);
                proj_frontier.extend(back);
            } else {
                // Fetch the chunk in compressed form (rebuilding lost
                // fragments from their stripes); finish locally.
                let arrived = ctx.fetch_fragments(&at.frags, combine_step)?;
                let work = ctx.cpu(
                    Loc::Node(coord),
                    cost.decode_at(cm.plain_size, csp) + coord_cpu,
                    CostClass::Processing,
                    &arrived,
                );
                proj_frontier.push(work);
            }
        }
    }
    if ctx.trace.enabled() {
        ctx.trace
            .add_count(decisions.iter().filter(|d| d.pushed_down).count() as u64);
    }
    ctx.trace.exit(); // projection_stage or aggregate_stage

    // ---- Assemble and reply ----
    let mut columns = Vec::new();
    let mut aggregates = Vec::new();
    for (i, out) in plan.outputs.iter().enumerate() {
        match *out {
            OutputItem::Projection(pos) => {
                // Moved out at its last mention; a column selected twice
                // is cloned for the earlier ones.
                let col = if plan.outputs[i + 1..].contains(out) {
                    projected[pos].clone()
                } else {
                    std::mem::replace(&mut projected[pos], ColumnData::Int64(Vec::new()))
                };
                columns.push((plan.projection_names[pos].clone(), col));
            }
            OutputItem::Aggregate(ai) => {
                let spec = &plan.aggregates[ai];
                let value = match &folds[ai] {
                    Some(fold) => fold.finalize(),
                    None => Value::Int(total_matches as i64),
                };
                aggregates.push((agg_label(spec), value));
            }
        }
    }
    let result = QueryResult {
        row_count: total_matches,
        columns,
        aggregates,
    };
    ctx.phase(Phase::Other);
    Ok(ctx.reply(
        &proj_frontier,
        |reply| cost.project(reply),
        result,
        selectivity,
        decisions,
    ))
}

/// What the filter stage hands [`grouped_aggregate_stage`].
struct AggStageInputs<'a> {
    ctx: Ctx<'a>,
    combine_step: StepId,
    rg_bitmaps: &'a [Bitmap],
    bm_sizes: RowGroupBitmapSizes,
    selectivity: f64,
    total_matches: usize,
}

/// Completes a GROUP BY query by pushing keyed partial aggregation to
/// the chunk-hosting nodes (the tentpole extension over scalar aggregate
/// pushdown). With a single dictionary/RLE group key the nodes count
/// each dictionary code's selected rows (an RLE run at a time) and fold
/// arguments into per-code accumulators — no per-row hashing. The wire
/// carries per-node `(group_key, PartialAgg)` states instead of
/// projected rows.
///
/// Per row group, the key chunk's node evaluates the aggregates whose
/// argument is the key (or `COUNT(*)`); every other argument column's
/// node receives the tiny encoded key descriptor plus the filter bitmap
/// and reduces its own column. Degraded row groups — and multi-key or
/// pushdown-off queries — are modelled as fetching the touched chunks and
/// grouping at the coordinator. Both branches share one data plane
/// ([`group_views`]), so they differ only in the time-plane steps they
/// build.
fn grouped_aggregate_stage(plan: &QueryPlan, inputs: AggStageInputs<'_>) -> Result<QueryOutput> {
    use fusion_sql::partial::GroupKey;
    let AggStageInputs {
        mut ctx,
        combine_step,
        rg_bitmaps,
        mut bm_sizes,
        selectivity,
        total_matches,
    } = inputs;
    let (store, fm, coord, cost) = (ctx.store, ctx.fm, ctx.coord, ctx.cost);
    let csp = FAST_SNAPPY_SPEEDUP;
    let speedup = store.config().scan_speedup();
    ctx.phase(Phase::GroupedAggregate);
    ctx.trace
        .enter(Phase::GroupedAggregate, "grouped_aggregate_stage");

    // The encoded fast path handles exactly one group key; multi-key
    // grouping (and the pushdown-off ablation) groups decoded values at
    // the coordinator instead.
    let encoded_path = store.config().aggregate_pushdown && plan.group_by.len() == 1;

    // Distinct aggregate-argument columns that are not the group key, in
    // first-appearance order: each is reduced on its own hosting node.
    let mut arg_cols: Vec<usize> = Vec::new();
    for spec in &plan.aggregates {
        if let Some(c) = spec.column {
            if !plan.group_by.contains(&c) && !arg_cols.contains(&c) {
                arg_cols.push(c);
            }
        }
    }
    // Aggregate indices the key node itself serves: `COUNT(*)` and any
    // aggregate whose argument is a group-key column.
    let key_aggs: Vec<usize> = plan
        .aggregates
        .iter()
        .enumerate()
        .filter(|(_, s)| s.column.is_none() || s.column.is_some_and(|c| plan.group_by.contains(&c)))
        .map(|(ai, _)| ai)
        .collect();

    // Every chunk a row group's grouping reads: the keys, then the other
    // argument columns.
    let touched: Vec<usize> = plan.group_by.iter().chain(&arg_cols).copied().collect();

    let mut merged: Option<GroupedAggs> = None;
    let mut frontier: Vec<StepId> = vec![combine_step];
    let mut decisions = Vec::new();
    let mut groups_emitted = 0u64;
    let mut state_wire_total = 0u64;
    // Counterfactual: what projecting the matched rows of every touched
    // column would have shipped (average encoded-row width × matches).
    let mut row_ship_bytes = 0u64;

    for (rg, filter) in rg_bitmaps.iter().enumerate() {
        let matches = filter.count_ones();
        if matches == 0 {
            continue;
        }
        for &col_idx in &touched {
            let cm = fm.chunk(rg, col_idx)?;
            row_ship_bytes += cm.plain_size * matches as u64 / cm.value_count.max(1);
        }

        // Data plane, the same whichever branch models the row group:
        // read every touched chunk's view and group the matched rows.
        let views = touched
            .iter()
            .map(|&col_idx| {
                let at = access(&mut ctx, rg, col_idx)?;
                publish(&ctx, &at);
                Ok(at)
            })
            .collect::<Result<Vec<_>>>()?;
        let rg_grouped = group_views(plan, &touched, &views, filter)?;

        // Pushdown needs every touched chunk whole and its node up.
        if encoded_path && views.iter().all(|at| at.healthy) {
            // ---- Time plane: encoded-domain pushdown ----
            let key_cm = fm.chunk(rg, plan.group_by[0])?;
            let key = &views[0];
            let key_node = key.frags[0].node;

            // Per-node wire: every participating node returns the keys
            // plus the states of the aggregates it owns.
            let key_bytes: u64 = rg_grouped.groups.keys().map(GroupKey::wire_bytes).sum();
            let state_bytes_for = |agg_idxs: &[usize]| -> u64 {
                key_bytes
                    + rg_grouped
                        .groups
                        .values()
                        .map(|parts| {
                            agg_idxs
                                .iter()
                                .map(|&ai| parts[ai].wire_bytes())
                                .sum::<u64>()
                        })
                        .sum::<u64>()
            };

            // Bitmap down to the key node; descriptor + bitmap to each
            // argument node; only keyed states come back.
            let (bm_raw, bm_wire) = bm_sizes.get(rg, filter);
            let start = ctx.retry(store.retry_penalty(key_node), &[combine_step]);
            let comp = ctx.cpu(
                Loc::Node(coord),
                cost.compress_at(bm_raw, csp),
                CostClass::Other,
                &start,
            );
            let key_wire = state_bytes_for(&key_aggs);
            let key_cpu = cost.eval_at(matches as u64 * key_aggs.len().max(1) as u64, speedup)
                + cost.agg_state(key_wire);
            let key_deps = ctx.transfer(Loc::Node(coord), Loc::Node(key_node), bm_wire, &[comp]);
            let key_work = node_work(&mut ctx, key, key_cm, speedup * csp, key_cpu, key_deps);
            frontier.extend(ctx.transfer(
                Loc::Node(key_node),
                Loc::Node(coord),
                key_wire,
                &[key_work],
            ));
            state_wire_total += key_wire;
            decisions.push(ProjectionDecision {
                row_group: rg,
                column: plan.group_by[0],
                cost_product: key_wire as f64 / key_cm.len.max(1) as f64,
                pushed_down: true,
            });

            for (&col_idx, arg) in arg_cols.iter().zip(&views[1..]) {
                let cm = fm.chunk(rg, col_idx)?;
                let node = arg.frags[0].node;
                let aggs: Vec<usize> = plan
                    .aggregates
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.column == Some(col_idx))
                    .map(|(ai, _)| ai)
                    .collect();
                let wire = state_bytes_for(&aggs);
                let mut deps: Vec<StepId> = Vec::new();
                if node == key_node {
                    // Same node already holds the parsed key chunk.
                    deps.push(key_work);
                } else {
                    // Bitmap from the coordinator, encoded key descriptor
                    // from the key node (tiny: the dictionary + runs).
                    deps.extend(ctx.transfer(Loc::Node(coord), Loc::Node(node), bm_wire, &[comp]));
                    deps.extend(ctx.transfer(
                        Loc::Node(key_node),
                        Loc::Node(node),
                        key_cm.len,
                        &[key_work],
                    ));
                }
                let deps = ctx.retry(store.retry_penalty(node), &deps);
                let arg_cpu = cost.eval_at(matches as u64 * aggs.len() as u64, speedup)
                    + cost.agg_state(wire);
                let work = node_work(&mut ctx, arg, cm, csp, arg_cpu, deps);
                frontier.extend(ctx.transfer(Loc::Node(node), Loc::Node(coord), wire, &[work]));
                state_wire_total += wire;
                decisions.push(ProjectionDecision {
                    row_group: rg,
                    column: col_idx,
                    cost_product: wire as f64 / cm.len.max(1) as f64,
                    pushed_down: true,
                });
            }
        } else {
            // ---- Time plane: coordinator fallback ----
            // Fetch every touched chunk (rebuilding lost fragments from
            // their stripes) and group at the coordinator.
            let mut arrived: Vec<StepId> = Vec::new();
            let mut decode_cost = Nanos::ZERO;
            for (&col_idx, at) in touched.iter().zip(&views) {
                let cm = fm.chunk(rg, col_idx)?;
                arrived.extend(ctx.fetch_fragments(&at.frags, combine_step)?);
                decode_cost += cost.decode_at(cm.plain_size, csp) + cost.eval(cm.value_count);
            }
            frontier.push(ctx.cpu(
                Loc::Node(coord),
                decode_cost + cost.agg_state(rg_grouped.wire_bytes()),
                CostClass::Processing,
                &arrived,
            ));
        }

        groups_emitted += rg_grouped.len() as u64;
        // Merge in row-group order: keyed float states accumulate in a
        // fixed association order, so re-running the query is bit-stable.
        match &mut merged {
            Some(m) => m.merge(&rg_grouped).map_err(StoreError::from)?,
            slot => *slot = Some(rg_grouped),
        }
    }

    let grouped = merged.unwrap_or_else(|| GroupedAggs::new(Vec::new()));
    let counters = store.grouped_counters();
    counters.groups_emitted.add(groups_emitted);
    counters
        .wire_bytes_saved
        .add(row_ship_bytes.saturating_sub(state_wire_total));
    if ctx.trace.enabled() {
        ctx.trace.add_count(groups_emitted);
        ctx.trace.add_bytes(state_wire_total);
    }
    ctx.trace.exit(); // grouped_aggregate_stage

    let result = super::assemble_grouped_result(plan, &fm.schema, grouped, total_matches)?;
    ctx.phase(Phase::Other);
    // The coordinator merges per-node keyed states, then replies.
    Ok(ctx.reply(
        &frontier,
        |reply| cost.agg_state(state_wire_total) + cost.project(reply),
        result,
        selectivity,
        decisions,
    ))
}

/// Groups one row group's matched rows from the views of its `touched`
/// chunks (the group keys, then the other argument columns, as the
/// grouped stage reads them). A single key groups in the encoded domain:
/// its codes index the accumulators and its RLE runs fold whole, and
/// each argument column is handed over as its view, from which the
/// kernel counts (key code, argument code) pairs or gathers the selected
/// rows ([`AggInput::View`]). Several keys group decoded values with the
/// row-at-a-time oracle.
///
/// [`AggInput::View`]: fusion_sql::eval::AggInput::View
fn group_views(
    plan: &QueryPlan,
    touched: &[usize],
    views: &[Access],
    filter: &Bitmap,
) -> Result<GroupedAggs> {
    use fusion_sql::eval::{group_aggregate_decoded, group_aggregate_encoded, AggInput};
    let position = |c: usize| {
        touched
            .iter()
            .position(|&t| t == c)
            .expect("touched column read")
    };
    let grouped = if let [key] = plan.group_by[..] {
        let inputs: Vec<_> = plan
            .aggregates
            .iter()
            .map(|s| {
                let input = match s.column {
                    None => AggInput::Star,
                    Some(c) if c == key => AggInput::Key,
                    Some(c) => AggInput::View(&views[position(c)].view),
                };
                (s.func, input)
            })
            .collect();
        group_aggregate_encoded(&views[0].view, &inputs, filter)
    } else {
        let decoded: Vec<ColumnData> = views
            .iter()
            .map(|at| at.view.decode())
            .collect::<std::result::Result<_, _>>()?;
        let col = |c: usize| &decoded[position(c)];
        let keys: Vec<&ColumnData> = plan.group_by.iter().map(|&c| col(c)).collect();
        let aggs: Vec<_> = plan
            .aggregates
            .iter()
            .map(|s| (s.func, s.column.map(col)))
            .collect();
        group_aggregate_decoded(&keys, &aggs, filter)
    };
    grouped.map_err(StoreError::from)
}
