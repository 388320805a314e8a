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
//! skipped entirely. The independent per-chunk scans fan out across the
//! store's worker pool with the same serial-assemble / parallel-compute /
//! serial-apply discipline as Put and scrub.
//!
//! **Projection stage** — the coordinator, now knowing the exact
//! selectivity, applies the Cost Equation per chunk:
//! `selectivity × compressibility < 1` → push the projection down (the
//! node sends only the selected values, uncompressed); otherwise fetch the
//! compressed chunk and project locally at the coordinator.
//!
//! Wherever the time plane places that work, the data plane computes
//! every answer from the encoded chunk views it already holds: projected
//! rows are gathered straight from dictionary codes and RLE runs into one
//! output column, ungrouped aggregates fold from the views without
//! materializing their argument, and GROUP BY runs the encoded grouping
//! kernel.

use super::{
    agg_label, degraded_fragment_fetch, result_wire_bytes, row_group_may_match, Ctx, Loc,
    ProjectionDecision, QueryOutput, QueryResult,
};
use crate::error::{Result, StoreError};
use crate::store::Store;
use fusion_cluster::engine::{CostClass, StepId};
use fusion_format::chunk::{read_encoded_chunk, EncodedChunk};
use fusion_format::schema::LogicalType;
use fusion_format::value::ColumnData;
use fusion_obs::trace::Phase;
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{
    combine, eval_aggregate, eval_filter, eval_filter_encoded, select_encoded, selected_plain_size,
    stats_all_match, stats_may_match, AggFold,
};
use fusion_sql::partial::GroupedAggs;
use fusion_sql::plan::{BoolTree, FilterLeaf, OutputItem, QueryPlan};
use std::sync::Arc;

/// Serialized and Snappy-compressed sizes of a bitmap, `(raw, wire)`.
fn bitmap_sizes(bm: &Bitmap) -> (u64, u64) {
    let raw = bm.to_bytes();
    (raw.len() as u64, fusion_snappy::compress(&raw).len() as u64)
}

/// The `(raw, wire)` sizes of each row group's final bitmap. The time
/// plane ships that bitmap to every node that projects or aggregates the
/// row group, but the bytes never travel for real: each distinct bitmap
/// is compressed once per query, only to be sized.
struct RowGroupBitmapSizes(Vec<Option<(u64, u64)>>);

impl RowGroupBitmapSizes {
    fn get(&mut self, rg: usize, bm: &Bitmap) -> (u64, u64) {
        *self.0[rg].get_or_insert_with(|| bitmap_sizes(bm))
    }
}

/// Reads one chunk's encoded view for the data plane and counts the
/// access. A `healthy` chunk (whole, on a live node) is served through
/// its node's chunk cache; any other is parsed from bytes the coordinator
/// reassembles, rebuilding lost fragments from their stripes — a one-off
/// view that bypasses the cache but still reads the data plane, so it
/// counts as a miss. Returns the view and whether it hit.
fn chunk_view(
    store: &Store,
    object: &str,
    ordinal: usize,
    ty: LogicalType,
    healthy: bool,
    hits: &mut usize,
    misses: &mut usize,
) -> Result<(Arc<EncodedChunk>, bool)> {
    let (chunk, hit) = if healthy {
        store.encoded_chunk(object, ordinal, ty)?
    } else {
        let bytes = store.chunk_bytes(object, ordinal)?;
        (Arc::new(read_encoded_chunk(&bytes, ty)?), false)
    };
    if hit {
        *hits += 1;
    } else {
        *misses += 1;
    }
    Ok((chunk, hit))
}

/// One healthy chunk's filter-scan work unit: assembled serially, scanned
/// on a pool worker, applied serially. Everything the worker needs lives
/// inside the job — no shared mutable state on the hot path.
struct ScanTask {
    rg: usize,
    leaf_idx: usize,
    ordinal: usize,
    node: usize,
    ty: LogicalType,
    cm_len: u64,
    cm_plain: u64,
    cm_count: u64,
    /// Cache hit: the resident view (raw bytes stay empty).
    cached: Option<Arc<EncodedChunk>>,
    /// Cache miss: the chunk bytes read from the data plane.
    raw: Vec<u8>,
    out: Option<Result<(Arc<EncodedChunk>, Bitmap)>>,
}

/// Phase-2 worker body: parse the chunk on a miss, then scan it with the
/// encoded-domain kernels (or the decode-then-filter ablation).
fn scan_one(t: &ScanTask, leaf: &FilterLeaf, encoded: bool) -> Result<(Arc<EncodedChunk>, Bitmap)> {
    let chunk = match &t.cached {
        Some(c) => c.clone(),
        None => Arc::new(read_encoded_chunk(&t.raw, t.ty)?),
    };
    let bm = if encoded {
        eval_filter_encoded(leaf, &chunk)?
    } else {
        eval_filter(leaf, &chunk.decode()?)?
    };
    Ok((chunk, bm))
}

/// Executes `plan` with pushdown. `adaptive == false` pushes every
/// projection down unconditionally (the paper's always-on ablation).
pub fn execute(
    store: &Store,
    object: &str,
    plan: &QueryPlan,
    adaptive: bool,
) -> Result<QueryOutput> {
    let meta = store.object(object)?;
    let fm = meta
        .file_meta
        .as_ref()
        .ok_or_else(|| StoreError::NotAnalytics(object.to_string()))?;
    let coord = store.coordinator_of(object)?;
    let cost = &store.config().cluster.cost;
    let mut ctx = Ctx::new(cost, store.config().observability);
    let mut pruned = 0usize;
    let mut considered = 0usize;

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
    let encoded = store.config().encoded_scan;
    let speedup = store.config().scan_speedup();
    // Compression-kernel plane: scales the Snappy share of decode
    // (page decompression) and the bitmap compression before shipping.
    let csp = store.config().compression_speedup();
    let mut filter_frontier: Vec<StepId> = vec![plan_step];
    let mut bitmap_wire_total = 0u64;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut shard_read_bytes = 0u64;
    // Every CPU eval built in the filter stage is filter-phase work on
    // the virtual clock (reads, transfers, retries, and degraded
    // rebuilds tag themselves).
    ctx.phase(Phase::Filter);
    ctx.trace.enter(Phase::Filter, "filter_stage");
    // Chunks already read + decoded on their node during the filter
    // stage. The projection stage reuses them instead of re-reading, which
    // is what makes Fusion's disk/processing time match the baseline's
    // (paper Fig. 13c: "both systems spend approximately the same amount
    // of time on disk read and chunk processing").
    let mut decoded_on: std::collections::HashMap<usize, (usize, StepId)> =
        std::collections::HashMap::new();

    // Phase 1 (serial): prune with stats, resolve cache hits, read raw
    // bytes for misses. Healthy chunks become pool jobs; degraded chunks
    // (split or with lost fragments) stay serial because their data-plane
    // reads rebuild from stripes through `&Store`.
    let mut leaf_acc: Vec<Vec<Option<Bitmap>>> = (0..num_rgs)
        .map(|_| (0..plan.filters.len()).map(|_| None).collect())
        .collect();
    // When the whole predicate is one leaf, a row group's final bitmap is
    // that leaf's bitmap: keep the sizes the scan already measured.
    let is_root = |li: usize| matches!(plan.tree, Some(BoolTree::Leaf(id)) if id == li);
    let mut bm_sizes = RowGroupBitmapSizes(vec![None; num_rgs]);
    let mut tasks: Vec<ScanTask> = Vec::new();
    // `rg` also indexes the footer metadata, not just `leaf_acc`.
    #[allow(clippy::needless_range_loop)]
    for rg in 0..num_rgs {
        let rows = fm.row_groups[rg].row_count as usize;
        let rg_alive = row_group_may_match(plan.tree.as_ref(), &plan.filters, &fm.row_groups[rg]);
        for (li, leaf) in plan.filters.iter().enumerate() {
            let cm = fm.chunk(rg, leaf.column)?;
            considered += 1;
            if !rg_alive || !stats_may_match(leaf, cm.min.as_ref(), cm.max.as_ref()) {
                pruned += 1;
                leaf_acc[rg][li] = Some(Bitmap::with_len(rows));
                continue;
            }
            if stats_all_match(leaf, cm.min.as_ref(), cm.max.as_ref()) {
                // Stats prove every row matches: no read, no scan, no
                // dispatch — the bitmap is known from the footer alone,
                // so this counts as a stats-pruned chunk (skipped), not
                // a cache access.
                pruned += 1;
                leaf_acc[rg][li] = Some(Bitmap::ones_with_len(rows));
                continue;
            }
            let ty = fm.schema.fields()[leaf.column].ty;
            let ordinal = meta
                .chunk_ordinal(rg, leaf.column)
                .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
            let frags = meta.chunk_fragments(ordinal);
            let healthy =
                frags.len() == 1 && store.blocks().has_block(frags[0].node, frags[0].block);
            if healthy {
                let (cached, raw) = match store.chunk_cache().get(object, ordinal) {
                    Some(c) => {
                        cache_hits += 1;
                        (Some(c), Vec::new())
                    }
                    None => {
                        cache_misses += 1;
                        let raw = store.chunk_bytes(object, ordinal)?;
                        shard_read_bytes += raw.len() as u64;
                        (None, raw)
                    }
                };
                tasks.push(ScanTask {
                    rg,
                    leaf_idx: li,
                    ordinal,
                    node: frags[0].node,
                    ty,
                    cm_len: cm.len,
                    cm_plain: cm.plain_size,
                    cm_count: cm.value_count,
                    cached,
                    raw,
                    out: None,
                });
            } else {
                // Split chunk (FAC fell back to fixed blocks) or lost
                // fragments: reassemble at the coordinator — rebuilding
                // lost fragments from their stripes — evaluate there.
                // The coordinator runs the same scan kernels but its
                // one-off reassembled view never enters the node cache;
                // it still reads the data plane, so it counts as a miss
                // (keeping the hits + misses + pruned == considered
                // invariant in degraded mode).
                cache_misses += 1;
                let chunk_bytes = store.chunk_bytes(object, ordinal)?;
                shard_read_bytes += chunk_bytes.len() as u64;
                let view = read_encoded_chunk(&chunk_bytes, ty)?;
                let bm = if encoded {
                    eval_filter_encoded(leaf, &view)?
                } else {
                    eval_filter(leaf, &view.decode()?)?
                };
                let (bm_raw, bm_wire) = bitmap_sizes(&bm);
                bitmap_wire_total += bm_wire;
                if is_root(li) {
                    bm_sizes.0[rg] = Some((bm_raw, bm_wire));
                }
                let mut arrived = Vec::new();
                for f in &frags {
                    if store.blocks().has_block(f.node, f.block) {
                        let req = ctx.rpc(Loc::Node(coord), Loc::Node(f.node), &[plan_step]);
                        let req = ctx.retry(store.retry_penalty(f.node), &req);
                        let read = ctx.disk(f.node, f.len, &req);
                        arrived.extend(ctx.transfer(
                            Loc::Node(f.node),
                            Loc::Node(coord),
                            f.len,
                            &[read],
                        ));
                    } else {
                        arrived.push(degraded_fragment_fetch(
                            store,
                            meta,
                            &mut ctx,
                            coord,
                            f,
                            &[plan_step],
                        )?);
                    }
                }
                let eval = ctx.cpu(
                    Loc::Node(coord),
                    cost.decode_at(cm.plain_size, speedup * csp)
                        + cost.eval_at(cm.value_count, speedup)
                        + cost.compress_at(bm_raw, csp),
                    CostClass::Processing,
                    &arrived,
                );
                filter_frontier.push(eval);
                leaf_acc[rg][li] = Some(bm);
            }
        }
    }

    // Phase 2 (parallel): parse + scan every healthy chunk across the
    // worker pool. Pure CPU over job-owned buffers (and shared read-only
    // cached views), same discipline as Put and scrub.
    {
        let filters = &plan.filters;
        store.pool().for_each_mut(&mut tasks, |_, t| {
            let r = scan_one(t, &filters[t.leaf_idx], encoded);
            t.out = Some(r);
        });
    }

    // Phase 3 (serial, original dispatch order): populate the cache,
    // model each in-situ scan on the virtual clock, assemble bitmaps.
    for t in tasks {
        let hit = t.cached.is_some();
        let (chunk, bm) = t.out.expect("scanned in phase 2")?;
        if !hit {
            store.chunk_cache().insert(object, t.ordinal, chunk);
        }
        let (bm_raw, bm_wire) = bitmap_sizes(&bm);
        bitmap_wire_total += bm_wire;
        if is_root(t.leaf_idx) {
            bm_sizes.0[t.rg] = Some((bm_raw, bm_wire));
        }
        // The node compresses its result bitmap before shipping it back.
        let bm_compress = cost.compress_at(bm_raw, csp);

        // Time plane: dispatch the sub-query; a cache hit skips the disk
        // read and the parse and goes straight to the masked scan.
        let req = ctx.rpc(Loc::Node(coord), Loc::Node(t.node), &[plan_step]);
        let req = ctx.retry(store.retry_penalty(t.node), &req);
        let eval = if hit {
            ctx.cpu(
                Loc::Node(t.node),
                cost.eval_at(t.cm_count, speedup) + bm_compress,
                CostClass::Processing,
                &req,
            )
        } else {
            let read = ctx.disk(t.node, t.cm_len, &req);
            ctx.cpu(
                Loc::Node(t.node),
                cost.decode_at(t.cm_plain, speedup * csp)
                    + cost.eval_at(t.cm_count, speedup)
                    + bm_compress,
                CostClass::Processing,
                &[read],
            )
        };
        let back = ctx.transfer(Loc::Node(t.node), Loc::Node(coord), bm_wire, &[eval]);
        filter_frontier.extend(back);
        decoded_on.insert(t.ordinal, (t.node, eval));
        leaf_acc[t.rg][t.leaf_idx] = Some(bm);
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
        ctx.trace.add_count(pruned as u64);
        ctx.trace.exit();
        ctx.trace.enter(Phase::CacheLookup, "cache_lookup");
        ctx.trace.add_count((cache_hits + cache_misses) as u64);
        ctx.trace.exit();
        ctx.trace.enter(Phase::ShardRead, "shard_read");
        ctx.trace.add_count(cache_misses as u64);
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
            bm_sizes.0[rg] = None;
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
    // ---- Aggregate pushdown (extension; paper future work) ----
    // For aggregate-only queries the nodes can compute partial aggregates
    // over their matched rows and ship back a handful of bytes instead of
    // the selected values.
    let agg_pushdown = store.config().aggregate_pushdown
        && plan.aggregate_only()
        && !plan.aggregates.is_empty()
        && total_matches > 0;
    if plan.grouped() || agg_pushdown {
        let inputs = AggStageInputs {
            fm,
            meta,
            coord,
            ctx,
            combine_step,
            rg_bitmaps: &rg_bitmaps,
            bm_sizes,
            decoded_on: &decoded_on,
            selectivity,
            total_matches,
            pruned,
            cache_hits,
            cache_misses,
            considered,
        };
        return if plan.grouped() {
            grouped_aggregate_stage(store, object, plan, inputs)
        } else {
            aggregate_pushdown_stage(store, object, plan, inputs)
        };
    }

    // ---- Projection stage ----
    // Data plane: every column the result shows gathers its matched rows
    // straight from the encoded views into one output column, and every
    // aggregate folds from the same views without materializing its
    // argument column. The time plane still models the paper's plan:
    // ship the selected values, aggregate at the coordinator.
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
    let mut folds: Vec<Option<AggFold>> = plan
        .aggregates
        .iter()
        .map(|s| {
            s.column
                .map(|c| AggFold::new(s.func, fm.schema.fields()[c].ty))
        })
        .collect();
    let mut decisions = Vec::new();
    let mut proj_frontier: Vec<StepId> = vec![combine_step];
    ctx.phase(Phase::Project);
    ctx.trace.enter(Phase::Project, "projection_stage");

    for (pos, &col_idx) in plan.projections.iter().enumerate() {
        let ty = fm.schema.fields()[col_idx].ty;
        for (rg, (filter, &matches)) in rg_bitmaps.iter().zip(&rg_matches).enumerate() {
            if matches == 0 {
                continue;
            }
            let cm = fm.chunk(rg, col_idx)?;
            let ordinal = meta
                .chunk_ordinal(rg, col_idx)
                .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
            let frags = meta.chunk_fragments(ordinal);
            considered += 1;
            // Pushdown needs the chunk whole and its hosting node up.
            let healthy =
                frags.len() == 1 && store.blocks().has_block(frags[0].node, frags[0].block);

            let (chunk, hit) = chunk_view(
                store,
                object,
                ordinal,
                ty,
                healthy,
                &mut cache_hits,
                &mut cache_misses,
            )?;
            if shown[pos] {
                select_encoded(&chunk, filter, &mut projected[pos])?;
            }
            for (spec, fold) in plan.aggregates.iter().zip(&mut folds) {
                match (spec.column, fold) {
                    (Some(c), Some(fold)) if c == col_idx => fold.fold(&chunk, filter)?,
                    _ => {}
                }
            }
            let out_bytes = selected_plain_size(&chunk, filter)?;

            // Cost Equation (paper §4.3): push down only when the
            // uncompressed projection result is smaller than the encoded
            // chunk. The coordinator knows the exact per-chunk match
            // count from the bitmap, so the product is computed with the
            // chunk's own selectivity.
            let product = out_bytes as f64 / cm.len.max(1) as f64;
            let push = (!adaptive || product < 1.0) && healthy;
            decisions.push(ProjectionDecision {
                row_group: rg,
                column: col_idx,
                cost_product: product,
                pushed_down: push,
            });

            // Time plane.
            if push {
                let node = frags[0].node;
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
                let mut deps = ctx.transfer(Loc::Node(coord), Loc::Node(node), bm_wire, &[comp]);
                let work = match decoded_on.get(&ordinal) {
                    // The filter stage already read and decoded this chunk
                    // on this node: only the selection remains (paper
                    // Fig. 13c shows both systems spending the same time on
                    // disk read and chunk processing).
                    Some(&(n, eval_step)) if n == node => {
                        deps.push(eval_step);
                        ctx.cpu(
                            Loc::Node(node),
                            cost.project(out_bytes),
                            CostClass::Processing,
                            &deps,
                        )
                    }
                    // The node's cache holds the parsed view: skip the
                    // disk read and full decode, gather straight from it.
                    _ if hit => ctx.cpu(
                        Loc::Node(node),
                        cost.project(out_bytes),
                        CostClass::Processing,
                        &deps,
                    ),
                    _ => {
                        let read = ctx.disk(node, cm.len, &deps);
                        ctx.cpu(
                            Loc::Node(node),
                            cost.decode_at(cm.plain_size, csp) + cost.project(out_bytes),
                            CostClass::Processing,
                            &[read],
                        )
                    }
                };
                let back = ctx.transfer(Loc::Node(node), Loc::Node(coord), out_bytes, &[work]);
                proj_frontier.extend(back);
            } else {
                // Fetch the chunk in compressed form (rebuilding lost
                // fragments from their stripes); project locally.
                let mut arrived = Vec::new();
                for f in &frags {
                    if store.blocks().has_block(f.node, f.block) {
                        let req = ctx.rpc(Loc::Node(coord), Loc::Node(f.node), &[combine_step]);
                        let req = ctx.retry(store.retry_penalty(f.node), &req);
                        let read = ctx.disk(f.node, f.len, &req);
                        arrived.extend(ctx.transfer(
                            Loc::Node(f.node),
                            Loc::Node(coord),
                            f.len,
                            &[read],
                        ));
                    } else {
                        arrived.push(degraded_fragment_fetch(
                            store,
                            meta,
                            &mut ctx,
                            coord,
                            f,
                            &[combine_step],
                        )?);
                    }
                }
                let work = ctx.cpu(
                    Loc::Node(coord),
                    cost.decode_at(cm.plain_size, csp) + cost.project(out_bytes),
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
    ctx.trace.exit(); // projection_stage

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
                let value = match folds[ai].take() {
                    Some(fold) => fold.finish()?,
                    // COUNT(*) needs no column.
                    None => eval_aggregate(spec, total_matches, None)?,
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
    let reply_bytes = result_wire_bytes(&result);
    ctx.phase(Phase::Other);
    let assemble = ctx.cpu(
        Loc::Node(coord),
        cost.project(reply_bytes),
        CostClass::Other,
        &proj_frontier,
    );
    ctx.transfer(Loc::Node(coord), Loc::Client, reply_bytes, &[assemble]);

    debug_assert_eq!(
        pruned + cache_hits + cache_misses,
        considered,
        "chunk accounting must conserve"
    );
    Ok(QueryOutput {
        result,
        selectivity,
        workflow: ctx.wf,
        net_bytes: ctx.net_bytes,
        decisions,
        pruned_chunks: pruned,
        cache_hits,
        cache_misses,
        chunks_considered: considered,
        trace: ctx.trace,
    })
}

/// Bundled borrow context for [`aggregate_pushdown_stage`].
struct AggStageInputs<'a> {
    fm: &'a fusion_format::footer::FileMeta,
    meta: &'a crate::object::ObjectMeta,
    coord: usize,
    ctx: Ctx<'a>,
    combine_step: StepId,
    rg_bitmaps: &'a [Bitmap],
    bm_sizes: RowGroupBitmapSizes,
    decoded_on: &'a std::collections::HashMap<usize, (usize, StepId)>,
    selectivity: f64,
    total_matches: usize,
    pruned: usize,
    cache_hits: usize,
    cache_misses: usize,
    considered: usize,
}

/// Completes an aggregate-only query by pushing partial-aggregate
/// computation to the chunk-hosting nodes (extension: the paper's §5
/// future work). Each node visit serves every aggregate over that column;
/// only tagged scalars return.
fn aggregate_pushdown_stage(
    store: &Store,
    object: &str,
    plan: &QueryPlan,
    inputs: AggStageInputs<'_>,
) -> Result<QueryOutput> {
    use fusion_sql::partial::PartialAgg;
    let AggStageInputs {
        fm,
        meta,
        coord,
        mut ctx,
        combine_step,
        rg_bitmaps,
        mut bm_sizes,
        decoded_on,
        selectivity,
        total_matches,
        pruned,
        mut cache_hits,
        mut cache_misses,
        mut considered,
    } = inputs;
    let cost = store.config().cluster.cost.clone();
    let csp = store.config().compression_speedup();
    let num_rgs = fm.row_groups.len();
    ctx.phase(Phase::Aggregate);
    ctx.trace.enter(Phase::Aggregate, "aggregate_stage");

    // Group aggregate specs by their argument column.
    let mut by_col: Vec<(usize, Vec<usize>)> = Vec::new();
    for (ai, spec) in plan.aggregates.iter().enumerate() {
        if let Some(col) = spec.column {
            match by_col.iter_mut().find(|(c, _)| *c == col) {
                Some((_, v)) => v.push(ai),
                None => by_col.push((col, vec![ai])),
            }
        }
    }

    let mut acc: Vec<Option<PartialAgg>> = vec![None; plan.aggregates.len()];
    let mut frontier: Vec<StepId> = vec![combine_step];
    let mut decisions = Vec::new();

    for (col_idx, agg_idxs) in &by_col {
        let ty = fm.schema.fields()[*col_idx].ty;
        // `rg` also indexes the footer metadata, not just the bitmaps.
        #[allow(clippy::needless_range_loop)]
        for rg in 0..num_rgs {
            let matches: Vec<usize> = rg_bitmaps[rg].ones().collect();
            if matches.is_empty() {
                continue;
            }
            let cm = fm.chunk(rg, *col_idx)?;
            let ordinal = meta
                .chunk_ordinal(rg, *col_idx)
                .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
            let frags = meta.chunk_fragments(ordinal);
            considered += 1;
            let healthy =
                frags.len() == 1 && store.blocks().has_block(frags[0].node, frags[0].block);

            // Data plane: decode once, compute every partial.
            let (chunk, hit) = chunk_view(
                store,
                object,
                ordinal,
                ty,
                healthy,
                &mut cache_hits,
                &mut cache_misses,
            )?;
            let part = chunk.decode()?.take(&matches);
            let mut wire = 0u64;
            for &ai in agg_idxs {
                let p = PartialAgg::compute(plan.aggregates[ai].func, &part)?;
                wire += p.wire_bytes();
                match &mut acc[ai] {
                    Some(a) => a.merge(&p)?,
                    slot => *slot = Some(p),
                }
            }
            decisions.push(ProjectionDecision {
                row_group: rg,
                column: *col_idx,
                cost_product: wire as f64 / cm.len.max(1) as f64,
                pushed_down: true,
            });

            // Time plane: bitmap down, partial scalars back. Pushdown
            // needs the chunk whole and its hosting node up.
            if healthy {
                let node = frags[0].node;
                let (bm_raw, bm_wire) = bm_sizes.get(rg, &rg_bitmaps[rg]);
                let start = ctx.retry(store.retry_penalty(node), &[combine_step]);
                // The coordinator compresses the bitmap before shipping it
                // down to the chunk's node.
                let comp = ctx.cpu(
                    Loc::Node(coord),
                    cost.compress_at(bm_raw, csp),
                    CostClass::Other,
                    &start,
                );
                let mut deps = ctx.transfer(Loc::Node(coord), Loc::Node(node), bm_wire, &[comp]);
                let work = match decoded_on.get(&ordinal) {
                    Some(&(n, eval_step)) if n == node => {
                        deps.push(eval_step);
                        ctx.cpu(
                            Loc::Node(node),
                            cost.eval(matches.len() as u64 * agg_idxs.len() as u64),
                            CostClass::Processing,
                            &deps,
                        )
                    }
                    // Parsed view resident in the node cache: aggregate
                    // straight from it, no disk read or full decode.
                    _ if hit => ctx.cpu(
                        Loc::Node(node),
                        cost.eval(matches.len() as u64 * agg_idxs.len() as u64),
                        CostClass::Processing,
                        &deps,
                    ),
                    _ => {
                        let read = ctx.disk(node, cm.len, &deps);
                        ctx.cpu(
                            Loc::Node(node),
                            cost.decode_at(cm.plain_size, csp)
                                + cost.eval(matches.len() as u64 * agg_idxs.len() as u64),
                            CostClass::Processing,
                            &[read],
                        )
                    }
                };
                frontier.extend(ctx.transfer(Loc::Node(node), Loc::Node(coord), wire, &[work]));
            } else {
                // Split chunk or lost fragments: fetch (or rebuild)
                // fragments and aggregate locally.
                let mut arrived = Vec::new();
                for f in &frags {
                    if store.blocks().has_block(f.node, f.block) {
                        let req = ctx.rpc(Loc::Node(coord), Loc::Node(f.node), &[combine_step]);
                        let req = ctx.retry(store.retry_penalty(f.node), &req);
                        let read = ctx.disk(f.node, f.len, &req);
                        arrived.extend(ctx.transfer(
                            Loc::Node(f.node),
                            Loc::Node(coord),
                            f.len,
                            &[read],
                        ));
                    } else {
                        arrived.push(degraded_fragment_fetch(
                            store,
                            meta,
                            &mut ctx,
                            coord,
                            f,
                            &[combine_step],
                        )?);
                    }
                }
                frontier.push(ctx.cpu(
                    Loc::Node(coord),
                    cost.decode_at(cm.plain_size, csp) + cost.eval(matches.len() as u64),
                    CostClass::Processing,
                    &arrived,
                ));
            }
        }
    }

    // Finalize in output order.
    let mut aggregates = Vec::with_capacity(plan.aggregates.len());
    for (ai, spec) in plan.aggregates.iter().enumerate() {
        let value = match (&acc[ai], spec.column) {
            (_, None) => fusion_format::value::Value::Int(total_matches as i64),
            (Some(p), _) => p.finalize(),
            (None, Some(_)) => PartialAgg::identity(spec.func, None).finalize(),
        };
        aggregates.push((agg_label(spec), value));
    }
    let result = QueryResult {
        row_count: total_matches,
        columns: Vec::new(),
        aggregates,
    };

    if ctx.trace.enabled() {
        ctx.trace.add_count(decisions.len() as u64);
    }
    ctx.trace.exit(); // aggregate_stage

    let reply_bytes = result_wire_bytes(&result);
    ctx.phase(Phase::Other);
    let assemble = ctx.cpu(
        Loc::Node(coord),
        cost.project(reply_bytes),
        CostClass::Other,
        &frontier,
    );
    ctx.transfer(Loc::Node(coord), Loc::Client, reply_bytes, &[assemble]);

    debug_assert_eq!(
        pruned + cache_hits + cache_misses,
        considered,
        "chunk accounting must conserve"
    );
    Ok(QueryOutput {
        result,
        selectivity,
        workflow: ctx.wf,
        net_bytes: ctx.net_bytes,
        decisions,
        pruned_chunks: pruned,
        cache_hits,
        cache_misses,
        chunks_considered: considered,
        trace: ctx.trace,
    })
}

/// Completes a GROUP BY query by pushing keyed partial aggregation to
/// the chunk-hosting nodes (the tentpole extension over scalar aggregate
/// pushdown). With a single dictionary/RLE group key the nodes accumulate
/// one slot vector per dictionary code — no per-row hashing — and RLE
/// runs fold whole spans at a time. The wire carries per-node
/// `(group_key, PartialAgg)` states instead of projected rows.
///
/// Per row group, the key chunk's node evaluates the aggregates whose
/// argument is the key (or `COUNT(*)`); every other argument column's
/// node receives the tiny encoded key descriptor plus the filter bitmap
/// and reduces its own column. Degraded row groups — and multi-key or
/// pushdown-off queries — are modelled as fetching the touched chunks and
/// grouping at the coordinator. Both branches share one data plane
/// ([`group_views`]), so they differ only in the time-plane steps they
/// build.
fn grouped_aggregate_stage(
    store: &Store,
    object: &str,
    plan: &QueryPlan,
    inputs: AggStageInputs<'_>,
) -> Result<QueryOutput> {
    use fusion_sql::partial::GroupKey;
    let AggStageInputs {
        fm,
        meta,
        coord,
        mut ctx,
        combine_step,
        rg_bitmaps,
        mut bm_sizes,
        decoded_on,
        selectivity,
        total_matches,
        pruned,
        mut cache_hits,
        mut cache_misses,
        mut considered,
    } = inputs;
    let cost = store.config().cluster.cost.clone();
    let csp = store.config().compression_speedup();
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
        let mut views = Vec::with_capacity(touched.len());
        // Pushdown needs every touched chunk whole and its node up.
        let mut healthy = encoded_path;
        for &col_idx in &touched {
            let ordinal = meta
                .chunk_ordinal(rg, col_idx)
                .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
            let frags = meta.chunk_fragments(ordinal);
            considered += 1;
            let whole = frags.len() == 1 && store.blocks().has_block(frags[0].node, frags[0].block);
            healthy &= whole;
            views.push(chunk_view(
                store,
                object,
                ordinal,
                fm.schema.fields()[col_idx].ty,
                whole,
                &mut cache_hits,
                &mut cache_misses,
            )?);
        }
        let rg_grouped = group_views(plan, &touched, &views, filter)?;

        if healthy {
            // ---- Time plane: encoded-domain pushdown ----
            let key_col = plan.group_by[0];
            let key_cm = fm.chunk(rg, key_col)?;
            let key_ordinal = meta
                .chunk_ordinal(rg, key_col)
                .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
            let key_node = meta.chunk_fragments(key_ordinal)[0].node;
            let key_hit = views[0].1;

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
            let mut key_deps =
                ctx.transfer(Loc::Node(coord), Loc::Node(key_node), bm_wire, &[comp]);
            let key_work = match decoded_on.get(&key_ordinal) {
                Some(&(n, eval_step)) if n == key_node => {
                    key_deps.push(eval_step);
                    ctx.cpu(
                        Loc::Node(key_node),
                        key_cpu,
                        CostClass::Processing,
                        &key_deps,
                    )
                }
                _ if key_hit => ctx.cpu(
                    Loc::Node(key_node),
                    key_cpu,
                    CostClass::Processing,
                    &key_deps,
                ),
                _ => {
                    let read = ctx.disk(key_node, key_cm.len, &key_deps);
                    ctx.cpu(
                        Loc::Node(key_node),
                        cost.decode_at(key_cm.plain_size, speedup * csp) + key_cpu,
                        CostClass::Processing,
                        &[read],
                    )
                }
            };
            frontier.extend(ctx.transfer(
                Loc::Node(key_node),
                Loc::Node(coord),
                key_wire,
                &[key_work],
            ));
            state_wire_total += key_wire;
            decisions.push(ProjectionDecision {
                row_group: rg,
                column: key_col,
                cost_product: key_wire as f64 / key_cm.len.max(1) as f64,
                pushed_down: true,
            });

            for (&col_idx, &(_, hit)) in arg_cols.iter().zip(&views[1..]) {
                let cm = fm.chunk(rg, col_idx)?;
                let ordinal = meta
                    .chunk_ordinal(rg, col_idx)
                    .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
                let node = meta.chunk_fragments(ordinal)[0].node;
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
                let work = match decoded_on.get(&ordinal) {
                    Some(&(n, eval_step)) if n == node => {
                        let mut deps = deps.clone();
                        deps.push(eval_step);
                        ctx.cpu(Loc::Node(node), arg_cpu, CostClass::Processing, &deps)
                    }
                    _ if hit => ctx.cpu(Loc::Node(node), arg_cpu, CostClass::Processing, &deps),
                    _ => {
                        let read = ctx.disk(node, cm.len, &deps);
                        ctx.cpu(
                            Loc::Node(node),
                            cost.decode_at(cm.plain_size, csp) + arg_cpu,
                            CostClass::Processing,
                            &[read],
                        )
                    }
                };
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
            let mut decode_cost = fusion_cluster::time::Nanos::ZERO;
            for &col_idx in &touched {
                let cm = fm.chunk(rg, col_idx)?;
                let ordinal = meta
                    .chunk_ordinal(rg, col_idx)
                    .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
                for f in &meta.chunk_fragments(ordinal) {
                    if store.blocks().has_block(f.node, f.block) {
                        let req = ctx.rpc(Loc::Node(coord), Loc::Node(f.node), &[combine_step]);
                        let req = ctx.retry(store.retry_penalty(f.node), &req);
                        let read = ctx.disk(f.node, f.len, &req);
                        arrived.extend(ctx.transfer(
                            Loc::Node(f.node),
                            Loc::Node(coord),
                            f.len,
                            &[read],
                        ));
                    } else {
                        arrived.push(degraded_fragment_fetch(
                            store,
                            meta,
                            &mut ctx,
                            coord,
                            f,
                            &[combine_step],
                        )?);
                    }
                }
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
    store
        .metrics()
        .counter("agg_groups_emitted")
        .add(groups_emitted);
    store
        .metrics()
        .counter("agg_wire_bytes_saved")
        .add(row_ship_bytes.saturating_sub(state_wire_total));
    if ctx.trace.enabled() {
        ctx.trace.add_count(groups_emitted);
        ctx.trace.add_bytes(state_wire_total);
    }
    ctx.trace.exit(); // grouped_aggregate_stage

    let result = super::assemble_grouped_result(plan, &fm.schema, grouped, total_matches)?;
    let reply_bytes = result_wire_bytes(&result);
    ctx.phase(Phase::Other);
    // The coordinator merges per-node keyed states, then replies.
    let assemble = ctx.cpu(
        Loc::Node(coord),
        cost.agg_state(state_wire_total) + cost.project(reply_bytes),
        CostClass::Other,
        &frontier,
    );
    ctx.transfer(Loc::Node(coord), Loc::Client, reply_bytes, &[assemble]);

    debug_assert_eq!(
        pruned + cache_hits + cache_misses,
        considered,
        "chunk accounting must conserve"
    );
    Ok(QueryOutput {
        result,
        selectivity,
        workflow: ctx.wf,
        net_bytes: ctx.net_bytes,
        decisions,
        pruned_chunks: pruned,
        cache_hits,
        cache_misses,
        chunks_considered: considered,
        trace: ctx.trace,
    })
}

/// Groups one row group's matched rows from the views of its `touched`
/// chunks (the group keys, then the other argument columns, as the
/// grouped stage reads them). A single key groups in the encoded domain:
/// its codes index the accumulators and its RLE runs fold whole, while
/// argument columns are decoded for the kernel to read row by row.
/// Several keys group decoded values with the row-at-a-time oracle.
fn group_views(
    plan: &QueryPlan,
    touched: &[usize],
    views: &[(Arc<EncodedChunk>, bool)],
    filter: &Bitmap,
) -> Result<GroupedAggs> {
    use fusion_sql::eval::{group_aggregate_decoded, group_aggregate_encoded, AggInput};
    // With one key, the key view stays encoded and only the argument
    // columns after it are decoded.
    let skip = usize::from(plan.group_by.len() == 1);
    let decoded: Vec<ColumnData> = views[skip..]
        .iter()
        .map(|(view, _)| view.decode())
        .collect::<std::result::Result<_, _>>()?;
    let col = |c: usize| {
        &decoded[touched
            .iter()
            .position(|&t| t == c)
            .expect("touched column read")
            - skip]
    };
    let grouped = if let [key] = plan.group_by[..] {
        let inputs: Vec<_> = plan
            .aggregates
            .iter()
            .map(|s| {
                let input = match s.column {
                    None => AggInput::Star,
                    Some(c) if c == key => AggInput::Key,
                    Some(c) => AggInput::Col(col(c)),
                };
                (s.func, input)
            })
            .collect();
        group_aggregate_encoded(&views[0].0, &inputs, filter)
    } else {
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
