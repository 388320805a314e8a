//! The baseline executor: fetch-and-reassemble at the coordinator
//! (representative of MinIO / Ceph with S3-Select-style evaluation at one
//! node, paper §6 "Baseline").
//!
//! The baseline is granted the same footer optimization the paper gives
//! it: only chunks of columns the query touches are fetched, and row
//! groups whose min/max statistics prove no match are skipped. But because
//! its fixed-block layout splits chunks across nodes, every needed chunk
//! is pulled — fragment by fragment, in compressed form — to the
//! coordinator, where all decoding and evaluation happens.

use super::{agg_label, row_group_may_match, Ctx, Loc, QueryOutput, QueryResult};
use crate::config::FAST_SNAPPY_SPEEDUP;
use crate::error::Result;
use crate::store::Store;
use fusion_cluster::engine::{CostClass, StepId};
use fusion_format::chunk::decode_column_chunk;
use fusion_format::schema::LogicalType;
use fusion_format::value::ColumnData;
use fusion_obs::trace::Phase;
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{
    combine, eval_aggregate, eval_filter, group_aggregate_decoded, stats_all_match,
};
use fusion_sql::partial::GroupedAggs;
use fusion_sql::plan::{OutputItem, QueryPlan};

/// Executes `plan` by reassembling all needed chunks at the coordinator.
pub fn execute(store: &Store, object: &str, plan: &QueryPlan) -> Result<QueryOutput> {
    let mut ctx = Ctx::new(store, object)?;
    let (meta, fm, coord, cost) = (ctx.meta, ctx.fm, ctx.coord, ctx.cost);
    let mut shard_read_bytes = 0u64;

    let arrival = ctx.rpc(Loc::Client, Loc::Node(coord), &[]);
    let plan_step = ctx.cpu(
        Loc::Node(coord),
        cost.query_overhead,
        CostClass::Other,
        &arrival,
    );

    // Columns the query touches.
    let mut needed: Vec<usize> = plan.filter_columns();
    for &c in &plan.projections {
        if !needed.contains(&c) {
            needed.push(c);
        }
    }
    needed.sort_unstable();

    let num_rgs = fm.row_groups.len();
    let mut rg_bitmaps: Vec<Bitmap> = Vec::with_capacity(num_rgs);
    // Decoded chunks cache for this query: (rg, col) -> ColumnData.
    let mut decoded: std::collections::HashMap<(usize, usize), ColumnData> =
        std::collections::HashMap::new();
    let mut eval_frontier: Vec<StepId> = vec![plan_step];

    ctx.trace.enter(Phase::ShardRead, "fetch_stage");
    // Coordinator-side decode + filter CPU is the baseline's "decode"
    // phase on the virtual clock (reads, transfers, retries, and
    // degraded rebuilds tag themselves).
    ctx.phase(Phase::Decode);
    for rg in 0..num_rgs {
        let rows = fm.row_groups[rg].row_count as usize;
        if !row_group_may_match(plan.tree.as_ref(), &plan.filters, &fm.row_groups[rg]) {
            ctx.chunks.pruned += needed.len();
            ctx.chunks.considered += needed.len();
            rg_bitmaps.push(Bitmap::with_len(rows));
            continue;
        }
        // Fetch every needed chunk of this row group to the coordinator.
        let mut rg_arrived: Vec<StepId> = Vec::new();
        let mut decode_cost = fusion_cluster::time::Nanos::ZERO;
        for &col_idx in &needed {
            let cm = fm.chunk(rg, col_idx)?;
            let ty = fm.schema.fields()[col_idx].ty;
            let ordinal = ctx.ordinal(rg, col_idx)?;

            // Data plane: reassemble + decode at the coordinator. Every
            // fetched chunk is a data-plane read — a "miss" in the
            // conservation invariant (the baseline has no node caches to
            // hit).
            ctx.chunks.considered += 1;
            ctx.chunks.misses += 1;
            let chunk_bytes = store.chunk_bytes(object, ordinal)?;
            shard_read_bytes += chunk_bytes.len() as u64;
            let col = decode_column_chunk(&chunk_bytes, ty)?;
            decoded.insert((rg, col_idx), col);

            // Time plane: the chunk's fragments travel to the coordinator
            // in stored (compressed) form; fragments on dead nodes are
            // rebuilt from their stripes (degraded mode). The Snappy share
            // of the decode runs at the fast kernels' rate.
            rg_arrived.extend(ctx.fetch_fragments(&meta.chunk_fragments(ordinal), plan_step)?);
            decode_cost +=
                cost.decode_at(cm.plain_size, FAST_SNAPPY_SPEEDUP) + cost.eval(cm.value_count);
        }
        if rg_arrived.is_empty() {
            rg_arrived.push(plan_step);
        }
        // Coordinator decodes and evaluates everything for this row group.
        let eval = ctx.cpu(
            Loc::Node(coord),
            decode_cost,
            CostClass::Processing,
            &rg_arrived,
        );
        eval_frontier.push(eval);

        // Data plane: evaluate filters, combine.
        let mut leaf_bitmaps = Vec::with_capacity(plan.filters.len());
        for leaf in &plan.filters {
            let cm = fm.chunk(rg, leaf.column)?;
            if stats_all_match(leaf, cm.min.as_ref(), cm.max.as_ref()) {
                // Stats prove every row matches: skip the scan (the chunk
                // is still fetched above — projections may need it).
                leaf_bitmaps.push(Bitmap::ones_with_len(rows));
                continue;
            }
            let col = decoded
                .get(&(rg, leaf.column))
                .expect("filter column fetched above");
            leaf_bitmaps.push(eval_filter(leaf, col)?);
        }
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
        ctx.trace.add_count(ctx.chunks.misses as u64);
        ctx.trace.add_bytes(shard_read_bytes);
    }
    ctx.trace.exit(); // fetch_stage

    let total_rows: usize = fm.row_groups.iter().map(|g| g.row_count as usize).sum();
    // Selectivity is measured before any LIMIT: it is the filter-stage
    // statistic the Cost Equation reasons about.
    let measured_matches: usize = rg_bitmaps.iter().map(Bitmap::count_ones).sum();
    let selectivity = if total_rows == 0 {
        0.0
    } else {
        measured_matches as f64 / total_rows as f64
    };
    super::apply_limit(plan, &mut rg_bitmaps);
    let total_matches: usize = rg_bitmaps.iter().map(Bitmap::count_ones).sum();

    // Grouped queries: the baseline has already reassembled every needed
    // chunk at the coordinator, so it groups decoded values there —
    // per row group, merged in row-group order (the same merge order the
    // pushdown executor uses, so float results are bit-identical).
    if plan.grouped() {
        ctx.phase(Phase::GroupedAggregate);
        ctx.trace
            .enter(Phase::GroupedAggregate, "grouped_aggregate_stage");
        let mut merged: Option<GroupedAggs> = None;
        let mut group_cost = fusion_cluster::time::Nanos::ZERO;
        for (rg, filter) in rg_bitmaps.iter().enumerate() {
            let matches = filter.count_ones();
            if matches == 0 {
                continue;
            }
            let keys: Vec<&ColumnData> = plan
                .group_by
                .iter()
                .map(|c| decoded.get(&(rg, *c)).expect("key column fetched above"))
                .collect();
            let aggs: Vec<_> = plan
                .aggregates
                .iter()
                .map(|s| {
                    (
                        s.func,
                        s.column.map(|c| {
                            decoded
                                .get(&(rg, c))
                                .expect("aggregate column fetched above")
                        }),
                    )
                })
                .collect();
            let rg_grouped = group_aggregate_decoded(&keys, &aggs, filter)?;
            group_cost += cost.eval(matches as u64 * plan.aggregates.len().max(1) as u64)
                + cost.agg_state(rg_grouped.wire_bytes());
            match &mut merged {
                Some(m) => m.merge(&rg_grouped)?,
                slot => *slot = Some(rg_grouped),
            }
        }
        let grouped = merged.unwrap_or_else(|| GroupedAggs::new(Vec::new()));
        if ctx.trace.enabled() {
            ctx.trace.add_count(grouped.len() as u64);
            ctx.trace.add_bytes(grouped.wire_bytes());
        }
        ctx.trace.exit(); // grouped_aggregate_stage

        let result = super::assemble_grouped_result(plan, &fm.schema, grouped, total_matches)?;
        return Ok(ctx.reply(
            &eval_frontier,
            |reply| group_cost + cost.project(reply),
            result,
            selectivity,
            Vec::new(),
        ));
    }

    // Project locally at the coordinator.
    ctx.phase(Phase::Project);
    ctx.trace.enter(Phase::Project, "projection_stage");
    let mut projected: Vec<ColumnData> = Vec::with_capacity(plan.projections.len());
    let mut project_bytes = 0u64;
    for &col_idx in &plan.projections {
        let ty = fm.schema.fields()[col_idx].ty;
        let mut parts = Vec::new();
        // `rg` also indexes the footer metadata, not just the bitmaps.
        #[allow(clippy::needless_range_loop)]
        for rg in 0..num_rgs {
            let matches: Vec<usize> = rg_bitmaps[rg].ones().collect();
            if matches.is_empty() {
                continue;
            }
            let col = decoded
                .get(&(rg, col_idx))
                .expect("projection column fetched above");
            let part = col.take(&matches);
            project_bytes += part.plain_size() as u64;
            parts.push(part);
        }
        projected.push(concat_parts(ty, parts));
    }

    if ctx.trace.enabled() {
        ctx.trace.add_bytes(project_bytes);
    }
    ctx.trace.exit(); // projection_stage

    let result = assemble_result(plan, &projected, total_matches)?;
    Ok(ctx.reply(
        &eval_frontier,
        |reply| cost.project(project_bytes + reply),
        result,
        selectivity,
        Vec::new(),
    ))
}

/// Concatenates per-row-group projection parts (possibly none).
fn concat_parts(ty: LogicalType, parts: Vec<ColumnData>) -> ColumnData {
    let mut acc = ColumnData::with_capacity(ty, 0);
    for p in parts {
        match (&mut acc, p) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(b),
            _ => unreachable!("parts decoded with a single logical type"),
        }
    }
    acc
}

/// Builds the final result (projected output columns + aggregates) from
/// the concatenated projections, aggregating with [`eval_aggregate`] —
/// the oracle the pushdown executor's encoded folds are tested against.
fn assemble_result(
    plan: &QueryPlan,
    projected: &[ColumnData],
    total_matches: usize,
) -> Result<QueryResult> {
    let mut columns = Vec::new();
    let mut aggregates = Vec::new();
    for out in &plan.outputs {
        match out {
            OutputItem::Projection(pos) => {
                columns.push((plan.projection_names[*pos].clone(), projected[*pos].clone()));
            }
            OutputItem::Aggregate(ai) => {
                let spec = &plan.aggregates[*ai];
                let data = spec.column.map(|schema_idx| {
                    let pos = plan
                        .projections
                        .iter()
                        .position(|&c| c == schema_idx)
                        .expect("aggregate argument was planned as a projection");
                    &projected[pos]
                });
                let v = eval_aggregate(spec, total_matches, data)?;
                aggregates.push((agg_label(spec), v));
            }
        }
    }
    Ok(QueryResult {
        row_count: total_matches,
        columns,
        aggregates,
    })
}
