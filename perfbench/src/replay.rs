//! The layer replay behind the traced run.
//!
//! The store's executors carry no wall-clock spans yet, so the traced run
//! re-executes each op from outside: it calls the same public functions
//! of each layer, with the same inputs and in the same order as
//! `fusion_core::query::fusion::execute` (adaptive pushdown, encoded
//! scans, aggregate pushdown off), `Store::get` and `Store::put` do, and
//! times every call. Each replayed answer must be bit-identical to the
//! store's own, so the breakdown describes the work the op really does.

use fusion_cluster::store::{BlockId, ClusterError};
use fusion_core::config::QueryMode;
use fusion_core::error::{Result, StoreError};
use fusion_core::object::{ChunkFragment, ObjectMeta};
use fusion_core::query::QueryResult;
use fusion_core::store::Store;
use fusion_ec::pool::WorkerPool;
use fusion_ec::rs::ReconstructError;
use fusion_format::chunk::{decode_column_chunk, read_encoded_chunk, EncodedChunk};
use fusion_format::footer::{FileMeta, RowGroupMeta};
use fusion_format::schema::{LogicalType, Schema};
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::AggFunc;
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{
    combine, eval_aggregate, eval_filter_encoded, group_aggregate_decoded, stats_all_match,
    stats_may_match,
};
use fusion_sql::partial::GroupedAggs;
use fusion_sql::plan::{BoolTree, FilterLeaf, OutputItem, QueryPlan};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: which layer, when, under which parent, for which op.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id; 0 is "no parent".
    pub id: u32,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u32,
    /// Index of the replayed op.
    pub op: u32,
    /// Span name (`layer.call`).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Bytes the call processed, where it has a size (CRC only).
    pub bytes: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"bytes\": {}}}",
            self.id, self.parent, self.op, self.name, self.start_ns, self.end_ns, self.bytes
        )
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the op id stamped on subsequent spans.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Opens a span; returns its index for [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: 0,
            end_ns: 0,
            bytes: 0,
        });
        self.stack.push(idx as u32 + 1);
        self.spans[idx].start_ns = self.ns(Instant::now());
        idx
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, idx: usize) {
        let end = self.ns(Instant::now());
        self.spans[idx].end_ns = end;
        self.stack.pop();
    }

    /// Times one leaf call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }

    /// Records a span timed elsewhere (pool workers), under the open span.
    fn record(&mut self, name: &'static str, (start, end): (Instant, Instant)) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns,
            end_ns,
            bytes: 0,
        });
    }
}

/// Chunk accounting of one replayed query, plus scan-kernel work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chunks {
    /// Chunks skipped by footer statistics.
    pub pruned: usize,
    /// Chunk-cache hits.
    pub hits: usize,
    /// Chunk reads from the data plane.
    pub misses: usize,
    /// Chunk accesses considered.
    pub considered: usize,
    /// Filter chunks fanned out across the worker pool.
    pub scan_tasks: usize,
    /// Rows the scan kernels evaluated.
    pub scan_rows: u64,
}

/// Replays ops against a store, recording spans into `rec`.
pub struct Replay<'a> {
    store: &'a Store,
    pool: WorkerPool,
    /// The span recorder.
    pub rec: Recorder,
    /// `(node, block)` of every block probed or read since the last
    /// [`Replay::take_touched`].
    touched: Vec<(usize, BlockId)>,
    /// Lost `(stripe, bin)`s whose repair set this query already planned.
    planned: Vec<(usize, usize)>,
}

/// A healthy filter chunk's scan, run on a pool worker as the executor
/// does, with its parse and scan timed inside the worker.
struct ScanTask {
    rg: usize,
    leaf: usize,
    ordinal: usize,
    ty: LogicalType,
    cached: Option<Arc<EncodedChunk>>,
    raw: Vec<u8>,
    parse: Option<(Instant, Instant)>,
    scan: Option<(Instant, Instant)>,
    rows: usize,
    out: Option<Result<(Arc<EncodedChunk>, Bitmap)>>,
}

impl<'a> Replay<'a> {
    /// A replay over `store`, whose configuration must be the one the
    /// replay models.
    ///
    /// # Errors
    ///
    /// Any other query mode, scan path or aggregate routing.
    pub fn new(store: &'a Store) -> Result<Replay<'a>> {
        let cfg = store.config();
        if cfg.query_mode != QueryMode::AdaptivePushdown
            || !cfg.encoded_scan
            || cfg.aggregate_pushdown
        {
            return Err(StoreError::InvalidRequest(
                "the replay models adaptive pushdown with encoded scans and \
                 aggregate pushdown off"
                    .into(),
            ));
        }
        Ok(Replay {
            store,
            pool: WorkerPool::new(cfg.ec_threads),
            rec: Recorder::default(),
            touched: Vec::new(),
            planned: Vec::new(),
        })
    }

    /// Blocks probed or read since the last call.
    fn take_touched(&mut self) -> Vec<(usize, BlockId)> {
        let mut t = std::mem::take(&mut self.touched);
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Times one empty fan-out of `tasks` items over the store's pool
    /// width: the pool's own cost per query.
    pub fn pool_fanout(&mut self, tasks: usize) {
        let pool = &self.pool;
        let mut items = vec![0u8; tasks];
        self.rec.time("ec.pool_fanout", || {
            pool.for_each_mut(&mut items, |_, x| *x = black_box(*x))
        });
    }

    fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.rec.open(name);
        let r = f(self);
        self.rec.close(idx);
        r
    }

    fn object(&mut self, name: &str) -> Result<&'a ObjectMeta> {
        let store = self.store;
        self.rec.time("core.meta_resolve", || store.object(name))
    }

    fn probe(&mut self, node: usize, block: BlockId) -> bool {
        let store = self.store;
        self.touched.push((node, block));
        self.rec.time("cluster.block_probe", || {
            store.blocks().has_block(node, block)
        })
    }

    /// `Store::get`.
    pub fn get(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let store = self.store;
        let meta = self.object(name)?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::InvalidRequest("range overflows u64".into()))?;
        if end > meta.size {
            return Err(StoreError::OutOfRange {
                offset,
                len,
                size: meta.size,
            });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let frags = self
            .rec
            .time("core.meta_resolve", || meta.locate(offset, len));
        let mut out = Vec::with_capacity(len as usize);
        for f in frags {
            self.touched.push((f.node, f.block));
            let read = self.rec.time("cluster.block_read", || {
                store.blocks().get_range(
                    f.node,
                    f.block,
                    f.offset_in_block as usize,
                    f.len as usize,
                )
            });
            match read {
                Ok(bytes) if bytes.len() as u64 == f.len => out.extend_from_slice(&bytes),
                Ok(_) => return Err(StoreError::Internal("short read".into())),
                Err(
                    ClusterError::NodeDown(_)
                    | ClusterError::NoSuchBlock { .. }
                    | ClusterError::Corrupt { .. },
                ) => {
                    let rebuilt =
                        self.scoped("core.degraded_read", |r| r.rebuild(meta, f.block))?;
                    let s = f.offset_in_block as usize;
                    out.extend_from_slice(&rebuilt[s..s + f.len as usize]);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    /// The degraded read of `Store::get`: rebuild the lost data bin from
    /// the code's cheapest repair set, probing and reading survivors.
    fn rebuild(&mut self, meta: &ObjectMeta, block: BlockId) -> Result<Vec<u8>> {
        let store = self.store;
        let (si, bi) = self
            .rec
            .time("core.meta_resolve", || stripe_of(meta, block))
            .ok_or_else(|| StoreError::Internal("fragment without stripe".into()))?;
        let sp = &meta.placement[si];
        let code = store.codec();
        let n = code.total_blocks();
        let mut avail: Vec<bool> = (0..n)
            .map(|i| i != bi && self.probe(sp.nodes[i], sp.block_ids[i]))
            .collect();
        let mut shards = loop {
            let sources = code
                .repair_sources(bi, &avail)
                .ok_or(StoreError::Unrecoverable(ReconstructError::NotRecoverable))?;
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut dropped = None;
            for &s in &sources {
                self.touched.push((sp.nodes[s], sp.block_ids[s]));
                let read = self.rec.time("cluster.block_read", || {
                    store.blocks().get(sp.nodes[s], sp.block_ids[s])
                });
                match read {
                    Ok(b) => shards[s] = Some(b.to_vec()),
                    Err(_) => {
                        dropped = Some(s);
                        break;
                    }
                }
            }
            match dropped {
                Some(s) => avail[s] = false,
                None => break shards,
            }
        };
        self.rec.time("ec.reconstruct", || {
            code.repair_one(&mut shards, bi, sp.width as usize)
        })?;
        let mut rebuilt = shards[bi]
            .take()
            .ok_or_else(|| StoreError::Internal("shard not rebuilt".into()))?;
        rebuilt.truncate(meta.layout.stripes[si].bins[bi].stored_len() as usize);
        Ok(rebuilt)
    }

    /// `Store::chunk_bytes`.
    fn chunk_bytes(&mut self, name: &str, ordinal: usize) -> Result<Vec<u8>> {
        self.scoped("core.chunk_bytes", |r| {
            let meta = r.object(name)?;
            let frags = r
                .rec
                .time("core.meta_resolve", || meta.chunk_fragments(ordinal));
            let first = frags
                .first()
                .ok_or_else(|| StoreError::Internal(format!("no chunk ordinal {ordinal}")))?;
            let len: u64 = frags.iter().map(|f| f.len).sum();
            r.get(name, first.object_offset, len)
        })
    }

    /// `Store::encoded_chunk`.
    fn encoded_chunk(
        &mut self,
        name: &str,
        ordinal: usize,
        ty: LogicalType,
    ) -> Result<(Arc<EncodedChunk>, bool)> {
        let store = self.store;
        if let Some(c) = self.rec.time("core.cache_lookup", || {
            store.chunk_cache().get(name, ordinal)
        }) {
            return Ok((c, true));
        }
        let bytes = self.chunk_bytes(name, ordinal)?;
        let chunk = Arc::new(
            self.rec
                .time("format.chunk_parse", || read_encoded_chunk(&bytes, ty))?,
        );
        let chunk = self.rec.time("core.cache_insert", || {
            store.chunk_cache().insert_or_get(name, ordinal, chunk)
        });
        Ok((chunk, false))
    }

    /// Whether the executor treats the chunk as whole and hosted on a
    /// live node (probing it as the executor does).
    fn healthy(&mut self, frags: &[ChunkFragment]) -> bool {
        frags.len() == 1 && self.probe(frags[0].node, frags[0].block)
    }

    /// The executor's time-plane model of fetching fragments to the
    /// coordinator also touches the data plane: it probes each fragment,
    /// and for a lost one plans the repair set once per query by probing
    /// every other shard of its stripe (`Store::surviving_repair_shards`).
    fn plan_fetch(&mut self, meta: &ObjectMeta, frags: &[ChunkFragment]) -> Result<()> {
        for f in frags {
            if self.probe(f.node, f.block) {
                continue;
            }
            let (si, bi) = self
                .rec
                .time("core.meta_resolve", || stripe_of(meta, f.block))
                .ok_or_else(|| StoreError::Internal("fragment without stripe".into()))?;
            if self.planned.contains(&(si, bi)) {
                continue;
            }
            self.planned.push((si, bi));
            let sp = &meta.placement[si];
            let code = self.store.codec();
            let avail: Vec<bool> = (0..code.total_blocks())
                .map(|i| i != bi && self.probe(sp.nodes[i], sp.block_ids[i]))
                .collect();
            code.repair_sources(bi, &avail).ok_or_else(|| {
                StoreError::Internal(format!("stripe {si} cannot rebuild bin {bi}"))
            })?;
        }
        Ok(())
    }

    /// `Store::query_as` in adaptive-pushdown mode.
    pub fn query(&mut self, object: &str, sql: &str) -> Result<(QueryResult, Chunks)> {
        let meta = self.object(object)?;
        let fm = meta
            .file_meta
            .as_ref()
            .ok_or_else(|| StoreError::NotAnalytics(object.to_string()))?;
        let q = self
            .rec
            .time("sql.parse", || fusion_sql::parser::parse(sql))?;
        let plan = self
            .rec
            .time("sql.plan", || fusion_sql::plan::plan(&q, &fm.schema))?;
        if plan.limit.is_some() {
            return Err(StoreError::InvalidRequest(
                "the replay models LIMIT-free plans".into(),
            ));
        }
        // `execute` resolves the object again.
        let meta = self.object(object)?;
        let mut c = Chunks::default();
        self.planned.clear();
        let rg_bitmaps = self.filter_stage(object, meta, fm, &plan, &mut c)?;
        let total_matches: usize = rg_bitmaps.iter().map(Bitmap::count_ones).sum();
        let result = if plan.grouped() {
            self.grouped_stage(object, meta, fm, &plan, &rg_bitmaps, total_matches, &mut c)?
        } else {
            self.projection_stage(object, meta, fm, &plan, &rg_bitmaps, total_matches, &mut c)?
        };
        Ok((result, c))
    }

    fn filter_stage(
        &mut self,
        object: &str,
        meta: &ObjectMeta,
        fm: &FileMeta,
        plan: &QueryPlan,
        c: &mut Chunks,
    ) -> Result<Vec<Bitmap>> {
        let store = self.store;
        let num_rgs = fm.row_groups.len();
        let mut leaf_acc: Vec<Vec<Option<Bitmap>>> = vec![vec![None; plan.filters.len()]; num_rgs];
        let mut tasks: Vec<ScanTask> = Vec::new();
        for (rg, rg_meta) in fm.row_groups.iter().enumerate() {
            let rows = rg_meta.row_count as usize;
            let rg_alive = row_group_may_match(plan.tree.as_ref(), &plan.filters, rg_meta);
            for (li, leaf) in plan.filters.iter().enumerate() {
                let cm = fm.chunk(rg, leaf.column)?;
                c.considered += 1;
                if !rg_alive || !stats_may_match(leaf, cm.min.as_ref(), cm.max.as_ref()) {
                    c.pruned += 1;
                    leaf_acc[rg][li] = Some(Bitmap::with_len(rows));
                    continue;
                }
                if stats_all_match(leaf, cm.min.as_ref(), cm.max.as_ref()) {
                    c.pruned += 1;
                    leaf_acc[rg][li] = Some(Bitmap::ones_with_len(rows));
                    continue;
                }
                let ty = fm.schema.fields()[leaf.column].ty;
                let (ordinal, frags) = self.rec.time("core.meta_resolve", || {
                    let o = meta.chunk_ordinal(rg, leaf.column);
                    (o, o.map(|o| meta.chunk_fragments(o)))
                });
                let (ordinal, frags) = ordinal
                    .zip(frags)
                    .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
                if self.healthy(&frags) {
                    let cached = self.rec.time("core.cache_lookup", || {
                        store.chunk_cache().get(object, ordinal)
                    });
                    let raw = match cached {
                        Some(_) => {
                            c.hits += 1;
                            Vec::new()
                        }
                        None => {
                            c.misses += 1;
                            self.chunk_bytes(object, ordinal)?
                        }
                    };
                    tasks.push(ScanTask {
                        rg,
                        leaf: li,
                        ordinal,
                        ty,
                        cached,
                        raw,
                        parse: None,
                        scan: None,
                        rows: 0,
                        out: None,
                    });
                } else {
                    // Split chunk or lost fragment: reassemble, parse and
                    // scan at the coordinator.
                    c.misses += 1;
                    let bytes = self.chunk_bytes(object, ordinal)?;
                    let view = self
                        .rec
                        .time("format.chunk_parse", || read_encoded_chunk(&bytes, ty))?;
                    let bm = self
                        .rec
                        .time("sql.scan", || eval_filter_encoded(leaf, &view))?;
                    c.scan_rows += view.rows() as u64;
                    self.bitmap_compress(&bm);
                    self.plan_fetch(meta, &frags)?;
                    leaf_acc[rg][li] = Some(bm);
                }
            }
        }

        // Parse (on a miss) and scan every healthy chunk across the pool.
        c.scan_tasks = tasks.len();
        self.scoped("ec.pool", |r| {
            let filters = &plan.filters;
            r.pool.for_each_mut(&mut tasks, |_, t| {
                let p0 = Instant::now();
                let chunk = match &t.cached {
                    Some(chunk) => chunk.clone(),
                    None => match read_encoded_chunk(&t.raw, t.ty) {
                        Ok(chunk) => {
                            t.parse = Some((p0, Instant::now()));
                            Arc::new(chunk)
                        }
                        Err(e) => {
                            t.out = Some(Err(e.into()));
                            return;
                        }
                    },
                };
                let s0 = Instant::now();
                let bm = eval_filter_encoded(&filters[t.leaf], &chunk);
                t.scan = Some((s0, Instant::now()));
                t.rows = chunk.rows();
                t.out = Some(bm.map(|bm| (chunk, bm)).map_err(StoreError::from));
            });
            for t in &tasks {
                if let Some(p) = t.parse {
                    r.rec.record("format.chunk_parse", p);
                }
                if let Some(s) = t.scan {
                    r.rec.record("sql.scan", s);
                }
            }
        });

        for t in tasks {
            let (chunk, bm) = t
                .out
                .ok_or_else(|| StoreError::Internal("task not run".into()))??;
            c.scan_rows += t.rows as u64;
            if t.cached.is_none() {
                self.rec.time("core.cache_insert", || {
                    store.chunk_cache().insert(object, t.ordinal, chunk)
                });
            }
            self.bitmap_compress(&bm);
            leaf_acc[t.rg][t.leaf] = Some(bm);
        }

        let mut rg_bitmaps = Vec::with_capacity(num_rgs);
        for (rg, accs) in leaf_acc.into_iter().enumerate() {
            let leaves: Vec<Bitmap> = accs
                .into_iter()
                .map(|b| b.ok_or_else(|| StoreError::Internal("leaf not evaluated".into())))
                .collect::<Result<_>>()?;
            rg_bitmaps.push(match &plan.tree {
                Some(tree) => self.rec.time("sql.combine", || combine(tree, &leaves))?,
                None => Bitmap::ones_with_len(fm.row_groups[rg].row_count as usize),
            });
        }
        Ok(rg_bitmaps)
    }

    /// The executor compresses each result bitmap to size its wire bytes.
    fn bitmap_compress(&mut self, bm: &Bitmap) {
        let n = self.rec.time("snappy.bitmap_compress", || {
            fusion_snappy::compress(&bm.to_bytes()).len()
        });
        black_box(n);
    }

    #[allow(clippy::too_many_arguments)]
    fn projection_stage(
        &mut self,
        object: &str,
        meta: &ObjectMeta,
        fm: &FileMeta,
        plan: &QueryPlan,
        rg_bitmaps: &[Bitmap],
        total_matches: usize,
        c: &mut Chunks,
    ) -> Result<QueryResult> {
        let mut projected = Vec::with_capacity(plan.projections.len());
        for &col_idx in &plan.projections {
            let ty = fm.schema.fields()[col_idx].ty;
            let mut parts = Vec::new();
            for (rg, bm) in rg_bitmaps.iter().enumerate() {
                let matches: Vec<usize> = self.rec.time("sql.select_rows", || bm.ones().collect());
                if matches.is_empty() {
                    continue;
                }
                let cm = fm.chunk(rg, col_idx)?;
                let (ordinal, frags) = self.rec.time("core.meta_resolve", || {
                    let o = meta.chunk_ordinal(rg, col_idx);
                    (o, o.map(|o| meta.chunk_fragments(o)))
                });
                let (ordinal, frags) = ordinal
                    .zip(frags)
                    .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
                c.considered += 1;
                let healthy = self.healthy(&frags);
                let part = if healthy {
                    let (chunk, hit) = self.encoded_chunk(object, ordinal, ty)?;
                    if hit {
                        c.hits += 1;
                    } else {
                        c.misses += 1;
                    }
                    self.rec.time("format.materialize", || {
                        chunk.decode().map(|col| col.take(&matches))
                    })?
                } else {
                    c.misses += 1;
                    let bytes = self.chunk_bytes(object, ordinal)?;
                    let col = self
                        .rec
                        .time("format.chunk_decode", || decode_column_chunk(&bytes, ty))?;
                    self.rec.time("format.materialize", || col.take(&matches))
                };
                // Cost Equation: push down when the selected values are
                // smaller than the encoded chunk.
                let push = healthy && (part.plain_size() as f64 / cm.len.max(1) as f64) < 1.0;
                if push {
                    self.bitmap_compress(bm);
                } else {
                    self.plan_fetch(meta, &frags)?;
                }
                parts.push(part);
            }
            projected.push(self.rec.time("format.concat", || concat_parts(ty, parts)));
        }
        self.scoped("core.assemble", |r| {
            assemble_result(&mut r.rec, plan, &projected, total_matches)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn grouped_stage(
        &mut self,
        object: &str,
        meta: &ObjectMeta,
        fm: &FileMeta,
        plan: &QueryPlan,
        rg_bitmaps: &[Bitmap],
        total_matches: usize,
        c: &mut Chunks,
    ) -> Result<QueryResult> {
        let mut arg_cols: Vec<usize> = Vec::new();
        for spec in &plan.aggregates {
            if let Some(col) = spec.column {
                if !plan.group_by.contains(&col) && !arg_cols.contains(&col) {
                    arg_cols.push(col);
                }
            }
        }
        // Aggregate pushdown off: every row group groups decoded values at
        // the coordinator.
        let mut merged: Option<GroupedAggs> = None;
        for (rg, filter) in rg_bitmaps.iter().enumerate() {
            if filter.count_ones() == 0 {
                continue;
            }
            let mut fetched: Vec<(usize, ColumnData)> = Vec::new();
            for &col_idx in plan.group_by.iter().chain(&arg_cols) {
                let ty = fm.schema.fields()[col_idx].ty;
                let (ordinal, frags) = self.rec.time("core.meta_resolve", || {
                    let o = meta.chunk_ordinal(rg, col_idx);
                    (o, o.map(|o| meta.chunk_fragments(o)))
                });
                let (ordinal, frags) = ordinal
                    .zip(frags)
                    .ok_or_else(|| StoreError::Internal("chunk ordinal out of range".into()))?;
                c.considered += 1;
                let col = if self.healthy(&frags) {
                    let (chunk, hit) = self.encoded_chunk(object, ordinal, ty)?;
                    if hit {
                        c.hits += 1;
                    } else {
                        c.misses += 1;
                    }
                    self.rec.time("format.materialize", || chunk.decode())?
                } else {
                    c.misses += 1;
                    let bytes = self.chunk_bytes(object, ordinal)?;
                    self.rec
                        .time("format.chunk_decode", || decode_column_chunk(&bytes, ty))?
                };
                fetched.push((col_idx, col));
                self.plan_fetch(meta, &frags)?;
            }
            let column = |c: usize| -> Result<&ColumnData> {
                fetched
                    .iter()
                    .find(|(i, _)| *i == c)
                    .map(|(_, col)| col)
                    .ok_or_else(|| StoreError::Internal("column not fetched".into()))
            };
            let keys: Vec<&ColumnData> = plan
                .group_by
                .iter()
                .map(|&k| column(k))
                .collect::<Result<_>>()?;
            let aggs: Vec<(AggFunc, Option<&ColumnData>)> = plan
                .aggregates
                .iter()
                .map(|s| Ok((s.func, s.column.map(column).transpose()?)))
                .collect::<Result<_>>()?;
            let rg_grouped = self.rec.time("sql.aggregate", || {
                group_aggregate_decoded(&keys, &aggs, filter)
            })?;
            match &mut merged {
                Some(m) => self.rec.time("sql.aggregate", || m.merge(&rg_grouped))?,
                slot => *slot = Some(rg_grouped),
            }
        }
        let grouped = merged.unwrap_or_else(|| GroupedAggs::new(Vec::new()));
        self.scoped("core.assemble", |_| {
            assemble_grouped_result(plan, &fm.schema, grouped, total_matches)
        })
    }

    /// The layers of a PUT that are callable from outside: stripe block
    /// assembly, parity encoding and block checksums, over the layout the
    /// store chose for `name`. Returns each computed parity block with
    /// where the store keeps its own copy, for the caller to compare.
    pub fn put_layers(
        &mut self,
        name: &str,
        data: &[u8],
    ) -> Result<Vec<(usize, BlockId, Vec<u8>)>> {
        let code = self.store.codec();
        let k = code.data_blocks();
        let meta = self.object(name)?;
        let mut out = Vec::new();
        for (stripe, sp) in meta.layout.stripes.iter().zip(&meta.placement) {
            let blocks: Vec<Vec<u8>> = self.rec.time("core.put_assemble", || {
                stripe
                    .bins
                    .iter()
                    .map(|b| {
                        let mut buf = Vec::with_capacity(b.stored_len() as usize);
                        for p in &b.pieces {
                            buf.extend_from_slice(&data[p.start as usize..p.end as usize]);
                        }
                        buf.resize(buf.len() + b.physical_pad as usize, 0);
                        buf
                    })
                    .collect()
            });
            let mut parity = Vec::new();
            self.rec
                .time("ec.encode", || code.encode_into(&blocks, &mut parity));
            for b in blocks.iter().chain(&parity) {
                self.crc(b);
            }
            for (p, block) in parity.into_iter().enumerate() {
                out.push((sp.nodes[k + p], sp.block_ids[k + p], block));
            }
        }
        Ok(out)
    }

    /// Times `util::crc32` over one block.
    pub fn crc(&mut self, bytes: &[u8]) {
        let idx = self.rec.open("format.crc");
        black_box(fusion_format::util::crc32(bytes));
        self.rec.close(idx);
        self.rec.spans[idx].bytes = bytes.len() as u64;
    }

    /// Times `util::crc32` over every block the op probed or read (the
    /// bytes the data plane verified for it), fetched after the op.
    pub fn crc_touched(&mut self) {
        let store = self.store;
        for (node, block) in self.take_touched() {
            if let Ok(b) = store.blocks().get(node, block) {
                self.crc(&b);
            }
        }
    }
}

/// The `(stripe, bin)` holding `block`.
fn stripe_of(meta: &ObjectMeta, block: BlockId) -> Option<(usize, usize)> {
    meta.placement.iter().enumerate().find_map(|(si, sp)| {
        sp.block_ids
            .iter()
            .position(|&b| b == block)
            .map(|bi| (si, bi))
    })
}

/// The executor's row-group pruning over the predicate tree.
fn row_group_may_match(tree: Option<&BoolTree>, filters: &[FilterLeaf], rg: &RowGroupMeta) -> bool {
    fn rec(t: &BoolTree, filters: &[FilterLeaf], rg: &RowGroupMeta) -> bool {
        match t {
            BoolTree::Leaf(id) => {
                let leaf = &filters[*id];
                let cm = &rg.chunks[leaf.column];
                stats_may_match(leaf, cm.min.as_ref(), cm.max.as_ref())
            }
            BoolTree::And(a, b) => rec(a, filters, rg) && rec(b, filters, rg),
            BoolTree::Or(a, b) => rec(a, filters, rg) || rec(b, filters, rg),
            BoolTree::Not(_) => true,
        }
    }
    tree.is_none_or(|t| rec(t, filters, rg))
}

fn concat_parts(ty: LogicalType, parts: Vec<ColumnData>) -> ColumnData {
    let mut acc = match ty {
        LogicalType::Int64 | LogicalType::Date => ColumnData::Int64(Vec::new()),
        LogicalType::Float64 => ColumnData::Float64(Vec::new()),
        LogicalType::Utf8 => ColumnData::Utf8(Vec::new()),
    };
    for p in parts {
        match (&mut acc, p) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(b),
            _ => unreachable!("parts decoded with one logical type"),
        }
    }
    acc
}

fn label(func: AggFunc, column: &Option<String>) -> String {
    match column {
        Some(c) => format!("{func}({c})"),
        None => format!("{func}(*)"),
    }
}

/// The executor's result assembly for ungrouped plans, timing each
/// aggregate.
fn assemble_result(
    rec: &mut Recorder,
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
                let data = spec
                    .column
                    .map(|c| {
                        plan.projections
                            .iter()
                            .position(|&p| p == c)
                            .map(|pos| &projected[pos])
                            .ok_or_else(|| StoreError::Internal("argument not projected".into()))
                    })
                    .transpose()?;
                let v = rec.time("sql.aggregate", || {
                    eval_aggregate(spec, total_matches, data)
                })?;
                aggregates.push((label(spec.func, &spec.column_name), v));
            }
        }
    }
    Ok(QueryResult {
        row_count: total_matches,
        columns,
        aggregates,
    })
}

/// The executor's result assembly for grouped plans.
fn assemble_grouped_result(
    plan: &QueryPlan,
    schema: &Schema,
    grouped: GroupedAggs,
    total_matches: usize,
) -> Result<QueryResult> {
    let rows = grouped.into_sorted();
    let column_from = |ty: LogicalType, values: Vec<Value>| -> Result<ColumnData> {
        let bad = |v: &Value| StoreError::Internal(format!("unexpected {v:?} in grouped output"));
        Ok(match ty {
            LogicalType::Int64 | LogicalType::Date => ColumnData::Int64(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(x) => Ok(x),
                        other => Err(bad(&other)),
                    })
                    .collect::<Result<_>>()?,
            ),
            LogicalType::Float64 => ColumnData::Float64(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(x) => Ok(x),
                        Value::Int(x) => Ok(x as f64),
                        other => Err(bad(&other)),
                    })
                    .collect::<Result<_>>()?,
            ),
            LogicalType::Utf8 => ColumnData::Utf8(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s),
                        other => Err(bad(&other)),
                    })
                    .collect::<Result<_>>()?,
            ),
        })
    };
    let mut columns = Vec::new();
    for out in &plan.outputs {
        match out {
            OutputItem::Projection(pos) => {
                let schema_idx = plan.projections[*pos];
                let key_pos = plan
                    .group_by
                    .iter()
                    .position(|&c| c == schema_idx)
                    .ok_or_else(|| StoreError::Internal("selected column is not a key".into()))?;
                let values = rows.iter().map(|(k, _)| k.0[key_pos].clone()).collect();
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
                let values = rows.iter().map(|(_, p)| p[*ai].finalize()).collect();
                columns.push((
                    label(spec.func, &spec.column_name),
                    column_from(out_ty, values)?,
                ));
            }
        }
    }
    Ok(QueryResult {
        row_count: total_matches,
        columns,
        aggregates: Vec::new(),
    })
}
