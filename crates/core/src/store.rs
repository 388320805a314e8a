//! The Fusion object store: `Put`, `Get`, node failure and recovery.
//! (`Query` lives in [`crate::query`].)
//!
//! Every node in Fusion can coordinate any request; the coordinator for an
//! object is chosen by hashing its name over the alive nodes (paper §5).
//! `Put` is a pipeline: [`layout::pack`] cuts the object into stripes
//! (the configured packer over the analytics footer's chunks, fixed
//! blocks for blobs), [`placement`] picks every stripe's `n` distinct
//! nodes and the metadata replicas' nodes in one pass, the stripes are
//! erasure coded **for real** and written, and one workflow models the
//! fan-out. `Get` serves ranged reads, transparently reconstructing from
//! parity when nodes have failed.

use crate::cache::ChunkCache;
use crate::config::{PlacementPolicy, QueryMode, StoreConfig, FAST_CODEC_SPEEDUP};
use crate::error::{Result, StoreError};
use crate::layout::{self, items_from_meta};
use crate::location_map::{LocationMap, LocationMapError};
use crate::meta::{CodeId, LayoutRecord};
use crate::object::{ObjectMeta, StripePlacement};
use crate::placement;
use bytes::Bytes;
use fusion_cluster::engine::{CostClass, ResourceKey, Workflow};
use fusion_cluster::fault::{AppliedFault, FaultInjector};
use fusion_cluster::store::{BlockId, BlockStore, ClusterError};
use fusion_cluster::time::Nanos;
use fusion_cluster::topology::Topology;
use fusion_ec::pool::WorkerPool;
use fusion_ec::rs::ReconstructError;
use fusion_ec::ErasureCode;
use fusion_format::footer::parse_footer;
use fusion_obs::metrics::Counter;
use fusion_obs::trace::Phase;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// One stripe's shard slots, `None` where the shard was not read.
pub(crate) type ShardBuf = Vec<Option<Vec<u8>>>;

/// Report returned by [`Store::put`].
#[derive(Debug, Clone)]
pub struct PutReport {
    /// Which packer produced the layout (`"fac"`, `"fixed"`, `"padding"`,
    /// `"oracle"`, or `"fixed-fallback"` when FAC exceeded the overhead
    /// threshold).
    pub policy_used: &'static str,
    /// Additional storage overhead vs optimal (fraction).
    pub overhead_vs_optimal: f64,
    /// Real wall-clock time the packer took (the paper's Figure 16c
    /// numerator).
    pub pack_runtime: std::time::Duration,
    /// The virtual-time workflow modelling this Put. `Store::put` does not
    /// run it: a caller that wants the Put's latency simulates it
    /// ([`Store::simulate_solo`], stretched by straggler multipliers like
    /// every solo workflow).
    pub workflow: Workflow,
    /// Total bytes stored (data + padding + parity + location map
    /// replicas).
    pub stored_bytes: u64,
    /// Number of stripes created.
    pub stripes: usize,
    /// Number of column chunks detected (0 for blobs).
    pub chunks: usize,
}

/// The wire-friendly residue of a [`PutReport`]: what a remote client
/// can know about its Put. The modelled workflow and packer wall-clock
/// stay behind on the server — they are time-plane observations, not
/// part of the storage contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Total bytes stored (data + padding + parity + metadata replicas).
    pub stored_bytes: u64,
    /// Number of stripes created.
    pub stripes: u64,
    /// Number of column chunks detected (0 for blobs).
    pub chunks: u64,
}

impl From<&PutReport> for PutOutcome {
    fn from(r: &PutReport) -> PutOutcome {
        PutOutcome {
            stored_bytes: r.stored_bytes,
            stripes: r.stripes as u64,
            chunks: r.chunks as u64,
        }
    }
}

/// Report returned by [`Store::recover_node`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks the node lost while it was down (reported by the data
    /// plane at revival; the repair below rebuilds object blocks and
    /// location-map replicas, so `stripes_repaired` can differ).
    pub blocks_lost: usize,
    /// Stripes that needed repair.
    pub stripes_repaired: usize,
    /// Bytes written to the recovered node.
    pub bytes_restored: u64,
    /// Repair traffic: bytes read from surviving nodes to rebuild the
    /// lost blocks (the number a repair-efficient code shrinks).
    pub repair_bytes_moved: u64,
    /// Simulated wall time of the repair on the virtual clock: per stripe,
    /// read `k` surviving blocks in parallel, ship them to the recovering
    /// node, decode, and write the rebuilt block.
    pub simulated_latency: Nanos,
}

/// The per-object location metadata the store keeps and replicates: the
/// paper's full map under the stored-map policies, or the compact layout
/// record (DESIGN.md §16) under [`PlacementPolicy::Deterministic`], where
/// chunk homes are recomputed on lookup instead of remembered per chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectMetaRecord {
    /// Paper wire format: 8 bytes per chunk.
    Stored(LocationMap),
    /// Compact fixed-header record; locations recomputed on lookup.
    Compact(LayoutRecord),
}

impl ObjectMetaRecord {
    /// Serializes whichever wire format the entry holds.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ObjectMetaRecord::Stored(m) => m.to_bytes(),
            ObjectMetaRecord::Compact(r) => r.to_bytes(),
        }
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        match self {
            ObjectMetaRecord::Stored(m) => m.byte_size(),
            ObjectMetaRecord::Compact(r) => r.byte_size(),
        }
    }
}

/// One stored object: its placement metadata, its metadata-plane record,
/// and where the record's replicas live on the data plane — tracked by
/// block id so delete can reclaim them and recovery can rewrite them in
/// place.
#[derive(Debug, Clone)]
struct Entry {
    meta: ObjectMeta,
    record: ObjectMetaRecord,
    replicas: Vec<(usize, BlockId)>,
}

/// The Fusion analytics object store (or, with
/// [`StoreConfig::baseline`], a MinIO/Ceph-class baseline).
///
/// # Examples
///
/// ```
/// use fusion_core::config::StoreConfig;
/// use fusion_core::store::Store;
/// use fusion_format::prelude::*;
///
/// let schema = Schema::new(vec![Field::new("x", LogicalType::Int64)]);
/// let table = Table::new(schema, vec![ColumnData::Int64((0..1000).collect())])?;
/// let bytes = write_table(&table, WriteOptions { rows_per_group: 250 })?;
///
/// let mut store = Store::new(StoreConfig::fusion())?;
/// let report = store.put("t", bytes.clone())?;
/// assert_eq!(report.chunks, 4);
/// assert_eq!(store.get("t", 0, bytes.len() as u64)?, bytes);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    code: ErasureCode,
    /// Failure-domain layout resolved from the cluster spec at
    /// construction (see [`fusion_cluster::spec::ClusterSpec::effective_topology`]).
    topology: Topology,
    blocks: BlockStore,
    /// The object table, in name order: an object and its metadata
    /// record are inserted and removed together, and every whole-store
    /// walk (recovery, scrub, listing) visits objects in the same order.
    objects: BTreeMap<String, Entry>,
    /// Membership epochs compact records resolve against: each entry is
    /// the alive-node set some object was placed over (index = epoch).
    epochs: Vec<Vec<usize>>,
    next_block: u64,
    rng: SmallRng,
    /// Straggler multipliers mirrored from the fault injector; fed into
    /// every simulation this store runs.
    slowdowns: HashMap<usize, f64>,
    /// Failed-then-revived nodes and how many RPC attempts to them time
    /// out before one succeeds (drives [`fusion_cluster::RetryPolicy`]).
    /// [`Store::apply_faults`] marks the nodes it revives;
    /// [`Store::recover_node`] clears a node.
    flaky: HashMap<usize, u32>,
    /// Worker pool for put's stripe encode, its only user (width =
    /// `StoreConfig::ec_threads`); every repair runs inline.
    pool: WorkerPool,
    /// Per-node encoded-chunk cache: repeated queries skip the chunk
    /// read + parse (capacity from [`StoreConfig::chunk_cache_bytes`]).
    chunk_cache: ChunkCache,
    /// The grouped stage's counters, resolved at the first grouped query
    /// (a store that never groups exports neither).
    grouped_counters: OnceLock<GroupedCounters>,
}

/// Metric handles of the grouped-aggregation stage.
#[derive(Debug)]
pub(crate) struct GroupedCounters {
    /// `agg_groups_emitted`: groups the row groups' partials held.
    pub(crate) groups_emitted: Arc<Counter>,
    /// `agg_wire_bytes_saved`: projected-row bytes the keyed states
    /// replaced.
    pub(crate) wire_bytes_saved: Arc<Counter>,
}

/// Longest object key the request boundary accepts, in bytes (S3 caps
/// keys at 1 KiB; anything longer from the wire is hostile or broken).
pub const MAX_KEY_BYTES: usize = 1024;

/// Validates an object key at the request boundary: non-empty, at most
/// [`MAX_KEY_BYTES`] bytes. Service workers feed untrusted wire input
/// straight into [`Store::get`]/[`Store::put`]/query, so a bad key must
/// come back as a typed [`StoreError::InvalidRequest`], never a panic or
/// an unbounded allocation keyed on attacker-controlled strings.
pub fn validate_key(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(StoreError::InvalidRequest("empty object key".into()));
    }
    if name.len() > MAX_KEY_BYTES {
        return Err(StoreError::InvalidRequest(format!(
            "object key of {} bytes exceeds the {MAX_KEY_BYTES}-byte cap",
            name.len()
        )));
    }
    Ok(())
}

/// Trims a shard rebuilt at full stripe width to the bytes stored for
/// it: a data bin is stored unpadded, parity at the stripe width.
pub(crate) fn trim_to_stored(
    meta: &ObjectMeta,
    stripe: usize,
    shard: usize,
    mut bytes: Vec<u8>,
) -> Vec<u8> {
    let width = meta.placement[stripe].width;
    let stored = meta.layout.stripes[stripe]
        .bins
        .get(shard)
        .map_or(width, |b| b.stored_len());
    debug_assert!(stored <= width && bytes.len() as u64 == width);
    bytes.truncate(stored as usize);
    bytes
}

/// One stripe's encode work unit: assembled data blocks in, parity out.
/// Jobs are mutated on pool workers, so everything lives inside the job —
/// no shared mutable state on the hot path.
struct StripeJob {
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
}

impl Store {
    /// Creates an empty store over a fresh simulated cluster.
    ///
    /// # Errors
    ///
    /// Invalid erasure-code parameters, or fewer cluster nodes than `n`.
    pub fn new(config: StoreConfig) -> Result<Store> {
        let code = config.ec.build_codec()?;
        if config.cluster.nodes < config.ec.n {
            return Err(StoreError::Internal(format!(
                "cluster has {} nodes but {} needs {}",
                config.cluster.nodes, config.ec, config.ec.n
            )));
        }
        let topology = config.cluster.effective_topology();
        Ok(Store {
            code,
            topology,
            blocks: BlockStore::new(config.cluster.nodes),
            objects: BTreeMap::new(),
            epochs: Vec::new(),
            next_block: 0,
            rng: SmallRng::seed_from_u64(config.seed),
            slowdowns: HashMap::new(),
            flaky: HashMap::new(),
            pool: WorkerPool::new(config.ec_threads),
            chunk_cache: ChunkCache::new(config.chunk_cache_bytes as usize),
            grouped_counters: OnceLock::new(),
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The erasure code.
    pub fn codec(&self) -> &ErasureCode {
        &self.code
    }

    /// The failure-domain topology this store places shards against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Metadata of a stored object.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`].
    pub fn object(&self, name: &str) -> Result<&ObjectMeta> {
        self.objects
            .get(name)
            .map(|e| &e.meta)
            .ok_or_else(|| StoreError::ObjectNotFound(name.to_string()))
    }

    /// Names of stored objects, sorted.
    pub fn object_names(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    /// The location map of an object plus its replica nodes. Under the
    /// deterministic policy the map is materialized from the compact
    /// record — bit-identical to what a stored map would contain.
    pub fn location_map(&self, name: &str) -> Option<(LocationMap, Vec<usize>)> {
        let entry = self.objects.get(name)?;
        let nodes = entry.replicas.iter().map(|&(n, _)| n).collect();
        let map = match &entry.record {
            ObjectMetaRecord::Stored(map) => map.clone(),
            ObjectMetaRecord::Compact(rec) => rec
                .materialize(
                    &entry.meta,
                    self.config.seed,
                    placement::object_key("", name),
                    &self.code,
                    &self.epochs[rec.epoch as usize],
                    &self.topology,
                )
                .ok()?,
        };
        Some((map, nodes))
    }

    /// The raw metadata record of an object (stored map or compact).
    pub fn meta_record(&self, name: &str) -> Option<&ObjectMetaRecord> {
        self.objects.get(name).map(|e| &e.record)
    }

    /// Serialized metadata bytes held for an object across its replicas.
    pub fn metadata_bytes(&self, name: &str) -> Option<u64> {
        self.objects
            .get(name)
            .map(|e| e.record.byte_size() * e.replicas.len() as u64)
    }

    /// Reads an object's location metadata back off the data plane (first
    /// readable replica), validating the payload before use — a node id
    /// outside the cluster, an epoch outside the store's history, a code
    /// other than the store's, or a chunk count other than the object's
    /// is a typed error, not a panic or a silently misrouted read.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`], [`StoreError::Metadata`] on a
    /// malformed payload or one that does not describe the object, or an
    /// internal error when no replica is readable.
    pub fn read_location_map(&self, name: &str) -> Result<LocationMap> {
        let entry = self
            .objects
            .get(name)
            .ok_or_else(|| StoreError::ObjectNotFound(name.to_string()))?;
        let nodes = self.config.cluster.nodes;
        let expected = entry.meta.num_chunks();
        let chunk_count = |got: usize| {
            if got == expected {
                Ok(())
            } else {
                Err(LocationMapError::ChunkCount { got, expected })
            }
        };
        for &(node, block) in &entry.replicas {
            let Ok(bytes) = self.blocks.get(node, block) else {
                continue;
            };
            let map = match &entry.record {
                ObjectMetaRecord::Stored(_) => {
                    let map = LocationMap::from_bytes_checked(&bytes, nodes)?;
                    chunk_count(map.entries.len())?;
                    map
                }
                ObjectMetaRecord::Compact(_) => {
                    let rec = LayoutRecord::from_bytes_checked(&bytes, nodes)?;
                    let members = self.epochs.get(rec.epoch as usize).ok_or(
                        LocationMapError::UnknownEpoch {
                            epoch: rec.epoch,
                            epochs: self.epochs.len(),
                        },
                    )?;
                    if rec.code != CodeId::from(self.config.ec) {
                        let CodeId { n, k, local_groups } = rec.code;
                        return Err(LocationMapError::WrongCode { n, k, local_groups }.into());
                    }
                    // `materialize` sizes its entries and homes by the
                    // record's own count, so check that count first.
                    chunk_count(rec.chunks as usize)?;
                    rec.materialize(
                        &entry.meta,
                        self.config.seed,
                        placement::object_key("", name),
                        &self.code,
                        members,
                        &self.topology,
                    )?
                }
            };
            return Ok(map);
        }
        Err(StoreError::Internal(format!(
            "no readable location-map replica for {name}"
        )))
    }

    /// Total bytes stored across the cluster (blocks + map replicas).
    pub fn stored_bytes(&self) -> u64 {
        self.blocks.total_bytes()
    }

    /// Direct access to the block data plane (read-only uses in queries
    /// and tests).
    pub fn blocks(&self) -> &BlockStore {
        &self.blocks
    }

    /// The cluster-wide metrics registry (shared with the data plane's
    /// per-node serve counters; store-level counters — shard
    /// reconstructions, scrub heals, fault injections — land here too).
    pub fn metrics(&self) -> &fusion_obs::metrics::MetricsRegistry {
        self.blocks.metrics()
    }

    /// The grouped stage's counters, resolved once.
    pub(crate) fn grouped_counters(&self) -> &GroupedCounters {
        self.grouped_counters.get_or_init(|| GroupedCounters {
            groups_emitted: self.metrics().counter("agg_groups_emitted"),
            wire_bytes_saved: self.metrics().counter("agg_wire_bytes_saved"),
        })
    }

    /// Mutable access to the data plane (management operations and fault
    /// injection in tests).
    pub fn blocks_mut(&mut self) -> &mut BlockStore {
        &mut self.blocks
    }

    /// Removes and returns an object's metadata plus the `(node, block)`
    /// location of every metadata replica (used by delete, which must
    /// reclaim the replica blocks too).
    pub(crate) fn take_object(
        &mut self,
        name: &str,
    ) -> Option<(ObjectMeta, Vec<(usize, BlockId)>)> {
        self.objects.remove(name).map(|e| (e.meta, e.replicas))
    }

    /// The coordinator node for an object: hash of the name over alive
    /// nodes (paper §5 — every node can coordinate; no dedicated
    /// coordinator).
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] when no node is alive — a fully-dead
    /// cluster must reject the request, not divide by zero (this is
    /// reachable from untrusted wire input in service mode).
    pub fn coordinator_of(&self, name: &str) -> Result<usize> {
        let alive = self.blocks.alive_nodes();
        if alive.is_empty() {
            return Err(StoreError::Unavailable(
                "no alive nodes to coordinate the request".into(),
            ));
        }
        let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        Ok(alive[(h % alive.len() as u64) as usize])
    }

    fn fresh_block(&mut self) -> BlockId {
        self.next_block += 1;
        BlockId(self.next_block)
    }

    /// The epoch index for a membership set, reusing an existing epoch
    /// when the same set was already recorded (membership changes are
    /// rare, so the history stays tiny).
    fn epoch_of(&mut self, members: &[usize]) -> u32 {
        match self.epochs.iter().rposition(|m| m == members) {
            Some(i) => i as u32,
            None => {
                self.epochs.push(members.to_vec());
                (self.epochs.len() - 1) as u32
            }
        }
    }

    /// Stores an object. Analytics files (recognized by the trailing
    /// magic) are packed with the configured layout policy; other blobs use
    /// fixed blocks.
    ///
    /// # Errors
    ///
    /// Duplicate names, corrupt analytics footers, or cluster failures.
    pub fn put(&mut self, name: &str, data: Vec<u8>) -> Result<PutReport> {
        validate_key(name)?;
        if self.objects.contains_key(name) {
            return Err(StoreError::ObjectExists(name.to_string()));
        }
        let size = data.len() as u64;
        let ec = self.config.ec;

        // 1. Layout: the configured packer over the footer's column
        //    chunks, fixed blocks for a blob (timed for Figure 16c).
        let file_meta = parse_footer(&data).ok();
        let items = file_meta
            .as_ref()
            .map_or_else(Vec::new, |meta| items_from_meta(meta, size));
        let t0 = std::time::Instant::now();
        let (layout, policy_used) = layout::pack(&self.config, size, &items);
        let pack_runtime = t0.elapsed();
        let overhead = layout.overhead_vs_optimal(ec);

        // 2. Placement: the nodes of every stripe and of the metadata
        //    record's k + 1 replicas, from one pass.
        let alive = self.blocks.alive_nodes();
        if alive.len() < ec.n {
            return Err(StoreError::Internal(format!(
                "only {} alive nodes, {} required",
                alive.len(),
                ec.n
            )));
        }
        let okey = placement::object_key("", name);
        let (stripe_nodes, replica_nodes) = placement::place_object(
            self.config.placement,
            self.config.seed,
            &mut self.rng,
            okey,
            &self.code,
            &self.topology,
            &alive,
            layout.stripes.len(),
            ec.k + 1,
        );

        // 3. Assemble data block contents (pieces + physical padding) for
        //    every stripe.
        let mut jobs: Vec<StripeJob> = Vec::with_capacity(layout.stripes.len());
        for stripe in &layout.stripes {
            let data_blocks: Vec<Vec<u8>> = stripe
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
                .collect();
            jobs.push(StripeJob {
                data: data_blocks,
                parity: Vec::new(),
            });
        }

        // Encode all stripes across the worker pool. Each job owns its
        // buffers, parity included; the codec (and its coefficient table
        // cache) is shared read-only, so workers never synchronize.
        {
            let code = &self.code;
            self.pool.for_each_mut(&mut jobs, |_, job| {
                code.encode_into(&job.data, &mut job.parity)
            });
        }

        // 4. Write each stripe's k data blocks, then its parity, to its
        //    nodes in shard order.
        let mut placement = Vec::with_capacity(layout.stripes.len());
        let mut stored_bytes = 0u64;
        for ((stripe, job), nodes) in layout.stripes.iter().zip(jobs).zip(stripe_nodes) {
            let width = stripe.block_size();
            debug_assert!(job.parity.iter().all(|p| p.len() as u64 == width));
            let mut block_ids = Vec::with_capacity(ec.n);
            for (content, &node) in job.data.into_iter().chain(job.parity).zip(&nodes) {
                let id = self.fresh_block();
                stored_bytes += content.len() as u64;
                self.blocks.put(node, id, Bytes::from(content))?;
                block_ids.push(id);
            }
            placement.push(StripePlacement {
                nodes,
                block_ids,
                width,
            });
        }

        let meta = ObjectMeta::new(
            name.to_string(),
            size,
            layout,
            placement,
            file_meta,
            policy_used,
            overhead,
        );

        // 5. Build the metadata record — the paper's full map, or the
        //    compact layout record under deterministic placement (with
        //    the stored map as its differential oracle; DESIGN.md §16) —
        //    and write it to its replica nodes.
        let record = if self.config.placement == PlacementPolicy::Deterministic {
            let epoch = self.epoch_of(&alive);
            let rec = LayoutRecord::from_meta(
                &meta,
                epoch,
                ec,
                self.config.seed,
                okey,
                &self.code,
                &alive,
                &self.topology,
            );
            debug_assert_eq!(
                rec.materialize(
                    &meta,
                    self.config.seed,
                    okey,
                    &self.code,
                    &alive,
                    &self.topology
                ),
                LocationMap::build(&meta),
                "compact record must materialize the oracle map"
            );
            ObjectMetaRecord::Compact(rec)
        } else {
            ObjectMetaRecord::Stored(LocationMap::build(&meta)?)
        };
        let map_bytes = record.to_bytes();
        let mut replicas = Vec::with_capacity(replica_nodes.len());
        for &n in &replica_nodes {
            let id = self.fresh_block();
            stored_bytes += map_bytes.len() as u64;
            self.blocks.put(n, id, Bytes::from(map_bytes.clone()))?;
            replicas.push((n, id));
        }

        // 6. Model the Put on the virtual clock (the caller simulates it).
        let workflow = self.put_workflow(
            &meta,
            size,
            stored_bytes,
            pack_runtime,
            map_bytes.len() as u64,
            &replica_nodes,
        );

        let stripes = meta.layout.stripes.len();
        let chunks = meta.num_chunks();
        self.objects.insert(
            name.to_string(),
            Entry {
                meta,
                record,
                replicas,
            },
        );

        Ok(PutReport {
            policy_used,
            overhead_vs_optimal: overhead,
            pack_runtime,
            workflow,
            stored_bytes,
            stripes,
            chunks,
        })
    }

    /// Builds the virtual-time workflow of a Put: client ships the object
    /// to the coordinator; the coordinator packs and erasure codes; blocks
    /// fan out to their nodes and are written to disk; the metadata
    /// record fans out to its replica nodes (charged under
    /// [`Phase::Metadata`], so the metadata plane's RPC cost is visible
    /// in the phase breakdown).
    fn put_workflow(
        &self,
        meta: &ObjectMeta,
        size: u64,
        stored_bytes: u64,
        pack_runtime: std::time::Duration,
        meta_bytes: u64,
        replicas: &[usize],
    ) -> Workflow {
        let cost = &self.config.cluster.cost;
        // Put just wrote this object's blocks, so at least one node is
        // alive; the fallback keeps this modelling path infallible anyway.
        let coord = self.coordinator_of(&meta.name).unwrap_or(0);
        let mut wf = Workflow::new();
        // Client -> coordinator: the whole object.
        let tx = wf.step(
            ResourceKey::ClientNicTx,
            cost.wire(size),
            CostClass::Network,
            &[],
        );
        wf.transfer_bytes(tx, size);
        let lat = wf.step(
            ResourceKey::Delay,
            cost.rpc_overhead,
            CostClass::Network,
            &[tx],
        );
        let rx = wf.step(
            ResourceKey::NicRx(coord),
            cost.wire(size),
            CostClass::Network,
            &[lat],
        );
        // Pack (real measured runtime) + erasure encode.
        let pack = wf.step(
            ResourceKey::Cpu(coord),
            Nanos::from_secs_f64(pack_runtime.as_secs_f64()),
            CostClass::Processing,
            &[rx],
        );
        let encode = wf.step(
            ResourceKey::Cpu(coord),
            cost.ec_at(stored_bytes, FAST_CODEC_SPEEDUP),
            CostClass::Processing,
            &[pack],
        );
        // One coordinator-to-node write: a local disk write when the node
        // is the coordinator; otherwise the bytes cross its NIC, one RPC
        // delay and the node's NIC, then hit the node's disk.
        let write = |wf: &mut Workflow, node: usize, bytes: u64| {
            let after = if node == coord {
                encode
            } else {
                let tx = wf.step(
                    ResourceKey::NicTx(coord),
                    cost.wire(bytes),
                    CostClass::Network,
                    &[encode],
                );
                wf.transfer_bytes(tx, bytes);
                let lat = wf.step(
                    ResourceKey::Delay,
                    cost.rpc_overhead,
                    CostClass::Network,
                    &[tx],
                );
                wf.step(
                    ResourceKey::NicRx(node),
                    cost.wire(bytes),
                    CostClass::Network,
                    &[lat],
                )
            };
            wf.step(
                ResourceKey::Disk(node),
                cost.disk_read(bytes),
                CostClass::DiskRead,
                &[after],
            );
        };
        // Blocks fan out to their nodes, each charged at the stripe width
        // (conservative: every block is at most that wide); then the
        // metadata plane's location record fans out to its replicas.
        for sp in &meta.placement {
            for &node in &sp.nodes {
                write(&mut wf, node, sp.width);
            }
        }
        let prev = wf.set_phase(Phase::Metadata);
        for &node in replicas {
            write(&mut wf, node, meta_bytes);
        }
        wf.set_phase(prev);
        wf
    }

    /// Reads `len` bytes at `offset`. Transparently reconstructs from
    /// parity when a hosting node is down, the block is missing (a node
    /// that revived empty), or its checksum no longer matches (detected
    /// bit rot) — a degraded read. Corruption is thus never served and
    /// never fatal while the stripe stays recoverable.
    ///
    /// # Errors
    ///
    /// Unknown object, out-of-range request, or unrecoverable data loss.
    pub fn get(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        validate_key(name)?;
        let meta = self.object(name)?;
        // `offset + len` on untrusted wire input can wrap u64 and sneak
        // past the range check; checked arithmetic keeps it typed.
        let end = offset.checked_add(len).ok_or_else(|| {
            StoreError::InvalidRequest(format!("range {offset}+{len} overflows u64"))
        })?;
        if end > meta.size {
            return Err(StoreError::OutOfRange {
                offset,
                len,
                size: meta.size,
            });
        }
        if len == 0 {
            // A zero-length range inside the object is a valid no-op read;
            // skip the locate fan-out entirely.
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(len as usize);
        for frag in meta.locate(offset, len) {
            match self.blocks.get_range(
                frag.node,
                frag.block,
                frag.offset_in_block as usize,
                frag.len as usize,
            ) {
                Ok(bytes) => {
                    // A healthy block may still be shorter than the
                    // requested range only through corruption.
                    if bytes.len() as u64 != frag.len {
                        return Err(StoreError::Internal(format!(
                            "short read: wanted {}, got {}",
                            frag.len,
                            bytes.len()
                        )));
                    }
                    out.extend_from_slice(&bytes);
                }
                Err(
                    ClusterError::NodeDown(_)
                    | ClusterError::NoSuchBlock { .. }
                    | ClusterError::Corrupt { .. },
                ) => {
                    // Degraded path: rebuild the bin from the stripe.
                    let (stripe_idx, bin_idx) = self
                        .stripe_of(meta, frag.block)
                        .ok_or_else(|| StoreError::Internal("fragment without stripe".into()))?;
                    let (rebuilt, sources) = self.rebuild_shard(meta, stripe_idx, bin_idx, None)?;
                    self.account_degraded_read(&meta.placement[stripe_idx], bin_idx, &sources);
                    let s = frag.offset_in_block as usize;
                    let e = s + frag.len as usize;
                    out.extend_from_slice(&rebuilt[s..e]);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    pub(crate) fn stripe_of(&self, meta: &ObjectMeta, block: BlockId) -> Option<(usize, usize)> {
        for (si, sp) in meta.placement.iter().enumerate() {
            if let Some(bi) = sp.block_ids.iter().position(|&b| b == block) {
                return Some((si, bi));
            }
        }
        None
    }

    /// The shard indices a rebuild of shard `lost` reads right now: the
    /// code's cheapest repair set against live `has_block` probes. Every
    /// rebuild plans with it, and so does the time-plane model of a
    /// degraded read. `None` when the stripe is unrecoverable.
    pub fn surviving_repair_shards(&self, sp: &StripePlacement, lost: usize) -> Option<Vec<usize>> {
        let n = self.code.total_blocks();
        let avail: Vec<bool> = (0..n)
            .map(|i| i != lost && self.blocks.has_block(sp.nodes[i], sp.block_ids[i]))
            .collect();
        self.code.repair_sources(lost, &avail)
    }

    /// Rebuilds shard `bin` of stripe `stripe`: the one repair routine
    /// behind degraded reads, [`Store::recover_node`] and scrub heals. It
    /// runs inline on the caller's thread, in three steps:
    ///
    /// 1. plan the code's cheapest repair set with
    ///    [`Store::surviving_repair_shards`] — any `k` survivors, data
    ///    shards first, for Reed-Solomon; the local group for an LRC
    ///    single loss;
    /// 2. read exactly those sources, unless the caller passes the
    ///    stripe's shards it already holds (scrub reads every block). A
    ///    probe and a read consult the same CRC verdict, so a planned
    ///    source that fails to read is an error, not a reason to re-plan;
    /// 3. `repair_one`, then trim to the bytes stored for the shard.
    ///
    /// Returns the rebuilt bytes and the source shard indices.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unrecoverable`] when too few shards survive, or the
    /// data-plane error of a failed source read.
    pub(crate) fn rebuild_shard(
        &self,
        meta: &ObjectMeta,
        stripe: usize,
        bin: usize,
        held: Option<ShardBuf>,
    ) -> Result<(Vec<u8>, Vec<usize>)> {
        let sp = &meta.placement[stripe];
        let sources = self
            .surviving_repair_shards(sp, bin)
            .ok_or(StoreError::Unrecoverable(ReconstructError::NotRecoverable))?;
        let mut shards = match held {
            Some(shards) => shards,
            None => {
                let mut shards = vec![None; sp.nodes.len()];
                for &s in &sources {
                    shards[s] = Some(self.blocks.get(sp.nodes[s], sp.block_ids[s])?.to_vec());
                }
                shards
            }
        };
        self.code.repair_one(&mut shards, bin, sp.width as usize)?;
        let rebuilt = shards[bin].take().expect("repair_one fills the lost slot");
        Ok((trim_to_stored(meta, stripe, bin, rebuilt), sources))
    }

    /// Charges one rebuilt shard to the metrics registry: its home
    /// node's `shards_reconstructed`, cluster-wide `repair_bytes_moved`
    /// and each source's `repair_bytes_served`. Traffic is at wire
    /// granularity — every source moves a full-width block, matching the
    /// time-plane network charge. Returns the bytes moved.
    fn account_repair(&self, sp: &StripePlacement, bin: usize, sources: &[usize]) -> u64 {
        let metrics = self.metrics();
        let moved = sources.len() as u64 * sp.width;
        metrics
            .node(sp.nodes[bin])
            .counter("shards_reconstructed")
            .inc();
        metrics.counter("repair_bytes_moved").add(moved);
        for &s in sources {
            metrics
                .node(sp.nodes[s])
                .counter("repair_bytes_served")
                .add(sp.width);
        }
        moved
    }

    /// Charges a degraded read's rebuild: [`Store::account_repair`] plus
    /// a `degraded_read_ns` estimate from the cost model (serial disk
    /// read + one RPC + the source shards crossing the wire + decode).
    fn account_degraded_read(&self, sp: &StripePlacement, bin: usize, sources: &[usize]) {
        self.account_repair(sp, bin, sources);
        let cost = &self.config.cluster.cost;
        let ns = cost.disk_read(sp.width).0
            + cost.rpc_overhead.0
            + cost.wire(sp.width).0 * sources.len() as u64
            + cost
                .ec_at(sp.width * sources.len() as u64, FAST_CODEC_SPEEDUP)
                .0;
        self.metrics().histogram("degraded_read_ns").record(ns);
    }

    /// Marks a node failed. Its blocks are lost until
    /// [`Store::recover_node`].
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn fail_node(&mut self, node: usize) -> Result<()> {
        self.blocks.fail_node(node)?;
        // Whatever that node had cached is gone with it; queries must not
        // serve views the data plane can no longer back.
        self.chunk_cache.clear();
        Ok(())
    }

    /// Brings a node back (as an empty replacement) and restores every
    /// block it should hold via erasure-code reconstruction.
    ///
    /// # Errors
    ///
    /// Unknown node or unrecoverable stripes.
    pub fn recover_node(&mut self, node: usize) -> Result<RecoveryReport> {
        let blocks_lost = self.blocks.revive_node(node)?;
        // The replacement node starts cold.
        self.chunk_cache.clear();
        let mut report = RecoveryReport {
            blocks_lost,
            ..RecoveryReport::default()
        };
        // The node answers RPCs again; stop charging retry penalties.
        self.flaky.remove(&node);
        let cost = self.config.cluster.cost.clone();
        let mut wf = Workflow::new();
        // One loop in name order (the object table is ordered): the walk
        // fixes the order of the repair workflow's steps, and with it the
        // queueing on the virtual clock. Each lost block is rebuilt from
        // its stripe's cheapest repair set, charged, modelled and written
        // back before the next.
        for entry in self.objects.values() {
            let meta = &entry.meta;
            for (si, sp) in meta.placement.iter().enumerate() {
                for (bi, (&bnode, &bid)) in sp.nodes.iter().zip(&sp.block_ids).enumerate() {
                    if bnode != node || self.blocks.has_block(bnode, bid) {
                        continue;
                    }
                    let (content, sources) = self.rebuild_shard(meta, si, bi, None)?;
                    report.stripes_repaired += 1;
                    report.bytes_restored += content.len() as u64;
                    report.repair_bytes_moved += self.account_repair(sp, bi, &sources);

                    let width = sp.width;
                    let mut arrived = Vec::with_capacity(sources.len());
                    for &s in &sources {
                        let src = sp.nodes[s];
                        let read = wf.step(
                            ResourceKey::Disk(src),
                            cost.disk_read(width),
                            CostClass::DiskRead,
                            &[],
                        );
                        let tx = wf.step(
                            ResourceKey::NicTx(src),
                            cost.wire(width),
                            CostClass::Network,
                            &[read],
                        );
                        wf.transfer_bytes(tx, width);
                        arrived.push(wf.step(
                            ResourceKey::NicRx(node),
                            cost.wire(width),
                            CostClass::Network,
                            &[tx],
                        ));
                    }
                    // Decode cost scales with the bytes actually combined
                    // — a local-group repair touches r shards, not k.
                    let decode = wf.step(
                        ResourceKey::Cpu(node),
                        cost.ec_at(width * sources.len() as u64, FAST_CODEC_SPEEDUP),
                        CostClass::Processing,
                        &arrived,
                    );
                    wf.step(
                        ResourceKey::Disk(node),
                        cost.disk_read(content.len() as u64),
                        CostClass::DiskRead,
                        &[decode],
                    );
                    self.blocks.put(node, bid, Bytes::from(content))?;
                }
            }
        }

        // Restore metadata-record replicas that lived on the node. The
        // record is recomputable from object metadata, so this is a
        // local rewrite; the tracked block id is refreshed in place.
        let names: Vec<String> = self.objects.keys().cloned().collect();
        for name in &names {
            let todo = self.objects.get(name).and_then(|entry| {
                entry
                    .replicas
                    .iter()
                    .position(|&(n, _)| n == node)
                    .map(|i| (i, entry.record.to_bytes()))
            });
            if let Some((i, bytes)) = todo {
                let id = self.fresh_block();
                report.bytes_restored += bytes.len() as u64;
                self.blocks.put(node, id, Bytes::from(bytes))?;
                if let Some(entry) = self.objects.get_mut(name) {
                    entry.replicas[i].1 = id;
                }
            }
        }
        if !wf.is_empty() {
            report.simulated_latency = self.simulate_solo(&wf);
        }
        Ok(report)
    }

    /// Rewrites in place, from the record, every replica of `name`'s
    /// metadata record that an alive node can no longer serve (rotted or
    /// missing). Replicas on down nodes wait for [`Store::recover_node`].
    /// Returns the nodes rewritten.
    pub(crate) fn heal_replicas(&mut self, name: &str) -> Vec<usize> {
        let Some(entry) = self.objects.get(name) else {
            return Vec::new();
        };
        let mut healed = Vec::new();
        for &(node, block) in &entry.replicas {
            if !self.blocks.is_alive(node) || self.blocks.has_block(node, block) {
                continue;
            }
            let bytes = Bytes::from(entry.record.to_bytes());
            if self.blocks.put(node, block, bytes).is_ok() {
                healed.push(node);
            }
        }
        healed
    }

    /// Advances a fault injector to virtual time `to` against this
    /// store's data plane, then mirrors the injector's stragglers and
    /// marks every node this call revived flaky, so subsequent queries
    /// and repairs model slowdowns and retry penalties. Returns what
    /// fired.
    pub fn apply_faults(&mut self, inj: &mut FaultInjector, to: Nanos) -> Vec<AppliedFault> {
        let applied = inj.advance(to, &mut self.blocks);
        if !applied.is_empty() {
            // Failed/corrupted/revived blocks invalidate cached views.
            self.chunk_cache.clear();
        }
        // Export the injector's per-node fault/revival tallies into the
        // cluster registry (idempotent delta-add).
        inj.publish_metrics(self.blocks.metrics());
        self.slowdowns = inj.slowdowns();
        for fault in &applied {
            if let AppliedFault::Revived { node, .. } = *fault {
                // Its first attempt times out; recover_node clears it.
                self.flaky.insert(node, 1);
            }
        }
        applied
    }

    /// Current straggler multipliers (node → factor > 1.0).
    pub fn slowdowns(&self) -> &HashMap<usize, f64> {
        &self.slowdowns
    }

    /// How many RPC attempts to `node` time out before one succeeds
    /// (non-zero only for recently revived nodes).
    pub fn flaky_attempts(&self, node: usize) -> u32 {
        self.flaky.get(&node).copied().unwrap_or(0)
    }

    /// The retry-policy delay charged ahead of any step on `node`
    /// (zero for healthy nodes).
    pub fn retry_penalty(&self, node: usize) -> Nanos {
        self.config.cluster.retry.penalty(self.flaky_attempts(node))
    }

    /// The per-node encoded-chunk cache (counters and tests).
    pub fn chunk_cache(&self) -> &ChunkCache {
        &self.chunk_cache
    }

    /// Reads the full raw bytes of one column chunk (reassembling
    /// fragments if the layout split it; degraded reads supported).
    ///
    /// # Errors
    ///
    /// Unknown object/chunk, or unrecoverable loss.
    pub fn chunk_bytes(&self, name: &str, ordinal: usize) -> Result<Vec<u8>> {
        let meta = self.object(name)?;
        let frags = meta.chunk_fragments(ordinal);
        if frags.is_empty() {
            return Err(StoreError::Internal(format!(
                "no such chunk ordinal {ordinal}"
            )));
        }
        let start = frags[0].object_offset;
        let len: u64 = frags.iter().map(|f| f.len).sum();
        self.get(name, start, len)
    }

    /// Query-mode accessor used by the executors.
    pub fn query_mode(&self) -> QueryMode {
        self.config.query_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_format::prelude::*;

    fn analytics_bytes(rows: usize, per_group: usize) -> Vec<u8> {
        let schema = Schema::new(vec![
            Field::new("id", LogicalType::Int64),
            Field::new("flag", LogicalType::Utf8),
        ]);
        let table = Table::new(
            schema,
            vec![
                ColumnData::Int64((0..rows as i64).collect()),
                ColumnData::Utf8((0..rows).map(|i| ["N", "O", "F"][i % 3].into()).collect()),
            ],
        )
        .unwrap();
        write_table(
            &table,
            WriteOptions {
                rows_per_group: per_group,
            },
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_fusion() {
        let bytes = analytics_bytes(5000, 250);
        // Small files have few chunks; loosen the overhead budget so FAC
        // does not fall back (the 2% default targets 100+ chunks).
        let mut cfg = StoreConfig::fusion();
        cfg.overhead_threshold = 0.5;
        let mut store = Store::new(cfg).unwrap();
        let report = store.put("obj", bytes.clone()).unwrap();
        assert_eq!(report.policy_used, "fac");
        assert_eq!(report.chunks, 40); // 20 row groups x 2 cols
        assert!(report.overhead_vs_optimal <= store.config().overhead_threshold + 1e-9);
        let meta = store.object("obj").unwrap();
        for c in 0..meta.num_chunks() {
            assert_eq!(
                meta.chunk_fragments(c).len(),
                1,
                "FAC must not split chunk {c}"
            );
        }
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
        // Ranged read.
        assert_eq!(
            store.get("obj", 100, 500).unwrap(),
            bytes[100..600].to_vec()
        );
    }

    #[test]
    fn put_get_roundtrip_baseline() {
        let bytes = analytics_bytes(3000, 1000);
        let mut store = Store::new(StoreConfig::baseline().with_block_size(4096)).unwrap();
        let report = store.put("obj", bytes.clone()).unwrap();
        assert_eq!(report.policy_used, "fixed");
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
    }

    #[test]
    fn blob_objects_use_fixed() {
        let blob: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut store = Store::new(StoreConfig::fusion().with_block_size(1 << 12)).unwrap();
        let report = store.put("blob", blob.clone()).unwrap();
        assert_eq!(report.policy_used, "fixed");
        assert_eq!(report.chunks, 0);
        assert_eq!(store.get("blob", 0, blob.len() as u64).unwrap(), blob);
    }

    #[test]
    fn duplicate_put_rejected() {
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("x", analytics_bytes(100, 50)).unwrap();
        assert!(matches!(
            store.put("x", vec![1, 2, 3]),
            Err(StoreError::ObjectExists(_))
        ));
    }

    #[test]
    fn out_of_range_get() {
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        let bytes = analytics_bytes(100, 50);
        let size = bytes.len() as u64;
        store.put("x", bytes).unwrap();
        assert!(matches!(
            store.get("x", size - 1, 2),
            Err(StoreError::OutOfRange { .. })
        ));
        assert!(store.get("missing", 0, 1).is_err());
    }

    #[test]
    fn degraded_read_after_failures() {
        let bytes = analytics_bytes(4000, 800);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        // RS(9,6) tolerates 3 failures.
        store.fail_node(0).unwrap();
        store.fail_node(4).unwrap();
        store.fail_node(8).unwrap();
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
    }

    #[test]
    fn too_many_failures_unrecoverable() {
        let bytes = analytics_bytes(2000, 500);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        // Fail the node holding the first data block, then three more:
        // its stripe now has only five of the six survivors RS(9,6)
        // needs, so the read must fail rather than return wrong data.
        let first_data_node = store.object("obj").unwrap().node_of(0, 0);
        store.fail_node(first_data_node).unwrap();
        let mut failed = 1;
        for n in 0..9 {
            if failed == 4 {
                break;
            }
            if n != first_data_node {
                store.fail_node(n).unwrap();
                failed += 1;
            }
        }
        let r = store.get("obj", 0, bytes.len() as u64);
        assert!(r.is_err(), "read should fail with 4 of 9 nodes lost");
    }

    #[test]
    fn degraded_read_touches_exactly_k_shards() {
        let bytes = analytics_bytes(2000, 500);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        // Fail the node holding the first data block, so a 1-byte read
        // at offset 0 must reconstruct.
        let dead = store.object("obj").unwrap().node_of(0, 0);
        store.fail_node(dead).unwrap();
        let before = store.blocks().reads();
        assert_eq!(store.get("obj", 0, 1).unwrap(), bytes[..1].to_vec());
        let read = store.blocks().reads() - before;
        assert_eq!(
            read,
            store.config().ec.k as u64,
            "degraded read must touch exactly k surviving shards"
        );
    }

    #[test]
    fn shard_selection_prefers_data_shards() {
        let bytes = analytics_bytes(2000, 500);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes).unwrap();
        let (k, n) = (store.config().ec.k, store.config().ec.n);
        // Repairing data shard 1 pulls the other data shards plus
        // exactly one parity shard (RS prefers the systematic part).
        let sp = store.object("obj").unwrap().placement[0].clone();
        let picked = store.surviving_repair_shards(&sp, 1).unwrap();
        assert_eq!(picked.len(), k);
        assert!(!picked.contains(&1));
        assert_eq!(picked.iter().filter(|&&i| i >= k).count(), 1);
        // Actually losing that node leaves the plan unchanged.
        store.fail_node(sp.nodes[1]).unwrap();
        assert_eq!(store.surviving_repair_shards(&sp, 1).unwrap(), picked);
        let _ = n;
    }

    #[test]
    fn fail_revive_recover_roundtrip() {
        let bytes = analytics_bytes(4000, 800);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        let node = store.object("obj").unwrap().placement[0].nodes[0];
        let held = store.blocks().blocks_on(node).len();
        assert!(held > 0);
        store.fail_node(node).unwrap();
        // Crash-stop: the blocks are gone, and recovery must both report
        // the loss and rebuild every one of them.
        let report = store.recover_node(node).unwrap();
        assert_eq!(report.blocks_lost, held);
        assert!(report.stripes_repaired > 0);
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
        // A second recovery has nothing left to report.
        let again = store.recover_node(node).unwrap();
        assert_eq!(again.blocks_lost, 0);
        assert_eq!(again.stripes_repaired, 0);
    }

    #[test]
    fn recovery_restores_blocks() {
        let bytes = analytics_bytes(4000, 800);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        let before = store.stored_bytes();
        store.fail_node(2).unwrap();
        assert!(store.stored_bytes() < before);
        let report = store.recover_node(2).unwrap();
        assert!(report.bytes_restored > 0);
        // All healthy reads again, without degraded paths.
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
        // Every stripe is fully present again.
        let meta = store.object("obj").unwrap();
        for sp in &meta.placement {
            for (&n, &b) in sp.nodes.iter().zip(&sp.block_ids) {
                assert!(
                    store.blocks().get(n, b).is_ok(),
                    "block {b} missing after recovery"
                );
            }
        }
    }

    #[test]
    fn chunk_bytes_match_source() {
        let bytes = analytics_bytes(3000, 600);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        let meta = store.object("obj").unwrap();
        let fm = meta.file_meta.clone().unwrap();
        for (rg, col, cm) in fm.chunks() {
            let ordinal = meta.chunk_ordinal(rg, col).unwrap();
            let got = store.chunk_bytes("obj", ordinal).unwrap();
            assert_eq!(
                got,
                bytes[cm.offset as usize..(cm.offset + cm.len) as usize].to_vec(),
                "chunk ({rg},{col})"
            );
        }
    }

    #[test]
    fn location_map_replicated() {
        let bytes = analytics_bytes(1000, 250);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes).unwrap();
        let (map, nodes) = store.location_map("obj").unwrap();
        assert_eq!(map.entries.len(), store.object("obj").unwrap().num_chunks());
        assert_eq!(nodes.len(), store.config().ec.k + 1);
        // Map points at the true hosting nodes.
        let meta = store.object("obj").unwrap();
        for (c, e) in map.entries.iter().enumerate() {
            assert_eq!(e.node as usize, meta.chunk_fragments(c)[0].node);
        }
    }

    #[test]
    fn deterministic_put_get_roundtrip_with_compact_record() {
        let bytes = analytics_bytes(4000, 500);
        let mut cfg = StoreConfig::fusion().with_placement(PlacementPolicy::Deterministic);
        cfg.overhead_threshold = 0.5;
        let mut store = Store::new(cfg).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
        // The record is compact, and materializing it reproduces the
        // paper-format oracle map bit for bit.
        let Some(ObjectMetaRecord::Compact(rec)) = store.meta_record("obj") else {
            panic!("deterministic policy must produce a compact record");
        };
        let meta = store.object("obj").unwrap();
        let oracle = LocationMap::build(meta).unwrap();
        assert!(rec.byte_size() <= oracle.byte_size() + LayoutRecord::HEADER_BYTES);
        let (map, nodes) = store.location_map("obj").unwrap();
        assert_eq!(map, oracle);
        assert_eq!(nodes.len(), store.config().ec.k + 1);
        // Reading the replicated record back off the data plane and
        // validating it yields the same map.
        assert_eq!(store.read_location_map("obj").unwrap(), oracle);
    }

    #[test]
    fn deterministic_layouts_are_stable_across_stores() {
        // Two independently built stores with the same seed and
        // membership place every block identically — nothing about the
        // layout depends on construction history.
        let bytes = analytics_bytes(3000, 300);
        let build = || {
            let mut store =
                Store::new(StoreConfig::fusion().with_placement(PlacementPolicy::Deterministic))
                    .unwrap();
            store.put("a", bytes.clone()).unwrap();
            store.put("b", analytics_bytes(1000, 250)).unwrap();
            store
        };
        let (s1, s2) = (build(), build());
        for name in ["a", "b"] {
            let m1 = s1.object(name).unwrap();
            let m2 = s2.object(name).unwrap();
            for (sp1, sp2) in m1.placement.iter().zip(&m2.placement) {
                assert_eq!(sp1.nodes, sp2.nodes, "{name}");
            }
            assert_eq!(
                s1.location_map(name).unwrap(),
                s2.location_map(name).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn deterministic_degraded_read_and_recovery() {
        let bytes = analytics_bytes(4000, 800);
        let mut store =
            Store::new(StoreConfig::fusion().with_placement(PlacementPolicy::Deterministic))
                .unwrap();
        store.put("obj", bytes.clone()).unwrap();
        let node = store.object("obj").unwrap().placement[0].nodes[0];
        store.fail_node(node).unwrap();
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
        let report = store.recover_node(node).unwrap();
        assert!(report.stripes_repaired > 0);
        // Metadata replicas on the node were rewritten and stay readable.
        assert!(store.read_location_map("obj").is_ok());
        assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);
    }

    #[test]
    fn legacy_policies_untouched_by_deterministic_branch() {
        // The deterministic branch must not consume the store RNG:
        // DomainAware (and Naive) placements under the same seed must be
        // byte-identical to what they were before the policy existed —
        // guarded here by cross-checking two identically seeded stores
        // and asserting the RNG-driven placements still differ per
        // stripe (i.e. the shuffle stream advanced normally).
        let bytes = analytics_bytes(4000, 400);
        let mut a = Store::new(StoreConfig::fusion()).unwrap();
        let mut b = Store::new(StoreConfig::fusion()).unwrap();
        a.put("obj", bytes.clone()).unwrap();
        b.put("obj", bytes).unwrap();
        let ma = a.object("obj").unwrap();
        let mb = b.object("obj").unwrap();
        assert!(!ma.placement.is_empty());
        assert_eq!(ma.placement.len(), mb.placement.len());
        for (sa, sb) in ma.placement.iter().zip(&mb.placement) {
            assert_eq!(sa.nodes, sb.nodes);
        }
    }

    #[test]
    fn coordinator_is_stable_and_alive() {
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        let c1 = store.coordinator_of("some-object").unwrap();
        assert_eq!(c1, store.coordinator_of("some-object").unwrap());
        store.fail_node(c1).unwrap();
        let c2 = store.coordinator_of("some-object").unwrap();
        assert_ne!(c1, c2);
        assert!(store.blocks().is_alive(c2));
    }

    #[test]
    fn coordinator_of_dead_cluster_is_typed() {
        // A fully-dead cluster must reject coordination with a typed
        // error, never divide by zero (reachable from wire input).
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        let n = store.config().cluster.nodes;
        for i in 0..n {
            store.fail_node(i).unwrap();
        }
        match store.coordinator_of("obj") {
            Err(StoreError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn request_boundary_is_typed() {
        let bytes = analytics_bytes(2000, 500);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes).unwrap();
        // Overflowing range wraps past the u64 check without checked_add.
        match store.get("obj", u64::MAX - 4, 16) {
            Err(StoreError::InvalidRequest(_)) => {}
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        // Zero-length reads inside the object are valid no-ops.
        assert_eq!(store.get("obj", 0, 0).unwrap(), Vec::<u8>::new());
        // ... but not past the end.
        assert!(matches!(
            store.get("obj", u64::MAX, 0),
            Err(StoreError::OutOfRange { .. })
        ));
        // Empty and oversized keys are rejected before any data-plane work.
        assert!(matches!(
            store.get("", 0, 1),
            Err(StoreError::InvalidRequest(_))
        ));
        let huge = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            store.put(&huge, vec![1, 2, 3]),
            Err(StoreError::InvalidRequest(_))
        ));
        assert!(validate_key(&"k".repeat(MAX_KEY_BYTES)).is_ok());
    }

    #[test]
    fn put_simulates_latency() {
        let bytes = analytics_bytes(2000, 500);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        let report = store.put("obj", bytes).unwrap();
        assert!(store.simulate_solo(&report.workflow) > Nanos::ZERO);
        assert!(report.stored_bytes > 0);
        assert!(report.stripes >= 1);
    }

    #[test]
    fn simulated_put_latency_is_unchanged() {
        // The latency `put` reported when it simulated itself, less its
        // wall-clock pack step (the one input that varies run to run):
        // simulating the report's workflow must give exactly that.
        for (rows, per_group, rest) in [(2_000, 500, 593_724), (20_000, 5_000, 876_441)] {
            let mut store = Store::new(StoreConfig::fusion()).unwrap();
            let report = store.put("obj", analytics_bytes(rows, per_group)).unwrap();
            let pack = Nanos::from_secs_f64(report.pack_runtime.as_secs_f64());
            assert_eq!(
                store.simulate_solo(&report.workflow),
                Nanos(rest) + pack,
                "{rows} rows"
            );
        }
    }

    #[test]
    fn stored_blocks_identical_across_threads() {
        let bytes = analytics_bytes(4000, 400);
        let mut fingerprints = Vec::new();
        for threads in [1, 3, 4] {
            let cfg = StoreConfig::fusion().with_ec_threads(threads);
            let mut store = Store::new(cfg).unwrap();
            store.put("obj", bytes.clone()).unwrap();
            // Same seed => same placement; every block (data AND parity)
            // must be byte-identical regardless of parallelism.
            let meta = store.object("obj").unwrap();
            let mut fp: Vec<Vec<u8>> = Vec::new();
            for sp in &meta.placement {
                for (&n, &b) in sp.nodes.iter().zip(&sp.block_ids) {
                    fp.push(store.blocks().get(n, b).unwrap().to_vec());
                }
            }
            fingerprints.push(fp);
        }
        for fp in &fingerprints[1..] {
            assert_eq!(fp, &fingerprints[0]);
        }
    }

    #[test]
    fn recovery_is_identical_across_identical_stores() {
        // Recovery walks the object table to build its repair workflow;
        // the walk order sets the queueing on the virtual clock, so it
        // must not depend on anything but the stored objects.
        let bytes = analytics_bytes(20_000, 2_000);
        let reports: Vec<RecoveryReport> = (0..4)
            .map(|_| {
                let mut store = Store::new(StoreConfig::fusion()).unwrap();
                for i in 0..8 {
                    store.put(&format!("obj-{i}"), bytes.clone()).unwrap();
                }
                store.fail_node(2).unwrap();
                store.recover_node(2).unwrap()
            })
            .collect();
        assert!(reports[0].stripes_repaired > 0);
        for r in &reports[1..] {
            assert_eq!(r, &reports[0]);
        }
    }

    #[test]
    fn scrub_rewrites_unreadable_replicas() {
        // Fault injection rots location-record replicas as readily as
        // stripe blocks; scrub restores them in place from the record.
        let bytes = analytics_bytes(4000, 800);
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes).unwrap();
        let map = store.read_location_map("obj").unwrap();
        let record = store.meta_record("obj").unwrap().to_bytes();
        let replicas = store.objects["obj"].replicas.clone();
        let (rotted, gone) = (replicas[0], replicas[1]);
        store
            .blocks_mut()
            .corrupt_block(rotted.0, rotted.1, 3)
            .unwrap();
        store.blocks_mut().delete(gone.0, gone.1).unwrap();
        assert!(store.blocks().get(rotted.0, rotted.1).is_err());
        assert!(store.blocks().get(gone.0, gone.1).is_err());

        let report = store.scrub();
        assert!(report.is_clean());
        assert_eq!(report.blocks_repaired, 2);
        for (node, block) in [rotted, gone] {
            assert_eq!(
                store.blocks().get(node, block).unwrap().as_ref(),
                &record[..]
            );
        }
        assert_eq!(store.read_location_map("obj").unwrap(), map);
        assert_eq!(store.scrub().blocks_repaired, 0);

        // Replicas on a down node wait for recovery.
        store.fail_node(replicas[2].0).unwrap();
        assert_eq!(store.scrub().blocks_repaired, 0);
    }

    #[test]
    fn recovered_node_stays_healthy_across_apply_faults() {
        // A transient outage leaves node 2 flaky; recovery clears it, and
        // a later `apply_faults` must not mark it flaky again.
        use fusion_cluster::fault::FaultSchedule;
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", analytics_bytes(1000, 250)).unwrap();
        let schedule = FaultSchedule::new().transient(Nanos(100), 2, Nanos(100));
        let mut inj = FaultInjector::new(schedule);
        let applied = store.apply_faults(&mut inj, Nanos(500));
        assert!(matches!(applied[1], AppliedFault::Revived { node: 2, .. }));
        assert_eq!(store.flaky_attempts(2), 1);
        assert!(store.retry_penalty(2) > Nanos::ZERO);

        store.recover_node(2).unwrap();
        assert!(store.apply_faults(&mut inj, Nanos(1_000)).is_empty());
        assert_eq!(store.flaky_attempts(2), 0);
        assert_eq!(store.retry_penalty(2), Nanos::ZERO);
    }

    #[test]
    fn put_latency_models_stragglers() {
        // Every node slowed 4x: a put's simulated latency must stretch
        // like any other workflow's. Pack runtime is measured wall-clock,
        // so compare the fastest of three puts per store, as a ratio.
        use fusion_cluster::fault::FaultSchedule;
        let bytes = analytics_bytes(20_000, 2_000);
        let fastest_put = |store: &mut Store| {
            (0..3)
                .map(|i| {
                    let report = store.put(&format!("obj{i}"), bytes.clone()).unwrap();
                    store.simulate_solo(&report.workflow)
                })
                .min()
                .unwrap()
        };
        let mut healthy = Store::new(StoreConfig::fusion()).unwrap();
        let mut slowed = Store::new(StoreConfig::fusion()).unwrap();
        let schedule = (0..slowed.config().cluster.nodes).fold(FaultSchedule::new(), |s, n| {
            s.slowdown(Nanos(1), n, 4.0, Nanos::from_secs(3600))
        });
        slowed.apply_faults(&mut FaultInjector::new(schedule), Nanos(10));
        assert_eq!(slowed.slowdowns().len(), slowed.config().cluster.nodes);
        let (fast, slow) = (fastest_put(&mut healthy), fastest_put(&mut slowed));
        assert!(
            slow.0 as f64 >= 1.5 * fast.0 as f64,
            "slowed put {slow:?} vs healthy put {fast:?}"
        );
    }

    #[test]
    fn deterministic_fac_put_records_no_exceptions() {
        // FAC bin-packs chunks, so a chunk's home is wherever the layout
        // put its first byte; the compact record must resolve homes
        // through that layout and carry no exceptions for a fresh put.
        use fusion_workloads::tpch::{lineitem_file, TpchConfig};
        let bytes = lineitem_file(TpchConfig {
            rows_per_group: 2_000,
            row_groups: 4,
            seed: 3,
        });
        let mut cfg = StoreConfig::fusion().with_placement(PlacementPolicy::Deterministic);
        cfg.overhead_threshold = 0.9;
        let mut store = Store::new(cfg).unwrap();
        let report = store.put("lineitem", bytes).unwrap();
        assert_eq!(report.policy_used, "fac");
        let Some(ObjectMetaRecord::Compact(rec)) = store.meta_record("lineitem") else {
            panic!("deterministic policy must produce a compact record");
        };
        assert_eq!(rec.exceptions, Vec::new());
        let (map, replicas) = store.location_map("lineitem").unwrap();
        assert_eq!(
            map,
            LocationMap::build(store.object("lineitem").unwrap()).unwrap()
        );
        assert_eq!(
            store.metadata_bytes("lineitem"),
            Some(LayoutRecord::HEADER_BYTES * replicas.len() as u64)
        );
    }

    #[test]
    fn read_location_map_rejects_replicas_of_another_layout() {
        // Each replica below has a valid CRC (the block store recomputes
        // it on put) but does not describe the object.
        fn overwrite_replicas(store: &mut Store, bytes: Vec<u8>) {
            for (node, block) in store.objects["obj"].replicas.clone() {
                store
                    .blocks_mut()
                    .put(node, block, Bytes::from(bytes.clone()))
                    .unwrap();
            }
        }
        let bytes = analytics_bytes(4000, 500);
        let mut cfg = StoreConfig::fusion().with_placement(PlacementPolicy::Deterministic);
        cfg.overhead_threshold = 0.5;
        let mut store = Store::new(cfg).unwrap();
        store.put("obj", bytes.clone()).unwrap();
        let Some(ObjectMetaRecord::Compact(rec)) = store.meta_record("obj").cloned() else {
            panic!("deterministic policy must produce a compact record");
        };
        // An epoch the store never had.
        let mut bad = rec.clone();
        bad.epoch = 7;
        overwrite_replicas(&mut store, bad.to_bytes());
        assert!(matches!(
            store.read_location_map("obj"),
            Err(StoreError::Metadata(_))
        ));
        // Another code.
        let mut bad = rec.clone();
        bad.code.k = 3;
        overwrite_replicas(&mut store, bad.to_bytes());
        assert!(matches!(
            store.read_location_map("obj"),
            Err(StoreError::Metadata(_))
        ));
        // A chunk count no object has: rejected before it sizes anything.
        let mut bad = rec.clone();
        bad.chunks = u32::MAX;
        overwrite_replicas(&mut store, bad.to_bytes());
        assert!(matches!(
            store.read_location_map("obj"),
            Err(StoreError::Metadata(_))
        ));

        // A stored map one entry short.
        let mut store = Store::new(StoreConfig::fusion()).unwrap();
        store.put("obj", bytes).unwrap();
        let mut map = store.read_location_map("obj").unwrap();
        map.entries.pop();
        overwrite_replicas(&mut store, map.to_bytes());
        assert!(matches!(
            store.read_location_map("obj"),
            Err(StoreError::Metadata(_))
        ));
    }
}
