//! The compact metadata plane (DESIGN.md §16): fixed-size per-object
//! layout records plus a sharded bucket/object namespace sized for
//! millions of objects.
//!
//! Under [`crate::config::PlacementPolicy::Deterministic`] chunk homes
//! are a pure function of `(seed, object, stripe, shard, membership)`
//! ([`crate::placement`]), so the per-object metadata shrinks from the
//! paper's 8 bytes *per chunk* to a 32-byte header plus one 8-byte
//! exception per chunk that has *moved away* from its computed home
//! (heal, manual migration). The paper-format
//! [`crate::location_map::LocationMap`] stays as the wire-compatible
//! differential oracle: materializing a record must reproduce it bit for
//! bit.
//!
//! Records carry an **epoch** — an index into the namespace's membership
//! history — so resolution always uses the membership the object was
//! placed against, and a membership change moves no data until
//! [`Namespace::rebalance`] advances records to the current epoch
//! (moving only the ~1/n of chunks whose rendezvous winner changed).

use crate::config::EcConfig;
use crate::location_map::{LocationEntry, LocationMap, LocationMapError};
use crate::object::ObjectMeta;
use crate::placement::{self, ObjectId};
use fusion_cluster::topology::Topology;
use fusion_ec::ErasureCode;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The erasure code of a record, packed to three bytes for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeId {
    /// Total shards per stripe.
    pub n: u8,
    /// Data shards per stripe.
    pub k: u8,
    /// Local parity groups (0 = plain RS).
    pub local_groups: u8,
}

impl From<EcConfig> for CodeId {
    fn from(ec: EcConfig) -> CodeId {
        CodeId {
            n: ec.n as u8,
            k: ec.k as u8,
            local_groups: ec.local_groups as u8,
        }
    }
}

/// One chunk that no longer lives at its computed home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkException {
    /// Chunk ordinal within the object.
    pub chunk: u32,
    /// Node actually hosting the chunk.
    pub node: u32,
}

/// The compact per-object layout record: everything needed to locate any
/// chunk, in `32 + 8 × exceptions` bytes regardless of chunk count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutRecord {
    /// Membership epoch the object was placed against.
    pub epoch: u32,
    /// Number of chunks in the object.
    pub chunks: u32,
    /// Object size in bytes.
    pub size: u64,
    /// Erasure code.
    pub code: CodeId,
    /// Chunks deviating from their computed home, sorted by chunk.
    pub exceptions: Vec<ChunkException>,
}

impl LayoutRecord {
    /// Fixed wire-header size.
    pub const HEADER_BYTES: u64 = 32;

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        Self::HEADER_BYTES + self.exceptions.len() as u64 * 8
    }

    /// The in-order home of a chunk: `(stripe, bin)` when `k` chunks fill
    /// each stripe in object order — the rule [`Namespace`]'s synthetic
    /// objects follow. A stored object's chunks live wherever its layout
    /// put them (FAC bin-packs them), so the store resolves their homes
    /// through the layout instead ([`LayoutRecord::from_meta`]).
    #[inline]
    pub fn stripe_of(&self, chunk: u32) -> (u64, usize) {
        let k = u32::from(self.code.k.max(1));
        (u64::from(chunk / k), (chunk % k) as usize)
    }

    /// The node hosting `chunk`, whose home is `(stripe, bin)`: the
    /// exception list if the chunk moved, otherwise the rendezvous
    /// computation of that home for the record's epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn node_of(
        &self,
        chunk: u32,
        (stripe, bin): (u64, usize),
        seed: u64,
        okey: u64,
        code: &ErasureCode,
        members: &[usize],
        topo: &Topology,
    ) -> usize {
        if let Ok(i) = self.exceptions.binary_search_by_key(&chunk, |e| e.chunk) {
            return self.exceptions[i].node as usize;
        }
        placement::place_stripe(seed, okey, stripe, code, members, topo)[bin]
    }

    /// Each chunk's home in `meta`'s layout: the `(stripe, bin)` holding
    /// its first byte. Extents are sorted by offset, so a chunk's first
    /// extent holds that byte; the footer pseudo-chunk, numbered past
    /// the chunks, is skipped. A chunk the layout holds no bytes of keeps
    /// its in-order home. The table is sized by the record's own count,
    /// which `Store::read_location_map` checks against the object's
    /// before it materializes a record read off the data plane.
    fn homes(&self, meta: &ObjectMeta) -> Vec<(u64, usize)> {
        let mut homes = vec![None; self.chunks as usize];
        for e in meta.extents() {
            if let Some(home @ None) = e.chunk.and_then(|c| homes.get_mut(c)) {
                *home = Some((e.stripe as u64, e.bin));
            }
        }
        (0..self.chunks)
            .zip(homes)
            .map(|(c, home)| home.unwrap_or_else(|| self.stripe_of(c)))
            .collect()
    }

    /// Builds the record for a freshly written object: every chunk whose
    /// node (per the object's placement) differs from the rendezvous
    /// computation of its home in the object's layout becomes an
    /// exception. Under the deterministic placement policy the store
    /// placed every stripe by that computation, so a fresh object carries
    /// zero exceptions; an exception marks a chunk that moved later.
    #[allow(clippy::too_many_arguments)]
    pub fn from_meta(
        meta: &ObjectMeta,
        epoch: u32,
        ec: EcConfig,
        seed: u64,
        okey: u64,
        code: &ErasureCode,
        members: &[usize],
        topo: &Topology,
    ) -> LayoutRecord {
        let mut rec = LayoutRecord {
            epoch,
            chunks: meta.num_chunks() as u32,
            size: meta.size,
            code: ec.into(),
            exceptions: Vec::new(),
        };
        for (c, home) in (0..rec.chunks).zip(rec.homes(meta)) {
            let actual = meta
                .chunk_fragments(c as usize)
                .first()
                .map_or(0, |f| f.node);
            if actual != rec.node_of(c, home, seed, okey, code, members, topo) {
                rec.exceptions.push(ChunkException {
                    chunk: c,
                    node: actual as u32,
                });
            }
        }
        rec
    }

    /// Materializes the paper-format map this record stands for — the
    /// differential oracle. Chunk offsets come from the object's footer
    /// metadata (the record deliberately does not duplicate them), node
    /// ids from [`LayoutRecord::node_of`] at each chunk's home in the
    /// object's layout.
    ///
    /// # Errors
    ///
    /// Propagates the map builder's offset-overflow check.
    pub fn materialize(
        &self,
        meta: &ObjectMeta,
        seed: u64,
        okey: u64,
        code: &ErasureCode,
        members: &[usize],
        topo: &Topology,
    ) -> Result<LocationMap, LocationMapError> {
        let mut entries = Vec::with_capacity(self.chunks as usize);
        for (c, home) in (0..self.chunks).zip(self.homes(meta)) {
            let frags = meta.chunk_fragments(c as usize);
            let offset = frags.first().map_or(0, |f| f.object_offset);
            let chunk_offset =
                u32::try_from(offset).map_err(|_| LocationMapError::OffsetOverflow {
                    chunk: c as usize,
                    offset,
                })?;
            entries.push(LocationEntry {
                chunk_offset,
                node: self.node_of(c, home, seed, okey, code, members, topo) as u32,
            });
        }
        Ok(LocationMap { entries })
    }

    /// Serializes to the compact wire format: a 32-byte header
    /// (epoch, chunks, size, code, exception count, reserved) followed
    /// by 8 bytes per exception.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() as usize);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.chunks.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.push(self.code.n);
        out.push(self.code.k);
        out.push(self.code.local_groups);
        out.push(0);
        out.extend_from_slice(&(self.exceptions.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]);
        for e in &self.exceptions {
            out.extend_from_slice(&e.chunk.to_le_bytes());
            out.extend_from_slice(&e.node.to_le_bytes());
        }
        out
    }

    /// Parses the compact wire format.
    ///
    /// # Errors
    ///
    /// [`LocationMapError::BadLength`] on a truncated header or a body
    /// that disagrees with the exception count,
    /// [`LocationMapError::BadCode`] on an impossible `(n, k)`,
    /// [`LocationMapError::ExceptionsInvalid`] on an unsorted,
    /// duplicated, or out-of-range exception list.
    pub fn from_bytes(bytes: &[u8]) -> Result<LayoutRecord, LocationMapError> {
        if bytes.len() < Self::HEADER_BYTES as usize {
            return Err(LocationMapError::BadLength(bytes.len()));
        }
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        let epoch = u32_at(0);
        let chunks = u32_at(4);
        let size = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let code = CodeId {
            n: bytes[16],
            k: bytes[17],
            local_groups: bytes[18],
        };
        if code.k == 0 || code.k > code.n {
            return Err(LocationMapError::BadCode {
                n: code.n,
                k: code.k,
            });
        }
        let count = u32_at(20) as usize;
        if bytes.len() != Self::HEADER_BYTES as usize + count * 8 {
            return Err(LocationMapError::BadLength(bytes.len()));
        }
        let mut exceptions = Vec::with_capacity(count);
        for i in 0..count {
            let base = Self::HEADER_BYTES as usize + i * 8;
            let e = ChunkException {
                chunk: u32_at(base),
                node: u32_at(base + 4),
            };
            let ordered = exceptions
                .last()
                .is_none_or(|p: &ChunkException| p.chunk < e.chunk);
            if !ordered || e.chunk >= chunks {
                return Err(LocationMapError::ExceptionsInvalid { index: i });
            }
            exceptions.push(e);
        }
        Ok(LayoutRecord {
            epoch,
            chunks,
            size,
            code,
            exceptions,
        })
    }

    /// Parses and additionally validates every exception's node id
    /// against the cluster size (the same use-site check as
    /// [`LocationMap::from_bytes_checked`]).
    ///
    /// # Errors
    ///
    /// Everything [`LayoutRecord::from_bytes`] returns, plus
    /// [`LocationMapError::NodeOutOfRange`].
    pub fn from_bytes_checked(
        bytes: &[u8],
        nodes: usize,
    ) -> Result<LayoutRecord, LocationMapError> {
        let rec = Self::from_bytes(bytes)?;
        for e in &rec.exceptions {
            if e.node as usize >= nodes {
                return Err(LocationMapError::NodeOutOfRange {
                    chunk: e.chunk as usize,
                    node: e.node,
                    nodes,
                });
            }
        }
        Ok(rec)
    }
}

/// One membership epoch: which node ids are in service (sorted) and the
/// failure-domain layout covering every id ever assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    /// In-service node ids, ascending.
    pub members: Vec<usize>,
    /// Rack/host coordinates for all node ids (including departed ones —
    /// ids are never reused).
    pub topology: Topology,
}

impl Membership {
    /// Every node of `topology` in service.
    pub fn full(topology: Topology) -> Membership {
        Membership {
            members: (0..topology.nodes()).collect(),
            topology,
        }
    }
}

/// FNV-1a, used as the namespace's map hasher so shard iteration order —
/// and therefore every sampled scan — is identical across runs and
/// processes (std's default hasher is randomly keyed per process).
#[derive(Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type DetMap = HashMap<u128, LayoutRecord, BuildHasherDefault<DetHasher>>;

/// What a rebalance pass did, in the same wire-byte accounting the
/// repair path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Stale-epoch objects examined (bounded by the scan limit).
    pub objects_scanned: usize,
    /// Chunks examined across those objects.
    pub chunks_total: u64,
    /// Chunks whose home changed (data that must cross the wire).
    pub chunks_moved: u64,
    /// Wire bytes those moves represent.
    pub bytes_moved: u64,
}

impl RebalanceReport {
    /// Fraction of examined chunks that moved.
    pub fn moved_fraction(&self) -> f64 {
        if self.chunks_total == 0 {
            0.0
        } else {
            self.chunks_moved as f64 / self.chunks_total as f64
        }
    }
}

/// The sharded bucket/object metadata index. Shard count is a power of
/// two fixed at construction; object ids hash across shards, and every
/// shard is an independent deterministic-hash map, so the structure is
/// sized for tens of millions of objects (~56 B + record per entry)
/// while any single lookup touches one shard.
///
/// A plain single-threaded index: mutations take `&mut self`. The
/// membership history is append-only, and a record naming epoch `e` is
/// only inserted after epoch `e` exists (enforced in
/// [`Namespace::insert`]), so resolution can index the history directly.
pub struct Namespace {
    seed: u64,
    ec: EcConfig,
    code: ErasureCode,
    shard_mask: usize,
    shards: Vec<DetMap>,
    epochs: Vec<Membership>,
    record_bytes: u64,
}

impl Namespace {
    /// A namespace over `shard_count` shards (rounded up to a power of
    /// two) for objects coded with `ec`, starting from membership epoch
    /// 0 = `initial`.
    ///
    /// # Errors
    ///
    /// Propagates codec parameter validation for `ec`.
    pub fn new(
        seed: u64,
        shard_count: usize,
        ec: EcConfig,
        initial: Membership,
    ) -> crate::error::Result<Namespace> {
        let code = ec.build_codec()?;
        let shards = shard_count.max(1).next_power_of_two();
        let mut initial = initial;
        initial.members.sort_unstable();
        initial.members.dedup();
        Ok(Namespace {
            seed,
            ec,
            code,
            shard_mask: shards - 1,
            shards: (0..shards).map(|_| DetMap::default()).collect(),
            epochs: vec![initial],
            record_bytes: 0,
        })
    }

    #[inline]
    fn shard_of(&self, id: ObjectId) -> usize {
        (id.placement_key() as usize) & self.shard_mask
    }

    /// The placement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The erasure code objects in this namespace use.
    pub fn ec(&self) -> EcConfig {
        self.ec
    }

    /// The current membership epoch index.
    pub fn current_epoch(&self) -> u32 {
        (self.epochs.len() - 1) as u32
    }

    /// The current membership.
    pub fn current_membership(&self) -> &Membership {
        self.epochs.last().expect("at least one epoch")
    }

    /// Number of objects indexed.
    pub fn len(&self) -> usize {
        self.shards.iter().map(DetMap::len).sum()
    }

    /// Whether the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(DetMap::is_empty)
    }

    /// Total serialized bytes of every record (maintained incrementally).
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// Inserts or replaces a record, returning the previous one.
    ///
    /// # Panics
    ///
    /// Panics if the record names an epoch this namespace has never had —
    /// the invariant that lets resolution trust any epoch index it finds
    /// in a record.
    pub fn insert(&mut self, id: ObjectId, record: LayoutRecord) -> Option<LayoutRecord> {
        assert!(
            (record.epoch as usize) < self.epochs.len(),
            "record epoch {} beyond namespace history {}",
            record.epoch,
            self.epochs.len(),
        );
        self.record_bytes += record.byte_size();
        let shard = self.shard_of(id);
        let prev = self.shards[shard].insert(id.0, record);
        if let Some(p) = &prev {
            self.record_bytes -= p.byte_size();
        }
        prev
    }

    /// The record for an object, if present.
    pub fn get(&self, id: ObjectId) -> Option<&LayoutRecord> {
        self.shards[self.shard_of(id)].get(&id.0)
    }

    /// Removes an object's record.
    pub fn remove(&mut self, id: ObjectId) -> Option<LayoutRecord> {
        let shard = self.shard_of(id);
        let prev = self.shards[shard].remove(&id.0);
        if let Some(p) = &prev {
            self.record_bytes -= p.byte_size();
        }
        prev
    }

    /// Resolves the node hosting `chunk` of object `id` against the
    /// membership of the record's epoch.
    pub fn chunk_node(&self, id: ObjectId, chunk: u32) -> Option<usize> {
        let rec = self.get(id).filter(|rec| chunk < rec.chunks)?;
        let m = &self.epochs[rec.epoch as usize];
        Some(rec.node_of(
            chunk,
            rec.stripe_of(chunk),
            self.seed,
            id.placement_key(),
            &self.code,
            &m.members,
            &m.topology,
        ))
    }

    /// Opens a new membership epoch with one node added in `rack`
    /// (`rack == domains()` opens a new rack). Returns the new node's id.
    /// No data moves until [`Namespace::rebalance`].
    pub fn add_node(&mut self, rack: usize) -> usize {
        let cur = self.current_membership();
        let topology = cur.topology.with_added_node(rack);
        let node = topology.nodes() - 1;
        let mut members = cur.members.clone();
        members.push(node);
        self.epochs.push(Membership { members, topology });
        node
    }

    /// Opens a new membership epoch with `node` removed from service.
    /// The topology keeps the id (ids are never reused); only the member
    /// set shrinks. No data moves until [`Namespace::rebalance`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not currently a member or is the last one.
    pub fn remove_node(&mut self, node: usize) {
        let cur = self.current_membership();
        let mut members = cur.members.clone();
        let i = members
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("node {node} is not a member"));
        members.remove(i);
        assert!(!members.is_empty(), "cannot remove the last member");
        let topology = cur.topology.clone();
        self.epochs.push(Membership { members, topology });
    }

    /// Advances up to `limit` stale-epoch records (all of them when
    /// `None`) to the current epoch, counting every chunk whose home
    /// changed as `chunk_bytes` of rebalance wire traffic. Exceptions
    /// survive a rebalance while their node stays in service (the data
    /// did not move); exceptions stranded on departed nodes heal back to
    /// their computed home and count as moves.
    ///
    /// Deterministic: shards and entries are visited in the namespace's
    /// stable iteration order, so a bounded scan always examines the
    /// same objects.
    pub fn rebalance(&mut self, chunk_bytes: u64, limit: Option<usize>) -> RebalanceReport {
        let current = self.current_epoch();
        let cap = limit.unwrap_or(usize::MAX);
        let (seed, code, epochs) = (self.seed, &self.code, &self.epochs);
        let new_m = &epochs[current as usize];
        let mut report = RebalanceReport::default();
        'scan: for map in &mut self.shards {
            for (key, rec) in map.iter_mut() {
                if rec.epoch == current {
                    continue;
                }
                if report.objects_scanned >= cap {
                    break 'scan;
                }
                report.objects_scanned += 1;
                let okey = ObjectId(*key).placement_key();
                let old_m = &epochs[rec.epoch as usize];
                let mut old_cache: Option<(u64, Vec<usize>)> = None;
                let mut new_cache: Option<(u64, Vec<usize>)> = None;
                let mut ex = rec.exceptions.iter().peekable();
                self.record_bytes -= rec.byte_size();
                let mut kept = Vec::new();
                for c in 0..rec.chunks {
                    report.chunks_total += 1;
                    let exception = ex.next_if(|e| e.chunk == c);
                    let (stripe, bin) = rec.stripe_of(c);
                    let canonical =
                        |cache: &mut Option<(u64, Vec<usize>)>, m: &Membership| match cache {
                            Some((s, p)) if *s == stripe => p[bin],
                            _ => {
                                let p = placement::place_stripe(
                                    seed,
                                    okey,
                                    stripe,
                                    code,
                                    &m.members,
                                    &m.topology,
                                );
                                let node = p[bin];
                                *cache = Some((stripe, p));
                                node
                            }
                        };
                    let old_node = exception
                        .map(|e| e.node as usize)
                        .unwrap_or_else(|| canonical(&mut old_cache, old_m));
                    let new_node = match exception {
                        Some(e) if new_m.members.binary_search(&(e.node as usize)).is_ok() => {
                            kept.push(*e);
                            e.node as usize
                        }
                        _ => canonical(&mut new_cache, new_m),
                    };
                    if old_node != new_node {
                        report.chunks_moved += 1;
                        report.bytes_moved += chunk_bytes;
                    }
                }
                rec.exceptions = kept;
                rec.epoch = current;
                self.record_bytes += rec.byte_size();
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::object_id;

    fn record(epoch: u32, chunks: u32, exceptions: Vec<ChunkException>) -> LayoutRecord {
        LayoutRecord {
            epoch,
            chunks,
            size: u64::from(chunks) * 1024,
            code: EcConfig::RS_9_6.into(),
            exceptions,
        }
    }

    #[test]
    fn record_wire_roundtrip() {
        let rec = record(
            3,
            64,
            vec![
                ChunkException { chunk: 5, node: 2 },
                ChunkException { chunk: 9, node: 7 },
            ],
        );
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len() as u64, rec.byte_size());
        assert_eq!(bytes.len(), 48);
        assert_eq!(LayoutRecord::from_bytes(&bytes), Ok(rec.clone()));
        assert_eq!(LayoutRecord::from_bytes_checked(&bytes, 9), Ok(rec));
        assert_eq!(
            LayoutRecord::from_bytes_checked(&bytes, 7),
            Err(LocationMapError::NodeOutOfRange {
                chunk: 9,
                node: 7,
                nodes: 7
            })
        );
    }

    #[test]
    fn record_wire_rejects_malformed() {
        let rec = record(0, 8, vec![ChunkException { chunk: 1, node: 0 }]);
        let bytes = rec.to_bytes();
        // Truncated header and truncated body.
        assert_eq!(
            LayoutRecord::from_bytes(&bytes[..16]),
            Err(LocationMapError::BadLength(16))
        );
        assert_eq!(
            LayoutRecord::from_bytes(&bytes[..bytes.len() - 3]),
            Err(LocationMapError::BadLength(37))
        );
        // Impossible code.
        let mut bad = bytes.clone();
        bad[17] = 0;
        assert_eq!(
            LayoutRecord::from_bytes(&bad),
            Err(LocationMapError::BadCode { n: 9, k: 0 })
        );
        // Out-of-range exception chunk.
        let rec = record(0, 2, vec![ChunkException { chunk: 5, node: 0 }]);
        assert_eq!(
            LayoutRecord::from_bytes(&rec.to_bytes()),
            Err(LocationMapError::ExceptionsInvalid { index: 0 })
        );
        // Unsorted exceptions.
        let rec = record(
            0,
            64,
            vec![
                ChunkException { chunk: 9, node: 1 },
                ChunkException { chunk: 5, node: 1 },
            ],
        );
        assert_eq!(
            LayoutRecord::from_bytes(&rec.to_bytes()),
            Err(LocationMapError::ExceptionsInvalid { index: 1 })
        );
    }

    #[test]
    fn namespace_insert_get_remove() {
        let topo = Topology::racks(18, 6);
        let mut ns = Namespace::new(1, 8, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        assert!(ns.is_empty());
        for i in 0..100 {
            let id = object_id("bucket", &format!("obj-{i}"));
            assert!(ns.insert(id, record(0, 16, vec![])).is_none());
        }
        assert_eq!(ns.len(), 100);
        assert_eq!(ns.record_bytes(), 100 * 32);
        let id = object_id("bucket", "obj-7");
        assert_eq!(ns.get(id).unwrap().chunks, 16);
        assert!(ns.remove(id).is_some());
        assert_eq!(ns.len(), 99);
        assert_eq!(ns.record_bytes(), 99 * 32);
        assert!(ns.get(id).is_none());
        // Replacing subtracts the old record's bytes.
        let id = object_id("bucket", "obj-8");
        ns.insert(
            id,
            record(0, 16, vec![ChunkException { chunk: 0, node: 1 }]),
        );
        assert_eq!(ns.record_bytes(), 98 * 32 + 40);
    }

    #[test]
    fn chunk_node_resolves_exceptions_and_misses() {
        let topo = Topology::racks(18, 6);
        let mut ns = Namespace::new(2, 4, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        let id = object_id("b", "x");
        ns.insert(
            id,
            record(0, 12, vec![ChunkException { chunk: 3, node: 17 }]),
        );
        // Exception honored.
        assert_eq!(ns.chunk_node(id, 3), Some(17));
        // Canonical chunks resolve deterministically and within range.
        let a = ns.chunk_node(id, 0).unwrap();
        assert_eq!(ns.chunk_node(id, 0), Some(a));
        assert!(a < 18);
        // Chunks 0 and 1 share a stripe: distinct bins, distinct nodes.
        assert_ne!(ns.chunk_node(id, 0), ns.chunk_node(id, 1));
        // Out-of-range chunk and unknown object miss.
        assert_eq!(ns.chunk_node(id, 12), None);
        assert_eq!(ns.chunk_node(object_id("b", "y"), 0), None);
    }

    #[test]
    fn membership_changes_open_epochs_lazily() {
        let topo = Topology::racks(12, 4);
        let mut ns = Namespace::new(3, 4, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        let id = object_id("b", "lazy");
        ns.insert(id, record(0, 24, vec![]));
        let before: Vec<_> = (0..24).map(|c| ns.chunk_node(id, c).unwrap()).collect();
        let added = ns.add_node(0);
        assert_eq!(added, 12);
        assert_eq!(ns.current_epoch(), 1);
        // Records resolve against their own epoch until rebalanced.
        let after: Vec<_> = (0..24).map(|c| ns.chunk_node(id, c).unwrap()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn rebalance_moves_a_small_fraction_on_add() {
        let topo = Topology::racks(24, 6);
        let mut ns = Namespace::new(4, 16, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        for i in 0..400 {
            let id = object_id("b", &format!("o{i}"));
            ns.insert(id, record(0, 30, vec![]));
        }
        ns.add_node(2);
        let report = ns.rebalance(1 << 20, None);
        assert_eq!(report.objects_scanned, 400);
        assert_eq!(report.chunks_total, 400 * 30);
        let frac = report.moved_fraction();
        // Rendezvous: ~1/25 of chunks move, well under 2/25.
        assert!(
            frac > 0.0 && frac < 2.0 / 25.0,
            "moved fraction {frac} too high for a single node add"
        );
        assert_eq!(report.bytes_moved, report.chunks_moved * (1 << 20));
        // Everything is current now: a second pass is a no-op.
        let again = ns.rebalance(1 << 20, None);
        assert_eq!(again.objects_scanned, 0);
        assert_eq!(again.chunks_moved, 0);
    }

    #[test]
    fn rebalance_heals_stranded_exceptions_and_keeps_live_ones() {
        let topo = Topology::racks(12, 4);
        let mut ns = Namespace::new(5, 4, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        let id = object_id("b", "exc");
        ns.insert(
            id,
            record(
                0,
                12,
                vec![
                    ChunkException { chunk: 2, node: 11 },
                    ChunkException { chunk: 4, node: 3 },
                ],
            ),
        );
        ns.remove_node(11);
        let report = ns.rebalance(64, None);
        assert!(report.chunks_moved >= 1, "stranded exception must move");
        let rec = ns.get(id).unwrap();
        assert_eq!(rec.epoch, 1);
        // The live exception survived; the stranded one healed away.
        assert_eq!(rec.exceptions, vec![ChunkException { chunk: 4, node: 3 }]);
        // Nothing resolves to the departed node anymore.
        for c in 0..12 {
            assert_ne!(ns.chunk_node(id, c), Some(11));
        }
    }

    #[test]
    fn rebalance_scan_limit_bounds_work_deterministically() {
        let topo = Topology::racks(12, 4);
        let mut ns = Namespace::new(6, 8, EcConfig::RS_9_6, Membership::full(topo)).unwrap();
        for i in 0..50 {
            ns.insert(object_id("b", &format!("o{i}")), record(0, 6, vec![]));
        }
        ns.add_node(0);
        let first = ns.rebalance(1, Some(20));
        assert_eq!(first.objects_scanned, 20);
        let rest = ns.rebalance(1, None);
        assert_eq!(rest.objects_scanned, 30);
    }
}
