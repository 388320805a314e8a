//! The data plane: per-node in-memory block stores holding **real bytes**.
//!
//! The simulator's time plane is virtual, but its data plane is not —
//! erasure-coded blocks, chunk bytes, bitmaps, and query results are all
//! materialized, moved, and verified for real. This is what lets the
//! latency model be driven by measured byte counts instead of estimates.

use bytes::Bytes;
use fusion_format::util::crc32;
use fusion_obs::metrics::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a stored block, assigned by the storage layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// Errors from block operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The node index does not exist.
    NoSuchNode(usize),
    /// The node exists but is marked failed.
    NodeDown(usize),
    /// The block is not stored on that node.
    NoSuchBlock {
        /// Node queried.
        node: usize,
        /// Block requested.
        block: BlockId,
    },
    /// The block's bytes no longer match the checksum recorded at write
    /// time (silent corruption / bit rot detected on read).
    Corrupt {
        /// Node holding the corrupt block.
        node: usize,
        /// The corrupt block.
        block: BlockId,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            ClusterError::NodeDown(n) => write!(f, "node {n} is down"),
            ClusterError::NoSuchBlock { node, block } => {
                write!(f, "{block} not found on node {node}")
            }
            ClusterError::Corrupt { node, block } => {
                write!(f, "{block} on node {node} failed checksum verification")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A block, the CRC-32 recorded when it was written, and the verdict of
/// comparing the two, so bit rot surfaces as [`ClusterError::Corrupt`]
/// instead of silently wrong bytes.
///
/// `intact` is set by a real CRC-32 compare whenever `data` changes:
/// [`BlockStore::put`] (scrub heals and recovery rewrites included) and
/// [`BlockStore::corrupt_block`]. `Bytes` is immutable and every mutator
/// takes `&mut self`, so between those points `intact` equals what a
/// fresh CRC of `data` against `crc` would say, and probes and reads
/// consult it instead of hashing the block.
#[derive(Debug, Clone)]
struct StoredBlock {
    data: Bytes,
    crc: u32,
    intact: bool,
}

#[derive(Debug, Default)]
struct NodeState {
    alive: bool,
    blocks: HashMap<BlockId, StoredBlock>,
    /// Blocks lost at the most recent crash, reported by
    /// [`BlockStore::revive_node`] and reset there.
    lost_blocks: usize,
}

/// Cached per-node serve counters (resolved from the metrics registry
/// once at construction so the read path pays one relaxed atomic add,
/// not a name lookup).
#[derive(Debug)]
struct NodeCounters {
    bytes_served: Arc<Counter>,
    blocks_served: Arc<Counter>,
}

/// The cluster-wide collection of node-local block stores.
///
/// # Examples
///
/// ```
/// use fusion_cluster::store::{BlockId, BlockStore};
///
/// let mut store = BlockStore::new(3);
/// store.put(1, BlockId(7), bytes::Bytes::from_static(b"hello"))?;
/// assert_eq!(store.get(1, BlockId(7))?.as_ref(), b"hello");
/// store.fail_node(1)?;
/// assert!(store.get(1, BlockId(7)).is_err());
/// # Ok::<(), fusion_cluster::store::ClusterError>(())
/// ```
#[derive(Debug)]
pub struct BlockStore {
    nodes: Vec<NodeState>,
    /// Successful block reads (whole-block or ranged), for asserting how
    /// many shards a degraded read actually touched.
    reads: AtomicU64,
    /// Per-node observability counters (`node<i>.bytes_served`,
    /// `node<i>.blocks_served`), shared with `metrics`.
    counters: Vec<NodeCounters>,
    /// The registry backing the per-node counters (JSON export and
    /// cross-layer counters live here).
    metrics: MetricsRegistry,
}

impl BlockStore {
    /// Creates a store with `n` healthy nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> BlockStore {
        assert!(n > 0, "cluster needs at least one node");
        let metrics = MetricsRegistry::new();
        let counters = (0..n)
            .map(|i| {
                let scope = metrics.node(i);
                NodeCounters {
                    bytes_served: scope.counter("bytes_served"),
                    blocks_served: scope.counter("blocks_served"),
                }
            })
            .collect();
        BlockStore {
            nodes: (0..n)
                .map(|_| NodeState {
                    alive: true,
                    ..NodeState::default()
                })
                .collect(),
            reads: AtomicU64::new(0),
            counters,
            metrics,
        }
    }

    /// The metrics registry holding per-node serve counters (plus any
    /// counters upper layers register against the data plane).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Bytes this node has served to readers (full blocks and ranged
    /// slices, post-CRC-verification).
    pub fn bytes_served(&self, node: usize) -> u64 {
        self.counters.get(node).map_or(0, |c| c.bytes_served.get())
    }

    fn record_read(&self, node: usize, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.counters.get(node) {
            c.blocks_served.inc();
            c.bytes_served.add(bytes as u64);
        }
    }

    /// Number of nodes (alive or not).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, i: usize) -> Result<&NodeState, ClusterError> {
        self.nodes.get(i).ok_or(ClusterError::NoSuchNode(i))
    }

    fn node_mut(&mut self, i: usize) -> Result<&mut NodeState, ClusterError> {
        self.nodes.get_mut(i).ok_or(ClusterError::NoSuchNode(i))
    }

    /// Stores a block on a node.
    ///
    /// # Errors
    ///
    /// Node missing or down.
    pub fn put(&mut self, node: usize, id: BlockId, data: Bytes) -> Result<(), ClusterError> {
        let n = self.node_mut(node)?;
        if !n.alive {
            return Err(ClusterError::NodeDown(node));
        }
        let crc = crc32(&data);
        n.blocks.insert(
            id,
            StoredBlock {
                data,
                crc,
                intact: true,
            },
        );
        Ok(())
    }

    /// Fetches a block, verified against its CRC-32: the block's intact
    /// verdict, taken by a CRC compare when its bytes last changed, is
    /// checked in O(1) instead of re-hashing the block.
    ///
    /// # Errors
    ///
    /// Node missing/down, block absent, or checksum mismatch
    /// ([`ClusterError::Corrupt`]).
    pub fn get(&self, node: usize, id: BlockId) -> Result<Bytes, ClusterError> {
        let b = self.verified(node, id)?;
        self.record_read(node, b.len());
        Ok(b)
    }

    /// Fetches a verified block without touching the read counters.
    fn verified(&self, node: usize, id: BlockId) -> Result<Bytes, ClusterError> {
        let n = self.node(node)?;
        if !n.alive {
            return Err(ClusterError::NodeDown(node));
        }
        let stored = n
            .blocks
            .get(&id)
            .ok_or(ClusterError::NoSuchBlock { node, block: id })?;
        if !stored.intact {
            return Err(ClusterError::Corrupt { node, block: id });
        }
        Ok(stored.data.clone())
    }

    /// Reads a byte range of a block (a ranged GET). Byte accounting
    /// charges the node only for the slice actually served.
    ///
    /// # Errors
    ///
    /// Same as [`BlockStore::get`]; out-of-range yields an empty slice
    /// clamp rather than an error.
    pub fn get_range(
        &self,
        node: usize,
        id: BlockId,
        offset: usize,
        len: usize,
    ) -> Result<Bytes, ClusterError> {
        let b = self.verified(node, id)?;
        let start = offset.min(b.len());
        // Saturating: `offset + len` from a hostile range request must
        // clamp to the block, not wrap usize and slice backwards.
        let end = offset.saturating_add(len).min(b.len());
        let slice = b.slice(start..end);
        self.record_read(node, slice.len());
        Ok(slice)
    }

    /// Removes a block. Missing blocks are ignored.
    ///
    /// # Errors
    ///
    /// Node missing or down.
    pub fn delete(&mut self, node: usize, id: BlockId) -> Result<(), ClusterError> {
        let n = self.node_mut(node)?;
        if !n.alive {
            return Err(ClusterError::NodeDown(node));
        }
        n.blocks.remove(&id);
        Ok(())
    }

    /// Marks a node failed. Its blocks are **lost** (crash-stop model), so
    /// revival brings back an empty node, as in a replacement machine.
    /// The number of blocks lost is recorded and reported by the matching
    /// [`BlockStore::revive_node`].
    ///
    /// # Errors
    ///
    /// Node missing.
    pub fn fail_node(&mut self, node: usize) -> Result<(), ClusterError> {
        let n = self.node_mut(node)?;
        n.alive = false;
        n.lost_blocks += n.blocks.len();
        n.blocks.clear();
        Ok(())
    }

    /// Brings a (replacement) node online, **empty**, and returns how
    /// many blocks the crash lost — the amount of reconstruction work a
    /// repair pass (`Store::recover_node` in `fusion-core`) now owes it.
    ///
    /// Reviving an already-alive node returns 0.
    ///
    /// # Errors
    ///
    /// Node missing.
    pub fn revive_node(&mut self, node: usize) -> Result<usize, ClusterError> {
        let n = self.node_mut(node)?;
        n.alive = true;
        Ok(std::mem::take(&mut n.lost_blocks))
    }

    /// Flips one byte of a stored block **without** updating its recorded
    /// checksum — simulated silent bit rot. The next [`BlockStore::get`]
    /// of this block returns [`ClusterError::Corrupt`], unless this flip
    /// undid an earlier one and the bytes match their checksum again.
    ///
    /// # Errors
    ///
    /// Node missing/down or block absent.
    pub fn corrupt_block(
        &mut self,
        node: usize,
        id: BlockId,
        byte_index: usize,
    ) -> Result<(), ClusterError> {
        let n = self.node_mut(node)?;
        if !n.alive {
            return Err(ClusterError::NodeDown(node));
        }
        let stored = n
            .blocks
            .get_mut(&id)
            .ok_or(ClusterError::NoSuchBlock { node, block: id })?;
        let mut bytes = stored.data.to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        let i = byte_index % bytes.len();
        bytes[i] ^= 0xA5;
        stored.data = Bytes::from(bytes);
        stored.intact = crc32(&stored.data) == stored.crc;
        Ok(())
    }

    /// Number of successful block reads served so far (diagnostics; lets
    /// tests assert exactly how many shards a degraded read touched).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(|n| n.alive)
    }

    /// Whether `get(node, id)` would succeed right now: node alive,
    /// block present, checksum intact (the block's verdict, O(1), no
    /// hashing). Unlike [`BlockStore::get`] this moves no data and does
    /// not count as a read — planners use it to pick shards without
    /// touching the disk model.
    pub fn has_block(&self, node: usize, id: BlockId) -> bool {
        self.nodes
            .get(node)
            .is_some_and(|n| n.alive && n.blocks.get(&id).is_some_and(|b| b.intact))
    }

    /// Indices of alive nodes.
    pub fn alive_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.is_alive(i))
            .collect()
    }

    /// Bytes stored on one node.
    pub fn node_bytes(&self, node: usize) -> u64 {
        self.nodes
            .get(node)
            .map_or(0, |n| n.blocks.values().map(|b| b.data.len() as u64).sum())
    }

    /// Bytes stored cluster-wide.
    pub fn total_bytes(&self) -> u64 {
        (0..self.nodes.len()).map(|i| self.node_bytes(i)).sum()
    }

    /// Block ids held by a node (unordered).
    pub fn blocks_on(&self, node: usize) -> Vec<BlockId> {
        self.nodes
            .get(node)
            .map_or_else(Vec::new, |n| n.blocks.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_range_saturates_on_overflow() {
        // Regression: `offset + len` near usize::MAX must clamp to the
        // block instead of wrapping and slicing backwards (panic).
        let mut s = BlockStore::new(1);
        s.put(0, BlockId(1), Bytes::from_static(b"abcdef")).unwrap();
        let got = s.get_range(0, BlockId(1), 2, usize::MAX).unwrap();
        assert_eq!(got.as_ref(), b"cdef");
        let got = s.get_range(0, BlockId(1), usize::MAX, usize::MAX).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = BlockStore::new(2);
        s.put(0, BlockId(1), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.get(0, BlockId(1)).unwrap().as_ref(), b"abc");
        assert_eq!(
            s.get(1, BlockId(1)).unwrap_err(),
            ClusterError::NoSuchBlock {
                node: 1,
                block: BlockId(1)
            }
        );
    }

    #[test]
    fn ranged_reads() {
        let mut s = BlockStore::new(1);
        s.put(0, BlockId(1), Bytes::from_static(b"0123456789"))
            .unwrap();
        assert_eq!(s.get_range(0, BlockId(1), 2, 3).unwrap().as_ref(), b"234");
        assert_eq!(s.get_range(0, BlockId(1), 8, 10).unwrap().as_ref(), b"89");
        assert_eq!(s.get_range(0, BlockId(1), 50, 10).unwrap().len(), 0);
    }

    #[test]
    fn failure_loses_blocks() {
        let mut s = BlockStore::new(2);
        s.put(0, BlockId(1), Bytes::from_static(b"abc")).unwrap();
        s.fail_node(0).unwrap();
        assert_eq!(s.get(0, BlockId(1)).unwrap_err(), ClusterError::NodeDown(0));
        assert!(!s.is_alive(0));
        assert_eq!(s.alive_nodes(), vec![1]);
        s.revive_node(0).unwrap();
        // Crash-stop: data is gone after revival.
        assert_eq!(
            s.get(0, BlockId(1)).unwrap_err(),
            ClusterError::NoSuchBlock {
                node: 0,
                block: BlockId(1)
            }
        );
    }

    #[test]
    fn accounting() {
        let mut s = BlockStore::new(3);
        s.put(0, BlockId(1), Bytes::from(vec![0u8; 100])).unwrap();
        s.put(0, BlockId(2), Bytes::from(vec![0u8; 50])).unwrap();
        s.put(2, BlockId(3), Bytes::from(vec![0u8; 25])).unwrap();
        assert_eq!(s.node_bytes(0), 150);
        assert_eq!(s.total_bytes(), 175);
        let mut blocks = s.blocks_on(0);
        blocks.sort();
        assert_eq!(blocks, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn bad_node_indices() {
        let mut s = BlockStore::new(1);
        assert_eq!(
            s.put(5, BlockId(0), Bytes::new()).unwrap_err(),
            ClusterError::NoSuchNode(5)
        );
        assert_eq!(
            s.get(5, BlockId(0)).unwrap_err(),
            ClusterError::NoSuchNode(5)
        );
        assert!(!s.is_alive(5));
    }

    #[test]
    fn revive_reports_lost_blocks() {
        let mut s = BlockStore::new(2);
        s.put(0, BlockId(1), Bytes::from_static(b"abc")).unwrap();
        s.put(0, BlockId(2), Bytes::from_static(b"defg")).unwrap();
        s.put(1, BlockId(3), Bytes::from_static(b"h")).unwrap();
        // Reviving an alive node loses nothing.
        assert_eq!(s.revive_node(0).unwrap(), 0);
        s.fail_node(0).unwrap();
        // Accounting agrees with the crash-stop model: the dead node holds
        // zero bytes and zero blocks.
        assert_eq!(s.node_bytes(0), 0);
        assert!(s.blocks_on(0).is_empty());
        assert_eq!(s.total_bytes(), 1);
        // Failing an already-dead node doesn't double-count.
        s.fail_node(0).unwrap();
        assert_eq!(s.revive_node(0).unwrap(), 2);
        // The revived node starts empty and the loss counter resets.
        assert!(s.blocks_on(0).is_empty());
        assert_eq!(s.revive_node(0).unwrap(), 0);
    }

    #[test]
    fn corruption_is_detected_on_read() {
        let mut s = BlockStore::new(1);
        s.put(0, BlockId(1), Bytes::from_static(b"hello world"))
            .unwrap();
        s.corrupt_block(0, BlockId(1), 4).unwrap();
        assert_eq!(
            s.get(0, BlockId(1)).unwrap_err(),
            ClusterError::Corrupt {
                node: 0,
                block: BlockId(1)
            }
        );
        assert_eq!(
            s.get_range(0, BlockId(1), 0, 3).unwrap_err(),
            ClusterError::Corrupt {
                node: 0,
                block: BlockId(1)
            }
        );
        assert!(!s.has_block(0, BlockId(1)));
        // Flipping the same byte back restores the block: the verdict
        // follows the bytes, not the injection.
        s.corrupt_block(0, BlockId(1), 4).unwrap();
        assert!(s.has_block(0, BlockId(1)));
        assert_eq!(s.get(0, BlockId(1)).unwrap().as_ref(), b"hello world");
        s.corrupt_block(0, BlockId(1), 4).unwrap();
        // Overwriting the block clears the corruption.
        s.put(0, BlockId(1), Bytes::from_static(b"fresh")).unwrap();
        assert_eq!(s.get(0, BlockId(1)).unwrap().as_ref(), b"fresh");
    }

    #[test]
    fn verdict_fits_in_block_padding() {
        assert_eq!(std::mem::size_of::<StoredBlock>(), 40);
    }

    #[test]
    fn read_counter_counts_successes_only() {
        let mut s = BlockStore::new(2);
        s.put(0, BlockId(1), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.reads(), 0);
        s.get(0, BlockId(1)).unwrap();
        s.get_range(0, BlockId(1), 0, 2).unwrap();
        assert_eq!(s.reads(), 2);
        let _ = s.get(1, BlockId(9));
        assert_eq!(s.reads(), 2);
    }

    #[test]
    fn per_node_serve_counters() {
        let mut s = BlockStore::new(2);
        s.put(0, BlockId(1), Bytes::from_static(b"0123456789"))
            .unwrap();
        s.put(1, BlockId(2), Bytes::from_static(b"ab")).unwrap();
        s.get(0, BlockId(1)).unwrap();
        // Ranged reads charge only the served slice.
        s.get_range(0, BlockId(1), 2, 3).unwrap();
        s.get(1, BlockId(2)).unwrap();
        // Failed reads charge nothing.
        let _ = s.get(1, BlockId(99));
        assert_eq!(s.bytes_served(0), 13);
        assert_eq!(s.bytes_served(1), 2);
        assert_eq!(s.bytes_served(7), 0);
        let json = s.metrics().to_json();
        assert!(json.contains("\"node0.bytes_served\":13"));
        assert!(json.contains("\"node0.blocks_served\":2"));
        assert!(json.contains("\"node1.blocks_served\":1"));
    }

    #[test]
    fn delete_blocks() {
        let mut s = BlockStore::new(1);
        s.put(0, BlockId(1), Bytes::from_static(b"x")).unwrap();
        s.delete(0, BlockId(1)).unwrap();
        assert!(s.get(0, BlockId(1)).is_err());
        // Deleting a missing block is fine.
        s.delete(0, BlockId(9)).unwrap();
    }
}
