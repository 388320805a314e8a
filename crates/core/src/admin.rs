//! Object-store management operations: listing, deletion, metadata heads,
//! and background scrubbing (parity verification) — the operational
//! surface a production deployment of Fusion would expose alongside
//! Put/Get/Query.

use crate::error::{Result, StoreError};
use crate::store::{trim_to_stored, ShardBuf, Store};
use bytes::Bytes;
use fusion_cluster::store::ClusterError;
use fusion_ec::ErasureCode;

/// Summary of one stored object (a `HEAD` response).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    /// Object name.
    pub name: String,
    /// Logical size in bytes.
    pub size: u64,
    /// Whether the object parsed as an analytics file at Put time.
    pub analytics: bool,
    /// Column chunks (0 for blobs).
    pub chunks: usize,
    /// Stripes in the layout.
    pub stripes: usize,
    /// Layout policy that produced the stripes.
    pub layout: &'static str,
    /// Additional storage overhead vs optimal (fraction).
    pub overhead_vs_optimal: f64,
    /// Serialized location-metadata bytes across all replicas (the
    /// paper's 8-bytes-per-chunk map, or the compact layout record under
    /// deterministic placement).
    pub metadata_bytes: u64,
}

/// Result of a scrub pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes whose parity checked out (including stripes healed in
    /// this pass from checksum-detected loss).
    pub stripes_ok: usize,
    /// Stripes with a block on a **down** node — not repairable until
    /// the node is replaced ([`Store::recover_node`]).
    pub stripes_degraded: usize,
    /// Stripes whose parity did **not** match their checksum-valid data
    /// (silent corruption that slipped past the CRC), or with too few
    /// readable shards to rebuild.
    pub stripes_corrupt: usize,
    /// Blocks rewritten during this pass: stripe blocks rebuilt from
    /// parity, and location-record replicas restored from the record.
    pub blocks_repaired: usize,
    /// Stripes that had at least one block repaired.
    pub stripes_repaired: usize,
}

impl ScrubReport {
    /// True when no corruption was found (degraded stripes are not
    /// corruption — they are repairable by [`Store::recover_node`]).
    pub fn is_clean(&self) -> bool {
        self.stripes_corrupt == 0
    }
}

impl Store {
    /// Lists stored object names with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.object_names()
            .into_iter()
            .filter(|n| n.starts_with(prefix))
            .collect()
    }

    /// Returns summary metadata for an object.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`].
    pub fn head(&self, name: &str) -> Result<ObjectInfo> {
        let meta = self.object(name)?;
        Ok(ObjectInfo {
            name: meta.name.clone(),
            size: meta.size,
            analytics: meta.file_meta.is_some(),
            chunks: meta.num_chunks(),
            stripes: meta.layout.stripes.len(),
            layout: meta.policy_used,
            overhead_vs_optimal: meta.overhead_vs_optimal,
            metadata_bytes: self.metadata_bytes(name).unwrap_or(0),
        })
    }

    /// Deletes an object: removes every data/parity block of every stripe
    /// from alive nodes (blocks on failed nodes are already gone), drops
    /// the metadata record, and reclaims its replica blocks from the data
    /// plane (previously those replicas leaked past delete).
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`].
    pub fn delete(&mut self, name: &str) -> Result<()> {
        let (meta, replicas) = self
            .take_object(name)
            .ok_or_else(|| StoreError::ObjectNotFound(name.to_string()))?;
        self.chunk_cache().invalidate_object(name);
        for sp in &meta.placement {
            for (&node, &block) in sp.nodes.iter().zip(&sp.block_ids) {
                match self.blocks_mut().delete(node, block) {
                    Ok(()) | Err(ClusterError::NodeDown(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        for (node, block) in replicas {
            // A replica rewritten by recovery keeps its tracked id
            // current, but a node that failed after the last recovery
            // may simply no longer hold the block.
            match self.blocks_mut().delete(node, block) {
                Ok(()) | Err(ClusterError::NodeDown(_) | ClusterError::NoSuchBlock { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Verifies — and where possible **heals** — every stripe of every
    /// object, and every location-record replica.
    ///
    /// One pass per stripe, inline on the caller's thread: read every
    /// block, re-check the code's parity relation (which catches silent
    /// corruption that checksumless reads would miss), heal or localize,
    /// then apply. Repairs happen in three tiers:
    ///
    /// * Blocks the data plane itself flags — checksum mismatch
    ///   ([`ClusterError::Corrupt`]) or missing on an alive node — are
    ///   rebuilt and rewritten in place: a single loss through the
    ///   store's one repair routine (the code's cheapest repair set, fed
    ///   the shards already read), several through full reconstruction.
    ///   The healed stripe counts as ok.
    /// * Parity mismatches among checksum-valid blocks (bit rot that
    ///   also recomputed the CRC, i.e. a tampered write) are localized
    ///   by leave-one-out reconstruction: the one block whose exclusion
    ///   makes the stripe verify again is the culprit and is rewritten.
    ///   The stripe still counts as corrupt so the detection is never
    ///   silent.
    /// * Location-record replicas an alive node can no longer serve
    ///   (rotted or missing) are rewritten in place from the record.
    ///
    /// Stripes with a block on a **down** node are counted degraded and
    /// left for [`Store::recover_node`], as are replicas on down nodes.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let (n, k) = (self.codec().total_blocks(), self.codec().data_blocks());
        for name in self.object_names() {
            let meta = match self.object(&name) {
                Ok(m) => m.clone(),
                Err(_) => continue,
            };
            let repaired_before = report.blocks_repaired;
            for (si, sp) in meta.placement.iter().enumerate() {
                let width = sp.width as usize;

                // Read every block of the stripe.
                let mut shards: ShardBuf = Vec::with_capacity(n);
                let mut lost: Vec<usize> = Vec::new();
                let mut degraded = false;
                for (i, (&node, &block)) in sp.nodes.iter().zip(&sp.block_ids).enumerate() {
                    match self.blocks().get(node, block) {
                        Ok(b) => {
                            let mut v = b.to_vec();
                            v.resize(width, 0);
                            shards.push(Some(v));
                        }
                        Err(ClusterError::NodeDown(_)) => {
                            degraded = true;
                            break;
                        }
                        // Checksum mismatch or block missing on an
                        // alive node: rebuildable from parity.
                        Err(_) => {
                            shards.push(None);
                            lost.push(i);
                        }
                    }
                }
                if degraded {
                    report.stripes_degraded += 1;
                    continue;
                }

                // Verify, heal or localize: the blocks to rewrite.
                let heals: Vec<(usize, Vec<u8>)> = match lost[..] {
                    [] => {
                        let full: Vec<&[u8]> = shards
                            .iter()
                            .map(|s| s.as_deref().expect("all readable"))
                            .collect();
                        if self.codec().verify(&full) {
                            report.stripes_ok += 1;
                            continue;
                        }
                        // Silent corruption that slipped past the CRC.
                        report.stripes_corrupt += 1;
                        localize(self.codec(), &shards, width)
                            .map(|(c, rebuilt)| (c, trim_to_stored(&meta, si, c, rebuilt)))
                            .into_iter()
                            .collect()
                    }
                    [single] => match self.rebuild_shard(&meta, si, single, Some(shards)) {
                        Ok((content, sources)) => {
                            self.metrics()
                                .counter("repair_bytes_moved")
                                .add((sources.len() * width) as u64);
                            report.stripes_ok += 1;
                            vec![(single, content)]
                        }
                        // Too few readable shards: unrecoverable.
                        Err(_) => {
                            report.stripes_corrupt += 1;
                            continue;
                        }
                    },
                    // Several losses: full reconstruction.
                    _ => {
                        if self.codec().reconstruct(&mut shards, width).is_err() {
                            report.stripes_corrupt += 1;
                            continue;
                        }
                        let sources = (n - lost.len()).min(k);
                        self.metrics()
                            .counter("repair_bytes_moved")
                            .add((sources * width) as u64);
                        report.stripes_ok += 1;
                        lost.iter()
                            .map(|&i| {
                                let rebuilt = shards[i].take().expect("reconstructed");
                                (i, trim_to_stored(&meta, si, i, rebuilt))
                            })
                            .collect()
                    }
                };

                // Apply: rewrite each rebuilt block in place.
                if heals.is_empty() {
                    continue;
                }
                report.stripes_repaired += 1;
                for (i, content) in heals {
                    let (node, block) = (sp.nodes[i], sp.block_ids[i]);
                    report.blocks_repaired += 1;
                    self.metrics().node(node).counter("scrub_heals").inc();
                    let _ = self.blocks_mut().put(node, block, Bytes::from(content));
                }
            }
            if report.blocks_repaired > repaired_before {
                // Healed blocks were rewritten: cached views of this
                // object may predate the heal.
                self.chunk_cache().invalidate_object(&name);
            }
            for node in self.heal_replicas(&name) {
                report.blocks_repaired += 1;
                self.metrics().node(node).counter("scrub_heals").inc();
            }
        }
        report
    }
}

/// Leave-one-out localization of a tampered block in a fully readable
/// stripe whose parity does not verify: the one shard whose exclusion
/// yields a stripe that reconstructs **and** verifies is the culprit.
/// Returns its index and its rebuilt (full-width) bytes.
fn localize(
    code: &ErasureCode,
    shards: &[Option<Vec<u8>>],
    width: usize,
) -> Option<(usize, Vec<u8>)> {
    (0..shards.len()).find_map(|c| {
        let mut cand = shards.to_vec();
        cand[c] = None;
        code.reconstruct(&mut cand, width).ok()?;
        let mut rebuilt: Vec<Vec<u8>> = cand
            .into_iter()
            .map(|s| s.expect("reconstructed"))
            .collect();
        let refs: Vec<&[u8]> = rebuilt.iter().map(Vec::as_slice).collect();
        let verified = code.verify(&refs);
        verified.then(|| (c, rebuilt.swap_remove(c)))
    })
}
