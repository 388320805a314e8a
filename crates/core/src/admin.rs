//! Object-store management operations: listing, deletion, metadata heads,
//! and background scrubbing (parity verification) — the operational
//! surface a production deployment of Fusion would expose alongside
//! Put/Get/Query.

use crate::error::{Result, StoreError};
use crate::store::Store;
use bytes::Bytes;
use fusion_cluster::store::ClusterError;

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
    /// Blocks rebuilt from parity and rewritten during this pass.
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

    /// Verifies — and where possible **heals** — the parity consistency
    /// of every stripe of every object.
    ///
    /// Reads all blocks of each stripe and re-checks the Reed-Solomon
    /// relation; detects silent data corruption that checksumless reads
    /// would miss. Repairs happen in two tiers:
    ///
    /// * Blocks the data plane itself flags — checksum mismatch
    ///   ([`ClusterError::Corrupt`]) or missing on an alive node — are
    ///   rebuilt from the stripe's surviving shards and rewritten in
    ///   place. The healed stripe counts as ok.
    /// * Parity mismatches among checksum-valid blocks (bit rot that
    ///   also recomputed the CRC, i.e. a tampered write) are localized
    ///   by leave-one-out reconstruction: the one block whose exclusion
    ///   makes the stripe verify again is the culprit and is rewritten.
    ///   The stripe still counts as corrupt so the detection is never
    ///   silent.
    ///
    /// Stripes with a block on a **down** node are counted degraded and
    /// left for [`Store::recover_node`].
    ///
    /// The expensive verify/reconstruct math of each stripe fans out
    /// across the store's worker pool; block reads and repair writes stay
    /// serial (the data plane is single-owner).
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for name in self.object_names() {
            let meta = match self.object(&name) {
                Ok(m) => m.clone(),
                Err(_) => continue,
            };

            // Phase 1 (serial): read and classify every block of every
            // stripe of this object.
            let mut jobs: Vec<ScrubJob> = Vec::with_capacity(meta.placement.len());
            for (si, sp) in meta.placement.iter().enumerate() {
                let width = sp.width as usize;
                let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(sp.nodes.len());
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
                jobs.push(ScrubJob {
                    si,
                    width,
                    shards,
                    lost,
                    degraded,
                    verdict: ScrubVerdict::Degraded,
                    sources: 0,
                });
            }

            // Phase 2 (parallel): verify/reconstruct each stripe across
            // the worker pool. Pure codec math over job-owned buffers.
            {
                let rs = self.codec();
                self.pool().for_each_mut(&mut jobs, |_, job| {
                    job.verdict = if job.degraded {
                        ScrubVerdict::Degraded
                    } else if !job.lost.is_empty() {
                        // Single losses go through the code's cheapest
                        // repair path (an LRC local group reads r shards,
                        // not k); multi-loss falls back to full
                        // reconstruction.
                        let avail: Vec<bool> = job.shards.iter().map(|s| s.is_some()).collect();
                        let healed = if let [single] = job.lost[..] {
                            job.sources = rs
                                .repair_sources(single, &avail)
                                .map_or(rs.data_blocks(), |s| s.len());
                            rs.repair_one(&mut job.shards, single, job.width)
                        } else {
                            job.sources =
                                avail.iter().filter(|&&a| a).count().min(rs.data_blocks());
                            rs.reconstruct(&mut job.shards, job.width)
                        };
                        match healed {
                            Ok(()) => ScrubVerdict::Healed,
                            // Too few readable shards: unrecoverable.
                            Err(_) => ScrubVerdict::Unrecoverable,
                        }
                    } else {
                        let full: Vec<&[u8]> = job
                            .shards
                            .iter()
                            .map(|s| s.as_deref().expect("all readable"))
                            .collect();
                        if rs.verify(&full) {
                            ScrubVerdict::Ok
                        } else {
                            ScrubVerdict::Mismatch
                        }
                    };
                });
            }

            // Phase 3 (serial): apply verdicts — rewrite healed blocks,
            // localize tampered ones — and tally the report.
            let k = self.config().ec.k;
            let repaired_before = report.blocks_repaired;
            for job in jobs {
                let sp = &meta.placement[job.si];
                match job.verdict {
                    ScrubVerdict::Degraded => report.stripes_degraded += 1,
                    ScrubVerdict::Ok => report.stripes_ok += 1,
                    ScrubVerdict::Unrecoverable => report.stripes_corrupt += 1,
                    ScrubVerdict::Healed => {
                        // Repair traffic: the heal read `sources` shards
                        // off other nodes to rebuild the lost block(s).
                        self.metrics()
                            .counter("repair_bytes_moved")
                            .add((job.sources * job.width) as u64);
                        for &i in &job.lost {
                            let content = trim_shard(
                                job.shards[i].clone().expect("reconstructed"),
                                &meta,
                                job.si,
                                i,
                                k,
                            );
                            report.blocks_repaired += 1;
                            self.metrics()
                                .node(sp.nodes[i])
                                .counter("scrub_heals")
                                .inc();
                            let _ = self.blocks_mut().put(
                                sp.nodes[i],
                                sp.block_ids[i],
                                Bytes::from(content),
                            );
                        }
                        report.stripes_repaired += 1;
                        report.stripes_ok += 1;
                    }
                    ScrubVerdict::Mismatch => {
                        // Silent corruption that slipped past the CRC.
                        // Localize it: excluding the corrupt block (and
                        // only it) yields a stripe that reconstructs AND
                        // verifies. Rare, so stays serial.
                        report.stripes_corrupt += 1;
                        let full: Vec<Vec<u8>> = job
                            .shards
                            .iter()
                            .map(|s| s.clone().expect("all readable"))
                            .collect();
                        for c in 0..full.len() {
                            let mut cand: Vec<Option<Vec<u8>>> =
                                full.iter().cloned().map(Some).collect();
                            cand[c] = None;
                            if self.codec().reconstruct(&mut cand, job.width).is_err() {
                                continue;
                            }
                            let rebuilt: Vec<Vec<u8>> = cand
                                .into_iter()
                                .map(|s| s.expect("reconstructed"))
                                .collect();
                            let refs: Vec<&[u8]> = rebuilt.iter().map(|v| v.as_slice()).collect();
                            if self.codec().verify(&refs) {
                                let content = trim_shard(rebuilt[c].clone(), &meta, job.si, c, k);
                                report.blocks_repaired += 1;
                                report.stripes_repaired += 1;
                                self.metrics()
                                    .node(sp.nodes[c])
                                    .counter("scrub_heals")
                                    .inc();
                                let _ = self.blocks_mut().put(
                                    sp.nodes[c],
                                    sp.block_ids[c],
                                    Bytes::from(content),
                                );
                                break;
                            }
                        }
                    }
                }
            }
            if report.blocks_repaired > repaired_before {
                // Healed blocks were rewritten: cached views of this
                // object may predate the heal.
                self.chunk_cache().invalidate_object(&name);
            }
        }
        report
    }
}

/// What the parallel verify/reconstruct phase concluded about a stripe.
enum ScrubVerdict {
    /// A block sits on a down node; leave for `recover_node`.
    Degraded,
    /// Parity checks out.
    Ok,
    /// CRC-flagged/missing blocks were rebuilt into `shards`.
    Healed,
    /// Fewer than `k` readable shards remain.
    Unrecoverable,
    /// All blocks readable but parity disagrees (tampered write).
    Mismatch,
}

/// One stripe's scrub work unit; owned buffers so the verify/reconstruct
/// phase can run on pool workers without shared mutable state.
struct ScrubJob {
    si: usize,
    width: usize,
    shards: Vec<Option<Vec<u8>>>,
    lost: Vec<usize>,
    degraded: bool,
    verdict: ScrubVerdict,
    /// Shards the heal read as repair sources (repair-traffic tally).
    sources: usize,
}

/// Trims a reconstructed shard back to its stored size: data bins are
/// stored without implicit padding; parity stays at full stripe width.
fn trim_shard(
    mut shard: Vec<u8>,
    meta: &crate::object::ObjectMeta,
    stripe: usize,
    bin: usize,
    k: usize,
) -> Vec<u8> {
    if bin < k {
        shard.truncate(meta.layout.stripes[stripe].bins[bin].stored_len() as usize);
    }
    shard
}
