//! Property tests for the metadata-plane wire codecs (DESIGN.md §16):
//! the paper-format location map and the compact layout record must
//! roundtrip for arbitrary contents, reject malformed payloads with
//! typed errors instead of misparsing, and — for the compact record —
//! materialize exactly the map the deterministic placement implies.

use fusion_cluster::topology::Topology;
use fusion_core::config::EcConfig;
use fusion_core::location_map::{LocationEntry, LocationMap, LocationMapError};
use fusion_core::meta::{ChunkException, LayoutRecord};
use fusion_core::placement::{object_key, place_stripe};
use proptest::prelude::*;

fn arb_map() -> impl Strategy<Value = LocationMap> {
    prop::collection::vec((any::<u32>(), 0u32..1024), 0..64).prop_map(|entries| LocationMap {
        entries: entries
            .into_iter()
            .map(|(chunk_offset, node)| LocationEntry { chunk_offset, node })
            .collect(),
    })
}

fn arb_record() -> impl Strategy<Value = LayoutRecord> {
    (
        any::<u32>(),
        1u32..10_000,
        any::<u64>(),
        prop::collection::vec((0u32..10_000, 0u32..1024), 0..32),
    )
        .prop_map(|(epoch, chunks, size, mut ex)| {
            // The wire format requires sorted, unique, in-range chunks.
            ex.sort_by_key(|&(c, _)| c);
            ex.dedup_by_key(|&mut (c, _)| c);
            LayoutRecord {
                epoch,
                chunks,
                size,
                code: EcConfig::RS_9_6.into(),
                exceptions: ex
                    .into_iter()
                    .filter(|&(c, _)| c < chunks)
                    .map(|(chunk, node)| ChunkException { chunk, node })
                    .collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Paper-format map: encode/decode is the identity.
    #[test]
    fn location_map_roundtrips(map in arb_map()) {
        let bytes = map.to_bytes();
        prop_assert_eq!(bytes.len() as u64, map.byte_size());
        prop_assert_eq!(LocationMap::from_bytes(&bytes), Some(map.clone()));
        let nodes = map.entries.iter().map(|e| e.node).max().map_or(1, |m| m as usize + 1);
        prop_assert_eq!(LocationMap::from_bytes_checked(&bytes, nodes), Ok(map));
    }

    /// Any payload with a non-entry-aligned length is rejected, never
    /// partially parsed.
    #[test]
    fn location_map_rejects_odd_lengths(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let parsed = LocationMap::from_bytes(&bytes);
        if bytes.len().is_multiple_of(8) {
            prop_assert_eq!(parsed.map(|m| m.entries.len()), Some(bytes.len() / 8));
        } else {
            prop_assert_eq!(parsed, None);
            prop_assert_eq!(
                LocationMap::from_bytes_checked(&bytes, usize::MAX),
                Err(LocationMapError::BadLength(bytes.len()))
            );
        }
    }

    /// Truncating a valid map payload mid-entry is rejected; the
    /// checked parser flags the first out-of-range node.
    #[test]
    fn location_map_truncation_and_range(map in arb_map(), cut in 1usize..8) {
        let bytes = map.to_bytes();
        if !bytes.is_empty() {
            let cut = cut.min(bytes.len() - bytes.len() % 8).max(1);
            let truncated = &bytes[..bytes.len() - cut];
            if !truncated.len().is_multiple_of(8) {
                prop_assert_eq!(LocationMap::from_bytes(truncated), None);
            }
        }
        if let Some(worst) = map.entries.iter().map(|e| e.node).max() {
            let err = LocationMap::from_bytes_checked(&bytes, worst as usize);
            prop_assert!(matches!(err, Err(LocationMapError::NodeOutOfRange { .. })));
        }
    }

    /// Compact record: encode/decode is the identity, including the
    /// exception list.
    #[test]
    fn layout_record_roundtrips(rec in arb_record()) {
        let bytes = rec.to_bytes();
        prop_assert_eq!(bytes.len() as u64, rec.byte_size());
        prop_assert_eq!(LayoutRecord::from_bytes(&bytes), Ok(rec.clone()));
        prop_assert_eq!(LayoutRecord::from_bytes_checked(&bytes, 1024), Ok(rec));
    }

    /// Truncating a record anywhere (header or body) is a typed error.
    #[test]
    fn layout_record_rejects_truncation(rec in arb_record(), cut in 1usize..48) {
        let bytes = rec.to_bytes();
        let cut = cut.min(bytes.len());
        if cut > 0 {
            let truncated = &bytes[..bytes.len() - cut];
            prop_assert_eq!(
                LayoutRecord::from_bytes(truncated),
                Err(LocationMapError::BadLength(truncated.len()))
            );
        }
    }

    /// Deterministic placement is byte-stable and epoch-scoped: the same
    /// `(seed, key, stripe, membership)` always yields the same nodes,
    /// and a record's `node_of` agrees with the raw placement function.
    #[test]
    fn deterministic_placement_is_stable(
        seed: u64,
        name in "[a-z]{1,12}",
        chunks in 1u32..64,
    ) {
        let topo = Topology::racks(18, 6);
        let members: Vec<usize> = (0..18).collect();
        let code = EcConfig::RS_9_6.build_codec().unwrap();
        let okey = object_key("bucket", &name);
        let rec = LayoutRecord {
            epoch: 0,
            chunks,
            size: u64::from(chunks) * 4096,
            code: EcConfig::RS_9_6.into(),
            exceptions: Vec::new(),
        };
        for c in 0..chunks {
            let (stripe, bin) = rec.stripe_of(c);
            let placed = place_stripe(seed, okey, stripe, &code, &members, &topo);
            prop_assert_eq!(
                rec.node_of(c, (stripe, bin), seed, okey, &code, &members, &topo),
                placed[bin]
            );
            // Re-evaluation returns the identical layout.
            prop_assert_eq!(
                place_stripe(seed, okey, stripe, &code, &members, &topo),
                placed
            );
        }
    }
}
