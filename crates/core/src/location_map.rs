//! The chunk location map (paper §5, "Metadata Management").
//!
//! Fusion keeps one map per object, tracking which storage node hosts each
//! column chunk. Every entry is 8 bytes — 4 for the chunk's byte offset
//! within the object, 4 for the storage node id — and the map is
//! replicated to `k + 1` nodes so it survives the same number of failures
//! as RS(n, k) data.
//!
//! Since the metadata-plane work (DESIGN.md §16) this paper-format map is
//! no longer the only source of truth: under
//! [`crate::config::PlacementPolicy::Deterministic`] the store keeps a
//! compact [`crate::meta::LayoutRecord`] instead and *computes* locations,
//! keeping this codec for wire compatibility and as the differential
//! oracle the deterministic path is checked against.

use crate::object::ObjectMeta;

/// Typed failures of the location-map codec and builder.
///
/// Before this type existed, `from_bytes` rejected only lengths that were
/// not a multiple of 8 — an entry naming node `7` in a 4-node cluster
/// parsed fine and silently routed reads to a nonexistent node — and
/// `build` truncated 64-bit object offsets with `as u32`, so an object of
/// 4 GiB or more would produce a corrupt (wrapped-offset) map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationMapError {
    /// Wire payload length is not a multiple of the 8-byte entry size.
    BadLength(usize),
    /// An entry names a node outside the cluster.
    NodeOutOfRange {
        /// Chunk ordinal of the offending entry.
        chunk: usize,
        /// Node id the entry carried.
        node: u32,
        /// Number of nodes in the cluster it was validated against.
        nodes: usize,
    },
    /// A chunk's object offset does not fit the paper's 4-byte field.
    OffsetOverflow {
        /// Chunk ordinal of the offending chunk.
        chunk: usize,
        /// The 64-bit offset that overflowed.
        offset: u64,
    },
    /// A compact layout record carries an impossible erasure code.
    BadCode {
        /// Total shards per stripe.
        n: u8,
        /// Data shards per stripe.
        k: u8,
    },
    /// A compact layout record's exception list is unsorted, duplicated,
    /// or names a chunk beyond the object.
    ExceptionsInvalid {
        /// Index of the first offending exception.
        index: usize,
    },
    /// A compact layout record names a membership epoch outside the
    /// store's history.
    UnknownEpoch {
        /// Epoch the record carried.
        epoch: u32,
        /// Number of epochs the store has.
        epochs: usize,
    },
    /// A compact layout record names an erasure code other than the
    /// store's.
    WrongCode {
        /// Total shards per stripe.
        n: u8,
        /// Data shards per stripe.
        k: u8,
        /// Local parity groups.
        local_groups: u8,
    },
    /// The metadata describes a different number of chunks than the
    /// object has.
    ChunkCount {
        /// Chunks the metadata describes.
        got: usize,
        /// Chunks the object has.
        expected: usize,
    },
}

impl std::fmt::Display for LocationMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocationMapError::BadLength(len) => {
                write!(
                    f,
                    "location map payload of {len} bytes is not entry-aligned"
                )
            }
            LocationMapError::NodeOutOfRange { chunk, node, nodes } => write!(
                f,
                "location map entry for chunk {chunk} names node {node} in a {nodes}-node cluster"
            ),
            LocationMapError::OffsetOverflow { chunk, offset } => write!(
                f,
                "chunk {chunk} offset {offset} overflows the 4-byte map field"
            ),
            LocationMapError::BadCode { n, k } => {
                write!(f, "layout record names impossible code ({n}, {k})")
            }
            LocationMapError::ExceptionsInvalid { index } => {
                write!(
                    f,
                    "layout record exception {index} unsorted or out of range"
                )
            }
            LocationMapError::UnknownEpoch { epoch, epochs } => write!(
                f,
                "layout record names epoch {epoch} of a {epochs}-epoch history"
            ),
            LocationMapError::WrongCode { n, k, local_groups } => write!(
                f,
                "layout record names code ({n}, {k}, {local_groups}), not the store's"
            ),
            LocationMapError::ChunkCount { got, expected } => write!(
                f,
                "location metadata describes {got} chunks of an object with {expected}"
            ),
        }
    }
}

impl std::error::Error for LocationMapError {}

/// One 8-byte entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationEntry {
    /// Byte offset of the chunk within the object (u32, as in the paper).
    pub chunk_offset: u32,
    /// Node id hosting the chunk (first fragment, for split chunks).
    pub node: u32,
}

/// The per-object chunk location map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocationMap {
    /// Entries ordered by chunk ordinal.
    pub entries: Vec<LocationEntry>,
}

impl LocationMap {
    /// Builds the map from object metadata (one entry per chunk).
    ///
    /// # Errors
    ///
    /// [`LocationMapError::OffsetOverflow`] if any chunk starts at or
    /// beyond 4 GiB — the paper's 4-byte offset field cannot address it,
    /// and truncating (the pre-fix behavior) would serve wrong bytes.
    pub fn build(meta: &ObjectMeta) -> Result<LocationMap, LocationMapError> {
        let mut entries = Vec::with_capacity(meta.num_chunks());
        for c in 0..meta.num_chunks() {
            let frags = meta.chunk_fragments(c);
            let first = frags.first();
            let offset = first.map_or(0, |f| f.object_offset);
            let chunk_offset = u32::try_from(offset)
                .map_err(|_| LocationMapError::OffsetOverflow { chunk: c, offset })?;
            entries.push(LocationEntry {
                chunk_offset,
                node: first.map_or(0, |f| f.node as u32),
            });
        }
        Ok(LocationMap { entries })
    }

    /// Serialized size in bytes (8 per entry).
    pub fn byte_size(&self) -> u64 {
        self.entries.len() as u64 * 8
    }

    /// Serializes to the 8-bytes-per-entry wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 8);
        for e in &self.entries {
            out.extend_from_slice(&e.chunk_offset.to_le_bytes());
            out.extend_from_slice(&e.node.to_le_bytes());
        }
        out
    }

    /// Parses the wire format. Returns `None` on a length that is not a
    /// multiple of 8.
    ///
    /// Node ids are *not* validated here — use
    /// [`LocationMap::from_bytes_checked`] at any use site that knows the
    /// cluster size, otherwise an out-of-range id routes reads silently.
    pub fn from_bytes(bytes: &[u8]) -> Option<LocationMap> {
        Self::parse(bytes).ok()
    }

    /// Parses the wire format and validates every entry's node id against
    /// the cluster size.
    ///
    /// # Errors
    ///
    /// [`LocationMapError::BadLength`] on a non-entry-aligned payload,
    /// [`LocationMapError::NodeOutOfRange`] on the first entry naming a
    /// node `>= nodes`.
    pub fn from_bytes_checked(bytes: &[u8], nodes: usize) -> Result<LocationMap, LocationMapError> {
        let map = Self::parse(bytes)?;
        for (chunk, e) in map.entries.iter().enumerate() {
            if e.node as usize >= nodes {
                return Err(LocationMapError::NodeOutOfRange {
                    chunk,
                    node: e.node,
                    nodes,
                });
            }
        }
        Ok(map)
    }

    fn parse(bytes: &[u8]) -> Result<LocationMap, LocationMapError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(LocationMapError::BadLength(bytes.len()));
        }
        let entries = bytes
            .chunks_exact(8)
            .map(|c| LocationEntry {
                chunk_offset: u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                node: u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
            })
            .collect();
        Ok(LocationMap { entries })
    }

    /// The node hosting chunk ordinal `c`, if known.
    pub fn node_of(&self, c: usize) -> Option<usize> {
        self.entries.get(c).map(|e| e.node as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let map = LocationMap {
            entries: vec![
                LocationEntry {
                    chunk_offset: 0,
                    node: 3,
                },
                LocationEntry {
                    chunk_offset: 4096,
                    node: 7,
                },
                LocationEntry {
                    chunk_offset: 123_456,
                    node: 0,
                },
            ],
        };
        let bytes = map.to_bytes();
        assert_eq!(bytes.len() as u64, map.byte_size());
        assert_eq!(bytes.len(), 24);
        assert_eq!(LocationMap::from_bytes(&bytes), Some(map));
    }

    #[test]
    fn bad_length_rejected() {
        assert_eq!(LocationMap::from_bytes(&[0u8; 7]), None);
        assert!(LocationMap::from_bytes(&[]).is_some());
        assert_eq!(
            LocationMap::from_bytes_checked(&[0u8; 7], 9),
            Err(LocationMapError::BadLength(7))
        );
    }

    #[test]
    fn node_lookup() {
        let map = LocationMap {
            entries: vec![LocationEntry {
                chunk_offset: 0,
                node: 5,
            }],
        };
        assert_eq!(map.node_of(0), Some(5));
        assert_eq!(map.node_of(1), None);
    }

    #[test]
    fn checked_parse_rejects_out_of_range_node() {
        let map = LocationMap {
            entries: vec![
                LocationEntry {
                    chunk_offset: 0,
                    node: 2,
                },
                LocationEntry {
                    chunk_offset: 64,
                    node: 9,
                },
            ],
        };
        let bytes = map.to_bytes();
        assert_eq!(LocationMap::from_bytes_checked(&bytes, 10), Ok(map));
        assert_eq!(
            LocationMap::from_bytes_checked(&bytes, 9),
            Err(LocationMapError::NodeOutOfRange {
                chunk: 1,
                node: 9,
                nodes: 9
            })
        );
    }
}
