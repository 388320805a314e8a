//! Stripe layouts: how an object's bytes are assigned to erasure-code data
//! blocks.
//!
//! A [`Layout`] is a list of [`Stripe`]s; each stripe holds `k` [`Bin`]s
//! (data blocks); each bin holds an ordered list of [`Piece`]s — byte
//! ranges of the object, optionally tagged with the column chunk they
//! carry — plus physically stored padding (used only by the padding
//! baseline).
//!
//! Four packers produce layouts:
//!
//! | module | policy | chunk splits | physical padding |
//! |---|---|---|---|
//! | [`fixed`] | format-oblivious fixed blocks | yes | no |
//! | [`padding`] | Adams et al. alignment padding | only chunks > block | yes |
//! | [`fac`] | Fusion Algorithm 1 | never | no (implicit only) |
//! | [`oracle`] | exact branch & bound | never | no (implicit only) |

pub mod fac;
pub mod fixed;
pub mod oracle;
pub mod padding;

use crate::config::{EcConfig, LayoutPolicy, StoreConfig};

/// A byte range of the source object placed into a bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Start offset within the object.
    pub start: u64,
    /// End offset (exclusive).
    pub end: u64,
    /// The chunk ordinal this piece belongs to, when it carries (part of)
    /// a column chunk. `None` for format-oblivious pieces.
    pub chunk: Option<usize>,
}

impl Piece {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for an empty piece (never produced by the packers).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One erasure-code data block's contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bin {
    /// Object ranges stored in this bin, in order.
    pub pieces: Vec<Piece>,
    /// Physically stored zero padding at the end of the bin (padding
    /// baseline only). FAC's padding is *implicit*: it exists only inside
    /// the parity computation and is never stored.
    pub physical_pad: u64,
}

impl Bin {
    /// Bytes of real object data in this bin.
    pub fn data_len(&self) -> u64 {
        self.pieces.iter().map(Piece::len).sum()
    }

    /// Bytes this bin occupies on disk (data + physical padding).
    pub fn stored_len(&self) -> u64 {
        self.data_len() + self.physical_pad
    }
}

/// One erasure-code stripe: `k` bins plus `n − k` parity blocks sized to
/// the largest bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stripe {
    /// The data bins; length is always `k`.
    pub bins: Vec<Bin>,
}

impl Stripe {
    /// Size of the largest bin — the size of every parity block of this
    /// stripe (paper §4.2: "the size of parity blocks in a stripe depends
    /// solely on the largest data block size within the same stripe").
    pub fn block_size(&self) -> u64 {
        self.bins.iter().map(Bin::stored_len).max().unwrap_or(0)
    }

    /// Total real data bytes in the stripe.
    pub fn data_len(&self) -> u64 {
        self.bins.iter().map(Bin::data_len).sum()
    }
}

/// A complete layout of one object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layout {
    /// The stripes, in order.
    pub stripes: Vec<Stripe>,
}

impl Layout {
    /// Total real object bytes covered by the layout.
    pub fn data_len(&self) -> u64 {
        self.stripes.iter().map(Stripe::data_len).sum()
    }

    /// Bytes stored on disk for data blocks (including physical padding,
    /// excluding parity).
    pub fn stored_data_len(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.bins.iter().map(Bin::stored_len).sum::<u64>())
            .sum()
    }

    /// Bytes stored on disk for parity blocks under `ec`.
    pub fn parity_len(&self, ec: EcConfig) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.block_size() * ec.parity() as u64)
            .sum()
    }

    /// Total stored bytes (data + padding + parity).
    pub fn total_stored(&self, ec: EcConfig) -> u64 {
        self.stored_data_len() + self.parity_len(ec)
    }

    /// Additional storage overhead relative to the optimal
    /// `data × n / k`, as a fraction (0.012 = 1.2%). This is the metric of
    /// the paper's Figures 4d and 16.
    pub fn overhead_vs_optimal(&self, ec: EcConfig) -> f64 {
        let data = self.data_len();
        if data == 0 {
            return 0.0;
        }
        let optimal = data as f64 * ec.n as f64 / ec.k as f64;
        (self.total_stored(ec) as f64 - optimal) / optimal
    }

    /// The objective the stripe-construction problem minimizes: the sum of
    /// per-stripe maximum bin sizes (∝ parity bytes).
    pub fn objective(&self) -> u64 {
        self.stripes.iter().map(Stripe::block_size).sum()
    }

    /// Validates structural invariants against the chunk extents the
    /// layout was built from. Checks:
    ///
    /// 1. every byte of the object is covered exactly once,
    /// 2. each stripe has exactly `k` bins,
    /// 3. if `no_splits`, every chunk sits wholly inside one bin.
    ///
    /// Panics with a description on violation (test/debug helper).
    pub fn assert_valid(&self, object_len: u64, k: usize, no_splits: bool) {
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for s in &self.stripes {
            assert_eq!(s.bins.len(), k, "stripe must have exactly k bins");
            for b in &s.bins {
                for p in &b.pieces {
                    assert!(!p.is_empty(), "empty piece");
                    assert!(p.end <= object_len, "piece past end of object");
                    covered.push((p.start, p.end));
                }
            }
        }
        covered.sort_unstable();
        let mut pos = 0;
        for (s, e) in covered {
            assert_eq!(s, pos, "gap or overlap at byte {pos}");
            pos = e;
        }
        assert_eq!(pos, object_len, "layout does not cover the whole object");

        if no_splits {
            // Each chunk id must appear in exactly one bin.
            let mut seen = std::collections::HashMap::new();
            for (si, s) in self.stripes.iter().enumerate() {
                for (bi, b) in s.bins.iter().enumerate() {
                    for p in &b.pieces {
                        if let Some(c) = p.chunk {
                            let prev = seen.insert(c, (si, bi));
                            assert!(
                                prev.is_none() || prev == Some((si, bi)),
                                "chunk {c} split across bins"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// An item to pack: one column chunk (or pseudo-chunk such as the footer)
/// with its byte extent in the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackItem {
    /// Chunk ordinal (stable across packers; used by the location map).
    pub chunk: usize,
    /// Start offset in the object.
    pub start: u64,
    /// End offset (exclusive).
    pub end: u64,
}

impl PackItem {
    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the item covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub(crate) fn piece(&self) -> Piece {
        Piece {
            start: self.start,
            end: self.end,
            chunk: Some(self.chunk),
        }
    }
}

/// Derives pack items from a parsed analytics footer: one item per column
/// chunk in file order, plus a final pseudo-chunk covering the footer
/// bytes themselves (they must be stored too).
pub fn items_from_meta(meta: &fusion_format::footer::FileMeta, object_len: u64) -> Vec<PackItem> {
    let mut items = Vec::with_capacity(meta.num_chunks() + 1);
    let mut idx = 0;
    for (_, _, c) in meta.chunks() {
        items.push(PackItem {
            chunk: idx,
            start: c.offset,
            end: c.offset + c.len,
        });
        idx += 1;
    }
    let data_end = meta.data_len();
    if data_end < object_len {
        items.push(PackItem {
            chunk: idx,
            start: data_end,
            end: object_len,
        });
    }
    items
}

/// Packs an object of `size` bytes into stripes under the configured
/// layout policy, returning the layout and the name of the packer that
/// produced it (`"fac"`, `"padding"`, `"oracle"` or `"fixed"`). Fixed
/// blocks are the one fallback: for a blob (no footer, so no `items`),
/// under [`LayoutPolicy::Fixed`], and — as `"fixed-fallback"` — when
/// FAC's layout exceeds `overhead_threshold` (paper §4.2).
pub fn pack(config: &StoreConfig, size: u64, items: &[PackItem]) -> (Layout, &'static str) {
    let k = config.ec.k;
    let fallback = match config.layout {
        _ if items.is_empty() => "fixed",
        LayoutPolicy::Fixed => "fixed",
        LayoutPolicy::Padding => {
            return (padding::pack(config.block_size, k, items).layout, "padding")
        }
        LayoutPolicy::Oracle { deadline } => {
            return (oracle::pack(k, items, deadline).layout, "oracle")
        }
        LayoutPolicy::Fac => {
            let layout = fac::pack(k, items);
            if layout.overhead_vs_optimal(config.ec) > config.overhead_threshold {
                "fixed-fallback"
            } else {
                return (layout, "fac");
            }
        }
    };
    (fixed::pack(size, config.block_size, k, items), fallback)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(chunk: usize, start: u64, end: u64) -> PackItem {
        PackItem { chunk, start, end }
    }

    #[test]
    fn bin_and_stripe_sizes() {
        let stripe = Stripe {
            bins: vec![
                Bin {
                    pieces: vec![item(0, 0, 100).piece()],
                    physical_pad: 0,
                },
                Bin {
                    pieces: vec![item(1, 100, 130).piece(), item(2, 130, 160).piece()],
                    physical_pad: 40,
                },
            ],
        };
        assert_eq!(stripe.bins[0].data_len(), 100);
        assert_eq!(stripe.bins[1].data_len(), 60);
        assert_eq!(stripe.bins[1].stored_len(), 100);
        assert_eq!(stripe.block_size(), 100);
        assert_eq!(stripe.data_len(), 160);
    }

    #[test]
    fn overhead_math() {
        // One stripe, k=2, bins of 100 and 50, n=3 -> parity 100.
        let layout = Layout {
            stripes: vec![Stripe {
                bins: vec![
                    Bin {
                        pieces: vec![item(0, 0, 100).piece()],
                        physical_pad: 0,
                    },
                    Bin {
                        pieces: vec![item(1, 100, 150).piece()],
                        physical_pad: 0,
                    },
                ],
            }],
        };
        let ec = EcConfig::rs(3, 2);
        assert_eq!(layout.data_len(), 150);
        assert_eq!(layout.parity_len(ec), 100);
        assert_eq!(layout.total_stored(ec), 250);
        // optimal = 150 * 3/2 = 225; overhead = 25/225.
        assert!((layout.overhead_vs_optimal(ec) - 25.0 / 225.0).abs() < 1e-12);
        assert_eq!(layout.objective(), 100);
    }

    #[test]
    fn validity_checks_pass() {
        let layout = Layout {
            stripes: vec![Stripe {
                bins: vec![
                    Bin {
                        pieces: vec![item(0, 0, 10).piece()],
                        physical_pad: 0,
                    },
                    Bin {
                        pieces: vec![item(1, 10, 20).piece()],
                        physical_pad: 0,
                    },
                ],
            }],
        };
        layout.assert_valid(20, 2, true);
    }

    #[test]
    #[should_panic(expected = "gap or overlap")]
    fn validity_detects_gaps() {
        let layout = Layout {
            stripes: vec![Stripe {
                bins: vec![
                    Bin {
                        pieces: vec![item(0, 0, 10).piece()],
                        physical_pad: 0,
                    },
                    Bin {
                        pieces: vec![item(1, 15, 20).piece()],
                        physical_pad: 0,
                    },
                ],
            }],
        };
        layout.assert_valid(20, 2, false);
    }

    #[test]
    #[should_panic(expected = "split across bins")]
    fn validity_detects_splits() {
        let layout = Layout {
            stripes: vec![Stripe {
                bins: vec![
                    Bin {
                        pieces: vec![Piece {
                            start: 0,
                            end: 10,
                            chunk: Some(0),
                        }],
                        physical_pad: 0,
                    },
                    Bin {
                        pieces: vec![Piece {
                            start: 10,
                            end: 20,
                            chunk: Some(0),
                        }],
                        physical_pad: 0,
                    },
                ],
            }],
        };
        layout.assert_valid(20, 2, true);
    }

    #[test]
    fn items_from_meta_includes_footer() {
        use fusion_format::prelude::*;
        let schema = Schema::new(vec![Field::new("x", LogicalType::Int64)]);
        let table = Table::new(schema, vec![ColumnData::Int64((0..100).collect())]).unwrap();
        let bytes = write_table(&table, WriteOptions { rows_per_group: 40 }).unwrap();
        let meta = parse_footer(&bytes).unwrap();
        let items = items_from_meta(&meta, bytes.len() as u64);
        // 3 row groups x 1 column + footer pseudo-chunk.
        assert_eq!(items.len(), 4);
        // Items tile the object exactly.
        let mut pos = 0;
        for it in &items {
            assert_eq!(it.start, pos);
            pos = it.end;
        }
        assert_eq!(pos, bytes.len() as u64);
    }
}
