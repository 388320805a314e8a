#![warn(missing_docs)]

//! # fusion-core
//!
//! The Fusion analytics object store (ASPLOS '25): erasure coding
//! co-designed with the columnar file format so that **column chunks — the
//! smallest computable units — are never split across storage nodes**, plus
//! a fine-grained adaptive query-pushdown engine built on that guarantee.
//!
//! ## The two ideas
//!
//! 1. **File-format-aware coding (FAC)** — instead of cutting objects into
//!    fixed-size erasure-code blocks (which fragments chunks over many
//!    nodes), FAC reads chunk extents from the file footer and bin-packs
//!    whole chunks into *variable-size* data blocks, one stripe at a time
//!    ([`layout::fac`], Algorithm 1). Because a stripe's parity size equals
//!    its largest block, the packer minimizes the sum of per-stripe maxima;
//!    empirically it stays within ~1% of the optimal `(n−k)/k` overhead
//!    (vs up to >80% for the padding alternative, [`layout::padding`]).
//!    If the budget cannot be met the store falls back to fixed blocks.
//! 2. **Fine-grained adaptive pushdown** — filters always run in situ on
//!    the node hosting each chunk (they return tiny compressed bitmaps);
//!    projections are pushed down per chunk only when the Cost Equation
//!    `selectivity × compressibility < 1` predicts the uncompressed
//!    selected values are smaller than the compressed chunk
//!    ([`query::fusion`]).
//!
//! A MinIO/Ceph-class baseline (fixed blocks + coordinator reassembly,
//! [`query::baseline`]) is included for every experiment.
//!
//! ## Quickstart
//!
//! ```
//! use fusion_core::config::StoreConfig;
//! use fusion_core::store::Store;
//! use fusion_format::prelude::*;
//!
//! // Table 1 from the paper.
//! let schema = Schema::new(vec![
//!     Field::new("name", LogicalType::Utf8),
//!     Field::new("salary", LogicalType::Int64),
//! ]);
//! let table = Table::new(schema, vec![
//!     ColumnData::Utf8(vec!["Alice".into(), "Bob".into(), "Charlie".into(),
//!                           "David".into(), "Emily".into(), "Frank".into()]),
//!     ColumnData::Int64(vec![70_000, 80_000, 70_000, 60_000, 60_000, 70_000]),
//! ])?;
//! let bytes = write_table(&table, WriteOptions { rows_per_group: 3 })?;
//!
//! let mut cfg = StoreConfig::fusion();
//! cfg.overhead_threshold = 0.9; // tiny demo file; see DESIGN.md
//! let mut store = Store::new(cfg)?;
//! store.put("Employees", bytes)?;
//!
//! let out = store.query("SELECT salary FROM Employees WHERE name == 'Bob'")?;
//! assert_eq!(out.result.row_count, 1);
//! assert_eq!(out.result.columns[0].1, ColumnData::Int64(vec![80_000]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admin;
pub mod cache;
pub mod config;
pub mod error;
pub mod layout;
pub mod location_map;
pub mod meta;
pub mod object;
pub mod placement;
pub mod query;
pub mod store;

pub use admin::{ObjectInfo, ScrubReport};
pub use cache::{CacheStats, ChunkCache};
pub use config::{EcConfig, LayoutPolicy, PlacementPolicy, QueryMode, StoreConfig};
pub use error::{Result, StoreError};
pub use location_map::{LocationMap, LocationMapError};
pub use meta::{LayoutRecord, Membership, Namespace, RebalanceReport};
pub use object::ObjectMeta;
pub use placement::{object_id, object_key, ObjectId};
pub use query::{QueryOutput, QueryResult};
pub use store::{ObjectMetaRecord, PutOutcome, PutReport, RecoveryReport, Store};
