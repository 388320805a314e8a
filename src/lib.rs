#![warn(missing_docs)]

//! # Fusion
//!
//! An analytics object store optimized for query pushdown on
//! erasure-coded data — a complete, from-scratch Rust reproduction of the
//! ASPLOS '25 paper (Lu, Raina, Cidon, Freedman), including every
//! substrate it depends on:
//!
//! | crate | what it provides |
//! |---|---|
//! | [`core`] | the Fusion store: FAC stripe construction, adaptive pushdown, baselines, recovery |
//! | [`mod@format`] | a PAX columnar file format (mini-Parquet): row groups, column chunks, dictionary/RLE encodings, statistics footer |
//! | [`ec`] | one systematic erasure code over GF(2^8) — Reed-Solomon and LRC — with variable-length stripes |
//! | [`snappy`] | the Snappy compression codec |
//! | [`sql`] | the S3-Select-class SQL frontend: parser, planner, bitmap filter evaluation |
//! | [`cluster`] | the simulated storage cluster: real data plane, virtual-clock time plane |
//! | [`workloads`] | TPC-H lineitem, NYC taxi, recipeNLG, UK-price-paid and Zipf generators |
//!
//! ## Quickstart
//!
//! ```
//! use fusion::prelude::*;
//!
//! // Build an analytics file (the paper's running example, Table 1).
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
//! // Store it in Fusion and push a query down.
//! let mut cfg = StoreConfig::fusion();
//! cfg.overhead_threshold = 0.9; // tiny file; see DESIGN.md on thresholds
//! let mut store = Store::new(cfg)?;
//! store.put("Employees", bytes)?;
//! let out = store.query("SELECT salary FROM Employees WHERE name == 'Bob'")?;
//! assert_eq!(out.result.columns[0].1, ColumnData::Int64(vec![80_000]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fusion_cluster as cluster;
pub use fusion_core as core;
pub use fusion_ec as ec;
pub use fusion_format as format;
pub use fusion_snappy as snappy;
pub use fusion_sql as sql;
pub use fusion_workloads as workloads;

/// One-line imports for applications. (Error/`Result` aliases are left
/// out so `Box<dyn Error>` signatures keep working; import them from the
/// individual crates when needed.)
pub mod prelude {
    pub use fusion_cluster::time::Nanos;
    pub use fusion_core::config::{EcConfig, LayoutPolicy, QueryMode, StoreConfig};
    pub use fusion_core::store::Store;
    pub use fusion_format::footer::parse_footer;
    pub use fusion_format::reader::FileReader;
    pub use fusion_format::schema::{Field, LogicalType, Schema};
    pub use fusion_format::table::Table;
    pub use fusion_format::value::{ColumnData, Value};
    pub use fusion_format::writer::{write_table, WriteOptions};
    pub use fusion_sql::parser::parse;
}
