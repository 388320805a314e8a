#![warn(missing_docs)]

//! # fusion-sql
//!
//! The SQL frontend of the Fusion analytics object store: an
//! S3-Select-class dialect (`SELECT` / `FROM` / `WHERE`, plus
//! coordinator-side aggregates) with a planner that decomposes queries
//! into the fine-grained per-column-chunk operations Fusion pushes down
//! to storage nodes.
//!
//! Pipeline: [`parser::parse`] → [`plan::plan`] → per-chunk
//! [`eval::eval_filter`] on storage nodes → bitmap [`eval::combine`] at the
//! coordinator → projection + [`eval::eval_aggregate`].
//!
//! ## Quickstart
//!
//! ```
//! use fusion_format::schema::{Field, LogicalType, Schema};
//! use fusion_format::value::ColumnData;
//! use fusion_sql::{eval, parser, plan};
//!
//! let schema = Schema::new(vec![
//!     Field::new("name", LogicalType::Utf8),
//!     Field::new("salary", LogicalType::Int64),
//! ]);
//! let query = parser::parse("SELECT salary FROM Employees WHERE name == 'Bob'")?;
//! let plan = plan::plan(&query, &schema)?;
//!
//! // A storage node evaluates the filter over its chunk:
//! let names = ColumnData::Utf8(vec!["Alice".into(), "Bob".into(), "Charlie".into()]);
//! let bitmap = eval::eval_filter(&plan.filters[0], &names)?;
//! assert_eq!(bitmap.ones().collect::<Vec<_>>(), vec![1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod bitmap;
pub mod date;
pub mod error;
pub mod eval;
pub mod kernel;
pub mod lexer;
pub mod parser;
pub mod partial;
pub mod plan;

pub use ast::{AggFunc, CmpOp, Expr, Literal, Query, SelectItem};
pub use bitmap::Bitmap;
pub use error::{Result, SqlError};
pub use parser::parse;
pub use plan::{plan, BoolTree, FilterLeaf, QueryPlan};
