#![warn(missing_docs)]

//! # fusion-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the Fusion paper's evaluation (§6), plus criterion micro-benchmarks of
//! the hot paths.
//!
//! Run `cargo run --release -p fusion-bench --bin figures -- all` (or a
//! single id such as `fig13`) to print each artifact; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! The harness follows the paper's methodology at a configurable scale
//! (see DESIGN.md §3): the dataset is 10 object copies of the file, 10
//! closed-loop clients issue the query mix, percentiles are computed over
//! per-query simulated latencies, and both systems execute identical data
//! planes.

pub mod figures;
pub mod harness;
pub mod microbench;
pub mod report;

pub use harness::{reduction, summarize, BenchEnv, LatencySummary, SystemKind};
pub use microbench::{microbench_on, microbench_query, microbench_sql, MicrobenchResult};
pub use report::{fmt_bytes, fmt_cut, Table as ReportTable};
