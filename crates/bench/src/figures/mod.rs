//! One function per table/figure of the paper's evaluation. Each returns
//! rendered text; the `figures` binary prints and archives them.
//!
//! See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured values.

pub mod agg_pushdown;
pub mod degraded;
pub mod ec_throughput;
pub mod latency;
pub mod meta_scale;
pub mod observability;
pub mod repair_traffic;
pub mod scan_throughput;
pub mod service_throughput;
pub mod snappy_throughput;
pub mod storage;
pub mod traffic_load;

use crate::harness::BenchEnv;

/// Every artifact id, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table3",
    "table4",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig6",
    "fig10a",
    "fig10b",
    "fig12",
    "fig13",
    "fig14ab",
    "fig14c",
    "fig14d",
    "fig15",
    "fig16a",
    "fig16bc",
    "ablation",
    "extagg",
    "agg_pushdown",
    "degraded",
    "ec_throughput",
    "scan_throughput",
    "snappy_throughput",
    "observability",
    "repair_traffic",
    "traffic_load",
    "meta_scale",
    "service_throughput",
];

/// Runs one artifact by id, from cold chunk caches: its output does not
/// depend on which artifacts ran before it on `env`.
///
/// # Panics
///
/// Panics on an unknown id (the binary validates first).
pub fn run(id: &str, env: &BenchEnv) -> String {
    env.clear_chunk_caches();
    match id {
        "table3" => storage::table3(env),
        "table4" => latency::table4(env),
        "fig4a" => storage::fig4a(env),
        "fig4b" => latency::fig4b(env),
        "fig4c" => storage::fig4c(env),
        "fig4d" => storage::fig4d(env),
        "fig6" => storage::fig6(env),
        "fig10a" => storage::fig10a(env),
        "fig10b" => latency::fig10b(env),
        "fig12" => storage::fig12(env),
        "fig13" => latency::fig13(env),
        "fig14ab" => latency::fig14ab(env),
        "fig14c" => latency::fig14c(env),
        "fig14d" => latency::fig14d(env),
        "fig15" => latency::fig15(env),
        "fig16a" => storage::fig16a(env),
        "fig16bc" => storage::fig16bc(env),
        "ablation" => latency::ablation_adaptive(env),
        "extagg" => latency::ext_aggregate_pushdown(env),
        "agg_pushdown" => agg_pushdown::agg_pushdown(env),
        "degraded" => degraded::degraded_latency(env),
        "ec_throughput" => ec_throughput::ec_throughput(env),
        "scan_throughput" => scan_throughput::scan_throughput(env),
        "snappy_throughput" => snappy_throughput::snappy_throughput(env),
        "observability" => observability::observability(env),
        "repair_traffic" => repair_traffic::repair_traffic(env),
        "traffic_load" => traffic_load::traffic_load(env),
        "meta_scale" => meta_scale::meta_scale(env),
        "service_throughput" => service_throughput::service_throughput(env),
        id if id.starts_with("debugcol") => {
            let col: usize = id.trim_start_matches("debugcol").parse().unwrap_or(0);
            latency::debug_column(env, col)
        }
        other => panic!("unknown artifact id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> BenchEnv {
        BenchEnv::new(0.02, 2, 20, 4)
    }

    /// An artifact prints the same text whether it runs alone or after
    /// other artifacts on the same environment (which share its cached
    /// lineitem stores).
    #[test]
    fn artifact_output_does_not_depend_on_earlier_artifacts() {
        let mut changed = Vec::new();
        for (before, id) in [
            ("table4", "extagg"),
            ("table4", "ablation"),
            ("fig13", "fig14d"),
        ] {
            let alone = run(id, &tiny_env());
            let env = tiny_env();
            run(before, &env);
            if run(id, &env) != alone {
                changed.push(format!("{id} after {before}"));
            }
        }
        assert!(changed.is_empty(), "output changed: {changed:?}");
    }
}
