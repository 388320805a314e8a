//! Degraded-mode query latency (robustness extension, Figure-13-style):
//! the per-column Fusion-vs-baseline comparison repeated with 0, 1, 2,
//! and 3 of the nine storage nodes failed — up to the m = 3 parity
//! blocks RS(9,6) tolerates.
//!
//! Both systems keep answering (identical rows to the healthy cluster);
//! what changes is the time plane: chunks whose hosting node died are
//! rebuilt at the coordinator from the stripe's k surviving shards, so
//! Fusion loses in-situ evaluation for exactly those chunks while the
//! baseline pays the same reconstruction on its fetch path.
//!
//! Besides the rendered table, this experiment writes machine-readable
//! JSON to `results/degraded_latency.json`.

use crate::harness::{BenchEnv, SystemKind};
use crate::microbench::{microbench_on, microbench_sql, MicrobenchResult, Pair};
use crate::report::{json_array, write_json, Table};
use fusion_core::store::Store;

/// The paper's default microbenchmark selectivity.
const SEL: f64 = 0.01;
/// Representative columns: 0/5 are pushdown winners in Figure 13, 4/9
/// are the incompressible cases where pushdown gains little.
const COLUMNS: [usize; 4] = [0, 4, 5, 9];
/// Nodes killed cumulatively: spread across the ring so consecutive
/// failure levels do not concentrate on adjacent placements.
const KILL_ORDER: [usize; 3] = [0, 4, 8];

/// Degraded query latency: Fusion vs baseline at 0–3 failed nodes.
pub fn degraded_latency(env: &BenchEnv) -> String {
    let file = env.lineitem_file().to_vec();
    let mut fusion = env.build_store(SystemKind::Fusion, "lineitem", &file);
    let mut baseline = env.build_store(SystemKind::Baseline, "lineitem", &file);

    let cells = |store: &Store| {
        COLUMNS.map(|c| {
            microbench_on(env, store, "lineitem", |obj| {
                microbench_sql(env, c, SEL, obj)
            })
        })
    };
    // Per failure level: every column on Fusion, then on the baseline.
    let mut levels: Vec<[[MicrobenchResult; 4]; 2]> = Vec::new();
    for failed in 0..=KILL_ORDER.len() {
        if failed > 0 {
            let node = KILL_ORDER[failed - 1];
            fusion.fail_node(node).expect("valid node");
            baseline.fail_node(node).expect("valid node");
        }
        levels.push([cells(&fusion), cells(&baseline)]);
    }

    let mut json = Vec::new();
    for (failed, systems) in levels.iter().enumerate() {
        for (system, results) in ["fusion", "baseline"].iter().zip(systems) {
            for (c, r) in COLUMNS.iter().zip(results) {
                json.push(format!(
                    "{{\"failed_nodes\": {failed}, \"system\": \"{system}\", \"column\": {c}, \
                     \"p50_ns\": {}, \"p99_ns\": {}, \"net_bytes\": {}}}",
                    r.latency.p50.0, r.latency.p99.0, r.net_bytes
                ));
            }
        }
    }
    write_json(
        env,
        "degraded_latency.json",
        "degraded_latency",
        &[
            format!("\"selectivity\": {SEL}"),
            format!(
                "\"columns\": [{}]",
                COLUMNS.map(|c| c.to_string()).join(", ")
            ),
            json_array("cells", &json),
        ],
    );

    let mut t = Table::new(&[
        "failed",
        "column",
        "fusion p50",
        "baseline p50",
        "p50 reduction",
        "p99 reduction",
    ]);
    for (failed, [f, b]) in levels.into_iter().enumerate() {
        for (c, (fusion, baseline)) in COLUMNS.iter().zip(f.into_iter().zip(b)) {
            let mut row = vec![
                failed.to_string(),
                c.to_string(),
                fusion.latency.p50.to_string(),
                baseline.latency.p50.to_string(),
            ];
            row.extend(Pair { fusion, baseline }.cuts());
            t.row(row);
        }
    }
    format!(
        "Degraded query latency (extension): per-column p50/p99 vs failed nodes, RS(9,6), 1% selectivity\n\
         (also written to results/degraded_latency.json)\n{}",
        t.render()
    )
}
