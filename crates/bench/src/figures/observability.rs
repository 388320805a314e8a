//! Observability experiment: per-query phase breakdowns and trace trees.
//!
//! Runs a representative query mix — selective scan, aggregate pushdown,
//! multi-predicate scan — on Fusion and the baseline, healthy and with one
//! failed node, with trace recording enabled. Each query's workflow is
//! replayed solo on the discrete-event engine and its critical-path
//! [`PhaseBreakdown`] is checked against the workflow's total virtual time
//! (the partition is exact by construction; the experiment enforces a 1%
//! tolerance). Per-node store counters and the span trees are exported
//! alongside the timings to `results/query_trace.json`.

use crate::harness::{BenchEnv, SystemKind};
use crate::report::{json_array, json_object, write_json, Table};
use fusion_cluster::time::Nanos;
use fusion_core::store::Store;
use fusion_obs::trace::{Phase, PhaseBreakdown};

/// The query mix: a selective filter + projection, an aggregate pushdown,
/// and a multi-predicate string scan.
const QUERIES: [&str; 3] = [
    "SELECT extendedprice FROM lineitem WHERE quantity < 5",
    "SELECT count(*), avg(extendedprice) FROM lineitem WHERE discount < 0.03",
    "SELECT orderkey FROM lineitem WHERE returnflag = 'A' AND shipmode = 'AIR'",
];

struct Cell {
    system: &'static str,
    mode: &'static str,
    query: usize,
    latency_ns: u64,
    phases: PhaseBreakdown,
    pruned: usize,
    cache_hits: usize,
    cache_misses: usize,
    trace_json: String,
}

/// Builds a store with trace recording enabled holding one lineitem copy.
fn traced_store(kind: SystemKind, file: &[u8]) -> Store {
    let mut cfg = BenchEnv::store_config(kind, file.len(), 10 << 30);
    cfg.observability = true;
    let mut store = Store::new(cfg).expect("valid store config");
    store.put("lineitem", file.to_vec()).expect("put succeeds");
    store
}

fn run_mix(store: &Store, system: &'static str, mode: &'static str, cells: &mut Vec<Cell>) {
    for (qi, sql) in QUERIES.iter().enumerate() {
        let out = store
            .query(sql)
            .unwrap_or_else(|e| panic!("{system} {mode} query {qi} failed: {e}"));
        assert!(out.trace.enabled(), "observability must record spans");
        // Solo replay: the phase partition is taken on the same backward
        // critical-path walk as the latency, so the two must agree.
        let stats = store.simulate(vec![vec![out.workflow.clone()]]).stats;
        let s = &stats[0];
        let (sum, total) = (s.phases.total(), s.latency.0);
        assert!(
            sum.abs_diff(total) <= total / 100,
            "{system} {mode} query {qi}: phase sum {sum} vs latency {total}"
        );
        cells.push(Cell {
            system,
            mode,
            query: qi,
            latency_ns: total,
            phases: s.phases.clone(),
            pruned: out.pruned_chunks,
            cache_hits: out.cache_hits,
            cache_misses: out.cache_misses,
            trace_json: out.trace.to_json(),
        });
    }
}

/// Sums a set of phases from a breakdown.
fn sum(bd: &PhaseBreakdown, phases: &[Phase]) -> Nanos {
    Nanos(phases.iter().map(|&p| bd.get(p)).sum())
}

/// Per-query phase breakdowns with tracing on, healthy and degraded.
pub fn observability(env: &BenchEnv) -> String {
    let file = env.lineitem_file().to_vec();
    let mut fusion = traced_store(SystemKind::Fusion, &file);
    let mut baseline = traced_store(SystemKind::Baseline, &file);

    let mut cells = Vec::new();
    run_mix(&fusion, "fusion", "healthy", &mut cells);
    run_mix(&baseline, "baseline", "healthy", &mut cells);
    fusion.fail_node(0).expect("valid node");
    baseline.fail_node(0).expect("valid node");
    run_mix(&fusion, "fusion", "degraded", &mut cells);
    run_mix(&baseline, "baseline", "degraded", &mut cells);

    let queries: Vec<String> = QUERIES.iter().map(|q| format!("\"{q}\"")).collect();
    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"system\": \"{}\", \"mode\": \"{}\", \"query\": {}, \
                 \"latency_ns\": {}, \"pruned\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"phases_ns\": {}, \"trace\": {}}}",
                c.system,
                c.mode,
                c.query,
                c.latency_ns,
                c.pruned,
                c.cache_hits,
                c.cache_misses,
                c.phases.to_json(),
                c.trace_json,
            )
        })
        .collect();
    write_json(
        "query_trace.json",
        "observability",
        &[
            json_array("queries", &queries),
            json_array("cells", &json),
            json_object(
                "counters",
                &[
                    format!("\"fusion\": {}", fusion.metrics().to_json()),
                    format!("\"baseline\": {}", baseline.metrics().to_json()),
                ],
            ),
        ],
    );

    let mut t = Table::new(&[
        "system",
        "mode",
        "query",
        "latency",
        "network",
        "shard read",
        "compute",
        "degraded+retry",
    ]);
    for c in &cells {
        t.row(vec![
            c.system.to_string(),
            c.mode.to_string(),
            c.query.to_string(),
            Nanos(c.latency_ns).to_string(),
            sum(&c.phases, &[Phase::Network]).to_string(),
            sum(&c.phases, &[Phase::ShardRead]).to_string(),
            sum(
                &c.phases,
                &[
                    Phase::Decompress,
                    Phase::Decode,
                    Phase::Filter,
                    Phase::Project,
                    Phase::Aggregate,
                    Phase::Other,
                ],
            )
            .to_string(),
            sum(&c.phases, &[Phase::DegradedReconstruct, Phase::Retry]).to_string(),
        ]);
    }
    format!(
        "Observability: per-query critical-path phase breakdown (trace recording on)\n\
         phase partitions sum to workflow latency within 1% in every cell\n\
         (also written to results/query_trace.json)\n{}",
        t.render()
    )
}
