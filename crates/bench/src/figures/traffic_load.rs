//! Concurrent multi-tenant traffic sweep (traffic-engine extension):
//! offered load vs per-tenant tail latency, healthy and degraded.
//!
//! Four Zipf-skewed tenants share one Fusion store under weighted-fair
//! scheduling (tenant 0 carries double weight) with admission control on
//! the edges of the spectrum: tenant 0 runs under a max-in-flight cap,
//! tenant 3 under a token-bucket rate limit sized to start rejecting
//! near saturation. A seeded [`TrafficGen`] compiles the per-copy query
//! mix into open-loop Poisson job streams at each offered-load fraction
//! of the estimated service capacity; the sweep reports per-tenant
//! p50/p99/p999 sojourn, goodput, and rejected/queued counts, and
//! detects the **saturation knee** — the first load fraction whose
//! aggregate p99 reaches 3× the lowest-load p99.
//!
//! The degraded arm fails one storage node and re-plans the same queries
//! (degraded reads reconstruct through surviving shards), then sweeps
//! the **same absolute arrival rates**: the knee must appear at or below
//! the healthy knee.
//!
//! Machine-readable output goes to `results/traffic_load.json`.

use crate::harness::{BenchEnv, SystemKind};
use crate::report::{json_array, json_lines, write_json, Table};
use fusion_cluster::engine::{
    AdmissionConfig, Engine, ResourceKey, SchedulingPolicy, TenantSummary, Workflow,
};
use fusion_cluster::time::{percentile, Nanos};
use fusion_cluster::traffic::{saturation_knee, TrafficConfig, TrafficGen};
use fusion_core::store::Store;

/// Tenants sharing the cluster.
const TENANTS: usize = 4;
/// Zipf skew across tenant shares.
const ZIPF_THETA: f64 = 0.9;
/// Offered-load fractions of estimated capacity swept per scenario.
const LOAD_FRACTIONS: &[f64] = &[0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0];
/// p99 inflection factor defining the saturation knee.
const KNEE_FACTOR: f64 = 3.0;
/// SQL templates cycled across object copies to form the query mix.
const MIX_SQL: &[&str] = &[
    "SELECT sum(extendedprice) FROM {} WHERE quantity < 25",
    "SELECT orderkey FROM {} WHERE shipdate < '1994-01-01' AND discount >= 0.05",
    "SELECT count(*) FROM {} WHERE returnflag != 'N'",
    "SELECT returnflag, count(*), avg(extendedprice) FROM {} GROUP BY returnflag",
    "SELECT returnflag, sum(quantity) FROM {} WHERE shipdate < '1995-01-01' GROUP BY returnflag",
];

/// One measured point of the sweep.
struct LoadPoint {
    fraction: f64,
    offered_qps: f64,
    jobs: usize,
    agg_p50: Nanos,
    agg_p99: Nanos,
    agg_p999: Nanos,
    tenants: Vec<TenantSummary>,
}

/// One swept scenario (healthy or degraded).
struct Scenario {
    label: &'static str,
    points: Vec<LoadPoint>,
    knee: Option<f64>,
}

/// The query mix: one workflow per object copy, cycling SQL templates,
/// so the stream spreads over every copy's placement.
fn query_mix(env: &BenchEnv, store: &Store) -> Vec<Workflow> {
    (0..env.copies)
        .map(|i| {
            let object = format!("lineitem_{i}");
            let sql = MIX_SQL[i % MIX_SQL.len()].replace("{}", &object);
            store
                .query_as(&object, &sql)
                .unwrap_or_else(|e| panic!("query failed on {object}: {e}"))
                .workflow
        })
        .collect()
}

/// Estimates aggregate service capacity (queries/sec) from the mix: mean
/// per-query busy time on the bottleneck resource, with multi-server CPU
/// pools divided by their core count. An M/G/1-style bound — the open
/// loop saturates near it, which is all the sweep needs.
fn estimate_capacity(store: &Store, mix: &[Workflow]) -> f64 {
    let spec = &store.config().cluster;
    let mut busy: std::collections::HashMap<ResourceKey, Nanos> = std::collections::HashMap::new();
    let engine = Engine::new(spec.clone()).with_slowdowns(store.slowdowns().clone());
    for wf in mix {
        let report = engine.run_closed_loop(vec![vec![wf.clone()]]);
        for (k, b) in report.resource_busy {
            *busy.entry(k).or_insert(Nanos::ZERO) += b;
        }
    }
    let bottleneck_secs = busy
        .iter()
        .filter(|(k, _)| !matches!(k, ResourceKey::Delay))
        .map(|(k, b)| {
            let servers = match k {
                ResourceKey::Cpu(_) | ResourceKey::ClientCpu => spec.cores_per_node.max(1),
                _ => 1,
            };
            b.as_secs_f64() / (mix.len() as f64 * servers as f64)
        })
        .fold(0.0f64, f64::max);
    assert!(bottleneck_secs > 0.0, "mix must demand some resource");
    1.0 / bottleneck_secs
}

/// Runs one offered-load point: generate traffic at `rate_qps`, run it
/// under weighted-fair scheduling + admission, summarize.
fn run_point(
    env: &BenchEnv,
    store: &Store,
    mix: &[Workflow],
    fraction: f64,
    rate_qps: f64,
    capacity: f64,
) -> LoadPoint {
    // Horizon sized for ~env.queries arrivals at this rate, so every
    // point carries comparable sample counts.
    let horizon = Nanos::from_secs_f64(env.queries as f64 / rate_qps);
    let gen = TrafficGen::new(TrafficConfig {
        seed: 0xF05_1041 ^ fraction.to_bits(),
        tenants: TENANTS,
        zipf_theta: ZIPF_THETA,
        rate_qps,
        horizon,
    });
    let shares = gen.shares();
    let jobs = gen.generate(&[mix.to_vec()]);
    let n_jobs = jobs.len();
    // Tenant 3's rate limit is sized to 80% of its capacity-share, so
    // rejections appear as the sweep approaches saturation; tenant 0
    // runs under a concurrency cap (queues, never drops).
    let t3_limit = (capacity * shares[3] * 0.8).max(1.0);
    let report = Engine::new(store.config().cluster.clone())
        .with_slowdowns(store.slowdowns().clone())
        .with_scheduling(SchedulingPolicy::WeightedFair)
        .with_tenant_weight(0, 2.0)
        .with_admission(0, AdmissionConfig::in_flight_cap(32))
        .with_admission(3, AdmissionConfig::rate_limit(t3_limit, 4.0))
        .run_jobs(jobs);
    let sojourns: Vec<Nanos> = report.stats.iter().map(|s| s.sojourn()).collect();
    LoadPoint {
        fraction,
        offered_qps: rate_qps,
        jobs: n_jobs,
        agg_p50: percentile(&sojourns, 50.0),
        agg_p99: percentile(&sojourns, 99.0),
        agg_p999: percentile(&sojourns, 99.9),
        tenants: report.tenant_summaries(),
    }
}

fn sweep(env: &BenchEnv, store: &Store, label: &'static str, capacity: f64) -> Scenario {
    let mix = query_mix(env, store);
    let points: Vec<LoadPoint> = LOAD_FRACTIONS
        .iter()
        .map(|&f| run_point(env, store, &mix, f, f * capacity, capacity))
        .collect();
    let curve: Vec<(f64, Nanos)> = points.iter().map(|p| (p.fraction, p.agg_p99)).collect();
    let knee = saturation_knee(&curve, KNEE_FACTOR);
    Scenario {
        label,
        points,
        knee,
    }
}

/// One scenario's JSON cell: its knee, then one load point per line.
fn scenario_json(sc: &Scenario) -> String {
    let points: Vec<String> = sc
        .points
        .iter()
        .map(|p| {
            let tenants: Vec<String> = p
                .tenants
                .iter()
                .map(|t| {
                    format!(
                        "{{\"tenant\": {}, \"offered\": {}, \"served\": {}, \"rejected\": {}, \
                         \"queued\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                         \"goodput_qps\": {:.1}}}",
                        t.tenant,
                        t.counters.offered,
                        t.counters.served,
                        t.counters.rejected,
                        t.counters.queued,
                        t.p50.0,
                        t.p99.0,
                        t.p999.0,
                        t.goodput_qps,
                    )
                })
                .collect();
            format!(
                "{{\"load_fraction\": {:.2}, \"offered_qps\": {:.1}, \"jobs\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"tenants\": [{}]}}",
                p.fraction,
                p.offered_qps,
                p.jobs,
                p.agg_p50.0,
                p.agg_p99.0,
                p.agg_p999.0,
                tenants.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"scenario\": \"{}\", \"knee_fraction\": {},\n     \"points\": [\n{}    ]}}",
        sc.label,
        sc.knee.map_or("null".to_string(), |k| format!("{k:.2}")),
        json_lines(&points, "      ")
    )
}

/// Concurrent traffic sweep: offered load vs per-tenant tail latency,
/// healthy and with one failed node.
pub fn traffic_load(env: &BenchEnv) -> String {
    let healthy = env.lineitem_store(SystemKind::Fusion);
    let capacity = estimate_capacity(healthy, &query_mix(env, healthy));

    // Degraded arm: a fresh store with one failed node; queries re-plan
    // through degraded reconstruction. Swept at the same absolute rates.
    let file = env.lineitem_file().to_vec();
    let mut degraded_store = env.build_store(SystemKind::Fusion, "lineitem", &file);
    let victim = degraded_store
        .object("lineitem_0")
        .expect("object exists")
        .placement[0]
        .nodes[0];
    degraded_store.fail_node(victim).expect("valid node");

    let scenarios = [
        sweep(env, healthy, "healthy", capacity),
        sweep(env, &degraded_store, "degraded_1_node", capacity),
    ];

    let json: Vec<String> = scenarios.iter().map(scenario_json).collect();
    write_json(
        env,
        "traffic_load.json",
        "traffic_load",
        &[
            format!(
                "\"tenants\": {TENANTS}, \"zipf_theta\": {ZIPF_THETA}, \
                 \"knee_factor\": {KNEE_FACTOR}, \"capacity_qps\": {capacity:.1}"
            ),
            json_array("scenarios", &json),
        ],
    );

    let mut t = Table::new(&[
        "scenario",
        "load",
        "offered qps",
        "jobs",
        "p50",
        "p99",
        "p99.9",
        "t0 p99",
        "t3 p99",
        "rejected",
        "queued",
    ]);
    for sc in &scenarios {
        for p in &sc.points {
            let rejected: u64 = p.tenants.iter().map(|s| s.counters.rejected).sum();
            let queued: u64 = p.tenants.iter().map(|s| s.counters.queued).sum();
            t.row(vec![
                sc.label.to_string(),
                format!("{:.1}", p.fraction),
                format!("{:.0}", p.offered_qps),
                p.jobs.to_string(),
                p.agg_p50.to_string(),
                p.agg_p99.to_string(),
                p.agg_p999.to_string(),
                p.tenants[0].p99.to_string(),
                p.tenants[3].p99.to_string(),
                rejected.to_string(),
                queued.to_string(),
            ]);
        }
    }
    let knee_line = |sc: &Scenario| {
        sc.knee.map_or_else(
            || format!("{}: no knee within sweep", sc.label),
            |k| format!("{}: saturation knee at {k:.1}x capacity", sc.label),
        )
    };
    format!(
        "Traffic sweep (extension): {TENANTS} Zipf({ZIPF_THETA}) tenants, weighted-fair + admission control\n\
         estimated capacity: {capacity:.0} qps; knee = first load with p99 >= {KNEE_FACTOR}x baseline\n\
         {}\n{}\n\
         (also written to results/traffic_load.json)\n{}",
        knee_line(&scenarios[0]),
        knee_line(&scenarios[1]),
        t.render()
    )
}
