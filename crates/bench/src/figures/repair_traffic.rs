//! Repair traffic and correlated-failure robustness (robustness
//! extension): LRC(10,6,2) vs RS(9,6) on a 16-node / 4-rack cluster with
//! failure-domain-aware placement.
//!
//! Three scenarios:
//!
//! * **single_shard_repair** — one data shard lost; a degraded read
//!   rebuilds it from the code's cheapest repair set. LRC reads its
//!   3-shard local group where RS reads k = 6 survivors, so LRC must
//!   move ≥ 2× fewer bytes.
//! * **node_rebuild** — a whole node crash-stops and is rebuilt by
//!   [`Store::recover_node`]; reports total repair traffic, rebuilt
//!   bytes, rebuild wall time on the virtual clock, and the degraded
//!   query p50/p99 while the node was down. (LRC's advantage is smaller
//!   here than per-shard: its two global parities still repair from k
//!   shards.)
//! * **rack_outage** — a correlated whole-rack outage from the fault
//!   injector's scenario machinery; under domain-aware placement every
//!   byte stays readable, while naive placement demonstrably overloads
//!   a rack for most seeds.
//!
//! Machine-readable output goes to `results/repair_traffic.json`,
//! including a metrics snapshot (repair bytes moved, degraded-read
//! latency histogram quantiles).

use crate::harness::{BenchEnv, SystemKind};
use crate::microbench::microbench_on;
use crate::report::{json_array, json_object, write_json, Table};
use fusion_cluster::fault::{FaultInjector, FaultSchedule};
use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::time::Nanos;
use fusion_cluster::topology::Topology;
use fusion_core::config::{EcConfig, PlacementPolicy};
use fusion_core::store::Store;

/// Cluster shape: 4 racks of 4 nodes. Both codes fit (n ≤ 10 < 16) and
/// every LRC local group can spread one-shard-per-rack.
const NODES: usize = 16;
const RACKS: usize = 4;

/// Seeds probed for the naive arm of the rack-outage scenario.
const NAIVE_SEEDS: u64 = 8;

fn topo() -> Topology {
    Topology::racks(NODES, RACKS)
}

/// A Fusion store of lineitem copies on the rack topology with the given
/// code, the cost model scaled exactly like every other lineitem
/// experiment.
fn build(
    env: &BenchEnv,
    file: &[u8],
    ec: EcConfig,
    placement: PlacementPolicy,
    seed: u64,
) -> Store {
    let mut cfg = BenchEnv::store_config(SystemKind::Fusion, file.len(), 10 << 30)
        .with_ec(ec)
        .with_placement(placement)
        .with_seed(seed);
    let cost = cfg.cluster.cost.clone();
    cfg.cluster = ClusterSpec::with_topology(topo());
    cfg.cluster.cost = cost;
    env.store_with(cfg, "lineitem", file)
}

/// Results of the single-shard and node-rebuild scenarios for one code.
struct CodeRow {
    label: String,
    /// Bytes moved to repair one lost data shard via a degraded read.
    single_moved: u64,
    /// Sources that repair read.
    single_sources: usize,
    /// Node rebuild: total repair traffic.
    rebuild_moved: u64,
    /// Node rebuild: bytes written back to the replacement node.
    rebuild_restored: u64,
    /// Node rebuild wall time on the virtual clock.
    rebuild_ns: u64,
    /// Degraded query latency while one node was down.
    degraded_p50_ns: u64,
    degraded_p99_ns: u64,
    /// Degraded-read histogram quantiles from the metrics registry.
    hist_p50_ns: u64,
    hist_p99_ns: u64,
}

fn run_code(env: &BenchEnv, file: &[u8], ec: EcConfig) -> CodeRow {
    let mut store = build(env, file, ec, PlacementPolicy::DomainAware, 42);
    let label = store.codec().to_string();

    // --- single_shard_repair: lose the node hosting the fragment at
    // object offset 0 of the first copy; a 1-byte read there must
    // rebuild exactly that data bin from the code's repair set.
    let (victim, sp, bin) = {
        let meta = store.object("lineitem_0").expect("object");
        let frag = meta.locate(0, 1).into_iter().next().expect("fragment");
        let (sp, bin) = meta
            .placement
            .iter()
            .find_map(|sp| {
                sp.block_ids
                    .iter()
                    .position(|&b| b == frag.block)
                    .map(|bi| (sp.clone(), bi))
            })
            .expect("fragment belongs to a stripe");
        (frag.node, sp, bin)
    };
    store.fail_node(victim).expect("valid node");
    let moved_before = store.metrics().counter("repair_bytes_moved").get();
    store.get("lineitem_0", 0, 1).expect("degraded read");
    let single_moved = store.metrics().counter("repair_bytes_moved").get() - moved_before;
    let single_sources = store
        .surviving_repair_shards(&sp, bin)
        .expect("recoverable")
        .len();

    // --- degraded query latency: scan-heavy queries over every copy
    // while the node is still down, replayed on the virtual clock.
    let s = microbench_on(env, &store, "lineitem", |obj| {
        format!("SELECT sum(extendedprice) FROM {obj} WHERE quantity < 25")
    })
    .latency;

    // --- node_rebuild: bring the replacement up and rebuild it.
    let report = store.recover_node(victim).expect("recoverable");

    let hist = store.metrics().histogram("degraded_read_ns");
    CodeRow {
        label,
        single_moved,
        single_sources,
        rebuild_moved: report.repair_bytes_moved,
        rebuild_restored: report.bytes_restored,
        rebuild_ns: report.simulated_latency.0,
        degraded_p50_ns: s.p50.0,
        degraded_p99_ns: s.p99.0,
        hist_p50_ns: hist.quantile(0.50),
        hist_p99_ns: hist.quantile(0.99),
    }
}

/// Whether every byte of every copy is readable on `store` right now.
fn all_readable(store: &Store, env: &BenchEnv, file_len: u64) -> bool {
    (0..env.copies).all(|i| store.get(&format!("lineitem_{i}"), 0, file_len).is_ok())
}

/// Rack-outage scenario: a correlated whole-rack failure from the
/// injector's scenario builder, replayed mid-outage. Returns readable
/// seed counts (out of `NAIVE_SEEDS`) for domain-aware and naive
/// placement.
fn rack_outage(env: &BenchEnv, file: &[u8], ec: EcConfig) -> (u64, u64) {
    let tolerance = ec.tolerance();
    let mut readable = [0u64; 2];
    for (arm, placement) in [PlacementPolicy::DomainAware, PlacementPolicy::Naive]
        .into_iter()
        .enumerate()
    {
        for seed in 0..NAIVE_SEEDS {
            let mut store = build(env, file, ec, placement, seed);
            let schedule = FaultSchedule::new().rack_outage(
                Nanos::from_micros(10),
                &topo(),
                (seed as usize) % RACKS,
                Nanos::from_micros(1_000),
            );
            // A one-domain outage always passes tolerance validation —
            // that is the guarantee domain-aware placement relies on.
            let mut inj = FaultInjector::validated(schedule, &topo(), tolerance)
                .expect("single-domain outage is schedulable");
            store.apply_faults(&mut inj, Nanos::from_micros(500));
            if all_readable(&store, env, file.len() as u64) {
                readable[arm] += 1;
            }
        }
    }
    (readable[0], readable[1])
}

/// Repair traffic: LRC vs RS across failure scenarios.
pub fn repair_traffic(env: &BenchEnv) -> String {
    let file = env.lineitem_file().to_vec();
    let lrc = run_code(env, &file, EcConfig::LRC_10_6);
    let rs = run_code(env, &file, EcConfig::rs(9, 6));
    let ratio = rs.single_moved as f64 / lrc.single_moved.max(1) as f64;

    // Correlated rack outage: readability contrast is a placement
    // property, shown with the LRC store (RS behaves identically since
    // both cap any domain at `tolerance` shards).
    let (aware_readable, naive_readable) = rack_outage(env, &file, EcConfig::LRC_10_6);

    // Snapshot the repair metrics of a fresh LRC rebuild for the JSON
    // artifact (cluster-wide counter plus per-node serve counters).
    let snapshot_store = {
        let mut store = build(
            env,
            &file,
            EcConfig::LRC_10_6,
            PlacementPolicy::DomainAware,
            42,
        );
        let victim = store.object("lineitem_0").expect("object").placement[0].nodes[0];
        store.fail_node(victim).expect("valid node");
        store.recover_node(victim).expect("recoverable");
        store
    };
    let snapshot: Vec<(String, i64)> = snapshot_store
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|(name, _)| name.contains("repair_bytes") || name.contains("shards_reconstructed"))
        .collect();

    let rows = [lrc, rs];
    let codes: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"code\": \"{}\", \"single_shard_bytes_moved\": {}, \
                 \"single_shard_sources\": {}, \"rebuild_bytes_moved\": {}, \
                 \"rebuild_bytes_restored\": {}, \"rebuild_ns\": {}, \
                 \"degraded_p50_ns\": {}, \"degraded_p99_ns\": {}, \
                 \"degraded_read_hist_p50_ns\": {}, \"degraded_read_hist_p99_ns\": {}}}",
                r.label,
                r.single_moved,
                r.single_sources,
                r.rebuild_moved,
                r.rebuild_restored,
                r.rebuild_ns,
                r.degraded_p50_ns,
                r.degraded_p99_ns,
                r.hist_p50_ns,
                r.hist_p99_ns,
            )
        })
        .collect();
    let snapshot: Vec<String> = snapshot
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    write_json(
        env,
        "repair_traffic.json",
        "repair_traffic",
        &[
            format!("\"cluster\": {{\"nodes\": {NODES}, \"racks\": {RACKS}}}"),
            json_array("codes", &codes),
            format!("\"single_shard_traffic_ratio_rs_over_lrc\": {ratio:.3}"),
            format!(
                "\"rack_outage\": {{\"seeds\": {NAIVE_SEEDS}, \
                 \"domain_aware_readable\": {aware_readable}, \
                 \"naive_readable\": {naive_readable}}}"
            ),
            json_object("metrics_snapshot", &snapshot),
        ],
    );

    let mut t = Table::new(&[
        "code",
        "shard repair bytes",
        "sources",
        "rebuild bytes moved",
        "rebuild time",
        "degraded p50",
        "degraded p99",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            r.single_moved.to_string(),
            r.single_sources.to_string(),
            r.rebuild_moved.to_string(),
            Nanos(r.rebuild_ns).to_string(),
            Nanos(r.degraded_p50_ns).to_string(),
            Nanos(r.degraded_p99_ns).to_string(),
        ]);
    }
    format!(
        "Repair traffic (extension): LRC(10,6,2) vs RS(9,6), {NODES} nodes / {RACKS} racks, domain-aware placement\n\
         single-shard repair traffic ratio RS/LRC: {ratio:.2}x (acceptance: >= 2x)\n\
         rack outage readable: domain-aware {aware_readable}/{NAIVE_SEEDS} seeds, naive {naive_readable}/{NAIVE_SEEDS} seeds\n\
         (also written to results/repair_traffic.json)\n{}",
        t.render()
    )
}
