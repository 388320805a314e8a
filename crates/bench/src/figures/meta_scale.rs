//! Metadata-plane scale experiment (DESIGN.md §16): compact layout
//! records vs the paper's stored location maps at 10-million-object
//! scale on a 64-node / 8-rack cluster.
//!
//! Four measurements:
//!
//! * **bytes/object** — serialized metadata per object, both formats,
//!   counting the `k + 1` replicas each object's record is stored with.
//!   Acceptance: the compact record is ≥ 10× smaller.
//! * **lookup throughput** — resolutions/second of "which node hosts
//!   chunk `c` of object `o`" for both paths: the stored map answers by
//!   table lookup, the compact record recomputes the rendezvous
//!   placement. Both paths time every call and report the exact p50/p99
//!   of the sorted samples. The cost model's `meta_rpc` prices what each
//!   path's metadata RPC would cost on the wire (the stored map ships
//!   16× more bytes).
//! * **differential oracle** — an end-to-end spot check on a real store
//!   under the deterministic policy: the compact record materializes,
//!   and round-trips through the data plane to, exactly the map
//!   `LocationMap::build` derives from object metadata.
//! * **rebalance** — a node add opens a new membership epoch and a
//!   bounded rebalance pass advances a 50k-object sample; rendezvous
//!   hashing must move ≈ 1/(n+1) of chunks (within 20%). A separate
//!   namespace measures the node-remove direction at full scan.
//!
//! Machine-readable output goes to `results/meta_scale.json`.

use crate::harness::BenchEnv;
use crate::report::{write_json, Table};
use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::topology::Topology;
use fusion_core::config::{EcConfig, PlacementPolicy, StoreConfig};
use fusion_core::location_map::{LocationEntry, LocationMap};
use fusion_core::meta::{LayoutRecord, Membership, Namespace};
use fusion_core::placement::{object_id, place_stripe, ObjectId};
use fusion_core::store::Store;
use fusion_ec::ErasureCode;
use std::collections::HashMap;
use std::time::Instant;

/// Cluster shape: 8 racks of 8 nodes, RS(9,6) — tolerance 3, so the
/// domain constraints are satisfiable with headroom.
const NODES: usize = 64;
const RACKS: usize = 8;
/// Synthetic object shape: 64 chunks of 1 MiB.
const CHUNKS_PER_OBJECT: u32 = 64;
const CHUNK_BYTES: u64 = 1 << 20;
/// Namespace shards (power of two).
const SHARDS: usize = 1024;
/// Placement seed (the store default).
const SEED: u64 = 0xF051_0A11;
/// Resolutions timed per path.
const LOOKUPS: usize = 200_000;
/// Objects materialized into the stored-map baseline index.
const STORED_SAMPLE: usize = 100_000;
/// Stale objects the bounded node-add rebalance pass advances.
const REBALANCE_SAMPLE: usize = 50_000;
/// Objects in the separate node-remove namespace (full scan).
const REMOVE_OBJECTS: usize = 200_000;

/// SplitMix64 — deterministic pseudo-random index stream for lookups.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn record() -> LayoutRecord {
    LayoutRecord {
        epoch: 0,
        chunks: CHUNKS_PER_OBJECT,
        size: u64::from(CHUNKS_PER_OBJECT) * CHUNK_BYTES,
        code: EcConfig::RS_9_6.into(),
        exceptions: Vec::new(),
    }
}

fn rs96() -> ErasureCode {
    EcConfig::RS_9_6.build_codec().expect("valid code")
}

/// Builds a namespace preloaded with `objects` synthetic records,
/// returning it plus the object ids in insertion order.
fn build_namespace(objects: usize) -> (Namespace, Vec<ObjectId>) {
    let topo = Topology::racks(NODES, RACKS);
    let mut ns =
        Namespace::new(SEED, SHARDS, EcConfig::RS_9_6, Membership::full(topo)).expect("valid code");
    let mut ids = Vec::with_capacity(objects);
    for i in 0..objects {
        let id = object_id("bench", &format!("obj-{i}"));
        ns.insert(id, record());
        ids.push(id);
    }
    (ns, ids)
}

/// Materializes the stored-map baseline for a sample of objects: the
/// paper's 8-bytes-per-chunk format, one map per object, placements
/// cached per stripe while building.
fn build_stored_index(ns: &Namespace, ids: &[ObjectId]) -> HashMap<u128, LocationMap> {
    let m = ns.current_membership();
    let code = rs96();
    let mut index = HashMap::with_capacity(ids.len());
    for &id in ids {
        let rec = ns.get(id).expect("inserted");
        let okey = id.placement_key();
        let mut entries = Vec::with_capacity(rec.chunks as usize);
        let mut cached: Option<(u64, Vec<usize>)> = None;
        for c in 0..rec.chunks {
            let (stripe, bin) = rec.stripe_of(c);
            if cached.as_ref().is_none_or(|(s, _)| *s != stripe) {
                cached = Some((
                    stripe,
                    place_stripe(ns.seed(), okey, stripe, &code, &m.members, &m.topology),
                ));
            }
            entries.push(LocationEntry {
                chunk_offset: (u64::from(c) * CHUNK_BYTES) as u32,
                node: cached.as_ref().expect("just filled").1[bin] as u32,
            });
        }
        index.insert(id.0, LocationMap { entries });
    }
    index
}

/// End-to-end differential oracle on a real store: deterministic policy,
/// real analytics file, compact record vs `LocationMap::build`.
fn oracle_spot_check(env: &BenchEnv) -> (usize, usize) {
    let cfg = StoreConfig::fusion()
        .with_cluster(ClusterSpec::with_topology(Topology::racks(NODES, RACKS)))
        .with_placement(PlacementPolicy::Deterministic)
        .with_seed(SEED);
    let mut store = Store::new(cfg).expect("valid config");
    store
        .put("oracle", env.lineitem_file().to_vec())
        .expect("put succeeds");
    let oracle = LocationMap::build(store.object("oracle").expect("object")).expect("offsets fit");
    let chunks = oracle.entries.len();
    let mut mismatches = 0;
    // The materialized map and the data-plane round trip both resolve
    // every chunk through `LayoutRecord::node_of`; each must equal the
    // stored-map oracle.
    let (map, _) = store.location_map("oracle").expect("map");
    if map != oracle {
        mismatches += 1;
    }
    if store.read_location_map("oracle").expect("replica readable") != oracle {
        mismatches += 1;
    }
    (chunks, mismatches)
}

struct PathStats {
    lookups_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    bytes_per_object: f64,
    rpc_ns: u64,
}

/// Metadata plane at 10M-object scale: compact records vs stored maps.
pub fn meta_scale(env: &BenchEnv) -> String {
    let objects = ((10_000_000f64 * env.scale) as usize).max(10_000);
    let replicas = (EcConfig::RS_9_6.k + 1) as u64;
    let cost = ClusterSpec::default().cost;

    // --- build the 10M-object namespace.
    let t0 = Instant::now();
    let (mut ns, ids) = build_namespace(objects);
    let build_s = t0.elapsed().as_secs_f64();

    let compact_bytes_per_object = (ns.record_bytes() * replicas) as f64 / objects as f64;

    // --- stored-map baseline: materialize a sample and scale (records
    // are uniform, so the sample mean is exact).
    let sample = STORED_SAMPLE.min(objects);
    let stored_index = build_stored_index(&ns, &ids[..sample]);
    let stored_sample_bytes: u64 = stored_index.values().map(LocationMap::byte_size).sum();
    let stored_bytes_per_object = (stored_sample_bytes * replicas) as f64 / sample as f64;
    let ratio = stored_bytes_per_object / compact_bytes_per_object;

    // --- lookup throughput, compact path (recompute on read).
    let t0 = Instant::now();
    let mut sink = 0usize;
    let mut compact_lat = Vec::with_capacity(LOOKUPS);
    for i in 0..LOOKUPS {
        let id = ids[(mix(i as u64) % objects as u64) as usize];
        let chunk = (mix(i as u64 ^ 0xabcd) % u64::from(CHUNKS_PER_OBJECT)) as u32;
        let t1 = Instant::now();
        sink ^= ns.chunk_node(id, chunk).expect("resolves");
        compact_lat.push(t1.elapsed().as_nanos() as u64);
    }
    let compact_lps = LOOKUPS as f64 / t0.elapsed().as_secs_f64();
    compact_lat.sort_unstable();
    let compact = PathStats {
        lookups_per_sec: compact_lps,
        p50_ns: compact_lat[compact_lat.len() / 2],
        p99_ns: compact_lat[compact_lat.len() * 99 / 100],
        bytes_per_object: compact_bytes_per_object,
        rpc_ns: cost.meta_rpc(LayoutRecord::HEADER_BYTES).0,
    };

    // --- lookup throughput, stored-map path (table lookup).
    let t0 = Instant::now();
    let mut stored_lat = Vec::with_capacity(LOOKUPS);
    for i in 0..LOOKUPS {
        let id = ids[(mix(i as u64) % sample as u64) as usize];
        let chunk = (mix(i as u64 ^ 0xabcd) % u64::from(CHUNKS_PER_OBJECT)) as usize;
        let t1 = Instant::now();
        sink ^= stored_index[&id.0].node_of(chunk).expect("resolves");
        stored_lat.push(t1.elapsed().as_nanos() as u64);
    }
    let stored_lps = LOOKUPS as f64 / t0.elapsed().as_secs_f64();
    stored_lat.sort_unstable();
    let stored = PathStats {
        lookups_per_sec: stored_lps,
        p50_ns: stored_lat[stored_lat.len() / 2],
        p99_ns: stored_lat[stored_lat.len() * 99 / 100],
        bytes_per_object: stored_bytes_per_object,
        rpc_ns: cost.meta_rpc(u64::from(CHUNKS_PER_OBJECT) * 8).0,
    };
    std::hint::black_box(sink);

    // --- rebalance, node add: one node joins rack 0; a bounded pass
    // advances a 50k-object sample. Rendezvous moves ~1/(n+1) of chunks.
    ns.add_node(0);
    let add_report = ns.rebalance(CHUNK_BYTES, Some(REBALANCE_SAMPLE.min(objects)));
    let add_frac = add_report.moved_fraction();
    let add_expected = 1.0 / (NODES as f64 + 1.0);

    // --- rebalance, node remove: separate namespace (so the add and
    // remove epochs don't cancel out), full scan.
    let (mut rem_ns, _) = build_namespace(REMOVE_OBJECTS.min(objects));
    rem_ns.remove_node(NODES - 1);
    let rem_report = rem_ns.rebalance(CHUNK_BYTES, None);
    let remove_frac = rem_report.moved_fraction();
    let remove_expected = 1.0 / NODES as f64;

    // --- end-to-end differential oracle on a real store.
    let (oracle_chunks, oracle_mismatches) = oracle_spot_check(env);

    let path = |name: &str, s: &PathStats| {
        format!(
            "\"{name}\": {{\"bytes_per_object\": {:.1}, \"lookups_per_sec\": {:.0}, \
             \"lookup_p50_ns\": {}, \"lookup_p99_ns\": {}, \"meta_rpc_ns\": {}}}",
            s.bytes_per_object, s.lookups_per_sec, s.p50_ns, s.p99_ns, s.rpc_ns
        )
    };
    write_json(
        "meta_scale.json",
        "meta_scale",
        &[
            format!("\"cluster\": {{\"nodes\": {NODES}, \"racks\": {RACKS}}}"),
            format!(
                "\"objects\": {objects}, \"chunks_per_object\": {CHUNKS_PER_OBJECT}, \
                 \"chunk_bytes\": {CHUNK_BYTES}"
            ),
            path("compact", &compact),
            path("stored_map", &stored),
            format!("\"bytes_ratio_stored_over_compact\": {ratio:.2}"),
            format!(
                "\"rebalance_add\": {{\"moved_fraction\": {add_frac:.5}, \
                 \"expected_fraction\": {add_expected:.5}, \"bytes_moved\": {}, \
                 \"chunks_total\": {}}}",
                add_report.bytes_moved, add_report.chunks_total
            ),
            format!(
                "\"rebalance_remove\": {{\"moved_fraction\": {remove_frac:.5}, \
                 \"expected_fraction\": {remove_expected:.5}}}"
            ),
            format!(
                "\"oracle_spot_check\": {{\"chunks\": {oracle_chunks}, \
                 \"mismatches\": {oracle_mismatches}}}"
            ),
        ],
    );

    let mut t = Table::new(&[
        "path",
        "bytes/object (x7 replicas)",
        "lookups/sec",
        "p50",
        "p99",
        "meta RPC (modeled)",
    ]);
    for (name, s) in [("compact record", &compact), ("stored map", &stored)] {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", s.bytes_per_object),
            format!("{:.0}", s.lookups_per_sec),
            format!("{} ns", s.p50_ns),
            format!("{} ns", s.p99_ns),
            format!("{} ns", s.rpc_ns),
        ]);
    }
    let add_dev = (add_frac - add_expected).abs() / add_expected;
    let rem_dev = (remove_frac - remove_expected).abs() / remove_expected;
    format!(
        "Metadata plane at scale: {objects} objects x {CHUNKS_PER_OBJECT} chunks, \
         {NODES} nodes / {RACKS} racks, RS(9,6) (namespace built in {build_s:.1}s)\n\
         metadata bytes/object ratio stored/compact: {ratio:.1}x (acceptance: >= 10x)\n\
         node-add rebalance: moved {add_frac:.4} of chunks over a \
         {}-object sample, expected 1/{} = {add_expected:.4} (deviation {add_dev_pct:.1}%, acceptance: <= 20%)\n\
         node-remove rebalance: moved {remove_frac:.4}, expected 1/{NODES} = {remove_expected:.4} \
         (deviation {rem_dev_pct:.1}%)\n\
         oracle spot check: {oracle_mismatches} mismatches over {oracle_chunks} chunks \
         (acceptance: 0)\n\
         (also written to results/meta_scale.json)\n{}",
        add_report.objects_scanned,
        NODES + 1,
        t.render(),
        add_dev_pct = add_dev * 100.0,
        rem_dev_pct = rem_dev * 100.0,
    )
}
