//! Metadata hot paths: rendezvous stripe placement as cluster size
//! grows, compact-record chunk resolution through the namespace, and
//! the stored-map table lookup it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fusion_cluster::topology::Topology;
use fusion_core::config::EcConfig;
use fusion_core::location_map::LocationMap;
use fusion_core::meta::{LayoutRecord, Membership, Namespace};
use fusion_core::placement::{object_id, object_key, place_stripe};
use fusion_ec::ErasureCode;

const SEED: u64 = 0xF051_0A11;
const OBJECTS: usize = 10_000;
const CHUNKS: u32 = 64;

fn rs96() -> ErasureCode {
    EcConfig::RS_9_6.build_codec().expect("valid code")
}

/// Raw rendezvous placement of one RS(9,6) stripe at growing cluster
/// sizes — the O(shards × nodes) inner loop of every compact lookup.
fn bench_place_stripe(c: &mut Criterion) {
    let code = rs96();
    let okey = object_key("bench", "obj");
    let mut g = c.benchmark_group("placement_lookup");
    for nodes in [16usize, 64, 256] {
        let topo = Topology::racks(nodes, 8);
        let members: Vec<usize> = (0..nodes).collect();
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("place_stripe", nodes), &nodes, |b, _| {
            let mut stripe = 0u64;
            b.iter(|| {
                stripe = stripe.wrapping_add(1);
                place_stripe(SEED, okey, stripe, &code, &members, &topo)
            });
        });
    }
    g.finish();
}

/// End-to-end compact resolution (shard hash → record → rendezvous) vs
/// the stored-map baseline (shard hash → map → table index), over a
/// 10k-object namespace on 64 nodes.
fn bench_chunk_node(c: &mut Criterion) {
    let topo = Topology::racks(64, 8);
    let mut ns = Namespace::new(SEED, 64, EcConfig::RS_9_6, Membership::full(topo.clone()))
        .expect("valid code");
    let mut ids = Vec::with_capacity(OBJECTS);
    for i in 0..OBJECTS {
        let id = object_id("bench", &format!("obj-{i}"));
        ns.insert(
            id,
            LayoutRecord {
                epoch: 0,
                chunks: CHUNKS,
                size: u64::from(CHUNKS) << 20,
                code: EcConfig::RS_9_6.into(),
                exceptions: Vec::new(),
            },
        );
        ids.push(id);
    }
    // The stored-map baseline: one materialized paper-format map per
    // object, resolved by table lookup.
    let code = rs96();
    let members: Vec<usize> = (0..64).collect();
    let maps: Vec<LocationMap> = ids
        .iter()
        .map(|id| {
            let entries = (0..CHUNKS)
                .map(|c| {
                    let stripe = u64::from(c / 6);
                    let nodes =
                        place_stripe(SEED, id.placement_key(), stripe, &code, &members, &topo);
                    fusion_core::location_map::LocationEntry {
                        chunk_offset: c << 20,
                        node: nodes[(c % 6) as usize] as u32,
                    }
                })
                .collect();
            LocationMap { entries }
        })
        .collect();

    let mut g = c.benchmark_group("placement_lookup");
    g.throughput(Throughput::Elements(1));
    g.bench_function("namespace_chunk_node", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            let id = ids[i % OBJECTS];
            ns.chunk_node(id, (i % CHUNKS as usize) as u32)
                .expect("resolves")
        });
    });
    g.bench_function("stored_map_node_of", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            maps[i % OBJECTS]
                .node_of(i % CHUNKS as usize)
                .expect("resolves")
        });
    });
    g.finish();
}

criterion_group!(placement_lookup, bench_place_stripe, bench_chunk_node);
criterion_main!(placement_lookup);
