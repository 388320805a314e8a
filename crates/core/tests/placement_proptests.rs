//! Property tests for failure-domain-aware placement: for any topology,
//! seed, and code, no failure domain may hold more than `tolerance`
//! shards of a stripe, and no domain may hold two shards of the same
//! local group — the invariants that keep a whole-rack outage within
//! what the code guarantees to recover, with cheap local repair intact.

use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::topology::Topology;
use fusion_core::config::{EcConfig, PlacementPolicy, StoreConfig};
use fusion_core::store::Store;
use fusion_format::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn analytics_bytes(rows: usize) -> Vec<u8> {
    let schema = Schema::new(vec![Field::new("x", LogicalType::Int64)]);
    let table = Table::new(schema, vec![ColumnData::Int64((0..rows as i64).collect())]).unwrap();
    write_table(
        &table,
        WriteOptions {
            rows_per_group: 250,
        },
    )
    .unwrap()
}

fn store_on(ec: EcConfig, topo: Topology, seed: u64, placement: PlacementPolicy) -> Store {
    let cfg = StoreConfig::fusion()
        .with_ec(ec)
        .with_cluster(ClusterSpec::with_topology(topo))
        .with_placement(placement)
        .with_seed(seed);
    Store::new(cfg).unwrap()
}

/// Shards per failure domain for one stripe placement.
fn domain_counts(store: &Store, nodes: &[usize]) -> HashMap<usize, usize> {
    let mut counts = HashMap::new();
    for &n in nodes {
        *counts.entry(store.topology().domain_of(n)).or_insert(0) += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two placement invariants hold for every stripe of every
    /// object, for both RS and LRC, over random rack topologies.
    #[test]
    fn domain_aware_placement_respects_invariants(
        seed: u64,
        racks in 4usize..7,
        per_rack in 3usize..6,
        lrc: bool,
        rows in 500usize..2000,
    ) {
        let ec = if lrc { EcConfig::LRC_10_6 } else { EcConfig::rs(9, 6) };
        let topo = Topology::racks(racks * per_rack, racks);
        let mut store = store_on(ec, topo, seed, PlacementPolicy::DomainAware);
        store.put("obj", analytics_bytes(rows)).unwrap();

        let tolerance = store.codec().tolerance();
        let meta = store.object("obj").unwrap();
        for sp in &meta.placement {
            // No domain exceeds the code's loss tolerance.
            for (&d, &c) in &domain_counts(&store, &sp.nodes) {
                prop_assert!(
                    c <= tolerance,
                    "domain {d} holds {c} shards, tolerance {tolerance}"
                );
            }
            // No domain holds two shards of one local group.
            let mut group_domains: Vec<(usize, usize)> = Vec::new();
            for (shard, &node) in sp.nodes.iter().enumerate() {
                if let Some(g) = store.codec().group_of(shard) {
                    let d = store.topology().domain_of(node);
                    prop_assert!(
                        !group_domains.contains(&(g, d)),
                        "group {g} has two shards in domain {d}"
                    );
                    group_domains.push((g, d));
                }
            }
        }
    }

    /// The deterministic rendezvous policy honors the same PR-6
    /// invariants as the stored-map path, for both RS and LRC, over
    /// random rack topologies — and its placement is a pure function of
    /// `(seed, name, membership)`: two independently built stores agree
    /// on every stripe.
    #[test]
    fn deterministic_placement_respects_invariants_and_is_stable(
        seed: u64,
        racks in 4usize..7,
        per_rack in 3usize..6,
        lrc: bool,
        rows in 500usize..2000,
    ) {
        let ec = if lrc { EcConfig::LRC_10_6 } else { EcConfig::rs(9, 6) };
        let bytes = analytics_bytes(rows);
        let topo = Topology::racks(racks * per_rack, racks);
        let mut store = store_on(ec, topo.clone(), seed, PlacementPolicy::Deterministic);
        store.put("obj", bytes.clone()).unwrap();

        let tolerance = store.codec().tolerance();
        let meta = store.object("obj").unwrap();
        for sp in &meta.placement {
            // Distinct nodes, always.
            let mut uniq = sp.nodes.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), sp.nodes.len());
            // No domain exceeds the code's loss tolerance.
            for (&d, &c) in &domain_counts(&store, &sp.nodes) {
                prop_assert!(
                    c <= tolerance,
                    "domain {} holds {} shards, tolerance {}", d, c, tolerance
                );
            }
            // No domain holds two shards of one local group.
            let mut group_domains: Vec<(usize, usize)> = Vec::new();
            for (shard, &node) in sp.nodes.iter().enumerate() {
                if let Some(g) = store.codec().group_of(shard) {
                    let d = store.topology().domain_of(node);
                    prop_assert!(
                        !group_domains.contains(&(g, d)),
                        "group {} has two shards in domain {}", g, d
                    );
                    group_domains.push((g, d));
                }
            }
        }

        // Byte stability: an independently built store with the same
        // seed and membership reproduces every placement and the same
        // materialized location map.
        let mut twin = store_on(ec, topo, seed, PlacementPolicy::Deterministic);
        twin.put("obj", bytes).unwrap();
        let tm = twin.object("obj").unwrap();
        for (sp, tp) in meta.placement.iter().zip(&tm.placement) {
            prop_assert_eq!(&sp.nodes, &tp.nodes);
        }
        prop_assert_eq!(
            store.location_map("obj").unwrap(),
            twin.location_map("obj").unwrap()
        );
    }

    /// On a flat topology the domain-aware greedy pass must degenerate
    /// to exactly the naive shuffle-truncate: same seed, same placement.
    #[test]
    fn flat_topology_matches_naive_placement(seed: u64, rows in 500usize..1500) {
        let bytes = analytics_bytes(rows);
        let ec = EcConfig::rs(9, 6);
        let mut aware = store_on(ec, Topology::flat(9), seed, PlacementPolicy::DomainAware);
        let mut naive = store_on(ec, Topology::flat(9), seed, PlacementPolicy::Naive);
        aware.put("obj", bytes.clone()).unwrap();
        naive.put("obj", bytes).unwrap();
        let pa: Vec<Vec<usize>> = aware.object("obj").unwrap().placement
            .iter().map(|sp| sp.nodes.clone()).collect();
        let pn: Vec<Vec<usize>> = naive.object("obj").unwrap().placement
            .iter().map(|sp| sp.nodes.clone()).collect();
        prop_assert_eq!(pa, pn);
    }
}

/// A whole-rack outage stays readable under domain-aware placement;
/// naive placement demonstrably violates the invariant for some seed
/// (which is why the experiment's naive arm loses data).
#[test]
fn rack_outage_readable_only_with_domain_awareness() {
    let bytes = analytics_bytes(2000);
    let topo = Topology::racks(16, 4);
    let ec = EcConfig::LRC_10_6;

    // Domain-aware: fail every node of rack 0; every byte still reads.
    let mut store = store_on(ec, topo.clone(), 11, PlacementPolicy::DomainAware);
    store.put("obj", bytes.clone()).unwrap();
    for node in topo.nodes_in(0) {
        store.fail_node(node).unwrap();
    }
    assert_eq!(store.get("obj", 0, bytes.len() as u64).unwrap(), bytes);

    // Naive: some seed places more shards in one rack than the code
    // tolerates — the invariant the greedy pass exists to prevent.
    let violated = (0..64u64).any(|seed| {
        let mut store = store_on(ec, topo.clone(), seed, PlacementPolicy::Naive);
        store.put("obj", bytes.clone()).unwrap();
        let tolerance = store.codec().tolerance();
        let meta = store.object("obj").unwrap();
        meta.placement.iter().any(|sp| {
            domain_counts(&store, &sp.nodes)
                .values()
                .any(|&c| c > tolerance)
        })
    });
    assert!(
        violated,
        "naive placement never overloaded a rack in 64 seeds"
    );
}
