//! End-to-end tests for the encoded-domain scan engine and the node-local
//! chunk cache: repeated queries hit the cache, invalidation fires on
//! delete / scrub-heal / node failure, degraded-mode queries stay correct
//! through the new scan path, and the encoded kernels change no results.

use fusion_core::config::{QueryMode, StoreConfig};
use fusion_core::store::Store;
use fusion_format::prelude::*;

fn test_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("orderkey", LogicalType::Int64),
        Field::new("amount", LogicalType::Float64),
        Field::new("flag", LogicalType::Utf8),
    ]);
    Table::new(
        schema,
        vec![
            ColumnData::Int64(
                (0..rows as i64)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect(),
            ),
            ColumnData::Float64((0..rows).map(|i| (i % 1000) as f64 + 0.25).collect()),
            ColumnData::Utf8((0..rows).map(|i| ["N", "O", "F"][i % 3].into()).collect()),
        ],
    )
    .unwrap()
}

fn fusion_store(cfg_mut: impl FnOnce(&mut StoreConfig)) -> Store {
    let bytes = write_table(
        &test_table(3000),
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut cfg = StoreConfig::fusion();
    cfg.overhead_threshold = 0.9;
    cfg.cluster.cost = cfg.cluster.cost.clone().scaled_down(1000.0);
    cfg_mut(&mut cfg);
    let mut store = Store::new(cfg).unwrap();
    store.put("t", bytes).unwrap();
    store
}

const SQL: &str = "SELECT amount FROM t WHERE flag = 'O' AND orderkey >= 0";

#[test]
fn repeated_query_hits_the_cache() {
    let store = fusion_store(|_| {});
    let first = store.query(SQL).unwrap();
    assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
    assert!(
        first.cache_misses > 0,
        "first query must populate the cache"
    );

    let second = store.query(SQL).unwrap();
    assert_eq!(first.result, second.result);
    assert!(second.cache_hits > 0, "repeat query must hit the cache");
    assert_eq!(
        second.cache_misses, 0,
        "repeat query should be fully cached"
    );

    let stats = store.chunk_cache().stats();
    assert!(stats.hits >= second.cache_hits as u64);
    assert!(stats.resident_bytes > 0);
    assert!(stats.entries > 0);
}

#[test]
fn disabled_cache_never_hits() {
    let store = fusion_store(|c| c.chunk_cache_bytes = 0);
    store.query(SQL).unwrap();
    let out = store.query(SQL).unwrap();
    assert_eq!(out.cache_hits, 0);
    assert_eq!(store.chunk_cache().stats().entries, 0);
}

#[test]
fn encoded_scan_toggle_changes_no_results() {
    let on = fusion_store(|_| {});
    let off = fusion_store(|c| c.encoded_scan = false);
    for sql in [
        SQL,
        "SELECT orderkey FROM t WHERE flag != 'N'",
        "SELECT count(*), avg(amount) FROM t WHERE amount < 500.0",
        "SELECT flag FROM t WHERE orderkey < 0 OR amount >= 999.0",
        "SELECT amount FROM t WHERE flag = 'Z'",
    ] {
        let a = on.query(sql).expect(sql);
        let b = off.query(sql).expect(sql);
        assert_eq!(a.result, b.result, "encoded vs scalar mismatch: {sql}");
        assert_eq!(a.selectivity, b.selectivity, "{sql}");
        if sql == SQL {
            // The toggle moves only the time plane: this query scans
            // `flag` in situ, charged at the modelled scan rate.
            assert_ne!(
                on.simulate_solo(&a.workflow),
                off.simulate_solo(&b.workflow),
                "{sql}"
            );
        }
    }
}

#[test]
fn degraded_mode_stays_correct_through_the_scan_path() {
    let mut store = fusion_store(|_| {});
    let healthy = store.query(SQL).unwrap();

    store.fail_node(0).unwrap();
    assert_eq!(
        store.chunk_cache().stats().entries,
        0,
        "node failure must flush the cache"
    );
    let degraded = store.query(SQL).unwrap();
    assert_eq!(healthy.result, degraded.result, "degraded result drifted");

    // Baseline agrees too (its path also crosses the failed node).
    let bytes = write_table(
        &test_table(3000),
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut bcfg = StoreConfig::baseline().with_block_size(16 << 10);
    bcfg.query_mode = QueryMode::Reassemble;
    bcfg.overhead_threshold = 0.9;
    bcfg.cluster.cost = bcfg.cluster.cost.clone().scaled_down(1000.0);
    let mut baseline = Store::new(bcfg).unwrap();
    baseline.put("t", bytes).unwrap();
    baseline.fail_node(0).unwrap();
    let b = baseline.query(SQL).unwrap();
    assert_eq!(healthy.result, b.result, "baseline degraded drifted");

    // Recovery flushes again and the store serves from a cold cache.
    store.recover_node(0).unwrap();
    assert_eq!(store.chunk_cache().stats().entries, 0);
    let recovered = store.query(SQL).unwrap();
    assert_eq!(healthy.result, recovered.result);
    assert_eq!(recovered.cache_hits, 0, "cache must be cold after recovery");
}

/// Counter conservation: `pruned + hits + misses == considered` must hold
/// for every executor in every mode — healthy, degraded, encoded scan on
/// or off, cache enabled or disabled.
#[test]
fn chunk_accounting_conserves_in_every_mode() {
    let assert_conserved = |out: &fusion_core::query::QueryOutput, what: &str| {
        assert_eq!(
            out.pruned_chunks + out.cache_hits + out.cache_misses,
            out.chunks_considered,
            "conservation violated ({what}): pruned={} hits={} misses={} considered={}",
            out.pruned_chunks,
            out.cache_hits,
            out.cache_misses,
            out.chunks_considered
        );
        assert!(
            out.chunks_considered > 0,
            "query touched no chunks ({what})"
        );
    };
    let queries = [
        SQL,
        "SELECT count(*), avg(amount) FROM t WHERE amount < 500.0",
        "SELECT amount FROM t WHERE orderkey >= 0",
        "SELECT amount FROM t WHERE flag = 'Z'",
    ];

    for encoded in [true, false] {
        for cache in [true, false] {
            let mut store = fusion_store(|c| {
                c.encoded_scan = encoded;
                if !cache {
                    c.chunk_cache_bytes = 0;
                }
            });
            for sql in queries {
                let label = format!("fusion encoded={encoded} cache={cache} healthy: {sql}");
                assert_conserved(&store.query(sql).expect(sql), &label);
                // Repeat so the second run exercises the hit path.
                assert_conserved(&store.query(sql).expect(sql), &label);
            }
            store.fail_node(0).unwrap();
            for sql in queries {
                let label = format!("fusion encoded={encoded} cache={cache} degraded: {sql}");
                assert_conserved(&store.query(sql).expect(sql), &label);
            }
        }
    }

    // Baseline: every fetched chunk is a data-plane miss; the invariant
    // holds with zero hits, healthy and degraded.
    let bytes = write_table(
        &test_table(3000),
        WriteOptions {
            rows_per_group: 500,
        },
    )
    .unwrap();
    let mut bcfg = StoreConfig::baseline().with_block_size(16 << 10);
    bcfg.overhead_threshold = 0.9;
    bcfg.cluster.cost = bcfg.cluster.cost.clone().scaled_down(1000.0);
    let mut baseline = Store::new(bcfg).unwrap();
    baseline.put("t", bytes).unwrap();
    for sql in queries {
        let out = baseline.query(sql).expect(sql);
        assert_eq!(out.cache_hits, 0, "baseline has no node caches");
        assert_conserved(&out, &format!("baseline healthy: {sql}"));
    }
    baseline.fail_node(0).unwrap();
    for sql in queries {
        assert_conserved(
            &baseline.query(sql).expect(sql),
            &format!("baseline degraded: {sql}"),
        );
    }
}

/// The observability flag gates trace recording: off yields an empty
/// no-op tree, on yields a span tree covering the executor stages.
#[test]
fn observability_flag_gates_trace_recording() {
    let off = fusion_store(|_| {});
    let out = off.query(SQL).unwrap();
    assert!(!out.trace.enabled());
    assert!(out.trace.root().children.is_empty(), "no-op trace recorded");

    let mut on = fusion_store(|c| c.observability = true);
    let out = on.query(SQL).unwrap();
    assert!(out.trace.enabled());
    let names: Vec<&str> = out
        .trace
        .root()
        .children
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(names.contains(&"filter_stage"), "spans: {names:?}");
    assert!(names.contains(&"projection_stage"), "spans: {names:?}");
    let filter =
        &out.trace.root().children[names.iter().position(|n| *n == "filter_stage").unwrap()];
    let kids: Vec<&str> = filter.children.iter().map(|s| s.name.as_str()).collect();
    assert!(kids.contains(&"stats_prune"), "filter children: {kids:?}");
    assert!(kids.contains(&"cache_lookup"), "filter children: {kids:?}");
    assert!(kids.contains(&"shard_read"), "filter children: {kids:?}");

    // Degraded queries grow degraded-reconstruct spans under the filter
    // stage, and the JSON export round-trips the tree shape.
    on.fail_node(0).unwrap();
    let degraded = on.query(SQL).unwrap();
    fn has_degraded(span: &fusion_obs::trace::Span) -> bool {
        span.name == "degraded_reconstruct" || span.children.iter().any(has_degraded)
    }
    assert!(
        has_degraded(degraded.trace.root()),
        "degraded query must record reconstruct spans"
    );
    assert!(degraded.trace.to_json().contains("degraded_reconstruct"));
}

#[test]
fn delete_invalidates_cached_chunks() {
    let mut store = fusion_store(|_| {});
    store.query(SQL).unwrap();
    assert!(store.chunk_cache().stats().entries > 0);
    store.delete("t").unwrap();
    assert_eq!(
        store.chunk_cache().stats().entries,
        0,
        "delete must drop the object's cached chunks"
    );
}

#[test]
fn scrub_heal_invalidates_cached_chunks() {
    let mut store = fusion_store(|_| {});
    store.query(SQL).unwrap();
    let before = store.chunk_cache().stats();
    assert!(before.entries > 0);

    // A clean scrub repairs nothing and leaves the cache alone.
    let clean = store.scrub();
    assert!(clean.is_clean());
    assert_eq!(clean.blocks_repaired, 0);
    assert_eq!(store.chunk_cache().stats().entries, before.entries);

    // Drop one block on an alive node; scrub heals it and must flush the
    // object's cached views.
    let meta = store.object("t").unwrap();
    let sp = &meta.placement[0];
    let (node, block) = (sp.nodes[0], sp.block_ids[0]);
    store.blocks_mut().delete(node, block).unwrap();
    let healed = store.scrub();
    assert!(healed.blocks_repaired > 0, "scrub should have repaired");
    assert_eq!(
        store.chunk_cache().stats().entries,
        0,
        "scrub repairs must invalidate cached chunks"
    );

    // Queries after the heal are still correct.
    let out = store.query(SQL).unwrap();
    assert_eq!(out.cache_hits, 0);
    assert!(out.cache_misses > 0);
}
