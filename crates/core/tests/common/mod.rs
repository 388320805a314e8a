//! Shared by the query suites: [`Store::answer`] must be
//! [`Store::query_as`] without the time plane.

use fusion_core::config::QueryMode;
use fusion_core::store::Store;
use fusion_core::QueryResult;
use fusion_format::value::{ColumnData, Value};

/// A result in a form whose `==` is bitwise: floats by `to_bits`, so
/// `-0.0` is not `0.0` and a NaN equals itself.
fn bits(r: &QueryResult) -> String {
    fn value(v: &Value) -> String {
        match v {
            Value::Float(x) => format!("f{:x}", x.to_bits()),
            v => format!("{v:?}"),
        }
    }
    let column = |c: &ColumnData| match c {
        ColumnData::Float64(v) => {
            format!("{:x?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        }
        c => format!("{c:?}"),
    };
    let columns: Vec<String> = r
        .columns
        .iter()
        .map(|(n, c)| format!("{n}={}", column(c)))
        .collect();
    let aggregates: Vec<String> = r
        .aggregates
        .iter()
        .map(|(n, v)| format!("{n}={}", value(v)))
        .collect();
    format!("{} {columns:?} {aggregates:?}", r.row_count)
}

/// What a query leaves behind that the data plane owns: the chunk
/// cache's counters and the grouped stage's metrics.
fn counters(store: &Store) -> (fusion_core::cache::CacheStats, u64, u64) {
    let m = store.metrics();
    (
        store.chunk_cache().stats(),
        m.counter("agg_groups_emitted").get(),
        m.counter("agg_wire_bytes_saved").get(),
    )
}

/// For each query mode, builds two identical stores with `make`, puts
/// both into the same health — healthy, node 0 failed, then one node
/// past the code's tolerance — and runs every query in `queries` through
/// `query_as` on one and `answer` on the other. The answers must be
/// bitwise equal or the errors equal, and the two stores' chunk-cache
/// and aggregate counters must move in lockstep.
pub fn answer_matches_query_as(make: impl Fn(QueryMode) -> Store, queries: &[&str]) {
    for mode in [
        QueryMode::AdaptivePushdown,
        QueryMode::AlwaysPushdown,
        QueryMode::Reassemble,
    ] {
        let (mut modelled, mut answering) = (make(mode), make(mode));
        let ec = modelled.config().ec;
        let mut failed = 0;
        for health in ["healthy", "one node failed", "past tolerance"] {
            let down = match health {
                "healthy" => 0,
                "one node failed" => 1,
                _ => ec.n - ec.k + 1,
            };
            while failed < down {
                modelled.fail_node(failed).unwrap();
                answering.fail_node(failed).unwrap();
                failed += 1;
            }
            for sql in queries {
                let want = modelled.query_as("t", sql).map(|out| bits(&out.result));
                let got = answering.answer("t", sql).map(|r| bits(&r));
                let at = format!("{mode:?}, {health}: {sql}");
                match (&want, &got) {
                    (Ok(w), Ok(g)) => assert_eq!(g, w, "{at}"),
                    (Err(w), Err(g)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{at}"),
                    _ => panic!("{at}: query_as gave {want:?}, answer {got:?}"),
                }
                assert_eq!(counters(&answering), counters(&modelled), "{at}");
            }
        }
    }
}
