//! End-to-end query-path benchmarks: the real data plane (decode +
//! filter + project + workflow construction) for both executors on a
//! scaled lineitem object.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion_bench::harness::{BenchEnv, SystemKind};
use fusion_core::store::Store;
use fusion_format::chunk::{decode_column_chunk, encode_column_chunk, read_encoded_chunk};
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::CmpOp;
use fusion_sql::eval::{eval_filter, eval_filter_encoded};
use fusion_sql::plan::FilterLeaf;

fn stores() -> (BenchEnv, Store, Store) {
    let env = BenchEnv::new(0.05, 1, 1, 1);
    let file = env.lineitem_file().to_vec();
    let fusion = env.build_store(SystemKind::Fusion, "lineitem", &file);
    let baseline = env.build_store(SystemKind::Baseline, "lineitem", &file);
    (env, fusion, baseline)
}

fn bench_query_dataplane(c: &mut Criterion) {
    let (_env, fusion, baseline) = stores();
    let queries = [
        (
            "selective_filter",
            "SELECT extendedprice FROM x WHERE extendedprice < 950.0",
        ),
        (
            "aggregate",
            "SELECT count(*), avg(discount) FROM x WHERE quantity < 10",
        ),
        (
            "multi_filter",
            "SELECT suppkey FROM x WHERE quantity < 25 AND discount < 0.05",
        ),
    ];
    let mut g = c.benchmark_group("query_dataplane");
    g.sample_size(20);
    for (name, sql) in queries {
        g.bench_with_input(BenchmarkId::new("fusion", name), &sql, |b, sql| {
            b.iter(|| {
                fusion
                    .query_as("lineitem_0", std::hint::black_box(sql))
                    .expect("runs")
            });
        });
        g.bench_with_input(BenchmarkId::new("baseline", name), &sql, |b, sql| {
            b.iter(|| {
                baseline
                    .query_as("lineitem_0", std::hint::black_box(sql))
                    .expect("runs")
            });
        });
    }
    g.finish();
}

fn bench_filter_kernels(c: &mut Criterion) {
    // The filter-stage scan in isolation: decode-then-filter (scalar)
    // vs the encoded-domain kernels over a cold parse and a hot
    // (cache-resident) view, per column shape, Lt at ~10% selectivity.
    const ROWS: usize = 1 << 18;
    type Shape = (&'static str, fn(usize) -> i64, i64);
    let shapes: [Shape; 3] = [
        (
            "dictionary",
            |i| (i.wrapping_mul(2_654_435_761) % 1000) as i64,
            100,
        ),
        ("rle", |i| (i / 256) as i64, (ROWS / 2560) as i64),
        (
            "plain",
            |i| (i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) as i64,
            (1i64 << 32) / 10,
        ),
    ];
    let mut g = c.benchmark_group("filter_scan");
    for (name, gen, threshold) in shapes {
        let col = ColumnData::Int64((0..ROWS).map(gen).collect());
        let (bytes, _) = encode_column_chunk(&col);
        let hot = read_encoded_chunk(&bytes, LogicalType::Int64).expect("valid chunk");
        let leaf = FilterLeaf {
            id: 0,
            column: 0,
            column_name: "v".into(),
            op: CmpOp::Lt,
            constant: Value::Int(threshold),
        };
        g.bench_with_input(BenchmarkId::new("scalar", name), &leaf, |b, leaf| {
            b.iter(|| {
                let decoded = decode_column_chunk(&bytes, LogicalType::Int64).expect("decode");
                eval_filter(std::hint::black_box(leaf), &decoded).expect("eval")
            });
        });
        g.bench_with_input(BenchmarkId::new("encoded_cold", name), &leaf, |b, leaf| {
            b.iter(|| {
                let view = read_encoded_chunk(&bytes, LogicalType::Int64).expect("parse");
                eval_filter_encoded(std::hint::black_box(leaf), &view).expect("eval")
            });
        });
        g.bench_with_input(BenchmarkId::new("encoded_hot", name), &leaf, |b, leaf| {
            b.iter(|| eval_filter_encoded(std::hint::black_box(leaf), &hot).expect("eval"));
        });
    }
    g.finish();
}

fn bench_grouped_aggregate(c: &mut Criterion) {
    // GROUP BY pushdown: the end-to-end grouped query on both executors,
    // plus the keyed kernels in isolation (code-indexed encoded-domain
    // accumulation vs decode-then-hash-group).
    use fusion_sql::ast::AggFunc;
    use fusion_sql::bitmap::Bitmap;
    use fusion_sql::eval::{group_aggregate_decoded, group_aggregate_encoded, AggInput};

    let env = BenchEnv::new(0.05, 1, 1, 1);
    let file = env.lineitem_file().to_vec();
    let cfg = BenchEnv::store_config(SystemKind::Fusion, file.len(), 10 << 30)
        .with_aggregate_pushdown(true);
    let fusion = env.store_with(cfg, "lineitem", &file);
    let baseline = env.build_store(SystemKind::Baseline, "lineitem", &file);
    let sql = "SELECT returnflag, count(*), sum(quantity), avg(extendedprice) \
               FROM lineitem_0 WHERE quantity < 25 GROUP BY returnflag";

    let mut g = c.benchmark_group("grouped_aggregate");
    g.sample_size(20);
    g.bench_function("fusion_pushdown", |b| {
        b.iter(|| {
            fusion
                .query_as("lineitem_0", std::hint::black_box(sql))
                .expect("runs")
        });
    });
    g.bench_function("baseline_reassemble", |b| {
        b.iter(|| {
            baseline
                .query_as("lineitem_0", std::hint::black_box(sql))
                .expect("runs")
        });
    });

    // Kernel-only: a dictionary/RLE key over 2^18 rows, one aggregate of
    // each input kind, ~90% selectivity.
    const ROWS: usize = 1 << 18;
    let key = ColumnData::Int64((0..ROWS).map(|i| (i / 256 % 64) as i64).collect());
    let (bytes, _) = encode_column_chunk(&key);
    let hot = read_encoded_chunk(&bytes, LogicalType::Int64).expect("valid chunk");
    let arg = ColumnData::Float64((0..ROWS).map(|i| i as f64 * 0.25).collect());
    let filter: Bitmap = (0..ROWS).map(|i| i % 10 != 0).collect();
    // The encoded kernel reads the argument as its chunk view.
    let (arg_bytes, _) = encode_column_chunk(&arg);
    let arg_view = read_encoded_chunk(&arg_bytes, LogicalType::Float64).expect("valid chunk");
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Sum, AggInput::View(&arg_view)),
        (AggFunc::Min, AggInput::Key),
    ];
    let decoded_key = decode_column_chunk(&bytes, LogicalType::Int64).expect("decode");
    let aggs_dec: Vec<(AggFunc, Option<&ColumnData>)> = vec![
        (AggFunc::Count, None),
        (AggFunc::Sum, Some(&arg)),
        (AggFunc::Min, Some(&decoded_key)),
    ];
    assert_eq!(
        group_aggregate_encoded(&hot, &aggs_enc, &filter).expect("encoded"),
        group_aggregate_decoded(&[&decoded_key], &aggs_dec, &filter).expect("decoded"),
        "the encoded kernel answers as the decoded oracle"
    );
    g.bench_function("kernel_encoded_hot", |b| {
        b.iter(|| group_aggregate_encoded(&hot, std::hint::black_box(&aggs_enc), &filter))
    });
    g.bench_function("kernel_decode_then_group", |b| {
        b.iter(|| {
            let decoded = decode_column_chunk(&bytes, LogicalType::Int64).expect("decode");
            group_aggregate_decoded(&[&decoded], std::hint::black_box(&aggs_dec), &filter)
        })
    });
    g.finish();
}

fn bench_put(c: &mut Criterion) {
    let env = BenchEnv::new(0.02, 1, 1, 1);
    let file = env.lineitem_file().to_vec();
    let mut g = c.benchmark_group("put");
    g.sample_size(10);
    g.bench_function("fusion_put_160_chunks", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let cfg = BenchEnv::store_config(SystemKind::Fusion, file.len(), 10 << 30);
            let mut store = Store::new(cfg).expect("valid config");
            i += 1;
            store.put(&format!("obj{i}"), file.clone()).expect("put")
        });
    });
    g.finish();
}

fn bench_simulation_replay(c: &mut Criterion) {
    // The DES itself: replaying 1000 queries through the engine.
    let env = BenchEnv::new(0.02, 2, 1000, 10);
    let store = env.lineitem_store(SystemKind::Fusion);
    let outputs = env.outputs_per_copy(store, "lineitem", |obj| {
        format!("SELECT extendedprice FROM {obj} WHERE extendedprice < 950.0")
    });
    let mut g = c.benchmark_group("des_replay");
    g.sample_size(10);
    g.bench_function("1000_queries_10_clients", |b| {
        b.iter(|| env.replay(store, std::hint::black_box(&outputs)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_query_dataplane,
    bench_filter_kernels,
    bench_grouped_aggregate,
    bench_put,
    bench_simulation_replay
);
criterion_main!(benches);
