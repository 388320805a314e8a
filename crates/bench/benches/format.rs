//! Columnar format hot paths: chunk encode/decode for the three column
//! regimes (low-cardinality dictionary, incompressible numerics, text),
//! footer parse — the only format work on FAC's Put critical path — and
//! the page CRC-32 on an 85 KB `extendedprice` page.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fusion_format::chunk::{decode_column_chunk, encode_column_chunk, pages};
use fusion_format::footer::parse_footer;
use fusion_format::schema::LogicalType;
use fusion_format::util::{crc32, crc32_slicing};
use fusion_format::value::ColumnData;
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

fn columns() -> Vec<(&'static str, ColumnData, LogicalType)> {
    let n = 100_000;
    vec![
        (
            "dict_strings",
            ColumnData::Utf8(
                (0..n)
                    .map(|i| ["AIR", "RAIL", "SHIP", "TRUCK"][i % 4].into())
                    .collect(),
            ),
            LogicalType::Utf8,
        ),
        (
            "random_floats",
            ColumnData::Float64((0..n).map(|i| (i as f64 * 77.7).sin() * 1e6).collect()),
            LogicalType::Float64,
        ),
        (
            "text",
            ColumnData::Utf8(
                (0..n / 10)
                    .map(|i| format!("free text value number {i} with some words"))
                    .collect(),
            ),
            LogicalType::Utf8,
        ),
    ]
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_encode");
    for (name, col, _) in columns() {
        g.throughput(Throughput::Bytes(col.plain_size() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &col, |b, col| {
            b.iter(|| encode_column_chunk(std::hint::black_box(col)));
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_decode");
    for (name, col, ty) in columns() {
        let (bytes, _) = encode_column_chunk(&col);
        g.throughput(Throughput::Bytes(col.plain_size() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &bytes, |b, bytes| {
            b.iter(|| decode_column_chunk(std::hint::black_box(bytes), ty).expect("valid chunk"));
        });
    }
    g.finish();
}

fn bench_footer_parse(c: &mut Criterion) {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 2_000,
        row_groups: 10,
        seed: 3,
    });
    c.bench_function("footer_parse_160_chunks", |b| {
        b.iter(|| fusion_format::footer::parse_footer(std::hint::black_box(&file)).expect("valid"));
    });
}

/// The compressed `extendedprice` page (plain f64) of one 15k-row
/// lineitem row group (seed 1): the page every cold scan checks most.
fn extendedprice_page() -> Vec<u8> {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 1,
        seed: 1,
    });
    let meta = parse_footer(&file).expect("valid footer");
    let col = meta
        .schema
        .index_of("extendedprice")
        .expect("lineitem column");
    let cm = &meta.row_groups[0].chunks[col];
    let chunk = &file[cm.offset as usize..(cm.offset + cm.len) as usize];
    pages(chunk).expect("valid chunk")[0].to_vec()
}

fn bench_crc32(c: &mut Criterion) {
    let page = extendedprice_page();
    let mut g = c.benchmark_group("crc32");
    // One CRC takes microseconds; the default 10 iterations time noise.
    g.sample_size(1000);
    g.throughput(Throughput::Bytes(page.len() as u64));
    g.bench_with_input(BenchmarkId::new("crc32", "extendedprice"), &page, |b, p| {
        b.iter(|| crc32(std::hint::black_box(p)));
    });
    g.bench_with_input(
        BenchmarkId::new("slicing", "extendedprice"),
        &page,
        |b, p| {
            b.iter(|| crc32_slicing(std::hint::black_box(p)));
        },
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_footer_parse,
    bench_crc32
);
criterion_main!(benches);
