//! `compression` criterion group: fast vs scalar-reference Snappy
//! kernels, both directions, on the three regimes that matter to the
//! store: highly repetitive pages, text, and incompressible data; and
//! decode of the two element-dense page shapes cold scans read most,
//! plain `extendedprice` (f64) and sorted plain `orderkey` (i64). Each
//! page case decodes that column's page from every row group in turn,
//! as a cold scan does, so no single page's branches are learned.
//!
//! `figures -- snappy_throughput` is the committed calibration run;
//! this group is for interactive kernel work (`cargo bench -p
//! fusion-bench --bench snappy`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fusion_format::chunk::pages;
use fusion_format::footer::parse_footer;
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    let repetitive: Vec<u8> = (0..1 << 20).map(|i| ((i / 4096) % 7) as u8).collect();
    let text: Vec<u8> = fusion_workloads::text::WORDS
        .iter()
        .cycle()
        .take(150_000)
        .flat_map(|w| {
            let mut v = w.as_bytes().to_vec();
            v.push(b' ');
            v
        })
        .collect();
    let mut x = 0x2545F491_u64;
    let random: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    vec![
        ("repetitive", repetitive),
        ("text", text),
        ("random", random),
    ]
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression/compress");
    for (name, data) in inputs() {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("scalar", name), &data, |b, d| {
            b.iter(|| fusion_snappy::reference::compress(std::hint::black_box(d)));
        });
        g.bench_with_input(BenchmarkId::new("fast", name), &data, |b, d| {
            let mut enc = fusion_snappy::Encoder::new();
            let mut out = Vec::new();
            b.iter(|| {
                enc.compress_into(std::hint::black_box(d), &mut out);
                std::hint::black_box(&out);
            });
        });
    }
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression/decompress");
    for (name, data) in inputs() {
        let compressed = fusion_snappy::compress(&data);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("scalar", name), &compressed, |b, d| {
            b.iter(|| {
                fusion_snappy::reference::decompress(std::hint::black_box(d)).expect("valid stream")
            });
        });
        g.bench_with_input(BenchmarkId::new("fast", name), &compressed, |b, d| {
            let mut out = Vec::new();
            b.iter(|| {
                fusion_snappy::decompress_into(std::hint::black_box(d), &mut out)
                    .expect("valid stream");
                std::hint::black_box(&out);
            });
        });
    }
    g.finish();
}

/// The compressed data page of `column` in each row group of the
/// 10 × 15k-row lineitem object (seed 1), in row-group order.
fn lineitem_pages(column: &str) -> Vec<Vec<u8>> {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 10,
        seed: 1,
    });
    let meta = parse_footer(&file).expect("valid footer");
    let col = meta.schema.index_of(column).expect("lineitem column");
    meta.row_groups
        .iter()
        .map(|rg| {
            let cm = &rg.chunks[col];
            let chunk = &file[cm.offset as usize..(cm.offset + cm.len) as usize];
            let pages = pages(chunk).expect("valid chunk");
            pages.last().expect("a data page").to_vec()
        })
        .collect()
}

fn bench_pages(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression/decompress_page");
    // One iteration decodes ten ~0.1 ms pages; the default 10 iterations
    // time noise.
    g.sample_size(1000);
    for name in ["extendedprice", "orderkey"] {
        let pages = lineitem_pages(name);
        let decoded: usize = pages
            .iter()
            .map(|p| fusion_snappy::decompress_len(p).expect("valid stream"))
            .sum();
        g.throughput(Throughput::Bytes(decoded as u64));
        g.bench_with_input(BenchmarkId::new("scalar", name), &pages, |b, pages| {
            b.iter(|| {
                for page in pages {
                    let out = fusion_snappy::reference::decompress(std::hint::black_box(page))
                        .expect("valid stream");
                    std::hint::black_box(out);
                }
            });
        });
        g.bench_with_input(BenchmarkId::new("fast", name), &pages, |b, pages| {
            let mut out = Vec::new();
            b.iter(|| {
                for page in pages {
                    fusion_snappy::decompress_into(std::hint::black_box(page), &mut out)
                        .expect("valid stream");
                    std::hint::black_box(&out);
                }
            });
        });
    }
    g.finish();
}

criterion_group!(compression, bench_compress, bench_decompress, bench_pages);
criterion_main!(compression);
