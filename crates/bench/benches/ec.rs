//! Reed-Solomon hot paths: stripe encode and reconstruction, for the
//! paper's two production codes — each under both GF(2^8) kernels
//! (`scalar` log/exp reference vs the `fast` split-nibble codec).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fusion_ec::codec::CodecKind;
use fusion_ec::ErasureCode;

const CODECS: [CodecKind; 2] = [CodecKind::Scalar, CodecKind::Fast];

fn stripe(k: usize, block: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..block).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_encode");
    for (n, k) in [(9usize, 6usize), (14, 10)] {
        for codec in CODECS {
            let rs = ErasureCode::with_codec(n, k, 0, codec).expect("valid params");
            let block = 1 << 20;
            let data = stripe(k, block);
            g.throughput(Throughput::Bytes((k * block) as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("rs({n},{k})_{codec}"), "1MiB_blocks"),
                &data,
                |b, d| {
                    b.iter(|| rs.encode(std::hint::black_box(d)));
                },
            );
        }
    }
    g.finish();
}

fn bench_encode_into(c: &mut Criterion) {
    // The Store hot path: parity buffers reused across stripes, so this
    // isolates kernel throughput from allocator noise.
    let mut g = c.benchmark_group("rs_encode_into");
    for codec in CODECS {
        let rs = ErasureCode::with_codec(9, 6, 0, codec).expect("valid params");
        let block = 1 << 20;
        let data = stripe(6, block);
        let mut parity = Vec::new();
        g.throughput(Throughput::Bytes((6 * block) as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("rs(9,6)_{codec}"), "reused_buffers"),
            &data,
            |b, d| {
                b.iter(|| {
                    rs.encode_into(std::hint::black_box(d), &mut parity);
                    parity.len()
                });
            },
        );
    }
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_reconstruct");
    for codec in CODECS {
        let rs = ErasureCode::with_codec(9, 6, 0, codec).expect("valid params");
        let block = 1 << 20;
        let data = stripe(6, block);
        let parity = rs.encode(&data);
        let full: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        for losses in [1usize, 3] {
            g.throughput(Throughput::Bytes((6 * block) as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("rs(9,6)_{codec}"), format!("{losses}_losses")),
                &losses,
                |b, &l| {
                    b.iter(|| {
                        let mut shards: Vec<Option<Vec<u8>>> =
                            full.iter().cloned().map(Some).collect();
                        for i in 0..l {
                            shards[i * 3] = None;
                        }
                        rs.reconstruct(&mut shards, block).expect("recoverable");
                        shards
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_variable_stripe(c: &mut Criterion) {
    // FAC's case: unequal block lengths, parity sized to the largest.
    let lens = [1 << 20, 1 << 18, 1 << 19, 1 << 16, 1 << 20, 1 << 14];
    let data: Vec<Vec<u8>> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| (0..l).map(|j| (i + j) as u8).collect())
        .collect();
    let total: u64 = lens.iter().map(|&l| l as u64).sum();
    let mut g = c.benchmark_group("rs_variable_blocks");
    for codec in CODECS {
        let rs = ErasureCode::with_codec(9, 6, 0, codec).expect("valid params");
        g.throughput(Throughput::Bytes(total));
        g.bench_function(format!("rs(9,6)_{codec}_fac_stripe"), |b| {
            b.iter(|| rs.encode(std::hint::black_box(&data)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_into,
    bench_reconstruct,
    bench_variable_stripe
);
criterion_main!(benches);
