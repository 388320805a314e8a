//! GF(2^8) codec throughput (kernel extension): wall-clock encode and
//! reconstruct bandwidth of the scalar log/exp reference vs the
//! split-nibble `FastCodec`, at the paper's two production codes with
//! 1 MiB shards.
//!
//! Unlike the simulated-time experiments, this one measures real CPU
//! time with `std::time::Instant` — it is the calibration source for
//! `FAST_CODEC_SPEEDUP` in `fusion-core::config`. Besides the rendered
//! table, it writes machine-readable JSON to
//! `results/ec_throughput.json`.

use crate::harness::BenchEnv;
use crate::report::Table;
use fusion_ec::codec::CodecKind;
use fusion_ec::ErasureCode;
use std::time::Instant;

/// Shard size: the paper's 1 MiB block.
const SHARD_BYTES: usize = 1 << 20;
/// Minimum measurement window per cell.
const MIN_ELAPSED_NS: u128 = 250_000_000;
/// Warmup iterations before timing (tables hot, buffers allocated).
const WARMUP_ITERS: usize = 2;

struct Cell {
    n: usize,
    k: usize,
    codec: CodecKind,
    op: &'static str,
    gib_per_s: f64,
    iters: u64,
    elapsed_ns: u128,
}

fn stripe(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..SHARD_BYTES).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect()
}

/// Times `body` in batches until the window fills; returns (iters, ns).
fn measure<F: FnMut()>(mut body: F) -> (u64, u128) {
    for _ in 0..WARMUP_ITERS {
        body();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        body();
        iters += 1;
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= MIN_ELAPSED_NS {
            return (iters, elapsed);
        }
    }
}

fn push_cell(
    cells: &mut Vec<Cell>,
    n: usize,
    k: usize,
    codec: CodecKind,
    op: &'static str,
    iters: u64,
    elapsed_ns: u128,
) {
    let bytes = (k * SHARD_BYTES) as f64 * iters as f64;
    cells.push(Cell {
        n,
        k,
        codec,
        op,
        gib_per_s: bytes / (1u64 << 30) as f64 / (elapsed_ns as f64 / 1e9),
        iters,
        elapsed_ns,
    });
}

fn run_code(n: usize, k: usize, cells: &mut Vec<Cell>) {
    let data = stripe(k);
    for codec in [CodecKind::Scalar, CodecKind::Fast] {
        let rs = ErasureCode::with_codec(n, k, 0, codec).expect("valid params");

        // Encode through the buffer-reusing path the Store uses.
        let mut parity = Vec::new();
        let (iters, ns) = measure(|| rs.encode_into(&data, &mut parity));
        push_cell(cells, n, k, codec, "encode", iters, ns);

        // Reconstruct with all m = n − k data shards lost: the
        // worst-case decode (every lost shard combines k survivors).
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        let m = n - k;
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let (iters, ns) = measure(|| {
            for s in shards.iter_mut().take(m) {
                *s = None;
            }
            rs.reconstruct(&mut shards, SHARD_BYTES)
                .expect("recoverable");
        });
        push_cell(cells, n, k, codec, "reconstruct", iters, ns);
    }
}

fn find<'a>(cells: &'a [Cell], n: usize, codec: CodecKind, op: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.n == n && c.codec == codec && c.op == op)
        .expect("cell present")
}

fn json(cells: &[Cell]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"ec_throughput\",\n");
    out.push_str(&format!("  \"shard_bytes\": {SHARD_BYTES},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"code\": \"rs({},{})\", \"codec\": \"{}\", \"op\": \"{}\", \
             \"gib_per_s\": {:.3}, \"iters\": {}, \"elapsed_ns\": {}}}{}\n",
            c.n,
            c.k,
            c.codec,
            c.op,
            c.gib_per_s,
            c.iters,
            c.elapsed_ns,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    let mut lines = Vec::new();
    for (n, k) in [(9usize, 6usize), (14, 10)] {
        for op in ["encode", "reconstruct"] {
            let s = find(cells, n, CodecKind::Scalar, op).gib_per_s;
            let f = find(cells, n, CodecKind::Fast, op).gib_per_s;
            lines.push(format!("    \"{op}_rs{n}_{k}\": {:.2}", f / s));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Scalar-vs-fast codec bandwidth at RS(9,6) and RS(14,10), 1 MiB shards.
pub fn ec_throughput(_env: &BenchEnv) -> String {
    let mut cells = Vec::new();
    run_code(9, 6, &mut cells);
    run_code(14, 10, &mut cells);

    let _ = std::fs::create_dir_all("results");
    std::fs::write("results/ec_throughput.json", json(&cells))
        .expect("write results/ec_throughput.json");

    let mut t = Table::new(&["code", "op", "scalar GiB/s", "fast GiB/s", "speedup"]);
    for (n, k) in [(9usize, 6usize), (14, 10)] {
        for op in ["encode", "reconstruct"] {
            let s = find(&cells, n, CodecKind::Scalar, op);
            let f = find(&cells, n, CodecKind::Fast, op);
            t.row(vec![
                format!("rs({n},{k})"),
                op.to_string(),
                format!("{:.2}", s.gib_per_s),
                format!("{:.2}", f.gib_per_s),
                format!("{:.1}x", f.gib_per_s / s.gib_per_s),
            ]);
        }
    }
    format!(
        "EC codec throughput (extension): wall-clock GF(2^8) bandwidth, 1 MiB shards\n\
         (also written to results/ec_throughput.json; calibrates FAST_CODEC_SPEEDUP)\n{}",
        t.render()
    )
}
