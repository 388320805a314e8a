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

use crate::harness::{measure, speedup, BenchEnv, Timing};
use crate::report::{json_array, json_object, write_json, Table};
use fusion_ec::codec::CodecKind;
use fusion_ec::ErasureCode;
use std::time::Duration;

/// The paper's two production codes, `(n, k)`.
const CODES: [(usize, usize); 2] = [(9, 6), (14, 10)];
/// The operations timed per code and codec.
const OPS: [&str; 2] = ["encode", "reconstruct"];
/// Shard size: the paper's 1 MiB block.
const SHARD_BYTES: usize = 1 << 20;
/// Measurement window per cell.
const WINDOW: Duration = Duration::from_millis(250);

struct Cell {
    n: usize,
    k: usize,
    codec: CodecKind,
    op: &'static str,
    gib_per_s: f64,
    t: Timing,
}

fn stripe(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..SHARD_BYTES).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect()
}

fn run_code(n: usize, k: usize, cells: &mut Vec<Cell>) {
    let data = stripe(k);
    // Bandwidth counts the stripe's data bytes, both directions.
    let stripe_gib = (k * SHARD_BYTES) as f64 / (1u64 << 30) as f64;
    for codec in [CodecKind::Scalar, CodecKind::Fast] {
        let rs = ErasureCode::with_codec(n, k, 0, codec).expect("valid params");
        let cell = |op, t: Timing| Cell {
            n,
            k,
            codec,
            op,
            gib_per_s: t.rate(stripe_gib),
            t,
        };

        // Encode through the buffer-reusing path the Store uses.
        let mut parity = Vec::new();
        let t = measure(WINDOW, || rs.encode_into(&data, &mut parity));
        cells.push(cell("encode", t));

        // Reconstruct with all m = n − k data shards lost: the
        // worst-case decode (every lost shard combines k survivors).
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        let m = n - k;
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let t = measure(WINDOW, || {
            for s in shards.iter_mut().take(m) {
                *s = None;
            }
            rs.reconstruct(&mut shards, SHARD_BYTES)
                .expect("recoverable");
        });
        cells.push(cell("reconstruct", t));
    }
}

fn find<'a>(cells: &'a [Cell], n: usize, codec: CodecKind, op: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.n == n && c.codec == codec && c.op == op)
        .expect("cell present")
}

/// Fast-over-scalar speedup of one (code, op) cell pair.
fn fast_speedup(cells: &[Cell], n: usize, op: &str) -> f64 {
    let s = find(cells, n, CodecKind::Scalar, op).gib_per_s;
    speedup([(s, find(cells, n, CodecKind::Fast, op).gib_per_s)])
}

/// Scalar-vs-fast codec bandwidth at RS(9,6) and RS(14,10), 1 MiB shards.
pub fn ec_throughput(env: &BenchEnv) -> String {
    let mut cells = Vec::new();
    for (n, k) in CODES {
        run_code(n, k, &mut cells);
    }

    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"code\": \"rs({},{})\", \"codec\": \"{}\", \"op\": \"{}\", \
                 \"gib_per_s\": {:.3}, \"iters\": {}, \"elapsed_ns\": {}}}",
                c.n, c.k, c.codec, c.op, c.gib_per_s, c.t.iters, c.t.elapsed_ns
            )
        })
        .collect();
    let mut speedups = Vec::new();
    for (n, k) in CODES {
        for op in OPS {
            speedups.push(format!(
                "\"{op}_rs{n}_{k}\": {:.2}",
                fast_speedup(&cells, n, op)
            ));
        }
    }
    write_json(
        env,
        "ec_throughput.json",
        "ec_throughput",
        &[
            format!("\"shard_bytes\": {SHARD_BYTES}"),
            json_array("cells", &json),
            json_object("speedups", &speedups),
        ],
    );

    let mut t = Table::new(&["code", "op", "scalar GiB/s", "fast GiB/s", "speedup"]);
    for (n, k) in CODES {
        for op in OPS {
            t.row(vec![
                format!("rs({n},{k})"),
                op.to_string(),
                format!("{:.2}", find(&cells, n, CodecKind::Scalar, op).gib_per_s),
                format!("{:.2}", find(&cells, n, CodecKind::Fast, op).gib_per_s),
                format!("{:.1}x", fast_speedup(&cells, n, op)),
            ]);
        }
    }
    format!(
        "EC codec throughput (extension): wall-clock GF(2^8) bandwidth, 1 MiB shards\n\
         (also written to results/ec_throughput.json; calibrates FAST_CODEC_SPEEDUP)\n{}",
        t.render()
    )
}
