//! Snappy codec throughput (kernel extension): compress and decompress
//! rates of the fast kernels (`fusion_snappy::compress` / `decompress`)
//! vs the preserved scalar reference (`fusion_snappy::reference`) over
//! the three page regimes the store actually produces:
//!
//! * `run_heavy` — long byte runs, the shape of RLE/dictionary index
//!   pages (compresses to almost nothing, copy-dominated);
//! * `text` — word soup from the workload generator, the shape of
//!   string data pages (mixed literals and short copies);
//! * `incompressible` — xorshift noise, the shape of high-cardinality
//!   plain pages (literal-dominated, the codec's worst case).
//!
//! Like `ec_throughput` and `scan_throughput`, this measures real CPU
//! time with `std::time::Instant`; it is the calibration source for
//! `FAST_SNAPPY_SPEEDUP` in `fusion-core::config`. The headline number
//! is the geometric-mean decompress speedup over the compressible mixes
//! (`run_heavy` + `text`), which the PR's acceptance bar requires to be
//! at least 3x.
//!
//! Besides the rendered table, it writes machine-readable JSON to
//! `results/snappy_throughput.json`.

use crate::harness::{measure, speedup, BenchEnv, Timing};
use crate::report::{json_array, json_object, write_json, Table};
use std::time::Duration;

/// Bytes per input buffer (a production-sized page run: 4 MiB spans
/// many 64 KiB Snappy fragments, so the persistent-hash-table reuse in
/// the fast encoder is exercised).
const BYTES: usize = 4 << 20;
/// Measurement window per cell.
const WINDOW: Duration = Duration::from_millis(150);

/// The compressible mixes the headline speedup is taken over.
const COMPRESSIBLE: &[&str] = &["run_heavy", "text"];

struct Mix {
    name: &'static str,
    gen: fn() -> Vec<u8>,
}

const MIXES: &[Mix] = &[
    // Long runs of slowly varying bytes: RLE / dictionary index pages.
    Mix {
        name: "run_heavy",
        gen: || (0..BYTES).map(|i| ((i / 4096) % 7) as u8).collect(),
    },
    // Space-separated word soup: string data pages.
    Mix {
        name: "text",
        gen: || {
            fusion_workloads::text::WORDS
                .iter()
                .cycle()
                .flat_map(|w| {
                    let mut v = w.as_bytes().to_vec();
                    v.push(b' ');
                    v
                })
                .take(BYTES)
                .collect()
        },
    },
    // xorshift64 noise: high-cardinality plain pages.
    Mix {
        name: "incompressible",
        gen: || {
            let mut x = 0x2545_F491_4F6C_DD1D_u64;
            (0..BYTES)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        },
    },
];

struct Cell {
    mix: &'static str,
    codec: &'static str,
    direction: &'static str,
    gib_per_s: f64,
    ratio: f64,
    t: Timing,
}

fn run_mix(mix: &Mix, cells: &mut Vec<Cell>) {
    let data = (mix.gen)();
    let stream = fusion_snappy::compress(&data);
    let ratio = stream.len() as f64 / data.len() as f64;

    // Both codecs must agree with the input before we time anything.
    let ref_stream = fusion_snappy::reference::compress(&data);
    let ref_ratio = ref_stream.len() as f64 / data.len() as f64;
    assert_eq!(
        fusion_snappy::decompress(&stream).expect("fast stream"),
        data,
        "{}: fast roundtrip diverged",
        mix.name
    );
    assert_eq!(
        fusion_snappy::reference::decompress(&ref_stream).expect("reference stream"),
        data,
        "{}: reference roundtrip diverged",
        mix.name
    );

    let mut enc = fusion_snappy::Encoder::new();
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    // Each decoder times its own compressor's stream (what that
    // configuration would actually read back).
    let variants: [(&str, &str, f64, &mut dyn FnMut()); 4] = [
        ("scalar", "compress", ref_ratio, &mut || {
            std::hint::black_box(fusion_snappy::reference::compress(std::hint::black_box(
                &data,
            )));
        }),
        ("fast", "compress", ratio, &mut || {
            enc.compress_into(std::hint::black_box(&data), &mut out);
            std::hint::black_box(&out);
        }),
        ("scalar", "decompress", ref_ratio, &mut || {
            std::hint::black_box(
                fusion_snappy::reference::decompress(std::hint::black_box(&ref_stream))
                    .expect("valid stream"),
            );
        }),
        ("fast", "decompress", ratio, &mut || {
            fusion_snappy::decompress_into(std::hint::black_box(&stream), &mut scratch)
                .expect("valid stream");
            std::hint::black_box(&scratch);
        }),
    ];
    // Throughput is always over *uncompressed* bytes, both directions:
    // that is the rate the read/write paths observe.
    let gib = data.len() as f64 / (1u64 << 30) as f64;
    for (codec, direction, ratio, body) in variants {
        let t = measure(WINDOW, body);
        cells.push(Cell {
            mix: mix.name,
            codec,
            direction,
            gib_per_s: t.rate(gib),
            ratio,
            t,
        });
    }
}

fn find<'a>(cells: &'a [Cell], mix: &str, codec: &str, direction: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.mix == mix && c.codec == codec && c.direction == direction)
        .expect("cell present")
}

/// Fast-vs-scalar speedup for one direction over `mixes`.
fn fast_speedup(cells: &[Cell], direction: &str, mixes: &[&str]) -> f64 {
    speedup(mixes.iter().map(|mix| {
        (
            find(cells, mix, "scalar", direction).gib_per_s,
            find(cells, mix, "fast", direction).gib_per_s,
        )
    }))
}

/// Fast vs scalar Snappy kernels over the store's three page regimes.
pub fn snappy_throughput(env: &BenchEnv) -> String {
    let mut cells = Vec::new();
    for mix in MIXES {
        run_mix(mix, &mut cells);
    }

    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"mix\": \"{}\", \"codec\": \"{}\", \"direction\": \"{}\", \
                 \"gib_per_s\": {:.3}, \"ratio\": {:.4}, \"iters\": {}, \"elapsed_ns\": {}}}",
                c.mix, c.codec, c.direction, c.gib_per_s, c.ratio, c.t.iters, c.t.elapsed_ns
            )
        })
        .collect();
    let all: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
    let headline = fast_speedup(&cells, "decompress", COMPRESSIBLE);
    write_json(
        env,
        "snappy_throughput.json",
        "snappy_throughput",
        &[
            format!("\"bytes\": {BYTES}"),
            json_array("cells", &json),
            json_object(
                "speedups",
                &[
                    format!("\"decompress_geomean_compressible\": {headline:.2}"),
                    format!(
                        "\"decompress_geomean_all\": {:.2}",
                        fast_speedup(&cells, "decompress", &all)
                    ),
                    format!(
                        "\"compress_geomean_all\": {:.2}",
                        fast_speedup(&cells, "compress", &all)
                    ),
                ],
            ),
        ],
    );

    let mut t = Table::new(&[
        "mix",
        "ratio",
        "scalar comp GiB/s",
        "fast comp GiB/s",
        "scalar decomp GiB/s",
        "fast decomp GiB/s",
        "decomp speedup",
    ]);
    for mix in MIXES {
        let sc = find(&cells, mix.name, "scalar", "compress");
        let fc = find(&cells, mix.name, "fast", "compress");
        let sd = find(&cells, mix.name, "scalar", "decompress");
        let fd = find(&cells, mix.name, "fast", "decompress");
        t.row(vec![
            mix.name.to_string(),
            format!("{:.3}", fc.ratio),
            format!("{:.2}", sc.gib_per_s),
            format!("{:.2}", fc.gib_per_s),
            format!("{:.2}", sd.gib_per_s),
            format!("{:.2}", fd.gib_per_s),
            format!("{:.1}x", fd.gib_per_s / sd.gib_per_s),
        ]);
    }
    format!(
        "Snappy kernel throughput: fast vs scalar reference, {} MiB inputs\n\
         (also written to results/snappy_throughput.json; calibrates FAST_SNAPPY_SPEEDUP)\n\
         decompress geomean speedup, compressible mixes: {:.2}x\n{}",
        BYTES >> 20,
        headline,
        t.render()
    )
}
