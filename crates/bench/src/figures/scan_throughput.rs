//! Encoded-domain scan throughput (kernel extension): wall-clock filter
//! rate of the decode-then-filter path vs the encoded-domain kernels
//! (`eval_filter_encoded`) over dictionary, RLE-friendly, and plain
//! Int64 columns, swept across predicate selectivity.
//!
//! Like `ec_throughput`, this measures real CPU time with
//! `std::time::Instant` — it is the calibration source for
//! `ENCODED_SCAN_SPEEDUP` in `fusion-core::config`. Three variants per
//! cell:
//!
//! * `decoded` — decode the chunk to `ColumnData`, then `eval_filter`
//!   (what every query did before the encoded scan engine);
//! * `encoded_cold` — parse the chunk to an [`EncodedChunk`] view, then
//!   scan in the encoded domain (a node-cache miss);
//! * `encoded_hot` — scan a pre-parsed resident view (a node-cache hit).
//!
//! Besides the rendered table, it writes machine-readable JSON to
//! `results/scan_throughput.json`.

use crate::harness::{measure, speedup, BenchEnv, Timing};
use crate::report::{json_array, json_object, write_json, Table};
use fusion_format::chunk::{decode_column_chunk, encode_column_chunk, read_encoded_chunk};
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::CmpOp;
use fusion_sql::eval::{eval_filter, eval_filter_encoded};
use fusion_sql::plan::FilterLeaf;
use std::time::Duration;

/// Rows per column chunk (a production-sized row group).
const ROWS: usize = 1 << 18;
/// Measurement window per cell.
const WINDOW: Duration = Duration::from_millis(150);
/// Predicate selectivities swept (fraction of rows expected to match).
const SELECTIVITIES: &[f64] = &[0.001, 0.01, 0.1, 0.5, 1.0];

/// The three column shapes: what the writer encodes them as, and the
/// value domain the `Lt` threshold is drawn from.
struct Shape {
    name: &'static str,
    /// Value at row `i`.
    gen: fn(usize) -> i64,
    /// Exclusive upper bound of the value domain (for thresholds).
    domain: i64,
}

const SHAPES: &[Shape] = &[
    // Low cardinality, shuffled order: dictionary page + literal-heavy
    // code stream.
    Shape {
        name: "dictionary",
        gen: |i| (i.wrapping_mul(2_654_435_761) % 1000) as i64,
        domain: 1000,
    },
    // Low cardinality, sorted: dictionary page + long RLE runs.
    Shape {
        name: "rle",
        gen: |i| (i / 256) as i64,
        domain: (ROWS / 256) as i64,
    },
    // Cardinality above MAX_DICT_DISTINCT: stays plain.
    Shape {
        name: "plain",
        gen: |i| (i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) as i64,
        domain: 1i64 << 32,
    },
];

struct Cell {
    shape: &'static str,
    encoding: &'static str,
    selectivity: f64,
    variant: &'static str,
    mrows_per_s: f64,
    t: Timing,
}

fn run_shape(shape: &Shape, cells: &mut Vec<Cell>) {
    let col = ColumnData::Int64((0..ROWS).map(shape.gen).collect());
    let (bytes, stats) = encode_column_chunk(&col);
    let encoding: &'static str = match stats.encoding {
        fusion_format::encoding::Encoding::Dictionary => "dictionary",
        fusion_format::encoding::Encoding::Plain => "plain",
    };
    let hot = read_encoded_chunk(&bytes, LogicalType::Int64).expect("valid chunk");

    for &sel in SELECTIVITIES {
        let c = (shape.domain as f64 * sel) as i64;
        let leaf = FilterLeaf {
            id: 0,
            column: 0,
            column_name: "v".into(),
            op: CmpOp::Lt,
            constant: Value::Int(c),
        };

        // All three paths must produce the same bitmap.
        let want = eval_filter(&leaf, &col).expect("scalar eval");
        let got = eval_filter_encoded(&leaf, &hot).expect("encoded eval");
        assert_eq!(
            want.words(),
            got.words(),
            "{}: encoded path diverged at selectivity {sel}",
            shape.name
        );

        let variants: [(&str, &mut dyn FnMut()); 3] = [
            ("decoded", &mut || {
                let decoded = decode_column_chunk(&bytes, LogicalType::Int64).expect("decode");
                std::hint::black_box(eval_filter(&leaf, &decoded).expect("eval"));
            }),
            ("encoded_cold", &mut || {
                let view = read_encoded_chunk(&bytes, LogicalType::Int64).expect("parse");
                std::hint::black_box(eval_filter_encoded(&leaf, &view).expect("eval"));
            }),
            ("encoded_hot", &mut || {
                std::hint::black_box(eval_filter_encoded(&leaf, &hot).expect("eval"));
            }),
        ];
        for (variant, body) in variants {
            let t = measure(WINDOW, body);
            cells.push(Cell {
                shape: shape.name,
                encoding,
                selectivity: sel,
                variant,
                mrows_per_s: t.rate(ROWS as f64 / 1e6),
                t,
            });
        }
    }
}

fn find<'a>(cells: &'a [Cell], shape: &str, sel: f64, variant: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.shape == shape && c.selectivity == sel && c.variant == variant)
        .expect("cell present")
}

/// Encoded-vs-decoded speedup of `variant` across the sweep.
fn variant_speedup(cells: &[Cell], shape: &str, variant: &str) -> f64 {
    speedup(SELECTIVITIES.iter().map(|&s| {
        (
            find(cells, shape, s, "decoded").mrows_per_s,
            find(cells, shape, s, variant).mrows_per_s,
        )
    }))
}

/// Decode-then-filter vs encoded-domain kernels over a selectivity sweep.
pub fn scan_throughput(env: &BenchEnv) -> String {
    let mut cells = Vec::new();
    for shape in SHAPES {
        run_shape(shape, &mut cells);
    }

    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"shape\": \"{}\", \"encoding\": \"{}\", \"selectivity\": {}, \
                 \"variant\": \"{}\", \"mrows_per_s\": {:.2}, \"iters\": {}, \"elapsed_ns\": {}}}",
                c.shape,
                c.encoding,
                c.selectivity,
                c.variant,
                c.mrows_per_s,
                c.t.iters,
                c.t.elapsed_ns
            )
        })
        .collect();
    let mut speedups = Vec::new();
    for shape in SHAPES {
        for variant in ["encoded_cold", "encoded_hot"] {
            speedups.push(format!(
                "\"{}_{variant}\": {:.2}",
                shape.name,
                variant_speedup(&cells, shape.name, variant)
            ));
        }
    }
    write_json(
        env,
        "scan_throughput.json",
        "scan_throughput",
        &[
            format!("\"rows\": {ROWS}"),
            json_array("cells", &json),
            json_object("speedups", &speedups),
        ],
    );

    let mut t = Table::new(&[
        "shape",
        "sel",
        "decoded Mrows/s",
        "cold Mrows/s",
        "hot Mrows/s",
        "hot speedup",
    ]);
    for shape in SHAPES {
        for &sel in SELECTIVITIES {
            let d = find(&cells, shape.name, sel, "decoded");
            let c = find(&cells, shape.name, sel, "encoded_cold");
            let h = find(&cells, shape.name, sel, "encoded_hot");
            t.row(vec![
                shape.name.to_string(),
                format!("{sel}"),
                format!("{:.0}", d.mrows_per_s),
                format!("{:.0}", c.mrows_per_s),
                format!("{:.0}", h.mrows_per_s),
                format!("{:.1}x", h.mrows_per_s / d.mrows_per_s),
            ]);
        }
    }
    format!(
        "Encoded-domain scan throughput (extension): decode-then-filter vs encoded kernels,\n\
         {ROWS} rows/chunk (also written to results/scan_throughput.json; calibrates\n\
         ENCODED_SCAN_SPEEDUP)\n{}",
        t.render()
    )
}
