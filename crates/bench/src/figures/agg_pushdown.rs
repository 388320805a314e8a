//! Encoded-domain GROUP BY pushdown (tentpole extension): wire bytes and
//! solo latency of grouped aggregation, fusion pushdown vs the
//! reassembling baseline, swept across group-key cardinality and filter
//! selectivity.
//!
//! With pushdown, each participating node reduces its matched rows to
//! `(group_key, PartialAgg)` states — dictionary codes index the
//! accumulators, RLE runs fold whole spans — so the wire carries a few
//! dozen bytes per group instead of rows or chunks. The win is largest at
//! low cardinality, where a handful of states summarize any number of
//! matched rows.
//!
//! Besides the rendered table, it writes machine-readable JSON to
//! `results/agg_pushdown.json`.

use crate::harness::{BenchEnv, SystemKind};
use crate::report::{json_array, write_json, Table as Report};
use fusion_core::store::Store;
use fusion_format::prelude::*;

/// Group-key cardinalities swept (dictionary-encodable range).
const CARDINALITIES: &[usize] = &[4, 64, 1024];
/// Filter selectivities swept (fraction of rows that match).
const SELECTIVITIES: &[f64] = &[0.01, 0.1, 0.5, 1.0];

struct Cell {
    cardinality: usize,
    selectivity: f64,
    groups: usize,
    fusion_bytes: u64,
    baseline_bytes: u64,
    fusion_ns: u64,
    baseline_ns: u64,
}

/// A grouped-workload table: a low-cardinality key with runs (the writer
/// dictionary/RLE-encodes it), a float measure, and a uniform filter
/// column whose threshold dials selectivity exactly.
fn grouped_table(rows: usize, cardinality: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("g", LogicalType::Int64),
        Field::new("v", LogicalType::Float64),
        Field::new("u", LogicalType::Int64),
    ]);
    let run = (rows / cardinality.max(1)).max(1);
    Table::new(
        schema,
        vec![
            ColumnData::Int64(
                (0..rows)
                    .map(|i| ((i / run) % cardinality) as i64)
                    .collect(),
            ),
            ColumnData::Float64(
                (0..rows)
                    .map(|i| (i % 7919) as f64 * 0.75 + 0.125)
                    .collect(),
            ),
            ColumnData::Int64(
                (0..rows as i64)
                    .map(|i| i.wrapping_mul(48_271).rem_euclid(1_000_000))
                    .collect(),
            ),
        ],
    )
    .expect("valid table")
}

fn build_store(kind: SystemKind, file: &[u8], pushdown: bool) -> Store {
    let mut cfg = BenchEnv::store_config(kind, file.len(), 10 << 30);
    // The default bench block size bottoms out at 16 KiB, which splits
    // this miniature file's column chunks across blocks and forces the
    // coordinator fallback. Keep the paper's chunk ≪ block proportion
    // instead: a few blocks per file, each holding whole chunks.
    cfg = cfg.with_block_size((file.len() as u64 / 3).max(16 << 10));
    cfg.aggregate_pushdown = pushdown;
    let mut s = Store::new(cfg).expect("valid store config");
    s.put("t", file.to_vec()).expect("put succeeds");
    s
}

/// Grouped-aggregation wire bytes and latency, fusion vs baseline, over
/// a cardinality × selectivity sweep.
pub fn agg_pushdown(env: &BenchEnv) -> String {
    let rows = ((40_000.0 * env.scale) as usize).max(4_000);
    let mut cells = Vec::new();

    for &cardinality in CARDINALITIES {
        let table = grouped_table(rows, cardinality);
        let file = write_table(
            &table,
            WriteOptions {
                rows_per_group: (rows / 3).max(500),
            },
        )
        .expect("valid table");
        let fusion = build_store(SystemKind::Fusion, &file, true);
        let baseline = build_store(SystemKind::Baseline, &file, false);

        for &sel in SELECTIVITIES {
            let threshold = (1_000_000.0 * sel) as i64;
            let sql = format!(
                "SELECT g, count(*), sum(v), avg(v) FROM t WHERE u < {threshold} GROUP BY g"
            );
            let f = fusion.query(&sql).expect("fusion grouped query");
            let b = baseline.query(&sql).expect("baseline grouped query");
            assert_eq!(
                f.result, b.result,
                "executors disagree at cardinality {cardinality}, selectivity {sel}"
            );
            cells.push(Cell {
                cardinality,
                selectivity: sel,
                groups: f.result.columns.first().map_or(0, |c| c.1.len()),
                fusion_bytes: f.net_bytes,
                baseline_bytes: b.net_bytes,
                fusion_ns: fusion.simulate_solo(&f.workflow).0,
                baseline_ns: baseline.simulate_solo(&b.workflow).0,
            });
        }
    }

    let json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"cardinality\": {}, \"selectivity\": {}, \"groups\": {}, \
                 \"fusion_bytes\": {}, \"baseline_bytes\": {}, \"wire_cut\": {:.1}, \
                 \"fusion_ns\": {}, \"baseline_ns\": {}}}",
                c.cardinality,
                c.selectivity,
                c.groups,
                c.fusion_bytes,
                c.baseline_bytes,
                c.baseline_bytes as f64 / c.fusion_bytes.max(1) as f64,
                c.fusion_ns,
                c.baseline_ns,
            )
        })
        .collect();
    write_json(
        env,
        "agg_pushdown.json",
        "agg_pushdown",
        &[format!("\"rows\": {rows}"), json_array("cells", &json)],
    );

    let mut t = Report::new(&[
        "cardinality",
        "sel",
        "groups",
        "fusion B",
        "baseline B",
        "wire cut",
        "fusion ms",
        "baseline ms",
    ]);
    for c in &cells {
        t.row(vec![
            c.cardinality.to_string(),
            format!("{}", c.selectivity),
            c.groups.to_string(),
            c.fusion_bytes.to_string(),
            c.baseline_bytes.to_string(),
            format!(
                "{:.1}x",
                c.baseline_bytes as f64 / c.fusion_bytes.max(1) as f64
            ),
            format!("{:.2}", c.fusion_ns as f64 / 1e6),
            format!("{:.2}", c.baseline_ns as f64 / 1e6),
        ]);
    }
    format!(
        "GROUP BY pushdown (extension): keyed partial-aggregate states vs baseline\n\
         reassembly, {rows} rows (also written to results/agg_pushdown.json)\n{}",
        t.render()
    )
}
