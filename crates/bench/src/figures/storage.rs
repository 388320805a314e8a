//! Storage-side artifacts: dataset shapes, chunk splitting, packer
//! overheads and runtimes (Table 3, Figures 4a/4c/4d, 6, 10a, 12, 16).

use crate::harness::{BenchEnv, SystemKind};
use crate::report::{fmt_bytes, Table};
use fusion_core::config::EcConfig;
use fusion_core::layout::{fac, fixed, items_from_meta, oracle, padding, PackItem};
use fusion_format::footer::parse_footer;
use fusion_workloads::synth::{zipf_chunk_sizes, SynthConfig};
use fusion_workloads::Dataset;
use std::time::Duration;

/// A block size equivalent to the paper's absolute 100 MB blocks, scaled
/// by how much smaller our file is than the paper's.
fn paper_equiv_block(d: Dataset, our_len: u64) -> u64 {
    let b = (our_len as f64 * (100u64 << 20) as f64 / d.paper_bytes() as f64) as u64;
    b.max(1 << 10)
}

/// Pack items + object length for a dataset at the environment scale.
fn dataset_items(d: Dataset, env: &BenchEnv) -> (Vec<PackItem>, u64) {
    let file = d.file(env.scale);
    let meta = parse_footer(&file).expect("generated file is valid");
    let len = file.len() as u64;
    (items_from_meta(&meta, len), len)
}

/// Items tiling a virtual object from a plain size list.
fn items_from_sizes(sizes: &[u64]) -> Vec<PackItem> {
    let mut items = Vec::with_capacity(sizes.len());
    let mut pos = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        items.push(PackItem {
            chunk: i,
            start: pos,
            end: pos + s,
        });
        pos += s;
    }
    items
}

/// Table 3: dataset descriptions.
pub fn table3(env: &BenchEnv) -> String {
    let mut t = Table::new(&["dataset", "columns", "chunks", "row groups", "file size"]);
    for d in Dataset::ALL {
        let file = d.file(env.scale);
        let meta = parse_footer(&file).expect("valid file");
        t.row(vec![
            d.name().into(),
            meta.schema.len().to_string(),
            meta.num_chunks().to_string(),
            meta.row_groups.len().to_string(),
            fmt_bytes(file.len() as u64),
        ]);
    }
    format!(
        "Table 3: Parquet dataset description (scale {} of the paper's files)\n{}",
        env.scale,
        t.render()
    )
}

/// Figure 4a: percentage of column chunks split under fixed-size erasure
/// coding, for a sweep of (paper-equivalent) block sizes.
pub fn fig4a(env: &BenchEnv) -> String {
    // The paper sweeps 100 KB..100 MB against a 10 GB file; we keep the
    // block:file ratio.
    let labels = ["100KB", "1MB", "10MB", "100MB"];
    let paper_ratios = [1e-5, 1e-4, 1e-3, 1e-2];
    let mut t = Table::new(&["block size (paper-equiv)", "tpc-h lineitem", "taxi"]);
    let k = EcConfig::RS_9_6.k;
    let mut rows: Vec<Vec<String>> = vec![Vec::new(); labels.len()];
    for d in [Dataset::TpchLineitem, Dataset::Taxi] {
        let (items, len) = dataset_items(d, env);
        // The footer pseudo-chunk is not a column chunk; exclude it from
        // the split statistics.
        let chunk_items = &items[..items.len() - 1];
        for (i, &ratio) in paper_ratios.iter().enumerate() {
            let block = ((len as f64 * ratio) as u64).max(1 << 10);
            let layout = fixed::pack(len, block, k, &items);
            let split = fixed::count_split_chunks(&layout, chunk_items);
            rows[i].push(format!(
                "{:.1}%",
                100.0 * split as f64 / chunk_items.len() as f64
            ));
        }
    }
    for (i, label) in labels.iter().enumerate() {
        let mut cells = vec![label.to_string()];
        cells.append(&mut rows[i]);
        t.row(cells);
    }
    format!(
        "Figure 4a: % of column chunks split across RS(9,6) blocks vs block size\n{}",
        t.render()
    )
}

/// Figure 4c: CDF of normalized column chunk sizes per dataset.
pub fn fig4c(env: &BenchEnv) -> String {
    let mut t = Table::new(&["percentile", "tpc-h lineitem", "taxi", "recipeNLG", "uk pp"]);
    let percentiles = [10, 25, 50, 75, 90, 100];
    let mut cols: Vec<Vec<String>> = Vec::new();
    for d in Dataset::ALL {
        let file = d.file(env.scale);
        let meta = parse_footer(&file).expect("valid file");
        let mut sizes: Vec<u64> = meta.chunks().map(|(_, _, c)| c.len).collect();
        sizes.sort_unstable();
        let max = *sizes.last().expect("nonempty") as f64;
        cols.push(
            percentiles
                .iter()
                .map(|&p| {
                    let idx = ((p as f64 / 100.0) * sizes.len() as f64).ceil() as usize;
                    let v = sizes[idx.clamp(1, sizes.len()) - 1] as f64;
                    format!("{:.1}%", 100.0 * v / max)
                })
                .collect(),
        );
    }
    for (i, p) in percentiles.iter().enumerate() {
        t.row(vec![
            format!("p{p}"),
            cols[0][i].clone(),
            cols[1][i].clone(),
            cols[2][i].clone(),
            cols[3][i].clone(),
        ]);
    }
    format!(
        "Figure 4c: chunk size at each percentile, as % of the dataset's largest chunk\n{}",
        t.render()
    )
}

/// Figure 4d: storage overhead of the padding approach w.r.t. optimal.
pub fn fig4d(env: &BenchEnv) -> String {
    let mut t = Table::new(&["dataset", "RS(9,6)", "RS(14,10)"]);
    for d in Dataset::ALL {
        let (items, len) = dataset_items(d, env);
        let mut cells = vec![d.name().to_string()];
        for ec in [EcConfig::RS_9_6, EcConfig::RS_14_10] {
            let block = paper_equiv_block(d, len);
            let p = padding::pack(block, ec.k, &items);
            cells.push(format!("{:.1}%", 100.0 * p.layout.overhead_vs_optimal(ec)));
        }
        t.row(cells);
    }
    format!(
        "Figure 4d: storage overhead of the padding approach w.r.t. optimal\n{}",
        t.render()
    )
}

/// Figure 6: average compression ratio per lineitem column.
pub fn fig6(env: &BenchEnv) -> String {
    let file = env.lineitem_file();
    let meta = parse_footer(file).expect("valid file");
    let schema = &meta.schema;
    let mut t = Table::new(&["column id", "name", "avg compression ratio"]);
    let mut ratios = Vec::new();
    for c in 0..schema.len() {
        let mut sum = 0.0;
        for rg in &meta.row_groups {
            sum += rg.chunks[c].compressibility();
        }
        let avg = sum / meta.row_groups.len() as f64;
        ratios.push(avg);
        t.row(vec![
            c.to_string(),
            schema.fields()[c].name.clone(),
            format!("{avg:.1}"),
        ]);
    }
    let mut sorted = ratios.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = sorted[sorted.len() / 2];
    let max = sorted.last().expect("nonempty");
    format!(
        "Figure 6: avg compression ratio of TPC-H lineitem column chunks\n{}\nmedian {:.1}, max {:.1} (paper: median 9.3, max 63.5)\n",
        t.render(),
        median,
        max
    )
}

/// Figure 10a: runtime of the exact ILP solver as chunk count grows.
pub fn fig10a(_env: &BenchEnv) -> String {
    let deadline = Duration::from_secs(3);
    let mut t = Table::new(&[
        "num chunks",
        "oracle runtime",
        "proven optimal",
        "nodes explored",
        "fac runtime",
    ]);
    for n in [5usize, 10, 15, 20, 25, 30, 35] {
        let sizes = zipf_chunk_sizes(SynthConfig {
            num_chunks: n,
            theta: 0.0,
            seed: 0xF16_10A + n as u64,
            ..Default::default()
        });
        let items = items_from_sizes(&sizes);
        let t0 = std::time::Instant::now();
        let pack = oracle::pack(6, &items, deadline);
        let oracle_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = fac::pack(6, &items);
        let fac_time = t1.elapsed();
        t.row(vec![
            n.to_string(),
            if pack.proven_optimal {
                format!("{:.3?}", oracle_time)
            } else {
                format!(">{:.0?} (deadline)", deadline)
            },
            pack.proven_optimal.to_string(),
            pack.nodes_explored.to_string(),
            format!("{:.3?}", fac_time),
        ]);
    }
    format!(
        "Figure 10a: exact-solver runtime vs number of chunks (paper: >3h at 35 chunks with Gurobi)\n{}",
        t.render()
    )
}

/// Figure 12: average number of nodes a lineitem chunk is stored on in
/// the baseline, plus average chunk size.
pub fn fig12(env: &BenchEnv) -> String {
    let store = env.lineitem_store(SystemKind::Baseline);
    let meta = store.object("lineitem_0").expect("copy 0 exists");
    let fm = meta.file_meta.as_ref().expect("analytics file");
    let cols = fm.schema.len();
    let rgs = fm.row_groups.len();
    let mut t = Table::new(&["column id", "name", "avg nodes per chunk", "avg chunk size"]);
    for c in 0..cols {
        let mut nodes_sum = 0usize;
        let mut size_sum = 0u64;
        for rg in 0..rgs {
            let ordinal = meta.chunk_ordinal(rg, c).expect("in range");
            nodes_sum += meta.chunk_nodes(ordinal).len();
            size_sum += fm.chunk(rg, c).expect("in range").len;
        }
        t.row(vec![
            c.to_string(),
            fm.schema.fields()[c].name.clone(),
            format!("{:.1}", nodes_sum as f64 / rgs as f64),
            fmt_bytes(size_sum / rgs as u64),
        ]);
    }
    format!(
        "Figure 12: avg nodes per chunk under the baseline's fixed blocks (block = file/100, as in the paper's 100MB:10GB)\n{}",
        t.render()
    )
}

/// Figure 16a: FAC storage overhead vs chunk count for three Zipf skews.
pub fn fig16a(env: &BenchEnv) -> String {
    let runs = if env.queries >= 1000 { 50 } else { 20 };
    let ec = EcConfig::RS_9_6;
    let mut t = Table::new(&["num chunks", "zipf 0", "zipf 0.5", "zipf 0.99"]);
    for n in [10usize, 50, 100, 200, 500, 1000] {
        let mut cells = vec![n.to_string()];
        for theta in [0.0, 0.5, 0.99] {
            let mut sum = 0.0;
            for run in 0..runs {
                let sizes = zipf_chunk_sizes(SynthConfig {
                    num_chunks: n,
                    theta,
                    seed: 0x16A + (run as u64) * 7919 + n as u64,
                    ..Default::default()
                });
                let items = items_from_sizes(&sizes);
                let layout = fac::pack(ec.k, &items);
                sum += layout.overhead_vs_optimal(ec);
            }
            cells.push(format!("{:.2}%", 100.0 * sum / runs as f64));
        }
        t.row(cells);
    }
    format!(
        "Figure 16a: FAC storage overhead w.r.t. optimal, avg of {runs} runs, RS(9,6)\n{}",
        t.render()
    )
}

/// Figures 16b + 16c: storage and runtime overhead of oracle / padding /
/// FAC on the four real-world files.
pub fn fig16bc(env: &BenchEnv) -> String {
    let ec = EcConfig::RS_9_6;
    let deadline = Duration::from_secs(2);
    let mut storage = Table::new(&["dataset", "oracle", "padding", "fac"]);
    let mut runtime = Table::new(&["dataset", "oracle", "padding", "fac", "put latency (sim)"]);
    for d in Dataset::ALL {
        let file = d.file(env.scale);
        let meta = parse_footer(&file).expect("valid");
        let items = items_from_meta(&meta, file.len() as u64);
        let block = paper_equiv_block(d, file.len() as u64);

        let t0 = std::time::Instant::now();
        let o = oracle::pack(ec.k, &items, deadline);
        let o_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let p = padding::pack(block, ec.k, &items);
        let p_time = t1.elapsed();
        let t2 = std::time::Instant::now();
        let f = fac::pack(ec.k, &items);
        let f_time = t2.elapsed();

        // Simulated put latency (FAC store, one copy) as the denominator
        // of the runtime-overhead percentages.
        let mut store = fusion_core::store::Store::new(BenchEnv::store_config(
            SystemKind::Fusion,
            file.len(),
            d.paper_bytes(),
        ))
        .expect("valid config");
        let put = store.put("obj", file.clone()).expect("put succeeds");
        let put_secs = store.simulate_solo(&put.workflow).as_secs_f64();

        let oracle_label = if o.proven_optimal {
            format!("{:.2}%", 100.0 * o.layout.overhead_vs_optimal(ec))
        } else {
            format!(
                "{:.2}% (deadline)",
                100.0 * o.layout.overhead_vs_optimal(ec)
            )
        };
        storage.row(vec![
            d.name().into(),
            oracle_label,
            format!("{:.1}%", 100.0 * p.layout.overhead_vs_optimal(ec)),
            format!("{:.2}%", 100.0 * f.overhead_vs_optimal(ec)),
        ]);
        let pct = |t: std::time::Duration| format!("{:.4}%", 100.0 * t.as_secs_f64() / put_secs);
        runtime.row(vec![
            d.name().into(),
            pct(o_time),
            pct(p_time),
            pct(f_time),
            format!("{:.3}s", put_secs),
        ]);
    }
    format!(
        "Figure 16b: storage overhead w.r.t. optimal, RS(9,6)\n{}\nFigure 16c: packer runtime as % of Put latency\n{}",
        storage.render(),
        runtime.render()
    )
}
