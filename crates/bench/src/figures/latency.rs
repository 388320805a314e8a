//! Latency-side artifacts: query microbenchmarks, sweeps, real-world
//! queries (Table 4, Figures 4b, 10b, 13, 14, 15).

use crate::harness::{BenchEnv, SystemKind};
use crate::microbench::{microbench_on, microbench_query, microbench_sql, Pair};
use crate::report::{fmt_bytes, fmt_cut, Table};
use fusion_cluster::engine::{Breakdown, Engine, Job};
use fusion_cluster::time::Nanos;
use fusion_core::store::Store;
use fusion_workloads::taxi::{q3, q4, taxi_file, TaxiConfig};
use fusion_workloads::tpch::{q1, q2};

/// The paper's default microbenchmark selectivity.
const DEFAULT_SEL: f64 = 0.01;

fn pct(part: Nanos, total: Nanos) -> String {
    if total == Nanos::ZERO {
        return "0%".into();
    }
    format!("{:.0}%", 100.0 * part.0 as f64 / total.0 as f64)
}

/// Mean latency breakdowns, one labelled row each; `first` heads the
/// label column.
fn breakdown_table(first: &str, rows: &[(String, Breakdown)]) -> String {
    let mut t = Table::new(&[
        first,
        "disk read",
        "processing",
        "network",
        "other",
        "mean total",
    ]);
    for (label, b) in rows {
        let total = b.total();
        t.row(vec![
            label.clone(),
            pct(b.disk, total),
            pct(b.processing, total),
            pct(b.network, total),
            pct(b.other, total),
            format!("{total}"),
        ]);
    }
    t.render()
}

/// Figure 4b: latency breakdown of the microbenchmark on the baseline.
pub fn fig4b(env: &BenchEnv) -> String {
    // The motivating measurement: 1%-selectivity query over lineitem on
    // the chunk-splitting baseline; large, poorly compressed column
    // (extendedprice, id 5).
    let r = microbench_query(env, SystemKind::Baseline, 5, DEFAULT_SEL);
    format!(
        "Figure 4b: latency breakdown of a 1%-selectivity query on the baseline (paper: ~50% network)\n{}",
        breakdown_table("system", &[("baseline".into(), r.breakdown)])
    )
}

/// Table 4: the real-world queries and their measured characteristics.
pub fn table4(env: &BenchEnv) -> String {
    let mut t = Table::new(&["query", "dataset", "filters", "projections", "selectivity"]);
    // TPC-H queries on the cached Fusion store, taxi queries on a fresh
    // one (smaller copies for speed).
    let lineitem = env.lineitem_store(SystemKind::Fusion);
    let [taxi] = taxi_stores(env, [SystemKind::Fusion]);
    // One fn-pointer type for the four query builders.
    let q1: fn(&str) -> String = q1;
    let queries = [
        ("Q1 (projection heavy)", "tpc-h", lineitem, "lineitem_0", q1),
        ("Q2 (filter heavy)", "tpc-h", lineitem, "lineitem_0", q2),
        ("Q3 (high selectivity)", "taxi", &taxi, "taxi_0", q3),
        ("Q4 (low selectivity)", "taxi", &taxi, "taxi_0", q4),
    ];
    for (name, dataset, store, object, sql_for) in queries {
        let sql = sql_for(object);
        let out = store.query_as(object, &sql).expect("query runs");
        let q = fusion_sql::parser::parse(&sql).expect("valid sql");
        let meta = store.object(object).expect("copy 0 exists");
        let schema = &meta.file_meta.as_ref().expect("analytics file").schema;
        let plan = fusion_sql::plan::plan(&q, schema).expect("valid plan");
        t.row(vec![
            name.into(),
            dataset.into(),
            plan.filters.len().to_string(),
            plan.projections.len().to_string(),
            format!("{:.1}%", 100.0 * out.selectivity),
        ]);
    }
    format!(
        "Table 4: real-world SQL query description (measured)\n{}",
        t.render()
    )
}

/// One store per `kinds` entry holding copies of the taxi file (smaller
/// copies than lineitem's, for speed).
fn taxi_stores<const N: usize>(env: &BenchEnv, kinds: [SystemKind; N]) -> [Store; N] {
    let file = taxi_file(TaxiConfig {
        rows_per_group: ((25_000.0 * env.scale) as usize).max(500),
        ..Default::default()
    });
    let paper_len = fusion_workloads::Dataset::Taxi.paper_bytes();
    kinds.map(|kind| env.build_store_scaled(kind, "taxi", &file, paper_len))
}

/// Figure 10b: pushdown trade-off — p50 improvement over a
/// (selectivity × column) grid for columns c5, c0, c4, c7.
pub fn fig10b(env: &BenchEnv) -> String {
    let cols = [5usize, 0, 4, 7];
    let sels = [0.01, 0.10, 0.50, 1.00];
    let mut t = Table::new(&["selectivity", "c5", "c0", "c4", "c7"]);
    // Cache per-column results across selectivity rows.
    let mut grid: Vec<Vec<String>> = vec![Vec::new(); sels.len()];
    for &c in &cols {
        for (si, &sel) in sels.iter().enumerate() {
            let [p50, _] = Pair::microbench(env, c, sel).cuts();
            grid[si].push(p50);
        }
    }
    for (si, &sel) in sels.iter().enumerate() {
        let mut cells = vec![format!("{:.0}%", sel * 100.0)];
        cells.append(&mut grid[si]);
        t.row(cells);
    }
    format!(
        "Figure 10b: p50 latency improvement of Fusion vs chunk-splitting baseline\n{}",
        t.render()
    )
}

/// Figure 13: per-column p50/p99 latency reduction at 1% selectivity,
/// plus the latency breakdowns of columns 5 and 9 (13c/13d).
pub fn fig13(env: &BenchEnv) -> String {
    let schema = env.lineitem_table().schema().clone();
    let mut t = Table::new(&[
        "column",
        "name",
        "sel (achieved)",
        "p50 reduction",
        "p99 reduction",
    ]);
    let pairs: Vec<Pair> = (0..schema.len())
        .map(|c| Pair::microbench(env, c, DEFAULT_SEL))
        .collect();
    for (c, pair) in pairs.iter().enumerate() {
        let mut row = vec![
            c.to_string(),
            schema.fields()[c].name.clone(),
            format!("{:.2}%", 100.0 * pair.fusion.achieved_selectivity),
        ];
        row.extend(pair.cuts());
        t.row(row);
    }
    let breakdowns: Vec<(String, Breakdown)> = [5, 9]
        .into_iter()
        .flat_map(|c| {
            [
                (format!("col {c} / fusion"), pairs[c].fusion.breakdown),
                (format!("col {c} / baseline"), pairs[c].baseline.breakdown),
            ]
        })
        .collect();
    format!(
        "Figure 13a/b: per-column latency reduction, 1% selectivity (paper: up to 65% p50 / 81% p99 on cols 0,1,2,5,15; modest on 3,4,9,10,11)\n{}\nFigure 13c/d: latency breakdown for columns 5 and 9 (paper: baseline col 5 ≈57% network; col 9 ≤3% network)\n{}",
        t.render(),
        breakdown_table("case", &breakdowns)
    )
}

/// Figure 14a/b: selectivity sweep for columns 5 and 9.
pub fn fig14ab(env: &BenchEnv) -> String {
    let sels = [0.001, 0.01, 0.05, 0.10, 0.20, 0.50, 0.75, 1.0];
    let mut t = Table::new(&[
        "selectivity",
        "c5 p50 red",
        "c5 p99 red",
        "c9 p50 red",
        "c9 p99 red",
    ]);
    for &sel in &sels {
        let mut cells = vec![format!("{:.1}%", sel * 100.0)];
        for c in [5, 9] {
            cells.extend(Pair::microbench(env, c, sel).cuts());
        }
        t.row(cells);
    }
    format!(
        "Figure 14a/b: impact of query selectivity (paper: gains shrink as selectivity rises; col 9 modest throughout)\n{}",
        t.render()
    )
}

/// Figure 14c: network bandwidth sweep for column 5.
pub fn fig14c(env: &BenchEnv) -> String {
    let mut t = Table::new(&["NIC bandwidth", "p50 reduction", "p99 reduction"]);
    let file = env.lineitem_file();
    for gbps in [10.0, 25.0, 40.0, 100.0] {
        let mk = |kind: SystemKind| -> Store {
            let mut cfg = BenchEnv::store_config(kind, file.len(), 10 << 30);
            // Set the shaped NIC rate first, then re-apply the data-scale
            // factor (with_nic_gbps sets an absolute, unscaled rate).
            let factor = (10u64 << 30) as f64 / file.len() as f64;
            cfg.cluster.cost = fusion_cluster::spec::CostModel::default()
                .with_nic_gbps(gbps)
                .scaled_down(factor);
            env.store_with(cfg, "lineitem", file)
        };
        let (fusion, baseline) = (mk(SystemKind::Fusion), mk(SystemKind::Baseline));
        let pair = Pair::on(env, &fusion, &baseline, "lineitem", |obj| {
            microbench_sql(env, 5, DEFAULT_SEL, obj)
        });
        let mut row = vec![format!("{gbps:.0} Gbps")];
        row.extend(pair.cuts());
        t.row(row);
    }
    format!(
        "Figure 14c: bandwidth sweep, column 5 at 1% selectivity (paper: bigger gains on slower networks)\n{}",
        t.render()
    )
}

/// Figure 14d: CPU utilization under a fixed open-loop load of 10 qps.
pub fn fig14d(env: &BenchEnv) -> String {
    let cols = [0usize, 5, 9, 15];
    let mut t = Table::new(&["column", "fusion cpu util", "baseline cpu util"]);
    for &c in &cols {
        let mut cells = vec![c.to_string()];
        for kind in [SystemKind::Fusion, SystemKind::Baseline] {
            let store = env.lineitem_store(kind);
            let outputs = env.outputs_per_copy(store, "lineitem", |obj| {
                microbench_sql(env, c, DEFAULT_SEL, obj)
            });
            // Open loop: 10 queries per second of virtual time.
            let n = env.queries.min(300);
            let jobs: Vec<Job> = (0..n)
                .map(|i| Job {
                    client: i,
                    seq: 0,
                    tenant: 0,
                    arrival: Nanos::from_millis(100 * i as u64),
                    workflow: outputs[i % outputs.len()].workflow.clone(),
                })
                .collect();
            let spec = store.config().cluster.clone();
            let load_window = Nanos::from_millis(100 * n as u64);
            let report = Engine::new(spec.clone()).run_jobs(jobs);
            // Normalize by the fixed offered-load window (not the
            // makespan) so a system that drains its queue faster is not
            // penalized with a smaller denominator.
            let busy: u64 = (0..spec.nodes)
                .map(|nd| {
                    report
                        .resource_busy
                        .get(&fusion_cluster::engine::ResourceKey::Cpu(nd))
                        .copied()
                        .unwrap_or(Nanos::ZERO)
                        .0
                })
                .sum();
            let avail = load_window.0 as f64 * (spec.nodes * spec.cores_per_node) as f64;
            cells.push(format!("{:.2}%", 100.0 * busy as f64 / avail));
        }
        t.row(cells);
    }
    format!(
        "Figure 14d: avg CPU utilization per node at 10 qps (paper: Fusion uses less CPU at equal throughput)\n{}",
        t.render()
    )
}

/// Figure 15: real-world queries Q1–Q4 — latency reduction and network
/// traffic.
pub fn fig15(env: &BenchEnv) -> String {
    let mut lat = Table::new(&["query", "p50 reduction", "p99 reduction"]);
    let mut net = Table::new(&[
        "query",
        "fusion traffic/query",
        "baseline traffic/query",
        "ratio",
    ]);

    // TPC-H Q1/Q2 on the cached stores, taxi Q3/Q4 on fresh ones.
    let fusion = env.lineitem_store(SystemKind::Fusion);
    let baseline = env.lineitem_store(SystemKind::Baseline);
    let mut pairs = vec![
        ("Q1", Pair::on(env, fusion, baseline, "lineitem", q1)),
        ("Q2", Pair::on(env, fusion, baseline, "lineitem", q2)),
    ];
    let [tf, tb] = taxi_stores(env, [SystemKind::Fusion, SystemKind::Baseline]);
    pairs.push(("Q3", Pair::on(env, &tf, &tb, "taxi", q3)));
    pairs.push(("Q4", Pair::on(env, &tf, &tb, "taxi", q4)));
    for (label, pair) in &pairs {
        let mut row = vec![label.to_string()];
        row.extend(pair.cuts());
        lat.row(row);
        let (fb, bb) = (pair.fusion.net_bytes, pair.baseline.net_bytes);
        net.row(vec![
            label.to_string(),
            fmt_bytes(fb),
            fmt_bytes(bb),
            format!("{:.1}x", bb as f64 / fb.max(1) as f64),
        ]);
    }

    format!(
        "Figure 15a: real-world query latency reduction (paper: up to 48% p50 / 40% p99 on Q1-Q2; up to 32%/48% on Q3-Q4)\n{}\nFigure 15b: network traffic (paper: up to 8.9x lower for Fusion)\n{}",
        lat.render(),
        net.render()
    )
}

/// Diagnostic (not a paper artifact): full detail for one column of the
/// microbenchmark, used to calibrate the cost model.
pub fn debug_column(env: &BenchEnv, column: usize) -> String {
    let mut out = String::new();
    for kind in [SystemKind::Fusion, SystemKind::Baseline] {
        let store = env.lineitem_store(kind);
        let outputs = env.outputs_per_copy(store, "lineitem", |obj| {
            microbench_sql(env, column, DEFAULT_SEL, obj)
        });
        let solo = store.simulate_solo(&outputs[0].workflow);
        let r = microbench_on(env, store, "lineitem", |obj| {
            microbench_sql(env, column, DEFAULT_SEL, obj)
        });
        out.push_str(&format!(
            "{}: solo={} p50={} p99={} net/query={} sel={:.3}% steps={} decisions={:?}\n  breakdown: disk={} proc={} net={} other={}\n",
            kind.name(),
            solo,
            r.latency.p50,
            r.latency.p99,
            fmt_bytes(r.net_bytes),
            100.0 * r.achieved_selectivity,
            outputs[0].workflow.len(),
            outputs[0]
                .decisions
                .iter()
                .take(3)
                .map(|d| (d.row_group, d.pushed_down, (d.cost_product * 100.0).round() / 100.0))
                .collect::<Vec<_>>(),
            r.breakdown.disk,
            r.breakdown.processing,
            r.breakdown.network,
            r.breakdown.other,
        ));
    }
    out
}

/// Ablation (DESIGN.md): adaptive pushdown vs always-on pushdown vs the
/// baseline, on a highly compressible column where unconditional pushdown
/// backfires at high selectivity — the motivation for the Cost Equation
/// (paper §4.3 and Figure 10b).
pub fn ablation_adaptive(env: &BenchEnv) -> String {
    // quantity (col 4): compressibility ~10, so the Cost Equation flips
    // within the sweep. Aggregate-form queries keep the client reply tiny,
    // isolating the node->coordinator projection transfer the two policies
    // disagree about.
    let file = env.lineitem_file().to_vec();
    let adaptive = env.lineitem_store(SystemKind::Fusion);
    let always = env.build_store(SystemKind::AlwaysPushdown, "lineitem", &file);
    let baseline = env.lineitem_store(SystemKind::Baseline);
    let mut t = Table::new(&[
        "selectivity",
        "adaptive p50",
        "always p50",
        "baseline p50",
        "adaptive vs always",
    ]);
    for cutoff in [2i64, 10, 25, 40, 50] {
        let run = |store: &Store| {
            microbench_on(env, store, "lineitem", |o| {
                format!("SELECT sum(quantity) FROM {o} WHERE quantity <= {cutoff}")
            })
        };
        let (a, w, b) = (run(adaptive), run(&always), run(baseline));
        t.row(vec![
            format!("{:.0}%", 100.0 * a.achieved_selectivity),
            a.latency.p50.to_string(),
            w.latency.p50.to_string(),
            b.latency.p50.to_string(),
            fmt_cut(w.latency.p50, a.latency.p50),
        ]);
    }
    format!(
        "Ablation: adaptive vs always-on projection pushdown (col 4, compressibility ~10)\n{}",
        t.render()
    )
}

/// Extension: aggregate pushdown (the paper's §5 future work) on
/// aggregate-only queries — partial aggregates from the nodes instead of
/// selected values.
pub fn ext_aggregate_pushdown(env: &BenchEnv) -> String {
    let file = env.lineitem_file();
    let cfg = BenchEnv::store_config(SystemKind::Fusion, file.len(), 10 << 30)
        .with_aggregate_pushdown(true);
    let with = env.store_with(cfg, "lineitem", file);
    let without = env.lineitem_store(SystemKind::Fusion);
    let queries = [
        (
            "sum(extendedprice), 20% sel",
            "SELECT sum(extendedprice) FROM {} WHERE quantity <= 10",
        ),
        (
            "avg(discount), 50% sel",
            "SELECT avg(discount), count(*) FROM {} WHERE quantity <= 25",
        ),
        (
            "min/max(shipdate), full scan",
            "SELECT min(shipdate), max(shipdate) FROM {}",
        ),
    ];
    let mut t = Table::new(&[
        "query",
        "agg-pd p50",
        "no-agg-pd p50",
        "p50 reduction",
        "traffic ratio",
    ]);
    for (label, tmpl) in queries {
        let w = microbench_on(env, &with, "lineitem", |o| tmpl.replace("{}", o));
        let n = microbench_on(env, without, "lineitem", |o| tmpl.replace("{}", o));
        t.row(vec![
            label.into(),
            w.latency.p50.to_string(),
            n.latency.p50.to_string(),
            fmt_cut(n.latency.p50, w.latency.p50),
            format!(
                "{:.1}x",
                n.net_bytes_total as f64 / w.net_bytes_total.max(1) as f64
            ),
        ]);
    }
    format!(
        "Extension: aggregate pushdown (paper §5 future work) on aggregate-only queries\n{}",
        t.render()
    )
}
