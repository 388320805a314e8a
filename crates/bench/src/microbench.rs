//! The query cell every latency experiment runs (§6): one live query
//! per object copy, replayed by closed-loop clients, summarized as
//! p50/p99, a mean breakdown, network bytes and selectivity. The
//! paper's microbenchmark is one such cell: `SELECT column FROM lineitem
//! WHERE column < value`, with the cutoff chosen per column to hit a
//! target selectivity (default 1%, as in production traces).

use crate::harness::{summarize, BenchEnv, LatencySummary, SystemKind};
use crate::report::fmt_cut;
use fusion_cluster::engine::Breakdown;
use fusion_cluster::time::Nanos;
use fusion_core::store::Store;
use fusion_format::schema::LogicalType;
use fusion_format::table::Table;
use fusion_format::value::ColumnData;
use fusion_sql::date::format_date;

/// Outcome of one query cell (one query template × one store).
#[derive(Debug, Clone)]
pub struct MicrobenchResult {
    /// Selectivity the first copy's query achieved (discrete domains
    /// cannot hit an arbitrary target exactly).
    pub achieved_selectivity: f64,
    /// Latency percentiles over the replayed queries.
    pub latency: LatencySummary,
    /// Mean critical-path breakdown.
    pub breakdown: Breakdown,
    /// Network bytes per query: the integer mean over the copies.
    pub net_bytes: u64,
    /// Network bytes summed over the copies' queries.
    pub net_bytes_total: u64,
}

/// One query cell measured on Fusion and on the baseline.
#[derive(Debug, Clone)]
pub(crate) struct Pair {
    /// The cell on the Fusion store.
    pub fusion: MicrobenchResult,
    /// The cell on the baseline store.
    pub baseline: MicrobenchResult,
}

impl Pair {
    /// The microbenchmark cell for `column` at `target_selectivity` on
    /// the cached Fusion store, then on the cached baseline store.
    pub(crate) fn microbench(env: &BenchEnv, column: usize, target_selectivity: f64) -> Pair {
        Pair {
            fusion: microbench_query(env, SystemKind::Fusion, column, target_selectivity),
            baseline: microbench_query(env, SystemKind::Baseline, column, target_selectivity),
        }
    }

    /// The query cell of `sql_for` over the copies of `name` on `fusion`,
    /// then on `baseline`.
    pub(crate) fn on(
        env: &BenchEnv,
        fusion: &Store,
        baseline: &Store,
        name: &str,
        sql_for: impl Fn(&str) -> String,
    ) -> Pair {
        Pair {
            fusion: microbench_on(env, fusion, name, &sql_for),
            baseline: microbench_on(env, baseline, name, &sql_for),
        }
    }

    /// Fusion's p50 and p99 latency cuts against the baseline, as
    /// rendered in the figures (`+42%`).
    pub(crate) fn cuts(&self) -> [String; 2] {
        let (f, b) = (self.fusion.latency, self.baseline.latency);
        [fmt_cut(b.p50, f.p50), fmt_cut(b.p99, f.p99)]
    }
}

/// Renders a SQL literal for a cutoff value of the given column type.
fn literal(ty: LogicalType, v: &fusion_format::value::Value) -> String {
    use fusion_format::value::Value;
    match (ty, v) {
        (LogicalType::Date, Value::Int(days)) => format!("'{}'", format_date(*days)),
        (_, Value::Str(s)) => format!("'{}'", s.replace('\'', "''")),
        (_, Value::Int(x)) => x.to_string(),
        (_, Value::Float(x)) => format!("{x:?}"),
    }
}

/// Cutoff value achieving (approximately) `target` selectivity for
/// `col < cutoff`. On discrete domains where the target quantile equals
/// the minimum (selectivity would be 0), the cutoff is bumped to the next
/// distinct value so the query matches the *smallest achievable nonzero*
/// selectivity — the closest realizable analogue of the paper's target.
pub fn cutoff_for(table: &Table, column: usize, target: f64) -> fusion_format::value::Value {
    use fusion_format::value::Value;
    let col = table.column(column);
    let rank = ((col.len() as f64) * target) as usize;
    match col {
        ColumnData::Int64(v) => {
            let mut s = v.clone();
            s.sort_unstable();
            let mut c = s[rank.min(s.len() - 1)];
            if c == s[0] {
                c = s.iter().copied().find(|&x| x > c).unwrap_or(c + 1);
            }
            Value::Int(c)
        }
        ColumnData::Float64(v) => {
            let mut s = v.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in workloads"));
            let mut c = s[rank.min(s.len() - 1)];
            if c == s[0] {
                c = s.iter().copied().find(|&x| x > c).unwrap_or(c + 1.0);
            }
            Value::Float(c)
        }
        ColumnData::Utf8(v) => {
            let mut s = v.clone();
            s.sort();
            let mut c = s[rank.min(s.len() - 1)].clone();
            if c == s[0] {
                if let Some(next) = s.iter().find(|x| **x > c) {
                    c = next.clone();
                }
            }
            Value::Str(c)
        }
    }
}

/// Builds the microbenchmark SQL for `column` at `target` selectivity.
pub fn microbench_sql(env: &BenchEnv, column: usize, target: f64, object: &str) -> String {
    let table = env.lineitem_table();
    let name = &table.schema().fields()[column].name;
    let ty = table.schema().fields()[column].ty;
    let cutoff = cutoff_for(table, column, target);
    format!(
        "SELECT {name} FROM {object} WHERE {name} < {}",
        literal(ty, &cutoff)
    )
}

/// Runs the microbenchmark for one column on one (cached) system store.
pub fn microbench_query(
    env: &BenchEnv,
    kind: SystemKind,
    column: usize,
    target_selectivity: f64,
) -> MicrobenchResult {
    microbench_on(env, env.lineitem_store(kind), "lineitem", |obj| {
        microbench_sql(env, column, target_selectivity, obj)
    })
}

/// Runs one query cell on `store`: one live query per copy of `name`
/// (`sql_for` maps a copy's object name to its SQL), then
/// [`BenchEnv::replay`] over their workflows.
pub fn microbench_on(
    env: &BenchEnv,
    store: &Store,
    name: &str,
    sql_for: impl Fn(&str) -> String,
) -> MicrobenchResult {
    let outputs = env.outputs_per_copy(store, name, sql_for);
    let stats = env.replay(store, &outputs);
    let n = stats.len().max(1) as u64;
    let mean = |part: fn(&Breakdown) -> Nanos| {
        Nanos(stats.iter().map(|s| part(&s.breakdown).0).sum::<u64>() / n)
    };
    let breakdown = Breakdown {
        disk: mean(|b| b.disk),
        processing: mean(|b| b.processing),
        network: mean(|b| b.network),
        other: mean(|b| b.other),
    };
    let net_bytes_total = outputs.iter().map(|o| o.net_bytes).sum::<u64>();
    MicrobenchResult {
        achieved_selectivity: outputs[0].selectivity,
        latency: summarize(&stats),
        breakdown,
        net_bytes: net_bytes_total / outputs.len() as u64,
        net_bytes_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> BenchEnv {
        BenchEnv::new(0.02, 2, 30, 3)
    }

    #[test]
    fn cutoffs_hit_target_on_continuous_columns() {
        let env = tiny_env();
        let table = env.lineitem_table();
        // extendedprice (5) is continuous: 1% target should be close.
        let cut = cutoff_for(table, 5, 0.01);
        let prices = table.column(5).as_float64().unwrap();
        let c = match cut {
            fusion_format::value::Value::Float(x) => x,
            ref other => panic!("wrong type {other:?}"),
        };
        let sel = prices.iter().filter(|&&p| p < c).count() as f64 / prices.len() as f64;
        assert!((sel - 0.01).abs() < 0.005, "sel {sel}");
    }

    #[test]
    fn sql_renders_for_every_column_type() {
        let env = tiny_env();
        for col in 0..16 {
            let sql = microbench_sql(&env, col, 0.01, "lineitem_0");
            fusion_sql::parser::parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn microbench_runs_both_systems() {
        let env = tiny_env();
        let f = microbench_query(&env, SystemKind::Fusion, 5, 0.01);
        let b = microbench_query(&env, SystemKind::Baseline, 5, 0.01);
        assert!(f.latency.p50 > Nanos::ZERO);
        assert!(b.latency.p50 > Nanos::ZERO);
        assert!((f.achieved_selectivity - b.achieved_selectivity).abs() < 1e-12);
        // Selective query on a big column: Fusion must move fewer bytes.
        assert!(f.net_bytes < b.net_bytes);
    }
}
