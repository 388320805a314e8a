//! Percentiles over raw samples, and the result line.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank percentile of sorted raw samples, with the number of
/// samples strictly beyond its rank. `None` when there are no samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Median of raw samples (nearest rank), 0 when empty.
pub fn p50(samples: &[u64]) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5).map_or(0, |(x, _)| x)
}

/// Median of floating-point values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time this process has used, every thread
/// included (`/proc/self/stat`, in the kernel's fixed 100 Hz user ticks).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// The one-line JSON result the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_tail() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.5), Some((100, 100)));
        assert_eq!(percentile(&v, 0.99), Some((198, 2)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("x_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
