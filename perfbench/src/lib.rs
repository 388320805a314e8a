//! Wall-clock benchmark of Fusion's real data plane.
//!
//! One run measures one workload for one seed: it generates every input,
//! computes the expected answers on a baseline store, sets the service up
//! (several times, for a steady `setup_s`), drives closed-loop clients
//! through the `Loopback` transport for the timed window, checks every
//! answer, and reports the end-to-end metrics. With `trace` it then
//! replays a prefix of the same op stream layer by layer (see
//! [`layers`]) and reports the per-layer metrics instead.

pub mod drive;
pub mod layers;
pub mod ops;
pub mod replay;
pub mod stats;

use ops::{Dataset, Scale, Workload, CLIENTS, WORKERS};
use stats::{median, percentile, Metric};
use std::io::Write;
use std::path::PathBuf;

/// Sub-windows the timed window is split into. The end-to-end latencies
/// and rate are the median of their per-sub-window values, so a stall of
/// a shared machine that hits one or two of them does not move the
/// result.
const SUB_WINDOWS: usize = 5;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the layer replay and report per-layer metrics.
    pub trace: bool,
    /// Dataset and stream sizes.
    pub scale: Scale,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted (timed window, plus replayed ops when traced).
    pub attempted: u64,
    /// Ops that failed a check or returned an error.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: the stamp, sample counts, secondary metrics.
    pub report: Vec<String>,
    /// The spans file, when traced.
    pub spans_path: Option<PathBuf>,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures and store errors outside the timed window.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let scale = &args.scale;

    // Inputs and expected answers, all before any timing.
    let ds = Dataset::generate(w, args.seed, scale);
    let oracle = drive::oracle(&ds.file)?;
    let streams = ops::streams(w, args.seed, scale, ds.file.len() as u64);
    let digest = ops::digest(&ds, &streams);
    let ws_per_copy = drive::working_set_per_copy(&ds.file)?;
    let cache_bytes = drive::store_config(w, scale).chunk_cache_bytes;

    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..scale.setups.max(1) {
        // Shut the previous service down before building the next.
        drop(running.take());
        let (run, secs) = drive::setup(w, scale, &ds)?;
        setups.push(secs);
        running = Some(run);
    }
    let run = running.expect("at least one set-up");
    let window = drive::run_window(&run, &streams, &ds, &oracle, args.seconds);
    let s = &window.samples;
    let mut failed = s.failed + u64::from(!window.conserved);
    let mut attempted = s.done_ns.len() as u64;
    let mut errors = s.errors.clone();
    if !window.conserved {
        errors.push("service request conservation violated".into());
    }

    let mut report = vec![format!(
        "stamp: nproc={} profile={} commit={} workload={} seed={} clients={} workers={} \
         rows={} file_bytes={} copies={} working_set_bytes={} chunk_cache_bytes={} \
         ops_timed={} window_s={:.3} digest={:016x}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
        w.name(),
        args.seed,
        CLIENTS,
        WORKERS,
        ds.rows,
        ds.file.len(),
        scale.objects(w),
        ws_per_copy * scale.objects(w) as u64,
        cache_bytes,
        s.done_ns.len(),
        window.elapsed_s,
        digest,
    )];
    if w == Workload::IngestMixed {
        report.push(format!(
            "ingest: {} puts of {} distinct payloads ({} bytes each), {} acknowledged, \
             put client active {:.3} s of the window",
            scale.ingest_puts,
            ds.payloads.len(),
            ds.payloads.first().map_or(0, Vec::len),
            s.acked_puts.len(),
            s.put_active_s,
        ));
    }

    let mut latency = |name: &str, samples: &[u64], q: f64| {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let (x, beyond) = percentile(&v, q)?;
        report.push(format!(
            "{name}: {:.4} ms (n={}, beyond={beyond})",
            x as f64 / 1e6,
            v.len()
        ));
        Some(Metric::new(name, x as f64 / 1e6, "ms"))
    };
    // Whole-window percentiles, for the record.
    latency("window query_p50_ms", &s.query_ns, 0.50);
    latency("window query_p99_ms", &s.query_ns, 0.99);
    // Secondary: not every workload has GETs or PUTs, so these are
    // reported here but are not `BENCHMARK.json` metrics.
    let mut secondary: Vec<Metric> = [
        ("get_p50_ms", &s.get_ns, 0.50),
        ("get_p99_ms", &s.get_ns, 0.99),
        ("put_p50_ms", &s.put_ns, 0.50),
        ("put_p99_ms", &s.put_ns, 0.99),
    ]
    .into_iter()
    .filter_map(|(name, v, q)| latency(name, v, q))
    .collect();
    if s.put_active_s > 0.0 {
        secondary.push(Metric::new(
            "put_mb_s",
            s.put_bytes as f64 / 1e6 / s.put_active_s,
            "MB/s",
        ));
    }

    // The end-to-end latencies and rate are medians over sub-windows.
    let sub_s = window.elapsed_s / SUB_WINDOWS as f64;
    let sub_of = |end_ns: u64| ((end_ns as f64 / 1e9 / sub_s) as usize).min(SUB_WINDOWS - 1);
    let mut sub_queries = vec![Vec::new(); SUB_WINDOWS];
    for (&end, &ns) in s.query_end_ns.iter().zip(&s.query_ns) {
        sub_queries[sub_of(end)].push(ns);
    }
    let mut sub_ops = [0u64; SUB_WINDOWS];
    for &end in &s.done_ns {
        sub_ops[sub_of(end)] += 1;
    }
    let mut e2e = Vec::new();
    for (name, q) in [("query_p50_ms", 0.50), ("query_p99_ms", 0.99)] {
        let per_sub: Vec<f64> = sub_queries
            .iter_mut()
            .filter_map(|v| {
                v.sort_unstable();
                percentile(v, q).map(|(x, _)| x as f64 / 1e6)
            })
            .collect();
        report.push(format!(
            "{name}: median of sub-window values {per_sub:.4?} (queries per sub-window: {:?})",
            sub_queries.iter().map(Vec::len).collect::<Vec<_>>()
        ));
        // The p99 is reported but not gated: on a shared 2-vCPU machine
        // its run-to-run spread is several times that of the median.
        let out = if q < 0.99 { &mut e2e } else { &mut secondary };
        out.push(Metric::new(name, median(&per_sub), "ms"));
    }
    let rates: Vec<f64> = sub_ops.iter().map(|&n| n as f64 / sub_s).collect();
    report.push(format!("ops_per_s: median of sub-window rates {rates:.2?}"));
    secondary.push(Metric::new("ops_per_s", median(&rates), "1/s"));
    // CPU time per op: the compute an op costs, which a slower or
    // oversubscribed host does not inflate the way it inflates wall time.
    let ops = s.done_ns.len().max(1) as f64;
    e2e.push(Metric::new(
        "cpu_ms_per_op",
        window.cpu_s.unwrap_or(0.0) * 1e3 / ops,
        "ms",
    ));
    e2e.push(Metric::new("setup_s", median(&setups), "s"));
    e2e.push(Metric::new(
        "peak_rss_mb",
        window.peak_rss_mb.unwrap_or(0.0),
        "MiB",
    ));
    e2e.push(Metric::new(
        "stored_bytes_per_user_byte",
        window.stored_bytes as f64 / window.user_bytes.max(1) as f64,
        "ratio",
    ));
    secondary.push(Metric::new(
        "failed_ops_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    let all: Vec<u64> = s.all_ns().collect();
    report.push(format!(
        "latency split: client_mean={:.4} ms service_mean={:.4} ms (n={}) \
         client_minus_service={:.4} ms (queue wait + frame codec)",
        mean_ms(&all),
        window.service_mean_ns / 1e6,
        window.service_requests,
        mean_ms(&all) - window.service_mean_ns / 1e6,
    ));
    report.push(format!(
        "setup_s runs: {:?}; chunk cache in window: {} hits, {} misses",
        setups, window.cache_hits, window.cache_misses
    ));
    for m in e2e.iter().chain(&secondary) {
        report.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }

    let (metrics, spans_path) = if args.trace {
        let ops = layers::replay_ops(&streams, scale);
        let store = drive::into_store(run)?;
        let traced = layers::traced(store, &ops, &ds, &oracle, &window, args.seconds / 8.0)?;
        failed += traced.failed;
        attempted += traced.ops as u64;
        errors.extend(traced.errors);
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        write_spans(&path, &traced.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        report.push(format!(
            "traced run: {} ops replayed, {} spans written to {}",
            traced.ops,
            traced.spans.len(),
            path.display()
        ));
        for m in &traced.metrics {
            report.push(format!("{} = {} {}", m.name, m.value, m.unit));
        }
        (traced.metrics, Some(path))
    } else {
        (e2e, None)
    };
    for e in &errors {
        report.push(format!("FAILED: {e}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
        spans_path,
    })
}

fn mean_ms(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e6
}

fn write_spans(path: &std::path::Path, spans: &[replay::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json())?;
    }
    out.flush()
}

/// The commit measured: `FUSION_COMMIT` if set, else read from `.git`
/// in the working directory, else `unknown` (benchmark checkouts need
/// not be repositories).
fn commit() -> String {
    if let Ok(c) = std::env::var("FUSION_COMMIT") {
        return c;
    }
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
