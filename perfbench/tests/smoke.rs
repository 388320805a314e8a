//! The benchmark's own tests, at smoke scale: input determinism, the
//! correctness gate and conservation checks on every workload, the
//! traced run's span output, and agreement with `BENCHMARK.json`.

use fusion_perfbench::ops::{digest, streams, Dataset, Scale, Workload};
use fusion_perfbench::{run, Args};
use std::path::PathBuf;

fn digest_of(w: Workload, seed: u64) -> u64 {
    let scale = Scale::smoke();
    let ds = Dataset::generate(w, seed, &scale);
    digest(&ds, &streams(w, seed, &scale, ds.file.len() as u64))
}

#[test]
fn one_seed_gives_one_digest() {
    for w in Workload::ALL {
        assert_eq!(digest_of(w, 7), digest_of(w, 7), "{}", w.name());
        assert_ne!(digest_of(w, 7), digest_of(w, 8), "{}", w.name());
    }
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(w: Workload, trace: bool) -> fusion_perfbench::Outcome {
    let args = Args {
        workload: w,
        seed: 3,
        seconds: 0.3,
        trace,
        scale: Scale::smoke(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    run(&args).unwrap_or_else(|e| panic!("{} failed: {e}", w.name()))
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for w in Workload::ALL {
        let out = smoke(w, false);
        assert!(
            out.correct && out.failed == 0,
            "{}: {:?}",
            w.name(),
            out.report
        );
        assert!(out.attempted > 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, end_to_end, "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));

        let out = smoke(w, true);
        assert!(
            out.correct && out.failed == 0,
            "{}: {:?}",
            w.name(),
            out.report
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer, "{}", w.name());
        let spans = std::fs::read_to_string(out.spans_path.expect("traced run writes spans"))
            .expect("spans file readable");
        assert!(spans.lines().count() > 0);
        assert!(spans.lines().all(|l| l.starts_with("{\"id\": ")));
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        // Only the degraded workload rebuilds shards from parity.
        assert_eq!(
            value("ec.reconstruct_ns") > 0.0,
            w == Workload::DegradedQuery,
            "{}",
            w.name()
        );
    }
}
