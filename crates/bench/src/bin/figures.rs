//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p fusion-bench --bin figures -- all
//! cargo run --release -p fusion-bench --bin figures -- fig13 fig15 --scale 0.5 --queries 500
//! ```
//!
//! Options:
//! * `--scale F`   dataset scale relative to the repo default (default 0.5)
//! * `--queries N` queries per experiment cell (default 500; paper 10 000)
//! * `--copies N`  object copies per file (default 10, as in the paper)
//! * `--clients N` concurrent closed-loop clients (default 10)
//! * `--out DIR`   write each artifact to `DIR/<id>.txt` and each JSON
//!   document beside it (default `results/`)

use fusion_bench::figures::{run, ALL_IDS};
use fusion_bench::harness::BenchEnv;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = 0.5f64;
    let mut queries = 500usize;
    let mut copies = 10usize;
    let mut clients = 10usize;
    let mut out_dir = String::from("results");

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => scale = take(&mut i).parse().expect("numeric --scale"),
            "--queries" => queries = take(&mut i).parse().expect("integer --queries"),
            "--copies" => copies = take(&mut i).parse().expect("integer --copies"),
            "--clients" => clients = take(&mut i).parse().expect("integer --clients"),
            "--out" => out_dir = take(&mut i),
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!("usage: figures [all | <id>...] [--scale F] [--queries N] [--copies N] [--clients N] [--out DIR]");
                eprintln!("ids: {}", ALL_IDS.join(" "));
                return;
            }
            other => {
                if ALL_IDS.contains(&other) || other.starts_with("debugcol") {
                    ids.push(other.to_string());
                } else {
                    eprintln!("unknown artifact id {other}; known: {}", ALL_IDS.join(" "));
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut env = BenchEnv::new(scale, copies, queries, clients);
    env.out_dir = out_dir.clone().into();
    println!("fusion figures: scale={scale} copies={copies} queries={queries} clients={clients}\n");
    for id in &ids {
        let t0 = std::time::Instant::now();
        let text = run(id, &env);
        println!("===== {id} ({:.1?}) =====", t0.elapsed());
        println!("{text}");
        std::fs::write(format!("{out_dir}/{id}.txt"), &text).expect("write artifact");
    }
}
