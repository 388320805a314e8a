//! The `figures` binary's `--out DIR` moves every artifact: the text and
//! the experiment's JSON land in `DIR`, and `results/` is not touched.

use std::path::Path;
use std::process::Command;

#[test]
fn out_dir_takes_the_json_and_leaves_results_alone() {
    let root = std::env::temp_dir().join(format!("fusion-figures-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(&root)
        .args(["degraded", "--scale", "0.02", "--copies", "1"])
        .args(["--queries", "4", "--clients", "2", "--out", "elsewhere"])
        .status()
        .expect("run figures");
    assert!(status.success());
    let out = root.join("elsewhere");
    for file in ["degraded.txt", "degraded_latency.json"] {
        assert!(out.join(file).is_file(), "{file} not written to --out");
    }
    let results = root.join("results");
    let untouched = !Path::new(&results).exists();
    std::fs::remove_dir_all(&root).unwrap();
    assert!(untouched, "results/ was written despite --out");
}
