//! Fast self-check of the benchmark: every workload `BENCHMARK.json`
//! lists, at toy size, once end to end and once traced. Each run must
//! pass its verdict checks and print every metric `BENCHMARK.json`
//! names, with its unit.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// The string value of `"key": "…"` on one line of `BENCHMARK.json`.
fn field(line: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\": \"");
    let at = line.find(&pattern)? + pattern.len();
    Some(line[at..at + line[at..].find('"')?].to_string())
}

/// The lines of the list under `key` in `BENCHMARK.json` (one entry per
/// line there).
fn entries(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = &text[text.find(&format!("\"{key}\"")).expect("key present")..];
    body[..body.find(']').expect("a list")].lines().map(str::to_string).collect()
}

/// `(name, unit)` of every metric listed under `key`.
fn metrics(key: &str) -> Vec<(String, String)> {
    entries(key).iter().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--toy"])
        .args(["--trace-out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let workloads: Vec<String> =
        entries("workloads").iter().filter_map(|l| field(l, "name")).collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
    let (e2e, layers) = (metrics("end_to_end"), metrics("per_layer"));
    assert!(!e2e.is_empty() && !layers.is_empty());
    for workload in &workloads {
        for (trace, metrics) in [("0", &e2e), ("1", &layers)] {
            let line = run(workload, trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            for (name, unit) in metrics.iter() {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&prefix).unwrap_or_else(|| panic!("{workload}: no {name}"));
                let rest = &line[at + prefix.len()..];
                let value: f64 =
                    rest[..rest.find(',').expect("value ends")].parse().expect("a number");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let object = &rest[..rest.find('}').expect("metric object ends")];
                assert!(
                    object.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{workload}: extra metrics"
            );
        }
    }
}
