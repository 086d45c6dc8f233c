//! Runs the benchmark end to end on a tiny stream against a real fg-serve
//! and checks that every metric `BENCHMARK.json` lists is printed by name
//! with its unit.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Builds fg-serve from the repository's workspace into a target
/// directory of the smoke test's own, so it never waits on the lock of
/// the build running this test.
fn fg_serve() -> PathBuf {
    let target = repo_root().join(".bench_build").join("smoke");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "fg-serve",
            "--bin",
            "fg-serve",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building fg-serve failed");
    target.join("debug").join("fg-serve")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(server: &Path, workload: &str, trace: &str) -> Value {
    let out_dir = repo_root().join(".bench_build").join("smoke").join("runs");
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .arg("--server")
        .arg(server)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("servebench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON")
}

fn assert_metrics(result: &Value, expected: &[(String, String)], what: &str) {
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{what}: extra or missing metrics"
    );
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    let server = fg_serve();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["steady", "ops", "connect"] {
        assert_metrics(&run(&server, workload, "0"), &end_to_end, workload);
        assert_metrics(&run(&server, workload, "1"), &per_layer, workload);
    }
}
