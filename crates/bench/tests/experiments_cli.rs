//! The `experiments` binary's artifact contract, run in a scratch
//! directory: a sweep from replicate 0 writes the unsuffixed
//! `results/<name>.*` files, and a `--seed-offset` sweep writes only its
//! own per-seed cells, so it cannot overwrite them.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs `experiments pricing --smoke --traces` plus `extra` in a fresh
/// directory and returns the files it wrote under `results/`, sorted.
fn artifacts_of(tag: &str, extra: &[&str]) -> Vec<String> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("fg-experiments-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["pricing", "--smoke", "--jobs", "1", "--traces"])
        .args(extra)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "{extra:?}: {status}");
    let mut names: Vec<String> = fs::read_dir(Path::new(&dir).join("results"))
        .expect("results dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    let _ = fs::remove_dir_all(&dir);
    names
}

#[test]
fn a_seed_offset_sweep_writes_only_its_own_cells() {
    let from_zero = artifacts_of("zero", &["--seeds", "1"]);
    let cell = from_zero
        .iter()
        .find(|name| name.starts_with("pricing.s"))
        .expect("a per-seed cell");
    for unsuffixed in ["pricing.alerts.json", "pricing.json", "pricing.traces.json"] {
        assert!(
            from_zero.iter().any(|name| name == unsuffixed),
            "{from_zero:?}"
        );
    }

    let offset = artifacts_of("offset", &["--seeds", "1", "--seed-offset", "1"]);
    assert_eq!(offset.len(), 1, "{offset:?}");
    assert!(
        offset[0].starts_with("pricing.s") && offset[0] != *cell,
        "{offset:?}"
    );
}
