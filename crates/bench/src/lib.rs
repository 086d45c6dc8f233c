//! # fg-bench
//!
//! Benchmark and experiment harness for the FeatureGuard workspace.
//!
//! Two entry points:
//!
//! * **The `experiments` binary** (`cargo run -p fg-bench --bin
//!   experiments [name]`) — regenerates every table and figure, printing the
//!   human-readable report and writing a JSON artifact next to it.
//! * **The `fg-bench` binary** (`cargo run -p fg-bench --release --bin
//!   fg-bench -- --bench-json …`) — measures the per-event hot paths of the
//!   [`perf`] registry headlessly, emits the machine-readable
//!   `BENCH_baseline.json`, and diffs fresh runs against it: the CI
//!   regression gate.

#![forbid(unsafe_code)]

pub mod perf;
