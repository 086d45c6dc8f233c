//! The parallel multi-seed experiment harness.
//!
//! Turns the one-shot experiment runners under [`crate::experiments`] into
//! replicated, wall-clock-parallel measurements:
//!
//! * [`ExperimentSpec`] — a registry entry per experiment: name, default
//!   seed, and a plain-`fn` run hook (trivially `Send`, so cells can run on
//!   any worker thread; the `Rc`-based [`crate::engine::Simulation`] is
//!   constructed *inside* the cell, never crossing threads). Each hook
//!   picks its config with [`ExperimentParams::base_config`], calls the
//!   experiment's `run_observed(config, telemetry)` on the cell's hub and
//!   packages what it returns with [`CellOutput::of`].
//! * [`run_matrix`] — a work-stealing-lite executor over
//!   [`std::thread::scope`]: every (experiment × seed) cell goes into one
//!   shared queue drained by `jobs` workers via an atomic cursor, so a slow
//!   experiment never leaves the other cores idle behind a static
//!   partition. It alone decides what a cell observes: it creates the
//!   cell's telemetry hub, turns tracing on for a traced cell, and reads
//!   the snapshot and trace export off the hub after the run.
//! * [`ExperimentRun`] — per-experiment replicate results plus cross-seed
//!   aggregation (mean/stddev/min–max per scalar metric, merged telemetry).
//!
//! # Determinism
//!
//! A cell's output is a pure function of `(experiment, seed, smoke,
//! telemetry)` — the executor only decides *where and when* a cell runs,
//! never what it computes — so report JSON is byte-identical regardless of
//! `jobs`, and `--seeds 1` with a seed offset reproduces any single cell of
//! a larger sweep. Replicate 0 always runs the experiment's historical
//! default seed, so existing single-run artifacts stay reproducible.

use crate::report::{render_aggregate_table, AggregateRow};
use fg_core::rng::SeedFork;
use fg_core::stats::Summary;
use fg_sentinel::{AlertPolicy, SentinelReport};
use fg_telemetry::{Telemetry, TelemetrySnapshot, TraceConfig, TraceSnapshot};
use serde::Serialize;
use serde_json::Value;
use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-cell inputs handed to an experiment's run hook.
#[derive(Clone, Debug)]
pub struct ExperimentParams {
    /// Master seed for this replicate (see [`replicate_seed`]).
    pub seed: u64,
    /// Use the experiment's shrunken smoke config (CI-sized).
    pub smoke: bool,
    /// Shard count for the defended app's keyed stores (1 = the
    /// single-shard deterministic layout). Replayed single-threaded, any
    /// shard count produces byte-identical artifacts — see
    /// `tests/shard_independence.rs`.
    pub shards: usize,
    /// The hub the experiment's designated app reports into. The harness
    /// creates one per cell, with tracing already on when the cell is
    /// traced; observation is read-only, so the hub never changes any
    /// other artifact.
    pub telemetry: Arc<Telemetry>,
}

impl ExperimentParams {
    /// The [`fg_core::shard::ConcurrencyMode`] implied by
    /// [`ExperimentParams::shards`], for handing to `AppConfig`.
    pub fn concurrency(&self) -> fg_core::shard::ConcurrencyMode {
        fg_core::shard::ConcurrencyMode::from_shards(self.shards)
    }

    /// The experiment config this cell starts from: `smoke()` when
    /// [`ExperimentParams::smoke`] is set, the default config otherwise.
    /// The run hook then sets the cell's seed and concurrency on it.
    pub fn base_config<C: Default>(&self, smoke: fn() -> C) -> C {
        if self.smoke {
            smoke()
        } else {
            C::default()
        }
    }
}

/// What one experiment run hands back to the harness.
#[derive(Clone, Debug)]
pub struct CellOutput {
    /// The human-readable report (`Display` form).
    pub display: String,
    /// The report as a JSON tree (scalar leaves become aggregate metrics).
    pub report: Value,
    /// The designated app's sentinel report.
    pub alerts: SentinelReport,
}

impl CellOutput {
    /// Packages what an experiment's `run_observed` returns: the typed
    /// report (its `Display` text plus JSON tree) and the sentinel report.
    pub fn of<R: Display + Serialize>((report, alerts): (R, SentinelReport)) -> CellOutput {
        CellOutput {
            display: report.to_string(),
            report: serde_json::to_value(&report).expect("reports serialize cleanly"),
            alerts,
        }
    }
}

/// A registry entry for one experiment: everything the harness needs to run
/// it under any seed.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentSpec {
    /// CLI name, e.g. `"ablation"`.
    pub name: &'static str,
    /// The module's historical default seed (replicate 0 runs exactly this).
    pub default_seed: u64,
    /// Whether [`HarnessConfig::telemetry`] exports this experiment's
    /// telemetry snapshot: true where the whole run reports into the
    /// cell's hub (`case_a`, `case_b`), not only its designated app.
    pub telemetry_capable: bool,
    /// Runs one cell. A plain `fn` pointer keeps the spec `Send + Sync`
    /// without any `Send` bound on the simulation itself.
    pub run: fn(&ExperimentParams) -> CellOutput,
    /// The defence deployments this experiment exercises, as declarative
    /// profiles for `fg-analyze`'s config pass (policy + scenario facts +
    /// waivers for paper-accurate misconfigurations). A plain `fn` pointer
    /// keeps the spec `Copy`.
    pub profiles: fn() -> Vec<fg_mitigation::profile::DefenceProfile>,
    /// The alert policy the experiment's designated sentinel cell enforces
    /// (also consumed declaratively by `fg-analyze`'s alert lints). A plain
    /// `fn` pointer keeps the spec `Copy`; experiments without a sentinel
    /// declare [`AlertPolicy::none`].
    pub alerts: fn() -> AlertPolicy,
}

/// One completed (experiment × seed) cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Experiment name.
    pub name: &'static str,
    /// Replicate index within the sweep (0 = default seed).
    pub replicate: usize,
    /// The seed this cell ran under.
    pub seed: u64,
    /// Human-readable report.
    pub display: String,
    /// Pretty-printed report JSON — the per-cell artifact, byte-identical
    /// across thread counts.
    pub json: String,
    /// Flattened numeric leaves of the report (key → value).
    pub metrics: Vec<(String, f64)>,
    /// Telemetry snapshot, when captured.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The designated app's sentinel report.
    pub alerts: SentinelReport,
    /// Span-trace snapshot, when the cell was traced.
    pub traces: Option<TraceSnapshot>,
}

/// All replicates of one experiment plus cross-seed aggregation.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// Experiment name.
    pub name: &'static str,
    /// Per-replicate results, in replicate order.
    pub cells: Vec<CellResult>,
    /// Cross-seed aggregate per scalar metric, in first-seen key order.
    pub aggregate: Vec<AggregateRow>,
    /// All replicates' telemetry merged (see [`TelemetrySnapshot::merge`]).
    pub merged_telemetry: Option<TelemetrySnapshot>,
}

impl ExperimentRun {
    /// Renders the cross-seed aggregate as a `mean ± stddev` table.
    pub fn render_aggregate(&self) -> String {
        render_aggregate_table(&self.aggregate)
    }

    /// The aggregate artifact (`results/<name>.agg.json`) as pretty JSON:
    /// the experiment name, the seeds aggregated, and one row per metric.
    pub fn aggregate_json(&self) -> String {
        let artifact = Value::Object(vec![
            ("experiment".to_owned(), Value::String(self.name.to_owned())),
            (
                "seeds".to_owned(),
                Value::Array(self.cells.iter().map(|c| Value::UInt(c.seed)).collect()),
            ),
            (
                "metrics".to_owned(),
                serde_json::to_value(&self.aggregate).expect("aggregates serialize cleanly"),
            ),
        ]);
        serde_json::to_string_pretty(&artifact).expect("aggregates serialize cleanly")
    }

    /// The alerts artifact (`results/<name>.alerts.json`) as pretty JSON:
    /// per-seed time-to-detection, a cross-seed TTD summary, and the first
    /// cell's (replicate 0's, unless a seed offset moved it) full sentinel
    /// report (alert events + incident timeline). `None` only for a run
    /// without cells.
    pub fn alerts_json(&self) -> Option<String> {
        let first = &self.cells.first()?.alerts;
        let ttd_mins =
            |r: &SentinelReport| r.time_to_detection.map(|d| d.as_millis() as f64 / 60_000.0);
        let replicates: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                let report = &c.alerts;
                Value::Object(vec![
                    ("seed".to_owned(), Value::UInt(c.seed)),
                    (
                        "alerts_fired".to_owned(),
                        Value::UInt(report.events.len() as u64),
                    ),
                    (
                        "detected".to_owned(),
                        Value::Bool(report.first_firing.is_some()),
                    ),
                    (
                        "time_to_detection_mins".to_owned(),
                        match ttd_mins(report) {
                            Some(m) => Value::Float(m),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let ttds: Summary = self
            .cells
            .iter()
            .filter_map(|c| ttd_mins(&c.alerts))
            .collect();
        let summary = Value::Object(vec![
            (
                "replicates_detected".to_owned(),
                Value::UInt(ttds.count() as u64),
            ),
            (
                "replicates_total".to_owned(),
                Value::UInt(replicates.len() as u64),
            ),
            ("ttd_mean_mins".to_owned(), Value::Float(ttds.mean())),
            ("ttd_std_dev_mins".to_owned(), Value::Float(ttds.std_dev())),
            (
                "ttd_min_mins".to_owned(),
                Value::Float(ttds.min().unwrap_or(0.0)),
            ),
            (
                "ttd_max_mins".to_owned(),
                Value::Float(ttds.max().unwrap_or(0.0)),
            ),
        ]);
        let artifact = Value::Object(vec![
            ("experiment".to_owned(), Value::String(self.name.to_owned())),
            (
                "policy".to_owned(),
                Value::String(first.policy.name.clone()),
            ),
            (
                "expect_detection".to_owned(),
                Value::Bool(first.policy.expect_detection),
            ),
            ("replicates".to_owned(), Value::Array(replicates)),
            ("time_to_detection".to_owned(), summary),
            (
                "report".to_owned(),
                serde_json::to_value(first).expect("sentinel reports serialize cleanly"),
            ),
        ]);
        Some(serde_json::to_string_pretty(&artifact).expect("alert artifacts serialize cleanly"))
    }

    /// The trace artifact (`results/<name>.traces.json`) as pretty JSON in
    /// Chrome trace-event form (Perfetto-loadable): the traced cell's span
    /// export plus provenance in `otherData`. `None` when no replicate
    /// captured traces.
    pub fn traces_json(&self) -> Option<String> {
        let cell = self.cells.iter().find(|c| c.traces.is_some())?;
        let snapshot = cell.traces.as_ref()?;
        let value = snapshot.to_chrome_trace(&[
            ("experiment", Value::String(self.name.to_owned())),
            ("seed", Value::UInt(cell.seed)),
        ]);
        Some(serde_json::to_string_pretty(&value).expect("trace artifacts serialize cleanly"))
    }

    /// `true` when a traced cell's incident cites an exemplar `trace_id`
    /// that does not resolve to an exported request span — the `--traces`
    /// gate condition.
    pub fn exemplars_unresolved(&self) -> bool {
        self.cells.iter().any(|cell| {
            cell.traces.as_ref().is_some_and(|snapshot| {
                let exported = snapshot.request_trace_ids();
                cell.alerts
                    .incident
                    .exemplar_trace_ids
                    .iter()
                    .any(|id| !exported.contains(id))
            })
        })
    }

    /// `true` when this experiment's alert policy expects detection but some
    /// replicate never saw a firing alert — the detection gate condition.
    pub fn detection_missing(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.alerts.policy.expect_detection && c.alerts.time_to_detection.is_none())
    }
}

/// Sweep-wide knobs for [`run_matrix`].
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Replicates per experiment.
    pub seeds: usize,
    /// First replicate index (`--seed-offset`): `seeds: 1, seed_offset: i`
    /// reproduces exactly cell `i` of a `seeds: N` sweep.
    pub seed_offset: usize,
    /// Worker threads; cells queue when there are more cells than workers.
    pub jobs: usize,
    /// Run every experiment's smoke config.
    pub smoke: bool,
    /// Capture the telemetry snapshot of `telemetry_capable` experiments.
    pub telemetry: bool,
    /// Enable span tracing on the sweep's first cell (replicate 0 unless
    /// `seed_offset` moves it; the cell whose incident timeline
    /// [`ExperimentRun::alerts_json`] exports) and capture its trace
    /// snapshot.
    pub traces: bool,
    /// Shard count for every cell's defended-app keyed stores (`--shards`;
    /// 1 = deterministic single-shard layout).
    pub shards: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            seeds: 1,
            seed_offset: 0,
            jobs: 1,
            smoke: false,
            telemetry: false,
            traces: false,
            shards: 1,
        }
    }
}

/// The seed for replicate `replicate` of an experiment whose default seed is
/// `default_seed`.
///
/// Replicate 0 is the default seed itself (keeping historical single-run
/// artifacts byte-identical); later replicates fork deterministically via
/// [`SeedFork`], so the set of seeds for `N` replicates is a prefix of the
/// set for `M > N` replicates.
pub fn replicate_seed(default_seed: u64, replicate: usize) -> u64 {
    if replicate == 0 {
        default_seed
    } else {
        SeedFork::new(default_seed).seed_indexed("replicate", replicate as u64)
    }
}

/// Runs the full (experiment × seed) matrix across `config.jobs` worker
/// threads and aggregates each experiment's replicates.
///
/// Cells are drained from a single shared queue via an atomic cursor —
/// work-stealing-lite: no worker idles while cells remain, whatever the mix
/// of fast and slow experiments. Results land in per-cell slots, so output
/// order (and content — see the module docs) is independent of scheduling.
pub fn run_matrix(specs: &[ExperimentSpec], config: &HarnessConfig) -> Vec<ExperimentRun> {
    let seeds = config.seeds.max(1);
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..seeds).map(move |r| (s, config.seed_offset + r)))
        .collect();
    let slots: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = config.jobs.max(1).min(cells.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(spec_idx, replicate)) = cells.get(i) else {
                    break;
                };
                let spec = &specs[spec_idx];
                let telemetry = Telemetry::shared();
                // Trace the sweep's first cell only: the artifact is one
                // exemplar trace per experiment (the cell whose incident
                // timeline `alerts_json` exports), not a per-seed sweep.
                let traced = config.traces && replicate == config.seed_offset;
                if traced {
                    telemetry.enable_tracing(TraceConfig::default());
                }
                let params = ExperimentParams {
                    seed: replicate_seed(spec.default_seed, replicate),
                    smoke: config.smoke,
                    shards: config.shards.max(1),
                    telemetry,
                };
                let out = (spec.run)(&params);
                *slots[i].lock().expect("no panics while holding slot") = Some(CellResult {
                    name: spec.name,
                    replicate,
                    seed: params.seed,
                    json: serde_json::to_string_pretty(&out.report)
                        .expect("reports serialize cleanly"),
                    metrics: scalar_metrics(&out.report),
                    display: out.display,
                    telemetry: (config.telemetry && spec.telemetry_capable)
                        .then(|| params.telemetry.snapshot()),
                    alerts: out.alerts,
                    traces: traced.then(|| params.telemetry.trace_snapshot()),
                });
            });
        }
    });

    let mut results: Vec<Option<CellResult>> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("workers finished cleanly"))
        .collect();
    specs
        .iter()
        .enumerate()
        .map(|(spec_idx, spec)| {
            let cells: Vec<CellResult> = (0..seeds)
                .map(|r| {
                    results[spec_idx * seeds + r]
                        .take()
                        .expect("every cell ran")
                })
                .collect();
            let merged_telemetry =
                TelemetrySnapshot::merged(cells.iter().filter_map(|c| c.telemetry.clone()));
            ExperimentRun {
                name: spec.name,
                aggregate: aggregate_metrics(&cells),
                merged_telemetry,
                cells,
            }
        })
        .collect()
}

/// Flattens a report's JSON tree into dotted scalar-metric keys.
///
/// Objects contribute their field names; array elements are labelled by
/// their string-valued fields when present (`cells.recommended.pumping.…`
/// instead of `cells.3.…`), falling back to the index, with `#i` appended on
/// a label collision. Booleans, strings, and nulls are not metrics and are
/// skipped.
pub fn scalar_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten(report, "", &mut out);
    out
}

fn flatten(value: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    let join = |field: &str| {
        if prefix.is_empty() {
            field.to_owned()
        } else {
            format!("{prefix}.{field}")
        }
    };
    match value {
        Value::Int(i) => out.push((prefix.to_owned(), *i as f64)),
        Value::UInt(u) => out.push((prefix.to_owned(), *u as f64)),
        Value::Float(f) => out.push((prefix.to_owned(), *f)),
        Value::Object(pairs) => {
            for (field, v) in pairs {
                flatten(v, &join(field), out);
            }
        }
        Value::Array(items) => {
            let mut seen: Vec<String> = Vec::with_capacity(items.len());
            for (i, v) in items.iter().enumerate() {
                let mut label = element_label(v, i);
                if seen.contains(&label) {
                    label = format!("{label}#{i}");
                }
                flatten(v, &join(&label), out);
                seen.push(label);
            }
        }
        Value::Null | Value::Bool(_) | Value::String(_) => {}
    }
}

/// A stable, human-readable label for one array element: its string-valued
/// fields joined by `.` (lowercased), or the element index.
fn element_label(v: &Value, index: usize) -> String {
    if let Value::Object(pairs) = v {
        let strings: Vec<String> = pairs
            .iter()
            .filter_map(|(_, v)| match v {
                Value::String(s) => Some(s.to_lowercase().replace(' ', "_")),
                _ => None,
            })
            .collect();
        if !strings.is_empty() {
            return strings.join(".");
        }
    }
    index.to_string()
}

/// Cross-seed aggregation: one [`AggregateRow`] per metric key, keys in
/// first-seen order across replicates.
fn aggregate_metrics(cells: &[CellResult]) -> Vec<AggregateRow> {
    let mut keys: Vec<&str> = Vec::new();
    for cell in cells {
        for (k, _) in &cell.metrics {
            if !keys.contains(&k.as_str()) {
                keys.push(k);
            }
        }
    }
    keys.iter()
        .map(|key| {
            let summary: Summary = cells
                .iter()
                .flat_map(|c| c.metrics.iter().filter(|(k, _)| k == key).map(|(_, v)| *v))
                .collect();
            AggregateRow {
                metric: (*key).to_owned(),
                mean: summary.mean(),
                std_dev: summary.std_dev(),
                min: summary.min().unwrap_or(0.0),
                max: summary.max().unwrap_or(0.0),
                n: summary.count(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Serialize)]
    struct Noop;
    impl Display for Noop {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("noop")
        }
    }

    /// The report of a sentinel that watched nothing on the cell's hub.
    fn quiet(p: &ExperimentParams) -> SentinelReport {
        fg_sentinel::Sentinel::new(AlertPolicy::none(), p.telemetry.metrics()).report_with_traces(
            fg_core::time::SimTime::ZERO,
            &p.telemetry.audit().snapshot(),
            None,
        )
    }

    fn toy_spec() -> ExperimentSpec {
        #[derive(Serialize)]
        struct ToyReport {
            seed: u64,
            doubled: u64,
        }
        impl Display for ToyReport {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "toy seed={} doubled={}", self.seed, self.doubled)
            }
        }
        ExperimentSpec {
            name: "toy",
            default_seed: 7,
            telemetry_capable: false,
            run: |p| {
                let report = ToyReport {
                    seed: p.seed,
                    doubled: p.seed.wrapping_mul(2),
                };
                CellOutput::of((report, quiet(p)))
            },
            profiles: Vec::new,
            alerts: AlertPolicy::none,
        }
    }

    #[test]
    fn replicate_zero_is_the_default_seed() {
        assert_eq!(replicate_seed(0xAB1A, 0), 0xAB1A);
        assert_ne!(replicate_seed(0xAB1A, 1), 0xAB1A);
        // Replicates are distinct and deterministic.
        assert_ne!(replicate_seed(0xAB1A, 1), replicate_seed(0xAB1A, 2));
        assert_eq!(replicate_seed(0xAB1A, 3), replicate_seed(0xAB1A, 3));
    }

    #[test]
    fn cell_json_is_thread_count_independent() {
        let specs = [toy_spec()];
        let run = |jobs| {
            run_matrix(
                &specs,
                &HarnessConfig {
                    seeds: 4,
                    jobs,
                    ..HarnessConfig::default()
                },
            )
        };
        let sequential = run(1);
        let parallel = run(4);
        for (s, p) in sequential[0].cells.iter().zip(&parallel[0].cells) {
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.json, p.json, "replicate {} diverged", s.replicate);
        }
    }

    #[test]
    fn seed_offset_reproduces_a_single_cell_of_a_sweep() {
        let specs = [toy_spec()];
        let sweep = run_matrix(
            &specs,
            &HarnessConfig {
                seeds: 4,
                jobs: 2,
                ..HarnessConfig::default()
            },
        );
        let lone = run_matrix(
            &specs,
            &HarnessConfig {
                seeds: 1,
                seed_offset: 2,
                ..HarnessConfig::default()
            },
        );
        assert_eq!(lone[0].cells[0].seed, sweep[0].cells[2].seed);
        assert_eq!(lone[0].cells[0].json, sweep[0].cells[2].json);
    }

    #[test]
    fn all_cells_run_even_with_more_cells_than_workers() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let spec = ExperimentSpec {
            name: "noop",
            default_seed: 1,
            telemetry_capable: false,
            run: |p| {
                RUNS.fetch_add(1, Ordering::Relaxed);
                CellOutput::of((Noop, quiet(p)))
            },
            profiles: Vec::new,
            alerts: AlertPolicy::none,
        };
        let specs = [spec; 3];
        let runs = run_matrix(
            &specs,
            &HarnessConfig {
                seeds: 5,
                jobs: 2,
                ..HarnessConfig::default()
            },
        );
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.cells.len() == 5));
        assert_eq!(RUNS.load(Ordering::Relaxed), 15);
    }

    /// `--traces` gates on its own: a traced cell whose incident cites a
    /// trace id its export lacks fails the check with no other option set,
    /// and a sweep that starts past replicate 0 still traces its first cell.
    #[test]
    fn traces_alone_catch_an_unresolved_exemplar() {
        let spec = ExperimentSpec {
            name: "unresolved",
            default_seed: 1,
            telemetry_capable: false,
            run: |p| {
                let mut alerts = quiet(p);
                alerts.incident.exemplar_trace_ids.push(0xDEAD);
                CellOutput::of((Noop, alerts))
            },
            profiles: Vec::new,
            alerts: AlertPolicy::none,
        };
        for seed_offset in [0, 2] {
            let traced = HarnessConfig {
                traces: true,
                seed_offset,
                ..HarnessConfig::default()
            };
            let runs = run_matrix(&[spec], &traced);
            assert!(runs[0].cells[0].traces.is_some(), "offset {seed_offset}");
            assert!(runs[0].exemplars_unresolved(), "offset {seed_offset}");
        }
        // Untraced, there is no export to resolve against.
        let plain = run_matrix(&[spec], &HarnessConfig::default());
        assert!(!plain[0].exemplars_unresolved());
    }

    #[test]
    fn aggregates_summarize_across_seeds() {
        let specs = [toy_spec()];
        let runs = run_matrix(
            &specs,
            &HarnessConfig {
                seeds: 3,
                jobs: 3,
                ..HarnessConfig::default()
            },
        );
        let agg = &runs[0].aggregate;
        let doubled = agg.iter().find(|r| r.metric == "doubled").unwrap();
        assert_eq!(doubled.n, 3);
        assert!(doubled.min <= doubled.mean && doubled.mean <= doubled.max);
        let expected: f64 = runs[0]
            .cells
            .iter()
            .map(|c| (c.seed.wrapping_mul(2)) as f64)
            .sum::<f64>()
            / 3.0;
        assert!((doubled.mean - expected).abs() < 1e-6);
    }

    #[test]
    fn scalar_metrics_flatten_nested_reports() {
        let value = serde_json::to_value(
            &serde_json::from_str::<Value>(
                r#"{
                "total": 10,
                "cells": [
                    {"posture": "Recommended", "attack": "Pumping", "effect": 0.5},
                    {"posture": "Recommended", "attack": "DoI hold", "effect": 0.25}
                ],
                "note": "strings are not metrics"
            }"#,
            )
            .unwrap(),
        )
        .unwrap();
        let metrics = scalar_metrics(&value);
        assert_eq!(
            metrics,
            vec![
                ("total".to_owned(), 10.0),
                ("cells.recommended.pumping.effect".to_owned(), 0.5),
                ("cells.recommended.doi_hold.effect".to_owned(), 0.25),
            ]
        );
    }

    #[test]
    fn colliding_array_labels_get_index_suffixes() {
        let value =
            serde_json::from_str::<Value>(r#"[{"k": "same", "v": 1}, {"k": "same", "v": 2}]"#)
                .unwrap();
        let metrics = scalar_metrics(&value);
        assert_eq!(
            metrics,
            vec![("same.v".to_owned(), 1.0), ("same#1.v".to_owned(), 2.0)]
        );
    }
}
