//! Regenerates every table and figure of the paper — in parallel, over any
//! number of replicate seeds.
//!
//! ```text
//! cargo run --release -p fg-bench --bin experiments                # everything, 1 seed
//! cargo run --release -p fg-bench --bin experiments fig1          # one artifact
//! cargo run --release -p fg-bench --bin experiments --seeds 4 --jobs 4
//! cargo run --release -p fg-bench --bin experiments case_a --telemetry
//! cargo run --release -p fg-bench --bin experiments --smoke --seeds 2 --jobs 2  # CI
//! cargo run --release -p fg-bench --bin experiments --shards 4   # sharded stores
//! cargo run --release -p fg-bench --bin experiments case_a --traces
//! ```
//!
//! `--shards S` partitions every keyed defence store into S shards
//! (`fg_core::shard`). Replay stays single-threaded per cell, so artifacts
//! are byte-identical to the default `--shards 1` — CI runs one sharded
//! smoke sweep to hold that invariant.
//!
//! Artifacts under `results/`:
//!
//! * `<name>.s<seed>.json` — one report per (experiment × seed) cell. Cell
//!   content is a pure function of the seed, so these are byte-identical
//!   whatever `--jobs` is, and `--seeds 1 --seed-offset K` regenerates
//!   exactly cell `K` of a larger sweep.
//! * `<name>.json` — the replicate-0 report (the experiment's historical
//!   default seed), kept for compatibility with single-run artifacts.
//! * `<name>.agg.json` — cross-seed mean/stddev/min–max per scalar metric
//!   (written when more than one seed ran).
//! * `<name>.telemetry.json` / `<name>.prom` — with `--telemetry`, the
//!   replicate-merged telemetry snapshot for experiments that expose a sink
//!   (`case_a`, `case_b`).
//! * `<name>.alerts.json` — the sentinel outcome: per-seed
//!   time-to-detection, the aggregate TTD summary, and replicate 0's
//!   alert/incident timeline. The process exits non-zero if any experiment
//!   whose policy expects detection reports none (the detection gate).
//! * `<name>.traces.json` — with `--traces`, replicate 0's causal span
//!   trace in Chrome trace-event form (load it in Perfetto or
//!   `chrome://tracing`). The process exits non-zero if any incident's
//!   exemplar trace ids fail to resolve in the export (the CI tracing gate).
//!
//! Every file but the per-seed cells describes a sweep from replicate 0, so
//! a `--seed-offset K` sweep (K > 0) writes only its `<name>.s<seed>.json`
//! cells and never overwrites the others; its detection and `--traces`
//! gates still apply.

use fg_scenario::experiments::all_specs;
use fg_scenario::harness::{run_matrix, ExperimentRun, ExperimentSpec, HarnessConfig};
use fg_scenario::report::{render_sentinel_report, render_stage_table};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

/// Every way this process can exit, in one place. CI shell snippets match on
/// the numeric values, so they are part of the binary's interface: keep them
/// stable and document any addition here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exit {
    /// All runs completed and every enabled gate passed.
    Success = 0,
    /// Bad command line: unknown flag, unknown experiment, malformed value.
    Usage = 2,
    /// The detection gate failed: an experiment whose policy expects
    /// detection reported no alert.
    DetectionMissing = 3,
    /// The `--traces` gate failed: an incident carries an exemplar trace id
    /// that does not resolve in the run's trace export.
    ExemplarUnresolved = 4,
}

impl From<Exit> for ExitCode {
    fn from(exit: Exit) -> ExitCode {
        ExitCode::from(exit as u8)
    }
}

fn write_file(path: &Path, contents: String) {
    report_artifact(path, fs::write(path, contents));
}

/// Prints where an artifact was written, or why it could not be.
fn report_artifact(path: &Path, written: io::Result<()>) {
    match written {
        Ok(()) => println!("[artifact] {}", path.display()),
        Err(e) => eprintln!("[artifact] failed to write {}: {e}", path.display()),
    }
}

/// Writes every artifact one experiment's sweep captured. The unsuffixed
/// `<name>.*` files describe a sweep from replicate 0, so a sweep that
/// starts later (`--seed-offset K`) writes only its per-seed cells.
fn write_artifacts(run: &ExperimentRun) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        eprintln!("[artifact] cannot create {}", dir.display());
        return;
    }
    for cell in &run.cells {
        write_file(
            &dir.join(format!("{}.s{}.json", run.name, cell.seed)),
            cell.json.clone(),
        );
    }
    let Some(first) = run.cells.first().filter(|cell| cell.replicate == 0) else {
        return;
    };
    write_file(&dir.join(format!("{}.json", run.name)), first.json.clone());
    if run.cells.len() > 1 {
        write_file(
            &dir.join(format!("{}.agg.json", run.name)),
            run.aggregate_json(),
        );
    }
    if let Some(snapshot) = &run.merged_telemetry {
        write_file(
            &dir.join(format!("{}.telemetry.json", run.name)),
            snapshot.to_json(),
        );
        write_file(
            &dir.join(format!("{}.prom", run.name)),
            snapshot.to_prometheus(),
        );
    }
    if let Some(json) = run.alerts_json() {
        write_file(&dir.join(format!("{}.alerts.json", run.name)), json);
    }
    if let Some((snapshot, seed)) = run.traced() {
        // Tens of MB: written span by span rather than built in memory.
        let path = dir.join(format!("{}.traces.json", run.name));
        let written = File::create(&path).and_then(|file| {
            let mut out = BufWriter::new(file);
            snapshot.write_chrome(run.name, seed, &mut out)?;
            out.flush()
        });
        report_artifact(&path, written);
    }
}

fn print_run(run: &ExperimentRun) {
    println!("\n================ {} ================", run.name);
    for cell in &run.cells {
        if run.cells.len() > 1 {
            println!(
                "\n---- replicate {} (seed {:#x}) ----\n",
                cell.replicate, cell.seed
            );
        } else {
            println!();
        }
        println!("{}", cell.display);
    }
    if run.cells.len() > 1 {
        println!("---- aggregate over {} seeds ----\n", run.cells.len());
        println!("{}", run.render_aggregate());
    }
    if let Some(snapshot) = &run.merged_telemetry {
        println!("{}", render_stage_table(&snapshot.stages()));
        println!(
            "audit trail: {} decisions recorded ({} evicted); totals {:?}",
            snapshot.audit.recorded, snapshot.audit.evicted, snapshot.audit.decision_totals
        );
    }
    // The first cell's sentinel outcome (TTD + incident timeline); every
    // seed's TTD is in the `.alerts.json` artifact.
    if let Some(cell) = run.cells.first() {
        println!("{}", render_sentinel_report(&cell.alerts));
    }
}

struct Cli {
    names: Vec<String>,
    config: HarnessConfig,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        names: Vec::new(),
        config: HarnessConfig {
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            ..HarnessConfig::default()
        },
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                cli.config.seeds = value_of("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--jobs" => {
                cli.config.jobs = value_of("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--seed-offset" => {
                cli.config.seed_offset = value_of("--seed-offset")?
                    .parse()
                    .map_err(|e| format!("--seed-offset: {e}"))?;
            }
            "--shards" => {
                cli.config.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--smoke" => cli.config.smoke = true,
            "--telemetry" => cli.config.telemetry = true,
            "--traces" => cli.config.traces = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => cli.names.push(name.to_owned()),
        }
    }
    Ok(cli)
}

/// Resolves requested names against the registry, preserving request order.
fn select_specs(names: &[String]) -> Result<Vec<ExperimentSpec>, String> {
    let registry = all_specs();
    if names.is_empty() {
        return Ok(registry);
    }
    names
        .iter()
        .map(|name| {
            registry
                .iter()
                .find(|s| s.name == name)
                .copied()
                .ok_or_else(|| format!("unknown experiment {name:?}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let available: Vec<&str> = all_specs().iter().map(|s| s.name).collect();
    let usage = format!(
        "available experiments: {available:?}\n\
         flags: --seeds N  --jobs J  --seed-offset K  --shards S  --smoke  --telemetry  --traces"
    );
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return Exit::Usage.into();
        }
    };
    let specs = match select_specs(&cli.names) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return Exit::Usage.into();
        }
    };
    if cli.config.telemetry {
        for spec in specs.iter().filter(|s| !s.telemetry_capable) {
            eprintln!(
                "[telemetry] {} does not expose a telemetry sink; running plain",
                spec.name
            );
        }
    }
    println!(
        "running {} experiment(s) × {} seed(s) on {} thread(s)",
        specs.len(),
        cli.config.seeds.max(1),
        cli.config.jobs.max(1)
    );
    let runs = run_matrix(&specs, &cli.config);
    let mut detection_missing = false;
    let mut exemplars_unresolved = false;
    for run in &runs {
        print_run(run);
        write_artifacts(run);
        if run.detection_missing() {
            eprintln!(
                "[alerts] {}: policy expected detection but no alert fired",
                run.name
            );
            detection_missing = true;
        }
        if run.exemplars_unresolved() {
            eprintln!(
                "[traces] {}: an incident exemplar trace id does not resolve in the trace export",
                run.name
            );
            exemplars_unresolved = true;
        }
    }
    if detection_missing {
        return Exit::DetectionMissing.into();
    }
    if exemplars_unresolved {
        return Exit::ExemplarUnresolved.into();
    }
    Exit::Success.into()
}
