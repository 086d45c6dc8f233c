//! `fg-bench` — headless hot-path benchmark harness and baseline gate.
//!
//! ```text
//! fg-bench --list                                  # show every case
//! fg-bench --bench-json BENCH_current.json         # measure, write baseline JSON
//! fg-bench --compare BENCH_baseline.json           # measure, diff, exit 1 on fail
//! fg-bench --compare BENCH_baseline.json --tolerance 0.5 --hard-fail 10
//! fg-bench --filter name_heuristics --bench-json - # subset, JSON to stdout
//! fg-bench --quick --compare BENCH_baseline.json   # CI profile (shorter samples)
//! fg-bench --bless                                 # re-measure, overwrite BENCH_baseline.json
//! ```
//!
//! `--compare` normalizes ratios by the `calibration/splitmix64_chain` case
//! so shared-runner speed differences don't trip the gate; pass
//! `--no-normalize` to gate on raw ns/op instead.

use fg_bench::perf::{self, Baseline, CompareOpts, MeasureOpts};
use std::process::ExitCode;

/// Where `--bless` writes: the committed baseline the CI gate compares
/// against. Run it from the repository root, full (non-`--quick`) profile,
/// on a quiet machine, and commit the diff deliberately.
const BLESS_PATH: &str = "BENCH_baseline.json";

struct Args {
    bench_json: Option<String>,
    compare: Option<String>,
    tolerance: f64,
    hard_fail: f64,
    normalize: bool,
    filter: Option<String>,
    quick: bool,
    list: bool,
    note: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench_json: None,
        compare: None,
        tolerance: 0.5,
        hard_fail: 10.0,
        normalize: true,
        filter: None,
        quick: false,
        list: false,
        note: "fg-bench".to_owned(),
    };
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--bench-json" => {
                if bless {
                    return Err("--bless conflicts with --bench-json (it implies one)".into());
                }
                args.bench_json = Some(value("--bench-json")?);
            }
            "--compare" => args.compare = Some(value("--compare")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--hard-fail" => {
                args.hard_fail = value("--hard-fail")?
                    .parse()
                    .map_err(|e| format!("--hard-fail: {e}"))?
            }
            "--no-normalize" => args.normalize = false,
            "--bless" => {
                if args.bench_json.is_some() {
                    return Err("--bless conflicts with --bench-json (it implies one)".into());
                }
                bless = true;
                args.bench_json = Some(BLESS_PATH.to_owned());
                args.note = "blessed baseline (fg-bench --bless)".to_owned();
            }
            "--filter" => args.filter = Some(value("--filter")?),
            "--note" => args.note = value("--note")?,
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (see --help)")),
        }
    }
    if !args.list && args.bench_json.is_none() && args.compare.is_none() {
        return Err("nothing to do: pass --list, --bench-json <path>, or --compare <path>".into());
    }
    Ok(args)
}

fn print_help() {
    println!(
        "fg-bench: headless hot-path benchmarks and baseline regression gate\n\n\
         USAGE:\n  fg-bench [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20 --list                 list every benchmark case and exit\n\
         \x20 --bench-json <PATH>    measure the suite, write baseline JSON ('-' = stdout)\n\
         \x20 --compare <PATH>       measure the suite, diff against a committed baseline;\n\
         \x20                        exits 1 when the gate fails\n\
         \x20 --tolerance <FRAC>     allowed fractional slowdown (default 0.5 = +50%)\n\
         \x20 --hard-fail <RATIO>    normalized slowdown that always fails (default 10)\n\
         \x20 --no-normalize         gate on raw ns/op, skip calibration scaling\n\
         \x20 --bless                re-measure and overwrite BENCH_baseline.json in the\n\
         \x20                        current directory (run from the repo root; full\n\
         \x20                        profile; commit the diff deliberately)\n\
         \x20 --filter <SUBSTR>      only run cases whose group/name contains SUBSTR\n\
         \x20 --note <TEXT>          provenance note stored in the emitted JSON\n\
         \x20 --quick                short CI measurement profile\n"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fg-bench: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for case in perf::cases() {
            println!("{:<44} units/op={}", case.full_name(), case.units_per_op);
        }
        return ExitCode::SUCCESS;
    }

    let opts = if args.quick {
        MeasureOpts::quick()
    } else {
        MeasureOpts::default()
    };
    eprintln!(
        "fg-bench: measuring{}{} ...",
        if args.quick { " (quick profile)" } else { "" },
        match &args.filter {
            Some(f) => format!(", filter '{f}'"),
            None => String::new(),
        }
    );
    let current = perf::run_suite(args.filter.as_deref(), &opts, &args.note);
    for (name, metric) in &current.metrics {
        eprintln!(
            "  {name:<44} {:>12.1} ns/op  {:>14.0} events/s",
            metric.ns_per_op, metric.events_per_sec
        );
    }

    if let Some(path) = &args.bench_json {
        let json = current.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("fg-bench: writing {path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!("fg-bench: wrote {path}");
        }
    }

    if let Some(path) = &args.compare {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fg-bench: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fg-bench: parsing {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = perf::compare(
            &baseline,
            &current,
            &CompareOpts {
                tolerance: args.tolerance,
                hard_fail_ratio: args.hard_fail,
                normalize: args.normalize,
            },
        );
        print!("{}", report.render());
        if report.failed() {
            eprintln!("fg-bench: perf gate FAILED against {path}");
            return ExitCode::FAILURE;
        }
        eprintln!("fg-bench: perf gate passed against {path}");
    }

    ExitCode::SUCCESS
}
