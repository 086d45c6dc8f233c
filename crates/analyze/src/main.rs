//! The `fg-analyze` binary: run every analysis pass and gate on severity.
//!
//! ```text
//! fg-analyze [--json | --sarif] [--filter SUBSTR] [--deny info|warn|deny]
//!            [--root PATH] [--baseline FILE] [--bless-baseline FILE]
//! ```
//!
//! * `--json` — emit the diagnostics as a JSON array (CI artifact) instead
//!   of the pretty report.
//! * `--sarif` — emit the diagnostics as a SARIF 2.1.0 log instead of the
//!   pretty report (CI uploads this for SARIF viewers).
//! * `--filter SUBSTR` — keep only diagnostics whose lint id or source
//!   contains `SUBSTR`.
//! * `--deny LEVEL` — exit non-zero if any unwaived diagnostic is at or
//!   above `LEVEL` (default `deny`).
//! * `--root PATH` — workspace root whose sources the source and dataflow
//!   passes read (defaults to the workspace this binary was built from).
//! * `--baseline FILE` — also compare against a committed
//!   `ANALYZE_baseline.json` and exit non-zero on any new `(lint, file)`
//!   finding, regardless of severity (the "no new diagnostics" ratchet).
//! * `--bless-baseline FILE` — write the current report as the new baseline
//!   instead of gating.
//!
//! Exit codes: `0` clean, `1` gate or baseline failed, `2` usage error.

#![forbid(unsafe_code)]

use fg_analyze::{full_report, render_json, render_pretty, render_sarif, Baseline, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

enum Output {
    Pretty,
    Json,
    Sarif,
}

struct Args {
    output: Output,
    filter: Option<String>,
    deny: Severity,
    root: PathBuf,
    baseline: Option<PathBuf>,
    bless: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fg-analyze [--json | --sarif] [--filter SUBSTR] [--deny info|warn|deny] \
     [--root PATH] [--baseline FILE] [--bless-baseline FILE]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        output: Output::Pretty,
        filter: None,
        deny: Severity::Deny,
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        baseline: None,
        bless: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.output = Output::Json,
            "--sarif" => args.output = Output::Sarif,
            "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a value")?);
            }
            "--deny" => {
                let level = it.next().ok_or("--deny needs a value")?;
                args.deny =
                    Severity::parse(&level).ok_or_else(|| format!("unknown severity {level:?}"))?;
            }
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?));
            }
            "--bless-baseline" => {
                args.bless = Some(PathBuf::from(
                    it.next().ok_or("--bless-baseline needs a value")?,
                ));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut diags = match full_report(&args.root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(filter) = &args.filter {
        diags.retain(|d| d.lint.contains(filter.as_str()) || d.source.contains(filter.as_str()));
    }

    if let Some(path) = &args.bless {
        let baseline = Baseline::from_diags(&diags);
        if let Err(e) = std::fs::write(path, baseline.render()) {
            eprintln!("error: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "fg-analyze: blessed {} finding(s) in {} bucket(s) to {}",
            diags.len(),
            baseline.entries.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    match args.output {
        Output::Json => println!("{}", render_json(&diags)),
        Output::Sarif => println!("{}", render_sarif(&diags)),
        Output::Pretty => print!("{}", render_pretty(&diags)),
    }

    let mut failed = false;
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Baseline::parse(&text));
        match baseline {
            Ok(baseline) => {
                let cmp = baseline.compare(&diags);
                for stale in &cmp.stale {
                    eprintln!("fg-analyze: baseline entry now stale (re-bless): {stale}");
                }
                if !cmp.regressions.is_empty() {
                    for regression in &cmp.regressions {
                        eprintln!("fg-analyze: new diagnostic over baseline: {regression}");
                    }
                    eprintln!(
                        "fg-analyze: {} bucket(s) regressed vs {} — if intentional, \
                         re-bless with --bless-baseline",
                        cmp.regressions.len(),
                        path.display()
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let gating = diags.iter().filter(|d| d.gates_at(args.deny)).count();
    if gating > 0 {
        eprintln!(
            "fg-analyze: {gating} diagnostic(s) at or above --deny {}",
            args.deny
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
