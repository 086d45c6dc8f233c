//! `fg-serve` — the FeatureGuard decision service.
//!
//! ```text
//! fg-serve [--config PATH] [--addr HOST:PORT] [--check] [--print-config]
//!          [--drain-secs N] [--final-metrics PATH]
//! ```
//!
//! Without `--config`, boots the recommended posture. With `--config`, the
//! file is parsed and validated (fg-analyze gate included) before binding;
//! it is then watched for hot-reloads — edits that fail validation are
//! rejected and the running config survives.
//!
//! `--check` validates the config and exits without binding. On `SIGTERM`
//! or `SIGINT` the server stops accepting, finishes in-flight exchanges,
//! flushes a final metrics snapshot (when `--final-metrics` is given), and
//! exits. Exit codes: see [`fg_serve::Exit`].

use fg_serve::{Exit, ServeConfig, Server};
use fg_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: Option<PathBuf>,
    addr: Option<String>,
    check: bool,
    print_config: bool,
    drain_secs: u64,
    final_metrics: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: None,
        addr: None,
        check: false,
        print_config: false,
        drain_secs: 10,
        final_metrics: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--addr" => args.addr = Some(value("--addr")?),
            "--check" => args.check = true,
            "--print-config" => args.print_config = true,
            "--drain-secs" => {
                args.drain_secs = value("--drain-secs")?
                    .parse()
                    .map_err(|e| format!("--drain-secs: {e}"))?;
            }
            "--final-metrics" => {
                args.final_metrics = Some(PathBuf::from(value("--final-metrics")?));
            }
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fg-serve [--config PATH] [--addr HOST:PORT] [--check] \
         [--print-config] [--drain-secs N] [--final-metrics PATH]"
    );
}

fn load_config(args: &Args) -> Result<ServeConfig, String> {
    let mut config = match &args.config {
        Some(path) => {
            let raw = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            ServeConfig::from_json(&raw).map_err(|e| format!("parse: {e}"))?
        }
        None => ServeConfig::recommended(),
    };
    if let Some(addr) = &args.addr {
        config.listen = addr.clone();
    }
    config
        .validate()
        .map_err(|errors| format!("config rejected:\n  {}", errors.join("\n  ")))?;
    Ok(config)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            if why != "help" {
                eprintln!("fg-serve: {why}");
            }
            usage();
            return Exit::Usage.into();
        }
    };

    let config = match load_config(&args) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("fg-serve: {why}");
            return Exit::ContractFailed.into();
        }
    };
    if args.print_config {
        // Emits the effective (validated) config as a reload-ready file —
        // the canonical way to bootstrap a watched config for deployment.
        println!("{}", config.to_json());
        return Exit::Success.into();
    }
    if args.check {
        println!("config ok (listen {})", config.listen);
        return Exit::Success.into();
    }

    let shutdown = unix_signal::install();
    let telemetry = Telemetry::shared();
    let server = match Server::start(config, telemetry.clone(), args.config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fg-serve: bind failed: {e}");
            return Exit::Unavailable.into();
        }
    };
    println!("fg-serve listening on {}", server.addr());
    // Line-buffered stdout only flushes on newline when attached to a
    // terminal; CI pipes it, so flush explicitly for readiness polling.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !shutdown.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(100));
    }

    println!("fg-serve: shutdown signal received, draining");
    server.begin_shutdown();
    let report = server.drain(Duration::from_secs(args.drain_secs));

    if let Some(path) = &args.final_metrics {
        if let Err(e) = std::fs::write(path, telemetry.to_prometheus()) {
            eprintln!("fg-serve: final metrics flush failed: {e}");
        }
    }

    if report.clean {
        println!("fg-serve: drained cleanly");
        Exit::Success.into()
    } else {
        eprintln!(
            "fg-serve: drain deadline passed with {} busy worker(s)",
            report.stragglers
        );
        Exit::Unavailable.into()
    }
}
