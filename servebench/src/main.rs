//! `servebench` — the end-to-end fg-serve benchmark.
//!
//! ```text
//! servebench --workload steady|ops|connect|all --seed N --seconds S --trace 0|1
//!            --server PATH [--out DIR] [--steadiness RUNS] [--tiny]
//! ```
//!
//! One run boots a fresh `fg-serve` several times (keeping the last boot),
//! replays one seeded request stream exactly once and in order — an
//! untimed pipelined warm-up that fills the audit ring, then a timed
//! closed loop with one caller per CPU — and checks every reply against an
//! in-process replay of the same stream. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The exit code is non-zero when any check fails.
//!
//! `--workload all` runs every workload once and prints one table;
//! `--steadiness RUNS` runs each workload as two sets of RUNS runs and
//! reports whether the sets agree within `BENCHMARK.json`'s bounds.
//! `--tiny` shrinks the stream and every phase, for smoke tests.

mod control;
mod plan;
mod procfs;
mod prom;
mod spans;
mod stats;
mod walk;
mod wire;

use plan::{Frames, Plan, Workload, SCRAPE_EVERY, WORKLOADS};
use serde_json::Value;
use spans::SpanLog;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use walk::KINDS;
use wire::{Reply, Sent, Server, Traffic};

/// Boots per run; `setup_s` is their median and the last one is measured.
const BOOTS: usize = 15;
/// Sender threads of the open-loop phase.
const OPEN_LOOP_SENDERS: usize = 8;
/// Run-end `/metrics` scrapes timed in a traced run.
const END_SCRAPES: usize = 3;
/// Failed requests rank as this slow in the latency percentiles.
const FAILED_LATENCY_MS: f64 = 5_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    steadiness: Option<usize>,
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 5,
        trace: false,
        server: PathBuf::new(),
        out: PathBuf::from(".bench_build/servebench"),
        steadiness: None,
        tiny: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server" => args.server = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--steadiness" => args.steadiness = Some(number(value()?)?.max(2) as usize),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && plan::workload(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of steady, ops, connect, all (got {:?})",
            args.workload
        ));
    }
    if args.server.as_os_str().is_empty() {
        return Err("--server PATH (the fg-serve binary) is required".to_owned());
    }
    Ok(args)
}

/// One named figure with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Requests attempted and failed, and whether any reply differed from the
/// reference.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    /// Counts a reply; a decision reply also needs a known decision kind.
    fn count(&mut self, r: &Reply) -> Option<usize> {
        if r.kind == Sent::Control {
            return None;
        }
        self.attempted += 1;
        if r.status != 200 {
            self.failed += 1;
            return None;
        }
        if r.kind != Sent::Decide {
            return None;
        }
        let kind = walk::kind_of(&r.body);
        if kind.is_none() {
            self.failed += 1;
            self.mismatched += 1;
        }
        kind
    }

    /// Counts a phase's replies and returns its per-kind decision totals.
    fn phase(&mut self, replies: &[Reply]) -> [u64; KINDS.len()] {
        let mut totals = [0; KINDS.len()];
        for r in replies {
            if let Some(k) = self.count(r) {
                totals[k] += 1;
            }
        }
        totals
    }

    /// Charges every decision whose kind the totals show to differ from
    /// the reference.
    fn compare(&mut self, got: &[u64; KINDS.len()], want: &[u64; KINDS.len()]) {
        let differing: u64 = got
            .iter()
            .zip(want)
            .map(|(g, w)| g.saturating_sub(*w))
            .sum();
        self.failed += differing;
        self.mismatched += differing;
    }
}

/// Latencies of a phase's `kind` exchanges in milliseconds, ascending; a
/// failed exchange ranks as slower than any that succeeded.
fn latencies_ms(replies: &[Reply], kind: Sent) -> Vec<f64> {
    let v: Vec<f64> = replies
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| {
            if r.status == 200 {
                r.latency_ns as f64 / 1e6
            } else {
                FAILED_LATENCY_MS
            }
        })
        .collect();
    stats::sorted(&v)
}

/// `fg-serve --print-config` with only `listen` changed (to an ephemeral
/// loopback port), written where the server can read it.
fn serve_config(server: &Path, path: &Path) -> Result<fg_serve::ServeConfig, String> {
    let out = std::process::Command::new(server)
        .arg("--print-config")
        .output()
        .map_err(|e| format!("{} --print-config: {e}", server.display()))?;
    if !out.status.success() {
        return Err(format!("fg-serve --print-config failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let mut config = fg_serve::ServeConfig::from_json(&text)?;
    config.listen = "127.0.0.1:0".to_owned();
    std::fs::write(path, config.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(config)
}

/// Housekeeping ticks the service runs over `range` at its cadence.
fn ticks_in(requests: &[fg_scenario::workload::WireRequest], range: std::ops::Range<usize>) -> u64 {
    let mut last = 0u64;
    let mut ticks = 0;
    for (i, r) in requests.iter().enumerate() {
        if r.now_ms >= last.saturating_add(walk::TICK_EVERY_MS) {
            last = r.now_ms;
            ticks += u64::from(range.contains(&i));
        }
    }
    ticks
}

/// Latency percentiles and CPU per request of one server in the timed
/// phase.
#[derive(Clone, Copy)]
struct Figures {
    p50_ms: f64,
    p90_ms: f64,
    cpu_us_per_req: f64,
}

/// The result of one run.
struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// fg-serve's own figures in the timed phase, before the control ratio.
    fg: Figures,
    setup_s: f64,
    rss_mb: f64,
}

fn run(args: &Args, w: &Workload) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let callers = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let tag = format!("{}-s{}-p{}", w.name, args.seed, std::process::id());
    let config_path = args.out.join(format!("serve-config-{tag}.json"));
    let config = serve_config(&args.server, &config_path)?;

    let mut phases: Vec<(&str, Instant)> = vec![("start", Instant::now())];
    let mut requests = plan::stream(w, args.seed, args.tiny);
    phases.push(("stream", Instant::now()));
    let stream_len = requests.len();
    let plan = Plan::new(w, args.seconds, args.trace, args.tiny);
    plan.check(stream_len)?;
    requests.truncate(plan.total());
    let close_from = w.connect_per_request.then_some(plan.warmup);
    let frames = Frames::build(&requests, args.seed, close_from);
    let walked = if args.trace { plan.timed_range() } else { 0..0 };
    let reference = walk::reference(&config, &frames, &plan, w.ops, walked, origin)?;
    phases.push(("reference", Instant::now()));

    let mut boots = Vec::with_capacity(BOOTS);
    let mut server = None;
    for _ in 0..BOOTS {
        drop(server.take());
        let (s, took) = Server::boot(&args.server, &config_path)?;
        boots.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one boot");
    phases.push(("boots", Instant::now()));

    let scrapes = [
        (Sent::Metrics, plan::get_frame("/metrics", false)),
        (Sent::Traces, plan::get_frame("/debug/traces", false)),
    ];
    let traffic = Traffic {
        decide: &frames.decide,
        report: if w.ops { &frames.report } else { &[] },
        scrapes: if w.ops { &scrapes } else { &[] },
        connect_per_request: w.connect_per_request,
    };

    // Warm-up: the single-caller parity pass, reply by reply.
    let mut tally = Tally::default();
    let mut warm_totals = [0u64; KINDS.len()];
    wire::pipelined(server.addr, &traffic, plan.warmup_range(), |r| {
        if let Some(k) = tally.count(r) {
            warm_totals[k] += 1;
            if r.body != reference.bodies[r.index] {
                tally.failed += 1;
                tally.mismatched += 1;
            }
        }
    })
    .map_err(|e| format!("warm-up: {e}"))?;
    phases.push(("warm-up", Instant::now()));

    let server_cpu0 = procfs::cpu_us(server.pid).map_err(|e| e.to_string())?;
    let client_cpu0 = procfs::cpu_us(std::process::id()).map_err(|e| e.to_string())?;
    let control = control::Control::start().map_err(|e| format!("control server: {e}"))?;
    let timed = wire::closed_loop(
        server.addr,
        &traffic,
        plan.timed_range(),
        callers,
        false,
        Some(control.addr),
        origin,
    );
    let server_cpu = procfs::cpu_us(server.pid).map_err(|e| e.to_string())? - server_cpu0;
    let control_cpu_us = control.stop() as f64 / 1e3;
    let client_cpu = procfs::cpu_us(std::process::id()).map_err(|e| e.to_string())? - client_cpu0;
    let rss_mb = procfs::peak_rss_mib(server.pid).map_err(|e| e.to_string())?;
    phases.push(("timed", Instant::now()));

    let timed_totals = tally.phase(&timed.replies);
    // With two callers an outcome report can overtake the next decision
    // for the same IP, so `ops` is checked reply by reply on the
    // single-caller pass only.
    if !w.ops {
        tally.compare(&timed_totals, &reference.totals(plan.timed_range()));
    }
    let lat = latencies_ms(&timed.replies, Sent::Decide);
    let n_timed = lat.len();
    let setup_s = stats::median(&boots);
    let fg = Figures {
        p50_ms: stats::percentile(&lat, 0.50),
        p90_ms: stats::percentile(&lat, 0.90),
        cpu_us_per_req: server_cpu as f64 / n_timed as f64,
    };
    let control_lat = latencies_ms(&timed.replies, Sent::Control);
    if control_lat.is_empty() || control_lat.last() == Some(&FAILED_LATENCY_MS) {
        return Err("the control server failed to answer".to_owned());
    }
    let control = Figures {
        p50_ms: stats::percentile(&control_lat, 0.50),
        p90_ms: stats::percentile(&control_lat, 0.90),
        cpu_us_per_req: control_cpu_us / control_lat.len() as f64,
    };

    println!(
        "servebench {} seed={} callers={callers} stream={stream_len} warmup={} timed={} traced={} open={}",
        w.name, args.seed, plan.warmup, plan.timed, plan.traced, plan.open
    );
    print_properties(w, &requests, &frames, &plan, &reference, callers);
    println!(
        "  decision mix   warm-up {}  timed {}",
        mix(&warm_totals),
        mix(&timed_totals)
    );

    println!(
        "  raw            fg-serve p50 {:.4} ms  p90 {:.4} ms  cpu {:.2} us/decision;  control p50 {:.4} ms  p90 {:.4} ms  cpu {:.2} us/request",
        fg.p50_ms, fg.p90_ms, fg.cpu_us_per_req, control.p50_ms, control.p90_ms, control.cpu_us_per_req
    );
    let mut metrics = if !args.trace {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("p50_vs_control", fg.p50_ms / control.p50_ms, "ratio"),
            metric("p90_vs_control", fg.p90_ms / control.p90_ms, "ratio"),
            metric(
                "cpu_vs_control",
                fg.cpu_us_per_req / control.cpu_us_per_req,
                "ratio",
            ),
            metric("rss_mb", rss_mb, "MiB"),
        ]
    } else {
        traced_run(TracedInput {
            args,
            w,
            config: &config,
            requests: &requests,
            frames: &frames,
            plan: &plan,
            reference: &reference,
            server: &server,
            traffic: &traffic,
            tally: &mut tally,
            callers,
            origin,
            tag: &tag,
            untraced: fg,
            control,
            timed: &timed.replies,
            timed_wall: timed.wall,
            client_cpu_per_req: (client_cpu as f64 - control_cpu_us) / n_timed as f64,
        })?
    };
    drop(server);
    let _ = std::fs::remove_file(&config_path);
    phases.push(("end", Instant::now()));
    let took: Vec<String> = phases
        .windows(2)
        .map(|p| format!("{} {:.2} s", p[1].0, (p[1].1 - p[0].1).as_secs_f64()))
        .collect();
    println!("  phases         {}", took.join(", "));

    let ok_share = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    if !args.trace {
        metrics.push(metric("ok_share", ok_share, "ratio"));
    }
    println!(
        "  checks         attempted {}  failed {}  mismatched {}  failed_share {:.6} ratio",
        tally.attempted,
        tally.failed,
        tally.mismatched,
        1.0 - ok_share
    );
    for m in &metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(RunOutput {
        correct: tally.mismatched == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fg,
        setup_s,
        rss_mb,
    })
}

fn mix(totals: &[u64; KINDS.len()]) -> String {
    let parts: Vec<String> = KINDS
        .iter()
        .zip(totals)
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    parts.join(" ")
}

/// The workload's properties over the timed phase, for citing which
/// workloads have the property a change depends on.
fn print_properties(
    w: &Workload,
    requests: &[fg_scenario::workload::WireRequest],
    frames: &Frames,
    plan: &Plan,
    reference: &walk::Reference,
    callers: usize,
) {
    let range = plan.timed_range();
    let n = range.len() as f64;
    let bots = requests[range.clone()].iter().filter(|r| r.is_bot).count() as f64;
    let reports = frames.outcome[range.clone()].iter().flatten().count() as f64;
    let new_conns = if w.connect_per_request {
        n
    } else {
        callers as f64
    };
    let live_keys: f64 = {
        let snap = reference.service.telemetry().metrics().snapshot();
        fg_scenario::app::TRACKED_MAPS
            .iter()
            .filter_map(|m| snap.gauge_value("fg_tracked_keys", &[("map", m)]))
            .sum()
    };
    println!(
        "  properties     stream {} h x {} arrivals/day; bot share {:.4}; new connections per request {:.4}; \
         reports per 1k decisions {:.1}; scrapes per 1k decisions {:.1}; live defence keys {}; ticks per 1k decisions {:.1}",
        w.horizon_hours,
        w.arrivals_per_day,
        bots / n,
        new_conns / n,
        if w.ops { reports / n * 1e3 } else { 0.0 },
        if w.ops { 2e3 / SCRAPE_EVERY as f64 } else { 0.0 },
        live_keys,
        ticks_in(requests, range) as f64 / n * 1e3,
    );
}

struct TracedInput<'a> {
    args: &'a Args,
    w: &'a Workload,
    config: &'a fg_serve::ServeConfig,
    requests: &'a [fg_scenario::workload::WireRequest],
    frames: &'a Frames,
    plan: &'a Plan,
    reference: &'a walk::Reference,
    server: &'a Server,
    traffic: &'a Traffic<'a>,
    tally: &'a mut Tally,
    callers: usize,
    origin: Instant,
    tag: &'a str,
    /// fg-serve's figures in the untraced timed phase.
    untraced: Figures,
    /// The control server's figures in the same phase.
    control: Figures,
    timed: &'a [Reply],
    timed_wall: Duration,
    client_cpu_per_req: f64,
}

fn scrape(addr: std::net::SocketAddr, path: &str) -> Result<(f64, String), String> {
    let (took, body) = wire::timed_get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    let text = String::from_utf8(body).map_err(|e| e.to_string())?;
    Ok((took.as_secs_f64() * 1e3, text))
}

/// The traced run's extra phases and walks, and its per-layer metrics.
fn traced_run(t: TracedInput<'_>) -> Result<Vec<Metric>, String> {
    let addr = t.server.addr;
    let (_, before) = scrape(addr, "/metrics")?;

    let cpu0 = procfs::cpu_us(t.server.pid).map_err(|e| e.to_string())?;
    let traced = wire::closed_loop(
        addr,
        t.traffic,
        t.plan.traced_range(),
        t.callers,
        true,
        None,
        t.origin,
    );
    let traced_cpu = procfs::cpu_us(t.server.pid).map_err(|e| e.to_string())? - cpu0;
    let traced_totals = t.tally.phase(&traced.replies);
    if !t.w.ops {
        t.tally
            .compare(&traced_totals, &t.reference.totals(t.plan.traced_range()));
    }

    let mut scrape_ms: Vec<f64> = traced
        .replies
        .iter()
        .chain(t.timed)
        .filter(|r| r.kind == Sent::Metrics && r.status == 200)
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    let mut after = String::new();
    for _ in 0..END_SCRAPES {
        let (ms, text) = scrape(addr, "/metrics")?;
        scrape_ms.push(ms);
        after = text;
    }
    let (_, traces) = scrape(addr, "/debug/traces")?;

    let decide_only = Traffic {
        report: &[],
        scrapes: &[],
        ..*t.traffic
    };
    let open = wire::open_loop(
        addr,
        &decide_only,
        t.plan.open_range(),
        t.w.open_loop_rps,
        OPEN_LOOP_SENDERS,
        t.origin,
    );
    t.tally.phase(&open.replies);

    let par = walk::parallel(
        t.config, t.requests, t.frames, t.plan, t.w.ops, t.callers, t.origin,
    )?;
    let ticks = walk::housekeeping(
        t.config,
        t.requests,
        t.frames,
        t.plan,
        t.w.ops,
        t.plan.timed_range(),
        t.origin,
    );
    let mut render_ms = Vec::new();
    let mut audit_cloned = 0;
    for _ in 0..END_SCRAPES {
        let started = Instant::now();
        let snap = t.reference.service.telemetry().snapshot();
        std::hint::black_box(snap.to_prometheus());
        render_ms.push(started.elapsed().as_secs_f64() * 1e3);
        audit_cloned = snap.audit.records.len();
    }

    let before = prom::parse(&before);
    let after = prom::parse(&after);
    let decide_200 = [("endpoint", "decide"), ("status", "200")];
    let route_us = prom::histogram_quantile_between(
        &before,
        &after,
        "fg_http_request_duration_seconds",
        &decide_200,
        0.5,
    )
    .unwrap_or(0.0)
        * 1e6;
    let refused = prom::sum(&after, "fg_http_requests_total", &[("status", "429")])
        + prom::sum(&after, "fg_http_5xx_total", &[])
        + prom::sum(&after, "fg_serve_breaker_trips_total", &[]);
    let tracked_keys = prom::sum(&after, "fg_tracked_keys", &[]);
    let traces: Value = serde_json::from_str(&traces).map_err(|e| format!("/debug/traces: {e}"))?;
    let count = |k: &str| traces.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    let kept_share = count("kept") / count("submitted").max(1.0);

    let lat = latencies_ms(t.timed, Sent::Decide);
    let traced_lat = latencies_ms(&traced.replies, Sent::Decide);
    let open_lat = latencies_ms(&open.replies, Sent::Decide);
    let late: Vec<f64> = stats::sorted(
        &open
            .replies
            .iter()
            .map(|r| r.late_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let n_timed = lat.len() as f64;
    let walk_st = t.reference.spans.self_times();
    let par_st = par.self_times();
    let mean =
        |st: &BTreeMap<&str, spans::SelfTime>, k: &str| st.get(k).map_or(0.0, |s| s.mean_us());
    let walked = walk_st.get("service.decide").map_or(1, |s| s.calls.max(1)) as f64;
    let tick_st = ticks.self_times();
    let n_ticks = tick_st.get("app.tick").map_or(0, |s| s.calls) as f64;
    let traced_p50_us = stats::percentile(&traced_lat, 0.5) * 1e3;

    let m = vec![
        metric("client.p50_ms", t.untraced.p50_ms, "ms"),
        metric("client.p90_ms", t.untraced.p90_ms, "ms"),
        metric("server.cpu_us_per_req", t.untraced.cpu_us_per_req, "us"),
        metric("control.p50_ms", t.control.p50_ms, "ms"),
        metric("control.p90_ms", t.control.p90_ms, "ms"),
        metric("control.cpu_us_per_req", t.control.cpu_us_per_req, "us"),
        metric("client.rps", n_timed / t.timed_wall.as_secs_f64(), "1/s"),
        metric("client.p99_ms", stats::percentile(&lat, 0.99), "ms"),
        metric("client.p999_ms", stats::percentile(&lat, 0.999), "ms"),
        metric("client.samples", n_timed, "count"),
        metric("client.cpu_us_per_req", t.client_cpu_per_req, "us"),
        metric(
            "client.p50_ms_at_rate",
            stats::percentile(&open_lat, 0.5),
            "ms",
        ),
        metric(
            "client.p99_ms_at_rate",
            stats::percentile(&open_lat, 0.99),
            "ms",
        ),
        metric("client.late_p99_ms", stats::percentile(&late, 0.99), "ms"),
        metric("server.route_us", route_us, "us"),
        metric("server.outside_route_us", traced_p50_us - route_us, "us"),
        metric("server.refused", refused, "count"),
        metric("http.parse_us", mean(&walk_st, "http.parse"), "us"),
        metric(
            "http.write_calls",
            t.reference.write_calls as f64 / walked,
            "count",
        ),
        metric("http.write_us", mean(&walk_st, "http.write"), "us"),
        metric(
            "serde_json.decode_us",
            mean(&walk_st, "serde_json.decode"),
            "us",
        ),
        metric(
            "serde_json.encode_us",
            mean(&walk_st, "serde_json.encode"),
            "us",
        ),
        metric(
            "serde_json.request_bytes",
            t.reference.request_bytes as f64 / walked,
            "bytes",
        ),
        metric(
            "serde_json.reply_bytes",
            t.reference.reply_bytes as f64 / walked,
            "bytes",
        ),
        metric("service.decide_us", mean(&walk_st, "service.decide"), "us"),
        metric(
            "service.lock_wait_us",
            mean(&par_st, "service.decide") - mean(&walk_st, "service.decide"),
            "us",
        ),
        metric("service.report_us", mean(&par_st, "service.report"), "us"),
        metric("app.tick_us", mean(&tick_st, "app.tick"), "us"),
        metric(
            "app.ticks_per_1k",
            n_ticks / t.plan.timed as f64 * 1e3,
            "count",
        ),
        metric("app.tracked_keys", tracked_keys, "count"),
        metric(
            "detection.assess_us",
            walk::stage_p50_us(t.reference.service.telemetry(), "detect.assess"),
            "us",
        ),
        metric(
            "mitigation.decide_us",
            walk::stage_p50_us(t.reference.service.telemetry(), "policy.decide"),
            "us",
        ),
        metric("telemetry.render_ms", stats::median(&render_ms), "ms"),
        metric("telemetry.audit_cloned", audit_cloned as f64, "count"),
        metric("telemetry.scrape_ms", stats::median(&scrape_ms), "ms"),
        metric(
            "telemetry.record_trace_us",
            mean(&walk_st, "telemetry.record_trace"),
            "us",
        ),
        metric("telemetry.trace_kept_share", kept_share, "ratio"),
    ];

    print_budget(
        &walk_st,
        &tick_st,
        n_ticks / t.plan.timed as f64,
        route_us,
        traced_p50_us,
    );
    let Figures {
        p50_ms: p50,
        p90_ms: p90,
        cpu_us_per_req: cpu,
    } = t.untraced;
    println!(
        "  tracing overhead (traced minus untraced timed phase): p50_ms {:+.4}  p90_ms {:+.4}  cpu_us_per_req {:+.3}",
        stats::percentile(&traced_lat, 0.5) - p50,
        stats::percentile(&traced_lat, 0.9) - p90,
        traced_cpu as f64 / traced_lat.len() as f64 - cpu,
    );

    let mut all = SpanLog::new(t.origin);
    for log in [traced.spans, par, ticks] {
        all.absorb(log);
    }
    let spans_path = t.args.out.join(format!("spans-{}.jsonl", t.tag));
    let file =
        std::fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    t.reference
        .spans
        .write_jsonl(&mut out)
        .and_then(|()| all.write_jsonl(&mut out))
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "  spans          {} written to {}",
        t.reference.spans.len() + all.len(),
        spans_path.display()
    );
    Ok(m)
}

/// The "where the microseconds go" table: in-process self time of each
/// layer call per decision, against fg-serve's own route time and the
/// client's p50.
fn print_budget(
    walk: &BTreeMap<&'static str, spans::SelfTime>,
    ticks: &BTreeMap<&'static str, spans::SelfTime>,
    ticks_per_decision: f64,
    route_us: f64,
    client_p50_us: f64,
) {
    let decisions = walk.get("service.decide").map_or(1, |s| s.calls.max(1)) as f64;
    println!("  where the microseconds go (per decision, traced phase; client p50 {client_p50_us:.1} us)");
    println!(
        "    {:<40} {:>10} {:>10} {:>8}",
        "layer", "us/call", "us/decide", "of p50"
    );
    let mut sum = 0.0;
    let row = |name: &str, per_call: f64, per_decide: f64| {
        println!(
            "    {:<40} {:>10.2} {:>10.2} {:>7.1}%",
            name,
            per_call,
            per_decide,
            per_decide / client_p50_us * 100.0
        );
    };
    for layer in [
        "http.parse",
        "serde_json.decode",
        "service.decide",
        "serde_json.encode",
        "http.write",
        "telemetry.record_trace",
        "service.report",
        "walk.request",
    ] {
        if let Some(s) = walk.get(layer) {
            let per_decide = s.self_ns as f64 / 1e3 / decisions;
            sum += per_decide;
            row(layer, s.mean_us(), per_decide);
        }
    }
    if let Some(s) = ticks.get("app.tick") {
        row(
            "  of which app.tick (inside service.decide)",
            s.mean_us(),
            s.mean_us() * ticks_per_decision,
        );
    }
    row("in-process sum", sum, sum);
    row(
        "server.route_us (fg-serve histogram p50)",
        route_us,
        route_us,
    );
    row(
        "server.outside_route_us (client p50 - route)",
        client_p50_us - route_us,
        client_p50_us - route_us,
    );
}

fn result_json(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let v = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(out.correct)),
        ("attempted".to_owned(), Value::UInt(out.attempted)),
        ("failed".to_owned(), Value::UInt(out.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}

/// Runs one workload in a child process and returns its result object.
fn child_run(args: &Args, workload: &str, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .arg("--server")
        .arg(&args.server)
        .arg("--out")
        .arg(&args.out);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed: Value = serde_json::from_str(last)
        .map_err(|_| format!("{workload} seed {seed} printed no result ({})", out.status))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {last}",
            out.status
        ));
    }
    Ok(parsed)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    let v = result.get("metrics")?.get(name)?.get("value")?;
    v.as_f64().or_else(|| v.as_u64().map(|u| u as f64))
}

fn selected(args: &Args) -> Vec<Workload> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect()
}

/// `--workload all`: every workload once, then one table of fg-serve's
/// own figures.
fn run_all(args: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for w in WORKLOADS {
        match run(args, &w) {
            Ok(out) if out.correct => rows.push((w.name, out)),
            Ok(_) => failures.push(format!("{}: replies differ from the reference", w.name)),
            Err(e) => failures.push(format!("{}: {e}", w.name)),
        }
    }
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>20} {:>12} {:>20}",
        "workload",
        "setup_s (s)",
        "p50_ms (ms)",
        "p90_ms (ms)",
        "cpu_us_per_req (us)",
        "rss_mb (MiB)",
        "failed_share (ratio)"
    );
    for (name, out) in &rows {
        println!(
            "{name:<10} {:>12.6} {:>12.6} {:>12.6} {:>20.3} {:>12.3} {:>20.6}",
            out.setup_s,
            out.fg.p50_ms,
            out.fg.p90_ms,
            out.fg.cpu_us_per_req,
            out.rss_mb,
            out.failed as f64 / out.attempted.max(1) as f64
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `--steadiness RUNS`: two sets of RUNS runs per workload, each run with
/// its own seed; per end-to-end metric, each set's quartiles and whether
/// the second set's median is within the metric's bound of the first's.
fn steadiness(args: &Args, runs: usize) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bench: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    let mut disagree = 0;
    for w in selected(args) {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for set in 0..2u64 {
            let seeds = (0..runs as u64).map(|k| args.seed + set * runs as u64 + k);
            sets.push(
                seeds
                    .map(|s| child_run(args, w.name, s))
                    .collect::<Result<_, _>>()?,
            );
        }
        println!("{} ({} runs per set)", w.name, runs);
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
            let values: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| set.iter().filter_map(|r| metric_value(r, name)).collect())
                .collect();
            let (a, b) = (stats::median(&values[0]), stats::median(&values[1]));
            let worse = if lower_is_better {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let agree = worse <= bound || a == b;
            disagree += usize::from(!agree);
            for (label, v) in ["A", "B"].iter().zip(&values) {
                let [q1, q2, q3] = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
                println!(
                    "  {name:<16} set {label}: q1 {q1:.6}  median {q2:.6}  q3 {q3:.6}  spread {:.4}",
                    stats::spread(v).unwrap_or(0.0)
                );
            }
            println!(
                "  {name:<16} B vs A: {:+.4} of A (bound {bound}) -> {}",
                worse,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    if disagree == 0 {
        Ok(())
    } else {
        Err(format!(
            "{disagree} metric(s) disagree between the two sets"
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("servebench: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.steadiness, args.workload.as_str()) {
        (Some(runs), _) => steadiness(&args, runs),
        (None, "all") => run_all(&args),
        (None, name) => {
            let w = plan::workload(name).expect("validated in parse_args");
            run(&args, &w).and_then(|out| {
                println!("{}", result_json(&out));
                if out.correct {
                    Ok(())
                } else {
                    Err("replies differ from the in-process reference".to_owned())
                }
            })
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("servebench: {why}");
            ExitCode::FAILURE
        }
    }
}
