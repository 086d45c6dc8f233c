//! The wire-replay load generator behind `fg-loadgen`.
//!
//! Generates a deterministic fg-behavior workload from a seed (see
//! [`fg_scenario::workload::generate`]), then replays it over HTTP/1.1
//! keep-alive connections against a running `fg-serve` — configurable
//! connection count and duration, each connection a closed loop — and
//! reports sustained decisions/sec with p50/p90/p99/p999 latency as a
//! schema-versioned `BENCH_serve.json`. A run longer than the stream replays
//! it in laps, each moved forward in session time.
//!
//! Request *content* is deterministic per seed; measured latency is
//! wall-clock by nature. The report separates the two: `seed` pins what was
//! sent, the latency block describes this run of this machine.

use fg_core::rng::splitmix64;
use fg_scenario::workload::{generate, WireRequest, WorkloadConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamp on `BENCH_serve.json`.
///
/// * v1 — counts, decisions/sec, latency percentiles.
/// * v2 — adds `statuses` (every status code seen, including 200) and
///   `slowest` (the k slowest exchanges with their decision trace ids, for
///   cross-referencing against the server's `/debug/traces`).
pub const SERVE_BENCH_SCHEMA: u32 = 2;

/// How many slowest exchanges the report retains.
pub const SLOW_SAMPLES: usize = 10;

/// Loadgen parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Target `host:port`.
    pub addr: String,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// How long to drive load.
    pub duration: Duration,
    /// Workload seed (what gets sent is a pure function of this).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8080".to_owned(),
            connections: 4,
            duration: Duration::from_secs(10),
            seed: 42,
        }
    }
}

/// The measured outcome, serialized as `BENCH_serve.json`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LoadReport {
    /// Format version ([`SERVE_BENCH_SCHEMA`]).
    pub schema: u32,
    /// Workload seed driven.
    pub seed: u64,
    /// Connections driven.
    pub connections: usize,
    /// Wall-clock duration actually driven, seconds.
    pub duration_secs: f64,
    /// Requests put on the wire.
    pub sent: u64,
    /// `200` decisions received.
    pub ok: u64,
    /// Non-200 responses by status code.
    pub errors: BTreeMap<u16, u64>,
    /// Transport failures (connect resets, short reads).
    pub transport_errors: u64,
    /// Sustained successful decisions per second.
    pub decisions_per_sec: f64,
    /// Response latency percentiles, milliseconds.
    pub latency_ms: LatencySummary,
    /// Decision kinds observed (allow/challenge/…) with counts.
    pub decisions: BTreeMap<String, u64>,
    /// Every status code seen with counts, including 200 (schema ≥ 2).
    pub statuses: BTreeMap<u16, u64>,
    /// The [`SLOW_SAMPLES`] slowest exchanges, worst first (schema ≥ 2).
    pub slowest: Vec<SlowRequest>,
}

/// One of the slowest exchanges of the run: how slow, what came back, and
/// the decision trace id to look up in the server's `/debug/traces`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SlowRequest {
    /// Round-trip latency, milliseconds.
    pub latency_ms: f64,
    /// HTTP status of the response.
    pub status: u16,
    /// The decision's trace id (16 lowercase hex), when the response was a
    /// 200 decision; `None` for errors and sheds.
    pub trace_id: Option<String>,
}

/// Latency percentiles in milliseconds.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed.
    pub max: f64,
}

impl LoadReport {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("load report serializes")
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1_000_000.0
}

/// The distance between laps of a replayed stream: its session-clock
/// range plus 1 ms, so each lap starts after the previous one ends.
fn lap_span(requests: &[WireRequest]) -> u64 {
    let clocks = requests.iter().map(|r| r.now_ms);
    match (clocks.clone().min(), clocks.max()) {
        (Some(first), Some(last)) => (last - first).saturating_add(1),
        _ => 1,
    }
}

/// Request `n` of a replay that laps `requests` endlessly:
/// `requests[n % len]` with its session clock moved forward by
/// `(n / len) × span`, saturating at `u64::MAX` (`span` from
/// [`lap_span`]). Replayed unchanged, every lap after the first would
/// send each clock back by the stream's span. `None` for an empty stream.
fn lapped_request(requests: &[WireRequest], span: u64, n: u64) -> Option<WireRequest> {
    let len = requests.len() as u64;
    let index = usize::try_from(n.checked_rem(len)?).ok()?;
    let mut request = requests.get(index)?.clone();
    request.now_ms = request
        .now_ms
        .saturating_add((n / len).saturating_mul(span));
    Some(request)
}

/// The W3C `traceparent` injected with the `n`-th request of `seed`'s
/// workload. A pure function of `(seed, n)`, so two replays of the same
/// seed put identical trace ids on the wire and server-side traces can be
/// correlated run-to-run.
pub fn traceparent_for(seed: u64, n: u64) -> String {
    let hi = splitmix64(seed ^ splitmix64(n));
    let lo = splitmix64(hi.wrapping_add(n)).max(1); // all-zero trace id is invalid
    let parent = splitmix64(lo).max(1);
    format!("00-{hi:016x}{lo:016x}-{parent:016x}-01")
}

struct WorkerOutcome {
    sent: u64,
    ok: u64,
    errors: BTreeMap<u16, u64>,
    transport_errors: u64,
    latencies_ns: Vec<u64>,
    decisions: BTreeMap<String, u64>,
    statuses: BTreeMap<u16, u64>,
    slowest: Vec<SlowRequest>,
}

/// Keeps `slowest` bounded: compact to the worst [`SLOW_SAMPLES`] once the
/// buffer grows past a small multiple of the target.
fn compact_slowest(slowest: &mut Vec<SlowRequest>) {
    if slowest.len() >= SLOW_SAMPLES * 8 {
        slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
        slowest.truncate(SLOW_SAMPLES);
    }
}

/// Drives the configured load and measures. Fails fast (`Err`) only when
/// the target is unreachable at start; per-request transport errors during
/// the run are counted, not fatal.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, String> {
    // Probe first so "nothing is listening" is a crisp failure.
    TcpStream::connect(&config.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", config.addr))?;

    let workload = generate(&WorkloadConfig {
        seed: config.seed,
        ..WorkloadConfig::default()
    });
    if workload.requests.is_empty() {
        return Err("generated workload is empty".to_owned());
    }
    let span = lap_span(&workload.requests);
    let requests = Arc::new(workload.requests);
    let connections = config.connections.max(1);
    let next_index = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;

    let mut handles = Vec::with_capacity(connections);
    for _ in 0..connections {
        let addr = config.addr.clone();
        let requests = requests.clone();
        let next_index = next_index.clone();
        let seed = config.seed;
        handles.push(std::thread::spawn(move || {
            drive_connection(&addr, &requests, span, &next_index, seed, deadline)
        }));
    }

    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut errors: BTreeMap<u16, u64> = BTreeMap::new();
    let mut transport_errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut decisions: BTreeMap<String, u64> = BTreeMap::new();
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut slowest: Vec<SlowRequest> = Vec::new();
    for h in handles {
        let outcome = h.join().map_err(|_| "load worker panicked".to_owned())?;
        sent += outcome.sent;
        ok += outcome.ok;
        transport_errors += outcome.transport_errors;
        for (k, v) in outcome.errors {
            *errors.entry(k).or_default() += v;
        }
        for (k, v) in outcome.decisions {
            *decisions.entry(k).or_default() += v;
        }
        for (k, v) in outcome.statuses {
            *statuses.entry(k).or_default() += v;
        }
        latencies.extend(outcome.latencies_ns);
        slowest.extend(outcome.slowest);
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    slowest.truncate(SLOW_SAMPLES);
    Ok(LoadReport {
        schema: SERVE_BENCH_SCHEMA,
        seed: config.seed,
        connections,
        duration_secs: elapsed,
        sent,
        ok,
        errors,
        transport_errors,
        decisions_per_sec: ok as f64 / elapsed,
        latency_ms: LatencySummary {
            p50: percentile(&latencies, 0.50),
            p90: percentile(&latencies, 0.90),
            p99: percentile(&latencies, 0.99),
            p999: percentile(&latencies, 0.999),
            max: latencies.last().map_or(0.0, |&n| n as f64 / 1_000_000.0),
        },
        decisions,
        statuses,
        slowest,
    })
}

fn drive_connection(
    addr: &str,
    requests: &[WireRequest],
    span: u64,
    next_index: &AtomicU64,
    seed: u64,
    deadline: Instant,
) -> WorkerOutcome {
    let mut outcome = WorkerOutcome {
        sent: 0,
        ok: 0,
        errors: BTreeMap::new(),
        transport_errors: 0,
        latencies_ns: Vec::new(),
        decisions: BTreeMap::new(),
        statuses: BTreeMap::new(),
        slowest: Vec::new(),
    };
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    while Instant::now() < deadline {
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                    let read_half = match s.try_clone() {
                        Ok(r) => r,
                        Err(_) => {
                            outcome.transport_errors += 1;
                            continue;
                        }
                    };
                    conn = Some((BufReader::new(read_half), s));
                }
                Err(_) => {
                    outcome.transport_errors += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            }
        }
        let n = next_index.fetch_add(1, Ordering::Relaxed);
        let request = lapped_request(requests, span, n).expect("run() rejects an empty stream");
        let body = serde_json::to_string(&request)
            .expect("request serializes")
            .into_bytes();
        let traceparent = traceparent_for(seed, n);
        let (reader, writer) = conn.as_mut().expect("connection just ensured");
        let t0 = Instant::now();
        match exchange(reader, writer, &body, &traceparent) {
            Ok((status, resp_body)) => {
                let elapsed_ns = t0.elapsed().as_nanos() as u64;
                outcome.sent += 1;
                outcome.latencies_ns.push(elapsed_ns);
                *outcome.statuses.entry(status).or_default() += 1;
                let mut trace_id = None;
                if status == 200 {
                    outcome.ok += 1;
                    let parsed = std::str::from_utf8(&resp_body)
                        .ok()
                        .and_then(|t| serde_json::from_str::<serde_json::Value>(t).ok());
                    if let Some(d) = parsed
                        .as_ref()
                        .and_then(|v| v.get("decision"))
                        .and_then(|d| d.as_str())
                    {
                        *outcome.decisions.entry(d.to_owned()).or_default() += 1;
                    }
                    trace_id = parsed
                        .as_ref()
                        .and_then(|v| v.get("trace_id"))
                        .and_then(|t| t.as_u64())
                        .map(|id| format!("{id:016x}"));
                } else {
                    *outcome.errors.entry(status).or_default() += 1;
                    if status == 429 || status == 503 {
                        // Shed or breaker-open: back off a beat.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                outcome.slowest.push(SlowRequest {
                    latency_ms: elapsed_ns as f64 / 1_000_000.0,
                    status,
                    trace_id,
                });
                compact_slowest(&mut outcome.slowest);
            }
            Err(_) => {
                outcome.transport_errors += 1;
                conn = None; // reconnect next iteration
            }
        }
    }
    outcome
}

/// One POST /v1/decide round trip over an established connection, carrying
/// a deterministic `traceparent` so server-side spans correlate to the
/// replay position.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    body: &[u8],
    traceparent: &str,
) -> std::io::Result<(u16, Vec<u8>)> {
    write!(
        writer,
        "POST /v1/decide HTTP/1.1\r\nHost: fg-serve\r\nContent-Type: application/json\r\nTraceparent: {traceparent}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body)?;
    writer.flush()?;
    read_response(reader)
}

/// Minimal HTTP/1.1 response reader: status line, headers (Content-Length
/// framing only — matching what fg-serve emits), body.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, Vec<u8>)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed in headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_distribution() {
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect(); // 1..=1000 ms
        assert!((percentile(&ns, 0.50) - 500.0).abs() <= 1.0);
        assert!((percentile(&ns, 0.99) - 990.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn laps_move_the_clock_forward_by_the_span() {
        let requests = generate(&WorkloadConfig {
            seed: 5,
            horizon_hours: 1,
            arrivals_per_day: 200.0,
            seat_spinner: false,
            sms_pumper: false,
        })
        .requests;
        let len = requests.len() as u64;
        assert!(len > 1, "{len}");
        let span = lap_span(&requests);
        let clock = |n: u64| lapped_request(&requests, span, n).unwrap().now_ms;
        for n in 0..len {
            // Lap 0 is the stream unchanged.
            assert_eq!(
                lapped_request(&requests, span, n).as_ref(),
                requests.get(n as usize)
            );
            for k in 1..4 {
                assert_eq!(clock(n + k * len), clock(n) + k * span, "n {n} lap {k}");
            }
        }
        let earliest = (0..len).map(clock).min().unwrap();
        for k in 1..4 {
            let first = (k * len..(k + 1) * len).map(clock).min().unwrap();
            let last_before = ((k - 1) * len..k * len).map(clock).max().unwrap();
            assert!(
                first > last_before,
                "lap {k} starts at {first}, lap {} ends at {last_before}",
                k - 1
            );
            assert_eq!(first, earliest + k * span);
        }
        assert_eq!(clock(len * (u64::MAX / span + 1)), u64::MAX, "saturates");
        assert_eq!(clock(u64::MAX), u64::MAX, "saturates");
        assert_eq!(lapped_request(&[], span, 3), None);
    }

    #[test]
    fn traceparent_is_deterministic_and_well_formed() {
        let a = traceparent_for(42, 7);
        assert_eq!(a, "00-6eab8625df268fbcb8b7dd271e557387-e0e932cb807cfc05-01");
        assert_eq!(a, traceparent_for(42, 7));
        assert_ne!(a, traceparent_for(42, 8));
        assert_ne!(a, traceparent_for(43, 7));
        let parts: Vec<&str> = a.split('-').collect();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], "00");
        assert_eq!(parts[1].len(), 32);
        assert_eq!(parts[2].len(), 16);
        assert_eq!(parts[3], "01");
        assert!(parts[1].bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(crate::observe::TraceParent::parse(&a).is_some());
    }

    #[test]
    fn response_reader_handles_a_canned_exchange() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let (status, body) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{}");
    }
}
