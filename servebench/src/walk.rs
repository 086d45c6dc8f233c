//! The in-process side: the reference replay that every wire reply is
//! checked against, which doubles as the single-caller layer walk, plus
//! the `nproc`-caller walk and the housekeeping walk of the traced run.
//!
//! Each walk feeds the same request bytes the callers send through the
//! layers' public functions, in the order fg-serve calls them, and wraps a
//! span around each call.

use crate::plan::{Frames, Plan};
use crate::spans::{SpanLog, NO_PARENT};
use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_scenario::app::{AppConfig, DefendedApp, GateDecision};
use fg_scenario::workload::WireRequest;
use fg_serve::http::{read_request, Limits, Response};
use fg_serve::{DecisionService, ServeConfig, TraceParent};
use fg_telemetry::hist::{bucket_high, bucket_low};
use fg_telemetry::{HistSnapshot, Telemetry, TraceConfig};
use std::io::{Cursor, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Decision kinds as `/v1/decide` spells them; counts are indexed by
/// position.
pub const KINDS: [&str; 6] = [
    "allow",
    "challenge",
    "rate-limited",
    "tier-denied",
    "honeypot",
    "block",
];

/// Housekeeping cadence of `DecisionService`, session-clock milliseconds.
pub const TICK_EVERY_MS: u64 = 5 * 60 * 1_000;

/// The decision kind of a `/v1/decide` reply body; `None` unless the body
/// is a well-formed decision.
pub fn kind_of(body: &[u8]) -> Option<usize> {
    let reply: GateDecision = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    kind_index(&reply)
}

fn kind_index(d: &GateDecision) -> Option<usize> {
    let name = d.decision.to_string();
    KINDS.iter().position(|k| *k == name)
}

/// A decision service built the way fg-serve builds its own: the same
/// config, with span tracing on over a ring of the same size.
pub fn service(config: &ServeConfig) -> DecisionService {
    let telemetry = Telemetry::shared();
    telemetry.enable_tracing(TraceConfig {
        capacity: config.observe.trace_capacity,
        ..TraceConfig::default()
    });
    DecisionService::new(config, telemetry)
}

/// A `Write` that keeps nothing and counts the calls made on it.
#[derive(Default)]
struct CountingSink {
    calls: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the reference replay produced.
pub struct Reference {
    /// Exact reply body per warm-up index: the single-caller pass must
    /// match each byte for byte.
    pub bodies: Vec<Vec<u8>>,
    /// Decision kind (index into [`KINDS`]) per stream index of the plan.
    pub kinds: Vec<u8>,
    /// Spans over the traced range (empty when untraced).
    pub spans: SpanLog,
    /// `write` calls made by `Response::write_to` over the traced range.
    pub write_calls: u64,
    /// Request and reply body bytes over the traced range.
    pub request_bytes: u64,
    /// Reply body bytes over the traced range.
    pub reply_bytes: u64,
    /// The service after the replay, its audit ring full.
    pub service: DecisionService,
}

impl Reference {
    /// Per-kind decision totals over `range`.
    pub fn totals(&self, range: std::ops::Range<usize>) -> [u64; KINDS.len()] {
        let mut out = [0; KINDS.len()];
        for &k in &self.kinds[range] {
            out[k as usize] += 1;
        }
        out
    }
}

/// Replays the plan's whole prefix through the decision path in stream
/// order, exactly as one caller on one connection would see it: parse the
/// framed bytes, decode the body, decide, encode, write the response, and
/// submit the trace; in `ops` each outcome report follows its decision.
/// Spans are recorded over `traced`.
pub fn reference(
    config: &ServeConfig,
    frames: &Frames,
    plan: &Plan,
    ops: bool,
    traced: std::ops::Range<usize>,
    origin: Instant,
) -> Result<Reference, String> {
    let limits = Limits::default();
    let mut out = Reference {
        bodies: Vec::with_capacity(plan.warmup),
        kinds: Vec::with_capacity(plan.total()),
        spans: SpanLog::new(origin),
        write_calls: 0,
        request_bytes: 0,
        reply_bytes: 0,
        service: service(config),
    };
    let svc = &out.service;
    for i in 0..plan.total() {
        let t_req = Instant::now();
        let request = read_request(&mut Cursor::new(&frames.decide[i]), &limits)
            .map_err(|e| format!("request {i} does not parse: {e:?}"))?;
        let t_parsed = Instant::now();
        let wire: WireRequest = std::str::from_utf8(&request.body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(|e| format!("request {i} does not decode: {e}"))?;
        let t_decoded = Instant::now();
        let (decision, trace) = svc.decide_traced(&wire);
        let t_decided = Instant::now();
        let body = serde_json::to_string(&decision).map_err(|e| e.to_string())?;
        let t_encoded = Instant::now();
        let mut response = Response::json(200, body.into_bytes());
        if let Some(parent) = request.header("traceparent").and_then(TraceParent::parse) {
            response = response.with_header("traceparent", parent.echo(decision.trace_id));
        }
        response.close = !request.wants_keep_alive();
        let mut sink = CountingSink::default();
        response.write_to(&mut sink).map_err(|e| e.to_string())?;
        let t_written = Instant::now();
        if let Some(tr) = trace {
            svc.telemetry().record_trace(tr);
        }
        let t_recorded = Instant::now();
        if ops {
            if let Some(outcome) = &frames.outcome[i] {
                svc.report(outcome)?;
            }
        }
        let t_done = Instant::now();

        let kind = kind_index(&decision)
            .ok_or_else(|| format!("unknown decision kind {}", decision.decision))?;
        out.kinds.push(kind as u8);
        if i < plan.warmup {
            out.bodies.push(response.body.clone());
        }
        if traced.contains(&i) {
            let req = i as u32;
            let log = &mut out.spans;
            let root = log.record("walk.request", req, NO_PARENT, t_req, t_done);
            log.record("http.parse", req, root, t_req, t_parsed);
            log.record("serde_json.decode", req, root, t_parsed, t_decoded);
            log.record("service.decide", req, root, t_decoded, t_decided);
            log.record("serde_json.encode", req, root, t_decided, t_encoded);
            log.record("http.write", req, root, t_encoded, t_written);
            log.record("telemetry.record_trace", req, root, t_written, t_recorded);
            if ops && frames.outcome[i].is_some() {
                log.record("service.report", req, root, t_recorded, t_done);
            }
            out.write_calls += sink.calls;
            out.request_bytes += request.body.len() as u64;
            out.reply_bytes += response.body.len() as u64;
        }
    }
    Ok(out)
}

/// The same decision calls from `callers` threads on one shared service,
/// after an untimed in-process warm-up over the plan's warm-up range; in
/// `ops` each caller also posts the decision's outcome report, untimed.
/// The difference from the single-caller walk is time spent waiting for
/// the service's lock. Afterwards one caller times `report` over the timed
/// range's outcomes, on every workload.
pub fn parallel(
    config: &ServeConfig,
    requests: &[WireRequest],
    frames: &Frames,
    plan: &Plan,
    ops: bool,
    callers: usize,
    origin: Instant,
) -> Result<SpanLog, String> {
    let svc = service(config);
    let report = |i: usize| match (ops, &frames.outcome[i]) {
        (true, Some(outcome)) => svc.report(outcome).map(drop),
        _ => Ok(()),
    };
    for i in plan.warmup_range() {
        svc.decide(&requests[i]);
        report(i)?;
    }
    let range = plan.timed_range();
    let cursor = AtomicUsize::new(range.start);
    let logs: Vec<Result<SpanLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                let (svc, cursor, range, report) = (&svc, &cursor, range.clone(), &report);
                s.spawn(move || {
                    let mut log = SpanLog::new(origin);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            return Ok(log);
                        }
                        let (_, trace) = log.time("service.decide", i as u32, NO_PARENT, || {
                            svc.decide_traced(&requests[i])
                        });
                        if let Some(tr) = trace {
                            svc.telemetry().record_trace(tr);
                        }
                        report(i)?;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("walk caller panicked"))
            .collect()
    });
    let mut spans = SpanLog::new(origin);
    for log in logs {
        spans.absorb(log?);
    }
    for i in range {
        if let Some(outcome) = &frames.outcome[i] {
            spans.time("service.report", i as u32, NO_PARENT, || {
                svc.report(outcome)
            })?;
        }
    }
    Ok(spans)
}

/// Feeds the plan's prefix to a bare `DefendedApp` built as the service
/// builds its own, running `DefendedApp::tick` at the service's
/// housekeeping cadence, and times every tick over `timed`. Returns the
/// spans and the number of decisions walked over `timed`.
pub fn housekeeping(
    config: &ServeConfig,
    requests: &[WireRequest],
    frames: &Frames,
    plan: &Plan,
    ops: bool,
    timed: std::ops::Range<usize>,
    origin: Instant,
) -> SpanLog {
    let concurrency = if config.shards <= 1 {
        ConcurrencyMode::Deterministic
    } else {
        ConcurrencyMode::Sharded {
            shards: config.shards,
        }
    };
    let mut app = DefendedApp::new(
        AppConfig::airline(config.policy.clone()).with_concurrency(concurrency),
        config.seed,
    );
    let mut log = SpanLog::new(origin);
    let mut last_tick = 0u64;
    for (i, req) in requests.iter().enumerate().take(plan.total()) {
        if req.now_ms >= last_tick.saturating_add(TICK_EVERY_MS) {
            let now = SimTime::from_millis(req.now_ms);
            if timed.contains(&i) {
                log.time("app.tick", i as u32, NO_PARENT, || app.tick(now));
            } else {
                app.tick(now);
            }
            last_tick = req.now_ms;
        }
        app.decide_request(&req.client_request(), req.endpoint, req.booking, req.now());
        if let (true, Some(o)) = (ops, &frames.outcome[i]) {
            app.detection_mut().reputation_mut().report(
                o.ip,
                o.score,
                SimTime::from_millis(o.now_ms),
            );
        }
    }
    log
}

/// The `q` quantile of a stage histogram in microseconds, interpolated
/// linearly inside the bucket holding the rank.
pub fn hist_quantile_us(h: &HistSnapshot, q: f64) -> f64 {
    let rank = q * h.count as f64;
    let mut below = 0.0;
    for &(i, c) in &h.buckets {
        let c = c as f64;
        if below + c >= rank {
            let (lo, hi) = (
                bucket_low(i as usize) as f64,
                bucket_high(i as usize) as f64,
            );
            return (lo + (hi - lo) * (rank - below) / c) / 1_000.0;
        }
        below += c;
    }
    h.max as f64 / 1_000.0
}

/// The p50 of a named stage histogram of `telemetry`, microseconds.
pub fn stage_p50_us(telemetry: &Telemetry, stage: &str) -> f64 {
    telemetry
        .profiler()
        .snapshot()
        .iter()
        .find(|s| s.stage == stage)
        .map_or(0.0, |s| hist_quantile_us(&s.hist, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_telemetry::Hist;

    #[test]
    fn stage_quantiles_interpolate_inside_buckets() {
        let mut h = Hist::new();
        for ns in [1_000u64, 1_000, 3_000, 3_000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        let p50 = hist_quantile_us(&snap, 0.5);
        // Rank 2 of 4 is the top of the bucket holding 1 µs.
        let idx = fg_telemetry::hist::bucket_index(1_000);
        assert!(
            (p50 - bucket_high(idx) as f64 / 1_000.0).abs() < 1e-9,
            "{p50}"
        );
        let p75 = hist_quantile_us(&snap, 0.75);
        assert!(p75 > 2.9 && p75 < 3.1, "{p75}");
    }

    #[test]
    fn reply_kinds_are_read_from_a_well_formed_decision() {
        let d = GateDecision {
            trace_id: 1,
            decision: fg_mitigation::policy::Decision::TierDenied,
            reasons: vec!["tier".to_owned()],
            score: 0.25,
            signals: Vec::new(),
        };
        let body = serde_json::to_string(&d).unwrap();
        assert_eq!(kind_of(body.as_bytes()), Some(3));
        assert_eq!(kind_of(br#"{"decision":"Allow"}"#), None);
        assert_eq!(kind_of(b"not json"), None);
    }
}
