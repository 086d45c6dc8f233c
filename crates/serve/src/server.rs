//! The HTTP server: accept loop, fixed worker pool, bounded hand-off
//! queue, background thread, and graceful drain.
//!
//! Threading model: one accept thread pushes connections into a bounded
//! `sync_channel`; `workers` threads block on it and drive keep-alive
//! sessions, one request at a time each. One background thread wakes every
//! 500 ms: it re-reads the watched config file, when there is one, and
//! hot-applies a change, then runs one embedded-sentinel pass. fg-serve
//! turns a well-formed request away in exactly two places: a full queue
//! sheds the connection with `429` instead of letting it queue invisibly,
//! and an open circuit breaker answers `POST /v1/decide` with `503`.
//! Workers poll the drain flag between requests (reads time out every
//! 250 ms); at drain the accept thread stops and drops the queue's sender,
//! so workers finish what is queued and return once the channel reports it
//! closed, and the background thread returns within one 25 ms nap. A
//! `SIGTERM` thus finishes in-flight and queued exchanges and answers
//! nothing new.

use crate::breaker::CircuitBreaker;
use crate::config::ServeConfig;
use crate::http::{self, Limits, ParseError, Request, Response, STATUSES};
use crate::observe::{
    path_of, query_param, serve_slo_policy, FlightRecorder, RequestSummary, TraceParent,
};
use crate::service::{DecisionService, OutcomeReport};
use fg_core::time::SimTime;
use fg_scenario::workload::WireRequest;
use fg_sentinel::{AlertEvent, AlertPolicy, Sentinel};
use fg_telemetry::metrics::{Counter, Gauge, Latency};
use fg_telemetry::trace::{JsonBody, TraceConfig};
use fg_telemetry::{AttrValue, HistSnapshot, RequestTrace, Telemetry};
use serde::Serialize;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake to poll the drain flag.
const READ_POLL: Duration = Duration::from_millis(250);
/// Idle keep-alive connections are closed after this long without a byte.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);
/// How often the background thread re-reads the watched config and runs
/// the embedded sentinel.
const BACKGROUND_POLL: Duration = Duration::from_millis(500);
/// Flight-recorder ring size (the last N request summaries).
const FLIGHT_RECORDER_ENTRIES: usize = 256;

/// Endpoint classes for metrics, in metric-cell order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Decide,
    Report,
    Observe,
    Other,
}

impl Class {
    const ALL: [Class; 4] = [Class::Decide, Class::Report, Class::Observe, Class::Other];

    fn label(self) -> &'static str {
        match self {
            Class::Decide => "decide",
            Class::Report => "report",
            Class::Observe => "observe",
            Class::Other => "other",
        }
    }
}

/// Pre-registered per-endpoint/status counters plus the shed/reload
/// tallies — the serving layer's additions to the Prometheus export.
struct HttpMetrics {
    /// One cell per (class, status) pair, class-major in [`Class::ALL`] and
    /// [`STATUSES`] order: `fg_http_requests_total{endpoint, status}`
    /// and `fg_http_request_duration_seconds{endpoint, status}`, a
    /// log-linear latency histogram.
    cells: Vec<(Counter, Latency)>,
    /// `fg_http_request_p99_seconds{endpoint}` in [`Class::ALL`] order —
    /// refreshed by the sentinel tick from the class's merged cells.
    p99: Vec<Gauge>,
    /// Aggregate 5xx counter the `serve-5xx-burn` alert watches.
    errors_5xx: Counter,
    /// Breaker trips, counted on the exchange whose failure opened the
    /// breaker; the `serve-breaker-trips` rule differentiates it.
    breaker_trips: Counter,
    /// Alerts currently firing in the embedded sentinel.
    active_alerts: Gauge,
    shed: Counter,
    connections: Counter,
    reload_applied: Counter,
    reload_rejected: Counter,
}

impl HttpMetrics {
    fn register(telemetry: &Telemetry) -> Self {
        let registry = telemetry.metrics();
        registry.set_help(
            "fg_http_requests_total",
            "HTTP responses sent, by endpoint class and status",
        );
        registry.set_help(
            "fg_http_shed_total",
            "Connections shed on a full accept queue",
        );
        registry.set_help("fg_http_connections_total", "Connections accepted");
        registry.set_help(
            "fg_config_reload_total",
            "Config hot-reload attempts, by outcome",
        );
        registry.set_help(
            "fg_http_request_duration_seconds",
            "Request service latency by endpoint class and status (log-linear histogram)",
        );
        registry.set_help(
            "fg_http_request_p99_seconds",
            "Served p99 latency per endpoint class over the process lifetime",
        );
        registry.set_help("fg_http_5xx_total", "Server-error (5xx) responses sent");
        registry.set_help(
            "fg_serve_breaker_trips_total",
            "Circuit-breaker open transitions since boot",
        );
        registry.set_help(
            "fg_serve_active_alerts",
            "Serve-SLO alerts currently firing in the embedded sentinel",
        );
        let mut cells = Vec::new();
        let mut p99 = Vec::new();
        for class in Class::ALL {
            for (status, _) in STATUSES {
                let status = status.to_string();
                let labels = [("endpoint", class.label()), ("status", status.as_str())];
                cells.push((
                    registry.counter_with("fg_http_requests_total", &labels),
                    registry.latency_with("fg_http_request_duration_seconds", &labels),
                ));
            }
            p99.push(registry.gauge_with(
                "fg_http_request_p99_seconds",
                &[("endpoint", class.label())],
            ));
        }
        HttpMetrics {
            cells,
            p99,
            errors_5xx: registry.counter("fg_http_5xx_total"),
            breaker_trips: registry.counter("fg_serve_breaker_trips_total"),
            active_alerts: registry.gauge("fg_serve_active_alerts"),
            shed: registry.counter("fg_http_shed_total"),
            connections: registry.counter("fg_http_connections_total"),
            reload_applied: registry
                .counter_with("fg_config_reload_total", &[("outcome", "applied")]),
            reload_rejected: registry
                .counter_with("fg_config_reload_total", &[("outcome", "rejected")]),
        }
    }

    /// Counts one response in its (class, status) cell, found by index,
    /// and returns the cell's latency histogram for the caller to record
    /// into; `None` for a status outside [`STATUSES`].
    fn on_response(&self, class: Class, status: u16) -> Option<&Latency> {
        if status >= 500 {
            self.errors_5xx.inc();
        }
        let column = http::status_index(status)?;
        let (count, latency) = self.cells.get(class as usize * STATUSES.len() + column)?;
        count.inc();
        Some(latency)
    }
}

/// Everything the workers and watcher share.
pub struct ServeState {
    service: DecisionService,
    telemetry: Arc<Telemetry>,
    metrics: HttpMetrics,
    breaker: CircuitBreaker,
    limits: Limits,
    /// Requests at or above this latency count as slow (the p99 SLO).
    slow: Duration,
    /// Wall-clock origin every `boot_ms` timestamp is relative to.
    boot: Instant,
    /// Monotone per-boot request sequence (flight-recorder ordering).
    request_seq: AtomicU64,
    flight: Mutex<FlightRecorder>,
    sentinel: Mutex<Sentinel>,
    draining: AtomicBool,
    /// Monotone config generation; bumped on every applied hot-reload.
    generation: AtomicU64,
    /// Human-readable outcome of the last reload attempt.
    last_reload: Mutex<String>,
    /// The currently effective config (hot fields updated on apply).
    active: Mutex<ServeConfig>,
}

/// What `decide()` hands to the response observer besides the reply;
/// every other endpoint hands over the empty default.
#[derive(Default)]
struct DecideMeta {
    /// The decision's trace id (0 when nothing was decided).
    trace_id: u64,
    /// The decision label, when a decision was made.
    decision: Option<&'static str>,
    /// The still-open request trace to append transport spans to.
    trace: Option<RequestTrace>,
    /// This exchange's handler failure opened the breaker.
    tripped: bool,
}

impl ServeState {
    fn new(config: ServeConfig, telemetry: Arc<Telemetry>) -> Self {
        // The live tracer ring: bounded, always on for the serving layer so
        // `/debug/traces` and the `/metrics` exemplars resolve from boot.
        telemetry.enable_tracing(TraceConfig {
            capacity: config.observe.trace_capacity,
        });
        let sentinel = Sentinel::new(serve_slo_policy(&config.observe), telemetry.metrics());
        ServeState {
            service: DecisionService::new(&config, telemetry.clone()),
            metrics: HttpMetrics::register(&telemetry),
            sentinel: Mutex::new(sentinel),
            telemetry,
            breaker: CircuitBreaker::new(config.breaker),
            limits: Limits::default(),
            slow: Duration::from_millis(config.observe.p99_slo_ms),
            boot: Instant::now(),
            request_seq: AtomicU64::new(0),
            flight: Mutex::new(FlightRecorder::new(FLIGHT_RECORDER_ENTRIES)),
            draining: AtomicBool::new(false),
            generation: AtomicU64::new(1),
            last_reload: Mutex::new("boot".to_owned()),
            active: Mutex::new(config),
        }
    }

    /// Milliseconds since boot — the serve sentinel's sim-time axis and
    /// every flight-recorder timestamp.
    fn boot_ms(&self) -> u64 {
        self.boot.elapsed().as_millis() as u64
    }

    /// Applied-config generation (1 at boot).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Outcome of the last hot-reload attempt.
    pub fn last_reload(&self) -> String {
        self.last_reload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Attempts to hot-apply `candidate`; returns the outcome string that
    /// `/readyz` surfaces. Validation failures leave everything untouched.
    pub fn try_reload(&self, raw: &str) -> Result<u64, String> {
        let outcome = self.reload_inner(raw);
        let mut last = self.last_reload.lock().unwrap_or_else(|e| e.into_inner());
        match &outcome {
            Ok(generation) => {
                self.metrics.reload_applied.inc();
                *last = format!("applied (generation {generation})");
            }
            Err(why) => {
                self.metrics.reload_rejected.inc();
                *last = format!("rejected: {why}");
            }
        }
        outcome
    }

    fn reload_inner(&self, raw: &str) -> Result<u64, String> {
        let candidate = ServeConfig::from_json(raw).map_err(|e| format!("parse: {e}"))?;
        candidate
            .validate()
            .map_err(|errors| format!("validation: {}", errors.join("; ")))?;
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active.hot_compatible(&candidate)?;
        // Point of no return: apply hot fields atomically under the lock.
        // An unchanged policy keeps its engine, and with it every limiter
        // bucket and block rule: only a posture change starts them afresh.
        if candidate.policy != active.policy {
            self.service.replace_policy(candidate.policy.clone());
        }
        self.breaker.reconfigure(candidate.breaker);
        active.policy = candidate.policy;
        active.breaker = candidate.breaker;
        Ok(self.generation.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Answers one parsed request through the route table below: it gives
    /// each served path its metric class and its one method, which reaches
    /// the handler; another method gets 405, an unknown path 404 (`other`).
    fn route(&self, req: &Request) -> Response {
        let started = Instant::now();
        let path = path_of(&req.target);
        let (class, method) = match path {
            "/v1/decide" => (Class::Decide, Some("POST")),
            "/v1/report" => (Class::Report, Some("POST")),
            "/metrics"
            | "/healthz"
            | "/readyz"
            | "/debug/traces"
            | "/debug/flightrecorder"
            | "/debug/alerts" => (Class::Observe, Some("GET")),
            _ => (Class::Other, None),
        };
        let (response, meta) = match method {
            Some(method) if req.method != method => (
                Response::error(405, "method not allowed"),
                DecideMeta::default(),
            ),
            _ => self.dispatch(path, req),
        };
        self.observe_response(class, req, response, started.elapsed(), meta)
    }

    /// Calls the handler of a path the route table serves.
    fn dispatch(&self, path: &str, req: &Request) -> (Response, DecideMeta) {
        let response = match path {
            "/v1/decide" => return self.decide(req),
            "/v1/report" => self.report(req),
            "/metrics" => Response::text(200, self.telemetry.snapshot().to_prometheus()),
            "/healthz" => Response::json(200, &b"{\"ok\":true}"[..]),
            "/readyz" => self.readyz(),
            "/debug/traces" => self.debug_traces(req),
            "/debug/flightrecorder" => self.debug_flightrecorder(),
            "/debug/alerts" => self.debug_alerts(),
            _ => Response::error(404, "no such endpoint"),
        };
        (response, DecideMeta::default())
    }

    /// Everything observability learns from one finished exchange: the
    /// (class, status) counter and latency cell, the trace with its
    /// transport span and, when the trace is worth keeping, its exemplar,
    /// the flight-recorder entry, and the `traceparent` echo.
    fn observe_response(
        &self,
        class: Class,
        req: &Request,
        mut response: Response,
        elapsed: Duration,
        meta: DecideMeta,
    ) -> Response {
        let status = response.status;
        let slow = elapsed >= self.slow;
        let trace_id = meta.trace_id;

        // Wire trace correlation: parse the caller's traceparent, echo the
        // same trace id back with our decision trace id as the parent span,
        // and stamp the wire ids onto the submitted trace. The decision
        // core's own trace id is never derived from the wire — decisions
        // stay byte-identical with and without the header.
        let wire = req.header("traceparent").and_then(TraceParent::parse);
        if let Some(w) = &wire {
            let seq_hint = self.request_seq.load(Ordering::Relaxed);
            let span = if trace_id != 0 { trace_id } else { seq_hint };
            response = response.with_header("traceparent", w.echo(span));
        }

        let mut trace = meta.trace;
        if let Some(tr) = &mut trace {
            let span = tr.stage("serve.http");
            tr.attr(span, "status", u64::from(status));
            tr.attr(span, "latency_us", elapsed.as_micros() as u64);
            tr.attr(span, "endpoint", class.label());
            if let Some(w) = wire {
                tr.attr(span, "wire.trace_id", w.trace_id_hex);
                tr.attr(span, "wire.parent_id", AttrValue::Hex16(w.parent_id));
            }
            if slow || status >= 500 {
                tr.pin();
            }
        }
        match (self.metrics.on_response(class, status), trace) {
            // Offer the exemplar, move the tracer's citation and submit the
            // trace under one tracer lock, so concurrent workers never leave
            // a trace cited that no slot holds, or a slot's trace uncited.
            (Some(hist), Some(tr)) if tr.is_important() => {
                let mut tracer = self.telemetry.tracer();
                let displaced = hist.record_with_exemplar(elapsed, trace_id);
                tracer.cite(trace_id, displaced);
                tracer.submit(tr);
            }
            (hist, trace) => {
                if let Some(hist) = hist {
                    hist.record(elapsed);
                }
                if let Some(tr) = trace {
                    self.telemetry.record_trace(tr);
                }
            }
        }

        self.record_flight(
            RequestSummary {
                endpoint: class.label(),
                request: format!("{} {}", req.method, path_of(&req.target)),
                status,
                decision: meta.decision,
                trace_id: (trace_id != 0).then(|| format!("{trace_id:016x}")),
                latency_us: elapsed.as_micros() as u64,
                slow,
                ..RequestSummary::default()
            },
            // Freeze on the exchange that opened the breaker, so the
            // requests that tripped it, this one included, stay
            // retrievable.
            meta.tripped.then_some("breaker-open"),
        );
        response
    }

    /// Counts and records an exchange answered before routing (a shed, a
    /// parse error) as class `other`, with no latency sample.
    fn record_unrouted(&self, request: String, status: u16, incident: Option<&'static str>) {
        self.metrics.on_response(Class::Other, status);
        self.record_flight(
            RequestSummary {
                endpoint: Class::Other.label(),
                request,
                status,
                ..RequestSummary::default()
            },
            incident,
        );
    }

    /// The flight recorder's one writer: numbers and stamps `summary`,
    /// appends it to the ring and, when `incident` names one, freezes the
    /// ring with it.
    fn record_flight(&self, mut summary: RequestSummary, incident: Option<&'static str>) {
        summary.seq = self.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        summary.boot_ms = self.boot_ms();
        let mut flight = self.flight.lock().unwrap_or_else(|e| e.into_inner());
        flight.record(summary);
        if let Some(reason) = incident {
            flight.freeze(reason, self.boot_ms());
        }
    }

    /// `GET /debug/traces[?trace_id=<16 hex>]`: the live tracer ring —
    /// sampling accounting, retained trace ids, and the spans themselves
    /// (optionally restricted to one trace) — as a streamed reply.
    ///
    /// Only the shared handles are taken under the tracer lock, which every
    /// decision also takes. After it is released the spans are sorted and
    /// measured here; the body is written as `write_to` sends the reply,
    /// one 64 KB buffer at a time, so it is never held whole. The
    /// exchange's latency, in `fg_http_request_duration_seconds{endpoint=
    /// "observe"}` and the flight recorder's `latency_us`, therefore covers
    /// the snapshot, the sort and the counting pass, but not the writing of
    /// the body, and both are recorded before the first byte is sent.
    fn debug_traces(&self, req: &Request) -> Response {
        let only = match query_param(&req.target, "trace_id") {
            None => None,
            Some(raw) => match u64::from_str_radix(raw, 16) {
                Ok(id) => Some(id),
                Err(_) => {
                    return Response::error(400, &format!("trace_id must be hex, got {raw:?}"))
                }
            },
        };
        let snapshot = self.telemetry.tracer().snapshot(only);
        Response::streamed_json(200, snapshot.into_json_body())
    }

    /// `GET /debug/flightrecorder`: the rolling last-N request ring plus
    /// the frozen copy captured at the first breaker-trip/shed incident.
    fn debug_flightrecorder(&self) -> Response {
        let snapshot = {
            let flight = self.flight.lock().unwrap_or_else(|e| e.into_inner());
            flight.snapshot()
        };
        json_reply(200, &snapshot)
    }

    /// `GET /debug/alerts`: the embedded sentinel's policy, currently
    /// firing count, and full lifecycle event history, written while the
    /// sentinel lock is held.
    fn debug_alerts(&self) -> Response {
        #[derive(Serialize)]
        struct Body<'a> {
            active: u64,
            events: &'a [AlertEvent],
            policy: &'a AlertPolicy,
        }
        let sentinel = self.sentinel.lock().unwrap_or_else(|e| e.into_inner());
        let body = Body {
            active: sentinel.active_alerts(),
            events: sentinel.events(),
            policy: sentinel.policy(),
        };
        json_reply(200, &body)
    }

    fn readyz(&self) -> Response {
        #[derive(Serialize)]
        struct Body<'a> {
            ready: bool,
            draining: bool,
            config_generation: u64,
            last_reload: &'a str,
            breaker: &'a str,
            decisions: u64,
        }
        let draining = self.draining();
        let last_reload = self.last_reload();
        let body = Body {
            ready: !draining,
            draining,
            config_generation: self.generation(),
            last_reload: &last_reload,
            breaker: self.breaker.state_name(),
            decisions: self.service.decisions(),
        };
        json_reply(if draining { 503 } else { 200 }, &body)
    }

    fn decide(&self, req: &Request) -> (Response, DecideMeta) {
        if !self.breaker.try_acquire() {
            return (
                Response::error(503, "decision path circuit open"),
                DecideMeta::default(),
            );
        }
        let wire: WireRequest = match std::str::from_utf8(&req.body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        {
            Ok(w) => w,
            Err(e) => {
                // A bad request body is the client's failure, not the
                // decision path's: record success so 400s never trip the
                // breaker.
                self.breaker.record(true);
                return (
                    Response::error(400, &format!("bad decide body: {e}")),
                    DecideMeta::default(),
                );
            }
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.decide_traced(&wire)
        })) {
            Ok((decision, trace)) => match serde_json::to_string(&decision) {
                Ok(body) => {
                    self.breaker.record(true);
                    let meta = DecideMeta {
                        trace_id: decision.trace_id,
                        decision: Some(decision.decision.as_str()),
                        trace,
                        tripped: false,
                    };
                    (Response::json(200, body.into_bytes()), meta)
                }
                Err(e) => (
                    Response::error(500, &format!("serialize: {e}")),
                    self.handler_failed(),
                ),
            },
            Err(_) => (
                Response::error(500, "decision handler panicked"),
                self.handler_failed(),
            ),
        }
    }

    /// Records a decision-handler failure with the breaker. When it opens
    /// the breaker, the trip is counted here and flagged on the exchange,
    /// whose flight-recorder entry then freezes the ring.
    fn handler_failed(&self) -> DecideMeta {
        let tripped = self.breaker.record(false);
        if tripped {
            self.metrics.breaker_trips.inc();
        }
        DecideMeta {
            tripped,
            ..DecideMeta::default()
        }
    }

    fn report(&self, req: &Request) -> Response {
        let outcome: OutcomeReport = match std::str::from_utf8(&req.body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        {
            Ok(o) => o,
            Err(e) => return Response::error(400, &format!("bad report body: {e}")),
        };
        match self.service.report(&outcome) {
            Ok(ack) => json_reply(200, &ack),
            Err(why) => Response::error(400, &why),
        }
    }
}

/// `/debug/traces`' body: sorted and measured when the reply is built,
/// written while it is sent.
impl http::StreamedBody for JsonBody {
    fn byte_len(&self) -> u64 {
        JsonBody::byte_len(self)
    }

    fn write_after(&self, lead: &[u8], out: &mut dyn Write) -> std::io::Result<u64> {
        JsonBody::write_after(self, lead, out)
    }
}

/// A JSON reply written straight from `body`; one that cannot be
/// serialized answers 500.
fn json_reply(status: u16, body: &impl Serialize) -> Response {
    match serde_json::to_string(body) {
        Ok(json) => Response::json(status, json.into_bytes()),
        Err(e) => Response::error(500, &format!("serialize: {e}")),
    }
}

/// A drain summary, for the shutdown log line and exit-code decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// All workers exited before the deadline.
    pub clean: bool,
    /// Workers still busy at the deadline (0 when `clean`).
    pub stragglers: usize,
}

/// A running server: accept thread, worker pool and background thread.
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    background: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.listen` and starts the pool. When `watch` names a
    /// file, it is polled for hot-reloads (the file's current content is
    /// the baseline — only *changes* trigger a reload attempt).
    pub fn start(
        config: ServeConfig,
        telemetry: Arc<Telemetry>,
        watch: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let workers_n = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let state = Arc::new(ServeState::new(config, telemetry));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let rx = rx.clone();
            let state = state.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state))
                    // fg-analyze: allow(panic-path): boot-only — worker threads spawn once in start(), before any request is accepted
                    .expect("spawn worker"),
            );
        }

        let accept = {
            let state = state.clone();
            std::thread::Builder::new()
                .name("fg-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &tx, &state))
                // fg-analyze: allow(panic-path): boot-only — the accept loop spawns once in start()
                .expect("spawn accept loop")
        };

        let background = {
            let state = state.clone();
            // Read the watched file's baseline *before* returning from
            // start(): anything written to it after boot is then reliably a
            // change, even if the background thread is scheduled late.
            let baseline = watch.as_ref().and_then(|p| std::fs::read_to_string(p).ok());
            std::thread::Builder::new()
                .name("fg-serve-background".to_owned())
                .spawn(move || background_loop(&state, watch.as_deref(), baseline))
                // fg-analyze: allow(panic-path): boot-only — the background thread spawns once in start()
                .expect("spawn background thread")
        };

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
            background: Some(background),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process tests.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Flags the drain: accepting stops, keep-alive connections close
    /// after their in-flight exchange. Idempotent.
    ///
    /// The first call wakes the blocked accept thread by connecting once to
    /// the bound address (loopback when bound to an unspecified IP); the
    /// accept loop sees the flag on that connection and returns.
    pub fn begin_shutdown(&self) {
        if self.state.draining.swap(true, Ordering::Relaxed) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits up to `deadline` for the pool to finish, then reports. Call
    /// after [`Server::begin_shutdown`]; also safe on a failed boot.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join(); // woken by begin_shutdown's connection
        }
        // Accept thread gone → its queue sender is dropped → workers see
        // the channel close once drained. Poll until they have all exited.
        let start = Instant::now();
        while !self.workers.iter().all(JoinHandle::is_finished) && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut stragglers = 0;
        for w in self.workers.drain(..) {
            if w.is_finished() {
                let _ = w.join();
            } else {
                // Straggler past deadline: abandon the join; the process
                // is exiting anyway and the report says so.
                stragglers += 1;
            }
        }
        if let Some(background) = self.background.take() {
            let _ = background.join(); // it polls the drain flag too
        }
        DrainReport {
            clean: stragglers == 0,
            stragglers,
        }
    }
}

/// Blocks in `accept` and hands each connection to the pool. Once the
/// drain flag is up, whatever `accept` returns next — normally
/// [`Server::begin_shutdown`]'s wake-up connection — ends the loop without
/// being counted or served. The flag is stored before that connect, and
/// the kernel's socket queue orders the store before `accept` returns.
fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, state: &Arc<ServeState>) {
    loop {
        let accepted = listener.accept();
        if state.draining() {
            return; // drops tx → workers drain the queue and exit
        }
        match accepted {
            Ok((stream, _peer)) => {
                state.metrics.connections.inc();
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed(stream, state),
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // Back off after an accept error (e.g. out of file descriptors).
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Queue full: answer 429 from the accept thread and close. Short write
/// timeout so a slow-reading client cannot stall accepting. The shed is an
/// incident: it lands in the flight recorder and freezes the ring, so the
/// traffic that saturated the queue stays retrievable afterwards.
fn shed(stream: TcpStream, state: &Arc<ServeState>) {
    state.metrics.shed.inc();
    state.record_unrouted("(shed before parse)".to_owned(), 429, Some("shed"));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut stream = stream;
    let _ = Response::error(429, "server saturated, retry later")
        .closing()
        .write_to(&mut stream);
}

/// Serves queued connections until the accept thread has stopped and the
/// queue is empty: `recv` hands out every connection sent before the
/// sender dropped, then reports the channel closed. Idle workers wait on
/// the receiver's mutex; the one holding it waits in `recv`.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, state: &Arc<ServeState>) {
    loop {
        // The guard drops at the end of this statement, before the
        // connection is served (a `while let` would hold it throughout).
        let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match conn {
            Ok(stream) => handle_connection(stream, state),
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServeState>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // One socket handle serves both directions: `&TcpStream` is `Read` and
    // `Write`, so requests are read through the buffer and replies are
    // written straight to the socket.
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut idle_since = Instant::now();
    loop {
        match http::read_request(&mut reader, &state.limits) {
            Ok(request) => {
                idle_since = Instant::now();
                let mut response = state.route(&request);
                let draining = state.draining();
                if !request.wants_keep_alive() || draining {
                    response.close = true;
                }
                if response.write_to(&mut writer).is_err() {
                    return;
                }
                if response.close {
                    return;
                }
            }
            Err(ParseError::IdleTimeout) => {
                if state.draining() || idle_since.elapsed() >= KEEP_ALIVE_IDLE {
                    return;
                }
            }
            Err(ParseError::IdleEof) => return,
            Err(err) => {
                if let Some((status, why)) = err.status() {
                    state.record_unrouted(format!("(unparsed) {why}"), status, None);
                    let _ = Response::error(status, why).closing().write_to(&mut writer);
                }
                return;
            }
        }
    }
}

/// The background thread. Every [`BACKGROUND_POLL`] it re-reads the
/// watched config file, when there is one, and hot-applies a change
/// ([`ServeState::try_reload`]); then it runs one [`sentinel_tick`]. It naps
/// in short slices so the drain flag is noticed promptly.
fn background_loop(state: &Arc<ServeState>, watch: Option<&Path>, mut last_seen: Option<String>) {
    const NAP: Duration = Duration::from_millis(25);
    loop {
        let started = Instant::now();
        while started.elapsed() < BACKGROUND_POLL {
            if state.draining() {
                return;
            }
            std::thread::sleep(NAP);
        }
        // An unreadable file is transient (an editor mid-swap, the file
        // momentarily gone): the next poll reads it again.
        if let Some(current) = watch.and_then(|path| std::fs::read_to_string(path).ok()) {
            if last_seen.as_deref() != Some(current.as_str()) {
                let _ = state.try_reload(&current);
                last_seen = Some(current);
            }
        }
        sentinel_tick(state);
    }
}

/// One sentinel evaluation pass, split out so tests can drive it without
/// waiting on the poll cadence:
///
/// 1. refresh `fg_http_request_p99_seconds{endpoint}` by exactly merging
///    each endpoint class's per-status histogram cells and reading q0.99,
/// 2. evaluate the SLO policy on sim-time = milliseconds since boot, and
/// 3. publish the firing count as `fg_serve_active_alerts`.
fn sentinel_tick(state: &Arc<ServeState>) {
    let class_cells = state.metrics.cells.chunks(STATUSES.len());
    for (cells, gauge) in class_cells.zip(&state.metrics.p99) {
        let mut merged = HistSnapshot::empty();
        for (_, latency) in cells {
            merged.merge(&latency.snapshot().0);
        }
        gauge.set(merged.quantile_seconds(0.99));
    }

    // The SLO rules read counters and gauges only, so the latency cells
    // stay uncopied.
    let snap = state.telemetry.metrics().snapshot_without_latencies();
    let now = SimTime::from_millis(state.boot_ms());
    let active = {
        let mut sentinel = state.sentinel.lock().unwrap_or_else(|e| e.into_inner());
        sentinel.observe(now, &snap);
        sentinel.active_alerts()
    };
    state.metrics.active_alerts.set(active as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_scenario::workload::{generate, WorkloadConfig};

    fn state() -> Arc<ServeState> {
        Arc::new(ServeState::new(
            ServeConfig::recommended(),
            Telemetry::shared(),
        ))
    }

    fn request(method: &str, target: &str, body: Vec<u8>) -> Request {
        Request {
            method: method.to_owned(),
            target: target.to_owned(),
            http11: true,
            headers: Vec::new(),
            body,
        }
    }

    /// Every `fg_http_requests_total` cell's count, in cell order.
    fn answered(state: &ServeState) -> Vec<u64> {
        state.metrics.cells.iter().map(|(c, _)| c.get()).collect()
    }

    #[test]
    fn route_gives_each_path_its_status_and_class() {
        let state = state();
        let observe = [
            "/metrics",
            "/healthz",
            "/readyz",
            "/debug/traces",
            "/debug/flightrecorder",
            "/debug/alerts",
        ];
        let mut cases = Vec::new();
        for (path, class) in [("/v1/decide", Class::Decide), ("/v1/report", Class::Report)] {
            // An empty body is not a valid decide or report.
            cases.extend([
                ("GET", path, class, 405),
                ("POST", path, class, 400),
                ("PUT", path, class, 405),
            ]);
        }
        for path in observe {
            cases.extend([
                ("GET", path, Class::Observe, 200),
                ("POST", path, Class::Observe, 405),
                ("PUT", path, Class::Observe, 405),
            ]);
        }
        cases.extend([
            ("GET", "/healthz?probe=1", Class::Observe, 200),
            ("GET", "/no/such/path", Class::Other, 404),
            ("POST", "/no/such/path", Class::Other, 404),
        ]);
        assert_eq!(cases.len(), 3 * 8 + 3);
        for (method, target, class, status) in cases {
            let before = answered(&state);
            let got = state.route(&request(method, target, Vec::new())).status;
            assert_eq!(got, status, "{method} {target}");
            let mut want = before;
            let cell = class as usize * STATUSES.len() + http::status_index(status).unwrap();
            want[cell] += 1;
            assert_eq!(
                answered(&state),
                want,
                "{method} {target} is counted once, under {} {status}",
                class.label()
            );
        }
    }

    #[test]
    fn the_p99_gauge_is_the_quantile_of_its_class_cells_merged() {
        let state = state();
        let workload = generate(&WorkloadConfig {
            seed: 7,
            horizon_hours: 1,
            arrivals_per_day: 200.0,
            seat_spinner: false,
            sms_pumper: false,
        });
        // Samples in two of the decide class's cells: 200s and 400s.
        for req in workload.requests.iter().take(5) {
            let body = serde_json::to_string(req).unwrap().into_bytes();
            let got = state.route(&request("POST", "/v1/decide", body)).status;
            assert_eq!(got, 200);
        }
        let bad = state.route(&request("POST", "/v1/decide", b"{".to_vec()));
        assert_eq!(bad.status, 400);
        // A class without samples reads 0, whatever the gauge held before.
        let report = Class::Report as usize;
        state.metrics.p99[report].set(1.0);

        sentinel_tick(&state);

        let snap = state.telemetry.metrics().snapshot();
        let mut decide = HistSnapshot::empty();
        let mut cells = 0;
        for latency in &snap.latencies {
            let labels = &latency.name.labels;
            if latency.name.name == "fg_http_request_duration_seconds"
                && labels.contains(&("endpoint".to_owned(), "decide".to_owned()))
                && latency.hist.count > 0
            {
                decide.merge(&latency.hist);
                cells += 1;
            }
        }
        assert_eq!((cells, decide.count), (2, 6));
        let p99 = |endpoint: &str| {
            snap.gauge_value("fg_http_request_p99_seconds", &[("endpoint", endpoint)])
        };
        assert_eq!(p99("decide"), Some(decide.quantile_seconds(0.99)));
        assert!(decide.quantile_seconds(0.99) > 0.0);
        assert_eq!(p99("report"), Some(0.0));
    }
}
