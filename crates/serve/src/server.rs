//! The HTTP server: accept loop, fixed worker pool, bounded hand-off
//! queue, config watcher, and graceful drain.
//!
//! Threading model: one accept thread pushes connections into a bounded
//! `sync_channel`; `workers` threads block on it and drive keep-alive
//! sessions, one request at a time each. fg-serve turns a well-formed
//! request away in exactly two places: a full queue sheds the connection
//! with `429` instead of letting it queue invisibly, and an open circuit
//! breaker answers `POST /v1/decide` with `503`. Workers poll the drain flag
//! between requests (reads time out every 250 ms); at drain the accept
//! thread stops and drops the queue's sender, so workers finish what is
//! queued and return once the channel reports it closed. A `SIGTERM`
//! thus finishes in-flight and queued exchanges and answers nothing new.

use crate::breaker::CircuitBreaker;
use crate::config::{ObserveConfig, ServeConfig};
use crate::http::{self, Limits, ParseError, Request, Response};
use crate::observe::{
    path_of, query_param, serve_slo_policy, FlightRecorder, RequestSummary, TraceParent,
};
use crate::service::{DecisionService, OutcomeReport};
use fg_core::time::SimTime;
use fg_scenario::workload::WireRequest;
use fg_sentinel::Sentinel;
use fg_telemetry::metrics::{Counter, Gauge, Latency};
use fg_telemetry::trace::TraceConfig;
use fg_telemetry::{AttrValue, RequestTrace, Telemetry};
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake to poll the drain flag.
const READ_POLL: Duration = Duration::from_millis(250);
/// Idle keep-alive connections are closed after this long without a byte.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);
/// Config watcher poll cadence.
const WATCH_POLL: Duration = Duration::from_millis(300);

/// Endpoint classes for metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Decide,
    Report,
    Observe,
    Other,
}

impl Class {
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
    /// `fg_http_requests_total{endpoint, status}`; see `counter()` for the
    /// registered status buckets.
    requests: Vec<((&'static str, u16), Counter)>,
    /// `fg_http_request_duration_seconds{endpoint, status}` — log-linear
    /// latency histograms, same (class, status) grid as the counters.
    latency: Vec<((&'static str, u16), Latency)>,
    /// `fg_http_request_p99_seconds{endpoint}` — refreshed by the sentinel
    /// tick from the merged per-endpoint histograms.
    p99: Vec<(&'static str, Gauge)>,
    /// Aggregate 5xx counter the `serve-5xx-burn` alert watches.
    errors_5xx: Counter,
    /// Breaker trips mirrored as a counter for the sentinel (the breaker
    /// itself only exposes a load-time value).
    breaker_trips: Counter,
    /// Alerts currently firing in the embedded sentinel.
    active_alerts: Gauge,
    shed: Counter,
    connections: Counter,
    reload_applied: Counter,
    reload_rejected: Counter,
}

const STATUS_BUCKETS: &[u16] = &[200, 400, 404, 405, 408, 413, 429, 431, 500, 503];

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
        let mut requests = Vec::new();
        let mut latency = Vec::new();
        let mut p99 = Vec::new();
        for class in [Class::Decide, Class::Report, Class::Observe, Class::Other] {
            for &status in STATUS_BUCKETS {
                let status_str = status.to_string();
                requests.push((
                    (class.label(), status),
                    registry.counter_with(
                        "fg_http_requests_total",
                        &[("endpoint", class.label()), ("status", status_str.as_str())],
                    ),
                ));
                latency.push((
                    (class.label(), status),
                    registry.latency_with(
                        "fg_http_request_duration_seconds",
                        &[("endpoint", class.label()), ("status", status_str.as_str())],
                    ),
                ));
            }
            p99.push((
                class.label(),
                registry.gauge_with(
                    "fg_http_request_p99_seconds",
                    &[("endpoint", class.label())],
                ),
            ));
        }
        HttpMetrics {
            requests,
            latency,
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

    fn on_response(&self, class: Class, status: u16) {
        // Unlisted codes fold into the nearest registered bucket's class
        // row via exact match only — every code the server emits is listed.
        if let Some((_, c)) = self
            .requests
            .iter()
            .find(|((l, s), _)| *l == class.label() && *s == status)
        {
            c.inc();
        }
        if status >= 500 {
            self.errors_5xx.inc();
        }
    }

    /// The latency histogram for this (class, status) cell, when registered.
    fn latency_for(&self, class: Class, status: u16) -> Option<&Latency> {
        self.latency
            .iter()
            .find(|((l, s), _)| *l == class.label() && *s == status)
            .map(|(_, h)| h)
    }
}

/// Everything the workers and watcher share.
pub struct ServeState {
    service: DecisionService,
    telemetry: Arc<Telemetry>,
    metrics: HttpMetrics,
    breaker: CircuitBreaker,
    limits: Limits,
    observe: ObserveConfig,
    /// Wall-clock origin every `boot_ms` timestamp is relative to.
    boot: Instant,
    /// Monotone per-boot request sequence (flight-recorder ordering).
    request_seq: AtomicU64,
    /// Breaker trip count at the last request, for freeze-on-trip edges.
    seen_trips: AtomicU64,
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

/// What `decide()` hands to the response observer: the decision identity
/// plus the still-open request trace to append transport spans to.
struct DecideMeta {
    trace_id: u64,
    decision: &'static str,
    trace: Option<RequestTrace>,
}

impl ServeState {
    fn new(config: ServeConfig, telemetry: Arc<Telemetry>) -> Self {
        // The live tracer ring: bounded, always on for the serving layer so
        // `/debug/traces` and the `/metrics` exemplars resolve from boot.
        telemetry.enable_tracing(TraceConfig {
            capacity: config.observe.trace_capacity,
            ..TraceConfig::default()
        });
        let sentinel = Sentinel::new(serve_slo_policy(&config.observe), telemetry.metrics());
        ServeState {
            service: DecisionService::new(&config, telemetry.clone()),
            metrics: HttpMetrics::register(&telemetry),
            sentinel: Mutex::new(sentinel),
            telemetry,
            breaker: CircuitBreaker::new(config.breaker),
            limits: Limits::default(),
            observe: config.observe,
            boot: Instant::now(),
            request_seq: AtomicU64::new(0),
            seen_trips: AtomicU64::new(0),
            flight: Mutex::new(FlightRecorder::new(config.observe.flight_recorder_entries)),
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

    /// The decision core (for in-process tests and benches).
    pub fn service(&self) -> &DecisionService {
        &self.service
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

    fn route(&self, req: &Request) -> Response {
        let started = Instant::now();
        let class = match path_of(&req.target) {
            "/v1/decide" => Class::Decide,
            "/v1/report" => Class::Report,
            "/metrics"
            | "/healthz"
            | "/readyz"
            | "/debug/traces"
            | "/debug/flightrecorder"
            | "/debug/alerts" => Class::Observe,
            _ => Class::Other,
        };
        let (response, meta) = self.dispatch(req);
        self.metrics.on_response(class, response.status);
        self.observe_response(class, req, response, started.elapsed(), meta)
    }

    fn dispatch(&self, req: &Request) -> (Response, Option<DecideMeta>) {
        let response = match (req.method.as_str(), path_of(&req.target)) {
            ("GET", "/healthz") => Response::json(200, &b"{\"ok\":true}"[..]),
            ("GET", "/readyz") => self.readyz(),
            ("GET", "/metrics") => Response::text(200, self.telemetry.to_prometheus()),
            ("GET", "/debug/traces") => self.debug_traces(req),
            ("GET", "/debug/flightrecorder") => self.debug_flightrecorder(),
            ("GET", "/debug/alerts") => self.debug_alerts(),
            ("POST", "/v1/decide") => return self.decide(req),
            ("POST", "/v1/report") => self.report(req),
            (
                _,
                "/healthz"
                | "/readyz"
                | "/metrics"
                | "/v1/decide"
                | "/v1/report"
                | "/debug/traces"
                | "/debug/flightrecorder"
                | "/debug/alerts",
            ) => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such endpoint"),
        };
        (response, None)
    }

    /// Everything observability learns from one finished exchange: the
    /// latency histogram cell (with an exemplar when the request is worth
    /// retrieving), the flight-recorder ring, breaker-trip freezes, the
    /// trace submission with its transport span, and the `traceparent`
    /// echo.
    fn observe_response(
        &self,
        class: Class,
        req: &Request,
        mut response: Response,
        elapsed: Duration,
        meta: Option<DecideMeta>,
    ) -> Response {
        let status = response.status;
        let slow = elapsed >= Duration::from_millis(self.observe.slow_request_ms);
        let decision_label = meta.as_ref().map(|m| m.decision);
        let important = slow || status >= 500 || decision_label.is_some_and(|d| d != "allow");
        let trace_id = meta.as_ref().map_or(0, |m| m.trace_id);

        if let Some(hist) = self.metrics.latency_for(class, status) {
            if important && trace_id != 0 {
                // Swap the exemplar slot and move the tracer's citation
                // under one tracer lock, so concurrent workers never leave
                // a trace cited that no slot holds, or a slot's trace
                // uncited.
                let mut tracer = self.telemetry.tracer();
                let displaced = hist.record_with_exemplar(elapsed, trace_id);
                tracer.cite(trace_id, displaced);
            } else {
                hist.record(elapsed);
            }
        }

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

        if let Some(mut tr) = meta.and_then(|m| m.trace) {
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
            self.telemetry.record_trace(tr);
        }

        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let summary = RequestSummary {
            seq,
            boot_ms: self.boot_ms(),
            endpoint: class.label().to_owned(),
            request: format!("{} {}", req.method, path_of(&req.target)),
            status,
            decision: decision_label.map(str::to_owned),
            trace_id: (trace_id != 0).then(|| format!("{trace_id:016x}")),
            latency_us: elapsed.as_micros() as u64,
            slow,
        };
        {
            let mut flight = self.flight.lock().unwrap_or_else(|e| e.into_inner());
            flight.record(summary);
            // Freeze on the breaker-open edge, so the requests that tripped
            // it stay retrievable.
            let trips = self.breaker.trips();
            let seen = self.seen_trips.swap(trips, Ordering::Relaxed);
            if trips > seen {
                flight.freeze("breaker-open", self.boot_ms());
            }
        }
        response
    }

    /// `GET /debug/traces[?trace_id=<16 hex>]`: the live tracer ring —
    /// sampling accounting, retained trace ids, and the spans themselves
    /// (optionally restricted to one trace).
    fn debug_traces(&self, req: &Request) -> Response {
        use serde_json::Value;
        let snapshot = self.telemetry.trace_snapshot();
        let filter = query_param(&req.target, "trace_id")
            .map(|raw| u64::from_str_radix(raw, 16).map_err(|_| raw));
        let wanted = match filter {
            None => None,
            Some(Ok(id)) => Some(id),
            Some(Err(raw)) => {
                return Response::error(400, &format!("trace_id must be hex, got {raw:?}"))
            }
        };
        let retained: Vec<Value> = snapshot
            .request_trace_ids()
            .iter()
            .map(|id| Value::String(format!("{id:016x}")))
            .collect();
        let spans: Vec<&fg_telemetry::SpanRecord> = snapshot
            .spans
            .iter()
            .filter(|s| wanted.is_none_or(|id| s.trace_id == id))
            .collect();
        let body = Value::Object(vec![
            ("submitted".to_owned(), Value::UInt(snapshot.submitted)),
            ("kept".to_owned(), Value::UInt(snapshot.kept)),
            ("sampled_out".to_owned(), Value::UInt(snapshot.sampled_out)),
            ("evicted".to_owned(), Value::UInt(snapshot.evicted)),
            ("retained".to_owned(), Value::Array(retained)),
            (
                "spans".to_owned(),
                serde_json::to_value(&spans).unwrap_or(Value::Null),
            ),
        ]);
        match serde_json::to_string(&body) {
            Ok(json) => Response::json(200, json.into_bytes()),
            Err(e) => Response::error(500, &format!("serialize: {e}")),
        }
    }

    /// `GET /debug/flightrecorder`: the rolling last-N request ring plus
    /// the frozen copy captured at the first breaker-trip/shed incident.
    fn debug_flightrecorder(&self) -> Response {
        let snapshot = {
            let flight = self.flight.lock().unwrap_or_else(|e| e.into_inner());
            flight.snapshot()
        };
        match serde_json::to_string(&snapshot) {
            Ok(json) => Response::json(200, json.into_bytes()),
            Err(e) => Response::error(500, &format!("serialize: {e}")),
        }
    }

    /// `GET /debug/alerts`: the embedded sentinel's policy, currently
    /// firing count, and full lifecycle event history.
    fn debug_alerts(&self) -> Response {
        use serde_json::Value;
        let (policy, active, events) = {
            let sentinel = self.sentinel.lock().unwrap_or_else(|e| e.into_inner());
            (
                serde_json::to_value(sentinel.policy()).unwrap_or(Value::Null),
                sentinel.active_alerts(),
                serde_json::to_value(&sentinel.events().to_vec()).unwrap_or(Value::Null),
            )
        };
        let body = Value::Object(vec![
            ("active".to_owned(), Value::UInt(active)),
            ("events".to_owned(), events),
            ("policy".to_owned(), policy),
        ]);
        match serde_json::to_string(&body) {
            Ok(json) => Response::json(200, json.into_bytes()),
            Err(e) => Response::error(500, &format!("serialize: {e}")),
        }
    }

    fn readyz(&self) -> Response {
        use serde_json::Value;
        let draining = self.draining();
        let body = Value::Object(vec![
            ("ready".to_owned(), Value::Bool(!draining)),
            ("draining".to_owned(), Value::Bool(draining)),
            (
                "config_generation".to_owned(),
                Value::UInt(self.generation()),
            ),
            ("last_reload".to_owned(), Value::String(self.last_reload())),
            (
                "breaker".to_owned(),
                Value::String(self.breaker.state_name().to_owned()),
            ),
            (
                "decisions".to_owned(),
                Value::UInt(self.service.decisions()),
            ),
        ]);
        let status = if draining { 503 } else { 200 };
        Response::json(
            status,
            serde_json::to_string(&body)
                .unwrap_or_default()
                .into_bytes(),
        )
    }

    fn decide(&self, req: &Request) -> (Response, Option<DecideMeta>) {
        if !self.breaker.try_acquire() {
            return (Response::error(503, "decision path circuit open"), None);
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
                return (Response::error(400, &format!("bad decide body: {e}")), None);
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
                        decision: decision.decision.as_str(),
                        trace,
                    };
                    (Response::json(200, body.into_bytes()), Some(meta))
                }
                Err(e) => {
                    self.breaker.record(false);
                    (Response::error(500, &format!("serialize: {e}")), None)
                }
            },
            Err(_) => {
                self.breaker.record(false);
                (Response::error(500, "decision handler panicked"), None)
            }
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
            Ok(ack) => Response::json(
                200,
                serde_json::to_string(&ack).unwrap_or_default().into_bytes(),
            ),
            Err(why) => Response::error(400, &why),
        }
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

/// A running server: accept thread + worker pool (+ optional watcher).
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
    sentinel: Option<JoinHandle<()>>,
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

        let sentinel = {
            let state = state.clone();
            std::thread::Builder::new()
                .name("fg-serve-sentinel".to_owned())
                .spawn(move || sentinel_loop(&state))
                // fg-analyze: allow(panic-path): boot-only — the SLO sentinel spawns once in start()
                .expect("spawn sentinel")
        };

        let watcher = watch.map(|path| {
            let state = state.clone();
            // Read the baseline *before* returning from start(): anything
            // written to the file after boot is then reliably a change,
            // even if the watcher thread is scheduled late.
            let baseline = std::fs::read_to_string(&path).ok();
            std::thread::Builder::new()
                .name("fg-serve-watch".to_owned())
                .spawn(move || watch_loop(&path, baseline, &state))
                // fg-analyze: allow(panic-path): boot-only — the config watcher spawns once in start()
                .expect("spawn config watcher")
        });

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
            watcher,
            sentinel: Some(sentinel),
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
        if let Some(watch) = self.watcher.take() {
            let _ = watch.join(); // watcher polls the drain flag too
        }
        if let Some(sentinel) = self.sentinel.take() {
            let _ = sentinel.join(); // sentinel polls the drain flag too
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
    state.metrics.on_response(Class::Other, 429);
    let seq = state.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let summary = RequestSummary {
        seq,
        boot_ms: state.boot_ms(),
        endpoint: Class::Other.label().to_owned(),
        request: "(shed before parse)".to_owned(),
        status: 429,
        decision: None,
        trace_id: None,
        latency_us: 0,
        slow: false,
    };
    {
        let mut flight = state.flight.lock().unwrap_or_else(|e| e.into_inner());
        flight.record(summary);
        flight.freeze("shed", state.boot_ms());
    }
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
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
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
                    state.metrics.on_response(Class::Other, status);
                    let _ = Response::error(status, why).closing().write_to(&mut writer);
                }
                return;
            }
        }
    }
}

/// The embedded SLO sentinel thread: naps in short slices so the drain
/// flag is noticed promptly, then runs one evaluation pass per poll.
fn sentinel_loop(state: &Arc<ServeState>) {
    const NAP: Duration = Duration::from_millis(25);
    while !state.draining() {
        let mut slept = 0u64;
        while slept < state.observe.sentinel_poll_ms && !state.draining() {
            std::thread::sleep(NAP);
            slept += NAP.as_millis() as u64;
        }
        if state.draining() {
            return;
        }
        sentinel_tick(state);
    }
}

/// One sentinel evaluation pass, split out so tests can drive it without
/// waiting on the poll cadence:
///
/// 1. mirror the breaker's trip count into `fg_serve_breaker_trips_total`
///    (the counter the `serve-breaker-trips` rule differentiates),
/// 2. refresh `fg_http_request_p99_seconds{endpoint}` by exactly merging
///    each endpoint's per-status histogram cells and reading q0.99,
/// 3. evaluate the SLO policy on sim-time = milliseconds since boot, and
/// 4. publish the firing count as `fg_serve_active_alerts`.
fn sentinel_tick(state: &Arc<ServeState>) {
    let trips = state.breaker.trips();
    let mirrored = state.metrics.breaker_trips.get();
    if trips > mirrored {
        state.metrics.breaker_trips.add(trips - mirrored);
    }

    let snap = state.telemetry.metrics().snapshot();
    for (endpoint, gauge) in &state.metrics.p99 {
        let merged = snap.latency_merged(
            "fg_http_request_duration_seconds",
            &[("endpoint", endpoint)],
        );
        gauge.set(merged.map_or(0.0, |m| m.quantile_seconds(0.99)));
    }

    // Re-snapshot so the evaluation sees the gauges just refreshed.
    let snap = state.telemetry.metrics().snapshot();
    let now = SimTime::from_millis(state.boot_ms());
    let active = {
        let mut sentinel = state.sentinel.lock().unwrap_or_else(|e| e.into_inner());
        sentinel.observe(now, &snap);
        sentinel.active_alerts()
    };
    state.metrics.active_alerts.set(active as f64);
}

fn watch_loop(path: &std::path::Path, baseline: Option<String>, state: &Arc<ServeState>) {
    let mut last_seen = baseline;
    while !state.draining() {
        std::thread::sleep(WATCH_POLL);
        let Ok(current) = std::fs::read_to_string(path) else {
            continue; // transient: editor mid-swap, file momentarily gone
        };
        if last_seen.as_deref() == Some(current.as_str()) {
            continue;
        }
        last_seen = Some(current.clone());
        let _ = state.try_reload(&current);
    }
}
