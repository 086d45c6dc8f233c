//! The defended application façade.

use fg_behavior::api::{ApiOutcome, App, ClientRequest};
use fg_core::ids::{BookingRef, ClientId, FlightId, PhoneNumber};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::{ConcurrencyMode, ShardedStore};
use fg_core::time::{SimDuration, SimTime};
use fg_detection::engine::DetectionEngine;
use fg_detection::engine::Signal;
use fg_detection::log::{Endpoint, LogRecord, Method};
use fg_fingerprint::attributes::Fingerprint;
use fg_inventory::flight::{Availability, Flight};
use fg_inventory::passenger::Passenger;
use fg_inventory::system::ReservationSystem;
use fg_mitigation::captcha::CaptchaPolicy;
use fg_mitigation::economics::DefenderLedger;
use fg_mitigation::honeypot::Honeypot;
use fg_mitigation::policy::{Decision, PolicyConfig, PolicyEngine, RequestContext};
use fg_sentinel::{AlertPolicy, Sentinel, SentinelReport};
use fg_smsgw::gateway::Gateway;
use fg_smsgw::message::{SmsKind, SmsMessage};
use fg_telemetry::audit::{AuditRecord, SignalScore};
use fg_telemetry::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use fg_telemetry::{AttrValue, RequestTrace, Telemetry};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Application-level configuration.
#[derive(Clone, Debug)]
pub struct AppConfig {
    /// Seat-hold TTL ("30 minutes to several hours depending on the domain").
    pub hold_ttl: SimDuration,
    /// Maximum Number in Party at launch.
    pub max_nip: u32,
    /// The defensive posture.
    pub policy: PolicyConfig,
    /// CAPTCHA behaviour (used when the policy issues challenges).
    pub captcha: CaptchaPolicy,
    /// Average ticket revenue per seat, for lost-sales accounting.
    pub seat_revenue: Money,
    /// Detection verdict score above which the source IP is reported to the
    /// reputation ledger.
    pub reputation_feedback_threshold: f64,
    /// Revenue-management pricing; `None` = fixed fare (`seat_revenue`).
    pub pricing: Option<fg_inventory::pricing::DynamicPricer>,
    /// How the defence-state stores are partitioned.
    /// [`ConcurrencyMode::Deterministic`] (the default) is the single-shard
    /// experiment path; [`ConcurrencyMode::Sharded`] hash-partitions every
    /// keyed store so housekeeping stripes per shard. Replayed
    /// single-threaded, both modes produce byte-identical artifacts (see
    /// `tests/shard_independence.rs`).
    pub concurrency: ConcurrencyMode,
}

impl AppConfig {
    /// An Airline-A-style domain with the given defensive posture.
    pub fn airline(policy: PolicyConfig) -> Self {
        AppConfig {
            hold_ttl: SimDuration::from_mins(30),
            max_nip: 9,
            policy,
            captcha: CaptchaPolicy::default(),
            seat_revenue: Money::from_units(120),
            reputation_feedback_threshold: 0.8,
            pricing: None,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }

    /// Returns the config with its [`ConcurrencyMode`] replaced — the
    /// experiment modules use this to thread the harness's `--shards`
    /// setting into the app without disturbing the rest of the posture.
    pub fn with_concurrency(mut self, concurrency: ConcurrencyMode) -> Self {
        self.concurrency = concurrency;
        self
    }
}

/// The defended application: reservation system + SMS gateway behind the
/// detection/mitigation pipeline.
///
/// # Example
///
/// ```
/// use fg_scenario::app::{AppConfig, DefendedApp};
/// use fg_mitigation::policy::PolicyConfig;
/// use fg_inventory::Flight;
/// use fg_core::ids::FlightId;
/// use fg_core::time::SimTime;
///
/// let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::recommended()), 42);
/// app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
/// assert_eq!(app.reservations().flight_ids(), vec![FlightId(1)]);
/// ```
#[derive(Debug)]
pub struct DefendedApp {
    config: AppConfig,
    reservations: ReservationSystem,
    gateway: Gateway,
    detection: DetectionEngine,
    policy: PolicyEngine,
    honeypot: Honeypot,
    logs: Vec<LogRecord>,
    fingerprints_seen: ShardedStore<u64, HashMap<u64, Fingerprint>>,
    solver_spend: HashMap<ClientId, Money>,
    defender: DefenderLedger,
    captcha_rng: StdRng,
    ticket_revenue: Money,
    telemetry: Arc<Telemetry>,
    metrics: AppMetrics,
    sentinel: Option<Sentinel>,
    /// Monotone per-app request counter; with the client id it derives the
    /// deterministic `trace_id` stamped on audit records and span traces.
    request_seq: u64,
    /// When recording, every gated request is appended here as a
    /// [`WireRequest`](crate::workload::WireRequest) — the replayable workload the serving layer's load
    /// generator and parity tests feed back through `/v1/decide`.
    recorder: Option<Vec<crate::workload::WireRequest>>,
}

/// The wire-visible outcome of one trip through the defence pipeline: what
/// `/v1/decide` returns and what the audit trail records. Produced by
/// [`DefendedApp::decide_request`] and, internally, by the simulator's gate —
/// both paths share one implementation, which is what makes wire/sim
/// decision parity hold by construction.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateDecision {
    /// Deterministic trace id (`hash::trace_id(client, request_seq)`).
    pub trace_id: u64,
    /// The policy decision.
    pub decision: Decision,
    /// The reason chain, in evaluation order.
    pub reasons: Vec<String>,
    /// The detection verdict score (0.0 for sticky honeypot sessions, which
    /// never reach detection).
    pub score: f64,
    /// Scored detection signals behind `score`.
    pub signals: Vec<SignalScore>,
}

/// Pre-registered handles for everything the gate increments per request,
/// so the hot path never touches the registry mutex.
#[derive(Debug)]
struct AppMetrics {
    /// One counter per endpoint, in [`Endpoint::ALL`] order.
    requests: Vec<Counter>,
    /// One counter per signal kind, in [`Signal::KINDS`] order.
    signals: Vec<Counter>,
    honeypot_diversions: Counter,
    challenges_solved: Counter,
    challenges_failed: Counter,
    human_abandons: Counter,
    detection_score: Histogram,
    /// Number-in-Party distribution of *accepted* real holds — the sentinel's
    /// drift rules compare this against the Fig. 1 baseline shape.
    nip_hold: Histogram,
    ticket_revenue: Gauge,
    solver_spend: Gauge,
    /// One gauge per defence-state map, in [`TRACKED_MAPS`] order: current
    /// key population after housekeeping.
    tracked_keys: Vec<Gauge>,
}

/// The per-key defence-state maps whose populations are exported as
/// `fg_tracked_keys{map="..."}` and bounded by the housekeeping tick.
pub const TRACKED_MAPS: [&str; 5] = [
    "ip-velocity",
    "fp-velocity",
    "booking-sms-velocity",
    "booking-sms-limiter",
    "client-hold-limiter",
];

/// Span name of each detection signal's child span under `detect.assess`:
/// `detect.<kind>`, in [`Signal::KINDS`] order.
const SIGNAL_SPANS: [&str; Signal::KINDS.len()] = [
    "detect.fingerprint-inconsistent",
    "detect.ip-reputation",
    "detect.ip-velocity",
    "detect.fp-velocity",
    "detect.booking-sms-velocity",
    "detect.trap-hit",
];

/// The span name of a signal of `kind` (one of [`Signal::KINDS`]).
fn signal_span(kind: &str) -> &'static str {
    Signal::KINDS
        .iter()
        .zip(SIGNAL_SPANS)
        .find(|(k, _)| **k == kind)
        .map_or("detect.signal", |(_, span)| span)
}

impl AppMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        for (name, help) in [
            (
                "fg_requests_total",
                "Requests reaching the gate, by endpoint",
            ),
            (
                "fg_signals_total",
                "Detection signals raised, by signal kind",
            ),
            (
                "fg_honeypot_diversions_total",
                "Sessions newly diverted into the decoy environment",
            ),
            (
                "fg_challenges_total",
                "CAPTCHA challenges issued, by outcome",
            ),
            (
                "fg_human_abandons_total",
                "Humans who abandoned at a CAPTCHA (friction cost)",
            ),
            (
                "fg_detection_score",
                "Detection verdict score per gated request",
            ),
            ("fg_nip_hold", "Number in Party of accepted real seat holds"),
            (
                "fg_ticket_revenue_units",
                "Cumulative ticket revenue collected, in currency units",
            ),
            (
                "fg_solver_spend_units",
                "Cumulative CAPTCHA-solver fees paid by bots, in currency units",
            ),
            (
                "fg_tracked_keys",
                "Live key population per defence-state map after housekeeping",
            ),
        ] {
            registry.set_help(name, help);
        }
        AppMetrics {
            requests: Endpoint::ALL
                .iter()
                .map(|e| {
                    let path = e.to_string();
                    registry.counter_with("fg_requests_total", &[("endpoint", path.as_str())])
                })
                .collect(),
            signals: Signal::KINDS
                .iter()
                .map(|kind| registry.counter_with("fg_signals_total", &[("signal", kind)]))
                .collect(),
            honeypot_diversions: registry.counter("fg_honeypot_diversions_total"),
            challenges_solved: registry
                .counter_with("fg_challenges_total", &[("outcome", "solved")]),
            challenges_failed: registry
                .counter_with("fg_challenges_total", &[("outcome", "failed")]),
            human_abandons: registry.counter("fg_human_abandons_total"),
            detection_score: registry.histogram(
                "fg_detection_score",
                &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            ),
            nip_hold: registry.histogram(
                "fg_nip_hold",
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            ),
            ticket_revenue: registry.gauge("fg_ticket_revenue_units"),
            solver_spend: registry.gauge("fg_solver_spend_units"),
            tracked_keys: TRACKED_MAPS
                .iter()
                .map(|map| registry.gauge_with("fg_tracked_keys", &[("map", map)]))
                .collect(),
        }
    }

    fn endpoint_counter(&self, endpoint: Endpoint) -> &Counter {
        &self.requests[endpoint.index()]
    }

    fn signal_counter(&self, kind: &str) -> Option<&Counter> {
        Signal::KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| &self.signals[i])
    }
}

impl DefendedApp {
    /// Creates the app with the given config and master seed (the seed only
    /// drives CAPTCHA outcome randomness). A fresh telemetry hub is created;
    /// use [`DefendedApp::with_telemetry`] to share one.
    pub fn new(config: AppConfig, seed: u64) -> Self {
        DefendedApp::with_telemetry(config, seed, Telemetry::shared())
    }

    /// Creates the app wired to an existing telemetry hub, so callers (e.g.
    /// the `experiments --telemetry` runner) keep access to metrics, audit
    /// trail, and stage profiles after the run.
    pub fn with_telemetry(config: AppConfig, seed: u64, telemetry: Arc<Telemetry>) -> Self {
        let shards = config.concurrency.shard_count();
        let mut detection =
            DetectionEngine::with_shards(fg_detection::engine::EngineConfig::default(), shards);
        detection.attach_telemetry(telemetry.clone());
        let policy = PolicyEngine::with_shards(config.policy.clone(), shards);
        policy.decision_counters().register_in(telemetry.metrics());
        let mut gateway = Gateway::default_network();
        gateway.attach_telemetry(telemetry.clone());
        let metrics = AppMetrics::register(telemetry.metrics());
        DefendedApp {
            reservations: ReservationSystem::new(config.hold_ttl, config.max_nip),
            gateway,
            detection,
            policy,
            honeypot: Honeypot::new(),
            logs: Vec::new(),
            fingerprints_seen: ShardedStore::new(shards, |_| HashMap::new()),
            solver_spend: HashMap::new(),
            defender: DefenderLedger::new(),
            captcha_rng: SeedFork::new(seed).rng("captcha"),
            ticket_revenue: Money::ZERO,
            telemetry,
            metrics,
            sentinel: None,
            request_seq: 0,
            recorder: None,
            config,
        }
    }

    /// Starts recording every gated request as a replayable
    /// [`WireRequest`](crate::workload::WireRequest) stream. Recording is pure observation: it never
    /// changes decisions or any other artifact.
    pub fn record_workload(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Takes the recorded request stream (empty when recording was never
    /// enabled) and stops recording.
    pub fn take_workload(&mut self) -> Vec<crate::workload::WireRequest> {
        self.recorder.take().unwrap_or_default()
    }

    /// Swaps the policy config in place, preserving decision-counter
    /// continuity (the rebuilt engine keeps incrementing the same
    /// `fg_decisions_total` cells). Block rules and limiter buckets reset —
    /// a hot-swap is a posture change, and stale per-key debt under the old
    /// posture must not leak into the new one. Callers are expected to have
    /// validated `policy` (see `fg_analyze::validate_serve_policy`);
    /// in debug builds an invalid config panics at engine construction.
    pub fn replace_policy(&mut self, policy: PolicyConfig) {
        let shards = self.config.concurrency.shard_count();
        let mut engine = PolicyEngine::with_shards(policy.clone(), shards);
        engine.adopt_counters(self.policy.decision_counters().clone());
        self.policy = engine;
        self.config.policy = policy;
    }

    /// The telemetry hub this app reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Attaches an online alerting sentinel evaluating `policy` against this
    /// app's metrics on every housekeeping tick. Observation is read-only:
    /// attaching a sentinel never changes simulation behaviour.
    ///
    /// When the policy names an attacker client, that session is pinned in
    /// the tracer so its traces bypass allow-sampling — the incident's
    /// exemplar trace ids then always resolve in the exported trace file.
    pub fn attach_sentinel(&mut self, policy: AlertPolicy) {
        if let Some(attacker) = policy.attacker_client {
            self.telemetry.tracer().pin_session(attacker);
        }
        self.sentinel = Some(Sentinel::new(policy, self.telemetry.metrics()));
    }

    /// Final sentinel report (alert events, time-to-detection, incident
    /// timeline correlated with the decision audit trail) as of `end`.
    pub fn sentinel_report(&self, end: SimTime) -> Option<SentinelReport> {
        let audit = self.telemetry.audit().snapshot();
        // When tracing ran, scope exemplar ids to the traces the tracer
        // actually retained so every cited id resolves in the export.
        let retained = self
            .telemetry
            .tracing_enabled()
            .then(|| self.telemetry.tracer().retained_ids());
        self.sentinel
            .as_ref()
            .map(|s| s.report_with_traces(end, &audit, retained.as_ref()))
    }

    /// Registers a flight.
    pub fn add_flight(&mut self, flight: Flight) {
        self.reservations.add_flight(flight);
    }

    /// The reservation core (read access).
    pub fn reservations(&self) -> &ReservationSystem {
        &self.reservations
    }

    /// The reservation core (mutable, for defender interventions such as
    /// changing the NiP cap mid-incident).
    pub fn reservations_mut(&mut self) -> &mut ReservationSystem {
        &mut self.reservations
    }

    /// The SMS gateway (read access — owner cost, surge tables, …).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The SMS gateway (mutable, for quota / operator interventions).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// The policy engine (mutable, for deploying block rules).
    pub fn policy_mut(&mut self) -> &mut PolicyEngine {
        &mut self.policy
    }

    /// The policy engine (read access).
    pub fn policy(&self) -> &PolicyEngine {
        &self.policy
    }

    /// The detection engine (read access — velocity key populations, …).
    pub fn detection(&self) -> &DetectionEngine {
        &self.detection
    }

    /// The detection engine (mutable, e.g. to feed reputation).
    pub fn detection_mut(&mut self) -> &mut DetectionEngine {
        &mut self.detection
    }

    /// The honeypot.
    pub fn honeypot(&self) -> &Honeypot {
        &self.honeypot
    }

    /// Everything logged so far.
    pub fn logs(&self) -> &[LogRecord] {
        &self.logs
    }

    /// The full fingerprint last seen for an identity hash, if any.
    pub fn fingerprint_by_hash(&self, hash: u64) -> Option<&Fingerprint> {
        self.fingerprints_seen.shard(&hash).get(&hash)
    }

    /// CAPTCHA-solver fees charged to a client so far.
    pub fn solver_spend(&self, client: ClientId) -> Money {
        self.solver_spend
            .get(&client)
            .copied()
            .unwrap_or(Money::ZERO)
    }

    /// Ticket revenue collected so far (quoted fare × seats at payment).
    pub fn ticket_revenue(&self) -> Money {
        self.ticket_revenue
    }

    /// The fare a seat on `flight` costs at `now` (dynamic when configured,
    /// else the fixed `seat_revenue`).
    pub fn fare(&self, flight: FlightId, now: SimTime) -> Option<Money> {
        let availability = self.reservations.availability(flight)?;
        let departure = self.reservations.flight(flight)?.departure();
        Some(match self.config.pricing {
            Some(pricer) => pricer.quote(availability, now, SimTime::ZERO, departure),
            None => self.config.seat_revenue,
        })
    }

    /// The defender's loss ledger (SMS costs are folded in on read).
    pub fn defender_ledger(&self) -> DefenderLedger {
        let mut d = self.defender;
        d.sms_cost = self.gateway.owner_cost();
        d
    }

    /// Advances application housekeeping to `now`: hold expiry, velocity-map
    /// compaction, and idle-limiter eviction. The latter two are what keep
    /// defence state bounded by the *live* identity population under the
    /// paper's rotating-fingerprint/proxy workloads — without them every
    /// identity ever seen would leave a map entry behind forever. The
    /// resulting key populations are exported as `fg_tracked_keys` gauges.
    pub fn tick(&mut self, now: SimTime) {
        self.reservations.expire_due(now);
        self.detection.compact(now);
        self.policy.evict_idle(now);
        let velocity = self.detection.tracked_keys();
        let (booking_sms, client_hold) = self.policy.limiter_tracked_keys();
        for (gauge, keys) in self.metrics.tracked_keys.iter().zip([
            velocity.ip,
            velocity.fingerprint,
            velocity.booking_sms,
            booking_sms,
            client_hold,
        ]) {
            gauge.set(keys as f64);
        }
        if let Some(sentinel) = &mut self.sentinel {
            let snap = self.telemetry.metrics().snapshot();
            let events_before = sentinel.events().len();
            sentinel.observe(now, &snap);
            if self.telemetry.tracing_enabled() {
                // Aux span: one sentinel rule-evaluation pass per tick,
                // outside any request trace (session lane 0).
                let id = fg_core::hash::trace_id(u64::MAX, now.as_millis());
                let transitions = sentinel.events().len() - events_before;
                self.telemetry
                    .tracer()
                    .record_aux(fg_telemetry::SpanRecord {
                        trace_id: id,
                        span_id: id,
                        parent_id: 0,
                        name: "sentinel.evaluate".to_owned(),
                        session: 0,
                        start_us: now.as_millis() * 1_000,
                        dur_us: 1,
                        attrs: vec![("transitions".to_owned(), transitions.to_string())],
                    });
            }
        }
    }

    fn log(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        method: Method,
        ok: bool,
        now: SimTime,
    ) {
        self.logs.push(LogRecord {
            at: now,
            ip: req.ip,
            fingerprint: req.fingerprint.identity_hash(),
            truth_client: req.client,
            method,
            endpoint,
            ok,
        });
        let fp_hash = req.fingerprint.identity_hash();
        self.fingerprints_seen
            .shard_mut(&fp_hash)
            .entry(fp_hash)
            .or_insert_with(|| req.fingerprint.clone());
    }

    /// The decision pipeline shared by the simulator gate and the serving
    /// layer: honeypot stickiness → detection → reputation feedback →
    /// policy → audit record, plus honeypot diversion when that is the
    /// decision. Returns the wire-visible [`GateDecision`] and the
    /// still-open span trace (`None` when tracing is off) on every path,
    /// the sticky honeypot included. CAPTCHA resolution is *not* part
    /// of this: it consumes randomness and belongs to the simulator's
    /// behaviour model, not the decision — which is why the audit record is
    /// written here, before any challenge is resolved.
    fn decide_inner(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> (GateDecision, Option<RequestTrace>) {
        self.metrics.endpoint_counter(endpoint).inc();
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(crate::workload::WireRequest::from_parts(
                req, endpoint, booking, now,
            ));
        }
        self.request_seq += 1;
        let trace_id = fg_core::hash::trace_id(req.client.as_u64(), self.request_seq);
        // Span tracing is pure observation over sim-time: building the
        // trace never touches simulation state, so behaviour (and every
        // non-trace artifact) is byte-identical with tracing on or off.
        let mut span_trace = self
            .telemetry
            .tracing_enabled()
            .then(|| RequestTrace::new(trace_id, req.client.as_u64(), endpoint.as_str(), now));

        // Already-diverted clients stay in the decoy.
        let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
        let diverted = self.honeypot.is_diverted(req.client);
        self.telemetry
            .record_stage("mitigation.honeypot-check", t.elapsed());
        if let Some(tr) = span_trace.as_mut() {
            let check = tr.stage("mitigation.honeypot-check");
            tr.attr(check, "diverted", diverted);
        }
        if diverted {
            if self.telemetry.audit_enabled() {
                self.telemetry.record_audit(AuditRecord {
                    at: now,
                    endpoint: endpoint.to_string(),
                    client: req.client.as_u64(),
                    fingerprint: req.fingerprint.identity_hash(),
                    ip: req.ip.to_string(),
                    score: 0.0,
                    signals: Vec::new(),
                    decision: Decision::Honeypot.to_string(),
                    reasons: vec!["honeypot:session-diverted".to_owned()],
                    trace_id,
                });
            }
            return (
                GateDecision {
                    trace_id,
                    decision: Decision::Honeypot,
                    reasons: vec!["honeypot:session-diverted".to_owned()],
                    score: 0.0,
                    signals: Vec::new(),
                },
                span_trace,
            );
        }

        let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
        let verdict = self
            .detection
            .assess(now, req.ip, &req.fingerprint, endpoint, booking);
        self.telemetry.record_stage("detect.assess", t.elapsed());
        self.metrics.detection_score.record(verdict.score);
        if let Some(tr) = span_trace.as_mut() {
            let assess = tr.stage("detect.assess");
            tr.attr(assess, "score", AttrValue::Float3(verdict.score));
            for signal in &verdict.signals {
                let child = tr.child(assess, signal_span(signal.kind()));
                tr.attr(child, "signal", signal.to_string());
                tr.attr(child, "weight", AttrValue::Float3(signal.weight()));
            }
        }
        for signal in &verdict.signals {
            if let Some(counter) = self.metrics.signal_counter(signal.kind()) {
                counter.inc();
            }
        }
        if verdict.score >= self.config.reputation_feedback_threshold {
            self.detection
                .reputation_mut()
                .report(req.ip, verdict.score, now);
        }

        let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
        let trace = self.policy.decide_traced(&RequestContext {
            now,
            ip: req.ip,
            fingerprint: &req.fingerprint,
            endpoint,
            booking,
            tier: req.tier,
            client_key: req.client.as_u64(),
            verdict: &verdict,
        });
        self.telemetry.record_stage("policy.decide", t.elapsed());
        let decision = trace.decision;
        let reasons = trace.reason_strings();
        if let Some(tr) = span_trace.as_mut() {
            let decide = tr.stage("policy.decide");
            tr.attr(decide, "decision", decision.as_str());
            tr.attr(decide, "reasons", reasons.join(" → "));
            tr.attr(decide, "client_key", req.client.as_u64());
            if let Some(booking) = booking {
                tr.attr(decide, "limiter_booking", booking.to_string());
            }
        }
        let signal_scores: Vec<SignalScore> = verdict
            .signals
            .iter()
            .map(|s| SignalScore {
                signal: s.to_string(),
                weight: s.weight(),
            })
            .collect();
        if self.telemetry.audit_enabled() {
            self.telemetry.record_audit(AuditRecord {
                at: now,
                endpoint: endpoint.to_string(),
                client: req.client.as_u64(),
                fingerprint: req.fingerprint.identity_hash(),
                ip: req.ip.to_string(),
                score: verdict.score,
                signals: signal_scores.clone(),
                decision: decision.to_string(),
                reasons: reasons.clone(),
                trace_id,
            });
        }

        // Honeypot diversion is part of the decision's effect on defence
        // state (the session turns sticky), so it is applied here — on the
        // wire path as much as in the simulator.
        if decision == Decision::Honeypot {
            self.honeypot.divert(req.client, now);
            self.metrics.honeypot_diversions.inc();
            if let Some(tr) = span_trace.as_mut() {
                let divert = tr.stage("mitigation.honeypot-divert");
                tr.attr(divert, "sticky", true);
            }
        }

        (
            GateDecision {
                trace_id,
                decision,
                reasons,
                score: verdict.score,
                signals: signal_scores,
            },
            span_trace,
        )
    }

    /// Runs the decision pipeline for one wire request and returns the
    /// outcome the serving layer puts on the wire. Identical decision, audit
    /// record, and reason chain to the simulator path under the same
    /// request stream, config, seed, and shard count — the parity the
    /// `decision_parity` integration test asserts.
    pub fn decide_request(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> GateDecision {
        let (gated, span_trace) = self.decide_request_traced(req, endpoint, booking, now);
        if let Some(tr) = span_trace {
            self.telemetry.record_trace(tr);
        }
        gated
    }

    /// Like [`DefendedApp::decide_request`], but hands the finished (not yet
    /// submitted) trace back to the caller, so a serving layer can append
    /// its own transport spans — wire trace correlation, response status,
    /// measured latency — and pin slow requests before submission. The
    /// decision itself is identical to [`DefendedApp::decide_request`].
    pub fn decide_request_traced(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> (GateDecision, Option<RequestTrace>) {
        let (gated, mut span_trace) = self.decide_inner(req, endpoint, booking, now);
        if let Some(tr) = span_trace.as_mut() {
            tr.finish(gated.decision.as_str());
        }
        (gated, span_trace)
    }

    /// Runs the defence pipeline. `Ok(true)` means "proceed against the real
    /// application", `Ok(false)` means "the honeypot serves this request",
    /// `Err(outcome)` is the refusal to surface to the client.
    fn gate<T>(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> Result<bool, ApiOutcome<T>> {
        let (gated, mut span_trace) = self.decide_inner(req, endpoint, booking, now);
        let decision = gated.decision;
        let result = match decision {
            Decision::Allow => Ok(true),
            Decision::Challenge => {
                let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
                let result = if req.is_bot {
                    let outcome = self.config.captcha.challenge_bot(&mut self.captcha_rng);
                    *self.solver_spend.entry(req.client).or_insert(Money::ZERO) +=
                        self.config.captcha.solver_price;
                    self.metrics
                        .solver_spend
                        .add(self.config.captcha.solver_price.as_f64());
                    if outcome.solved() {
                        Ok(true)
                    } else {
                        Err(ApiOutcome::ChallengeFailed)
                    }
                } else {
                    let outcome = self.config.captcha.challenge_human(&mut self.captcha_rng);
                    if outcome.solved() {
                        Ok(true)
                    } else {
                        self.metrics.human_abandons.inc();
                        self.defender.friction_losses += self.config.seat_revenue.mul_f64(0.1);
                        Err(ApiOutcome::ChallengeFailed)
                    }
                };
                match &result {
                    Ok(_) => self.metrics.challenges_solved.inc(),
                    Err(_) => self.metrics.challenges_failed.inc(),
                }
                self.telemetry
                    .record_stage("mitigation.captcha", t.elapsed());
                if let Some(tr) = span_trace.as_mut() {
                    let captcha = tr.stage("mitigation.captcha");
                    tr.attr(captcha, "solver", req.is_bot);
                    tr.attr(
                        captcha,
                        "outcome",
                        if result.is_ok() { "solved" } else { "failed" },
                    );
                }
                result
            }
            // Diversion itself already happened in `decide_inner`; the
            // sticky-session outcome is all that is left to surface.
            Decision::Honeypot => Ok(false),
            Decision::RateLimited => Err(ApiOutcome::RateLimited),
            Decision::TierDenied => Err(ApiOutcome::TierDenied),
            Decision::Block => Err(ApiOutcome::Blocked),
        };
        if let Some(mut tr) = span_trace.take() {
            tr.finish(decision.as_str());
            self.telemetry.record_trace(tr);
        }
        result
    }
}

impl App for DefendedApp {
    fn search(&mut self, req: &ClientRequest, now: SimTime) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::Search, None, now) {
            Ok(_) => {
                self.log(req, Endpoint::Search, Method::Get, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::Search, Method::Get, false, now);
                refusal
            }
        }
    }

    fn hold(
        &mut self,
        req: &ClientRequest,
        flight: FlightId,
        passengers: Vec<Passenger>,
        now: SimTime,
    ) -> ApiOutcome<BookingRef> {
        let nip = passengers.len() as f64;
        match self.gate::<BookingRef>(req, Endpoint::Hold, None, now) {
            Ok(true) => match self.reservations.hold(flight, passengers, now) {
                Ok(reference) => {
                    self.metrics.nip_hold.record(nip);
                    self.log(req, Endpoint::Hold, Method::Post, true, now);
                    ApiOutcome::Ok(reference)
                }
                Err(e) => {
                    self.log(req, Endpoint::Hold, Method::Post, false, now);
                    ApiOutcome::Domain(e)
                }
            },
            Ok(false) => {
                // The decoy accepts the hold against fake inventory.
                let seats = passengers.len() as u32;
                let fake = self.honeypot.absorb_hold(req.client, seats, now);
                self.log(req, Endpoint::Hold, Method::Post, true, now);
                ApiOutcome::Ok(fake)
            }
            Err(refusal) => {
                self.log(req, Endpoint::Hold, Method::Post, false, now);
                refusal
            }
        }
    }

    fn pay(&mut self, req: &ClientRequest, booking: BookingRef, now: SimTime) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::Pay, Some(booking), now) {
            Ok(true) => {
                // Quote before the sale: paying moves seats from held to
                // sold, and the buyer pays the fare displayed at checkout.
                let (fare, nip) = match self.reservations.booking(booking) {
                    Some(b) => (self.fare(b.flight(), now), b.nip()),
                    None => (None, 0),
                };
                let result = self
                    .reservations
                    .pay(booking, now)
                    .and_then(|()| self.reservations.ticket(booking));
                match result {
                    Ok(()) => {
                        if let Some(fare) = fare {
                            self.ticket_revenue += fare * u64::from(nip);
                            self.metrics
                                .ticket_revenue
                                .set(self.ticket_revenue.as_f64());
                        }
                        self.log(req, Endpoint::Pay, Method::Post, true, now);
                        ApiOutcome::Ok(())
                    }
                    Err(e) => {
                        self.log(req, Endpoint::Pay, Method::Post, false, now);
                        ApiOutcome::Domain(e)
                    }
                }
            }
            Ok(false) => {
                // Fake success inside the decoy.
                self.log(req, Endpoint::Pay, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::Pay, Method::Post, false, now);
                refusal
            }
        }
    }

    fn send_otp(
        &mut self,
        req: &ClientRequest,
        phone: PhoneNumber,
        now: SimTime,
    ) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::SendOtp, None, now) {
            Ok(true) => {
                let receipt = self.gateway.send(SmsMessage::new(phone, SmsKind::Otp), now);
                let ok = receipt.delivered;
                self.log(req, Endpoint::SendOtp, Method::Post, ok, now);
                if receipt.quota_exceeded {
                    ApiOutcome::QuotaExceeded
                } else {
                    ApiOutcome::Ok(())
                }
            }
            Ok(false) => {
                self.honeypot.absorb_sms(req.client, now);
                self.log(req, Endpoint::SendOtp, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::SendOtp, Method::Post, false, now);
                refusal
            }
        }
    }

    fn boarding_pass_sms(
        &mut self,
        req: &ClientRequest,
        booking: BookingRef,
        phone: PhoneNumber,
        now: SimTime,
    ) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::BoardingPass, Some(booking), now) {
            Ok(true) => match self.reservations.issue_boarding_pass(booking) {
                Ok(_seq) => {
                    let receipt = self
                        .gateway
                        .send(SmsMessage::new(phone, SmsKind::BoardingPass(booking)), now);
                    self.log(
                        req,
                        Endpoint::BoardingPass,
                        Method::Post,
                        receipt.delivered,
                        now,
                    );
                    if receipt.quota_exceeded {
                        ApiOutcome::QuotaExceeded
                    } else {
                        ApiOutcome::Ok(())
                    }
                }
                Err(e) => {
                    self.log(req, Endpoint::BoardingPass, Method::Post, false, now);
                    ApiOutcome::Domain(e)
                }
            },
            Ok(false) => {
                self.honeypot.absorb_sms(req.client, now);
                self.log(req, Endpoint::BoardingPass, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::BoardingPass, Method::Post, false, now);
                refusal
            }
        }
    }

    fn availability(&self, flight: FlightId) -> Option<Availability> {
        self.reservations.availability(flight)
    }

    fn departure(&self, flight: FlightId) -> Option<SimTime> {
        self.reservations.flight(flight).map(|f| f.departure())
    }

    fn quote(&self, flight: FlightId, now: SimTime) -> Option<Money> {
        self.fare(flight, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_fingerprint::population::PopulationModel;
    use fg_mitigation::gating::TrustTier;
    use fg_netsim::geo::GeoDatabase;
    use fg_netsim::ip::IpClass;
    use rand::SeedableRng;

    fn human_req(seed: u64, tier: TrustTier) -> ClientRequest {
        let mut rng = StdRng::seed_from_u64(seed);
        let geo = GeoDatabase::default_world();
        ClientRequest {
            client: ClientId(seed),
            ip: geo
                .sample_ip(
                    fg_core::ids::CountryCode::new("GB"),
                    IpClass::Residential,
                    &mut rng,
                )
                .unwrap(),
            fingerprint: PopulationModel::default_web().sample_human(&mut rng),
            tier,
            is_bot: false,
        }
    }

    fn app(policy: PolicyConfig) -> DefendedApp {
        let mut app = DefendedApp::new(AppConfig::airline(policy), 7);
        app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
        app
    }

    fn pax(n: usize) -> Vec<Passenger> {
        (0..n)
            .map(|i| Passenger::simple(&format!("P{i}"), "TEST"))
            .collect()
    }

    #[test]
    fn full_happy_path_for_a_human() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(1, TrustTier::Verified);
        assert!(a.search(&req, SimTime::ZERO).is_ok());
        let booking = a
            .hold(&req, FlightId(1), pax(2), SimTime::from_mins(1))
            .unwrap();
        assert!(a.pay(&req, booking, SimTime::from_mins(5)).is_ok());
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("GB"), 7_700_900_001);
        assert!(a
            .boarding_pass_sms(&req, booking, phone, SimTime::from_mins(10))
            .is_ok());
        assert_eq!(a.gateway().sent_total(), 1);
        assert_eq!(a.logs().len(), 4);
        assert!(a.logs().iter().all(|l| l.ok));
    }

    #[test]
    fn unprotected_app_never_refuses() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(2, TrustTier::Anonymous);
        let booking = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO).unwrap();
        a.pay(&req, booking, SimTime::from_mins(1)).unwrap();
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("UZ"), 99_000_001);
        // 500 boarding-pass SMS against one booking sail through (§IV-C).
        for i in 0..500u64 {
            assert!(a
                .boarding_pass_sms(&req, booking, phone, SimTime::from_mins(2 + i))
                .is_ok());
        }
        assert_eq!(a.gateway().sent_total(), 500);
    }

    #[test]
    fn recommended_app_limits_per_booking_sms() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(3, TrustTier::Verified);
        let booking = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO).unwrap();
        a.pay(&req, booking, SimTime::from_mins(1)).unwrap();
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("UZ"), 99_000_002);
        let mut sent = 0;
        for i in 0..10u64 {
            if a.boarding_pass_sms(&req, booking, phone, SimTime::from_mins(5 + i))
                .is_ok()
            {
                sent += 1;
            }
        }
        assert!(sent <= 3, "per-booking SMS cap enforced: {sent}");
    }

    #[test]
    fn tier_gate_refuses_anonymous_holds() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(4, TrustTier::Anonymous);
        assert_eq!(
            a.hold(&req, FlightId(1), pax(1), SimTime::ZERO),
            ApiOutcome::TierDenied
        );
    }

    #[test]
    fn honeypot_diversion_fakes_success_and_spares_inventory() {
        let mut a = app(PolicyConfig::recommended());
        // A blatant bot: webdriver artifact → score 1.0 → honeypot.
        let mut req = human_req(5, TrustTier::Verified);
        req.fingerprint.webdriver = true;
        req.is_bot = true;
        let fake = a.hold(&req, FlightId(1), pax(6), SimTime::ZERO);
        assert!(fake.is_ok(), "the decoy accepts the hold: {fake:?}");
        let avail = a.availability(FlightId(1)).unwrap();
        assert_eq!(avail.held, 0, "real inventory untouched");
        assert_eq!(a.honeypot().stats().seats_absorbed, 6);
        // Subsequent requests stay in the decoy — even innocuous ones.
        assert!(a.search(&req, SimTime::from_mins(1)).is_ok());
        assert!(a.pay(&req, fake.unwrap(), SimTime::from_mins(2)).is_ok());
    }

    #[test]
    fn challenged_bot_pays_solver_fees() {
        let mut cfg = PolicyConfig::traditional_antibot();
        cfg.challenge_threshold = 0.0; // challenge everything
        let mut a = app(cfg);
        let mut req = human_req(6, TrustTier::Verified);
        req.is_bot = true;
        for i in 0..20u64 {
            let _ = a.search(&req, SimTime::from_secs(i));
        }
        assert!(a.solver_spend(req.client) > Money::ZERO);
        // The fee is charged per attempt, failed solves included.
        let metrics = a.telemetry().snapshot().metrics;
        let challenges = |outcome| {
            metrics
                .counter_value("fg_challenges_total", &[("outcome", outcome)])
                .expect("registered at construction")
        };
        assert!(challenges("failed") > 0, "the seed sees a failed solve");
        assert_eq!(
            a.solver_spend(req.client),
            a.config.captcha.solver_price * (challenges("solved") + challenges("failed"))
        );
    }

    #[test]
    fn challenged_humans_sometimes_abandon() {
        let mut cfg = PolicyConfig::traditional_antibot();
        cfg.challenge_threshold = 0.0;
        let mut a = app(cfg);
        for i in 0..300u64 {
            let req = human_req(100 + i, TrustTier::Verified);
            let _ = a.search(&req, SimTime::from_secs(i));
        }
        let abandons = a
            .telemetry()
            .snapshot()
            .metrics
            .counter_value("fg_human_abandons_total", &[])
            .expect("registered at construction");
        assert!(abandons > 0, "friction surfaces");
        assert!(a.defender_ledger().friction_losses > Money::ZERO);
    }

    #[test]
    fn defender_ledger_includes_sms_cost() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(7, TrustTier::Verified);
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("GB"), 7_700_900_009);
        a.send_otp(&req, phone, SimTime::ZERO).unwrap();
        assert_eq!(a.defender_ledger().sms_cost, Money::from_cents(4));
    }

    #[test]
    fn logs_capture_fingerprint_registry() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(8, TrustTier::Verified);
        a.search(&req, SimTime::ZERO).unwrap();
        let hash = req.fingerprint.identity_hash();
        assert_eq!(a.fingerprint_by_hash(hash), Some(&req.fingerprint));
    }

    #[test]
    fn signal_spans_are_detect_dot_kind() {
        for (kind, span) in Signal::KINDS.iter().zip(SIGNAL_SPANS) {
            assert_eq!(span, format!("detect.{kind}"));
            assert_eq!(signal_span(kind), span);
        }
    }

    #[test]
    fn audit_trail_explains_honeypot_routings() {
        let mut a = app(PolicyConfig::recommended());
        let mut req = human_req(9, TrustTier::Verified);
        req.fingerprint.webdriver = true;
        req.is_bot = true;
        let _ = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO);
        // Second request rides the sticky diversion.
        let _ = a.search(&req, SimTime::from_mins(1));

        let telemetry = a.telemetry().clone();
        let audit = telemetry.audit();
        let routings: Vec<_> = audit.with_decision("honeypot").collect();
        assert_eq!(routings.len(), 2);
        // The first routing names the signal that triggered it …
        let first = routings[0];
        assert_eq!(
            first.triggering_signal().unwrap().signal,
            "fingerprint-inconsistent(1.00)"
        );
        assert!(
            first
                .reasons
                .iter()
                .any(|r| r.starts_with("score-block:triggered")),
            "{:?}",
            first.reasons
        );
        // … the second records the sticky session.
        assert_eq!(routings[1].reasons, vec!["honeypot:session-diverted"]);
        assert_eq!(routings[1].endpoint, "/search");
    }

    #[test]
    fn tick_compacts_defence_state_and_exports_gauges() {
        let mut a = app(PolicyConfig::recommended());
        // 30 distinct one-shot identities touch the app within one hour.
        for i in 0..30u64 {
            let req = human_req(500 + i, TrustTier::Verified);
            let _ = a.search(&req, SimTime::from_mins(i));
        }
        a.tick(SimTime::from_hours(1));
        assert!(a.detection().tracked_keys().total() > 0);
        // Three hours later all events are outside the velocity window.
        a.tick(SimTime::from_hours(3));
        assert_eq!(a.detection().tracked_keys().total(), 0);
        assert_eq!(a.policy().limiter_tracked_keys(), (0, 0));
        let snap = a.telemetry().snapshot();
        for map in TRACKED_MAPS {
            assert_eq!(
                snap.metrics.gauge_value("fg_tracked_keys", &[("map", map)]),
                Some(0.0),
                "gauge for {map}"
            );
        }
    }

    #[test]
    fn gate_metrics_and_stages_accumulate() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(10, TrustTier::Verified);
        a.search(&req, SimTime::ZERO).unwrap();
        let booking = a
            .hold(&req, FlightId(1), pax(2), SimTime::from_mins(1))
            .unwrap();
        a.pay(&req, booking, SimTime::from_mins(5)).unwrap();

        let snap = a.telemetry().snapshot();
        assert_eq!(
            snap.metrics
                .counter_value("fg_requests_total", &[("endpoint", "/search")]),
            Some(1)
        );
        assert_eq!(
            snap.metrics
                .counter_value("fg_requests_total", &[("endpoint", "/booking/hold")]),
            Some(1)
        );
        assert_eq!(
            snap.metrics
                .counter_value("fg_decisions_total", &[("decision", "allow")]),
            Some(3)
        );
        // Revenue gauge follows the sale (2 pax × £120).
        let revenue = snap
            .metrics
            .gauge_value("fg_ticket_revenue_units", &[])
            .unwrap();
        assert!((revenue - a.ticket_revenue().as_f64()).abs() < 1e-9);
        // Stage profiles cover detection, policy, and the honeypot check.
        let stages: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        for expected in [
            "mitigation.honeypot-check",
            "detect.assess",
            "policy.decide",
        ] {
            assert!(stages.contains(&expected), "missing stage {expected}");
        }
        // Detection-score histogram saw all three requests.
        let hist = snap
            .metrics
            .histograms
            .iter()
            .find(|h| h.name.name == "fg_detection_score")
            .expect("score histogram registered");
        assert_eq!(hist.count, 3);
    }
}
