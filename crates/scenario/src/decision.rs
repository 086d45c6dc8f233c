//! The decision core: the detection → mitigation pipeline and the defence
//! state it keeps.
//!
//! [`DecisionCore`] is what both hosts of a decision run. The simulator's
//! [`DefendedApp`](crate::app::DefendedApp) wraps it with the reservation
//! system, the SMS gateway and the behaviour model's bookkeeping, and
//! writes the audit trail; fg-serve's `DecisionService` locks the core
//! alone. Both call [`DecisionCore::decide`], which is why wire and
//! simulator decisions agree request by request, and both run
//! [`DecisionCore::housekeep`] before every decision, the one place the
//! housekeeping cadence is stated. The core takes no randomness.

use fg_behavior::api::ClientRequest;
use fg_core::ids::BookingRef;
use fg_core::time::{SimDuration, SimTime};
use fg_detection::engine::{DetectionEngine, Signal};
use fg_detection::log::Endpoint;
use fg_mitigation::honeypot::Honeypot;
use fg_mitigation::policy::{Decision, DecisionCounts, PolicyConfig, PolicyEngine, RequestContext};
use fg_telemetry::audit::SignalScore;
use fg_telemetry::metrics::{Counter, Gauge, Histogram, Latency};
use fg_telemetry::{AttrValue, RequestTrace, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// How far the clock must move past the last housekeeping tick before
/// [`DecisionCore::housekeep`] runs the next one.
const HOUSEKEEPING_EVERY: SimDuration = SimDuration::from_mins(5);

/// Detection verdict score at or above which the source IP is reported to
/// the reputation ledger.
const REPUTATION_FEEDBACK_THRESHOLD: f64 = 0.8;

/// The wire-visible outcome of one trip through the defence pipeline: what
/// `/v1/decide` returns and what the simulator's audit trail records.
/// Produced by [`DecisionCore::decide`] for both hosts, which is what makes
/// wire/sim decision parity hold by construction.
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

/// Every policy decision, in the order [`CoreMetrics`] registers
/// `fg_decisions_total{decision}`.
const DECISIONS: [Decision; 6] = [
    Decision::Allow,
    Decision::Challenge,
    Decision::RateLimited,
    Decision::TierDenied,
    Decision::Honeypot,
    Decision::Block,
];

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

/// Pre-registered handles for everything a decision increments or times,
/// so the hot path never touches the registry mutex.
#[derive(Debug)]
struct CoreMetrics {
    /// One counter per endpoint, in [`Endpoint::ALL`] order.
    requests: Vec<Counter>,
    /// One counter per policy decision, in [`DECISIONS`] order.
    decisions: Vec<Counter>,
    /// One counter per signal kind, in [`Signal::KINDS`] order.
    signals: Vec<Counter>,
    honeypot_diversions: Counter,
    detection_score: Histogram,
    /// One gauge per defence-state map, in [`TRACKED_MAPS`] order: current
    /// key population after housekeeping.
    tracked_keys: Vec<Gauge>,
    /// The `detect.assess` and `policy.decide` stage latency cells.
    assess: Latency,
    decide: Latency,
}

impl CoreMetrics {
    fn register(telemetry: &Telemetry) -> Self {
        let registry = telemetry.metrics();
        for (name, help) in [
            (
                "fg_requests_total",
                "Requests reaching the gate, by endpoint",
            ),
            ("fg_decisions_total", "Policy decisions issued, by kind"),
            (
                "fg_signals_total",
                "Detection signals raised, by signal kind",
            ),
            (
                "fg_honeypot_diversions_total",
                "Sessions newly diverted into the decoy environment",
            ),
            (
                "fg_detection_score",
                "Detection verdict score per gated request",
            ),
            (
                "fg_tracked_keys",
                "Live key population per defence-state map after housekeeping",
            ),
        ] {
            registry.set_help(name, help);
        }
        CoreMetrics {
            requests: Endpoint::ALL
                .iter()
                .map(|e| {
                    let path = e.to_string();
                    registry.counter_with("fg_requests_total", &[("endpoint", path.as_str())])
                })
                .collect(),
            decisions: DECISIONS
                .iter()
                .map(|d| registry.counter_with("fg_decisions_total", &[("decision", d.as_str())]))
                .collect(),
            signals: Signal::KINDS
                .iter()
                .map(|kind| registry.counter_with("fg_signals_total", &[("signal", kind)]))
                .collect(),
            honeypot_diversions: registry.counter("fg_honeypot_diversions_total"),
            detection_score: registry.histogram(
                "fg_detection_score",
                &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            ),
            tracked_keys: TRACKED_MAPS
                .iter()
                .map(|map| registry.gauge_with("fg_tracked_keys", &[("map", map)]))
                .collect(),
            assess: telemetry.stage_latency("detect.assess"),
            decide: telemetry.stage_latency("policy.decide"),
        }
    }

    fn endpoint_counter(&self, endpoint: Endpoint) -> Option<&Counter> {
        self.requests.get(endpoint.index())
    }

    fn decision_counter(&self, decision: Decision) -> Option<&Counter> {
        DECISIONS
            .iter()
            .position(|d| *d == decision)
            .and_then(|i| self.decisions.get(i))
    }

    fn signal_counter(&self, kind: &str) -> Option<&Counter> {
        Signal::KINDS
            .iter()
            .position(|k| *k == kind)
            .and_then(|i| self.signals.get(i))
    }
}

/// The detection, policy and honeypot engines, with the metrics a decision
/// records, the request sequence that derives trace ids, and the
/// housekeeping clock.
#[derive(Debug)]
pub struct DecisionCore {
    detection: DetectionEngine,
    policy: PolicyEngine,
    honeypot: Honeypot,
    telemetry: Arc<Telemetry>,
    metrics: CoreMetrics,
    /// Monotone per-core request counter; with the client id it derives the
    /// deterministic `trace_id` stamped on decisions and span traces.
    request_seq: u64,
    /// When [`DecisionCore::housekeep`] last ran a tick.
    last_housekeeping: SimTime,
    /// Shard count of every keyed defence store.
    shards: usize,
}

impl DecisionCore {
    /// Builds the core for `policy`, with every keyed store split into
    /// `shards` (rounded up to a power of two), recording into `telemetry`.
    pub fn new(policy: PolicyConfig, shards: usize, telemetry: Arc<Telemetry>) -> Self {
        DecisionCore {
            detection: DetectionEngine::with_shards(shards),
            policy: PolicyEngine::with_shards(policy, shards),
            honeypot: Honeypot::new(),
            metrics: CoreMetrics::register(&telemetry),
            telemetry,
            request_seq: 0,
            last_housekeeping: SimTime::ZERO,
            shards,
        }
    }

    /// The telemetry hub this core records into.
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Swaps the policy config in place. Block rules and limiter buckets
    /// reset — a hot-swap is a posture change, and stale per-key debt under
    /// the old posture must not leak into the new one — while
    /// `fg_decisions_total`, which the core counts, carries on. Callers are
    /// expected to have validated `policy` (see
    /// `fg_analyze::validate_serve_policy`); in debug builds an invalid
    /// config panics at engine construction.
    pub fn replace_policy(&mut self, policy: PolicyConfig) {
        self.policy = PolicyEngine::with_shards(policy, self.shards);
    }

    /// The policy engine (read access).
    pub fn policy(&self) -> &PolicyEngine {
        &self.policy
    }

    /// The policy engine (mutable, for deploying block rules).
    pub(crate) fn policy_mut(&mut self) -> &mut PolicyEngine {
        &mut self.policy
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

    /// The honeypot (mutable, for the decoy's fake inventory and SMS).
    pub(crate) fn honeypot_mut(&mut self) -> &mut Honeypot {
        &mut self.honeypot
    }

    /// Policy decisions taken so far, read from the `fg_decisions_total`
    /// cells. Sticky honeypot sessions never reach the policy, so their
    /// requests are not counted here. The cells belong to the telemetry
    /// hub, so cores built on one hub count into the same cells.
    pub fn decision_counts(&self) -> DecisionCounts {
        let count = |d| self.metrics.decision_counter(d).map_or(0, Counter::get);
        DecisionCounts {
            allow: count(Decision::Allow),
            challenge: count(Decision::Challenge),
            rate_limited: count(Decision::RateLimited),
            tier_denied: count(Decision::TierDenied),
            honeypot: count(Decision::Honeypot),
            block: count(Decision::Block),
        }
    }

    /// Runs [`DecisionCore::tick`] when `now` is at least five minutes past
    /// the last tick it ran (the epoch at first), and says whether it did;
    /// a clock that went backwards never ticks. Both hosts call this before
    /// every decision.
    pub fn housekeep(&mut self, now: SimTime) -> bool {
        let due = now.saturating_since(self.last_housekeeping) >= HOUSEKEEPING_EVERY;
        if due {
            self.tick(now);
            self.last_housekeeping = now;
        }
        due
    }

    /// Bounds the defence state at `now`: velocity-map compaction and
    /// idle-limiter eviction. These keep it bounded by the *live* identity
    /// population under the paper's rotating-fingerprint/proxy workloads —
    /// without them every identity ever seen would leave a map entry behind
    /// forever. The resulting key populations are exported as
    /// `fg_tracked_keys` gauges.
    pub fn tick(&mut self, now: SimTime) {
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
    }

    /// Decides one request: honeypot stickiness → detection → reputation
    /// feedback → policy, plus honeypot diversion when that is the
    /// decision. Returns the wire-visible [`GateDecision`] and the span
    /// trace, finished but not submitted (`None` when tracing is off), on
    /// every path, the sticky honeypot included, so a host can append its
    /// own spans. CAPTCHA resolution is *not* part of this: it consumes
    /// randomness and belongs to the simulator's behaviour model.
    pub fn decide(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> (GateDecision, Option<RequestTrace>) {
        if let Some(counter) = self.metrics.endpoint_counter(endpoint) {
            counter.inc();
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
        let diverted = self.honeypot.is_diverted(req.client);
        if let Some(tr) = span_trace.as_mut() {
            let check = tr.stage("mitigation.honeypot-check");
            tr.attr(check, "diverted", diverted);
        }
        if diverted {
            if let Some(tr) = span_trace.as_mut() {
                tr.finish(Decision::Honeypot.as_str());
            }
            let gated = GateDecision {
                trace_id,
                decision: Decision::Honeypot,
                reasons: vec!["honeypot:session-diverted".to_owned()],
                score: 0.0,
                signals: Vec::new(),
            };
            return (gated, span_trace);
        }

        let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
        let verdict = self
            .detection
            .assess(now, req.ip, &req.fingerprint, endpoint, booking);
        self.metrics.assess.record(t.elapsed());
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
        if verdict.score >= REPUTATION_FEEDBACK_THRESHOLD {
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
        self.metrics.decide.record(t.elapsed());
        let decision = trace.decision;
        if let Some(counter) = self.metrics.decision_counter(decision) {
            counter.inc();
        }
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

        // Honeypot diversion is part of the decision's effect on defence
        // state (the session turns sticky), so it is applied here, for
        // both hosts.
        if decision == Decision::Honeypot {
            self.honeypot.divert(req.client, now);
            self.metrics.honeypot_diversions.inc();
            if let Some(tr) = span_trace.as_mut() {
                let divert = tr.stage("mitigation.honeypot-divert");
                tr.attr(divert, "sticky", true);
            }
        }
        if let Some(tr) = span_trace.as_mut() {
            tr.finish(decision.as_str());
        }

        let gated = GateDecision {
            trace_id,
            decision,
            reasons,
            score: verdict.score,
            signals: verdict
                .signals
                .iter()
                .map(|s| SignalScore {
                    signal: s.to_string(),
                    weight: s.weight(),
                })
                .collect(),
        };
        (gated, span_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_spans_are_detect_dot_kind() {
        for (kind, span) in Signal::KINDS.iter().zip(SIGNAL_SPANS) {
            assert_eq!(span, format!("detect.{kind}"));
            assert_eq!(signal_span(kind), span);
        }
    }
}
