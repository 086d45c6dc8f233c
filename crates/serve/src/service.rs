//! The decision service: the deterministic core behind the HTTP endpoints.
//!
//! Locks one [`DecisionCore`] behind a mutex: the detection, policy and
//! honeypot engines with their metrics, and nothing of the simulator's
//! airline. Decisions come out of [`DecisionCore::decide`], the call the
//! simulator makes too, so wire replies and simulator artifacts agree
//! byte-for-byte under the same request stream, policy and shard count. The service writes no audit record: each decision is
//! explained by its trace (`/debug/traces` keeps every non-allow decision
//! with its reason chain) and its flight-recorder entry. Determinism stops
//! at the transport: *when* a request arrives is wall-clock, *what* it
//! decides is a pure function of its content (each request carries its own
//! session clock, `now_ms`).

use fg_core::time::SimTime;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::ip::IpAddress;
use fg_scenario::decision::{DecisionCore, GateDecision};
use fg_scenario::workload::WireRequest;
use fg_telemetry::{RequestTrace, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::ServeConfig;

/// Outcome feedback posted to `/v1/report`: a confirmed-abuse (or
/// explicitly cleared) verdict for a source IP, folded into the reputation
/// ledger that the detection engine consults on later requests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutcomeReport {
    /// The source IP the outcome is about.
    pub ip: IpAddress,
    /// Abuse score in `[0, 1]` (1 = confirmed abuse).
    pub score: f64,
    /// Session clock of the feedback, milliseconds.
    pub now_ms: u64,
}

/// `/v1/report`'s acknowledgement body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReportAck {
    /// Always `true` on 200.
    pub ok: bool,
    /// Total outcome reports folded in since boot.
    pub reports: u64,
}

/// The shared decision core.
pub struct DecisionService {
    core: Mutex<DecisionCore>,
    telemetry: Arc<Telemetry>,
    reports: AtomicU64,
    decisions: AtomicU64,
}

impl DecisionService {
    /// Builds the decision core from the serve config, wired to `telemetry`.
    pub fn new(config: &ServeConfig, telemetry: Arc<Telemetry>) -> Self {
        let core = DecisionCore::new(config.policy.clone(), config.shards, telemetry.clone());
        DecisionService {
            core: Mutex::new(core),
            telemetry,
            reports: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// Locks the core, recovering from a poisoned mutex (a panicking handler
    /// must not brick the service; the breaker absorbs repeated failures).
    fn core(&self) -> MutexGuard<'_, DecisionCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The telemetry hub the decision core records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Decides one wire request, running due housekeeping first.
    pub fn decide(&self, req: &WireRequest) -> GateDecision {
        let (decision, trace) = self.decide_traced(req);
        if let Some(tr) = trace {
            self.telemetry().record_trace(tr);
        }
        decision
    }

    /// Like [`DecisionService::decide`], but returns the finished (not yet
    /// submitted) request trace so the HTTP layer can append transport
    /// spans — response status, measured latency, wire trace correlation —
    /// and pin slow requests before submitting. The decision is identical
    /// to [`DecisionService::decide`] byte-for-byte.
    pub fn decide_traced(&self, req: &WireRequest) -> (GateDecision, Option<RequestTrace>) {
        let request = req.client_request();
        let now = req.now();
        let mut core = self.core();
        core.housekeep(now);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        core.decide(&request, req.endpoint, req.booking, now)
    }

    /// Folds one outcome report into the reputation ledger.
    pub fn report(&self, outcome: &OutcomeReport) -> Result<ReportAck, String> {
        if !(0.0..=1.0).contains(&outcome.score) {
            return Err(format!("score {} outside [0, 1]", outcome.score));
        }
        let mut core = self.core();
        core.detection_mut().reputation_mut().report(
            outcome.ip,
            outcome.score,
            SimTime::from_millis(outcome.now_ms),
        );
        let reports = self.reports.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(ReportAck { ok: true, reports })
    }

    /// Hot-swaps the policy (validated upstream by the watcher), keeping
    /// decision-counter continuity.
    pub fn replace_policy(&self, policy: PolicyConfig) {
        self.core().replace_policy(policy);
    }

    /// Decisions served since boot.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_mitigation::policy::Decision;
    use fg_scenario::workload::{generate, WorkloadConfig};

    fn service() -> DecisionService {
        DecisionService::new(&ServeConfig::recommended(), Telemetry::shared())
    }

    #[test]
    fn a_decision_times_each_layer_once() {
        // Each layer is timed by the component that owns it, and only
        // there: detection is one `detect.assess` sample, not a stage per
        // signal family nested inside it, and the honeypot check, one map
        // lookup, is a trace stage only.
        let telemetry = Telemetry::shared();
        let svc = DecisionService::new(&ServeConfig::recommended(), telemetry.clone());
        let workload = generate(&WorkloadConfig {
            seed: 5,
            horizon_hours: 1,
            arrivals_per_day: 60.0,
            seat_spinner: false,
            sms_pumper: false,
        });
        svc.decide(&workload.requests[0]);
        let stages: Vec<(String, u64)> = telemetry
            .profiler()
            .snapshot()
            .into_iter()
            .map(|s| (s.stage, s.count))
            .collect();
        assert_eq!(
            stages,
            [
                ("detect.assess".to_owned(), 1),
                ("policy.decide".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn report_validates_score_and_counts() {
        let svc = service();
        let ip = IpAddress::from_octets(10, 0, 0, 9);
        assert!(svc
            .report(&OutcomeReport {
                ip,
                score: 2.0,
                now_ms: 0
            })
            .is_err());
        let ack = svc
            .report(&OutcomeReport {
                ip,
                score: 1.0,
                now_ms: 1_000,
            })
            .unwrap();
        assert!(ack.ok);
        assert_eq!(ack.reports, 1);
    }

    #[test]
    fn far_future_clock_does_not_overflow_the_tick_check() {
        // The session clock is attacker-controlled: after one request at
        // `u64::MAX`, the next tick threshold must saturate rather than
        // overflow, and later in-range requests still decide. At `2^63`
        // the housekeeping tick's window arithmetic must not overflow
        // either.
        let cfg = WorkloadConfig {
            seed: 17,
            horizon_hours: 1,
            arrivals_per_day: 60.0,
            seat_spinner: false,
            sms_pumper: false,
        };
        let workload = generate(&cfg);
        let req = workload.requests.first().expect("non-empty workload");
        for far_ms in [u64::MAX, 1 << 63] {
            let svc = service();
            svc.decide(req);
            let far = WireRequest {
                now_ms: far_ms,
                ..req.clone()
            };
            svc.decide(&far);
            for r in workload.requests.iter().take(3) {
                svc.decide(r);
            }
            assert_eq!(svc.decisions(), 5);
            let ack = svc
                .report(&OutcomeReport {
                    ip: req.ip,
                    score: 1.0,
                    now_ms: far_ms,
                })
                .unwrap();
            assert_eq!(ack.reports, 1);

            // Abuse reported at the epoch, then cleared at the far clock:
            // the reputation decay across the gap must not read `inf`,
            // which would deny the reported IP's whole /24 from then on.
            let svc = service();
            for (score, now_ms) in [(1.0, 0), (0.0, far_ms)] {
                svc.report(&OutcomeReport {
                    ip: req.ip,
                    score,
                    now_ms,
                })
                .unwrap();
            }
            let neighbour = WireRequest {
                ip: IpAddress::from(req.ip.as_u32() ^ 1),
                ..req.clone()
            };
            let decision = svc.decide(&neighbour);
            assert!(
                decision.signals.iter().all(|s| s.signal != "ip-reputation"),
                "far_ms {far_ms}: {:?}",
                decision.signals
            );
        }
    }

    #[test]
    fn sticky_honeypot_decisions_hand_their_trace_back() {
        // A webdriver fingerprint scores 1.0, which the recommended policy
        // diverts to the honeypot; the session's next request rides the
        // sticky diversion. Both must return their trace, so the HTTP layer
        // can add its transport span to each.
        let telemetry = Telemetry::shared();
        telemetry.enable_tracing(fg_telemetry::TraceConfig::default());
        let svc = DecisionService::new(&ServeConfig::recommended(), telemetry.clone());
        let workload = generate(&WorkloadConfig {
            seed: 3,
            horizon_hours: 1,
            arrivals_per_day: 60.0,
            seat_spinner: false,
            sms_pumper: false,
        });
        let mut req = workload.requests[0].clone();
        req.fingerprint.webdriver = true;
        let (first, trace) = svc.decide_traced(&req);
        assert_eq!(first.decision, Decision::Honeypot, "{first:?}");
        assert!(trace.is_some());
        req.now_ms += 60_000;
        let (sticky, trace) = svc.decide_traced(&req);
        assert_eq!(sticky.reasons, ["honeypot:session-diverted"]);
        let trace = trace.expect("the sticky decision hands its trace back");
        assert_eq!(trace.trace_id(), sticky.trace_id);
        telemetry.record_trace(trace);
        let mut body = String::new();
        telemetry.trace_snapshot().write_json(&mut body);
        let body: serde_json::Value = serde_json::from_str(&body).expect("traces json");
        let spans: Vec<fg_telemetry::SpanRecord> =
            serde_json::from_value(body.get("spans").cloned().expect("spans present"))
                .expect("span records");
        let root = spans
            .iter()
            .find(|s| s.trace_id == sticky.trace_id && s.parent_id == 0)
            .expect("the sticky trace was submitted");
        assert!(
            root.attrs
                .contains(&("decision".to_owned(), "honeypot".to_owned())),
            "{:?}",
            root.attrs
        );
    }

    #[test]
    fn reported_abuse_shifts_later_decisions() {
        // Feed max-score reports for one IP, then compare a decide() from
        // that IP against a fresh service: reputation must have raised the
        // assessed risk (the /v1/report → /v1/decide feedback loop works).
        let cfg = WorkloadConfig {
            seed: 13,
            horizon_hours: 1,
            arrivals_per_day: 60.0,
            seat_spinner: false,
            sms_pumper: false,
        };
        let workload = generate(&cfg);
        let req = workload.requests.first().expect("non-empty workload");
        let tainted = service();
        let fresh = service();
        for k in 0..50 {
            tainted
                .report(&OutcomeReport {
                    ip: req.ip,
                    score: 1.0,
                    now_ms: k * 1_000,
                })
                .unwrap();
        }
        let d_tainted = tainted.decide(req);
        let d_fresh = fresh.decide(req);
        assert!(
            d_tainted.score >= d_fresh.score,
            "reported abuse must not lower the assessed score \
             (tainted {} < fresh {})",
            d_tainted.score,
            d_fresh.score
        );
    }
}
