//! The decision service: the deterministic core behind the HTTP endpoints.
//!
//! Wraps a [`DefendedApp`] behind one mutex. Decisions come out of exactly
//! the code path the simulator exercises ([`DefendedApp::decide_request`]),
//! so wire replies and simulator artifacts agree byte-for-byte under the
//! same request stream, policy, seed, and shard count. Determinism stops at
//! the transport: *when* a request arrives is wall-clock, *what* it decides
//! is a pure function of its content (each request carries its own session
//! clock, `now_ms`).

use fg_core::time::SimTime;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::ip::IpAddress;
use fg_scenario::app::{AppConfig, DefendedApp, GateDecision};
use fg_scenario::workload::WireRequest;
use fg_telemetry::{RequestTrace, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::ServeConfig;

/// Housekeeping cadence in session-clock milliseconds: when observed
/// `now_ms` advances past this since the last tick, expiry/compaction runs
/// before the next decision (same bounded-state contract as the simulator).
const TICK_EVERY_MS: u64 = 5 * 60 * 1_000;

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
    app: Mutex<DefendedApp>,
    telemetry: Arc<Telemetry>,
    last_tick_ms: AtomicU64,
    reports: AtomicU64,
    decisions: AtomicU64,
}

impl DecisionService {
    /// Builds the defended app from the serve config, wired to `telemetry`.
    ///
    /// Switches `telemetry`'s audit layer off: the service keeps no audit
    /// trail. Nothing in a serving process reads one — `/metrics` skips
    /// it, and each decision is explained by its trace (`/debug/traces`
    /// keeps every non-allow decision with its reason chain) and its
    /// flight-recorder entry — yet building the record and pushing it into
    /// a 65,536-entry ring would take the decision lock longer than
    /// detection and policy do. The simulator builds its own
    /// `DefendedApp` and keeps the trail.
    pub fn new(config: &ServeConfig, telemetry: Arc<Telemetry>) -> Self {
        telemetry.disable_audit();
        let concurrency = if config.shards <= 1 {
            fg_core::shard::ConcurrencyMode::Deterministic
        } else {
            fg_core::shard::ConcurrencyMode::Sharded {
                shards: config.shards,
            }
        };
        let app = DefendedApp::with_telemetry(
            AppConfig::airline(config.policy.clone()).with_concurrency(concurrency),
            config.seed,
            telemetry.clone(),
        );
        DecisionService {
            app: Mutex::new(app),
            telemetry,
            last_tick_ms: AtomicU64::new(0),
            reports: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// Locks the app, recovering from a poisoned mutex (a panicking handler
    /// must not brick the service; the breaker absorbs repeated failures).
    fn app(&self) -> MutexGuard<'_, DefendedApp> {
        self.app.lock().unwrap_or_else(|e| e.into_inner())
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
        let mut app = self.app();
        let last = self.last_tick_ms.load(Ordering::Relaxed);
        if req.now_ms >= last.saturating_add(TICK_EVERY_MS) {
            app.tick(SimTime::from_millis(req.now_ms));
            self.last_tick_ms.store(req.now_ms, Ordering::Relaxed);
        }
        self.decisions.fetch_add(1, Ordering::Relaxed);
        app.decide_request_traced(&req.client_request(), req.endpoint, req.booking, req.now())
    }

    /// Folds one outcome report into the reputation ledger.
    pub fn report(&self, outcome: &OutcomeReport) -> Result<ReportAck, String> {
        if !(0.0..=1.0).contains(&outcome.score) {
            return Err(format!("score {} outside [0, 1]", outcome.score));
        }
        let mut app = self.app();
        app.detection_mut().reputation_mut().report(
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
        self.app().replace_policy(policy);
    }

    /// Decisions served since boot.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_scenario::workload::{generate, WorkloadConfig};

    fn service() -> DecisionService {
        DecisionService::new(&ServeConfig::recommended(), Telemetry::shared())
    }

    #[test]
    fn decide_matches_the_in_process_replay() {
        let cfg = WorkloadConfig {
            seed: 11,
            horizon_hours: 1,
            arrivals_per_day: 100.0,
            seat_spinner: true,
            sms_pumper: false,
        };
        let workload = generate(&cfg);
        let svc = ServeConfig {
            seed: 99, // decision path takes no randomness; seed must not matter
            ..ServeConfig::recommended()
        };
        let a = DecisionService::new(&svc, Telemetry::shared());
        let b = DecisionService::new(&svc, Telemetry::shared());
        for req in &workload.requests {
            assert_eq!(a.decide(req), b.decide(req));
        }
        assert_eq!(a.decisions(), workload.requests.len() as u64);
        assert_eq!(a.telemetry().audit().recorded(), 0);
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
        }
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
