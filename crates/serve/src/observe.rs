//! Serve-side live observability: W3C trace-context propagation, the
//! flight recorder, and the embedded SLO sentinel policy.
//!
//! Three pieces the debug endpoints are built from:
//!
//! * [`TraceParent`] — a dependency-free parser/formatter for the W3C
//!   `traceparent` header. The wire trace id is *correlated* with (never
//!   substituted for) the decision core's deterministic trace id: the
//!   decision id goes back as the echoed `parent-id`, and the wire id is
//!   recorded as a span attribute, so a caller's distributed trace and the
//!   server's causal trace join without perturbing decision parity.
//! * [`FlightRecorder`] — a bounded ring of the last N request summaries.
//!   When the circuit breaker trips or the accept queue starts shedding,
//!   the ring is *frozen*: the requests that led up to the event stay
//!   retrievable at `/debug/flightrecorder` no matter how much traffic
//!   follows.
//! * [`serve_slo_policy`] — the alert policy the embedded `fg-sentinel`
//!   evaluates against the live registry: 5xx error burn, served p99 over
//!   the SLO, 429 shed surge, and breaker trips.
//!
//! Everything here is reachable from the request path, so it upholds the
//! serve no-panic contract: no unwraps, no indexing, no unchecked
//! arithmetic.

use crate::config::ObserveConfig;
use fg_core::time::SimDuration;
use fg_sentinel::policy::AlertPolicy;
use fg_sentinel::rule::{AlertRule, MetricSelector};
use serde::Serialize;
use std::collections::VecDeque;

/// A parsed W3C `traceparent` header (version 00).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParent {
    /// The full 32-hex-digit trace id, exactly as received (the echo must
    /// preserve it byte-for-byte for the caller's collector to join spans).
    pub trace_id_hex: String,
    /// The caller's span id.
    pub parent_id: u64,
}

impl TraceParent {
    /// Parses `version-traceid-parentid-flags` per the W3C spec: lowercase
    /// hex, 2/32/16/2 digits, trace and parent ids non-zero. Returns `None`
    /// on anything malformed — an invalid header is ignored, never an
    /// error.
    pub fn parse(header: &str) -> Option<TraceParent> {
        let mut parts = header.trim().split('-');
        let version = parts.next()?;
        let trace_id = parts.next()?;
        let parent_id = parts.next()?;
        let flags = parts.next()?;
        // Future versions may append fields; version 00 must have exactly 4.
        if parts.next().is_some() && version == "00" {
            return None;
        }
        let lower_hex = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        };
        if version.len() != 2 || !lower_hex(version) || version == "ff" {
            return None;
        }
        if trace_id.len() != 32 || !lower_hex(trace_id) {
            return None;
        }
        if parent_id.len() != 16 || !lower_hex(parent_id) {
            return None;
        }
        if flags.len() != 2 || !lower_hex(flags) {
            return None;
        }
        let high = u64::from_str_radix(trace_id.get(..16)?, 16).ok()?;
        let low = u64::from_str_radix(trace_id.get(16..)?, 16).ok()?;
        let parent = u64::from_str_radix(parent_id, 16).ok()?;
        if high == 0 && low == 0 {
            return None;
        }
        if parent == 0 {
            return None;
        }
        Some(TraceParent {
            trace_id_hex: trace_id.to_owned(),
            parent_id: parent,
        })
    }

    /// The header value to echo back: same trace id, the server's decision
    /// trace id as the new parent, sampled flag set.
    pub fn echo(&self, span_id: u64) -> String {
        format!("00-{}-{:016x}-01", self.trace_id_hex, span_id.max(1))
    }
}

/// First value of `key` in the target's query string, e.g.
/// `query_param("/debug/traces?trace_id=ab12", "trace_id")`.
/// No percent-decoding — the debug API's parameters are plain hex.
pub fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// The target with any query string removed — what the router matches on.
pub fn path_of(target: &str) -> &str {
    target.split('?').next().unwrap_or(target)
}

/// One request as the flight recorder remembers it.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RequestSummary {
    /// Monotone per-boot request sequence number.
    pub seq: u64,
    /// Milliseconds since server boot when the response was written.
    pub boot_ms: u64,
    /// Endpoint class label (`decide`, `report`, `observe`, `other`).
    pub endpoint: String,
    /// Method and target, e.g. `POST /v1/decide`.
    pub request: String,
    /// Response status code.
    pub status: u16,
    /// Decision label for `/v1/decide` responses (`allow`, `block`, …).
    pub decision: Option<String>,
    /// Decision trace id as 16 hex digits, or `None` for untraced requests.
    pub trace_id: Option<String>,
    /// Wall-clock service latency, microseconds.
    pub latency_us: u64,
    /// Whether the request exceeded the configured slow threshold.
    pub slow: bool,
}

/// The frozen copy of the ring taken when a trip/shed event fired.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FrozenFlight {
    /// What froze the ring (`breaker-open`, `shed`).
    pub reason: String,
    /// Milliseconds since server boot at freeze time.
    pub boot_ms: u64,
    /// The ring contents at freeze time, oldest first.
    pub entries: Vec<RequestSummary>,
}

/// A bounded ring of recent request summaries with freeze-on-incident
/// semantics. The *live* ring keeps rolling after a freeze; the frozen copy
/// is immutable until explicitly cleared (first freeze wins, so the ring
/// that explains the original incident is never overwritten by aftershocks).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    recorded: u64,
    ring: VecDeque<RequestSummary>,
    frozen: Option<FrozenFlight>,
}

/// What `/debug/flightrecorder` serves.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FlightSnapshot {
    /// Ring capacity.
    pub capacity: usize,
    /// Requests ever recorded (≥ `live.len()`).
    pub recorded: u64,
    /// The rolling ring, oldest first.
    pub live: Vec<RequestSummary>,
    /// The frozen ring, when an incident fired.
    pub frozen: Option<FrozenFlight>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            recorded: 0,
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            frozen: None,
        }
    }

    /// Appends one request summary, evicting the oldest at capacity.
    pub fn record(&mut self, summary: RequestSummary) {
        self.recorded = self.recorded.saturating_add(1);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(summary);
    }

    /// Freezes a copy of the ring. Idempotent: only the first freeze is
    /// kept, until restart.
    pub fn freeze(&mut self, reason: &str, boot_ms: u64) {
        if self.frozen.is_none() {
            self.frozen = Some(FrozenFlight {
                reason: reason.to_owned(),
                boot_ms,
                entries: self.ring.iter().cloned().collect(),
            });
        }
    }

    /// Point-in-time view for `/debug/flightrecorder`.
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            capacity: self.capacity,
            recorded: self.recorded,
            live: self.ring.iter().cloned().collect(),
            frozen: self.frozen.clone(),
        }
    }
}

/// The serve SLO policy the embedded sentinel evaluates (sim-time for the
/// sentinel is wall-clock milliseconds since boot):
///
/// * `serve-5xx-burn` — ≥ 5 server errors within 5 minutes.
/// * `serve-p99-slo` — the per-endpoint served p99 gauge at or above the
///   configured SLO, evaluated instantaneously ([`AlertRule::level`]).
/// * `serve-shed-surge` — 429 sheds at ≥ 4× their trailing half-hour rate.
/// * `serve-breaker-trips` — any breaker trip within 15 minutes.
pub fn serve_slo_policy(observe: &ObserveConfig) -> AlertPolicy {
    AlertPolicy::named("serve-slo")
        .rule(
            AlertRule::threshold(
                "serve-5xx-burn",
                MetricSelector::exact("fg_http_5xx_total", &[]),
                SimDuration::from_mins(5),
                5.0,
            )
            .with_cooldown(SimDuration::from_mins(10)),
        )
        .rule(
            AlertRule::level(
                "serve-p99-slo",
                MetricSelector::any("fg_http_request_p99_seconds"),
                observe.p99_slo_ms as f64 / 1e3,
            )
            .with_cooldown(SimDuration::from_mins(5)),
        )
        .rule(
            AlertRule::surge(
                "serve-shed-surge",
                MetricSelector::exact("fg_http_shed_total", &[]),
                SimDuration::from_mins(5),
                SimDuration::from_mins(30),
                4.0,
                20.0,
            )
            .with_cooldown(SimDuration::from_mins(10)),
        )
        .rule(
            AlertRule::threshold(
                "serve-breaker-trips",
                MetricSelector::exact("fg_serve_breaker_trips_total", &[]),
                SimDuration::from_mins(15),
                1.0,
            )
            .with_cooldown(SimDuration::from_mins(15)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seq: u64, status: u16) -> RequestSummary {
        RequestSummary {
            seq,
            boot_ms: seq * 10,
            endpoint: "decide".to_owned(),
            request: "POST /v1/decide".to_owned(),
            status,
            decision: Some("allow".to_owned()),
            trace_id: Some(format!("{:016x}", seq)),
            latency_us: 120,
            slow: false,
        }
    }

    #[test]
    fn traceparent_parses_the_w3c_happy_path() {
        let tp =
            TraceParent::parse("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01").unwrap();
        assert_eq!(tp.trace_id_hex, "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(tp.parent_id, 0x00f067aa0ba902b7);
        let echo = tp.echo(0xDEAD_BEEF);
        assert_eq!(
            echo,
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00000000deadbeef-01"
        );
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "garbage",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
        ] {
            assert!(TraceParent::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn query_params_split_without_decoding() {
        assert_eq!(
            query_param("/debug/traces?trace_id=ab12&limit=5", "trace_id"),
            Some("ab12")
        );
        assert_eq!(
            query_param("/debug/traces?trace_id=ab12&limit=5", "limit"),
            Some("5")
        );
        assert_eq!(query_param("/debug/traces", "trace_id"), None);
        assert_eq!(path_of("/debug/traces?trace_id=ab12"), "/debug/traces");
        assert_eq!(path_of("/metrics"), "/metrics");
    }

    #[test]
    fn flight_recorder_rolls_and_freezes_once() {
        let mut fr = FlightRecorder::new(3);
        for seq in 1..=5 {
            fr.record(summary(seq, 200));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.recorded, 5);
        let seqs: Vec<u64> = snap.live.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "ring keeps the last N");

        fr.freeze("breaker-open", 50);
        fr.record(summary(6, 503));
        fr.freeze("shed", 60); // second incident: first freeze wins
        let snap = fr.snapshot();
        let frozen = snap.frozen.unwrap();
        assert_eq!(frozen.reason, "breaker-open");
        assert_eq!(frozen.entries.len(), 3);
        assert_eq!(
            snap.live.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "live ring kept rolling past the freeze"
        );
    }

    #[test]
    fn slo_policy_covers_all_four_surfaces() {
        let policy = serve_slo_policy(&ObserveConfig::default());
        let ids: Vec<&str> = policy.rules.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "serve-5xx-burn",
                "serve-p99-slo",
                "serve-shed-surge",
                "serve-breaker-trips"
            ]
        );
    }
}
