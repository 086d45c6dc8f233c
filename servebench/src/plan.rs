//! Workloads, the per-run request plan, and the request bytes built before
//! anything is timed.

use fg_detection::log::Endpoint;
use fg_scenario::workload::{generate, WireRequest, WorkloadConfig};
use fg_serve::loadgen::traceparent_for;
use fg_serve::OutcomeReport;
use fg_telemetry::DEFAULT_AUDIT_CAPACITY;
use std::ops::Range;

/// One traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Simulated horizon of the generated stream, hours.
    pub horizon_hours: u64,
    /// Legitimate arrivals per simulated day.
    pub arrivals_per_day: f64,
    /// Every timed request opens its own connection and asks to close it.
    pub connect_per_request: bool,
    /// Outcome reports and observability scrapes ride beside the decisions.
    pub ops: bool,
    /// Timed closed-loop decisions per second of `--seconds`: about what
    /// two callers complete per second today, so the timed phase lasts
    /// roughly `--seconds`.
    pub timed_per_sec: usize,
    /// Offered rate of the traced run's open-loop phase, requests/s.
    pub open_loop_rps: f64,
    /// Requests sent in the open-loop phase.
    pub open_loop_requests: usize,
}

/// `steady`, `ops` and `connect`, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady",
        horizon_hours: 30 * 24,
        arrivals_per_day: 2_000.0,
        connect_per_request: false,
        ops: false,
        timed_per_sec: 8_000,
        open_loop_rps: 2_000.0,
        open_loop_requests: 4_000,
    },
    Workload {
        name: "ops",
        horizon_hours: 30 * 24,
        arrivals_per_day: 2_000.0,
        connect_per_request: false,
        ops: true,
        timed_per_sec: 6_000,
        open_loop_rps: 2_000.0,
        open_loop_requests: 4_000,
    },
    Workload {
        name: "connect",
        horizon_hours: 2 * 24,
        arrivals_per_day: 40_000.0,
        connect_per_request: true,
        ops: false,
        timed_per_sec: 600,
        open_loop_rps: 200.0,
        open_loop_requests: 1_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// In `ops`, one `GET /metrics` and one `GET /debug/traces` follow every
/// this many timed decisions.
pub const SCRAPE_EVERY: usize = 5_000;

/// How a run spends its stream: an untimed warm-up, the timed phase, in a
/// traced run a second timed phase half as long with client spans on,
/// then the open-loop phase. The phases take consecutive slices of one stream that
/// is replayed exactly once, never wrapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Warm-up decisions: enough to fill the server's audit ring.
    pub warmup: usize,
    /// Timed closed-loop decisions.
    pub timed: usize,
    /// Timed decisions with client spans on (traced run only).
    pub traced: usize,
    /// Open-loop decisions (traced run only).
    pub open: usize,
}

impl Plan {
    /// The plan for `workload` measured for about `seconds`; `tiny` shrinks
    /// every phase for smoke tests.
    pub fn new(workload: &Workload, seconds: u64, trace: bool, tiny: bool) -> Plan {
        let (warmup, timed, open) = if tiny {
            (512, 300, 200)
        } else {
            (
                DEFAULT_AUDIT_CAPACITY,
                workload.timed_per_sec * seconds as usize,
                workload.open_loop_requests,
            )
        };
        Plan {
            warmup,
            timed,
            traced: if trace { timed / 2 } else { 0 },
            open: if trace { open } else { 0 },
        }
    }

    /// Stream requests the run consumes.
    pub fn total(&self) -> usize {
        self.warmup + self.timed + self.traced + self.open
    }

    /// Index range of the warm-up.
    pub fn warmup_range(&self) -> Range<usize> {
        0..self.warmup
    }

    /// Index range of the timed phase.
    pub fn timed_range(&self) -> Range<usize> {
        self.warmup..self.warmup + self.timed
    }

    /// Index range of the traced timed phase (empty when untraced).
    pub fn traced_range(&self) -> Range<usize> {
        let start = self.warmup + self.timed;
        start..start + self.traced
    }

    /// Index range of the open-loop phase (empty when untraced).
    pub fn open_range(&self) -> Range<usize> {
        let start = self.warmup + self.timed + self.traced;
        start..start + self.open
    }

    /// The stream-exhaustion guard: a run needing more requests than the
    /// stream holds fails instead of wrapping around.
    pub fn check(&self, stream_len: usize) -> Result<(), String> {
        if self.total() > stream_len {
            return Err(format!(
                "the plan needs {} requests but the stream holds {stream_len}; \
                 lower --seconds (the stream is never replayed twice)",
                self.total()
            ));
        }
        Ok(())
    }
}

/// Generates the workload's seeded request stream; `tiny` cuts the
/// horizon to 1/30 (a few thousand requests), enough for [`Plan::new`]'s
/// tiny phases.
pub fn stream(workload: &Workload, seed: u64, tiny: bool) -> Vec<WireRequest> {
    let horizon_hours = if tiny {
        workload.horizon_hours / 30
    } else {
        workload.horizon_hours
    };
    generate(&WorkloadConfig {
        seed,
        horizon_hours,
        arrivals_per_day: workload.arrivals_per_day,
        seat_spinner: true,
        sms_pumper: true,
    })
    .requests
}

/// The outcome feedback `ops` posts after a request: confirmed abuse for
/// every bot request, a cleared verdict for every human payment.
pub fn outcome_for(req: &WireRequest) -> Option<OutcomeReport> {
    let score = if req.is_bot {
        1.0
    } else if req.endpoint == Endpoint::Pay {
        0.0
    } else {
        return None;
    };
    Some(OutcomeReport {
        ip: req.ip,
        score,
        now_ms: req.now_ms,
    })
}

/// A framed `POST` with a JSON body.
fn post(path: &str, extra_headers: &str, body: &[u8]) -> Vec<u8> {
    let mut frame = format!(
        "POST {path} HTTP/1.1\r\nHost: fg-serve\r\nContent-Type: application/json\r\n\
         {extra_headers}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body);
    frame
}

/// A framed `GET`.
pub fn get_frame(path: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nHost: fg-serve\r\n{connection}\r\n").into_bytes()
}

/// Every byte the callers send, built before the server boots.
pub struct Frames {
    /// `POST /v1/decide` per stream request, with its deterministic
    /// `traceparent`; on `connect` also `Connection: close`.
    pub decide: Vec<Vec<u8>>,
    /// The outcome each request would report (see [`outcome_for`]).
    pub outcome: Vec<Option<OutcomeReport>>,
    /// Its framed `POST /v1/report`; only `ops` sends them.
    pub report: Vec<Option<Vec<u8>>>,
}

impl Frames {
    /// Frames `requests` under `seed`; decisions from index `close_from`
    /// on ask the server to close the connection after replying.
    pub fn build(requests: &[WireRequest], seed: u64, close_from: Option<usize>) -> Frames {
        let decide = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let close = match close_from {
                    Some(from) if i >= from => "Connection: close\r\n",
                    _ => "",
                };
                let body = serde_json::to_string(req)
                    .expect("wire request serializes")
                    .into_bytes();
                let headers = format!(
                    "Traceparent: {}\r\n{close}",
                    traceparent_for(seed, i as u64)
                );
                post("/v1/decide", &headers, &body)
            })
            .collect();
        let outcome: Vec<Option<OutcomeReport>> = requests.iter().map(outcome_for).collect();
        let report = outcome
            .iter()
            .map(|o| {
                o.as_ref().map(|o| {
                    let body = serde_json::to_string(o)
                        .expect("outcome serializes")
                        .into_bytes();
                    post("/v1/report", "", &body)
                })
            })
            .collect();
        Frames {
            decide,
            outcome,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_tile_the_stream_prefix() {
        let w = workload("steady").unwrap();
        let p = Plan::new(&w, 10, true, false);
        assert_eq!(p.warmup_range(), 0..65_536);
        assert_eq!(p.timed_range().start, p.warmup_range().end);
        assert_eq!(p.traced_range().start, p.timed_range().end);
        assert_eq!(p.open_range().start, p.traced_range().end);
        assert_eq!(p.open_range().end, p.total());
        let untraced = Plan::new(&w, 10, false, false);
        assert!(untraced.traced_range().is_empty() && untraced.open_range().is_empty());
    }

    #[test]
    fn a_plan_longer_than_the_stream_is_refused() {
        let p = Plan::new(&workload("connect").unwrap(), 10, false, false);
        assert!(p.check(p.total()).is_ok());
        let err = p.check(p.total() - 1).unwrap_err();
        assert!(err.contains("never replayed twice"), "{err}");
    }

    #[test]
    fn frames_carry_the_exact_body_and_length() {
        let w = workload("connect").unwrap();
        let reqs = stream(&w, 5, true);
        let frames = Frames::build(&reqs[..3], 5, Some(1));
        assert!(!String::from_utf8_lossy(&frames.decide[0]).contains("Connection: close"));
        let text = String::from_utf8(frames.decide[1].clone()).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /v1/decide HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Traceparent: {}", traceparent_for(5, 1))));
        assert!(head.contains("Connection: close"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        let parsed: WireRequest = serde_json::from_str(body).unwrap();
        assert_eq!(parsed, reqs[1]);
    }
}
