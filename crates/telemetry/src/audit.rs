//! The decision audit trail: a bounded ring buffer answering, after a run,
//! *why* any given request was allowed, challenged, rate-limited, diverted,
//! or blocked.
//!
//! Each [`AuditRecord`] captures the request's identifiers, every detection
//! signal that fired (with its weight), and the policy engine's
//! machine-readable reason chain. The ring keeps the most recent
//! `capacity` records; per-decision totals survive eviction so aggregate
//! queries stay exact even when individual records have rotated out.

use fg_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One detection signal's contribution to a request's verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SignalScore {
    /// Signal label, e.g. `trap-hit` or `ip-velocity(132)`.
    pub signal: String,
    /// The signal's weight toward the combined score.
    pub weight: f64,
}

/// One request's pass through the defended application.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Simulation time of the request.
    pub at: SimTime,
    /// Endpoint path, e.g. `/booking/hold`.
    pub endpoint: String,
    /// Client identifier.
    pub client: u64,
    /// Fingerprint identity hash.
    pub fingerprint: u64,
    /// Source IP in dotted form.
    pub ip: String,
    /// Combined detection score.
    pub score: f64,
    /// Every signal that fired, with its weight.
    pub signals: Vec<SignalScore>,
    /// Final decision label, e.g. `allow`, `challenge`, `honeypot`, `block`.
    pub decision: String,
    /// Machine-readable reason chain: each policy stage consulted, in
    /// order, ending with the stage that fired (if any).
    pub reasons: Vec<String>,
    /// The request's span-trace id (`fg_core::hash::trace_id` of the
    /// session and request sequence); `0` when no trace was assigned.
    /// Stamped even when tracing is off, so audit records correlate with
    /// traces from any run that enabled them.
    pub trace_id: u64,
}

impl AuditRecord {
    /// The heaviest signal — "which signal triggered it" for a non-Allow
    /// decision. `None` when the request fired no signals.
    pub fn triggering_signal(&self) -> Option<&SignalScore> {
        self.signals
            .iter()
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
    }
}

/// Bounded ring buffer of [`AuditRecord`]s plus eviction-proof totals.
#[derive(Clone, Debug)]
pub struct AuditTrail {
    capacity: usize,
    ring: VecDeque<AuditRecord>,
    recorded: u64,
    evicted: u64,
    decision_totals: BTreeMap<String, u64>,
}

impl AuditTrail {
    /// Creates a trail retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "audit trail capacity must be positive");
        AuditTrail {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            recorded: 0,
            evicted: 0,
            decision_totals: BTreeMap::new(),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: AuditRecord) {
        *self
            .decision_totals
            .entry(record.decision.clone())
            .or_insert(0) += 1;
        self.recorded += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(record);
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed (evicted ones included).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained records with the given decision label, oldest first — e.g.
    /// `with_decision("honeypot")` lists every honeypot routing still in
    /// the ring.
    pub fn with_decision<'a>(
        &'a self,
        decision: &'a str,
    ) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.ring.iter().filter(move |r| r.decision == decision)
    }

    /// Retained records whose decision was anything but `allow`.
    pub fn non_allow(&self) -> impl Iterator<Item = &AuditRecord> {
        self.ring.iter().filter(|r| r.decision != "allow")
    }

    /// Eviction-proof total for one decision label.
    pub fn decision_total(&self, decision: &str) -> u64 {
        self.decision_totals.get(decision).copied().unwrap_or(0)
    }

    /// Eviction-proof totals for every decision label seen.
    pub fn decision_totals(&self) -> &BTreeMap<String, u64> {
        &self.decision_totals
    }

    /// Captures the trail for export.
    pub fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            recorded: self.recorded,
            evicted: self.evicted,
            decision_totals: self
                .decision_totals
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            records: self.ring.iter().cloned().collect(),
        }
    }
}

/// A point-in-time export of the audit trail.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditSnapshot {
    /// Total records ever pushed.
    pub recorded: u64,
    /// Records evicted by the capacity bound.
    pub evicted: u64,
    /// Per-decision totals (eviction-proof), sorted by label.
    pub decision_totals: Vec<(String, u64)>,
    /// Retained records, oldest first.
    pub records: Vec<AuditRecord>,
}

impl AuditSnapshot {
    /// Eviction-proof total for one decision label.
    pub fn decision_total(&self, decision: &str) -> u64 {
        self.decision_totals
            .iter()
            .find(|(k, _)| k == decision)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_ms: u64, decision: &str) -> AuditRecord {
        AuditRecord {
            at: SimTime::from_millis(at_ms),
            endpoint: "/booking/hold".to_owned(),
            client: 1,
            fingerprint: 42,
            ip: "10.0.0.1".to_owned(),
            score: 0.9,
            signals: vec![
                SignalScore {
                    signal: "ip-reputation".to_owned(),
                    weight: 0.8,
                },
                SignalScore {
                    signal: "trap-hit".to_owned(),
                    weight: 0.9,
                },
            ],
            decision: decision.to_owned(),
            reasons: vec!["score-block:triggered".to_owned()],
            trace_id: fg_core::hash::trace_id(1, at_ms),
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut trail = AuditTrail::new(3);
        for t in 0..5 {
            trail.push(record(t, "block"));
        }
        let snap = trail.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.evicted, 2);
        assert_eq!(trail.recorded(), 5);
        let times: Vec<u64> = snap.records.iter().map(|r| r.at.as_millis()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn totals_survive_eviction() {
        let mut trail = AuditTrail::new(2);
        trail.push(record(0, "block"));
        trail.push(record(1, "allow"));
        trail.push(record(2, "block"));
        trail.push(record(3, "block"));
        assert_eq!(trail.decision_total("block"), 3);
        assert_eq!(trail.decision_total("allow"), 1);
        assert_eq!(trail.decision_total("challenge"), 0);
        // The ring itself only retains the last two.
        assert_eq!(trail.with_decision("block").count(), 2);
    }

    #[test]
    fn triggering_signal_is_the_heaviest() {
        let r = record(0, "honeypot");
        assert_eq!(r.triggering_signal().unwrap().signal, "trap-hit");
    }

    #[test]
    fn non_allow_filters_allows_out() {
        let mut trail = AuditTrail::new(8);
        trail.push(record(0, "allow"));
        trail.push(record(1, "honeypot"));
        trail.push(record(2, "allow"));
        let non_allow: Vec<&str> = trail.non_allow().map(|r| r.decision.as_str()).collect();
        assert_eq!(non_allow, vec!["honeypot"]);
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record(7, "challenge");
        let json = serde_json::to_string(&r).unwrap();
        let back: AuditRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn snapshot_reports_totals_and_records() {
        let mut trail = AuditTrail::new(2);
        trail.push(record(0, "block"));
        trail.push(record(1, "block"));
        trail.push(record(2, "allow"));
        let snap = trail.snapshot();
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.evicted, 1);
        assert_eq!(snap.decision_total("block"), 2);
        assert_eq!(snap.records.len(), 2);
    }
}
