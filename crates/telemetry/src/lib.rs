//! **fg-telemetry** — metrics, decision audit trail, and span tracing for
//! the defence stack.
//!
//! The paper's case studies (§IV) repeatedly hinge on *post-hoc
//! explainability*: the airline's security team reasons about which signal
//! caught which identity, and the defender's economics depend on knowing
//! where requests were stopped and what that cost. This crate gives the
//! simulated defence the same observability a production stack would have,
//! in three layers:
//!
//! 1. **Metrics** ([`metrics`]) — pre-registered counters, gauges,
//!    fixed-bucket histograms and log-linear latency histograms
//!    ([`metrics::Latency`] over [`hist::Hist`], p50/p95/p99 within 1/64
//!    of the exact values) whose hot-path cost is a few relaxed atomic
//!    writes. Stage latencies are metrics too: each layer of a decision
//!    (the detection pass, the policy decision, a mitigation stage) is
//!    timed once, into one latency cell,
//!    `fg_stage_latency_seconds{stage="…"}`, registered once by the
//!    component that owns the layer ([`Telemetry::stage_latency`]) and
//!    read back per stage through [`profile`].
//! 2. **Audit trail** ([`audit`]) — a bounded ring buffer recording, for
//!    every request through the defended app, the detection signals that
//!    fired and the policy engine's machine-readable reason chain, so a
//!    run can be queried after the fact ("show me every honeypot routing
//!    and which signal triggered it"). The simulator writes it; fg-serve
//!    writes none and explains its decisions through traces.
//! 3. **Tracing** ([`trace`]) — deterministic, sim-time causal spans over
//!    the decision path (fg-trace), with head+tail sampling and a Chrome
//!    trace-event exporter. Off by default; when off, the only hot-path
//!    cost is one relaxed atomic load.
//!
//! [`export::TelemetrySnapshot`] serialises metrics and the audit trail as
//! a JSON artifact, and metrics as Prometheus text exposition;
//! [`trace::TraceSnapshot`] exports the spans. `fg_scenario::report`
//! renders the ASCII tables.
//!
//! # Example
//!
//! ```
//! use fg_telemetry::Telemetry;
//! use std::time::Duration;
//!
//! let telemetry = Telemetry::shared();
//! let requests = telemetry.metrics().counter("fg_requests_total");
//! let decide = telemetry.stage_latency("policy.decide");
//! requests.inc(); // hot path: one atomic add
//! decide.record(Duration::from_micros(12)); // and no lock either
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.metrics.counter_value("fg_requests_total", &[]), Some(1));
//! assert_eq!(snapshot.stages()[0].stage, "policy.decide");
//! assert!(snapshot.to_prometheus().contains("fg_requests_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use audit::{AuditRecord, AuditSnapshot, AuditTrail, SignalScore};
pub use export::TelemetrySnapshot;
pub use hist::{Hist, HistSnapshot};
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, Latency, MetricName, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{StageSnapshot, StageView};
pub use trace::{AttrValue, RequestTrace, SpanRecord, TraceConfig, TraceSnapshot, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default audit-trail capacity: generous enough that a two-week case-study
/// run keeps every decision, bounded so memory stays predictable.
pub const DEFAULT_AUDIT_CAPACITY: usize = 65_536;

/// The facade instrumented components share (typically as
/// `Arc<Telemetry>`): a metrics registry, the audit trail, and the span
/// tracer.
#[derive(Debug)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    audit: Mutex<AuditTrail>,
    tracer: Mutex<Tracer>,
    /// Set by [`Telemetry::enable_tracing`] together with the tracer's
    /// config, so the tracing-off hot path pays one relaxed load instead
    /// of a mutex acquisition.
    tracing: AtomicBool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_audit_capacity(DEFAULT_AUDIT_CAPACITY)
    }
}

impl Telemetry {
    /// Creates a telemetry hub with the default audit capacity.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Creates a telemetry hub retaining at most `capacity` audit records.
    pub fn with_audit_capacity(capacity: usize) -> Self {
        let metrics = MetricsRegistry::new();
        metrics.set_help(
            profile::STAGE_FAMILY,
            "Wall-clock latency of instrumented pipeline stages",
        );
        Telemetry {
            metrics,
            audit: Mutex::new(AuditTrail::new(capacity)),
            tracer: Mutex::new(Tracer::new()),
            tracing: AtomicBool::new(false),
        }
    }

    /// Convenience constructor for the common `Arc`-shared form.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }

    /// The metrics registry (register handles once, increment lock-free).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Locks and returns the audit trail for querying.
    pub fn audit(&self) -> MutexGuard<'_, AuditTrail> {
        self.audit.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one record to the audit trail.
    pub fn record_audit(&self, record: AuditRecord) {
        self.audit().push(record);
    }

    /// Registers (or fetches) the latency cell of pipeline stage `name`,
    /// `fg_stage_latency_seconds{stage=name}`. A component that times a
    /// stage registers its cell once and records into it without a lock.
    pub fn stage_latency(&self, name: &str) -> Latency {
        self.metrics
            .latency_with(profile::STAGE_FAMILY, &[("stage", name)])
    }

    /// The stage latencies recorded so far, read per stage.
    pub fn profiler(&self) -> StageView<'_> {
        StageView(&self.metrics)
    }

    /// Turns span tracing on with the given config. Until called, tracing
    /// is off and [`Telemetry::tracing_enabled`] is a single relaxed load.
    pub fn enable_tracing(&self, config: TraceConfig) {
        self.tracer().enable(config);
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Whether span tracing is on — the cheap hot-path check callers make
    /// before building a [`RequestTrace`].
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Locks and returns the span tracer.
    pub fn tracer(&self) -> MutexGuard<'_, Tracer> {
        self.tracer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits a finished request trace to the tracer's sampler. A no-op
    /// when tracing is off.
    pub fn record_trace(&self, trace: RequestTrace) {
        if self.tracing_enabled() {
            self.tracer().submit(trace);
        }
    }

    /// Takes a snapshot of every retained span with the sampling
    /// accounting, to write after the tracer's lock is released.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer().snapshot(None)
    }

    /// Captures metrics, stage latencies included, and the audit trail at
    /// once.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: self.metrics.snapshot(),
            audit: self.audit().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn facade_wires_all_three_layers() {
        let t = Telemetry::with_audit_capacity(4);
        t.metrics().counter("fg_requests_total").inc();
        t.stage_latency("gate.total")
            .record(Duration::from_micros(5));
        t.record_audit(AuditRecord {
            at: fg_core::time::SimTime::from_secs(1),
            endpoint: "/search".to_owned(),
            client: 9,
            fingerprint: 0xF00D,
            ip: "10.1.2.3".to_owned(),
            score: 0.0,
            signals: Vec::new(),
            decision: "allow".to_owned(),
            reasons: vec!["clean".to_owned()],
            trace_id: fg_core::hash::trace_id(9, 1),
        });

        let snap = t.snapshot();
        assert_eq!(
            snap.metrics.counter_value("fg_requests_total", &[]),
            Some(1)
        );
        let stages = snap.stages();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage, "gate.total");
        assert_eq!(snap.audit.recorded, 1);
        assert_eq!(snap.audit.decision_total("allow"), 1);
    }

    #[test]
    fn tracing_is_off_until_enabled() {
        let t = Telemetry::new();
        assert!(!t.tracing_enabled());
        let mut off = RequestTrace::new(
            fg_core::hash::trace_id(1, 1),
            1,
            "/search",
            fg_core::time::SimTime::from_secs(1),
        );
        off.finish("block");
        t.record_trace(off);
        assert_eq!(t.trace_snapshot().submitted, 0);

        t.enable_tracing(TraceConfig::default());
        assert!(t.tracing_enabled());
        let mut on = RequestTrace::new(
            fg_core::hash::trace_id(1, 2),
            1,
            "/search",
            fg_core::time::SimTime::from_secs(2),
        );
        on.finish("block");
        t.record_trace(on);
        let snap = t.trace_snapshot();
        assert_eq!(snap.submitted, 1);
        assert!(snap
            .request_trace_ids()
            .contains(&fg_core::hash::trace_id(1, 2)));
    }
}
