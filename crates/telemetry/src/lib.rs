//! **fg-telemetry** — metrics, decision audit trail, and pipeline profiling
//! for the defence stack.
//!
//! The paper's case studies (§IV) repeatedly hinge on *post-hoc
//! explainability*: the airline's security team reasons about which signal
//! caught which identity, and the defender's economics depend on knowing
//! where requests were stopped. This crate gives the simulated defence the
//! same observability a production stack would have, in three layers:
//!
//! 1. **Metrics** ([`metrics`]) — pre-registered counters, gauges and
//!    fixed-bucket histograms whose hot-path cost is a single relaxed
//!    atomic write.
//! 2. **Audit trail** ([`audit`]) — a bounded ring buffer recording, for
//!    every request through the defended app, the detection signals that
//!    fired and the policy engine's machine-readable reason chain, so a
//!    run can be queried after the fact ("show me every honeypot routing
//!    and which signal triggered it"). On by default; a process that
//!    never reads the trail switches it off with
//!    [`Telemetry::disable_audit`], and decision paths then build no
//!    record at all (fg-serve explains its decisions through traces).
//! 3. **Profiling** ([`profile`]) — wall-clock timers around each
//!    detection signal and mitigation stage, aggregated into exact
//!    p50/p95/p99 via `fg_core::stats::Summary`.
//! 4. **Tracing** ([`trace`]) — deterministic, sim-time causal spans over
//!    the decision path (fg-trace), with head+tail sampling and Chrome
//!    trace-event / JSONL exporters. Off by default; when off, the only
//!    hot-path cost is one relaxed atomic load.
//!
//! [`export::TelemetrySnapshot`] serialises all three as a JSON artifact or
//! Prometheus text exposition; `fg_scenario::report` renders the ASCII
//! tables.
//!
//! # Example
//!
//! ```
//! use fg_telemetry::Telemetry;
//! use std::time::Duration;
//!
//! let telemetry = Telemetry::shared();
//! let requests = telemetry.metrics().counter("fg_requests_total");
//! requests.inc(); // hot path: one atomic add
//! telemetry.record_stage("policy.decide", Duration::from_micros(12));
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.metrics.counter_value("fg_requests_total", &[]), Some(1));
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
pub use hist::{AtomicHist, Exemplar, Hist, HistSnapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricName, MetricsRegistry, MetricsSnapshot};
pub use profile::{StageProfiler, StageSnapshot};
pub use trace::{AttrValue, RequestTrace, SpanRecord, TraceConfig, TraceSnapshot, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default audit-trail capacity: generous enough that a two-week case-study
/// run keeps every decision, bounded so memory stays predictable.
pub const DEFAULT_AUDIT_CAPACITY: usize = 65_536;

/// The facade instrumented components share (typically as
/// `Arc<Telemetry>`): a metrics registry, the audit trail, and the stage
/// profiler.
#[derive(Debug)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    audit: Mutex<AuditTrail>,
    /// Whether decision paths record into `audit`; on until
    /// [`Telemetry::disable_audit`].
    auditing: AtomicBool,
    profiler: Mutex<StageProfiler>,
    tracer: Mutex<Tracer>,
    /// Mirrors `tracer.is_enabled()` so the tracing-off hot path pays one
    /// relaxed load instead of a mutex acquisition.
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
            "fg_stage_latency_seconds",
            "Wall-clock latency of instrumented pipeline stages",
        );
        Telemetry {
            metrics,
            audit: Mutex::new(AuditTrail::new(capacity)),
            auditing: AtomicBool::new(true),
            profiler: Mutex::new(StageProfiler::new()),
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

    /// Appends one record to the audit trail. A no-op once the audit
    /// layer is off.
    pub fn record_audit(&self, record: AuditRecord) {
        if self.audit_enabled() {
            self.audit().push(record);
        }
    }

    /// Switches the audit layer off for good: [`Telemetry::audit_enabled`]
    /// turns false, so decision paths stop building records, and
    /// [`Telemetry::record_audit`] drops any it is handed. For a process
    /// that never reads the trail.
    pub fn disable_audit(&self) {
        self.auditing.store(false, Ordering::Relaxed);
    }

    /// Whether the audit layer is on (the default) — the cheap check
    /// callers make before building an [`AuditRecord`].
    pub fn audit_enabled(&self) -> bool {
        self.auditing.load(Ordering::Relaxed)
    }

    /// Locks and returns the stage profiler.
    pub fn profiler(&self) -> MutexGuard<'_, StageProfiler> {
        self.profiler.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one latency sample against a named stage.
    pub fn record_stage(&self, stage: &str, elapsed: Duration) {
        self.profiler().record_named(stage, elapsed);
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

    /// Exports every retained span with the sampling accounting.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer().snapshot()
    }

    /// Starts a timer that records into `stage` when dropped.
    pub fn time(&self, stage: &'static str) -> StageTimer<'_> {
        StageTimer {
            telemetry: self,
            stage,
            start: Instant::now(),
        }
    }

    /// Captures metrics, stage latencies, and the audit trail at once.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: self.metrics.snapshot(),
            stages: self.profiler().snapshot(),
            audit: self.audit().snapshot(),
        }
    }

    /// The Prometheus exposition of the hub: byte-identical to
    /// `self.snapshot().to_prometheus()`, but it never takes the audit
    /// mutex or copies the audit records the exposition does not show.
    pub fn to_prometheus(&self) -> String {
        export::render_prometheus(&self.metrics.snapshot(), &self.profiler().snapshot())
    }
}

/// RAII stage timer returned by [`Telemetry::time`]; records the elapsed
/// wall-clock time into the profiler on drop.
#[derive(Debug)]
pub struct StageTimer<'a> {
    telemetry: &'a Telemetry,
    stage: &'static str,
    start: Instant,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.telemetry
            .record_stage(self.stage, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_wires_all_three_layers() {
        let t = Telemetry::with_audit_capacity(4);
        t.metrics().counter("fg_requests_total").inc();
        {
            let _timer = t.time("gate.total");
        }
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
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].stage, "gate.total");
        assert_eq!(snap.audit.recorded, 1);
        assert_eq!(snap.audit.decision_total("allow"), 1);
    }

    #[test]
    fn live_exposition_matches_the_snapshot_exposition() {
        let t = Telemetry::with_audit_capacity(8);
        t.metrics()
            .set_help("fg_http_requests_total", "Responses \\ by status");
        t.metrics()
            .counter_with("fg_http_requests_total", &[("status", "200")])
            .add(3);
        t.metrics().gauge("fg_tracked_keys").set(41.5);
        let latency = t.metrics().latency_with(
            "fg_http_request_duration_seconds",
            &[("endpoint", "decide")],
        );
        latency.record(Duration::from_micros(80));
        latency.record_with_exemplar(Duration::from_millis(25), 0xDEAD_BEEF);
        latency.record_with_exemplar(Duration::from_micros(900), 0xFEED);
        t.record_stage("policy.decide", Duration::from_micros(12));
        t.record_stage("detection.assess", Duration::from_micros(30));
        for client in 0..3 {
            t.record_audit(AuditRecord {
                at: fg_core::time::SimTime::from_secs(client),
                endpoint: "/v1/decide".to_owned(),
                client,
                fingerprint: 0xF00D,
                ip: "10.1.2.3".to_owned(),
                score: 0.9,
                signals: Vec::new(),
                decision: "block".to_owned(),
                reasons: vec!["velocity".to_owned()],
                trace_id: fg_core::hash::trace_id(client, 1),
            });
        }

        let snapshot = t.snapshot();
        assert_eq!(snapshot.audit.records.len(), 3);
        let text = t.to_prometheus();
        assert!(text.contains("# {trace_id=\"00000000deadbeef\"}"), "{text}");
        assert!(text.contains("fg_stage_latency_seconds_count"), "{text}");
        assert_eq!(text, snapshot.to_prometheus());
    }

    #[test]
    fn a_disabled_audit_layer_records_nothing() {
        let t = Telemetry::with_audit_capacity(4);
        assert!(t.audit_enabled());
        t.disable_audit();
        assert!(!t.audit_enabled());
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
        assert_eq!(t.audit().recorded(), 0);
        assert!(t.snapshot().audit.records.is_empty());
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
