//! Lock-free-on-the-hot-path metrics: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones registered once, up front, in a [`MetricsRegistry`]. A per-request
//! increment is then a single relaxed atomic write — the registry's mutex is
//! only taken at registration and snapshot time, never on the hot path.

use crate::hist::{Hist, HistSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell, so an instrumented component can hold
/// its own handle while the registry retains another for export.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not yet in any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as raw bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Creates a detached gauge initialised to `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `dv` (compare-and-swap loop; still lock-free).
    pub fn add(&self, dv: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + dv).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bucket bounds, strictly increasing and finite. Bucket `i`
    /// counts samples `v <= bounds[i]` (Prometheus `le` semantics); one
    /// extra overflow bucket catches everything above the last bound.
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram with Prometheus `le` (less-or-equal) semantics.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Creates a histogram over the given upper bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty, non-finite, or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.into(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one sample. Non-finite samples are ignored (mirroring
    /// `fg_core::stats::Summary`).
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.0.bounds.partition_point(|&b| v > b);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts, non-cumulative; the final element is the overflow
    /// bucket (`+Inf`).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// A shared handle to a lock-free log-linear latency histogram
/// ([`crate::hist::Hist`]): bounded memory, exact bucket-wise merge,
/// quantiles within [`crate::hist::RELATIVE_ERROR`]. The exporter renders
/// these as native Prometheus histograms (in seconds) with OpenMetrics
/// exemplars linking slow buckets to trace ids.
#[derive(Clone, Debug, Default)]
pub struct Latency(Arc<LatencyCore>);

#[derive(Debug, Default)]
struct LatencyCore {
    hist: Hist,
    /// The latest exemplar per latency band ([`exemplar_slot`]).
    exemplars: Mutex<[Option<Exemplar>; EXEMPLAR_SLOTS]>,
}

/// Number of exemplar slots on a [`Latency`] — one per latency decade
/// band, coarse on purpose: exemplars are navigation aids, not samples.
const EXEMPLAR_SLOTS: usize = 8;

/// One exemplar: a trace id pinned to the latency bucket its request
/// landed in, linking a histogram bucket on `/metrics` to a retrievable
/// trace in `/debug/traces`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The observed latency, nanoseconds.
    pub nanos: u64,
    /// The decision trace id (`fg_core::hash::trace_id` domain, never 0).
    pub trace_id: u64,
}

/// Coarse exemplar banding: one slot per ~decade above 100 µs, so slow
/// requests never evict each other's exemplars with fast ones.
fn exemplar_slot(nanos: u64) -> usize {
    // Bands: <100µs, <1ms, <10ms, <100ms, <1s, <10s, <100s, rest.
    let mut bound = 100_000u64;
    for slot in 0..EXEMPLAR_SLOTS - 1 {
        if nanos < bound {
            return slot;
        }
        bound = bound.saturating_mul(10);
    }
    EXEMPLAR_SLOTS - 1
}

/// `elapsed` in nanoseconds, saturating at `u64::MAX`.
fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

impl Latency {
    /// Creates a detached latency histogram (not yet in any registry).
    pub fn new() -> Self {
        Latency::default()
    }

    /// Records one latency sample. Lock-free.
    pub fn record(&self, elapsed: Duration) {
        self.0.hist.record(nanos(elapsed));
    }

    /// Records a sample and offers `trace_id` as the exemplar for its
    /// latency band. Each of the eight decade bands keeps the latest
    /// exemplar, so `/metrics` always links somewhere recent. The offer
    /// takes a short mutex; fg-serve makes one only for an exchange whose
    /// trace is worth keeping ([`crate::RequestTrace::is_important`]).
    ///
    /// Returns the trace id the offer displaced from its band — 0 when the
    /// band was empty or `trace_id` is 0, the "no trace" value, which is
    /// recorded but never offered — so a caller that keeps cited traces
    /// retrievable ([`crate::Tracer::cite`]) can release it.
    pub fn record_with_exemplar(&self, elapsed: Duration, trace_id: u64) -> u64 {
        let nanos = nanos(elapsed);
        self.0.hist.record(nanos);
        if trace_id == 0 {
            return 0;
        }
        self.0
            .exemplars
            .lock()
            .ok()
            .and_then(|mut slots| {
                slots
                    .get_mut(exemplar_slot(nanos))?
                    .replace(Exemplar { nanos, trace_id })
            })
            .map_or(0, |displaced| displaced.trace_id)
    }

    /// Point-in-time compact histogram plus current exemplars, ascending
    /// by latency.
    pub fn snapshot(&self) -> (HistSnapshot, Vec<Exemplar>) {
        let hist = self.0.hist.snapshot();
        let mut exemplars: Vec<Exemplar> = self
            .0
            .exemplars
            .lock()
            .map(|slots| slots.iter().flatten().copied().collect())
            .unwrap_or_default();
        exemplars.sort_by_key(|e| e.nanos);
        (hist, exemplars)
    }
}

/// A metric's identity: base name plus label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricName {
    /// Base metric name, e.g. `fg_requests_total`.
    pub name: String,
    /// Label pairs, e.g. `[("endpoint", "/search")]`.
    pub labels: Vec<(String, String)>,
}

impl MetricName {
    /// Builds a name from a base and borrowed label pairs.
    ///
    /// Debug builds assert the Prometheus exposition-format charsets at
    /// registration — metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`
    /// and label names `[a-zA-Z_][a-zA-Z0-9_]*` — so a bad name fails the
    /// test suite instead of producing an exporter output that a scraper
    /// rejects long after the run. Label *values* are unrestricted (the
    /// exporter quotes and escapes them).
    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> Self {
        debug_assert!(
            is_valid_metric_name(name),
            "invalid Prometheus metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        for (k, _) in labels {
            debug_assert!(
                is_valid_label_name(k),
                "invalid Prometheus label name {k:?} on {name:?} (want [a-zA-Z_][a-zA-Z0-9_]*)"
            );
        }
        MetricName {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name charset.
fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the Prometheus label-name charset.
fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl fmt::Display for MetricName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}={v:?}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(MetricName, Counter)>,
    gauges: Vec<(MetricName, Gauge)>,
    histograms: Vec<(MetricName, Histogram)>,
    latencies: Vec<(MetricName, Latency)>,
    /// Per-base-name help text (`# HELP` in the Prometheus exposition),
    /// keyed by base name only — labelled series share their metric's help.
    help: Vec<(String, String)>,
}

/// The registry of all exportable metric handles.
///
/// Registration is idempotent: asking twice for the same name + labels
/// returns a clone of the same underlying handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or fetches) an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or fetches) a labelled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricName::with_labels(name, labels);
        let mut inner = self.lock();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| *n == id) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((id, c.clone()));
        c
    }

    /// Registers (or fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Registers (or fetches) a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricName::with_labels(name, labels);
        let mut inner = self.lock();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| *n == id) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((id, g.clone()));
        g
    }

    /// Registers (or fetches) an unlabelled histogram with the given bounds.
    ///
    /// Bounds are fixed at first registration; a second call with different
    /// bounds returns the original histogram unchanged.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// Registers (or fetches) a labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let id = MetricName::with_labels(name, labels);
        let mut inner = self.lock();
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| *n == id) {
            return h.clone();
        }
        let h = Histogram::new(bounds);
        inner.histograms.push((id, h.clone()));
        h
    }

    /// Registers (or fetches) an unlabelled latency histogram.
    pub fn latency(&self, name: &str) -> Latency {
        self.latency_with(name, &[])
    }

    /// Registers (or fetches) a labelled latency histogram.
    pub fn latency_with(&self, name: &str, labels: &[(&str, &str)]) -> Latency {
        let id = MetricName::with_labels(name, labels);
        let mut inner = self.lock();
        if let Some((_, l)) = inner.latencies.iter().find(|(n, _)| *n == id) {
            return l.clone();
        }
        let l = Latency::new();
        inner.latencies.push((id, l.clone()));
        l
    }

    /// Attaches help text to a base metric name (`# HELP` in the Prometheus
    /// exposition). The first registration wins; registering the same text
    /// twice is a no-op, so every component can describe the metrics it
    /// creates without coordinating.
    pub fn set_help(&self, name: &str, help: &str) {
        let mut inner = self.lock();
        if inner.help.iter().any(|(n, _)| n == name) {
            return;
        }
        inner.help.push((name.to_owned(), help.to_owned()));
    }

    /// Captures every registered metric's current value, sorted by identity
    /// for deterministic export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.capture(true)
    }

    /// Like [`MetricsRegistry::snapshot`], with `latencies` left empty: all
    /// a reader of counters, gauges and fixed-bucket histograms needs (the
    /// sentinel, on every housekeeping tick), without copying a bucket
    /// table per latency cell.
    pub fn snapshot_without_latencies(&self) -> MetricsSnapshot {
        self.capture(false)
    }

    fn capture(&self, with_latencies: bool) -> MetricsSnapshot {
        let inner = self.lock();
        let mut counters: Vec<CounterSample> = inner
            .counters
            .iter()
            .map(|(n, c)| CounterSample {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .iter()
            .map(|(n, g)| GaugeSample {
                name: n.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSample> = inner
            .histograms
            .iter()
            .map(|(n, h)| HistogramSample {
                name: n.clone(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut latencies: Vec<LatencySample> = inner
            .latencies
            .iter()
            .filter(|_| with_latencies)
            .map(|(n, l)| {
                let (hist, exemplars) = l.snapshot();
                LatencySample {
                    name: n.clone(),
                    hist,
                    exemplars,
                }
            })
            .collect();
        latencies.sort_by(|a, b| a.name.cmp(&b.name));
        let mut help = inner.help.clone();
        help.sort();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            latencies,
            help,
        }
    }
}

/// One counter's exported value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric identity.
    pub name: MetricName,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge's exported value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric identity.
    pub name: MetricName,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram's exported state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric identity.
    pub name: MetricName,
    /// Upper bucket bounds (overflow excluded).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; final element is the overflow
    /// bucket.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
}

/// One latency histogram's exported state: the compact log-linear form
/// plus its current exemplars.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySample {
    /// Metric identity.
    pub name: MetricName,
    /// Sparse log-linear buckets, count, sum and max (nanoseconds).
    pub hist: HistSnapshot,
    /// Exemplars pinned to latency bands, ascending by latency.
    pub exemplars: Vec<Exemplar>,
}

/// A point-in-time capture of every registered metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by identity.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by identity.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by identity.
    pub histograms: Vec<HistogramSample>,
    /// All latency histograms, sorted by identity.
    pub latencies: Vec<LatencySample>,
    /// Per-base-name help text, sorted by name.
    pub help: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Looks up a base name's help text.
    pub fn help_for(&self, name: &str) -> Option<&str> {
        self.help
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.as_str())
    }
    /// Looks up a counter's value by base name and labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricName::with_labels(name, labels);
        self.counters.iter().find(|c| c.name == id).map(|c| c.value)
    }

    /// Looks up a gauge's value by base name and labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let id = MetricName::with_labels(name, labels);
        self.gauges.iter().find(|g| g.name == id).map(|g| g.value)
    }

    /// Looks up a latency histogram by base name and labels.
    pub fn latency_sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencySample> {
        let id = MetricName::with_labels(name, labels);
        self.latencies.iter().find(|l| l.name == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("fg_requests_total");
        let b = registry.counter("fg_requests_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "both handles hit the same cell");
        assert_eq!(
            registry.snapshot().counter_value("fg_requests_total", &[]),
            Some(5)
        );
    }

    #[test]
    fn labelled_counters_are_distinct() {
        let registry = MetricsRegistry::new();
        let uz = registry.counter_with("fg_sms_sent_total", &[("country", "UZ")]);
        let lt = registry.counter_with("fg_sms_sent_total", &[("country", "LT")]);
        uz.add(3);
        lt.inc();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("fg_sms_sent_total", &[("country", "UZ")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_value("fg_sms_sent_total", &[("country", "LT")]),
            Some(1)
        );
    }

    #[test]
    fn gauges_set_and_add() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn exemplars_band_by_latency_and_keep_latest() {
        let l = Latency::new();
        let at = Duration::from_nanos;
        assert_eq!(l.record_with_exemplar(at(50_000), 0xA), 0); // <100µs band
        assert_eq!(l.record_with_exemplar(at(60_000), 0xB), 0xA); // same band: evicts 0xA
        assert_eq!(l.record_with_exemplar(at(20_000_000), 0xC), 0); // 10–100ms band
        assert_eq!(l.record_with_exemplar(at(3_000), 0), 0); // id 0 = no trace: ignored
        let (snap, exemplars) = l.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(
            exemplars,
            vec![
                Exemplar {
                    nanos: 60_000,
                    trace_id: 0xB
                },
                Exemplar {
                    nanos: 20_000_000,
                    trace_id: 0xC
                },
            ]
        );
    }

    #[test]
    fn snapshot_without_latencies_drops_only_the_latency_tables() {
        let registry = MetricsRegistry::new();
        registry.counter("fg_http_5xx_total").inc();
        registry.gauge("fg_serve_active_alerts").set(1.0);
        registry
            .latency_with(
                "fg_http_request_duration_seconds",
                &[("endpoint", "decide")],
            )
            .record(Duration::from_micros(10));
        let snap = registry.snapshot();
        assert_eq!(snap.latencies.len(), 1);
        // The sentinel's per-tick snapshot is the same minus the latencies.
        assert_eq!(
            registry.snapshot_without_latencies(),
            MetricsSnapshot {
                latencies: Vec::new(),
                ..snap
            }
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        // Exactly on a bound lands in that bucket (le semantics) …
        h.record(1.0);
        h.record(5.0);
        h.record(10.0);
        // … just above rolls to the next …
        h.record(1.0001);
        // … below the first bound lands in bucket 0 …
        h.record(0.0);
        h.record(-3.0);
        // … and above the last bound goes to overflow.
        h.record(11.0);
        assert_eq!(h.bucket_counts(), vec![3, 2, 1, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (1.0 + 5.0 + 10.0 + 1.0001 + 0.0 - 3.0 + 11.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_counts(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[5.0, 1.0]);
    }

    #[test]
    fn help_text_is_first_write_wins_and_snapshotted() {
        let registry = MetricsRegistry::new();
        registry.set_help("fg_requests_total", "Requests by endpoint");
        registry.set_help("fg_requests_total", "A later, different description");
        registry.set_help("fg_sms_sent_total", "Delivered SMS by country");
        let snap = registry.snapshot();
        assert_eq!(
            snap.help_for("fg_requests_total"),
            Some("Requests by endpoint"),
            "first registration wins"
        );
        assert_eq!(
            snap.help,
            vec![
                (
                    "fg_requests_total".to_owned(),
                    "Requests by endpoint".to_owned()
                ),
                (
                    "fg_sms_sent_total".to_owned(),
                    "Delivered SMS by country".to_owned()
                ),
            ],
            "sorted by name"
        );
    }

    #[test]
    fn metric_names_render_with_labels() {
        let n = MetricName::with_labels("fg_sms_sent_total", &[("country", "UZ")]);
        assert_eq!(n.to_string(), "fg_sms_sent_total{country=\"UZ\"}");
        let bare = MetricName::with_labels("fg_requests_total", &[]);
        assert_eq!(bare.to_string(), "fg_requests_total");
    }

    #[test]
    fn name_charset_validation_matches_the_exposition_format() {
        for ok in ["fg_requests_total", "_hidden", "ns:sub:metric", "a9"] {
            assert!(is_valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "9leading", "has-dash", "has space", "utf8_é"] {
            assert!(!is_valid_metric_name(bad), "{bad}");
        }
        for ok in ["endpoint", "_private", "le9"] {
            assert!(is_valid_label_name(ok), "{ok}");
        }
        for bad in ["", "9x", "with:colon", "with-dash"] {
            assert!(!is_valid_label_name(bad), "{bad}");
        }
        // Label values are deliberately unrestricted.
        let n = MetricName::with_labels("fg_requests_total", &[("endpoint", "/booking/hold")]);
        assert_eq!(n.labels[0].1, "/booking/hold");
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    #[cfg(debug_assertions)]
    fn bad_metric_name_is_rejected_at_registration() {
        let _ = MetricName::with_labels("fg-requests-total", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    #[cfg(debug_assertions)]
    fn bad_label_name_is_rejected_at_registration() {
        let _ = MetricName::with_labels("fg_requests_total", &[("end-point", "/search")]);
    }
}
