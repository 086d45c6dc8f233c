//! Per-stage wall-clock profiling of the defence pipeline.
//!
//! Each timed stage (the detection pass, a policy decision, a team review
//! pass) is one [`crate::metrics::Latency`] cell of the metrics registry,
//! `fg_stage_latency_seconds{stage="…"}`, registered once by the
//! component that times it ([`crate::Telemetry::stage_latency`]) and
//! recorded into without a lock. This module reads the family back as
//! per-stage statistics: memory stays fixed no matter how long the process
//! runs, percentiles are within [`crate::hist::RELATIVE_ERROR`] (1/64) of
//! the exact nearest-rank value, and per-shard snapshots merge exactly
//! bucket-wise instead of averaging percentiles.

use crate::hist::HistSnapshot;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};

/// The metric family every stage latency belongs to.
pub(crate) const STAGE_FAMILY: &str = "fg_stage_latency_seconds";

/// Every stage of the `fg_stage_latency_seconds` family in `metrics` that
/// has samples, ordered by stage name: what [`StageView::snapshot`] and
/// [`crate::TelemetrySnapshot::stages`] return.
pub(crate) fn stage_snapshots(metrics: &MetricsSnapshot) -> Vec<StageSnapshot> {
    metrics
        .latencies
        .iter()
        .filter(|l| l.name.name == STAGE_FAMILY && l.hist.count > 0)
        .filter_map(|l| {
            let (_, stage) = l.name.labels.iter().find(|(k, _)| k == "stage")?;
            Some(StageSnapshot::from_hist(stage.clone(), l.hist.clone()))
        })
        .collect()
}

/// A read-only view of the stage latencies a registry holds, as
/// [`crate::Telemetry::profiler`] hands them out.
#[derive(Clone, Copy, Debug)]
pub struct StageView<'a>(pub(crate) &'a MetricsRegistry);

impl StageView<'_> {
    /// Per-stage latency statistics of every stage with samples, ordered
    /// by stage name.
    pub fn snapshot(&self) -> Vec<StageSnapshot> {
        stage_snapshots(&self.0.snapshot())
    }
}

/// One stage's latency statistics, in microseconds.
///
/// The percentile fields are derived from `hist`, the mergeable source of
/// truth.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name, e.g. `detect.assess`.
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Total time spent in the stage, milliseconds.
    pub total_ms: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst-case latency, microseconds.
    pub max_us: f64,
    /// The underlying log-linear histogram; merging two snapshots adds
    /// these bucket-wise, which is exact (no percentile averaging).
    pub hist: HistSnapshot,
}

impl StageSnapshot {
    /// Builds a snapshot, derived fields included, from a histogram.
    fn from_hist(stage: String, hist: HistSnapshot) -> Self {
        StageSnapshot {
            stage,
            count: hist.count,
            total_ms: hist.sum as f64 / 1e6,
            mean_us: if hist.count == 0 {
                0.0
            } else {
                hist.sum as f64 / (hist.count as f64 * 1e3)
            },
            p50_us: hist.quantile_us(0.50),
            p95_us: hist.quantile_us(0.95),
            p99_us: hist.quantile_us(0.99),
            max_us: hist.max as f64 / 1e3,
            hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::hist::RELATIVE_ERROR;
    use crate::Telemetry;
    use std::time::Duration;

    #[test]
    fn stages_register_idempotently() {
        let t = Telemetry::new();
        t.stage_latency("detect.assess")
            .record(Duration::from_micros(3));
        t.stage_latency("detect.assess")
            .record(Duration::from_micros(4));
        t.stage_latency("policy.decide");
        let snap = t.profiler().snapshot();
        assert_eq!(snap.len(), 1, "a stage without samples is not listed");
        assert_eq!(snap[0].stage, "detect.assess");
        assert_eq!(snap[0].count, 2);
    }

    #[test]
    fn percentiles_come_from_recorded_samples() {
        let t = Telemetry::new();
        let stage = t.stage_latency("policy.decide");
        for us in 1..=100u64 {
            stage.record(Duration::from_micros(us));
        }
        let snap = t.profiler().snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.count, 100);
        // Percentiles are bucketed: within the documented relative error of
        // the exact nearest-rank values (50/95/99 µs); max is exact.
        for (got, exact) in [(s.p50_us, 50.0), (s.p95_us, 95.0), (s.p99_us, 99.0)] {
            assert!(
                (got - exact).abs() <= exact * RELATIVE_ERROR,
                "{got} vs {exact}"
            );
        }
        assert!((s.max_us - 100.0).abs() < 1e-6, "max {}", s.max_us);
        assert!((s.total_ms - 5.05).abs() < 1e-6, "total {}", s.total_ms);
        assert!((s.mean_us - 50.5).abs() < 1e-6, "mean {}", s.mean_us);
    }

    #[test]
    fn memory_is_bounded_regardless_of_sample_count() {
        // A retained-sample summary would grow with every sample; the
        // histogram must not.
        let t = Telemetry::new();
        let stage = t.stage_latency("detect.assess");
        for i in 0..200_000u64 {
            stage.record(Duration::from_nanos(100 + i % 1000));
        }
        let snap = t.profiler().snapshot();
        assert_eq!(snap[0].count, 200_000);
        assert!(
            snap[0].hist.buckets.len() <= crate::hist::BUCKET_COUNT,
            "sparse form bounded by the fixed table"
        );
    }
}
