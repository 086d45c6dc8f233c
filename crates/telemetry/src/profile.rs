//! Per-stage wall-clock profiling of the defence pipeline.
//!
//! Each named stage (a detection signal, a policy decision, a team review
//! pass) accumulates its latencies into a bounded log-linear histogram
//! ([`crate::hist::Hist`]): memory stays fixed no matter how long the
//! process runs, percentiles are within [`crate::hist::RELATIVE_ERROR`]
//! (1/64) of the exact nearest-rank value, and per-shard snapshots merge
//! exactly bucket-wise instead of averaging percentiles.

use crate::hist::{Hist, HistSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;

#[derive(Clone, Debug)]
struct StageStats {
    name: String,
    nanos: Hist,
}

/// Accumulates wall-clock latencies per named pipeline stage.
#[derive(Clone, Debug, Default)]
pub struct StageProfiler {
    stages: Vec<StageStats>,
    index: HashMap<String, usize>,
}

impl StageProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        StageProfiler::default()
    }

    /// Records one latency sample, registering `name` as a stage on its
    /// first sample.
    pub fn record_named(&mut self, name: &str, elapsed: Duration) {
        let stage = match self.index.get(name) {
            Some(&i) => self.stages.get_mut(i),
            None => {
                self.index.insert(name.to_owned(), self.stages.len());
                self.stages.push(StageStats {
                    name: name.to_owned(),
                    nanos: Hist::new(),
                });
                self.stages.last_mut()
            }
        };
        if let Some(stage) = stage {
            stage.nanos.record_duration(elapsed);
        }
    }

    /// Per-stage latency statistics, in registration order.
    pub fn snapshot(&self) -> Vec<StageSnapshot> {
        self.stages
            .iter()
            .map(|s| StageSnapshot::from_hist(s.name.clone(), s.nanos.snapshot()))
            .collect()
    }
}

/// One stage's latency statistics, in microseconds.
///
/// The percentile fields are derived from `hist` (the mergeable source of
/// truth); [`StageSnapshot::refresh_derived`] recomputes them after a
/// merge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name, e.g. `detect.ip-velocity`.
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
    /// Builds a snapshot (derived fields included) from a histogram.
    pub fn from_hist(stage: String, hist: HistSnapshot) -> Self {
        let mut snap = StageSnapshot {
            stage,
            count: 0,
            total_ms: 0.0,
            mean_us: 0.0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
            hist,
        };
        snap.refresh_derived();
        snap
    }

    /// Recomputes count/total/mean/percentiles/max from `hist`, after the
    /// histogram has been merged or replaced.
    pub fn refresh_derived(&mut self) {
        self.count = self.hist.count;
        self.total_ms = self.hist.sum as f64 * 1e-6;
        self.mean_us = if self.hist.count == 0 {
            0.0
        } else {
            self.hist.sum as f64 * (self.hist.count as f64).recip() * 1e-3
        };
        self.p50_us = self.hist.quantile_us(0.50);
        self.p95_us = self.hist.quantile_us(0.95);
        self.p99_us = self.hist.quantile_us(0.99);
        self.max_us = self.hist.max as f64 * 1e-3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::RELATIVE_ERROR;

    #[test]
    fn stages_register_idempotently() {
        let mut p = StageProfiler::new();
        p.record_named("detect.assess", Duration::from_micros(3));
        p.record_named("detect.assess", Duration::from_micros(4));
        let snap = p.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].count, 2);
    }

    #[test]
    fn percentiles_come_from_recorded_samples() {
        let mut p = StageProfiler::new();
        for us in 1..=100u64 {
            p.record_named("policy.decide", Duration::from_micros(us));
        }
        let snap = p.snapshot();
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
        // The old Summary retained every sample; the histogram must not.
        let mut p = StageProfiler::new();
        for i in 0..200_000u64 {
            p.record_named("detect.assess", Duration::from_nanos(100 + i % 1000));
        }
        let snap = p.snapshot();
        assert_eq!(snap[0].count, 200_000);
        assert!(
            snap[0].hist.buckets.len() <= crate::hist::BUCKET_COUNT,
            "sparse form bounded by the fixed table"
        );
    }
}
