//! Associativity of cross-seed folding.
//!
//! The multi-seed harness merges per-replicate telemetry with
//! `TelemetrySnapshot::merge`, so its metric sections must be associative:
//! the merged result may not depend on how the replicates are grouped.
//! Values are generated as small integers so f64 addition is exact and the
//! assertions can demand bitwise equality.
//!
//! (Latency and audit sections are excluded deliberately: their exemplars
//! and records re-sort by latency and time only, so ties keep an order
//! that depends on the grouping.)

use fg_telemetry::metrics::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use fg_telemetry::{AuditSnapshot, MetricName, TelemetrySnapshot};
use proptest::prelude::*;

fn snapshot_from(counters: &[(u8, u8)], gauges: &[(u8, u8)], hist: &[u8]) -> TelemetrySnapshot {
    let name = |i: u8| MetricName {
        name: format!("fg_m{}_total", i % 4),
        labels: if i.is_multiple_of(2) {
            vec![("country".to_owned(), format!("C{}", i % 3))]
        } else {
            Vec::new()
        },
    };
    let metrics = MetricsSnapshot {
        counters: counters
            .iter()
            .enumerate()
            .map(|(i, &(id, v))| CounterSample {
                name: name(id),
                value: v as u64 + i as u64,
            })
            .collect(),
        gauges: gauges
            .iter()
            .map(|&(id, v)| GaugeSample {
                name: name(id),
                value: v as f64,
            })
            .collect(),
        histograms: vec![HistogramSample {
            name: MetricName::with_labels("fg_nip_hold", &[]),
            bounds: vec![1.0, 2.0, 3.0],
            buckets: hist.iter().map(|&b| b as u64).collect(),
            count: hist.iter().map(|&b| b as u64).sum(),
            sum: hist.iter().map(|&b| b as f64).sum(),
        }],
        latencies: Vec::new(),
        help: vec![("fg_nip_hold".to_owned(), "NiP of accepted holds".to_owned())],
    };
    TelemetrySnapshot {
        metrics,
        audit: AuditSnapshot {
            recorded: 0,
            evicted: 0,
            decision_totals: Vec::new(),
            records: Vec::new(),
        },
    }
}

proptest! {
    /// Metric-section associativity of `TelemetrySnapshot::merge`.
    #[test]
    fn prop_snapshot_metric_merge_is_associative(
        (ca, ga, ha) in (
            proptest::collection::vec((0u8..8, 0u8..100), 0..6),
            proptest::collection::vec((0u8..8, 0u8..100), 0..4),
            proptest::collection::vec(0u8..100, 4..5),
        ),
        (cb, gb, hb) in (
            proptest::collection::vec((0u8..8, 0u8..100), 0..6),
            proptest::collection::vec((0u8..8, 0u8..100), 0..4),
            proptest::collection::vec(0u8..100, 4..5),
        ),
        (cc, hc) in (
            proptest::collection::vec((0u8..8, 0u8..100), 0..6),
            proptest::collection::vec(0u8..100, 4..5),
        ),
    ) {
        let sa = snapshot_from(&ca, &ga, &ha);
        let sb = snapshot_from(&cb, &gb, &hb);
        let sc = snapshot_from(&cc, &[], &hc);

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut right_inner = sb.clone();
        right_inner.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_inner);

        prop_assert_eq!(left.metrics, right.metrics);
    }
}
