//! Fixed-width time-bucketed counters.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A counter series over fixed-width time buckets starting at an origin.
///
/// Used throughout the experiment harness: SMS sent per day, holds per hour,
/// boarding passes per week, and so on. Buckets grow on demand, so callers
/// never pre-declare a horizon.
///
/// # Example
///
/// ```
/// use fg_core::stats::TimeSeries;
/// use fg_core::time::{SimDuration, SimTime};
///
/// let mut sms_per_day = TimeSeries::new(SimTime::ZERO, SimDuration::from_days(1));
/// sms_per_day.record(SimTime::from_hours(3), 2);
/// sms_per_day.record(SimTime::from_hours(30), 1);
/// assert_eq!(sms_per_day.bucket(0), 2);
/// assert_eq!(sms_per_day.bucket(1), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    origin: SimTime,
    width: SimDuration,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with buckets of `width` starting at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn new(origin: SimTime, width: SimDuration) -> Self {
        assert!(
            width.as_millis() > 0,
            "time-series bucket width must be positive"
        );
        TimeSeries {
            origin,
            width,
            buckets: Vec::new(),
        }
    }

    /// Records `count` occurrences at instant `at`.
    ///
    /// Events before the origin are counted into bucket 0 (they represent
    /// warm-up artifacts and must not be silently dropped).
    pub fn record(&mut self, at: SimTime, count: u64) {
        let idx = self.bucket_index(at);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += count;
    }

    /// The bucket index an instant maps to.
    pub fn bucket_index(&self, at: SimTime) -> usize {
        let offset = at.saturating_since(self.origin).as_millis();
        (offset / self.width.as_millis()) as usize
    }

    /// Count in bucket `idx` (0 for untouched buckets).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Sum over every bucket.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum over the half-open instant range `[from, to)`.
    pub fn total_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let lo = self.bucket_index(from);
        // to is exclusive: the instant one ms earlier determines the last bucket.
        let hi = self.bucket_index(to - SimDuration::from_millis(1));
        (lo..=hi).map(|i| self.bucket(i)).sum()
    }

    /// Percentage change between the totals of two equal-length windows
    /// (e.g. attack week vs. baseline week, the Table I metric).
    ///
    /// Returns `None` when the baseline window total is zero.
    pub fn surge_pct(
        &self,
        baseline: (SimTime, SimTime),
        window: (SimTime, SimTime),
    ) -> Option<f64> {
        let base = self.total_between(baseline.0, baseline.1);
        if base == 0 {
            return None;
        }
        let cur = self.total_between(window.0, window.1);
        Some((cur as f64 - base as f64) / base as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn daily() -> TimeSeries {
        TimeSeries::new(SimTime::ZERO, SimDuration::from_days(1))
    }

    #[test]
    fn records_into_correct_buckets() {
        let mut ts = daily();
        ts.record(SimTime::from_hours(1), 1);
        ts.record(SimTime::from_hours(25), 2);
        ts.record(SimTime::from_hours(49), 3);
        let days: Vec<u64> = (0..4).map(|d| ts.bucket(d)).collect();
        assert_eq!(days, [1, 2, 3, 0]);
        assert_eq!(ts.total(), 6);
    }

    #[test]
    fn pre_origin_events_land_in_bucket_zero() {
        let mut ts = TimeSeries::new(SimTime::from_days(5), SimDuration::from_days(1));
        ts.record(SimTime::from_days(1), 4);
        assert_eq!(ts.bucket(0), 4);
    }

    #[test]
    fn total_between_is_half_open() {
        let mut ts = daily();
        ts.record(SimTime::from_hours(12), 1); // day 0
        ts.record(SimTime::from_hours(36), 1); // day 1
        assert_eq!(
            ts.total_between(SimTime::ZERO, SimTime::from_days(1)),
            1,
            "day-1 bucket excluded by exclusive upper bound"
        );
        assert_eq!(ts.total_between(SimTime::ZERO, SimTime::from_days(2)), 2);
        assert_eq!(
            ts.total_between(SimTime::from_days(1), SimTime::from_days(1)),
            0
        );
    }

    #[test]
    fn surge_pct_matches_table_semantics() {
        let mut ts = daily();
        // Baseline week: 10 SMS. Attack week: 1 + 160,209% of 10 ≈ 16031.
        for d in 0..7 {
            ts.record(SimTime::from_days(d), 10 / 7 + u64::from(d < 3));
        }
        let base_total = ts.total_between(SimTime::ZERO, SimTime::from_weeks(1));
        for d in 7..14 {
            ts.record(SimTime::from_days(d), base_total * 3 / 7);
        }
        let surge = ts
            .surge_pct(
                (SimTime::ZERO, SimTime::from_weeks(1)),
                (SimTime::from_weeks(1), SimTime::from_weeks(2)),
            )
            .unwrap();
        assert!(
            surge > 100.0,
            "tripled traffic is a >100% surge, got {surge}"
        );
    }

    #[test]
    fn surge_pct_none_for_zero_baseline() {
        let ts = daily();
        assert_eq!(
            ts.surge_pct(
                (SimTime::ZERO, SimTime::from_days(1)),
                (SimTime::from_days(1), SimTime::from_days(2))
            ),
            None
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        TimeSeries::new(SimTime::ZERO, SimDuration::ZERO);
    }

    proptest! {
        /// total() equals the sum of all window queries over a partition.
        #[test]
        fn prop_windows_partition_total(
            events in proptest::collection::vec((0u64..14 * 24, 1u64..5), 0..200)
        ) {
            let mut ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1));
            for &(h, c) in &events {
                ts.record(SimTime::from_hours(h), c);
            }
            let w1 = ts.total_between(SimTime::ZERO, SimTime::from_weeks(1));
            let w2 = ts.total_between(SimTime::from_weeks(1), SimTime::from_weeks(2));
            prop_assert_eq!(w1 + w2, ts.total());
        }
    }
}
