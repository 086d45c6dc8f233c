//! Dense integer-bucket histogram.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A histogram over the integer domain `0..=max_value`.
///
/// Values above `max_value` are clamped into the last bucket (and counted in
/// the serialized `clamped` field), which is the right behaviour for bounded
/// quantities like Number-in-Party where the application enforces a maximum.
///
/// # Example
///
/// ```
/// use fg_core::stats::Histogram;
///
/// let mut nip = Histogram::new(9);
/// for v in [1, 1, 2, 1, 6, 2] {
///     nip.record(v);
/// }
/// assert_eq!(nip.count(1), 3);
/// assert_eq!(nip.total(), 6);
/// assert!((nip.share(1) - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    clamped: u64,
}

impl Histogram {
    /// Creates a histogram covering `0..=max_value`.
    ///
    /// # Panics
    ///
    /// Panics if `max_value` is `usize::MAX` (bucket count would overflow).
    pub fn new(max_value: usize) -> Self {
        Histogram {
            buckets: vec![0; max_value.checked_add(1).expect("histogram too large")],
            total: 0,
            clamped: 0,
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: usize, n: u64) {
        let idx = if value >= self.buckets.len() {
            self.clamped += n;
            self.buckets.len() - 1
        } else {
            value
        };
        self.buckets[idx] += n;
        self.total += n;
    }

    /// Count in bucket `value` (0 if out of range).
    pub fn count(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations that fell in bucket `value` (0.0 when empty).
    pub fn share(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// The full bucket vector, indexed by value.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Normalized bucket shares (all zeros when empty).
    pub fn shares(&self) -> Vec<f64> {
        (0..self.buckets.len()).map(|v| self.share(v)).collect()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(total={}", self.total)?;
        for (v, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                write!(f, ", {v}:{c}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_and_share() {
        let mut h = Histogram::new(4);
        h.record(0);
        h.record(0);
        h.record(3);
        h.record(4);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.total(), 4);
        assert!((h.share(0) - 0.5).abs() < 1e-12);
        assert_eq!(h.clamped, 0);
    }

    #[test]
    fn clamps_above_domain() {
        let mut h = Histogram::new(2);
        h.record(99);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.clamped, 1);
    }

    #[test]
    fn display_shows_nonzero_buckets() {
        let mut h = Histogram::new(3);
        h.record(2);
        assert_eq!(h.to_string(), "Histogram(total=1, 2:1)");
    }

    proptest! {
        /// Total always equals the sum of all buckets.
        #[test]
        fn prop_total_is_bucket_sum(values in proptest::collection::vec(0usize..20, 0..500)) {
            let mut h = Histogram::new(9);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.total(), h.buckets().iter().sum::<u64>());
            prop_assert_eq!(h.total(), values.len() as u64);
        }

        /// Shares always sum to ~1 for non-empty histograms.
        #[test]
        fn prop_shares_sum_to_one(values in proptest::collection::vec(0usize..12, 1..300)) {
            let mut h = Histogram::new(9);
            for &v in &values {
                h.record(v);
            }
            let sum: f64 = h.shares().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
