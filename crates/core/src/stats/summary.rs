//! Running summary statistics.

use serde::{Deserialize, Serialize};

/// A streaming accumulator tracking count, min, max, mean and variance
/// (Welford's algorithm) in constant space.
///
/// # Example
///
/// ```
/// use fg_core::stats::Summary;
///
/// let mut rotation_hours = Summary::new();
/// for h in [4.9, 5.1, 5.6, 5.3, 5.7] {
///     rotation_hours.record(h);
/// }
/// assert!((rotation_hours.mean() - 5.32).abs() < 1e-9);
/// assert_eq!(rotation_hours.count(), 5);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// Non-finite samples are ignored (they would poison every statistic).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let n = self.count as f64;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

impl Default for Summary {
    /// Same as [`Summary::new`]: min and max start at the infinities, so
    /// the first sample sets both.
    fn default() -> Self {
        Summary::new()
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn default_is_empty_like_new() {
        let mut s = Summary::default();
        assert_eq!(s, Summary::new());
        s.record(5.0);
        assert_eq!((s.min(), s.max()), (Some(5.0), Some(5.0)));
    }

    #[test]
    fn basic_stats() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    proptest! {
        /// Mean is always within [min, max].
        #[test]
        fn prop_mean_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: Summary = xs.iter().copied().collect();
            let (min, max) = (s.min().unwrap(), s.max().unwrap());
            prop_assert!(s.mean() >= min - 1e-9);
            prop_assert!(s.mean() <= max + 1e-9);
        }

        /// Variance is never negative.
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.variance() >= -1e-9);
        }
    }
}
