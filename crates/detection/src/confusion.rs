//! Binary classification metrics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary confusion matrix with derived metrics.
///
/// # Example
///
/// ```
/// use fg_detection::confusion::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // TP
/// cm.record(false, false); // TN
/// cm.record(false, true);  // FP
/// assert_eq!(cm.precision(), 0.5);
/// assert_eq!(cm.recall(), 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix::default()
    }

    /// Records one `(truth, predicted)` outcome.
    pub fn record(&mut self, truth: bool, predicted: bool) {
        match (truth, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision: TP / (TP + FP); 1.0 when nothing was predicted positive
    /// (vacuously precise).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: TP / (TP + FN); 1.0 when no positives exist.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1: the harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} | P={:.3} R={:.3} F1={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Records each `(truth, predicted)` pair into a fresh matrix.
    fn recorded(pairs: &[(bool, bool)]) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new();
        for &(truth, predicted) in pairs {
            cm.record(truth, predicted);
        }
        cm
    }

    #[test]
    fn perfect_classifier() {
        let cm = recorded(&[(true, true), (false, false), (true, true)]);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn always_positive_classifier() {
        let cm = recorded(&[(true, true), (false, true), (false, true), (false, true)]);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.precision(), 0.25);
    }

    #[test]
    fn degenerate_cases() {
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);

        let never_fires = recorded(&[(true, false), (true, false)]);
        assert_eq!(never_fires.precision(), 1.0, "vacuous precision");
        assert_eq!(never_fires.recall(), 0.0);
        assert_eq!(never_fires.f1(), 0.0);
    }

    #[test]
    fn display_contains_metrics() {
        let cm = recorded(&[(true, true), (false, true)]);
        let s = cm.to_string();
        assert!(s.contains("tp=1"));
        assert!(s.contains("fp=1"));
    }

    proptest! {
        /// All metrics stay within [0, 1] and totals add up.
        #[test]
        fn prop_metrics_bounded(pairs in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
            let cm = recorded(&pairs);
            prop_assert_eq!((cm.tp + cm.fp + cm.tn + cm.fn_) as usize, pairs.len());
            for m in [cm.precision(), cm.recall(), cm.f1()] {
                prop_assert!((0.0..=1.0).contains(&m));
            }
        }
    }
}
