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

    /// Builds a matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_pairs(truths: &[bool], predictions: &[bool]) -> Self {
        assert_eq!(truths.len(), predictions.len(), "slices must align");
        let mut cm = ConfusionMatrix::new();
        for (&t, &p) in truths.iter().zip(predictions) {
            cm.record(t, p);
        }
        cm
    }

    /// Total outcomes recorded.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
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

    /// Accuracy over all outcomes (1.0 on an empty matrix).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// False-positive rate: FP / (FP + TN) — the "legitimate customers
    /// blocked" rate, which §V's usability/security balance is about.
    pub fn false_positive_rate(&self) -> f64 {
        if self.fp + self.tn == 0 {
            0.0
        } else {
            self.fp as f64 / (self.fp + self.tn) as f64
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

    #[test]
    fn perfect_classifier() {
        let cm = ConfusionMatrix::from_pairs(&[true, false, true], &[true, false, true]);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.false_positive_rate(), 0.0);
    }

    #[test]
    fn always_positive_classifier() {
        let cm = ConfusionMatrix::from_pairs(&[true, false, false, false], &[true; 4]);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.precision(), 0.25);
        assert_eq!(cm.false_positive_rate(), 1.0);
    }

    #[test]
    fn degenerate_cases() {
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.accuracy(), 1.0);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);

        let never_fires = ConfusionMatrix::from_pairs(&[true, true], &[false, false]);
        assert_eq!(never_fires.precision(), 1.0, "vacuous precision");
        assert_eq!(never_fires.recall(), 0.0);
        assert_eq!(never_fires.f1(), 0.0);
    }

    #[test]
    fn display_contains_metrics() {
        let cm = ConfusionMatrix::from_pairs(&[true, false], &[true, true]);
        let s = cm.to_string();
        assert!(s.contains("tp=1"));
        assert!(s.contains("fp=1"));
    }

    proptest! {
        /// All metrics stay within [0, 1] and totals add up.
        #[test]
        fn prop_metrics_bounded(pairs in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
            let truths: Vec<bool> = pairs.iter().map(|p| p.0).collect();
            let preds: Vec<bool> = pairs.iter().map(|p| p.1).collect();
            let cm = ConfusionMatrix::from_pairs(&truths, &preds);
            prop_assert_eq!(cm.total() as usize, pairs.len());
            for m in [cm.precision(), cm.recall(), cm.f1(), cm.accuracy(), cm.false_positive_rate()] {
                prop_assert!((0.0..=1.0).contains(&m));
            }
        }
    }
}
