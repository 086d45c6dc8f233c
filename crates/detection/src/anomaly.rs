//! Distribution anomaly detection.
//!
//! §IV-A's attack was visible as a distortion of the *Number in Party*
//! distribution (Fig. 1): a spike at NiP 6 against a baseline dominated by
//! 1–2 passenger bookings. This module provides the drift statistics that
//! turn such distortions into alarms: Pearson chi-square against a baseline
//! and a ready-made [`NipDistributionMonitor`].

use fg_core::stats::Histogram;
use serde::{Deserialize, Serialize};

/// Pearson chi-square statistic of `observed` counts against `expected`
/// *shares* (which must sum to ~1). Buckets with zero expectation contribute
/// `observed` (capped contribution via a small epsilon floor).
///
/// Returns 0 for an empty observation.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn chi_square(observed: &[u64], expected_shares: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        expected_shares.len(),
        "bucket counts must align"
    );
    let total: u64 = observed.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    observed
        .iter()
        .zip(expected_shares)
        .map(|(&o, &p)| {
            let e = (p * total).max(1e-9);
            (o as f64 - e).powi(2) / e
        })
        .sum()
}

/// A drift monitor for the NiP distribution.
///
/// Fit on a baseline window (the "average week"), then score observation
/// windows; the alarm fires when the chi-square statistic per booking exceeds
/// a threshold, and [`NipDistributionMonitor::most_inflated_bucket`] points
/// at the NiP value the attacker concentrated on.
///
/// # Example
///
/// ```
/// use fg_detection::anomaly::NipDistributionMonitor;
/// use fg_core::stats::Histogram;
///
/// let mut baseline = Histogram::new(9);
/// for _ in 0..60 { baseline.record(1); }
/// for _ in 0..30 { baseline.record(2); }
/// for _ in 0..10 { baseline.record(3); }
/// let monitor = NipDistributionMonitor::fit(&baseline, 2.0);
///
/// // Attack week: a flood of NiP-6 bookings on top of the same base.
/// let mut attack = Histogram::new(9);
/// for _ in 0..60 { attack.record(1); }
/// for _ in 0..30 { attack.record(2); }
/// for _ in 0..50 { attack.record(6); }
/// assert!(monitor.score(&attack) > 2.0);
/// assert_eq!(monitor.most_inflated_bucket(&attack), Some(6));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NipDistributionMonitor {
    baseline_shares: Vec<f64>,
    threshold_per_sample: f64,
}

impl NipDistributionMonitor {
    /// Fits the monitor on a baseline histogram.
    ///
    /// `threshold_per_sample` is the chi-square-per-booking alarm level kept
    /// with the baseline: a [`NipDistributionMonitor::score`] above it is an
    /// alarm; 2.0 is a robust default for weekly windows.
    ///
    /// # Panics
    ///
    /// Panics if the baseline is empty.
    pub fn fit(baseline: &Histogram, threshold_per_sample: f64) -> Self {
        assert!(baseline.total() > 0, "baseline must contain observations");
        NipDistributionMonitor {
            baseline_shares: baseline.shares(),
            threshold_per_sample,
        }
    }

    /// Chi-square of `observed` against the baseline, normalized per booking.
    ///
    /// # Panics
    ///
    /// Panics if domains differ.
    pub fn score(&self, observed: &Histogram) -> f64 {
        let total = observed.total();
        if total == 0 {
            return 0.0;
        }
        chi_square(observed.buckets(), &self.baseline_shares) / total as f64
    }

    /// The bucket with the greatest share lift over baseline — where the
    /// attacker concentrated. `None` for empty observations.
    pub fn most_inflated_bucket(&self, observed: &Histogram) -> Option<usize> {
        if observed.total() == 0 {
            return None;
        }
        let shares = observed.shares();
        shares
            .iter()
            .zip(&self.baseline_shares)
            .enumerate()
            .max_by(|(_, (sa, ba)), (_, (sb, bb))| (*sa - *ba).total_cmp(&(*sb - *bb)))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn baseline_hist() -> Histogram {
        let mut h = Histogram::new(9);
        h.record_n(1, 550);
        h.record_n(2, 300);
        h.record_n(3, 80);
        h.record_n(4, 70);
        h
    }

    #[test]
    fn chi_square_zero_for_matching_distribution() {
        let h = baseline_hist();
        let x = chi_square(h.buckets(), &h.shares());
        assert!(x < 1e-6, "self-comparison should be ~0, got {x}");
    }

    #[test]
    fn chi_square_grows_with_perturbation() {
        let base = baseline_hist();
        let mut mild = baseline_hist();
        mild.record_n(6, 50);
        let mut severe = baseline_hist();
        severe.record_n(6, 500);
        let x_mild = chi_square(mild.buckets(), &base.shares());
        let x_severe = chi_square(severe.buckets(), &base.shares());
        assert!(x_severe > x_mild);
        assert!(x_mild > 1.0);
    }

    #[test]
    fn monitor_fires_on_attack_not_on_baseline_noise() {
        let monitor = NipDistributionMonitor::fit(&baseline_hist(), 2.0);
        // A fresh sample from the same distribution: not anomalous.
        let mut normal = Histogram::new(9);
        normal.record_n(1, 54);
        normal.record_n(2, 31);
        normal.record_n(3, 9);
        normal.record_n(4, 6);
        assert!(
            monitor.score(&normal) <= 2.0,
            "score {}",
            monitor.score(&normal)
        );

        // Attack week: NiP-6 spike.
        let mut attack = normal.clone();
        attack.record_n(6, 60);
        assert!(monitor.score(&attack) > 2.0);
        assert_eq!(monitor.most_inflated_bucket(&attack), Some(6));
    }

    #[test]
    fn monitor_empty_observation_is_quiet() {
        let monitor = NipDistributionMonitor::fit(&baseline_hist(), 2.0);
        let empty = Histogram::new(9);
        assert_eq!(monitor.score(&empty), 0.0);
        assert_eq!(monitor.most_inflated_bucket(&empty), None);
    }

    #[test]
    #[should_panic(expected = "baseline must contain")]
    fn empty_baseline_rejected() {
        NipDistributionMonitor::fit(&Histogram::new(9), 2.0);
    }

    proptest! {
        /// Chi-square is non-negative for any inputs.
        #[test]
        fn prop_chi_square_nonnegative(obs in proptest::collection::vec(0u64..500, 10)) {
            let base = baseline_hist();
            prop_assert!(chi_square(&obs, &base.shares()) >= 0.0);
        }
    }
}
