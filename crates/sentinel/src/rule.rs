//! The alert-rule vocabulary.
//!
//! Three rule kinds cover the paper's detection surfaces:
//!
//! - [`RuleKind::Threshold`] — absolute level over a window ("more than N
//!   holds per hour"), the classic volumetric detector.
//! - [`RuleKind::Surge`] — rate-of-change vs a sliding seasonal baseline
//!   ("per-country SMS volume at ≥ 8× its trailing-week rate"), the detector
//!   that would have caught Table I's +160,209 % Uzbekistan spike in
//!   sim-minutes instead of an invoice cycle. Applied to the owner-spend
//!   gauge it becomes a cost burn-rate rule, the SRE-style alert the ISSUE's
//!   related work (Prometheus/SRE practice) prescribes.
//! - [`RuleKind::Drift`] — histogram distribution drift vs an average-week
//!   baseline ("the NiP mix no longer looks like the airline's"), the Fig. 1
//!   detector, scored with a chi-square-per-sample statistic (mirroring
//!   `fg-detection`'s offline `NipDistributionMonitor`).

use fg_core::time::SimDuration;
use fg_telemetry::MetricName;
use serde::Serialize;

/// Whether a rule reads cumulative counters or cumulative gauges.
///
/// Both are differentiated into windowed deltas before evaluation; gauge
/// decreases are clamped to zero (spend and revenue gauges only grow).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MetricSource {
    /// A `fg_telemetry::Counter` series.
    Counter,
    /// A `fg_telemetry::Gauge` series.
    Gauge,
}

/// Which telemetry series a rule watches.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MetricSelector {
    /// Base metric name, e.g. `fg_sms_sent_total`.
    pub name: String,
    /// Exact label pairs when `Some` (one series); `None` fans the rule out
    /// over *every* series sharing the base name, each with its own alert
    /// state and dedup key — how one surge rule watches ~200 country series.
    pub labels: Option<Vec<(String, String)>>,
}

impl MetricSelector {
    /// Selects every series with this base name.
    pub fn any(name: &str) -> Self {
        MetricSelector {
            name: name.to_owned(),
            labels: None,
        }
    }

    /// Selects the single series with this exact name and label set.
    pub fn exact(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricSelector {
            name: name.to_owned(),
            labels: Some(
                labels
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                    .collect(),
            ),
        }
    }

    /// Whether `id` is one of the series this selector watches.
    pub fn matches(&self, id: &MetricName) -> bool {
        id.name == self.name
            && match &self.labels {
                Some(want) => *want == id.labels,
                None => true,
            }
    }
}

/// The baseline a [`RuleKind::Drift`] rule compares against.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum DriftBaseline {
    /// Known-good per-bucket weights (normalised before use), aligned to the
    /// histogram's buckets including the overflow bucket; shorter vectors
    /// are zero-padded. This is the "defender knows the airline's group-size
    /// mix" case — the only option when the campaign starts at t = 0.
    Static(Vec<f64>),
    /// Learn the baseline from observed samples until `until` sim-time, then
    /// freeze — the literal "average week" of Fig. 1. The rule is inert
    /// while learning.
    Learned {
        /// Sim-time at which learning stops and evaluation begins.
        until: fg_core::time::SimTime,
    },
}

/// The drift statistic to compare against the rule threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DriftStat {
    /// `Σ (p_i − q_i)² / q_i` over normalised distributions — chi-square per
    /// sample, the statistic `fg-detection`'s offline NiP monitor uses
    /// (≈ (k−1)/N under the null, so it is sample-size aware via
    /// `min_samples`).
    ChiSquarePerSample,
}

/// What a rule computes each tick and compares against its trigger.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum RuleKind {
    /// Fires when the windowed delta of the series reaches `min_value`.
    Threshold {
        /// Counter or gauge series.
        source: MetricSource,
        /// Window the delta is summed over.
        window: SimDuration,
        /// Trigger level in events (or gauge units) per window.
        min_value: f64,
    },
    /// Fires when the current-window rate reaches `factor` × the trailing
    /// baseline rate, with volume and floor guards.
    Surge {
        /// Counter or gauge series.
        source: MetricSource,
        /// The "now" window whose rate is tested.
        current_window: SimDuration,
        /// How much trailing history forms the seasonal baseline.
        baseline_window: SimDuration,
        /// Surge factor, e.g. 8.0 for "8× the baseline rate".
        factor: f64,
        /// Minimum events in the current window before the rule may fire —
        /// keeps single stray events on a silent series from alerting.
        min_count: f64,
        /// Baseline floor in events/hour: a series with (near-)zero history
        /// is treated as if it ran at this rate, so "0 → anything" surges
        /// stay finite. This is the knob that makes premium-rate countries
        /// with no legitimate traffic alertable without dividing by zero.
        floor_per_hour: f64,
    },
    /// Fires while a gauge's *instantaneous* value is at or above
    /// `min_value` — no differentiation, no window. This is the SLO-style
    /// rule for level signals such as a served p99 latency gauge, which
    /// fluctuates rather than accumulates (a windowed delta of it would be
    /// meaningless).
    Level {
        /// Trigger level in gauge units.
        min_value: f64,
    },
    /// Fires when a histogram's windowed distribution drifts from the
    /// baseline by more than `threshold` under `stat`.
    Drift {
        /// Window the observed distribution is accumulated over.
        window: SimDuration,
        /// Minimum samples in the window before the statistic is meaningful.
        min_samples: u64,
        /// What the observed distribution is compared against.
        baseline: DriftBaseline,
        /// Which drift statistic to compute.
        stat: DriftStat,
        /// Trigger level for the statistic.
        threshold: f64,
    },
}

/// One deployable alert rule: a selector, a trigger, and lifecycle timing.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AlertRule {
    /// Stable rule id, the first half of every alert's dedup key
    /// (`id` + series identity), e.g. `sms-country-surge`.
    pub id: String,
    /// Which series the rule watches.
    pub selector: MetricSelector,
    /// The trigger.
    pub kind: RuleKind,
    /// How long the condition must hold before `pending` escalates to
    /// `firing` (0 = immediately).
    pub for_duration: SimDuration,
    /// Quiet period after `resolved` before the same dedup key may go
    /// `pending` again.
    pub cooldown: SimDuration,
}

impl AlertRule {
    /// An absolute-level rule over a counter series.
    pub fn threshold(
        id: &str,
        selector: MetricSelector,
        window: SimDuration,
        min_value: f64,
    ) -> Self {
        AlertRule {
            id: id.to_owned(),
            selector,
            kind: RuleKind::Threshold {
                source: MetricSource::Counter,
                window,
                min_value,
            },
            for_duration: SimDuration::ZERO,
            cooldown: SimDuration::from_hours(1),
        }
    }

    /// A surge rule over a counter series (the Table I per-country SMS
    /// detector shape).
    pub fn surge(
        id: &str,
        selector: MetricSelector,
        current_window: SimDuration,
        baseline_window: SimDuration,
        factor: f64,
        min_count: f64,
    ) -> Self {
        AlertRule {
            id: id.to_owned(),
            selector,
            kind: RuleKind::Surge {
                source: MetricSource::Counter,
                current_window,
                baseline_window,
                factor,
                min_count,
                floor_per_hour: 0.5,
            },
            for_duration: SimDuration::ZERO,
            cooldown: SimDuration::from_hours(1),
        }
    }

    /// A cost burn-rate rule: a surge over the cumulative owner-spend gauge
    /// (`fg_sms_owner_cost_units`) — "we are spending N× faster than the
    /// trailing baseline", the alert that replaces waiting for the invoice.
    pub fn burn_rate(
        id: &str,
        current_window: SimDuration,
        baseline_window: SimDuration,
        factor: f64,
        min_spend: f64,
    ) -> Self {
        AlertRule {
            id: id.to_owned(),
            selector: MetricSelector::exact("fg_sms_owner_cost_units", &[]),
            kind: RuleKind::Surge {
                source: MetricSource::Gauge,
                current_window,
                baseline_window,
                factor,
                min_count: min_spend,
                floor_per_hour: 0.05,
            },
            for_duration: SimDuration::ZERO,
            cooldown: SimDuration::from_hours(1),
        }
    }

    /// An instantaneous-level rule over a gauge series ("served p99 is
    /// above the SLO right now"). Pair with [`AlertRule::hold_for`] to
    /// require the level to persist before firing.
    pub fn level(id: &str, selector: MetricSelector, min_value: f64) -> Self {
        AlertRule {
            id: id.to_owned(),
            selector,
            kind: RuleKind::Level { min_value },
            for_duration: SimDuration::ZERO,
            cooldown: SimDuration::from_hours(1),
        }
    }

    /// A distribution-drift rule over a histogram series (the Fig. 1 NiP
    /// detector shape).
    pub fn drift(
        id: &str,
        selector: MetricSelector,
        window: SimDuration,
        min_samples: u64,
        baseline: DriftBaseline,
        stat: DriftStat,
        threshold: f64,
    ) -> Self {
        AlertRule {
            id: id.to_owned(),
            selector,
            kind: RuleKind::Drift {
                window,
                min_samples,
                baseline,
                stat,
                threshold,
            },
            for_duration: SimDuration::ZERO,
            cooldown: SimDuration::from_hours(1),
        }
    }

    /// Builder: require the condition to hold this long before firing.
    pub fn hold_for(mut self, d: SimDuration) -> Self {
        self.for_duration = d;
        self
    }

    /// Builder: quiet period after resolution.
    pub fn with_cooldown(mut self, d: SimDuration) -> Self {
        self.cooldown = d;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_match_by_name_and_labels() {
        let any = MetricSelector::any("fg_sms_sent_total");
        let uz = MetricName::with_labels("fg_sms_sent_total", &[("country", "UZ")]);
        let gb = MetricName::with_labels("fg_sms_sent_total", &[("country", "GB")]);
        let other = MetricName::with_labels("fg_requests_total", &[]);
        assert!(any.matches(&uz) && any.matches(&gb));
        assert!(!any.matches(&other));

        let exact = MetricSelector::exact("fg_sms_sent_total", &[("country", "UZ")]);
        assert!(exact.matches(&uz));
        assert!(!exact.matches(&gb));
    }

    #[test]
    fn burn_rate_watches_owner_spend() {
        let r = AlertRule::burn_rate(
            "sms-burn",
            SimDuration::from_hours(6),
            SimDuration::from_days(7),
            3.0,
            1.0,
        );
        assert!(r
            .selector
            .matches(&MetricName::with_labels("fg_sms_owner_cost_units", &[])));
        assert!(matches!(
            r.kind,
            RuleKind::Surge {
                source: MetricSource::Gauge,
                ..
            }
        ));
    }
}
