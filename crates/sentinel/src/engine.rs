//! The [`Sentinel`]: online rule evaluation and the alert lifecycle.

use crate::incident::{self, Incident};
use crate::policy::AlertPolicy;
use crate::rule::{DriftBaseline, DriftStat, MetricSource, RuleKind};
use crate::window::RateWindow;
use fg_core::time::{SimDuration, SimTime};
use fg_telemetry::{AuditSnapshot, Counter, Gauge, MetricName, MetricsRegistry, MetricsSnapshot};
use serde::Serialize;

/// Window bucket resolution: matches the simulation's 5-minute housekeeping
/// cadence, so each tick lands in (at most) one new bucket.
const GRANULARITY: SimDuration = SimDuration::from_mins(5);

/// An alert lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AlertTransition {
    /// Condition newly true; debounce clock started.
    Pending,
    /// Condition held for `for_duration`; the alert is live.
    Firing,
    /// Condition cleared on a firing alert; cooldown started.
    Resolved,
    /// Condition cleared while still pending (debounce rejected the blip).
    Cancelled,
}

impl AlertTransition {
    /// Lowercase label, used for the `event` metric label and incident rows.
    pub fn label(self) -> &'static str {
        match self {
            AlertTransition::Pending => "pending",
            AlertTransition::Firing => "firing",
            AlertTransition::Resolved => "resolved",
            AlertTransition::Cancelled => "cancelled",
        }
    }
}

/// One recorded lifecycle transition of one (rule, series) dedup key.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AlertEvent {
    /// Sim-time of the transition.
    pub at: SimTime,
    /// Rule id (first half of the dedup key).
    pub rule: String,
    /// Watched series rendered as `name{label="value"}` (second half).
    pub series: String,
    /// Which transition occurred.
    pub event: AlertTransition,
    /// The rule statistic at transition time (windowed count, surge ratio,
    /// or drift score).
    pub value: f64,
    /// The trigger level the statistic is compared against.
    pub threshold: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    Idle,
    Pending { since: SimTime },
    Firing,
}

/// Differentiated series state: either a scalar rate window or a per-bucket
/// distribution window.
enum SeriesData {
    Rate {
        last: f64,
        window: RateWindow,
    },
    Dist {
        last: Vec<u64>,
        windows: Vec<RateWindow>,
        /// Accumulated baseline counts (pre-normalisation). For
        /// [`DriftBaseline::Static`] this is fixed at creation; for
        /// [`DriftBaseline::Learned`] it accumulates until the learn
        /// deadline.
        baseline: Vec<f64>,
    },
}

/// Per-(rule, series) alert state — the dedup unit.
struct SeriesState {
    rule_idx: usize,
    series: MetricName,
    data: SeriesData,
    status: Status,
    cooldown_until: SimTime,
}

/// Evaluates an [`AlertPolicy`] online against metrics snapshots.
///
/// Attach one per simulation run (the `DefendedApp` owns it) and feed it
/// every housekeeping tick; it differentiates cumulative series into
/// windowed rates, evaluates each rule, and drives the
/// pending → firing → resolved lifecycle. Its own transitions are exported
/// as `fg_sentinel_*` metrics into the same registry it watches.
pub struct Sentinel {
    policy: AlertPolicy,
    states: Vec<SeriesState>,
    events: Vec<AlertEvent>,
    started: Option<SimTime>,
    observations: u64,
    evaluations: Counter,
    transitions: [Counter; 4],
    active: Gauge,
    counter_resets: Counter,
}

impl std::fmt::Debug for Sentinel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sentinel")
            .field("policy", &self.policy.name)
            .field("states", &self.states.len())
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl Sentinel {
    /// Creates a sentinel for `policy`, registering its `fg_sentinel_*`
    /// metrics (and their help text) in `registry`.
    pub fn new(policy: AlertPolicy, registry: &MetricsRegistry) -> Self {
        registry.set_help(
            "fg_sentinel_evaluations_total",
            "Rule-series evaluations performed by the alert sentinel",
        );
        registry.set_help(
            "fg_sentinel_alerts_total",
            "Alert lifecycle transitions by event (pending/firing/resolved/cancelled)",
        );
        registry.set_help(
            "fg_sentinel_active_alerts",
            "Alerts currently in the firing state",
        );
        registry.set_help(
            "fg_sentinel_counter_reset_total",
            "Cumulative series observed stepping backwards (merged or re-registered counters); the negative delta is clamped to zero",
        );
        let transitions = [
            AlertTransition::Pending,
            AlertTransition::Firing,
            AlertTransition::Resolved,
            AlertTransition::Cancelled,
        ]
        .map(|t| registry.counter_with("fg_sentinel_alerts_total", &[("event", t.label())]));
        Sentinel {
            policy,
            states: Vec::new(),
            events: Vec::new(),
            started: None,
            observations: 0,
            evaluations: registry.counter("fg_sentinel_evaluations_total"),
            transitions,
            active: registry.gauge("fg_sentinel_active_alerts"),
            counter_resets: registry.counter("fg_sentinel_counter_reset_total"),
        }
    }

    /// The policy this sentinel enforces.
    pub fn policy(&self) -> &AlertPolicy {
        &self.policy
    }

    /// All lifecycle transitions recorded so far, in occurrence order.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Alerts currently in the firing state.
    pub fn active_alerts(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| s.status == Status::Firing)
            .count() as u64
    }

    /// Sim-time of the first `firing` transition, if any.
    pub fn first_firing(&self) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.event == AlertTransition::Firing)
            .map(|e| e.at)
    }

    /// Evaluates every rule against `snap` at sim-time `now`.
    ///
    /// Cumulative counter/gauge values are differentiated into deltas and
    /// fed into per-series sliding windows; rules then test the windowed
    /// state. Series appearing mid-run (lazily registered country counters)
    /// inherit the sentinel's own start time as their baseline origin — a
    /// series the sentinel never saw was at rate zero, which is exactly the
    /// baseline that makes a premium-rate country's first burst stand out.
    pub fn observe(&mut self, now: SimTime, snap: &MetricsSnapshot) {
        self.started.get_or_insert(now);
        self.observations += 1;
        for rule_idx in 0..self.policy.rules.len() {
            let selector = self.policy.rules[rule_idx].selector.clone();
            let source = match self.policy.rules[rule_idx].kind {
                RuleKind::Threshold { source, .. } | RuleKind::Surge { source, .. } => Some(source),
                // Level rules read gauges, but instantaneously rather than
                // differentiated — dispatched below like gauges.
                RuleKind::Level { .. } => Some(MetricSource::Gauge),
                RuleKind::Drift { .. } => None,
            };
            let level = matches!(self.policy.rules[rule_idx].kind, RuleKind::Level { .. });
            match source {
                None => {
                    for h in snap.histograms.iter().filter(|h| selector.matches(&h.name)) {
                        let state_idx = self.ensure_dist_state(rule_idx, &h.name, h.buckets.len());
                        self.update_dist(state_idx, now, &h.buckets);
                        self.evaluate(state_idx, now);
                    }
                }
                Some(MetricSource::Counter) => {
                    for c in snap.counters.iter().filter(|c| selector.matches(&c.name)) {
                        let state_idx = self.ensure_rate_state(rule_idx, &c.name);
                        self.update_rate(state_idx, now, c.value as f64);
                        self.evaluate(state_idx, now);
                    }
                }
                Some(MetricSource::Gauge) => {
                    for g in snap.gauges.iter().filter(|g| selector.matches(&g.name)) {
                        let state_idx = self.ensure_rate_state(rule_idx, &g.name);
                        if level {
                            self.update_level(state_idx, now, g.value);
                        } else {
                            self.update_rate(state_idx, now, g.value);
                        }
                        self.evaluate(state_idx, now);
                    }
                }
            }
        }
        let firing = self
            .states
            .iter()
            .filter(|s| s.status == Status::Firing)
            .count();
        self.active.set(firing as f64);
    }

    /// Finalises the run: time-to-detection plus the correlated incident
    /// timeline. `retained_traces` (what the tracer actually kept), when
    /// given, restricts the incident's exemplar trace ids so every cited id
    /// resolves in the exported trace file.
    pub fn report_with_traces(
        &self,
        end: SimTime,
        audit: &AuditSnapshot,
        retained_traces: Option<&std::collections::BTreeSet<u64>>,
    ) -> SentinelReport {
        let first_firing = self.first_firing();
        let time_to_detection = match (self.policy.attack_start, first_firing) {
            (Some(start), Some(fired)) => Some(fired.saturating_since(start)),
            _ => None,
        };
        let active_at_end = self
            .states
            .iter()
            .filter(|s| s.status == Status::Firing)
            .count() as u64;
        let incident = incident::build(
            &self.policy,
            &self.events,
            audit,
            end,
            active_at_end,
            retained_traces,
        );
        SentinelReport {
            policy: self.policy.clone(),
            observations: self.observations,
            evaluations: self.evaluations.get(),
            events: self.events.clone(),
            active_at_end,
            first_firing,
            time_to_detection,
            incident,
        }
    }

    fn rule_span(kind: &RuleKind) -> SimDuration {
        match kind {
            RuleKind::Threshold { window, .. } => *window + GRANULARITY,
            RuleKind::Surge {
                current_window,
                baseline_window,
                ..
            } => *current_window + *baseline_window + GRANULARITY,
            RuleKind::Level { .. } => GRANULARITY,
            RuleKind::Drift { window, .. } => *window + GRANULARITY,
        }
    }

    fn find_state(&self, rule_idx: usize, series: &MetricName) -> Option<usize> {
        self.states
            .iter()
            .position(|s| s.rule_idx == rule_idx && s.series == *series)
    }

    fn ensure_rate_state(&mut self, rule_idx: usize, series: &MetricName) -> usize {
        if let Some(i) = self.find_state(rule_idx, series) {
            return i;
        }
        let span = Self::rule_span(&self.policy.rules[rule_idx].kind);
        self.states.push(SeriesState {
            rule_idx,
            series: series.clone(),
            data: SeriesData::Rate {
                last: 0.0,
                window: RateWindow::new(GRANULARITY, span),
            },
            status: Status::Idle,
            cooldown_until: SimTime::ZERO,
        });
        self.states.len() - 1
    }

    fn ensure_dist_state(&mut self, rule_idx: usize, series: &MetricName, buckets: usize) -> usize {
        if let Some(i) = self.find_state(rule_idx, series) {
            return i;
        }
        let rule = &self.policy.rules[rule_idx];
        let span = Self::rule_span(&rule.kind);
        let baseline = match &rule.kind {
            RuleKind::Drift {
                baseline: DriftBaseline::Static(weights),
                ..
            } => {
                let mut b = weights.clone();
                b.resize(buckets, 0.0);
                b
            }
            _ => vec![0.0; buckets],
        };
        self.states.push(SeriesState {
            rule_idx,
            series: series.clone(),
            data: SeriesData::Dist {
                last: vec![0; buckets],
                windows: (0..buckets)
                    .map(|_| RateWindow::new(GRANULARITY, span))
                    .collect(),
                baseline,
            },
            status: Status::Idle,
            cooldown_until: SimTime::ZERO,
        });
        self.states.len() - 1
    }

    fn update_rate(&mut self, state_idx: usize, now: SimTime, value: f64) {
        if let SeriesData::Rate { last, window } = &mut self.states[state_idx].data {
            // Differentiate the cumulative series; clamp decreases to zero
            // (spend gauges only grow; a merged or re-registered counter
            // stepping backwards would otherwise inject a huge negative
            // rate sample). Resets are counted so operators can see when a
            // series' baseline was disturbed.
            if value < *last {
                self.counter_resets.inc();
            }
            let delta = (value - *last).max(0.0);
            *last = value;
            window.push(now, delta);
        }
    }

    /// Stores a level signal's current value without differentiation;
    /// `last` *is* the evaluated statistic for [`RuleKind::Level`].
    fn update_level(&mut self, state_idx: usize, now: SimTime, value: f64) {
        if let SeriesData::Rate { last, window } = &mut self.states[state_idx].data {
            *last = value;
            window.push(now, 0.0); // keep the window clock aligned
        }
    }

    fn update_dist(&mut self, state_idx: usize, now: SimTime, buckets: &[u64]) {
        let state = &mut self.states[state_idx];
        let learning = match &self.policy.rules[state.rule_idx].kind {
            RuleKind::Drift {
                baseline: DriftBaseline::Learned { until },
                ..
            } => now <= *until,
            _ => false,
        };
        if let SeriesData::Dist {
            last,
            windows,
            baseline,
        } = &mut state.data
        {
            for i in 0..last.len().min(buckets.len()) {
                let delta = buckets[i].saturating_sub(last[i]) as f64;
                last[i] = buckets[i];
                if learning {
                    baseline[i] += delta;
                } else {
                    windows[i].push(now, delta);
                }
            }
            if !learning {
                // Keep every per-bucket window aligned on the same clock so
                // eviction is uniform even for quiet buckets.
                for w in windows.iter_mut() {
                    w.push(now, 0.0);
                }
            }
        }
    }

    /// Evaluates one state's rule condition and advances its lifecycle.
    fn evaluate(&mut self, state_idx: usize, now: SimTime) {
        self.evaluations.inc();
        let started = self.started.unwrap_or(now);
        let rule = &self.policy.rules[self.states[state_idx].rule_idx];
        let (condition, value, threshold) = match (&rule.kind, &self.states[state_idx].data) {
            (
                RuleKind::Threshold {
                    window, min_value, ..
                },
                SeriesData::Rate { window: w, .. },
            ) => {
                let from = now.saturating_add(SimDuration::ZERO - *window);
                let cur = w.total_between(from, SimTime::MAX);
                (cur >= *min_value, cur, *min_value)
            }
            (
                RuleKind::Surge {
                    current_window,
                    baseline_window,
                    factor,
                    min_count,
                    floor_per_hour,
                    ..
                },
                SeriesData::Rate { window: w, .. },
            ) => {
                let cur_from = now.saturating_add(SimDuration::ZERO - *current_window);
                let base_from = cur_from.saturating_add(SimDuration::ZERO - *baseline_window);
                let cur = w.total_between(cur_from, SimTime::MAX);
                let base = w.total_between(base_from, cur_from);
                // Baseline coverage: how long we have actually been watching
                // the world before the current window (a lazily-created
                // series was simply at zero — the sentinel's own start is
                // the origin).
                let coverage = cur_from.saturating_since(started.max(base_from));
                if coverage < *current_window {
                    (false, 0.0, *factor)
                } else {
                    let cur_rate = cur / current_window.as_hours_f64();
                    let base_rate = base / coverage.as_hours_f64();
                    let ratio = cur_rate / base_rate.max(*floor_per_hour);
                    (cur >= *min_count && ratio >= *factor, ratio, *factor)
                }
            }
            (RuleKind::Level { min_value }, SeriesData::Rate { last, .. }) => {
                (*last >= *min_value, *last, *min_value)
            }
            (
                RuleKind::Drift {
                    min_samples,
                    baseline: baseline_kind,
                    stat,
                    threshold,
                    ..
                },
                SeriesData::Dist {
                    windows, baseline, ..
                },
            ) => {
                let learning = match baseline_kind {
                    DriftBaseline::Learned { until } => now <= *until,
                    DriftBaseline::Static(_) => false,
                };
                let obs: Vec<f64> = windows.iter().map(|w| w.total()).collect();
                let n: f64 = obs.iter().sum();
                let base_total: f64 = baseline.iter().sum();
                if learning || n < *min_samples as f64 || base_total <= 0.0 {
                    (false, 0.0, *threshold)
                } else {
                    let p: Vec<f64> = obs.iter().map(|o| o / n).collect();
                    let q: Vec<f64> = baseline.iter().map(|b| b / base_total).collect();
                    let score = match stat {
                        DriftStat::ChiSquarePerSample => chi_square_per_sample(&p, &q),
                        DriftStat::JsDivergence => js_divergence(&p, &q),
                    };
                    (score >= *threshold, score, *threshold)
                }
            }
            // Selector/kind mismatches (a drift rule somehow bound to rate
            // state) cannot occur by construction.
            _ => (false, 0.0, 0.0),
        };
        let (for_duration, cooldown, rule_id) = (rule.for_duration, rule.cooldown, rule.id.clone());
        let state = &mut self.states[state_idx];
        let mut emit: Option<AlertTransition> = None;
        match state.status {
            Status::Idle => {
                if condition && now >= state.cooldown_until {
                    if for_duration == SimDuration::ZERO {
                        state.status = Status::Firing;
                        emit = Some(AlertTransition::Firing);
                    } else {
                        state.status = Status::Pending { since: now };
                        emit = Some(AlertTransition::Pending);
                    }
                }
            }
            Status::Pending { since } => {
                if !condition {
                    state.status = Status::Idle;
                    emit = Some(AlertTransition::Cancelled);
                } else if now.saturating_since(since) >= for_duration {
                    state.status = Status::Firing;
                    emit = Some(AlertTransition::Firing);
                }
            }
            Status::Firing => {
                if !condition {
                    state.status = Status::Idle;
                    state.cooldown_until = now.saturating_add(cooldown);
                    emit = Some(AlertTransition::Resolved);
                }
            }
        }
        if let Some(event) = emit {
            self.transitions[event as usize].inc();
            self.events.push(AlertEvent {
                at: now,
                rule: rule_id,
                series: state.series.to_string(),
                event,
                value,
                threshold,
            });
        }
    }
}

/// `Σ (p_i − q_i)² / q_i` with the baseline floored at 1e-3 per bucket so a
/// bucket the baseline considers impossible contributes a large-but-finite
/// term.
fn chi_square_per_sample(p: &[f64], q: &[f64]) -> f64 {
    p.iter()
        .zip(q)
        .map(|(&pi, &qi)| {
            let d = pi - qi;
            d * d / qi.max(1e-3)
        })
        .sum()
}

/// Jensen–Shannon divergence in bits (`0log0 = 0`), bounded to `[0, 1]`.
fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    fn kl(a: &[f64], m: &[f64]) -> f64 {
        a.iter()
            .zip(m)
            .map(|(&ai, &mi)| {
                if ai > 0.0 && mi > 0.0 {
                    ai * (ai / mi).log2()
                } else {
                    0.0
                }
            })
            .sum()
    }
    let m: Vec<f64> = p.iter().zip(q).map(|(&pi, &qi)| 0.5 * (pi + qi)).collect();
    0.5 * kl(p, &m) + 0.5 * kl(q, &m)
}

/// The serialisable outcome of one sentinel run: the deployed policy, every
/// lifecycle transition, time-to-detection, and the correlated incident.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SentinelReport {
    /// The policy that was enforced (self-documenting artifact).
    pub policy: AlertPolicy,
    /// Snapshot observations performed (one per housekeeping tick).
    pub observations: u64,
    /// Rule-series evaluations performed.
    pub evaluations: u64,
    /// Every lifecycle transition, in occurrence order.
    pub events: Vec<AlertEvent>,
    /// Alerts still firing at the horizon.
    pub active_at_end: u64,
    /// Sim-time of the first firing alert.
    pub first_firing: Option<SimTime>,
    /// `first_firing − attack_start`: the headline metric. `None` when the
    /// policy declares no campaign or nothing fired.
    pub time_to_detection: Option<SimDuration>,
    /// The correlated incident timeline.
    pub incident: Incident,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{AlertRule, MetricSelector};
    use fg_telemetry::Telemetry;

    fn empty_audit() -> AuditSnapshot {
        AuditSnapshot {
            recorded: 0,
            evicted: 0,
            decision_totals: Vec::new(),
            records: Vec::new(),
        }
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter("fg_requests_total");
        let policy = AlertPolicy::named("t").rule(AlertRule::threshold(
            "req-vol",
            MetricSelector::any("fg_requests_total"),
            SimDuration::from_hours(1),
            10.0,
        ));
        let mut s = Sentinel::new(policy, registry);
        s.observe(SimTime::ZERO, &registry.snapshot());
        c.add(20);
        s.observe(SimTime::from_mins(5), &registry.snapshot());
        assert_eq!(s.first_firing(), Some(SimTime::from_mins(5)));
        // No further traffic: an hour later the window drains and the alert
        // resolves.
        s.observe(SimTime::from_mins(90), &registry.snapshot());
        let kinds: Vec<AlertTransition> = s.events().iter().map(|e| e.event).collect();
        assert_eq!(
            kinds,
            vec![AlertTransition::Firing, AlertTransition::Resolved]
        );
    }

    #[test]
    fn for_duration_debounces_blips() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter("fg_requests_total");
        let policy = AlertPolicy::named("t").rule(
            AlertRule::threshold(
                "req-vol",
                MetricSelector::any("fg_requests_total"),
                SimDuration::from_mins(10),
                5.0,
            )
            .hold_for(SimDuration::from_mins(10)),
        );
        let mut s = Sentinel::new(policy, registry);
        c.add(6);
        s.observe(SimTime::from_mins(5), &registry.snapshot());
        // Blip: condition clears before the debounce elapses.
        s.observe(SimTime::from_mins(20), &registry.snapshot());
        let kinds: Vec<AlertTransition> = s.events().iter().map(|e| e.event).collect();
        assert_eq!(
            kinds,
            vec![AlertTransition::Pending, AlertTransition::Cancelled],
            "a blip never fires"
        );
        // Sustained load escalates to firing after the hold.
        c.add(6);
        s.observe(SimTime::from_mins(25), &registry.snapshot());
        c.add(6);
        s.observe(SimTime::from_mins(30), &registry.snapshot());
        c.add(6);
        s.observe(SimTime::from_mins(35), &registry.snapshot());
        assert_eq!(s.first_firing(), Some(SimTime::from_mins(35)));
    }

    #[test]
    fn level_rule_tracks_the_instantaneous_gauge() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let g = registry.gauge_with("fg_http_request_p99_seconds", &[("endpoint", "decide")]);
        let policy = AlertPolicy::named("t").rule(AlertRule::level(
            "p99-slo",
            MetricSelector::any("fg_http_request_p99_seconds"),
            0.25,
        ));
        let mut s = Sentinel::new(policy, registry);
        g.set(0.01);
        s.observe(SimTime::from_mins(5), &registry.snapshot());
        assert!(s.first_firing().is_none(), "under the SLO, no alert");
        g.set(0.40);
        s.observe(SimTime::from_mins(10), &registry.snapshot());
        assert_eq!(s.first_firing(), Some(SimTime::from_mins(10)));
        // A level rule reads the gauge, not a delta: dropping back under the
        // threshold resolves even though the cumulative "rate" never drained.
        g.set(0.05);
        s.observe(SimTime::from_mins(15), &registry.snapshot());
        let kinds: Vec<AlertTransition> = s.events().iter().map(|e| e.event).collect();
        assert_eq!(
            kinds,
            vec![AlertTransition::Firing, AlertTransition::Resolved]
        );
    }

    #[test]
    fn surge_rule_needs_baseline_coverage() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter_with("fg_sms_sent_total", &[("country", "UZ")]);
        let policy = AlertPolicy::named("t").rule(AlertRule::surge(
            "sms-surge",
            MetricSelector::any("fg_sms_sent_total"),
            SimDuration::from_hours(1),
            SimDuration::from_days(7),
            8.0,
            10.0,
        ));
        let mut s = Sentinel::new(policy, registry);
        s.observe(SimTime::ZERO, &registry.snapshot());
        // A burst right at sim start cannot fire: no baseline coverage yet.
        c.add(100);
        s.observe(SimTime::from_mins(30), &registry.snapshot());
        assert!(s.first_firing().is_none(), "no baseline, no alert");
        // A quiet day later, the same burst trips the (floored) baseline.
        s.observe(SimTime::from_days(1), &registry.snapshot());
        c.add(100);
        s.observe(
            SimTime::from_days(1) + SimDuration::from_mins(30),
            &registry.snapshot(),
        );
        assert_eq!(
            s.first_firing(),
            Some(SimTime::from_days(1) + SimDuration::from_mins(30))
        );
        let e = &s.events()[0];
        assert!(e.value >= e.threshold);
        assert_eq!(e.series, "fg_sms_sent_total{country=\"UZ\"}");
    }

    #[test]
    fn drift_rule_detects_distribution_shift() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let h = registry.histogram(
            "fg_nip_hold",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        // Baseline: overwhelmingly small parties.
        let baseline = vec![52.0, 30.0, 7.0, 5.0, 2.5, 1.5, 1.0, 0.6, 0.4];
        let policy = AlertPolicy::named("t").rule(AlertRule::drift(
            "nip-drift",
            MetricSelector::any("fg_nip_hold"),
            SimDuration::from_hours(6),
            40,
            DriftBaseline::Static(baseline),
            DriftStat::ChiSquarePerSample,
            0.5,
        ));
        let mut s = Sentinel::new(policy, registry);
        s.observe(SimTime::ZERO, &registry.snapshot());
        // Legit-looking traffic: no alert.
        for _ in 0..30 {
            h.record(1.0);
        }
        for _ in 0..15 {
            h.record(2.0);
        }
        for _ in 0..5 {
            h.record(3.0);
        }
        s.observe(SimTime::from_mins(30), &registry.snapshot());
        assert!(s.first_firing().is_none(), "legit mix matches baseline");
        // A NiP-6 flood drags the distribution off the baseline.
        for _ in 0..80 {
            h.record(6.0);
        }
        s.observe(SimTime::from_mins(60), &registry.snapshot());
        assert_eq!(s.first_firing(), Some(SimTime::from_mins(60)));
    }

    #[test]
    fn learned_baseline_is_inert_until_frozen() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let h = registry.histogram("fg_nip_hold", &[1.0, 2.0, 3.0]);
        let policy = AlertPolicy::named("t").rule(AlertRule::drift(
            "nip-drift",
            MetricSelector::any("fg_nip_hold"),
            SimDuration::from_hours(6),
            20,
            DriftBaseline::Learned {
                until: SimTime::from_days(1),
            },
            DriftStat::JsDivergence,
            0.2,
        ));
        let mut s = Sentinel::new(policy, registry);
        // Learning phase: all NiP-1.
        for _ in 0..100 {
            h.record(1.0);
        }
        s.observe(SimTime::from_hours(12), &registry.snapshot());
        // Even a wild mix during learning never alerts.
        for _ in 0..100 {
            h.record(3.0);
        }
        s.observe(SimTime::from_hours(20), &registry.snapshot());
        assert!(s.first_firing().is_none(), "inert while learning");
        // After the freeze the same shift fires. (The learning-phase mix,
        // including the wild tail, *is* the learned baseline.)
        for _ in 0..200 {
            h.record(2.0);
        }
        s.observe(
            SimTime::from_days(1) + SimDuration::from_hours(1),
            &registry.snapshot(),
        );
        assert!(s.first_firing().is_some(), "fires once frozen");
    }

    #[test]
    fn cooldown_suppresses_refiring() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter("fg_requests_total");
        let policy = AlertPolicy::named("t").rule(
            AlertRule::threshold(
                "req-vol",
                MetricSelector::any("fg_requests_total"),
                SimDuration::from_mins(10),
                5.0,
            )
            .with_cooldown(SimDuration::from_hours(2)),
        );
        let mut s = Sentinel::new(policy, registry);
        c.add(10);
        s.observe(SimTime::from_mins(5), &registry.snapshot());
        s.observe(SimTime::from_mins(30), &registry.snapshot()); // resolves
        c.add(10);
        s.observe(SimTime::from_mins(40), &registry.snapshot());
        let kinds: Vec<AlertTransition> = s.events().iter().map(|e| e.event).collect();
        assert_eq!(
            kinds,
            vec![AlertTransition::Firing, AlertTransition::Resolved],
            "within cooldown the second burst stays silent"
        );
        // Past the cooldown it may fire again.
        c.add(10);
        s.observe(SimTime::from_hours(3), &registry.snapshot());
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.events()[2].event, AlertTransition::Firing);
    }

    #[test]
    fn transitions_are_telemetry_backed() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter("fg_requests_total");
        let policy = AlertPolicy::named("t").rule(AlertRule::threshold(
            "req-vol",
            MetricSelector::any("fg_requests_total"),
            SimDuration::from_mins(10),
            5.0,
        ));
        let mut s = Sentinel::new(policy, registry);
        c.add(10);
        s.observe(SimTime::from_mins(5), &registry.snapshot());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("fg_sentinel_alerts_total", &[("event", "firing")]),
            Some(1)
        );
        assert_eq!(
            snap.gauge_value("fg_sentinel_active_alerts", &[]),
            Some(1.0)
        );
        assert!(
            snap.counter_value("fg_sentinel_evaluations_total", &[])
                .unwrap()
                > 0
        );
    }

    #[test]
    fn counter_reset_clamps_to_zero_and_is_counted() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let g = registry.gauge("fg_sms_owner_cost_units");
        // High min_spend: the test is about differentiation, not firing.
        let policy = AlertPolicy::named("t").rule(AlertRule::burn_rate(
            "burn",
            SimDuration::from_mins(10),
            SimDuration::from_hours(2),
            3.0,
            1e9,
        ));
        let mut s = Sentinel::new(policy, registry);
        g.set(10.0);
        s.observe(SimTime::from_mins(1), &registry.snapshot());
        assert_eq!(
            registry
                .snapshot()
                .counter_value("fg_sentinel_counter_reset_total", &[]),
            Some(0),
            "monotone series: no reset yet"
        );
        // A merged or re-registered cumulative series steps backwards.
        g.set(3.0);
        s.observe(SimTime::from_mins(2), &registry.snapshot());
        assert_eq!(
            registry
                .snapshot()
                .counter_value("fg_sentinel_counter_reset_total", &[]),
            Some(1),
            "the backwards step is counted"
        );
        // Differentiation resumes from the new baseline: a forward step
        // after the reset is a normal positive delta, not another reset.
        g.set(4.0);
        s.observe(SimTime::from_mins(3), &registry.snapshot());
        assert_eq!(
            registry
                .snapshot()
                .counter_value("fg_sentinel_counter_reset_total", &[]),
            Some(1)
        );
        assert!(
            s.events().is_empty(),
            "clamped reset must not fire any alert"
        );
    }

    #[test]
    fn report_measures_time_to_detection() {
        let telemetry = Telemetry::new();
        let registry = telemetry.metrics();
        let c = registry.counter("fg_requests_total");
        let policy = AlertPolicy::named("t")
            .rule(AlertRule::threshold(
                "req-vol",
                MetricSelector::any("fg_requests_total"),
                SimDuration::from_mins(10),
                5.0,
            ))
            .campaign(SimTime::from_hours(1), 1);
        let mut s = Sentinel::new(policy, registry);
        s.observe(SimTime::from_hours(1), &registry.snapshot());
        c.add(10);
        s.observe(
            SimTime::from_hours(1) + SimDuration::from_mins(5),
            &registry.snapshot(),
        );
        let report = s.report_with_traces(SimTime::from_hours(2), &empty_audit(), None);
        assert_eq!(
            report.time_to_detection,
            Some(SimDuration::from_mins(5)),
            "TTD = first firing − attack start"
        );
        assert_eq!(report.active_at_end, 1);
        assert!(!report.incident.entries.is_empty());
    }
}
