//! **§IV-A in-text** — the fingerprint-rotation arms race.
//!
//! The security team reviews hourly and deploys block rules against
//! hold-heavy, never-paying fingerprints; the attacker reacts to each block
//! by presenting a fresh identity after its reaction delay — "typically
//! rotating their technical features within an average of 5.3 hours" of each
//! new rule. The experiment measures: (1) the mean rule-to-rotation delay,
//! (2) the attack's persistence past the NiP cap, and (3) the endgame —
//! holding ceases two days before departure.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use crate::monitor::HoldMonitor;
use crate::team::TeamConfig;
use fg_behavior::{LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::{SimDuration, SimTime};
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, DriftStat, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Case A configuration.
#[derive(Clone, Debug)]
pub struct CaseAConfig {
    /// Master seed.
    pub seed: u64,
    /// Departure day of the target flight.
    pub departure_day: u64,
    /// The attacker's reaction delay from block to new identity.
    pub reaction_hours: f64,
    /// Day on which the NiP cap (4) is introduced.
    pub cap_day: u64,
    /// Legitimate bookers per day.
    pub arrivals_per_day: f64,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for CaseAConfig {
    fn default() -> Self {
        CaseAConfig {
            seed: 0xCA5EA,
            departure_day: 14,
            reaction_hours: 5.3,
            cap_day: 4,
            arrivals_per_day: 300.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: a shorter booking window, lighter traffic.
pub fn smoke_config() -> CaseAConfig {
    CaseAConfig {
        departure_day: 6,
        cap_day: 2,
        arrivals_per_day: 60.0,
        ..CaseAConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_core::time::SimDuration;
    use fg_mitigation::profile::DefenceProfile;
    let config = CaseAConfig::default();
    // The spinner holds 12 seats and re-places each as its 30-minute TTL
    // expires (576 holds/day against the target flight).
    vec![
        DefenceProfile::airline("traditional+nip-cap", PolicyConfig::traditional_antibot())
            .horizon(SimDuration::from_days(config.departure_day as i64))
            .max_nip(4)
            .holds(config.arrivals_per_day, 576.0)
            .expected_bookings((config.arrivals_per_day * config.departure_day as f64) as u64)
            .waive(
                "unguarded-channel",
                "era posture under study: Case A's airline had no hold limiter, which is the point",
            ),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the NiP distribution of successful holds drifting away from the airline's
/// known average-week shape (the attack starts at `t = 0`, so there is no
/// clean week to learn a baseline from).
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("case-a-nip-drift")
        .rule(AlertRule::drift(
            "nip-distribution-drift",
            MetricSelector::exact("fg_nip_hold", &[]),
            SimDuration::from_hours(6),
            40,
            super::nip_baseline(),
            DriftStat::ChiSquarePerSample,
            0.5,
        ))
        .campaign(SimTime::ZERO, 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "case_a",
        default_seed: CaseAConfig::default().seed,
        telemetry_capable: true,
        run: |p| {
            let mut config = p.base_config(smoke_config);
            config.seed = p.seed;
            config.concurrency = p.concurrency();
            crate::harness::CellOutput::of(run_observed(config, p.telemetry.clone()))
        },
        profiles: defence_profiles,
        alerts: alert_policy,
    }
}

/// The Case A report.
#[derive(Clone, Debug, Serialize)]
pub struct CaseAReport {
    /// Mean hours from a block-rule deployment to the attacker's next
    /// rotation (the paper's 5.3 h statistic).
    pub mean_rule_to_rotation_hours: Option<f64>,
    /// Fingerprint rotations the attacker performed.
    pub rotations: u64,
    /// Block rules the team deployed.
    pub rules_deployed: usize,
    /// The attacker's NiP before the cap.
    pub nip_before_cap: u32,
    /// The attacker's NiP after the cap (persistence at the cap).
    pub nip_after_cap: u32,
    /// When holding activity ceased.
    pub attack_stopped_at_day: f64,
    /// Departure day (for the "two days before" check).
    pub departure_day: f64,
    /// Mean fraction of the target flight locked in holds while the attack
    /// ran.
    pub mean_hold_ratio_during_attack: f64,
    /// Requests the policy engine hard-blocked over the whole run.
    pub blocked_requests: u64,
}

impl fmt::Display for CaseAReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Case A — Seat Spinning arms race (Airline A)")?;
        writeln!(
            f,
            "  rules deployed: {}; attacker rotations: {}",
            self.rules_deployed, self.rotations
        )?;
        match self.mean_rule_to_rotation_hours {
            Some(h) => writeln!(f, "  mean rule→rotation delay: {h:.1} h (paper: 5.3 h)")?,
            None => writeln!(f, "  mean rule→rotation delay: n/a (no rotations)")?,
        }
        writeln!(
            f,
            "  NiP before cap: {}; after cap: {} (attack persists at the cap)",
            self.nip_before_cap, self.nip_after_cap
        )?;
        writeln!(
            f,
            "  attack stopped day {:.1}; departure day {:.0} (stop margin {:.1} d)",
            self.attack_stopped_at_day,
            self.departure_day,
            self.departure_day - self.attack_stopped_at_day
        )?;
        writeln!(
            f,
            "  mean hold ratio on target flight during attack: {:.1}%",
            self.mean_hold_ratio_during_attack * 100.0
        )?;
        writeln!(f, "  requests hard-blocked: {}", self.blocked_requests)
    }
}

/// Runs the Case A scenario.
pub fn run(config: CaseAConfig) -> CaseAReport {
    run_observed(config, Telemetry::shared()).0
}

/// Runs the Case A scenario with the app reporting into `telemetry` and the
/// sentinel attached, so callers can export metrics, the decision audit
/// trail, per-stage latency profiles and, when the hub traces, the span
/// export for the run. Observation is read-only, so the report is
/// identical to [`run`]'s.
pub fn run_observed(
    config: CaseAConfig,
    telemetry: Arc<Telemetry>,
) -> (CaseAReport, SentinelReport) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let departure = SimTime::from_days(config.departure_day);
    let end = departure;

    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(PolicyConfig::traditional_antibot())
            .with_concurrency(config.concurrency),
        config.seed,
        telemetry,
    );
    app.attach_sentinel(alert_policy());
    let target = FlightId(1);
    app.add_flight(Flight::new(target, 180, departure));
    // Background flights so the legit population has somewhere to book.
    for f in 2..=4 {
        app.add_flight(Flight::new(
            FlightId(f),
            (config.arrivals_per_day * config.departure_day as f64) as u32,
            SimTime::from_days(config.departure_day + 20),
        ));
    }

    let mut sim = Simulation::new(app, fork.seed("sim"));
    sim.with_team(
        TeamConfig {
            window: SimDuration::from_hours(6),
            hold_threshold: 6,
            use_name_heuristics: true,
            report_ips_only: false,
        },
        SimDuration::from_hours(1),
        SimTime::from_hours(1),
    );

    let flights: Vec<FlightId> = (1..=4).map(FlightId).collect();
    let mut legit_cfg = LegitConfig::default_airline(flights, end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut spinner_cfg = SeatSpinnerConfig::airline_a(target);
    spinner_cfg.rotation_schedule = fg_fingerprint::rotation::RotationSchedule::OnBlock {
        reaction: SimDuration::from_hours_f64(config.reaction_hours),
    };
    let mut spinner_rng = fork.rng("spinner");
    let (spinner, spinner_agent) = share(SeatSpinner::new(
        spinner_cfg,
        ClientId(1),
        geo,
        &mut spinner_rng,
    ));
    sim.add_agent(spinner_agent, SimTime::ZERO);

    let (mon, mon_agent) = share(HoldMonitor::new(target, SimDuration::from_mins(30), end));
    sim.add_agent(mon_agent, SimTime::ZERO);

    // Record the attacker's NiP just before the cap lands, then cap.
    let cap_at = SimTime::from_days(config.cap_day);
    sim.schedule(cap_at, move |app, _now| {
        app.reservations_mut().set_max_nip(4);
    });

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let spinner = spinner.borrow();
    let stats = spinner.stats();

    // Mean rule→rotation delay: for each rule deployment, the first rotation
    // after it.
    let rotation_times = spinner.rotation_times();
    let mut deltas = Vec::new();
    for rule in app.policy().rules().stats() {
        if let Some(&rot) = rotation_times.iter().find(|&&t| t > rule.created_at) {
            deltas.push((rot - rule.created_at).as_hours_f64());
        }
    }
    // Rules come in pairs (identity + combo) per incident; deduplicate by
    // creation time.
    deltas.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mean_hold_ratio_during_attack = mon
        .borrow()
        .mean_hold_ratio_between(SimTime::ZERO, departure - SimDuration::from_days(2));
    let report = CaseAReport {
        mean_rule_to_rotation_hours: if deltas.is_empty() {
            None
        } else {
            Some(deltas.iter().sum::<f64>() / deltas.len() as f64)
        },
        rotations: rotation_times.len() as u64,
        rules_deployed: app.policy().rules().len(),
        nip_before_cap: 6,
        nip_after_cap: spinner.chosen_nip(),
        attack_stopped_at_day: stats.stopped_at.map_or(config.departure_day as f64, |t| {
            t.as_millis() as f64 / 86_400_000.0
        }),
        departure_day: config.departure_day as f64,
        mean_hold_ratio_during_attack,
        blocked_requests: app.policy().counts().block,
    };
    (report, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_arms_race() {
        let report = run(CaseAConfig::default());

        // The team deployed rules and the attacker rotated in response.
        assert!(report.rules_deployed >= 2, "{report}");
        assert!(report.rotations >= 1, "{report}");

        // Rule→rotation delay ≈ the configured 5.3 h reaction.
        let mean = report
            .mean_rule_to_rotation_hours
            .expect("rotations happened");
        assert!(
            (4.0..8.0).contains(&mean),
            "mean rule→rotation {mean:.1} h, expected ≈5.3 h"
        );

        // Persistence at the cap.
        assert_eq!(report.nip_after_cap, 4, "{report}");

        // Endgame: stopped ≈ 2 days before departure.
        let margin = report.departure_day - report.attack_stopped_at_day;
        assert!(
            (1.8..2.5).contains(&margin),
            "stop margin {margin:.2} d, expected ≈2 d"
        );

        // The attack kept coming back after every block: seats were locked
        // whenever the current identity was unblocked. With a 5.3 h reaction
        // the duty cycle is low, but never zero until the endgame.
        assert!(
            report.mean_hold_ratio_during_attack > 0.005,
            "hold ratio {:.4}",
            report.mean_hold_ratio_during_attack
        );
    }

    #[test]
    fn faster_reaction_shortens_the_measured_delay() {
        let fast = run(CaseAConfig {
            reaction_hours: 1.0,
            seed: 0xCA5EB,
            ..CaseAConfig::default()
        });
        let slow = run(CaseAConfig::default());
        if let (Some(f), Some(s)) = (
            fast.mean_rule_to_rotation_hours,
            slow.mean_rule_to_rotation_hours,
        ) {
            assert!(f < s, "fast {f:.1} h vs slow {s:.1} h");
        }
    }

    #[test]
    fn report_renders() {
        let report = run(CaseAConfig::default());
        let s = report.to_string();
        assert!(s.contains("rule→rotation"));
        assert!(s.contains("stop margin"));
    }
}
