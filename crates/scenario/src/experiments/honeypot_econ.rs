//! **§V honeypot economics** — diversion vs hard blocking.
//!
//! §V's hypothesis: redirecting a confirmed DoI attacker into a decoy makes
//! it "waste resources believing to hold items in a false environment while
//! legitimate users remain unaffected. By keeping attackers engaged with a
//! controlled replica, their need to rotate fingerprints or adjust tactics
//! diminishes." The experiment runs the same seat spinner against the same
//! recommended stack twice — once blocking, once diverting — and compares
//! rotations, real inventory damage, absorbed effort, and money.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use crate::monitor::HoldMonitor;
use crate::team::TeamConfig;
use fg_behavior::{LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::money::Money;
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

/// Honeypot-economics configuration.
#[derive(Clone, Debug)]
pub struct HoneypotConfig {
    /// Master seed.
    pub seed: u64,
    /// Days simulated.
    pub days: u64,
    /// Legitimate bookers per day.
    pub arrivals_per_day: f64,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for HoneypotConfig {
    fn default() -> Self {
        HoneypotConfig {
            seed: 0x40E1,
            days: 7,
            arrivals_per_day: 200.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: two days, lighter traffic.
pub fn smoke_config() -> HoneypotConfig {
    HoneypotConfig {
        days: 2,
        arrivals_per_day: 50.0,
        ..HoneypotConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass: both arms share the deliberately opened hold path.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = HoneypotConfig::default();
    [false, true]
        .iter()
        .map(|&honeypot| {
            let mut policy = PolicyConfig::recommended();
            policy.honeypot_instead_of_block = honeypot;
            policy.gate.clear(fg_detection::log::Endpoint::Hold);
            policy.client_hold_limit = None;
            DefenceProfile::airline(if honeypot { "honeypot" } else { "blocking" }, policy)
                .horizon(fg_core::time::SimDuration::from_days(config.days as i64))
                .holds(config.arrivals_per_day, 576.0)
                .expected_bookings((config.arrivals_per_day * config.days as f64) as u64)
                .waive(
                    "unguarded-channel",
                    "the hold path is deliberately opened for both arms to measure decoy economics",
                )
        })
        .collect()
}

/// The alert policy the sentinel evaluates online during this experiment:
/// any honeypot diversion is direct evidence of a confirmed bot (legit users
/// never cross the diversion threshold), backed by NiP drift over the real
/// holds placed before the decoy swallows the attacker.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("honeypot-engagement")
        .rule(AlertRule::threshold(
            "honeypot-diversion",
            MetricSelector::exact("fg_honeypot_diversions_total", &[]),
            SimDuration::from_hours(24),
            1.0,
        ))
        .rule(AlertRule::drift(
            "nip-distribution-drift",
            MetricSelector::exact("fg_nip_hold", &[]),
            SimDuration::from_hours(12),
            25,
            super::nip_baseline(),
            DriftStat::ChiSquarePerSample,
            0.5,
        ))
        .campaign(SimTime::ZERO, 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "honeypot",
        default_seed: HoneypotConfig::default().seed,
        telemetry_capable: false,
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

/// Outcome of one arm (blocking or honeypot).
#[derive(Clone, Debug, Serialize)]
pub struct ArmOutcome {
    /// `true` for the honeypot arm.
    pub honeypot: bool,
    /// Fingerprint rotations the attacker performed.
    pub rotations: u64,
    /// Mean hold ratio on the real target flight during the attack.
    pub real_hold_ratio: f64,
    /// Fake holds the decoy absorbed (0 in the blocking arm).
    pub absorbed_holds: u64,
    /// The attacker's total spend (proxies and solver fees).
    pub attacker_spend: Money,
    /// Legit bookers denied by sold-out/held stock.
    pub legit_denied_by_stock: u64,
}

/// The honeypot-economics report.
#[derive(Clone, Debug, Serialize)]
pub struct HoneypotReport {
    /// The blocking arm.
    pub blocking: ArmOutcome,
    /// The honeypot arm.
    pub honeypot: ArmOutcome,
}

impl fmt::Display for HoneypotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Honeypot economics — blocking vs diversion (same attacker)"
        )?;
        let row = |o: &ArmOutcome| {
            vec![
                if o.honeypot { "honeypot" } else { "blocking" }.to_owned(),
                o.rotations.to_string(),
                format!("{:.1}%", o.real_hold_ratio * 100.0),
                o.absorbed_holds.to_string(),
                o.attacker_spend.to_string(),
                o.legit_denied_by_stock.to_string(),
            ]
        };
        write!(
            f,
            "{}",
            crate::report::render_table(
                &[
                    "Arm",
                    "Rotations",
                    "Real hold ratio",
                    "Absorbed holds",
                    "Attacker spend",
                    "Legit denied",
                ],
                &[row(&self.blocking), row(&self.honeypot)]
            )
        )
    }
}

fn run_arm(
    config: &HoneypotConfig,
    honeypot: bool,
    telemetry: Arc<Telemetry>,
) -> (ArmOutcome, SentinelReport) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(config.days);

    let mut policy = PolicyConfig::recommended();
    policy.honeypot_instead_of_block = honeypot;
    // The recommended trust gate would stop the anonymous bot outright and
    // hide the dynamics under study; open the hold endpoint for both arms.
    policy.gate.clear(fg_detection::log::Endpoint::Hold);
    policy.client_hold_limit = None;

    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(policy).with_concurrency(config.concurrency),
        fork.seed("app"),
        telemetry,
    );
    app.attach_sentinel(alert_policy());
    let target = FlightId(1);
    app.add_flight(Flight::new(
        target,
        180,
        SimTime::from_days(config.days + 3),
    ));
    app.add_flight(Flight::new(
        FlightId(2),
        (config.arrivals_per_day * config.days as f64 * 2.0) as u32,
        SimTime::from_days(40),
    ));

    let mut sim = Simulation::new(app, fork.seed("sim"));
    sim.with_team(
        TeamConfig::default(),
        SimDuration::from_hours(2),
        SimTime::from_hours(2),
    );

    let mut legit_cfg = LegitConfig::default_airline(vec![target, FlightId(2)], end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let (mon, mon_agent) = share(HoldMonitor::new(target, SimDuration::from_mins(30), end));
    sim.add_agent(mon_agent, SimTime::ZERO);

    let mut spinner_rng = fork.rng("spinner");
    let mut spinner_cfg = SeatSpinnerConfig::airline_a(target);
    spinner_cfg.rotation_schedule = fg_fingerprint::rotation::RotationSchedule::OnBlock {
        reaction: SimDuration::from_hours(2),
    };
    let (spinner, spinner_agent) = share(SeatSpinner::new(
        spinner_cfg,
        ClientId(1),
        geo,
        &mut spinner_rng,
    ));
    sim.add_agent(spinner_agent, SimTime::ZERO);

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let spinner = spinner.borrow();
    let ledger = spinner.ledger();
    let real_hold_ratio = mon
        .borrow()
        .mean_hold_ratio_between(SimTime::from_hours(12), end);
    let legit_denied_by_stock = legit.borrow().stats().denied_by_stock;
    let outcome = ArmOutcome {
        honeypot,
        rotations: spinner.rotation_times().len() as u64,
        real_hold_ratio,
        absorbed_holds: app.core().honeypot().stats().holds_absorbed,
        attacker_spend: ledger.total_cost() + app.solver_spend(ClientId(1)),
        legit_denied_by_stock,
    };
    (outcome, alerts)
}

/// Runs both arms.
pub fn run(config: HoneypotConfig) -> HoneypotReport {
    run_observed(config, Telemetry::shared()).0
}

/// Runs both arms, also returning the sentinel outcome for the honeypot
/// arm — the cell where mitigation engagement (diversion) is itself the
/// alertable event. That arm reports into `telemetry`, the blocking arm
/// into a hub of its own. Observation is read-only, so the report is
/// identical to [`run`]'s.
pub fn run_observed(
    config: HoneypotConfig,
    telemetry: Arc<Telemetry>,
) -> (HoneypotReport, SentinelReport) {
    let (blocking, _) = run_arm(&config, false, Telemetry::shared());
    let (honeypot, alerts) = run_arm(&config, true, telemetry);
    (HoneypotReport { blocking, honeypot }, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HoneypotReport {
        run(HoneypotConfig {
            days: 5,
            arrivals_per_day: 120.0,
            ..HoneypotConfig::default()
        })
    }

    #[test]
    fn diversion_pacifies_rotation() {
        let r = report();
        // Blocking provokes the arms race; the decoy never tells the
        // attacker anything is wrong.
        assert!(
            r.honeypot.rotations < r.blocking.rotations,
            "honeypot {} rotations vs blocking {}",
            r.honeypot.rotations,
            r.blocking.rotations
        );
        assert!(r.blocking.rotations >= 1, "{r}");
    }

    #[test]
    fn decoy_absorbs_holds_and_protects_inventory() {
        let r = report();
        assert_eq!(r.blocking.absorbed_holds, 0);
        assert!(r.honeypot.absorbed_holds > 10, "{r}");
        assert!(
            r.honeypot.real_hold_ratio < 0.2,
            "real inventory protected: {:.3}",
            r.honeypot.real_hold_ratio
        );
    }

    #[test]
    fn attacker_keeps_spending_inside_the_decoy() {
        let r = report();
        assert!(r.honeypot.attacker_spend > Money::ZERO);
    }

    #[test]
    fn report_renders() {
        let s = report().to_string();
        assert!(s.contains("honeypot"));
        assert!(s.contains("Rotations"));
    }
}
