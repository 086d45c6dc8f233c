//! **§V mitigation ablation** — the defensive-posture grid.
//!
//! Every §V mitigation family (none / traditional anti-bot / the paper's
//! recommended stack, with honeypot or hard blocking) faces both attack
//! classes. Each cell reports the attack's residual effect, the legitimate
//! population's friction, and both sides' money — the quantities §V's
//! usability-vs-security and economics arguments are about.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use crate::monitor::HoldMonitor;
use crate::team::TeamConfig;
use fg_behavior::{
    LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig, SmsPumper, SmsPumperConfig,
};
use fg_core::ids::{ClientId, FlightId};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::{SimDuration, SimTime};
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// The defensive postures compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Posture {
    /// No defence at all.
    Unprotected,
    /// Fingerprint/behaviour thresholds + coarse path limit; hard blocks.
    Traditional,
    /// The full §V stack, diverting confirmed bots to the honeypot.
    RecommendedHoneypot,
    /// The full §V stack with hard blocking instead of diversion.
    RecommendedBlocking,
}

impl Posture {
    /// All postures, report order.
    pub const ALL: [Posture; 4] = [
        Posture::Unprotected,
        Posture::Traditional,
        Posture::RecommendedHoneypot,
        Posture::RecommendedBlocking,
    ];

    fn policy(self) -> PolicyConfig {
        match self {
            Posture::Unprotected => PolicyConfig::unprotected(),
            Posture::Traditional => PolicyConfig::traditional_antibot(),
            Posture::RecommendedHoneypot => PolicyConfig::recommended(),
            Posture::RecommendedBlocking => {
                let mut p = PolicyConfig::recommended();
                p.honeypot_instead_of_block = false;
                p
            }
        }
    }
}

impl fmt::Display for Posture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Posture::Unprotected => "unprotected",
            Posture::Traditional => "traditional",
            Posture::RecommendedHoneypot => "recommended+honeypot",
            Posture::RecommendedBlocking => "recommended+blocking",
        };
        f.write_str(s)
    }
}

/// Which attack runs in a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AttackKind {
    /// The §IV-A seat spinner.
    SeatSpinning,
    /// The §IV-C SMS pumper.
    SmsPumping,
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackKind::SeatSpinning => "seat-spinning",
            AttackKind::SmsPumping => "sms-pumping",
        })
    }
}

/// Ablation configuration.
#[derive(Clone, Debug)]
pub struct AblationConfig {
    /// Master seed.
    pub seed: u64,
    /// Days simulated per cell (attack runs from day 1).
    pub days: u64,
    /// Legitimate bookers per day.
    pub arrivals_per_day: f64,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            seed: 0xAB1A,
            days: 7,
            arrivals_per_day: 250.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: the full posture × attack grid in seconds.
pub fn smoke_config() -> AblationConfig {
    AblationConfig {
        days: 2,
        arrivals_per_day: 40.0,
        ..AblationConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass: all four postures against the SMS-pump pressure they face.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = AblationConfig::default();
    let legit_sms_daily = config.arrivals_per_day * (0.35 + 0.45 * 0.72);
    Posture::ALL
        .iter()
        .map(|&posture| {
            let profile = DefenceProfile::airline(posture.to_string(), posture.policy())
                .horizon(fg_core::time::SimDuration::from_days(config.days as i64))
                .sms(legit_sms_daily, 200.0 * 24.0)
                .expected_bookings((config.arrivals_per_day * config.days as f64) as u64);
            if posture == Posture::Traditional {
                profile.waive(
                    "limiter-never-fires",
                    "the SIV-C finding reproduced: a 20 000/day path limit sized for volumetric bots never meets this pump",
                )
            } else {
                profile
            }
        })
        .collect()
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the loud 200 SMS/h pump lights up both the per-country surge rule and
/// the owner's spend burn rate within the first hours of day 1.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("ablation-sms-surge")
        .rule(AlertRule::surge(
            "sms-country-surge",
            MetricSelector::any("fg_sms_sent_total"),
            SimDuration::from_hours(1),
            SimDuration::from_days(1),
            8.0,
            10.0,
        ))
        .rule(AlertRule::burn_rate(
            "sms-burn-rate",
            SimDuration::from_hours(6),
            SimDuration::from_days(1),
            3.0,
            1.0,
        ))
        .campaign(SimTime::from_days(1), 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "ablation",
        default_seed: AblationConfig::default().seed,
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

/// One grid cell's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// The posture.
    pub posture: Posture,
    /// The attack.
    pub attack: AttackKind,
    /// Residual attack effect: mean target-flight hold ratio (DoI) or
    /// delivered attack SMS (pumping), normalized to the unprotected cell
    /// later by the caller; raw value here.
    pub attack_effect: f64,
    /// Legit bookers refused or abandoned due to the defence, as a fraction
    /// of arrivals.
    pub legit_friction: f64,
    /// Attacker profit (revenue − proxy/solver/ticket spend).
    pub attacker_profit: Money,
    /// Defender total loss (SMS + lost sales + friction + mitigation).
    pub defender_loss: Money,
}

/// The ablation report.
#[derive(Clone, Debug, Serialize)]
pub struct AblationReport {
    /// All cells, posture-major order.
    pub cells: Vec<Cell>,
}

impl AblationReport {
    /// The cell for a posture/attack pair.
    pub fn cell(&self, posture: Posture, attack: AttackKind) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.posture == posture && c.attack == attack)
            .expect("grid is complete")
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mitigation ablation — posture × attack grid")?;
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.posture.to_string(),
                    c.attack.to_string(),
                    format!("{:.3}", c.attack_effect),
                    format!("{:.2}%", c.legit_friction * 100.0),
                    c.attacker_profit.to_string(),
                    c.defender_loss.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::report::render_table(
                &[
                    "Posture",
                    "Attack",
                    "Attack effect",
                    "Legit friction",
                    "Attacker profit",
                    "Defender loss",
                ],
                &rows
            )
        )
    }
}

fn run_cell(
    config: &AblationConfig,
    posture: Posture,
    attack: AttackKind,
    telemetry: Arc<Telemetry>,
) -> (Cell, SentinelReport) {
    let fork = SeedFork::new(config.seed ^ (posture as u64) << 8 ^ attack as u64);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(config.days);

    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(posture.policy()).with_concurrency(config.concurrency),
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
    for f in 2..=3 {
        app.add_flight(Flight::new(
            FlightId(f),
            (config.arrivals_per_day * config.days as f64 * 2.0) as u32,
            SimTime::from_days(40),
        ));
    }

    let mut sim = Simulation::new(app, fork.seed("sim"));
    if posture != Posture::Unprotected {
        sim.with_team(
            TeamConfig::default(),
            SimDuration::from_hours(2),
            SimTime::from_hours(2),
        );
    }

    let flights: Vec<FlightId> = (1..=3).map(FlightId).collect();
    let mut legit_cfg = LegitConfig::default_airline(flights, end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let (mon, mon_agent) = share(HoldMonitor::new(target, SimDuration::from_mins(30), end));
    sim.add_agent(mon_agent, SimTime::ZERO);

    let attack_start = SimTime::from_days(1);
    let mut attacker_rng = fork.rng("attacker");
    let (spinner, pumper) = match attack {
        AttackKind::SeatSpinning => {
            let (h, agent) = share(SeatSpinner::new(
                SeatSpinnerConfig::airline_a(target),
                ClientId(1),
                geo.clone(),
                &mut attacker_rng,
            ));
            sim.add_agent(agent, attack_start);
            (Some(h), None)
        }
        AttackKind::SmsPumping => {
            let mut cfg = SmsPumperConfig::airline_d(target, end);
            cfg.sms_per_hour = 200.0;
            let rates = fg_smsgw::rates::RateTable::default_world();
            let (h, agent) = share(SmsPumper::new(
                cfg,
                ClientId(1),
                geo.clone(),
                &rates,
                &mut attacker_rng,
            ));
            sim.add_agent(agent, attack_start);
            (None, Some(h))
        }
    };

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let legit_stats = legit.borrow().stats();
    let friction = if legit_stats.arrivals == 0 {
        0.0
    } else {
        legit_stats.defence_friction as f64 / legit_stats.arrivals as f64
    };

    let (attack_effect, mut attacker_ledger) = match attack {
        AttackKind::SeatSpinning => {
            let spinner = spinner.expect("spinner ran").borrow().ledger();
            (
                mon.borrow().mean_hold_ratio_between(attack_start, end),
                spinner,
            )
        }
        AttackKind::SmsPumping => {
            let pumper = pumper.expect("pumper ran");
            let stats = pumper.borrow().stats();
            let mut ledger = pumper.borrow().ledger();
            ledger.sms_revenue = app.gateway().attacker_revenue();
            (stats.sms_sent as f64, ledger)
        }
    };
    attacker_ledger.solver_spend += app.solver_spend(ClientId(1));

    let mut defender = app.defender_ledger();
    // Lost sales: bookers denied by stock while the attack held inventory.
    defender.lost_sales = Money::from_units(120) * (legit_stats.denied_by_stock.min(10_000));

    let cell = Cell {
        posture,
        attack,
        attack_effect,
        legit_friction: friction,
        attacker_profit: attacker_ledger.profit(),
        defender_loss: defender.total_loss(),
    };
    (cell, alerts)
}

/// Runs the full grid.
pub fn run(config: AblationConfig) -> AblationReport {
    run_observed(config, Telemetry::shared()).0
}

/// Runs the full grid, also returning the sentinel outcome for the
/// unprotected SMS-pumping cell — the configuration with no defence at all,
/// where the online alert is the only thing that notices the attack. That
/// cell reports into `telemetry`, the others into hubs of their own.
/// Observation is read-only, so the report is identical to [`run`]'s.
pub fn run_observed(
    config: AblationConfig,
    telemetry: Arc<Telemetry>,
) -> (AblationReport, SentinelReport) {
    let mut cells = Vec::new();
    let mut designated = None;
    for posture in Posture::ALL {
        for attack in [AttackKind::SeatSpinning, AttackKind::SmsPumping] {
            let is_designated = posture == Posture::Unprotected && attack == AttackKind::SmsPumping;
            let hub = if is_designated {
                telemetry.clone()
            } else {
                Telemetry::shared()
            };
            let (cell, alerts) = run_cell(&config, posture, attack, hub);
            if is_designated {
                designated = Some(alerts);
            }
            cells.push(cell);
        }
    }
    let alerts = designated.expect("grid covers the unprotected pumping cell");
    (AblationReport { cells }, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AblationReport {
        run(AblationConfig {
            days: 5,
            arrivals_per_day: 150.0,
            ..AblationConfig::default()
        })
    }

    #[test]
    fn recommended_postures_blunt_both_attacks() {
        let r = report();

        // DoI: hold ratio under the recommended stack is far below the
        // unprotected cell.
        let open = r
            .cell(Posture::Unprotected, AttackKind::SeatSpinning)
            .attack_effect;
        let defended = r
            .cell(Posture::RecommendedHoneypot, AttackKind::SeatSpinning)
            .attack_effect;
        assert!(open > 0.25, "unprotected hold ratio {open:.3}");
        assert!(
            defended < open / 2.0,
            "defended hold ratio {defended:.3} vs open {open:.3}"
        );

        // Pumping: delivered SMS collapse under the recommended stack.
        let open_sms = r
            .cell(Posture::Unprotected, AttackKind::SmsPumping)
            .attack_effect;
        let defended_sms = r
            .cell(Posture::RecommendedHoneypot, AttackKind::SmsPumping)
            .attack_effect;
        assert!(
            defended_sms < open_sms / 4.0,
            "defended SMS {defended_sms} vs open {open_sms}"
        );
    }

    #[test]
    fn pumping_profit_flips_negative_under_defence() {
        let r = report();
        let open = r
            .cell(Posture::Unprotected, AttackKind::SmsPumping)
            .attacker_profit;
        let defended = r
            .cell(Posture::RecommendedHoneypot, AttackKind::SmsPumping)
            .attacker_profit;
        assert!(open.is_positive(), "undefended pumping profits: {open}");
        assert!(defended < open, "defence cuts profit: {defended} vs {open}");
        assert!(
            defended.is_negative(),
            "defended pumping loses money: {defended}"
        );
    }

    #[test]
    fn friction_stays_modest_even_at_full_stack() {
        let r = report();
        for posture in Posture::ALL {
            let c = r.cell(posture, AttackKind::SeatSpinning);
            assert!(
                c.legit_friction < 0.30,
                "{posture}: friction {:.3}",
                c.legit_friction
            );
        }
        // And unprotected has (near) zero friction by construction.
        assert!(
            r.cell(Posture::Unprotected, AttackKind::SeatSpinning)
                .legit_friction
                < 0.01
        );
    }

    #[test]
    fn grid_is_complete_and_renders() {
        let r = report();
        assert_eq!(r.cells.len(), 8);
        let s = r.to_string();
        assert!(s.contains("recommended+honeypot"));
        assert!(s.contains("sms-pumping"));
    }
}
