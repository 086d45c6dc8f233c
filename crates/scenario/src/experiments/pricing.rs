//! **§II-A price manipulation** — DoI against dynamic pricing.
//!
//! "Others manipulate supply and demand … attackers strategically hold
//! reservations and items at lower fares without an investment to force
//! price drops before making a legitimate purchase." Two arms on the same
//! dynamically-priced flight: undisturbed (legitimate demand keeps the fare
//! near base) and manipulated (a fare manipulator suppresses the booking
//! pace, waits for the capitulation, and buys at the bottom).

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::{FareManipulator, FareManipulatorConfig, LegitConfig, LegitPopulation};
use fg_core::ids::{ClientId, FlightId};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_inventory::flight::Flight;
use fg_inventory::pricing::DynamicPricer;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Price-manipulation experiment configuration.
#[derive(Clone, Debug)]
pub struct PricingConfig {
    /// Master seed.
    pub seed: u64,
    /// Departure day of the target flight.
    pub departure_day: u64,
    /// Legitimate bookers per day (split across two flights).
    pub arrivals_per_day: f64,
    /// Base fare of the target flight.
    pub base_fare: Money,
    /// Suppression holds maintained concurrently.
    pub concurrent_holds: u32,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for PricingConfig {
    fn default() -> Self {
        PricingConfig {
            seed: 0xFA2E,
            departure_day: 30,
            arrivals_per_day: 14.0,
            base_fare: Money::from_units(100),
            concurrent_holds: 20,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: a shorter booking window.
pub fn smoke_config() -> PricingConfig {
    PricingConfig {
        departure_day: 10,
        ..PricingConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = PricingConfig::default();
    // The griefer keeps `concurrent_holds` seats locked, re-placing each as
    // its 30-minute TTL expires (48 cycles/day).
    vec![
        DefenceProfile::airline("unprotected", PolicyConfig::unprotected())
            .horizon(fg_core::time::SimDuration::from_days(
                config.departure_day as i64,
            ))
            .holds(
                config.arrivals_per_day,
                config.concurrent_holds as f64 * 48.0,
            )
            .expected_bookings((config.arrivals_per_day * config.departure_day as f64) as u64),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the suppression campaign's hold-request volume on a thin-demand flight
/// (≈ 14 legitimate arrivals/day vs ≈ 40 griefer holds/hour) trips a plain
/// volume threshold on the hold path within the first hour.
pub fn alert_policy() -> AlertPolicy {
    use fg_core::time::SimDuration;
    AlertPolicy::named("pricing-hold-volume")
        .rule(AlertRule::threshold(
            "hold-volume",
            MetricSelector::exact("fg_requests_total", &[("endpoint", "/booking/hold")]),
            SimDuration::from_hours(6),
            40.0,
        ))
        .campaign(SimTime::ZERO, 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "pricing",
        default_seed: PricingConfig::default().seed,
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

/// One arm's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct PricingArm {
    /// `true` when the manipulator ran.
    pub manipulated: bool,
    /// The fare quoted near the purchase deadline.
    pub fare_at_deadline: Money,
    /// The airline's total ticket revenue on the target flight's app.
    pub ticket_revenue: Money,
    /// Legit bookers denied by held/sold-out stock.
    pub legit_denied: u64,
}

/// The price-manipulation report.
#[derive(Clone, Debug, Serialize)]
pub struct PricingReport {
    /// Undisturbed arm.
    pub healthy: PricingArm,
    /// Manipulated arm.
    pub attacked: PricingArm,
    /// The fare the manipulator opened against.
    pub opening_fare: Option<Money>,
    /// The fare the manipulator actually paid.
    pub bought_at: Option<Money>,
    /// The manipulator's net campaign profit (savings − costs).
    pub attacker_profit: Money,
}

impl fmt::Display for PricingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Price manipulation — dynamic pricing under DoI suppression"
        )?;
        let row = |a: &PricingArm| {
            vec![
                if a.manipulated {
                    "manipulated"
                } else {
                    "healthy"
                }
                .to_owned(),
                a.fare_at_deadline.to_string(),
                a.ticket_revenue.to_string(),
                a.legit_denied.to_string(),
            ]
        };
        write!(
            f,
            "{}",
            crate::report::render_table(
                &["Arm", "Fare at deadline", "Ticket revenue", "Legit denied"],
                &[row(&self.healthy), row(&self.attacked)]
            )
        )?;
        let fmt_fare = |m: Option<Money>| m.map_or("n/a".to_owned(), |m| m.to_string());
        writeln!(
            f,
            "manipulator: opened at {}, bought at {}, net profit {}",
            fmt_fare(self.opening_fare),
            fmt_fare(self.bought_at),
            self.attacker_profit
        )
    }
}

fn run_arm(
    config: &PricingConfig,
    manipulated: bool,
    telemetry: Arc<Telemetry>,
) -> (PricingArm, Option<PricingReport>, SentinelReport) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let departure = SimTime::from_days(config.departure_day);

    let mut app_config =
        AppConfig::airline(PolicyConfig::unprotected()).with_concurrency(config.concurrency);
    app_config.pricing = Some(DynamicPricer::airline(config.base_fare));
    let mut app = DefendedApp::with_telemetry(app_config, config.seed, telemetry);
    app.attach_sentinel(alert_policy());
    let target = FlightId(1);
    app.add_flight(Flight::new(target, 180, departure));
    app.add_flight(Flight::new(
        FlightId(2),
        10_000,
        SimTime::from_days(config.departure_day + 20),
    ));

    let mut sim = Simulation::new(app, fork.seed("sim"));

    let mut legit_cfg = LegitConfig::default_airline(vec![target, FlightId(2)], departure);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut bot_rng = fork.rng("manipulator");
    let bot = if manipulated {
        let mut cfg = FareManipulatorConfig::typical(target);
        cfg.concurrent_holds = config.concurrent_holds;
        let (handle, agent) = share(FareManipulator::new(cfg, ClientId(1), geo, &mut bot_rng));
        sim.add_agent(agent, SimTime::ZERO);
        Some(handle)
    } else {
        None
    };

    let deadline = departure - fg_core::time::SimDuration::from_days(3);
    let app = sim.run(departure);
    let alerts = app
        .sentinel_report(departure)
        .expect("sentinel attached above");

    let arm = PricingArm {
        manipulated,
        fare_at_deadline: app.fare(target, deadline).expect("flight exists"),
        ticket_revenue: app.ticket_revenue(),
        legit_denied: legit.borrow().stats().denied_by_stock,
    };
    let extras = bot.map(|handle| {
        let bot = handle.borrow();
        let stats = bot.stats();
        PricingReport {
            healthy: arm.clone(),  // placeholder, replaced by caller
            attacked: arm.clone(), // placeholder, replaced by caller
            opening_fare: stats.opening_fare,
            bought_at: stats.bought_at,
            attacker_profit: bot.ledger().profit(),
        }
    });
    (arm, extras, alerts)
}

/// Runs both arms.
pub fn run(config: PricingConfig) -> PricingReport {
    run_observed(config, Telemetry::shared()).0
}

/// Runs both arms, also returning the sentinel outcome for the manipulated
/// arm — the cell whose hold-volume alert marks the suppression campaign.
/// That arm reports into `telemetry`, the healthy arm into a hub of its
/// own. Observation is read-only, so the report is identical to [`run`]'s.
pub fn run_observed(
    config: PricingConfig,
    telemetry: Arc<Telemetry>,
) -> (PricingReport, SentinelReport) {
    let (healthy, _, _) = run_arm(&config, false, Telemetry::shared());
    let (attacked, extras, alerts) = run_arm(&config, true, telemetry);
    let extras = extras.expect("manipulated arm produced manipulator stats");
    let report = PricingReport {
        healthy,
        attacked,
        ..extras
    };
    (report, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PricingReport {
        run(PricingConfig::default())
    }

    #[test]
    fn suppression_crashes_the_fare_and_revenue() {
        let r = report();
        assert!(
            r.attacked.fare_at_deadline < r.healthy.fare_at_deadline,
            "manipulated fare {} vs healthy {}",
            r.attacked.fare_at_deadline,
            r.healthy.fare_at_deadline
        );
        // The bot buys the moment its trigger fires, then releases its
        // holds, so the *purchase* price is the harm metric — the deadline
        // quote partially recovers after the squeeze ends.
        let bought = r.bought_at.expect("purchase completed");
        assert!(
            bought <= Money::from_units(76),
            "squeezed fare reached: {bought}"
        );
        assert!(
            r.attacked.ticket_revenue < r.healthy.ticket_revenue,
            "airline revenue suffers: {} vs {}",
            r.attacked.ticket_revenue,
            r.healthy.ticket_revenue
        );
        assert!(r.attacked.legit_denied > r.healthy.legit_denied);
    }

    #[test]
    fn manipulator_buys_cheap_and_profits() {
        let r = report();
        let open = r.opening_fare.expect("opening fare seen");
        let bought = r.bought_at.expect("purchase completed");
        assert!(bought < open, "bought {bought} below opening {open}");
        // Savings may or may not exceed proxy costs depending on scale, but
        // the *per-seat* discount is real.
        assert!(bought <= open.mul_f64(0.8));
    }

    #[test]
    fn report_renders() {
        let s = report().to_string();
        assert!(s.contains("manipulated"));
        assert!(s.contains("Fare at deadline"));
    }
}
