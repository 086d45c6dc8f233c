//! **Table I** — per-country SMS surge during the boarding-pass pumping
//! attack.
//!
//! One baseline week of legitimate traffic establishes each destination's
//! normal SMS volume; the Airline D pumper then runs for the second week
//! against the vulnerable (unprotected) configuration. The report is the
//! paper's table: countries ranked by percentage increase, with the premium
//! head (Uzbekistan, Iran, …) surging by orders of magnitude more than
//! mainstream destinations (UK, China, Thailand in double digits).

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::{LegitConfig, LegitPopulation, SmsPumper, SmsPumperConfig};
use fg_core::ids::{ClientId, CountryCode, FlightId};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Table I experiment configuration.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Master seed.
    pub seed: u64,
    /// Legitimate bookers per day (scales the per-country baselines).
    pub arrivals_per_day: f64,
    /// Attacker SMS attempts per hour.
    pub pump_per_hour: f64,
    /// How many rows to report.
    pub top_n: usize,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            seed: 0x7AB1E1,
            arrivals_per_day: 2_000.0,
            pump_per_hour: 600.0,
            top_n: 10,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: lighter traffic, smaller pump.
pub fn smoke_config() -> Table1Config {
    Table1Config {
        arrivals_per_day: 200.0,
        pump_per_hour: 60.0,
        ..Table1Config::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = Table1Config::default();
    // Arrivals send OTPs and boarding passes (0.674 SMS per arrival); the
    // pump adds its hourly rate around the clock. No defence is in force,
    // so the config pass records the exposure without channel lints.
    vec![
        DefenceProfile::airline("unprotected", PolicyConfig::unprotected())
            .horizon(fg_core::time::SimDuration::from_days(14))
            .sms(config.arrivals_per_day * 0.674, config.pump_per_hour * 24.0)
            .expected_bookings((config.arrivals_per_day * 14.0) as u64),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// Table I itself as a detector — any destination country's delivered-SMS
/// rate surging far above its sliding weekly baseline — plus the owner's
/// SMS spend burning above its baseline rate.
pub fn alert_policy() -> AlertPolicy {
    use fg_core::time::SimDuration;
    AlertPolicy::named("table1-sms-surge")
        .rule(AlertRule::surge(
            "sms-country-surge",
            MetricSelector::any("fg_sms_sent_total"),
            SimDuration::from_hours(1),
            SimDuration::from_days(7),
            8.0,
            10.0,
        ))
        .rule(AlertRule::burn_rate(
            "sms-burn-rate",
            SimDuration::from_hours(6),
            SimDuration::from_days(7),
            3.0,
            2.0,
        ))
        .campaign(SimTime::from_weeks(1), 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "table1",
        default_seed: Table1Config::default().seed,
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

/// One row of the surge table.
#[derive(Clone, Debug, Serialize)]
pub struct SurgeRow {
    /// Destination country.
    pub country: String,
    /// Percentage increase, attack week over baseline week.
    pub increase_pct: f64,
    /// Baseline-week SMS count.
    pub baseline: u64,
    /// Attack-week SMS count.
    pub attack: u64,
}

/// The Table I report.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Report {
    /// Rows ranked by surge, top-N.
    pub rows: Vec<SurgeRow>,
    /// Distinct countries that received attack-window SMS (§IV-C: 42).
    pub countries_reached: usize,
    /// The application owner's total SMS bill (both weeks).
    pub owner_cost: Money,
    /// The attacker's SMS kickback revenue.
    pub attacker_revenue: Money,
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I — top {} countries by SMS surge (attack week vs baseline week)",
            self.rows.len()
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.country.clone(),
                    crate::report::format_pct(r.increase_pct),
                    r.baseline.to_string(),
                    r.attack.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::report::render_table(&["Country", "Increase", "Baseline", "Attack"], &rows)
        )?;
        writeln!(
            f,
            "countries reached in attack week: {}; owner SMS cost: {}; attacker revenue: {}",
            self.countries_reached, self.owner_cost, self.attacker_revenue
        )
    }
}

/// Runs the Table I scenario.
pub fn run(config: Table1Config) -> Table1Report {
    run_observed(config, Telemetry::shared()).0
}

/// Runs the Table I scenario with the defended app reporting into
/// `telemetry` and the sentinel attached, returning the report plus the
/// online alerting outcome. Observation is read-only, so the report is
/// identical to [`run`]'s.
pub fn run_observed(
    config: Table1Config,
    telemetry: Arc<Telemetry>,
) -> (Table1Report, SentinelReport) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_weeks(2);

    // Airline D, December 2022: no per-feature limits at all.
    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(PolicyConfig::unprotected()).with_concurrency(config.concurrency),
        config.seed,
        telemetry,
    );
    app.attach_sentinel(alert_policy());
    let flight = FlightId(1);
    let capacity = (config.arrivals_per_day * 14.0 * 2.0 * 1.5) as u32;
    app.add_flight(Flight::new(flight, capacity, SimTime::from_days(30)));

    let mut sim = Simulation::new(app, fork.seed("sim"));

    let mut legit_cfg = LegitConfig::default_airline(vec![flight], end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    // The pumper joins at the start of week 1.
    let mut pump_cfg = SmsPumperConfig::airline_d(flight, end);
    pump_cfg.sms_per_hour = config.pump_per_hour;
    let rates = fg_smsgw::rates::RateTable::default_world();
    let mut pumper_rng = fork.rng("pumper");
    let (_pumper, pumper_agent) = share(SmsPumper::new(
        pump_cfg,
        ClientId(1),
        geo,
        &rates,
        &mut pumper_rng,
    ));
    sim.add_agent(pumper_agent, SimTime::from_weeks(1));

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let baseline = (SimTime::ZERO, SimTime::from_weeks(1));
    let window = (SimTime::from_weeks(1), SimTime::from_weeks(2));
    let mut rows: Vec<SurgeRow> = app
        .gateway()
        .surge_table(baseline, window)
        .into_iter()
        .map(|(country, pct)| SurgeRow {
            baseline: app
                .gateway()
                .sent_to_between(country, baseline.0, baseline.1),
            attack: app.gateway().sent_to_between(country, window.0, window.1),
            country: country_name(country),
            increase_pct: pct,
        })
        .collect();
    rows.truncate(config.top_n);

    let report = Table1Report {
        countries_reached: app.gateway().countries_reached_between(window.0, window.1),
        owner_cost: app.gateway().owner_cost(),
        attacker_revenue: app.gateway().attacker_revenue(),
        rows,
    };
    (report, alerts)
}

/// Human-readable country names for the report (Table I prints names).
pub fn country_name(code: CountryCode) -> String {
    match code.as_str() {
        "UZ" => "Uzbekistan".to_owned(),
        "IR" => "Iran".to_owned(),
        "KG" => "Kyrgyzstan".to_owned(),
        "JO" => "Jordan".to_owned(),
        "NG" => "Nigeria".to_owned(),
        "KH" => "Cambodia".to_owned(),
        "SG" => "Singapore".to_owned(),
        "GB" => "United Kingdom".to_owned(),
        "CN" => "China".to_owned(),
        "TH" => "Thailand".to_owned(),
        other => other.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Table1Config {
        Table1Config {
            arrivals_per_day: 600.0,
            pump_per_hour: 300.0,
            ..Table1Config::default()
        }
    }

    #[test]
    fn premium_head_surges_orders_of_magnitude_above_tail() {
        let report = run(small());
        assert!(report.rows.len() >= 8, "{report}");

        // The head rows are premium/high-cost destinations.
        for row in &report.rows[..3] {
            assert!(
                [
                    "Uzbekistan",
                    "Iran",
                    "Kyrgyzstan",
                    "Jordan",
                    "Nigeria",
                    "Cambodia"
                ]
                .contains(&row.country.as_str()),
                "unexpected head country {}",
                row.country
            );
        }
        let top = report.rows[0].increase_pct;
        assert!(top > 10_000.0, "top surge {top}%");
        let mainstream = report.rows.iter().find(|r| {
            ["United Kingdom", "China", "Thailand", "Singapore"].contains(&r.country.as_str())
        });
        if let Some(m) = mainstream {
            assert!(
                top / m.increase_pct.max(1.0) > 100.0,
                "head {top}% vs mainstream {}%",
                m.increase_pct
            );
        }
    }

    #[test]
    fn reaches_dozens_of_countries() {
        let report = run(small());
        assert!(
            report.countries_reached >= 35,
            "countries {}",
            report.countries_reached
        );
    }

    #[test]
    fn money_flows_are_consistent() {
        let report = run(small());
        assert!(report.owner_cost > Money::ZERO);
        assert!(report.attacker_revenue > Money::ZERO);
        assert!(report.attacker_revenue < report.owner_cost);
    }

    #[test]
    fn report_renders_table() {
        let report = run(small());
        let s = report.to_string();
        assert!(s.contains("| Country"));
        assert!(s.contains('%'));
    }
}
