//! **§IV-C in-text** — advanced SMS pumping against boarding-pass issuance.
//!
//! Three defensive postures face the same pumper:
//!
//! 1. **No limits** (the real December-2022 configuration before the path
//!    limit existed) — the attack is never detected.
//! 2. **Path-level limit only** (what Airline D actually had): the attack is
//!    detected "only after the total number of boarding pass requests via
//!    SMS triggered the rate limit for the targeted path" — days late, after
//!    most of the SMS bill.
//! 3. **Per-booking limit** (the obvious missing control): detection within
//!    minutes, bill near zero.
//!
//! The report also reproduces the two in-text statistics: the global
//! boarding-pass increase (~25 %) and the number of destination countries
//! (42).

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::{LegitConfig, LegitPopulation, SmsPumper, SmsPumperConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, SentinelReport};
use serde::Serialize;
use std::fmt;

/// The three §IV-C postures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SmsPosture {
    /// No SMS limits at all.
    NoLimits,
    /// Only a path-wide daily limit.
    PathLimitOnly,
    /// A tight per-booking limit (plus the path limit).
    PerBookingLimit,
}

impl fmt::Display for SmsPosture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SmsPosture::NoLimits => "no limits",
            SmsPosture::PathLimitOnly => "path limit only",
            SmsPosture::PerBookingLimit => "per-booking limit",
        };
        f.write_str(s)
    }
}

/// Case C configuration.
#[derive(Clone, Debug)]
pub struct CaseCConfig {
    /// Master seed.
    pub seed: u64,
    /// Simulated weeks (attack starts at week 1).
    pub weeks: u64,
    /// Legitimate bookers per day.
    pub arrivals_per_day: f64,
    /// Attacker SMS per hour.
    pub pump_per_hour: f64,
    /// Path-wide daily SMS limit as a multiple of normal daily volume.
    pub path_limit_headroom: f64,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for CaseCConfig {
    fn default() -> Self {
        CaseCConfig {
            seed: 0xCA5EC,
            weeks: 3,
            arrivals_per_day: 400.0,
            pump_per_hour: 3.0,
            path_limit_headroom: 1.02,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: two weeks, lighter traffic.
pub fn smoke_config() -> CaseCConfig {
    CaseCConfig {
        weeks: 2,
        arrivals_per_day: 60.0,
        ..CaseCConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass: the three §IV-C SMS postures, with the same path-limit
/// calibration `run_posture` uses (theoretical baseline x headroom).
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = CaseCConfig::default();
    let horizon = fg_core::time::SimDuration::from_days(config.weeks as i64 * 7);
    let legit_sms_daily = config.arrivals_per_day * (0.35 + 0.45 * 0.72);
    let path_daily = legit_sms_daily * config.path_limit_headroom;
    let bookings = (config.arrivals_per_day * config.weeks as f64 * 7.0) as u64;

    let mut path_only = PolicyConfig::unprotected();
    path_only.path_sms_limit = Some((path_daily, path_daily));
    let mut per_booking = path_only.clone();
    per_booking.booking_sms_limit = Some((3.0, 1.0));

    let base = |name: &str, policy: PolicyConfig| {
        DefenceProfile::airline(name, policy)
            .horizon(horizon)
            .sms(legit_sms_daily, config.pump_per_hour * 24.0)
            .expected_bookings(bookings)
    };
    const WHY: &str =
        "Case C's airline ran rate limits without any scoring pipeline; the missing stages are the finding";
    vec![
        base("no-limits", PolicyConfig::unprotected()),
        base("path-limit", path_only).waive("nonfinite-threshold", WHY),
        base("per-booking", per_booking).waive("nonfinite-threshold", WHY),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the owner's SMS spend burning above its first-week baseline rate. The
/// low-and-slow pump (3 SMS/h) defeats every volume rule, but premium-route
/// pricing makes the *cost* signal stand out — the paper's point that the
/// airline only noticed on the invoice, weeks later, while a spend monitor
/// raises the same signal within a day.
pub fn alert_policy() -> AlertPolicy {
    use fg_core::time::SimDuration;
    AlertPolicy::named("case-c-spend-burn")
        .rule(AlertRule::burn_rate(
            "sms-burn-rate",
            SimDuration::from_hours(24),
            SimDuration::from_days(7),
            2.0,
            3.0,
        ))
        .campaign(SimTime::from_weeks(1), 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "case_c",
        default_seed: CaseCConfig::default().seed,
        telemetry_capable: false,
        run: |p| {
            let mut config = p.base_config(smoke_config);
            config.seed = p.seed;
            config.concurrency = p.concurrency();
            crate::harness::sentinel_cell(p, run_observed(config, p.traces))
        },
        profiles: defence_profiles,
        alerts: alert_policy,
    }
}

/// Per-posture outcome.
#[derive(Clone, Debug, Serialize)]
pub struct PostureOutcome {
    /// The posture.
    pub posture: SmsPosture,
    /// Hours from attack start until the attacker first saw a rate limit
    /// (`None` = never detected).
    pub detection_latency_hours: Option<f64>,
    /// Attack-window SMS the attacker got through.
    pub attack_sms_delivered: u64,
    /// The owner's total SMS bill.
    pub owner_sms_cost: Money,
    /// Global boarding-pass increase, attack week over baseline week (%).
    pub bp_increase_pct: f64,
    /// Distinct destination countries in the attack window.
    pub countries: usize,
    /// Legitimate SMS requests refused as collateral (quota / limit).
    pub legit_refused: u64,
    /// Measured baseline-week SMS per day (all kinds).
    pub baseline_sms_daily: f64,
}

/// The Case C report.
#[derive(Clone, Debug, Serialize)]
pub struct CaseCReport {
    /// One outcome per posture.
    pub outcomes: Vec<PostureOutcome>,
}

impl fmt::Display for CaseCReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Case C — advanced SMS pumping (Airline D), posture comparison"
        )?;
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.posture.to_string(),
                    o.detection_latency_hours
                        .map_or("never".to_owned(), |h| format!("{h:.1} h")),
                    o.attack_sms_delivered.to_string(),
                    o.owner_sms_cost.to_string(),
                    format!("{:+.1}%", o.bp_increase_pct),
                    o.countries.to_string(),
                    o.legit_refused.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::report::render_table(
                &[
                    "Posture",
                    "Detected after",
                    "Attack SMS",
                    "Owner cost",
                    "Global BP",
                    "Countries",
                    "Legit refused",
                ],
                &rows
            )
        )
    }
}

fn run_posture(
    config: &CaseCConfig,
    posture: SmsPosture,
    measured_baseline_daily: Option<f64>,
    traces: bool,
) -> (
    PostureOutcome,
    SentinelReport,
    Option<fg_telemetry::TraceSnapshot>,
) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_weeks(config.weeks);

    // Real operators calibrate the path limit from observed traffic; we do
    // the same, using the measured baseline from the no-limits run (a small
    // theoretical estimate is used only when none is available yet).
    let legit_sms_daily =
        measured_baseline_daily.unwrap_or(config.arrivals_per_day * (0.35 + 0.45 * 0.72));
    let path_daily = legit_sms_daily * config.path_limit_headroom;

    let mut policy = PolicyConfig::unprotected();
    match posture {
        SmsPosture::NoLimits => {}
        SmsPosture::PathLimitOnly => {
            policy.path_sms_limit = Some((path_daily, path_daily));
        }
        SmsPosture::PerBookingLimit => {
            policy.path_sms_limit = Some((path_daily, path_daily));
            policy.booking_sms_limit = Some((3.0, 1.0));
        }
    }

    let mut app = DefendedApp::new(
        AppConfig::airline(policy).with_concurrency(config.concurrency),
        config.seed,
    );
    app.attach_sentinel(alert_policy());
    if traces {
        app.telemetry()
            .enable_tracing(fg_telemetry::TraceConfig::default());
    }
    let flight = FlightId(1);
    let capacity = (config.arrivals_per_day * config.weeks as f64 * 7.0 * 2.0 * 1.5) as u32;
    app.add_flight(Flight::new(flight, capacity, SimTime::from_days(60)));

    let mut sim = Simulation::new(app, fork.seed("sim"));

    let mut legit_cfg = LegitConfig::default_airline(vec![flight], end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut pump_cfg = SmsPumperConfig::airline_d(flight, end);
    pump_cfg.sms_per_hour = config.pump_per_hour;
    let rates = fg_smsgw::rates::RateTable::default_world();
    let mut pumper_rng = fork.rng("pumper");
    let (pumper, pumper_agent) = share(SmsPumper::new(
        pump_cfg,
        ClientId(1),
        geo,
        &rates,
        &mut pumper_rng,
    ));
    let attack_start = SimTime::from_weeks(1);
    sim.add_agent(pumper_agent, attack_start);

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    // Detection latency: the first rate-limit refusal logged against the
    // boarding-pass path after the attack started.
    let first_refusal = app
        .logs()
        .iter()
        .find(|l| {
            l.at >= attack_start && l.endpoint == fg_detection::log::Endpoint::BoardingPass && !l.ok
        })
        .map(|l| (l.at - attack_start).as_hours_f64());

    // Global boarding-pass increase, normalized to weekly rates (the attack
    // window spans more than one week).
    let bp_kind = fg_smsgw::message::SmsKind::BoardingPass(fg_core::ids::BookingRef::from_index(0));
    let baseline_weeks = 1.0;
    let attack_weeks = (config.weeks - 1) as f64;
    let baseline_bp = app
        .gateway()
        .sent_kind_between(bp_kind, SimTime::ZERO, attack_start);
    let attack_bp = app.gateway().sent_kind_between(bp_kind, attack_start, end);
    let bp_increase = if baseline_bp == 0 {
        0.0
    } else {
        let base_rate = baseline_bp as f64 / baseline_weeks;
        let attack_rate = attack_bp as f64 / attack_weeks;
        (attack_rate - base_rate) / base_rate * 100.0
    };

    let baseline_sms_daily = app.gateway().sent_kind_between(
        fg_smsgw::message::SmsKind::Otp,
        SimTime::ZERO,
        attack_start,
    ) as f64
        / 7.0
        + baseline_bp as f64 / 7.0;
    let pumper_stats = pumper.borrow().stats();
    let legit_stats = legit.borrow().stats();
    let outcome = PostureOutcome {
        posture,
        detection_latency_hours: first_refusal,
        attack_sms_delivered: pumper_stats.sms_sent,
        owner_sms_cost: app.gateway().owner_cost(),
        bp_increase_pct: bp_increase,
        countries: pumper_stats.countries_used as usize,
        legit_refused: legit_stats.defence_friction,
        baseline_sms_daily,
    };
    let trace_snapshot = traces.then(|| app.telemetry().trace_snapshot());
    (outcome, alerts, trace_snapshot)
}

/// Runs all three postures. The no-limits run doubles as the traffic
/// measurement from which the other postures' path limit is calibrated.
pub fn run(config: CaseCConfig) -> CaseCReport {
    run_observed(config, false).0
}

/// Runs all three postures, also returning the sentinel outcome for the
/// no-limits posture — the configuration whose era defences never detect
/// the pump, making it the cell where online spend alerting matters.
///
/// With `traces`, span tracing is enabled on that posture and its trace
/// export is returned too. Tracing is read-only, so the report is
/// unchanged.
pub fn run_observed(
    config: CaseCConfig,
    traces: bool,
) -> (
    CaseCReport,
    SentinelReport,
    Option<fg_telemetry::TraceSnapshot>,
) {
    let (no_limits, alerts, trace_snapshot) =
        run_posture(&config, SmsPosture::NoLimits, None, traces);
    let measured = Some(no_limits.baseline_sms_daily);
    let (path, _, _) = run_posture(&config, SmsPosture::PathLimitOnly, measured, false);
    let (booking, _, _) = run_posture(&config, SmsPosture::PerBookingLimit, measured, false);
    let report = CaseCReport {
        outcomes: vec![no_limits, path, booking],
    };
    (report, alerts, trace_snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CaseCConfig {
        CaseCConfig::default()
    }

    #[test]
    fn detection_latency_ordering_matches_the_paper() {
        let report = run(small());
        let [none, path, booking] = &report.outcomes[..] else {
            panic!("three outcomes expected");
        };

        assert_eq!(
            none.detection_latency_hours, None,
            "no limits → never detected"
        );
        let path_h = path
            .detection_latency_hours
            .expect("path limit eventually trips");
        let booking_h = booking
            .detection_latency_hours
            .expect("per-booking limit trips");
        assert!(
            path_h > 24.0,
            "path-level detection is days late: {path_h:.1} h"
        );
        assert!(
            booking_h < 24.0,
            "per-booking detection lands within hours: {booking_h:.1} h"
        );
        assert!(booking_h * 4.0 < path_h);
    }

    #[test]
    fn sms_cost_shrinks_with_tighter_keys() {
        let report = run(small());
        let [none, path, booking] = &report.outcomes[..] else {
            panic!("three outcomes expected");
        };
        assert!(none.attack_sms_delivered >= path.attack_sms_delivered);
        assert!(
            booking.attack_sms_delivered * 3 < none.attack_sms_delivered,
            "per-booking limit slashes delivered SMS: {} vs {}",
            booking.attack_sms_delivered,
            none.attack_sms_delivered
        );
        assert!(booking.owner_sms_cost < none.owner_sms_cost);
    }

    #[test]
    fn global_bp_increase_is_moderate_while_targeted_harm_is_large() {
        let report = run(small());
        let none = &report.outcomes[0];
        // The §IV-C shape: a visible but not overwhelming global increase
        // (the paper reports ≈ +25 %).
        // The paper reports ≈ +25 %; we accept the same order of magnitude
        // (a global increase well below the per-country surges of Table I).
        assert!(
            none.bp_increase_pct > 10.0 && none.bp_increase_pct < 120.0,
            "global BP increase {:.1}%",
            none.bp_increase_pct
        );
        assert!(none.countries >= 25, "countries {}", none.countries);
    }

    #[test]
    fn report_renders() {
        let s = run(small()).to_string();
        assert!(s.contains("per-booking limit"));
        assert!(s.contains("never"));
    }
}
