//! **§IV-B in-text** — automated vs manual Seat Spinning, detected through
//! passenger-name patterns.
//!
//! Three traffic sources share one airline: the legitimate population, an
//! Airline-B-style automated spinner (fixed lead name, rotating birthdate),
//! and an Airline-C-style manual spinner (fixed name set permuted across
//! bookings, occasional typos). The name-heuristic analyzer then classifies
//! every booking; the report gives stream-level verdicts and per-booking
//! precision/recall — including the paper's key point that the *manual*
//! attack triggers no automation signal yet is still caught by repetition
//! heuristics.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::seat_spinner::NameStyle;
use fg_behavior::{
    LegitConfig, LegitPopulation, ManualSpinner, ManualSpinnerConfig, SeatSpinner,
    SeatSpinnerConfig,
};
use fg_core::ids::{ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_detection::confusion::ConfusionMatrix;
use fg_detection::names::{gibberish_score, NameAbuseAnalyzer};
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, DriftStat, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Case B configuration.
#[derive(Clone, Debug)]
pub struct CaseBConfig {
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

impl Default for CaseBConfig {
    fn default() -> Self {
        CaseBConfig {
            seed: 0xCA5EB2,
            days: 5,
            arrivals_per_day: 300.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: two days, lighter traffic.
pub fn smoke_config() -> CaseBConfig {
    CaseBConfig {
        days: 2,
        arrivals_per_day: 60.0,
        ..CaseBConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = CaseBConfig::default();
    vec![
        DefenceProfile::airline("unprotected", PolicyConfig::unprotected())
            .horizon(fg_core::time::SimDuration::from_days(config.days as i64))
            .expected_bookings((config.arrivals_per_day * config.days as f64) as u64),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the combined NiP load of the two spinners (fixed NiP 3 automated, manual
/// permutations) drifting away from the airline's average-week shape.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("case-b-nip-drift")
        .rule(AlertRule::drift(
            "nip-distribution-drift",
            MetricSelector::exact("fg_nip_hold", &[]),
            fg_core::time::SimDuration::from_hours(6),
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
        name: "case_b",
        default_seed: CaseBConfig::default().seed,
        telemetry_capable: true,
        run: |p| {
            let mut config = if p.smoke {
                smoke_config()
            } else {
                CaseBConfig::default()
            };
            config.seed = p.seed;
            config.concurrency = p.concurrency();
            let (report, telemetry, alerts) = if p.traces {
                run_traced(config)
            } else {
                run_full(config)
            };
            let mut out =
                crate::harness::CellOutput::of(&report).with_alerts(p.alerts.then_some(alerts));
            if p.telemetry {
                out = out.with_telemetry(telemetry.snapshot());
            }
            if p.traces {
                out = out.with_traces(Some(telemetry.trace_snapshot()));
            }
            out
        },
        profiles: defence_profiles,
        alerts: alert_policy,
    }
}

/// The Case B report.
#[derive(Clone, Debug, Serialize)]
pub struct CaseBReport {
    /// Did the analyzer flag automated abuse in the stream?
    pub automated_flagged: bool,
    /// Did the analyzer flag manual abuse in the stream?
    pub manual_flagged: bool,
    /// Per-booking confusion matrix of the combined name detector.
    pub confusion: ConfusionMatrix,
    /// Precision of per-booking flagging.
    pub precision: f64,
    /// Recall of per-booking flagging.
    pub recall: f64,
    /// Bookings created by each source (legit, automated, manual).
    pub bookings_by_source: [u64; 3],
}

impl fmt::Display for CaseBReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Case B — automated vs manual Seat Spinning (name heuristics)"
        )?;
        writeln!(
            f,
            "  stream verdicts: automated={} manual={}",
            self.automated_flagged, self.manual_flagged
        )?;
        writeln!(
            f,
            "  bookings: legit={} automated={} manual={}",
            self.bookings_by_source[0], self.bookings_by_source[1], self.bookings_by_source[2]
        )?;
        writeln!(
            f,
            "  per-booking detector: precision={:.3} recall={:.3} ({})",
            self.precision, self.recall, self.confusion
        )
    }
}

/// Runs the Case B scenario.
pub fn run(config: CaseBConfig) -> CaseBReport {
    run_with_telemetry(config).0
}

/// Runs the Case B scenario against a fresh [`Telemetry`] sink and returns
/// it alongside the report, for metric/audit/latency export.
pub fn run_with_telemetry(config: CaseBConfig) -> (CaseBReport, Arc<Telemetry>) {
    let (report, telemetry, _) = run_full(config);
    (report, telemetry)
}

/// Runs the Case B scenario with both the telemetry sink and the sentinel
/// attached. Sentinel observation is read-only, so the report is identical
/// to [`run`]'s.
pub fn run_full(config: CaseBConfig) -> (CaseBReport, Arc<Telemetry>, SentinelReport) {
    run_inner(config, false)
}

/// Like [`run_full`], with span tracing enabled on the telemetry sink; read
/// the export via [`Telemetry::trace_snapshot`]. Tracing is read-only, so
/// the report is still identical to [`run`]'s.
pub fn run_traced(config: CaseBConfig) -> (CaseBReport, Arc<Telemetry>, SentinelReport) {
    run_inner(config, true)
}

fn run_inner(config: CaseBConfig, traces: bool) -> (CaseBReport, Arc<Telemetry>, SentinelReport) {
    let telemetry = Telemetry::shared();
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(config.days);

    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(PolicyConfig::unprotected()).with_concurrency(config.concurrency),
        config.seed,
        telemetry.clone(),
    );
    app.attach_sentinel(alert_policy());
    if traces {
        app.telemetry()
            .enable_tracing(fg_telemetry::TraceConfig::default());
    }
    let capacity = (config.arrivals_per_day * config.days as f64 * 3.0) as u32;
    for f in 1..=3 {
        app.add_flight(Flight::new(FlightId(f), capacity, SimTime::from_days(40)));
    }

    let mut sim = Simulation::new(app, fork.seed("sim"));

    let flights: Vec<FlightId> = (1..=3).map(FlightId).collect();
    let mut legit_cfg = LegitConfig::default_airline(flights, end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    // Airline B: automated spinner with the rotating-birthdate signature.
    const AUTOMATED_CLIENT: ClientId = ClientId(1);
    let mut auto_cfg = SeatSpinnerConfig::airline_a(FlightId(2));
    auto_cfg.name_style = NameStyle::RotatingBirthdate;
    auto_cfg.nip_strategy = fg_behavior::NipStrategy::Fixed(3);
    auto_cfg.concurrent_holds = 4;
    let mut auto_rng = fork.rng("auto");
    let (_auto, auto_agent) = share(SeatSpinner::new(
        auto_cfg,
        AUTOMATED_CLIENT,
        geo.clone(),
        &mut auto_rng,
    ));
    sim.add_agent(auto_agent, SimTime::ZERO);

    // Airline C: manual spinner.
    const MANUAL_CLIENT: ClientId = ClientId(2);
    let mut manual_rng = fork.rng("manual");
    let (_manual, manual_agent) = share(ManualSpinner::new(
        ManualSpinnerConfig::airline_c(FlightId(3), end),
        MANUAL_CLIENT,
        geo,
        &mut manual_rng,
    ));
    sim.add_agent(manual_agent, SimTime::ZERO);

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    // Analysis: feed every booking to the analyzer, then flag per booking.
    let mut analyzer = NameAbuseAnalyzer::new();
    for booking in app.reservations().bookings() {
        analyzer.record(booking.passengers());
    }
    let report = analyzer.report();

    let flagged_keys: HashSet<&str> = report
        .rotating_birthdate_keys
        .iter()
        .map(String::as_str)
        .chain(report.permuted_sets.iter().flat_map(|sig| sig.split('|')))
        .collect();

    let mut confusion = ConfusionMatrix::new();
    let mut by_source = [0u64; 3];
    // Map bookings back to their source via the app's ground-truth logs:
    // booking creation is 1:1 with successful Hold log records per client,
    // but the simplest truthful join is via passenger patterns being owned
    // by the attack clients; we instead use the hold logs' truth_client per
    // fingerprint. The reservation system doesn't store the client, so we
    // reconstruct from log order: bookings and successful hold logs are both
    // creation-ordered.
    let mut hold_clients: Vec<(SimTime, ClientId)> = app
        .logs()
        .iter()
        .filter(|l| l.endpoint == fg_detection::log::Endpoint::Hold && l.ok)
        .map(|l| (l.at, l.truth_client))
        .collect();
    hold_clients.sort_by_key(|&(t, _)| t);
    let mut bookings: Vec<&fg_inventory::booking::Booking> =
        app.reservations().bookings().collect();
    bookings.sort_by_key(|b| b.created_at());

    for (booking, &(_, client)) in bookings.iter().zip(&hold_clients) {
        let truth_is_attack = client == AUTOMATED_CLIENT || client == MANUAL_CLIENT;
        by_source[if client == AUTOMATED_CLIENT {
            1
        } else if client == MANUAL_CLIENT {
            2
        } else {
            0
        }] += 1;

        let predicted = booking.passengers().iter().any(|p| {
            flagged_keys.contains(p.name_key().as_str())
                || gibberish_score(&p.first_name).max(gibberish_score(&p.surname)) > 0.5
        });
        confusion.record(truth_is_attack, predicted);
    }

    let report = CaseBReport {
        automated_flagged: report.automated_suspected(),
        manual_flagged: report.manual_suspected(),
        precision: confusion.precision(),
        recall: confusion.recall(),
        confusion,
        bookings_by_source: by_source,
    };
    (report, telemetry, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_attack_styles_are_flagged_at_stream_level() {
        let report = run(CaseBConfig::default());
        assert!(report.automated_flagged, "{report}");
        assert!(report.manual_flagged, "{report}");
        assert!(report.bookings_by_source[1] > 10, "{report}");
        assert!(report.bookings_by_source[2] > 10, "{report}");
    }

    #[test]
    fn per_booking_detection_is_precise_and_sensitive() {
        let report = run(CaseBConfig::default());
        assert!(report.precision > 0.9, "precision {:.3}", report.precision);
        assert!(report.recall > 0.7, "recall {:.3}", report.recall);
    }

    #[test]
    fn legit_only_traffic_is_clean() {
        // Rerun analysis over a legit-only world: no flags.
        let fork = SeedFork::new(1);
        let geo = GeoDatabase::default_world();
        let end = SimTime::from_days(3);
        let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::unprotected()), 1);
        app.add_flight(Flight::new(FlightId(1), 10_000, SimTime::from_days(40)));
        let mut sim = Simulation::new(app, fork.seed("sim"));
        let (_l, agent) = share(LegitPopulation::new(
            LegitConfig::default_airline(vec![FlightId(1)], end),
            geo,
            1_000_000,
        ));
        sim.add_agent(agent, SimTime::ZERO);
        let app = sim.run(end);

        let mut analyzer = NameAbuseAnalyzer::new();
        for b in app.reservations().bookings() {
            analyzer.record(b.passengers());
        }
        let r = analyzer.report();
        assert!(!r.automated_suspected(), "{r:?}");
        assert!(!r.manual_suspected(), "{r:?}");
    }

    #[test]
    fn report_renders() {
        let s = run(CaseBConfig::default()).to_string();
        assert!(s.contains("precision"));
        assert!(s.contains("automated="));
    }
}
