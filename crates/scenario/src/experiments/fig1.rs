//! **Fig. 1** — Number-in-Party distribution across three weeks.
//!
//! Week 0: the average week (legitimate traffic only). Week 1: the Seat
//! Spinning attack runs with no NiP restriction — the stealth strategy lands
//! on NiP 6 under a maximum of 9. Week 2: the defender caps NiP at 4 at the
//! week boundary; legitimate groups split to the cap and the attacker adapts
//! to it — both effects the paper reports.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::{LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::stats::Histogram;
use fg_core::time::SimTime;
use fg_detection::anomaly::NipDistributionMonitor;
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{
    AlertPolicy, AlertRule, DriftBaseline, DriftStat, MetricSelector, SentinelReport,
};
use serde::Serialize;
use std::fmt;

/// Fig. 1 experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig1Config {
    /// Master seed.
    pub seed: u64,
    /// Number of flights the airline operates ("hundreds per week" in the
    /// paper; scaled down, attack still visible globally).
    pub flights: u64,
    /// Seats per flight.
    pub capacity: u32,
    /// Legitimate bookers per day across the airline.
    pub arrivals_per_day: f64,
    /// The NiP cap introduced at the start of week 2.
    pub cap: u32,
    /// Defence-state partitioning (see [`ConcurrencyMode`]); the report is
    /// identical in every mode when replayed single-threaded.
    pub concurrency: ConcurrencyMode,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            seed: 0xF161,
            flights: 12,
            capacity: 180,
            arrivals_per_day: 400.0,
            cap: 4,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: fewer flights, lighter traffic.
pub fn smoke_config() -> Fig1Config {
    Fig1Config {
        flights: 4,
        arrivals_per_day: 80.0,
        ..Fig1Config::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_core::time::SimDuration;
    use fg_mitigation::profile::DefenceProfile;
    let config = Fig1Config::default();
    // Legitimate holds track arrivals; the spinner keeps 6 holds alive and
    // re-places them every 3-hour TTL cycle (48/day).
    vec![DefenceProfile::airline(
        "traditional+nip-cap",
        PolicyConfig::traditional_antibot(),
    )
    .horizon(SimDuration::from_days(21))
    .hold_ttl(SimDuration::from_hours(3))
    .max_nip(4)
    .holds(config.arrivals_per_day, 48.0)
    .expected_bookings((config.arrivals_per_day * 21.0) as u64)
    .waive(
        "unguarded-channel",
        "era posture under study: the NiP cap, not a hold limiter, is the defence being measured",
    )]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// the Fig. 1 monitoring story itself — the NiP distribution of successful
/// holds drifting away from a baseline learned over the clean first week.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("fig1-nip-drift")
        .rule(AlertRule::drift(
            "nip-distribution-drift",
            MetricSelector::exact("fg_nip_hold", &[]),
            fg_core::time::SimDuration::from_hours(12),
            40,
            DriftBaseline::Learned {
                until: SimTime::from_weeks(1),
            },
            DriftStat::ChiSquarePerSample,
            0.35,
        ))
        .campaign(SimTime::from_weeks(1), 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "fig1",
        default_seed: Fig1Config::default().seed,
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

/// The Fig. 1 report: one NiP histogram per week.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Report {
    /// Week 0 (average), week 1 (attack), week 2 (capped) histograms.
    pub weeks: [Histogram; 3],
    /// Chi-square-per-booking drift of weeks 1 and 2 against week 0.
    pub drift_scores: [f64; 2],
    /// The NiP bucket most inflated during the attack week.
    pub attack_bucket: Option<usize>,
    /// The NiP bucket most inflated during the capped week.
    pub capped_bucket: Option<usize>,
    /// Bookings per week.
    pub totals: [u64; 3],
}

impl fmt::Display for Fig1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 1 — NiP distribution (shares per week)")?;
        for (label, week) in ["average week", "attack week (no cap)", "week after NiP cap"]
            .iter()
            .zip(&self.weeks)
        {
            write!(
                f,
                "{}",
                crate::report::render_share_bars(label, &week.shares(), 60)
            )?;
        }
        writeln!(
            f,
            "attack-week drift {:.2} (inflated NiP {:?}); capped-week drift {:.2} (inflated NiP {:?})",
            self.drift_scores[0], self.attack_bucket, self.drift_scores[1], self.capped_bucket
        )
    }
}

/// Runs the Fig. 1 scenario.
pub fn run(config: Fig1Config) -> Fig1Report {
    run_observed(config, false).0
}

/// Runs the Fig. 1 scenario with the sentinel attached, returning the
/// report plus the online alerting outcome, and with `traces`, span tracing
/// enabled on the defended app and its trace export. Observation is
/// read-only, so the report is identical to [`run`]'s.
pub fn run_observed(
    config: Fig1Config,
    traces: bool,
) -> (
    Fig1Report,
    SentinelReport,
    Option<fg_telemetry::TraceSnapshot>,
) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_weeks(3);

    // The application: Airline A, initially uncapped at NiP 9, with the
    // era-appropriate (traditional) anti-bot posture. The domain uses a
    // multi-hour hold TTL (the paper: "30 minutes to several hours").
    let mut app_config = AppConfig::airline(PolicyConfig::traditional_antibot())
        .with_concurrency(config.concurrency);
    app_config.hold_ttl = fg_core::time::SimDuration::from_hours(3);
    let mut app = DefendedApp::new(app_config, config.seed);
    app.attach_sentinel(alert_policy());
    if traces {
        app.telemetry()
            .enable_tracing(fg_telemetry::TraceConfig::default());
    }
    let flights: Vec<FlightId> = (1..=config.flights).map(FlightId).collect();
    // Capacity sized so legitimate demand over three weeks does not sell the
    // airline out (selling out would distort the distribution for reasons
    // unrelated to the attack).
    let capacity = ((config.arrivals_per_day * 21.0 * 2.0 * 1.5) / config.flights as f64) as u32;
    let capacity = capacity.max(config.capacity);
    for &f in &flights {
        // Depart comfortably after the observation horizon + the attacker's
        // stop-margin so the endgame does not truncate the capped week.
        app.add_flight(Flight::new(f, capacity, SimTime::from_days(40)));
    }

    let mut sim = Simulation::new(app, fork.seed("sim"));

    // Legitimate population across all flights, all three weeks.
    let mut legit_cfg = LegitConfig::default_airline(flights.clone(), end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit_handle, legit_agent) =
        share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    // The attacker joins at the start of week 1, targeting one flight. Its
    // reconnaissance learned the domain's 3 h hold TTL.
    let mut spinner_rng = fork.rng("spinner");
    let mut spinner_cfg = SeatSpinnerConfig::airline_a(flights[0]);
    spinner_cfg.known_hold_ttl = fg_core::time::SimDuration::from_hours(3);
    spinner_cfg.concurrent_holds = 6;
    let spinner = SeatSpinner::new(spinner_cfg, ClientId(1), geo, &mut spinner_rng);
    let (_spinner_handle, spinner_agent) = share(spinner);
    sim.add_agent(spinner_agent, SimTime::from_weeks(1));

    // The mitigation: cap NiP at week 2.
    let cap = config.cap;
    sim.schedule(SimTime::from_weeks(2), move |app, _now| {
        app.reservations_mut().set_max_nip(cap);
    });

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let weeks = [
        app.reservations()
            .nip_histogram(SimTime::ZERO, SimTime::from_weeks(1), 9),
        app.reservations()
            .nip_histogram(SimTime::from_weeks(1), SimTime::from_weeks(2), 9),
        app.reservations()
            .nip_histogram(SimTime::from_weeks(2), SimTime::from_weeks(3), 9),
    ];
    let monitor = NipDistributionMonitor::fit(&weeks[0], 2.0);
    let report = Fig1Report {
        drift_scores: [monitor.score(&weeks[1]), monitor.score(&weeks[2])],
        attack_bucket: monitor.most_inflated_bucket(&weeks[1]),
        capped_bucket: monitor.most_inflated_bucket(&weeks[2]),
        totals: [weeks[0].total(), weeks[1].total(), weeks[2].total()],
        weeks,
    };
    let trace_snapshot = traces.then(|| app.telemetry().trace_snapshot());
    (report, alerts, trace_snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig1Config {
        Fig1Config {
            arrivals_per_day: 150.0,
            flights: 6,
            ..Fig1Config::default()
        }
    }

    #[test]
    fn reproduces_the_three_bar_shape() {
        let report = run(small_config());

        // Week 0: dominated by NiP 1–2, like the paper's first bar.
        let w0 = &report.weeks[0];
        assert!(w0.share(1) > 0.4, "NiP-1 share {}", w0.share(1));
        assert!(w0.share(1) + w0.share(2) > 0.7);
        assert!(w0.share(6) < 0.05, "NiP-6 is rare in the average week");

        // Week 1: sharp NiP-6 spike (stealth below the max of 9).
        let w1 = &report.weeks[1];
        assert!(
            w1.share(6) > w0.share(6) * 4.0,
            "attack week NiP-6 share {} vs baseline {}",
            w1.share(6),
            w0.share(6)
        );
        assert_eq!(report.attack_bucket, Some(6));

        // Week 2: the cap kills NiP > 4 and lifts NiP 4 (legit splits +
        // attacker adaptation).
        let w2 = &report.weeks[2];
        assert_eq!(
            w2.count(5) + w2.count(6) + w2.count(7) + w2.count(8) + w2.count(9),
            0
        );
        assert!(
            w2.share(4) > w0.share(4) * 2.0,
            "capped week NiP-4 share {} vs baseline {}",
            w2.share(4),
            w0.share(4)
        );
        assert_eq!(report.capped_bucket, Some(4));

        // Drift alarms fire for both anomalous weeks.
        assert!(report.drift_scores[0] > 2.0, "{}", report.drift_scores[0]);
        assert!(report.drift_scores[1] > 2.0, "{}", report.drift_scores[1]);
    }

    #[test]
    fn report_renders() {
        let report = run(small_config());
        let s = report.to_string();
        assert!(s.contains("average week"));
        assert!(s.contains("NiP 6"));
        let json = crate::report::to_json(&report);
        assert!(json.contains("drift_scores"));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(small_config());
        let b = run(small_config());
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.weeks[1].buckets(), b.weeks[1].buckets());
    }
}
