//! **§III-A claim** — volume features fail on low-volume functional abuse.
//!
//! "The primary challenge in applying simple behavior-based detection to DoI
//! and SMS Pumping attacks is that these bots do not require a high request
//! volume within a single session." A production defender has no labels, so
//! the comparison pits the two *unsupervised* rules actually used in the
//! field against each other on the same mixed traffic:
//!
//! * **Volume rule** (classical): flag sessions whose request count is a
//!   robust outlier (median + 10·MAD) — catches scrapers, misses a
//!   low-and-slow seat spinner whose sessions look volumetrically human.
//! * **Domain rule** (functional-abuse aware): flag sessions with repeated
//!   holds and no payment — the funnel signature volume metrics cannot see.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::seat_spinner::NipStrategy;
use fg_behavior::{
    LegitConfig, LegitPopulation, Scraper, ScraperConfig, SeatSpinner, SeatSpinnerConfig,
};
use fg_core::ids::{ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::shard::ConcurrencyMode;
use fg_core::time::{SimDuration, SimTime};
use fg_detection::confusion::ConfusionMatrix;
use fg_detection::features::SessionFeatures;
use fg_detection::session::sessionize;
use fg_fingerprint::rotation::{RotationSchedule, RotationStrategy};
use fg_inventory::flight::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_sentinel::{AlertPolicy, AlertRule, MetricSelector, SentinelReport};
use fg_telemetry::Telemetry;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Detector-comparison configuration.
#[derive(Clone, Debug)]
pub struct DetectorsConfig {
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

impl Default for DetectorsConfig {
    fn default() -> Self {
        DetectorsConfig {
            seed: 0xDE7EC7,
            days: 4,
            arrivals_per_day: 250.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: two days, lighter traffic.
pub fn smoke_config() -> DetectorsConfig {
    DetectorsConfig {
        days: 2,
        arrivals_per_day: 80.0,
        ..DetectorsConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = DetectorsConfig::default();
    // The slow spinner re-places 12 seats as their 30-minute TTLs lapse
    // (576 holds/day) — far under the volumetric alert threshold, which is
    // exactly the §III-A blind spot this experiment studies.
    vec![
        DefenceProfile::airline("unprotected", PolicyConfig::unprotected())
            .horizon(fg_core::time::SimDuration::from_days(config.days as i64))
            .holds(config.arrivals_per_day, 576.0)
            .expected_bookings((config.arrivals_per_day * config.days as f64) as u64)
            .waive(
                "alert-rule-never-fires",
                "SIII-A reproduced: the volumetric hold-volume rule is the blind spot under study",
            ),
    ]
}

/// The alert policy the sentinel evaluates online during this experiment —
/// deliberately the §III-A blind spot. A volume rule on the abused hold
/// path, sized for volumetric bots, never meets the low-and-slow spinner's
/// request rate; `expect_detection(false)` records that no alert firing is
/// the *correct*, paper-accurate outcome here, not a monitoring gap.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("detectors-volume-blindspot")
        .rule(AlertRule::threshold(
            "hold-volume-spike",
            MetricSelector::exact("fg_requests_total", &[("endpoint", "/booking/hold")]),
            SimDuration::from_hours(1),
            2_000.0,
        ))
        .campaign(SimTime::ZERO, 1)
        .expect_detection(false)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "detectors",
        default_seed: DetectorsConfig::default().seed,
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

/// One rule's evaluation.
#[derive(Clone, Debug, Serialize)]
pub struct RuleOutcome {
    /// Rule label.
    pub rule: String,
    /// Confusion matrix over all sessions.
    pub confusion: ConfusionMatrix,
    /// Recall on bot sessions.
    pub recall: f64,
    /// Precision of the rule's flags.
    pub precision: f64,
}

/// The detector-comparison report.
#[derive(Clone, Debug, Serialize)]
pub struct DetectorsReport {
    /// Volume-rule outcome.
    pub volume: RuleOutcome,
    /// Domain-rule outcome.
    pub domain: RuleOutcome,
    /// Sessions evaluated.
    pub sessions: usize,
    /// Bot sessions among them.
    pub bot_sessions: usize,
    /// The volume threshold used (median + 10·MAD).
    pub volume_threshold: f64,
    /// The same volume rule evaluated against the loud scraper — the class
    /// it was invented for.
    pub volume_on_scraper: RuleOutcome,
}

impl fmt::Display for DetectorsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Behaviour-rule comparison over {} sessions ({} bot; volume threshold {:.1})",
            self.sessions, self.bot_sessions, self.volume_threshold
        )?;
        for rule in [&self.volume, &self.domain, &self.volume_on_scraper] {
            writeln!(
                f,
                "  {:<18} recall={:.3} precision={:.3} ({})",
                rule.rule, rule.recall, rule.precision, rule.confusion
            )?;
        }
        Ok(())
    }
}

/// Runs the detector comparison.
pub fn run(config: DetectorsConfig) -> DetectorsReport {
    run_observed(config, Telemetry::shared()).0
}

/// Runs the detector comparison with the defended app reporting into
/// `telemetry` and the sentinel attached. The expected outcome is *no*
/// detection — the volume blind spot under test. Observation is read-only,
/// so the report is identical to [`run`]'s.
pub fn run_observed(
    config: DetectorsConfig,
    telemetry: Arc<Telemetry>,
) -> (DetectorsReport, SentinelReport) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(config.days);

    let mut app = DefendedApp::with_telemetry(
        AppConfig::airline(PolicyConfig::unprotected()).with_concurrency(config.concurrency),
        config.seed,
        telemetry,
    );
    app.attach_sentinel(alert_policy());
    for f in 1..=3 {
        app.add_flight(Flight::new(
            FlightId(f),
            (config.arrivals_per_day * config.days as f64 * 2.0) as u32,
            SimTime::from_days(40),
        ));
    }

    let mut sim = Simulation::new(app, fork.seed("sim"));
    let flights: Vec<FlightId> = (1..=3).map(FlightId).collect();
    let mut legit_cfg = LegitConfig::default_airline(flights.clone(), end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    // The evolved low-and-slow spinner (§IV-A's closing observation): small
    // parties, few concurrent holds, sparse wake-ups, and scheduled identity
    // rotation so no single (ip, fingerprint) session accumulates volume.
    let mut spin_cfg = SeatSpinnerConfig::airline_a(FlightId(1));
    spin_cfg.nip_strategy = NipStrategy::LowAndSlow(2);
    spin_cfg.concurrent_holds = 2;
    spin_cfg.recheck_interval = SimDuration::from_mins(30);
    spin_cfg.rotation_strategy = RotationStrategy::Mimicry;
    spin_cfg.rotation_schedule = RotationSchedule::Interval {
        mean: SimDuration::from_hours(1),
        jitter_frac: 0.3,
    };
    let mut spin_rng = fork.rng("spin");
    let (_s, spin_agent) = share(SeatSpinner::new(
        spin_cfg,
        ClientId(1),
        geo.clone(),
        &mut spin_rng,
    ));
    sim.add_agent(spin_agent, SimTime::ZERO);

    // The contrast class: a loud fare scraper (client id 2). Classical
    // volume detection exists because of this bot — and it works on it.
    let mut scrape_rng = fork.rng("scrape");
    let (_sc, scrape_agent) = share(Scraper::new(
        ScraperConfig::naive(flights.clone(), end),
        ClientId(2),
        geo,
        &mut scrape_rng,
    ));
    sim.add_agent(scrape_agent, SimTime::ZERO);

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let sessions = sessionize(app.logs().to_vec(), SimDuration::from_mins(30));
    let features: Vec<SessionFeatures> = sessions.iter().map(SessionFeatures::extract).collect();
    // Ground truth per session: 0 = legit, 1 = spinner, 2 = scraper.
    let classes: Vec<u8> = sessions
        .iter()
        .map(|s| {
            if s.records().iter().any(|r| r.truth_client == ClientId(1)) {
                1
            } else if s.records().iter().any(|r| r.truth_client == ClientId(2)) {
                2
            } else {
                0
            }
        })
        .collect();
    let labels: Vec<bool> = classes.iter().map(|&c| c == 1).collect();

    // Volume rule: robust outlier threshold (median + 10·MAD). Plain
    // mean+3σ self-destructs the moment a loud scraper inflates the
    // variance; median/MAD is what an operator actually deploys.
    let mut volumes: Vec<f64> = features.iter().map(|f| f.volume).collect();
    volumes.sort_by(|a, b| a.partial_cmp(b).expect("volumes are finite"));
    let median = volumes.get(volumes.len() / 2).copied().unwrap_or(0.0);
    let mut deviations: Vec<f64> = volumes.iter().map(|v| (v - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("deviations are finite"));
    let mad = deviations.get(deviations.len() / 2).copied().unwrap_or(0.0);
    let threshold = median + 10.0 * mad.max(0.5);

    let mut volume_cm = ConfusionMatrix::new();
    let mut domain_cm = ConfusionMatrix::new();
    let mut scraper_cm = ConfusionMatrix::new();
    for ((f, &y), &class) in features.iter().zip(&labels).zip(&classes) {
        volume_cm.record(y, f.volume > threshold);
        domain_cm.record(y, f.holds >= 2.0 && f.pays == 0.0);
        // The same volume rule, evaluated against the scraper class.
        scraper_cm.record(class == 2, f.volume > threshold);
    }

    let report = DetectorsReport {
        volume: RuleOutcome {
            rule: "volume(median+10·MAD)".to_owned(),
            recall: volume_cm.recall(),
            precision: volume_cm.precision(),
            confusion: volume_cm,
        },
        domain: RuleOutcome {
            rule: "domain(hold-no-pay)".to_owned(),
            recall: domain_cm.recall(),
            precision: domain_cm.precision(),
            confusion: domain_cm,
        },
        sessions: sessions.len(),
        bot_sessions: labels.iter().filter(|&&b| b).count(),
        volume_threshold: threshold,
        volume_on_scraper: RuleOutcome {
            rule: "volume-vs-scraper".to_owned(),
            recall: scraper_cm.recall(),
            precision: scraper_cm.precision(),
            confusion: scraper_cm,
        },
    };
    (report, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_rule_beats_volume_rule_on_low_volume_abuse() {
        let report = run(DetectorsConfig::default());
        assert!(report.bot_sessions > 15, "{report}");
        assert!(
            report.volume.recall < 0.3,
            "volume rule misses the low-volume bot: recall {:.3}",
            report.volume.recall
        );
        assert!(
            report.domain.recall > 0.7,
            "domain rule catches it: recall {:.3}",
            report.domain.recall
        );
        assert!(
            report.domain.precision > 0.8,
            "domain rule stays precise: {:.3}",
            report.domain.precision
        );
        // The same volume rule catches the loud scraper — it is not a straw
        // man; it simply measures the wrong thing for functional abuse.
        assert!(
            report.volume_on_scraper.recall > 0.7,
            "volume rule still catches scrapers: {:.3}",
            report.volume_on_scraper.recall
        );
    }

    #[test]
    fn report_renders() {
        let s = run(DetectorsConfig::default()).to_string();
        assert!(s.contains("volume"));
        assert!(s.contains("domain"));
    }
}
