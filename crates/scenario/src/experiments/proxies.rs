//! **§III-B proxy ablation** — why IP blocking dies against residential
//! pools.
//!
//! "Many bot operators leverage residential proxies … to add more legitimacy
//! to their fingerprints" (and, per ref \[23\], as DoI vectors). The same
//! seat spinner attacks the same IP-blocking defence twice — once from cheap
//! datacenter exits (a handful of /24s the reputation ledger's subnet
//! aggregation burns wholesale), once from residential exits scattered
//! across consumer space (every block only ever removes one device). The
//! differential is the paper's argument in numbers.

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
use serde::Serialize;
use std::fmt;

/// Proxy-ablation configuration.
#[derive(Clone, Debug)]
pub struct ProxiesConfig {
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

impl Default for ProxiesConfig {
    fn default() -> Self {
        ProxiesConfig {
            seed: 0x9120,
            days: 4,
            arrivals_per_day: 100.0,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }
}

/// A CI-sized config: two days, lighter traffic.
pub fn smoke_config() -> ProxiesConfig {
    ProxiesConfig {
        days: 2,
        arrivals_per_day: 40.0,
        ..ProxiesConfig::default()
    }
}

/// The defence deployments this experiment exercises, for `fg-analyze`'s
/// config pass.
pub fn defence_profiles() -> Vec<fg_mitigation::profile::DefenceProfile> {
    use fg_mitigation::profile::DefenceProfile;
    let config = ProxiesConfig::default();
    let mut policy = PolicyConfig::traditional_antibot();
    policy.block_threshold = 0.75;
    vec![DefenceProfile::airline("ip-reputation", policy)
        .horizon(fg_core::time::SimDuration::from_days(config.days as i64))
        .holds(config.arrivals_per_day, 576.0)
        .expected_bookings((config.arrivals_per_day * config.days as f64) as u64)
        .waive(
            "unguarded-channel",
            "the defence under study is IP reputation at the network edge, not a hold limiter",
        )]
}

/// The alert policy the sentinel evaluates online during this experiment:
/// IP blocking cannot burn a residential pool (§III-B), but the spinner's
/// NiP-6 holds still distort the hold-size distribution — the functional
/// signal stays visible whichever exits the attacker rents.
pub fn alert_policy() -> AlertPolicy {
    AlertPolicy::named("proxies-nip-drift")
        .rule(AlertRule::drift(
            "nip-distribution-drift",
            MetricSelector::exact("fg_nip_hold", &[]),
            SimDuration::from_hours(6),
            30,
            super::nip_baseline(),
            DriftStat::ChiSquarePerSample,
            0.5,
        ))
        .campaign(SimTime::ZERO, 1)
}

/// Registry entry for the multi-seed harness.
pub fn spec() -> crate::harness::ExperimentSpec {
    crate::harness::ExperimentSpec {
        name: "proxies",
        default_seed: ProxiesConfig::default().seed,
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

/// One arm's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ProxyArm {
    /// `true` for the datacenter arm.
    pub datacenter: bool,
    /// Mean hold ratio on the target flight after the defence warmed up.
    pub hold_ratio: f64,
    /// Holds the spinner got through.
    pub holds_placed: u64,
    /// Requests the defence refused.
    pub defence_refusals: u64,
    /// Distinct proxy leases the attacker consumed.
    pub leases_used: u64,
}

/// The proxy-ablation report.
#[derive(Clone, Debug, Serialize)]
pub struct ProxiesReport {
    /// Datacenter-exit arm.
    pub datacenter: ProxyArm,
    /// Residential-exit arm.
    pub residential: ProxyArm,
}

impl fmt::Display for ProxiesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Proxy ablation — the same spinner vs the same IP-blocking defence"
        )?;
        let row = |a: &ProxyArm| {
            vec![
                if a.datacenter {
                    "datacenter"
                } else {
                    "residential"
                }
                .to_owned(),
                format!("{:.1}%", a.hold_ratio * 100.0),
                a.holds_placed.to_string(),
                a.defence_refusals.to_string(),
                a.leases_used.to_string(),
            ]
        };
        write!(
            f,
            "{}",
            crate::report::render_table(
                &["Exits", "Hold ratio", "Holds placed", "Refusals", "Leases"],
                &[row(&self.datacenter), row(&self.residential)]
            )
        )
    }
}

fn run_arm(
    config: &ProxiesConfig,
    datacenter: bool,
    traces: bool,
) -> (
    ProxyArm,
    SentinelReport,
    Option<fg_telemetry::TraceSnapshot>,
) {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(config.days);

    // An IP-blocking-forward posture: reputation evidence alone suffices to
    // block (signal weight 0.8 ≥ threshold 0.75).
    let mut policy = PolicyConfig::traditional_antibot();
    policy.block_threshold = 0.75;
    let mut app = DefendedApp::new(
        AppConfig::airline(policy).with_concurrency(config.concurrency),
        fork.seed("app"),
    );
    app.attach_sentinel(alert_policy());
    if traces {
        app.telemetry()
            .enable_tracing(fg_telemetry::TraceConfig::default());
    }
    // A long-memory blocklist: confirmed attack exits stay burned for the
    // whole campaign (the realistic posture for manually curated lists).
    app.detection_mut()
        .replace_reputation(fg_netsim::reputation::ReputationLedger::new(
            SimDuration::from_days(14),
            3.0,
            10.0,
        ));
    let target = FlightId(1);
    app.add_flight(Flight::new(
        target,
        400,
        SimTime::from_days(config.days + 3),
    ));
    app.add_flight(Flight::new(
        FlightId(2),
        (config.arrivals_per_day * config.days as f64 * 2.0) as u32,
        SimTime::from_days(40),
    ));

    let mut sim = Simulation::new(app, fork.seed("sim"));
    // IP-only incident response: the dimension under test is the exit pool.
    // Name heuristics are off — in `report_ips_only` mode they feed nothing
    // but informational counters this report never reads, and their pairwise
    // misspelling clustering is quadratic in the window's passenger count
    // (the spinner's churning holds would dominate every review's cost).
    let team_cfg = TeamConfig {
        report_ips_only: true,
        use_name_heuristics: false,
        ..TeamConfig::default()
    };
    sim.with_team(team_cfg, SimDuration::from_mins(30), SimTime::from_mins(30));

    // Legit traffic books the background flight; the target's hold ratio
    // then isolates the spinner's achievable pressure under each exit class.
    let mut legit_cfg = LegitConfig::default_airline(vec![FlightId(2)], end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut spinner_cfg = SeatSpinnerConfig::airline_a(target);
    spinner_cfg.datacenter_proxies = datacenter;
    // Residential subscriptions offer orders of magnitude more exits than a
    // datacenter pool — that asymmetry is the §III-B point.
    spinner_cfg.proxy_exits_per_country = if datacenter { 64 } else { 2_048 };
    // Fast reactive rotation: the arms race runs many rounds in a short run,
    // so exit-pool burn-down, not fingerprint blocking, is the bottleneck.
    spinner_cfg.rotation_schedule = fg_fingerprint::rotation::RotationSchedule::OnBlock {
        reaction: SimDuration::from_mins(30),
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

    let app = sim.run(end);
    let alerts = app.sentinel_report(end).expect("sentinel attached above");

    let spinner = spinner.borrow();
    let stats = spinner.stats();
    let hold_ratio = mon
        .borrow()
        .mean_hold_ratio_between(SimTime::from_days(1), end);
    let arm = ProxyArm {
        datacenter,
        hold_ratio,
        holds_placed: stats.holds_placed,
        defence_refusals: stats.defence_refusals,
        leases_used: spinner.ledger().proxy_spend.as_f64() as u64, // ≥ leases × price
    };
    let trace_snapshot = traces.then(|| app.telemetry().trace_snapshot());
    (arm, alerts, trace_snapshot)
}

/// Runs both arms.
pub fn run(config: ProxiesConfig) -> ProxiesReport {
    run_observed(config, false).0
}

/// Runs both arms, also returning the sentinel outcome for the residential
/// arm — the paper's hard case, where IP blocking fails and the functional
/// drift alert is what still catches the attack.
///
/// With `traces`, span tracing is enabled on that arm and its trace export
/// is returned too. Tracing is read-only, so the report is unchanged.
pub fn run_observed(
    config: ProxiesConfig,
    traces: bool,
) -> (
    ProxiesReport,
    SentinelReport,
    Option<fg_telemetry::TraceSnapshot>,
) {
    let (datacenter, _, _) = run_arm(&config, true, false);
    let (residential, alerts, trace_snapshot) = run_arm(&config, false, traces);
    (
        ProxiesReport {
            datacenter,
            residential,
        },
        alerts,
        trace_snapshot,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residential_exits_sustain_the_attack_datacenter_exits_die() {
        let r = run(ProxiesConfig::default());
        assert!(
            r.residential.hold_ratio > r.datacenter.hold_ratio * 2.0,
            "residential {:.3} vs datacenter {:.3}",
            r.residential.hold_ratio,
            r.datacenter.hold_ratio
        );
        assert!(
            r.residential.holds_placed > r.datacenter.holds_placed,
            "residential {} vs datacenter {} holds",
            r.residential.holds_placed,
            r.datacenter.holds_placed
        );
    }

    #[test]
    fn report_renders() {
        let s = run(ProxiesConfig::default()).to_string();
        assert!(s.contains("residential"));
        assert!(s.contains("Hold ratio"));
    }
}
