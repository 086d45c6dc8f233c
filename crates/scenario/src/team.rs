//! The security team's incident-response loop.
//!
//! §IV-A describes the human side of the defence: engineers inspect
//! reservation requests, identify the attack's fingerprint patterns, and
//! deploy blocking rules — which the attacker then evades by rotation,
//! "typically … within an average of 5.3 hours", forcing the next rule.
//! [`SecurityTeam::review`] runs that loop on a cadence: it scans the recent
//! log window for hold-heavy, never-paying fingerprints and passenger-name
//! abuse, deploys block rules, and feeds IP reputation.

use crate::app::DefendedApp;
use fg_core::time::{SimDuration, SimTime};
use fg_detection::log::Endpoint;
use fg_detection::names::NameAbuseAnalyzer;
use fg_inventory::booking::BookingStatus;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Review-loop configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TeamConfig {
    /// How far back each review looks.
    pub window: SimDuration,
    /// Holds per fingerprint in the window above which, with zero payments,
    /// the fingerprint is deemed an attack identity.
    pub hold_threshold: u64,
    /// Whether name-pattern analysis may also trigger blocks.
    pub use_name_heuristics: bool,
    /// Respond with IP-reputation reports only, never fingerprint rules —
    /// the posture of a defender whose only lever is the network edge (used
    /// by the §III-B proxy ablation).
    pub report_ips_only: bool,
}

impl Default for TeamConfig {
    fn default() -> Self {
        TeamConfig {
            window: SimDuration::from_hours(6),
            hold_threshold: 6,
            use_name_heuristics: true,
            report_ips_only: false,
        }
    }
}

/// Outcome of one review pass.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReviewOutcome {
    /// Fingerprint identities newly blocked this pass.
    pub fingerprints_blocked: usize,
    /// IPs reported to reputation this pass.
    pub ips_reported: usize,
    /// Whether name heuristics flagged automated abuse in the window.
    pub automated_names_flagged: bool,
    /// Whether name heuristics flagged manual abuse in the window.
    pub manual_names_flagged: bool,
}

/// The periodic reviewer.
#[derive(Clone, Debug, Default)]
pub struct SecurityTeam {
    config: TeamConfig,
    already_blocked: std::collections::HashSet<u64>,
}

impl SecurityTeam {
    /// Creates a team with the given review parameters.
    pub fn new(config: TeamConfig) -> Self {
        SecurityTeam {
            config,
            already_blocked: std::collections::HashSet::new(),
        }
    }

    /// Runs one review pass over `app` at `now`.
    pub fn review(&mut self, app: &mut DefendedApp, now: SimTime) -> ReviewOutcome {
        let from = now - self.config.window;
        let mut outcome = ReviewOutcome::default();

        // 1. Funnel analysis per fingerprint hash: many holds, zero pays.
        let mut holds: HashMap<u64, u64> = HashMap::new();
        let mut pays: HashMap<u64, u64> = HashMap::new();
        let mut ips_used: HashMap<u64, std::collections::BTreeSet<fg_netsim::ip::IpAddress>> =
            HashMap::new();
        for rec in app.logs().iter().rev() {
            if rec.at < from {
                break; // logs are append-ordered; everything earlier is out of window
            }
            match rec.endpoint {
                Endpoint::Hold if rec.ok => {
                    *holds.entry(rec.fingerprint).or_insert(0) += 1;
                    ips_used.entry(rec.fingerprint).or_default().insert(rec.ip);
                }
                Endpoint::Pay if rec.ok => {
                    *pays.entry(rec.fingerprint).or_insert(0) += 1;
                }
                _ => {}
            }
        }

        let mut suspects: Vec<u64> = holds
            .iter()
            .filter(|(hash, &h)| {
                h >= self.config.hold_threshold
                    && pays.get(*hash).copied().unwrap_or(0) == 0
                    && !self.already_blocked.contains(*hash)
            })
            .map(|(&hash, _)| hash)
            .collect();
        suspects.sort_unstable(); // deterministic rule deployment order

        // 2. Name heuristics over recent bookings (corroboration + the
        //    manual-attack path that fingerprint analysis cannot see).
        if self.config.use_name_heuristics {
            let mut analyzer = NameAbuseAnalyzer::new();
            for booking in app.reservations().bookings() {
                if booking.created_at() >= from && booking.status() != BookingStatus::Cancelled {
                    analyzer.record(booking.passengers());
                }
            }
            let report = analyzer.report();
            outcome.automated_names_flagged = report.automated_suspected();
            outcome.manual_names_flagged = report.manual_suspected();
        }

        // 3. Deploy rules (or, in IP-only mode, just burn the exits). A real
        //    team blocks every exit the flagged identity used in the window.
        if self.config.report_ips_only {
            for hash in suspects {
                for &ip in ips_used.get(&hash).into_iter().flatten() {
                    // A manually confirmed attack exit carries heavy evidence
                    // (enough to trip the subnet aggregate on its own).
                    app.detection_mut().reputation_mut().report(ip, 12.0, now);
                    outcome.ips_reported += 1;
                }
            }
            return outcome;
        }
        for hash in suspects {
            if app.fingerprint_by_hash(hash).is_some() {
                // Identity-scoped rules only: attribute-combo rules match a
                // sizeable share of the genuine population (mimicry bots use
                // common configurations by design) and would lock real
                // customers out — the §V usability/security balance.
                app.core_mut().policy_mut().rules_mut().add_rule(
                    fg_mitigation::blocklist::BlockRule::FingerprintIdentity(hash),
                    now,
                );
                self.already_blocked.insert(hash);
                outcome.fingerprints_blocked += 1;
                for &ip in ips_used.get(&hash).into_iter().flatten() {
                    app.detection_mut().reputation_mut().report(ip, 5.0, now);
                    outcome.ips_reported += 1;
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppConfig;
    use fg_behavior::api::{App, ClientRequest};
    use fg_core::ids::{ClientId, CountryCode, FlightId};
    use fg_fingerprint::population::PopulationModel;
    use fg_inventory::flight::Flight;
    use fg_inventory::passenger::Passenger;
    use fg_mitigation::gating::TrustTier;
    use fg_mitigation::policy::PolicyConfig;
    use fg_netsim::geo::GeoDatabase;
    use fg_netsim::ip::IpClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(seed: u64, is_bot: bool) -> ClientRequest {
        let mut rng = StdRng::seed_from_u64(seed);
        ClientRequest {
            client: ClientId(seed),
            ip: GeoDatabase::default_world()
                .sample_ip(CountryCode::new("US"), IpClass::Residential, &mut rng)
                .unwrap(),
            fingerprint: PopulationModel::default_web().sample_human(&mut rng),
            tier: TrustTier::Verified,
            is_bot,
        }
    }

    fn app() -> DefendedApp {
        let mut a = DefendedApp::new(AppConfig::airline(PolicyConfig::traditional_antibot()), 3);
        a.add_flight(Flight::new(FlightId(1), 300, SimTime::from_days(30)));
        a
    }

    fn pax(tag: u64) -> Vec<Passenger> {
        vec![Passenger::simple(&format!("BOT{tag}"), "SPIN")]
    }

    #[test]
    fn blocks_hold_heavy_never_paying_fingerprints() {
        let mut a = app();
        let bot = request(1, true);
        // Ten holds, zero payments in the window.
        for i in 0..10u64 {
            a.hold(&bot, FlightId(1), pax(i), SimTime::from_mins(i * 31))
                .unwrap();
        }
        // Control: a human who holds once and pays.
        let human = request(2, false);
        let b = a
            .hold(&human, FlightId(1), pax(99), SimTime::from_mins(1))
            .unwrap();
        a.pay(&human, b, SimTime::from_mins(3)).unwrap();

        let mut team = SecurityTeam::new(TeamConfig::default());
        let outcome = team.review(&mut a, SimTime::from_hours(6));
        assert_eq!(outcome.fingerprints_blocked, 1, "{outcome:?}");
        assert_eq!(outcome.ips_reported, 1);

        // The bot's next request is blocked; the human's is not.
        assert!(a
            .hold(&bot, FlightId(1), pax(20), SimTime::from_hours(7))
            .defence_refused());
        assert!(a.search(&human, SimTime::from_hours(7)).is_ok());
    }

    #[test]
    fn does_not_reblock_the_same_identity() {
        let mut a = app();
        let bot = request(3, true);
        for i in 0..10u64 {
            a.hold(&bot, FlightId(1), pax(i), SimTime::from_mins(i * 31))
                .unwrap();
        }
        let mut team = SecurityTeam::new(TeamConfig::default());
        assert_eq!(
            team.review(&mut a, SimTime::from_hours(6))
                .fingerprints_blocked,
            1
        );
        assert_eq!(
            team.review(&mut a, SimTime::from_hours(6))
                .fingerprints_blocked,
            0
        );
    }

    #[test]
    fn paying_clients_are_never_flagged() {
        let mut a = app();
        let frequent = request(4, false);
        for i in 0..10u64 {
            let b = a
                .hold(&frequent, FlightId(1), pax(i), SimTime::from_mins(i * 40))
                .unwrap();
            a.pay(&frequent, b, SimTime::from_mins(i * 40 + 5)).unwrap();
        }
        let mut team = SecurityTeam::new(TeamConfig::default());
        let outcome = team.review(&mut a, SimTime::from_hours(8));
        assert_eq!(outcome.fingerprints_blocked, 0, "{outcome:?}");
    }

    #[test]
    fn window_excludes_old_activity() {
        let mut a = app();
        let bot = request(5, true);
        for i in 0..10u64 {
            a.hold(&bot, FlightId(1), pax(i), SimTime::from_mins(i * 31))
                .unwrap();
        }
        let mut team = SecurityTeam::new(TeamConfig::default());
        // Review two days later: the activity is out of the 6 h window.
        let outcome = team.review(&mut a, SimTime::from_days(2));
        assert_eq!(outcome.fingerprints_blocked, 0);
    }
}
