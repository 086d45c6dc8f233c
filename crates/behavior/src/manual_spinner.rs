//! The manual Seat Spinning attacker (§IV-B, Airline C).
//!
//! "Individuals seeking to secure specific seats on an upcoming flight":
//! the same fixed set of passenger names reused in different orders, slight
//! misspellings betraying manual input, a broad range of IP addresses but a
//! perfectly ordinary (non-rotating) browser fingerprint, human pacing, and
//! no automation tells at all — "traditional bot-detection alerts are not
//! triggered".

use crate::api::{Agent, ApiOutcome, App, ClientRequest};
use crate::namegen::PermutedSetGenerator;
use fg_core::ids::{ClientId, CountryCode, FlightId};
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::attributes::Fingerprint;
use fg_fingerprint::population::PopulationModel;
use fg_mitigation::gating::TrustTier;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::proxy::ProxyPool;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Manual-spinner configuration.
#[derive(Clone, Debug)]
pub struct ManualSpinnerConfig {
    /// The flight whose seats the attacker wants to monopolize.
    pub target_flight: FlightId,
    /// Size of the fixed passenger pool (= party size per booking).
    pub pool_size: usize,
    /// Per-passenger typo probability (manual input slips).
    pub typo_prob: f64,
    /// Sessions per day (a human does this a few times daily).
    pub sessions_per_day: f64,
    /// Countries the attacker's VPN exits cover.
    pub proxy_countries: Vec<CountryCode>,
    /// Stop after this instant.
    pub end_time: SimTime,
    /// The hold TTL the attacker knows (to come back right after expiry).
    pub known_hold_ttl: SimDuration,
}

impl ManualSpinnerConfig {
    /// The Airline C / December-2024 configuration.
    pub fn airline_c(target_flight: FlightId, end_time: SimTime) -> Self {
        ManualSpinnerConfig {
            target_flight,
            pool_size: 4,
            typo_prob: 0.12,
            sessions_per_day: 20.0,
            proxy_countries: vec![
                CountryCode::new("US"),
                CountryCode::new("GB"),
                CountryCode::new("FR"),
                CountryCode::new("DE"),
                CountryCode::new("ES"),
                CountryCode::new("IT"),
            ],
            end_time,
            known_hold_ttl: SimDuration::from_mins(30),
        }
    }
}

/// Observable manual-spinner statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManualStats {
    /// Sessions run.
    pub sessions: u64,
    /// Holds placed.
    pub holds_placed: u64,
    /// Requests refused by the defence.
    pub defence_refusals: u64,
}

/// The manual seat-spinner agent.
#[derive(Debug)]
pub struct ManualSpinner {
    config: ManualSpinnerConfig,
    client: ClientId,
    fingerprint: Fingerprint,
    names: PermutedSetGenerator,
    proxies: ProxyPool,
    stats: ManualStats,
    label: String,
}

impl ManualSpinner {
    /// Creates the attacker with one ordinary, *stable* browser fingerprint.
    pub fn new(
        config: ManualSpinnerConfig,
        client: ClientId,
        geo: GeoDatabase,
        rng: &mut StdRng,
    ) -> Self {
        let names = PermutedSetGenerator::new(rng, config.pool_size, config.typo_prob);
        ManualSpinner {
            fingerprint: PopulationModel::default_web().sample_human(rng),
            proxies: ProxyPool::residential(&geo, 32),
            config,
            client,
            names,
            stats: ManualStats::default(),
            label: "manual-spinner".to_owned(),
        }
    }

    /// Observable statistics.
    pub fn stats(&self) -> ManualStats {
        self.stats
    }

    fn request(&mut self, rng: &mut StdRng) -> ClientRequest {
        // A broad range of IPs — but the same browser every time.
        let country =
            self.config.proxy_countries[rng.gen_range(0..self.config.proxy_countries.len())];
        let ip = self
            .proxies
            .rent(country, rng)
            .expect("proxy countries exist in the geo database");
        ClientRequest {
            client: self.client,
            ip,
            fingerprint: self.fingerprint.clone(),
            tier: TrustTier::Verified, // a real account, like a real user
            is_bot: false,             // manual: solves CAPTCHAs personally
        }
    }
}

impl Agent for ManualSpinner {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
        if now > self.config.end_time {
            return None;
        }
        self.stats.sessions += 1;
        let req = self.request(rng);

        // A human session: browse a little, then hold the usual party.
        let _ = app.search(&req, now);
        let _ = app.search(&req, now + SimDuration::from_secs(rng.gen_range(20..90)));
        let party = self.names.next_party(rng, self.config.pool_size);
        let t_hold = now + SimDuration::from_secs(rng.gen_range(120..300));
        match app.hold(&req, self.config.target_flight, party, t_hold) {
            ApiOutcome::Ok(_) => self.stats.holds_placed += 1,
            outcome if outcome.defence_refused() => self.stats.defence_refusals += 1,
            _ => {}
        }

        // Come back roughly when the hold lapses (to re-grab the seats), with
        // human jitter, at the configured daily cadence.
        let mean_gap_secs = 86_400.0 / self.config.sessions_per_day.max(0.1);
        let gap = self
            .config
            .known_hold_ttl
            .as_secs_f64()
            .max(mean_gap_secs * rng.gen_range(0.5..1.5));
        Some(now + SimDuration::from_millis((gap * 1_000.0) as i64))
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::ids::BookingRef;
    use fg_detection::names::NameAbuseAnalyzer;
    use fg_inventory::flight::{Availability, Flight};
    use fg_inventory::passenger::Passenger;
    use fg_inventory::system::ReservationSystem;
    use rand::SeedableRng;

    struct OpenApp {
        sys: ReservationSystem,
        parties: Vec<Vec<Passenger>>,
    }

    impl App for OpenApp {
        fn search(&mut self, _req: &ClientRequest, _now: SimTime) -> ApiOutcome<()> {
            ApiOutcome::Ok(())
        }
        fn hold(
            &mut self,
            _req: &ClientRequest,
            flight: FlightId,
            passengers: Vec<Passenger>,
            now: SimTime,
        ) -> ApiOutcome<BookingRef> {
            self.parties.push(passengers.clone());
            match self.sys.hold(flight, passengers, now) {
                Ok(r) => ApiOutcome::Ok(r),
                Err(e) => ApiOutcome::Domain(e),
            }
        }
        fn pay(
            &mut self,
            _req: &ClientRequest,
            _booking: BookingRef,
            _now: SimTime,
        ) -> ApiOutcome<()> {
            ApiOutcome::Ok(())
        }
        fn send_otp(
            &mut self,
            _req: &ClientRequest,
            _phone: fg_core::ids::PhoneNumber,
            _now: SimTime,
        ) -> ApiOutcome<()> {
            ApiOutcome::Ok(())
        }
        fn boarding_pass_sms(
            &mut self,
            _req: &ClientRequest,
            _booking: BookingRef,
            _phone: fg_core::ids::PhoneNumber,
            _now: SimTime,
        ) -> ApiOutcome<()> {
            ApiOutcome::Ok(())
        }
        fn availability(&self, flight: FlightId) -> Option<Availability> {
            self.sys.availability(flight)
        }
        fn departure(&self, flight: FlightId) -> Option<SimTime> {
            self.sys.flight(flight).map(|f| f.departure())
        }
    }

    fn run(seed: u64, days: u64) -> (ManualSpinner, OpenApp) {
        let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
        sys.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(60)));
        let mut app = OpenApp {
            sys,
            parties: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bot = ManualSpinner::new(
            ManualSpinnerConfig::airline_c(FlightId(1), SimTime::from_days(days)),
            ClientId(777),
            GeoDatabase::default_world(),
            &mut rng,
        );
        let mut now = SimTime::ZERO;
        loop {
            app.sys.expire_due(now);
            match bot.wake(&mut app, now, &mut rng) {
                Some(next) if next <= SimTime::from_days(days) => now = next,
                _ => break,
            }
        }
        (bot, app)
    }

    #[test]
    fn produces_the_airline_c_signature() {
        let (bot, app) = run(1, 3);
        assert!(bot.stats().holds_placed >= 10, "{:?}", bot.stats());
        let mut analyzer = NameAbuseAnalyzer::new();
        for party in &app.parties {
            analyzer.record(party);
        }
        let report = analyzer.report();
        assert!(report.manual_suspected(), "{report:?}");
        assert!(!report.automated_suspected(), "{report:?}");
    }

    #[test]
    fn fingerprint_is_stable_across_sessions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bot = ManualSpinner::new(
            ManualSpinnerConfig::airline_c(FlightId(1), SimTime::from_days(2)),
            ClientId(7),
            GeoDatabase::default_world(),
            &mut rng,
        );
        let a = bot.request(&mut rng);
        let b = bot.request(&mut rng);
        assert_eq!(
            a.fingerprint.identity_hash(),
            b.fingerprint.identity_hash(),
            "no rotation — it's a real browser"
        );
        assert_ne!(a.ip, b.ip, "but IPs vary across sessions");
    }

    #[test]
    fn pacing_is_human_scale() {
        let (bot, _) = run(3, 2);
        // ~20 sessions/day for 2 days, ± jitter; far from bot volume.
        let s = bot.stats().sessions;
        assert!((20..=120).contains(&s), "sessions {s}");
    }

    #[test]
    fn stops_at_end_time() {
        let (bot, _) = run(4, 1);
        let sessions_after_1d = bot.stats().sessions;
        assert!(
            sessions_after_1d < 80,
            "bounded by horizon: {sessions_after_1d}"
        );
    }
}
