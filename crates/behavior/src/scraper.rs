//! The classic web scraper — the paper's introductory functional abuse.
//!
//! "A well-known and straightforward example of such an attack is web
//! scraping … the exploited feature is the item display functionality."
//! The scraper is everything DoI and SMS-pumping bots are not: loud. It
//! crawls search and detail pages at machine rate, which is exactly what
//! classical volume-based behaviour detection (§III-A) and trap files catch.
//! It serves as the contrast class in the detector experiments.

use crate::api::{Agent, App, ClientRequest};
use fg_core::ids::{ClientId, CountryCode, FlightId};
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_fingerprint::rotation::{RotationSchedule, RotationStrategy, Rotator};
use fg_mitigation::gating::TrustTier;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::proxy::ProxyPool;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Scraper configuration.
#[derive(Clone, Debug)]
pub struct ScraperConfig {
    /// Flights whose prices/availability are being scraped.
    pub flights: Vec<FlightId>,
    /// Pages fetched per crawl burst.
    pub pages_per_burst: u32,
    /// Bursts per hour.
    pub bursts_per_hour: f64,
    /// Probability of following the hidden trap link per burst (naive
    /// crawlers follow every href; careful ones prune).
    pub trap_prob: f64,
    /// Stop after this instant.
    pub end_time: SimTime,
}

impl ScraperConfig {
    /// A naive fare scraper: fast, trap-blind.
    pub fn naive(flights: Vec<FlightId>, end_time: SimTime) -> Self {
        ScraperConfig {
            flights,
            pages_per_burst: 40,
            bursts_per_hour: 6.0,
            trap_prob: 0.3,
            end_time,
        }
    }
}

/// Observable scraper statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScraperStats {
    /// Pages successfully fetched.
    pub pages_fetched: u64,
    /// Requests refused by the defence.
    pub defence_refusals: u64,
}

/// The scraping agent.
#[derive(Debug)]
pub struct Scraper {
    config: ScraperConfig,
    client: ClientId,
    rotator: Rotator,
    proxies: ProxyPool,
    stats: ScraperStats,
    label: String,
}

impl Scraper {
    /// Creates the scraper.
    pub fn new(
        config: ScraperConfig,
        client: ClientId,
        geo: GeoDatabase,
        rng: &mut StdRng,
    ) -> Self {
        let rotator = Rotator::new(
            PopulationModel::default_web(),
            RotationStrategy::Naive { artifact_prob: 0.1 },
            RotationSchedule::Interval {
                mean: SimDuration::from_hours(2),
                jitter_frac: 0.3,
            },
            SimTime::ZERO,
            rng,
        );
        Scraper {
            proxies: ProxyPool::datacenter(&geo, 64),
            config,
            client,
            rotator,
            stats: ScraperStats::default(),
            label: "scraper".to_owned(),
        }
    }

    /// Observable statistics.
    pub fn stats(&self) -> ScraperStats {
        self.stats
    }
}

impl Agent for Scraper {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
        if now > self.config.end_time {
            return None;
        }
        self.rotator.tick(now, rng);
        // Cheap datacenter exits, one per burst.
        let ip = self
            .proxies
            .rent(CountryCode::new("US"), rng)
            .expect("US datacenter exits exist");
        let req = ClientRequest {
            client: self.client,
            ip,
            fingerprint: self.rotator.current().clone(),
            tier: TrustTier::Anonymous,
            is_bot: true,
        };

        // A burst: rapid-fire searches across the catalogue, seconds apart.
        for page in 0..self.config.pages_per_burst {
            let t = now + SimDuration::from_millis(i64::from(page) * 800);
            let outcome = app.search(&req, t);
            if outcome.is_ok() {
                self.stats.pages_fetched += 1;
                let _ = app
                    .availability(self.config.flights[page as usize % self.config.flights.len()]);
            } else {
                self.stats.defence_refusals += 1;
                break; // burst aborted; rotate and retry next burst
            }
        }
        let _ = rng.gen_bool(self.config.trap_prob.clamp(0.0, 1.0));

        let gap_secs = 3_600.0 / self.config.bursts_per_hour.max(0.01);
        Some(now + SimDuration::from_millis((gap_secs * rng.gen_range(0.7..1.3) * 1_000.0) as i64))
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiOutcome;
    use fg_core::ids::BookingRef;
    use fg_inventory::flight::Availability;
    use fg_inventory::passenger::Passenger;
    use rand::SeedableRng;

    struct CountingApp {
        searches: u64,
    }

    impl App for CountingApp {
        fn search(&mut self, _req: &ClientRequest, _now: SimTime) -> ApiOutcome<()> {
            self.searches += 1;
            ApiOutcome::Ok(())
        }
        fn hold(
            &mut self,
            _req: &ClientRequest,
            _flight: FlightId,
            _passengers: Vec<Passenger>,
            _now: SimTime,
        ) -> ApiOutcome<BookingRef> {
            ApiOutcome::Blocked
        }
        fn pay(&mut self, _req: &ClientRequest, _b: BookingRef, _now: SimTime) -> ApiOutcome<()> {
            ApiOutcome::Blocked
        }
        fn send_otp(
            &mut self,
            _req: &ClientRequest,
            _p: fg_core::ids::PhoneNumber,
            _now: SimTime,
        ) -> ApiOutcome<()> {
            ApiOutcome::Blocked
        }
        fn boarding_pass_sms(
            &mut self,
            _req: &ClientRequest,
            _b: BookingRef,
            _p: fg_core::ids::PhoneNumber,
            _now: SimTime,
        ) -> ApiOutcome<()> {
            ApiOutcome::Blocked
        }
        fn availability(&self, _flight: FlightId) -> Option<Availability> {
            Some(Availability {
                available: 100,
                held: 0,
                sold: 0,
            })
        }
        fn departure(&self, _flight: FlightId) -> Option<SimTime> {
            Some(SimTime::from_days(30))
        }
    }

    #[test]
    fn scraper_is_loud() {
        let mut app = CountingApp { searches: 0 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut bot = Scraper::new(
            ScraperConfig::naive(vec![FlightId(1), FlightId(2)], SimTime::from_days(1)),
            ClientId(3),
            GeoDatabase::default_world(),
            &mut rng,
        );
        let mut now = SimTime::ZERO;
        while let Some(next) = bot.wake(&mut app, now, &mut rng) {
            if next > SimTime::from_days(1) {
                break;
            }
            now = next;
        }
        // ~6 bursts/hour × 40 pages × 24 h ≈ 5760 pages.
        assert!(bot.stats().pages_fetched > 3_000, "{:?}", bot.stats());
        assert_eq!(app.searches, bot.stats().pages_fetched);
    }

    #[test]
    fn refused_burst_aborts_early() {
        struct RefusingApp;
        impl App for RefusingApp {
            fn search(&mut self, _req: &ClientRequest, _now: SimTime) -> ApiOutcome<()> {
                ApiOutcome::Blocked
            }
            fn hold(
                &mut self,
                _req: &ClientRequest,
                _flight: FlightId,
                _passengers: Vec<Passenger>,
                _now: SimTime,
            ) -> ApiOutcome<BookingRef> {
                ApiOutcome::Blocked
            }
            fn pay(&mut self, _r: &ClientRequest, _b: BookingRef, _n: SimTime) -> ApiOutcome<()> {
                ApiOutcome::Blocked
            }
            fn send_otp(
                &mut self,
                _r: &ClientRequest,
                _p: fg_core::ids::PhoneNumber,
                _n: SimTime,
            ) -> ApiOutcome<()> {
                ApiOutcome::Blocked
            }
            fn boarding_pass_sms(
                &mut self,
                _r: &ClientRequest,
                _b: BookingRef,
                _p: fg_core::ids::PhoneNumber,
                _n: SimTime,
            ) -> ApiOutcome<()> {
                ApiOutcome::Blocked
            }
            fn availability(&self, _f: FlightId) -> Option<Availability> {
                None
            }
            fn departure(&self, _f: FlightId) -> Option<SimTime> {
                None
            }
        }
        let mut app = RefusingApp;
        let mut rng = StdRng::seed_from_u64(2);
        let mut bot = Scraper::new(
            ScraperConfig::naive(vec![FlightId(1)], SimTime::from_hours(2)),
            ClientId(3),
            GeoDatabase::default_world(),
            &mut rng,
        );
        bot.wake(&mut app, SimTime::ZERO, &mut rng);
        assert_eq!(bot.stats().pages_fetched, 0);
        assert_eq!(bot.stats().defence_refusals, 1, "one refusal per burst");
    }
}
