//! The price-drop manipulator (§II-A).
//!
//! "In cases involving dynamic pricing, attackers strategically hold
//! reservations and items at lower fares without an investment to force
//! price drops before making a legitimate purchase." The agent runs the
//! Seat-Spinning hold loop to suppress real sales, watches the public fare
//! quote, and converts to a *genuine purchase* the moment the revenue-
//! management system capitulates (or its deadline arrives).

use crate::api::{Agent, ApiOutcome, App, ClientRequest};
use crate::namegen::legit_party;
use fg_core::ids::{BookingRef, ClientId, CountryCode, FlightId};
use fg_core::money::Money;
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_fingerprint::rotation::{RotationSchedule, RotationStrategy, Rotator};
use fg_mitigation::economics::AttackerLedger;
use fg_mitigation::gating::TrustTier;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::proxy::ProxyPool;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Fare-manipulator configuration.
#[derive(Clone, Debug)]
pub struct FareManipulatorConfig {
    /// The flight whose fare is being manipulated.
    pub target_flight: FlightId,
    /// Seats the attacker actually wants to buy at the bottom.
    pub seats_wanted: u32,
    /// Buy once the quote falls to this fraction of the opening quote.
    pub buy_at_fraction: f64,
    /// Give up waiting and buy this long before departure regardless.
    pub deadline_before_departure: SimDuration,
    /// Bookings maintained concurrently during the suppression phase.
    pub concurrent_holds: u32,
    /// The hold TTL the attacker learned.
    pub known_hold_ttl: SimDuration,
    /// Party size per suppression hold.
    pub hold_nip: u32,
}

impl FareManipulatorConfig {
    /// A typical manipulation campaign: hold aggressively, buy 4 seats once
    /// the fare dropped 25 %, never later than 3 days before departure.
    pub fn typical(target_flight: FlightId) -> Self {
        FareManipulatorConfig {
            target_flight,
            seats_wanted: 4,
            buy_at_fraction: 0.75,
            deadline_before_departure: SimDuration::from_days(3),
            concurrent_holds: 10,
            known_hold_ttl: SimDuration::from_mins(30),
            hold_nip: 6,
        }
    }
}

/// Observable manipulator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ManipulatorStats {
    /// Suppression holds placed.
    pub holds_placed: u64,
    /// The opening fare quote the campaign saw.
    pub opening_fare: Option<Money>,
    /// The fare actually paid per seat, once bought.
    pub bought_at: Option<Money>,
    /// Seats bought.
    pub seats_bought: u32,
    /// Defence refusals encountered.
    pub defence_refusals: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Suppress,
    Done,
}

/// The price-drop manipulation agent.
#[derive(Debug)]
pub struct FareManipulator {
    config: FareManipulatorConfig,
    client: ClientId,
    rotator: Rotator,
    proxies: ProxyPool,
    active_holds: Vec<(BookingRef, SimTime)>,
    current_ip: fg_netsim::ip::IpAddress,
    phase: Phase,
    stats: ManipulatorStats,
    ledger: AttackerLedger,
    label: String,
}

impl FareManipulator {
    /// Creates the agent.
    pub fn new(
        config: FareManipulatorConfig,
        client: ClientId,
        geo: GeoDatabase,
        rng: &mut StdRng,
    ) -> Self {
        let rotator = Rotator::new(
            PopulationModel::default_web(),
            RotationStrategy::Mimicry,
            RotationSchedule::OnBlock {
                reaction: SimDuration::from_hours(3),
            },
            SimTime::ZERO,
            rng,
        );
        let mut proxies = ProxyPool::residential(&geo, 64);
        let current_ip = proxies
            .rent(CountryCode::new("US"), rng)
            .expect("US residential exits exist");
        FareManipulator {
            current_ip,
            config,
            client,
            rotator,
            proxies,
            active_holds: Vec::new(),
            phase: Phase::Suppress,
            stats: ManipulatorStats::default(),
            ledger: AttackerLedger::new(),
            label: "fare-manipulator".to_owned(),
        }
    }

    /// Observable statistics.
    pub fn stats(&self) -> ManipulatorStats {
        self.stats
    }

    /// The campaign ledger: proxy spend, the genuine purchase, and the
    /// savings relative to the opening fare booked as `other_revenue`.
    pub fn ledger(&self) -> AttackerLedger {
        let mut l = self.ledger;
        l.proxy_spend = self.proxies.total_spend();
        l
    }

    fn request(&self) -> ClientRequest {
        ClientRequest {
            client: self.client,
            ip: self.current_ip,
            fingerprint: self.rotator.current().clone(),
            tier: TrustTier::Verified,
            is_bot: true,
        }
    }

    fn try_buy(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng, fare: Money) {
        // Release pressure: stop re-holding; buy as a clean, paying customer.
        let party = legit_party(rng, self.config.seats_wanted as usize);
        match app.hold(&self.request(), self.config.target_flight, party, now) {
            ApiOutcome::Ok(reference) => {
                match app.pay(&self.request(), reference, now + SimDuration::from_mins(3)) {
                    ApiOutcome::Ok(()) => {
                        self.stats.bought_at = Some(fare);
                        self.stats.seats_bought = self.config.seats_wanted;
                        self.ledger.purchase_spend += fare * u64::from(self.config.seats_wanted);
                        if let Some(open) = self.stats.opening_fare {
                            let saved = (open - fare) * u64::from(self.config.seats_wanted);
                            if saved.is_positive() {
                                self.ledger.other_revenue += saved;
                            }
                        }
                        self.phase = Phase::Done;
                    }
                    o if o.defence_refused() => {
                        self.stats.defence_refusals += 1;
                        self.rotator.notify_blocked(now, rng);
                    }
                    _ => {}
                }
            }
            o if o.defence_refused() => {
                self.stats.defence_refusals += 1;
                self.rotator.notify_blocked(now, rng);
            }
            _ => {}
        }
    }

    fn suppress(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) {
        self.active_holds.retain(|&(_, expiry)| expiry > now);
        let mut attempts = 0;
        while (self.active_holds.len() as u32) < self.config.concurrent_holds && attempts < 20 {
            attempts += 1;
            let party = legit_party(rng, self.config.hold_nip as usize);
            match app.hold(&self.request(), self.config.target_flight, party, now) {
                ApiOutcome::Ok(reference) => {
                    self.active_holds
                        .push((reference, now + self.config.known_hold_ttl));
                    self.stats.holds_placed += 1;
                }
                o if o.defence_refused() => {
                    self.stats.defence_refusals += 1;
                    self.rotator.notify_blocked(now, rng);
                    if let Some(ip) = self.proxies.rent(CountryCode::new("US"), rng) {
                        self.current_ip = ip;
                    }
                    break;
                }
                _ => break,
            }
        }
    }
}

impl Agent for FareManipulator {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
        if self.phase == Phase::Done {
            return None;
        }
        self.rotator.tick(now, rng);

        let fare = app.quote(self.config.target_flight, now);
        if self.stats.opening_fare.is_none() {
            self.stats.opening_fare = fare;
        }

        let departure = app.departure(self.config.target_flight)?;
        let deadline = departure - self.config.deadline_before_departure;

        let cheap_enough = match (fare, self.stats.opening_fare) {
            (Some(f), Some(open)) => f <= open.mul_f64(self.config.buy_at_fraction),
            _ => false,
        };
        if cheap_enough || now >= deadline {
            if let Some(f) = fare {
                self.try_buy(app, now, rng, f);
            }
            return if self.phase == Phase::Done {
                None
            } else {
                Some(now + SimDuration::from_mins(30))
            };
        }

        self.suppress(app, now, rng);
        let next_expiry = self
            .active_holds
            .iter()
            .map(|&(_, e)| e)
            .min()
            .unwrap_or(SimTime::MAX);
        Some(next_expiry.min(now + SimDuration::from_mins(15)))
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_inventory::flight::{Availability, Flight};
    use fg_inventory::passenger::Passenger;
    use fg_inventory::pricing::DynamicPricer;
    use fg_inventory::system::ReservationSystem;
    use rand::SeedableRng;

    /// A minimal dynamically-priced open app.
    struct PricedApp {
        sys: ReservationSystem,
        pricer: DynamicPricer,
    }

    impl PricedApp {
        fn new() -> Self {
            let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
            sys.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
            PricedApp {
                sys,
                pricer: DynamicPricer::airline(Money::from_units(100)),
            }
        }
    }

    impl App for PricedApp {
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
            match self.sys.hold(flight, passengers, now) {
                Ok(r) => ApiOutcome::Ok(r),
                Err(e) => ApiOutcome::Domain(e),
            }
        }
        fn pay(
            &mut self,
            _req: &ClientRequest,
            booking: BookingRef,
            now: SimTime,
        ) -> ApiOutcome<()> {
            match self
                .sys
                .pay(booking, now)
                .and_then(|()| self.sys.ticket(booking))
            {
                Ok(()) => ApiOutcome::Ok(()),
                Err(e) => ApiOutcome::Domain(e),
            }
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
        fn quote(&self, flight: FlightId, now: SimTime) -> Option<Money> {
            let a = self.sys.availability(flight)?;
            let dep = self.sys.flight(flight)?.departure();
            Some(self.pricer.quote(a, now, SimTime::ZERO, dep))
        }
    }

    fn drive(bot: &mut FareManipulator, app: &mut PricedApp, until: SimTime, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        loop {
            app.sys.expire_due(now);
            match bot.wake(app, now, &mut rng) {
                Some(next) if next <= until => now = next,
                _ => break,
            }
        }
    }

    #[test]
    fn suppression_forces_the_fare_down_then_buys() {
        let mut app = PricedApp::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut bot = FareManipulator::new(
            FareManipulatorConfig::typical(FlightId(1)),
            ClientId(13),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_days(29), 2);

        let stats = bot.stats();
        assert!(stats.holds_placed > 50, "{stats:?}");
        let open = stats.opening_fare.expect("saw an opening fare");
        let bought = stats.bought_at.expect("bought at the bottom");
        assert!(
            bought <= open.mul_f64(0.76),
            "bought at {bought} vs opening {open}"
        );
        assert_eq!(stats.seats_bought, 4);

        // The campaign ledger shows real savings.
        let ledger = bot.ledger();
        assert!(ledger.other_revenue.is_positive(), "{ledger}");
    }

    #[test]
    fn without_suppression_the_fare_stays_higher() {
        // Control: the same flight left alone sells nothing either, but the
        // manipulator's value is the *guarantee* of the bottom fare despite
        // genuine demand. Simulate genuine demand: pre-sell on pace, then
        // verify the quote never reaches the fire-sale floor.
        let mut app = PricedApp::new();
        let mut rng = StdRng::seed_from_u64(3);
        let req = ClientRequest {
            client: ClientId(99),
            ip: fg_netsim::ip::IpAddress::from_octets(10, 0, 0, 1),
            fingerprint: PopulationModel::default_web().sample_human(&mut rng),
            tier: TrustTier::Verified,
            is_bot: false,
        };
        for day in 0..29u64 {
            let now = SimTime::from_days(day);
            // Six seats per day keeps the flight on pace.
            let b = app
                .hold(&req, FlightId(1), legit_party(&mut rng, 6), now)
                .unwrap();
            app.pay(&req, b, now + SimDuration::from_mins(5)).unwrap();
        }
        let quote = app.quote(FlightId(1), SimTime::from_days(29)).unwrap();
        assert!(
            quote >= Money::from_units(90),
            "healthy flight never fire-sales: {quote}"
        );
    }

    #[test]
    fn deadline_forces_the_purchase() {
        let mut app = PricedApp::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut cfg = FareManipulatorConfig::typical(FlightId(1));
        cfg.buy_at_fraction = 0.01; // a bottom that never arrives
        let mut bot =
            FareManipulator::new(cfg, ClientId(14), GeoDatabase::default_world(), &mut rng);
        drive(&mut bot, &mut app, SimTime::from_days(29), 5);
        assert!(
            bot.stats().bought_at.is_some(),
            "deadline purchase happened: {:?}",
            bot.stats()
        );
    }
}
