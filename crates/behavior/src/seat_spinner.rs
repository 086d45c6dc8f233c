//! The automated Seat Spinning bot (§IV-A).
//!
//! Reproduces the Airline A attacker end to end:
//!
//! 1. **Reconnaissance** — probes the reservation system to learn the
//!    maximum Number in Party (from the application's own error message) and
//!    uses the configured hold-TTL knowledge "to devise an approach that
//!    maximized disruption while minimizing costs".
//! 2. **Stealth NiP choice** — books *below* the maximum ("they did not
//!    target the highest possible NiP value …, possibly to avoid triggering
//!    an immediate anomaly detection alert"): with max 9 and margin 3 the
//!    bot lands on the paper's NiP 6.
//! 3. **The hold-expiry loop** — "each new request sent as soon as the
//!    temporary hold on the previous one expired".
//! 4. **Adaptation** — when a NiP cap appears, it re-learns the maximum and
//!    continues at the cap; when blocked, it rotates fingerprint and proxy
//!    after a reaction delay (the 5.3 h statistic's mechanism).
//! 5. **Endgame** — activity ceases a configured time before departure
//!    ("the attack continued until two days before the flight's departure").

use crate::api::{Agent, ApiOutcome, App, ClientRequest};
use crate::namegen::{gibberish_party, RotatingBirthdateGenerator};
use fg_core::ids::{BookingRef, ClientId, CountryCode, FlightId};
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_fingerprint::rotation::{RotationSchedule, RotationStrategy, Rotator};
use fg_inventory::error::InventoryError;
use fg_mitigation::economics::AttackerLedger;
use fg_mitigation::gating::TrustTier;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::proxy::ProxyPool;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the bot chooses its party size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NipStrategy {
    /// Always this size (clamped to the learned maximum).
    Fixed(u32),
    /// `learned_max - margin`, falling back to the full maximum when the cap
    /// leaves no stealth room — the observed pre- and post-cap behaviour.
    StealthBelowMax {
        /// How far below the maximum to stay.
        margin: u32,
    },
    /// Small parties that blend into the typical 1–2 NiP mass — the evolved
    /// low-volume tactic the paper says attackers now open with.
    LowAndSlow(u32),
}

/// How the bot fabricates passenger details.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NameStyle {
    /// Random keyboard-mash entries.
    Gibberish,
    /// Fixed lead name with rotating birthdate (Airline B).
    RotatingBirthdate,
}

/// Seat-spinner configuration.
#[derive(Clone, Debug)]
pub struct SeatSpinnerConfig {
    /// The flight under attack.
    pub target_flight: FlightId,
    /// Party-size strategy.
    pub nip_strategy: NipStrategy,
    /// Passenger-detail style.
    pub name_style: NameStyle,
    /// Fingerprint fabrication strategy.
    pub rotation_strategy: RotationStrategy,
    /// Rotation schedule.
    pub rotation_schedule: RotationSchedule,
    /// Countries the proxy subscription covers.
    pub proxy_countries: Vec<CountryCode>,
    /// Use cheap datacenter exits instead of residential ones — the
    /// cost-cutting choice §III-B explains defenders can punish.
    pub datacenter_proxies: bool,
    /// Exits the proxy subscription offers per country.
    pub proxy_exits_per_country: usize,
    /// Bookings maintained concurrently.
    pub concurrent_holds: u32,
    /// The hold TTL the attacker learned during reconnaissance.
    pub known_hold_ttl: SimDuration,
    /// Stop this long before departure.
    pub stop_before_departure: SimDuration,
    /// Poll cadence between hold-expiry checks.
    pub recheck_interval: SimDuration,
}

impl SeatSpinnerConfig {
    /// The Airline A / May-2022 configuration: stealth NiP 3 below max,
    /// mimicry rotation reacting to blocks, gibberish names.
    pub fn airline_a(target_flight: FlightId) -> Self {
        SeatSpinnerConfig {
            target_flight,
            nip_strategy: NipStrategy::StealthBelowMax { margin: 3 },
            name_style: NameStyle::Gibberish,
            rotation_strategy: RotationStrategy::Mimicry,
            rotation_schedule: RotationSchedule::OnBlock {
                reaction: SimDuration::from_hours_f64(5.3),
            },
            proxy_countries: vec![
                CountryCode::new("US"),
                CountryCode::new("GB"),
                CountryCode::new("DE"),
                CountryCode::new("FR"),
            ],
            datacenter_proxies: false,
            proxy_exits_per_country: 64,
            concurrent_holds: 12,
            known_hold_ttl: SimDuration::from_mins(30),
            stop_before_departure: SimDuration::from_days(2),
            recheck_interval: SimDuration::from_mins(5),
        }
    }
}

/// Observable seat-spinner statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinnerStats {
    /// Holds successfully placed.
    pub holds_placed: u64,
    /// Seats currently believed held.
    pub seats_held_now: u64,
    /// Requests refused by the defence.
    pub defence_refusals: u64,
    /// Fingerprint rotations performed.
    pub rotations: u64,
    /// When the bot stopped, if it has.
    pub stopped_at: Option<SimTime>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Recon,
    Attack,
    Done,
}

/// The automated seat-spinner agent.
#[derive(Debug)]
pub struct SeatSpinner {
    config: SeatSpinnerConfig,
    client: ClientId,
    rotator: Rotator,
    proxies: ProxyPool,
    current_ip: fg_netsim::ip::IpAddress,
    learned_max_nip: Option<u32>,
    active_holds: Vec<(BookingRef, SimTime)>,
    phase: Phase,
    names: RotatingBirthdateGenerator,
    ledger: AttackerLedger,
    stats: SpinnerStats,
    label: String,
}

impl SeatSpinner {
    /// Creates the bot. `client` namespaces its ground-truth identity.
    pub fn new(
        config: SeatSpinnerConfig,
        client: ClientId,
        geo: GeoDatabase,
        rng: &mut StdRng,
    ) -> Self {
        let rotator = Rotator::new(
            PopulationModel::default_web(),
            config.rotation_strategy,
            config.rotation_schedule,
            SimTime::ZERO,
            rng,
        );
        let mut proxies = if config.datacenter_proxies {
            ProxyPool::datacenter(&geo, config.proxy_exits_per_country)
        } else {
            ProxyPool::residential(&geo, config.proxy_exits_per_country)
        };
        let country = config.proxy_countries[rng.gen_range(0..config.proxy_countries.len())];
        let current_ip = proxies
            .rent(country, rng)
            .expect("proxy countries exist in the geo database");
        let names = RotatingBirthdateGenerator::new(rng, 6);
        SeatSpinner {
            current_ip,
            config,
            client,
            rotator,
            proxies,
            learned_max_nip: None,
            active_holds: Vec::new(),
            phase: Phase::Recon,
            names,
            ledger: AttackerLedger::new(),
            stats: SpinnerStats::default(),
            label: "seat-spinner".to_owned(),
        }
    }

    /// The bot's profit-and-loss ledger (proxy spend accrues here).
    pub fn ledger(&self) -> AttackerLedger {
        let mut l = self.ledger;
        l.proxy_spend = self.proxies.total_spend();
        l
    }

    /// Observable statistics.
    pub fn stats(&self) -> SpinnerStats {
        let mut s = self.stats;
        s.seats_held_now = self.active_holds.len() as u64 * u64::from(self.chosen_nip());
        s.rotations = self.rotator.rotation_times().len() as u64;
        s
    }

    /// The fingerprint rotation history (for the 5.3 h statistic).
    pub fn rotation_times(&self) -> &[SimTime] {
        self.rotator.rotation_times()
    }

    /// The party size the bot currently uses.
    pub fn chosen_nip(&self) -> u32 {
        let max = self.learned_max_nip.unwrap_or(9);
        match self.config.nip_strategy {
            NipStrategy::Fixed(n) => n.min(max).max(1),
            NipStrategy::StealthBelowMax { margin } => {
                if max > margin + 2 {
                    max - margin
                } else {
                    max
                }
            }
            NipStrategy::LowAndSlow(n) => n.min(max).max(1),
        }
    }

    fn request(&self) -> ClientRequest {
        ClientRequest {
            client: self.client,
            ip: self.current_ip,
            fingerprint: self.rotator.current().clone(),
            tier: TrustTier::Anonymous,
            is_bot: true,
        }
    }

    fn on_refusal(&mut self, now: SimTime, rng: &mut StdRng) {
        self.stats.defence_refusals += 1;
        self.rotator.notify_blocked(now, rng);
        // Rotate the exit too: rent a fresh lease.
        let country =
            self.config.proxy_countries[rng.gen_range(0..self.config.proxy_countries.len())];
        if let Some(ip) = self.proxies.rent(country, rng) {
            self.current_ip = ip;
        }
    }

    fn party(&mut self, rng: &mut StdRng, n: u32) -> Vec<fg_inventory::passenger::Passenger> {
        match self.config.name_style {
            NameStyle::Gibberish => gibberish_party(rng, n as usize),
            NameStyle::RotatingBirthdate => self.names.next_party(rng, n as usize),
        }
    }

    fn recon(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) {
        // Probe with an oversized party; the error message leaks the cap.
        let probe = self.party(rng, 20);
        match app.hold(&self.request(), self.config.target_flight, probe, now) {
            ApiOutcome::Domain(InventoryError::PartyTooLarge { max, .. }) => {
                self.learned_max_nip = Some(max);
                self.phase = Phase::Attack;
            }
            ApiOutcome::Ok(reference) => {
                // No cap at 20 — treat 20 as the working maximum.
                self.learned_max_nip = Some(20);
                self.active_holds
                    .push((reference, now + self.config.known_hold_ttl));
                self.stats.holds_placed += 1;
                self.phase = Phase::Attack;
            }
            outcome => {
                if outcome.defence_refused() {
                    self.on_refusal(now, rng);
                }
                // Stay in recon; retry next wake.
            }
        }
    }

    fn attack(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) {
        // Drop expired holds — and replace them immediately.
        self.active_holds.retain(|&(_, expiry)| expiry > now);

        let mut attempts = 0;
        while (self.active_holds.len() as u32) < self.config.concurrent_holds && attempts < 30 {
            attempts += 1;
            let nip = self.chosen_nip();
            let party = self.party(rng, nip);
            match app.hold(&self.request(), self.config.target_flight, party, now) {
                ApiOutcome::Ok(reference) => {
                    self.active_holds
                        .push((reference, now + self.config.known_hold_ttl));
                    self.stats.holds_placed += 1;
                }
                ApiOutcome::Domain(InventoryError::PartyTooLarge { max, .. }) => {
                    // The defender moved the cap mid-attack: adapt and retry.
                    self.learned_max_nip = Some(max);
                }
                ApiOutcome::Domain(InventoryError::InsufficientSeats { available, .. }) => {
                    // Flight exhausted (partly by us): take whatever remains.
                    if available == 0 {
                        break;
                    }
                    let party = self.party(rng, available.min(self.chosen_nip()));
                    if let ApiOutcome::Ok(reference) =
                        app.hold(&self.request(), self.config.target_flight, party, now)
                    {
                        self.active_holds
                            .push((reference, now + self.config.known_hold_ttl));
                        self.stats.holds_placed += 1;
                    }
                    break;
                }
                ApiOutcome::Domain(_) => break,
                _refused => {
                    self.on_refusal(now, rng);
                    break; // wait for rotation before hammering on
                }
            }
        }
    }
}

impl Agent for SeatSpinner {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
        if self.phase == Phase::Done {
            return None;
        }
        // Endgame: stop before departure.
        if let Some(dep) = app.departure(self.config.target_flight) {
            if now >= dep - self.config.stop_before_departure {
                self.phase = Phase::Done;
                self.stats.stopped_at = Some(now);
                return None;
            }
        }

        self.rotator.tick(now, rng);
        match self.phase {
            Phase::Recon => self.recon(app, now, rng),
            Phase::Attack => self.attack(app, now, rng),
            Phase::Done => return None,
        }

        // Wake at the earliest hold expiry (to re-hold instantly) or the
        // regular recheck, whichever comes first.
        let next_expiry = self
            .active_holds
            .iter()
            .map(|&(_, e)| e)
            .min()
            .unwrap_or(SimTime::MAX);
        Some(next_expiry.min(now + self.config.recheck_interval))
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::money::Money;
    use fg_inventory::flight::{Availability, Flight};
    use fg_inventory::passenger::Passenger;
    use fg_inventory::system::ReservationSystem;
    use rand::SeedableRng;

    /// An undefended app over a real reservation system.
    struct OpenApp {
        sys: ReservationSystem,
    }

    impl OpenApp {
        fn new(capacity: u32, max_nip: u32, departure_days: u64) -> Self {
            let mut sys = ReservationSystem::new(SimDuration::from_mins(30), max_nip);
            sys.add_flight(Flight::new(
                FlightId(1),
                capacity,
                SimTime::from_days(departure_days),
            ));
            OpenApp { sys }
        }
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
    }

    fn drive(bot: &mut SeatSpinner, app: &mut OpenApp, until: SimTime, seed: u64) {
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
    fn recon_learns_the_nip_cap_from_the_error() {
        let mut app = OpenApp::new(180, 9, 30);
        let mut rng = StdRng::seed_from_u64(1);
        let mut bot = SeatSpinner::new(
            SeatSpinnerConfig::airline_a(FlightId(1)),
            ClientId(666),
            GeoDatabase::default_world(),
            &mut rng,
        );
        bot.wake(&mut app, SimTime::ZERO, &mut rng);
        assert_eq!(bot.learned_max_nip, Some(9));
        // Stealth: 3 below the max of 9 → the paper's NiP 6.
        assert_eq!(bot.chosen_nip(), 6);
    }

    #[test]
    fn spinning_loop_keeps_seats_held() {
        let mut app = OpenApp::new(180, 9, 30);
        let mut rng = StdRng::seed_from_u64(2);
        let mut bot = SeatSpinner::new(
            SeatSpinnerConfig::airline_a(FlightId(1)),
            ClientId(666),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_days(2), 3);
        let s = bot.stats();
        // 12 concurrent holds × 6 seats ≈ 72 seats continuously denied.
        assert!(
            s.holds_placed > 100,
            "re-holding loop ran: {}",
            s.holds_placed
        );
        let a = app.sys.availability(FlightId(1)).unwrap();
        assert!(a.held >= 60, "sustained seat denial: {a}");
        assert_eq!(a.sold, 0, "the spinner never pays");
    }

    #[test]
    fn adapts_to_mid_attack_cap() {
        let mut app = OpenApp::new(180, 9, 30);
        let mut rng = StdRng::seed_from_u64(3);
        let mut bot = SeatSpinner::new(
            SeatSpinnerConfig::airline_a(FlightId(1)),
            ClientId(666),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_hours(12), 4);
        assert_eq!(bot.chosen_nip(), 6);

        // The defender caps NiP at 4 (the Fig. 1 mitigation).
        app.sys.set_max_nip(4);
        drive(&mut bot, &mut app, SimTime::from_days(1), 5);
        assert_eq!(bot.learned_max_nip, Some(4), "cap re-learned");
        assert_eq!(bot.chosen_nip(), 4, "attack continues at the cap");
    }

    #[test]
    fn stops_before_departure() {
        let mut app = OpenApp::new(60, 9, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut bot = SeatSpinner::new(
            SeatSpinnerConfig::airline_a(FlightId(1)),
            ClientId(666),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_days(10), 7);
        let stopped = bot.stats().stopped_at.expect("bot reached its endgame");
        // Departure day 5, stop 2 days before: must stop near day 3.
        assert!(stopped >= SimTime::from_days(3) - SimDuration::from_mins(30));
        assert!(stopped < SimTime::from_days(3) + SimDuration::from_hours(1));
    }

    #[test]
    fn low_and_slow_strategy_books_small_parties() {
        let mut app = OpenApp::new(180, 9, 30);
        let mut rng = StdRng::seed_from_u64(8);
        let mut config = SeatSpinnerConfig::airline_a(FlightId(1));
        config.nip_strategy = NipStrategy::LowAndSlow(2);
        config.concurrent_holds = 4;
        let mut bot = SeatSpinner::new(
            config,
            ClientId(667),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_days(1), 9);
        assert_eq!(bot.chosen_nip(), 2);
        let held = app.sys.availability(FlightId(1)).unwrap().held;
        assert!(held <= 8, "low-and-slow holds stay small: {held}");
    }

    #[test]
    fn ledger_accrues_proxy_spend() {
        let mut app = OpenApp::new(180, 9, 30);
        let mut rng = StdRng::seed_from_u64(10);
        let mut bot = SeatSpinner::new(
            SeatSpinnerConfig::airline_a(FlightId(1)),
            ClientId(666),
            GeoDatabase::default_world(),
            &mut rng,
        );
        drive(&mut bot, &mut app, SimTime::from_days(1), 11);
        assert!(bot.ledger().proxy_spend > Money::ZERO);
        assert!(
            bot.ledger().profit().is_negative(),
            "pure DoI has no direct revenue"
        );
    }
}
