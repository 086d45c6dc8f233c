//! The advanced SMS-pumping bot (§IV-C, Airline D).
//!
//! "Attackers purchased tickets … using fake data and (later discovered)
//! stolen credit cards. They repeatedly requested the boarding pass through
//! SMS via automated bot, leveraging residential proxies to rotate their
//! bots' IP addresses *while matching the countries associated with the
//! mobile numbers*. Additionally, they continuously altered their bots'
//! fingerprints."
//!
//! The bot runs two phases: **provision** (buy a handful of tickets) and
//! **pump** (flood boarding-pass SMS across premium destinations chosen by
//! expected payout). A separate [`SmsPumperConfig::otp_variant`] skips the
//! purchase and pumps the login-OTP endpoint instead — the classic,
//! cheaper-to-mount form.

use crate::api::{Agent, ApiOutcome, App, ClientRequest};
use crate::namegen::gibberish_party;
use fg_core::ids::{BookingRef, ClientId, CountryCode, FlightId, PhoneNumber};
use fg_core::money::Money;
use fg_core::stats::Categorical;
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_fingerprint::rotation::{RotationSchedule, RotationStrategy, Rotator};
use fg_mitigation::economics::AttackerLedger;
use fg_mitigation::gating::TrustTier;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::ip::IpClass;
use fg_netsim::proxy::ProxyPool;
use fg_smsgw::rates::RateTable;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// SMS-pumper configuration.
#[derive(Clone, Debug)]
pub struct SmsPumperConfig {
    /// Flight to buy enabling tickets on (boarding-pass variant).
    pub target_flight: FlightId,
    /// Tickets to purchase in the provisioning phase.
    pub tickets_to_buy: u32,
    /// What each ticket costs the attacker (≈ 0 with stolen cards, but the
    /// card-acquisition cost is real; default \$8 per ticket equivalent).
    pub ticket_cost: Money,
    /// SMS requests attempted per hour at full throttle.
    pub sms_per_hour: f64,
    /// Pump the OTP endpoint instead of boarding passes (no purchase phase).
    pub otp_variant: bool,
    /// Stop after this instant.
    pub end_time: SimTime,
    /// Fingerprint rotation cadence while pumping.
    pub rotation_schedule: RotationSchedule,
}

impl SmsPumperConfig {
    /// The Airline D / December-2022 configuration.
    pub fn airline_d(target_flight: FlightId, end_time: SimTime) -> Self {
        SmsPumperConfig {
            target_flight,
            tickets_to_buy: 5,
            ticket_cost: Money::from_units(8),
            sms_per_hour: 600.0,
            otp_variant: false,
            end_time,
            rotation_schedule: RotationSchedule::IntervalAndOnBlock {
                mean: SimDuration::from_hours(4),
                jitter_frac: 0.4,
                reaction: SimDuration::from_mins(20),
            },
        }
    }
}

/// Observable pumper statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PumperStats {
    /// Tickets successfully provisioned.
    pub tickets: u32,
    /// SMS successfully triggered.
    pub sms_sent: u64,
    /// Requests refused by the defence.
    pub defence_refusals: u64,
    /// Requests refused by the gateway quota.
    pub quota_refusals: u64,
    /// Distinct destination countries pumped.
    pub countries_used: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Provision,
    Pump,
    Done,
}

/// The SMS-pumping agent.
#[derive(Debug)]
pub struct SmsPumper {
    config: SmsPumperConfig,
    client: ClientId,
    rotator: Rotator,
    proxies: ProxyPool,
    geo: GeoDatabase,
    country_weights: Categorical<CountryCode>,
    tickets: Vec<BookingRef>,
    next_ticket_idx: usize,
    phase: Phase,
    ledger: AttackerLedger,
    stats: PumperStats,
    countries_seen: std::collections::HashSet<CountryCode>,
    backoff_until: SimTime,
    // Leased exits are reused across requests (real pumpers amortize proxy
    // cost); the cache is flushed on fingerprint rotation and refreshed per
    // exit after LEASE_REUSE requests.
    exit_cache: std::collections::HashMap<CountryCode, (fg_netsim::ip::IpAddress, u32)>,
    last_rotation_count: usize,
    label: String,
}

/// Requests served per proxy lease before renewing it.
const LEASE_REUSE: u32 = 50;

impl SmsPumper {
    /// Creates the bot. Country targeting weights are proportional to the
    /// economic value of each destination ([`RateTable::attack_value`]) —
    /// the paper found "no significant correlation between the targeted
    /// countries and the attacked domain"; the attacker follows the money.
    pub fn new(
        config: SmsPumperConfig,
        client: ClientId,
        geo: GeoDatabase,
        rates: &RateTable,
        rng: &mut StdRng,
    ) -> Self {
        let pairs: Vec<(CountryCode, f64)> = geo
            .countries()
            .iter()
            .map(|&c| (c, rates.attack_value(c).max(1e-6)))
            .collect();
        let country_weights = Categorical::new(pairs).expect("geo countries are non-empty");
        let rotator = Rotator::new(
            PopulationModel::default_web(),
            RotationStrategy::Mimicry,
            config.rotation_schedule,
            SimTime::ZERO,
            rng,
        );
        let phase = if config.otp_variant {
            Phase::Pump
        } else {
            Phase::Provision
        };
        SmsPumper {
            proxies: ProxyPool::residential(&geo, 64),
            config,
            client,
            rotator,
            geo,
            country_weights,
            tickets: Vec::new(),
            next_ticket_idx: 0,
            phase,
            ledger: AttackerLedger::new(),
            stats: PumperStats::default(),
            countries_seen: std::collections::HashSet::new(),
            backoff_until: SimTime::ZERO,
            exit_cache: std::collections::HashMap::new(),
            last_rotation_count: 0,
            label: "sms-pumper".to_owned(),
        }
    }

    /// The bot's ledger; the scenario adds SMS kickback revenue from the
    /// gateway's accounting.
    pub fn ledger(&self) -> AttackerLedger {
        let mut l = self.ledger;
        l.proxy_spend = self.proxies.total_spend();
        l
    }

    /// Observable statistics.
    pub fn stats(&self) -> PumperStats {
        let mut s = self.stats;
        s.countries_used = self.countries_seen.len() as u64;
        s
    }

    fn request_via(
        &mut self,
        country: CountryCode,
        now: SimTime,
        rng: &mut StdRng,
    ) -> ClientRequest {
        // A new fingerprint identity must not keep old exits (linkable);
        // flush the lease cache on rotation.
        let rotations = self.rotator.rotation_times().len();
        if rotations != self.last_rotation_count {
            self.last_rotation_count = rotations;
            self.exit_cache.clear();
        }
        // Geo-matched exit: rent in the SMS destination country (falling
        // back to any country with inventory), reusing each lease for
        // LEASE_REUSE requests to amortize its cost.
        let cached = self
            .exit_cache
            .get(&country)
            .filter(|&&(_, used)| used < LEASE_REUSE)
            .map(|&(ip, _)| ip);
        let ip = match cached {
            Some(ip) => {
                self.exit_cache
                    .entry(country)
                    .and_modify(|(_, used)| *used += 1);
                ip
            }
            None => {
                let fresh = self
                    .proxies
                    .rent(country, now, rng)
                    .or_else(|| self.proxies.rent_any(now, rng))
                    .map(|l| l.ip())
                    .unwrap_or_else(|| {
                        self.geo
                            .sample_ip(CountryCode::new("US"), IpClass::Datacenter, rng)
                            .expect("US datacenter space exists")
                    });
                self.exit_cache.insert(country, (fresh, 1));
                fresh
            }
        };
        ClientRequest {
            client: self.client,
            ip,
            fingerprint: self.rotator.current().clone(),
            tier: TrustTier::Anonymous,
            is_bot: true,
        }
    }

    fn provision(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) {
        let country = *self.country_weights.sample(rng);
        let req = self.request_via(country, now, rng);
        let party = gibberish_party(rng, 1);
        match app.hold(&req, self.config.target_flight, party, now) {
            ApiOutcome::Ok(reference) => {
                match app.pay(&req, reference, now + SimDuration::from_mins(2)) {
                    ApiOutcome::Ok(()) => {
                        self.tickets.push(reference);
                        self.ledger.purchase_spend += self.config.ticket_cost;
                        self.stats.tickets += 1;
                        if self.stats.tickets >= self.config.tickets_to_buy {
                            self.phase = Phase::Pump;
                        }
                    }
                    outcome => {
                        if outcome.defence_refused() {
                            self.on_refusal(now, rng);
                        }
                    }
                }
            }
            outcome => {
                if outcome.defence_refused() {
                    self.on_refusal(now, rng);
                }
            }
        }
    }

    fn on_refusal(&mut self, now: SimTime, rng: &mut StdRng) {
        self.stats.defence_refusals += 1;
        self.rotator.notify_blocked(now, rng);
        self.exit_cache.clear(); // the current exits may be burned
        self.backoff_until = now + SimDuration::from_mins(rng.gen_range(5..30));
    }

    fn pump_one(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) {
        let country = *self.country_weights.sample(rng);
        let phone = PhoneNumber::new(country, 900_000_000 + rng.gen_range(0..1_000_000));
        let req = self.request_via(country, now, rng);

        let outcome = if self.config.otp_variant {
            app.send_otp(&req, phone, now)
        } else {
            // Round-robin across the provisioned booking references.
            let Some(&booking) = self
                .tickets
                .get(self.next_ticket_idx % self.tickets.len().max(1))
            else {
                self.phase = Phase::Done;
                return;
            };
            self.next_ticket_idx += 1;
            app.boarding_pass_sms(&req, booking, phone, now)
        };

        match outcome {
            ApiOutcome::Ok(()) => {
                self.stats.sms_sent += 1;
                self.countries_seen.insert(country);
            }
            ApiOutcome::QuotaExceeded => {
                self.stats.quota_refusals += 1;
            }
            o if o.defence_refused() => self.on_refusal(now, rng),
            _ => {}
        }
    }
}

impl Agent for SmsPumper {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
        if now > self.config.end_time || self.phase == Phase::Done {
            return None;
        }
        self.rotator.tick(now, rng);

        if now >= self.backoff_until {
            match self.phase {
                Phase::Provision => self.provision(app, now, rng),
                Phase::Pump => self.pump_one(app, now, rng),
                Phase::Done => return None,
            }
        }

        let gap_secs = 3_600.0 / self.config.sms_per_hour.max(0.01);
        let jitter = rng.gen_range(0.5..1.5);
        Some(now + SimDuration::from_millis((gap_secs * jitter * 1_000.0) as i64))
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
    use fg_inventory::system::ReservationSystem;
    use fg_smsgw::gateway::Gateway;
    use fg_smsgw::message::{SmsKind, SmsMessage};
    use rand::SeedableRng;

    /// An undefended app with a real reservation system and SMS gateway.
    struct OpenApp {
        sys: ReservationSystem,
        gw: Gateway,
    }

    impl OpenApp {
        fn new() -> Self {
            let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
            sys.add_flight(Flight::new(FlightId(1), 300, SimTime::from_days(60)));
            OpenApp {
                sys,
                gw: Gateway::default_network(),
            }
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
            phone: PhoneNumber,
            now: SimTime,
        ) -> ApiOutcome<()> {
            let r = self.gw.send(SmsMessage::new(phone, SmsKind::Otp), now);
            if r.quota_exceeded {
                ApiOutcome::QuotaExceeded
            } else {
                ApiOutcome::Ok(())
            }
        }
        fn boarding_pass_sms(
            &mut self,
            _req: &ClientRequest,
            booking: BookingRef,
            phone: PhoneNumber,
            now: SimTime,
        ) -> ApiOutcome<()> {
            match self.sys.issue_boarding_pass(booking) {
                Ok(_) => {
                    let r = self
                        .gw
                        .send(SmsMessage::new(phone, SmsKind::BoardingPass(booking)), now);
                    if r.quota_exceeded {
                        ApiOutcome::QuotaExceeded
                    } else {
                        ApiOutcome::Ok(())
                    }
                }
                Err(e) => ApiOutcome::Domain(e),
            }
        }
        fn availability(&self, flight: FlightId) -> Option<Availability> {
            self.sys.availability(flight)
        }
        fn departure(&self, flight: FlightId) -> Option<SimTime> {
            self.sys.flight(flight).map(|f| f.departure())
        }
    }

    fn run(days: u64, otp: bool, seed: u64) -> (SmsPumper, OpenApp) {
        let mut app = OpenApp::new();
        let geo = GeoDatabase::default_world();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = SmsPumperConfig::airline_d(FlightId(1), SimTime::from_days(days));
        config.otp_variant = otp;
        let mut bot = SmsPumper::new(config, ClientId(888), geo, app.gw.rates(), &mut rng);
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
    fn provisions_tickets_then_pumps() {
        let (bot, app) = run(2, false, 1);
        let s = bot.stats();
        assert_eq!(s.tickets, 5, "provisioned the configured tickets");
        assert!(s.sms_sent > 5_000, "pumped hard: {}", s.sms_sent);
        assert!(
            app.gw.owner_cost() > Money::from_units(100),
            "owner pays: {}",
            app.gw.owner_cost()
        );
        assert!(app.gw.attacker_revenue() > Money::ZERO, "kickbacks flow");
    }

    #[test]
    fn targets_premium_head_countries() {
        let (_, app) = run(2, false, 2);
        let uz = app.gw.sent_to(CountryCode::new("UZ"));
        let fr = app.gw.sent_to(CountryCode::new("FR"));
        assert!(uz > fr * 5, "premium UZ ({uz}) dwarfs ordinary FR ({fr})");
    }

    #[test]
    fn spreads_across_many_countries() {
        let (bot, _) = run(2, false, 3);
        // §IV-C: 42 different countries. With value-weighted sampling over
        // 48, a two-day pump reaches most of them.
        assert!(
            bot.stats().countries_used >= 35,
            "{}",
            bot.stats().countries_used
        );
    }

    #[test]
    fn otp_variant_needs_no_tickets() {
        let (bot, app) = run(1, true, 4);
        assert_eq!(bot.stats().tickets, 0);
        assert!(bot.stats().sms_sent > 2_000);
        assert_eq!(app.sys.booking_count(), 0, "no reservations at all");
    }

    #[test]
    fn geo_matches_exit_to_destination() {
        let mut app = OpenApp::new();
        let geo = GeoDatabase::default_world();
        let mut rng = StdRng::seed_from_u64(5);
        let mut bot = SmsPumper::new(
            SmsPumperConfig::airline_d(FlightId(1), SimTime::from_days(1)),
            ClientId(9),
            geo.clone(),
            app.gw.rates(),
            &mut rng,
        );
        let uz = CountryCode::new("UZ");
        let req = bot.request_via(uz, SimTime::ZERO, &mut rng);
        assert_eq!(
            geo.country_of(req.ip),
            Some(uz),
            "exit country matches number country"
        );
        let _ = &mut app;
    }

    #[test]
    fn profitable_when_undefended() {
        let (bot, app) = run(2, false, 6);
        let mut ledger = bot.ledger();
        ledger.sms_revenue = app.gw.attacker_revenue();
        assert!(
            !ledger.profit().is_negative(),
            "undefended pumping is profitable: {ledger}"
        );
    }

    #[test]
    fn ledger_counts_ticket_purchases() {
        let (bot, _) = run(1, false, 7);
        assert_eq!(bot.ledger().purchase_spend, Money::from_units(40)); // 5 × $8
    }
}
