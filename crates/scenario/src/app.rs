//! The defended application: the simulator's substrate around the
//! [`DecisionCore`].

use fg_behavior::api::{ApiOutcome, App, ClientRequest};
use fg_core::ids::{BookingRef, ClientId, FlightId, PhoneNumber};
use fg_core::money::Money;
use fg_core::rng::SeedFork;
use fg_core::shard::{ConcurrencyMode, ShardedStore};
use fg_core::time::{SimDuration, SimTime};
use fg_detection::engine::DetectionEngine;
use fg_detection::log::{Endpoint, LogRecord, Method};
use fg_fingerprint::attributes::Fingerprint;
use fg_inventory::flight::{Availability, Flight};
use fg_inventory::passenger::Passenger;
use fg_inventory::system::ReservationSystem;
use fg_mitigation::captcha::CaptchaPolicy;
use fg_mitigation::economics::DefenderLedger;
use fg_mitigation::policy::{Decision, PolicyConfig};
use fg_sentinel::{AlertPolicy, Sentinel, SentinelReport};
use fg_smsgw::gateway::Gateway;
use fg_smsgw::message::{SmsKind, SmsMessage};
use fg_telemetry::audit::AuditRecord;
use fg_telemetry::metrics::{Counter, Gauge, Histogram, Latency};
use fg_telemetry::{RequestTrace, Telemetry};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::decision::DecisionCore;
pub use crate::decision::{GateDecision, TRACKED_MAPS};

/// Maximum Number in Party at launch; experiments lower it mid-run through
/// [`DefendedApp::reservations_mut`].
const MAX_NIP: u32 = 9;

/// Average ticket revenue per seat: the fare when no pricer is set, and
/// the unit of friction losses.
const SEAT_REVENUE: Money = Money::from_units(120);

/// Application-level configuration.
#[derive(Clone, Debug)]
pub struct AppConfig {
    /// Seat-hold TTL ("30 minutes to several hours depending on the domain").
    pub hold_ttl: SimDuration,
    /// The defensive posture.
    pub policy: PolicyConfig,
    /// Revenue-management pricing; `None` = a fixed fare per seat.
    pub pricing: Option<fg_inventory::pricing::DynamicPricer>,
    /// How the defence-state stores are partitioned.
    /// [`ConcurrencyMode::Deterministic`] (the default) is the single-shard
    /// experiment path; [`ConcurrencyMode::Sharded`] hash-partitions every
    /// keyed store so housekeeping stripes per shard. Replayed
    /// single-threaded, both modes produce byte-identical artifacts (see
    /// `tests/shard_independence.rs`).
    pub concurrency: ConcurrencyMode,
}

impl AppConfig {
    /// An Airline-A-style domain with the given defensive posture.
    pub fn airline(policy: PolicyConfig) -> Self {
        AppConfig {
            hold_ttl: SimDuration::from_mins(30),
            policy,
            pricing: None,
            concurrency: ConcurrencyMode::Deterministic,
        }
    }

    /// Returns the config with its [`ConcurrencyMode`] replaced — the
    /// experiment modules use this to thread the harness's `--shards`
    /// setting into the app without disturbing the rest of the posture.
    pub fn with_concurrency(mut self, concurrency: ConcurrencyMode) -> Self {
        self.concurrency = concurrency;
        self
    }
}

/// The defended application: reservation system + SMS gateway behind the
/// [`DecisionCore`].
///
/// # Example
///
/// ```
/// use fg_scenario::app::{AppConfig, DefendedApp};
/// use fg_mitigation::policy::PolicyConfig;
/// use fg_inventory::Flight;
/// use fg_core::ids::FlightId;
/// use fg_core::time::SimTime;
///
/// let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::recommended()), 42);
/// app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
/// assert_eq!(app.reservations().flight_ids(), vec![FlightId(1)]);
/// ```
#[derive(Debug)]
pub struct DefendedApp {
    core: DecisionCore,
    pricing: Option<fg_inventory::pricing::DynamicPricer>,
    reservations: ReservationSystem,
    gateway: Gateway,
    logs: Vec<LogRecord>,
    fingerprints_seen: ShardedStore<u64, HashMap<u64, Fingerprint>>,
    solver_spend: HashMap<ClientId, Money>,
    defender: DefenderLedger,
    captcha_rng: StdRng,
    ticket_revenue: Money,
    metrics: AppMetrics,
    sentinel: Option<Sentinel>,
    /// When recording, every gated request is appended here as a
    /// [`WireRequest`](crate::workload::WireRequest) — the replayable workload the serving layer's load
    /// generator and parity tests feed back through `/v1/decide`.
    recorder: Option<Vec<crate::workload::WireRequest>>,
}

/// Pre-registered handles for what the simulator's substrate records per
/// request, beside the series the [`DecisionCore`] registers.
#[derive(Debug)]
struct AppMetrics {
    challenges_solved: Counter,
    challenges_failed: Counter,
    human_abandons: Counter,
    /// Number-in-Party distribution of *accepted* real holds — the sentinel's
    /// drift rules compare this against the Fig. 1 baseline shape.
    nip_hold: Histogram,
    ticket_revenue: Gauge,
    solver_spend: Gauge,
    /// The `mitigation.captcha` stage latency cell.
    captcha: Latency,
}

impl AppMetrics {
    fn register(telemetry: &Telemetry) -> Self {
        let registry = telemetry.metrics();
        for (name, help) in [
            (
                "fg_challenges_total",
                "CAPTCHA challenges issued, by outcome",
            ),
            (
                "fg_human_abandons_total",
                "Humans who abandoned at a CAPTCHA (friction cost)",
            ),
            ("fg_nip_hold", "Number in Party of accepted real seat holds"),
            (
                "fg_ticket_revenue_units",
                "Cumulative ticket revenue collected, in currency units",
            ),
            (
                "fg_solver_spend_units",
                "Cumulative CAPTCHA-solver fees paid by bots, in currency units",
            ),
        ] {
            registry.set_help(name, help);
        }
        AppMetrics {
            challenges_solved: registry
                .counter_with("fg_challenges_total", &[("outcome", "solved")]),
            challenges_failed: registry
                .counter_with("fg_challenges_total", &[("outcome", "failed")]),
            human_abandons: registry.counter("fg_human_abandons_total"),
            nip_hold: registry.histogram(
                "fg_nip_hold",
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            ),
            ticket_revenue: registry.gauge("fg_ticket_revenue_units"),
            solver_spend: registry.gauge("fg_solver_spend_units"),
            captcha: telemetry.stage_latency("mitigation.captcha"),
        }
    }
}

impl DefendedApp {
    /// Creates the app with the given config and master seed (the seed only
    /// drives CAPTCHA outcome randomness). A fresh telemetry hub is created;
    /// use [`DefendedApp::with_telemetry`] to share one.
    pub fn new(config: AppConfig, seed: u64) -> Self {
        DefendedApp::with_telemetry(config, seed, Telemetry::shared())
    }

    /// Creates the app wired to an existing telemetry hub, so callers (e.g.
    /// the `experiments --telemetry` runner) keep access to metrics, audit
    /// trail, and stage profiles after the run.
    pub fn with_telemetry(config: AppConfig, seed: u64, telemetry: Arc<Telemetry>) -> Self {
        let shards = config.concurrency.shard_count();
        let mut gateway = Gateway::default_network();
        gateway.attach_telemetry(telemetry.clone());
        DefendedApp {
            metrics: AppMetrics::register(&telemetry),
            core: DecisionCore::new(config.policy, shards, telemetry),
            pricing: config.pricing,
            reservations: ReservationSystem::new(config.hold_ttl, MAX_NIP),
            gateway,
            logs: Vec::new(),
            fingerprints_seen: ShardedStore::new(shards, |_| HashMap::new()),
            solver_spend: HashMap::new(),
            defender: DefenderLedger::new(),
            captcha_rng: SeedFork::new(seed).rng("captcha"),
            ticket_revenue: Money::ZERO,
            sentinel: None,
            recorder: None,
        }
    }

    /// Starts recording every gated request as a replayable
    /// [`WireRequest`](crate::workload::WireRequest) stream. Recording is pure observation: it never
    /// changes decisions or any other artifact.
    pub fn record_workload(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Takes the recorded request stream (empty when recording was never
    /// enabled) and stops recording.
    pub fn take_workload(&mut self) -> Vec<crate::workload::WireRequest> {
        self.recorder.take().unwrap_or_default()
    }

    /// The decision core: detection, policy, honeypot and their counts.
    pub fn core(&self) -> &DecisionCore {
        &self.core
    }

    /// The decision core (mutable, for posture swaps and defender
    /// interventions such as deploying block rules).
    pub(crate) fn core_mut(&mut self) -> &mut DecisionCore {
        &mut self.core
    }

    /// The telemetry hub this app reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.core.telemetry()
    }

    /// Attaches an online alerting sentinel evaluating `policy` against this
    /// app's metrics on every housekeeping tick. Observation is read-only:
    /// attaching a sentinel never changes simulation behaviour.
    ///
    /// When the policy names an attacker client, that session is pinned in
    /// the tracer so its traces bypass allow-sampling — the incident's
    /// exemplar trace ids then always resolve in the exported trace file.
    pub fn attach_sentinel(&mut self, policy: AlertPolicy) {
        if let Some(attacker) = policy.attacker_client {
            self.telemetry().tracer().pin_session(attacker);
        }
        self.sentinel = Some(Sentinel::new(policy, self.telemetry().metrics()));
    }

    /// Final sentinel report (alert events, time-to-detection, incident
    /// timeline correlated with the decision audit trail) as of `end`.
    pub fn sentinel_report(&self, end: SimTime) -> Option<SentinelReport> {
        let telemetry = self.telemetry();
        let audit = telemetry.audit().snapshot();
        // When tracing ran, scope exemplar ids to the traces the tracer
        // actually retained so every cited id resolves in the export.
        let retained = telemetry
            .tracing_enabled()
            .then(|| telemetry.tracer().retained_ids());
        self.sentinel
            .as_ref()
            .map(|s| s.report_with_traces(end, &audit, retained.as_ref()))
    }

    /// Registers a flight.
    pub fn add_flight(&mut self, flight: Flight) {
        self.reservations.add_flight(flight);
    }

    /// The reservation core (read access).
    pub fn reservations(&self) -> &ReservationSystem {
        &self.reservations
    }

    /// The reservation core (mutable, for defender interventions such as
    /// changing the NiP cap mid-incident).
    pub fn reservations_mut(&mut self) -> &mut ReservationSystem {
        &mut self.reservations
    }

    /// The SMS gateway (read access — owner cost, surge tables, …).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The SMS gateway (mutable, for quota / operator interventions).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// The detection engine (mutable, e.g. to feed reputation).
    pub fn detection_mut(&mut self) -> &mut DetectionEngine {
        self.core.detection_mut()
    }

    /// Everything logged so far.
    pub fn logs(&self) -> &[LogRecord] {
        &self.logs
    }

    /// The full fingerprint last seen for an identity hash, if any.
    pub fn fingerprint_by_hash(&self, hash: u64) -> Option<&Fingerprint> {
        self.fingerprints_seen.shard(&hash).get(&hash)
    }

    /// CAPTCHA-solver fees charged to a client so far.
    pub fn solver_spend(&self, client: ClientId) -> Money {
        self.solver_spend
            .get(&client)
            .copied()
            .unwrap_or(Money::ZERO)
    }

    /// Ticket revenue collected so far (quoted fare × seats at payment).
    pub fn ticket_revenue(&self) -> Money {
        self.ticket_revenue
    }

    /// The fare a seat on `flight` costs at `now` (dynamic when configured,
    /// else a fixed fare per seat).
    pub fn fare(&self, flight: FlightId, now: SimTime) -> Option<Money> {
        let availability = self.reservations.availability(flight)?;
        let departure = self.reservations.flight(flight)?.departure();
        Some(match self.pricing {
            Some(pricer) => pricer.quote(availability, now, SimTime::ZERO, departure),
            None => SEAT_REVENUE,
        })
    }

    /// The defender's loss ledger (SMS costs are folded in on read).
    pub fn defender_ledger(&self) -> DefenderLedger {
        let mut d = self.defender;
        d.sms_cost = self.gateway.owner_cost();
        d
    }

    /// Runs the core's housekeeping ([`DecisionCore::housekeep`]) and, when
    /// it ticked, the substrate's: hold expiry, then the sentinel pass. Says
    /// whether it ticked. The simulator calls this before every event.
    pub fn housekeep(&mut self, now: SimTime) -> bool {
        let ticked = self.core.housekeep(now);
        if ticked {
            self.tick_substrate(now);
        }
        ticked
    }

    /// Runs every housekeeping step at `now`, due or not: the core's
    /// ([`DecisionCore::tick`]), hold expiry, then the sentinel pass.
    pub fn tick(&mut self, now: SimTime) {
        self.core.tick(now);
        self.tick_substrate(now);
    }

    /// Hold expiry, then one sentinel pass over the metrics.
    fn tick_substrate(&mut self, now: SimTime) {
        self.reservations.expire_due(now);
        let telemetry = self.core.telemetry();
        if let Some(sentinel) = &mut self.sentinel {
            let snap = telemetry.metrics().snapshot_without_latencies();
            let events_before = sentinel.events().len();
            sentinel.observe(now, &snap);
            if telemetry.tracing_enabled() {
                // Aux span: one sentinel rule-evaluation pass per tick,
                // outside any request trace (session lane 0).
                let id = fg_core::hash::trace_id(u64::MAX, now.as_millis());
                let transitions = sentinel.events().len() - events_before;
                telemetry.tracer().record_aux(fg_telemetry::SpanRecord {
                    trace_id: id,
                    span_id: id,
                    parent_id: 0,
                    name: "sentinel.evaluate".to_owned(),
                    session: 0,
                    start_us: now.as_millis() * 1_000,
                    dur_us: 1,
                    attrs: vec![("transitions".to_owned(), transitions.to_string())],
                });
            }
        }
    }

    fn log(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        method: Method,
        ok: bool,
        now: SimTime,
    ) {
        self.logs.push(LogRecord {
            at: now,
            ip: req.ip,
            fingerprint: req.fingerprint.identity_hash(),
            truth_client: req.client,
            method,
            endpoint,
            ok,
        });
        let fp_hash = req.fingerprint.identity_hash();
        self.fingerprints_seen
            .shard_mut(&fp_hash)
            .entry(fp_hash)
            .or_insert_with(|| req.fingerprint.clone());
    }

    /// The simulator's host step around [`DecisionCore::decide`]: records
    /// the request into the workload recorder when recording is on, decides,
    /// and writes the decision's audit record.
    fn decide_and_audit(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> (GateDecision, Option<RequestTrace>) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(crate::workload::WireRequest::from_parts(
                req, endpoint, booking, now,
            ));
        }
        let (gated, span_trace) = self.core.decide(req, endpoint, booking, now);
        self.telemetry().record_audit(AuditRecord {
            at: now,
            endpoint: endpoint.to_string(),
            client: req.client.as_u64(),
            fingerprint: req.fingerprint.identity_hash(),
            ip: req.ip.to_string(),
            score: gated.score,
            signals: gated.signals.clone(),
            decision: gated.decision.to_string(),
            reasons: gated.reasons.clone(),
            trace_id: gated.trace_id,
        });
        (gated, span_trace)
    }

    /// Runs the decision pipeline for one wire request and returns the
    /// outcome the serving layer puts on the wire, submitting its trace.
    /// fg-serve's `DecisionService` decides through the same
    /// [`DecisionCore::decide`], so the two agree request by request under
    /// the same request stream, config and shard count.
    pub fn decide_request(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> GateDecision {
        let (gated, span_trace) = self.decide_and_audit(req, endpoint, booking, now);
        if let Some(tr) = span_trace {
            self.telemetry().record_trace(tr);
        }
        gated
    }

    /// Runs the defence pipeline. `Ok(true)` means "proceed against the real
    /// application", `Ok(false)` means "the honeypot serves this request",
    /// `Err(outcome)` is the refusal to surface to the client.
    fn gate<T>(
        &mut self,
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> Result<bool, ApiOutcome<T>> {
        let (gated, mut span_trace) = self.decide_and_audit(req, endpoint, booking, now);
        let result = match gated.decision {
            Decision::Allow => Ok(true),
            Decision::Challenge => {
                let t = Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
                let captcha = CaptchaPolicy::DEFAULT;
                let result = if req.is_bot {
                    let outcome = captcha.challenge_bot(&mut self.captcha_rng);
                    *self.solver_spend.entry(req.client).or_insert(Money::ZERO) +=
                        captcha.solver_price;
                    self.metrics.solver_spend.add(captcha.solver_price.as_f64());
                    if outcome.solved() {
                        Ok(true)
                    } else {
                        Err(ApiOutcome::ChallengeFailed)
                    }
                } else {
                    let outcome = captcha.challenge_human(&mut self.captcha_rng);
                    if outcome.solved() {
                        Ok(true)
                    } else {
                        self.metrics.human_abandons.inc();
                        self.defender.friction_losses += SEAT_REVENUE.mul_f64(0.1);
                        Err(ApiOutcome::ChallengeFailed)
                    }
                };
                match &result {
                    Ok(_) => self.metrics.challenges_solved.inc(),
                    Err(_) => self.metrics.challenges_failed.inc(),
                }
                self.metrics.captcha.record(t.elapsed());
                if let Some(tr) = span_trace.as_mut() {
                    let captcha = tr.stage("mitigation.captcha");
                    tr.attr(captcha, "solver", req.is_bot);
                    tr.attr(
                        captcha,
                        "outcome",
                        if result.is_ok() { "solved" } else { "failed" },
                    );
                }
                result
            }
            // Diversion itself already happened in `DecisionCore::decide`;
            // the sticky-session outcome is all that is left to surface.
            Decision::Honeypot => Ok(false),
            Decision::RateLimited => Err(ApiOutcome::RateLimited),
            Decision::TierDenied => Err(ApiOutcome::TierDenied),
            Decision::Block => Err(ApiOutcome::Blocked),
        };
        if let Some(tr) = span_trace {
            self.telemetry().record_trace(tr);
        }
        result
    }
}

impl App for DefendedApp {
    fn search(&mut self, req: &ClientRequest, now: SimTime) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::Search, None, now) {
            Ok(_) => {
                self.log(req, Endpoint::Search, Method::Get, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::Search, Method::Get, false, now);
                refusal
            }
        }
    }

    fn hold(
        &mut self,
        req: &ClientRequest,
        flight: FlightId,
        passengers: Vec<Passenger>,
        now: SimTime,
    ) -> ApiOutcome<BookingRef> {
        let nip = passengers.len() as f64;
        match self.gate::<BookingRef>(req, Endpoint::Hold, None, now) {
            Ok(true) => match self.reservations.hold(flight, passengers, now) {
                Ok(reference) => {
                    self.metrics.nip_hold.record(nip);
                    self.log(req, Endpoint::Hold, Method::Post, true, now);
                    ApiOutcome::Ok(reference)
                }
                Err(e) => {
                    self.log(req, Endpoint::Hold, Method::Post, false, now);
                    ApiOutcome::Domain(e)
                }
            },
            Ok(false) => {
                // The decoy accepts the hold against fake inventory.
                let seats = passengers.len() as u32;
                let fake = self.core.honeypot_mut().absorb_hold(req.client, seats, now);
                self.log(req, Endpoint::Hold, Method::Post, true, now);
                ApiOutcome::Ok(fake)
            }
            Err(refusal) => {
                self.log(req, Endpoint::Hold, Method::Post, false, now);
                refusal
            }
        }
    }

    fn pay(&mut self, req: &ClientRequest, booking: BookingRef, now: SimTime) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::Pay, Some(booking), now) {
            Ok(true) => {
                // Quote before the sale: paying moves seats from held to
                // sold, and the buyer pays the fare displayed at checkout.
                let (fare, nip) = match self.reservations.booking(booking) {
                    Some(b) => (self.fare(b.flight(), now), b.nip()),
                    None => (None, 0),
                };
                let result = self
                    .reservations
                    .pay(booking, now)
                    .and_then(|()| self.reservations.ticket(booking));
                match result {
                    Ok(()) => {
                        if let Some(fare) = fare {
                            self.ticket_revenue += fare * u64::from(nip);
                            self.metrics
                                .ticket_revenue
                                .set(self.ticket_revenue.as_f64());
                        }
                        self.log(req, Endpoint::Pay, Method::Post, true, now);
                        ApiOutcome::Ok(())
                    }
                    Err(e) => {
                        self.log(req, Endpoint::Pay, Method::Post, false, now);
                        ApiOutcome::Domain(e)
                    }
                }
            }
            Ok(false) => {
                // Fake success inside the decoy.
                self.log(req, Endpoint::Pay, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::Pay, Method::Post, false, now);
                refusal
            }
        }
    }

    fn send_otp(
        &mut self,
        req: &ClientRequest,
        phone: PhoneNumber,
        now: SimTime,
    ) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::SendOtp, None, now) {
            Ok(true) => {
                let receipt = self.gateway.send(SmsMessage::new(phone, SmsKind::Otp), now);
                let ok = receipt.delivered;
                self.log(req, Endpoint::SendOtp, Method::Post, ok, now);
                if receipt.quota_exceeded {
                    ApiOutcome::QuotaExceeded
                } else {
                    ApiOutcome::Ok(())
                }
            }
            Ok(false) => {
                self.core.honeypot_mut().absorb_sms(req.client, now);
                self.log(req, Endpoint::SendOtp, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::SendOtp, Method::Post, false, now);
                refusal
            }
        }
    }

    fn boarding_pass_sms(
        &mut self,
        req: &ClientRequest,
        booking: BookingRef,
        phone: PhoneNumber,
        now: SimTime,
    ) -> ApiOutcome<()> {
        match self.gate::<()>(req, Endpoint::BoardingPass, Some(booking), now) {
            Ok(true) => match self.reservations.issue_boarding_pass(booking) {
                Ok(_seq) => {
                    let receipt = self
                        .gateway
                        .send(SmsMessage::new(phone, SmsKind::BoardingPass(booking)), now);
                    self.log(
                        req,
                        Endpoint::BoardingPass,
                        Method::Post,
                        receipt.delivered,
                        now,
                    );
                    if receipt.quota_exceeded {
                        ApiOutcome::QuotaExceeded
                    } else {
                        ApiOutcome::Ok(())
                    }
                }
                Err(e) => {
                    self.log(req, Endpoint::BoardingPass, Method::Post, false, now);
                    ApiOutcome::Domain(e)
                }
            },
            Ok(false) => {
                self.core.honeypot_mut().absorb_sms(req.client, now);
                self.log(req, Endpoint::BoardingPass, Method::Post, true, now);
                ApiOutcome::Ok(())
            }
            Err(refusal) => {
                self.log(req, Endpoint::BoardingPass, Method::Post, false, now);
                refusal
            }
        }
    }

    fn availability(&self, flight: FlightId) -> Option<Availability> {
        self.reservations.availability(flight)
    }

    fn departure(&self, flight: FlightId) -> Option<SimTime> {
        self.reservations.flight(flight).map(|f| f.departure())
    }

    fn quote(&self, flight: FlightId, now: SimTime) -> Option<Money> {
        self.fare(flight, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_fingerprint::population::PopulationModel;
    use fg_mitigation::gating::TrustTier;
    use fg_mitigation::policy::DecisionCounts;
    use fg_netsim::geo::GeoDatabase;
    use fg_netsim::ip::IpClass;
    use rand::SeedableRng;

    fn human_req(seed: u64, tier: TrustTier) -> ClientRequest {
        let mut rng = StdRng::seed_from_u64(seed);
        let geo = GeoDatabase::default_world();
        ClientRequest {
            client: ClientId(seed),
            ip: geo
                .sample_ip(
                    fg_core::ids::CountryCode::new("GB"),
                    IpClass::Residential,
                    &mut rng,
                )
                .unwrap(),
            fingerprint: PopulationModel::default_web().sample_human(&mut rng),
            tier,
            is_bot: false,
        }
    }

    fn app(policy: PolicyConfig) -> DefendedApp {
        let mut app = DefendedApp::new(AppConfig::airline(policy), 7);
        app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
        app
    }

    fn pax(n: usize) -> Vec<Passenger> {
        (0..n)
            .map(|i| Passenger::simple(&format!("P{i}"), "TEST"))
            .collect()
    }

    #[test]
    fn full_happy_path_for_a_human() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(1, TrustTier::Verified);
        assert!(a.search(&req, SimTime::ZERO).is_ok());
        let booking = a
            .hold(&req, FlightId(1), pax(2), SimTime::from_mins(1))
            .unwrap();
        assert!(a.pay(&req, booking, SimTime::from_mins(5)).is_ok());
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("GB"), 7_700_900_001);
        assert!(a
            .boarding_pass_sms(&req, booking, phone, SimTime::from_mins(10))
            .is_ok());
        assert_eq!(a.gateway().sent_total(), 1);
        assert_eq!(a.logs().len(), 4);
        assert!(a.logs().iter().all(|l| l.ok));
    }

    #[test]
    fn unprotected_app_never_refuses() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(2, TrustTier::Anonymous);
        let booking = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO).unwrap();
        a.pay(&req, booking, SimTime::from_mins(1)).unwrap();
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("UZ"), 99_000_001);
        // 500 boarding-pass SMS against one booking sail through (§IV-C).
        for i in 0..500u64 {
            assert!(a
                .boarding_pass_sms(&req, booking, phone, SimTime::from_mins(2 + i))
                .is_ok());
        }
        assert_eq!(a.gateway().sent_total(), 500);
    }

    #[test]
    fn recommended_app_limits_per_booking_sms() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(3, TrustTier::Verified);
        let booking = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO).unwrap();
        a.pay(&req, booking, SimTime::from_mins(1)).unwrap();
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("UZ"), 99_000_002);
        let mut sent = 0;
        for i in 0..10u64 {
            if a.boarding_pass_sms(&req, booking, phone, SimTime::from_mins(5 + i))
                .is_ok()
            {
                sent += 1;
            }
        }
        assert!(sent <= 3, "per-booking SMS cap enforced: {sent}");
    }

    #[test]
    fn tier_gate_refuses_anonymous_holds() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(4, TrustTier::Anonymous);
        assert_eq!(
            a.hold(&req, FlightId(1), pax(1), SimTime::ZERO),
            ApiOutcome::TierDenied
        );
    }

    #[test]
    fn honeypot_diversion_fakes_success_and_spares_inventory() {
        let mut a = app(PolicyConfig::recommended());
        // A blatant bot: webdriver artifact → score 1.0 → honeypot.
        let mut req = human_req(5, TrustTier::Verified);
        req.fingerprint.webdriver = true;
        req.is_bot = true;
        let fake = a.hold(&req, FlightId(1), pax(6), SimTime::ZERO);
        assert!(fake.is_ok(), "the decoy accepts the hold: {fake:?}");
        let avail = a.availability(FlightId(1)).unwrap();
        assert_eq!(avail.held, 0, "real inventory untouched");
        assert_eq!(a.core().honeypot().stats().seats_absorbed, 6);
        // Subsequent requests stay in the decoy — even innocuous ones.
        assert!(a.search(&req, SimTime::from_mins(1)).is_ok());
        assert!(a.pay(&req, fake.unwrap(), SimTime::from_mins(2)).is_ok());
    }

    #[test]
    fn challenged_bot_pays_solver_fees() {
        let mut cfg = PolicyConfig::traditional_antibot();
        cfg.challenge_threshold = 0.0; // challenge everything
        let mut a = app(cfg);
        let mut req = human_req(6, TrustTier::Verified);
        req.is_bot = true;
        for i in 0..20u64 {
            let _ = a.search(&req, SimTime::from_secs(i));
        }
        assert!(a.solver_spend(req.client) > Money::ZERO);
        // The fee is charged per attempt, failed solves included.
        let metrics = a.telemetry().snapshot().metrics;
        let challenges = |outcome| {
            metrics
                .counter_value("fg_challenges_total", &[("outcome", outcome)])
                .expect("registered at construction")
        };
        assert!(challenges("failed") > 0, "the seed sees a failed solve");
        assert_eq!(
            a.solver_spend(req.client),
            CaptchaPolicy::DEFAULT.solver_price * (challenges("solved") + challenges("failed"))
        );
    }

    #[test]
    fn challenged_humans_sometimes_abandon() {
        let mut cfg = PolicyConfig::traditional_antibot();
        cfg.challenge_threshold = 0.0;
        let mut a = app(cfg);
        for i in 0..300u64 {
            let req = human_req(100 + i, TrustTier::Verified);
            let _ = a.search(&req, SimTime::from_secs(i));
        }
        let abandons = a
            .telemetry()
            .snapshot()
            .metrics
            .counter_value("fg_human_abandons_total", &[])
            .expect("registered at construction");
        assert!(abandons > 0, "friction surfaces");
        assert!(a.defender_ledger().friction_losses > Money::ZERO);
    }

    #[test]
    fn defender_ledger_includes_sms_cost() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(7, TrustTier::Verified);
        let phone = PhoneNumber::new(fg_core::ids::CountryCode::new("GB"), 7_700_900_009);
        a.send_otp(&req, phone, SimTime::ZERO).unwrap();
        assert_eq!(a.defender_ledger().sms_cost, Money::from_cents(4));
    }

    #[test]
    fn logs_capture_fingerprint_registry() {
        let mut a = app(PolicyConfig::unprotected());
        let req = human_req(8, TrustTier::Verified);
        a.search(&req, SimTime::ZERO).unwrap();
        let hash = req.fingerprint.identity_hash();
        assert_eq!(a.fingerprint_by_hash(hash), Some(&req.fingerprint));
    }

    #[test]
    fn audit_trail_explains_honeypot_routings() {
        let mut a = app(PolicyConfig::recommended());
        let mut req = human_req(9, TrustTier::Verified);
        req.fingerprint.webdriver = true;
        req.is_bot = true;
        let _ = a.hold(&req, FlightId(1), pax(1), SimTime::ZERO);
        // Second request rides the sticky diversion.
        let _ = a.search(&req, SimTime::from_mins(1));

        let telemetry = a.telemetry().clone();
        let audit = telemetry.audit();
        let routings: Vec<_> = audit.with_decision("honeypot").collect();
        assert_eq!(routings.len(), 2);
        // The first routing names the signal that triggered it …
        let first = routings[0];
        assert_eq!(
            first.triggering_signal().unwrap().signal,
            "fingerprint-inconsistent(1.00)"
        );
        assert!(
            first
                .reasons
                .iter()
                .any(|r| r.starts_with("score-block:triggered")),
            "{:?}",
            first.reasons
        );
        // … the second records the sticky session.
        assert_eq!(routings[1].reasons, vec!["honeypot:session-diverted"]);
        assert_eq!(routings[1].endpoint, "/search");
    }

    #[test]
    fn housekeeping_ticks_every_five_minutes_of_forward_clock() {
        let mut a = app(PolicyConfig::recommended());
        let at = SimTime::from_millis;
        assert!(!a.housekeep(at(299_999)));
        assert!(a.housekeep(at(300_000)));
        assert!(!a.housekeep(at(599_999)));
        assert!(!a.housekeep(at(0)), "a clock that went backwards");
        assert!(a.housekeep(at(600_000)));

        // Over a generated stream, whose clock steps backwards between
        // sessions, it ticks on exactly the requests fg-serve's former rule
        // ticked on.
        let workload = crate::workload::generate(&crate::workload::WorkloadConfig {
            seed: 42,
            horizon_hours: 24,
            arrivals_per_day: 300.0,
            seat_spinner: true,
            sms_pumper: true,
        });
        let clocks: Vec<u64> = workload.requests.iter().map(|r| r.now_ms).collect();
        assert!(clocks.windows(2).any(|pair| pair[1] < pair[0]));
        let mut a = app(PolicyConfig::recommended());
        let (mut last_tick_ms, mut ticks) = (0u64, 0);
        for now_ms in clocks {
            let oracle = now_ms >= last_tick_ms.saturating_add(5 * 60 * 1_000);
            if oracle {
                last_tick_ms = now_ms;
                ticks += 1;
            }
            assert_eq!(a.housekeep(at(now_ms)), oracle, "at {now_ms} ms");
        }
        assert!(ticks > 100, "{ticks} ticks");
    }

    #[test]
    fn tick_compacts_defence_state_and_exports_gauges() {
        let mut a = app(PolicyConfig::recommended());
        // 30 distinct one-shot identities touch the app within one hour.
        for i in 0..30u64 {
            let req = human_req(500 + i, TrustTier::Verified);
            let _ = a.search(&req, SimTime::from_mins(i));
        }
        a.tick(SimTime::from_hours(1));
        assert!(a.core().detection().tracked_keys().total() > 0);
        // Three hours later all events are outside the velocity window.
        a.tick(SimTime::from_hours(3));
        assert_eq!(a.core().detection().tracked_keys().total(), 0);
        assert_eq!(a.core().policy().limiter_tracked_keys(), (0, 0));
        let snap = a.telemetry().snapshot();
        for map in TRACKED_MAPS {
            assert_eq!(
                snap.metrics.gauge_value("fg_tracked_keys", &[("map", map)]),
                Some(0.0),
                "gauge for {map}"
            );
        }
    }

    #[test]
    fn a_policy_swap_keeps_fg_decisions_total_counting() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(11, TrustTier::Verified);
        a.search(&req, SimTime::ZERO).unwrap();
        a.core_mut().replace_policy(PolicyConfig::unprotected());
        a.search(&req, SimTime::from_mins(1)).unwrap();
        a.search(&req, SimTime::from_mins(2)).unwrap();
        let snap = a.telemetry().metrics().snapshot();
        assert_eq!(
            snap.counter_value("fg_decisions_total", &[("decision", "allow")]),
            Some(3),
            "the swap neither reset the series nor left it behind"
        );
        assert_eq!(
            a.core().decision_counts(),
            DecisionCounts {
                allow: 3,
                ..DecisionCounts::default()
            }
        );
    }

    #[test]
    fn gate_metrics_and_stages_accumulate() {
        let mut a = app(PolicyConfig::recommended());
        let req = human_req(10, TrustTier::Verified);
        a.search(&req, SimTime::ZERO).unwrap();
        let booking = a
            .hold(&req, FlightId(1), pax(2), SimTime::from_mins(1))
            .unwrap();
        a.pay(&req, booking, SimTime::from_mins(5)).unwrap();

        let snap = a.telemetry().snapshot();
        assert_eq!(
            snap.metrics
                .counter_value("fg_requests_total", &[("endpoint", "/search")]),
            Some(1)
        );
        assert_eq!(
            snap.metrics
                .counter_value("fg_requests_total", &[("endpoint", "/booking/hold")]),
            Some(1)
        );
        assert_eq!(
            snap.metrics
                .counter_value("fg_decisions_total", &[("decision", "allow")]),
            Some(3)
        );
        // Revenue gauge follows the sale (2 pax × £120).
        let revenue = snap
            .metrics
            .gauge_value("fg_ticket_revenue_units", &[])
            .unwrap();
        assert!((revenue - a.ticket_revenue().as_f64()).abs() < 1e-9);
        // Stage profiles cover detection and policy; the honeypot check is
        // a trace stage only, too cheap to time.
        let stages = snap.stages();
        let stages: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["detect.assess", "policy.decide"]);
        // Detection-score histogram saw all three requests.
        let hist = snap
            .metrics
            .histograms
            .iter()
            .find(|h| h.name.name == "fg_detection_score")
            .expect("score histogram registered");
        assert_eq!(hist.count, 3);
    }
}
