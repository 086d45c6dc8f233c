//! Recorded wire workloads: the bridge between the deterministic simulator
//! and the online decision service.
//!
//! A [`Workload`] is an in-memory, replayable stream of
//! [`WireRequest`]s — exactly the requests the simulator's agents pushed
//! through [`DefendedApp`]'s gate, in order. `fg-loadgen` replays them over
//! HTTP against `fg-serve`, and the decision-parity test replays them both
//! in-process and over the wire to assert identical decisions. Because
//! decisions are a pure function of (request stream, config, seed, shard
//! count), a recorded workload pins the whole serving contract.

use crate::app::{AppConfig, DefendedApp};
use crate::engine::{share, Simulation};
use fg_behavior::api::ClientRequest;
use fg_behavior::legit::{LegitConfig, LegitPopulation};
use fg_behavior::seat_spinner::{SeatSpinner, SeatSpinnerConfig};
use fg_behavior::sms_pumper::{SmsPumper, SmsPumperConfig};
use fg_core::ids::{BookingRef, ClientId, FlightId};
use fg_core::rng::SeedFork;
use fg_core::time::SimTime;
use fg_detection::log::Endpoint;
use fg_fingerprint::attributes::Fingerprint;
use fg_inventory::flight::Flight;
use fg_mitigation::gating::TrustTier;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use serde::{Deserialize, Serialize};

/// One gated request, flattened to its wire-visible parts. This is also the
/// request body of the decision service's `POST /v1/decide`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Session clock for the request, in sim-time milliseconds.
    pub now_ms: u64,
    /// The endpoint the client hit.
    pub endpoint: Endpoint,
    /// Client identity (as sessionized upstream).
    pub client: ClientId,
    /// Source IP.
    pub ip: fg_netsim::ip::IpAddress,
    /// Browser/device fingerprint.
    pub fingerprint: Fingerprint,
    /// Trust standing at request time.
    pub tier: TrustTier,
    /// Booking reference, for booking-scoped endpoints.
    pub booking: Option<BookingRef>,
    /// Ground truth (never an input to any decision — kept for evaluation).
    pub is_bot: bool,
}

impl WireRequest {
    /// Flattens a gate call into its wire form.
    pub fn from_parts(
        req: &ClientRequest,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> Self {
        WireRequest {
            now_ms: now.as_millis(),
            endpoint,
            client: req.client,
            ip: req.ip,
            fingerprint: req.fingerprint.clone(),
            tier: req.tier,
            booking,
            is_bot: req.is_bot,
        }
    }

    /// Reassembles the behaviour-layer request.
    pub fn client_request(&self) -> ClientRequest {
        ClientRequest {
            client: self.client,
            ip: self.ip,
            fingerprint: self.fingerprint.clone(),
            tier: self.tier,
            is_bot: self.is_bot,
        }
    }

    /// The request's session clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.now_ms)
    }
}

/// A replayable request stream plus the seed that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Master seed the generating simulation ran under.
    pub seed: u64,
    /// The requests, in gate order.
    pub requests: Vec<WireRequest>,
}

/// Parameters for [`generate`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Master seed; equal seeds produce byte-identical workloads.
    pub seed: u64,
    /// Simulated horizon in hours.
    pub horizon_hours: u64,
    /// Mean legitimate bookers arriving per day.
    pub arrivals_per_day: f64,
    /// Include a seat-spinning bot session (Case A traffic shape).
    pub seat_spinner: bool,
    /// Include an SMS-pumping bot session (Case C/D traffic shape).
    pub sms_pumper: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            horizon_hours: 24,
            arrivals_per_day: 400.0,
            seat_spinner: true,
            sms_pumper: true,
        }
    }
}

/// Runs a team-free simulation with recording enabled and returns the
/// captured request stream.
///
/// Deliberately team-free: a [`crate::team::SecurityTeam`] deploys block
/// rules mid-run, which would make the recorded stream's decisions depend on
/// state a wire replay does not reconstruct. Without a team, decisions are a
/// pure function of the stream itself, so any replayer (in-process or over
/// HTTP) reproduces them exactly.
pub fn generate(config: &WorkloadConfig) -> Workload {
    let fork = SeedFork::new(config.seed);
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_hours(config.horizon_hours);

    let mut app = DefendedApp::new(
        AppConfig::airline(PolicyConfig::recommended()),
        fork.seed("app"),
    );
    let flights: Vec<FlightId> = (1..=4).map(FlightId).collect();
    let departure = SimTime::from_hours(config.horizon_hours + 21 * 24);
    for &f in &flights {
        app.add_flight(Flight::new(f, 180, departure));
    }
    app.record_workload();

    let mut sim = Simulation::new(app, fork.seed("sim"));
    let mut legit_cfg = LegitConfig::default_airline(flights.clone(), end);
    legit_cfg.arrivals_per_day = config.arrivals_per_day;
    let (_legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut attacker_rng = fork.rng("attacker");
    if config.seat_spinner {
        let (_s, agent) = share(SeatSpinner::new(
            SeatSpinnerConfig::airline_a(flights[0]),
            ClientId(1),
            geo.clone(),
            &mut attacker_rng,
        ));
        sim.add_agent(agent, SimTime::from_mins(30));
    }
    if config.sms_pumper {
        let rates = fg_smsgw::rates::RateTable::default_world();
        let (_p, agent) = share(SmsPumper::new(
            SmsPumperConfig::airline_d(flights[1], end),
            ClientId(2),
            geo,
            &rates,
            &mut attacker_rng,
        ));
        sim.add_agent(agent, SimTime::from_mins(60));
    }

    let mut app = sim.run(end);
    Workload {
        seed: config.seed,
        requests: app.take_workload(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadConfig {
        WorkloadConfig {
            seed: 7,
            horizon_hours: 2,
            arrivals_per_day: 120.0,
            seat_spinner: true,
            sms_pumper: true,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a, b);
        assert!(!a.requests.is_empty(), "workload captured no requests");
    }

    #[test]
    fn recorded_stream_replays_to_identical_decisions_in_process() {
        let workload = generate(&small());
        // Fresh app, same posture & seed: replaying the stream through
        // `decide_request` must reproduce the audit trail the generating
        // run wrote. (The generating run consumed CAPTCHA randomness the
        // replay does not, which is fine — decisions never depend on it.)
        let fork = SeedFork::new(small().seed);
        let mut app = DefendedApp::new(
            AppConfig::airline(PolicyConfig::recommended()),
            fork.seed("app"),
        );
        let mut decisions = Vec::new();
        for req in &workload.requests {
            let d = app.decide_request(&req.client_request(), req.endpoint, req.booking, req.now());
            decisions.push((d.decision, d.reasons));
        }
        let audit = app.telemetry().audit().snapshot();
        assert_eq!(audit.records.len(), decisions.len());
        for (rec, (decision, reasons)) in audit.records.iter().zip(&decisions) {
            assert_eq!(&rec.decision, &decision.to_string());
            assert_eq!(&rec.reasons, reasons);
        }
    }
}
