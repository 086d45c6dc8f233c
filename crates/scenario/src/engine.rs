//! The deterministic simulation driver.

use crate::app::DefendedApp;
use crate::team::{SecurityTeam, TeamConfig};
use fg_behavior::api::Agent;
use fg_core::event::EventQueue;
use fg_core::rng::SeedFork;
use fg_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

enum Tick {
    Agent(usize),
    Review,
    Intervention(usize),
}

/// A shareable agent handle: the simulation drives it, the caller keeps a
/// clone to read statistics after the run.
pub type SharedAgent = Rc<RefCell<dyn Agent>>;

/// A one-shot defender intervention (e.g. "cap NiP at day 14").
type Intervention = Box<dyn FnOnce(&mut DefendedApp, SimTime)>;

/// Wraps a concrete agent into a [`SharedAgent`] plus a typed handle.
///
/// # Example
///
/// ```no_run
/// # use fg_scenario::engine::share;
/// # use fg_behavior::{SeatSpinner, SeatSpinnerConfig};
/// # use fg_netsim::geo::GeoDatabase;
/// # use fg_core::ids::{ClientId, FlightId};
/// # use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let bot = SeatSpinner::new(
///     SeatSpinnerConfig::airline_a(FlightId(1)), ClientId(1),
///     GeoDatabase::default_world(), &mut rng,
/// );
/// let (handle, agent) = share(bot);
/// // sim.add_agent(agent, ...); later: handle.borrow().stats()
/// # let _ = (handle, agent);
/// ```
pub fn share<A: Agent + 'static>(agent: A) -> (Rc<RefCell<A>>, SharedAgent) {
    let typed = Rc::new(RefCell::new(agent));
    let dynamic: SharedAgent = typed.clone();
    (typed, dynamic)
}

/// Drives agents, the periodic security-team review, and one-shot
/// interventions over a [`DefendedApp`], in deterministic event order.
///
/// # Example
///
/// ```
/// use fg_scenario::{app::{AppConfig, DefendedApp}, engine::Simulation};
/// use fg_mitigation::policy::PolicyConfig;
/// use fg_inventory::Flight;
/// use fg_core::ids::FlightId;
/// use fg_core::time::SimTime;
///
/// let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::unprotected()), 1);
/// app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
/// let mut sim = Simulation::new(app, 1);
/// // (agents would be added here)
/// let app = sim.run(SimTime::from_days(1));
/// assert_eq!(app.logs().len(), 0);
/// ```
pub struct Simulation {
    app: DefendedApp,
    agents: Vec<SharedAgent>,
    agent_rngs: Vec<StdRng>,
    interventions: Vec<Option<Intervention>>,
    team: Option<(SecurityTeam, SimDuration)>,
    queue: EventQueue<Tick>,
    seeds: SeedFork,
    /// Agents returning `next <= now` are clamped forward by 1 ms; counted
    /// here (exported as `fg_agent_wake_clamped_total`) so misbehaving
    /// agents are visible without debug/release divergence.
    wake_clamps: fg_telemetry::Counter,
    /// The `team.review` stage latency cell.
    review_latency: fg_telemetry::Latency,
}

impl Simulation {
    /// Creates a simulation over `app` with the given master seed.
    pub fn new(app: DefendedApp, seed: u64) -> Self {
        let registry = app.telemetry().metrics();
        registry.set_help(
            "fg_agent_wake_clamped_total",
            "Agent wake-ups clamped forward to keep sim time monotone",
        );
        let wake_clamps = registry.counter("fg_agent_wake_clamped_total");
        let review_latency = app.telemetry().stage_latency("team.review");
        Simulation {
            app,
            wake_clamps,
            review_latency,
            agents: Vec::new(),
            agent_rngs: Vec::new(),
            interventions: Vec::new(),
            team: None,
            queue: EventQueue::new(),
            seeds: SeedFork::new(seed),
        }
    }

    /// Adds an agent, waking first at `start`. Each agent gets its own
    /// seed-forked RNG stream, so adding one agent never perturbs another.
    /// Keep a clone of the handle (see [`share`]) to read the agent's
    /// statistics after [`Simulation::run`].
    pub fn add_agent(&mut self, agent: SharedAgent, start: SimTime) {
        let idx = self.agents.len();
        self.agent_rngs
            .push(self.seeds.rng_indexed("agent", idx as u64));
        self.agents.push(agent);
        self.queue.schedule(start, Tick::Agent(idx));
    }

    /// Installs the periodic security-team review.
    pub fn with_team(&mut self, config: TeamConfig, interval: SimDuration, first: SimTime) {
        self.team = Some((SecurityTeam::new(config), interval));
        self.queue.schedule(first, Tick::Review);
    }

    /// Schedules a one-shot intervention (e.g. "introduce the NiP cap on
    /// day 14") at `at`.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut DefendedApp, SimTime) + 'static) {
        let idx = self.interventions.len();
        self.interventions.push(Some(Box::new(f)));
        self.queue.schedule(at, Tick::Intervention(idx));
    }

    /// Runs until `until` (inclusive of events at that instant), returning
    /// the finished app for inspection. Housekeeping runs before each event
    /// ([`DefendedApp::housekeep`]) and once more at `until`.
    pub fn run(mut self, until: SimTime) -> DefendedApp {
        while let Some((now, tick)) = self.queue.pop_before(until) {
            self.app.housekeep(now);
            match tick {
                Tick::Agent(idx) => {
                    let rng = &mut self.agent_rngs[idx];
                    if let Some(next) = self.agents[idx].borrow_mut().wake(&mut self.app, now, rng)
                    {
                        // Clamp identically in debug and release: an agent
                        // returning `next <= now` is rescheduled 1 ms ahead
                        // and counted, never panicked on.
                        let next = if next <= now {
                            self.wake_clamps.inc();
                            now + SimDuration::from_millis(1)
                        } else {
                            next
                        };
                        self.queue.schedule(next, Tick::Agent(idx));
                    }
                }
                Tick::Review => {
                    if let Some((team, interval)) = &mut self.team {
                        let started = std::time::Instant::now(); // fg-analyze: allow(wall-clock): stage profiling only
                        team.review(&mut self.app, now);
                        self.review_latency.record(started.elapsed());
                        let telemetry = self.app.telemetry();
                        if telemetry.tracing_enabled() {
                            // Aux span: reviews run outside any request
                            // trace, on session lane 0.
                            let id = fg_core::hash::trace_id(u64::MAX - 1, now.as_millis());
                            telemetry.tracer().record_aux(fg_telemetry::SpanRecord {
                                trace_id: id,
                                span_id: id,
                                parent_id: 0,
                                name: "team.review".to_owned(),
                                session: 0,
                                start_us: now.as_millis() * 1_000,
                                dur_us: 1,
                                attrs: Vec::new(),
                            });
                        }
                        let interval = *interval;
                        self.queue.schedule(now + interval, Tick::Review);
                    }
                }
                Tick::Intervention(idx) => {
                    if let Some(f) = self.interventions[idx].take() {
                        f(&mut self.app, now);
                    }
                }
            }
        }
        self.app.tick(until);
        self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppConfig;
    use fg_behavior::api::App;
    use fg_behavior::{LegitConfig, LegitPopulation};
    use fg_core::ids::FlightId;
    use fg_inventory::flight::Flight;
    use fg_mitigation::policy::PolicyConfig;
    use fg_netsim::geo::GeoDatabase;

    fn base_app(policy: PolicyConfig) -> DefendedApp {
        let mut app = DefendedApp::new(AppConfig::airline(policy), 11);
        for f in 1..=3 {
            app.add_flight(Flight::new(FlightId(f), 5_000, SimTime::from_days(40)));
        }
        app
    }

    fn legit(end_days: u64) -> SharedAgent {
        let (_, agent) = share(LegitPopulation::new(
            LegitConfig::default_airline(
                vec![FlightId(1), FlightId(2), FlightId(3)],
                SimTime::from_days(end_days),
            ),
            GeoDatabase::default_world(),
            1_000_000,
        ));
        agent
    }

    #[test]
    fn runs_a_legit_week_end_to_end() {
        let mut sim = Simulation::new(base_app(PolicyConfig::unprotected()), 5);
        sim.add_agent(legit(7), SimTime::ZERO);
        let app = sim.run(SimTime::from_weeks(1));
        assert!(app.reservations().booking_count() > 1_000);
        assert!(app.gateway().sent_total() > 500);
        assert!(!app.logs().is_empty());
        // Most traffic is allowed under no protection.
        assert_eq!(app.core().decision_counts().block, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(base_app(PolicyConfig::recommended()), seed);
            sim.add_agent(legit(3), SimTime::ZERO);
            let app = sim.run(SimTime::from_days(3));
            (
                app.reservations().booking_count(),
                app.gateway().sent_total(),
                app.logs().len(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn interventions_fire_once_at_their_time() {
        let mut sim = Simulation::new(base_app(PolicyConfig::unprotected()), 6);
        sim.add_agent(legit(14), SimTime::ZERO);
        sim.schedule(SimTime::from_days(2), |app, _now| {
            app.reservations_mut().set_max_nip(4);
        });
        let app = sim.run(SimTime::from_days(4));
        assert_eq!(app.reservations().max_nip(), 4);
        // Bookings after day 2 never exceed the cap.
        let violations = app
            .reservations()
            .bookings()
            .filter(|b| b.created_at() >= SimTime::from_days(2) && b.nip() > 4)
            .count();
        assert_eq!(violations, 0);
    }

    #[test]
    fn team_reviews_run_periodically() {
        let mut sim = Simulation::new(base_app(PolicyConfig::traditional_antibot()), 7);
        sim.add_agent(legit(2), SimTime::ZERO);
        sim.with_team(
            TeamConfig::default(),
            SimDuration::from_hours(6),
            SimTime::from_hours(6),
        );
        // Run with the team installed; verify it reviewed by observing that
        // the run completes and the app is intact (team state is consumed).
        let app = sim.run(SimTime::from_days(2));
        assert!(app.reservations().booking_count() > 100);
    }

    #[test]
    fn housekeeping_expires_holds() {
        let mut sim = Simulation::new(base_app(PolicyConfig::unprotected()), 8);
        sim.add_agent(legit(2), SimTime::ZERO);
        let app = sim.run(SimTime::from_days(3));
        // A day after the horizon every unpaid hold has lapsed.
        for f in app.reservations().flight_ids() {
            assert_eq!(app.availability(f).unwrap().held, 0, "{f}");
        }
    }
}
