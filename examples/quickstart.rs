//! Quickstart: stand up a defended airline application, let legitimate
//! traffic and a Seat Spinning bot loose on it, and inspect what the defence
//! saw — all deterministic, all in-process.
//!
//! Run with:
//! ```text
//! cargo run --release -p fg-scenario --example quickstart
//! ```

use fg_behavior::{LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::time::SimTime;
use fg_inventory::Flight;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_scenario::app::{AppConfig, DefendedApp};
use fg_scenario::engine::{share, Simulation};
use fg_scenario::team::TeamConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;
    let geo = GeoDatabase::default_world();

    // 1. The application: one flight under the paper's §V recommended
    //    defensive posture (rate limits, trust gating, CAPTCHA, honeypot).
    let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::recommended()), seed);
    app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
    app.add_flight(Flight::new(FlightId(2), 5_000, SimTime::from_days(40)));

    // 2. The simulation: a legitimate booking population, a Seat Spinning
    //    bot targeting flight 1, and an hourly security-team review.
    let mut sim = Simulation::new(app, seed);
    sim.with_team(
        TeamConfig::default(),
        fg_core::time::SimDuration::from_hours(2),
        SimTime::from_hours(2),
    );

    let legit_cfg =
        LegitConfig::default_airline(vec![FlightId(1), FlightId(2)], SimTime::from_days(3));
    let (legit, legit_agent) = share(LegitPopulation::new(legit_cfg, geo.clone(), 1_000_000));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut rng = StdRng::seed_from_u64(seed);
    let (bot, bot_agent) = share(SeatSpinner::new(
        SeatSpinnerConfig::airline_a(FlightId(1)),
        ClientId(1),
        geo,
        &mut rng,
    ));
    sim.add_agent(bot_agent, SimTime::ZERO);

    // 3. Run three simulated days.
    let app = sim.run(SimTime::from_days(3));

    // 4. Inspect.
    println!("=== FeatureGuard quickstart: 3 simulated days ===\n");
    println!("legitimate population : {:?}\n", legit.borrow().stats());
    println!("seat spinner          : {:?}", bot.borrow().stats());
    println!("seat spinner ledger   : {}\n", bot.borrow().ledger());
    let core = app.core();
    println!("defence decisions     : {:?}", core.decision_counts());
    println!("block rules deployed  : {}", core.policy().rules().len());
    println!("honeypot absorbed     : {:?}", core.honeypot().stats());
    println!(
        "target flight ledger  : {}",
        app.reservations()
            .availability(FlightId(1))
            .expect("flight 1 exists")
    );
    println!("defender ledger       : {}", app.defender_ledger());
}
