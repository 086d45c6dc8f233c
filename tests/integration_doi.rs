//! Cross-crate integration: the Denial-of-Inventory loop end to end.
//!
//! Exercises fg-behavior agents against the fg-scenario defended app over
//! real fg-inventory ledgers, asserting the paper's qualitative claims hold
//! through the whole stack (not just per-crate units).

use fg_behavior::{LegitConfig, LegitPopulation, SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, FlightId};
use fg_core::time::{SimDuration, SimTime};
use fg_inventory::{BookingStatus, Flight};
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_scenario::app::{AppConfig, DefendedApp};
use fg_scenario::engine::{share, Simulation};
use fg_scenario::monitor::HoldMonitor;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Shared<T> = std::rc::Rc<std::cell::RefCell<T>>;
type World = (
    Simulation,
    Shared<LegitPopulation>,
    Shared<SeatSpinner>,
    Shared<HoldMonitor>,
);

fn build_world(policy: PolicyConfig, seed: u64, days: u64) -> World {
    let geo = GeoDatabase::default_world();
    let end = SimTime::from_days(days);
    let mut app = DefendedApp::new(AppConfig::airline(policy), seed);
    app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(days + 3)));
    app.add_flight(Flight::new(
        FlightId(2),
        50_000,
        SimTime::from_days(days + 30),
    ));

    let mut sim = Simulation::new(app, seed);
    let (legit, legit_agent) = share(LegitPopulation::new(
        LegitConfig::default_airline(vec![FlightId(1), FlightId(2)], end),
        geo.clone(),
        1_000_000,
    ));
    sim.add_agent(legit_agent, SimTime::ZERO);

    let mut rng = StdRng::seed_from_u64(seed);
    let (bot, bot_agent) = share(SeatSpinner::new(
        SeatSpinnerConfig::airline_a(FlightId(1)),
        ClientId(1),
        geo,
        &mut rng,
    ));
    sim.add_agent(bot_agent, SimTime::ZERO);

    let (mon, mon_agent) = share(HoldMonitor::new(
        FlightId(1),
        SimDuration::from_mins(30),
        end,
    ));
    sim.add_agent(mon_agent, SimTime::ZERO);

    (sim, legit, bot, mon)
}

#[test]
fn undefended_spinner_denies_inventory_and_never_buys() {
    let (sim, legit, bot, mon) = build_world(PolicyConfig::unprotected(), 1, 4);
    let app = sim.run(SimTime::from_days(4));

    // The bot held large blocks continuously.
    assert!(
        mon.borrow().mean_hold_ratio() > 0.25,
        "mean hold ratio {:.3}",
        mon.borrow().mean_hold_ratio()
    );
    assert!(bot.borrow().stats().holds_placed > 100);

    // Every attacker booking ends held/expired — never paid.
    let paid_by_bot = app
        .reservations()
        .bookings()
        .filter(|b| b.status() == BookingStatus::Paid || b.status() == BookingStatus::Ticketed)
        .count() as u64;
    let legit_paid = legit.borrow().stats().paid;
    assert!(paid_by_bot <= legit_paid, "only legit bookings convert");

    // Real customers were turned away from the depleted flight.
    assert!(legit.borrow().stats().denied_by_stock > 0);

    // Seat conservation held across every crate boundary.
    let a = app.reservations().availability(FlightId(1)).unwrap();
    assert_eq!(a.available + a.held + a.sold, 180);
}

#[test]
fn recommended_stack_protects_inventory() {
    let (sim, _legit, _bot, mon) = build_world(PolicyConfig::recommended(), 2, 4);
    let app = sim.run(SimTime::from_days(4));

    // The target flight stays mostly sellable under the full stack.
    assert!(
        mon.borrow().mean_hold_ratio() < 0.15,
        "mean hold ratio {:.3}",
        mon.borrow().mean_hold_ratio()
    );
    // The defence acted (anything but a pile of Allows).
    let counts = app.core().decision_counts();
    assert!(
        counts.tier_denied + counts.honeypot + counts.block + counts.rate_limited > 0,
        "{counts:?}"
    );
}

#[test]
fn expired_holds_always_return_to_inventory() {
    let (sim, _, _, _) = build_world(PolicyConfig::unprotected(), 3, 2);
    // Run well past the spinner's endgame so every last hold TTL lapses.
    let app = sim.run(SimTime::from_days(4));
    // A day after the horizon, no live holds remain anywhere.
    for f in app.reservations().flight_ids() {
        assert_eq!(
            app.reservations().availability(f).unwrap().held,
            0,
            "flight {f} still has held seats"
        );
    }
}

#[test]
fn run_is_deterministic_across_identical_builds() {
    let run_once = || {
        let (sim, legit, bot, _) = build_world(PolicyConfig::traditional_antibot(), 7, 2);
        let app = sim.run(SimTime::from_days(2));
        let legit_stats = legit.borrow().stats();
        let bot_holds = bot.borrow().stats().holds_placed;
        (
            app.reservations().booking_count(),
            app.logs().len(),
            legit_stats,
            bot_holds,
        )
    };
    assert_eq!(run_once(), run_once());
}
