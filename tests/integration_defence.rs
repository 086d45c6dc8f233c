//! Cross-crate integration: the defence pipeline itself — detection signals
//! flowing into policy decisions, the security-team loop, the honeypot, and
//! the attacker's adaptation, all through public APIs.

use fg_behavior::api::{ApiOutcome, App, ClientRequest};
use fg_behavior::{SeatSpinner, SeatSpinnerConfig};
use fg_core::ids::{ClientId, CountryCode, FlightId};
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_inventory::{Flight, Passenger};
use fg_mitigation::gating::TrustTier;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::ip::IpClass;
use fg_scenario::app::{AppConfig, DefendedApp};
use fg_scenario::engine::{share, Simulation};
use fg_scenario::team::{SecurityTeam, TeamConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn human_request(seed: u64) -> ClientRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    ClientRequest {
        client: ClientId(1_000_000 + seed),
        ip: GeoDatabase::default_world()
            .sample_ip(CountryCode::new("DE"), IpClass::Residential, &mut rng)
            .unwrap(),
        fingerprint: PopulationModel::default_web().sample_human(&mut rng),
        tier: TrustTier::Verified,
        is_bot: false,
    }
}

#[test]
fn naive_bot_is_stopped_at_the_first_request() {
    // A bot with a leaking webdriver flag never gets one hold through the
    // traditional posture.
    let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::traditional_antibot()), 1);
    app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));

    let mut req = human_request(1);
    req.is_bot = true;
    req.fingerprint.webdriver = true;

    let outcome = app.hold(
        &req,
        FlightId(1),
        vec![Passenger::simple("BOT", "ONE")],
        SimTime::ZERO,
    );
    assert!(outcome.defence_refused(), "{outcome}");
    assert_eq!(app.reservations().booking_count(), 0);
}

#[test]
fn team_and_rotation_arms_race_runs_multiple_rounds() {
    let geo = GeoDatabase::default_world();
    let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::traditional_antibot()), 2);
    app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(20)));

    let mut sim = Simulation::new(app, 2);
    sim.with_team(
        TeamConfig::default(),
        SimDuration::from_hours(1),
        SimTime::from_hours(1),
    );

    let mut rng = StdRng::seed_from_u64(2);
    let mut cfg = SeatSpinnerConfig::airline_a(FlightId(1));
    cfg.rotation_schedule = fg_fingerprint::rotation::RotationSchedule::OnBlock {
        reaction: SimDuration::from_hours(2),
    };
    let (bot, bot_agent) = share(SeatSpinner::new(cfg, ClientId(1), geo, &mut rng));
    sim.add_agent(bot_agent, SimTime::ZERO);

    let app = sim.run(SimTime::from_days(7));

    // Multiple block rules were deployed and multiple rotations answered
    // them — the §IV-A cycle, several rounds deep.
    assert!(
        app.core().policy().rules().len() >= 3,
        "rules {}",
        app.core().policy().rules().len()
    );
    assert!(
        bot.borrow().rotation_times().len() >= 3,
        "rotations {}",
        bot.borrow().rotation_times().len()
    );
    // Every deployed rule eventually hit something (it was aimed at a real
    // identity the bot used).
    let effective = app
        .core()
        .policy()
        .rules()
        .stats()
        .iter()
        .filter(|r| r.hits > 0)
        .count();
    assert!(effective >= 2, "effective rules {effective}");
}

#[test]
fn honeypot_keeps_attacker_spending_without_real_harm() {
    let geo = GeoDatabase::default_world();
    let mut policy = PolicyConfig::recommended();
    policy.gate.clear(fg_detection::log::Endpoint::Hold);
    policy.client_hold_limit = None;
    let mut app = DefendedApp::new(AppConfig::airline(policy), 3);
    app.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(20)));

    let mut sim = Simulation::new(app, 3);
    sim.with_team(
        TeamConfig::default(),
        SimDuration::from_hours(2),
        SimTime::from_hours(2),
    );
    let mut rng = StdRng::seed_from_u64(3);
    let (bot, bot_agent) = share(SeatSpinner::new(
        SeatSpinnerConfig::airline_a(FlightId(1)),
        ClientId(1),
        geo,
        &mut rng,
    ));
    sim.add_agent(bot_agent, SimTime::ZERO);

    let app = sim.run(SimTime::from_days(5));

    // After the team flags the bot, it lives in the decoy: fake holds pile
    // up, real inventory recovers, and the bot keeps "succeeding".
    assert!(
        app.core().honeypot().stats().holds_absorbed > 20,
        "{:?}",
        app.core().honeypot().stats()
    );
    let avail = app.reservations().availability(FlightId(1)).unwrap();
    assert!(avail.held < 90, "real holds bounded once diverted: {avail}");
    // The bot's view: most recent holds succeeded (it has no reason to
    // rotate aggressively).
    assert!(bot.borrow().stats().holds_placed > 50);
}

#[test]
fn security_team_review_is_side_effect_free_for_humans() {
    let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::traditional_antibot()), 4);
    app.add_flight(Flight::new(FlightId(1), 1_000, SimTime::from_days(30)));

    // Twenty distinct humans book and pay normally.
    for i in 0..20 {
        let req = human_request(100 + i);
        let booking = app
            .hold(
                &req,
                FlightId(1),
                vec![Passenger::simple("GOOD", &format!("USER{i}"))],
                SimTime::from_mins(i * 10),
            )
            .unwrap();
        assert!(app
            .pay(&req, booking, SimTime::from_mins(i * 10 + 5))
            .is_ok());
    }

    let mut team = SecurityTeam::new(TeamConfig::default());
    let outcome = team.review(&mut app, SimTime::from_hours(4));
    assert_eq!(outcome.fingerprints_blocked, 0, "{outcome:?}");

    // Humans remain unblocked afterwards.
    let req = human_request(105);
    assert!(matches!(
        app.search(&req, SimTime::from_hours(5)),
        ApiOutcome::Ok(())
    ));
}
