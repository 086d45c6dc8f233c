//! Long-horizon regression: rotating identities must not grow the defence
//! state without bound.
//!
//! The paper's attackers rotate fingerprints every few hours and take a
//! fresh residential exit per request, so every keyed defence map
//! (per-IP/per-fingerprint velocity, per-booking SMS limiter, per-client
//! hold limiter) sees an endless stream of new keys. With housekeeping
//! compaction/eviction wired into `DefendedApp::tick`, map sizes must track
//! the *live* key population — identities still inside a velocity window or
//! holding an unrefilled token bucket — not the cumulative total of
//! identities ever seen.

use fg_behavior::api::{App, ClientRequest};
use fg_core::ids::{ClientId, CountryCode, FlightId, PhoneNumber};
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::population::PopulationModel;
use fg_inventory::{Flight, Passenger};
use fg_mitigation::gating::TrustTier;
use fg_mitigation::policy::PolicyConfig;
use fg_netsim::geo::GeoDatabase;
use fg_netsim::ip::IpClass;
use fg_scenario::app::{AppConfig, DefendedApp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn rotating_identities_keep_defence_state_bounded() {
    let mut app = DefendedApp::new(AppConfig::airline(PolicyConfig::recommended()), 99);
    app.add_flight(Flight::new(FlightId(1), 100_000, SimTime::from_days(32)));
    let geo = GeoDatabase::default_world();
    let population = PopulationModel::default_web();
    let mut rng = StdRng::seed_from_u64(7);

    // 30 days; every hour two brand-new identities (fresh client, IP, and
    // fingerprint — never reused) search, hold, pay, and pull a boarding
    // pass over SMS, then disappear forever.
    const DAYS: u64 = 30;
    const IDENTITIES_PER_HOUR: u64 = 2;
    let mut distinct_identities = 0u64;
    let mut distinct_bookings = 0u64;
    for hour in 0..DAYS * 24 {
        for k in 0..IDENTITIES_PER_HOUR {
            distinct_identities += 1;
            let req = ClientRequest {
                client: ClientId(1_000 + distinct_identities),
                ip: geo
                    .sample_ip(CountryCode::new("DE"), IpClass::Residential, &mut rng)
                    .unwrap(),
                fingerprint: population.sample_human(&mut rng),
                tier: TrustTier::Verified,
                is_bot: false,
            };
            let now = SimTime::from_hours(hour) + SimDuration::from_mins(k as i64 * 20);
            let _ = app.search(&req, now);
            let held = app
                .hold(
                    &req,
                    FlightId(1),
                    vec![Passenger::simple("ROTATING", "TRAVELLER")],
                    now + SimDuration::from_mins(1),
                )
                .ok();
            if let Some(booking) = held {
                distinct_bookings += 1;
                let _ = app.pay(&req, booking, now + SimDuration::from_mins(2));
                let _ = app.boarding_pass_sms(
                    &req,
                    booking,
                    PhoneNumber::new(CountryCode::new("DE"), 15_200_000_000 + distinct_bookings),
                    now + SimDuration::from_mins(3),
                );
            }
        }
        // The simulation engine ticks housekeeping at least every 5 minutes;
        // hourly is a *weaker* regime, so passing here is conservative.
        app.tick(SimTime::from_hours(hour + 1));
    }

    assert_eq!(distinct_identities, DAYS * 24 * IDENTITIES_PER_HOUR);
    assert!(
        distinct_bookings > distinct_identities / 2,
        "workload failed to book: {distinct_bookings} bookings"
    );

    // Velocity counters (1 h sliding window): live keys are only the last
    // hour's identities — ≤ 2 identities × 3 maps, doubled for slack.
    let velocity = app.core().detection().tracked_keys();
    let velocity_live_bound = 2 * (IDENTITIES_PER_HOUR as usize) * 3;
    assert!(
        velocity.total() <= velocity_live_bound,
        "velocity maps grew past the live population: {velocity:?} \
         (bound {velocity_live_bound}, {distinct_identities} identities seen)"
    );

    // Keyed limiters: a booking-SMS bucket (burst 3, 3/day) refills the one
    // spent token in 8 h; a client-hold bucket (burst 5, 10/day) in 2.4 h.
    // Live populations are the keys active inside those refill spans.
    let (booking_sms, client_hold) = app.core().policy().limiter_tracked_keys();
    let booking_live = (IDENTITIES_PER_HOUR * 9) as usize; // ≤ 9 h of bookings
    assert!(
        booking_sms <= 2 * booking_live,
        "booking-SMS limiter grew past the live population: {booking_sms} \
         (bound {}, {distinct_bookings} bookings seen)",
        2 * booking_live
    );
    let client_live = (IDENTITIES_PER_HOUR * 3) as usize; // ≤ 3 h of clients
    assert!(
        client_hold <= 2 * client_live,
        "client-hold limiter grew past the live population: {client_hold} \
         (bound {}, {distinct_identities} clients seen)",
        2 * client_live
    );

    // The point of the regression: state is orders of magnitude below the
    // cumulative key count a leak would reach.
    let total_state = velocity.total() + booking_sms + client_hold;
    assert!(
        (total_state as u64) < distinct_identities / 10,
        "defence state ({total_state}) is not bounded relative to \
         {distinct_identities} rotated identities"
    );
}
