//! The reservation system: flights, holds, payments, expiry.

use crate::booking::{Booking, BookingStatus};
use crate::error::InventoryError;
use crate::flight::{Availability, Flight};
use crate::passenger::Passenger;
use fg_core::event::EventQueue;
use fg_core::ids::{BookingRef, FlightId};
use fg_core::stats::Histogram;
use fg_core::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// The airline reservation core: finite seat inventory, TTL holds, and the
/// PNR lifecycle.
///
/// The two parameters the paper's mitigations turn are first-class here:
/// the **hold TTL** ("30 minutes to several hours depending on the domain")
/// and the **maximum Number in Party** (the Fig. 1 cap). Both can be changed
/// mid-run, exactly as the Amadeus team did during the Airline A incident.
///
/// # Example
///
/// ```
/// use fg_inventory::{Flight, Passenger, ReservationSystem, BookingStatus};
/// use fg_core::time::{SimDuration, SimTime};
/// use fg_core::ids::FlightId;
///
/// let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
/// sys.add_flight(Flight::new(FlightId(1), 2, SimTime::from_days(7)));
///
/// let r = sys.hold(FlightId(1), vec![Passenger::simple("A", "B")], SimTime::ZERO)?;
/// // Unpaid holds lapse after the TTL and seats return to inventory.
/// sys.expire_due(SimTime::from_mins(31));
/// assert_eq!(sys.booking(r).unwrap().status(), BookingStatus::Expired);
/// assert_eq!(sys.availability(FlightId(1)).unwrap().available, 2);
/// # Ok::<(), fg_inventory::InventoryError>(())
/// ```
#[derive(Debug)]
pub struct ReservationSystem {
    flights: HashMap<FlightId, Flight>,
    ledgers: HashMap<FlightId, Availability>,
    bookings: HashMap<BookingRef, Booking>,
    expiry: EventQueue<BookingRef>,
    hold_ttl: SimDuration,
    max_nip: u32,
    next_ref: u64,
}

impl ReservationSystem {
    /// Creates a system with the given hold TTL and maximum party size.
    ///
    /// # Panics
    ///
    /// Panics if `hold_ttl` is not positive or `max_nip` is zero.
    pub fn new(hold_ttl: SimDuration, max_nip: u32) -> Self {
        assert!(hold_ttl.as_millis() > 0, "hold TTL must be positive");
        assert!(max_nip > 0, "maximum party size must be at least one");
        ReservationSystem {
            flights: HashMap::new(),
            ledgers: HashMap::new(),
            bookings: HashMap::new(),
            expiry: EventQueue::new(),
            hold_ttl,
            max_nip,
            next_ref: 0,
        }
    }

    /// Registers a flight. Replaces any previous flight with the same id and
    /// resets its ledger.
    pub fn add_flight(&mut self, flight: Flight) {
        self.ledgers.insert(
            flight.id(),
            Availability {
                available: flight.capacity(),
                held: 0,
                sold: 0,
            },
        );
        self.flights.insert(flight.id(), flight);
    }

    /// Looks up a flight.
    pub fn flight(&self, id: FlightId) -> Option<&Flight> {
        self.flights.get(&id)
    }

    /// All flight ids, sorted (deterministic iteration).
    pub fn flight_ids(&self) -> Vec<FlightId> {
        let mut ids: Vec<FlightId> = self.flights.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The current maximum Number in Party.
    pub fn max_nip(&self) -> u32 {
        self.max_nip
    }

    /// Changes the NiP cap — the Fig. 1 mitigation.
    pub fn set_max_nip(&mut self, max: u32) {
        assert!(max > 0, "maximum party size must be at least one");
        self.max_nip = max;
    }

    /// Places a hold for `passengers` on `flight` at `now`.
    ///
    /// Expires any due holds first, so availability reflects reality.
    ///
    /// # Errors
    ///
    /// * [`InventoryError::UnknownFlight`] — no such flight.
    /// * [`InventoryError::FlightDeparted`] — flight already departed.
    /// * [`InventoryError::EmptyParty`] — zero passengers.
    /// * [`InventoryError::PartyTooLarge`] — over the NiP cap.
    /// * [`InventoryError::InsufficientSeats`] — not enough free seats.
    pub fn hold(
        &mut self,
        flight: FlightId,
        passengers: Vec<Passenger>,
        now: SimTime,
    ) -> Result<BookingRef, InventoryError> {
        self.expire_due(now);
        let fl = self
            .flights
            .get(&flight)
            .copied()
            .ok_or(InventoryError::UnknownFlight(flight))?;
        if fl.departed(now) {
            return Err(InventoryError::FlightDeparted(flight));
        }
        if passengers.is_empty() {
            return Err(InventoryError::EmptyParty);
        }
        let nip = passengers.len() as u32;
        if nip > self.max_nip {
            return Err(InventoryError::PartyTooLarge {
                requested: nip,
                max: self.max_nip,
            });
        }
        let ledger = self
            .ledgers
            .get_mut(&flight)
            .expect("ledger exists per flight");
        if ledger.available < nip {
            return Err(InventoryError::InsufficientSeats {
                flight,
                requested: nip,
                available: ledger.available,
            });
        }
        ledger.available -= nip;
        ledger.held += nip;

        let reference = BookingRef::from_index(self.next_ref);
        self.next_ref += 1;
        let expires = now + self.hold_ttl;
        self.bookings.insert(
            reference,
            Booking::new(reference, flight, passengers, now, expires),
        );
        self.expiry.schedule(expires, reference);
        Ok(reference)
    }

    /// Pays for a held booking, converting held seats to sold.
    ///
    /// # Errors
    ///
    /// * [`InventoryError::UnknownBooking`] — no such booking.
    /// * [`InventoryError::WrongState`] — booking is not currently held
    ///   (including holds that lapsed before `now`).
    pub fn pay(&mut self, reference: BookingRef, now: SimTime) -> Result<(), InventoryError> {
        self.expire_due(now);
        let booking = self
            .bookings
            .get_mut(&reference)
            .ok_or(InventoryError::UnknownBooking(reference))?;
        if booking.status() != BookingStatus::Held {
            return Err(InventoryError::WrongState {
                booking: reference,
                expected: "held",
                actual: booking.status().label(),
            });
        }
        let nip = booking.nip();
        let flight = booking.flight();
        booking.set_status(BookingStatus::Paid);
        let ledger = self
            .ledgers
            .get_mut(&flight)
            .expect("ledger exists per flight");
        ledger.held -= nip;
        ledger.sold += nip;
        Ok(())
    }

    /// Issues the e-ticket for a paid booking.
    ///
    /// # Errors
    ///
    /// Returns [`InventoryError::WrongState`] unless the booking is paid, or
    /// [`InventoryError::UnknownBooking`] if it does not exist.
    pub fn ticket(&mut self, reference: BookingRef) -> Result<(), InventoryError> {
        let booking = self
            .bookings
            .get_mut(&reference)
            .ok_or(InventoryError::UnknownBooking(reference))?;
        if booking.status() != BookingStatus::Paid {
            return Err(InventoryError::WrongState {
                booking: reference,
                expected: "paid",
                actual: booking.status().label(),
            });
        }
        booking.set_status(BookingStatus::Ticketed);
        Ok(())
    }

    /// Processes all holds whose TTL elapsed by `now`. Returns the booking
    /// references that expired in this call.
    pub fn expire_due(&mut self, now: SimTime) -> Vec<BookingRef> {
        let mut expired = Vec::new();
        while let Some((_, reference)) = self.expiry.pop_before(now) {
            let Some(booking) = self.bookings.get_mut(&reference) else {
                continue;
            };
            // Only still-held bookings whose recorded expiry has truly passed
            // lapse; paid/cancelled bookings left stale queue entries behind.
            if booking.status() == BookingStatus::Held && booking.hold_expires_at() <= now {
                let nip = booking.nip();
                let flight = booking.flight();
                booking.set_status(BookingStatus::Expired);
                let ledger = self
                    .ledgers
                    .get_mut(&flight)
                    // fg-analyze: allow(panic-path): ledger invariant — bookings are only created against flights registered with a ledger
                    .expect("ledger exists per flight");
                ledger.held -= nip;
                ledger.available += nip;
                expired.push(reference);
            }
        }
        expired
    }

    /// Registers a boarding-pass issuance against a ticketed booking.
    ///
    /// The caller delivers the pass (e.g. through `fg-smsgw`); this method
    /// only enforces booking state and counts issuances — deliberately
    /// unlimited per booking, reproducing the §IV-C vulnerability. Rate
    /// limits belong to the mitigation layer.
    ///
    /// # Errors
    ///
    /// Returns [`InventoryError::WrongState`] unless the booking is ticketed,
    /// or [`InventoryError::UnknownBooking`] if it does not exist.
    pub fn issue_boarding_pass(&mut self, reference: BookingRef) -> Result<u32, InventoryError> {
        let booking = self
            .bookings
            .get_mut(&reference)
            .ok_or(InventoryError::UnknownBooking(reference))?;
        if booking.status() != BookingStatus::Ticketed {
            return Err(InventoryError::WrongState {
                booking: reference,
                expected: "ticketed",
                actual: booking.status().label(),
            });
        }
        booking.count_boarding_pass();
        Ok(booking.boarding_passes_sent())
    }

    /// Snapshot of a flight's seat ledger (after lazily expiring due holds
    /// would be ideal, but this is a `&self` query; call
    /// [`ReservationSystem::expire_due`] first for exact numbers).
    pub fn availability(&self, flight: FlightId) -> Option<Availability> {
        self.ledgers.get(&flight).copied()
    }

    /// Looks up a booking.
    pub fn booking(&self, reference: BookingRef) -> Option<&Booking> {
        self.bookings.get(&reference)
    }

    /// Iterates over every booking ever created (order unspecified).
    pub fn bookings(&self) -> impl Iterator<Item = &Booking> {
        self.bookings.values()
    }

    /// Number of bookings ever created.
    pub fn booking_count(&self) -> usize {
        self.bookings.len()
    }

    /// The NiP histogram over bookings created in `[from, to)` — the Fig. 1
    /// quantity. Includes non-finalized bookings, as the paper's does
    /// ("considering also the non finalized ones").
    pub fn nip_histogram(&self, from: SimTime, to: SimTime, max_nip: usize) -> Histogram {
        let mut h = Histogram::new(max_nip);
        for b in self.bookings.values() {
            if b.created_at() >= from && b.created_at() < to {
                h.record(b.nip() as usize);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pax(n: usize) -> Vec<Passenger> {
        (0..n)
            .map(|i| Passenger::simple(&format!("P{i}"), "TEST"))
            .collect()
    }

    fn system_with_flight(capacity: u32) -> ReservationSystem {
        let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
        sys.add_flight(Flight::new(FlightId(1), capacity, SimTime::from_days(30)));
        sys
    }

    fn conservation_ok(sys: &ReservationSystem, flight: FlightId, capacity: u32) -> bool {
        let a = sys.availability(flight).unwrap();
        a.available + a.held + a.sold == capacity
    }

    #[test]
    fn hold_reduces_availability() {
        let mut sys = system_with_flight(10);
        sys.hold(FlightId(1), pax(3), SimTime::ZERO).unwrap();
        let a = sys.availability(FlightId(1)).unwrap();
        assert_eq!(a.available, 7);
        assert_eq!(a.held, 3);
        assert!(conservation_ok(&sys, FlightId(1), 10));
    }

    #[test]
    fn pay_converts_held_to_sold() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(2), SimTime::ZERO).unwrap();
        sys.pay(r, SimTime::from_mins(5)).unwrap();
        let a = sys.availability(FlightId(1)).unwrap();
        assert_eq!((a.available, a.held, a.sold), (8, 0, 2));
        assert_eq!(sys.booking(r).unwrap().status(), BookingStatus::Paid);
    }

    #[test]
    fn expired_hold_returns_seats() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(4), SimTime::ZERO).unwrap();
        let expired = sys.expire_due(SimTime::from_mins(31));
        assert_eq!(expired, vec![r]);
        let a = sys.availability(FlightId(1)).unwrap();
        assert_eq!((a.available, a.held, a.sold), (10, 0, 0));
    }

    #[test]
    fn hold_exactly_at_ttl_boundary_expires() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(1), SimTime::ZERO).unwrap();
        assert!(
            sys.pay(r, SimTime::from_mins(30)).is_err(),
            "expiry is inclusive"
        );
    }

    #[test]
    fn pay_after_expiry_fails_even_without_explicit_expire() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(1), SimTime::ZERO).unwrap();
        let err = sys.pay(r, SimTime::from_hours(2)).unwrap_err();
        assert!(matches!(
            err,
            InventoryError::WrongState {
                actual: "expired",
                ..
            }
        ));
    }

    #[test]
    fn paid_booking_does_not_expire() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(2), SimTime::ZERO).unwrap();
        sys.pay(r, SimTime::from_mins(10)).unwrap();
        let expired = sys.expire_due(SimTime::from_hours(5));
        assert!(expired.is_empty());
        assert_eq!(sys.booking(r).unwrap().status(), BookingStatus::Paid);
        assert!(conservation_ok(&sys, FlightId(1), 10));
    }

    #[test]
    fn nip_cap_enforced_and_adjustable() {
        let mut sys = system_with_flight(50);
        assert!(sys.hold(FlightId(1), pax(9), SimTime::ZERO).is_ok());
        sys.set_max_nip(4);
        let err = sys.hold(FlightId(1), pax(5), SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            InventoryError::PartyTooLarge {
                requested: 5,
                max: 4
            }
        );
        assert!(sys.hold(FlightId(1), pax(4), SimTime::ZERO).is_ok());
    }

    #[test]
    fn sold_out_flight_rejects_holds() {
        let mut sys = system_with_flight(3);
        sys.hold(FlightId(1), pax(3), SimTime::ZERO).unwrap();
        let err = sys.hold(FlightId(1), pax(1), SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            InventoryError::InsufficientSeats { available: 0, .. }
        ));
    }

    #[test]
    fn seats_free_after_expiry_can_be_rebooked() {
        // The seat-spinning loop: hold, wait for expiry, hold again.
        let mut sys = system_with_flight(6);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            let r = sys.hold(FlightId(1), pax(6), now).unwrap();
            now += SimDuration::from_mins(31);
            let expired = sys.expire_due(now);
            assert_eq!(expired, vec![r]);
        }
        assert_eq!(sys.booking_count(), 10);
        assert!(conservation_ok(&sys, FlightId(1), 6));
    }

    #[test]
    fn departed_flight_rejects_holds() {
        let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
        sys.add_flight(Flight::new(FlightId(5), 10, SimTime::from_days(1)));
        let err = sys
            .hold(FlightId(5), pax(1), SimTime::from_days(2))
            .unwrap_err();
        assert_eq!(err, InventoryError::FlightDeparted(FlightId(5)));
    }

    #[test]
    fn empty_party_rejected() {
        let mut sys = system_with_flight(10);
        assert_eq!(
            sys.hold(FlightId(1), vec![], SimTime::ZERO).unwrap_err(),
            InventoryError::EmptyParty
        );
    }

    #[test]
    fn unknown_entities_error() {
        let mut sys = system_with_flight(10);
        assert_eq!(
            sys.hold(FlightId(99), pax(1), SimTime::ZERO).unwrap_err(),
            InventoryError::UnknownFlight(FlightId(99))
        );
        let ghost = BookingRef::from_index(999);
        assert_eq!(
            sys.pay(ghost, SimTime::ZERO).unwrap_err(),
            InventoryError::UnknownBooking(ghost)
        );
    }

    #[test]
    fn boarding_pass_requires_ticketed_state() {
        let mut sys = system_with_flight(10);
        let r = sys.hold(FlightId(1), pax(1), SimTime::ZERO).unwrap();
        assert!(sys.issue_boarding_pass(r).is_err());
        sys.pay(r, SimTime::from_mins(1)).unwrap();
        assert!(sys.issue_boarding_pass(r).is_err());
        sys.ticket(r).unwrap();
        // No per-booking limit — the §IV-C vulnerability.
        for i in 1..=500 {
            assert_eq!(sys.issue_boarding_pass(r).unwrap(), i);
        }
    }

    #[test]
    fn nip_histogram_windows_by_creation_time() {
        let mut sys = system_with_flight(200);
        sys.hold(FlightId(1), pax(2), SimTime::from_days(0))
            .unwrap();
        sys.hold(FlightId(1), pax(6), SimTime::from_days(8))
            .unwrap();
        sys.hold(FlightId(1), pax(6), SimTime::from_days(9))
            .unwrap();
        let week0 = sys.nip_histogram(SimTime::ZERO, SimTime::from_weeks(1), 9);
        let week1 = sys.nip_histogram(SimTime::from_weeks(1), SimTime::from_weeks(2), 9);
        assert_eq!(week0.count(2), 1);
        assert_eq!(week0.total(), 1);
        assert_eq!(week1.count(6), 2);
    }

    #[test]
    fn booking_refs_are_unique() {
        let mut sys = system_with_flight(200);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let r = sys
                .hold(FlightId(1), pax(1), SimTime::from_mins(i))
                .unwrap();
            assert!(seen.insert(r));
        }
    }

    proptest! {
        /// Conservation invariant: under any interleaving of holds, payments
        /// and time advances, available + held + sold equals capacity.
        #[test]
        fn prop_seat_conservation(ops in proptest::collection::vec((0u8..3, 1usize..6, 0u64..120), 1..80)) {
            let capacity = 40;
            let mut sys = system_with_flight(capacity);
            let mut refs: Vec<BookingRef> = Vec::new();
            let mut now = SimTime::ZERO;
            for (op, n, dt) in ops {
                now += SimDuration::from_mins(dt as i64);
                match op {
                    0 => {
                        if let Ok(r) = sys.hold(FlightId(1), pax(n), now) {
                            refs.push(r);
                        }
                    }
                    1 => {
                        if let Some(&r) = refs.get(n % refs.len().max(1)) {
                            let _ = sys.pay(r, now);
                        }
                    }
                    _ => {
                        sys.expire_due(now);
                    }
                }
                prop_assert!(conservation_ok(&sys, FlightId(1), capacity));
            }
            // Final sweep far in the future: every hold lapses; conservation
            // still holds and nothing remains held.
            sys.expire_due(now + SimDuration::from_days(1));
            prop_assert!(conservation_ok(&sys, FlightId(1), capacity));
            prop_assert_eq!(sys.availability(FlightId(1)).unwrap().held, 0);
        }
    }
}
