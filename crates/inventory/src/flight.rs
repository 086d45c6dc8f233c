//! Flights and seat availability.

use fg_core::ids::FlightId;
use fg_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A flight instance with finite seat capacity and a departure time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flight {
    id: FlightId,
    capacity: u32,
    departure: SimTime,
}

impl Flight {
    /// Creates a flight.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(id: FlightId, capacity: u32, departure: SimTime) -> Self {
        assert!(capacity > 0, "a flight needs at least one seat");
        Flight {
            id,
            capacity,
            departure,
        }
    }

    /// The flight identifier.
    pub fn id(&self) -> FlightId {
        self.id
    }

    /// Total seat capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Departure instant.
    pub fn departure(&self) -> SimTime {
        self.departure
    }

    /// `true` once `now` has reached departure.
    pub fn departed(&self, now: SimTime) -> bool {
        now >= self.departure
    }
}

impl fmt::Display for Flight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} seats, departs {})",
            self.id, self.capacity, self.departure
        )
    }
}

/// A snapshot of a flight's seat ledger.
///
/// The conservation invariant `available + held + sold == capacity` holds at
/// every instant and is property-tested in [`crate::system`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Availability {
    /// Seats free to hold right now.
    pub available: u32,
    /// Seats inside active (unexpired, unpaid) holds.
    pub held: u32,
    /// Seats sold (paid or ticketed).
    pub sold: u32,
}

impl Availability {
    /// Total seats accounted for.
    pub fn capacity(&self) -> u32 {
        self.available + self.held + self.sold
    }

    /// The fraction of capacity currently *denied* to genuine buyers by
    /// holds — the direct harm metric of a Denial-of-Inventory attack.
    pub fn hold_ratio(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            f64::from(self.held) / f64::from(cap)
        }
    }
}

impl fmt::Display for Availability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "available={} held={} sold={}",
            self.available, self.held, self.sold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_accessors() {
        let fl = Flight::new(FlightId(9), 180, SimTime::from_days(10));
        assert_eq!(fl.id(), FlightId(9));
        assert_eq!(fl.capacity(), 180);
        assert!(!fl.departed(SimTime::from_days(9)));
        assert!(fl.departed(SimTime::from_days(10)));
    }

    #[test]
    #[should_panic(expected = "at least one seat")]
    fn zero_capacity_rejected() {
        Flight::new(FlightId(1), 0, SimTime::ZERO);
    }

    #[test]
    fn availability_ratios() {
        let a = Availability {
            available: 50,
            held: 30,
            sold: 20,
        };
        assert_eq!(a.capacity(), 100);
        assert!((a.hold_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_availability_is_safe() {
        let a = Availability::default();
        assert_eq!(a.capacity(), 0);
        assert_eq!(a.hold_ratio(), 0.0);
    }
}
