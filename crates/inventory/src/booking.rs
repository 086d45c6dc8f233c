//! Booking (PNR) records and lifecycle.

use crate::passenger::Passenger;
use fg_core::ids::{BookingRef, FlightId};
use fg_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Lifecycle state of a booking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BookingStatus {
    /// Seats are held; payment pending; hold expires at the recorded time.
    Held,
    /// Payment completed; seats are sold.
    Paid,
    /// E-ticket issued; boarding passes may be requested.
    Ticketed,
    /// The hold expired before payment; seats returned to inventory.
    Expired,
    /// Cancelled by the client or the defence; seats returned if held.
    Cancelled,
}

impl BookingStatus {
    /// Short lowercase label for error messages and reports.
    pub const fn label(self) -> &'static str {
        match self {
            BookingStatus::Held => "held",
            BookingStatus::Paid => "paid",
            BookingStatus::Ticketed => "ticketed",
            BookingStatus::Expired => "expired",
            BookingStatus::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for BookingStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A Passenger Name Record: the unit the attacks create in bulk.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Booking {
    reference: BookingRef,
    flight: FlightId,
    passengers: Vec<Passenger>,
    status: BookingStatus,
    created_at: SimTime,
    hold_expires_at: SimTime,
    boarding_passes_sent: u32,
}

impl Booking {
    pub(crate) fn new(
        reference: BookingRef,
        flight: FlightId,
        passengers: Vec<Passenger>,
        created_at: SimTime,
        hold_expires_at: SimTime,
    ) -> Self {
        Booking {
            reference,
            flight,
            passengers,
            status: BookingStatus::Held,
            created_at,
            hold_expires_at,
            boarding_passes_sent: 0,
        }
    }

    /// The flight this booking holds seats on.
    pub fn flight(&self) -> FlightId {
        self.flight
    }

    /// Passenger records, in entry order.
    pub fn passengers(&self) -> &[Passenger] {
        &self.passengers
    }

    /// Number in Party: the paper's Fig. 1 quantity.
    pub fn nip(&self) -> u32 {
        self.passengers.len() as u32
    }

    /// Current lifecycle state.
    pub fn status(&self) -> BookingStatus {
        self.status
    }

    /// Creation instant.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the hold lapses if unpaid.
    pub fn hold_expires_at(&self) -> SimTime {
        self.hold_expires_at
    }

    /// How many boarding passes have been issued against this booking.
    pub fn boarding_passes_sent(&self) -> u32 {
        self.boarding_passes_sent
    }

    pub(crate) fn set_status(&mut self, status: BookingStatus) {
        self.status = status;
    }

    pub(crate) fn count_boarding_pass(&mut self) {
        self.boarding_passes_sent += 1;
    }
}

impl fmt::Display for Booking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} NiP={} [{}]",
            self.reference,
            self.flight,
            self.nip(),
            self.status
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booking() -> Booking {
        Booking::new(
            BookingRef::from_index(1),
            FlightId(2),
            vec![Passenger::simple("A", "B"), Passenger::simple("C", "D")],
            SimTime::ZERO,
            SimTime::from_mins(30),
        )
    }

    #[test]
    fn new_booking_is_held() {
        let b = booking();
        assert_eq!(b.status(), BookingStatus::Held);
        assert_eq!(b.nip(), 2);
        assert_eq!(b.boarding_passes_sent(), 0);
        assert_eq!(b.hold_expires_at(), SimTime::from_mins(30));
    }

    #[test]
    fn status_labels() {
        assert_eq!(BookingStatus::Held.label(), "held");
        assert_eq!(BookingStatus::Ticketed.to_string(), "ticketed");
    }

    #[test]
    fn boarding_pass_counter() {
        let mut b = booking();
        b.count_boarding_pass();
        b.count_boarding_pass();
        assert_eq!(b.boarding_passes_sent(), 2);
    }

    #[test]
    fn display_mentions_reference_and_nip() {
        let s = booking().to_string();
        assert!(s.contains("NiP=2"));
        assert!(s.contains("[held]"));
    }
}
