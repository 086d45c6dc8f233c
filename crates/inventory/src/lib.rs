//! # fg-inventory
//!
//! Reservation and inventory substrate for the FeatureGuard workspace.
//!
//! This crate implements the application features the paper's attacks abuse:
//!
//! * **Seat holds** (§IV-A): "once a seat is selected on a flight, it is
//!   temporarily reserved for the passenger for a specific duration — ranging
//!   from 30 minutes to several hours — before payment is required."
//!   [`ReservationSystem`] owns flights with finite capacity and a TTL-based
//!   hold ledger whose conservation invariant
//!   (`available + held + sold == capacity`) is property-tested.
//! * **PNR lifecycle** (§IV-B/C): bookings carry passenger records (name,
//!   surname, birthdate, email) — the very fields whose repetition patterns
//!   betray automated vs. manual Seat Spinning — and move through
//!   held → paid → ticketed states.
//! * **Boarding-pass issuance** (§IV-C): ticketed bookings can request
//!   boarding-pass delivery via SMS any number of times
//!   ([`ReservationSystem::issue_boarding_pass`]) — the feature that,
//!   without per-booking rate limits, enabled the Airline D SMS-pumping
//!   attack.
//! * **Generic carts** ([`cart`]): OWASP's canonical DoI formulation —
//!   e-commerce stock held in carts without purchase.
//!
//! # Example
//!
//! ```
//! use fg_inventory::{Flight, Passenger, ReservationSystem};
//! use fg_core::time::{SimDuration, SimTime};
//! use fg_core::ids::FlightId;
//!
//! let mut sys = ReservationSystem::new(SimDuration::from_mins(30), 9);
//! sys.add_flight(Flight::new(FlightId(1), 180, SimTime::from_days(30)));
//!
//! let pax = vec![Passenger::simple("ADA", "LOVELACE")];
//! let booking = sys.hold(FlightId(1), pax, SimTime::ZERO)?;
//! assert_eq!(sys.availability(FlightId(1)).unwrap().held, 1);
//!
//! sys.pay(booking, SimTime::from_mins(10))?;
//! assert_eq!(sys.availability(FlightId(1)).unwrap().sold, 1);
//! # Ok::<(), fg_inventory::InventoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod booking;
pub mod cart;
pub mod error;
pub mod flight;
pub mod passenger;
pub mod pricing;
pub mod system;

pub use booking::{Booking, BookingStatus};
pub use cart::{CartStore, Product, ProductId};
pub use error::InventoryError;
pub use flight::{Availability, Flight};
pub use passenger::{Date, Passenger};
pub use pricing::DynamicPricer;
pub use system::ReservationSystem;
