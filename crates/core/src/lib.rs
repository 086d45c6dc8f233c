//! # fg-core
//!
//! Core primitives shared by every crate in the FeatureGuard workspace — the
//! reproduction of *"When Features Gets Exploited: Functional Abuse and the
//! Future of Industrial Fraud Prevention"* (DSN 2025).
//!
//! The workspace models an online reservation platform under attack from
//! functional-abuse bots (Denial of Inventory / Seat Spinning, SMS Pumping)
//! and the detection/mitigation pipeline defending it. Everything runs inside
//! a deterministic discrete-event simulation, and this crate provides the
//! shared substrate:
//!
//! * [`time`] — simulated wall-clock time ([`SimTime`], [`SimDuration`]) with
//!   calendar helpers (weeks, days, hours) used by every scheduler and ledger.
//! * [`event`] — a deterministic, seq-tie-broken event queue for
//!   discrete-event simulation.
//! * [`rng`] — seed-forking helpers so that independent subsystems draw from
//!   independent, reproducible random streams.
//! * [`ids`] — strongly-typed identifiers (clients, sessions, flights,
//!   booking references, phone numbers, countries).
//! * [`money`] — fixed-point money arithmetic for the attacker/defender
//!   economics models.
//! * [`stats`] — streaming statistics: histograms, categorical distributions,
//!   time-bucketed series, summary accumulators.
//! * [`hash`] — fast deterministic hashing ([`hash::FxHashMap`]) for the
//!   per-event keyed maps on the request path.
//! * [`shard`] — hash partitioning ([`ShardedStore`]) for those keyed maps,
//!   plus the [`ConcurrencyMode`] selecting it.
//!
//! # Example
//!
//! ```
//! use fg_core::time::{SimTime, SimDuration};
//! use fg_core::event::EventQueue;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(5), "hold expires");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(1), "request arrives");
//!
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(1));
//! assert_eq!(what, "request arrives");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hash;
pub mod ids;
pub mod money;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use ids::{BookingRef, ClientId, CountryCode, FlightId, PhoneNumber, SessionId};
pub use money::Money;
pub use rng::SeedFork;
pub use shard::{ConcurrencyMode, ShardedStore};
pub use time::{SimDuration, SimTime};
