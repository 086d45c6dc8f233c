//! # fg-netsim
//!
//! Network substrate for the FeatureGuard workspace.
//!
//! The attacks the paper studies hide behind **residential proxies**: §IV-C's
//! SMS pumpers "leveraged residential proxies to rotate their bots' IP
//! addresses *while matching the countries associated with the mobile
//! numbers*", and §IV-B's manual spinners used "a broad range of IP addresses
//! to hide their location". Defenders, in turn, score IP reputation and block
//! ranges — which is cheap against datacenter egress and nearly useless
//! against residential pools. This crate models that terrain:
//!
//! * [`ip`] — a compact IPv4-style address space with [`IpClass`]
//!   (residential / datacenter / mobile) and range arithmetic.
//! * [`geo`] — deterministic address-block → country allocation and lookup.
//! * [`proxy`] — per-country residential proxy pools with finite exits,
//!   rotation, and per-request pricing (the attacker's cost driver in the §V
//!   economics argument).
//! * [`reputation`] — the defender's IP reputation ledger with score decay,
//!   block thresholds, and /24-style subnet aggregation.
//!
//! # Example
//!
//! ```
//! use fg_netsim::geo::GeoDatabase;
//! use fg_netsim::proxy::ProxyPool;
//! use fg_core::ids::CountryCode;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let geo = GeoDatabase::default_world();
//! let mut pool = ProxyPool::residential(&geo, 64);
//! let mut rng = StdRng::seed_from_u64(1);
//! let uz = CountryCode::new("UZ");
//! let exit = pool.rent(uz, &mut rng).expect("UZ has exits");
//! assert_eq!(geo.country_of(exit), Some(uz));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geo;
pub mod ip;
pub mod proxy;
pub mod reputation;

pub use geo::GeoDatabase;
pub use ip::{IpAddress, IpClass, IpRange};
pub use proxy::ProxyPool;
pub use reputation::ReputationLedger;
