//! # fg-scenario
//!
//! The scenario layer of FeatureGuard — where the paper's systems meet.
//!
//! * [`decision`] — [`decision::DecisionCore`]: the defence pipeline
//!   (detection engine → policy engine → honeypot / rate limits / gating)
//!   and the state it keeps; fg-serve locks it alone.
//! * [`app`] — [`DefendedApp`]: the airline web application, the decision
//!   core wired in front of the reservation system and the SMS gateway,
//!   with CAPTCHA resolution. Implements [`fg_behavior::App`] so every
//!   agent — legitimate or attacker — drives it identically.
//! * [`team`] — [`SecurityTeam`]: the §IV-A incident-response loop that
//!   periodically reviews logs and bookings, deploys fingerprint block
//!   rules, and feeds IP reputation.
//! * [`engine`] — [`Simulation`]: the deterministic discrete-event driver
//!   over agents, scheduled interventions, and periodic reviews.
//! * [`experiments`] — one runner per paper artifact (Fig. 1, Table I, the
//!   §IV case studies, and the §V mitigation/honeypot ablations), each
//!   returning a typed, printable report.
//! * [`harness`] — the parallel multi-seed harness: fans (experiment ×
//!   seed) cells across worker threads and aggregates replicates into
//!   mean ± stddev tables and merged telemetry.
//! * [`report`] — plain-text table rendering and JSON export.
//!
//! # Example
//!
//! ```no_run
//! use fg_scenario::experiments::fig1;
//!
//! let report = fig1::run(fig1::Fig1Config::default());
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod decision;
pub mod engine;
pub mod experiments;
pub mod harness;
pub mod monitor;
pub mod report;
pub mod team;
pub mod workload;

pub use app::{AppConfig, DefendedApp, GateDecision};
pub use engine::{share, Simulation};
pub use harness::{run_matrix, ExperimentRun, ExperimentSpec, HarnessConfig};
pub use team::SecurityTeam;
