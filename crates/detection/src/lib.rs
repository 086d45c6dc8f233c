//! # fg-detection
//!
//! The detection layer of the FeatureGuard framework.
//!
//! §III of the paper surveys the two classical detection families and their
//! failure mode against functional abuse:
//!
//! * **Behaviour-based** (§III-A): web logs → sessions → navigational
//!   features → classifier. Fails on DoI / SMS pumping because "these bots do
//!   not require a high request volume within a single session".
//! * **Knowledge-based** (§III-B): browser fingerprinting. Fails against
//!   rotation and mimicry.
//!
//! This crate implements the behaviour-based pipeline up to the features
//! (the experiments score them with unsupervised rules, not a trained
//! classifier) *and* the domain-specific heuristics the case studies show
//! actually work:
//!
//! * [`log`] / [`session`] — web-log records and gap-based sessionization.
//! * [`features`] — per-session behavioural feature vectors (volume metrics
//!   the literature uses, plus the domain metrics — hold/pay ratio, SMS per
//!   booking — that functional abuse actually moves).
//! * [`confusion`] — the binary confusion matrix (precision, recall, F1,
//!   false-positive rate) the detector experiments report.
//! * [`anomaly`] — distribution drift tests (chi-square, KL divergence,
//!   Poisson z-score) powering NiP-distribution and volume anomaly alarms.
//! * [`names`] — passenger-name heuristics from §IV-B: gibberish detection,
//!   cross-booking repetition, birthdate rotation, fixed-set permutations,
//!   misspelling clusters.
//! * [`velocity`] — sliding-window velocity counters keyed by arbitrary
//!   dimensions (IP, fingerprint, booking reference, path).
//! * [`engine`] — the combined [`DetectionEngine`] producing a scored
//!   [`Verdict`] per request from every signal above.
//!
//! # Example
//!
//! ```
//! use fg_detection::names::gibberish_score;
//!
//! // §IV-B: "entirely random entries (e.g., Name: affjgdui, Surname: ddfjrei)"
//! assert!(gibberish_score("affjgdui") > 0.5);
//! assert!(gibberish_score("Elisabeth") < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod confusion;
pub mod engine;
pub mod features;
pub mod log;
pub mod names;
pub mod session;
pub mod velocity;

pub use engine::{DetectionEngine, Signal, Verdict};
pub use features::SessionFeatures;
pub use log::{Endpoint, LogRecord, Method};
pub use session::{sessionize, Session};
pub use velocity::VelocityCounter;
