//! The combined request-scoring engine.
//!
//! One request's evidence is assembled from every family the paper surveys:
//! fingerprint consistency (knowledge-based, §III-B), velocity over several
//! keys (behaviour-based, §III-A — including the per-booking SMS velocity
//! whose *absence* let the Airline D attack run), and IP reputation. Signals
//! combine noisy-OR style into a single suspicion score the mitigation
//! policy thresholds against.

use crate::log::Endpoint;
use crate::velocity::VelocityCounter;
use fg_core::ids::BookingRef;
use fg_core::time::{SimDuration, SimTime};
use fg_fingerprint::attributes::Fingerprint;
use fg_fingerprint::inconsistency::consistency_report;
use fg_netsim::ip::IpAddress;
use fg_netsim::reputation::ReputationLedger;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One contributing detection signal with its weight.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Signal {
    /// Fingerprint failed consistency checks (weight = suspicion).
    FingerprintInconsistent {
        /// The consistency suspicion, `0.0..=1.0`.
        suspicion: f64,
    },
    /// The source IP (or its /24) is over the reputation threshold.
    IpReputation,
    /// Too many requests from one IP in the window.
    IpVelocity {
        /// Requests observed in the window.
        count: u64,
    },
    /// Too many requests from one fingerprint identity in the window.
    FingerprintVelocity {
        /// Requests observed in the window.
        count: u64,
    },
    /// Too many SMS-triggering requests against one booking reference.
    BookingSmsVelocity {
        /// Requests observed in the window.
        count: u64,
    },
    /// The client touched a trap URL invisible to humans.
    TrapHit,
}

impl Signal {
    /// Stable kind labels for every signal family, for pre-registering
    /// per-signal metrics (the [`fmt::Display`] form embeds per-request
    /// values and is unsuitable as a metric label).
    pub const KINDS: [&'static str; 6] = [
        "fingerprint-inconsistent",
        "ip-reputation",
        "ip-velocity",
        "fp-velocity",
        "booking-sms-velocity",
        "trap-hit",
    ];

    /// This signal's stable kind label (one of [`Signal::KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Signal::FingerprintInconsistent { .. } => "fingerprint-inconsistent",
            Signal::IpReputation => "ip-reputation",
            Signal::IpVelocity { .. } => "ip-velocity",
            Signal::FingerprintVelocity { .. } => "fp-velocity",
            Signal::BookingSmsVelocity { .. } => "booking-sms-velocity",
            Signal::TrapHit => "trap-hit",
        }
    }

    /// The signal's contribution weight in `0.0..=1.0`.
    pub fn weight(&self) -> f64 {
        match self {
            Signal::FingerprintInconsistent { suspicion } => *suspicion,
            Signal::IpReputation => 0.8,
            Signal::IpVelocity { count } => (0.1 * (*count as f64).ln_1p()).min(0.7),
            Signal::FingerprintVelocity { count } => (0.12 * (*count as f64).ln_1p()).min(0.75),
            Signal::BookingSmsVelocity { count } => (0.2 * (*count as f64).ln_1p()).min(0.95),
            Signal::TrapHit => 0.9,
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::FingerprintInconsistent { suspicion } => {
                write!(f, "fingerprint-inconsistent({suspicion:.2})")
            }
            Signal::IpReputation => write!(f, "ip-reputation"),
            Signal::IpVelocity { count } => write!(f, "ip-velocity({count})"),
            Signal::FingerprintVelocity { count } => write!(f, "fp-velocity({count})"),
            Signal::BookingSmsVelocity { count } => write!(f, "booking-sms-velocity({count})"),
            Signal::TrapHit => write!(f, "trap-hit"),
        }
    }
}

/// The engine's scored verdict on one request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Combined suspicion, `0.0..=1.0` (noisy-OR over signal weights).
    pub score: f64,
    /// The contributing signals.
    pub signals: Vec<Signal>,
}

impl Verdict {
    /// A verdict with no signals.
    pub fn clean() -> Self {
        Verdict {
            score: 0.0,
            signals: Vec::new(),
        }
    }
}

/// Sliding window of every velocity counter.
const VELOCITY_WINDOW: SimDuration = SimDuration::from_hours(1);
/// IP request count above which [`Signal::IpVelocity`] fires.
const IP_VELOCITY_THRESHOLD: u64 = 120;
/// Fingerprint request count above which [`Signal::FingerprintVelocity`]
/// fires.
const FP_VELOCITY_THRESHOLD: u64 = 100;
/// Per-booking SMS request count above which [`Signal::BookingSmsVelocity`]
/// fires.
const BOOKING_SMS_THRESHOLD: u64 = 3;

/// Key-population counts of the engine's three velocity maps (see
/// [`DetectionEngine::tracked_keys`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackedKeys {
    /// Keys in the per-IP velocity map.
    pub ip: usize,
    /// Keys in the per-fingerprint velocity map.
    pub fingerprint: usize,
    /// Keys in the per-booking SMS velocity map.
    pub booking_sms: usize,
}

impl TrackedKeys {
    /// Total keys across all three maps.
    pub fn total(&self) -> usize {
        self.ip + self.fingerprint + self.booking_sms
    }
}

/// The stateful per-request scoring engine.
///
/// A verdict is a pure function of the request, the engine's state and its
/// constants (a one-hour velocity window; thresholds of 120 requests per
/// IP, 100 per fingerprint and 3 SMS requests per booking): the engine
/// reads no clock and reports no metrics. Whoever calls
/// [`DetectionEngine::assess`] times it as one stage, as
/// `fg_scenario::decision::DecisionCore` does with `detect.assess`.
///
/// # Example
///
/// ```
/// use fg_detection::{DetectionEngine, log::Endpoint};
/// use fg_fingerprint::PopulationModel;
/// use fg_netsim::ip::IpAddress;
/// use fg_core::time::SimTime;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut engine = DetectionEngine::new();
/// let mut rng = StdRng::seed_from_u64(0);
/// let human_fp = PopulationModel::default_web().sample_human(&mut rng);
/// let verdict = engine.assess(
///     SimTime::ZERO,
///     IpAddress::from_octets(10, 0, 0, 1),
///     &human_fp,
///     Endpoint::Search,
///     None,
/// );
/// assert!(verdict.score < 0.3, "a quiet human browse is clean");
/// ```
#[derive(Debug)]
pub struct DetectionEngine {
    ip_velocity: VelocityCounter<u32>,
    fp_velocity: VelocityCounter<u64>,
    booking_sms_velocity: VelocityCounter<BookingRef>,
    reputation: ReputationLedger,
}

impl Default for DetectionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectionEngine {
    /// Creates an engine with a default reputation ledger (12 h half-life,
    /// thresholds 3 / 10).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Creates an engine whose velocity maps and reputation ledger are
    /// hash-partitioned into `shards` partitions (rounded up to a power of
    /// two). Shard count changes memory layout and housekeeping striping
    /// only — verdicts and aggregates are identical at any count.
    pub fn with_shards(shards: usize) -> Self {
        DetectionEngine {
            ip_velocity: VelocityCounter::with_shards(VELOCITY_WINDOW, shards),
            fp_velocity: VelocityCounter::with_shards(VELOCITY_WINDOW, shards),
            booking_sms_velocity: VelocityCounter::with_shards(VELOCITY_WINDOW, shards),
            reputation: ReputationLedger::with_shards(
                SimDuration::from_hours(12),
                3.0,
                10.0,
                shards,
            ),
        }
    }

    /// Drops every velocity key whose events all fell out of the window by
    /// `now`. Counts are window-scoped, so compaction never changes a
    /// verdict — it only stops the per-IP/per-fingerprint/per-booking maps
    /// from growing with every identity ever seen, which is exactly the
    /// leak an identity-rotating attacker (new fingerprint every ~5.3 h,
    /// fresh residential exits) would otherwise force on the defender.
    pub fn compact(&mut self, now: SimTime) {
        self.ip_velocity.compact(now);
        self.fp_velocity.compact(now);
        self.booking_sms_velocity.compact(now);
    }

    /// Keys currently tracked per velocity map, for `fg_tracked_keys`
    /// gauges and bounded-state assertions.
    pub fn tracked_keys(&self) -> TrackedKeys {
        TrackedKeys {
            ip: self.ip_velocity.tracked_keys(),
            fingerprint: self.fp_velocity.tracked_keys(),
            booking_sms: self.booking_sms_velocity.tracked_keys(),
        }
    }

    /// The defender's IP reputation ledger (for feeding confirmed abuse back).
    pub fn reputation_mut(&mut self) -> &mut ReputationLedger {
        &mut self.reputation
    }

    /// Replaces the reputation ledger — e.g. to run a long-memory blocklist
    /// instead of the default fast-decaying one.
    pub fn replace_reputation(&mut self, ledger: ReputationLedger) {
        self.reputation = ledger;
    }

    /// Scores one request.
    pub fn assess(
        &mut self,
        now: SimTime,
        ip: IpAddress,
        fingerprint: &Fingerprint,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
    ) -> Verdict {
        let mut signals = Vec::new();

        let report = consistency_report(fingerprint);
        if !report.is_clean() {
            signals.push(Signal::FingerprintInconsistent {
                suspicion: report.suspicion(),
            });
        }

        if self.reputation.is_denied(ip, now) {
            signals.push(Signal::IpReputation);
        }

        let ip_count = self.ip_velocity.record_and_count(ip.as_u32(), now);
        if ip_count > IP_VELOCITY_THRESHOLD {
            signals.push(Signal::IpVelocity { count: ip_count });
        }

        let fp_count = self
            .fp_velocity
            .record_and_count(fingerprint.identity_hash(), now);
        if fp_count > FP_VELOCITY_THRESHOLD {
            signals.push(Signal::FingerprintVelocity { count: fp_count });
        }

        let sms_endpoint = matches!(endpoint, Endpoint::SendOtp | Endpoint::BoardingPass);
        if sms_endpoint {
            if let Some(reference) = booking {
                let c = self.booking_sms_velocity.record_and_count(reference, now);
                if c > BOOKING_SMS_THRESHOLD {
                    signals.push(Signal::BookingSmsVelocity { count: c });
                }
            }
        }

        if endpoint == Endpoint::TrapFile {
            signals.push(Signal::TrapHit);
        }

        let score = 1.0 - signals.iter().map(|s| 1.0 - s.weight()).product::<f64>();
        Verdict { score, signals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_fingerprint::PopulationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn human_fp(seed: u64) -> Fingerprint {
        PopulationModel::default_web().sample_human(&mut StdRng::seed_from_u64(seed))
    }

    fn ip(host: u8) -> IpAddress {
        IpAddress::from_octets(10, 0, 0, host)
    }

    #[test]
    fn quiet_human_is_clean() {
        let mut e = DetectionEngine::new();
        let v = e.assess(SimTime::ZERO, ip(1), &human_fp(1), Endpoint::Search, None);
        assert_eq!(v, Verdict::clean());
    }

    #[test]
    fn webdriver_artifact_maxes_score() {
        let mut e = DetectionEngine::new();
        let mut fp = human_fp(2);
        fp.webdriver = true;
        let v = e.assess(SimTime::ZERO, ip(1), &fp, Endpoint::Search, None);
        assert!(v.score >= 0.99, "score {}", v.score);
        assert!(matches!(
            v.signals[0],
            Signal::FingerprintInconsistent { .. }
        ));
    }

    #[test]
    fn booking_sms_velocity_fires_fast() {
        let mut e = DetectionEngine::new();
        let fp = human_fp(3);
        let booking = BookingRef::from_index(7);
        let mut last = Verdict::clean();
        for i in 0..6 {
            last = e.assess(
                SimTime::from_mins(i),
                ip(1),
                &fp,
                Endpoint::BoardingPass,
                Some(booking),
            );
        }
        assert!(
            last.signals
                .iter()
                .any(|s| matches!(s, Signal::BookingSmsVelocity { .. })),
            "{last:?}"
        );
        assert!(last.score > 0.25);
    }

    #[test]
    fn sms_velocity_requires_booking_key() {
        // Without a booking key (the §IV-C gap), SMS velocity cannot fire.
        let mut e = DetectionEngine::new();
        let fp = human_fp(4);
        for i in 0..10 {
            let v = e.assess(
                SimTime::from_mins(i),
                ip(1),
                &fp,
                Endpoint::BoardingPass,
                None,
            );
            assert!(
                !v.signals
                    .iter()
                    .any(|s| matches!(s, Signal::BookingSmsVelocity { .. })),
                "no booking key, no velocity signal"
            );
        }
    }

    #[test]
    fn ip_velocity_fires_on_floods() {
        let mut e = DetectionEngine::new();
        let fp = human_fp(5);
        let mut flagged = false;
        for i in 0..200u64 {
            let v = e.assess(SimTime::from_secs(i), ip(9), &fp, Endpoint::Search, None);
            if v.signals
                .iter()
                .any(|s| matches!(s, Signal::IpVelocity { .. }))
            {
                flagged = true;
            }
        }
        assert!(flagged);
    }

    #[test]
    fn low_volume_bot_evades_velocity_signals() {
        // The paper's core claim: a DoI bot making one hold per 30 min
        // triggers nothing volume-based.
        let mut e = DetectionEngine::new();
        let fp = human_fp(6);
        for i in 0..48 {
            let v = e.assess(SimTime::from_mins(i * 30), ip(3), &fp, Endpoint::Hold, None);
            assert_eq!(v.score, 0.0, "low-volume mimicry bot stays invisible");
        }
    }

    #[test]
    fn trap_hit_is_near_certain() {
        let mut e = DetectionEngine::new();
        let v = e.assess(SimTime::ZERO, ip(1), &human_fp(7), Endpoint::TrapFile, None);
        assert!(v.score >= 0.9);
    }

    #[test]
    fn reputation_feedback_flags_future_requests() {
        let mut e = DetectionEngine::new();
        let bad_ip = ip(66);
        e.reputation_mut().report(bad_ip, 5.0, SimTime::ZERO);
        let v = e.assess(
            SimTime::from_mins(1),
            bad_ip,
            &human_fp(8),
            Endpoint::Search,
            None,
        );
        assert!(v.signals.contains(&Signal::IpReputation));
    }

    #[test]
    fn kinds_are_stable_labels() {
        let sigs = [
            Signal::FingerprintInconsistent { suspicion: 0.5 },
            Signal::IpReputation,
            Signal::IpVelocity { count: 1 },
            Signal::FingerprintVelocity { count: 1 },
            Signal::BookingSmsVelocity { count: 1 },
            Signal::TrapHit,
        ];
        for s in &sigs {
            assert!(Signal::KINDS.contains(&s.kind()), "{}", s.kind());
        }
        // Kinds carry no per-request values, unlike Display.
        assert_eq!(Signal::IpVelocity { count: 132 }.kind(), "ip-velocity");
    }

    #[test]
    fn compact_drops_expired_identities_without_changing_verdicts() {
        let mut e = DetectionEngine::new();
        // 40 one-shot identities, one request each, spread over 40 minutes.
        for i in 0..40u64 {
            e.assess(
                SimTime::from_mins(i),
                ip(i as u8),
                &human_fp(i),
                Endpoint::Search,
                None,
            );
        }
        assert_eq!(e.tracked_keys().ip, 40);
        assert_eq!(e.tracked_keys().fingerprint, 40);
        // Two hours later everything is outside the 1 h window.
        e.compact(SimTime::from_hours(2));
        assert_eq!(e.tracked_keys().total(), 0);
        // A returning identity scores exactly like a fresh engine would.
        let fp = human_fp(3);
        let v = e.assess(SimTime::from_hours(2), ip(3), &fp, Endpoint::Search, None);
        let v_fresh = DetectionEngine::new().assess(
            SimTime::from_hours(2),
            ip(3),
            &fp,
            Endpoint::Search,
            None,
        );
        assert_eq!(v, v_fresh);
    }

    #[test]
    fn noisy_or_combines_monotonically() {
        let a = Signal::IpVelocity { count: 200 };
        let b = Signal::TrapHit;
        let combined = 1.0 - (1.0 - a.weight()) * (1.0 - b.weight());
        assert!(combined > a.weight().max(b.weight()));
        assert!(combined <= 1.0);
    }
}
