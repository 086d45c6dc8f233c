//! The mitigation decision engine.
//!
//! Maps one request's detection verdict plus limiter/gate state to a
//! [`Decision`]. Presets correspond to the defensive postures the
//! experiments compare: no protection, traditional anti-bot, and the paper's
//! §V recommended posture.

use crate::blocklist::BlockRuleEngine;
use crate::gating::{FeatureGate, TrustTier};
use crate::rate_limit::{KeyedLimiter, TokenBucket};
use fg_core::ids::BookingRef;
use fg_core::time::SimTime;
use fg_detection::engine::Verdict;
use fg_detection::log::Endpoint;
use fg_fingerprint::attributes::Fingerprint;
use fg_netsim::ip::IpAddress;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What the defence does with a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Serve normally.
    Allow,
    /// Serve after a CAPTCHA challenge.
    Challenge,
    /// Refuse: a rate limit is exhausted.
    RateLimited,
    /// Refuse: trust tier too low for this feature.
    TierDenied,
    /// Silently divert to the decoy environment.
    Honeypot,
    /// Refuse outright.
    Block,
}

impl Decision {
    /// The decision's label, e.g. `rate-limited` (its [`fmt::Display`]
    /// form, without allocating).
    pub const fn as_str(self) -> &'static str {
        match self {
            Decision::Allow => "allow",
            Decision::Challenge => "challenge",
            Decision::RateLimited => "rate-limited",
            Decision::TierDenied => "tier-denied",
            Decision::Honeypot => "honeypot",
            Decision::Block => "block",
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tunable policy parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Verdict score at which a CAPTCHA is demanded.
    pub challenge_threshold: f64,
    /// Verdict score at which the request is blocked (or honeypotted).
    pub block_threshold: f64,
    /// Divert to the honeypot instead of blocking (§V economics play).
    pub honeypot_instead_of_block: bool,
    /// Per-booking SMS limit as `(burst, per_day)`; `None` = unlimited (the
    /// §IV-C vulnerable configuration).
    pub booking_sms_limit: Option<(f64, f64)>,
    /// Whole-path SMS limit as `(burst, per_day)` — the coarse limit that
    /// *eventually* caught the Airline D attack.
    pub path_sms_limit: Option<(f64, f64)>,
    /// Per-client hold limit as `(burst, per_day)`.
    pub client_hold_limit: Option<(f64, f64)>,
    /// Trust-tier gate.
    pub gate: FeatureGate,
}

impl PolicyConfig {
    /// No protection at all — the §IV-C "December 2022" posture.
    pub fn unprotected() -> Self {
        PolicyConfig {
            challenge_threshold: f64::INFINITY,
            block_threshold: f64::INFINITY,
            honeypot_instead_of_block: false,
            booking_sms_limit: None,
            path_sms_limit: None,
            client_hold_limit: None,
            gate: FeatureGate::permissive(),
        }
    }

    /// Traditional anti-bot posture: fingerprint/behaviour thresholds and a
    /// coarse path limit, but no per-feature limits or gating.
    pub fn traditional_antibot() -> Self {
        PolicyConfig {
            challenge_threshold: 0.5,
            block_threshold: 0.9,
            honeypot_instead_of_block: false,
            booking_sms_limit: None,
            path_sms_limit: Some((20_000.0, 20_000.0)),
            client_hold_limit: None,
            gate: FeatureGate::permissive(),
        }
    }

    /// The §V recommended posture: everything on, honeypot diversion for
    /// high-confidence bots, tight per-feature limits, trust gating.
    pub fn recommended() -> Self {
        PolicyConfig {
            challenge_threshold: 0.4,
            block_threshold: 0.85,
            honeypot_instead_of_block: true,
            booking_sms_limit: Some((3.0, 3.0)),
            path_sms_limit: Some((10_000.0, 10_000.0)),
            client_hold_limit: Some((5.0, 10.0)),
            gate: FeatureGate::recommended(),
        }
    }

    /// Checks the hard well-formedness invariants every deployable config
    /// must satisfy, returning every violation found.
    ///
    /// These are the *constructive* rules — a config failing any of them is
    /// broken, not merely questionable (`fg-analyze` layers softer semantic
    /// lints, e.g. dead stages or limits that can never fire, on top of this):
    ///
    /// * thresholds are not NaN and not negative (`+∞` is legal: it encodes
    ///   "stage disabled", as in [`PolicyConfig::unprotected`]);
    /// * `challenge_threshold <= block_threshold` — a challenge bar *above*
    ///   the block bar would invert the escalation ladder;
    /// * every `(burst, per_day)` limit has a finite positive burst and a
    ///   finite non-negative daily allowance (what
    ///   [`TokenBucket::new`] asserts at construction).
    ///
    /// [`PolicyEngine::new`] runs this in debug builds and panics on
    /// violations, so a malformed config fails fast in tests instead of
    /// silently mis-deciding in a week-long simulation.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        for (name, t) in [
            ("challenge_threshold", self.challenge_threshold),
            ("block_threshold", self.block_threshold),
        ] {
            if t.is_nan() {
                errors.push(format!("{name} is NaN"));
            } else if t < 0.0 {
                errors.push(format!("{name} is negative ({t})"));
            }
        }
        if self.challenge_threshold > self.block_threshold {
            errors.push(format!(
                "challenge_threshold ({}) exceeds block_threshold ({}): the escalation \
                 ladder is inverted and Block fires before Challenge",
                self.challenge_threshold, self.block_threshold
            ));
        }
        for (name, limit) in [
            ("booking_sms_limit", self.booking_sms_limit),
            ("path_sms_limit", self.path_sms_limit),
            ("client_hold_limit", self.client_hold_limit),
        ] {
            if let Some((burst, per_day)) = limit {
                if !burst.is_finite() || burst <= 0.0 {
                    errors.push(format!("{name} burst must be finite and > 0, got {burst}"));
                }
                if !per_day.is_finite() || per_day < 0.0 {
                    errors.push(format!(
                        "{name} per_day must be finite and >= 0, got {per_day}"
                    ));
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// Per-request context handed to the policy.
#[derive(Clone, Debug)]
pub struct RequestContext<'a> {
    /// Request time.
    pub now: SimTime,
    /// Source address.
    pub ip: IpAddress,
    /// Presented fingerprint.
    pub fingerprint: &'a Fingerprint,
    /// Endpoint requested.
    pub endpoint: Endpoint,
    /// Booking reference, for booking-scoped features.
    pub booking: Option<BookingRef>,
    /// The requesting client's trust tier.
    pub tier: TrustTier,
    /// A stable key for per-client limits (e.g. account id or ip+fp hash).
    pub client_key: u64,
    /// Detection verdict for this request.
    pub verdict: &'a Verdict,
}

/// The ordered stages of [`PolicyEngine::decide`], named for the reason
/// chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyStage {
    /// Explicit incident-response block rules.
    BlockRules,
    /// Trust-tier feature gate.
    TierGate,
    /// Verdict score vs the block threshold.
    ScoreBlock,
    /// Feature-scoped rate limits (SMS, holds).
    FeatureRateLimits,
    /// Verdict score vs the challenge threshold.
    ScoreChallenge,
}

impl PolicyStage {
    /// Every stage, in evaluation order.
    pub const ALL: [PolicyStage; 5] = [
        PolicyStage::BlockRules,
        PolicyStage::TierGate,
        PolicyStage::ScoreBlock,
        PolicyStage::FeatureRateLimits,
        PolicyStage::ScoreChallenge,
    ];
}

impl fmt::Display for PolicyStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyStage::BlockRules => "block-rules",
            PolicyStage::TierGate => "tier-gate",
            PolicyStage::ScoreBlock => "score-block",
            PolicyStage::FeatureRateLimits => "feature-rate-limits",
            PolicyStage::ScoreChallenge => "score-challenge",
        };
        f.write_str(s)
    }
}

/// One link in the machine-readable reason chain: a stage that was
/// consulted, whether it fired, and (when it fired) why.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReasonLink {
    /// The stage consulted.
    pub stage: PolicyStage,
    /// `true` when this stage determined the decision.
    pub triggered: bool,
    /// Machine-readable detail, e.g. `score=0.950 >= block_threshold=0.900`.
    /// Empty for stages that merely passed.
    pub detail: String,
}

impl ReasonLink {
    fn passed(stage: PolicyStage) -> Self {
        ReasonLink {
            stage,
            triggered: false,
            detail: String::new(),
        }
    }

    fn triggered(stage: PolicyStage, detail: String) -> Self {
        ReasonLink {
            stage,
            triggered: true,
            detail,
        }
    }
}

impl fmt::Display for ReasonLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}",
            self.stage,
            if self.triggered { "triggered" } else { "pass" }
        )?;
        if !self.detail.is_empty() {
            write!(f, "({})", self.detail)?;
        }
        Ok(())
    }
}

/// A decision plus the ordered reason chain that produced it — every stage
/// consulted, ending with the one that fired (all stages pass for `Allow`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// The decision taken.
    pub decision: Decision,
    /// Stages consulted, in order.
    pub chain: Vec<ReasonLink>,
}

impl DecisionTrace {
    /// The link that determined the decision, if any stage fired.
    pub fn triggered(&self) -> Option<&ReasonLink> {
        self.chain.iter().find(|l| l.triggered)
    }

    /// The chain rendered as stable string tokens (for audit records).
    pub fn reason_strings(&self) -> Vec<String> {
        self.chain.iter().map(ToString::to_string).collect()
    }
}

/// Counts of decisions taken, for experiment reports. The engine keeps
/// none: the decision core that asks it for decisions counts them
/// (`fg_scenario::decision::DecisionCore::decision_counts`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionCounts {
    /// Allowed.
    pub allow: u64,
    /// Challenged.
    pub challenge: u64,
    /// Rate limited.
    pub rate_limited: u64,
    /// Denied by trust tier.
    pub tier_denied: u64,
    /// Diverted to honeypot.
    pub honeypot: u64,
    /// Blocked.
    pub block: u64,
}

/// The stateful policy engine.
///
/// # Example
///
/// ```
/// use fg_mitigation::policy::{PolicyConfig, PolicyEngine, RequestContext, Decision};
/// use fg_mitigation::gating::TrustTier;
/// use fg_detection::{engine::Verdict, log::Endpoint};
/// use fg_fingerprint::PopulationModel;
/// use fg_netsim::ip::IpAddress;
/// use fg_core::time::SimTime;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut engine = PolicyEngine::new(PolicyConfig::recommended());
/// let fp = PopulationModel::default_web().sample_human(&mut StdRng::seed_from_u64(0));
/// let verdict = Verdict::clean();
/// let decision = engine.decide(&RequestContext {
///     now: SimTime::ZERO,
///     ip: IpAddress::from_octets(10, 0, 0, 1),
///     fingerprint: &fp,
///     endpoint: Endpoint::Search,
///     booking: None,
///     tier: TrustTier::Anonymous,
///     client_key: 1,
///     verdict: &verdict,
/// });
/// assert_eq!(decision, Decision::Allow);
/// ```
#[derive(Debug)]
pub struct PolicyEngine {
    config: PolicyConfig,
    rules: BlockRuleEngine,
    booking_sms_limiter: Option<KeyedLimiter<BookingRef>>,
    path_sms_limiter: Option<TokenBucket>,
    client_hold_limiter: Option<KeyedLimiter<u64>>,
}

const SECS_PER_DAY: f64 = 86_400.0;

impl PolicyEngine {
    /// Creates an engine from a config.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `config` fails
    /// [`PolicyConfig::validate`] — a malformed config should die at
    /// construction, not steer a long simulation.
    pub fn new(config: PolicyConfig) -> Self {
        Self::with_shards(config, 1)
    }

    /// Creates an engine whose keyed limiters are hash-partitioned into
    /// `shards` partitions (rounded up to a power of two). Shard count
    /// changes memory layout and housekeeping striping only — decisions are
    /// identical at any count. (The per-path limiter is a single bucket,
    /// not keyed, so it has nothing to shard.)
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `config` fails
    /// [`PolicyConfig::validate`] — a malformed config should die at
    /// construction, not steer a long simulation.
    pub fn with_shards(config: PolicyConfig, shards: usize) -> Self {
        #[cfg(debug_assertions)]
        if let Err(errors) = config.validate() {
            // fg-analyze: allow(panic-path): debug-only guard — the serve reload path validates via validate_serve_policy before any engine is built
            panic!("invalid PolicyConfig: {}", errors.join("; "));
        }
        fn mk_keyed<K: Eq + std::hash::Hash>(
            spec: Option<(f64, f64)>,
            shards: usize,
        ) -> Option<KeyedLimiter<K>> {
            spec.map(|(burst, per_day)| {
                KeyedLimiter::with_shards(burst, per_day / SECS_PER_DAY, shards)
            })
        }
        PolicyEngine {
            booking_sms_limiter: mk_keyed(config.booking_sms_limit, shards),
            client_hold_limiter: mk_keyed(config.client_hold_limit, shards),
            path_sms_limiter: config
                .path_sms_limit
                .map(|(burst, per_day)| TokenBucket::new(burst, per_day / SECS_PER_DAY)),
            rules: BlockRuleEngine::new(),
            config,
        }
    }

    /// The block-rule engine, for the incident-response loop (§IV-A: deploy
    /// a rule against each observed attack fingerprint).
    pub fn rules_mut(&mut self) -> &mut BlockRuleEngine {
        &mut self.rules
    }

    /// Read access to the block rules.
    pub fn rules(&self) -> &BlockRuleEngine {
        &self.rules
    }

    /// Evicts idle (fully refilled) buckets from every keyed limiter — the
    /// housekeeping hook that keeps limiter state bounded by the live key
    /// population under identity-rotating workloads. Lossless: see
    /// [`KeyedLimiter::evict_idle`].
    pub fn evict_idle(&mut self, now: SimTime) {
        if let Some(l) = &mut self.booking_sms_limiter {
            l.evict_idle(now);
        }
        if let Some(l) = &mut self.client_hold_limiter {
            l.evict_idle(now);
        }
    }

    /// Keys currently materialized in the (booking-SMS, client-hold) keyed
    /// limiters, for `fg_tracked_keys` gauges and bounded-state assertions.
    pub fn limiter_tracked_keys(&self) -> (usize, usize) {
        (
            self.booking_sms_limiter
                .as_ref()
                .map_or(0, KeyedLimiter::tracked_keys),
            self.client_hold_limiter
                .as_ref()
                .map_or(0, KeyedLimiter::tracked_keys),
        )
    }

    /// Decides one request.
    pub fn decide(&mut self, ctx: &RequestContext<'_>) -> Decision {
        self.decide_traced(ctx).decision
    }

    fn block_or_divert(&self) -> Decision {
        if self.config.honeypot_instead_of_block {
            Decision::Honeypot
        } else {
            Decision::Block
        }
    }

    /// Decides one request and returns the full reason chain alongside the
    /// decision — the audit trail's view of this engine.
    pub fn decide_traced(&mut self, ctx: &RequestContext<'_>) -> DecisionTrace {
        let mut chain = Vec::with_capacity(PolicyStage::ALL.len());
        let done = |decision: Decision, chain: Vec<ReasonLink>| DecisionTrace { decision, chain };

        // 1. Explicit block rules (incident response) come first.
        if self.rules.check(ctx.fingerprint, ctx.ip, ctx.now).is_some() {
            chain.push(ReasonLink::triggered(
                PolicyStage::BlockRules,
                "incident-response rule matched".to_owned(),
            ));
            return done(self.block_or_divert(), chain);
        }
        chain.push(ReasonLink::passed(PolicyStage::BlockRules));

        // 2. Trust-tier gate.
        if !self.config.gate.allows(ctx.endpoint, ctx.tier) {
            chain.push(ReasonLink::triggered(
                PolicyStage::TierGate,
                format!("tier={:?} denied endpoint={}", ctx.tier, ctx.endpoint),
            ));
            return done(Decision::TierDenied, chain);
        }
        chain.push(ReasonLink::passed(PolicyStage::TierGate));

        // 3. Verdict-driven thresholds.
        if ctx.verdict.score >= self.config.block_threshold {
            chain.push(ReasonLink::triggered(
                PolicyStage::ScoreBlock,
                format!(
                    "score={:.3} >= block_threshold={:.3}",
                    ctx.verdict.score, self.config.block_threshold
                ),
            ));
            return done(self.block_or_divert(), chain);
        }
        chain.push(ReasonLink::passed(PolicyStage::ScoreBlock));

        // 4. Feature-scoped rate limits.
        let sms_endpoint = matches!(ctx.endpoint, Endpoint::SendOtp | Endpoint::BoardingPass);
        if sms_endpoint {
            if let (Some(limiter), Some(booking)) = (&mut self.booking_sms_limiter, ctx.booking) {
                if !limiter.try_acquire(booking, ctx.now) {
                    chain.push(ReasonLink::triggered(
                        PolicyStage::FeatureRateLimits,
                        "booking-sms limiter exhausted".to_owned(),
                    ));
                    return done(Decision::RateLimited, chain);
                }
            }
            if let Some(bucket) = &mut self.path_sms_limiter {
                if !bucket.try_acquire(ctx.now) {
                    chain.push(ReasonLink::triggered(
                        PolicyStage::FeatureRateLimits,
                        "path-sms limiter exhausted".to_owned(),
                    ));
                    return done(Decision::RateLimited, chain);
                }
            }
        }
        if ctx.endpoint == Endpoint::Hold {
            if let Some(limiter) = &mut self.client_hold_limiter {
                if !limiter.try_acquire(ctx.client_key, ctx.now) {
                    chain.push(ReasonLink::triggered(
                        PolicyStage::FeatureRateLimits,
                        "client-hold limiter exhausted".to_owned(),
                    ));
                    return done(Decision::RateLimited, chain);
                }
            }
        }
        chain.push(ReasonLink::passed(PolicyStage::FeatureRateLimits));

        // 5. Challenge band.
        if ctx.verdict.score >= self.config.challenge_threshold {
            chain.push(ReasonLink::triggered(
                PolicyStage::ScoreChallenge,
                format!(
                    "score={:.3} >= challenge_threshold={:.3}",
                    ctx.verdict.score, self.config.challenge_threshold
                ),
            ));
            return done(Decision::Challenge, chain);
        }
        chain.push(ReasonLink::passed(PolicyStage::ScoreChallenge));

        done(Decision::Allow, chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_detection::engine::Signal;
    use fg_fingerprint::PopulationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp() -> Fingerprint {
        PopulationModel::default_web().sample_human(&mut StdRng::seed_from_u64(1))
    }

    fn ctx<'a>(
        fp: &'a Fingerprint,
        verdict: &'a Verdict,
        endpoint: Endpoint,
        booking: Option<BookingRef>,
        now: SimTime,
    ) -> RequestContext<'a> {
        RequestContext {
            now,
            ip: IpAddress::from_octets(10, 0, 0, 1),
            fingerprint: fp,
            endpoint,
            booking,
            tier: TrustTier::Verified,
            client_key: 42,
            verdict,
        }
    }

    fn verdict(score: f64) -> Verdict {
        Verdict {
            score,
            signals: vec![Signal::TrapHit],
        }
    }

    #[test]
    fn unprotected_allows_everything() {
        let mut e = PolicyEngine::new(PolicyConfig::unprotected());
        let f = fp();
        let v = verdict(1.0);
        for _ in 0..100 {
            let d = e.decide(&ctx(
                &f,
                &v,
                Endpoint::BoardingPass,
                Some(BookingRef::from_index(1)),
                SimTime::ZERO,
            ));
            assert_eq!(d, Decision::Allow);
        }
    }

    #[test]
    fn verdict_thresholds_drive_challenge_and_block() {
        let mut e = PolicyEngine::new(PolicyConfig::traditional_antibot());
        let f = fp();
        let clean = Verdict::clean();
        assert_eq!(
            e.decide(&ctx(&f, &clean, Endpoint::Search, None, SimTime::ZERO)),
            Decision::Allow
        );
        let mid = verdict(0.6);
        assert_eq!(
            e.decide(&ctx(&f, &mid, Endpoint::Search, None, SimTime::ZERO)),
            Decision::Challenge
        );
        let high = verdict(0.95);
        assert_eq!(
            e.decide(&ctx(&f, &high, Endpoint::Search, None, SimTime::ZERO)),
            Decision::Block
        );
    }

    #[test]
    fn recommended_honeypots_instead_of_blocking() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let high = verdict(0.95);
        assert_eq!(
            e.decide(&ctx(&f, &high, Endpoint::Search, None, SimTime::ZERO)),
            Decision::Honeypot
        );
    }

    #[test]
    fn per_booking_sms_limit_enforced() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let clean = Verdict::clean();
        let booking = BookingRef::from_index(9);
        let mut decisions = Vec::new();
        for i in 0..5 {
            decisions.push(e.decide(&ctx(
                &f,
                &clean,
                Endpoint::BoardingPass,
                Some(booking),
                SimTime::from_mins(i),
            )));
        }
        assert_eq!(&decisions[..3], &[Decision::Allow; 3]);
        assert_eq!(&decisions[3..], &[Decision::RateLimited; 2]);
        // A different booking is unaffected.
        let other = BookingRef::from_index(10);
        assert_eq!(
            e.decide(&ctx(
                &f,
                &clean,
                Endpoint::BoardingPass,
                Some(other),
                SimTime::from_mins(6)
            )),
            Decision::Allow
        );
    }

    #[test]
    fn tier_gate_blocks_anonymous_holds() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let clean = Verdict::clean();
        let mut c = ctx(&f, &clean, Endpoint::Hold, None, SimTime::ZERO);
        c.tier = TrustTier::Anonymous;
        assert_eq!(e.decide(&c), Decision::TierDenied);
        c.tier = TrustTier::Verified;
        assert_eq!(e.decide(&c), Decision::Allow);
    }

    #[test]
    fn client_hold_limit_throttles_spinning() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let clean = Verdict::clean();
        let mut limited = 0;
        for i in 0..20 {
            let d = e.decide(&ctx(
                &f,
                &clean,
                Endpoint::Hold,
                None,
                SimTime::from_mins(i),
            ));
            if d == Decision::RateLimited {
                limited += 1;
            }
        }
        assert!(limited >= 10, "spinning throttled after burst: {limited}");
    }

    #[test]
    fn block_rules_short_circuit() {
        let mut e = PolicyEngine::new(PolicyConfig::traditional_antibot());
        let f = fp();
        e.rules_mut().block_observed_fingerprint(&f, SimTime::ZERO);
        let clean = Verdict::clean();
        assert_eq!(
            e.decide(&ctx(
                &f,
                &clean,
                Endpoint::Search,
                None,
                SimTime::from_mins(1)
            )),
            Decision::Block
        );
        assert!(e.rules().stats()[0].hits > 0);
    }

    #[test]
    fn path_limit_catches_unkeyed_floods_eventually() {
        // Airline D: no per-booking limit, only a path-wide one.
        let mut cfg = PolicyConfig::unprotected();
        cfg.path_sms_limit = Some((100.0, 100.0));
        let mut e = PolicyEngine::new(cfg);
        let f = fp();
        let clean = Verdict::clean();
        let booking = BookingRef::from_index(1);
        let mut first_limited = None;
        for i in 0..200u64 {
            let d = e.decide(&ctx(
                &f,
                &clean,
                Endpoint::BoardingPass,
                Some(booking),
                SimTime::from_secs(i),
            ));
            if d == Decision::RateLimited && first_limited.is_none() {
                first_limited = Some(i);
            }
        }
        let hit = first_limited.expect("path limit fires");
        assert!(
            hit >= 100,
            "path limit only fires after ~100 sends, at {hit}"
        );
    }

    #[test]
    fn traced_decisions_explain_the_triggering_stage() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let high = verdict(0.95);
        let trace = e.decide_traced(&ctx(&f, &high, Endpoint::Search, None, SimTime::ZERO));
        assert_eq!(trace.decision, Decision::Honeypot);
        let fired = trace.triggered().expect("a stage fired");
        assert_eq!(fired.stage, PolicyStage::ScoreBlock);
        assert!(fired.detail.contains("score=0.950"), "{}", fired.detail);
        // Chain records the stages consulted before the trigger.
        assert_eq!(
            trace.chain.iter().map(|l| l.stage).collect::<Vec<_>>(),
            vec![
                PolicyStage::BlockRules,
                PolicyStage::TierGate,
                PolicyStage::ScoreBlock
            ]
        );
    }

    #[test]
    fn allow_trace_consults_every_stage() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let clean = Verdict::clean();
        let trace = e.decide_traced(&ctx(&f, &clean, Endpoint::Search, None, SimTime::ZERO));
        assert_eq!(trace.decision, Decision::Allow);
        assert!(trace.triggered().is_none());
        assert_eq!(trace.chain.len(), PolicyStage::ALL.len());
        assert_eq!(
            trace.reason_strings(),
            vec![
                "block-rules:pass",
                "tier-gate:pass",
                "score-block:pass",
                "feature-rate-limits:pass",
                "score-challenge:pass"
            ]
        );
    }

    #[test]
    fn reason_chain_round_trips_through_json() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let high = verdict(0.95);
        let trace = e.decide_traced(&ctx(&f, &high, Endpoint::Search, None, SimTime::ZERO));
        let json = serde_json::to_string(&trace).unwrap();
        let back: DecisionTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn evict_idle_bounds_limiter_state_without_changing_outcomes() {
        let mut e = PolicyEngine::new(PolicyConfig::recommended());
        let f = fp();
        let clean = Verdict::clean();
        // 50 distinct bookings each trigger one SMS: 50 buckets materialize.
        for i in 0..50 {
            let d = e.decide(&ctx(
                &f,
                &clean,
                Endpoint::SendOtp,
                Some(BookingRef::from_index(i)),
                SimTime::from_mins(i),
            ));
            assert_eq!(d, Decision::Allow);
        }
        assert_eq!(e.limiter_tracked_keys().0, 50);
        // A day later every bucket has refilled; housekeeping drops them all.
        e.evict_idle(SimTime::from_days(2));
        assert_eq!(e.limiter_tracked_keys(), (0, 0));
        // Outcomes for a returning booking match a fresh limiter's.
        use fg_core::time::SimDuration;
        let booking = BookingRef::from_index(7);
        for i in 0..3 {
            assert_eq!(
                e.decide(&ctx(
                    &f,
                    &clean,
                    Endpoint::SendOtp,
                    Some(booking),
                    SimTime::from_days(2) + SimDuration::from_mins(i),
                )),
                Decision::Allow
            );
        }
        assert_eq!(
            e.decide(&ctx(
                &f,
                &clean,
                Endpoint::SendOtp,
                Some(booking),
                SimTime::from_days(2) + SimDuration::from_mins(5),
            )),
            Decision::RateLimited
        );
    }

    #[test]
    fn builtin_presets_validate() {
        for cfg in [
            PolicyConfig::unprotected(),
            PolicyConfig::traditional_antibot(),
            PolicyConfig::recommended(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_malformed_configs() {
        let mut inverted = PolicyConfig::recommended();
        inverted.challenge_threshold = 0.9;
        inverted.block_threshold = 0.4;
        let errors = inverted.validate().unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("escalation")),
            "{errors:?}"
        );

        let mut nan = PolicyConfig::unprotected();
        nan.challenge_threshold = f64::NAN;
        assert!(nan.validate().is_err());

        let mut bad_limit = PolicyConfig::unprotected();
        bad_limit.booking_sms_limit = Some((0.0, 3.0));
        assert!(bad_limit.validate().is_err());

        let mut negative_refill = PolicyConfig::unprotected();
        negative_refill.path_sms_limit = Some((5.0, -1.0));
        assert!(negative_refill.validate().is_err());
    }

    #[test]
    fn equal_thresholds_are_valid_but_linted_elsewhere() {
        // challenge == block is *well-formed* (Challenge is merely dead);
        // fg-analyze's `unreachable-challenge` lint covers the semantic smell.
        let mut cfg = PolicyConfig::recommended();
        cfg.challenge_threshold = cfg.block_threshold;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid PolicyConfig")]
    fn debug_engine_construction_rejects_invalid_config() {
        let mut cfg = PolicyConfig::recommended();
        cfg.challenge_threshold = 0.95; // above block_threshold 0.85
        let _ = PolicyEngine::new(cfg);
    }

    mod validate_props {
        use super::super::*;
        use proptest::prelude::*;

        /// Decodes a raw draw into a deployable threshold: a score bar in
        /// `[0, 1]`, or `+∞` ("stage disabled") for draws above 1.
        fn threshold(raw: f64) -> f64 {
            if raw > 1.0 {
                f64::INFINITY
            } else {
                raw
            }
        }

        /// Decodes a raw draw into an optional `(burst, per_day)` limit.
        fn limit(sel: u8, burst: f64, per_day: f64) -> Option<(f64, f64)> {
            (sel > 0).then_some((burst, per_day))
        }

        proptest! {
            /// Every config built the intended way round (challenge bar at or
            /// below block bar) validates, constructs an engine without
            /// panicking, and keeps `challenge_threshold <= block_threshold`.
            #[test]
            fn valid_configs_keep_challenge_below_block(
                a in 0.0f64..1.3,
                b in 0.0f64..1.3,
                booking in (0u8..3, 0.1f64..1_000.0, 0.0f64..100_000.0),
                path in (0u8..3, 0.1f64..1_000.0, 0.0f64..100_000.0),
                hold in (0u8..3, 0.1f64..1_000.0, 0.0f64..100_000.0),
            ) {
                let (a, b) = (threshold(a), threshold(b));
                let cfg = PolicyConfig {
                    challenge_threshold: a.min(b),
                    block_threshold: a.max(b),
                    honeypot_instead_of_block: false,
                    booking_sms_limit: limit(booking.0, booking.1, booking.2),
                    path_sms_limit: limit(path.0, path.1, path.2),
                    client_hold_limit: limit(hold.0, hold.1, hold.2),
                    gate: FeatureGate::permissive(),
                };
                prop_assert_eq!(cfg.validate(), Ok(()));
                prop_assert!(cfg.challenge_threshold <= cfg.block_threshold);
                let engine = PolicyEngine::new(cfg.clone());
                prop_assert_eq!(&engine.config, &cfg);
            }

            /// Inverted ladders never validate.
            #[test]
            fn inverted_thresholds_never_validate(
                block in 0.0f64..0.9,
                gap in 0.01f64..0.5,
            ) {
                let mut cfg = PolicyConfig::unprotected();
                cfg.challenge_threshold = block + gap;
                cfg.block_threshold = block;
                prop_assert!(cfg.validate().is_err());
            }
        }
    }
}
