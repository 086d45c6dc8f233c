//! Pass 1 — the defence-config semantic linter.
//!
//! Checks a [`DefenceProfile`] (policy + scenario facts) for the
//! *misconfigured-for-the-feature* failure modes the paper's case studies
//! document: dead policy stages, rate limits sized for volumetric attacks
//! that can never trip on low-and-slow functional abuse (§IV-C), eviction
//! policies that would forget limiter state before the limit fires, honeypot
//! decoy references that could collide with real inventory, and NiP caps out
//! of line with the legitimate group-size distribution (§IV-B). Block rules
//! are not checked: the simulated security team deploys them at run time,
//! where no analyzer runs.
//!
//! A config that is not well-formed ([`PolicyConfig::validate`]) is reported
//! as `invalid-config` and judged no further. Everything else here is
//! *semantic*: a well-formed config may still be incoherent against the
//! scenario it defends.

use crate::diag::{Diagnostic, Severity};
use fg_detection::log::Endpoint;
use fg_mitigation::policy::PolicyConfig;
use fg_mitigation::profile::{ChannelTraffic, DefenceProfile, ScenarioContext};

/// Stable lint ids for pass 1.
pub mod lints {
    /// The policy fails
    /// [`PolicyConfig::validate`](fg_mitigation::policy::PolicyConfig::validate)
    /// (a NaN or negative threshold, an inverted escalation ladder, a
    /// malformed limiter); the semantic lints are skipped.
    pub const INVALID_CONFIG: &str = "invalid-config";
    /// `challenge_threshold >= block_threshold`: the Challenge stage is dead.
    pub const UNREACHABLE_CHALLENGE: &str = "unreachable-challenge";
    /// An infinite threshold in an otherwise protecting deployment (the
    /// score pipeline silently disabled).
    pub const NONFINITE_THRESHOLD: &str = "nonfinite-threshold";
    /// No limiter guarding a modeled abuse channel can mathematically fire
    /// within the deployment horizon (§IV-C: Airline D's 20 000/day path
    /// limit against a 3-SMS-per-hour pump).
    pub const LIMITER_NEVER_FIRES: &str = "limiter-never-fires";
    /// A modeled abuse channel with neither a limiter nor a tier gate.
    pub const UNGUARDED_CHANNEL: &str = "unguarded-channel";
    /// Idle-state eviction TTL shorter than a limiter's full refill time:
    /// state is forgotten before the limit can fire.
    pub const EVICTION_BEFORE_REFILL: &str = "eviction-before-refill";
    /// Honeypot decoy booking-reference range overlaps real inventory.
    pub const DECOY_OVERLAP: &str = "decoy-overlap";
    /// NiP cap above the largest legitimate party: the headroom serves only
    /// name-pumping abuse (§IV-B).
    pub const NIP_CAP_HEADROOM: &str = "nip-cap-headroom";
    /// NiP cap that splits a noticeable share of legitimate parties.
    pub const NIP_CAP_FRICTION: &str = "nip-cap-friction";
}

const SENSITIVE_SMS_ENDPOINTS: [Endpoint; 2] = [Endpoint::SendOtp, Endpoint::BoardingPass];

/// `true` when the policy attempts *any* protection — some limiter, a tier
/// gate, or a finite score threshold. The deliberately open
/// [`PolicyConfig::unprotected`] posture is not protecting, and scenario
/// coherence lints are meaningless for it.
pub fn is_protecting(policy: &PolicyConfig) -> bool {
    policy.booking_sms_limit.is_some()
        || policy.path_sms_limit.is_some()
        || policy.client_hold_limit.is_some()
        || policy.challenge_threshold.is_finite()
        || policy.block_threshold.is_finite()
        || Endpoint::ALL
            .iter()
            .any(|&e| policy.gate.requirement(e).is_some())
}

/// Analyzes one deployment: the profile's policy against its scenario.
/// A policy that fails [`PolicyConfig::validate`] yields one
/// [`lints::INVALID_CONFIG`] deny per error and nothing else. Otherwise
/// the waivers the profile carries are applied before returning (waived
/// findings are included, marked, and never gate).
pub fn analyze_profile(profile: &DefenceProfile) -> Vec<Diagnostic> {
    let policy = &profile.policy;
    let src = &profile.name;
    let ctx = &profile.scenario;
    if let Err(errors) = policy.validate() {
        return errors
            .into_iter()
            .map(|e| Diagnostic::new(lints::INVALID_CONFIG, Severity::Deny, src, e))
            .collect();
    }
    let mut diags = Vec::new();
    let protecting = is_protecting(policy);

    check_thresholds(policy, protecting, src, &mut diags);
    if protecting {
        if let Some(sms) = &ctx.sms {
            check_channel(policy, ctx, sms, SmsOrHolds::Sms, src, &mut diags);
        }
        if let Some(holds) = &ctx.holds {
            check_channel(policy, ctx, holds, SmsOrHolds::Holds, src, &mut diags);
        }
        check_eviction(policy, ctx, src, &mut diags);
    }
    check_decoys(policy, ctx, src, &mut diags);
    check_nip(ctx, src, &mut diags);

    // Apply the profile's waivers.
    for d in &mut diags {
        if let Some(w) = profile.waiver_for(&d.lint) {
            *d = d.clone().waived(w.reason);
        }
    }
    diags
}

fn check_thresholds(
    policy: &PolicyConfig,
    protecting: bool,
    src: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let (c, b) = (policy.challenge_threshold, policy.block_threshold);
    for (name, t) in [("challenge_threshold", c), ("block_threshold", b)] {
        if t.is_infinite() && protecting {
            diags.push(
                Diagnostic::new(
                    lints::NONFINITE_THRESHOLD,
                    Severity::Warn,
                    src,
                    format!(
                        "{name} is infinite in an otherwise protecting deployment: \
                         the score pipeline is silently disabled"
                    ),
                )
                .note("threshold", name),
            );
        }
    }
    if b.is_finite() && c >= b {
        diags.push(
            Diagnostic::new(
                lints::UNREACHABLE_CHALLENGE,
                Severity::Warn,
                src,
                format!(
                    "Challenge stage is dead: every score >= challenge ({c}) \
                     is also >= block ({b}), so Block always wins"
                ),
            )
            .note("challenge_threshold", c)
            .note("block_threshold", b),
        );
    }
}

/// Which channel a traffic model describes (selects the relevant limiters
/// and gate endpoints).
#[derive(Clone, Copy)]
enum SmsOrHolds {
    Sms,
    Holds,
}

impl SmsOrHolds {
    fn name(self) -> &'static str {
        match self {
            SmsOrHolds::Sms => "sms",
            SmsOrHolds::Holds => "holds",
        }
    }
}

/// Days until a `(burst, per_day)` token bucket first rejects under
/// `demand_per_day`, or `None` if it never does (demand at or below refill).
fn days_to_first_reject(burst: f64, per_day: f64, demand_per_day: f64) -> Option<f64> {
    let excess = demand_per_day - per_day;
    if excess <= 0.0 {
        return None;
    }
    Some(burst / excess)
}

fn check_channel(
    policy: &PolicyConfig,
    ctx: &ScenarioContext,
    traffic: &ChannelTraffic,
    channel: SmsOrHolds,
    src: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if traffic.attack_per_day <= 0.0 {
        return; // no abuse modeled on this channel
    }
    let horizon_days = ctx.horizon.as_days_f64();

    // (limiter name, spec, demand it faces). Keyed limiters face the
    // hottest-key concentration — the attack's single booking ref or client —
    // while the path-wide bucket faces everything.
    type LimiterRow<'a> = (&'a str, Option<(f64, f64)>, f64);
    let limiters: Vec<LimiterRow<'_>> = match channel {
        SmsOrHolds::Sms => vec![
            (
                "booking_sms_limit",
                policy.booking_sms_limit,
                traffic.attack_per_day,
            ),
            (
                "path_sms_limit",
                policy.path_sms_limit,
                traffic.total_per_day(),
            ),
        ],
        SmsOrHolds::Holds => vec![(
            "client_hold_limit",
            policy.client_hold_limit,
            traffic.attack_per_day,
        )],
    };
    let gated = match channel {
        SmsOrHolds::Sms => SENSITIVE_SMS_ENDPOINTS
            .iter()
            .any(|&e| policy.gate.requirement(e).is_some()),
        SmsOrHolds::Holds => policy.gate.requirement(Endpoint::Hold).is_some(),
    };

    let configured: Vec<(&str, (f64, f64), f64)> = limiters
        .iter()
        .filter_map(|&(name, spec, demand)| spec.map(|s| (name, s, demand)))
        .collect();
    if configured.is_empty() {
        if !gated {
            diags.push(
                Diagnostic::new(
                    lints::UNGUARDED_CHANNEL,
                    Severity::Warn,
                    src,
                    format!(
                        "{} channel models {:.1} abuse events/day but has no rate \
                         limit and no tier gate",
                        channel.name(),
                        traffic.attack_per_day
                    ),
                )
                .note("channel", channel.name())
                .note("attack_per_day", format!("{:.1}", traffic.attack_per_day))
                .note("legit_per_day", format!("{:.1}", traffic.legit_per_day)),
            );
        }
        return;
    }

    let mut firing = Vec::new();
    let mut silent = Vec::new();
    for &(name, (burst, per_day), demand) in &configured {
        match days_to_first_reject(burst, per_day, demand) {
            Some(days) if days <= horizon_days => firing.push((name, days)),
            Some(days) => silent.push((name, burst, per_day, demand, Some(days))),
            None => silent.push((name, burst, per_day, demand, None)),
        }
    }
    if firing.is_empty() {
        let mut d = Diagnostic::new(
            lints::LIMITER_NEVER_FIRES,
            Severity::Warn,
            src,
            format!(
                "no limiter guarding the {} channel can fire within the {:.0}-day \
                 horizon at the modeled demand — the limit exists but the abuse \
                 flies under it",
                channel.name(),
                horizon_days
            ),
        )
        .note("channel", channel.name())
        .note("horizon_days", format!("{horizon_days:.1}"));
        for (name, burst, per_day, demand, days) in silent {
            d = d.note(
                name,
                match days {
                    Some(days) => format!(
                        "burst {burst:.0}, {per_day:.0}/day vs {demand:.1}/day demand: \
                         first reject after {days:.1} days"
                    ),
                    None => format!(
                        "burst {burst:.0}, {per_day:.0}/day vs {demand:.1}/day demand: \
                         refill outpaces demand, never rejects"
                    ),
                },
            );
        }
        diags.push(d);
    }
}

fn check_eviction(
    policy: &PolicyConfig,
    ctx: &ScenarioContext,
    src: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(ttl) = ctx.limiter_eviction_ttl else {
        return; // refill-based eviction is lossless by construction
    };
    for (name, spec) in [
        ("booking_sms_limit", policy.booking_sms_limit),
        ("client_hold_limit", policy.client_hold_limit),
    ] {
        let Some((burst, per_day)) = spec else {
            continue;
        };
        // An empty bucket is fully refilled after burst/per_day days; evicting
        // idle keys sooner forgets consumption and resets the limit for free.
        let refill_days = if per_day > 0.0 {
            burst / per_day
        } else {
            f64::INFINITY
        };
        if ttl.as_days_f64() < refill_days {
            diags.push(
                Diagnostic::new(
                    lints::EVICTION_BEFORE_REFILL,
                    Severity::Deny,
                    src,
                    format!(
                        "eviction TTL ({:.2} days) is shorter than {name}'s full \
                         refill time ({refill_days:.2} days): an attacker who idles \
                         past the TTL gets a fresh bucket before the old one refills",
                        ttl.as_days_f64()
                    ),
                )
                .note("limiter", name)
                .note("eviction_ttl_days", format!("{:.2}", ttl.as_days_f64()))
                .note("refill_days", format!("{refill_days:.2}")),
            );
        }
    }
}

fn check_decoys(
    policy: &PolicyConfig,
    ctx: &ScenarioContext,
    src: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if !policy.honeypot_instead_of_block {
        return;
    }
    // Real references are allocated sequentially from index 0; decoys count
    // up from `decoy_ref_base`. Contact would let an attacker (or a report)
    // confuse decoy holds with real inventory.
    if ctx.decoy_ref_base <= ctx.expected_bookings {
        diags.push(
            Diagnostic::new(
                lints::DECOY_OVERLAP,
                Severity::Deny,
                src,
                format!(
                    "honeypot decoy references start at index {} but the scenario \
                     may create {} real bookings: the ranges overlap",
                    ctx.decoy_ref_base, ctx.expected_bookings
                ),
            )
            .note("decoy_ref_base", ctx.decoy_ref_base)
            .note("expected_bookings", ctx.expected_bookings),
        );
    }
}

fn check_nip(ctx: &ScenarioContext, src: &str, diags: &mut Vec<Diagnostic>) {
    if ctx.nip_weights.is_empty() {
        return;
    }
    let max_legit = ctx.max_legit_party();
    if ctx.max_nip > max_legit {
        diags.push(
            Diagnostic::new(
                lints::NIP_CAP_HEADROOM,
                Severity::Warn,
                src,
                format!(
                    "NiP cap {} exceeds the largest legitimate party ({max_legit}): \
                     the headroom serves only name-pumping abuse",
                    ctx.max_nip
                ),
            )
            .note("max_nip", ctx.max_nip)
            .note("max_legit_party", max_legit),
        );
    }
    let coverage = ctx.nip_coverage(ctx.max_nip);
    if coverage < 0.999 {
        let severity = if coverage < 0.90 {
            Severity::Warn
        } else {
            Severity::Info
        };
        diags.push(
            Diagnostic::new(
                lints::NIP_CAP_FRICTION,
                severity,
                src,
                format!(
                    "NiP cap {} fits only {:.1}% of legitimate parties: larger \
                     groups must split bookings",
                    ctx.max_nip,
                    coverage * 100.0
                ),
            )
            .note("max_nip", ctx.max_nip)
            .note("coverage", format!("{coverage:.4}")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::time::SimDuration;
    use fg_mitigation::gating::TrustTier;
    use fg_mitigation::profile::Waiver;

    fn named(policy: PolicyConfig) -> DefenceProfile {
        DefenceProfile::airline("test", policy)
    }

    fn lints_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.lint.as_str()).collect()
    }

    #[test]
    fn builtin_presets_are_clean() {
        for (name, policy) in [
            ("unprotected", PolicyConfig::unprotected()),
            ("traditional_antibot", PolicyConfig::traditional_antibot()),
            ("recommended", PolicyConfig::recommended()),
        ] {
            let diags = analyze_profile(&named(policy));
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    #[test]
    fn equal_thresholds_kill_the_challenge_stage() {
        let mut policy = PolicyConfig::recommended();
        policy.challenge_threshold = policy.block_threshold;
        let diags = analyze_profile(&named(policy));
        assert!(
            lints_of(&diags).contains(&lints::UNREACHABLE_CHALLENGE),
            "{diags:?}"
        );
    }

    #[test]
    fn nan_threshold_is_deny() {
        let mut policy = PolicyConfig::unprotected();
        policy.block_threshold = f64::NAN;
        let diags = analyze_profile(&named(policy));
        let d = diags
            .iter()
            .find(|d| d.lint == lints::INVALID_CONFIG)
            .expect("NaN must be flagged");
        assert_eq!(d.severity, Severity::Deny);
    }

    #[test]
    fn infinite_threshold_warns_only_when_protecting() {
        // Deliberately unprotected: no finding.
        assert!(analyze_profile(&named(PolicyConfig::unprotected())).is_empty());
        // A limiter present makes the same thresholds a silent disablement.
        let mut policy = PolicyConfig::unprotected();
        policy.path_sms_limit = Some((100.0, 100.0));
        let diags = analyze_profile(&named(policy));
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == lints::NONFINITE_THRESHOLD && d.severity == Severity::Warn)
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn airline_d_path_limit_never_fires() {
        // §IV-C: a 20 000/day path limit against a 200-SMS-per-hour pump plus
        // ~170 legit SMS/day. Demand never exceeds refill: silent forever.
        let profile = named(PolicyConfig::traditional_antibot()).sms(170.0, 4_800.0);
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::LIMITER_NEVER_FIRES)
            .expect("the volumetric-era limit must be flagged");
        assert!(d.message.contains("sms"), "{}", d.message);
        assert!(
            d.explanation["path_sms_limit"].contains("never rejects"),
            "{:?}",
            d.explanation
        );
    }

    #[test]
    fn per_booking_limit_catches_what_the_path_limit_misses() {
        // Same demand, recommended posture: the keyed 3/day booking limit
        // faces the full hot-key concentration and fires within minutes.
        let profile = named(PolicyConfig::recommended()).sms(170.0, 4_800.0);
        let diags = analyze_profile(&profile);
        assert!(
            !lints_of(&diags).contains(&lints::LIMITER_NEVER_FIRES),
            "{diags:?}"
        );
    }

    #[test]
    fn slow_pump_within_headroom_is_flagged() {
        // Airline D's posture *after* the path limit was added, against the
        // actual 3/hour pump: limit = 1.02x legit daily, demand above refill,
        // fires after ~4 days — within a 3-week horizon, so no finding.
        let legit = 270.0;
        let mut policy = PolicyConfig::unprotected();
        policy.path_sms_limit = Some((legit * 1.02, legit * 1.02));
        let fires = named(policy.clone()).sms(legit, 72.0);
        assert!(!lints_of(&analyze_profile(&fires)).contains(&lints::LIMITER_NEVER_FIRES));
        // Shrink the horizon below the time-to-fire and it becomes a finding.
        let too_short = named(policy)
            .sms(legit, 72.0)
            .horizon(SimDuration::from_days(2));
        assert!(lints_of(&analyze_profile(&too_short)).contains(&lints::LIMITER_NEVER_FIRES));
    }

    #[test]
    fn unguarded_channel_needs_limiter_or_gate() {
        // Protecting posture (finite thresholds), hold abuse modeled, but no
        // hold limiter and no gate: unguarded.
        let profile = named(PolicyConfig::traditional_antibot()).holds(400.0, 288.0);
        assert!(lints_of(&analyze_profile(&profile)).contains(&lints::UNGUARDED_CHANNEL));
        // A tier gate on Hold counts as a guard.
        let mut gated = PolicyConfig::traditional_antibot();
        gated.gate.require(Endpoint::Hold, TrustTier::Verified);
        let profile = named(gated).holds(400.0, 288.0);
        assert!(!lints_of(&analyze_profile(&profile)).contains(&lints::UNGUARDED_CHANNEL));
        // The deliberately unprotected posture is exempt.
        let profile = named(PolicyConfig::unprotected()).holds(400.0, 288.0);
        assert!(analyze_profile(&profile).is_empty());
    }

    #[test]
    fn eviction_ttl_shorter_than_refill_is_deny() {
        let mut profile = named(PolicyConfig::recommended());
        // booking_sms_limit (3, 3/day) refills in 1 day; a 6 h TTL loses state.
        profile.scenario.limiter_eviction_ttl = Some(SimDuration::from_hours(6));
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::EVICTION_BEFORE_REFILL)
            .expect("short TTL must be flagged");
        assert_eq!(d.severity, Severity::Deny);
        // A TTL past the slowest refill is fine.
        profile.scenario.limiter_eviction_ttl = Some(SimDuration::from_days(2));
        assert!(analyze_profile(&profile).is_empty());
    }

    #[test]
    fn decoy_range_must_clear_real_inventory() {
        let mut profile = named(PolicyConfig::recommended());
        profile.scenario.decoy_ref_base = 1_000;
        profile.scenario.expected_bookings = 5_000;
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::DECOY_OVERLAP)
            .expect("overlapping decoys must be flagged");
        assert_eq!(d.severity, Severity::Deny);
        // Without the honeypot the decoy range is unused.
        let mut no_pot = profile.clone();
        no_pot.policy.honeypot_instead_of_block = false;
        assert!(!lints_of(&analyze_profile(&no_pot)).contains(&lints::DECOY_OVERLAP));
    }

    #[test]
    fn nip_cap_above_legit_parties_is_headroom_for_abuse() {
        let profile = named(PolicyConfig::recommended()).max_nip(12);
        assert!(lints_of(&analyze_profile(&profile)).contains(&lints::NIP_CAP_HEADROOM));
    }

    #[test]
    fn nip_cap_friction_scales_with_coverage() {
        // Cap 4 fits 94% of parties: informational.
        let profile = named(PolicyConfig::recommended()).max_nip(4);
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::NIP_CAP_FRICTION)
            .expect("a splitting cap is reported");
        assert_eq!(d.severity, Severity::Info);
        // Cap 1 fits 52%: a warning.
        let profile = named(PolicyConfig::recommended()).max_nip(1);
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::NIP_CAP_FRICTION)
            .unwrap();
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn waivers_mark_but_keep_findings() {
        let profile = named(PolicyConfig::traditional_antibot())
            .sms(170.0, 4_800.0)
            .waive(
                lints::LIMITER_NEVER_FIRES,
                "era-accurate posture under study",
            );
        let diags = analyze_profile(&profile);
        let d = diags
            .iter()
            .find(|d| d.lint == lints::LIMITER_NEVER_FIRES)
            .expect("waived findings are still reported");
        assert!(d.waived);
        assert_eq!(
            d.waive_reason.as_deref(),
            Some("era-accurate posture under study")
        );
        assert!(!d.gates_at(Severity::Info));
        let _ = Waiver {
            lint: lints::LIMITER_NEVER_FIRES,
            reason: "doc",
        };
    }
}
