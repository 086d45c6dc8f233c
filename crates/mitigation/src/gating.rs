//! Trust-tier feature gating.
//!
//! §V: "Limiting high-risk functionalities (e.g. SMS reception, items holding
//! for long periods of time) to trusted users, such as verified loyalty
//! program members."

use fg_core::hash::FxHashMap;
use fg_detection::log::Endpoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A client's trust standing with the platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrustTier {
    /// No account, or a fresh unverified one.
    Anonymous,
    /// E-mail / phone verified account.
    Verified,
    /// Loyalty-program member with purchase history.
    Loyalty,
}

impl fmt::Display for TrustTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrustTier::Anonymous => "anonymous",
            TrustTier::Verified => "verified",
            TrustTier::Loyalty => "loyalty",
        };
        f.write_str(s)
    }
}

/// Maps endpoints to the minimum tier allowed to use them.
///
/// # Example
///
/// ```
/// use fg_mitigation::gating::{FeatureGate, TrustTier};
/// use fg_detection::log::Endpoint;
///
/// let mut gate = FeatureGate::permissive();
/// gate.require(Endpoint::BoardingPass, TrustTier::Verified);
/// assert!(!gate.allows(Endpoint::BoardingPass, TrustTier::Anonymous));
/// assert!(gate.allows(Endpoint::BoardingPass, TrustTier::Loyalty));
/// assert!(gate.allows(Endpoint::Search, TrustTier::Anonymous));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureGate {
    requirements: FxHashMap<Endpoint, TrustTier>,
}

impl FeatureGate {
    /// A gate with no restrictions — the pre-incident configuration.
    pub fn permissive() -> Self {
        FeatureGate::default()
    }

    /// The §V-recommended posture: SMS-triggering features and holds need a
    /// verified account.
    pub fn recommended() -> Self {
        let mut g = FeatureGate::permissive();
        g.require(Endpoint::SendOtp, TrustTier::Verified);
        g.require(Endpoint::BoardingPass, TrustTier::Verified);
        g.require(Endpoint::Hold, TrustTier::Verified);
        g
    }

    /// Sets the minimum tier for `endpoint`.
    pub fn require(&mut self, endpoint: Endpoint, min_tier: TrustTier) {
        self.requirements.insert(endpoint, min_tier);
    }

    /// Removes any restriction on `endpoint`.
    pub fn clear(&mut self, endpoint: Endpoint) {
        self.requirements.remove(&endpoint);
    }

    /// `true` when `tier` may use `endpoint`.
    pub fn allows(&self, endpoint: Endpoint, tier: TrustTier) -> bool {
        self.requirements
            .get(&endpoint)
            .is_none_or(|&min| tier >= min)
    }

    /// The minimum tier for `endpoint`, if restricted.
    pub fn requirement(&self, endpoint: Endpoint) -> Option<TrustTier> {
        self.requirements.get(&endpoint).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered() {
        assert!(TrustTier::Anonymous < TrustTier::Verified);
        assert!(TrustTier::Verified < TrustTier::Loyalty);
    }

    #[test]
    fn permissive_allows_everything() {
        let g = FeatureGate::permissive();
        for e in Endpoint::ALL {
            assert!(g.allows(e, TrustTier::Anonymous));
        }
    }

    #[test]
    fn recommended_posture_gates_high_risk_features() {
        let g = FeatureGate::recommended();
        for e in [Endpoint::SendOtp, Endpoint::BoardingPass, Endpoint::Hold] {
            assert!(!g.allows(e, TrustTier::Anonymous), "{e}");
            assert!(g.allows(e, TrustTier::Verified), "{e}");
        }
        assert!(g.allows(Endpoint::Search, TrustTier::Anonymous));
        assert_eq!(g.requirement(Endpoint::Hold), Some(TrustTier::Verified));
        assert_eq!(g.requirement(Endpoint::Search), None);
    }

    #[test]
    fn clear_removes_restriction() {
        let mut g = FeatureGate::recommended();
        g.clear(Endpoint::Hold);
        assert!(g.allows(Endpoint::Hold, TrustTier::Anonymous));
    }

    #[test]
    fn loyalty_requirement_blocks_verified() {
        let mut g = FeatureGate::permissive();
        g.require(Endpoint::Hold, TrustTier::Loyalty);
        assert!(!g.allows(Endpoint::Hold, TrustTier::Verified));
        assert!(g.allows(Endpoint::Hold, TrustTier::Loyalty));
    }
}
