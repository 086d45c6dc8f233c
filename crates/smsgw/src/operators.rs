//! Operator routing and revenue-share fraud.
//!
//! §II-B: attackers "may collude with local mobile network operators that
//! provide lists of mobile numbers to target and share part of the
//! corresponding revenue", or "create new local carriers and identify them as
//! terminator actors to a primary operator", collecting termination
//! compensation for all managed traffic. [`OperatorNetwork`] maps each
//! destination country to its terminating carrier and computes where each
//! cent of the application owner's spend ends up — including the attacker's
//! kickback when the carrier is fraudulent.

use fg_core::ids::CountryCode;
use fg_core::money::Money;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The nature of a terminating carrier.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CarrierKind {
    /// A legitimate carrier: the termination fee stays in the ecosystem.
    Legit,
    /// A colluding or attacker-created carrier paying a kickback.
    Fraudulent {
        /// Fraction of the termination fee kicked back to the attacker,
        /// `0.0..=1.0`.
        attacker_share: f64,
    },
}

impl CarrierKind {
    /// The attacker's fraction of the termination fee.
    pub fn attacker_share(&self) -> f64 {
        match *self {
            CarrierKind::Legit => 0.0,
            CarrierKind::Fraudulent { attacker_share } => attacker_share.clamp(0.0, 1.0),
        }
    }
}

impl fmt::Display for CarrierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarrierKind::Legit => write!(f, "legit"),
            CarrierKind::Fraudulent { attacker_share } => {
                write!(f, "fraudulent({:.0}% kickback)", attacker_share * 100.0)
            }
        }
    }
}

/// Per-country terminating carrier registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorNetwork {
    carriers: HashMap<CountryCode, CarrierKind>,
    /// Termination fee fraction retained by the terminating carrier (the
    /// primary operator keeps the rest as transit margin).
    termination_fraction: f64,
}

impl OperatorNetwork {
    /// Creates a network where every country terminates legitimately and the
    /// terminating carrier collects `termination_fraction` of the price.
    pub fn all_legit(termination_fraction: f64) -> Self {
        OperatorNetwork {
            carriers: HashMap::new(),
            termination_fraction: termination_fraction.clamp(0.0, 1.0),
        }
    }

    /// The default network matching the paper's fraud geography: premium
    /// destinations in the Table I head terminate at fraudulent carriers with
    /// substantial kickbacks.
    pub fn default_fraud_world() -> Self {
        let mut net = OperatorNetwork::all_legit(0.7);
        for (code, share) in [
            ("UZ", 0.6),
            ("IR", 0.55),
            ("KG", 0.55),
            ("JO", 0.5),
            ("NG", 0.5),
            ("KH", 0.45),
        ] {
            net.set_carrier(
                CountryCode::new(code),
                CarrierKind::Fraudulent {
                    attacker_share: share,
                },
            );
        }
        net
    }

    /// Sets the terminating carrier for a country.
    pub fn set_carrier(&mut self, country: CountryCode, kind: CarrierKind) {
        self.carriers.insert(country, kind);
    }

    /// The terminating carrier for a country (legit unless overridden).
    pub fn carrier(&self, country: CountryCode) -> CarrierKind {
        self.carriers
            .get(&country)
            .copied()
            .unwrap_or(CarrierKind::Legit)
    }

    /// Splits an owner's spend of `price` on one message to `country` into
    /// `(termination_fee, attacker_revenue)`.
    pub fn settle(&self, country: CountryCode, price: Money) -> (Money, Money) {
        let termination = price.mul_f64(self.termination_fraction);
        let attacker = termination.mul_f64(self.carrier(country).attacker_share());
        (termination, attacker)
    }

    /// Removes fraudulent carriers in `country` — the §V mitigation of
    /// "stricter validation measures for new secondary operators" /
    /// de-registering abusers. Returns `true` if a fraudulent carrier was
    /// actually removed.
    pub fn deregister_fraudulent(&mut self, country: CountryCode) -> bool {
        match self.carriers.get(&country) {
            Some(CarrierKind::Fraudulent { .. }) => {
                self.carriers.insert(country, CarrierKind::Legit);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_world_has_fraud_in_premium_head() {
        let net = OperatorNetwork::default_fraud_world();
        assert!(matches!(
            net.carrier(CountryCode::new("UZ")),
            CarrierKind::Fraudulent { .. }
        ));
        assert!(matches!(
            net.carrier(CountryCode::new("GB")),
            CarrierKind::Legit
        ));
        let fraudulent = net
            .carriers
            .values()
            .filter(|k| matches!(k, CarrierKind::Fraudulent { .. }))
            .count();
        assert_eq!(fraudulent, 6);
    }

    #[test]
    fn settle_splits_money_correctly() {
        let net = OperatorNetwork::default_fraud_world();
        let price = Money::from_cents(28);
        let (term, attacker) = net.settle(CountryCode::new("UZ"), price);
        // 70% termination, 60% of that kicked back.
        assert_eq!(term, price.mul_f64(0.7));
        assert_eq!(attacker, price.mul_f64(0.7).mul_f64(0.6));
        let (_, none) = net.settle(CountryCode::new("GB"), price);
        assert_eq!(none, Money::ZERO);
    }

    #[test]
    fn deregistration_stops_kickbacks() {
        let mut net = OperatorNetwork::default_fraud_world();
        assert!(net.deregister_fraudulent(CountryCode::new("UZ")));
        let (_, attacker) = net.settle(CountryCode::new("UZ"), Money::from_cents(28));
        assert_eq!(attacker, Money::ZERO);
        // Idempotent / no-op on legit carriers.
        assert!(!net.deregister_fraudulent(CountryCode::new("UZ")));
        assert!(!net.deregister_fraudulent(CountryCode::new("GB")));
    }

    #[test]
    fn shares_clamped() {
        let k = CarrierKind::Fraudulent {
            attacker_share: 2.0,
        };
        assert_eq!(k.attacker_share(), 1.0);
        assert_eq!(CarrierKind::Legit.attacker_share(), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CarrierKind::Legit.to_string(), "legit");
        assert_eq!(
            CarrierKind::Fraudulent {
                attacker_share: 0.5
            }
            .to_string(),
            "fraudulent(50% kickback)"
        );
    }
}
