//! Two-sided attack economics.
//!
//! §V's strongest recommendation: "Since many functional abuse attacks are
//! financially motivated, making them economically unviable is one of the
//! strongest deterrents." These ledgers make every experiment's outcome a
//! money statement: the attacker's ROI and the defender's total loss, with
//! and without each mitigation.

use fg_core::money::Money;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The attacker's profit-and-loss ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackerLedger {
    /// Residential proxy leases.
    pub proxy_spend: Money,
    /// CAPTCHA-solver fees.
    pub solver_spend: Money,
    /// Tickets / goods actually purchased to enable the attack (§IV-C).
    pub purchase_spend: Money,
    /// Infrastructure (bot development, hosting) amortized per campaign.
    pub infra_spend: Money,
    /// Revenue: SMS termination kickbacks.
    pub sms_revenue: Money,
    /// Revenue: resale / competitive gain / price-drop capture.
    pub other_revenue: Money,
}

impl AttackerLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        AttackerLedger::default()
    }

    /// Total spend.
    pub fn total_cost(&self) -> Money {
        self.proxy_spend + self.solver_spend + self.purchase_spend + self.infra_spend
    }

    /// Total revenue.
    pub fn total_revenue(&self) -> Money {
        self.sms_revenue + self.other_revenue
    }

    /// Net profit (revenue − cost).
    pub fn profit(&self) -> Money {
        self.total_revenue() - self.total_cost()
    }
}

impl fmt::Display for AttackerLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attacker: cost={} revenue={} profit={}",
            self.total_cost(),
            self.total_revenue(),
            self.profit()
        )
    }
}

/// The defender's loss ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefenderLedger {
    /// SMS termination fees paid for attack traffic.
    pub sms_cost: Money,
    /// Revenue lost to legitimate customers denied by held inventory.
    pub lost_sales: Money,
    /// Revenue lost to legitimate customers who abandoned at friction
    /// (CAPTCHA, gating) — the §V usability cost made explicit.
    pub friction_losses: Money,
    /// Infrastructure cost of serving attack traffic.
    pub serving_cost: Money,
    /// Cost of operating mitigations (honeypot hosting, anti-bot licences).
    pub mitigation_cost: Money,
}

impl DefenderLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DefenderLedger::default()
    }

    /// Total loss across all categories.
    pub fn total_loss(&self) -> Money {
        self.sms_cost
            + self.lost_sales
            + self.friction_losses
            + self.serving_cost
            + self.mitigation_cost
    }
}

impl fmt::Display for DefenderLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "defender: sms={} lost-sales={} friction={} serving={} mitigation={} total={}",
            self.sms_cost,
            self.lost_sales,
            self.friction_losses,
            self.serving_cost,
            self.mitigation_cost,
            self.total_loss()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_profit_and_roi() {
        let mut l = AttackerLedger::new();
        l.proxy_spend = Money::from_units(50);
        l.solver_spend = Money::from_units(10);
        l.sms_revenue = Money::from_units(200);
        assert_eq!(l.total_cost(), Money::from_units(60));
        assert_eq!(l.profit(), Money::from_units(140));
    }

    #[test]
    fn defender_total_sums_categories() {
        let mut d = DefenderLedger::new();
        d.sms_cost = Money::from_units(3);
        d.lost_sales = Money::from_units(7);
        d.friction_losses = Money::from_units(1);
        d.serving_cost = Money::from_cents(50);
        d.mitigation_cost = Money::from_cents(50);
        assert_eq!(d.total_loss(), Money::from_units(12));
    }

    #[test]
    fn ledger_totals_saturate_instead_of_wrapping() {
        // Multi-year sim-time runs can peg individual categories; the
        // derived totals must rail at i64 micros rather than wrap a
        // catastrophic loss into a profit.
        let rail = Money::from_micros(i64::MAX);
        let mut a = AttackerLedger::new();
        a.proxy_spend = rail;
        a.solver_spend = rail;
        assert_eq!(a.total_cost(), rail);
        assert!(
            a.profit().is_negative(),
            "pegged cost with no revenue is a loss"
        );

        let mut d = DefenderLedger::new();
        d.sms_cost = rail;
        d.lost_sales = rail;
        d.friction_losses = rail;
        assert_eq!(d.total_loss(), rail);
        assert!(
            !d.total_loss().is_negative(),
            "a loss total can never wrap negative"
        );
    }

    #[test]
    fn profit_of_pegged_revenue_and_cost_stays_in_range() {
        // revenue − cost at opposite rails is the worst-case subtraction.
        let mut l = AttackerLedger::new();
        l.sms_revenue = Money::from_micros(i64::MAX);
        l.purchase_spend = Money::from_micros(i64::MIN);
        assert_eq!(l.profit(), Money::from_micros(i64::MAX));
        l.sms_revenue = Money::from_micros(i64::MIN);
        l.purchase_spend = Money::from_micros(i64::MAX);
        assert_eq!(l.profit(), Money::from_micros(i64::MIN));
    }

    #[test]
    fn display_mentions_profit() {
        let mut l = AttackerLedger::new();
        l.sms_revenue = Money::from_units(5);
        assert!(l.to_string().contains("profit=$5.00"));
        assert!(DefenderLedger::new().to_string().contains("total=$0.00"));
    }
}
