//! Fixed-point money arithmetic.
//!
//! The paper's §V argues that the strongest deterrent against functional
//! abuse is destroying the attacker's economics. The workspace therefore
//! accounts costs and revenue on both sides of every attack (SMS termination
//! fees, proxy rental, CAPTCHA-solver fees, ticket purchases, lost sales) in
//! a single fixed-point currency type to avoid float drift in long runs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An amount of money in micro-units (1 unit = 1_000_000 micros).
///
/// Signed: negative amounts represent losses / costs.
///
/// All arithmetic saturates at the `i64` range instead of wrapping: the
/// economics ledgers accumulate per-request amounts over multi-year
/// sim-time horizons, where a silent two's-complement wrap would flip a
/// catastrophic attacker loss into a profit (release builds don't panic on
/// overflow — they wrap). A saturated ledger is visibly pegged at the rail;
/// a wrapped one lies.
///
/// # Example
///
/// ```
/// use fg_core::money::Money;
///
/// let sms_cost = Money::from_cents(25);
/// let total = sms_cost * 1_000i64;
/// assert_eq!(total, Money::from_units(250));
/// assert_eq!(total.to_string(), "$250.00");
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Money(i64);

/// Micro-units per whole currency unit.
const MICROS: i64 = 1_000_000;

impl Money {
    /// Zero money.
    pub const ZERO: Money = Money(0);

    /// Creates an amount from whole currency units (saturating at the
    /// `i64` micro-unit range).
    pub const fn from_units(units: i64) -> Self {
        Money(units.saturating_mul(MICROS))
    }

    /// Creates an amount from cents (hundredths of a unit), saturating at
    /// the `i64` micro-unit range.
    pub const fn from_cents(cents: i64) -> Self {
        Money(cents.saturating_mul(MICROS / 100))
    }

    /// Creates an amount from raw micro-units.
    pub const fn from_micros(micros: i64) -> Self {
        Money(micros)
    }

    /// Value as fractional currency units.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// `true` if strictly negative (a net cost).
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` if strictly positive (a net gain).
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Multiplies by a float factor, rounding to the nearest micro.
    pub fn mul_f64(self, k: f64) -> Money {
        Money((self.0 as f64 * k).round() as i64)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let units = abs / MICROS as u64;
        let cents = (abs % MICROS as u64) / (MICROS as u64 / 100);
        write!(f, "{sign}${units}.{cents:02}")
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        // `-i64::MIN` overflows; saturate like everything else.
        Money(self.0.saturating_neg())
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.saturating_mul(rhs))
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    fn mul(self, rhs: u64) -> Money {
        // A count beyond i64::MAX saturates the cast (the old `as i64`
        // wrapped it negative, flipping the product's sign).
        let count = i64::try_from(rhs).unwrap_or(i64::MAX);
        Money(self.0.saturating_mul(count))
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Money::from_units(3), Money::from_cents(300));
        assert_eq!(Money::from_micros(MICROS), Money::from_units(1));
    }

    #[test]
    fn display_formats_signs_and_cents() {
        assert_eq!(Money::from_cents(1250).to_string(), "$12.50");
        assert_eq!((-Money::from_cents(5)).to_string(), "-$0.05");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_units(10);
        let b = Money::from_units(4);
        assert_eq!(a - b, Money::from_units(6));
        assert_eq!(a + b, Money::from_units(14));
        assert_eq!(b * 3i64, Money::from_units(12));
        assert_eq!(a.mul_f64(0.5), Money::from_units(5));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Money = (1..=4).map(Money::from_units).sum();
        assert_eq!(total, Money::from_units(10));
    }

    #[test]
    fn sign_predicates() {
        assert!(Money::from_cents(1).is_positive());
        assert!((-Money::from_cents(1)).is_negative());
        assert!(!Money::ZERO.is_positive());
        assert!(!Money::ZERO.is_negative());
    }

    #[test]
    fn all_arithmetic_saturates_at_the_rails() {
        let max = Money::from_micros(i64::MAX);
        let min = Money::from_micros(i64::MIN);
        let one = Money::from_units(1);
        // Every operator saturates, so ledgers never wrap.
        assert_eq!(max + one, max);
        assert_eq!(min - one, min);
        assert_eq!(max * 2i64, max);
        assert_eq!(min * 2i64, min);
        assert_eq!(max * 2u64, max);
        assert_eq!(-min, max, "-i64::MIN saturates instead of overflowing");
        let mut acc = max;
        acc += one;
        assert_eq!(acc, max);
        let mut acc = min;
        acc -= one;
        assert_eq!(acc, min);
    }

    #[test]
    fn huge_unit_counts_saturate_instead_of_truncating() {
        // `Mul<u64>` used to cast with `as i64`, wrapping counts beyond
        // i64::MAX negative and flipping the product's sign.
        assert_eq!(
            Money::from_units(1) * u64::MAX,
            Money::from_micros(i64::MAX)
        );
        assert_eq!(
            -Money::from_units(1) * u64::MAX,
            Money::from_micros(i64::MIN)
        );
        // Constructors at the boundary: i64::MAX units ≫ representable
        // micros, so the product pegs rather than wrapping.
        assert_eq!(Money::from_units(i64::MAX), Money::from_micros(i64::MAX));
        assert_eq!(Money::from_cents(i64::MIN), Money::from_micros(i64::MIN));
    }

    #[test]
    fn multi_year_accumulation_stays_exact_below_the_rail() {
        // A decade of one $0.25 SMS per second is far inside i64 micros —
        // accumulation must stay exact, not merely un-wrapped.
        let per_event = Money::from_cents(25);
        let events: u64 = 10 * 365 * 24 * 3600;
        let total = per_event * events;
        assert_eq!(total, Money::from_micros(250_000 * events as i64));
        let mut ledger = Money::ZERO;
        for _ in 0..1000 {
            ledger += per_event * (events / 1000);
        }
        assert_eq!(ledger, per_event * (events / 1000 * 1000));
    }
}
