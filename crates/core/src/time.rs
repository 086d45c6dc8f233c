//! Simulated time.
//!
//! All FeatureGuard components run against a simulated clock rather than the
//! host's. [`SimTime`] is an absolute instant (milliseconds since the
//! simulation epoch) and [`SimDuration`] a span between instants. Both are
//! plain `u64`/`i64`-backed `Copy` types so they can be used freely as map
//! keys and event timestamps.
//!
//! Calendar helpers treat the epoch as midnight on a Monday, which makes
//! "week 0 / week 1 / week 2" experiment phrasing (as in the paper's Fig. 1)
//! line up with [`SimTime::week_index`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Milliseconds in one second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds in one day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;
/// Milliseconds in one (7-day) week.
pub const MILLIS_PER_WEEK: u64 = 7 * MILLIS_PER_DAY;

/// An absolute instant in simulated time.
///
/// Internally a count of milliseconds since the simulation epoch.
///
/// # Example
///
/// ```
/// use fg_core::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_days(9) + SimDuration::from_hours(3);
/// assert_eq!(t.week_index(), 1);
/// assert_eq!(t.day_of_week(), 2); // epoch is a Monday, day 9 is a Wednesday
/// assert_eq!(t.hour_of_day(), 3);
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MILLIS_PER_SEC)
    }

    /// Creates an instant `mins` minutes after the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * MILLIS_PER_MIN)
    }

    /// Creates an instant `hours` hours after the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * MILLIS_PER_HOUR)
    }

    /// Creates an instant `days` days after the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * MILLIS_PER_DAY)
    }

    /// Creates an instant `weeks` weeks after the epoch.
    pub const fn from_weeks(weeks: u64) -> Self {
        SimTime(weeks * MILLIS_PER_WEEK)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Whole hours since the epoch.
    pub const fn as_hours(self) -> u64 {
        self.0 / MILLIS_PER_HOUR
    }

    /// Whole days since the epoch.
    pub const fn as_days(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Zero-based index of the calendar week containing this instant.
    pub const fn week_index(self) -> u64 {
        self.0 / MILLIS_PER_WEEK
    }

    /// Zero-based day of week (0 = Monday … 6 = Sunday).
    pub const fn day_of_week(self) -> u64 {
        (self.0 / MILLIS_PER_DAY) % 7
    }

    /// Hour of day, `0..24`.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 / MILLIS_PER_HOUR) % 24
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_millis(self.0.saturating_sub(earlier.0) as i64)
    }

    /// Adds `d`, saturating at [`SimTime::MAX`]. Negative durations saturate
    /// at [`SimTime::ZERO`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        if d.0 >= 0 {
            SimTime(self.0.saturating_add(d.0 as u64))
        } else {
            SimTime(self.0.saturating_sub(d.0.unsigned_abs()))
        }
    }

    /// The later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.as_days();
        let hours = self.hour_of_day();
        let mins = (self.0 / MILLIS_PER_MIN) % 60;
        let secs = self.as_secs() % 60;
        write!(f, "d{days} {hours:02}:{mins:02}:{secs:02}")
    }
}

/// A span of simulated time. Signed so that subtraction is total.
///
/// # Example
///
/// ```
/// use fg_core::time::{SimTime, SimDuration};
///
/// let a = SimTime::from_hours(2);
/// let b = SimTime::from_hours(5);
/// assert_eq!(b - a, SimDuration::from_hours(3));
/// assert_eq!((a - b).as_hours_f64(), -3.0);
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw (signed) milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: i64) -> Self {
        SimDuration(secs * MILLIS_PER_SEC as i64)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: i64) -> Self {
        SimDuration(mins * MILLIS_PER_MIN as i64)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: i64) -> Self {
        SimDuration(hours * MILLIS_PER_HOUR as i64)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: i64) -> Self {
        SimDuration(days * MILLIS_PER_DAY as i64)
    }

    /// Creates a duration from fractional hours (useful for "5.3 hours").
    pub fn from_hours_f64(hours: f64) -> Self {
        SimDuration((hours * MILLIS_PER_HOUR as f64).round() as i64)
    }

    /// Raw signed milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// This duration expressed in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// This duration expressed in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_DAY as f64
    }

    /// `true` if this duration is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value.
    pub const fn abs(self) -> SimDuration {
        SimDuration(self.0.abs())
    }

    /// Multiplies the duration by a scalar, rounding to the nearest ms.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).round() as i64)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= MILLIS_PER_HOUR as i64 {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if self.0.abs() >= MILLIS_PER_SEC as i64 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        self.saturating_add(SimDuration(-rhs.0))
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The signed span from `rhs` to `self`. Total: the exact difference
    /// is taken in `i128` and clamped into [`SimDuration`]'s range, so
    /// instants more than `i64::MAX` ms apart give the extreme duration of
    /// the right sign instead of overflowing. Inlined across crates:
    /// velocity eviction calls it once per event it inspects.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        let exact = i128::from(self.0) - i128::from(rhs.0);
        SimDuration(exact.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_helpers() {
        let t = SimTime::from_weeks(2) + SimDuration::from_days(3) + SimDuration::from_hours(14);
        assert_eq!(t.week_index(), 2);
        assert_eq!(t.day_of_week(), 3);
        assert_eq!(t.hour_of_day(), 14);
        assert_eq!(t.as_days(), 17);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_hours(10);
        let d = SimDuration::from_mins(90);
        assert_eq!((a + d) - a, d);
        assert_eq!((a + d) - d, a);
    }

    #[test]
    fn instant_difference_is_total_at_the_extremes() {
        let far = SimTime::from_millis(1 << 63);
        assert_eq!(
            far - SimTime::from_millis(1_000),
            SimDuration::from_millis(i64::MAX - 999)
        );
        assert!(far - SimTime::from_millis(1_000) > SimDuration::ZERO);
        assert_eq!(
            SimTime::ZERO - SimTime::from_millis(u64::MAX),
            SimDuration::from_millis(i64::MIN)
        );
        assert_eq!(
            SimTime::from_millis(u64::MAX) - SimTime::ZERO,
            SimDuration::from_millis(i64::MAX)
        );
    }

    #[test]
    fn negative_duration_saturates_at_zero() {
        let t = SimTime::from_secs(1);
        assert_eq!(t - SimDuration::from_secs(10), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_is_zero_when_earlier_is_later() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
    }

    #[test]
    fn fractional_hours() {
        let d = SimDuration::from_hours_f64(5.3);
        assert!((d.as_hours_f64() - 5.3).abs() < 1e-6);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_days(1).to_string(), "d1 00:00:00");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.00s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3.00h");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_hours(2).mul_f64(1.5);
        assert_eq!(d, SimDuration::from_hours(3));
    }
}
