//! Strongly-typed identifiers.
//!
//! Every entity that crosses a crate boundary is identified by a newtype, so
//! a flight id can never be confused with a client id. Identifiers that the
//! paper's attacks rotate or randomize (booking references, phone numbers)
//! carry just enough structure to support the corresponding heuristics.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! numeric_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

numeric_id!(
    /// A logical end client (human user or bot instance) of the platform.
    ClientId,
    "c"
);
numeric_id!(
    /// A web session, as reconstructed by sessionization over web logs.
    SessionId,
    "s"
);
numeric_id!(
    /// A flight instance (route + departure date).
    FlightId,
    "f"
);
numeric_id!(
    /// A passenger record inside a booking.
    PassengerId,
    "p"
);

/// A six-character alphanumeric booking reference (PNR-style record locator).
///
/// Booking references are what SMS-pumping attacks in the paper's §IV-C abuse:
/// a handful of real references were used to request boarding-pass SMSes at
/// high volume, so rate limits keyed on this identifier matter.
///
/// # Example
///
/// ```
/// use fg_core::ids::BookingRef;
///
/// let r = BookingRef::from_index(0);
/// assert_eq!(r.as_str().len(), 6);
/// assert!(r.as_str().chars().all(|c| c.is_ascii_alphanumeric()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BookingRef([u8; 6]);

/// Alphabet used by [`BookingRef`]: unambiguous upper-case letters and digits.
const PNR_ALPHABET: &[u8] = b"ABCDEFGHJKLMNPQRSTUVWXYZ23456789";

impl BookingRef {
    /// Deterministically maps an index to a booking reference.
    ///
    /// Distinct indices below `32^6` map to distinct references.
    pub fn from_index(mut idx: u64) -> Self {
        let mut buf = [0u8; 6];
        for slot in buf.iter_mut() {
            *slot = PNR_ALPHABET[(idx % 32) as usize];
            idx /= 32;
        }
        BookingRef(buf)
    }

    /// The reference as a string slice.
    pub fn as_str(&self) -> &str {
        // PNR_ALPHABET is pure ASCII, so the bytes are always valid UTF-8.
        std::str::from_utf8(&self.0).expect("booking ref is ASCII")
    }
}

impl fmt::Debug for BookingRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BookingRef({})", self.as_str())
    }
}

impl fmt::Display for BookingRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// ISO-3166-style two-letter country code.
///
/// # Example
///
/// ```
/// use fg_core::ids::CountryCode;
///
/// let uz = CountryCode::new("UZ");
/// assert_eq!(uz.as_str(), "UZ");
/// assert_eq!(uz.to_string(), "UZ");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Creates a country code from a two-character ASCII string.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not exactly two ASCII characters. Use this only
    /// with literals; parse untrusted input with [`CountryCode::try_new`].
    pub fn new(code: &str) -> Self {
        Self::try_new(code).expect("country code must be two ASCII characters")
    }

    /// Fallible constructor for untrusted input.
    pub fn try_new(code: &str) -> Option<Self> {
        let bytes = code.as_bytes();
        if bytes.len() == 2 && bytes.iter().all(u8::is_ascii) {
            Some(CountryCode([
                bytes[0].to_ascii_uppercase(),
                bytes[1].to_ascii_uppercase(),
            ]))
        } else {
            None
        }
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("country code is ASCII")
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountryCode({})", self.as_str())
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An E.164-style phone number: a country plus a national significant number.
///
/// # Example
///
/// ```
/// use fg_core::ids::{CountryCode, PhoneNumber};
///
/// let n = PhoneNumber::new(CountryCode::new("UZ"), 935_550_123);
/// assert_eq!(n.country(), CountryCode::new("UZ"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhoneNumber {
    country: CountryCode,
    national: u64,
}

impl PhoneNumber {
    /// Creates a phone number in `country` with the given national number.
    pub fn new(country: CountryCode, national: u64) -> Self {
        PhoneNumber { country, national }
    }

    /// The destination country of this number.
    pub fn country(&self) -> CountryCode {
        self.country
    }
}

impl fmt::Display for PhoneNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}-{}", self.country, self.national)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_ids_display_with_prefix() {
        assert_eq!(ClientId(7).to_string(), "c7");
        assert_eq!(SessionId(7).to_string(), "s7");
        assert_eq!(FlightId(7).to_string(), "f7");
        assert_eq!(PassengerId(7).to_string(), "p7");
    }

    #[test]
    fn booking_ref_distinct_for_distinct_indices() {
        let a = BookingRef::from_index(1);
        let b = BookingRef::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a, BookingRef::from_index(1));
    }

    #[test]
    fn country_code_normalizes_case() {
        assert_eq!(CountryCode::new("uz"), CountryCode::new("UZ"));
        assert!(CountryCode::try_new("USA").is_none());
        assert!(CountryCode::try_new("U").is_none());
    }

    #[test]
    fn phone_number_accessors() {
        let n = PhoneNumber::new(CountryCode::new("IR"), 9_123_456);
        assert_eq!(n.country().as_str(), "IR");
        assert_eq!(n.to_string(), "+IR-9123456");
    }
}
