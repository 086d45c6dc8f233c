//! Compact IPv4-style address model.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-bit network address.
///
/// # Example
///
/// ```
/// use fg_netsim::ip::IpAddress;
///
/// let ip = IpAddress::from_octets(192, 168, 1, 7);
/// assert_eq!(ip.to_string(), "192.168.1.7");
/// assert_eq!(ip.subnet24(), IpAddress::from_octets(192, 168, 1, 0));
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct IpAddress(pub u32);

impl IpAddress {
    /// Builds an address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddress(u32::from_be_bytes([a, b, c, d]))
    }

    /// The raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The containing /24 subnet's network address.
    pub const fn subnet24(self) -> IpAddress {
        IpAddress(self.0 & 0xFFFF_FF00)
    }
}

impl From<u32> for IpAddress {
    fn from(v: u32) -> Self {
        IpAddress(v)
    }
}

impl fmt::Display for IpAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Broad egress classification — the primary signal commercial anti-bot
/// vendors attach to an IP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IpClass {
    /// Consumer broadband egress. Blocking these risks real customers.
    Residential,
    /// Cloud / hosting egress. Cheap to block wholesale.
    Datacenter,
    /// Cellular carrier-grade NAT egress. Many users per IP.
    Mobile,
}

impl fmt::Display for IpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpClass::Residential => "residential",
            IpClass::Datacenter => "datacenter",
            IpClass::Mobile => "mobile",
        };
        f.write_str(s)
    }
}

/// A contiguous, half-open address range `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpRange {
    start: IpAddress,
    len: u32,
}

impl IpRange {
    /// Creates a range of `len` addresses starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range would wrap past the end of the address space or
    /// `len` is zero.
    pub fn new(start: IpAddress, len: u32) -> Self {
        assert!(len > 0, "ip range must be non-empty");
        assert!(
            start.0.checked_add(len - 1).is_some(),
            "ip range wraps the address space"
        );
        IpRange { start, len }
    }

    /// The first address in the range.
    pub const fn start(self) -> IpAddress {
        self.start
    }

    /// Number of addresses covered.
    pub const fn len(self) -> u32 {
        self.len
    }

    /// `false` always — ranges are non-empty by construction — but offered
    /// for API symmetry with collection types.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// `true` if `ip` falls inside the range.
    pub const fn contains(self, ip: IpAddress) -> bool {
        ip.0 >= self.start.0 && (ip.0 - self.start.0) < self.len
    }

    /// The address at `offset` from the start.
    ///
    /// Returns `None` if `offset` is outside the range.
    pub const fn nth(self, offset: u32) -> Option<IpAddress> {
        if offset < self.len {
            Some(IpAddress(self.start.0 + offset))
        } else {
            None
        }
    }

    /// `true` if `self` and `other` share any address.
    pub const fn overlaps(self, other: IpRange) -> bool {
        self.start.0 < other.start.0 + other.len && other.start.0 < self.start.0 + self.len
    }
}

impl fmt::Display for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.start, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn octet_roundtrip_and_display() {
        let ip = IpAddress::from_octets(10, 0, 0, 255);
        assert_eq!(ip.to_string(), "10.0.0.255");
        assert_eq!(ip.as_u32(), 0x0A0000FF);
    }

    #[test]
    fn subnet_masks() {
        let ip = IpAddress::from_octets(203, 0, 113, 77);
        assert_eq!(ip.subnet24(), IpAddress::from_octets(203, 0, 113, 0));
    }

    #[test]
    fn range_contains_and_nth() {
        let r = IpRange::new(IpAddress::from_octets(10, 0, 0, 0), 256);
        assert!(r.contains(IpAddress::from_octets(10, 0, 0, 0)));
        assert!(r.contains(IpAddress::from_octets(10, 0, 0, 255)));
        assert!(!r.contains(IpAddress::from_octets(10, 0, 1, 0)));
        assert_eq!(r.nth(255), Some(IpAddress::from_octets(10, 0, 0, 255)));
        assert_eq!(r.nth(256), None);
    }

    #[test]
    fn overlap_detection() {
        let a = IpRange::new(IpAddress(100), 50);
        let b = IpRange::new(IpAddress(149), 10);
        let c = IpRange::new(IpAddress(150), 10);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert!(b.overlaps(a));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        IpRange::new(IpAddress(0), 0);
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn wrapping_range_rejected() {
        IpRange::new(IpAddress(u32::MAX), 2);
    }

    proptest! {
        /// nth() stays inside the range and contains() agrees.
        #[test]
        fn prop_nth_in_range(start in 0u32..u32::MAX / 2, len in 1u32..10_000, off in 0u32..10_000) {
            let r = IpRange::new(IpAddress(start), len);
            match r.nth(off) {
                Some(ip) => prop_assert!(r.contains(ip)),
                None => prop_assert!(off >= len),
            }
        }

        /// A range always overlaps itself and contains its own start.
        #[test]
        fn prop_self_overlap(start in 0u32..u32::MAX / 2, len in 1u32..1_000_000) {
            let r = IpRange::new(IpAddress(start), len);
            prop_assert!(r.overlaps(r));
            prop_assert!(r.contains(r.start()));
        }
    }
}
