//! Honeypot decoy environments.
//!
//! §V proposes "decoy environments that resemble the real website and to
//! which attackers are redirected … attackers waste resources believing to
//! hold items in a false environment while legitimate users remain
//! unaffected. By keeping attackers engaged with a controlled replica, their
//! need to rotate fingerprints or adjust tactics diminishes" (building on the
//! scraping honeypots of ref \[53\]).
//!
//! [`Honeypot`] accepts any hold/request and always "succeeds", while
//! recording the attacker effort absorbed. Nothing it does touches real
//! inventory.

use fg_core::hash::FxHashMap;
use fg_core::ids::{BookingRef, ClientId};
use fg_core::time::SimTime;
use serde::{Deserialize, Serialize};

/// First index of the decoy booking-reference range.
///
/// Real references are allocated sequentially from index 0; decoys count up
/// from the middle of the `u64` index space, so the two ranges cannot collide
/// in any report (`fg-analyze` lint `decoy-overlap` checks this invariant
/// against each scenario's expected real-booking volume).
pub const DECOY_REF_BASE: u64 = u64::MAX / 2;

/// Statistics about what the decoy absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoneypotStats {
    /// Fake holds granted.
    pub holds_absorbed: u64,
    /// Fake seats "reserved".
    pub seats_absorbed: u64,
    /// Fake SMS requests swallowed (never reaching a carrier).
    pub sms_absorbed: u64,
    /// Distinct diverted clients.
    pub clients_diverted: u64,
}

/// A decoy reservation environment.
///
/// # Example
///
/// ```
/// use fg_mitigation::Honeypot;
/// use fg_core::ids::ClientId;
/// use fg_core::time::SimTime;
///
/// let mut pot = Honeypot::new();
/// // The attacker "holds" 6 seats — on nothing.
/// let fake_ref = pot.absorb_hold(ClientId(9), 6, SimTime::ZERO);
/// assert!(pot.is_diverted(ClientId(9)));
/// assert_eq!(pot.stats().seats_absorbed, 6);
/// # let _ = fake_ref;
/// ```
#[derive(Clone, Debug, Default)]
pub struct Honeypot {
    diverted: FxHashMap<ClientId, SimTime>,
    stats: HoneypotStats,
    fake_ref_counter: u64,
}

impl Honeypot {
    /// An empty decoy.
    pub fn new() -> Self {
        Honeypot::default()
    }

    /// Marks a client as diverted into the decoy from `now` on.
    pub fn divert(&mut self, client: ClientId, now: SimTime) {
        if self.diverted.insert(client, now).is_none() {
            self.stats.clients_diverted += 1;
        }
    }

    /// `true` when the client is currently served by the decoy.
    pub fn is_diverted(&self, client: ClientId) -> bool {
        self.diverted.contains_key(&client)
    }

    /// Accepts a fake hold of `seats` seats and returns a plausible booking
    /// reference. Diverts the client implicitly if not already diverted.
    pub fn absorb_hold(&mut self, client: ClientId, seats: u32, now: SimTime) -> BookingRef {
        self.divert(client, now);
        self.stats.holds_absorbed += 1;
        self.stats.seats_absorbed += u64::from(seats);
        // Decoy references come from a distinct, deterministic index range so
        // they can never collide with real references in reports.
        self.fake_ref_counter += 1;
        BookingRef::from_index(DECOY_REF_BASE + self.fake_ref_counter)
    }

    /// Accepts a fake SMS request (nothing is sent, nothing is paid).
    pub fn absorb_sms(&mut self, client: ClientId, now: SimTime) {
        self.divert(client, now);
        self.stats.sms_absorbed += 1;
    }

    /// Absorption statistics.
    pub fn stats(&self) -> HoneypotStats {
        self.stats
    }

    /// Releases a client from the decoy (e.g. a false positive appeal).
    pub fn release(&mut self, client: ClientId) -> bool {
        self.diverted.remove(&client).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diversion_is_sticky_and_counted_once() {
        let mut pot = Honeypot::new();
        pot.divert(ClientId(1), SimTime::ZERO);
        pot.divert(ClientId(1), SimTime::from_hours(1));
        pot.divert(ClientId(2), SimTime::ZERO);
        assert_eq!(pot.stats().clients_diverted, 2);
        assert!(pot.is_diverted(ClientId(1)));
        assert!(!pot.is_diverted(ClientId(3)));
    }

    #[test]
    fn absorbed_holds_accumulate() {
        let mut pot = Honeypot::new();
        let r1 = pot.absorb_hold(ClientId(7), 6, SimTime::ZERO);
        let r2 = pot.absorb_hold(ClientId(7), 6, SimTime::from_mins(30));
        assert_ne!(r1, r2, "each fake hold gets a fresh reference");
        assert_eq!(pot.stats().holds_absorbed, 2);
        assert_eq!(pot.stats().seats_absorbed, 12);
        assert_eq!(pot.stats().clients_diverted, 1);
    }

    #[test]
    fn sms_absorption_counts() {
        let mut pot = Honeypot::new();
        for _ in 0..100 {
            pot.absorb_sms(ClientId(5), SimTime::ZERO);
        }
        assert_eq!(pot.stats().sms_absorbed, 100);
    }

    #[test]
    fn release_frees_a_client() {
        let mut pot = Honeypot::new();
        pot.divert(ClientId(1), SimTime::ZERO);
        assert!(pot.release(ClientId(1)));
        assert!(!pot.is_diverted(ClientId(1)));
        assert!(!pot.release(ClientId(1)), "second release is a no-op");
    }
}
