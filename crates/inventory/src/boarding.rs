//! Boarding-pass issuance records.
//!
//! Airline D (§IV-C) let ticketed passengers receive boarding passes "among
//! other options, via SMS" with **no rate limit per booking reference** —
//! the feature the SMS pumpers monetized. [`BoardingPass`] captures one
//! issuance: which booking, which channel, which destination.

use fg_core::ids::{BookingRef, PhoneNumber};
use fg_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a boarding pass is delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryChannel {
    /// Delivered by SMS to a phone number — the abused channel.
    Sms(PhoneNumber),
    /// Delivered by e-mail (modelled as effectively free).
    Email,
    /// Displayed in-app / downloaded (free).
    InApp,
}

impl fmt::Display for DeliveryChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryChannel::Sms(n) => write!(f, "sms:{n}"),
            DeliveryChannel::Email => write!(f, "email"),
            DeliveryChannel::InApp => write!(f, "in-app"),
        }
    }
}

/// A single boarding-pass issuance event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoardingPass {
    booking: BookingRef,
    channel: DeliveryChannel,
    issued_at: SimTime,
    sequence: u32,
}

impl BoardingPass {
    /// Records an issuance: the `sequence`-th pass for this booking.
    pub fn new(
        booking: BookingRef,
        channel: DeliveryChannel,
        issued_at: SimTime,
        sequence: u32,
    ) -> Self {
        BoardingPass {
            booking,
            channel,
            issued_at,
            sequence,
        }
    }

    /// The booking the pass belongs to.
    pub fn booking(&self) -> BookingRef {
        self.booking
    }

    /// The delivery channel used.
    pub fn channel(&self) -> DeliveryChannel {
        self.channel
    }

    /// 1-based issuance counter within the booking.
    pub fn sequence(&self) -> u32 {
        self.sequence
    }
}

impl fmt::Display for BoardingPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BP#{} for {} via {} at {}",
            self.sequence, self.booking, self.channel, self.issued_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::ids::CountryCode;

    #[test]
    fn accessors_and_display() {
        let n = PhoneNumber::new(CountryCode::new("IR"), 9_121_234);
        let bp = BoardingPass::new(
            BookingRef::from_index(7),
            DeliveryChannel::Sms(n),
            SimTime::from_hours(3),
            2,
        );
        assert_eq!(bp.sequence(), 2);
        assert_eq!(bp.booking(), BookingRef::from_index(7));
        assert!(bp.to_string().contains("BP#2"));
        assert!(bp.to_string().contains("sms:+IR"));
    }
}
