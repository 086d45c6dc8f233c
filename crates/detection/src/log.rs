//! Web-log records — the raw material of behaviour-based detection.

use fg_core::ids::ClientId;
use fg_core::time::SimTime;
use fg_netsim::ip::IpAddress;
use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP method of a logged request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Method {
    Get,
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// The application endpoint a request hit.
///
/// The granularity matters: behaviour-based detection aggregates over these,
/// and the paper's point is that *which* endpoints a session touches (hold
/// without pay, SMS re-request) is far more telling than *how many* requests
/// it makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// Landing / home page.
    Home,
    /// Flight or product search.
    Search,
    /// Seat map / item detail view.
    Detail,
    /// Place a seat hold / add to cart.
    Hold,
    /// Payment submission.
    Pay,
    /// Login (OTP trigger).
    Login,
    /// Request a boarding pass (possibly via SMS).
    BoardingPass,
    /// Request an OTP SMS.
    SendOtp,
    /// Account / profile pages.
    Account,
    /// A trap URL invisible to humans (robots.txt-excluded honeylink).
    TrapFile,
}

impl Endpoint {
    /// All endpoints (for feature vectors and iteration).
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Home,
        Endpoint::Search,
        Endpoint::Detail,
        Endpoint::Hold,
        Endpoint::Pay,
        Endpoint::Login,
        Endpoint::BoardingPass,
        Endpoint::SendOtp,
        Endpoint::Account,
        Endpoint::TrapFile,
    ];

    /// The position of this endpoint in [`Endpoint::ALL`]. Total by
    /// construction (`ALL` lists variants in declaration order), so lookup
    /// tables sized by `ALL.len()` can be indexed without a fallible search.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The URL path depth a request to this endpoint typically has.
    pub const fn typical_depth(self) -> u32 {
        match self {
            Endpoint::Home => 1,
            Endpoint::Search | Endpoint::Login | Endpoint::TrapFile => 2,
            Endpoint::Detail | Endpoint::Account => 3,
            Endpoint::Hold | Endpoint::Pay | Endpoint::BoardingPass | Endpoint::SendOtp => 4,
        }
    }

    /// The URL path this endpoint serves, e.g. `/booking/hold` (its
    /// [`fmt::Display`] form, without allocating).
    pub const fn as_str(self) -> &'static str {
        match self {
            Endpoint::Home => "/",
            Endpoint::Search => "/search",
            Endpoint::Detail => "/flights/detail",
            Endpoint::Hold => "/booking/hold",
            Endpoint::Pay => "/booking/pay",
            Endpoint::Login => "/login",
            Endpoint::BoardingPass => "/checkin/boarding-pass",
            Endpoint::SendOtp => "/auth/send-otp",
            Endpoint::Account => "/account/profile",
            Endpoint::TrapFile => "/static/.hidden",
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One web-log line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Request instant.
    pub at: SimTime,
    /// Source address.
    pub ip: IpAddress,
    /// Fingerprint identity hash presented by the client.
    pub fingerprint: u64,
    /// Ground-truth client id — available in simulation only, used for
    /// evaluating detector accuracy, never as a detection input.
    pub truth_client: ClientId,
    /// HTTP method.
    pub method: Method,
    /// Application endpoint.
    pub endpoint: Endpoint,
    /// Whether the application served the request successfully.
    pub ok: bool,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} fp={:x} {}",
            self.at,
            self.ip,
            self.method,
            self.endpoint,
            self.fingerprint,
            if self.ok { "200" } else { "403" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display_and_depth() {
        assert_eq!(Endpoint::Hold.to_string(), "/booking/hold");
        assert_eq!(Endpoint::Home.typical_depth(), 1);
        assert_eq!(Endpoint::Pay.typical_depth(), 4);
        assert_eq!(Endpoint::ALL.len(), 10);
    }

    #[test]
    fn record_display_contains_essentials() {
        let r = LogRecord {
            at: SimTime::from_secs(5),
            ip: IpAddress::from_octets(10, 0, 0, 1),
            fingerprint: 0xABC,
            truth_client: ClientId(1),
            method: Method::Post,
            endpoint: Endpoint::Hold,
            ok: true,
        };
        let s = r.to_string();
        assert!(s.contains("POST"));
        assert!(s.contains("/booking/hold"));
        assert!(s.contains("10.0.0.1"));
        assert!(s.contains("200"));
    }
}
