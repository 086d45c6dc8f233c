//! Per-session behavioural features.
//!
//! The literature features (§III-A refs \[29\]–\[34\]): request volume, method
//! mix, inter-request timing, URL depth, trap-file hits. Plus the
//! domain-specific features that *do* move under functional abuse: the
//! hold/pay funnel ratio and SMS-request concentration. The experiments use
//! both sets to demonstrate why the first family fails on low-volume abuse.

use crate::log::{Endpoint, Method};
use crate::session::Session;
use serde::{Deserialize, Serialize};

/// The feature vector extracted from one session.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionFeatures {
    /// Total requests.
    pub volume: f64,
    /// GET count.
    pub gets: f64,
    /// POST count.
    pub posts: f64,
    /// Session wall-clock duration in seconds.
    pub duration_secs: f64,
    /// Mean inter-request gap in seconds (0 for single-request sessions).
    pub mean_gap_secs: f64,
    /// Coefficient of variation of inter-request gaps (0 when undefined).
    /// Scripted bots fire metronomically (cv → 0); humans are bursty.
    pub gap_cv: f64,
    /// Number of distinct endpoints touched.
    pub distinct_endpoints: f64,
    /// Mean URL depth of requests.
    pub mean_depth: f64,
    /// Search-page requests (exploration metric used for scraping detection).
    pub searches: f64,
    /// Trap-file hits (a classic crawler tell).
    pub trap_hits: f64,
    /// Hold / add-to-cart requests.
    pub holds: f64,
    /// Payment requests.
    pub pays: f64,
    /// SMS-triggering requests (OTP + boarding pass).
    pub sms_requests: f64,
    /// Fraction of requests rejected by the application.
    pub error_rate: f64,
}

impl SessionFeatures {
    /// Extracts features from a session.
    pub fn extract(session: &Session) -> Self {
        let records = session.records();
        let n = records.len() as f64;

        // One pass accumulates every per-record counter; distinct endpoints
        // become a bitmask (Endpoint has < 16 variants).
        let mut gets = 0u32;
        let mut searches = 0u32;
        let mut trap_hits = 0u32;
        let mut holds = 0u32;
        let mut pays = 0u32;
        let mut sms_requests = 0u32;
        let mut errors = 0u32;
        let mut depth_sum = 0u32;
        let mut endpoint_mask = 0u16;
        for r in records {
            if r.method == Method::Get {
                gets += 1;
            }
            if !r.ok {
                errors += 1;
            }
            depth_sum += r.endpoint.typical_depth();
            endpoint_mask |= 1 << (r.endpoint as u16);
            match r.endpoint {
                Endpoint::Search => searches += 1,
                Endpoint::TrapFile => trap_hits += 1,
                Endpoint::Hold => holds += 1,
                Endpoint::Pay => pays += 1,
                Endpoint::SendOtp | Endpoint::BoardingPass => sms_requests += 1,
                _ => {}
            }
        }

        // Inter-request gaps: two windowed passes (mean, then centred
        // variance) with no gap buffer. Centring keeps the metronomic-bot
        // case at exactly cv = 0.
        let gap_count = records.len().saturating_sub(1);
        let mut mean_gap = 0.0;
        let mut gap_cv = 0.0;
        if gap_count > 0 {
            let sum: f64 = records
                .windows(2)
                .map(|p| (p[1].at - p[0].at).as_secs_f64())
                .sum();
            mean_gap = sum / gap_count as f64;
            if gap_count >= 2 && mean_gap != 0.0 {
                let var = records
                    .windows(2)
                    .map(|p| {
                        let g = (p[1].at - p[0].at).as_secs_f64();
                        (g - mean_gap).powi(2)
                    })
                    .sum::<f64>()
                    / gap_count as f64;
                gap_cv = var.sqrt() / mean_gap;
            }
        }

        SessionFeatures {
            volume: n,
            gets: f64::from(gets),
            posts: n - f64::from(gets),
            duration_secs: session.duration().as_secs_f64(),
            mean_gap_secs: mean_gap,
            gap_cv,
            distinct_endpoints: f64::from(endpoint_mask.count_ones()),
            mean_depth: f64::from(depth_sum) / n,
            searches: f64::from(searches),
            trap_hits: f64::from(trap_hits),
            holds: f64::from(holds),
            pays: f64::from(pays),
            sms_requests: f64::from(sms_requests),
            error_rate: f64::from(errors) / n,
        }
    }

    /// The abandonment signature of DoI: holds that never convert to pays.
    pub fn hold_abandonment(&self) -> f64 {
        if self.holds == 0.0 {
            0.0
        } else {
            (self.holds - self.pays).max(0.0) / self.holds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;
    use crate::session::sessionize;
    use fg_core::ids::ClientId;
    use fg_core::time::{SimDuration, SimTime};
    use fg_netsim::ip::IpAddress;

    fn rec(secs: u64, endpoint: Endpoint, method: Method, ok: bool) -> LogRecord {
        LogRecord {
            at: SimTime::from_secs(secs),
            ip: IpAddress::from_octets(10, 0, 0, 1),
            fingerprint: 1,
            truth_client: ClientId(1),
            method,
            endpoint,
            ok,
        }
    }

    fn single_session(records: Vec<LogRecord>) -> Session {
        let mut sessions = sessionize(records, SimDuration::from_days(1));
        assert_eq!(sessions.len(), 1);
        sessions.remove(0)
    }

    #[test]
    fn basic_counts() {
        let s = single_session(vec![
            rec(0, Endpoint::Home, Method::Get, true),
            rec(10, Endpoint::Search, Method::Get, true),
            rec(20, Endpoint::Hold, Method::Post, true),
            rec(30, Endpoint::Pay, Method::Post, false),
        ]);
        let f = SessionFeatures::extract(&s);
        assert_eq!(f.volume, 4.0);
        assert_eq!(f.gets, 2.0);
        assert_eq!(f.posts, 2.0);
        assert_eq!(f.holds, 1.0);
        assert_eq!(f.pays, 1.0);
        assert_eq!(f.distinct_endpoints, 4.0);
        assert!((f.error_rate - 0.25).abs() < 1e-12);
        assert_eq!(f.duration_secs, 30.0);
        assert_eq!(f.mean_gap_secs, 10.0);
    }

    #[test]
    fn metronomic_bot_has_zero_gap_cv() {
        let s = single_session(
            (0..10)
                .map(|i| rec(i * 5, Endpoint::Hold, Method::Post, true))
                .collect(),
        );
        let f = SessionFeatures::extract(&s);
        assert!(f.gap_cv < 1e-12, "constant gaps → cv 0, got {}", f.gap_cv);
    }

    #[test]
    fn bursty_human_has_positive_gap_cv() {
        let times = [0u64, 2, 4, 300, 302, 600];
        let s = single_session(
            times
                .iter()
                .map(|&t| rec(t, Endpoint::Search, Method::Get, true))
                .collect(),
        );
        let f = SessionFeatures::extract(&s);
        assert!(f.gap_cv > 0.5, "bursty gaps → high cv, got {}", f.gap_cv);
    }

    #[test]
    fn hold_abandonment_signature() {
        let doi = single_session(vec![
            rec(0, Endpoint::Hold, Method::Post, true),
            rec(10, Endpoint::Hold, Method::Post, true),
        ]);
        assert_eq!(SessionFeatures::extract(&doi).hold_abandonment(), 1.0);

        let legit = single_session(vec![
            rec(0, Endpoint::Hold, Method::Post, true),
            rec(10, Endpoint::Pay, Method::Post, true),
        ]);
        assert_eq!(SessionFeatures::extract(&legit).hold_abandonment(), 0.0);

        let browser = single_session(vec![rec(0, Endpoint::Search, Method::Get, true)]);
        assert_eq!(SessionFeatures::extract(&browser).hold_abandonment(), 0.0);
    }

    #[test]
    fn sms_requests_count_both_channels() {
        let s = single_session(vec![
            rec(0, Endpoint::SendOtp, Method::Post, true),
            rec(1, Endpoint::BoardingPass, Method::Post, true),
            rec(2, Endpoint::BoardingPass, Method::Post, true),
        ]);
        assert_eq!(SessionFeatures::extract(&s).sms_requests, 3.0);
    }

    #[test]
    fn single_request_session_is_safe() {
        let s = single_session(vec![rec(0, Endpoint::Home, Method::Get, true)]);
        let f = SessionFeatures::extract(&s);
        assert_eq!(f.mean_gap_secs, 0.0);
        assert_eq!(f.gap_cv, 0.0);
        assert_eq!(f.duration_secs, 0.0);
    }
}
