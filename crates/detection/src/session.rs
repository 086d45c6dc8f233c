//! Gap-based sessionization.
//!
//! Logs are grouped into user sessions before feature extraction (§III-A).
//! We key sessions on the `(ip, fingerprint)` pair — what a real defender can
//! observe — and cut a session after a configurable inactivity gap.

use crate::log::LogRecord;
use fg_core::hash::FxHashMap;
use fg_core::time::{SimDuration, SimTime};

/// A reconstructed user session.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    records: Vec<LogRecord>,
}

impl Session {
    /// The session's records, time-ordered.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// First request instant.
    pub fn started_at(&self) -> SimTime {
        self.records.first().expect("sessions are non-empty").at
    }

    /// Last request instant.
    pub fn ended_at(&self) -> SimTime {
        self.records.last().expect("sessions are non-empty").at
    }

    /// Wall-clock span of the session.
    pub fn duration(&self) -> SimDuration {
        self.ended_at() - self.started_at()
    }
}

/// Groups `records` into sessions keyed by `(ip, fingerprint)`, cutting after
/// `gap` of inactivity.
///
/// Records need not be pre-sorted; they are sorted by time internally.
/// The output is ordered by session start time (ties broken by key), and the
/// partition is lossless: every input record appears in exactly one session.
///
/// # Example
///
/// ```
/// use fg_detection::{sessionize, log::{Endpoint, LogRecord, Method}};
/// use fg_core::ids::ClientId;
/// use fg_core::time::{SimDuration, SimTime};
/// use fg_netsim::ip::IpAddress;
///
/// let rec = |secs: u64| LogRecord {
///     at: SimTime::from_secs(secs),
///     ip: IpAddress::from_octets(10, 0, 0, 1),
///     fingerprint: 1,
///     truth_client: ClientId(1),
///     method: Method::Get,
///     endpoint: Endpoint::Search,
///     ok: true,
/// };
/// // Two bursts separated by two hours become two sessions.
/// let sessions = sessionize(vec![rec(0), rec(30), rec(7200)], SimDuration::from_mins(30));
/// assert_eq!(sessions.len(), 2);
/// assert_eq!(sessions[0].records().len(), 2);
/// ```
pub fn sessionize(mut records: Vec<LogRecord>, gap: SimDuration) -> Vec<Session> {
    records.sort_by_key(|r| r.at);
    let mut open: FxHashMap<(u32, u64), Vec<LogRecord>> = FxHashMap::default();
    let mut closed: Vec<Vec<LogRecord>> = Vec::new();

    for rec in records {
        let key = (rec.ip.as_u32(), rec.fingerprint);
        match open.get_mut(&key) {
            Some(bucket) => {
                let last = bucket.last().expect("open sessions are non-empty").at;
                if rec.at - last > gap {
                    closed.push(std::mem::take(bucket));
                }
                bucket.push(rec);
            }
            None => {
                open.insert(key, vec![rec]);
            }
        }
    }
    closed.extend(open.into_values().filter(|v| !v.is_empty()));

    // Deterministic ordering: by start time, then key.
    closed.sort_by_key(|v| {
        let first = v.first().expect("closed sessions are non-empty");
        (first.at, first.ip.as_u32(), first.fingerprint)
    });
    closed
        .into_iter()
        .map(|records| Session { records })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Endpoint, Method};
    use fg_core::ids::ClientId;
    use fg_netsim::ip::IpAddress;
    use proptest::prelude::*;

    fn rec(secs: u64, ip_host: u8, fp: u64) -> LogRecord {
        LogRecord {
            at: SimTime::from_secs(secs),
            ip: IpAddress::from_octets(10, 0, 0, ip_host),
            fingerprint: fp,
            truth_client: ClientId(u64::from(ip_host)),
            method: Method::Get,
            endpoint: Endpoint::Search,
            ok: true,
        }
    }

    #[test]
    fn splits_on_gap() {
        let sessions = sessionize(
            vec![rec(0, 1, 1), rec(100, 1, 1), rec(10_000, 1, 1)],
            SimDuration::from_mins(30),
        );
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].records().len(), 2);
        assert_eq!(sessions[1].records().len(), 1);
    }

    #[test]
    fn separates_by_ip_and_fingerprint() {
        let sessions = sessionize(
            vec![rec(0, 1, 1), rec(1, 2, 1), rec(2, 1, 2)],
            SimDuration::from_mins(30),
        );
        assert_eq!(sessions.len(), 3, "distinct keys never merge");
    }

    #[test]
    fn unsorted_input_is_handled() {
        let sessions = sessionize(
            vec![rec(100, 1, 1), rec(0, 1, 1), rec(50, 1, 1)],
            SimDuration::from_mins(30),
        );
        assert_eq!(sessions.len(), 1);
        let times: Vec<u64> = sessions[0]
            .records()
            .iter()
            .map(|r| r.at.as_secs())
            .collect();
        assert_eq!(times, vec![0, 50, 100]);
    }

    #[test]
    fn session_metadata() {
        let sessions = sessionize(
            vec![rec(10, 1, 1), rec(70, 1, 1)],
            SimDuration::from_mins(30),
        );
        let s = &sessions[0];
        assert_eq!(s.started_at(), SimTime::from_secs(10));
        assert_eq!(s.ended_at(), SimTime::from_secs(70));
        assert_eq!(s.duration(), SimDuration::from_secs(60));
        let first = &s.records()[0];
        assert_eq!(
            (first.ip, first.fingerprint),
            (IpAddress::from_octets(10, 0, 0, 1), 1)
        );
    }

    #[test]
    fn empty_input_yields_no_sessions() {
        assert!(sessionize(vec![], SimDuration::from_mins(30)).is_empty());
    }

    #[test]
    fn gap_boundary_is_exclusive() {
        // Exactly `gap` apart stays in one session; gap + 1ms splits.
        let gap = SimDuration::from_secs(100);
        let one = sessionize(vec![rec(0, 1, 1), rec(100, 1, 1)], gap);
        assert_eq!(one.len(), 1);
        let mut late = rec(100, 1, 1);
        late.at = SimTime::from_millis(100_001);
        let two = sessionize(vec![rec(0, 1, 1), late], gap);
        assert_eq!(two.len(), 2);
    }

    proptest! {
        /// Sessionization is a lossless partition of the input records.
        #[test]
        fn prop_lossless_partition(
            raw in proptest::collection::vec((0u64..100_000, 1u8..5, 1u64..4), 0..200),
            gap_secs in 1i64..3_600,
        ) {
            let records: Vec<LogRecord> = raw.iter().map(|&(t, ip, fp)| rec(t, ip, fp)).collect();
            let sessions = sessionize(records.clone(), SimDuration::from_secs(gap_secs));
            let total: usize = sessions.iter().map(|s| s.records().len()).sum();
            prop_assert_eq!(total, records.len());
            // Within each session: single key and non-decreasing times.
            for s in &sessions {
                let key = (s.records()[0].ip, s.records()[0].fingerprint);
                let mut last = SimTime::ZERO;
                for r in s.records() {
                    prop_assert_eq!((r.ip, r.fingerprint), key);
                    prop_assert!(r.at >= last);
                    last = r.at;
                }
            }
        }
    }
}
