//! A small three-state circuit breaker around the decision path.
//!
//! Closed → (N consecutive failures) → Open → (cool-down elapses) →
//! Half-open → one success closes it / one failure re-opens it. "Failure"
//! means the handler itself broke (panic, poisoned state, serialization
//! failure) — refusals like 429/4xx are healthy answers, not failures.
//!
//! Time is injected (`*_at` methods) so the unit tests need no sleeps; the
//! serving path passes `Instant::now()`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables, hot-reloadable with the rest of the serve config.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BreakerConfig {
    /// Consecutive handler failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing, milliseconds.
    pub open_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_ms: 1_000,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

struct Inner {
    config: BreakerConfig,
    state: State,
}

/// The breaker. Cheap to share behind an `Arc`; all transitions take one
/// short mutex.
pub struct CircuitBreaker {
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tunables.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            inner: Mutex::new(Inner {
                config,
                state: State::Closed {
                    consecutive_failures: 0,
                },
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Swaps tunables without touching the current state.
    pub fn reconfigure(&self, config: BreakerConfig) {
        self.lock().config = config;
    }

    /// Whether a request may proceed at `now`. An open breaker whose
    /// cool-down has elapsed transitions to half-open and admits the probe.
    pub fn try_acquire_at(&self, now: Instant) -> bool {
        let mut inner = self.lock();
        match inner.state {
            State::Closed { .. } => true,
            State::HalfOpen => false, // one probe at a time
            State::Open { until } => {
                if now >= until {
                    inner.state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// [`CircuitBreaker::try_acquire_at`] at the current instant.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_at(Instant::now())
    }

    /// Records the outcome of an admitted request at `now`. Returns `true`
    /// when this call opened the breaker: the failure that reached the
    /// threshold, or a failed half-open probe.
    pub fn record_at(&self, ok: bool, now: Instant) -> bool {
        let mut inner = self.lock();
        let open_for = Duration::from_millis(inner.config.open_ms);
        let opens = match (&mut inner.state, ok) {
            (
                State::Closed {
                    consecutive_failures,
                },
                true,
            ) => {
                *consecutive_failures = 0;
                false
            }
            (
                State::Closed {
                    consecutive_failures,
                },
                false,
            ) => {
                *consecutive_failures += 1;
                *consecutive_failures >= inner.config.failure_threshold
            }
            (State::HalfOpen, true) => {
                inner.state = State::Closed {
                    consecutive_failures: 0,
                };
                false
            }
            (State::HalfOpen, false) => true,
            // A late result while already open: ignore.
            (State::Open { .. }, _) => false,
        };
        if opens {
            inner.state = State::Open {
                until: now + open_for,
            };
        }
        opens
    }

    /// [`CircuitBreaker::record_at`] at the current instant.
    pub fn record(&self, ok: bool) -> bool {
        self.record_at(ok, Instant::now())
    }

    /// `"closed"`, `"open"`, or `"half-open"` — for `/readyz`.
    pub fn state_name(&self) -> &'static str {
        match self.lock().state {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen => "half-open",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, open_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_ms,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_and_recovers_via_probe() {
        let b = breaker(3, 100);
        let t0 = Instant::now();
        for _ in 0..2 {
            assert!(b.try_acquire_at(t0));
            assert!(!b.record_at(false, t0), "below the threshold");
        }
        assert_eq!(b.state_name(), "closed");
        assert!(b.record_at(false, t0), "the threshold failure opens it");
        assert_eq!(b.state_name(), "open");
        assert!(!b.record_at(false, t0), "a late failure while open");
        // Still cooling down: refused.
        assert!(!b.try_acquire_at(t0 + Duration::from_millis(50)));
        // Cool-down over: exactly one probe admitted.
        let t1 = t0 + Duration::from_millis(150);
        assert!(b.try_acquire_at(t1));
        assert_eq!(b.state_name(), "half-open");
        assert!(!b.try_acquire_at(t1), "second probe must wait");
        assert!(!b.record_at(true, t1), "a successful probe closes it");
        assert_eq!(b.state_name(), "closed");
        assert!(b.try_acquire_at(t1));
    }

    #[test]
    fn failed_probe_reopens() {
        let b = breaker(1, 100);
        let t0 = Instant::now();
        assert!(b.record_at(false, t0));
        assert_eq!(b.state_name(), "open");
        let t1 = t0 + Duration::from_millis(101);
        assert!(b.try_acquire_at(t1));
        assert!(b.record_at(false, t1), "a failed probe reopens it");
        assert_eq!(b.state_name(), "open");
        assert!(!b.try_acquire_at(t1 + Duration::from_millis(50)));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = breaker(3, 100);
        let t = Instant::now();
        for ok in [false, false, true, false, false] {
            assert!(!b.record_at(ok, t), "no call reaches the threshold");
        }
        assert_eq!(b.state_name(), "closed", "streak was reset by the success");
    }
}
