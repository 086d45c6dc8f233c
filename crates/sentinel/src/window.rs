//! Bounded sliding-window state for rate and baseline tracking.

use fg_core::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A sliding window of value deltas over sim-time, coalesced into fixed
/// `granularity` buckets so the state stays bounded by `span / granularity`
/// regardless of how often the sentinel ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct RateWindow {
    granularity: SimDuration,
    span: SimDuration,
    /// `(bucket_start, accumulated_delta)`, oldest first, bucket starts
    /// strictly increasing.
    buckets: VecDeque<(SimTime, f64)>,
}

impl RateWindow {
    /// Creates an empty window keeping `span` of history at `granularity`
    /// resolution.
    ///
    /// # Panics
    ///
    /// If `granularity` or `span` is non-positive.
    pub fn new(granularity: SimDuration, span: SimDuration) -> Self {
        assert!(
            granularity > SimDuration::ZERO,
            "window granularity must be positive"
        );
        assert!(span > SimDuration::ZERO, "window span must be positive");
        RateWindow {
            granularity,
            span,
            buckets: VecDeque::new(),
        }
    }

    fn bucket_start(&self, at: SimTime) -> SimTime {
        let g = self.granularity.as_millis() as u64;
        SimTime::from_millis((at.as_millis() / g) * g)
    }

    /// Adds `delta` observed at `at` and evicts buckets older than the span.
    ///
    /// Observation times are expected to be non-decreasing (sim-time only
    /// moves forward); an out-of-order `at` is folded into the newest bucket
    /// rather than reordering history.
    pub fn push(&mut self, at: SimTime, delta: f64) {
        let start = self.bucket_start(at);
        match self.buckets.back_mut() {
            Some((last, v)) if *last >= start => *v += delta,
            _ => self.buckets.push_back((start, delta)),
        }
        self.evict(at);
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.saturating_add(SimDuration::ZERO - self.span);
        while let Some(&(start, _)) = self.buckets.front() {
            if start.saturating_add(self.granularity) <= cutoff {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Sum of deltas in buckets whose start lies in `[from, to)`.
    pub fn total_between(&self, from: SimTime, to: SimTime) -> f64 {
        self.buckets
            .iter()
            .filter(|&&(start, _)| start >= from && start < to)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Sum of all retained deltas.
    pub fn total(&self) -> f64 {
        self.buckets.iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimTime {
        SimTime::from_mins(m)
    }

    fn window() -> RateWindow {
        RateWindow::new(SimDuration::from_mins(5), SimDuration::from_hours(1))
    }

    #[test]
    fn coalesces_into_granularity_buckets() {
        let mut w = window();
        w.push(mins(1), 2.0);
        w.push(mins(4), 3.0);
        w.push(mins(6), 1.0);
        assert_eq!(w.buckets.len(), 2, "0–5 and 5–10 minute buckets");
        assert!((w.total() - 6.0).abs() < 1e-12);
        assert!((w.total_between(mins(0), mins(5)) - 5.0).abs() < 1e-12);
        assert!((w.total_between(mins(5), mins(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evicts_beyond_span() {
        let mut w = window();
        w.push(mins(0), 1.0);
        w.push(mins(30), 1.0);
        // At t=70min the 0–5min bucket has fully left the 60-minute span.
        w.push(mins(70), 1.0);
        assert_eq!(w.buckets.front().map(|&(start, _)| start), Some(mins(30)));
        assert!((w.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn state_is_bounded_by_span_over_granularity() {
        let mut w = window();
        for m in 0..10_000 {
            w.push(mins(m), 1.0);
        }
        assert!(
            w.buckets.len() <= 13,
            "60min span / 5min buckets, one in flight"
        );
    }
}
