//! Bounded sliding-window state for rate and baseline tracking.

use fg_core::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A sliding window of value deltas over sim-time, coalesced into fixed
/// `granularity` buckets so the state stays bounded by `span / granularity`
/// regardless of how often the sentinel ticks.
///
/// Windows also serve as the cross-seed folding unit: [`RateWindow::merge`]
/// mirrors `TelemetrySnapshot::merge` (per-bucket sums, newest-span kept) and
/// is associative — a property pinned by proptest, because the multi-seed
/// harness may fold replicate results in any grouping.
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

    /// Start time of the oldest retained bucket.
    pub fn oldest(&self) -> Option<SimTime> {
        self.buckets.front().map(|&(start, _)| start)
    }

    /// Number of retained buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the window holds no history.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Folds `other` into `self`: per-bucket-start sums, then eviction
    /// relative to the newest bucket across both.
    ///
    /// This is the cross-seed analogue of `TelemetrySnapshot::merge`, and it
    /// is associative: intermediate evictions only drop buckets the final
    /// eviction would drop anyway, because merge never moves the newest
    /// bucket backwards.
    ///
    /// # Panics
    ///
    /// If the two windows disagree on granularity or span.
    pub fn merge(&mut self, other: &RateWindow) {
        assert_eq!(
            self.granularity, other.granularity,
            "cannot merge windows of different granularity"
        );
        assert_eq!(
            self.span, other.span,
            "cannot merge windows of different span"
        );
        let mut merged: VecDeque<(SimTime, f64)> =
            VecDeque::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(sa, va)), Some(&&(sb, vb))) => {
                    if sa < sb {
                        merged.push_back((sa, va));
                        a.next();
                    } else if sb < sa {
                        merged.push_back((sb, vb));
                        b.next();
                    } else {
                        merged.push_back((sa, va + vb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push_back(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push_back(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        if let Some(&(newest, _)) = self.buckets.back() {
            self.evict(newest);
        }
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
        assert_eq!(w.len(), 2, "0–5 and 5–10 minute buckets");
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
        assert_eq!(w.oldest(), Some(mins(30)));
        assert!((w.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn state_is_bounded_by_span_over_granularity() {
        let mut w = window();
        for m in 0..10_000 {
            w.push(mins(m), 1.0);
        }
        assert!(w.len() <= 13, "60min span / 5min buckets, one in flight");
    }

    #[test]
    fn merge_sums_overlapping_buckets() {
        let mut a = window();
        let mut b = window();
        a.push(mins(10), 2.0);
        a.push(mins(20), 1.0);
        b.push(mins(10), 3.0);
        b.push(mins(40), 4.0);
        a.merge(&b);
        assert!((a.total_between(mins(10), mins(15)) - 5.0).abs() < 1e-12);
        assert!((a.total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn merge_evicts_relative_to_newest() {
        let mut a = window();
        a.push(mins(0), 1.0);
        let mut b = window();
        b.push(mins(120), 1.0);
        a.merge(&b);
        assert_eq!(a.oldest(), Some(mins(120)), "old bucket aged out");
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn merge_rejects_mismatched_granularity() {
        let mut a = window();
        let b = RateWindow::new(SimDuration::from_mins(1), SimDuration::from_hours(1));
        a.merge(&b);
    }
}
