//! Deterministic discrete-event queue.
//!
//! The scenario engine in `fg-scenario` drives the whole simulation off a
//! single [`EventQueue`]. Determinism requires a *total* order on events:
//! ties on timestamp are broken by insertion sequence number, so two events
//! scheduled for the same instant always pop in the order they were pushed,
//! regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A time-ordered, insertion-stable event queue.
///
/// # Example
///
/// ```
/// use fg_core::event::EventQueue;
/// use fg_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "b");
/// q.schedule(SimTime::from_secs(10), "c");
/// q.schedule(SimTime::from_secs(1), "a");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(5), i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(
            q.pop_before(SimTime::from_secs(5)).map(|(_, e)| e),
            Some("early")
        );
        assert_eq!(q.pop_before(SimTime::from_secs(5)), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), ())));
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, for any
        /// schedule order.
        #[test]
        fn prop_pop_order_is_monotone(times in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// Events with identical timestamps pop in insertion order.
        #[test]
        fn prop_stable_for_equal_times(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_secs(1), i);
            }
            let out: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        }
    }
}
