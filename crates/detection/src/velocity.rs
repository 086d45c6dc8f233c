//! Sliding-window velocity counters.
//!
//! The Airline D attack (§IV-C) "was detected only after the total number of
//! boarding pass requests via SMS triggered the rate limit for the targeted
//! path, as there were no SMS rate limits per user profile in place" — i.e.
//! which *key* you count by decides your detection latency. [`VelocityCounter`]
//! counts events per arbitrary key over a sliding window, so the same
//! machinery serves per-path, per-IP, per-fingerprint, and per-booking
//! velocity signals.

use fg_core::hash::FxHashMap;
use fg_core::shard::ShardedStore;
use fg_core::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::hash::Hash;

/// Counts events per key over a sliding time window.
///
/// Internally hash-partitioned into flat maps of per-key event queues (1
/// shard by default, bit-identical to a flat map);
/// [`VelocityCounter::compact`] stripes shard by shard and aggregate reads
/// sum over shards in index order.
///
/// # Example
///
/// ```
/// use fg_detection::VelocityCounter;
/// use fg_core::time::{SimDuration, SimTime};
///
/// let mut v: VelocityCounter<&str> = VelocityCounter::new(SimDuration::from_mins(10));
/// assert_eq!(v.record_and_count("booking-X", SimTime::from_mins(0)), 1);
/// assert_eq!(v.record_and_count("booking-X", SimTime::from_mins(5)), 2);
/// // The first event falls out of the window.
/// assert_eq!(v.record_and_count("booking-X", SimTime::from_mins(11)), 2);
/// ```
#[derive(Clone, Debug)]
pub struct VelocityCounter<K> {
    window: SimDuration,
    // Fx-hashed: keys are already-mixed integers (identity hashes, IPs), and
    // per-event hashing cost dominates at production rates.
    shards: ShardedStore<K, FxHashMap<K, VecDeque<SimTime>>>,
}

impl<K: Eq + Hash + Clone> VelocityCounter<K> {
    /// Creates a single-shard counter with the given sliding window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: SimDuration) -> Self {
        Self::with_shards(window, 1)
    }

    /// Creates a counter hash-partitioned into `shards` partitions (rounded
    /// up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn with_shards(window: SimDuration, shards: usize) -> Self {
        assert!(window.as_millis() > 0, "velocity window must be positive");
        VelocityCounter {
            window,
            shards: ShardedStore::new(shards, |_| FxHashMap::default()),
        }
    }

    fn evict(q: &mut VecDeque<SimTime>, now: SimTime, window: SimDuration) {
        while let Some(&front) = q.front() {
            if now - front > window {
                q.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records and returns the new in-window count in one step — a single
    /// map lookup, no key clone.
    pub fn record_and_count(&mut self, key: K, now: SimTime) -> u64 {
        let q = self.shards.shard_mut(&key).entry(key).or_default();
        q.push_back(now);
        Self::evict(q, now, self.window);
        q.len() as u64
    }

    /// Number of keys with any retained events (may include stale keys until
    /// queried; call [`VelocityCounter::compact`] to trim exactly), summed
    /// over shards.
    pub fn tracked_keys(&self) -> usize {
        self.shards.fold(0, |acc, s| acc + s.len())
    }

    /// Drops every key whose events all fell out of the window by `now`,
    /// striping the scan shard by shard.
    pub fn compact(&mut self, now: SimTime) {
        let window = self.window;
        // fg-analyze: allow(shard-discipline): full-sweep maintenance — every shard is compacted in one pass
        for shard in self.shards.shards_mut() {
            shard.retain(|_, q| {
                Self::evict(q, now, window);
                !q.is_empty()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_within_window_only() {
        let mut v = VelocityCounter::new(SimDuration::from_secs(60));
        let counts: Vec<u64> = [0u64, 10, 20, 30]
            .into_iter()
            .map(|s| v.record_and_count("k", SimTime::from_secs(s)))
            .collect();
        assert_eq!(counts, [1, 2, 3, 4]);
        assert_eq!(
            v.record_and_count("k", SimTime::from_secs(70)),
            4,
            "t=0 evicted"
        );
        assert_eq!(v.record_and_count("k", SimTime::from_secs(300)), 1);
    }

    #[test]
    fn keys_are_independent() {
        let mut v = VelocityCounter::new(SimDuration::from_secs(60));
        assert_eq!(v.record_and_count("a", SimTime::ZERO), 1);
        assert_eq!(v.record_and_count("b", SimTime::ZERO), 1);
        assert_eq!(v.record_and_count("b", SimTime::from_secs(1)), 2);
        assert_eq!(v.record_and_count("a", SimTime::from_secs(1)), 2);
        assert_eq!(v.record_and_count("c", SimTime::from_secs(1)), 1);
    }

    #[test]
    fn window_boundary_inclusive() {
        let mut v = VelocityCounter::new(SimDuration::from_secs(10));
        v.record_and_count("k", SimTime::ZERO);
        assert_eq!(
            v.record_and_count("k", SimTime::from_secs(10)),
            2,
            "exactly window old stays"
        );
        let mut w = VelocityCounter::new(SimDuration::from_secs(10));
        w.record_and_count("k", SimTime::ZERO);
        assert_eq!(w.record_and_count("k", SimTime::from_millis(10_001)), 1);
    }

    #[test]
    fn record_and_count_is_atomic() {
        let mut v = VelocityCounter::new(SimDuration::from_secs(60));
        assert_eq!(v.record_and_count("k", SimTime::ZERO), 1);
        assert_eq!(v.record_and_count("k", SimTime::from_secs(1)), 2);
    }

    #[test]
    fn compact_drops_stale_keys() {
        let mut v = VelocityCounter::new(SimDuration::from_secs(10));
        v.record_and_count("old", SimTime::ZERO);
        v.record_and_count("new", SimTime::from_secs(100));
        v.compact(SimTime::from_secs(100));
        assert_eq!(v.tracked_keys(), 1);
        assert_eq!(v.record_and_count("new", SimTime::from_secs(100)), 2);
    }

    #[test]
    fn sharded_counter_matches_single_shard() {
        let mut sharded: VelocityCounter<u32> =
            VelocityCounter::with_shards(SimDuration::from_secs(60), 4);
        let mut flat: VelocityCounter<u32> = VelocityCounter::new(SimDuration::from_secs(60));
        for step in 0..300u32 {
            let now = SimTime::from_secs(u64::from(step) * 3);
            let key = step % 13;
            assert_eq!(
                sharded.record_and_count(key, now),
                flat.record_and_count(key, now),
                "diverged at step {step}"
            );
            if step % 9 == 0 {
                sharded.compact(now);
                flat.compact(now);
            }
        }
        assert_eq!(sharded.tracked_keys(), flat.tracked_keys());
    }

    proptest! {
        /// Compacting (striped per-shard eviction) never changes any count a
        /// caller observes — the velocity-store analogue of the limiter's
        /// eviction-losslessness property.
        #[test]
        fn prop_compaction_preserves_counts(
            shards in 1usize..9,
            ops in proptest::collection::vec((0u8..12, 0u64..2_000, any::<bool>()), 1..200),
        ) {
            let window = SimDuration::from_secs(500);
            let mut compacted: VelocityCounter<u8> = VelocityCounter::with_shards(window, shards);
            let mut reference: VelocityCounter<u8> = VelocityCounter::new(window);
            let mut now = SimTime::ZERO;
            for (key, dt, compact) in ops {
                now += SimDuration::from_secs(dt as i64);
                if compact {
                    compacted.compact(now);
                }
                prop_assert_eq!(
                    compacted.record_and_count(key, now),
                    reference.record_and_count(key, now)
                );
            }
            // After a final compaction pass on both, live-key counts agree
            // too (compaction only drops keys with zero in-window events).
            compacted.compact(now);
            reference.compact(now);
            prop_assert_eq!(compacted.tracked_keys(), reference.tracked_keys());
        }

        /// Count never exceeds the number of recorded events and is exact
        /// for in-window events.
        #[test]
        fn prop_count_matches_manual(mut times in proptest::collection::vec(0u64..10_000, 0..100), probe in 0u64..12_000) {
            let window = SimDuration::from_secs(500);
            let mut v = VelocityCounter::new(window);
            // Simulation time is monotone; record in time order as real
            // callers do.
            times.sort_unstable();
            for &t in &times {
                v.record_and_count("k", SimTime::from_secs(t));
            }
            let probe = probe.max(times.iter().copied().max().unwrap_or(0));
            let now = SimTime::from_secs(probe);
            let expected = times
                .iter()
                .filter(|&&t| now - SimTime::from_secs(t) <= window)
                .count() as u64;
            // The probe is itself an event inside the window.
            prop_assert_eq!(v.record_and_count("k", now), expected + 1);
        }
    }
}
