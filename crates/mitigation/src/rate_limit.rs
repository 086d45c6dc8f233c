//! Token-bucket rate limiting.

use fg_core::hash::FxHashMap;
use fg_core::shard::ShardedStore;
use fg_core::time::SimTime;
use std::hash::Hash;

/// A classic token bucket: capacity `burst`, refilled at `rate_per_sec`.
///
/// # Example
///
/// ```
/// use fg_mitigation::rate_limit::TokenBucket;
/// use fg_core::time::SimTime;
///
/// let mut tb = TokenBucket::new(2.0, 1.0); // burst 2, 1 token/sec
/// assert!(tb.try_acquire(SimTime::ZERO));
/// assert!(tb.try_acquire(SimTime::ZERO));
/// assert!(!tb.try_acquire(SimTime::ZERO));
/// assert!(tb.try_acquire(SimTime::from_secs(1)), "refilled after 1s");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    rate_per_sec: f64,
    updated: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `rate_per_sec` is negative.
    pub fn new(capacity: f64, rate_per_sec: f64) -> Self {
        assert!(capacity > 0.0, "bucket capacity must be positive");
        assert!(rate_per_sec >= 0.0, "refill rate cannot be negative");
        TokenBucket {
            capacity,
            tokens: capacity,
            rate_per_sec,
            updated: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.updated).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.capacity);
        self.updated = self.updated.max(now);
    }

    /// Attempts to take one token at `now`. Returns `true` on success.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.try_acquire_n(now, 1.0)
    }

    /// Attempts to take `n` tokens at `now`.
    pub fn try_acquire_n(&mut self, now: SimTime, n: f64) -> bool {
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refill at `now`).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// A map of token buckets, one per key — per-booking, per-IP, per-user, or
/// per-path depending on the key type the caller chooses.
///
/// Internally hash-partitioned into flat bucket maps (1 shard by default,
/// which is bit-identical to a flat map). Aggregate reads sum over shards in
/// index order, so totals are independent of the shard count.
#[derive(Clone, Debug)]
pub struct KeyedLimiter<K> {
    capacity: f64,
    rate_per_sec: f64,
    // Fx-hashed: keyed by integer client/booking keys on the request path.
    shards: ShardedStore<K, FxHashMap<K, TokenBucket>>,
}

impl<K: Eq + Hash> KeyedLimiter<K> {
    /// Creates a single-shard limiter whose per-key buckets have `capacity`
    /// and refill at `rate_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TokenBucket::new`].
    pub fn new(capacity: f64, rate_per_sec: f64) -> Self {
        Self::with_shards(capacity, rate_per_sec, 1)
    }

    /// Creates a limiter hash-partitioned into `shards` partitions (rounded
    /// up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TokenBucket::new`].
    pub fn with_shards(capacity: f64, rate_per_sec: f64, shards: usize) -> Self {
        // Validate eagerly so a bad config fails at construction.
        let _ = TokenBucket::new(capacity, rate_per_sec);
        KeyedLimiter {
            capacity,
            rate_per_sec,
            shards: ShardedStore::new(shards, |_| FxHashMap::default()),
        }
    }

    /// Attempts to take one token for `key` at `now`.
    pub fn try_acquire(&mut self, key: K, now: SimTime) -> bool {
        let (capacity, rate) = (self.capacity, self.rate_per_sec);
        let bucket = self.shards.shard_mut(&key).entry(key).or_insert_with(|| {
            let mut b = TokenBucket::new(capacity, rate);
            // A fresh key's bucket starts full *now*, not at epoch.
            b.updated = now;
            b
        });
        bucket.try_acquire(now)
    }

    /// Drops every bucket that has refilled to capacity by `now`, striping
    /// the scan shard by shard.
    ///
    /// A full bucket is indistinguishable from the fresh bucket
    /// [`KeyedLimiter::try_acquire`] would materialize on the key's next
    /// request (fresh buckets start full *at* that request), so eviction is
    /// lossless: grant/deny outcomes are identical with or without it. Under
    /// identity-rotating workloads (fingerprints retired every few hours,
    /// per-request proxy exits) this is what keeps the key map bounded by the
    /// *live* population instead of growing with every identity ever seen.
    pub fn evict_idle(&mut self, now: SimTime) {
        let capacity = self.capacity;
        // fg-analyze: allow(shard-discipline): full-sweep maintenance — idle eviction visits every shard
        for shard in self.shards.shards_mut() {
            shard.retain(|_, b| b.available(now) < capacity);
        }
    }

    /// Number of keys with a materialized bucket, summed over shards.
    pub fn tracked_keys(&self) -> usize {
        self.shards.fold(0, |acc, s| acc + s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn bucket_enforces_burst_and_rate() {
        let mut tb = TokenBucket::new(3.0, 0.5);
        let t0 = SimTime::ZERO;
        assert!(tb.try_acquire(t0));
        assert!(tb.try_acquire(t0));
        assert!(tb.try_acquire(t0));
        assert!(!tb.try_acquire(t0));
        // 0.5 tokens/sec: after 2s exactly one token.
        let t2 = t0 + SimDuration::from_secs(2);
        assert!(tb.try_acquire(t2));
        assert!(!tb.try_acquire(t2));
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let mut tb = TokenBucket::new(2.0, 100.0);
        assert!((tb.available(SimTime::from_days(300)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn acquire_n_takes_bulk() {
        let mut tb = TokenBucket::new(5.0, 0.0);
        assert!(tb.try_acquire_n(SimTime::ZERO, 4.0));
        assert!(!tb.try_acquire_n(SimTime::ZERO, 2.0));
        assert!(tb.try_acquire_n(SimTime::ZERO, 1.0));
    }

    #[test]
    fn zero_rate_bucket_never_refills() {
        let mut tb = TokenBucket::new(1.0, 0.0);
        assert!(tb.try_acquire(SimTime::ZERO));
        assert!(!tb.try_acquire(SimTime::from_days(365)));
    }

    #[test]
    fn keyed_limiter_isolates_keys() {
        let mut l: KeyedLimiter<&str> = KeyedLimiter::new(1.0, 0.0);
        assert!(l.try_acquire("a", SimTime::ZERO));
        assert!(!l.try_acquire("a", SimTime::ZERO));
        assert!(l.try_acquire("b", SimTime::ZERO), "other keys unaffected");
        assert_eq!(l.tracked_keys(), 2);
    }

    #[test]
    fn fresh_key_bucket_starts_full_at_first_use() {
        // A key first seen late must not have accumulated "phantom" refill
        // beyond capacity nor start empty.
        let mut l: KeyedLimiter<&str> = KeyedLimiter::new(2.0, 1.0);
        let late = SimTime::from_days(30);
        assert!(l.try_acquire("k", late));
        assert!(l.try_acquire("k", late));
        assert!(!l.try_acquire("k", late));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn evict_idle_drops_refilled_buckets_only() {
        let mut l: KeyedLimiter<&str> = KeyedLimiter::new(2.0, 0.5);
        assert!(l.try_acquire("idle", SimTime::ZERO));
        assert!(l.try_acquire("busy", SimTime::from_secs(10)));
        assert_eq!(l.tracked_keys(), 2);
        // At t=11s "idle" refilled long ago; "busy" (1.5 tokens) has not.
        l.evict_idle(SimTime::from_secs(11));
        assert_eq!(l.tracked_keys(), 1);
        // At t=12s "busy" is full again and evictable too.
        l.evict_idle(SimTime::from_secs(12));
        assert_eq!(l.tracked_keys(), 0);
    }

    #[test]
    fn eviction_is_lossless_for_outcomes() {
        // The same acquisition sequence against an evicting and a
        // non-evicting limiter grants identically.
        let mut evicting: KeyedLimiter<u32> = KeyedLimiter::new(3.0, 0.5);
        let mut reference: KeyedLimiter<u32> = KeyedLimiter::new(3.0, 0.5);
        let mut now = SimTime::ZERO;
        for step in 0..200u32 {
            now += SimDuration::from_secs(u64::from(step % 7) as i64);
            let key = step % 4;
            assert_eq!(
                evicting.try_acquire(key, now),
                reference.try_acquire(key, now),
                "diverged at step {step}"
            );
            if step % 5 == 0 {
                evicting.evict_idle(now);
            }
        }
        assert!(evicting.tracked_keys() <= reference.tracked_keys());
    }

    #[test]
    fn sharded_limiter_matches_single_shard() {
        // The same acquisition stream through a 4-shard and a 1-shard
        // limiter must grant identically and report identical aggregates —
        // shard count is a layout choice, not a semantics choice.
        let mut sharded: KeyedLimiter<u32> = KeyedLimiter::with_shards(2.0, 0.25, 4);
        let mut flat: KeyedLimiter<u32> = KeyedLimiter::new(2.0, 0.25);
        let mut now = SimTime::ZERO;
        for step in 0..500u32 {
            now += SimDuration::from_secs(i64::from(step % 5));
            let key = step % 17;
            assert_eq!(
                sharded.try_acquire(key, now),
                flat.try_acquire(key, now),
                "diverged at step {step}"
            );
            if step % 11 == 0 {
                sharded.evict_idle(now);
                flat.evict_idle(now);
            }
        }
        assert_eq!(sharded.tracked_keys(), flat.tracked_keys());
    }

    #[test]
    fn shard_partition_is_exhaustive_and_exclusive() {
        // Every key's bucket lives in exactly one shard, and the keys
        // spread over every shard.
        let mut l: KeyedLimiter<u64> = KeyedLimiter::with_shards(1.0, 0.0, 4);
        let keys: Vec<u64> = (0..64).collect();
        for k in &keys {
            assert!(l.try_acquire(*k, SimTime::ZERO));
        }
        for k in &keys {
            let owners = l.shards.fold(0, |n, s| n + usize::from(s.contains_key(k)));
            assert_eq!(owners, 1, "key {k}");
        }
        assert!(l.shards.fold(true, |all, s| all && !s.is_empty()));
        // Each key took its shard's single token; the routed path now
        // rejects every one of them.
        for k in &keys {
            assert!(!l.try_acquire(*k, SimTime::ZERO));
        }
    }

    #[test]
    fn multi_year_horizon_does_not_truncate_token_accounting() {
        // Long-horizon (multi-year sim-time) runs exercise refill arithmetic
        // with elapsed times around 1e8 seconds; the bucket must neither
        // overflow nor phantom-refill beyond capacity, and a key first seen
        // years in still starts at exactly its burst budget.
        let decade = SimTime::from_days(3650);
        let mut tb = TokenBucket::new(4.0, 0.5);
        assert!(
            (tb.available(decade) - 4.0).abs() < 1e-9,
            "capped at capacity"
        );
        assert!(tb.try_acquire(decade));
        assert!((tb.available(decade) - 3.0).abs() < 1e-9);

        let mut l: KeyedLimiter<u32> = KeyedLimiter::new(2.0, 1.0 / 86_400.0);
        assert!(l.try_acquire(7, decade));
        assert!(l.try_acquire(7, decade));
        assert!(!l.try_acquire(7, decade), "no phantom refill from epoch");
        // One more token exactly one refill period later.
        assert!(l.try_acquire(7, decade + SimDuration::from_days(1)));
        assert!(!l.try_acquire(7, decade + SimDuration::from_days(1)));
    }

    proptest! {
        /// Within any single instant, grants never exceed burst capacity.
        #[test]
        fn prop_burst_bound(capacity in 1.0f64..20.0, attempts in 1usize..100) {
            let mut tb = TokenBucket::new(capacity, 0.0);
            let granted = (0..attempts).filter(|_| tb.try_acquire(SimTime::ZERO)).count();
            prop_assert!(granted as f64 <= capacity + 1e-9);
        }

        /// Idle-bucket eviction never changes any grant/deny outcome, no
        /// matter where eviction ticks land in the request stream.
        #[test]
        fn prop_eviction_preserves_outcomes(
            capacity in 1.0f64..5.0,
            rate in 0.0f64..2.0,
            ops in proptest::collection::vec((0u8..6, 0u64..5_000, any::<bool>()), 1..200),
        ) {
            let mut evicting: KeyedLimiter<u8> = KeyedLimiter::new(capacity, rate);
            let mut reference: KeyedLimiter<u8> = KeyedLimiter::new(capacity, rate);
            let mut now = SimTime::ZERO;
            for (key, dt, evict) in ops {
                now += SimDuration::from_secs(dt as i64);
                if evict {
                    evicting.evict_idle(now);
                }
                prop_assert_eq!(
                    evicting.try_acquire(key, now),
                    reference.try_acquire(key, now)
                );
            }
        }

        /// Shard count never changes any grant/deny outcome or aggregate,
        /// for any op stream and any shard count.
        #[test]
        fn prop_shard_count_preserves_outcomes(
            capacity in 1.0f64..5.0,
            rate in 0.0f64..2.0,
            shards in 1usize..9,
            ops in proptest::collection::vec((0u8..12, 0u64..5_000, any::<bool>()), 1..200),
        ) {
            let mut sharded: KeyedLimiter<u8> = KeyedLimiter::with_shards(capacity, rate, shards);
            let mut flat: KeyedLimiter<u8> = KeyedLimiter::new(capacity, rate);
            let mut now = SimTime::ZERO;
            for (key, dt, evict) in ops {
                now += SimDuration::from_secs(dt as i64);
                if evict {
                    sharded.evict_idle(now);
                    flat.evict_idle(now);
                }
                prop_assert_eq!(
                    sharded.try_acquire(key, now),
                    flat.try_acquire(key, now)
                );
            }
            prop_assert_eq!(sharded.tracked_keys(), flat.tracked_keys());
        }

        /// Over a long horizon, grants never exceed burst + rate × time.
        #[test]
        fn prop_long_run_rate_bound(
            rate in 0.1f64..5.0,
            steps in proptest::collection::vec(1u64..100, 1..100),
        ) {
            let mut tb = TokenBucket::new(3.0, rate);
            let mut now = SimTime::ZERO;
            let mut granted = 0u64;
            for dt in steps {
                now += SimDuration::from_secs(dt as i64);
                while tb.try_acquire(now) {
                    granted += 1;
                }
            }
            let bound = 3.0 + rate * now.as_secs() as f64;
            prop_assert!(granted as f64 <= bound + 1e-6, "granted {granted} > bound {bound}");
        }
    }
}
