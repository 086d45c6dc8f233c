//! Hash partitioning for keyed defence state.
//!
//! The defence stack's keyed stores (rate-limiter buckets, velocity windows,
//! reputation evidence, fingerprint populations) have one writer: the
//! deterministic simulation replays one request at a time, and fg-serve
//! decides under one lock. Each store may still be split into `2^n`
//! *shards*, hash-partitioned by key: every key deterministically owns
//! exactly one shard, a lookup touches only that shard, and housekeeping
//! (`evict_idle`/`compact`/`purge_below`) sweeps the shards one by one in
//! index order. The experiments' `--shards` and fg-serve's `shards` setting
//! pick the count; no decision or artifact depends on it.
//!
//! Two properties make the partitioning safe for the reproduction harness:
//!
//! * **Shard-count independence of aggregates.** Summing per-shard counters
//!   (tracked keys, evidence entries) in shard-index order is
//!   order-insensitive for the integer totals the telemetry layer exports,
//!   so a 4-shard store replayed single-threaded reports byte-identical
//!   results to a 1-shard store (guarded by
//!   `scenario/tests/shard_independence.rs`).
//! * **Bit-identical single-shard path.** With `shards == 1` the mask is
//!   zero, every key maps to shard 0, and the store *is* the pre-sharding
//!   flat map — experiments keep their committed artifacts.
//!
//! The shard index is derived from the key's [`FxHasher`] hash, finalised
//! through [`splitmix64`]: Fx alone leaves the low bits weak for small
//! integer keys, and the shard mask keys off exactly those bits.
//!
//! # Example
//!
//! ```
//! use fg_core::shard::ShardedStore;
//!
//! let mut store: ShardedStore<u64, Vec<u64>> = ShardedStore::new(4, |_| Vec::new());
//! assert_eq!(store.shards_mut().len(), 4);
//! for key in 0..100u64 {
//!     store.shard_mut(&key).push(key);
//! }
//! let total = store.fold(0, |n, shard| n + shard.len());
//! assert_eq!(total, 100);
//! // A key's shard is stable: re-lookup finds what was stored.
//! assert!(store.shard(&7).contains(&7));
//! ```

use crate::hash::FxHasher;
use crate::rng::splitmix64;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// How a `DefendedApp` (and the keyed stores beneath it) partitions state.
///
/// `Deterministic` is the reproduction default: one shard, bit-identical to
/// the pre-sharding code path. `Sharded` hash-partitions every keyed store
/// into `shards` (rounded up to a power of two), so housekeeping stripes
/// per shard. Either way the store has one writer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConcurrencyMode {
    /// Single-shard, single-writer: the experiment-grade deterministic path.
    #[default]
    Deterministic,
    /// Hash-partitioned keyed state with `shards` partitions per store.
    Sharded {
        /// Requested shard count; rounded up to a power of two, minimum 1.
        shards: usize,
    },
}

impl ConcurrencyMode {
    /// Builds the mode implied by a shard count: `<= 1` is deterministic.
    pub fn from_shards(shards: usize) -> Self {
        if shards <= 1 {
            ConcurrencyMode::Deterministic
        } else {
            ConcurrencyMode::Sharded { shards }
        }
    }

    /// The effective shard count (power of two, at least 1).
    pub fn shard_count(self) -> usize {
        match self {
            ConcurrencyMode::Deterministic => 1,
            ConcurrencyMode::Sharded { shards } => shards.max(1).next_power_of_two(),
        }
    }
}

/// A keyed store split into `2^n` hash-partitioned shards.
///
/// `V` is the per-shard sub-store (a map of buckets, a map of sliding
/// windows, …); `K` is the key type whose hash picks the shard. The store
/// owns routing only — sub-store semantics live in `V`.
#[derive(Clone, Debug)]
pub struct ShardedStore<K, V> {
    shards: Vec<V>,
    mask: u64,
    // `fn(&K)` keeps the store covariant-free and `Send`/`Sync` independent
    // of `K` while still tying `shard_index` to one key type.
    _key: PhantomData<fn(&K)>,
}

impl<K: Hash, V> ShardedStore<K, V> {
    /// Creates a store with `shards` partitions (rounded up to a power of
    /// two, minimum 1), building each shard with `mk(shard_index)`.
    pub fn new(shards: usize, mk: impl FnMut(usize) -> V) -> Self {
        let count = shards.max(1).next_power_of_two();
        ShardedStore {
            shards: (0..count).map(mk).collect(),
            mask: (count - 1) as u64,
            _key: PhantomData,
        }
    }

    /// The shard index owning `key` — a pure function of the key and the
    /// shard count, identical across runs and processes.
    #[inline]
    fn shard_index(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (splitmix64(h.finish()) & self.mask) as usize
    }

    /// The shard owning `key`.
    #[inline]
    pub fn shard(&self, key: &K) -> &V {
        &self.shards[self.shard_index(key)]
    }

    /// Mutable access to the shard owning `key`.
    #[inline]
    pub fn shard_mut(&mut self, key: &K) -> &mut V {
        let idx = self.shard_index(key);
        &mut self.shards[idx]
    }

    /// All shards, mutably, in index order — for full-sweep maintenance
    /// (idle eviction, compaction, decay purges) that visits every shard.
    /// Per-key access goes through [`ShardedStore::shard_mut`].
    pub fn shards_mut(&mut self) -> &mut [V] {
        &mut self.shards
    }

    /// Folds `f` over all shards in index order.
    pub fn fold<T>(&self, init: T, f: impl FnMut(T, &V) -> T) -> T {
        self.shards.iter().fold(init, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_round_to_powers_of_two() {
        for (requested, effective) in [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16)] {
            let s: ShardedStore<u64, ()> = ShardedStore::new(requested, |_| ());
            assert_eq!(s.shards.len(), effective, "requested {requested}");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let s: ShardedStore<u64, ()> = ShardedStore::new(1, |_| ());
        for key in 0..1000u64 {
            assert_eq!(s.shard_index(&key), 0);
        }
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let s: ShardedStore<u64, ()> = ShardedStore::new(8, |_| ());
        for key in 0..1000u64 {
            let idx = s.shard_index(&key);
            assert!(idx < 8);
            assert_eq!(idx, s.shard_index(&key), "must be a pure function");
        }
    }

    #[test]
    fn small_integer_keys_spread_across_shards() {
        // Fx alone leaves low bits weak for sequential integers; the
        // splitmix64 finaliser must spread them so no shard is starved.
        let s: ShardedStore<u64, ()> = ShardedStore::new(8, |_| ());
        let mut hist = [0usize; 8];
        for key in 0..8000u64 {
            hist[s.shard_index(&key)] += 1;
        }
        for (i, &n) in hist.iter().enumerate() {
            assert!(
                (500..=1500).contains(&n),
                "shard {i} got {n} of 8000 keys — partition is badly skewed"
            );
        }
    }

    #[test]
    fn shard_mut_and_shard_agree() {
        let mut s: ShardedStore<&str, Vec<&'static str>> = ShardedStore::new(4, |_| Vec::new());
        s.shard_mut(&"booking-X").push("evidence");
        assert_eq!(s.shard(&"booking-X").len(), 1);
        let total: usize = s.fold(0, |acc, v| acc + v.len());
        assert_eq!(total, 1);
    }

    #[test]
    fn mk_sees_shard_indices_in_order() {
        let s: ShardedStore<u64, usize> = ShardedStore::new(4, |i| i);
        assert_eq!(s.shards, [0, 1, 2, 3]);
    }

    #[test]
    fn concurrency_mode_shard_counts() {
        assert_eq!(ConcurrencyMode::Deterministic.shard_count(), 1);
        assert_eq!(ConcurrencyMode::Sharded { shards: 6 }.shard_count(), 8);
        assert_eq!(
            ConcurrencyMode::from_shards(1),
            ConcurrencyMode::Deterministic
        );
        assert_eq!(
            ConcurrencyMode::from_shards(4),
            ConcurrencyMode::Sharded { shards: 4 }
        );
        assert_eq!(ConcurrencyMode::default(), ConcurrencyMode::Deterministic);
    }
}
