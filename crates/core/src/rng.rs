//! Deterministic randomness plumbing.
//!
//! A simulation run is reproducible iff every stochastic decision is derived
//! from the run's master seed. [`SeedFork`] derives independent child seeds
//! from a parent seed and a label, so that adding a new consumer of
//! randomness in one subsystem does not perturb the stream seen by another
//! (the classic "seed hygiene" problem in discrete-event simulators).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, labelled child seeds from a master seed.
///
/// Internally this is a tiny SplitMix64-style mixer over the parent seed and
/// a label hash — not cryptographic, but well-distributed, stable across
/// platforms, and dependency-free.
///
/// # Example
///
/// ```
/// use fg_core::rng::SeedFork;
///
/// let fork = SeedFork::new(42);
/// let workload_rng = fork.rng("workload");
/// let attacker_rng = fork.rng("attacker");
/// // Streams are independent: reordering draws in one never affects the other.
/// # let _ = (workload_rng, attacker_rng);
/// assert_ne!(fork.seed("workload"), fork.seed("attacker"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedFork {
    master: u64,
}

impl SeedFork {
    /// Creates a fork rooted at `master`.
    pub const fn new(master: u64) -> Self {
        SeedFork { master }
    }

    /// Derives the child seed for `label`.
    pub fn seed(self, label: &str) -> u64 {
        let mut h = self.master ^ 0x9E37_79B9_7F4A_7C15;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = splitmix64(h);
        }
        splitmix64(h)
    }

    /// Derives the child seed for a `(label, index)` pair, for per-entity
    /// streams (e.g. one stream per bot).
    pub fn seed_indexed(self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed(label) ^ splitmix64(index ^ 0xD1B5_4A32_D192_ED03))
    }

    /// A ready-to-use [`StdRng`] for `label`.
    pub fn rng(self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed(label))
    }

    /// A ready-to-use [`StdRng`] for a `(label, index)` pair.
    pub fn rng_indexed(self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_indexed(label, index))
    }
}

/// SplitMix64 finalizer. Public within the crate family because the
/// fingerprint sampler reuses it to hash attribute tuples deterministically.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn labels_give_distinct_seeds() {
        let f = SeedFork::new(1);
        assert_ne!(f.seed("a"), f.seed("b"));
        assert_ne!(f.seed("ab"), f.seed("ba"));
    }

    #[test]
    fn same_label_same_seed() {
        let f = SeedFork::new(7);
        assert_eq!(f.seed("x"), f.seed("x"));
        assert_eq!(f.seed_indexed("x", 3), f.seed_indexed("x", 3));
        assert_ne!(f.seed_indexed("x", 3), f.seed_indexed("x", 4));
    }

    #[test]
    fn different_masters_diverge() {
        assert_ne!(SeedFork::new(1).seed("x"), SeedFork::new(2).seed("x"));
    }

    #[test]
    fn rng_streams_reproducible() {
        let f = SeedFork::new(99);
        let a: u64 = f.rng("stream").gen();
        let b: u64 = f.rng("stream").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn splitmix_spreads_bits() {
        // Consecutive inputs should not produce consecutive outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1_000_000);
    }
}
