//! Weighted categorical distribution with deterministic sampling.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A finite categorical distribution over items of type `T`.
///
/// Weights need not be normalized. Sampling walks the cumulative weights,
/// which keeps behaviour bit-identical across platforms (no float summation
/// ordering surprises as long as insertion order is fixed).
///
/// # Example
///
/// ```
/// use fg_core::stats::Categorical;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // A typical-week Number-in-Party distribution: most bookings are 1–2 pax.
/// let nip = Categorical::new(vec![(1usize, 55.0), (2, 30.0), (3, 8.0), (4, 7.0)])?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let draw = nip.sample(&mut rng);
/// assert!((1..=4).contains(draw));
/// # Ok::<(), fg_core::stats::CategoricalError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Categorical<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
    total: f64,
}

/// Error returned when constructing a [`Categorical`] from invalid weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CategoricalError {
    /// No items were supplied.
    Empty,
    /// A weight was negative, NaN, or infinite.
    InvalidWeight,
    /// All weights were zero.
    ZeroTotal,
}

impl std::fmt::Display for CategoricalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CategoricalError::Empty => {
                write!(f, "categorical distribution needs at least one item")
            }
            CategoricalError::InvalidWeight => {
                write!(f, "weights must be finite and non-negative")
            }
            CategoricalError::ZeroTotal => write!(f, "at least one weight must be positive"),
        }
    }
}

impl std::error::Error for CategoricalError {}

impl<T> Categorical<T> {
    /// Builds a distribution from `(item, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if no items are given, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(pairs: Vec<(T, f64)>) -> Result<Self, CategoricalError> {
        if pairs.is_empty() {
            return Err(CategoricalError::Empty);
        }
        let mut items = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (item, w) in pairs {
            if !w.is_finite() || w < 0.0 {
                return Err(CategoricalError::InvalidWeight);
            }
            acc += w;
            items.push(item);
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return Err(CategoricalError::ZeroTotal);
        }
        Ok(Categorical {
            items,
            cumulative,
            total: acc,
        })
    }

    /// Draws one item by reference.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let x = rng.gen_range(0.0..self.total);
        // partition_point finds the first cumulative weight > x.
        let idx = self.cumulative.partition_point(|&c| c <= x);
        // x < total == last cumulative entry, so idx is always in range.
        &self.items[idx.min(self.items.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            Categorical::<u8>::new(vec![]).unwrap_err(),
            CategoricalError::Empty
        );
        assert_eq!(
            Categorical::new(vec![(1, -1.0)]).unwrap_err(),
            CategoricalError::InvalidWeight
        );
        assert_eq!(
            Categorical::new(vec![(1, f64::NAN)]).unwrap_err(),
            CategoricalError::InvalidWeight
        );
        assert_eq!(
            Categorical::new(vec![(1, 0.0), (2, 0.0)]).unwrap_err(),
            CategoricalError::ZeroTotal
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Categorical::new(vec![(1, 1.0), (2, 1.0), (3, 1.0)]).unwrap();
        let draws = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| *d.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
    }

    #[test]
    fn sampling_respects_weights_empirically() {
        let d = Categorical::new(vec![(0usize, 9.0), (1, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let ones = (0..n).filter(|_| *d.sample(&mut rng) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn zero_weight_items_never_sampled() {
        let d = Categorical::new(vec![("never", 0.0), ("always", 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert_eq!(*d.sample(&mut rng), "always");
        }
    }
}
