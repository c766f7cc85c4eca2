//! A deterministic Zipf sampler over `0..n`.
//!
//! Row popularity in real workloads is heavy-tailed; the SPEC-like proxies
//! use a Zipf(α) distribution over their row footprint. The sampler
//! precomputes the CDF once and draws by binary search, so sampling is
//! O(log n) with no rejection.

use rand::Rng;

/// Zipf(α) distribution over `{0, 1, …, n−1}` (rank 0 is the most popular).
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use workloads::Zipf;
///
/// let z = Zipf::new(1000, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    alpha: f64,
}

impl Zipf {
    /// Builds the distribution for `n` items with exponent `alpha ≥ 0`
    /// (`alpha = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(alpha);
            cdf.push(total);
        }
        // Normalize.
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf, alpha }
    }

    /// The exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution covers no items. Always `false` in practice
    /// — [`Zipf::new`] rejects `n == 0` — but derived honestly from the
    /// stored CDF so the answer cannot drift from [`Zipf::len`].
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    ///
    /// Ranks outside the support (`k ≥ len()`) have zero mass and return
    /// `0.0` rather than panicking, so callers may probe arbitrary ranks.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            0.0
        } else if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_increases_with_alpha() {
        let z1 = Zipf::new(100, 0.8);
        let z2 = Zipf::new(100, 1.5);
        assert!(z2.pmf(0) > z1.pmf(0));
        assert!(z2.pmf(99) < z1.pmf(99));
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(57, 1.1);
        let sum: f64 = (0..57).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut counts = [0u64; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!((freq - z.pmf(k)).abs() < 0.01, "rank {k}: {freq} vs {}", z.pmf(k));
        }
    }

    #[test]
    fn sample_always_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn never_empty_and_len_consistent() {
        let z = Zipf::new(7, 1.0);
        assert!(!z.is_empty());
        assert_eq!(z.len(), 7);
    }

    #[test]
    fn pmf_out_of_support_is_zero() {
        // Regression: `pmf(len())` used to panic on a raw index.
        let z = Zipf::new(5, 1.2);
        assert_eq!(z.pmf(5), 0.0);
        assert_eq!(z.pmf(usize::MAX), 0.0);
        assert!(z.pmf(4) > 0.0);
    }
}
