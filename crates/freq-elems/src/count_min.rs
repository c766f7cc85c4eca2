//! The Count-Min Sketch (Cormode & Muthukrishnan, 2003): a counter core,
//! and the heavy-hitter estimator built on it.
//!
//! [`CountMinCore`] is the sketch proper: a `depth × width` array of
//! counters with one hash function per row. Each observation increments
//! one counter per row, and the estimate is the row minimum. Estimates
//! never under-count; the over-count is at most `e/width · W` with
//! probability `1 − e^{-depth}` per query. A key is hashed once into its
//! [`Slots`], one counter index per row, and the core counts, estimates
//! and discounts at those indices, so an event that does all three hashes
//! its key once.
//!
//! [`CountMinSketch`] is the [`FrequencyEstimator`]: the core plus a
//! bounded heavy-hitter candidate set. A sketch cannot enumerate its keys,
//! so heavy-hitter queries are served from candidates kept alongside it
//! (the classic "CMS + heap" construction). Trackers that only count and
//! estimate, such as CoMeT and BlockHammer in `mitigations`, hold the core
//! alone.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::traits::FrequencyEstimator;

/// Most hash rows a sketch may have. [`Slots`] keeps one index per row
/// inline, so hashing a key never allocates.
pub const MAX_DEPTH: usize = 8;

/// A key's counter indices, one per sketch row, as offsets into
/// [`CountMinCore::counters`]. They depend only on the key and the
/// sketch's `depth × width` shape, so they serve every core of that shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    depth: usize,
    at: [usize; MAX_DEPTH],
}

impl Slots {
    /// The indices, sketch row 0 first.
    fn as_slice(&self) -> &[usize] {
        &self.at[..self.depth]
    }
}

/// The counter array of a Count-Min Sketch and its hash family.
///
/// Row `r` hashes a key with `std`'s `DefaultHasher` over the seed
/// `r · 0x9E37_79B9_7F4A_7C15` and then the key, taken modulo `width`.
///
/// # Example
///
/// ```
/// use freq_elems::CountMinCore;
///
/// let mut core = CountMinCore::new(4, 256);
/// let hot = core.slots(&"hot");
/// for _ in 0..100 {
///     core.add(&hot);
/// }
/// assert!(core.estimate(&hot) >= 100); // never under-counts
/// core.discount(&hot, 100);
/// assert_eq!(core.estimate(&hot), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinCore {
    depth: usize,
    width: usize,
    counters: Vec<u64>,
    stream_len: u64,
}

impl CountMinCore {
    /// Creates a sketch with `depth` rows of `width` counters each.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `depth` exceeds [`MAX_DEPTH`].
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth > 0 && width > 0, "sketch dimensions must be positive");
        assert!(depth <= MAX_DEPTH, "sketch depth {depth} exceeds {MAX_DEPTH}");
        CountMinCore { depth, width, counters: vec![0; depth * width], stream_len: 0 }
    }

    /// Sketch depth (number of hash rows).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Sketch width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total counter bits the sketch would occupy in hardware, assuming
    /// `bits_per_counter` wide counters (for the area models).
    pub fn table_bits(&self, bits_per_counter: u32) -> u64 {
        self.counters.len() as u64 * u64::from(bits_per_counter)
    }

    /// Hashes `key` once into its counter index in every sketch row.
    pub fn slots<K: Hash + ?Sized>(&self, key: &K) -> Slots {
        let mut at = [0; MAX_DEPTH];
        for (row, slot) in at[..self.depth].iter_mut().enumerate() {
            let mut h = DefaultHasher::new();
            // Mix a per-row seed so rows behave as independent hash functions.
            (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).hash(&mut h);
            key.hash(&mut h);
            *slot = row * self.width + (h.finish() as usize % self.width);
        }
        Slots { depth: self.depth, at }
    }

    /// Counts one occurrence of the key hashed into `slots`.
    pub fn add(&mut self, slots: &Slots) {
        self.stream_len += 1;
        for &i in slots.as_slice() {
            self.counters[i] += 1;
        }
    }

    /// The estimate of the key hashed into `slots`: the minimum of its
    /// counters.
    pub fn estimate(&self, slots: &Slots) -> u64 {
        slots.as_slice().iter().map(|&i| self.counters[i]).min().unwrap_or(0)
    }

    /// Subtracts up to `amount` from each of the key's `depth` counters
    /// (saturating at zero) — the counter reset a sketch-based Row Hammer
    /// tracker (CoMeT) applies after mitigating a row, so the sketch tracks
    /// activations *since the last mitigation* rather than forever.
    ///
    /// This deliberately trades away the global overestimate guarantee:
    /// a key colliding with the discounted key in **all** `depth` rows can
    /// afterwards be under-estimated. That full-collision probability,
    /// `≈ width^{-depth}` per key pair, is exactly the bounded
    /// false-negative term of such trackers.
    pub fn discount(&mut self, slots: &Slots, amount: u64) {
        for &i in slots.as_slice() {
            self.counters[i] = self.counters[i].saturating_sub(amount);
        }
    }

    /// Flips bit `bit % 64` of counter `slot % (depth · width)` in place:
    /// a tracker-SRAM bit flip, for fault injection.
    pub fn flip_bit(&mut self, slot: usize, bit: u32) {
        let i = slot % self.counters.len();
        self.counters[i] ^= 1 << (bit % 64);
    }

    /// Occurrences counted since construction or the last
    /// [`clear`](Self::clear).
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// The raw counter array in row-major order (`depth × width`), for
    /// checkpointing a sketch-backed tracker. Estimates are a pure function
    /// of this array, so exporting and re-importing it reproduces every
    /// future estimate exactly.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Overwrites the counter array and stream length from a checkpoint
    /// taken with [`counters`](Self::counters) /
    /// [`stream_len`](Self::stream_len).
    ///
    /// # Errors
    ///
    /// Returns an error if `counters` does not match this sketch's
    /// `depth × width` layout.
    pub fn restore_counters(&mut self, counters: &[u64], stream_len: u64) -> Result<(), String> {
        if counters.len() != self.counters.len() {
            return Err(format!(
                "counter lane length {} does not match sketch {}x{}",
                counters.len(),
                self.depth(),
                self.width
            ));
        }
        self.counters.copy_from_slice(counters);
        self.stream_len = stream_len;
        Ok(())
    }

    /// Zeroes every counter and the stream length.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.stream_len = 0;
    }
}

/// Count-Min Sketch with a bounded heavy-hitter candidate set: the
/// [`FrequencyEstimator`] over a [`CountMinCore`].
///
/// # Example
///
/// ```
/// use freq_elems::{CountMinSketch, FrequencyEstimator};
///
/// let mut cms = CountMinSketch::new(4, 256, 16);
/// for _ in 0..100 {
///     cms.observe("hot");
/// }
/// assert!(cms.estimate(&"hot") >= 100); // never under-counts
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch<K> {
    core: CountMinCore,
    /// Bounded candidate set for heavy-hitter queries.
    candidates: HashMap<K, u64>,
    candidate_capacity: usize,
}

impl<K: Eq + Hash + Clone> CountMinSketch<K> {
    /// Creates a sketch with `depth` rows of `width` counters each, keeping
    /// up to `candidate_capacity` heavy-hitter candidates.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `depth` exceeds [`MAX_DEPTH`].
    pub fn new(depth: usize, width: usize, candidate_capacity: usize) -> Self {
        assert!(candidate_capacity > 0, "candidate capacity must be positive");
        CountMinSketch {
            core: CountMinCore::new(depth, width),
            candidates: HashMap::with_capacity(candidate_capacity),
            candidate_capacity,
        }
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for CountMinSketch<K> {
    fn observe(&mut self, key: K) {
        let slots = self.core.slots(&key);
        self.core.add(&slots);
        let est = self.core.estimate(&slots);
        // Maintain the candidate set: insert/update, evict the minimum when
        // over capacity.
        if let Some(c) = self.candidates.get_mut(&key) {
            *c = est;
        } else if self.candidates.len() < self.candidate_capacity {
            self.candidates.insert(key, est);
        } else {
            let (min_key, min_est) = self
                .candidates
                .iter()
                .min_by_key(|&(_, &v)| v)
                .map(|(k, &v)| (k.clone(), v))
                .expect("candidate set is full, hence non-empty");
            if est > min_est {
                self.candidates.remove(&min_key);
                self.candidates.insert(key, est);
            }
        }
    }

    fn estimate(&self, key: &K) -> u64 {
        self.core.estimate(&self.core.slots(key))
    }

    fn stream_len(&self) -> u64 {
        self.core.stream_len()
    }

    fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .candidates
            .keys()
            .map(|k| (k.clone(), self.estimate(k)))
            .filter(|&(_, c)| c >= threshold)
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn reset(&mut self) {
        self.core.clear();
        self.candidates.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn never_underestimates() {
        let stream: Vec<u32> = (0..5000).map(|i| (i * 193) % 300).collect();
        let mut cms = CountMinSketch::new(4, 512, 32);
        let mut actual = HashMap::new();
        for &x in &stream {
            cms.observe(x);
            *actual.entry(x).or_insert(0u64) += 1;
        }
        for (k, &a) in &actual {
            assert!(cms.estimate(k) >= a, "key {k}");
        }
    }

    #[test]
    fn wide_sketch_is_accurate_on_skewed_stream() {
        let mut cms = CountMinSketch::new(4, 4096, 16);
        for _ in 0..10_000 {
            cms.observe(1u32);
        }
        for i in 0..100u32 {
            cms.observe(i + 10);
        }
        let e = cms.estimate(&1);
        assert!((10_000..=10_100).contains(&e), "estimate {e}");
    }

    #[test]
    fn heavy_hitters_found_via_candidates() {
        let mut cms = CountMinSketch::new(4, 1024, 8);
        for i in 0..2000u32 {
            cms.observe(7);
            cms.observe(i + 100);
        }
        let hh = cms.heavy_hitters(1000);
        assert!(hh.iter().any(|(k, _)| *k == 7));
    }

    #[test]
    fn candidate_set_bounded() {
        let mut cms = CountMinSketch::new(2, 64, 4);
        for i in 0..1000u32 {
            cms.observe(i);
        }
        assert!(cms.candidates.len() <= 4);
    }

    #[test]
    fn estimate_unknown_key_can_be_nonzero_but_bounded() {
        let mut cms = CountMinSketch::new(4, 2048, 8);
        for i in 0..1000u32 {
            cms.observe(i);
        }
        // e/width · W ≈ 2.718/2048 · 1000 ≈ 1.3; allow generous slack.
        assert!(cms.estimate(&999_999) <= 10);
    }

    #[test]
    fn reset_clears() {
        let mut cms = CountMinSketch::new(2, 32, 4);
        cms.observe(1u32);
        cms.reset();
        assert_eq!(cms.stream_len(), 0);
        assert_eq!(cms.estimate(&1), 0);
    }

    #[test]
    fn table_bits_product() {
        let core = CountMinCore::new(4, 256);
        assert_eq!(core.table_bits(16), 4 * 256 * 16);
    }

    /// Every CoMeT and BlockHammer number depends on these indices, and
    /// `std` documents `DefaultHasher`'s algorithm as unspecified between
    /// releases: a toolchain or refactor that moves them fails here, not
    /// as an unexplained diff in the sweep CSVs.
    #[test]
    fn hash_recipe_is_pinned() {
        const KEYS: [u32; 5] = [0, 1, 40, 1_000, 65_535];
        // Counter column per sketch row for each key: CoMeT's 4 × 512
        // sketch, then BlockHammer's 4 × 1024 filters.
        let comet = [
            [223, 479, 170, 78],
            [41, 284, 76, 23],
            [271, 212, 397, 410],
            [32, 334, 147, 393],
            [476, 392, 338, 249],
        ];
        let blockhammer = [
            [223, 479, 682, 590],
            [41, 796, 588, 23],
            [783, 212, 397, 922],
            [544, 846, 147, 393],
            [988, 392, 850, 249],
        ];
        for (width, golden) in [(512, comet), (1_024, blockhammer)] {
            let core = CountMinCore::new(4, width);
            for (key, columns) in KEYS.iter().zip(golden) {
                let want: Vec<usize> =
                    columns.iter().enumerate().map(|(row, c)| row * width + c).collect();
                assert_eq!(core.slots(key).as_slice(), want, "key {key}, width {width}");
            }
        }
    }

    #[test]
    fn one_hash_serves_count_estimate_and_discount() {
        let mut core = CountMinCore::new(3, 64);
        let slots = core.slots(&9u32);
        for _ in 0..10 {
            core.add(&slots);
        }
        assert_eq!(core.estimate(&slots), 10);
        assert_eq!(core.stream_len(), 10);
        core.discount(&slots, 4);
        assert_eq!(core.estimate(&slots), 6);
        // Slots depend only on the shape, so another core of the same shape
        // counts the key at the same indices.
        let mut other = CountMinCore::new(3, 64);
        other.add(&slots);
        assert_eq!(other.estimate(&other.slots(&9u32)), 1);
    }

    #[test]
    fn counter_checkpoint_reproduces_estimates() {
        let mut core = CountMinCore::new(4, 128);
        for i in 0..5_000u32 {
            core.add(&core.slots(&(i % 37)));
        }
        let lane: Vec<u64> = core.counters().to_vec();
        let len = core.stream_len();
        let mut fresh = CountMinCore::new(4, 128);
        fresh.restore_counters(&lane, len).unwrap();
        for k in 0..64u32 {
            let slots = core.slots(&k);
            assert_eq!(fresh.estimate(&slots), core.estimate(&slots), "key {k}");
        }
        assert_eq!(fresh.stream_len(), len);
    }

    #[test]
    fn counter_checkpoint_rejects_wrong_shape() {
        let mut core = CountMinCore::new(2, 64);
        assert!(core.restore_counters(&[0; 3], 0).is_err());
    }
}

/// Differential property suite: the sketch against an exact `HashMap`
/// reference. CoMeT's no-false-negative argument rests on the
/// overestimate-only invariant, so it is pinned here over arbitrary
/// streams, not just the handwritten cases above.
#[cfg(test)]
mod differential_props {
    use super::*;
    use prop::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Exact reference counts for a stream.
    fn exact(stream: &[u32]) -> HashMap<u32, u64> {
        let mut m = HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0u64) += 1;
        }
        m
    }

    proptest! {
        /// Overestimate-only: for every key of every stream, the sketch
        /// estimate is ≥ the true count — the invariant that makes a
        /// CMS-triggered refresh *early*, never *late*.
        #[test]
        fn estimate_never_below_true_count(
            stream in vec(0u32..500, 1..2_000),
            depth in 1usize..6,
            width_pow in 4u32..10,
        ) {
            let width = 1usize << width_pow;
            let mut cms = CountMinSketch::new(depth, width, 8);
            for &x in &stream {
                cms.observe(x);
            }
            for (k, &true_count) in &exact(&stream) {
                prop_assert!(
                    cms.estimate(k) >= true_count,
                    "key {k}: estimate {} < true {true_count} (depth {depth}, width {width})",
                    cms.estimate(k)
                );
            }
            prop_assert_eq!(cms.stream_len(), stream.len() as u64);
        }

        /// ε/δ bound: per row, a counter holds its key's count plus
        /// colliding traffic, so the overcount of any single key is at most
        /// the stream length; and with the standard CMS analysis the
        /// overcount stays within `e/width · W` for at least a
        /// `1 − e^{-depth}` fraction of keys. Hashing is deterministic here
        /// (no seeds), so we assert the aggregate bound with slack rather
        /// than the per-query probability.
        #[test]
        fn overcount_obeys_epsilon_delta_bound(
            stream in vec(0u32..200, 100..1_500),
            depth in 2usize..5,
        ) {
            let width = 256usize;
            let mut cms = CountMinSketch::new(depth, width, 8);
            for &x in &stream {
                cms.observe(x);
            }
            let w = stream.len() as u64;
            let eps_bound = (std::f64::consts::E / width as f64) * w as f64;
            let reference = exact(&stream);
            let mut within = 0usize;
            for (k, &true_count) in &reference {
                let over = cms.estimate(k) - true_count; // ≥ 0 by the invariant
                // Hard cap: no key can overcount past the whole stream.
                prop_assert!(over <= w);
                if (over as f64) <= eps_bound.max(1.0) {
                    within += 1;
                }
            }
            // δ = e^{-depth} per query; demand the empirical failure rate
            // stays within 3× the analytic δ (slack for the deterministic
            // hash family and small key sets).
            let delta = (-(depth as f64)).exp();
            let allowed = ((reference.len() as f64) * delta * 3.0).ceil() as usize + 1;
            let failures = reference.len() - within;
            prop_assert!(
                failures <= allowed,
                "{failures}/{} keys past e/width·W = {eps_bound:.1} (allowed {allowed})",
                reference.len()
            );
        }

        /// The checkpoint lane round-trips estimates over arbitrary streams.
        #[test]
        fn checkpoint_lane_round_trips(stream in vec(0u32..300, 1..800)) {
            let mut core = CountMinCore::new(3, 64);
            for &x in &stream {
                core.add(&core.slots(&x));
            }
            let mut fresh = CountMinCore::new(3, 64);
            fresh.restore_counters(core.counters(), core.stream_len()).unwrap();
            for k in 0..300u32 {
                let slots = core.slots(&k);
                prop_assert_eq!(fresh.estimate(&slots), core.estimate(&slots));
            }
        }
    }
}
