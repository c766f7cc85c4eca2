//! The Count-Min Sketch (Cormode & Muthukrishnan, 2003), with the standard
//! heavy-hitter candidate heap.
//!
//! A `depth × width` array of counters with one hash function per row; each
//! observation increments one counter per row, and the estimate is the row
//! minimum. Estimates never under-count; the over-count is at most
//! `e/width · W` with probability `1 − e^{-depth}` per query.
//!
//! Because a sketch cannot enumerate its keys, heavy-hitter queries are
//! served from a bounded candidate set maintained alongside the sketch (the
//! classic "CMS + heap" construction).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::traits::FrequencyEstimator;

/// Count-Min Sketch with a bounded heavy-hitter candidate set.
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
    depth: usize,
    width: usize,
    counters: Vec<u64>,
    /// Bounded candidate set for heavy-hitter queries.
    candidates: HashMap<K, u64>,
    candidate_capacity: usize,
    stream_len: u64,
}

impl<K: Eq + Hash + Clone> CountMinSketch<K> {
    /// Creates a sketch with `depth` rows of `width` counters each, keeping
    /// up to `candidate_capacity` heavy-hitter candidates.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(depth: usize, width: usize, candidate_capacity: usize) -> Self {
        assert!(depth > 0 && width > 0, "sketch dimensions must be positive");
        assert!(candidate_capacity > 0, "candidate capacity must be positive");
        CountMinSketch {
            depth,
            width,
            counters: vec![0; depth * width],
            candidates: HashMap::with_capacity(candidate_capacity),
            candidate_capacity,
            stream_len: 0,
        }
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
    /// `bits_per_counter` wide counters (for the area ablation).
    pub fn table_bits(&self, bits_per_counter: u32) -> u64 {
        (self.depth * self.width) as u64 * u64::from(bits_per_counter)
    }

    fn index(&self, row: usize, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        // Mix a per-row seed so rows behave as independent hash functions.
        (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).hash(&mut h);
        key.hash(&mut h);
        row * self.width + (h.finish() as usize % self.width)
    }

    fn sketch_estimate(&self, key: &K) -> u64 {
        (0..self.depth).map(|r| self.counters[self.index(r, key)]).min().unwrap_or(0)
    }

    /// Subtracts up to `amount` from each of `key`'s `depth` counters
    /// (saturating at zero) — the counter reset a sketch-based Row Hammer
    /// tracker (CoMeT) applies after mitigating a row, so the sketch tracks
    /// activations *since the last mitigation* rather than forever.
    ///
    /// This deliberately trades away the global overestimate guarantee:
    /// a key colliding with the discounted key in **all** `depth` rows can
    /// afterwards be under-estimated. That full-collision probability,
    /// `≈ width^{-depth}` per key pair, is exactly the bounded
    /// false-negative term of such trackers.
    pub fn discount(&mut self, key: &K, amount: u64) {
        for r in 0..self.depth {
            let i = self.index(r, key);
            self.counters[i] = self.counters[i].saturating_sub(amount);
        }
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
    /// [`stream_len`](FrequencyEstimator::stream_len).
    ///
    /// The heavy-hitter candidate set is *not* part of the checkpoint (it
    /// is advisory and never affects estimates); it restores empty.
    ///
    /// # Errors
    ///
    /// Returns an error if `counters` does not match this sketch's
    /// `depth × width` layout.
    pub fn restore_counters(&mut self, counters: &[u64], stream_len: u64) -> Result<(), String> {
        if counters.len() != self.depth * self.width {
            return Err(format!(
                "counter lane length {} does not match sketch {}x{}",
                counters.len(),
                self.depth,
                self.width
            ));
        }
        self.counters.copy_from_slice(counters);
        self.candidates.clear();
        self.stream_len = stream_len;
        Ok(())
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for CountMinSketch<K> {
    fn observe(&mut self, key: K) {
        self.stream_len += 1;
        for r in 0..self.depth {
            let i = self.index(r, &key);
            self.counters[i] += 1;
        }
        let est = self.sketch_estimate(&key);
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
        self.sketch_estimate(key)
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .candidates
            .keys()
            .map(|k| (k.clone(), self.sketch_estimate(k)))
            .filter(|&(_, c)| c >= threshold)
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.candidates.clear();
        self.stream_len = 0;
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
        let cms = CountMinSketch::<u32>::new(4, 256, 4);
        assert_eq!(cms.table_bits(16), 4 * 256 * 16);
    }

    #[test]
    fn counter_checkpoint_reproduces_estimates() {
        let mut cms = CountMinSketch::new(4, 128, 8);
        for i in 0..5_000u32 {
            cms.observe(i % 37);
        }
        let lane: Vec<u64> = cms.counters().to_vec();
        let len = cms.stream_len();
        let mut fresh = CountMinSketch::new(4, 128, 8);
        fresh.restore_counters(&lane, len).unwrap();
        for k in 0..64u32 {
            assert_eq!(fresh.estimate(&k), cms.estimate(&k), "key {k}");
        }
        assert_eq!(fresh.stream_len(), len);
    }

    #[test]
    fn counter_checkpoint_rejects_wrong_shape() {
        let mut cms = CountMinSketch::<u32>::new(2, 64, 4);
        assert!(cms.restore_counters(&[0; 3], 0).is_err());
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
            let mut cms = CountMinSketch::new(3, 64, 4);
            for &x in &stream {
                cms.observe(x);
            }
            let mut fresh = CountMinSketch::new(3, 64, 4);
            fresh.restore_counters(cms.counters(), cms.stream_len()).unwrap();
            for k in 0..300u32 {
                prop_assert_eq!(fresh.estimate(&k), cms.estimate(&k));
            }
        }
    }
}
