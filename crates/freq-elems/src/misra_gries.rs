//! The classic Misra-Gries summary (decrement formulation).
//!
//! Maintains at most `capacity` counters. On an untracked item with a full
//! table, *every* counter is decremented and zeroed counters are evicted.
//! Estimates under-count: `actual − estimate ≤ W / (capacity + 1)` for a
//! stream of length `W`, and `estimate ≤ actual` always.
//!
//! # Constant-time decrement-all
//!
//! The textbook decrement step touches every counter — an O(capacity) scan
//! per miss that dominated the hot path at Graphene-scale capacities. This
//! implementation stores counts with a *base offset*: each tracked key holds
//! `stored = logical + base`, so "decrement all" is `base += 1` followed by
//! evicting exactly the keys whose logical count just reached zero. Those
//! keys live together in one count bucket (`buckets[new base]`), so each
//! eviction is O(1) amortized — a key is evicted at most once per insertion.
//! Observable behavior (estimates, eviction set, bounds) is identical to
//! the scan; the summary's own unit tests and `tests/table_equivalence.rs`
//! pin that down.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

use crate::traits::FrequencyEstimator;

/// Decrement-based Misra-Gries summary.
///
/// # Example
///
/// ```
/// use freq_elems::{FrequencyEstimator, MisraGries};
///
/// let mut mg = MisraGries::new(2);
/// for x in ["a", "a", "b", "c", "a"] {
///     mg.observe(x);
/// }
/// let actual_a = 3;
/// assert!(mg.estimate(&"a") <= actual_a);
/// assert!(actual_a - mg.estimate(&"a") <= 5 / (2 + 1));
/// ```
#[derive(Debug, Clone)]
pub struct MisraGries<K> {
    /// Tracked keys to their **stored** count (`logical + base`). Always
    /// strictly greater than `base` while tracked.
    counters: HashMap<K, u64>,
    /// Keys grouped by stored count; `buckets[base + 1]` holds the keys one
    /// decrement away from eviction.
    buckets: BTreeMap<u64, HashSet<K>>,
    /// Global offset implementing decrement-all in O(1).
    base: u64,
    capacity: usize,
    stream_len: u64,
}

impl<K: Eq + Hash + Clone> MisraGries<K> {
    /// Creates a summary holding at most `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MisraGries {
            counters: HashMap::with_capacity(capacity),
            buckets: BTreeMap::new(),
            base: 0,
            capacity,
            stream_len: 0,
        }
    }

    /// Maximum number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently tracked items.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if no item is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterator over tracked items and their (under-)estimates.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        let base = self.base;
        self.counters.iter().map(move |(k, &v)| (k, v - base))
    }

    /// Merges another summary into this one (Agarwal et al., PODS 2012):
    /// counts are summed, then if more than `capacity` items remain, the
    /// `(capacity+1)`-th largest count is subtracted from every counter and
    /// non-positive counters are dropped. The merged summary keeps the
    /// combined error bound `(W₁+W₂)/(capacity+1)` — so per-channel
    /// summaries can be combined into a system-level view without replaying
    /// either stream.
    ///
    /// This is a cold path: it materializes logical counts and rebuilds the
    /// count buckets from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (the bound would be ill-defined).
    pub fn merge(&mut self, other: &MisraGries<K>) {
        assert_eq!(self.capacity, other.capacity, "capacities must match to merge");
        let mut merged: HashMap<K, u64> = self.iter().map(|(k, c)| (k.clone(), c)).collect();
        for (k, c) in other.iter() {
            *merged.entry(k.clone()).or_insert(0) += c;
        }
        self.stream_len += other.stream_len;
        if merged.len() > self.capacity {
            let mut counts: Vec<u64> = merged.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cut = counts[self.capacity]; // (capacity+1)-th largest
            merged.retain(|_, c| {
                *c = c.saturating_sub(cut);
                *c > 0
            });
        }
        self.base = 0;
        self.counters = merged;
        self.buckets.clear();
        for (k, &c) in &self.counters {
            self.buckets.entry(c).or_default().insert(k.clone());
        }
    }

    /// Moves `key` from the bucket of `old` stored count to `new`.
    fn rebucket(&mut self, key: &K, old: u64, new: u64) {
        if let Some(keys) = self.buckets.get_mut(&old) {
            keys.remove(key);
            if keys.is_empty() {
                self.buckets.remove(&old);
            }
        }
        self.buckets.entry(new).or_default().insert(key.clone());
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for MisraGries<K> {
    fn observe(&mut self, key: K) {
        self.stream_len += 1;
        if let Some(c) = self.counters.get_mut(&key) {
            let old = *c;
            *c += 1;
            self.rebucket(&key, old, old + 1);
        } else if self.counters.len() < self.capacity {
            let stored = self.base + 1;
            self.counters.insert(key.clone(), stored);
            self.buckets.entry(stored).or_default().insert(key);
        } else {
            // Decrement all: raise the base; every key whose stored count
            // now equals the base has logical count zero and is evicted.
            self.base += 1;
            if let Some(zeroed) = self.buckets.remove(&self.base) {
                for k in zeroed {
                    self.counters.remove(&k);
                }
            }
        }
    }

    fn estimate(&self, key: &K) -> u64 {
        self.counters.get(key).map_or(0, |&c| c - self.base)
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> =
            self.iter().filter(|&(_, c)| c >= threshold).map(|(k, c)| (k.clone(), c)).collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn reset(&mut self) {
        self.counters.clear();
        self.buckets.clear();
        self.base = 0;
        self.stream_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn actual_counts<K: Eq + Hash + Clone>(stream: &[K]) -> HashMap<K, u64> {
        let mut m = HashMap::new();
        for k in stream {
            *m.entry(k.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Scan-based twin of `observe` used to pin the base-offset rewrite to
    /// the textbook behavior.
    fn observe_by_scan(counters: &mut HashMap<u32, u64>, capacity: usize, key: u32) {
        if let Some(c) = counters.get_mut(&key) {
            *c += 1;
        } else if counters.len() < capacity {
            counters.insert(key, 1);
        } else {
            counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    #[test]
    fn never_overestimates() {
        let stream: Vec<u32> = vec![1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 2, 2];
        let mut mg = MisraGries::new(3);
        for &x in &stream {
            mg.observe(x);
        }
        for (k, &a) in &actual_counts(&stream) {
            assert!(mg.estimate(k) <= a, "key {k}");
        }
    }

    #[test]
    fn error_bounded_by_w_over_k_plus_1() {
        let stream: Vec<u32> = (0..1000).map(|i| i % 17).collect();
        let cap = 4;
        let mut mg = MisraGries::new(cap);
        for &x in &stream {
            mg.observe(x);
        }
        let bound = stream.len() as u64 / (cap as u64 + 1);
        for (k, &a) in &actual_counts(&stream) {
            let e = mg.estimate(k);
            assert!(a - e <= bound, "key {k}: actual {a}, est {e}, bound {bound}");
        }
    }

    #[test]
    fn majority_item_survives() {
        // An item occupying > W/(k+1) of the stream must remain tracked.
        let mut stream = vec![7u32; 600];
        stream.extend((0..400).map(|i| i % 100 + 10));
        let mut mg = MisraGries::new(4);
        for &x in &stream {
            mg.observe(x);
        }
        assert!(mg.estimate(&7) > 0, "heavy item evicted");
    }

    #[test]
    fn table_never_exceeds_capacity() {
        let mut mg = MisraGries::new(5);
        for i in 0..10_000u32 {
            mg.observe(i % 97);
            assert!(mg.len() <= 5);
        }
    }

    #[test]
    fn base_offset_matches_decrement_scan_exactly() {
        // Lockstep against the textbook retain-based implementation on an
        // adversarial mix of hits, inserts, and decrement storms.
        let cap = 6;
        let mut mg = MisraGries::new(cap);
        let mut scan: HashMap<u32, u64> = HashMap::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in 0..30_000u64 {
            // xorshift64* keeps the stream deterministic and skewed.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let key =
                if r.is_multiple_of(3) { (r >> 32) as u32 % 5 } else { (r >> 32) as u32 % 4096 };
            mg.observe(key);
            observe_by_scan(&mut scan, cap, key);
            if i % 1024 == 0 {
                let mut a: Vec<_> = mg.iter().map(|(k, c)| (*k, c)).collect();
                a.sort_unstable();
                let mut b: Vec<_> = scan.iter().map(|(&k, &c)| (k, c)).collect();
                b.sort_unstable();
                assert_eq!(a, b, "diverged at step {i}");
            }
        }
        let mut a: Vec<_> = mg.iter().map(|(k, c)| (*k, c)).collect();
        a.sort_unstable();
        let mut b: Vec<_> = scan.iter().map(|(&k, &c)| (k, c)).collect();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn reset_clears_state() {
        let mut mg = MisraGries::new(3);
        mg.observe(1u32);
        mg.reset();
        assert_eq!(mg.stream_len(), 0);
        assert!(mg.is_empty());
        assert_eq!(mg.estimate(&1), 0);
    }

    #[test]
    fn heavy_hitters_sorted_descending() {
        let mut mg = MisraGries::new(8);
        for _ in 0..10 {
            mg.observe("x");
        }
        for _ in 0..5 {
            mg.observe("y");
        }
        let hh = mg.heavy_hitters(1);
        assert_eq!(hh[0].0, "x");
        assert_eq!(hh[1].0, "y");
        assert!(mg.heavy_hitters(11).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = MisraGries::<u32>::new(0);
    }

    #[test]
    fn merge_respects_capacity_and_combined_bound() {
        let cap = 4;
        let s1: Vec<u32> = (0..600).map(|i| i % 13).collect();
        let s2: Vec<u32> = (0..400).map(|i| (i * 7) % 9).collect();
        let mut a = MisraGries::new(cap);
        let mut b = MisraGries::new(cap);
        for &x in &s1 {
            a.observe(x);
        }
        for &x in &s2 {
            b.observe(x);
        }
        a.merge(&b);
        assert!(a.len() <= cap);
        assert_eq!(a.stream_len(), 1000);
        // Combined bound on every item of the union stream.
        let mut actual = actual_counts(&s1);
        for (k, v) in actual_counts(&s2) {
            *actual.entry(k).or_insert(0) += v;
        }
        let bound = 1000 / (cap as u64 + 1);
        for (k, &c) in &actual {
            let e = a.estimate(k);
            assert!(e <= c, "key {k} over-estimated");
            assert!(c - e <= bound, "key {k}: {c} − {e} > {bound}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MisraGries::new(3);
        for x in [1u32, 1, 2] {
            a.observe(x);
        }
        let before: Vec<_> = {
            let mut v: Vec<_> = a.iter().map(|(k, c)| (*k, c)).collect();
            v.sort_unstable();
            v
        };
        a.merge(&MisraGries::new(3));
        let mut after: Vec<_> = a.iter().map(|(k, c)| (*k, c)).collect();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn observe_works_after_merge() {
        // merge() rebuilds the buckets with base 0; the hot path must keep
        // functioning (including decrement storms) on the rebuilt state.
        let mut a = MisraGries::new(2);
        let mut b = MisraGries::new(2);
        for x in [1u32, 1, 2] {
            a.observe(x);
        }
        for x in [3u32, 3, 1] {
            b.observe(x);
        }
        a.merge(&b);
        for x in [9u32, 8, 7, 6, 1, 1] {
            a.observe(x);
        }
        assert!(a.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "capacities must match")]
    fn merge_capacity_mismatch_panics() {
        let mut a = MisraGries::<u32>::new(2);
        a.merge(&MisraGries::new(3));
    }
}
