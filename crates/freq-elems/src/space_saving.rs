//! The Space-Saving summary (Metwally, Agrawal, El Abbadi — ICDT 2005).
//!
//! Keeps `capacity` counters; on a miss with a full table the *minimum*
//! counter's key is replaced and its count incremented (carried over).
//! Estimates over-count by at most the minimum counter value, which is itself
//! bounded by `W / capacity`.
//!
//! # Indexed hot path
//!
//! The textbook implementation pays an O(capacity) scan per observation
//! (key lookup, then `min_by_key` on a miss). This one shadows the entry
//! array with a key → slot map and a count → slot-set index, making hits
//! O(1) and replacements O(log C) where C is the number of distinct counts
//! (≤ capacity). The slot set is ordered, so a replacement picks the
//! *lowest-index* minimum entry — the same tie-break `min_by_key` used —
//! and observable behavior is unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use crate::traits::FrequencyEstimator;

/// Space-Saving frequent-elements summary.
///
/// # Example
///
/// ```
/// use freq_elems::{FrequencyEstimator, SpaceSaving};
///
/// let mut ss = SpaceSaving::new(2);
/// for x in ["a", "a", "b", "c"] {
///     ss.observe(x);
/// }
/// assert!(ss.estimate(&"a") >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    /// Slot array, in insertion order (stable across replacements so
    /// `iter()` order matches the original implementation).
    entries: Vec<(K, u64)>,
    /// Shadow index: key → slot.
    slots: HashMap<K, usize>,
    /// Shadow index: count → slots holding that count, lowest index first.
    buckets: BTreeMap<u64, BTreeSet<usize>>,
    capacity: usize,
    stream_len: u64,
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// Creates a summary holding at most `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSaving {
            entries: Vec::with_capacity(capacity),
            slots: HashMap::with_capacity(capacity),
            buckets: BTreeMap::new(),
            capacity,
            stream_len: 0,
        }
    }

    /// Maximum number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current minimum counter value (0 when the table is not yet full) —
    /// the worst-case over-estimation of any entry.
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity {
            0
        } else {
            self.buckets.keys().next().copied().unwrap_or(0)
        }
    }

    /// Iterator over tracked items and their (over-)estimates.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.entries.iter().map(|(k, c)| (k, *c))
    }

    /// Increments slot `i`'s count, keeping the count index in sync.
    fn bump(&mut self, i: usize) {
        let old = self.entries[i].1;
        self.entries[i].1 = old + 1;
        if let Some(set) = self.buckets.get_mut(&old) {
            set.remove(&i);
            if set.is_empty() {
                self.buckets.remove(&old);
            }
        }
        self.buckets.entry(old + 1).or_default().insert(i);
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for SpaceSaving<K> {
    fn observe(&mut self, key: K) {
        self.stream_len += 1;
        if let Some(&i) = self.slots.get(&key) {
            self.bump(i);
        } else if self.entries.len() < self.capacity {
            let i = self.entries.len();
            self.entries.push((key.clone(), 1));
            self.slots.insert(key, i);
            self.buckets.entry(1).or_default().insert(i);
        } else {
            // Replace the minimum-count entry; among ties, the lowest slot
            // index (the first `BTreeSet` element) — exactly what the old
            // `min_by_key` scan returned.
            let i = self
                .buckets
                .values()
                .next()
                .and_then(|set| set.first().copied())
                .expect("table is full, hence non-empty");
            let old_key = std::mem::replace(&mut self.entries[i].0, key.clone());
            self.slots.remove(&old_key);
            self.slots.insert(key, i);
            self.bump(i);
        }
    }

    fn estimate(&self, key: &K) -> u64 {
        self.slots.get(key).map_or(0, |&i| self.entries[i].1)
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter(|&&(_, c)| c >= threshold)
            .map(|(k, c)| (k.clone(), *c))
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.slots.clear();
        self.buckets.clear();
        self.stream_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn never_underestimates_tracked_items() {
        let stream: Vec<u32> = (0..3000).map(|i| (i * 911) % 41).collect();
        let mut ss = SpaceSaving::new(6);
        let mut actual = HashMap::new();
        for &x in &stream {
            ss.observe(x);
            *actual.entry(x).or_insert(0u64) += 1;
        }
        for (k, c) in ss.iter() {
            assert!(c >= actual[k], "key {k}");
        }
    }

    #[test]
    fn overestimate_bounded_by_w_over_capacity() {
        let stream: Vec<u32> = (0..4000).map(|i| (i * 37) % 53).collect();
        let cap = 8;
        let mut ss = SpaceSaving::new(cap);
        let mut actual = HashMap::new();
        for &x in &stream {
            ss.observe(x);
            *actual.entry(x).or_insert(0u64) += 1;
        }
        let bound = stream.len() as u64 / cap as u64;
        for (k, c) in ss.iter() {
            assert!(c - actual[k] <= bound, "key {k}: over-estimate exceeds W/m");
        }
    }

    #[test]
    fn min_count_zero_until_full() {
        let mut ss = SpaceSaving::new(3);
        ss.observe(1u32);
        ss.observe(2);
        assert_eq!(ss.min_count(), 0);
        ss.observe(3);
        assert_eq!(ss.min_count(), 1);
    }

    #[test]
    fn replaces_minimum_on_miss() {
        let mut ss = SpaceSaving::new(2);
        ss.observe("a");
        ss.observe("a");
        ss.observe("b");
        ss.observe("c"); // replaces "b" (min count 1) → count 2
        assert_eq!(ss.estimate(&"c"), 2);
        assert_eq!(ss.estimate(&"b"), 0);
        assert_eq!(ss.estimate(&"a"), 2);
    }

    #[test]
    fn indexed_matches_scan_implementation() {
        // Lockstep against the textbook find + min_by_key scans, including
        // the lowest-index tie-break among equal-minimum entries.
        fn observe_by_scan(entries: &mut Vec<(u32, u64)>, capacity: usize, key: u32) {
            if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
                e.1 += 1;
            } else if entries.len() < capacity {
                entries.push((key, 1));
            } else {
                let min_idx = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &(_, c))| c)
                    .map(|(i, _)| i)
                    .unwrap();
                entries[min_idx].0 = key;
                entries[min_idx].1 += 1;
            }
        }
        let cap = 7;
        let mut ss = SpaceSaving::new(cap);
        let mut scan: Vec<(u32, u64)> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..30_000u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let key =
                if r.is_multiple_of(4) { (r >> 32) as u32 % 6 } else { (r >> 32) as u32 % 2048 };
            ss.observe(key);
            observe_by_scan(&mut scan, cap, key);
            if i % 1024 == 0 {
                let got: Vec<_> = ss.iter().map(|(k, c)| (*k, c)).collect();
                assert_eq!(got, scan, "diverged at step {i}");
            }
        }
        let got: Vec<_> = ss.iter().map(|(k, c)| (*k, c)).collect();
        assert_eq!(got, scan);
    }

    #[test]
    fn heavy_item_survives_noise() {
        let mut ss = SpaceSaving::new(5);
        for i in 0..1000u32 {
            ss.observe(42);
            ss.observe(1000 + i); // unique noise
        }
        assert!(ss.estimate(&42) >= 1000);
    }

    #[test]
    fn reset_clears() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(5u32);
        ss.reset();
        assert_eq!(ss.stream_len(), 0);
        assert_eq!(ss.estimate(&5), 0);
    }
}
