//! CRA — Counter-based Row Activation (Kim, Nair, Qureshi — CAL 2015).
//!
//! CRA keeps one true counter *per row*, but stores the full array in DRAM
//! itself and caches only the counters of recently activated rows on chip.
//! The paper's §II-C critique: "this scheme performs poorly for an access
//! pattern with little locality" — every counter-cache miss spends extra
//! DRAM bandwidth fetching (and later writing back) the counter line.
//!
//! The model here:
//!
//! * an on-chip, direct-mapped-by-LRU counter cache of `cache_entries`
//!   (row → count) pairs;
//! * a hit increments in place; a miss evicts the LRU entry (writing it back
//!   to the in-DRAM array) and fetches the row's stored count — both charged
//!   to the caller as [`CraStats::counter_fetches`]/`counter_writebacks`,
//!   which the simulator can convert to bank-busy time;
//! * a row reaching `T_RH / 4` gets a victim refresh and its counter resets;
//! * everything resets at each refresh window, mirroring the per-window
//!   budget argument all the counter schemes share.
//!
//! Because the backing store holds a counter for literally every row, CRA is
//! a *sound* defense (no false negatives) — its weakness is purely the
//! performance of the cache, which the unit tests demonstrate by comparing
//! hit rates on high- versus low-locality streams.

use std::collections::HashMap;

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// CRA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CraConfig {
    /// Row Hammer threshold.
    pub row_hammer_threshold: u64,
    /// On-chip counter-cache entries.
    pub cache_entries: usize,
    /// Rows per bank (sizes the in-DRAM backing array).
    pub rows_per_bank: u32,
    /// Reset window (tREFW).
    pub reset_window: Picoseconds,
    /// Row-address width (for the area report).
    pub addr_bits: u32,
}

impl CraConfig {
    /// A typical configuration: 128-entry counter cache at `T_RH` = 50K.
    pub fn micro2020() -> Self {
        Self::with_timing(&dram_model::DramTiming::ddr4_2400())
    }

    /// [`Self::micro2020`] with the reset window taken from an explicit
    /// timing configuration (tREFW) instead of the DDR4-2400 64 ms
    /// assumption.
    pub fn with_timing(timing: &dram_model::DramTiming) -> Self {
        CraConfig {
            row_hammer_threshold: 50_000,
            cache_entries: 128,
            rows_per_bank: 65_536,
            reset_window: timing.t_refw,
            addr_bits: 16,
        }
    }

    /// Victim-refresh threshold (`T_RH / 4`, as for the other counter schemes).
    pub fn refresh_threshold(&self) -> u64 {
        (self.row_hammer_threshold / 4).max(1)
    }
}

impl Default for CraConfig {
    fn default() -> Self {
        Self::micro2020()
    }
}

/// Counter-cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CraStats {
    /// Counter-cache hits.
    pub cache_hits: u64,
    /// Counter fetches from the in-DRAM array (cache misses).
    pub counter_fetches: u64,
    /// Dirty evictions written back to the in-DRAM array.
    pub counter_writebacks: u64,
}

impl CraStats {
    /// Cache hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.counter_fetches;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The CRA defense for one bank.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{Cra, CraConfig, RowHammerDefense};
///
/// let mut cra = Cra::new(CraConfig::micro2020());
/// cra.on_activation(RowId(5), 0);
/// assert_eq!(cra.stats().counter_fetches, 1); // cold miss
/// cra.on_activation(RowId(5), 1);
/// assert_eq!(cra.stats().cache_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cra {
    config: CraConfig,
    /// In-DRAM backing counters (one per row).
    backing: Vec<u32>,
    /// On-chip cache: row → (count, last-use tick).
    cache: HashMap<RowId, (u32, u64)>,
    tick: u64,
    current_window: u64,
    stats: CraStats,
    refreshes_issued: u64,
    /// Counter-line transfers already reported via `drain_overhead_time`.
    drained_transfers: u64,
}

impl Cra {
    /// Creates CRA for one bank.
    ///
    /// # Panics
    ///
    /// Panics if the cache has no entries or the bank no rows.
    pub fn new(config: CraConfig) -> Self {
        assert!(config.cache_entries > 0, "cache must have entries");
        assert!(config.rows_per_bank > 0, "bank must have rows");
        Cra {
            backing: vec![0; config.rows_per_bank as usize],
            cache: HashMap::with_capacity(config.cache_entries),
            tick: 0,
            current_window: 0,
            stats: CraStats::default(),
            refreshes_issued: 0,
            drained_transfers: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CraConfig {
        &self.config
    }

    /// Counter-cache traffic so far.
    pub fn stats(&self) -> &CraStats {
        &self.stats
    }

    /// Victim refreshes issued.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    fn evict_lru(&mut self) {
        if let Some((&row, _)) = self.cache.iter().min_by_key(|&(_, &(_, used))| used) {
            let (count, _) = self.cache.remove(&row).expect("entry exists");
            self.backing[row.0 as usize] = count;
            self.stats.counter_writebacks += 1;
        }
    }
}

impl RowHammerDefense for Cra {
    fn name(&self) -> String {
        format!("CRA-{}", self.config.cache_entries)
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        let window = now / self.config.reset_window;
        if window != self.current_window {
            self.reset();
            self.current_window = window;
        }
        self.tick += 1;
        let tick = self.tick;

        let count = if let Some(entry) = self.cache.get_mut(&row) {
            self.stats.cache_hits += 1;
            entry.0 += 1;
            entry.1 = tick;
            entry.0
        } else {
            // Miss: fetch from the in-DRAM array, evicting if full.
            self.stats.counter_fetches += 1;
            if self.cache.len() >= self.config.cache_entries {
                self.evict_lru();
            }
            let fetched = self.backing[row.0 as usize] + 1;
            self.cache.insert(row, (fetched, tick));
            fetched
        };

        if u64::from(count) >= self.config.refresh_threshold() {
            self.cache.insert(row, (0, tick));
            self.backing[row.0 as usize] = 0;
            self.refreshes_issued += 1;
            vec![RefreshAction::Neighbors { aggressor: row, radius: 1 }]
        } else {
            Vec::new()
        }
    }

    fn table_bits(&self) -> TableBits {
        // On-chip: the counter cache (address CAM + count SRAM). The
        // in-DRAM array costs DRAM capacity, not controller area.
        let count_bits = dram_model::geometry::bits_for(self.config.refresh_threshold() + 1);
        TableBits {
            cam_bits: self.config.cache_entries as u64 * u64::from(self.config.addr_bits),
            sram_bits: self.config.cache_entries as u64 * u64::from(count_bits),
        }
    }

    fn drain_overhead_time(&mut self) -> Picoseconds {
        // Each fetch or write-back moves one counter line: one column access
        // (tCL = 13.3 ns) against the bank holding the in-DRAM array.
        const COUNTER_TRANSFER_PS: Picoseconds = 13_300;
        let total = self.stats.counter_fetches + self.stats.counter_writebacks;
        let new = total - self.drained_transfers;
        self.drained_transfers = total;
        new * COUNTER_TRANSFER_PS
    }

    fn reset(&mut self) {
        self.backing.iter_mut().for_each(|c| *c = 0);
        self.cache.clear();
        self.refreshes_issued = 0;
        self.drained_transfers = 0;
        self.stats = CraStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cra(t_rh: u64, cache: usize) -> Cra {
        Cra::new(CraConfig {
            row_hammer_threshold: t_rh,
            cache_entries: cache,
            rows_per_bank: 4_096,
            reset_window: u64::MAX,
            addr_bits: 12,
        })
    }

    #[test]
    fn exact_counting_across_evictions() {
        // Counts survive eviction via the backing store: hammering one row
        // interleaved with a cache-thrashing sweep still fires at exactly
        // T_RH/4 activations of the aggressor.
        let mut c = cra(400, 2); // threshold 100, tiny cache
        let mut fired_at = None;
        let mut aggressor_acts = 0u64;
        for i in 0..10_000u64 {
            let row = if i % 4 == 0 {
                aggressor_acts += 1;
                RowId(9)
            } else {
                RowId(100 + (i % 50) as u32)
            };
            if !c.on_activation(row, i).is_empty() && row == RowId(9) && fired_at.is_none() {
                fired_at = Some(aggressor_acts);
            }
        }
        assert_eq!(fired_at, Some(100), "exact per-row counting must survive eviction");
    }

    #[test]
    fn protection_equals_ideal_threshold() {
        let mut c = cra(400, 64);
        for i in 0..99u64 {
            assert!(c.on_activation(RowId(5), i).is_empty());
        }
        let a = c.on_activation(RowId(5), 99);
        assert_eq!(a, vec![RefreshAction::Neighbors { aggressor: RowId(5), radius: 1 }]);
    }

    #[test]
    fn locality_governs_cache_traffic() {
        // High-locality stream: mostly hits. Low-locality: mostly fetches —
        // the paper's §II-C critique quantified.
        let mut hot = cra(50_000, 128);
        for i in 0..10_000u64 {
            hot.on_activation(RowId((i % 16) as u32), i);
        }
        assert!(hot.stats().hit_rate() > 0.95, "hot hit rate {}", hot.stats().hit_rate());

        let mut cold = cra(50_000, 128);
        for i in 0..10_000u64 {
            cold.on_activation(RowId(((i * 17) % 4_096) as u32), i);
        }
        assert!(cold.stats().hit_rate() < 0.2, "cold hit rate {}", cold.stats().hit_rate());
        assert!(cold.stats().counter_writebacks > 1_000);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = cra(50_000, 8);
        for i in 0..5_000u64 {
            c.on_activation(RowId((i % 200) as u32), i);
            assert!(c.cache.len() <= 8);
        }
    }

    #[test]
    fn on_chip_area_is_cache_only() {
        let c = cra(50_000, 128);
        // 128 × (12 addr + 14 count) — far below one counter per row.
        assert_eq!(c.table_bits().total(), 128 * (12 + 14));
    }

    #[test]
    fn reset_clears_backing_and_cache() {
        let mut c = cra(400, 8);
        for i in 0..50u64 {
            c.on_activation(RowId(1), i);
        }
        c.reset();
        for i in 0..99u64 {
            assert!(c.on_activation(RowId(1), i + 100).is_empty());
        }
    }
}
