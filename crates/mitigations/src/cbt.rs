//! CBT — Counter-Based Tree (Seyedzadeh et al., IEEE CAL 2017 / ISCA 2018).
//!
//! CBT covers each bank with a binary tree of counters over row ranges. It
//! starts with one counter spanning the whole bank; when a counter's count
//! reaches its level's *split threshold* (and a free counter remains), the
//! counter splits into two children each covering half the range and
//! inheriting the parent's count (conservative, so no row is ever
//! under-counted). When any counter reaches the *last-level threshold*
//! (derived from the Row Hammer threshold the same way as Graphene's `T`),
//! CBT refreshes **all** rows covered by the counter plus the two boundary
//! rows — `N/2^l + 2` rows at once, the bursty behaviour that dominates
//! CBT's energy and performance overhead in Figures 8 and 9.
//!
//! Split thresholds ramp linearly to the last-level threshold
//! (`S_l = T_last · (l+1) / levels`), a faithful rendering of the published
//! "different split thresholds per level" with the constants the original
//! papers leave free (see DESIGN.md §4).
//!
//! Counters reset every refresh window, collapsing the tree back to a single
//! root counter.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// CBT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbtConfig {
    /// Total counters available (128 for the paper's CBT-128).
    pub num_counters: usize,
    /// Tree levels (10 for CBT-128; +1 per halving of `T_RH` in Figure 9).
    pub levels: u32,
    /// Row Hammer threshold the last-level threshold is derived from.
    pub row_hammer_threshold: u64,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Reset window (tREFW).
    pub reset_window: Picoseconds,
    /// Row-address width (for the area report).
    pub addr_bits: u32,
}

impl CbtConfig {
    /// The paper's CBT-128 (10 levels) at `T_RH = 50K`, 64K-row banks.
    pub fn cbt128() -> Self {
        Self::cbt128_with_timing(&dram_model::DramTiming::ddr4_2400())
    }

    /// [`Self::cbt128`] with the reset window taken from an explicit timing
    /// configuration (tREFW) instead of the DDR4-2400 64 ms assumption.
    pub fn cbt128_with_timing(timing: &dram_model::DramTiming) -> Self {
        CbtConfig {
            num_counters: 128,
            levels: 10,
            row_hammer_threshold: 50_000,
            rows_per_bank: 65_536,
            reset_window: timing.t_refw,
            addr_bits: 16,
        }
    }

    /// The Figure 9 scaling rule: counters double and levels grow by one for
    /// every halving of `T_RH` from 50K (CBT-256 at 25K … CBT-4096 at 1.56K).
    pub fn scaled_for_threshold(t_rh: u64) -> Self {
        let mut cfg = Self::cbt128();
        cfg.row_hammer_threshold = t_rh;
        let mut threshold = 50_000u64;
        while threshold / 2 >= t_rh && cfg.num_counters < 65_536 {
            threshold /= 2;
            cfg.num_counters *= 2;
            cfg.levels += 1;
        }
        cfg
    }

    /// Last-level threshold: refresh fires when a counter reaches this.
    /// Same derivation as Graphene's `T` at `k = 1`: double-sided hammering
    /// plus refresh-phase uncertainty give `T_RH / 4`.
    pub fn last_level_threshold(&self) -> u64 {
        (self.row_hammer_threshold / 4).max(1)
    }

    /// Split threshold of a counter at `level` (0-based).
    pub fn split_threshold(&self, level: u32) -> u64 {
        let t_last = self.last_level_threshold();
        (t_last * u64::from(level + 1) / u64::from(self.levels)).max(1)
    }

    /// Per-bank table bits: each counter stores a count up to the last-level
    /// threshold plus its range prefix.
    pub fn table_bits(&self) -> TableBits {
        let count_bits = dram_model::geometry::bits_for(self.last_level_threshold() + 1);
        TableBits {
            cam_bits: 0,
            sram_bits: self.num_counters as u64 * u64::from(count_bits + self.addr_bits),
        }
    }
}

impl Default for CbtConfig {
    fn default() -> Self {
        Self::cbt128()
    }
}

/// A live counter covering the row range `[start, start + size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    start: u32,
    level: u32,
    count: u64,
}

/// The CBT defense for one bank.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{Cbt, CbtConfig, RowHammerDefense};
///
/// let mut cbt = Cbt::new(CbtConfig::cbt128());
/// // Hammering one row eventually triggers a subtree refresh burst.
/// let mut burst = None;
/// for i in 0..20_000u64 {
///     let actions = cbt.on_activation(RowId(1000), i * 45_000);
///     if !actions.is_empty() {
///         burst = Some(actions);
///         break;
///     }
/// }
/// assert!(burst.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Cbt {
    config: CbtConfig,
    /// Partition of the bank, sorted by `start`.
    nodes: Vec<Node>,
    current_window: u64,
    refreshes_issued: u64,
}

impl Cbt {
    /// Creates CBT for one bank.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no counters, no levels, or
    /// more levels than the bank can be halved).
    pub fn new(config: CbtConfig) -> Self {
        assert!(config.num_counters > 0, "need at least one counter");
        assert!(config.levels > 0, "need at least one level");
        assert!(
            config.rows_per_bank >> (config.levels - 1) > 0,
            "too many levels for the bank size"
        );
        Cbt {
            config,
            nodes: vec![Node { start: 0, level: 0, count: 0 }],
            current_window: 0,
            refreshes_issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CbtConfig {
        &self.config
    }

    /// Number of live counters (grows as the tree splits).
    pub fn live_counters(&self) -> usize {
        self.nodes.len()
    }

    /// Total subtree-refresh bursts issued.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    fn node_size(&self, level: u32) -> u32 {
        self.config.rows_per_bank >> level
    }

    fn covering_index(&self, row: RowId) -> usize {
        // Nodes partition the bank and are sorted by start.
        match self.nodes.binary_search_by(|n| n.start.cmp(&row.0)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Splits node `i` into two children if it is over its level's split
    /// threshold, a free counter exists, and the maximum level isn't reached.
    /// At most one split per ACT, matching the hardware's single-ported table.
    fn maybe_split(&mut self, i: usize) {
        let n = self.nodes[i];
        if n.level + 1 >= self.config.levels
            || self.nodes.len() >= self.config.num_counters
            || n.count < self.config.split_threshold(n.level)
            || self.node_size(n.level) < 2
        {
            return;
        }
        let half = self.node_size(n.level) / 2;
        // Both children inherit the parent's count: conservative, so no row
        // in either half can ever be under-counted.
        self.nodes[i] = Node { start: n.start, level: n.level + 1, count: n.count };
        self.nodes
            .insert(i + 1, Node { start: n.start + half, level: n.level + 1, count: n.count });
    }
}

impl RowHammerDefense for Cbt {
    fn name(&self) -> String {
        format!("CBT-{}", self.config.num_counters)
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        let window = now / self.config.reset_window;
        if window != self.current_window {
            self.reset();
            self.current_window = window;
        }

        let i = self.covering_index(row);
        self.nodes[i].count += 1;

        // Split if warranted, then re-resolve the covering node.
        self.maybe_split(i);
        let i = self.covering_index(row);
        let n = self.nodes[i];

        if n.count >= self.config.last_level_threshold() {
            // Refresh the whole covered range plus the two boundary rows.
            let size = self.node_size(n.level);
            let start = n.start.saturating_sub(1);
            let count = size + if n.start == 0 { 1 } else { 2 };
            self.nodes[i].count = 0;
            self.refreshes_issued += 1;
            vec![RefreshAction::Range { start: RowId(start), count }]
        } else {
            Vec::new()
        }
    }

    fn table_bits(&self) -> TableBits {
        self.config.table_bits()
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node { start: 0, level: 0, count: 0 });
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                let i = slot as usize % self.nodes.len();
                let width = (64 - self.config.last_level_threshold().leading_zeros()).max(1);
                self.nodes[i].count ^= 1 << (bit % width);
                true
            }
            faultsim::TrackerFault::AddrBitFlip { slot, bit } => {
                // Corrupting a node's range start: its counts now guard the
                // wrong rows (the tree invariant is broken exactly the way a
                // real upset would break it).
                let i = slot as usize % self.nodes.len();
                self.nodes[i].start ^= 1 << (bit % 32);
                true
            }
            faultsim::TrackerFault::SpilloverBitFlip { .. }
            | faultsim::TrackerFault::LookupMiss => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cbt(t_rh: u64) -> Cbt {
        Cbt::new(CbtConfig {
            num_counters: 8,
            levels: 4,
            row_hammer_threshold: t_rh,
            rows_per_bank: 64,
            reset_window: 1_000_000_000,
            addr_bits: 6,
        })
    }

    #[test]
    fn partition_invariant_holds_under_splits() {
        let mut cbt = small_cbt(400);
        for i in 0..5_000u64 {
            cbt.on_activation(RowId((i % 64) as u32), i);
            // Nodes must partition [0, 64): starts strictly increasing, sizes sum.
            let mut expected_start = 0u32;
            for n in &cbt.nodes {
                assert_eq!(n.start, expected_start, "gap or overlap in partition");
                expected_start += cbt.node_size(n.level);
            }
            assert_eq!(expected_start, 64);
            assert!(cbt.live_counters() <= 8);
        }
    }

    #[test]
    fn hot_row_drives_splits_toward_leaf() {
        let mut cbt = small_cbt(4000);
        for i in 0..900u64 {
            cbt.on_activation(RowId(10), i);
        }
        // Threshold 1000, split thresholds 250/500/750: the subtree around
        // row 10 must have split at least once.
        assert!(cbt.live_counters() > 1);
    }

    #[test]
    fn refresh_burst_covers_subtree_plus_boundaries() {
        let mut cbt = small_cbt(400); // last-level threshold 100
        let mut burst = None;
        for i in 0..2_000u64 {
            let a = cbt.on_activation(RowId(20), i);
            if !a.is_empty() {
                burst = Some(a[0]);
                break;
            }
        }
        let burst = burst.expect("burst fires");
        match burst {
            RefreshAction::Range { start, count } => {
                // The refreshed range must include rows 19, 20 and 21.
                assert!(start.0 <= 19);
                assert!(start.0 + count >= 22);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn root_refresh_when_counters_exhausted() {
        // One counter only: it can never split, so it refreshes the whole
        // bank (plus boundary clip) at the last-level threshold.
        let mut cbt = Cbt::new(CbtConfig {
            num_counters: 1,
            levels: 1,
            row_hammer_threshold: 40,
            rows_per_bank: 64,
            reset_window: 1_000_000_000,
            addr_bits: 6,
        });
        let mut total_rows = 0u64;
        for i in 0..10u64 {
            for a in cbt.on_activation(RowId(5), i) {
                total_rows += a.row_count(64);
            }
        }
        assert_eq!(total_rows, 64); // 10 ACTs ≥ threshold 10 → full-bank burst
    }

    #[test]
    fn window_reset_collapses_tree() {
        let mut cbt = small_cbt(400);
        for i in 0..500u64 {
            cbt.on_activation(RowId(7), i);
        }
        assert!(cbt.live_counters() > 1);
        cbt.on_activation(RowId(7), 2_000_000_000); // next window
        assert_eq!(cbt.live_counters(), 1);
    }

    #[test]
    fn cbt128_area_close_to_paper() {
        // Paper Table IV: CBT-128 = 3,824 bits/bank. Our model: 128 × (14
        // count bits + 16 addr bits) = 3,840 — within 0.5 %.
        let bits = CbtConfig::cbt128().table_bits().total();
        assert_eq!(bits, 3_840);
        assert!((bits as f64 - 3_824.0).abs() / 3_824.0 < 0.01);
    }

    #[test]
    fn scaling_rule_matches_figure_9() {
        let c = CbtConfig::scaled_for_threshold(25_000);
        assert_eq!((c.num_counters, c.levels), (256, 11));
        let c = CbtConfig::scaled_for_threshold(12_500);
        assert_eq!((c.num_counters, c.levels), (512, 12));
        let c = CbtConfig::scaled_for_threshold(1_560);
        assert_eq!((c.num_counters, c.levels), (4096, 15));
    }

    #[test]
    fn split_thresholds_ramp_to_last_level() {
        let c = CbtConfig::cbt128();
        assert!(c.split_threshold(0) < c.split_threshold(5));
        assert_eq!(c.split_threshold(c.levels - 1), c.last_level_threshold());
    }

    #[test]
    fn no_row_exceeds_counter_budget_unprotected() {
        // Conservative inheritance: a row's true ACT count within the window
        // never exceeds the count of its covering node + refresh resets.
        let mut cbt = small_cbt(400);
        let mut acts_since_refresh = 0u64;
        for i in 0..5_000u64 {
            let a = cbt.on_activation(RowId(33), i);
            acts_since_refresh += 1;
            if !a.is_empty() {
                acts_since_refresh = 0;
            }
            assert!(
                acts_since_refresh <= cbt.config.last_level_threshold(),
                "row accumulated {acts_since_refresh} ACTs without refresh"
            );
        }
    }
}
