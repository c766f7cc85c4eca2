//! MRLoc — memory-locality-based probabilistic refresh (You & Yang,
//! DAC 2019).
//!
//! MRLoc keeps a FIFO *history queue* of recent victim-row candidates. On
//! each ACT the two victims of the activated row are looked up in the queue:
//! a victim found near the head (inserted recently — high temporal locality)
//! is refreshed with a boosted probability, while a victim deep in the queue
//! gets a smaller one; the victims are then (re)inserted at the head. The
//! idea is to spend PARA's probability budget preferentially on rows that
//! are being hammered *right now*.
//!
//! PARA refreshes each victim of an activated row with probability `p/2`.
//! MRLoc spends the same per-victim budget on queue misses and boosts it by
//! up to 2× for tracked victims: a victim found at depth `d` (0 = newest) in
//! a queue of length `L` is refreshed with probability
//! `(p/2) · (1 + (L − d)/L)` — between `p/2` and `p` — and with exactly
//! `p/2` when not in the queue. This captures the published design: at least
//! PARA's budget everywhere, more where temporal locality indicates an
//! ongoing attack (the paper: "it refreshes rows being tracked by the
//! history queue with higher probability than p").
//!
//! ## The Figure 7(b) weakness
//!
//! With a queue of `Q` entries, a pattern cycling through `Q/2 + 1`-plus
//! distinct aggressors produces more victims than the queue can hold, so
//! every lookup misses and MRLoc degrades to (floor-scaled) PARA — the
//! vulnerability Section V-A demonstrates with 8 aggressors vs 15 entries.

use std::collections::VecDeque;

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// MRLoc configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrlocConfig {
    /// History-queue entries (15 in the paper's Figure 7(b) analysis).
    pub queue_entries: usize,
    /// Base refresh probability (the PARA-equivalent budget).
    pub base_probability: f64,
    /// Boost multiplier applied on a queue miss (1.0 = exactly PARA's
    /// per-victim budget, the published behaviour).
    pub miss_floor: f64,
    /// Row-address width in bits (for the area report).
    pub addr_bits: u32,
}

impl MrlocConfig {
    /// The paper's configuration: 15-entry queue with PARA-0.00145's budget.
    pub fn micro2020() -> Self {
        MrlocConfig { queue_entries: 15, base_probability: 0.00145, miss_floor: 1.0, addr_bits: 16 }
    }
}

impl Default for MrlocConfig {
    fn default() -> Self {
        Self::micro2020()
    }
}

/// The MRLoc defense.
#[derive(Debug, Clone)]
pub struct Mrloc {
    config: MrlocConfig,
    /// History queue, front = newest insertion.
    queue: VecDeque<RowId>,
    rng: StdRng,
    refreshes_issued: u64,
}

impl Mrloc {
    /// Creates MRLoc with the given configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the queue size is zero or any probability parameter is
    /// outside `[0, 1]`.
    pub fn new(config: MrlocConfig, seed: u64) -> Self {
        assert!(config.queue_entries > 0, "queue must be non-empty");
        assert!(
            (0.0..=1.0).contains(&config.base_probability)
                && (0.0..=1.0).contains(&config.miss_floor),
            "probabilities must be within [0, 1]"
        );
        Mrloc {
            config,
            queue: VecDeque::with_capacity(config.queue_entries),
            rng: StdRng::seed_from_u64(seed),
            refreshes_issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MrlocConfig {
        &self.config
    }

    /// Total refreshes issued so far.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    /// Current queue occupancy (test/analysis hook).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Probability with which a victim at queue depth `d` is refreshed:
    /// boosted above PARA's per-victim `p/2`, more for fresher entries.
    fn hit_probability(&self, depth: usize) -> f64 {
        let l = self.config.queue_entries as f64;
        self.config.base_probability / 2.0 * (1.0 + (l - depth as f64) / l)
    }

    fn process_victim(&mut self, victim: RowId) -> Option<RefreshAction> {
        let found = self.queue.iter().position(|&r| r == victim);
        let p = match found {
            Some(depth) => self.hit_probability(depth),
            None => self.config.base_probability / 2.0 * self.config.miss_floor,
        };
        // Re-insert at the head (most recent locality).
        if let Some(depth) = found {
            self.queue.remove(depth);
        } else if self.queue.len() == self.config.queue_entries {
            self.queue.pop_back();
        }
        self.queue.push_front(victim);

        if p > 0.0 && self.rng.gen_bool(p.min(1.0)) {
            self.refreshes_issued += 1;
            Some(RefreshAction::Row(victim))
        } else {
            None
        }
    }
}

impl RowHammerDefense for Mrloc {
    fn name(&self) -> String {
        format!("MRLoc-{}", self.config.queue_entries)
    }

    fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        let mut actions = Vec::new();
        for victim in [RowId(row.0.saturating_sub(1)), RowId(row.0.saturating_add(1))] {
            if victim != row {
                actions.extend(self.process_victim(victim));
            }
        }
        actions
    }

    fn table_bits(&self) -> TableBits {
        TableBits {
            cam_bits: self.config.queue_entries as u64 * u64::from(self.config.addr_bits),
            sram_bits: 0,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.refreshes_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrloc(base: f64) -> Mrloc {
        Mrloc::new(MrlocConfig { base_probability: base, ..MrlocConfig::micro2020() }, 11)
    }

    #[test]
    fn repeated_hammer_gets_boosted_probability() {
        // One aggressor hammered continuously: its victims are always at the
        // queue head, so the refresh rate approaches base_probability per
        // victim — well above the miss floor.
        let mut m = mrloc(0.01);
        let n = 200_000u64;
        let mut refreshes = 0u64;
        for i in 0..n {
            refreshes += m.on_activation(RowId(500), i).len() as u64;
        }
        let per_victim_rate = refreshes as f64 / (2.0 * n as f64);
        // Victims sit at depths 0/1 → expected ≈ (p/2)·(1 + ~14.5/15) ≈ p.
        assert!(per_victim_rate > 0.009, "rate {per_victim_rate}");
    }

    #[test]
    fn queue_overflow_degrades_to_floor() {
        // The Figure 7(b) attack: 8 distinct aggressors → 16 victims > 15
        // entries → every lookup misses → rate = base × floor.
        let cfg = MrlocConfig { base_probability: 0.01, ..MrlocConfig::micro2020() };
        let mut m = Mrloc::new(cfg, 3);
        let n = 400_000u64;
        let mut refreshes = 0u64;
        for i in 0..n {
            let aggressor = RowId(((i % 8) * 10) as u32 + 100);
            refreshes += m.on_activation(aggressor, i).len() as u64;
        }
        let per_victim_rate = refreshes as f64 / (2.0 * n as f64);
        // All lookups miss → exactly PARA's per-victim p/2, the paper's
        // conclusion that overflowed MRLoc equals PARA.
        assert!(
            (per_victim_rate - 0.005).abs() < 0.0005,
            "rate {per_victim_rate} should equal PARA's p/2 = 0.005"
        );
    }

    #[test]
    fn seven_aggressors_fit_and_keep_locality() {
        // 7 aggressors → 14 victims ≤ 15 entries: hits persist and the rate
        // stays clearly above the floor (contrast with the overflow test).
        let cfg = MrlocConfig { base_probability: 0.01, ..MrlocConfig::micro2020() };
        let mut m = Mrloc::new(cfg, 3);
        let n = 400_000u64;
        let mut refreshes = 0u64;
        for i in 0..n {
            let aggressor = RowId(((i % 7) * 10) as u32 + 100);
            refreshes += m.on_activation(aggressor, i).len() as u64;
        }
        let per_victim_rate = refreshes as f64 / (2.0 * n as f64);
        // Re-encounter depth ≈ 13 → boost ≈ 1 + 2/15 ≈ 1.13× PARA's p/2.
        assert!(per_victim_rate > 0.00525, "rate {per_victim_rate} should beat PARA's p/2");
    }

    #[test]
    fn queue_bounded() {
        let mut m = mrloc(0.001);
        for i in 0..1000u64 {
            m.on_activation(RowId((i % 100) as u32 * 3 + 5), i);
            assert!(m.queue_len() <= 15);
        }
    }

    #[test]
    fn hit_probability_decreases_with_depth() {
        let m = mrloc(0.01);
        assert!(m.hit_probability(0) > m.hit_probability(7));
        assert!(m.hit_probability(7) > m.hit_probability(14));
    }

    #[test]
    fn area_is_queue_times_addr_bits() {
        assert_eq!(mrloc(0.001).table_bits().total(), 15 * 16);
    }

    #[test]
    fn reset_clears_queue() {
        let mut m = mrloc(0.5);
        m.on_activation(RowId(9), 0);
        m.reset();
        assert_eq!(m.queue_len(), 0);
        assert_eq!(m.refreshes_issued(), 0);
    }
}
