//! In-DRAM Target Row Refresh (TRR) — the vendor mitigation TRRespass broke.
//!
//! The paper's motivation leans on TRRespass (Frigo et al., S&P 2020,
//! reference \[16\]): even the latest DDR4 DIMMs with in-DRAM TRR "are still
//! susceptible to Row Hammer under specific memory access patterns", because
//! the mitigation tracks only a handful of aggressor candidates. This module
//! models that class of defense so the repository can demonstrate *why* the
//! paper's threat model assumes TRR-like samplers fail:
//!
//! * a **sampler** with `sampler_slots` entries watches the ACT stream;
//!   a hit increments the slot, a miss takes a free slot or (probabilistically)
//!   steals the coldest one — mirroring the limited per-interval tracking
//!   TRRespass reverse-engineered;
//! * on every refresh tick, the hottest sampled row's neighbours are
//!   refreshed and the sampler clears (TRR piggybacks on REF).
//!
//! With 1–4 slots, hammering `slots + 1` or more aggressors in rotation (the
//! many-sided pattern of `workloads::NSidedAttack`) keeps each slot's
//! counts balanced and the true victim starved — the TRRespass effect, which
//! the integration tests reproduce against the fault oracle while Graphene
//! survives the same stream.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// TRR sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrrConfig {
    /// Sampler entries (TRRespass found 1-16 on real DIMMs; 4 is typical).
    pub sampler_slots: usize,
    /// Probability that a miss steals the coldest slot (models the
    /// sub-sampling real implementations use to bound update energy).
    pub steal_probability: f64,
    /// Row-address width (for the area report).
    pub addr_bits: u32,
}

impl TrrConfig {
    /// A typical DDR4 in-DRAM TRR: 4 sampler slots.
    pub fn ddr4_typical() -> Self {
        TrrConfig { sampler_slots: 4, steal_probability: 0.1, addr_bits: 16 }
    }
}

impl Default for TrrConfig {
    fn default() -> Self {
        Self::ddr4_typical()
    }
}

/// The in-DRAM TRR sampler defense.
#[derive(Debug, Clone)]
pub struct TrrSampler {
    config: TrrConfig,
    /// (row, count) sampler slots.
    slots: Vec<(RowId, u64)>,
    rng: StdRng,
    refreshes_issued: u64,
}

impl TrrSampler {
    /// Creates the sampler.
    ///
    /// # Panics
    ///
    /// Panics if there are no slots or the steal probability is not in
    /// `[0, 1]`.
    pub fn new(config: TrrConfig, seed: u64) -> Self {
        assert!(config.sampler_slots > 0, "need at least one sampler slot");
        assert!(
            (0.0..=1.0).contains(&config.steal_probability),
            "steal probability must be within [0, 1]"
        );
        TrrSampler {
            config,
            slots: Vec::with_capacity(config.sampler_slots),
            rng: StdRng::seed_from_u64(seed),
            refreshes_issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrrConfig {
        &self.config
    }

    /// NRR-style refreshes issued at refresh ticks.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    /// Currently sampled rows (test hook).
    pub fn sampled_rows(&self) -> Vec<RowId> {
        self.slots.iter().map(|&(r, _)| r).collect()
    }
}

impl RowHammerDefense for TrrSampler {
    fn name(&self) -> String {
        format!("TRR-{}", self.config.sampler_slots)
    }

    fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        if let Some(slot) = self.slots.iter_mut().find(|(r, _)| *r == row) {
            slot.1 += 1;
        } else if self.slots.len() < self.config.sampler_slots {
            self.slots.push((row, 1));
        } else if self.config.steal_probability > 0.0
            && self.rng.gen_bool(self.config.steal_probability)
        {
            let coldest = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, c))| c)
                .map(|(i, _)| i)
                .expect("slots are full, hence non-empty");
            self.slots[coldest] = (row, 1);
        }
        Vec::new()
    }

    fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
        // Refresh the hottest sampled aggressor's neighbours; clear the
        // sampler for the next interval.
        let hottest = self.slots.iter().max_by_key(|&&(_, c)| c).map(|&(r, _)| r);
        self.slots.clear();
        match hottest {
            Some(aggressor) => {
                self.refreshes_issued += 1;
                vec![RefreshAction::Neighbors { aggressor, radius: 1 }]
            }
            None => Vec::new(),
        }
    }

    fn table_bits(&self) -> TableBits {
        // Per slot: address plus a small saturating counter (8 bits).
        TableBits {
            cam_bits: self.config.sampler_slots as u64 * u64::from(self.config.addr_bits),
            sram_bits: self.config.sampler_slots as u64 * 8,
        }
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.refreshes_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trr() -> TrrSampler {
        TrrSampler::new(TrrConfig::ddr4_typical(), 5)
    }

    #[test]
    fn single_aggressor_is_caught() {
        let mut t = trr();
        for i in 0..100u64 {
            t.on_activation(RowId(40), i);
        }
        let a = t.on_refresh_tick(100);
        assert_eq!(a, vec![RefreshAction::Neighbors { aggressor: RowId(40), radius: 1 }]);
    }

    #[test]
    fn sampler_clears_each_tick() {
        let mut t = trr();
        t.on_activation(RowId(1), 0);
        t.on_refresh_tick(1);
        assert!(t.sampled_rows().is_empty());
        assert!(t.on_refresh_tick(2).is_empty());
    }

    #[test]
    fn slots_bounded() {
        let mut t = trr();
        for i in 0..1000u64 {
            t.on_activation(RowId((i % 100) as u32), i);
            assert!(t.sampled_rows().len() <= 4);
        }
    }

    #[test]
    fn only_one_refresh_per_tick() {
        // The structural weakness: whatever happens within the interval, at
        // most one aggressor's neighbours are refreshed per REF.
        let mut t = trr();
        for i in 0..1000u64 {
            t.on_activation(RowId((i % 3) as u32 * 10), i);
        }
        assert_eq!(t.on_refresh_tick(1000).len(), 1);
    }

    #[test]
    fn many_sided_rotation_splits_attention() {
        // 8 aggressors with 4 slots: at most half can be sampled at any tick,
        // so over many ticks each aggressor is refreshed at most ~1/8 of the
        // time — the TRRespass dilution.
        let mut t = trr();
        let mut refreshed: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut act = 0u64;
        for tick in 0..400u64 {
            for _ in 0..165 {
                t.on_activation(RowId(((act % 8) * 10) as u32), act);
                act += 1;
            }
            for a in t.on_refresh_tick(tick) {
                if let RefreshAction::Neighbors { aggressor, .. } = a {
                    *refreshed.entry(aggressor.0).or_insert(0) += 1;
                }
            }
        }
        // Every refresh went to one of the 8 aggressors; none can dominate.
        let max = refreshed.values().copied().max().unwrap_or(0);
        assert!(max <= 400 / 2, "one aggressor absorbed {max} of 400 ticks");
    }

    #[test]
    fn tiny_area() {
        assert!(trr().table_bits().total() < 200);
    }

    #[test]
    fn reset_clears() {
        let mut t = trr();
        t.on_activation(RowId(1), 0);
        t.reset();
        assert!(t.sampled_rows().is_empty());
    }
}
