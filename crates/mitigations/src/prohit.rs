//! PRoHIT — probabilistic history tables (Son et al., DAC 2017).
//!
//! PRoHIT keeps two small tables of *victim-row candidates*: a **hot** table,
//! ordered by (approximate) access frequency, and a **cold** table acting as
//! a probation stage. On each ACT, with insertion probability `q`, the
//! activated row's victims enter the tables: a cold hit promotes the entry to
//! the hot table, a hot hit moves the entry one position toward the front,
//! and a complete miss inserts into the cold table (evicting the most recent
//! cold entry per the original paper's tail-insertion). At every periodic
//! refresh tick the front (hottest) entry is refreshed and retired.
//!
//! ## Fidelity note (see DESIGN.md §4)
//!
//! The DAC paper under-specifies several constants; this implementation
//! follows the published table-management rules and exposes the sizes and
//! probability as [`ProhitConfig`]. The property the Graphene paper
//! reproduces — that the Figure 7(a) pattern `{x−4, x−2, x−2, x, x, x, x+2,
//! x+2, x+4}` starves the less-frequently hammered victims `x±5` because
//! frequency-ordered refresh always prefers the hotter candidates — is a
//! property of these rules, not of the constants.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// PRoHIT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProhitConfig {
    /// Hot-table entries.
    pub hot_entries: usize,
    /// Cold-table entries.
    pub cold_entries: usize,
    /// Probability of processing an ACT's victims into the tables.
    pub insert_probability: f64,
    /// Row-address width in bits (for the area report).
    pub addr_bits: u32,
}

impl ProhitConfig {
    /// The configuration of the paper's Figure 7(a): 7 entries total
    /// (4 hot + 3 cold), with the insertion probability calibrated so the
    /// extra-refresh budget matches PARA-0.00145 (one refresh slot per tick).
    pub fn micro2020() -> Self {
        ProhitConfig { hot_entries: 4, cold_entries: 3, insert_probability: 0.01, addr_bits: 16 }
    }
}

impl Default for ProhitConfig {
    fn default() -> Self {
        Self::micro2020()
    }
}

/// The PRoHIT defense.
#[derive(Debug, Clone)]
pub struct Prohit {
    config: ProhitConfig,
    /// Hot table, front = hottest.
    hot: Vec<RowId>,
    /// Cold (probation) table, front = oldest.
    cold: Vec<RowId>,
    rng: StdRng,
    refreshes_issued: u64,
}

impl Prohit {
    /// Creates PRoHIT with the given configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if either table size is zero or the probability is outside
    /// `[0, 1]`.
    pub fn new(config: ProhitConfig, seed: u64) -> Self {
        assert!(config.hot_entries > 0 && config.cold_entries > 0, "tables must be non-empty");
        assert!(
            (0.0..=1.0).contains(&config.insert_probability),
            "insert probability must be within [0, 1]"
        );
        Prohit {
            config,
            hot: Vec::with_capacity(config.hot_entries),
            cold: Vec::with_capacity(config.cold_entries),
            rng: StdRng::seed_from_u64(seed),
            refreshes_issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProhitConfig {
        &self.config
    }

    /// Total refreshes issued so far.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    /// Current hot-table contents, hottest first (test/analysis hook).
    pub fn hot_candidates(&self) -> &[RowId] {
        &self.hot
    }

    fn record_victim(&mut self, victim: RowId) {
        if let Some(pos) = self.hot.iter().position(|&r| r == victim) {
            // Hot hit: move one position toward the front.
            if pos > 0 {
                self.hot.swap(pos, pos - 1);
            }
        } else if let Some(pos) = self.cold.iter().position(|&r| r == victim) {
            // Cold hit: promote to the tail of the hot table.
            self.cold.remove(pos);
            if self.hot.len() == self.config.hot_entries {
                // Demote the hot tail back to cold.
                let demoted = self.hot.pop().expect("hot table is full, hence non-empty");
                self.push_cold(demoted);
            }
            self.hot.push(victim);
        } else {
            self.push_cold(victim);
        }
    }

    fn push_cold(&mut self, victim: RowId) {
        if self.cold.len() == self.config.cold_entries {
            // Tail replacement: the newest probation entry is displaced.
            self.cold.pop();
        }
        self.cold.push(victim);
    }
}

impl RowHammerDefense for Prohit {
    fn name(&self) -> String {
        format!("PRoHIT-{}", self.config.hot_entries + self.config.cold_entries)
    }

    fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        if self.config.insert_probability > 0.0 && self.rng.gen_bool(self.config.insert_probability)
        {
            self.record_victim(RowId(row.0.saturating_sub(1)));
            self.record_victim(RowId(row.0.saturating_add(1)));
        }
        Vec::new()
    }

    fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
        // Spend the refresh slot on the hottest candidate.
        if self.hot.is_empty() {
            Vec::new()
        } else {
            let victim = self.hot.remove(0);
            self.refreshes_issued += 1;
            vec![RefreshAction::Row(victim)]
        }
    }

    fn table_bits(&self) -> TableBits {
        let entries = (self.config.hot_entries + self.config.cold_entries) as u64;
        TableBits { cam_bits: entries * u64::from(self.config.addr_bits), sram_bits: 0 }
    }

    fn reset(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.refreshes_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prohit_always_insert() -> Prohit {
        Prohit::new(ProhitConfig { insert_probability: 1.0, ..ProhitConfig::micro2020() }, 1)
    }

    #[test]
    fn victims_enter_cold_then_promote_to_hot() {
        let mut p = prohit_always_insert();
        p.on_activation(RowId(100), 0); // victims 99, 101 → cold
        assert!(p.hot_candidates().is_empty());
        p.on_activation(RowId(100), 1); // cold hits → promoted
        assert_eq!(p.hot_candidates().len(), 2);
    }

    #[test]
    fn refresh_tick_takes_hottest() {
        let mut p = prohit_always_insert();
        for i in 0..6 {
            p.on_activation(RowId(100), i); // 99/101 promoted then bubbled up
        }
        let a = p.on_refresh_tick(100);
        assert_eq!(a.len(), 1);
        assert!(matches!(a[0], RefreshAction::Row(r) if r.0 == 99 || r.0 == 101));
        assert_eq!(p.refreshes_issued(), 1);
    }

    #[test]
    fn empty_hot_table_spends_no_refresh() {
        let mut p = prohit_always_insert();
        assert!(p.on_refresh_tick(0).is_empty());
        assert_eq!(p.refreshes_issued(), 0);
    }

    #[test]
    fn frequent_victims_rank_above_rare_ones() {
        // The root cause of the Figure 7(a) vulnerability: victims hammered
        // more often sit closer to the front, so rare-but-hammered victims
        // (x±5 in the paper's pattern) starve.
        let mut p = prohit_always_insert();
        // Row 10's victims recorded 8 times, row 50's victims twice.
        for i in 0..8 {
            p.on_activation(RowId(10), i);
        }
        for i in 8..10 {
            p.on_activation(RowId(50), i);
        }
        let hot = p.hot_candidates();
        let pos_frequent =
            hot.iter().position(|&r| r == RowId(9) || r == RowId(11)).expect("tracked");
        let pos_rare = hot.iter().position(|&r| r == RowId(49) || r == RowId(51));
        if let Some(pos_rare) = pos_rare {
            assert!(pos_frequent < pos_rare, "frequent victim must rank first");
        }
    }

    #[test]
    fn tables_never_exceed_capacity() {
        let mut p = prohit_always_insert();
        for i in 0..1000u64 {
            p.on_activation(RowId((i % 37) as u32 * 2 + 200), i);
            assert!(p.hot.len() <= p.config.hot_entries);
            assert!(p.cold.len() <= p.config.cold_entries);
        }
    }

    #[test]
    fn area_report_counts_entries() {
        let p = prohit_always_insert();
        assert_eq!(p.table_bits().total(), 7 * 16);
    }

    #[test]
    fn reset_clears_tables() {
        let mut p = prohit_always_insert();
        p.on_activation(RowId(5), 0);
        p.reset();
        assert!(p.hot.is_empty() && p.cold.is_empty());
    }
}
