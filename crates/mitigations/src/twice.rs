//! TWiCe — Time Window Counters (Lee et al., ISCA 2019).
//!
//! TWiCe allocates a counter entry per activated row and *prunes* entries
//! whose activation rate proves they can never reach the Row Hammer
//! threshold within the refresh window. Each entry holds an activation count
//! and a lifetime (in pruning intervals, one per tREFI):
//!
//! * **ACT**: allocate/increment; if the count reaches `th_RH = T_RH/4`, the
//!   row's neighbours are refreshed and the entry retires.
//! * **tREFI tick**: every entry ages by one; entries with
//!   `act_cnt < life · th_PRU` are pruned, where
//!   `th_PRU = th_RH / (tREFW/tREFI)` is the rate a row must sustain to be
//!   dangerous.
//!
//! Because pruning leverages the bounded ACT bandwidth of a bank, the live
//! table stays far smaller than one-counter-per-row — but, as the Graphene
//! paper's Table IV shows, still an order of magnitude larger than
//! Graphene's table. [`TwiceConfig::analytic_max_entries`] computes the
//! provisioned table size from the same rate argument (a harmonic-series
//! bound), which drives the area model.

use std::collections::HashMap;

use dram_model::geometry::RowId;
use dram_model::timing::{DramTiming, Picoseconds};

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// TWiCe configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwiceConfig {
    /// Row Hammer threshold `T_RH`.
    pub row_hammer_threshold: u64,
    /// DRAM timing (tREFI spacing of pruning, tREFW window).
    pub timing: DramTiming,
    /// Row-address width (for the area report).
    pub addr_bits: u32,
}

impl TwiceConfig {
    /// Paper configuration at `T_RH` = 50K, DDR4-2400.
    pub fn micro2020() -> Self {
        TwiceConfig { row_hammer_threshold: 50_000, timing: DramTiming::ddr4_2400(), addr_bits: 16 }
    }

    /// Same defaults with another threshold (Figure 9 scaling).
    pub fn with_threshold(t_rh: u64) -> Self {
        TwiceConfig { row_hammer_threshold: t_rh, ..Self::micro2020() }
    }

    /// Victim-refresh threshold `th_RH = T_RH / 4` (double-sided hammering
    /// plus refresh-phase uncertainty, as in Graphene's derivation).
    pub fn th_rh(&self) -> u64 {
        (self.row_hammer_threshold / 4).max(1)
    }

    /// Pruning intervals per refresh window (`tREFW / tREFI` = 8205).
    pub fn intervals_per_window(&self) -> u64 {
        self.timing.refresh_commands_per_window()
    }

    /// Pruning rate threshold `th_PRU = th_RH / (tREFW/tREFI)`: the minimum
    /// ACTs-per-interval a row must sustain to stay tracked.
    pub fn th_pru(&self) -> f64 {
        self.th_rh() as f64 / self.intervals_per_window() as f64
    }

    /// Maximum ACTs a bank can serve per pruning interval.
    pub fn acts_per_interval(&self) -> u64 {
        (self.timing.t_refi - self.timing.t_rfc) / self.timing.t_rc
    }

    /// Analytic bound on concurrently live entries: entries aged `l`
    /// intervals must each have sustained `l·th_PRU` ACTs, and only
    /// `acts_per_interval` ACTs arrive per interval — summing the per-age
    /// caps gives the harmonic-series bound the table is provisioned for.
    pub fn analytic_max_entries(&self) -> u64 {
        let acts = self.acts_per_interval() as f64;
        let th_pru = self.th_pru();
        let mut total = 0.0;
        for l in 1..=self.intervals_per_window() {
            total += acts.min(acts / (th_pru * l as f64));
        }
        total.ceil() as u64
    }

    /// Per-bank table bits: CAM holds valid bit + row address; SRAM holds the
    /// activation and life counters.
    pub fn table_bits(&self) -> TableBits {
        let entries = self.analytic_max_entries();
        let act_bits = dram_model::geometry::bits_for(self.th_rh() + 1);
        let life_bits = dram_model::geometry::bits_for(self.intervals_per_window() + 1);
        TableBits {
            cam_bits: entries * u64::from(self.addr_bits + 1),
            sram_bits: entries * u64::from(act_bits + life_bits),
        }
    }
}

impl Default for TwiceConfig {
    fn default() -> Self {
        Self::micro2020()
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TwiceEntry {
    act_cnt: u64,
    life: u64,
}

/// The TWiCe defense for one bank.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{RowHammerDefense, Twice, TwiceConfig};
///
/// let mut twice = Twice::new(TwiceConfig::micro2020());
/// let th = twice.config().th_rh();
/// let mut refreshed = false;
/// for i in 0..th {
///     if !twice.on_activation(RowId(3), i * 45_000).is_empty() {
///         refreshed = true;
///     }
/// }
/// assert!(refreshed); // victim refresh by th_RH activations
/// ```
#[derive(Debug, Clone)]
pub struct Twice {
    config: TwiceConfig,
    entries: HashMap<RowId, TwiceEntry>,
    max_occupancy: usize,
    refreshes_issued: u64,
}

impl Twice {
    /// Creates TWiCe for one bank.
    pub fn new(config: TwiceConfig) -> Self {
        Twice { config, entries: HashMap::new(), max_occupancy: 0, refreshes_issued: 0 }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TwiceConfig {
        &self.config
    }

    /// Currently live entries.
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// Peak live entries observed (to validate the analytic bound).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Victim refreshes issued.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }
}

impl RowHammerDefense for Twice {
    fn name(&self) -> String {
        "TWiCe".to_owned()
    }

    fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        let entry = self.entries.entry(row).or_default();
        entry.act_cnt += 1;
        let fire = entry.act_cnt >= self.config.th_rh();
        if fire {
            self.entries.remove(&row);
            self.refreshes_issued += 1;
            vec![RefreshAction::Neighbors { aggressor: row, radius: 1 }]
        } else {
            self.max_occupancy = self.max_occupancy.max(self.entries.len());
            Vec::new()
        }
    }

    fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
        let th_pru = self.config.th_pru();
        self.entries.retain(|_, e| {
            e.life += 1;
            e.act_cnt as f64 >= e.life as f64 * th_pru
        });
        Vec::new()
    }

    fn table_bits(&self) -> TableBits {
        self.config.table_bits()
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.refreshes_issued = 0;
        self.max_occupancy = 0;
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        // Deterministic target selection: the slot index picks among live
        // entries in row order (HashMap iteration order would leak hasher
        // state into the experiment).
        let mut rows: Vec<RowId> = self.entries.keys().copied().collect();
        rows.sort_unstable();
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                if rows.is_empty() {
                    return false;
                }
                let row = rows[slot as usize % rows.len()];
                let width = (64 - self.config.th_rh().leading_zeros()).max(1);
                self.entries.get_mut(&row).expect("picked from live keys").act_cnt ^=
                    1 << (bit % width);
                true
            }
            faultsim::TrackerFault::AddrBitFlip { slot, bit } => {
                if rows.is_empty() {
                    return false;
                }
                let row = rows[slot as usize % rows.len()];
                let entry = self.entries.remove(&row).expect("picked from live keys");
                // If the corrupted address collides with a live entry, the
                // CAM keeps the existing one and the corrupted copy is lost.
                self.entries.entry(RowId(row.0 ^ (1 << (bit % 32)))).or_insert(entry);
                true
            }
            // TWiCe has no spillover register, and its lookup path is not
            // modeled at CAM granularity.
            faultsim::TrackerFault::SpilloverBitFlip { .. }
            | faultsim::TrackerFault::LookupMiss => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hammered_row_refreshed_at_th_rh() {
        let mut t = Twice::new(TwiceConfig::with_threshold(4000)); // th_RH = 1000
        for i in 0..999u64 {
            assert!(t.on_activation(RowId(9), i).is_empty());
        }
        let a = t.on_activation(RowId(9), 999);
        assert_eq!(a, vec![RefreshAction::Neighbors { aggressor: RowId(9), radius: 1 }]);
        // Entry retires: counting starts over.
        assert!(t.on_activation(RowId(9), 1000).is_empty());
    }

    #[test]
    fn cold_rows_pruned_quickly() {
        let mut t = Twice::new(TwiceConfig::micro2020());
        // 100 rows touched once: below the pruning rate (th_PRU ≈ 1.52/interval).
        for i in 0..100u64 {
            t.on_activation(RowId(i as u32), i);
        }
        assert_eq!(t.live_entries(), 100);
        t.on_refresh_tick(0);
        // act_cnt 1 < 1 × 1.52 → all pruned after one interval.
        assert_eq!(t.live_entries(), 0);
    }

    #[test]
    fn sustained_hammer_survives_pruning() {
        let mut t = Twice::new(TwiceConfig::micro2020());
        // 10 ACTs per interval is far above th_PRU ≈ 1.52.
        for interval in 0..50u64 {
            for j in 0..10u64 {
                t.on_activation(RowId(77), interval * 100 + j);
            }
            t.on_refresh_tick(interval);
            assert_eq!(t.live_entries(), 1, "interval {interval}");
        }
    }

    #[test]
    fn occupancy_stays_below_analytic_bound_under_stress() {
        let cfg = TwiceConfig::micro2020();
        let bound = cfg.analytic_max_entries();
        let mut t = Twice::new(cfg);
        let acts = cfg.acts_per_interval();
        // Adversarial allocator: every interval touches as many distinct rows
        // as bandwidth allows, plus keeps a few rows persistently hot.
        for interval in 0..2000u64 {
            for j in 0..acts {
                let row = if j < 8 {
                    RowId((j * 2) as u32) // persistent
                } else {
                    RowId(((interval * acts + j) % 60_000) as u32 + 100)
                };
                t.on_activation(row, interval * 1000 + j);
            }
            t.on_refresh_tick(interval);
        }
        assert!(
            (t.max_occupancy() as u64) <= bound,
            "occupancy {} exceeded analytic bound {bound}",
            t.max_occupancy()
        );
    }

    #[test]
    fn analytic_entries_order_of_magnitude_of_paper() {
        // The paper's TWiCe table (Table IV) is ~36K bits/bank; our
        // rate-argument provisioning lands in the same order of magnitude and
        // preserves the headline: an order of magnitude above Graphene's 2,511.
        let bits = TwiceConfig::micro2020().table_bits().total();
        assert!(bits > 20_000 && bits < 80_000, "bits {bits}");
        assert!(bits > 10 * 2_511);
    }

    #[test]
    fn table_scales_inversely_with_threshold() {
        let big = TwiceConfig::with_threshold(50_000).analytic_max_entries();
        let small = TwiceConfig::with_threshold(6_250).analytic_max_entries();
        let ratio = small as f64 / big as f64;
        assert!(ratio > 4.0, "halving T_RH thrice should grow entries ~8×, got {ratio}");
    }

    #[test]
    fn reset_clears() {
        let mut t = Twice::new(TwiceConfig::micro2020());
        t.on_activation(RowId(1), 0);
        t.reset();
        assert_eq!(t.live_entries(), 0);
    }
}
