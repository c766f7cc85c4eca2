//! Refresh-rate scaling — the industry's first-response mitigation.
//!
//! After the 2014 disclosure, BIOS/UEFI vendors shipped patches that simply
//! raised the DRAM refresh rate (Section II-B of the paper). Refreshing
//! every row `k×` per tREFW divides the window an aggressor has to
//! accumulate ACTs by `k`, effectively multiplying the tolerated Row Hammer
//! threshold — but it is not a guarantee (a fast attacker can still beat
//! the shortened window when `T_RH` is low) and it costs refresh energy
//! proportional to `k − 1` on *every* bank at *all* times, which the paper
//! notes is why the rate "cannot be raised high enough".
//!
//! The model rides on the controller's refresh tick: at every tREFI it
//! refreshes `(k − 1)` extra rotation bursts from its own pointer, exactly
//! like issuing the REF command `k` times as often.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// The refresh-rate-scaling baseline.
///
/// # Example
///
/// ```
/// use mitigations::{refresh_rate::RefreshRateScaling, RowHammerDefense};
///
/// let mut d = RefreshRateScaling::new(2, 65_536, 8);
/// // Each tick refreshes one extra burst of 8 rows (2× the base rate).
/// assert_eq!(d.on_refresh_tick(0).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshRateScaling {
    /// Total refresh-rate multiplier (`k ≥ 1`; 1 = no extra refreshes).
    factor: u32,
    rows_per_bank: u32,
    rows_per_burst: u32,
    pointer: u32,
    extra_rows_issued: u64,
}

impl RefreshRateScaling {
    /// Scales the refresh rate by `factor` on a bank of `rows_per_bank`
    /// rows, with `rows_per_burst` rows restored per REF (8 for the paper's
    /// bank).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`, `rows_per_bank == 0` or `rows_per_burst == 0`.
    pub fn new(factor: u32, rows_per_bank: u32, rows_per_burst: u32) -> Self {
        assert!(factor >= 1, "factor must be at least 1");
        assert!(rows_per_bank > 0 && rows_per_burst > 0, "bank must be non-empty");
        RefreshRateScaling {
            factor,
            rows_per_bank,
            rows_per_burst,
            pointer: 0,
            extra_rows_issued: 0,
        }
    }

    /// The configured rate multiplier.
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Extra rows refreshed so far (beyond the base rate).
    pub fn extra_rows_issued(&self) -> u64 {
        self.extra_rows_issued
    }
}

impl RowHammerDefense for RefreshRateScaling {
    fn name(&self) -> String {
        format!("RefreshRate-{}x", self.factor)
    }

    fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        Vec::new()
    }

    fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
        let mut actions = Vec::new();
        for _ in 1..self.factor {
            actions.push(RefreshAction::Range {
                start: RowId(self.pointer),
                count: self.rows_per_burst,
            });
            self.extra_rows_issued += u64::from(self.rows_per_burst);
            self.pointer = (self.pointer + self.rows_per_burst) % self.rows_per_bank;
        }
        actions
    }

    fn table_bits(&self) -> TableBits {
        // Only the rotation pointer: one row address register.
        TableBits { cam_bits: 0, sram_bits: 16 }
    }

    fn reset(&mut self) {
        self.pointer = 0;
        self.extra_rows_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_one_is_free() {
        let mut d = RefreshRateScaling::new(1, 65_536, 8);
        assert!(d.on_refresh_tick(0).is_empty());
        assert_eq!(d.extra_rows_issued(), 0);
    }

    #[test]
    fn doubling_refreshes_one_extra_burst_per_tick() {
        let mut d = RefreshRateScaling::new(2, 65_536, 8);
        for i in 0..8_205u64 {
            let a = d.on_refresh_tick(i);
            assert_eq!(a.len(), 1);
            assert_eq!(a[0].row_count(65_536), 8);
        }
        // One full tREFW of ticks refreshes ~the whole bank once extra.
        assert_eq!(d.extra_rows_issued(), 8_205 * 8);
    }

    #[test]
    fn rotation_covers_every_row() {
        let mut d = RefreshRateScaling::new(2, 64, 8);
        let mut seen = [false; 64];
        for i in 0..8u64 {
            for a in d.on_refresh_tick(i) {
                for r in a.rows(64) {
                    seen[r.0 as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn quadrupling_issues_three_bursts() {
        let mut d = RefreshRateScaling::new(4, 65_536, 8);
        assert_eq!(d.on_refresh_tick(0).len(), 3);
    }

    #[test]
    fn energy_cost_dwarfs_graphene() {
        // The paper's point: doubling the rate costs ~100% extra refresh
        // energy; Graphene's worst case is 0.34%. Extra rows per tREFW at
        // factor 2 equals the whole bank (65,536 rows) vs Graphene's 324.
        let mut d = RefreshRateScaling::new(2, 65_536, 8);
        for i in 0..8_205u64 {
            d.on_refresh_tick(i);
        }
        assert!(d.extra_rows_issued() > 65_000);
        assert!(d.extra_rows_issued() > 200 * 324);
    }

    #[test]
    fn near_stateless_hardware() {
        assert!(RefreshRateScaling::new(2, 65_536, 8).table_bits().total() <= 16);
    }
}
