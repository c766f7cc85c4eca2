//! Ideal per-row counters — the precision oracle.
//!
//! One exact counter per row, reset every refresh window, firing a victim
//! refresh at `T_RH / 4` (the same safe threshold every sound scheme must
//! respect given double-sided hammering and refresh-phase uncertainty).
//! Unbuildable at scale — a 64K-row bank would need 64K × 14-bit counters —
//! but invaluable as a baseline: any false positive a realistic scheme avoids
//! relative to this oracle is a genuine saving, and its area number anchors
//! the "why not a counter per row" motivation.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// Exact per-row counting defense.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{IdealCounters, RowHammerDefense};
///
/// let mut ideal = IdealCounters::new(50_000, 65_536, 64_000_000_000);
/// assert!(ideal.on_activation(RowId(7), 0).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IdealCounters {
    threshold: u64,
    rows_per_bank: u32,
    reset_window: Picoseconds,
    counts: Vec<u32>,
    current_window: u64,
    refreshes_issued: u64,
}

impl IdealCounters {
    /// Creates the oracle for a bank: fires at `t_rh / 4`, resets each
    /// `reset_window`.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh < 4` or the bank is empty.
    pub fn new(t_rh: u64, rows_per_bank: u32, reset_window: Picoseconds) -> Self {
        assert!(t_rh >= 4, "threshold too small");
        assert!(rows_per_bank > 0, "bank must have rows");
        IdealCounters {
            threshold: t_rh / 4,
            rows_per_bank,
            reset_window,
            counts: vec![0; rows_per_bank as usize],
            current_window: 0,
            refreshes_issued: 0,
        }
    }

    /// The firing threshold (`T_RH / 4`).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Victim refreshes issued.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }
}

impl RowHammerDefense for IdealCounters {
    fn name(&self) -> String {
        "Ideal".to_owned()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        let window = now / self.reset_window;
        if window != self.current_window {
            self.counts.iter_mut().for_each(|c| *c = 0);
            self.current_window = window;
        }
        let c = &mut self.counts[row.0 as usize];
        *c += 1;
        if u64::from(*c) >= self.threshold {
            *c = 0;
            self.refreshes_issued += 1;
            vec![RefreshAction::Neighbors { aggressor: row, radius: 1 }]
        } else {
            Vec::new()
        }
    }

    fn table_bits(&self) -> TableBits {
        let count_bits = dram_model::geometry::bits_for(self.threshold + 1);
        TableBits { cam_bits: 0, sram_bits: u64::from(self.rows_per_bank) * u64::from(count_bits) }
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.refreshes_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_quarter_threshold() {
        let mut d = IdealCounters::new(400, 64, 1_000_000);
        for i in 0..99u64 {
            assert!(d.on_activation(RowId(5), i).is_empty());
        }
        assert_eq!(
            d.on_activation(RowId(5), 99),
            vec![RefreshAction::Neighbors { aggressor: RowId(5), radius: 1 }]
        );
    }

    #[test]
    fn counter_resets_after_fire() {
        let mut d = IdealCounters::new(400, 64, u64::MAX);
        for i in 0..100u64 {
            d.on_activation(RowId(5), i);
        }
        for i in 100..199u64 {
            assert!(d.on_activation(RowId(5), i).is_empty());
        }
        assert!(!d.on_activation(RowId(5), 199).is_empty());
        assert_eq!(d.refreshes_issued(), 2);
    }

    #[test]
    fn window_reset_zeroes_counts() {
        let mut d = IdealCounters::new(400, 64, 1_000);
        for i in 0..99u64 {
            d.on_activation(RowId(5), i % 1000);
        }
        // Next window: count starts over.
        assert!(d.on_activation(RowId(5), 1_000).is_empty());
    }

    #[test]
    fn zero_false_positives_on_spread_traffic() {
        let mut d = IdealCounters::new(50_000, 4096, u64::MAX);
        for i in 0..1_000_000u64 {
            let r = RowId((i % 4096) as u32);
            assert!(d.on_activation(r, i).is_empty());
        }
        assert_eq!(d.refreshes_issued(), 0);
    }

    #[test]
    fn area_is_rows_times_count_bits() {
        let d = IdealCounters::new(50_000, 65_536, 1);
        // threshold 12_500 → 14 bits × 64K rows.
        assert_eq!(d.table_bits().total(), 65_536 * 14);
    }
}
