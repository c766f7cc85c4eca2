//! Per-bank DRAM device model.
//!
//! [`BankDevice`] ties together the auto-refresh engine and the fault oracle:
//! feed it timestamped [`DramCommand`]s and it maintains ground truth about
//! which rows would have flipped. It is deliberately *not* a timing checker —
//! the memory controller (the `memctrl` crate) owns timing legality; the
//! device owns data integrity.

use crate::command::DramCommand;
use crate::data::{DataPattern, DataShadow};
use crate::error::DramError;
use crate::fault::{BitFlip, DisturbanceModel, FaultOracle};
use crate::geometry::RowId;
use crate::refresh::RefreshEngine;
use crate::timing::{DramTiming, Picoseconds};

/// Counters a bank device accumulates while executing commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// ACT commands executed.
    pub activates: u64,
    /// PRE commands executed.
    pub precharges: u64,
    /// Auto-REF commands executed (driven by the internal engine).
    pub refreshes: u64,
    /// NRR commands executed.
    pub nearby_row_refreshes: u64,
    /// Total individual rows refreshed by NRR commands (victim refreshes).
    pub victim_rows_refreshed: u64,
    /// Bit flips detected by the fault oracle.
    pub bit_flips: u64,
}

/// One DRAM bank: refresh rotation plus Row Hammer ground truth.
///
/// # Example
///
/// ```
/// use dram_model::device::BankDevice;
/// use dram_model::command::DramCommand;
/// use dram_model::fault::DisturbanceModel;
/// use dram_model::geometry::RowId;
/// use dram_model::timing::DramTiming;
///
/// # fn main() -> Result<(), dram_model::DramError> {
/// let mut bank = BankDevice::new(
///     DramTiming::ddr4_2400(),
///     65_536,
///     DisturbanceModel::ddr4_50k(),
/// );
/// bank.execute(DramCommand::Activate(RowId(100)), 0)?;
/// assert_eq!(bank.stats().activates, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BankDevice {
    timing: DramTiming,
    rows_per_bank: u32,
    refresh: RefreshEngine,
    oracle: FaultOracle,
    /// Optional stored-data model: flips corrupt it, refreshes do not fix it.
    data: Option<DataShadow>,
    stats: DeviceStats,
    last_command_at: Picoseconds,
}

impl BankDevice {
    /// Creates a bank with the given timing, size and disturbance model.
    pub fn new(timing: DramTiming, rows_per_bank: u32, model: DisturbanceModel) -> Self {
        let refresh = RefreshEngine::new(&timing, rows_per_bank);
        let oracle = FaultOracle::new(model, rows_per_bank);
        BankDevice {
            timing,
            rows_per_bank,
            refresh,
            oracle,
            data: None,
            stats: DeviceStats::default(),
            last_command_at: 0,
        }
    }

    /// Attaches a data shadow initialized to `pattern`, so ground-truth
    /// flips corrupt observable stored words (see [`crate::data`]).
    pub fn with_data_pattern(mut self, pattern: DataPattern) -> Self {
        self.data = Some(DataShadow::new(self.rows_per_bank, pattern));
        self
    }

    /// The data shadow, if one was attached.
    pub fn data(&self) -> Option<&DataShadow> {
        self.data.as_ref()
    }

    /// Rewrites one row's data with its golden value — the only operation
    /// that repairs corruption (a host store).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for rows outside the bank.
    pub fn rewrite_row(&mut self, row: RowId) -> Result<(), DramError> {
        self.check_row(row)?;
        if let Some(data) = &mut self.data {
            data.rewrite_row(row);
        }
        Ok(())
    }

    /// The timing parameter set this bank was built with.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Rows in the bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Read access to the accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Read access to the ground-truth oracle.
    pub fn oracle(&self) -> &FaultOracle {
        &self.oracle
    }

    /// Executes one command at time `now` (ps), first catching up any
    /// auto-refresh bursts that became due, and returns any new bit flips the
    /// command caused.
    ///
    /// # Errors
    ///
    /// * [`DramError::RowOutOfRange`] if the command names a row outside the
    ///   bank.
    /// * [`DramError::NonMonotonicTime`] if `now` precedes the previous
    ///   command's timestamp.
    pub fn execute(
        &mut self,
        cmd: DramCommand,
        now: Picoseconds,
    ) -> Result<Vec<BitFlip>, DramError> {
        if now < self.last_command_at {
            return Err(DramError::NonMonotonicTime { last: self.last_command_at, now });
        }
        self.last_command_at = now;
        self.advance_to(now);

        match cmd {
            DramCommand::Activate(row) => {
                self.check_row(row)?;
                self.stats.activates += 1;
                let flips = self.oracle.activate(row, now);
                self.stats.bit_flips += flips.len() as u64;
                if let Some(data) = &mut self.data {
                    for f in &flips {
                        data.apply_flip(f.row);
                    }
                }
                Ok(flips)
            }
            DramCommand::Precharge => {
                self.stats.precharges += 1;
                Ok(Vec::new())
            }
            DramCommand::Refresh => {
                // An explicit REF executes the next rotation burst immediately.
                let rows = self.refresh.next_burst();
                self.stats.refreshes += 1;
                self.oracle.refresh_burst(rows);
                Ok(Vec::new())
            }
            DramCommand::NearbyRowRefresh { aggressor, radius } => {
                self.check_row(aggressor)?;
                self.stats.nearby_row_refreshes += 1;
                let victims = aggressor.victims(radius, self.rows_per_bank);
                self.stats.victim_rows_refreshed += victims.len() as u64;
                self.oracle.refresh_rows(victims);
                Ok(Vec::new())
            }
        }
    }

    /// Advances wall-clock time, executing every auto-refresh burst that is
    /// due at or before `now` (without requiring explicit REF commands).
    pub fn advance_to(&mut self, now: Picoseconds) {
        let before = self.refresh.refs_issued();
        let rows = self.refresh.catch_up(now);
        self.stats.refreshes += self.refresh.refs_issued() - before;
        self.oracle.refresh_rows(rows);
    }

    /// True if no Row Hammer bit flip has occurred on this bank.
    pub fn is_clean(&self) -> bool {
        self.oracle.is_clean()
    }

    fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.0 >= self.rows_per_bank {
            Err(DramError::RowOutOfRange { row: row.0, rows_per_bank: self.rows_per_bank })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MuModel;

    fn bank(t_rh: u64) -> BankDevice {
        BankDevice::new(
            DramTiming::ddr4_2400(),
            65_536,
            DisturbanceModel { t_rh, mu: MuModel::Adjacent },
        )
    }

    #[test]
    fn hammer_without_protection_flips() {
        let mut b = bank(1000);
        let t = DramTiming::ddr4_2400();
        let mut flips = Vec::new();
        for i in 0..1000u64 {
            flips.extend(b.execute(DramCommand::Activate(RowId(500)), i * t.t_rc).unwrap());
        }
        assert!(!flips.is_empty(), "unprotected hammering must flip bits");
        assert!(!b.is_clean());
        assert_eq!(b.stats().bit_flips, 2);
    }

    #[test]
    fn nrr_prevents_flip() {
        let mut b = bank(1000);
        let t = DramTiming::ddr4_2400();
        let mut now = 0;
        for i in 0..5000u64 {
            now = i * t.t_rc;
            let flips = b.execute(DramCommand::Activate(RowId(500)), now).unwrap();
            assert!(flips.is_empty(), "flip at act {i}");
            if (i + 1) % 500 == 0 {
                b.execute(DramCommand::NearbyRowRefresh { aggressor: RowId(500), radius: 1 }, now)
                    .unwrap();
            }
        }
        assert!(b.is_clean());
        assert_eq!(b.stats().nearby_row_refreshes, 10);
        assert_eq!(b.stats().victim_rows_refreshed, 20);
        let _ = now;
    }

    #[test]
    fn auto_refresh_catches_up_with_time() {
        let mut b = bank(1_000_000);
        let t = DramTiming::ddr4_2400();
        // Jump a full refresh window ahead: all REFs for the window execute.
        b.advance_to(t.t_refw);
        assert_eq!(b.stats().refreshes, t.refresh_commands_per_window());
    }

    #[test]
    fn auto_refresh_clears_slow_hammer() {
        // Hammering slower than one window's budget: auto refresh saves us.
        let mut b = bank(1000);
        let t = DramTiming::ddr4_2400();
        // 999 ACTs spread over 4 windows: every victim is auto-refreshed
        // before accumulating 1000.
        let spacing = 4 * t.t_refw / 999;
        for i in 0..999u64 {
            let flips = b.execute(DramCommand::Activate(RowId(500)), i * spacing).unwrap();
            assert!(flips.is_empty());
        }
        assert!(b.is_clean());
    }

    #[test]
    fn rejects_out_of_range_row() {
        let mut b = bank(1000);
        let err = b.execute(DramCommand::Activate(RowId(70_000)), 0).unwrap_err();
        assert!(matches!(err, DramError::RowOutOfRange { row: 70_000, .. }));
    }

    #[test]
    fn rejects_time_going_backwards() {
        let mut b = bank(1000);
        b.execute(DramCommand::Activate(RowId(1)), 100).unwrap();
        let err = b.execute(DramCommand::Activate(RowId(1)), 50).unwrap_err();
        assert!(matches!(err, DramError::NonMonotonicTime { last: 100, now: 50 }));
    }

    #[test]
    fn explicit_refresh_advances_rotation() {
        let mut b = bank(1000);
        b.execute(DramCommand::Refresh, 0).unwrap();
        assert_eq!(b.stats().refreshes, 1);
    }

    #[test]
    fn data_shadow_corrupts_on_flip_and_persists_through_refresh() {
        let mut b = bank(100).with_data_pattern(DataPattern::Checkerboard);
        let t = DramTiming::ddr4_2400();
        for i in 0..100u64 {
            b.execute(DramCommand::Activate(RowId(500)), i * t.t_rc).unwrap();
        }
        let corrupted = b.data().unwrap().corrupted_rows();
        assert_eq!(corrupted, vec![RowId(499), RowId(501)]);
        // NRR refreshes the victims' charge, but the stored data stays wrong.
        b.execute(DramCommand::NearbyRowRefresh { aggressor: RowId(500), radius: 1 }, 101 * t.t_rc)
            .unwrap();
        assert_eq!(b.data().unwrap().corrupted_rows().len(), 2);
        // Only a rewrite repairs.
        b.rewrite_row(RowId(499)).unwrap();
        b.rewrite_row(RowId(501)).unwrap();
        assert!(b.data().unwrap().corrupted_rows().is_empty());
    }

    #[test]
    fn stats_count_each_command_kind() {
        let mut b = bank(1_000_000);
        b.execute(DramCommand::Activate(RowId(3)), 0).unwrap();
        b.execute(DramCommand::Precharge, 1).unwrap();
        b.execute(DramCommand::NearbyRowRefresh { aggressor: RowId(3), radius: 2 }, 2).unwrap();
        let s = b.stats();
        assert_eq!((s.activates, s.precharges, s.nearby_row_refreshes), (1, 1, 1));
        assert_eq!(s.victim_rows_refreshed, 4);
    }
}
