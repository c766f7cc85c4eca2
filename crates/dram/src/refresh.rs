//! Auto-refresh engine.
//!
//! A DDR4 device refreshes all of its rows once per tREFW by executing one REF
//! command per tREFI; each REF covers `rows_per_bank / refresh_commands`
//! consecutive rows (8 rows for a 64K-row bank and 8192 commands, the JEDEC
//! arrangement). The engine tracks the rotating refresh pointer so the fault
//! oracle can clear exactly the rows a REF burst restores — the paper's
//! protection argument depends on every row being auto-refreshed once per
//! tREFW, at a time the memory controller cannot observe.
//!
//! A burst is a contiguous row range, so [`RefreshEngine::next_burst`]
//! returns it as a `Range<u32>` and the oracle clears it with
//! [`FaultOracle::refresh_burst`](crate::fault::FaultOracle::refresh_burst):
//! a REF tick allocates nothing. [`RefreshEngine::catch_up`] and
//! [`RefreshEngine::catch_up_postponed`] collect every due burst into one
//! row list.

use std::ops::Range;

use crate::error::DramError;
use crate::generation::Generation;
use crate::geometry::RowId;
use crate::timing::{DramTiming, Picoseconds};

/// Maximum number of REF commands a DDR4 controller may postpone
/// (JESD79-4 §4.24: up to 8 tREFI of accumulated postponement, to be made up
/// before the debit exceeds 8 commands). Other generations carry their own
/// limit — see [`Generation::max_postponed_refs`] and
/// [`RefreshEngine::for_generation`]; the plain [`RefreshEngine::new`]
/// constructor keeps this DDR4 value.
pub const MAX_POSTPONED_REFS: u32 = 8;

/// Rotating auto-refresh state for one bank.
///
/// # Example
///
/// ```
/// use dram_model::refresh::RefreshEngine;
/// use dram_model::timing::DramTiming;
///
/// let mut eng = RefreshEngine::new(&DramTiming::ddr4_2400(), 65_536);
/// assert_eq!(eng.next_burst(), 0..8);
/// assert_eq!(eng.next_burst(), 8..16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshEngine {
    rows_per_bank: u32,
    /// Rows restored per REF command.
    rows_per_ref: u32,
    /// REF commands issued within the current refresh window.
    burst_in_window: u64,
    /// REF commands per refresh window (`tREFW / tREFI`).
    cmds_per_window: u64,
    /// REF commands executed so far.
    refs_issued: u64,
    /// REF period.
    t_refi: Picoseconds,
    /// Time the next REF is due.
    next_ref_at: Picoseconds,
    /// Generation postponement limit for [`Self::catch_up_postponed`].
    /// Defaults to the DDR4 [`MAX_POSTPONED_REFS`].
    max_postponed: u32,
}

impl RefreshEngine {
    /// Creates the engine with the standard rotation: all rows covered in one
    /// tREFW using one REF per tREFI.
    ///
    /// # Panics
    ///
    /// Panics if the timing implies zero REF commands per window.
    pub fn new(timing: &DramTiming, rows_per_bank: u32) -> Self {
        let cmds = timing.refresh_commands_per_window();
        assert!(cmds > 0, "timing must allow at least one REF per window");
        // Round up so the full bank is covered within tREFW even when the row
        // count does not divide evenly.
        let rows_per_ref = rows_per_bank.div_ceil(cmds as u32).max(1);
        RefreshEngine {
            rows_per_bank,
            rows_per_ref,
            burst_in_window: 0,
            cmds_per_window: cmds,
            refs_issued: 0,
            t_refi: timing.t_refi,
            next_ref_at: timing.t_refi,
            max_postponed: MAX_POSTPONED_REFS,
        }
    }

    /// Creates the engine for a [`Generation`]: the generation's timing
    /// drives the rotation and its postponement limit bounds
    /// [`Self::catch_up_postponed`] (DDR4 keeps 8; the halved-tREFI DDR5
    /// generations allow 16 for the same wall-clock budget).
    ///
    /// For [`Generation::Ddr4_2400`] the result is identical to
    /// [`RefreshEngine::new`] over [`DramTiming::ddr4_2400`].
    ///
    /// # Panics
    ///
    /// Panics like [`RefreshEngine::new`] on a zero-REF window.
    pub fn for_generation(generation: Generation, rows_per_bank: u32) -> Self {
        let mut eng = Self::new(&generation.timing(), rows_per_bank);
        eng.max_postponed = generation.max_postponed_refs();
        eng
    }

    /// Overrides the postponement limit — for controllers that pair an
    /// explicit (possibly overridden) timing with a generation's bound.
    pub fn with_max_postponed(mut self, max_postponed: u32) -> Self {
        self.max_postponed = max_postponed.max(1);
        self
    }

    /// The postponement limit [`Self::catch_up_postponed`] enforces.
    pub fn max_postponed_refs(&self) -> u32 {
        self.max_postponed
    }

    /// Rows restored by each REF command.
    pub fn rows_per_ref(&self) -> u32 {
        self.rows_per_ref
    }

    /// Time at which the next REF command is due.
    pub fn next_ref_at(&self) -> Picoseconds {
        self.next_ref_at
    }

    /// Total REF commands executed.
    pub fn refs_issued(&self) -> u64 {
        self.refs_issued
    }

    /// REF commands per refresh window (`tREFW / tREFI`); the rotation
    /// restarts at row 0 after exactly this many bursts.
    pub fn cmds_per_window(&self) -> u64 {
        self.cmds_per_window
    }

    /// REF commands issued within the current refresh window — with
    /// [`refs_issued`](Self::refs_issued) and
    /// [`next_ref_at`](Self::next_ref_at), the full dynamic position of the
    /// rotation (checkpoint support).
    pub fn burst_in_window(&self) -> u64 {
        self.burst_in_window
    }

    /// Restores the dynamic rotation position from a checkpoint taken on an
    /// engine with identical timing and bank size. The derived fields
    /// (`rows_per_ref`, `cmds_per_window`, `t_refi`) stay as constructed;
    /// only the position moves, so a restored engine continues the burst
    /// sequence bit-identically to the engine the snapshot was taken from.
    ///
    /// # Panics
    ///
    /// Panics if `burst_in_window` is not below the window's command count.
    pub fn restore_position(
        &mut self,
        burst_in_window: u64,
        refs_issued: u64,
        next_ref_at: Picoseconds,
    ) {
        assert!(
            burst_in_window < self.cmds_per_window,
            "burst index {burst_in_window} outside a {}-command window",
            self.cmds_per_window
        );
        self.burst_in_window = burst_in_window;
        self.refs_issued = refs_issued;
        self.next_ref_at = next_ref_at;
    }

    /// Executes one REF command and returns the range of rows it restores.
    ///
    /// The rotation is aligned to the refresh window: each window of
    /// `cmds_per_window` REF commands covers every row of the bank exactly
    /// once, and the next window restarts at row 0. Because `rows_per_ref`
    /// is rounded up, the bank may be fully covered a few commands early;
    /// the remaining bursts of the window restore nothing (the hardware
    /// equivalent of a REF landing on already-refreshed rows). The
    /// alternative — wrapping the pointer modulo the bank size — makes the
    /// wrap point drift by `rows_per_ref × cmds_per_window − rows_per_bank`
    /// rows per window, double-refreshing early rows while each row's
    /// retention phase slides every window.
    ///
    /// A surplus burst returns the empty range `rows_per_bank..rows_per_bank`.
    pub fn next_burst(&mut self) -> Range<u32> {
        let start = self.burst_in_window * u64::from(self.rows_per_ref);
        let lo = start.min(u64::from(self.rows_per_bank)) as u32;
        let hi = (start + u64::from(self.rows_per_ref)).min(u64::from(self.rows_per_bank)) as u32;
        self.burst_in_window += 1;
        if self.burst_in_window == self.cmds_per_window {
            self.burst_in_window = 0;
        }
        self.refs_issued += 1;
        self.next_ref_at += self.t_refi;
        lo..hi
    }

    /// Executes every REF that is due at or before `now`, returning all rows
    /// refreshed. Used by event-driven simulation to catch up in one call.
    pub fn catch_up(&mut self, now: Picoseconds) -> Vec<RowId> {
        let mut all = Vec::new();
        while self.next_ref_at <= now {
            all.extend(self.next_burst().map(RowId));
        }
        all
    }

    /// Like [`RefreshEngine::catch_up`], but with `postponed` REF commands
    /// legally deferred: a REF nominally due at `t` is only executed once
    /// `t + postponed × tREFI ≤ now`. The generation's limit bounds the
    /// accumulation ([`MAX_POSTPONED_REFS`] = 8 for DDR4-constructed
    /// engines; [`Self::for_generation`] arms the per-generation value);
    /// the debt is repaid by a later call with a smaller (eventually zero)
    /// postponement, after which the engine's rotation state is identical
    /// to the nominal schedule's.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidTiming`] if `postponed` exceeds the
    /// engine's [`Self::max_postponed_refs`]; the engine state is
    /// untouched.
    pub fn catch_up_postponed(
        &mut self,
        now: Picoseconds,
        postponed: u32,
    ) -> Result<Vec<RowId>, DramError> {
        if postponed > self.max_postponed {
            return Err(DramError::InvalidTiming {
                reason: format!(
                    "cannot postpone {postponed} REF commands: this generation allows at \
                     most {} (JESD79-4 \u{00a7}4.24 and the JESD79-5 equivalent)",
                    self.max_postponed
                ),
            });
        }
        let lag = u64::from(postponed) * self.t_refi;
        let mut all = Vec::new();
        while self.next_ref_at + lag <= now {
            all.extend(self.next_burst().map(RowId));
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_rows_within_one_window() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        let mut seen = vec![false; 65_536];
        for _ in 0..t.refresh_commands_per_window() {
            for r in eng.next_burst() {
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row refreshed once per tREFW");
    }

    #[test]
    fn rows_per_ref_for_64k_bank() {
        let eng = RefreshEngine::new(&DramTiming::ddr4_2400(), 65_536);
        // 65536 rows / 8205 commands → 8 rows per burst.
        assert_eq!(eng.rows_per_ref(), 8);
    }

    #[test]
    fn pointer_wraps_around() {
        let mut t = DramTiming::ddr4_2400();
        t.t_refw = t.t_refi * 4; // 4 REFs per window
        let mut eng = RefreshEngine::new(&t, 8); // 2 rows per burst
        let mut first_cycle = Vec::new();
        for _ in 0..4 {
            first_cycle.extend(eng.next_burst());
        }
        assert_eq!(first_cycle, (0..8).collect::<Vec<u32>>());
        // Next burst starts over at row 0.
        assert_eq!(eng.next_burst(), 0..2);
    }

    #[test]
    fn every_window_covers_each_row_exactly_once() {
        // Regression: with 8 rows per REF and 8205 REFs per window,
        // 8 × 8205 = 65,640 > 65,536, so a modulo-wrapping pointer refreshed
        // rows 0..104 twice per window and shifted the wrap point each
        // window. Window-aligned rotation covers each row exactly once per
        // window, every window.
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        for window in 0..3 {
            let mut count = vec![0u32; 65_536];
            for _ in 0..t.refresh_commands_per_window() {
                for r in eng.next_burst() {
                    count[r as usize] += 1;
                }
            }
            assert!(
                count.iter().all(|&c| c == 1),
                "window {window}: some row not refreshed exactly once"
            );
        }
    }

    #[test]
    fn window_restarts_at_row_zero() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        for _ in 0..t.refresh_commands_per_window() {
            eng.next_burst();
        }
        // First burst of the second window starts over at row 0 (pre-fix it
        // started at row 104).
        assert_eq!(eng.next_burst(), 0..8);
    }

    #[test]
    fn surplus_bursts_at_window_end_refresh_nothing() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        let full_bursts: u32 = 65_536 / 8;
        for b in 0..full_bursts {
            assert_eq!(eng.next_burst(), b * 8..b * 8 + 8);
        }
        // 8205 − 8192 = 13 surplus commands: the bank is already covered.
        for _ in u64::from(full_bursts)..t.refresh_commands_per_window() {
            assert_eq!(eng.next_burst(), 65_536..65_536);
        }
        assert_eq!(eng.cmds_per_window(), 8205);
    }

    #[test]
    fn catch_up_executes_due_refs() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        let refreshed = eng.catch_up(3 * t.t_refi + 1);
        assert_eq!(eng.refs_issued(), 3);
        assert_eq!(refreshed.len(), 3 * 8);
        assert_eq!(eng.next_ref_at(), 4 * t.t_refi);
    }

    #[test]
    fn catch_up_before_first_ref_is_noop() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        assert!(eng.catch_up(t.t_refi - 1).is_empty());
        assert_eq!(eng.refs_issued(), 0);
    }

    #[test]
    fn postponing_more_than_eight_refis_is_rejected() {
        let t = DramTiming::ddr4_2400();
        let mut eng = RefreshEngine::new(&t, 65_536);
        let before = eng.clone();
        let err = eng.catch_up_postponed(100 * t.t_refi, MAX_POSTPONED_REFS + 1).unwrap_err();
        assert!(matches!(err, DramError::InvalidTiming { .. }), "{err:?}");
        assert_eq!(eng, before, "rejected call must not perturb engine state");
        // The boundary itself is legal.
        assert!(eng.catch_up_postponed(100 * t.t_refi, MAX_POSTPONED_REFS).is_ok());
    }

    #[test]
    fn generation_postponement_bounds() {
        use crate::generation::Generation;

        // Each generation's engine enforces its own accumulated-postponement
        // limit: DDR4/LPDDR4X stop at 8 commands, the halved-tREFI DDR5
        // generations at 16 — the same ~62.4 µs wall-clock budget.
        for (generation, limit) in [
            (Generation::Ddr4_2400, 8),
            (Generation::Lpddr4x, 8),
            (Generation::Ddr5_4800, 16),
            (Generation::Lpddr5, 16),
        ] {
            let mut eng = RefreshEngine::for_generation(generation, 4_096);
            assert_eq!(eng.max_postponed_refs(), limit, "{generation}");
            let now = 100 * generation.timing().t_refi;
            let before = eng.clone();
            let err = eng.catch_up_postponed(now, limit + 1).unwrap_err();
            assert!(matches!(err, DramError::InvalidTiming { .. }), "{generation}: {err:?}");
            assert_eq!(eng, before, "{generation}: rejected call must not perturb state");
            assert!(eng.catch_up_postponed(now, limit).is_ok(), "{generation}");
        }
    }

    #[test]
    fn ddr4_generation_engine_matches_legacy_constructor() {
        use crate::generation::Generation;

        let legacy = RefreshEngine::new(&DramTiming::ddr4_2400(), 65_536);
        let gen = RefreshEngine::for_generation(Generation::Ddr4_2400, 65_536);
        assert_eq!(legacy, gen, "DDR4 path must be bit-identical through the generation API");
    }

    #[test]
    fn postponement_defers_exactly_lag_refis() {
        let t = DramTiming::ddr4_2400();
        let mut nominal = RefreshEngine::new(&t, 65_536);
        let mut postponed = RefreshEngine::new(&t, 65_536);
        let now = 10 * t.t_refi;
        nominal.catch_up(now);
        postponed.catch_up_postponed(now, 3).unwrap();
        assert_eq!(nominal.refs_issued(), 10);
        assert_eq!(postponed.refs_issued(), 7);
    }

    #[test]
    fn postponed_then_caught_up_matches_nominal_ground_truth() {
        use crate::fault::{DisturbanceModel, FaultOracle};

        // Two identical banks under the same hammering stream; one refreshes
        // nominally, the other postpones 8 tREFI mid-run and then repays the
        // debt. After the catch-up, the refresh rotation state and the
        // oracle's per-row charge state must be bit-identical.
        let mut t = DramTiming::ddr4_2400();
        t.t_refw = t.t_refi * 16; // small window: 16 REFs cover the bank
        let rows = 64u32;
        let model = DisturbanceModel { t_rh: 1_000_000, mu: crate::fault::MuModel::Adjacent };
        let mut eng_a = RefreshEngine::new(&t, rows);
        let mut eng_b = RefreshEngine::new(&t, rows);
        let mut oracle_a = FaultOracle::new(model.clone(), rows);
        let mut oracle_b = FaultOracle::new(model, rows);

        let hammer = |oracle: &mut FaultOracle, at: Picoseconds| {
            oracle.activate(RowId(30), at);
            oracle.activate(RowId(7), at + 1);
        };

        for step in 1..=40u64 {
            let now = step * t.t_refi;
            hammer(&mut oracle_a, now);
            hammer(&mut oracle_b, now);
            oracle_a.refresh_rows(eng_a.catch_up(now));
            // The postponed bank defers the full legal 8 tREFI during steps
            // 10..30, then repays the debt.
            let lag = if (10..30).contains(&step) { MAX_POSTPONED_REFS } else { 0 };
            oracle_b.refresh_rows(eng_b.catch_up_postponed(now, lag).unwrap());
        }

        assert_eq!(eng_a, eng_b, "rotation state must converge after catch-up");
        assert_eq!(eng_a.refs_issued(), eng_b.refs_issued());
        for r in 0..rows {
            assert_eq!(
                oracle_a.disturbance_of(RowId(r)),
                oracle_b.disturbance_of(RowId(r)),
                "row {r} charge state diverged"
            );
        }
    }
}
