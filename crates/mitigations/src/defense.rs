//! The defense trait and the refresh-action vocabulary.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use telemetry::MetricsSink;

/// A proactive refresh a defense asks the memory controller to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RefreshAction {
    /// Refresh the neighbours of `aggressor` out to ±`radius` rows
    /// (an NRR command).
    Neighbors {
        /// The aggressor row.
        aggressor: RowId,
        /// Rows refreshed on each side.
        radius: u32,
    },
    /// Refresh one specific row.
    Row(RowId),
    /// Refresh `count` consecutive rows starting at `start` (CBT's bursty
    /// subtree refresh).
    Range {
        /// First row of the burst.
        start: RowId,
        /// Number of rows.
        count: u32,
    },
    /// Issue a DDR5/LPDDR5 RFM (Refresh Management) command directed at the
    /// victims of `aggressor` — the generation-native spelling of an NRR.
    /// The controller executes the same victim refreshes as
    /// [`RefreshAction::Neighbors`] and additionally debits the bank's
    /// Rolling Accumulated ACT counter by RAAIMT (see
    /// `dram_model::generation::RfmSpec`).
    Rfm {
        /// The aggressor row whose victims the RFM refreshes.
        aggressor: RowId,
        /// Rows refreshed on each side.
        radius: u32,
    },
}

impl RefreshAction {
    /// The concrete rows this action refreshes, clipped to the bank.
    pub fn rows(&self, rows_per_bank: u32) -> Vec<RowId> {
        match *self {
            RefreshAction::Neighbors { aggressor, radius }
            | RefreshAction::Rfm { aggressor, radius } => aggressor.victims(radius, rows_per_bank),
            RefreshAction::Row(r) => {
                if r.0 < rows_per_bank {
                    vec![r]
                } else {
                    Vec::new()
                }
            }
            RefreshAction::Range { start, count } => {
                (start.0..start.0.saturating_add(count).min(rows_per_bank)).map(RowId).collect()
            }
        }
    }

    /// Number of rows the action refreshes (after clipping).
    pub fn row_count(&self, rows_per_bank: u32) -> u64 {
        match *self {
            RefreshAction::Neighbors { aggressor, radius }
            | RefreshAction::Rfm { aggressor, radius } => {
                aggressor.victims(radius, rows_per_bank).len() as u64
            }
            RefreshAction::Row(r) => u64::from(r.0 < rows_per_bank),
            RefreshAction::Range { start, count } => {
                u64::from(start.0.saturating_add(count).min(rows_per_bank).saturating_sub(start.0))
            }
        }
    }
}

/// A defense's answer to "may this access proceed now?" — the feedback
/// path from a throttling defense (BlockHammer) to the memory-controller
/// scheduler.
///
/// Refresh-based defenses never throttle and inherit the
/// [`RowHammerDefense::throttle_decision`] default of
/// [`ThrottleDecision::proceed`]. A throttling defense instead returns the
/// extra delay the scheduler must impose before serving the access; the
/// controller holds the bank for that long and accounts the decision in
/// `RunStats::{throttled_acts, throttle_delay}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThrottleDecision {
    /// Extra delay (ps) before the access may be served; 0 = proceed now.
    pub delay: Picoseconds,
}

impl ThrottleDecision {
    /// No throttling: serve the access immediately.
    pub fn proceed() -> Self {
        ThrottleDecision { delay: 0 }
    }

    /// Delay the access by `delay` picoseconds.
    pub fn delay(delay: Picoseconds) -> Self {
        ThrottleDecision { delay }
    }

    /// Whether the decision actually delays the access.
    pub fn is_throttled(&self) -> bool {
        self.delay > 0
    }
}

/// Hardware table footprint of a defense, split by memory type as the
/// paper's Table IV reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableBits {
    /// Content-addressable memory bits per bank.
    pub cam_bits: u64,
    /// SRAM bits per bank.
    pub sram_bits: u64,
}

impl TableBits {
    /// Total bits per bank.
    pub fn total(&self) -> u64 {
        self.cam_bits + self.sram_bits
    }

    /// Total bits for a rank of `banks` banks.
    pub fn per_rank(&self, banks: u32) -> u64 {
        self.total() * u64::from(banks)
    }
}

/// A Row Hammer defense living in the memory controller.
///
/// The controller drives it with every ACT and every periodic refresh tick;
/// the defense answers with refresh actions the controller must execute.
/// Implementations are per-bank: instantiate one per protected bank.
pub trait RowHammerDefense {
    /// Short scheme name for reports (e.g. `"Graphene"`, `"PARA-0.00145"`).
    fn name(&self) -> String;

    /// Processes one activation at absolute time `now`; returns the
    /// proactive refreshes to perform (usually empty).
    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction>;

    /// Consulted by the controller *before* serving an access to `row` at
    /// time `now`: a throttling defense (BlockHammer) returns the delay to
    /// impose on blacklisted activations; everything else proceeds.
    ///
    /// The controller consults this once per served access, from its one
    /// in-order per-access step (and from the replay of a duplicated
    /// command), with the `(row, now)` pair it then serves, so a stateful
    /// implementation sees the same sequence however the accesses were
    /// batched on their way in, and the state it mutates here must be
    /// covered by [`write_state`](Self::write_state). Wrappers
    /// ([`AuditedDefense`](crate::AuditedDefense),
    /// [`InstrumentedDefense`](crate::InstrumentedDefense)) forward to their
    /// inner scheme so the feedback path survives decoration. Default:
    /// never throttle.
    fn throttle_decision(&mut self, _row: RowId, _now: Picoseconds) -> ThrottleDecision {
        ThrottleDecision::proceed()
    }

    /// Called once per tREFI when the controller issues the periodic REF.
    /// Schemes with time-based bookkeeping (TWiCe pruning, PRoHIT's refresh
    /// slot) act here. Default: nothing.
    fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
        Vec::new()
    }

    /// DRAM busy time (ps) the defense's own bookkeeping consumed since the
    /// last call — e.g. CRA's counter fetch/write-back traffic. The
    /// controller drains this after every activation and charges it to the
    /// bank. Default: none (on-chip-only schemes are free).
    fn drain_overhead_time(&mut self) -> Picoseconds {
        0
    }

    /// Hardware table footprint per bank.
    fn table_bits(&self) -> TableBits;

    /// Emits scheme-specific trajectory metrics (e.g. Graphene's spillover
    /// level and table occupancy) for `bank` at time `now`. Called by the
    /// [`instrumented`](fn@crate::instrumented) wrapper at its flush cadence —
    /// never on the per-ACT hot path. Default: nothing (schemes without
    /// inspectable internal state stay silent; their action rates are
    /// reported by the wrapper itself).
    fn emit_telemetry(&self, _bank: u16, _now: Picoseconds, _sink: &mut dyn MetricsSink) {}

    /// Clears all defense state (not normally needed: schemes manage their
    /// own windows; exposed for tests and reuse across runs).
    fn reset(&mut self);

    /// Renders the defense's complete dynamic state into `out` as one
    /// compact JSON value for a run checkpoint, such that
    /// [`restore_state`](Self::restore_state) of its parse on a freshly
    /// configured instance of the same scheme resumes bit-identically to
    /// the snapshotted one. This is the checkpoint writer: the controller
    /// calls it for every bank, and a wrapper renders its own fields and
    /// then calls its inner scheme's.
    ///
    /// Every scheme that checkpoints writes its fields and counter lanes
    /// straight into `out` with [`telemetry::json::write_obj`], building no
    /// tree. The default renders [`snapshot_state`](Self::snapshot_state),
    /// so a decorator that forwards only the tree hooks still writes its
    /// inner scheme's bytes.
    ///
    /// # Errors
    ///
    /// The unsupported-checkpointing default of
    /// [`snapshot_state`](Self::snapshot_state). On error `out` may end in
    /// a partial value.
    fn write_state(&self, out: &mut String) -> Result<(), String> {
        self.snapshot_state()?.render_into(out);
        Ok(())
    }

    /// The defense's checkpoint state as a JSON tree: the parse of what
    /// [`write_state`](Self::write_state) writes, and what
    /// [`restore_state`](Self::restore_state) reads. Default: checkpointing
    /// is unsupported — the streaming fleet runner refuses to checkpoint a
    /// run whose defense cannot round-trip its state, rather than silently
    /// resuming from a reset tracker.
    ///
    /// # Errors
    ///
    /// The unsupported-checkpointing default.
    fn snapshot_state(&self) -> Result<telemetry::json::JsonValue, String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Replays state captured by [`write_state`](Self::write_state) (as
    /// parsed) into this instance. The instance must have been built from
    /// the same configuration as the snapshotted one; implementations
    /// validate what they can (scheme tag, table dimensions) and refuse
    /// mismatches.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or mismatched field, or
    /// the unsupported-checkpointing default.
    fn restore_state(&mut self, _state: &telemetry::json::JsonValue) -> Result<(), String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Injects one tracker-layer fault (an SRAM soft error or a transient
    /// CAM mismatch) into the defense's internal state. Returns `true` if
    /// the fault was applied, `false` if the scheme has no corresponding
    /// state to corrupt (the default: probabilistic schemes like PARA hold
    /// no counters, so tracker faults pass through them harmlessly).
    ///
    /// Wrappers ([`AuditedDefense`](crate::AuditedDefense),
    /// [`InstrumentedDefense`](crate::InstrumentedDefense)) forward to their
    /// inner scheme so a fault plan reaches the real tracker through any
    /// stack of decorators.
    fn inject_fault(&mut self, _fault: &faultsim::TrackerFault) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_rows_and_count_agree() {
        let a = RefreshAction::Neighbors { aggressor: RowId(5), radius: 2 };
        assert_eq!(a.rows(100).len() as u64, a.row_count(100));
        assert_eq!(a.rows(100), vec![RowId(4), RowId(6), RowId(3), RowId(7)]);
    }

    #[test]
    fn neighbors_clipped_at_edge() {
        let a = RefreshAction::Neighbors { aggressor: RowId(0), radius: 2 };
        assert_eq!(a.rows(100), vec![RowId(1), RowId(2)]);
        assert_eq!(a.row_count(100), 2);
    }

    #[test]
    fn row_action_out_of_range_is_empty() {
        let a = RefreshAction::Row(RowId(200));
        assert!(a.rows(100).is_empty());
        assert_eq!(a.row_count(100), 0);
    }

    #[test]
    fn range_clipped_to_bank() {
        let a = RefreshAction::Range { start: RowId(95), count: 10 };
        assert_eq!(a.row_count(100), 5);
        assert_eq!(a.rows(100).len(), 5);
    }

    #[test]
    fn rfm_refreshes_the_same_victims_as_neighbors() {
        let nrr = RefreshAction::Neighbors { aggressor: RowId(5), radius: 2 };
        let rfm = RefreshAction::Rfm { aggressor: RowId(5), radius: 2 };
        assert_eq!(rfm.rows(100), nrr.rows(100));
        assert_eq!(rfm.row_count(100), nrr.row_count(100));
    }

    #[test]
    fn table_bits_totals() {
        let t = TableBits { cam_bits: 100, sram_bits: 50 };
        assert_eq!(t.total(), 150);
        assert_eq!(t.per_rank(16), 2400);
    }
}
