//! Per-bank timing state machine.
//!
//! Tracks the open row, the earliest time the next command may start, and
//! the activate-to-activate (tRC) constraint. Service latencies follow the
//! standard DDR decomposition:
//!
//! * **row hit** — column access only: `tCL`;
//! * **row miss (bank has an open row)** — precharge + activate + column:
//!   `tRP + tRCD + tCL`;
//! * **row empty** — activate + column: `tRCD + tCL`;
//! * **refresh** — the bank is blocked for `tRFC`;
//! * **victim refresh (NRR)** — the bank is blocked for `tRC` per refreshed
//!   row plus one `tRP`, the accounting the paper uses in Section V-B.

use dram_model::geometry::RowId;
use dram_model::timing::{DramTiming, Picoseconds};

use crate::pagepolicy::PagePolicy;

/// Outcome of serving one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When the access started service (≥ its arrival).
    pub start: Picoseconds,
    /// When its data was available.
    pub finish: Picoseconds,
    /// Whether an ACT command was issued (row miss or empty).
    pub activated: bool,
    /// Whether the access hit the open row.
    pub row_hit: bool,
    /// The exact ACT command slot, when one was issued (after any precharge).
    pub act_at: Option<Picoseconds>,
}

/// One bank's controller-side state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    timing: DramTiming,
    policy: PagePolicy,
    open_row: Option<RowId>,
    hits_on_open_row: u32,
    /// Earliest time the next command may start.
    ready_at: Picoseconds,
    /// Time the last ACT started (for the tRC constraint).
    last_act_at: Option<Picoseconds>,
}

impl BankState {
    /// A fresh, idle bank.
    pub fn new(timing: DramTiming, policy: PagePolicy) -> Self {
        BankState {
            timing,
            policy,
            open_row: None,
            hits_on_open_row: 0,
            ready_at: 0,
            last_act_at: None,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        self.open_row
    }

    /// Earliest time the next command may start.
    pub fn ready_at(&self) -> Picoseconds {
        self.ready_at
    }

    /// Serves one access to `row` arriving at `arrival`; returns the timing
    /// outcome and updates bank state.
    pub fn serve(&mut self, row: RowId, arrival: Picoseconds) -> ServiceOutcome {
        let t = self.timing;
        let mut start = arrival.max(self.ready_at);

        let (latency, activated, row_hit) = match self.open_row {
            Some(open) if open == row => (t.t_cl, false, true),
            Some(_) => (t.t_rp + t.t_rcd + t.t_cl, true, false),
            None => (t.t_rcd + t.t_cl, true, false),
        };

        let mut act_slot = None;
        if activated {
            // Respect tRC from the previous ACT: the ACT itself happens after
            // the precharge (if any), so push the start so that the ACT slot
            // lands no earlier than last_act + tRC.
            if let Some(last) = self.last_act_at {
                let act_offset = if self.open_row.is_some() { t.t_rp } else { 0 };
                let earliest_start = (last + t.t_rc).saturating_sub(act_offset);
                start = start.max(earliest_start);
            }
            let act_at = start + if self.open_row.is_some() { t.t_rp } else { 0 };
            self.last_act_at = Some(act_at);
            act_slot = Some(act_at);
            self.open_row = Some(row);
            self.hits_on_open_row = 1;
        } else {
            self.hits_on_open_row += 1;
        }

        let finish = start + latency;
        self.ready_at = finish;

        if self.policy.should_close(self.hits_on_open_row) {
            // Auto-precharge: the row closes; the precharge overlaps the tail
            // of the access, so we only charge tRP to bank readiness.
            self.open_row = None;
            self.hits_on_open_row = 0;
            self.ready_at = finish + t.t_rp;
        }

        ServiceOutcome { start, finish, activated, row_hit, act_at: act_slot }
    }

    /// Blocks the bank for a periodic refresh starting no earlier than `at`.
    /// Returns the time the refresh completes.
    pub fn block_for_refresh(&mut self, at: Picoseconds) -> Picoseconds {
        let start = at.max(self.ready_at);
        let end = start + self.timing.t_rfc;
        self.open_row = None;
        self.hits_on_open_row = 0;
        self.ready_at = end;
        end
    }

    /// Extends the bank's busy period by `extra` picoseconds (defense
    /// bookkeeping traffic such as CRA's counter fetches).
    pub fn delay(&mut self, extra: Picoseconds) {
        self.ready_at += extra;
    }

    /// Forbids the bank from starting any access before `until` — the
    /// throttle primitive behind [`ThrottleDecision`]. Unlike
    /// [`delay`](Self::delay), this is a *deadline*, not an extension: it
    /// has effect even on an idle bank whose `ready_at` is in the past, and
    /// it never moves readiness backwards.
    ///
    /// [`ThrottleDecision`]: mitigations::ThrottleDecision
    pub fn hold_until(&mut self, until: Picoseconds) {
        self.ready_at = self.ready_at.max(until);
    }

    /// The bank's dynamic state `(open_row, hits_on_open_row, ready_at,
    /// last_act_at)` for a run checkpoint. Timing and page policy are
    /// configuration, rebuilt by the restoring controller.
    pub(crate) fn dynamic_state(&self) -> (Option<RowId>, u32, Picoseconds, Option<Picoseconds>) {
        (self.open_row, self.hits_on_open_row, self.ready_at, self.last_act_at)
    }

    /// Overwrites the dynamic state captured by
    /// [`dynamic_state`](Self::dynamic_state).
    pub(crate) fn restore_dynamic_state(
        &mut self,
        open_row: Option<RowId>,
        hits_on_open_row: u32,
        ready_at: Picoseconds,
        last_act_at: Option<Picoseconds>,
    ) {
        self.open_row = open_row;
        self.hits_on_open_row = hits_on_open_row;
        self.ready_at = ready_at;
        self.last_act_at = last_act_at;
    }

    /// Blocks the bank for a victim refresh of `rows` rows (`tRC` each plus
    /// one `tRP`), starting no earlier than `at`. Returns the completion time.
    pub fn block_for_victim_refresh(&mut self, rows: u64, at: Picoseconds) -> Picoseconds {
        let start = at.max(self.ready_at);
        let end = start + rows * self.timing.t_rc + self.timing.t_rp;
        self.open_row = None;
        self.hits_on_open_row = 0;
        self.ready_at = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(policy: PagePolicy) -> BankState {
        BankState::new(DramTiming::ddr4_2400(), policy)
    }

    #[test]
    fn empty_bank_pays_rcd_plus_cl() {
        let mut b = bank(PagePolicy::Open);
        let o = b.serve(RowId(5), 0);
        assert!(o.activated && !o.row_hit);
        assert_eq!(o.finish, 13_300 + 13_300);
    }

    #[test]
    fn row_hit_pays_cl_only() {
        let mut b = bank(PagePolicy::Open);
        let first = b.serve(RowId(5), 0);
        let o = b.serve(RowId(5), first.finish);
        assert!(o.row_hit && !o.activated);
        assert_eq!(o.finish - o.start, 13_300);
    }

    #[test]
    fn row_conflict_pays_full_penalty() {
        let mut b = bank(PagePolicy::Open);
        let first = b.serve(RowId(5), 0);
        let o = b.serve(RowId(9), first.finish);
        assert!(o.activated && !o.row_hit);
        assert_eq!(o.finish - o.start, 13_300 * 3);
    }

    #[test]
    fn trc_enforced_between_activates() {
        let mut b = bank(PagePolicy::Closed);
        let o1 = b.serve(RowId(1), 0);
        // Closed policy: row closed after each access. Immediately serving
        // another row must still respect tRC between the two ACTs.
        let o2 = b.serve(RowId(2), o1.finish);
        assert!(o2.activated);
        let act1 = 0;
        let act2 = o2.start;
        assert!(act2 - act1 >= 45_000, "ACT spacing {}", act2 - act1);
    }

    #[test]
    fn saturating_same_bank_throughput_is_trc_limited() {
        // Back-to-back conflicting accesses: steady-state one ACT per tRC.
        let mut b = bank(PagePolicy::Open);
        let mut finish = 0;
        let n = 100;
        for i in 0..n {
            let o = b.serve(RowId(i % 2), finish);
            finish = o.finish;
        }
        // Steady state is one ACT per tRC; the first ACT's missing
        // predecessor shaves a fraction off the average.
        let per_access = finish as f64 / n as f64;
        assert!((44_000.0..60_000.0).contains(&per_access), "per-access {per_access} ps");
    }

    #[test]
    fn minimalist_open_closes_after_four_hits() {
        let mut b = bank(PagePolicy::minimalist_open());
        let mut at = 0;
        // ACT + 3 hits = 4 accesses on the open row, then it auto-closes.
        for i in 0..4 {
            let o = b.serve(RowId(7), at);
            assert_eq!(o.row_hit, i > 0, "access {i}");
            at = o.finish;
        }
        assert_eq!(b.open_row(), None);
        // Fifth access re-activates even though it is the same row.
        let o = b.serve(RowId(7), at);
        assert!(o.activated);
    }

    #[test]
    fn refresh_blocks_for_trfc() {
        let mut b = bank(PagePolicy::Open);
        let end = b.block_for_refresh(1000);
        assert_eq!(end, 1000 + 350_000);
        assert_eq!(b.ready_at(), end);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn victim_refresh_costs_trc_per_row_plus_trp() {
        let mut b = bank(PagePolicy::Open);
        let end = b.block_for_victim_refresh(2, 0);
        assert_eq!(end, 2 * 45_000 + 13_300);
    }

    #[test]
    fn waiting_for_busy_bank_delays_start() {
        let mut b = bank(PagePolicy::Open);
        b.block_for_refresh(0); // busy until 350 ns
        let o = b.serve(RowId(1), 100);
        assert_eq!(o.start, 350_000);
    }
}
