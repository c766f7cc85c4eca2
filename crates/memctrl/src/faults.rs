//! Controller-side fault injection: walking a [`FaultPlan`] during a run.
//!
//! The [`FaultInjector`] owns a [`faultsim::FaultPlan`] and is driven by the
//! controller once per served access (the access index is the plan's clock,
//! so the same plan replays bit-identically whether the accesses arrive one
//! at a time or in batches). Tracker-layer events are forwarded to the target
//! bank's defense; controller-layer events arm one-shot behaviours that the
//! dispatch tail consumes:
//!
//! * [`ControllerFault::DropNrr`] — the next non-empty action list a defense
//!   emits is discarded (an NRR squeezed out by bandwidth pressure);
//! * [`ControllerFault::DeferNrr`] — the next non-empty action list is held
//!   for a number of accesses before being applied;
//! * [`ControllerFault::PostponeRefresh`] — auto-refresh is held for up to
//!   8 tREFI (the DDR4 bound) and then caught up back-to-back;
//! * [`ControllerFault::DuplicateCommand`] — the access is replayed once at
//!   the shard boundary (the row is served twice).
//!
//! Dropping or deferring an NRR does **not** touch the ground-truth fault
//! oracle: victims the defense believed it protected stay unrefreshed, so a
//! sufficiently unlucky plan turns into oracle bit flips — exactly the
//! false-negative signal the resilience matrix measures.

use faultsim::{ControllerFault, FaultEvent, FaultPlan};
use mitigations::RefreshAction;

/// Counters of what a [`FaultInjector`] actually did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Tracker events whose target defense reported the fault as applied.
    pub tracker_faults_applied: u64,
    /// Tracker events the target defense could not express (e.g. a
    /// spillover flip against a defense with no spillover register).
    pub tracker_faults_vacuous: u64,
    /// Defense actions discarded by [`ControllerFault::DropNrr`].
    pub nrrs_dropped: u64,
    /// Defense actions held back by [`ControllerFault::DeferNrr`].
    pub nrrs_deferred: u64,
    /// Deferred actions eventually applied (including the end-of-run flush).
    pub nrrs_released: u64,
    /// Refresh-postponement events armed.
    pub refreshes_postponed: u64,
    /// Accesses replayed by [`ControllerFault::DuplicateCommand`].
    pub commands_duplicated: u64,
}

/// A deferred defense action waiting for its release access.
#[derive(Debug, Clone)]
struct DeferredAction {
    release_at: u64,
    bank: usize,
    action: RefreshAction,
}

/// Walks a [`FaultPlan`] as the controller serves accesses (see the module
/// docs for the event semantics).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    next: usize,
    /// Armed [`ControllerFault::DropNrr`] events not yet spent on a
    /// non-empty action list.
    drop_pending: u32,
    /// Armed deferral (accesses to hold), if any; a later event overwrites
    /// an unspent one.
    defer_pending: Option<u64>,
    /// Armed [`ControllerFault::DuplicateCommand`] events.
    duplicate_pending: u32,
    deferred: Vec<DeferredAction>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Wraps a plan for one controller run.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            next: 0,
            drop_pending: 0,
            defer_pending: None,
            duplicate_pending: 0,
            deferred: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// All events due at or before `access_index` that have not been taken
    /// yet (skipped indices are delivered late, never lost).
    pub(crate) fn take_due(&mut self, access_index: u64) -> Vec<FaultEvent> {
        let start = self.next;
        let events = self.plan.events();
        while self.next < events.len() && events[self.next].at_access <= access_index {
            self.next += 1;
        }
        events[start..self.next].to_vec()
    }

    /// Records the outcome of forwarding a tracker fault to a defense.
    pub(crate) fn note_tracker(&mut self, applied: bool) {
        if applied {
            self.stats.tracker_faults_applied += 1;
        } else {
            self.stats.tracker_faults_vacuous += 1;
        }
    }

    /// Arms the one-shot behaviour of a controller-layer event (refresh
    /// postponement is timed by the controller itself and only counted
    /// here).
    pub(crate) fn arm(&mut self, fault: ControllerFault) {
        match fault {
            ControllerFault::DropNrr => self.drop_pending += 1,
            ControllerFault::DeferNrr { accesses } => self.defer_pending = Some(accesses),
            ControllerFault::PostponeRefresh { .. } => self.stats.refreshes_postponed += 1,
            ControllerFault::DuplicateCommand => self.duplicate_pending += 1,
        }
    }

    /// Applies any armed drop/defer behaviour to the actions a defense just
    /// emitted, returning the actions that should still execute now.
    pub(crate) fn filter_actions(
        &mut self,
        bank: usize,
        access_index: u64,
        actions: Vec<RefreshAction>,
    ) -> Vec<RefreshAction> {
        if actions.is_empty() {
            return actions;
        }
        if self.drop_pending > 0 {
            self.drop_pending -= 1;
            self.stats.nrrs_dropped += actions.len() as u64;
            return Vec::new();
        }
        if let Some(hold) = self.defer_pending.take() {
            self.stats.nrrs_deferred += actions.len() as u64;
            self.deferred.extend(actions.into_iter().map(|action| DeferredAction {
                release_at: access_index + hold,
                bank,
                action,
            }));
            return Vec::new();
        }
        actions
    }

    /// Deferred actions whose release access has arrived.
    pub(crate) fn release_due(&mut self, access_index: u64) -> Vec<(usize, RefreshAction)> {
        self.drain_deferred(|d| d.release_at <= access_index)
    }

    /// Flushes every still-deferred action (end of run: held NRRs execute
    /// late rather than disappearing).
    pub(crate) fn flush_deferred(&mut self) -> Vec<(usize, RefreshAction)> {
        self.drain_deferred(|_| true)
    }

    fn drain_deferred(
        &mut self,
        due: impl Fn(&DeferredAction) -> bool,
    ) -> Vec<(usize, RefreshAction)> {
        let mut released = Vec::new();
        let mut kept = Vec::with_capacity(self.deferred.len());
        for d in self.deferred.drain(..) {
            if due(&d) {
                released.push((d.bank, d.action));
            } else {
                kept.push(d);
            }
        }
        self.deferred = kept;
        self.stats.nrrs_released += released.len() as u64;
        released
    }

    /// Consumes one armed duplication, if any.
    pub(crate) fn take_duplicate(&mut self) -> bool {
        if self.duplicate_pending > 0 {
            self.duplicate_pending -= 1;
            self.stats.commands_duplicated += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::RowId;
    use faultsim::FaultSpec;

    fn nrr(row: u32) -> RefreshAction {
        RefreshAction::Neighbors { aggressor: RowId(row), radius: 1 }
    }

    #[test]
    fn drop_waits_for_a_nonempty_action_list() {
        let mut inj = FaultInjector::new(FaultPlan::generate(&FaultSpec::new(1)));
        inj.arm(ControllerFault::DropNrr);
        assert!(inj.filter_actions(0, 5, Vec::new()).is_empty());
        assert_eq!(inj.stats().nrrs_dropped, 0, "empty lists must not spend the drop");
        assert!(inj.filter_actions(0, 6, vec![nrr(1), nrr(2)]).is_empty());
        assert_eq!(inj.stats().nrrs_dropped, 2);
        // Spent: the next actions pass through untouched.
        assert_eq!(inj.filter_actions(0, 7, vec![nrr(3)]), vec![nrr(3)]);
    }

    #[test]
    fn defer_releases_at_the_right_access() {
        let mut inj = FaultInjector::new(FaultPlan::generate(&FaultSpec::new(2)));
        inj.arm(ControllerFault::DeferNrr { accesses: 4 });
        assert!(inj.filter_actions(3, 10, vec![nrr(9)]).is_empty());
        assert_eq!(inj.stats().nrrs_deferred, 1);
        assert!(inj.release_due(13).is_empty());
        let released = inj.release_due(14);
        assert_eq!(released, vec![(3, nrr(9))]);
        assert_eq!(inj.stats().nrrs_released, 1);
    }

    #[test]
    fn flush_applies_everything_still_held() {
        let mut inj = FaultInjector::new(FaultPlan::generate(&FaultSpec::new(3)));
        inj.arm(ControllerFault::DeferNrr { accesses: 1_000_000 });
        inj.filter_actions(1, 0, vec![nrr(4), nrr(5)]);
        assert_eq!(inj.flush_deferred().len(), 2);
        assert_eq!(inj.stats().nrrs_released, 2);
        assert!(inj.flush_deferred().is_empty());
    }

    #[test]
    fn duplicates_are_counted_one_shot() {
        let mut inj = FaultInjector::new(FaultPlan::generate(&FaultSpec::new(4)));
        assert!(!inj.take_duplicate());
        inj.arm(ControllerFault::DuplicateCommand);
        assert!(inj.take_duplicate());
        assert!(!inj.take_duplicate());
        assert_eq!(inj.stats().commands_duplicated, 1);
    }

    #[test]
    fn take_due_delivers_skipped_events_late() {
        let plan = FaultPlan::generate(&FaultSpec::chaos(9));
        let total = plan.len();
        let mut inj = FaultInjector::new(plan);
        let mut seen = 0;
        for access in (0..70_000u64).step_by(977) {
            seen += inj.take_due(access).len();
        }
        seen += inj.take_due(u64::MAX).len();
        assert_eq!(seen, total);
    }
}
