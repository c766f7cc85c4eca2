//! Fault taxonomy, generation spec, and the pre-materialized schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DDR4 allows at most 8 REF commands to be postponed (JESD79-4 §4.24);
/// every generated [`ControllerFault::PostponeRefresh`] respects this bound.
pub const MAX_REFRESH_POSTPONE_REFI: u32 = 8;

/// A soft error inside a tracker's SRAM/CAM state.
///
/// Slot and bit indices are generated within the bounds declared by the
/// [`FaultSpec`]; consumers reduce them modulo their actual table geometry so
/// one plan is meaningful across defenses with different table sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerFault {
    /// Flip bit `bit` of the counter value stored in entry `slot`.
    CountBitFlip {
        /// Table entry index (reduce modulo capacity).
        slot: u32,
        /// Bit position within the counter field.
        bit: u32,
    },
    /// Flip bit `bit` of the row address stored in entry `slot`.
    AddrBitFlip {
        /// Table entry index (reduce modulo capacity).
        slot: u32,
        /// Bit position within the address field.
        bit: u32,
    },
    /// Flip bit `bit` of the spillover register.
    SpilloverBitFlip {
        /// Bit position within the spillover counter.
        bit: u32,
    },
    /// The next CAM lookup misses even if the address is present (a
    /// transient compare-line glitch; not correctable by storage parity).
    LookupMiss,
}

impl TrackerFault {
    /// True for the storage bit-flip variants that a per-entry parity bit
    /// can detect; false for transient [`TrackerFault::LookupMiss`] events,
    /// which never corrupt stored state.
    pub fn is_single_bit(&self) -> bool {
        !matches!(self, TrackerFault::LookupMiss)
    }
}

/// A memory-controller fault at the command/NRR level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerFault {
    /// Drop every refresh action the defense emits on this access (an NRR
    /// squeezed out by bandwidth pressure).
    DropNrr,
    /// Defer the refresh actions emitted on this access by `accesses`
    /// subsequently served accesses before they are applied (NRRs parked
    /// behind demand traffic).
    DeferNrr {
        /// How many served accesses to hold the actions for.
        accesses: u64,
    },
    /// Postpone auto-refresh by `refis` tREFI intervals (DDR4-legal for
    /// `refis <= 8`), after which the controller catches up the backlog.
    PostponeRefresh {
        /// Number of tREFI intervals to postpone; always in `1..=8`.
        refis: u32,
    },
    /// Replay this access's activation once more at the shard boundary
    /// (command duplication: the row is opened and hammered twice).
    DuplicateCommand,
}

/// One fault of any layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Tracker SRAM soft error.
    Tracker(TrackerFault),
    /// Memory-controller fault.
    Controller(ControllerFault),
}

/// A scheduled fault: `kind` strikes bank `bank` when the controller
/// processes its `at_access`-th access (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Stable generation order; ties on `at_access` resolve by `seq` so the
    /// schedule is a total order independent of sort stability.
    pub seq: u64,
    /// 0-based access index at which the fault strikes.
    pub at_access: u64,
    /// Target bank (reduce modulo the controller's bank count).
    pub bank: u16,
    /// What happens.
    pub kind: FaultKind,
}

/// Generation parameters for a [`FaultPlan`].
///
/// Every field participates in generation deterministically; two equal specs
/// always produce equal plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// RNG seed; the sole source of randomness.
    pub seed: u64,
    /// Horizon: events are placed at access indices in `[0, accesses)`.
    pub accesses: u64,
    /// Number of banks to spread events over.
    pub banks: u16,
    /// Tracker table entries assumed when sampling slot indices.
    pub tracker_slots: u32,
    /// Width of the counter field in bits.
    pub count_bits: u32,
    /// Width of the address field in bits.
    pub addr_bits: u32,
    /// Width of the spillover register in bits.
    pub spillover_bits: u32,
    /// Number of stored-bit-flip tracker events (count/addr/spillover).
    pub bit_flips: u32,
    /// Number of transient CAM lookup-miss events.
    pub lookup_misses: u32,
    /// Number of dropped-NRR events.
    pub nrr_drops: u32,
    /// Number of deferred-NRR events.
    pub nrr_defers: u32,
    /// Number of refresh-postponement events.
    pub refresh_postpones: u32,
    /// Number of command-duplication events.
    pub duplicates: u32,
}

impl FaultSpec {
    /// An empty spec (no faults) for `seed`, with the reproduction's default
    /// geometry bounds: 65 536 accesses, 16 banks, 64-slot tables, 16-bit
    /// counters, 18-bit addresses, 16-bit spillover.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            accesses: 65_536,
            banks: 16,
            tracker_slots: 64,
            count_bits: 16,
            addr_bits: 18,
            spillover_bits: 16,
            bit_flips: 0,
            lookup_misses: 0,
            nrr_drops: 0,
            nrr_defers: 0,
            refresh_postpones: 0,
            duplicates: 0,
        }
    }

    /// A plan of exactly `n` stored single-bit flips and nothing else — the
    /// fault class [`HardenedGraphene`] parity is proven against (every
    /// event satisfies [`TrackerFault::is_single_bit`]).
    ///
    /// [`HardenedGraphene`]: https://docs.rs/mitigations
    pub fn single_bit_flips(seed: u64, n: u32) -> Self {
        FaultSpec { bit_flips: n, ..Self::new(seed) }
    }

    /// A plan exercising every fault class at once.
    pub fn chaos(seed: u64) -> Self {
        FaultSpec {
            bit_flips: 8,
            lookup_misses: 4,
            nrr_drops: 4,
            nrr_defers: 4,
            refresh_postpones: 2,
            duplicates: 4,
            ..Self::new(seed)
        }
    }

    /// Total number of events this spec generates.
    pub fn event_count(&self) -> u64 {
        u64::from(self.bit_flips)
            + u64::from(self.lookup_misses)
            + u64::from(self.nrr_drops)
            + u64::from(self.nrr_defers)
            + u64::from(self.refresh_postpones)
            + u64::from(self.duplicates)
    }
}

/// A pre-materialized, access-index-ordered fault schedule.
///
/// Generation is a pure function of the [`FaultSpec`]; the schedule never
/// consults time, environment, or thread identity, so the same spec yields a
/// bit-identical plan on every machine and under any parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    spec: FaultSpec,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the schedule for `spec`.
    pub fn generate(spec: &FaultSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut events = Vec::with_capacity(spec.event_count() as usize);
        let horizon = spec.accesses.max(1);
        let banks = spec.banks.max(1);
        let mut seq = 0u64;
        let mut push = |events: &mut Vec<FaultEvent>, rng: &mut StdRng, kind: FaultKind| {
            events.push(FaultEvent {
                seq,
                at_access: rng.gen_range(0..horizon),
                bank: rng.gen_range(0..banks),
                kind,
            });
            seq += 1;
        };
        for _ in 0..spec.bit_flips {
            // Weight flips toward counter bits (the dominant SRAM area), with
            // address and spillover flips mixed in.
            let kind = match rng.gen_range(0u32..4) {
                0 | 1 => TrackerFault::CountBitFlip {
                    slot: rng.gen_range(0..spec.tracker_slots.max(1)),
                    bit: rng.gen_range(0..spec.count_bits.max(1)),
                },
                2 => TrackerFault::AddrBitFlip {
                    slot: rng.gen_range(0..spec.tracker_slots.max(1)),
                    bit: rng.gen_range(0..spec.addr_bits.max(1)),
                },
                _ => TrackerFault::SpilloverBitFlip {
                    bit: rng.gen_range(0..spec.spillover_bits.max(1)),
                },
            };
            push(&mut events, &mut rng, FaultKind::Tracker(kind));
        }
        for _ in 0..spec.lookup_misses {
            push(&mut events, &mut rng, FaultKind::Tracker(TrackerFault::LookupMiss));
        }
        for _ in 0..spec.nrr_drops {
            push(&mut events, &mut rng, FaultKind::Controller(ControllerFault::DropNrr));
        }
        for _ in 0..spec.nrr_defers {
            let accesses = rng.gen_range(1u64..=16);
            push(
                &mut events,
                &mut rng,
                FaultKind::Controller(ControllerFault::DeferNrr { accesses }),
            );
        }
        for _ in 0..spec.refresh_postpones {
            let refis = rng.gen_range(1..=MAX_REFRESH_POSTPONE_REFI);
            push(
                &mut events,
                &mut rng,
                FaultKind::Controller(ControllerFault::PostponeRefresh { refis }),
            );
        }
        for _ in 0..spec.duplicates {
            push(&mut events, &mut rng, FaultKind::Controller(ControllerFault::DuplicateCommand));
        }
        events.sort_by_key(|e| (e.at_access, e.seq));
        FaultPlan { spec: *spec, events }
    }

    /// The spec this plan was generated from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// All events in schedule order (ascending `at_access`, ties by `seq`).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when every event is a stored single-bit tracker flip — the fault
    /// class the `HardenedGraphene` parity certificate covers.
    pub fn is_single_bit_only(&self) -> bool {
        self.events.iter().all(|e| matches!(e.kind, FaultKind::Tracker(t) if t.is_single_bit()))
    }

    /// A cursor for walking the schedule access by access.
    pub fn cursor(&self) -> FaultCursor<'_> {
        FaultCursor { plan: self, next: 0 }
    }
}

/// Sequential reader over a [`FaultPlan`], keyed by access index.
///
/// # Example
///
/// ```
/// use faultsim::{FaultPlan, FaultSpec};
///
/// let plan = FaultPlan::generate(&FaultSpec::single_bit_flips(7, 3));
/// let mut cursor = plan.cursor();
/// let mut seen = 0;
/// for access in 0..plan.spec().accesses {
///     seen += cursor.take_due(access).len();
/// }
/// assert_eq!(seen, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FaultCursor<'a> {
    plan: &'a FaultPlan,
    next: usize,
}

impl<'a> FaultCursor<'a> {
    /// All events scheduled at exactly `access_index`, advancing the cursor
    /// past them. Access indices must be presented in non-decreasing order;
    /// events for skipped indices are returned together with the current
    /// ones (faults do not silently disappear if accesses are coalesced).
    pub fn take_due(&mut self, access_index: u64) -> &'a [FaultEvent] {
        let start = self.next;
        let events = self.plan.events();
        while self.next < events.len() && events[self.next].at_access <= access_index {
            self.next += 1;
        }
        &events[start..self.next]
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.plan.events().len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = FaultSpec::chaos(1234);
        assert_eq!(FaultPlan::generate(&spec), FaultPlan::generate(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&FaultSpec::chaos(1));
        let b = FaultPlan::generate(&FaultSpec::chaos(2));
        assert_ne!(a, b);
    }

    #[test]
    fn events_sorted_by_access_then_seq() {
        let plan = FaultPlan::generate(&FaultSpec::chaos(99));
        for w in plan.events().windows(2) {
            assert!((w[0].at_access, w[0].seq) < (w[1].at_access, w[1].seq));
        }
    }

    #[test]
    fn single_bit_spec_generates_only_parity_visible_flips() {
        let plan = FaultPlan::generate(&FaultSpec::single_bit_flips(5, 32));
        assert_eq!(plan.len(), 32);
        assert!(plan.is_single_bit_only());
        assert!(!FaultPlan::generate(&FaultSpec::chaos(5)).is_single_bit_only());
    }

    #[test]
    fn postponement_respects_ddr4_bound() {
        let spec = FaultSpec { refresh_postpones: 64, ..FaultSpec::new(3) };
        let plan = FaultPlan::generate(&spec);
        for e in plan.events() {
            if let FaultKind::Controller(ControllerFault::PostponeRefresh { refis }) = e.kind {
                assert!((1..=MAX_REFRESH_POSTPONE_REFI).contains(&refis));
            }
        }
    }

    #[test]
    fn cursor_returns_skipped_events() {
        let plan = FaultPlan::generate(&FaultSpec::chaos(77));
        let mut cursor = plan.cursor();
        // Jump straight past the horizon: everything is due at once.
        let due = cursor.take_due(plan.spec().accesses);
        assert_eq!(due.len(), plan.len());
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.take_due(plan.spec().accesses + 1).is_empty());
    }

    #[test]
    fn cursor_walk_visits_every_event_once() {
        let plan = FaultPlan::generate(&FaultSpec::chaos(11));
        let mut cursor = plan.cursor();
        let mut total = 0;
        for access in 0..plan.spec().accesses {
            total += cursor.take_due(access).len();
        }
        assert_eq!(total, plan.len());
    }

    #[test]
    fn event_count_matches_spec() {
        let spec = FaultSpec::chaos(21);
        assert_eq!(FaultPlan::generate(&spec).len() as u64, spec.event_count());
    }
}
