//! # faultsim
//!
//! Deterministic fault injection for the Graphene reproduction.
//!
//! Graphene's no-false-negative guarantee (PROOFS.md, paper §IV) assumes the
//! CAM counter table, the NRR path, and the refresh machinery are themselves
//! fault-free. This crate drops that assumption: a seeded [`FaultPlan`]
//! pre-materializes a schedule of fault events at two layers of the
//! simulated hardware, so that resilience experiments are
//! **bit-reproducible** from a single `u64` seed — in CI, across thread
//! counts, and in resumed sweeps.
//!
//! The two layers (see DESIGN.md §6g for the full taxonomy):
//!
//! * [`TrackerFault`] — SRAM soft errors inside a defense's state: single-bit
//!   flips in counter values, tracked row addresses, and the spillover
//!   register, plus transient CAM lookup mismatches;
//! * [`ControllerFault`] — memory-controller misbehavior: dropped or deferred
//!   NRRs under bandwidth pressure, DDR4-legal refresh postponement (up to
//!   8 tREFI, JESD79-4 §4.24), and command duplication at the shard boundary.
//!
//! A plan is pure data: [`FaultPlan::generate`] derives every event from
//! `StdRng::seed_from_u64(spec.seed)` with no dependence on wall-clock time,
//! thread scheduling, or environment. Consumers walk it with a
//! [`FaultCursor`] keyed by **access index** (the n-th access a controller
//! processes), the one clock that is identical across defenses and batch
//! sizes. The [`FaultSpec`] is the archive: a sweep that records its spec
//! regenerates the exact schedule it ran.
//!
//! A third layer targets the harness's **storage stack** rather than the
//! simulated hardware: an [`IoFaultPlan`] ([`iofault`]) places a torn write,
//! bit rot, an fsync failure or a reader stall on a chosen I/O operation
//! against the trace and checkpoint files a fleet run persists, and
//! [`ChaosFs`] ([`chaosfs`]) executes such a plan as a drop-in
//! `workloads::vfs::Vfs` under the *real* reader/writer code.
//!
//! # Example
//!
//! ```
//! use faultsim::{FaultPlan, FaultSpec};
//!
//! let spec = FaultSpec::single_bit_flips(42, 8);
//! let plan = FaultPlan::generate(&spec);
//! assert_eq!(plan, FaultPlan::generate(&spec)); // deterministic
//! assert_eq!(plan.spec(), &spec); // the spec is the archive
//! ```

pub mod chaosfs;
pub mod iofault;
pub mod plan;

pub use chaosfs::{ChaosFs, InjectedFault, IoOpCounts};
pub use iofault::{IoFaultEvent, IoFaultKind, IoFaultPlan, IoOp};
pub use plan::{
    ControllerFault, FaultCursor, FaultEvent, FaultKind, FaultPlan, FaultSpec, TrackerFault,
    MAX_REFRESH_POSTPONE_REFI,
};
