//! # faultsim
//!
//! Deterministic fault injection for the Graphene reproduction.
//!
//! Graphene's no-false-negative guarantee (PROOFS.md, paper §IV) assumes the
//! CAM counter table, the NRR path, and the refresh machinery are themselves
//! fault-free. This crate drops that assumption: a seeded, serializable
//! [`FaultPlan`] pre-materializes a schedule of fault events at three layers
//! of the stack, so that resilience experiments are **bit-reproducible** from
//! a single `u64` seed — in CI, across thread counts, and in resumed sweeps.
//!
//! The three layers (see DESIGN.md §6g for the full taxonomy):
//!
//! * [`TrackerFault`] — SRAM soft errors inside a defense's state: single-bit
//!   flips in counter values, tracked row addresses, and the spillover
//!   register, plus transient CAM lookup mismatches;
//! * [`ControllerFault`] — memory-controller misbehavior: dropped or deferred
//!   NRRs under bandwidth pressure, DDR4-legal refresh postponement (up to
//!   8 tREFI, JESD79-4 §4.24), and command duplication at the shard boundary;
//! * [`HarnessFault`] — failures of the experiment harness itself: telemetry
//!   sink write failures and sweep-worker stalls, which the harness must
//!   absorb via retry/backoff and a bounded per-cell stall budget rather
//!   than aborting.
//!
//! A plan is pure data: [`FaultPlan::generate`] derives every event from
//! `StdRng::seed_from_u64(spec.seed)` with no dependence on wall-clock time,
//! thread scheduling, or environment. Consumers walk it with a
//! [`FaultCursor`] keyed by **access index** (the n-th access a controller
//! processes), the one clock that is identical across defenses and batch
//! sizes. Plans round-trip through JSONL ([`FaultPlan::to_jsonl`] /
//! [`FaultPlan::parse_jsonl`]) so a sweep can archive the exact schedule it
//! ran alongside its results.
//!
//! A fourth layer targets the harness's **storage stack** rather than the
//! simulated hardware: [`IoFaultPlan`] ([`iofault`]) schedules torn writes,
//! bit rot, fsync failures, and reader stalls against the trace and
//! checkpoint files a fleet run persists, keyed by I/O-operation index, and
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
//! let reparsed = FaultPlan::parse_jsonl(&plan.to_jsonl()).unwrap();
//! assert_eq!(reparsed, plan); // serializable
//! ```

pub mod chaosfs;
pub mod iofault;
pub mod plan;
pub mod serial;

pub use chaosfs::{ChaosFs, InjectedFault, IoOpCounts};
pub use iofault::{IoFaultEvent, IoFaultKind, IoFaultPlan, IoFaultSpec, IoOp, IO_SCHEMA};
pub use plan::{
    ControllerFault, FaultCursor, FaultEvent, FaultKind, FaultPlan, FaultSpec, HarnessFault,
    TrackerFault, MAX_REFRESH_POSTPONE_REFI,
};
