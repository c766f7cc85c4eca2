//! # rh-sim
//!
//! The end-to-end simulation harness that regenerates the Graphene paper's
//! Figures 8 and 9: it pairs every defense with every workload, runs each
//! pair against a defense-free baseline of the *same* trace, and reports
//! victim-refresh counts, refresh-energy overhead, performance slowdown,
//! and ground-truth bit flips.
//!
//! * [`scenarios`] — the catalog: [`DefenseSpec`] (Graphene, PARA, PRoHIT,
//!   MRLoc, CBT, TWiCe, Ideal, None) and [`WorkloadSpec`] (S1–S4, the
//!   Figure 7 patterns, SPEC-like mixes).
//! * [`runner`] — the one cell runner every sweep shares, and the
//!   baseline-relative (workload × defense) matrix built on it.
//! * [`pool`] — the std-only ordered parallel map every sweep fans its
//!   groups or cells out on.
//! * [`sharded`] — the full-system path: accesses streamed through a
//!   [`memctrl::MappingPolicy`] router into bounded per-channel [`spsc`]
//!   rings, whose batches worker threads and the router itself run one
//!   lane at a time, bit-identical to sequential execution at every worker
//!   count.
//! * [`spsc`] — the std-only bounded single-producer/single-consumer ring
//!   the streaming pipeline is built on.
//! * [`faulted`] — the resilience matrix: seeded fault plans crossed with
//!   defenses and workloads, measuring false negatives, audit detections,
//!   and graceful degradation under injected tracker, controller, and
//!   harness faults.
//! * [`fleet`] — bounded-memory fleet replay: RHT4 traces streamed from
//!   disk through the sharded pipeline in checkpointed segments, with
//!   bit-identical kill/resume via `fleetckpt.v2` checkpoints and
//!   multi-tenant trace synthesis.
//! * [`arena`] — the tracker arena: Graphene, CoMeT, ABACuS, and
//!   BlockHammer head to head across attack workloads and thresholds,
//!   each audited cell scored on security (exact or bounded-FN
//!   certificate), slowdown, area, and energy.
//! * [`generations`] — the cross-generation matrix: the same lineup raced
//!   on every DRAM generation ([`dram_model::Generation`]) with
//!   per-generation derived parameters, RFM-issuing defenses on DDR5 and
//!   LPDDR5, and a DDR4 column pinned bit-identical to the legacy path.
//!
//! # Example
//!
//! ```
//! use rh_sim::{DefenseSpec, SimConfig, WorkloadSpec};
//!
//! let cfg = SimConfig::attack_bank(5_000, 20_000);
//! let report = rh_sim::run_pair(
//!     &cfg,
//!     &DefenseSpec::Graphene { t_rh: 5_000, k: 2 },
//!     &WorkloadSpec::S3,
//! );
//! assert_eq!(report.stats.bit_flips, 0);
//! ```

pub mod arena;
pub mod faulted;
pub mod fleet;
pub mod generations;
pub mod pool;
pub mod runner;
pub mod scenarios;
pub mod sharded;
pub mod spsc;

pub use arena::{arena_lineup, run_arena, ArenaCell, ArenaConfig};
pub use faulted::{
    plan_label, run_matrix_faulted, CellOutcome, FaultedRun, ResilienceCell, ResilienceReport,
};
pub use fleet::{
    read_fleet_checkpoint, run_fleet, run_fleet_supervised, synth_fleet_trace,
    write_fleet_checkpoint, CheckpointStore, CkptFingerprint, FleetCheckpoint, FleetConfig,
    FleetError, FleetProgress, FleetReport, SupervisorConfig, SupervisorReport,
    FLEET_CKPT_FOOTER_SCHEMA, FLEET_CKPT_SCHEMA,
};
pub use generations::{
    generation_lineup, run_generation_matrix, GenerationCell, GenerationMatrixConfig,
};
pub use runner::{
    run_matrix, run_pair, try_run_matrix, CellFailure, CellTelemetry, MatrixError, MatrixTelemetry,
    SimConfig, SimReport, TelemetrySpec,
};
pub use scenarios::{DefenseSpec, GenSpec, SpecParseError, WorkloadSpec};
pub use sharded::{run_system, run_system_sharded, SystemReport};
