//! # memctrl
//!
//! A bank-level DDR4 memory-controller timing simulator — the substrate on
//! which the Graphene paper's performance and energy evaluation runs.
//!
//! The simulator models what the paper's defenses actually perturb:
//!
//! * per-bank state machines with DDR4 service timing (tRCD/tRP/tCL, the
//!   tRC activate-to-activate constraint, tRFC refresh blackout every
//!   tREFI) — see [`bank`]. Each bank serves its requests in arrival
//!   order: every access, batched or not, goes through one per-access
//!   step of the [`MemoryController`];
//! * a page policy deciding when rows close ([`pagepolicy`], including the
//!   paper's minimalist-open);
//! * the periodic refresh machinery and the paper's **NRR** (Nearby Row
//!   Refresh) protocol extension: a victim-row refresh occupies the bank
//!   for `tRC × rows + tRP`, exactly the accounting of Section V-B;
//! * the defense hook: every ACT is reported to the bank's
//!   [`RowHammerDefense`](mitigations::RowHammerDefense), and every action
//!   it returns is executed, charged for time, and applied to the
//!   ground-truth fault oracle.
//!
//! Performance methodology (see DESIGN.md §4): the CPU side is abstracted
//! into per-access arrival gaps carried by the workload; slowdown is the
//! relative increase in trace completion time versus a defense-free run of
//! the same trace — isolating precisely the victim-refresh interference the
//! paper measures with McSimA+.
//!
//! Controllers are constructed through the typed [`McBuilder`]:
//! [`McBuilder::build`] yields a single [`MemoryController`] over the whole
//! geometry (the legacy semantics), while [`McBuilder::build_system`]
//! yields a channel-sharded [`SystemController`] whose front end routes
//! every access through a [`mapping::MappingPolicy`] to its channel's
//! shard — see [`builder`] and [`system`].
//!
//! # Example
//!
//! ```
//! use memctrl::{McBuilder, McConfig};
//! use workloads::Synthetic;
//!
//! let mut mc = McBuilder::new(McConfig::micro2020_no_oracle()).build();
//! let stats = mc.run(&mut Synthetic::s3(65_536, 1), 10_000);
//! assert_eq!(stats.accesses, 10_000);
//! ```

pub mod audit;
pub mod bank;
pub mod builder;
pub mod ckpt;
pub mod cmdlog;
pub mod config;
pub mod controller;
pub mod faults;
pub mod mapping;
pub mod pagepolicy;
pub mod stats;
pub mod system;
pub mod tap;

pub use audit::{StatsAudit, StatsFinding};
pub use bank::BankState;
pub use builder::{DefenseFactory, McBuilder};
pub use ckpt::CkptError;
pub use cmdlog::{CommandLog, CommandRecord, LoggedCommand, ProtocolChecker, ProtocolViolation};
pub use config::McConfig;
pub use controller::{McBuildError, McError, MemoryController, StampedAccess};
pub use faults::{FaultInjector, FaultStats};
pub use mapping::{MappingPolicy, SystemAddress};
pub use pagepolicy::PagePolicy;
pub use stats::RunStats;
pub use system::{SystemController, SystemRouter, SystemStats};
pub use tap::TelemetryTap;
