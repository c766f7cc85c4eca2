//! # dram-model
//!
//! A DDR4 DRAM device model used by the Graphene (MICRO 2020) reproduction.
//!
//! The crate provides the substrate every Row Hammer defense is evaluated on:
//!
//! * [`timing`] — JEDEC DDR4 timing parameters (Table I of the paper) and the
//!   derived quantities the paper's sizing formulas need, most importantly the
//!   maximum number of row activations that fit in a refresh window.
//! * [`generation`] — the multi-generation layer over [`timing`]: the
//!   [`Generation`] enum (DDR4-2400, DDR5-4800 with RFM, LPDDR4X, LPDDR5)
//!   and the [`RfmSpec`] refresh-management accounting constants.
//! * [`geometry`] — channel/rank/bank/row organization and strongly-typed
//!   addresses ([`RowId`], [`BankCoord`]).
//! * [`fault`] — a ground-truth Row Hammer *fault oracle*: it integrates the
//!   disturbance every activation inflicts on neighbouring rows (with
//!   configurable distance coefficients `μ_i`) and reports bit flips whenever
//!   a victim row accumulates disturbance beyond the Row Hammer threshold
//!   without being refreshed. Defenses are judged against this oracle.
//! * [`refresh`] — the auto-refresh engine (8192 REF commands per tREFW),
//!   which rotates through the rows of a bank.
//!
//! `memctrl` drives one [`FaultOracle`] and one [`RefreshEngine`] per bank
//! on every ACT, NRR/RFM and REF burst: together they are the one ground
//! truth every experiment judges a defense against.
//!
//! # Example
//!
//! ```
//! use dram_model::timing::DramTiming;
//!
//! let t = DramTiming::ddr4_2400();
//! // The paper's W: max ACTs in one tREFW window (≈1360K for DDR4).
//! let w = t.max_acts_per_refresh_window();
//! assert!(w > 1_300_000 && w < 1_400_000);
//! ```

pub mod error;
pub mod fault;
pub mod generation;
pub mod geometry;
pub mod refresh;
pub mod timing;

pub use error::DramError;
pub use fault::{BitFlip, DisturbanceModel, FaultOracle, MuModel};
pub use generation::{Generation, RfmSpec};
pub use geometry::{BankCoord, DramGeometry, RowId};
pub use refresh::{RefreshEngine, MAX_POSTPONED_REFS};
pub use timing::{DramTiming, Picoseconds};
