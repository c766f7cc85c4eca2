//! # mitigations
//!
//! Every Row Hammer defense the Graphene paper (MICRO 2020) evaluates or
//! compares against, behind one trait:
//!
//! | Defense | Kind | Guarantee | Module |
//! |---------|------|-----------|--------|
//! | [`GrapheneDefense`] | counter (Misra-Gries) | no false negatives | [`graphene`] |
//! | [`HardenedGraphene`] | counter + SRAM parity | no false negatives under single-bit faults | [`hardened`] |
//! | [`Para`] | probabilistic | probabilistic only | [`para`] |
//! | [`Prohit`] | probabilistic + history tables | none (defeatable) | [`prohit`] |
//! | [`Mrloc`] | probabilistic + locality queue | none (defeatable) | [`mrloc`] |
//! | [`Cbt`] | counter tree | no false negatives, bursty refreshes | [`cbt`] |
//! | [`Cra`] | per-row counters cached on chip | no false negatives, locality-dependent cost | [`cra`] |
//! | [`Twice`] | per-row counters w/ pruning | no false negatives | [`twice`] |
//! | [`IdealCounters`] | one counter per row | no false negatives (oracle) | [`ideal`] |
//! | [`NoDefense`] | — | none (baseline) | [`none`] |
//! | [`CometDefense`] | Count-Min Sketch + recent-aggressor table | bounded false-negative probability | [`comet`] |
//! | [`AbacusDefense`] | one shared all-bank counter table | no false negatives (certified with headroom) | [`abacus`] |
//! | [`BlockHammerDefense`] | dual counting-Bloom blacklist, throttles | deterministic rate cap, no refreshes | [`blockhammer`] |
//!
//! The last three form the *tracker arena* (DESIGN.md §6j): Graphene's
//! successors wired through the same trait, the same audit layer, and — for
//! BlockHammer — the [`ThrottleDecision`] scheduler-feedback path.
//!
//! On DDR5/LPDDR5 targets the [`RfmIssuer`] wrapper ([`rfm`]) re-spells a
//! defense's NRRs as standardised RFM commands (DESIGN.md §6k); the audit
//! layer certifies both spellings identically.
//!
//! A defense is driven by the memory controller: [`RowHammerDefense::on_activation`]
//! for every ACT and [`RowHammerDefense::on_refresh_tick`] at every tREFI
//! (where TWiCe prunes and PRoHIT spends its refresh slot). A defense answers
//! with [`RefreshAction`]s, which the controller converts into NRR/refresh
//! commands — and which the simulator charges for energy and bank-busy time.
//!
//! # Example
//!
//! ```
//! use dram_model::RowId;
//! use mitigations::{Para, RowHammerDefense};
//!
//! let mut para = Para::new(0.00145, 1);
//! let mut extra = 0;
//! for i in 0..10_000u64 {
//!     extra += para.on_activation(RowId(7), i * 45_000).len();
//! }
//! // PARA refreshes ≈ p per ACT regardless of the pattern.
//! assert!((5..25).contains(&extra));
//! ```

pub mod abacus;
pub mod audit;
pub mod blockhammer;
pub mod cbt;
pub(crate) mod ckpt;
pub mod comet;
pub mod cra;
pub mod defense;
pub mod graphene;
pub mod hardened;
pub mod ideal;
pub mod instrumented;
pub mod mrloc;
pub mod none;
pub mod para;
pub mod prohit;
pub mod refresh_rate;
pub mod rfm;
pub mod trr;
pub mod twice;

pub use abacus::{AbacusConfig, AbacusCore, AbacusDefense};
pub use audit::{AuditConfig, AuditedDefense, ShadowCert};
pub use blockhammer::{BlockHammerConfig, BlockHammerDefense, BlockHammerStats};
pub use cbt::{Cbt, CbtConfig};
pub use comet::{CometConfig, CometDefense, CometStats};
pub use cra::{Cra, CraConfig, CraStats};
pub use defense::{RefreshAction, RowHammerDefense, TableBits, ThrottleDecision};
pub use graphene::GrapheneDefense;
pub use hardened::{HardenedGraphene, HardenedStats};
pub use ideal::IdealCounters;
pub use instrumented::{instrumented, InstrumentedDefense};
pub use mrloc::{Mrloc, MrlocConfig};
pub use none::NoDefense;
pub use para::Para;
pub use prohit::{Prohit, ProhitConfig};
pub use refresh_rate::RefreshRateScaling;
pub use rfm::RfmIssuer;
pub use trr::{TrrConfig, TrrSampler};
pub use twice::{Twice, TwiceConfig};
