//! # freq-elems
//!
//! Space-efficient streaming algorithms for the *frequent elements* problem —
//! the algorithmic substrate of Graphene (MICRO 2020), which applies
//! Misra-Gries to the stream of DRAM row activations.
//!
//! Five classic algorithms are provided behind one trait,
//! [`FrequencyEstimator`]:
//!
//! * [`MisraGries`] — the original decrement-based summary (Misra & Gries,
//!   1982). Deterministic **under**-estimates with error at most
//!   `W / (capacity + 1)` over a stream of `W` items.
//! * [`SpilloverSummary`] — the spillover-counter formulation the Graphene
//!   paper presents (Figure 1): a counter table plus one spillover count.
//!   Deterministic **over**-estimates (`estimate ≥ actual`), and every item
//!   occurring more than `W / (capacity + 1)` times is guaranteed to be in
//!   the table — the two lemmas behind Graphene's protection proof.
//! * [`SpaceSaving`] — replace-the-minimum (Metwally et al., 2005); also
//!   over-estimating with the same heavy-hitter guarantee.
//! * [`LossyCounting`] — bucket-based (Manku & Motwani, 2002) with error at
//!   most `ε·W`.
//! * [`CountMinSketch`] — hashing sketch (Cormode & Muthukrishnan, 2003);
//!   over-estimates with probabilistic error bounds. It is a
//!   [`CountMinCore`] plus a bounded heavy-hitter candidate set.
//!
//! [`CountMinCore`] is the sketch without the candidate set: the counter
//! array and its hash family, hashing a key once per event and counting,
//! estimating and discounting at those indices. The sketch-based Row
//! Hammer trackers in `mitigations` (CoMeT, BlockHammer) hold it directly,
//! since they never ask for heavy hitters.
//!
//! The Graphene core crate uses its own hardware-faithful (CAM-modeled,
//! fixed-width) spillover table; this crate exists to property-test the
//! algorithmic guarantees in isolation, to support the tracker-choice
//! ablation (`DESIGN.md` §6), and to provide the sketch core.
//!
//! # Example
//!
//! ```
//! use freq_elems::{FrequencyEstimator, SpilloverSummary};
//!
//! let mut s = SpilloverSummary::new(3);
//! for x in [1u32, 1, 2, 1, 3, 4, 1, 5] {
//!     s.observe(x);
//! }
//! // Item 1 occurs 4 times out of 8 > 8/(3+1): it must be tracked, and its
//! // estimate can never be below its actual count.
//! assert!(s.estimate(&1) >= 4);
//! ```

pub mod count_min;
pub mod lossy_counting;
pub mod misra_gries;
pub mod space_saving;
pub mod spillover;
pub mod traits;

pub use count_min::{CountMinCore, CountMinSketch};
pub use lossy_counting::LossyCounting;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;
pub use spillover::SpilloverSummary;
pub use traits::{observe_all, FrequencyEstimator};
