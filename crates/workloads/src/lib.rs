//! # workloads
//!
//! Workload generators for the Graphene (MICRO 2020) reproduction.
//!
//! Three families, matching Section V-B of the paper:
//!
//! * [`synthetic`] — the adversarial benchmarks **S1–S4**: S1 cycles through
//!   `N` fixed aggressor rows (N = 10, 20), S2 interleaves the cycle with
//!   occasional random rows, S3 hammers a single row, and S4 mixes S3 with
//!   random accesses.
//! * [`patterns`] — the targeted attack patterns of Figure 7: the
//!   frequency-skew pattern `{x−4, x−2, x−2, x, x, x, x+2, x+2, x+4}` that
//!   defeats PRoHIT's frequency-ordered tables, and the 8-aggressor rotation
//!   that overflows MRLoc's 15-entry history queue.
//! * [`spec_like`] — proxy generators standing in for the paper's SPEC
//!   CPU2006 / PARSEC / GAP traces (see DESIGN.md §4): parameterized by
//!   footprint, Zipf row-popularity skew, sequential-streaming fraction and
//!   memory intensity, with per-benchmark presets whose knobs follow the
//!   qualitative memory behaviour of the named applications.
//!
//! All generators implement [`Workload`], an infinite stream of [`Access`]es
//! (bank, row, inter-arrival gap). Use [`mix::Interleaved`] to merge per-core
//! streams into a multi-bank trace, as the paper's 16-core setup does.
//!
//! # Example
//!
//! ```
//! use workloads::{synthetic::Synthetic, Workload};
//!
//! let mut s1 = Synthetic::s1(10, 4096, 1);
//! let a = s1.next_access();
//! assert!(a.row.0 < 4096);
//! ```

pub mod attacks;
pub mod crc;
pub mod mix;
pub mod patterns;
pub mod rht4;
pub mod spec_like;
pub mod stream;
pub mod synthetic;
pub mod throttle;
pub mod trace;
pub mod vfs;
pub mod zipf;

pub use attacks::{NSidedAttack, SameRowAllBanks, StripedNSided};
pub use crc::{crc32c, Crc32c};
pub use mix::Interleaved;
pub use patterns::{MrlocAttack, ProhitAttack};
pub use rht4::{TraceReader, TraceWriter};
pub use spec_like::{ProxyParams, ProxyWorkload, SpecPreset};
pub use stream::{Access, Workload};
pub use synthetic::Synthetic;
pub use throttle::RateLimited;
pub use trace::{Trace, TraceError, TraceReplay};
pub use vfs::{real_fs, RealFs, Vfs, VfsFile};
pub use zipf::Zipf;
