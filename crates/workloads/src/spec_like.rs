//! SPEC-like proxy workload generators.
//!
//! The paper drives its performance/energy evaluation with SPEC CPU2006,
//! PARSEC, SPLASH-2, GAP and MICA traces. Shipping those traces is not
//! possible, and for the quantities measured here only the *row-activation
//! frequency profile* matters: normal workloads never activate any single
//! row anywhere near Graphene's tracking threshold `T` within a reset
//! window — which is exactly why Graphene and TWiCe report zero victim
//! refreshes on them (Figure 8a/c).
//!
//! Each proxy emits the post-cache DRAM activation stream of one core,
//! parameterized by:
//!
//! * `footprint_pages` — distinct DRAM pages (rows) touched;
//! * `zipf_alpha` — popularity skew of the *activation* stream. Note this is
//!   the skew after the cache hierarchy has absorbed the hottest lines, so
//!   it is far milder than the application's logical skew;
//! * `stream_fraction` — probability of continuing a sequential walk
//!   (bank-interleaved streaming) instead of sampling the Zipf;
//! * `mean_gap` — mean inter-activation gap of this core (memory intensity).
//!
//! The presets in [`SpecPreset`] mirror the qualitative behaviour of the
//! paper's benchmark list (§V-B): streaming codes like libquantum/lbm have
//! high `stream_fraction`, pointer chasers like mcf/omnetpp have large
//! footprints and low locality, and the multithreaded MICA/PageRank proxies
//! have large, mildly skewed footprints.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stream::{Access, Workload};
use crate::zipf::Zipf;

/// Parameters of one proxy stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyParams {
    /// Report name (e.g. `"mcf-like"`).
    pub name: String,
    /// Distinct DRAM pages (rows) the stream touches.
    pub footprint_pages: u32,
    /// Zipf skew of the activation stream.
    pub zipf_alpha: f64,
    /// Fraction of accesses continuing a sequential walk.
    pub stream_fraction: f64,
    /// Mean inter-activation gap (ps).
    pub mean_gap: Picoseconds,
}

/// Named presets mirroring the paper's workload list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SpecPreset {
    /// SPEC mcf: pointer-chasing, huge footprint, low locality.
    Mcf,
    /// SPEC milc: lattice QCD, streaming with moderate reuse.
    Milc,
    /// SPEC leslie3d: stencil streaming.
    Leslie3d,
    /// SPEC soplex: sparse LP, irregular with some hot structures.
    Soplex,
    /// SPEC GemsFDTD: large streaming.
    GemsFdtd,
    /// SPEC libquantum: highly sequential streaming.
    Libquantum,
    /// SPEC lbm: lattice-Boltzmann streaming.
    Lbm,
    /// SPEC sphinx3: moderate footprint, mild skew.
    Sphinx3,
    /// SPEC omnetpp: discrete-event simulation, pointer-heavy.
    Omnetpp,
    /// MICA in-memory key-value store (multithreaded).
    Mica,
    /// GAP PageRank (multithreaded).
    PageRank,
    /// SPLASH-2 RADIX sort (multithreaded).
    Radix,
    /// SPLASH-2 FFT (multithreaded).
    Fft,
    /// PARSEC canneal (multithreaded).
    Canneal,
}

impl SpecPreset {
    /// The nine memory-intensive SPEC applications of "SPEC-high" (§V-B).
    pub fn spec_high() -> [SpecPreset; 9] {
        use SpecPreset::*;
        [Mcf, Milc, Leslie3d, Soplex, GemsFdtd, Libquantum, Lbm, Sphinx3, Omnetpp]
    }

    /// The five multithreaded benchmarks (§V-B).
    pub fn multithreaded() -> [SpecPreset; 5] {
        use SpecPreset::*;
        [Mica, PageRank, Radix, Fft, Canneal]
    }

    /// Every preset.
    pub fn all() -> Vec<SpecPreset> {
        let mut v = Self::spec_high().to_vec();
        v.extend(Self::multithreaded());
        v
    }

    /// The proxy parameters of this preset.
    pub fn params(self) -> ProxyParams {
        use SpecPreset::*;
        let (name, footprint, alpha, stream, gap_ns) = match self {
            Mcf => ("mcf-like", 45_000, 0.55, 0.05, 60),
            Milc => ("milc-like", 30_000, 0.35, 0.55, 70),
            Leslie3d => ("leslie3d-like", 24_000, 0.40, 0.70, 80),
            Soplex => ("soplex-like", 28_000, 0.60, 0.20, 75),
            GemsFdtd => ("GemsFDTD-like", 32_000, 0.40, 0.65, 70),
            Libquantum => ("libquantum-like", 16_000, 0.15, 0.90, 55),
            Lbm => ("lbm-like", 26_000, 0.25, 0.80, 55),
            Sphinx3 => ("sphinx3-like", 18_000, 0.60, 0.30, 90),
            Omnetpp => ("omnetpp-like", 36_000, 0.55, 0.10, 85),
            Mica => ("MICA-like", 52_000, 0.60, 0.05, 60),
            PageRank => ("PageRank-like", 44_000, 0.65, 0.20, 65),
            Radix => ("RADIX-like", 20_000, 0.20, 0.85, 60),
            Fft => ("FFT-like", 18_000, 0.30, 0.70, 70),
            Canneal => ("canneal-like", 38_000, 0.45, 0.10, 80),
        };
        ProxyParams {
            name: name.to_owned(),
            footprint_pages: footprint,
            zipf_alpha: alpha,
            stream_fraction: stream,
            mean_gap: gap_ns * 1000,
        }
    }
}

/// A single core's proxy activation stream over a multi-bank system.
///
/// Pages are placed round-robin across `banks` banks starting from a
/// seed-dependent base row, so sequential walks interleave across banks the
/// way an open-page controller sees real streaming.
#[derive(Debug, Clone)]
pub struct ProxyWorkload {
    params: ProxyParams,
    zipf: Zipf,
    banks: u16,
    rows_per_bank: u32,
    base_row: u32,
    /// Multiplicative stride decorrelating Zipf rank from row adjacency.
    shuffle: u32,
    cursor: u32,
    rng: StdRng,
}

impl ProxyWorkload {
    /// Creates the stream.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`, `rows_per_bank == 0`, or the footprint does
    /// not fit in the system (`footprint_pages > banks · rows_per_bank`).
    pub fn new(params: ProxyParams, banks: u16, rows_per_bank: u32, seed: u64) -> Self {
        assert!(banks > 0 && rows_per_bank > 0, "system must be non-empty");
        assert!(
            u64::from(params.footprint_pages) <= u64::from(banks) * u64::from(rows_per_bank),
            "footprint exceeds system capacity"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(params.footprint_pages as usize, params.zipf_alpha);
        let base_row = rng.gen_range(0..rows_per_bank);
        ProxyWorkload {
            zipf,
            banks,
            rows_per_bank,
            base_row,
            shuffle: 2_654_435_761, // Knuth's multiplicative constant (odd)
            cursor: 0,
            rng,
            params,
        }
    }

    /// Builds the stream from a preset.
    pub fn from_preset(preset: SpecPreset, banks: u16, rows_per_bank: u32, seed: u64) -> Self {
        Self::new(preset.params(), banks, rows_per_bank, seed)
    }

    /// The parameters in use.
    pub fn params(&self) -> &ProxyParams {
        &self.params
    }

    /// Maps a logical page to its (bank, row) placement.
    fn place(&self, page: u32) -> (u16, RowId) {
        let bank = (page % u32::from(self.banks)) as u16;
        let row = (self.base_row + page / u32::from(self.banks)) % self.rows_per_bank;
        (bank, RowId(row))
    }

    /// Decorrelates Zipf rank from page adjacency so hot pages are scattered.
    fn shuffle_rank(&self, rank: u32) -> u32 {
        (rank.wrapping_mul(self.shuffle)) % self.params.footprint_pages
    }

    fn exponential_gap(&mut self) -> Picoseconds {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-(u.ln()) * self.params.mean_gap as f64) as Picoseconds
    }
}

impl Workload for ProxyWorkload {
    fn name(&self) -> String {
        self.params.name.clone()
    }

    fn next_access(&mut self) -> Access {
        let page = if self.rng.gen_bool(self.params.stream_fraction) {
            self.cursor = (self.cursor + 1) % self.params.footprint_pages;
            self.cursor
        } else {
            // The sampler draws from `0..footprint_pages` and the footprint
            // is a u32, so the rank always fits; a checked conversion turns
            // any future violation of that invariant into a loud panic
            // instead of a silently aliased page (the old `as u32` wrapped).
            let rank = u32::try_from(self.zipf.sample(&mut self.rng))
                .expect("zipf rank bounded by the u32 footprint");
            let page = self.shuffle_rank(rank);
            self.cursor = page;
            page
        };
        let (bank, row) = self.place(page);
        Access { bank, row, gap: self.exponential_gap(), stream: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn mk(preset: SpecPreset) -> ProxyWorkload {
        ProxyWorkload::from_preset(preset, 16, 65_536, 77)
    }

    #[test]
    fn accesses_stay_in_system() {
        let mut w = mk(SpecPreset::Mcf);
        for _ in 0..10_000 {
            let a = w.next_access();
            assert!(a.bank < 16);
            assert!(a.row.0 < 65_536);
        }
    }

    #[test]
    fn mean_gap_close_to_parameter() {
        let mut w = mk(SpecPreset::Libquantum);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| w.next_access().gap).sum();
        let mean = total as f64 / n as f64;
        let target = w.params().mean_gap as f64;
        assert!((mean / target - 1.0).abs() < 0.05, "mean {mean} target {target}");
    }

    #[test]
    fn streaming_preset_walks_sequentially() {
        // libquantum-like: ≥ 85 % of accesses advance the cursor by one page,
        // which in bank-interleaved placement means the next bank.
        let mut w = mk(SpecPreset::Libquantum);
        let mut sequential = 0;
        let mut last_bank = w.next_access().bank;
        let n = 10_000;
        for _ in 0..n {
            let a = w.next_access();
            if a.bank == (last_bank + 1) % 16 {
                sequential += 1;
            }
            last_bank = a.bank;
        }
        assert!(sequential as f64 / n as f64 > 0.75, "sequential {sequential}/{n}");
    }

    #[test]
    fn no_single_row_approaches_tracking_threshold() {
        // The property that makes Graphene/TWiCe refresh-free on normal
        // workloads: the hottest (bank, row) stays far below T = 8,333 per
        // reset window. One window at mean_gap ≥ 55 ns admits ≲ 580K accesses
        // per core; we sample 200K and scale.
        for preset in SpecPreset::all() {
            let mut w = ProxyWorkload::from_preset(preset, 16, 65_536, 42);
            let mut counts: HashMap<(u16, u32), u64> = HashMap::new();
            let sample = 200_000u64;
            let mut span: u64 = 0;
            for _ in 0..sample {
                let a = w.next_access();
                span += a.gap;
                *counts.entry((a.bank, a.row.0)).or_insert(0) += 1;
            }
            let hottest = counts.values().copied().max().unwrap();
            // Scale the hottest count to a full 32 ms reset window.
            let window = 32_000_000_000u64;
            let scaled = hottest as f64 * window as f64 / span as f64;
            assert!(
                scaled < 8_333.0 / 2.0,
                "{}: hottest row would see ~{scaled:.0} ACTs per window",
                w.name()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = mk(SpecPreset::Soplex).take_accesses(100);
        let b = mk(SpecPreset::Soplex).take_accesses(100);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = ProxyWorkload::from_preset(SpecPreset::Soplex, 16, 65_536, 1).take_accesses(100);
        let b = ProxyWorkload::from_preset(SpecPreset::Soplex, 16, 65_536, 2).take_accesses(100);
        assert_ne!(a, b);
    }

    #[test]
    fn preset_lists() {
        assert_eq!(SpecPreset::spec_high().len(), 9);
        assert_eq!(SpecPreset::multithreaded().len(), 5);
        assert_eq!(SpecPreset::all().len(), 14);
    }

    #[test]
    #[should_panic(expected = "footprint exceeds system capacity")]
    fn oversized_footprint_panics() {
        let params = ProxyParams {
            name: "huge".to_owned(),
            footprint_pages: 1000,
            zipf_alpha: 0.5,
            stream_fraction: 0.5,
            mean_gap: 1000,
        };
        let _ = ProxyWorkload::new(params, 1, 100, 0);
    }
}
