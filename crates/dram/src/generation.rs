//! DRAM generations: const timing instances, refresh-management (RFM)
//! specs, and per-generation protection presets.
//!
//! The paper evaluates one device — DDR4-2400, Table I — but every formula
//! it derives (`W`, `T`, `N_entry`, the reset window) is a function of the
//! timing alone. This module lifts the single [`DramTiming`] instance into
//! a small generation API so the rest of the stack can be generic over the
//! device:
//!
//! * [`DramGeneration`] — a zero-cost trait whose implementors are
//!   zero-sized types carrying their timing as an associated `const`
//!   ([`Ddr4_2400`], [`Ddr5_4800`], [`Lpddr4x`], [`Lpddr5`]). Code that is
//!   monomorphized per generation pays nothing at run time.
//! * [`Generation`] — the runtime enum mirror of the same instances, for
//!   CLI flags, spec strings, and report matrices that iterate over
//!   generations dynamically. `Generation::Ddr4_2400.timing()` is
//!   **bit-identical** to [`DramTiming::ddr4_2400`], which is what pins the
//!   legacy DDR4 path through the refactor (see the differential tests in
//!   `rh_sim::generations`).
//! * [`RfmSpec`] — DDR5/LPDDR5 Refresh Management accounting: the
//!   controller keeps a per-bank Rolling Accumulated ACT (RAA) counter;
//!   once it crosses RAAIMT the tracker may spend an RFM command (which
//!   debits RAAIMT), and the controller must never let it cross RAAMMT.
//!
//! ## Modeling notes
//!
//! DDR4-2400 is the paper's exact Table I/III instance. The other three are
//! *modeling configurations*, not transcriptions of a specific datasheet
//! bin: DDR5-4800 halves tREFI (3.9 µs) and tREFW (32 ms) per JESD79-5's
//! fine-granularity refresh, with the same-bank refresh blackout (~130 ns)
//! standing in for tRFCsb; the LPDDR entries use representative
//! LPDDR4X-4266/LPDDR5-6400 service timings with the mobile 32 ms window.
//! What matters for the defense matrix is that the *derived* quantities
//! (`W`, REF cadence, postponement budget, RAA thresholds) move the way the
//! standards move them; the tests below pin those directions.

use std::fmt;
use std::str::FromStr;

use crate::timing::{DramTiming, Picoseconds, MS};

/// DDR5/LPDDR5 Refresh Management (RFM) accounting constants.
///
/// Units: RAAIMT/RAAMMT count ACTs per bank; `t_rfm` is the bank-busy time
/// of one RFM command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfmSpec {
    /// RAA Initial Management Threshold: one RFM command is owed (and one
    /// issued RFM debits) this many ACTs.
    pub raaimt: u32,
    /// RAA Maximum Management Threshold: the controller must issue an RFM
    /// before the per-bank RAA counter exceeds this.
    pub raammt: u32,
    /// Bank-busy time of one RFM command.
    pub t_rfm: Picoseconds,
}

impl RfmSpec {
    /// Checks internal consistency: non-zero thresholds, `raaimt ≤ raammt`,
    /// non-zero command time.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.raaimt == 0 {
            return Err("raaimt must be non-zero".into());
        }
        if self.raammt < self.raaimt {
            return Err(format!("raammt {} below raaimt {}", self.raammt, self.raaimt));
        }
        if self.t_rfm == 0 {
            return Err("t_rfm must be non-zero".into());
        }
        Ok(())
    }
}

/// A DRAM generation as a zero-sized const-timing instance.
///
/// Implementors are unit structs; everything is an associated constant, so
/// generation-generic code monomorphizes to the same machine code as the
/// hand-written DDR4 path. The runtime [`Generation`] enum delegates to
/// these constants, keeping exactly one definition of each instance.
pub trait DramGeneration {
    /// Spec-string / report name (`"ddr4"`, `"ddr5"`, …).
    const NAME: &'static str;
    /// The generation's timing parameters.
    const TIMING: DramTiming;
    /// Refresh-management accounting, for generations that define RFM.
    const RFM: Option<RfmSpec>;
    /// Maximum REF commands the controller may accumulate as postponed
    /// (JESD79-4 §4.24 allows 8 at DDR4's 7.8 µs tREFI; DDR5's halved
    /// tREFI doubles the count for the same ~62.4 µs wall-clock budget).
    const MAX_POSTPONED_REFS: u32;
    /// Row Hammer threshold presets the generation is evaluated at,
    /// descending (the head is the default).
    const T_RH_PRESETS: &'static [u64];
}

/// The paper's DDR4-2400 device (Tables I and III) — bit-identical to
/// [`DramTiming::ddr4_2400`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ddr4_2400;

impl DramGeneration for Ddr4_2400 {
    const NAME: &'static str = "ddr4";
    const TIMING: DramTiming = DramTiming::ddr4_2400();
    const RFM: Option<RfmSpec> = None;
    const MAX_POSTPONED_REFS: u32 = 8;
    const T_RH_PRESETS: &'static [u64] = &[50_000, 25_000, 12_500, 6_250, 3_125, 1_560];
}

/// DDR5-4800: halved tREFI/tREFW, same-bank refresh granularity, RFM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ddr5_4800;

impl DramGeneration for Ddr5_4800 {
    const NAME: &'static str = "ddr5";
    const TIMING: DramTiming = DramTiming {
        t_refi: 3_900_000, // 3.9 µs: DDR4's tREFI halved (JESD79-5 FGR)
        t_rfc: 130_000,    // 130 ns same-bank refresh blackout (tRFCsb)
        t_rc: 48_000,      // 48 ns (tRAS 32 + tRP 16)
        t_rcd: 16_000,     // 16 ns
        t_rp: 16_000,      // 16 ns
        t_cl: 16_600,      // CL40 at 4800 MT/s
        t_refw: 32 * MS,   // 32 ms refresh window
    };
    const RFM: Option<RfmSpec> = Some(RfmSpec {
        raaimt: 32,     // mid-range of the spec's 16..80 (multiples of 8)
        raammt: 192,    // 6 × RAAIMT, the spec's loosest ratio
        t_rfm: 195_000, // ~tRFC2-class blackout per RFM
    });
    const MAX_POSTPONED_REFS: u32 = 16;
    const T_RH_PRESETS: &'static [u64] = &[20_000, 10_000, 4_000, 2_000, 1_000];
}

/// LPDDR4X-4266 mobile configuration (per-bank refresh, no RFM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lpddr4x;

impl DramGeneration for Lpddr4x {
    const NAME: &'static str = "lpddr4x";
    const TIMING: DramTiming = DramTiming {
        t_refi: 3_904_000, // 3.904 µs all-bank average at 8 Gb
        t_rfc: 180_000,    // 180 ns tRFCab-class blackout
        t_rc: 60_000,      // 60 ns (tRAS 42 + tRPpb 18)
        t_rcd: 18_000,     // 18 ns
        t_rp: 18_000,      // 18 ns
        t_cl: 16_900,      // CL36 at 4266 MT/s
        t_refw: 32 * MS,   // 32 ms mobile refresh window
    };
    const RFM: Option<RfmSpec> = None;
    const MAX_POSTPONED_REFS: u32 = 8;
    const T_RH_PRESETS: &'static [u64] = &[25_000, 12_500, 6_250, 3_125, 1_560];
}

/// LPDDR5-6400 mobile configuration (RFM per JESD209-5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lpddr5;

impl DramGeneration for Lpddr5 {
    const NAME: &'static str = "lpddr5";
    const TIMING: DramTiming = DramTiming {
        t_refi: 3_906_000, // 3.906 µs per-bank cadence
        t_rfc: 140_000,    // 140 ns per-bank blackout
        t_rc: 48_000,      // 48 ns (tRAS 33 + tRPpb 15)
        t_rcd: 15_000,     // 15 ns
        t_rp: 15_000,      // 15 ns
        t_cl: 15_600,      // ~CL50 at 6400 MT/s
        t_refw: 32 * MS,   // 32 ms mobile refresh window
    };
    const RFM: Option<RfmSpec> = Some(RfmSpec {
        raaimt: 16,     // mobile parts arm RFM earlier
        raammt: 64,     // 4 × RAAIMT
        t_rfm: 140_000, // per-bank RFM blackout
    });
    const MAX_POSTPONED_REFS: u32 = 16;
    const T_RH_PRESETS: &'static [u64] = &[10_000, 5_000, 2_000, 1_000];
}

/// Runtime handle on one of the [`DramGeneration`] instances.
///
/// # Example
///
/// ```
/// use dram_model::generation::Generation;
/// use dram_model::timing::DramTiming;
///
/// let g: Generation = "ddr5".parse().unwrap();
/// assert!(g.rfm().is_some());
/// assert_eq!(Generation::Ddr4_2400.timing(), DramTiming::ddr4_2400());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Generation {
    /// The paper's DDR4-2400 device (the default, matching the legacy
    /// pre-generation behavior).
    #[default]
    Ddr4_2400,
    /// DDR5-4800 with RFM.
    Ddr5_4800,
    /// LPDDR4X-4266 mobile.
    Lpddr4x,
    /// LPDDR5-6400 mobile with RFM.
    Lpddr5,
}

impl Generation {
    /// Every known generation, in standards order.
    pub const ALL: [Generation; 4] =
        [Generation::Ddr4_2400, Generation::Ddr5_4800, Generation::Lpddr4x, Generation::Lpddr5];

    /// Spec-string / report name (`"ddr4"`, `"ddr5"`, `"lpddr4x"`,
    /// `"lpddr5"`).
    pub fn name(self) -> &'static str {
        match self {
            Generation::Ddr4_2400 => Ddr4_2400::NAME,
            Generation::Ddr5_4800 => Ddr5_4800::NAME,
            Generation::Lpddr4x => Lpddr4x::NAME,
            Generation::Lpddr5 => Lpddr5::NAME,
        }
    }

    /// The generation's timing parameters.
    pub fn timing(self) -> DramTiming {
        match self {
            Generation::Ddr4_2400 => Ddr4_2400::TIMING,
            Generation::Ddr5_4800 => Ddr5_4800::TIMING,
            Generation::Lpddr4x => Lpddr4x::TIMING,
            Generation::Lpddr5 => Lpddr5::TIMING,
        }
    }

    /// RFM accounting constants, `Some` for the generations that define
    /// the command (DDR5, LPDDR5).
    pub fn rfm(self) -> Option<RfmSpec> {
        match self {
            Generation::Ddr4_2400 => Ddr4_2400::RFM,
            Generation::Ddr5_4800 => Ddr5_4800::RFM,
            Generation::Lpddr4x => Lpddr4x::RFM,
            Generation::Lpddr5 => Lpddr5::RFM,
        }
    }

    /// Maximum accumulated postponed REF commands the generation permits.
    pub fn max_postponed_refs(self) -> u32 {
        match self {
            Generation::Ddr4_2400 => Ddr4_2400::MAX_POSTPONED_REFS,
            Generation::Ddr5_4800 => Ddr5_4800::MAX_POSTPONED_REFS,
            Generation::Lpddr4x => Lpddr4x::MAX_POSTPONED_REFS,
            Generation::Lpddr5 => Lpddr5::MAX_POSTPONED_REFS,
        }
    }

    /// Row Hammer threshold presets, descending (head = default).
    pub fn t_rh_presets(self) -> &'static [u64] {
        match self {
            Generation::Ddr4_2400 => Ddr4_2400::T_RH_PRESETS,
            Generation::Ddr5_4800 => Ddr5_4800::T_RH_PRESETS,
            Generation::Lpddr4x => Lpddr4x::T_RH_PRESETS,
            Generation::Lpddr5 => Lpddr5::T_RH_PRESETS,
        }
    }

    /// The default Row Hammer threshold the generation is evaluated at.
    pub fn default_t_rh(self) -> u64 {
        self.t_rh_presets()[0]
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Generation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ddr4" => Ok(Generation::Ddr4_2400),
            "ddr5" => Ok(Generation::Ddr5_4800),
            "lpddr4x" => Ok(Generation::Lpddr4x),
            "lpddr5" => Ok(Generation::Lpddr5),
            other => Err(format!(
                "unknown DRAM generation `{other}` (expected ddr4, ddr5, lpddr4x or lpddr5)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_generation_is_bit_identical_to_legacy_timing() {
        // The anchor of the whole refactor: the generation-routed DDR4
        // timing IS the paper's Table I instance, field for field.
        assert_eq!(Generation::Ddr4_2400.timing(), DramTiming::ddr4_2400());
        assert_eq!(Ddr4_2400::TIMING, DramTiming::ddr4_2400());
        assert_eq!(Generation::Ddr4_2400.max_postponed_refs(), 8);
        assert!(Generation::Ddr4_2400.rfm().is_none());
    }

    #[test]
    fn every_generation_timing_validates() {
        for g in Generation::ALL {
            g.timing().validate().unwrap_or_else(|e| panic!("{g}: {e}"));
            if let Some(rfm) = g.rfm() {
                rfm.validate().unwrap_or_else(|e| panic!("{g}: {e}"));
            }
            assert!(!g.t_rh_presets().is_empty(), "{g}");
            assert_eq!(g.default_t_rh(), g.t_rh_presets()[0]);
        }
    }

    #[test]
    fn ddr5_moves_the_derived_quantities_the_standard_way() {
        let d4 = Generation::Ddr4_2400.timing();
        let d5 = Generation::Ddr5_4800.timing();
        // Halved tREFI and tREFW.
        assert_eq!(d5.t_refi, d4.t_refi / 2);
        assert_eq!(d5.t_refw, d4.t_refw / 2);
        // Same-bank refresh blackout is far shorter than DDR4's all-bank
        // tRFC, so availability improves despite the doubled REF cadence.
        assert!(d5.bank_availability() > d4.bank_availability());
        // W shrinks with the window: fewer ACTs fit in 32 ms.
        assert!(d5.max_acts_per_refresh_window() < d4.max_acts_per_refresh_window());
    }

    #[test]
    fn ddr5_postponement_doubles_the_count_not_the_budget() {
        // DDR4 allows 8 × 7.8 µs ≈ 62.4 µs of accumulated postponement;
        // DDR5's halved tREFI doubles the command count for the same
        // wall-clock budget. (LPDDR4X keeps the 8-command JESD209-4 cap,
        // which at its short tREFI is a genuinely smaller budget.)
        let budget = |g: Generation| u64::from(g.max_postponed_refs()) * g.timing().t_refi;
        assert_eq!(budget(Generation::Ddr4_2400), 62_400_000);
        assert_eq!(budget(Generation::Ddr5_4800), 62_400_000);
        assert_eq!(Generation::Ddr5_4800.max_postponed_refs(), 2 * 8);
        assert!(budget(Generation::Lpddr4x) < budget(Generation::Ddr4_2400));
    }

    #[test]
    fn rfm_generations_and_thresholds() {
        assert!(Generation::Ddr5_4800.rfm().is_some());
        assert!(Generation::Lpddr5.rfm().is_some());
        assert!(Generation::Lpddr4x.rfm().is_none());
        let rfm = Generation::Ddr5_4800.rfm().unwrap();
        assert!(rfm.raammt >= rfm.raaimt);
    }

    #[test]
    fn presets_descend_to_1k_for_the_rfm_generations() {
        for g in [Generation::Ddr5_4800, Generation::Lpddr5] {
            assert_eq!(*g.t_rh_presets().last().unwrap(), 1_000, "{g}");
        }
        for g in Generation::ALL {
            for w in g.t_rh_presets().windows(2) {
                assert!(w[0] > w[1], "{g}: presets must descend");
            }
        }
    }

    #[test]
    fn names_round_trip_through_parse_and_display() {
        for g in Generation::ALL {
            let text = g.to_string();
            assert_eq!(text.parse::<Generation>().unwrap(), g);
        }
        assert!("ddr3".parse::<Generation>().unwrap_err().contains("unknown DRAM generation"));
    }

    #[test]
    fn rfm_spec_validation_rejects_degenerates() {
        let ok = Generation::Ddr5_4800.rfm().unwrap();
        assert!(RfmSpec { raaimt: 0, ..ok }.validate().is_err());
        assert!(RfmSpec { raammt: ok.raaimt - 1, ..ok }.validate().is_err());
        assert!(RfmSpec { t_rfm: 0, ..ok }.validate().is_err());
        ok.validate().unwrap();
    }
}
