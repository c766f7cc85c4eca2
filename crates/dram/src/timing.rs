//! DDR4 timing parameters and derived quantities.
//!
//! All times are kept in integer picoseconds ([`Picoseconds`]) so that the
//! paper's sizing formulas can be evaluated exactly, without floating-point
//! drift. The defaults reproduce Table I of the Graphene paper (MICRO 2020):
//!
//! | Term  | Definition              | Value  |
//! |-------|-------------------------|--------|
//! | tREFI | Refresh interval        | 7.8 µs |
//! | tRFC  | Refresh command time    | 350 ns |
//! | tRC   | ACT-to-ACT interval     | 45 ns  |
//!
//! plus the Table III service timings (tRCD/tRP/tCL = 13.3 ns) and the
//! vendor-specific refresh window tREFW = 64 ms assumed throughout the paper.

use crate::error::DramError;

/// Time in integer picoseconds.
///
/// 64 ms = 6.4 × 10^10 ps, far below `u64::MAX`, and every product the
/// formulas below form stays within `u64` range.
pub type Picoseconds = u64;

/// One picosecond-denominated millisecond, for readability of constants.
pub const MS: Picoseconds = 1_000_000_000;
/// One microsecond in picoseconds.
pub const US: Picoseconds = 1_000_000;
/// One nanosecond in picoseconds.
pub const NS: Picoseconds = 1_000;

/// DDR4 timing parameters (Table I and Table III of the paper).
///
/// Construct with [`DramTiming::ddr4_2400`] for the paper's configuration, or
/// build a custom set and validate it with [`DramTiming::validate`].
///
/// # Example
///
/// ```
/// use dram_model::timing::DramTiming;
///
/// let t = DramTiming::ddr4_2400();
/// assert_eq!(t.refresh_commands_per_window(), 8205);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTiming {
    /// Refresh interval: one REF command must be issued per tREFI.
    pub t_refi: Picoseconds,
    /// Refresh command time: the bank is blocked for tRFC after a REF.
    pub t_rfc: Picoseconds,
    /// Minimum interval between two ACTs to the same bank (row cycle time).
    pub t_rc: Picoseconds,
    /// ACT-to-column-command delay.
    pub t_rcd: Picoseconds,
    /// Precharge time.
    pub t_rp: Picoseconds,
    /// CAS latency.
    pub t_cl: Picoseconds,
    /// Refresh window: every row is refreshed at least once per tREFW.
    pub t_refw: Picoseconds,
}

impl DramTiming {
    /// The DDR4-2400 parameters used throughout the paper
    /// (Tables I and III; tREFW = 64 ms).
    ///
    /// `const` so the [`crate::generation::DramGeneration`] instances can
    /// embed it as an associated constant at zero runtime cost.
    pub const fn ddr4_2400() -> Self {
        DramTiming {
            t_refi: 7_800_000, // 7.8 µs
            t_rfc: 350_000,    // 350 ns
            t_rc: 45_000,      // 45 ns
            t_rcd: 13_300,     // 13.3 ns
            t_rp: 13_300,      // 13.3 ns
            t_cl: 13_300,      // 13.3 ns
            t_refw: 64 * MS,   // 64 ms
        }
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidTiming`] if any parameter is zero, if
    /// `t_rfc >= t_refi` (the device would spend all its time refreshing), or
    /// if `t_refw < t_refi`.
    pub fn validate(&self) -> Result<(), DramError> {
        let fields = [
            ("t_refi", self.t_refi),
            ("t_rfc", self.t_rfc),
            ("t_rc", self.t_rc),
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_cl", self.t_cl),
            ("t_refw", self.t_refw),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(DramError::InvalidTiming {
                    reason: format!("{name} must be non-zero"),
                });
            }
        }
        if self.t_rfc >= self.t_refi {
            return Err(DramError::InvalidTiming {
                reason: "t_rfc must be smaller than t_refi".to_owned(),
            });
        }
        if self.t_refw < self.t_refi {
            return Err(DramError::InvalidTiming {
                reason: "t_refw must be at least t_refi".to_owned(),
            });
        }
        Ok(())
    }

    /// The paper's `W`: the maximum number of ACTs a single bank can receive
    /// within one refresh window,
    /// `W = tREFW · (1 − tRFC/tREFI) / tRC`,
    /// evaluated exactly in integer arithmetic as
    /// `tREFW · (tREFI − tRFC) / (tREFI · tRC)`.
    ///
    /// For the DDR4-2400 defaults this is 1,358,404 ≈ the paper's "1360K".
    ///
    /// # Example
    ///
    /// ```
    /// use dram_model::timing::DramTiming;
    /// assert_eq!(DramTiming::ddr4_2400().max_acts_per_refresh_window(), 1_358_404);
    /// ```
    pub fn max_acts_per_refresh_window(&self) -> u64 {
        // Keep full precision: numerator ≈ 6.4e10 × 7.45e6 = 4.8e17 < u64::MAX.
        let num = (self.t_refw as u128) * ((self.t_refi - self.t_rfc) as u128);
        let den = (self.t_refi as u128) * (self.t_rc as u128);
        (num / den) as u64
    }

    /// Maximum number of ACTs within a reset window of `tREFW / k`
    /// (Section IV-C of the paper). `k = 1` reproduces
    /// [`max_acts_per_refresh_window`](Self::max_acts_per_refresh_window).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn max_acts_per_reset_window(&self, k: u32) -> u64 {
        assert!(k > 0, "reset window divisor k must be positive");
        self.max_acts_per_refresh_window() / u64::from(k)
    }

    /// Number of REF commands the controller issues per refresh window
    /// (`tREFW / tREFI`; 8205 with the paper's 7.8 µs tREFI).
    pub fn refresh_commands_per_window(&self) -> u64 {
        self.t_refw / self.t_refi
    }

    /// Duration of the reset window `tREFW / k` used by Graphene.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset_window(&self, k: u32) -> Picoseconds {
        assert!(k > 0, "reset window divisor k must be positive");
        self.t_refw / u64::from(k)
    }

    /// Fraction of wall-clock time a bank is available for ACTs
    /// (i.e. not blocked by REF), as a float in (0, 1].
    pub fn bank_availability(&self) -> f64 {
        1.0 - (self.t_rfc as f64) / (self.t_refi as f64)
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_matches_table_i() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.t_refi, 7_800 * NS);
        assert_eq!(t.t_rfc, 350 * NS);
        assert_eq!(t.t_rc, 45 * NS);
        assert_eq!(t.t_refw, 64 * MS);
        t.validate().expect("paper defaults must validate");
    }

    #[test]
    fn w_matches_paper_1360k() {
        // Paper: W = tREFW(1 − tRFC/tREFI)/tRC = 1360K (rounded).
        let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
        assert_eq!(w, 1_358_404);
        assert!((1_300_000..1_400_000).contains(&w));
    }

    #[test]
    fn reset_window_scaling() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.max_acts_per_reset_window(1), 1_358_404);
        assert_eq!(t.max_acts_per_reset_window(2), 679_202);
        assert_eq!(t.reset_window(2), 32 * MS);
    }

    #[test]
    fn refresh_commands_per_window_count() {
        // 64 ms / 7.8 µs = 8205 full intervals.
        assert_eq!(DramTiming::ddr4_2400().refresh_commands_per_window(), 8205);
    }

    #[test]
    fn bank_availability_close_to_one() {
        let a = DramTiming::ddr4_2400().bank_availability();
        assert!((0.955..0.956).contains(&a), "availability {a}");
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut t = DramTiming::ddr4_2400();
        t.t_rc = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_rfc_ge_refi() {
        let mut t = DramTiming::ddr4_2400();
        t.t_rfc = t.t_refi;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_refw_lt_refi() {
        let mut t = DramTiming::ddr4_2400();
        t.t_refw = t.t_refi - 1;
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn reset_window_rejects_k_zero() {
        DramTiming::ddr4_2400().reset_window(0);
    }

    #[test]
    fn default_is_ddr4_2400() {
        assert_eq!(DramTiming::default(), DramTiming::ddr4_2400());
    }
}
