//! Ground-truth Row Hammer fault oracle.
//!
//! The oracle integrates, for every row, the charge disturbance inflicted by
//! activations of nearby rows since the row was last refreshed. Disturbance is
//! measured in units of "one activation of an immediately adjacent row", so a
//! bit flip occurs exactly when a victim row accumulates `T_RH` units without
//! an intervening refresh — the definition of the Row Hammer threshold in
//! Section II-B of the paper.
//!
//! Non-adjacent Row Hammer (Section III-D) is modeled through the distance
//! coefficients `μ_i`: an ACT at distance `i` contributes `μ_i` units, with
//! `μ_1 = 1` and `μ_i` non-increasing in `i`. Two built-in models are
//! provided: [`MuModel::Uniform`] (all `μ_i = 1`) and
//! [`MuModel::InverseSquare`] (`μ_i = 1/i²`, the example the paper uses,
//! whose factor `1 + μ_2 + … + μ_n` is bounded by π²/6 ≈ 1.64).
//!
//! Internally the oracle uses 1/65536 fixed-point arithmetic so that
//! accumulation is exact and deterministic across platforms.

use std::ops::Range;

use crate::error::DramError;
use crate::geometry::RowId;
use crate::timing::Picoseconds;

/// Fixed-point scale for disturbance units (2^16 sub-units per adjacent ACT).
const SCALE: u64 = 1 << 16;

/// Distance-coefficient model for non-adjacent Row Hammer.
///
/// `μ_1` is always 1: an adjacent ACT contributes one full disturbance unit.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub enum MuModel {
    /// Only ±1 neighbours are disturbed (the classic Row Hammer model).
    #[default]
    Adjacent,
    /// All rows within `radius` receive the full unit of disturbance
    /// (the conservative assumption in Section III-D).
    Uniform {
        /// Farthest affected distance `n ≥ 1`.
        radius: u32,
    },
    /// `μ_i = 1/i²` up to `radius` (the paper's geometric-decay example).
    InverseSquare {
        /// Farthest affected distance `n ≥ 1`.
        radius: u32,
    },
    /// Explicit coefficients for distances `1, 2, …`; `custom[0]` must be 1.0
    /// and the sequence must be non-increasing.
    Custom(Vec<f64>),
}

impl MuModel {
    /// Farthest distance (in rows) at which an ACT disturbs a victim.
    pub fn radius(&self) -> u32 {
        match self {
            MuModel::Adjacent => 1,
            MuModel::Uniform { radius } | MuModel::InverseSquare { radius } => *radius,
            MuModel::Custom(v) => v.len() as u32,
        }
    }

    /// Coefficient `μ_d` for distance `d ≥ 1`; zero beyond the radius.
    pub fn coefficient(&self, d: u32) -> f64 {
        if d == 0 || d > self.radius() {
            return 0.0;
        }
        match self {
            MuModel::Adjacent | MuModel::Uniform { .. } => 1.0,
            MuModel::InverseSquare { .. } => 1.0 / f64::from(d * d),
            MuModel::Custom(v) => v[(d - 1) as usize],
        }
    }

    /// The paper's table-growth factor `1 + μ_2 + … + μ_n` (Section III-D).
    ///
    /// For [`MuModel::InverseSquare`] this converges to π²/6 ≈ 1.64 as the
    /// radius grows; for [`MuModel::Uniform`] it is `n`.
    pub fn factor(&self) -> f64 {
        (1..=self.radius()).map(|d| self.coefficient(d)).sum()
    }

    /// Validates the model (positive radius; custom sequence starting at 1.0,
    /// non-increasing, within (0, 1]).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidGeometry`] describing the violation.
    pub fn validate(&self) -> Result<(), DramError> {
        if self.radius() == 0 {
            return Err(DramError::InvalidGeometry {
                reason: "mu model radius must be at least 1".to_owned(),
            });
        }
        if let MuModel::Custom(v) = self {
            if (v[0] - 1.0).abs() > f64::EPSILON {
                return Err(DramError::InvalidGeometry {
                    reason: "custom mu model must have mu_1 = 1.0".to_owned(),
                });
            }
            for w in v.windows(2) {
                if w[1] > w[0] {
                    return Err(DramError::InvalidGeometry {
                        reason: "custom mu coefficients must be non-increasing".to_owned(),
                    });
                }
            }
            if v.iter().any(|&m| m <= 0.0 || m > 1.0) {
                return Err(DramError::InvalidGeometry {
                    reason: "custom mu coefficients must be in (0, 1]".to_owned(),
                });
            }
        }
        Ok(())
    }

    fn fixed_coefficients(&self) -> Vec<u64> {
        (1..=self.radius()).map(|d| (self.coefficient(d) * SCALE as f64).round() as u64).collect()
    }
}

/// Parameters of the disturbance/fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbanceModel {
    /// Row Hammer threshold `T_RH` in units of adjacent ACTs.
    pub t_rh: u64,
    /// Distance coefficients.
    pub mu: MuModel,
}

impl DisturbanceModel {
    /// The paper's default: `T_RH = 50K` (DDR4, per TRRespass) with ±1 radius.
    pub fn ddr4_50k() -> Self {
        DisturbanceModel { t_rh: 50_000, mu: MuModel::Adjacent }
    }
}

impl Default for DisturbanceModel {
    fn default() -> Self {
        Self::ddr4_50k()
    }
}

/// A recorded Row Hammer bit flip: ground truth that a defense failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlip {
    /// The victim row whose accumulated disturbance crossed `T_RH`.
    pub row: RowId,
    /// Simulation time of the flip (ps).
    pub at: Picoseconds,
    /// Accumulated disturbance at flip time, in adjacent-ACT units.
    pub disturbance_acts: f64,
}

/// Per-bank fault oracle.
///
/// Feed it every ACT and every refresh (auto-refresh rows as well as victim
/// refreshes); it reports each first crossing of the Row Hammer threshold.
///
/// A row that has flipped stays in the flipped state (and is not re-reported)
/// until it is refreshed, mirroring how a real bit flip persists until the
/// cell is rewritten.
///
/// # Example
///
/// ```
/// use dram_model::fault::{DisturbanceModel, FaultOracle};
/// use dram_model::geometry::RowId;
///
/// let model = DisturbanceModel { t_rh: 3, ..DisturbanceModel::ddr4_50k() };
/// let mut oracle = FaultOracle::new(model, 16);
/// assert!(oracle.activate(RowId(5), 0).is_empty());
/// assert!(oracle.activate(RowId(5), 1).is_empty());
/// let flips = oracle.activate(RowId(5), 2); // third ACT: neighbours hit T_RH = 3
/// assert_eq!(flips.len(), 2);               // rows 4 and 6 flip
/// ```
#[derive(Debug, Clone)]
pub struct FaultOracle {
    model: DisturbanceModel,
    rows_per_bank: u32,
    /// Fixed-point accumulated disturbance since last refresh, per row.
    disturbance: Vec<u64>,
    /// Whether the row is currently in a flipped state.
    flipped: Vec<bool>,
    /// Pre-scaled μ coefficients for distances 1..=radius.
    mu_fixed: Vec<u64>,
    /// Fixed-point flip threshold.
    threshold_fixed: u64,
    /// All flips ever observed.
    flips: Vec<BitFlip>,
    acts: u64,
}

impl FaultOracle {
    /// Creates an oracle for one bank with `rows_per_bank` rows.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`MuModel::validate`] or `t_rh == 0`.
    pub fn new(model: DisturbanceModel, rows_per_bank: u32) -> Self {
        model.mu.validate().expect("invalid mu model");
        assert!(model.t_rh > 0, "t_rh must be positive");
        let mu_fixed = model.mu.fixed_coefficients();
        let threshold_fixed = model.t_rh * SCALE;
        FaultOracle {
            rows_per_bank,
            disturbance: vec![0; rows_per_bank as usize],
            flipped: vec![false; rows_per_bank as usize],
            mu_fixed,
            threshold_fixed,
            flips: Vec::new(),
            acts: 0,
            model,
        }
    }

    /// The model this oracle enforces.
    pub fn model(&self) -> &DisturbanceModel {
        &self.model
    }

    /// Number of activations processed so far.
    pub fn activations(&self) -> u64 {
        self.acts
    }

    /// Records an activation of `row` at time `at` and returns any *new* bit
    /// flips it causes in neighbouring rows.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn activate(&mut self, row: RowId, at: Picoseconds) -> Vec<BitFlip> {
        assert!(row.0 < self.rows_per_bank, "{row} outside bank");
        self.acts += 1;
        let mut new_flips = Vec::new();
        for (i, &mu) in self.mu_fixed.iter().enumerate() {
            let d = (i + 1) as u32;
            for victim in row.neighbors_at(d, self.rows_per_bank) {
                let idx = victim.0 as usize;
                self.disturbance[idx] = self.disturbance[idx].saturating_add(mu);
                if !self.flipped[idx] && self.disturbance[idx] >= self.threshold_fixed {
                    self.flipped[idx] = true;
                    let flip = BitFlip {
                        row: victim,
                        at,
                        disturbance_acts: self.disturbance[idx] as f64 / SCALE as f64,
                    };
                    self.flips.push(flip);
                    new_flips.push(flip);
                }
            }
        }
        new_flips
    }

    /// Refreshes one row: clears its accumulated disturbance and flip state.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn refresh_row(&mut self, row: RowId) {
        assert!(row.0 < self.rows_per_bank, "{row} outside bank");
        let idx = row.0 as usize;
        self.disturbance[idx] = 0;
        self.flipped[idx] = false;
    }

    /// Refreshes a list of rows, such as a victim refresh's neighbours,
    /// one [`refresh_row`](Self::refresh_row) at a time.
    pub fn refresh_rows(&mut self, rows: impl IntoIterator<Item = RowId>) {
        for r in rows {
            self.refresh_row(r);
        }
    }

    /// Refreshes a contiguous range of rows, as an auto-refresh burst from
    /// [`RefreshEngine::next_burst`](crate::refresh::RefreshEngine::next_burst)
    /// does: the same as [`refresh_row`](Self::refresh_row) on each row of
    /// the range, with one bounds check and two slice fills. An empty range
    /// refreshes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty range reaches past the bank.
    pub fn refresh_burst(&mut self, rows: Range<u32>) {
        if rows.is_empty() {
            return;
        }
        assert!(rows.end <= self.rows_per_bank, "rows {rows:?} outside bank");
        let rows = rows.start as usize..rows.end as usize;
        self.disturbance[rows.clone()].fill(0);
        self.flipped[rows].fill(false);
    }

    /// Current accumulated disturbance of `row`, in adjacent-ACT units.
    pub fn disturbance_of(&self, row: RowId) -> f64 {
        self.disturbance[row.0 as usize] as f64 / SCALE as f64
    }

    /// All bit flips observed since construction (including ones whose rows
    /// have since been refreshed).
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Number of bit flips ever observed (audit introspection hook).
    pub fn flip_count(&self) -> u64 {
        self.flips.len() as u64
    }

    /// Highest accumulated disturbance currently held by any row, in
    /// adjacent-ACT units (audit introspection hook).
    ///
    /// With a sound defense this stays strictly below
    /// [`DisturbanceModel::t_rh`] at all times; the end-of-run audit
    /// cross-check asserts exactly that whenever a run reports zero flips.
    pub fn max_disturbance(&self) -> f64 {
        self.hottest_victim().1
    }

    /// The flip threshold in adjacent-ACT units, as enforced internally.
    pub fn threshold_acts(&self) -> f64 {
        self.threshold_fixed as f64 / SCALE as f64
    }

    /// True if no bit flip has ever been observed — the property a sound
    /// defense must maintain.
    pub fn is_clean(&self) -> bool {
        self.flips.is_empty()
    }

    /// The row with the highest accumulated disturbance and that value in
    /// adjacent-ACT units — useful for asserting safety margins in tests.
    pub fn hottest_victim(&self) -> (RowId, f64) {
        let (idx, &v) = self
            .disturbance
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .expect("bank has at least one row");
        (RowId(idx as u32), v as f64 / SCALE as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_oracle(t_rh: u64) -> FaultOracle {
        FaultOracle::new(DisturbanceModel { t_rh, mu: MuModel::Adjacent }, 64)
    }

    #[test]
    fn adjacent_flip_at_exact_threshold() {
        let mut o = small_oracle(10);
        for i in 0..9 {
            assert!(o.activate(RowId(30), i).is_empty());
        }
        let flips = o.activate(RowId(30), 9);
        let rows: Vec<_> = flips.iter().map(|f| f.row).collect();
        assert_eq!(rows, vec![RowId(29), RowId(31)]);
        assert_eq!(flips[0].disturbance_acts, 10.0);
    }

    #[test]
    fn refresh_resets_accumulation() {
        let mut o = small_oracle(10);
        for i in 0..9 {
            o.activate(RowId(30), i);
        }
        o.refresh_row(RowId(29));
        o.refresh_row(RowId(31));
        for i in 9..18 {
            assert!(o.activate(RowId(30), i).is_empty(), "act {i}");
        }
        assert!(!o.activate(RowId(30), 18).is_empty());
    }

    #[test]
    fn double_sided_hammer_halves_required_acts() {
        // T_RH = 10: 5 ACTs on each neighbour flips the middle row.
        let mut o = small_oracle(10);
        for i in 0..5 {
            assert!(o.activate(RowId(29), 2 * i).is_empty());
            let flips = o.activate(RowId(31), 2 * i + 1);
            if i < 4 {
                assert!(flips.is_empty());
            } else {
                assert_eq!(flips.len(), 1);
                assert_eq!(flips[0].row, RowId(30));
            }
        }
    }

    #[test]
    fn flip_reported_once_until_refresh() {
        let mut o = small_oracle(3);
        o.activate(RowId(5), 0);
        o.activate(RowId(5), 1);
        assert_eq!(o.activate(RowId(5), 2).len(), 2);
        // Further hammering does not re-report.
        assert!(o.activate(RowId(5), 3).is_empty());
        o.refresh_row(RowId(4));
        for t in 4..6 {
            o.activate(RowId(5), t);
        }
        // Row 4 re-flips after refresh + 3 more ACTs (one was at t=3).
        let flips = o.activate(RowId(5), 6);
        assert_eq!(flips.len(), 1);
        assert_eq!(flips[0].row, RowId(4));
    }

    #[test]
    fn inverse_square_model_distances() {
        let mu = MuModel::InverseSquare { radius: 3 };
        assert_eq!(mu.coefficient(1), 1.0);
        assert_eq!(mu.coefficient(2), 0.25);
        assert!((mu.coefficient(3) - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(mu.coefficient(4), 0.0);
        assert!((mu.factor() - (1.0 + 0.25 + 1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn inverse_square_factor_bounded_by_pi_sq_over_6() {
        let mu = MuModel::InverseSquare { radius: 10_000 };
        let pi_sq_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert!(mu.factor() < pi_sq_6);
        assert!(mu.factor() > 1.64, "factor {} ≈ 1.6449", mu.factor());
    }

    #[test]
    fn nonadjacent_distance_two_accumulates_quarter() {
        let model = DisturbanceModel { t_rh: 100, mu: MuModel::InverseSquare { radius: 2 } };
        let mut o = FaultOracle::new(model, 64);
        o.activate(RowId(10), 0);
        assert_eq!(o.disturbance_of(RowId(9)), 1.0);
        assert_eq!(o.disturbance_of(RowId(8)), 0.25);
        assert_eq!(o.disturbance_of(RowId(12)), 0.25);
        assert_eq!(o.disturbance_of(RowId(13)), 0.0);
    }

    #[test]
    fn uniform_radius_two_flips_at_distance_two() {
        let model = DisturbanceModel { t_rh: 4, mu: MuModel::Uniform { radius: 2 } };
        let mut o = FaultOracle::new(model, 64);
        for t in 0..3 {
            assert!(o.activate(RowId(20), t).is_empty());
        }
        let flips = o.activate(RowId(20), 3);
        let rows: Vec<_> = flips.iter().map(|f| f.row).collect();
        assert_eq!(rows, vec![RowId(19), RowId(21), RowId(18), RowId(22)]);
    }

    #[test]
    fn custom_mu_validation() {
        assert!(MuModel::Custom(vec![1.0, 0.5, 0.25]).validate().is_ok());
        assert!(MuModel::Custom(vec![0.9]).validate().is_err()); // mu_1 != 1
        assert!(MuModel::Custom(vec![1.0, 0.5, 0.6]).validate().is_err()); // increasing
        assert!(MuModel::Custom(vec![1.0, 0.0]).validate().is_err()); // zero coeff
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let mut o = small_oracle(2);
        o.activate(RowId(0), 0);
        let flips = o.activate(RowId(0), 1);
        assert_eq!(flips.len(), 1);
        assert_eq!(flips[0].row, RowId(1));
    }

    #[test]
    fn hottest_victim_tracks_max() {
        let mut o = small_oracle(1000);
        for t in 0..7 {
            o.activate(RowId(40), t);
        }
        for t in 7..10 {
            o.activate(RowId(10), t);
        }
        let (row, v) = o.hottest_victim();
        assert!(row == RowId(39) || row == RowId(41));
        assert_eq!(v, 7.0);
    }

    #[test]
    fn introspection_hooks_report_margin_and_flips() {
        let mut o = small_oracle(10);
        assert_eq!(o.flip_count(), 0);
        assert_eq!(o.max_disturbance(), 0.0);
        assert_eq!(o.threshold_acts(), 10.0);
        for t in 0..7 {
            o.activate(RowId(20), t);
        }
        assert_eq!(o.max_disturbance(), 7.0);
        assert!(o.max_disturbance() < o.threshold_acts());
        for t in 7..10 {
            o.activate(RowId(20), t);
        }
        assert_eq!(o.flip_count(), 2);
        assert!(o.max_disturbance() >= o.threshold_acts());
    }

    #[test]
    fn clearing_a_burst_equals_refreshing_each_of_its_rows() {
        // Uniform radius 3 charges every row near the hammered ones; five
        // ACTs each on rows 1 and 63 flip rows 0, 2..=4 and 60..=62.
        let model = DisturbanceModel { t_rh: 5, mu: MuModel::Uniform { radius: 3 } };
        let mut charged = FaultOracle::new(model, 64);
        let acts = [[1u32; 5], [63; 5]].concat().into_iter().chain([20, 21, 58]);
        for (t, row) in acts.enumerate() {
            charged.activate(RowId(row), t as u64);
        }
        assert!(charged.flipped[0] && charged.flipped[62]);
        // A middle range, one ending at the bank edge, and empty ranges
        // (the surplus bursts at a window's end sit on the edge).
        for rows in [18..24, 0..3, 60..64, 5..5, 64..64] {
            let mut burst = charged.clone();
            let mut per_row = charged.clone();
            burst.refresh_burst(rows.clone());
            per_row.refresh_rows(rows.clone().map(RowId));
            assert_eq!(burst.disturbance, per_row.disturbance, "{rows:?}");
            assert_eq!(burst.flipped, per_row.flipped, "{rows:?}");
        }
        let mut cleared = charged.clone();
        cleared.refresh_burst(0..64);
        assert!(cleared.disturbance.iter().all(|&d| d == 0));
        assert!(cleared.flipped.iter().all(|&f| !f));
    }

    #[test]
    #[should_panic(expected = "outside bank")]
    fn a_burst_past_the_bank_panics() {
        small_oracle(10).refresh_burst(60..65);
    }

    #[test]
    fn is_clean_reflects_history() {
        let mut o = small_oracle(2);
        assert!(o.is_clean());
        o.activate(RowId(3), 0);
        o.activate(RowId(3), 1);
        assert!(!o.is_clean());
        // Refreshing does not erase history: the flip already happened.
        o.refresh_row(RowId(2));
        o.refresh_row(RowId(4));
        assert!(!o.is_clean());
        assert_eq!(o.flips().len(), 2);
    }
}
