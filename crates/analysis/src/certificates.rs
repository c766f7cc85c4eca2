//! Bounded false-negative certificates for the probabilistic trackers.
//!
//! Graphene and ABACuS count exactly (Misra-Gries over full row addresses),
//! so the audit layer certifies them with the exact shadow oracle: zero
//! false negatives, checked row by row. CoMeT and BlockHammer trade that
//! exactness for area — a count-min sketch can under-serve a row only
//! through hash collisions — so their certificates are *bounds*, not
//! equalities:
//!
//! * **CoMeT** promotes a row into its exact recent-aggressor table when the
//!   sketch estimate crosses `T/2`. Sketch estimates only over-count, so
//!   promotion is never late and counts are never lost on promotion (the
//!   table seeds from the estimate). The one false-negative path is the
//!   post-mitigation *discount*: subtracting the fired amount from the
//!   row's counters also under-counts any row that collides with it in
//!   **all** `depth` sketch rows. A full collision for one row pair has
//!   probability `width^-depth`. An under-count only matters if the
//!   collided row could itself cross the threshold — it must absorb at
//!   least the `T/2` promotion quantum within the window, and a window of
//!   `W` activations holds at most `W/(T/2)` such rows. With at most `W/T`
//!   discounts per window, the per-window false-negative probability is
//!   bounded by `(W/T) · (2W/T) · width^-depth` — at the paper-default
//!   4×512 geometry, below 10⁻³ for every threshold in the Figure 9
//!   ladder.
//! * **BlockHammer** never misses by *probability* at all: counting-Bloom
//!   filters only over-count, so a row reaching `N_BL = T_RH/8` activations
//!   in the live epoch is always blacklisted on time. Its certificate is a
//!   deterministic rate cap — unthrottled activations are bounded by
//!   `2·N_BL = T_RH/4` per tREFW (two epochs), paced activations by
//!   `tREFW / throttle_interval = T_RH/8`, so a double-sided pair drives at
//!   most `3·T_RH/4` disturbance: a built-in 25 % design margin, with an
//!   analytic false-negative term of exactly zero.
//!
//! [`FnCertificate::check_observed`] closes the loop against simulation:
//! the audited run's maximum ground-truth disturbance must stay inside the
//! certificate's disturbance budget, and the analytic bound itself must be
//! below [`FnCertificate::MAX_TOLERABLE_FN`].

use graphene_core::GrapheneConfig;
use mitigations::{BlockHammerConfig, CometConfig};

/// Analytic false-negative certificate for one probabilistic tracker at one
/// Row Hammer threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FnCertificate {
    /// Scheme the certificate covers.
    pub scheme: &'static str,
    /// The Row Hammer threshold being defended.
    pub t_rh: u64,
    /// Upper bound on the per-window probability of a false negative (a row
    /// crossing its tracking threshold unmitigated). Zero for deterministic
    /// rate caps.
    pub analytic_fn_bound: f64,
    /// Deterministic fraction of `T_RH` reserved as headroom: the tracker's
    /// own math caps worst-case disturbance at `(1 − margin) · T_RH`.
    pub design_margin: f64,
}

/// Outcome of checking a certificate against an audited run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FnCertCheck {
    /// Whether the run satisfied the certificate.
    pub passes: bool,
    /// The run's maximum ground-truth disturbance (from the shadow oracle).
    pub max_disturbance: u64,
    /// The certificate's disturbance budget `(1 − margin) · T_RH`.
    pub budget: u64,
    /// Observed near-miss margin: `1 − max_disturbance / T_RH`. Compare it
    /// against `design_margin` — observed should be at least as large.
    pub observed_margin: f64,
}

impl FnCertificate {
    /// Acceptance ceiling on the analytic bound: a certificate whose
    /// per-window false-negative probability exceeds this is rejected
    /// regardless of what the simulation observed.
    pub const MAX_TOLERABLE_FN: f64 = 1e-3;

    /// CoMeT's certificate at `t_rh`: collision-discount bound
    /// `(W/T) · (W/(T/2)) · width^-depth` (see the module docs for the
    /// derivation), no deterministic margin beyond the shared Graphene
    /// threshold derivation (the sketch fires at exactly the derived `T`,
    /// like Graphene's own counters).
    ///
    /// # Errors
    ///
    /// Propagates the threshold derivation error as text.
    pub fn comet(t_rh: u64, rows_per_bank: u32) -> Result<Self, String> {
        let cfg = CometConfig::for_threshold(t_rh, rows_per_bank)?;
        let params = GrapheneConfig::builder()
            .row_hammer_threshold(t_rh)
            .rows_per_bank(rows_per_bank)
            .build()
            .map_err(|e| format!("{e:?}"))?
            .derive()
            .map_err(|e| format!("{e:?}"))?;
        let w = params.acts_per_window as f64;
        let discounts_per_window = (w / cfg.nrr_threshold.max(1) as f64).max(1.0);
        // Rows that could turn an under-count into a false negative: each
        // must absorb at least the T/2 promotion quantum within the window.
        let candidate_rows = (w / cfg.insert_threshold.max(1) as f64).max(1.0);
        let full_collision = (cfg.width as f64).powi(-(cfg.depth as i32));
        Ok(FnCertificate {
            scheme: "CoMeT",
            t_rh,
            analytic_fn_bound: discounts_per_window * candidate_rows * full_collision,
            design_margin: 0.0,
        })
    }

    /// BlockHammer's certificate at `t_rh`: zero analytic false-negative
    /// probability (filters only over-count) and the deterministic 25 %
    /// margin of the `N_BL = T_RH/8`, `interval = 8·tREFW/T_RH` sizing.
    ///
    /// # Errors
    ///
    /// Propagates the threshold derivation error as text.
    pub fn blockhammer(t_rh: u64, rows_per_bank: u32) -> Result<Self, String> {
        let cfg = BlockHammerConfig::for_threshold(t_rh, rows_per_bank)?;
        // Reconstruct the cap from the actual integer-rounded config rather
        // than restating the ideal formula: unthrottled 2·N_BL per tREFW
        // plus (tREFW / interval) paced activations, doubled for a
        // double-sided pair sharing one victim.
        let t_refw = 2 * cfg.epoch;
        let unthrottled = 2 * cfg.blacklist_threshold;
        let paced = t_refw / cfg.throttle_interval;
        let per_aggressor = unthrottled + paced;
        let worst = (2 * per_aggressor).min(t_rh);
        Ok(FnCertificate {
            scheme: "BlockHammer",
            t_rh,
            analytic_fn_bound: 0.0,
            design_margin: 1.0 - worst as f64 / t_rh as f64,
        })
    }

    /// The disturbance budget the simulation must stay inside:
    /// `(1 − design_margin) · T_RH`, never below 1.
    pub fn disturbance_budget(&self) -> u64 {
        (((1.0 - self.design_margin) * self.t_rh as f64).floor() as u64).clamp(1, self.t_rh)
    }

    /// Checks an audited run's maximum ground-truth disturbance against the
    /// certificate. Passes when the observation is strictly inside the
    /// budget **and** the analytic bound is below
    /// [`Self::MAX_TOLERABLE_FN`].
    pub fn check_observed(&self, max_disturbance: u64) -> FnCertCheck {
        let budget = self.disturbance_budget();
        FnCertCheck {
            passes: max_disturbance < budget && self.analytic_fn_bound < Self::MAX_TOLERABLE_FN,
            max_disturbance,
            budget,
            observed_margin: 1.0 - max_disturbance as f64 / self.t_rh as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comet_bound_is_tiny_across_the_figure9_ladder() {
        for t_rh in crate::AreaComparison::figure9_thresholds() {
            let cert = FnCertificate::comet(t_rh, 65_536).unwrap();
            assert!(
                cert.analytic_fn_bound < FnCertificate::MAX_TOLERABLE_FN,
                "bound {} at T_RH {t_rh}",
                cert.analytic_fn_bound
            );
            assert!(cert.analytic_fn_bound > 0.0, "collision probability is never exactly zero");
        }
    }

    #[test]
    fn comet_bound_grows_as_threshold_drops() {
        // Lower T → more discounts per window → more collision exposure.
        let high = FnCertificate::comet(50_000, 65_536).unwrap();
        let low = FnCertificate::comet(1_560, 65_536).unwrap();
        assert!(low.analytic_fn_bound > high.analytic_fn_bound);
    }

    #[test]
    fn blockhammer_margin_is_about_a_quarter() {
        let cert = FnCertificate::blockhammer(50_000, 65_536).unwrap();
        assert_eq!(cert.analytic_fn_bound, 0.0);
        assert!(
            (cert.design_margin - 0.25).abs() < 0.02,
            "margin {} (integer rounding only)",
            cert.design_margin
        );
        assert!(cert.disturbance_budget() < 50_000);
    }

    #[test]
    fn check_passes_inside_budget_and_fails_outside() {
        let cert = FnCertificate::blockhammer(8_000, 65_536).unwrap();
        let ok = cert.check_observed(1_000);
        assert!(ok.passes);
        assert!(ok.observed_margin > cert.design_margin);
        let bad = cert.check_observed(cert.disturbance_budget());
        assert!(!bad.passes, "at-budget disturbance must fail");
        assert_eq!(bad.budget, cert.disturbance_budget());
    }

    #[test]
    fn inflated_analytic_bound_fails_regardless_of_observation() {
        let mut cert = FnCertificate::comet(50_000, 65_536).unwrap();
        cert.analytic_fn_bound = 0.5;
        assert!(!cert.check_observed(0).passes);
    }

    #[test]
    fn budget_never_degenerates_to_zero() {
        let cert =
            FnCertificate { scheme: "test", t_rh: 4, analytic_fn_bound: 0.0, design_margin: 1.0 };
        assert_eq!(cert.disturbance_budget(), 1);
    }
}
