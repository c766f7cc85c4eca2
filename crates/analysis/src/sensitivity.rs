//! Sensitivity of the protection parameters to deployment conditions.
//!
//! The paper's numbers assume tREFW = 64 ms, 64 banks and a 1 %-per-year
//! failure target. Real deployments vary all three:
//!
//! * **temperature** — above 85 °C JEDEC halves the refresh window
//!   (tREFW = 32 ms), which halves `W` and shrinks Graphene's table while
//!   leaving `T` (a function of `T_RH` only) unchanged;
//! * **system size** — more banks mean more parallel attack surfaces, so
//!   PARA's minimal `p` must grow (slowly: the failure target is shared
//!   across `banks × windows` trials);
//! * **failure target** — a stricter target than 1 %/year also pushes `p`
//!   up, again logarithmically.
//!
//! Graphene's counters are deterministic, so only the table *size* moves
//! with the environment; PARA's protection level itself does. This module
//! quantifies both, and its tests pin the directions.

use dram_model::timing::DramTiming;
use graphene_core::{GrapheneConfig, GrapheneParams};

use crate::security::{minimal_para_probability, para_window_failure, yearly_failure};

/// Graphene parameters under a scaled refresh window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshWindowPoint {
    /// The refresh window (ps).
    pub t_refw: u64,
    /// Derived parameters at this window.
    pub params: GrapheneParams,
}

/// Derives Graphene across refresh windows (e.g. 64 ms nominal vs 32 ms
/// high-temperature).
///
/// # Panics
///
/// Panics if any window produces an underivable configuration.
pub fn graphene_vs_refresh_window(t_rh: u64, windows_ms: &[u64]) -> Vec<RefreshWindowPoint> {
    windows_ms
        .iter()
        .map(|&ms| {
            let mut timing = DramTiming::ddr4_2400();
            timing.t_refw = ms * 1_000_000_000;
            let params = GrapheneConfig::builder()
                .row_hammer_threshold(t_rh)
                .timing(timing)
                .build()
                .expect("valid configuration")
                .derive()
                .expect("derivable");
            RefreshWindowPoint { t_refw: timing.t_refw, params }
        })
        .collect()
}

/// Minimal PARA probability as a function of system size (bank count).
pub fn para_p_vs_banks(t_rh: u64, banks: &[u32], target: f64) -> Vec<(u32, f64)> {
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    banks.iter().map(|&b| (b, minimal_para_probability(t_rh, w, b, target))).collect()
}

/// Minimal PARA probability as a function of the yearly failure target.
pub fn para_p_vs_target(t_rh: u64, banks: u32, targets: &[f64]) -> Vec<(f64, f64)> {
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    targets.iter().map(|&t| (t, minimal_para_probability(t_rh, w, banks, t))).collect()
}

/// Years of protection a fixed PARA `p` provides before the cumulative
/// failure probability crosses `target`.
pub fn para_protection_horizon_years(p: f64, t_rh: u64, banks: u32, target: f64) -> f64 {
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    let one_year = yearly_failure(para_window_failure(p, t_rh, w), banks);
    if one_year <= 0.0 {
        return f64::INFINITY;
    }
    if one_year >= 1.0 {
        return 0.0;
    }
    // (1 − (1−q)^years) = target  ⇒  years = ln(1−target)/ln(1−q).
    f64::ln_1p(-target) / f64::ln_1p(-one_year)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_temperature_window_shrinks_table_not_t() {
        let points = graphene_vs_refresh_window(50_000, &[64, 32]);
        let (nominal, hot) = (&points[0].params, &points[1].params);
        // T depends only on T_RH and k.
        assert_eq!(nominal.tracking_threshold, hot.tracking_threshold);
        // W halves → the table roughly halves.
        assert_eq!(hot.acts_per_window, nominal.acts_per_window / 2);
        let ratio = nominal.n_entry as f64 / hot.n_entry as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
        // And the derived parameters remain provably protective.
        hot.validate_protection().unwrap();
    }

    #[test]
    fn para_p_grows_with_system_size() {
        let pts = para_p_vs_banks(50_000, &[16, 64, 1_024], 0.01);
        assert!(pts[0].1 < pts[1].1 && pts[1].1 < pts[2].1, "{pts:?}");
        // But only logarithmically: 64× more banks, far less than 64× more p.
        assert!(pts[2].1 / pts[0].1 < 1.5);
    }

    #[test]
    fn para_p_grows_with_stricter_target() {
        let pts = para_p_vs_target(50_000, 64, &[0.10, 0.01, 0.001]);
        assert!(pts[0].1 < pts[1].1 && pts[1].1 < pts[2].1, "{pts:?}");
    }

    #[test]
    fn protection_horizon_matches_yearly_target() {
        // At the minimal p for 1 %/year, the 1 % horizon is ≈ 1 year.
        let p = minimal_para_probability(
            50_000,
            DramTiming::ddr4_2400().max_acts_per_refresh_window(),
            64,
            0.01,
        );
        let years = para_protection_horizon_years(p, 50_000, 64, 0.01);
        assert!((0.8..1.5).contains(&years), "horizon {years}");
        // A slightly larger p buys a dramatically longer horizon.
        let longer = para_protection_horizon_years(p * 1.2, 50_000, 64, 0.01);
        assert!(longer > 10.0 * years, "longer {longer}");
    }

    #[test]
    fn horizon_edges() {
        assert_eq!(para_protection_horizon_years(0.0, 50_000, 64, 0.01), 0.0);
        assert!(para_protection_horizon_years(0.5, 50_000, 64, 0.01).is_infinite());
    }
}
