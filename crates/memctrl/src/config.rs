//! Memory-controller configuration (Table III of the paper).

use dram_model::fault::DisturbanceModel;
use dram_model::geometry::DramGeometry;
use dram_model::timing::DramTiming;
use dram_model::{Generation, RfmSpec};

use crate::pagepolicy::PagePolicy;

/// Full simulator configuration.
///
/// [`McConfig::micro2020`] reproduces Table III: DDR4-2400, 4 channels ×
/// 1 rank × 16 banks, minimalist-open paging, with the ground-truth fault
/// oracle armed at `T_RH = 50K`. [`McConfig::for_generation`] builds the
/// same system on another DRAM generation's timing — arming the RFM
/// (Refresh Management) accounting when the generation defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// System organization.
    pub geometry: DramGeometry,
    /// Page policy.
    pub page_policy: PagePolicy,
    /// Ground-truth disturbance model; `None` disables the fault oracle
    /// (faster, for pure performance runs).
    pub fault_model: Option<DisturbanceModel>,
    /// Number of workload streams the system is configured for. Accesses
    /// carrying a stream id at or beyond this are counted as strays in
    /// [`crate::RunStats`] (an audit finding) instead of being attributed
    /// to a phantom stream.
    pub max_streams: u16,
    /// DDR5/LPDDR5 Refresh Management accounting. When set the controller
    /// keeps a Rolling Accumulated ACT (RAA) counter per bank, debits it
    /// by RAAIMT per executed [`mitigations::RefreshAction::Rfm`], and
    /// force-issues an RFM whenever a bank's RAA reaches RAAMMT. `None`
    /// (the DDR4/LPDDR4X default) disables all RFM machinery.
    pub rfm: Option<RfmSpec>,
    /// The DRAM generation this configuration models. Drives the refresh
    /// postponement bound of the per-bank [`dram_model::RefreshEngine`]s;
    /// `timing` and `rfm` are kept denormalized so tests can override them
    /// independently. Defaults to DDR4-2400 (the legacy behavior).
    pub generation: Generation,
}

impl McConfig {
    /// The paper's Table III system with the fault oracle enabled.
    pub fn micro2020() -> Self {
        McConfig {
            timing: DramTiming::ddr4_2400(),
            geometry: DramGeometry::micro2020(),
            page_policy: PagePolicy::minimalist_open(),
            fault_model: Some(DisturbanceModel::ddr4_50k()),
            max_streams: 1024,
            rfm: None,
            generation: Generation::Ddr4_2400,
        }
    }

    /// Table III system without the fault oracle (performance-only runs).
    pub fn micro2020_no_oracle() -> Self {
        McConfig { fault_model: None, ..Self::micro2020() }
    }

    /// A single-bank system for focused experiments and tests.
    pub fn single_bank(rows: u32, fault_model: Option<DisturbanceModel>) -> Self {
        McConfig {
            timing: DramTiming::ddr4_2400(),
            geometry: DramGeometry::single_bank(rows),
            page_policy: PagePolicy::minimalist_open(),
            fault_model,
            max_streams: 1024,
            rfm: None,
            generation: Generation::Ddr4_2400,
        }
    }

    /// The Table III organization on `generation`'s timing, with RFM
    /// accounting armed when the generation defines it (DDR5, LPDDR5) and
    /// the fault oracle at the generation's default `T_RH` preset.
    ///
    /// `Generation::Ddr4_2400` reproduces [`McConfig::micro2020`] exactly
    /// apart from the oracle threshold, which here follows the preset.
    pub fn for_generation(generation: Generation) -> Self {
        McConfig {
            timing: generation.timing(),
            fault_model: Some(DisturbanceModel {
                t_rh: generation.default_t_rh(),
                ..DisturbanceModel::ddr4_50k()
            }),
            rfm: generation.rfm(),
            generation,
            ..Self::micro2020()
        }
    }

    /// A single-bank system on `generation`'s timing (focused experiments).
    pub fn single_bank_for_generation(
        generation: Generation,
        rows: u32,
        fault_model: Option<DisturbanceModel>,
    ) -> Self {
        McConfig {
            timing: generation.timing(),
            rfm: generation.rfm(),
            generation,
            ..Self::single_bank(rows, fault_model)
        }
    }
}

impl Default for McConfig {
    fn default() -> Self {
        Self::micro2020()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro2020_matches_table_iii() {
        let c = McConfig::micro2020();
        assert_eq!(c.geometry.channels, 4);
        assert_eq!(c.geometry.banks_per_rank, 16);
        assert_eq!(c.timing.t_rc, 45_000);
        assert_eq!(c.page_policy, PagePolicy::MinimalistOpen { max_hits: 4 });
        assert!(c.fault_model.is_some());
        assert!(c.rfm.is_none(), "DDR4 must not arm RFM accounting");
    }

    #[test]
    fn no_oracle_variant_disables_fault_model() {
        assert!(McConfig::micro2020_no_oracle().fault_model.is_none());
    }

    #[test]
    fn generation_configs_arm_rfm_only_where_defined() {
        let ddr4 = McConfig::for_generation(Generation::Ddr4_2400);
        assert_eq!(ddr4.timing, DramTiming::ddr4_2400());
        assert!(ddr4.rfm.is_none());

        let ddr5 = McConfig::for_generation(Generation::Ddr5_4800);
        assert_eq!(ddr5.timing, Generation::Ddr5_4800.timing());
        let rfm = ddr5.rfm.expect("DDR5 defines RFM");
        assert!(rfm.raaimt > 0 && rfm.raammt > rfm.raaimt);
        assert_eq!(ddr5.fault_model.unwrap().t_rh, Generation::Ddr5_4800.default_t_rh());

        assert!(McConfig::for_generation(Generation::Lpddr4x).rfm.is_none());
        assert!(McConfig::for_generation(Generation::Lpddr5).rfm.is_some());
    }
}
