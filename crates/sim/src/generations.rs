//! The cross-generation defense matrix: the full tracker lineup raced on
//! every DRAM generation in one audited sweep.
//!
//! Every cell binds one defense to one [`Generation`] through
//! [`GenSpec`], so its parameters — reset window, tracking threshold,
//! table size — are re-derived from that generation's timing, and on the
//! generations that define Refresh Management (DDR5, LPDDR5) the defense
//! issues standardised RFM commands instead of raw neighbor-row refreshes.
//!
//! Like the tracker arena, every cell runs fully audited: the action audit
//! validates each refresh (RFM or NRR spelling), the fault oracle records
//! ground-truth disturbance, and the end-of-run invariant audit
//! cross-checks both. The sweep is one [`pool::map`] over (generation,
//! threshold, workload) groups; each group runs its baseline and then its
//! lineup through `runner::execute`.

use dram_model::fault::DisturbanceModel;
use dram_model::Generation;
use memctrl::{McBuilder, McConfig};
use rh_analysis::EnergyModel;

use crate::pool;
use crate::runner::{execute, worst_disturbance};
use crate::scenarios::{DefenseSpec, GenSpec, WorkloadSpec};

/// Configuration of one cross-generation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationMatrixConfig {
    /// Generations to race (columns of the matrix).
    pub generations: Vec<Generation>,
    /// How many presets to take from the *tail* (harshest end) of each
    /// generation's `T_RH` ladder; saturates at the full ladder.
    pub preset_tail: usize,
    /// Attack workloads; system-scale ones run on the multi-bank config.
    pub workloads: Vec<WorkloadSpec>,
    /// Accesses per run.
    pub accesses: u64,
    /// Workload seed (identical traces across defenses and generations).
    pub seed: u64,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Banks in the multi-bank config used for system-scale workloads.
    pub system_banks: u8,
}

impl GenerationMatrixConfig {
    /// The full matrix: every generation, its entire preset ladder (down
    /// to `T_RH = 1K` on the RFM generations), single-bank and all-bank
    /// attack shapes.
    pub fn full() -> Self {
        GenerationMatrixConfig {
            generations: Generation::ALL.to_vec(),
            preset_tail: usize::MAX,
            workloads: vec![WorkloadSpec::S3, WorkloadSpec::SameRowAllBanks { banks: 16 }],
            accesses: 400_000,
            seed: 42,
            rows_per_bank: 65_536,
            system_banks: 16,
        }
    }

    /// A small matrix for CI smoke: three generations (one per refresh
    /// spelling: DDR4 NRR, DDR5 RFM, LPDDR5 RFM) at each ladder's harshest
    /// preset, single-row hammer only.
    pub fn smoke() -> Self {
        GenerationMatrixConfig {
            generations: vec![Generation::Ddr4_2400, Generation::Ddr5_4800, Generation::Lpddr5],
            preset_tail: 1,
            workloads: vec![WorkloadSpec::S3],
            accesses: 40_000,
            seed: 42,
            rows_per_bank: 65_536,
            system_banks: 4,
        }
    }

    /// The thresholds this sweep runs `generation` at: the tail (harshest
    /// end) of its preset ladder, in ladder order.
    pub fn thresholds_for(&self, generation: Generation) -> &'static [u64] {
        let presets = generation.t_rh_presets();
        &presets[presets.len().saturating_sub(self.preset_tail)..]
    }
}

/// The controller config of one sweep group: a single `generation` bank of
/// `rows_per_bank` rows with the fault oracle armed at `t_rh`, widened to
/// `system_banks` banks for system-scale workloads. The tracker arena
/// shares it at DDR4-2400.
pub(crate) fn mc_config(
    generation: Generation,
    t_rh: u64,
    rows_per_bank: u32,
    system_banks: u8,
    workload: &WorkloadSpec,
) -> McConfig {
    let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
    let mut cfg = McConfig::single_bank_for_generation(generation, rows_per_bank, Some(model));
    if workload.is_system_scale() {
        cfg.geometry.banks_per_rank = system_banks;
    }
    cfg
}

/// The defense lineup of one matrix column: the defense-free baseline,
/// the probabilistic PARA baseline, and every first-class tracker, each
/// bound to `generation` (RFM-issuing where the generation defines it).
pub fn generation_lineup(generation: Generation, t_rh: u64) -> Vec<GenSpec> {
    let p = rh_analysis::security::paper_para_ladder()
        .iter()
        .find(|&&(t, _)| t == t_rh)
        .map(|&(_, p)| p)
        .unwrap_or(0.00145);
    [
        DefenseSpec::None,
        DefenseSpec::Para { p },
        DefenseSpec::Graphene { t_rh, k: 2 },
        DefenseSpec::Comet { t_rh },
        DefenseSpec::Abacus { t_rh, k: 2 },
        DefenseSpec::BlockHammer { t_rh },
    ]
    .into_iter()
    .map(|defense| GenSpec::new(generation, defense))
    .collect()
}

/// One scored cell of the cross-generation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationCell {
    /// Generation name (`ddr4`, `ddr5`, `lpddr4x`, `lpddr5`).
    pub generation: String,
    /// Row Hammer threshold of this cell (a preset of the generation).
    pub t_rh: u64,
    /// Workload name.
    pub workload: String,
    /// Defense name (the inner scheme; RFM spelling is `rfm_mode`).
    pub defense: String,
    /// Parseable generation-qualified spec string ([`GenSpec::spec_string`]).
    pub spec: String,
    /// Whether the defense issued RFM commands instead of raw NRRs.
    pub rfm_mode: bool,
    /// Bit flips of the defended run (ground truth from the fault oracle).
    pub bit_flips: u64,
    /// Bit flips of the defense-free baseline on the identical trace.
    pub baseline_bit_flips: u64,
    /// Hottest victim's ACT-equivalent disturbance across banks (ceiled).
    pub max_disturbance: u64,
    /// Ground-truth verdict: zero flips and worst disturbance below `T_RH`.
    pub protected: bool,
    /// Defense-requested RFM commands executed by the controller.
    pub rfm_commands: u64,
    /// Untargeted RFMs the controller forced at the RAAMMT backstop.
    pub forced_rfms: u64,
    /// All defense refresh commands (NRR and RFM spellings).
    pub defense_refresh_commands: u64,
    /// Completion-time slowdown versus the defense-free baseline.
    pub slowdown: f64,
    /// Activations delayed through the throttle feedback path.
    pub throttled_acts: u64,
    /// Refresh-energy overhead, scored against the generation's tREFW.
    pub energy_overhead: f64,
}

/// Runs the cross-generation sweep, one [`pool::map`] item per
/// (generation, threshold, workload) group, and returns the cells in
/// deterministic generation-major/threshold/workload/lineup order.
pub fn run_generation_matrix(cfg: &GenerationMatrixConfig) -> Vec<GenerationCell> {
    let groups: Vec<(Generation, u64, &WorkloadSpec)> = cfg
        .generations
        .iter()
        .flat_map(|&g| {
            cfg.thresholds_for(g)
                .iter()
                .flat_map(move |&t_rh| cfg.workloads.iter().map(move |w| (g, t_rh, w)))
        })
        .collect();
    pool::map(&groups, |&(g, t_rh, w)| run_group(cfg, g, t_rh, w)).into_iter().flatten().collect()
}

/// One (generation, threshold, workload) group: the defense-free baseline
/// plus every lineup defense on the identical trace.
fn run_group(
    cfg: &GenerationMatrixConfig,
    generation: Generation,
    t_rh: u64,
    workload: &WorkloadSpec,
) -> Vec<GenerationCell> {
    let mc_cfg = mc_config(generation, t_rh, cfg.rows_per_bank, cfg.system_banks, workload);
    let energy = EnergyModel::for_timing(&generation.timing());
    let banks = mc_cfg.geometry.total_banks();
    let lineup = generation_lineup(generation, t_rh);
    let run = |spec: &GenSpec| {
        let mc = McBuilder::new(mc_cfg.clone()).defenses(spec).audit(true).build();
        let (mc, stats) = execute(mc, workload, cfg.accesses, cfg.seed, true);
        (stats, worst_disturbance(&mc))
    };
    let (baseline, baseline_dist) = run(&lineup[0]);
    lineup
        .iter()
        .map(|spec| {
            let (stats, max_disturbance) = if matches!(spec.defense, DefenseSpec::None) {
                (baseline.clone(), baseline_dist)
            } else {
                run(spec)
            };
            GenerationCell {
                generation: generation.name().to_owned(),
                t_rh,
                workload: workload.name(),
                defense: spec.defense.name(),
                spec: spec.spec_string(),
                rfm_mode: spec.issues_rfm(),
                bit_flips: stats.bit_flips,
                baseline_bit_flips: baseline.bit_flips,
                max_disturbance,
                protected: stats.bit_flips == 0 && max_disturbance < t_rh,
                rfm_commands: stats.rfm_commands,
                forced_rfms: stats.forced_rfms,
                defense_refresh_commands: stats.defense_refresh_commands,
                slowdown: stats.slowdown_vs(&baseline),
                throttled_acts: stats.throttled_acts,
                energy_overhead: energy.refresh_energy_overhead(
                    stats.victim_rows_refreshed,
                    stats.completion,
                    banks,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_covers_baselines_and_every_tracker() {
        let lineup = generation_lineup(Generation::Ddr5_4800, 1_000);
        let names: Vec<String> = lineup.iter().map(|s| s.defense.name()).collect();
        assert_eq!(names, ["None", "PARA-0.00145", "Graphene", "CoMeT", "ABACuS", "BlockHammer"]);
        for spec in &lineup {
            assert_eq!(GenSpec::parse(&spec.spec_string()).unwrap(), *spec);
        }
        // DDR4 lineup strings stay bare (the legacy notation).
        for spec in generation_lineup(Generation::Ddr4_2400, 1_560) {
            assert!(!spec.spec_string().contains('/'), "{}", spec.spec_string());
        }
    }

    #[test]
    fn smoke_matrix_certifies_across_three_generations() {
        let cells = run_generation_matrix(&GenerationMatrixConfig::smoke());
        // 3 generations × 1 threshold × 1 workload × 6 lineup entries.
        assert_eq!(cells.len(), 3 * 6);
        for cell in &cells {
            assert!(
                cell.baseline_bit_flips > 0,
                "{}: S3 at the harshest preset must flip the unprotected baseline",
                cell.spec
            );
        }
        for cell in cells.iter().filter(|c| {
            matches!(c.defense.as_str(), "Graphene" | "CoMeT" | "ABACuS" | "BlockHammer")
        }) {
            assert_eq!(cell.bit_flips, 0, "{} let flips through", cell.spec);
            assert!(cell.protected, "{} failed ground truth: {cell:?}", cell.spec);
            match cell.generation.as_str() {
                // RFM generations: every defense refresh is an RFM, and the
                // spec string is generation-qualified.
                "ddr5" | "lpddr5" => {
                    assert!(cell.rfm_mode, "{}", cell.spec);
                    assert!(cell.spec.contains('/'), "{}", cell.spec);
                    if cell.defense_refresh_commands > 0 {
                        assert_eq!(
                            cell.rfm_commands, cell.defense_refresh_commands,
                            "{}: every defense refresh must be RFM-spelled",
                            cell.spec
                        );
                    }
                }
                // DDR4: no RFM machinery anywhere near the legacy path.
                _ => {
                    assert!(!cell.rfm_mode, "{}", cell.spec);
                    assert_eq!(cell.rfm_commands, 0, "{}", cell.spec);
                    assert_eq!(cell.forced_rfms, 0, "{}", cell.spec);
                }
            }
        }
        // The refresh-issuing trackers actually exercised RFM on DDR5.
        let ddr5_graphene = cells
            .iter()
            .find(|c| c.generation == "ddr5" && c.defense == "Graphene")
            .expect("ddr5 Graphene cell");
        assert!(ddr5_graphene.rfm_commands > 0, "{ddr5_graphene:?}");
    }

    #[test]
    fn cells_come_back_in_deterministic_generation_order() {
        let mut cfg = GenerationMatrixConfig::smoke();
        cfg.accesses = 4_000;
        let cells = run_generation_matrix(&cfg);
        let generations: Vec<&str> =
            cells.iter().map(|c| c.generation.as_str()).step_by(6).collect();
        assert_eq!(generations, ["ddr4", "ddr5", "lpddr5"]);
        let again = run_generation_matrix(&cfg);
        assert_eq!(cells, again, "generation matrix must be deterministic");
    }
}
