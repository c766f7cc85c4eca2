//! The tracker arena: Graphene, CoMeT, ABACuS, and BlockHammer head to
//! head across attack workloads and Row Hammer thresholds.
//!
//! Every cell runs fully audited — [`mitigations::AuditedDefense`] wraps
//! the tracker, the fault oracle records ground-truth disturbance, and the
//! end-of-run invariant audit cross-checks both — and is then scored along
//! the four axes the arena report tabulates:
//!
//! * **Security** — bit flips, the hottest victim's ACT-equivalent
//!   disturbance, and the scheme's certificate: the exact no-false-negative
//!   shadow oracle for Graphene and ABACuS (exact counters), the bounded-FN
//!   [`FnCertificate`] for CoMeT (collision-discount bound) and BlockHammer
//!   (deterministic rate cap).
//! * **Slowdown** — completion time against the defense-free baseline of
//!   the identical trace; BlockHammer is the interesting one, since it
//!   *throttles* instead of refreshing.
//! * **Area** — CAM/SRAM bits from each tracker's own
//!   [`table_bits`](mitigations::RowHammerDefense::table_bits); ABACuS rows
//!   report the per-bank *share* of the one shared all-bank table.
//! * **Energy** — victim-refresh energy plus first-order tracker
//!   lookup/leakage energy ([`EnergyModel::tracker_energy_overhead`]), with
//!   per-ACT touched bits modeling the structural difference between a CAM
//!   search (whole table) and a sketch probe (`depth` counters).
//!
//! The sweep is one [`pool::map`] over (threshold, workload) groups on the
//! generation matrix's DDR4-2400 config; each group runs its baseline and
//! then its lineup through `runner::execute`.

use dram_model::Generation;
use memctrl::{McBuilder, RunStats};
use mitigations::{BlockHammerConfig, CometConfig, TableBits};
use rh_analysis::{ArenaAreaComparison, EnergyModel, FnCertificate};

use crate::generations::mc_config;
use crate::pool;
use crate::runner::{execute, worst_disturbance};
use crate::scenarios::{DefenseSpec, WorkloadSpec};

/// Configuration of one arena sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaConfig {
    /// Row Hammer thresholds to sweep (the Figure 9 ladder plus 1K in
    /// [`ArenaConfig::full`]).
    pub thresholds: Vec<u64>,
    /// Attack workloads; system-scale ones run on the multi-bank config.
    pub workloads: Vec<WorkloadSpec>,
    /// Accesses per run.
    pub accesses: u64,
    /// Workload seed (identical traces across defenses).
    pub seed: u64,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Banks in the multi-bank config used for system-scale workloads
    /// (single-controller, so ABACuS shares one table across all of them).
    pub system_banks: u8,
}

impl ArenaConfig {
    /// The full arena: all four trackers × three attack shapes × the
    /// Figure 9 threshold ladder extended down to `T_RH = 1K`.
    pub fn full() -> Self {
        ArenaConfig {
            thresholds: vec![50_000, 25_000, 12_500, 6_250, 3_125, 1_560, 1_000],
            workloads: vec![
                WorkloadSpec::S1 { n: 10 },
                WorkloadSpec::S3,
                WorkloadSpec::SameRowAllBanks { banks: 16 },
            ],
            accesses: 400_000,
            seed: 42,
            rows_per_bank: 65_536,
            system_banks: 16,
        }
    }

    /// A small matrix for CI smoke and fast mode: one mid-ladder threshold,
    /// the single-row hammer, and the ABACuS-adversarial all-banks pattern
    /// on a 4-bank system.
    pub fn smoke() -> Self {
        ArenaConfig {
            thresholds: vec![6_250],
            workloads: vec![WorkloadSpec::S3, WorkloadSpec::SameRowAllBanks { banks: 4 }],
            accesses: 40_000,
            seed: 42,
            rows_per_bank: 65_536,
            system_banks: 4,
        }
    }
}

/// The arena lineup at one threshold: every first-class tracker, exact and
/// probabilistic, in fixed report order.
pub fn arena_lineup(t_rh: u64) -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::Graphene { t_rh, k: 2 },
        DefenseSpec::Comet { t_rh },
        DefenseSpec::Abacus { t_rh, k: 2 },
        DefenseSpec::BlockHammer { t_rh },
    ]
}

/// One scored cell of the arena matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaCell {
    /// Row Hammer threshold of this cell.
    pub t_rh: u64,
    /// Workload name.
    pub workload: String,
    /// Defense name.
    pub defense: String,
    /// Parseable defense spec string ([`DefenseSpec::spec_string`]).
    pub spec: String,
    /// Bit flips of the defended run (ground truth from the fault oracle).
    pub bit_flips: u64,
    /// Bit flips of the defense-free baseline on the identical trace.
    pub baseline_bit_flips: u64,
    /// Hottest victim's ACT-equivalent disturbance across banks (ceiled).
    pub max_disturbance: u64,
    /// Certificate kind: `exact-no-fn` (shadow oracle) or `bounded-fn`
    /// ([`FnCertificate`]).
    pub cert_kind: &'static str,
    /// Whether the certificate held for this run.
    pub cert_passes: bool,
    /// Analytic per-window false-negative bound (zero for exact schemes).
    pub analytic_fn_bound: f64,
    /// Deterministic design margin claimed by the certificate.
    pub design_margin: f64,
    /// Observed near-miss margin `1 − max_disturbance / T_RH`.
    pub observed_margin: f64,
    /// Completion-time slowdown versus the defense-free baseline.
    pub slowdown: f64,
    /// Activations delayed by [`ThrottleDecision`](mitigations::ThrottleDecision).
    pub throttled_acts: u64,
    /// CAM bits per bank (ABACuS: per-bank share of the shared table).
    pub cam_bits: u64,
    /// SRAM bits per bank (same convention).
    pub sram_bits: u64,
    /// Refresh-plus-tracker energy overhead versus auto-refresh energy.
    pub energy_overhead: f64,
}

/// Runs the full arena sweep, one [`pool::map`] item per (threshold,
/// workload) group, and returns the cells in deterministic
/// threshold-major/workload/lineup order.
pub fn run_arena(cfg: &ArenaConfig) -> Vec<ArenaCell> {
    let groups: Vec<(u64, &WorkloadSpec)> = cfg
        .thresholds
        .iter()
        .flat_map(|&t_rh| cfg.workloads.iter().map(move |w| (t_rh, w)))
        .collect();
    pool::map(&groups, |&(t_rh, w)| run_group(cfg, t_rh, w)).into_iter().flatten().collect()
}

/// One (threshold, workload) group: the defense-free baseline plus every
/// lineup tracker on the identical trace.
fn run_group(cfg: &ArenaConfig, t_rh: u64, workload: &WorkloadSpec) -> Vec<ArenaCell> {
    let mc_cfg =
        mc_config(Generation::Ddr4_2400, t_rh, cfg.rows_per_bank, cfg.system_banks, workload);
    let banks = mc_cfg.geometry.total_banks();
    let area = ArenaAreaComparison::at_threshold(t_rh, banks, cfg.rows_per_bank)
        .expect("arena thresholds must derive");
    let run = |spec: &DefenseSpec| {
        let mc = McBuilder::new(mc_cfg.clone()).defenses(spec).audit(true).build();
        let (mc, stats) = execute(mc, workload, cfg.accesses, cfg.seed, true);
        (stats, worst_disturbance(&mc))
    };
    let (baseline, _) = run(&DefenseSpec::None);
    arena_lineup(t_rh)
        .into_iter()
        .map(|spec| {
            let (stats, max_disturbance) = run(&spec);
            score_cell(cfg, &spec, workload, t_rh, banks, &area, &stats, &baseline, max_disturbance)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn score_cell(
    cfg: &ArenaConfig,
    spec: &DefenseSpec,
    workload: &WorkloadSpec,
    t_rh: u64,
    banks: u32,
    area: &ArenaAreaComparison,
    stats: &RunStats,
    baseline: &RunStats,
    max_disturbance: u64,
) -> ArenaCell {
    let bits = table_bits_for(spec, area);
    let (cert_kind, cert, observed_margin) = certificate_for(spec, t_rh, cfg.rows_per_bank)
        .map_or_else(
            || {
                // Exact schemes: surviving the audited run *is* the
                // certificate — the shadow oracle asserted no-FN inline, so
                // here we only restate the ground truth.
                ("exact-no-fn", None, 1.0 - max_disturbance as f64 / t_rh as f64)
            },
            |c| {
                let check = c.check_observed(max_disturbance);
                ("bounded-fn", Some((c, check)), check.observed_margin)
            },
        );
    let (cert_passes, analytic_fn_bound, design_margin) = match cert {
        Some((c, check)) => {
            (check.passes && stats.bit_flips == 0, c.analytic_fn_bound, c.design_margin)
        }
        None => (stats.bit_flips == 0 && max_disturbance < t_rh, 0.0, 0.0),
    };
    ArenaCell {
        t_rh,
        workload: workload.name(),
        defense: spec.name(),
        spec: spec.spec_string(),
        bit_flips: stats.bit_flips,
        baseline_bit_flips: baseline.bit_flips,
        max_disturbance,
        cert_kind,
        cert_passes,
        analytic_fn_bound,
        design_margin,
        observed_margin,
        slowdown: stats.slowdown_vs(baseline),
        throttled_acts: stats.throttled_acts,
        cam_bits: bits.cam_bits,
        sram_bits: bits.sram_bits,
        energy_overhead: energy_overhead_for(spec, t_rh, cfg.rows_per_bank, &bits, stats, banks),
    }
}

/// The bounded-FN certificate for probabilistic trackers; `None` for the
/// exact ones (their certificate is the shadow oracle itself).
fn certificate_for(spec: &DefenseSpec, t_rh: u64, rows_per_bank: u32) -> Option<FnCertificate> {
    match spec {
        DefenseSpec::Comet { .. } => {
            Some(FnCertificate::comet(t_rh, rows_per_bank).expect("arena thresholds must derive"))
        }
        DefenseSpec::BlockHammer { .. } => Some(
            FnCertificate::blockhammer(t_rh, rows_per_bank).expect("arena thresholds must derive"),
        ),
        _ => None,
    }
}

fn table_bits_for(spec: &DefenseSpec, area: &ArenaAreaComparison) -> TableBits {
    match spec {
        DefenseSpec::Comet { .. } => area.comet,
        DefenseSpec::Abacus { .. } => area.abacus,
        DefenseSpec::BlockHammer { .. } => area.blockhammer,
        _ => area.graphene,
    }
}

/// Refresh energy plus first-order tracker energy. Per-ACT touched bits:
/// a CAM-based exact tracker searches its whole table every activation,
/// while CoMeT's sketch touches `depth` counters (one per hash row, i.e.
/// `sram / width` bits) plus a full search of its small recent-aggressor
/// CAM, and BlockHammer probes `depth` counters in each of its two
/// counting-Bloom filters (together `sram / width` bits — both filters
/// observe every ACT).
fn energy_overhead_for(
    spec: &DefenseSpec,
    t_rh: u64,
    rows_per_bank: u32,
    bits: &TableBits,
    stats: &RunStats,
    banks: u32,
) -> f64 {
    let touched = match spec {
        DefenseSpec::Comet { .. } => {
            let width = CometConfig::for_threshold(t_rh, rows_per_bank)
                .expect("arena thresholds must derive")
                .width as u64;
            bits.cam_bits + bits.sram_bits / width.max(1)
        }
        DefenseSpec::BlockHammer { .. } => {
            let width = BlockHammerConfig::for_threshold(t_rh, rows_per_bank)
                .expect("arena thresholds must derive")
                .width as u64;
            bits.sram_bits / width.max(1)
        }
        _ => bits.total(),
    };
    let energy = EnergyModel::micro2020();
    energy.refresh_energy_overhead(stats.victim_rows_refreshed, stats.completion, banks)
        + energy.tracker_energy_overhead(
            touched,
            bits.total(),
            stats.activations,
            stats.completion,
            banks,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_is_the_four_first_class_trackers() {
        let names: Vec<String> = arena_lineup(6_250).iter().map(DefenseSpec::name).collect();
        assert_eq!(names, ["Graphene", "CoMeT", "ABACuS", "BlockHammer"]);
        for spec in arena_lineup(6_250) {
            assert_eq!(DefenseSpec::parse(&spec.spec_string()).unwrap(), spec);
        }
    }

    #[test]
    fn single_row_hammer_group_certifies_every_tracker() {
        let mut cfg = ArenaConfig::smoke();
        cfg.workloads = vec![WorkloadSpec::S3];
        let cells = run_arena(&cfg);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert!(
                cell.baseline_bit_flips > 0,
                "S3 at T_RH 6250 must flip the unprotected baseline"
            );
            assert_eq!(cell.bit_flips, 0, "{} let flips through", cell.defense);
            assert!(cell.cert_passes, "{} failed its certificate: {cell:?}", cell.defense);
            assert!(cell.max_disturbance < cell.t_rh);
            assert!(cell.observed_margin > 0.0);
            assert!(cell.cam_bits + cell.sram_bits > 0);
            // `slowdown_vs` reports the excess fraction (0.0 = baseline speed).
            assert!(cell.slowdown > -0.01, "{} sped up under defense?", cell.defense);
            assert!(cell.energy_overhead >= 0.0);
        }
        let kinds: Vec<&str> = cells.iter().map(|c| c.cert_kind).collect();
        assert_eq!(kinds, ["exact-no-fn", "bounded-fn", "exact-no-fn", "bounded-fn"]);
        let blockhammer = cells.iter().find(|c| c.defense == "BlockHammer").unwrap();
        assert!(blockhammer.throttled_acts > 0, "BlockHammer must throttle a hot row");
        assert!(blockhammer.design_margin > 0.2, "rate cap margin missing");
        let refreshers: u64 =
            cells.iter().filter(|c| c.defense != "BlockHammer").map(|c| c.throttled_acts).sum();
        assert_eq!(refreshers, 0, "refresh-based trackers never throttle");
    }

    #[test]
    fn same_row_all_banks_shows_the_shared_table_advantage() {
        let mut cfg = ArenaConfig::smoke();
        cfg.workloads = vec![WorkloadSpec::SameRowAllBanks { banks: 4 }];
        cfg.accesses = 36_000;
        let cells = run_arena(&cfg);
        let abacus = cells.iter().find(|c| c.defense == "ABACuS").unwrap();
        let graphene = cells.iter().find(|c| c.defense == "Graphene").unwrap();
        assert!(abacus.baseline_bit_flips > 0, "per-bank pressure must exceed T_RH unprotected");
        assert!(abacus.cert_passes && graphene.cert_passes);
        // The advantage: one shared table protects all banks, so the
        // per-bank share undercuts Graphene's per-bank footprint even at
        // only 4 banks (the gap widens with bank count — the 16-bank case
        // is covered by rh-analysis's arena area tests).
        let abacus_bits = abacus.cam_bits + abacus.sram_bits;
        let graphene_bits = graphene.cam_bits + graphene.sram_bits;
        assert!(
            abacus_bits < graphene_bits,
            "ABACuS share {abacus_bits} vs Graphene {graphene_bits}"
        );
    }

    #[test]
    fn cells_come_back_in_deterministic_group_order() {
        let mut cfg = ArenaConfig::smoke();
        cfg.accesses = 4_000;
        let cells = run_arena(&cfg);
        assert_eq!(cells.len(), 2 * 4);
        let workloads: Vec<&str> = cells.iter().map(|c| c.workload.as_str()).step_by(4).collect();
        assert_eq!(workloads, ["S3", "same-row-4banks"]);
        let again = run_arena(&cfg);
        assert_eq!(cells, again, "arena sweep must be deterministic");
    }
}
