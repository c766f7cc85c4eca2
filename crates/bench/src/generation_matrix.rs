//! `generation-matrix`: the cross-generation defense matrix.
//!
//! Races the full defense lineup — the defense-free baseline, PARA, and
//! every first-class tracker (Graphene, CoMeT, ABACuS, BlockHammer) —
//! across the DRAM generations in one audited sweep, and enforces the
//! matrix's headline claims in-process:
//!
//! * **Every tracker certifies on every generation**: zero ground-truth
//!   bit flips and worst-case disturbance strictly below the cell's
//!   `T_RH` preset, down to `T_RH = 1K` on the RFM generations.
//! * **RFM spelling is total on DDR5/LPDDR5**: defenses bound to an
//!   RFM-defining generation issue only standardised RFM commands (never
//!   raw neighbor-row refreshes), while DDR4/LPDDR4X cells show zero RFM
//!   traffic.
//!
//! Exports `experiment-data/generations/generation_matrix.csv`: one row
//! per (generation, threshold, workload, defense).

use rh_analysis::export::{output_dir, Csv};
use rh_analysis::TablePrinter;
use rh_sim::{generation_lineup, run_generation_matrix, GenerationCell, GenerationMatrixConfig};

/// Runs the cross-generation sweep, asserts the matrix claims, and writes
/// the export.
///
/// # Panics
///
/// Panics if a matrix claim fails: a tracker leaking flips on any
/// generation, a non-RFM spelling on DDR5/LPDDR5 (or RFM traffic on
/// DDR4/LPDDR4X), or a refresh-based tracker that throttled.
pub fn run(fast: bool) {
    crate::banner("generation-matrix — the defense lineup across DRAM generations");
    let cfg = if fast {
        GenerationMatrixConfig::smoke()
    } else {
        let mut cfg = GenerationMatrixConfig::full();
        // Full mode still has to finish on CI hardware: the generation ×
        // ladder coverage is the point, so keep every cell but trim the
        // trace length.
        cfg.accesses = 150_000;
        cfg
    };
    let cell_count: usize = cfg
        .generations
        .iter()
        .flat_map(|&g| cfg.thresholds_for(g).iter().map(move |&t| generation_lineup(g, t).len()))
        .sum::<usize>()
        * cfg.workloads.len();
    println!(
        "{} generations, {} workloads, {} accesses per cell, {} audited cells",
        cfg.generations.len(),
        cfg.workloads.len(),
        cfg.accesses,
        cell_count
    );

    let cells = run_generation_matrix(&cfg);
    assert_eq!(cells.len(), cell_count);
    print_cells(&cells);
    assert_matrix_claims(&cfg, &cells);

    let rerun = run_generation_matrix(&cfg);
    assert_eq!(cells, rerun, "generation matrix must be bit-reproducible");
    println!("Reproducibility: matrix re-run is bit-identical.");

    write_exports(&cells);
}

/// The in-process acceptance checks of the matrix experiment.
fn assert_matrix_claims(cfg: &GenerationMatrixConfig, cells: &[GenerationCell]) {
    let mut rfm_cells = 0u64;
    let mut throttled = 0u64;
    for cell in cells {
        let id = &cell.spec;
        let tracker =
            matches!(cell.defense.as_str(), "Graphene" | "CoMeT" | "ABACuS" | "BlockHammer");
        if tracker {
            assert_eq!(cell.bit_flips, 0, "{id} on {} leaked flips", cell.workload);
            assert!(
                cell.protected,
                "{id} on {}: disturbance {} reached T_RH {}",
                cell.workload, cell.max_disturbance, cell.t_rh
            );
        }
        match cell.generation.as_str() {
            "ddr5" | "lpddr5" => {
                assert_eq!(
                    cell.rfm_mode, tracker,
                    "{id}: RFM generations re-spell exactly the aggressor trackers"
                );
                if cell.rfm_mode && cell.defense_refresh_commands > 0 {
                    assert_eq!(
                        cell.rfm_commands, cell.defense_refresh_commands,
                        "{id}: every defense refresh must be RFM-spelled"
                    );
                    rfm_cells += 1;
                }
            }
            _ => {
                assert!(!cell.rfm_mode, "{id}: no RFM machinery outside DDR5/LPDDR5");
                assert_eq!(cell.rfm_commands, 0, "{id}");
                assert_eq!(cell.forced_rfms, 0, "{id}");
            }
        }
        if cell.defense == "BlockHammer" {
            throttled += cell.throttled_acts;
        } else {
            assert_eq!(cell.throttled_acts, 0, "{id}: refresh-based defenses must never throttle");
        }
    }
    // The harshest preset of each generation must overwhelm the naked
    // baseline on the single-row hammer — otherwise "protected" is vacuous.
    for &generation in &cfg.generations {
        let harshest = *cfg.thresholds_for(generation).last().expect("non-empty ladder");
        let baseline = cells
            .iter()
            .find(|c| {
                c.generation == generation.name()
                    && c.t_rh == harshest
                    && c.defense == "None"
                    && !c.workload.starts_with("same-row")
            })
            .expect("every group carries its baseline cell");
        assert!(
            baseline.bit_flips > 0,
            "{}@{harshest}: the unprotected baseline must flip",
            generation.name()
        );
    }
    assert!(rfm_cells > 0, "no cell ever exercised the RFM spelling");
    assert!(throttled > 0, "BlockHammer never throttled across the matrix");
    println!(
        "Claims hold: trackers certify on every generation, RFM spelling total on \
         DDR5/LPDDR5 ({rfm_cells} cells), {throttled} throttled ACT(s) (BlockHammer only)."
    );
}

fn print_cells(cells: &[GenerationCell]) {
    let mut table = TablePrinter::new(vec![
        "gen",
        "T_RH",
        "workload",
        "defense",
        "rfm",
        "flips",
        "max_dist",
        "prot",
        "rfm_cmds",
        "forced",
        "slowdown",
        "throttled",
        "energy",
    ]);
    for cell in cells {
        table.row(vec![
            cell.generation.clone(),
            cell.t_rh.to_string(),
            cell.workload.clone(),
            cell.defense.clone(),
            if cell.rfm_mode { "yes".into() } else { "-".into() },
            cell.bit_flips.to_string(),
            cell.max_disturbance.to_string(),
            if cell.protected { "yes".into() } else { "NO".into() },
            cell.rfm_commands.to_string(),
            cell.forced_rfms.to_string(),
            format!("{:.3}", cell.slowdown),
            cell.throttled_acts.to_string(),
            format!("{:.5}", cell.energy_overhead),
        ]);
    }
    table.print();
}

fn write_exports(cells: &[GenerationCell]) {
    let dir = output_dir().join("generations");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        println!("[could not create {}: {e}]", dir.display());
        return;
    }
    let mut csv = Csv::new(vec![
        "generation",
        "t_rh",
        "workload",
        "defense",
        "spec",
        "rfm_mode",
        "bit_flips",
        "baseline_bit_flips",
        "max_disturbance",
        "protected",
        "rfm_commands",
        "forced_rfms",
        "defense_refresh_commands",
        "slowdown",
        "throttled_acts",
        "energy_overhead",
    ]);
    for cell in cells {
        csv.row(vec![
            cell.generation.clone(),
            cell.t_rh.to_string(),
            cell.workload.clone(),
            cell.defense.clone(),
            cell.spec.clone(),
            cell.rfm_mode.to_string(),
            cell.bit_flips.to_string(),
            cell.baseline_bit_flips.to_string(),
            cell.max_disturbance.to_string(),
            cell.protected.to_string(),
            cell.rfm_commands.to_string(),
            cell.forced_rfms.to_string(),
            cell.defense_refresh_commands.to_string(),
            format!("{:.4}", cell.slowdown),
            cell.throttled_acts.to_string(),
            format!("{:.6}", cell.energy_overhead),
        ]);
    }
    let path = dir.join("generation_matrix.csv");
    match csv.write_to(&path) {
        Ok(()) => println!("[generation matrix written to {}]", path.display()),
        Err(e) => println!("[could not write {}: {e}]", path.display()),
    }
}
