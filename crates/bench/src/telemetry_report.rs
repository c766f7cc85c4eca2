//! `telemetry-report`: instrumented sweep + per-defense summary tables +
//! trajectory exports.
//!
//! Runs an instrumented [`rh_sim::try_run_matrix`] sweep (attack and normal
//! workloads against Graphene, PARA, and TWiCe), prints per-defense action
//! rates the way Table 3 summarizes overheads, and exports:
//!
//! * `telemetry/snapshot.jsonl` — the full merged [`Snapshot`] (versioned
//!   `rh-telemetry` schema), every cell's series prefixed
//!   `"{workload}/{defense}/"`;
//! * `telemetry/snapshot.csv` — the same data in long form
//!   (`metric,bank,t_ps,value`) for direct plotting;
//! * `telemetry/graphene_<workload>.csv` — Graphene's spillover / occupancy
//!   / per-window NRR trajectories, the curve data behind the paper's
//!   Figure 6/8-style analyses.

use rh_analysis::export::{output_dir, Csv};
use rh_analysis::report::pct;
use rh_analysis::TablePrinter;
use rh_sim::{try_run_matrix, DefenseSpec, SimConfig, TelemetrySpec, WorkloadSpec};
use telemetry::Snapshot;

/// Runs the instrumented sweep and writes the exports.
///
/// # Panics
///
/// Panics if the sweep produced no Graphene spillover series — that would
/// mean the instrumentation chain (defense → wrapper → recorder →
/// snapshot) is broken, and a report silently missing its headline series
/// is worse than a failed run.
pub fn run(fast: bool) {
    crate::banner("telemetry-report — instrumented sweep: action rates + trajectories");
    let accesses: u64 = if fast { 6_000 } else { 40_000 };
    let every_acts = if fast { 200 } else { 500 };

    let cfg = SimConfig {
        telemetry: Some(TelemetrySpec::every_acts(every_acts)),
        ..SimConfig::attack_bank(5_000, accesses)
    };
    let defenses = [
        DefenseSpec::Graphene { t_rh: 5_000, k: 2 },
        DefenseSpec::Para { p: 0.001 },
        DefenseSpec::Twice { t_rh: 5_000 },
    ];
    let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
    let m = try_run_matrix(&cfg, &defenses, &workloads).unwrap_or_else(|e| panic!("{e}"));

    let mut table = TablePrinter::new(vec![
        "workload",
        "defense",
        "slowdown",
        "refreshes/MACT",
        "victim rows",
        "series",
        "samples",
    ]);
    for report in &m.reports {
        let cell = m
            .cells
            .iter()
            .find(|c| c.workload == report.workload && c.defense == report.defense)
            .expect("recording sweep snapshots every cell");
        let samples: usize = cell.snapshot.series.iter().map(|s| s.samples.len()).sum();
        table.row(vec![
            report.workload.clone(),
            report.defense.clone(),
            pct(report.slowdown),
            format!("{:.0}", report.refreshes_per_macts()),
            report.stats.victim_rows_refreshed.to_string(),
            cell.snapshot.series.len().to_string(),
            samples.to_string(),
        ]);
    }
    table.print();

    let merged = m.merged_snapshot("telemetry-report");
    for w in &workloads {
        let metric = format!("{}/Graphene/graphene.spillover", w.name());
        assert!(
            merged.series_for(&metric, 0).is_some(),
            "merged snapshot is missing {metric}; instrumentation chain broken"
        );
    }

    let dir = output_dir().join("telemetry");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        println!("[could not create {}: {e}]", dir.display());
        return;
    }
    let jsonl_path = dir.join("snapshot.jsonl");
    match merged.write_jsonl(&jsonl_path) {
        Ok(()) => println!("[snapshot written to {}]", jsonl_path.display()),
        Err(e) => println!("[could not write {}: {e}]", jsonl_path.display()),
    }
    let csv_path = dir.join("snapshot.csv");
    match std::fs::write(&csv_path, merged.to_csv()) {
        Ok(()) => println!("[long-form CSV written to {}]", csv_path.display()),
        Err(e) => println!("[could not write {}: {e}]", csv_path.display()),
    }

    for cell in m.cells.iter().filter(|c| c.defense == "Graphene") {
        let csv = graphene_trajectory_csv(&cell.snapshot);
        let path = dir.join(format!("graphene_{}.csv", cell.workload.to_lowercase()));
        match csv.write_to(&path) {
            Ok(()) => println!("[Graphene trajectory written to {}]", path.display()),
            Err(e) => println!("[could not write {}: {e}]", path.display()),
        }
    }
}

/// Long-form trajectory table of one Graphene cell's scheme-specific series.
fn graphene_trajectory_csv(snapshot: &Snapshot) -> Csv {
    let mut csv = Csv::new(vec!["metric", "bank", "t_ps", "value"]);
    for series in snapshot.series.iter().filter(|s| s.metric.starts_with("graphene.")) {
        for sample in &series.samples {
            csv.row(vec![
                series.metric.clone(),
                series.bank.to_string(),
                sample.t_ps.to_string(),
                format!("{}", sample.value),
            ]);
        }
    }
    csv
}
