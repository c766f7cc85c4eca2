//! The resilience matrix: fault-injected sweeps with graceful degradation.
//!
//! [`run_matrix_faulted`] crosses seeded [`FaultSpec`] plans with defenses
//! and workloads and runs every cell under injection at both layers:
//!
//! * **tracker faults** flow through the controller into the defense
//!   ([`RowHammerDefense::inject_fault`](mitigations::RowHammerDefense));
//! * **controller faults** drop/defer NRRs, postpone refresh, and duplicate
//!   commands inside [`memctrl::FaultInjector`].
//!
//! Unlike [`crate::try_run_matrix`], cells are *standalone*: no
//! defense-free baseline and no cross-run audit, because duplicated
//! commands change the served-access count and make faulted stats
//! incomparable with a fault-free twin. What the matrix measures instead:
//!
//! * **false negatives** — ground-truth oracle bit flips; dropped NRRs and
//!   corrupted counters never touch the oracle, so every lost protection
//!   shows up here;
//! * **detection** — with the audit armed ([`SimConfig::audit_enabled`]),
//!   a defense whose certificate breaks mid-run is killed by the
//!   [`mitigations::AuditedDefense`] asserts, and a run whose counters or
//!   oracles disagree fails the end-of-run invariant audit; either way the
//!   cell is recorded as [`CellOutcome::AuditViolation`] — a *detected*
//!   failure, never a silent one;
//! * **degradation** — `HardenedGraphene`'s parity detections and repair
//!   NRRs, read back from its `fault.*` telemetry series.
//!
//! Everything in [`ResilienceReport::cells`] is bit-reproducible from the
//! plan seeds: injection schedules and telemetry snapshots (timestamps
//! come from the simulated clock). The sweep is one [`pool::map`] over
//! (plan, workload, defense) cells, each run through `runner::execute`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use faultsim::{FaultPlan, FaultSpec};
use memctrl::{FaultStats, McBuilder, RunStats, TelemetryTap};
use telemetry::{Cadence, MetricsSink, SharedSink, Snapshot};

use crate::pool;
use crate::runner::{execute, payload_message, SimConfig};
use crate::scenarios::{DefenseSpec, WorkloadSpec};

/// Short human label for a plan, used in [`ResilienceCell::plan`].
pub fn plan_label(spec: &FaultSpec) -> String {
    format!("seed{}-{}ev", spec.seed, spec.event_count())
}

/// Data from one *completed* fault-injected run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// Raw run counters (note: duplicated commands inflate `accesses`).
    pub stats: RunStats,
    /// What the controller-side injector did.
    pub faults: FaultStats,
    /// Ground-truth oracle bit flips — the false-negative count.
    pub false_negatives: u64,
    /// Parity mismatches `HardenedGraphene` detected (0 for other schemes).
    pub parity_detections: u64,
    /// Repair NRRs emitted while degrading (0 for other schemes).
    pub repair_nrrs: u64,
    /// The cell's telemetry, including the `fault.*` series.
    pub snapshot: Snapshot,
}

/// How one matrix cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The run finished; its counters are in the (boxed — the snapshot
    /// payload is large) run record.
    Completed(Box<FaultedRun>),
    /// The online audit layer (or any other in-run invariant) killed the
    /// run — the injected corruption was *detected*, not silently absorbed.
    /// The message is the audit panic text naming the broken certificate.
    AuditViolation {
        /// The panic message of the killed run.
        message: String,
    },
}

/// One (plan, workload, defense) cell of the resilience matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCell {
    /// Plan label (see [`plan_label`]).
    pub plan: String,
    /// Workload name.
    pub workload: String,
    /// Defense name.
    pub defense: String,
    /// What happened.
    pub outcome: CellOutcome,
}

impl ResilienceCell {
    /// True when the injected faults caused a *visible* protection failure:
    /// either the audit certificate broke mid-run or the ground-truth
    /// oracle recorded flips. The one thing the matrix exists to rule out
    /// is a failure that is neither.
    pub fn detected_failure(&self) -> bool {
        match &self.outcome {
            CellOutcome::Completed(run) => run.false_negatives > 0,
            CellOutcome::AuditViolation { .. } => true,
        }
    }

    /// The completed payload, if the run survived to the end.
    pub fn completed(&self) -> Option<&FaultedRun> {
        match &self.outcome {
            CellOutcome::Completed(run) => Some(run),
            CellOutcome::AuditViolation { .. } => None,
        }
    }
}

/// Result of a [`run_matrix_faulted`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Cells in (plan-major, workload, defense-minor) order —
    /// bit-reproducible from the plan seeds.
    pub cells: Vec<ResilienceCell>,
}

impl ResilienceReport {
    /// Every cell's telemetry in one [`Snapshot`], each prefixed with
    /// `"{plan}/{workload}/{defense}/"`. This is what `resilience-report`
    /// writes to disk.
    pub fn merged_snapshot(&self, source: &str) -> Snapshot {
        let mut out = Snapshot::empty(source);
        for cell in &self.cells {
            if let CellOutcome::Completed(run) = &cell.outcome {
                out.merge_prefixed(
                    &format!("{}/{}/{}/", cell.plan, cell.workload, cell.defense),
                    &run.snapshot,
                );
            }
        }
        out
    }
}

/// Sums the last sampled value of `series` across all banks — the cumulative
/// counters `HardenedGraphene` emits at completion time.
fn last_sample_sum(snapshot: &Snapshot, series: &str, banks: u32) -> u64 {
    (0..banks)
        .filter_map(|bank| snapshot.series_for(series, bank as u16))
        .filter_map(|s| s.samples.last())
        .map(|s| s.value as u64)
        .sum()
}

/// One fault-injected cell: build, run, and fold the controller's fault
/// accounting plus the defense's degradation telemetry into a
/// [`FaultedRun`]. Panics (audit kills) propagate to the caller.
fn execute_faulted(
    cfg: &SimConfig,
    plan: &FaultPlan,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
) -> FaultedRun {
    let mc_cfg = cfg.mc_config_for(workload);
    let audit = cfg.audit_enabled();
    let every_acts = cfg.telemetry.map_or(1_000, |t| t.every_acts);
    let banks = mc_cfg.geometry.total_banks();
    let shared = SharedSink::new();
    let mc = McBuilder::new(mc_cfg.clone())
        .defenses(defense)
        .audit(audit)
        .telemetry(TelemetryTap::new(Box::new(shared.clone()), Cadence::EveryActs(every_acts)))
        .faults(plan.clone())
        .build();
    let (mc, stats) = execute(mc, workload, cfg.accesses, cfg.seed, audit);
    let faults = mc.fault_stats().copied().unwrap_or_default();
    shared.with(|rec| {
        for bank in 0..banks as usize {
            mc.defense(bank).emit_telemetry(bank as u16, stats.completion, rec);
        }
        rec.counter("fault.tracker_applied", faults.tracker_faults_applied);
        rec.counter("fault.tracker_vacuous", faults.tracker_faults_vacuous);
        rec.counter("fault.nrrs_dropped", faults.nrrs_dropped);
        rec.counter("fault.nrrs_deferred", faults.nrrs_deferred);
        rec.counter("fault.nrrs_released", faults.nrrs_released);
        rec.counter("fault.refreshes_postponed", faults.refreshes_postponed);
        rec.counter("fault.commands_duplicated", faults.commands_duplicated);
        rec.counter("fault.false_negatives", stats.bit_flips);
    });
    let snapshot = shared.snapshot(&format!(
        "{}/{}/{}",
        plan_label(plan.spec()),
        workload.name(),
        defense.name()
    ));
    let parity_detections = last_sample_sum(&snapshot, "fault.parity_detections", banks);
    let repair_nrrs = last_sample_sum(&snapshot, "fault.repair_nrrs", banks);
    FaultedRun {
        false_negatives: stats.bit_flips,
        stats,
        faults,
        parity_detections,
        repair_nrrs,
        snapshot,
    }
}

/// Runs the full (plans × workloads × defenses) resilience matrix, one
/// [`pool::map`] item per cell, and returns every cell in (plan-major,
/// workload, defense-minor) order.
///
/// Each cell runs standalone under its generated [`FaultPlan`] (see the
/// module docs for why there is no baseline). A cell killed mid-run by the
/// audit layer becomes [`CellOutcome::AuditViolation`]; the rest of the
/// sweep continues.
pub fn run_matrix_faulted(
    cfg: &SimConfig,
    plans: &[FaultSpec],
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
) -> ResilienceReport {
    let generated: Vec<FaultPlan> = plans.iter().map(FaultPlan::generate).collect();
    let grid: Vec<(&FaultPlan, &WorkloadSpec, &DefenseSpec)> = generated
        .iter()
        .flat_map(|plan| {
            workloads.iter().flat_map(move |w| defenses.iter().map(move |d| (plan, w, d)))
        })
        .collect();
    let cells = pool::map(&grid, |&(plan, workload, defense)| {
        let run = catch_unwind(AssertUnwindSafe(|| execute_faulted(cfg, plan, defense, workload)));
        let outcome = match run {
            Ok(run) => CellOutcome::Completed(Box::new(run)),
            Err(payload) => CellOutcome::AuditViolation { message: payload_message(&*payload) },
        };
        ResilienceCell {
            plan: plan_label(plan.spec()),
            workload: workload.name(),
            defense: defense.name(),
            outcome,
        }
    });
    ResilienceReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_bit_spec(seed: u64, flips: u32, accesses: u64) -> FaultSpec {
        FaultSpec { accesses, ..FaultSpec::single_bit_flips(seed, flips) }
    }

    #[test]
    fn hardened_graphene_survives_single_bit_plans_with_zero_false_negatives() {
        // Both a single-hot-row and a multi-row workload: the latter keeps
        // the table populated, so address-field flips land on live entries
        // and the Hamming-ball repair path (not just count repair) is
        // exercised under the audit.
        let cfg = SimConfig::attack_bank(5_000, 20_000);
        let report = run_matrix_faulted(
            &cfg,
            &[single_bit_spec(7, 16, 20_000)],
            &[DefenseSpec::HardenedGraphene { t_rh: 5_000, k: 2 }],
            &[WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }],
        );
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let run = cell.completed().unwrap_or_else(|| {
                panic!(
                    "hardened run must survive the audit on {}: {:?}",
                    cell.workload, cell.outcome
                )
            });
            assert_eq!(
                run.false_negatives, 0,
                "parity + conservative reset must hold the line on {}",
                cell.workload
            );
            assert!(
                run.faults.tracker_faults_applied > 0,
                "the plan must actually corrupt tracker state"
            );
            assert!(run.parity_detections > 0, "degradation events must be visible in telemetry");
            assert!(run.repair_nrrs > 0);
        }
    }

    #[test]
    fn plain_graphene_failures_are_detected_never_silent() {
        // Same single-bit fault pressure, unhardened scheme: the corruption
        // must surface either as a mid-run audit kill or as ground-truth
        // oracle flips — the matrix exists to rule out the third option.
        let cfg = SimConfig::attack_bank(5_000, 20_000);
        let report = run_matrix_faulted(
            &cfg,
            &[single_bit_spec(7, 32, 20_000)],
            &[DefenseSpec::Graphene { t_rh: 5_000, k: 2 }],
            &[WorkloadSpec::S3],
        );
        let cell = &report.cells[0];
        assert!(
            cell.detected_failure(),
            "unhardened Graphene under bit flips must fail detectably, got {:?}",
            cell.outcome
        );
    }

    #[test]
    fn matrix_is_bit_reproducible_from_the_seed() {
        let run = || {
            let cfg = SimConfig::attack_bank(5_000, 8_000);
            let mut spec = FaultSpec::chaos(77);
            spec.accesses = 8_000;
            run_matrix_faulted(
                &cfg,
                &[spec],
                &[
                    DefenseSpec::Graphene { t_rh: 5_000, k: 2 },
                    DefenseSpec::HardenedGraphene { t_rh: 5_000, k: 2 },
                ],
                &[WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }],
            )
        };
        let a = run();
        let b = run();
        // Cells (runs, fault accounting, snapshots) must be identical.
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.cells.len(), 4);
    }

    #[test]
    fn merged_snapshot_prefixes_every_completed_cell() {
        let cfg = SimConfig::attack_bank(5_000, 5_000);
        let report = run_matrix_faulted(
            &cfg,
            &[single_bit_spec(3, 4, 5_000)],
            &[DefenseSpec::HardenedGraphene { t_rh: 5_000, k: 2 }],
            &[WorkloadSpec::S3],
        );
        let merged = report.merged_snapshot("test");
        let prefix = format!("{}/S3/HardenedGraphene/", report.cells[0].plan);
        assert!(
            merged.counters.iter().any(|(name, _)| name.starts_with(&prefix)),
            "merged snapshot must carry the cell prefix"
        );
    }
}
