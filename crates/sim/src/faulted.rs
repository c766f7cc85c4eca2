//! The resilience matrix: fault-injected sweeps with graceful degradation.
//!
//! [`run_matrix_faulted`] crosses seeded [`FaultSpec`] plans with defenses
//! and workloads and runs every cell under injection at all three layers:
//!
//! * **tracker faults** flow through the controller into the defense
//!   ([`RowHammerDefense::inject_fault`](mitigations::RowHammerDefense));
//! * **controller faults** drop/defer NRRs, postpone refresh, and duplicate
//!   commands inside [`memctrl::FaultInjector`];
//! * **harness faults** hit the sweep itself: telemetry sink outages are
//!   ridden out by a [`RetrySink`] over a scripted [`FlakySink`], and a
//!   cell's injected worker stalls hold its thread for at most a 50 ms
//!   stall budget, so the sweep drains instead of serializing behind a
//!   stalled worker.
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
//! plan seeds: injection schedules, retry accounting (the write-attempt
//! clock is deterministic), and telemetry snapshots (timestamps come from
//! the simulated clock). The sweep is one [`pool::map`] over (plan,
//! workload, defense) cells, each run through `runner::execute`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use faultsim::{FaultKind, FaultPlan, FaultSpec, HarnessFault};
use memctrl::{FaultStats, McBuilder, RunStats, TelemetryTap};
use telemetry::{
    Cadence, FailureSpan, FlakySink, MetricsSink, RetryPolicy, RetrySink, RetryStats, SharedSink,
    Snapshot,
};

use crate::pool;
use crate::runner::{execute, payload_message, SimConfig};
use crate::scenarios::{DefenseSpec, WorkloadSpec};

/// The longest a cell sleeps for its injected worker stalls. Stalls reach
/// 120 ms each, so the budget cuts every long plan short while a plan's
/// stalls still cost real time on the worker that drew them.
const STALL_BUDGET: Duration = Duration::from_millis(50);

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
    /// What the telemetry retry layer endured under injected sink outages.
    pub sink: RetryStats,
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
    /// Oracle false negatives (0 when the audit killed the run first).
    pub fn false_negatives(&self) -> u64 {
        match &self.outcome {
            CellOutcome::Completed(run) => run.false_negatives,
            CellOutcome::AuditViolation { .. } => 0,
        }
    }

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

    /// Total false negatives across the matrix.
    pub fn total_false_negatives(&self) -> u64 {
        self.cells.iter().map(ResilienceCell::false_negatives).sum()
    }
}

/// A cloneable [`MetricsSink`] handle over one shared retry stack. The
/// controller tap writes through a clone; the cell keeps another to read
/// the [`RetryStats`] after the run.
#[derive(Clone)]
struct SharedRetrySink(Arc<Mutex<RetrySink<FlakySink<SharedSink>>>>);

impl SharedRetrySink {
    fn with<R>(&self, f: impl FnOnce(&mut RetrySink<FlakySink<SharedSink>>) -> R) -> R {
        f(&mut self.0.lock().expect("retry sink poisoned"))
    }
}

impl MetricsSink for SharedRetrySink {
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.with(|s| s.counter(name, delta));
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.with(|s| s.gauge(name, value));
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.with(|s| s.observe(name, value));
    }

    fn sample(&mut self, series: &'static str, bank: u16, t_ps: u64, value: f64) {
        self.with(|s| s.sample(series, bank, t_ps, value));
    }
}

/// Maps the plan's `SinkFailure` events onto the telemetry write-attempt
/// clock: the access index a harness event carries has no 1:1 counterpart
/// among write attempts (a tap flush is one access but several writes), so
/// the k-th outage deterministically starts at attempt `8k` — early enough
/// that even short runs exercise it.
fn sink_failure_spans(plan: &FaultPlan) -> Vec<FailureSpan> {
    plan.harness_events()
        .filter_map(|e| match e.kind {
            FaultKind::Harness(HarnessFault::SinkFailure { writes }) => Some(writes),
            _ => None,
        })
        .enumerate()
        .map(|(k, writes)| FailureSpan { at_attempt: 8 * k as u64, writes })
        .collect()
}

/// How long a cell sleeps for `plan`'s injected worker stalls: their
/// scripted total, capped at [`STALL_BUDGET`].
fn stall_budget(plan: &FaultPlan) -> Duration {
    let scripted: u64 = plan
        .harness_events()
        .filter_map(|e| match e.kind {
            FaultKind::Harness(HarnessFault::WorkerStall { millis }) => Some(millis),
            _ => None,
        })
        .sum();
    Duration::from_millis(scripted).min(STALL_BUDGET)
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
    let retry = SharedRetrySink(Arc::new(Mutex::new(RetrySink::new(
        FlakySink::new(shared.clone(), sink_failure_spans(plan)),
        RetryPolicy::default_bounded(),
    ))));
    let mc = McBuilder::new(mc_cfg.clone())
        .defenses(defense)
        .audit(audit)
        .telemetry(TelemetryTap::new(Box::new(retry.clone()), Cadence::EveryActs(every_acts)))
        .faults(plan.clone())
        .build();
    let (mc, stats) = execute(mc, workload, cfg.accesses, cfg.seed, audit);
    let faults = mc.fault_stats().copied().unwrap_or_default();
    let sink = retry.with(|s| *s.stats());
    // End-of-run bookkeeping goes straight into the recorder: these writes
    // are part of the harness, not of the (possibly still failing) sink
    // under test.
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
        rec.counter("fault.sink_retries", sink.retries);
        rec.counter("fault.sink_dropped_writes", sink.dropped_writes);
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
        sink,
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
/// sweep continues. Harness faults are realized here: sink outages through
/// the retry stack, worker stalls as a sleep before the cell runs: the
/// plan's scripted stall total, capped at 50 ms.
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
        std::thread::sleep(stall_budget(plan));
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
    fn sink_outages_are_ridden_out_without_dropping_writes() {
        let mut spec = FaultSpec::new(11);
        spec.accesses = 10_000;
        spec.sink_failures = 3;
        let cfg = SimConfig::attack_bank(5_000, 10_000);
        let report = run_matrix_faulted(
            &cfg,
            &[spec],
            &[DefenseSpec::Graphene { t_rh: 5_000, k: 2 }],
            &[WorkloadSpec::S3],
        );
        let run = report.cells[0].completed().expect("sink faults must not kill the run");
        assert!(run.sink.retries > 0, "the scripted outage must actually bite");
        assert_eq!(run.sink.dropped_writes, 0, "bounded outages lose nothing under retry");
    }

    #[test]
    fn worker_stalls_complete_under_the_watchdog() {
        let mut spec = FaultSpec::new(23);
        spec.accesses = 2_000;
        spec.worker_stalls = 2;
        let cfg = SimConfig::attack_bank(5_000, 2_000);
        let report = run_matrix_faulted(
            &cfg,
            &[spec],
            &[DefenseSpec::Graphene { t_rh: 5_000, k: 2 }],
            &[WorkloadSpec::S3],
        );
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].completed().is_some());
    }

    #[test]
    fn stall_budget_is_the_scripted_total_capped_at_fifty_millis() {
        // (seed, stalls, the plan's scripted stalls in ms, expected budget)
        let cases: [(u64, u32, &[u64], u64); 4] =
            [(1, 0, &[], 0), (1, 1, &[35], 35), (21, 2, &[23, 29], 50), (4, 1, &[104], 50)];
        for (seed, stalls, scripted, budget) in cases {
            let spec = FaultSpec { accesses: 2_000, worker_stalls: stalls, ..FaultSpec::new(seed) };
            let plan = FaultPlan::generate(&spec);
            let drawn: Vec<u64> = plan
                .harness_events()
                .filter_map(|e| match e.kind {
                    FaultKind::Harness(HarnessFault::WorkerStall { millis }) => Some(millis),
                    _ => None,
                })
                .collect();
            assert_eq!(drawn, scripted, "seed {seed}");
            assert_eq!(stall_budget(&plan), Duration::from_millis(budget), "seed {seed}");
        }
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
        // Cells (runs, fault accounting, retry stats, snapshots) must be
        // identical.
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
