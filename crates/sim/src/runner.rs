//! Baseline-relative execution and parallel sweeps.
//!
//! `execute` is the one cell runner every sweep in the crate shares: it
//! drives a seeded workload through a controller its caller built and
//! audits the run. [`try_run_matrix`] runs the Figure 8/9 grid on it: each
//! workload's defense-free baseline once, then every (workload, defense)
//! cell against that baseline, both fanned out with [`pool::map`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dram_model::fault::DisturbanceModel;
use memctrl::{
    DefenseFactory, McBuilder, McConfig, MemoryController, RunStats, StatsAudit, TelemetryTap,
};
use mitigations::RowHammerDefense;
use rh_analysis::EnergyModel;
use telemetry::{Cadence, MetricsSink, NoopSink, Recorder, SharedSink, Snapshot};

use crate::pool;
use crate::scenarios::{DefenseSpec, WorkloadSpec};

/// Telemetry wiring for a campaign: how often instrumented defenses and the
/// controller tap sample, how much history each per-bank ring keeps, and
/// whether to use a recording sink at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Sample every this many ACTs (must be ≥ 1).
    pub every_acts: u64,
    /// Ring capacity per (metric, bank) series.
    pub ring_capacity: usize,
    /// Wire the instrumentation but with a [`NoopSink`]: nothing is
    /// recorded and the run must be bit-identical to an uninstrumented one.
    /// This is the configuration `perf_snapshot` measures.
    pub noop: bool,
}

impl TelemetrySpec {
    /// Recording telemetry sampling every `every_acts` ACTs.
    pub fn every_acts(every_acts: u64) -> Self {
        assert!(every_acts > 0, "telemetry cadence of 0 never fires");
        TelemetrySpec { every_acts, ring_capacity: telemetry::DEFAULT_RING_CAPACITY, noop: false }
    }

    /// Instrumentation wired but discarding everything (overhead probes).
    pub fn noop() -> Self {
        TelemetrySpec { noop: true, ..TelemetrySpec::every_acts(1_000) }
    }
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec::every_acts(1_000)
    }
}

/// Configuration of one simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Memory-controller/system configuration used for *normal* workloads.
    pub system: McConfig,
    /// Memory-controller configuration used for *adversarial* workloads
    /// (single bank, as in §V-B's per-bank attack accounting).
    pub attack: McConfig,
    /// Accesses per run.
    pub accesses: u64,
    /// Workload seed (identical traces across defenses).
    pub seed: u64,
    /// Run the invariant audit: wrap every defense in
    /// [`mitigations::AuditedDefense`], check [`StatsAudit`] at run end,
    /// and cross-check the fault oracle's ground truth. On by default in
    /// the test configurations ([`SimConfig::attack_bank`]); the `RH_AUDIT`
    /// environment variable forces it on everywhere (the `--audit` flag of
    /// rh-bench sets it).
    pub audit: bool,
    /// Telemetry wiring; `None` runs completely uninstrumented (the
    /// historical behavior and the default everywhere).
    pub telemetry: Option<TelemetrySpec>,
}

impl SimConfig {
    /// The paper's system at `T_RH = 50K` with the fault oracle armed.
    pub fn micro2020(accesses: u64) -> Self {
        SimConfig {
            system: McConfig::micro2020(),
            attack: McConfig::single_bank(65_536, Some(DisturbanceModel::ddr4_50k())),
            accesses,
            seed: 42,
            audit: false,
            telemetry: None,
        }
    }

    /// Like [`SimConfig::micro2020`] with a custom Row Hammer threshold
    /// (Figure 9 scaling runs).
    pub fn with_threshold(t_rh: u64, accesses: u64) -> Self {
        let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
        let mut cfg = Self::micro2020(accesses);
        cfg.system.fault_model = Some(model.clone());
        cfg.attack.fault_model = Some(model);
        cfg
    }

    /// A fast single-bank configuration for tests: threshold `t_rh`, fault
    /// oracle armed, `accesses` accesses, invariant audit on.
    pub fn attack_bank(t_rh: u64, accesses: u64) -> Self {
        let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
        SimConfig {
            system: McConfig::single_bank(65_536, Some(model.clone())),
            attack: McConfig::single_bank(65_536, Some(model)),
            accesses,
            seed: 42,
            audit: true,
            telemetry: None,
        }
    }

    pub(crate) fn mc_config_for(&self, workload: &WorkloadSpec) -> &McConfig {
        if workload.is_adversarial() {
            &self.attack
        } else {
            &self.system
        }
    }

    /// Whether this campaign runs audited: the config flag, or the
    /// `RH_AUDIT` environment override.
    pub fn audit_enabled(&self) -> bool {
        self.audit || std::env::var_os("RH_AUDIT").is_some()
    }
}

/// Result of one (defense, workload) pair, relative to the defense-free
/// baseline of the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Defense name.
    pub defense: String,
    /// Workload name.
    pub workload: String,
    /// Raw run counters.
    pub stats: RunStats,
    /// Refresh-energy increase versus auto-refresh over the run (fraction).
    pub energy_overhead: f64,
    /// Completion-time slowdown versus the defense-free baseline (fraction).
    pub slowdown: f64,
    /// Mean-access-latency increase versus the baseline (fraction). More
    /// sensitive than completion time on underloaded systems, where defense
    /// refreshes hide in idle gaps but still delay the requests they collide
    /// with.
    pub latency_increase: f64,
    /// The paper's metric: weighted-speedup loss versus the baseline,
    /// computed from per-stream (per-core) mean latencies (fraction; 0 = no
    /// degradation).
    pub weighted_speedup_loss: f64,
}

impl SimReport {
    /// Victim-refresh commands per million activations — the false-positive
    /// rate counter-based schemes are judged by on normal workloads.
    pub fn refreshes_per_macts(&self) -> f64 {
        if self.stats.activations == 0 {
            0.0
        } else {
            self.stats.defense_refresh_commands as f64 * 1e6 / self.stats.activations as f64
        }
    }
}

/// Runs one sweep cell: drives `workload`, built from `seed` over `mc`'s
/// geometry, for `accesses` accesses through `mc`, and with `audit` checks
/// the finished run with [`audit_run`]. Returns the controller, so the
/// caller can read its oracles and defenses, with the run's stats. Callers
/// build `mc` themselves: the builder chain (instrumentation, fault plan,
/// telemetry tap) is what differs between sweeps.
pub(crate) fn execute(
    mut mc: MemoryController,
    workload: &WorkloadSpec,
    accesses: u64,
    seed: u64,
    audit: bool,
) -> (MemoryController, RunStats) {
    let geometry = mc.config().geometry;
    let mut w = workload.build(geometry.total_banks() as u16, geometry.rows_per_bank, seed);
    let stats = mc.run(w.as_mut(), accesses);
    if audit {
        audit_run(&mc, &stats, workload);
    }
    (mc, stats)
}

/// The hottest victim's ACT-equivalent disturbance across `mc`'s banks,
/// ceiled: the worst any per-bank fault oracle recorded.
///
/// # Panics
///
/// Panics if `mc` runs without the fault oracle.
pub(crate) fn worst_disturbance(mc: &MemoryController) -> u64 {
    let banks = mc.config().geometry.total_banks() as usize;
    (0..banks)
        .map(|bank| mc.oracle(bank).expect("sweep cells arm the fault oracle").max_disturbance())
        .fold(0.0_f64, f64::max)
        .ceil() as u64
}

/// The sink an instrumented component reports to: the cell's shared
/// recorder, or a discarding [`NoopSink`] when nothing is recorded.
pub(crate) fn sink_for(shared: &Option<SharedSink>) -> Box<dyn MetricsSink + Send> {
    match shared {
        Some(s) => Box::new(s.clone()),
        None => Box::new(NoopSink),
    }
}

/// A [`DefenseFactory`] that wraps every defense `inner` builds in
/// [`mitigations::instrumented`], one wrapper per bank. All-bank pools are
/// wrapped too, so ABACuS keeps its one shared table per controller under
/// telemetry; with a noop sink the wrapper is the identity, so the built
/// system is the uninstrumented one.
pub(crate) struct InstrumentedFactory<'a> {
    pub(crate) inner: &'a dyn DefenseFactory,
    pub(crate) shared: &'a Option<SharedSink>,
    pub(crate) cadence: Cadence,
}

impl InstrumentedFactory<'_> {
    fn wrap(
        &self,
        bank: usize,
        rows_per_bank: u32,
        defense: Box<dyn RowHammerDefense + Send>,
    ) -> Box<dyn RowHammerDefense + Send> {
        let sink = sink_for(self.shared);
        mitigations::instrumented(defense, sink, bank as u16, rows_per_bank, self.cadence)
    }
}

impl DefenseFactory for InstrumentedFactory<'_> {
    fn build_defense(
        &self,
        bank: usize,
        rows_per_bank: u32,
        audited: bool,
    ) -> Box<dyn RowHammerDefense + Send> {
        self.wrap(bank, rows_per_bank, self.inner.build_defense(bank, rows_per_bank, audited))
    }

    fn build_all_bank(
        &self,
        first_bank: usize,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        let pool = self.inner.build_all_bank(first_bank, banks, rows_per_bank, audited)?;
        let wrapped = pool.into_iter().enumerate();
        Some(wrapped.map(|(i, d)| self.wrap(first_bank + i, rows_per_bank, d)).collect())
    }
}

/// One defended cell of [`try_run_matrix`]: builds the controller, with
/// the telemetry wiring of `cfg.telemetry` when there is one, runs it
/// through [`execute`], and scores it against `baseline`. Under telemetry
/// every defense goes through [`mitigations::instrumented`] and the
/// controller gets a [`TelemetryTap`], all feeding one shared recorder per
/// cell; a noop spec (or no spec) yields no snapshot.
fn run_cell(
    cfg: &SimConfig,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
    baseline: &RunStats,
    audit: bool,
) -> (SimReport, Option<Snapshot>) {
    let mc_cfg = cfg.mc_config_for(workload);
    let builder = McBuilder::new(mc_cfg.clone()).audit(audit);
    let (mc, shared) = match &cfg.telemetry {
        None => (builder.defenses(defense).build(), None),
        Some(spec) => {
            let shared = (!spec.noop).then(|| {
                SharedSink::with_recorder(Recorder::with_ring_capacity(spec.ring_capacity))
            });
            let cadence = Cadence::EveryActs(spec.every_acts);
            let mc = builder
                .defenses(&InstrumentedFactory { inner: defense, shared: &shared, cadence })
                .telemetry(TelemetryTap::new(sink_for(&shared), cadence))
                .build();
            (mc, shared)
        }
    };
    let (mc, stats) = execute(mc, workload, cfg.accesses, cfg.seed, audit);
    if audit {
        audit_cross(&stats, baseline, defense, workload);
    }
    let banks = mc_cfg.geometry.total_banks();
    let snapshot = shared.map(|s| {
        // One final scheme-state sample at completion time — the trajectory
        // would otherwise stop at the last cadence boundary.
        s.with(|rec| {
            for bank in 0..banks as usize {
                mc.defense(bank).emit_telemetry(bank as u16, stats.completion, rec);
            }
        });
        s.snapshot(&format!("{}/{}", workload.name(), defense.name()))
    });
    let energy_overhead = EnergyModel::micro2020().refresh_energy_overhead(
        stats.victim_rows_refreshed,
        stats.completion,
        banks,
    );
    let report = SimReport {
        defense: defense.name(),
        workload: workload.name(),
        energy_overhead,
        slowdown: stats.slowdown_vs(baseline),
        latency_increase: latency_increase(&stats, baseline),
        weighted_speedup_loss: stats.weighted_speedup_loss_vs(baseline),
        stats,
    };
    (report, snapshot)
}

/// End-of-run invariant audit: the cross-counter checks of [`StatsAudit`]
/// plus, when the fault oracle is armed, the ground-truth cross-check —
/// the per-bank flip counts must sum to the reported total, and a
/// zero-flip verdict must be backed by every bank's worst disturbance
/// staying below `T_RH`.
pub(crate) fn audit_run(mc: &MemoryController, stats: &RunStats, workload: &WorkloadSpec) {
    let defense = mc.defense(0).name();
    if let Err(findings) = StatsAudit::check_at(stats, mc.clock()) {
        let list: Vec<String> = findings.iter().map(ToString::to_string).collect();
        panic!("stats audit failed for {defense} on {}: {}", workload.name(), list.join("; "));
    }
    if mc.config().fault_model.is_none() {
        return;
    }
    let banks = mc.config().geometry.total_banks() as usize;
    let mut oracle_flips = 0u64;
    for bank in 0..banks {
        let oracle = mc.oracle(bank).expect("fault model armed");
        oracle_flips += oracle.flip_count();
        if stats.bit_flips == 0 {
            let margin = oracle.max_disturbance();
            let t_rh = oracle.threshold_acts();
            assert!(
                margin < t_rh,
                "ground-truth audit failed for {defense} on {}: zero flips reported but bank \
                 {bank}'s hottest victim accumulated {margin:.1} of {t_rh:.1} ACT-equivalents",
                workload.name()
            );
        }
    }
    assert_eq!(
        oracle_flips,
        stats.bit_flips,
        "ground-truth audit failed for {defense} on {}: oracles saw {oracle_flips} flip(s) but \
         the run reported {}",
        workload.name(),
        stats.bit_flips
    );
}

/// Audit-mode cross-run check: the defended run and its baseline saw the
/// same trace, so they must have activated the same stream set — anything
/// else silently skews the weighted-speedup metric.
fn audit_cross(stats: &RunStats, baseline: &RunStats, defense: &DefenseSpec, w: &WorkloadSpec) {
    if let Err(findings) = StatsAudit::check_cross(stats, baseline) {
        let list: Vec<String> = findings.iter().map(ToString::to_string).collect();
        panic!(
            "cross-run audit failed for {} on {}: {}",
            defense.name(),
            w.name(),
            list.join("; ")
        );
    }
}

/// Runs one (defense, workload) pair plus its defense-free baseline and
/// returns the relative report: the one-cell [`run_matrix`].
///
/// # Panics
///
/// Panics with the [`MatrixError`] rendering when the baseline or the
/// cell panics.
pub fn run_pair(cfg: &SimConfig, defense: &DefenseSpec, workload: &WorkloadSpec) -> SimReport {
    let mut reports =
        run_matrix(cfg, std::slice::from_ref(defense), std::slice::from_ref(workload));
    reports.pop().expect("a one-cell matrix returns one report")
}

fn latency_increase(stats: &memctrl::RunStats, baseline: &memctrl::RunStats) -> f64 {
    if baseline.mean_latency() == 0.0 {
        0.0
    } else {
        stats.mean_latency() / baseline.mean_latency() - 1.0
    }
}

/// One failed grid cell of [`try_run_matrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The workload of the failing cell.
    pub workload: String,
    /// The defense of the failing cell.
    pub defense: String,
    /// The panic message of the failing run.
    pub message: String,
}

/// One or more grid cells of a matrix sweep failed; every *other* cell
/// still ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixError {
    /// Every failing (workload, defense) pair with its panic message.
    pub failures: Vec<CellFailure>,
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} matrix cell(s) failed:", self.failures.len())?;
        for c in &self.failures {
            writeln!(f, "  ({}, {}): {}", c.workload, c.defense, c.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for MatrixError {}

/// Renders a caught panic payload for [`CellFailure::message`].
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The telemetry snapshot of one matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTelemetry {
    /// Workload name.
    pub workload: String,
    /// Defense name.
    pub defense: String,
    /// The cell's recorded snapshot.
    pub snapshot: Snapshot,
}

/// Reports plus telemetry from a matrix sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixTelemetry {
    /// Per-cell reports, (workload-major, defense-minor).
    pub reports: Vec<SimReport>,
    /// Per-cell snapshots (empty when the campaign ran without a recording
    /// sink, i.e. `telemetry: None` or a noop spec).
    pub cells: Vec<CellTelemetry>,
    /// Live sweep progress: series `sweep.jobs_done` over wall-clock time
    /// (ps since sweep start), one sample per finished baseline or cell
    /// (empty without a recording sink).
    pub sweep: Snapshot,
}

impl MatrixTelemetry {
    /// Everything in one [`Snapshot`]: each cell's metrics prefixed with
    /// `"{workload}/{defense}/"`, the sweep-progress series unprefixed.
    /// This is what `telemetry-report` writes to disk.
    pub fn merged_snapshot(&self, source: &str) -> Snapshot {
        let mut out = Snapshot::empty(source);
        for cell in &self.cells {
            out.merge_prefixed(&format!("{}/{}/", cell.workload, cell.defense), &cell.snapshot);
        }
        out.merge_prefixed("", &self.sweep);
        out
    }
}

/// Runs the full (defenses × workloads) matrix in parallel: reports in
/// (workload-major, defense-minor) order, plus the telemetry of
/// `cfg.telemetry` — per-cell snapshots under a recording spec, and the
/// sweep's progress series.
///
/// The sweep is two [`pool::map`]s. The first runs each workload's
/// defense-free baseline once; the second runs every (workload, defense)
/// cell against its workload's baseline, so even a one-workload matrix
/// (Figure 9) spreads its defenses across the host's cores. Baselines run
/// uninstrumented: they define the reference timing and should not appear
/// in defense-labelled series.
///
/// A panicking cell does not abort the sweep: each baseline and cell runs
/// under `catch_unwind`, the rest of the grid completes, and the error
/// names every failing (workload, defense) pair. A panicking *baseline*
/// fails all of that workload's cells without running them, since they
/// have nothing to compare against.
///
/// # Errors
///
/// Returns [`MatrixError`] listing each failed cell.
pub fn try_run_matrix(
    cfg: &SimConfig,
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
) -> Result<MatrixTelemetry, MatrixError> {
    let audit = cfg.audit_enabled();

    // Live sweep progress: one sample per finished baseline or cell,
    // timestamped in wall-clock picoseconds since sweep start.
    let sweep_sink = cfg.telemetry.filter(|s| !s.noop).map(|_| SharedSink::new());
    let sweep_start = Instant::now();
    let jobs_done = AtomicUsize::new(0);
    let job_done = || {
        if let Some(sink) = &sweep_sink {
            sink.with(|rec| {
                // Counted under the recorder's lock, so the series rises in
                // step with the count.
                let done = jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
                let t_ps = sweep_start.elapsed().as_nanos() as u64 * 1_000;
                rec.sample("sweep.jobs_done", 0, t_ps, done as f64);
            });
        }
    };

    let baselines = pool::map(workloads, |workload| {
        let baseline = catch_unwind(AssertUnwindSafe(|| {
            let mc_cfg = cfg.mc_config_for(workload).clone();
            let mc = McBuilder::new(mc_cfg).defenses(&DefenseSpec::None).audit(audit).build();
            execute(mc, workload, cfg.accesses, cfg.seed, audit).1
        }))
        .map_err(|payload| format!("baseline panicked: {}", payload_message(&*payload)));
        job_done();
        baseline
    });
    let grid: Vec<(usize, &DefenseSpec)> =
        (0..workloads.len()).flat_map(|wi| defenses.iter().map(move |d| (wi, d))).collect();
    let results = pool::map(&grid, |&(wi, defense)| {
        let baseline = baselines[wi].as_ref().map_err(Clone::clone)?;
        let cell = catch_unwind(AssertUnwindSafe(|| {
            run_cell(cfg, defense, &workloads[wi], baseline, audit)
        }))
        .map_err(|payload| payload_message(&*payload));
        job_done();
        cell
    });

    let mut reports = Vec::with_capacity(results.len());
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for (&(wi, defense), result) in grid.iter().zip(results) {
        match result {
            Ok((report, snapshot)) => {
                if let Some(snapshot) = snapshot {
                    cells.push(CellTelemetry {
                        workload: report.workload.clone(),
                        defense: report.defense.clone(),
                        snapshot,
                    });
                }
                reports.push(report);
            }
            Err(message) => failures.push(CellFailure {
                workload: workloads[wi].name(),
                defense: defense.name(),
                message,
            }),
        }
    }
    if !failures.is_empty() {
        return Err(MatrixError { failures });
    }
    let sweep = sweep_sink.map(|s| s.snapshot("sweep")).unwrap_or_else(|| Snapshot::empty("sweep"));
    Ok(MatrixTelemetry { reports, cells, sweep })
}

/// The reports of [`try_run_matrix`], panicking with the full failure list
/// if any cell failed.
///
/// # Panics
///
/// Panics with the [`MatrixError`] rendering when one or more cells panic.
pub fn run_matrix(
    cfg: &SimConfig,
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
) -> Vec<SimReport> {
    try_run_matrix(cfg, defenses, workloads).map_or_else(|e| panic!("{e}"), |m| m.reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphene_on_s3_is_clean_and_cheap() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let r = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, &WorkloadSpec::S3);
        assert_eq!(r.stats.bit_flips, 0);
        assert!(r.stats.defense_refresh_commands > 0);
        assert!(r.energy_overhead < 0.05, "energy {}", r.energy_overhead);
    }

    #[test]
    fn no_defense_on_s3_flips() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let r = run_pair(&cfg, &DefenseSpec::None, &WorkloadSpec::S3);
        assert!(r.stats.bit_flips > 0);
        assert_eq!(r.slowdown, 0.0);
    }

    #[test]
    fn cbt_slower_than_graphene_on_attack() {
        let cfg = SimConfig::attack_bank(5_000, 30_000);
        let g = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, &WorkloadSpec::S3);
        let c = run_pair(&cfg, &DefenseSpec::Cbt { t_rh: 5_000 }, &WorkloadSpec::S3);
        assert_eq!(c.stats.bit_flips, 0, "CBT must protect");
        assert!(
            c.stats.victim_rows_refreshed > g.stats.victim_rows_refreshed,
            "CBT bursts ({}) should dwarf Graphene ({})",
            c.stats.victim_rows_refreshed,
            g.stats.victim_rows_refreshed
        );
    }

    #[test]
    fn matrix_runs_all_pairs_in_order() {
        let cfg = SimConfig::attack_bank(5_000, 5_000);
        let defenses =
            [DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, DefenseSpec::Para { p: 0.001 }];
        let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
        let reports = run_matrix(&cfg, &defenses, &workloads);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].workload, "S3");
        assert_eq!(reports[0].defense, "Graphene");
        assert_eq!(reports[3].workload, "S1-10");
        assert_eq!(reports[3].defense, "PARA-0.001");
    }

    #[test]
    fn poisoned_cell_is_isolated_and_named() {
        // Regression: one panicking cell used to poison its slot and abort
        // the whole sweep with "result slot poisoned", discarding every
        // other cell's result. Graphene{t_rh: 1} panics in the defense
        // factory (threshold too low to derive T).
        let cfg = SimConfig::attack_bank(5_000, 2_000);
        let defenses = [
            DefenseSpec::Para { p: 0.001 },
            DefenseSpec::Graphene { t_rh: 1, k: 2 },
            DefenseSpec::Twice { t_rh: 5_000 },
        ];
        let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
        let err = try_run_matrix(&cfg, &defenses, &workloads).unwrap_err();
        assert_eq!(err.failures.len(), 2, "one bad defense × two workloads");
        for f in &err.failures {
            assert_eq!(f.defense, "Graphene");
            assert!(!f.message.is_empty());
        }
        let shown = err.to_string();
        assert!(shown.contains("(S3, Graphene)"), "{shown}");
        assert!(shown.contains("(S1-10, Graphene)"), "{shown}");
    }

    #[test]
    fn healthy_matrix_returns_ok() {
        let cfg = SimConfig::attack_bank(5_000, 2_000);
        let m =
            try_run_matrix(&cfg, &[DefenseSpec::Para { p: 0.001 }], &[WorkloadSpec::S3]).unwrap();
        assert_eq!(m.reports.len(), 1);
    }

    #[test]
    #[should_panic(expected = "matrix cell(s) failed")]
    fn run_matrix_panics_with_failing_pairs() {
        let cfg = SimConfig::attack_bank(5_000, 1_000);
        let _ = run_matrix(&cfg, &[DefenseSpec::Graphene { t_rh: 1, k: 2 }], &[WorkloadSpec::S3]);
    }

    #[test]
    fn identical_traces_across_defenses() {
        // The baseline and the defended run must see the same trace: their
        // access counts and (for deterministic defenses) activation counts
        // coincide.
        let cfg = SimConfig::attack_bank(5_000, 10_000);
        let a = run_pair(&cfg, &DefenseSpec::None, &WorkloadSpec::S1 { n: 10 });
        let b = run_pair(&cfg, &DefenseSpec::Twice { t_rh: 5_000 }, &WorkloadSpec::S1 { n: 10 });
        assert_eq!(a.stats.accesses, b.stats.accesses);
        assert_eq!(a.stats.activations, b.stats.activations);
    }
}
