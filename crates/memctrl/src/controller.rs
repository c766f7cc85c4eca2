//! The memory controller: dispatch, refresh machinery, defense hook.

use dram_model::error::DramError;
use dram_model::fault::FaultOracle;
use dram_model::geometry::{DramGeometry, RowId};
use dram_model::refresh::RefreshEngine;
use dram_model::timing::Picoseconds;
use faultsim::{ControllerFault, FaultKind, FaultPlan};
use mitigations::{RefreshAction, RowHammerDefense};
use workloads::{Access, Workload};

use telemetry::json::{obj, push_key, JsonValue};

use crate::bank::{BankState, ServiceOutcome};
use crate::ckpt::{opt_u64, run_stats_from_json, run_stats_to_json, CkptError};
use crate::cmdlog::{CommandLog, CommandRecord, LoggedCommand};
use crate::config::McConfig;
use crate::faults::{FaultInjector, FaultStats};
use crate::mapping::SystemAddress;
use crate::scheduler::{BankQueue, SchedulerConfig};
use crate::stats::RunStats;
use crate::tap::TelemetryTap;

/// A run aborted because an access could not be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McError {
    /// A workload emitted a bank index outside the receiving controller's
    /// geometry — almost always a channel/rank/bank address-mapping mismatch
    /// between the trace generator and the controller configuration.
    BankOutOfRange {
        /// The offending bank index from the access, local to the rejecting
        /// controller.
        bank: u16,
        /// How many banks the rejecting controller actually has.
        banks: usize,
        /// Channel the rejecting controller serves (0 for a legacy
        /// whole-system controller).
        channel: u8,
        /// Best-effort rank decode of the offending index
        /// (`bank / banks_per_rank`, saturated), naming where the access
        /// *would* have landed had the channel owned enough ranks.
        rank: u8,
        /// Zero-based index of the access within the run's batch.
        access_index: u64,
    },
    /// The system front end could not route an access: its fully-decoded
    /// [`SystemAddress`] does not exist in the configured geometry.
    AddressOutOfRange {
        /// Best-effort dense decode of the coordinate the access asked for.
        addr: SystemAddress,
        /// The geometry that lacks it.
        geometry: DramGeometry,
        /// Zero-based index of the access within the run's batch.
        access_index: u64,
    },
    /// A user-supplied [`SchedulerConfig`] cannot form batches (zero batch
    /// size, or a queue too shallow to hold one batch).
    InvalidScheduler {
        /// The rejected batch size.
        batch_size: usize,
        /// The rejected queue depth.
        queue_depth: usize,
    },
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McError::BankOutOfRange { bank, banks, channel, rank, access_index } => write!(
                f,
                "access #{access_index} targets bank {bank} (≈ rk{rank}) on channel {channel}, \
                 which has {banks} bank(s); check the workload's bank count / address mapping"
            ),
            McError::AddressOutOfRange { addr, geometry, access_index } => write!(
                f,
                "access #{access_index} decodes to {addr}, outside the {}×{}×{} geometry with \
                 {} rows per bank; check the workload's bank count / address mapping",
                geometry.channels,
                geometry.ranks_per_channel,
                geometry.banks_per_rank,
                geometry.rows_per_bank
            ),
            McError::InvalidScheduler { batch_size, queue_depth } => write!(
                f,
                "scheduler config rejected: batch_size {batch_size} must be at least 1 and at \
                 most queue_depth {queue_depth}"
            ),
        }
    }
}

impl std::error::Error for McError {}

/// A controller could not be constructed because the configuration failed
/// validation — the fallible counterpart of the panics documented on
/// [`McBuilder::build`](crate::McBuilder::build).
///
/// Kept separate from [`McError`] (which is `Copy` and describes run-time
/// routing failures) so the underlying [`DramError`]'s full reason string
/// survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McBuildError {
    /// The geometry or timing half of the [`McConfig`] was rejected.
    InvalidConfig(DramError),
}

impl std::fmt::Display for McBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McBuildError::InvalidConfig(e) => write!(f, "invalid controller config: {e}"),
        }
    }
}

impl std::error::Error for McBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McBuildError::InvalidConfig(e) => Some(e),
        }
    }
}

/// One access carrying an **absolute** arrival timestamp — the unit of
/// batched shard ingestion ([`MemoryController::try_run_batch`]).
///
/// The system front end assigns the timestamp while routing (summing the
/// workload's inter-arrival gaps), so a shard replaying a channel's stamped
/// sub-trace reconstructs exactly the arrival clock the legacy
/// gap-accumulating path would have computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedAccess {
    /// Bank index local to the receiving controller's geometry.
    pub bank: u16,
    /// Row within the bank.
    pub row: RowId,
    /// Absolute arrival time (ps).
    pub at: Picoseconds,
    /// Workload stream the access belongs to.
    pub stream: u16,
}

/// Bank-level memory-controller simulator with a per-bank Row Hammer
/// defense and (optionally) the ground-truth fault oracle.
///
/// # Example
///
/// ```
/// use memctrl::{McBuilder, McConfig};
/// use mitigations::Para;
/// use workloads::Synthetic;
///
/// let mut mc = McBuilder::new(McConfig::micro2020_no_oracle())
///     .defenses_with(|bank| Box::new(Para::new(0.001, bank as u64)))
///     .build();
/// let stats = mc.run(&mut Synthetic::s1(10, 65_536, 3), 50_000);
/// assert!(stats.defense_refresh_commands > 0);
/// ```
pub struct MemoryController {
    config: McConfig,
    /// Which channel this controller serves — 0 for a legacy whole-system
    /// controller, the shard's channel index under
    /// [`McBuilder::build_system`](crate::McBuilder::build_system).
    channel: u8,
    banks: Vec<BankState>,
    defenses: Vec<Box<dyn RowHammerDefense + Send>>,
    oracles: Option<Vec<FaultOracle>>,
    refresh_engines: Vec<RefreshEngine>,
    next_refresh_at: Picoseconds,
    clock: Picoseconds,
    /// Latest service completion seen: the wall-clock high-water mark.
    /// Saturating attacks advance this even when arrival gaps are zero, so
    /// periodic refresh keeps firing in the service-time domain.
    wall: Picoseconds,
    command_log: Option<CommandLog>,
    telemetry: Option<TelemetryTap>,
    /// Armed fault schedule, if the run is a fault-injection experiment.
    faults: Option<FaultInjector>,
    /// Auto-refresh is held while the wall clock is below this (set by
    /// [`ControllerFault::PostponeRefresh`]; backlog catches up after).
    refresh_hold_until: Picoseconds,
    /// Per-bank Rolling Accumulated ACT counters (JESD79-5 RFM). Empty
    /// unless [`McConfig::rfm`] is armed: each ACT increments its bank's
    /// counter, each executed RFM debits RAAIMT, each periodic REF debits
    /// RAAIMT, and reaching RAAMMT forces the controller to issue an RFM
    /// itself.
    raa: Vec<u64>,
    stats: RunStats,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("banks", &self.banks.len())
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryController {
    /// The real constructor, shared by [`McBuilder`](crate::McBuilder)'s
    /// single-shard and per-channel paths. `defense_factory` is called once
    /// per bank with `defense_index_offset + local_bank` — the **global**
    /// flat bank index — so a shard's defenses seed identically to the same
    /// banks in a whole-system controller. Surfaces configuration problems
    /// as [`McBuildError`] — the engine behind
    /// [`McBuilder::try_build`](crate::McBuilder::try_build).
    pub(crate) fn try_from_parts(
        config: McConfig,
        defense_factory: &mut dyn FnMut(usize) -> Box<dyn RowHammerDefense + Send>,
        channel: u8,
        defense_index_offset: usize,
    ) -> Result<Self, McBuildError> {
        config.geometry.validate().map_err(McBuildError::InvalidConfig)?;
        config.timing.validate().map_err(McBuildError::InvalidConfig)?;
        let n_banks = config.geometry.total_banks() as usize;
        let banks = vec![BankState::new(config.timing, config.page_policy); n_banks];
        let defenses: Vec<_> =
            (0..n_banks).map(|b| defense_factory(defense_index_offset + b)).collect();
        let oracles = config.fault_model.clone().map(|m| {
            (0..n_banks)
                .map(|_| FaultOracle::new(m.clone(), config.geometry.rows_per_bank))
                .collect()
        });
        // The engine rotates on the configured timing (which tests may
        // override independently of the generation) while the generation
        // sets the postponement bound — 8 on DDR4, 16 on the halved-tREFI
        // DDR5 generations.
        let refresh_engines = (0..n_banks)
            .map(|_| {
                RefreshEngine::new(&config.timing, config.geometry.rows_per_bank)
                    .with_max_postponed(config.generation.max_postponed_refs())
            })
            .collect();
        let next_refresh_at = config.timing.t_refi;
        let raa = if config.rfm.is_some() { vec![0u64; n_banks] } else { Vec::new() };
        Ok(MemoryController {
            config,
            channel,
            banks,
            defenses,
            oracles,
            refresh_engines,
            next_refresh_at,
            clock: 0,
            wall: 0,
            command_log: None,
            telemetry: None,
            faults: None,
            refresh_hold_until: 0,
            raa,
            stats: RunStats::default(),
        })
    }

    pub(crate) fn set_command_log(&mut self, log: CommandLog) {
        self.command_log = Some(log);
    }

    pub(crate) fn set_telemetry(&mut self, tap: TelemetryTap) {
        self.telemetry = Some(tap);
    }

    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// What the armed fault plan has done so far, if one was attached via
    /// [`McBuilder::faults`](crate::McBuilder::faults).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(FaultInjector::stats)
    }

    /// The command log, if one was attached.
    pub fn command_log(&self) -> Option<&CommandLog> {
        self.command_log.as_ref()
    }

    /// The telemetry tap, if one was attached.
    pub fn telemetry(&self) -> Option<&TelemetryTap> {
        self.telemetry.as_ref()
    }

    fn log_command(&mut self, bank: usize, at: Picoseconds, cmd: LoggedCommand) {
        if let Some(log) = &mut self.command_log {
            log.push(CommandRecord { bank: bank as u16, at, cmd });
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The defense attached to `bank`.
    pub fn defense(&self, bank: usize) -> &dyn RowHammerDefense {
        self.defenses[bank].as_ref()
    }

    /// Current arrival clock (ps).
    pub fn clock(&self) -> Picoseconds {
        self.clock
    }

    /// The channel this controller serves (0 unless it is a shard of a
    /// [`SystemController`](crate::SystemController)).
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// The ground-truth fault oracle attached to `bank`, if the fault model
    /// is armed. Lets end-of-run audits cross-check the defense's verdict
    /// ("zero flips") against the oracle's actual disturbance margins.
    pub fn oracle(&self, bank: usize) -> Option<&FaultOracle> {
        self.oracles.as_ref().and_then(|o| o.get(bank))
    }

    /// Records one served access against its stream, diverting ids outside
    /// the configured stream set ([`McConfig::max_streams`]) to the stray
    /// counters so a corrupt trace shows up as an audit finding instead of
    /// a phantom stream.
    fn note_stream(&mut self, stream: u16, latency: Picoseconds) {
        if stream >= self.config.max_streams {
            self.stats.stray_stream_accesses += 1;
            self.stats.stray_stream_latency += latency;
        } else {
            self.stats.note_stream(stream, latency);
        }
    }

    /// Looks up the bank for an access, rejecting out-of-range indexes
    /// (historically these were silently wrapped with `%`, which masked
    /// address-mapping bugs as wrong-bank traffic).
    fn route(&self, bank: u16, access_index: u64) -> Result<usize, McError> {
        let bank_idx = usize::from(bank);
        if bank_idx < self.banks.len() {
            Ok(bank_idx)
        } else {
            let per_rank = u32::from(self.config.geometry.banks_per_rank);
            Err(McError::BankOutOfRange {
                bank,
                banks: self.banks.len(),
                channel: self.channel,
                rank: (u32::from(bank) / per_rank).min(u32::from(u8::MAX)) as u8,
                access_index,
            })
        }
    }

    /// Books one served access into the statistics, command log, telemetry,
    /// fault oracle, and defense hook — the common tail of the per-access
    /// step, queued service and duplicate replay.
    fn apply_outcome(
        &mut self,
        bank_idx: usize,
        row: RowId,
        arrival: Picoseconds,
        stream: u16,
        outcome: ServiceOutcome,
    ) {
        // The fault plan's clock: 0-based index of this served access.
        let access_index = self.stats.accesses;
        self.stats.accesses += 1;
        self.stats.total_latency += outcome.finish - arrival;
        self.note_stream(stream, outcome.finish - arrival);
        self.stats.completion = self.stats.completion.max(outcome.finish);
        self.wall = self.wall.max(outcome.finish);
        if self.faults.is_some() {
            self.deliver_faults(access_index);
        }
        if outcome.row_hit {
            self.stats.row_hits += 1;
        }
        if outcome.activated {
            self.stats.activations += 1;
            if let Some(at) = outcome.act_at {
                self.log_command(bank_idx, at, LoggedCommand::Activate { row: row.0 });
            }
            if let Some(tap) = &mut self.telemetry {
                tap.on_act(bank_idx, outcome.start);
            }
            if let Some(oracles) = &mut self.oracles {
                let flips = oracles[bank_idx].activate(row, outcome.start);
                self.stats.bit_flips += flips.len() as u64;
            }
            if self.config.rfm.is_some() {
                self.raa[bank_idx] += 1;
            }
            let mut actions = self.defenses[bank_idx].on_activation(row, outcome.start);
            if let Some(inj) = &mut self.faults {
                actions = inj.filter_actions(bank_idx, access_index, actions);
            }
            for action in actions {
                self.apply_action(bank_idx, action);
            }
            self.charge_overhead(bank_idx);
            self.enforce_raa_maximum(bank_idx);
        }
        if self.faults.as_mut().is_some_and(FaultInjector::take_duplicate) {
            // Command duplication at the shard boundary: the same request is
            // served once more (a second ACT if the page policy closed the
            // row). The replay is a real access: it advances the clock, the
            // oracle, and the defense exactly like the original.
            self.consult_throttle(bank_idx, row, self.clock.max(arrival));
            let replay = self.banks[bank_idx].serve(row, self.clock.max(arrival));
            self.apply_outcome(bank_idx, row, arrival, stream, replay);
        }
    }

    /// Takes every fault event due at `access_index`, forwarding tracker
    /// faults to the target bank's defense, arming controller one-shots,
    /// and applying deferred NRRs whose release access has arrived.
    /// Harness-layer events are skipped (the sweep harness consumes them).
    fn deliver_faults(&mut self, access_index: u64) {
        // Temporarily take the injector so the loop can borrow defenses and
        // refresh state mutably; `apply_action` never touches `self.faults`.
        let Some(mut inj) = self.faults.take() else { return };
        let n_banks = self.banks.len();
        for event in inj.take_due(access_index) {
            match event.kind {
                FaultKind::Tracker(fault) => {
                    let bank = usize::from(event.bank) % n_banks;
                    let applied = self.defenses[bank].inject_fault(&fault);
                    inj.note_tracker(applied);
                }
                FaultKind::Controller(fault) => {
                    if let ControllerFault::PostponeRefresh { refis } = fault {
                        let hold =
                            self.next_refresh_at + u64::from(refis) * self.config.timing.t_refi;
                        self.refresh_hold_until = self.refresh_hold_until.max(hold);
                    }
                    inj.arm(fault);
                }
                FaultKind::Harness(_) => {}
            }
        }
        for (bank, action) in inj.release_due(access_index) {
            self.apply_action(bank, action);
        }
        self.faults = Some(inj);
    }

    /// Applies every still-deferred NRR at end of run: held actions execute
    /// late rather than silently disappearing.
    fn flush_deferred_faults(&mut self) {
        let Some(mut inj) = self.faults.take() else { return };
        for (bank, action) in inj.flush_deferred() {
            self.apply_action(bank, action);
        }
        self.faults = Some(inj);
    }

    /// Runs `n` accesses from `workload` and returns a snapshot of the
    /// statistics. Can be called repeatedly to extend the same run.
    ///
    /// # Panics
    ///
    /// Panics if the workload emits an out-of-range bank index; use
    /// [`try_run`](Self::try_run) to handle that as an error.
    pub fn run(&mut self, workload: &mut dyn Workload, n: u64) -> RunStats {
        self.try_run(workload, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`run`](Self::run), but surfaces routing problems as [`McError`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`McError::BankOutOfRange`] on the first access whose bank
    /// index does not exist in the configured geometry. Accesses before the
    /// offending one remain applied to the statistics.
    pub fn try_run(&mut self, workload: &mut dyn Workload, n: u64) -> Result<RunStats, McError> {
        for i in 0..n {
            let Access { bank, row, gap, stream } = workload.next_access();
            self.step(StampedAccess { bank, row, at: self.clock + gap, stream }, i)?;
        }
        Ok(self.finish_run())
    }

    /// Ingests a batch of pre-routed, absolutely-timestamped accesses — the
    /// shard-side half of the system controller's dispatch.
    ///
    /// Per access the arrival clock advances to `max(clock, at)`, so a
    /// channel's sub-trace replayed through batches of any size produces
    /// statistics bit-identical to feeding the same accesses through
    /// [`try_run`](Self::try_run) with delta gaps (the equivalence the
    /// sharded-execution tests pin). Telemetry is **not** flushed per batch;
    /// call [`finish_run`](Self::finish_run) once after the final batch.
    ///
    /// # Errors
    ///
    /// Returns [`McError::BankOutOfRange`] on the first access whose bank
    /// index does not exist in this controller's geometry; `access_index`
    /// is the offset within `batch`. Accesses before the offending one
    /// remain applied.
    pub fn try_run_batch(&mut self, batch: &[StampedAccess]) -> Result<(), McError> {
        for (i, &a) in batch.iter().enumerate() {
            self.step(a, i as u64)?;
        }
        Ok(())
    }

    /// The one per-access path of [`try_run`](Self::try_run) and
    /// [`try_run_batch`](Self::try_run_batch): the arrival clock advances to
    /// `max(clock, a.at)`, due refreshes run, and the access is routed to
    /// its bank, throttled, served and booked. `access_index` numbers the
    /// access in a routing error.
    // Forced inline: out of line, the call cost a single-threaded
    // gen_matrix pass about 15% on a shared 2-core x86-64 VM.
    #[inline(always)]
    fn step(&mut self, a: StampedAccess, access_index: u64) -> Result<(), McError> {
        self.clock = self.clock.max(a.at);
        self.catch_up_refresh();
        let bank_idx = self.route(a.bank, access_index)?;
        self.consult_throttle(bank_idx, a.row, self.clock);
        let outcome = self.banks[bank_idx].serve(a.row, self.clock);
        self.apply_outcome(bank_idx, a.row, self.clock, a.stream, outcome);
        Ok(())
    }

    /// Flushes telemetry and returns the statistics accumulated so far —
    /// what [`try_run`](Self::try_run) returns per call, and the end of a
    /// run fed through [`try_run_batch`](Self::try_run_batch).
    pub fn finish_run(&mut self) -> RunStats {
        self.flush_deferred_faults();
        self.finish_telemetry();
        self.stats.clone()
    }

    /// Runs `n` accesses through per-bank request queues with batched
    /// FR-FCFS scheduling (the PAR-BS-like policy of Table III), instead of
    /// [`run`](Self::run)'s in-order service. Row hits within a batch are
    /// served first, so streams with row-buffer locality complete faster;
    /// everything else (defense hook, refresh machinery, fault oracle,
    /// statistics) behaves identically.
    ///
    /// # Errors
    ///
    /// Returns [`McError::InvalidScheduler`] if the scheduler configuration
    /// cannot form batches, and [`McError::BankOutOfRange`] on the first
    /// access whose bank index does not exist in the configured geometry.
    /// Work already queued is drained before returning the error, so the
    /// statistics stay consistent.
    pub fn try_run_queued(
        &mut self,
        workload: &mut dyn Workload,
        n: u64,
        scheduler: SchedulerConfig,
    ) -> Result<RunStats, McError> {
        if scheduler.batch_size < 1 || scheduler.queue_depth < scheduler.batch_size {
            return Err(McError::InvalidScheduler {
                batch_size: scheduler.batch_size,
                queue_depth: scheduler.queue_depth,
            });
        }
        let mut queues: Vec<BankQueue> =
            (0..self.banks.len()).map(|_| BankQueue::new(scheduler)).collect();

        let mut route_error = None;
        for i in 0..n {
            let access = workload.next_access();
            self.clock += access.gap;
            self.catch_up_refresh();
            let bank_idx = match self.route(access.bank, i) {
                Ok(idx) => idx,
                Err(e) => {
                    route_error = Some(e);
                    break;
                }
            };

            // Back-pressure: a full queue forces the oldest batch through.
            while queues[bank_idx].is_full() {
                self.serve_one_queued(&mut queues, bank_idx);
            }
            queues[bank_idx]
                .push(access.row, self.clock, access.stream)
                // invariant: the while-loop above drained until !is_full().
                .expect("queue has space after back-pressure drain");

            // Opportunistically serve any bank that is ready "now".
            for b in 0..queues.len() {
                while !queues[b].is_empty() && self.banks[b].ready_at() <= self.clock {
                    self.serve_one_queued(&mut queues, b);
                }
            }
        }
        // Drain everything still queued.
        for b in 0..queues.len() {
            while !queues[b].is_empty() {
                self.serve_one_queued(&mut queues, b);
            }
        }
        let stats = self.finish_run();
        route_error.map_or(Ok(stats), Err)
    }

    /// Flushes the telemetry tap's tail and end-of-run gauges.
    fn finish_telemetry(&mut self) {
        if let Some(tap) = &mut self.telemetry {
            tap.finish(self.clock.max(self.wall), &self.stats);
        }
    }

    /// Serves the scheduler's pick for `bank_idx` (which must be non-empty).
    fn serve_one_queued(&mut self, queues: &mut [BankQueue], bank_idx: usize) {
        let open = self.banks[bank_idx].open_row();
        // invariant: every caller gates on !queues[bank_idx].is_empty().
        let req = queues[bank_idx].pop_next(open).expect("caller checked non-empty");
        self.consult_throttle(bank_idx, req.row, req.arrival);
        let outcome = self.banks[bank_idx].serve(req.row, req.arrival);
        self.apply_outcome(bank_idx, req.row, req.arrival, req.stream, outcome);
    }

    /// Consults the bank's defense immediately before serving an access —
    /// the [`ThrottleDecision`](mitigations::ThrottleDecision) feedback
    /// path. A throttling defense (BlockHammer) answers with a delay; the
    /// controller holds the bank so the access cannot start before
    /// `now + delay`, and accounts the decision in the run statistics.
    ///
    /// Every dispatch path (the per-access step, queued, duplicate replay)
    /// consults with exactly the `(row, now)` pair its `serve` call uses,
    /// so a stateful throttle sees one identical decision stream regardless
    /// of batching — preserving the batched-dispatch bit-identity contract.
    fn consult_throttle(&mut self, bank_idx: usize, row: RowId, now: Picoseconds) {
        let decision = self.defenses[bank_idx].throttle_decision(row, now);
        if decision.is_throttled() {
            self.banks[bank_idx].hold_until(now + decision.delay);
            self.stats.throttled_acts += 1;
            self.stats.throttle_delay += decision.delay;
        }
    }

    /// Drains and charges the defense's bookkeeping traffic to its bank.
    fn charge_overhead(&mut self, bank_idx: usize) {
        let extra = self.defenses[bank_idx].drain_overhead_time();
        if extra > 0 {
            self.banks[bank_idx].delay(extra);
            self.stats.defense_busy += extra;
        }
    }

    /// Executes every periodic refresh tick due at or before the wall clock
    /// (the later of the arrival clock and the service high-water mark).
    ///
    /// While a [`ControllerFault::PostponeRefresh`] hold is in effect no
    /// tick executes; once the hold lapses the backlog runs back-to-back —
    /// DDR4's postpone-then-catch-up semantics (at most 8 tREFI, enforced
    /// at plan-generation time).
    fn catch_up_refresh(&mut self) {
        let now = self.clock.max(self.wall);
        if now < self.refresh_hold_until {
            return;
        }
        while self.next_refresh_at <= now {
            let at = self.next_refresh_at;
            for bank_idx in 0..self.banks.len() {
                let end = self.banks[bank_idx].block_for_refresh(at);
                self.log_command(bank_idx, end - self.config.timing.t_rfc, LoggedCommand::Refresh);
                if let Some(tap) = &mut self.telemetry {
                    tap.on_refresh(bank_idx, at);
                }
                self.stats.completion = self.stats.completion.max(end);
                self.stats.refreshes += 1;
                let burst = self.refresh_engines[bank_idx].next_burst();
                if let Some(oracles) = &mut self.oracles {
                    oracles[bank_idx].refresh_burst(burst);
                }
                let actions = self.defenses[bank_idx].on_refresh_tick(at);
                for action in actions {
                    self.apply_action(bank_idx, action);
                }
                // JESD79-5: each REF also retires one RAAIMT quantum of
                // accumulated ACTs, so benign traffic never drifts toward
                // the RAAMMT backstop.
                self.debit_raa(bank_idx);
            }
            self.next_refresh_at += self.config.timing.t_refi;
        }
    }

    /// Charges and executes one defense-requested refresh.
    fn apply_action(&mut self, bank_idx: usize, action: RefreshAction) {
        let rows_per_bank = self.config.geometry.rows_per_bank;
        let rows: Vec<RowId> = action.rows(rows_per_bank);
        if rows.is_empty() {
            return;
        }
        let before = self.banks[bank_idx].ready_at();
        let end = self.banks[bank_idx].block_for_victim_refresh(rows.len() as u64, before);
        self.log_command(
            bank_idx,
            before,
            LoggedCommand::VictimRefresh { rows: rows.len() as u64 },
        );
        if let Some(tap) = &mut self.telemetry {
            tap.on_victim_refresh(bank_idx, rows.len() as u64, before);
        }
        self.stats.defense_busy += end - before;
        self.stats.completion = self.stats.completion.max(end);
        self.wall = self.wall.max(end);
        self.stats.defense_refresh_commands += 1;
        self.stats.victim_rows_refreshed += rows.len() as u64;
        if matches!(action, RefreshAction::Rfm { .. }) {
            self.stats.rfm_commands += 1;
            self.debit_raa(bank_idx);
        }
        if let Some(oracles) = &mut self.oracles {
            oracles[bank_idx].refresh_rows(rows);
        }
    }

    /// Debits one RAAIMT quantum from a bank's Rolling Accumulated ACT
    /// counter — the JESD79-5 accounting for an executed RFM or REF.
    /// No-op when RFM accounting is disarmed.
    fn debit_raa(&mut self, bank_idx: usize) {
        if let Some(rfm) = self.config.rfm {
            if let Some(raa) = self.raa.get_mut(bank_idx) {
                *raa = raa.saturating_sub(u64::from(rfm.raaimt));
            }
        }
    }

    /// Forces an RFM if a bank's RAA counter has reached RAAMMT — the
    /// device-side backstop a JESD79-5 controller must honour regardless of
    /// what its Row Hammer defense decided. The forced RFM is untargeted
    /// (the device refreshes its own candidates), so it blocks the bank for
    /// tRFM and debits RAAIMT without naming victim rows.
    fn enforce_raa_maximum(&mut self, bank_idx: usize) {
        let Some(rfm) = self.config.rfm else { return };
        while self.raa.get(bank_idx).is_some_and(|&r| r >= u64::from(rfm.raammt)) {
            self.banks[bank_idx].delay(rfm.t_rfm);
            self.stats.defense_busy += rfm.t_rfm;
            self.stats.forced_rfms += 1;
            self.debit_raa(bank_idx);
        }
    }

    /// A bank's current Rolling Accumulated ACT count (0 when RFM
    /// accounting is disarmed) — exposed for RFM-mode audits and tests.
    pub fn raa_count(&self, bank_idx: usize) -> u64 {
        self.raa.get(bank_idx).copied().unwrap_or(0)
    }

    /// True if no ground-truth bit flip has occurred (always true when the
    /// oracle is disabled).
    pub fn is_clean(&self) -> bool {
        self.stats.bit_flips == 0
    }

    /// Renders the controller's complete dynamic state — clocks, refresh
    /// position, statistics, per-bank timing state, and every bank's defense
    /// — as one line of compact JSON, such that [`restore`](Self::restore)
    /// of its parse on a freshly built controller of the same configuration
    /// resumes bit-identically.
    ///
    /// # Errors
    ///
    /// Refuses when the run carries side-band machinery whose state is not
    /// checkpointable — a fault oracle, an armed fault plan, a command log,
    /// or a telemetry tap (resuming would silently replay their histories
    /// from empty) — or when a bank's defense does not support
    /// checkpointing.
    pub fn snapshot(&self) -> Result<String, CkptError> {
        let mut out = String::new();
        self.snapshot_into(&mut out)?;
        Ok(out)
    }

    /// [`snapshot`](Self::snapshot), appended to `out`. Banks render one at
    /// a time: each bank's defense state is built, rendered and dropped
    /// before the next, so the largest tree held is one bank's. On error
    /// `out` may end in a partial line.
    pub(crate) fn snapshot_into(&self, out: &mut String) -> Result<(), CkptError> {
        if self.oracles.is_some() {
            return Err(CkptError::Unsupported { what: "a run with a ground-truth fault oracle" });
        }
        if self.faults.is_some() {
            return Err(CkptError::Unsupported { what: "a run with an armed fault plan" });
        }
        if self.command_log.is_some() {
            return Err(CkptError::Unsupported { what: "a run with a command log attached" });
        }
        if self.telemetry.is_some() {
            return Err(CkptError::Unsupported { what: "a run with a telemetry tap attached" });
        }
        out.push('{');
        for (key, value) in [
            ("channel", JsonValue::U64(u64::from(self.channel))),
            ("clock", JsonValue::U64(self.clock)),
            ("wall", JsonValue::U64(self.wall)),
            ("next_refresh_at", JsonValue::U64(self.next_refresh_at)),
            ("refresh_hold_until", JsonValue::U64(self.refresh_hold_until)),
            ("stats", run_stats_to_json(&self.stats)),
        ] {
            push_key(out, key);
            value.render_into(out);
            out.push(',');
        }
        push_key(out, "banks");
        out.push('[');
        let first = out.len();
        for b in 0..self.banks.len() {
            if b > 0 {
                out.push(',');
            }
            self.bank_state(b)?.render_into(out);
            if b == 0 {
                // Banks render to similar lengths: reserve the rest at once.
                out.reserve((out.len() - first + 1) * (self.banks.len() - 1));
            }
        }
        out.push_str("]}");
        Ok(())
    }

    /// One bank's checkpoint state: open row, timing, refresh position, RAA
    /// count and the defense's own state.
    fn bank_state(&self, b: usize) -> Result<JsonValue, CkptError> {
        let (open_row, hits, ready_at, last_act_at) = self.banks[b].dynamic_state();
        let eng = &self.refresh_engines[b];
        Ok(obj(vec![
            ("open_row", opt_u64(open_row.map(|r| u64::from(r.0)))),
            ("hits_on_open_row", JsonValue::U64(u64::from(hits))),
            ("ready_at", JsonValue::U64(ready_at)),
            ("last_act_at", opt_u64(last_act_at)),
            ("ref_burst_in_window", JsonValue::U64(eng.burst_in_window())),
            ("ref_refs_issued", JsonValue::U64(eng.refs_issued())),
            ("ref_next_at", JsonValue::U64(eng.next_ref_at())),
            ("raa", JsonValue::U64(self.raa.get(b).copied().unwrap_or(0))),
            (
                "defense",
                self.defenses[b]
                    .snapshot_state()
                    .map_err(|e| CkptError::Defense { bank: b, detail: e })?,
            ),
        ]))
    }

    /// Replays state captured by [`snapshot`](Self::snapshot) into this
    /// controller, which must have been built from the same configuration
    /// (same geometry, timing, page policy, and defense set — the snapshot
    /// stores none of these, so the builder pins them).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or mismatched field:
    /// wrong channel, wrong bank count, a refresh position outside the
    /// engine's window, or a defense that rejects its state. Defenses
    /// restore in bank order, so when bank `b`'s defense rejects its state
    /// the defenses of banks `0..b` already hold the checkpoint's: on
    /// error, discard the controller rather than resuming it.
    pub fn restore(&mut self, state: &JsonValue) -> Result<(), CkptError> {
        let channel = state.int("channel")?;
        if channel != u64::from(self.channel) {
            return Err(CkptError::WrongChannel { found: channel, restoring: self.channel });
        }
        let banks = state.items("banks")?;
        if banks.len() != self.banks.len() {
            return Err(CkptError::BankCount { found: banks.len(), have: self.banks.len() });
        }
        let stats = run_stats_from_json(state.field("stats")?)?;
        let clock = state.int("clock")?;
        let wall = state.int("wall")?;
        let next_refresh_at = state.int("next_refresh_at")?;
        let refresh_hold_until = state.int("refresh_hold_until")?;
        // Parse every bank's timing and refresh fields before mutating
        // anything; past this loop only a defense's own restore can fail
        // (see the error contract above).
        let mut parsed = Vec::with_capacity(banks.len());
        for (b, bank) in banks.iter().enumerate() {
            let window = self.refresh_engines[b].cmds_per_window();
            let fields = || -> Result<_, String> {
                let burst = bank.int("ref_burst_in_window")?;
                if burst >= window {
                    return Err(format!(
                        "refresh burst position {burst} outside the {window}-command window"
                    ));
                }
                Ok((
                    bank.opt_int("open_row")?.map(RowId),
                    bank.int("hits_on_open_row")?,
                    bank.int("ready_at")?,
                    bank.opt_int("last_act_at")?,
                    burst,
                    bank.int("ref_refs_issued")?,
                    bank.int("ref_next_at")?,
                    bank.int("raa")?,
                ))
            };
            parsed.push(fields().map_err(|e| CkptError::bank(b, e.into()))?);
        }
        for (b, bank) in banks.iter().enumerate() {
            self.defenses[b]
                .restore_state(bank.field("defense").map_err(|e| CkptError::bank(b, e.into()))?)
                .map_err(|e| CkptError::Defense { bank: b, detail: e })?;
        }
        for (b, (open_row, hits, ready_at, last_act_at, burst, refs_issued, ref_next_at, raa)) in
            parsed.into_iter().enumerate()
        {
            self.banks[b].restore_dynamic_state(open_row, hits, ready_at, last_act_at);
            self.refresh_engines[b].restore_position(burst, refs_issued, ref_next_at);
            if let Some(slot) = self.raa.get_mut(b) {
                *slot = raa;
            }
        }
        self.clock = clock;
        self.wall = wall;
        self.next_refresh_at = next_refresh_at;
        self.refresh_hold_until = refresh_hold_until;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::McBuilder;
    use dram_model::fault::{DisturbanceModel, MuModel};
    use graphene_core::GrapheneConfig;
    use mitigations::{GrapheneDefense, NoDefense, Para};
    use workloads::Synthetic;

    fn no_defense_mc(config: McConfig) -> MemoryController {
        McBuilder::new(config).build()
    }

    #[test]
    fn unprotected_hammer_flips_bits() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, Some(model)));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 20_000);
        assert!(stats.bit_flips > 0, "hammering without defense must flip bits");
        assert!(!mc.is_clean());
    }

    fn graphene_mc(config: McConfig) -> MemoryController {
        McBuilder::new(config)
            .defenses_with(|_| {
                let cfg = GrapheneConfig::builder().row_hammer_threshold(5_000).build().unwrap();
                Box::new(GrapheneDefense::from_config(&cfg).unwrap())
            })
            .build()
    }

    #[test]
    fn graphene_prevents_flips_on_same_attack() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mut mc = graphene_mc(McConfig::single_bank(65_536, Some(model)));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 100_000);
        assert_eq!(stats.bit_flips, 0);
        assert!(stats.victim_rows_refreshed > 0, "NRRs must have fired");
    }

    #[test]
    fn periodic_refresh_fires_per_trefi() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        // One access arriving after 10 tREFI of idleness.
        struct Idle;
        impl Workload for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn next_access(&mut self) -> workloads::Access {
                workloads::Access { bank: 0, row: RowId(1), gap: 78_000_000, stream: 0 }
            }
        }
        let stats = mc.run(&mut Idle, 1);
        assert_eq!(stats.refreshes, 10);
    }

    #[test]
    fn saturating_attack_throughput_is_trc_bound() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 50_000);
        let per_access = stats.completion as f64 / stats.accesses as f64;
        // Single-row hammering with minimalist-open: every 4th access
        // re-activates; mean cost sits between tCL and tRC.
        assert!(per_access < 45_000.0 * 1.3, "per access {per_access}");
        assert!(per_access > 13_000.0);
    }

    #[test]
    fn para_adds_measurable_busy_time() {
        let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
            .defenses_with(|b| Box::new(Para::new(0.01, b as u64)))
            .build();
        let stats = mc.run(&mut Synthetic::s1(10, 65_536, 1), 100_000);
        assert!(stats.defense_refresh_commands > 0);
        assert!(stats.defense_busy > 0);
        // Roughly p × activations refreshes.
        let rate = stats.defense_refresh_commands as f64 / stats.activations as f64;
        assert!((rate - 0.01).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn slowdown_of_defense_free_run_is_zero() {
        let run = |with_para: bool| {
            let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
                .defenses_with(|b| {
                    if with_para {
                        Box::new(Para::new(0.02, b as u64)) as Box<dyn RowHammerDefense + Send>
                    } else {
                        Box::new(NoDefense::new())
                    }
                })
                .build();
            mc.run(&mut Synthetic::s3(65_536, 9), 50_000)
        };
        let base = run(false);
        let para = run(true);
        assert!(para.slowdown_vs(&base) > 0.0, "PARA must slow a saturating attack");
        assert_eq!(base.slowdown_vs(&base), 0.0);
    }

    #[test]
    fn multi_bank_traffic_spreads() {
        let mut mc = no_defense_mc(McConfig::micro2020_no_oracle());
        let mut w =
            workloads::ProxyWorkload::from_preset(workloads::SpecPreset::Libquantum, 64, 65_536, 5);
        let stats = mc.run(&mut w, 20_000);
        assert_eq!(stats.accesses, 20_000);
        assert!(stats.row_hit_rate() < 1.0);
        assert!(mc.is_clean());
    }

    #[test]
    fn queued_mode_serves_everything() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let stats = mc
            .try_run_queued(
                &mut Synthetic::s1(10, 65_536, 1),
                20_000,
                crate::scheduler::SchedulerConfig::par_bs_like(),
            )
            .unwrap();
        assert_eq!(stats.accesses, 20_000);
        assert_eq!(stats.activations + stats.row_hits, 20_000);
    }

    #[test]
    fn batched_scheduling_beats_fcfs_on_interleaved_rows() {
        // Two interleaved row streams: FCFS ping-pongs between rows, the
        // batched scheduler groups row hits and finishes faster.
        struct PingPong(u64);
        impl Workload for PingPong {
            fn name(&self) -> String {
                "pingpong".into()
            }
            fn next_access(&mut self) -> workloads::Access {
                self.0 += 1;
                workloads::Access {
                    bank: 0,
                    row: RowId((self.0 % 2) as u32 * 64),
                    gap: 0,
                    stream: 0,
                }
            }
        }
        let run = |cfg: crate::scheduler::SchedulerConfig| {
            let mut mc = no_defense_mc(McConfig {
                page_policy: crate::PagePolicy::Open,
                ..McConfig::single_bank(65_536, None)
            });
            mc.try_run_queued(&mut PingPong(0), 20_000, cfg).unwrap()
        };
        let fcfs = run(crate::scheduler::SchedulerConfig::fcfs());
        let batched = run(crate::scheduler::SchedulerConfig::par_bs_like());
        assert!(
            batched.row_hits > fcfs.row_hits,
            "batched {} hits vs fcfs {}",
            batched.row_hits,
            fcfs.row_hits
        );
        assert!(batched.completion < fcfs.completion);
    }

    #[test]
    fn queued_mode_graphene_still_protects() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mut mc = graphene_mc(McConfig::single_bank(65_536, Some(model)));
        let stats = mc
            .try_run_queued(
                &mut Synthetic::s3(65_536, 1),
                80_000,
                crate::scheduler::SchedulerConfig::par_bs_like(),
            )
            .unwrap();
        assert_eq!(stats.bit_flips, 0);
        assert!(stats.victim_rows_refreshed > 0);
    }

    #[test]
    fn stats_snapshot_accumulates_across_runs() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        mc.run(&mut Synthetic::s3(65_536, 1), 100);
        let s = mc.run(&mut Synthetic::s3(65_536, 1), 100);
        assert_eq!(s.accesses, 200);
    }

    /// A workload with a bank index beyond any sane geometry.
    struct WrongBank;
    impl Workload for WrongBank {
        fn name(&self) -> String {
            "wrong-bank".into()
        }
        fn next_access(&mut self) -> workloads::Access {
            workloads::Access { bank: 999, row: RowId(1), gap: 1_000, stream: 0 }
        }
    }

    #[test]
    fn try_run_reports_bad_bank_mapping() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let err = mc.try_run(&mut WrongBank, 5).unwrap_err();
        assert_eq!(
            err,
            McError::BankOutOfRange { bank: 999, banks: 1, channel: 0, rank: 255, access_index: 0 }
        );
        assert!(err.to_string().contains("bank 999"));
        assert!(err.to_string().contains("channel 0"));
        // Well-mapped traffic still succeeds afterwards.
        let stats = mc.try_run(&mut Synthetic::s3(65_536, 1), 10).unwrap();
        assert_eq!(stats.accesses, 10);
    }

    #[test]
    fn bank_error_carries_shard_channel_and_rank_decode() {
        // A 2-rank × 4-bank shard on channel 3: bank 6 would be rank 1, but
        // bank 9 exceeds the shard, decoding to the (absent) rank 2.
        let mut geo_cfg = McConfig::micro2020_no_oracle();
        geo_cfg.geometry.channels = 4;
        geo_cfg.geometry.ranks_per_channel = 2;
        geo_cfg.geometry.banks_per_rank = 4;
        let mut system = McBuilder::new(geo_cfg).build_system();
        let err = system.split_streaming().1[3]
            .try_run_batch(&[StampedAccess { bank: 9, row: RowId(1), at: 0, stream: 0 }])
            .unwrap_err();
        assert_eq!(
            err,
            McError::BankOutOfRange { bank: 9, banks: 8, channel: 3, rank: 2, access_index: 0 }
        );
    }

    #[test]
    fn try_run_queued_reports_bad_bank_mapping() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let err = mc
            .try_run_queued(&mut WrongBank, 5, crate::scheduler::SchedulerConfig::par_bs_like())
            .unwrap_err();
        assert!(matches!(err, McError::BankOutOfRange { bank: 999, banks: 1, channel: 0, .. }));
    }

    #[test]
    fn batched_ingestion_matches_gap_driven_run_bit_identically() {
        // The shard-side equivalence: replaying a trace as absolutely
        // stamped batches must reproduce the legacy delta-gap path exactly,
        // including refresh catch-up and defense interference.
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let trace = Synthetic::s3(65_536, 1).take_accesses(30_000);

        let mut legacy = graphene_mc(McConfig::single_bank(65_536, Some(model.clone())));
        let mut replay = workloads::Trace::from_accesses("t", trace.clone()).replay();
        let legacy_stats = legacy.try_run(&mut replay, 30_000).unwrap();

        let mut batched = graphene_mc(McConfig::single_bank(65_536, Some(model)));
        let mut at = 0u64;
        let stamped: Vec<StampedAccess> = trace
            .iter()
            .map(|a| {
                at += a.gap;
                StampedAccess { bank: a.bank, row: a.row, at, stream: a.stream }
            })
            .collect();
        for chunk in stamped.chunks(977) {
            batched.try_run_batch(chunk).unwrap();
        }
        assert_eq!(batched.finish_run(), legacy_stats);
    }

    #[test]
    #[should_panic(expected = "targets bank 999")]
    fn run_panics_on_bad_bank_mapping() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let _ = mc.run(&mut WrongBank, 1);
    }

    /// A workload whose stream id lies outside the configured stream set.
    struct StrayStream;
    impl Workload for StrayStream {
        fn name(&self) -> String {
            "stray-stream".into()
        }
        fn next_access(&mut self) -> workloads::Access {
            workloads::Access { bank: 0, row: RowId(7), gap: 1_000, stream: 65_535 }
        }
    }

    #[test]
    fn stray_stream_ids_are_diverted_not_allocated() {
        // Regression: stream id 65535 used to grow per_stream to a
        // 64K-entry vec; now it lands in the stray counters, which the
        // audit flags while the exact latency invariant still holds.
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let stats = mc.run(&mut StrayStream, 10);
        assert!(stats.per_stream.is_empty());
        assert_eq!(stats.stray_stream_accesses, 10);
        assert_eq!(stats.stray_stream_latency, stats.total_latency);
        let findings = crate::StatsAudit::check(&stats).unwrap_err();
        assert!(findings.iter().any(|f| matches!(f, crate::StatsFinding::StrayStreams { .. })));
    }

    #[test]
    fn real_runs_satisfy_the_stats_audit() {
        let mut mc = no_defense_mc(McConfig::micro2020_no_oracle());
        let mut w =
            workloads::ProxyWorkload::from_preset(workloads::SpecPreset::Libquantum, 64, 65_536, 5);
        let stats = mc.run(&mut w, 20_000);
        crate::StatsAudit::check_at(&stats, mc.clock()).unwrap();
    }

    #[test]
    fn oracle_accessor_exposes_per_bank_state() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, Some(model)));
        mc.run(&mut Synthetic::s3(65_536, 1), 1_000);
        let oracle = mc.oracle(0).expect("oracle armed");
        assert!(oracle.max_disturbance() > 0.0);
        assert!(mc.oracle(1).is_none());
        assert!(no_defense_mc(McConfig::single_bank(64, None)).oracle(0).is_none());
    }

    #[test]
    fn invalid_scheduler_config_is_an_error_not_a_panic() {
        let mut mc = no_defense_mc(McConfig::single_bank(65_536, None));
        let err = mc
            .try_run_queued(
                &mut Synthetic::s3(65_536, 1),
                10,
                SchedulerConfig { batch_size: 0, queue_depth: 4 },
            )
            .unwrap_err();
        assert_eq!(err, McError::InvalidScheduler { batch_size: 0, queue_depth: 4 });
        let err = mc
            .try_run_queued(
                &mut Synthetic::s3(65_536, 1),
                10,
                SchedulerConfig { batch_size: 8, queue_depth: 4 },
            )
            .unwrap_err();
        assert!(err.to_string().contains("batch_size 8"));
        assert_eq!(mc.stats().accesses, 0, "rejected runs must not serve anything");
    }

    use faultsim::FaultSpec;

    fn fault_plan(spec: FaultSpec) -> FaultPlan {
        FaultPlan::generate(&spec)
    }

    fn graphene_mc_with_faults(config: McConfig, plan: FaultPlan) -> MemoryController {
        McBuilder::new(config)
            .defenses_with(|_| {
                let cfg = GrapheneConfig::builder().row_hammer_threshold(5_000).build().unwrap();
                Box::new(GrapheneDefense::from_config(&cfg).unwrap())
            })
            .faults(plan)
            .build()
    }

    #[test]
    fn dropped_nrrs_turn_into_oracle_flips() {
        // Arm far more drop events than Graphene will emit NRRs: every
        // defense action is squeezed out, so the hammering that a clean run
        // survives (graphene_prevents_flips_on_same_attack) now flips bits.
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let spec = FaultSpec { nrr_drops: 400, accesses: 100_000, banks: 1, ..FaultSpec::new(42) };
        let mut mc =
            graphene_mc_with_faults(McConfig::single_bank(65_536, Some(model)), fault_plan(spec));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 100_000);
        let fstats = mc.fault_stats().unwrap();
        assert!(fstats.nrrs_dropped > 0, "drops must have fired");
        assert!(stats.bit_flips > 0, "undefended victims must flip");
        assert!(!mc.is_clean());
    }

    #[test]
    fn tracker_faults_reach_the_defense() {
        let spec = FaultSpec { accesses: 20_000, banks: 1, ..FaultSpec::single_bit_flips(7, 16) };
        let mut mc = graphene_mc_with_faults(McConfig::single_bank(65_536, None), fault_plan(spec));
        mc.run(&mut Synthetic::s3(65_536, 1), 20_000);
        let fstats = mc.fault_stats().unwrap();
        assert_eq!(fstats.tracker_faults_applied + fstats.tracker_faults_vacuous, 16);
        assert!(fstats.tracker_faults_applied > 0, "Graphene's table must absorb some flips");
    }

    #[test]
    fn duplicated_commands_replay_accesses() {
        let spec = FaultSpec { duplicates: 3, accesses: 10_000, banks: 1, ..FaultSpec::new(5) };
        let mut mc = graphene_mc_with_faults(McConfig::single_bank(65_536, None), fault_plan(spec));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 10_000);
        assert_eq!(mc.fault_stats().unwrap().commands_duplicated, 3);
        assert_eq!(stats.accesses, 10_003, "each duplication serves one extra access");
    }

    #[test]
    fn postponed_refresh_catches_up_within_the_ddr4_bound() {
        let run = |plan: Option<FaultPlan>| {
            let mut builder = McBuilder::new(McConfig::single_bank(65_536, None));
            if let Some(p) = plan {
                builder = builder.faults(p);
            }
            let mut mc = builder.build();
            // 40k accesses at 10 ns apart ≈ 51 tREFI of wall clock.
            let mut w = workloads::Trace::from_accesses(
                "steady",
                (0..40_000u64)
                    .map(|i| workloads::Access {
                        bank: 0,
                        row: RowId((i % 97) as u32),
                        gap: 10_000,
                        stream: 0,
                    })
                    .collect(),
            )
            .replay();
            (mc.run(&mut w, 40_000), mc.fault_stats().map(|f| f.refreshes_postponed))
        };
        let (nominal, _) = run(None);
        let spec =
            FaultSpec { refresh_postpones: 4, accesses: 40_000, banks: 1, ..FaultSpec::new(9) };
        let (faulted, postponed) = run(Some(fault_plan(spec)));
        assert!(postponed.unwrap() > 0);
        assert!(faulted.refreshes <= nominal.refreshes);
        assert!(
            nominal.refreshes - faulted.refreshes <= u64::from(faultsim::MAX_REFRESH_POSTPONE_REFI),
            "catch-up must leave at most the legal 8-tREFI deficit \
             (nominal {}, faulted {})",
            nominal.refreshes,
            faulted.refreshes
        );
    }

    #[test]
    fn deferred_nrrs_are_flushed_not_lost() {
        let spec = FaultSpec { nrr_defers: 6, accesses: 50_000, banks: 1, ..FaultSpec::new(13) };
        let mut mc = graphene_mc_with_faults(McConfig::single_bank(65_536, None), fault_plan(spec));
        mc.run(&mut Synthetic::s3(65_536, 1), 50_000);
        let fstats = mc.fault_stats().unwrap();
        assert!(fstats.nrrs_deferred > 0, "defers must have caught an NRR");
        assert_eq!(
            fstats.nrrs_released, fstats.nrrs_deferred,
            "every deferred action must eventually apply"
        );
    }

    #[test]
    fn checkpoint_resumes_bit_identically_through_json_text() {
        let accesses = Synthetic::s3(65_536, 1).take_accesses(60_000);
        let halves = |range: std::ops::Range<usize>| {
            workloads::Trace::from_accesses("half", accesses[range].to_vec()).replay()
        };
        // Uninterrupted reference run of the first half.
        let mut full = graphene_mc(McConfig::single_bank(65_536, None));
        full.run(&mut halves(0..30_000), 30_000);
        // Checkpoint it through rendered text and restore into a fresh
        // controller of the same configuration.
        let text = full.snapshot().unwrap();
        let mut resumed = graphene_mc(McConfig::single_bank(65_536, None));
        resumed.restore(&telemetry::json::parse(&text).unwrap()).unwrap();
        // The second half must play out identically on both.
        let a = full.run(&mut halves(30_000..60_000), 30_000);
        let b = resumed.run(&mut halves(30_000..60_000), 30_000);
        assert_eq!(a, b);
        assert_eq!(full.snapshot().unwrap(), resumed.snapshot().unwrap());
    }

    #[test]
    fn checkpoint_refuses_a_run_with_a_fault_oracle() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mc = no_defense_mc(McConfig::single_bank(65_536, Some(model)));
        let err = mc.snapshot().expect_err("oracle runs must refuse checkpointing");
        assert!(matches!(err, crate::ckpt::CkptError::Unsupported { .. }), "{err:?}");
        assert!(err.to_string().contains("fault oracle"), "{err}");
    }

    #[test]
    fn restore_rejects_a_checkpoint_with_the_wrong_shape() {
        let mut mc = graphene_mc(McConfig::single_bank(65_536, None));
        mc.run(&mut Synthetic::s3(65_536, 1), 1_000);
        let snap = telemetry::json::parse(&mc.snapshot().unwrap()).unwrap();
        // micro2020_no_oracle has 16 banks per channel shard; the snapshot
        // came from a single-bank controller.
        let mut other = McBuilder::new(McConfig::micro2020_no_oracle()).build();
        let err = other.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("bank(s)"), "{err}");
    }

    #[test]
    fn restore_refuses_a_bank_missing_its_raa_or_timing_fields() {
        // Every writer renders all three (`open_row` and `last_act_at` as
        // null or an integer), so a line without one is damaged, not old.
        let mut mc = graphene_mc(McConfig::single_bank(65_536, None));
        mc.run(&mut Synthetic::s3(65_536, 1), 1_000);
        let text = mc.snapshot().unwrap();
        for key in ["raa", "open_row", "last_act_at"] {
            let start = text.find(&format!("\"{key}\":")).unwrap();
            let end = start + text[start..].find(',').unwrap() + 1;
            let damaged = format!("{}{}", &text[..start], &text[end..]);
            let mut fresh = graphene_mc(McConfig::single_bank(65_536, None));
            let err = fresh.restore(&telemetry::json::parse(&damaged).unwrap()).unwrap_err();
            let missing = CkptError::Shape { detail: format!("missing field `{key}`") };
            assert_eq!(err, CkptError::bank(0, missing), "{key}");
        }
    }

    #[test]
    fn rfm_issuer_graphene_protects_on_ddr5() {
        use dram_model::Generation;
        use mitigations::RfmIssuer;

        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let mut mc = McBuilder::new(McConfig::single_bank_for_generation(
            Generation::Ddr5_4800,
            65_536,
            Some(model),
        ))
        .defenses_with(|_| {
            let cfg = GrapheneConfig::builder()
                .row_hammer_threshold(5_000)
                .timing(Generation::Ddr5_4800.timing())
                .build()
                .unwrap();
            Box::new(RfmIssuer::new(Box::new(GrapheneDefense::from_config(&cfg).unwrap())))
        })
        .build();
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 100_000);
        assert_eq!(stats.bit_flips, 0, "RFM-mode Graphene must still protect");
        assert!(stats.rfm_commands > 0, "DDR5 defense must issue RFMs, not NRRs");
        assert_eq!(
            stats.rfm_commands, stats.defense_refresh_commands,
            "every defense refresh on this path is an RFM"
        );
        assert!(stats.victim_rows_refreshed > 0);
    }

    #[test]
    fn raa_backstop_forces_rfms_when_the_defense_stays_silent() {
        use dram_model::Generation;

        // No defense: only the controller's RAAMMT backstop stands between
        // a saturating hammer and unbounded accumulated ACTs.
        let gen = Generation::Ddr5_4800;
        let mut mc =
            McBuilder::new(McConfig::single_bank_for_generation(gen, 65_536, None)).build();
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 50_000);
        let rfm = gen.rfm().unwrap();
        assert!(stats.forced_rfms > 0, "saturating ACTs must trip the RAAMMT backstop");
        assert!(
            mc.raa_count(0) < u64::from(rfm.raammt),
            "RAA {} must stay below RAAMMT {}",
            mc.raa_count(0),
            rfm.raammt
        );
    }

    #[test]
    fn ddr4_runs_never_touch_rfm_accounting() {
        let mut mc = graphene_mc(McConfig::single_bank(65_536, None));
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 50_000);
        assert_eq!(stats.rfm_commands, 0);
        assert_eq!(stats.forced_rfms, 0);
        assert_eq!(mc.raa_count(0), 0);
    }

    #[test]
    fn ddr5_checkpoint_round_trips_raa_state() {
        use dram_model::Generation;
        use mitigations::RfmIssuer;

        let build = || {
            McBuilder::new(McConfig::single_bank_for_generation(
                Generation::Ddr5_4800,
                65_536,
                None,
            ))
            .defenses_with(|_| {
                let cfg = GrapheneConfig::builder()
                    .row_hammer_threshold(5_000)
                    .timing(Generation::Ddr5_4800.timing())
                    .build()
                    .unwrap();
                Box::new(RfmIssuer::new(Box::new(GrapheneDefense::from_config(&cfg).unwrap())))
            })
            .build()
        };
        let accesses = Synthetic::s3(65_536, 1).take_accesses(60_000);
        let halves = |range: std::ops::Range<usize>| {
            workloads::Trace::from_accesses("half", accesses[range].to_vec()).replay()
        };
        let mut full = build();
        full.run(&mut halves(0..30_000), 30_000);
        assert!(full.raa_count(0) > 0 || full.stats().rfm_commands > 0);
        let text = full.snapshot().unwrap();
        let mut resumed = build();
        resumed.restore(&telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(full.raa_count(0), resumed.raa_count(0));
        let a = full.run(&mut halves(30_000..60_000), 30_000);
        let b = resumed.run(&mut halves(30_000..60_000), 30_000);
        assert_eq!(a, b);
    }

    #[test]
    fn fault_runs_are_bit_reproducible_from_the_seed() {
        let model = DisturbanceModel { t_rh: 5_000, mu: MuModel::Adjacent };
        let run = || {
            let spec = FaultSpec { accesses: 30_000, banks: 1, ..FaultSpec::chaos(77) };
            let mut mc = graphene_mc_with_faults(
                McConfig::single_bank(65_536, Some(model.clone())),
                fault_plan(spec),
            );
            let stats = mc.run(&mut Synthetic::s3(65_536, 1), 30_000);
            (stats, *mc.fault_stats().unwrap())
        };
        assert_eq!(run(), run());
    }
}
