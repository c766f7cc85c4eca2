//! Full-system sharded execution: stream batches, hammer channels in
//! parallel.
//!
//! The legacy runner drives one [`MemoryController`] over the whole
//! geometry. This module drives the channel-sharded [`SystemController`] as
//! a **pipeline**: the routing front end runs on the calling thread,
//! decoding accesses through the configured [`MappingPolicy`] and streaming
//! `batch`-sized chunks of stamped accesses into one bounded SPSC queue per
//! channel ([`crate::spsc`]); the shards — which share no state — drain
//! their queues as long-lived cooperative jobs on the crate's work-stealing
//! [`pool`]. Routing and execution overlap, nothing is materialized
//! up front, and a shard job that finds its queue empty re-enqueues itself
//! so fewer workers than channels can never deadlock the pipeline.
//!
//! The two paths are interchangeable by construction: each channel's queue
//! delivers that channel's accesses in routing order, stamped with the same
//! absolute arrival times the sequential front end would have presented
//! them, and per-shard stats/telemetry are merged deterministically (in
//! channel order) after the pool drains. So [`run_system`] (sequential) and
//! [`run_system_sharded`] (parallel) produce **bit-identical**
//! [`SystemStats`] at every worker count. The integration tests
//! `sharded_equivalence` and `parallel_determinism` pin this against the
//! legacy single-shard path and across 1/2/4/8-thread runs.

use memctrl::{
    MappingPolicy, McBuilder, MemoryController, StampedAccess, SystemController, SystemStats,
    TelemetryTap,
};
use telemetry::{Cadence, Recorder, SharedSink, Snapshot};
use workloads::Workload;

use crate::pool;
use crate::runner::{audit_run, sink_for, InstrumentedFactory, SimConfig};
use crate::scenarios::{DefenseSpec, WorkloadSpec};
use crate::spsc;

/// Batches in flight per channel queue: enough to decouple the router from
/// a momentarily busy shard without ballooning memory (depth × batch
/// accesses buffered per channel).
pub(crate) const QUEUE_DEPTH: usize = 16;

/// Empty polls a shard job tolerates before re-enqueueing itself and
/// releasing its worker — the cooperative yield that keeps the pipeline
/// live when fewer workers than channels are available. Each failed poll
/// yields the timeslice rather than spinning: with fewer cores than
/// pipeline threads (the extreme being a single-core host), a spinning
/// consumer would burn the exact quantum the router needs to refill the
/// queues.
const PUMP_IDLE_POLLS: u32 = 4;

/// A shard's consumer loop: drain the channel queue batch by batch until
/// the router closes it. On a dry spell the job re-enqueues itself (moving
/// to the back of the worker's deque) instead of camping on the worker.
pub(crate) fn pump<'env>(
    shard: &'env mut MemoryController,
    mut rx: spsc::Consumer<'env, Vec<StampedAccess>>,
    sp: &pool::Spawner<'env, '_>,
) {
    let mut idle = 0u32;
    loop {
        // Read `closed` before the pop: closed + empty means end-of-stream,
        // in that order only (see [`spsc::Consumer::is_closed`]).
        let closed = rx.is_closed();
        if let Some(batch) = rx.try_pop() {
            idle = 0;
            shard.try_run_batch(&batch).expect("routed access is in shard range");
        } else if closed {
            return;
        } else {
            idle += 1;
            if idle >= PUMP_IDLE_POLLS {
                sp.spawn(move |sp2| pump(shard, rx, sp2));
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Result of one full-system run (sequential or sharded).
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Defense name.
    pub defense: String,
    /// Workload name.
    pub workload: String,
    /// The address-mapping policy the front end routed with.
    pub policy: MappingPolicy,
    /// Worker threads the shards ran on (1 for the sequential path).
    pub threads: usize,
    /// Batch size of the shard dispatch (accesses per `try_run_batch`).
    pub batch: usize,
    /// Per-channel and merged counters.
    pub stats: SystemStats,
    /// Recorded telemetry, when the campaign wired a recording sink.
    pub snapshot: Option<Snapshot>,
}

/// Builds the sharded system for a campaign: defenses come from the one
/// [`DefenseSpec`] factory (seeded by **global** bank index, so the system
/// is bit-comparable to a whole-geometry controller), and telemetry — when
/// wired — goes through per-shard keyed taps sharing one sink.
fn build_system<'a>(
    sim: &'a SimConfig,
    policy: MappingPolicy,
    defense: &'a DefenseSpec,
    audit: bool,
    shared: &'a Option<SharedSink>,
) -> SystemController {
    let builder = McBuilder::new(sim.system.clone()).mapping(policy);
    match sim.telemetry.as_ref() {
        None => builder.defenses(defense).audit(audit).build_system(),
        Some(spec) => {
            let cadence = Cadence::EveryActs(spec.every_acts);
            builder
                .defenses(&InstrumentedFactory { inner: defense, shared, cadence })
                .audit(audit)
                .telemetry_per_shard(move |channel, offset| {
                    Some(TelemetryTap::keyed(sink_for(shared), cadence, offset, Some(channel)))
                })
                .build_system()
        }
    }
}

fn recording_sink(sim: &SimConfig) -> Option<SharedSink> {
    sim.telemetry.as_ref().and_then(|spec| {
        (!spec.noop)
            .then(|| SharedSink::with_recorder(Recorder::with_ring_capacity(spec.ring_capacity)))
    })
}

/// Finishes a run: per-shard flush + merge, the invariant audit on every
/// shard, and the final scheme-state telemetry sample (mirroring the
/// single-controller runner's end-of-run emit).
fn seal(
    mut system: SystemController,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
    audit: bool,
    shared: Option<SharedSink>,
) -> (SystemStats, Option<Snapshot>) {
    let stats = system.finish();
    if audit {
        for (shard, st) in system.shards().iter().zip(&stats.per_channel) {
            audit_run(shard, st, defense, workload);
        }
    }
    let per_channel = system.geometry().banks_per_channel() as usize;
    let snapshot = shared.map(|s| {
        s.with(|rec| {
            for (c, (shard, st)) in system.shards().iter().zip(&stats.per_channel).enumerate() {
                for b in 0..per_channel {
                    let global = (c * per_channel + b) as u16;
                    shard.defense(b).emit_telemetry(global, st.completion, rec);
                }
            }
        });
        s.snapshot(&format!("{}/{}@{}", workload.name(), defense.name(), system.policy().name()))
    });
    (stats, snapshot)
}

/// Runs one (defense, workload) pair through the sharded system
/// **sequentially**: the front end routes and serves one access at a time
/// on the calling thread. This is the reference the parallel path is
/// measured against in `perf_snapshot`.
pub fn run_system(
    sim: &SimConfig,
    policy: MappingPolicy,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
) -> SystemReport {
    let audit = sim.audit_enabled();
    let shared = recording_sink(sim);
    let mut system = build_system(sim, policy, defense, audit, &shared);
    let geometry = *system.geometry();
    let mut w = workload.build(geometry.total_banks() as u16, geometry.rows_per_bank, sim.seed);
    system
        .try_run(w.as_mut(), sim.accesses)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", defense.name(), workload.name()));
    let (stats, snapshot) = seal(system, defense, workload, audit, shared);
    SystemReport {
        defense: defense.name(),
        workload: workload.name(),
        policy,
        threads: 1,
        batch: 1,
        stats,
        snapshot,
    }
}

/// Runs one (defense, workload) pair through the sharded system in
/// **parallel**: the routing front end streams `batch`-sized chunks of
/// stamped accesses into one bounded SPSC queue per channel while the
/// shards drain their queues concurrently on `threads` pool workers (the
/// router itself rides the calling thread). Routing and execution overlap;
/// nothing is materialized up front. Produces [`SystemStats`] bit-identical
/// to [`run_system`] on the same campaign, at every worker count.
///
/// # Panics
///
/// Panics if `threads` or `batch` is zero, or if routing rejects an access
/// (workload outside the geometry).
pub fn run_system_sharded(
    sim: &SimConfig,
    policy: MappingPolicy,
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
    threads: usize,
    batch: usize,
) -> SystemReport {
    assert!(threads > 0, "need at least one worker thread");
    assert!(batch > 0, "batch of 0 dispatches nothing");
    let audit = sim.audit_enabled();
    let shared = recording_sink(sim);
    let mut system = build_system(sim, policy, defense, audit, &shared);
    let geometry = *system.geometry();
    let mut w = workload.build(geometry.total_banks() as u16, geometry.rows_per_bank, sim.seed);
    let channels = geometry.channels as usize;
    let mut queues: Vec<spsc::SpscQueue<Vec<StampedAccess>>> =
        (0..channels).map(|_| spsc::SpscQueue::new(QUEUE_DEPTH)).collect();
    {
        let (mut router, shards) = system.split_streaming();
        let mut producers = Vec::with_capacity(channels);
        let mut consumers = Vec::with_capacity(channels);
        for q in &mut queues {
            let (tx, rx) = q.split();
            producers.push(tx);
            consumers.push(rx);
        }
        let jobs: Vec<pool::Job<'_>> = shards
            .iter_mut()
            .zip(consumers)
            .map(|(shard, rx)| pool::job(move |sp| pump(shard, rx, sp)))
            .collect();
        pool::run_scoped_with_driver(threads, jobs, move || {
            let mut pending: Vec<Vec<StampedAccess>> =
                (0..channels).map(|_| Vec::with_capacity(batch)).collect();
            for _ in 0..sim.accesses {
                let access = w.next_access();
                let (c, stamped) = router
                    .route_one(&access)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", defense.name(), workload.name()));
                pending[c].push(stamped);
                if pending[c].len() == batch {
                    let full = std::mem::replace(&mut pending[c], Vec::with_capacity(batch));
                    producers[c].push_blocking(full);
                }
            }
            for (c, buf) in pending.into_iter().enumerate() {
                if !buf.is_empty() {
                    producers[c].push_blocking(buf);
                }
            }
            // Dropping the producers closes every queue; the shard jobs
            // drain what remains and the pool winds down.
        });
    }
    let (stats, snapshot) = seal(system, defense, workload, audit, shared);
    SystemReport {
        defense: defense.name(),
        workload: workload.name(),
        policy,
        threads,
        batch,
        stats,
        snapshot,
    }
}

/// The full-system matrix: every (workload, defense) pair through
/// [`run_system_sharded`]. Pairs run back-to-back — each run already
/// parallelizes internally across channels, so nesting another fan-out
/// would only thrash the worker pool.
pub fn run_system_matrix(
    sim: &SimConfig,
    policy: MappingPolicy,
    defenses: &[DefenseSpec],
    workloads: &[WorkloadSpec],
    threads: usize,
    batch: usize,
) -> Vec<SystemReport> {
    let mut reports = Vec::with_capacity(defenses.len() * workloads.len());
    for workload in workloads {
        for defense in defenses {
            reports.push(run_system_sharded(sim, policy, defense, workload, threads, batch));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TelemetrySpec;
    use dram_model::fault::DisturbanceModel;
    use dram_model::geometry::DramGeometry;

    fn small_system(accesses: u64) -> SimConfig {
        let mut sim = SimConfig::micro2020(accesses);
        sim.system.geometry = DramGeometry {
            channels: 4,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 4_096,
        };
        sim.system.fault_model =
            Some(DisturbanceModel { t_rh: 2_000, ..DisturbanceModel::ddr4_50k() });
        sim.audit = true;
        sim
    }

    #[test]
    fn sequential_and_sharded_agree_bit_identically() {
        let sim = small_system(30_000);
        let defense = DefenseSpec::Graphene { t_rh: 2_000, k: 2 };
        let workload = WorkloadSpec::StripedManySided { sides: 4, banks: 16 };
        let seq = run_system(&sim, MappingPolicy::BankInterleaved, &defense, &workload);
        for (threads, batch) in [(1, 64), (4, 64), (4, 7)] {
            let par = run_system_sharded(
                &sim,
                MappingPolicy::BankInterleaved,
                &defense,
                &workload,
                threads,
                batch,
            );
            assert_eq!(seq.stats, par.stats, "threads={threads} batch={batch}");
        }
        assert!(seq.stats.merged.accesses == 30_000);
        assert!(seq.stats.per_channel.iter().all(|s| s.accesses > 0));
    }

    #[test]
    fn same_row_attack_spreads_over_all_channels() {
        let sim = small_system(20_000);
        let report = run_system_sharded(
            &sim,
            MappingPolicy::BankInterleaved,
            &DefenseSpec::None,
            &WorkloadSpec::SameRowAllBanks { banks: 16 },
            2,
            128,
        );
        assert_eq!(report.stats.merged.accesses, 20_000);
        for (c, st) in report.stats.per_channel.iter().enumerate() {
            assert_eq!(st.accesses, 5_000, "channel {c} must see a quarter of the sweep");
        }
    }

    #[test]
    fn recorded_telemetry_does_not_perturb_stats_and_yields_snapshot() {
        let mut para = small_system(10_000);
        para.audit = false;
        // ABACuS shares one counter table across a channel's banks; the
        // telemetry wrappers must go around that shared pool, not replace
        // it with a private table per bank.
        let mut abacus = small_system(40_000);
        abacus.audit = false;
        abacus.system.geometry.channels = 2;
        let cases = [
            (
                para,
                DefenseSpec::Para { p: 0.01 },
                WorkloadSpec::StripedManySided { sides: 2, banks: 16 },
            ),
            (
                abacus,
                DefenseSpec::Abacus { t_rh: 2_000, k: 2 },
                WorkloadSpec::SameRowAllBanks { banks: 8 },
            ),
        ];
        for (plain, defense, workload) in cases {
            let run = |telemetry| {
                let sim = SimConfig { telemetry, ..plain.clone() };
                run_system_sharded(&sim, MappingPolicy::ChannelXor, &defense, &workload, 2, 64)
            };
            let a = run(None);
            let noop = run(Some(TelemetrySpec::noop()));
            let b = run(Some(TelemetrySpec::every_acts(500)));
            let name = defense.name();
            assert_eq!(a.stats, noop.stats, "{name}: noop telemetry must be bit-identical");
            assert_eq!(a.stats, b.stats, "{name}: telemetry must be observation-only");
            assert!(a.snapshot.is_none() && noop.snapshot.is_none());
            let snap = b.snapshot.expect("recording campaign must yield a snapshot");
            assert!(!snap.series.is_empty());
        }
    }

    #[test]
    fn matrix_covers_every_pair() {
        let mut sim = small_system(2_000);
        sim.audit = false;
        let defenses = [DefenseSpec::None, DefenseSpec::Para { p: 0.001 }];
        let workloads = WorkloadSpec::system_set(16);
        let reports =
            run_system_matrix(&sim, MappingPolicy::RowInterleaved, &defenses, &workloads, 2, 64);
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.stats.merged.accesses == 2_000));
    }
}
