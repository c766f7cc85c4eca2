//! Full-system sharded execution: stream batches, hammer channels in
//! parallel.
//!
//! The legacy runner drives one [`MemoryController`] over the whole
//! geometry. This module drives the channel-sharded [`SystemController`] as
//! a **pipeline**: the routing front end runs on the calling thread,
//! decoding accesses through the configured [`MappingPolicy`] and streaming
//! `batch`-sized chunks of stamped accesses into one bounded SPSC ring per
//! channel ([`crate::spsc`]). A channel's shard and the consumer half of its
//! ring form a *lane* behind one mutex that is only ever taken with
//! `try_lock`. One function runs work: it tries the lanes from a starting
//! lane and runs one batch of the first free lane that has one. Scoped
//! worker threads loop on it, and the router calls it whenever a push finds
//! a ring full, so the router executes shard batches instead of waiting for
//! a worker. Routing and execution overlap, and nothing is materialized up
//! front.
//!
//! The two paths are interchangeable by construction. A batch leaves its
//! ring only under its lane's lock and runs to completion before the lock
//! is released, so each shard executes its channel's batches in routing
//! order whichever thread runs them. Every access is stamped with the same
//! absolute arrival time the sequential front end would have presented,
//! and per-shard stats/telemetry are merged deterministically (in channel
//! order) after the pipeline drains. So [`run_system`] (sequential) and
//! [`run_system_sharded`] (parallel) produce **bit-identical**
//! [`SystemStats`] at every worker count. The integration tests
//! `sharded_equivalence` and `parallel_determinism` pin this against the
//! legacy single-shard path and across 1/2/4/8-thread runs.
//!
//! A batch that panics poisons its lane. Every thread then stops at its
//! next look at the lanes, and the panic is re-raised on the calling thread
//! once all of them have stopped.

use std::panic::resume_unwind;
use std::sync::{Mutex, TryLockError};

use memctrl::{
    MappingPolicy, McBuilder, MemoryController, StampedAccess, SystemController, SystemRouter,
    SystemStats, TelemetryTap,
};
use telemetry::{Cadence, Recorder, SharedSink, Snapshot};
use workloads::Workload;

use crate::runner::{audit_run, sink_for, InstrumentedFactory, SimConfig};
use crate::scenarios::{DefenseSpec, WorkloadSpec};
use crate::spsc;

/// Batches in flight per channel ring: enough to decouple the router from
/// a momentarily busy shard without ballooning memory (depth × batch
/// accesses buffered per channel).
const QUEUE_DEPTH: usize = 16;

type Batch = Vec<StampedAccess>;

/// One channel's shard and the consumer half of its ring.
struct Lane<'a> {
    shard: &'a mut MemoryController,
    rx: spsc::Consumer<'a, Batch>,
}

/// What one [`run_ready`] call did.
#[derive(Debug, PartialEq, Eq)]
enum Ready {
    /// Ran one batch of this lane.
    Ran(usize),
    /// Nothing runnable: every lane is empty or busy on another thread.
    Idle,
    /// Every lane is closed and empty, or a batch panicked and poisoned
    /// its lane.
    Done,
}

/// Tries the lanes from `start` on and runs one batch of the first unlocked
/// lane that has one.
fn run_ready(lanes: &[Mutex<Lane<'_>>], start: usize) -> Ready {
    let mut open = false;
    for i in (start..lanes.len()).chain(0..start) {
        let mut lane = match lanes[i].try_lock() {
            Ok(lane) => lane,
            Err(TryLockError::WouldBlock) => {
                open = true;
                continue;
            }
            Err(TryLockError::Poisoned(_)) => return Ready::Done,
        };
        // Read `closed` before the pop: closed + empty means end-of-stream,
        // in that order only (see [`spsc::Consumer::is_closed`]).
        let closed = lane.rx.is_closed();
        if let Some(batch) = lane.rx.try_pop() {
            // invariant: the router validated every access against the
            // geometry before batching it.
            lane.shard.try_run_batch(&batch).expect("routed access is in shard range");
            return Ready::Ran(i);
        }
        open |= !closed;
    }
    if open {
        Ready::Idle
    } else {
        Ready::Done
    }
}

/// The lane loop: runs batches until the lanes are done, restarting each
/// search from the lane last run so a channel's tables stay in one core's
/// cache.
fn work(lanes: &[Mutex<Lane<'_>>], mut start: usize) {
    loop {
        match run_ready(lanes, start) {
            Ready::Ran(lane) => start = lane,
            Ready::Idle => std::thread::yield_now(),
            Ready::Done => return,
        }
    }
}

/// The router's push into lane `c`'s ring. While the ring is full it runs
/// queued batches itself, starting at `c`, and yields only when nothing is
/// runnable. Returns `false`, dropping `batch`, once a lane is poisoned.
fn push(
    tx: &mut spsc::Producer<'_, Batch>,
    lanes: &[Mutex<Lane<'_>>],
    c: usize,
    mut batch: Batch,
) -> bool {
    loop {
        match tx.try_push(batch) {
            Ok(()) => return true,
            Err(back) => batch = back,
        }
        match run_ready(lanes, c) {
            Ready::Ran(_) => {}
            Ready::Idle => std::thread::yield_now(),
            Ready::Done => return false,
        }
    }
}

/// The router's loop: takes `n` routed accesses from `next`, batches them
/// per channel and pushes each full batch, then the ragged tails. Stops
/// early once a lane is poisoned; the caller's join re-raises that panic.
fn route_into<E>(
    producers: &mut [spsc::Producer<'_, Batch>],
    lanes: &[Mutex<Lane<'_>>],
    n: u64,
    batch: usize,
    mut next: impl FnMut() -> Result<(usize, StampedAccess), E>,
) -> Result<(), E> {
    let mut pending: Vec<Batch> = (0..lanes.len()).map(|_| Vec::with_capacity(batch)).collect();
    for _ in 0..n {
        let (c, stamped) = next()?;
        pending[c].push(stamped);
        if pending[c].len() == batch {
            let full = std::mem::replace(&mut pending[c], Vec::with_capacity(batch));
            if !push(&mut producers[c], lanes, c, full) {
                return Ok(());
            }
        }
    }
    for (c, tail) in pending.into_iter().enumerate() {
        if !tail.is_empty() && !push(&mut producers[c], lanes, c, tail) {
            return Ok(());
        }
    }
    Ok(())
}

/// The streaming core both runners share: `route` produces `n` routed
/// accesses on the calling thread, which batches them into the channel
/// rings while `threads` scoped workers run the lane loop. When routing
/// ends, or `route` fails, the rings close and the calling thread joins
/// the lane loop until every ring is drained.
///
/// # Errors
///
/// The first error `route` returns. The batches pushed before it have run
/// and the rest are dropped, so the system is left partially advanced.
///
/// # Panics
///
/// Re-raises the first panic a batch or `route` hit, once every thread has
/// stopped.
pub(crate) fn stream<E>(
    system: &mut SystemController,
    n: u64,
    threads: usize,
    batch: usize,
    mut route: impl FnMut(&mut SystemRouter<'_>) -> Result<(usize, StampedAccess), E>,
) -> Result<(), E> {
    let channels = system.geometry().channels as usize;
    let mut rings: Vec<spsc::SpscQueue<Batch>> =
        (0..channels).map(|_| spsc::SpscQueue::new(QUEUE_DEPTH)).collect();
    let (mut router, shards) = system.split_streaming();
    let (mut producers, lanes): (Vec<_>, Vec<_>) = rings
        .iter_mut()
        .zip(shards)
        .map(|(ring, shard)| {
            let (tx, rx) = ring.split();
            (tx, Mutex::new(Lane { shard, rx }))
        })
        .unzip();
    let lanes = &lanes[..];
    let (routed, panic) = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads).map(|w| scope.spawn(move || work(lanes, w % channels))).collect();
        let routed = route_into(&mut producers, lanes, n, batch, || route(&mut router));
        // Dropping the producers closes the rings. (If this thread unwinds
        // instead, the scope drops them, the workers stop, and the scope
        // re-raises this thread's panic.)
        drop(producers);
        work(lanes, 0);
        let mut panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        (routed, panic)
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    routed
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
    /// Worker threads that ran shard batches (1 for the sequential path).
    /// The router is one more thread, and it runs batches too whenever a
    /// ring is full.
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
            audit_run(shard, st, workload);
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
/// stamped accesses into one bounded SPSC ring per channel while `threads`
/// worker threads run the shards' batches. The router rides the calling
/// thread and runs batches too whenever a ring is full. Routing and
/// execution overlap; nothing is materialized up front. Produces
/// [`SystemStats`] bit-identical to [`run_system`] on the same campaign, at
/// every worker count.
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
    stream(&mut system, sim.accesses, threads, batch, |router| router.route_one(&w.next_access()))
        .unwrap_or_else(|e| panic!("{}/{}: {e}", defense.name(), workload.name()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TelemetrySpec;
    use dram_model::fault::DisturbanceModel;
    use dram_model::geometry::DramGeometry;
    use dram_model::RowId;
    use memctrl::McConfig;

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
    fn router_runs_the_queued_batch_when_its_ring_is_full() {
        // No worker thread runs: with a one-slot ring the second push only
        // returns if the router ran the first batch on this thread.
        let build = || {
            McBuilder::new(McConfig::single_bank(4_096, None))
                .defenses(&DefenseSpec::Graphene { t_rh: 2_000, k: 2 })
                .build()
        };
        let accesses: Vec<StampedAccess> = (0..128u64)
            .map(|i| StampedAccess {
                bank: 0,
                row: RowId((i * 37 % 4_096) as u32),
                at: i * 40_000,
                stream: 0,
            })
            .collect();
        let (first, second) = accesses.split_at(64);
        let mut shard = build();
        let mut ring = spsc::SpscQueue::new(1);
        let (mut tx, rx) = ring.split();
        let lanes = [Mutex::new(Lane { shard: &mut shard, rx })];
        assert!(push(&mut tx, &lanes, 0, first.to_vec()));
        assert!(push(&mut tx, &lanes, 0, second.to_vec()));
        let mut reference = build();
        reference.try_run_batch(first).unwrap();
        let ran = lanes[0].lock().unwrap().shard.stats().clone();
        assert_eq!(ran.accesses, 64);
        assert_eq!(&ran, reference.stats(), "the router must have run exactly the first batch");
        drop(tx);
        assert_eq!(run_ready(&lanes, 0), Ready::Ran(0));
        assert_eq!(run_ready(&lanes, 0), Ready::Done);
        reference.try_run_batch(second).unwrap();
        assert_eq!(shard.finish_run(), reference.finish_run());
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
}
