//! The full-system controller: channel shards behind a mapping front end.
//!
//! [`SystemController`] models the whole DIMM of the paper's Table III
//! system instead of one flat bank array. Its front end decodes every
//! workload access into a [`SystemAddress`](crate::mapping::SystemAddress)
//! through the configured [`MappingPolicy`] and forwards it — stamped with its absolute arrival
//! time — to the owning channel's shard, a plain [`MemoryController`] over
//! that channel's geometry. Channels share no timing state in DDR4 (each
//! has its own command/data bus), so shards are independent by
//! construction: the batched path buffers routed accesses per channel and
//! flushes them in chunks, and callers that want parallelism can take the
//! per-channel batches from [`SystemController::route_batch`] and drive
//! [`MemoryController::try_run_batch`] on disjoint shards from worker
//! threads.
//!
//! Because shards replay **absolute** timestamps and all refresh/clock
//! state is per-channel, a sharded run is bit-identical to running each
//! channel's sub-trace through a legacy single-shard controller — the
//! invariant the equivalence tests pin.

use dram_model::geometry::DramGeometry;
use dram_model::timing::Picoseconds;
use telemetry::json::JsonValue;
use workloads::{Access, Workload};

use crate::ckpt::CkptError;
use crate::controller::{McError, MemoryController, StampedAccess};
use crate::mapping::MappingPolicy;
use crate::stats::RunStats;

/// Per-channel and merged statistics of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// One [`RunStats`] per channel, in channel order.
    pub per_channel: Vec<RunStats>,
    /// The full-system reduction: counters summed, completion maxed,
    /// streams merged element-wise (see [`RunStats::merge`]).
    pub merged: RunStats,
}

/// Shared routing logic of the sequential front end and the borrowed-out
/// [`SystemRouter`]: advances the global clock by the access's gap and
/// decodes it into `(channel, stamped access)`.
fn route_stamped(
    geometry: &DramGeometry,
    policy: MappingPolicy,
    clock: &mut Picoseconds,
    routed: &mut u64,
    access: &Access,
) -> Result<(usize, StampedAccess), McError> {
    *clock += access.gap;
    let index = *routed;
    *routed += 1;
    match policy.route(geometry, access.bank, access.row) {
        Ok(addr) => Ok((
            usize::from(addr.coord.channel),
            StampedAccess {
                bank: MappingPolicy::shard_bank_index(geometry, addr) as u16,
                row: addr.row,
                at: *clock,
                stream: access.stream,
            },
        )),
        Err(addr) => {
            Err(McError::AddressOutOfRange { addr, geometry: *geometry, access_index: index })
        }
    }
}

/// The routing front end of a [`SystemController`], borrowed out by
/// [`SystemController::split_streaming`] so routing and shard execution can
/// proceed on different threads at the same time.
#[derive(Debug)]
pub struct SystemRouter<'a> {
    geometry: &'a DramGeometry,
    policy: MappingPolicy,
    clock: &'a mut Picoseconds,
    routed: &'a mut u64,
}

impl SystemRouter<'_> {
    /// Routes one access exactly as the owning controller's sequential
    /// front end would: the global clock advances by the access's gap and
    /// the stamped result carries the absolute arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] when the access does not
    /// decode into the geometry (the clock still advances, mirroring the
    /// sequential path).
    pub fn route_one(&mut self, access: &Access) -> Result<(usize, StampedAccess), McError> {
        route_stamped(self.geometry, self.policy, self.clock, self.routed, access)
    }

    /// The full-system geometry the router decodes into.
    pub fn geometry(&self) -> &DramGeometry {
        self.geometry
    }
}

/// Channel-sharded memory controller for full-system simulation.
///
/// Built by [`McBuilder::build_system`](crate::McBuilder::build_system).
///
/// # Example
///
/// ```
/// use memctrl::{McBuilder, McConfig};
/// use workloads::{ProxyWorkload, SpecPreset, Workload};
///
/// let mut system = McBuilder::new(McConfig::micro2020_no_oracle()).build_system();
/// let mut w = ProxyWorkload::from_preset(SpecPreset::Libquantum, 64, 65_536, 5);
/// system.run_batched(&w.take_accesses(10_000));
/// let stats = system.finish();
/// assert_eq!(stats.merged.accesses, 10_000);
/// ```
pub struct SystemController {
    geometry: DramGeometry,
    policy: MappingPolicy,
    shards: Vec<MemoryController>,
    /// Bounded per-channel reorder buffers of the batched path.
    buffers: Vec<Vec<StampedAccess>>,
    reorder_depth: usize,
    /// Global arrival clock, accumulated from workload gaps at routing time.
    clock: Picoseconds,
    /// Accesses routed so far; numbers the `access_index` of routing errors.
    routed: u64,
}

impl std::fmt::Debug for SystemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemController")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy)
            .field("shards", &self.shards.len())
            .field("routed", &self.routed)
            .finish()
    }
}

impl SystemController {
    pub(crate) fn from_shards(
        geometry: DramGeometry,
        policy: MappingPolicy,
        shards: Vec<MemoryController>,
        reorder_depth: usize,
    ) -> Self {
        let channels = shards.len();
        SystemController {
            geometry,
            policy,
            shards,
            buffers: (0..channels).map(|_| Vec::with_capacity(reorder_depth)).collect(),
            reorder_depth,
            clock: 0,
            routed: 0,
        }
    }

    /// The full-system geometry (each shard owns its
    /// [`channel_geometry`](DramGeometry::channel_geometry)).
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The address-mapping policy of the front end.
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    /// Global arrival clock (ps) of the routing front end.
    pub fn clock(&self) -> Picoseconds {
        self.clock
    }

    /// The per-channel shards, in channel order.
    pub fn shards(&self) -> &[MemoryController] {
        &self.shards
    }

    /// Mutable shard access — this is how a parallel driver obtains
    /// disjoint `&mut` controllers (via `iter_mut`) to pair with the
    /// batches [`route_batch`](Self::route_batch) returns.
    pub fn shards_mut(&mut self) -> &mut [MemoryController] {
        &mut self.shards
    }

    /// Routes one access: advances the global clock by its gap and decodes
    /// it into `(channel, stamped access)`.
    fn route_one(&mut self, access: &Access) -> Result<(usize, StampedAccess), McError> {
        route_stamped(&self.geometry, self.policy, &mut self.clock, &mut self.routed, access)
    }

    /// Splits the controller into its routing front end and the shard
    /// array, so a driver thread can keep routing (and streaming batches
    /// out) while worker threads hold disjoint `&mut` shards — the borrow
    /// shape the parallel SPSC pipeline in `rh-sim` needs. The router
    /// mutates the same clock/rout-count state as [`try_run`](Self::try_run),
    /// so routing through it is bit-identical to the sequential front end.
    pub fn split_streaming(&mut self) -> (SystemRouter<'_>, &mut [MemoryController]) {
        (
            SystemRouter {
                geometry: &self.geometry,
                policy: self.policy,
                clock: &mut self.clock,
                routed: &mut self.routed,
            },
            &mut self.shards,
        )
    }

    /// Pushes everything buffered for channel `c` through its shard.
    fn flush_channel(&mut self, c: usize) {
        if self.buffers[c].is_empty() {
            return;
        }
        // invariant: route_one validated each access against the geometry
        // before buffering, so the shard cannot reject it.
        self.shards[c].try_run_batch(&self.buffers[c]).expect("routed accesses are in shard range");
        self.buffers[c].clear();
    }

    fn flush_all(&mut self) {
        for c in 0..self.buffers.len() {
            self.flush_channel(c);
        }
    }

    /// Runs `n` accesses from `workload` through the front end one at a
    /// time — the unbatched reference path.
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] on the first access that does
    /// not decode into the geometry; prior accesses remain applied.
    pub fn try_run(&mut self, workload: &mut dyn Workload, n: u64) -> Result<(), McError> {
        for _ in 0..n {
            let access = workload.next_access();
            let (c, stamped) = self.route_one(&access)?;
            self.shards[c]
                .try_run_batch(std::slice::from_ref(&stamped))
                // invariant: route_one already validated the decode.
                .expect("routed access is in shard range");
        }
        Ok(())
    }

    /// Ingests a chunk of accesses through bounded per-channel reorder
    /// buffers: each access is routed and stamped immediately (so arrival
    /// times are exact), buffered on its channel, and forced through the
    /// shard whenever the channel's buffer reaches the configured depth.
    /// All buffers are flushed before returning, so statistics are complete
    /// after every call.
    ///
    /// Within a channel the buffer is FIFO — execution preserves stamp
    /// order — so the batching changes *when* work is done, never the
    /// simulated outcome ([`SystemStats`] are bit-identical to
    /// [`try_run`](Self::try_run) on the same trace).
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] on the first access that does
    /// not decode into the geometry (`access_index` counts from the start
    /// of the run, not the chunk). Buffered work is flushed first, so prior
    /// accesses remain applied.
    pub fn try_run_batched(&mut self, accesses: &[Access]) -> Result<(), McError> {
        for access in accesses {
            let (c, stamped) = match self.route_one(access) {
                Ok(routed) => routed,
                Err(e) => {
                    self.flush_all();
                    return Err(e);
                }
            };
            self.buffers[c].push(stamped);
            if self.buffers[c].len() >= self.reorder_depth {
                self.flush_channel(c);
            }
        }
        self.flush_all();
        Ok(())
    }

    /// Like [`try_run_batched`](Self::try_run_batched), panicking on
    /// routing errors.
    ///
    /// # Panics
    ///
    /// Panics if an access does not decode into the geometry.
    pub fn run_batched(&mut self, accesses: &[Access]) {
        self.try_run_batched(accesses).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Routes a whole chunk without executing it, returning one stamped
    /// batch per channel — the scatter half of parallel sharded execution.
    /// Feed each batch to the matching shard's
    /// [`try_run_batch`](MemoryController::try_run_batch) (from worker
    /// threads if desired; shards are independent), then call
    /// [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Returns [`McError::AddressOutOfRange`] on the first access that does
    /// not decode into the geometry; in that case **none** of the chunk has
    /// been executed (routing is side-effect-free on the shards).
    pub fn route_batch(&mut self, accesses: &[Access]) -> Result<Vec<Vec<StampedAccess>>, McError> {
        let mut batches: Vec<Vec<StampedAccess>> = self
            .shards
            .iter()
            .map(|_| Vec::with_capacity(accesses.len() / self.shards.len().max(1) + 1))
            .collect();
        for access in accesses {
            let (c, stamped) = self.route_one(access)?;
            batches[c].push(stamped);
        }
        Ok(batches)
    }

    /// Flushes any buffered work and telemetry and returns per-channel plus
    /// merged statistics. Callable repeatedly; each call snapshots the
    /// totals so far.
    pub fn finish(&mut self) -> SystemStats {
        self.flush_all();
        let per_channel: Vec<RunStats> = self.shards.iter_mut().map(|s| s.finish_run()).collect();
        let mut merged = RunStats::default();
        for stats in &per_channel {
            merged.merge(stats);
        }
        SystemStats { per_channel, merged }
    }

    /// True if no shard's ground-truth oracle observed a bit flip.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(MemoryController::is_clean)
    }

    /// Accesses routed so far by the front end.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Renders the full system's dynamic state for a checkpoint: one line
    /// of compact JSON per channel shard ([`MemoryController::snapshot`]),
    /// in channel order, each followed by `\n`. With the front end's
    /// [`clock`](Self::clock) and [`routed`](Self::routed) count it is all
    /// that [`restore`](Self::restore) needs to resume a freshly built
    /// system of the same configuration bit-identically.
    ///
    /// # Errors
    ///
    /// Refuses while the batched path holds buffered work (checkpoint
    /// between [`try_run_batched`](Self::try_run_batched) calls, which
    /// always flush), and propagates any shard's refusal (oracle, fault
    /// plan, command log, telemetry tap, or an uncheckpointable defense).
    pub fn snapshot(&self) -> Result<String, CkptError> {
        let mut out = String::new();
        self.snapshot_into(&mut out)?;
        Ok(out)
    }

    /// [`snapshot`](Self::snapshot), appended to `out`. Returns where each
    /// shard's line ends in `out` (before its `\n`), so a checkpoint writer
    /// can frame the lines where they lie. On error `out` may end in a
    /// partial line.
    ///
    /// # Errors
    ///
    /// As [`snapshot`](Self::snapshot).
    pub fn snapshot_into(&self, out: &mut String) -> Result<Vec<usize>, CkptError> {
        if self.buffers.iter().any(|b| !b.is_empty()) {
            return Err(CkptError::Unsupported { what: "with buffered unexecuted accesses" });
        }
        self.shards
            .iter()
            .enumerate()
            .map(|(c, s)| {
                s.snapshot_into(out)
                    .map_err(|e| CkptError::Channel { channel: c, source: Box::new(e) })?;
                let end = out.len();
                out.push('\n');
                Ok(end)
            })
            .collect()
    }

    /// Replays a checkpoint into this system, which must have been built
    /// from the same configuration (the snapshot stores no geometry or
    /// policy; the builder pins them): the front end's `clock` and `routed`
    /// count plus the parse of every shard line [`snapshot`](Self::snapshot)
    /// rendered, in channel order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or mismatched field —
    /// wrong channel count, or any shard-level rejection. Shards restore in
    /// channel order; on error, earlier shards may already hold the
    /// checkpoint's state, so discard the system rather than resuming it.
    pub fn restore(
        &mut self,
        clock: Picoseconds,
        routed: u64,
        shards: &[JsonValue],
    ) -> Result<(), CkptError> {
        if shards.len() != self.shards.len() {
            return Err(CkptError::ShardCount { found: shards.len(), have: self.shards.len() });
        }
        for (c, shard_state) in shards.iter().enumerate() {
            self.shards[c]
                .restore(shard_state)
                .map_err(|e| CkptError::Channel { channel: c, source: Box::new(e) })?;
        }
        self.clock = clock;
        self.routed = routed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::McBuilder;
    use crate::config::McConfig;
    use dram_model::geometry::RowId;
    use workloads::{ProxyWorkload, SpecPreset};

    fn system(depth: usize) -> SystemController {
        McBuilder::new(McConfig::micro2020_no_oracle()).reorder_depth(depth).build_system()
    }

    fn trace(n: usize) -> Vec<Access> {
        ProxyWorkload::from_preset(SpecPreset::Libquantum, 64, 65_536, 5).take_accesses(n)
    }

    #[test]
    fn batched_run_serves_every_access() {
        let mut sys = system(64);
        sys.run_batched(&trace(20_000));
        let stats = sys.finish();
        assert_eq!(stats.merged.accesses, 20_000);
        assert_eq!(stats.per_channel.len(), 4);
        assert_eq!(stats.per_channel.iter().map(|s| s.accesses).sum::<u64>(), 20_000);
        // Bank-interleaved routing spreads this 64-bank trace over all four
        // channels.
        assert!(stats.per_channel.iter().all(|s| s.accesses > 0));
        assert!(sys.is_clean());
    }

    #[test]
    fn batched_and_unbatched_agree_bit_identically() {
        let accesses = trace(10_000);
        let mut batched = system(7); // awkward depth to exercise partial flushes
        batched.run_batched(&accesses);
        let mut unbatched = system(64);
        let mut replay = workloads::Trace::from_accesses("trace", accesses).replay();
        unbatched.try_run(&mut replay, 10_000).unwrap();
        assert_eq!(batched.finish(), unbatched.finish());
    }

    #[test]
    fn route_batch_plus_manual_shard_drive_matches_batched() {
        let accesses = trace(8_000);
        let mut manual = system(64);
        let batches = manual.route_batch(&accesses).unwrap();
        for (shard, batch) in manual.shards_mut().iter_mut().zip(&batches) {
            shard.try_run_batch(batch).unwrap();
        }
        let mut auto = system(64);
        auto.run_batched(&accesses);
        assert_eq!(manual.finish(), auto.finish());
    }

    #[test]
    fn routing_error_names_the_missing_address() {
        let mut sys = system(64);
        let bad = Access { bank: 64, row: RowId(1), gap: 1_000, stream: 0 };
        let good = trace(5);
        let err =
            sys.try_run_batched(&[good[0], good[1], bad]).expect_err("bank 64 of 64 must fail");
        match err {
            McError::AddressOutOfRange { addr, geometry, access_index } => {
                assert_eq!(addr.coord.channel, 4, "dense decode of the 65th bank");
                assert_eq!(geometry.channels, 4);
                assert_eq!(access_index, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // The two good accesses were flushed before the error surfaced.
        assert_eq!(sys.finish().merged.accesses, 2);
    }

    #[test]
    fn system_checkpoint_resumes_bit_identically_through_json_text() {
        let accesses = trace(40_000);
        let mut full = system(64);
        full.run_batched(&accesses[..20_000]);
        let text = full.snapshot().unwrap();
        assert_eq!(text.lines().count(), 4, "one line per channel shard");
        let shards: Vec<JsonValue> =
            text.lines().map(|l| telemetry::json::parse(l).unwrap()).collect();
        let mut resumed = system(64);
        resumed.restore(full.clock(), full.routed(), &shards).unwrap();
        full.run_batched(&accesses[20_000..]);
        resumed.run_batched(&accesses[20_000..]);
        assert_eq!(full.clock(), resumed.clock());
        assert_eq!(full.routed(), resumed.routed());
        assert_eq!(full.finish(), resumed.finish());
        assert_eq!(full.snapshot().unwrap(), resumed.snapshot().unwrap());
    }

    #[test]
    fn snapshot_into_reports_where_each_shard_line_ends() {
        let mut sys = system(64);
        sys.run_batched(&trace(2_000));
        let mut out = String::from("header\n");
        let ends = sys.snapshot_into(&mut out).unwrap();
        assert_eq!(&out["header\n".len()..], sys.snapshot().unwrap());
        let mut start = "header\n".len();
        for (c, &end) in ends.iter().enumerate() {
            assert_eq!(&out[end..=end], "\n");
            assert_eq!(out[start..end], sys.shards()[c].snapshot().unwrap());
            start = end + 1;
        }
        assert_eq!(start, out.len());
    }

    #[test]
    fn system_restore_rejects_wrong_shard_count() {
        let mut sys = system(64);
        let err = sys.restore(0, 0, &[]).unwrap_err();
        assert!(matches!(err, CkptError::ShardCount { found: 0, have: _ }), "{err:?}");
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn global_clock_accumulates_gaps() {
        let mut sys = system(64);
        sys.run_batched(&[
            Access { bank: 0, row: RowId(1), gap: 1_000, stream: 0 },
            Access { bank: 1, row: RowId(1), gap: 2_000, stream: 0 },
        ]);
        assert_eq!(sys.clock(), 3_000);
        // The two accesses land on different channels under bank
        // interleaving, each stamped with the *global* arrival time.
        let stats = sys.finish();
        assert_eq!(stats.per_channel[0].accesses, 1);
        assert_eq!(stats.per_channel[1].accesses, 1);
    }
}
