//! The per-bank Graphene engine: reset-window scheduling plus the counter
//! table, producing Nearby-Row-Refresh requests.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

use telemetry::MetricsSink;

use crate::cam::CamStats;
use crate::config::{ConfigError, GrapheneConfig, GrapheneParams};
use crate::table::{CounterTable, TableSnapshot, TableUpdate, MAX_ENTRIES};

/// A request to refresh the neighbours of an aggressor row.
///
/// The memory controller serves it as one Nearby Row Refresh (NRR)
/// command, the paper's DRAM-protocol extension (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NrrRequest {
    /// The aggressor row whose estimated count reached a multiple of `T`.
    pub aggressor: RowId,
    /// Rows to refresh on each side (the configured blast radius).
    pub radius: u32,
}

impl NrrRequest {
    /// Number of victim rows this request refreshes (ignoring bank-edge
    /// clipping).
    pub fn victim_rows(&self) -> u64 {
        2 * u64::from(self.radius)
    }
}

/// Operation counters of one Graphene instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrapheneStats {
    /// Activations processed.
    pub activations: u64,
    /// NRR requests issued.
    pub nrrs_issued: u64,
    /// Victim rows requested across all NRRs (2 × radius each).
    pub victim_rows_requested: u64,
    /// Reset windows completed (table resets).
    pub table_resets: u64,
    /// Occupied entries evicted by Misra-Gries replacement (spillover-count
    /// matches that displaced a tracked row).
    pub evictions: u64,
}

/// The full dynamic state of one [`Graphene`] engine, as captured by
/// [`Graphene::snapshot`] and replayed by [`Graphene::restore`] —
/// the unit of per-bank state in a run checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrapheneSnapshot {
    /// The counter table's architectural state.
    pub table: TableSnapshot,
    /// Index of the reset window the engine is currently in.
    pub current_window: u64,
    /// Operation counters.
    pub stats: GrapheneStats,
    /// NRRs issued since the last window roll.
    pub nrrs_this_window: u64,
}

/// Graphene for a single DRAM bank.
///
/// Feed every ACT of the bank to [`Graphene::on_activation`]; issue an NRR
/// whenever it returns one. The engine resets its table automatically at
/// reset-window boundaries (windows are aligned to multiples of
/// `tREFW / k` from time zero, matching a controller that derives the reset
/// tick from its refresh counter).
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use graphene_core::{Graphene, GrapheneConfig};
///
/// # fn main() -> Result<(), graphene_core::ConfigError> {
/// let mut g = Graphene::from_config(&GrapheneConfig::micro2020())?;
/// let t = g.params().tracking_threshold;
/// let mut nrrs = 0;
/// for i in 0..(2 * t) {
///     if g.on_activation(RowId(42), i * 45_000).is_some() {
///         nrrs += 1;
///     }
/// }
/// assert_eq!(nrrs, 2); // one NRR per multiple of T
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graphene {
    params: GrapheneParams,
    table: CounterTable,
    current_window: u64,
    stats: GrapheneStats,
    /// NRRs issued since the last window roll (Figure 6's per-window count).
    nrrs_this_window: u64,
}

impl Graphene {
    /// Creates an engine from already-derived parameters.
    pub fn new(params: GrapheneParams) -> Self {
        Graphene {
            table: CounterTable::new(params.n_entry, params.tracking_threshold),
            params,
            current_window: 0,
            stats: GrapheneStats::default(),
            nrrs_this_window: 0,
        }
    }

    /// Derives parameters from `config` and creates the engine.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the derivation, and returns
    /// [`ConfigError::TooManyEntries`] when the derived table exceeds the
    /// 65,535 entries a [`CounterTable`] can hold (DDR4 with `k = 2` below
    /// `T_RH` = 66).
    pub fn from_config(config: &GrapheneConfig) -> Result<Self, ConfigError> {
        let params = config.derive()?;
        if params.n_entry > MAX_ENTRIES {
            return Err(ConfigError::TooManyEntries { n_entry: params.n_entry });
        }
        Ok(Self::new(params))
    }

    /// The derived parameters this engine runs with.
    pub fn params(&self) -> &GrapheneParams {
        &self.params
    }

    /// Read access to the counter table.
    pub fn table(&self) -> &CounterTable {
        &self.table
    }

    /// Mutable access to the counter table — fault-injection and test
    /// support (e.g. [`CounterTable::corrupt_count_bit`]); production code
    /// drives the engine exclusively through
    /// [`on_activation`](Self::on_activation).
    pub fn table_mut(&mut self) -> &mut CounterTable {
        &mut self.table
    }

    /// Operation counters.
    pub fn stats(&self) -> &GrapheneStats {
        &self.stats
    }

    /// CAM access counters (delegates to the table).
    pub fn cam_stats(&self) -> &CamStats {
        self.table.cam_stats()
    }

    /// Processes one activation of `row` at absolute time `now` and returns
    /// the NRR to issue, if the row's estimated count reached a multiple of
    /// `T`.
    ///
    /// Crossing a reset-window boundary resets the table first, so a caller
    /// may jump arbitrarily far forward in time between calls.
    pub fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Option<NrrRequest> {
        let window = now / self.params.reset_window;
        if window != self.current_window {
            self.table.reset();
            self.stats.table_resets += 1;
            self.nrrs_this_window = 0;
            self.current_window = window;
        }
        self.stats.activations += 1;
        let update = self.table.process_activation(row);
        if let TableUpdate::Replaced { evicted: Some(_), .. } = update {
            self.stats.evictions += 1;
        }
        if update.triggered() {
            let req = NrrRequest { aggressor: row, radius: self.params.blast_radius };
            self.stats.nrrs_issued += 1;
            self.nrrs_this_window += 1;
            self.stats.victim_rows_requested += req.victim_rows();
            Some(req)
        } else {
            None
        }
    }

    /// NRRs issued within the current reset window (cleared on each window
    /// roll) — the quantity Figure 6 bounds by `⌊W/T⌋`.
    pub fn nrrs_this_window(&self) -> u64 {
        self.nrrs_this_window
    }

    /// Emits the engine's trajectory metrics for `bank` at time `now`:
    /// spillover level, table occupancy, cumulative evictions, per-window
    /// and cumulative NRR counts. Called by instrumentation wrappers at
    /// their flush cadence; a disabled sink returns immediately.
    pub fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn MetricsSink) {
        if !sink.enabled() {
            return;
        }
        sink.sample("graphene.spillover", bank, now, self.table.spillover() as f64);
        sink.sample("graphene.occupancy", bank, now, self.table.occupancy() as f64);
        sink.sample("graphene.evictions", bank, now, self.stats.evictions as f64);
        sink.sample("graphene.window_nrrs", bank, now, self.nrrs_this_window as f64);
        sink.sample("graphene.nrrs", bank, now, self.stats.nrrs_issued as f64);
    }

    /// Captures the engine's full dynamic state — counter table, window
    /// position, statistics — for later [`restore`](Self::restore). The
    /// derived parameters are *not* captured; the restoring engine pins
    /// them through its own construction, so a snapshot can only be
    /// replayed into an engine built from the same configuration.
    pub fn snapshot(&self) -> GrapheneSnapshot {
        GrapheneSnapshot {
            table: self.table.snapshot(),
            current_window: self.current_window,
            stats: self.stats,
            nrrs_this_window: self.nrrs_this_window,
        }
    }

    /// Replays `snap`, after which the engine continues bit-identically to
    /// the engine the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Propagates the table's dimension check — restoring into an engine
    /// derived from a different configuration is refused.
    pub fn restore(&mut self, snap: &GrapheneSnapshot) -> Result<(), String> {
        self.table.restore(&snap.table)?;
        self.current_window = snap.current_window;
        self.stats = snap.stats;
        self.nrrs_this_window = snap.nrrs_this_window;
        Ok(())
    }

    /// Forces a table reset (e.g. for tests or an externally driven window).
    pub fn force_reset(&mut self) {
        self.table.reset();
        self.stats.table_resets += 1;
        self.nrrs_this_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_model::timing::DramTiming;

    fn engine() -> Graphene {
        Graphene::from_config(&GrapheneConfig::micro2020()).unwrap()
    }

    #[test]
    fn paper_parameters_flow_through() {
        let g = engine();
        assert_eq!(g.params().tracking_threshold, 8_333);
        assert_eq!(g.params().n_entry, 81);
        assert_eq!(g.params().blast_radius, 1);
    }

    #[test]
    fn from_config_refuses_tables_the_slot_index_cannot_hold() {
        // DDR4 with k = 2: T_RH 66 sizes 61,745 entries, T_RH 65 sizes
        // 67,920 — past the counter table's 65,535.
        let cfg = |t_rh| GrapheneConfig::builder().row_hammer_threshold(t_rh).build().unwrap();
        let g = Graphene::from_config(&cfg(66)).unwrap();
        assert_eq!(g.table().capacity(), 61_745);
        let err = Graphene::from_config(&cfg(65)).unwrap_err();
        assert_eq!(err, ConfigError::TooManyEntries { n_entry: 67_920 });
        assert!(err.to_string().contains("N_entry = 67920"), "{err}");
    }

    #[test]
    fn nrr_fires_before_trh_over_4() {
        // With k = 2 the single-window budget for an unprotected row is
        // T − 1 < T_RH/4: hammering one row must produce an NRR by ACT #T.
        let mut g = engine();
        let t = g.params().tracking_threshold;
        for i in 0..(t - 1) {
            assert!(g.on_activation(RowId(5), i * 45_000).is_none());
        }
        let req = g.on_activation(RowId(5), t * 45_000).expect("NRR at T-th ACT");
        assert_eq!(req.aggressor, RowId(5));
        assert_eq!(req.radius, 1);
    }

    #[test]
    fn window_boundary_resets_table() {
        let mut g = engine();
        let w = g.params().reset_window;
        let t = g.params().tracking_threshold;
        // Accumulate T−1 ACTs at the end of window 0.
        for i in 0..(t - 1) {
            assert!(g.on_activation(RowId(9), i).is_none());
        }
        // One more ACT but in the next window: the table was reset, so no NRR.
        assert!(g.on_activation(RowId(9), w).is_none());
        assert_eq!(g.stats().table_resets, 1);
        assert_eq!(g.table().estimate(RowId(9)), Some(1));
    }

    #[test]
    fn jumping_many_windows_resets_once() {
        let mut g = engine();
        let w = g.params().reset_window;
        g.on_activation(RowId(1), 0);
        g.on_activation(RowId(1), 10 * w);
        assert_eq!(g.stats().table_resets, 1);
    }

    #[test]
    fn distinct_row_flood_never_triggers() {
        // Rotating over many distinct rows keeps every estimate far below T.
        // 40K ACTs over 512 rows: ≤ ~78 actual per row plus a spillover of
        // at most 40000/(81+1) ≈ 488, so every estimate stays two orders of
        // magnitude under T = 8333 — the same property the original
        // 200K/1024 sizing exercised, at a fifth of the runtime.
        let mut g = engine();
        for i in 0..40_000u64 {
            let row = RowId((i % 512) as u32);
            assert!(g.on_activation(row, i * 45_000).is_none());
        }
        assert_eq!(g.stats().nrrs_issued, 0);
    }

    #[test]
    fn worst_case_nrrs_bounded_per_window() {
        // Feed a full window of maximal-rate hammering on few rows and check
        // the NRR count never exceeds ⌊W/T⌋ per window (Figure 6's bound).
        let cfg = GrapheneConfig::micro2020();
        let mut g = Graphene::from_config(&cfg).unwrap();
        let p = *g.params();
        let t_rc = DramTiming::ddr4_2400().t_rc;
        let mut nrrs = 0u64;
        for i in 0..p.acts_per_window {
            let row = RowId((i % 4) as u32 * 1000);
            if g.on_activation(row, i * t_rc).is_some() {
                nrrs += 1;
            }
        }
        assert!(nrrs <= p.acts_per_window / p.tracking_threshold);
        assert!(nrrs > 0);
    }

    #[test]
    fn stats_track_victim_rows() {
        let mut g = engine();
        let t = g.params().tracking_threshold;
        for i in 0..t {
            g.on_activation(RowId(3), i);
        }
        assert_eq!(g.stats().nrrs_issued, 1);
        assert_eq!(g.stats().victim_rows_requested, 2);
    }

    #[test]
    fn window_nrr_count_resets_with_window() {
        let mut g = engine();
        let t = g.params().tracking_threshold;
        let w = g.params().reset_window;
        for i in 0..t {
            g.on_activation(RowId(3), i);
        }
        assert_eq!(g.nrrs_this_window(), 1);
        g.on_activation(RowId(3), w);
        assert_eq!(g.nrrs_this_window(), 0, "window roll clears the per-window count");
        assert_eq!(g.stats().nrrs_issued, 1, "cumulative count survives the roll");
    }

    #[test]
    fn evictions_counted_on_replacement() {
        // Capacity-2 table, T = 4: two residents, then a spillover-count
        // match from a third row displaces one.
        let mut g = Graphene::new(GrapheneParams {
            n_entry: 2,
            tracking_threshold: 4,
            ..*engine().params()
        });
        g.on_activation(RowId(1), 0);
        g.on_activation(RowId(2), 1);
        assert_eq!(g.stats().evictions, 0);
        // Row 3 arrives: spillover (0) matches the minimum count... the
        // replacement path displaces a tracked row once counts line up.
        for i in 0..20u64 {
            g.on_activation(RowId(3 + (i % 5) as u32 * 10), 2 + i);
        }
        assert!(g.stats().evictions > 0, "rotating strangers must displace residents");
        assert_eq!(g.table().occupancy(), 2);
    }

    #[test]
    fn telemetry_emits_trajectory_series() {
        use telemetry::Recorder;
        let mut g = engine();
        let t = g.params().tracking_threshold;
        for i in 0..t {
            g.on_activation(RowId(3), i);
        }
        let mut rec = Recorder::new();
        g.emit_telemetry(7, t, &mut rec);
        let snap = rec.snapshot("test");
        let nrrs = snap.series_for("graphene.nrrs", 7).expect("nrr series");
        assert_eq!(nrrs.samples[0].value, 1.0);
        let occ = snap.series_for("graphene.occupancy", 7).expect("occupancy series");
        assert_eq!(occ.samples[0].value, 1.0);
        assert!(snap.series_for("graphene.spillover", 7).is_some());
        assert!(snap.series_for("graphene.window_nrrs", 7).is_some());

        // A disabled sink records nothing and costs nothing.
        let mut noop = telemetry::NoopSink;
        g.emit_telemetry(7, t, &mut noop);
    }

    #[test]
    fn force_reset_clears_counts() {
        let mut g = engine();
        g.on_activation(RowId(3), 0);
        g.force_reset();
        assert_eq!(g.table().estimate(RowId(3)), None);
    }

    #[test]
    fn nonadjacent_radius_flows_to_requests() {
        let cfg = GrapheneConfig::builder()
            .mu(dram_model::fault::MuModel::InverseSquare { radius: 3 })
            .build()
            .unwrap();
        let mut g = Graphene::from_config(&cfg).unwrap();
        let t = g.params().tracking_threshold;
        let mut req = None;
        for i in 0..=t {
            if let Some(r) = g.on_activation(RowId(8), i) {
                req = Some(r);
                break;
            }
        }
        let req = req.expect("trigger");
        assert_eq!(req.radius, 3);
        assert_eq!(req.victim_rows(), 6);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Drive an engine across a window boundary and into the next
        // window, snapshot mid-flight, restore into a fresh engine, and
        // check that both produce identical NRR streams and identical end
        // state on the same continuation.
        let mut live = engine();
        let w = live.params().reset_window;
        let stream = |i: u64| {
            (RowId(if i.is_multiple_of(4) { 3 } else { 100 + (i % 13) as u32 }), i * (w / 20_000))
        };
        for i in 0..30_000u64 {
            let (row, at) = stream(i);
            live.on_activation(row, at);
        }
        let snap = live.snapshot();

        let mut resumed = engine();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.stats(), live.stats());
        assert_eq!(resumed.nrrs_this_window(), live.nrrs_this_window());

        for i in 30_000..80_000u64 {
            let (row, at) = stream(i);
            assert_eq!(live.on_activation(row, at), resumed.on_activation(row, at), "act {i}");
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
    }

    #[test]
    fn restore_rejects_foreign_configuration() {
        let snap = engine().snapshot();
        let mut other = Graphene::new(GrapheneParams { n_entry: 2, ..*engine().params() });
        assert!(other.restore(&snap).is_err());
    }
}
