//! Telemetry wrapper for any [`RowHammerDefense`].
//!
//! [`InstrumentedDefense`] sits between the memory controller and an inner
//! defense (the same interposition idiom as [`crate::AuditedDefense`]) and
//! reports every scheme's behavior through one uniform vocabulary:
//!
//! * counters `defense.acts`, `defense.actions`, `defense.victim_rows` —
//!   flushed as deltas so a shared recorder sums across banks;
//! * per-bank cumulative series of the same three quantities, sampled at
//!   the configured [`Cadence`];
//! * histogram `defense.actions_per_kact` — the action rate per 1000 ACTs
//!   over each flush interval, the normal-workload false-positive metric;
//! * whatever the inner defense itself exposes via
//!   [`RowHammerDefense::emit_telemetry`] (Graphene: spillover, occupancy,
//!   evictions, per-window NRRs).
//!
//! The wrapper is observation-only and cheap by construction: per ACT it
//! does three integer adds and one cadence check. With a disabled sink
//! ([`NoopSink`](telemetry::NoopSink)) the [`instrumented`] factory skips
//! the wrapper entirely and returns the inner defense unchanged — the
//! "instrumented but discarding" hot path is the bare hot path. (A directly
//! constructed [`InstrumentedDefense`] with a disabled sink keeps the
//! wrapper but resolves its `active` flag once, paying one predictable
//! branch.) The unit tests pin that identity: the factory hands back the
//! allocation it was given. perfbench's traced `telemetry.noop_ns` rung
//! times the same call.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use telemetry::{Cadence, CadenceClock, MetricsSink};

use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// A [`RowHammerDefense`] reporting its activity to a [`MetricsSink`].
pub struct InstrumentedDefense {
    inner: Box<dyn RowHammerDefense + Send>,
    sink: Box<dyn MetricsSink + Send>,
    /// Resolved once from `sink.enabled()`: false makes every hook a pure
    /// forward to `inner`.
    active: bool,
    bank: u16,
    rows_per_bank: u32,
    clock: CadenceClock,
    /// Cumulative counts since construction.
    acts: u64,
    actions: u64,
    victim_rows: u64,
    /// Values at the previous flush, for delta-style counter updates.
    flushed_acts: u64,
    flushed_actions: u64,
    flushed_victim_rows: u64,
}

impl InstrumentedDefense {
    /// Wraps `inner`, reporting for `bank` into `sink` at `cadence`.
    pub fn new(
        inner: Box<dyn RowHammerDefense + Send>,
        sink: Box<dyn MetricsSink + Send>,
        bank: u16,
        rows_per_bank: u32,
        cadence: Cadence,
    ) -> Self {
        let active = sink.enabled();
        InstrumentedDefense {
            inner,
            sink,
            active,
            bank,
            rows_per_bank,
            clock: CadenceClock::new(cadence),
            acts: 0,
            actions: 0,
            victim_rows: 0,
            flushed_acts: 0,
            flushed_actions: 0,
            flushed_victim_rows: 0,
        }
    }

    /// The wrapped defense.
    pub fn inner(&self) -> &dyn RowHammerDefense {
        self.inner.as_ref()
    }

    /// Counts `actions` into the accumulators (only called when active).
    fn note_actions(&mut self, actions: &[RefreshAction]) {
        self.actions += actions.len() as u64;
        for a in actions {
            self.victim_rows += a.row_count(self.rows_per_bank);
        }
    }

    /// Flushes accumulated deltas and samples into the sink, then lets the
    /// inner defense report its own state.
    fn flush(&mut self, now: Picoseconds) {
        let sink = self.sink.as_mut();
        let interval_acts = self.acts - self.flushed_acts;
        let interval_actions = self.actions - self.flushed_actions;
        sink.counter("defense.acts", interval_acts);
        sink.counter("defense.actions", interval_actions);
        sink.counter("defense.victim_rows", self.victim_rows - self.flushed_victim_rows);
        sink.sample("defense.acts", self.bank, now, self.acts as f64);
        sink.sample("defense.actions", self.bank, now, self.actions as f64);
        sink.sample("defense.victim_rows", self.bank, now, self.victim_rows as f64);
        if interval_acts > 0 {
            sink.observe(
                "defense.actions_per_kact",
                interval_actions as f64 * 1_000.0 / interval_acts as f64,
            );
        }
        self.flushed_acts = self.acts;
        self.flushed_actions = self.actions;
        self.flushed_victim_rows = self.victim_rows;
        self.inner.emit_telemetry(self.bank, now, self.sink.as_mut());
    }

    /// Flushes any activity accumulated since the last cadence boundary
    /// (end-of-run tail that would otherwise be lost).
    pub fn finish(&mut self, now: Picoseconds) {
        if self.active && self.acts > self.flushed_acts {
            self.flush(now);
        }
    }
}

/// Wraps `defense` so it reports through `sink`, boxed for direct use in a
/// controller's defense factory.
///
/// With a disabled sink ([`NoopSink`](telemetry::NoopSink)) no wrapper is
/// interposed at all: the inner box is returned unchanged, so the
/// "instrumented but discarding" configuration runs the *same object* a
/// plain build produces — zero overhead by construction, not by promise.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{instrumented, Para, RowHammerDefense};
/// use telemetry::{Cadence, SharedSink};
///
/// let sink = SharedSink::new();
/// let mut d = instrumented(
///     Box::new(Para::new(0.01, 1)),
///     Box::new(sink.clone()),
///     0,
///     65_536,
///     Cadence::EveryActs(100),
/// );
/// for i in 0..1_000u64 {
///     d.on_activation(RowId(5), i * 45_000);
/// }
/// let snap = sink.snapshot("example");
/// assert!(snap.series_for("defense.acts", 0).is_some());
/// ```
pub fn instrumented(
    defense: Box<dyn RowHammerDefense + Send>,
    sink: Box<dyn MetricsSink + Send>,
    bank: u16,
    rows_per_bank: u32,
    cadence: Cadence,
) -> Box<dyn RowHammerDefense + Send> {
    if !sink.enabled() {
        return defense;
    }
    Box::new(InstrumentedDefense::new(defense, sink, bank, rows_per_bank, cadence))
}

impl RowHammerDefense for InstrumentedDefense {
    /// Transparent: reports and baselines keyed by name must not change
    /// because instrumentation was attached.
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        let actions = self.inner.on_activation(row, now);
        if self.active {
            self.acts += 1;
            self.note_actions(&actions);
            if self.clock.tick(now) {
                self.flush(now);
            }
        }
        actions
    }

    fn on_refresh_tick(&mut self, now: Picoseconds) -> Vec<RefreshAction> {
        let actions = self.inner.on_refresh_tick(now);
        if self.active && !actions.is_empty() {
            self.note_actions(&actions);
        }
        actions
    }

    fn throttle_decision(
        &mut self,
        row: RowId,
        now: Picoseconds,
    ) -> crate::defense::ThrottleDecision {
        // Forwarded so a throttling defense keeps working under
        // instrumentation; the inner scheme reports its own throttle
        // counters via `emit_telemetry`.
        self.inner.throttle_decision(row, now)
    }

    fn drain_overhead_time(&mut self) -> Picoseconds {
        self.inner.drain_overhead_time()
    }

    fn table_bits(&self) -> TableBits {
        self.inner.table_bits()
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn MetricsSink) {
        self.inner.emit_telemetry(bank, now, sink);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.acts = 0;
        self.actions = 0;
        self.victim_rows = 0;
        self.flushed_acts = 0;
        self.flushed_actions = 0;
        self.flushed_victim_rows = 0;
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        self.inner.inject_fault(fault)
    }
}

impl std::fmt::Debug for InstrumentedDefense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrumentedDefense")
            .field("inner", &self.inner.name())
            .field("bank", &self.bank)
            .field("active", &self.active)
            .field("acts", &self.acts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphene::GrapheneDefense;
    use crate::para::Para;
    use graphene_core::GrapheneConfig;
    use telemetry::{NoopSink, SharedSink};

    fn graphene(t_rh: u64) -> Box<dyn RowHammerDefense + Send> {
        let cfg = GrapheneConfig::builder().row_hammer_threshold(t_rh).build().unwrap();
        Box::new(GrapheneDefense::from_config(&cfg).unwrap())
    }

    #[test]
    fn name_is_transparent() {
        let d = InstrumentedDefense::new(
            graphene(50_000),
            Box::new(NoopSink),
            0,
            65_536,
            Cadence::EveryActs(64),
        );
        assert_eq!(d.name(), "Graphene");
    }

    #[test]
    fn actions_match_inner_defense_exactly() {
        // Same seed, same stream: wrapped and bare PARA must emit identical
        // action sequences — the wrapper is observation-only.
        let mut bare = Para::new(0.01, 3);
        let sink = SharedSink::new();
        let mut wrapped = instrumented(
            Box::new(Para::new(0.01, 3)),
            Box::new(sink.clone()),
            0,
            65_536,
            Cadence::EveryActs(128),
        );
        for i in 0..5_000u64 {
            let row = RowId((i % 37) as u32);
            assert_eq!(wrapped.on_activation(row, i * 45_000), bare.on_activation(row, i * 45_000));
        }
    }

    #[test]
    fn flush_emits_uniform_metrics_and_inner_series() {
        let sink = SharedSink::new();
        let t_rh = 5_000;
        let mut d = InstrumentedDefense::new(
            graphene(t_rh),
            Box::new(sink.clone()),
            2,
            65_536,
            Cadence::EveryActs(100),
        );
        for i in 0..2_000u64 {
            d.on_activation(RowId(9), i * 45_000);
        }
        d.finish(2_000 * 45_000);
        let snap = sink.snapshot("test");
        // Uniform wrapper metrics.
        let acts = snap.series_for("defense.acts", 2).expect("acts series");
        assert_eq!(acts.samples.last().unwrap().value, 2_000.0);
        assert!(snap.counters.iter().any(|(n, v)| n == "defense.acts" && *v == 2_000));
        assert!(snap.series_for("defense.actions", 2).is_some());
        assert!(snap.series_for("defense.victim_rows", 2).is_some());
        // Inner Graphene trajectory flows through.
        assert!(snap.series_for("graphene.spillover", 2).is_some());
        let nrrs = snap.series_for("graphene.nrrs", 2).expect("nrr series");
        assert!(nrrs.samples.last().unwrap().value >= 1.0, "hammering must trigger NRRs");
    }

    #[test]
    fn victim_rows_counted_after_clipping() {
        let sink = SharedSink::new();
        let mut d = InstrumentedDefense::new(
            graphene(5_000),
            Box::new(sink.clone()),
            0,
            65_536,
            Cadence::EveryActs(1),
        );
        // Hammer row 0: NRR at the bank edge refreshes one victim, not two.
        for i in 0..2_000u64 {
            d.on_activation(RowId(0), i * 45_000);
        }
        let snap = sink.snapshot("test");
        let actions = snap.counters.iter().find(|(n, _)| n == "defense.actions").unwrap().1;
        let victims = snap.counters.iter().find(|(n, _)| n == "defense.victim_rows").unwrap().1;
        assert!(actions > 0);
        assert_eq!(victims, actions, "edge NRRs refresh exactly one row each");
    }

    #[test]
    fn a_disabled_sink_gets_the_defense_back_unwrapped() {
        let bare = graphene(5_000);
        let addr = |d: &dyn RowHammerDefense| (d as *const dyn RowHammerDefense).cast::<()>();
        let before = addr(bare.as_ref());
        let out = instrumented(bare, Box::new(NoopSink), 0, 65_536, Cadence::EveryActs(1));
        assert_eq!(addr(out.as_ref()), before, "a disabled sink must not interpose a wrapper");
    }

    #[test]
    fn noop_sink_records_nothing_and_stays_passthrough() {
        let mut d = InstrumentedDefense::new(
            graphene(5_000),
            Box::new(NoopSink),
            0,
            65_536,
            Cadence::EveryActs(1),
        );
        for i in 0..1_000u64 {
            d.on_activation(RowId(4), i * 45_000);
        }
        d.finish(1_000 * 45_000);
        assert_eq!(d.acts, 0, "inactive wrapper must not even count");
    }

    #[test]
    fn window_cadence_samples_once_per_window() {
        let sink = SharedSink::new();
        let window = 1_000_000u64;
        let mut d = InstrumentedDefense::new(
            Box::new(Para::new(0.001, 1)),
            Box::new(sink.clone()),
            0,
            65_536,
            Cadence::EveryWindow(window),
        );
        for i in 0..10u64 {
            d.on_activation(RowId(1), i * window + window / 2);
        }
        let snap = sink.snapshot("test");
        let acts = snap.series_for("defense.acts", 0).expect("series");
        // 10 ACTs crossing 9 window boundaries → 9 flushes.
        assert_eq!(acts.samples.len(), 9);
    }
}
