//! Per-bank activation streams: captured from a real run, replayed into
//! fresh defenses and counter tables.
//!
//! [`TapFactory`] wraps any [`DefenseFactory`] so each bank's defense logs
//! the `(bank, row, time)` of every activation and refresh tick the
//! controller delivers, while forwarding every hook unchanged — the tapped
//! run's statistics equal the untapped run's, which the ladder checks. The
//! log is the exact input each layer below the controller sees.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use graphene_core::{CounterTable, GrapheneParams};
use memctrl::DefenseFactory;
use mitigations::{RefreshAction, RowHammerDefense, TableBits, ThrottleDecision};
use telemetry::json::JsonValue;
use telemetry::MetricsSink;

/// Row value marking a refresh tick in an event log.
const TICK: u32 = u32::MAX;

/// One delivered event: an activation of `row`, or a refresh tick when
/// `row` is [`TICK`], at time `now` on global bank `bank`.
#[derive(Debug, Clone, Copy)]
struct Event {
    now: Picoseconds,
    row: u32,
    bank: u32,
}

type Log = Arc<Mutex<Vec<Event>>>;

/// The events every bank's defense received, in the order the controller
/// delivered them across banks — the interleaving decides how warm each
/// bank's table is in the cache, so replays keep it.
#[derive(Debug, Clone, Default)]
pub struct Streams {
    events: Vec<Event>,
    /// Global bank indices that received events, ascending.
    banks: Vec<usize>,
}

impl Streams {
    /// Activations in the log.
    pub fn acts(&self) -> u64 {
        self.events.iter().filter(|e| e.row != TICK).count() as u64
    }

    /// Replays the first `limit` events into one fresh defense per bank
    /// from `build` and returns `(seconds, refresh actions, activations)`.
    /// Construction is untimed.
    pub fn replay_defenses(
        &self,
        limit: usize,
        mut build: impl FnMut(usize) -> Box<dyn RowHammerDefense + Send>,
    ) -> (f64, u64, u64) {
        let slot = self.slots();
        let mut defenses: Vec<_> = self.banks.iter().map(|&b| build(b)).collect();
        let events = &self.events[..limit.min(self.events.len())];
        let mut actions = 0u64;
        let start = Instant::now();
        for e in events {
            let d = &mut defenses[slot[e.bank as usize]];
            let out = if e.row == TICK {
                d.on_refresh_tick(e.now)
            } else {
                d.on_activation(RowId(e.row), e.now)
            };
            actions += out.len() as u64;
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(&defenses);
        (elapsed, actions, events.iter().filter(|e| e.row != TICK).count() as u64)
    }

    /// Replays every activation into one bare [`CounterTable`] per bank,
    /// sized and windowed like Graphene's (`params`) and reset at each
    /// reset-window boundary exactly as the Graphene engine resets it.
    /// Returns `(seconds, triggers)`.
    pub fn replay_tables(&self, params: &GrapheneParams) -> (f64, u64) {
        let slot = self.slots();
        let mut tables: Vec<_> = self
            .banks
            .iter()
            .map(|_| (CounterTable::new(params.n_entry, params.tracking_threshold), 0u64))
            .collect();
        let mut triggers = 0u64;
        let start = Instant::now();
        for e in &self.events {
            if e.row == TICK {
                continue;
            }
            let (table, window) = &mut tables[slot[e.bank as usize]];
            let w = e.now / params.reset_window;
            if w != *window {
                table.reset();
                *window = w;
            }
            if table.process_activation(RowId(e.row)).triggered() {
                triggers += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(&tables);
        (elapsed, triggers)
    }

    /// Dense slot of every global bank index.
    fn slots(&self) -> Vec<usize> {
        let mut slot = vec![usize::MAX; self.banks.last().map_or(0, |b| b + 1)];
        for (i, &b) in self.banks.iter().enumerate() {
            slot[b] = i;
        }
        slot
    }
}

struct Tap {
    inner: Box<dyn RowHammerDefense + Send>,
    bank: u32,
    log: Log,
}

impl Tap {
    fn record(&self, now: Picoseconds, row: u32) {
        self.log.lock().expect("tap log poisoned").push(Event { now, row, bank: self.bank });
    }
}

impl RowHammerDefense for Tap {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        self.record(now, row.0);
        self.inner.on_activation(row, now)
    }

    fn throttle_decision(&mut self, row: RowId, now: Picoseconds) -> ThrottleDecision {
        self.inner.throttle_decision(row, now)
    }

    fn on_refresh_tick(&mut self, now: Picoseconds) -> Vec<RefreshAction> {
        self.record(now, TICK);
        self.inner.on_refresh_tick(now)
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
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        self.inner.restore_state(state)
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        self.inner.inject_fault(fault)
    }
}

/// A [`DefenseFactory`] whose defenses log their activation streams.
pub struct TapFactory<'a> {
    inner: &'a dyn DefenseFactory,
    log: Log,
    banks: Mutex<Vec<usize>>,
}

impl<'a> TapFactory<'a> {
    /// Taps every defense `inner` builds.
    pub fn new(inner: &'a dyn DefenseFactory) -> Self {
        TapFactory { inner, log: Log::default(), banks: Mutex::new(Vec::new()) }
    }

    fn wrap(
        &self,
        bank: usize,
        inner: Box<dyn RowHammerDefense + Send>,
    ) -> Box<dyn RowHammerDefense + Send> {
        self.banks.lock().expect("tap registry poisoned").push(bank);
        let bank = u32::try_from(bank).expect("bank index fits u32");
        Box::new(Tap { inner, bank, log: self.log.clone() })
    }

    /// The captured events. Call after the tapped run has finished.
    pub fn streams(&self) -> Streams {
        let mut banks = self.banks.lock().expect("tap registry poisoned").clone();
        banks.sort_unstable();
        banks.dedup();
        Streams { events: std::mem::take(&mut *self.log.lock().expect("tap log poisoned")), banks }
    }
}

impl DefenseFactory for TapFactory<'_> {
    fn build_defense(
        &self,
        bank: usize,
        rows_per_bank: u32,
        audited: bool,
    ) -> Box<dyn RowHammerDefense + Send> {
        self.wrap(bank, self.inner.build_defense(bank, rows_per_bank, audited))
    }

    fn build_all_bank(
        &self,
        first_bank: usize,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        let pool = self.inner.build_all_bank(first_bank, banks, rows_per_bank, audited)?;
        Some(pool.into_iter().enumerate().map(|(i, d)| self.wrap(first_bank + i, d)).collect())
    }
}
