//! ABACuS: one activation-counter table shared by every bank (Olgun et al.,
//! USENIX Security 2024; arXiv 2310.09977).
//!
//! ABACuS exploits *sibling-row locality*: real workloads (and the classic
//! many-sided attacks) hammer the **same row address across banks**, because
//! the physical-to-DRAM mapping stripes consecutive cache blocks over banks.
//! Instead of sixteen per-bank Misra-Gries tables, ABACuS keeps one shared
//! table keyed by row ID where each entry carries:
//!
//! * a **row activation counter** (RAC) that tracks the *maximum* per-bank
//!   activation count, not the sum — a sibling activation vector (SAV)
//!   bitmap records which banks have activated the row since the RAC last
//!   incremented, so the counter only advances when some bank comes around
//!   again;
//! * an **NRR mask** of banks that activated the row since the last
//!   mitigation: when the RAC crosses a multiple of the tracking threshold,
//!   *every* masked bank gets a neighbor-row refresh (the activating bank
//!   immediately, the others through a per-bank pending queue drained at
//!   that bank's next activation or refresh tick).
//!
//! The spillover counter is SAV-gated the same way, so it advances at the
//! max-per-bank rate rather than the all-bank sum, and the table can be
//! sized by the *per-bank* activation budget — that is the area win. The
//! tracking threshold is halved relative to Graphene's derivation
//! (`t_track = T/2`, table sized for `W/t_track`) so the exact shadow
//! certificate at threshold `T` retains headroom for cross-bank spillover
//! churn; DESIGN.md §6j spells out the accounting and its known worst-case
//! caveat.
//!
//! Sharing one table across banks requires the new all-bank
//! `DefenseFactory` path: [`AbacusDefense::shared_for_banks`] returns one
//! facade per bank over an `Arc<Mutex<AbacusCore>>`. Within one memory
//! controller activations are served in order, so the lock is uncontended
//! and behavior is deterministic.

use std::sync::{Arc, Mutex};

use dram_model::geometry::RowId;
use dram_model::timing::{DramTiming, Picoseconds};
use graphene_core::GrapheneConfig;
use telemetry::json::{obj, JsonValue};

use crate::ckpt::{expect_scheme, lane};
use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// ABACuS parameters for one shared table covering `banks` banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbacusConfig {
    /// The Row Hammer threshold being defended.
    pub row_hammer_threshold: u64,
    /// RAC value quantum at which NRRs broadcast (`T/2` of the Graphene
    /// derivation — halved for spillover headroom).
    pub tracking_threshold: u64,
    /// The exact-certificate threshold (`T` of the Graphene derivation at
    /// the same `T_RH`): the shadow oracle certifies one NRR per
    /// `cert_threshold` per-bank activations.
    pub cert_threshold: u64,
    /// Shared-table entries (sized for `W / tracking_threshold`).
    pub entries: usize,
    /// Reset-window length (ps).
    pub reset_window: Picoseconds,
    /// NRR blast radius.
    pub radius: u32,
    /// Banks sharing the table (≤ 64: SAV and masks are one `u64`).
    pub banks: u32,
    /// Rows per bank (clips NRR victims).
    pub rows_per_bank: u32,
    /// Row-ID field width per entry.
    pub addr_bits: u32,
    /// RAC field width per entry.
    pub count_bits: u32,
}

impl AbacusConfig {
    /// Derives a configuration for `t_rh` with reset-window divisor `k`,
    /// shared across `banks` banks.
    ///
    /// # Errors
    ///
    /// Rejects `banks` outside `1..=64` and propagates the Graphene
    /// derivation error as text.
    pub fn for_geometry(t_rh: u64, k: u32, banks: u32, rows_per_bank: u32) -> Result<Self, String> {
        Self::for_geometry_with_timing(t_rh, k, banks, rows_per_bank, DramTiming::ddr4_2400())
    }

    /// [`Self::for_geometry`] against an explicit timing configuration —
    /// table sizing (`W / (T/2)`) and the reset window follow the
    /// generation's tREFW/tREFI/tRC instead of assuming DDR4-2400.
    ///
    /// # Errors
    ///
    /// Rejects `banks` outside `1..=64` and propagates the Graphene
    /// derivation error as text.
    pub fn for_geometry_with_timing(
        t_rh: u64,
        k: u32,
        banks: u32,
        rows_per_bank: u32,
        timing: DramTiming,
    ) -> Result<Self, String> {
        if banks == 0 || banks > 64 {
            return Err(format!("ABACuS shares one u64 SAV: banks must be 1..=64, got {banks}"));
        }
        let params = GrapheneConfig::builder()
            .row_hammer_threshold(t_rh)
            .reset_window_divisor(k)
            .rows_per_bank(rows_per_bank)
            .timing(timing)
            .build()
            .map_err(|e| format!("{e:?}"))?
            .derive()
            .map_err(|e| format!("{e:?}"))?;
        let tracking_threshold = (params.tracking_threshold / 2).max(1);
        let entries = (params.acts_per_window / tracking_threshold + 1) as usize;
        Ok(AbacusConfig {
            row_hammer_threshold: t_rh,
            tracking_threshold,
            cert_threshold: params.tracking_threshold.max(1),
            entries,
            reset_window: params.reset_window,
            radius: params.blast_radius,
            banks,
            rows_per_bank,
            addr_bits: bits_for(u64::from(rows_per_bank.saturating_sub(1)).max(1)),
            count_bits: bits_for(params.acts_per_window.max(1)),
        })
    }
}

/// Lifetime counters of one shared ABACuS table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AbacusStats {
    /// Activations processed (all banks).
    pub activations: u64,
    /// NRR commands issued (immediate + pending).
    pub nrrs_issued: u64,
    /// Victim rows requested across all NRRs.
    pub victim_rows_requested: u64,
    /// Reset-window rollovers.
    pub window_resets: u64,
    /// Table insertions.
    pub inserts: u64,
    /// Misra-Gries replacements of spillover-level entries.
    pub evictions: u64,
    /// Highest spillover value observed (lifetime).
    pub spillover_peak: u64,
}

/// The shared table. One instance per memory controller; per-bank
/// [`AbacusDefense`] facades serialize access through a mutex.
#[derive(Debug)]
pub struct AbacusCore {
    cfg: AbacusConfig,
    rows: Vec<u32>,
    counts: Vec<u64>,
    savs: Vec<u64>,
    masks: Vec<u64>,
    crossings: Vec<u64>,
    spillover: u64,
    spillover_sav: u64,
    current_window: u64,
    /// NRRs owed to other banks from crossings they participated in,
    /// delivered at that bank's next activation or refresh tick.
    pending: Vec<Vec<u32>>,
    suppress_next_lookup: bool,
    stats: AbacusStats,
}

impl AbacusCore {
    /// Builds an empty table.
    pub fn new(cfg: AbacusConfig) -> Self {
        assert!(cfg.entries > 0, "table must have at least one entry");
        AbacusCore {
            rows: Vec::with_capacity(cfg.entries),
            counts: Vec::with_capacity(cfg.entries),
            savs: Vec::with_capacity(cfg.entries),
            masks: Vec::with_capacity(cfg.entries),
            crossings: Vec::with_capacity(cfg.entries),
            spillover: 0,
            spillover_sav: 0,
            current_window: 0,
            pending: vec![Vec::new(); cfg.banks as usize],
            suppress_next_lookup: false,
            stats: AbacusStats::default(),
            cfg,
        }
    }

    fn roll_window(&mut self, now: Picoseconds) {
        if self.cfg.reset_window == 0 {
            return;
        }
        let w = now / self.cfg.reset_window;
        if w != self.current_window {
            self.rows.clear();
            self.counts.clear();
            self.savs.clear();
            self.masks.clear();
            self.crossings.clear();
            self.spillover = 0;
            self.spillover_sav = 0;
            self.current_window = w;
            self.stats.window_resets += 1;
            // Pending NRRs were earned in the old window and still fire.
        }
    }

    fn neighbors(&mut self, row: u32) -> RefreshAction {
        let action = RefreshAction::Neighbors { aggressor: RowId(row), radius: self.cfg.radius };
        self.stats.nrrs_issued += 1;
        self.stats.victim_rows_requested += action.row_count(self.cfg.rows_per_bank);
        action
    }

    fn drain_pending(&mut self, bank: usize, out: &mut Vec<RefreshAction>) {
        let owed = std::mem::take(&mut self.pending[bank]);
        for row in owed {
            let a = self.neighbors(row);
            out.push(a);
        }
    }

    fn on_activation(&mut self, bank: usize, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        self.roll_window(now);
        self.stats.activations += 1;
        let bit = 1u64 << bank;
        let mut out = Vec::new();
        self.drain_pending(bank, &mut out);
        let hit = if self.suppress_next_lookup {
            self.suppress_next_lookup = false;
            None
        } else {
            self.rows.iter().position(|&r| r == row.0)
        };
        match hit {
            Some(i) => {
                // RAC counts the max per-bank rate: advance only when this
                // bank's SAV bit is already set (it has come around again).
                if self.savs[i] & bit != 0 {
                    self.counts[i] += 1;
                    self.savs[i] = bit;
                } else {
                    self.savs[i] |= bit;
                }
                self.masks[i] |= bit;
                while self.counts[i] / self.cfg.tracking_threshold > self.crossings[i] {
                    self.crossings[i] += 1;
                    let mask = std::mem::take(&mut self.masks[i]);
                    for b in 0..self.cfg.banks as usize {
                        if mask & (1 << b) == 0 {
                            continue;
                        }
                        if b == bank {
                            let a = self.neighbors(row.0);
                            out.push(a);
                        } else {
                            self.pending[b].push(row.0);
                        }
                    }
                }
            }
            None => {
                let replace = if self.rows.len() < self.cfg.entries {
                    self.rows.push(0);
                    self.counts.push(0);
                    self.savs.push(0);
                    self.masks.push(0);
                    self.crossings.push(0);
                    Some(self.rows.len() - 1)
                } else {
                    let i = (0..self.rows.len()).find(|&i| self.counts[i] == self.spillover);
                    if i.is_some() {
                        self.stats.evictions += 1;
                    }
                    i
                };
                match replace {
                    Some(i) => {
                        self.rows[i] = row.0;
                        self.counts[i] = self.spillover + 1;
                        self.savs[i] = bit;
                        self.masks[i] = bit;
                        // Inherited spillover counts are phantom and not
                        // attributable to banks: start crossings at the
                        // current quantum without retroactive NRRs.
                        self.crossings[i] = self.counts[i] / self.cfg.tracking_threshold;
                        self.stats.inserts += 1;
                    }
                    None => {
                        if self.spillover_sav & bit != 0 {
                            self.spillover += 1;
                            self.spillover_sav = bit;
                            self.stats.spillover_peak =
                                self.stats.spillover_peak.max(self.spillover);
                        } else {
                            self.spillover_sav |= bit;
                        }
                    }
                }
            }
        }
        out
    }

    fn on_refresh_tick(&mut self, bank: usize, now: Picoseconds) -> Vec<RefreshAction> {
        self.roll_window(now);
        let mut out = Vec::new();
        self.drain_pending(bank, &mut out);
        out
    }

    fn clear(&mut self) {
        let cfg = self.cfg;
        *self = AbacusCore::new(cfg);
    }

    fn snapshot(&self) -> JsonValue {
        obj(vec![
            ("scheme", JsonValue::Str("abacus".to_owned())),
            ("current_window", JsonValue::U64(self.current_window)),
            ("spillover", JsonValue::U64(self.spillover)),
            ("spillover_sav", JsonValue::U64(self.spillover_sav)),
            ("suppress_next_lookup", JsonValue::U64(u64::from(self.suppress_next_lookup))),
            (
                "table",
                obj(vec![
                    ("rows", lane(self.rows.iter().map(|&r| u64::from(r)))),
                    ("counts", lane(self.counts.iter().copied())),
                    ("savs", lane(self.savs.iter().copied())),
                    ("masks", lane(self.masks.iter().copied())),
                    ("crossings", lane(self.crossings.iter().copied())),
                ]),
            ),
            (
                "pending",
                JsonValue::Arr(
                    self.pending.iter().map(|p| lane(p.iter().map(|&r| u64::from(r)))).collect(),
                ),
            ),
            (
                "stats",
                obj(vec![
                    ("activations", JsonValue::U64(self.stats.activations)),
                    ("nrrs_issued", JsonValue::U64(self.stats.nrrs_issued)),
                    ("victim_rows_requested", JsonValue::U64(self.stats.victim_rows_requested)),
                    ("window_resets", JsonValue::U64(self.stats.window_resets)),
                    ("inserts", JsonValue::U64(self.stats.inserts)),
                    ("evictions", JsonValue::U64(self.stats.evictions)),
                    ("spillover_peak", JsonValue::U64(self.stats.spillover_peak)),
                ]),
            ),
        ])
    }

    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "abacus")?;
        let table = state.field("table")?;
        let rows: Vec<u32> = table.ints("rows")?;
        let counts: Vec<u64> = table.ints("counts")?;
        let savs: Vec<u64> = table.ints("savs")?;
        let masks: Vec<u64> = table.ints("masks")?;
        let crossings: Vec<u64> = table.ints("crossings")?;
        let n = rows.len();
        if counts.len() != n || savs.len() != n || masks.len() != n || crossings.len() != n {
            return Err("table lanes have mismatched lengths".to_owned());
        }
        if n > self.cfg.entries {
            return Err(format!(
                "checkpoint has {n} entries for a {}-entry table",
                self.cfg.entries
            ));
        }
        let pending = state.items("pending")?;
        if pending.len() != self.cfg.banks as usize {
            return Err(format!(
                "checkpoint covers {} banks, table covers {}",
                pending.len(),
                self.cfg.banks
            ));
        }
        let pending = pending
            .iter()
            .enumerate()
            .map(|(b, p)| p.to_ints().map_err(|e| format!("pending queue for bank {b}: {e}")))
            .collect::<Result<_, _>>()?;
        let stats = state.field("stats")?;
        let parsed = AbacusStats {
            activations: stats.int("activations")?,
            nrrs_issued: stats.int("nrrs_issued")?,
            victim_rows_requested: stats.int("victim_rows_requested")?,
            window_resets: stats.int("window_resets")?,
            inserts: stats.int("inserts")?,
            evictions: stats.int("evictions")?,
            spillover_peak: stats.int("spillover_peak")?,
        };
        self.rows = rows;
        self.counts = counts;
        self.savs = savs;
        self.masks = masks;
        self.crossings = crossings;
        self.pending = pending;
        self.spillover = state.int("spillover")?;
        self.spillover_sav = state.int("spillover_sav")?;
        self.current_window = state.int("current_window")?;
        self.suppress_next_lookup = state.int::<u64>("suppress_next_lookup")? != 0;
        self.stats = parsed;
        Ok(())
    }
}

/// Per-bank facade over a shared [`AbacusCore`], implementing the per-bank
/// defense trait so the existing controller plumbing (audit, telemetry,
/// checkpoint) applies unchanged.
///
/// # Example
///
/// ```
/// use mitigations::{AbacusConfig, AbacusDefense, RowHammerDefense};
/// use dram_model::RowId;
///
/// let cfg = AbacusConfig::for_geometry(50_000, 2, 4, 65_536).unwrap();
/// let mut banks = AbacusDefense::shared_for_banks(cfg);
/// assert_eq!(banks.len(), 4);
/// assert!(banks[0].on_activation(RowId(1), 0).is_empty());
/// assert_eq!(banks[0].name(), "ABACuS");
/// ```
#[derive(Debug, Clone)]
pub struct AbacusDefense {
    core: Arc<Mutex<AbacusCore>>,
    bank: usize,
}

impl AbacusDefense {
    /// One facade per bank over a single shared table. The returned vector
    /// is indexed by bank, matching the all-bank factory contract.
    pub fn shared_for_banks(cfg: AbacusConfig) -> Vec<AbacusDefense> {
        let core = Arc::new(Mutex::new(AbacusCore::new(cfg)));
        (0..cfg.banks as usize)
            .map(|bank| AbacusDefense { core: Arc::clone(&core), bank })
            .collect()
    }

    /// A degenerate single-bank instance (its own private table) — what the
    /// strictly per-bank factory path builds when sharing is unavailable.
    pub fn single(mut cfg: AbacusConfig) -> AbacusDefense {
        cfg.banks = 1;
        AbacusDefense { core: Arc::new(Mutex::new(AbacusCore::new(cfg))), bank: 0 }
    }

    /// The bank this facade fronts.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// The shared configuration.
    pub fn config(&self) -> AbacusConfig {
        self.lock().cfg
    }

    /// Current spillover value of the shared table.
    pub fn spillover(&self) -> u64 {
        self.lock().spillover
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AbacusCore> {
        self.core.lock().expect("ABACuS core lock poisoned")
    }
}

impl RowHammerDefense for AbacusDefense {
    fn name(&self) -> String {
        "ABACuS".to_owned()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        let bank = self.bank;
        self.lock().on_activation(bank, row, now)
    }

    fn on_refresh_tick(&mut self, now: Picoseconds) -> Vec<RefreshAction> {
        let bank = self.bank;
        self.lock().on_refresh_tick(bank, now)
    }

    fn table_bits(&self) -> TableBits {
        let core = self.lock();
        let cfg = &core.cfg;
        let banks = u64::from(cfg.banks);
        // Each entry: row-ID CAM + RAC + SAV + NRR mask (one bit per bank
        // each) + crossing bookkeeping folded into the count field.
        let cam_total = cfg.entries as u64 * u64::from(cfg.addr_bits);
        let sram_total = cfg.entries as u64 * (u64::from(cfg.count_bits) + 2 * banks)
            + u64::from(cfg.count_bits) // spillover
            + banks; // spillover SAV
                     // Report the per-bank share so rank totals stay comparable.
        TableBits { cam_bits: cam_total.div_ceil(banks), sram_bits: sram_total.div_ceil(banks) }
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn telemetry::MetricsSink) {
        if !sink.enabled() {
            return;
        }
        let core = self.lock();
        sink.sample("abacus.spillover", bank, now, core.spillover as f64);
        sink.sample("abacus.spillover_peak", bank, now, core.stats.spillover_peak as f64);
        sink.sample(
            "abacus.occupancy",
            bank,
            now,
            core.rows.len() as f64 / core.cfg.entries as f64,
        );
        sink.sample("abacus.nrrs", bank, now, core.stats.nrrs_issued as f64);
        sink.sample("abacus.pending", bank, now, core.pending[self.bank].len() as f64);
    }

    fn reset(&mut self) {
        self.lock().clear();
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        Ok(self.lock().snapshot())
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        // Every facade restores the whole shared core; the restore is
        // idempotent, so any per-bank restore order works.
        self.lock().restore(state)
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        let mut core = self.lock();
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                if core.counts.is_empty() {
                    return false;
                }
                let count_bits = core.cfg.count_bits;
                let i = slot as usize % core.counts.len();
                core.counts[i] ^= 1 << (bit % count_bits.max(1));
                true
            }
            faultsim::TrackerFault::AddrBitFlip { slot, bit } => {
                if core.rows.is_empty() {
                    return false;
                }
                let addr_bits = core.cfg.addr_bits;
                let i = slot as usize % core.rows.len();
                core.rows[i] ^= 1 << (bit % addr_bits.max(1));
                true
            }
            faultsim::TrackerFault::SpilloverBitFlip { bit } => {
                let count_bits = core.cfg.count_bits;
                core.spillover ^= 1 << (bit % count_bits.max(1));
                true
            }
            faultsim::TrackerFault::LookupMiss => {
                core.suppress_next_lookup = true;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(banks: u32) -> Vec<AbacusDefense> {
        AbacusDefense::shared_for_banks(
            AbacusConfig::for_geometry(50_000, 2, banks, 65_536).unwrap(),
        )
    }

    #[test]
    fn sibling_activations_share_one_counter() {
        let mut banks = shared(4);
        let t = banks[0].config().tracking_threshold;
        // Same row hammered round-robin across all four banks: the RAC
        // advances at the max-per-bank rate, so each bank needs ~t of its
        // own activations before the crossing — and then every
        // participating bank is refreshed.
        let mut nrrs_per_bank = [0u64; 4];
        for i in 0..4 * (t + 2) {
            let b = (i % 4) as usize;
            nrrs_per_bank[b] += banks[b].on_activation(RowId(40), i).len() as u64;
        }
        for (b, &n) in nrrs_per_bank.iter().enumerate() {
            assert!(n >= 1, "bank {b} never refreshed");
        }
        assert_eq!(banks[0].lock().stats.activations, 4 * (t + 2));
    }

    #[test]
    fn pending_nrrs_drain_on_refresh_tick() {
        let mut banks = shared(2);
        let t = banks[0].config().tracking_threshold;
        // Bank 1 touches the row once, then bank 0 drives it to a crossing:
        // bank 1's NRR is owed and delivered at its next refresh tick.
        banks[1].on_activation(RowId(40), 0);
        let mut fired = 0;
        for i in 1..=2 * t + 2 {
            fired += banks[0].on_activation(RowId(40), i).len();
        }
        assert!(fired >= 1, "activating bank got no immediate NRR");
        let owed = banks[1].on_refresh_tick(2 * t + 3);
        assert_eq!(owed, vec![RefreshAction::Neighbors { aggressor: RowId(40), radius: 1 }]);
    }

    #[test]
    fn table_is_smaller_than_per_bank_graphene() {
        let banks = shared(16);
        let graphene = GrapheneConfig::micro2020().derive().unwrap();
        assert!(
            banks[0].table_bits().total() < graphene.table_bits_per_bank(),
            "per-bank share {} should beat Graphene's {}",
            banks[0].table_bits().total(),
            graphene.table_bits_per_bank()
        );
    }

    #[test]
    fn single_bank_behaves_like_a_private_tracker() {
        let mut d =
            AbacusDefense::single(AbacusConfig::for_geometry(50_000, 2, 16, 65_536).unwrap());
        let t = d.config().tracking_threshold;
        let mut fired = Vec::new();
        // A lone bank's SAV bit stays set after the first activation, so
        // the RAC tracks its count exactly and crosses within t + 1 acts.
        for i in 0..2 * t + 2 {
            if !d.on_activation(RowId(40), i).is_empty() {
                fired.push(i);
            }
        }
        assert!(!fired.is_empty());
    }

    #[test]
    fn checkpoint_round_trips_through_json_text() {
        let mut live = shared(4);
        for i in 0..20_000u64 {
            let b = (i % 4) as usize;
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            live[b].on_activation(row, i * 45_000);
        }
        let text = live[0].snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();

        let mut resumed = shared(4);
        for facade in resumed.iter_mut() {
            facade.restore_state(&state).unwrap();
        }
        assert_eq!(resumed[0].snapshot_state().unwrap().to_string(), text);

        for i in 20_000..60_000u64 {
            let b = (i % 4) as usize;
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            assert_eq!(
                live[b].on_activation(row, i * 45_000),
                resumed[b].on_activation(row, i * 45_000),
                "act {i}"
            );
        }
        assert_eq!(
            live[0].snapshot_state().unwrap().to_string(),
            resumed[0].snapshot_state().unwrap().to_string()
        );
    }

    #[test]
    fn checkpoint_rejects_foreign_scheme_and_wrong_bank_count() {
        let mut banks = shared(2);
        let err =
            banks[0].restore_state(&telemetry::json::parse("{\"scheme\":\"graphene\"}").unwrap());
        assert!(err.unwrap_err().contains("scheme `graphene`"));

        let foreign = shared(4)[0].snapshot_state().unwrap().to_string();
        let err = banks[0].restore_state(&telemetry::json::parse(&foreign).unwrap());
        assert!(err.unwrap_err().contains("covers 4 banks"));
    }

    #[test]
    fn fault_injection_reaches_shared_state() {
        let mut banks = shared(2);
        banks[0].on_activation(RowId(9), 0);
        assert!(banks[1].inject_fault(&faultsim::TrackerFault::CountBitFlip { slot: 0, bit: 3 }));
        assert!(banks[0].inject_fault(&faultsim::TrackerFault::AddrBitFlip { slot: 0, bit: 0 }));
        assert!(banks[0].inject_fault(&faultsim::TrackerFault::SpilloverBitFlip { bit: 1 }));
        assert!(banks[1].inject_fault(&faultsim::TrackerFault::LookupMiss));
    }
}
