//! CoMeT: Count-Min Sketch activation tracking with a small exact
//! recent-aggressor table (Bostancı et al., HPCA 2024; arXiv 2402.18769).
//!
//! CoMeT attacks Graphene's main cost — the per-bank CAM — by counting
//! activations in a fixed-size Count-Min Sketch and keeping exact state only
//! for the few rows the sketch flags as hot. The sketch never under-counts a
//! row *until* a mitigation discounts its counters; from then on a row that
//! collides with a mitigated row in **all** sketch rows can be
//! under-estimated, which is why CoMeT carries a *bounded* (not zero)
//! false-negative probability. `analysis::certificates` derives that bound;
//! the arena sweep checks the observed disturbance margin against it.
//!
//! Mechanism per activation:
//!
//! 1. roll the reset window (sketch + table clear, like Graphene's `k`
//!    windows per tREFW);
//! 2. count the row in the sketch;
//! 3. if the row is in the recent-aggressor table (RAT), bump its exact
//!    counter; at `nrr_threshold` fire an NRR, zero the counter, and
//!    discount the sketch (counter reset on mitigation);
//! 4. otherwise promote the row into the RAT once its sketch estimate
//!    reaches `insert_threshold`, seeding the exact counter from the
//!    estimate so promotion can never lose counts.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use freq_elems::CountMinCore;
use graphene_core::GrapheneConfig;
use telemetry::json::{obj, JsonValue};

use crate::ckpt::{expect_scheme, lane};
use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// CoMeT parameters. Thresholds are derived from the Graphene derivation at
/// the same `T_RH` so the two schemes defend the same threshold with the
/// same window schedule, isolating the tracker difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CometConfig {
    /// The Row Hammer threshold being defended.
    pub row_hammer_threshold: u64,
    /// Exact-counter value at which an NRR fires (Graphene's `T`).
    pub nrr_threshold: u64,
    /// Sketch estimate at which a row is promoted into the RAT.
    pub insert_threshold: u64,
    /// Sketch rows (independent hash functions).
    pub depth: usize,
    /// Counters per sketch row.
    pub width: usize,
    /// Recent-aggressor-table entries.
    pub rat_entries: usize,
    /// Reset-window length (ps).
    pub reset_window: Picoseconds,
    /// Rows per bank (clips NRR victims).
    pub rows_per_bank: u32,
    /// NRR blast radius.
    pub radius: u32,
}

impl CometConfig {
    /// Derives a configuration for `t_rh` using the paper-default sketch
    /// geometry (4 × 512 — fixed, which is the whole point: CoMeT's area
    /// does not grow as `T_RH` drops).
    ///
    /// # Errors
    ///
    /// Propagates the Graphene derivation error as text.
    pub fn for_threshold(t_rh: u64, rows_per_bank: u32) -> Result<Self, String> {
        Self::for_threshold_with_timing(t_rh, rows_per_bank, dram_model::DramTiming::ddr4_2400())
    }

    /// [`Self::for_threshold`] against an explicit timing configuration —
    /// the derived thresholds and reset window scale with the generation's
    /// tREFW/tREFI/tRC instead of assuming DDR4-2400.
    ///
    /// # Errors
    ///
    /// Propagates the Graphene derivation error as text.
    pub fn for_threshold_with_timing(
        t_rh: u64,
        rows_per_bank: u32,
        timing: dram_model::DramTiming,
    ) -> Result<Self, String> {
        let params = GrapheneConfig::builder()
            .row_hammer_threshold(t_rh)
            .rows_per_bank(rows_per_bank)
            .timing(timing)
            .build()
            .map_err(|e| format!("{e:?}"))?
            .derive()
            .map_err(|e| format!("{e:?}"))?;
        Ok(CometConfig {
            row_hammer_threshold: t_rh,
            nrr_threshold: params.tracking_threshold.max(1),
            insert_threshold: (params.tracking_threshold / 2).max(1),
            depth: 4,
            width: 512,
            rat_entries: 128,
            reset_window: params.reset_window,
            rows_per_bank,
            radius: params.blast_radius,
        })
    }
}

/// Lifetime counters of one CoMeT instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CometStats {
    /// Activations processed.
    pub activations: u64,
    /// NRR commands issued.
    pub nrrs_issued: u64,
    /// Victim rows requested across all NRRs.
    pub victim_rows_requested: u64,
    /// Reset-window rollovers.
    pub window_resets: u64,
    /// RAT promotions.
    pub rat_inserts: u64,
    /// RAT evictions (coldest entry replaced).
    pub rat_evictions: u64,
    /// Sketch discounts applied after mitigations.
    pub discounts: u64,
}

/// Per-bank CoMeT tracker behind the common defense trait.
///
/// # Example
///
/// ```
/// use mitigations::{CometConfig, CometDefense, RowHammerDefense};
/// use dram_model::RowId;
///
/// let cfg = CometConfig::for_threshold(50_000, 65_536).unwrap();
/// let mut d = CometDefense::new(cfg);
/// assert!(d.on_activation(RowId(1), 0).is_empty());
/// assert_eq!(d.name(), "CoMeT");
/// ```
#[derive(Debug, Clone)]
pub struct CometDefense {
    cfg: CometConfig,
    cms: CountMinCore,
    rat_rows: Vec<u32>,
    rat_counts: Vec<u64>,
    current_window: u64,
    suppress_next_lookup: bool,
    stats: CometStats,
}

impl CometDefense {
    /// Builds the tracker.
    ///
    /// # Panics
    ///
    /// Panics if the sketch or RAT geometry is zero-sized, or the sketch is
    /// deeper than [`freq_elems::count_min::MAX_DEPTH`].
    pub fn new(cfg: CometConfig) -> Self {
        assert!(cfg.rat_entries > 0, "RAT must have at least one entry");
        assert!(cfg.nrr_threshold > 0, "NRR threshold must be positive");
        CometDefense {
            cms: CountMinCore::new(cfg.depth, cfg.width),
            rat_rows: Vec::with_capacity(cfg.rat_entries),
            rat_counts: Vec::with_capacity(cfg.rat_entries),
            current_window: 0,
            suppress_next_lookup: false,
            stats: CometStats::default(),
            cfg,
        }
    }

    /// The configuration this tracker was built from.
    pub fn config(&self) -> &CometConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CometStats {
        self.stats
    }

    fn roll_window(&mut self, now: Picoseconds) {
        if self.cfg.reset_window == 0 {
            return;
        }
        let w = now / self.cfg.reset_window;
        if w != self.current_window {
            self.cms.clear();
            self.rat_rows.clear();
            self.rat_counts.clear();
            self.current_window = w;
            self.stats.window_resets += 1;
        }
    }

    fn fire(&mut self, row: RowId) -> RefreshAction {
        let action = RefreshAction::Neighbors { aggressor: row, radius: self.cfg.radius };
        self.stats.nrrs_issued += 1;
        self.stats.victim_rows_requested += action.row_count(self.cfg.rows_per_bank);
        action
    }
}

impl RowHammerDefense for CometDefense {
    fn name(&self) -> String {
        "CoMeT".to_owned()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        self.roll_window(now);
        self.stats.activations += 1;
        // One hash serves the count, the estimate on a RAT miss and the
        // discount.
        let slots = self.cms.slots(&row.0);
        self.cms.add(&slots);
        let hit = if self.suppress_next_lookup {
            self.suppress_next_lookup = false;
            None
        } else {
            self.rat_rows.iter().position(|&r| r == row.0)
        };
        let mut out = Vec::new();
        match hit {
            Some(i) => {
                self.rat_counts[i] += 1;
                if self.rat_counts[i] >= self.cfg.nrr_threshold {
                    let mitigated = self.rat_counts[i];
                    out.push(self.fire(row));
                    self.rat_counts[i] = 0;
                    self.cms.discount(&slots, mitigated);
                    self.stats.discounts += 1;
                }
            }
            None => {
                let est = self.cms.estimate(&slots);
                if est >= self.cfg.insert_threshold {
                    let i = if self.rat_rows.len() < self.cfg.rat_entries {
                        self.rat_rows.push(row.0);
                        self.rat_counts.push(0);
                        self.rat_rows.len() - 1
                    } else {
                        // Replace the coldest entry; evicted rows keep
                        // counting in the sketch, so nothing is lost.
                        let i = self
                            .rat_counts
                            .iter()
                            .enumerate()
                            .min_by_key(|&(i, &c)| (c, i))
                            .map(|(i, _)| i)
                            .expect("RAT is full, hence non-empty");
                        self.stats.rat_evictions += 1;
                        self.rat_rows[i] = row.0;
                        i
                    };
                    self.stats.rat_inserts += 1;
                    // Seed from the estimate: promotion never loses counts
                    // (the estimate covers acts before promotion).
                    self.rat_counts[i] = est;
                    if self.rat_counts[i] >= self.cfg.nrr_threshold {
                        let mitigated = self.rat_counts[i];
                        out.push(self.fire(row));
                        self.rat_counts[i] = 0;
                        self.cms.discount(&slots, mitigated);
                        self.stats.discounts += 1;
                    }
                }
            }
        }
        out
    }

    fn table_bits(&self) -> TableBits {
        let count_bits = bits_for(self.cfg.nrr_threshold.saturating_mul(2).max(1));
        let addr_bits = bits_for(u64::from(self.cfg.rows_per_bank.saturating_sub(1)).max(1));
        TableBits {
            cam_bits: self.cfg.rat_entries as u64 * u64::from(addr_bits + count_bits),
            sram_bits: self.cms.table_bits(count_bits),
        }
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn telemetry::MetricsSink) {
        if !sink.enabled() {
            return;
        }
        let counters = self.cms.counters();
        let occupied = counters.iter().filter(|&&c| c > 0).count();
        sink.sample("comet.cms_occupancy", bank, now, occupied as f64 / counters.len() as f64);
        sink.sample(
            "comet.rat_occupancy",
            bank,
            now,
            self.rat_rows.len() as f64 / self.cfg.rat_entries as f64,
        );
        sink.sample("comet.nrrs", bank, now, self.stats.nrrs_issued as f64);
        sink.sample("comet.discounts", bank, now, self.stats.discounts as f64);
    }

    fn reset(&mut self) {
        self.cms.clear();
        self.rat_rows.clear();
        self.rat_counts.clear();
        self.current_window = 0;
        self.suppress_next_lookup = false;
        self.stats = CometStats::default();
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        Ok(obj(vec![
            ("scheme", JsonValue::Str("comet".to_owned())),
            ("current_window", JsonValue::U64(self.current_window)),
            ("suppress_next_lookup", JsonValue::U64(u64::from(self.suppress_next_lookup))),
            (
                "cms",
                obj(vec![
                    ("depth", JsonValue::U64(self.cms.depth() as u64)),
                    ("width", JsonValue::U64(self.cms.width() as u64)),
                    ("counters", lane(self.cms.counters().iter().copied())),
                    ("stream_len", JsonValue::U64(self.cms.stream_len())),
                ]),
            ),
            (
                "rat",
                obj(vec![
                    ("rows", lane(self.rat_rows.iter().map(|&r| u64::from(r)))),
                    ("counts", lane(self.rat_counts.iter().copied())),
                ]),
            ),
            (
                "stats",
                obj(vec![
                    ("activations", JsonValue::U64(self.stats.activations)),
                    ("nrrs_issued", JsonValue::U64(self.stats.nrrs_issued)),
                    ("victim_rows_requested", JsonValue::U64(self.stats.victim_rows_requested)),
                    ("window_resets", JsonValue::U64(self.stats.window_resets)),
                    ("rat_inserts", JsonValue::U64(self.stats.rat_inserts)),
                    ("rat_evictions", JsonValue::U64(self.stats.rat_evictions)),
                    ("discounts", JsonValue::U64(self.stats.discounts)),
                ]),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "comet")?;
        let cms = state.field("cms")?;
        if cms.int::<usize>("depth")? != self.cms.depth()
            || cms.int::<usize>("width")? != self.cms.width()
        {
            return Err("checkpoint sketch geometry does not match configuration".to_owned());
        }
        let counters: Vec<u64> = cms.ints("counters")?;
        let stream_len = cms.int("stream_len")?;
        let rat = state.field("rat")?;
        let rows: Vec<u32> = rat.ints("rows")?;
        let counts: Vec<u64> = rat.ints("counts")?;
        if rows.len() != counts.len() || rows.len() > self.cfg.rat_entries {
            return Err(format!(
                "RAT lanes are {}/{} entries for a {}-entry table",
                rows.len(),
                counts.len(),
                self.cfg.rat_entries
            ));
        }
        let stats = state.field("stats")?;
        let parsed = CometStats {
            activations: stats.int("activations")?,
            nrrs_issued: stats.int("nrrs_issued")?,
            victim_rows_requested: stats.int("victim_rows_requested")?,
            window_resets: stats.int("window_resets")?,
            rat_inserts: stats.int("rat_inserts")?,
            rat_evictions: stats.int("rat_evictions")?,
            discounts: stats.int("discounts")?,
        };
        self.cms.restore_counters(&counters, stream_len)?;
        self.rat_rows = rows;
        self.rat_counts = counts;
        self.current_window = state.int("current_window")?;
        self.suppress_next_lookup = state.int::<u64>("suppress_next_lookup")? != 0;
        self.stats = parsed;
        Ok(())
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                self.cms.flip_bit(slot as usize, bit);
                true
            }
            faultsim::TrackerFault::AddrBitFlip { slot, bit } => {
                if self.rat_rows.is_empty() {
                    return false;
                }
                let addr_bits =
                    bits_for(u64::from(self.cfg.rows_per_bank.saturating_sub(1)).max(1));
                let i = slot as usize % self.rat_rows.len();
                self.rat_rows[i] ^= 1 << (bit % addr_bits);
                true
            }
            faultsim::TrackerFault::SpilloverBitFlip { .. } => false,
            faultsim::TrackerFault::LookupMiss => {
                self.suppress_next_lookup = true;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CometDefense {
        CometDefense::new(CometConfig::for_threshold(50_000, 65_536).unwrap())
    }

    #[test]
    fn derivation_matches_graphene_schedule() {
        let cfg = CometConfig::for_threshold(50_000, 65_536).unwrap();
        let g = GrapheneConfig::micro2020().derive().unwrap();
        assert_eq!(cfg.nrr_threshold, g.tracking_threshold);
        assert_eq!(cfg.reset_window, g.reset_window);
        assert!(cfg.insert_threshold < cfg.nrr_threshold);
    }

    #[test]
    fn hot_row_fires_at_threshold_and_again_after_discount() {
        let mut d = small();
        let t = d.config().nrr_threshold;
        let mut fired_at = Vec::new();
        for i in 0..2 * t {
            if !d.on_activation(RowId(40), i).is_empty() {
                fired_at.push(i);
            }
        }
        // A lone row has an exact estimate: first NRR at act T, the counter
        // and sketch reset, and the second NRR lands T acts later.
        assert_eq!(fired_at, vec![t - 1, 2 * t - 1]);
        assert_eq!(d.stats().discounts, 2);
    }

    #[test]
    fn area_is_flat_across_thresholds() {
        let hi = CometDefense::new(CometConfig::for_threshold(50_000, 65_536).unwrap());
        let lo = CometDefense::new(CometConfig::for_threshold(1_000, 65_536).unwrap());
        // The sketch footprint is fixed; only counter width may shrink.
        assert!(lo.table_bits().sram_bits <= hi.table_bits().sram_bits);
    }

    #[test]
    fn window_roll_clears_tracking() {
        let mut d = small();
        let w = d.config().reset_window;
        for i in 0..100 {
            d.on_activation(RowId(7), i);
        }
        d.on_activation(RowId(7), w + 1);
        assert_eq!(d.stats().window_resets, 1);
        assert!(d.cms.estimate(&d.cms.slots(&7u32)) <= 1);
    }

    #[test]
    fn checkpoint_round_trips_through_json_text() {
        let mut live = small();
        for i in 0..20_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            live.on_activation(row, i * 45_000);
        }
        let text = live.snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();

        let mut resumed = small();
        resumed.restore_state(&state).unwrap();
        assert_eq!(resumed.snapshot_state().unwrap().to_string(), text);

        for i in 20_000..60_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            assert_eq!(
                live.on_activation(row, i * 45_000),
                resumed.on_activation(row, i * 45_000),
                "act {i}"
            );
        }
        assert_eq!(
            live.snapshot_state().unwrap().to_string(),
            resumed.snapshot_state().unwrap().to_string()
        );
    }

    #[test]
    fn checkpoint_rejects_foreign_scheme() {
        let mut d = small();
        let err = d.restore_state(&telemetry::json::parse("{\"scheme\":\"graphene\"}").unwrap());
        assert!(err.unwrap_err().contains("scheme `graphene`"));
    }

    #[test]
    fn fault_injection_reaches_sketch_and_rat() {
        let mut d = small();
        for i in 0..d.config().insert_threshold + 1 {
            d.on_activation(RowId(9), i);
        }
        assert!(d.inject_fault(&faultsim::TrackerFault::CountBitFlip { slot: 3, bit: 2 }));
        assert!(d.inject_fault(&faultsim::TrackerFault::AddrBitFlip { slot: 0, bit: 1 }));
        assert!(d.inject_fault(&faultsim::TrackerFault::LookupMiss));
        assert!(!d.inject_fault(&faultsim::TrackerFault::SpilloverBitFlip { bit: 0 }));
    }

    #[test]
    fn count_bit_flip_changes_one_counter_by_its_bit() {
        let mut d = small();
        for i in 0..1_000u64 {
            d.on_activation(RowId(9 + (i % 3) as u32), i);
        }
        let lane = d.cms.counters().len() as u32;
        // Slots past the lane and bits past the word wrap.
        for (slot, bit) in [(3, 2), (lane + 5, 66), (lane - 1, 63)] {
            let before = d.cms.counters().to_vec();
            assert!(d.inject_fault(&faultsim::TrackerFault::CountBitFlip { slot, bit }));
            let after = d.cms.counters();
            let changed: Vec<usize> =
                (0..before.len()).filter(|&i| before[i] != after[i]).collect();
            assert_eq!(changed, vec![(slot % lane) as usize], "slot {slot}, bit {bit}");
            assert_eq!(before[changed[0]].abs_diff(after[changed[0]]), 1 << (bit % 64));
        }
        assert_eq!(d.cms.stream_len(), 1_000);
    }
}
