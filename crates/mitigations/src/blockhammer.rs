//! BlockHammer: throttle the aggressor instead of refreshing the victims
//! (Yağlıkçı et al., HPCA 2021).
//!
//! BlockHammer keeps **two counting Bloom filters** per bank (here: two
//! Count-Min sketch cores, which are counting Bloom filters with per-row
//! hash seeds). Both filters count every activation; they share one shape,
//! so an activation hashes its row once for both. Their lifetimes are
//! staggered by half a refresh window and the older one is cleared at each
//! epoch boundary, so at any instant the *older* filter holds between half
//! and one full tREFW of history. A row whose older-filter estimate reaches
//! the blacklist threshold `N_BL` is *throttled*: the scheduler may serve
//! at most one blacklisted activation per `throttle_interval`, which caps
//! any aggressor's activation rate below the Row Hammer threshold without
//! issuing a single extra refresh.
//!
//! This is the defense that motivates the [`ThrottleDecision`] feedback
//! path: `on_activation` never returns refresh actions; all protection
//! flows through [`RowHammerDefense::throttle_decision`], which the memory
//! controller consults (with identical `(row, now)` order on every dispatch
//! path) immediately before serving an activation.
//!
//! Security accounting (DESIGN.md §6j): un-throttled activations of one row
//! are below `N_BL` per epoch (two epochs per tREFW → `≤ 2·N_BL = T_RH/4`),
//! throttled ones are paced to `tREFW / throttle_interval = T_RH/8`; a
//! double-sided pair of aggressors therefore disturbs a victim at most
//! `2·(T_RH/4 + T_RH/8) = 3·T_RH/4` per tREFW — a guaranteed 25% margin.
//! The filters only over-count, so blacklisting can only be early, never
//! late; the probabilistic term is pure false-positive (slowdown) risk.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use freq_elems::CountMinCore;
use graphene_core::{ConfigError, GrapheneConfig};
use telemetry::json::{write_obj, JsonValue};

use crate::ckpt::{expect_scheme, parse_written};
use crate::defense::{RefreshAction, RowHammerDefense, TableBits, ThrottleDecision};

fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// BlockHammer parameters (per bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// The Row Hammer threshold being defended.
    pub row_hammer_threshold: u64,
    /// Filter rows (independent hash functions).
    pub depth: usize,
    /// Counters per filter row.
    pub width: usize,
    /// Older-filter estimate at which a row is blacklisted (`N_BL`).
    pub blacklist_threshold: u64,
    /// Filter lifetime stagger: the older filter is cleared every `epoch`
    /// (= tREFW / 2).
    pub epoch: Picoseconds,
    /// Minimum spacing between served blacklisted activations.
    pub throttle_interval: Picoseconds,
    /// Rows per bank (unused by the mechanism, kept for uniform reports).
    pub rows_per_bank: u32,
}

impl BlockHammerConfig {
    /// Derives a configuration for `t_rh`: `N_BL = T_RH/8` and a throttle
    /// interval of `8·tREFW/T_RH`, giving the 25% disturbance margin
    /// derived in the module docs.
    ///
    /// # Errors
    ///
    /// Propagates the Graphene derivation error.
    pub fn for_threshold(t_rh: u64, rows_per_bank: u32) -> Result<Self, ConfigError> {
        Self::for_threshold_with_timing(t_rh, rows_per_bank, dram_model::DramTiming::ddr4_2400())
    }

    /// [`Self::for_threshold`] against an explicit timing configuration —
    /// the epoch and throttle interval follow the generation's tREFW
    /// instead of assuming DDR4-2400's 64 ms.
    ///
    /// # Errors
    ///
    /// Propagates the Graphene derivation error.
    pub fn for_threshold_with_timing(
        t_rh: u64,
        rows_per_bank: u32,
        timing: dram_model::DramTiming,
    ) -> Result<Self, ConfigError> {
        let params = GrapheneConfig::builder()
            .row_hammer_threshold(t_rh)
            .reset_window_divisor(1) // reset_window == tREFW
            .rows_per_bank(rows_per_bank)
            .timing(timing)
            .build()?
            .derive()?;
        let t_refw = params.reset_window;
        Ok(BlockHammerConfig {
            row_hammer_threshold: t_rh,
            depth: 4,
            width: 1024,
            blacklist_threshold: (t_rh / 8).max(1),
            epoch: (t_refw / 2).max(1),
            throttle_interval: (t_refw.saturating_mul(8) / t_rh.max(1)).max(1),
            rows_per_bank,
        })
    }
}

/// Lifetime counters of one BlockHammer instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHammerStats {
    /// Activations processed.
    pub activations: u64,
    /// Blacklist lookups that matched (throttled or not).
    pub blacklist_hits: u64,
    /// Activations actually delayed (`delay > 0`).
    pub throttled_acts: u64,
    /// Total delay imposed (ps).
    pub throttle_delay: Picoseconds,
    /// Epoch boundaries crossed (filter clears).
    pub epoch_swaps: u64,
}

/// Per-bank BlockHammer behind the common defense trait.
///
/// # Example
///
/// ```
/// use mitigations::{BlockHammerConfig, BlockHammerDefense, RowHammerDefense};
/// use dram_model::RowId;
///
/// let cfg = BlockHammerConfig::for_threshold(50_000, 65_536).unwrap();
/// let mut d = BlockHammerDefense::new(cfg);
/// // Never refreshes — protection is pure throttling.
/// assert!(d.on_activation(RowId(1), 0).is_empty());
/// assert!(!d.throttle_decision(RowId(1), 1).is_throttled());
/// ```
#[derive(Debug, Clone)]
pub struct BlockHammerDefense {
    cfg: BlockHammerConfig,
    filters: [CountMinCore; 2],
    epoch_idx: u64,
    next_allowed: Picoseconds,
    suppress_next_query: bool,
    stats: BlockHammerStats,
}

impl BlockHammerDefense {
    /// Builds the tracker.
    ///
    /// # Panics
    ///
    /// Panics if the filter geometry is zero-sized or deeper than
    /// [`freq_elems::count_min::MAX_DEPTH`].
    pub fn new(cfg: BlockHammerConfig) -> Self {
        BlockHammerDefense {
            filters: [
                CountMinCore::new(cfg.depth, cfg.width),
                CountMinCore::new(cfg.depth, cfg.width),
            ],
            epoch_idx: 0,
            next_allowed: 0,
            suppress_next_query: false,
            stats: BlockHammerStats::default(),
            cfg,
        }
    }

    /// The configuration this tracker was built from.
    pub fn config(&self) -> &BlockHammerConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BlockHammerStats {
        self.stats
    }

    fn roll(&mut self, now: Picoseconds) {
        let e = now / self.cfg.epoch;
        while self.epoch_idx < e {
            self.epoch_idx += 1;
            // Entering epoch `i` clears filter `i % 2`, making it the young
            // filter; the other one keeps 1..2 epochs of history.
            self.filters[(self.epoch_idx % 2) as usize].clear();
            self.stats.epoch_swaps += 1;
        }
    }

    fn older(&self) -> &CountMinCore {
        &self.filters[((self.epoch_idx + 1) % 2) as usize]
    }

    /// Whether `row` is currently blacklisted (no fault gating).
    pub fn is_blacklisted(&self, row: RowId) -> bool {
        let older = self.older();
        older.estimate(&older.slots(&row.0)) >= self.cfg.blacklist_threshold
    }
}

impl RowHammerDefense for BlockHammerDefense {
    fn name(&self) -> String {
        "BlockHammer".to_owned()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        self.roll(now);
        self.stats.activations += 1;
        // The filters share depth and width, hence the row's slots.
        let slots = self.filters[0].slots(&row.0);
        for filter in &mut self.filters {
            filter.add(&slots);
        }
        Vec::new()
    }

    fn throttle_decision(&mut self, row: RowId, now: Picoseconds) -> ThrottleDecision {
        self.roll(now);
        let listed = if self.suppress_next_query {
            self.suppress_next_query = false;
            false
        } else {
            self.is_blacklisted(row)
        };
        if !listed {
            return ThrottleDecision::proceed();
        }
        self.stats.blacklist_hits += 1;
        let start = self.next_allowed.max(now);
        let delay = start - now;
        self.next_allowed = start + self.cfg.throttle_interval;
        if delay > 0 {
            self.stats.throttled_acts += 1;
            self.stats.throttle_delay += delay;
        }
        ThrottleDecision::delay(delay)
    }

    fn table_bits(&self) -> TableBits {
        let counter_bits = bits_for(self.cfg.blacklist_threshold.saturating_mul(2).max(1));
        TableBits {
            cam_bits: 0,
            // Two filters plus the pacing register.
            sram_bits: 2 * self.filters[0].table_bits(counter_bits) + 64,
        }
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn telemetry::MetricsSink) {
        if !sink.enabled() {
            return;
        }
        let counters = self.older().counters();
        let occupied = counters.iter().filter(|&&c| c > 0).count();
        sink.sample(
            "blockhammer.filter_occupancy",
            bank,
            now,
            occupied as f64 / counters.len() as f64,
        );
        sink.sample("blockhammer.blacklist_hits", bank, now, self.stats.blacklist_hits as f64);
        sink.sample("blockhammer.throttled", bank, now, self.stats.throttled_acts as f64);
        sink.sample("blockhammer.throttle_delay", bank, now, self.stats.throttle_delay as f64);
    }

    fn reset(&mut self) {
        self.filters[0].clear();
        self.filters[1].clear();
        self.epoch_idx = 0;
        self.next_allowed = 0;
        self.suppress_next_query = false;
        self.stats = BlockHammerStats::default();
    }

    fn write_state(&self, out: &mut String) -> Result<(), String> {
        write_obj(out, |w| {
            w.str("scheme", "blockhammer")
                .u64("epoch_idx", self.epoch_idx)
                .u64("next_allowed", self.next_allowed)
                .u64("suppress_next_query", u64::from(self.suppress_next_query))
                .u64("depth", self.cfg.depth as u64)
                .u64("width", self.cfg.width as u64)
                .items("filters", &self.filters, |out, f| {
                    write_obj(out, |w| {
                        w.u64s("counters", f.counters().iter().copied())
                            .u64("stream_len", f.stream_len());
                    });
                });
            w.obj("stats", |w| {
                w.u64("activations", self.stats.activations)
                    .u64("blacklist_hits", self.stats.blacklist_hits)
                    .u64("throttled_acts", self.stats.throttled_acts)
                    .u64("throttle_delay", self.stats.throttle_delay)
                    .u64("epoch_swaps", self.stats.epoch_swaps);
            });
        });
        Ok(())
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        parse_written(self)
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "blockhammer")?;
        if state.int::<usize>("depth")? != self.cfg.depth
            || state.int::<usize>("width")? != self.cfg.width
        {
            return Err("checkpoint filter geometry does not match configuration".to_owned());
        }
        let filters = state.items("filters")?;
        if filters.len() != 2 {
            return Err(format!("expected 2 filters, found {}", filters.len()));
        }
        let mut lanes = Vec::with_capacity(2);
        for f in filters {
            lanes.push((f.ints::<u64>("counters")?, f.int("stream_len")?));
        }
        let stats = state.field("stats")?;
        let parsed = BlockHammerStats {
            activations: stats.int("activations")?,
            blacklist_hits: stats.int("blacklist_hits")?,
            throttled_acts: stats.int("throttled_acts")?,
            throttle_delay: stats.int("throttle_delay")?,
            epoch_swaps: stats.int("epoch_swaps")?,
        };
        for (i, (counters, stream_len)) in lanes.iter().enumerate() {
            self.filters[i].restore_counters(counters, *stream_len)?;
        }
        self.epoch_idx = state.int("epoch_idx")?;
        self.next_allowed = state.int("next_allowed")?;
        self.suppress_next_query = state.int::<u64>("suppress_next_query")? != 0;
        self.stats = parsed;
        Ok(())
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                let per_filter = self.cfg.depth * self.cfg.width;
                let idx = slot as usize % (2 * per_filter);
                self.filters[idx / per_filter].flip_bit(idx % per_filter, bit);
                true
            }
            faultsim::TrackerFault::AddrBitFlip { .. } => false,
            faultsim::TrackerFault::SpilloverBitFlip { .. } => false,
            faultsim::TrackerFault::LookupMiss => {
                self.suppress_next_query = true;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BlockHammerDefense {
        BlockHammerDefense::new(BlockHammerConfig::for_threshold(50_000, 65_536).unwrap())
    }

    #[test]
    fn never_emits_refresh_actions() {
        let mut d = small();
        for i in 0..20_000 {
            assert!(d.on_activation(RowId(40), i).is_empty());
            assert!(d.on_refresh_tick(i).is_empty());
        }
    }

    #[test]
    fn hot_row_is_throttled_and_paced() {
        let mut d = small();
        let nbl = d.config().blacklist_threshold;
        let interval = d.config().throttle_interval;
        // Hammer with 50ns spacing — far faster than the throttle pace.
        let spacing = 50_000u64;
        let mut first_throttle = None;
        for i in 0..2 * nbl {
            let now = i * spacing;
            let decision = d.throttle_decision(RowId(40), now);
            if decision.is_throttled() && first_throttle.is_none() {
                first_throttle = Some(i);
            }
            d.on_activation(RowId(40), now + decision.delay);
        }
        // The first nbl activations sail through; soon after, every
        // activation waits for the pacing register.
        let first = first_throttle.expect("hot row never throttled");
        assert!(first >= nbl, "throttled before the blacklist threshold: act {first}");
        assert!(first <= nbl + 2, "blacklisting was late: act {first}");
        assert!(d.stats().throttle_delay >= interval);

        // Paced rate stays below T_RH per tREFW: interval = 8·tREFW/T_RH.
        let t_refw = 2 * d.config().epoch;
        assert!(t_refw / interval <= d.config().row_hammer_threshold / 8 + 1);
    }

    #[test]
    fn cold_rows_proceed_unthrottled() {
        let mut d = small();
        for i in 0..10_000u64 {
            let row = RowId((i % 997) as u32);
            assert!(!d.throttle_decision(row, i * 50_000).is_throttled());
            d.on_activation(row, i * 50_000);
        }
        assert_eq!(d.stats().throttled_acts, 0);
    }

    #[test]
    fn epoch_roll_forgives_old_history() {
        let mut d = small();
        let nbl = d.config().blacklist_threshold;
        for i in 0..nbl + 1 {
            d.on_activation(RowId(40), i);
        }
        assert!(d.is_blacklisted(RowId(40)));
        // Two epoch boundaries later both filters have been cleared.
        let later = 2 * d.config().epoch + 1;
        assert!(!d.throttle_decision(RowId(40), later).is_throttled());
        assert_eq!(d.stats().epoch_swaps, 2);
    }

    #[test]
    fn checkpoint_round_trips_through_json_text() {
        let mut live = small();
        for i in 0..20_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            let now = i * 45_000;
            live.throttle_decision(row, now);
            live.on_activation(row, now);
        }
        let text = live.snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();

        let mut resumed = small();
        resumed.restore_state(&state).unwrap();
        assert_eq!(resumed.snapshot_state().unwrap().to_string(), text);

        for i in 20_000..60_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            let now = i * 45_000;
            assert_eq!(
                live.throttle_decision(row, now),
                resumed.throttle_decision(row, now),
                "throttle at act {i}"
            );
            live.on_activation(row, now);
            resumed.on_activation(row, now);
        }
        assert_eq!(
            live.snapshot_state().unwrap().to_string(),
            resumed.snapshot_state().unwrap().to_string()
        );
    }

    #[test]
    fn checkpoint_rejects_foreign_scheme() {
        let mut d = small();
        let err = d.restore_state(&telemetry::json::parse("{\"scheme\":\"comet\"}").unwrap());
        assert!(err.unwrap_err().contains("scheme `comet`"));
    }

    #[test]
    fn lookup_miss_fault_lets_one_activation_through() {
        let mut d = small();
        let nbl = d.config().blacklist_threshold;
        for i in 0..nbl + 1 {
            d.on_activation(RowId(40), i);
        }
        assert!(d.is_blacklisted(RowId(40)));
        assert!(d.inject_fault(&faultsim::TrackerFault::LookupMiss));
        assert!(!d.throttle_decision(RowId(40), nbl + 2).is_throttled());
    }

    #[test]
    fn count_bit_flip_changes_one_counter_of_the_addressed_filter() {
        let mut d = small();
        for i in 0..1_000u64 {
            d.on_activation(RowId(40 + (i % 3) as u32), i);
        }
        let per_filter = (d.config().depth * d.config().width) as u32;
        // Slot `s` addresses counter `s % (2·depth·width)` of the two
        // filters laid end to end; bits past the word wrap.
        for (slot, bit) in [(3, 2), (per_filter + 7, 66), (2 * per_filter + 1, 63)] {
            let lanes = |d: &BlockHammerDefense| -> Vec<u64> {
                d.filters.iter().flat_map(|f| f.counters().iter().copied()).collect()
            };
            let before = lanes(&d);
            assert!(d.inject_fault(&faultsim::TrackerFault::CountBitFlip { slot, bit }));
            let after = lanes(&d);
            let changed: Vec<usize> =
                (0..before.len()).filter(|&i| before[i] != after[i]).collect();
            assert_eq!(changed, vec![(slot % (2 * per_filter)) as usize], "slot {slot}, bit {bit}");
            assert_eq!(before[changed[0]].abs_diff(after[changed[0]]), 1 << (bit % 64));
        }
        assert!(d.filters.iter().all(|f| f.stream_len() == 1_000));
    }
}
