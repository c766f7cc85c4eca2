//! Graphene behind the common defense trait.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use graphene_core::mechanism::GrapheneSnapshot;
use graphene_core::table::TableSnapshot;
use graphene_core::{CamStats, ConfigError, Graphene, GrapheneConfig, GrapheneStats};
use telemetry::json::{obj, JsonValue};

use crate::ckpt::{expect_scheme, lane};
use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// Adapter exposing [`graphene_core::Graphene`] as a [`RowHammerDefense`].
///
/// # Example
///
/// ```
/// use graphene_core::GrapheneConfig;
/// use mitigations::{GrapheneDefense, RowHammerDefense};
/// use dram_model::RowId;
///
/// # fn main() -> Result<(), graphene_core::ConfigError> {
/// let mut d = GrapheneDefense::from_config(&GrapheneConfig::micro2020())?;
/// assert!(d.on_activation(RowId(1), 0).is_empty());
/// assert_eq!(d.name(), "Graphene");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GrapheneDefense {
    inner: Graphene,
}

impl GrapheneDefense {
    /// Wraps an existing engine.
    pub fn new(inner: Graphene) -> Self {
        GrapheneDefense { inner }
    }

    /// Builds the engine from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the parameter derivation.
    pub fn from_config(config: &GrapheneConfig) -> Result<Self, ConfigError> {
        Ok(Self::new(Graphene::from_config(config)?))
    }

    /// The wrapped engine (stats, table, parameters).
    pub fn inner(&self) -> &Graphene {
        &self.inner
    }

    /// Mutable access to the wrapped engine — fault-injection and test
    /// support.
    pub fn inner_mut(&mut self) -> &mut Graphene {
        &mut self.inner
    }
}

impl RowHammerDefense for GrapheneDefense {
    fn name(&self) -> String {
        "Graphene".to_owned()
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        match self.inner.on_activation(row, now) {
            Some(nrr) => {
                vec![RefreshAction::Neighbors { aggressor: nrr.aggressor, radius: nrr.radius }]
            }
            None => Vec::new(),
        }
    }

    fn table_bits(&self) -> TableBits {
        // Graphene's table is pure CAM (Figure 4).
        TableBits { cam_bits: self.inner.params().table_bits_per_bank(), sram_bits: 0 }
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn telemetry::MetricsSink) {
        self.inner.emit_telemetry(bank, now, sink);
    }

    fn reset(&mut self) {
        self.inner.force_reset();
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        let s = self.inner.snapshot();
        Ok(obj(vec![
            ("scheme", JsonValue::Str("graphene".to_owned())),
            ("current_window", JsonValue::U64(s.current_window)),
            ("nrrs_this_window", JsonValue::U64(s.nrrs_this_window)),
            (
                "stats",
                obj(vec![
                    ("activations", JsonValue::U64(s.stats.activations)),
                    ("nrrs_issued", JsonValue::U64(s.stats.nrrs_issued)),
                    ("victim_rows_requested", JsonValue::U64(s.stats.victim_rows_requested)),
                    ("table_resets", JsonValue::U64(s.stats.table_resets)),
                    ("evictions", JsonValue::U64(s.stats.evictions)),
                ]),
            ),
            (
                "table",
                obj(vec![
                    ("keys", lane(s.table.keys.iter().map(|&k| u64::from(k)))),
                    ("low", lane(s.table.low.iter().map(|&k| u64::from(k)))),
                    ("valid", lane(s.table.valid.iter().copied())),
                    ("overflow", lane(s.table.overflow.iter().map(|&b| u64::from(b)))),
                    ("crossings", lane(s.table.crossings.iter().copied())),
                    ("spillover", JsonValue::U64(s.table.spillover)),
                    ("acts_since_reset", JsonValue::U64(s.table.acts_since_reset)),
                    (
                        "cam",
                        obj(vec![
                            ("addr_searches", JsonValue::U64(s.table.stats.addr_searches)),
                            ("addr_writes", JsonValue::U64(s.table.stats.addr_writes)),
                            ("count_searches", JsonValue::U64(s.table.stats.count_searches)),
                            ("count_writes", JsonValue::U64(s.table.stats.count_writes)),
                            (
                                "spillover_increments",
                                JsonValue::U64(s.table.stats.spillover_increments),
                            ),
                        ]),
                    ),
                ]),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "graphene")?;
        let table = state.field("table")?;
        let stats = state.field("stats")?;
        let cam = table.field("cam")?;
        let snap = GrapheneSnapshot {
            table: TableSnapshot {
                keys: table.ints("keys")?,
                low: table.ints("low")?,
                valid: table.ints("valid")?,
                overflow: table.ints::<u64>("overflow")?.into_iter().map(|b| b != 0).collect(),
                crossings: table.ints("crossings")?,
                spillover: table.int("spillover")?,
                acts_since_reset: table.int("acts_since_reset")?,
                stats: CamStats {
                    addr_searches: cam.int("addr_searches")?,
                    addr_writes: cam.int("addr_writes")?,
                    count_searches: cam.int("count_searches")?,
                    count_writes: cam.int("count_writes")?,
                    spillover_increments: cam.int("spillover_increments")?,
                },
            },
            current_window: state.int("current_window")?,
            stats: GrapheneStats {
                activations: stats.int("activations")?,
                nrrs_issued: stats.int("nrrs_issued")?,
                victim_rows_requested: stats.int("victim_rows_requested")?,
                table_resets: stats.int("table_resets")?,
                evictions: stats.int("evictions")?,
            },
            nrrs_this_window: state.int("nrrs_this_window")?,
        };
        self.inner.restore(&snap)
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        let table = self.inner.table_mut();
        match *fault {
            faultsim::TrackerFault::CountBitFlip { slot, bit } => {
                table.corrupt_count_bit(slot as usize, bit)
            }
            faultsim::TrackerFault::AddrBitFlip { slot, bit } => {
                table.corrupt_addr_bit(slot as usize, bit)
            }
            faultsim::TrackerFault::SpilloverBitFlip { bit } => table.corrupt_spillover_bit(bit),
            faultsim::TrackerFault::LookupMiss => {
                table.suppress_next_lookup();
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bits_match_paper() {
        let d = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        assert_eq!(d.table_bits().cam_bits, 2_511);
        assert_eq!(d.table_bits().sram_bits, 0);
    }

    #[test]
    fn nrr_converted_to_neighbors_action() {
        let mut d = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        let t = d.inner().params().tracking_threshold;
        let mut fired = Vec::new();
        for i in 0..t {
            fired.extend(d.on_activation(RowId(40), i));
        }
        assert_eq!(fired, vec![RefreshAction::Neighbors { aggressor: RowId(40), radius: 1 }]);
    }

    #[test]
    fn refresh_tick_is_noop() {
        let mut d = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        assert!(d.on_refresh_tick(0).is_empty());
    }

    #[test]
    fn checkpoint_round_trips_through_json_text() {
        let mut live = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        for i in 0..20_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            live.on_activation(row, i * 45_000);
        }
        // Render → text → parse, as the checkpoint file does.
        let text = live.snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();

        let mut resumed = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        resumed.restore_state(&state).unwrap();
        assert_eq!(resumed.inner().snapshot(), live.inner().snapshot());

        // Identical continuations.
        for i in 20_000..60_000u64 {
            let row = RowId(if i % 5 == 0 { 40 } else { 1_000 + (i % 23) as u32 });
            assert_eq!(
                live.on_activation(row, i * 45_000),
                resumed.on_activation(row, i * 45_000),
                "act {i}"
            );
        }
        assert_eq!(resumed.inner().snapshot(), live.inner().snapshot());
    }

    #[test]
    fn checkpoint_rejects_foreign_scheme() {
        let mut d = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
        let err = d.restore_state(&telemetry::json::parse("{\"scheme\":\"para\"}").unwrap());
        assert!(err.unwrap_err().contains("scheme `para`"));
    }
}
