//! RFM-issuer mode: re-spell a defense's NRRs as DDR5 RFM commands.
//!
//! DDR5 and LPDDR5 replace the controller-invented neighbour-row refresh
//! with a standardised *Refresh Management* (RFM) command (JESD79-5
//! §4.8): the controller keeps a Rolling Accumulated ACT (RAA) counter
//! per bank and issues RFM when it crosses RAAIMT, letting the device
//! refresh whichever victims its internal tracker deems hottest. A
//! controller-side tracker like Graphene maps onto this naturally — it
//! *targets* the RFM at the aggressor it just caught instead of leaving
//! the choice to the device.
//!
//! [`RfmIssuer`] wraps any [`RowHammerDefense`] and rewrites every
//! [`RefreshAction::Neighbors`] it emits into the equivalent
//! [`RefreshAction::Rfm`]. Nothing else changes: the victim set is
//! identical (the audit layer certifies both spellings the same way),
//! and every other trait method forwards to the inner scheme verbatim.
//! The semantic difference lives in the memory controller, which debits
//! the bank's RAA counter by RAAIMT per executed RFM and charges tRFM
//! instead of per-row refresh time.
//!
//! Row/Range actions (CBT bursts, CRA write-backs) pass through
//! untouched — RFM replaces targeted NRRs, not arbitrary refreshes.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use telemetry::json::{obj, JsonValue};

use crate::ckpt::expect_scheme;
use crate::defense::{RefreshAction, RowHammerDefense, TableBits, ThrottleDecision};

/// Wraps a defense so its NRRs are issued as DDR5 RFM commands.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{RefreshAction, RfmIssuer, RowHammerDefense};
/// use mitigations::graphene::GrapheneDefense;
/// use graphene_core::GrapheneConfig;
///
/// let inner = GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap();
/// let mut d = RfmIssuer::new(Box::new(inner));
/// assert_eq!(d.name(), "Rfm(Graphene)");
/// for i in 0..20_000u64 {
///     for a in d.on_activation(RowId(9), i * 45_000) {
///         assert!(matches!(a, RefreshAction::Rfm { .. }));
///     }
/// }
/// ```
pub struct RfmIssuer {
    inner: Box<dyn RowHammerDefense + Send>,
}

impl RfmIssuer {
    /// Wraps `inner` so every NRR it emits becomes an RFM.
    pub fn new(inner: Box<dyn RowHammerDefense + Send>) -> Self {
        RfmIssuer { inner }
    }

    /// The wrapped defense.
    pub fn inner(&self) -> &dyn RowHammerDefense {
        self.inner.as_ref()
    }

    fn respell(actions: Vec<RefreshAction>) -> Vec<RefreshAction> {
        actions
            .into_iter()
            .map(|a| match a {
                RefreshAction::Neighbors { aggressor, radius } => {
                    RefreshAction::Rfm { aggressor, radius }
                }
                other => other,
            })
            .collect()
    }
}

impl RowHammerDefense for RfmIssuer {
    fn name(&self) -> String {
        format!("Rfm({})", self.inner.name())
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        Self::respell(self.inner.on_activation(row, now))
    }

    fn on_refresh_tick(&mut self, now: Picoseconds) -> Vec<RefreshAction> {
        Self::respell(self.inner.on_refresh_tick(now))
    }

    fn throttle_decision(&mut self, row: RowId, now: Picoseconds) -> ThrottleDecision {
        self.inner.throttle_decision(row, now)
    }

    fn drain_overhead_time(&mut self) -> Picoseconds {
        self.inner.drain_overhead_time()
    }

    fn table_bits(&self) -> TableBits {
        self.inner.table_bits()
    }

    fn emit_telemetry(&self, bank: u16, now: Picoseconds, sink: &mut dyn telemetry::MetricsSink) {
        self.inner.emit_telemetry(bank, now, sink);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        self.inner.inject_fault(fault)
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        // The wrapper itself is stateless; only the inner scheme round-trips.
        Ok(obj(vec![
            ("scheme", JsonValue::Str("rfm-issuer".to_owned())),
            ("inner", self.inner.snapshot_state()?),
        ]))
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "rfm-issuer")?;
        self.inner.restore_state(state.field("inner")?)
    }
}

impl std::fmt::Debug for RfmIssuer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RfmIssuer").field("inner", &self.inner.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphene::GrapheneDefense;
    use graphene_core::GrapheneConfig;

    fn graphene() -> GrapheneDefense {
        GrapheneDefense::from_config(&GrapheneConfig::micro2020()).unwrap()
    }

    #[test]
    fn respells_nrrs_and_only_nrrs() {
        let mixed = vec![
            RefreshAction::Neighbors { aggressor: RowId(5), radius: 1 },
            RefreshAction::Row(RowId(9)),
            RefreshAction::Range { start: RowId(10), count: 4 },
        ];
        let out = RfmIssuer::respell(mixed);
        assert_eq!(out[0], RefreshAction::Rfm { aggressor: RowId(5), radius: 1 });
        assert_eq!(out[1], RefreshAction::Row(RowId(9)));
        assert_eq!(out[2], RefreshAction::Range { start: RowId(10), count: 4 });
    }

    #[test]
    fn rfm_graphene_fires_identically_to_plain_graphene() {
        // Same trigger times, same victim sets — only the spelling differs.
        let mut plain = graphene();
        let mut rfm = RfmIssuer::new(Box::new(graphene()));
        for i in 0..30_000u64 {
            let row = RowId(if i % 5 == 0 { 7 } else { 400 + (i % 13) as u32 });
            let now = i * 45_000;
            let a = plain.on_activation(row, now);
            let b = rfm.on_activation(row, now);
            assert_eq!(a.len(), b.len(), "fire decision diverged at ACT {i}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.rows(65_536), y.rows(65_536));
                assert!(matches!(y, RefreshAction::Rfm { .. } | RefreshAction::Row(_)));
            }
        }
    }

    #[test]
    fn forwards_metadata_and_checkpoints() {
        let d = RfmIssuer::new(Box::new(graphene()));
        assert_eq!(d.name(), "Rfm(Graphene)");
        assert_eq!(d.table_bits(), graphene().table_bits());

        let mut live = RfmIssuer::new(Box::new(graphene()));
        for i in 0..20_000u64 {
            live.on_activation(RowId((i % 31) as u32), i * 45_000);
        }
        let text = live.snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();
        let mut resumed = RfmIssuer::new(Box::new(graphene()));
        resumed.restore_state(&state).unwrap();
        for i in 20_000..40_000u64 {
            let row = RowId((i % 31) as u32);
            assert_eq!(live.on_activation(row, i * 45_000), resumed.on_activation(row, i * 45_000));
        }
    }
}
