//! Online audit wrapper for any [`RowHammerDefense`].
//!
//! [`AuditedDefense`] sits between the memory controller and an inner
//! defense, validating every [`RefreshAction`] against what a defense is
//! physically able to know and do:
//!
//! * a defense observes only ACT commands, so it cannot act before the
//!   first ACT of the run;
//! * every refresh it requests must target the neighbourhood of a row that
//!   was actually activated — an NRR names a real past aggressor, a row or
//!   range refresh lands within `max_radius` of one;
//! * targets beyond the bank (after the `max_radius` slack that saturating
//!   bank-edge arithmetic legitimately produces) are rejected.
//!
//! [`AuditConfig::degraded_repairs`] waives only the was-activated check
//! on NRR aggressors: a parity-scrubbing defense repairing a detected
//! address corruption legitimately names rows it never saw. Everything
//! else — the bank bound, the radius check, the certificate — still holds.
//!
//! For Graphene the wrapper additionally keeps an independent shadow
//! activation count per row and certifies the paper's **no-false-negatives
//! trigger** (Section IV): within each reset window, a row activated `c`
//! times must have received at least `⌊c / T⌋` NRRs. The shadow windows
//! roll on the same `now / reset_window` boundary as the engine, so the
//! certificate is checked against exactly the window the table saw.
//!
//! Violations panic with the inner defense's name and the offending
//! action; the wrapper is an executable specification, not a logger. The
//! wrapper is transparent otherwise: it forwards the inner defense's
//! actions, overhead time, and table footprint unchanged, so audited and
//! unaudited runs produce identical [`crate::defense::TableBits`] and
//! `RunStats`.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use telemetry::json::{obj, JsonValue};

use crate::ckpt::expect_scheme;
use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// Parameters of the Graphene no-false-negatives certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowCert {
    /// The tracking threshold `T` whose multiples must trigger NRRs.
    pub tracking_threshold: u64,
    /// The reset-window length; shadow counts clear on each
    /// `now / reset_window` boundary, mirroring the engine.
    pub reset_window: Picoseconds,
}

/// Configuration of the audit wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Rows in the protected bank.
    pub rows_per_bank: u32,
    /// Largest distance from an activated row at which an action target is
    /// still plausible (the blast radius; 1 for the paper's adjacent model).
    pub max_radius: u32,
    /// When set, the wrapper certifies the multiples-of-`T` trigger with an
    /// independent shadow count (Graphene only).
    pub certify: Option<ShadowCert>,
    /// Accept repair NRRs naming rows that were never activated. A
    /// parity-scrubbing defense ([`crate::HardenedGraphene`]) that detects
    /// a corrupted *address* cannot know which row the slot was tracking,
    /// so its conservative Hamming-ball repair legitimately names
    /// never-activated rows. The bank bound still applies — only the
    /// was-activated requirement is waived.
    pub degraded_repairs: bool,
}

impl AuditConfig {
    /// Plain validation (no trigger certificate) with blast radius 1.
    pub fn new(rows_per_bank: u32) -> Self {
        AuditConfig { rows_per_bank, max_radius: 1, certify: None, degraded_repairs: false }
    }
}

/// A [`RowHammerDefense`] that validates another defense's every action.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use mitigations::{AuditConfig, AuditedDefense, Para, RowHammerDefense};
///
/// let mut d = AuditedDefense::new(Box::new(Para::new(0.01, 7)), AuditConfig::new(65_536));
/// for i in 0..1_000u64 {
///     d.on_activation(RowId(100), i * 45_000); // panics on any bogus action
/// }
/// assert!(d.name().starts_with("Audited("));
/// ```
pub struct AuditedDefense {
    inner: Box<dyn RowHammerDefense + Send>,
    cfg: AuditConfig,
    /// Rows activated at least once this run (never cleared by window
    /// rolls: "was ever an aggressor" is the property actions are checked
    /// against).
    activated: Vec<bool>,
    any_act: bool,
    /// Shadow per-row activation counts for the current cert window.
    shadow_counts: Vec<u32>,
    /// NRRs received per row in the current cert window.
    shadow_nrrs: Vec<u32>,
    current_window: u64,
}

impl AuditedDefense {
    /// Wraps `inner` so every action it emits is validated against `cfg`.
    pub fn new(inner: Box<dyn RowHammerDefense + Send>, cfg: AuditConfig) -> Self {
        let rows = cfg.rows_per_bank as usize;
        let cert_rows = if cfg.certify.is_some() { rows } else { 0 };
        AuditedDefense {
            inner,
            cfg,
            activated: vec![false; rows],
            any_act: false,
            shadow_counts: vec![0; cert_rows],
            shadow_nrrs: vec![0; cert_rows],
            current_window: 0,
        }
    }

    /// The wrapped defense.
    pub fn inner(&self) -> &dyn RowHammerDefense {
        self.inner.as_ref()
    }

    /// True if any row within `max_radius` of `target` has been activated
    /// (distance 0 counts: saturating bank-edge arithmetic makes a defense
    /// legitimately refresh the aggressor itself at row 0).
    fn near_activated(&self, target: u32) -> bool {
        let lo = target.saturating_sub(self.cfg.max_radius);
        let hi = target
            .saturating_add(self.cfg.max_radius)
            .min(self.cfg.rows_per_bank.saturating_sub(1));
        (lo..=hi).any(|r| self.activated.get(r as usize) == Some(&true))
    }

    /// Panics if `action` is something no real defense could have emitted.
    fn validate_action(&self, action: &RefreshAction, now: Picoseconds) {
        let name = self.inner.name();
        assert!(
            self.any_act,
            "audit[{name}]: emitted {action:?} at t={now} before any ACT was observed"
        );
        match *action {
            // An RFM is the DDR5 spelling of an NRR: same victim set, same
            // physical constraints, so it passes exactly the NRR checks.
            RefreshAction::Neighbors { aggressor, radius }
            | RefreshAction::Rfm { aggressor, radius } => {
                assert!(
                    radius >= 1,
                    "audit[{name}]: NRR with radius 0 refreshes nothing ({action:?})"
                );
                assert!(
                    aggressor.0 < self.cfg.rows_per_bank,
                    "audit[{name}]: NRR aggressor {aggressor} outside bank of {} rows",
                    self.cfg.rows_per_bank
                );
                // Degraded-repair mode waives only this assertion: a
                // scrubbing defense that detected a corrupted address may
                // name a row it never saw (the in-bank bound above still
                // holds unconditionally).
                assert!(
                    self.cfg.degraded_repairs || self.activated[aggressor.0 as usize],
                    "audit[{name}]: NRR names aggressor {aggressor}, which was never activated"
                );
            }
            RefreshAction::Row(target) => {
                assert!(
                    target.0 < self.cfg.rows_per_bank + self.cfg.max_radius,
                    "audit[{name}]: row refresh {target} beyond bank edge slack \
                     (bank has {} rows, radius {})",
                    self.cfg.rows_per_bank,
                    self.cfg.max_radius
                );
                assert!(
                    self.near_activated(target.0),
                    "audit[{name}]: row refresh {target} is not within {} of any \
                     activated row",
                    self.cfg.max_radius
                );
            }
            RefreshAction::Range { start, count } => {
                assert!(count >= 1, "audit[{name}]: empty range refresh ({action:?})");
                assert!(
                    start.0 < self.cfg.rows_per_bank,
                    "audit[{name}]: range start {start} outside bank of {} rows",
                    self.cfg.rows_per_bank
                );
                let lo = start.0.saturating_sub(self.cfg.max_radius);
                let hi = start
                    .0
                    .saturating_add(count - 1)
                    .saturating_add(self.cfg.max_radius)
                    .min(self.cfg.rows_per_bank.saturating_sub(1));
                assert!(
                    (lo..=hi).any(|r| self.activated[r as usize]),
                    "audit[{name}]: range refresh {action:?} contains no activated row \
                     (±{} slack)",
                    self.cfg.max_radius
                );
            }
        }
    }

    /// Rolls the certificate window if `now` crossed a reset boundary,
    /// mirroring the engine's `now / reset_window` alignment.
    fn roll_cert_window(&mut self, now: Picoseconds) {
        let Some(cert) = self.cfg.certify else { return };
        let window = now / cert.reset_window;
        if window != self.current_window {
            self.shadow_counts.fill(0);
            self.shadow_nrrs.fill(0);
            self.current_window = window;
        }
    }
}

/// A JSON array of `entry(index, value)` for every nonzero entry of `v`.
/// The histories are bank-sized but sparse, so all-zero blocks are skipped
/// with one branch-free test each.
fn sparse<T: Copy + Default + PartialEq>(
    v: &[T],
    entry: impl Fn(usize, T) -> JsonValue,
) -> JsonValue {
    const BLOCK: usize = 64;
    let zero = T::default();
    let mut out = Vec::new();
    for (b, block) in v.chunks(BLOCK).enumerate() {
        if block.iter().fold(false, |any, &x| any | (x != zero)) {
            for (i, &x) in block.iter().enumerate() {
                if x != zero {
                    out.push(entry(b * BLOCK + i, x));
                }
            }
        }
    }
    JsonValue::Arr(out)
}

impl RowHammerDefense for AuditedDefense {
    fn name(&self) -> String {
        format!("Audited({})", self.inner.name())
    }

    fn on_activation(&mut self, row: RowId, now: Picoseconds) -> Vec<RefreshAction> {
        assert!(
            row.0 < self.cfg.rows_per_bank,
            "audit: controller fed activation of {row} outside bank of {} rows",
            self.cfg.rows_per_bank
        );
        self.roll_cert_window(now);
        self.any_act = true;
        self.activated[row.0 as usize] = true;
        if self.cfg.certify.is_some() {
            self.shadow_counts[row.0 as usize] += 1;
        }
        let actions = self.inner.on_activation(row, now);
        for action in &actions {
            self.validate_action(action, now);
            if let Some(cert) = self.cfg.certify {
                match *action {
                    RefreshAction::Neighbors { aggressor, .. }
                    | RefreshAction::Rfm { aggressor, .. } => {
                        // `validate_action` already proved the aggressor was
                        // activated. It is usually the current row (Graphene
                        // triggers on the aggressor being activated), but a
                        // hardened wrapper may emit conservative *repair*
                        // NRRs for other tracked aggressors after detecting
                        // corruption — those credit the named row's shadow
                        // account instead. An RFM refreshes the same victim
                        // set as an NRR (the RAA debit is controller
                        // bookkeeping, not a protection difference), so the
                        // certificate credits both spellings identically.
                        self.shadow_nrrs[aggressor.0 as usize] += 1;
                    }
                    ref other => panic!(
                        "audit[{}]: certified defense emitted {other:?}; Graphene \
                         only issues NRRs (or their RFM spelling)",
                        self.inner.name()
                    ),
                }
                let count = u64::from(self.shadow_counts[row.0 as usize]);
                let nrrs = u64::from(self.shadow_nrrs[row.0 as usize]);
                assert!(
                    nrrs >= count / cert.tracking_threshold,
                    "audit[{}]: no-false-negative certificate failed for {row}: {count} \
                     ACTs this window but only {nrrs} NRR(s) at T={}",
                    self.inner.name(),
                    cert.tracking_threshold
                );
            }
        }
        if let Some(cert) = self.cfg.certify {
            // The certificate also binds when the inner defense stays
            // silent: crossing a multiple of T without an NRR this window
            // is exactly the false negative the paper rules out.
            let count = u64::from(self.shadow_counts[row.0 as usize]);
            let nrrs = u64::from(self.shadow_nrrs[row.0 as usize]);
            assert!(
                nrrs >= count / cert.tracking_threshold,
                "audit[{}]: no-false-negative certificate failed for {row}: {count} ACTs \
                 this window but only {nrrs} NRR(s) at T={}",
                self.inner.name(),
                cert.tracking_threshold
            );
        }
        actions
    }

    fn on_refresh_tick(&mut self, now: Picoseconds) -> Vec<RefreshAction> {
        self.roll_cert_window(now);
        let actions = self.inner.on_refresh_tick(now);
        for action in &actions {
            self.validate_action(action, now);
            // NRRs issued between ACTs (a hardened wrapper scrubbing on
            // the refresh tick) credit the named row's shadow account just
            // like ACT-time NRRs — otherwise a repair emitted here would
            // be invisible to the certificate and trip a false alarm at
            // the row's next crossing.
            if self.cfg.certify.is_some() {
                if let RefreshAction::Neighbors { aggressor, .. }
                | RefreshAction::Rfm { aggressor, .. } = *action
                {
                    self.shadow_nrrs[aggressor.0 as usize] += 1;
                }
            }
        }
        actions
    }

    fn throttle_decision(
        &mut self,
        row: RowId,
        now: Picoseconds,
    ) -> crate::defense::ThrottleDecision {
        // Forwarded verbatim: throttling is scheduler feedback, not a
        // refresh action, so there is nothing for the action validator to
        // check — but losing it here would silently disarm a throttling
        // defense under audit.
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
        self.activated.fill(false);
        self.any_act = false;
        self.shadow_counts.fill(0);
        self.shadow_nrrs.fill(0);
        self.current_window = 0;
    }

    fn inject_fault(&mut self, fault: &faultsim::TrackerFault) -> bool {
        // The fault strikes the inner tracker's SRAM; the shadow oracle is
        // the audit's own (assumed-good) bookkeeping and stays intact —
        // that asymmetry is what lets the audit *detect* the consequences.
        self.inner.inject_fault(fault)
    }

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        // Sparse encodings: activation history and shadow accounts are
        // bank-sized (64Ki rows) but a realistic run touches a small
        // fraction, so only set bits / nonzero counts are written.
        let activated = sparse(&self.activated, |i, _| JsonValue::U64(i as u64));
        let pairs = |v: &[u32]| {
            sparse(v, |i, c| {
                JsonValue::Arr(vec![JsonValue::U64(i as u64), JsonValue::U64(u64::from(c))])
            })
        };
        Ok(obj(vec![
            ("scheme", JsonValue::Str("audited".to_owned())),
            ("any_act", JsonValue::U64(u64::from(self.any_act))),
            ("current_window", JsonValue::U64(self.current_window)),
            ("activated", activated),
            ("shadow_counts", pairs(&self.shadow_counts)),
            ("shadow_nrrs", pairs(&self.shadow_nrrs)),
            ("inner", self.inner.snapshot_state()?),
        ]))
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "audited")?;
        let unpack_pairs = |key: &str, len: usize| -> Result<Vec<u32>, String> {
            let mut out = vec![0u32; len];
            for pair in state.items(key)? {
                match pair.to_ints::<u32>().as_deref() {
                    Ok(&[i, c]) if (i as usize) < len => out[i as usize] = c,
                    _ => return Err(format!("element of `{key}` is not an in-bank pair")),
                }
            }
            Ok(out)
        };
        let mut activated = vec![false; self.activated.len()];
        for i in state.ints::<usize>("activated")? {
            *activated.get_mut(i).ok_or_else(|| "activated index outside bank".to_owned())? = true;
        }
        let shadow_counts = unpack_pairs("shadow_counts", self.shadow_counts.len())?;
        let shadow_nrrs = unpack_pairs("shadow_nrrs", self.shadow_nrrs.len())?;
        self.inner.restore_state(state.field("inner")?)?;
        self.activated = activated;
        self.any_act = state.int::<u64>("any_act")? != 0;
        self.current_window = state.int("current_window")?;
        self.shadow_counts = shadow_counts;
        self.shadow_nrrs = shadow_nrrs;
        Ok(())
    }
}

impl std::fmt::Debug for AuditedDefense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditedDefense")
            .field("inner", &self.inner.name())
            .field("cfg", &self.cfg)
            .field("any_act", &self.any_act)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::none::NoDefense;
    use crate::para::Para;

    fn audited(inner: Box<dyn RowHammerDefense + Send>) -> AuditedDefense {
        AuditedDefense::new(inner, AuditConfig::new(1_024))
    }

    #[test]
    fn forwards_inner_metadata() {
        let mut d = audited(Box::new(NoDefense::new()));
        assert_eq!(d.name(), "Audited(None)");
        assert_eq!(d.table_bits(), NoDefense::new().table_bits());
        assert_eq!(d.drain_overhead_time(), 0);
        assert!(d.on_activation(RowId(3), 0).is_empty());
        d.reset();
    }

    #[test]
    fn honest_para_run_passes() {
        let mut d = audited(Box::new(Para::new(0.05, 11)));
        let mut emitted = 0;
        for i in 0..2_000u64 {
            // Hammer the bank edges too, where saturating arithmetic emits
            // distance-0 and beyond-bank targets.
            let row = match i % 3 {
                0 => RowId(0),
                1 => RowId(1_023),
                _ => RowId(500),
            };
            emitted += d.on_activation(row, i * 45_000).len();
        }
        assert!(emitted > 0, "PARA should have fired at p=0.05");
    }

    /// A defense that emits an action unrelated to any activation.
    struct RandomRefresher;
    impl RowHammerDefense for RandomRefresher {
        fn name(&self) -> String {
            "RandomRefresher".into()
        }
        fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
            vec![RefreshAction::Row(RowId(900))]
        }
        fn table_bits(&self) -> TableBits {
            TableBits::default()
        }
        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "not within 1 of any activated row")]
    fn far_row_refresh_is_caught() {
        let mut d = audited(Box::new(RandomRefresher));
        d.on_activation(RowId(5), 0);
    }

    /// A defense that acts on the refresh tick before seeing any ACT.
    struct EagerTicker;
    impl RowHammerDefense for EagerTicker {
        fn name(&self) -> String {
            "EagerTicker".into()
        }
        fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
            Vec::new()
        }
        fn on_refresh_tick(&mut self, _now: Picoseconds) -> Vec<RefreshAction> {
            vec![RefreshAction::Row(RowId(1))]
        }
        fn table_bits(&self) -> TableBits {
            TableBits::default()
        }
        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "before any ACT")]
    fn action_before_first_act_is_caught() {
        let mut d = audited(Box::new(EagerTicker));
        d.on_refresh_tick(7_800_000);
    }

    /// A defense that blames an NRR on a row that never activated.
    struct WrongAggressor;
    impl RowHammerDefense for WrongAggressor {
        fn name(&self) -> String {
            "WrongAggressor".into()
        }
        fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
            vec![RefreshAction::Neighbors { aggressor: RowId(row.0 + 100), radius: 1 }]
        }
        fn table_bits(&self) -> TableBits {
            TableBits::default()
        }
        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "never activated")]
    fn phantom_aggressor_is_caught() {
        let mut d = audited(Box::new(WrongAggressor));
        d.on_activation(RowId(10), 0);
    }

    #[test]
    fn reset_clears_activation_history() {
        let mut d = audited(Box::new(NoDefense::new()));
        d.on_activation(RowId(10), 0);
        d.reset();
        // History gone: a tick action would again count as before-any-ACT.
        let mut e = audited(Box::new(EagerTicker));
        e.on_activation(RowId(1), 0);
        e.reset();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.on_refresh_tick(1);
        }));
        assert!(r.is_err(), "post-reset tick action must fail the audit");
    }

    /// A Graphene impostor that counts but never fires.
    struct SilentCounter;
    impl RowHammerDefense for SilentCounter {
        fn name(&self) -> String {
            "SilentCounter".into()
        }
        fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
            Vec::new()
        }
        fn table_bits(&self) -> TableBits {
            TableBits::default()
        }
        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "no-false-negative certificate failed")]
    fn silent_defense_fails_the_certificate() {
        let cfg = AuditConfig {
            certify: Some(ShadowCert { tracking_threshold: 50, reset_window: u64::MAX }),
            ..AuditConfig::new(1_024)
        };
        let mut d = AuditedDefense::new(Box::new(SilentCounter), cfg);
        for i in 0..50u64 {
            d.on_activation(RowId(3), i * 45_000);
        }
    }

    /// Emits an NRR for a fixed (possibly never-activated) row on every
    /// activation — the shape of a degraded Hamming-ball repair.
    struct RepairEmitter(RowId);
    impl RowHammerDefense for RepairEmitter {
        fn name(&self) -> String {
            "RepairEmitter".into()
        }
        fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
            vec![RefreshAction::Neighbors { aggressor: self.0, radius: 1 }]
        }
        fn table_bits(&self) -> TableBits {
            TableBits::default()
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn degraded_repairs_waives_only_the_activation_check() {
        // Default config: an NRR naming a never-activated row is a kill.
        let strict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut d =
                AuditedDefense::new(Box::new(RepairEmitter(RowId(77))), AuditConfig::new(1_024));
            d.on_activation(RowId(3), 0);
        }));
        assert!(strict.is_err(), "strict mode must reject unactivated repair targets");

        // Degraded-repair mode tolerates it...
        let cfg = AuditConfig { degraded_repairs: true, ..AuditConfig::new(1_024) };
        let mut d = AuditedDefense::new(Box::new(RepairEmitter(RowId(77))), cfg);
        d.on_activation(RowId(3), 0);

        // ...but the bank bound is not negotiable.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut d = AuditedDefense::new(Box::new(RepairEmitter(RowId(5_000))), cfg);
            d.on_activation(RowId(3), 0);
        }));
        assert!(out.is_err(), "degraded mode must still reject out-of-bank targets");
    }

    #[test]
    fn checkpoint_round_trips_certified_graphene() {
        use crate::graphene::GrapheneDefense;
        use graphene_core::GrapheneConfig;

        let build = || {
            let cfg = GrapheneConfig::micro2020();
            let p = cfg.derive().unwrap();
            let audit_cfg = AuditConfig {
                certify: Some(ShadowCert {
                    tracking_threshold: p.tracking_threshold,
                    reset_window: p.reset_window,
                }),
                ..AuditConfig::new(65_536)
            };
            AuditedDefense::new(Box::new(GrapheneDefense::from_config(&cfg).unwrap()), audit_cfg)
        };
        let drive = |d: &mut AuditedDefense, range: std::ops::Range<u64>| -> Vec<usize> {
            range
                .map(|i| {
                    let row = RowId(if i % 3 == 0 { 7 } else { 500 + (i % 17) as u32 });
                    d.on_activation(row, i * 45_000).len()
                })
                .collect()
        };

        let mut live = build();
        drive(&mut live, 0..25_000);
        let text = live.snapshot_state().unwrap().to_string();
        let state = telemetry::json::parse(&text).unwrap();

        let mut resumed = build();
        resumed.restore_state(&state).unwrap();
        // Certified continuation: identical actions, no audit panic —
        // proving the shadow accounts survived the round trip (a zeroed
        // shadow count would trip the certificate at the next crossing).
        assert_eq!(drive(&mut live, 25_000..60_000), drive(&mut resumed, 25_000..60_000));
    }

    #[test]
    fn checkpoint_unsupported_for_uncheckpointable_inner() {
        let d = audited(Box::new(Para::new(0.01, 3)));
        assert!(d.snapshot_state().unwrap_err().contains("does not support checkpointing"));
    }

    #[test]
    fn rfm_mode_graphene_preserves_the_certificate() {
        // Satellite: Graphene-as-RFM-issuer on DDR5 must still satisfy the
        // no-false-negative certificate — the audit credits an RFM exactly
        // like the NRR it re-spells.
        use crate::graphene::GrapheneDefense;
        use crate::rfm::RfmIssuer;
        use graphene_core::GrapheneConfig;

        let cfg = GrapheneConfig::builder()
            .timing(dram_model::Generation::Ddr5_4800.timing())
            .row_hammer_threshold(50_000)
            .build()
            .unwrap();
        let p = cfg.derive().unwrap();
        let audit_cfg = AuditConfig {
            certify: Some(ShadowCert {
                tracking_threshold: p.tracking_threshold,
                reset_window: p.reset_window,
            }),
            ..AuditConfig::new(65_536)
        };
        let inner = RfmIssuer::new(Box::new(GrapheneDefense::from_config(&cfg).unwrap()));
        let mut d = AuditedDefense::new(Box::new(inner), audit_cfg);
        let mut rfms = 0;
        for i in 0..60_000u64 {
            let row = RowId(if i % 3 == 0 { 7 } else { 500 + (i % 11) as u32 });
            for a in d.on_activation(row, i * 45_000) {
                assert!(matches!(a, RefreshAction::Rfm { .. }), "expected RFM, got {a:?}");
                rfms += 1;
            }
        }
        assert!(rfms > 0, "hammering row 7 past T must trigger RFMs");
        assert_eq!(d.name(), "Audited(Rfm(Graphene))");
    }

    /// Emits a Row refresh despite claiming Graphene's certificate — the
    /// audit must still reject non-NRR/RFM actions from certified defenses.
    #[test]
    #[should_panic(expected = "only issues NRRs (or their RFM spelling)")]
    fn certified_defense_emitting_row_refresh_is_caught() {
        struct RowEmitter;
        impl RowHammerDefense for RowEmitter {
            fn name(&self) -> String {
                "RowEmitter".into()
            }
            fn on_activation(&mut self, row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
                vec![RefreshAction::Row(row)]
            }
            fn table_bits(&self) -> TableBits {
                TableBits::default()
            }
            fn reset(&mut self) {}
        }
        let cfg = AuditConfig {
            certify: Some(ShadowCert { tracking_threshold: 50, reset_window: u64::MAX }),
            ..AuditConfig::new(1_024)
        };
        let mut d = AuditedDefense::new(Box::new(RowEmitter), cfg);
        d.on_activation(RowId(3), 0);
    }

    #[test]
    fn certificate_window_roll_forgives_new_window() {
        // 49 ACTs in window 0, then more in window 1: counts restart, so a
        // silent defense stays legal until a single window accumulates T.
        let cfg = AuditConfig {
            certify: Some(ShadowCert { tracking_threshold: 50, reset_window: 1_000_000 }),
            ..AuditConfig::new(1_024)
        };
        let mut d = AuditedDefense::new(Box::new(SilentCounter), cfg);
        for i in 0..49u64 {
            d.on_activation(RowId(3), i);
        }
        for i in 0..49u64 {
            d.on_activation(RowId(3), 1_000_000 + i);
        }
    }
}
