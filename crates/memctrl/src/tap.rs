//! Controller-side telemetry: command rates and service-quality gauges.
//!
//! [`TelemetryTap`] is attached to a [`MemoryController`](crate::MemoryController)
//! through [`McBuilder::telemetry`](crate::McBuilder::telemetry) (or per
//! shard with [`McBuilder::telemetry_per_shard`](crate::McBuilder::telemetry_per_shard)
//! and [`TelemetryTap::keyed`]) and counts every ACT, periodic REF, and
//! victim-refresh burst per bank. At the configured [`Cadence`] it flushes
//! cumulative per-bank series:
//!
//! * `mc.acts` — activations served;
//! * `mc.refreshes` — periodic REF blackouts;
//! * `mc.victim_rows` — rows refreshed on behalf of the defense;
//!
//! and at end of run ([`finish`](TelemetryTap::finish)) it publishes
//! scheduler/page-policy gauges from [`RunStats`]: `mc.row_hit_rate`,
//! `mc.mean_latency_ps`, `mc.defense_busy_frac`, `mc.acts_per_ref`. A
//! [`keyed`](TelemetryTap::keyed) shard tap instead offsets its series keys
//! to the shard's global bank range and publishes those four quantities as
//! per-channel samples on the `mc.ch.*` series, keyed by channel.
//!
//! Like the defense-side wrapper, the tap resolves `sink.enabled()` once at
//! construction; with a [`NoopSink`](telemetry::NoopSink) every hook is a
//! single predictable branch and the controller's behavior is bit-identical.

use dram_model::timing::Picoseconds;
use telemetry::{Cadence, CadenceClock, MetricsSink};

use crate::stats::RunStats;

/// Per-bank cumulative command counts.
#[derive(Debug, Clone, Copy, Default)]
struct BankCounts {
    acts: u64,
    refreshes: u64,
    victim_rows: u64,
}

/// Observes a memory controller's command stream into a [`MetricsSink`].
pub struct TelemetryTap {
    sink: Box<dyn MetricsSink + Send>,
    /// Resolved once from `sink.enabled()`.
    active: bool,
    clock: CadenceClock,
    banks: Vec<BankCounts>,
    /// Added to every per-bank series key, so shards of a sharded system
    /// recording into one shared sink land on disjoint global bank keys.
    bank_offset: u16,
    /// When set, end-of-run service gauges are emitted as per-channel
    /// samples keyed by this channel instead of controller-wide gauges
    /// (which would collide across shards).
    channel: Option<u8>,
    flushed_acts: u64,
    flushed_refreshes: u64,
    flushed_victim_rows: u64,
}

impl std::fmt::Debug for TelemetryTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryTap")
            .field("active", &self.active)
            .field("banks", &self.banks.len())
            .finish()
    }
}

impl TelemetryTap {
    /// A tap flushing into `sink` at `cadence` (the ACT cadence counts
    /// controller-wide ACTs, not per-bank ones).
    pub fn new(sink: Box<dyn MetricsSink + Send>, cadence: Cadence) -> Self {
        Self::keyed(sink, cadence, 0, None)
    }

    /// A tap for one shard of a channel-sharded system: per-bank series
    /// keys are offset by `bank_offset` (the shard's first global bank
    /// index), and when `channel` is set the end-of-run service gauges are
    /// published as per-channel samples on the `mc.ch.*` series (keyed by
    /// channel) instead of controller-wide gauges, so shards sharing one
    /// sink never collide.
    pub fn keyed(
        sink: Box<dyn MetricsSink + Send>,
        cadence: Cadence,
        bank_offset: u16,
        channel: Option<u8>,
    ) -> Self {
        let active = sink.enabled();
        TelemetryTap {
            sink,
            active,
            clock: CadenceClock::new(cadence),
            banks: Vec::new(),
            bank_offset,
            channel,
            flushed_acts: 0,
            flushed_refreshes: 0,
            flushed_victim_rows: 0,
        }
    }

    fn bank_mut(&mut self, bank: usize) -> &mut BankCounts {
        if bank >= self.banks.len() {
            self.banks.resize(bank + 1, BankCounts::default());
        }
        &mut self.banks[bank]
    }

    /// Notes one served activation on `bank` at its ACT slot time.
    pub fn on_act(&mut self, bank: usize, now: Picoseconds) {
        if !self.active {
            return;
        }
        self.bank_mut(bank).acts += 1;
        if self.clock.tick(now) {
            self.flush(now);
        }
    }

    /// Notes one periodic REF blackout on `bank`.
    pub fn on_refresh(&mut self, bank: usize, _now: Picoseconds) {
        if !self.active {
            return;
        }
        self.bank_mut(bank).refreshes += 1;
    }

    /// Notes one victim-refresh burst of `rows` rows on `bank`.
    pub fn on_victim_refresh(&mut self, bank: usize, rows: u64, _now: Picoseconds) {
        if !self.active {
            return;
        }
        self.bank_mut(bank).victim_rows += rows;
    }

    /// Emits the cumulative per-bank series plus whole-controller counter
    /// deltas.
    fn flush(&mut self, now: Picoseconds) {
        let mut total = BankCounts::default();
        for (b, c) in self.banks.iter().enumerate() {
            let bank = self.bank_offset + b as u16;
            self.sink.sample("mc.acts", bank, now, c.acts as f64);
            self.sink.sample("mc.refreshes", bank, now, c.refreshes as f64);
            self.sink.sample("mc.victim_rows", bank, now, c.victim_rows as f64);
            total.acts += c.acts;
            total.refreshes += c.refreshes;
            total.victim_rows += c.victim_rows;
        }
        self.sink.counter("mc.acts", total.acts - self.flushed_acts);
        self.sink.counter("mc.refreshes", total.refreshes - self.flushed_refreshes);
        self.sink.counter("mc.victim_rows", total.victim_rows - self.flushed_victim_rows);
        self.flushed_acts = total.acts;
        self.flushed_refreshes = total.refreshes;
        self.flushed_victim_rows = total.victim_rows;
    }

    /// Flushes the tail and publishes end-of-run service-quality gauges
    /// derived from `stats` (row-buffer hit rate, mean access latency,
    /// fraction of bank-busy time spent on defense refreshes, ACT:REF
    /// ratio).
    pub fn finish(&mut self, now: Picoseconds, stats: &RunStats) {
        if !self.active {
            return;
        }
        self.flush(now);
        match self.channel {
            // Shard taps: per-channel samples keyed by channel, because a
            // last-write-wins gauge shared across shards would only keep
            // one channel's value.
            Some(ch) => {
                let key = u16::from(ch);
                self.sink.sample("mc.ch.row_hit_rate", key, now, stats.row_hit_rate());
                if stats.accesses > 0 {
                    self.sink.sample(
                        "mc.ch.mean_latency_ps",
                        key,
                        now,
                        stats.total_latency as f64 / stats.accesses as f64,
                    );
                }
                if stats.completion > 0 {
                    self.sink.sample(
                        "mc.ch.defense_busy_frac",
                        key,
                        now,
                        stats.defense_busy as f64 / stats.completion as f64,
                    );
                }
                if stats.refreshes > 0 {
                    self.sink.sample(
                        "mc.ch.acts_per_ref",
                        key,
                        now,
                        stats.activations as f64 / stats.refreshes as f64,
                    );
                }
            }
            None => {
                self.sink.gauge("mc.row_hit_rate", stats.row_hit_rate());
                if stats.accesses > 0 {
                    self.sink.gauge(
                        "mc.mean_latency_ps",
                        stats.total_latency as f64 / stats.accesses as f64,
                    );
                }
                if stats.completion > 0 {
                    self.sink.gauge(
                        "mc.defense_busy_frac",
                        stats.defense_busy as f64 / stats.completion as f64,
                    );
                }
                if stats.refreshes > 0 {
                    self.sink.gauge(
                        "mc.acts_per_ref",
                        stats.activations as f64 / stats.refreshes as f64,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::McBuilder;
    use crate::config::McConfig;
    use mitigations::Para;
    use telemetry::{NoopSink, SharedSink};
    use workloads::{Synthetic, Workload};

    #[test]
    fn tap_counts_acts_refs_and_victims() {
        let sink = SharedSink::new();
        let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
            .defenses_with(|b| Box::new(Para::new(0.01, b as u64)))
            .telemetry(TelemetryTap::new(Box::new(sink.clone()), Cadence::EveryActs(1_000)))
            .build();
        let stats = mc.run(&mut Synthetic::s3(65_536, 1), 30_000);
        let snap = sink.snapshot("tap-test");
        let acts = snap.series_for("mc.acts", 0).expect("acts series");
        assert_eq!(acts.samples.last().unwrap().value, stats.activations as f64);
        let victims = snap.series_for("mc.victim_rows", 0).expect("victim series");
        assert_eq!(victims.samples.last().unwrap().value, stats.victim_rows_refreshed as f64);
        let refs = snap.series_for("mc.refreshes", 0).expect("ref series");
        assert_eq!(refs.samples.last().unwrap().value, stats.refreshes as f64);
        // End-of-run gauges.
        assert!(snap.gauges.iter().any(|(n, _)| n == "mc.row_hit_rate"));
        assert!(snap.gauges.iter().any(|(n, v)| n == "mc.mean_latency_ps" && *v > 0.0));
    }

    #[test]
    fn counter_totals_match_series_tails() {
        let sink = SharedSink::new();
        let mut mc = McBuilder::new(McConfig::micro2020_no_oracle())
            .telemetry(TelemetryTap::new(Box::new(sink.clone()), Cadence::EveryActs(500)))
            .build();
        let stats = mc.run(
            &mut workloads::ProxyWorkload::from_preset(
                workloads::SpecPreset::Libquantum,
                64,
                65_536,
                5,
            ),
            20_000,
        );
        let snap = sink.snapshot("tap-test");
        let counted = snap.counters.iter().find(|(n, _)| n == "mc.acts").unwrap().1;
        assert_eq!(counted, stats.activations);
        // Per-bank tails sum to the controller-wide total.
        let sum: f64 = snap
            .series
            .iter()
            .filter(|s| s.metric == "mc.acts")
            .map(|s| s.samples.last().unwrap().value)
            .sum();
        assert_eq!(sum, stats.activations as f64);
    }

    #[test]
    fn noop_tap_is_inert() {
        let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
            .telemetry(TelemetryTap::new(Box::new(NoopSink), Cadence::EveryActs(1)))
            .build();
        mc.run(&mut Synthetic::s3(65_536, 1), 5_000);
        let tap = mc.telemetry().expect("tap attached");
        assert!(!tap.active);
        assert!(tap.banks.is_empty(), "inactive tap must not even allocate");
    }

    #[test]
    fn keyed_shard_taps_share_one_sink_without_colliding() {
        let sink = SharedSink::new();
        let mut system = McBuilder::new(McConfig::micro2020_no_oracle())
            .telemetry_per_shard(|channel, bank_offset| {
                Some(TelemetryTap::keyed(
                    Box::new(sink.clone()),
                    Cadence::EveryActs(500),
                    bank_offset,
                    Some(channel),
                ))
            })
            .build_system();
        let mut w =
            workloads::ProxyWorkload::from_preset(workloads::SpecPreset::Libquantum, 64, 65_536, 5);
        system.run_batched(&w.take_accesses(20_000));
        let stats = system.finish();
        let snap = sink.snapshot("keyed-tap-test");

        // Per-bank ACT series from all shards land on disjoint global keys
        // and their tails still sum to the system-wide total.
        let sum: f64 = snap
            .series
            .iter()
            .filter(|s| s.metric == "mc.acts")
            .map(|s| s.samples.last().unwrap().value)
            .sum();
        assert_eq!(sum, stats.merged.activations as f64);
        let keys: std::collections::HashSet<u16> =
            snap.series.iter().filter(|s| s.metric == "mc.acts").map(|s| s.bank).collect();
        assert!(keys.iter().any(|&k| k >= 16), "shard keys must be offset past channel 0");

        // Each channel publishes its own service numbers on mc.ch.*.
        for (ch, per) in stats.per_channel.iter().enumerate() {
            let series =
                snap.series_for("mc.ch.row_hit_rate", ch as u16).expect("per-channel hit rate");
            assert_eq!(series.samples.last().unwrap().value, per.row_hit_rate());
        }
        // No colliding controller-wide gauges were written.
        assert!(snap.gauges.iter().all(|(n, _)| !n.starts_with("mc.")));

        // Shared-sink counters accumulate across shards.
        let counted = snap.counters.iter().find(|(n, _)| n == "mc.acts").unwrap().1;
        assert_eq!(counted, stats.merged.activations);
    }
}
