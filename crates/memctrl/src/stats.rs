//! Run statistics.

use dram_model::timing::Picoseconds;

/// Aggregate counters of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Accesses served.
    pub accesses: u64,
    /// ACT commands issued (row misses + empties).
    pub activations: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Periodic REF commands issued across all banks.
    pub refreshes: u64,
    /// Defense-requested refresh commands (NRR or row refreshes).
    pub defense_refresh_commands: u64,
    /// Individual victim rows refreshed on behalf of the defense.
    pub victim_rows_refreshed: u64,
    /// Total bank-busy time consumed by defense refreshes (ps).
    pub defense_busy: Picoseconds,
    /// Completion time of the last access (ps).
    pub completion: Picoseconds,
    /// Sum of per-access service latencies (ps).
    pub total_latency: Picoseconds,
    /// Ground-truth bit flips observed (0 unless the defense failed).
    pub bit_flips: u64,
    /// Activations delayed by a throttling defense (BlockHammer's
    /// `ThrottleDecision` feedback path).
    pub throttled_acts: u64,
    /// Total activation delay imposed by throttling (ps).
    pub throttle_delay: Picoseconds,
    /// Per-stream (access count, total latency in ps), indexed by the
    /// stream id carried on each access — the raw material for the paper's
    /// weighted-speedup metric.
    pub per_stream: Vec<(u64, u64)>,
    /// Accesses whose stream id exceeded the tracked range (corrupt or
    /// misconfigured traces). Non-zero is an audit finding
    /// ([`crate::StatsAudit`]): stray ids used to silently allocate
    /// `per_stream` out to the id (65535 → a 64K-entry vec) and distort
    /// stream matching in [`RunStats::weighted_speedup_loss_vs`].
    pub stray_stream_accesses: u64,
    /// Total latency (ps) of the stray accesses, kept so
    /// `total_latency == Σ per_stream latencies + stray_stream_latency`
    /// remains an exact invariant.
    pub stray_stream_latency: Picoseconds,
    /// Defense-requested RFM commands executed (DDR5/LPDDR5 Refresh
    /// Management; a subset of `defense_refresh_commands`). Always 0 when
    /// [`crate::McConfig::rfm`] is unset.
    pub rfm_commands: u64,
    /// RFMs the *controller* was forced to issue because a bank's Rolling
    /// Accumulated ACT counter reached RAAMMT before the defense acted.
    pub forced_rfms: u64,
}

impl RunStats {
    /// Hard upper bound on distinct stream ids tracked per run: ids
    /// `0..1024` get a `per_stream` entry, and [`RunStats::note_stream`]
    /// diverts every higher id to the stray counters instead of allocating
    /// for it. The paper's systems have 16 cores, so a higher id usually
    /// means a corrupt trace.
    ///
    /// Known defect: a fleet trace from `rh_sim::synth_fleet_trace` with
    /// more than 1,024 clients (`fleet-replay synth`'s default is 2,048)
    /// gives client `c` stream id `c`, so clients 1024 and up lose the
    /// per-tenant attribution that function documents and are counted as
    /// strays.
    pub const MAX_TRACKED_STREAMS: usize = 1024;

    /// Records one served access of `stream` with the given latency.
    ///
    /// Stream ids at or beyond [`RunStats::MAX_TRACKED_STREAMS`] are counted
    /// in [`RunStats::stray_stream_accesses`] rather than grown into
    /// `per_stream`; the [`crate::StatsAudit`] flags them at run end.
    pub fn note_stream(&mut self, stream: u16, latency: Picoseconds) {
        let i = usize::from(stream);
        if i >= Self::MAX_TRACKED_STREAMS {
            self.stray_stream_accesses += 1;
            self.stray_stream_latency += latency;
            return;
        }
        if self.per_stream.len() <= i {
            self.per_stream.resize(i + 1, (0, 0));
        }
        self.per_stream[i].0 += 1;
        self.per_stream[i].1 += latency;
    }

    /// Folds another run's counters into this one — the reduction a
    /// channel-sharded system uses to build full-system statistics from its
    /// per-channel shards.
    ///
    /// Counters and latencies add; `completion` takes the max (channels
    /// serve concurrently in wall-clock terms, so the system finishes when
    /// its slowest channel does); per-stream entries merge element-wise.
    pub fn merge(&mut self, other: &RunStats) {
        self.accesses += other.accesses;
        self.activations += other.activations;
        self.row_hits += other.row_hits;
        self.refreshes += other.refreshes;
        self.defense_refresh_commands += other.defense_refresh_commands;
        self.victim_rows_refreshed += other.victim_rows_refreshed;
        self.defense_busy += other.defense_busy;
        self.completion = self.completion.max(other.completion);
        self.total_latency += other.total_latency;
        self.bit_flips += other.bit_flips;
        self.throttled_acts += other.throttled_acts;
        self.throttle_delay += other.throttle_delay;
        if self.per_stream.len() < other.per_stream.len() {
            self.per_stream.resize(other.per_stream.len(), (0, 0));
        }
        for (mine, theirs) in self.per_stream.iter_mut().zip(&other.per_stream) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.stray_stream_accesses += other.stray_stream_accesses;
        self.stray_stream_latency += other.stray_stream_latency;
        self.rfm_commands += other.rfm_commands;
        self.forced_rfms += other.forced_rfms;
    }

    /// Mean latency of one stream (ps), or `None` if it served no accesses.
    pub fn stream_mean_latency(&self, stream: u16) -> Option<f64> {
        self.per_stream
            .get(usize::from(stream))
            .filter(|&&(n, _)| n > 0)
            .map(|&(n, total)| total as f64 / n as f64)
    }

    /// The paper's performance metric, adapted to latency: weighted speedup
    /// = mean over streams of (baseline mean latency / this run's mean
    /// latency); the returned value is the *loss*, `1 − WS` (0 = no
    /// degradation). Streams absent from either run are skipped.
    pub fn weighted_speedup_loss_vs(&self, baseline: &RunStats) -> f64 {
        let streams = self.per_stream.len().min(baseline.per_stream.len());
        let mut sum = 0.0;
        let mut n = 0u32;
        for s in 0..streams {
            if let (Some(mine), Some(base)) =
                (self.stream_mean_latency(s as u16), baseline.stream_mean_latency(s as u16))
            {
                if mine > 0.0 {
                    sum += base / mine;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            1.0 - sum / f64::from(n)
        }
    }

    /// Mean access latency (ps).
    pub fn mean_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Relative slowdown of this run versus a baseline run of the same
    /// trace: `completion / baseline.completion − 1`.
    pub fn slowdown_vs(&self, baseline: &RunStats) -> f64 {
        if baseline.completion == 0 {
            0.0
        } else {
            self.completion as f64 / baseline.completion as f64 - 1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_and_hit_rate() {
        let s = RunStats { accesses: 4, row_hits: 3, total_latency: 400, ..RunStats::default() };
        assert_eq!(s.mean_latency(), 100.0);
        assert_eq!(s.row_hit_rate(), 0.75);
    }

    #[test]
    fn zero_access_run_is_safe() {
        let s = RunStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.slowdown_vs(&RunStats::default()), 0.0);
    }

    #[test]
    fn per_stream_accounting() {
        let mut s = RunStats::default();
        s.note_stream(0, 100);
        s.note_stream(2, 300);
        s.note_stream(0, 200);
        assert_eq!(s.stream_mean_latency(0), Some(150.0));
        assert_eq!(s.stream_mean_latency(1), None);
        assert_eq!(s.stream_mean_latency(2), Some(300.0));
    }

    #[test]
    fn stray_stream_id_does_not_allocate() {
        // Regression: note_stream(65535) used to resize per_stream to 64K
        // entries, distorting stream matching and memory use.
        let mut s = RunStats::default();
        s.note_stream(65_535, 100);
        s.note_stream(u16::MAX - 1, 50);
        s.note_stream(3, 10);
        assert_eq!(s.per_stream.len(), 4);
        assert_eq!(s.stray_stream_accesses, 2);
        assert_eq!(s.stray_stream_latency, 150);
        assert_eq!(s.stream_mean_latency(3), Some(10.0));
    }

    #[test]
    fn weighted_speedup_loss() {
        let mut base = RunStats::default();
        base.note_stream(0, 100);
        base.note_stream(1, 100);
        let mut run = RunStats::default();
        run.note_stream(0, 125); // 0.8 speedup
        run.note_stream(1, 100); // 1.0 speedup
        let loss = run.weighted_speedup_loss_vs(&base);
        assert!((loss - 0.1).abs() < 1e-12, "loss {loss}");
        assert_eq!(base.weighted_speedup_loss_vs(&base), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_completion() {
        let mut a = RunStats {
            accesses: 10,
            activations: 4,
            row_hits: 6,
            refreshes: 2,
            defense_refresh_commands: 1,
            victim_rows_refreshed: 2,
            defense_busy: 100,
            completion: 5_000,
            total_latency: 900,
            bit_flips: 1,
            throttled_acts: 2,
            throttle_delay: 400,
            stray_stream_accesses: 1,
            stray_stream_latency: 30,
            rfm_commands: 4,
            forced_rfms: 1,
            ..RunStats::default()
        };
        a.note_stream(0, 100);
        let mut b = RunStats {
            accesses: 5,
            completion: 7_000,
            throttled_acts: 3,
            throttle_delay: 600,
            rfm_commands: 6,
            forced_rfms: 2,
            ..RunStats::default()
        };
        b.note_stream(0, 50);
        b.note_stream(2, 70);
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.throttled_acts, 5);
        assert_eq!(a.throttle_delay, 1_000);
        assert_eq!(a.completion, 7_000, "channels overlap in wall-clock time");
        assert_eq!(a.bit_flips, 1);
        assert_eq!(a.per_stream.len(), 3);
        assert_eq!(a.per_stream[0], (2, 150));
        assert_eq!(a.per_stream[2], (1, 70));
        assert_eq!(a.stray_stream_accesses, 1);
        assert_eq!(a.rfm_commands, 10);
        assert_eq!(a.forced_rfms, 3);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut s = RunStats { accesses: 3, completion: 10, ..RunStats::default() };
        let snapshot = s.clone();
        s.merge(&RunStats::default());
        assert_eq!(s, snapshot);
    }

    #[test]
    fn slowdown_relative_to_baseline() {
        let base = RunStats { completion: 1000, ..RunStats::default() };
        let run = RunStats { completion: 1050, ..RunStats::default() };
        assert!((run.slowdown_vs(&base) - 0.05).abs() < 1e-12);
    }
}
