//! Run-statistics audit: cross-counter invariants of [`RunStats`].
//!
//! Every figure the reproduction emits is derived from [`RunStats`]
//! counters. If the accounting is subtly wrong — an access counted twice, a
//! latency noted on the wrong stream, a victim refresh charged but never
//! executed — every downstream comparison inherits the error silently. The
//! audit makes the internal redundancy of the counters explicit and checks
//! it at run end:
//!
//! | Invariant | What it certifies |
//! |-----------|-------------------|
//! | `accesses == row_hits + activations` | every access is served exactly once, as a hit or an ACT |
//! | `accesses == Σ per_stream counts + strays` | per-stream attribution loses nothing (weighted-speedup input) |
//! | `total_latency == Σ per_stream latencies + strays` | latency attribution loses nothing |
//! | `victim_rows_refreshed ≥ defense_refresh_commands` | every charged defense command refreshed ≥ 1 real row |
//! | `completion ≥ last issue time` | the clock never runs backwards past served work |
//! | `stray_stream_accesses == 0` | every stream id was below [`RunStats::MAX_TRACKED_STREAMS`] |
//!
//! [`StatsAudit::check_cross`] additionally compares a run against its
//! baseline: a stream active in one but absent from the other would be
//! *silently skipped* by [`RunStats::weighted_speedup_loss_vs`], so a
//! mismatched stream set is surfaced as a finding instead.

use std::fmt;

use dram_model::timing::Picoseconds;

use crate::stats::RunStats;

/// One violated invariant, with the numbers that violated it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsFinding {
    /// `accesses != row_hits + activations`.
    AccessSplit {
        /// Total accesses served.
        accesses: u64,
        /// Row-buffer hits.
        row_hits: u64,
        /// ACT commands issued.
        activations: u64,
    },
    /// Per-stream access counts do not sum to the access total.
    StreamCountMismatch {
        /// Total accesses served.
        accesses: u64,
        /// Σ per-stream access counts.
        stream_sum: u64,
        /// Stray (untracked-id) accesses.
        strays: u64,
    },
    /// Per-stream latencies do not sum to the latency total.
    StreamLatencyMismatch {
        /// Total latency (ps).
        total_latency: Picoseconds,
        /// Σ per-stream latencies (ps).
        stream_sum: Picoseconds,
        /// Latency of stray accesses (ps).
        stray_latency: Picoseconds,
    },
    /// Fewer victim rows refreshed than defense commands charged.
    VictimRowsBelowCommands {
        /// Individual victim rows refreshed.
        victim_rows_refreshed: u64,
        /// Defense refresh commands charged.
        defense_refresh_commands: u64,
    },
    /// Completion time earlier than the last issued access.
    CompletionBeforeLastIssue {
        /// Recorded completion time (ps).
        completion: Picoseconds,
        /// Arrival time of the last issued access (ps).
        last_issue: Picoseconds,
    },
    /// The trace carried stream ids at or beyond
    /// [`RunStats::MAX_TRACKED_STREAMS`].
    StrayStreams {
        /// Number of stray accesses.
        count: u64,
    },
    /// Run and baseline activated different stream sets, which
    /// [`RunStats::weighted_speedup_loss_vs`] would silently skip.
    MismatchedStreamSets {
        /// Streams active in the run but not the baseline.
        only_in_run: Vec<u16>,
        /// Streams active in the baseline but not the run.
        only_in_baseline: Vec<u16>,
    },
}

impl fmt::Display for StatsFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsFinding::AccessSplit { accesses, row_hits, activations } => write!(
                f,
                "accesses ({accesses}) != row_hits ({row_hits}) + activations ({activations})"
            ),
            StatsFinding::StreamCountMismatch { accesses, stream_sum, strays } => write!(
                f,
                "accesses ({accesses}) != per-stream sum ({stream_sum}) + strays ({strays})"
            ),
            StatsFinding::StreamLatencyMismatch { total_latency, stream_sum, stray_latency } => {
                write!(
                    f,
                    "total_latency ({total_latency}) != per-stream latency sum ({stream_sum}) \
                     + stray latency ({stray_latency})"
                )
            }
            StatsFinding::VictimRowsBelowCommands {
                victim_rows_refreshed,
                defense_refresh_commands,
            } => write!(
                f,
                "victim_rows_refreshed ({victim_rows_refreshed}) < defense_refresh_commands \
                 ({defense_refresh_commands}): a charged command refreshed no row"
            ),
            StatsFinding::CompletionBeforeLastIssue { completion, last_issue } => write!(
                f,
                "completion ({completion}) earlier than last issued access ({last_issue})"
            ),
            StatsFinding::StrayStreams { count } => {
                write!(f, "{count} access(es) carried stream ids outside the configured stream set")
            }
            StatsFinding::MismatchedStreamSets { only_in_run, only_in_baseline } => write!(
                f,
                "stream sets differ from baseline (only in run: {only_in_run:?}, only in \
                 baseline: {only_in_baseline:?}); weighted_speedup_loss_vs would skip them"
            ),
        }
    }
}

/// The run-statistics auditor. Stateless; all checks are pure functions of
/// the statistics they inspect.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsAudit;

impl StatsAudit {
    /// Checks the intra-run invariants of one finished run.
    ///
    /// # Errors
    ///
    /// Returns every violated invariant (never an empty vec).
    pub fn check(stats: &RunStats) -> Result<(), Vec<StatsFinding>> {
        let mut findings = Vec::new();
        if stats.accesses != stats.row_hits + stats.activations {
            findings.push(StatsFinding::AccessSplit {
                accesses: stats.accesses,
                row_hits: stats.row_hits,
                activations: stats.activations,
            });
        }
        let stream_sum: u64 = stats.per_stream.iter().map(|&(n, _)| n).sum();
        if stats.accesses != stream_sum + stats.stray_stream_accesses {
            findings.push(StatsFinding::StreamCountMismatch {
                accesses: stats.accesses,
                stream_sum,
                strays: stats.stray_stream_accesses,
            });
        }
        let latency_sum: u64 = stats.per_stream.iter().map(|&(_, l)| l).sum();
        if stats.total_latency != latency_sum + stats.stray_stream_latency {
            findings.push(StatsFinding::StreamLatencyMismatch {
                total_latency: stats.total_latency,
                stream_sum: latency_sum,
                stray_latency: stats.stray_stream_latency,
            });
        }
        if stats.victim_rows_refreshed < stats.defense_refresh_commands {
            findings.push(StatsFinding::VictimRowsBelowCommands {
                victim_rows_refreshed: stats.victim_rows_refreshed,
                defense_refresh_commands: stats.defense_refresh_commands,
            });
        }
        if stats.stray_stream_accesses > 0 {
            findings.push(StatsFinding::StrayStreams { count: stats.stray_stream_accesses });
        }
        if findings.is_empty() {
            Ok(())
        } else {
            Err(findings)
        }
    }

    /// Like [`StatsAudit::check`], additionally asserting the completion
    /// time is no earlier than the arrival of the last issued access.
    ///
    /// # Errors
    ///
    /// Returns every violated invariant.
    pub fn check_at(stats: &RunStats, last_issue: Picoseconds) -> Result<(), Vec<StatsFinding>> {
        let mut findings = match Self::check(stats) {
            Ok(()) => Vec::new(),
            Err(f) => f,
        };
        if stats.accesses > 0 && stats.completion < last_issue {
            findings.push(StatsFinding::CompletionBeforeLastIssue {
                completion: stats.completion,
                last_issue,
            });
        }
        if findings.is_empty() {
            Ok(())
        } else {
            Err(findings)
        }
    }

    /// Cross-checks a run against the baseline it will be compared to:
    /// both must have activated the same set of streams, otherwise
    /// [`RunStats::weighted_speedup_loss_vs`] silently drops the mismatched
    /// ones from the paper's metric.
    ///
    /// # Errors
    ///
    /// Returns a [`StatsFinding::MismatchedStreamSets`] naming the streams
    /// present in only one of the two runs.
    pub fn check_cross(run: &RunStats, baseline: &RunStats) -> Result<(), Vec<StatsFinding>> {
        let active = |s: &RunStats| -> Vec<u16> {
            s.per_stream
                .iter()
                .enumerate()
                .filter(|&(_, &(n, _))| n > 0)
                .map(|(i, _)| i as u16)
                .collect()
        };
        let run_set = active(run);
        let base_set = active(baseline);
        if run_set == base_set {
            return Ok(());
        }
        let only_in_run: Vec<u16> =
            run_set.iter().copied().filter(|s| !base_set.contains(s)).collect();
        let only_in_baseline: Vec<u16> =
            base_set.iter().copied().filter(|s| !run_set.contains(s)).collect();
        Err(vec![StatsFinding::MismatchedStreamSets { only_in_run, only_in_baseline }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consistent run: 3 accesses (2 hits + 1 ACT) over two streams.
    fn good_stats() -> RunStats {
        let mut s = RunStats {
            accesses: 3,
            activations: 1,
            row_hits: 2,
            defense_refresh_commands: 2,
            victim_rows_refreshed: 4,
            completion: 900,
            total_latency: 600,
            ..RunStats::default()
        };
        s.note_stream(0, 100);
        s.note_stream(1, 200);
        s.note_stream(0, 300);
        s
    }

    #[test]
    fn consistent_stats_pass() {
        StatsAudit::check(&good_stats()).unwrap();
        StatsAudit::check_at(&good_stats(), 850).unwrap();
        StatsAudit::check_cross(&good_stats(), &good_stats()).unwrap();
    }

    #[test]
    fn empty_run_passes() {
        StatsAudit::check(&RunStats::default()).unwrap();
        StatsAudit::check_at(&RunStats::default(), 0).unwrap();
    }

    #[test]
    fn access_split_violation_found() {
        let mut s = good_stats();
        s.row_hits += 1;
        let f = StatsAudit::check(&s).unwrap_err();
        assert!(matches!(f[0], StatsFinding::AccessSplit { .. }));
        assert!(f[0].to_string().contains("row_hits"));
    }

    #[test]
    fn stream_count_mismatch_found() {
        let mut s = good_stats();
        s.per_stream[1].0 += 1;
        let f = StatsAudit::check(&s).unwrap_err();
        assert!(f.iter().any(|x| matches!(x, StatsFinding::StreamCountMismatch { .. })));
    }

    #[test]
    fn stream_latency_mismatch_found() {
        let mut s = good_stats();
        s.total_latency += 1;
        let f = StatsAudit::check(&s).unwrap_err();
        assert!(f.iter().any(|x| matches!(x, StatsFinding::StreamLatencyMismatch { .. })));
    }

    #[test]
    fn overcounted_commands_found() {
        // A defense charging 5 commands for 4 refreshed rows over-counts.
        let mut s = good_stats();
        s.defense_refresh_commands = 5;
        let f = StatsAudit::check(&s).unwrap_err();
        assert!(f.iter().any(|x| matches!(x, StatsFinding::VictimRowsBelowCommands { .. })));
    }

    #[test]
    fn completion_before_last_issue_found() {
        let s = good_stats();
        StatsAudit::check_at(&s, 900).unwrap();
        let f = StatsAudit::check_at(&s, 901).unwrap_err();
        assert!(f.iter().any(|x| matches!(x, StatsFinding::CompletionBeforeLastIssue { .. })));
    }

    #[test]
    fn stray_streams_are_a_finding() {
        let mut s = good_stats();
        s.accesses += 1;
        s.row_hits += 1;
        s.total_latency += 40;
        s.note_stream(65_000, 40);
        let f = StatsAudit::check(&s).unwrap_err();
        assert_eq!(f, vec![StatsFinding::StrayStreams { count: 1 }]);
    }

    #[test]
    fn mismatched_stream_sets_are_a_finding() {
        let run = good_stats();
        let mut base = good_stats();
        base.note_stream(2, 50);
        let f = StatsAudit::check_cross(&run, &base).unwrap_err();
        match &f[0] {
            StatsFinding::MismatchedStreamSets { only_in_run, only_in_baseline } => {
                assert!(only_in_run.is_empty());
                assert_eq!(only_in_baseline, &vec![2]);
            }
            other => panic!("unexpected finding {other:?}"),
        }
        assert!(f[0].to_string().contains("baseline"));
    }

    #[test]
    fn multiple_findings_reported_together() {
        let mut s = good_stats();
        s.row_hits += 1;
        s.defense_refresh_commands = 9;
        let f = StatsAudit::check(&s).unwrap_err();
        assert!(f.len() >= 2, "expected both findings, got {f:?}");
    }
}
