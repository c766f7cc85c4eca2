//! Shared JSON plumbing and the typed error for controller checkpoint
//! state.
//!
//! Checkpoint state is written straight into the checkpoint buffer with
//! [`telemetry::json::write_obj`] and read back with its typed reads
//! ([`JsonValue::int`], [`JsonValue::opt_int`], …). The parser is
//! integer-first, so every `u64` counter round-trips exactly.
//!
//! Every snapshot/restore failure is a [`CkptError`] — a machine-matchable
//! enum rather than a formatted string, so the fleet recovery supervisor
//! can distinguish "this checkpoint is malformed" from "this run cannot be
//! checkpointed at all" without parsing prose.

use std::fmt;

use telemetry::json::{push_u64s, JsonValue, ObjWriter};

use crate::stats::RunStats;

/// Why a controller snapshot or restore failed.
///
/// Variants preserve enough structure to act on: which bank or channel,
/// and whether the problem is the checkpoint's content (malformed or
/// mismatched — retrying with a different checkpoint can succeed) or the
/// run's configuration ([`Unsupported`](Self::Unsupported) — no checkpoint
/// will ever work). A field that is missing, mistyped or too wide for its
/// type is [`Shape`](Self::Shape), whose detail names the field: the typed
/// reads of [`telemetry::json`] produce it, and [`From<String>`] wraps it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// Malformed content: a missing, mistyped or out-of-range field (the
    /// detail names it), or a structure that does not fit together.
    Shape {
        /// What is wrong.
        detail: String,
    },
    /// This run's configuration cannot be checkpointed at all (side-band
    /// machinery whose state would silently replay from empty).
    Unsupported {
        /// What the run carries, e.g. `"a run with a ground-truth fault
        /// oracle"`.
        what: &'static str,
    },
    /// The checkpoint's channel shard count differs from the system's.
    ShardCount {
        /// Shards in the checkpoint.
        found: usize,
        /// Shards in the system being restored.
        have: usize,
    },
    /// The checkpoint's bank count differs from the controller's.
    BankCount {
        /// Banks in the checkpoint.
        found: usize,
        /// Banks in the controller being restored.
        have: usize,
    },
    /// The checkpoint was taken on a different channel.
    WrongChannel {
        /// Channel recorded in the checkpoint.
        found: u64,
        /// Channel of the controller being restored.
        restoring: u8,
    },
    /// A defense implementation rejected its snapshot or restore (defense
    /// state errors originate in the `mitigations` trait, which reports
    /// strings).
    Defense {
        /// Bank index of the defense.
        bank: usize,
        /// The defense's own description.
        detail: String,
    },
    /// A per-bank failure, wrapping the underlying error.
    Bank {
        /// Bank index.
        bank: usize,
        /// What failed there.
        source: Box<CkptError>,
    },
    /// A per-channel-shard failure, wrapping the underlying error.
    Channel {
        /// Channel index.
        channel: usize,
        /// What failed there.
        source: Box<CkptError>,
    },
}

impl CkptError {
    /// Wraps `e` with the bank it struck.
    pub(crate) fn bank(bank: usize, e: CkptError) -> CkptError {
        CkptError::Bank { bank, source: Box::new(e) }
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Shape { detail } => f.write_str(detail),
            CkptError::Unsupported { what } => write!(f, "cannot checkpoint {what}"),
            CkptError::ShardCount { found, have } => {
                write!(f, "checkpoint has {found} channel shard(s), system has {have}")
            }
            CkptError::BankCount { found, have } => {
                write!(f, "checkpoint has {found} bank(s), controller has {have}")
            }
            CkptError::WrongChannel { found, restoring } => {
                write!(f, "checkpoint is for channel {found}, restoring channel {restoring}")
            }
            CkptError::Defense { bank, detail } => write!(f, "bank {bank}: {detail}"),
            CkptError::Bank { bank, source } => write!(f, "bank {bank}: {source}"),
            CkptError::Channel { channel, source } => write!(f, "channel {channel}: {source}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Bank { source, .. } | CkptError::Channel { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A failed typed read (see [`telemetry::json`]) is malformed content.
impl From<String> for CkptError {
    fn from(detail: String) -> Self {
        CkptError::Shape { detail }
    }
}

/// Writes [`RunStats`]' fields (`per_stream` as an array of
/// `[count, latency]` pairs).
pub(crate) fn write_run_stats(w: &mut ObjWriter<'_>, s: &RunStats) {
    w.u64("accesses", s.accesses)
        .u64("activations", s.activations)
        .u64("row_hits", s.row_hits)
        .u64("refreshes", s.refreshes)
        .u64("defense_refresh_commands", s.defense_refresh_commands)
        .u64("victim_rows_refreshed", s.victim_rows_refreshed)
        .u64("defense_busy", s.defense_busy)
        .u64("completion", s.completion)
        .u64("total_latency", s.total_latency)
        .u64("bit_flips", s.bit_flips)
        .u64("throttled_acts", s.throttled_acts)
        .u64("throttle_delay", s.throttle_delay)
        .items("per_stream", &s.per_stream, |out, &(n, lat)| push_u64s(out, [n, lat]))
        .u64("stray_stream_accesses", s.stray_stream_accesses)
        .u64("stray_stream_latency", s.stray_stream_latency)
        .u64("rfm_commands", s.rfm_commands)
        .u64("forced_rfms", s.forced_rfms);
}

/// Parses what [`write_run_stats`] wrote.
pub(crate) fn run_stats_from_json(v: &JsonValue) -> Result<RunStats, CkptError> {
    let per_stream = v
        .items("per_stream")?
        .iter()
        .map(|pair| match pair.to_ints().as_deref() {
            Ok(&[n, lat]) => Ok((n, lat)),
            _ => Err("per_stream element is not a [count, latency] pair".to_owned()),
        })
        .collect::<Result<_, _>>()?;
    Ok(RunStats {
        accesses: v.int("accesses")?,
        activations: v.int("activations")?,
        row_hits: v.int("row_hits")?,
        refreshes: v.int("refreshes")?,
        defense_refresh_commands: v.int("defense_refresh_commands")?,
        victim_rows_refreshed: v.int("victim_rows_refreshed")?,
        defense_busy: v.int("defense_busy")?,
        completion: v.int("completion")?,
        total_latency: v.int("total_latency")?,
        bit_flips: v.int("bit_flips")?,
        throttled_acts: v.int("throttled_acts")?,
        throttle_delay: v.int("throttle_delay")?,
        per_stream,
        stray_stream_accesses: v.int("stray_stream_accesses")?,
        stray_stream_latency: v.int("stray_stream_latency")?,
        rfm_commands: v.int("rfm_commands")?,
        forced_rfms: v.int("forced_rfms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_text(s: &RunStats) -> String {
        let mut out = String::new();
        telemetry::json::write_obj(&mut out, |w| write_run_stats(w, s));
        out
    }

    #[test]
    fn run_stats_round_trip_through_text() {
        let mut s = RunStats {
            accesses: u64::MAX,
            activations: 3,
            completion: 123_456_789_012_345,
            throttled_acts: 7,
            throttle_delay: 9_999,
            ..RunStats::default()
        };
        s.note_stream(0, 10);
        s.note_stream(5, 99);
        let text = stats_text(&s);
        let back = run_stats_from_json(&telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn missing_field_is_reported() {
        // Every writer renders every field, the RFM counters included, so a
        // line without one is damaged, not old.
        let text = stats_text(&RunStats::default());
        for (key, value) in [("per_stream", "[]"), ("rfm_commands", "0"), ("forced_rfms", "0")] {
            let damaged = text.replace(&format!(",\"{key}\":{value}"), "");
            let err = run_stats_from_json(&telemetry::json::parse(&damaged).unwrap()).unwrap_err();
            assert_eq!(err, CkptError::Shape { detail: format!("missing field `{key}`") });
            assert_eq!(err.to_string(), format!("missing field `{key}`"));
        }
    }

    #[test]
    fn error_display_and_source_chain() {
        let inner = CkptError::from("field `clock`: not an integer".to_owned());
        assert!(matches!(&inner, CkptError::Shape { detail } if detail.contains("`clock`")));
        let wrapped =
            CkptError::Channel { channel: 3, source: Box::new(CkptError::bank(1, inner)) };
        assert_eq!(wrapped.to_string(), "channel 3: bank 1: field `clock`: not an integer");
        let source = std::error::Error::source(&wrapped).expect("channel wraps a source");
        assert!(source.to_string().starts_with("bank 1:"), "{source}");
    }
}
