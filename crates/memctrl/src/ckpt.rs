//! Shared JSON plumbing and the typed error for controller checkpoint
//! state.
//!
//! Checkpoint state is rendered and parsed by hand on top of
//! [`telemetry::json`] (the faultsim JSONL idiom). The parser is
//! integer-first, so every `u64` counter round-trips exactly.
//!
//! Every snapshot/restore failure is a [`CkptError`] — a machine-matchable
//! enum rather than a formatted string, so the fleet recovery supervisor
//! can distinguish "this checkpoint is malformed" from "this run cannot be
//! checkpointed at all" without parsing prose.

use std::fmt;

use telemetry::json::{obj, JsonValue};

use crate::stats::RunStats;

/// Why a controller snapshot or restore failed.
///
/// Variants preserve enough structure to act on: which field, which bank or
/// channel, and whether the problem is the checkpoint's content
/// (malformed/mismatched — retrying with a different checkpoint can
/// succeed) or the run's configuration ([`Unsupported`](Self::Unsupported)
/// — no checkpoint will ever work).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CkptError {
    /// A required field is absent.
    MissingField {
        /// The field's key.
        key: String,
    },
    /// A field is absent or not the integer the schema requires.
    NotInteger {
        /// The field's key.
        key: String,
    },
    /// An optional integer field holds something other than null/integer.
    BadOptional {
        /// The field's key.
        key: String,
    },
    /// A field that must be an array isn't.
    NotArray {
        /// The field's key.
        key: String,
    },
    /// Structurally wrong content not tied to a single named field.
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
            CkptError::MissingField { key } => write!(f, "missing field `{key}`"),
            CkptError::NotInteger { key } => {
                write!(f, "missing or non-integer field `{key}`")
            }
            CkptError::BadOptional { key } => {
                write!(f, "field `{key}` is neither null nor an integer")
            }
            CkptError::NotArray { key } => write!(f, "field `{key}` is not an array"),
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

/// Required sub-value lookup.
pub(crate) fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, CkptError> {
    v.get(key).ok_or_else(|| CkptError::MissingField { key: key.to_owned() })
}

/// Required integer field.
pub(crate) fn u64_field(v: &JsonValue, key: &str) -> Result<u64, CkptError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CkptError::NotInteger { key: key.to_owned() })
}

/// Optional integer field: `Null` (or absence) maps to `None`.
pub(crate) fn opt_u64_field(v: &JsonValue, key: &str) -> Result<Option<u64>, CkptError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => {
            x.as_u64().map(Some).ok_or_else(|| CkptError::BadOptional { key: key.to_owned() })
        }
    }
}

/// Renders an `Option<u64>` as `U64` or `Null`.
pub(crate) fn opt_u64(v: Option<u64>) -> JsonValue {
    match v {
        Some(x) => JsonValue::U64(x),
        None => JsonValue::Null,
    }
}

/// Renders [`RunStats`] as a JSON object (`per_stream` as an array of
/// `[count, latency]` pairs).
pub(crate) fn run_stats_to_json(s: &RunStats) -> JsonValue {
    obj(vec![
        ("accesses", JsonValue::U64(s.accesses)),
        ("activations", JsonValue::U64(s.activations)),
        ("row_hits", JsonValue::U64(s.row_hits)),
        ("refreshes", JsonValue::U64(s.refreshes)),
        ("defense_refresh_commands", JsonValue::U64(s.defense_refresh_commands)),
        ("victim_rows_refreshed", JsonValue::U64(s.victim_rows_refreshed)),
        ("defense_busy", JsonValue::U64(s.defense_busy)),
        ("completion", JsonValue::U64(s.completion)),
        ("total_latency", JsonValue::U64(s.total_latency)),
        ("bit_flips", JsonValue::U64(s.bit_flips)),
        ("throttled_acts", JsonValue::U64(s.throttled_acts)),
        ("throttle_delay", JsonValue::U64(s.throttle_delay)),
        (
            "per_stream",
            JsonValue::Arr(
                s.per_stream
                    .iter()
                    .map(|&(n, lat)| JsonValue::Arr(vec![JsonValue::U64(n), JsonValue::U64(lat)]))
                    .collect(),
            ),
        ),
        ("stray_stream_accesses", JsonValue::U64(s.stray_stream_accesses)),
        ("stray_stream_latency", JsonValue::U64(s.stray_stream_latency)),
        ("rfm_commands", JsonValue::U64(s.rfm_commands)),
        ("forced_rfms", JsonValue::U64(s.forced_rfms)),
    ])
}

/// Parses what [`run_stats_to_json`] rendered.
pub(crate) fn run_stats_from_json(v: &JsonValue) -> Result<RunStats, CkptError> {
    let per_stream = field(v, "per_stream")?
        .as_arr()
        .ok_or_else(|| CkptError::NotArray { key: "per_stream".to_owned() })?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| CkptError::Shape {
                detail: "per_stream element is not a [count, latency] pair".to_owned(),
            })?;
            match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(n), Some(lat)) => Ok((n, lat)),
                _ => Err(CkptError::Shape { detail: "non-integer per_stream pair".to_owned() }),
            }
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    Ok(RunStats {
        accesses: u64_field(v, "accesses")?,
        activations: u64_field(v, "activations")?,
        row_hits: u64_field(v, "row_hits")?,
        refreshes: u64_field(v, "refreshes")?,
        defense_refresh_commands: u64_field(v, "defense_refresh_commands")?,
        victim_rows_refreshed: u64_field(v, "victim_rows_refreshed")?,
        defense_busy: u64_field(v, "defense_busy")?,
        completion: u64_field(v, "completion")?,
        total_latency: u64_field(v, "total_latency")?,
        bit_flips: u64_field(v, "bit_flips")?,
        throttled_acts: u64_field(v, "throttled_acts")?,
        throttle_delay: u64_field(v, "throttle_delay")?,
        per_stream,
        stray_stream_accesses: u64_field(v, "stray_stream_accesses")?,
        stray_stream_latency: u64_field(v, "stray_stream_latency")?,
        // Absent in pre-RFM checkpoints: default 0 (a DDR4 run issued none).
        rfm_commands: opt_u64_field(v, "rfm_commands")?.unwrap_or(0),
        forced_rfms: opt_u64_field(v, "forced_rfms")?.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let text = run_stats_to_json(&s).to_string();
        let back = run_stats_from_json(&telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn missing_field_is_reported() {
        let err =
            run_stats_from_json(&telemetry::json::parse("{\"accesses\":1}").unwrap()).unwrap_err();
        assert_eq!(err, CkptError::MissingField { key: "per_stream".to_owned() });
        assert!(err.to_string().contains("per_stream"), "{err}");
    }

    #[test]
    fn error_display_and_source_chain() {
        let inner = CkptError::NotInteger { key: "clock".to_owned() };
        let wrapped =
            CkptError::Channel { channel: 3, source: Box::new(CkptError::bank(1, inner)) };
        assert_eq!(wrapped.to_string(), "channel 3: bank 1: missing or non-integer field `clock`");
        let source = std::error::Error::source(&wrapped).expect("channel wraps a source");
        assert!(source.to_string().starts_with("bank 1:"), "{source}");
    }
}
