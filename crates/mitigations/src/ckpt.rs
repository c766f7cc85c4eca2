//! Shared JSON plumbing for defense checkpoint state.
//!
//! Checkpoint state is rendered by hand on top of [`telemetry::json`] and
//! read back with its typed reads ([`JsonValue::int`], [`JsonValue::ints`],
//! …). [`telemetry::json::parse`] is integer-first (`u64` before `f64`), so
//! every counter and packed bitmask word round-trips exactly.

use telemetry::json::JsonValue;

/// Renders an iterator of `u64` as a JSON array.
pub(crate) fn lane(values: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Arr(values.into_iter().map(JsonValue::U64).collect())
}

/// Checks the checkpoint's `scheme` tag against the restoring defense.
pub(crate) fn expect_scheme(v: &JsonValue, want: &str) -> Result<(), String> {
    let found = v.get("scheme").and_then(JsonValue::as_str).unwrap_or_default();
    if found == want {
        Ok(())
    } else {
        Err(format!("checkpoint is for scheme `{found}`, restoring `{want}`"))
    }
}
