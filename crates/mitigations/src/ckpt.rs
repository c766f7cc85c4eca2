//! Shared JSON plumbing for defense checkpoint state.
//!
//! Checkpoint state is written straight into the checkpoint buffer by each
//! scheme's [`RowHammerDefense::write_state`] with
//! [`telemetry::json::write_obj`], and read back with the typed reads
//! ([`JsonValue::int`], [`JsonValue::ints`], …).
//! [`telemetry::json::parse`] is integer-first (`u64` before `f64`), so
//! every counter and packed bitmask word round-trips exactly.

use telemetry::json::{self, JsonValue};

use crate::defense::RowHammerDefense;

/// The [`RowHammerDefense::snapshot_state`] of every scheme that writes its
/// state directly: the parse of what its
/// [`write_state`](RowHammerDefense::write_state) writes.
pub(crate) fn parse_written(d: &(impl RowHammerDefense + ?Sized)) -> Result<JsonValue, String> {
    let mut out = String::new();
    d.write_state(&mut out)?;
    json::parse(&out)
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
