//! Shared JSON plumbing for defense checkpoint state.
//!
//! Checkpoint state is rendered and parsed by hand on top of
//! [`telemetry::json`], the same way `faultsim` serializes fault plans.
//! [`telemetry::json::parse`] is integer-first (`u64` before `f64`), so
//! every counter and packed bitmask word round-trips exactly.

use telemetry::json::JsonValue;

/// Renders an iterator of `u64` as a JSON array.
pub(crate) fn lane(values: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Arr(values.into_iter().map(JsonValue::U64).collect())
}

/// Required sub-value lookup.
pub(crate) fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Required integer-array field.
pub(crate) fn u64_lane(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer element in `{key}`")))
        .collect()
}

/// Like [`u64_lane`] but narrowed to `u32`, rejecting oversized elements.
pub(crate) fn u32_lane(v: &JsonValue, key: &str) -> Result<Vec<u32>, String> {
    u64_lane(v, key)?
        .into_iter()
        .map(|x| u32::try_from(x).map_err(|_| format!("element of `{key}` exceeds u32")))
        .collect()
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
