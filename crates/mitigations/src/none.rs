//! The no-defense baseline.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;
use telemetry::json::{obj, JsonValue};

use crate::ckpt::expect_scheme;
use crate::defense::{RefreshAction, RowHammerDefense, TableBits};

/// A defense that does nothing — the unprotected baseline against which
/// overheads are normalized and which the fault oracle uses to demonstrate
/// real bit flips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoDefense;

impl NoDefense {
    /// Creates the (stateless) baseline.
    pub fn new() -> Self {
        NoDefense
    }
}

impl RowHammerDefense for NoDefense {
    fn name(&self) -> String {
        "None".to_owned()
    }

    fn on_activation(&mut self, _row: RowId, _now: Picoseconds) -> Vec<RefreshAction> {
        Vec::new()
    }

    fn table_bits(&self) -> TableBits {
        TableBits::default()
    }

    fn reset(&mut self) {}

    fn snapshot_state(&self) -> Result<JsonValue, String> {
        // Stateless: the scheme tag is the whole checkpoint.
        Ok(obj(vec![("scheme", JsonValue::Str("none".to_owned()))]))
    }

    fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
        expect_scheme(state, "none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_acts() {
        let mut d = NoDefense::new();
        for i in 0..1000u64 {
            assert!(d.on_activation(RowId(1), i).is_empty());
            assert!(d.on_refresh_tick(i).is_empty());
        }
        assert_eq!(d.table_bits().total(), 0);
    }
}
