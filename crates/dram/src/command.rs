//! DRAM command vocabulary, including the paper's NRR extension.

use crate::geometry::RowId;

/// Commands a memory controller can issue to one bank.
///
/// `NearbyRowRefresh` is the paper's minor DRAM-protocol extension
/// (Section IV-A): on receipt, the device refreshes the rows within
/// `radius` of the specified aggressor row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DramCommand {
    /// Activate (open) a row.
    Activate(RowId),
    /// Precharge (close) the open row.
    Precharge,
    /// Auto-refresh: the device refreshes its internally chosen burst of rows.
    Refresh,
    /// Nearby Row Refresh: refresh the neighbours of `aggressor` out to
    /// `radius` rows on each side.
    NearbyRowRefresh {
        /// The aggressor row whose neighbours are refreshed.
        aggressor: RowId,
        /// Blast radius (±radius rows).
        radius: u32,
    },
}

impl DramCommand {
    /// Short mnemonic used in logs and traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            DramCommand::Activate(_) => "ACT",
            DramCommand::Precharge => "PRE",
            DramCommand::Refresh => "REF",
            DramCommand::NearbyRowRefresh { .. } => "NRR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics() {
        assert_eq!(DramCommand::Activate(RowId(1)).mnemonic(), "ACT");
        assert_eq!(DramCommand::Precharge.mnemonic(), "PRE");
        assert_eq!(DramCommand::Refresh.mnemonic(), "REF");
        assert_eq!(
            DramCommand::NearbyRowRefresh { aggressor: RowId(1), radius: 1 }.mnemonic(),
            "NRR"
        );
    }
}
