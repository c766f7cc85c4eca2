//! DRAM organization (channels/ranks/banks/rows) and strongly-typed addresses.
//!
//! The paper evaluates a 4-channel, 1-rank-per-channel, DDR4-2400 system with
//! 16 banks per rank (Table III); each bank holds 64K rows (8 Gb ×8 devices).
//! [`DramGeometry::micro2020`] reproduces that configuration.

use std::fmt;

use crate::error::DramError;

/// Index of a DRAM row within one bank.
///
/// Newtype so that row numbers cannot be confused with counts or byte
/// addresses (C-NEWTYPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u32);

impl RowId {
    /// Rows at distance `d` on both sides of `self`, clipped to
    /// `[0, rows_per_bank)`.
    ///
    /// This is the set a Nearby Row Refresh (NRR) with radius `d` touches at
    /// that exact distance; the full NRR victim set is the union over
    /// `1..=radius` (see [`RowId::victims`]).
    pub fn neighbors_at(self, d: u32, rows_per_bank: u32) -> impl Iterator<Item = RowId> {
        let lo = self.0.checked_sub(d).map(RowId);
        let hi = self.0.checked_add(d).filter(|&r| r < rows_per_bank).map(RowId);
        lo.into_iter().chain(hi)
    }

    /// All victim rows of an NRR on `self` with the given blast `radius`
    /// (distances `1..=radius`, both sides, clipped to the bank).
    pub fn victims(self, radius: u32, rows_per_bank: u32) -> Vec<RowId> {
        let mut v = Vec::with_capacity(2 * radius as usize);
        for d in 1..=radius {
            v.extend(self.neighbors_at(d, rows_per_bank));
        }
        v
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {:#06x}", self.0)
    }
}

impl From<u32> for RowId {
    fn from(v: u32) -> Self {
        RowId(v)
    }
}

/// Coordinate of one bank in the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankCoord {
    /// Channel index.
    pub channel: u8,
    /// Rank index within the channel.
    pub rank: u8,
    /// Bank index within the rank.
    pub bank: u8,
}

impl fmt::Display for BankCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}/rk{}/bk{}", self.channel, self.rank, self.bank)
    }
}

/// Memory-system organization.
///
/// # Example
///
/// ```
/// use dram_model::geometry::DramGeometry;
///
/// let g = DramGeometry::micro2020();
/// assert_eq!(g.total_banks(), 64);
/// assert_eq!(g.row_addr_bits(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of memory channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks_per_channel: u8,
    /// Banks per rank.
    pub banks_per_rank: u8,
    /// Rows per bank.
    pub rows_per_bank: u32,
}

impl DramGeometry {
    /// The paper's Table III system: 4 channels × 1 rank × 16 banks,
    /// 64K rows per bank.
    pub fn micro2020() -> Self {
        DramGeometry {
            channels: 4,
            ranks_per_channel: 1,
            banks_per_rank: 16,
            rows_per_bank: 65_536,
        }
    }

    /// A single-bank geometry, handy for unit tests and per-bank analyses.
    pub fn single_bank(rows: u32) -> Self {
        DramGeometry { channels: 1, ranks_per_channel: 1, banks_per_rank: 1, rows_per_bank: rows }
    }

    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidGeometry`] if any dimension is zero.
    pub fn validate(&self) -> Result<(), DramError> {
        if self.channels == 0
            || self.ranks_per_channel == 0
            || self.banks_per_rank == 0
            || self.rows_per_bank == 0
        {
            return Err(DramError::InvalidGeometry {
                reason: "all geometry dimensions must be non-zero".to_owned(),
            });
        }
        Ok(())
    }

    /// Total number of banks in the system.
    pub fn total_banks(&self) -> u32 {
        u32::from(self.channels)
            * u32::from(self.ranks_per_channel)
            * u32::from(self.banks_per_rank)
    }

    /// Total ranks in the system.
    pub fn total_ranks(&self) -> u32 {
        u32::from(self.channels) * u32::from(self.ranks_per_channel)
    }

    /// Banks owned by one channel (`ranks_per_channel × banks_per_rank`).
    pub fn banks_per_channel(&self) -> u32 {
        u32::from(self.ranks_per_channel) * u32::from(self.banks_per_rank)
    }

    /// The geometry of a single channel of this system: identical ranks,
    /// banks, and rows, but `channels == 1`. This is what each shard of a
    /// channel-sharded controller owns.
    pub fn channel_geometry(&self) -> DramGeometry {
        DramGeometry { channels: 1, ..*self }
    }

    /// Bits needed to address a row within a bank
    /// (`⌈log2(rows_per_bank)⌉`; 16 for a 64K-row bank).
    pub fn row_addr_bits(&self) -> u32 {
        bits_for(self.rows_per_bank as u64)
    }

    /// Iterator over every bank coordinate in the system.
    pub fn banks(&self) -> impl Iterator<Item = BankCoord> + '_ {
        let g = *self;
        (0..g.channels).flat_map(move |channel| {
            (0..g.ranks_per_channel).flat_map(move |rank| {
                (0..g.banks_per_rank).map(move |bank| BankCoord { channel, rank, bank })
            })
        })
    }

    /// Flattened index of a bank coordinate, in `[0, total_banks())`.
    pub fn bank_index(&self, c: BankCoord) -> usize {
        (usize::from(c.channel) * usize::from(self.ranks_per_channel) + usize::from(c.rank))
            * usize::from(self.banks_per_rank)
            + usize::from(c.bank)
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::micro2020()
    }
}

/// Minimum number of bits able to represent `count` distinct values
/// (`⌈log2(count)⌉`, with `bits_for(0) == 0` and `bits_for(1) == 0`).
pub fn bits_for(count: u64) -> u32 {
    match count {
        0 | 1 => 0,
        n => 64 - (n - 1).leading_zeros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro2020_matches_table_iii() {
        let g = DramGeometry::micro2020();
        assert_eq!(g.channels, 4);
        assert_eq!(g.ranks_per_channel, 1);
        assert_eq!(g.banks_per_rank, 16);
        assert_eq!(g.rows_per_bank, 65_536);
        assert_eq!(g.total_banks(), 64); // "64 memory banks (4 ranks)" §V-A
        g.validate().unwrap();
    }

    #[test]
    fn row_addr_bits_is_16_for_64k_rows() {
        assert_eq!(DramGeometry::micro2020().row_addr_bits(), 16);
    }

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(65_536), 16);
        assert_eq!(bits_for(65_537), 17);
        // Counting up to T = 8333 (i.e. 8334 values incl. zero) needs 14 bits.
        assert_eq!(bits_for(8334), 14);
        // Counting up to W = 1,358,404 needs 21 bits, as the paper states.
        assert_eq!(bits_for(1_358_405), 21);
    }

    #[test]
    fn neighbors_clip_at_bank_edges() {
        let rows = 8;
        let edge = RowId(0);
        let n: Vec<_> = edge.neighbors_at(1, rows).collect();
        assert_eq!(n, vec![RowId(1)]);
        let last = RowId(7);
        let n: Vec<_> = last.neighbors_at(1, rows).collect();
        assert_eq!(n, vec![RowId(6)]);
    }

    #[test]
    fn victims_radius_two() {
        let v = RowId(10).victims(2, 65_536);
        assert_eq!(v, vec![RowId(9), RowId(11), RowId(8), RowId(12)]);
    }

    #[test]
    fn victims_clipped_radius_two_at_edge() {
        let v = RowId(1).victims(2, 65_536);
        assert_eq!(v, vec![RowId(0), RowId(2), RowId(3)]);
    }

    #[test]
    fn bank_index_is_dense_and_unique() {
        let g = DramGeometry::micro2020();
        let mut seen = vec![false; g.total_banks() as usize];
        for c in g.banks() {
            let i = g.bank_index(c);
            assert!(!seen[i], "duplicate index {i} for {c}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn channel_geometry_keeps_per_channel_shape() {
        let g = DramGeometry::micro2020();
        assert_eq!(g.banks_per_channel(), 16);
        let ch = g.channel_geometry();
        assert_eq!(ch.channels, 1);
        assert_eq!(ch.total_banks(), g.banks_per_channel());
        assert_eq!(ch.rows_per_bank, g.rows_per_bank);
    }

    #[test]
    fn validate_rejects_zero_rows() {
        let g = DramGeometry::single_bank(0);
        assert!(g.validate().is_err());
    }
}
