//! System addressing: where an access lands in the channel-sharded system.
//!
//! Workloads and traces carry already-decoded flat `(bank, row)` pairs.
//! This module supplies [`SystemAddress`] (a fully-decoded bank coordinate
//! plus row) and [`MappingPolicy`], the front-end routing function that
//! scatters those pairs across channels for
//! [`McBuilder::build_system`](crate::McBuilder::build_system).

use dram_model::geometry::{BankCoord, DramGeometry, RowId};

/// A fully-decoded system address: which bank in the whole memory system,
/// and which row inside it.
///
/// This is the unit the sharded front end routes on, and what
/// [`McError::AddressOutOfRange`](crate::McError::AddressOutOfRange) carries
/// when an access does not exist in the configured geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemAddress {
    /// Coordinate of the target bank.
    pub coord: BankCoord,
    /// Row within the bank.
    pub row: RowId,
}

impl std::fmt::Display for SystemAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.coord, self.row)
    }
}

/// How the system front end scatters a workload's flat `(bank, row)` pairs
/// across channels.
///
/// Workload generators emit a flat bank index in `[0, total_banks)`; the
/// policy decides which *channel* serves the access and which bank within
/// that channel, the knob that determines how multi-bank attack traffic
/// concentrates or spreads:
///
/// * [`MappingPolicy::RowInterleaved`] — the channel comes from the low row
///   bits (`row mod channels`), the in-channel bank from
///   `bank mod banks_per_channel`. Row-striding traffic rotates channels
///   even when it stays on one nominal bank.
/// * [`MappingPolicy::BankInterleaved`] — consecutive flat bank indices
///   rotate channels (`bank mod channels`); the in-channel bank is
///   `bank / channels`. The classic layout for bank-parallel streams.
/// * [`MappingPolicy::ChannelXor`] — like bank-interleaved, but the channel
///   selector is XOR-folded with the low row bits
///   (`(bank ^ row) mod channels`), the permutation trick that breaks
///   adversarial strides resonating with the channel count.
///
/// Every policy is a deterministic function of `(bank, row)`, so a trace
/// routed twice lands identically — the property the sharded-equals-legacy
/// equivalence tests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MappingPolicy {
    /// Channel from low row bits; bank id picks the bank within the channel.
    RowInterleaved,
    /// Consecutive bank ids rotate channels (the default).
    #[default]
    BankInterleaved,
    /// Bank-interleaved with the channel selector XOR-folded with row bits.
    ChannelXor,
}

impl MappingPolicy {
    /// Short name for reports and JSON blocks.
    pub fn name(&self) -> &'static str {
        match self {
            MappingPolicy::RowInterleaved => "row-interleaved",
            MappingPolicy::BankInterleaved => "bank-interleaved",
            MappingPolicy::ChannelXor => "channel-xor",
        }
    }

    /// Routes a flat `(bank, row)` access to its system address under this
    /// policy, or reports the out-of-range address if the access does not
    /// exist in `geometry`.
    ///
    /// # Errors
    ///
    /// Returns the offending [`SystemAddress`] (best-effort dense decode,
    /// saturated to the coordinate width) when `bank` is at or beyond
    /// `geometry.total_banks()` or `row` is at or beyond
    /// `geometry.rows_per_bank`.
    pub fn route(
        &self,
        geometry: &DramGeometry,
        bank: u16,
        row: RowId,
    ) -> Result<SystemAddress, SystemAddress> {
        let total = geometry.total_banks();
        let per_channel = geometry.banks_per_channel();
        if u32::from(bank) >= total || row.0 >= geometry.rows_per_bank {
            // Dense best-effort decode so the error names the coordinate the
            // access *asked* for, even though the geometry lacks it.
            let channel = (u32::from(bank) / per_channel).min(u32::from(u8::MAX)) as u8;
            let local = u32::from(bank) % per_channel;
            return Err(SystemAddress {
                coord: BankCoord {
                    channel,
                    rank: (local / u32::from(geometry.banks_per_rank)) as u8,
                    bank: (local % u32::from(geometry.banks_per_rank)) as u8,
                },
                row,
            });
        }
        let channels = u32::from(geometry.channels);
        let (channel, local) = match self {
            MappingPolicy::RowInterleaved => (row.0 % channels, u32::from(bank) % per_channel),
            MappingPolicy::BankInterleaved => {
                (u32::from(bank) % channels, u32::from(bank) / channels)
            }
            MappingPolicy::ChannelXor => {
                ((u32::from(bank) ^ row.0) % channels, u32::from(bank) / channels)
            }
        };
        Ok(SystemAddress {
            coord: BankCoord {
                channel: channel as u8,
                rank: (local / u32::from(geometry.banks_per_rank)) as u8,
                bank: (local % u32::from(geometry.banks_per_rank)) as u8,
            },
            row,
        })
    }

    /// The flat bank index *within its channel's shard* for a routed
    /// address (rank-major, as [`DramGeometry::bank_index`] orders a
    /// one-channel geometry).
    pub fn shard_bank_index(geometry: &DramGeometry, addr: SystemAddress) -> usize {
        usize::from(addr.coord.rank) * usize::from(geometry.banks_per_rank)
            + usize::from(addr.coord.bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [MappingPolicy; 3] =
        [MappingPolicy::RowInterleaved, MappingPolicy::BankInterleaved, MappingPolicy::ChannelXor];

    #[test]
    fn route_stays_in_geometry() {
        let g = DramGeometry::micro2020();
        for policy in POLICIES {
            for bank in 0..g.total_banks() as u16 {
                for row in [0u32, 1, 7, 65_535] {
                    let a = policy.route(&g, bank, RowId(row)).unwrap();
                    assert!(a.coord.channel < g.channels, "{policy:?} bank {bank} row {row}");
                    assert!(a.coord.rank < g.ranks_per_channel);
                    assert!(a.coord.bank < g.banks_per_rank);
                    assert_eq!(a.row.0, row);
                    let local = MappingPolicy::shard_bank_index(&g, a);
                    assert!(local < g.banks_per_channel() as usize);
                }
            }
        }
    }

    #[test]
    fn bank_interleaved_rotates_channels_and_is_injective() {
        let g = DramGeometry::micro2020();
        let policy = MappingPolicy::BankInterleaved;
        // Fixed row: the 64 flat banks must land on 64 distinct
        // (channel, local bank) slots, rotating channels with the bank id.
        let mut seen = std::collections::HashSet::new();
        for bank in 0..g.total_banks() as u16 {
            let a = policy.route(&g, bank, RowId(42)).unwrap();
            assert_eq!(u32::from(a.coord.channel), u32::from(bank) % u32::from(g.channels));
            seen.insert((a.coord.channel, MappingPolicy::shard_bank_index(&g, a)));
        }
        assert_eq!(seen.len(), g.total_banks() as usize);
    }

    #[test]
    fn row_interleaved_rotates_channels_with_row() {
        let g = DramGeometry::micro2020();
        let policy = MappingPolicy::RowInterleaved;
        let channels: std::collections::HashSet<u8> =
            (0..8u32).map(|r| policy.route(&g, 3, RowId(r)).unwrap().coord.channel).collect();
        assert_eq!(channels.len(), usize::from(g.channels));
    }

    #[test]
    fn channel_xor_breaks_channel_resonant_strides() {
        let g = DramGeometry::micro2020();
        // Rotate banks in channel-sized strides while walking rows: plain
        // bank-interleaving pins every access to channel 0, the XOR fold
        // spreads them with the row's low bits.
        let hit = |policy: MappingPolicy| {
            (0..16u32)
                .map(|i| policy.route(&g, (i as u16 * 4) % 64, RowId(i)).unwrap().coord.channel)
                .collect::<std::collections::HashSet<u8>>()
                .len()
        };
        assert_eq!(hit(MappingPolicy::BankInterleaved), 1);
        assert!(hit(MappingPolicy::ChannelXor) > 1);
    }

    #[test]
    fn route_rejects_out_of_range_addresses() {
        let g = DramGeometry::micro2020();
        for policy in POLICIES {
            let bad_bank = policy.route(&g, 64, RowId(0)).unwrap_err();
            assert_eq!(bad_bank.coord.channel, 4, "dense decode of the 65th bank");
            let bad_row = policy.route(&g, 0, RowId(65_536)).unwrap_err();
            assert_eq!(bad_row.row, RowId(65_536));
        }
    }

    #[test]
    fn system_address_displays_full_coordinate() {
        let a = SystemAddress { coord: BankCoord { channel: 2, rank: 0, bank: 5 }, row: RowId(16) };
        assert_eq!(a.to_string(), "ch2/rk0/bk5/row 0x0010");
    }
}
