//! Physical-address decoding.
//!
//! The controller crates elsewhere in this workspace operate on
//! already-decoded (bank, row) pairs; this module supplies the decode for
//! users who start from flat physical addresses, with the two classic
//! schemes:
//!
//! * [`MappingScheme::ChannelInterleaved`] — column bits lowest, then
//!   channel, bank, rank, row: consecutive cache lines stripe across
//!   channels and banks, the layout the paper's 4-channel system implies.
//! * [`MappingScheme::BankXor`] — same, but the bank index is XOR-folded
//!   with the low row bits (permutation-based interleaving), the standard
//!   trick to spread row-conflict strides across banks.
//!
//! Decoding is bit-exact and bijective over the configured capacity; both
//! properties are tested.
//!
//! For the channel-sharded system controller this module also supplies
//! [`SystemAddress`] (a fully-decoded bank coordinate plus row) and
//! [`MappingPolicy`] — the front-end routing function that scatters a
//! workload's flat `(bank, row)` accesses across channels.

use dram_model::geometry::{bits_for, BankCoord, DramGeometry, RowId};

/// How physical-address bits map onto (channel, rank, bank, row, column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MappingScheme {
    /// `[row | rank | bank | channel | column]`, LSB on the right.
    ChannelInterleaved,
    /// Like [`MappingScheme::ChannelInterleaved`], with
    /// `bank ^= row & (banks − 1)`.
    BankXor,
}

/// A decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Which bank the access targets.
    pub coord: BankCoord,
    /// Row within the bank.
    pub row: RowId,
    /// Column within the row.
    pub column: u32,
}

/// Bit-exact physical-address mapper.
///
/// # Example
///
/// ```
/// use dram_model::DramGeometry;
/// use memctrl::mapping::{AddressMapper, MappingScheme};
///
/// let m = AddressMapper::new(DramGeometry::micro2020(), 1024, MappingScheme::ChannelInterleaved);
/// let d = m.decode(0x1234_5678);
/// assert!(d.row.0 < 65_536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: DramGeometry,
    scheme: MappingScheme,
    column_bits: u32,
    channel_bits: u32,
    rank_bits: u32,
    bank_bits: u32,
    row_bits: u32,
}

impl AddressMapper {
    /// Creates a mapper for `geometry` with `columns` columns per row.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is not a power of two (bit-sliced mapping
    /// requires it) or zero.
    pub fn new(geometry: DramGeometry, columns: u32, scheme: MappingScheme) -> Self {
        let dims = [
            ("columns", columns),
            ("channels", u32::from(geometry.channels)),
            ("ranks", u32::from(geometry.ranks_per_channel)),
            ("banks", u32::from(geometry.banks_per_rank)),
            ("rows", geometry.rows_per_bank),
        ];
        for (name, v) in dims {
            assert!(v > 0 && v.is_power_of_two(), "{name} must be a non-zero power of two");
        }
        AddressMapper {
            geometry,
            scheme,
            column_bits: bits_for(u64::from(columns)),
            channel_bits: bits_for(u64::from(geometry.channels)),
            rank_bits: bits_for(u64::from(geometry.ranks_per_channel)),
            bank_bits: bits_for(u64::from(geometry.banks_per_rank)),
            row_bits: bits_for(u64::from(geometry.rows_per_bank)),
        }
    }

    /// Total addressable capacity in mapper units (one unit = one column).
    pub fn capacity(&self) -> u64 {
        1u64 << (self.column_bits
            + self.channel_bits
            + self.rank_bits
            + self.bank_bits
            + self.row_bits)
    }

    /// Decodes a flat physical address (in column-sized units, wrapped at
    /// capacity).
    pub fn decode(&self, addr: u64) -> DecodedAddress {
        let mut a = addr % self.capacity();
        let mut take = |bits: u32| -> u64 {
            let v = a & ((1u64 << bits) - 1);
            a >>= bits;
            v
        };
        let column = take(self.column_bits) as u32;
        let channel = take(self.channel_bits) as u8;
        let mut bank = take(self.bank_bits) as u8;
        let rank = take(self.rank_bits) as u8;
        let row = take(self.row_bits) as u32;
        if self.scheme == MappingScheme::BankXor {
            bank ^= (row as u8) & (self.geometry.banks_per_rank - 1);
        }
        DecodedAddress { coord: BankCoord { channel, rank, bank }, row: RowId(row), column }
    }
}

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

    fn mapper(scheme: MappingScheme) -> AddressMapper {
        AddressMapper::new(DramGeometry::micro2020(), 1024, scheme)
    }

    /// Encodes a decoded address back to its flat form (inverse of
    /// [`AddressMapper::decode`]).
    fn encode(m: &AddressMapper, d: DecodedAddress) -> u64 {
        let bank = match m.scheme {
            MappingScheme::ChannelInterleaved => d.coord.bank,
            MappingScheme::BankXor => {
                d.coord.bank ^ ((d.row.0 as u8) & (m.geometry.banks_per_rank - 1))
            }
        };
        let mut a = 0u64;
        let mut at = 0;
        for (v, bits) in [
            (u64::from(d.column), m.column_bits),
            (u64::from(d.coord.channel), m.channel_bits),
            (u64::from(bank), m.bank_bits),
            (u64::from(d.coord.rank), m.rank_bits),
            (u64::from(d.row.0), m.row_bits),
        ] {
            a |= v << at;
            at += bits;
        }
        a
    }

    #[test]
    fn decode_encode_roundtrip() {
        for scheme in [MappingScheme::ChannelInterleaved, MappingScheme::BankXor] {
            let m = mapper(scheme);
            for addr in (0..m.capacity()).step_by(987_654_321).take(1000) {
                assert_eq!(encode(&m, m.decode(addr)), addr, "{scheme:?} @ {addr:#x}");
            }
        }
    }

    #[test]
    fn sequential_addresses_stripe_across_channels() {
        let m = mapper(MappingScheme::ChannelInterleaved);
        let mut channels_seen = std::collections::HashSet::new();
        for i in 0..4u64 {
            channels_seen.insert(m.decode(1024 * i).coord.channel);
        }
        assert_eq!(channels_seen.len(), 4, "row-sized strides must rotate channels");
    }

    #[test]
    fn fields_stay_in_range() {
        let m = mapper(MappingScheme::BankXor);
        for addr in (0..m.capacity()).step_by(123_456_789).take(2000) {
            let d = m.decode(addr);
            assert!(d.coord.channel < 4);
            assert!(d.coord.rank < 1);
            assert!(d.coord.bank < 16);
            assert!(d.row.0 < 65_536);
            assert!(d.column < 1024);
        }
    }

    #[test]
    fn bank_xor_spreads_row_strides() {
        // A stride that keeps the plain bank bits constant while changing the
        // row: plain mapping hits one bank, XOR mapping spreads.
        let plain = mapper(MappingScheme::ChannelInterleaved);
        let xor = mapper(MappingScheme::BankXor);
        let row_stride = plain.capacity() / u64::from(plain.geometry.rows_per_bank);
        let banks = |m: &AddressMapper| {
            (0..16u64)
                .map(|i| m.decode(i * row_stride).coord.bank)
                .collect::<std::collections::HashSet<u8>>()
                .len()
        };
        assert_eq!(banks(&plain), 1);
        assert_eq!(banks(&xor), 16);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let m = mapper(MappingScheme::ChannelInterleaved);
        assert_eq!(m.decode(0), m.decode(m.capacity()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut g = DramGeometry::micro2020();
        g.rows_per_bank = 65_537;
        let _ = AddressMapper::new(g, 1024, MappingScheme::ChannelInterleaved);
    }

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
