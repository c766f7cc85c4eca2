//! Row data shadow: what a Row Hammer flip actually does to stored bits.
//!
//! The fault oracle in [`crate::fault`] decides *when* a victim crosses the
//! threshold; this module models *what happens to the data*: each row
//! carries a 64-bit canary word initialized from a [`DataPattern`], and a
//! flip XORs a deterministic bit chosen from the victim's address. Crucially
//! — and unlike charge refresh — **corruption persists through refreshes**:
//! a refresh restores the cell's charge to whatever (now wrong) value it
//! holds. Only an explicit rewrite repairs the data, exactly the asymmetry
//! that makes Row Hammer a security problem rather than a reliability
//! nuisance.

use crate::geometry::RowId;

/// Initial data pattern of every row's canary word.
///
/// Real Row Hammer test tools (e.g. Google's rowhammer-test) sweep data
/// patterns because coupling is data-dependent; the oracle here is
/// pattern-independent, but the patterns still matter for demonstrating
/// which stored value got corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DataPattern {
    /// All zeros.
    Zeros,
    /// All ones.
    Ones,
    /// `0xAAAA…` / `0x5555…` alternating by row parity.
    Checkerboard,
    /// Each row stores its own address (self-identifying, easiest to debug).
    RowAddress,
}

impl DataPattern {
    /// The golden (uncorrupted) word for `row`.
    pub fn golden(self, row: RowId) -> u64 {
        match self {
            DataPattern::Zeros => 0,
            DataPattern::Ones => u64::MAX,
            DataPattern::Checkerboard => {
                if row.0.is_multiple_of(2) {
                    0xAAAA_AAAA_AAAA_AAAA
                } else {
                    0x5555_5555_5555_5555
                }
            }
            DataPattern::RowAddress => u64::from(row.0),
        }
    }
}

/// Per-bank data shadow.
///
/// # Example
///
/// ```
/// use dram_model::data::{DataPattern, DataShadow};
/// use dram_model::RowId;
///
/// let mut shadow = DataShadow::new(16, DataPattern::Checkerboard);
/// shadow.apply_flip(RowId(3));
/// assert_eq!(shadow.corrupted_rows(), vec![RowId(3)]);
/// shadow.rewrite_row(RowId(3));
/// assert!(shadow.corrupted_rows().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataShadow {
    pattern: DataPattern,
    words: Vec<u64>,
}

impl DataShadow {
    /// Initializes all rows to the pattern's golden values.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty.
    pub fn new(rows_per_bank: u32, pattern: DataPattern) -> Self {
        assert!(rows_per_bank > 0, "bank must have rows");
        DataShadow {
            pattern,
            words: (0..rows_per_bank).map(|r| pattern.golden(RowId(r))).collect(),
        }
    }

    /// The configured pattern.
    pub fn pattern(&self) -> DataPattern {
        self.pattern
    }

    /// Current word stored in `row`.
    pub fn read(&self, row: RowId) -> u64 {
        self.words[row.0 as usize]
    }

    /// True if `row` still holds its golden value.
    pub fn is_intact(&self, row: RowId) -> bool {
        self.read(row) == self.pattern.golden(row)
    }

    /// Applies one Row Hammer flip to `row`: XORs a deterministic bit
    /// derived from the row address (so repeated reproduction runs corrupt
    /// the same bit).
    pub fn apply_flip(&mut self, row: RowId) {
        let bit = (u64::from(row.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as u32; // 0..63
        self.words[row.0 as usize] ^= 1u64 << bit;
    }

    /// Rewrites `row` with its golden value (the only repair).
    pub fn rewrite_row(&mut self, row: RowId) {
        self.words[row.0 as usize] = self.pattern.golden(row);
    }

    /// All rows whose stored word deviates from golden.
    pub fn corrupted_rows(&self) -> Vec<RowId> {
        self.words
            .iter()
            .enumerate()
            .filter(|&(r, &w)| w != self.pattern.golden(RowId(r as u32)))
            .map(|(r, _)| RowId(r as u32))
            .collect()
    }

    /// Hamming distance of `row` from its golden value (flipped bit count).
    pub fn flipped_bits(&self, row: RowId) -> u32 {
        (self.read(row) ^ self.pattern.golden(row)).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_patterns() {
        assert_eq!(DataPattern::Zeros.golden(RowId(5)), 0);
        assert_eq!(DataPattern::Ones.golden(RowId(5)), u64::MAX);
        assert_eq!(DataPattern::Checkerboard.golden(RowId(4)), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(DataPattern::Checkerboard.golden(RowId(5)), 0x5555_5555_5555_5555);
        assert_eq!(DataPattern::RowAddress.golden(RowId(42)), 42);
    }

    #[test]
    fn flip_corrupts_one_bit_deterministically() {
        let mut a = DataShadow::new(64, DataPattern::Zeros);
        let mut b = DataShadow::new(64, DataPattern::Zeros);
        a.apply_flip(RowId(9));
        b.apply_flip(RowId(9));
        assert_eq!(a.read(RowId(9)), b.read(RowId(9)));
        assert_eq!(a.flipped_bits(RowId(9)), 1);
        assert!(!a.is_intact(RowId(9)));
    }

    #[test]
    fn double_flip_of_same_bit_restores_by_accident() {
        // XOR semantics: hammering the same victim to a second threshold
        // crossing flips the same cell back — a real (if unhelpful) artifact
        // of the single-cell model, documented by this test.
        let mut s = DataShadow::new(64, DataPattern::Ones);
        s.apply_flip(RowId(9));
        s.apply_flip(RowId(9));
        assert!(s.is_intact(RowId(9)));
    }

    #[test]
    fn corruption_survives_everything_but_rewrite() {
        let mut s = DataShadow::new(64, DataPattern::RowAddress);
        s.apply_flip(RowId(7));
        // No refresh concept here on purpose: only rewrite repairs.
        assert_eq!(s.corrupted_rows(), vec![RowId(7)]);
        s.rewrite_row(RowId(7));
        assert!(s.is_intact(RowId(7)));
        assert_eq!(s.read(RowId(7)), 7);
    }

    #[test]
    fn different_rows_flip_different_bits_mostly() {
        let mut s = DataShadow::new(1024, DataPattern::Zeros);
        let mut bits = std::collections::HashSet::new();
        for r in 0..64u32 {
            s.apply_flip(RowId(r));
            bits.insert(s.read(RowId(r)));
        }
        // The multiplicative hash spreads flip positions broadly.
        assert!(bits.len() > 32, "only {} distinct flip positions", bits.len());
    }

    #[test]
    #[should_panic(expected = "bank must have rows")]
    fn empty_bank_panics() {
        let _ = DataShadow::new(0, DataPattern::Zeros);
    }
}
