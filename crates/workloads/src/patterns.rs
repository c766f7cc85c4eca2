//! The targeted attack patterns of Figure 7.
//!
//! * [`ProhitAttack`] — `{x−4, x−2, x−2, x, x, x, x+2, x+2, x+4}` repeated.
//!   Every aggressor in the set disturbs the victims `x−5 … x+5`; the victims
//!   `x±1, x±3` are disturbed by *two* aggressors each and therefore appear
//!   frequently in PRoHIT's tables, while `x±5` are disturbed by only one
//!   infrequent aggressor — so frequency-ordered refresh starves them.
//! * [`MrlocAttack`] — eight distinct, non-adjacent rows accessed in order.
//!   Sixteen victims overflow MRLoc's 15-entry history queue, nullifying its
//!   locality boost.

use dram_model::geometry::RowId;

use crate::stream::{Access, Workload};

/// The Figure 7(a) pattern that defeats PRoHIT.
///
/// # Example
///
/// ```
/// use workloads::{patterns::ProhitAttack, Workload};
///
/// let mut atk = ProhitAttack::new(1000);
/// let first: Vec<u32> = (0..9).map(|_| atk.next_access().row.0).collect();
/// assert_eq!(first, vec![996, 998, 998, 1000, 1000, 1000, 1002, 1002, 1004]);
/// ```
#[derive(Debug, Clone)]
pub struct ProhitAttack {
    sequence: [RowId; 9],
    position: usize,
}

impl ProhitAttack {
    /// Builds the pattern around center row `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x < 4` (the pattern would underflow the bank).
    pub fn new(x: u32) -> Self {
        assert!(x >= 4, "center row must leave room for x-4");
        ProhitAttack {
            sequence: [
                RowId(x - 4),
                RowId(x - 2),
                RowId(x - 2),
                RowId(x),
                RowId(x),
                RowId(x),
                RowId(x + 2),
                RowId(x + 2),
                RowId(x + 4),
            ],
            position: 0,
        }
    }
}

impl Workload for ProhitAttack {
    fn name(&self) -> String {
        "fig7a-prohit".to_owned()
    }

    fn next_access(&mut self) -> Access {
        let row = self.sequence[self.position % 9];
        self.position += 1;
        Access { bank: 0, row, gap: 0, stream: 0 }
    }
}

/// The Figure 7(b) pattern that defeats MRLoc: `{x₁ … x₈}` repeated, all
/// rows distinct and non-adjacent.
#[derive(Debug, Clone)]
pub struct MrlocAttack {
    rows: [RowId; 8],
    position: usize,
}

impl MrlocAttack {
    /// Eight aggressors spaced `stride ≥ 3` apart starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `stride < 3` (victim sets would overlap and reduce the
    /// distinct-victim count below 16).
    pub fn new(base: u32, stride: u32) -> Self {
        assert!(stride >= 3, "aggressors must be non-adjacent");
        let mut rows = [RowId(0); 8];
        for (i, r) in rows.iter_mut().enumerate() {
            *r = RowId(base + i as u32 * stride);
        }
        MrlocAttack { rows, position: 0 }
    }

    /// The aggressor rows.
    pub fn aggressors(&self) -> &[RowId; 8] {
        &self.rows
    }
}

impl Workload for MrlocAttack {
    fn name(&self) -> String {
        "fig7b-mrloc".to_owned()
    }

    fn next_access(&mut self) -> Access {
        let row = self.rows[self.position % 8];
        self.position += 1;
        Access { bank: 0, row, gap: 0, stream: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prohit_pattern_matches_figure_7a() {
        let mut atk = ProhitAttack::new(100);
        let two_cycles: Vec<u32> = (0..18).map(|_| atk.next_access().row.0).collect();
        let expected = [96, 98, 98, 100, 100, 100, 102, 102, 104];
        assert_eq!(&two_cycles[..9], &expected);
        assert_eq!(&two_cycles[9..], &expected);
    }

    #[test]
    fn prohit_frequency_profile() {
        // Per cycle: x appears 3×, x±2 2×, x±4 1× — the skew that biases
        // PRoHIT's tables.
        let mut atk = ProhitAttack::new(100);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..900 {
            *counts.entry(atk.next_access().row.0).or_insert(0) += 1;
        }
        assert_eq!(counts[&100], 300);
        assert_eq!(counts[&98], 200);
        assert_eq!(counts[&102], 200);
        assert_eq!(counts[&96], 100);
        assert_eq!(counts[&104], 100);
    }

    #[test]
    fn mrloc_pattern_has_16_distinct_victims() {
        let atk = MrlocAttack::new(1000, 10);
        let mut victims = HashSet::new();
        for a in atk.aggressors() {
            victims.insert(a.0 - 1);
            victims.insert(a.0 + 1);
        }
        // Two per aggressor: one more than MRLoc's 15-entry history queue.
        assert_eq!(victims.len(), 16);
    }

    #[test]
    fn mrloc_cycles_in_order() {
        let mut atk = MrlocAttack::new(0, 3);
        let rows: Vec<u32> = (0..8).map(|_| atk.next_access().row.0).collect();
        assert_eq!(rows, vec![0, 3, 6, 9, 12, 15, 18, 21]);
        assert_eq!(atk.next_access().row.0, 0); // wraps
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn mrloc_rejects_small_stride() {
        let _ = MrlocAttack::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "room for x-4")]
    fn prohit_rejects_edge_center() {
        let _ = ProhitAttack::new(3);
    }
}
