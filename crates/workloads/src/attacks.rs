//! Classic Row Hammer attack shapes.
//!
//! Beyond the paper's S1–S4, the literature names several canonical shapes
//! that every defense test-bench should include:
//!
//! * **single-sided** — one aggressor (S3 already covers this);
//! * **double-sided** — two aggressors sandwiching one victim, halving the
//!   per-aggressor ACT budget (the reason for the `T_RH/2` term in
//!   Inequality 2);
//! * **many-sided** — `n` aggressors around a victim region, the TRRespass
//!   family that defeated in-DRAM TRR samplers by exceeding their tracking
//!   capacity. [`NSidedAttack`] places aggressors at every other row
//!   (`v±1, v±3, …`), so all of them share victims.

use dram_model::geometry::RowId;

use crate::stream::{Access, Workload};

/// An `n`-sided hammering pattern around a victim row.
///
/// # Example
///
/// ```
/// use workloads::{NSidedAttack, Workload};
///
/// let mut atk = NSidedAttack::new(100, 4, 65_536);
/// // Aggressors at 99, 101, 97, 103 in rotation.
/// let rows: Vec<u32> = (0..4).map(|_| atk.next_access().row.0).collect();
/// assert_eq!(rows, vec![99, 101, 97, 103]);
/// ```
#[derive(Debug, Clone)]
pub struct NSidedAttack {
    aggressors: Vec<RowId>,
    victim: RowId,
    position: usize,
}

impl NSidedAttack {
    /// Builds the pattern: `sides` aggressors at odd offsets around
    /// `victim`, clipped to the bank.
    ///
    /// # Panics
    ///
    /// Panics if `sides == 0` or the victim is outside the bank.
    pub fn new(victim: u32, sides: u32, rows_per_bank: u32) -> Self {
        assert!(sides > 0, "need at least one aggressor");
        assert!(victim < rows_per_bank, "victim outside bank");
        let mut aggressors = Vec::with_capacity(sides as usize);
        let mut d = 1u32;
        while aggressors.len() < sides as usize {
            if let Some(lo) = victim.checked_sub(d) {
                aggressors.push(RowId(lo));
            }
            if aggressors.len() < sides as usize && victim + d < rows_per_bank {
                aggressors.push(RowId(victim + d));
            }
            d += 2; // odd offsets: every aggressor is adjacent to even rows
        }
        NSidedAttack { aggressors, victim: RowId(victim), position: 0 }
    }

    /// The victim row at the pattern's center.
    pub fn victim(&self) -> RowId {
        self.victim
    }

    /// The aggressor rows, in hammering order.
    pub fn aggressors(&self) -> &[RowId] {
        &self.aggressors
    }
}

impl Workload for NSidedAttack {
    fn name(&self) -> String {
        format!("{}-sided", self.aggressors.len())
    }

    fn next_access(&mut self) -> Access {
        let row = self.aggressors[self.position % self.aggressors.len()];
        self.position += 1;
        Access { bank: 0, row, gap: 0, stream: 0 }
    }
}

/// A many-sided pattern striped across every bank of the system.
///
/// Each bank gets its own [`NSidedAttack`] lane around a bank-specific
/// victim (victims are offset so the aggressor windows never overlap
/// modulo the bank). Accesses round-robin over the banks, so under a
/// bank- or channel-interleaved mapping the hammer pressure lands on
/// every channel at once — the full-system analogue of TRRespass-style
/// many-sided hammering.
///
/// # Example
///
/// ```
/// use workloads::{StripedNSided, Workload};
///
/// let mut atk = StripedNSided::new(100, 4, 8, 65_536);
/// let a = atk.next_access();
/// assert_eq!(a.bank, 0);
/// assert_eq!(atk.next_access().bank, 1);
/// ```
#[derive(Debug, Clone)]
pub struct StripedNSided {
    lanes: Vec<NSidedAttack>,
    position: usize,
}

impl StripedNSided {
    /// `sides` aggressors per bank, striped over `banks` banks, with the
    /// first bank's victim at `victim`.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`, `sides == 0`, or any lane's victim falls
    /// outside the bank.
    pub fn new(victim: u32, sides: u32, banks: u16, rows_per_bank: u32) -> Self {
        assert!(banks > 0, "need at least one bank");
        // Offset each lane past the previous lane's aggressor window so
        // no two banks share a victim row index.
        let stride = 2 * sides + 3;
        let lanes = (0..banks as u32)
            .map(|b| NSidedAttack::new((victim + b * stride) % rows_per_bank, sides, rows_per_bank))
            .collect();
        StripedNSided { lanes, position: 0 }
    }

    /// The per-bank attack lanes, indexed by bank.
    pub fn lanes(&self) -> &[NSidedAttack] {
        &self.lanes
    }
}

impl Workload for StripedNSided {
    fn name(&self) -> String {
        format!("striped-{}x{}-sided", self.lanes.len(), self.lanes[0].aggressors().len())
    }

    fn next_access(&mut self) -> Access {
        let lane = self.position % self.lanes.len();
        self.position += 1;
        let mut a = self.lanes[lane].next_access();
        a.bank = lane as u16;
        a
    }
}

/// The ABACuS-style same-row-all-banks pattern: hammer the *same* row
/// index in every bank of the system simultaneously.
///
/// A full sweep touches row `victim − 1` in banks `0..banks`, the next
/// sweep row `victim + 1`, and so on — double-sided pressure whose
/// per-bank ACT counts are perfectly correlated across the whole system.
/// Defenses that track per-bank see `1/banks` of the total ACT rate;
/// anything keyed on the global row index sees all of it.
///
/// # Example
///
/// ```
/// use workloads::{SameRowAllBanks, Workload};
///
/// let mut atk = SameRowAllBanks::new(100, 4, 65_536);
/// let first: Vec<_> = (0..4).map(|_| atk.next_access()).collect();
/// assert!(first.iter().all(|a| a.row.0 == 99));
/// assert_eq!(first.iter().map(|a| a.bank).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SameRowAllBanks {
    aggressors: [RowId; 2],
    banks: u16,
    position: usize,
}

impl SameRowAllBanks {
    /// Double-sided aggressors around `victim`, swept across `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `victim ± 1` falls outside the bank.
    pub fn new(victim: u32, banks: u16, rows_per_bank: u32) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(victim >= 1 && victim + 1 < rows_per_bank, "victim too close to bank edge");
        SameRowAllBanks { aggressors: [RowId(victim - 1), RowId(victim + 1)], banks, position: 0 }
    }

    /// The shared victim row index hammered in every bank.
    pub fn victim(&self) -> RowId {
        RowId(self.aggressors[0].0 + 1)
    }
}

impl Workload for SameRowAllBanks {
    fn name(&self) -> String {
        format!("same-row-{}banks", self.banks)
    }

    fn next_access(&mut self) -> Access {
        // `position % banks` is bounded by the u16 bank count; the checked
        // conversion documents that invariant instead of narrowing silently.
        let bank = u16::try_from(self.position % self.banks as usize)
            .expect("modulo a u16 bank count fits u16");
        let sweep = self.position / self.banks as usize;
        self.position += 1;
        Access { bank, row: self.aggressors[sweep % 2], gap: 0, stream: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_sided_sandwiches_victim() {
        let atk = NSidedAttack::new(500, 2, 65_536);
        assert_eq!(atk.aggressors(), &[RowId(499), RowId(501)]);
        assert_eq!(atk.victim(), RowId(500));
    }

    #[test]
    fn many_sided_uses_odd_offsets() {
        let atk = NSidedAttack::new(500, 6, 65_536);
        assert_eq!(
            atk.aggressors(),
            &[RowId(499), RowId(501), RowId(497), RowId(503), RowId(495), RowId(505)]
        );
        // All aggressors are odd-distance from the victim.
        for a in atk.aggressors() {
            assert_eq!(a.0.abs_diff(500) % 2, 1);
        }
    }

    #[test]
    fn clips_at_bank_start() {
        let atk = NSidedAttack::new(1, 4, 65_536);
        // d=1: rows 0 and 2; d=3: only row 4 (1-3 underflows); d=5: row 6.
        assert_eq!(atk.aggressors(), &[RowId(0), RowId(2), RowId(4), RowId(6)]);
    }

    #[test]
    fn rotation_is_fair() {
        let mut atk = NSidedAttack::new(100, 4, 65_536);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..400 {
            *counts.entry(atk.next_access().row).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c == 100));
    }

    #[test]
    fn name_reflects_sides() {
        assert_eq!(NSidedAttack::new(9, 8, 65_536).name(), "8-sided");
    }

    #[test]
    #[should_panic(expected = "victim outside bank")]
    fn victim_out_of_bank_panics() {
        let _ = NSidedAttack::new(100, 2, 50);
    }

    #[test]
    fn striped_covers_every_bank_fairly() {
        let mut atk = StripedNSided::new(200, 4, 16, 65_536);
        let mut per_bank = [0u32; 16];
        for _ in 0..16 * 40 {
            per_bank[atk.next_access().bank as usize] += 1;
        }
        assert!(per_bank.iter().all(|&c| c == 40));
    }

    #[test]
    fn striped_lanes_have_disjoint_victims() {
        let atk = StripedNSided::new(300, 6, 16, 65_536);
        let victims: std::collections::HashSet<_> =
            atk.lanes().iter().map(|l| l.victim()).collect();
        assert_eq!(victims.len(), 16, "each bank must have its own victim");
        // No lane's aggressors reach into a neighbouring lane's window.
        for pair in atk.lanes().windows(2) {
            let hi = pair[0].aggressors().iter().map(|r| r.0).max().unwrap();
            let lo = pair[1].aggressors().iter().map(|r| r.0).min().unwrap();
            assert!(hi < lo, "aggressor windows overlap: {hi} >= {lo}");
        }
    }

    #[test]
    fn striped_name_reflects_shape() {
        assert_eq!(StripedNSided::new(100, 4, 8, 65_536).name(), "striped-8x4-sided");
    }

    #[test]
    fn same_row_sweeps_banks_then_alternates_sides() {
        let mut atk = SameRowAllBanks::new(100, 4, 65_536);
        let sweep1: Vec<_> = (0..4).map(|_| atk.next_access()).collect();
        let sweep2: Vec<_> = (0..4).map(|_| atk.next_access()).collect();
        assert!(sweep1.iter().all(|a| a.row == RowId(99)));
        assert!(sweep2.iter().all(|a| a.row == RowId(101)));
        assert_eq!(sweep2.iter().map(|a| a.bank).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(atk.victim(), RowId(100));
    }

    #[test]
    fn same_row_name_reflects_banks() {
        assert_eq!(SameRowAllBanks::new(5, 64, 65_536).name(), "same-row-64banks");
    }

    #[test]
    #[should_panic(expected = "victim too close to bank edge")]
    fn same_row_rejects_edge_victim() {
        let _ = SameRowAllBanks::new(0, 4, 65_536);
    }
}
