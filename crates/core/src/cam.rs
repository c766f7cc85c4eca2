//! CAM access accounting.
//!
//! Graphene's table is implemented with two content-addressable memories
//! (Figure 4): an Address CAM and a Count CAM. Each ACT performs, per the
//! pseudo-code in Figure 5:
//!
//! * one Address-CAM **search** (hit check);
//! * on a miss, one Count-CAM **search** (spillover-match check);
//! * on a hit, one Count-CAM **write** (increment);
//! * on a replacement, one Address-CAM write and one Count-CAM write, which
//!   the hardware performs simultaneously — the critical path is three
//!   sequential CAM operations (two searches and one write).
//!
//! The per-operation counts gathered here feed the energy model in
//! `rh-analysis` (the paper's Table V expresses Graphene's dynamic energy
//! per ACT; this breakdown lets the model scale to other access mixes).

/// Counters of CAM operations performed by a Graphene table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CamStats {
    /// Address-CAM searches (one per ACT).
    pub addr_searches: u64,
    /// Address-CAM writes (one per entry replacement).
    pub addr_writes: u64,
    /// Count-CAM searches (one per table miss).
    pub count_searches: u64,
    /// Count-CAM writes (increments and replacements).
    pub count_writes: u64,
    /// Spillover-register increments.
    pub spillover_increments: u64,
}

impl CamStats {
    /// Worst-case sequential CAM operations of a single table update — the
    /// critical path the paper reports as "three sequential CAM operations
    /// (two searches and one write)".
    pub const CRITICAL_PATH_OPS: u32 = 3;

    /// Merges another stats block into this one (for aggregating banks).
    pub fn merge(&mut self, other: &CamStats) {
        self.addr_searches += other.addr_searches;
        self.addr_writes += other.addr_writes;
        self.count_searches += other.count_searches;
        self.count_writes += other.count_writes;
        self.spillover_increments += other.spillover_increments;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = CamStats { addr_searches: 1, ..CamStats::default() };
        let b = CamStats { addr_searches: 2, count_writes: 7, ..CamStats::default() };
        a.merge(&b);
        assert_eq!(a.addr_searches, 3);
        assert_eq!(a.count_writes, 7);
    }

    #[test]
    fn critical_path_matches_paper() {
        assert_eq!(CamStats::CRITICAL_PATH_OPS, 3);
    }
}
