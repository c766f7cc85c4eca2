//! The access-stream abstraction shared by all generators.

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

/// One memory access as the DRAM bank sees it: which bank, which row, and
/// how long after the previous access it arrives.
///
/// `gap = 0` models a saturating stream (an attacker activating as fast as
/// tRC allows — the controller enforces the actual timing); larger gaps model
/// the think time of realistic workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Flattened bank index in the simulated system.
    pub bank: u16,
    /// Row within the bank.
    pub row: RowId,
    /// Arrival gap after the previous access of this stream (ps).
    pub gap: Picoseconds,
    /// Originating stream (core) id — [`crate::mix::Interleaved`] stamps the
    /// source index here so the simulator can compute per-core latency and
    /// the paper's weighted-speedup metric. Single-stream generators use 0.
    pub stream: u16,
}

impl Access {
    /// Convenience constructor for single-stream (stream 0) generators.
    pub fn new(bank: u16, row: RowId, gap: Picoseconds) -> Self {
        Access { bank, row, gap, stream: 0 }
    }
}

/// An infinite access stream.
///
/// Generators are deterministic for a fixed seed so experiments are exactly
/// reproducible.
pub trait Workload {
    /// Short name for reports (e.g. `"S1-10"`, `"mcf-like"`).
    fn name(&self) -> String;

    /// Produces the next access.
    fn next_access(&mut self) -> Access;

    /// Convenience: materializes the next `n` accesses.
    fn take_accesses(&mut self, n: usize) -> Vec<Access>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_access()).collect()
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn next_access(&mut self) -> Access {
        (**self).next_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl Workload for Fixed {
        fn name(&self) -> String {
            "fixed".to_owned()
        }
        fn next_access(&mut self) -> Access {
            Access { bank: 0, row: RowId(1), gap: 0, stream: 0 }
        }
    }

    #[test]
    fn take_accesses_materializes() {
        let mut w = Fixed;
        assert_eq!(w.take_accesses(3).len(), 3);
    }

    #[test]
    fn boxed_workload_delegates() {
        let mut w: Box<dyn Workload> = Box::new(Fixed);
        assert_eq!(w.name(), "fixed");
        assert_eq!(w.next_access().row, RowId(1));
    }
}
