//! Combining per-core streams into one system trace.
//!
//! The paper's setup runs 16 cores against 4 channels × 16 banks. Each core
//! produces its own stream; [`Interleaved`] merges them by next-arrival
//! order (each stream keeps its own clock, advanced by its accesses' gaps),
//! which is how concurrent cores interleave at the controller. [`BankShift`]
//! relocates a single-bank stream (like the S1–S4 attacks) onto another bank.

use dram_model::timing::Picoseconds;

use crate::stream::{Access, Workload};

/// Merges streams by earliest next arrival (a k-way merge on stream clocks).
pub struct Interleaved {
    streams: Vec<Box<dyn Workload + Send>>,
    /// Next pending access and its absolute arrival time, per stream.
    pending: Vec<(Picoseconds, Access)>,
    /// Arrival time of the access most recently emitted.
    last_emitted: Picoseconds,
    name: String,
}

impl std::fmt::Debug for Interleaved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaved")
            .field("name", &self.name)
            .field("streams", &self.streams.len())
            .finish()
    }
}

impl Interleaved {
    /// Merges the given streams.
    ///
    /// # Panics
    ///
    /// Panics if no streams are provided.
    pub fn new(mut streams: Vec<Box<dyn Workload + Send>>) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        let name =
            format!("mix[{}]", streams.iter().map(|s| s.name()).collect::<Vec<_>>().join("+"));
        let pending = streams
            .iter_mut()
            .map(|s| {
                let a = s.next_access();
                (a.gap, a)
            })
            .collect();
        Interleaved { streams, pending, last_emitted: 0, name }
    }
}

impl Workload for Interleaved {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn next_access(&mut self) -> Access {
        // Pick the stream whose pending access arrives first.
        let (idx, &(at, access)) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(t, _))| t)
            .expect("at least one stream");
        // Refill that stream's pending slot.
        let next = self.streams[idx].next_access();
        self.pending[idx] = (at + next.gap, next);
        // Emit with the gap relative to the previous emission, stamped with
        // the source (core) index for per-stream accounting.
        let gap = at.saturating_sub(self.last_emitted);
        self.last_emitted = at;
        Access { gap, stream: idx as u16, ..access }
    }
}

/// Relocates a stream's accesses onto a different bank.
#[derive(Debug)]
pub struct BankShift<W> {
    inner: W,
    bank: u16,
}

impl<W: Workload> BankShift<W> {
    /// Forces every access of `inner` onto `bank`.
    pub fn new(inner: W, bank: u16) -> Self {
        BankShift { inner, bank }
    }
}

impl<W: Workload> Workload for BankShift<W> {
    fn name(&self) -> String {
        format!("{}@bank{}", self.inner.name(), self.bank)
    }

    fn next_access(&mut self) -> Access {
        Access { bank: self.bank, ..self.inner.next_access() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Synthetic;
    use dram_model::geometry::RowId;

    struct Ticker {
        gap: Picoseconds,
        row: u32,
    }
    impl Workload for Ticker {
        fn name(&self) -> String {
            format!("tick{}", self.gap)
        }
        fn next_access(&mut self) -> Access {
            Access { bank: 0, row: RowId(self.row), gap: self.gap, stream: 0 }
        }
    }

    #[test]
    fn merge_orders_by_arrival_time() {
        // Stream A arrives every 10 ps, stream B every 25 ps: the merge must
        // emit A,A,B,A,A,B,… (with ties broken deterministically).
        let mut m = Interleaved::new(vec![
            Box::new(Ticker { gap: 10, row: 1 }),
            Box::new(Ticker { gap: 25, row: 2 }),
        ]);
        let rows: Vec<u32> = (0..8).map(|_| m.next_access().row.0).collect();
        let a_count = rows.iter().filter(|&&r| r == 1).count();
        // In 8 emissions spanning ~55 ps: A ≈ 5-6, B ≈ 2-3.
        assert!(a_count >= 5, "rows {rows:?}");
    }

    #[test]
    fn merged_gaps_reconstruct_arrivals() {
        let mut m = Interleaved::new(vec![
            Box::new(Ticker { gap: 10, row: 1 }),
            Box::new(Ticker { gap: 25, row: 2 }),
        ]);
        let mut clock = 0u64;
        let mut arrivals = Vec::new();
        for _ in 0..10 {
            let a = m.next_access();
            clock += a.gap;
            arrivals.push(clock);
        }
        // Arrival times must be non-decreasing and match the union of the
        // two streams' schedules (10,20,25,30,40,50,50,60,70,75 …).
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(arrivals[0], 10);
        assert!(arrivals.contains(&25));
    }

    #[test]
    fn bank_shift_relocates() {
        let mut w = BankShift::new(Synthetic::s3(4096, 1), 7);
        for _ in 0..10 {
            assert_eq!(w.next_access().bank, 7);
        }
        assert!(w.name().contains("@bank7"));
    }

    #[test]
    fn merge_of_saturating_streams_emits_zero_gaps() {
        let mut m = Interleaved::new(vec![
            Box::new(Synthetic::s3(4096, 1)),
            Box::new(Synthetic::s3(4096, 2)),
        ]);
        for _ in 0..10 {
            assert_eq!(m.next_access().gap, 0);
        }
    }

    #[test]
    fn name_lists_components() {
        let m = Interleaved::new(vec![
            Box::new(Synthetic::s3(4096, 1)),
            Box::new(Synthetic::s1(10, 4096, 2)),
        ]);
        assert_eq!(m.name(), "mix[S3+S1-10]");
        assert_eq!(m.streams.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_merge_panics() {
        let _ = Interleaved::new(Vec::new());
    }
}
