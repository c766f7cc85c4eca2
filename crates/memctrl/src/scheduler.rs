//! Request scheduling: FR-FCFS with PAR-BS-style batching.
//!
//! The paper's simulated controller uses PAR-BS scheduling (Table III). The
//! essential behaviours it contributes to this evaluation are (1) row-hit
//! reordering, which sets the baseline row-buffer locality the page policy
//! sees, and (2) batch-bounded fairness, which prevents one stream's row
//! hits from starving another indefinitely. This module implements both at
//! the bank level:
//!
//! * requests enter a per-bank queue stamped with their arrival time;
//! * the scheduler forms a *batch* of the `batch_size` oldest requests;
//! * within the batch, requests hitting the currently open row are served
//!   first (FR); ties and non-hits go in arrival order (FCFS);
//! * a new batch forms only when the current batch drains — the marking
//!   mechanism of PAR-BS collapsed to a single bank.

use std::collections::VecDeque;

use dram_model::geometry::RowId;
use dram_model::timing::Picoseconds;

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum requests per batch (PAR-BS "marking cap"). 1 = plain FCFS.
    pub batch_size: usize,
    /// Queue capacity per bank; arrivals beyond it apply back-pressure in
    /// the driving loop.
    pub queue_depth: usize,
}

impl SchedulerConfig {
    /// The paper-like default: batches of 8, 32-deep queues.
    pub fn par_bs_like() -> Self {
        SchedulerConfig { batch_size: 8, queue_depth: 32 }
    }

    /// Degenerates to first-come-first-served.
    pub fn fcfs() -> Self {
        SchedulerConfig { batch_size: 1, queue_depth: 32 }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::par_bs_like()
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Target row.
    pub row: RowId,
    /// Arrival time at the controller (ps).
    pub arrival: Picoseconds,
    /// Originating stream (core) id.
    pub stream: u16,
}

/// Per-bank request queue with batched FR-FCFS selection.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use memctrl::scheduler::{BankQueue, SchedulerConfig};
///
/// let mut q = BankQueue::new(SchedulerConfig::par_bs_like());
/// q.push(RowId(1), 0, 0).unwrap();
/// q.push(RowId(2), 10, 0).unwrap();
/// q.push(RowId(1), 20, 0).unwrap();
/// // With row 1 open, the second row-1 request is served before row 2.
/// assert_eq!(q.pop_next(Some(RowId(1))).unwrap().row, RowId(1));
/// assert_eq!(q.pop_next(Some(RowId(1))).unwrap().row, RowId(1));
/// assert_eq!(q.pop_next(Some(RowId(1))).unwrap().row, RowId(2));
/// ```
#[derive(Debug, Clone)]
pub struct BankQueue {
    config: SchedulerConfig,
    queue: VecDeque<QueuedRequest>,
    /// Requests remaining in the current batch (indices are logical: the
    /// batch is always the first `batch_left` queue slots' *original* set,
    /// tracked by count since served requests are removed).
    batch_left: usize,
    /// Scheduling decisions that reordered past an older request.
    reorders: u64,
}

impl BankQueue {
    /// An empty queue.
    ///
    /// # Panics
    ///
    /// Panics on a config that cannot form batches. Runs driven through
    /// [`MemoryController::try_run_queued`](crate::MemoryController::try_run_queued)
    /// surface this as [`McError::InvalidScheduler`](crate::McError) instead
    /// — these asserts only fire on direct construction.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.batch_size >= 1, "batch size must be at least 1");
        assert!(config.queue_depth >= config.batch_size, "queue must hold a batch");
        BankQueue { config, queue: VecDeque::new(), batch_left: 0, reorders: 0 }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when another arrival would exceed the configured depth.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.queue_depth
    }

    /// Times the scheduler served a younger row-hit over an older request.
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full (caller applies
    /// back-pressure).
    pub fn push(
        &mut self,
        row: RowId,
        arrival: Picoseconds,
        stream: u16,
    ) -> Result<(), QueuedRequest> {
        let req = QueuedRequest { row, arrival, stream };
        if self.is_full() {
            return Err(req);
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Picks and removes the next request to serve given the bank's open
    /// row, or `None` if the queue is empty.
    pub fn pop_next(&mut self, open_row: Option<RowId>) -> Option<QueuedRequest> {
        if self.queue.is_empty() {
            return None;
        }
        if self.batch_left == 0 {
            self.batch_left = self.queue.len().min(self.config.batch_size);
        }
        let window = self.batch_left.min(self.queue.len());
        // First-ready: oldest row-hit within the batch window.
        let pick =
            open_row.and_then(|open| (0..window).find(|&i| self.queue[i].row == open)).unwrap_or(0);
        if pick > 0 {
            self.reorders += 1;
        }
        self.batch_left -= 1;
        self.queue.remove(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_rows(q: &mut BankQueue, open: Option<RowId>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(r) = q.pop_next(open) {
            out.push(r.row.0);
        }
        out
    }

    #[test]
    fn fcfs_config_preserves_arrival_order() {
        let mut q = BankQueue::new(SchedulerConfig::fcfs());
        for (i, row) in [5u32, 1, 5, 2].iter().enumerate() {
            q.push(RowId(*row), i as u64, 0).unwrap();
        }
        assert_eq!(req_rows(&mut q, Some(RowId(5))), vec![5, 1, 5, 2]);
        assert_eq!(q.reorders(), 0);
    }

    #[test]
    fn row_hits_jump_ahead_within_batch() {
        let mut q = BankQueue::new(SchedulerConfig { batch_size: 4, queue_depth: 8 });
        for (i, row) in [1u32, 2, 3, 2].iter().enumerate() {
            q.push(RowId(*row), i as u64, 0).unwrap();
        }
        // Open row 2: both row-2 requests served before rows 1 and 3.
        assert_eq!(req_rows(&mut q, Some(RowId(2))), vec![2, 2, 1, 3]);
    }

    #[test]
    fn batch_boundary_limits_starvation() {
        // batch_size 2: a stream of row-9 hits cannot starve the old row-1
        // request beyond its batch.
        let mut q = BankQueue::new(SchedulerConfig { batch_size: 2, queue_depth: 16 });
        q.push(RowId(1), 0, 0).unwrap();
        for i in 1..6u64 {
            q.push(RowId(9), i, 0).unwrap();
        }
        let first_batch =
            [q.pop_next(Some(RowId(9))).unwrap(), q.pop_next(Some(RowId(9))).unwrap()];
        // Batch = {row1, row9}: the hit goes first, but row 1 drains before
        // any request of the next batch.
        assert_eq!(first_batch[0].row, RowId(9));
        assert_eq!(first_batch[1].row, RowId(1));
    }

    #[test]
    fn backpressure_when_full() {
        let mut q = BankQueue::new(SchedulerConfig { batch_size: 1, queue_depth: 2 });
        q.push(RowId(1), 0, 0).unwrap();
        q.push(RowId(2), 1, 0).unwrap();
        let rejected = q.push(RowId(3), 2, 0).unwrap_err();
        assert_eq!(rejected.row, RowId(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = BankQueue::new(SchedulerConfig::default());
        assert!(q.pop_next(None).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn reorders_counted() {
        let mut q = BankQueue::new(SchedulerConfig { batch_size: 4, queue_depth: 8 });
        q.push(RowId(1), 0, 0).unwrap();
        q.push(RowId(7), 1, 0).unwrap();
        q.pop_next(Some(RowId(7))).unwrap();
        assert_eq!(q.reorders(), 1);
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_rejected() {
        let _ = BankQueue::new(SchedulerConfig { batch_size: 0, queue_depth: 4 });
    }
}
