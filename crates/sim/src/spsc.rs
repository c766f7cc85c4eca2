//! A bounded single-producer single-consumer ring buffer (std-only).
//!
//! The streaming sharded runner ([`crate::run_system_sharded`]) pipes
//! per-channel batches of stamped accesses from the routing thread to
//! whichever thread runs that channel's shard next, through one of these
//! per channel. The requirements are narrow — one producer, one consumer,
//! bounded capacity, no allocation per transfer, no external crates — so
//! the implementation is the classic two-counter ring: free-running
//! head/tail indices over a power-of-two slot array, `Release`/`Acquire`
//! pairs ordering the slot writes against the index publications.
//!
//! Single-producer/single-consumer is enforced at compile time:
//! [`SpscQueue::split`] hands out exactly one [`Producer`] and one
//! [`Consumer`], neither of which is `Clone`, and the `&mut` borrow it
//! takes pins the queue until both halves are gone. A half may move
//! between threads; the pipeline keeps each consumer behind its lane's
//! mutex, which orders one thread's pops before the next thread's.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The shared ring. Owns the slots; the [`Producer`]/[`Consumer`] halves
/// returned by [`split`](Self::split) borrow it from the owning frame —
/// scoped-thread-friendly, no `Arc` required.
pub struct SpscQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to pop (written by the consumer only).
    head: AtomicUsize,
    /// Next slot to push (written by the producer only).
    tail: AtomicUsize,
    /// Producer dropped: once the ring drains, the stream is over.
    closed: AtomicBool,
}

// Safety: the queue hands out at most one producer and one consumer, and
// every slot is transferred with a Release store of `tail` (producer) that
// the consumer's Acquire load of `tail` synchronizes with (and vice versa
// for `head` when a slot is recycled), so no slot is ever accessed from two
// threads at once.
unsafe impl<T: Send> Sync for SpscQueue<T> {}

/// A requested ring capacity that cannot be rounded up to a power of two
/// without overflowing `usize` (anything above 2⁶³ on 64-bit hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityTooLarge {
    /// The capacity the caller asked for.
    pub requested: usize,
}

impl std::fmt::Display for CapacityTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue capacity {} exceeds the largest power-of-two ring ({})",
            self.requested,
            1usize << (usize::BITS - 1)
        )
    }
}

impl std::error::Error for CapacityTooLarge {}

impl<T> SpscQueue<T> {
    /// A ring holding at least `capacity` items (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the round-up overflows
    /// ([`CapacityTooLarge`]); use [`try_new`](Self::try_new) to handle the
    /// limit as an error.
    pub fn new(capacity: usize) -> Self {
        Self::try_new(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`new`](Self::new), surfacing an un-roundable capacity as an
    /// error. `next_power_of_two()` on a request above 2⁶³ panics in debug
    /// and wraps to 0 in release — which would make `mask` wrap to
    /// `usize::MAX` and index far outside the slot array — so the round-up
    /// is checked before anything is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityTooLarge`] when `capacity` exceeds the largest
    /// representable power of two.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn try_new(capacity: usize) -> Result<Self, CapacityTooLarge> {
        assert!(capacity > 0, "queue needs room for at least one item");
        let cap =
            capacity.checked_next_power_of_two().ok_or(CapacityTooLarge { requested: capacity })?;
        Ok(SpscQueue {
            slots: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// The rounded-up capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Splits into the producer and consumer halves. The exclusive borrow
    /// guarantees this can only happen once at a time, and the non-`Clone`
    /// halves guarantee one producer and one consumer.
    pub fn split(&mut self) -> (Producer<'_, T>, Consumer<'_, T>) {
        (Producer { queue: self }, Consumer { queue: self })
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Drop anything pushed but never popped.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The push half. Dropping it closes the queue — the consumer drains what
/// remains and then observes end-of-stream.
pub struct Producer<'q, T> {
    queue: &'q SpscQueue<T>,
}

impl<T> Producer<'_, T> {
    /// Attempts to enqueue `item`; hands it back if the ring is full.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        let tail = self.queue.tail.load(Ordering::Relaxed);
        let head = self.queue.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.queue.slots.len() {
            return Err(item);
        }
        unsafe { (*self.queue.slots[tail & self.queue.mask].get()).write(item) };
        self.queue.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

impl<T> Drop for Producer<'_, T> {
    fn drop(&mut self) {
        // Release-ordered after all pushes: a consumer that Acquire-loads
        // `closed == true` sees every item that preceded the close.
        self.queue.closed.store(true, Ordering::Release);
    }
}

/// The pop half.
pub struct Consumer<'q, T> {
    queue: &'q SpscQueue<T>,
}

impl<T> Consumer<'_, T> {
    /// Dequeues the oldest item, or `None` when the ring is currently
    /// empty (which does not mean the stream ended — see
    /// [`is_closed`](Self::is_closed)).
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.queue.head.load(Ordering::Relaxed);
        let tail = self.queue.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let item = unsafe { (*self.queue.slots[head & self.queue.mask].get()).assume_init_read() };
        self.queue.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// True once the producer is gone. Check **before** a failed
    /// [`try_pop`](Self::try_pop): if the queue was already closed when the
    /// pop came up empty, every item has been consumed and the stream is
    /// over. (Checking after instead would race with pushes that landed
    /// between the pop and the check.)
    pub fn is_closed(&self) -> bool {
        self.queue.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let mut q = SpscQueue::new(4);
        let (mut tx, mut rx) = q.split();
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.try_push(99).is_err(), "ring of 4 must reject the 5th");
        assert_eq!((0..4).map(|_| rx.try_pop().unwrap()).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let q = SpscQueue::<u32>::new(5);
        assert_eq!(q.capacity(), 8);
    }

    #[test]
    fn oversized_capacity_is_a_typed_error_not_a_wrap() {
        // Regression: `next_power_of_two()` on a request above 2^63 panics
        // in debug and wraps to 0 in release, wrapping `mask` to
        // usize::MAX. The checked round-up reports the limit instead
        // (before allocating anything).
        for requested in [usize::MAX, (1usize << (usize::BITS - 1)) + 1] {
            let err = SpscQueue::<u8>::try_new(requested).err().expect("must hit the limit");
            assert_eq!(err, CapacityTooLarge { requested });
            assert!(err.to_string().contains("exceeds"));
        }
        // The largest power of two itself needs no rounding — accepted by
        // the checked path (constructing it would allocate 2^63 slots, so
        // only the boundary arithmetic of the round-up is what's pinned
        // here, via the value one past it above).
        assert!(SpscQueue::<u8>::try_new(64).is_ok());
    }

    #[test]
    fn close_is_observed_after_drain() {
        let mut q = SpscQueue::new(2);
        let (mut tx, mut rx) = q.split();
        tx.try_push(7).unwrap();
        assert!(!rx.is_closed());
        drop(tx);
        // Closed, but the buffered item must still come out first.
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), Some(7));
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn unconsumed_items_are_dropped_with_the_queue() {
        use std::rc::Rc;
        let probe = Rc::new(());
        {
            let mut q = SpscQueue::new(4);
            let (mut tx, _rx) = q.split();
            tx.try_push(Rc::clone(&probe)).unwrap();
            tx.try_push(Rc::clone(&probe)).unwrap();
        }
        assert_eq!(Rc::strong_count(&probe), 1, "queue drop must release its items");
    }

    #[test]
    fn cross_thread_stream_arrives_in_order() {
        let mut q = SpscQueue::new(8);
        let (mut tx, mut rx) = q.split();
        const N: u64 = 50_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    let mut item = i;
                    while let Err(back) = tx.try_push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut expected = 0;
            loop {
                let closed = rx.is_closed();
                if let Some(v) = rx.try_pop() {
                    assert_eq!(v, expected);
                    expected += 1;
                } else if closed {
                    break;
                } else {
                    std::hint::spin_loop();
                }
            }
            assert_eq!(expected, N);
        });
    }
}
