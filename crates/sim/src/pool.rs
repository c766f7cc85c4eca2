//! One ordered parallel map (std-only).
//!
//! [`map`] applies a function to every item of a slice on
//! `std::thread::scope` threads, as many as the host has cores but never
//! more than there are items. Each thread claims the next unclaimed index
//! from one shared counter, so a slow item never holds back the rest, and
//! the results come back in item order whichever thread ran them. Every
//! sweep in the crate fans its groups or cells out through it: the arena
//! and the generation matrix one item per group, [`crate::try_run_matrix`]
//! one per baseline and then one per cell, and the resilience matrix one
//! per cell.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item in parallel and returns the results in item
/// order.
///
/// # Panics
///
/// Every item runs even when some panic. Once all have finished, the panic
/// of the lowest-index panicking item is re-raised on the calling thread.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(4, usize::from).min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // travel through the slots' mutexes and the scope's join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                *slots[i].lock().expect("a slot is only locked to store its result") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is only locked to store its result")
                .expect("every index is claimed before the threads exit")
        })
        .collect::<std::thread::Result<Vec<R>>>()
        .unwrap_or_else(|payload| resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_item_order() {
        // One item per thread: the barrier holds every thread on its first
        // item until all have claimed one, so no thread runs two.
        let n = std::thread::available_parallelism().map_or(1, usize::from).min(4);
        let barrier = Barrier::new(n);
        let items: Vec<usize> = (0..n).collect();
        let out = map(&items, |&i| {
            barrier.wait();
            i * 10
        });
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());

        // Many items per thread.
        let items: Vec<u64> = (0..1_000).collect();
        let out = map(&items, |&i| i * i);
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_does_not_stop_the_others_and_the_lowest_index_panic_wins() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..20).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&items, |&i| match i {
                13 => panic!("boom in item 13"),
                7 => panic!("boom in item 7"),
                _ => {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        let payload = result.expect_err("an item's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in item 7"));
        assert_eq!(hits.load(Ordering::SeqCst), 18, "every other item must run");
    }

    #[test]
    fn an_empty_slice_maps_to_nothing() {
        let out: Vec<u32> = map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }
}
