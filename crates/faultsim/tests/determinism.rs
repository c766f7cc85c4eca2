//! FaultPlan determinism properties.
//!
//! The resilience matrix is only bit-reproducible if the plan itself is: the
//! same seed must yield the same schedule no matter how many threads generate
//! it or how the access stream is chunked into batches when it is consumed.

use faultsim::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::thread;

fn spec_for(seed: u64, scale: u32) -> FaultSpec {
    FaultSpec {
        bit_flips: 4 + scale % 13,
        lookup_misses: scale % 5,
        nrr_drops: scale % 7,
        nrr_defers: scale % 3,
        refresh_postpones: scale % 4,
        duplicates: scale % 6,
        ..FaultSpec::new(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed, many threads: every concurrently generated plan equals
    /// the reference, event for event.
    #[test]
    fn same_seed_bit_identical_across_threads(seed in any::<u64>(), scale in 0u32..64) {
        let spec = spec_for(seed, scale);
        let reference = FaultPlan::generate(&spec);
        let handles: Vec<_> = (0..4)
            .map(|_| thread::spawn(move || FaultPlan::generate(&spec)))
            .collect();
        for h in handles {
            prop_assert_eq!(&h.join().unwrap(), &reference);
        }
    }

    /// Chunking the access stream into different batch sizes never changes
    /// which events a cursor delivers, only how they are grouped: the
    /// flattened delivery order is identical for every batch size.
    #[test]
    fn cursor_delivery_independent_of_batch_size(
        seed in any::<u64>(),
        scale in 0u32..64,
        batch in 1u64..512,
    ) {
        let spec = spec_for(seed, scale);
        let plan = FaultPlan::generate(&spec);
        let mut by_one = plan.cursor();
        let mut reference = Vec::new();
        for access in 0..spec.accesses {
            reference.extend_from_slice(by_one.take_due(access));
        }
        let mut by_batch = plan.cursor();
        let mut chunked = Vec::new();
        let mut access = batch - 1;
        loop {
            let last = access.min(spec.accesses - 1);
            chunked.extend_from_slice(by_batch.take_due(last));
            if last == spec.accesses - 1 {
                break;
            }
            access += batch;
        }
        prop_assert_eq!(chunked, reference);
    }
}
