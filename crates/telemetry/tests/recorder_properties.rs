//! Property tests of the recorder and snapshot contracts:
//!
//! * any interleaving of sink calls yields monotone per-series timestamps;
//! * JSONL export round-trips (`export → parse → same snapshot`).

use proptest::prelude::*;
use telemetry::{MetricsSink, Recorder, Snapshot};

/// Static name pool: sink metric names are `&'static str` by design.
const NAMES: [&str; 4] = ["graphene.spillover", "defense.acts", "mc.refreshes", "mc.acts"];

/// One encoded sink call: ((op selector, name selector), (bank, time, value)).
/// Nested because the offline proptest stub supports tuples up to arity 4.
type Op = ((u8, u8), (u16, u64, u32));

fn apply(r: &mut Recorder, &((op, name), (bank, t, value)): &Op) {
    let name = NAMES[name as usize % NAMES.len()];
    match op % 4 {
        0 => r.counter(name, u64::from(value)),
        1 => r.gauge(name, f64::from(value) / 16.0),
        2 => r.observe(name, f64::from(value) / 16.0),
        _ => r.sample(name, bank % 4, t, f64::from(value)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timestamps within every (series, bank) ring are non-decreasing no
    /// matter how producers interleave, jump backwards, or overflow the
    /// ring.
    #[test]
    fn series_timestamps_are_monotone(
        ops in prop::collection::vec(
            ((any::<u8>(), any::<u8>()), (any::<u16>(), 0u64..1_000_000, any::<u32>())),
            1..400,
        ),
    ) {
        let mut r = Recorder::with_ring_capacity(32);
        for op in &ops {
            apply(&mut r, op);
        }
        let snap = r.snapshot("prop");
        for s in &snap.series {
            for pair in s.samples.windows(2) {
                prop_assert!(
                    pair[0].t_ps <= pair[1].t_ps,
                    "series {}@{} went backwards: {} then {}",
                    s.metric, s.bank, pair[0].t_ps, pair[1].t_ps
                );
            }
        }
    }

    /// A snapshot survives `to_jsonl → parse_jsonl` bit-exactly: every
    /// counter, gauge, histogram summary, and series (timestamps, values,
    /// drop counts) compares equal.
    #[test]
    fn jsonl_round_trips_exactly(
        ops in prop::collection::vec(
            ((any::<u8>(), any::<u8>()), (any::<u16>(), 0u64..1_000_000, any::<u32>())),
            0..400,
        ),
    ) {
        let mut r = Recorder::with_ring_capacity(32);
        for op in &ops {
            apply(&mut r, op);
        }
        let snap = r.snapshot("prop-roundtrip");
        let parsed = Snapshot::parse_jsonl(&snap.to_jsonl())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed, snap);
    }
}
