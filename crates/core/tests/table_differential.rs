//! Differential property tests: the struct-of-arrays [`CounterTable`]
//! against the naive [`LinearCounterTable`].
//!
//! Both tables are driven with identical activation streams — deliberately
//! skewed to exercise count wraps (overflow bits), replacement ties among
//! equal-count entries, spillover growth, mid-stream resets, and injected
//! storage faults — and must produce identical [`TableUpdate`] sequences,
//! estimates, spillover counts, and [`CamStats`]. This is the executable
//! proof that the SoA lanes, the presence filter, and the probe cursor are
//! pure acceleration with no observable effect.
//!
//! Fault-injection notes:
//!
//! * `corrupt_addr_bit` flips any of the 32 address bits while rows stay
//!   below 256, so a corrupted key can collide with a live row. Both tables
//!   must then answer with the lowest matching slot, as the CAM's priority
//!   encoder does.
//! * `suppress_next_lookup` is exercised in the unit suites only: the
//!   reference models stored bits, not transient compare-line glitches.
//!
//! The small-scope section at the end enumerates every activation stream up
//! to the sizing bound for two tiny table shapes, instead of sampling
//! them, and checks the proof's claims (Lemma 1, Lemma 2, the Theorem)
//! after every ACT. It then enumerates every short stream with one
//! stored-bit fault at every position and checks the lockstep alone;
//! PROOFS.md lists the shapes it covers.
//!
//! [`TableUpdate`]: graphene_core::TableUpdate
//! [`CamStats`]: graphene_core::CamStats

use dram_model::RowId;
use graphene_core::reference::LinearCounterTable;
use graphene_core::CounterTable;
use proptest::prelude::*;

/// Asserts that both tables hold the same spillover, statistics and
/// tracked entries, and that the SoA table's derived lanes match its
/// primary ones.
fn assert_same_state(soa: &CounterTable, linear: &LinearCounterTable) -> Result<(), TestCaseError> {
    prop_assert_eq!(soa.spillover(), linear.spillover());
    prop_assert_eq!(soa.cam_stats(), linear.cam_stats());
    prop_assert_eq!(soa.acts_since_reset(), linear.acts_since_reset());
    // Full-table comparison: every tracked row, estimate, and overflow bit.
    let mut a: Vec<_> = soa.iter().collect();
    let mut b: Vec<_> = linear.iter().collect();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "tracked sets differ");
    soa.assert_index_consistency();
    Ok(())
}

/// Activates `row` on both tables and asserts identical observables.
fn act_both(
    soa: &mut CounterTable,
    linear: &mut LinearCounterTable,
    row: u32,
    step: usize,
) -> Result<(), TestCaseError> {
    let row = RowId(row);
    let a = soa.process_activation(row);
    let b = linear.process_activation(row);
    prop_assert_eq!(a, b, "diverged at step {} (row {})", step, row.0);
    prop_assert_eq!(soa.estimate(row), linear.estimate(row), "estimate at step {}", step);
    prop_assert_eq!(soa.spillover(), linear.spillover(), "spillover at step {}", step);
    Ok(())
}

/// Locksteps both tables over `stream`, asserting identical observables at
/// every step and identical end states.
fn lockstep(capacity: usize, t: u64, stream: &[u32]) -> Result<(), TestCaseError> {
    let mut soa = CounterTable::new(capacity, t);
    let mut linear = LinearCounterTable::new(capacity, t);
    for (step, &x) in stream.iter().enumerate() {
        act_both(&mut soa, &mut linear, x, step)?;
    }
    assert_same_state(&soa, &linear)
}

/// One step of a fault-injected differential stream: either a normal
/// activation or a storage-corruption hook applied identically to both
/// tables.
#[derive(Debug, Clone, Copy)]
enum FaultedOp {
    Act(u32),
    CorruptCount { slot: usize, bit: u32 },
    CorruptAddr { slot: usize, bit: u32 },
    CorruptSpillover { bit: u32 },
}

impl FaultedOp {
    /// Applies a corruption op to both tables and returns each one's
    /// answer (whether its stored state changed).
    fn corrupt(self, soa: &mut CounterTable, linear: &mut LinearCounterTable) -> (bool, bool) {
        match self {
            FaultedOp::Act(row) => panic!("ACT {row} is not a corruption"),
            FaultedOp::CorruptCount { slot, bit } => {
                (soa.corrupt_count_bit(slot, bit), linear.corrupt_count_bit(slot, bit))
            }
            FaultedOp::CorruptAddr { slot, bit } => {
                (soa.corrupt_addr_bit(slot, bit), linear.corrupt_addr_bit(slot, bit))
            }
            FaultedOp::CorruptSpillover { bit } => {
                (soa.corrupt_spillover_bit(bit), linear.corrupt_spillover_bit(bit))
            }
        }
    }
}

/// Decodes a raw generated tuple into an op. Roughly 8 activations for
/// every corruption, so the stream exercises both steady-state lockstep
/// and behaviour right after a fault.
fn decode_op((sel, row, slot, bit): (u32, u32, u32, u32)) -> FaultedOp {
    let slot = slot as usize;
    match sel {
        0..=7 => FaultedOp::Act(row),
        8 => FaultedOp::CorruptCount { slot, bit: bit % 40 },
        // Any address bit: low flips land on live rows (see module docs).
        9 => FaultedOp::CorruptAddr { slot, bit: bit % 32 },
        _ => FaultedOp::CorruptSpillover { bit: bit % 32 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary streams over a small row universe: heavy on hits,
    /// replacements, and spillover matches.
    #[test]
    fn identical_on_dense_streams(
        stream in prop::collection::vec(0u32..40, 1..3000),
        capacity in 1usize..24,
        t in 2u64..50,
    ) {
        lockstep(capacity, t, &stream)?;
    }

    /// Wide row universe: mostly misses, so the spillover-match search (and
    /// its lowest-slot-index tie-break) decides almost every step.
    #[test]
    fn identical_on_sparse_streams(
        stream in prop::collection::vec(0u32..100_000, 1..2000),
        capacity in 1usize..12,
        t in 2u64..20,
    ) {
        lockstep(capacity, t, &stream)?;
    }

    /// Tiny thresholds force frequent wraps: overflow bits set early and the
    /// non-evictable mask dominates the count search.
    #[test]
    fn identical_under_heavy_wrapping(
        hot in prop::collection::vec(0u32..4, 1..1500),
        cold in prop::collection::vec(4u32..2000, 0..500),
        capacity in 1usize..8,
        t in 2u64..6,
    ) {
        // Interleave hot hammering with cold misses.
        let mut stream = Vec::with_capacity(hot.len() + cold.len());
        let mut c = cold.iter();
        for (i, &h) in hot.iter().enumerate() {
            stream.push(h);
            if i % 3 == 0 {
                if let Some(&x) = c.next() {
                    stream.push(x);
                }
            }
        }
        stream.extend(c);
        lockstep(capacity, t, &stream)?;
    }

    /// Resets anywhere in the stream leave both tables in an identical
    /// state, including the rebuilt acceleration structures.
    #[test]
    fn identical_across_resets(
        prefix in prop::collection::vec(0u32..30, 0..1000),
        suffix in prop::collection::vec(0u32..30, 0..1000),
        capacity in 1usize..16,
        t in 2u64..40,
    ) {
        let mut soa = CounterTable::new(capacity, t);
        let mut linear = LinearCounterTable::new(capacity, t);
        for (step, &x) in prefix.iter().enumerate() {
            act_both(&mut soa, &mut linear, x, step)?;
        }
        soa.reset();
        linear.reset();
        assert_same_state(&soa, &linear)?;
        for (step, &x) in suffix.iter().enumerate() {
            act_both(&mut soa, &mut linear, x, prefix.len() + step)?;
        }
        assert_same_state(&soa, &linear)?;
    }

    /// Storage corruption applied identically to both tables leaves them
    /// observably identical: the corrupted-count wrap semantics, the moved
    /// CAM keys (duplicates of live rows included), and the
    /// inflated/deflated spillover register all follow the same
    /// fixed-width register model, and the SoA acceleration structures
    /// (filter, probe cursor) track the corrupted state exactly.
    #[test]
    fn identical_under_fault_injection(
        warmup in prop::collection::vec(0u32..200, 0..400),
        raw_ops in prop::collection::vec((0u32..11, 0u32..200, 0u32..64, 0u32..64), 1..600),
        capacity in 1usize..24,
        t in 2u64..50,
    ) {
        let mut soa = CounterTable::new(capacity, t);
        let mut linear = LinearCounterTable::new(capacity, t);
        for (step, &x) in warmup.iter().enumerate() {
            act_both(&mut soa, &mut linear, x, step)?;
        }
        for (step, op) in raw_ops.into_iter().map(decode_op).enumerate() {
            let step = warmup.len() + step;
            match op {
                FaultedOp::Act(x) => act_both(&mut soa, &mut linear, x, step)?,
                fault => {
                    let (a, b) = fault.corrupt(&mut soa, &mut linear);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(soa.spillover(), linear.spillover(), "spillover at step {}", step);
            soa.assert_index_consistency();
        }
        assert_same_state(&soa, &linear)?;
    }
}

/// The paper's table sizes (`T_RH` 50K down to the 2K class) on a
/// miss-heavy stream: one ACT in 8 goes to a hot set of `N_entry / 2` rows,
/// the rest are distinct rows that miss and run the spillover count search.
/// Nearly every ACT replaces an entry and no count reaches `T`; the wraps
/// are the property tests' job. Every step's `TableUpdate`, then the
/// spillover and the whole final state, must match the linear reference.
#[test]
fn paper_sizes_match_on_a_miss_heavy_stream() {
    const ACTS: u32 = 60_000;
    for n_entry in [81usize, 672, 2_720] {
        let mut x: u64 = 0x0DDB_1A5E_5BAD_5EED;
        let stream: Vec<u32> = (0..ACTS)
            .map(|step| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                if r.is_multiple_of(8) {
                    (r >> 32) as u32 % (n_entry as u32 / 2)
                } else {
                    1_000_000 + step
                }
            })
            .collect();
        lockstep(n_entry, 2_048, &stream).unwrap_or_else(|e| panic!("N_entry {n_entry}: {e}"));
    }
}

/// Deterministic stress: a long adversarial mix (hammer bursts, distinct-row
/// floods, revisits) at Graphene-like sizing, checked step by step.
#[test]
fn long_adversarial_stream_stays_identical() {
    let capacity = 81;
    let t = 200;
    let mut soa = CounterTable::new(capacity, t);
    let mut linear = LinearCounterTable::new(capacity, t);
    let mut x: u64 = 0x0DDB_1A5E_5BAD_5EED;
    for step in 0..200_000u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let row = match r % 10 {
            // Hammer a small hot set hard enough to wrap repeatedly.
            0..=4 => RowId((r >> 32) as u32 % 8),
            // Medium working set: replacement churn at equal counts.
            5..=7 => RowId(100 + (r >> 32) as u32 % 200),
            // Distinct-row flood: spillover pressure.
            _ => RowId(10_000 + (step as u32)),
        };
        let a = soa.process_activation(row);
        let b = linear.process_activation(row);
        assert_eq!(a, b, "diverged at step {step}");
        if step % 20_000 == 0 {
            assert_same_state(&soa, &linear).unwrap();
        }
    }
    assert_same_state(&soa, &linear).unwrap();
}

/// One node of the exhaustive stream tree: both tables after the stream so
/// far, and each row's actual ACT count and the triggers it has received.
/// Rows are numbered `0..actual.len()` in order of first appearance.
#[derive(Clone)]
struct Node {
    soa: CounterTable,
    linear: LinearCounterTable,
    actual: Vec<u64>,
    triggers: Vec<u64>,
}

impl Node {
    fn new(n_entry: usize, t: u64) -> Self {
        Node {
            soa: CounterTable::new(n_entry, t),
            linear: LinearCounterTable::new(n_entry, t),
            actual: Vec::new(),
            triggers: Vec::new(),
        }
    }

    /// ACTs taken so far.
    fn acts(&self) -> usize {
        self.actual.iter().sum::<u64>() as usize
    }

    /// Activates `row` (at most one past the highest row seen) on both
    /// tables and checks that they answered alike: the same update, then
    /// the same spillover and estimate of `row`.
    fn step(&mut self, row: usize) -> Result<(), String> {
        if row == self.actual.len() {
            self.actual.push(0);
            self.triggers.push(0);
        }
        let id = RowId(row as u32);
        let a = self.soa.process_activation(id);
        let b = self.linear.process_activation(id);
        if a != b {
            return Err(format!("tables diverged: {a:?} vs the reference's {b:?}"));
        }
        let (spillover, reference) = (self.soa.spillover(), self.linear.spillover());
        if spillover != reference {
            return Err(format!("spillover {spillover} vs the reference's {reference}"));
        }
        let (estimate, reference) = (self.soa.estimate(id), self.linear.estimate(id));
        if estimate != reference {
            return Err(format!("row {row} estimated {estimate:?} vs {reference:?}"));
        }
        self.actual[row] += 1;
        self.triggers[row] += u64::from(a.triggered());
        Ok(())
    }

    /// [`Node::step`], then checks that the proof's claims hold, naming the
    /// first claim that fails.
    fn act(&mut self, row: usize) -> Result<(), String> {
        self.step(row)?;
        for (r, estimate, _) in self.soa.iter() {
            let actual = self.actual[r.0 as usize];
            if estimate < actual {
                return Err(format!("Lemma 1: row {} estimated {estimate} < {actual}", r.0));
            }
        }
        let (spillover, acts) = (self.soa.spillover(), self.soa.acts_since_reset());
        if spillover * (self.soa.capacity() as u64 + 1) > acts {
            return Err(format!("Lemma 2: spillover {spillover} after {acts} ACTs"));
        }
        let t = self.soa.tracking_threshold();
        for (r, (&actual, &triggers)) in self.actual.iter().zip(&self.triggers).enumerate() {
            if triggers < actual / t {
                return Err(format!("Theorem: row {r} has {actual} ACTs but {triggers} triggers"));
            }
        }
        Ok(())
    }

    /// Applies a stored-bit fault to both tables and checks that they
    /// answered alike and that the slot index still describes the lanes.
    fn inject(&mut self, fault: FaultedOp) -> Result<(), String> {
        let (a, b) = fault.corrupt(&mut self.soa, &mut self.linear);
        if a != b {
            return Err(format!("{fault:?} answered {a} vs the reference's {b}"));
        }
        self.soa.assert_index_consistency();
        Ok(())
    }

    /// Checks that both tables track the same rows at the same counts and
    /// kept the same CAM statistics: [`assert_same_state`] without its
    /// index walk, which would double the faulted walk's time.
    fn same_end_state(&self) -> Result<(), String> {
        let mut tracked: Vec<_> = self.soa.iter().collect();
        let mut reference: Vec<_> = self.linear.iter().collect();
        tracked.sort_unstable();
        reference.sort_unstable();
        if tracked != reference {
            return Err(format!("tracked {tracked:?} vs the reference's {reference:?}"));
        }
        let (stats, reference) = (self.soa.cam_stats(), self.linear.cam_stats());
        if stats != reference {
            return Err(format!("{stats:?} vs the reference's {reference:?}"));
        }
        Ok(())
    }
}

/// Visits every stream of at most `max_len` ACTs that extends `stream`
/// (whose tables `node` holds), with rows relabelled in order of first
/// appearance (restricted growth strings), so each stream shape is visited
/// once. Returns how many streams it visited.
fn walk(node: &Node, stream: &mut Vec<usize>, max_len: usize) -> u64 {
    if stream.len() == max_len {
        return 0;
    }
    let mut visited = 0;
    for row in 0..=node.actual.len() {
        let mut child = node.clone();
        stream.push(row);
        child.act(row).unwrap_or_else(|e| panic!("{e}, after the stream {stream:?}"));
        visited += 1 + walk(&child, stream, max_len);
        stream.pop();
    }
    visited
}

/// Every stream up to `W_max = (N+1)T − 1` ACTs, the longest window
/// Inequality 1 sizes `N` entries for, for `(N, T) = (3, 3)` and `(2, 4)`
/// (`W_max = 11` for both), without faults: the two tables agree after
/// every ACT and Lemma 1, Lemma 2 and the Theorem hold.
#[test]
fn every_stream_up_to_the_sizing_bound_keeps_the_proof() {
    // Σ Bell(1..=11): the number of stream shapes of 1 to 11 ACTs.
    const SHAPES_UP_TO_11: u64 = 820_987;
    for (n_entry, t) in [(3usize, 3u64), (2, 4)] {
        let max_len = (n_entry + 1) * t as usize - 1;
        assert_eq!(max_len, 11);
        let visited = walk(&Node::new(n_entry, t), &mut Vec::new(), max_len);
        assert_eq!(visited, SHAPES_UP_TO_11, "N = {n_entry}, T = {t}");
    }
}

/// One ACT past the sizing bound the Theorem fails, as Inequality 1
/// predicts, so the exhaustive check above is not vacuous: at N = 3, T = 3
/// three rows fill the table at T each, and the fourth row's T ACTs all
/// land on the spillover count, which Lemma 2 still allows (3 ≤ 12/4).
#[test]
fn one_act_past_the_sizing_bound_breaks_the_theorem() {
    let mut node = Node::new(3, 3);
    let stream = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];
    let (last, prefix) = stream.split_last().unwrap();
    for &row in prefix {
        node.act(row).unwrap();
    }
    let err = node.act(*last).unwrap_err();
    assert_eq!(err, "Theorem: row 3 has 3 ACTs but 0 triggers");
    assert!(!node.soa.is_tracked(RowId(3)));
    assert_eq!(node.soa.spillover(), 3);
}

/// Every single stored-bit fault of an `n_entry`-slot table at threshold
/// `t`: each of the ⌈log₂T⌉ count bits and address bits 0–3 and 31 of
/// every slot, and spillover bits 0–3 and 31. Low address bits move a key
/// onto rows the stream uses; bit 31 moves it off every row.
fn single_faults(n_entry: usize, t: u64) -> Vec<FaultedOp> {
    let count_bits = 64 - (t - 1).leading_zeros();
    let low_and_top = [0, 1, 2, 3, 31];
    let mut faults = Vec::new();
    for slot in 0..n_entry {
        faults.extend((0..count_bits).map(|bit| FaultedOp::CorruptCount { slot, bit }));
        faults.extend(low_and_top.map(|bit| FaultedOp::CorruptAddr { slot, bit }));
    }
    faults.extend(low_and_top.map(|bit| FaultedOp::CorruptSpillover { bit }));
    faults
}

/// Visits every fault-free extension of `stream` to `len` ACTs, stepping
/// both tables in lockstep, and checks that each ends them alike. Returns
/// how many streams of `len` ACTs it visited.
fn walk_to_leaves(node: &Node, stream: &mut Vec<FaultedOp>, len: usize) -> u64 {
    if node.acts() == len {
        node.same_end_state().unwrap_or_else(|e| panic!("{e}, after the stream {stream:?}"));
        return 1;
    }
    let mut leaves = 0;
    for row in 0..=node.actual.len() {
        let mut child = node.clone();
        stream.push(FaultedOp::Act(row as u32));
        child.step(row).unwrap_or_else(|e| panic!("{e}, after the stream {stream:?}"));
        leaves += walk_to_leaves(&child, stream, len);
        stream.pop();
    }
    leaves
}

/// Visits every stream of `len` ACTs that extends the fault-free `stream`
/// with one fault from `faults` injected before one of its remaining ACTs,
/// rows relabelled as in [`walk`]. Returns how many faulted streams it
/// visited.
fn walk_with_one_fault(
    node: &Node,
    stream: &mut Vec<FaultedOp>,
    len: usize,
    faults: &[FaultedOp],
) -> u64 {
    let mut visited = 0;
    for &fault in faults {
        let mut child = node.clone();
        stream.push(fault);
        child.inject(fault).unwrap_or_else(|e| panic!("{e}, after the stream {stream:?}"));
        visited += walk_to_leaves(&child, stream, len);
        stream.pop();
    }
    if node.acts() + 1 < len {
        for row in 0..=node.actual.len() {
            let mut child = node.clone();
            stream.push(FaultedOp::Act(row as u32));
            child.step(row).unwrap_or_else(|e| panic!("{e}, after the stream {stream:?}"));
            visited += walk_with_one_fault(&child, stream, len, faults);
            stream.pop();
        }
    }
    visited
}

/// Every stream of 9 ACTs at N = 3, T = 6 with one stored-bit fault (see
/// [`single_faults`]) before any one of its ACTs: the two tables return
/// the same answer from the fault hook, then the same update, spillover
/// and estimate after every ACT, and end with the same tracked set and
/// statistics. Only the lockstep is checked: a stored-bit fault can break
/// the proof's lemmas, which is what `HardenedGraphene`'s parity is for.
/// The space holds the count-flip repro of `CounterTable`'s unit test
/// `count_flip_below_the_spillover_stops_trusting_the_cursor`, relabelled:
/// ACTs `0,1,0,2,3,4`, count bit 1 of slot 1, then ACTs `1,4,3`.
#[test]
fn every_single_stored_bit_fault_at_every_position_keeps_the_lockstep() {
    // Bell(9): the number of stream shapes of 9 ACTs.
    const SHAPES_OF_9: u64 = 21_147;
    let (n_entry, t, len) = (3usize, 6u64, 9usize);
    let faults = single_faults(n_entry, t);
    assert_eq!(faults.len(), 29);
    // Each thread walks the whole tree for its share of the faults.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let visited: u64 = std::thread::scope(|s| {
        let walkers: Vec<_> = faults
            .chunks(faults.len().div_ceil(threads))
            .map(|share| {
                s.spawn(move || {
                    walk_with_one_fault(&Node::new(n_entry, t), &mut Vec::new(), len, share)
                })
            })
            .collect();
        walkers.into_iter().map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e))).sum()
    });
    assert_eq!(visited, SHAPES_OF_9 * len as u64 * faults.len() as u64);
}
