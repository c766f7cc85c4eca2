//! The hardware-faithful Graphene counter table.
//!
//! This is the spillover Misra-Gries table of Figures 4 and 5, modeled at the
//! level the RTL implements it:
//!
//! * a fixed array of `N_entry` entries, each holding a row address (Address
//!   CAM), a count field, and an **overflow bit** (Count CAM);
//! * a single spillover-count register;
//! * the count field stores the estimated count *modulo `T`*: when it reaches
//!   `T` it wraps to zero and sets the overflow bit (Section IV-B), which
//!   both shrinks the field from `⌈log₂W⌉` to `⌈log₂T⌉` bits and marks the
//!   entry as non-evictable for the rest of the reset window;
//! * every wrap is an NRR trigger — this realizes "estimated count reaches
//!   `T` or a multiple of `T`" without ever storing more than `T` counts.
//!
//! The table also counts its CAM searches/writes ([`CamStats`]) so the
//! energy model can be driven by real access mixes.
//!
//! # Struct-of-arrays layout
//!
//! In hardware both lookups are single-cycle CAM searches. The software
//! model keeps the entries in packed lanes: the row addresses in a
//! contiguous `u32` key lane, and the counts in a `u32` *probe lane* with
//! overflowed entries masked out by a sentinel. The spillover match is a
//! linear scan of the probe lane (one 64-byte cache line covers 16 counts,
//! and the chunked compare loop autovectorizes). At the paper's largest
//! table (N_entry = 2720) each lane is ~10.6 KB — L1-resident — where the
//! previous array-of-structs `Vec<Entry>` plus `HashMap`/`BTreeMap` shadow
//! indexes scattered every probe across pointer-chasing heap structures and
//! fell off a throughput cliff as N_entry grew.
//!
//! Two O(1)-maintenance accelerators keep both searches from paying a full
//! scan:
//!
//! * an **exact slot index** answers the Address-CAM search: a 4×
//!   overprovisioned, power-of-two array of buckets, each heading a chain
//!   of the valid slots whose key hashes to it, linked in ascending slot
//!   order by one `u16` next-link per slot. A search walks one chain and
//!   returns its first match, which is the lowest matching slot — the
//!   answer of the CAM's priority encoder, also when an address flip or an
//!   injected miss has left one row in two slots. The next-links and the
//!   bucket heads share one `u16` lane. Links store `slot + 1`, so 0 ends
//!   a chain, an all-zero lane is the empty index, and the table can hold
//!   at most 65,535 entries. Every key write (replace, evict, address flip)
//!   unlinks and relinks its slot;
//! * a **probe cursor** exploits that, within one spillover round, counts
//!   only grow: each count search resumes at the previous match instead of
//!   rescanning the prefix, so a whole round of replacements costs about
//!   one pass over the probe lane in total. A spillover increment or a
//!   reset rewinds the cursor to slot 0. A count flip, a spillover flip or
//!   a 32-bit lane wrap can leave a live count *below* the spillover, and a
//!   later hit can raise it to a match behind the cursor, so after any of
//!   them the count search ignores the cursor and scans from slot 0 until
//!   the next reset or restore.
//!
//! The index and the scans are pure acceleration: they change no observable
//! behavior (see `tests/table_differential.rs`, which locksteps this
//! table against
//! [`reference::LinearCounterTable`](crate::reference::LinearCounterTable),
//! address flips that duplicate live keys included), and they do **not**
//! perturb [`CamStats`] — those counters model the *logical* CAM accesses
//! the hardware would perform, not the software work done to simulate
//! them.

use std::collections::HashMap;

use dram_model::geometry::RowId;

use crate::cam::CamStats;

/// Probe-lane value of an overflowed entry: never matches a legal spillover
/// count, because `new` rejects thresholds that would let a live count reach
/// it. (A *corrupted* spillover can reach the sentinel; the count search
/// falls back to an exact scan for that one value.)
const OVERFLOW_SENTINEL: u32 = u32::MAX;

/// Counts compared per chunk of the count search: 16 × `u32` = one 64-byte
/// cache line, and a width LLVM turns into SIMD compares.
const SCAN_LANES: usize = 16;

/// Largest table the index's `u16` links can address: a link stores
/// `slot + 1`, and 0 ends a chain.
pub(crate) const MAX_ENTRIES: usize = u16::MAX as usize;

/// Outcome of processing one activation through the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableUpdate {
    /// The row was already tracked; its count was incremented.
    Hit {
        /// True if the increment made the estimated count reach a multiple
        /// of `T` (an NRR must be issued).
        triggered: bool,
    },
    /// The row was inserted by replacing an entry whose count equaled the
    /// spillover count.
    Replaced {
        /// The row address that was evicted (if the slot was occupied).
        evicted: Option<RowId>,
        /// True if the inherited count immediately reached `T`.
        triggered: bool,
    },
    /// No entry matched the spillover count; the spillover register was
    /// incremented instead.
    SpilloverIncremented,
}

impl TableUpdate {
    /// True if this update fired an NRR trigger.
    pub fn triggered(&self) -> bool {
        matches!(
            self,
            TableUpdate::Hit { triggered: true } | TableUpdate::Replaced { triggered: true, .. }
        )
    }
}

/// The architectural state of a [`CounterTable`], as captured by
/// [`CounterTable::snapshot`] and replayed by [`CounterTable::restore`].
///
/// Holds only the *primary* lanes — what the hardware's SRAM actually
/// stores plus the software bookkeeping counters. Acceleration state
/// (probe lane, slot index, probe cursor) and parity bits are derived on
/// restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Address-CAM key lane (stale bits preserved for invalid slots).
    pub keys: Vec<u32>,
    /// Count lane (counts modulo `T`).
    pub low: Vec<u32>,
    /// Valid bits, packed 64 per word.
    pub valid: Vec<u64>,
    /// Overflow bits.
    pub overflow: Vec<bool>,
    /// Wrap counts (statistics/verification bookkeeping).
    pub crossings: Vec<u64>,
    /// The spillover register.
    pub spillover: u64,
    /// Activations processed since the last reset.
    pub acts_since_reset: u64,
    /// CAM access counters.
    pub stats: CamStats,
}

/// The Graphene per-bank counter table.
///
/// The address search walks one chain of an exact slot index, and the
/// spillover-count match scans a packed `u32` lane that stays L1-resident
/// at paper-scale table sizes; see the module docs for why neither can
/// change observable behavior.
///
/// # Example
///
/// ```
/// use dram_model::RowId;
/// use graphene_core::CounterTable;
///
/// let mut table = CounterTable::new(3, 5); // 3 entries, T = 5
/// for i in 0..4 {
///     assert!(!table.process_activation(RowId(7)).triggered(), "act {i}");
/// }
/// assert!(table.process_activation(RowId(7)).triggered()); // 5th ACT hits T
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTable {
    /// Address-CAM key lane. Entry `i`'s stored row address; meaningless
    /// (stale) bits while the valid bit is clear — only valid slots are
    /// linked into the index, so a stale key never answers a search.
    keys: Vec<u32>,
    /// Count lane, always `< T` in fault-free operation (wraps at `T`). A
    /// [`corrupt_count_bit`](Self::corrupt_count_bit) flip may push it to
    /// `T` or beyond, exactly like the real register.
    low: Vec<u32>,
    /// Count-CAM probe lane: `low[i]` for non-overflowed entries,
    /// [`OVERFLOW_SENTINEL`] once the overflow bit is set — so the
    /// spillover match is a single linear `u32` compare over this lane,
    /// with overflowed entries masked out for free.
    probe_low: Vec<u32>,
    /// Valid bits, packed 64 per word.
    valid: Vec<u64>,
    /// Overflow bits (entry reached `T`; non-evictable this window).
    overflow: Vec<bool>,
    /// Wrap counts (crossings of multiples of `T`). Not hardware state —
    /// kept for statistics and verification; the hardware only needs
    /// `overflow`.
    crossings: Vec<u64>,
    /// Per-entry parity bit over (valid, addr, low, overflow), written on
    /// every legitimate entry write. A [`corrupt_count_bit`] /
    /// [`corrupt_addr_bit`] soft error leaves it stale — exactly how SRAM
    /// parity detects single-bit upsets.
    ///
    /// [`corrupt_count_bit`]: Self::corrupt_count_bit
    /// [`corrupt_addr_bit`]: Self::corrupt_addr_bit
    parity: Vec<bool>,
    spillover: u64,
    tracking_threshold: u64,
    acts_since_reset: u64,
    stats: CamStats,
    /// Parity bit of the spillover register, same discipline.
    spillover_parity: bool,
    /// One-shot flag making the next Address-CAM search miss
    /// ([`suppress_next_lookup`](Self::suppress_next_lookup)).
    suppress_lookup: bool,
    /// Exact Address-CAM index over the *valid* keys, as one lane of links
    /// that each hold `slot + 1` (0 = none). Cell `i < capacity` links slot
    /// `i` to the next valid slot above it on its chain (0 at a chain's end
    /// and on every invalid slot); cell `capacity + hash(key) & mask` heads
    /// the chain of the valid slots whose key hashes there. Every key write
    /// keeps it exact — including [`corrupt_addr_bit`](Self::corrupt_addr_bit),
    /// which moves the (corrupted) key between chains so the index keeps
    /// describing the lane as stored.
    links: Vec<u16>,
    /// Lowest slot index at which the current spillover value can still
    /// match the probe lane: within one spillover round, counts only grow
    /// (bumps destroy matches, never create them), so each count search
    /// resumes where the previous one matched instead of rescanning the
    /// prefix — amortizing the whole round's searches to about one pass
    /// over the lane. Reset to zero on a spillover increment or a table
    /// reset.
    probe_cursor: usize,
    /// False once a count flip, a spillover flip or a 32-bit lane wrap may
    /// have left a live count below the spillover, where a hit can raise it
    /// to a match behind the cursor: count searches then scan from slot 0
    /// until [`reset`](Self::reset) or [`restore`](Self::restore).
    cursor_trusted: bool,
    /// False once an address flip or an injected miss may have put one row
    /// in two slots, or a [`restore`](Self::restore) found one there. Only
    /// [`assert_index_consistency`] reads it.
    ///
    /// [`assert_index_consistency`]: Self::assert_index_consistency
    unique_keys: bool,
}

impl CounterTable {
    /// Creates a table with `n_entry` entries and tracking threshold `t`.
    ///
    /// # Panics
    ///
    /// Panics if `n_entry == 0`, `n_entry` exceeds 65,535 (the slot
    /// index's links are 16 bits wide; the paper's largest table has 2,720
    /// entries), `t == 0`, or `t` exceeds `u32::MAX` (the count lane is 32
    /// bits wide; every real DDR4/5 threshold is orders of magnitude below
    /// that).
    pub fn new(n_entry: usize, t: u64) -> Self {
        assert!(n_entry > 0, "table must have at least one entry");
        assert!(n_entry <= MAX_ENTRIES, "table of {n_entry} entries exceeds the 16-bit slot index");
        assert!(t > 0, "tracking threshold must be positive");
        assert!(t <= u64::from(u32::MAX), "tracking threshold must fit the 32-bit count lane");
        CounterTable {
            keys: vec![0; n_entry],
            low: vec![0; n_entry],
            probe_low: vec![0; n_entry],
            valid: vec![0; n_entry.div_ceil(64)],
            overflow: vec![false; n_entry],
            crossings: vec![0; n_entry],
            parity: vec![false; n_entry],
            spillover: 0,
            tracking_threshold: t,
            acts_since_reset: 0,
            stats: CamStats::default(),
            spillover_parity: false,
            suppress_lookup: false,
            // 4x overprovisioned and power-of-two: at the paper's largest
            // table (2720 entries, 16384 buckets) an absent key lands on an
            // empty bucket ~85% of the time, and a chain averages well
            // under one slot.
            links: vec![0; n_entry + (n_entry * 4).next_power_of_two().max(64)],
            probe_cursor: 0,
            cursor_trusted: true,
            unique_keys: true,
        }
    }

    /// The `links` cell heading `key`'s chain: multiplicative hash, top
    /// bits, masked to the power-of-two bucket count.
    #[inline]
    fn head_cell(&self, key: u32) -> usize {
        let n = self.keys.len();
        n + ((key.wrapping_mul(0x9E37_79B9) >> 16) as usize & (self.links.len() - n - 1))
    }

    /// The cell that links to slot `i`'s place in its key's chain: the
    /// chain's head, or the link of the chain's last slot below `i`.
    #[inline]
    fn link_to(&mut self, i: usize) -> &mut u16 {
        let mut cell = self.head_cell(self.keys[i]);
        while self.links[cell] != 0 && usize::from(self.links[cell]) <= i {
            cell = usize::from(self.links[cell] - 1);
        }
        &mut self.links[cell]
    }

    /// Links valid slot `i` into its key's chain, in slot order.
    #[inline]
    fn link(&mut self, i: usize) {
        // `new` bounds the capacity to the link width.
        let after = std::mem::replace(self.link_to(i), i as u16 + 1);
        self.links[i] = after;
    }

    /// Unlinks slot `i` from its key's chain; call before its key changes.
    #[inline]
    fn unlink(&mut self, i: usize) {
        let after = std::mem::take(&mut self.links[i]);
        *self.link_to(i) = after;
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.valid[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set_valid(&mut self, i: usize) {
        self.valid[i / 64] |= 1 << (i % 64);
    }

    /// Parity (odd number of set bits) of a slot's hardware-visible fields:
    /// the valid bit, the address field, the count field, and the overflow
    /// bit. `crossings` is bookkeeping, not stored bits.
    fn parity_of(&self, i: usize) -> bool {
        let addr_ones = if self.is_valid(i) { self.keys[i].count_ones() + 1 } else { 0 };
        let ones = addr_ones + self.low[i].count_ones() + u32::from(self.overflow[i]);
        ones % 2 == 1
    }

    /// Address-CAM search: lowest valid slot holding `row`. Every valid slot
    /// that can hold `row` sits on `row`'s bucket chain in ascending order,
    /// so the first match on that chain is the priority encoder's answer.
    /// The dominant miss path mostly ends on an empty bucket.
    #[inline]
    fn find_slot(&self, row: u32) -> Option<usize> {
        let mut link = self.links[self.head_cell(row)];
        while link != 0 {
            let i = usize::from(link - 1);
            if self.keys[i] == row {
                return Some(i);
            }
            link = self.links[i];
        }
        None
    }

    /// Count-CAM search: lowest non-overflowed slot (occupied or empty)
    /// whose count equals the spillover register — the replacement
    /// candidate of Figure 5 line 9, with the linear scan's lowest-index
    /// tie-break.
    ///
    /// The fast path resumes at [`probe_cursor`](field@Self::probe_cursor):
    /// nothing below it can match (counts only grow within a spillover
    /// round), so a round's successive searches walk the lane once in total
    /// instead of once per miss. An untrusted cursor is ignored.
    #[inline]
    fn find_count_slot(&mut self) -> Option<usize> {
        if self.spillover == u64::from(OVERFLOW_SENTINEL) {
            // A corrupted spillover can collide with the probe sentinel;
            // disambiguate with an exact scan of the real lanes (from slot
            // 0 — the cursor invariant is not maintained for this value).
            return (0..self.low.len())
                .find(|&i| !self.overflow[i] && u64::from(self.low[i]) == self.spillover);
        }
        let Ok(target) = u32::try_from(self.spillover) else {
            // Spillover above the 32-bit count lane (only reachable through
            // corruption): no stored count can equal it.
            return None;
        };
        let start =
            if self.cursor_trusted { self.probe_cursor.min(self.probe_low.len()) } else { 0 };
        let mut base = start;
        for chunk in self.probe_low[start..].chunks_exact(SCAN_LANES) {
            let mut hit = false;
            for &v in chunk {
                hit |= v == target;
            }
            if hit {
                // invariant: `hit` guarantees a match inside this chunk.
                let i = base + chunk.iter().position(|&v| v == target).expect("chunk has a match");
                self.probe_cursor = i;
                return Some(i);
            }
            base += SCAN_LANES;
        }
        match self.probe_low[base..].iter().position(|&v| v == target) {
            Some(j) => {
                self.probe_cursor = base + j;
                Some(base + j)
            }
            None => None,
        }
    }

    /// Tracking threshold `T`.
    pub fn tracking_threshold(&self) -> u64 {
        self.tracking_threshold
    }

    /// Number of entries (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current spillover count.
    pub fn spillover(&self) -> u64 {
        self.spillover
    }

    /// Activations processed since the last reset.
    pub fn acts_since_reset(&self) -> u64 {
        self.acts_since_reset
    }

    /// CAM access counters.
    pub fn cam_stats(&self) -> &CamStats {
        &self.stats
    }

    /// Estimated count of `row`, or `None` if untracked.
    pub fn estimate(&self, row: RowId) -> Option<u64> {
        self.find_slot(row.0)
            .map(|i| self.crossings[i] * self.tracking_threshold + u64::from(self.low[i]))
    }

    /// True if `row` currently occupies a table entry.
    pub fn is_tracked(&self, row: RowId) -> bool {
        self.find_slot(row.0).is_some()
    }

    /// Number of entries currently holding a row (≤ [`capacity`]).
    ///
    /// [`capacity`]: Self::capacity
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The address stored in `slot`, or `None` when the slot is empty or
    /// out of range. Slot-indexed companion to [`iter`](Self::iter): it
    /// lets a scrubbing wrapper pair the slot indices of
    /// [`parity_violations`](Self::parity_violations) with the (possibly
    /// corrupted) addresses those slots hold.
    pub fn slot_addr(&self, slot: usize) -> Option<RowId> {
        (slot < self.capacity() && self.is_valid(slot)).then(|| RowId(self.keys[slot]))
    }

    /// Iterator over occupied entries as `(row, estimated count, overflow)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, u64, bool)> + '_ {
        let t = self.tracking_threshold;
        (0..self.capacity()).filter(|&i| self.is_valid(i)).map(move |i| {
            (RowId(self.keys[i]), self.crossings[i] * t + u64::from(self.low[i]), self.overflow[i])
        })
    }

    /// Processes one activation, following Figure 5's pseudo-code exactly,
    /// and reports what happened (including whether an NRR trigger fired).
    pub fn process_activation(&mut self, row: RowId) -> TableUpdate {
        self.acts_since_reset += 1;
        // Line 3: one Address-CAM search per ACT.
        self.stats.addr_searches += 1;

        let hit = if self.suppress_lookup {
            // Injected transient CAM mismatch: this one search reports MISS
            // regardless of the stored addresses.
            self.suppress_lookup = false;
            None
        } else {
            self.find_slot(row.0)
        };
        if let Some(i) = hit {
            // Row address HIT (lines 4-6): increment count, one Count-CAM write.
            self.stats.count_writes += 1;
            let triggered = self.bump(i);
            self.parity[i] = self.parity_of(i);
            return TableUpdate::Hit { triggered };
        }

        // Row address MISS: one Count-CAM search for spillover match (line 9).
        self.stats.count_searches += 1;
        // Only non-overflowed entries can match: an overflowed entry's true
        // estimate is at least T, which Lemma 2 keeps strictly above the
        // spillover count, so the hardware masks them out of the search —
        // the probe lane's sentinel does the same here.
        if let Some(i) = self.find_count_slot() {
            // Entry replace (lines 10-13): simultaneous addr + count writes.
            self.stats.addr_writes += 1;
            self.stats.count_writes += 1;
            let evicted = self.is_valid(i).then(|| RowId(self.keys[i]));
            if evicted.is_some() {
                self.unlink(i);
            }
            self.keys[i] = row.0;
            self.set_valid(i);
            self.link(i);
            // The slot matched because its low already equals the spillover
            // count, so the count lanes are unchanged by the inheritance
            // itself; only the bump below moves them. (The match guarantees
            // the spillover fits the 32-bit lane.)
            self.low[i] = self.spillover as u32;
            let triggered = self.bump(i);
            self.parity[i] = self.parity_of(i);
            TableUpdate::Replaced { evicted, triggered }
        } else {
            // No replacement (lines 15-16).
            self.stats.spillover_increments += 1;
            self.spillover += 1;
            self.spillover_parity = self.spillover.count_ones() % 2 == 1;
            // New spillover value, new round: entries bumped to it earlier
            // in the window can sit anywhere, so the count search must
            // start over from slot 0.
            self.probe_cursor = 0;
            TableUpdate::SpilloverIncremented
        }
    }

    /// Resets the table and the spillover register (end of a reset window).
    pub fn reset(&mut self) {
        self.keys.fill(0);
        self.low.fill(0);
        self.probe_low.fill(0);
        self.valid.fill(0);
        self.overflow.fill(false);
        self.crossings.fill(0);
        self.parity.fill(false);
        self.spillover = 0;
        self.acts_since_reset = 0;
        self.spillover_parity = false;
        self.suppress_lookup = false;
        self.links.fill(0);
        self.probe_cursor = 0;
        self.cursor_trusted = true;
        self.unique_keys = true;
    }

    /// Increments entry `i`'s count, wrapping at `T`; returns whether the
    /// wrap (NRR trigger) occurred. Keeps the probe lane in sync.
    fn bump(&mut self, i: usize) -> bool {
        let was_overflowed = self.overflow[i];
        // A corrupted count can sit at the lane's limit; wrapping mirrors
        // what the fixed-width register would do instead of aborting.
        let new = self.low[i].wrapping_add(1);
        if new == 0 {
            // A corrupted count just wrapped the full 32-bit lane — the one
            // way a bump can *lower* a stored count, breaking the
            // monotonicity the probe cursor relies on.
            self.cursor_trusted = false;
        }
        self.low[i] = new;
        let wrapped = u64::from(new) == self.tracking_threshold;
        if wrapped {
            self.low[i] = 0;
            self.overflow[i] = true;
            self.crossings[i] += 1;
            // The entry leaves the count search for the rest of the window:
            // overflowed entries never match the spillover probe.
            self.probe_low[i] = OVERFLOW_SENTINEL;
        } else if !was_overflowed {
            // Still searchable, one count higher.
            self.probe_low[i] = new;
        }
        wrapped
    }

    // ---- Fault-injection support (ISSUE 5) -------------------------------
    //
    // The methods below model SRAM soft errors: they mutate stored bits
    // *without* updating the corresponding parity bit, exactly like a cosmic
    // ray. The probe lane is re-synchronized so subsequent lookups behave
    // the way the corrupted hardware would, but `crossings` (software-only
    // bookkeeping) is untouched — corruption changes what the hardware
    // *believes*, not the verification history.

    /// Flips bit `bit` of the count field of entry `slot` (both reduced
    /// modulo the respective widths). The corrupted count may legally exceed
    /// `T − 1`; such an entry never satisfies the `== T` wrap comparator
    /// again, which is precisely the silent false-negative hazard a parity
    /// check exists to catch. Returns `true` (stored state always changes).
    pub fn corrupt_count_bit(&mut self, slot: usize, bit: u32) -> bool {
        let i = slot % self.capacity();
        // Field width ⌈log₂T⌉ (min 1): flips land inside the real register.
        let width = (64 - (self.tracking_threshold - 1).leading_zeros()).max(1);
        let mask = 1u32 << (bit % width);
        self.low[i] ^= mask;
        if !self.overflow[i] {
            self.probe_low[i] = self.low[i];
        }
        // The flip may have lowered a count below the spillover.
        self.cursor_trusted = false;
        true
    }

    /// Flips bit `bit` of the address field of entry `slot`. A no-op
    /// (returning `false`) on an invalid entry: its address bits carry no
    /// meaning and the valid bit is not targeted. On an occupied entry the
    /// CAM search follows the corruption — the old address no longer
    /// matches, the corrupted one does (unless a lower slot already holds
    /// it, in which case the priority encoder keeps answering with that
    /// slot and the corrupted entry stays unreachable by address).
    pub fn corrupt_addr_bit(&mut self, slot: usize, bit: u32) -> bool {
        let i = slot % self.capacity();
        if !self.is_valid(i) {
            return false;
        }
        // Move the slot between chains so the index keeps describing the
        // lane *as stored* — the corrupted address must stay findable and
        // the original must stop matching, exactly like the CAM itself.
        self.unlink(i);
        self.keys[i] ^= 1 << (bit % 32);
        self.link(i);
        self.unique_keys = false;
        true
    }

    /// Flips bit `bit % 32` of the spillover register. An inflated spillover
    /// suppresses replacements (new aggressors are never admitted); a
    /// deflated one blocks spillover growth. Both under-track.
    pub fn corrupt_spillover_bit(&mut self, bit: u32) -> bool {
        self.spillover ^= 1u64 << (bit % 32);
        // A raised spillover can sit above live counts.
        self.cursor_trusted = false;
        true
    }

    /// Makes the next Address-CAM search report MISS even if the row is
    /// present — a transient compare-line glitch. Unlike the storage flips
    /// this corrupts no bits, so parity cannot see it; it can split one
    /// row's counts across two slots (the stale entry keeps its address).
    pub fn suppress_next_lookup(&mut self) {
        self.suppress_lookup = true;
        self.unique_keys = false;
    }

    /// True while every stored parity bit (entries and spillover register)
    /// matches its data — i.e. no *detectable* corruption is present.
    pub fn parity_clean(&self) -> bool {
        self.spillover_parity == (self.spillover.count_ones() % 2 == 1)
            && (0..self.capacity()).all(|i| self.parity[i] == self.parity_of(i))
    }

    /// Slots whose parity bit disagrees with their stored data, plus `true`
    /// in the second position if the spillover register is corrupted.
    pub fn parity_violations(&self) -> (Vec<usize>, bool) {
        let slots = (0..self.capacity()).filter(|&i| self.parity[i] != self.parity_of(i)).collect();
        let spill = self.spillover_parity != (self.spillover.count_ones() % 2 == 1);
        (slots, spill)
    }

    /// Captures the table's architectural state — the lanes the hardware
    /// actually stores (addresses, counts, valid/overflow bits), the
    /// spillover register, and the bookkeeping counters — as a value that
    /// [`restore`](Self::restore) can later replay into a freshly built
    /// table of the same shape.
    ///
    /// Derived acceleration state (probe lane, slot index, probe cursor,
    /// parity bits) is *not* captured: it is a pure function of the
    /// primary lanes and is rebuilt on restore. Consequently a snapshot
    /// taken while injected corruption left parity bits stale restores as
    /// parity-clean — checkpointing is only meaningful for fault-free runs,
    /// and the controller layer refuses to snapshot fault-armed systems.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            keys: self.keys.clone(),
            low: self.low.clone(),
            valid: self.valid.clone(),
            overflow: self.overflow.clone(),
            crossings: self.crossings.clone(),
            spillover: self.spillover,
            acts_since_reset: self.acts_since_reset,
            stats: self.stats,
        }
    }

    /// Replays `snap` into this table, overwriting all dynamic state. The
    /// table must have been constructed with the same `n_entry` (and, for
    /// the restored counts to mean anything, the same threshold `T` — the
    /// snapshot stores counts modulo `T`, so the caller pins `T` via its
    /// own configuration).
    ///
    /// The derived lanes are rebuilt from the primary ones: probe lane from
    /// (low, overflow), parity from the restored bits, slot index from the
    /// valid keys. The probe cursor rewinds to slot 0 and is trusted unless
    /// a live count sits below the spillover — acceleration state only, so
    /// the restored table is *behaviorally* identical to the snapshotted one
    /// even though the cursor position differs.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when the snapshot's lane
    /// lengths disagree with this table's capacity, or when the packed
    /// valid words carry bits beyond `n_entry`.
    pub fn restore(&mut self, snap: &TableSnapshot) -> Result<(), String> {
        let n = self.capacity();
        if snap.keys.len() != n
            || snap.low.len() != n
            || snap.overflow.len() != n
            || snap.crossings.len() != n
        {
            return Err(format!(
                "snapshot lanes sized for {} entries, table has {n}",
                snap.keys.len()
            ));
        }
        if snap.valid.len() != n.div_ceil(64) {
            return Err(format!(
                "snapshot has {} valid words, table needs {}",
                snap.valid.len(),
                n.div_ceil(64)
            ));
        }
        if !n.is_multiple_of(64) && snap.valid[snap.valid.len() - 1] >> (n % 64) != 0 {
            return Err(format!("snapshot marks valid bits beyond entry {}", n - 1));
        }
        self.keys.copy_from_slice(&snap.keys);
        self.low.copy_from_slice(&snap.low);
        self.valid.copy_from_slice(&snap.valid);
        self.overflow.copy_from_slice(&snap.overflow);
        self.crossings.copy_from_slice(&snap.crossings);
        self.spillover = snap.spillover;
        self.acts_since_reset = snap.acts_since_reset;
        self.stats = snap.stats;
        // Rebuild every derived lane from the restored primaries.
        for i in 0..n {
            self.probe_low[i] = if self.overflow[i] { OVERFLOW_SENTINEL } else { self.low[i] };
        }
        for i in 0..n {
            self.parity[i] = self.parity_of(i);
        }
        self.spillover_parity = self.spillover.count_ones() % 2 == 1;
        self.links.fill(0);
        // Top down, so each link lands at its chain's head in O(1).
        for i in (0..n).rev() {
            if self.is_valid(i) {
                self.link(i);
            }
        }
        self.probe_cursor = 0;
        self.cursor_trusted = (0..n).all(|i| {
            !self.is_valid(i) || self.overflow[i] || u64::from(self.low[i]) >= self.spillover
        });
        // A snapshot taken after an address flip can hold one row in two
        // slots; only the lowest answers a search.
        self.unique_keys =
            (0..n).all(|i| !self.is_valid(i) || self.find_slot(self.keys[i]) == Some(i));
        self.suppress_lookup = false;
        Ok(())
    }

    /// Exhaustively checks the derived lanes against the primary ones: the
    /// probe lane must mirror (low, overflow), the slot index must chain
    /// every valid slot exactly once, under its key's bucket and in
    /// ascending slot order, no probe-lane match for the current spillover
    /// may hide below a trusted cursor, and no row may occupy two valid
    /// slots unless an address flip or an injected miss may have put it
    /// there. Test support — O(N), never called on the hot path.
    #[doc(hidden)]
    pub fn assert_index_consistency(&self) {
        let mut seen = HashMap::new();
        for i in 0..self.capacity() {
            if self.is_valid(i) {
                let row = self.keys[i];
                let first = seen.insert(row, i).is_none();
                assert!(first || !self.unique_keys, "row {row} occupies two slots");
            } else {
                assert_eq!(self.links[i], 0, "empty slot {i} carries a chain link");
            }
            let expected = if self.overflow[i] { OVERFLOW_SENTINEL } else { self.low[i] };
            assert_eq!(self.probe_low[i], expected, "probe lane out of sync at slot {i}");
        }
        let mut chained = 0;
        for head in self.capacity()..self.links.len() {
            let mut link = self.links[head];
            let mut below = 0;
            while link != 0 {
                // Strictly ascending links also rule out a cycle.
                assert!(link > below, "chain {head} is out of slot order at slot {}", link - 1);
                let i = usize::from(link - 1);
                assert!(self.is_valid(i), "chain {head} links empty slot {i}");
                assert_eq!(
                    self.head_cell(self.keys[i]),
                    head,
                    "slot {i} chained under the wrong head"
                );
                chained += 1;
                below = link;
                link = self.links[i];
            }
        }
        assert_eq!(chained, self.occupancy(), "index misses valid slots");
        if let (true, Ok(target)) = (self.cursor_trusted, u32::try_from(self.spillover)) {
            if target != OVERFLOW_SENTINEL {
                for i in 0..self.probe_cursor.min(self.probe_low.len()) {
                    assert_ne!(
                        self.probe_low[i], target,
                        "probe cursor {} skipped a spillover match at slot {i}",
                        self.probe_cursor
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LinearCounterTable;

    #[test]
    fn figure_2_walkthrough() {
        // The paper's Figure 2 with T large enough not to trigger.
        let mut t = CounterTable::new(3, 1000);
        // Build the initial state via the public API: insert three rows and
        // hammer them to the example counts (5, 7, 3) with spillover 2.
        // Simpler: drive the exact state transitions below on a fresh table.
        for _ in 0..5 {
            t.process_activation(RowId(0x1010));
        }
        for _ in 0..7 {
            t.process_activation(RowId(0x2020));
        }
        for _ in 0..3 {
            t.process_activation(RowId(0x3030));
        }
        // Two misses on distinct rows raise the spillover to 2.
        t.process_activation(RowId(0xAAAA));
        t.process_activation(RowId(0xBBBB));
        assert_eq!(t.spillover(), 2);

        // Step 1: hit on 0x1010 → 6.
        assert_eq!(t.process_activation(RowId(0x1010)), TableUpdate::Hit { triggered: false });
        assert_eq!(t.estimate(RowId(0x1010)), Some(6));

        // Step 2: miss on 0x4040, no entry has count 2 → spillover 3.
        assert_eq!(t.process_activation(RowId(0x4040)), TableUpdate::SpilloverIncremented);
        assert_eq!(t.spillover(), 3);

        // Step 3: miss on 0x5050, 0x3030 has count 3 == spillover → replaced,
        // count carried over: 4.
        let u = t.process_activation(RowId(0x5050));
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(0x3030)), triggered: false });
        assert_eq!(t.estimate(RowId(0x5050)), Some(4));
        assert!(!t.is_tracked(RowId(0x3030)));
        t.assert_index_consistency();
    }

    #[test]
    fn triggers_at_every_multiple_of_t() {
        let mut t = CounterTable::new(2, 10);
        let mut triggers = Vec::new();
        for i in 1..=35u64 {
            if t.process_activation(RowId(1)).triggered() {
                triggers.push(i);
            }
        }
        assert_eq!(triggers, vec![10, 20, 30]);
        assert_eq!(t.estimate(RowId(1)), Some(35));
    }

    #[test]
    fn overflowed_entry_never_evicted() {
        let mut t = CounterTable::new(1, 5);
        for _ in 0..5 {
            t.process_activation(RowId(9));
        }
        // Entry has wrapped (low = 0), but overflow protects it: floods of
        // distinct rows must only raise the spillover.
        for i in 0..100u32 {
            let u = t.process_activation(RowId(1000 + i));
            assert_eq!(u, TableUpdate::SpilloverIncremented, "act {i}");
        }
        assert!(t.is_tracked(RowId(9)));
        assert_eq!(t.estimate(RowId(9)), Some(5));
        t.assert_index_consistency();
    }

    #[test]
    fn count_field_stays_below_t() {
        // The width optimization's invariant: the stored field never holds T.
        let mut t = CounterTable::new(2, 7);
        for i in 0..1000u64 {
            t.process_activation(RowId((i % 3) as u32));
            for &low in &t.low {
                assert!(low < 7);
            }
        }
    }

    #[test]
    fn empty_entries_absorb_first_distinct_rows() {
        let mut t = CounterTable::new(3, 100);
        for r in 0..3u32 {
            let u = t.process_activation(RowId(r));
            assert!(matches!(u, TableUpdate::Replaced { evicted: None, .. }));
        }
        assert_eq!(t.spillover(), 0);
        let u = t.process_activation(RowId(99));
        assert_eq!(u, TableUpdate::SpilloverIncremented);
    }

    #[test]
    fn spillover_bound_lemma_2() {
        let n = 4;
        let mut t = CounterTable::new(n, 1_000_000);
        for i in 0..10_000u64 {
            t.process_activation(RowId((i * 7 % 97) as u32));
            assert!(t.spillover() <= t.acts_since_reset() / (n as u64 + 1));
        }
    }

    #[test]
    fn estimate_never_below_actual_lemma_1() {
        use std::collections::HashMap;
        let mut t = CounterTable::new(5, 1_000_000);
        let mut actual: HashMap<u32, u64> = HashMap::new();
        for i in 0..20_000u64 {
            let r = (i * i % 37) as u32;
            t.process_activation(RowId(r));
            *actual.entry(r).or_insert(0) += 1;
            // Only the just-activated row's actual count changed, so checking
            // it every step plus a periodic full sweep covers the lemma
            // without O(N_entry) work per activation.
            if let Some(est) = t.estimate(RowId(r)) {
                assert!(est >= actual[&r], "row {r} est {est}");
            }
            if i % 1000 == 999 {
                for (row, est, _) in t.iter() {
                    assert!(est >= actual[&row.0], "row {row} est {est}");
                }
            }
        }
        for (row, est, _) in t.iter() {
            assert!(est >= actual[&row.0], "row {row} est {est}");
        }
    }

    #[test]
    fn reset_clears_all_state() {
        let mut t = CounterTable::new(2, 3);
        for _ in 0..10 {
            t.process_activation(RowId(1));
        }
        t.reset();
        assert_eq!(t.spillover(), 0);
        assert_eq!(t.acts_since_reset(), 0);
        assert_eq!(t.estimate(RowId(1)), None);
        assert_eq!(t.iter().count(), 0);
        t.assert_index_consistency();
        // Overflow bits cleared: entry becomes evictable again.
        t.process_activation(RowId(2));
        assert!(t.is_tracked(RowId(2)));
    }

    #[test]
    fn cam_stats_per_figure_5() {
        let mut t = CounterTable::new(2, 100);
        // Insert (replacement of an empty slot): addr search + count search +
        // addr write + count write.
        t.process_activation(RowId(1));
        let s = *t.cam_stats();
        assert_eq!(
            (s.addr_searches, s.count_searches, s.addr_writes, s.count_writes),
            (1, 1, 1, 1)
        );
        // Hit: +1 addr search, +1 count write.
        t.process_activation(RowId(1));
        let s = *t.cam_stats();
        assert_eq!((s.addr_searches, s.count_writes), (2, 2));
        // Fill the other slot then miss without a match: spillover increment.
        t.process_activation(RowId(2));
        t.process_activation(RowId(3)); // both slots count 1+, spillover 0 → no match? slot2 has low 1 ≠ 0 → increment
        let s = *t.cam_stats();
        assert_eq!(s.spillover_increments, 1);
    }

    #[test]
    fn trigger_on_replacement_inheriting_near_t_count() {
        // Degenerate sizing where spillover + 1 can reach T: the trigger must
        // still fire on the replacement path.
        let mut t = CounterTable::new(1, 3);
        // Raise spillover to 2 while slot is pinned by row 0 at count 3...
        // Simpler: row 0 occupies the slot with count 1; two distinct misses
        // raise spillover to 2? No: slot low=1, spillover 0→ miss '1': no
        // match(low1≠0)→spill 1; miss '2': match(low1==1)→replace, low=2.
        t.process_activation(RowId(0)); // slot: (0, low 1)
        t.process_activation(RowId(1)); // spillover 1
        let u = t.process_activation(RowId(2)); // replaces, low 1+1=2
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(0)), triggered: false });
        t.process_activation(RowId(3)); // low2≠spill1 → spillover 2
        let u = t.process_activation(RowId(4)); // replaces slot(low2==2), low 3 == T → trigger
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(2)), triggered: true });
        t.assert_index_consistency();
    }

    #[test]
    fn lowest_slot_wins_replacement_ties() {
        // Three empty slots all match spillover 0: the scan must pick slot
        // 0, then 1, then 2.
        let mut t = CounterTable::new(3, 100);
        t.process_activation(RowId(10));
        t.process_activation(RowId(11));
        t.process_activation(RowId(12));
        assert_eq!(t.estimate(RowId(10)), Some(1));
        // Raise spillover to 1: all three slots (low 1) now tie again.
        t.process_activation(RowId(13)); // no slot has low 0 → spillover 1
        assert_eq!(t.spillover(), 1);
        // Next miss must replace slot 0 (row 10), the lowest matching index.
        let u = t.process_activation(RowId(14));
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(10)), triggered: false });
        assert!(!t.is_tracked(RowId(10)));
        assert!(t.is_tracked(RowId(11)));
        t.assert_index_consistency();
    }

    #[test]
    fn stale_key_on_invalidated_slot_never_matches() {
        // Reset clears the valid bits but the key lane keeps stale bytes;
        // only valid slots may answer a search.
        let mut t = CounterTable::new(2, 100);
        t.process_activation(RowId(7));
        t.reset();
        assert!(!t.is_tracked(RowId(7)));
        assert_eq!(t.estimate(RowId(7)), None);
        // Row 0 is a legitimate address and fresh slots hold key 0: an
        // unoccupied slot must not answer for it either.
        assert!(!t.is_tracked(RowId(0)));
    }

    #[test]
    fn scan_covers_the_chunk_remainder() {
        // Capacity above one count-scan chunk with a non-multiple remainder:
        // rows must still land in the tail slots and stay searchable.
        let n = SCAN_LANES + 5;
        let mut t = CounterTable::new(n, 1_000);
        for r in 0..n as u32 {
            t.process_activation(RowId(r));
        }
        assert_eq!(t.occupancy(), n);
        for r in 0..n as u32 {
            assert_eq!(t.process_activation(RowId(r)), TableUpdate::Hit { triggered: false });
            assert_eq!(t.estimate(RowId(r)), Some(2));
        }
        t.assert_index_consistency();
    }

    #[test]
    fn parity_clean_through_normal_operation() {
        let mut t = CounterTable::new(4, 7);
        for i in 0..500u64 {
            t.process_activation(RowId((i % 9) as u32));
            assert!(t.parity_clean(), "act {i}");
        }
        t.reset();
        assert!(t.parity_clean());
    }

    #[test]
    fn count_bit_flip_trips_parity_and_can_kill_the_trigger() {
        // T = 5 needs a 3-bit field, so a flip can push the count to 7 > T.
        let mut t = CounterTable::new(2, 5);
        for _ in 0..3 {
            t.process_activation(RowId(3)); // low = 3
        }
        assert!(t.parity_clean());
        // Flip bit 2: low 3 → 7, above T − 1. Parity sees it...
        assert!(t.corrupt_count_bit(0, 2));
        assert!(!t.parity_clean());
        assert_eq!(t.parity_violations().0, vec![0]);
        // ...and without intervention the `== T` wrap comparator never fires
        // again: the count sails past T without ever equalling it.
        for i in 0..200u64 {
            assert!(!t.process_activation(RowId(3)).triggered(), "act {i}");
        }
        t.assert_index_consistency();
    }

    #[test]
    fn count_flip_below_the_spillover_stops_trusting_the_cursor() {
        // The flip drops slot 1 below the spillover; the next count search
        // matches slot 2, and a hit then raises slot 1 back to the spillover
        // behind that match. The linear scan replaces slot 1, so must we.
        let mut t = CounterTable::new(3, 6);
        let mut linear = LinearCounterTable::new(3, 6);
        for r in [2, 6, 2, 5, 1, 0] {
            assert_eq!(t.process_activation(RowId(r)), linear.process_activation(RowId(r)));
        }
        t.corrupt_count_bit(1, 13);
        linear.corrupt_count_bit(1, 13);
        for r in [6, 0] {
            assert_eq!(t.process_activation(RowId(r)), linear.process_activation(RowId(r)));
        }
        let u = t.process_activation(RowId(1));
        assert_eq!(u, TableUpdate::Replaced { evicted: Some(RowId(0)), triggered: false });
        assert_eq!(u, linear.process_activation(RowId(1)));
        t.assert_index_consistency();
        // A reset trusts the cursor again.
        t.reset();
        assert!(t.cursor_trusted);
    }

    #[test]
    fn addr_bit_flip_redirects_the_cam_search() {
        let mut t = CounterTable::new(2, 100);
        for _ in 0..5 {
            t.process_activation(RowId(8));
        }
        assert!(t.corrupt_addr_bit(0, 1)); // row 8 → row 10
        assert!(!t.parity_clean());
        assert!(!t.is_tracked(RowId(8)));
        assert_eq!(t.estimate(RowId(10)), Some(5));
        // Empty slots are a no-op and stay parity-clean.
        let mut fresh = CounterTable::new(2, 100);
        assert!(!fresh.corrupt_addr_bit(0, 1));
        assert!(fresh.parity_clean());
    }

    #[test]
    fn spillover_bit_flip_trips_spillover_parity() {
        let mut t = CounterTable::new(1, 100);
        t.process_activation(RowId(1));
        t.process_activation(RowId(2)); // spillover 1
        assert!(t.corrupt_spillover_bit(4)); // 1 → 17
        assert_eq!(t.spillover(), 17);
        let (slots, spill) = t.parity_violations();
        assert!(slots.is_empty());
        assert!(spill);
        // A reset scrubs the corruption.
        t.reset();
        assert!(t.parity_clean());
        assert_eq!(t.spillover(), 0);
    }

    #[test]
    fn suppressed_lookup_misses_once_then_recovers() {
        let mut t = CounterTable::new(4, 100);
        for _ in 0..3 {
            t.process_activation(RowId(5)); // slot 0, count 3
        }
        t.suppress_next_lookup();
        // The suppressed search misses and row 5 is re-inserted into an
        // empty slot; counts are now split across two entries.
        let u = t.process_activation(RowId(5));
        assert!(matches!(u, TableUpdate::Replaced { evicted: None, .. }));
        // Parity cannot see a transient mismatch: no stored bit changed.
        assert!(t.parity_clean());
        // The very next search hits again (one-shot), answered by the
        // lowest matching slot — the stale original, like a real CAM's
        // priority encoder.
        assert_eq!(t.process_activation(RowId(5)), TableUpdate::Hit { triggered: false });
        assert_eq!(t.estimate(RowId(5)), Some(4));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = CounterTable::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = CounterTable::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "32-bit count lane")]
    fn oversized_threshold_panics() {
        let _ = CounterTable::new(1, u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "16-bit slot index")]
    fn oversized_table_panics() {
        let _ = CounterTable::new(MAX_ENTRIES + 1, 5);
    }

    #[test]
    fn largest_table_links_its_last_slot() {
        // The last slot's link is `u16::MAX`, the top of the link range.
        let mut t = CounterTable::new(MAX_ENTRIES, 5);
        for r in 0..MAX_ENTRIES as u32 {
            t.process_activation(RowId(r));
        }
        let last = RowId(MAX_ENTRIES as u32 - 1);
        assert_eq!(t.slot_addr(MAX_ENTRIES - 1), Some(last));
        assert_eq!(t.process_activation(last), TableUpdate::Hit { triggered: false });
        assert_eq!(t.estimate(last), Some(2));
        t.assert_index_consistency();
    }

    /// Checks the index, then every `pool` row's estimate against the
    /// reference.
    fn check_lockstep(t: &CounterTable, linear: &LinearCounterTable, pool: &[u32]) {
        t.assert_index_consistency();
        for &r in pool {
            assert_eq!(t.estimate(RowId(r)), linear.estimate(RowId(r)), "estimate of row {r}");
        }
    }

    /// Activates `row` on both tables and checks them.
    fn act_lockstep(
        t: &mut CounterTable,
        linear: &mut LinearCounterTable,
        pool: &[u32],
        row: u32,
    ) -> TableUpdate {
        let u = t.process_activation(RowId(row));
        assert_eq!(u, linear.process_activation(RowId(row)), "activation of row {row}");
        check_lockstep(t, linear, pool);
        u
    }

    /// A suppressed search of `row`, mirrored on the reference, which cannot
    /// miss on purpose: it activates an absent decoy one address bit away
    /// instead, then flips the entry the decoy landed in back to `row`.
    fn suppressed_lockstep(
        t: &mut CounterTable,
        linear: &mut LinearCounterTable,
        pool: &[u32],
        row: u32,
    ) -> TableUpdate {
        const DECOY_BIT: u32 = 31;
        let before = t.snapshot();
        t.suppress_next_lookup();
        let u = t.process_activation(RowId(row));
        assert_eq!(u, linear.process_activation(RowId(row ^ 1 << DECOY_BIT)));
        if matches!(u, TableUpdate::Replaced { .. }) {
            // A replacement always moves its slot's count off the spillover.
            let after = t.snapshot();
            let j = (0..t.capacity()).find(|&i| after.low[i] != before.low[i]).unwrap();
            linear.corrupt_addr_bit(j, DECOY_BIT);
        }
        check_lockstep(t, linear, pool);
        u
    }

    /// Raises every other entry one count past `slot`'s, then misses with
    /// `newcomer` until the count search reaches `slot` and evicts it.
    fn evict_slot(
        t: &mut CounterTable,
        linear: &mut LinearCounterTable,
        pool: &[u32],
        slot: usize,
        newcomer: u32,
    ) {
        let victim = t.slot_addr(slot).unwrap();
        for i in (0..t.capacity()).filter(|&i| i != slot) {
            let row = t.slot_addr(i).unwrap().0;
            assert_eq!(act_lockstep(t, linear, pool, row), TableUpdate::Hit { triggered: false });
        }
        for _ in 0..t.tracking_threshold() {
            match act_lockstep(t, linear, pool, newcomer) {
                TableUpdate::SpilloverIncremented => {}
                u => {
                    assert_eq!(
                        u,
                        TableUpdate::Replaced { evicted: Some(victim), triggered: false }
                    );
                    assert_eq!(t.slot_addr(slot), Some(RowId(newcomer)));
                    return;
                }
            }
        }
        panic!("slot {slot} was never evicted");
    }

    /// Number of slots on the chain headed by cell `head`.
    fn chain_len(t: &CounterTable, head: usize) -> usize {
        let mut len = 0;
        let mut link = t.links[head];
        while link != 0 {
            len += 1;
            link = t.links[usize::from(link - 1)];
        }
        len
    }

    #[test]
    fn long_chains_answer_like_the_linear_table() {
        const N: usize = 24;
        const FLIP: u32 = 22;
        let mut t = CounterTable::new(N, 50);
        let mut linear = LinearCounterTable::new(N, 50);
        // Rows of chain A whose bit-22 twins land on chain B: flipping
        // bit 22 of a slot moves it between the two chains.
        let (ab, bb) = (t.head_cell(0), t.head_cell(1 << FLIP));
        assert_ne!(ab, bb);
        let a: Vec<u32> = (0u32..)
            .filter(|&r| t.head_cell(r) == ab && t.head_cell(r ^ 1 << FLIP) == bb)
            .take(11)
            .collect();
        let b: Vec<u32> = a.iter().map(|&r| r ^ 1 << FLIP).collect();
        let filler: Vec<u32> =
            (0u32..).filter(|&r| ![ab, bb].contains(&t.head_cell(r))).take(4).collect();
        let pool: Vec<u32> = [&a[..], &b[..], &filler[..]]
            .concat()
            .into_iter()
            .flat_map(|r| [r, r ^ 1 << FLIP])
            .collect();
        let p = &pool[..];

        // Slots 0..20 alternate between the chains: ten slots on each.
        for k in 0..10 {
            act_lockstep(&mut t, &mut linear, p, a[k]);
            act_lockstep(&mut t, &mut linear, p, b[k]);
        }
        for &r in &filler {
            act_lockstep(&mut t, &mut linear, p, r);
        }
        assert_eq!((chain_len(&t, ab), chain_len(&t, bb)), (10, 10));

        // Evict from the middle of chain A into the middle of chain B, and
        // back the other way.
        evict_slot(&mut t, &mut linear, p, 8, b[10]);
        assert_eq!((chain_len(&t, ab), chain_len(&t, bb)), (9, 11));
        evict_slot(&mut t, &mut linear, p, 13, a[4]);
        assert_eq!((chain_len(&t, ab), chain_len(&t, bb)), (10, 10));

        // Address flips move slots between the chains. Slot 10 turns a[5]
        // into b[5], which slot 11 also holds: the lower slot answers.
        for slot in [10, 11, 16, 3] {
            assert!(t.corrupt_addr_bit(slot, FLIP));
            assert!(linear.corrupt_addr_bit(slot, FLIP));
            check_lockstep(&t, &linear, p);
            if slot == 10 {
                assert_eq!(t.find_slot(b[5]), Some(10));
            }
            let row = t.slot_addr(slot).unwrap().0;
            act_lockstep(&mut t, &mut linear, p, row);
        }

        // Injected misses split a[7] across two slots of chain A; the lower
        // one answers every later search.
        for _ in 0..t.tracking_threshold() {
            suppressed_lockstep(&mut t, &mut linear, p, a[7]);
            if t.iter().filter(|&(r, ..)| r == RowId(a[7])).count() == 2 {
                break;
            }
        }
        let dups: Vec<usize> = (0..N).filter(|&i| t.slot_addr(i) == Some(RowId(a[7]))).collect();
        assert_eq!(dups.len(), 2, "no duplicate of a[7] was made");
        for _ in 0..3 {
            act_lockstep(&mut t, &mut linear, p, a[7]);
            assert_eq!(t.find_slot(a[7]), Some(dups[0]));
        }

        // Churn over both chains with flips, injected misses and a reset.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let row = pool[(x >> 32) as usize % pool.len()];
            match step % 50 {
                17 => {
                    let slot = (x >> 8) as usize % N;
                    assert_eq!(t.corrupt_addr_bit(slot, FLIP), linear.corrupt_addr_bit(slot, FLIP));
                    check_lockstep(&t, &linear, p);
                }
                31 => {
                    suppressed_lockstep(&mut t, &mut linear, p, row);
                }
                _ => {
                    act_lockstep(&mut t, &mut linear, p, row);
                }
            }
            if step == 1_500 {
                t.reset();
                linear.reset();
                check_lockstep(&t, &linear, p);
            }
        }
        let mut ours: Vec<_> = t.iter().collect();
        let mut theirs: Vec<_> = linear.iter().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
        assert_eq!(t.cam_stats(), linear.cam_stats());
    }

    /// A deterministic but non-trivial activation stream: a few hot rows,
    /// a rotating cold tail, enough pressure to exercise hits, replacements,
    /// spillover increments, and overflow wraps.
    fn mixed_stream(len: u64) -> impl Iterator<Item = RowId> {
        (0..len).map(|i| {
            if i % 3 == 0 {
                RowId(7)
            } else if i % 3 == 1 {
                RowId(1000 + (i % 11) as u32)
            } else {
                RowId(50_000 + (i % 97) as u32)
            }
        })
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let mut live = CounterTable::new(8, 16);
        for row in mixed_stream(500) {
            live.process_activation(row);
        }
        let snap = live.snapshot();

        let mut resumed = CounterTable::new(8, 16);
        resumed.restore(&snap).unwrap();
        resumed.assert_index_consistency();
        assert!(resumed.parity_clean());

        // Both tables must now agree on every subsequent update, and end in
        // the same architectural state.
        for row in mixed_stream(1200).skip(500) {
            assert_eq!(live.process_activation(row), resumed.process_activation(row));
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
        resumed.assert_index_consistency();
    }

    #[test]
    fn restore_rejects_mismatched_dimensions() {
        let snap = CounterTable::new(8, 16).snapshot();
        let mut other = CounterTable::new(9, 16);
        let err = other.restore(&snap).unwrap_err();
        assert!(err.contains("8 entries"), "unexpected message: {err}");

        let mut stray = snap.clone();
        stray.valid[0] |= 1 << 8; // bit beyond entry 7
        let mut same_shape = CounterTable::new(8, 16);
        let err = same_shape.restore(&stray).unwrap_err();
        assert!(err.contains("beyond entry 7"), "unexpected message: {err}");
    }

    #[test]
    fn restore_overwrites_previous_state() {
        let mut a = CounterTable::new(4, 10);
        for _ in 0..7 {
            a.process_activation(RowId(42));
        }
        let snap = a.snapshot();

        // A table with unrelated history converges to the snapshot exactly.
        let mut b = CounterTable::new(4, 10);
        for r in [1u32, 2, 3, 4, 5, 6] {
            b.process_activation(RowId(r));
        }
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(), snap);
        assert_eq!(b.estimate(RowId(42)), Some(7));
        b.assert_index_consistency();
    }

    #[test]
    fn restore_accepts_a_row_an_address_flip_duplicated() {
        // The flip leaves row 2 in slots 0 (count 3) and 1 (count 1); the
        // restored table must pass its own check and answer from slot 0.
        let mut t = CounterTable::new(4, 100);
        for r in [2, 2, 2, 3] {
            t.process_activation(RowId(r));
        }
        assert!(t.corrupt_addr_bit(1, 0)); // row 3 → row 2
        let mut resumed = CounterTable::new(4, 100);
        resumed.restore(&t.snapshot()).unwrap();
        resumed.assert_index_consistency();
        assert_eq!(resumed.estimate(RowId(2)), Some(3));
        assert!(!resumed.is_tracked(RowId(3)));
    }
}
