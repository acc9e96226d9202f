//! A single size-class region: slot map, fullness accounting, random probing.
//!
//! Implements the per-region half of `DieHardMalloc`/`DieHardFree`
//! (Figure 2 of the paper): hash-table-style probing for a free slot,
//! the `1/M` fullness threshold, and the allocated-bit bookkeeping — once.
//! [`AtomicPartition`] is the one implementation, for the shipped heap and
//! the simulator alike; how each call updates its words is the thread count
//! that call read at its entry ([`crate::sync`]).
//!
//! Each partition owns its own MWC stream, so a partition is a complete,
//! independently-lockable *shard* of the heap: no shared RNG (or any other
//! shared mutable state) couples allocations in different size classes. It
//! works purely in slot indices; converting indices to byte offsets (or
//! machine pointers) is the enclosing heap's job, so the simulated heap and
//! the real `mmap`-backed heap share the exact same placement logic.

use crate::bitmap::{SlotState, SlotStateMap};
use crate::config::HeapConfig;
use crate::rng::AtomicMwc;
use crate::size_class::SizeClass;
use crate::sync::{sole_thread, Rmw, Word};
use core::sync::atomic::{AtomicU64, Ordering};

/// [`AtomicPartition`] under the name the frozen `benchmark/` package
/// imports.
pub type Partition = AtomicPartition;

/// One size-class region of the DieHard heap, probed and claimed entirely
/// through [`Word`] updates so allocation and free never take a lock.
///
/// Slot state lives in a one-bit-per-slot [`SlotStateMap`], probe indices come
/// from a CAS-advanced [`AtomicMwc`], and the `1/M` cap is enforced by a
/// ticket on an `in_use` counter. Every update of those three, and of the
/// probe counter, is a [`Word`] update: a locked RMW, or load + store while
/// the process has one thread (read once per call and carried down as
/// `sole`, [`crate::sync`]) — same draws, same outcomes, same order in
/// either arm. The determinism contract:
///
/// * **Single-threaded histories are bit-identical across arms** for the
///   same seed — the RNG stream, the shift draw, and the win/lose outcome of
///   each claim are all the same.
/// * **Under contention the placement *sequence* may diverge** from any
///   serial execution (two threads' draws interleave one RNG stream, and a
///   lost claim redraws), but every placement is still a uniformly random
///   free slot and all accounting stays exact. This is the pinned
///   contended-retry divergence rule: determinism is per-thread-serialized
///   history, not cross-thread.
///
/// Probe accounting: one RNG draw is one probe, whether the claim then
/// loses to an already-occupied slot or to a racing claimant. Both show up
/// identically in `probe_stats`, keeping the §4.2
/// E[probes] = 1/(1 − 1/M) assertions honest.
///
/// # Why the probe loop terminates
///
/// A probing thread holds a ticket, so `in_use ≤ threshold` among successful
/// holders, and every live slot's owner holds a ticket, so
/// `live ≤ in_use ≤ threshold < capacity`: at least
/// `capacity − threshold` slots stay free while anyone probes, and each
/// probe hits a free slot with probability ≥ `1 − 1/M`. Growth only widens
/// that margin: the probe loop re-reads the packed active word every
/// iteration, so a concurrent growth step (which can raise the threshold past
/// the *old* capacity) immediately widens the draw range too — probing a
/// stale, now-fillable range can never persist for more than one draw.
///
/// # Elastic growth
///
/// An elastic partition ([`new_elastic`](Self::new_elastic)) sizes its slot
/// map for `max_capacity` up front but starts serving a smaller *active*
/// capacity, and under `1/M`-cap pressure climbs a **quarter-band ladder**
/// ([`grow_step`](Self::grow_step)): from capacity `c` by `2^⌊log2 c⌋ / 4`
/// slots, so capacities walk 4, 5, 6, 7, 8, 10, 12, 14, 16, … × `2^j` and a
/// class never holds more than a quarter more than `M` × what has been live
/// in it at once (a doubling ladder held up to twice that). §3 asks one
/// thing of a capacity — at least `M` × live, which the exact
/// `threshold = ⌊capacity / M⌋` keeps at every rung — and nothing of its
/// shape, so the draw is the one widening multiply
/// ([`AtomicMwc::below`]) whatever the capacity; for a power of two it is
/// bit for bit the shift `next_u64() >> (64 − k)`, which is why fixed heaps
/// and every pow2 history are unchanged by the ladder.
/// [`grow_to`](Self::grow_to) — called with the enclosing heap's per-class
/// maintenance lock held, so writes are serialized — publishes a larger
/// capacity and its threshold with one relaxed store; readers need no lock.
/// Two packed words make lock-free reads tear-proof:
///
/// * `active` = `capacity << 32 | threshold`: one load yields a mutually
///   consistent (draw range, `1/M` cap) pair, and there is no second copy
///   of either to fall out of step with it.
/// * `tickets` = `allocs << 32 | in_use`: the `1/M` ticket and the
///   allocation counter advance in **one** `add` (the alloc counter narrows
///   to 32 bits, wrapping mod 2³²). It is the heap's whole allocation
///   telemetry: allocations are the high half, frees are allocations minus
///   `in_use` ([`counts`](Self::counts)), so no operation pays a second
///   counter update for its statistics.
#[derive(Debug)]
pub struct AtomicPartition {
    class: SizeClass,
    /// Slot states for the *maximum* capacity: growth never moves a slot,
    /// so indices, offsets, and live state are stable across growth steps.
    map: SlotStateMap,
    max_capacity: usize,
    /// Packed `capacity << 32 | threshold` — the currently active slot count
    /// (≤ `max_capacity`) and its `1/M` cap; written only under the
    /// enclosing heap's maintenance lock, read lock-free. See the type docs.
    active: AtomicU64,
    /// Packed `allocs << 32 | in_use`. The low half is the occupancy
    /// *ticket*: alloc adds one to each half (in one RMW) before
    /// claiming a slot and backs the whole ticket out on denial, free
    /// decrements the low half after releasing a slot — so `in_use`
    /// transiently overcounts, never undercounts, real occupancy. The
    /// conservative direction: the `1/M` cap can deny an allocation a racing
    /// free was about to make room for, but can never admit one past the cap.
    tickets: Word,
    rng: AtomicMwc,
    probes: Word,
}

/// Bit position of the packed capacity inside `active`.
const ACTIVE_CAPACITY_SHIFT: u32 = 32;
/// Low 32 bits of `active`: the `1/M` threshold.
const ACTIVE_THRESHOLD_MASK: u64 = u32::MAX as u64;
/// Bit position of the packed alloc counter inside `tickets`.
const TICKET_ALLOC_SHIFT: u32 = 32;
/// Low 32 bits of `tickets`: the occupancy ticket (`in_use`).
const TICKET_IN_USE_MASK: u64 = u32::MAX as u64;

/// The most slots a partition can have: its packed `active` and ticket
/// words hold slot counts in 31 bits. `HeapConfig::validate` refuses a
/// region whose 8-byte class has more.
pub const MAX_CAPACITY: usize = (TICKET_IN_USE_MASK >> 1) as usize;

/// Packs a capacity and its threshold into one `active` word. Both fit 31
/// bits: `check_geometry` bounds the maximum capacity by [`MAX_CAPACITY`],
/// and every writer keeps `threshold ≤ capacity ≤ max_capacity`.
#[inline]
fn pack_active(capacity: usize, threshold: usize) -> u64 {
    ((capacity as u64) << ACTIVE_CAPACITY_SHIFT) | threshold as u64
}

impl AtomicPartition {
    /// Creates an empty partition with `capacity` slots of which at most
    /// `threshold` may be occupied at once, probing with its own RNG stream
    /// seeded from `seed`. The partition is *fixed-size*: it never grows.
    ///
    /// # Panics
    ///
    /// Panics if `threshold > capacity` or `capacity == 0`.
    #[must_use]
    pub fn new(class: SizeClass, capacity: usize, threshold: usize, seed: u64) -> Self {
        Self::new_elastic(class, capacity, capacity, threshold, seed)
    }

    /// Creates an empty *elastic* partition: the slot map covers
    /// `max_capacity`, but only `initial_capacity` slots are active until
    /// [`grow_to`](Self::grow_to) widens the range.
    ///
    /// # Panics
    ///
    /// Panics if `initial_capacity == 0`, `initial_capacity > max_capacity`,
    /// `initial_threshold > initial_capacity`, or `max_capacity` does not
    /// fit the 32-bit packed ticket word.
    #[must_use]
    pub fn new_elastic(
        class: SizeClass,
        max_capacity: usize,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
    ) -> Self {
        Self::check_geometry(max_capacity, initial_capacity, initial_threshold);
        let map = SlotStateMap::new(max_capacity);
        Self::over(class, map, initial_capacity, initial_threshold, seed)
    }

    /// As [`new_elastic`](Self::new_elastic) but over caller-provided
    /// storage of exactly [`Self::words_needed`]`(max_capacity)` words,
    /// zeroed ([`SlotStateMap::from_storage`]) — the slot map is always
    /// sized for the maximum, so the metadata footprint is identical for
    /// fixed and elastic partitions.
    ///
    /// # Panics
    ///
    /// As [`new_elastic`](Self::new_elastic), and if `words` is not exactly
    /// that long.
    #[must_use]
    pub fn from_storage_elastic(
        class: SizeClass,
        max_capacity: usize,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
        words: &'static [Word],
    ) -> Self {
        Self::check_geometry(max_capacity, initial_capacity, initial_threshold);
        let map = SlotStateMap::from_storage(words, max_capacity);
        Self::over(class, map, initial_capacity, initial_threshold, seed)
    }

    /// An empty partition over `map`, whose length is the (checked) maximum
    /// capacity.
    fn over(
        class: SizeClass,
        map: SlotStateMap,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
    ) -> Self {
        Self {
            class,
            max_capacity: map.len(),
            map,
            active: AtomicU64::new(pack_active(initial_capacity, initial_threshold)),
            tickets: Word::new(0),
            rng: AtomicMwc::seeded(seed),
            probes: Word::new(0),
        }
    }

    fn check_geometry(max_capacity: usize, initial_capacity: usize, initial_threshold: usize) {
        assert!(initial_capacity > 0, "partition capacity must be positive");
        assert!(
            initial_capacity <= max_capacity,
            "initial capacity {initial_capacity} exceeds maximum {max_capacity}"
        );
        assert!(
            initial_threshold <= initial_capacity,
            "threshold {initial_threshold} exceeds capacity {initial_capacity}"
        );
        assert!(
            max_capacity <= MAX_CAPACITY,
            "max capacity {max_capacity} overflows the packed 32-bit ticket and active words"
        );
    }

    /// Words of metadata storage a partition of `capacity` slots needs
    /// (one bit per slot). Elastic partitions size storage for their
    /// *maximum* capacity.
    #[must_use]
    pub const fn words_needed(capacity: usize) -> usize {
        SlotStateMap::words_needed(capacity)
    }

    /// Publishes a larger active capacity and threshold, lock-free for
    /// readers. The caller must serialize writers (the enclosing heap holds
    /// its per-class maintenance lock). Existing live slots keep their
    /// indices — the map was sized for `max_capacity` up front.
    ///
    /// Capacity and threshold are one relaxed store of the packed active
    /// word, so a concurrent allocator sees the old pair or the new one,
    /// never a mix; the probe loop re-reads the word every draw, so the new
    /// range becomes visible within one iteration.
    ///
    /// # Panics
    ///
    /// Panics if `new_capacity` shrinks the partition, exceeds
    /// `max_capacity`, or `new_threshold > new_capacity`.
    pub fn grow_to(&self, new_capacity: usize, new_threshold: usize) {
        let current = self.capacity();
        assert!(
            new_capacity >= current,
            "cannot shrink partition from {current} to {new_capacity}"
        );
        assert!(
            new_capacity <= self.max_capacity,
            "capacity {new_capacity} exceeds maximum {}",
            self.max_capacity
        );
        assert!(
            new_threshold <= new_capacity,
            "threshold {new_threshold} exceeds capacity {new_capacity}"
        );
        self.active
            .store(pack_active(new_capacity, new_threshold), Ordering::Relaxed);
    }

    /// The one growth step every elastic heap takes when this partition
    /// denies at its `1/M` cap: a quarter of the capacity's power-of-two band
    /// — from `c` to `c + 2^⌊log2 c⌋ / 4`, at least one slot — repeated
    /// while `config`'s exact-integer `1/M` threshold for the new size has
    /// not risen above the current one (a step that admits no further object
    /// is no step: 4 → 6 at `M = 2`), never past the maximum, and the
    /// threshold at least 1. Draws nothing and moves nothing; same writer
    /// rule as [`grow_to`](Self::grow_to). `false`, and nothing changes,
    /// when the partition is already at its maximum.
    pub fn grow_step(&self, config: &HeapConfig) -> bool {
        let capacity = self.capacity();
        if capacity >= self.max_capacity {
            return false;
        }
        let threshold = self.threshold();
        let mut new_capacity = capacity;
        let new_threshold = loop {
            let band = 1usize << new_capacity.ilog2();
            new_capacity = (new_capacity + (band / 4).max(1)).min(self.max_capacity);
            let new_threshold = config.threshold_for(new_capacity).max(1);
            if new_threshold > threshold || new_capacity == self.max_capacity {
                break new_threshold;
            }
        };
        self.grow_to(new_capacity, new_threshold);
        true
    }

    /// The size class this partition serves.
    #[must_use]
    pub fn class(&self) -> SizeClass {
        self.class
    }

    /// Currently active slots in the region (grows toward
    /// [`max_capacity`](Self::max_capacity)).
    #[must_use]
    pub fn capacity(&self) -> usize {
        (self.active.load(Ordering::Relaxed) >> ACTIVE_CAPACITY_SHIFT) as usize
    }

    /// The capacity ceiling the slot map was sized for; fixed partitions
    /// sit at it from construction.
    #[must_use]
    pub fn max_capacity(&self) -> usize {
        self.max_capacity
    }

    /// Maximum simultaneously-occupied slots (`capacity / M`).
    #[must_use]
    pub fn threshold(&self) -> usize {
        (self.active.load(Ordering::Relaxed) & ACTIVE_THRESHOLD_MASK) as usize
    }

    /// Currently live slots — the paper's `inUse[c]` (transiently more while
    /// a racing allocation holds a ticket it has not placed or been denied).
    #[must_use]
    #[inline]
    pub fn in_use(&self) -> usize {
        (self.tickets.load(Ordering::Relaxed) & TICKET_IN_USE_MASK) as usize
    }

    /// Fraction of the region currently occupied.
    #[must_use]
    pub fn fullness(&self) -> f64 {
        self.in_use() as f64 / self.capacity() as f64
    }

    /// `true` when the region has hit its `1/M` cap.
    #[must_use]
    #[inline]
    pub fn at_threshold(&self) -> bool {
        self.in_use() >= self.threshold()
    }

    /// Draws one probe index for the range described by a loaded `active`
    /// word (the packed capacity keeps the draw and the threshold mutually
    /// consistent without locking): uniform over `[0, capacity)` by the
    /// widening multiply, which for a power of two is the shift.
    #[inline]
    fn draw(&self, sole: bool, active: u64) -> usize {
        self.rng
            .below_in(sole, (active >> ACTIVE_CAPACITY_SHIFT) as usize)
    }

    /// The ticket: `true` when one was granted against the `1/M` cap,
    /// `false` at the threshold. One `add` advances the occupancy ticket
    /// *and* the alloc counter; a denied ticket takes both back in one
    /// `sub`, so the counter counts granted tickets only.
    #[inline]
    fn take_ticket(&self, sole: bool) -> bool {
        const ONE: u64 = (1 << TICKET_ALLOC_SHIFT) | 1;
        let threshold = (self.active.load(Ordering::Relaxed) & ACTIVE_THRESHOLD_MASK) as usize;
        let prev = self.tickets.rmw(sole, Rmw::Add(ONE), Ordering::Relaxed);
        let granted = ((prev & TICKET_IN_USE_MASK) as usize) < threshold;
        if !granted {
            self.tickets.rmw(sole, Rmw::Sub(ONE), Ordering::Relaxed);
        }
        granted
    }

    /// The lock-free `DieHardMalloc` fast path: take a ticket, then probe
    /// random slots with `or` claims until one is won. `None` when the
    /// region is at its threshold ("At threshold: no more memory").
    #[inline]
    pub fn alloc(&self) -> Option<usize> {
        self.alloc_in(sole_thread())
    }

    /// [`alloc`](Self::alloc) in the arm `sole` picks: the caller's one read
    /// of the thread count ([`crate::sync`]), carried down from its entry.
    /// The probe loop, for a caller holding a ticket, draws until a claim
    /// wins a slot. Inlined whole into the heap's path, in each arm.
    #[inline(always)]
    pub(crate) fn alloc_in(&self, sole: bool) -> Option<usize> {
        if !self.take_ticket(sole) {
            return None;
        }
        let mut probes = 0u64;
        let index = loop {
            probes += 1;
            // Re-read the packed active word every draw: a concurrent grow
            // can raise the threshold past the *old* capacity, and probing
            // only the stale range could then spin on a full region. The
            // relaxed reload of a rarely-written line is free next to the
            // draw itself, and single-threaded it always reads the same
            // word — determinism is untouched.
            let index = self.draw(sole, self.active.load(Ordering::Relaxed));
            if self.map.claim(sole, index) {
                break index;
            }
        };
        // One deferred add per allocation, not per probe.
        self.probes.rmw(sole, Rmw::Add(probes), Ordering::Relaxed);
        Some(index)
    }

    /// The lock-free `DieHardFree` fast path. Returns the state the slot was
    /// in: [`SlotState::Live`] means it was freed (and the ticket returned);
    /// `Free` means the request was ignored (§4.3 — a double or invalid
    /// free).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity` — the enclosing heap validates range
    /// and alignment before calling in, so this indicates a heap bug.
    #[inline]
    pub fn free(&self, index: usize) -> SlotState {
        self.free_in(sole_thread(), index)
    }

    /// [`free`](Self::free) in the arm `sole` picks, as for
    /// [`alloc_in`](Self::alloc_in).
    #[inline]
    pub(crate) fn free_in(&self, sole: bool, index: usize) -> SlotState {
        if !self.map.free(sole, index) {
            return SlotState::Free;
        }
        // Clear-then-decrement: between the two, `in_use` overcounts, which
        // only ever errs toward denying an allocation. A live slot
        // guarantees the low half is ≥ 1, so the subtraction cannot borrow
        // into the packed alloc counter.
        self.tickets.rmw(sole, Rmw::Sub(1), Ordering::Relaxed);
        SlotState::Live
    }

    /// Whether `index` is currently live.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[must_use]
    #[inline]
    pub fn is_live(&self, index: usize) -> bool {
        self.map.is_live(index)
    }

    /// Iterates the indices of live slots — the placement set the
    /// separation statistics are computed over.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.map.iter_live()
    }

    /// Mean number of free slots between consecutive live slots, used to
    /// check the paper's E[minimum separation] = M − 1 claim (§3.1). `None`
    /// with fewer than two.
    #[must_use]
    pub fn mean_live_gap(&self) -> Option<f64> {
        let live: Vec<usize> = self.map.iter_live().collect();
        if live.len() < 2 {
            return None;
        }
        let gaps: usize = live.windows(2).map(|w| w[1] - w[0] - 1).sum();
        Some(gaps as f64 / (live.len() - 1) as f64)
    }

    /// Lifetime probe statistics: `(allocations, total probes)`. Reads are
    /// relaxed; exact at quiescence (each successful allocation's probes are
    /// added as one batch). The allocation count lives in the high half of
    /// the packed ticket word, so it is 32-bit telemetry (wraps mod 2³²) —
    /// the price of the one-RMW ticket fast path.
    #[must_use]
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.counts().0, self.probes.load(Ordering::Relaxed))
    }

    /// Lifetime `(allocations, frees)`, from one load of the ticket word:
    /// its high half, and that minus `in_use`. Both wrap mod 2³² like the
    /// high half; exact at quiescence (an in-flight ticket counts in both
    /// halves until it is placed or taken back).
    #[must_use]
    #[inline]
    pub fn counts(&self) -> (u64, u64) {
        let tickets = self.tickets.load(Ordering::Relaxed);
        let allocs = (tickets >> TICKET_ALLOC_SHIFT) as u32;
        let in_use = (tickets & TICKET_IN_USE_MASK) as u32;
        (u64::from(allocs), u64::from(allocs.wrapping_sub(in_use)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Mwc;
    use core::sync::atomic::AtomicUsize;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Under libtest, whose harness is threaded, the public calls run the
    /// locked arm; the `…_in(true, …)` calls below run the other one.
    fn part_seeded(cap: usize, thresh: usize, seed: u64) -> AtomicPartition {
        AtomicPartition::new(SizeClass::from_index(0), cap, thresh, seed)
    }

    fn part(cap: usize, thresh: usize) -> AtomicPartition {
        part_seeded(cap, thresh, 0xDEED)
    }

    #[test]
    fn alloc_until_threshold() {
        let p = part_seeded(64, 32, 1);
        let mut seen = HashSet::new();
        for _ in 0..32 {
            let idx = p.alloc().expect("below threshold");
            assert!(seen.insert(idx), "duplicate slot handed out");
            assert!(idx < 64);
        }
        assert!(p.at_threshold());
        assert_eq!(p.alloc(), None, "at threshold: no more memory");
        assert_eq!(p.in_use(), 32);
    }

    #[test]
    fn free_returns_slot_for_reuse() {
        let p = part_seeded(16, 8, 2);
        let idx = p.alloc().unwrap();
        assert!(p.is_live(idx));
        assert_eq!(p.free(idx), SlotState::Live);
        assert!(!p.is_live(idx));
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn double_free_is_ignored() {
        let p = part_seeded(16, 8, 3);
        let idx = p.alloc().unwrap();
        assert_eq!(p.free(idx), SlotState::Live);
        assert_eq!(p.free(idx), SlotState::Free, "second free must be ignored");
        assert_eq!(p.in_use(), 0, "accounting unchanged by double free");
    }

    #[test]
    fn invalid_free_of_never_allocated_slot_ignored() {
        let p = part(16, 8);
        assert_eq!(p.free(5), SlotState::Free);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn fullness_tracks_in_use() {
        let p = part_seeded(64, 32, 4);
        assert_eq!(p.fullness(), 0.0);
        for _ in 0..16 {
            p.alloc();
        }
        assert!((p.fullness() - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn expected_probes_near_formula() {
        // M = 2 ⇒ the heap is at most half full ⇒ E[probes] ≤ 2; measured
        // over a region driven to its threshold, the mean probe count from
        // an occupancy ramping 0 → 1/2 must be well under 2.
        let p = part_seeded(4096, 2048, 5);
        while p.alloc().is_some() {}
        let (allocs, probes) = p.probe_stats();
        assert_eq!(allocs, 2048);
        let mean = probes as f64 / allocs as f64;
        assert!(
            mean > 1.0 && mean < 2.0,
            "mean probes {mean} outside (1, 2) for ramp to half full"
        );
    }

    #[test]
    fn probes_at_steady_state_half_full() {
        // Hold the region exactly at threshold−1 and measure steady-state
        // probing: should approach 1/(1 − 1/M) = 2 for M = 2.
        let p = part_seeded(4096, 2048, 6);
        let mut victim_rng = Mwc::seeded(60);
        for _ in 0..2047 {
            p.alloc();
        }
        let (a0, p0) = p.probe_stats();
        let mut freed: Vec<usize> = Vec::new();
        for _ in 0..20_000 {
            let idx = p.alloc().unwrap();
            freed.push(idx);
            let victim = freed.swap_remove(victim_rng.below(freed.len()));
            p.free(victim);
        }
        let (a1, p1) = p.probe_stats();
        let mean = (p1 - p0) as f64 / (a1 - a0) as f64;
        assert!(
            (mean - 2.0).abs() < 0.15,
            "steady-state probes {mean}, expected ≈ 2"
        );
    }

    #[test]
    fn mean_gap_none_when_sparse() {
        let p = part_seeded(64, 32, 7);
        assert_eq!(p.mean_live_gap(), None);
        p.alloc();
        assert_eq!(p.mean_live_gap(), None);
        p.alloc();
        assert!(p.mean_live_gap().is_some());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        part(32, 16).grow_to(16, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn new_rejects_threshold_above_capacity() {
        part(8, 9);
    }

    #[test]
    fn plain_arm_matches_shared_arm_serially() {
        // The determinism contract: driven by one thread, the two arms of
        // the one partition replay each other bit for bit through a mixed
        // alloc/free history — placements, free outcomes, accounting, and
        // probe statistics all identical for the same seed.
        let plain = part_seeded(4096, 2048, 0xA70A1C);
        let shared = part_seeded(4096, 2048, 0xA70A1C);
        let mut victim_rng = Mwc::seeded(99);
        let mut live: Vec<usize> = Vec::new();
        for step in 0..20_000 {
            if live.is_empty() || victim_rng.chance(0.6) {
                let a = plain.alloc_in(true);
                assert_eq!(a, shared.alloc(), "placement diverged at step {step}");
                live.extend(a);
            } else {
                let victim = live.swap_remove(victim_rng.below(live.len()));
                assert_eq!(plain.free_in(true, victim), SlotState::Live);
                assert_eq!(shared.free(victim), SlotState::Live);
                // Every tenth free twice: ignored alike.
                if step % 10 == 0 {
                    assert_eq!(plain.free_in(true, victim), shared.free(victim));
                }
            }
            assert_eq!(plain.in_use(), shared.in_use());
        }
        assert_eq!(plain.probe_stats(), shared.probe_stats());
        let a: Vec<usize> = plain.live_slots().collect();
        let b: Vec<usize> = shared.live_slots().collect();
        assert_eq!(a, b);
        assert_eq!(plain.mean_live_gap(), shared.mean_live_gap());
    }

    #[test]
    fn atomic_free_validation() {
        let p = part_seeded(64, 32, 5);
        let idx = p.alloc().expect("below threshold");
        assert!(p.is_live(idx));
        assert_eq!(p.free(idx), SlotState::Live);
        assert!(!p.is_live(idx));
        assert_eq!(p.free(idx), SlotState::Free, "double free ignored");
        assert_eq!(p.in_use(), 0, "accounting unchanged by double free");
        let never = (idx + 1) % 64;
        assert_eq!(p.free(never), SlotState::Free, "invalid free ignored");
    }

    #[test]
    fn atomic_threshold_ticket_is_exact_under_contention() {
        // 4 threads hammer a small region far past its cap; the ticket
        // protocol must never admit more than `threshold` occupants and must
        // reconcile exactly after a full drain.
        use std::sync::Arc;
        let p = Arc::new(part_seeded(256, 128, 0xCA5));
        // Slots the threads hold between them, counted by the holders:
        // raised after a grant and lowered before the free, so it never
        // exceeds the partition's true occupancy and the bound on it is the
        // cap itself. (`in_use()` cannot be held to that bound while other
        // threads run: it also counts their tickets that are about to be
        // denied — the documented transient overcount.)
        let held = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (p, held) = (Arc::clone(&p), Arc::clone(&held));
                s.spawn(move || {
                    let mut rng = Mwc::seeded(t as u64 + 1);
                    let mut mine: Vec<usize> = Vec::new();
                    for _ in 0..5_000 {
                        if mine.is_empty() || rng.chance(0.55) {
                            if let Some(idx) = p.alloc() {
                                let now = held.fetch_add(1, Ordering::Relaxed) + 1;
                                assert!(now <= p.threshold(), "cap breached");
                                mine.push(idx);
                            }
                        } else {
                            let victim = mine.swap_remove(rng.below(mine.len()));
                            held.fetch_sub(1, Ordering::Relaxed);
                            assert_eq!(p.free(victim), SlotState::Live);
                        }
                    }
                    for idx in mine {
                        held.fetch_sub(1, Ordering::Relaxed);
                        assert_eq!(p.free(idx), SlotState::Live);
                    }
                });
            }
        });
        assert_eq!(held.load(Ordering::Relaxed), 0);
        assert_eq!(p.in_use(), 0, "tickets reconcile after drain");
        assert_eq!(p.live_slots().count(), 0);
        let (allocs, probes) = p.probe_stats();
        assert!(probes >= allocs, "each allocation costs at least one probe");
    }

    #[test]
    fn elastic_partition_grows_in_place() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 8, 4, 0xE1A);
        assert_eq!(p.capacity(), 8);
        assert_eq!(p.max_capacity(), 64);
        assert_eq!(p.threshold(), 4);
        let mut held = Vec::new();
        for _ in 0..4 {
            let idx = p.alloc().expect("below threshold");
            assert!(idx < 8, "draws confined to the active range");
            held.push(idx);
        }
        assert_eq!(p.alloc(), None, "at the initial 1/M cap");
        let config = HeapConfig::default(); // M = 2
        assert!(p.grow_step(&config));
        assert_eq!(p.capacity(), 10, "a quarter of the band 8..16");
        assert_eq!(p.threshold(), 5);
        for &idx in &held {
            assert!(p.is_live(idx), "growth never moves a live slot");
        }
        let idx = p.alloc().expect("grown capacity is allocatable");
        assert!(idx < 10);
        held.push(idx);
        assert_eq!(p.alloc(), None, "at the grown 1/M cap");
        let (allocs, probes) = p.probe_stats();
        assert_eq!(allocs, 5, "denied tickets leave no alloc telemetry");
        assert!(probes >= allocs);
        for idx in held {
            assert_eq!(p.free(idx), SlotState::Live);
        }
        assert_eq!(p.in_use(), 0, "tickets reconcile across growth");
        let rest: Vec<usize> = core::iter::from_fn(|| p.grow_step(&config).then(|| p.capacity()))
            .inspect(|&c| assert_eq!(p.threshold(), c / 2))
            .collect();
        assert_eq!(rest, [12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64]);
        assert!(!p.grow_step(&config), "never past the maximum");
        assert_eq!((p.capacity(), p.threshold()), (64, 32));
    }

    /// The ladder, for every class of the shipped 32 MB regions, `M` ∈ {2, 4,
    /// 8} and every power-of-two start from 64 KiB up: thresholds rise
    /// strictly and are exactly `⌊capacity / M⌋` (capacity ≥ `M` × live and
    /// free slots ≥ `(1 − 1/M)` × capacity at every rung), a step is one
    /// quarter of the capacity's band — so at most a quarter more — wherever
    /// that admits another object and the fewest such quarters where it does
    /// not, and the last one lands exactly on the maximum.
    #[test]
    fn quarter_band_ladder_keeps_the_threshold_exact_at_every_rung() {
        use crate::config::HeapGeometry;
        for m in [2.0, 4.0, 8.0] {
            let config = HeapConfig::paper_default().with_multiplier(m);
            for fraction in 0..=9 {
                let geometry = HeapGeometry::new_elastic(config.clone(), fraction).unwrap();
                for class in SizeClass::all() {
                    let max = geometry.capacity(class);
                    let start = geometry.initial_capacity(class);
                    let p = AtomicPartition::new_elastic(
                        class,
                        max,
                        start,
                        geometry.initial_threshold(class),
                        1,
                    );
                    let at = |c: usize| format!("M = {m}, class {}, at {c}", class.index());
                    let (mut capacity, mut threshold) = (start, p.threshold());
                    assert_eq!(threshold, config.threshold_for(start), "{}", at(start));
                    while p.grow_step(&config) {
                        let (next, raised) = (p.capacity(), p.threshold());
                        let quarter = (1usize << capacity.ilog2()) / 4;
                        assert!(raised > threshold, "{}", at(next));
                        assert_eq!(raised, config.threshold_for(next), "{}", at(next));
                        assert!(next <= max && (next - capacity) % quarter.max(1) == 0);
                        if quarter as f64 >= m {
                            assert_eq!(next, capacity + quarter, "{}", at(next));
                            assert!(next <= capacity + capacity / 4);
                        } else {
                            // A rung skipped admitted nothing more.
                            let skipped = next - quarter.max(1);
                            assert!(config.threshold_for(skipped) <= threshold, "{}", at(next));
                        }
                        (capacity, threshold) = (next, raised);
                    }
                    assert_eq!(capacity, max, "{}", at(capacity));
                    assert_eq!(threshold, config.threshold(class));
                    assert!(!p.grow_step(&config), "and stays there");
                    assert_eq!(p.capacity(), max);
                }
            }
        }
    }

    /// The draw at a capacity that is not a power of two: 200 000 steady-state
    /// placements in a half-full region of `6 · 2^k` slots are uniform over
    /// `[0, capacity)` (chi-square over 96 bins of 16 slots) and never reach
    /// the unused slots beyond it.
    #[test]
    fn draws_at_three_quarters_of_a_band_are_uniform_and_in_range() {
        const CAPACITY: usize = 6 << 8;
        const BINS: usize = 96;
        const PLACEMENTS: usize = 200_000;
        let p =
            AtomicPartition::new_elastic(SizeClass::from_index(0), 8 << 8, 4 << 8, 2 << 8, 0xC41);
        p.grow_to(CAPACITY, CAPACITY / 2);
        let mut victim_rng = Mwc::seeded(0x3B);
        let mut live: Vec<usize> = (0..CAPACITY / 2 - 1).map(|_| p.alloc().unwrap()).collect();
        let mut hist = [0u32; BINS];
        for _ in 0..PLACEMENTS {
            let idx = p.alloc().expect("one below the cap");
            assert!(idx < CAPACITY, "slot {idx} is outside the active range");
            hist[idx / (CAPACITY / BINS)] += 1;
            let victim = victim_rng.below(live.len());
            p.free(core::mem::replace(&mut live[victim], idx));
        }
        let expected = (PLACEMENTS / BINS) as f64;
        let chi2: f64 = hist
            .iter()
            .map(|&n| (f64::from(n) - expected).powi(2) / expected)
            .sum();
        // 95 degrees of freedom: mean 95, the 99.9th percentile is 144.
        assert!(
            chi2 < 144.0,
            "placement chi-square {chi2:.1} over {BINS} bins"
        );
        assert!(hist.iter().all(|&n| n > 0));
    }

    #[test]
    fn elastic_partition_matches_fixed_twin_at_full_size() {
        // An elastic partition grown to max before any traffic draws the
        // exact sequence of a fixed partition (here across arms as well):
        // growth itself consumes no RNG state.
        let fixed = part_seeded(256, 128, 0x90F7);
        let elastic = AtomicPartition::new_elastic(SizeClass::from_index(0), 256, 4, 2, 0x90F7);
        elastic.grow_to(256, 128);
        for _ in 0..128 {
            assert_eq!(fixed.alloc(), elastic.alloc_in(true));
        }
        assert_eq!(fixed.probe_stats(), elastic.probe_stats());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn atomic_grow_rejects_shrinking() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 32, 16, 1);
        p.grow_to(16, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds maximum")]
    fn atomic_grow_rejects_overflowing_the_map() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 32, 16, 1);
        p.grow_to(128, 64);
    }

    proptest! {
        /// No two live allocations ever share a slot, and accounting matches
        /// the slot map exactly under arbitrary interleavings.
        #[test]
        fn no_overlap_and_consistent_accounting(
            seed in any::<u64>(),
            ops in proptest::collection::vec(any::<bool>(), 1..400),
        ) {
            let p = part_seeded(256, 128, seed);
            let mut rng = Mwc::seeded(seed);
            let mut model: Vec<usize> = Vec::new();
            for op in ops {
                if op || model.is_empty() {
                    if let Some(idx) = p.alloc() {
                        prop_assert!(!model.contains(&idx), "slot {} double-booked", idx);
                        model.push(idx);
                    } else {
                        prop_assert!(p.at_threshold());
                    }
                } else {
                    let victim = model.swap_remove(rng.below(model.len()));
                    prop_assert_eq!(p.free(victim), SlotState::Live);
                }
                prop_assert_eq!(p.in_use(), model.len());
                let bitmap_live: HashSet<usize> = p.live_slots().collect();
                let model_live: HashSet<usize> = model.iter().copied().collect();
                prop_assert_eq!(bitmap_live, model_live);
            }
        }

        /// Freeing everything returns the partition to pristine state.
        #[test]
        fn drain_restores_empty(seed in any::<u64>(), n in 1usize..100) {
            let p = part_seeded(256, 128, seed);
            let mut live = Vec::new();
            for _ in 0..n {
                if let Some(idx) = p.alloc() {
                    live.push(idx);
                }
            }
            for idx in live {
                prop_assert_eq!(p.free(idx), SlotState::Live);
            }
            prop_assert_eq!(p.in_use(), 0);
            prop_assert_eq!(p.live_slots().count(), 0);
        }
    }
}
