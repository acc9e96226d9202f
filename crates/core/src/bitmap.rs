//! Slot-state maps: two bits per object slot.
//!
//! The paper (§4.1): "The heap metadata includes a bitmap for each heap
//! region, where one bit always stands for one object. All bits are initially
//! zero, indicating that every object is free." Keeping per-object overhead
//! to bits (versus dlmalloc's eight-byte boundary tags) is one of the two
//! features offsetting DieHard's power-of-two rounding cost (§4.5). Here the
//! map spends a second bit per object on the *reserved* state thread-local
//! magazines need ([`SlotStateMap`] has why one word must hold both), and
//! every heap in the crate — the single-owner simulator core included, in
//! its [`Plain`](crate::sync::Plain) arm — runs on this one map.
//!
//! The map never allocates after construction, so it is safe to use from
//! inside a global allocator once built over caller-provided storage
//! ([`SlotStateMap::from_storage`]).

use crate::sync::{Arm, Shared, Word};
use core::sync::atomic::Ordering;

/// Backing words of a [`SlotStateMap`].
#[derive(Debug)]
enum AtomicStorage<A: Arm> {
    Owned(Box<[Word<A>]>),
    /// Caller-provided word storage (carved out of the global allocator's
    /// mmap'd metadata arena, which must never allocate re-entrantly).
    Raw {
        ptr: *const Word<A>,
        words: usize,
    },
}

/// Per-slot states a [`SlotStateMap`] distinguishes.
///
/// The bit pattern is `reserved:live` within the slot's 2-bit field. `10`
/// (reserved without live) never occurs: reservations are created by a CAS
/// from `Free` directly to `11` and destroyed either by the commit clearing
/// only the reserved bit (`11 → 01`) or by a CAS back to `00`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// `00` — the slot is free.
    Free,
    /// `01` — the slot is live (handed to the application).
    Live,
    /// `11` — the slot is reserved by a thread-local magazine but not yet
    /// handed out; invisible to `free`/`is_live`.
    Reserved,
}

/// A lock-free map of slot states: **two** bits per object slot, packed 32
/// slots to a [`Word`].
///
/// This is the metadata structure behind the lock-free allocation fast path.
/// The paper's one-bit-per-object bitmap (§4.1) is enough under a lock, but
/// demoting the shard `SpinLock` to the slow path means three states must be
/// distinguishable in a *single* atomic word — otherwise the free path races
/// the magazine reservation overlay (a freeing thread could observe
/// "not reserved", lose the CPU while an erroneous double free releases the
/// slot and a refill re-reserves it, then clear a bit it no longer owns).
/// Pairing the live and reserved bits makes every transition a single-word
/// atomic with no second map to consult:
///
/// | transition               | operation                         | used by |
/// |--------------------------|-----------------------------------|---------|
/// | `00 → 01` claim          | `or(live)`, won iff prior 00      | alloc fast path |
/// | `00 → 11` reserve        | CAS loop                          | magazine refill (slow path) |
/// | `11 → 01` commit         | `and(!reserved)`                  | magazine handout (fast path) |
/// | `01 → 00` free           | CAS loop, fails on `00`/`11`      | free fast path |
/// | `11 → 00` release        | CAS loop                          | magazine teardown (slow path) |
///
/// Each operation is a [`Word`] update: a locked RMW, or load + store, as the
/// map's [`Arm`] says ([`crate::sync`] has the argument). The transitions,
/// their outcomes and their order are the same in every arm.
///
/// The claim is an unconditional `or` rather than a CAS loop: OR-ing the
/// live bit into `01` or `11` is a no-op, so a lost claim cannot corrupt
/// another slot's state, and the returned prior word decides the winner. One
/// probe draw therefore maps to exactly one claim attempt — probe accounting
/// under contention stays identical to the locked path's (§4.2 E[probes]).
///
/// Memory ordering (locked arm): claims and commits publish with release
/// semantics (and acquire the prior owner's writes), frees release the
/// object's contents to the next claimant, and reads acquire. The
/// single-thread arm needs none: program order covers the one thread, and
/// thread creation publishes everything it wrote to the threads that follow.
#[derive(Debug)]
pub struct SlotStateMap<A: Arm = Shared> {
    words: AtomicStorage<A>,
    slots: usize,
}

// SAFETY: `Raw` storage is exclusively owned by this map for its lifetime,
// and every access goes through atomic operations. Only the `Shared` arm may
// be reached from two threads at once: `Plain` updates are load + store.
unsafe impl<A: Arm> Send for SlotStateMap<A> {}
unsafe impl Sync for SlotStateMap<Shared> {}

/// Even bit positions: one live bit per slot in a word.
const LIVE_BITS: u64 = 0x5555_5555_5555_5555;

impl<A: Arm> SlotStateMap<A> {
    /// Slots per word (two bits each).
    const PER_WORD: usize = 32;

    /// Creates a map with `slots` slots, all [`SlotState::Free`].
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self {
            words: AtomicStorage::Owned(
                (0..slots.div_ceil(Self::PER_WORD))
                    .map(|_| Word::new(0))
                    .collect(),
            ),
            slots,
        }
    }

    /// Words of backing storage a map over `slots` slots needs.
    #[must_use]
    pub const fn words_needed(slots: usize) -> usize {
        slots.div_ceil(Self::PER_WORD)
    }

    /// Creates a map over caller-provided zeroed word storage.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of
    /// [`words_needed(slots)`](Self::words_needed) u64 words for the lifetime
    /// of the map, exclusively owned by it, zeroed, and aligned for `u64`.
    #[must_use]
    pub unsafe fn from_storage(ptr: *mut u64, slots: usize) -> Self {
        Self {
            words: AtomicStorage::Raw {
                ptr: ptr.cast::<Word<A>>(),
                words: Self::words_needed(slots),
            },
            slots,
        }
    }

    #[inline]
    fn words(&self) -> &[Word<A>] {
        match &self.words {
            AtomicStorage::Owned(v) => v,
            // SAFETY: `ptr` is valid for `words` `Word`s per the
            // `from_storage` contract (`Word` is `repr(transparent)` over
            // `AtomicU64`, which is layout-identical to u64).
            AtomicStorage::Raw { ptr, words } => unsafe {
                core::slice::from_raw_parts(*ptr, *words)
            },
        }
    }

    /// Number of slots the map covers.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.slots
    }

    /// `true` when the map covers zero slots.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }

    #[inline]
    fn check(&self, index: usize) -> (usize, u32) {
        assert!(index < self.slots, "slot index {index} out of range");
        (index / Self::PER_WORD, (index % Self::PER_WORD) as u32 * 2)
    }

    /// Reads the state of slot `index` (acquire).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    #[inline]
    pub fn state(&self, index: usize) -> SlotState {
        let (word, shift) = self.check(index);
        match (self.words()[word].load(Ordering::Acquire) >> shift) & 0b11 {
            0b00 => SlotState::Free,
            0b01 => SlotState::Live,
            _ => SlotState::Reserved,
        }
    }

    /// `true` when slot `index` is [`SlotState::Live`] — reserved slots are
    /// *not* live (they have not been handed to the application).
    #[must_use]
    #[inline]
    pub fn is_live(&self, index: usize) -> bool {
        self.state(index) == SlotState::Live
    }

    /// `true` when slot `index` is not free (live or reserved) — the
    /// occupancy the probe loop and 1/M threshold see.
    #[must_use]
    #[inline]
    pub fn is_occupied(&self, index: usize) -> bool {
        self.state(index) != SlotState::Free
    }

    /// The allocation fast path's claim: `00 → 01` via one `or`.
    /// Returns `true` when this caller won the slot (it was free).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn claim_live(&self, index: usize) -> bool {
        let (word, shift) = self.check(index);
        // OR-ing the live bit into 01 (live) or 11 (reserved) changes
        // nothing, so a losing claim is harmless; the prior word decides.
        let prior = self.words()[word].or(1u64 << shift, Ordering::AcqRel);
        (prior >> shift) & 0b11 == 0b00
    }

    /// The magazine refill's reservation: `00 → 11` via CAS. Returns `true`
    /// when the reservation was taken (the slot was free).
    ///
    /// A CAS (not `or`) because OR-ing both bits into a live slot
    /// would silently turn `01` into `11`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn reserve(&self, index: usize) -> bool {
        self.transition(index, 0b00, 0b11)
    }

    /// The magazine handout's commit: `11 → 01` via one `and`. The slot
    /// becomes live without a lock.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` (always), or if the slot was not reserved
    /// (debug builds).
    #[inline]
    pub fn commit(&self, index: usize) {
        let (word, shift) = self.check(index);
        let prior = self.words()[word].and(!(1u64 << (shift + 1)), Ordering::AcqRel);
        debug_assert_eq!(
            (prior >> shift) & 0b11,
            0b11,
            "commit of slot {index} which was not reserved"
        );
    }

    /// The free fast path: `01 → 00` via CAS. Returns the state the slot was
    /// actually in — [`SlotState::Live`] means the free succeeded; `Free`
    /// (double/invalid free) and `Reserved` (not yet handed out) mean it was
    /// ignored, per §4.3.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn free(&self, index: usize) -> SlotState {
        let (word, shift) = self.check(index);
        let words = self.words();
        let mut cur = words[word].load(Ordering::Acquire);
        loop {
            match (cur >> shift) & 0b11 {
                0b00 => return SlotState::Free,
                0b01 => {}
                _ => return SlotState::Reserved,
            }
            match words[word].compare_set_weak(
                cur,
                cur & !(0b11u64 << shift),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return SlotState::Live,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The magazine teardown's release: `11 → 00` via CAS. Returns `true`
    /// when the reservation was released.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn release_reservation(&self, index: usize) -> bool {
        self.transition(index, 0b11, 0b00)
    }

    /// CAS loop taking slot `index` from 2-bit state `from` to `to`;
    /// `false` when the slot is observed in any other state.
    #[inline]
    fn transition(&self, index: usize, from: u64, to: u64) -> bool {
        let (word, shift) = self.check(index);
        let words = self.words();
        let mut cur = words[word].load(Ordering::Acquire);
        loop {
            if (cur >> shift) & 0b11 != from {
                return false;
            }
            let next = (cur & !(0b11u64 << shift)) | (to << shift);
            match words[word].compare_set_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of occupied (live **or** reserved) slots. Per-word reads are
    /// atomic but the sum is not a snapshot — exact only at quiescence.
    #[must_use]
    pub fn occupied_count(&self) -> usize {
        self.words()
            .iter()
            .map(|w| (w.load(Ordering::Relaxed) & LIVE_BITS).count_ones() as usize)
            .sum()
    }

    /// Number of reserved slots (same quiescence caveat).
    #[must_use]
    pub fn reserved_count(&self) -> usize {
        self.words()
            .iter()
            .map(|w| (w.load(Ordering::Relaxed) & !LIVE_BITS).count_ones() as usize)
            .sum()
    }

    /// Number of live slots (same quiescence caveat).
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.occupied_count() - self.reserved_count()
    }

    /// Iterates the indices of occupied (live or reserved) slots, in order.
    /// Each word is read once; the iteration is not a snapshot.
    pub fn iter_occupied(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, word)| {
            let mut live = word.load(Ordering::Relaxed) & LIVE_BITS;
            core::iter::from_fn(move || {
                (live != 0).then(|| {
                    let bit = live.trailing_zeros() as usize;
                    live &= live - 1;
                    w * Self::PER_WORD + bit / 2
                })
            })
        })
    }

    /// Iterates the indices of *live* slots only (reserved slots skipped).
    pub fn iter_live(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_occupied()
            .filter(move |&i| self.state(i) == SlotState::Live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_transitions() {
        let map = <SlotStateMap>::new(100);
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
        // Free → claim → Live.
        assert_eq!(map.state(5), SlotState::Free);
        assert!(map.claim_live(5));
        assert_eq!(map.state(5), SlotState::Live);
        assert!(map.is_live(5) && map.is_occupied(5));
        // Claiming a live slot loses without corrupting it.
        assert!(!map.claim_live(5));
        assert_eq!(map.state(5), SlotState::Live);
        // Free → reserve → Reserved (occupied but not live).
        assert!(map.reserve(6));
        assert_eq!(map.state(6), SlotState::Reserved);
        assert!(!map.is_live(6) && map.is_occupied(6));
        // Reserved slots can be neither claimed nor re-reserved nor freed.
        assert!(!map.claim_live(6));
        assert!(!map.reserve(6));
        assert_eq!(map.free(6), SlotState::Reserved);
        assert_eq!(map.state(6), SlotState::Reserved);
        // Commit hands the reservation out: Reserved → Live.
        map.commit(6);
        assert_eq!(map.state(6), SlotState::Live);
        // Free only succeeds on a live slot, exactly once.
        assert_eq!(map.free(6), SlotState::Live);
        assert_eq!(map.state(6), SlotState::Free);
        assert_eq!(map.free(6), SlotState::Free);
        // Release only succeeds on a reserved slot.
        assert!(map.reserve(7));
        assert!(map.release_reservation(7));
        assert_eq!(map.state(7), SlotState::Free);
        assert!(!map.release_reservation(7));
        assert!(map.claim_live(7));
        assert!(!map.release_reservation(7));
        assert_eq!(map.state(7), SlotState::Live);
    }

    #[test]
    fn slot_state_counts_and_iteration() {
        let map = <SlotStateMap>::new(130);
        for i in [0usize, 31, 32, 33, 129] {
            assert!(map.claim_live(i));
        }
        for i in [1usize, 64] {
            assert!(map.reserve(i));
        }
        assert_eq!(map.occupied_count(), 7);
        assert_eq!(map.reserved_count(), 2);
        assert_eq!(map.live_count(), 5);
        let occupied: Vec<usize> = map.iter_occupied().collect();
        assert_eq!(occupied, vec![0, 1, 31, 32, 33, 64, 129]);
        let live: Vec<usize> = map.iter_live().collect();
        assert_eq!(live, vec![0, 31, 32, 33, 129]);
    }

    #[test]
    fn slot_state_map_over_raw_storage() {
        let mut backing = vec![0u64; <SlotStateMap>::words_needed(100)];
        // SAFETY: `backing` outlives `map`, is zeroed, and is not otherwise
        // accessed while `map` lives.
        let map = unsafe { <SlotStateMap>::from_storage(backing.as_mut_ptr(), 100) };
        assert!(map.claim_live(40));
        assert!(map.is_live(40));
        assert_eq!(map.occupied_count(), 1);
        drop(map);
        assert_ne!(backing[1], 0, "slot 40's pair lives in word 1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_state_map_out_of_range_panics() {
        <SlotStateMap>::new(10).claim_live(10);
    }

    /// The targeted two-thread claim race: every round, both threads race a
    /// `claim_live` on the *same* slot. Exactly one must win, and the loser's
    /// failed claim must leave the winner's state intact.
    #[test]
    fn two_thread_claim_race_has_exactly_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering as O};
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 2000;
        let map = Arc::new(<SlotStateMap>::new(ROUNDS));
        let barrier = Arc::new(Barrier::new(2));
        let wins = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        std::thread::scope(|s| {
            for t in 0..2 {
                let map = Arc::clone(&map);
                let barrier = Arc::clone(&barrier);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    for slot in 0..ROUNDS {
                        barrier.wait();
                        if map.claim_live(slot) {
                            wins[t].fetch_add(1, O::Relaxed);
                        }
                    }
                });
            }
        });
        let (a, b) = (wins[0].load(O::Relaxed), wins[1].load(O::Relaxed));
        assert_eq!(a + b, ROUNDS, "every contested slot has exactly one winner");
        assert_eq!(map.occupied_count(), ROUNDS);
        for slot in 0..ROUNDS {
            assert_eq!(map.state(slot), SlotState::Live, "slot {slot}");
        }
    }

    /// Free racing reserve on the same slot must never corrupt the state:
    /// the free either beats the reservation (slot freed, then reserved) or
    /// observes it and is ignored — the ABA the paired encoding closes.
    #[test]
    fn free_vs_reserve_race_keeps_state_consistent() {
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 2000;
        let map = Arc::new(<SlotStateMap>::new(ROUNDS));
        for slot in 0..ROUNDS {
            assert!(map.claim_live(slot));
        }
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|s| {
            let freer = {
                let map = Arc::clone(&map);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut freed = 0usize;
                    for slot in 0..ROUNDS {
                        barrier.wait();
                        if map.free(slot) == SlotState::Live {
                            freed += 1;
                        }
                    }
                    freed
                })
            };
            let reserver = {
                let map = Arc::clone(&map);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut reserved = 0usize;
                    for slot in 0..ROUNDS {
                        barrier.wait();
                        // Emulates a racing refill: free the slot first (an
                        // erroneous double free may have won), then try to
                        // re-reserve it.
                        let _ = map.free(slot);
                        if map.reserve(slot) {
                            reserved += 1;
                        }
                    }
                    reserved
                })
            };
            let freed = freer.join().expect("freer");
            let reserved = reserver.join().expect("reserver");
            // Whatever the interleaving, the end state of every slot is
            // either Free (both frees lost to nothing; reserve lost to a
            // pending live state — impossible here) or Reserved.
            assert_eq!(map.reserved_count(), reserved);
            assert!(freed <= ROUNDS);
            for slot in 0..ROUNDS {
                assert_ne!(map.state(slot), SlotState::Live, "slot {slot} leaked");
            }
            assert_eq!(map.occupied_count(), reserved);
        });
    }
}
