//! Slot maps: one bit per object slot.
//!
//! The paper (§4.1): "The heap metadata includes a bitmap for each heap
//! region, where one bit always stands for one object. All bits are initially
//! zero, indicating that every object is free." Keeping per-object overhead
//! to bits (versus dlmalloc's eight-byte boundary tags) is one of the two
//! features offsetting DieHard's power-of-two rounding cost (§4.5). That is
//! this map: a slot is free or live, and every heap in the crate runs on
//! it.
//!
//! The map never allocates after construction, so it is safe to use from
//! inside a global allocator once built over caller-provided storage
//! ([`SlotStateMap::from_storage`]).

use crate::sync::{Rmw, Word};
use core::sync::atomic::Ordering;

/// Backing words of a [`SlotStateMap`].
#[derive(Debug)]
enum AtomicStorage {
    Owned(Box<[Word]>),
    /// Caller-provided words ([`SlotStateMap::from_storage`]): the global
    /// allocator's slice of its metadata mapping, which is never unmapped.
    Raw(&'static [Word]),
}

/// The two states a slot's bit tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// `0` — the slot is free.
    Free,
    /// `1` — the slot is live (handed to the application).
    Live,
}

/// A lock-free map of slot states: **one** bit per object slot, packed 64
/// slots to a [`Word`] — §4.1's bitmap.
///
/// Both transitions are one unconditional read-modify-write of the slot's
/// word, decided by the bit it held before:
///
/// | transition      | operation | done when        | used by |
/// |-----------------|-----------|------------------|---------|
/// | `0 → 1` claim   | `or`      | the prior bit was 0 | alloc |
/// | `1 → 0` free    | `and`     | the prior bit was 1 | free  |
///
/// OR-ing a bit that is already set, or AND-ing away one that is already
/// clear, changes nothing, so a lost claim or an ignored (double or invalid)
/// free cannot disturb any slot's state; the returned prior word decides.
/// One probe draw therefore maps to exactly one claim attempt — probe
/// accounting under contention stays identical to a serial run's (§4.2
/// E[probes]).
///
/// Each operation is a [`Word`] update: a locked RMW, or load + store, as the
/// caller's `sole` says — read once at the entry of its call
/// ([`crate::sync`] has the argument). The transitions, their outcomes and
/// their order are the same in either arm.
///
/// Memory ordering (locked arm): claims acquire the previous owner's writes
/// and frees release the object's contents to the next claimant; reads
/// acquire. The single-thread arm needs none: program order covers the one
/// thread, and thread creation publishes everything it wrote to the threads
/// that follow.
#[derive(Debug)]
pub struct SlotStateMap {
    words: AtomicStorage,
    slots: usize,
}

impl SlotStateMap {
    /// Slots per word (one bit each).
    const PER_WORD: usize = 64;

    /// Creates a map with `slots` slots, all [`SlotState::Free`].
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self {
            words: AtomicStorage::Owned(
                (0..Self::words_needed(slots))
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

    /// Creates a map over caller-provided word storage: exactly
    /// [`words_needed(slots)`](Self::words_needed) words, which should be
    /// zero — every slot free. A set bit only reads as a live slot (one the
    /// heap will not hand out until it is freed), never as an alias of
    /// another object, so "zeroed" is a precondition of the map's books,
    /// not of memory safety.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `words_needed(slots)` long.
    #[must_use]
    pub fn from_storage(words: &'static [Word], slots: usize) -> Self {
        assert_eq!(
            words.len(),
            Self::words_needed(slots),
            "slot map storage for {slots} slots"
        );
        Self {
            words: AtomicStorage::Raw(words),
            slots,
        }
    }

    #[inline]
    fn words(&self) -> &[Word] {
        match &self.words {
            AtomicStorage::Owned(words) => words,
            AtomicStorage::Raw(words) => words,
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

    /// The word holding slot `index` and the slot's bit in it.
    #[inline]
    fn check(&self, index: usize) -> (&Word, u64) {
        assert!(index < self.slots, "slot index {index} out of range");
        (
            &self.words()[index / Self::PER_WORD],
            1 << (index % Self::PER_WORD),
        )
    }

    /// Reads the state of slot `index` (acquire).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    #[inline]
    pub fn state(&self, index: usize) -> SlotState {
        if self.is_live(index) {
            SlotState::Live
        } else {
            SlotState::Free
        }
    }

    /// `true` when slot `index` is [`SlotState::Live`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    #[inline]
    pub fn is_live(&self, index: usize) -> bool {
        let (word, bit) = self.check(index);
        word.load(Ordering::Acquire) & bit != 0
    }

    /// The allocation's claim: `0 → 1` via one `or`. Returns `true` when
    /// this caller won the slot (it was free).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub(crate) fn claim(&self, sole: bool, index: usize) -> bool {
        let (word, bit) = self.check(index);
        word.rmw(sole, Rmw::Or(bit), Ordering::AcqRel) & bit == 0
    }

    /// `DieHardFree`'s bit: `1 → 0` via one `and`. Returns `true` when the
    /// slot was live and this call freed it; `false` (a double or invalid
    /// free, §4.3) changed nothing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub(crate) fn free(&self, sole: bool, index: usize) -> bool {
        let (word, bit) = self.check(index);
        word.rmw(sole, Rmw::And(!bit), Ordering::AcqRel) & bit != 0
    }

    /// Number of live slots. Per-word reads are atomic but the sum is not a
    /// snapshot — exact only at quiescence.
    #[must_use]
    pub fn live_count(&self) -> usize {
        let words = self.words().iter();
        words
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates the indices of live slots, in order. Each word is read once;
    /// the iteration is not a snapshot.
    pub fn iter_live(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, word)| {
            let mut live = word.load(Ordering::Relaxed);
            core::iter::from_fn(move || {
                (live != 0).then(|| {
                    let bit = live.trailing_zeros() as usize;
                    live &= live - 1;
                    w * Self::PER_WORD + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    //! Every update below passes `sole = false`, the locked arm: the test
    //! harness is threaded, and one of these tests races threads on a map.
    use super::*;

    #[test]
    fn slot_state_transitions() {
        let map = SlotStateMap::new(100);
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
        // Free → claim → Live.
        assert_eq!(map.state(5), SlotState::Free);
        assert!(map.claim(false, 5));
        assert_eq!(map.state(5), SlotState::Live);
        assert!(map.is_live(5));
        // Claiming a live slot loses without corrupting it.
        assert!(!map.claim(false, 5));
        assert_eq!(map.state(5), SlotState::Live);
        // Free only succeeds on a live slot, exactly once, and leaves its
        // neighbours alone.
        assert!(map.claim(false, 6));
        assert!(map.free(false, 6));
        assert_eq!(map.state(6), SlotState::Free);
        assert!(!map.free(false, 6));
        assert!(!map.free(false, 7), "never claimed");
        assert_eq!(map.state(5), SlotState::Live);
        assert_eq!(map.live_count(), 1);
    }

    #[test]
    fn slot_state_counts_and_iteration() {
        let map = SlotStateMap::new(130);
        for i in [0usize, 1, 31, 63, 64, 65, 129] {
            assert!(map.claim(false, i));
        }
        assert!(map.free(false, 1));
        assert_eq!(map.live_count(), 6);
        let live: Vec<usize> = map.iter_live().collect();
        assert_eq!(live, vec![0, 31, 63, 64, 65, 129]);
    }

    #[test]
    fn slot_state_map_over_raw_storage() {
        let words = SlotStateMap::words_needed(100);
        assert_eq!(words, 2, "one bit per slot");
        let backing: &'static [Word] = Box::leak((0..words).map(|_| Word::new(0)).collect());
        let map = SlotStateMap::from_storage(backing, 100);
        assert!(map.claim(false, 70));
        assert!(map.is_live(70));
        assert_eq!(map.live_count(), 1);
        drop(map);
        let bits: Vec<u64> = backing.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        assert_eq!(bits, [0, 1 << 6], "slot 70 is bit 6 of word 1");
    }

    #[test]
    #[should_panic(expected = "slot map storage")]
    fn slot_state_map_rejects_storage_of_the_wrong_length() {
        let backing: &'static [Word] = Box::leak(Box::new([Word::new(0), Word::new(0)]));
        let _ = SlotStateMap::from_storage(backing, 200);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_state_map_out_of_range_panics() {
        SlotStateMap::new(10).claim(false, 10);
    }

    /// The targeted two-thread claim race: every round, both threads race a
    /// claim on the *same* slot. Exactly one must win, and the loser's
    /// failed claim must leave the winner's state intact.
    #[test]
    fn two_thread_claim_race_has_exactly_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering as O};
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 2000;
        let map = Arc::new(SlotStateMap::new(ROUNDS));
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
                        if map.claim(false, slot) {
                            wins[t].fetch_add(1, O::Relaxed);
                        }
                    }
                });
            }
        });
        let (a, b) = (wins[0].load(O::Relaxed), wins[1].load(O::Relaxed));
        assert_eq!(a + b, ROUNDS, "every contested slot has exactly one winner");
        assert_eq!(map.live_count(), ROUNDS);
        for slot in 0..ROUNDS {
            assert_eq!(map.state(slot), SlotState::Live, "slot {slot}");
        }
    }
}
