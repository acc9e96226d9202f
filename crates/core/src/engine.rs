//! What the heap says and where things are: the outcome types of
//! `DieHardMalloc`/`DieHardFree` (Figure 2) and the *memory-free* offset
//! arithmetic behind them.
//!
//! The heap itself is [`Heap`] — one type,
//! twelve randomized partitions. It
//! decides where objects live (as byte offsets inside the heap span) and
//! validates frees, but never reads or writes the heap: the simulated heap
//! maps offsets into an arena, the real allocator into an `mmap`ed region,
//! and both share the conversions and §4.3 checks defined here.

use crate::config::HeapGeometry;
use crate::sharded::Heap;
use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::sync::{Rmw, Word};
use core::sync::atomic::Ordering;

/// A small-object allocation: its size class and slot index.
///
/// The byte offset of the object inside the heap span is
/// `region_base(class) + (index << class.shift())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The size class whose region holds the object.
    pub class: SizeClass,
    /// The slot index within that region.
    pub index: usize,
}

impl Slot {
    /// The object's byte size (the rounded, power-of-two class size).
    #[must_use]
    pub fn size(&self) -> usize {
        self.class.object_size()
    }
}

/// The result of `DieHardFree`'s validation pipeline (§4.3). Erroneous frees
/// are *ignored*, never fatal; the variants record why for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The object was live and is now free.
    Freed(Slot),
    /// The offset lies outside the small-object heap span; the caller should
    /// consult the large-object table (paper: "indicating it may be a large
    /// object").
    NotInHeap,
    /// The offset is inside a region but not a multiple of the object size
    /// ("the offset ... must be a multiple of the object size") — an invalid
    /// free, ignored.
    MisalignedOffset,
    /// The slot is not currently allocated — a double or invalid free,
    /// ignored.
    NotAllocated,
}

impl FreeOutcome {
    /// `true` when the free actually released an object.
    #[must_use]
    pub fn freed(&self) -> bool {
        matches!(self, FreeOutcome::Freed(_))
    }
}

/// The result of a small-object allocation attempt on a heap that can grow.
///
/// Fixed heaps only ever report `Placed` or the terminal condition; elastic
/// heaps ([`Heap::new_elastic`]) distinguish *why* a request was not placed so the caller can route
/// around exhaustion instead of treating it as OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The object was placed at this slot.
    Placed(Slot),
    /// Every growth step is exhausted: the class sits at its maximum
    /// capacity *and* its final `1/M` cap. The caller should spill the
    /// request elsewhere (the global allocator falls through to its
    /// large-object `mmap` path) rather than crash — the paper returns
    /// `NULL` here; elastic heaps return a routable signal instead.
    Spill,
    /// The request is not small-object shaped (zero or above 16 KB); no
    /// class exists for it and no stats are recorded.
    Unsupported,
}

impl AllocOutcome {
    /// The placed slot, if any — collapses the elastic outcome back to the
    /// fixed heaps' `Option` API.
    #[must_use]
    pub fn placed(self) -> Option<Slot> {
        match self {
            AllocOutcome::Placed(slot) => Some(slot),
            AllocOutcome::Spill | AllocOutcome::Unsupported => None,
        }
    }
}

/// Running counters for one heap, used by the experiment harnesses.
///
/// A *snapshot*: the heap derives `allocs` and `frees` from its partitions'
/// ticket words, which count them anyway, and keeps only the two counters
/// no ticket can answer in an [`AtomicHeapStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful small-object allocations (per class mod 2³², the width of
    /// the ticket word's allocation half).
    pub allocs: u64,
    /// Successful frees (per class, allocations minus the objects live).
    pub frees: u64,
    /// Frees ignored by validation (double/invalid frees).
    pub ignored_frees: u64,
    /// Allocation requests denied because a region hit its `1/M` cap.
    pub exhausted: u64,
}

/// The heap's lock-free counters of the two cold events: an ignored free
/// and a denial at the `1/M` cap. (Allocations and frees need none: the
/// partitions' ticket words count them.)
///
/// The heap updates these from whichever partition saw the event,
/// concurrently with every other; relaxed atomics suffice because the
/// counters carry no synchronization responsibility — they only have to end
/// up numerically exact once the threads touching the heap are joined.
/// ([`Word`]s: a locked add, or load + store while the process has one
/// thread.)
#[derive(Debug)]
pub struct AtomicHeapStats {
    ignored_frees: Word,
    exhausted: Word,
}

impl Default for AtomicHeapStats {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHeapStats {
    /// Fresh zeroed counters; `const` so they can live in a `static`
    /// allocator initialized before `main`.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            ignored_frees: Word::new(0),
            exhausted: Word::new(0),
        }
    }

    /// Frees ignored so far.
    #[must_use]
    pub fn ignored_frees(&self) -> u64 {
        self.ignored_frees.load(Ordering::Relaxed)
    }

    /// Allocations denied at the `1/M` cap so far.
    #[must_use]
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Counts one ignored (double/invalid) free. Like every `record_*`, in
    /// the arm the caller's call read once (`sole`, [`crate::sync`]).
    #[inline]
    pub(crate) fn record_ignored_free(&self, sole: bool) {
        self.ignored_frees.rmw(sole, Rmw::Add(1), Ordering::Relaxed);
    }

    /// Counts one allocation denied at the `1/M` cap.
    #[inline]
    pub(crate) fn record_exhausted(&self, sole: bool) {
        self.exhausted.rmw(sole, Rmw::Add(1), Ordering::Relaxed);
    }
}

// ---- shared offset arithmetic ------------------------------------------
//
// The byte-offset ↔ (class, slot) conversions and the §4.3 free-validation
// checks are pure functions of the precomputed [`HeapGeometry`], so the
// heap and the global allocator's bounded string functions
// run the *same* logic and none of it needs a lock. Per the paper's §4.1,
// the arithmetic is shifts and masks only: no division, modulus, or
// multiplication survives on these paths.

/// Byte offset of `slot` within a heap span laid out per `geometry`.
#[must_use]
#[inline]
pub fn slot_offset(geometry: &HeapGeometry, slot: Slot) -> usize {
    geometry.region_base(slot.class) + (slot.index << slot.class.shift())
}

/// Resolves a byte offset (any interior pointer) to the slot containing it,
/// or `None` outside the small-object span.
///
/// Two shifts and a mask: the class is `offset >> region_shift` (in range
/// exactly when the offset is inside the span), the within-region byte is
/// `offset & region_mask`, and the slot index drops the class's size bits.
#[must_use]
#[inline]
pub fn slot_at(geometry: &HeapGeometry, offset: usize) -> Option<Slot> {
    let region = offset >> geometry.region_shift();
    if region >= NUM_CLASSES {
        return None;
    }
    let class = SizeClass::from_index(region);
    let within = offset & geometry.region_mask();
    Some(Slot {
        class,
        index: within >> class.shift(),
    })
}

/// The span/alignment half of `DieHardFree`'s validation (§4.3): `Ok` names
/// the slot whose shard must be locked to complete the free; `Err` carries
/// the outcome that needs no shard at all (outside the heap, or an interior
/// pointer that is not a multiple of the object size).
///
/// # Errors
///
/// Returns `Err(FreeOutcome::NotInHeap)` or
/// `Err(FreeOutcome::MisalignedOffset)`; never any other variant.
#[inline]
pub fn locate_free(geometry: &HeapGeometry, offset: usize) -> Result<Slot, FreeOutcome> {
    let slot = slot_at(geometry, offset).ok_or(FreeOutcome::NotInHeap)?;
    // Regions are multiples of every object size, so the offset's low bits
    // are its low bits within the region.
    if offset & (slot.class.object_size() - 1) != 0 {
        return Err(FreeOutcome::MisalignedOffset);
    }
    Ok(slot)
}

/// The start the §9 adaptive experiments give [`Heap::new_elastic`]: every
/// region begins at `1/2^6 = 1/64` of its maximum capacity.
pub const DEFAULT_INITIAL_FRACTION_LOG2: u32 = 6;

/// [`Heap`] under the name the frozen `benchmark/` package imports; in-tree
/// code says `Heap`.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, engine::HeapCore};
///
/// let heap = HeapCore::new(HeapConfig::default(), 42)?;
/// let slot = heap.alloc(100).expect("space available");
/// assert_eq!(slot.size(), 128);
/// let off = heap.offset_of(slot);
/// assert!(heap.free_at(off).freed());
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
pub type HeapCore = Heap;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::rng::Mwc;
    use crate::sharded::tests::{self as both_arms, Alone};
    use proptest::prelude::*;

    // These tests drive the heap in the load + store arm (`Alone`);
    // `sharded::tests` drives it in the locked one.
    fn heap(seed: u64) -> Alone {
        Alone(Heap::new(HeapConfig::default(), seed).unwrap())
    }

    #[test]
    fn alloc_routes_to_correct_class() {
        let h = heap(1);
        for (req, expect) in [
            (1usize, 8usize),
            (8, 8),
            (24, 32),
            (4096, 4096),
            (9000, 16384),
        ] {
            let slot = h.alloc(req).unwrap();
            assert_eq!(slot.size(), expect, "request {req}");
        }
    }

    #[test]
    fn zero_and_large_requests_return_none() {
        let h = heap(2);
        assert_eq!(h.alloc(0), None);
        assert_eq!(h.alloc(16 * 1024 + 1), None);
        assert_eq!(h.stats().allocs, 0);
    }

    #[test]
    fn offset_roundtrip() {
        let h = heap(3);
        for req in [8usize, 64, 1000, 16384] {
            let slot = h.alloc(req).unwrap();
            let off = h.offset_of(slot);
            assert_eq!(h.slot_containing(off), Some(slot));
            // Interior pointers resolve to the same slot.
            assert_eq!(h.slot_containing(off + slot.size() - 1), Some(slot));
        }
    }

    #[test]
    fn free_validation_pipeline() {
        both_arms::free_validation_pipeline_in(true);
    }

    #[test]
    fn free_of_wrong_class_alignment_ignored() {
        let h = heap(5);
        // Allocate an 8-byte object, then try to free at an offset inside
        // the 16 KB region that was never allocated.
        let _ = h.alloc(8).unwrap();
        let off_16k = h.config().region_base(SizeClass::from_index(11));
        assert_eq!(h.free_at(off_16k), FreeOutcome::NotAllocated);
    }

    #[test]
    fn live_accounting() {
        let h = heap(6);
        let a = h.alloc(8).unwrap();
        let b = h.alloc(100).unwrap();
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.live_bytes(), 8 + 128);
        h.free_at(h.offset_of(a));
        assert_eq!(h.live_objects(), 1);
        h.free_at(h.offset_of(b));
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn exhaustion_counted() {
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let h = Alone(Heap::new(cfg, 7).unwrap());
        // 16 KB class has capacity 2, threshold 1 with M=2.
        assert!(h.alloc(16 * 1024).is_some());
        assert!(h.alloc(16 * 1024).is_none());
        assert_eq!(h.stats().exhausted, 1);
    }

    /// Acceptance pin for the strength-reduced probe draw: the exact
    /// (class, slot) sequence one known seed produces. The shift draw
    /// `next_u64() >> (64 - capacity_log2)` must stay bit-identical to the
    /// widening-multiply `below` it replaced — verified against the
    /// pre-geometry implementation; any drift in RNG streams, seed
    /// splitting, or the draw itself breaks this list.
    // The body is byte-for-byte what it was when `alloc` took `&mut self`,
    // `mut` binding included: it pins the history, so it is not touched.
    #[test]
    #[allow(unused_mut)]
    fn pinned_placement_sequence_for_known_seed() {
        let mut h = HeapCore::new(HeapConfig::default(), 0xD1E_4A8D).unwrap();
        let got: Vec<(usize, usize)> = [8usize, 8, 16, 100, 1000, 4000, 16384, 8, 64, 300]
            .iter()
            .map(|&sz| {
                let s = h.alloc(sz).unwrap();
                (s.class.index(), s.index)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 84456),
                (0, 3067),
                (1, 40705),
                (4, 2529),
                (7, 530),
                (9, 72),
                (11, 11),
                (0, 111613),
                (3, 6099),
                (6, 71),
            ]
        );
    }

    #[test]
    fn identical_seeds_identical_layout() {
        let a = heap(99);
        let b = heap(99);
        for req in [8, 16, 8, 300, 4000, 8, 64] {
            assert_eq!(a.alloc(req), b.alloc(req));
        }
    }

    #[test]
    fn different_seeds_different_layout() {
        let a = heap(1);
        let b = heap(2);
        let mut same = 0;
        for _ in 0..32 {
            if a.alloc(64) == b.alloc(64) {
                same += 1;
            }
        }
        assert!(
            same < 8,
            "layouts should diverge across seeds ({same}/32 agree)"
        );
    }

    #[test]
    fn live_slots_enumerates_everything() {
        let h = heap(8);
        let mut expect = Vec::new();
        for req in [8, 8, 50, 1000, 16000] {
            expect.push(h.alloc(req).unwrap());
        }
        let mut got: Vec<Slot> = h.live_slots().collect();
        let key = |s: &Slot| (s.class.index(), s.index);
        got.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(got, expect);
    }

    // ---- elastic heaps (§9's adaptive variant) ---------------------------

    fn elastic_with(config: HeapConfig, seed: u64) -> Alone {
        Alone(Heap::new_elastic(config, seed, DEFAULT_INITIAL_FRACTION_LOG2).unwrap())
    }

    fn elastic(seed: u64) -> Alone {
        elastic_with(HeapConfig::default(), seed)
    }

    #[test]
    fn starts_small() {
        let h = elastic(1);
        let c0 = SizeClass::from_index(0);
        assert_eq!(h.partition(c0).capacity(), h.config().capacity(c0) / 64);
        let committed_bytes: usize = SizeClass::all()
            .map(|c| h.partition(c).capacity() * c.object_size())
            .sum();
        assert!(committed_bytes < HeapConfig::default().heap_span() / 16);
    }

    #[test]
    fn start_capacities_are_pow2_for_the_shift_draw() {
        // A non-dyadic multiplier used to produce non-pow2 starts (e.g. a
        // minimum of 3 slots). Every start must be a power of two: steps
        // of a quarter of a power-of-two band then land exactly on the
        // power-of-two maximum, and the draw at the start is the shift.
        for cfg in [
            HeapConfig::default(),
            HeapConfig::default().with_multiplier(3.0),
            HeapConfig::default().with_multiplier(4.0 / 3.0),
        ] {
            let h = elastic_with(cfg, 9);
            for c in SizeClass::all() {
                let start = h.partition(c).capacity();
                assert!(
                    start.is_power_of_two(),
                    "class {} starts at {start}",
                    c.index()
                );
            }
        }
    }

    #[test]
    fn grows_under_pressure_and_addresses_stay_valid() {
        let h = elastic(2);
        let c0 = SizeClass::from_index(0);
        let start = h.partition(c0).capacity();
        let mut offsets = Vec::new();
        for _ in 0..start * 2 {
            let slot = h.alloc(8).expect("an elastic heap must grow, not fail");
            offsets.push(h.offset_of(slot));
        }
        assert!(h.partition(c0).capacity() > start);
        assert!(h.growth_events() > 0);
        assert_eq!(h.stats().exhausted, 0, "growth denials are not exhaustion");
        // All earlier offsets still free correctly after growth.
        for off in offsets {
            assert!(h.free_at(off).freed(), "offset {off} should still be live");
        }
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn growth_capped_at_configured_maximum() {
        let cfg = HeapConfig::default().with_region_bytes(64 * 1024);
        let h = elastic_with(cfg.clone(), 3);
        let c11 = SizeClass::from_index(11); // 16 KB: max capacity 4
        let max_cap = cfg.capacity(c11);
        let got = (0..max_cap + 4)
            .filter(|_| h.alloc(16 * 1024).is_some())
            .count();
        assert_eq!(h.partition(c11).capacity(), max_cap);
        assert_eq!(got, cfg.threshold(c11), "serves exactly the 1/M cap");
        assert_eq!(h.stats().exhausted, (max_cap + 4 - got) as u64);
        assert_eq!(Heap::new(cfg, 3).unwrap().growth_events(), 0);
    }

    #[test]
    fn double_free_ignored() {
        let h = elastic(4);
        let slot = h.alloc(64).unwrap();
        let off = h.offset_of(slot);
        assert!(h.free_at(off).freed());
        assert_eq!(h.free_at(off), FreeOutcome::NotAllocated);
        // A slot beyond the active range is inside the map, and free.
        let beyond = h.offset_of(Slot {
            class: slot.class,
            index: h.partition(slot.class).capacity(),
        });
        assert_eq!(h.free_at(beyond), FreeOutcome::NotAllocated);
    }

    #[test]
    fn offsets_disjoint_from_other_classes() {
        let h = elastic(5);
        let a = h.alloc(8).unwrap();
        let b = h.alloc(16 * 1024).unwrap();
        let (oa, ob) = (h.offset_of(a), h.offset_of(b));
        assert!(oa < h.config().region_bytes);
        assert!(ob >= 11 * h.config().region_bytes);
    }

    proptest! {
        /// Any interleaving of allocs and (valid or bogus) frees keeps the
        /// heap, in the load + store arm, consistent with a shadow model
        /// keyed by offset.
        #[test]
        fn engine_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            both_arms::matches_shadow_model(&heap(seed), true, seed, ops);
        }

        /// The shift/mask conversions agree with a division/modulus
        /// reference implementation over random geometries and offsets —
        /// in-span, out-of-span, aligned, and interior-pointer cases alike.
        #[test]
        fn shift_mask_matches_division_reference(
            region_log2 in 15u32..25, // 32 KB (minimum legal) … 16 MB
            raw_offset in proptest::prelude::any::<u64>(),
            in_span in proptest::prelude::any::<bool>(),
        ) {
            let config = HeapConfig::new().with_region_bytes(1usize << region_log2);
            let geometry = HeapGeometry::new(config.clone()).unwrap();
            // Bias half the cases into the span so the aligned/misaligned
            // branches are exercised, not just NotInHeap.
            let offset = if in_span {
                raw_offset as usize % config.heap_span()
            } else {
                raw_offset as usize
            };

            // Division-based reference for `slot_at`.
            let ref_slot = if offset >= config.heap_span() {
                None
            } else {
                let class = SizeClass::from_index(offset / config.region_bytes);
                Some(Slot {
                    class,
                    index: (offset % config.region_bytes) / class.object_size(),
                })
            };
            prop_assert_eq!(slot_at(&geometry, offset), ref_slot);

            // Division-based reference for `locate_free`.
            let ref_locate = match ref_slot {
                None => Err(FreeOutcome::NotInHeap),
                Some(slot) if offset % slot.class.object_size() != 0 => {
                    Err(FreeOutcome::MisalignedOffset)
                }
                Some(slot) => Ok(slot),
            };
            prop_assert_eq!(locate_free(&geometry, offset), ref_locate);

            // And the multiply-based reference for `slot_offset` round-trips.
            if let Some(slot) = ref_slot {
                let base = slot_offset(&geometry, slot);
                prop_assert_eq!(
                    base,
                    slot.class.index() * config.region_bytes
                        + slot.index * slot.class.object_size()
                );
                prop_assert!(base <= offset && offset < base + slot.class.object_size());
            }
        }

        /// Live objects never overlap in the offset space.
        #[test]
        fn no_byte_overlap(seed in any::<u64>(), n in 1usize..200) {
            let h = heap(seed);
            let mut intervals: Vec<(usize, usize)> = Vec::new();
            let mut rng = Mwc::seeded(seed);
            for _ in 0..n {
                let sz = 1 + rng.below(16 * 1024);
                if let Some(slot) = h.alloc(sz) {
                    let off = h.offset_of(slot);
                    intervals.push((off, off + slot.size()));
                }
            }
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
            }
        }

        /// Under arbitrary alloc/free interleavings an elastic heap never
        /// hands out overlapping objects, even across growth events.
        #[test]
        fn no_overlap_across_growth(
            seed in any::<u64>(),
            ops in proptest::collection::vec((any::<bool>(), 1usize..512), 1..300),
        ) {
            let h = elastic(seed);
            let mut live: Vec<(usize, usize)> = Vec::new(); // (offset, size)
            let mut rng = Mwc::seeded(seed);
            for (do_alloc, sz) in ops {
                if do_alloc || live.is_empty() {
                    if let Some(slot) = h.alloc(sz) {
                        let off = h.offset_of(slot);
                        for &(o, s) in &live {
                            prop_assert!(off + slot.size() <= o || o + s <= off, "overlap at {off}");
                        }
                        live.push((off, slot.size()));
                    }
                } else {
                    let (off, _) = live.swap_remove(rng.below(live.len()));
                    prop_assert!(h.free_at(off).freed());
                }
            }
        }
    }
}
