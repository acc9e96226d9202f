//! Thread-local allocation magazines: a cache in front of the lock-free heap,
//! for processes with more than one thread.
//!
//! PR 2 sharded the heap per size class and PR 6 made the per-op paths
//! lock-free, but a thread still pays one CAS-contended probe sequence per
//! allocation. This module adds the classic magazine layer (Bonwick's
//! vmem/slab per-CPU caches, adapted to DieHard's randomized placement):
//! each thread holds, per size class, a small **magazine** of pre-reserved
//! slots plus a bounded **free buffer**, so the hot paths touch shared cache
//! lines once per batch instead of once per operation.
//!
//! What the cache buys is all about other threads: the class lock taken
//! once per batch, and shared lines touched once per batch. A process with
//! one thread has neither to save — its word updates are plain loads and
//! stores (`crate::sync`) — and would pay two slot-map writes per
//! allocation (reserve, then commit) where the heap's own path pays one.
//! So the global allocator puts magazines only in front of threaded calls;
//! while its process has one thread it calls the heap's uncached
//! `try_alloc`/`free_at` directly (`global/tls.rs`).
//!
//! # Preserving the paper's guarantees
//!
//! DieHard's probabilistic memory safety (§3, §4.2) rests on objects being
//! placed *uniformly at random* over a region at most `1/M` full. The
//! magazine must not perturb either property:
//!
//! * **Uniform placement.** A refill does not carve a deterministic run of
//!   slots; it samples `K` slots by running the partition's own MWC probe
//!   loop ([`crate::partition::AtomicPartition::reserve_batch`]) under a single
//!   acquisition of the class's *maintenance* lock. Each reserved slot is
//!   therefore a uniform draw over the free slots, from the same per-class
//!   RNG stream the uncached heap would have used — for one thread
//!   performing only allocations, the magazine-served sequence is
//!   *bit-identical* to the uncached [`Heap`]'s for the same master seed
//!   (handout is FIFO in draw order).
//! * **The `1/M` occupancy cap.** Reserved slots take a regular ticket
//!   against the partition's `inUse`, so the threshold check bounds
//!   *live + reserved* — strictly conservative: the truly live fraction is
//!   always at or below the paper's cap.
//! * **No randomized-reuse shortcut.** The free buffer never hands a
//!   buffered slot back to the local thread; it flushes to the owning shard,
//!   where the slot rejoins the uniform probe space. Immediate deterministic
//!   reuse (what tcmalloc-style caches do) would gut the dangling-pointer
//!   protection of §3.3.
//!
//! # The reserved/live distinction
//!
//! A slot a magazine holds but has not handed out is **not live**: no
//! pointer to it has ever been returned, so `free_at` must ignore it and
//! `is_live_at` must report `false` (and heap statistics must not count it
//! as an allocation). Both states live in the partition's paired-bit
//! [`crate::bitmap::SlotStateMap`] — the separate atomic reserved overlay
//! this layer carried before the lock-free fast path is gone, because a
//! two-map encoding cannot make the lock-free free path race-free (a freeing
//! thread could check the overlay, lose the CPU while the slot is freed and
//! re-reserved, then clear a reservation it no longer owns). With the paired
//! encoding every transition is one atomic on one word:
//!
//! * free→reserved (`00 → 11`): a CAS inside `reserve_batch` during refill,
//!   under the class maintenance lock;
//! * reserved→live (`11 → 01`): one lock-free `fetch_and` on the owning
//!   thread (the handout — the fast path the whole layer exists for);
//! * live→free (`01 → 00`): one CAS, from the lock-free `free_at` or a
//!   free-buffer flush; a reserved slot makes the CAS fail and the free is
//!   ignored without ever consulting a second map.
//!
//! # Accounting
//!
//! [`crate::engine::AtomicHeapStats`] stays exact: a handout records one
//! alloc (the moment the application actually receives memory), a refill
//! that returns empty records one exhaustion per denied request, and a
//! free-buffer flush records its batch of frees/ignored-frees as two atomic
//! adds. Probe accounting is unchanged by batching: `reserve_batch` counts
//! draws exactly like `alloc`, so §4.2's E[probes] statistics aggregate
//! refill and direct traffic identically. Thread exit (guard drop) flushes
//! buffered frees and returns every unhanded reservation to its shard —
//! zero leaked reservations, no spurious stats.

use crate::engine::{AllocOutcome, FreeOutcome, Slot};
use crate::sharded::Heap;
use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::sync::{Arm, Shared};

/// Maximum slots a per-class magazine holds between refills.
pub const MAG_SLOTS: usize = 8;

/// Free-buffer capacity per class; a full buffer forces a flush, a
/// half-full one flushes opportunistically (`try_lock`).
pub const FREE_SLOTS: usize = 16;

/// Refill batch size for a partition with the given `1/M` threshold: small
/// regions reserve less so a handful of threads cannot park the entire
/// allowance inside magazines.
#[inline]
pub(crate) fn refill_batch(threshold: usize) -> usize {
    MAG_SLOTS.min((threshold / 8).max(1))
}

/// The heap threads put magazines in front of is [`Heap`] itself (shared
/// arm): reservations live in its slot maps and the batch logic is its own.
/// The name survives as the frozen `benchmark/` package's import path.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, magazine::MagazineHeap};
///
/// let heap = MagazineHeap::new(HeapConfig::default(), 42)?;
/// let mut cache = heap.thread_cache();
/// let slot = cache.alloc(100).expect("space available");
/// let off = heap.offset_of(slot);
/// assert!(heap.is_live_at(off));
/// cache.free_at(off);
/// drop(cache); // flushes buffered frees, returns unhanded reservations
/// assert_eq!(heap.live_objects(), 0);
/// assert_eq!(heap.reserved_slots(), 0);
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
pub type MagazineHeap = Heap<Shared>;

/// Outcome of a cached free: either queued for a batched release or
/// resolved immediately by the lock-free span/alignment validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedFree {
    /// The offset names a plausible slot; it is buffered and will be
    /// validated against the bitmap (double/invalid frees ignored) when the
    /// buffer flushes.
    Buffered,
    /// Validation failed without needing any shard: the offset is outside
    /// the heap ([`FreeOutcome::NotInHeap`]) or misaligned
    /// ([`FreeOutcome::MisalignedOffset`]).
    Rejected(FreeOutcome),
}

/// One size class's thread-local state: the magazine (FIFO over the refill
/// draw order, preserving the probe stream's sequence) and the free buffer.
#[derive(Debug, Clone, Copy, Default)]
struct ClassCache {
    mag: [usize; MAG_SLOTS],
    head: usize,
    len: usize,
    frees: [usize; FREE_SLOTS],
    flen: usize,
}

impl ClassCache {
    const EMPTY: Self = Self {
        mag: [0; MAG_SLOTS],
        head: 0,
        len: 0,
        frees: [0; FREE_SLOTS],
        flen: 0,
    };
}

/// The per-thread magazine state for all twelve classes.
///
/// Deliberately a plain, `const`-constructible value with **no heap-backed
/// members and no `Drop` impl**: the global allocator keeps one of these in
/// ELF thread-local storage, where construction and access must never
/// allocate (any allocation would re-enter the allocator being served) and
/// where `std`'s lazy TLS destructor machinery must not be triggered.
/// Callers that want automatic cleanup wrap it in a [`MagazineCache`] guard;
/// the global allocator flushes via a `pthread` key destructor instead.
#[derive(Debug, Default)]
pub struct ThreadMagazines {
    classes: [ClassCache; NUM_CLASSES],
}

impl ThreadMagazines {
    /// An empty set of magazines (usable in `const`/TLS contexts).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            classes: [ClassCache::EMPTY; NUM_CLASSES],
        }
    }

    /// Allocates `size` bytes through this thread's magazine, refilling from
    /// `heap` (one maintenance-lock acquisition per batch) when empty.
    /// Zero/oversized requests are [`AllocOutcome::Unsupported`] (nothing
    /// recorded — the large-object path's business), while an empty refill
    /// is [`AllocOutcome::Spill`] and has recorded one exhaustion for the
    /// denied request, like the uncached path. On an elastic heap the refill
    /// has already grown the class to its maximum before reporting empty, so
    /// `Spill` always means "the `1/M` cap at full size", exactly like the
    /// uncached [`Heap::try_alloc`]. Inlined whole into the global
    /// allocator's entry points; the refill is out of line. Every update it
    /// makes is in the arm `sole` picks — the caller's one read of the
    /// thread count ([`crate::sync`]); so are [`free_at`](Self::free_at)'s
    /// and [`flush`](Self::flush)'s.
    #[inline(always)]
    pub(crate) fn try_alloc<A: Arm>(
        &mut self,
        sole: bool,
        heap: &Heap<A>,
        size: usize,
    ) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        let cache = &mut self.classes[class.index()];
        if cache.len == 0 {
            let drawn = heap.refill(sole, class, &mut cache.mag);
            if drawn == 0 {
                return AllocOutcome::Spill;
            }
            cache.head = 0;
            cache.len = drawn;
        }
        let index = cache.mag[cache.head];
        cache.head += 1;
        cache.len -= 1;
        heap.commit(sole, class, index);
        AllocOutcome::Placed(Slot { class, index })
    }

    /// Frees the object at `offset` through this thread's buffer. The
    /// lock-free [`locate_free`](crate::engine::locate_free) arithmetic
    /// rejects out-of-span and misaligned offsets immediately; plausible
    /// slots are buffered per class and released in batches
    /// (opportunistically at half capacity, forced at full capacity).
    /// Inlined whole into the global allocator's entry points; the flush is
    /// out of line.
    #[inline(always)]
    pub(crate) fn free_at<A: Arm>(
        &mut self,
        sole: bool,
        heap: &Heap<A>,
        offset: usize,
    ) -> CachedFree {
        let slot = match heap.locate_free(sole, offset) {
            Ok(slot) => slot,
            Err(outcome) => return CachedFree::Rejected(outcome),
        };
        let cache = &mut self.classes[slot.class.index()];
        cache.frees[cache.flen] = slot.index;
        cache.flen += 1;
        if cache.flen >= FREE_SLOTS / 2 {
            let force = cache.flen == FREE_SLOTS;
            heap.flush_frees(sole, slot.class, &mut cache.frees, &mut cache.flen, force);
        }
        CachedFree::Buffered
    }

    /// Flushes everything: buffered frees are released (stats recorded) and
    /// unhanded reservations are returned to their shards (no stats). The
    /// thread-exit path.
    pub(crate) fn flush<A: Arm>(&mut self, sole: bool, heap: &Heap<A>) {
        for (i, cache) in self.classes.iter_mut().enumerate() {
            let class = SizeClass::from_index(i);
            heap.flush_frees(sole, class, &mut cache.frees, &mut cache.flen, true);
            let held = &cache.mag[cache.head..cache.head + cache.len];
            heap.return_reservations(sole, class, held);
            cache.head = 0;
            cache.len = 0;
        }
    }
}

/// A guard coupling a [`ThreadMagazines`] to its heap: the ergonomic façade
/// for threads using a `&Heap` directly (benches, the sim harness's A/B
/// runs, tests; [`Heap::thread_cache`] makes one). Dropping it flushes — the
/// in-process analogue of the global allocator's thread-exit flush.
#[derive(Debug)]
pub struct MagazineCache<'h, A: Arm = Shared> {
    heap: &'h Heap<A>,
    mags: ThreadMagazines,
}

impl<A: Arm> Heap<A> {
    /// A thread-local cache over this heap. Dropping the cache flushes its
    /// buffered frees and returns its unhanded reservations. Uncached
    /// `alloc`/`free_at` calls remain available, are lock-free, and
    /// interleave correctly with cached traffic.
    #[must_use]
    pub fn thread_cache(&self) -> MagazineCache<'_, A> {
        let mags = ThreadMagazines::new();
        MagazineCache { heap: self, mags }
    }
}

impl<A: Arm> MagazineCache<'_, A> {
    /// Allocates `size` bytes through the magazine; `None` for
    /// zero/oversized requests or when the class is at its `1/M` cap.
    pub fn alloc(&mut self, size: usize) -> Option<Slot> {
        self.try_alloc(size).placed()
    }

    /// Allocates with the elastic outcome surfaced, as the uncached
    /// [`Heap::try_alloc`] does: `Unsupported` records nothing, and a
    /// `Spill` (an empty refill at the class's maximum) has recorded one
    /// exhaustion.
    pub fn try_alloc(&mut self, size: usize) -> AllocOutcome {
        self.mags.try_alloc(A::sole(), self.heap, size)
    }

    /// Frees the object at `offset` through the buffer: out-of-span and
    /// misaligned offsets are rejected at once, plausible slots are buffered
    /// and validated when the buffer flushes.
    pub fn free_at(&mut self, offset: usize) -> CachedFree {
        self.mags.free_at(A::sole(), self.heap, offset)
    }

    /// Flushes buffered frees and returns unhanded reservations now, without
    /// consuming the cache.
    pub fn flush(&mut self) {
        self.mags.flush(A::sole(), self.heap);
    }
}

impl<A: Arm> Drop for MagazineCache<'_, A> {
    fn drop(&mut self) {
        self.mags.flush(A::sole(), self.heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::sync::Plain;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn heap(seed: u64) -> Heap {
        Heap::new(HeapConfig::default(), seed).unwrap()
    }

    /// For one thread performing only allocations, the magazine serves the
    /// exact slot sequence the uncached path would have: refills run the same
    /// probe loop on the same per-class stream, and handout is FIFO.
    #[test]
    fn alloc_only_sequence_matches_sharded_exactly() {
        let (cached, uncached) = (heap(0xABCD), heap(0xABCD));
        let mut cache = cached.thread_cache();
        for req in [8usize, 8, 24, 100, 1000, 4000, 16_000, 8, 64, 100, 100] {
            assert_eq!(cache.alloc(req), uncached.alloc(req), "request {req}");
        }
    }

    #[test]
    fn reserved_slots_are_not_live() {
        let h = heap(7);
        let mut cache = h.thread_cache();
        let slot = cache.alloc(64).unwrap();
        let handed = h.offset_of(slot);
        // The refill reserved a whole batch; everything but the handed-out
        // slot is reserved-not-live.
        let batch = refill_batch(h.config().threshold(slot.class));
        assert!(batch > 1, "test needs a multi-slot refill");
        assert_eq!(h.reserved_slots(), batch - 1);
        assert_eq!(h.live_objects(), 1);
        assert!(h.is_live_at(handed));

        let reserved_idx = h
            .partition(slot.class)
            .occupied_slots()
            .find(|&i| i != slot.index)
            .expect("a reserved slot exists");
        let reserved_off = h.offset_of(Slot {
            class: slot.class,
            index: reserved_idx,
        });
        assert!(
            !h.is_live_at(reserved_off),
            "reserved slot must not be live"
        );
        assert_eq!(
            h.free_at(reserved_off),
            FreeOutcome::NotAllocated,
            "freeing a reserved slot is an invalid free"
        );
        let stats = h.stats();
        assert_eq!(stats.allocs, 1, "only the handout counts");
        assert_eq!(stats.ignored_frees, 1);
        assert_eq!(stats.frees, 0);

        // The ignored free must not have released the reservation: the next
        // handouts still come from the intact magazine.
        for _ in 1..batch {
            let s = cache.alloc(64).unwrap();
            assert!(h.is_live_at(h.offset_of(s)));
        }
        assert_eq!(h.reserved_slots(), 0);
    }

    #[test]
    fn drop_returns_reservations_and_flushes_frees() {
        let h = heap(3);
        let mut offs = Vec::new();
        {
            let mut cache = h.thread_cache();
            for _ in 0..5 {
                offs.push(h.offset_of(cache.alloc(256).unwrap()));
            }
            // Buffer two frees below the opportunistic-flush threshold.
            cache.free_at(offs[0]);
            cache.free_at(offs[1]);
            assert_eq!(h.stats().frees, 0, "frees still buffered");
        }
        // Guard dropped: frees flushed, reservations returned.
        assert_eq!(h.stats().frees, 2);
        assert_eq!(h.reserved_slots(), 0);
        assert_eq!(h.live_objects(), 3);
        for &off in &offs[2..] {
            assert!(h.free_at(off).freed());
        }
        assert_eq!(h.live_objects(), 0);
        let stats = h.stats();
        assert_eq!(stats.allocs, 5);
        assert_eq!(stats.frees, 5);
        assert_eq!(stats.ignored_frees, 0);
    }

    #[test]
    fn full_free_buffer_forces_flush() {
        let h = heap(11);
        let mut cache = h.thread_cache();
        let offs: Vec<usize> = (0..FREE_SLOTS)
            .map(|_| h.offset_of(cache.alloc(8).unwrap()))
            .collect();
        for &off in &offs {
            assert_eq!(cache.free_at(off), CachedFree::Buffered);
        }
        // The buffer hit capacity at least once (opportunistic flushes may
        // have drained it earlier too — single-threaded, try_lock succeeds).
        assert_eq!(h.stats().frees, FREE_SLOTS as u64);
    }

    #[test]
    fn double_free_through_buffer_is_ignored_exactly_once() {
        let h = heap(13);
        let mut cache = h.thread_cache();
        let off = h.offset_of(cache.alloc(128).unwrap());
        cache.free_at(off);
        cache.free_at(off);
        cache.flush();
        let stats = h.stats();
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.ignored_frees, 1);
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn rejected_frees_do_not_enter_the_buffer() {
        let h = heap(17);
        let mut cache = h.thread_cache();
        let off = h.offset_of(cache.alloc(64).unwrap());
        assert_eq!(
            cache.free_at(off + 1),
            CachedFree::Rejected(FreeOutcome::MisalignedOffset)
        );
        assert_eq!(
            cache.free_at(usize::MAX / 2),
            CachedFree::Rejected(FreeOutcome::NotInHeap)
        );
        cache.flush();
        let stats = h.stats();
        assert_eq!(
            stats.ignored_frees, 1,
            "misaligned counts, not-in-heap does not"
        );
        assert_eq!(stats.frees, 0);
        assert!(h.is_live_at(off), "victim object untouched");
    }

    #[test]
    fn exhaustion_is_counted_per_denied_request() {
        // 32 KB regions: the 16 KB class has capacity 2, threshold 1.
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let h: Heap = Heap::new(cfg, 19).unwrap();
        let mut cache = h.thread_cache();
        assert!(cache.alloc(16 * 1024).is_some());
        assert!(cache.alloc(16 * 1024).is_none());
        assert!(cache.alloc(16 * 1024).is_none());
        let stats = h.stats();
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.exhausted, 2);
    }

    /// Elastic refills grow the class under the maintenance lock they
    /// already hold: the cached stack absorbs a max-capacity workload from
    /// a 1/64 start and spills — not crashes — past the final `1/M` cap.
    #[test]
    fn elastic_refills_grow_then_spill() {
        let h: Heap = Heap::new_elastic(HeapConfig::default(), 0x1A57, 6).unwrap();
        let mut cache = h.thread_cache();
        // 16 KB class: max capacity 64 (threshold 32), starting at 2.
        let mut placed = 0usize;
        loop {
            match cache.try_alloc(16 * 1024) {
                AllocOutcome::Placed(_) => placed += 1,
                AllocOutcome::Spill => break,
                AllocOutcome::Unsupported => panic!("16 KB is a supported class"),
            }
        }
        assert_eq!(placed, 32, "full-size 1/M allowance served");
        assert!(h.growth_events() >= 15, "2 -> 64 takes fifteen steps");
        assert_eq!(cache.try_alloc(16 * 1024), AllocOutcome::Spill);
        assert_eq!(cache.try_alloc(0), AllocOutcome::Unsupported);
        let stats = h.stats();
        assert_eq!(stats.allocs, 32);
        assert_eq!(stats.exhausted, 2, "each denied request counted once");
    }

    /// Single-threaded alloc-only histories are bit-identical through a
    /// cache and without one on an elastic heap: refills grow at exactly the
    /// same pressure points and growth consumes no RNG draws.
    #[test]
    fn elastic_alloc_sequence_matches_elastic_sharded() {
        let elastic = || -> Heap { Heap::new_elastic(HeapConfig::default(), 0xE1A5, 6).unwrap() };
        let (cached, uncached) = (elastic(), elastic());
        let mut cache = cached.thread_cache();
        for i in 0..2000usize {
            let req = 1 + (i * 37) % 1024;
            assert_eq!(cache.alloc(req), uncached.alloc(req), "request {i}");
        }
    }

    #[test]
    fn cached_and_uncached_traffic_interleave() {
        let h = heap(23);
        let mut cache = h.thread_cache();
        let a = cache.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        assert_ne!(a, b, "uncached alloc cannot receive a reserved slot");
        assert!(h.is_live_at(h.offset_of(a)));
        assert!(h.is_live_at(h.offset_of(b)));
        assert!(h.free_at(h.offset_of(b)).freed());
        cache.free_at(h.offset_of(a));
        cache.flush();
        assert_eq!(h.live_objects(), 0);
        let stats = h.stats();
        assert_eq!(stats.allocs, 2);
        assert_eq!(stats.frees, 2);
    }

    /// Satellite: alloc on thread A, free on thread B, thread-exit flush
    /// with zero leaked reservations, stats reconciled against a plain-arm
    /// shadow run of the same logical operation sequence.
    #[test]
    fn cross_thread_traffic_flushes_and_reconciles() {
        const N: usize = 500;
        let h = Arc::new(heap(0xC0DE));
        // Sizes stay ≤ 1 KB: the producer may run far ahead of the consumer
        // on one CPU, so every class it touches must hold its share of all N
        // objects (uniform byte sizes put half the requests in the top
        // class) plus reservations below its 1/M threshold — the 1 KB class
        // allows 512 live, the 16 KB class only 32.
        let sizes: Vec<usize> = {
            let mut rng = crate::rng::Mwc::seeded(0xC0DE);
            (0..N).map(|_| 1 + rng.below(1024)).collect()
        };
        let (tx, rx) = std::sync::mpsc::channel::<usize>();

        let producer = {
            let h = Arc::clone(&h);
            let sizes = sizes.clone();
            std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for &sz in &sizes {
                    let slot = cache.alloc(sz).expect("default heap is ample");
                    tx.send(h.offset_of(slot)).unwrap();
                }
                // cache drops here: thread-exit flush
            })
        };
        let consumer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for off in rx {
                    assert_eq!(cache.free_at(off), CachedFree::Buffered);
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();

        assert_eq!(h.reserved_slots(), 0, "zero leaked reservations");
        assert_eq!(h.live_objects(), 0);
        let stats = h.stats();

        // Shadow run: the same logical sequence (every alloc later freed)
        // through the single-owner arm must produce identical counters.
        let shadow: Heap<Plain> = Heap::new(HeapConfig::default(), 0xC0DE).unwrap();
        let mut offs = Vec::new();
        for &sz in &sizes {
            let slot = shadow.alloc(sz).unwrap();
            offs.push(shadow.offset_of(slot));
        }
        for off in offs {
            assert!(shadow.free_at(off).freed());
        }
        assert_eq!(
            stats,
            shadow.stats(),
            "magazine stats reconcile with shadow"
        );
    }

    /// The ISSUE's 8-thread stress: every class, cross-checked attempted vs
    /// served vs exhausted, with exact accounting after all caches flush.
    #[test]
    fn stress_eight_threads_exact_stats() {
        const THREADS: u64 = 8;
        const OPS: usize = 2500;
        let h = Arc::new(heap(0x57E55));
        let served = Arc::new(AtomicU64::new(0));
        let attempted = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            let served = Arc::clone(&served);
            let attempted = Arc::clone(&attempted);
            handles.push(std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                let mut rng = crate::rng::Mwc::seeded(0xF00D ^ t);
                let mut live: Vec<usize> = Vec::new();
                for _ in 0..OPS {
                    let size = 1 + rng.below(16 * 1024);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    if let Some(slot) = cache.alloc(size) {
                        served.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    if live.len() > 32 {
                        let victim = live.swap_remove(rng.below(live.len()));
                        assert_eq!(cache.free_at(victim), CachedFree::Buffered);
                    }
                }
                for off in live {
                    assert_eq!(cache.free_at(off), CachedFree::Buffered);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(h.reserved_slots(), 0, "all reservations returned");
        assert_eq!(h.live_objects(), 0, "all served objects freed");
        assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
        assert_eq!(stats.frees, stats.allocs, "each alloc freed exactly once");
        assert_eq!(stats.ignored_frees, 0);
        assert_eq!(
            stats.exhausted,
            attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
            "every failed attempt was an at-threshold denial"
        );
    }

    /// §4.2 through the magazine layer: refills sample slots with the
    /// partition's own probe loop, and reserved slots count toward the
    /// `1/M` cap, so the E[probes] = 1/(1 − 1/M) expectation holds for the
    /// cached stack too. Buffered frees let occupancy dip a few dozen slots
    /// under the cap, so the tolerance is a little wider than the sharded
    /// heap's.
    #[test]
    fn probe_expectation_holds_through_magazines() {
        const THREADS: usize = 4;
        const OPS: usize = 20_000;
        let h = Arc::new(heap(0x9E0E));
        let mut offs = Vec::new();
        while let Some(slot) = h.alloc(8) {
            offs.push(h.offset_of(slot));
        }
        // Headroom for in-flight reservations (up to MAG_SLOTS per thread)
        // plus buffered frees.
        for off in offs.drain(..THREADS * (MAG_SLOTS + FREE_SLOTS)) {
            assert!(h.free_at(off).freed());
        }
        let (a0, p0) = h.probe_stats();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for _ in 0..OPS {
                    if let Some(slot) = cache.alloc(8) {
                        cache.free_at(h.offset_of(slot));
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let (a1, p1) = h.probe_stats();
        assert!(a1 - a0 > (THREADS * OPS) as u64 / 2, "churn mostly served");
        let mean = (p1 - p0) as f64 / (a1 - a0) as f64;
        assert!(
            mean > 1.5 && mean < 2.2,
            "magazine steady-state probes {mean}, expected ≈ 2"
        );
    }

    proptest! {
        /// Shadow-model proptest: cached allocs/frees plus uncached bogus
        /// frees keep the heap consistent with an offset-keyed model.
        #[test]
        fn magazine_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            let h = heap(seed);
            let mut cache = h.thread_cache();
            let mut model: HashMap<usize, Slot> = HashMap::new();
            // Offsets freed through the cache; a slot stays in here after
            // its buffer flushes (we deliberately do not mirror the flush
            // schedule), so membership means "was cache-freed at some point
            // and not re-served since".
            let mut cache_freed: std::collections::HashSet<usize> =
                std::collections::HashSet::new();
            let mut rng = crate::rng::Mwc::seeded(seed ^ 0xABCD);
            for (op, arg) in ops {
                match op {
                    0 => {
                        if let Some(slot) = cache.alloc(arg.min(16 * 1024)) {
                            let off = h.offset_of(slot);
                            prop_assert!(!model.contains_key(&off),
                                "offset reuse while live");
                            cache_freed.remove(&off);
                            model.insert(off, slot);
                        }
                    }
                    1 => {
                        if !model.is_empty() {
                            let keys: Vec<usize> = model.keys().copied().collect();
                            let off = keys[rng.below(keys.len())];
                            prop_assert_eq!(cache.free_at(off), CachedFree::Buffered);
                            model.remove(&off);
                            cache_freed.insert(off);
                        }
                    }
                    _ => {
                        // Bogus uncached free at a random offset: must never
                        // free a live object the model doesn't know about.
                        let off = rng.below(h.heap_span() + 1000);
                        if let FreeOutcome::Freed(_) = h.free_at(off) {
                            if model.remove(&off).is_none() {
                                // The only other way a slot can be released
                                // here is a cache-freed slot whose buffered
                                // entry has not flushed yet. Flush now so
                                // the stale buffer entry cannot later kill a
                                // re-served object (the double-free hazard
                                // DieHard only defends probabilistically).
                                prop_assert!(cache_freed.remove(&off),
                                    "freed an object the model did not know");
                                cache.flush();
                            }
                        }
                    }
                }
            }
            cache.flush();
            prop_assert_eq!(h.live_objects(), model.len());
            prop_assert_eq!(h.reserved_slots(), 0);
        }
    }
}
