//! The DieHard heap: twelve shared-nothing partitions behind one
//! `DieHardMalloc`/`DieHardFree` (Figure 2), a lock-free per-op path, and
//! per-class locks demoted to slow-path maintenance.
//!
//! There is one heap type, [`Heap`], generic in the [`Arm`] its words are
//! updated in exactly as its partitions are: `Heap<Shared>` (the default;
//! `Sync` — the global allocator embeds one behind its once-initialized
//! header, and it is what `libdiehard.so` runs) and `Heap<Plain>` (always
//! load + store; `Send` but not `Sync` — the simulator's and the Monte Carlo
//! harnesses' single-owner heap). Same code, same draws, same histories.
//!
//! The paper's allocator (§4.2) is embarrassingly partitionable: each of the
//! twelve size-class regions owns its slot-state map, its `1/M` threshold,
//! and its probe loop, and `DieHardFree`'s validation resolves any offset to
//! exactly one region with pure arithmetic. [`Heap`] exploits that
//! structure twice over. First, partitions share nothing: every
//! [`AtomicPartition`] has its private CAS-advanced RNG stream (seeded by
//! splitting the master seed), so operations in *different* classes never
//! touch the same cache lines. Second, **no per-op path takes a lock at
//! all**: an allocation draws a probe index and claims the slot with one
//! `fetch_or` (retrying the draw on a lost race, exactly like re-probing an
//! occupied slot), and a free validates with lock-free arithmetic
//! ([`locate_free`]) and clears the slot with one CAS. The per-class
//! [`SpinLock`]s survive only as *maintenance locks* for slow-path batches —
//! magazine refills, free-buffer flushes, reservation teardown, growth steps —
//! where one acquisition amortizes over many slots and mutual exclusion
//! among *maintainers* (not allocators) is the point.
//!
//! Threads that want to touch shared lines once per batch put a magazine
//! cache in front of the heap ([`Heap::thread_cache`], [`crate::magazine`]);
//! the batch operations it calls — refill, commit, flush, return — are the
//! heap's methods, because the state they change is the heap's own.
//!
//! Determinism under the lock-free path — the pinned contended-retry rule:
//!
//! * single-threaded histories are **bit-identical** across both arms and
//!   through a cache for the same master seed (one partition code: same RNG
//!   stream, same shift draw, same win/lose per probe; handout is FIFO in
//!   draw order);
//! * under contention the placement *sequence* may diverge from any serial
//!   replay — concurrent threads interleave one RNG stream and a lost claim
//!   redraws — but every placement remains a uniformly random free slot,
//!   accounting stays exact, and probe statistics count draws identically
//!   (each draw is one probe, whether it loses to an occupied slot or to a
//!   racing claimant).
//!
//! The isolation property that makes the decomposition sound is DieHard's
//! own: a (validated) free in one region can never mutate another region's
//! metadata, so partitions compose without any ordering discipline — no
//! operation ever takes two maintenance locks at once.

use crate::bitmap::SlotState;
use crate::config::{ConfigError, HeapConfig, HeapGeometry};
use crate::engine::{
    locate_free, slot_at, slot_offset, AllocOutcome, AtomicHeapStats, FreeOutcome, HeapStats, Slot,
};
use crate::magazine::{refill_batch, FREE_SLOTS, MAG_SLOTS};
use crate::partition::AtomicPartition;
use crate::rng::stream_seed;
use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::sync::{Arm, Shared, SpinLock};
use core::sync::atomic::{AtomicU64, Ordering};

/// One transparent huge page: the PMD size on x86-64 and on aarch64 with
/// 4 KB base pages. Defined here, ungated, because the promotion rule below
/// is stated in it; `global::sys` re-exports it for the syscall layer.
pub const HUGE_PAGE: usize = 2 << 20;

/// The huge-page promotion seam: the one call the ungated heap layers make
/// towards whoever owns the real memory (the `global` allocator; tests
/// install counting stand-ins).
///
/// **The rule.** A class is promoted at the growth step that completes a
/// huge page, and nowhere else. After a step from capacity `c` to `c'`, with
/// the class's maintenance lock still held, the hook is handed the whole
/// huge pages of the new active range that no earlier step handed it:
/// `[whole(c), whole(c'))`, where `whole(c) = ⌊c × size / HUGE_PAGE⌋ ×
/// HUGE_PAGE`. A class's first step starts at 0 instead of `whole(c)`, so a
/// class born at or above one huge page (a 32 MB region at a start fraction
/// of `1/16` or more) gets the pages it was born with then. So the offers
/// are a closed form of the capacity ladder
/// ([`AtomicPartition::grow_step`]): the same in every arm, uncached or
/// through a cache, and whatever the class's allocation count. A heap that
/// never grows — a fixed heap, `DIEHARD_GROW=0` — is never promoted, and a
/// region smaller than a huge page has nothing one could back.
///
/// Why only whole pages, and only at a step. Advice that reached past the
/// active range would hand out memory nothing asked for: `khugepaged`
/// rebuilds a small advised range as a whole 2 MB page, and a first touch
/// in an advised region is a 2 MB fault, so a 2.5 MB range would be 4 MB
/// resident. The tail of less than one huge page stays on 4 KB pages until
/// a later step completes it. A step is taken when the class's `1/M`
/// allowance is used up, so by then `1/M` of the range is live and uniform
/// placement has touched nearly every base page of it: at `M = 2` the step
/// that completes a huge page for a class of at most 1 KiB happens with at
/// least 0.4 × 2 MiB ÷ size ≥ 819 objects live — more than the 512 small
/// faults (2 MB / 4 KB) a 2 MB zero-fill is worth, so no allocation count
/// is needed to tell a busy class from an idle one.
///
/// What it earns, on `churn_host` (`benchmark/`, 10 alternated 28 s pairs,
/// seeds 61–70): with the hook never installed, `overhead_ratio` went from
/// a median of 1.157 (IQR 0.071) to 1.234, ≈ +6.6 %, the promoting build
/// lower in 8 of 10 pairs; `rss_ratio` stayed at 2.22–2.23.
///
/// Arguments: the `ctx` word the hook was installed with, then the byte
/// offset within the heap span and the length of exactly those huge pages —
/// both multiples of [`HUGE_PAGE`] when the span is aligned to one, inside
/// the class's active range and disjoint from every earlier offer. Advise
/// it and collapse it: all of it is in use. Both are best-effort, and a
/// range is never offered again (a kernel that refuses `MADV_HUGEPAGE`
/// refuses it every time). The hook must not allocate from the heap it
/// serves, draws no random numbers and moves no object, so placement is
/// bit-identical with and without one installed.
pub type PromoteHook = fn(ctx: usize, offset: usize, len: usize);

/// The randomized small-object heap: twelve [`AtomicPartition`]s, the
/// geometry that turns their slot indices into byte offsets, and the
/// counters. Alloc and free are lock-free; one maintenance lock per size
/// class guards slow-path batches only. All operations take `&self`; which
/// arms may be shared between threads is in the module docs.
#[derive(Debug)]
pub struct Heap<A: Arm = Shared> {
    geometry: HeapGeometry,
    partitions: [AtomicPartition<A>; NUM_CLASSES],
    /// Slow-path mutual exclusion per class: magazine refills, free-buffer
    /// flushes, reservation teardown and growth steps serialize against each
    /// other here. **Never taken by `alloc`/`free_at`/`is_live_at`** — the
    /// per-op paths are lock-free by construction, and the slot-state map's
    /// atomics keep them correct against in-flight maintenance.
    maintenance: [SpinLock<()>; NUM_CLASSES],
    stats: AtomicHeapStats<A>,
    /// Per class: completed growth steps (elastic heaps; always 0 on fixed
    /// heaps). Written under the class's maintenance lock, its one writer,
    /// so an increment is a load and a store in either arm.
    growths: [AtomicU64; NUM_CLASSES],
    /// The installed [`PromoteHook`] and its `ctx` word; `None` (every heap
    /// that owns no real memory) offers nothing.
    promote: Option<(PromoteHook, usize)>,
}

/// [`Heap`] in its default, thread-safe [`Shared`] arm. The name survives as
/// the frozen `benchmark/` package's import path; in-tree code says `Heap`.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, sharded::ShardedHeap};
///
/// let heap = ShardedHeap::new(HeapConfig::default(), 42)?;
/// let slot = heap.alloc(100).expect("space available");
/// assert_eq!(slot.size(), 128);
/// let off = heap.offset_of(slot);
/// assert!(heap.is_live_at(off));
/// assert!(heap.free_at(off).freed());
/// assert!(!heap.free_at(off).freed()); // double free: ignored
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
pub type ShardedHeap = Heap<Shared>;

impl<A: Arm> Heap<A> {
    /// Creates an empty fixed-size heap; class `i` probes with the RNG
    /// stream `stream_seed(seed, i)`, so one master seed reproduces the
    /// layout in either arm.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(config: HeapConfig, seed: u64) -> Result<Self, ConfigError> {
        Self::new_elastic(config, seed, 0)
    }

    /// Creates an empty *elastic* heap — the paper's §9 "adaptive version of
    /// DieHard that grows memory regions dynamically as objects are
    /// allocated": each class starts at `1 / 2^initial_fraction_log2` of its
    /// maximum capacity (a power of two that keeps the `1/M` threshold ≥ 1;
    /// `0` is the fixed heap) and grows a quarter-band at a time
    /// ([`AtomicPartition::grow_step`]) when an allocation finds it at its
    /// cap, until the maximum, after which [`try_alloc`](Self::try_alloc)
    /// reports [`AllocOutcome::Spill`] instead of hard-failing. Regions are
    /// laid out at their maximum spacing, so growth moves no object, changes
    /// no offset and draws no random number: only the probing range — and
    /// with it §3's protection, which scales with the *current* region size —
    /// changes.
    ///
    /// ```
    /// use diehard_core::{config::HeapConfig, engine::*, sharded::Heap, size_class::SizeClass};
    ///
    /// let heap: Heap = Heap::new_elastic(HeapConfig::default(), 7, DEFAULT_INITIAL_FRACTION_LOG2)?;
    /// let class = SizeClass::from_index(0);
    /// let before = heap.partition(class).capacity();
    /// for _ in 0..before {
    ///     heap.alloc(8);
    /// }
    /// assert!(heap.partition(class).capacity() > before, "region grew under pressure");
    /// # Ok::<(), diehard_core::config::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new_elastic(
        config: HeapConfig,
        seed: u64,
        initial_fraction_log2: u32,
    ) -> Result<Self, ConfigError> {
        let geometry = HeapGeometry::new_elastic(config, initial_fraction_log2)?;
        // SAFETY: no storage is passed, so there is no contract to meet.
        Ok(unsafe { Self::build(geometry, seed, None) })
    }

    /// As [`new_elastic`](Self::new_elastic), but hosting all twelve
    /// slot-state maps in caller-provided storage so that construction
    /// performs **no heap allocation** — required when DieHard itself is the
    /// process's global allocator (metadata lives in a segregated mmap arena,
    /// §4.1). The footprint does not depend on the fraction: slot maps are
    /// always sized for the maximum capacity.
    ///
    /// # Safety
    ///
    /// `words` must point to at least
    /// [`metadata_words_needed`](Self::metadata_words_needed)`(&config)`
    /// zeroed `u64`s, valid and exclusively owned for the heap's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub unsafe fn from_raw_parts(
        config: HeapConfig,
        seed: u64,
        words: *mut u64,
        initial_fraction_log2: u32,
    ) -> Result<Self, ConfigError> {
        let geometry = HeapGeometry::new_elastic(config, initial_fraction_log2)?;
        // SAFETY: forwarded caller contract.
        Ok(unsafe { Self::build(geometry, seed, Some(words)) })
    }

    /// The one definition of the partition layout: twelve partitions, each
    /// with its private RNG stream `stream_seed(seed, class)` split from
    /// `seed`, starting at the geometry's *initial* capacity (== the maximum
    /// for fixed geometries) with slot maps sized for the maximum, so elastic
    /// growth never relayouts. The maps are carved sequentially out of
    /// `storage` when there is one and heap-allocated otherwise.
    ///
    /// # Safety
    ///
    /// `storage`, if any, meets [`from_raw_parts`](Self::from_raw_parts)'s
    /// contract.
    unsafe fn build(geometry: HeapGeometry, seed: u64, mut storage: Option<*mut u64>) -> Self {
        let partitions = core::array::from_fn(|i| {
            let c = SizeClass::from_index(i);
            let (max, start) = (geometry.capacity(c), geometry.initial_capacity(c));
            let (threshold, stream) = (geometry.initial_threshold(c), stream_seed(seed, i as u64));
            match &mut storage {
                None => AtomicPartition::new_elastic(c, max, start, threshold, stream),
                Some(cursor) => {
                    let words = *cursor;
                    // SAFETY: the caller provides enough zeroed words for the
                    // sum of all class maps; each class takes the next
                    // `words_needed(max)` of them.
                    *cursor = unsafe { words.add(AtomicPartition::<A>::words_needed(max)) };
                    unsafe {
                        AtomicPartition::from_storage_elastic(
                            c, max, start, threshold, stream, words,
                        )
                    }
                }
            }
        });
        Self {
            geometry,
            partitions,
            maintenance: core::array::from_fn(|_| SpinLock::new(())),
            stats: AtomicHeapStats::new(),
            growths: core::array::from_fn(|_| AtomicU64::new(0)),
            promote: None,
        }
    }

    /// Number of `u64` words of metadata storage
    /// [`from_raw_parts`](Self::from_raw_parts) requires for `config`: two
    /// bits per slot (live + reserved — the paired maps already encode
    /// magazine reservations, so caching adds no metadata), 32 slots per
    /// word, every class sized for its maximum capacity.
    #[must_use]
    pub fn metadata_words_needed(config: &HeapConfig) -> usize {
        SizeClass::all()
            .map(|c| AtomicPartition::<A>::words_needed(config.capacity(c)))
            .sum()
    }

    /// The heap's configuration (immutable).
    #[must_use]
    pub fn config(&self) -> &HeapConfig {
        self.geometry.config()
    }

    /// The heap's precomputed shift/mask geometry (immutable).
    #[must_use]
    #[inline]
    pub fn geometry(&self) -> &HeapGeometry {
        &self.geometry
    }

    /// Counters since construction (lock-free snapshot). Frees sitting in a
    /// thread's buffer are counted when that buffer flushes.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats.snapshot()
    }

    /// Bytes spanned by the small-object heap (12 × region size).
    #[must_use]
    pub fn heap_span(&self) -> usize {
        self.geometry.heap_span()
    }

    /// The partition serving `class` — capacity, probe statistics, layout
    /// diagnostics. No lock: the partition's own atomics make reads safe,
    /// with the usual not-a-snapshot caveat under concurrent traffic. Note
    /// its slot-state map includes reserved slots (occupied, not live);
    /// flush caches first for live-only statistics.
    #[must_use]
    #[inline]
    pub fn partition(&self, class: SizeClass) -> &AtomicPartition<A> {
        &self.partitions[class.index()]
    }

    /// Allocates `size` bytes — the lock-free fast path: a ticket against
    /// the `1/M` cap, then probe draws claimed by `fetch_or`, no lock in any
    /// branch. Returns `None` when the request is zero, larger than 16 KB
    /// (large-object path), or the class region is at its `1/M` cap (the
    /// paper returns `NULL`) — on an elastic heap, at the cap of its
    /// *maximum* capacity (see [`try_alloc`](Self::try_alloc)).
    #[inline]
    pub fn alloc(&self, size: usize) -> Option<Slot> {
        self.try_alloc(size).placed()
    }

    /// [`alloc`](Self::alloc) with the elastic outcome surfaced: a denial at
    /// the `1/M` cap grows the class (one ladder step, under the class's
    /// maintenance lock) and retries, until a denial at the maximum capacity
    /// returns [`AllocOutcome::Spill`] — the routable "spill elsewhere"
    /// signal, recorded as an exhaustion in the heap stats. On fixed heaps
    /// the growth check is one relaxed load (capacity is already maximal),
    /// so the fast path is unchanged.
    ///
    /// Reads the thread count once and carries the answer down to every
    /// update. Every `sole`-taking method below has that contract: `sole`
    /// is the one read its caller's call made at its entry
    /// ([`crate::sync`]).
    #[inline]
    pub fn try_alloc(&self, size: usize) -> AllocOutcome {
        self.try_alloc_in(A::sole(), size)
    }

    /// [`try_alloc`](Self::try_alloc) in the arm `sole` picks: the global
    /// allocator's path for a call that found the process with one thread,
    /// which is the paper's `DieHardMalloc` with nothing in front of it.
    /// Inlined whole into that caller; a growth step is out of line.
    #[inline(always)]
    pub(crate) fn try_alloc_in(&self, sole: bool, size: usize) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        loop {
            if let Some(index) = self.partitions[class.index()].alloc_in(sole) {
                self.stats.record_alloc(sole);
                return AllocOutcome::Placed(Slot { class, index });
            }
            if !self.grow_class(sole, class) {
                self.stats.record_exhausted(sole);
                return AllocOutcome::Spill;
            }
        }
    }

    /// Number of completed per-class growth steps since construction,
    /// whether triggered by uncached allocations or magazine refills.
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        self.growths.iter().map(|g| g.load(Ordering::Relaxed)).sum()
    }

    /// Installs the huge-page [`PromoteHook`]. Takes `&mut self`: the hook
    /// is part of construction (the global allocator sets it before the heap
    /// is published) and is read without synchronization afterwards.
    pub fn set_promote_hook(&mut self, hook: PromoteHook, ctx: usize) {
        self.promote = Some((hook, ctx));
    }

    /// Bitmask of size classes promoted to huge pages so far (bit `i` =
    /// class index `i`), derived from the [`PromoteHook`] rule: a hook is
    /// installed, the class has taken at least one growth step, and its
    /// active range holds a whole [`HUGE_PAGE`] — exactly the classes the
    /// hook has been offered a range of. Always 0 without a hook.
    #[must_use]
    pub fn promoted_classes(&self) -> u32 {
        if self.promote.is_none() {
            return 0;
        }
        let classes = self.partitions.iter().zip(&self.growths).enumerate();
        classes.fold(0, |mask, (i, (partition, growths))| {
            let grown = growths.load(Ordering::Relaxed) > 0;
            let whole = partition.capacity() * partition.class().object_size() >= HUGE_PAGE;
            mask | u32::from(grown && whole) << i
        })
    }

    /// Attempts one growth step for `class`; `false` means the class is
    /// already at its maximum capacity (time to spill), `true` means the
    /// caller should retry its allocation — either this call widened the
    /// active capacity or a racing free already made room. Out of line and
    /// cold, so the uncached path inlined into its callers carries one call
    /// here rather than a copy of the lock and the ladder step.
    #[cold]
    #[inline(never)]
    fn grow_class(&self, sole: bool, class: SizeClass) -> bool {
        let partition = &self.partitions[class.index()];
        if partition.capacity() >= self.geometry.capacity(class) {
            return false;
        }
        let _guard = self.maintenance[class.index()].lock_in(sole);
        self.grow_class_locked(class)
    }

    /// The body of [`grow_class`](Self::grow_class) for callers that already
    /// hold `class`'s maintenance lock (the refill path — re-locking would
    /// deadlock on the non-reentrant `SpinLock`). Takes the one ladder step
    /// ([`AtomicPartition::grow_step`]); skips it (but still reports
    /// "retry") when a racing free dropped the partition below its cap while
    /// we waited for the lock. A step that completes huge pages hands them
    /// to the [`PromoteHook`] — the one place a class is promoted — after
    /// the step, so the range the hook collapses is the range now in use.
    /// The hook runs with the lock held: milliseconds when it collapses a
    /// touched 2 MB range, once per huge page of the class, during which
    /// only refills and growth steps of this class (and a `fork`) wait.
    fn grow_class_locked(&self, class: SizeClass) -> bool {
        let partition = &self.partitions[class.index()];
        let before = partition.capacity();
        if before < partition.max_capacity() && !partition.at_threshold() {
            // A concurrent free (or a finished grower) made room between
            // our denial and the lock: retry without spending a step.
            return true;
        }
        if !partition.grow_step(self.geometry.config()) {
            return false;
        }
        let growths = &self.growths[class.index()];
        let steps = growths.load(Ordering::Relaxed);
        growths.store(steps + 1, Ordering::Relaxed);
        if let Some((hook, ctx)) = self.promote {
            let whole = |capacity: usize| capacity * class.object_size() / HUGE_PAGE * HUGE_PAGE;
            let from = if steps == 0 { 0 } else { whole(before) };
            let to = whole(partition.capacity());
            if to > from {
                hook(ctx, self.geometry.region_base(class) + from, to - from);
            }
        }
        true
    }

    /// Byte offset of `slot` within the heap span (pure arithmetic, no
    /// lock).
    #[must_use]
    #[inline]
    pub fn offset_of(&self, slot: Slot) -> usize {
        slot_offset(&self.geometry, slot)
    }

    /// Resolves a byte offset (any interior pointer) to the slot containing
    /// it (pure arithmetic, no lock) — what the bounded string functions of
    /// §4.4 use to find an object's start.
    #[must_use]
    pub fn slot_containing(&self, offset: usize) -> Option<Slot> {
        slot_at(&self.geometry, offset)
    }

    /// The span/alignment half of `DieHardFree` ([`locate_free`]) with its
    /// bookkeeping: a misaligned offset is an ignored free and is counted
    /// here, so the uncached and the buffered free path reject identically.
    #[inline(always)]
    pub(crate) fn locate_free(&self, sole: bool, offset: usize) -> Result<Slot, FreeOutcome> {
        locate_free(&self.geometry, offset).inspect_err(|&outcome| {
            if outcome == FreeOutcome::MisalignedOffset {
                self.stats.record_ignored_frees(sole, 1);
            }
        })
    }

    /// `DieHardFree` (§4.3), fully lock-free: validates and frees the object
    /// at `offset`.
    ///
    /// The three checks, in order: the offset must fall inside the heap
    /// span; it must be a multiple of its region's object size (both pure
    /// arithmetic); and the slot must currently be allocated (one CAS). A
    /// slot observed free (double/invalid free) or magazine-reserved (no
    /// pointer to it was ever returned) fails the third. Failing any check
    /// *ignores* the free — this is what makes DieHard immune to double and
    /// invalid frees.
    #[inline]
    pub fn free_at(&self, offset: usize) -> FreeOutcome {
        self.free_at_in(A::sole(), offset)
    }

    /// [`free_at`](Self::free_at) in the arm `sole` picks: the paper's
    /// `DieHardFree`, for the global allocator's call that found the process
    /// with one thread. The slot is free again when this returns.
    #[inline(always)]
    pub(crate) fn free_at_in(&self, sole: bool, offset: usize) -> FreeOutcome {
        let slot = match self.locate_free(sole, offset) {
            Ok(slot) => slot,
            Err(outcome) => return outcome,
        };
        match self.partitions[slot.class.index()].free_in(sole, slot.index) {
            SlotState::Live => {
                self.stats.record_frees(sole, 1);
                FreeOutcome::Freed(slot)
            }
            SlotState::Free | SlotState::Reserved => {
                self.stats.record_ignored_frees(sole, 1);
                FreeOutcome::NotAllocated
            }
        }
    }

    /// Whether the object at `offset` (any interior pointer) is live —
    /// one atomic load, no lock. Magazine-reserved slots are not live.
    #[must_use]
    pub fn is_live_at(&self, offset: usize) -> bool {
        match slot_at(&self.geometry, offset) {
            Some(slot) => self.partitions[slot.class.index()].is_live(slot.index),
            None => false,
        }
    }

    /// Acquires every per-class maintenance lock, in class-index order —
    /// the `fork(2)` prepare path: with all twelve held, no batch operation
    /// (refill, flush, growth, teardown) is mid-flight anywhere, so the
    /// child inherits partition metadata that is batch-consistent. Per-op
    /// CAS traffic is not (and cannot be) excluded; an in-flight reservation
    /// ticket in the forking parent can leak a bounded number of slots in
    /// the child, which is availability, not corruption.
    ///
    /// Release with [`unlock_all_maintenance`](Self::unlock_all_maintenance)
    /// in both the parent and the child.
    pub fn lock_all_maintenance(&self) {
        for lock in &self.maintenance {
            lock.raw_lock();
        }
    }

    /// Releases the locks taken by
    /// [`lock_all_maintenance`](Self::lock_all_maintenance).
    ///
    /// # Safety
    ///
    /// The locks must be held via `lock_all_maintenance` (by this thread,
    /// or — in a fork child — by the thread the process forked from).
    pub unsafe fn unlock_all_maintenance(&self) {
        for lock in &self.maintenance {
            // SAFETY: forwarded caller contract, one unlock per lock taken.
            unsafe { lock.raw_unlock() };
        }
    }

    /// Occupied slots across all regions — the sum of the twelve `1/M`
    /// tickets (the paper's `inUse`): live objects **plus** any slots
    /// reserved inside thread magazines, which count toward the cap. Twelve
    /// relaxed loads, O(1) in the heap's size; an instantaneous total only
    /// when the heap is quiescent.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.partitions.iter().map(AtomicPartition::in_use).sum()
    }

    /// One partition's live count: its ticket minus its reservations.
    fn live_in(partition: &AtomicPartition<A>) -> usize {
        let in_use = partition.in_use();
        in_use - partition.reserved_count().min(in_use)
    }

    /// Live objects across all regions: [`in_use`](Self::in_use) minus the
    /// slots magazines hold but have not handed out. **O(slot map)** — the
    /// reservation count is a popcount over every slot-map word (≈ 8 k words
    /// on the 1 MB default, ≈ 260 k on 32 MB regions) — so poll `in_use`
    /// instead where no cache is attached. Same quiescence caveat.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.partitions.iter().map(Self::live_in).sum()
    }

    /// Live bytes across all regions (rounded object sizes); O(slot map)
    /// and quiescence-exact like [`live_objects`](Self::live_objects).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        let bytes = |p| Self::live_in(p) * p.class().object_size();
        self.partitions.iter().map(bytes).sum()
    }

    /// Slots currently reserved inside thread magazines across all classes
    /// (O(slot map), quiescence caveat as above). Zero once every cache has
    /// flushed.
    #[must_use]
    pub fn reserved_slots(&self) -> usize {
        let reserved = self.partitions.iter().map(AtomicPartition::reserved_count);
        reserved.sum()
    }

    /// Iterates over every live slot in the heap, smallest class first.
    pub fn live_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.partitions.iter().flat_map(|p| {
            let class = p.class();
            p.live_slots().map(move |index| Slot { class, index })
        })
    }

    /// Cumulative probe statistics summed across every partition:
    /// `(allocations, total probes)` — [`AtomicPartition::probe_stats`]
    /// over the whole heap, so §4.2's E[probes] = 1/(1 − 1/M) claim is
    /// checkable on the lock-free heap too. CAS-retry probes are counted
    /// exactly like occupied-slot probes (one draw = one probe), and
    /// magazine refills run the partition's own probe loop, so reservation
    /// draws count exactly like direct allocations. Exact totals once the
    /// threads touching the heap are joined.
    #[must_use]
    pub fn probe_stats(&self) -> (u64, u64) {
        let each = self.partitions.iter().map(AtomicPartition::probe_stats);
        each.fold((0, 0), |(allocs, probes), (a, p)| (allocs + a, probes + p))
    }

    // ---- cache back end ([`Heap::thread_cache`] is beside the cache) --------

    /// Refills `out` with up to one batch of reserved slots for `class`,
    /// drawn by the partition's own probe loop under one acquisition of the
    /// class **maintenance** lock (the slow path — per-op traffic never
    /// waits on it; the lock only serializes refills against flushes and
    /// teardowns so batches do not interleave draws). Returns the number of
    /// slots reserved.
    /// On an elastic heap an at-cap refill grows the class before giving
    /// up. `grow_class_locked` is called directly because this thread
    /// already holds the maintenance lock — re-entering through
    /// `grow_class` would deadlock on the non-reentrant `SpinLock`. A `0`
    /// here therefore means the class is at its *maximum* capacity and full
    /// — a genuine spill, not growth pressure — and is recorded as one
    /// exhaustion (the caller's denied request), like the uncached path's.
    /// Out of line and cold: one call per `MAG_SLOTS` handouts, kept off the
    /// inlined handout path.
    #[cold]
    #[inline(never)]
    pub(crate) fn refill(
        &self,
        sole: bool,
        class: SizeClass,
        out: &mut [usize; MAG_SLOTS],
    ) -> usize {
        let partition = &self.partitions[class.index()];
        let batch = self.maintenance[class.index()].lock_in(sole);
        let got = loop {
            let want = refill_batch(partition.threshold());
            let got = partition.reserve_batch(sole, &mut out[..want]);
            if got > 0 || !self.grow_class_locked(class) {
                break got;
            }
        };
        drop(batch);
        if got == 0 {
            self.stats.record_exhausted(sole);
        }
        got
    }

    /// The lock-free reserved→live handout transition: one `fetch_and` in
    /// the slot-state map plus the alloc counter.
    #[inline(always)]
    pub(crate) fn commit(&self, sole: bool, class: SizeClass, index: usize) {
        self.partitions[class.index()].commit(sole, index);
        self.stats.record_alloc(sole);
    }

    /// Releases a batch of buffered frees for `class` under one maintenance
    /// lock acquisition. With `force` false the flush is opportunistic: a
    /// contended lock leaves the buffer untouched. (Each individual free is
    /// itself a lock-free CAS — the lock only keeps maintenance batches
    /// from interleaving.) Out of line and cold: the buffered free path
    /// reaches it once per `FREE_SLOTS / 2` frees.
    #[cold]
    #[inline(never)]
    pub(crate) fn flush_frees(
        &self,
        sole: bool,
        class: SizeClass,
        frees: &mut [usize; FREE_SLOTS],
        len: &mut usize,
        force: bool,
    ) {
        if *len == 0 {
            return;
        }
        let lock = &self.maintenance[class.index()];
        let guard = if force {
            lock.lock_in(sole)
        } else {
            match lock.try_lock_in(sole) {
                Some(guard) => guard,
                None => return,
            }
        };
        // The paired slot map resolves all three cases per slot in one CAS:
        // a live slot is freed; a free slot (double/invalid free) and a
        // reserved slot (an address the application never received — which
        // must not release a reservation another magazine holds) are both
        // ignored. The ticket return is one batched decrement.
        let (freed, ignored) = self.partitions[class.index()].free_batch(sole, &frees[..*len]);
        drop(guard);
        *len = 0;
        self.stats.record_frees(sole, freed);
        self.stats.record_ignored_frees(sole, ignored);
    }

    /// Returns unhanded reservations to their partition (no stats: they were
    /// never allocations). Holds the maintenance lock so teardown cannot
    /// interleave with a racing refill's batch. Out of line: the thread-exit
    /// flush calls it once per class, in a loop the optimizer otherwise
    /// unrolls twelve times around the inlined body.
    #[inline(never)]
    pub(crate) fn return_reservations(&self, sole: bool, class: SizeClass, slots: &[usize]) {
        if slots.is_empty() {
            return;
        }
        let partition = &self.partitions[class.index()];
        let _batch = self.maintenance[class.index()].lock_in(sole);
        for &index in slots {
            let was_reserved = partition.release_reservation(sole, index);
            debug_assert!(was_reserved, "returned slot {index} was not reserved");
        }
    }
}

/// The shared arm's tests, and the bodies `engine::tests` instantiates for
/// the plain one.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::Mwc;
    use crate::sync::Plain;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn heap(seed: u64) -> Heap {
        Heap::new(HeapConfig::default(), seed).unwrap()
    }

    fn plain_heap(seed: u64) -> Heap<Plain> {
        Heap::new(HeapConfig::default(), seed).unwrap()
    }

    #[test]
    fn matches_facade_layout_for_same_seed() {
        // Both arms split the master seed the same way and run the same
        // partition code, so single-threaded histories coincide exactly.
        let (shared, plain) = (heap(0xABCD), plain_heap(0xABCD));
        for req in [8usize, 8, 24, 100, 1000, 4000, 16_000, 8, 64] {
            assert_eq!(shared.alloc(req), plain.alloc(req), "request {req}");
        }
        assert_eq!(shared.stats(), plain.stats());
    }

    /// §4.3's three checks and their bookkeeping, in arm `A`.
    pub(crate) fn free_validation_pipeline_in<A: Arm>() {
        let h: Heap<A> = Heap::new(HeapConfig::default(), 4).unwrap();
        let slot = h.alloc(64).unwrap();
        let off = h.offset_of(slot);

        // Interior (misaligned) pointer: ignored.
        assert_eq!(h.free_at(off + 1), FreeOutcome::MisalignedOffset);
        assert!(h.is_live_at(off));

        // Proper free succeeds.
        assert_eq!(h.free_at(off), FreeOutcome::Freed(slot));
        assert!(!h.is_live_at(off));

        // Double free: ignored.
        assert_eq!(h.free_at(off), FreeOutcome::NotAllocated);

        // Outside the heap: reported for the large-object path.
        assert_eq!(h.free_at(usize::MAX / 2), FreeOutcome::NotInHeap);

        let stats = h.stats();
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.ignored_frees, 2);
    }

    #[test]
    fn free_validation_pipeline() {
        free_validation_pipeline_in::<Shared>();
    }

    /// Any interleaving of allocs and (valid or bogus) frees keeps `h`
    /// consistent with a shadow model keyed by offset. No cache is attached,
    /// so the ticket sum *is* the live count and is cheap enough to poll
    /// after every operation.
    pub(crate) fn matches_shadow_model<A: Arm>(h: &Heap<A>, seed: u64, ops: Vec<(usize, usize)>) {
        let mut model: HashMap<usize, Slot> = HashMap::new();
        let mut rng = Mwc::seeded(seed ^ 0xABCD);
        for (op, arg) in ops {
            match op {
                0 => {
                    if let Some(slot) = h.alloc(arg.min(16 * 1024)) {
                        let off = h.offset_of(slot);
                        assert!(!model.contains_key(&off), "offset reuse while live");
                        model.insert(off, slot);
                    }
                }
                1 => {
                    if !model.is_empty() {
                        let keys: Vec<usize> = model.keys().copied().collect();
                        let off = keys[rng.below(keys.len())];
                        assert!(h.free_at(off).freed());
                        model.remove(&off);
                    }
                }
                _ => {
                    // Bogus free at a random offset: must never free a
                    // *different* object or corrupt accounting.
                    let off = rng.below(h.heap_span() + 1000);
                    let before = h.in_use();
                    match h.free_at(off) {
                        FreeOutcome::Freed(_) => assert!(
                            model.remove(&off).is_some(),
                            "freed an object the model did not know"
                        ),
                        _ => assert_eq!(h.in_use(), before),
                    }
                }
            }
            assert_eq!(h.in_use(), model.len());
        }
    }

    #[test]
    fn concurrent_mixed_class_churn_keeps_accounting_exact() {
        const THREADS: usize = 8;
        const OPS: usize = 3000;
        let h = Arc::new(heap(7));
        let allocated = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            let allocated = Arc::clone(&allocated);
            handles.push(std::thread::spawn(move || {
                let mut live: Vec<usize> = Vec::new();
                let mut rng = Mwc::seeded(0x1000 + t as u64);
                for _ in 0..OPS {
                    let size = 1 + rng.below(16 * 1024);
                    if let Some(slot) = h.alloc(size) {
                        allocated.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    if live.len() > 32 {
                        let victim = live.swap_remove(rng.below(live.len()));
                        assert!(h.free_at(victim).freed(), "own offset must free");
                    }
                }
                for off in live {
                    assert!(h.free_at(off).freed());
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(h.live_objects(), 0);
        assert_eq!(stats.allocs, allocated.load(Ordering::Relaxed) as u64);
        assert_eq!(
            stats.frees, stats.allocs,
            "every alloc was freed exactly once"
        );
        assert_eq!(stats.ignored_frees, 0);
    }

    /// §4.2 on the lock-free stack: with the 8-byte class held essentially
    /// at its `1/M` cap and four threads churning alloc/free pairs, the
    /// measured mean probes per allocation approaches 1/(1 − 1/M) = 2 for
    /// M = 2. CAS-retry probes count like any other failed probe, so the
    /// statistic stays comparable to the locked-path runs.
    #[test]
    fn concurrent_probe_expectation_matches_paper() {
        const THREADS: usize = 4;
        const OPS: usize = 20_000;
        let h = Arc::new(heap(0xE1E1));
        // Fill class 0 to its threshold, then free a sliver of headroom so
        // the churn below oscillates just under the cap.
        let mut offs = Vec::new();
        while let Some(slot) = h.alloc(8) {
            offs.push(h.offset_of(slot));
        }
        for off in offs.drain(..THREADS * 4) {
            assert!(h.free_at(off).freed());
        }
        let (a0, p0) = h.probe_stats();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    // A momentary at-threshold denial (another thread's
                    // alloc in flight) just skips the pair.
                    if let Some(slot) = h.alloc(8) {
                        assert!(h.free_at(h.offset_of(slot)).freed());
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
            (mean - 2.0).abs() < 0.2,
            "concurrent steady-state probes {mean}, expected ≈ 2"
        );
    }

    /// The pinned contended-retry divergence rule, positive half: an
    /// alloc-only sequence on one thread is bit-identical to the plain arm's
    /// even when *other* classes are being hammered concurrently — contention
    /// only reorders draws within a class's own stream, never across
    /// classes.
    #[test]
    fn alloc_only_determinism_isolated_per_class() {
        const SEED: u64 = 0x05EE_DCA5;
        let plain = plain_heap(SEED);
        let expected: Vec<Option<Slot>> = (0..500).map(|_| plain.alloc(8)).collect();

        let h = Arc::new(heap(SEED));
        let stop = Arc::new(AtomicUsize::new(0));
        let got = std::thread::scope(|s| {
            // Background churn in a different size class (1 KB objects).
            let noise = {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        if let Some(slot) = h.alloc(1000) {
                            assert!(h.free_at(h.offset_of(slot)).freed());
                        }
                    }
                })
            };
            let got: Vec<Option<Slot>> = (0..500).map(|_| h.alloc(8)).collect();
            stop.store(1, Ordering::Relaxed);
            noise.join().unwrap();
            got
        });
        assert_eq!(
            got, expected,
            "class-0 placements diverged under cross-class noise"
        );
    }

    #[test]
    fn elastic_heap_grows_then_spills_gracefully() {
        // 16 KB class: max capacity 64, elastic start 2 (threshold 1). The
        // heap must absorb the full fixed-size workload (32 slots under
        // M = 2) by climbing its ladder, then report Spill — not a crash —
        // past the final cap.
        let h: Heap = Heap::new_elastic(HeapConfig::default(), 0x57A7, 6).unwrap();
        let mut placed = 0u64;
        let spilled = loop {
            match h.try_alloc(16 * 1024) {
                AllocOutcome::Placed(slot) => {
                    assert!(slot.index < 64);
                    placed += 1;
                }
                AllocOutcome::Spill => break true,
                AllocOutcome::Unsupported => unreachable!("16 KB is a small object"),
            }
        };
        assert!(spilled);
        assert_eq!(placed, 32, "same capacity as a fixed heap after growth");
        assert_eq!(
            h.growth_events(),
            15,
            "2 → 4, then by twos to 16, by fours to 32, by eights to 64"
        );
        assert_eq!(h.stats().exhausted, 1, "growth denials are not exhaustion");
        assert_eq!(h.stats().allocs, 32);
        // Outcomes are stable and routable, and zero-size stays unsupported
        // with no stats recorded.
        assert_eq!(h.try_alloc(16 * 1024), AllocOutcome::Spill);
        assert_eq!(h.try_alloc(0), AllocOutcome::Unsupported);
        assert_eq!(h.stats().exhausted, 2);
    }

    #[test]
    fn fixed_heap_never_grows() {
        let h = heap(0xF1);
        let mut last = None;
        while let Some(slot) = h.alloc(16 * 1024) {
            last = Some(slot);
        }
        assert!(last.is_some());
        assert_eq!(h.growth_events(), 0);
        assert_eq!(h.try_alloc(16 * 1024), AllocOutcome::Spill);
    }

    proptest! {
        /// The shared arm against the shadow model (`engine::tests` runs the
        /// plain one): atomic slot state tracks the model through mixed
        /// alloc/free traffic.
        #[test]
        fn sharded_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            matches_shadow_model(&heap(seed), seed, ops);
        }
    }
}
