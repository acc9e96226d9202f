//! The DieHard heap: twelve shared-nothing partitions behind one
//! `DieHardMalloc`/`DieHardFree` (Figure 2), a lock-free per-op path, and
//! per-class locks demoted to slow-path maintenance.
//!
//! There is one heap type, [`Heap`], `Send + Sync`: the global allocator
//! embeds one behind its once-initialized header (it is what
//! `libdiehard.so` runs), and the simulator and the Monte Carlo harnesses
//! own one outright. Each call picks how its words are updated from one
//! read of the thread count at its entry ([`crate::sync`]): locked
//! instructions, or loads and stores while the process has one thread. Same
//! code, same draws, same histories.
//!
//! The paper's allocator (§4.2) is embarrassingly partitionable: each of the
//! twelve size-class regions owns its slot-state map, its `1/M` threshold,
//! and its probe loop, and `DieHardFree`'s validation resolves any offset to
//! exactly one region with pure arithmetic. [`Heap`] exploits that
//! structure twice over. First, partitions share nothing: every
//! [`AtomicPartition`] has its private CAS-advanced RNG stream (seeded by
//! splitting the master seed), so operations in *different* classes never
//! touch the same cache lines. Second, **no per-op path takes a lock at
//! all**: an allocation draws a probe index and claims the slot's bit with
//! one `or` (retrying the draw on a lost race, exactly like re-probing a
//! live slot), and a free validates with lock-free arithmetic
//! ([`locate_free`]) and clears the bit with one `and`. The free is complete
//! when the call returns: the slot is back in the probe space and the books
//! say so. The per-class [`SpinLock`]s survive only as *maintenance locks*
//! around a growth step (and `fork`), where mutual exclusion among growers
//! (not allocators) is the point.
//!
//! That is the one path to the heap in either arm and for every caller: the
//! global allocator's calls, alone or threaded, are these `try_alloc` and
//! `free_at` in the arm their one read of the thread count picked.
//!
//! Determinism under the lock-free path — the pinned contended-retry rule:
//!
//! * single-threaded histories are **bit-identical** in either arm for
//!   the same master seed (one partition code: same RNG stream, same draw,
//!   same win/lose per probe);
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

use crate::bitmap::{SlotState, SlotStateMap};
use crate::config::{ConfigError, HeapConfig, HeapGeometry};
use crate::engine::{
    locate_free, slot_at, slot_offset, AllocOutcome, AtomicHeapStats, FreeOutcome, HeapStats, Slot,
};
use crate::partition::AtomicPartition;
use crate::rng::stream_seed;
use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::sync::{sole_thread, SpinLock, Word};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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
/// ([`AtomicPartition::grow_step`]): the same in either arm, and whatever the
/// class's allocation count. A heap that
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
/// class guards its growth steps only. All operations take `&self`, from
/// any thread.
///
/// The partitions lead the struct (`repr(C)` keeps them there), so the
/// per-op path reaches a class's partition at a displacement of the heap's
/// address and a multiple of the class index, with no offset to add.
#[derive(Debug)]
#[repr(C)]
pub struct Heap {
    partitions: [AtomicPartition; NUM_CLASSES],
    geometry: HeapGeometry,
    /// Slow-path mutual exclusion per class: growth steps serialize against
    /// each other (and `fork`) here. **Taken by `alloc` only to grow, never
    /// by `free_at`/`is_live_at`** — the per-op paths are lock-free by
    /// construction, and the slot map's atomics keep them correct against a
    /// step in flight.
    maintenance: [SpinLock<()>; NUM_CLASSES],
    stats: AtomicHeapStats,
    /// Per class: completed growth steps (elastic heaps; always 0 on fixed
    /// heaps). Written under the class's maintenance lock, its one writer,
    /// so an increment is a load and a store in either arm.
    growths: [AtomicU64; NUM_CLASSES],
    /// The installed [`PromoteHook`] and its `ctx` word; `None` (every heap
    /// that owns no real memory) offers nothing.
    promote: Option<(PromoteHook, usize)>,
    /// The maintenance locks [`lock_all_maintenance`](Self::lock_all_maintenance)
    /// took (bit `i` = class `i`), which are the ones
    /// [`unlock_all_maintenance`](Self::unlock_all_maintenance) releases.
    /// Written and read while they are held.
    fork_held: AtomicU32,
}

/// [`Heap`] under the name the frozen `benchmark/` package imports; in-tree
/// code says `Heap`.
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
pub type ShardedHeap = Heap;

impl Heap {
    /// Creates an empty fixed-size heap; class `i` probes with the RNG
    /// stream `stream_seed(seed, i)`, so one master seed reproduces the
    /// layout, alone or threaded.
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
        Ok(Self::build(geometry, seed, |_, max| SlotStateMap::new(max)))
    }

    /// As [`new_elastic`](Self::new_elastic) over an already validated
    /// `geometry`, but hosting all twelve slot-state maps in `words` so that
    /// construction performs **no heap allocation** — required when DieHard
    /// itself is the process's global allocator (metadata lives in a
    /// segregated mmap arena, §4.1). The maps are carved in class order off
    /// the front of `words`, each sized for its class's maximum capacity
    /// whatever the fraction, and should be zeroed (every slot free); `None`
    /// when `words` is shorter than
    /// [`metadata_words_needed`](Self::metadata_words_needed) — the
    /// allocator's initialization then fails, as for any other shortage.
    pub(crate) fn carved(
        geometry: HeapGeometry,
        seed: u64,
        mut words: &'static [Word],
    ) -> Option<Self> {
        let mut maps: [&'static [Word]; NUM_CLASSES] = [&[]; NUM_CLASSES];
        for (class, map) in SizeClass::all().zip(&mut maps) {
            let needed = SlotStateMap::words_needed(geometry.capacity(class));
            (*map, words) = words.split_at_checked(needed)?;
        }
        Some(Self::build(geometry, seed, |class, max| {
            SlotStateMap::carved(maps[class.index()], max)
        }))
    }

    /// The one definition of the partition layout: twelve partitions, each
    /// with its private RNG stream `stream_seed(seed, class)` split from
    /// `seed`, starting at the geometry's *initial* capacity (== the maximum
    /// for fixed geometries) over the slot map `map(class, maximum)` hands
    /// it, so elastic growth never relayouts. The geometry is validated, so
    /// no partition re-checks it ([`AtomicPartition::over`]).
    fn build(
        geometry: HeapGeometry,
        seed: u64,
        mut map: impl FnMut(SizeClass, usize) -> SlotStateMap,
    ) -> Self {
        let partitions = SizeClass::table(|c| {
            let max = geometry.capacity(c);
            let (start, threshold) = (geometry.initial_capacity(c), geometry.initial_threshold(c));
            let stream = stream_seed(seed, c.index() as u64);
            AtomicPartition::over(c, map(c, max), start, threshold, stream)
        });
        Self {
            geometry,
            partitions,
            maintenance: core::array::from_fn(|_| SpinLock::new(())),
            stats: AtomicHeapStats::new(),
            growths: core::array::from_fn(|_| AtomicU64::new(0)),
            promote: None,
            fork_held: AtomicU32::new(0),
        }
    }

    /// Number of words of metadata storage a heap of `config` carves its
    /// slot maps out of, when the global allocator hosts them: one
    /// bit per slot (§4.1), 64 slots per word, every class sized for its
    /// maximum capacity.
    #[must_use]
    pub fn metadata_words_needed(config: &HeapConfig) -> usize {
        SizeClass::all()
            .map(|c| AtomicPartition::words_needed(config.capacity(c)))
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

    /// Counters since construction (lock-free snapshot): allocations and
    /// frees summed over the partitions' ticket words
    /// ([`AtomicPartition::counts`]), the two cold counters beside them.
    /// Exact once the threads touching the heap are joined.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        let counts = self.partitions.iter().map(AtomicPartition::counts);
        let (allocs, frees) = counts.fold((0, 0), |(a, f), (pa, pf)| (a + pa, f + pf));
        HeapStats {
            allocs,
            frees,
            ignored_frees: self.stats.ignored_frees(),
            exhausted: self.stats.exhausted(),
        }
    }

    /// Bytes spanned by the small-object heap (12 × region size).
    #[must_use]
    pub fn heap_span(&self) -> usize {
        self.geometry.heap_span()
    }

    /// The partition serving `class` — capacity, probe statistics, layout
    /// diagnostics. No lock: the partition's own atomics make reads safe,
    /// with the usual not-a-snapshot caveat under concurrent traffic.
    #[must_use]
    #[inline]
    pub fn partition(&self, class: SizeClass) -> &AtomicPartition {
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
        self.try_alloc_in(sole_thread(), size)
    }

    /// [`try_alloc`](Self::try_alloc) in the arm `sole` picks: the global
    /// allocator's path for every call, in the arm its one read of the
    /// thread count picked — the paper's `DieHardMalloc` with nothing in
    /// front of it. Inlined whole into that caller; a growth step is out of
    /// line.
    #[inline(always)]
    pub(crate) fn try_alloc_in(&self, sole: bool, size: usize) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        loop {
            if let Some(index) = self.partitions[class.index()].alloc_in(sole) {
                return AllocOutcome::Placed(Slot { class, index });
            }
            if !self.grow_class(sole, class) {
                self.stats.record_exhausted(sole);
                return AllocOutcome::Spill;
            }
        }
    }

    /// Number of completed per-class growth steps since construction.
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

    /// Attempts one growth step for `class`, under its maintenance lock;
    /// `false` means the class is already at its maximum capacity, or its
    /// lock is held by this very thread (time to spill), `true` means the
    /// caller should retry its allocation — either this call widened the
    /// active capacity or a racing free already made room, in which case no
    /// step is spent. Takes the one ladder step
    /// ([`AtomicPartition::grow_step`]). A step that completes huge pages
    /// hands them to the [`PromoteHook`] — the one place a class is promoted
    /// — after the step, so the range the hook collapses is the range now in
    /// use. The hook runs with the lock held: milliseconds when it collapses
    /// a touched 2 MB range, once per huge page of the class, during which
    /// only growth steps of this class (and a `fork`) wait. Out of line and
    /// cold, so the path inlined into its callers carries one call here
    /// rather than a copy of the lock and the ladder step.
    #[cold]
    #[inline(never)]
    fn grow_class(&self, sole: bool, class: SizeClass) -> bool {
        let partition = &self.partitions[class.index()];
        if partition.capacity() >= self.geometry.capacity(class) {
            return false;
        }
        // A call nested inside this thread's own growth step of the class (a
        // signal handler's `malloc`) cannot wait for it: the class is denied
        // to it, and the caller spills.
        let Some(_guard) = self.maintenance[class.index()].lock_unless_mine_in(sole) else {
            return false;
        };
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

    /// `DieHardFree` (§4.3), fully lock-free: validates and frees the object
    /// at `offset`.
    ///
    /// The three checks, in order: the offset must fall inside the heap
    /// span; it must be a multiple of its region's object size (both pure
    /// arithmetic); and the slot must currently be allocated (one `and`,
    /// which changes nothing on a free slot). Failing any check *ignores*
    /// the free — this is what makes DieHard immune to double and invalid
    /// frees; a misaligned or double one is counted as ignored, an offset
    /// outside the span is left to the caller's large-object path.
    #[inline]
    pub fn free_at(&self, offset: usize) -> FreeOutcome {
        self.free_at_in(sole_thread(), offset)
    }

    /// [`free_at`](Self::free_at) in the arm `sole` picks: the paper's
    /// `DieHardFree`, for every call of the global allocator. The slot is
    /// free again when this returns.
    #[inline(always)]
    pub(crate) fn free_at_in(&self, sole: bool, offset: usize) -> FreeOutcome {
        let outcome = match locate_free(&self.geometry, offset) {
            Ok(slot) => match self.partitions[slot.class.index()].free_in(sole, slot.index) {
                SlotState::Live => return FreeOutcome::Freed(slot),
                SlotState::Free => FreeOutcome::NotAllocated,
            },
            Err(outcome) => outcome,
        };
        if outcome != FreeOutcome::NotInHeap {
            self.stats.record_ignored_free(sole);
        }
        outcome
    }

    /// Whether the object at `offset` (any interior pointer) is live —
    /// one atomic load, no lock.
    #[must_use]
    pub fn is_live_at(&self, offset: usize) -> bool {
        match slot_at(&self.geometry, offset) {
            Some(slot) => self.partitions[slot.class.index()].is_live(slot.index),
            None => false,
        }
    }

    /// Acquires every per-class maintenance lock, in class-index order —
    /// the `fork(2)` prepare path: with all twelve held, no growth step (and
    /// no huge-page promotion inside one) is mid-flight anywhere, so the
    /// child inherits capacities that match their thresholds. Per-op
    /// traffic is not (and cannot be) excluded; a ticket in flight in
    /// another thread of the forking parent can leak one slot of `1/M`
    /// allowance per such thread in the child, which is availability, not
    /// corruption.
    ///
    /// Release with [`unlock_all_maintenance`](Self::unlock_all_maintenance)
    /// in both the parent and the child.
    ///
    /// A lock this very thread holds already — a `fork` from a signal
    /// handler that interrupted its growth step — is left to the frame that
    /// holds it, which releases it in the parent and in the child alike.
    pub fn lock_all_maintenance(&self) {
        let locks = self.maintenance.iter().enumerate();
        let taken = locks.fold(0, |taken, (i, lock)| {
            taken | u32::from(lock.raw_lock()) << i
        });
        self.fork_held.store(taken, Ordering::Relaxed);
    }

    /// Releases the locks taken by
    /// [`lock_all_maintenance`](Self::lock_all_maintenance).
    ///
    /// # Safety
    ///
    /// The locks must be held via `lock_all_maintenance` (by this thread,
    /// or — in a fork child — by the thread the process forked from).
    pub unsafe fn unlock_all_maintenance(&self) {
        let taken = self.fork_held.load(Ordering::Relaxed);
        for (i, lock) in self.maintenance.iter().enumerate() {
            if taken >> i & 1 != 0 {
                // SAFETY: forwarded caller contract; `lock_all_maintenance`
                // took this one.
                unsafe { lock.raw_unlock() };
            }
        }
    }

    /// Live objects across all regions — the sum of the twelve `1/M`
    /// tickets (the paper's `inUse`): every ticket holder's slot is live
    /// once its allocation returns. Twelve relaxed loads, O(1) in the
    /// heap's size; an instantaneous total only when the heap is quiescent.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.partitions.iter().map(AtomicPartition::in_use).sum()
    }

    /// Live bytes across all regions (rounded object sizes); O(1) and
    /// quiescence-exact like [`live_objects`](Self::live_objects).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        let bytes = |p: &AtomicPartition| p.in_use() * p.class().object_size();
        self.partitions.iter().map(bytes).sum()
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
    /// over the whole heap, so §4.2's E\[probes\] = 1/(1 − 1/M) claim is
    /// checkable on the lock-free heap too. Lost-claim probes are counted
    /// exactly like live-slot probes (one draw = one probe). Exact totals
    /// once the threads touching the heap are joined.
    #[must_use]
    pub fn probe_stats(&self) -> (u64, u64) {
        let each = self.partitions.iter().map(AtomicPartition::probe_stats);
        each.fold((0, 0), |(allocs, probes), (a, p)| (allocs + a, probes + p))
    }
}

/// The heap's tests beyond `spec`'s model: configuration refusals, the
/// carved metadata, the threaded arm under contention, and the `fork`
/// locks. The harness is threaded, so a public call here runs the locked
/// arm.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Mwc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn heap(seed: u64) -> Heap {
        Heap::new(HeapConfig::default(), seed).unwrap()
    }

    /// A region whose 8-byte class has more slots than a partition's packed
    /// words hold is a configuration error, for a fixed heap and an elastic
    /// one alike, not a panic in the partition.
    #[test]
    fn region_past_the_partition_capacity_is_refused() {
        use crate::config::ConfigError;
        let config = HeapConfig::default().with_region_bytes(16 << 30);
        let refused = Err(ConfigError::RegionTooLarge(16 << 30));
        assert_eq!(Heap::new(config.clone(), 1).map(|_| ()), refused);
        assert_eq!(Heap::new_elastic(config, 1, 9).map(|_| ()), refused);
    }

    /// §4.1's bitmap: one bit per slot, 64 slots to a word, each class
    /// sized for its maximum capacity — carved in class order out of the
    /// words the heap is handed, on which it places exactly as one that owns
    /// its maps. One word short, the heap is refused, and the global
    /// allocator's initialization fails rather than run past its mapping.
    #[test]
    fn metadata_is_one_bit_per_slot() {
        let config = HeapConfig::default();
        let words = |c: SizeClass| config.capacity(c).div_ceil(64);
        let total = SizeClass::all().map(words).sum();
        assert_eq!(Heap::metadata_words_needed(&config), total);
        let storage: &'static [Word] = Box::leak((0..total).map(|_| Word::new(0)).collect());
        let geometry = || HeapGeometry::new(config.clone()).unwrap();
        assert!(Heap::carved(geometry(), 7, &storage[1..]).is_none());
        let carved = Heap::carved(geometry(), 7, storage).unwrap();
        let owned = heap(7);
        for size in [8, 8, 100, 16 * 1024] {
            let slot = carved.alloc(size).unwrap();
            assert_eq!(
                carved.offset_of(slot),
                owned.offset_of(owned.alloc(size).unwrap())
            );
        }
        let mut rest = storage;
        for class in SizeClass::all() {
            let (map, tail) = rest.split_at(words(class));
            rest = tail;
            let live: u32 = map
                .iter()
                .map(|w| w.load(Ordering::Relaxed).count_ones())
                .sum();
            assert_eq!(
                live as usize,
                carved.partition(class).in_use(),
                "class {class:?}"
            );
        }
    }

    /// Eight threads churn every size class of an elastic heap born at
    /// 1/64: allocations that grow classes as they go and are denied at the
    /// maximum, frees of their own objects, and a second free after every
    /// seventh. A second free is ignored and counted — or, when another
    /// thread has claimed the slot since, frees that thread's object, whose
    /// own free is then the ignored one (the hazard DieHard leaves to
    /// chance, §3.3). Either way every placement is freed exactly once and
    /// every extra free is one ignored free, so the books balance exactly
    /// once the threads join.
    #[test]
    fn concurrent_mixed_class_churn_keeps_accounting_exact() {
        const THREADS: usize = 8;
        const OPS: usize = 3000;
        let h: Arc<Heap> = Arc::new(Heap::new_elastic(HeapConfig::default(), 7, 6).unwrap());
        let [attempted, allocated, doubled] = [(); 3].map(|()| Arc::new(AtomicUsize::new(0)));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            let [attempted, allocated, doubled] =
                [&attempted, &allocated, &doubled].map(Arc::clone);
            handles.push(std::thread::spawn(move || {
                let mut live: Vec<usize> = Vec::new();
                let mut rng = Mwc::seeded(0x1000 + t as u64);
                for i in 0..OPS {
                    let size = 1 + rng.below(16 * 1024);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    if let Some(slot) = h.alloc(size) {
                        allocated.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    if live.len() > 32 {
                        let victim = live.swap_remove(rng.below(live.len()));
                        let _ = h.free_at(victim);
                        if i % 7 == 0 {
                            doubled.fetch_add(1, Ordering::Relaxed);
                            let _ = h.free_at(victim);
                        }
                    }
                }
                for off in live {
                    let _ = h.free_at(off);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = h.stats();
        let [attempted, allocated, doubled] =
            [attempted, allocated, doubled].map(|n| n.load(Ordering::Relaxed) as u64);
        assert_eq!(h.live_objects(), 0);
        assert_eq!(stats.allocs, allocated);
        assert_eq!(stats.frees, allocated, "every placement freed once");
        assert_eq!(stats.ignored_frees, doubled, "every extra free ignored");
        assert!(doubled > 0 && h.growth_events() > 0, "{stats:?}");
        assert_eq!(
            stats.exhausted,
            attempted - allocated,
            "every failed attempt was a denial at a class's maximum"
        );
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
    /// alloc-only sequence on one thread is bit-identical to the load +
    /// store arm's
    /// even when *other* classes are being hammered concurrently — contention
    /// only reorders draws within a class's own stream, never across
    /// classes.
    #[test]
    fn alloc_only_determinism_isolated_per_class() {
        const SEED: u64 = 0x05EE_DCA5;
        let plain = heap(SEED);
        let expected: Vec<Option<Slot>> = (0..500)
            .map(|_| plain.try_alloc_in(true, 8).placed())
            .collect();

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

    /// A `fork` from a signal handler that interrupted a growth step finds
    /// that class's lock held by its own thread: the prepare hook takes every
    /// other lock, and the resume hook releases those and leaves that one to
    /// the frame holding it — where a second acquisition used to panic.
    #[test]
    fn fork_locks_skip_the_one_their_thread_holds() {
        let h = heap(0xF0);
        let growing = h.maintenance[3].lock();
        h.lock_all_maintenance();
        let holder = |i: usize| h.maintenance[i].lock_unless_mine().is_none();
        assert!(
            (0..NUM_CLASSES).all(holder),
            "every lock held, one by the outer frame"
        );
        // SAFETY: the locks lock_all_maintenance took, released once.
        unsafe { h.unlock_all_maintenance() };
        assert!(holder(3), "still the growth step's");
        drop(growing);
        assert!((0..NUM_CLASSES).all(|i| !holder(i)), "all free again");
    }
}
