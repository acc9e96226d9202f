//! The real DieHard allocator: an `mmap`-backed heap usable as Rust's
//! `#[global_allocator]`.
//!
//! This is the production analogue of the paper's `LD_PRELOAD` interposition
//! (§5.1): where the C implementation replaces `malloc`/`free` at link time,
//! a Rust program opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: diehard_core::global::DieHard = diehard_core::global::DieHard::new();
//! ```
//!
//! Everything the paper prescribes is here: twelve randomized power-of-two
//! regions capped at `1/M` fullness, metadata fully segregated in its own
//! mapping, large objects served by dedicated `mmap`s with `PROT_NONE`
//! guard pages on both ends, validated (and silently ignored) erroneous
//! frees, and seeding from `/dev/urandom`.
//!
//! The per-operation paths are **lock-free**: after a one-time
//! initialization, the header (heap base, page size, configuration) is read
//! without synchronization, and small-object `alloc`/`free` run entirely on
//! atomics — a probe/CAS loop over the class's paired slot-state map, with
//! a ticket counter enforcing the `1/M` cap. Each size class keeps one
//! *maintenance* `SpinLock` for batch work only (magazine refills, free
//! flushes, reservation teardown); the large-object validity table has a
//! separate lock of its own.
//!
//! Environment knobs (read once, at first allocation; ignored when the
//! allocator was built with [`DieHard::with_config`]):
//!
//! * `DIEHARD_SEED` — decimal RNG seed (default: true randomness).
//! * `DIEHARD_REGION_MB` — per-class region megabytes (default 32, i.e. the
//!   paper's 384 MB heap).
//! * `DIEHARD_M` — integer expansion factor `M` (default 2).
//! * `DIEHARD_GROW` — elastic mode (§9's adaptive growth, concurrent):
//!   each class's *active* capacity starts at `1/2^value` of its configured
//!   maximum (e.g. `6` → 1/64) and grows under `1/M`-cap pressure, a quarter
//!   of its power-of-two band at a time (64, 80, 96, 112, 128, 160 … KiB).
//!   Offsets never move — the full virtual span is reserved up front and
//!   only the probing range widens. A class denied at its *maximum*
//!   capacity spills the request to a dedicated guard-paged mapping
//!   instead of returning null. Unset keeps the constructor's choice:
//!   for [`DieHard::new`] the fixed-size behavior (regions born at full
//!   capacity, exhaustion is null), for [`DieHard::elastic_from_env`] —
//!   `libdiehard.so` — its default fraction, [`DEFAULT_GROW_LOG2`]. `0` is
//!   the paper's fixed heap in elastic clothing: born at the maximum, no
//!   growth, spills past it.
//!
//!   What the start fraction buys and costs. Uniform placement touches
//!   every page of a class's *active range* however few objects are live,
//!   so a class's resident floor is its range, and the range stays within
//!   `1.25 M` × what has been live at once (`M` × live, rounded up to the
//!   next quarter-band rung; `2M` while classes doubled) only if it starts
//!   small: at [`DEFAULT_GROW_LOG2`] every class
//!   of a 32 MB region starts at 64 KiB, where the former 2 MB start
//!   charged 2 MB per class the host so much as warmed up. The capacity
//!   is `≥ M × live` at every instant either way, which is how the paper
//!   sizes its heap, and §3's overflow bound — a function of the free
//!   *fraction*, ≥ `1 − 1/M` — is untouched. §3's dangling-pointer bound
//!   is not: it scales with the number of free slots `Q` the freed slot
//!   hides among, and a young class now has `Q ≥` 4096 (8 B objects) …
//!   8 (4 KiB) … 2 (16 KiB) where a 2 MB start gave 131 072 … 256 … 64;
//!   `Q` grows with the range — `Q ≥ (1 − 1/M)` × capacity at every rung —
//!   and is back to the old figure once `M` × live reaches 2 MB. The other
//!   cost is time: a class whose range
//!   follows its live set sits near its `1/M` cap, so an allocation pays
//!   the paper's expected `1/(1 − 1/M)` probes (§4.2) where a range far
//!   larger than `M` × live paid one — 8 ns a pair on `perf_report`'s
//!   64-object churn ring (`preload_alloc_churn`, 71 → 79 ns at `M` = 2;
//!   73 ns at `M` = 8). `DIEHARD_GROW=4` restores the old start.
//!
//! ## Unsafe-surface audit (2026-08, stable toolchain, lock-free fast path)
//!
//! This module, [`sys`], and [`tls`] are the crate's `unsafe` *syscall and
//! TLS* surface, which is why the subtree sits behind the off-by-default
//! `global` cargo feature; the allocation-free synchronization primitives it
//! builds on live ungated in [`crate::sync`], and the lock-free slot-state
//! machine itself lives ungated in [`crate::bitmap`] /
//! [`crate::partition`] / [`crate::magazine`]. Findings, kept current as
//! the module changes:
//!
//! * **No `static mut` anywhere.** Allocator state is a `GlobalState`
//!   whose address a `DieHard` publishes once: one `Acquire` load of that
//!   word, non-null, proves the header (config, `heap_base`, page size)
//!   fully initialized, after which it is immutable and read without any
//!   lock. That load is all any entry pays once the heap is ready — `alloc`
//!   as much as `free`: a plain `mov` on x86-64, with the initializing
//!   [`OnceCell`]'s CAS out of line. All *mutable* state is interior-
//!   mutable behind locks — the pattern stable Rust recommends over
//!   `static mut` (which trips `static_mut_refs` on current toolchains).
//! * **Atomics replace the old per-shard exclusivity argument.** Every
//!   slot's lifecycle lives in one 2-bit cell of its class's
//!   [`SlotStateMap`](crate::bitmap::SlotStateMap), and every transition is
//!   a single CAS or read-modify-write on that cell: claiming a free slot,
//!   committing a reservation, and freeing are all linearizable at one
//!   atomic instruction, so two threads can never both own a slot and a
//!   free can never clear a slot it does not own (the paired encoding makes
//!   the CAS fail instead). The `1/M` cap is a ticket `fetch_add` that backs
//!   out on overshoot, and the per-class RNG packs its whole state in one
//!   `AtomicU64` CAS ([`AtomicMwc`](crate::rng::AtomicMwc)) — no torn draws.
//!   (Each of these is a [`Word`](crate::sync::Word) update — see the next
//!   finding for when it is not a locked instruction.)
//!   The surviving locks are slow-path only: one maintenance `SpinLock` per
//!   class serializing *batches* (refill, flush, teardown) against each
//!   other — never taken by per-op traffic — plus the large-object table
//!   lock. No operation ever takes two locks at once; a free resolves its
//!   address with pure arithmetic *before* touching any shared state — one
//!   subtraction and one comparison, in `GlobalState::span_offset`, the
//!   only place a pointer is tested against the span.
//!   Heap-wide statistics are relaxed atomics and take no lock at all.
//! * **One extern read decides how those atomics are updated.**
//!   [`sys::single_threaded`] loads glibc's `__libc_single_threaded`
//!   (glibc ≥ 2.32; an `extern` static typed `AtomicU8`, because a C global
//!   that changes must not be declared immutable). While it reads 1, every
//!   [`Word`](crate::sync::Word) update — RNG advance, slot transitions,
//!   ticket, counters, the `SpinLock` flag — is a relaxed load and a relaxed
//!   store instead of a locked instruction; [`crate::sync`]'s module docs
//!   carry the argument. The byte is read once per call, at the entry
//!   ([`tls::enter`]), and that answer is carried down to every update the
//!   call makes. Linearizability is untouched: with one thread
//!   every operation is trivially atomic, and none straddles the flip,
//!   because the only thread that can clear the byte is the one executing
//!   the operation. What this arm does **not** survive is a thread of
//!   control glibc has not been told about: a raw `clone(CLONE_VM)` that
//!   bypasses `pthread_create` leaves the byte at 1 with two threads on the
//!   heap, whose load/store pairs can lose updates — the exposure glibc's
//!   own `malloc` has under `SINGLE_THREAD_P`, and not defended against
//!   here either. The one-thread version of that race is a signal handler
//!   re-entering the allocator between a load and its store:
//!   `libdiehard.so` diverts re-entrant calls to its bootstrap arena before
//!   they reach this heap, and `GlobalAlloc` was never async-signal-safe in
//!   either arm (neither kind of magazine is re-entrant).
//! * **Raw-pointer state.** `GlobalState` owns raw `mmap` regions and is
//!   never moved or sent, only shared; its `unsafe impl Sync` is sound
//!   because `heap_base`/`page` are written once before the state's address
//!   is published (Release/Acquire) and only ever *read* afterwards, while
//!   everything reachable for mutation is behind the shard and large-table
//!   locks described above — except the heap's own magazines, whose
//!   argument is the next-but-one finding.
//! * **One large-object table, one mapping shape.** Every large mapping —
//!   an oversized request or an elastic spill — is exactly
//!   `[user − page, user + len + page)`: `alloc_large` trims the alignment
//!   slack off *both* ends before the pointer escapes, so one entry
//!   `user → len` is the whole record. `usable_size` answers `len`, and
//!   `release` unmaps `len + 2 × page` from `user − page`, each from one
//!   lookup; nothing else is ever derived from a large pointer (an interior
//!   one is not in the table and is refused — its guard pages bound it).
//! * **Every `unsafe` block carries a `SAFETY:` comment** naming its
//!   invariant; `cargo clippy --all-targets --features global` is
//!   warning-clean with no `#[allow]` escapes in this subtree.
//! * **Lazily-initialized, never self-allocating.** Exactly one thread runs
//!   initialization (losers of the [`OnceCell`] race spin without parking —
//!   parking may allocate and re-enter the allocator being initialized);
//!   metadata (the slot-state maps and the large-object validity table)
//!   lives in a dedicated mapping, so initialization cannot recurse.
//!   A failed initialization (OOM, invalid config) is terminal: later calls
//!   return null instead of retrying `mmap` storms.
//! * **Thread-local magazines never allocate and never dangle.** The
//!   per-thread block is `const`-initialized ELF TLS (no lazy-init state,
//!   no `std` destructor registration — which would `calloc` inside glibc
//!   and re-enter the allocator); the thread-exit flush is a single
//!   `pthread` key whose destructor runs while ELF TLS is still mapped.
//!   The invariant that keeps a binding valid: *a `GlobalState` lives in
//!   its heap's metadata mapping, which is never unmapped*, so every
//!   binding is a plain `&'static` pointer, and a flush through one — at
//!   rebind or at thread exit, after the `DieHard` that made it was dropped
//!   or moved — lands in a heap that is still mapped ([`tls`]'s module docs
//!   have why). A `DieHard` holds only that address, so moving one,
//!   initialized or not, is sound. The same block holds
//!   `libdiehard.so`'s re-entrancy flag ([`with_guard`],
//!   [`DieHard::alloc_guarded`], [`DieHard::free_guarded`]), so a call in a
//!   threaded process looks it up once — one `__tls_get_addr` in a shared
//!   object — and passes it down; the one `unsafe` of that lookup is a
//!   deref of the block's address on its own thread.
//! * **A process with one thread uses no thread-local storage.** When a
//!   call's one read of the thread count says the process is alone, its
//!   re-entrancy flag is a process-wide static and its magazines are the
//!   heap's own (`GlobalState::solo`, [`tls::SoloMagazines`]): no lookup, no
//!   binding check. The invariant: *the heap's own magazines are touched
//!   only by a call that found the process alone, or by the one drain that
//!   empties them* — the first thread to bind to the heap or flush its
//!   cache into it (the cold rebind, or `flush_thread_cache`'s threaded
//!   arm) hands their reservations and buffered frees back exactly once,
//!   behind a one-shot flag, and nothing reaches them afterwards, because
//!   the byte never returns to 1. The two cannot overlap: the drainer
//!   exists only after a `pthread_create` that every alone call happened
//!   before, which also publishes their plain stores to it. The block is
//!   consistent with the heap at every instant (reserved slots hold their
//!   tickets, buffered frees are live slots), so draining late only ever
//!   delays a reuse, never loses one. A fork child of a process that never had a second
//!   thread is alone too, and keeps using its copy. The one dereference of
//!   the block is in [`tls`], beside the thread-local block's.
//! * **The per-op path is one function per direction.** Every function
//!   from an entry point to the magazine pop or the free-buffer push is
//!   inlined into the entry (`libdiehard.so`'s `alloc_impl` and
//!   `free_impl`), and everything else — initialization, a refill, a free
//!   flush, a rebind, large objects — is a `#[cold]` call out of it. On a
//!   ready heap and a single-threaded host that path calls nothing — not
//!   `__tls_get_addr` either — and executes no locked instruction until a
//!   refill or a flush, and neither does the refill or the flush then.
//! * **Per-op traffic never spins.** A magazine handout or buffered free —
//!   and the heap's own `try_alloc`/`free_at` — completes without acquiring
//!   any lock: a thread preempted mid-operation cannot wedge another
//!   thread's allocation, which the old shard-`SpinLock` design could not
//!   promise. The reserved/live
//!   state machine (free → reserved → live → free, one paired-bit cell per
//!   slot) is documented and tested in [`crate::bitmap`] and
//!   [`crate::magazine`].
//! * **Huge pages are two advisory syscalls, issued on evidence.**
//!   Initialization advises nothing: the small-object span is reserved
//!   2 MB-aligned and faults in 4 KB at a time, so a class a process barely
//!   uses costs the pages it touches (§4.1's lazily initialized
//!   partitions). Once a class has proven hot
//!   ([`PROMOTE_AFTER_ALLOCS`](crate::sharded::PROMOTE_AFTER_ALLOCS)),
//!   **every whole huge page of its active range** is handed to the promote
//!   hook, once, at the refill or growth step that completes it: the hook
//!   issues [`sys::advise_hugepages`] (`MADV_HUGEPAGE`) over exactly those
//!   huge pages — §7's TLB-reach remedy — and
//!   [`sys::collapse_hugepages`] (`MADV_COLLAPSE`) over the same bytes,
//!   which re-backs the pages already touched without moving or changing a
//!   byte. Advice never reaches past the active range, which is what keeps
//!   resident memory at what is in use: advice
//!   over a region whose active range is 64 KiB invites `khugepaged` to
//!   rebuild those 16 base pages as one 2 MB page (it collapses a range
//!   with up to `max_ptes_none` = 511 of 512 pages absent), and a
//!   long-lived process would creep back to 2 MB per hot class behind the
//!   allocator's back; advice over the whole region of a class whose range
//!   is 2.5 MB makes the first touch of its tail a 2 MB fault, 4 MB
//!   resident for 2.5 in use. The tail of less than one huge page stays on
//!   base pages until a later step completes it. A refused advice is not
//!   recorded as given: the range is offered again when the class next
//!   grows. Both calls are non-destructive by specification:
//!   neither can unmap, move, or zero memory,
//!   the kernel performs the collapse atomically with
//!   respect to other threads' loads and stores, and every failure (a
//!   kernel built without THP, `EINVAL` from the collapse before Linux 6.1
//!   or with THP off, no free 2 MB block) leaves the range exactly as it
//!   was, on 4 KB pages — so the collapse's result is ignored. Under THP
//!   `never` the advice is recorded and never acted on. Both are issued
//!   once per huge page, under the class's maintenance lock (so never
//!   concurrently with a growth step of the same class, and `fork_prepare`
//!   waits for one in flight), and never from a per-op path. The price of
//!   holding the lock across them is a stall per huge page: a collapse
//!   copies 2 MB and took
//!   0.4–15 ms on the reference box (`class_promote` in `BENCH_12.json`),
//!   during which a thread refilling *that* class, or a `fork`, waits in
//!   the lock's yield loop; handouts from magazines and every other class
//!   carry on. Under THP `always` the kernel may back first touches with
//!   huge pages on its own, promoted or not — nothing here forbids it, and
//!   there a range's tail is resident to the next 2 MB boundary.
//!   Each large-object mapping is still advised before its pointer escapes.
//! * **Elastic growth adds no new unsafety.** Growing a class rewrites one
//!   atomic (the packed capacity/threshold word) under the class
//!   maintenance lock; the slot-state maps and the heap span are sized for
//!   the *maximum* capacity from initialization, so no metadata or object
//!   memory is ever remapped, and every pointer handed out before a growth
//!   remains valid (same offset arithmetic) after it. The spill path is
//!   the pre-existing large-object allocator, reached with the same
//!   arguments an oversized request would use.

pub(crate) mod sys;
mod tls;

pub use crate::sync::{OnceCell, SpinGuard, SpinLock};

use crate::config::HeapConfig;
use crate::engine::{AllocOutcome, HeapStats};
use crate::large::LargeTable;
use crate::rng::entropy_seed;
use crate::safe_str;
use crate::sharded::Heap;
use core::alloc::{GlobalAlloc, Layout};
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// The elastic start `libdiehard.so` ships with (the fraction it passes to
/// [`DieHard::elastic_from_env`], used when `DIEHARD_GROW` is unset): every
/// class begins at `1/2^9` of its maximum — 64 KiB of the default 32 MB
/// region, i.e. 8192 slots of 8 B down to 4 of 16 KiB — and climbs the
/// quarter-band ladder from there (64, 80, 96, 112, 128, 160 … KiB:
/// [`AtomicPartition::grow_step`](crate::partition::AtomicPartition::grow_step)),
/// so a class's resident floor follows what is
/// live in it instead of being 2 MB from its first object (the
/// `DIEHARD_GROW` paragraph in the module docs has the price; the
/// measurements that chose 9 over 7 and 13 are in `CHANGES.md`, PR 16).
/// Short of 2 MB the class stays on base pages whatever its traffic; from
/// the step that takes a hot class to 2 MB, each whole huge page of its
/// range is promoted as a step completes it
/// ([`PROMOTE_AFTER_ALLOCS`](crate::sharded::PROMOTE_AFTER_ALLOCS)).
///
/// What the ladder keeps and what it gives up (PR 24). Kept, at every rung
/// of every class: `threshold = ⌊capacity / M⌋` exactly, so capacity ≥ `M` ×
/// live and free slots `Q ≥ (1 − 1/M)` × capacity — §3 where it is stated.
/// Given up: the doubling ladder's *unearned* slack. A class that doubled
/// sat, on average over where `M` × live falls in a band, at ≈ 1.44 × its
/// need; a quarter-band rung leaves ≈ 1.10 × (`churn_host`: 8 MB for 5–6 MB
/// of `M` × live became 6–7; `rss_ratio` 2.89 → 2.25). That slack was
/// protection nobody sized — up to twice the `Q` §3 asks for — and it was
/// speed: a class nearer its cap pays nearer the paper's `1/(1 − 1/M)`
/// expected probes (§4.2), and a refill nearer its cap is clamped to fewer
/// slots (`global_churn_cold` ≈ +7 ns a pair, the 64-object
/// `preload_alloc_churn` ring ≈ +4.5 ns because its 2 KiB class now stops
/// at 80–96 slots where it used to double to 128; `churn_host`'s
/// `overhead_ratio` does not move — CHANGES.md, PR 24).
///
/// The one definition: the interposer and the perf kernels that model it
/// both read it from here.
pub const DEFAULT_GROW_LOG2: u32 = 9;

/// Capacity of the large-object validity table (live large objects).
const LARGE_CAPACITY: usize = 4096;

/// The state behind an initialized allocator: the lock-free header fields
/// plus the two locked domains (small-object shards, large-object table).
/// It heads its heap's metadata mapping, which is never unmapped, so it is
/// never freed: every reference to it is `&'static`, and one outlives the
/// [`DieHard`] that made it, dropped or moved (the thread-local bindings of
/// [`tls`] rely on this).
struct GlobalState {
    /// Twelve lock-free partitions (reservations live in their paired-bit
    /// slot-state maps) + atomic stats: the heap, in its shared arm.
    heap: Heap,
    /// The magazines of every call that finds the process with one thread:
    /// the heap's own, reached without a thread-local lookup
    /// ([`tls::SoloMagazines`]).
    solo: tls::SoloMagazines,
    /// Base address of the small-object span. Written once at init, then
    /// read-only.
    heap_base: *mut u8,
    /// System page size. Written once at init, then read-only.
    page: usize,
    /// Whether the heap is elastic: classes grow on demand and a denial at
    /// the maximum capacity spills to a dedicated mapping instead of
    /// returning null. Written once at init, then read-only.
    elastic: bool,
    /// The large-object validity table (§4.1/§4.3): user pointer → user
    /// length, behind one lock disjoint from every small-object shard. The
    /// mapping is always `[user − page, user + len + page)` (`alloc_large`).
    large: SpinLock<LargeTable>,
}

// SAFETY: `heap_base` and `page` are written once before `DieHard`
// publishes this state's address (Release/Acquire) and are only read
// afterwards; `heap` is Sync by construction (per-shard SpinLocks + atomic
// stats), the large table is guarded by its SpinLock, and the heap's own
// magazines carry their own argument (`tls::SoloMagazines`). The mappings
// the raw pointers refer to are never unmapped.
unsafe impl Sync for GlobalState {}

impl GlobalState {
    /// Where `ptr` falls in the small-object span, or `None` outside it
    /// (large objects, foreign pointers, null). The one span test: §4.4's
    /// "two comparisons", as a wrapping subtraction and one comparison.
    #[inline(always)]
    fn span_offset(&self, ptr: *const u8) -> Option<usize> {
        let off = (ptr as usize).wrapping_sub(self.heap_base as usize);
        (off < self.heap.heap_span()).then_some(off)
    }

    /// The length of the live large object starting at `ptr` — one lookup,
    /// under the table lock. Out of line, so the lock's acquisition is one
    /// copy for both readers (`usable_size`, `remaining_space`).
    #[inline(never)]
    fn large_len(&self, ptr: *const u8) -> Option<usize> {
        self.large.lock().get(ptr as usize)
    }
}

impl core::fmt::Debug for GlobalState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GlobalState")
            .field("heap_base", &self.heap_base)
            .field("live_objects", &self.heap.live_objects())
            .field("large_objects", &self.large.lock().len())
            .finish()
    }
}

/// The DieHard global allocator.
///
/// Construct it `const` in a static; the heap initializes lazily on first
/// allocation (never allocating through itself — all metadata lives in a
/// dedicated `mmap` arena). It holds only the address of its state, which
/// lives in that arena, so a `DieHard` may be moved at any time.
#[derive(Debug)]
pub struct DieHard {
    /// The state's address once initialized, null until then: the ready
    /// path's one `Acquire` load.
    state: AtomicPtr<GlobalState>,
    /// Elects the one thread that builds and publishes `state`; terminal
    /// when that fails.
    init: OnceCell<()>,
    /// The configuration and seed fixed at construction, if any: the
    /// `DIEHARD_*` environment is then ignored.
    fixed: Option<(HeapConfig, u64)>,
    /// The elastic start fraction: fixed when `fixed` is, else the
    /// fallback for an unset `DIEHARD_GROW`. `None` is the fixed-size heap.
    grow: Option<u32>,
    /// Whether [`fork_prepare`](Self::fork_prepare) found the heap ready
    /// and took its locks: [`fork_resume`](Self::fork_resume) must release
    /// exactly that set, even if another thread initialized the heap
    /// between the two calls.
    fork_locked: AtomicBool,
}

impl DieHard {
    /// The one field list behind the four constructors.
    const fn configured(fixed: Option<(HeapConfig, u64)>, grow: Option<u32>) -> Self {
        Self {
            state: AtomicPtr::new(ptr::null_mut()),
            init: OnceCell::new(),
            fixed,
            grow,
            fork_locked: AtomicBool::new(false),
        }
    }

    /// Creates an uninitialized allocator; usable in `static` items.
    #[must_use]
    pub const fn new() -> Self {
        Self::configured(None, None)
    }

    /// As [`new`](Self::new) but with a fixed RNG seed — deterministic
    /// layouts for tests and debugging (heap differencing, §9) — and an
    /// explicit heap configuration, bypassing the `DIEHARD_*` environment
    /// knobs entirely.
    ///
    /// This is the constructor tests should use: configuring instances
    /// directly keeps parallel tests isolated, where mutating process-global
    /// environment variables from concurrently-running test threads races.
    /// (An invalid configuration surfaces as a failed initialization: every
    /// allocation returns null.)
    #[must_use]
    pub const fn with_config(config: HeapConfig, seed: u64) -> Self {
        Self::configured(Some((config, seed)), None)
    }

    /// As [`with_config`](Self::with_config) but **elastic**: every class
    /// starts at `1/2^initial_fraction_log2` of its configured maximum
    /// capacity, grows under `1/M`-cap pressure, and — once denied at the
    /// maximum — spills the request to a dedicated guard-paged mapping
    /// instead of returning null. The `DIEHARD_GROW` environment knob is
    /// this constructor's env-driven equivalent for allocators built with
    /// [`new`](Self::new).
    #[must_use]
    pub const fn with_elastic_config(
        config: HeapConfig,
        seed: u64,
        initial_fraction_log2: u32,
    ) -> Self {
        Self::configured(Some((config, seed)), Some(initial_fraction_log2))
    }

    /// As [`new`](Self::new) — fully environment-configured — but
    /// **elastic by default**: when `DIEHARD_GROW` is unset, classes start
    /// at `1/2^default_fraction_log2` of their maximum and a denial at full
    /// size spills to a dedicated mapping instead of returning null. A set
    /// `DIEHARD_GROW` still wins. This is the constructor for the
    /// `LD_PRELOAD` interposer (which passes [`DEFAULT_GROW_LOG2`]), where
    /// `malloc` returning null for a class-cap reason (rather than true
    /// OOM) would fail host programs the paper promises to keep running.
    #[must_use]
    pub const fn elastic_from_env(default_fraction_log2: u32) -> Self {
        Self::configured(None, Some(default_fraction_log2))
    }

    /// C-style allocation entry point: allocate `size` bytes aligned to 8
    /// bytes, matching the paper's smallest (8-byte) size class. Rust
    /// callers needing stricter alignment go through [`GlobalAlloc::alloc`]
    /// with an explicit `Layout`. Returns null when the size is zero or too
    /// large to describe as a `Layout`, the size class is at its `1/M` cap,
    /// or the system is out of memory.
    #[must_use]
    pub fn malloc(&self, size: usize) -> *mut u8 {
        if size == 0 {
            return ptr::null_mut();
        }
        // An unrepresentable layout (size overflowing isize when rounded to
        // the alignment) is an allocation failure, reported as null — never
        // silently downgraded to a smaller allocation.
        let Ok(layout) = Layout::from_size_align(size, 8) else {
            return ptr::null_mut();
        };
        // SAFETY: size is non-zero and the layout is valid.
        unsafe { self.alloc(layout) }
    }

    /// C-style free: validates `ptr` exactly like `DieHardFree` (§4.3) and
    /// *ignores* invalid, double, and foreign frees.
    #[inline]
    pub fn free(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        tls::enter(
            |alone| self.free_in(alone, ptr),
            |block| self.free_in(block, ptr),
        );
    }

    /// [`GlobalAlloc::alloc`] behind this thread's re-entrancy flag — the
    /// entry `libdiehard.so`'s allocation exports funnel into. A call made
    /// while the flag is already set ([`with_guard`], or an enclosing
    /// guarded entry: glibc allocating from inside the allocator's own
    /// machinery, a signal handler interrupting it) returns `nested()` and
    /// never reaches the heap, whose magazines and single-thread arm are not
    /// re-entrant. One read of the thread count decides where the flag and
    /// the magazines are: while the process has one thread, a process-wide
    /// flag and the heap's own magazines; after that, one thread-local
    /// block, looked up once for both ([`tls`] has why). Inlined whole
    /// into the caller, so the `READY` path makes no call until a magazine
    /// refill.
    #[inline(always)]
    pub fn alloc_guarded(&self, layout: Layout, nested: impl FnOnce() -> *mut u8) -> *mut u8 {
        tls::enter(
            |alone| alone.guarded(|reentered| (!reentered).then(|| self.alloc_in(alone, layout))),
            |block| block.guarded(|reentered| (!reentered).then(|| self.alloc_in(block, layout))),
        )
        .unwrap_or_else(nested)
    }

    /// [`free`](Self::free) behind the same flag as
    /// [`alloc_guarded`](Self::alloc_guarded): a re-entrant call runs
    /// `nested` instead of touching the heap. The same one read, inlined
    /// whole; no call until a free-buffer flush.
    #[inline(always)]
    pub fn free_guarded(&self, ptr: *mut u8, nested: impl FnOnce()) {
        let freed = tls::enter(
            |alone| alone.guarded(|reentered| (!reentered).then(|| self.free_in(alone, ptr))),
            |block| block.guarded(|reentered| (!reentered).then(|| self.free_in(block, ptr))),
        );
        if freed.is_none() {
            nested();
        }
    }

    /// DieHard's bounded `strcpy` (§4.4) — `libdiehard.so` exports exactly
    /// this. When `dest` is in a DieHard object
    /// ([`remaining_space`](Self::remaining_space): any pointer into a small
    /// object, the start of a large one) the copy is clamped to the space
    /// left in it and always NUL-terminated inside it; anywhere else it is
    /// C's `strcpy`, `strlen(src) + 1` bytes.
    ///
    /// The bound takes no shard lock (a large start pointer takes the
    /// large-table lock for one lookup), keeping the paper's
    /// two-comparisons-cheap contract under concurrency.
    ///
    /// Returns the number of payload bytes copied.
    ///
    /// # Safety
    ///
    /// `src` must point to a NUL-terminated string; off the heap `dest` must
    /// have room for all of it, terminator included, exactly as C requires.
    pub unsafe fn strcpy(&self, dest: *mut u8, src: *const u8) -> usize {
        // SAFETY: src is NUL-terminated per contract, and a strcpy is the
        // strncpy whose `n` is exactly the string and its terminator.
        unsafe {
            let len = c_strlen(src);
            self.bounded_copy(dest, src, len, len + 1)
        }
    }

    /// DieHard's bounded `strncpy` (§4.4) — `libdiehard.so` exports exactly
    /// this. Off the heap it is C's `strncpy`: `min(strlen, n)` bytes, then
    /// zeros up to `n`, never byte `n` itself, no terminator beyond that. In
    /// a DieHard object the caller's `n` is clamped by the true space left,
    /// because "programmers can inadvertently specify an incorrect length".
    ///
    /// **The paper's deliberate deviation from C**, stated here once: in an
    /// object the result is always NUL-terminated *within the object* — so a
    /// source of `n` or more bytes gets a terminator at byte `n` when the
    /// object has room for it, and the last byte of the object when it does
    /// not — where C would write exactly `n` bytes, unterminated. The
    /// zero-padding stops at `min(n, space)`. Off the heap nothing deviates:
    /// the interposer must not write one byte more than the contract allows
    /// into memory it knows nothing about.
    ///
    /// Returns the number of payload bytes copied.
    ///
    /// # Safety
    ///
    /// `src` must be readable up to `n` bytes or its NUL terminator,
    /// whichever comes first; off the heap `dest` must hold `n` bytes,
    /// exactly as C requires.
    pub unsafe fn strncpy(&self, dest: *mut u8, src: *const u8, n: usize) -> usize {
        // SAFETY: per contract; the scan stops at `n`.
        unsafe { self.bounded_copy(dest, src, c_strlen_bounded(src, n), n) }
    }

    /// The one §4.4 copy behind [`strcpy`](Self::strcpy) and
    /// [`strncpy`](Self::strncpy): the `len ≤ n` bytes at `src` into `dest`
    /// as `strncpy(dest, src, n)` has them, clamped in a DieHard object.
    ///
    /// # Safety
    ///
    /// `src` is readable for `len` bytes; off the heap `dest` holds `n`.
    unsafe fn bounded_copy(&self, dest: *mut u8, src: *const u8, len: usize, n: usize) -> usize {
        // SAFETY: the caller scanned `len` readable bytes at `src`. A DieHard
        // object has `space` writable bytes at `dest` (live or not, the
        // slot is mapped), and off the heap the caller guarantees `n`.
        unsafe {
            let src = core::slice::from_raw_parts(src, len);
            let Some(space) = self.remaining_space(dest) else {
                ptr::copy_nonoverlapping(src.as_ptr(), dest, len);
                ptr::write_bytes(dest.add(len), 0, n - len);
                return len;
            };
            let dest = core::slice::from_raw_parts_mut(dest, space);
            let copied = safe_str::bounded_strncpy(dest, space, src, n).copied;
            // C zero-pads through byte n − 1, clamped to the object; byte
            // `copied` already holds the bounded terminator.
            dest[copied..n.min(space)].fill(0);
            copied
        }
    }

    /// Live small objects currently tracked (diagnostics: a popcount over
    /// every slot-map word, [`Heap::live_objects`]). Flushes the calling
    /// thread's magazine first so the count reflects this thread's buffered
    /// frees; slots reserved inside other threads' magazines are excluded
    /// (they are not live).
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.flush_thread_cache();
        self.ready().map_or(0, |s| s.heap.live_objects())
    }

    /// Heap statistics since initialization. Flushes the calling thread's
    /// magazine first, so in quiescence (all other threads exited or
    /// flushed) the counters are exact.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.flush_thread_cache();
        self.ready()
            .map_or_else(Default::default, |s| s.heap.stats())
    }

    /// Slots currently reserved inside thread-local magazines (diagnostics;
    /// zero once every thread has exited or flushed). Flushes the calling
    /// thread's magazine first — flushing returns its reservations too.
    #[must_use]
    pub fn reserved_slots(&self) -> usize {
        self.flush_thread_cache();
        self.ready().map_or(0, |s| s.heap.reserved_slots())
    }

    /// Bitmask of size classes with memory promoted to huge pages (bit `i` =
    /// class index `i`; diagnostics): those for which a refill or growth
    /// step has found the cumulative allocation count at
    /// [`PROMOTE_AFTER_ALLOCS`](crate::sharded::PROMOTE_AFTER_ALLOCS) or
    /// more and whole huge pages in the active range, **and the kernel has
    /// accepted the advice** for at least one of them
    /// ([`Heap::advised_len`] has the extent; whether it also collapsed
    /// them is not recorded).
    #[must_use]
    pub fn promoted_classes(&self) -> u32 {
        self.ready().map_or(0, |s| s.heap.promoted_classes())
    }

    /// Flushes the calling thread's magazine into this heap, releasing its
    /// buffered frees and returning its unhanded reservations. A no-op when
    /// the thread's magazines are bound to a different heap (or to none).
    /// Other threads flush at their own exits; call this from each thread
    /// that should settle its accounting early. While the process has one
    /// thread the magazine flushed is the heap's own; once it has more, the
    /// first call also drains that one, if no other call has.
    pub fn flush_thread_cache(&self) {
        let Some(state) = self.ready() else {
            return;
        };
        tls::enter(
            |alone| state.solo.with(alone, |mags| mags.flush(true, &state.heap)),
            |block| {
                state.solo.drain(&state.heap);
                block.flush_if_bound(state);
            },
        );
    }

    /// C `malloc_usable_size`: the full capacity of the live object whose
    /// *start* is `ptr` — the rounded class size for small objects, the
    /// page-rounded user range for large ones. Returns 0 for null, interior,
    /// foreign, and dead pointers (glibc returns 0 only for null and leaves
    /// the rest undefined; answering 0 instead of corrupting is this
    /// allocator's whole premise). A small object whose free is still
    /// buffered in a thread magazine reports its size until the batch
    /// flushes — the slot is genuinely not reusable before then.
    #[must_use]
    pub fn usable_size(&self, ptr: *mut u8) -> usize {
        let Some(state) = self.ready() else {
            return 0;
        };
        match state.span_offset(ptr) {
            Some(off) => match state.heap.slot_containing(off) {
                Some(slot) if state.heap.offset_of(slot) == off && state.heap.is_live_at(off) => {
                    slot.size()
                }
                _ => 0,
            },
            None => state.large_len(ptr).unwrap_or(0),
        }
    }

    /// Bytes from `ptr` to the end of the object containing it — the §4.4
    /// clamp bound, valid for *interior* pointers too (unlike
    /// [`usable_size`](Self::usable_size)). `None` when `ptr` is not inside
    /// a DieHard object; small-object answers are pure arithmetic (no
    /// liveness check — the paper's mask and two subtractions), large
    /// ones resolve exact-start pointers through the validity table
    /// (interior large pointers are not resolvable — the mapping's own
    /// guard pages bound those).
    #[must_use]
    pub fn remaining_space(&self, ptr: *mut u8) -> Option<usize> {
        let state = self.ready()?;
        match state.span_offset(ptr) {
            Some(off) => safe_str::space_in_object(state.heap.geometry(), off),
            None => state.large_len(ptr),
        }
    }

    /// `fork(2)` prepare: acquires, in a fixed global order, every lock a
    /// forked child could otherwise inherit mid-critical-section — all
    /// twelve per-class maintenance locks, then the large-object table
    /// lock. With these held across the `fork`, the
    /// child's single thread sees batch-consistent shard metadata and
    /// settled tables. In-flight *lock-free* operations in other threads
    /// (a reservation ticket between `fetch_add` and commit) can strand a
    /// bounded number of slots in the child — an availability leak, never
    /// corruption: the slot-state CAS encoding stays self-consistent under
    /// any interleaving of the parent's atomics.
    ///
    /// Pair with [`fork_resume`](Self::fork_resume) in both the parent and
    /// the child (the `pthread_atfork` parent/child hooks).
    pub fn fork_prepare(&self) {
        // Record exactly which state (if any) gets locked: a racing first
        // allocation can initialize the heap between prepare and resume,
        // and resume must not "release" locks that were never taken.
        let state = self.ready();
        if let Some(state) = state {
            state.heap.lock_all_maintenance();
            state.large.raw_lock();
        }
        self.fork_locked.store(state.is_some(), Ordering::Release);
    }

    /// Releases the locks taken by [`fork_prepare`](Self::fork_prepare), in
    /// reverse order.
    ///
    /// # Safety
    ///
    /// Must be called exactly once in each process that inherited the locks
    /// (parent and child), after a `fork_prepare` on the same allocator.
    /// The lock set released is the one `fork_prepare` recorded, so a heap
    /// that initialized concurrently between the two calls is handled
    /// correctly (its locks were never taken and are left alone).
    pub unsafe fn fork_resume(&self) {
        // A state, once published, stays: the one prepare locked is the one
        // `ready` answers now.
        if let (true, Some(state)) = (self.fork_locked.load(Ordering::Acquire), self.ready()) {
            // SAFETY: held by the paired fork_prepare (this thread, or the
            // forking thread this child process inherited from).
            unsafe {
                state.large.raw_unlock();
                state.heap.unlock_all_maintenance();
            }
        }
    }

    // ---- internals -------------------------------------------------------

    /// The initialized state, if initialization has run and succeeded:
    /// one `Acquire` load.
    #[inline(always)]
    fn ready(&self) -> Option<&'static GlobalState> {
        // SAFETY: null, or the address `initialize` published with Release
        // after `build_state` wrote the whole state into a mapping that is
        // never unmapped; the Acquire load makes those writes visible.
        unsafe { self.state.load(Ordering::Acquire).as_ref() }
    }

    /// The initialized state, running the one-time initialization on first
    /// call. `None` means initialization failed (terminally). Once ready,
    /// [`ready`](Self::ready).
    #[inline(always)]
    fn state(&self) -> Option<&'static GlobalState> {
        self.ready().or_else(|| self.initialize())
    }

    /// The not-ready half of [`state`](Self::state): exactly one thread
    /// builds the state and publishes its address; racers wait for it.
    #[cold]
    #[inline(never)]
    fn initialize(&self) -> Option<&'static GlobalState> {
        let init = || {
            let state = self.build_state()?;
            self.state
                .store(ptr::from_ref(state).cast_mut(), Ordering::Release);
            Some(())
        };
        self.init.get_or_try_init(init).and_then(|()| self.ready())
    }

    /// The one-time initialization: choose a configuration and seed, map the
    /// metadata arena and the heap span, and assemble the heap plus
    /// large-object table at the front of the arena. Runs on exactly one
    /// thread.
    #[cold]
    #[inline(never)]
    fn build_state(&self) -> Option<&'static GlobalState> {
        // Elastic mode: a config-fixed allocator takes its constructor's
        // choice and ignores the environment (the same isolation contract
        // as the other knobs); an env-configured one honors DIEHARD_GROW,
        // falling back to the constructor's default fraction, if any.
        let (config, seed, grow) = match &self.fixed {
            Some((config, seed)) => (config.clone(), *seed, self.grow),
            None => (
                HeapConfig::paper_default()
                    .with_region_bytes((crate::env::region_mb() as usize) << 20)
                    .with_multiplier(crate::env::multiplier() as f64),
                crate::env::seed().unwrap_or_else(entropy_seed),
                crate::env::grow().or(self.grow),
            ),
        };
        config.validate().ok()?;

        let page = sys::page_size();
        let span = config.heap_span();
        let words = <Heap>::metadata_words_needed(&config);
        let table_cap = (LARGE_CAPACITY * 2).next_power_of_two();
        // The state heads the arena, in whole pages of its own, so the maps
        // behind it start page-aligned.
        let head = size_of::<GlobalState>().next_multiple_of(page);
        let meta_bytes = (head + words * 8 + 2 * table_cap * 8 + page - 1) & !(page - 1);
        let meta = sys::map_reserve(meta_bytes);
        if meta.is_null() {
            return None;
        }
        // 2 MB-aligned, so every class region (a power of two) of at least
        // one huge page starts and ends on a huge-page boundary and can be
        // advised and collapsed as a whole. Nothing is advised here: the
        // span faults in 4 KB at a time until a class proves hot (see
        // `promote_region`).
        let heap_base = sys::map_reserve_huge_aligned(span);
        if heap_base.is_null() {
            // SAFETY: meta was just mapped with this length.
            unsafe { sys::unmap(meta, meta_bytes) };
            return None;
        }
        debug_assert_eq!(heap_base as usize % sys::HUGE_PAGE, 0);

        let bitmap_words = meta.wrapping_add(head).cast::<u64>();
        // SAFETY: past its head the meta arena provides `words` zeroed u64s
        // (the twelve classes' paired-bit slot-state maps, each sized for
        // its maximum capacity — all `metadata_words_needed` counts)
        // followed by the table's two arrays of `table_cap` usizes; mmap'd
        // memory is zeroed and exclusively ours. (Fraction 0 is the fixed
        // heap.)
        let heap = unsafe { Heap::from_raw_parts(config, seed, bitmap_words, grow.unwrap_or(0)) };
        let mut heap = match heap {
            Ok(heap) => heap,
            Err(_) => {
                // SAFETY: both mappings were just created with these lengths
                // and nothing references them.
                unsafe {
                    sys::unmap(meta, meta_bytes);
                    sys::unmap(heap_base, span);
                }
                return None;
            }
        };
        heap.set_promote_hook(promote_region, heap_base as usize);
        // SAFETY: as above; the two halves of the table area.
        let large = unsafe {
            let keys = bitmap_words.add(words).cast::<usize>();
            LargeTable::from_storage(keys, keys.add(table_cap), table_cap)
        };
        let state = meta.cast::<GlobalState>();
        // SAFETY: the arena's first `head` bytes are page-aligned, zeroed,
        // exclusively ours and large enough for a GlobalState; nothing
        // unmaps the arena, so the state lives as long as the process.
        unsafe {
            state.write(GlobalState {
                heap,
                solo: tls::SoloMagazines::new(),
                heap_base,
                page,
                elastic: grow.is_some(),
                large: SpinLock::new(large),
            });
            Some(&*state)
        }
    }

    /// The one allocation body, on the magazines this call's one read of the
    /// thread count chose: behind [`GlobalAlloc::alloc`] and
    /// [`alloc_guarded`](Self::alloc_guarded). Inlined into both arms of each
    /// of them, with every slow path — initialization, a rebind, a refill,
    /// a large object — out of line.
    #[inline(always)]
    fn alloc_in(&self, mags: &impl Magazines, layout: Layout) -> *mut u8 {
        let Some(state) = self.state() else {
            return ptr::null_mut();
        };
        // Slots are naturally aligned to their (power-of-two) class size, so
        // serving max(size, align) satisfies any alignment request.
        let need = layout.size().max(layout.align()).max(1);
        if need > crate::size_class::MAX_OBJECT_SIZE {
            return Self::alloc_large(state, layout.size(), layout.align());
        }
        // Fast path: pop a pre-reserved random slot from a magazine (no
        // lock); refills batch the shard lock.
        match mags.alloc(state, need) {
            AllocOutcome::Placed(slot) => {
                let off = state.heap.offset_of(slot);
                // SAFETY: `off` lies within the reserved heap span.
                unsafe { state.heap_base.add(off) }
            }
            // An elastic class denied at its *maximum* capacity spills to a
            // dedicated guard-paged mapping rather than failing: the pointer
            // frees through the same large-object table an oversized request
            // would use.
            AllocOutcome::Spill if state.elastic => {
                Self::alloc_large(state, layout.size().max(1), layout.align())
            }
            AllocOutcome::Spill | AllocOutcome::Unsupported => ptr::null_mut(),
        }
    }

    /// The one free body, on the magazines this call chose: behind
    /// [`free`](Self::free), [`free_guarded`](Self::free_guarded) and
    /// `dealloc`.
    #[inline(always)]
    fn free_in(&self, mags: &impl Magazines, ptr: *mut u8) {
        let Some(state) = self.ready() else {
            return;
        };
        let Some(off) = state.span_offset(ptr) else {
            Self::release_large(state, ptr);
            return;
        };
        // Small object: full §4.3 validation. The span/alignment half is
        // lock-free arithmetic either way; with magazines engaged the free
        // is buffered and released to its shard in a batch.
        mags.free(state, off);
    }

    /// Frees a pointer outside the small-object span: possibly a large
    /// object.
    #[cold]
    #[inline(never)]
    fn release_large(state: &GlobalState, ptr: *mut u8) {
        // Consult the validity table; unknown addresses are ignored
        // ("otherwise, it ignores the request").
        let Some(len) = state.large.lock().remove(ptr as usize) else {
            return;
        };
        // SAFETY: the entry was live, so `[ptr − page, ptr + len + page)` is
        // the mapping `alloc_large` made for this object and nothing has
        // released it since; the lock is already dropped, so the syscall
        // never runs under it.
        unsafe { sys::unmap(ptr.wrapping_sub(state.page), len + 2 * state.page) };
    }

    /// One object in a dedicated guard-paged mapping: past the largest
    /// class, or a spill. Always a fresh anonymous mapping, so its bytes
    /// read zero — `libdiehard.so`'s `calloc` relies on that.
    #[cold]
    #[inline(never)]
    fn alloc_large(state: &GlobalState, size: usize, align: usize) -> *mut u8 {
        let page = state.page;
        let len = (size + page - 1) & !(page - 1);
        // A page-aligned reservation reaches an `align` boundary within
        // `align − page` bytes of its first guard page.
        let slack = align.max(page) - page;
        let total = len + 2 * page + slack;
        let raw = sys::map_reserve(total);
        if raw.is_null() {
            return ptr::null_mut();
        }
        let user = (raw as usize + page).next_multiple_of(align);
        let (start, end) = (user - page, user + len + page);
        // Trim the slack off both ends, so the mapping is exactly
        // `[user − page, user + len + page)` — the shape `release` and
        // `usable_size` rely on — and guard its first and last page (§4.1:
        // "guard pages without read or write access on either end").
        // SAFETY: both trims are page-aligned, unreferenced slices of the
        // fresh mapping outside `[start, end)`, and both guards lie inside it.
        unsafe {
            if start > raw as usize {
                sys::unmap(raw, start - raw as usize);
            }
            if raw as usize + total > end {
                sys::unmap(end as *mut u8, raw as usize + total - end);
            }
            sys::protect_none(start as *mut u8, page);
            sys::protect_none((end - page) as *mut u8, page);
        }
        // Huge-page advice on the user range only (the guards must stay
        // 4 KB mappings); self-gated below 2 MB, best-effort above.
        sys::advise_hugepages(user as *mut u8, len);
        if !state.large.lock().insert(user, len) {
            // Table full: refuse rather than lose track of the mapping.
            // SAFETY: the mapping is unreferenced; release it whole.
            unsafe { sys::unmap(start as *mut u8, end - start) };
            return ptr::null_mut();
        }
        user as *mut u8
    }
}

/// The magazines one call allocates from and frees into, as its one read of
/// the thread count chose ([`tls::enter`]): the heap's own, in the plain
/// arm, while the process has one thread; this thread's block, in the
/// locked arm, after that. Each entry point's body is compiled once per
/// side, so neither copy tests the other side's case.
trait Magazines {
    /// A slot for `need` bytes.
    fn alloc(&self, state: &'static GlobalState, need: usize) -> AllocOutcome;
    /// The small-object free at span offset `off`.
    fn free(&self, state: &'static GlobalState, off: usize);
}

impl Magazines for tls::Alone {
    #[inline(always)]
    fn alloc(&self, state: &'static GlobalState, need: usize) -> AllocOutcome {
        state
            .solo
            .with(self, |mags| mags.try_alloc(true, &state.heap, need))
    }

    #[inline(always)]
    fn free(&self, state: &'static GlobalState, off: usize) {
        state.solo.with(self, |mags| {
            let _ = mags.free_at(true, &state.heap, off);
        });
    }
}

impl Magazines for tls::TlsBlock {
    #[inline(always)]
    fn alloc(&self, state: &'static GlobalState, need: usize) -> AllocOutcome {
        self.with_cache(state, |mags| mags.try_alloc(false, &state.heap, need))
    }

    #[inline(always)]
    fn free(&self, state: &'static GlobalState, off: usize) {
        self.with_cache(state, |mags| {
            let _ = mags.free_at(false, &state.heap, off);
        });
    }
}

/// The heap's [`PromoteHook`](crate::sharded::PromoteHook): moves the huge
/// pages `[offset, offset + len)` of the span at `heap_base` — whole ones,
/// inside one class's active range — onto huge pages. The advice covers
/// what the range faults in from here on, the collapse re-backs what has
/// been touched so far. The advice's answer is the hook's: refused, the
/// range stays on the pages it has and the heap offers it again when the
/// class next grows. The collapse is best-effort and its result ignored.
fn promote_region(heap_base: usize, offset: usize, len: usize) -> bool {
    let range = (heap_base + offset) as *mut u8;
    let advised = sys::advise_hugepages(range, len);
    if advised {
        sys::collapse_hugepages(range, len);
    }
    advised
}

/// Runs `f` with this thread's re-entrancy flag set, telling it whether it
/// was already set — the flag [`DieHard::alloc_guarded`] and
/// [`DieHard::free_guarded`] check and set. One flag per thread, kept in the
/// same thread-local block as the magazines — or, while the process has one
/// thread, one flag for the process, read the same way.
pub fn with_guard<R>(f: impl FnOnce(bool) -> R) -> R {
    tls::guarded(f)
}

impl Default for DieHard {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: `alloc`/`dealloc` satisfy the GlobalAlloc contract: blocks are
// valid for the layout, never aliased while live (uniqueness is the
// per-shard bitmap no-overlap invariant), and dealloc releases exactly what
// alloc returned.
unsafe impl GlobalAlloc for DieHard {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tls::enter(
            |alone| self.alloc_in(alone, layout),
            |block| self.alloc_in(block, layout),
        )
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        tls::enter(
            |alone| self.free_in(alone, ptr),
            |block| self.free_in(block, ptr),
        );
    }
}

/// Length of the NUL-terminated string at `p`.
///
/// # Safety
///
/// `p` must point to a NUL-terminated string.
unsafe fn c_strlen(p: *const u8) -> usize {
    let mut n = 0;
    // SAFETY: caller guarantees a terminator exists.
    while unsafe { *p.add(n) } != 0 {
        n += 1;
    }
    n
}

/// Length of the string at `p`, scanning at most `max` bytes.
///
/// # Safety
///
/// `p` must be valid for reads up to `max` bytes or its NUL terminator.
unsafe fn c_strlen_bounded(p: *const u8, max: usize) -> usize {
    let mut n = 0;
    // SAFETY: caller guarantees validity up to `max` or the terminator.
    while n < max && unsafe { *p.add(n) } != 0 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::SizeClass;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_test_heap() -> DieHard {
        // 1 MB regions keep test address-space usage modest; the config is
        // instance-scoped (no env mutation), so parallel tests stay
        // isolated; seed fixed for reproducibility.
        DieHard::with_config(HeapConfig::default(), 0xFEED_FACE)
    }

    #[test]
    fn malloc_free_roundtrip() {
        let heap = small_test_heap();
        let p = heap.malloc(100);
        assert!(!p.is_null());
        // The object is writable through its full rounded size.
        // SAFETY: DieHard returned a live 128-byte object.
        unsafe {
            for i in 0..128 {
                *p.add(i) = i as u8;
            }
            assert_eq!(*p.add(127), 127);
        }
        assert_eq!(heap.live_objects(), 1);
        heap.free(p);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn oversized_malloc_returns_null_not_tiny_object() {
        let heap = small_test_heap();
        // A size that cannot be described as a Layout must fail cleanly —
        // never be silently served as a smaller allocation.
        assert!(heap.malloc(usize::MAX - 4).is_null());
        assert_eq!(heap.stats().allocs, 0);
    }

    #[test]
    fn double_free_is_ignored() {
        let heap = small_test_heap();
        let p = heap.malloc(64);
        heap.free(p);
        heap.free(p); // must not crash or corrupt
        heap.free(p);
        assert_eq!(heap.stats().ignored_frees, 2);
    }

    #[test]
    fn invalid_free_is_ignored() {
        let heap = small_test_heap();
        let p = heap.malloc(64);
        // Interior pointer.
        // SAFETY: p+1 stays within the allocated object.
        heap.free(unsafe { p.add(1) });
        // Wild pointer.
        heap.free(0x1234_5678 as *mut u8);
        assert_eq!(heap.live_objects(), 1, "victim object must stay live");
        heap.free(p);
    }

    #[test]
    fn alignment_served_up_to_class_sizes() {
        let heap = small_test_heap();
        for align in [1usize, 8, 64, 4096] {
            let layout = Layout::from_size_align(40, align).unwrap();
            // SAFETY: valid non-zero layout.
            let p = unsafe { heap.alloc(layout) };
            assert!(!p.is_null());
            assert_eq!(p as usize % align, 0, "alignment {align}");
            // SAFETY: p came from alloc with this layout.
            unsafe { heap.dealloc(p, layout) };
        }
    }

    #[test]
    fn large_objects_roundtrip_with_guard_pages() {
        let heap = small_test_heap();
        let p = heap.malloc(100_000);
        assert!(!p.is_null());
        // SAFETY: 100k bytes live at p.
        unsafe {
            *p = 1;
            *p.add(99_999) = 2;
            assert_eq!(*p, 1);
        }
        heap.free(p);
        // Freeing again is ignored (validity table already empty).
        heap.free(p);
    }

    #[test]
    fn zero_malloc_returns_null() {
        let heap = small_test_heap();
        assert!(heap.malloc(0).is_null());
    }

    #[test]
    fn exhaustion_returns_null_not_crash() {
        let heap = DieHard::with_config(HeapConfig::default(), 7);
        // The 16 KB class in a 1 MB region holds 64 slots, 32 live cap.
        let mut got = 0;
        for _ in 0..100 {
            if !heap.malloc(16 * 1024).is_null() {
                got += 1;
            }
        }
        assert_eq!(got, 32, "1/M cap must bound live objects");
    }

    /// The elastic acceptance scenario end-to-end: a heap born at 1/64 of
    /// its maximum absorbs a beyond-maximum workload with no OOM — the
    /// first 32 requests grow the 16 KB class 2 → 64 and place inside the
    /// span, the rest spill to dedicated guard-paged mappings — and every
    /// pointer, placed or spilled, frees cleanly through the same API.
    #[test]
    fn elastic_heap_grows_then_spills_to_dedicated_mappings() {
        let heap = DieHard::with_elastic_config(HeapConfig::default(), 0xE1A571C, 6);
        let mut ptrs = Vec::new();
        for i in 0..40usize {
            let p = heap.malloc(16 * 1024);
            assert!(!p.is_null(), "request {i} must spill, not fail");
            // SAFETY: live 16 KB object (placed or spilled).
            unsafe {
                *p = i as u8;
                *p.add(16 * 1024 - 1) = i as u8;
            }
            ptrs.push(p);
        }
        let stats = heap.stats();
        assert_eq!(stats.allocs, 32, "the 1/M cap at full size places 32");
        assert_eq!(stats.exhausted, 8, "the remaining 8 spilled");
        for p in ptrs {
            heap.free(p);
        }
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.stats().frees, 32, "spilled frees release mappings");
    }

    #[test]
    fn invalid_config_fails_terminally_with_null() {
        let bad = HeapConfig::default().with_region_bytes(12_345); // not a power of two
        let heap = DieHard::with_config(bad, 1);
        assert!(heap.malloc(64).is_null());
        assert!(
            heap.malloc(64).is_null(),
            "failure is terminal, not retried"
        );
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn strcpy_contains_overflow() {
        let heap = small_test_heap();
        let dst = heap.malloc(8);
        let neighbor = heap.malloc(8);
        assert!(!dst.is_null() && !neighbor.is_null());
        // SAFETY: neighbor is a live 8-byte object.
        unsafe { neighbor.write_bytes(0x5A, 8) };
        let long = b"this string is far longer than eight bytes\0";
        // SAFETY: dst is a live heap object; src is NUL-terminated.
        let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
        assert_eq!(copied, 7, "8-byte object keeps 7 payload bytes + NUL");
        // SAFETY: both objects are live.
        unsafe {
            assert_eq!(*dst.add(7), 0);
            for i in 0..8 {
                assert_eq!(*neighbor.add(i), 0x5A, "neighbor byte {i} corrupted");
            }
        }
        heap.free(dst);
        heap.free(neighbor);
    }

    #[test]
    fn strncpy_clamps_lying_length() {
        let heap = small_test_heap();
        let dst = heap.malloc(8);
        let src = b"aaaaaaaaaaaaaaaaaaaaaaaa\0";
        // Caller claims dst holds 100 bytes; DieHard knows better.
        // SAFETY: dst is live; src NUL-terminated.
        let copied = unsafe { heap.strncpy(dst, src.as_ptr(), 100) };
        assert_eq!(copied, 7);
        heap.free(dst);
    }

    /// Off the heap `strncpy` is C's: exactly `n` bytes, the source's
    /// first `min(strlen, n)` and then zeros — never byte `n`, which the
    /// caller never offered.
    #[test]
    fn strncpy_off_heap_writes_exactly_n_bytes() {
        let heap = small_test_heap();
        heap.free(heap.malloc(8)); // initialized: the span exists
        let mut buf = [0xAAu8; 8];
        // SAFETY: buf holds n = 4 bytes; the source is NUL-terminated.
        let copied = unsafe { heap.strncpy(buf.as_mut_ptr(), c"abcd".as_ptr().cast(), 4) };
        assert_eq!(copied, 4);
        assert_eq!(buf, *b"abcd\xAA\xAA\xAA\xAA", "byte n is the caller's");
        // SAFETY: buf holds n = 6 bytes; the source is NUL-terminated.
        let copied = unsafe { heap.strncpy(buf.as_mut_ptr(), c"ab".as_ptr().cast(), 6) };
        assert_eq!(copied, 2);
        assert_eq!(buf, *b"ab\0\0\0\0\xAA\xAA", "zero-padded to n, no further");
        // SAFETY: buf has room for the 3 + NUL source.
        let copied = unsafe { heap.strcpy(buf.as_mut_ptr(), c"xyz".as_ptr().cast()) };
        assert_eq!(copied, 3);
        assert_eq!(buf, *b"xyz\0\0\0\xAA\xAA", "strlen + 1 bytes");
    }

    /// A large object bounds a copy by its start pointer like a small one
    /// does by any pointer: a source three times the object stops at its
    /// last byte, which the tail guard page follows directly.
    #[test]
    fn strcpy_into_a_large_object_is_clamped_to_it() {
        let heap = small_test_heap();
        let p = heap.malloc(100_000);
        assert!(!p.is_null());
        let usable = heap.usable_size(p);
        assert_eq!(heap.remaining_space(p), Some(usable));
        let mut src = vec![b'x'; 3 * usable];
        src.push(0);
        // SAFETY: p is a live large object; the source is NUL-terminated.
        let copied = unsafe { heap.strcpy(p, src.as_ptr()) };
        assert_eq!(copied, usable - 1);
        // SAFETY: the object's last byte.
        assert_eq!(unsafe { *p.add(usable - 1) }, 0, "terminated inside");
        // SAFETY: as above; `n` lies about the room, the object does not.
        let copied = unsafe { heap.strncpy(p, src.as_ptr(), 2 * usable) };
        assert_eq!(copied, usable - 1);
        heap.free(p);
    }

    /// `(start, end, perms)` of the `/proc/self/maps` line holding `addr`.
    fn mapping_at(maps: &str, addr: usize) -> Option<(usize, usize, &str)> {
        maps.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let start = usize::from_str_radix(start, 16).ok()?;
            let end = usize::from_str_radix(end, 16).ok()?;
            (start..end)
                .contains(&addr)
                .then(|| (start, end, fields.next().unwrap_or("")))
        })
    }

    /// However it is aligned, a large object's mapping is its range and one
    /// guard page on each side, nothing more: with 2 MiB alignment the
    /// reservation's slack is trimmed off the front as well as the tail, so
    /// releasing the object leaves every neighbouring address as it was.
    /// The check runs in a forked child, where no other test thread maps or
    /// unmaps anything between the two reads of `/proc/self/maps`.
    #[test]
    fn aligned_large_object_maps_exactly_its_range_and_guards() {
        let read_maps = || std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
        // SAFETY: the child touches only a heap of its own, `/proc` and
        // `_exit` — no lock another thread of this process may hold.
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            let heap = small_test_heap();
            let page = sys::page_size();
            let layout = Layout::from_size_align(100_000, 1 << 21).unwrap();
            // SAFETY: valid non-zero layout.
            let p = unsafe { heap.alloc(layout) } as usize;
            let len = heap.usable_size(p as *mut u8);
            if !p.is_multiple_of(1 << 21) || len < 100_000 {
                // SAFETY: child exit, as below.
                unsafe { libc::_exit(100) };
            }
            let (below, above) = (p - page - 1, p + len + page);
            let before = read_maps();
            let mapped_before = [below, above].map(|a| mapping_at(&before, a).is_some());
            // SAFETY: p came from alloc with this layout.
            unsafe { heap.dealloc(p as *mut u8, layout) };
            let after = read_maps();
            let failed = [
                mapping_at(&before, p) == Some((p, p + len, "rw-p")),
                mapping_at(&before, p - page).is_some_and(|(_, end, m)| end == p && m == "---p"),
                mapping_at(&before, p + len)
                    .is_some_and(|(start, _, m)| start == p + len && m == "---p"),
                [p - page, p, p + len]
                    .iter()
                    .all(|&a| mapping_at(&after, a).is_none()),
                [below, above].map(|a| mapping_at(&after, a).is_some()) == mapped_before,
            ]
            .iter()
            .position(|ok| !ok);
            // SAFETY: child exit, no cleanup (the heap is never dropped).
            unsafe { libc::_exit(failed.map_or(0, |i| i as i32 + 1)) };
        }
        let mut status: libc::c_int = -1;
        // SAFETY: pid is our direct child.
        assert_eq!(unsafe { libc::waitpid(pid, &raw mut status, 0) }, pid);
        assert_eq!(status, 0, "check {} of the child failed", status >> 8);
    }

    #[test]
    fn usable_size_reports_rounded_class_size() {
        let heap = small_test_heap();
        let p = heap.malloc(100);
        assert!(!p.is_null());
        assert_eq!(heap.usable_size(p), 128, "rounded to the 128-byte class");
        // Interior, foreign, and null pointers answer 0, never garbage.
        // SAFETY: p+1 stays within the live object.
        assert_eq!(heap.usable_size(unsafe { p.add(1) }), 0);
        assert_eq!(heap.usable_size(0x1234_5678 as *mut u8), 0);
        assert_eq!(heap.usable_size(ptr::null_mut()), 0);
        heap.free(p);
        // The free may sit in this thread's magazine buffer (the slot is
        // then still un-reusable, hence "live"); flush to settle it.
        heap.flush_thread_cache();
        assert_eq!(heap.usable_size(p), 0, "dead objects answer 0");
    }

    #[test]
    fn usable_size_covers_large_objects_exactly() {
        let heap = small_test_heap();
        let p = heap.malloc(100_000);
        assert!(!p.is_null());
        let usable = heap.usable_size(p);
        assert!(usable >= 100_000, "at least the request: {usable}");
        assert_eq!(usable % 4096, 0, "page-rounded user range");
        assert!(usable < 100_000 + 2 * 65536, "no guard/padding overcount");
        // Every reported byte is really writable (the tail guard page
        // starts exactly at the end, so an overcount would fault here).
        // SAFETY: usable bytes live at p per the assertion under test.
        unsafe {
            *p.add(usable - 1) = 0xEE;
            assert_eq!(*p.add(usable - 1), 0xEE);
        }
        heap.free(p);
        assert_eq!(heap.usable_size(p), 0);
    }

    #[test]
    fn usable_size_exact_under_extreme_alignment() {
        let heap = small_test_heap();
        // Alignment beyond a page exercises both trims.
        let layout = Layout::from_size_align(100_000, 1 << 21).unwrap();
        // SAFETY: valid non-zero layout.
        let p = unsafe { heap.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(p as usize % (1 << 21), 0);
        let usable = heap.usable_size(p);
        assert!(usable >= 100_000);
        // SAFETY: usable bytes live at p.
        unsafe { *p.add(usable - 1) = 1 };
        // SAFETY: p came from alloc with this layout.
        unsafe { heap.dealloc(p, layout) };
    }

    #[test]
    fn remaining_space_bounds_interior_pointers() {
        let heap = small_test_heap();
        let p = heap.malloc(256);
        assert!(!p.is_null());
        assert_eq!(heap.remaining_space(p), Some(256));
        // SAFETY: interior pointers of a live 256-byte object.
        unsafe {
            assert_eq!(heap.remaining_space(p.add(200)), Some(56));
            assert_eq!(heap.remaining_space(p.add(255)), Some(1));
        }
        assert_eq!(heap.remaining_space(0x4000 as *mut u8), None);
        let big = heap.malloc(100_000);
        assert_eq!(heap.remaining_space(big), Some(heap.usable_size(big)));
        heap.free(p);
        heap.free(big);
    }

    #[test]
    fn fork_lock_roundtrip_keeps_heap_usable() {
        let heap = small_test_heap();
        // Uninitialized: prepare/resume must balance with no heap locks.
        heap.fork_prepare();
        // SAFETY: paired with the prepare above, same thread.
        unsafe { heap.fork_resume() };
        let p = heap.malloc(64);
        assert!(!p.is_null());
        // Initialized: the full lock set (12 maintenance, then large).
        heap.fork_prepare();
        // SAFETY: paired with the prepare above, same thread.
        unsafe { heap.fork_resume() };
        heap.free(p);
        let q = heap.malloc(2048);
        assert!(!q.is_null(), "heap fully functional after the roundtrip");
        heap.free(q);
        assert_eq!(heap.live_objects(), 0);
    }

    /// Paper-sized 32 MB regions at a 1/16 start: every class has a whole
    /// huge page (a 2 MB active range) from its first object, so a
    /// promotion here is decided by the count alone and really advises and
    /// collapses.
    fn paper_elastic_heap(seed: u64) -> DieHard {
        DieHard::with_elastic_config(HeapConfig::paper_default(), seed, 4)
    }

    /// A class driven past the count is promoted alone, at the first refill
    /// that finds it with a whole huge page: on a fixed heap and from a 2 MB
    /// start that is the refill that takes its count there, as it always
    /// was — the whole region of the one, the 2 MB range of the other; from
    /// the shipped 64 KiB start it is the refill that steps the class from
    /// 1.75 MB to 2 MB, thirty times the count later, and every later step
    /// adds the huge pages it completed, up to the whole region. Each
    /// collapse happens in place (every object keeps its address and its
    /// contents), and placement stays identical to a heap that owns no
    /// memory and has no hook at all — through refills,
    /// every step on the way, the promotions, interleaved frees and a step
    /// after them.
    #[test]
    fn hot_class_is_promoted_once_alone_and_in_place() {
        use crate::magazine::MAG_SLOTS;
        use crate::sharded::PROMOTE_AFTER_ALLOCS;

        const SEED: u64 = 0x9A6E;
        let config = HeapConfig::paper_default;
        let hot_class = SizeClass::for_size(64).unwrap();
        let hot = 1u32 << hot_class.index();
        // Handouts 1..=8 come from refill 1, so the refill that takes the
        // count to `n` serves handout `n − 8 + 1`; the refill that finds a
        // range's `1/M` allowance `t` used up, and widens it, serves
        // handout `t + 1`.
        let at_the_count = PROMOTE_AFTER_ALLOCS as usize - MAG_SLOTS + 1;
        let at_two_mb = config().threshold_for(sys::HUGE_PAGE / 8 * 7 / 64) + 1;
        // The shipped start then climbs on, past its last step (at seven
        // eighths of the `1/M` allowance of the 32 MB maximum).
        let whole_ladder = config().threshold(hot_class) / 16 * 15;
        let region = config().region_bytes;
        for (start, crossing, objects, advised) in [
            (None, at_the_count, 2 * at_the_count, region),
            (Some(4), at_the_count, 2 * at_the_count, sys::HUGE_PAGE),
            (Some(DEFAULT_GROW_LOG2), at_two_mb, whole_ladder, region),
        ] {
            let (heap, twin) = match start {
                Some(log2) => (
                    DieHard::with_elastic_config(config(), SEED, log2),
                    <Heap>::new_elastic(config(), SEED, log2).unwrap(),
                ),
                None => (
                    DieHard::with_config(config(), SEED),
                    <Heap>::new(config(), SEED).unwrap(),
                ),
            };
            let mut twin_cache = twin.thread_cache();
            let mut ptrs = Vec::new();
            for i in 1..=objects {
                let p = heap.malloc(64);
                assert!(!p.is_null());
                // SAFETY: a live, 64-byte-aligned 64-byte object.
                unsafe { p.cast::<usize>().write(i) };
                ptrs.push(p);
                let base = heap.ready().unwrap().heap_base as usize;
                assert_eq!(base % sys::HUGE_PAGE, 0, "span is huge-page aligned");
                let expected = twin.offset_of(twin_cache.alloc(64).unwrap());
                assert_eq!(p as usize - base, expected, "placement of object {i}");
                let want = if i >= crossing { hot } else { 0 };
                assert_eq!(
                    heap.promoted_classes(),
                    want,
                    "start {start:?}, after object {i}"
                );
            }
            let shared = &heap.ready().unwrap().heap;
            assert_eq!(shared.advised_len(hot_class), advised, "start {start:?}");
            // A mixed history on top — three classes, every third call a
            // free of a random live object, so refills and free-buffer
            // flushes interleave — holding enough 16 KB objects
            // live to grow that class on either elastic heap.
            let base = heap.ready().unwrap().heap_base as usize;
            let mut rng = crate::rng::Mwc::seeded(SEED);
            let mut mixed: Vec<*mut u8> = Vec::new();
            for i in 0..600usize {
                let size = [24, 700, 16 * 1024][rng.below(3)];
                let p = heap.malloc(size);
                assert!(!p.is_null());
                let expected = twin.offset_of(twin_cache.alloc(size).unwrap());
                assert_eq!(p as usize - base, expected, "mixed object {i} ({size} B)");
                mixed.push(p);
                if i % 3 == 2 {
                    let victim = mixed.swap_remove(rng.below(mixed.len()));
                    heap.free(victim);
                    let _ = twin_cache.free_at(victim as usize - base);
                }
            }
            assert_eq!(
                twin.growth_events() > 0,
                start.is_some(),
                "the elastic histories crossed a growth step"
            );
            if start == Some(DEFAULT_GROW_LOG2) {
                assert_eq!(
                    twin.partition(hot_class).capacity(),
                    config().capacity(hot_class),
                    "every step from 64 KiB to the maximum"
                );
            }
            for p in mixed {
                heap.free(p);
            }
            // Cold classes stay cold, whatever else the heap does.
            let cold = heap.malloc(1000);
            let large = heap.malloc(3 << 20);
            assert!(!cold.is_null() && !large.is_null());
            assert_eq!(heap.promoted_classes(), hot);
            for (i, &p) in ptrs.iter().enumerate() {
                // SAFETY: still live; written above.
                assert_eq!(unsafe { p.cast::<usize>().read() }, i + 1, "object {i}");
                heap.free(p);
            }
            heap.free(cold);
            heap.free(large);
            assert_eq!(heap.live_objects(), 0);
            assert_eq!(heap.promoted_classes(), hot, "promotion is for life");
        }
    }

    /// Resident bytes of `[base, base + len)`, from `mincore(2)` (one byte
    /// per page, bit 0 = resident; an anonymous page never written is not).
    /// Exact for this range alone, which a VMA's `Rss` in `smaps` is not:
    /// the kernel merges adjacent anonymous mappings, and the other heaps of
    /// a parallel test run sit next to this one.
    fn resident_bytes(base: usize, len: usize, page: usize) -> usize {
        let mut pages = vec![0u8; len / page];
        // SAFETY: a page-aligned mapped range, and one byte per page of it.
        let rc = unsafe { libc::mincore(base as *mut libc::c_void, len, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore over the heap span");
        pages.iter().filter(|&&p| p & 1 != 0).count() * page
    }

    /// `churn_host`'s size mix churned over `live` objects on the default
    /// elastic heap, every object written: the heap, its resident bytes and
    /// the sum of its classes' active ranges.
    fn churned_default_heap(live: usize, ops: usize) -> (DieHard, usize, usize) {
        let heap =
            DieHard::with_elastic_config(HeapConfig::paper_default(), 0x11FE, DEFAULT_GROW_LOG2);
        let mut rng = crate::rng::Mwc::seeded(0x5EED_11FE);
        let place = |rng: &mut crate::rng::Mwc| {
            let size = match rng.below(100) {
                0..=59 => 8 + rng.below(56),
                60..=89 => 64 + rng.below(192),
                90..=98 => 256 + rng.below(768),
                _ => 1024 + rng.below(3073),
            };
            let p = heap.malloc(size);
            assert!(!p.is_null());
            // SAFETY: a live object of `size` bytes.
            unsafe { p.write_bytes(size as u8, size) };
            p
        };
        let mut ring: Vec<*mut u8> = (0..live).map(|_| place(&mut rng)).collect();
        for _ in 0..ops {
            let victim = rng.below(live);
            heap.free(core::mem::replace(&mut ring[victim], place(&mut rng)));
        }
        let state = heap.ready().unwrap();
        let active: usize = SizeClass::all()
            .map(|c| state.heap.partition(c).capacity() * c.object_size())
            .sum();
        let resident = resident_bytes(state.heap_base as usize, state.heap.heap_span(), state.page);
        assert!(resident > 0, "the objects were written");
        for p in ring {
            heap.free(p);
        }
        assert_eq!(heap.live_objects(), 0);
        (heap, resident, active)
    }

    /// The default elastic heap pays for what is live: after `churn_host`'s
    /// size mix has churned over 3 000 live objects — every class it uses
    /// long past the promotion count — the arena's resident memory is no
    /// more than the sum of the classes' active ranges (placement touches a
    /// range, never beyond it), and no class has been handed a huge page to
    /// hold it.
    #[test]
    fn small_live_set_stays_small_on_the_default_heap() {
        let (heap, resident, active) = churned_default_heap(3_000, 20_000);
        assert_eq!(heap.promoted_classes(), 0, "nothing here spans 2 MB");
        assert!(
            resident <= active,
            "{resident} B resident outside {active} B of active ranges"
        );
    }

    /// And it goes on paying for what is live past 2 MB: at 50 000 live
    /// objects the busiest classes have grown whole huge pages and been given them,
    /// and still nothing is resident beyond the active ranges — the advice
    /// covers `⌊active / 2 MB⌋` huge pages of each, so neither a first touch
    /// nor `khugepaged` can round a 2.5 MB range up to 4. (Under THP mode
    /// `always` the kernel backs the unadvised tails with huge pages unasked
    /// and the bound is the rounded one.)
    #[test]
    fn huge_pages_stay_inside_the_active_ranges_as_they_grow() {
        let (heap, resident, active) = churned_default_heap(50_000, 20_000);
        let shared = &heap.ready().unwrap().heap;
        let mut advised = 0;
        for class in SizeClass::all() {
            let partition = shared.partition(class);
            let range = partition.capacity() * class.object_size();
            let hot = partition.probe_stats().0 >= crate::sharded::PROMOTE_AFTER_ALLOCS;
            let whole = range / sys::HUGE_PAGE * sys::HUGE_PAGE;
            assert_eq!(shared.advised_len(class), usize::from(hot) * whole);
            advised += shared.advised_len(class);
        }
        assert!(advised >= 4 * sys::HUGE_PAGE, "{advised} B advised");
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        let rounded = thp.is_ok_and(|mode| mode.contains("[always]"));
        let bound = active + usize::from(rounded) * crate::size_class::NUM_CLASSES * sys::HUGE_PAGE;
        assert!(
            resident <= bound,
            "{resident} B resident outside {active} B of active ranges"
        );
    }

    /// `fork_prepare` holds every maintenance lock, and a promotion runs
    /// under its class's: so no promotion can begin or be mid-syscall
    /// inside a prepare/resume window, however the two race, and the locks
    /// balance either way.
    #[test]
    fn fork_locks_balance_with_a_promotion_racing_them() {
        use crate::sharded::PROMOTE_AFTER_ALLOCS;

        let heap = paper_elastic_heap(0xF02C);
        // Initialized up front, so every prepare takes the full lock set.
        let first = heap.malloc(64);
        assert!(!first.is_null());
        let hot = 1u32 << SizeClass::for_size(64).unwrap().index();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let (heap, start) = (&heap, &start);
            let worker = scope.spawn(move || {
                start.wait();
                for i in 0..2 * PROMOTE_AFTER_ALLOCS as usize {
                    let p = heap.malloc(64);
                    assert!(!p.is_null());
                    // SAFETY: a live 64-byte object.
                    unsafe { p.cast::<usize>().write(i) };
                    heap.free(p);
                }
                heap.flush_thread_cache();
            });
            start.wait();
            // Windows for as long as the worker runs (it ends either way:
            // done, or panicked — which the scope then reports).
            let mut windows = 0u32;
            while !worker.is_finished() || windows < 8 {
                heap.fork_prepare();
                let inside = heap.promoted_classes();
                std::thread::yield_now();
                assert_eq!(heap.promoted_classes(), inside, "promotion inside a window");
                // SAFETY: paired with the prepare above, same thread.
                unsafe { heap.fork_resume() };
                windows += 1;
                std::thread::yield_now();
            }
        });
        assert_eq!(heap.promoted_classes(), hot);
        heap.free(first);
        let q = heap.malloc(64);
        assert!(!q.is_null(), "heap fully functional afterwards");
        heap.free(q);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn different_seeds_randomize_layout() {
        let a = DieHard::with_config(HeapConfig::default(), 1);
        let b = DieHard::with_config(HeapConfig::default(), 2);
        let base_a = a.malloc(64) as isize;
        let base_b = b.malloc(64) as isize;
        let mut same = 0;
        for _ in 0..32 {
            let pa = a.malloc(64) as isize - base_a;
            let pb = b.malloc(64) as isize - base_b;
            if pa == pb {
                same += 1;
            }
        }
        assert!(same < 8, "layouts should differ across seeds");
    }

    #[test]
    fn concurrent_alloc_free_safe() {
        let heap = DieHard::with_config(HeapConfig::default(), 3);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let heap = &heap;
                scope.spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..500 {
                        let p = heap.malloc(8 + (t * 97 + i) % 2000);
                        if !p.is_null() {
                            // SAFETY: live object of at least 8 bytes.
                            unsafe { p.write_bytes(t as u8, 8) };
                            ptrs.push(p);
                        }
                        if ptrs.len() > 50 {
                            heap.free(ptrs.swap_remove(0));
                        }
                    }
                    for p in ptrs {
                        heap.free(p);
                    }
                    // Scoped threads: `scope` returns when the closure
                    // finishes, racing the pthread-key exit flush that runs
                    // during OS-thread teardown — settle explicitly so the
                    // assertion below is deterministic. (Plainly `join`ed
                    // threads need no such call: `pthread_join` returns only
                    // after key destructors complete.)
                    heap.flush_thread_cache();
                });
            }
        });
        assert_eq!(heap.live_objects(), 0);
    }

    /// The pthread-key exit flush: a plainly-`join`ed thread (join returns
    /// only after key destructors run) leaks neither reservations nor
    /// buffered frees.
    #[test]
    fn thread_exit_flushes_magazines() {
        let heap = std::sync::Arc::new(DieHard::with_config(HeapConfig::default(), 0x7157));
        let h = std::sync::Arc::clone(&heap);
        std::thread::spawn(move || {
            let mut ptrs = Vec::new();
            for i in 0..200usize {
                let p = h.malloc(8 + (i * 37) % 2000);
                assert!(!p.is_null());
                ptrs.push(p);
            }
            for p in ptrs {
                h.free(p);
            }
            // No explicit flush: reservations and any still-buffered frees
            // must be settled by the thread-exit destructor alone.
        })
        .join()
        .unwrap();
        assert_eq!(heap.reserved_slots(), 0, "exit flush returns reservations");
        assert_eq!(heap.live_objects(), 0, "exit flush releases buffered frees");
        let stats = heap.stats();
        assert_eq!(stats.allocs, 200);
        assert_eq!(stats.frees, 200);
        assert_eq!(stats.ignored_frees, 0);
    }

    /// One thread alternating between two live heaps: each touch of the
    /// other heap rebinds the thread's magazines, flushing into the heap
    /// they came from — no reservation is ever stranded in a live heap.
    #[test]
    fn rebinding_between_live_heaps_flushes_the_old_one() {
        let a = DieHard::with_config(HeapConfig::default(), 0xA);
        let b = DieHard::with_config(HeapConfig::default(), 0xB);
        let pa = a.malloc(64);
        let pb = b.malloc(64); // rebind: flushes a's magazines back to a
        assert!(!pa.is_null() && !pb.is_null());
        assert_eq!(a.reserved_slots(), 0, "rebind returned a's reservations");
        assert_eq!(a.live_objects(), 1, "handed-out object stays live");
        a.free(pa); // rebind back: flushes b's magazines
        assert_eq!(b.reserved_slots(), 0);
        assert_eq!(b.live_objects(), 1);
        b.free(pb);
        assert_eq!(a.live_objects(), 0);
        assert_eq!(b.live_objects(), 0);
    }

    /// `n` 8–2000 B objects from `heap`, each written, as addresses.
    fn fill(heap: &DieHard, n: usize, salt: usize) -> Vec<usize> {
        (0..n)
            .map(|i| {
                let p = heap.malloc(8 + (i * 37 + salt) % 2000);
                assert!(!p.is_null());
                // SAFETY: a live object of at least 8 bytes.
                unsafe { p.write_bytes(salt as u8, 8) };
                p as usize
            })
            .collect()
    }

    /// An initialized heap moves — its `Vec` reallocates — while a second
    /// thread is bound to it with reservations and buffered frees in its
    /// magazines, and both threads go on allocating and freeing through it
    /// at its new address. Nothing a binding refers to moved, so the books
    /// balance exactly.
    #[test]
    fn moving_an_initialized_heap_keeps_every_binding_valid() {
        const ROUNDS: usize = 6;
        const PER_ROUND: usize = 64;
        let heaps =
            std::sync::RwLock::new(vec![DieHard::with_config(HeapConfig::default(), 0x30FE)]);
        let turn = std::sync::Barrier::new(2);
        let churn = |salt: usize, held: &mut Vec<usize>| {
            let heaps = heaps.read().unwrap();
            let heap = &heaps[0];
            held.extend(fill(heap, PER_ROUND, salt));
            for p in held.drain(..PER_ROUND / 2) {
                heap.free(p as *mut u8);
            }
        };
        std::thread::scope(|scope| {
            let (heaps, turn, churn) = (&heaps, &turn, &churn);
            scope.spawn(move || {
                let mut held = Vec::new();
                for round in 0..ROUNDS {
                    churn(2 * round, &mut held);
                    turn.wait(); // bound, with a half-full magazine: move it
                    turn.wait();
                }
                let heaps = heaps.read().unwrap();
                for p in held {
                    heaps[0].free(p as *mut u8);
                }
                heaps[0].flush_thread_cache();
            });
            let mut held = Vec::new();
            for round in 0..ROUNDS {
                churn(2 * round + 1, &mut held);
                turn.wait();
                let mut heaps = heaps.write().unwrap();
                let before = heaps.as_ptr();
                while heaps.as_ptr() == before {
                    heaps.push(DieHard::new());
                }
                drop(heaps);
                turn.wait();
            }
            let heaps = heaps.read().unwrap();
            for p in held {
                heaps[0].free(p as *mut u8);
            }
        });
        let heaps = heaps.into_inner().unwrap();
        let stats = heaps[0].stats();
        let made = (2 * ROUNDS * PER_ROUND) as u64;
        assert_eq!((stats.allocs, stats.frees), (made, made), "{stats:?}");
        assert_eq!((stats.ignored_frees, stats.exhausted), (0, 0));
        assert_eq!(heaps[0].reserved_slots(), 0);
        assert_eq!(heaps[0].live_objects(), 0);
    }

    /// A heap dropped while a thread is still bound to it: that thread's
    /// next allocation, from a second heap, rebinds and flushes into the
    /// dropped heap's state — which was never freed, so the flush lands —
    /// and its exit flush then settles the second heap exactly.
    #[test]
    fn a_dropped_heap_takes_the_stale_flush_of_a_bound_thread() {
        use std::sync::{mpsc, Arc};

        let first = Arc::new(DieHard::with_config(HeapConfig::default(), 0xD0));
        let second = Arc::new(DieHard::with_config(HeapConfig::default(), 0xD1));
        let (bound_tx, bound_rx) = mpsc::channel();
        let (dropped_tx, dropped_rx) = mpsc::channel::<()>();
        let worker = {
            let (first, second) = (Arc::clone(&first), Arc::clone(&second));
            std::thread::spawn(move || {
                let kept = fill(&first, 40, 1);
                for &p in &kept[..30] {
                    first.free(p as *mut u8); // buffered in this thread's magazine
                }
                drop(first);
                bound_tx.send(()).unwrap();
                dropped_rx.recv().unwrap();
                for p in fill(&second, 100, 2) {
                    second.free(p as *mut u8);
                }
            })
        };
        bound_rx.recv().unwrap();
        let leaked = first.ready().unwrap();
        drop(Arc::into_inner(first).expect("the worker let go of the first heap"));
        dropped_tx.send(()).unwrap();
        worker.join().unwrap();
        // The rebind settled the dropped heap: its reservations went back
        // and its buffered frees were released.
        assert_eq!(leaked.heap.reserved_slots(), 0);
        assert_eq!(leaked.heap.live_objects(), 10);
        assert_eq!(leaked.heap.stats().frees, 30);
        let stats = second.stats();
        assert_eq!((stats.allocs, stats.frees), (100, 100), "{stats:?}");
        assert_eq!(second.reserved_slots(), 0);
        assert_eq!(second.live_objects(), 0);
    }

    /// Reserved-but-unhanded slots are not live through the C API either:
    /// a wild free aimed at one is ignored and the reservation survives.
    #[test]
    fn magazine_reservations_invisible_to_free_and_live_count() {
        let heap = DieHard::with_config(HeapConfig::default(), 0x11FE);
        let p = heap.malloc(64);
        assert!(!p.is_null());
        // The refill reserved a batch; only the handout is an allocation.
        assert_eq!(heap.stats().allocs, 1);
        assert_eq!(heap.live_objects(), 1);
        // Every remaining slot of the batch is reserved, not live — and a
        // heap.reserved_slots() call flushes this thread's cache, returning
        // them to the shard.
        assert_eq!(heap.reserved_slots(), 0);
        heap.free(p);
        assert_eq!(heap.live_objects(), 0);
    }

    /// The sharded-design stress test: ≥8 threads hammer all twelve size
    /// classes concurrently, with deliberate erroneous frees and `strcpy`
    /// calls mixed in, and the live-object accounting plus the atomic
    /// statistics must come out exactly consistent once the threads join.
    #[test]
    fn stress_all_classes_with_errors_stays_consistent() {
        const THREADS: u64 = 8;
        const ROUNDS: usize = 120;
        let heap = DieHard::with_config(HeapConfig::default(), 0xC0FFEE);
        let attempted = AtomicU64::new(0);
        let served = AtomicU64::new(0);
        let misaligned_frees = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let heap = &heap;
                let attempted = &attempted;
                let served = &served;
                let misaligned_frees = &misaligned_frees;
                scope.spawn(move || {
                    let mut rng = crate::rng::Mwc::seeded(0xBEEF ^ t);
                    let mut live: Vec<*mut u8> = Vec::new();
                    for round in 0..ROUNDS {
                        // One allocation in every size class per round.
                        for shift in 0..12u32 {
                            let size = 8usize << shift;
                            attempted.fetch_add(1, Ordering::Relaxed);
                            let p = heap.malloc(size);
                            if p.is_null() {
                                continue; // 1/M cap under 8-way pressure
                            }
                            served.fetch_add(1, Ordering::Relaxed);
                            // SAFETY: live object of at least 8 bytes.
                            unsafe { p.write_bytes(t as u8, 8) };
                            // Erroneous free of an interior (misaligned)
                            // pointer: always ignored, counted exactly.
                            // SAFETY: p+1 stays within the live object.
                            heap.free(unsafe { p.add(1) });
                            misaligned_frees.fetch_add(1, Ordering::Relaxed);
                            live.push(p);
                        }
                        // Erroneous frees outside the heap: ignored,
                        // uncounted (the large-object path owns them).
                        heap.free((0x10 + round) as *mut u8);
                        // §4.4 strcpy into a fresh small object, clamped.
                        let dst = heap.malloc(8);
                        if !dst.is_null() {
                            attempted.fetch_add(1, Ordering::Relaxed);
                            served.fetch_add(1, Ordering::Relaxed);
                            let long = b"far longer than eight bytes\0";
                            // SAFETY: dst is live; src is NUL-terminated.
                            let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
                            assert_eq!(copied, 7, "strcpy must clamp to the object");
                            live.push(dst);
                        } else {
                            attempted.fetch_add(1, Ordering::Relaxed);
                        }
                        // Keep the window bounded; frees of own pointers
                        // must always succeed.
                        while live.len() > 24 {
                            let victim = live.swap_remove(rng.below(live.len()));
                            heap.free(victim);
                        }
                    }
                    for p in live {
                        heap.free(p);
                    }
                    // Settle before `scope` returns (see
                    // `concurrent_alloc_free_safe` for why scoped threads
                    // flush explicitly).
                    heap.flush_thread_cache();
                });
            }
        });

        // Quiescent double-free (single-threaded, so the slot cannot have
        // been re-served between the two frees): exactly one more ignored.
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
        heap.free(p);

        let stats = heap.stats();
        assert_eq!(heap.live_objects(), 0, "every served object was freed");
        assert_eq!(stats.allocs, served.load(Ordering::Relaxed) + 1);
        assert_eq!(stats.frees, stats.allocs, "each alloc freed exactly once");
        assert_eq!(
            stats.ignored_frees,
            misaligned_frees.load(Ordering::Relaxed) + 1,
            "ignored = per-thread misaligned frees + the quiescent double free"
        );
        assert_eq!(
            stats.exhausted,
            attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
            "every failed attempt was an at-threshold denial"
        );
    }
}
