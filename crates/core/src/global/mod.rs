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
//! atomics — a probe loop of `or` claims over the class's bitmap, with a
//! ticket counter enforcing the `1/M` cap, and one `and` to free. Each size
//! class keeps one *maintenance* `SpinLock` for its growth steps only; the
//! large-object validity table has a separate lock of its own.
//!
//! Environment knobs (read once, at first allocation; ignored when the
//! allocator was built with [`DieHard::with_config`]):
//!
//! * `DIEHARD_SEED` — decimal RNG seed (default: true randomness).
//! * `DIEHARD_REGION_MB` — per-class region megabytes (default 32, i.e. the
//!   paper's 384 MB heap).
//! * `DIEHARD_M` — integer expansion factor `M` (default 2).
//!
//!   A value of either that the heap cannot be built with — a region that
//!   is not a power of two, an `M` that leaves no room for one 16 KiB object
//!   — is its default ([`crate::env`] decides), not a heap that fails to
//!   initialize.
//! * `DIEHARD_GROW` — elastic mode (§9's adaptive growth, concurrent):
//!   each class's *active* capacity starts at `1/2^value` of its configured
//!   maximum (e.g. `6` → 1/64) and grows under `1/M`-cap pressure, a quarter
//!   of its power-of-two band at a time (64, 80, 96, 112, 128, 160 … KiB).
//!   Offsets never move — the full virtual span is reserved up front and
//!   only the probing range widens. Unset keeps the constructor's choice:
//!   for [`DieHard::new`] `0`, the paper's fixed heap (regions born at
//!   full capacity, no growth), for [`DieHard::elastic_from_env`] —
//!   `libdiehard.so` — its default fraction, [`DEFAULT_GROW_LOG2`].
//!   Whatever the start, a class denied at its *maximum* capacity spills
//!   the request to a dedicated guard-paged mapping instead of returning
//!   null: a `#[global_allocator]` that returns null aborts the process in
//!   `handle_alloc_error`, so no `DieHard` has the paper's `NULL` (the
//!   simulator, which calls [`Heap`] directly, keeps it).
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
//! This module, `sys`, and `tls` are the crate's `unsafe` *syscall*
//! surface, built on every Unix target (there is no build without
//! it: the interposer, the bench bins and the tests all reach it, so a
//! gate would isolate nothing); the allocation-free synchronization
//! primitives it builds on live in [`crate::sync`], and the lock-free
//! slot-state machine itself in [`crate::bitmap`] / [`crate::partition`] /
//! [`crate::sharded`]. Findings, kept current as the module changes:
//!
//! * **No `static mut` anywhere.** Allocator state is a `GlobalState`
//!   whose address a `DieHard` publishes once: one `Acquire` load of that
//!   word, non-null, proves the header (config, `heap_base`, page size)
//!   fully initialized, after which it is immutable and read without any
//!   lock. That load is all any entry pays once the heap is ready — `alloc`
//!   as much as `free`: a plain `mov` on x86-64, with the CAS that elects
//!   the initializing thread out of line. All *mutable* state is interior-
//!   mutable behind locks — the pattern stable Rust recommends over
//!   `static mut` (which trips `static_mut_refs` on current toolchains).
//! * **Atomics replace the old per-shard exclusivity argument.** Every
//!   slot's lifecycle is one bit of its class's
//!   [`SlotStateMap`](crate::bitmap::SlotStateMap) (§4.1), and both
//!   transitions are a single read-modify-write of that bit's word:
//!   claiming a free slot (`or`, won when the bit was 0) and freeing a live
//!   one (`and`, done when it was 1) are each linearizable at one atomic
//!   instruction, so two threads can never both win a slot, and a double
//!   free finds the bit clear and changes nothing. The `1/M` cap is a
//!   ticket `fetch_add` that backs out on overshoot, and the per-class RNG
//!   packs its whole state in one `AtomicU64` CAS
//!   ([`AtomicMwc`](crate::rng::AtomicMwc)) — no torn draws. (Each of these
//!   is a [`Word`] update — see the next finding for when
//!   it is not a locked instruction.)
//!   The surviving locks are slow-path only: one maintenance `SpinLock` per
//!   class serializing its growth steps — taken by an allocation only to
//!   grow — plus the large-object table lock. No operation ever takes two
//!   locks at once; a free resolves its
//!   address with pure arithmetic *before* touching any shared state — one
//!   subtraction and one comparison, in `GlobalState::span_offset`, the
//!   only place a pointer is tested against the span.
//!   Heap-wide statistics are relaxed atomics and take no lock at all.
//! * **One extern read decides how those atomics are updated.**
//!   `sys::single_threaded` loads glibc's `__libc_single_threaded`
//!   (glibc ≥ 2.32; an `extern` static typed `AtomicU8`, because a C global
//!   that changes must not be declared immutable). While it reads 1, every
//!   [`Word`] update — RNG advance, slot transitions,
//!   ticket, counters, the `SpinLock` flag — is a relaxed load and a relaxed
//!   store instead of a locked instruction; [`crate::sync`]'s module docs
//!   carry the argument. The byte is read once per call, at the entry
//!   ([`sole_thread`], or `tls::guarded` in front of the interposer's
//!   re-entrancy check), and that answer is carried down to every update the
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
//!   they reach this heap (*No thread-local*, below), and `GlobalAlloc`
//!   was never async-signal-safe in the plain arm.
//! * **Raw-pointer state.** `GlobalState` owns raw `mmap` regions and is
//!   never moved or sent, only shared; its `unsafe impl Sync` is sound
//!   because `heap_base`/`page` are written once before the state's address
//!   is published (Release/Acquire) and only ever *read* afterwards, while
//!   everything reachable for mutation is behind the shard and large-table
//!   locks or is one of the atomics described above.
//! * **One large-object table, one mapping shape.** Every large mapping —
//!   an oversized request or an elastic spill — is exactly
//!   `[user − page, user + len + page)`: `alloc_large` trims the alignment
//!   slack off *both* ends before the pointer escapes, so one entry
//!   `user → len` is the whole record. `usable_size` answers `len`, and
//!   `release` unmaps `len + 2 × page` from `user − page`, each from one
//!   lookup; nothing else is ever derived from a large pointer (an interior
//!   one is not in the table and is refused — its guard pages bound it).
//! * **Every `unsafe` block carries a `SAFETY:` comment** naming its
//!   invariant; `cargo clippy --all-targets` is
//!   warning-clean with no `#[allow]` escapes in this subtree.
//! * **Lazily-initialized, never self-allocating.** Exactly one thread runs
//!   initialization: the one whose CAS moves the `DieHard`'s state word from
//!   empty to its own identity (`tls::current_thread`). The others yield
//!   (`sched_yield`) until it reads ready or failed, never parking — parking
//!   may allocate and re-enter the allocator being initialized — and a call
//!   nested inside the builder's own, which finds its own identity there,
//!   is turned away at once instead of waiting for itself. Metadata (the
//!   slot-state maps and the large-object validity table) lives in a
//!   dedicated mapping, so initialization cannot recurse. A failed initialization (OOM, invalid config) is terminal:
//!   later calls return null instead of retrying `mmap` storms. A `fork`
//!   never hands its child a heap half built by a thread the child does not
//!   have: `fork_prepare` builds the heap, or waits out the thread that is
//!   building it, before it takes the heap's locks.
//! * **One `unsafe` step from the metadata mapping to typed memory.**
//!   `build_state` borrows the fresh, zeroed, never-unmapped mapping for
//!   `'static` once, as two disjoint pieces: the state's slot, and every
//!   metadata word as one `&'static [Word]`. Safe code cuts that into the
//!   large table's keys and sizes (two `split_first_chunk`s, arrays of the
//!   table's length) and the twelve slot maps (`Heap::carved`,
//!   `split_at_checked` per class). Zeroed is a memory-safety fact in one
//!   place only, the large table, whose recorded addresses `release_large`
//!   unmaps; the argument sits at the carving. The heaps the simulator and
//!   the tests own get their words the same way, from a `calloc` block of
//!   their own (`Words::zeroed`, below: one borrow, freed by its drop).
//! * **No path to a panic.** Nothing the interposer's exports, its `fork`
//!   hooks or initialization run can panic, and the release library holds
//!   no `core::panicking` or `core::fmt` code (CI reads it with `nm`): its
//!   `#[panic_handler]` backstops nothing reachable. Each former panic site
//!   has a defined outcome instead:
//!   - a slot-map index has one check, whose failure is a claim that loses,
//!     a free that is ignored and a slot that reads free
//!     ([`SlotStateMap`](crate::bitmap::SlotStateMap)) — and no caller
//!     fails it: draws are below the capacity, offsets resolve inside a
//!     region;
//!   - a size class is a typed index ([`SizeClass`](crate::size_class::SizeClass)
//!     holds one of twelve values), so the heap's per-class tables are
//!     indexed unchecked;
//!   - a heap built from a [`HeapGeometry`] re-checks nothing: the four
//!     asserts every partition constructor ran (a positive capacity, no
//!     more than the maximum, a threshold no more than the capacity, a
//!     maximum the packed words hold) are [`HeapConfig::validate`]'s and the
//!     geometry's, once, and an environment knob they would refuse is its
//!     default ([`crate::env`]); a growth step publishes a pair it computed
//!     in range, without `grow_to`'s asserts. The public constructors keep
//!     theirs for callers outside the crate;
//!   - the large table's probe indices are masked by its length, a power of
//!     two of at least 2 checked when the crate compiles; a full table
//!     refuses an insert, and the allocation is null;
//!   - page and alignment rounding is a mask or `checked_next_multiple_of`;
//!     a metadata mapping too short for what was carved from it is a failed
//!     initialization;
//!   - a `fork` from a signal handler that interrupted one of its thread's
//!     critical sections leaves that lock to the frame holding it
//!     ([`fork_prepare`](DieHard::fork_prepare));
//!   - a bounded `strncpy` whose `n` falls short of the copy pads nothing.
//! * **No thread-local; a nested call is known by what its thread holds.**
//!   A call into the allocator made inside another on the same thread (a
//!   signal handler's `malloc`) is told apart without per-thread state
//!   (`tls` has the argument; [`with_guard`],
//!   [`DieHard::alloc_guarded`], [`DieHard::free_guarded`]). While the
//!   process has one thread, a process-wide flag, set around each guarded
//!   call, diverts every nested one before it reaches the heap, whose
//!   updates are then plain loads and stores. Threaded, every update is an
//!   atomic read-modify-write, which a nested call can interleave with as
//!   another thread can, so the call goes on — until it would wait on what
//!   its own thread holds: a class's maintenance lock (it spills instead),
//!   the large-object table's lock (an allocation is diverted, a free
//!   dropped, a size lookup knows nothing), or the heap's build (diverted).
//!   Each of those records its holder's `pthread_self()`, which is the one
//!   `unsafe` of `tls`. Nothing is per thread, so the threaded arm looks
//!   nothing up (no `__tls_get_addr`: a `no_std` library has no
//!   thread-local machinery at all), a thread leaves nothing behind when it
//!   exits, and nothing outlives a heap but the heap: a `GlobalState` lives
//!   in its heap's metadata mapping, which is never unmapped, and a
//!   `DieHard` holds only that address, so moving one, initialized or not,
//!   is sound.
//! * **Every call takes one path to the heap.** Alone or threaded, an
//!   allocation is the heap's `Heap::try_alloc_in` and a free its
//!   `Heap::free_at_in`: §4.2's `DieHardMalloc` and `DieHardFree`, one
//!   slot-map update per operation, a freed slot back in the probe space
//!   before the call returns. Only the arm differs, as the call's one read
//!   of the thread count says. The heap is the whole state, so a process's
//!   first `pthread_create` hands its new thread a heap with nothing held
//!   back, and the plain stores that built it are published to that thread
//!   by the creation itself (`sync`'s fact 2). A fork child of a process
//!   that never had a second thread is alone too, and allocates from its
//!   copy of the heap the same way.
//! * **The per-op path is one function per direction.** Every function
//!   from an entry point to the slot claim or free is inlined into the
//!   entry (`libdiehard.so`'s `alloc_impl` and `free_impl`), and everything
//!   else — initialization, a growth step, large objects — is a `#[cold]`
//!   call out of it. On a ready heap that path calls nothing until a class
//!   grows, and on a single-threaded host it executes no locked instruction
//!   at all.
//! * **Per-op traffic never spins.** The heap's `try_alloc`/`free_at`
//!   complete without acquiring any lock short of a growth step: a thread
//!   preempted mid-operation cannot wedge another thread's allocation,
//!   which the old shard-`SpinLock` design could not promise. The slot
//!   protocol (free → live → free, one bit per slot) is documented and
//!   tested in [`crate::bitmap`] and [`crate::partition`].
//! * **Huge pages are two advisory syscalls, issued on evidence.**
//!   Initialization advises nothing: the small-object span is reserved
//!   2 MB-aligned and faults in 4 KB at a time, so a class a process barely
//!   uses costs the pages it touches (§4.1's lazily initialized
//!   partitions). A class's huge pages come with its growth
//!   ([`PromoteHook`](crate::sharded::PromoteHook) has the rule): **every
//!   whole huge page of its active range** is handed to the promote hook,
//!   once, at the growth step that completes it — the step that brings a
//!   class to 2 MB follows `1/M` of it being live, which is evidence enough
//!   that it is busy. The hook
//!   calls `sys::advise_hugepages` (`MADV_HUGEPAGE`) over exactly those
//!   huge pages — §7's TLB-reach remedy — and
//!   `sys::collapse_hugepages` (`MADV_COLLAPSE`) over the same bytes,
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
//!   base pages until a later step completes it. A heap that never grows
//!   (`DIEHARD_GROW=0`, the paper's fixed heap) is never advised, so its
//!   32 MB regions fault in 4 KB at a time for as long as it lives. Both
//!   calls are best-effort and neither is repeated: advice the kernel turns
//!   down leaves the range on base pages for good. Both are non-destructive
//!   by specification:
//!   neither can unmap, move, or zero memory,
//!   the kernel performs the collapse atomically with
//!   respect to other threads' loads and stores, and every failure (a
//!   kernel built without THP, `EINVAL` from the collapse before Linux 6.1
//!   or with THP off, no free 2 MB block) leaves the range exactly as it
//!   was, on 4 KB pages — so the collapse's result is ignored. Under THP
//!   `never` the advice is recorded and never acted on. Both are issued
//!   once per huge page, inside the growth step that completed it, under
//!   the class's maintenance lock (so `fork_prepare` waits for one in
//!   flight), and never from a per-op path. The price of
//!   holding the lock across them is a stall per huge page: a collapse
//!   copies 2 MB and took
//!   0.4–15 ms on the reference box (`class_promote` in `BENCH_12.json`),
//!   during which a thread growing *that* class, or a `fork`, waits in the
//!   lock's yield loop; every other allocation and free carries on. Under THP `always` the kernel may back first touches with
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
pub(crate) mod tls;

pub use sys::page_size;

use crate::sync::sole_thread;
pub use crate::sync::{SpinGuard, SpinLock};

use crate::config::{HeapConfig, HeapGeometry};
use crate::engine::{AllocOutcome, HeapStats};
use crate::large::LargeTable;
use crate::rng::entropy_seed;
use crate::safe_str;
use crate::sharded::Heap;
use crate::sync::Word;
use core::alloc::{GlobalAlloc, Layout};
use core::cell::Cell;
use core::mem::MaybeUninit;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

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
/// the step that takes it to 2 MB, each whole huge page of its range is
/// promoted as a step completes it
/// ([`PromoteHook`](crate::sharded::PromoteHook) has the rule).
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
/// expected probes (§4.2), and a magazine refill (the cache threaded hosts
/// had then) nearer its cap was clamped to fewer slots (`global_churn_cold`
/// ≈ +7 ns a pair, the 64-object
/// `preload_alloc_churn` ring ≈ +4.5 ns because its 2 KiB class now stops
/// at 80–96 slots where it used to double to 128; `churn_host`'s
/// `overhead_ratio` does not move — CHANGES.md, PR 24).
///
/// The one definition: the interposer and the perf kernels that model it
/// both read it from here.
pub const DEFAULT_GROW_LOG2: u32 = 9;

/// Capacity of the large-object validity table (live large objects).
const LARGE_CAPACITY: usize = 4096;

/// Slots of the large-object validity table: twice [`LARGE_CAPACITY`], so
/// its load factor stays at most 1/2. A power of two of at least 2, which
/// [`LargeTable::from_storage`] asserts when this file compiles.
const LARGE_SLOTS: usize = (LARGE_CAPACITY * 2).next_power_of_two();

/// The states of a [`DieHard`]'s initialization: not begun, built and
/// published, failed for good. While one thread builds the heap the word
/// holds that thread's [`tls::current_thread`], which is none of these.
const EMPTY: u64 = 0;
const READY: u64 = 2;
const FAILED: u64 = 3;

/// A call made inside one its own thread is running, which needs what the
/// outer call holds: a class's maintenance lock (answered with a spill, in
/// the heap), the large-object table's lock, or the heap being built. It
/// cannot wait for itself, so it is answered at once, and the caller serves
/// it some other way (`libdiehard.so`'s arena) or drops it.
#[derive(Debug)]
pub(crate) struct Nested;

/// The state behind an initialized allocator: the lock-free header fields
/// plus the two locked domains (small-object growth, large-object table).
/// It heads its heap's metadata mapping, which is never unmapped, so it is
/// never freed: every reference to it is `&'static`, and one outlives the
/// [`DieHard`] that made it, dropped or moved. The heap leads it (`repr(C)`),
/// and with it the heap's partitions, at the state's own address.
#[repr(C)]
struct GlobalState {
    /// Twelve lock-free partitions + the two cold counters: the heap.
    heap: Heap,
    /// Base address of the small-object span. Written once at init, then
    /// read-only.
    heap_base: *mut u8,
    /// System page size. Written once at init, then read-only.
    page: usize,
    /// The large-object validity table (§4.1/§4.3): user pointer → user
    /// length, behind one lock disjoint from every small-object shard. The
    /// mapping is always `[user − page, user + len + page)` (`alloc_large`).
    large: SpinLock<LargeTable>,
    /// Whether `fork_prepare` took the table's lock, which `fork_resume`
    /// then releases: not when its own thread held it already.
    large_forked: AtomicBool,
}

// SAFETY: `heap_base` and `page` are written once before `DieHard`
// publishes this state's address (Release/Acquire) and are only read
// afterwards; `heap` is Sync by construction (per-class SpinLocks + atomic
// words) and the large table is guarded by its SpinLock. The mappings the
// raw pointers refer to are never unmapped.
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
    /// copy for both readers (`usable_size`, `remaining_space`). `None`
    /// too for a call nested inside one of its own thread's that holds the
    /// table: it cannot look, so it knows no large object.
    #[inline(never)]
    fn large_len(&self, ptr: *const u8) -> Option<usize> {
        self.large.lock_unless_mine()?.get(ptr as usize)
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
    /// `EMPTY` → the builder's [`tls::current_thread`] elects the one
    /// thread that builds and publishes `state`, which then stores `READY`,
    /// or `FAILED` for good. Read only off the ready path.
    init: AtomicU64,
    /// The configuration and seed fixed at construction, if any: the
    /// `DIEHARD_*` environment is then ignored.
    fixed: Option<(HeapConfig, u64)>,
    /// The elastic start fraction: fixed when `fixed` is, else the
    /// fallback for an unset `DIEHARD_GROW`. `0` is the fixed-size heap.
    grow: u32,
}

impl DieHard {
    /// The one field list behind the four constructors.
    const fn configured(fixed: Option<(HeapConfig, u64)>, grow: u32) -> Self {
        Self {
            state: AtomicPtr::new(ptr::null_mut()),
            init: AtomicU64::new(EMPTY),
            fixed,
            grow,
        }
    }

    /// Creates an uninitialized allocator; usable in `static` items. Its
    /// heap is the paper's fixed one unless `DIEHARD_GROW` says otherwise,
    /// and like every `DieHard`'s it spills a request its class denies at
    /// the maximum capacity to a dedicated guard-paged mapping.
    #[must_use]
    pub const fn new() -> Self {
        Self::configured(None, 0)
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
    /// allocation returns null.) The heap is fixed-size: a class denied at
    /// its `1/M` cap spills.
    #[must_use]
    pub const fn with_config(config: HeapConfig, seed: u64) -> Self {
        Self::configured(Some((config, seed)), 0)
    }

    /// As [`with_config`](Self::with_config) but **elastic**: every class
    /// starts at `1/2^initial_fraction_log2` of its configured maximum
    /// capacity and grows under `1/M`-cap pressure until it is denied at
    /// the maximum, where it spills. The `DIEHARD_GROW` environment knob is
    /// this constructor's env-driven equivalent for allocators built with
    /// [`new`](Self::new).
    #[must_use]
    pub const fn with_elastic_config(
        config: HeapConfig,
        seed: u64,
        initial_fraction_log2: u32,
    ) -> Self {
        Self::configured(Some((config, seed)), initial_fraction_log2)
    }

    /// As [`new`](Self::new) — fully environment-configured — but
    /// **elastic by default**: when `DIEHARD_GROW` is unset, classes start
    /// at `1/2^default_fraction_log2` of their maximum. A set
    /// `DIEHARD_GROW` still wins. This is the constructor for the
    /// `LD_PRELOAD` interposer (which passes [`DEFAULT_GROW_LOG2`]).
    #[must_use]
    pub const fn elastic_from_env(default_fraction_log2: u32) -> Self {
        Self::configured(None, default_fraction_log2)
    }

    /// C-style allocation entry point: allocate `size` bytes aligned to 8
    /// bytes, matching the paper's smallest (8-byte) size class. Rust
    /// callers needing stricter alignment go through [`GlobalAlloc::alloc`]
    /// with an explicit `Layout`. Returns null when the size is zero or too
    /// large to describe as a `Layout`, the system is out of memory, or the
    /// large-object table already holds its 4 096 live large objects and
    /// spills.
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
        let _ = if sole_thread() {
            self.free_in(true, ptr)
        } else {
            self.free_in(false, ptr)
        };
    }

    /// [`GlobalAlloc::alloc`] for the entry `libdiehard.so`'s allocation
    /// exports funnel into, which tells a nested call — one made inside
    /// another on the same thread: a signal handler interrupting it — from
    /// an outermost one, and returns `nested()` for it. One read of the
    /// thread count decides how (`tls` has why): while the process has
    /// one thread, a process-wide flag, set for the call's duration
    /// ([`with_guard`] sets it too), diverts every nested call before it
    /// reaches the heap, whose updates are then plain loads and stores;
    /// threaded, the heap's updates are locked instructions, and only a
    /// nested call that needs what its own thread holds — a lock, the heap
    /// being built — is diverted, where it finds its thread named as the
    /// holder. Inlined whole into the caller, so the `READY` path makes no
    /// call until a growth step.
    #[inline(always)]
    pub fn alloc_guarded(&self, layout: Layout, nested: impl FnOnce() -> *mut u8) -> *mut u8 {
        tls::guarded(
            |reentered| {
                if reentered {
                    Err(Nested)
                } else {
                    self.alloc_in(true, layout)
                }
            },
            || self.alloc_in(false, layout),
        )
        .unwrap_or_else(|Nested| nested())
    }

    /// [`free`](Self::free), telling nested calls apart as
    /// [`alloc_guarded`](Self::alloc_guarded) does: a nested call runs
    /// `nested` instead of freeing — alone, every one; threaded, one that
    /// needs the large-object table while its own thread holds it. The same
    /// one read, inlined whole; no call on a small object.
    #[inline(always)]
    pub fn free_guarded(&self, ptr: *mut u8, nested: impl FnOnce()) {
        let freed = tls::guarded(
            |reentered| {
                if reentered {
                    Err(Nested)
                } else {
                    self.free_in(true, ptr)
                }
            },
            || self.free_in(false, ptr),
        );
        if freed.is_err() {
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
            let len = libc::strlen(src.cast());
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
        unsafe { self.bounded_copy(dest, src, libc::strnlen(src.cast(), n), n) }
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
            // `copied` already holds the bounded terminator (and when `n` is
            // no further, there is nothing to pad).
            if let Some(pad) = dest.get_mut(copied..n.min(space)) {
                pad.fill(0);
            }
            copied
        }
    }

    /// Live small objects (diagnostics: the twelve classes' `1/M` tickets,
    /// [`Heap::live_objects`]). Exact whenever no other thread is inside
    /// the allocator.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.ready().map_or(0, |s| s.heap.live_objects())
    }

    /// Heap statistics since initialization ([`Heap::stats`]); exact
    /// whenever no other thread is inside the allocator.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.ready()
            .map_or_else(Default::default, |s| s.heap.stats())
    }

    /// Bitmask of size classes with memory offered to huge pages (bit `i` =
    /// class index `i`; diagnostics): those that have taken a growth step
    /// and hold a whole huge page in their active range
    /// ([`Heap::promoted_classes`]). Whether the kernel took the advice, or
    /// collapsed the pages, is not recorded.
    #[must_use]
    pub fn promoted_classes(&self) -> u32 {
        self.ready().map_or(0, |s| s.heap.promoted_classes())
    }

    /// C `malloc_usable_size`: the full capacity of the live object whose
    /// *start* is `ptr` — the rounded class size for small objects, the
    /// page-rounded user range for large ones. Returns 0 for null, interior,
    /// foreign, and dead pointers (glibc returns 0 only for null and leaves
    /// the rest undefined; answering 0 instead of corrupting is this
    /// allocator's whole premise). A small object is dead the moment its
    /// free returns, whatever thread freed it.
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
    /// child's single thread sees no growth step half taken and settled
    /// tables. In-flight *lock-free* operations in other threads (a ticket
    /// between its `fetch_add` and its claim) can strand one slot of `1/M`
    /// allowance per such thread in the child — an availability leak, never
    /// corruption: each slot's bit and each ticket word stay
    /// self-consistent under any interleaving of the parent's atomics.
    ///
    /// A heap not yet initialized is initialized here first, or waited for
    /// when another thread is building it: a child must never inherit a
    /// half-built heap, whose builder it does not have. So a process that
    /// forks before its first allocation shares its seed with the child, as
    /// one that forks after it does.
    ///
    /// Pair with [`fork_resume`](Self::fork_resume) in both the parent and
    /// the child (the `pthread_atfork` parent/child hooks).
    ///
    /// A lock the forking thread holds already — a `fork` from a signal
    /// handler that interrupted one of its allocator calls — is not taken
    /// again (no wait ends), and not released by `fork_resume`: the frame
    /// that holds it does, in the parent and in the child alike.
    pub fn fork_prepare(&self) {
        if let Ok(Some(state)) = self.state() {
            state.heap.lock_all_maintenance();
            let took = state.large.raw_lock();
            state.large_forked.store(took, Ordering::Relaxed);
        }
    }

    /// Releases the locks taken by [`fork_prepare`](Self::fork_prepare), in
    /// reverse order.
    ///
    /// # Safety
    ///
    /// Must be called exactly once in each process that inherited the locks
    /// (parent and child), after a `fork_prepare` on the same allocator.
    /// That call left the heap ready with its locks held, or failed for
    /// good with nothing to lock, so the heap is ready here exactly when
    /// there are locks to release.
    pub unsafe fn fork_resume(&self) {
        if let Some(state) = self.ready() {
            // SAFETY: held by the paired fork_prepare (this thread, or the
            // forking thread this child process inherited from), which took
            // the table's lock when `large_forked` says so.
            unsafe {
                if state.large_forked.load(Ordering::Relaxed) {
                    state.large.raw_unlock();
                }
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
    fn state(&self) -> Result<Option<&'static GlobalState>, Nested> {
        match self.ready() {
            Some(state) => Ok(Some(state)),
            None => self.initialize(),
        }
    }

    /// The not-ready half of [`state`](Self::state): exactly one thread
    /// builds the state and publishes its address; racers wait for it, and
    /// a call nested inside the builder's own (a signal handler's `malloc`
    /// on the building thread) is [`Nested`].
    #[cold]
    #[inline(never)]
    fn initialize(&self) -> Result<Option<&'static GlobalState>, Nested> {
        let me = tls::current_thread();
        loop {
            match self
                .init
                .compare_exchange(EMPTY, me, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {
                    let state = self.build_state();
                    if let Some(state) = state {
                        self.state
                            .store(ptr::from_ref(state).cast_mut(), Ordering::Release);
                    }
                    let outcome = if state.is_some() { READY } else { FAILED };
                    self.init.store(outcome, Ordering::Release);
                    return Ok(state);
                }
                Err(READY) => return Ok(self.ready()),
                Err(FAILED) => return Ok(None),
                Err(builder) if builder == me => return Err(Nested),
                // Another thread is building the state; the allocator cannot
                // park (parking may allocate), so yield until it is done.
                Err(_) => crate::sync::yield_now(),
            }
        }
    }

    /// The one-time initialization: choose a configuration and seed, map the
    /// metadata arena and the heap span, and assemble the heap plus
    /// large-object table at the front of the arena. Runs on exactly one
    /// thread.
    #[cold]
    #[inline(never)]
    fn build_state(&self) -> Option<&'static GlobalState> {
        // The start fraction: a config-fixed allocator takes its
        // constructor's choice and ignores the environment (the same
        // isolation contract as the other knobs); an env-configured one
        // honors DIEHARD_GROW, falling back to the constructor's fraction.
        // The knobs' readers answer only values a heap can be built with
        // (`crate::env`), so a bad value falls back to its default rather
        // than failing initialization for good.
        let (config, seed, grow) = match &self.fixed {
            Some((config, seed)) => (config.clone(), *seed, self.grow),
            None => {
                let region_mb = crate::env::region_mb();
                (
                    HeapConfig::paper_default()
                        .with_region_bytes((region_mb as usize) << 20)
                        .with_multiplier(crate::env::multiplier(region_mb) as f64),
                    crate::env::seed().unwrap_or_else(entropy_seed),
                    crate::env::grow().unwrap_or(self.grow),
                )
            }
        };
        // Fraction 0 is the fixed heap.
        let geometry = HeapGeometry::new_elastic(config, grow).ok()?;

        let page = sys::page_size();
        let span = geometry.heap_span();
        // The large table's keys and sizes, then the twelve slot maps.
        let words = 2 * LARGE_SLOTS + <Heap>::metadata_words_needed(geometry.config());
        // The state heads the arena, in whole pages of its own, so the
        // words behind it start page-aligned.
        let head = size_of::<GlobalState>().checked_next_multiple_of(page)?;
        let meta_bytes = (head + words * size_of::<Word>()).checked_next_multiple_of(page)?;
        let meta = sys::map_reserve(meta_bytes);
        if meta.is_null() {
            return None;
        }
        // 2 MB-aligned, so every class region (a power of two) of at least
        // one huge page starts and ends on a huge-page boundary and can be
        // advised and collapsed as a whole. Nothing is advised here: the
        // span faults in 4 KB at a time until a growth step completes a
        // huge page (see `promote_region`).
        let heap_base = sys::map_reserve_huge_aligned(span);
        if heap_base.is_null() {
            // SAFETY: meta was just mapped with this length.
            unsafe { sys::unmap(meta, meta_bytes) };
            return None;
        }
        debug_assert_eq!(heap_base as usize % sys::HUGE_PAGE, 0);

        // SAFETY: the one step from the mapping to typed memory. `meta` is a
        // fresh, page-aligned anonymous mapping of `meta_bytes`: zeroed,
        // referenced by nothing else, and never unmapped, so it may be
        // borrowed for `'static`. The two borrows are disjoint and aligned:
        // the state's slot in the first `head` bytes, then `words` words.
        // Zero is a valid `Word`. Zeroed keys are also what keeps
        // `release_large` sound: the table starts with no address recorded,
        // so it unmaps only mappings `alloc_large` made and recorded.
        let (slot, words) = unsafe {
            (
                &mut *meta.cast::<MaybeUninit<GlobalState>>(),
                core::slice::from_raw_parts(meta.add(head).cast::<Word>(), words),
            )
        };
        // Cut from the words just mapped for them, so none comes up short.
        let (keys, words) = words.split_first_chunk::<LARGE_SLOTS>()?;
        let (sizes, maps) = words.split_first_chunk::<LARGE_SLOTS>()?;
        let mut heap = Heap::carved(geometry, seed, maps)?;
        heap.set_promote_hook(promote_region, heap_base as usize);
        Some(slot.write(GlobalState {
            heap,
            heap_base,
            page,
            large: SpinLock::new(LargeTable::from_storage(keys, sizes)),
            large_forked: AtomicBool::new(false),
        }))
    }

    /// The one allocation body, in the arm this call's one read of the
    /// thread count chose (`sole`): behind [`GlobalAlloc::alloc`] and
    /// [`alloc_guarded`](Self::alloc_guarded). Inlined into both arms of each
    /// of them, with every slow path — initialization, a growth step, a
    /// large object — out of line. [`Nested`] only in the threaded arm.
    #[inline(always)]
    pub(crate) fn alloc_in(&self, sole: bool, layout: Layout) -> Result<*mut u8, Nested> {
        let Some(state) = self.state()? else {
            return Ok(ptr::null_mut());
        };
        // Slots are naturally aligned to their (power-of-two) class size, so
        // serving max(size, align) satisfies any alignment request.
        let need = layout.size().max(layout.align());
        if need > crate::size_class::MAX_OBJECT_SIZE {
            return Self::alloc_large(state, layout.size(), layout.align());
        }
        // Fast path: a random slot, claimed by the heap's probe loop (no
        // lock short of a growth step).
        match state.heap.try_alloc_in(sole, need) {
            AllocOutcome::Placed(slot) => {
                let off = state.heap.offset_of(slot);
                // SAFETY: `off` lies within the reserved heap span.
                Ok(unsafe { state.heap_base.add(off) })
            }
            // A class denied at its *maximum* capacity — or whose growth
            // step this thread is in the middle of — spills to a dedicated
            // guard-paged mapping rather than failing: the pointer frees
            // through the same large-object table an oversized request
            // would use.
            AllocOutcome::Spill => Self::alloc_large(state, layout.size().max(1), layout.align()),
            AllocOutcome::Unsupported => Ok(ptr::null_mut()),
        }
    }

    /// The one free body, in the arm this call chose: behind
    /// [`free`](Self::free), [`free_guarded`](Self::free_guarded) and
    /// `dealloc`. [`Nested`] only in the threaded arm.
    #[inline(always)]
    pub(crate) fn free_in(&self, sole: bool, ptr: *mut u8) -> Result<(), Nested> {
        let Some(state) = self.ready() else {
            return Ok(());
        };
        let Some(off) = state.span_offset(ptr) else {
            return Self::release_large(state, ptr);
        };
        // Small object: full §4.3 validation — lock-free arithmetic, then
        // one `and` that frees the slot or, on a free one, changes nothing.
        let _ = state.heap.free_at_in(sole, off);
        Ok(())
    }

    /// The small-object span's base address and the heap that places
    /// objects in it, built on first use; `None` when the build failed.
    /// `spec`'s columns read placements as offsets from the base.
    #[cfg(test)]
    pub(crate) fn span(&self) -> Option<(usize, &'static Heap)> {
        let state = self.state().ok()??;
        Some((state.heap_base as usize, &state.heap))
    }

    /// Frees a pointer outside the small-object span: possibly a large
    /// object. [`Nested`] when this thread holds the table already.
    #[cold]
    #[inline(never)]
    fn release_large(state: &GlobalState, ptr: *mut u8) -> Result<(), Nested> {
        // Consult the validity table; unknown addresses are ignored
        // ("otherwise, it ignores the request").
        let Some(len) = state
            .large
            .lock_unless_mine()
            .ok_or(Nested)?
            .remove(ptr as usize)
        else {
            return Ok(());
        };
        // SAFETY: the entry was live, so `[ptr − page, ptr + len + page)` is
        // the mapping `alloc_large` made for this object and nothing has
        // released it since; the lock is already dropped, so the syscall
        // never runs under it.
        unsafe { sys::unmap(ptr.wrapping_sub(state.page), len + 2 * state.page) };
        Ok(())
    }

    /// One object in a dedicated guard-paged mapping: past the largest
    /// class, or a spill. Always a fresh anonymous mapping, so its bytes
    /// read zero — `libdiehard.so`'s `calloc` relies on that. [`Nested`]
    /// when this thread holds the table already.
    #[cold]
    #[inline(never)]
    fn alloc_large(state: &GlobalState, size: usize, align: usize) -> Result<*mut u8, Nested> {
        let page = state.page;
        let len = (size + page - 1) & !(page - 1);
        // A page-aligned reservation reaches an `align` boundary within
        // `align − page` bytes of its first guard page.
        let slack = align.max(page) - page;
        let total = len + 2 * page + slack;
        let raw = sys::map_reserve(total);
        if raw.is_null() {
            return Ok(ptr::null_mut());
        }
        // `align` is a power of two (a `Layout`'s), so rounding up is a mask.
        let user = (raw as usize + page + align - 1) & !(align - 1);
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
        // A table its own thread holds already — this call is nested in one
        // that does — is held for the whole call, so it is asked here, after
        // the syscalls, which run under no lock.
        let recorded = state
            .large
            .lock_unless_mine()
            .map(|mut table| table.insert(user, len));
        if recorded != Some(true) {
            // Table full, or not this call's to record in: refuse rather
            // than lose track of the mapping.
            // SAFETY: the mapping is unreferenced; release it whole.
            unsafe { sys::unmap(start as *mut u8, end - start) };
            return recorded.map(|_| ptr::null_mut()).ok_or(Nested);
        }
        Ok(user as *mut u8)
    }
}

/// The heap's [`PromoteHook`](crate::sharded::PromoteHook): moves the huge
/// pages `[offset, offset + len)` of the span at `heap_base` — whole ones,
/// inside one class's active range — onto huge pages. The advice covers
/// what the range faults in from here on, the collapse re-backs what has
/// been touched so far. Both are best-effort: advice the kernel turns down
/// leaves the range on the pages it has (there is nothing to collapse), and
/// the heap never offers it again.
fn promote_region(heap_base: usize, offset: usize, len: usize) {
    let range = (heap_base + offset) as *mut u8;
    if sys::advise_hugepages(range, len) {
        sys::collapse_hugepages(range, len);
    }
}

/// Zeroed [`Word`]s of heap metadata — slot maps, the large-object table —
/// in one of two homes: carved out of the global allocator's metadata
/// mapping, which is never unmapped, or a block of their own from the C
/// library's `calloc`, freed when they are dropped — the storage of every
/// heap the simulator and the tests own (the crate links no `alloc`, and a
/// simulator that builds heap after heap reuses the C library's memory).
/// Here, beside the C calls, so that nothing else can mark words as a block
/// to free.
#[derive(Debug)]
pub(crate) struct Words {
    /// The words. `'static` for carved ones only: owned ones lend them out
    /// for no longer than they live (through `Deref`).
    words: &'static [Word],
    /// Whether `words` is a `calloc` block of its own, freed on drop.
    owned: bool,
}

impl Words {
    /// Words carved out of storage that outlives every use of them.
    #[must_use]
    pub(crate) const fn carved(words: &'static [Word]) -> Self {
        Self {
            words,
            owned: false,
        }
    }

    /// `len` zeroed words of their own, from `calloc`, returned to `free`
    /// when they are dropped; `None` when the C library has no memory.
    #[must_use]
    pub(crate) fn zeroed(len: usize) -> Option<Self> {
        // SAFETY: `calloc` answers null or a block of at least `len` words,
        // zeroed (a valid `Word`) and aligned for any object, that nothing
        // else references; only this value's drop frees it, after its last
        // borrow.
        let words = unsafe {
            let base = libc::calloc(len.max(1), size_of::<Word>()).cast::<Word>();
            if base.is_null() {
                return None;
            }
            core::slice::from_raw_parts(base, len)
        };
        Some(Self { words, owned: true })
    }
}

impl core::ops::Deref for Words {
    type Target = [Word];

    #[inline]
    fn deref(&self) -> &[Word] {
        self.words
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        if self.owned {
            // SAFETY: owned words are the block `zeroed` had from `calloc`,
            // and every borrow of them ended with `&self`'s.
            unsafe { libc::free(self.words.as_ptr().cast_mut().cast()) };
        }
    }
}

/// Runs `f` as an allocator call would run: while the process has one
/// thread, with the re-entrancy flag [`DieHard::alloc_guarded`] and
/// [`DieHard::free_guarded`] check and set, telling `f` whether it was
/// already set, so every guarded call inside `f` is diverted. A threaded
/// process has no flag (a nested call is told apart by the locks its thread
/// holds, `tls`): there `f` runs as it is, told `false`.
pub fn with_guard<R>(f: impl FnOnce(bool) -> R) -> R {
    // One of the two arms runs, once.
    let f = Cell::new(Some(f));
    let run = |reentered| f.take().expect("one arm runs")(reentered);
    tls::guarded(run, || run(false))
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
    // Each arm is its own inlined copy, with its answer known.
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let placed = if sole_thread() {
            self.alloc_in(true, layout)
        } else {
            self.alloc_in(false, layout)
        };
        placed.unwrap_or(ptr::null_mut())
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        self.free(ptr);
    }
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

    /// The `1/M` cap at the maximum capacity bounds what is placed, not
    /// what is served: past it every request spills to a dedicated mapping,
    /// whichever constructor built the `DieHard` — a fixed heap's included.
    #[test]
    fn exhaustion_spills_past_the_cap() {
        let class = SizeClass::for_size(16 * 1024).unwrap();
        // The 16 KB class in a 1 MB region holds 64 slots, 32 live cap.
        let small_cap = HeapConfig::default().threshold(class);
        assert_eq!(small_cap, 32);
        // The environment's heap (no `DIEHARD_*` is set under test) has
        // the paper's 32 MB regions.
        let paper_cap = HeapConfig::paper_default().threshold(class);
        for (heap, cap) in [
            (DieHard::with_config(HeapConfig::default(), 7), small_cap),
            (
                DieHard::with_elastic_config(HeapConfig::default(), 7, 6),
                small_cap,
            ),
            (DieHard::new(), paper_cap),
            (DieHard::elastic_from_env(DEFAULT_GROW_LOG2), paper_cap),
        ] {
            let ptrs: Vec<_> = (0..cap + 68).map(|_| heap.malloc(16 * 1024)).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()), "no request fails");
            let stats = heap.stats();
            assert_eq!(stats.allocs, cap as u64, "1/M cap bounds live objects");
            assert_eq!(stats.exhausted, 68, "the rest spilled");
            assert_eq!(heap.ready().unwrap().large.lock().len(), 68);
            for p in ptrs {
                heap.free(p);
            }
            assert_eq!(heap.live_objects(), 0);
            assert_eq!(heap.stats().frees, cap as u64);
            assert!(heap.ready().unwrap().large.lock().is_empty());
        }
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

    /// A 0 B request is one of 1 B wherever it lands: in the 8-byte class,
    /// and, once that class is at its maximum, in a spill of one page.
    #[test]
    fn a_zero_byte_spill_is_a_page() {
        let config = HeapConfig {
            region_bytes: HeapConfig::min_region_bytes(2.0),
            ..HeapConfig::default()
        };
        let cap = config.threshold(SizeClass::for_size(8).unwrap());
        let heap = DieHard::with_config(config, 0x5EED);
        let zero = Layout::from_size_align(0, 1).unwrap();
        for _ in 0..cap {
            let p = heap.alloc_in(false, zero).unwrap();
            assert_eq!(heap.usable_size(p), 8, "placed in the 8-byte class");
        }
        let (base, placed) = heap.span().unwrap();
        let p = heap.alloc_in(false, zero).unwrap();
        assert!(!p.is_null());
        assert!(!(base..base + placed.heap_span()).contains(&(p as usize)));
        assert_eq!(
            heap.stats().exhausted,
            1,
            "the class denied it at its maximum"
        );
        assert_eq!(heap.usable_size(p), page_size());
        heap.free_in(false, p).unwrap();
        assert_eq!(heap.usable_size(p), 0, "freed through the large table");
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

    /// A region whose 8-byte class has more slots than a partition holds
    /// fails initialization like any other invalid configuration.
    #[test]
    fn region_past_the_partition_capacity_fails_with_null() {
        let heap = DieHard::with_config(HeapConfig::default().with_region_bytes(16 << 30), 1);
        assert!(heap.malloc(64).is_null());
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
        // Uninitialized: prepare builds the heap and takes its locks, and
        // resume releases them.
        heap.fork_prepare();
        assert!(heap.ready().is_some(), "prepare initialized the heap");
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

    /// Runs `call` on a thread of its own and waits for its answer: `None`
    /// when there is none within the deadline, as there never is from a
    /// call that waits for a lock its own thread holds. (Such a thread is
    /// left spinning on a heap no other test shares.)
    fn within_deadline<R: Send + 'static>(call: impl FnOnce() -> R + Send + 'static) -> Option<R> {
        let (answer, answered) = std::sync::mpsc::channel();
        std::thread::spawn(move || answer.send(call()));
        answered
            .recv_timeout(std::time::Duration::from_secs(10))
            .ok()
    }

    /// A call nested inside its own thread's growth step of a class — a
    /// signal handler's `malloc` interrupting the step — finds the class's
    /// maintenance lock held by its thread: it is denied the class and
    /// spills to a mapping of its own, where it used to wait for itself for
    /// ever. The test harness is threaded, so this is the locked arm, which
    /// has no re-entrancy flag to divert the call sooner.
    #[test]
    fn a_nested_allocation_under_its_threads_class_lock_spills() {
        const SIZE: usize = 16 * 1024;
        let answer = within_deadline(|| {
            // The 16 KiB class starts at 2 slots, so one live object meets
            // its `1/M` cap and the next allocation needs a growth step.
            let heap = DieHard::with_elastic_config(HeapConfig::default(), 0x4E57, 6);
            let first = heap.malloc(SIZE);
            let state = heap.ready().expect("the first malloc built the heap");
            let growths = state.heap.growth_events();
            state.heap.lock_all_maintenance();
            let layout = Layout::from_size_align(SIZE, 16).unwrap();
            let nested = heap.alloc_guarded(layout, || panic!("a spill needs no arena"));
            // SAFETY: taken just above, by this thread.
            unsafe { state.heap.unlock_all_maintenance() };
            let spilled = !nested.is_null() && state.span_offset(nested).is_none();
            let answer = (
                spilled,
                heap.usable_size(nested) >= SIZE,
                state.heap.growth_events() - growths,
            );
            heap.free(nested);
            heap.free(first);
            answer
        });
        assert_eq!(
            answer,
            Some((true, true, 0)),
            "(spilled, usable, growth steps taken)"
        );
    }

    /// A call nested inside one that holds its heap's large-object table —
    /// a signal handler's `malloc` or `free` interrupting a large
    /// allocation — is told so at once, in the locked arm too: a large
    /// request is diverted (`libdiehard.so` serves it from its arena), a
    /// large free is dropped, and a size lookup knows no large object. The
    /// object is untouched once the table is released.
    #[test]
    fn nested_calls_under_their_threads_large_table_lock_are_diverted() {
        const SIZE: usize = 100_000;
        let answer = within_deadline(|| {
            let heap = small_test_heap();
            let big = heap.malloc(SIZE);
            let state = heap.ready().expect("the malloc built the heap");
            let table = state.large.lock();
            let arena = 0x5EA1_0000 as *mut u8;
            let layout = Layout::from_size_align(SIZE, 16).unwrap();
            let diverted = heap.alloc_guarded(layout, || arena) == arena;
            let mut dropped = false;
            heap.free_guarded(big, || dropped = true);
            let looked_up = heap.usable_size(big);
            drop(table);
            let kept = heap.usable_size(big) >= SIZE;
            heap.free(big);
            (diverted, dropped, looked_up, kept, heap.usable_size(big))
        });
        assert_eq!(
            answer,
            Some((true, true, 0, true, 0)),
            "(diverted, dropped, nested size, kept, size after the free)"
        );
    }

    /// A call nested inside its own thread's build of the heap is diverted
    /// too, where it used to wait for the build it interrupted.
    #[test]
    fn a_nested_allocation_during_its_threads_build_is_diverted() {
        let answer = within_deadline(|| {
            let heap = small_test_heap();
            // This thread is building the heap, as `initialize` records it.
            heap.init.store(tls::current_thread(), Ordering::Release);
            let layout = Layout::from_size_align(64, 16).unwrap();
            let diverted = heap.alloc_guarded(layout, || 0x5EA1_0000 as *mut u8) as usize;
            heap.init.store(EMPTY, Ordering::Release);
            let p = heap.malloc(64);
            heap.free(p);
            (diverted, !p.is_null())
        });
        assert_eq!(answer, Some((0x5EA1_0000, true)), "(diverted, built after)");
    }

    /// Threads racing a fresh heap's first allocation build one heap: every
    /// pointer lands in the one span published, and its statistics count
    /// every allocation.
    #[test]
    fn racing_first_allocations_build_one_heap() {
        const THREADS: usize = 8;
        for round in 0..16 {
            let heap = DieHard::with_config(HeapConfig::default(), round);
            let start = std::sync::Barrier::new(THREADS);
            let ptrs: Vec<usize> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            heap.malloc(64) as usize
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let state = heap.ready().expect("initialized");
            for &p in &ptrs {
                assert!(
                    state.span_offset(p as *const u8).is_some(),
                    "round {round}: {p:#x} is outside the span at {:p}",
                    state.heap_base
                );
            }
            assert_eq!(heap.stats().allocs, THREADS as u64, "round {round}");
            for p in ptrs {
                heap.free(p as *mut u8);
            }
            assert_eq!(heap.live_objects(), 0);
        }
    }

    /// Waits up to `deadline` for the child `pid`: its wait status, or
    /// `None` when it had to be killed at the deadline.
    fn wait_with_deadline(pid: libc::pid_t, deadline: std::time::Duration) -> Option<i32> {
        let start = std::time::Instant::now();
        let mut status: libc::c_int = -1;
        loop {
            // SAFETY: pid is our direct child, not yet reaped.
            match unsafe { libc::waitpid(pid, &raw mut status, libc::WNOHANG) } {
                0 if start.elapsed() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                0 => {
                    // SAFETY: as above; the blocking wait reaps the kill.
                    unsafe {
                        libc::kill(pid, libc::SIGKILL);
                        libc::waitpid(pid, &raw mut status, 0);
                    }
                    return None;
                }
                reaped => {
                    assert_eq!(reaped, pid, "waitpid failed");
                    return Some(status);
                }
            }
        }
    }

    /// A `fork` that races a heap's first allocation hands the child a heap
    /// it can allocate from. Each round releases a second thread's first
    /// `malloc` and this thread's `fork_prepare` + `fork` together, and the
    /// child allocates once and exits. A child that inherits a heap half
    /// built by the other thread, which the child does not have, waits for
    /// it forever: the parent gives each child two seconds, then kills it
    /// and counts it as hung.
    #[test]
    fn fork_racing_the_first_allocation_leaves_the_child_a_usable_heap() {
        const ROUNDS: u64 = 100;
        let mut hung = 0;
        for round in 0..ROUNDS {
            let heap = DieHard::with_config(HeapConfig::default(), round);
            let start = std::sync::Barrier::new(2);
            let pid = std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    heap.free(heap.malloc(64));
                });
                start.wait();
                heap.fork_prepare();
                // SAFETY: the child touches only `heap` and `_exit` — no
                // lock another thread of this process may hold.
                let pid = unsafe { libc::fork() };
                // SAFETY: paired with the prepare above, in the parent and
                // in the child.
                unsafe { heap.fork_resume() };
                if pid == 0 {
                    let failed = heap.malloc(64).is_null();
                    // SAFETY: child exit, no cleanup.
                    unsafe { libc::_exit(i32::from(failed)) };
                }
                pid
            });
            assert!(pid > 0, "fork failed");
            match wait_with_deadline(pid, std::time::Duration::from_secs(2)) {
                Some(status) => assert_eq!(status, 0, "round {round}: the child's malloc failed"),
                None => hung += 1,
            }
        }
        assert_eq!(
            hung, 0,
            "{hung} of {ROUNDS} children hung in their first malloc"
        );
    }

    /// Paper-sized 32 MB regions at a 1/16 start: every class is born with a
    /// whole huge page (a 2 MB active range), which its first growth step
    /// hands the hook.
    fn paper_elastic_heap(seed: u64) -> DieHard {
        DieHard::with_elastic_config(HeapConfig::paper_default(), seed, 4)
    }

    /// Whether the host's THP mode is `madvise`, the one mode in which what
    /// is backed by huge pages is the allocator's call alone.
    fn thp_madvise() -> bool {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        thp.is_ok_and(|mode| mode.contains("[madvise]"))
    }

    /// The classes the promotion rule has offered huge pages, read off a
    /// heap with no hook: grown at least one step, and a huge page long.
    fn grown_to_a_huge_page(heap: &Heap) -> u32 {
        SizeClass::all().fold(0, |mask, class| {
            let capacity = heap.partition(class).capacity();
            let grown = capacity > heap.geometry().initial_capacity(class);
            let whole = capacity * class.object_size() >= sys::HUGE_PAGE;
            mask | u32::from(grown && whole) << class.index()
        })
    }

    /// A busy class is promoted alone, at the growth step that completes a
    /// huge page, in this threaded process as in a one-thread one: from the
    /// shipped 64 KiB start at the allocation that steps the class from 1.75 MB
    /// to 2 MB, and every later step adds the huge pages it completed, up to
    /// the whole region; from a 2 MB start at its first step, with the
    /// 2 MB it was born with. A fixed heap never grows and is never
    /// promoted, however busy the class: its 32 MB region stays on base
    /// pages, at most one resident per object (`mincore`, checked under THP
    /// `madvise`). Each collapse happens in place (every object keeps its
    /// address and its contents), and placement stays identical to a heap
    /// that owns no memory and has no hook at all — through every step on the
    /// way, the promotions, interleaved frees and steps of
    /// other classes after them.
    #[test]
    fn hot_class_is_promoted_once_alone_and_in_place() {
        const SEED: u64 = 0x9A6E;
        let config = HeapConfig::paper_default;
        let hot_class = SizeClass::for_size(64).unwrap();
        let hot = 1u32 << hot_class.index();
        // The allocation that finds a range's `1/M` allowance `t` used up,
        // and widens it, is allocation `t + 1`.
        let step_from = |bytes: usize| config().threshold_for(bytes / 64) + 1;
        // The shipped start climbs on, past its last step (at seven eighths
        // of the `1/M` allowance of the 32 MB maximum).
        let whole_ladder = config().threshold(hot_class) / 16 * 15;
        let at_two_mb = step_from(sys::HUGE_PAGE);
        for (start, crossing, objects) in [
            (None, None, 2_000),
            (Some(4), Some(at_two_mb), at_two_mb + 1_000),
            (
                Some(DEFAULT_GROW_LOG2),
                Some(step_from(sys::HUGE_PAGE / 8 * 7)),
                whole_ladder,
            ),
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
            let mut ptrs = Vec::new();
            for i in 1..=objects {
                let p = heap.malloc(64);
                assert!(!p.is_null());
                // SAFETY: a live, 64-byte-aligned 64-byte object.
                unsafe { p.cast::<usize>().write(i) };
                ptrs.push(p);
                let base = heap.ready().unwrap().heap_base as usize;
                assert_eq!(base % sys::HUGE_PAGE, 0, "span is huge-page aligned");
                let expected = twin.offset_of(twin.alloc(64).unwrap());
                assert_eq!(p as usize - base, expected, "placement of object {i}");
                let want = u32::from(crossing.is_some_and(|c| i >= c)) * hot;
                assert_eq!(
                    heap.promoted_classes(),
                    want,
                    "start {start:?}, after object {i}"
                );
            }
            let state = heap.ready().unwrap();
            if start.is_none() && thp_madvise() {
                let region =
                    state.heap_base as usize + state.heap.geometry().region_base(hot_class);
                let resident = resident_bytes(region, config().region_bytes, state.page);
                assert!(
                    resident <= objects * state.page,
                    "{resident} B of the fixed region resident for {objects} objects"
                );
            }
            // A mixed history on top — three classes, every third call a
            // free of a random live object, so growth steps and frees
            // interleave — holding enough 16 KB objects
            // live to grow that class on either elastic heap.
            let base = state.heap_base as usize;
            let mut rng = crate::rng::Mwc::seeded(SEED);
            let mut mixed: Vec<*mut u8> = Vec::new();
            for i in 0..600usize {
                let size = [24, 700, 16 * 1024][rng.below(3)];
                let p = heap.malloc(size);
                assert!(!p.is_null());
                let expected = twin.offset_of(twin.alloc(size).unwrap());
                assert_eq!(p as usize - base, expected, "mixed object {i} ({size} B)");
                mixed.push(p);
                if i % 3 == 2 {
                    let victim = mixed.swap_remove(rng.below(mixed.len()));
                    heap.free(victim);
                    let _ = twin.free_at(victim as usize - base);
                }
                assert_eq!(heap.promoted_classes(), grown_to_a_huge_page(&twin));
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
            let promoted = heap.promoted_classes();
            assert_eq!(promoted & hot, u32::from(crossing.is_some()) * hot);
            // Cold classes stay cold, whatever else the heap does.
            let cold = heap.malloc(1000);
            let large = heap.malloc(3 << 20);
            assert!(!cold.is_null() && !large.is_null());
            assert_eq!(heap.promoted_classes(), promoted);
            for (i, &p) in ptrs.iter().enumerate() {
                // SAFETY: still live; written above.
                assert_eq!(unsafe { p.cast::<usize>().read() }, i + 1, "object {i}");
                heap.free(p);
            }
            heap.free(cold);
            heap.free(large);
            assert_eq!(heap.live_objects(), 0);
            assert_eq!(heap.promoted_classes(), promoted, "promotion is for life");
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
    /// busy, some past a growth step — the arena's resident memory is no
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
    /// objects the busiest classes have grown whole huge pages and been given
    /// them — every grown class exactly the whole huge pages of its range —
    /// and still nothing is resident beyond the active ranges: the advice
    /// covers `⌊active / 2 MB⌋` huge pages of each, so neither a first touch
    /// nor `khugepaged` can round a 2.5 MB range up to 4. (Under THP mode
    /// `always` the kernel backs the unadvised tails with huge pages unasked
    /// and the bound is the rounded one.)
    #[test]
    fn huge_pages_stay_inside_the_active_ranges_as_they_grow() {
        let (heap, resident, active) = churned_default_heap(50_000, 20_000);
        let shared = &heap.ready().unwrap().heap;
        let mut offered = 0;
        for class in SizeClass::all() {
            let partition = shared.partition(class);
            let range = partition.capacity() * class.object_size();
            let grown = partition.capacity() > shared.geometry().initial_capacity(class);
            let whole = range / sys::HUGE_PAGE * sys::HUGE_PAGE;
            let promoted = shared.promoted_classes() >> class.index() & 1 == 1;
            assert_eq!(promoted, grown && whole > 0, "class {}", class.index());
            offered += usize::from(grown) * whole;
        }
        assert!(offered >= 4 * sys::HUGE_PAGE, "{offered} B offered");
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        let rounded = thp.is_ok_and(|mode| mode.contains("[always]"));
        let bound = active + usize::from(rounded) * crate::size_class::NUM_CLASSES * sys::HUGE_PAGE;
        assert!(
            resident <= bound,
            "{resident} B resident outside {active} B of active ranges"
        );
    }

    /// `fork_prepare` holds every maintenance lock, and a promotion runs
    /// inside a growth step under its class's: so no promotion can begin or
    /// be mid-syscall inside a prepare/resume window, however the two race,
    /// and the locks balance either way. The worker holds enough 64 B
    /// objects live to take the class's first step past its 2 MB start,
    /// which collapses that huge page.
    #[test]
    fn fork_locks_balance_with_a_promotion_racing_them() {
        let heap = paper_elastic_heap(0xF02C);
        // Initialized up front, so every prepare takes the full lock set.
        let first = heap.malloc(64);
        assert!(!first.is_null());
        let hot = 1u32 << SizeClass::for_size(64).unwrap().index();
        let past_the_step = HeapConfig::paper_default().threshold_for(sys::HUGE_PAGE / 64) + 1;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let (heap, start) = (&heap, &start);
            let worker = scope.spawn(move || {
                start.wait();
                let held: Vec<*mut u8> = (0..past_the_step)
                    .map(|i| {
                        let p = heap.malloc(64);
                        assert!(!p.is_null());
                        // SAFETY: a live 64-byte object.
                        unsafe { p.cast::<usize>().write(i) };
                        p
                    })
                    .collect();
                for p in held {
                    heap.free(p);
                }
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
                });
            }
        });
        assert_eq!(heap.live_objects(), 0);
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
    /// thread holds objects from it, and both threads go on allocating and
    /// freeing through it at its new address. The state every object and
    /// every call is bound to never moved, so the books balance exactly.
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
                    turn.wait(); // holding objects: move the heap
                    turn.wait();
                }
                let heaps = heaps.read().unwrap();
                for p in held {
                    heaps[0].free(p as *mut u8);
                }
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
        assert_eq!(heaps[0].live_objects(), 0);
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
        let placed = AtomicU64::new(0);
        let spilled = AtomicU64::new(0);
        let misaligned_frees = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let heap = &heap;
                let placed = &placed;
                let spilled = &spilled;
                let misaligned_frees = &misaligned_frees;
                scope.spawn(move || {
                    let mut rng = crate::rng::Mwc::seeded(0xBEEF ^ t);
                    let mut live: Vec<*mut u8> = Vec::new();
                    for round in 0..ROUNDS {
                        // One allocation in every size class per round.
                        for shift in 0..12u32 {
                            let size = 8usize << shift;
                            let p = heap.malloc(size);
                            assert!(!p.is_null(), "a denial spills, never fails");
                            // SAFETY: live object of at least 8 bytes.
                            unsafe { p.write_bytes(t as u8, 8) };
                            live.push(p);
                            if heap.ready().unwrap().span_offset(p).is_none() {
                                // 1/M cap under 8-way pressure: a dedicated
                                // mapping, freed through the large table.
                                spilled.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            placed.fetch_add(1, Ordering::Relaxed);
                            // Erroneous free of an interior (misaligned)
                            // pointer: always ignored, counted exactly.
                            // SAFETY: p+1 stays within the live object.
                            heap.free(unsafe { p.add(1) });
                            misaligned_frees.fetch_add(1, Ordering::Relaxed);
                        }
                        // Erroneous frees outside the heap: ignored,
                        // uncounted (the large-object path owns them).
                        heap.free((0x10 + round) as *mut u8);
                        // §4.4 strcpy into a fresh small object, clamped
                        // (the 8 B class holds 65 536 live, never denied).
                        let dst = heap.malloc(8);
                        placed.fetch_add(1, Ordering::Relaxed);
                        let long = b"far longer than eight bytes\0";
                        // SAFETY: dst is live; src is NUL-terminated.
                        let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
                        assert_eq!(copied, 7, "strcpy must clamp to the object");
                        live.push(dst);
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
        assert!(
            heap.ready().unwrap().large.lock().is_empty(),
            "every spill was freed"
        );
        assert_eq!(stats.allocs, placed.load(Ordering::Relaxed) + 1);
        assert_eq!(stats.frees, stats.allocs, "each alloc freed exactly once");
        assert_eq!(
            stats.ignored_frees,
            misaligned_frees.load(Ordering::Relaxed) + 1,
            "ignored = per-thread misaligned frees + the quiescent double free"
        );
        assert_eq!(
            stats.exhausted,
            spilled.load(Ordering::Relaxed),
            "every spill was an at-threshold denial"
        );
    }
}
