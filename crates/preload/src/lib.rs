//! `libdiehard.so` — the paper's deployment story made real: an
//! `LD_PRELOAD` interposition library that replaces the C allocation ABI,
//! so *real, unmodified binaries* run on the DieHard randomized heap.
//!
//! ```sh
//! LD_PRELOAD=target/release/libdiehard.so some_unmodified_binary
//! DIEHARD_SEED=42 LD_PRELOAD=target/release/libdiehard.so cat /etc/hosts
//! ```
//!
//! Exported surface: `malloc`, `free`, `calloc`, `realloc`, `reallocarray`,
//! `posix_memalign`, `aligned_alloc`, `memalign`, `valloc`, `pvalloc`,
//! `malloc_usable_size`, `strdup`/`strndup` (duplicated onto the
//! randomized heap), and the paper's §4.4 bounded `strcpy`/`strncpy`. The
//! copies are `DieHard`'s: `strcpy`/`strncpy` call
//! [`DieHard::strcpy`]/[`DieHard::strncpy`] and return `dest` — one copy
//! routine, one object bound, and the §4.4 deviation from C stated once,
//! on [`DieHard::strncpy`]. The dups need no bound: they scan the source
//! once and copy it into a fresh object sized for it.
//! Everything is backed by one process-wide
//! [`DieHard`] heap built with
//! [`elastic_from_env`](diehard_core::global::DieHard::elastic_from_env):
//! classes start at `1/2^9` of their configured maximum
//! ([`DEFAULT_GROW_LOG2`]: 64 KiB of a 32 MB region, so a class is resident
//! in proportion to what is live in it) and grow under pressure, and a
//! denial at full size spills to a dedicated guard-paged mapping — `malloc`
//! returns null on genuine OOM or once the large-object table holds 4 096
//! live large objects and spills, never because a host program outgrew a
//! fixed region. `DIEHARD_SEED`, `DIEHARD_GROW`,
//! `DIEHARD_REGION_MB`, and `DIEHARD_M` are honored via
//! [`diehard_core::env`]'s audited parsers, which treat a value the heap
//! cannot be built with (`DIEHARD_REGION_MB=48`) as unset rather than
//! leaving every allocation to fail — the replication launcher's
//! per-replica `DIEHARD_SEED` lands exactly here.
//!
//! # `core` only, and no path to a panic
//!
//! The library links no `std` (`#![no_std]` outside its unit tests): every
//! replica of a voted connection loads it at `exec`, and `std`'s panic and
//! backtrace runtime — the unwinder, `gimli`, `addr2line` and the rest,
//! which `std`'s own unwind tables keep linked whatever a crate calls — was
//! 224 KiB of its 267 KiB of code, and its unwinder needed `libgcc_s.so.1`
//! or a static copy of it. Nor does it link `alloc`: nothing in it
//! allocates but through its own exports, so it defines no Rust allocator.
//! What is left is `libc.so.6` and the allocator (about 18 KiB of `.text`).
//!
//! Nothing an export, a `fork` hook or initialization runs can panic: every
//! failure has a defined outcome instead — null with `ENOMEM`, a spill, an
//! ignored free, a refused table insert — and a release build holds no
//! `core::panicking` or `core::fmt` code at all (CI reads it with `nm`). The
//! panic handler below is the backstop for none of it: it calls `abort`,
//! as every workspace profile's `panic = "abort"` has each binary do.
//!
//! Unlike `dlsym(RTLD_NEXT)`-style wrappers, this library does **not**
//! forward to the system allocator: its exports *are* the process's
//! `malloc` from the first instruction on (preloaded strong symbols win
//! every PLT resolution), so there is no "before interposition" window
//! for heap pointers to escape from.
//!
//! # Requires glibc ≥ 2.32
//!
//! The heap reads glibc's `__libc_single_threaded` (an undefined
//! `GLIBC_2.32` data symbol in `libdiehard.so`'s dynamic table, bound by
//! `ld.so` at load like every other libc import): while the host has one
//! thread — `cat`, `tr`, `grep`, `awk`, `sort --parallel=1` — the
//! allocator's read-modify-writes are plain loads and stores, which is what
//! glibc's own `malloc` does for such a host, with no thread-local lookup;
//! at the host's first `pthread_create` they become locked instructions,
//! and the re-entrancy flag below gives way to the locks' holder records
//! ([`diehard_core::sync`]).
//! Every call goes straight to the heap either way. Each call reads the
//! byte once. On an
//! older glibc the library fails to load
//! with an unresolved-symbol error instead of running. The symbol is
//! deliberately *not* looked up with `dlsym` during heap initialization to
//! soften that: `dlsym` can allocate, and would re-enter an allocator that
//! is mid-initialization.
//!
//! # Unsafe-surface audit
//!
//! The classic interposition traps, and how each is closed:
//!
//! * **Bootstrap allocations.** The dynamic loader and early libc can call
//!   `malloc` before the real heap can exist, and glibc re-enters `malloc`
//!   from inside our own machinery (growing the `pthread_atfork` handler
//!   list, TSD bookkeeping). Those requests are served from `arena`: a
//!   fixed 1 MB static bump region whose blocks carry a 16-byte size
//!   header. Arena blocks are recognized by address range — `free` on them
//!   is a no-op (the arena never recycles), `realloc` copies out of them
//!   by their header size, `malloc_usable_size` answers from the header.
//!   Arena exhaustion fails *re-entrant* requests with null — bounded,
//!   since only allocator-internal traffic lands there after startup.
//! * **Re-entrancy.** A call made inside another on the same thread (a
//!   signal handler's `malloc`) must not reach what the outer call is in
//!   the middle of. [`DieHard::alloc_guarded`]/[`DieHard::free_guarded`]
//!   tell it apart without a thread-local. While the host has one thread, a
//!   process-wide flag marks "inside the allocator", and every nested call
//!   is diverted — which is what lets the heap update its words with a load
//!   and a store. In a threaded host every update is a locked instruction
//!   that a nested call cannot tear, so only a call that needs what its own
//!   thread holds is diverted: the large-object table's lock, the heap
//!   being built (a class's growth lock answers it with a spill instead).
//!   A diverted `malloc` is served from the arena; a diverted `free` of a
//!   non-arena pointer is *dropped* and counted
//!   ([`reentrant_frees_dropped`]) — leaking a bounded number of blocks
//!   beats re-entering a heap mid-operation.
//! * **Foreign pointers.** `free`/`realloc` on pointers this allocator
//!   never produced (ld.so bootstrap blocks, another library's private
//!   arena) are detected by the heap's span check plus the large-object
//!   validity table and **ignored**, exactly like the paper's invalid
//!   frees (§4.3: "otherwise, it ignores the request"). A foreign
//!   `realloc` allocates fresh memory and copies nothing — the old
//!   block's length is unknowable, and the old block is left untouched.
//! * **Fork inheritance.** A `.init_array` constructor registers
//!   `pthread_atfork` handlers that wrap `fork(2)` in
//!   [`DieHard::fork_prepare`]/[`fork_resume`](DieHard::fork_resume):
//!   every allocator lock (twelve per-class maintenance locks →
//!   large-object table) is acquired in fixed order across the fork and
//!   released in both parent and child, so the child's single
//!   thread never inherits a lock frozen mid-critical-section, nor a heap
//!   half built by another thread (prepare builds the heap, or waits for
//!   the thread building it, before it locks). In-flight
//!   *lock-free* tickets in other threads can strand one slot of `1/M`
//!   allowance each in the child — availability, not corruption.
//! * **Alignment contract.** `malloc`/`calloc`/`realloc` return 16-byte
//!   aligned blocks (`max_align_t` on the 64-bit targets we build);
//!   requests below 16 bytes come from the 16-byte class. DieHard slots
//!   are naturally aligned to their power-of-two class size, so serving
//!   `max(size, align)` satisfies any power-of-two request; alignments
//!   beyond the largest class take the guard-paged large path.
//! * **`errno` discipline.** Allocation failure sets `ENOMEM`;
//!   `aligned_alloc` with a bad alignment sets `EINVAL`; `posix_memalign`
//!   reports by return value and leaves `errno` alone, per POSIX.
//!
//! What a C host meets of these contracts is checked from outside:
//! `tests/abi.rs` runs one seeded C script over all 15 exports (every size
//! class's edges, alignments up to 1 MB, overflowing products, a `fork`
//! whose child carries on, two threads, 110 000 large pairs) on glibc and
//! under this library, and requires the same transcript, under every knob
//! setting and seed. The ops where §4.3 and §4.4 answer otherwise than
//! glibc — ignored double, interior and foreign frees, copies clamped to
//! their object — run under this library only, each held to DieHard's
//! answer. This file's own tests hold each export to its contract from
//! inside the process, and reach what no C caller can stage: the arena and
//! the nested-call diversion.

#![cfg_attr(not(test), no_std)]

use core::alloc::Layout;
use core::ptr;
use core::sync::atomic::{AtomicUsize, Ordering};
use diehard_core::global::{page_size, DieHard, DEFAULT_GROW_LOG2};
use diehard_core::size_class::MAX_OBJECT_SIZE;
use libc::{c_char, c_int, c_void};

/// C ABI alignment floor: `max_align_t` is 16 on x86_64 and aarch64.
const MALLOC_ALIGN: usize = 16;

/// The process heap. Environment-configured, elastic by default — from
/// [`DEFAULT_GROW_LOG2`] when `DIEHARD_GROW` is unset. (The test build links
/// `std`, whose allocator reaches this heap through the exports.)
static HEAP: DieHard = DieHard::elastic_from_env(DEFAULT_GROW_LOG2);

/// A `no_std` library must name a panic handler, and this one is reached
/// by nothing in an optimized build (see the module docs). Were a panic to
/// happen, it could not unwind into a C caller, and nothing here could
/// recover from one, so it ends the process at once: `abort`, as
/// `panic = "abort"` has every workspace binary do.
#[cfg(not(test))]
#[panic_handler]
fn panic(_: &core::panic::PanicInfo<'_>) -> ! {
    // SAFETY: abort has no preconditions; it raises SIGABRT and never
    // returns.
    unsafe { libc::abort() }
}

/// Frees dropped because they arrived re-entrantly for non-arena pointers
/// (see the audit above): every nested free while the host has one thread,
/// and, threaded, a nested free of a large object while its thread holds
/// the large-object table. Diagnostic, read by tests.
static REENTRANT_FREES: AtomicUsize = AtomicUsize::new(0);

/// Frees dropped on the re-entrant path since process start.
pub fn reentrant_frees_dropped() -> usize {
    REENTRANT_FREES.load(Ordering::Relaxed)
}

// ---- bootstrap arena -----------------------------------------------------

mod arena {
    //! The static bump arena serving bootstrap and re-entrant requests.
    //!
    //! Blocks are carved off a fixed 1 MB `.bss` array by a CAS bump
    //! pointer and are never recycled: `free` recognizes the address range
    //! and does nothing. Each block is preceded by a 16-byte header whose
    //! first word is the block's capacity, so `realloc` and
    //! `malloc_usable_size` can answer without any lookup table.

    use core::cell::UnsafeCell;
    use core::ptr;
    use core::sync::atomic::{AtomicUsize, Ordering};

    const SIZE: usize = 1 << 20;
    const HEADER: usize = 16;

    #[repr(C, align(4096))]
    struct Backing(UnsafeCell<[u8; SIZE]>);

    // SAFETY: all mutation targets disjoint regions claimed through the
    // atomic bump pointer below; the cell is never borrowed as a whole.
    unsafe impl Sync for Backing {}

    static BACKING: Backing = Backing(UnsafeCell::new([0; SIZE]));
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    fn base() -> usize {
        BACKING.0.get() as usize
    }

    /// Bump-allocates `size` bytes at `align` (floored at 16). Null when
    /// the arena is exhausted — callers treat that as allocation failure.
    pub fn alloc(size: usize, align: usize) -> *mut u8 {
        let align = align.max(HEADER);
        loop {
            let cur = NEXT.load(Ordering::Relaxed);
            // The payload starts aligned, with room for its header before.
            let Some(payload) = (base() + cur + HEADER).checked_next_multiple_of(align) else {
                return ptr::null_mut();
            };
            let Some(end) = payload.checked_add(size.max(1)) else {
                return ptr::null_mut();
            };
            let end = end - base();
            if end > SIZE {
                return ptr::null_mut();
            }
            if NEXT
                .compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let capacity = base() + end - payload;
                // SAFETY: [payload - HEADER, base + end) was exclusively
                // claimed by the CAS; the header word lies within it.
                unsafe { ((payload - HEADER) as *mut usize).write(capacity) };
                return payload as *mut u8;
            }
        }
    }

    /// Whether `p` points into the arena's payload area.
    pub fn contains(p: *const u8) -> bool {
        let addr = p as usize;
        addr >= base() + HEADER && addr < base() + SIZE
    }

    /// Capacity of the arena block starting at `p`. Meaningful only for
    /// pointers [`alloc`] returned (C leaves `malloc_usable_size` on
    /// anything else undefined); clamped to the arena's own bounds so even
    /// a garbage header cannot send a caller past the backing array.
    pub fn block_size(p: *const u8) -> usize {
        debug_assert!(contains(p));
        let addr = p as usize;
        // SAFETY: contains(p) puts the 16-byte header inside the arena.
        let stored = unsafe { ((addr - HEADER) as *const usize).read() };
        stored.min(base() + SIZE - addr)
    }

    /// Bytes bump-allocated so far (diagnostics/tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn used() -> usize {
        NEXT.load(Ordering::Relaxed)
    }
}

// ---- shared allocation paths ---------------------------------------------

/// Sets this thread's `errno`.
fn set_errno(v: c_int) {
    // SAFETY: __errno_location returns the always-valid address of this
    // thread's errno.
    unsafe { *libc::__errno_location() = v };
}

/// `size` bytes at `align` (a power of two): size 0 is served as 1 byte
/// (glibc-style unique, freeable pointers), and failure — an unrepresentable
/// request included — returns null with `errno` untouched (callers decide
/// between `ENOMEM` and POSIX's return-value-only reporting). The `Layout`
/// is built here, inlined into each export, so `malloc`'s constant alignment
/// folds its check to one comparison; the rest is [`alloc_impl`]'s.
#[inline(always)]
fn allocate(size: usize, align: usize) -> *mut u8 {
    Layout::from_size_align(size.max(1), align).map_or(ptr::null_mut(), alloc_impl)
}

/// The one allocation funnel: re-entrant calls go to the arena. Out of
/// line, with [`DieHard::alloc_guarded`] inlined whole into it: every export
/// shares one copy of the path from the re-entrancy flag to the slot claim,
/// in each arm.
#[inline(never)]
fn alloc_impl(layout: Layout) -> *mut u8 {
    HEAP.alloc_guarded(layout, || arena::alloc(layout.size(), layout.align()))
}

/// Usable capacity of `p` wherever it lives: arena header, small-object
/// class size, or large-object user range. 0 for foreign pointers.
fn usable(p: *mut u8) -> usize {
    if p.is_null() {
        return 0;
    }
    if arena::contains(p) {
        return arena::block_size(p);
    }
    HEAP.usable_size(p)
}

/// Shared free path: arena blocks are a no-op, re-entrant frees of heap
/// pointers are dropped and counted, everything else takes the §4.3
/// validated path (which ignores foreign and invalid pointers). Out of
/// line, with [`DieHard::free_guarded`] inlined whole into it.
#[inline(never)]
fn free_impl(p: *mut u8) {
    if p.is_null() || arena::contains(p) {
        return;
    }
    HEAP.free_guarded(p, || {
        REENTRANT_FREES.fetch_add(1, Ordering::Relaxed);
    });
}

// ---- the C allocation ABI ------------------------------------------------

/// C `malloc(3)`: 16-byte-aligned randomized allocation; size 0 yields a
/// unique freeable pointer; null + `ENOMEM` on exhaustion.
#[no_mangle]
pub extern "C" fn malloc(size: usize) -> *mut c_void {
    let p = allocate(size, MALLOC_ALIGN);
    if p.is_null() {
        set_errno(libc::ENOMEM);
    }
    p.cast()
}

/// C `free(3)`: validated per §4.3 — null, foreign, interior, and double
/// frees are all ignored, never fatal.
#[no_mangle]
pub extern "C" fn free(ptr: *mut c_void) {
    free_impl(ptr.cast());
}

/// C `calloc(3)`: zeroed allocation; the `nmemb * size` product is
/// overflow-checked (null + `ENOMEM` on overflow — the historic calloc
/// hole).
#[no_mangle]
pub extern "C" fn calloc(nmemb: usize, size: usize) -> *mut c_void {
    let Some(total) = nmemb.checked_mul(size) else {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    };
    let p = allocate(total, MALLOC_ALIGN);
    if p.is_null() {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    }
    // Slots are recycled, so zeroing one is mandatory, not cosmetic. Past
    // the largest class the block is a fresh anonymous mapping (or fresh
    // arena bytes, which are never recycled either): the kernel zeroed it,
    // and writing the zeros again would fault in every page of it.
    if total <= MAX_OBJECT_SIZE {
        // SAFETY: the allocation above holds at least `total` bytes.
        unsafe { ptr::write_bytes(p, 0, total) };
    }
    p.cast()
}

/// C `realloc(3)`: `realloc(NULL, n)` ≡ `malloc(n)`; `realloc(p, 0)`
/// frees `p` and returns null (glibc semantics); a shrink (or a grow that
/// still fits the object's true capacity) returns `p` unchanged; on
/// failure the old block is untouched. A *foreign* `p` gets fresh memory
/// with nothing copied — its length is unknowable, and the §4.3 policy is
/// to never touch memory this heap does not own.
#[no_mangle]
pub extern "C" fn realloc(ptr: *mut c_void, size: usize) -> *mut c_void {
    let p = ptr.cast::<u8>();
    if p.is_null() {
        return malloc(size);
    }
    if size == 0 {
        free_impl(p);
        return ptr::null_mut();
    }
    let old = usable(p);
    if old >= size {
        return ptr;
    }
    let new = allocate(size, MALLOC_ALIGN);
    if new.is_null() {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    }
    if old > 0 {
        // SAFETY: `old` bytes are readable at p (its true capacity),
        // `size > old` bytes are writable at the fresh block, and the
        // blocks are distinct.
        unsafe { ptr::copy_nonoverlapping(p, new, old) };
        free_impl(p);
    }
    new.cast()
}

/// `reallocarray(3)`: overflow-checked `realloc(p, nmemb * size)`.
#[no_mangle]
pub extern "C" fn reallocarray(ptr: *mut c_void, nmemb: usize, size: usize) -> *mut c_void {
    let Some(total) = nmemb.checked_mul(size) else {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    };
    realloc(ptr, total)
}

/// POSIX `posix_memalign(3)`: reports by return value (`EINVAL` for a
/// non-power-of-two alignment or one that is not a multiple of
/// `sizeof(void *)`, `ENOMEM` on exhaustion) and leaves `errno` alone.
///
/// The C ABI hands us `memptr` as a raw out-parameter; like the rest of
/// the interposed surface this entry point cannot be `unsafe` at the
/// Rust level (C callers see only the symbol), so the store is guarded
/// by the null check and documented here instead.
#[allow(clippy::not_unsafe_ptr_arg_deref)]
#[no_mangle]
pub extern "C" fn posix_memalign(memptr: *mut *mut c_void, align: usize, size: usize) -> c_int {
    if memptr.is_null()
        || !align.is_power_of_two()
        || !align.is_multiple_of(core::mem::size_of::<*mut c_void>())
    {
        return libc::EINVAL;
    }
    let p = allocate(size, align.max(MALLOC_ALIGN));
    if p.is_null() {
        return libc::ENOMEM;
    }
    // SAFETY: memptr is non-null per the check above; the caller owns it.
    unsafe { *memptr = p.cast() };
    0
}

/// C11 `aligned_alloc(3)`: null + `EINVAL` for a non-power-of-two
/// alignment, null + `ENOMEM` on exhaustion. (Like glibc, the
/// `size % align == 0` clause is not enforced.)
#[no_mangle]
pub extern "C" fn aligned_alloc(align: usize, size: usize) -> *mut c_void {
    if !align.is_power_of_two() {
        set_errno(libc::EINVAL);
        return ptr::null_mut();
    }
    let p = allocate(size, align.max(MALLOC_ALIGN));
    if p.is_null() {
        set_errno(libc::ENOMEM);
    }
    p.cast()
}

/// Legacy `memalign(3)` — still emitted by real programs; serving it here
/// keeps their pointers on the randomized heap instead of splitting the
/// process across two allocators. The alignment is rounded up to a power of
/// two, as glibc does; one with no power of two to round to (above 2⁶³)
/// gets null + `EINVAL`, as glibc answers it.
#[no_mangle]
pub extern "C" fn memalign(align: usize, size: usize) -> *mut c_void {
    let Some(align) = align.max(1).checked_next_power_of_two() else {
        set_errno(libc::EINVAL);
        return ptr::null_mut();
    };
    aligned_alloc(align, size)
}

/// Legacy `valloc(3)`: page-aligned allocation.
#[no_mangle]
pub extern "C" fn valloc(size: usize) -> *mut c_void {
    aligned_alloc(page_size(), size)
}

/// Legacy `pvalloc(3)`, with glibc's semantics: page-aligned, the size
/// rounded up to whole pages (at least one), null + `ENOMEM` when the
/// rounding overflows. Served here so that `realloc` knows the block: a
/// pointer from the host's own allocator is foreign to it, and its contents
/// would not be copied.
#[no_mangle]
pub extern "C" fn pvalloc(size: usize) -> *mut c_void {
    let page = page_size();
    let Some(rounded) = size.max(1).checked_next_multiple_of(page) else {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    };
    aligned_alloc(page, rounded)
}

/// glibc `malloc_usable_size(3)`: the true capacity of a live block — the
/// §4.4 bound made queryable. 0 for null and foreign pointers.
#[no_mangle]
pub extern "C" fn malloc_usable_size(ptr: *mut c_void) -> usize {
    usable(ptr.cast())
}

// ---- §4.4 bounded string copies ------------------------------------------

/// C `strcpy(3)`: [`DieHard::strcpy`] — clamped to the object when `dest`
/// is in one, C's `strcpy` when it is not. Returns `dest`, like C.
///
/// # Safety
///
/// `src` must be NUL-terminated; for non-heap destinations `dest` must
/// have room for the full string, exactly as C requires.
#[no_mangle]
pub unsafe extern "C" fn strcpy(dest: *mut c_char, src: *const c_char) -> *mut c_char {
    // SAFETY: forwarded C contract.
    unsafe { HEAP.strcpy(dest.cast(), src.cast()) };
    dest
}

/// C `strncpy(3)`: [`DieHard::strncpy`] — clamped to the object when `dest`
/// is in one (the paper's one deviation from C is stated there), C's
/// `strncpy` when it is not. Returns `dest`.
///
/// # Safety
///
/// `src` must be readable up to `n` bytes or its terminator; for non-heap
/// destinations `dest` must hold `n` bytes, exactly as C requires.
#[no_mangle]
pub unsafe extern "C" fn strncpy(dest: *mut c_char, src: *const c_char, n: usize) -> *mut c_char {
    // SAFETY: forwarded C contract.
    unsafe { HEAP.strncpy(dest.cast(), src.cast(), n) };
    dest
}

/// Shared tail of `strdup`/`strndup`: `len + 1` fresh bytes, the `len`
/// scanned ones copied and the terminator written. The source is scanned
/// once, by the caller: a fresh object — heap or arena — holds at least
/// the `len + 1` bytes asked for, so there is no §4.4 bound to look up and
/// nothing for a bounded copy to rescan.
///
/// # Safety
///
/// `s` must be readable for `len` bytes.
unsafe fn dup_impl(s: *const c_char, len: usize) -> *mut c_char {
    let d = allocate(len.saturating_add(1), MALLOC_ALIGN);
    if d.is_null() {
        set_errno(libc::ENOMEM);
        return ptr::null_mut();
    }
    // SAFETY: `s` holds `len` bytes, `d` the `len + 1` just allocated, and
    // a fresh block cannot overlap its source.
    unsafe {
        ptr::copy_nonoverlapping(s.cast(), d, len);
        *d.add(len) = 0;
    }
    d.cast()
}

/// C `strdup(3)`: duplicates `s` onto the randomized heap — the copy gets
/// DieHard's placement, over-provisioning, and §4.3 free validation like
/// any `malloc`ed block. Null + `ENOMEM` on exhaustion.
///
/// # Safety
///
/// `s` must be NUL-terminated, exactly as C requires.
#[no_mangle]
pub unsafe extern "C" fn strdup(s: *const c_char) -> *mut c_char {
    // SAFETY: C contract: `s` is NUL-terminated, so its length is readable.
    unsafe { dup_impl(s, libc::strlen(s)) }
}

/// C `strndup(3)`: like [`strdup`] but copies at most `n` bytes of `s`
/// (the result is always NUL-terminated). The source scan stops at `n`,
/// so an unterminated buffer of at least `n` readable bytes is legal,
/// exactly as C requires.
///
/// # Safety
///
/// `s` must be readable up to `n` bytes or its NUL terminator.
#[no_mangle]
pub unsafe extern "C" fn strndup(s: *const c_char, n: usize) -> *mut c_char {
    // SAFETY: C contract: readable to `n` or the terminator, where the
    // scan stops.
    unsafe { dup_impl(s, libc::strnlen(s, n)) }
}

// ---- fork story ----------------------------------------------------------

extern "C" fn atfork_prepare() {
    HEAP.fork_prepare();
}

/// The parent's and the child's hook alike: each process releases the locks
/// [`atfork_prepare`] took.
extern "C" fn atfork_parent() {
    // SAFETY: paired with atfork_prepare via pthread_atfork: on this thread
    // in the parent, and in the child on the thread it forked from, whose
    // locks it inherits — exactly the set prepare took.
    unsafe { HEAP.fork_resume() };
}

extern "C" fn preload_init() {
    // glibc may grow its atfork-handler list with malloc here — that lands
    // on this very allocator, which is live from the first call.
    // SAFETY: plain fn pointers with the prescribed signatures.
    unsafe {
        libc::pthread_atfork(
            Some(atfork_prepare),
            Some(atfork_parent),
            Some(atfork_parent),
        )
    };
}

/// Runs [`preload_init`] at load time, before `main` (and before any
/// user-code `fork`).
#[used]
#[link_section = ".init_array"]
static PRELOAD_CTOR: extern "C" fn() = preload_init;

#[cfg(test)]
mod tests {
    //! Live-fire tests: the `#[no_mangle]` exports above replace the C
    //! allocator *of this test binary itself* (strong symbols beat glibc's
    //! weak ones), so the harness, the `std` runtime, and every assertion
    //! below already run on the DieHard heap — the assertions just make
    //! the contract explicit.

    use super::*;
    use std::hint::black_box as bb;

    // LLVM treats calls to symbols named `malloc`, `calloc`, `strcpy`, …
    // as the C builtins they interpose: an unused huge `calloc` gets
    // elided (and assumed successful, i.e. non-null), a `strcpy` from a
    // string literal gets folded to `memcpy`. Host binaries compiled at
    // -O2 carry the same folds and that is fine — the folds implement the
    // same contract — but *these* tests exist to execute our bodies, so
    // every call goes through a `black_box`ed function pointer that hides
    // the callee's identity from the optimizer. The local definitions
    // shadow the glob-imported `super::*` items of the same names.
    fn malloc(n: usize) -> *mut c_void {
        bb(super::malloc as extern "C" fn(usize) -> *mut c_void)(n)
    }
    fn free(p: *mut c_void) {
        bb(super::free as extern "C" fn(*mut c_void))(p)
    }
    fn calloc(n: usize, s: usize) -> *mut c_void {
        bb(super::calloc as extern "C" fn(usize, usize) -> *mut c_void)(n, s)
    }
    fn realloc(p: *mut c_void, n: usize) -> *mut c_void {
        bb(super::realloc as extern "C" fn(*mut c_void, usize) -> *mut c_void)(p, n)
    }
    fn reallocarray(p: *mut c_void, n: usize, s: usize) -> *mut c_void {
        bb(super::reallocarray as extern "C" fn(*mut c_void, usize, usize) -> *mut c_void)(p, n, s)
    }
    fn posix_memalign(out: *mut *mut c_void, a: usize, s: usize) -> c_int {
        bb(super::posix_memalign as extern "C" fn(*mut *mut c_void, usize, usize) -> c_int)(
            out, a, s,
        )
    }
    fn aligned_alloc(a: usize, s: usize) -> *mut c_void {
        bb(super::aligned_alloc as extern "C" fn(usize, usize) -> *mut c_void)(a, s)
    }
    fn memalign(a: usize, s: usize) -> *mut c_void {
        bb(super::memalign as extern "C" fn(usize, usize) -> *mut c_void)(a, s)
    }
    fn valloc(s: usize) -> *mut c_void {
        bb(super::valloc as extern "C" fn(usize) -> *mut c_void)(s)
    }
    fn pvalloc(s: usize) -> *mut c_void {
        bb(super::pvalloc as extern "C" fn(usize) -> *mut c_void)(s)
    }
    fn malloc_usable_size(p: *mut c_void) -> usize {
        bb(super::malloc_usable_size as extern "C" fn(*mut c_void) -> usize)(p)
    }
    unsafe fn strcpy(d: *mut c_char, s: *const c_char) -> *mut c_char {
        // SAFETY: forwarded caller contract.
        unsafe {
            bb(super::strcpy as unsafe extern "C" fn(*mut c_char, *const c_char) -> *mut c_char)(
                d, s,
            )
        }
    }
    unsafe fn strncpy(d: *mut c_char, s: *const c_char, n: usize) -> *mut c_char {
        // SAFETY: forwarded caller contract.
        unsafe {
            bb(super::strncpy
                as unsafe extern "C" fn(*mut c_char, *const c_char, usize) -> *mut c_char)(
                d, s, n
            )
        }
    }
    unsafe fn strdup(s: *const c_char) -> *mut c_char {
        // SAFETY: forwarded caller contract.
        unsafe { bb(super::strdup as unsafe extern "C" fn(*const c_char) -> *mut c_char)(s) }
    }
    unsafe fn strndup(s: *const c_char, n: usize) -> *mut c_char {
        // SAFETY: forwarded caller contract.
        unsafe {
            bb(super::strndup as unsafe extern "C" fn(*const c_char, usize) -> *mut c_char)(s, n)
        }
    }

    fn errno() -> c_int {
        // SAFETY: always-valid thread-local address.
        unsafe { *libc::__errno_location() }
    }

    #[test]
    fn malloc_is_sixteen_aligned_and_writable() {
        for size in [1usize, 8, 24, 100, 4096, 20_000] {
            let p = malloc(size).cast::<u8>();
            assert!(!p.is_null());
            assert_eq!(p as usize % MALLOC_ALIGN, 0, "size {size}");
            let cap = malloc_usable_size(p.cast());
            assert!(cap >= size, "usable {cap} < requested {size}");
            // SAFETY: cap bytes are ours to write.
            unsafe {
                p.write_bytes(0xA5, cap);
                assert_eq!(*p.add(cap - 1), 0xA5);
            }
            free(p.cast());
        }
    }

    #[test]
    fn malloc_zero_returns_unique_freeable_pointers() {
        let a = malloc(0);
        let b = malloc(0);
        assert!(!a.is_null() && !b.is_null(), "glibc-style non-null");
        assert_ne!(a, b, "distinct objects");
        free(a);
        free(b);
    }

    #[test]
    fn free_ignores_null_foreign_and_double() {
        free(ptr::null_mut());
        let stack_var = 7u64;
        free(ptr::from_ref(&stack_var).cast_mut().cast()); // stack pointer
        free(0xDEAD_0000usize as *mut c_void); // wild pointer
        let p = malloc(64);
        free(p);
        free(p); // double free: ignored, not fatal
    }

    #[test]
    fn calloc_zeroes_recycled_memory() {
        // Dirty a block, free it, then calloc until the recycled slot
        // comes back — it must read as zero regardless.
        let p = malloc(256).cast::<u8>();
        // SAFETY: live 256-byte object.
        unsafe { p.write_bytes(0xFF, 256) };
        free(p.cast());
        for _ in 0..64 {
            let q = calloc(16, 16).cast::<u8>();
            assert!(!q.is_null());
            // SAFETY: live 256-byte object.
            unsafe {
                for i in 0..256 {
                    assert_eq!(*q.add(i), 0, "calloc must zero byte {i}");
                }
            }
            free(q.cast());
        }
    }

    /// A `calloc` past the largest class is a fresh mapping the kernel has
    /// zeroed, so it is handed out unwritten: 64 MiB of zeros, almost none
    /// of it resident (`mincore`, before anything reads it). Zeroing it
    /// again faulted in all 64 MiB — 69 MB resident and 12 ms, where glibc
    /// reads 1.5 MB and 0.01 ms.
    #[test]
    fn large_calloc_is_zero_without_being_written() {
        const LEN: usize = 64 << 20;
        let p = calloc(64, 1 << 20).cast::<u8>();
        assert!(!p.is_null());
        // SAFETY: sysconf has no preconditions.
        let page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        let mut pages = vec![0u8; LEN / page];
        // SAFETY: a large object starts on a page and maps at least LEN
        // bytes; one byte of `pages` per page of it.
        let rc = unsafe { libc::mincore(p.cast(), LEN, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore over the object");
        let resident = pages.iter().filter(|&&b| b & 1 != 0).count() * page;
        assert!(
            resident <= LEN / 16,
            "{resident} B of a {LEN} B calloc resident"
        );
        for off in (0..LEN).step_by(page * 97) {
            // SAFETY: inside the live object.
            assert_eq!(unsafe { *p.add(off) }, 0, "byte {off}");
        }
        free(p.cast());
    }

    #[test]
    fn calloc_multiplication_overflow_is_enomem() {
        set_errno(0);
        let p = calloc(usize::MAX / 8, 16);
        assert!(p.is_null());
        assert_eq!(errno(), libc::ENOMEM);
    }

    #[test]
    fn realloc_null_and_zero_edges() {
        // realloc(NULL, n) == malloc(n)
        let p = realloc(ptr::null_mut(), 100);
        assert!(!p.is_null());
        assert!(malloc_usable_size(p) >= 100);
        // realloc(p, 0) frees and returns null
        assert!(realloc(p, 0).is_null());
    }

    #[test]
    fn realloc_preserves_contents_and_shrinks_in_place() {
        let p = malloc(100).cast::<u8>();
        // SAFETY: live 100-byte object.
        unsafe {
            for i in 0..100 {
                *p.add(i) = i as u8;
            }
        }
        // Shrink: fits the true capacity, so the pointer is unchanged.
        let same = realloc(p.cast(), 10);
        assert_eq!(same.cast::<u8>(), p);
        // Grow beyond the 128-byte class: new block, contents preserved.
        let big = realloc(same, 5000).cast::<u8>();
        assert!(!big.is_null());
        // SAFETY: live 5000-byte object holding the copied prefix.
        unsafe {
            for i in 0..100 {
                assert_eq!(*big.add(i), i as u8, "byte {i} lost in realloc");
            }
        }
        free(big.cast());
    }

    #[test]
    fn reallocarray_checks_overflow() {
        set_errno(0);
        assert!(reallocarray(ptr::null_mut(), usize::MAX / 2, 4).is_null());
        assert_eq!(errno(), libc::ENOMEM);
        let p = reallocarray(ptr::null_mut(), 25, 4);
        assert!(!p.is_null());
        assert!(malloc_usable_size(p) >= 100);
        free(p);
    }

    #[test]
    fn posix_memalign_contract() {
        let mut out: *mut c_void = ptr::null_mut();
        // Non-power-of-two and sub-pointer alignments: EINVAL by return.
        assert_eq!(posix_memalign(&raw mut out, 24, 64), libc::EINVAL);
        assert_eq!(posix_memalign(&raw mut out, 2, 64), libc::EINVAL);
        assert_eq!(posix_memalign(ptr::null_mut(), 16, 64), libc::EINVAL);
        // Valid alignments, including beyond-page ones.
        for align in [8usize, 64, 4096, 1 << 16] {
            let rc = posix_memalign(&raw mut out, align, 200);
            assert_eq!(rc, 0, "align {align}");
            assert_eq!(out as usize % align, 0);
            // SAFETY: live 200-byte object.
            unsafe { out.cast::<u8>().write_bytes(1, 200) };
            free(out);
        }
    }

    #[test]
    fn aligned_alloc_sets_einval_on_bad_alignment() {
        set_errno(0);
        assert!(aligned_alloc(24, 64).is_null());
        assert_eq!(errno(), libc::EINVAL);
        let p = aligned_alloc(256, 300);
        assert!(!p.is_null());
        assert_eq!(p as usize % 256, 0);
        free(p);
    }

    /// An alignment above 2⁶³ has no power of two to round up to: null +
    /// `EINVAL`, as glibc answers. Rounding it with `next_power_of_two`
    /// overflowed, which panics inside the export in a debug build — and a
    /// panic cannot unwind out of an `extern "C"` function, so this test
    /// binary aborted — and wrapped to alignment 0 in a release build.
    #[test]
    fn memalign_refuses_an_alignment_with_no_power_of_two() {
        for align in [(1usize << 63) + 1, usize::MAX] {
            set_errno(0);
            assert!(memalign(align, 64).is_null(), "align {align:#x}");
            assert_eq!(errno(), libc::EINVAL, "align {align:#x}");
        }
        let p = memalign(1 << 63, 64);
        assert!(p.is_null(), "2^63 is a power of two, but no mapping has it");
        assert_eq!(errno(), libc::ENOMEM);
    }

    #[test]
    fn memalign_and_valloc_serve_aligned_blocks() {
        let p = memalign(64, 100);
        assert!(!p.is_null());
        assert_eq!(p as usize % 64, 0);
        free(p);
        let v = valloc(100);
        assert!(!v.is_null());
        assert_eq!(v as usize % 4096, 0);
        free(v);
    }

    #[test]
    fn pvalloc_serves_whole_pages_that_realloc_knows() {
        for (size, pages) in [(0, 1), (100, 1), (4096, 1), (4097, 2)] {
            let p = pvalloc(size);
            assert!(!p.is_null(), "size {size}");
            assert_eq!(p as usize % 4096, 0, "size {size}");
            assert!(malloc_usable_size(p) >= pages * 4096, "size {size}");
            free(p);
        }
        let kept = c"kept";
        let p = pvalloc(100).cast::<c_char>();
        // SAFETY: a live heap block of at least 100 bytes; `kept` is
        // NUL-terminated.
        unsafe { strcpy(p, kept.as_ptr()) };
        let q = realloc(p.cast(), 100_000).cast::<c_char>();
        assert!(!q.is_null());
        // SAFETY: the moved block holds the terminated string copied.
        assert_eq!(unsafe { std::ffi::CStr::from_ptr(q) }, kept);
        free(q.cast());
        set_errno(0);
        assert!(
            pvalloc(usize::MAX - 100).is_null(),
            "the rounding overflows"
        );
        assert_eq!(errno(), libc::ENOMEM);
    }

    #[test]
    fn usable_size_answers_zero_for_foreign_pointers() {
        assert_eq!(malloc_usable_size(ptr::null_mut()), 0);
        let stack_var = 0u8;
        assert_eq!(
            malloc_usable_size(ptr::from_ref(&stack_var).cast_mut().cast()),
            0
        );
    }

    #[test]
    fn strcpy_clamps_to_the_heap_object() {
        let dst = malloc(8).cast::<c_char>();
        let neighbor = malloc(8).cast::<u8>();
        assert!(!dst.is_null() && !neighbor.is_null());
        // SAFETY: live 8-byte object.
        unsafe { neighbor.write_bytes(0x5A, 8) };
        let long = b"far longer than eight bytes\0";
        // SAFETY: dst is a live heap object; src is NUL-terminated.
        let back = unsafe { strcpy(dst, long.as_ptr().cast()) };
        assert_eq!(back, dst, "C contract: returns dest");
        let space = malloc_usable_size(dst.cast());
        assert!(space >= 8, "8-byte request, at least the 16-byte class");
        // SAFETY: both objects are live; `space` is dst's true capacity.
        unsafe {
            assert_eq!(
                *dst.cast::<u8>().add(space - 1),
                0,
                "terminated at the object bound"
            );
            for i in 0..8 {
                assert_eq!(*neighbor.add(i), 0x5A, "neighbor byte {i} corrupted");
            }
        }
        free(dst.cast());
        free(neighbor.cast());
    }

    #[test]
    fn strcpy_keeps_c_semantics_off_heap() {
        let mut buf = [0xAAu8; 16];
        // SAFETY: buf has room for the 5 + NUL source, per C contract.
        unsafe { strcpy(buf.as_mut_ptr().cast(), c"hello".as_ptr().cast()) };
        assert_eq!(&buf[..6], b"hello\0");
        assert_eq!(buf[6], 0xAA, "no bytes written past the terminator");
    }

    #[test]
    fn strncpy_pads_and_clamps() {
        // Off-heap: exact C semantics — copy then zero-pad to n.
        let mut buf = [0xAAu8; 10];
        // SAFETY: buf holds n = 8 bytes, per C contract.
        unsafe { strncpy(buf.as_mut_ptr().cast(), c"ab".as_ptr().cast(), 8) };
        assert_eq!(&buf[..8], b"ab\0\0\0\0\0\0");
        assert_eq!(buf[8], 0xAA, "n bytes exactly");
        // On-heap with a lying n: clamped to the object's true capacity.
        let dst = malloc(8).cast::<c_char>();
        let space = malloc_usable_size(dst.cast());
        let mut long = [b'a'; 64];
        long[63] = 0;
        // SAFETY: dst is a live heap object; src is readable to n or NUL.
        unsafe { strncpy(dst, long.as_ptr().cast(), 1 << 20) };
        // SAFETY: live object; the last in-bounds byte is the terminator.
        unsafe { assert_eq!(*dst.cast::<u8>().add(space - 1), 0) };
        free(dst.cast());
    }

    #[test]
    fn strdup_lands_on_the_randomized_heap() {
        // SAFETY: literal is NUL-terminated.
        let p = unsafe { strdup(c"hello, diehard".as_ptr()) };
        assert!(!p.is_null());
        let cap = malloc_usable_size(p.cast());
        assert!(cap >= 15, "room for the string and its terminator");
        // SAFETY: live heap object holding the copy.
        unsafe {
            for (i, &b) in b"hello, diehard\0".iter().enumerate() {
                assert_eq!(*p.cast::<u8>().add(i), b, "byte {i}");
            }
            // The duplicate is a first-class heap block: writable to its
            // full capacity and freeable like any malloc'd pointer.
            p.cast::<u8>().write_bytes(0x42, cap);
        }
        free(p.cast());
        free(p.cast()); // double free of the dup: ignored per §4.3
    }

    #[test]
    fn strdup_empty_string() {
        // SAFETY: literal is NUL-terminated.
        let p = unsafe { strdup(c"".as_ptr()) };
        assert!(!p.is_null(), "empty dup is a real, freeable object");
        // SAFETY: live object of at least 1 byte.
        unsafe { assert_eq!(*p.cast::<u8>(), 0) };
        free(p.cast());
    }

    #[test]
    fn strndup_clamps_to_n_and_terminates() {
        // SAFETY: literal is NUL-terminated; n = 3 < strlen.
        let p = unsafe { strndup(c"abcdef".as_ptr(), 3) };
        assert!(!p.is_null());
        // SAFETY: live object holding "abc\0".
        unsafe {
            assert_eq!(*p.cast::<u8>(), b'a');
            assert_eq!(*p.cast::<u8>().add(2), b'c');
            assert_eq!(*p.cast::<u8>().add(3), 0, "always NUL-terminated");
        }
        free(p.cast());
        // n beyond strlen: full copy, nothing read past the terminator.
        // SAFETY: literal is NUL-terminated.
        let q = unsafe { strndup(c"xy".as_ptr(), 1 << 20) };
        // SAFETY: live object holding "xy\0".
        unsafe {
            assert_eq!(*q.cast::<u8>().add(1), b'y');
            assert_eq!(*q.cast::<u8>().add(2), 0);
        }
        free(q.cast());
    }

    #[test]
    fn strndup_never_reads_past_n_on_unterminated_buffers() {
        // An unterminated source: only n bytes are readable, exactly the
        // C contract strndup must honor.
        let raw = [b'z'; 8]; // no NUL anywhere
                             // SAFETY: 8 bytes readable, n = 8.
        let p = unsafe { strndup(raw.as_ptr().cast(), raw.len()) };
        assert!(!p.is_null());
        // SAFETY: live object holding "zzzzzzzz\0".
        unsafe {
            for i in 0..8 {
                assert_eq!(*p.cast::<u8>().add(i), b'z', "byte {i}");
            }
            assert_eq!(*p.cast::<u8>().add(8), 0);
        }
        assert!(malloc_usable_size(p.cast()) >= 9);
        free(p.cast());
    }

    /// A request past the largest class: it needs the large-object table.
    const LARGE: usize = 20_000;

    /// A call nested inside one that holds the large-object table is served
    /// from the arena, and a nested free of a large object is dropped and
    /// counted. The test binary is threaded, so nothing but the lock's
    /// holder tells the nested call apart; the outer call is staged with
    /// the hooks a `fork` runs, which hold every allocator lock.
    #[test]
    fn arena_serves_reentrant_requests() {
        let kept = malloc(LARGE).cast::<u8>();
        assert!(!kept.is_null() && !arena::contains(kept));
        let (before, dropped) = (arena::used(), reentrant_frees_dropped());
        atfork_prepare();
        let p = allocate(LARGE, MALLOC_ALIGN);
        free(kept.cast());
        let kept_size = malloc_usable_size(kept.cast());
        atfork_parent();
        assert!(!p.is_null());
        assert!(arena::contains(p), "the nested request hits the arena");
        assert!(arena::used() > before);
        assert!(arena::block_size(p) >= LARGE);
        assert!(malloc_usable_size(p.cast()) >= LARGE);
        assert_eq!(reentrant_frees_dropped(), dropped + 1, "the nested free");
        assert_eq!(kept_size, 0, "a nested lookup knows no large object");
        assert!(malloc_usable_size(kept.cast()) >= LARGE, "still live");
        free(kept.cast());
        // SAFETY: live arena block of at least LARGE bytes.
        unsafe { p.write_bytes(0x3C, LARGE) };
        // Freeing is a no-op by address recognition, and must not crash.
        free(p.cast());
        // A realloc out of the arena copies by the header size.
        let grown = realloc(p.cast(), 2 * LARGE).cast::<u8>();
        assert!(!grown.is_null());
        assert!(!arena::contains(grown), "the copy lives on the real heap");
        // SAFETY: live object holding the copied prefix.
        unsafe { assert_eq!(*grown.add(LARGE - 1), 0x3C) };
        free(grown.cast());
    }

    /// Only the holder's own nested calls are diverted: while one thread
    /// holds the allocator's locks, another thread's large request is no
    /// nested call — it waits for the table and lands on the heap.
    #[test]
    fn reentrancy_flag_is_per_thread() {
        let holding = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                holding.wait();
                // Pointers cross the join as addresses (raw pointers are
                // not Send).
                malloc(LARGE) as usize
            });
            atfork_prepare();
            holding.wait();
            let nested = allocate(LARGE, MALLOC_ALIGN);
            // Long enough for the other request to reach the held table.
            std::thread::sleep(std::time::Duration::from_millis(20));
            atfork_parent();
            assert!(arena::contains(nested), "the holder's own request");
            let p = other.join().unwrap() as *mut u8;
            assert!(
                !p.is_null() && !arena::contains(p),
                "the other lands on the heap"
            );
            assert!(HEAP.usable_size(p) >= LARGE, "a live heap object");
            free(p.cast());
        });
    }

    #[test]
    fn fork_child_inherits_a_usable_heap() {
        // Warm the heap (and its locks) in the parent first.
        let warm = malloc(1000);
        assert!(!warm.is_null());
        // SAFETY: fork in a test binary; the child only touches the
        // allocator and _exit (no stdio, no harness teardown).
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // Child: the atfork hooks released the inherited locks; the
            // heap must serve allocations immediately.
            for i in 0..200usize {
                let q = malloc(8 + (i * 37) % 2000).cast::<u8>();
                if q.is_null() {
                    // SAFETY: child exit, no cleanup wanted.
                    unsafe { libc::_exit(1) };
                }
                // SAFETY: live object of at least 8 bytes.
                unsafe { q.write_bytes(0x77, 8) };
                free(q.cast());
            }
            // SAFETY: child exit, no cleanup wanted.
            unsafe { libc::_exit(0) };
        }
        let mut status: c_int = -1;
        // SAFETY: pid is our direct child.
        let waited = unsafe { libc::waitpid(pid, &raw mut status, 0) };
        assert_eq!(waited, pid);
        assert_eq!(status, 0, "child exited cleanly on the inherited heap");
        free(warm);
    }

    /// The large-object table holds 4 096 live objects; the next large
    /// request finds it full, and its refused insert is a `malloc` that
    /// returns null with `ENOMEM` — no panic, no lost mapping — until a
    /// large object is freed. In a fork child, so that no other test's large
    /// object competes for the table while it is full.
    #[test]
    fn a_full_large_table_is_null_and_enomem() {
        // SAFETY: fork in a test binary; the child only touches the
        // allocator and _exit (no stdio, no harness teardown).
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            let mut held = [ptr::null_mut::<c_void>(); 4097];
            let mut n = 0;
            while n < held.len() {
                set_errno(0);
                held[n] = malloc(LARGE);
                if held[n].is_null() {
                    break;
                }
                n += 1;
            }
            let refused = n > 0 && n <= 4096 && errno() == libc::ENOMEM;
            free(held[0]);
            let again = malloc(LARGE);
            let code = if !refused {
                1
            } else if again.is_null() {
                2
            } else {
                0
            };
            // SAFETY: child exit, no cleanup wanted.
            unsafe { libc::_exit(code) };
        }
        let mut status: c_int = -1;
        // SAFETY: pid is our direct child.
        let waited = unsafe { libc::waitpid(pid, &raw mut status, 0) };
        assert_eq!(waited, pid);
        assert_eq!(
            status, 0,
            "exit 1: no null with ENOMEM; 2: no room after a free"
        );
    }

    #[test]
    fn concurrent_churn_through_the_c_abi() {
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                scope.spawn(move || {
                    let mut live: Vec<*mut c_void> = Vec::new();
                    for i in 0..400usize {
                        let p = malloc(8 + (usize::from(t) * 97 + i) % 2000);
                        assert!(!p.is_null());
                        // SAFETY: live object of at least 8 bytes.
                        unsafe { p.cast::<u8>().write_bytes(t, 8) };
                        live.push(p);
                        if live.len() > 40 {
                            free(live.swap_remove(0));
                        }
                    }
                    for p in live {
                        free(p);
                    }
                });
            }
        });
    }
}
