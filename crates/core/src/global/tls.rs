//! The re-entrancy flag of `libdiehard.so`'s entry points, and the one read
//! of the thread count that decides where it lives.
//!
//! An interposed `malloc` or `free` must know whether it was called from
//! inside another one (glibc's own bookkeeping, a signal handler), because
//! the heap's updates are not re-entrant: such a call is diverted before it
//! reaches the heap. The flag that says so is per thread, and it must be
//! reachable from inside `malloc` itself, which rules out almost every
//! convenient option:
//!
//! * **`std` lazy TLS (`thread_local!` with a `Drop` type)** registers its
//!   destructor through `__cxa_thread_atexit_impl`, which **allocates**
//!   (glibc `calloc`s the dtor list) — re-entering the allocator that is
//!   mid-initialization. Rejected.
//! * **`#[thread_local]`** would be exactly right but is unstable.
//! * **`pthread_getspecific`** costs a call per allocation. Rejected for the
//!   hot path.
//!
//! What stable Rust *does* lower to plain ELF TLS is `thread_local!` with a
//! `const` initializer and a type that `!needs_drop` — no lazy-init state,
//! no destructor registration, no allocation, ever. So the flag is exactly
//! that: one `const`-initialized `Cell<bool>`. Nothing else is per thread:
//! every call reaches the heap the same way, and a thread that exits leaves
//! nothing behind to settle.
//!
//! # Why a process with one thread uses no TLS
//!
//! A shared object's TLS costs a `__tls_get_addr` call per lookup — 24
//! instructions a `malloc`/`free` pair in `ld.so` and its PLT stub, plus the
//! call sites (`crates/preload/tests/instructions.rs` counts them) — and a
//! single-threaded host gets nothing for it: only one thread can be in the
//! allocator. So every guarded call reads the thread count once, first
//! ([`guarded`]): while glibc's `__libc_single_threaded` says the process
//! has one thread, the flag is a process-wide static, and the same read
//! makes every word update of the call a plain load and store
//! (`crate::sync`). Such a call leaves nothing behind but the heap itself,
//! so when the process gains a thread nothing is handed over: from the next
//! call on, each thread uses its own flag. Every host in the repository's
//! benchmark has one thread.

use crate::sync::sole_thread;
use core::cell::Cell;
use core::ptr;
use core::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    /// "This thread is inside the allocator": set by [`guarded`] around the
    /// interposer's entries, so a `malloc` issued from inside one is told it
    /// re-entered. `const`-initialized and `!needs_drop` (module docs).
    static ENTERED: Cell<bool> = const { Cell::new(false) };
}

/// The re-entrancy flag of a process with one thread: [`ENTERED`], kept
/// process-wide because while the process has one thread the process *is*
/// that thread. Relaxed loads and stores, plain `mov`s.
static ENTERED_ALONE: AtomicBool = AtomicBool::new(false);

/// Runs this call's arm with its re-entrancy flag set, telling it whether
/// the flag was already set (i.e. this call re-entered the allocator): the
/// one read of the thread count picks `alone` — the flag is
/// [`ENTERED_ALONE`], no thread-local is looked up, and the heap's updates
/// are plain loads and stores — or `threaded` — this thread's [`ENTERED`],
/// looked up once, and locked instructions. Two closures, each called once,
/// so each is inlined with its answer known.
#[inline(always)]
pub(super) fn guarded<R>(alone: impl FnOnce(bool) -> R, threaded: impl FnOnce(bool) -> R) -> R {
    if sole_thread() {
        let reentered = ENTERED_ALONE.load(Ordering::Relaxed);
        ENTERED_ALONE.store(true, Ordering::Relaxed);
        let r = alone(reentered);
        ENTERED_ALONE.store(reentered, Ordering::Relaxed);
        r
    } else {
        // The closure handed to `LocalKey::with` only returns the address,
        // so that call inlines whatever `threaded` is.
        let flag = ENTERED.with(ptr::from_ref);
        // SAFETY: `ENTERED` is const-initialized and `!needs_drop`, i.e.
        // plain ELF TLS: it sits at this address, initialized, for as long
        // as this thread runs, and the borrow ends on this thread before
        // `guarded` returns (`Cell` is not `Sync`).
        let flag = unsafe { &*flag };
        let reentered = flag.replace(true);
        let r = threaded(reentered);
        flag.set(reentered);
        r
    }
}
