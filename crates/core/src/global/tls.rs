//! How `libdiehard.so`'s entry points tell a nested call from an outermost
//! one, and the one read of the thread count that decides how.
//!
//! An interposed `malloc` or `free` can be called from inside another one
//! on the same thread — a signal handler interrupting it — and the heap's
//! updates are not all re-entrant. Which ones are not depends on the arm
//! the call's one read of the thread count picked ([`guarded`]):
//!
//! * **Alone** (glibc's `__libc_single_threaded` reads 1), every word update
//!   of the call is a plain load and a store (`crate::sync`), and a nested
//!   call landing between the two would lose one of them. So the call sets
//!   a process-wide flag, [`ENTERED_ALONE`] — while the process has one
//!   thread the process *is* that thread — and a call that finds it set is
//!   nested: it is diverted before it reaches the heap. No thread-local is
//!   looked up: a shared object's TLS costs a `__tls_get_addr` call per
//!   lookup, and only one thread can be in the allocator.
//! * **Threaded**, every update is already an atomic read-modify-write, so
//!   a nested call on the same thread is no different from another thread
//!   running between two instructions, which the lock-free protocol is
//!   built for. It can only hang where it waits for something its own
//!   thread holds: a class's maintenance lock, the large-object table's
//!   lock, or the heap being built. Those record their holder
//!   ([`current_thread`]), and a call that finds its own thread there is
//!   answered at once — `DieHard` serves it another way or ignores it. So
//!   there is no flag and no per-thread state: the threaded arm carries
//!   nothing per call but the call itself.
//!
//! Such a call leaves nothing behind but the heap, so when the process
//! gains a thread nothing is handed over, and a thread that exits leaves
//! nothing to settle. Every host in the repository's benchmark has one
//! thread.

use crate::sync::sole_thread;
use core::sync::atomic::{AtomicBool, Ordering};

/// The re-entrancy flag of a process with one thread: set by [`guarded`]
/// around the interposer's entries while the process is alone, so a
/// `malloc` issued from inside one is told it re-entered. Relaxed loads and
/// stores, plain `mov`s.
static ENTERED_ALONE: AtomicBool = AtomicBool::new(false);

/// Runs this call's arm: the one read of the thread count picks `alone` —
/// told whether the flag was already set (this call re-entered the
/// allocator), with the flag set for its duration, and the heap's updates
/// plain loads and stores — or `threaded`, with no flag and locked
/// instructions. Two closures, each called once, so each is inlined with
/// its answer known.
#[inline(always)]
pub(super) fn guarded<R>(alone: impl FnOnce(bool) -> R, threaded: impl FnOnce() -> R) -> R {
    if sole_thread() {
        if ENTERED_ALONE.load(Ordering::Relaxed) {
            // Set by the call this one is nested in, which clears it.
            return alone(true);
        }
        ENTERED_ALONE.store(true, Ordering::Relaxed);
        let r = alone(false);
        ENTERED_ALONE.store(false, Ordering::Relaxed);
        r
    } else {
        threaded()
    }
}

/// The calling thread's identity, as the allocator's locks and its
/// initialization record their holder: `pthread_self()`, the address of the
/// thread's control block — never 0 (a free lock) and never below a page,
/// so never one of `DieHard`'s initialization states either. A fork child
/// answers what its forking thread did.
#[must_use]
#[inline]
pub(crate) fn current_thread() -> u64 {
    // SAFETY: pthread_self has no preconditions, cannot fail and does not
    // allocate.
    unsafe { libc::pthread_self() as u64 }
}
