//! Thread-local magazine storage for the global allocator.
//!
//! # Why this TLS scheme
//!
//! The magazines of [`crate::magazine`] need per-thread storage that is
//! reachable from inside `malloc` itself, which rules out almost every
//! convenient option:
//!
//! * **`std` lazy TLS (`thread_local!` with a `Drop` type)** registers its
//!   destructor through `__cxa_thread_atexit_impl`, which **allocates**
//!   (glibc `calloc`s the dtor list) — re-entering the allocator that is
//!   mid-initialization. Rejected.
//! * **`#[thread_local]`** would be exactly right but is unstable.
//! * **`pthread_getspecific` for the data itself** costs a call per
//!   allocation and an allocation for the block. Rejected for the hot path.
//!
//! What stable Rust *does* lower to plain ELF TLS is `thread_local!` with a
//! `const` initializer and a type that `!needs_drop` — no lazy-init state,
//! no destructor registration, no allocation, ever. So the per-thread block
//! here is exactly that: a `const`-initialized [`ThreadMagazines`] plus a
//! few `Cell`s, one of which is `libdiehard.so`'s re-entrancy flag. A
//! shared object reaches its TLS through a `__tls_get_addr` call, so the
//! flag lives here rather than in a `thread_local!` of the interposer's
//! own: an interposed `malloc` or `free` looks the block up once and hands
//! it down ([`with_block`]), where two variables cost two calls. The one
//! thing ELF TLS cannot give us is a **thread-exit
//! hook** (a thread that dies holding reservations would leak them), so a
//! single process-wide `pthread` key is created lazily and each thread's
//! block pointer is stored in it once — the key's destructor flushes the
//! block when the thread exits. `pthread_setspecific` for the first few keys
//! writes into fixed storage inside glibc's `struct pthread` (no malloc),
//! and the destructor runs while ELF TLS is still mapped, so the pointer it
//! receives is valid.
//!
//! # Why a process with one thread uses none of it
//!
//! A shared object's TLS costs a `__tls_get_addr` call per lookup — 24
//! instructions a `malloc`/`free` pair in `ld.so` and its PLT stub, plus the
//! call sites (`crates/preload/tests/instructions.rs` counts them) — and a
//! single-threaded host gets nothing for it: only one thread can be in the
//! allocator. So every call reads the thread count
//! once, first ([`enter`]): while glibc's `__libc_single_threaded` says the
//! process has one thread, the call's re-entrancy flag is a process-wide
//! static and its magazines are the heap's own ([`SoloMagazines`], a field
//! of the heap's state), reached without a lookup or a binding check; the
//! same read makes every word update of the call a plain load and store
//! (`crate::sync`). A process that gains a thread switches for good (the
//! byte never returns to 1): from the next call on, each thread uses its
//! block below, and the first thread to bind to a heap (or to flush its
//! cache into it) drains that heap's own magazines once. Every host in the
//! repository's benchmark has one thread.
//!
//! # Why a binding cannot dangle
//!
//! A TLS block remembers the [`GlobalState`] its magazines are bound to, as
//! a plain reference, and follows it outside any call into that heap: when
//! the thread rebinds to another heap, and when it exits. Unlike the
//! process-singleton `#[global_allocator]` case, tests construct many
//! short-lived [`DieHard`](super::DieHard) instances, so the binding can
//! outlive the value that made it — dropped, or moved elsewhere. It still
//! points at a live heap: a `GlobalState` lives at the front of its heap's
//! metadata mapping, which, like the heap span, is never unmapped (a global
//! allocator's heap must outlive every object it ever served). The binding
//! is therefore `&'static`, and a stale flush — at rebind or at thread exit
//! — settles the reservations and buffered frees of the era before into a
//! heap that is still mapped, whether or not anything will allocate from
//! it again. A `DieHard` holds only the state's address, so moving one,
//! initialized or not, moves nothing a binding refers to.

use super::GlobalState;
use crate::magazine::ThreadMagazines;
use crate::sharded::Heap;
use crate::sync::{sole_thread, OnceCell};
use core::cell::{Cell, UnsafeCell};
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicBool, Ordering};

/// The one process-wide thread-exit key (created on first magazine bind).
static EXIT_KEY: OnceCell<libc::pthread_key_t> = OnceCell::new();

/// The per-thread block: plain data, `const`-initialized, `!needs_drop` —
/// see the module docs for why all three properties are load-bearing. It
/// holds everything an allocation needs per thread — the interposer's
/// re-entrancy flag and the magazines — so an entry point looks it up once
/// ([`with_block`]) and passes it down.
pub(super) struct TlsBlock {
    /// The heap the magazines are bound to, if any (never freed: see the
    /// module docs).
    bound: Cell<Option<&'static GlobalState>>,
    /// Whether this thread's pointer is stored in [`EXIT_KEY`].
    exit_hooked: Cell<bool>,
    /// "This thread is inside the allocator": set by [`guarded`](Self::guarded)
    /// around the interposer's entries, so a `malloc` issued from inside one
    /// (glibc's own bookkeeping, a signal handler) is told it re-entered.
    entered: Cell<bool>,
    mags: UnsafeCell<ThreadMagazines>,
}

thread_local! {
    static BLOCK: TlsBlock = const {
        TlsBlock {
            bound: Cell::new(None),
            exit_hooked: Cell::new(false),
            entered: Cell::new(false),
            mags: UnsafeCell::new(ThreadMagazines::new()),
        }
    };
}

/// Runs `f` on this thread's block: the one thread-local lookup a threaded
/// process's allocation makes (`__tls_get_addr` in a shared object, an
/// `%fs` offset in an executable). The closure handed to `LocalKey::with`
/// only returns the address, so that call inlines whatever `f` is.
#[inline(always)]
fn with_block<R>(f: impl FnOnce(&TlsBlock) -> R) -> R {
    let block = BLOCK.with(ptr::from_ref);
    // SAFETY: `BLOCK` is const-initialized and `!needs_drop`, i.e. plain ELF
    // TLS: it sits at this address, initialized, for as long as this thread
    // runs, and the borrow handed to `f` ends on this thread before
    // `with_block` returns (`TlsBlock` is not `Sync`, so `f` cannot send it).
    f(unsafe { &*block })
}

/// The re-entrancy flag of a process with one thread: [`TlsBlock`]'s
/// `entered`, kept process-wide because while the process has one thread
/// the process *is* that thread. Relaxed loads and stores, plain `mov`s.
static ENTERED_ALONE: AtomicBool = AtomicBool::new(false);

/// Proof that the call holding it found the process with one thread: made
/// only by [`enter`] and [`guarded`], after a read of [`sole_thread`]
/// answered `true`, and lent out for that call alone. Not `Send`.
pub(super) struct Alone(PhantomData<*const ()>);

/// The one read of the thread count a call into the allocator makes, and
/// where its per-thread state is on each answer: `alone` runs when the
/// process has one thread — its re-entrancy flag is process-wide and its
/// magazines are the heap's own ([`SoloMagazines`]), no thread-local lookup
/// — and `threaded` on this thread's block ([`with_block`]). Two closures,
/// so each arm is compiled with its answer known.
#[inline(always)]
pub(super) fn enter<R>(
    alone: impl FnOnce(&Alone) -> R,
    threaded: impl FnOnce(&TlsBlock) -> R,
) -> R {
    if sole_thread() {
        alone(&Alone(PhantomData))
    } else {
        with_block(threaded)
    }
}

/// Runs `f` with this call's re-entrancy flag set, on whichever side of
/// [`enter`] the call is, telling it whether the flag was already set.
pub(super) fn guarded<R>(f: impl FnOnce(bool) -> R) -> R {
    if sole_thread() {
        Alone(PhantomData).guarded(f)
    } else {
        with_block(|block| block.guarded(f))
    }
}

impl Alone {
    /// Runs `f` with the process-wide re-entrancy flag set, telling it
    /// whether it was already set (i.e. this call re-entered the
    /// allocator).
    #[inline(always)]
    pub(super) fn guarded<R>(&self, f: impl FnOnce(bool) -> R) -> R {
        let reentered = ENTERED_ALONE.load(Ordering::Relaxed);
        ENTERED_ALONE.store(true, Ordering::Relaxed);
        let r = f(reentered);
        ENTERED_ALONE.store(reentered, Ordering::Relaxed);
        r
    }
}

/// The magazines a heap owns for the time its process has one thread.
///
/// A process with one thread needs no thread-local storage: its one thread
/// is the only one that can be inside the allocator, so its magazines can
/// live in the heap, beside the header every call reads anyway, and a call
/// that finds the process alone reaches them with no `__tls_get_addr` and no
/// binding check — this block belongs to one heap and never rebinds. Its
/// contents are always consistent with the heap (reserved slots hold their
/// tickets, buffered frees are live slots), so when the process gains a
/// thread nothing has to happen at once: the first thread that binds to the
/// heap, or flushes its cache into it, drains the block into the heap
/// ([`drain`](Self::drain), once, behind its own flag), and from then on every thread uses its
/// [`TlsBlock`]. A process never returns to one thread (`sync`'s fact 3),
/// so nothing uses this block again — except in the fork child of a parent
/// that never had a second thread, which is alone and keeps using its copy.
pub(super) struct SoloMagazines {
    mags: UnsafeCell<ThreadMagazines>,
    /// Set by the one [`drain`](Self::drain) that empties the block.
    drained: AtomicBool,
}

// SAFETY: the magazines are reached in two ways. (1) Through `with`, by a
// call holding `Alone`: that call read the process as having one thread,
// which is its own, and no other call on these magazines is in flight on it
// (a nested guarded call is diverted by `ENTERED_ALONE`; an unguarded entry
// is not re-entrant in either arm). (2) Through `drain`, which only a call
// that found the process threaded makes, and of those only the one that
// flips `drained` goes on. The two never overlap: the drainer runs after
// the thread count went past one, which it never comes back from, so no
// `with` starts again, and each one that ran finished before the
// `pthread_create` the drainer's thread goes back to, which also publishes
// its stores to that thread (`sync`'s facts 2 and 3).
unsafe impl Sync for SoloMagazines {}

impl SoloMagazines {
    /// An empty block.
    pub(super) const fn new() -> Self {
        Self {
            mags: UnsafeCell::new(ThreadMagazines::new()),
            drained: AtomicBool::new(false),
        }
    }

    /// Runs `f` on the heap's own magazines, for a call that found the
    /// process alone.
    #[inline(always)]
    pub(super) fn with<R>(&self, _alone: &Alone, f: impl FnOnce(&mut ThreadMagazines) -> R) -> R {
        // SAFETY: case (1) of the `Sync` argument: no other `&mut` to the
        // magazines is live while `f` runs.
        f(unsafe { &mut *self.mags.get() })
    }

    /// Hands everything the block holds back to `heap`, the first time it
    /// is called: every rebind to the heap and every threaded cache flush
    /// into it makes it, so the reservations and buffered frees of the
    /// single-threaded era are settled exactly once, by one thread, before
    /// any thread's own magazines serve the heap.
    #[cold]
    #[inline(never)]
    pub(super) fn drain(&self, heap: &Heap) {
        if !self.drained.load(Ordering::Relaxed) && !self.drained.swap(true, Ordering::AcqRel) {
            // SAFETY: case (2) of the `Sync` argument.
            unsafe { (*self.mags.get()).flush(false, heap) };
        }
    }
}

impl TlsBlock {
    /// Runs `f` with this thread's re-entrancy flag set, telling it whether
    /// it was already set (i.e. this call re-entered the allocator).
    #[inline(always)]
    pub(super) fn guarded<R>(&self, f: impl FnOnce(bool) -> R) -> R {
        let reentered = self.entered.replace(true);
        let r = f(reentered);
        self.entered.set(reentered);
        r
    }

    /// Runs `f` on this thread's magazines, bound to `state`'s heap —
    /// rebinding (flushing into the heap they were bound to) when the
    /// thread last touched a different heap.
    #[inline(always)]
    pub(super) fn with_cache<R>(
        &self,
        state: &'static GlobalState,
        f: impl FnOnce(&mut ThreadMagazines) -> R,
    ) -> R {
        if !self.bound_to(state) {
            rebind(self, state);
        }
        // SAFETY: the block is this thread's, and no other `&mut` to its
        // magazines is live: `with_cache` is never re-entered while `f`
        // runs — magazine operations neither allocate nor call back into
        // the allocator.
        f(unsafe { &mut *self.mags.get() })
    }

    /// Whether the magazines are bound to `state`'s heap.
    #[inline(always)]
    fn bound_to(&self, state: &GlobalState) -> bool {
        self.bound.get().is_some_and(|bound| ptr::eq(bound, state))
    }

    /// Flushes this thread's magazines into `state`'s heap if they are bound
    /// to it (leaves the binding in place). Used before reading diagnostics.
    pub(super) fn flush_if_bound(&self, state: &GlobalState) {
        if self.bound_to(state) {
            self.flush_into(state);
        }
    }

    /// Flushes this thread's magazines into the heap they are bound to, if
    /// any, and unbinds them. That heap may belong to a dropped or moved
    /// `DieHard`: its state is never freed (module docs), so the flush
    /// lands in a mapped heap either way.
    fn unbind(&self) {
        if let Some(old) = self.bound.take() {
            self.flush_into(old);
        }
    }

    fn flush_into(&self, state: &GlobalState) {
        // SAFETY: the block is this thread's, and no `&mut` to its
        // magazines is live: callers run outside `with_cache`'s `f`. (A
        // block is bound only by a threaded call: the locked arm.)
        unsafe { (*self.mags.get()).flush(false, &state.heap) };
    }
}

/// Rebinds `block` from whatever heap it was serving to `state`'s, after
/// draining `state`'s own magazines of the single-threaded era, if no
/// thread has yet.
#[cold]
#[inline(never)]
fn rebind(block: &TlsBlock, state: &'static GlobalState) {
    state.solo.drain(&state.heap);
    block.unbind();
    block.bound.set(Some(state));
    ensure_exit_hook(block);
}

/// Ensures this thread's block pointer is stored under the process-wide
/// exit key, so [`thread_exit_flush`] runs when the thread dies. Failure
/// (key exhaustion) is tolerated: the thread simply never gets an exit
/// flush, and its reservations are reclaimed only if it rebinds.
fn ensure_exit_hook(block: &TlsBlock) {
    if block.exit_hooked.get() {
        return;
    }
    let key = EXIT_KEY.get_or_try_init(|| {
        let mut key: libc::pthread_key_t = 0;
        // SAFETY: `key` is a live out-pointer; the destructor is a plain fn
        // pointer. pthread_key_create performs no heap allocation.
        let rc = unsafe { libc::pthread_key_create(&mut key, Some(thread_exit_flush)) };
        (rc == 0).then_some(key)
    });
    let Some(&key) = key else { return };
    // SAFETY: the value is this thread's ELF-TLS block, which glibc keeps
    // mapped until after pthread key destructors run; setspecific for
    // low-numbered keys writes into fixed per-thread storage (no malloc).
    if unsafe { libc::pthread_setspecific(key, ptr::from_ref(block).cast()) } == 0 {
        block.exit_hooked.set(true);
    }
}

/// The thread-exit destructor: flush the dying thread's magazines into
/// their heap so no reservation outlives its thread.
unsafe extern "C" fn thread_exit_flush(value: *mut libc::c_void) {
    let block = value.cast_const().cast::<TlsBlock>();
    // SAFETY: `value` was set (once) to this thread's TLS block, which is
    // still mapped while pthread key destructors run.
    let block = unsafe { &*block };
    block.unbind();
    // pthread has already nulled the key's value for this run, so if a
    // *later* TSD destructor (ordering is unspecified) routes allocator
    // traffic back through this block, the rebind must re-register or that
    // traffic's reservations would be stranded forever. Re-setting the
    // value makes pthread run this destructor again (implementations
    // iterate up to PTHREAD_DESTRUCTOR_ITERATIONS).
    block.exit_hooked.set(false);
}
