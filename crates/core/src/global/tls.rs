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
//! of the heap's state), reached without a lookup, a binding check or the
//! registry; the same read makes every word update of the call a plain load
//! and store (`crate::sync`). A process that gains a thread switches for
//! good (the byte never returns to 1): from the next call on, each thread
//! uses its block below, and the first call into a heap that finds the
//! process threaded drains that heap's own magazines once. Every host in
//! the repository's benchmark has one thread.
//!
//! # Why the heap registry
//!
//! A TLS block caches a raw pointer to the [`GlobalState`] it is bound to.
//! Unlike the process-singleton `#[global_allocator]` case, tests construct
//! many short-lived [`DieHard`](super::DieHard) instances, so that pointer
//! can outlive its heap. Every deref that is **not** protected by a live
//! `&GlobalState` borrow (the thread-exit destructor, and the flush of the
//! *previous* heap when a thread rebinds to a new one) therefore goes
//! through [`REGISTRY`], a fixed-capacity table of live heap ids:
//!
//! * a heap registers itself (id → pointer) when magazines first engage and
//!   unregisters in `Drop` — both under the registry lock;
//! * dangling-pointer flushes hold the registry lock for the *entire* flush,
//!   so a concurrent `Drop` (which must take the same lock to unregister)
//!   cannot free the state mid-flush;
//! * a lookup miss means the heap is gone: the block's contents are
//!   discarded (the reservations died with the heap's arena).
//!
//! Consequence, documented in the unsafe-surface audit: a `DieHard` value
//! must not be *moved* after its first allocation (the registry holds its
//! interior address). Statics never move; test instances are moved only
//! while still uninitialized.

use super::GlobalState;
use crate::magazine::ThreadMagazines;
use crate::sharded::Heap;
use crate::sync::{sole_thread, OnceCell, SpinLock};
use core::cell::{Cell, UnsafeCell};
use core::marker::PhantomData;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Maximum simultaneously-live registered heaps. Overflow is handled
/// gracefully: an unregistrable heap simply runs uncached (see
/// [`super::DieHard`]'s `magazines_on`).
const MAX_HEAPS: usize = 64;

/// Live-heap table: `ids[i]` is 0 for a free row, else the id whose
/// `GlobalState` lives at `ptrs[i]`.
struct Registry {
    ids: [u64; MAX_HEAPS],
    ptrs: [usize; MAX_HEAPS],
}

static REGISTRY: SpinLock<Registry> = SpinLock::new(Registry {
    ids: [0; MAX_HEAPS],
    ptrs: [0; MAX_HEAPS],
});

/// Monotonic heap-id source; 0 is reserved for "unbound".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The one process-wide thread-exit key (created on first magazine bind).
static EXIT_KEY: OnceCell<libc::pthread_key_t> = OnceCell::new();

/// Draws a fresh nonzero heap id.
pub(super) fn allocate_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Guardless registry lock for the `fork(2)` prepare path: with the
/// registry held, no thread is mid-way through a stale-heap flush (which
/// holds this lock for its whole duration), so the child inherits a
/// registry no one was mutating. First in the fork lock order — a flush
/// takes maintenance locks *while* holding the registry, never the
/// reverse.
pub(super) fn registry_lock() {
    REGISTRY.raw_lock();
}

/// Releases [`registry_lock`] (parent and child resume paths).
///
/// # Safety
///
/// The registry must be held via `registry_lock` (by this thread or, in a
/// fork child, by the thread the process forked from).
pub(super) unsafe fn registry_unlock() {
    // SAFETY: forwarded caller contract.
    unsafe { REGISTRY.raw_unlock() };
}

/// Registers `state` under its id; idempotent. Returns `false` when the
/// table is full (the caller then disables magazines for this heap).
pub(super) fn register(state: &GlobalState) -> bool {
    let mut reg = REGISTRY.lock();
    let mut free = None;
    for i in 0..MAX_HEAPS {
        if reg.ids[i] == state.id {
            return true;
        }
        if reg.ids[i] == 0 && free.is_none() {
            free = Some(i);
        }
    }
    match free {
        Some(i) => {
            reg.ids[i] = state.id;
            reg.ptrs[i] = core::ptr::from_ref(state) as usize;
            true
        }
        None => false,
    }
}

impl Registry {
    fn lookup(&self, id: u64) -> Option<*const GlobalState> {
        (0..MAX_HEAPS)
            .find(|&i| self.ids[i] == id)
            .map(|i| self.ptrs[i] as *const GlobalState)
    }

    fn remove(&mut self, id: u64) {
        for i in 0..MAX_HEAPS {
            if self.ids[i] == id {
                self.ids[i] = 0;
                self.ptrs[i] = 0;
            }
        }
    }
}

/// The per-thread block: plain data, `const`-initialized, `!needs_drop` —
/// see the module docs for why all three properties are load-bearing. It
/// holds everything an allocation needs per thread — the interposer's
/// re-entrancy flag and the magazines — so an entry point looks it up once
/// ([`with_block`]) and passes it down.
pub(super) struct TlsBlock {
    /// Id of the heap the magazines are bound to; 0 = unbound.
    bound: Cell<u64>,
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
            bound: Cell::new(0),
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
    let block = BLOCK.with(core::ptr::from_ref);
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
/// that finds the process alone reaches them with no `__tls_get_addr`, no
/// binding check and no registry — this block belongs to one heap and never
/// rebinds. Its contents are always consistent with the heap (reserved
/// slots hold their tickets, buffered frees are live slots), so when the
/// process gains a thread nothing has to happen at once: the first call that
/// finds it threaded drains the block into the heap ([`drain`](Self::drain),
/// once, behind its own flag), and from then on every thread uses its
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
    /// is called: the first call into a heap that finds the process
    /// threaded makes it, so the reservations and buffered frees of the
    /// single-threaded era are settled exactly once, by one thread.
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
    /// rebinding (flush old heap via the registry, or discard if it is
    /// gone) when the thread last touched a different heap.
    #[inline(always)]
    pub(super) fn with_cache<R>(
        &self,
        state: &GlobalState,
        f: impl FnOnce(&mut ThreadMagazines) -> R,
    ) -> R {
        if self.bound.get() != state.id {
            rebind(self, state);
        }
        // SAFETY: the block is this thread's, and no other `&mut` to its
        // magazines is live: `with_cache` is never re-entered while `f`
        // runs — magazine operations neither allocate nor call back into
        // the allocator.
        f(unsafe { &mut *self.mags.get() })
    }

    /// Flushes this thread's magazines into `state`'s heap if they are bound
    /// to it (leaves the binding in place). Used before reading diagnostics.
    pub(super) fn flush_if_bound(&self, state: &GlobalState) {
        if self.bound.get() == state.id {
            // SAFETY: thread-local block; `&GlobalState` proves the heap is
            // live, so no registry round-trip is needed. (Bound, so the
            // process is threaded: the locked arm.)
            unsafe { (*self.mags.get()).flush(false, &state.heap) };
        }
    }
}

/// `Drop` path: flush this thread's binding to the dying heap (other
/// threads' bindings become registry misses and are discarded on their next
/// rebind or exit) and remove it from the registry.
pub(super) fn retire(state: &GlobalState) {
    with_block(|block| {
        if block.bound.get() == state.id {
            // SAFETY: as in `flush_if_bound`. (A block is bound only by a
            // threaded call, so the process is threaded for good.)
            unsafe { (*block.mags.get()).flush(false, &state.heap) };
            block.bound.set(0);
        }
    });
    REGISTRY.lock().remove(state.id);
}

/// Rebinds `block` from whatever heap it was serving to `state`'s.
#[cold]
#[inline(never)]
fn rebind(block: &TlsBlock, state: &GlobalState) {
    let old = block.bound.get();
    if old != 0 {
        flush_stale(block, old);
    }
    block.bound.set(state.id);
    ensure_exit_hook(block);
}

/// Flushes `block` into the heap registered under `id`, or discards the
/// cached state when that heap no longer exists. Holding the registry lock
/// across the flush pins the heap: `Drop` must take the same lock to
/// unregister before the state can be freed.
fn flush_stale(block: &TlsBlock, id: u64) {
    let reg = REGISTRY.lock();
    match reg.lookup(id) {
        Some(ptr) => {
            // SAFETY: the registry entry proves the GlobalState is live, and
            // the held registry lock blocks its Drop until we are done; the
            // mags pointer is this thread's own TLS block.
            unsafe { (*block.mags.get()).flush(false, &(*ptr).heap) };
        }
        None => {
            // SAFETY: thread-local block, no heap to flush into.
            unsafe { (*block.mags.get()).discard() };
        }
    }
    drop(reg);
    block.bound.set(0);
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
    if unsafe { libc::pthread_setspecific(key, core::ptr::from_ref(block).cast()) } == 0 {
        block.exit_hooked.set(true);
    }
}

/// The thread-exit destructor: flush the dying thread's magazines into
/// their heap (if it still exists) so no reservation outlives its thread.
unsafe extern "C" fn thread_exit_flush(value: *mut libc::c_void) {
    let block = value.cast_const().cast::<TlsBlock>();
    // SAFETY: `value` was set (once) to this thread's TLS block, which is
    // still mapped while pthread key destructors run.
    let block = unsafe { &*block };
    let id = block.bound.get();
    if id != 0 {
        flush_stale(block, id);
    }
    // pthread has already nulled the key's value for this run, so if a
    // *later* TSD destructor (ordering is unspecified) routes allocator
    // traffic back through this block, the rebind must re-register or that
    // traffic's reservations would be stranded forever. Re-setting the
    // value makes pthread run this destructor again (implementations
    // iterate up to PTHREAD_DESTRUCTOR_ITERATIONS).
    block.exit_hooked.set(false);
}
