//! Allocation-free synchronization primitives for the heap.
//!
//! Two constraints shape everything here. First, these primitives guard an
//! *allocator*: general-purpose mutexes (including `parking_lot`) may lazily
//! allocate per-thread parking state on contention, which would re-enter the
//! allocator mid-operation, so both the lock and the once-cell must never
//! allocate. Second, the heap takes one [`SpinLock`] per size class:
//! critical sections are a handful of bitmap probes, which is exactly the
//! regime where a spinlock with exponential backoff beats a parking mutex.
//!
//! # One word type; the partition's type picks how it is updated
//!
//! Every read-modify-write of the slot/ticket/RNG protocol — the RNG
//! advance, the slot-state transitions, the `1/M` ticket, the probe and
//! statistics counters, the lock flag itself — goes through [`Word`]. How a
//! `Word` is updated is a type parameter, an [`Arm`], carried by everything
//! built from words (`bitmap::SlotStateMap`, `rng::AtomicMwc`,
//! `partition::AtomicPartition`, `sharded::Heap`), so one copy of the
//! protocol is compiled twice and nothing selects between copies at run time:
//!
//! * [`Shared`] (the default; everything that ships): the locked instruction
//!   it always was (`lock xadd`, `lock cmpxchg`, …) **or**, while
//!   [`sole_thread`] is true, a relaxed load followed by a relaxed store of
//!   the new value. A locked instruction is a full barrier: it drains the
//!   store buffer and holds back younger loads, so on a single-threaded host
//!   the cache misses random placement forces are exposed at the next
//!   `malloc` instead of overlapped with it — the same reason glibc's
//!   `malloc` executes no `lock` prefix while the process has one thread
//!   (`SINGLE_THREAD_P`).
//! * [`Plain`] (`Heap<Plain>`: the simulator and the Monte Carlo harnesses):
//!   always the load and the store. `Plain` is `Send` but not `Sync`, and so
//!   is every type built from it: a plain heap can move to another thread
//!   but `&`-sharing one across threads is a compile error, which is the
//!   whole soundness argument for this arm.
//!
//! It is one protocol, not two paths: the callers are single-copy and draw
//! the same numbers in the same order, so per-seed histories are
//! bit-identical in every arm (pinned by `tests/single_thread.rs`, which
//! runs all three in one process).
//!
//! `sole_thread()` is one byte load of glibc's `__libc_single_threaded`
//! where the `global` feature links the allocator into a glibc process, and
//! a constant `false` everywhere else, which compiles the plain arm away.
//! Three facts about that byte make `Shared`'s plain arm sound:
//!
//! 1. **Who flips it, and when.** It goes `1 → 0` at the top of the
//!    *calling thread's* `pthread_create`, before the `clone`. A thread that
//!    reads 1 is therefore alone at that instant, and only it could change
//!    that — by calling `pthread_create` itself, which it is not doing in
//!    the middle of a `Word` update.
//! 2. **Creation is the barrier.** `pthread_create` synchronizes-with the
//!    start of the new thread (and `clone` is a full fence), so every plain
//!    store made while alone is visible to every thread that will ever
//!    exist, whatever ordering the locked arm would have used.
//! 3. **One-way.** On today's glibc it never returns to 1 — not after the
//!    last `pthread_join`, not in the fork child of a once-threaded parent —
//!    so a process that has ever had two threads stays on the locked arm.
//!    (Were a later glibc to set it again once a process is provably back
//!    to one thread, fact 1 would still hold at every read.)
//!
//! Both arms are atomic loads and stores, so there is no data race under
//! the language's memory model either way, and no `unsafe` beyond the one
//! extern read. What the plain arm cannot tolerate is what glibc's own fast
//! path cannot: a thread of control glibc does not know about (raw
//! `clone(CLONE_VM)`), or a signal handler re-entering the allocator between
//! the load and the store — both in the audit in `global/mod.rs`.

use core::cell::{Cell, UnsafeCell};
use core::marker::PhantomData;
use core::mem::MaybeUninit;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// `true` while this process has only ever had one thread, as far as the C
/// library knows: the condition under which a [`Word`] update may be a load
/// and a store instead of a locked instruction (module docs). A constant
/// `false` without the `global` feature and off glibc.
#[must_use]
#[inline(always)]
pub fn sole_thread() -> bool {
    #[cfg(all(feature = "global", unix, target_env = "gnu"))]
    {
        crate::global::sys::single_threaded()
    }
    #[cfg(not(all(feature = "global", unix, target_env = "gnu")))]
    {
        false
    }
}

/// The four unconditional updates of a [`Word`].
#[derive(Debug, Clone, Copy)]
enum Rmw {
    Add(u64),
    Sub(u64),
    Or(u64),
    And(u64),
}

/// How a [`Word`] performs its read-modify-writes (module docs). Sealed:
/// the two arms below are the only ones.
pub trait Arm: arm::Sealed {
    /// `true` when an update may be a relaxed load and a relaxed store.
    fn sole() -> bool;
}

/// The arm of everything that may be shared between threads: locked
/// instructions, or load + store while [`sole_thread`] is true.
#[derive(Debug)]
pub enum Shared {}

/// The single-owner arm: always load + store. `Send`, not `Sync` (the
/// `Cell`), so a type built from `Plain` words cannot be reached from two
/// threads at once.
#[derive(Debug)]
pub struct Plain(PhantomData<Cell<()>>);

mod arm {
    pub trait Sealed {}
    impl Sealed for super::Shared {}
    impl Sealed for super::Plain {}
}

impl Arm for Shared {
    #[inline(always)]
    fn sole() -> bool {
        sole_thread()
    }
}

impl Arm for Plain {
    #[inline(always)]
    fn sole() -> bool {
        true
    }
}

/// A 64-bit word of allocator state: an `AtomicU64` (same layout, so words
/// carved out of a raw metadata arena cast to it) whose read-modify-writes
/// are what its [`Arm`] says: locked instructions, or a relaxed load and
/// store (module docs). Loads and stores take the caller's ordering in
/// either arm; every update returns the prior value, like the `fetch_*`
/// family.
#[derive(Debug)]
#[repr(transparent)]
pub struct Word<A: Arm = Shared>(AtomicU64, PhantomData<A>);

impl<A: Arm> Default for Word<A> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<A: Arm> Word<A> {
    /// A word holding `value` (usable in statics).
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value), PhantomData)
    }

    /// Reads the word.
    #[must_use]
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    /// Overwrites the word.
    #[inline]
    pub fn store(&self, value: u64, order: Ordering) {
        self.0.store(value, order);
    }

    /// Wrapping add; returns the prior value.
    #[inline]
    pub fn add(&self, n: u64, order: Ordering) -> u64 {
        self.rmw(A::sole(), Rmw::Add(n), order)
    }

    /// Wrapping subtract; returns the prior value.
    #[inline]
    pub fn sub(&self, n: u64, order: Ordering) -> u64 {
        self.rmw(A::sole(), Rmw::Sub(n), order)
    }

    /// Bitwise or; returns the prior value.
    #[inline]
    pub fn or(&self, mask: u64, order: Ordering) -> u64 {
        self.rmw(A::sole(), Rmw::Or(mask), order)
    }

    /// Bitwise and; returns the prior value.
    #[inline]
    pub fn and(&self, mask: u64, order: Ordering) -> u64 {
        self.rmw(A::sole(), Rmw::And(mask), order)
    }

    /// Stores `new` if the word holds `current`: `Ok(prior)` when it did,
    /// `Err(seen)` and the word unchanged when it did not. Never fails
    /// spuriously, which a single attempt ([`SpinLock::try_lock`]) needs.
    #[inline]
    pub fn compare_set(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.cas(A::sole(), false, current, new, success, failure)
    }

    /// [`compare_set`](Self::compare_set) for retry loops: the locked arm is
    /// `compare_exchange_weak` (on LL/SC targets one attempt, not a loop
    /// nested in the caller's) and may fail spuriously, with `Err(current)`.
    #[inline]
    pub fn compare_set_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.cas(A::sole(), true, current, new, success, failure)
    }

    /// Both arms of the unconditional updates; `sole` picks one.
    #[inline(always)]
    fn rmw(&self, sole: bool, op: Rmw, order: Ordering) -> u64 {
        if sole {
            let prior = self.0.load(Ordering::Relaxed);
            let next = match op {
                Rmw::Add(n) => prior.wrapping_add(n),
                Rmw::Sub(n) => prior.wrapping_sub(n),
                Rmw::Or(mask) => prior | mask,
                Rmw::And(mask) => prior & mask,
            };
            self.0.store(next, Ordering::Relaxed);
            prior
        } else {
            match op {
                Rmw::Add(n) => self.0.fetch_add(n, order),
                Rmw::Sub(n) => self.0.fetch_sub(n, order),
                Rmw::Or(mask) => self.0.fetch_or(mask, order),
                Rmw::And(mask) => self.0.fetch_and(mask, order),
            }
        }
    }

    /// Both arms of [`compare_set`](Self::compare_set) and its weak form;
    /// `sole` picks the arm, `weak` the locked arm's instruction.
    #[inline(always)]
    fn cas(
        &self,
        sole: bool,
        weak: bool,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        if sole {
            let seen = self.0.load(Ordering::Relaxed);
            if seen != current {
                return Err(seen);
            }
            self.0.store(new, Ordering::Relaxed);
            Ok(seen)
        } else if weak {
            self.0.compare_exchange_weak(current, new, success, failure)
        } else {
            self.0.compare_exchange(current, new, success, failure)
        }
    }
}

/// A spin-based mutual-exclusion lock.
#[derive(Debug)]
pub struct SpinLock<T> {
    /// 0 = free, 1 = held. A [`Word`], so an uncontended acquire on a
    /// single-threaded host is a load and a store like every other update.
    locked: Word,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `T` across threads.
unsafe impl<T: Send> Send for SpinLock<T> {}
unsafe impl<T: Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates an unlocked lock around `value` (usable in statics).
    pub const fn new(value: T) -> Self {
        Self {
            locked: Word::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning with exponential backoff until free.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spins = 0u32;
        while self
            .locked
            .compare_set_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Backoff: brief busy-wait, then yield to the scheduler.
            if spins < 10 {
                for _ in 0..(1 << spins) {
                    core::hint::spin_loop();
                }
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
        SpinGuard { lock: self }
    }

    /// Acquires the lock *without* a guard, for callers that must release
    /// it from a different stack frame — `pthread_atfork` handlers, where
    /// the prepare hook locks and the parent/child hooks unlock. The value
    /// is deliberately not exposed: raw locking exists to *exclude* other
    /// threads across `fork(2)`, not to access the data.
    ///
    /// Pair every call with exactly one [`raw_unlock`](Self::raw_unlock).
    pub fn raw_lock(&self) {
        core::mem::forget(self.lock());
    }

    /// Releases a lock acquired by [`raw_lock`](Self::raw_lock).
    ///
    /// # Safety
    ///
    /// The caller (or, across `fork`, the thread it forked from) must hold
    /// the lock via `raw_lock`; unlocking a lock held through a
    /// [`SpinGuard`] or not held at all breaks mutual exclusion.
    pub unsafe fn raw_unlock(&self) {
        self.locked.store(0, Ordering::Release);
    }

    /// Acquires the lock only if it is free right now, without spinning.
    ///
    /// The magazine layer uses this for *opportunistic* free-buffer flushes:
    /// when the buffer is only half full a contended shard is left alone
    /// (the flush retries at the next free), and only a completely full
    /// buffer forces a blocking [`lock`](Self::lock).
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        // Lazily: a guard built for a failed attempt would unlock on drop.
        self.locked
            .compare_set(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| SpinGuard { lock: self })
    }
}

/// RAII guard returned by [`SpinLock::lock`]; releases on drop.
#[derive(Debug)]
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(0, Ordering::Release);
    }
}

/// [`OnceCell`] initialization states.
const EMPTY: u8 = 0;
const INITIALIZING: u8 = 1;
const READY: u8 = 2;
const FAILED: u8 = 3;

/// A once-initialized cell with lock-free reads, usable in statics.
///
/// After the single successful initialization, [`get`](Self::get) *and*
/// [`get_or_try_init`](Self::get_or_try_init) are one `Acquire` load plus a
/// pointer deref — a plain `mov` on x86-64, no locked instruction — which
/// is what makes the global allocator's header (heap base, page size,
/// config) readable on every `malloc`/`free` without a fence. Only a cell
/// not yet `READY` is ever CASed, out of line: a CAS is a full barrier even
/// when it fails, so one on the ready path would be a `lock cmpxchg` in
/// every `malloc` of every host. Initialization is fallible: a failed
/// attempt parks the cell in a terminal failed state and every later access
/// returns `None` (the allocator then reports out-of-memory rather than
/// retrying `mmap` storms forever).
#[derive(Debug)]
pub struct OnceCell<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: `&OnceCell<T>` hands out only `&T` after the release/acquire
// handshake on `state`, so sharing requires `T: Send + Sync`; moving the
// cell moves the `T` it may contain.
unsafe impl<T: Send + Sync> Sync for OnceCell<T> {}
unsafe impl<T: Send> Send for OnceCell<T> {}

impl<T> OnceCell<T> {
    /// An empty cell (usable in `static` items).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// The initialized value, or `None` when initialization has not run,
    /// is in flight on another thread, or failed.
    #[must_use]
    #[inline]
    pub fn get(&self) -> Option<&T> {
        if self.state.load(Ordering::Acquire) == READY {
            // SAFETY: READY is published with Release after the value was
            // fully written and is never unset, so the acquire load above
            // makes the initialized value visible.
            Some(unsafe { (*self.value.get()).assume_init_ref() })
        } else {
            None
        }
    }

    /// Returns the value, running `init` to produce it on first call.
    ///
    /// Exactly one thread runs `init`; racing threads spin until the winner
    /// publishes. When `init` returns `None` the cell is left in a terminal
    /// failed state and this (and every later) call returns `None`. On a
    /// ready cell this is [`get`](Self::get): one `Acquire` load.
    #[inline(always)]
    pub fn get_or_try_init(&self, init: impl FnOnce() -> Option<T>) -> Option<&T> {
        self.get().or_else(|| self.initialize(init))
    }

    /// The not-ready half of [`get_or_try_init`](Self::get_or_try_init):
    /// claim the cell from `EMPTY`, or wait out another thread's claim, or
    /// report a terminal failure. Out of line, so the hot path carries no
    /// CAS.
    #[cold]
    #[inline(never)]
    fn initialize(&self, init: impl FnOnce() -> Option<T>) -> Option<&T> {
        loop {
            match self.state.compare_exchange(
                EMPTY,
                INITIALIZING,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // We own initialization.
                    return match init() {
                        Some(value) => {
                            // SAFETY: state is INITIALIZING, so no other
                            // thread reads or writes the slot.
                            unsafe { (*self.value.get()).write(value) };
                            self.state.store(READY, Ordering::Release);
                            self.get()
                        }
                        None => {
                            self.state.store(FAILED, Ordering::Release);
                            None
                        }
                    };
                }
                Err(READY) => return self.get(),
                Err(FAILED) => return None,
                Err(_) => {
                    // Another thread is initializing; the allocator cannot
                    // park (parking may allocate), so spin politely.
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<T> Drop for OnceCell<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == READY {
            // SAFETY: READY guarantees the slot holds an initialized value,
            // and `&mut self` guarantees no outstanding references.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

impl<T> Default for OnceCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// The load + store arm and the locked arm of each of the five
        /// updates are the same function of (word, operand): same prior
        /// value returned, same word left behind. Called on the private
        /// `rmw`/`cas` with the arm spelled out, because under the (threaded)
        /// test harness `sole_thread()` only ever picks the locked one.
        #[test]
        fn plain_and_locked_updates_agree(
            start in any::<u64>(),
            operand in any::<u64>(),
            hit in any::<bool>(),
        ) {
            for op in [Rmw::Add(operand), Rmw::Sub(operand), Rmw::Or(operand), Rmw::And(operand)] {
                let (plain, locked): (Word, Word) = (Word::new(start), Word::new(start));
                prop_assert_eq!(
                    plain.rmw(true, op, Ordering::AcqRel),
                    locked.rmw(false, op, Ordering::AcqRel),
                    "{:?} on {:#x}: prior value", op, start
                );
                prop_assert_eq!(
                    plain.load(Ordering::Relaxed),
                    locked.load(Ordering::Relaxed),
                    "{:?} on {:#x}: word left", op, start
                );
            }
            // Compare-and-set, on a match and on a mismatch; the weak form as
            // its callers use it, retried on a spurious `Err(current)`.
            let current = if hit { start } else { !start };
            let (ok, err) = (Ordering::AcqRel, Ordering::Acquire);
            for weak in [false, true] {
                let (plain, locked): (Word, Word) = (Word::new(start), Word::new(start));
                let cas = |word: &Word, sole| loop {
                    let outcome = word.cas(sole, weak, current, operand, ok, err);
                    if outcome != Err(current) {
                        break outcome;
                    }
                };
                prop_assert_eq!(cas(&plain, true), cas(&locked, false));
                prop_assert_eq!(plain.load(Ordering::Relaxed), locked.load(Ordering::Relaxed));
                prop_assert_eq!(plain.load(Ordering::Relaxed), if hit { operand } else { start });
            }
        }
    }

    #[test]
    fn exclusive_increment_across_threads() {
        let lock = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(1u32);
        let g = lock.try_lock().expect("uncontended");
        assert!(lock.try_lock().is_none(), "held lock must not be re-taken");
        drop(g);
        assert_eq!(*lock.try_lock().expect("released"), 1);
    }

    #[test]
    fn raw_lock_excludes_and_raw_unlock_releases() {
        let lock = SpinLock::new(0u32);
        lock.raw_lock();
        assert!(lock.try_lock().is_none(), "raw_lock must hold the lock");
        // SAFETY: held via raw_lock on the line above.
        unsafe { lock.raw_unlock() };
        assert_eq!(*lock.try_lock().expect("raw_unlock released"), 0);
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = SpinLock::new(5);
        {
            let mut g = lock.lock();
            *g = 6;
        }
        assert_eq!(*lock.lock(), 6);
    }

    #[test]
    fn once_cell_initializes_exactly_once() {
        let cell = Arc::new(OnceCell::new());
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cell = Arc::clone(&cell);
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || {
                *cell
                    .get_or_try_init(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        Some(t)
                    })
                    .unwrap()
            }));
        }
        let values: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "one initializer ran");
        assert!(values.windows(2).all(|w| w[0] == w[1]), "all saw one value");
        assert_eq!(cell.get().copied(), Some(values[0]));
    }

    #[test]
    fn once_cell_failure_is_terminal() {
        let cell: OnceCell<u32> = OnceCell::new();
        assert_eq!(cell.get_or_try_init(|| None), None);
        // A later retry with a working initializer still reports failure:
        // the allocator must not loop retrying mmap after the first OOM.
        assert_eq!(cell.get_or_try_init(|| Some(7)), None);
        assert_eq!(cell.get(), None);
        // Nor does it try: a failed cell never calls its initializer again.
        assert_eq!(
            cell.get_or_try_init(|| panic!("retried a failed cell")),
            None
        );
    }

    #[test]
    fn once_cell_ready_path_is_get() {
        let cell = OnceCell::new();
        let first = cell.get_or_try_init(|| Some(11u32)).expect("initialized");
        // A ready cell answers without running `init`: the panicking
        // closure is never called, and the reference is `get()`'s.
        let again = cell
            .get_or_try_init(|| panic!("init ran on a ready cell"))
            .expect("ready");
        assert!(core::ptr::eq(first, again));
        assert!(core::ptr::eq(again, cell.get().expect("ready")));
        assert_eq!(*again, 11);
    }

    #[test]
    fn once_cell_drops_value() {
        struct Bomb(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Bomb {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let cell = OnceCell::new();
            cell.get_or_try_init(|| Some(Bomb(Arc::clone(&drops))));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
