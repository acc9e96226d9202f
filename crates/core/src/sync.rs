//! Allocation-free synchronization primitives for the heap.
//!
//! Two constraints shape everything here. First, these primitives guard an
//! *allocator*: general-purpose mutexes (including `parking_lot`) may lazily
//! allocate per-thread parking state on contention, which would re-enter the
//! allocator mid-operation, so the lock must never allocate (nor does the
//! global allocator's one-time initialization, which waits out a racing
//! initializer the same way, on a state byte of its own). Second, the heap
//! takes one [`SpinLock`] per size class, around a growth step: a few stores
//! and, rarely, two advisory syscalls — a regime where a spinlock with
//! exponential backoff is all that is needed.
//!
//! # One word type, two ways to update it
//!
//! Every read-modify-write of the slot/ticket/RNG protocol — the RNG
//! advance, the slot-state transitions, the `1/M` ticket, the probe and
//! statistics counters, the lock flag itself — goes through [`Word`]: the
//! locked instruction it always was (`lock xadd`, `lock cmpxchg`, …) **or**,
//! while [`sole_thread`] is true, a relaxed load followed by a relaxed store
//! of the new value. A locked instruction is a full barrier: it drains the
//! store buffer and holds back younger loads, so on a single-threaded host
//! the cache misses random placement forces are exposed at the next
//! `malloc` instead of overlapped with it — the same reason glibc's `malloc`
//! executes no `lock` prefix while the process has one thread
//! (`SINGLE_THREAD_P`). Everything built from words (`bitmap::SlotStateMap`,
//! `rng::AtomicMwc`, `partition::AtomicPartition`, `sharded::Heap`) is one
//! type, `Send + Sync`, and the arm is a value read at run time.
//!
//! It is one protocol, not two paths: the callers are single-copy and draw
//! the same numbers in the same order, so per-seed histories are
//! bit-identical in either arm (pinned by `tests/single_thread.rs`, which
//! runs both in one process).
//!
//! `sole_thread()` is one byte load of glibc's `__libc_single_threaded`
//! where the `global` feature links the allocator into a glibc process, and
//! a constant `false` everywhere else, which compiles the plain arm away.
//! Three facts about that byte make the plain arm sound:
//!
//! 1. **Who flips it, and when.** It goes `1 → 0` at the top of the
//!    *calling thread's* `pthread_create`, before the `clone`. A thread that
//!    reads 1 is therefore alone at that instant, and only it could change
//!    that — by calling `pthread_create` itself, which it is not doing in
//!    the middle of an allocator call. So the byte is **read once per
//!    call**: the entry of each per-call path (an allocation, a free, a
//!    growth step or a statistics add behind them) reads it and passes the
//!    answer down as `sole: bool`, and every update the call makes uses that
//!    one answer instead of reading the byte again. Functions that take it
//!    are crate-private (named `…_in` where a public form reads the byte for
//!    its caller), so no caller outside the crate can hand a stale `true` to
//!    a word other threads can reach.
//! 2. **Creation is the barrier.** `pthread_create` synchronizes-with the
//!    start of the new thread (and `clone` is a full fence), so every plain
//!    store made while alone is visible to every thread that will ever
//!    exist, whatever ordering the locked arm would have used.
//! 3. **One-way.** On today's glibc it never returns to 1 — not after the
//!    last `pthread_join`, not in the fork child of a once-threaded parent —
//!    so a process that has ever had two threads stays on the locked arm.
//!    (Were a later glibc to set it again once a process is provably back
//!    to one thread, fact 1 would still hold at every read.) The global
//!    allocator does not lean on it either: a call that finds the process
//!    alone leaves no state outside the heap for a later thread to take
//!    over (`global/tls.rs`).
//!
//! Both arms are atomic loads and stores, so there is no data race under
//! the language's memory model either way, and no `unsafe` beyond the one
//! extern read. What the plain arm cannot tolerate is what glibc's own fast
//! path cannot: a thread of control glibc does not know about (raw
//! `clone(CLONE_VM)`), or a signal handler re-entering the allocator between
//! the load and the store — both in the audit in `global/mod.rs`.

use core::cell::UnsafeCell;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicU64, Ordering};

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
pub(crate) enum Rmw {
    Add(u64),
    Sub(u64),
    Or(u64),
    And(u64),
}

/// A 64-bit word of allocator state: an `AtomicU64` (same layout, so words
/// carved out of a raw metadata arena cast to it) whose read-modify-writes
/// are locked instructions, or a relaxed load and store, as the `sole` each
/// one is handed says — the one read of [`sole_thread`] the calling
/// operation made at its entry (module docs). Loads and stores take the caller's
/// ordering in either arm; every update returns the prior value, like the
/// `fetch_*` family. The updates are crate-private: a stale `true` handed
/// to a word other threads reach would lose updates.
#[derive(Debug)]
#[repr(transparent)]
pub struct Word(AtomicU64);

impl Default for Word {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Word {
    /// A word holding `value` (usable in statics).
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
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

    /// Wrapping add or subtract, or bitwise or or and, returning the prior
    /// value; `sole` picks the arm — the entry point to a per-call path
    /// reads it once and passes it down (module docs).
    #[inline(always)]
    pub(crate) fn rmw(&self, sole: bool, op: Rmw, order: Ordering) -> u64 {
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

    /// Replaces the word with `f(prior)`, or leaves it when `f` answers
    /// `None`, and returns `Ok(prior)` or `Err(prior)` to match — the
    /// load-compute-compare-and-set loop of `AtomicU64::fetch_update`, in the
    /// arm `sole` picks, as in [`rmw`](Self::rmw). The locked arm retries `f`
    /// on whatever a lost race left (`set` and `fetch` are its orderings);
    /// the plain arm is one load and at most one store, with no compare:
    /// nothing else can write the word in between.
    #[inline(always)]
    pub(crate) fn update(
        &self,
        sole: bool,
        set: Ordering,
        fetch: Ordering,
        mut f: impl FnMut(u64) -> Option<u64>,
    ) -> Result<u64, u64> {
        if sole {
            let prior = self.0.load(Ordering::Relaxed);
            let next = f(prior).ok_or(prior)?;
            self.0.store(next, Ordering::Relaxed);
            Ok(prior)
        } else {
            self.0.fetch_update(set, fetch, f)
        }
    }

    /// Stores `new` if the word holds `current`: `Ok(prior)` when it did,
    /// `Err(seen)` and the word unchanged when it did not. `sole` picks the
    /// arm, as in [`rmw`](Self::rmw). The locked arm is
    /// `compare_exchange_weak`, for its callers' retry loops (on LL/SC
    /// targets one attempt, not a loop nested in the caller's): it may fail
    /// spuriously, with `Err(current)`.
    #[inline(always)]
    pub(crate) fn cas(
        &self,
        sole: bool,
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
        } else {
            self.0.compare_exchange_weak(current, new, success, failure)
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
        self.lock_in(sole_thread())
    }

    /// [`lock`](Self::lock), in the arm the caller's one read of
    /// [`sole_thread`] picked.
    /// One attempt inline; the spinning is [`acquire_contended`]'s, out of
    /// line, so a lock site carries one copy of the attempt in each arm.
    #[inline]
    pub(crate) fn lock_in(&self, sole: bool) -> SpinGuard<'_, T> {
        let attempt = self
            .locked
            .cas(sole, 0, 1, Ordering::Acquire, Ordering::Relaxed);
        if attempt.is_err() {
            acquire_contended(&self.locked);
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
}

/// The rest of [`SpinLock::lock_in`] after a failed attempt: spins with
/// exponential backoff until the flag is free, then takes it. A held lock is
/// another thread's (one thread never waits on itself), so each retry reads
/// the thread count afresh.
#[cold]
#[inline(never)]
fn acquire_contended(locked: &Word) {
    let mut spins = 0u32;
    while locked
        .cas(sole_thread(), 0, 1, Ordering::Acquire, Ordering::Relaxed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// The load + store arm and the locked arm of each of the six
        /// updates are the same function of (word, operand): same prior
        /// value returned, same word left behind. Called on `rmw`, `cas`
        /// and `update` with the arm spelled out, because under the
        /// (threaded) test harness `sole_thread()` only ever picks the
        /// locked one.
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
            // Compare-and-set, on a match and on a mismatch, as its callers
            // use it: retried on a spurious `Err(current)`.
            let current = if hit { start } else { !start };
            let (ok, err) = (Ordering::AcqRel, Ordering::Acquire);
            let (plain, locked): (Word, Word) = (Word::new(start), Word::new(start));
            let cas = |word: &Word, sole| loop {
                let outcome = word.cas(sole, current, operand, ok, err);
                if outcome != Err(current) {
                    break outcome;
                }
            };
            prop_assert_eq!(cas(&plain, true), cas(&locked, false));
            prop_assert_eq!(plain.load(Ordering::Relaxed), locked.load(Ordering::Relaxed));
            prop_assert_eq!(plain.load(Ordering::Relaxed), if hit { operand } else { start });
            // The load-compute-set loop, with a step that declines half the
            // time.
            let step = |word: u64| (word & 1 == u64::from(hit)).then_some(word ^ operand);
            let (plain, locked): (Word, Word) = (Word::new(start), Word::new(start));
            prop_assert_eq!(
                plain.update(true, ok, err, step),
                locked.update(false, ok, err, step)
            );
            prop_assert_eq!(plain.load(Ordering::Relaxed), locked.load(Ordering::Relaxed));
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
    fn raw_lock_excludes_and_raw_unlock_releases() {
        let lock = SpinLock::new(0u32);
        lock.raw_lock();
        assert_eq!(lock.locked.load(Ordering::Relaxed), 1, "raw_lock holds it");
        // SAFETY: held via raw_lock above.
        unsafe { lock.raw_unlock() };
        assert_eq!(
            lock.locked.load(Ordering::Relaxed),
            0,
            "raw_unlock released"
        );
        assert_eq!(*lock.lock(), 0);
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
}
