//! Every arm of [`diehard_core::sync::Word`] in one process.
//!
//! While a process has one thread the shipped allocator's read-modify-writes
//! are a load and a store; from its first `pthread_create` on they are locked
//! instructions (`sync`'s module docs). `cargo test`'s harness is threaded,
//! so nothing it runs ever executes the first arm — hence `harness = false`:
//! `main` starts alone, drives a scripted history on fixed-seed heaps — the
//! shared arm uncached, the shared arm through a magazine cache, and
//! `DieHard` — parks a second thread (which flips glibc's
//! `__libc_single_threaded` for good), drives the same history again on
//! fresh heaps with the same seeds, and requires the two recordings to be
//! bit-identical: every placement, every free outcome, probe and heap
//! statistics, growth steps, promotions. Each drive also records the history on
//! a `Heap<Plain>` — the same code with the plain arm fixed at compile time —
//! and requires that trace to equal the shared heap's, whichever arm that
//! ran in.
//!
//! Then the handover the soundness argument rests on: objects allocated and
//! pattern-filled *before* the first spawn — slot states, tickets and
//! counters all written with plain stores — are freed from four new threads
//! while the main thread keeps churning the same heap. Contents are checked
//! at every free, and at quiescence the books must balance exactly.

mod common;

use common::{drive, record, Ops, Path, Recorder, Trace};
use diehard_core::config::HeapConfig;
use diehard_core::engine::HeapStats;
use diehard_core::global::{DieHard, DEFAULT_GROW_LOG2};
use diehard_core::rng::Mwc;
use diehard_core::sharded::{HUGE_PAGE, PROMOTE_AFTER_ALLOCS};
use diehard_core::size_class::{SizeClass, NUM_CLASSES};
use diehard_core::sync::{sole_thread, Arm, Plain, Shared};
use diehard_core::Heap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};

const SEED: u64 = 0x501E_7EAD;

/// A [`PromoteHook`](diehard_core::sharded::PromoteHook) for the heaps that
/// own no memory: without one they never promote. What it is called with is
/// `growth.rs`'s business; here the promoted masks and advised lengths are
/// compared.
fn no_memory_to_advise(_ctx: usize, _offset: usize, _len: usize) -> bool {
    true
}

/// `growth.rs`'s shipped-ladder history (32 MB regions from a 64 KiB start:
/// sizes spread evenly over all twelve classes, then the 8-byte class hot but small, then
/// the 64-byte class through every step up to 4 MB — past the one that
/// promotes it and the one that completes its second huge page), with frees
/// mixed in so free buffers fill and flush: every
/// fourth step frees a random live object, and every tenth of those frees it
/// twice (the second must be ignored, §4.3).
fn script(r: &mut Recorder<'_>) {
    const MIXED: usize = 300;
    let small_hot = MIXED + 2 * PROMOTE_AFTER_ALLOCS as usize;
    // The 64-byte class steps from 3.5 MB to 4 MB when its live count meets
    // the 3.5 MB range's `1/M` allowance.
    let hot_live = HeapConfig::paper_default().threshold_for(7 * HUGE_PAGE / 4 / 64) + 64;
    let mut rng = Mwc::seeded(SEED ^ 0x5EED);
    // Live objects as `(address, size)`, and how many of them are 64 B.
    let mut live: Vec<(usize, usize)> = Vec::new();
    let mut hot = 0usize;
    let mut frees = 0usize;
    let mut step = 0usize;
    while hot < hot_live {
        step += 1;
        if step.is_multiple_of(4) {
            let (victim, size) = live.swap_remove(rng.below(live.len()));
            hot -= usize::from(size == 64);
            r.free(victim);
            frees += 1;
            if frees.is_multiple_of(10) {
                r.free(victim);
            }
            continue;
        }
        let allocs = r.ops.placed.len();
        let size = if allocs < MIXED {
            // A size of each class in turn's top half: 8 B … 16 KiB.
            (8 << rng.below(NUM_CLASSES)) - rng.below(4)
        } else if allocs < small_hot {
            8
        } else {
            64
        };
        let at = r.alloc(size);
        live.extend(at.map(|at| (at, size)));
        hot += usize::from(size == 64 && at.is_some());
    }
}

/// The global allocator as a path: addresses for offsets, and a `free` that
/// reports nothing.
impl Path for &DieHard {
    fn alloc(&mut self, size: usize) -> Option<usize> {
        let p = self.malloc(size);
        (!p.is_null()).then_some(p as usize)
    }

    fn free(&mut self, at: usize) -> bool {
        DieHard::free(self, at as *mut u8);
        true
    }
}

/// Everything one run-time arm recorded.
#[derive(Debug, PartialEq)]
struct Recording {
    /// The shared arm, uncached and through a magazine cache.
    uncached: Trace,
    cached: Trace,
    /// `DieHard`'s placements relative to its first (the span's address is
    /// the kernel's choice; everything inside it is the seed's).
    global: Ops,
    global_stats: HeapStats,
    global_promoted: u32,
    /// `DieHard` after its flush: `(live_objects, reserved_slots)`.
    global_books: (usize, usize),
}

/// A fresh fixed-seed heap of the shipped geometry in arm `A`.
fn fresh<A: Arm>() -> Heap<A> {
    let config = HeapConfig::paper_default();
    let mut heap = Heap::new_elastic(config, SEED, DEFAULT_GROW_LOG2).unwrap();
    heap.set_promote_hook(no_memory_to_advise, 0);
    heap
}

/// Drives [`script`] on a fresh fixed-seed heap by each path.
fn drive_all() -> Recording {
    let uncached = record(&fresh::<Shared>(), false, script);
    let cached = record(&fresh::<Shared>(), true, script);
    // The simulator's heap: the compile-time plain arm of the same code.
    let plain = record(&fresh::<Plain>(), false, script);
    plain.assert_same(&uncached, "Heap<Plain> against Heap<Shared>");

    let global = DieHard::with_elastic_config(HeapConfig::paper_default(), SEED, DEFAULT_GROW_LOG2);
    let mut global_ops = drive(&mut &global, script);
    let first = global_ops.placed[0].expect("the first allocation is placed");
    for at in global_ops.placed.iter_mut().flatten() {
        *at = at.wrapping_sub(first);
    }
    Recording {
        uncached,
        cached,
        global_stats: global.stats(),
        global_promoted: global.promoted_classes(),
        global_books: (global.live_objects(), global.reserved_slots()),
        global: global_ops,
    }
}

/// The history is worth pinning only if it went where the docs say it goes.
fn assert_history_covers_the_protocol(r: &Recording) {
    let hot = 1u32 << SizeClass::for_size(64).unwrap().index();
    let promoted = [r.uncached.promoted, r.cached.promoted, r.global_promoted];
    assert_eq!(promoted, [hot; 3], "the 64-byte class, alone, everywhere");
    // 64 KiB → 4 MB is 24 quarter-band steps of the 64-byte class alone,
    // and two huge pages of it advised.
    let growths = [r.uncached.growths, r.cached.growths];
    assert!(growths.iter().all(|&g| g >= 24), "{growths:?}");
    let hot_class = SizeClass::for_size(64).unwrap().index();
    let advised = [&r.uncached.advised, &r.cached.advised].map(|a| a[hot_class]);
    assert_eq!(advised, [2 * HUGE_PAGE; 2]);
    let per_class = r.uncached.probe_stats.iter().zip(&r.cached.probe_stats);
    for (class, (uncached, cached)) in per_class.enumerate() {
        assert!(uncached.0 > 0 && cached.0 > 0, "class {class} was used");
        assert!(uncached.1 >= uncached.0 && cached.1 >= cached.0);
    }
    let all_stats = [r.uncached.stats, r.cached.stats, r.global_stats];
    for (column, stats) in all_stats.iter().enumerate() {
        assert!(stats.frees > 1000, "column {column}: {stats:?}");
        assert!(stats.ignored_frees > 100, "column {column}: {stats:?}");
        assert_eq!(stats.exhausted, 0, "column {column}: nothing was denied");
    }
    assert_eq!(r.cached.stats, r.global_stats, "DieHard is the cached heap");
    assert_eq!(r.cached.ops.placed.len(), r.global.placed.len());
    let first = r.cached.ops.placed[0].unwrap();
    let pairs = r.cached.ops.placed.iter().zip(&r.global.placed);
    for (i, (m, g)) in pairs.enumerate() {
        assert_eq!(m.map(|off| off.wrapping_sub(first)), *g, "placement {i}");
    }
    let live = (r.global_stats.allocs - r.global_stats.frees) as usize;
    assert_eq!(
        r.global_books,
        (live, 0),
        "allocs − frees live, none reserved"
    );
}

/// The byte every byte of object `id` holds.
fn tag(id: usize) -> u8 {
    (id % 251) as u8 + 1
}

/// Allocates and fills object `id` (8 … 1023 bytes: the twenty thousand held
/// at once stay far below every class's `1/M` cap at its maximum).
fn make(heap: &DieHard, rng: &mut Mwc, id: usize) -> (usize, usize, usize) {
    let size = 8 + rng.below(1016);
    let p = heap.malloc(size);
    assert!(!p.is_null(), "object {id} ({size} B)");
    // SAFETY: a live object of `size` bytes.
    unsafe { p.write_bytes(tag(id), size) };
    (p as usize, size, id)
}

/// Checks that object `id` still holds its pattern, then frees it.
fn check_and_free(heap: &DieHard, (p, size, id): (usize, usize, usize)) {
    // SAFETY: the caller owns this live object of `size` bytes.
    let bytes = unsafe { std::slice::from_raw_parts(p as *const u8, size) };
    assert!(
        bytes.iter().all(|&b| b == tag(id)),
        "object {id} at {p:#x} was handed to someone else while live"
    );
    heap.free(p as *mut u8);
}

/// Frees `before` — allocated while the process had one thread — from four
/// new threads while the main thread churns `heap`, then balances the books.
fn handover(heap: &DieHard, before: Vec<(usize, usize, usize)>) {
    const FREERS: usize = 4;
    const RING: usize = 512;
    let handed_over = before.len();
    let start = Barrier::new(FREERS + 1);
    let done = AtomicUsize::new(0);
    let mut rng = Mwc::seeded(SEED ^ 0xC4);
    let mut ring: Vec<(usize, usize, usize)> = Vec::new();
    let mut churned = 0usize;
    std::thread::scope(|s| {
        for chunk in before.chunks(handed_over.div_ceil(FREERS)) {
            let (start, done) = (&start, &done);
            s.spawn(move || {
                start.wait();
                for &object in chunk {
                    check_and_free(heap, object);
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        start.wait();
        while done.load(Ordering::Acquire) < FREERS || churned < 20_000 {
            let id = handed_over + churned;
            churned += 1;
            let object = make(heap, &mut rng, id);
            if ring.len() < RING {
                ring.push(object);
            } else {
                let victim = rng.below(RING);
                check_and_free(heap, std::mem::replace(&mut ring[victim], object));
            }
        }
    });
    // Quiescence: the freers' magazines flushed at thread exit, and every
    // accessor below flushes this thread's first.
    let stats = heap.stats();
    assert_eq!(stats.allocs, (handed_over + churned) as u64);
    assert_eq!(stats.ignored_frees, 0, "every free found its object live");
    assert_eq!(stats.exhausted, 0, "and no class ran out");
    assert_eq!((stats.allocs - stats.frees) as usize, heap.live_objects());
    assert_eq!(heap.live_objects(), ring.len(), "exactly the ring is left");
    assert_eq!(heap.reserved_slots(), 0);
    let distinct: HashSet<usize> = ring.iter().map(|object| object.0).collect();
    assert_eq!(distinct.len(), ring.len(), "no address handed out twice");
    for object in ring {
        check_and_free(heap, object);
    }
    assert_eq!(heap.live_objects(), 0);
}

fn main() {
    // Off glibc there is no flag to read and only the locked arm exists
    // (`sole_thread()` is a constant `false`): the history is driven once,
    // for its coverage checks, and the handover runs as everywhere.
    let two_arms = cfg!(target_env = "gnu");
    assert_eq!(
        sole_thread(),
        two_arms,
        "a `harness = false` test starts with one thread, and on glibc the \
         `global` feature must see that"
    );
    let alone = two_arms.then(drive_all);

    // Allocated and filled with plain loads and stores.
    let heap =
        DieHard::with_elastic_config(HeapConfig::paper_default(), SEED ^ 1, DEFAULT_GROW_LOG2);
    let mut rng = Mwc::seeded(SEED ^ 2);
    let before: Vec<_> = (0..20_000).map(|id| make(&heap, &mut rng, id)).collect();
    assert_eq!(sole_thread(), two_arms, "nothing above spawns");

    // A second thread, parked for the rest of the run.
    let (unpark, parked) = mpsc::channel::<()>();
    let helper = std::thread::spawn(move || parked.recv().is_err());
    assert!(!sole_thread(), "pthread_create cleared the byte");

    let threaded = drive_all();
    assert_history_covers_the_protocol(&threaded);
    if let Some(alone) = &alone {
        assert_eq!(
            alone, &threaded,
            "the two arms must record the same history"
        );
    }

    handover(&heap, before);

    drop(unpark);
    assert!(
        helper.join().expect("helper"),
        "parked until the sender dropped"
    );
    println!(
        "single_thread: {} placements, {} frees and all counters {}, \
         and on Heap<Plain>'s compile-time plain arm; \
         20000 objects handed over to 4 threads",
        threaded.uncached.ops.placed.len() * 3,
        threaded.uncached.ops.freed.len() * 3,
        if two_arms {
            "identical in both arms"
        } else {
            "recorded in the locked arm (no glibc: it is the only one)"
        },
    );
}
