//! Both arms of [`diehard_core::sync::Word`] in one process, through
//! `DieHard`'s public path.
//!
//! While a process has one thread the shipped allocator's read-modify-writes
//! are a load and a store; from its first `pthread_create` on they are locked
//! instructions (`sync`'s module docs). `cargo test`'s harness is threaded,
//! so nothing it runs ever reaches the first arm the way a host does — hence
//! `harness = false`. What each arm places and counts, op for op, is
//! `spec`'s to check against its model (`crates/core/src/spec.rs` calls both
//! arms' bodies directly); this file checks what needs a lone process:
//!
//! * **Arm selection.** `main` starts alone and runs one inline script on a
//!   fresh fixed-seed `DieHard` through `malloc` and `free`, which read the
//!   thread count themselves; it parks a second thread (which flips glibc's
//!   `__libc_single_threaded` for good) and runs the script again on a fresh
//!   one. Placements, counters and promoted classes must be equal.
//! * Alone, a call made inside a guarded one is diverted, and a fork child
//!   of the lone process keeps allocating on its copy of the heap.
//! * **The handover**: objects allocated and pattern-filled *before* the
//!   first spawn — slot states, tickets and counters all written with plain
//!   stores, some freed again — must be settled the moment the process stops
//!   being alone: the counters exact, because a call holds nothing outside
//!   the heap. The objects are then freed from four new threads while the
//!   main thread keeps churning the same heap. Contents are checked at every
//!   free, and at quiescence the books must balance exactly.

use diehard_core::config::HeapConfig;
use diehard_core::engine::HeapStats;
use diehard_core::global::{with_guard, DieHard, DEFAULT_GROW_LOG2};
use diehard_core::rng::Mwc;
use diehard_core::sharded::HUGE_PAGE;
use diehard_core::size_class::{SizeClass, NUM_CLASSES};
use diehard_core::sync::sole_thread;
use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};

const SEED: u64 = 0x501E_7EAD;

/// Objects the handover heap allocates while alone, and how many of them
/// it frees again before the first spawn.
const MADE_ALONE: usize = 20_000;
const FREED_ALONE: usize = 300;

/// What [`script`] left behind.
#[derive(Debug, PartialEq)]
struct Run {
    /// Each placement's address relative to the first (the span's address
    /// is the kernel's choice; everything inside it is the seed's).
    placed: Vec<usize>,
    stats: HeapStats,
    promoted: u32,
}

/// The inline script, on a fresh `DieHard` of the shipped geometry (32 MB
/// regions from a 64 KiB start): sizes spread evenly over all twelve
/// classes, then the 8-byte class busy but small, then the 64-byte class
/// through every step up to 4 MB — past the one that promotes it and the
/// one that completes its second huge page — with frees mixed in: every
/// fourth step frees a random live object, and every tenth of those frees
/// it twice (the second must be ignored, §4.3).
fn script() -> Run {
    const MIXED: usize = 300;
    let config = HeapConfig::paper_default();
    // The 64-byte class steps from 3.5 MB to 4 MB when its live count meets
    // the 3.5 MB range's `1/M` allowance.
    let hot_live = config.threshold_for(7 * HUGE_PAGE / 4 / 64) + 64;
    let heap = DieHard::with_elastic_config(config, SEED, DEFAULT_GROW_LOG2);
    let mut rng = Mwc::seeded(SEED ^ 0x5EED);
    // Live objects as `(address, size)`, and how many of them are 64 B.
    let mut live: Vec<(*mut u8, usize)> = Vec::new();
    let (mut placed, mut hot, mut frees, mut step) = (Vec::new(), 0usize, 0usize, 0usize);
    while hot < hot_live {
        step += 1;
        if step.is_multiple_of(4) {
            let (victim, size) = live.swap_remove(rng.below(live.len()));
            hot -= usize::from(size == 64);
            heap.free(victim);
            frees += 1;
            if frees.is_multiple_of(10) {
                heap.free(victim);
            }
            continue;
        }
        let size = match placed.len() {
            // A size of each class in turn's top half: 8 B … 16 KiB.
            n if n < MIXED => (8 << rng.below(NUM_CLASSES)) - rng.below(4),
            n if n < MIXED + 1024 => 8,
            _ => 64,
        };
        let p = heap.malloc(size);
        assert!(!p.is_null(), "step {step}: {size} B");
        placed.push(p as usize);
        live.push((p, size));
        hot += usize::from(size == 64);
    }
    let first = placed[0];
    Run {
        placed: placed.iter().map(|p| p.wrapping_sub(first)).collect(),
        stats: heap.stats(),
        promoted: heap.promoted_classes(),
    }
}

/// The run is worth comparing only if it went where the script's docs say
/// it goes.
fn assert_run_covers_the_protocol(run: &Run) {
    let hot = 1u32 << SizeClass::for_size(64).unwrap().index();
    assert_eq!(run.promoted, hot, "the 64-byte class, alone");
    let stats = run.stats;
    assert!(stats.frees > 1000, "{stats:?}");
    assert!(stats.ignored_frees > 100, "{stats:?}");
    assert_eq!(stats.exhausted, 0, "nothing was denied");
    assert_eq!(stats.allocs, run.placed.len() as u64);
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

/// A call into the allocator made inside a guarded one — glibc's own
/// bookkeeping, a signal handler — never reaches the heap while the process
/// is alone either: the guarded entries run their `nested` fallback
/// (`libdiehard.so`'s arena), and an unnested call is served as usual.
fn nested_calls_are_diverted_alone() {
    let heap = DieHard::with_config(HeapConfig::default(), SEED ^ 3);
    let layout = Layout::from_size_align(64, 16).unwrap();
    let p = heap.alloc_guarded(layout, || panic!("an outermost call is not nested"));
    assert!(!p.is_null());
    let diverted = with_guard(|reentered| {
        assert!(!reentered, "the flag starts clear");
        let arena = 0x5EA1_0000 as *mut u8;
        let nested = heap.alloc_guarded(layout, || arena);
        let mut dropped = false;
        heap.free_guarded(p, || dropped = true);
        (nested == arena, dropped)
    });
    assert_eq!(diverted, (true, true), "both nested calls diverted");
    let stats = heap.stats();
    assert_eq!(
        (stats.allocs, stats.frees),
        (1, 0),
        "only the outer call reached the heap"
    );
    heap.free_guarded(p, || panic!("an outermost call is not nested"));
    assert_eq!(heap.stats().frees, 1);
    assert_eq!(heap.live_objects(), 0);
}

/// The fork child of a process that has only ever had one thread is alone
/// too, and keeps allocating on its copy of the heap, while the parent's is
/// left as it was.
fn fork_child_keeps_allocating(heap: &DieHard, live: usize) {
    // SAFETY: the process has one thread, so no lock is held across the
    // fork by anyone else; the child makes no call that could need one and
    // leaves by `_exit`.
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        let mut rng = Mwc::seeded(SEED ^ 4);
        let ring: Vec<_> = (0..1000).map(|id| make(heap, &mut rng, id)).collect();
        let alone = sole_thread() == cfg!(target_env = "gnu");
        for object in ring {
            check_and_free(heap, object);
        }
        let books = heap.live_objects();
        // SAFETY: leaves the child without running the parent's teardown.
        unsafe { libc::_exit(if alone && books == live { 0 } else { 1 }) };
    }
    let mut status = -1;
    // SAFETY: `pid` is this process's child; `status` is a live out-pointer.
    assert_eq!(unsafe { libc::waitpid(pid, &raw mut status, 0) }, pid);
    assert_eq!(
        status, 0,
        "the fork child allocated, freed and balanced its books"
    );
}

/// What the objects made alone left in `heap`, read once the process has a
/// second thread: a call holds nothing outside the heap, so there is
/// nothing to hand over. Every object freed alone is dead already, and
/// every allocation and free is counted.
fn alone_leaves_nothing_to_hand_over(heap: &DieHard, freed: &[usize]) {
    for &p in freed {
        assert_eq!(heap.usable_size(p as *mut u8), 0, "{p:#x} was freed alone");
    }
    let stats = heap.stats();
    assert_eq!(stats.allocs, MADE_ALONE as u64, "{stats:?}");
    assert_eq!(stats.frees, FREED_ALONE as u64, "{stats:?}");
    assert_eq!((stats.ignored_frees, stats.exhausted), (0, 0));
    assert_eq!(heap.live_objects(), MADE_ALONE - FREED_ALONE);
}

/// Frees `before` — allocated while the process had one thread — from four
/// new threads while the main thread churns `heap`, then balances the books.
fn handover(heap: &DieHard, before: Vec<(usize, usize, usize)>) {
    const FREERS: usize = 4;
    const RING: usize = 512;
    let handed_over = before.len();
    let settled = heap.stats();
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
            let id = MADE_ALONE + churned;
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
    // Quiescence: the freers have returned, and every free was complete
    // when it did.
    let stats = heap.stats();
    assert_eq!(stats.allocs - settled.allocs, churned as u64);
    let freed = handed_over + churned - ring.len();
    assert_eq!(stats.frees - settled.frees, freed as u64);
    assert_eq!(stats.ignored_frees, 0, "every free found its object live");
    assert_eq!(stats.exhausted, 0, "and no class ran out");
    assert_eq!((stats.allocs - stats.frees) as usize, heap.live_objects());
    assert_eq!(heap.live_objects(), ring.len(), "exactly the ring is left");
    let distinct: HashSet<usize> = ring.iter().map(|object| object.0).collect();
    assert_eq!(distinct.len(), ring.len(), "no address handed out twice");
    for object in ring {
        check_and_free(heap, object);
    }
    assert_eq!(heap.live_objects(), 0);
}

fn main() {
    // Off glibc there is no flag to read and only the locked arm exists
    // (`sole_thread()` is a constant `false`): the script runs once, for its
    // coverage checks, and the handover runs as everywhere.
    let two_arms = cfg!(target_env = "gnu");
    assert_eq!(
        sole_thread(),
        two_arms,
        "a `harness = false` test starts with one thread, and on glibc the \
         allocator must see that"
    );
    let alone = two_arms.then(script);

    nested_calls_are_diverted_alone();

    // Allocated and filled with plain loads and stores, and some freed again,
    // each straight into the heap.
    let heap =
        DieHard::with_elastic_config(HeapConfig::paper_default(), SEED ^ 1, DEFAULT_GROW_LOG2);
    let mut rng = Mwc::seeded(SEED ^ 2);
    let mut before: Vec<_> = (0..MADE_ALONE)
        .map(|id| make(&heap, &mut rng, id))
        .collect();
    let freed: Vec<usize> = (0..FREED_ALONE)
        .map(|_| {
            let object = before.swap_remove(rng.below(before.len()));
            check_and_free(&heap, object);
            object.0
        })
        .collect();
    fork_child_keeps_allocating(&heap, before.len());
    assert_eq!(sole_thread(), two_arms, "nothing above spawns");

    // A second thread, parked for the rest of the run.
    let (unpark, parked) = mpsc::channel::<()>();
    let helper = std::thread::spawn(move || parked.recv().is_err());
    assert!(!sole_thread(), "pthread_create cleared the byte");

    alone_leaves_nothing_to_hand_over(&heap, &freed);
    let threaded = script();
    assert_run_covers_the_protocol(&threaded);
    if let Some(alone) = &alone {
        assert_run_covers_the_protocol(alone);
        let mut pairs = alone.placed.iter().zip(&threaded.placed);
        let diverged = pairs.position(|(a, b)| a != b);
        assert_eq!(diverged, None, "the first placement the arms disagree on");
        assert_eq!(alone, &threaded, "the two arms must run the same history");
    }

    handover(&heap, before);

    drop(unpark);
    assert!(
        helper.join().expect("helper"),
        "parked until the sender dropped"
    );
    println!(
        "single_thread: {} placements and {} frees through DieHard's public path, {}; \
         nested calls diverted and a fork child served alone; 20000 objects made \
         alone, nothing left to hand over, then freed by 4 threads",
        threaded.placed.len(),
        threaded.stats.frees + threaded.stats.ignored_frees,
        if two_arms {
            "identical in both arms"
        } else {
            "in the locked arm (no glibc: it is the only one)"
        },
    );
}
