//! Both arms of [`diehard_core::sync::Word`] in one process.
//!
//! While a process has one thread the shipped allocator's read-modify-writes
//! are a load and a store; from its first `pthread_create` on they are locked
//! instructions (`sync`'s module docs). `cargo test`'s harness is threaded,
//! so nothing it runs ever executes the first arm — hence `harness = false`:
//! `main` starts alone, drives a scripted history on fixed-seed heaps — the
//! shared heap and `DieHard` — parks a second thread (which flips glibc's
//! `__libc_single_threaded` for good), drives the same history again on
//! fresh heaps with the same seeds, and requires the heap's traces of the
//! two arms to be bit-identical: every placement, every free outcome, probe
//! and heap statistics, growth steps, promotions. Each drive also records
//! the histories `growth.rs` pins (both ladders, the mixed history on both,
//! and the promotion script, with the promote hook's calls): `growth.rs`
//! runs them in the locked arm only, and here each one's load + store trace
//! must equal its locked one.
//!
//! `DieHard` takes the heap's one path in each arm, so in both its
//! placements and counters must be that trace's. Alone it also diverts a
//! call made inside a guarded one, and a fork child of the lone process
//! keeps allocating on its copy of the heap.
//!
//! Then the handover: objects allocated and pattern-filled *before* the
//! first spawn — slot states, tickets and counters all written with plain
//! stores, some freed again — must be settled the moment the process stops
//! being alone: the counters exact, because a call holds nothing outside
//! the heap. The objects are then freed from four new threads while the
//! main thread keeps churning the same heap. Contents are checked at every
//! free, and at quiescence the books must balance exactly.

mod common;

use common::{drive, record, Ops, Path, Recorder, Trace, START_64K_LOG2};
use diehard_core::config::HeapConfig;
use diehard_core::engine::HeapStats;
use diehard_core::global::{with_guard, DieHard, DEFAULT_GROW_LOG2};
use diehard_core::rng::Mwc;
use diehard_core::sharded::HUGE_PAGE;
use diehard_core::size_class::{SizeClass, NUM_CLASSES};
use diehard_core::sync::sole_thread;
use diehard_core::Heap;
use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};

const SEED: u64 = 0x501E_7EAD;

/// Objects the handover heap allocates while alone, and how many of them
/// it frees again before the first spawn.
const MADE_ALONE: usize = 20_000;
const FREED_ALONE: usize = 300;

/// A [`PromoteHook`](diehard_core::sharded::PromoteHook) for the heaps that
/// own no memory: without one they never promote. What it is called with is
/// `growth.rs`'s business; here the promoted masks are compared.
fn no_memory_to_advise(_ctx: usize, _offset: usize, _len: usize) {}

/// Every `(offset, len)` a [`note_promotion`] hook has been handed since
/// [`growth_histories`] last took them.
static PROMOTIONS: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// The promote hook of the `growth.rs` histories: takes notes.
fn note_promotion(_ctx: usize, offset: usize, len: usize) {
    PROMOTIONS.lock().unwrap().push((offset, len));
}

/// `growth.rs`'s shipped-ladder history (32 MB regions from a 64 KiB start:
/// sizes spread evenly over all twelve classes, then the 8-byte class busy but small, then
/// the 64-byte class through every step up to 4 MB — past the one that
/// promotes it and the one that completes its second huge page), with frees
/// mixed in: every fourth step frees a random live object, and every tenth
/// of those frees it twice (the second must be ignored, §4.3).
fn script(r: &mut Recorder<'_>) {
    const MIXED: usize = 300;
    let small_hot = MIXED + 1024;
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
#[derive(Debug)]
struct Recording {
    /// The shared heap.
    heap: Trace,
    /// `DieHard`'s placements relative to its first (the span's address is
    /// the kernel's choice; everything inside it is the seed's).
    global: Ops,
    global_stats: HeapStats,
    global_promoted: u32,
    global_live: usize,
    /// `growth.rs`'s histories, each with the calls its hook was handed.
    growth: Vec<(Trace, Vec<(usize, usize)>)>,
}

/// A fresh fixed-seed heap of the shipped geometry.
fn fresh() -> Heap {
    let config = HeapConfig::paper_default();
    let mut heap = Heap::new_elastic(config, SEED, DEFAULT_GROW_LOG2).unwrap();
    heap.set_promote_hook(no_memory_to_advise, 0);
    heap
}

/// `growth.rs`'s histories with its seeds, on fresh heaps of its two
/// ladders: the alloc-only ladder history with a promote hook and the mixed
/// history without one on each, then the promotion script with a hook.
fn growth_histories() -> Vec<(Trace, Vec<(usize, usize)>)> {
    let (ladder_seed, mixed_seed, promote_seed) = (0xD17EC7, 0x6F0ED1, 0x57E9);
    let elastic = |config: &HeapConfig, seed, fraction, hook: bool| {
        let mut heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        if hook {
            heap.set_promote_hook(note_promotion, 0);
        }
        heap
    };
    let mut histories = Vec::new();
    let mut keep = |trace| {
        let calls = std::mem::take(&mut *PROMOTIONS.lock().unwrap());
        histories.push((trace, calls));
    };
    for (config, fraction, mixed) in common::ladders() {
        let sizes = common::ladder_sizes(&config, ladder_seed, mixed);
        let heap = elastic(&config, ladder_seed, fraction, true);
        keep(record(&heap, |r| {
            for size in sizes {
                r.alloc(size);
            }
        }));
        let heap = elastic(&config, mixed_seed, fraction, false);
        keep(record(&heap, common::mixed_script(mixed_seed)));
    }
    let config = HeapConfig::paper_default();
    let heap = elastic(&config, promote_seed, START_64K_LOG2, true);
    keep(record(&heap, common::promote_script(promote_seed)));
    histories
}

/// Drives [`script`] on a fresh fixed-seed heap by each path, then
/// `growth.rs`'s histories.
fn drive_all() -> Recording {
    let heap = record(&fresh(), script);

    let global = DieHard::with_elastic_config(HeapConfig::paper_default(), SEED, DEFAULT_GROW_LOG2);
    let mut global_ops = drive(&mut &global, script);
    let first = global_ops.placed[0].expect("the first allocation is placed");
    for at in global_ops.placed.iter_mut().flatten() {
        *at = at.wrapping_sub(first);
    }
    Recording {
        heap,
        global_stats: global.stats(),
        global_promoted: global.promoted_classes(),
        global_live: global.live_objects(),
        global: global_ops,
        growth: growth_histories(),
    }
}

/// The history is worth pinning only if it went where the docs say it goes;
/// and `DieHard`'s part of it must be the heap's trace, in either arm.
fn assert_history_covers_the_protocol(r: &Recording) {
    let hot = 1u32 << SizeClass::for_size(64).unwrap().index();
    let promoted = [r.heap.promoted, r.global_promoted];
    assert_eq!(promoted, [hot; 2], "the 64-byte class, alone, everywhere");
    // 64 KiB → 4 MB is 24 quarter-band steps of the 64-byte class alone.
    assert!(r.heap.growths >= 24, "{}", r.heap.growths);
    for (class, (allocs, probes)) in r.heap.probe_stats.iter().enumerate() {
        assert!(*allocs > 0, "class {class} was used");
        assert!(probes >= allocs);
    }
    for (column, stats) in [r.heap.stats, r.global_stats].iter().enumerate() {
        assert!(stats.frees > 1000, "column {column}: {stats:?}");
        assert!(stats.ignored_frees > 100, "column {column}: {stats:?}");
        assert_eq!(stats.exhausted, 0, "column {column}: nothing was denied");
    }
    let (path, what) = (&r.heap, "DieHard is the heap");
    assert_eq!(path.stats, r.global_stats, "{what}");
    assert_eq!(path.ops.placed.len(), r.global.placed.len(), "{what}");
    let first = path.ops.placed[0].unwrap();
    let pairs = path.ops.placed.iter().zip(&r.global.placed);
    for (i, (m, g)) in pairs.enumerate() {
        assert_eq!(
            m.map(|off| off.wrapping_sub(first)),
            *g,
            "{what}: placement {i}"
        );
    }
    let live = (r.global_stats.allocs - r.global_stats.frees) as usize;
    assert_eq!(r.global_live, live, "allocs − frees live");
    for (i, (trace, _)) in r.growth.iter().enumerate() {
        assert!(trace.growths > 0, "growth.rs history {i} grew");
    }
    let promoted = r.growth.iter().map(|(_, calls)| calls.len());
    assert_eq!(
        promoted.collect::<Vec<_>>(),
        [0, 0, 14, 0, 1],
        "promote calls: none on 1 MB regions; on the shipped ladder twelve for \
         the 64-byte class's whole region and two for the 16 KiB class, which the \
         mixed sizes took to 4 MB; one for the promotion script"
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
    // (`sole_thread()` is a constant `false`): the history is driven once,
    // for its coverage checks, and the handover runs as everywhere.
    let two_arms = cfg!(target_env = "gnu");
    assert_eq!(
        sole_thread(),
        two_arms,
        "a `harness = false` test starts with one thread, and on glibc the \
         allocator must see that"
    );
    let alone = two_arms.then(drive_all);

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
    let threaded = drive_all();
    assert_history_covers_the_protocol(&threaded);
    if let Some(alone) = &alone {
        assert_history_covers_the_protocol(alone);
        let arms = "the two arms must record the same history";
        alone.heap.assert_same(&threaded.heap, arms);
        for (i, (a, b)) in alone.growth.iter().zip(&threaded.growth).enumerate() {
            let what = format!("growth.rs history {i}: {arms}");
            a.0.assert_same(&b.0, &what);
            assert_eq!(a.1, b.1, "{what}: promote hook calls");
        }
    }

    handover(&heap, before);

    drop(unpark);
    assert!(
        helper.join().expect("helper"),
        "parked until the sender dropped"
    );
    let growth = |count: fn(&Ops) -> usize| -> usize {
        threaded
            .growth
            .iter()
            .map(|(trace, _)| count(&trace.ops))
            .sum()
    };
    println!(
        "single_thread: {} placements, {} frees and all counters {} (the heap and \
         DieHard, and growth.rs's {} histories); nested calls diverted and a fork \
         child served alone; 20000 objects made alone, nothing left to hand over, \
         then freed by 4 threads",
        threaded.heap.ops.placed.len() * 2 + growth(|ops| ops.placed.len()),
        threaded.heap.ops.freed.len() * 2 + growth(|ops| ops.freed.len()),
        if two_arms {
            "identical in both arms"
        } else {
            "recorded in the locked arm (no glibc: it is the only one)"
        },
        threaded.growth.len(),
    );
}
