//! Integration suite for elastic region growth: the §9 adaptive-heap idea,
//! one mechanism in one heap. A heap born at a fraction of its
//! maximum capacity must absorb a max-capacity workload by climbing its
//! quarter-band ladder under `1/M`-cap pressure (no OOM), spill — not crash —
//! past the final cap, never hold more than a quarter (and one step) above
//! `M` × what has been live,
//! keep single-threaded histories bit-identical, and
//! keep its statistics exact while growth races allocations and frees — and
//! stay bit-identical through huge-page promotions
//! (advice draws no random numbers and moves no object), which a class gets
//! at the growth step that completes each whole huge page of its active
//! range, once. The libtest harness is threaded, so everything here runs
//! the locked arm; `single_thread.rs` records the same histories alone, in
//! the load + store arm, and requires them equal. Run with
//! `RUST_TEST_THREADS=8` in CI so the race tests overlap with each other as
//! well as within themselves.

mod common;

use common::{record, START_64K_LOG2};
use diehard_core::config::HeapConfig;
use diehard_core::engine::AllocOutcome;
use diehard_core::partition::Partition;
use diehard_core::rng::Mwc;
use diehard_core::sharded::HUGE_PAGE;
use diehard_core::size_class::SizeClass;
use diehard_core::Heap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The acceptance scenario: a heap started at 1/64 of its maximum absorbs
/// a max-capacity workload in **every** class with no OOM — each class
/// serves its full-size `1/M` allowance — and the request past the final
/// cap is [`AllocOutcome::Spill`], not a crash. Growth is exact: each
/// class takes precisely the steps its ladder has between start and maximum.
#[test]
fn heap_started_at_one_64th_absorbs_max_capacity_workload() {
    let config = HeapConfig::default();
    let heap: Heap = Heap::new_elastic(config.clone(), 0xACCE57, 6).unwrap();
    let mut expected_steps = 0u64;
    for class in SizeClass::all() {
        let size = class.object_size();
        let allowance = config.threshold(class);
        for i in 0..allowance {
            assert!(
                heap.try_alloc(size).placed().is_some(),
                "class {} allocation {i} of {allowance} must not OOM",
                class.index()
            );
        }
        assert_eq!(
            heap.try_alloc(size),
            AllocOutcome::Spill,
            "class {} past its final 1/M cap",
            class.index()
        );
        expected_steps += rungs_above_start(&heap, class);
    }
    assert_eq!(heap.growth_events(), expected_steps);
    for class in SizeClass::all() {
        assert_eq!(
            heap.partition(class).capacity(),
            heap.geometry().capacity(class),
            "class {} grew to its maximum",
            class.index()
        );
    }
}

/// How many steps `class`'s ladder has between the capacity `heap` started
/// it at and its maximum (the rungs themselves are `partition.rs`'s to pin).
fn rungs_above_start(heap: &Heap, class: SizeClass) -> u64 {
    let geometry = heap.geometry();
    let (max, start) = (geometry.capacity(class), geometry.initial_capacity(class));
    let walker = Partition::new_elastic(class, max, start, geometry.initial_threshold(class), 0);
    std::iter::from_fn(|| walker.grow_step(heap.config()).then_some(())).count() as u64
}

/// Every `(ctx, offset, len)` a [`note_promotion`] hook has been called
/// with; each test filters by the `ctx` values it hands out.
static PROMOTIONS: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());

/// A [`PromoteHook`](diehard_core::sharded::PromoteHook) that only takes
/// notes.
fn note_promotion(ctx: usize, offset: usize, len: usize) {
    PROMOTIONS.lock().unwrap().push((ctx, offset, len));
}

/// The `(offset, len)` calls [`note_promotion`] saw for `ctx`.
fn promotions_of(ctx: usize) -> Vec<(usize, usize)> {
    let calls = PROMOTIONS.lock().unwrap();
    let of_ctx = calls.iter().filter(|call| call.0 == ctx);
    of_ctx.map(|&(_, off, len)| (off, len)).collect()
}

/// The calls [`note_promotion`] saw for `ctx` inside `class`'s region.
fn promotions_in(heap: &Heap, ctx: usize, class: SizeClass) -> Vec<(usize, usize)> {
    let base = heap.geometry().region_base(class);
    let region = base..base + heap.config().region_bytes;
    let calls = promotions_of(ctx).into_iter();
    calls.filter(|call| region.contains(&call.0)).collect()
}

/// The rule's calls for `class` of `heap` on its way from its start to
/// `capacity`, walked on a bare partition: the whole huge pages of each new
/// active range that no earlier step reached, counted from 0 at the first
/// step; nothing at a step that completes none.
fn ladder_promotions(heap: &Heap, class: SizeClass, capacity: usize) -> Vec<(usize, usize)> {
    let geometry = heap.geometry();
    let (max, start) = (geometry.capacity(class), geometry.initial_capacity(class));
    let walker = Partition::new_elastic(class, max, start, geometry.initial_threshold(class), 0);
    let base = geometry.region_base(class);
    let (mut calls, mut offered) = (Vec::new(), 0);
    while walker.capacity() < capacity && walker.grow_step(heap.config()) {
        let whole = walker.capacity() * class.object_size() / HUGE_PAGE * HUGE_PAGE;
        if whole > offered {
            calls.push((base + offered, whole - offered));
            offered = whole;
        }
    }
    calls
}

/// What every test with a hook holds: the calls `class` has had are the
/// ladder's up to its capacity now — whole huge pages inside its active
/// range, each once, in order.
fn assert_promotions_follow_the_ladder(heap: &Heap, ctx: usize, class: SizeClass) {
    let capacity = heap.partition(class).capacity();
    assert_eq!(
        promotions_in(heap, ctx, class),
        ladder_promotions(heap, class, capacity),
        "class {} at {capacity} slots",
        class.index()
    );
}

/// The ladder history of [`single_threaded_histories_identical_across_layers`]
/// ([`common::ladder_sizes`]) on one heap, by one path. Returns the trace
/// and the capacity of the 64-byte class when its promotion was first seen.
fn ladder(heap: &Heap, seed: u64, mixed: usize) -> (common::Trace, Option<usize>) {
    let small = SizeClass::for_size(8).unwrap();
    let hot = SizeClass::for_size(64).unwrap();
    let small_hot = mixed + 1024;
    let mut promoted_at = None;
    let trace = record(heap, |r| {
        for (i, size) in common::ladder_sizes(heap.config(), seed, mixed).enumerate() {
            let at = r.alloc(size);
            assert!(
                at.is_some() || i < mixed,
                "op {i} (size {size}) is under its cap"
            );
            let promoted = heap.promoted_classes();
            assert_eq!(
                promoted & 1 << small.index(),
                0,
                "op {i}: 8 B spans no 2 MB"
            );
            if promoted_at.is_none() && promoted & 1 << hot.index() != 0 {
                assert!(i >= small_hot, "op {i}: 64 B spans no 2 MB yet");
                promoted_at = Some(heap.partition(hot).capacity());
            }
        }
    });
    (trace, promoted_at)
}

/// Single-threaded alloc-only histories are bit-identical with and without
/// a promote hook at the same seed and start fraction, through **every**
/// step up to the maximum: growth triggers at the same pressure points in
/// each and consumes no RNG draws. Two ladders, both columns and their
/// offsets on both: the §9 experiments' (1 MB regions from 1/64) and the
/// shipped one (32 MB regions from 64 KiB; `global`'s tests add `DieHard`,
/// and `single_thread.rs` the load + store arm, recorded alone). On the
/// shipped ladder the history runs through a
/// class that is busy and stays small (never promoted), a class promoted at
/// the step that takes it to one huge page, and the sixteen steps after it,
/// each of which is offered exactly the huge pages it completed; every
/// class's calls are its ladder's, and regions smaller than a huge page are
/// never promoted. None of it is visible in placement.
#[test]
fn single_threaded_histories_identical_across_layers() {
    let seed = 0xD17EC7;
    let small = SizeClass::for_size(8).unwrap();
    let hot = SizeClass::for_size(64).unwrap();
    for (config, fraction, mixed) in common::ladders() {
        let ctx = 0x1A77 + fraction as usize;
        let shared: Heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        let mut hooked: Heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        hooked.set_promote_hook(note_promotion, ctx);

        let (unhooked, _) = ladder(&shared, seed, mixed);
        let (with_hook, promoted_at) = ladder(&hooked, seed, mixed);
        // Placements (hence offsets), statistics, growth steps and
        // per-class probe counts: the hook moves nothing.
        unhooked.ops.assert_same(&with_hook.ops, "promote hook");
        assert_eq!(unhooked.stats, with_hook.stats);
        assert_eq!(unhooked.growths, with_hook.growths);
        assert_eq!(unhooked.promoted, 0, "no hook, no promotion");

        let max = config.capacity(hot);
        for capacity in [
            shared.partition(hot).capacity(),
            hooked.partition(hot).capacity(),
        ] {
            assert_eq!(capacity, max);
        }
        assert!(
            with_hook.probe_stats[small.index()].0 >= 1024,
            "the 8-byte class is busy"
        );
        // Only whole huge pages are promoted: on the 32 MB regions the
        // 64-byte class from the step that made its range one, and whatever
        // else grew that far; the 8-byte class never.
        let promotes = config.region_bytes >= HUGE_PAGE;
        let mut expected = 0;
        for class in SizeClass::all() {
            assert_promotions_follow_the_ladder(&hooked, ctx, class);
            let capacity = hooked.partition(class).capacity();
            let offered = !ladder_promotions(&hooked, class, capacity).is_empty();
            expected |= u32::from(offered) << class.index();
        }
        assert_eq!(with_hook.promoted, expected);
        assert_eq!(expected & 1 << small.index(), 0);
        assert_eq!(
            expected & 1 << hot.index(),
            u32::from(promotes) << hot.index()
        );
        assert_eq!(
            promoted_at,
            promotes.then_some(HUGE_PAGE / hot.object_size())
        );
        let calls = promotions_in(&hooked, ctx, hot);
        assert_eq!(
            calls.first().map(|call| call.1),
            promotes.then_some(HUGE_PAGE)
        );
        // 2 MB at 2, 4, 6, … 16 MB, then 4 MB at 20, 24, 28 and 32 MB: the
        // whole region, each huge page once.
        assert_eq!(calls.len(), usize::from(promotes) * 12);
        let offered: usize = calls.iter().map(|call| call.1).sum();
        assert_eq!(offered, usize::from(promotes) * config.region_bytes);
    }
}

/// Mixed alloc/free histories ([`common::mixed_script`]) stay bit-identical
/// with and without a promote hook, growth included, on the §9 ladder and
/// on the shipped one (where the hook is called: the 1 KiB class reaches a
/// huge page): every placement, every free outcome, the statistics,
/// the per-class probe counts and the growth count agree across 20k
/// interleaved ops. (`single_thread.rs` requires the load + store arm's
/// history to be this one.)
#[test]
fn mixed_history_identical_before_and_after_growth() {
    let seed = 0x6F0ED1;
    for (config, fraction, _) in common::ladders() {
        let heap: Heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        let mut hooked: Heap = Heap::new_elastic(config, seed, fraction).unwrap();
        hooked.set_promote_hook(note_promotion, 0x6F0 + fraction as usize);
        let unhooked = record(&heap, common::mixed_script(seed));
        let with_hook = record(&hooked, common::mixed_script(seed));
        assert!(unhooked.growths > 0);
        unhooked.ops.assert_same(&with_hook.ops, "promote hook");
        assert_eq!(unhooked.stats, with_hook.stats);
        assert_eq!(unhooked.growths, with_hook.growths);
        assert_eq!(unhooked.probe_stats, with_hook.probe_stats);
    }
}

/// Elastic with fraction 0 *is* the fixed heap: initial == maximum, zero
/// growth events, and a bit-identical mixed history against `new`.
#[test]
fn elastic_fraction_zero_is_bit_identical_to_fixed() {
    let seed = 0xF1DE77;
    let fixed: Heap = Heap::new(HeapConfig::default(), seed).unwrap();
    let elastic: Heap = Heap::new_elastic(HeapConfig::default(), seed, 0).unwrap();
    let mut rng = Mwc::seeded(seed ^ 1);
    let mut live: Vec<usize> = Vec::new();
    for _ in 0..5000usize {
        if rng.below(2) == 0 || live.is_empty() {
            let size = 1 + rng.below(16 * 1024);
            let f = fixed.alloc(size);
            assert_eq!(f, elastic.alloc(size));
            if let Some(slot) = f {
                live.push(fixed.offset_of(slot));
            }
        } else {
            let off = live.swap_remove(rng.below(live.len()));
            assert_eq!(fixed.free_at(off), elastic.free_at(off));
        }
    }
    assert_eq!(elastic.growth_events(), 0);
}

/// Growth racing lock-free allocations and frees: 8 threads push one class
/// from its 1/64 start to its maximum with no frees in flight, so the
/// ticket cap makes the outcome exact — the served total is the full-size
/// threshold, the step count is exactly the ladder's rungs between start and
/// maximum, and the post-drain accounting reconciles to zero.
#[test]
fn concurrent_alloc_pressure_grows_exactly_once_per_threshold() {
    const THREADS: u64 = 8;
    let config = HeapConfig::default().with_region_bytes(256 * 1024);
    let class0 = SizeClass::from_index(0);
    let h: Arc<Heap> = Arc::new(Heap::new_elastic(config.clone(), 0x6A0E, 6).unwrap());
    let attempted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    // No thread frees until every thread has spilled: with zero frees in
    // flight during the pressure phase, occupancy is monotone and the
    // served total is exactly the full-size threshold.
    let drained = Arc::new(Barrier::new(THREADS as usize));

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let h = Arc::clone(&h);
        let attempted = Arc::clone(&attempted);
        let served = Arc::clone(&served);
        let drained = Arc::clone(&drained);
        handles.push(std::thread::spawn(move || {
            let mut live: Vec<usize> = Vec::new();
            loop {
                attempted.fetch_add(1, Ordering::Relaxed);
                match h.try_alloc(8) {
                    AllocOutcome::Placed(slot) => {
                        served.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    AllocOutcome::Spill => break,
                    AllocOutcome::Unsupported => panic!("8 bytes is a supported class"),
                }
            }
            drained.wait();
            for off in live {
                assert!(h.free_at(off).freed(), "own offset {off} must free");
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert_eq!(
        served.load(Ordering::Relaxed),
        config.threshold(class0) as u64,
        "the ticket cap admits exactly the full-size allowance"
    );
    assert_eq!(
        h.growth_events(),
        rungs_above_start(&h, class0),
        "one step per threshold crossing, never more"
    );
    assert_eq!(
        h.partition(class0).capacity(),
        h.geometry().capacity(class0)
    );
    assert_eq!(h.live_objects(), 0);
    let stats = h.stats();
    assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
    assert_eq!(stats.frees, stats.allocs);
    assert_eq!(
        stats.exhausted,
        attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
        "every failed attempt was a spill at the final cap"
    );
}

/// Growth racing allocations and frees: eight threads hold up to 1 500
/// objects each of one class while they churn it, so steps are taken while
/// frees and allocations are in flight, spills are counted per denied
/// request, and the accounting reconciles exactly once the threads join —
/// `exhausted == attempted − served`.
#[test]
fn allocations_and_frees_race_growth_and_reconcile() {
    const THREADS: u64 = 8;
    const OPS: usize = 4000;
    const WINDOW: usize = 1500;
    let config = HeapConfig::default().with_region_bytes(128 * 1024);
    let h: Arc<Heap> = Arc::new(Heap::new_elastic(config, 0xBEEF6, 6).unwrap());
    let attempted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = Arc::clone(&h);
        let attempted = Arc::clone(&attempted);
        let served = Arc::clone(&served);
        handles.push(std::thread::spawn(move || {
            let mut rng = Mwc::seeded(0xF00D ^ t);
            let mut live: Vec<usize> = Vec::new();
            for _ in 0..OPS {
                attempted.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = h.alloc(8) {
                    served.fetch_add(1, Ordering::Relaxed);
                    live.push(h.offset_of(slot));
                }
                if live.len() > WINDOW {
                    let victim = live.swap_remove(rng.below(live.len()));
                    assert!(h.free_at(victim).freed());
                }
            }
            for off in live {
                assert!(h.free_at(off).freed());
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert!(h.growth_events() > 0, "the pressure must grow the class");
    assert_eq!(h.live_objects(), 0);
    let stats = h.stats();
    assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
    assert_eq!(stats.frees, stats.allocs);
    assert_eq!(
        stats.exhausted,
        attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
        "spill accounting is exact"
    );
}

/// The heap's path has exactly one maintenance-locked stop — a growth step
/// — and that is where the rule runs: a heap driven directly from a 64 KiB
/// start is not promoted at the nineteen steps below 2 MB, however many
/// allocations they took; it is promoted at the step that brings its range
/// to 2 MB, and from then on every step that completes another huge page —
/// 4, 6 and 8 MB; not 2.5, 3, 3.5, 5 or 7 — hands the hook exactly that
/// page, once.
#[test]
fn uncached_path_promotes_at_the_first_doubling_past_the_threshold() {
    const CTX: usize = 0x0DD;
    let config = HeapConfig::paper_default();
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let mut heap: Heap = Heap::new_elastic(config, 0x0DD, START_64K_LOG2).unwrap();
    heap.set_promote_hook(note_promotion, CTX);
    let active = |heap: &Heap| heap.partition(hot).capacity() * hot.object_size();
    assert_eq!(active(&heap), 64 << 10);
    let mut steps_left_small = 0;
    let mut allocs = 0u64;
    while active(&heap) < 4 * HUGE_PAGE {
        let before = active(&heap);
        assert!(heap.alloc(64).is_some());
        let after = active(&heap);
        if after > before {
            assert!(after - before <= before / 4, "a quarter-band step");
            steps_left_small += usize::from(after < HUGE_PAGE);
        }
        allocs += 1;
        assert_eq!(
            promotions_of(CTX).len(),
            after / HUGE_PAGE,
            "after {allocs} allocations: the whole huge pages of {after} B"
        );
        let expected = u32::from(after >= HUGE_PAGE) << hot.index();
        assert_eq!(heap.promoted_classes(), expected);
    }
    assert_eq!(
        steps_left_small, 19,
        "80 KiB … 1.75 MB: busy, left on base pages"
    );
    let base = heap.geometry().region_base(hot);
    assert_eq!(
        promotions_of(CTX),
        [0, 1, 2, 3].map(|unit| (base + unit * HUGE_PAGE, HUGE_PAGE)),
        "one call per huge page, at the step that completed it"
    );
}

/// One rule in either arm. A heap with a hook takes the 16 KiB class from
/// its 64 KiB start to 2 MB with 57 objects live — far fewer allocations
/// than one huge page has base pages — then churns 500 free + alloc pairs
/// below its threshold ([`common::promote_script`]). The hook is handed the
/// one huge page at the step that completed it and nothing at any
/// allocation after it: the ladder's call list. (`single_thread.rs` records
/// the same script alone, in the load + store arm, and requires the same
/// trace and the same calls.)
#[test]
fn every_arm_promotes_at_the_step_that_completes_a_huge_page() {
    const CTX: usize = 0x3A1;
    let seed = 0x57E9;
    let config = HeapConfig::paper_default();
    let class = SizeClass::for_size(common::PROMOTE_SIZE).unwrap();
    // The step to 2 MB follows the object that finds the 1.75 MB range's
    // `1/M` allowance used up.
    let live = config.threshold_for(HUGE_PAGE / 8 * 7 / common::PROMOTE_SIZE) + 1;
    assert_eq!(live, common::PROMOTE_LIVE);
    let mut heap: Heap = Heap::new_elastic(config, seed, START_64K_LOG2).unwrap();
    heap.set_promote_hook(note_promotion, CTX);
    let trace = record(&heap, common::promote_script(seed));
    assert_eq!(trace.stats.allocs, (live + common::PROMOTE_CHURN) as u64);
    let capacity = heap.partition(class).capacity();
    assert_eq!(
        capacity * common::PROMOTE_SIZE,
        HUGE_PAGE,
        "the churn grew nothing"
    );
    let expected = ladder_promotions(&heap, class, capacity);
    assert_eq!(expected, [(heap.geometry().region_base(class), HUGE_PAGE)]);
    assert_eq!(promotions_of(CTX), expected);
    assert_eq!(trace.promoted, 1 << class.index());
}

/// Track what is live: `churn_host`'s size mix held at 50 000 live objects,
/// through the shipped geometry, leaves every class it grew within a quarter
/// (and one step) of `M` × the most that was ever live in it — where a
/// doubling ladder left up to twice — and every class's promotions its
/// ladder's: whole huge pages inside its active range.
#[test]
fn active_ranges_stay_within_a_quarter_of_m_times_peak_live() {
    const CTX: usize = 0xC4F;
    const LIVE: usize = 50_000;
    const OPS: usize = 100_000;
    const M: usize = 2; // `paper_default`'s multiplier
    let mut heap: Heap =
        Heap::new_elastic(HeapConfig::paper_default(), 0xC4F, START_64K_LOG2).unwrap();
    heap.set_promote_hook(note_promotion, CTX);
    let mut rng = Mwc::seeded(0xC4F ^ 0x5EED);
    let (mut live, mut peak) = ([0usize; 12], [0usize; 12]);
    let mut ring: Vec<(usize, usize)> = Vec::with_capacity(LIVE);
    for op in 0..LIVE + OPS {
        let size = match rng.below(100) {
            0..=59 => 8 + rng.below(56),
            60..=89 => 64 + rng.below(192),
            90..=98 => 256 + rng.below(768),
            _ => 1024 + rng.below(3073),
        };
        let slot = heap.alloc(size).expect("far below every maximum");
        let class = slot.class.index();
        live[class] += 1;
        peak[class] = peak[class].max(live[class]);
        let placed = (heap.offset_of(slot), class);
        if op < LIVE {
            ring.push(placed);
        } else {
            let victim = rng.below(LIVE);
            let (old, old_class) = std::mem::replace(&mut ring[victim], placed);
            assert!(heap.free_at(old).freed());
            live[old_class] -= 1;
        }
    }
    let (mut held, mut needed) = (0usize, 0usize);
    for class in SizeClass::all() {
        let size = class.object_size();
        let capacity = heap.partition(class).capacity();
        let start = heap.geometry().initial_capacity(class);
        let need = M * peak[class.index()];
        let step = (1usize << capacity.ilog2()) / 4;
        assert!(
            capacity >= need,
            "class {}: capacity ≥ M × live",
            class.index()
        );
        assert!(
            capacity <= start.max(need + need / 4 + step),
            "class {}: {capacity} slots for {need} of M × peak live",
            class.index()
        );
        assert_promotions_follow_the_ladder(&heap, CTX, class);
        held += capacity * size;
        needed += need.max(start) * size;
    }
    assert!(heap.growth_events() > 40 && heap.promoted_classes() != 0);
    assert!(
        held * 100 <= needed * 125,
        "{held} B of active ranges for {needed} B of need"
    );
}
