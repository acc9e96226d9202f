//! Integration suite for elastic region growth: the §9 adaptive-heap idea
//! carried into the concurrent stack. A heap born at a fraction of its
//! maximum capacity must absorb a max-capacity workload by doubling under
//! `1/M`-cap pressure (no OOM), spill — not crash — past the final cap,
//! keep single-threaded histories bit-identical across every layer, and
//! keep its statistics exact while growth races allocations, frees, and
//! magazine refills — and stay bit-identical through a huge-page promotion
//! (advice draws no random numbers and moves no object). Run with
//! `RUST_TEST_THREADS=8` in CI so the race tests overlap with each other as
//! well as within themselves.

use diehard_core::adaptive::{AdaptiveHeap, DEFAULT_INITIAL_FRACTION_LOG2};
use diehard_core::config::HeapConfig;
use diehard_core::engine::{AllocOutcome, HeapCore};
use diehard_core::magazine::{MagazineHeap, MAG_SLOTS};
use diehard_core::rng::Mwc;
use diehard_core::sharded::{ShardedHeap, PROMOTE_AFTER_ALLOCS};
use diehard_core::size_class::SizeClass;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The acceptance scenario: a heap started at 1/64 of its maximum absorbs
/// a max-capacity workload in **every** class with no OOM — each class
/// serves its full-size `1/M` allowance — and the request past the final
/// cap is [`AllocOutcome::Spill`], not a crash. Growth is exact: each
/// class doubles precisely `log2(max / start)` times.
#[test]
fn heap_started_at_one_64th_absorbs_max_capacity_workload() {
    let config = HeapConfig::default();
    let heap = ShardedHeap::new_elastic(config.clone(), 0xACCE57, 6).unwrap();
    let mut expected_doublings = 0u64;
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
        let max = heap.geometry().capacity(class) as u64;
        let start = heap.geometry().initial_capacity(class) as u64;
        expected_doublings += u64::from(max.trailing_zeros() - start.trailing_zeros());
    }
    assert_eq!(heap.growth_events(), expected_doublings);
    for class in SizeClass::all() {
        assert_eq!(
            heap.with_partition(class, |p| p.capacity()),
            heap.geometry().capacity(class),
            "class {} grew to its maximum",
            class.index()
        );
    }
}

/// Single-threaded alloc-only histories are bit-identical across all three
/// layers — locked adaptive, lock-free elastic sharded, and the elastic
/// magazine stack — at the same seed and start fraction: growth triggers
/// at the same pressure points in each and consumes no RNG draws.
#[test]
fn single_threaded_histories_identical_across_layers() {
    let seed = 0xD17EC7;
    let sharded =
        ShardedHeap::new_elastic(HeapConfig::default(), seed, DEFAULT_INITIAL_FRACTION_LOG2)
            .unwrap();
    let mut adaptive = AdaptiveHeap::new(HeapConfig::default(), seed).unwrap();
    let mag = MagazineHeap::new_elastic(HeapConfig::default(), seed, DEFAULT_INITIAL_FRACTION_LOG2)
        .unwrap();
    let mut cache = mag.thread_cache();
    let mut rng = Mwc::seeded(seed ^ 0x5EED);
    for i in 0..4000usize {
        let size = 1 + rng.below(16 * 1024);
        let s = sharded.alloc(size);
        assert_eq!(s, adaptive.alloc(size), "op {i} (size {size}): adaptive");
        assert_eq!(s, cache.alloc(size), "op {i} (size {size}): magazine");
        if let Some(slot) = s {
            assert_eq!(sharded.offset_of(slot), adaptive.offset_of(slot));
        }
    }
    assert_eq!(sharded.growth_events(), adaptive.growth_events());
    assert_eq!(sharded.growth_events(), mag.growth_events());
    assert!(
        sharded.growth_events() > 0,
        "the workload must cross growth"
    );
}

/// Mixed alloc/free histories stay bit-identical between the adaptive and
/// elastic sharded layers (both free immediately): every placement, every
/// free outcome, and the growth count agree across 20k interleaved ops.
#[test]
fn mixed_history_identical_before_and_after_growth() {
    let seed = 0x6F0ED1;
    let sharded =
        ShardedHeap::new_elastic(HeapConfig::default(), seed, DEFAULT_INITIAL_FRACTION_LOG2)
            .unwrap();
    let mut adaptive = AdaptiveHeap::new(HeapConfig::default(), seed).unwrap();
    let mut rng = Mwc::seeded(seed);
    let mut live: Vec<usize> = Vec::new();
    for i in 0..20_000usize {
        if rng.below(3) < 2 || live.is_empty() {
            let size = 1 + rng.below(1024);
            let s = sharded.alloc(size);
            assert_eq!(s, adaptive.alloc(size), "op {i}: placement diverged");
            if let Some(slot) = s {
                live.push(sharded.offset_of(slot));
            }
        } else {
            let off = live.swap_remove(rng.below(live.len()));
            assert_eq!(
                sharded.free_at(off),
                adaptive.free_at(off),
                "op {i}: free outcome diverged"
            );
        }
    }
    assert_eq!(sharded.growth_events(), adaptive.growth_events());
}

/// Elastic with fraction 0 *is* the fixed heap: initial == maximum, zero
/// growth events, and a bit-identical mixed history against `new`.
#[test]
fn elastic_fraction_zero_is_bit_identical_to_fixed() {
    let seed = 0xF1DE77;
    let fixed = ShardedHeap::new(HeapConfig::default(), seed).unwrap();
    let elastic = ShardedHeap::new_elastic(HeapConfig::default(), seed, 0).unwrap();
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
/// threshold, the doubling count is exactly `log2(max / start)`, and the
/// post-drain accounting reconciles to zero.
#[test]
fn concurrent_alloc_pressure_grows_exactly_once_per_threshold() {
    const THREADS: u64 = 8;
    let config = HeapConfig::default().with_region_bytes(256 * 1024);
    let class0 = SizeClass::from_index(0);
    let h = Arc::new(ShardedHeap::new_elastic(config.clone(), 0x6A0E, 6).unwrap());
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

    let max = h.geometry().capacity(class0);
    let start = h.geometry().initial_capacity(class0);
    assert_eq!(
        served.load(Ordering::Relaxed),
        config.threshold(class0) as u64,
        "the ticket cap admits exactly the full-size allowance"
    );
    assert_eq!(
        h.growth_events(),
        u64::from(max.trailing_zeros() - start.trailing_zeros()),
        "one doubling per threshold crossing, never more"
    );
    assert_eq!(h.with_partition(class0, |p| p.capacity()), max);
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

/// Growth racing magazine refills and free-buffer flushes: the refill path
/// grows the class under the maintenance lock it already holds (the
/// deadlock-prone re-entry path), spills are counted per denied request,
/// and after every cache flushes the accounting reconciles exactly —
/// `exhausted == attempted − served`, zero leaked reservations.
#[test]
fn magazine_refills_race_growth_and_reconcile() {
    const THREADS: u64 = 8;
    const OPS: usize = 4000;
    const WINDOW: usize = 1500;
    let config = HeapConfig::default().with_region_bytes(128 * 1024);
    let h = Arc::new(MagazineHeap::new_elastic(config, 0xBEEF6, 6).unwrap());
    let attempted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = Arc::clone(&h);
        let attempted = Arc::clone(&attempted);
        let served = Arc::clone(&served);
        handles.push(std::thread::spawn(move || {
            let mut cache = h.thread_cache();
            let mut rng = Mwc::seeded(0xF00D ^ t);
            let mut live: Vec<usize> = Vec::new();
            for _ in 0..OPS {
                attempted.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = cache.alloc(8) {
                    served.fetch_add(1, Ordering::Relaxed);
                    live.push(h.offset_of(slot));
                }
                if live.len() > WINDOW {
                    let victim = live.swap_remove(rng.below(live.len()));
                    cache.free_at(victim);
                }
            }
            for off in live {
                cache.free_at(off);
            }
            // cache drops here: flush frees, return reservations
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert!(h.growth_events() > 0, "refill pressure must grow the class");
    assert_eq!(h.reserved_slots(), 0, "zero leaked reservations");
    assert_eq!(h.live_objects(), 0);
    let stats = h.stats();
    assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
    assert_eq!(stats.frees, stats.allocs);
    assert_eq!(
        stats.exhausted,
        attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
        "spill accounting is exact through the cached stack"
    );
}

/// Every promotion any heap in this test binary reported, as
/// `(ctx, region_offset, region_len, active_len)`. Hooks are plain `fn`s, so
/// each test installs [`record_promotion`] with a `ctx` of its own and reads
/// back only its own rows.
static PROMOTIONS: Mutex<Vec<(usize, usize, usize, usize)>> = Mutex::new(Vec::new());

fn record_promotion(ctx: usize, region_offset: usize, region_len: usize, active_len: usize) {
    PROMOTIONS.lock().expect("no promotion hook panics").push((
        ctx,
        region_offset,
        region_len,
        active_len,
    ));
}

fn promotions_of(ctx: usize) -> Vec<(usize, usize, usize)> {
    PROMOTIONS
        .lock()
        .expect("no promotion hook panics")
        .iter()
        .filter(|row| row.0 == ctx)
        .map(|&(_, offset, region, active)| (offset, region, active))
        .collect()
}

/// The cross-layer placement pin, run through a huge-page promotion and
/// through doublings *after* it: an elastic magazine heap with a promote
/// hook installed places every object exactly where the hook-less sharded
/// heap and the single-threaded adaptive reference do. The hot class is
/// promoted exactly once — at the refill that takes its cumulative count to
/// the threshold — with its whole region and its then-active range; the
/// classes that stay cold are never reported.
#[test]
fn placement_is_identical_through_a_promotion_and_later_doublings() {
    const CTX: usize = 0xC1;
    let seed = 0x9A6E5;
    let config = HeapConfig::default();
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let sharded =
        ShardedHeap::new_elastic(config.clone(), seed, DEFAULT_INITIAL_FRACTION_LOG2).unwrap();
    let mut adaptive = AdaptiveHeap::new(config.clone(), seed).unwrap();
    let mut mag =
        MagazineHeap::new_elastic(config.clone(), seed, DEFAULT_INITIAL_FRACTION_LOG2).unwrap();
    mag.set_promote_hook(record_promotion, CTX);
    let mut cache = mag.thread_cache();

    let mut growths_at_promotion = None;
    // 64 B objects with a sprinkle of other classes that stay far below the
    // threshold; alloc-only, so the hot class doubles before and after.
    for i in 0..4 * PROMOTE_AFTER_ALLOCS as usize {
        let size = if i % 97 == 0 { 1 + (i % 5) * 700 } else { 64 };
        let s = sharded.alloc(size);
        assert_eq!(s, adaptive.alloc(size), "op {i} (size {size}): adaptive");
        assert_eq!(s, cache.alloc(size), "op {i} (size {size}): magazine");
        if growths_at_promotion.is_none() && mag.promoted_classes() != 0 {
            growths_at_promotion = Some(mag.growth_events());
            // Refills reserve whole batches, so the count reaches the
            // threshold on the handout that opens the batch completing it.
            let hot_allocs = mag.with_partition(hot, |p| p.probe_stats().0);
            assert_eq!(hot_allocs, PROMOTE_AFTER_ALLOCS);
        }
    }
    let growths_at_promotion = growths_at_promotion.expect("the hot class was promoted");
    assert!(growths_at_promotion > 0, "it doubled before the promotion");
    assert!(
        mag.growth_events() > growths_at_promotion,
        "and again after it"
    );
    assert_eq!(mag.growth_events(), sharded.growth_events());
    assert_eq!(mag.growth_events(), adaptive.growth_events());

    assert_eq!(
        mag.promoted_classes(),
        1 << hot.index(),
        "only the hot class"
    );
    assert_eq!(sharded.promoted_classes(), 0, "no hook, no promotion");
    let rows = promotions_of(CTX);
    assert_eq!(rows.len(), 1, "exactly one hook call: {rows:?}");
    let (offset, region, active) = rows[0];
    assert_eq!(offset, mag.geometry().region_base(hot));
    assert_eq!(region, config.region_bytes);
    assert!(active <= region && active.is_power_of_two());
    assert!(
        active >= PROMOTE_AFTER_ALLOCS as usize * hot.object_size(),
        "the active range holds everything allocated so far"
    );
}

/// The same pin on a *fixed* heap against `HeapCore`: with no doublings to
/// stop at, the refill path alone promotes, and placement never notices.
#[test]
fn fixed_heap_promotes_from_the_refill_path_and_matches_heapcore() {
    const CTX: usize = 0xC2;
    let seed = 0xF17ED;
    let config = HeapConfig::default();
    let hot = SizeClass::for_size(8).expect("8 B is a small object");
    let mut core = HeapCore::new(config.clone(), seed).unwrap();
    let mut mag = MagazineHeap::new(config.clone(), seed).unwrap();
    mag.set_promote_hook(record_promotion, CTX);
    let mut cache = mag.thread_cache();
    for i in 0..2 * PROMOTE_AFTER_ALLOCS as usize {
        let promoted_before = mag.promoted_classes() != 0;
        assert_eq!(cache.alloc(8), core.alloc(8), "op {i}");
        // Handouts 1..=8 come from refill 1, so refill 64 — the one that
        // takes the count to 512 — serves handout 505.
        let crossing = i + 1 == PROMOTE_AFTER_ALLOCS as usize - MAG_SLOTS + 1;
        assert_eq!(
            mag.promoted_classes() != 0,
            promoted_before || crossing,
            "op {i}"
        );
    }
    assert_eq!(mag.growth_events(), 0);
    assert_eq!(
        promotions_of(CTX),
        vec![(
            mag.geometry().region_base(hot),
            config.region_bytes,
            config.region_bytes
        )],
        "one call, whole region active"
    );
}

/// The uncached path has exactly one maintenance-locked stop — a doubling —
/// so a sharded heap driven directly promotes at the first doubling its
/// count has passed the threshold by, once, however many doublings follow.
#[test]
fn uncached_path_promotes_at_the_first_doubling_past_the_threshold() {
    const CTX: usize = 0xC3;
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let mut heap = ShardedHeap::new_elastic(HeapConfig::default(), 0x0DD, 6).unwrap();
    heap.set_promote_hook(record_promotion, CTX);
    let capacity = |heap: &ShardedHeap| heap.with_partition(hot, |p| p.capacity());
    let start = capacity(&heap);
    let mut expect_promoted = false;
    let mut allocs = 0u64;
    while capacity(&heap) < 16 * start {
        let before = capacity(&heap);
        assert!(heap.alloc(64).is_some());
        if capacity(&heap) > before && allocs >= PROMOTE_AFTER_ALLOCS {
            expect_promoted = true;
        }
        allocs += 1;
        assert_eq!(heap.promoted_classes() != 0, expect_promoted, "{allocs}");
    }
    assert!(expect_promoted, "the run must cross the threshold");
    let rows = promotions_of(CTX);
    assert_eq!(rows.len(), 1, "exactly one hook call: {rows:?}");
    assert_eq!(rows[0].0, heap.geometry().region_base(hot));
}
