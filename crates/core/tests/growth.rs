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
use diehard_core::engine::AllocOutcome;
use diehard_core::magazine::MagazineHeap;
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
/// layers — locked adaptive (`HeapCore`'s partitions, grown in place),
/// lock-free elastic sharded, and the elastic magazine stack — at the same
/// seed and start fraction: growth triggers at the same pressure points in
/// each and consumes no RNG draws. The magazine heap alone carries a
/// promote hook, and the history runs through a huge-page promotion and a
/// doubling of the promoted class after it: neither is visible in placement.
#[test]
fn single_threaded_histories_identical_across_layers() {
    fn promote_nothing(_ctx: usize, _offset: usize, _region: usize, _active: usize) {}

    let seed = 0xD17EC7;
    let sharded =
        ShardedHeap::new_elastic(HeapConfig::default(), seed, DEFAULT_INITIAL_FRACTION_LOG2)
            .unwrap();
    let mut adaptive = AdaptiveHeap::new(HeapConfig::default(), seed).unwrap();
    let mut mag =
        MagazineHeap::new_elastic(HeapConfig::default(), seed, DEFAULT_INITIAL_FRACTION_LOG2)
            .unwrap();
    mag.set_promote_hook(promote_nothing, 0);
    let mut cache = mag.thread_cache();
    let mut rng = Mwc::seeded(seed ^ 0x5EED);
    // The first class promoted, and its capacity at that moment.
    let mut first_promotion = None;
    // 4000 sizes spread over every class (none gets hot), then one class
    // driven to four times the promotion threshold.
    for i in 0..4000 + 4 * PROMOTE_AFTER_ALLOCS as usize {
        let size = if i < 4000 {
            1 + rng.below(16 * 1024)
        } else {
            64
        };
        let s = sharded.alloc(size);
        assert_eq!(s, adaptive.alloc(size), "op {i} (size {size}): adaptive");
        assert_eq!(s, cache.alloc(size), "op {i} (size {size}): magazine");
        if let Some(slot) = s {
            assert_eq!(sharded.offset_of(slot), adaptive.offset_of(slot));
        }
        if first_promotion.is_none() && mag.promoted_classes() != 0 {
            let class = SizeClass::from_index(mag.promoted_classes().trailing_zeros() as usize);
            first_promotion = Some((class, mag.with_partition(class, |p| p.capacity())));
        }
    }
    assert_eq!(sharded.growth_events(), adaptive.growth_events());
    assert_eq!(sharded.growth_events(), mag.growth_events());
    assert!(
        sharded.growth_events() > 0,
        "the workload must cross growth"
    );
    let (class, capacity_then) = first_promotion.expect("the workload must cross a promotion");
    assert!(
        mag.with_partition(class, |p| p.capacity()) > capacity_then,
        "and a doubling of the promoted class after it"
    );
    assert_eq!(sharded.promoted_classes(), 0, "no hook, no promotion");
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

/// The uncached path has exactly one maintenance-locked stop — a doubling —
/// so a sharded heap driven directly promotes at the first doubling its
/// count has passed the threshold by, once, however many doublings follow;
/// the hook is told the class's whole region and the range active after
/// that doubling.
#[test]
fn uncached_path_promotes_at_the_first_doubling_past_the_threshold() {
    // (region_offset, region_len, active_len) of every call; this test's
    // heap is the only one to install the hook.
    static CALLS: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());
    fn record(_ctx: usize, region_offset: usize, region_len: usize, active_len: usize) {
        CALLS
            .lock()
            .unwrap()
            .push((region_offset, region_len, active_len));
    }

    let config = HeapConfig::default();
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let mut heap = ShardedHeap::new_elastic(config.clone(), 0x0DD, 6).unwrap();
    heap.set_promote_hook(record, 0);
    let capacity = |heap: &ShardedHeap| heap.with_partition(hot, |p| p.capacity());
    let start = capacity(&heap);
    let mut promoted_at = None;
    let mut allocs = 0u64;
    while capacity(&heap) < 16 * start {
        let before = capacity(&heap);
        assert!(heap.alloc(64).is_some());
        if promoted_at.is_none() && capacity(&heap) > before && allocs >= PROMOTE_AFTER_ALLOCS {
            promoted_at = Some(capacity(&heap));
        }
        allocs += 1;
        let expected = if promoted_at.is_some() {
            1 << hot.index()
        } else {
            0
        };
        assert_eq!(
            heap.promoted_classes(),
            expected,
            "after {allocs} allocations"
        );
    }
    let promoted_at = promoted_at.expect("the run must cross the threshold");
    assert!(capacity(&heap) > promoted_at, "and double again afterwards");
    assert_eq!(
        *CALLS.lock().unwrap(),
        [(
            heap.geometry().region_base(hot),
            config.region_bytes,
            promoted_at * hot.object_size()
        )],
        "one call: whole region, the range active at that doubling"
    );
}
