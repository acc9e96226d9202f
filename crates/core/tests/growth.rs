//! Integration suite for elastic region growth: the §9 adaptive-heap idea,
//! one mechanism in one heap. A heap born at a fraction of its
//! maximum capacity must absorb a max-capacity workload by climbing its
//! quarter-band ladder under `1/M`-cap pressure (no OOM), spill — not crash —
//! past the final cap, never hold more than a quarter (and one step) above
//! `M` × what has been live,
//! keep single-threaded histories bit-identical in both arms and through a
//! magazine cache, and
//! keep its statistics exact while growth races allocations, frees, and
//! magazine refills — and stay bit-identical through huge-page promotions
//! (advice draws no random numbers and moves no object), which a hot class
//! earns one whole huge page of its active range at a time, each once. Run with
//! `RUST_TEST_THREADS=8` in CI so the race tests overlap with each other as
//! well as within themselves.

mod common;

use common::record;
use diehard_core::config::HeapConfig;
use diehard_core::engine::{AllocOutcome, DEFAULT_INITIAL_FRACTION_LOG2};
use diehard_core::magazine::MagazineCache;
use diehard_core::partition::Partition;
use diehard_core::rng::Mwc;
use diehard_core::sharded::{HUGE_PAGE, PROMOTE_AFTER_ALLOCS};
use diehard_core::size_class::SizeClass;
use diehard_core::sync::{Arm, Plain, Shared};
use diehard_core::Heap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
fn rungs_above_start<A: Arm>(heap: &Heap<A>, class: SizeClass) -> u64 {
    let geometry = heap.geometry();
    let (max, start) = (geometry.capacity(class), geometry.initial_capacity(class));
    let walker = Partition::new_elastic(class, max, start, geometry.initial_threshold(class), 0);
    std::iter::from_fn(|| walker.grow_step(heap.config()).then_some(())).count() as u64
}

/// A 64 KiB start in a paper-sized 32 MB region: thirty-six steps below the
/// maximum, twenty up to one huge page. (What `libdiehard.so` ships with; the
/// feature-gated `global` tests pin that ladder under the constant itself.)
const START_64K_LOG2: u32 = 9;

/// Every `(ctx, offset, len)` a [`note_promotion`] hook has been called
/// with; each test filters by the `ctx` values it hands out.
static PROMOTIONS: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());

/// A [`PromoteHook`](diehard_core::sharded::PromoteHook) that only takes
/// notes, and accepts.
fn note_promotion(ctx: usize, offset: usize, len: usize) -> bool {
    PROMOTIONS.lock().unwrap().push((ctx, offset, len));
    true
}

/// The `(offset, len)` calls [`note_promotion`] saw for `ctx`.
fn promotions_of(ctx: usize) -> Vec<(usize, usize)> {
    let calls = PROMOTIONS.lock().unwrap();
    let of_ctx = calls.iter().filter(|call| call.0 == ctx);
    of_ctx.map(|&(_, off, len)| (off, len)).collect()
}

/// What every test with a hook holds at every step: `class`'s advised
/// length is whole huge pages inside its active range.
fn assert_advised_inside_active<A: Arm>(heap: &Heap<A>, class: SizeClass) {
    let advised = heap.advised_len(class);
    let active = heap.partition(class).capacity() * class.object_size();
    assert_eq!(advised % HUGE_PAGE, 0, "class {}", class.index());
    assert!(
        advised <= active,
        "class {}: {advised} of {active}",
        class.index()
    );
}

/// The ladder history of [`single_threaded_histories_identical_across_layers`]
/// on one heap, by one path: `mixed` sizes spread over every class first (on
/// 1 MB regions the large classes double to their maximum and then spill; on
/// 32 MB regions they grow and none makes 512 allocations); then twice the
/// promotion count into the 8-byte class, inside a range far below 2 MB; then
/// the 64-byte class past its last step (fifteen sixteenths of the `1/M`
/// allowance of its maximum; the last step is at seven eighths). Returns the
/// trace and the capacity of the 64-byte class when its promotion was first
/// seen.
fn ladder<A: Arm>(
    heap: &Heap<A>,
    cached: bool,
    seed: u64,
    mixed: usize,
) -> (common::Trace, Option<usize>) {
    let hot = SizeClass::for_size(64).unwrap();
    let small_hot = mixed + 2 * PROMOTE_AFTER_ALLOCS as usize;
    let total = small_hot + heap.config().threshold(hot) / 16 * 15;
    let mut rng = Mwc::seeded(seed ^ 0x5EED);
    let mut promoted_at = None;
    let trace = record(heap, cached, |r| {
        for i in 0..total {
            let size = if i < mixed {
                1 + rng.below(16 * 1024)
            } else if i < small_hot {
                8
            } else {
                64
            };
            let at = r.alloc(size);
            assert!(
                at.is_some() || i < mixed,
                "op {i} (size {size}) is under its cap"
            );
            if i < small_hot {
                assert_eq!(heap.promoted_classes(), 0, "op {i}: nothing spans 2 MB");
            } else if promoted_at.is_none() && heap.promoted_classes() != 0 {
                promoted_at = Some(heap.partition(hot).capacity());
            }
            assert_advised_inside_active(heap, hot);
        }
    });
    (trace, promoted_at)
}

/// Single-threaded alloc-only histories are bit-identical in both arms and
/// by both paths — the plain arm (the simulator's heap), the shared arm
/// uncached, and the shared arm through a magazine cache — at the same seed
/// and start fraction, through **every** step up to the maximum: growth
/// triggers at the same pressure points in each and consumes no RNG draws.
/// Two ladders, all three columns and their offsets on both: the §9
/// experiments' (1 MB regions from 1/64) and the shipped one (32 MB regions
/// from 64 KiB; `global`'s tests add `DieHard`). The cached heap alone
/// carries a promote hook. On the shipped ladder the history runs through a
/// class that gets hot and stays small (never promoted), a class promoted at
/// the step that takes it to one huge page, and the sixteen steps after it,
/// each of which is offered exactly the huge pages it completed; regions
/// smaller than a huge page are never promoted. None of it is visible in
/// placement.
#[test]
fn single_threaded_histories_identical_across_layers() {
    let seed = 0xD17EC7;
    let small = SizeClass::for_size(8).unwrap();
    let hot = SizeClass::for_size(64).unwrap();
    for (config, fraction, mixed) in [
        (HeapConfig::default(), DEFAULT_INITIAL_FRACTION_LOG2, 4000),
        (HeapConfig::paper_default(), START_64K_LOG2, 300),
    ] {
        let ctx = 0x1A77 + fraction as usize;
        let plain: Heap<Plain> = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        let shared: Heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        let mut hooked: Heap = Heap::new_elastic(config.clone(), seed, fraction).unwrap();
        hooked.set_promote_hook(note_promotion, ctx);

        let (uncached, _) = ladder(&shared, false, seed, mixed);
        let (single_owner, _) = ladder(&plain, false, seed, mixed);
        let (cached, promoted_at) = ladder(&hooked, true, seed, mixed);
        // Placements (hence offsets), statistics, growth steps and
        // per-class probe counts: the plain arm is the shared arm.
        uncached.assert_same(&single_owner, "plain arm");
        uncached.ops.assert_same(&cached.ops, "magazine cache");
        assert_eq!(uncached.growths, cached.growths);
        assert_eq!(uncached.promoted, 0, "no hook, no promotion");

        let max = config.capacity(hot);
        for capacity in [
            shared.partition(hot).capacity(),
            plain.partition(hot).capacity(),
            hooked.partition(hot).capacity(),
        ] {
            assert_eq!(capacity, max);
        }
        assert!(
            cached.probe_stats[small.index()].0 >= 2 * PROMOTE_AFTER_ALLOCS,
            "the 8-byte class is hot by count"
        );
        // Only whole huge pages are promoted: the 64-byte class of the 32 MB
        // regions, from the step that made its range one.
        let promotes = config.region_bytes >= HUGE_PAGE;
        assert_eq!(
            cached.promoted,
            u32::from(promotes) << hot.index(),
            "and the 8-byte class still too small to promote"
        );
        assert_eq!(
            promoted_at,
            promotes.then_some(HUGE_PAGE / hot.object_size())
        );
        // The calls tile the region from its start, in order, in whole huge
        // pages: each advised once, none before its step completed it.
        let calls = promotions_of(ctx);
        let mut next = hooked.geometry().region_base(hot);
        for &(offset, len) in &calls {
            assert_eq!(offset, next, "{calls:?}");
            assert!(len > 0 && len % HUGE_PAGE == 0, "{calls:?}");
            next += len;
        }
        let advised = usize::from(promotes) * config.region_bytes;
        assert_eq!(next - hooked.geometry().region_base(hot), advised);
        assert_eq!(hooked.advised_len(hot), advised);
        assert_eq!(
            calls.first().map(|call| call.1),
            promotes.then_some(HUGE_PAGE)
        );
        // 2 MB at 2, 4, 6, … 16 MB, then 4 MB at 20, 24, 28 and 32 MB.
        assert_eq!(calls.len(), usize::from(promotes) * 12);
    }
}

/// Mixed alloc/free histories stay bit-identical between the plain and the
/// shared arm (both free immediately), on the §9 ladder and on the shipped
/// one: every placement, every free outcome, the statistics, the per-class
/// probe counts and the growth count agree across 20k interleaved ops.
#[test]
fn mixed_history_identical_before_and_after_growth() {
    let seed = 0x6F0ED1;
    fn history<A: Arm>(heap: &Heap<A>, seed: u64) -> common::Trace {
        let mut rng = Mwc::seeded(seed);
        let mut live: Vec<usize> = Vec::new();
        record(heap, false, |r| {
            for _ in 0..20_000usize {
                if rng.below(3) < 2 || live.is_empty() {
                    live.extend(r.alloc(1 + rng.below(1024)));
                } else {
                    r.free(live.swap_remove(rng.below(live.len())));
                }
            }
        })
    }
    for (config, fraction) in [
        (HeapConfig::default(), DEFAULT_INITIAL_FRACTION_LOG2),
        (HeapConfig::paper_default(), START_64K_LOG2),
    ] {
        let shared = history::<Shared>(
            &Heap::new_elastic(config.clone(), seed, fraction).unwrap(),
            seed,
        );
        let plain = history::<Plain>(&Heap::new_elastic(config, seed, fraction).unwrap(), seed);
        assert!(plain.growths > 0);
        shared.assert_same(&plain, "plain arm");
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
    let h: Arc<Heap> = Arc::new(Heap::new_elastic(config, 0xBEEF6, 6).unwrap());
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

/// The uncached path has exactly one maintenance-locked stop — a growth step
/// — so a heap driven directly from a 64 KiB start passes the allocation
/// count at its first step and is *not* promoted there, nor at the eighteen
/// after it; it is promoted at the step that brings its range to 2 MB, and
/// from then on every step that completes another huge page — 4, 6 and 8 MB;
/// not 2.5, 3, 3.5, 5 or 7 — hands the hook exactly that page, once.
#[test]
fn uncached_path_promotes_at_the_first_doubling_past_the_threshold() {
    const CTX: usize = 0x0DD;
    let config = HeapConfig::paper_default();
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let mut heap: Heap = Heap::new_elastic(config, 0x0DD, START_64K_LOG2).unwrap();
    heap.set_promote_hook(note_promotion, CTX);
    let active = |heap: &Heap| heap.partition(hot).capacity() * hot.object_size();
    assert_eq!(active(&heap), 64 << 10);
    let mut hot_steps_left_small = 0;
    let mut allocs = 0u64;
    while active(&heap) < 4 * HUGE_PAGE {
        let before = active(&heap);
        assert!(heap.alloc(64).is_some());
        let after = active(&heap);
        if after > before {
            assert!(allocs >= PROMOTE_AFTER_ALLOCS, "hot from the first step on");
            assert!(after - before <= before / 4, "a quarter-band step");
            hot_steps_left_small += usize::from(after < HUGE_PAGE);
        }
        allocs += 1;
        assert_eq!(
            heap.advised_len(hot),
            after / HUGE_PAGE * HUGE_PAGE,
            "after {allocs} allocations: the whole huge pages of {after} B"
        );
        let expected = u32::from(after >= HUGE_PAGE) << hot.index();
        assert_eq!(heap.promoted_classes(), expected);
    }
    assert_eq!(
        hot_steps_left_small, 19,
        "80 KiB … 1.75 MB: hot by count, left on base pages"
    );
    let base = heap.geometry().region_base(hot);
    assert_eq!(
        promotions_of(CTX),
        [0, 1, 2, 3].map(|unit| (base + unit * HUGE_PAGE, HUGE_PAGE)),
        "one call per huge page, at the step that completed it"
    );
}

/// A hook that takes notes like [`note_promotion`] but refuses while
/// [`REFUSALS_LEFT`] is above zero.
fn refuse_then_note(ctx: usize, offset: usize, len: usize) -> bool {
    note_promotion(ctx, offset, len);
    let left =
        REFUSALS_LEFT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    left.is_err()
}

static REFUSALS_LEFT: AtomicUsize = AtomicUsize::new(0);

/// A refused advice is not a promotion: the class's advised length stays
/// where it was, no refill asks again while the class does not grow (a
/// kernel without huge pages would be asked at every one), and the next
/// growth step offers the same range — grown by what that step completed —
/// until the hook accepts it.
#[test]
fn refused_advice_is_offered_again_at_the_next_growth_step() {
    const CTX: usize = 0x2EF;
    let hot = SizeClass::for_size(64).expect("64 B is a small object");
    let mut heap: Heap =
        Heap::new_elastic(HeapConfig::paper_default(), 0x2EF, START_64K_LOG2).unwrap();
    heap.set_promote_hook(refuse_then_note, CTX);
    REFUSALS_LEFT.store(5, Ordering::Relaxed);
    let base = heap.geometry().region_base(hot);
    let active = |heap: &Heap| heap.partition(hot).capacity() * hot.object_size();
    let mut cache = heap.thread_cache();
    let grow_to = |cache: &mut MagazineCache<'_>, bytes: usize| {
        while active(&heap) < bytes {
            assert!(cache.alloc(64).is_some());
        }
    };
    grow_to(&mut cache, HUGE_PAGE);
    assert_eq!(promotions_of(CTX), [(base, HUGE_PAGE)]);
    assert_eq!((heap.advised_len(hot), heap.promoted_classes()), (0, 0));
    // Refills and flushes at a steady live count: nobody asks.
    for _ in 0..2_000 {
        let slot = cache.alloc(64).expect("below the cap");
        cache.free_at(heap.offset_of(slot));
    }
    assert_eq!(active(&heap), HUGE_PAGE, "the churn grew nothing");
    assert_eq!(promotions_of(CTX).len(), 1);
    // 2.5 MB: the same huge page again. 3, 3.5 and 4 MB likewise, the last
    // with the page that step completed; all refused. 5 MB: accepted.
    grow_to(&mut cache, HUGE_PAGE / 4 * 5);
    assert_eq!(promotions_of(CTX)[1..], [(base, HUGE_PAGE)]);
    grow_to(&mut cache, 2 * HUGE_PAGE);
    let whole = (base, 2 * HUGE_PAGE);
    assert_eq!(
        promotions_of(CTX)[2..],
        [(base, HUGE_PAGE), (base, HUGE_PAGE), whole]
    );
    assert_eq!((heap.advised_len(hot), heap.promoted_classes()), (0, 0));
    grow_to(&mut cache, HUGE_PAGE / 2 * 5);
    assert_eq!(promotions_of(CTX)[5..], [whole]);
    assert_eq!(heap.advised_len(hot), 2 * HUGE_PAGE);
    assert_eq!(heap.promoted_classes(), 1 << hot.index());
    // Accepted ranges are never offered again.
    grow_to(&mut cache, 3 * HUGE_PAGE);
    assert_eq!(promotions_of(CTX)[6..], [(base + 2 * HUGE_PAGE, HUGE_PAGE)]);
    assert_eq!(heap.advised_len(hot), 3 * HUGE_PAGE);
}

/// Track what is live: `churn_host`'s size mix held at 50 000 live objects,
/// through the shipped geometry, leaves every class it grew within a quarter
/// (and one step) of `M` × the most that was ever live in it — where a
/// doubling ladder left up to twice — and every class's advised length whole
/// huge pages inside its active range.
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
        assert_advised_inside_active(&heap, class);
        held += capacity * size;
        needed += need.max(start) * size;
    }
    assert!(heap.growth_events() > 40 && heap.promoted_classes() != 0);
    assert!(
        held * 100 <= needed * 125,
        "{held} B of active ranges for {needed} B of need"
    );
}
