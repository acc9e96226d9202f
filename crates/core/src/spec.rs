//! §4 of the paper and §9's elastic heap as an executable model — fixed and
//! elastic, with promotion — and the heap held to it.
//!
//! [`Model`] is the randomized heap written as plainly as it can be: per
//! class a vector of slot states as long as the region holds, the active
//! capacity and its cap `⌊capacity / M⌋` (at least 1), an integer
//! occupancy count, and a probe that draws `below(capacity)` until it finds
//! a free slot (§4.2); a free is §4.3's validation — inside the heap, a
//! multiple of the object size, a live slot — and otherwise ignored.
//!
//! The elastic heap (§9's adaptive variant) at start fraction `k` (0 is the
//! fixed heap):
//!
//! * a class of `max` slots starts at `max / 2^k`, raised to the smallest
//!   power of two of at least `M` and 2, and capped at `max`;
//! * an allocation that finds its class at the cap (`inUse == threshold`)
//!   below `max` climbs the quarter-band ladder once, with no draw: from
//!   `c` by a quarter of the largest power of two not above `c` (at least
//!   one slot), repeated while the cap has not risen, and never past `max`;
//!   at `max` it is the heap's `Spill`;
//! * the step from `c` to `c'` offers the promote hook the whole huge pages
//!   `[whole(c), whole(c'))` of the class's region, where `whole(c)` is
//!   `c × size` rounded down to 2 MB, and from 0 at the class's first step.
//!
//! It has no atomics, no packed words, no shifts or masks, no `unsafe`, and
//! it shares no code with the heap but the sequential [`Mwc`], the per-class
//! stream split [`stream_seed`] and [`SizeClass`] (it answers in the heap's
//! outcome types, so the two compare directly): a change of representation
//! below it (the slot map, the ticket word, the packed ladder) is judged
//! against it rather than against itself.
//!
//! The tests build [`Heap::new_elastic`] twice, each with a recording
//! promote hook, and drive the model and both heaps through one seeded
//! script of allocations, frees, invalid frees and double frees: one heap
//! in the load + store arm (`try_alloc_in(true, …)`, which only this crate
//! can call), the other in the locked one. After every operation they
//! compare what the model says with what each heap did: the placement and
//! its offset, the free's outcome and whether the freed offset is live,
//! [`HeapStats`], live objects and bytes, each class's capacity and cap,
//! the growth steps, the promoted classes and the hook's calls so far. At
//! the end: each class's allocations and probes, its occupancy, and every
//! live slot.

use crate::config::HeapConfig;
use crate::engine::{AllocOutcome, FreeOutcome, HeapStats, Slot};
use crate::rng::{stream_seed, Mwc};
use crate::sharded::Heap;
use crate::size_class::{SizeClass, MAX_OBJECT_SIZE, NUM_CLASSES};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A transparent huge page: 2 MB.
const HUGE_PAGE: usize = 2 * 1024 * 1024;

/// One size class's region, §4.1–4.2, and its place on §9's ladder.
struct Region {
    class: SizeClass,
    /// One entry per slot the region holds: is it live?
    live: Vec<bool>,
    /// Probes draw from the first `capacity` slots.
    capacity: usize,
    /// Live slots (the paper's `inUse`).
    in_use: usize,
    /// At most this many live at once: `⌊capacity / M⌋`, at least 1.
    cap: usize,
    /// Growth steps taken.
    steps: u64,
    /// The class's own random stream.
    rng: Mwc,
    allocs: u64,
    probes: u64,
}

/// The heap: twelve regions of `region_bytes` each, back to back.
struct Model {
    region_bytes: usize,
    m: usize,
    regions: Vec<Region>,
    frees: u64,
    ignored_frees: u64,
    exhausted: u64,
    /// Every huge-page range offered so far, in order: `(offset, len)`.
    offers: Vec<(usize, usize)>,
}

impl Model {
    fn new(region_bytes: usize, m: usize, k: u32, seed: u64) -> Self {
        let mut least = 1;
        while least < m.max(2) {
            least *= 2;
        }
        let regions = SizeClass::all()
            .map(|class| {
                let slots = region_bytes / class.object_size();
                let capacity = (slots / 2usize.pow(k)).max(least).min(slots);
                Region {
                    class,
                    live: vec![false; slots],
                    capacity,
                    in_use: 0,
                    cap: (capacity / m).max(1),
                    steps: 0,
                    rng: Mwc::seeded(stream_seed(seed, class.index() as u64)),
                    allocs: 0,
                    probes: 0,
                }
            })
            .collect();
        Self {
            region_bytes,
            m,
            regions,
            frees: 0,
            ignored_frees: 0,
            exhausted: 0,
            offers: Vec::new(),
        }
    }

    /// `DieHardMalloc`: no class for zero or more than 16 KiB; at the cap,
    /// a growth step, or `NULL` (the heap's `Spill`) at the maximum; then
    /// random probes until a free slot.
    fn alloc(&mut self, size: usize) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        let i = class.index();
        while self.regions[i].in_use == self.regions[i].cap {
            if self.regions[i].capacity == self.regions[i].live.len() {
                self.exhausted += 1;
                return AllocOutcome::Spill;
            }
            self.grow(i);
        }
        let region = &mut self.regions[i];
        let index = loop {
            region.probes += 1;
            let index = region.rng.below(region.capacity);
            if !region.live[index] {
                break index;
            }
        };
        region.live[index] = true;
        region.in_use += 1;
        region.allocs += 1;
        AllocOutcome::Placed(Slot { class, index })
    }

    /// One step up class `i`'s ladder, and the huge pages it completes.
    fn grow(&mut self, i: usize) {
        let (m, base) = (self.m, i * self.region_bytes);
        let region = &mut self.regions[i];
        let (before, slots) = (region.capacity, region.live.len());
        let mut capacity = before;
        loop {
            let mut band = 1;
            while band * 2 <= capacity {
                band *= 2;
            }
            capacity = (capacity + (band / 4).max(1)).min(slots);
            if (capacity / m).max(1) > region.cap || capacity == slots {
                break;
            }
        }
        let size = region.class.object_size();
        let whole = |c: usize| c * size / HUGE_PAGE * HUGE_PAGE;
        let from = if region.steps == 0 { 0 } else { whole(before) };
        let to = whole(capacity);
        region.capacity = capacity;
        region.cap = (capacity / m).max(1);
        region.steps += 1;
        if to > from {
            self.offers.push((base + from, to - from));
        }
    }

    /// Where `slot`'s object starts in the heap.
    fn offset(&self, slot: Slot) -> usize {
        slot.class.index() * self.region_bytes + slot.index * slot.class.object_size()
    }

    /// The region an offset inside the heap falls in, and the offset
    /// within that region.
    fn locate(&self, offset: usize) -> Option<(usize, usize)> {
        if offset >= NUM_CLASSES * self.region_bytes {
            return None;
        }
        let i = offset / self.region_bytes;
        Some((i, offset % self.region_bytes))
    }

    /// `DieHardFree` (§4.3): outside the heap is for the large-object path;
    /// an offset that is not a multiple of its class's object size, or a
    /// slot that is not live, is ignored and counted.
    fn free(&mut self, offset: usize) -> FreeOutcome {
        let Some((i, within)) = self.locate(offset) else {
            return FreeOutcome::NotInHeap;
        };
        let region = &mut self.regions[i];
        let size = region.class.object_size();
        if !within.is_multiple_of(size) {
            self.ignored_frees += 1;
            return FreeOutcome::MisalignedOffset;
        }
        let index = within / size;
        if !region.live[index] {
            self.ignored_frees += 1;
            return FreeOutcome::NotAllocated;
        }
        region.live[index] = false;
        region.in_use -= 1;
        self.frees += 1;
        FreeOutcome::Freed(Slot {
            class: region.class,
            index,
        })
    }

    /// Whether the object holding `offset` is live.
    fn is_live_at(&self, offset: usize) -> bool {
        self.locate(offset).is_some_and(|(i, within)| {
            let region = &self.regions[i];
            region.live[within / region.class.object_size()]
        })
    }

    fn stats(&self) -> HeapStats {
        HeapStats {
            allocs: self.regions.iter().map(|r| r.allocs).sum(),
            frees: self.frees,
            ignored_frees: self.ignored_frees,
            exhausted: self.exhausted,
        }
    }

    fn live_objects(&self) -> usize {
        self.regions.iter().map(|r| r.in_use).sum()
    }

    fn live_bytes(&self) -> usize {
        let bytes = |r: &Region| r.in_use * r.class.object_size();
        self.regions.iter().map(bytes).sum()
    }

    fn growths(&self) -> u64 {
        self.regions.iter().map(|r| r.steps).sum()
    }

    /// The classes offered a huge page so far, one bit each.
    fn promoted(&self) -> u32 {
        let class = |offset: usize| offset / self.region_bytes;
        self.offers
            .iter()
            .fold(0, |mask, &(offset, _)| mask | 1 << class(offset))
    }

    /// Every live slot, smallest class first.
    fn live_slots(&self) -> Vec<Slot> {
        let slots = self.regions.iter().flat_map(|region| {
            let live = (0..region.live.len()).filter(|&index| region.live[index]);
            live.map(|index| Slot {
                class: region.class,
                index,
            })
        });
        slots.collect()
    }
}

/// Every call the recording hook has had: `(ctx, offset, len)`, each heap
/// under a `ctx` of its own.
static CALLS: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());

/// The next unused `ctx`.
static NEXT_CTX: AtomicUsize = AtomicUsize::new(0);

/// The promote hook the tests install: it only takes notes.
fn record(ctx: usize, offset: usize, len: usize) {
    CALLS.lock().unwrap().push((ctx, offset, len));
}

/// The `(offset, len)` calls the hook had from the heap given `ctx`.
fn calls(ctx: usize) -> Vec<(usize, usize)> {
    let calls = CALLS.lock().unwrap();
    let of_ctx = calls.iter().filter(|call| call.0 == ctx);
    of_ctx.map(|&(_, offset, len)| (offset, len)).collect()
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc(usize),
    Free(usize),
}

/// What the model said a step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Alloc(AllocOutcome),
    Free(FreeOutcome),
}

/// The script: allocations spread across the twelve classes (so the large
/// classes, whose regions hold the fewest slots, reach their caps), frees
/// of live objects, frees of freed ones, and interior, wild and
/// never-allocated pointers — slot starts anywhere up to a region's end,
/// beyond the active range included — and the odd request no class serves.
/// `live` and `freed` are the model's, so every free is aimed at what the
/// heap should hold.
fn next_op(rng: &mut Mwc, live: &mut Vec<usize>, freed: &[usize], region_bytes: usize) -> Op {
    let span = NUM_CLASSES * region_bytes;
    let roll = rng.below(100);
    if roll < 45 || live.is_empty() {
        let size = match rng.below(50) {
            0 => 0,
            1 => MAX_OBJECT_SIZE + 1 + rng.below(4096),
            _ => {
                let top = 8 << rng.below(NUM_CLASSES);
                top / 2 + 1 + rng.below(top / 2)
            }
        };
        Op::Alloc(size)
    } else if roll < 70 {
        Op::Free(live.swap_remove(rng.below(live.len())))
    } else if roll < 80 && !freed.is_empty() {
        Op::Free(freed[rng.below(freed.len())])
    } else {
        let victim = live[rng.below(live.len())];
        Op::Free(match rng.below(4) {
            0 => victim + 1 + rng.below(7),
            1 => rng.below(span),
            2 => span + rng.below(span),
            _ => {
                let class = SizeClass::from_index(rng.below(NUM_CLASSES));
                let size = class.object_size();
                class.index() * region_bytes + rng.below(region_bytes / size) * size
            }
        })
    }
}

/// Everything the module docs compare after every step, for the heap given
/// `ctx`, `steps` steps into the script.
fn compare(model: &Model, heap: &Heap, ctx: usize, steps: usize, sole: bool) {
    let at = || format!("after {steps} steps (sole = {sole})");
    assert_eq!(heap.stats(), model.stats(), "{}", at());
    assert_eq!(heap.live_objects(), model.live_objects(), "{}", at());
    assert_eq!(heap.live_bytes(), model.live_bytes(), "{}", at());
    for region in &model.regions {
        let partition = heap.partition(region.class);
        assert_eq!(
            (partition.capacity(), partition.threshold()),
            (region.capacity, region.cap),
            "{}: {}",
            region.class,
            at()
        );
    }
    assert_eq!(heap.growth_events(), model.growths(), "{}", at());
    assert_eq!(heap.promoted_classes(), model.promoted(), "{}", at());
    assert_eq!(calls(ctx), model.offers, "{}", at());
}

/// Runs a seeded script of `len` steps on the model and on two heaps of
/// its configuration (`M` = `m`, regions of `region_bytes`, start fraction
/// `k`), one in each arm, and compares them as the module docs say.
/// Returns what the model said each step did, and the model as it ended.
fn check(seed: u64, m: usize, region_bytes: usize, k: u32, len: usize) -> (Vec<Outcome>, Model) {
    let config = HeapConfig::default()
        .with_multiplier(m as f64)
        .with_region_bytes(region_bytes);
    let mut model = Model::new(region_bytes, m, k, seed);
    let arms = [true, false].map(|sole| {
        let mut heap = Heap::new_elastic(config.clone(), seed, k).expect("a valid configuration");
        let ctx = NEXT_CTX.fetch_add(1, Ordering::Relaxed);
        heap.set_promote_hook(record, ctx);
        (sole, heap, ctx)
    });
    for (sole, heap, ctx) in &arms {
        compare(&model, heap, *ctx, 0, *sole);
    }
    let mut rng = Mwc::seeded(seed ^ 0x5C81_97E0);
    let (mut live, mut freed) = (Vec::new(), Vec::new());
    let mut outcomes = Vec::with_capacity(len);
    for n in 0..len {
        let op = next_op(&mut rng, &mut live, &freed, region_bytes);
        let expected = match op {
            Op::Alloc(size) => {
                let placed = model.alloc(size);
                if let AllocOutcome::Placed(slot) = placed {
                    live.push(model.offset(slot));
                }
                Outcome::Alloc(placed)
            }
            Op::Free(offset) => {
                let outcome = model.free(offset);
                if outcome.freed() {
                    live.retain(|&o| o != offset);
                    freed.push(offset);
                }
                Outcome::Free(outcome)
            }
        };
        for (sole, heap, ctx) in &arms {
            let at = || format!("step {n}: {op:?} (sole = {sole})");
            let got = match op {
                Op::Alloc(size) => Outcome::Alloc(heap.try_alloc_in(*sole, size)),
                Op::Free(offset) => Outcome::Free(heap.free_at_in(*sole, offset)),
            };
            assert_eq!(got, expected, "{}", at());
            match (op, got) {
                (Op::Alloc(_), Outcome::Alloc(AllocOutcome::Placed(slot))) => {
                    assert_eq!(heap.offset_of(slot), model.offset(slot), "{}", at());
                }
                (Op::Free(offset), _) => {
                    assert_eq!(
                        heap.is_live_at(offset),
                        model.is_live_at(offset),
                        "{}",
                        at()
                    );
                }
                _ => {}
            }
            compare(&model, heap, *ctx, n + 1, *sole);
        }
        outcomes.push(expected);
    }
    for (sole, heap, _) in &arms {
        for region in &model.regions {
            let partition = heap.partition(region.class);
            let books = (partition.probe_stats(), partition.in_use());
            let expected = ((region.allocs, region.probes), region.in_use);
            assert_eq!(books, expected, "{} (sole = {sole})", region.class);
        }
        let live: Vec<Slot> = heap.live_slots().collect();
        assert_eq!(live, model.live_slots(), "sole = {sole}");
    }
    CALLS
        .lock()
        .unwrap()
        .retain(|call| arms.iter().all(|arm| arm.2 != call.0));
    (outcomes, model)
}

/// The smallest region that holds a 16 KiB object under `M`, times
/// `2^grow`.
fn region(m: usize, grow: u32) -> usize {
    HeapConfig::min_region_bytes(m as f64) << grow
}

/// A fixed script that visits every outcome: placements in every class,
/// growth, a promotion, a class grown to its maximum and denied there, and
/// each kind of ignored free — on 4 MB regions born at half their size, so
/// a large class's first step completes a huge page.
#[test]
fn one_script_visits_every_outcome() {
    let (outcomes, model) = check(0x5A, 8, 4 << 20, 1, 3000);
    let seen = |wanted: &dyn Fn(&Outcome) -> bool| outcomes.iter().any(wanted);
    assert!(seen(&|o| matches!(
        o,
        Outcome::Alloc(AllocOutcome::Placed(_))
    )));
    assert!(seen(&|o| matches!(o, Outcome::Alloc(AllocOutcome::Spill))));
    assert!(seen(&|o| matches!(
        o,
        Outcome::Alloc(AllocOutcome::Unsupported)
    )));
    for outcome in [
        FreeOutcome::NotInHeap,
        FreeOutcome::MisalignedOffset,
        FreeOutcome::NotAllocated,
    ] {
        assert!(seen(&|o| *o == Outcome::Free(outcome)), "{outcome:?}");
    }
    assert!(seen(&|o| matches!(o, Outcome::Free(FreeOutcome::Freed(_)))));
    assert!(model.regions.iter().all(|r| r.allocs > 0));
    let grown_to_max = |r: &Region| r.steps > 0 && r.capacity == r.live.len();
    assert!(
        model.regions.iter().any(grown_to_max),
        "a class at its maximum"
    );
    assert!(!model.offers.is_empty(), "a promotion");
}

/// Every start fraction 0–9 under every `M` of 2, 3, 4 and 8, on the
/// smallest region `M` allows and on 4 MB regions.
#[test]
fn every_fraction_and_multiplier_is_the_model() {
    for k in 0..10 {
        for m in [2, 3, 4, 8] {
            for region_bytes in [region(m, 0), 4 << 20] {
                check(0xE1A5 + u64::from(k), m, region_bytes, k, 600);
            }
        }
    }
}

proptest! {
    #[test]
    fn the_heap_is_the_model(
        seed in any::<u64>(),
        m in 0usize..4,
        k in 0u32..10,
        grow in 0u32..8,
        len in 100usize..1500,
    ) {
        let m = [2, 3, 4, 8][m];
        check(seed, m, region(m, grow), k, len);
    }
}
