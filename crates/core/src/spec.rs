//! §4 of the paper and §9's elastic heap as an executable model — fixed and
//! elastic, with promotion — and the heap and [`DieHard`] held to it.
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
//! Each test runs its script twice, each time against a model of its own:
//! once on the heap's columns, once on `DieHard`'s, whose front end maps
//! requests its own way.
//!
//! * **The heap's columns** are [`Heap::new_elastic`] three times: with a
//!   recording promote hook in each arm — the load + store arm through
//!   `try_alloc_in(true, …)`, which only this crate can call, and the
//!   locked one — and with no hook at all, in the locked arm, so that the
//!   hook is seen to move nothing. After every operation they compare the
//!   placement and its offset, the free's outcome and whether the freed
//!   offset is live, [`HeapStats`], live objects and bytes, each class's
//!   capacity and cap, the growth steps, the promoted classes and the
//!   hook's calls so far (none, and no class promoted, without a hook).
//! * **`DieHard`'s columns** are [`DieHard::with_elastic_config`], one per
//!   arm, driven through its one allocation and free bodies (`alloc_in`
//!   with alignment 1, `free_in`); its hook is the real `promote_region`,
//!   so its calls are not recorded. Its model takes a request of `size` as
//!   one of `max(size, 1)` — 0 is the 8-byte class — and a request above
//!   16 KiB, or one its class spills, is a non-null pointer outside the
//!   span that frees through the large table. After every operation they
//!   compare the placement's offset from the span base and its usable size,
//!   a large pointer's usable size (its page-rounded request until it is
//!   freed, 0 after), `is_live_at` and `usable_size` at each freed offset,
//!   `stats()`, `live_objects()`, live bytes, each class's capacity and cap,
//!   the growth steps and `promoted_classes()`. A large pointer is freed
//!   once: its address may be mapped again afterwards, and a second free
//!   would then be the new object's, which the model cannot know. A free
//!   past the span is aimed at a static instead, which no mapping covers.
//!
//! At the end, in every column: each class's allocations and probes, its
//! occupancy, and every live slot. A `DieHard` never unmaps its span, so
//! each of its columns keeps one reserved (never touched: no script writes
//! an object) for the rest of the test process.

use crate::config::HeapConfig;
use crate::engine::{AllocOutcome, FreeOutcome, HeapStats, Slot};
use crate::global::{DieHard, DEFAULT_GROW_LOG2};
use crate::rng::{stream_seed, Mwc};
use crate::sharded::Heap;
use crate::size_class::{SizeClass, MAX_OBJECT_SIZE, NUM_CLASSES};
use core::alloc::Layout;
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

    /// `malloc_usable_size` at `offset`: the object size where a live
    /// object starts, 0 anywhere else.
    fn usable_size(&self, offset: usize) -> usize {
        let size = |(i, within): (usize, usize)| {
            let region = &self.regions[i];
            let size = region.class.object_size();
            let starts = within.is_multiple_of(size) && region.live[within / size];
            if starts {
                size
            } else {
                0
            }
        };
        self.locate(offset).map_or(0, size)
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

/// What `DieHard`'s columns free past their span: a static's address,
/// which no span and no large mapping covers.
static FOREIGN: u8 = 0;

/// What a free is aimed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// An offset from the heap's base, inside the heap or past it.
    At(usize),
    /// The `n`-th pointer `DieHard` served outside its span.
    Large(usize),
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc(usize),
    Free(Target),
}

/// What the model said a step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Alloc(AllocOutcome),
    Free(FreeOutcome),
}

/// A script: the next step, given the model so far and what it holds.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// This many steps of [`next_op`].
    Random(usize),
    /// Allocations only: 300 sizes of 1 B … 16 KiB, 1 024 of 8 B, then
    /// 64 B ones until that class is at its maximum.
    Ladder,
}

impl Script {
    /// Step `n`, or `None` when the script is over.
    fn next(
        self,
        rng: &mut Mwc,
        n: usize,
        model: &Model,
        live: &mut Vec<Target>,
        freed: &[usize],
    ) -> Option<Op> {
        match self {
            Script::Random(len) => (n < len).then(|| next_op(rng, live, freed, model.region_bytes)),
            Script::Ladder if n < 300 => Some(Op::Alloc(1 + rng.below(MAX_OBJECT_SIZE))),
            Script::Ladder if n < 1324 => Some(Op::Alloc(8)),
            Script::Ladder => {
                let hot = &model.regions[SizeClass::for_size(64).unwrap().index()];
                (hot.capacity < hot.live.len()).then_some(Op::Alloc(64))
            }
        }
    }
}

/// The random script: allocations spread across the twelve classes (so
/// the large classes, whose regions hold the fewest slots, reach their
/// caps), frees of live objects, frees of freed ones, and interior, wild
/// and never-allocated pointers — slot starts anywhere up to a region's
/// end, beyond the active range included — and the odd request of 0 B or
/// past 16 KiB. `live` and `freed` are the model's, so every free is aimed
/// at what the heap should hold.
fn next_op(rng: &mut Mwc, live: &mut Vec<Target>, freed: &[usize], region_bytes: usize) -> Op {
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
        Op::Free(Target::At(freed[rng.below(freed.len())]))
    } else {
        let victim = live[rng.below(live.len())];
        Op::Free(Target::At(match (rng.below(4), victim) {
            (0, Target::At(victim)) => victim + 1 + rng.below(7),
            (0 | 1, _) => rng.below(span),
            (2, _) => span + rng.below(span),
            _ => {
                let class = SizeClass::from_index(rng.below(NUM_CLASSES));
                let size = class.object_size();
                class.index() * region_bytes + rng.below(region_bytes / size) * size
            }
        }))
    }
}

/// One implementation under test, in one arm (`sole`: the load + store
/// one).
enum Column {
    /// A heap, and the `ctx` its recording hook files calls under (`None`:
    /// no hook).
    Heap {
        sole: bool,
        heap: Box<Heap>,
        ctx: Option<usize>,
    },
    /// `DieHard`, its span's base and heap, and every pointer it served
    /// outside the span, in order.
    DieHard {
        sole: bool,
        front: DieHard,
        base: usize,
        heap: &'static Heap,
        large: Vec<*mut u8>,
    },
}

impl Column {
    fn of_heap(config: &HeapConfig, seed: u64, k: u32, sole: bool, hooked: bool) -> Self {
        let mut heap = Heap::new_elastic(config.clone(), seed, k).expect("a valid configuration");
        let ctx = hooked.then(|| NEXT_CTX.fetch_add(1, Ordering::Relaxed));
        if let Some(ctx) = ctx {
            heap.set_promote_hook(record, ctx);
        }
        let heap = Box::new(heap);
        Column::Heap { sole, heap, ctx }
    }

    fn of_die_hard(config: &HeapConfig, seed: u64, k: u32, sole: bool) -> Self {
        let front = DieHard::with_elastic_config(config.clone(), seed, k);
        let (base, heap) = front.span().expect("a valid configuration");
        let large = Vec::new();
        Column::DieHard {
            sole,
            front,
            base,
            heap,
            large,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Column::Heap { sole: true, .. } => "the heap alone",
            Column::Heap { ctx: Some(_), .. } => "the heap threaded",
            Column::Heap { .. } => "the heap threaded, with no hook",
            Column::DieHard { sole: true, .. } => "DieHard alone",
            Column::DieHard { .. } => "DieHard threaded",
        }
    }

    /// The heap that places the column's objects.
    fn heap(&self) -> &Heap {
        match self {
            Column::Heap { heap, .. } => heap,
            Column::DieHard { heap, .. } => heap,
        }
    }

    /// Runs `op`, which the model says does `expected`, and checks what
    /// the column did as the module docs say.
    fn step(&mut self, op: Op, expected: Outcome, model: &Model, at: &dyn Fn() -> String) {
        match self {
            Column::Heap { sole, heap, .. } => {
                let got = match op {
                    Op::Alloc(size) => Outcome::Alloc(heap.try_alloc_in(*sole, size)),
                    Op::Free(Target::At(offset)) => Outcome::Free(heap.free_at_in(*sole, offset)),
                    Op::Free(Target::Large(_)) => unreachable!("the heap serves nothing outside"),
                };
                assert_eq!(got, expected, "{}", at());
                match (op, got) {
                    (_, Outcome::Alloc(AllocOutcome::Placed(slot))) => {
                        assert_eq!(heap.offset_of(slot), model.offset(slot), "{}", at());
                    }
                    (Op::Free(Target::At(offset)), _) => {
                        let live = heap.is_live_at(offset);
                        assert_eq!(live, model.is_live_at(offset), "{}", at());
                    }
                    _ => {}
                }
            }
            Column::DieHard {
                sole,
                front,
                base,
                heap,
                large,
            } => {
                let span = heap.heap_span();
                match (op, expected) {
                    (Op::Alloc(size), Outcome::Alloc(answer)) => {
                        let layout = Layout::from_size_align(size, 1).unwrap();
                        let p = front.alloc_in(*sole, layout).unwrap();
                        let offset = (p as usize).wrapping_sub(*base);
                        let usable = if let AllocOutcome::Placed(slot) = answer {
                            assert_eq!(offset, model.offset(slot), "{}", at());
                            slot.class.object_size()
                        } else {
                            assert!(!p.is_null() && offset >= span, "{}: {p:p}", at());
                            large.push(p);
                            size.max(1)
                                .next_multiple_of(crate::global::sys::page_size())
                        };
                        assert_eq!(front.usable_size(p), usable, "{}", at());
                    }
                    (Op::Free(target), _) => {
                        let (p, offset) = match target {
                            Target::At(offset) if offset < span => {
                                ((*base + offset) as *mut u8, Some(offset))
                            }
                            Target::At(_) => ((&raw const FOREIGN).cast_mut(), None),
                            Target::Large(n) => (large[n], None),
                        };
                        front.free_in(*sole, p).unwrap();
                        let usable = offset.map_or(0, |offset| {
                            let live = heap.is_live_at(offset);
                            assert_eq!(live, model.is_live_at(offset), "{}", at());
                            model.usable_size(offset)
                        });
                        assert_eq!(front.usable_size(p), usable, "{}", at());
                    }
                    _ => unreachable!("an allocation's outcome is an allocation's"),
                }
            }
        }
    }

    /// Everything the module docs compare after every step.
    fn compare(&self, model: &Model, at: &dyn Fn() -> String) {
        let heap = self.heap();
        let (stats, live, promoted) = match self {
            Column::Heap { .. } => (heap.stats(), heap.live_objects(), heap.promoted_classes()),
            Column::DieHard { front, .. } => (
                front.stats(),
                front.live_objects(),
                front.promoted_classes(),
            ),
        };
        assert_eq!(stats, model.stats(), "{}", at());
        assert_eq!(live, model.live_objects(), "{}", at());
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
        let (offers, promotes) = match self {
            Column::Heap { ctx: None, .. } => (None, 0),
            Column::Heap { ctx: Some(ctx), .. } => (Some(calls(*ctx)), model.promoted()),
            Column::DieHard { .. } => (None, model.promoted()),
        };
        assert_eq!(promoted, promotes, "{}", at());
        if let Some(offers) = offers {
            assert_eq!(offers, model.offers, "{}", at());
        }
    }
}

/// What one front's run did: each step and what the model said it does,
/// and the model as it ended.
type Run = (Vec<(Op, Outcome)>, Model);

/// Runs `script` from `seed` on heaps of `M` = `m`, regions of
/// `region_bytes` and start fraction `k`: on the heap's columns, then on
/// `DieHard`'s, each against a model of its own, comparing them as the
/// module docs say.
fn check(seed: u64, m: usize, region_bytes: usize, k: u32, script: Script) -> [Run; 2] {
    let config = HeapConfig::default()
        .with_multiplier(m as f64)
        .with_region_bytes(region_bytes);
    [false, true].map(|die_hard| {
        let columns = if die_hard {
            let each = [true, false].map(|sole| Column::of_die_hard(&config, seed, k, sole));
            Vec::from(each)
        } else {
            let each = [(true, true), (false, true), (false, false)];
            let each = each.map(|(sole, hooked)| Column::of_heap(&config, seed, k, sole, hooked));
            Vec::from(each)
        };
        let model = Model::new(region_bytes, m, k, seed);
        run(seed, script, die_hard, model, columns)
    })
}

/// One front's half of [`check`].
fn run(
    seed: u64,
    script: Script,
    die_hard: bool,
    mut model: Model,
    mut columns: Vec<Column>,
) -> Run {
    for column in &columns {
        column.compare(&model, &|| {
            format!("before the first step ({})", column.name())
        });
    }
    let mut rng = Mwc::seeded(seed ^ 0x5C81_97E0);
    let (mut live, mut freed, mut served_large) = (Vec::new(), Vec::new(), 0);
    let mut steps = Vec::new();
    while let Some(op) = script.next(&mut rng, steps.len(), &model, &mut live, &freed) {
        let expected = match op {
            Op::Alloc(size) => {
                let answer = model.alloc(if die_hard { size.max(1) } else { size });
                if let AllocOutcome::Placed(slot) = answer {
                    live.push(Target::At(model.offset(slot)));
                } else if die_hard {
                    live.push(Target::Large(served_large));
                    served_large += 1;
                }
                Outcome::Alloc(answer)
            }
            Op::Free(Target::At(offset)) => {
                let outcome = model.free(offset);
                if outcome.freed() {
                    live.retain(|&target| target != Target::At(offset));
                    freed.push(offset);
                }
                Outcome::Free(outcome)
            }
            Op::Free(Target::Large(_)) => Outcome::Free(FreeOutcome::NotInHeap),
        };
        let n = steps.len();
        for column in &mut columns {
            let name = column.name();
            let at = || format!("step {n}: {op:?} ({name})");
            column.step(op, expected, &model, &at);
            column.compare(&model, &at);
        }
        steps.push((op, expected));
    }
    for column in &mut columns {
        let heap = column.heap();
        for region in &model.regions {
            let partition = heap.partition(region.class);
            let books = (partition.probe_stats(), partition.in_use());
            let expected = ((region.allocs, region.probes), region.in_use);
            assert_eq!(books, expected, "{} ({})", region.class, column.name());
        }
        let slots: Vec<Slot> = heap.live_slots().collect();
        assert_eq!(slots, model.live_slots(), "{}", column.name());
        match column {
            Column::Heap { ctx: Some(ctx), .. } => {
                CALLS.lock().unwrap().retain(|call| call.0 != *ctx);
            }
            Column::Heap { .. } => {}
            Column::DieHard {
                sole, front, large, ..
            } => {
                for &target in &live {
                    if let Target::Large(n) = target {
                        front.free_in(*sole, large[n]).unwrap();
                    }
                }
            }
        }
    }
    (steps, model)
}

/// The smallest region that holds a 16 KiB object under `M`, times
/// `2^grow`.
fn region(m: usize, grow: u32) -> usize {
    HeapConfig::min_region_bytes(m as f64) << grow
}

/// A fixed script that visits every outcome: placements in every class,
/// growth, a promotion, a class grown to its maximum and denied there, and
/// each kind of ignored free — on 4 MB regions born at half their size, so
/// a large class's first step completes a huge page. `DieHard`'s run
/// places a 0 B request, and serves a spill and a request past 16 KiB
/// outside its span, and frees them there.
#[test]
fn one_script_visits_every_outcome() {
    let [(steps, model), (front, _)] = check(0x5A, 8, 4 << 20, 1, Script::Random(3000));
    let seen =
        |steps: &[(Op, Outcome)], wanted: &dyn Fn(&(Op, Outcome)) -> bool| steps.iter().any(wanted);
    for steps in [&steps, &front] {
        for outcome in [AllocOutcome::Spill, AllocOutcome::Unsupported] {
            let alloc = Outcome::Alloc(outcome);
            assert!(seen(steps, &|s| s.1 == alloc), "{outcome:?}");
        }
        for outcome in [
            FreeOutcome::NotInHeap,
            FreeOutcome::MisalignedOffset,
            FreeOutcome::NotAllocated,
        ] {
            assert!(
                seen(steps, &|s| s.1 == Outcome::Free(outcome)),
                "{outcome:?}"
            );
        }
        assert!(seen(steps, &|s| matches!(
            s.1,
            Outcome::Free(FreeOutcome::Freed(_))
        )));
    }
    assert!(seen(&steps, &|s| matches!(
        s,
        (Op::Alloc(0), Outcome::Alloc(AllocOutcome::Unsupported))
    )));
    assert!(seen(&front, &|s| matches!(
        s,
        (Op::Alloc(0), Outcome::Alloc(AllocOutcome::Placed(_)))
    )));
    assert!(seen(&front, &|s| matches!(s.0, Op::Free(Target::Large(_)))));
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
                check(
                    0xE1A5 + u64::from(k),
                    m,
                    region_bytes,
                    k,
                    Script::Random(600),
                );
            }
        }
    }
}

/// The geometry `libdiehard.so` ships — 32 MB regions from a 64 KiB start
/// — under the alloc-only ladder: the 16 KiB class grows past a huge page,
/// the busy 8-byte class stays below one, and the 64-byte class climbs to
/// its maximum, offered each huge page of its region once.
#[test]
fn the_shipped_geometry_is_the_model() {
    let config = HeapConfig::paper_default();
    let (m, region_bytes) = (config.multiplier as usize, config.region_bytes);
    let [(_, model), _] = check(0xD17EC7, m, region_bytes, DEFAULT_GROW_LOG2, Script::Ladder);
    let class = |size| SizeClass::for_size(size).unwrap().index();
    let hot = &model.regions[class(64)];
    assert_eq!(
        hot.capacity,
        hot.live.len(),
        "the 64-byte class at its maximum"
    );
    assert!(
        model.regions[class(8)].in_use >= 1024,
        "the 8-byte class is busy"
    );
    assert_eq!(
        model.promoted() & 1 << class(8),
        0,
        "8 B spans no huge page"
    );
    assert_ne!(model.promoted() & 1 << class(16 << 10), 0);
    let offered = model
        .offers
        .iter()
        .filter(|o| o.0 / region_bytes == class(64));
    assert_eq!(offered.map(|o| o.1).sum::<usize>(), region_bytes);
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
        check(seed, m, region(m, grow), k, Script::Random(len));
    }
}
