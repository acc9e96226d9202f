//! §4 of the paper as an executable model, and the fixed heap held to it.
//!
//! [`Model`] is the randomized heap written as plainly as it can be: per
//! class a vector of slot states, an integer occupancy count and its
//! `⌊capacity / M⌋` cap, and a probe that draws `below(capacity)` until it
//! finds a free slot (§4.2); a free is §4.3's validation — inside the heap,
//! a multiple of the object size, a live slot — and otherwise ignored. It
//! has no atomics, no packed words, no shifts or masks, no `unsafe`, and it
//! shares no code with the heap but the sequential [`Mwc`], the per-class
//! stream split [`stream_seed`] and [`SizeClass`] (it answers in the heap's
//! outcome types, so the two compare directly): a change of representation
//! below it (the slot map, the ticket word, the typed class index) is judged
//! against it rather than against itself.
//!
//! The test drives a fixed [`Heap`] (growth fraction 0) through a seeded
//! script of allocations, frees, invalid frees and double frees, in the
//! load + store arm (`try_alloc_in(true, …)`, which only this crate can
//! call) and in the locked one, and after every operation compares what the
//! model says with what the heap did: the placement, the free's outcome,
//! [`HeapStats`], and each class's allocations and probes.

use crate::config::HeapConfig;
use crate::engine::{AllocOutcome, FreeOutcome, HeapStats, Slot};
use crate::rng::{stream_seed, Mwc};
use crate::sharded::Heap;
use crate::size_class::{SizeClass, MAX_OBJECT_SIZE, NUM_CLASSES};
use proptest::prelude::*;

/// One size class's region, §4.1–4.2.
struct Region {
    class: SizeClass,
    /// One entry per slot: is it live?
    live: Vec<bool>,
    /// Live slots (the paper's `inUse`).
    in_use: usize,
    /// At most this many live at once: `⌊capacity / M⌋`.
    cap: usize,
    /// The class's own random stream.
    rng: Mwc,
    allocs: u64,
    probes: u64,
}

/// The fixed heap: twelve regions of `region_bytes` each, back to back.
struct Model {
    region_bytes: usize,
    regions: Vec<Region>,
    frees: u64,
    ignored_frees: u64,
    exhausted: u64,
}

impl Model {
    fn new(region_bytes: usize, m: usize, seed: u64) -> Self {
        let regions = SizeClass::all()
            .map(|class| {
                let capacity = region_bytes / class.object_size();
                Region {
                    class,
                    live: vec![false; capacity],
                    in_use: 0,
                    cap: capacity / m,
                    rng: Mwc::seeded(stream_seed(seed, class.index() as u64)),
                    allocs: 0,
                    probes: 0,
                }
            })
            .collect();
        Self {
            region_bytes,
            regions,
            frees: 0,
            ignored_frees: 0,
            exhausted: 0,
        }
    }

    /// `DieHardMalloc`: no class for zero or more than 16 KiB; `NULL` (the
    /// heap's `Spill`) at the cap; else random probes until a free slot.
    fn alloc(&mut self, size: usize) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        let region = &mut self.regions[class.index()];
        if region.in_use >= region.cap {
            self.exhausted += 1;
            return AllocOutcome::Spill;
        }
        let index = loop {
            region.probes += 1;
            let index = region.rng.below(region.live.len());
            if !region.live[index] {
                break index;
            }
        };
        region.live[index] = true;
        region.in_use += 1;
        region.allocs += 1;
        AllocOutcome::Placed(Slot { class, index })
    }

    /// Where `slot`'s object starts in the heap.
    fn offset(&self, slot: Slot) -> usize {
        slot.class.index() * self.region_bytes + slot.index * slot.class.object_size()
    }

    /// `DieHardFree` (§4.3): outside the heap is for the large-object path;
    /// an offset that is not a multiple of its class's object size, or a
    /// slot that is not live, is ignored and counted.
    fn free(&mut self, offset: usize) -> FreeOutcome {
        if offset >= NUM_CLASSES * self.region_bytes {
            return FreeOutcome::NotInHeap;
        }
        let region = &mut self.regions[offset / self.region_bytes];
        let within = offset % self.region_bytes;
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

    fn stats(&self) -> HeapStats {
        HeapStats {
            allocs: self.regions.iter().map(|r| r.allocs).sum(),
            frees: self.frees,
            ignored_frees: self.ignored_frees,
            exhausted: self.exhausted,
        }
    }
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc(usize),
    Free(usize),
}

/// A seeded script over the model's own live objects: allocations biased
/// across the twelve classes (so small regions reach their cap), frees of
/// live objects, frees of freed ones, interior and wild pointers, and the
/// odd request no class serves. The model runs alongside, so every free is
/// aimed at what the heap should hold.
fn script(model: &mut Model, seed: u64, len: usize) -> Vec<(Op, Outcome)> {
    let mut rng = Mwc::seeded(seed ^ 0x5C81_97E0);
    let (mut live, mut freed): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let span = NUM_CLASSES * model.region_bytes;
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.below(100);
        let op = if roll < 45 || live.is_empty() {
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
            Op::Free(match rng.below(3) {
                0 => victim + 1 + rng.below(7),
                1 => rng.below(span),
                _ => span + rng.below(span),
            })
        };
        let outcome = match op {
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
        steps.push((op, outcome));
    }
    steps
}

/// What the model said a step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Alloc(AllocOutcome),
    Free(FreeOutcome),
}

/// Runs `steps` on a fixed heap of `config` in the arm `sole` picks and
/// compares it with the model op for op; `model` is the model after the
/// whole script, whose per-class books the heap must end with.
fn run(config: &HeapConfig, seed: u64, sole: bool, steps: &[(Op, Outcome)], model: &Model) {
    let heap = Heap::new(config.clone(), seed).expect("a valid configuration");
    let mut stats = HeapStats::default();
    for (n, &(op, expected)) in steps.iter().enumerate() {
        let got = match op {
            Op::Alloc(size) => Outcome::Alloc(heap.try_alloc_in(sole, size)),
            Op::Free(offset) => Outcome::Free(heap.free_at_in(sole, offset)),
        };
        assert_eq!(got, expected, "step {n}: {op:?} (sole = {sole})");
        if let Outcome::Alloc(AllocOutcome::Placed(slot)) = got {
            assert_eq!(heap.offset_of(slot), model.offset(slot), "step {n}");
        }
        // The model's running totals, step by step.
        match expected {
            Outcome::Alloc(AllocOutcome::Placed(_)) => stats.allocs += 1,
            Outcome::Alloc(AllocOutcome::Spill) => stats.exhausted += 1,
            Outcome::Free(FreeOutcome::Freed(_)) => stats.frees += 1,
            Outcome::Free(FreeOutcome::MisalignedOffset | FreeOutcome::NotAllocated) => {
                stats.ignored_frees += 1;
            }
            Outcome::Alloc(AllocOutcome::Unsupported) | Outcome::Free(FreeOutcome::NotInHeap) => {}
        }
        assert_eq!(heap.stats(), stats, "step {n}: {op:?} (sole = {sole})");
    }
    assert_eq!(heap.stats(), model.stats());
    for region in &model.regions {
        let partition = heap.partition(region.class);
        assert_eq!(
            partition.probe_stats(),
            (region.allocs, region.probes),
            "{} (sole = {sole})",
            region.class
        );
        assert_eq!(partition.in_use(), region.in_use, "{}", region.class);
        let live: Vec<usize> = partition.live_slots().collect();
        let expected: Vec<usize> = (0..region.live.len()).filter(|&i| region.live[i]).collect();
        assert_eq!(live, expected, "{}", region.class);
    }
}

/// The heap against the model for one seed and configuration: `M` is one
/// of 2, 3, 4 and 8, the region the smallest that holds a 16 KiB object
/// under it, times `2^grow`.
fn heap_matches_model(seed: u64, m: usize, grow: u32, len: usize) {
    let region_bytes = HeapConfig::min_region_bytes(m as f64) << grow;
    let config = HeapConfig::default()
        .with_multiplier(m as f64)
        .with_region_bytes(region_bytes);
    let mut model = Model::new(region_bytes, m, seed);
    let steps = script(&mut model, seed, len);
    for sole in [true, false] {
        run(&config, seed, sole, &steps, &model);
    }
}

/// A fixed script that visits every outcome: placements in every class,
/// the cap in the small regions of the largest ones, and each kind of
/// ignored free.
#[test]
fn one_script_visits_every_outcome() {
    let mut model = Model::new(HeapConfig::min_region_bytes(2.0), 2, 0x5A);
    let steps = script(&mut model, 0x5A, 3000);
    let seen = |wanted: &dyn Fn(&Outcome) -> bool| steps.iter().any(|(_, o)| wanted(o));
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
    heap_matches_model(0x5A, 2, 0, 3000);
}

proptest! {
    #[test]
    fn the_fixed_heap_is_the_model(
        seed in any::<u64>(),
        m in 0usize..4,
        grow in 0u32..4,
        len in 100usize..1500,
    ) {
        heap_matches_model(seed, [2, 3, 4, 8][m], grow, len);
    }
}
