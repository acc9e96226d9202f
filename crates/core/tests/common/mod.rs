//! The one history recorder behind the cross-arm / cross-path pins.
//!
//! A *script* is a deterministic sequence of allocations and frees written
//! against a [`Recorder`]; [`record`] runs it on a [`Heap`] in either arm,
//! through a magazine cache or without one, and returns everything the run
//! left behind as a [`Trace`]. Two runs of one script are the same history
//! exactly when their traces are equal. Whatever else can serve a script
//! (the global allocator, in `single_thread.rs`) implements [`Path`] and goes
//! through [`drive`].

// Each test binary uses its own subset.
#![allow(dead_code)]

use diehard_core::engine::HeapStats;
use diehard_core::magazine::{CachedFree, MagazineCache};
use diehard_core::size_class::SizeClass;
use diehard_core::sync::Arm;
use diehard_core::Heap;

/// One way of reaching a heap: what a script allocates and frees through.
pub trait Path {
    /// Allocates `size` bytes; where the object landed, `None` when denied.
    fn alloc(&mut self, size: usize) -> Option<usize>;
    /// Frees the object at `at`; `true` when the path accepted the free.
    fn free(&mut self, at: usize) -> bool;
}

/// The uncached path: every operation goes straight to the heap.
impl<A: Arm> Path for &Heap<A> {
    fn alloc(&mut self, size: usize) -> Option<usize> {
        Heap::alloc(self, size).map(|slot| self.offset_of(slot))
    }

    fn free(&mut self, at: usize) -> bool {
        self.free_at(at).freed()
    }
}

/// The cached path: refills and buffered frees. A buffered free is accepted;
/// what becomes of it shows in the heap's counters once the cache flushes.
impl<A: Arm> Path for (&Heap<A>, MagazineCache<'_, A>) {
    fn alloc(&mut self, size: usize) -> Option<usize> {
        self.1.alloc(size).map(|slot| self.0.offset_of(slot))
    }

    fn free(&mut self, at: usize) -> bool {
        self.1.free_at(at) == CachedFree::Buffered
    }
}

/// What a script did, in script order. Offsets determine everything about a
/// free's outcome but whether the slot was live, so with equal placements
/// the accepted flag is the whole `FreeOutcome`.
#[derive(Debug, PartialEq, Default)]
pub struct Ops {
    /// Where each allocation landed (`None` = denied).
    pub placed: Vec<Option<usize>>,
    /// What each free reported (`true` = accepted).
    pub freed: Vec<bool>,
}

impl Ops {
    /// Panics at the first operation where `self` and `other` differ (a
    /// failed `assert_eq!` of the vectors would print all of both).
    pub fn assert_same(&self, other: &Ops, what: &str) {
        fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
            a.iter().zip(b).position(|(a, b)| a != b)
        }
        if let Some(i) = first_diff(&self.placed, &other.placed) {
            let (a, b) = (self.placed[i], other.placed[i]);
            panic!("{what}: placement {i} diverged: {a:?} vs {b:?}");
        }
        if let Some(i) = first_diff(&self.freed, &other.freed) {
            let (a, b) = (self.freed[i], other.freed[i]);
            panic!("{what}: free {i} diverged: {a} vs {b}");
        }
        let lengths = |ops: &Ops| (ops.placed.len(), ops.freed.len());
        assert_eq!(lengths(self), lengths(other), "{what}: history length");
    }
}

/// The handle a script drives: forwards to the [`Path`], notes every answer.
pub struct Recorder<'p> {
    path: &'p mut dyn Path,
    pub ops: Ops,
}

impl Recorder<'_> {
    pub fn alloc(&mut self, size: usize) -> Option<usize> {
        let at = self.path.alloc(size);
        self.ops.placed.push(at);
        at
    }

    pub fn free(&mut self, at: usize) -> bool {
        let accepted = self.path.free(at);
        self.ops.freed.push(accepted);
        accepted
    }
}

/// Runs `script` through `path`.
pub fn drive(path: &mut dyn Path, script: impl FnOnce(&mut Recorder<'_>)) -> Ops {
    let ops = Ops::default();
    let mut recorder = Recorder { path, ops };
    script(&mut recorder);
    recorder.ops
}

/// Everything one heap did with a script and was left holding afterwards.
#[derive(Debug, PartialEq)]
pub struct Trace {
    pub ops: Ops,
    /// Per class: `(allocs, probes)`.
    pub probe_stats: Vec<(u64, u64)>,
    pub stats: HeapStats,
    pub growths: u64,
    /// The promoted-classes mask (0 without a promote hook).
    pub promoted: u32,
}

impl Trace {
    /// Requires `self` and `other` to be one history: operations first, so
    /// a divergence is reported where it began, then the books.
    pub fn assert_same(&self, other: &Trace, what: &str) {
        self.ops.assert_same(&other.ops, what);
        assert_eq!(self.stats, other.stats, "{what}: heap statistics");
        assert_eq!(self.growths, other.growths, "{what}: growth steps");
        assert_eq!(self.promoted, other.promoted, "{what}: promoted mask");
        for (class, pair) in self.probe_stats.iter().zip(&other.probe_stats).enumerate() {
            assert_eq!(
                pair.0, pair.1,
                "{what}: class {class}: same draws, same probes"
            );
        }
    }
}

/// Runs `script` on `heap` — through a thread cache when `cached`, which is
/// flushed and dropped before the books are read — and returns the trace.
pub fn record<A: Arm>(
    heap: &Heap<A>,
    cached: bool,
    script: impl FnOnce(&mut Recorder<'_>),
) -> Trace {
    let ops = if cached {
        drive(&mut (heap, heap.thread_cache()), script)
    } else {
        drive(&mut &*heap, script)
    };
    assert_eq!(heap.reserved_slots(), 0, "a dropped cache returns them");
    Trace {
        ops,
        probe_stats: SizeClass::all()
            .map(|class| heap.partition(class).probe_stats())
            .collect(),
        stats: heap.stats(),
        growths: heap.growth_events(),
        promoted: heap.promoted_classes(),
    }
}
