//! The one history recorder behind the cross-arm / cross-path pins.
//!
//! A *script* is a deterministic sequence of allocations and frees written
//! against a [`Recorder`]; [`record`] runs it on a [`Heap`] and returns
//! everything the run left behind as a [`Trace`]. Two runs of one script
//! are the same history exactly when their traces are equal. Whatever else
//! can serve a script (the global allocator, in `single_thread.rs`)
//! implements [`Path`] and goes through [`drive`]. The histories
//! `growth.rs` pins are here too, so that `single_thread.rs` can record
//! them while the process is alone, in the load + store arm no libtest
//! harness reaches.

// Each test binary uses its own subset.
#![allow(dead_code)]

use diehard_core::config::HeapConfig;
use diehard_core::engine::{HeapStats, DEFAULT_INITIAL_FRACTION_LOG2};
use diehard_core::rng::Mwc;
use diehard_core::size_class::SizeClass;
use diehard_core::Heap;

/// One way of reaching a heap: what a script allocates and frees through.
pub trait Path {
    /// Allocates `size` bytes; where the object landed, `None` when denied.
    fn alloc(&mut self, size: usize) -> Option<usize>;
    /// Frees the object at `at`; `true` when the path accepted the free.
    fn free(&mut self, at: usize) -> bool;
}

/// The heap's own path.
impl Path for &Heap {
    fn alloc(&mut self, size: usize) -> Option<usize> {
        Heap::alloc(self, size).map(|slot| self.offset_of(slot))
    }

    fn free(&mut self, at: usize) -> bool {
        self.free_at(at).freed()
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

/// Runs `script` on `heap` and returns the trace.
pub fn record(heap: &Heap, script: impl FnOnce(&mut Recorder<'_>)) -> Trace {
    let ops = drive(&mut &*heap, script);
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

/// A 64 KiB start in a paper-sized 32 MB region: thirty-six steps below the
/// maximum, twenty up to one huge page. (What `libdiehard.so` ships with; the
/// feature-gated `global` tests pin that ladder under the constant itself.)
pub const START_64K_LOG2: u32 = 9;

/// The two elastic heaps `growth.rs`'s histories run on, as `(config, start
/// fraction, mixed sizes of the ladder history)`: the §9 experiments' (1 MB
/// regions from 1/64) and the shipped one (32 MB regions from 64 KiB).
pub fn ladders() -> [(HeapConfig, u32, usize); 2] {
    [
        (HeapConfig::default(), DEFAULT_INITIAL_FRACTION_LOG2, 4000),
        (HeapConfig::paper_default(), START_64K_LOG2, 300),
    ]
}

/// The sizes of `growth.rs`'s alloc-only ladder history on `config`:
/// `mixed` sizes spread over every class (on 1 MB regions the large classes
/// climb to their maximum and then spill; on 32 MB regions they grow, the
/// 16 KiB class past 2 MB); then 1 024 allocations into the 8-byte class,
/// inside a range far below 2 MB; then the 64-byte class past its last
/// step (fifteen sixteenths of the `1/M` allowance of its maximum; the last
/// step is at seven eighths).
pub fn ladder_sizes(config: &HeapConfig, seed: u64, mixed: usize) -> impl Iterator<Item = usize> {
    let hot = SizeClass::for_size(64).unwrap();
    let small_hot = mixed + 1024;
    let total = small_hot + config.threshold(hot) / 16 * 15;
    let mut rng = Mwc::seeded(seed ^ 0x5EED);
    (0..total).map(move |i| {
        if i < mixed {
            1 + rng.below(16 * 1024)
        } else if i < small_hot {
            8
        } else {
            64
        }
    })
}

/// `growth.rs`'s mixed history: 20 000 operations, two allocations of 1 B …
/// 1 KiB to every free of a random live object.
pub fn mixed_script(seed: u64) -> impl FnOnce(&mut Recorder<'_>) {
    move |r| {
        let mut rng = Mwc::seeded(seed);
        let mut live: Vec<usize> = Vec::new();
        for _ in 0..20_000usize {
            if rng.below(3) < 2 || live.is_empty() {
                live.extend(r.alloc(1 + rng.below(1024)));
            } else {
                r.free(live.swap_remove(rng.below(live.len())));
            }
        }
    }
}

/// The object size of [`promote_script`].
pub const PROMOTE_SIZE: usize = 16 * 1024;
/// Objects [`promote_script`] holds: the step of the 16 KiB class to 2 MB
/// follows the one that finds the 1.75 MB range's `1/M` allowance (on
/// `paper_default`) used up.
pub const PROMOTE_LIVE: usize = 57;
/// Free + alloc pairs of [`promote_script`] after the step.
pub const PROMOTE_CHURN: usize = 500;

/// `growth.rs`'s promotion history on `paper_default` from a 64 KiB start:
/// the 16 KiB class taken to 2 MB with [`PROMOTE_LIVE`] objects — far fewer
/// allocations than one huge page has base pages — then [`PROMOTE_CHURN`]
/// free + alloc pairs below its threshold.
pub fn promote_script(seed: u64) -> impl FnOnce(&mut Recorder<'_>) {
    move |r| {
        let mut rng = Mwc::seeded(seed);
        let mut held: Vec<usize> = (0..PROMOTE_LIVE)
            .map(|_| r.alloc(PROMOTE_SIZE).unwrap())
            .collect();
        for _ in 0..PROMOTE_CHURN {
            assert!(r.free(held.swap_remove(rng.below(held.len()))));
            held.push(r.alloc(PROMOTE_SIZE).expect("below the threshold"));
        }
    }
}
