//! The names the frozen `benchmark/` package reaches the heap through.
//!
//! Every caller reaches the heap the one way §4.2 describes,
//! [`Heap::try_alloc`] and [`Heap::free_at`]: there is no per-thread cache
//! in front of it. The benchmark's ledger still times
//! `MagazineHeap::thread_cache()` with `alloc`, `free_at` and `flush`, so
//! [`MagazineCache`] forwards each call to the heap, and `flush` does
//! nothing, because a free is complete when it returns; the ledger's
//! `core.magazine.*` rows therefore time the shared heap's own path. No
//! in-tree code beyond this module's tests calls it.

use crate::engine::{AllocOutcome, FreeOutcome, Slot};
use crate::sharded::Heap;

/// [`Heap`] under the name the frozen `benchmark/` package imports.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, magazine::MagazineHeap};
///
/// let heap = MagazineHeap::new(HeapConfig::default(), 42)?;
/// let mut cache = heap.thread_cache();
/// let slot = cache.alloc(100).expect("space available");
/// let off = heap.offset_of(slot);
/// assert!(heap.is_live_at(off));
/// assert!(cache.free_at(off).freed());
/// assert_eq!(heap.live_objects(), 0); // complete on return: nothing to flush
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
pub type MagazineHeap = Heap;

/// A pass-through in front of a heap: each call is the heap's own
/// ([`Heap::thread_cache`] makes one; the module docs have why it exists).
#[derive(Debug)]
pub struct MagazineCache<'h> {
    heap: &'h Heap,
}

impl Heap {
    /// A [`MagazineCache`] over this heap: the heap's own calls under the
    /// benchmark ledger's names.
    #[must_use]
    pub fn thread_cache(&self) -> MagazineCache<'_> {
        MagazineCache { heap: self }
    }
}

impl MagazineCache<'_> {
    /// [`Heap::alloc`].
    pub fn alloc(&mut self, size: usize) -> Option<Slot> {
        self.heap.alloc(size)
    }

    /// [`Heap::try_alloc`].
    pub fn try_alloc(&mut self, size: usize) -> AllocOutcome {
        self.heap.try_alloc(size)
    }

    /// [`Heap::free_at`].
    pub fn free_at(&mut self, offset: usize) -> FreeOutcome {
        self.heap.free_at(offset)
    }

    /// Does nothing: every free through this cache is already complete.
    pub fn flush(&mut self) {}
}

#[cfg(test)]
mod tests {
    //! The pass-through is the heap: the same placements, the same books,
    //! from any thread, beside direct calls.
    use super::*;
    use crate::config::HeapConfig;
    use crate::sharded::tests::Alone;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn heap(seed: u64) -> Heap {
        Heap::new(HeapConfig::default(), seed).unwrap()
    }

    #[test]
    fn alloc_only_sequence_matches_sharded_exactly() {
        let (cached, uncached) = (heap(0xABCD), heap(0xABCD));
        let mut cache = cached.thread_cache();
        for req in [8usize, 8, 24, 100, 1000, 4000, 16_000, 8, 64, 100, 100] {
            assert_eq!(cache.alloc(req), uncached.alloc(req), "request {req}");
        }
    }

    #[test]
    fn exhaustion_is_counted_per_denied_request() {
        // 32 KB regions: the 16 KB class has capacity 2, threshold 1.
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let h: Heap = Heap::new(cfg, 19).unwrap();
        let mut cache = h.thread_cache();
        assert!(cache.alloc(16 * 1024).is_some());
        assert_eq!(cache.try_alloc(16 * 1024), AllocOutcome::Spill);
        assert!(cache.alloc(16 * 1024).is_none());
        let stats = h.stats();
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.exhausted, 2);
    }

    /// Single-threaded alloc-only histories are bit-identical through the
    /// pass-through and without it on an elastic heap.
    #[test]
    fn elastic_alloc_sequence_matches_elastic_sharded() {
        let elastic = || -> Heap { Heap::new_elastic(HeapConfig::default(), 0xE1A5, 6).unwrap() };
        let (cached, uncached) = (elastic(), elastic());
        let mut cache = cached.thread_cache();
        for i in 0..2000usize {
            let req = 1 + (i * 37) % 1024;
            assert_eq!(cache.alloc(req), uncached.alloc(req), "request {i}");
        }
    }

    #[test]
    fn cached_and_uncached_traffic_interleave() {
        let h = heap(23);
        let mut cache = h.thread_cache();
        let a = cache.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        assert_ne!(a, b);
        assert!(h.free_at(h.offset_of(b)).freed());
        assert!(cache.free_at(h.offset_of(a)).freed());
        assert!(
            !cache.free_at(h.offset_of(a)).freed(),
            "double free ignored"
        );
        assert_eq!(h.live_objects(), 0);
        let stats = h.stats();
        assert_eq!((stats.allocs, stats.frees, stats.ignored_frees), (2, 2, 1));
    }

    /// Alloc on thread A, free on thread B — the ledger's remote-free row —
    /// with stats reconciled against a load + store shadow run of the same
    /// logical operation sequence.
    #[test]
    fn cross_thread_traffic_flushes_and_reconciles() {
        const N: usize = 500;
        let h = Arc::new(heap(0xC0DE));
        // Sizes stay ≤ 1 KB: the producer may run far ahead of the consumer
        // on one CPU, so every class it touches must hold its share of all N
        // objects below its 1/M threshold — the 1 KB class allows 512 live,
        // the 16 KB class only 32.
        let sizes: Vec<usize> = {
            let mut rng = crate::rng::Mwc::seeded(0xC0DE);
            (0..N).map(|_| 1 + rng.below(1024)).collect()
        };
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let producer = {
            let h = Arc::clone(&h);
            let sizes = sizes.clone();
            std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for &sz in &sizes {
                    let slot = cache.alloc(sz).expect("default heap is ample");
                    tx.send(h.offset_of(slot)).unwrap();
                }
            })
        };
        let consumer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for off in rx {
                    assert!(cache.free_at(off).freed());
                }
                cache.flush();
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert_eq!(h.live_objects(), 0);

        let shadow = Alone(heap(0xC0DE));
        let offs: Vec<usize> = sizes
            .iter()
            .map(|&sz| shadow.offset_of(shadow.alloc(sz).unwrap()))
            .collect();
        for off in offs {
            assert!(shadow.free_at(off).freed());
        }
        assert_eq!(h.stats(), shadow.stats(), "stats reconcile with shadow");
    }

    /// Eight threads through their own pass-throughs, every class: served,
    /// denied and freed add up exactly once they join.
    #[test]
    fn stress_eight_threads_exact_stats() {
        const THREADS: u64 = 8;
        const OPS: usize = 2500;
        let h = Arc::new(heap(0x57E55));
        let totals = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (h, totals) = (Arc::clone(&h), Arc::clone(&totals));
                std::thread::spawn(move || {
                    let mut cache = h.thread_cache();
                    let mut rng = crate::rng::Mwc::seeded(0xF00D ^ t);
                    let mut live: Vec<usize> = Vec::new();
                    for _ in 0..OPS {
                        totals[0].fetch_add(1, Ordering::Relaxed);
                        if let Some(slot) = cache.alloc(1 + rng.below(16 * 1024)) {
                            totals[1].fetch_add(1, Ordering::Relaxed);
                            live.push(h.offset_of(slot));
                        }
                        if live.len() > 32 {
                            let victim = live.swap_remove(rng.below(live.len()));
                            assert!(cache.free_at(victim).freed());
                        }
                    }
                    for off in live {
                        assert!(cache.free_at(off).freed());
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let [attempted, served] = [0, 1].map(|i| totals[i].load(Ordering::Relaxed));
        let stats = h.stats();
        assert_eq!(h.live_objects(), 0, "all served objects freed");
        assert_eq!((stats.allocs, stats.frees), (served, served));
        assert_eq!(stats.ignored_frees, 0);
        assert_eq!(
            stats.exhausted,
            attempted - served,
            "every failure a denial"
        );
    }

    /// §4.2 through the pass-through, four threads churning the 8-byte
    /// class held just under its `1/M` cap: E[probes] ≈ 1/(1 − 1/M) = 2.
    #[test]
    fn probe_expectation_holds_through_magazines() {
        const THREADS: usize = 4;
        const OPS: usize = 20_000;
        let h = Arc::new(heap(0x9E0E));
        let mut offs = Vec::new();
        while let Some(slot) = h.alloc(8) {
            offs.push(h.offset_of(slot));
        }
        for off in offs.drain(..THREADS * 4) {
            assert!(h.free_at(off).freed());
        }
        let (a0, p0) = h.probe_stats();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut cache = h.thread_cache();
                for _ in 0..OPS {
                    if let Some(slot) = cache.alloc(8) {
                        assert!(cache.free_at(h.offset_of(slot)).freed());
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let (a1, p1) = h.probe_stats();
        assert!(a1 - a0 > (THREADS * OPS) as u64 / 2, "churn mostly served");
        let mean = (p1 - p0) as f64 / (a1 - a0) as f64;
        assert!(
            (mean - 2.0).abs() < 0.2,
            "steady-state probes {mean}, expected ≈ 2"
        );
    }

    proptest! {
        /// Allocs and frees through the pass-through plus direct bogus
        /// frees keep the heap consistent with an offset-keyed model.
        #[test]
        fn magazine_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            let h = heap(seed);
            let mut cache = h.thread_cache();
            let mut model: HashMap<usize, Slot> = HashMap::new();
            let mut rng = crate::rng::Mwc::seeded(seed ^ 0xABCD);
            for (op, arg) in ops {
                match op {
                    0 => {
                        if let Some(slot) = cache.alloc(arg.min(16 * 1024)) {
                            let off = h.offset_of(slot);
                            prop_assert!(model.insert(off, slot).is_none(),
                                "offset reuse while live");
                        }
                    }
                    1 => {
                        if !model.is_empty() {
                            let keys: Vec<usize> = model.keys().copied().collect();
                            let off = keys[rng.below(keys.len())];
                            prop_assert!(cache.free_at(off).freed());
                            model.remove(&off);
                        }
                    }
                    _ => {
                        let off = rng.below(h.heap_span() + 1000);
                        if let FreeOutcome::Freed(_) = h.free_at(off) {
                            prop_assert!(model.remove(&off).is_some(),
                                "freed an object the model did not know");
                        }
                    }
                }
                prop_assert_eq!(h.live_objects(), model.len());
            }
        }
    }
}
