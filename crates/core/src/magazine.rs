//! The names the frozen `benchmark/` package reaches the heap through.
//!
//! Every caller reaches the heap the one way §4.2 describes,
//! [`Heap::try_alloc`] and [`Heap::free_at`]: there is no per-thread cache
//! in front of it. The benchmark's ledger still times
//! `MagazineHeap::thread_cache()` with `alloc`, `free_at` and `flush`, so
//! [`MagazineCache`] forwards each call to the heap, and `flush` does
//! nothing, because a free is complete when it returns; the ledger's
//! `core.magazine.*` rows therefore time the shared heap's own path. No
//! in-tree code beyond this module's one test calls it, and that test pins
//! the forwarding: through the pass-through, a heap gives its twin's own
//! history and books, with the frees made on another thread.

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
    use super::*;
    use crate::config::HeapConfig;

    /// The pass-through is the heap: `alloc` and `try_alloc` on one thread
    /// and `free_at` and `flush` on another give a twin heap's own history
    /// and books — placements, a denial at the cap, a request no class
    /// serves, frees and ignored double frees.
    #[test]
    fn the_pass_through_is_the_heap() {
        // 32 KB regions: the 16 KB class holds one object under M = 2.
        let config = HeapConfig::default().with_region_bytes(32 * 1024);
        let twin = || Heap::new(config.clone(), 23).unwrap();
        let (through, direct) = (twin(), twin());
        let sizes = [8, 100, 16 * 1024, 16 * 1024, 1000, 0, 8];
        // Even steps `alloc`, odd ones `try_alloc`.
        let got: Vec<AllocOutcome> = std::thread::scope(|s| {
            let allocs = s.spawn(|| {
                let mut cache = through.thread_cache();
                let step = |(i, &size): (usize, &usize)| match i % 2 {
                    0 => cache
                        .alloc(size)
                        .map_or(AllocOutcome::Spill, AllocOutcome::Placed),
                    _ => cache.try_alloc(size),
                };
                sizes.iter().enumerate().map(step).collect()
            });
            allocs.join().unwrap()
        });
        let step = |(i, &size): (usize, &usize)| match i % 2 {
            0 => direct
                .alloc(size)
                .map_or(AllocOutcome::Spill, AllocOutcome::Placed),
            _ => direct.try_alloc(size),
        };
        let expected: Vec<AllocOutcome> = sizes.iter().enumerate().map(step).collect();
        assert_eq!(got, expected);
        assert_eq!(got[3], AllocOutcome::Spill);
        assert_eq!(got[5], AllocOutcome::Unsupported);
        let mut cache = through.thread_cache();
        for slot in got.iter().filter_map(|outcome| outcome.placed()) {
            let offset = through.offset_of(slot);
            for _ in 0..2 {
                assert_eq!(cache.free_at(offset), direct.free_at(offset));
            }
        }
        cache.flush();
        assert_eq!(through.stats(), direct.stats());
        assert_eq!(through.live_objects(), 0);
    }
}
