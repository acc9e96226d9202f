//! DieHard running on the simulated address space.
//!
//! This wraps a [`Heap`] — the same placement/validation code the real
//! `GlobalAlloc` runs, in the arm this process's thread count picks at each
//! call — around a [`PagedArena`]. Small objects live in the
//! twelve randomized regions at arena offsets `[0, heap_span)`; large
//! objects are mapped above the small heap with simulated `PROT_NONE` guard
//! pages on both ends and are validated through a [`LargeTable`], exactly
//! mirroring §4.1–§4.3.

use crate::arena::{FillPattern, PagedArena, PAGE_SIZE};
use crate::fault::Fault;
use crate::traits::{Addr, SimAllocator};
use diehard_core::config::{FillPolicy, HeapConfig};
use diehard_core::engine::HeapStats;
use diehard_core::large::LargeTable;
use diehard_core::rng::Mwc;
use diehard_core::safe_str::{self, CopyOutcome};
use diehard_core::size_class::MAX_OBJECT_SIZE;
use diehard_core::Heap;

/// DieHard over simulated memory.
///
/// # Examples
///
/// ```
/// use diehard_sim::{DieHardSimHeap, SimAllocator};
/// use diehard_core::config::HeapConfig;
///
/// let mut heap = DieHardSimHeap::new(HeapConfig::default(), 1)?;
/// let a = heap.malloc(100, &[])?.expect("space");
/// heap.memory_mut().write(a, b"payload")?;
/// heap.free(a)?;        // valid
/// heap.free(a)?;        // double free: ignored, not fatal
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DieHardSimHeap {
    core: Heap,
    /// The stream replicated mode's random object fills are drawn from,
    /// seeded with the heap's master seed (placement draws come from the
    /// partitions' own streams, split from the same seed).
    fill_rng: Mwc,
    arena: PagedArena,
    large: LargeTable,
    /// Bump cursor for the large-object mapping area above the small heap.
    large_cursor: usize,
    large_live_bytes: usize,
}

impl DieHardSimHeap {
    /// Creates a DieHard heap in a fresh simulated address space.
    ///
    /// # Errors
    ///
    /// Returns [`diehard_core::config::ConfigError`] for invalid configs.
    pub fn new(config: HeapConfig, seed: u64) -> Result<Self, diehard_core::config::ConfigError> {
        let fill = match config.fill {
            FillPolicy::None => FillPattern::Zero,
            // Lazy analogue of "fill the heap with random values" (§4.1).
            FillPolicy::Random => FillPattern::Random(seed ^ 0x51D_E4A8),
        };
        let span = config.heap_span();
        // Large objects map above the small heap; give them an equal span.
        let arena = PagedArena::with_fill(span * 2, fill);
        let core = Heap::new(config, seed)?;
        Ok(Self {
            core,
            fill_rng: Mwc::seeded(seed),
            arena,
            large: LargeTable::new(1024),
            large_cursor: span,
            large_live_bytes: 0,
        })
    }

    /// The underlying engine (placement decisions, stats, config).
    #[must_use]
    pub fn core(&self) -> &Heap {
        &self.core
    }

    /// Engine statistics (allocs, frees, ignored frees).
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.core.stats()
    }

    /// DieHard's bounded `strcpy` against simulated memory (§4.4): the copy
    /// is clamped to the remaining space of the destination's heap object.
    ///
    /// # Errors
    ///
    /// Propagates arena faults (e.g. destination in a guard page).
    pub fn strcpy(&mut self, dest: Addr, src: &[u8]) -> Result<CopyOutcome, Fault> {
        let space =
            safe_str::space_in_object(self.core.geometry(), dest).unwrap_or_else(|| src.len() + 1);
        let mut buf = vec![0u8; space];
        self.arena.read(dest, &mut buf)?;
        let outcome = safe_str::bounded_strcpy(&mut buf, space, src);
        self.arena.write(dest, &buf)?;
        Ok(outcome)
    }

    /// Whether allocations are filled with random values.
    fn fill_policy(&self) -> FillPolicy {
        self.core.geometry().fill()
    }

    fn fill_random(&mut self, addr: usize, len: usize) -> Result<(), Fault> {
        // "REPLICATED: fill with random values" (Figure 2) — drawn from the
        // heap's own seeded stream so replicas with different seeds diverge.
        // `Mwc::fill_bytes` draws a word per 8 bytes and the arena is
        // written a page at a time, not one 8-byte write per draw; the byte
        // stream (and RNG advancement) is identical to the word-by-word
        // loop it replaces, so replica layouts and fills are unchanged.
        let mut buf = [0u8; PAGE_SIZE];
        let mut cursor = addr;
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(PAGE_SIZE);
            self.fill_rng.fill_bytes(&mut buf[..n]);
            self.arena.write(cursor, &buf[..n])?;
            cursor += n;
            remaining -= n;
        }
        Ok(())
    }

    fn malloc_large(&mut self, size: usize) -> Result<Option<Addr>, Fault> {
        let user_len = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let total = user_len + 2 * PAGE_SIZE;
        if self.large_cursor + total > self.arena.limit() {
            return Ok(None); // out of large-object address space
        }
        let base = self.large_cursor;
        self.large_cursor += total;
        let user = base + PAGE_SIZE;
        // Guard pages on either end (§4.1).
        self.arena.add_guard(base, user);
        self.arena.add_guard(user + user_len, base + total);
        if !self.large.insert(user, user_len) {
            return Ok(None);
        }
        self.large_live_bytes += user_len;
        if self.fill_policy() == FillPolicy::Random {
            self.fill_random(user, user_len)?;
        }
        Ok(Some(user))
    }
}

impl SimAllocator for DieHardSimHeap {
    fn name(&self) -> &'static str {
        "diehard"
    }

    fn malloc(&mut self, size: usize, _roots: &[Addr]) -> Result<Option<Addr>, Fault> {
        if size == 0 {
            return Ok(None);
        }
        if size > MAX_OBJECT_SIZE {
            return self.malloc_large(size);
        }
        match self.core.alloc(size) {
            Some(slot) => {
                let addr = self.core.offset_of(slot);
                if self.fill_policy() == FillPolicy::Random {
                    self.fill_random(addr, slot.size())?;
                }
                Ok(Some(addr))
            }
            None => Ok(None),
        }
    }

    fn free(&mut self, addr: Addr) -> Result<(), Fault> {
        if addr < self.core.heap_span() {
            // Full §4.3 validation; invalid frees are silently ignored.
            let _ = self.core.free_at(addr);
            return Ok(());
        }
        // Large object: validity table decides ("otherwise, it ignores the
        // request"). Freeing re-guards the range, simulating munmap: any
        // later access faults like a real use-after-unmap.
        if let Some(user_len) = self.large.remove(addr) {
            self.arena.add_guard(addr, addr + user_len);
            self.large_live_bytes -= user_len;
        }
        Ok(())
    }

    fn memory(&self) -> &PagedArena {
        &self.arena
    }

    fn memory_mut(&mut self) -> &mut PagedArena {
        &mut self.arena
    }

    fn usable_size(&self, addr: Addr) -> Option<usize> {
        if addr < self.core.heap_span() {
            if !self.core.is_live_at(addr) {
                return None;
            }
            return safe_str::space_in_object(self.core.geometry(), addr);
        }
        self.large.get(addr)
    }

    fn live_bytes(&self) -> usize {
        self.core.live_bytes() + self.large_live_bytes
    }

    fn work(&self) -> u64 {
        // Total bitmap probes across all twelve partitions (§4.2's cost).
        diehard_core::SizeClass::all()
            .map(|c| self.core.partition(c).probe_stats().1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(seed: u64) -> DieHardSimHeap {
        DieHardSimHeap::new(HeapConfig::default(), seed).unwrap()
    }

    #[test]
    fn small_alloc_write_read() {
        let mut h = heap(1);
        let a = h.malloc(64, &[]).unwrap().unwrap();
        h.memory_mut().write(a, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        h.memory().read(a, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert_eq!(h.usable_size(a), Some(64));
        assert_eq!(h.live_bytes(), 64);
    }

    #[test]
    fn overflow_between_objects_is_silent_corruption_not_crash() {
        let mut h = heap(2);
        let a = h.malloc(8, &[]).unwrap().unwrap();
        // Write far past the object: lands somewhere in the region, *no
        // fault* — the probabilistic model decides whether anything live
        // was hit. This is the crux of the simulated substrate.
        assert!(h.memory_mut().write(a, &[0xAA; 256]).is_ok());
    }

    #[test]
    fn double_and_invalid_frees_ignored() {
        let mut h = heap(3);
        let a = h.malloc(128, &[]).unwrap().unwrap();
        h.free(a).unwrap();
        h.free(a).unwrap(); // double
        h.free(a + 1).unwrap(); // misaligned
        h.free(usize::MAX / 3).unwrap(); // wild
        assert_eq!(h.stats().ignored_frees, 2); // double + misaligned-in-heap
    }

    #[test]
    fn large_objects_have_guard_pages() {
        let mut h = heap(4);
        let a = h.malloc(20_000, &[]).unwrap().unwrap();
        // Within bounds: fine (rounded to page multiple).
        h.memory_mut().write(a + 19_999, &[1]).unwrap();
        assert_eq!(h.usable_size(a), Some(20_480));
        // One byte past the rounded size: guard page faults.
        let err = h.memory_mut().write(a + 20_480, &[1]).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }));
        // Just before the object: front guard faults.
        let err = h.memory_mut().write(a - 1, &[1]).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }));
    }

    #[test]
    fn freed_large_object_faults_on_use() {
        let mut h = heap(5);
        let a = h.malloc(40_000, &[]).unwrap().unwrap();
        h.free(a).unwrap();
        assert!(h.memory_mut().write(a, &[1]).is_err(), "use-after-munmap");
        // Double free of a large object is ignored.
        h.free(a).unwrap();
    }

    #[test]
    fn random_fill_mode_randomizes_new_objects() {
        let cfg = HeapConfig::default().with_fill(FillPolicy::Random);
        let mut h1 = DieHardSimHeap::new(cfg.clone(), 100).unwrap();
        let mut h2 = DieHardSimHeap::new(cfg, 200).unwrap();
        let a1 = h1.malloc(64, &[]).unwrap().unwrap();
        let a2 = h2.malloc(64, &[]).unwrap().unwrap();
        let mut b1 = [0u8; 64];
        let mut b2 = [0u8; 64];
        h1.memory().read(a1, &mut b1).unwrap();
        h2.memory().read(a2, &mut b2).unwrap();
        assert!(b1.iter().any(|&x| x != 0), "object must be randomized");
        assert_ne!(b1, b2, "different replicas fill differently");
    }

    #[test]
    fn standalone_mode_objects_read_zero() {
        let mut h = heap(6);
        let a = h.malloc(64, &[]).unwrap().unwrap();
        let mut buf = [1u8; 64];
        h.memory().read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn strcpy_clamped_to_object() {
        let mut h = heap(7);
        let a = h.malloc(8, &[]).unwrap().unwrap();
        let out = h
            .strcpy(a, b"a very long string that would overflow")
            .unwrap();
        assert!(out.truncated);
        assert_eq!(out.copied, 7);
        let mut buf = [0u8; 8];
        h.memory().read(a, &mut buf).unwrap();
        assert_eq!(buf[7], 0);
        assert_eq!(&buf[..7], b"a very ");
    }

    #[test]
    fn usable_size_none_for_dead_or_wild() {
        let mut h = heap(8);
        let a = h.malloc(64, &[]).unwrap().unwrap();
        h.free(a).unwrap();
        assert_eq!(h.usable_size(a), None);
        assert_eq!(h.usable_size(usize::MAX / 4), None);
    }

    #[test]
    fn dangling_pointer_data_survives_until_reuse() {
        // The probabilistic heart of DieHard: a freed object's bytes stay
        // intact until random probing happens to land on its slot.
        let mut h = heap(9);
        let a = h.malloc(64, &[]).unwrap().unwrap();
        h.memory_mut().write(a, &[0x42; 64]).unwrap();
        h.free(a).unwrap();
        // A handful of fresh allocations are overwhelmingly unlikely to
        // reuse the 16K-slot region position.
        for _ in 0..4 {
            let _ = h.malloc(64, &[]).unwrap().unwrap();
        }
        let mut buf = [0u8; 64];
        h.memory().read(a, &mut buf).unwrap();
        // With a 1 MB region (16384 slots for 64 B), 4 allocations hitting
        // this exact slot has probability ~2.4e-4; treat survival as
        // deterministic for this seed (verified).
        assert_eq!(buf, [0x42; 64]);
    }

    #[test]
    fn exhaustion_returns_null() {
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let mut h = DieHardSimHeap::new(cfg, 10).unwrap();
        let mut served = 0;
        for _ in 0..10 {
            if h.malloc(16 * 1024, &[]).unwrap().is_some() {
                served += 1;
            }
        }
        assert_eq!(served, 1, "cap = capacity/M = 2/2 = 1");
    }

    #[test]
    fn work_counts_probes() {
        let mut h = heap(11);
        assert_eq!(h.work(), 0);
        h.malloc(64, &[]).unwrap();
        assert!(h.work() >= 1);
    }
}
