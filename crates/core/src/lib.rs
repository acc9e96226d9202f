//! # diehard-core
//!
//! A from-scratch Rust implementation of the **DieHard** randomized memory
//! manager from *DieHard: Probabilistic Memory Safety for Unsafe Languages*
//! (Berger & Zorn, PLDI 2006).
//!
//! DieHard approximates an *infinite heap* — one where objects are never
//! reused and live infinitely far apart, so buffer overflows and dangling
//! pointers are benign — with a heap `M` times larger than required:
//! objects are placed **uniformly at random** within twelve power-of-two
//! size-class regions, each capped at `1/M` fullness; heap metadata is fully
//! segregated from the heap; and frees are validated and *ignored* when
//! invalid. The result is **probabilistic memory safety**: exact, computable
//! probabilities of surviving buffer overflows and dangling-pointer errors,
//! and (with replicas) of detecting uninitialized reads.
//!
//! ## Layout of this crate
//!
//! * [`rng`] — Marsaglia multiply-with-carry generator (§4.1).
//! * [`bitmap`] — the slot-state maps: §4.1's allocation bitmap, two bits
//!   per object.
//! * [`size_class`] — the twelve 8 B…16 KB classes (§4.1).
//! * [`partition`] — per-class random probing and the `1/M` cap (§4.2):
//!   one implementation, instantiated for shared and for single-owner use.
//! * [`engine`] — the outcome types of `DieHardMalloc`/`DieHardFree` and
//!   the memory-free offset ↔ slot arithmetic every layer shares.
//! * [`large`] — the large-object validity table (§4.1–4.3).
//! * [`safe_str`] — heap-bounded `strcpy`/`strncpy` (§4.4).
//! * [`env`] — audited parsing for the `DIEHARD_*` environment knobs.
//! * [`analysis`] — Theorems 1–3 and the expectation formulas (§3.1, §6).
//! * [`sync`] — allocation-free [`sync::SpinLock`] and [`sync::OnceCell`],
//!   and [`sync::Word`], whose [`sync::Arm`] decides how every partition —
//!   and the heap built from them — updates its state.
//! * [`sharded`] — [`Heap`], **the** heap: twelve partitions behind one
//!   `DieHardMalloc`/`DieHardFree` over abstract byte offsets; lock-free per
//!   operation, `Sync` in its default arm (the real heap) and single-owner
//!   in [`sync::Plain`] (the simulated one); elastic on request (§9).
//! * [`magazine`] — thread-local allocation magazines, a cache in front of
//!   the heap: batched, probe-loop-sampled refills and buffered frees, so
//!   same-class allocations from different threads stop contending too.
//! * [`global`] *(feature `global`, Unix)* — a real `#[global_allocator]`
//!   built on `mmap`, with guard-paged large objects, sharded per class.
//!
//! ## Quick start
//!
//! ```
//! use diehard_core::{config::HeapConfig, Heap};
//!
//! let heap: Heap = Heap::new(HeapConfig::default(), 0xD1E_4A8D)?;
//! let slot = heap.alloc(48).expect("plenty of room");
//! assert_eq!(slot.size(), 64); // rounded to the class size
//! let offset = heap.offset_of(slot);
//!
//! // Erroneous frees are ignored, not fatal:
//! assert!(!heap.free_at(offset + 1).freed()); // misaligned: ignored
//! assert!(heap.free_at(offset).freed());      // valid free
//! assert!(!heap.free_at(offset).freed());     // double free: ignored
//! # Ok::<(), diehard_core::config::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod bitmap;
pub mod config;
pub mod engine;
pub mod env;
pub mod large;
pub mod magazine;
pub mod partition;
pub mod rng;
pub mod safe_str;
pub mod sharded;
pub mod size_class;
pub mod sync;

#[cfg(all(feature = "global", unix))]
pub mod global;

pub use config::{FillPolicy, HeapConfig, HeapGeometry};
pub use engine::{AllocOutcome, AtomicHeapStats, FreeOutcome, HeapStats, Slot};
pub use magazine::{MagazineCache, ThreadMagazines};
pub use rng::Mwc;
pub use sharded::Heap;
pub use size_class::SizeClass;
pub use sync::{OnceCell, SpinGuard, SpinLock};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_where_expected() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::engine::HeapCore>();
        assert_send::<crate::rng::Mwc>();
        assert_send::<crate::partition::Partition>();
        assert_send::<crate::large::LargeTable>();
    }

    #[test]
    fn sharded_heap_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<crate::Heap>();
        assert_sync::<crate::partition::AtomicPartition>();
        assert_sync::<crate::engine::AtomicHeapStats>();
        assert_sync::<crate::sync::SpinLock<u64>>();
    }
}
