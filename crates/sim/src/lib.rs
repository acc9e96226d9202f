//! # diehard-sim
//!
//! The simulated memory substrate for the DieHard (PLDI 2006) reproduction.
//!
//! The paper's evaluation observes real C programs crashing, hanging, or
//! silently corrupting memory under injected and natural heap errors. To
//! reproduce those experiments safely and deterministically, this crate
//! provides:
//!
//! * [`arena::PagedArena`] — a sparse byte-addressed address space in which
//!   **in-bounds overflow writes really corrupt neighbouring data** (no
//!   Rust-level protection gets in the way), while unmapped/guarded accesses
//!   surface as [`fault::Fault`] values instead of killing the process;
//! * [`traits::SimAllocator`] — the allocator interface implemented by
//!   DieHard and every baseline it is compared against;
//! * [`DieHardSimHeap`] — DieHard itself over the arena, sharing the exact
//!   placement engine with the real `GlobalAlloc` allocator;
//! * [`InfiniteHeap`] — the paper's §3 idealized heap, used as the
//!   ground-truth oracle: a run is *correct* iff its output matches the
//!   infinite-heap run;
//! * [`analysis`] — the paper's analytical model: Theorems 1–3 and the
//!   expectation formulas (§3.1, §6), in floating point, beside the
//!   experiments that check them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod arena;
pub mod diehard_heap;
pub mod fault;
pub mod infinite;
pub mod traits;

pub use arena::{FillPattern, PagedArena, PAGE_SIZE};
pub use diehard_heap::DieHardSimHeap;
pub use fault::Fault;
pub use infinite::InfiniteHeap;
pub use traits::{Addr, SimAllocator};
