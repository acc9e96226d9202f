//! # diehard — probabilistic memory safety for unsafe languages
//!
//! A from-scratch Rust reproduction of *DieHard: Probabilistic Memory
//! Safety for Unsafe Languages* (Berger & Zorn, PLDI 2006): the randomized
//! memory manager, the replicated execution architecture with output
//! voting, the analytical model, and the paper's full evaluation harness.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`](diehard_core) — the DieHard algorithm, analysis (Theorems
//!   1–3), and a real `#[global_allocator]`;
//! * [`sim`](diehard_sim) — the simulated address space, DieHard-on-sim,
//!   and the infinite-heap oracle;
//! * [`baselines`](diehard_baselines) — Lea/dlmalloc-style, BDW-GC-style,
//!   and Windows-style allocators;
//! * [`runtime`](diehard_runtime) — the op-stream executor, Table 1 system
//!   emulators, in-process replication, heap differencing;
//! * [`inject`](diehard_inject) — allocation tracing and fault injection;
//! * [`workloads`](diehard_workloads) — the paper's benchmark suite as
//!   deterministic allocation profiles, plus squid-sim;
//! * [`replicate`](diehard_replicate) — subprocess replication (`diehard`
//!   launcher binary).
//!
//! ## Quick start
//!
//! ```
//! use diehard::prelude::*;
//!
//! // A DieHard heap over simulated memory:
//! let mut heap = DieHardSimHeap::new(HeapConfig::default(), 42)?;
//! let p = heap.malloc(100, &[])?.expect("space available");
//! heap.memory_mut().write(p, b"probabilistic memory safety")?;
//! heap.free(p)?;
//! heap.free(p)?; // double free: validated and ignored, per the paper
//!
//! // The analytical model:
//! let p_mask = diehard::core::analysis::p_overflow_mask(7.0 / 8.0, 1, 3);
//! assert!(p_mask > 0.99);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use diehard_baselines as baselines;
pub use diehard_core as core;
pub use diehard_inject as inject;
pub use diehard_replicate as replicate;
pub use diehard_runtime as runtime;
pub use diehard_sim as sim;
pub use diehard_workloads as workloads;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use diehard_baselines::{BdwGcSim, LeaSimAllocator, WindowsSimAllocator};
    pub use diehard_core::config::{FillPolicy, HeapConfig};
    pub use diehard_core::engine::{FreeOutcome, Slot};
    pub use diehard_core::rng::Mwc;
    pub use diehard_core::sharded::Heap;
    pub use diehard_core::size_class::SizeClass;
    pub use diehard_runtime::{
        oracle_output, run_program, verdict, CheckPolicy, ExecOptions, Op, Program, ReplicaSet,
        ReplicatedOutcome, RunOutcome, System, Verdict,
    };
    pub use diehard_sim::{DieHardSimHeap, Fault, InfiniteHeap, PagedArena, SimAllocator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything_together() {
        let mut heap = DieHardSimHeap::new(HeapConfig::default(), 1).unwrap();
        let p = heap.malloc(64, &[]).unwrap().unwrap();
        heap.memory_mut().write(p, &[1; 64]).unwrap();
        assert_eq!(heap.free(p), Ok(()));
    }
}
