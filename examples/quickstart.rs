//! Quickstart: DieHard's probabilistic memory safety in two minutes.
//!
//! Demonstrates the core guarantees on a simulated heap: randomized
//! placement, tolerated erroneous frees, overflow masking, and dangling-
//! pointer survival — each compared against what the dlmalloc-style
//! baseline does with the very same program.
//!
//! Run: `cargo run --example quickstart`

use diehard::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== DieHard quickstart ==\n");

    // 1. Randomized placement: identical request sequences land in
    //    different places under different seeds.
    let mut a = DieHardSimHeap::new(HeapConfig::default(), 1)?;
    let mut b = DieHardSimHeap::new(HeapConfig::default(), 2)?;
    let pa = a.malloc(64, &[])?.unwrap();
    let pb = b.malloc(64, &[])?.unwrap();
    println!("same request, two seeds: {pa:#x} vs {pb:#x} (randomized layout)");

    // 2. Erroneous frees are validated and ignored (§4.3).
    let mut heap = DieHardSimHeap::new(HeapConfig::default(), 42)?;
    let p = heap.malloc(100, &[])?.unwrap();
    heap.memory_mut().write(p, b"important data")?;
    heap.free(p + 1)?; // misaligned: ignored
    heap.free(0xBAD_0000)?; // wild pointer: ignored
    heap.free(p)?; // valid
    heap.free(p)?; // double free: ignored
    let stats = heap.stats();
    println!(
        "frees: {} honored, {} erroneous ones ignored (no crash, no corruption)",
        stats.frees, stats.ignored_frees
    );

    // 3. Overflows usually land on empty space (§6.1): run the same buggy
    //    program under DieHard and under the dlmalloc-style baseline.
    let overflow_prog = Program::new(
        "overflow-demo",
        vec![
            Op::Alloc { id: 0, size: 24 },
            Op::Alloc { id: 1, size: 24 },
            Op::Write {
                id: 1,
                offset: 0,
                len: 24,
                seed: 7,
            },
            Op::Write {
                id: 0,
                offset: 0,
                len: 48,
                seed: 9,
            }, // 24-byte overflow!
            Op::Free { id: 1 },
            Op::Forget { id: 1 },
            Op::Alloc { id: 2, size: 24 },
            Op::Read {
                id: 2,
                offset: 0,
                len: 8,
            },
        ],
    );
    let libc = System::Libc.evaluate(&overflow_prog);
    let dh = System::DieHard {
        config: HeapConfig::default(),
        seed: 3,
    }
    .evaluate(&overflow_prog);
    println!("\nbuggy program (24-byte heap overflow):");
    println!("  dlmalloc-style allocator: {libc}");
    println!("  DieHard:                  {dh}");

    // 4. The analytical guarantee behind that behaviour (Theorem 1).
    println!("\nTheorem 1 — P(mask a single-object overflow):");
    for (label, frac) in [("1/8", 7.0 / 8.0), ("1/4", 3.0 / 4.0), ("1/2", 1.0 / 2.0)] {
        println!(
            "  heap {label} full: stand-alone {:5.1}%, three replicas {:6.2}%",
            100.0 * diehard::sim::analysis::p_overflow_mask(frac, 1, 1),
            100.0 * diehard::sim::analysis::p_overflow_mask(frac, 1, 3),
        );
    }

    // 5. Replication detects uninitialized reads (§3.2).
    let uninit_prog = Program::new(
        "uninit-demo",
        vec![
            Op::Alloc { id: 0, size: 64 },
            Op::Read {
                id: 0,
                offset: 0,
                len: 8,
            }, // never written
        ],
    );
    let set = ReplicaSet::new(3, 0xCAFE, HeapConfig::default());
    match set.run(&uninit_prog).outcome {
        ReplicatedOutcome::Divergence { at_chunk } => println!(
            "\nreplicated mode: 3 replicas disagreed at chunk {at_chunk} — \
             uninitialized read detected and terminated"
        ),
        other => println!("\nreplicated mode: {other:?}"),
    }
    Ok(())
}
