//! Workspace-wiring smoke tests: one op-stream program driven through the
//! whole stack — facade prelude → runtime executor → DieHard-on-sim and the
//! infinite-heap oracle — plus a subprocess check that the evaluation
//! binaries' `--smoke` fast path stays healthy. These exist so a bad
//! manifest edge (crate not linked, bin not registered, feature misrouted)
//! fails loudly in CI rather than at the first real experiment.

use diehard::prelude::*;

/// A small but representative program: churn across size classes, verified
/// writes and reads, a benign double free, and literal output.
fn smoke_program() -> Program {
    let mut ops = vec![Op::Print {
        bytes: b"workspace smoke\n".to_vec(),
    }];
    for i in 0..24u32 {
        ops.push(Op::Alloc {
            id: i,
            size: 8 + (i as usize * 37) % 2048,
        });
        ops.push(Op::Write {
            id: i,
            offset: 0,
            len: 8,
            seed: i as u8,
        });
    }
    for i in 0..24u32 {
        ops.push(Op::Read {
            id: i,
            offset: 0,
            len: 8,
        });
        if i % 3 == 0 {
            ops.push(Op::Free { id: i });
            ops.push(Op::Forget { id: i });
        }
    }
    // A double free on a still-bound handle: DieHard validates and ignores
    // it; the infinite heap has no reuse to corrupt either way.
    ops.push(Op::Alloc { id: 100, size: 64 });
    ops.push(Op::Free { id: 100 });
    ops.push(Op::Free { id: 100 });
    ops.push(Op::Forget { id: 100 });
    Program::new("workspace-smoke", ops)
}

#[test]
fn diehard_matches_infinite_heap_oracle() {
    let prog = smoke_program();
    let oracle = oracle_output(&prog);

    let mut heap = DieHardSimHeap::new(HeapConfig::default(), 0x5140E).unwrap();
    let outcome = run_program(&mut heap, &prog, &ExecOptions::default());
    assert_eq!(
        verdict(&outcome, &oracle),
        Verdict::Correct,
        "DieHard run must reproduce the infinite-heap output"
    );

    let mut infinite = InfiniteHeap::new();
    let oracle_outcome = run_program(&mut infinite, &prog, &ExecOptions::default());
    assert_eq!(verdict(&oracle_outcome, &oracle), Verdict::Correct);
}

#[test]
fn system_diehard_emulator_agrees() {
    let prog = smoke_program();
    let v = System::DieHard {
        config: HeapConfig::default(),
        seed: 7,
    }
    .evaluate(&prog);
    assert_eq!(v, Verdict::Correct);
}

/// Every crate in the workspace is reachable through the facade; touching
/// one symbol per crate catches a manifest that silently dropped an edge.
#[test]
fn facade_links_every_crate() {
    let _ = diehard::sim::analysis::p_overflow_mask(0.5, 1, 3);
    let _ = diehard::sim::PagedArena::new(1 << 20);
    let _ = diehard::baselines::LeaSimAllocator::new(1 << 20);
    let _ = diehard::runtime::Program::new("empty", Vec::new());
    let _ = diehard::inject::Injection::Dangling {
        frequency: 0.5,
        distance: 1,
    };
    let _ = diehard::workloads::profile_by_name("espresso").expect("espresso exists");
    let _ = diehard::replicate::CHUNK;
}
