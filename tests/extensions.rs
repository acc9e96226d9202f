//! Integration tests for the paper's extension features (§9) and for
//! cross-cutting invariants: the adaptive heap under real workloads, the
//! M dial's monotone effect on protection, and bounded-strcpy end-to-end.

use diehard::core::engine::DEFAULT_INITIAL_FRACTION_LOG2;
use diehard::inject::{inject, Injection};
use diehard::prelude::*;
use diehard::workloads::profile_by_name;

/// The adaptive heap (future work, §9) runs a real workload's allocation
/// stream to completion, growing on demand, with a much smaller footprint.
#[test]
fn adaptive_heap_serves_real_workloads_with_smaller_footprint() {
    // Small regions + a longer-lived profile so live data actually presses
    // against the initial 1/64 slot allotment.
    let config = HeapConfig::default().with_region_bytes(64 * 1024);
    let fixed_span = config.heap_span();
    let heap: Heap = Heap::new_elastic(config, 5, DEFAULT_INITIAL_FRACTION_LOG2).unwrap();
    let prog = profile_by_name("p2c").unwrap().generate(0.2, 3);
    let mut live: std::collections::HashMap<u32, usize> = Default::default();
    for op in &prog.ops {
        match op {
            Op::Alloc { id, size } => {
                let slot = heap.alloc(*size).expect("adaptive heap grows on demand");
                live.insert(*id, heap.offset_of(slot));
            }
            Op::Free { id } => {
                if let Some(off) = live.remove(id) {
                    assert!(heap.free_at(off).freed(), "valid free must succeed");
                }
            }
            _ => {}
        }
    }
    assert!(heap.growth_events() > 0, "p2c must trigger growth");
    let committed: usize = SizeClass::all()
        .map(|c| heap.partition(c).capacity() * c.object_size())
        .sum();
    assert!(
        committed < fixed_span / 4,
        "adaptive commit {committed} should be far below fixed {fixed_span}"
    );
}

/// Protection is monotone in M: sweeping the dial upward never hurts
/// overflow survival (statistically, with generous margins).
#[test]
fn m_dial_monotone_protection() {
    let espresso = profile_by_name("espresso").unwrap();
    let injection = Injection::Underflow {
        rate: 0.05,
        min_size: 32,
        shrink_by: 16,
    };
    let survival = |m: f64| -> usize {
        let mut ok = 0;
        for run in 0..10u64 {
            let prog = espresso.generate(0.02, 800 + run);
            let bad = inject(&prog, &injection, 900 + run);
            let config = HeapConfig::default()
                .with_region_bytes(1 << 20)
                .with_multiplier(m);
            if (System::DieHard { config, seed: run })
                .evaluate(&bad)
                .is_correct()
            {
                ok += 1;
            }
        }
        ok
    };
    let low = survival(1.1);
    let high = survival(8.0);
    assert!(
        high + 2 >= low,
        "M=8 ({high}/10) must not mask materially fewer than M=1.1 ({low}/10)"
    );
    assert!(
        high >= 8,
        "M=8 should survive nearly all runs, got {high}/10"
    );
}

/// §4.4 end-to-end: squid's attack is fully neutralized by the replaced
/// strcpy under every allocator — the overflow never happens.
#[test]
fn bounded_strcpy_neutralizes_squid_everywhere() {
    use diehard::baselines::LeaSimAllocator;
    use diehard::workloads::squid;

    let attack = squid::attack_scenario(16);
    let opts = ExecOptions {
        bounded_strcpy: true,
        ..Default::default()
    };
    let oracle = {
        let mut inf = InfiniteHeap::new();
        match run_program(&mut inf, &attack, &opts) {
            RunOutcome::Completed(o) => o,
            other => panic!("oracle: {other:?}"),
        }
    };
    // Even the corruptible Lea baseline survives once strcpy is bounded —
    // the clamp uses the allocator's own usable_size.
    let mut lea = LeaSimAllocator::new(64 << 20);
    let out = run_program(&mut lea, &attack, &opts);
    assert_eq!(
        verdict(&out, &oracle),
        Verdict::Correct,
        "lea + bounded strcpy"
    );

    let mut dh = DieHardSimHeap::new(HeapConfig::default(), 2).unwrap();
    let out = run_program(&mut dh, &attack, &opts);
    assert_eq!(
        verdict(&out, &oracle),
        Verdict::Correct,
        "diehard + bounded strcpy"
    );
}

/// The replicated voter commits exactly the oracle's bytes for clean
/// multi-chunk outputs (voting never mangles chunk boundaries).
#[test]
fn voter_preserves_multi_chunk_output_exactly() {
    let mut ops = Vec::new();
    // ~24 KB of output: six chunks.
    for i in 0..600u32 {
        ops.push(Op::Alloc { id: i, size: 40 });
        ops.push(Op::Write {
            id: i,
            offset: 0,
            len: 40,
            seed: (i % 200) as u8,
        });
        ops.push(Op::Read {
            id: i,
            offset: 0,
            len: 40,
        });
    }
    let prog = Program::new("chunky", ops);
    let oracle = oracle_output(&prog);
    assert!(oracle.chunk_count() >= 5, "want a multi-chunk output");
    let set = ReplicaSet::new(3, 0xC0FFEE, HeapConfig::default());
    match set.run(&prog).outcome {
        ReplicatedOutcome::Agreed(out) => assert_eq!(out, oracle),
        other => panic!("expected agreement, got {other:?}"),
    }
}

/// Double and invalid frees at scale: thousands of erroneous frees leave a
/// DieHard heap fully consistent.
#[test]
fn erroneous_free_storm_leaves_heap_consistent() {
    let mut heap = DieHardSimHeap::new(HeapConfig::default(), 7).unwrap();
    let mut rng = Mwc::seeded(0x5707);
    let mut live = Vec::new();
    for _ in 0..500 {
        if let Some(p) = heap.malloc(8 + rng.below(1000), &[]).unwrap() {
            live.push(p);
        }
    }
    let before = heap.stats().allocs;
    for _ in 0..5000 {
        // Wild, misaligned, and double frees at random.
        let bogus = rng.below(heap.core().heap_span() * 2);
        heap.free(bogus).unwrap();
    }
    // Every legitimately live object must still free exactly once.
    let mut freed = 0;
    for p in live {
        let live_before = heap.core().live_objects();
        heap.free(p).unwrap();
        if heap.core().live_objects() == live_before - 1 {
            freed += 1;
        }
    }
    assert_eq!(heap.stats().allocs, before);
    // The random storm may have legitimately freed a few objects by luck
    // (hitting a live slot start); overwhelmingly most survive.
    assert!(
        freed >= 490,
        "only {freed}/500 survived the bogus-free storm"
    );
    assert_eq!(heap.core().live_objects(), 0);
}
