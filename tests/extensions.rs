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
        let live_before = heap.core().in_use();
        heap.free(p).unwrap();
        if heap.core().in_use() == live_before - 1 {
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
    assert_eq!(heap.core().in_use(), 0);
}

mod magazine_ab {
    //! The A/B of `magazine::MagazineCache` against the heap: same master
    //! seeds, same logical churn, statistically indistinguishable placement
    //! (§4.2's uniform randomness). The cache is a pass-through now, kept
    //! as the frozen benchmark package's import path, so this pins that its
    //! `core.magazine.*` ledger rows time the heap's own placement.

    use diehard::core::magazine::MagazineCache;
    use diehard::prelude::*;

    const CLASS_64B: usize = 3;

    /// The two designs under a common allocation interface.
    trait Driver {
        fn alloc64(&mut self) -> Option<Slot>;
        fn free(&mut self, offset: usize);
        fn offset_of(&self, slot: Slot) -> usize;
    }

    impl Driver for &Heap {
        fn alloc64(&mut self) -> Option<Slot> {
            self.alloc(64)
        }
        fn free(&mut self, offset: usize) {
            assert!(self.free_at(offset).freed());
        }
        fn offset_of(&self, slot: Slot) -> usize {
            Heap::offset_of(self, slot)
        }
    }

    impl Driver for (&Heap, MagazineCache<'_>) {
        fn alloc64(&mut self) -> Option<Slot> {
            self.1.alloc(64)
        }
        fn free(&mut self, offset: usize) {
            assert!(self.1.free_at(offset).freed());
        }
        fn offset_of(&self, slot: Slot) -> usize {
            self.0.offset_of(slot)
        }
    }

    /// The shared churn: `ops` 64-byte allocations into a `window`-sized
    /// sliding set with seeded-random evictions, recording every
    /// allocation's slot index.
    fn churn(seed: u64, driver: &mut impl Driver, ops: usize, window: usize) -> Vec<usize> {
        let mut rng = Mwc::seeded(seed ^ 0x51AB);
        let mut live = Vec::new();
        let mut indices = Vec::with_capacity(ops);
        for _ in 0..ops {
            let slot = driver
                .alloc64()
                .expect("64 B class cannot exhaust under this window");
            indices.push(slot.index);
            live.push(driver.offset_of(slot));
            if live.len() > window {
                let victim = live.swap_remove(rng.below(live.len()));
                driver.free(victim);
            }
        }
        indices
    }

    /// Chi-square over slot indices across many seeds (the acceptance
    /// criterion): bucket every allocation's slot index, accumulate
    /// histograms for both designs over all seeds, and require the
    /// two-sample homogeneity statistic to stay below the α = 0.001
    /// critical value for 31 degrees of freedom (≈ 61.1).
    ///
    /// For the same master seed the statistic is expected to be *tiny*,
    /// not merely sub-critical: both accept placements from the same
    /// per-class probe stream. A cache that abandoned the partition's own
    /// probe loop — carving deterministic runs, a per-thread cursor, a
    /// different RNG — would cluster each seed's placements away from the
    /// heap's and blow far past the bound.
    #[test]
    fn magazine_placement_matches_sharded_distribution() {
        const SEEDS: u64 = 60;
        const BUCKETS: usize = 32;
        const OPS: usize = 600;
        const WINDOW: usize = 300;
        // A dense region — 64 KB gives the 64 B class 1024 slots, 512 live
        // cap — so the ~300-object window keeps occupancy near 40% and the
        // probe loop collides regularly: a cache that changed *which* slots
        // are occupied at each draw would show there, where on a sparse
        // region any design emits the raw RNG stream.
        let config = HeapConfig::default().with_region_bytes(64 * 1024);
        let capacity = config.capacity(SizeClass::from_index(CLASS_64B));
        let mut sharded_hist = [0u64; BUCKETS];
        let mut magazine_hist = [0u64; BUCKETS];

        for seed in 0..SEEDS {
            let sharded: Heap = Heap::new(config.clone(), seed).unwrap();
            for idx in churn(seed, &mut (&sharded), OPS, WINDOW) {
                sharded_hist[idx * BUCKETS / capacity] += 1;
            }

            let magazine: Heap = Heap::new(config.clone(), seed).unwrap();
            let mut driver = (&magazine, magazine.thread_cache());
            for idx in churn(seed, &mut driver, OPS, WINDOW) {
                magazine_hist[idx * BUCKETS / capacity] += 1;
            }
        }

        let n_sharded: u64 = sharded_hist.iter().sum();
        let n_magazine: u64 = magazine_hist.iter().sum();
        assert_eq!(n_sharded, SEEDS * OPS as u64);
        assert_eq!(n_magazine, SEEDS * OPS as u64);

        let total = (n_sharded + n_magazine) as f64;
        let mut chi2 = 0.0;
        for b in 0..BUCKETS {
            let row = (sharded_hist[b] + magazine_hist[b]) as f64;
            if row == 0.0 {
                continue;
            }
            let exp_sharded = row * n_sharded as f64 / total;
            let exp_magazine = row * n_magazine as f64 / total;
            chi2 += (sharded_hist[b] as f64 - exp_sharded).powi(2) / exp_sharded;
            chi2 += (magazine_hist[b] as f64 - exp_magazine).powi(2) / exp_magazine;
        }
        eprintln!("placement chi-square = {chi2:.2}");
        assert!(
            chi2 < 61.1,
            "placement distributions differ: chi-square {chi2:.2} over {BUCKETS} buckets \
             exceeds the df=31, alpha=0.001 critical value"
        );
    }

    /// Layout statistics A/B for the paper's §3.1 separation claim: after
    /// identical churn, the mean free-gap between live objects must agree
    /// between the designs (the cache must not cluster placements).
    #[test]
    fn magazine_layout_statistics_match_sharded() {
        let class = SizeClass::from_index(CLASS_64B);
        let mut gaps = Vec::new();
        for seed in [3u64, 17, 99] {
            let sharded: Heap = Heap::new(HeapConfig::default(), seed).unwrap();
            churn(seed, &mut (&sharded), 300, 16);
            let sharded_gap = sharded
                .partition(class)
                .mean_live_gap()
                .expect("window keeps ≥ 2 live objects");

            let magazine: Heap = Heap::new(HeapConfig::default(), seed).unwrap();
            let mut driver = (&magazine, magazine.thread_cache());
            churn(seed, &mut driver, 300, 16);
            let magazine_gap = magazine
                .partition(class)
                .mean_live_gap()
                .expect("window keeps ≥ 2 live objects");

            let rel = (sharded_gap - magazine_gap).abs() / sharded_gap;
            assert!(
                rel < 0.35,
                "seed {seed}: mean live gap diverged — sharded {sharded_gap:.1}, \
                 magazine {magazine_gap:.1}"
            );
            gaps.push((sharded_gap, magazine_gap));
        }
        // Both designs keep objects far apart on the sparse region
        // (capacity 16384, ≤ 17 live): gaps of hundreds of slots.
        for (s, m) in gaps {
            assert!(s > 100.0 && m > 100.0, "gaps implausibly small: {s} {m}");
        }
    }
}
