//! Statistical integration tests: the paper's closed-form model (Section 6)
//! against Monte Carlo measurements of the actual allocator, with fixed
//! seeds so the tests are deterministic.

use diehard::core::analysis::{p_dangling_mask, p_overflow_mask, p_uninit_detect};
use diehard::core::partition::Partition;
use diehard::core::rng::splitmix;
use diehard::prelude::*;

/// Theorem 1 vs the allocator: overflow masking at three fullness levels.
#[test]
fn theorem1_matches_measurement() {
    const CAP: usize = 2048;
    const TRIALS: usize = 4000;
    let mut rng = Mwc::seeded(0x7E01);
    for (fullness, denom) in [(0.125, 8u32), (0.25, 4), (0.5, 2)] {
        let mut masked = 0;
        for _ in 0..TRIALS {
            let part = Partition::new(SizeClass::from_index(0), CAP, CAP, splitmix(rng.next_u64()));
            for _ in 0..(CAP as f64 * fullness) as usize {
                part.alloc().unwrap();
            }
            let start = rng.below(CAP - 1);
            if !part.is_live(start) {
                masked += 1;
            }
        }
        let analytic = p_overflow_mask(1.0 - fullness, 1, 1);
        let empirical = masked as f64 / TRIALS as f64;
        assert!(
            (analytic - empirical).abs() < 0.03,
            "1/{denom} full: analytic {analytic:.3} vs measured {empirical:.3}"
        );
    }
}

/// Theorem 2 vs the allocator: dangling-object survival.
#[test]
fn theorem2_matches_measurement() {
    const CAP: usize = 4096;
    const TRIALS: usize = 600;
    const A: u64 = 400;
    let mut rng = Mwc::seeded(0x7E02);
    let mut intact = 0;
    for _ in 0..TRIALS {
        let part = Partition::new(SizeClass::from_index(0), CAP, CAP, splitmix(rng.next_u64()));
        let mut live = Vec::new();
        for _ in 0..CAP / 2 {
            live.push(part.alloc().unwrap());
        }
        let victim = live[rng.below(live.len())];
        part.free(victim);
        let mut survived = true;
        for _ in 0..A {
            if part.alloc() == Some(victim) {
                survived = false;
                break;
            }
        }
        if survived {
            intact += 1;
        }
    }
    let analytic = p_dangling_mask(A, (CAP / 2) as u64, 1);
    let empirical = intact as f64 / TRIALS as f64;
    assert!(
        (analytic - empirical).abs() < 0.05,
        "analytic {analytic:.3} vs measured {empirical:.3}"
    );
}

/// Theorem 3 vs the replicated voter, end to end: a one-byte uninit read.
#[test]
fn theorem3_matches_replicated_voter() {
    const TRIALS: u64 = 150;
    let prog = Program::new(
        "uninit",
        vec![
            Op::Alloc { id: 0, size: 64 },
            Op::Read {
                id: 0,
                offset: 0,
                len: 1,
            },
        ],
    );
    let mut detected = 0;
    for t in 0..TRIALS {
        let set = ReplicaSet::new(3, 0x7E03 + t * 7919, HeapConfig::default());
        if matches!(set.run(&prog).outcome, ReplicatedOutcome::Divergence { .. }) {
            detected += 1;
        }
    }
    let analytic = p_uninit_detect(8, 3);
    let empirical = detected as f64 / TRIALS as f64;
    assert!(
        (analytic - empirical).abs() < 0.06,
        "analytic {analytic:.3} vs measured {empirical:.3}"
    );
}

/// The E[min separation] = M − 1 claim on a real heap at its cap.
#[test]
fn expected_separation_matches() {
    for m in [2.0f64, 4.0] {
        let cap = 8192;
        let threshold = (cap as f64 / m) as usize;
        let part = Partition::new(SizeClass::from_index(0), cap, threshold, 0x5E9A);
        while part.alloc().is_some() {}
        let gap = part.mean_live_gap().unwrap();
        let expect = m - 1.0;
        assert!(
            (gap - expect).abs() / expect < 0.1,
            "M={m}: gap {gap:.3}, expected {expect}"
        );
    }
}
