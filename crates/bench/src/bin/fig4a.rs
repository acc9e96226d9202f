//! Figure 4(a): probability of masking single-object buffer overflows, for
//! varying replicas (1, 3, 4, 5, 6) and degrees of heap fullness (1/8,
//! 1/4, 1/2) — Theorem 1's closed form validated by Monte Carlo against
//! the actual randomized allocator.
//!
//! Run: `cargo run --release -p diehard-bench --bin fig4a`

use diehard_bench::{pct, smoke_scaled, TextTable};
use diehard_core::partition::Partition;
use diehard_core::rng::{splitmix, Mwc};
use diehard_core::size_class::SizeClass;
use diehard_sim::analysis::p_overflow_mask;

/// Slots per simulated region (the probability depends only on fullness,
/// not capacity, for single-slot draws; 4096 keeps trials fast).
const CAPACITY: usize = 4096;
/// Objects' worth of bytes overflowed (Figure 4a plots O = 1).
const OVERFLOW_OBJECTS: usize = 1;
const TRIALS: usize = 20_000;

/// One Monte Carlo trial: fill `k` independent randomized regions to
/// `fullness`, then land an overflow of `OVERFLOW_OBJECTS` slots at a
/// uniformly random position in each; the overflow is masked if in at
/// least one replica it touched no live slot.
fn trial(fullness: f64, replicas: usize, rng: &mut Mwc) -> bool {
    (0..replicas).any(|_| {
        let part = Partition::new(
            SizeClass::from_index(0),
            CAPACITY,
            CAPACITY,
            splitmix(rng.next_u64()),
        );
        let live_target = (CAPACITY as f64 * fullness) as usize;
        for _ in 0..live_target {
            part.alloc().expect("below capacity");
        }
        let start = rng.below(CAPACITY - OVERFLOW_OBJECTS);
        (start..start + OVERFLOW_OBJECTS).all(|slot| !part.is_live(slot))
    })
}

fn main() {
    let trials = smoke_scaled(TRIALS, 300);
    println!("Figure 4(a) — Probability of Avoiding Buffer Overflow");
    println!("(single-object overflow; analytic = Theorem 1; {trials} Monte Carlo trials/cell)\n");

    let mut table = TextTable::new(vec![
        "replicas",
        "heap fullness",
        "analytic",
        "monte carlo",
        "abs err",
    ]);
    let mut rng = Mwc::seeded(0xF164A);
    for &fullness in &[1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0] {
        for &k in &[1usize, 3, 4, 5, 6] {
            let analytic = p_overflow_mask(1.0 - fullness, OVERFLOW_OBJECTS as u32, k as u32);
            let masked = (0..trials).filter(|_| trial(fullness, k, &mut rng)).count();
            let empirical = masked as f64 / trials as f64;
            table.row(vec![
                k.to_string(),
                format!("1/{}", (1.0 / fullness).round() as u32),
                pct(analytic),
                pct(empirical),
                format!("{:.4}", (analytic - empirical).abs()),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Paper anchors: 1 replica @ 1/8 full = 87.5%; 3 replicas @ 1/8 full > 99%.");
}
