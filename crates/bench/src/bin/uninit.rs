//! §6.3 / Theorem 3: probability of detecting uninitialized reads across
//! replicas — the analytic values (including the counter-intuitive drop
//! from 3 to 4 replicas) plus two Monte Carlo validations: a bit-level
//! simulation of the theorem's model, and an end-to-end run of the actual
//! replicated voter on a program with a real uninitialized read.
//!
//! Run: `cargo run --release -p diehard-bench --bin uninit`

use diehard_bench::{pct, TextTable};
use diehard_core::config::HeapConfig;
use diehard_core::rng::Mwc;
use diehard_runtime::ops::{Op, Program};
use diehard_runtime::{ReplicaSet, ReplicatedOutcome};
use diehard_sim::analysis::p_uninit_detect;

const BIT_TRIALS: usize = 50_000;
const E2E_TRIALS: usize = 400;

/// Theorem 3's model, simulated directly: k replicas each fill B bits
/// uniformly at random; the read is detected iff all values are pairwise
/// distinct.
fn bit_trial(bits: u32, k: usize, rng: &mut Mwc) -> bool {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut seen = Vec::with_capacity(k);
    for _ in 0..k {
        let v = rng.next_u64() & mask;
        if seen.contains(&v) {
            return false;
        }
        seen.push(v);
    }
    true
}

/// End-to-end: a program whose output depends on `bytes` uninitialized
/// bytes, run under the replicated voter. Detection = divergence.
fn e2e_trial(bytes: usize, k: usize, master_seed: u64) -> bool {
    let prog = Program::new(
        "uninit-probe",
        vec![
            Op::Alloc { id: 0, size: 64 },
            Op::Read {
                id: 0,
                offset: 0,
                len: bytes,
            },
        ],
    );
    let set = ReplicaSet::new(k, master_seed, HeapConfig::default());
    matches!(set.run(&prog).outcome, ReplicatedOutcome::Divergence { .. })
}

fn main() {
    println!("§6.3 — Probability of Detecting Uninitialized Reads (Theorem 3)\n");

    let mut table = TextTable::new(vec!["bits (B)", "replicas (k)", "analytic", "bit-level MC"]);
    let mut rng = Mwc::seeded(0x0121);
    for &bits in &[4u32, 8, 16] {
        for &k in &[3usize, 4, 5, 6] {
            let analytic = p_uninit_detect(bits, k as u32);
            let trials = diehard_bench::smoke_scaled(BIT_TRIALS, 2000);
            let hits = (0..trials).filter(|_| bit_trial(bits, k, &mut rng)).count();
            table.row(vec![
                bits.to_string(),
                k.to_string(),
                pct(analytic),
                pct(hits as f64 / trials as f64),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Paper anchors: B=4, k=3 → 82%; B=4, k=4 → 66.7%; B=16, k=3 → 99.995%.\n");

    println!(
        "End-to-end: replicated DieHard (random fill + 4 KB voting) on a program\n\
         that reads B uninitialized bits; detection = voter divergence.\n"
    );
    let mut e2e = TextTable::new(vec![
        "bits (B)",
        "replicas (k)",
        "analytic",
        "replicated-voter MC",
    ]);
    for &bytes in &[1usize, 2] {
        let bits = (bytes * 8) as u32;
        for &k in &[3usize, 4] {
            let analytic = p_uninit_detect(bits, k as u32);
            let trials = diehard_bench::smoke_scaled(E2E_TRIALS, 20);
            let hits = (0..trials as u64)
                .filter(|&t| e2e_trial(bytes, k, 0xE2E0 + t))
                .count();
            e2e.row(vec![
                bits.to_string(),
                k.to_string(),
                pct(analytic),
                pct(hits as f64 / trials as f64),
            ]);
        }
    }
    println!("{}", e2e.render());
    println!(
        "Note the §6.3 effect in both tables: adding a fourth replica *lowers*\n\
         detection probability for small B (more chances for two replicas to\n\
         agree by accident), while for B ≥ 16 the loss is negligible."
    );
}
